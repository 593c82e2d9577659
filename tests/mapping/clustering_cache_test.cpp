// Tests for the heuristics that read cluster-pair influence through the
// quotient cache (H1, H1 rounds, the H2 repair phase, H3) and for
// criticality pairing on the paper's §6 example. H1 must match the
// reference oracle's rescan over a from-scratch quotient; the others are
// pinned to the step logs and partitions captured when a pair memo still
// sat in front of the cache and was proven transparent by running every
// heuristic with it on and off.
#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/example98.h"
#include "reference_oracles.h"

namespace fcm::mapping {
namespace {

struct Fixture {
  core::example98::Instance instance = core::example98::make_instance();
  SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                              instance.processes);

  [[nodiscard]] ClusteringOptions options() const {
    ClusteringOptions options;
    options.target_clusters = 6;
    return options;
  }
  [[nodiscard]] ClusterEngine engine() const {
    return ClusterEngine(sw, options());
  }
};

void expect_identical(const ClusteringResult& a, const ClusteringResult& b) {
  EXPECT_EQ(a.partition.cluster_count, b.partition.cluster_count);
  EXPECT_EQ(a.partition.cluster_of, b.partition.cluster_of);
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.quotient.node_count(), b.quotient.node_count());
  for (graph::NodeIndex n = 0; n < a.quotient.node_count(); ++n) {
    EXPECT_EQ(a.quotient.name(n), b.quotient.name(n));
  }
  ASSERT_EQ(a.quotient.edges().size(), b.quotient.edges().size());
  for (std::size_t e = 0; e < a.quotient.edges().size(); ++e) {
    EXPECT_EQ(a.quotient.edges()[e].from, b.quotient.edges()[e].from);
    EXPECT_EQ(a.quotient.edges()[e].to, b.quotient.edges()[e].to);
    EXPECT_DOUBLE_EQ(a.quotient.edges()[e].weight,
                     b.quotient.edges()[e].weight);
  }
}

// cluster_of is over p1a p1b p1c p2a p2b p3a p3b p4 p5 p6 p7 p8.
void expect_golden(const ClusteringResult& result,
                   const std::vector<std::string>& steps,
                   const std::vector<std::uint32_t>& cluster_of) {
  EXPECT_EQ(result.steps, steps);
  EXPECT_EQ(result.partition.cluster_of, cluster_of);
  EXPECT_EQ(result.partition.cluster_count, 6u);
}

TEST(ClusteringCache, H1GreedyIsCacheTransparent) {
  Fixture fx;
  ClusterEngine engine = fx.engine();
  const ClusteringResult result = engine.h1_greedy();
  const oracle::MergeRun oracle_run = oracle::h1_greedy(fx.sw, fx.options());
  EXPECT_EQ(result.steps, oracle_run.steps);
  EXPECT_EQ(result.partition.cluster_of, oracle_run.partition.cluster_of);
  EXPECT_EQ(result.cross_cluster_influence(), oracle_run.cross_influence);
}

TEST(ClusteringCache, H1RoundsIsCacheTransparent) {
  Fixture fx;
  ClusterEngine engine = fx.engine();
  expect_golden(engine.h1_rounds(),
                {
                    "round 1: pair p1a + p2a (mutual influence 1.3)",
                    "round 1: pair p1b + p2b (mutual influence 1.3)",
                    "round 1: pair p7 + p8 (mutual influence 0.7)",
                    "round 1: pair p4 + p5 (mutual influence 0.3)",
                    "round 1: pair p3a + p6 (mutual influence 0.2)",
                    "round 1: pair p1c + p3b (mutual influence 0)",
                },
                {0, 1, 2, 0, 1, 3, 2, 4, 4, 3, 5, 5});
}

TEST(ClusteringCache, H2MincutIsCacheTransparent) {
  // H2 reads the pair cache only in its repair/re-merge phase, which the
  // §6 example enters at this target.
  Fixture fx;
  ClusterEngine engine = fx.engine();
  expect_golden(
      engine.h2_mincut(),
      {
          "cut {p1a,p1b,p1c,p2a,p2b,p3a,p3b,p4,p5,p6,p7,p8} -> {p7,p8} | "
          "{p1a,p1b,p1c,p2a,p2b,p3a,p3b,p4,p5,p6} (cut weight 0.4)",
          "cut {p1a,p1b,p1c,p2a,p2b,p3a,p3b,p4,p5,p6} -> {p5} | "
          "{p1a,p1b,p1c,p2a,p2b,p3a,p3b,p4,p6} (cut weight 0.4)",
          "cut {p1a,p1b,p1c,p2a,p2b,p3a,p3b,p4,p6} -> {p4} | "
          "{p1a,p1b,p1c,p2a,p2b,p3a,p3b,p6} (cut weight 0.6)",
          "cut {p1a,p1b,p1c,p2a,p2b,p3a,p3b,p6} -> {p6} | "
          "{p1a,p1b,p1c,p2a,p2b,p3a,p3b} (cut weight 0.7)",
          "cut {p1a,p1b,p1c,p2a,p2b,p3a,p3b} -> {p3b} | "
          "{p1a,p1b,p1c,p2a,p2b,p3a} (cut weight 1.6)",
          "cut {p1a,p1b,p1c,p2a,p2b,p3a} -> {p3a} | {p1a,p1b,p1c,p2a,p2b} "
          "(cut weight 1.6)",
          "cut {p1a,p1b,p1c,p2a,p2b} -> {p1c} | {p1a,p1b,p2a,p2b} "
          "(cut weight 2.6)",
          "cut {p1a,p1b,p2a,p2b} -> {p2b} | {p1a,p1b,p2a} (cut weight 2.6)",
          "cut {p1a,p1b,p2a} -> {p1b} | {p1a,p2a} (cut weight 1.3)",
          "repair-merge p1b + p2b",
          "repair-merge p1a,p2a + p3a",
          "repair-merge p1b,p2b + p3b",
          "repair-merge p5 + p7,p8",
      },
      {0, 1, 2, 0, 1, 0, 1, 3, 4, 5, 4, 4});
}

TEST(ClusteringCache, H3ImportanceIsCacheTransparent) {
  Fixture fx;
  ClusterEngine engine = fx.engine();
  expect_golden(engine.h3_importance(),
                {
                    "seed p1a (importance 0.715000)",
                    "seed p1b (importance 0.715000)",
                    "seed p1c (importance 0.715000)",
                    "seed p2a (importance 0.556250)",
                    "seed p2b (importance 0.556250)",
                    "seed p3a (importance 0.540000)",
                    "attach p3b -> {p2a} (mutual influence 0.800000)",
                    "attach p5 -> {p1a} (mutual influence 0.000000)",
                    "attach p4 -> {p1a,p5} (mutual influence 0.500000)",
                    "attach p6 -> {p2a,p3b} (mutual influence 0.200000)",
                    "attach p7 -> {p1a,p4,p5} (mutual influence 0.200000)",
                    "attach p8 -> {p1a,p4,p5,p7} (mutual influence 0.760000)",
                },
                {0, 1, 2, 3, 4, 5, 3, 0, 0, 3, 0, 0});
}

TEST(ClusteringCache, CriticalityPairingUnaffectedByCacheFlag) {
  Fixture fx;
  ClusterEngine engine = fx.engine();
  expect_golden(engine.criticality_pairing(),
                {
                    "round 1: pair p1a + p8",
                    "round 1: pair p1b + p7",
                    "round 1: pair p1c + p6",
                    "round 1: pair p2a + p5",
                    "round 1: pair p2b + p4",
                    "round 1: conflict between p3a and p3b resolved by "
                    "dissolving pair (p2b,p4)",
                },
                {0, 1, 2, 3, 4, 5, 4, 5, 3, 2, 1, 0});
}

TEST(ClusteringCache, RepeatedRunsOnOneEngineStayConsistent) {
  // The cache resets per heuristic invocation; a second run must reproduce
  // the first exactly.
  Fixture fx;
  ClusterEngine engine = fx.engine();
  const ClusteringResult first = engine.h1_greedy();
  const ClusteringResult second = engine.h1_greedy();
  expect_identical(first, second);
}

}  // namespace
}  // namespace fcm::mapping

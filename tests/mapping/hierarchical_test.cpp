// Tests for hierarchical H1 (partition → cluster within parts in parallel →
// merge across parts). The determinism contract is the load-bearing part:
// bitwise-identical results for every worker-thread count and for one part
// vs flat H1; the final merge across parts and flat H1 must match the
// reference oracle's rescan over a from-scratch quotient, including the
// zero-mutual fallback the heap takes on disconnected influence graphs.
#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/probability.h"
#include "core/example98.h"
#include "core/synthetic.h"
#include "mapping/planner.h"
#include "reference_oracles.h"

namespace fcm::mapping {
namespace {

void expect_identical(const ClusteringResult& a, const ClusteringResult& b) {
  EXPECT_EQ(a.partition.cluster_count, b.partition.cluster_count);
  EXPECT_EQ(a.partition.cluster_of, b.partition.cluster_of);
  EXPECT_EQ(a.steps, b.steps);
}

void expect_matches_oracle(const ClusteringResult& result,
                           const oracle::MergeRun& run) {
  EXPECT_EQ(result.partition.cluster_count, run.partition.cluster_count);
  EXPECT_EQ(result.partition.cluster_of, run.partition.cluster_of);
  EXPECT_EQ(result.steps, run.steps);
  EXPECT_EQ(result.cross_cluster_influence(), run.cross_influence);
}

// The partition hierarchical H1 composes from its per-part runs: every
// "part i: combine A + B (...)" step joins the clusters holding the first
// members of A and B (comma-joined member names).
graph::Partition composed_partition(const SwGraph& sw,
                                    const std::vector<std::string>& steps) {
  std::map<std::string, graph::NodeIndex> index_of;
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    index_of.emplace(sw.node(v).name, v);
  }
  const auto first_member = [&](const std::string& step, std::size_t from) {
    return index_of.at(
        step.substr(from, step.find_first_of(", ", from) - from));
  };
  graph::Partition partition = graph::Partition::identity(sw.node_count());
  for (const std::string& step : steps) {
    const std::size_t combine = step.find(": combine ");
    if (combine == std::string::npos) continue;  // not a per-part merge
    const std::size_t plus = step.find(" + ", combine);
    partition.merge(first_member(step, combine + 10),
                    first_member(step, plus + 3));
  }
  return partition;
}

struct Scaled {
  core::synthetic::System sys;
  SwGraph sw;

  explicit Scaled(std::size_t processes, std::uint64_t seed = 42)
      : sys(core::synthetic::make_system(processes, seed)),
        sw(SwGraph::build(sys.hierarchy, sys.influence, sys.processes)) {}

  [[nodiscard]] ClusteringOptions options(std::size_t target) const {
    ClusteringOptions opts;
    opts.target_clusters = target;
    opts.enforce_schedulability = false;
    return opts;
  }
};

TEST(HierarchicalH1, ReachesTargetAndRespectsAntiAffinity) {
  const Scaled fx(256);
  ClusteringOptions opts = fx.options(64);
  ClusterEngine engine(fx.sw, opts);
  const ClusteringResult result = engine.h1_hierarchical();

  EXPECT_EQ(result.partition.cluster_count, 64u);
  result.partition.validate();
  for (const auto& members : result.partition.groups()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        ASSERT_FALSE(fx.sw.replicas(members[i], members[j]))
            << fx.sw.node(members[i]).name << " and "
            << fx.sw.node(members[j]).name << " share a cluster";
      }
    }
  }
}

TEST(HierarchicalH1, BitwiseIdenticalAcrossWorkerCounts) {
  const Scaled fx(256);
  std::vector<ClusteringResult> results;
  for (const std::uint32_t threads : {1u, 4u, 8u}) {
    ClusteringOptions opts = fx.options(64);
    opts.threads = threads;
    ClusterEngine engine(fx.sw, opts);
    results.push_back(engine.h1_hierarchical());
  }
  expect_identical(results[0], results[1]);
  expect_identical(results[0], results[2]);
}

TEST(HierarchicalH1, SinglePartEqualsFlatH1) {
  // Under 192 SW nodes the automatic part count (one per 96 nodes) is 1.
  const Scaled fx(64);
  ASSERT_LT(fx.sw.node_count(), 192u);
  ClusterEngine hierarchical(fx.sw, fx.options(16));
  ClusterEngine flat(fx.sw, fx.options(16));
  expect_identical(hierarchical.h1_hierarchical(), flat.h1_greedy());
}

TEST(HierarchicalH1, QuotientModesBitwiseIdentical) {
  // The merge across parts starts from the composed per-part clusterings;
  // rebuilt from the step log, the oracle must reproduce that phase. At
  // target 4 the four parts' replica floors leave 12 clusters, so the
  // phase merges eight times (at target 64 the local targets sum to the
  // global one and it merges nothing).
  const Scaled fx(256);
  const ClusteringOptions opts = fx.options(4);
  ClusterEngine engine(fx.sw, opts);
  const ClusteringResult result = engine.h1_hierarchical();
  ClusterEngine oracle_engine(fx.sw, opts);
  oracle::MergeRun run = oracle::greedy_merge(
      fx.sw, oracle_engine, composed_partition(fx.sw, result.steps),
      opts.target_clusters, oracle::MergeStyle::kCombine);
  ASSERT_FALSE(run.steps.empty());
  std::vector<std::string> log;
  for (const std::string& step : result.steps) {
    if (step.rfind("hierarchical: ", 0) == 0 || step.rfind("part ", 0) == 0) {
      log.push_back(step);
    }
  }
  log.insert(log.end(), run.steps.begin(), run.steps.end());
  run.steps = std::move(log);
  expect_matches_oracle(result, run);
}

TEST(FlatH1, QuotientModesBitwiseIdentical) {
  const Scaled fx(128);
  const ClusteringOptions opts = fx.options(24);
  ClusterEngine engine(fx.sw, opts);
  expect_matches_oracle(engine.h1_greedy(), oracle::h1_greedy(fx.sw, opts));
}

// Disconnected influence components force zero-mutual merges, the one spot
// where the heap drains and the fallback scan takes over. The fallback
// must reproduce the rescan's first-wins selection exactly.
TEST(FlatH1, ZeroMutualFallbackMatchesScan) {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
  for (int i = 0; i < 9; ++i) {
    core::Attributes attrs;
    attrs.criticality = 5;
    attrs.replication = 1;
    attrs.timing = core::TimingSpec::one_shot(
        Instant::epoch(), Instant::epoch() + Duration::millis(100),
        Duration::millis(2));
    const FcmId id = hierarchy.create("p" + std::to_string(i + 1),
                                      core::Level::kProcess, attrs);
    influence.add_member(id, hierarchy.get(id).name);
    processes.push_back(id);
  }
  // Three disconnected triangles: merging below 3 clusters requires
  // zero-mutual merges across components.
  for (int g = 0; g < 9; g += 3) {
    for (int k = 0; k < 3; ++k) {
      influence.set_direct(processes[g + k], processes[g + (k + 1) % 3],
                           Probability(0.3));
    }
  }
  const SwGraph sw = SwGraph::build(hierarchy, influence, processes);

  ClusteringOptions opts;
  opts.target_clusters = 2;
  opts.enforce_schedulability = false;
  ClusterEngine engine(sw, opts);
  expect_matches_oracle(engine.h1_greedy(), oracle::h1_greedy(sw, opts));
}

TEST(HierarchicalH1, PlannerRunsHeuristicEndToEnd) {
  const auto instance = core::example98::make_instance();
  const HwGraph hw = HwGraph::complete(4);
  IntegrationPlanner planner(instance.hierarchy, instance.influence,
                             instance.processes, hw);
  const Plan plan =
      planner.plan(Heuristic::kH1Hierarchical, Approach::kAImportance);
  EXPECT_EQ(plan.clustering.partition.cluster_count, 4u);
  EXPECT_EQ(plan.assignment.hw_of.size(), 4u);
  EXPECT_STREQ(to_string(Heuristic::kH1Hierarchical), "H1-hierarchical");
}

}  // namespace
}  // namespace fcm::mapping

// Differential tests for the greedy-merge pair heap: H1 (and the H2
// repair phase, which shares the loop) must produce byte-identical step
// logs, partitions, and quotients to the textbook O(k²) rescan of the
// reference oracle — including which Infeasible cases are hit.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "core/example98.h"
#include "mapping/clustering.h"
#include "reference_oracles.h"

namespace fcm::mapping {
namespace {

using core::example98::make_instance;

struct RandomSystem {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
};

RandomSystem random_system(std::uint64_t seed) {
  Rng rng(seed);
  RandomSystem sys;
  const std::size_t n = 5 + rng.below(6);  // 5..10 processes
  for (std::size_t i = 0; i < n; ++i) {
    core::Attributes attrs;
    attrs.criticality = static_cast<core::Criticality>(rng.range(1, 10));
    attrs.replication =
        rng.uniform() < 0.25 ? static_cast<int>(rng.range(2, 3)) : 1;
    const std::int64_t est = rng.range(0, 20);
    const std::int64_t ct = rng.range(1, 8);
    const std::int64_t tcd = est + ct + rng.range(2, 40);
    attrs.timing = core::TimingSpec::one_shot(
        Instant::epoch() + Duration::millis(est),
        Instant::epoch() + Duration::millis(tcd), Duration::millis(ct));
    const FcmId id = sys.hierarchy.create("p" + std::to_string(i + 1),
                                          core::Level::kProcess, attrs);
    sys.influence.add_member(id, sys.hierarchy.get(id).name);
    sys.processes.push_back(id);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform() < 0.35) {
        sys.influence.set_direct(sys.processes[i], sys.processes[j],
                                 Probability(rng.uniform(0.05, 0.8)));
      }
    }
  }
  return sys;
}

// Runs H1 through production and through the oracle; both must agree on
// outcome (result vs Infeasible), step log, partition, and quotient.
void expect_h1_matches_oracle(const SwGraph& sw, std::size_t target) {
  ClusteringOptions options;
  options.target_clusters = target;
  ClusterEngine engine(sw, options);

  bool heap_infeasible = false;
  std::string heap_message;
  ClusteringResult heap_result;
  try {
    heap_result = engine.h1_greedy();
  } catch (const Infeasible& e) {
    heap_infeasible = true;
    heap_message = e.what();
  }
  bool oracle_infeasible = false;
  std::string oracle_message;
  oracle::MergeRun oracle_run;
  try {
    oracle_run = oracle::h1_greedy(sw, options);
  } catch (const Infeasible& e) {
    oracle_infeasible = true;
    oracle_message = e.what();
  }

  ASSERT_EQ(oracle_infeasible, heap_infeasible)
      << "target " << target << ": paths disagree on feasibility";
  if (oracle_infeasible) {
    EXPECT_EQ(oracle_message, heap_message) << "target " << target;
    return;
  }
  EXPECT_EQ(oracle_run.steps, heap_result.steps) << "target " << target;
  EXPECT_EQ(oracle_run.partition.cluster_of, heap_result.partition.cluster_of)
      << "target " << target;
  EXPECT_EQ(oracle_run.cross_influence, heap_result.cross_cluster_influence());
}

// The partition H2 hands its repair phase: the leaves of its
// "cut {X} -> {Y} | {Z} (cut weight w)" steps, starting from one part.
graph::Partition cut_leaves(const SwGraph& sw,
                            const std::vector<std::string>& cuts) {
  std::map<std::string, graph::NodeIndex> index_of;
  std::string all;
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    index_of.emplace(sw.node(v).name, v);
    all += (all.empty() ? "" : ",") + sw.node(v).name;
  }
  std::set<std::string> leaves = {all};
  for (const std::string& cut : cuts) {
    const std::size_t arrow = cut.find("} -> {");
    const std::size_t bar = cut.find("} | {");
    const std::size_t close = cut.find("} (cut weight");
    leaves.erase(cut.substr(5, arrow - 5));
    leaves.insert(cut.substr(arrow + 6, bar - arrow - 6));
    leaves.insert(cut.substr(bar + 5, close - bar - 5));
  }
  graph::Partition partition = graph::Partition::identity(sw.node_count());
  for (const std::string& leaf : leaves) {
    const graph::NodeIndex first = index_of.at(leaf.substr(0, leaf.find(',')));
    for (std::size_t begin = 0; begin <= leaf.size();) {
      const std::size_t end = std::min(leaf.find(',', begin), leaf.size());
      partition.merge(first, index_of.at(leaf.substr(begin, end - begin)));
      begin = end + 1;
    }
  }
  return partition;
}

// Runs H2 through production, rebuilds the partition its repair phase
// started from, and reruns the repair merges through the oracle.
void expect_repair_matches_oracle(const SwGraph& sw, std::size_t target) {
  ClusteringOptions options;
  options.target_clusters = target;
  ClusterEngine engine(sw, options);
  const ClusteringResult result = engine.h2_mincut();
  std::vector<std::string> expected;
  for (const std::string& step : result.steps) {
    if (step.rfind("cut {", 0) == 0) expected.push_back(step);
  }
  ClusterEngine oracle_engine(sw, options);
  const oracle::MergeRun run = oracle::greedy_merge(
      sw, oracle_engine, cut_leaves(sw, expected), target,
      oracle::MergeStyle::kRepairMerge);
  expected.insert(expected.end(), run.steps.begin(), run.steps.end());
  EXPECT_EQ(result.steps, expected) << "target " << target;
  EXPECT_EQ(result.partition.cluster_of, run.partition.cluster_of)
      << "target " << target;
  EXPECT_EQ(result.cross_cluster_influence(), run.cross_influence);
}

TEST(H1PairHeap, MatchesScanOnExample98AtEveryTarget) {
  core::example98::Instance instance = make_instance();
  const SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                                    instance.processes);
  for (std::size_t target = 3; target <= sw.node_count(); ++target) {
    expect_h1_matches_oracle(sw, target);
  }
}

TEST(H1PairHeap, MatchesScanOnRepairPhaseViaH2) {
  // h2_mincut's tail re-merge runs the same greedy loop in repair-merge
  // flavor; low targets force the repair phase to do real work. The §6
  // example's logs are pinned as captured when the pair heap was still
  // checked against a production rescan: nine cuts (the phase-1 bisections
  // and the constraint repairs) leave ten parts, and target t re-merges
  // the first 10 − t pairs of one fixed sequence.
  core::example98::Instance instance = make_instance();
  const SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                                    instance.processes);
  const std::vector<std::string> cuts = {
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
  };
  const std::vector<std::string> repairs = {
      "repair-merge p1b + p2b",          "repair-merge p1a,p2a + p3a",
      "repair-merge p1b,p2b + p3b",      "repair-merge p5 + p7,p8",
      "repair-merge p4 + p5,p7,p8",      "repair-merge p1a,p2a,p3a + p6",
      "repair-merge p1c + p4,p5,p7,p8",
  };
  // cluster_of over p1a p1b p1c p2a p2b p3a p3b p4 p5 p6 p7 p8, target 3..8.
  const std::vector<std::vector<std::uint32_t>> cluster_of = {
      {0, 1, 2, 0, 1, 0, 1, 2, 2, 0, 2, 2},
      {0, 1, 2, 0, 1, 0, 1, 3, 3, 0, 3, 3},
      {0, 1, 2, 0, 1, 0, 1, 3, 3, 4, 3, 3},
      {0, 1, 2, 0, 1, 0, 1, 3, 4, 5, 4, 4},
      {0, 1, 2, 0, 1, 0, 1, 3, 4, 5, 6, 6},
      {0, 1, 2, 0, 1, 0, 3, 4, 5, 6, 7, 7},
  };
  for (std::size_t target = 3; target <= 8; ++target) {
    ClusteringOptions options;
    options.target_clusters = target;
    ClusterEngine engine(sw, options);
    const ClusteringResult result = engine.h2_mincut();
    std::vector<std::string> steps = cuts;
    steps.insert(steps.end(), repairs.begin(),
                 repairs.begin() + static_cast<std::ptrdiff_t>(10 - target));
    EXPECT_EQ(result.steps, steps) << "target " << target;
    EXPECT_EQ(result.partition.cluster_of, cluster_of[target - 3])
        << "target " << target;
    expect_repair_matches_oracle(sw, target);
  }
}

class PairHeapSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairHeapSweep, MatchesScanOnRandomSystems) {
  const RandomSystem sys = random_system(GetParam());
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  int max_replication = 1;
  for (const SwNode& node : sw.nodes()) {
    max_replication = std::max(max_replication, node.attributes.replication);
  }
  for (std::size_t target = static_cast<std::size_t>(max_replication);
       target <= sw.node_count(); ++target) {
    expect_h1_matches_oracle(sw, target);
    expect_repair_matches_oracle(sw, target);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairHeapSweep,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(H1PairHeap, TightestTargetAgreesOnOutcomeAndMessage) {
  // Target 3 (the TMR replication floor) forces the loop deep into merges
  // the timing devices reject; whether that ends in a clustering or in
  // Infeasible, the heap must match the rescan — including the exact
  // message when both throw.
  core::example98::Instance instance = make_instance();
  const SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                                    instance.processes);
  expect_h1_matches_oracle(sw, 3);
}

}  // namespace
}  // namespace fcm::mapping

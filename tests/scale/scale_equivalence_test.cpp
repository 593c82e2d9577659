// tier2-scale: the fast-path equivalences at sizes closer to bench_scale
// than the tier1 unit tests — series kernels at n=96, the H1 pair heap
// against the reference oracle's rescan at a ~100-node SW graph, and the
// parallel planner sweep on a 32-process system. Everything here is a
// bitwise-equivalence check; timing claims live in bench/bench_scale.cpp.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "graph/series.h"
#include "mapping/clustering.h"
#include "mapping/planner.h"
#include "reference_oracles.h"

namespace fcm {
namespace {

graph::Matrix random_influence(std::size_t n, double fill,
                               std::uint64_t seed) {
  Rng rng(seed);
  graph::Matrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform() < fill) {
        p.at(i, j) = rng.uniform(0.05, 0.9);
      }
    }
  }
  return p;
}

void expect_bitwise_equal(const graph::Matrix& a, const graph::Matrix& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        a.size() * a.size() * sizeof(double)),
            0);
}

// A process system with generous timing windows so clusters stay
// schedulable even when many processes share a node.
struct RandomSystem {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
};

RandomSystem random_system(std::size_t n, double fill, std::uint64_t seed) {
  Rng rng(seed);
  RandomSystem sys;
  for (std::size_t i = 0; i < n; ++i) {
    core::Attributes attrs;
    attrs.criticality = static_cast<core::Criticality>(rng.range(1, 10));
    const std::int64_t est = rng.range(0, 5);
    const std::int64_t ct = rng.range(1, 3);
    const std::int64_t tcd = est + ct + rng.range(200, 400);
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
      if (i != j && rng.uniform() < fill) {
        sys.influence.set_direct(sys.processes[i], sys.processes[j],
                                 Probability(rng.uniform(0.05, 0.8)));
      }
    }
  }
  return sys;
}

TEST(ScaleSeries, KernelsBitwiseEqualAtN96) {
  struct Case {
    double fill;
    graph::SeriesKernel kernel;
  };
  const Case cases[] = {
      {0.05, graph::SeriesKernel::kSparse},
      {0.05, graph::SeriesKernel::kAuto},
      {0.40, graph::SeriesKernel::kDense},
      {0.40, graph::SeriesKernel::kAuto},
  };
  for (const Case& c : cases) {
    const graph::Matrix p = random_influence(96, c.fill, 2026);
    const graph::Matrix reference = graph::power_series_sum_reference(p, 6);
    for (const std::uint32_t threads : {1u, 4u, 8u}) {
      graph::SeriesOptions options;
      options.kernel = c.kernel;
      options.threads = threads;
      expect_bitwise_equal(graph::power_series_sum(p, options), reference);
    }
  }
}

TEST(ScaleClustering, PairHeapMatchesScanAtHundredNodes) {
  const RandomSystem sys = random_system(100, 0.05, 7);
  const mapping::SwGraph sw =
      mapping::SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  for (const std::size_t target : {12u, 48u}) {
    mapping::ClusteringOptions options;
    options.target_clusters = target;
    // Pure graph condensation: the equivalence claim is about merge order,
    // and skipping the oracle keeps this suite fast under plain `ctest`.
    options.enforce_schedulability = false;

    const mapping::oracle::MergeRun scan =
        mapping::oracle::h1_greedy(sw, options);

    mapping::ClusterEngine heap_engine(sw, options);
    const mapping::ClusteringResult heap = heap_engine.h1_greedy();

    EXPECT_EQ(scan.steps, heap.steps);
    EXPECT_EQ(scan.partition.cluster_of, heap.partition.cluster_of);
    EXPECT_EQ(scan.cross_influence, heap.cross_cluster_influence());
  }
}

TEST(ScalePlanner, SweepThreadsAgreeOnThirtyTwoProcesses) {
  auto best = [](std::uint32_t threads) {
    const RandomSystem sys = random_system(32, 0.12, 11);
    const mapping::HwGraph hw = mapping::HwGraph::complete(8);
    mapping::PlanOptions options;
    options.sweep_threads = threads;
    mapping::IntegrationPlanner planner(sys.hierarchy, sys.influence,
                                        sys.processes, hw, options);
    return planner.best_plan();
  };
  const mapping::Plan sequential = best(1);
  for (const std::uint32_t threads : {4u, 8u}) {
    const mapping::Plan parallel = best(threads);
    EXPECT_EQ(sequential.heuristic, parallel.heuristic);
    EXPECT_EQ(sequential.clustering.partition.cluster_of,
              parallel.clustering.partition.cluster_of);
    EXPECT_EQ(sequential.assignment.hw_of, parallel.assignment.hw_of);
    EXPECT_EQ(sequential.quality.score(), parallel.quality.score());
  }
}

}  // namespace
}  // namespace fcm

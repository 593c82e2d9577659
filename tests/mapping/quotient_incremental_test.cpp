// Property tests for incremental quotient maintenance: a QuotientCache
// driven through any merge sequence must stay bitwise-equal to the
// reference oracle's quotient rebuilt from every SW edge on the merged
// partition — same mutual influence for every live pair and the same
// neighbor index. Run at 64 and 512 processes so the delta path is
// exercised both before and after the quotient graph densifies.
#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/synthetic.h"
#include "reference_oracles.h"

namespace fcm::mapping {
namespace {

// Representatives (smallest members) of every cluster, ascending — which
// is also ascending cluster index.
std::vector<graph::NodeIndex> live_reps(const graph::Partition& partition) {
  std::vector<graph::NodeIndex> reps;
  for (const auto& members : partition.groups()) {
    reps.push_back(members.front());
  }
  return reps;
}

// The oracle's neighbor clusters of `rep`'s cluster, as representatives.
std::vector<graph::NodeIndex> oracle_neighbors(
    const oracle::RebuiltQuotient& quotient,
    const graph::Partition& partition,
    const std::vector<graph::NodeIndex>& reps, graph::NodeIndex rep) {
  std::vector<graph::NodeIndex> out;
  for (const std::uint32_t c : quotient.neighbors(partition.cluster_of[rep])) {
    out.push_back(reps[c]);
  }
  return out;
}

// K seeded-random merges applied to the cache. After every merge the
// merged cluster's neighbor list and mutual row must equal the rebuilt
// quotient's; at the end every live pair is compared, and a cache freshly
// reset on the final partition must agree as well.
void run_differential(std::size_t processes, int merges,
                      std::uint64_t seed) {
  const core::synthetic::System sys =
      core::synthetic::make_system(processes, seed);
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);

  graph::Partition partition = graph::Partition::identity(sw.node_count());
  ClusterEngine::QuotientCache incremental;
  incremental.reset(sw, partition);

  Rng rng(seed * 7919 + 17);
  for (int step = 0; step < merges && partition.cluster_count > 2; ++step) {
    std::vector<graph::NodeIndex> reps = live_reps(partition);
    const std::size_t a =
        rng.below(static_cast<std::uint32_t>(reps.size()));
    std::size_t b = rng.below(static_cast<std::uint32_t>(reps.size()));
    if (b == a) b = (a + 1) % reps.size();
    const graph::NodeIndex rep_a = std::min(reps[a], reps[b]);
    const graph::NodeIndex rep_b = std::max(reps[a], reps[b]);

    incremental.merge(rep_a, rep_b);
    partition.merge(rep_a, rep_b);

    const oracle::RebuiltQuotient rebuilt(sw, partition);
    reps = live_reps(partition);
    const graph::NodeIndex merged = rep_a;
    const auto& neighbors = incremental.neighbors(merged);
    ASSERT_EQ(neighbors, oracle_neighbors(rebuilt, partition, reps, merged))
        << "neighbor index diverged at step " << step;
    for (const graph::NodeIndex c : neighbors) {
      ASSERT_EQ(incremental.mutual(std::min(merged, c), std::max(merged, c)),
                rebuilt.mutual(partition.cluster_of[merged],
                               partition.cluster_of[c]))
          << "mutual diverged at step " << step;
    }
  }

  // Final full-table check against the rebuilt quotient and against a
  // cache reset on the merged partition (no shared history at all).
  const oracle::RebuiltQuotient rebuilt(sw, partition);
  ClusterEngine::QuotientCache fresh;
  fresh.reset(sw, partition);
  const std::vector<graph::NodeIndex> reps = live_reps(partition);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    ASSERT_EQ(incremental.neighbors(reps[i]),
              oracle_neighbors(rebuilt, partition, reps, reps[i]));
    ASSERT_EQ(incremental.neighbors(reps[i]), fresh.neighbors(reps[i]));
    for (std::size_t j = i + 1; j < reps.size(); ++j) {
      const double mi = incremental.mutual(reps[i], reps[j]);
      const double mf = fresh.mutual(reps[i], reps[j]);
      const double mr = rebuilt.mutual(static_cast<std::uint32_t>(i),
                                       static_cast<std::uint32_t>(j));
      ASSERT_EQ(mi, mr) << "pair (" << reps[i] << ", " << reps[j] << ")";
      ASSERT_EQ(mi, mf) << "pair (" << reps[i] << ", " << reps[j] << ")";
    }
  }
}

TEST(QuotientIncremental, MatchesRebuildAt64Processes) {
  run_differential(64, 40, 3);
}

TEST(QuotientIncremental, MatchesRebuildAt64ProcessesSecondSeed) {
  run_differential(64, 40, 11);
}

TEST(QuotientIncremental, MatchesRebuildAt512Processes) {
  run_differential(512, 300, 42);
}

}  // namespace
}  // namespace fcm::mapping

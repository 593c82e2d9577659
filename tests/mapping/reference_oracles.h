// Test-only reference implementations of the SW-graph build, the H1
// greedy merge and the Approach A/B placement, in their simplest
// all-pairs form.
//
// Production builds the SW graph from the influence model's stored nonzero
// pairs, selects H1 merges through a pair heap over an incrementally
// maintained quotient, and costs each placement over quotient adjacency
// with cached hop rows. These oracles probe every process pair through
// InfluenceModel::influence, rebuild the Eq. 4 quotient from every SW edge
// and rescan every cluster pair after each merge, and cost every candidate
// against every cluster with a fresh breadth-first search per placed
// neighbour. The differential tests require both to agree exactly: same
// edges in the same order, same merges, same hosts, same step log, same
// Infeasible cases.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hierarchy.h"
#include "core/influence.h"
#include "graph/digraph.h"
#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/hw.h"
#include "mapping/swgraph.h"

namespace fcm::mapping::oracle {

/// The replica-expanded influence digraph, by probing all P² process pairs
/// in row-major order (node names as SwGraph::build names them).
graph::Digraph all_pairs_swgraph(const core::FcmHierarchy& hierarchy,
                                 const core::InfluenceModel& influence,
                                 const std::vector<FcmId>& processes);

enum class Approach : std::uint8_t { kImportance, kLexicographic };

/// The cluster placement order of assign_by_importance (kImportance) or
/// assign_lexicographic with its default priority (kLexicographic).
std::vector<std::uint32_t> placement_order(const SwGraph& sw,
                                           const ClusteringResult& clustering,
                                           Approach approach);

/// A placement by the O(C²·H) reference, with the number of times it undid
/// a choice (so a test can prove its input exercised backtracking).
struct Placement {
  Assignment assignment;
  std::size_t backtracks = 0;
};

/// assign_by_importance / assign_lexicographic (default priority) by the
/// reference search. Throws what production throws.
Placement assign(const SwGraph& sw, const ClusteringResult& clustering,
                 const HwGraph& hw, Approach approach);

/// The Eq. 4 cluster quotient of `partition`, rebuilt from every SW
/// influence edge with replica links dropped: per ordered cluster pair,
/// 1 − Π(1 − w) over the crossing edges in ascending edge order.
class RebuiltQuotient {
 public:
  RebuiltQuotient(const SwGraph& sw, const graph::Partition& partition);
  /// Combined influence of cluster `a` on cluster `b` plus `b` on `a`.
  [[nodiscard]] double mutual(std::uint32_t a, std::uint32_t b) const;
  /// Clusters sharing at least one crossing edge with `a`, ascending.
  [[nodiscard]] std::vector<std::uint32_t> neighbors(std::uint32_t a) const;
  /// Sum of the combined weights in ascending (from, to) order, as
  /// ClusteringResult::cross_cluster_influence adds them.
  [[nodiscard]] double total_weight() const;

 private:
  [[nodiscard]] double directed(std::uint32_t from, std::uint32_t to) const;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> weight_;
};

/// Step-log flavor of the greedy merge, as ClusterEngine writes it.
enum class MergeStyle : std::uint8_t {
  kCombine,      ///< H1: "combine A + B (mutual influence m)"
  kRepairMerge,  ///< H2 repair: "repair-merge A + B"
};

struct MergeRun {
  graph::Partition partition;
  std::vector<std::string> steps;
  double cross_influence = 0.0;  ///< RebuiltQuotient::total_weight at the end
};

/// H1's greedy merge by the textbook O(k²) rescan: from `start`, rebuild
/// the quotient, scan every cluster pair (a < b) in ascending order and
/// merge the first combinable pair of highest mutual influence, until
/// `target` clusters remain. Combinability is `engine.can_combine`.
/// Throws the Infeasible ClusterEngine throws when no pair is combinable.
MergeRun greedy_merge(const SwGraph& sw, ClusterEngine& engine,
                      graph::Partition start, std::size_t target,
                      MergeStyle style);

/// ClusterEngine::h1_greedy by the rescan, from singletons, on a fresh
/// engine with `options`.
MergeRun h1_greedy(const SwGraph& sw, const ClusteringOptions& options);

}  // namespace fcm::mapping::oracle

// Test-only reference implementations of the SW-graph build and the
// Approach A/B placement, in their simplest all-pairs form.
//
// Production builds the SW graph from the influence model's stored nonzero
// pairs and costs each placement over quotient adjacency with cached hop
// rows. These oracles probe every process pair through
// InfluenceModel::influence and cost every candidate against every cluster
// with a fresh breadth-first search per placed neighbour. The differential
// tests require both to agree exactly: same edges in the same order, same
// hosts, same step log, same Infeasible cases.
#pragma once

#include <cstdint>
#include <string>
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

}  // namespace fcm::mapping::oracle

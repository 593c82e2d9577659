// The HW resource graph.
//
// "To facilitate the mapping, two graphs are created, one for SW FCMs, and
// one for available HW resources, which have been structured using a HW FCR
// model. For HW, an interconnection graph is used." (§5.1). The paper
// assumes homogeneous processors with access to equivalent resources (§2);
// the model still carries per-node capacities and named special resources so
// the "need for a resource present on only one processor" tradeoff of §6 can
// be expressed.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/ids.h"
#include "graph/digraph.h"

namespace fcm::mapping {

/// One processing node of the HW platform (a HW fault containment region).
struct HwNode {
  HwNodeId id;
  std::string name;
  /// Memory capacity in abstract units; 0 = unconstrained.
  double memory = 0.0;
  /// Named special resources present at this node (e.g. "sensor-bus").
  std::set<std::string> resources;
};

/// The HW interconnection graph. Edges carry link bandwidth (abstract
/// units); hop distance is used for dilation-aware mapping.
class HwGraph {
 public:
  HwGraph() = default;

  /// A strongly connected network of `n` homogeneous nodes — the §6
  /// platform ("assume there is a strongly connected network with N HW
  /// nodes"). Complete graph, unit bandwidth.
  static HwGraph complete(int n, double link_bandwidth = 1.0);

  HwNodeId add_node(std::string name, double memory = 0.0,
                    std::set<std::string> resources = {});

  /// Bidirectional link with the given bandwidth.
  void add_link(HwNodeId a, HwNodeId b, double bandwidth);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const HwNode& node(HwNodeId id) const;
  [[nodiscard]] const std::vector<HwNode>& nodes() const noexcept {
    return nodes_;
  }

  [[nodiscard]] bool linked(HwNodeId a, HwNodeId b) const;

  /// Minimum hop count between two nodes (0 for a==b, 1 for linked nodes
  /// without a search); throws Infeasible when disconnected.
  [[nodiscard]] int hop_distance(HwNodeId a, HwNodeId b) const;

  /// Minimum hop count from `a` to every node (indexed by node id), -1 for
  /// nodes unreachable from `a`: one breadth-first search, for callers that
  /// ask many distances from the same node.
  [[nodiscard]] std::vector<int> hop_row(HwNodeId a) const;

  /// Every ordered node pair mutually reachable.
  [[nodiscard]] bool strongly_connected() const;

  /// The underlying interconnection digraph (both directions per link).
  [[nodiscard]] const graph::Digraph& interconnect() const noexcept {
    return graph_;
  }

 private:
  /// Breadth-first hop counts from `source` into `dist` (pre-sized, -1 =
  /// unvisited); stops once `target` is reached.
  void bfs(graph::NodeIndex source, graph::NodeIndex target,
           std::vector<int>& dist) const;

  std::vector<HwNode> nodes_;
  graph::Digraph graph_;
};

}  // namespace fcm::mapping

#include "mapping/hw.h"

#include "common/error.h"
#include "graph/algorithms.h"

namespace fcm::mapping {

HwGraph HwGraph::complete(int n, double link_bandwidth) {
  FCM_REQUIRE(n >= 1, "a platform needs at least one node");
  HwGraph hw;
  for (int i = 0; i < n; ++i) {
    hw.add_node("hw" + std::to_string(i + 1));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      hw.add_link(HwNodeId(static_cast<std::uint32_t>(i)),
                  HwNodeId(static_cast<std::uint32_t>(j)), link_bandwidth);
    }
  }
  return hw;
}

HwNodeId HwGraph::add_node(std::string name, double memory,
                           std::set<std::string> resources) {
  HwNode node;
  node.id = HwNodeId(static_cast<std::uint32_t>(nodes_.size()));
  node.name = name;
  node.memory = memory;
  node.resources = std::move(resources);
  graph_.add_node(std::move(name));
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

void HwGraph::add_link(HwNodeId a, HwNodeId b, double bandwidth) {
  FCM_REQUIRE(bandwidth > 0.0, "link bandwidth must be positive");
  graph_.add_edge(a.value(), b.value(), bandwidth);
  graph_.add_edge(b.value(), a.value(), bandwidth);
}

const HwNode& HwGraph::node(HwNodeId id) const {
  FCM_REQUIRE(id.valid() && id.value() < nodes_.size(),
              "unknown HW node id");
  return nodes_[id.value()];
}

bool HwGraph::linked(HwNodeId a, HwNodeId b) const {
  return graph_.has_edge(a.value(), b.value());
}

void HwGraph::bfs(graph::NodeIndex source, graph::NodeIndex target,
                  std::vector<int>& dist) const {
  std::vector<graph::NodeIndex> frontier{source};
  dist[source] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const graph::NodeIndex v = frontier[head];
    for (const std::uint32_t e : graph_.out_edges(v)) {
      const graph::NodeIndex w = graph_.edges()[e].to;
      if (dist[w] >= 0) continue;
      dist[w] = dist[v] + 1;
      if (w == target) return;
      frontier.push_back(w);
    }
  }
}

int HwGraph::hop_distance(HwNodeId a, HwNodeId b) const {
  FCM_REQUIRE(a.value() < nodes_.size() && b.value() < nodes_.size(),
              "unknown HW node id");
  if (a == b) return 0;
  if (linked(a, b)) return 1;
  std::vector<int> dist(nodes_.size(), -1);
  bfs(a.value(), b.value(), dist);
  if (dist[b.value()] < 0) {
    throw Infeasible("HW nodes " + node(a).name + " and " + node(b).name +
                     " are not connected");
  }
  return dist[b.value()];
}

std::vector<int> HwGraph::hop_row(HwNodeId a) const {
  FCM_REQUIRE(a.value() < nodes_.size(), "unknown HW node id");
  std::vector<int> dist(nodes_.size(), -1);
  bfs(a.value(), UINT32_MAX, dist);
  return dist;
}

bool HwGraph::strongly_connected() const {
  return graph::is_strongly_connected(graph_);
}

}  // namespace fcm::mapping

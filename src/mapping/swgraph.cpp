#include "mapping/swgraph.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "obs/obs.h"

namespace fcm::mapping {

namespace {
constexpr std::uint32_t kAbsent = UINT32_MAX;
}  // namespace

std::string replica_suffix(int index) {
  FCM_REQUIRE(index >= 0, "replica index must be non-negative");
  std::string suffix;
  int n = index;
  do {
    suffix.insert(suffix.begin(), static_cast<char>('a' + n % 26));
    n = n / 26 - 1;
  } while (n >= 0);
  return suffix;
}

SwGraph SwGraph::build(const core::FcmHierarchy& hierarchy,
                       const core::InfluenceModel& influence,
                       const std::vector<FcmId>& processes,
                       const core::ImportanceWeights& weights) {
  FCM_OBS_SPAN("swgraph.build");
  SwGraph sw;
  // First pass: create replica nodes per process, and map each process's
  // influence-model member index to its position in `processes`.
  std::vector<std::vector<graph::NodeIndex>> replicas_of(processes.size());
  std::vector<std::uint32_t> position_of(influence.member_count(), kAbsent);
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const core::Fcm& fcm = hierarchy.get(processes[p]);
    FCM_REQUIRE(fcm.level == core::Level::kProcess,
                "SW allocation graph is built over process-level FCMs");
    const int degree = fcm.attributes.replication;
    FCM_REQUIRE(degree >= 1, "replication degree must be at least 1");
    // A lone process has no pairs, so it needs no influence membership.
    if (processes.size() > 1) {
      std::uint32_t& position = position_of[influence.index_of(fcm.id)];
      FCM_REQUIRE(position == kAbsent,
                  "process " + fcm.name + " is listed more than once");
      position = static_cast<std::uint32_t>(p);
    }
    for (int r = 0; r < degree; ++r) {
      SwNode node;
      node.id = SwNodeId(static_cast<std::uint32_t>(sw.nodes_.size()));
      node.name = degree == 1 ? fcm.name : fcm.name + replica_suffix(r);
      node.origin = fcm.id;
      node.replica_index = r;
      node.attributes = fcm.attributes;
      node.importance = core::importance(fcm.attributes, weights);
      replicas_of[p].push_back(sw.graph_.add_node(node.name));
      sw.nodes_.push_back(std::move(node));
    }
  }
  // Influence edges, replicated across every (source replica, target
  // replica) pair. Only stored nonzero pairs can become edges ("there is no
  // edge in any other case of non-influence", §5.1), so the build walks
  // those instead of probing every process pair. Sorting by (from, to)
  // position reproduces the row-major order of an all-pairs walk: edge
  // insertion order fixes each Eq. 4 product's order and the clustering
  // heap's tie-breaks.
  struct PositionedEdge {
    std::uint32_t from, to;
    double weight;
  };
  std::vector<PositionedEdge> edges;
  for (const core::InfluenceModel::StoredInfluence& pair :
       influence.nonzero_influences()) {
    const std::uint32_t from = position_of[pair.from];
    const std::uint32_t to = position_of[pair.to];
    if (from == kAbsent || to == kAbsent) continue;
    edges.push_back(PositionedEdge{from, to, pair.value.value()});
  }
  std::sort(edges.begin(), edges.end(),
            [](const PositionedEdge& a, const PositionedEdge& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  for (const PositionedEdge& edge : edges) {
    for (const graph::NodeIndex a : replicas_of[edge.from]) {
      for (const graph::NodeIndex b : replicas_of[edge.to]) {
        sw.graph_.add_edge(a, b, edge.weight);
      }
    }
  }
  // Weight-0 links between replica pairs.
  for (const auto& group : replicas_of) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        sw.graph_.add_edge(group[i], group[j], 0.0, "replica");
      }
    }
  }
  return sw;
}

SwGraph SwGraph::subset(const std::vector<graph::NodeIndex>& keep) const {
  SwGraph sub;
  std::vector<std::uint32_t> new_index(nodes_.size(), UINT32_MAX);
  // Surviving replicas are *promoted*: replica indices renumber densely per
  // process and the replication attribute clamps to the replicas actually
  // kept, so a process reduced from TMR to one survivor no longer demands
  // three distinct clusters from downstream constraint checks.
  std::map<FcmId, int> kept_of_origin;
  for (const graph::NodeIndex v : keep) {
    FCM_REQUIRE(v < nodes_.size(), "subset keeps an unknown SW node");
    ++kept_of_origin[nodes_[v].origin];
  }
  std::map<FcmId, int> next_replica;
  for (const graph::NodeIndex v : keep) {
    FCM_REQUIRE(new_index[v] == UINT32_MAX, "subset keeps a node twice");
    FCM_REQUIRE(sub.nodes_.empty() || keep[sub.nodes_.size() - 1] < v,
                "subset node list must be ascending");
    SwNode node = nodes_[v];
    new_index[v] = static_cast<std::uint32_t>(sub.nodes_.size());
    node.id = SwNodeId(new_index[v]);
    node.replica_index = next_replica[node.origin]++;
    node.attributes.replication =
        std::min(node.attributes.replication,
                 static_cast<core::ReplicationDegree>(
                     kept_of_origin.at(node.origin)));
    sub.graph_.add_node(node.name);
    sub.nodes_.push_back(std::move(node));
  }
  for (const graph::Edge& edge : graph_.edges()) {
    const std::uint32_t from = new_index[edge.from];
    const std::uint32_t to = new_index[edge.to];
    if (from == UINT32_MAX || to == UINT32_MAX) continue;
    sub.graph_.add_edge(from, to, edge.weight, edge.label);
  }
  return sub;
}

const SwNode& SwGraph::node(SwNodeId id) const {
  FCM_REQUIRE(id.valid() && id.value() < nodes_.size(), "unknown SW node");
  return nodes_[id.value()];
}

const SwNode& SwGraph::node(graph::NodeIndex index) const {
  FCM_REQUIRE(index < nodes_.size(), "SW node index out of range");
  return nodes_[index];
}

bool SwGraph::replicas(graph::NodeIndex a, graph::NodeIndex b) const {
  return a != b && node(a).origin == node(b).origin;
}

sched::Job SwGraph::job_of(graph::NodeIndex index) const {
  const SwNode& n = node(index);
  FCM_REQUIRE(n.attributes.timing.has_value(),
              "SW node " + n.name + " has no timing constraints");
  return n.attributes.timing->to_job(JobId(index), n.name);
}

bool SwGraph::has_timing(graph::NodeIndex index) const {
  return node(index).attributes.timing.has_value();
}

}  // namespace fcm::mapping

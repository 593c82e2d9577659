#include "reference_oracles.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>
#include <sstream>

#include "common/error.h"
#include "core/importance.h"

namespace fcm::mapping::oracle {

graph::Digraph all_pairs_swgraph(const core::FcmHierarchy& hierarchy,
                                 const core::InfluenceModel& influence,
                                 const std::vector<FcmId>& processes) {
  graph::Digraph g;
  std::vector<std::vector<graph::NodeIndex>> replicas_of(processes.size());
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const core::Fcm& fcm = hierarchy.get(processes[p]);
    const int degree = fcm.attributes.replication;
    for (int r = 0; r < degree; ++r) {
      replicas_of[p].push_back(
          g.add_node(degree == 1 ? fcm.name : fcm.name + replica_suffix(r)));
    }
  }
  for (std::size_t from = 0; from < processes.size(); ++from) {
    for (std::size_t to = 0; to < processes.size(); ++to) {
      if (from == to) continue;
      const Probability p =
          influence.influence(processes[from], processes[to]);
      if (p == Probability::zero()) continue;
      for (const graph::NodeIndex a : replicas_of[from]) {
        for (const graph::NodeIndex b : replicas_of[to]) {
          g.add_edge(a, b, p.value());
        }
      }
    }
  }
  for (const auto& group : replicas_of) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        g.add_edge(group[i], group[j], 0.0, "replica");
      }
    }
  }
  return g;
}

namespace {

// Textbook breadth-first hop count, independent of HwGraph::hop_distance.
int reference_hops(const HwGraph& hw, HwNodeId a, HwNodeId b) {
  const graph::Digraph& g = hw.interconnect();
  if (a == b) return 0;
  std::vector<int> dist(g.node_count(), -1);
  std::queue<graph::NodeIndex> queue;
  dist[a.value()] = 0;
  queue.push(a.value());
  while (!queue.empty()) {
    const graph::NodeIndex v = queue.front();
    queue.pop();
    for (const graph::NodeIndex w : g.successors(v)) {
      if (dist[w] < 0) {
        dist[w] = dist[v] + 1;
        if (w == b.value()) return dist[w];
        queue.push(w);
      }
    }
  }
  throw Infeasible("HW nodes " + hw.node(a).name + " and " +
                   hw.node(b).name + " are not connected");
}

struct ClusterInfo {
  double importance = 0.0;
  double criticality = 0.0;
  double replication = 0.0;
  double urgency = 0.0;
  double throughput = 0.0;
  std::set<std::string> required_resources;
};

std::vector<ClusterInfo> summarize(const SwGraph& sw,
                                   const ClusteringResult& clustering) {
  std::vector<ClusterInfo> info(clustering.partition.cluster_count);
  for (std::size_t v = 0; v < clustering.partition.cluster_of.size(); ++v) {
    const SwNode& node = sw.node(static_cast<graph::NodeIndex>(v));
    ClusterInfo& c = info[clustering.partition.cluster_of[v]];
    c.importance = std::max(c.importance, node.importance);
    c.criticality = std::max<double>(c.criticality,
                                     node.attributes.criticality);
    c.replication = std::max<double>(c.replication,
                                     node.attributes.replication);
    c.urgency = std::max(c.urgency, core::timing_urgency(node.attributes));
    c.throughput += node.attributes.throughput;
    c.required_resources.insert(node.attributes.required_resources.begin(),
                                node.attributes.required_resources.end());
  }
  return info;
}

std::vector<std::uint32_t> order_of(const std::vector<ClusterInfo>& info,
                                    Approach approach) {
  std::vector<std::uint32_t> order(info.size());
  for (std::uint32_t c = 0; c < info.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const ClusterInfo& x = info[a];
    const ClusterInfo& y = info[b];
    if (approach == Approach::kImportance) {
      if (x.importance != y.importance) return x.importance > y.importance;
      return a < b;
    }
    for (const auto key : {&ClusterInfo::criticality, &ClusterInfo::replication,
                           &ClusterInfo::urgency, &ClusterInfo::throughput}) {
      if (x.*key != y.*key) return x.*key > y.*key;
    }
    return a < b;
  });
  return order;
}

}  // namespace

std::vector<std::uint32_t> placement_order(const SwGraph& sw,
                                           const ClusteringResult& clustering,
                                           Approach approach) {
  return order_of(summarize(sw, clustering), approach);
}

Placement assign(const SwGraph& sw, const ClusteringResult& clustering,
                 const HwGraph& hw, Approach approach) {
  const std::vector<ClusterInfo> info = summarize(sw, clustering);
  const std::vector<std::uint32_t> order = order_of(info, approach);
  FCM_REQUIRE(info.size() <= hw.node_count(),
              "more clusters than HW nodes; cluster further first");
  const graph::Digraph& quotient = clustering.quotient;
  Placement out;
  Assignment& assignment = out.assignment;
  assignment.hw_of.assign(info.size(), HwNodeId::invalid());
  std::vector<bool> used(hw.node_count(), false);

  std::function<bool(std::size_t)> place = [&](std::size_t position) {
    if (position == order.size()) return true;
    const std::uint32_t c = order[position];
    struct Candidate {
      HwNodeId node;
      double cost;
      std::size_t resources;
    };
    std::vector<Candidate> candidates;
    for (const HwNode& candidate : hw.nodes()) {
      if (used[candidate.id.value()]) continue;
      if (!std::includes(candidate.resources.begin(),
                         candidate.resources.end(),
                         info[c].required_resources.begin(),
                         info[c].required_resources.end())) {
        continue;
      }
      double cost = 0.0;
      for (std::uint32_t other = 0; other < info.size(); ++other) {
        if (!assignment.hw_of[other].valid()) continue;
        const double influence = quotient.weight(c, other).value_or(0.0) +
                                 quotient.weight(other, c).value_or(0.0);
        if (influence > 0.0) {
          cost += influence *
                  reference_hops(hw, candidate.id, assignment.hw_of[other]);
        }
      }
      candidates.push_back(
          Candidate{candidate.id, cost, candidate.resources.size()});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                if (a.resources != b.resources) {
                  return a.resources < b.resources;
                }
                return a.node < b.node;
              });
    for (const Candidate& candidate : candidates) {
      used[candidate.node.value()] = true;
      assignment.hw_of[c] = candidate.node;
      if (place(position + 1)) return true;
      used[candidate.node.value()] = false;
      assignment.hw_of[c] = HwNodeId::invalid();
      ++out.backtracks;
    }
    return false;
  };
  if (!place(0)) {
    throw Infeasible(
        "no assignment satisfies every cluster's resource requirements");
  }
  for (const std::uint32_t c : order) {
    assignment.steps.push_back("map {" + quotient.name(c) + "} -> " +
                               hw.node(assignment.hw_of[c]).name);
  }
  return out;
}

RebuiltQuotient::RebuiltQuotient(const SwGraph& sw,
                                 const graph::Partition& partition) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> none;
  for (const graph::Edge& e : sw.influence_graph().edges()) {
    if (sw.replicas(e.from, e.to)) continue;
    const std::uint32_t a = partition.cluster_of[e.from];
    const std::uint32_t b = partition.cluster_of[e.to];
    if (a == b) continue;
    none.try_emplace({a, b}, 1.0).first->second *= 1.0 - e.weight;
  }
  for (const auto& [pair, product] : none) {
    weight_.emplace(pair, std::clamp(1.0 - product, 0.0, 1.0));
  }
}

double RebuiltQuotient::directed(std::uint32_t from, std::uint32_t to) const {
  const auto it = weight_.find({from, to});
  return it == weight_.end() ? 0.0 : it->second;
}

double RebuiltQuotient::mutual(std::uint32_t a, std::uint32_t b) const {
  return directed(a, b) + directed(b, a);
}

std::vector<std::uint32_t> RebuiltQuotient::neighbors(std::uint32_t a) const {
  std::set<std::uint32_t> out;
  for (const auto& [pair, weight] : weight_) {
    if (pair.first == a) out.insert(pair.second);
    if (pair.second == a) out.insert(pair.first);
  }
  return {out.begin(), out.end()};
}

double RebuiltQuotient::total_weight() const {
  double sum = 0.0;
  for (const auto& [pair, weight] : weight_) sum += weight;
  return sum;
}

namespace {

std::string names_of(const SwGraph& sw,
                     const std::vector<graph::NodeIndex>& members) {
  std::string out;
  for (const graph::NodeIndex m : members) {
    if (!out.empty()) out += ',';
    out += sw.node(m).name;
  }
  return out;
}

}  // namespace

MergeRun greedy_merge(const SwGraph& sw, ClusterEngine& engine,
                      graph::Partition start, std::size_t target,
                      MergeStyle style) {
  MergeRun run;
  run.partition = std::move(start);
  graph::Partition& partition = run.partition;
  while (partition.cluster_count > target) {
    const RebuiltQuotient quotient(sw, partition);
    const auto groups = partition.groups();
    double best = -1.0;
    std::uint32_t best_a = 0, best_b = 0;
    for (std::uint32_t a = 0; a < partition.cluster_count; ++a) {
      for (std::uint32_t b = a + 1; b < partition.cluster_count; ++b) {
        const double m = quotient.mutual(a, b);
        if (m > best && engine.can_combine(partition, a, b)) {
          best = m;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best < 0.0) {
      if (style == MergeStyle::kRepairMerge) {
        throw Infeasible("H2: repair phase cannot re-merge to the target");
      }
      throw Infeasible("H1: no combinable cluster pair remains at " +
                       std::to_string(partition.cluster_count) +
                       " clusters (target " + std::to_string(target) + ")");
    }
    std::ostringstream step;
    if (style == MergeStyle::kCombine) {
      step << "combine " << names_of(sw, groups[best_a]) << " + "
           << names_of(sw, groups[best_b]) << " (mutual influence " << best
           << ")";
    } else {
      step << "repair-merge " << names_of(sw, groups[best_a]) << " + "
           << names_of(sw, groups[best_b]);
    }
    run.steps.push_back(step.str());
    partition.merge(groups[best_a].front(), groups[best_b].front());
  }
  run.cross_influence = RebuiltQuotient(sw, partition).total_weight();
  return run;
}

MergeRun h1_greedy(const SwGraph& sw, const ClusteringOptions& options) {
  ClusterEngine engine(sw, options);
  return greedy_merge(sw, engine,
                      graph::Partition::identity(sw.node_count()),
                      options.target_clusters, MergeStyle::kCombine);
}

}  // namespace fcm::mapping::oracle

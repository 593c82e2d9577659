#include "mapping/clustering.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/error.h"
#include "core/importance.h"
#include "exec/executor.h"
#include "graph/maxflow.h"
#include "graph/mincut.h"
#include "obs/obs.h"

namespace fcm::mapping {

namespace {

std::string join_names(const SwGraph& sw,
                       const std::vector<graph::NodeIndex>& members) {
  std::string out;
  for (const graph::NodeIndex m : members) {
    if (!out.empty()) out += ',';
    out += sw.node(m).name;
  }
  return out;
}

}  // namespace

void ClusterEngine::QuotientCache::reset(const SwGraph& sw,
                                         const graph::Partition& partition) {
  sw_ = &sw;
  bundles_.clear();
  adjacency_.clear();
  bundle_pool_.clear();
  // Representative of each cluster: its smallest member node index.
  std::vector<graph::NodeIndex> rep(partition.cluster_count,
                                    graph::NodeIndex(0));
  std::vector<bool> seen(partition.cluster_count, false);
  for (std::size_t v = 0; v < partition.cluster_of.size(); ++v) {
    const std::uint32_t c = partition.cluster_of[v];
    if (!seen[c]) {
      seen[c] = true;
      rep[c] = static_cast<graph::NodeIndex>(v);
    }
  }
  const auto& edges = sw.influence_graph().edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const graph::Edge& edge = edges[e];
    if (sw.replicas(edge.from, edge.to)) continue;  // 0-weight replica links
    const std::uint32_t ca = partition.cluster_of[edge.from];
    const std::uint32_t cb = partition.cluster_of[edge.to];
    if (ca == cb) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(rep[ca]) << 32) | rep[cb];
    bundles_[key].push_back(static_cast<std::uint32_t>(e));
    adjacency_[rep[ca]].push_back(rep[cb]);
    adjacency_[rep[cb]].push_back(rep[ca]);
  }
  // Edge iteration order already leaves each bundle ascending.
  for (auto& [r, adj] : adjacency_) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
}

const std::vector<graph::NodeIndex>& ClusterEngine::QuotientCache::neighbors(
    graph::NodeIndex rep) const {
  static const std::vector<graph::NodeIndex> kEmpty;
  const auto it = adjacency_.find(rep);
  return it == adjacency_.end() ? kEmpty : it->second;
}

void ClusterEngine::QuotientCache::recycle(std::vector<std::uint32_t>&& bundle) {
  bundle.clear();
  bundle_pool_.push_back(std::move(bundle));
}

std::vector<std::uint32_t> ClusterEngine::QuotientCache::fresh_bundle() {
  if (bundle_pool_.empty()) return {};
  std::vector<std::uint32_t> bundle = std::move(bundle_pool_.back());
  bundle_pool_.pop_back();
  FCM_OBS_COUNT("quotient_cache.pool_reuses", 1);
  return bundle;
}

double ClusterEngine::QuotientCache::directed(graph::NodeIndex rep_from,
                                              graph::NodeIndex rep_to) const {
  const auto it =
      bundles_.find((static_cast<std::uint64_t>(rep_from) << 32) | rep_to);
  if (it == bundles_.end()) return 0.0;
  // Eq. 4 over the crossing edges, multiplying complements in ascending
  // edge order — the exact operation order of combine_probabilistic over
  // the bundle influence_quotient() would collect.
  const auto& edges = sw_->influence_graph().edges();
  double none = 1.0;
  for (const std::uint32_t e : it->second) none *= 1.0 - edges[e].weight;
  return std::clamp(1.0 - none, 0.0, 1.0);
}

double ClusterEngine::QuotientCache::mutual(graph::NodeIndex rep_a,
                                            graph::NodeIndex rep_b) const {
  return directed(rep_a, rep_b) + directed(rep_b, rep_a);
}

void ClusterEngine::QuotientCache::fold_bundle_into(std::uint64_t key,
                                                    std::uint64_t target) {
  const auto it = bundles_.find(key);
  if (it == bundles_.end()) return;
  std::vector<std::uint32_t> indices = std::move(it->second);
  bundles_.erase(it);
  const auto slot = bundles_.find(target);
  if (slot == bundles_.end()) {
    bundles_.emplace(target, std::move(indices));
    return;
  }
  // Both input clusters fed this target pair: merge the two ascending runs
  // into the canonical ascending edge order a fresh rebuild would produce.
  std::vector<std::uint32_t> folded = fresh_bundle();
  folded.reserve(slot->second.size() + indices.size());
  std::merge(slot->second.begin(), slot->second.end(), indices.begin(),
             indices.end(), std::back_inserter(folded));
  recycle(std::move(slot->second));
  recycle(std::move(indices));
  slot->second = std::move(folded);
}

void ClusterEngine::QuotientCache::merge(graph::NodeIndex rep_a,
                                         graph::NodeIndex rep_b) {
  FCM_OBS_COUNT("quotient_cache.delta_merges", 1);
  const graph::NodeIndex merged = std::min(rep_a, rep_b);
  // Delta update: only bundles adjacent to the two input clusters can be
  // affected, and the neighbor index knows exactly which those are — no
  // scan over the remaining bundles.
  auto& affected = affected_scratch_;
  affected.clear();
  for (const graph::NodeIndex rep : {rep_a, rep_b}) {
    for (const graph::NodeIndex c : neighbors(rep)) {
      if (c != rep_a && c != rep_b) affected.push_back(c);
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  // Edges between the two inputs become internal and disappear.
  for (const std::uint64_t key :
       {(static_cast<std::uint64_t>(rep_a) << 32) | rep_b,
        (static_cast<std::uint64_t>(rep_b) << 32) | rep_a}) {
    const auto it = bundles_.find(key);
    if (it == bundles_.end()) continue;
    recycle(std::move(it->second));
    bundles_.erase(it);
  }
  const graph::NodeIndex other = std::max(rep_a, rep_b);
  for (const graph::NodeIndex c : affected) {
    FCM_OBS_COUNT("quotient_cache.delta_updates", 1);
    // merged == min(rep_a, rep_b), so the min-side bundle already sits
    // under the target key; only the max side needs folding in.
    fold_bundle_into((static_cast<std::uint64_t>(other) << 32) | c,
                     (static_cast<std::uint64_t>(merged) << 32) | c);
    fold_bundle_into((static_cast<std::uint64_t>(c) << 32) | other,
                     (static_cast<std::uint64_t>(c) << 32) | merged);
  }
  update_adjacency_after_merge(rep_a, rep_b, merged);
}

void ClusterEngine::QuotientCache::update_adjacency_after_merge(
    graph::NodeIndex rep_a, graph::NodeIndex rep_b, graph::NodeIndex merged) {
  std::vector<graph::NodeIndex> adj_a, adj_b;
  if (const auto it = adjacency_.find(rep_a); it != adjacency_.end()) {
    adj_a = std::move(it->second);
    adjacency_.erase(it);
  }
  if (const auto it = adjacency_.find(rep_b); it != adjacency_.end()) {
    adj_b = std::move(it->second);
    adjacency_.erase(it);
  }
  std::vector<graph::NodeIndex> merged_adj;
  merged_adj.reserve(adj_a.size() + adj_b.size());
  std::merge(adj_a.begin(), adj_a.end(), adj_b.begin(), adj_b.end(),
             std::back_inserter(merged_adj));
  merged_adj.erase(std::unique(merged_adj.begin(), merged_adj.end()),
                   merged_adj.end());
  merged_adj.erase(  // edges between the two inputs became internal
      std::remove_if(merged_adj.begin(), merged_adj.end(),
                     [&](graph::NodeIndex c) {
                       return c == rep_a || c == rep_b;
                     }),
      merged_adj.end());
  const graph::NodeIndex other = std::max(rep_a, rep_b);
  for (const graph::NodeIndex c : merged_adj) {
    auto& adj = adjacency_[c];
    const auto drop = std::lower_bound(adj.begin(), adj.end(), other);
    if (drop != adj.end() && *drop == other) adj.erase(drop);
    const auto put = std::lower_bound(adj.begin(), adj.end(), merged);
    if (put == adj.end() || *put != merged) adj.insert(put, merged);
  }
  if (!merged_adj.empty()) adjacency_[merged] = std::move(merged_adj);
}

std::vector<std::vector<std::string>> ClusteringResult::cluster_names(
    const SwGraph& sw) const {
  std::vector<std::vector<std::string>> names(partition.cluster_count);
  for (std::size_t v = 0; v < partition.cluster_of.size(); ++v) {
    names[partition.cluster_of[v]].push_back(
        sw.node(static_cast<graph::NodeIndex>(v)).name);
  }
  return names;
}

double ClusteringResult::cross_cluster_influence() const {
  return quotient.total_weight();
}

ClusterEngine::ClusterEngine(const SwGraph& sw, ClusteringOptions options)
    : sw_(&sw), options_(options), oracle_(options.policy) {
  FCM_REQUIRE(options_.target_clusters >= 1,
              "target cluster count must be positive");
  // Replicas of one process need that many distinct clusters.
  std::map<FcmId, int> degree;
  for (const SwNode& n : sw.nodes()) {
    degree[n.origin] = std::max(degree[n.origin], n.replica_index + 1);
  }
  for (const auto& [origin, count] : degree) {
    FCM_REQUIRE(
        options_.target_clusters >= static_cast<std::size_t>(count),
        "replication degree " + std::to_string(count) +
            " exceeds the target cluster count (" +
            std::to_string(options_.target_clusters) +
            "): replicas must map to distinct HW nodes");
  }
}

bool ClusterEngine::members_schedulable(
    const std::vector<graph::NodeIndex>& members) {
  std::vector<sched::Job> jobs;
  std::vector<sched::PeriodicTask> periodic;
  for (const graph::NodeIndex v : members) {
    const SwNode& node = sw_->node(v);
    if (!node.attributes.timing.has_value()) continue;
    const core::TimingSpec& timing = *node.attributes.timing;
    if (timing.is_periodic()) {
      periodic.push_back(timing.to_periodic_task(node.name));
    } else {
      jobs.push_back(timing.to_job(JobId(v), node.name));
    }
  }
  if (periodic.empty()) return oracle_.feasible(jobs);
  return sched::mixed_feasible(jobs, periodic);
}

bool ClusterEngine::resources_hostable(
    const std::vector<graph::NodeIndex>& members) const {
  if (!options_.resource_check) return true;
  std::set<std::string> combined;
  for (const graph::NodeIndex v : members) {
    const auto& req = sw_->node(v).attributes.required_resources;
    combined.insert(req.begin(), req.end());
  }
  return combined.empty() || options_.resource_check(combined);
}

bool ClusterEngine::can_combine(const graph::Partition& partition,
                                std::uint32_t cluster_a,
                                std::uint32_t cluster_b) {
  if (cluster_a == cluster_b) return false;
  // Replica anti-affinity across the union.
  std::vector<graph::NodeIndex> a_members, b_members;
  for (std::size_t v = 0; v < partition.cluster_of.size(); ++v) {
    if (partition.cluster_of[v] == cluster_a) {
      a_members.push_back(static_cast<graph::NodeIndex>(v));
    } else if (partition.cluster_of[v] == cluster_b) {
      b_members.push_back(static_cast<graph::NodeIndex>(v));
    }
  }
  for (const graph::NodeIndex a : a_members) {
    for (const graph::NodeIndex b : b_members) {
      if (sw_->replicas(a, b)) return false;
    }
  }
  std::vector<graph::NodeIndex> all = std::move(a_members);
  all.insert(all.end(), b_members.begin(), b_members.end());
  if (!resources_hostable(all)) return false;
  if (!options_.enforce_schedulability) return true;
  return members_schedulable(all);
}

graph::Digraph ClusterEngine::influence_quotient(
    const graph::Partition& partition) const {
  const auto groups = partition.groups();
  graph::Digraph q;
  for (const auto& members : groups) q.add_node(join_names(*sw_, members));
  // Flat sort-based bundling instead of a map of per-pair weight vectors —
  // one allocation for all crossing edges. stable_sort keeps edges of one
  // pair in edge order and pairs emit in ascending (ca, cb), so the Eq. 4
  // complement products and the edge insertion order match the previous
  // map-based build bitwise.
  struct CrossEdge {
    std::uint32_t ca, cb;
    double weight;
  };
  std::vector<CrossEdge> cross;
  cross.reserve(sw_->influence_graph().edge_count());
  for (const graph::Edge& e : sw_->influence_graph().edges()) {
    if (sw_->replicas(e.from, e.to)) continue;  // drop 0-weight replica links
    const std::uint32_t ca = partition.cluster_of[e.from];
    const std::uint32_t cb = partition.cluster_of[e.to];
    if (ca == cb) continue;
    cross.push_back({ca, cb, e.weight});
  }
  std::stable_sort(cross.begin(), cross.end(),
                   [](const CrossEdge& x, const CrossEdge& y) {
                     if (x.ca != y.ca) return x.ca < y.ca;
                     return x.cb < y.cb;
                   });
  for (std::size_t i = 0; i < cross.size();) {
    const std::uint32_t ca = cross[i].ca;
    const std::uint32_t cb = cross[i].cb;
    double none = 1.0;
    for (; i < cross.size() && cross[i].ca == ca && cross[i].cb == cb; ++i) {
      none *= 1.0 - cross[i].weight;
    }
    q.add_edge(ca, cb, std::clamp(1.0 - none, 0.0, 1.0));
  }
  return q;
}

ClusteringResult ClusterEngine::finish(graph::Partition partition,
                                       std::vector<std::string> steps) const {
  ClusteringResult result;
  result.quotient = influence_quotient(partition);
  result.partition = std::move(partition);
  result.steps = std::move(steps);
  return result;
}

ClusteringResult ClusterEngine::h1_greedy() {
  graph::Partition partition =
      graph::Partition::identity(sw_->node_count());
  quotient_cache_.reset(*sw_, partition);
  std::vector<std::string> steps;
  greedy_merge(partition, steps, GreedyStepStyle::kCombine);
  return finish(std::move(partition), std::move(steps));
}

void ClusterEngine::throw_no_combinable_pair(
    const graph::Partition& partition, GreedyStepStyle style) const {
  if (style == GreedyStepStyle::kCombine) {
    throw Infeasible(
        "H1: no combinable cluster pair remains at " +
        std::to_string(partition.cluster_count) + " clusters (target " +
        std::to_string(options_.target_clusters) + ")");
  }
  throw Infeasible("H2: repair phase cannot re-merge to the target");
}

std::string ClusterEngine::greedy_step_text(GreedyStepStyle style,
                                            const std::string& a_names,
                                            const std::string& b_names,
                                            double mutual) {
  std::ostringstream step;
  if (style == GreedyStepStyle::kCombine) {
    step << "combine " << a_names << " + " << b_names
         << " (mutual influence " << mutual << ")";
  } else {
    step << "repair-merge " << a_names << " + " << b_names;
  }
  return step.str();
}

void ClusterEngine::greedy_merge(graph::Partition& partition,
                                 std::vector<std::string>& steps,
                                 GreedyStepStyle style) {
  // Lazy-deletion max-heap over candidate cluster pairs, keyed by mutual
  // influence. Clusters are identified by their representative (smallest
  // member node index) — stable under merging — plus a version stamp bumped
  // whenever the cluster's membership changes, so superseded entries are
  // recognized and dropped on pop instead of being searched for.
  //
  // Selection equivalence with the textbook O(k²) rescan (the test-tree
  // reference oracle): cluster indices are ordered by smallest member
  // (Partition::merge keeps the lower index and shifts the rest down), so
  // ordering ties by ascending (rep_a, rep_b) reproduces the rescan's
  // first-wins tie break over ascending (a, b); a popped pair that fails
  // can_combine is discarded for good because combinability depends only
  // on the two clusters' members, and any later membership change
  // reinserts the pair with fresh stamps.
  FCM_OBS_SPAN("h1.greedy_merge");
  // Local tallies flushed once at the end: the merge loop is sequential, so
  // one registry call per run costs nothing on the pop path.
  std::uint64_t pops = 0, stale_pops = 0, recomputes = 0, inherits = 0,
                merges = 0, zero_fallbacks = 0;

  struct Candidate {
    double mutual;
    graph::NodeIndex rep_a, rep_b;  // rep_a < rep_b
    std::uint64_t ver_a, ver_b;
  };
  // "Worse" comparator: lower mutual influence, then higher (rep_a, rep_b).
  const auto worse = [](const Candidate& x, const Candidate& y) {
    if (x.mutual != y.mutual) return x.mutual < y.mutual;
    if (x.rep_a != y.rep_a) return x.rep_a > y.rep_a;
    return x.rep_b > y.rep_b;
  };

  std::unordered_map<graph::NodeIndex, std::uint64_t> version;
  std::vector<graph::NodeIndex> reps;
  for (const auto& members : partition.groups()) {
    reps.push_back(members.front());
    version.emplace(members.front(), 0);
  }
  // Last known exact mutual value per live positive pair, keyed
  // (lo << 32 | hi) by representatives. When a merge leaves a neighbor's
  // edge bundle untouched — the neighbor was adjacent to only one of the
  // two merged clusters, so the fold just re-keys its bundle — the pair's
  // mutual value is bitwise unchanged and is inherited from here instead
  // of re-running the Eq. 4 product.
  std::unordered_map<std::uint64_t, double> pair_value;
  const auto pair_key = [](graph::NodeIndex lo, graph::NodeIndex hi) {
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  };

  // Seed only pairs sharing at least one crossing influence edge with
  // positive combined influence — every other pair is exactly 0.0 and is
  // reached through the zero-mutual fallback below once the heap drains.
  // At scale this is O(edges) candidates instead of O(clusters²).
  std::vector<Candidate> heap;
  for (const graph::NodeIndex a : reps) {
    for (const graph::NodeIndex b : quotient_cache_.neighbors(a)) {
      if (b <= a) continue;
      const double m = quotient_cache_.mutual(a, b);
      if (m > 0.0) {
        heap.push_back({m, a, b, 0, 0});
        pair_value.emplace(pair_key(a, b), m);
      }
    }
  }
  std::make_heap(heap.begin(), heap.end(), worse);

  // Pre-merge neighbor snapshots, reused across merges.
  std::vector<graph::NodeIndex> na_scratch, nb_scratch;

  const auto apply_merge = [&](graph::NodeIndex rep_a, graph::NodeIndex rep_b,
                               double mutual_value) {
    if (options_.log_steps) {
      const auto groups = partition.groups();
      steps.push_back(greedy_step_text(
          style, join_names(*sw_, groups[partition.cluster_of[rep_a]]),
          join_names(*sw_, groups[partition.cluster_of[rep_b]]),
          mutual_value));
    }
    // Snapshot both adjacency lists before the cache merge folds them.
    na_scratch = quotient_cache_.neighbors(rep_a);
    nb_scratch = quotient_cache_.neighbors(rep_b);
    quotient_cache_.merge(rep_a, rep_b);
    partition.merge(rep_a, rep_b);
    const graph::NodeIndex merged = std::min(rep_a, rep_b);
    version.erase(std::max(rep_a, rep_b));
    const std::uint64_t merged_version = ++version[merged];
    // Only pairs touching the merged cluster need fresh influence values,
    // and of those, only its bundle-neighbors can be positive; the
    // neighbor index (already folded by the cache merge above) lists
    // exactly those, ascending. A neighbor of only one merged side keeps
    // a bitwise-identical bundle, so its mutual value is inherited; only
    // neighbors of both sides get a fresh Eq. 4 evaluation.
    pair_value.erase(pair_key(merged, std::max(rep_a, rep_b)));
    for (const graph::NodeIndex c : quotient_cache_.neighbors(merged)) {
      const bool in_a = std::binary_search(na_scratch.begin(),
                                           na_scratch.end(), c);
      const bool in_b = std::binary_search(nb_scratch.begin(),
                                           nb_scratch.end(), c);
      const std::uint64_t key_a =
          pair_key(std::min(rep_a, c), std::max(rep_a, c));
      const std::uint64_t key_b =
          pair_key(std::min(rep_b, c), std::max(rep_b, c));
      const graph::NodeIndex lo = std::min(c, merged);
      const graph::NodeIndex hi = std::max(c, merged);
      double m = 0.0;
      if (in_a && in_b) {
        m = quotient_cache_.mutual(lo, hi);
        ++recomputes;
      } else {
        const auto it = pair_value.find(in_a ? key_a : key_b);
        m = it == pair_value.end() ? 0.0 : it->second;
        ++inherits;
      }
      pair_value.erase(key_a);
      pair_value.erase(key_b);
      if (m <= 0.0) continue;
      pair_value.emplace(pair_key(lo, hi), m);
      heap.push_back({m, lo, hi,
                      lo == merged ? merged_version
                                   : version.find(lo)->second,
                      hi == merged ? merged_version
                                   : version.find(hi)->second});
      std::push_heap(heap.begin(), heap.end(), worse);
    }
    ++merges;
  };

  // Every remaining combinable pair has mutual influence exactly 0.0 once
  // the heap drains (positive pairs are heap-resident until popped, and a
  // popped pair that failed can_combine stays uncombinable until one of
  // its clusters changes, which re-inserts it). The textbook rescan would
  // pick the first combinable pair in ascending cluster-index order —
  // cluster indices are ordered by representative, so scanning sorted live
  // representatives reproduces that choice.
  const auto zero_mutual_fallback = [&]() {
    std::vector<graph::NodeIndex> live;
    live.reserve(version.size());
    for (const auto& [rep, ver] : version) live.push_back(rep);
    std::sort(live.begin(), live.end());
    for (std::size_t i = 0; i < live.size(); ++i) {
      for (std::size_t j = i + 1; j < live.size(); ++j) {
        if (!can_combine(partition, partition.cluster_of[live[i]],
                         partition.cluster_of[live[j]])) {
          continue;
        }
        apply_merge(live[i], live[j], 0.0);
        ++zero_fallbacks;
        return true;
      }
    }
    return false;
  };

  while (partition.cluster_count > options_.target_clusters) {
    bool merged_one = false;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      const Candidate cand = heap.back();
      heap.pop_back();
      ++pops;
      const auto va = version.find(cand.rep_a);
      const auto vb = version.find(cand.rep_b);
      if (va == version.end() || vb == version.end() ||
          va->second != cand.ver_a || vb->second != cand.ver_b) {
        ++stale_pops;
        continue;  // stale: a membership change superseded this entry
      }
      const std::uint32_t cluster_a = partition.cluster_of[cand.rep_a];
      const std::uint32_t cluster_b = partition.cluster_of[cand.rep_b];
      if (!can_combine(partition, cluster_a, cluster_b)) continue;
      apply_merge(cand.rep_a, cand.rep_b, cand.mutual);
      merged_one = true;
      break;
    }
    if (!merged_one) merged_one = zero_mutual_fallback();
    if (!merged_one) throw_no_combinable_pair(partition, style);
  }
  FCM_OBS_COUNT("h1.heap.pops", pops);
  FCM_OBS_COUNT("h1.heap.stale_pops", stale_pops);
  FCM_OBS_COUNT("h1.heap.recomputes", recomputes);
  FCM_OBS_COUNT("h1.heap.inherits", inherits);
  FCM_OBS_COUNT("h1.heap.zero_fallbacks", zero_fallbacks);
  FCM_OBS_COUNT("h1.merges", merges);
}

ClusteringResult ClusterEngine::h1_rounds() {
  graph::Partition partition =
      graph::Partition::identity(sw_->node_count());
  quotient_cache_.reset(*sw_, partition);
  std::vector<std::string> steps;
  int round = 0;
  while (partition.cluster_count > options_.target_clusters) {
    ++round;
    const auto groups = partition.groups();
    // Rank all pairs by mutual influence.
    struct Pair {
      double m;
      std::uint32_t a, b;
    };
    std::vector<Pair> pairs;
    for (std::uint32_t a = 0; a < partition.cluster_count; ++a) {
      for (std::uint32_t b = a + 1; b < partition.cluster_count; ++b) {
        pairs.push_back(
            {quotient_cache_.mutual(groups[a].front(), groups[b].front()), a,
             b});
      }
    }
    std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
      if (x.m != y.m) return x.m > y.m;
      if (x.a != y.a) return x.a < y.a;
      return x.b < y.b;
    });
    // Greedily select disjoint combinable pairs for this round.
    std::vector<bool> taken(partition.cluster_count, false);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> selected;
    const std::size_t max_merges =
        partition.cluster_count - options_.target_clusters;
    for (const Pair& p : pairs) {
      if (selected.size() >= max_merges) break;
      if (taken[p.a] || taken[p.b]) continue;
      if (!can_combine(partition, p.a, p.b)) continue;
      taken[p.a] = taken[p.b] = true;
      selected.emplace_back(p.a, p.b);
      std::ostringstream step;
      step << "round " << round << ": pair " << join_names(*sw_, groups[p.a])
           << " + " << join_names(*sw_, groups[p.b]) << " (mutual influence "
           << p.m << ")";
      steps.push_back(step.str());
    }
    if (selected.empty()) {
      throw Infeasible("H1-rounds: no combinable pair in round " +
                       std::to_string(round));
    }
    // Selected pairs are disjoint, so their representatives stay current
    // while the merges apply one by one.
    for (const auto& [a, b] : selected) {
      quotient_cache_.merge(groups[a].front(), groups[b].front());
      partition.merge(groups[a].front(), groups[b].front());
    }
  }
  return finish(std::move(partition), std::move(steps));
}

std::vector<std::vector<graph::NodeIndex>>
ClusterEngine::partition_for_hierarchy(std::size_t parts_wanted) const {
  // Stoer–Wagner is O(V³) — fine for parts this small, far too slow for
  // thousands of nodes, where the BFS-order halving takes over.
  constexpr std::size_t kMinCutLimit = 192;
  const std::size_t n = sw_->node_count();
  const graph::Digraph& g = sw_->influence_graph();

  std::vector<std::vector<graph::NodeIndex>> parts;
  {
    std::vector<graph::NodeIndex> all(n);
    for (std::size_t v = 0; v < n; ++v) {
      all[v] = static_cast<graph::NodeIndex>(v);
    }
    parts.push_back(std::move(all));
  }

  std::vector<char> in_part(n, 0);
  std::vector<char> visited(n, 0);

  // Splits `part` at the midpoint of a BFS order over the positive-weight
  // influence edges (replica links carry weight 0 and are ignored), so each
  // half keeps influence locality. Deterministic: BFS seeds are the part's
  // ascending unvisited nodes and neighbors enqueue in ascending index.
  const auto bfs_halves = [&](const std::vector<graph::NodeIndex>& part,
                              std::vector<graph::NodeIndex>& first,
                              std::vector<graph::NodeIndex>& second) {
    for (const graph::NodeIndex v : part) {
      in_part[v] = 1;
      visited[v] = 0;
    }
    std::vector<graph::NodeIndex> order;
    order.reserve(part.size());
    std::vector<graph::NodeIndex> nbrs;
    std::size_t head = 0;
    for (const graph::NodeIndex seed : part) {
      if (visited[seed]) continue;
      visited[seed] = 1;
      order.push_back(seed);
      while (head < order.size()) {
        const graph::NodeIndex u = order[head++];
        nbrs.clear();
        for (const std::uint32_t e : g.out_edges(u)) {
          const graph::Edge& edge = g.edges()[e];
          if (edge.weight > 0.0 && in_part[edge.to]) nbrs.push_back(edge.to);
        }
        for (const std::uint32_t e : g.in_edges(u)) {
          const graph::Edge& edge = g.edges()[e];
          if (edge.weight > 0.0 && in_part[edge.from]) {
            nbrs.push_back(edge.from);
          }
        }
        std::sort(nbrs.begin(), nbrs.end());
        for (const graph::NodeIndex v : nbrs) {
          if (!visited[v]) {
            visited[v] = 1;
            order.push_back(v);
          }
        }
      }
    }
    const std::size_t half = (part.size() + 1) / 2;
    first.assign(order.begin(),
                 order.begin() + static_cast<std::ptrdiff_t>(half));
    second.assign(order.begin() + static_cast<std::ptrdiff_t>(half),
                  order.end());
    std::sort(first.begin(), first.end());
    std::sort(second.begin(), second.end());
    for (const graph::NodeIndex v : part) in_part[v] = 0;
  };

  while (parts.size() < parts_wanted) {
    std::size_t largest = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].size() < 2) continue;
      if (largest == parts.size() ||
          parts[i].size() > parts[largest].size()) {
        largest = i;
      }
    }
    if (largest == parts.size()) break;  // all parts singleton
    const std::vector<graph::NodeIndex> part = std::move(parts[largest]);
    std::vector<graph::NodeIndex> first, second;
    if (part.size() <= kMinCutLimit) {
      const graph::CutResult cut = graph::global_min_cut_subset(g, part);
      for (const graph::NodeIndex v : part) {
        (cut.in_first_side[v] ? first : second).push_back(v);
      }
      FCM_REQUIRE(!first.empty() && !second.empty(),
                  "min-cut produced a degenerate split");
    } else {
      bfs_halves(part, first, second);
    }
    parts[largest] = std::move(first);
    parts.push_back(std::move(second));
  }
  return parts;
}

ClusteringResult ClusterEngine::h1_hierarchical() {
  const std::size_t n = sw_->node_count();
  FCM_REQUIRE(options_.target_clusters <= n,
              "more clusters requested than SW nodes");
  constexpr std::size_t kNodesPerPart = 96;
  const std::size_t parts_wanted = std::clamp<std::size_t>(
      n / kNodesPerPart, std::size_t{1}, options_.target_clusters);
  if (parts_wanted <= 1) return h1_greedy();
  FCM_OBS_SPAN("h1.hierarchical");

  const std::vector<std::vector<graph::NodeIndex>> parts =
      partition_for_hierarchy(parts_wanted);
  FCM_OBS_COUNT("h1.hierarchical.parts", parts.size());

  // Local cluster targets: a proportional share of the global target by
  // part size, floored by the part's replica need (replicas of one process
  // inside a part require that many distinct local clusters) and topped up
  // in largest-remainder order until the local targets sum to at least the
  // global target — the final phase then only ever merges.
  std::vector<std::size_t> target(parts.size());
  std::vector<std::size_t> remainder(parts.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::map<FcmId, std::size_t> per_origin;
    std::size_t need = 1;
    for (const graph::NodeIndex v : parts[i]) {
      need = std::max(need, ++per_origin[sw_->node(v).origin]);
    }
    const std::size_t share = options_.target_clusters * parts[i].size();
    target[i] = std::min(parts[i].size(), std::max(need, share / n));
    remainder[i] = share % n;
    total += target[i];
  }
  while (total < options_.target_clusters) {
    std::size_t pick = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (target[i] >= parts[i].size()) continue;
      if (pick == parts.size() || remainder[i] > remainder[pick]) pick = i;
    }
    FCM_REQUIRE(pick < parts.size(),
                "hierarchical: cannot distribute local cluster targets");
    ++target[pick];
    ++total;
    remainder[pick] = 0;
  }

  // Per-part H1 runs — independent of each other and of the lane running
  // them, so the composed result is bitwise identical for any thread
  // count. Errors are captured per slot and rethrown in part order.
  struct PartOutcome {
    graph::Partition partition;
    std::vector<std::string> steps;
    std::size_t achieved_target = 0;
    std::exception_ptr error;
  };
  std::vector<PartOutcome> outcomes(parts.size());
  const std::uint32_t threads =
      exec::resolve_threads(options_.threads, parts.size());
  exec::parallel_for_blocks(
      parts.size(), threads, [&](std::uint64_t b, std::uint32_t /*lane*/) {
        PartOutcome& out = outcomes[b];
        try {
          const SwGraph sub = sw_->subset(parts[b]);
          ClusteringOptions local = options_;
          local.threads = 1;
          // An infeasible local target is relaxed upward; at target ==
          // part size H1 performs no merges, so the loop always lands.
          for (std::size_t t = target[b];; ++t) {
            local.target_clusters = t;
            ClusterEngine local_engine(sub, local);
            try {
              ClusteringResult local_result = local_engine.h1_greedy();
              out.partition = std::move(local_result.partition);
              out.steps = std::move(local_result.steps);
              out.achieved_target = t;
              break;
            } catch (const Infeasible&) {
              if (t >= parts[b].size()) throw;
            }
          }
        } catch (...) {
          out.error = std::current_exception();
        }
      });
  for (PartOutcome& out : outcomes) {
    if (out.error) std::rethrow_exception(out.error);
  }

  // Compose the global partition and step log in fixed part order, then
  // H1-merge across parts down to the global target.
  graph::Partition partition = graph::Partition::identity(n);
  std::vector<std::string> steps;
  if (options_.log_steps) {
    std::ostringstream head;
    head << "hierarchical: " << parts.size() << " parts over " << n
         << " nodes (target " << options_.target_clusters << ")";
    steps.push_back(head.str());
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto groups = outcomes[i].partition.groups();
    for (const auto& members : groups) {
      for (std::size_t k = 1; k < members.size(); ++k) {
        partition.merge(parts[i][members[0]], parts[i][members[k]]);
      }
    }
    if (options_.log_steps) {
      std::ostringstream summary;
      summary << "part " << (i + 1) << ": " << parts[i].size()
              << " nodes -> " << groups.size() << " clusters (local target "
              << outcomes[i].achieved_target << ")";
      steps.push_back(summary.str());
      for (const std::string& s : outcomes[i].steps) {
        steps.push_back("part " + std::to_string(i + 1) + ": " + s);
      }
    }
  }
  quotient_cache_.reset(*sw_, partition);
  greedy_merge(partition, steps, GreedyStepStyle::kCombine);
  return finish(std::move(partition), std::move(steps));
}

ClusteringResult ClusterEngine::h2_mincut() {
  std::vector<graph::NodeIndex> all(sw_->node_count());
  for (std::size_t v = 0; v < sw_->node_count(); ++v) {
    all[v] = static_cast<graph::NodeIndex>(v);
  }
  return h2_driver({std::move(all)}, {});
}

ClusteringResult ClusterEngine::h2_st_cut(
    std::optional<graph::NodeIndex> source,
    std::optional<graph::NodeIndex> target) {
  FCM_REQUIRE(sw_->node_count() >= 2, "s-t cut needs at least two nodes");
  // Default endpoints: the two most important SW nodes (distinct).
  if (!source.has_value() || !target.has_value()) {
    graph::NodeIndex best = 0, second = 1;
    for (graph::NodeIndex v = 0; v < sw_->node_count(); ++v) {
      if (sw_->node(v).importance > sw_->node(best).importance) best = v;
    }
    second = best == 0 ? 1 : 0;
    for (graph::NodeIndex v = 0; v < sw_->node_count(); ++v) {
      if (v != best &&
          sw_->node(v).importance > sw_->node(second).importance) {
        second = v;
      }
    }
    if (!source.has_value()) source = best;
    if (!target.has_value()) target = second;
  }
  FCM_REQUIRE(*source != *target, "source and target must differ");
  FCM_REQUIRE(*source < sw_->node_count() && *target < sw_->node_count(),
              "s-t endpoints out of range");

  const graph::StCutResult cut =
      graph::st_min_cut(sw_->influence_graph(), *source, *target);
  std::vector<graph::NodeIndex> first, second_side;
  for (graph::NodeIndex v = 0; v < sw_->node_count(); ++v) {
    (cut.on_source_side[v] ? first : second_side).push_back(v);
  }
  std::vector<std::string> steps;
  std::ostringstream step;
  step << "s-t cut separating " << sw_->node(*source).name << " from "
       << sw_->node(*target).name << " (cut weight " << cut.flow << ")";
  steps.push_back(step.str());
  return h2_driver({std::move(first), std::move(second_side)},
                   std::move(steps));
}

ClusteringResult ClusterEngine::h2_driver(
    std::vector<std::vector<graph::NodeIndex>> parts,
    std::vector<std::string> steps) {

  auto part_valid = [&](const std::vector<graph::NodeIndex>& part) {
    for (std::size_t i = 0; i < part.size(); ++i) {
      for (std::size_t j = i + 1; j < part.size(); ++j) {
        if (sw_->replicas(part[i], part[j])) return false;
      }
    }
    if (!resources_hostable(part)) return false;
    if (!options_.enforce_schedulability) return true;
    return members_schedulable(part);
  };

  auto split_part = [&](std::size_t index) {
    const std::vector<graph::NodeIndex> part = parts[index];
    const graph::CutResult cut =
        graph::global_min_cut_subset(sw_->influence_graph(), part);
    std::vector<graph::NodeIndex> first, second;
    for (const graph::NodeIndex v : part) {
      (cut.in_first_side[v] ? first : second).push_back(v);
    }
    // A degenerate cut (everything on one side) cannot happen with
    // Stoer–Wagner, but guard for safety.
    FCM_REQUIRE(!first.empty() && !second.empty(),
                "min-cut produced a degenerate split");
    std::ostringstream step;
    step << "cut {" << join_names(*sw_, part) << "} -> {"
         << join_names(*sw_, first) << "} | {" << join_names(*sw_, second)
         << "} (cut weight " << cut.weight << ")";
    steps.push_back(step.str());
    parts[index] = std::move(first);
    parts.push_back(std::move(second));
  };

  // Phase 1: bisect the largest part until the target count.
  while (parts.size() < options_.target_clusters) {
    std::size_t largest = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].size() < 2) continue;
      if (largest == parts.size() ||
          parts[i].size() > parts[largest].size()) {
        largest = i;
      }
    }
    FCM_REQUIRE(largest < parts.size(),
                "H2: cannot reach the target count (all parts singleton)");
    split_part(largest);
  }

  // Phase 2: repair — split any part violating constraints.
  for (int guard = 0; guard < 1000; ++guard) {
    std::size_t violating = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].size() >= 2 && !part_valid(parts[i])) {
        violating = i;
        break;
      }
    }
    if (violating == parts.size()) break;
    split_part(violating);
  }

  // Build the partition from parts, then re-merge down to target with H1
  // steps if the repair overshot.
  graph::Partition partition =
      graph::Partition::identity(sw_->node_count());
  for (const auto& part : parts) {
    for (std::size_t k = 1; k < part.size(); ++k) {
      partition.merge(part[0], part[k]);
    }
  }
  quotient_cache_.reset(*sw_, partition);
  greedy_merge(partition, steps, GreedyStepStyle::kRepairMerge);
  return finish(std::move(partition), std::move(steps));
}

ClusteringResult ClusterEngine::h3_importance(double importance_threshold,
                                              double influence_threshold) {
  const std::size_t n = sw_->node_count();
  FCM_REQUIRE(options_.target_clusters <= n,
              "more clusters requested than SW nodes");
  // Seeds: the target_clusters most important nodes.
  std::vector<graph::NodeIndex> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[v] = static_cast<graph::NodeIndex>(v);
  }
  std::sort(order.begin(), order.end(),
            [&](graph::NodeIndex a, graph::NodeIndex b) {
              if (sw_->node(a).importance != sw_->node(b).importance) {
                return sw_->node(a).importance > sw_->node(b).importance;
              }
              return a < b;
            });
  std::vector<bool> is_seed(n, false);
  std::vector<std::string> steps;
  for (std::size_t k = 0; k < options_.target_clusters; ++k) {
    is_seed[order[k]] = true;
    steps.push_back("seed " + sw_->node(order[k]).name + " (importance " +
                    std::to_string(sw_->node(order[k]).importance) + ")");
  }

  graph::Partition partition = graph::Partition::identity(n);
  quotient_cache_.reset(*sw_, partition);
  // Attach non-seeds (most important first) to their best seed cluster.
  for (std::size_t k = options_.target_clusters; k < n; ++k) {
    const graph::NodeIndex v = order[k];
    const auto groups = partition.groups();
    const std::uint32_t v_cluster = partition.cluster_of[v];
    double best = -1.0;
    std::uint32_t best_cluster = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (!is_seed[s]) continue;
      const std::uint32_t c = partition.cluster_of[s];
      if (c == v_cluster) continue;
      const double m = quotient_cache_.mutual(groups[v_cluster].front(),
                                              groups[c].front());
      const bool admitted =
          sw_->node(v).importance < importance_threshold ||
          m > influence_threshold;
      if (admitted && m > best && can_combine(partition, v_cluster, c)) {
        best = m;
        best_cluster = c;
      }
    }
    if (best < 0.0) {
      throw Infeasible("H3: node " + sw_->node(v).name +
                       " fits no sphere of influence");
    }
    steps.push_back("attach " + sw_->node(v).name + " -> {" +
                    join_names(*sw_, groups[best_cluster]) +
                    "} (mutual influence " + std::to_string(best) + ")");
    quotient_cache_.merge(groups[v_cluster].front(),
                          groups[best_cluster].front());
    partition.merge(v, groups[best_cluster].front());
  }
  return finish(std::move(partition), std::move(steps));
}

ClusteringResult ClusterEngine::criticality_pairing() {
  graph::Partition partition =
      graph::Partition::identity(sw_->node_count());
  std::vector<std::string> steps;

  auto summary_criticality = [&](std::uint32_t cluster) {
    core::Criticality crit = 0;
    for (std::size_t v = 0; v < partition.cluster_of.size(); ++v) {
      if (partition.cluster_of[v] == cluster) {
        crit = std::max(crit, sw_->node(static_cast<graph::NodeIndex>(v))
                                  .attributes.criticality);
      }
    }
    return crit;
  };

  int round = 0;
  while (partition.cluster_count > options_.target_clusters) {
    ++round;
    const auto groups = partition.groups();
    // Clusters in descending summary criticality (stable on index).
    std::vector<std::uint32_t> list(partition.cluster_count);
    for (std::uint32_t c = 0; c < partition.cluster_count; ++c) list[c] = c;
    std::sort(list.begin(), list.end(), [&](std::uint32_t a, std::uint32_t b) {
      const auto ca = summary_criticality(a);
      const auto cb = summary_criticality(b);
      if (ca != cb) return ca > cb;
      return a < b;
    });

    std::vector<bool> paired(list.size(), false);
    // Pairs as positions into `list` (hi position, lo position).
    std::vector<std::pair<std::size_t, std::size_t>> pairs;

    std::size_t hi = 0;
    while (true) {
      while (hi < list.size() && paired[hi]) ++hi;
      // Find the last unpaired position beyond hi.
      std::size_t lo = list.size();
      for (std::size_t k = list.size(); k-- > hi + 1;) {
        if (!paired[k]) {
          lo = k;
          break;
        }
      }
      if (hi >= list.size() || lo == list.size()) break;

      // Try lo, then the entries preceding lo on the criticality list
      // ("combine ph with the process preceding pl").
      std::size_t chosen = list.size();
      for (std::size_t k = lo; k > hi; --k) {
        if (paired[k]) continue;
        if (can_combine(partition, list[hi], list[k])) {
          chosen = k;
          break;
        }
      }
      if (chosen == list.size()) {
        // hi pairs with nothing this round; it stays as-is.
        paired[hi] = true;  // consumed, unpaired
        continue;
      }
      paired[hi] = paired[chosen] = true;
      pairs.emplace_back(hi, chosen);
      steps.push_back("round " + std::to_string(round) + ": pair " +
                      join_names(*sw_, groups[list[hi]]) + " + " +
                      join_names(*sw_, groups[list[chosen]]));
    }

    // Narrated replicate resolution: if exactly two clusters remain
    // unpaired and incompatible, dissolve the last formed pair and re-pair
    // crosswise.
    std::vector<std::size_t> leftover;
    for (std::size_t k = 0; k < list.size(); ++k) {
      bool in_pair = false;
      for (const auto& [a, b] : pairs) {
        if (k == a || k == b) in_pair = true;
      }
      if (!in_pair) leftover.push_back(k);
    }
    if (leftover.size() == 2 && !pairs.empty() &&
        !can_combine(partition, list[leftover[0]], list[leftover[1]])) {
      const auto [ph, pl] = pairs.back();
      const std::size_t a = leftover[0], b = leftover[1];
      auto try_resolution = [&](std::size_t x, std::size_t y) {
        // (ph with x) and (y with pl)
        if (can_combine(partition, list[ph], list[x]) &&
            can_combine(partition, list[y], list[pl])) {
          pairs.pop_back();
          pairs.emplace_back(ph, x);
          pairs.emplace_back(y, pl);
          steps.push_back(
              "round " + std::to_string(round) + ": conflict between " +
              join_names(*sw_, groups[list[a]]) + " and " +
              join_names(*sw_, groups[list[b]]) +
              " resolved by dissolving pair (" +
              join_names(*sw_, groups[list[ph]]) + "," +
              join_names(*sw_, groups[list[pl]]) + ")");
          return true;
        }
        return false;
      };
      if (!try_resolution(b, a)) (void)try_resolution(a, b);
    }

    if (pairs.empty()) {
      throw Infeasible(
          "criticality pairing: no combinable pair in round " +
          std::to_string(round));
    }

    // Merge pairs (in formation order) until the target count is reached.
    std::size_t merges_allowed =
        partition.cluster_count - options_.target_clusters;
    for (const auto& [a, b] : pairs) {
      if (merges_allowed == 0) break;
      partition.merge(groups[list[a]].front(), groups[list[b]].front());
      --merges_allowed;
    }
  }
  return finish(std::move(partition), std::move(steps));
}

ClusteringResult ClusterEngine::timing_ordered(OrderKey key,
                                               std::size_t max_per_cluster) {
  const std::size_t n = sw_->node_count();
  const std::size_t cap =
      max_per_cluster > 0
          ? max_per_cluster
          : (n + options_.target_clusters - 1) / options_.target_clusters;

  std::vector<graph::NodeIndex> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[v] = static_cast<graph::NodeIndex>(v);
  }
  std::sort(order.begin(), order.end(),
            [&](graph::NodeIndex a, graph::NodeIndex b) {
              const SwNode& na = sw_->node(a);
              const SwNode& nb = sw_->node(b);
              switch (key) {
                case OrderKey::kCriticality:
                  if (na.attributes.criticality != nb.attributes.criticality)
                    return na.attributes.criticality >
                           nb.attributes.criticality;
                  break;
                case OrderKey::kEst: {
                  const auto ea = na.attributes.timing
                                      ? na.attributes.timing->est
                                      : Instant::distant_future();
                  const auto eb = nb.attributes.timing
                                      ? nb.attributes.timing->est
                                      : Instant::distant_future();
                  if (ea != eb) return ea < eb;
                  break;
                }
                case OrderKey::kUrgency: {
                  const double ua = core::timing_urgency(na.attributes);
                  const double ub = core::timing_urgency(nb.attributes);
                  if (ua != ub) return ua > ub;
                  break;
                }
              }
              return a < b;
            });

  std::vector<std::vector<graph::NodeIndex>> bins;
  std::vector<std::string> steps;
  auto fits = [&](const std::vector<graph::NodeIndex>& bin,
                  graph::NodeIndex v) {
    if (bin.size() >= cap) return false;
    for (const graph::NodeIndex m : bin) {
      if (sw_->replicas(m, v)) return false;
    }
    std::vector<graph::NodeIndex> combined = bin;
    combined.push_back(v);
    if (!resources_hostable(combined)) return false;
    if (!options_.enforce_schedulability) return true;
    return members_schedulable(combined);
  };

  for (const graph::NodeIndex v : order) {
    bool placed = false;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (fits(bins[b], v)) {
        bins[b].push_back(v);
        steps.push_back("place " + sw_->node(v).name + " -> bin " +
                        std::to_string(b + 1));
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (bins.size() >= options_.target_clusters) {
        throw Infeasible("timing-ordered packing: " + sw_->node(v).name +
                         " fits no bin and the bin budget is exhausted");
      }
      bins.push_back({v});
      steps.push_back("open bin " + std::to_string(bins.size()) + " with " +
                      sw_->node(v).name);
    }
  }

  graph::Partition partition = graph::Partition::identity(n);
  for (const auto& bin : bins) {
    for (std::size_t k = 1; k < bin.size(); ++k) {
      partition.merge(bin[0], bin[k]);
    }
  }
  return finish(std::move(partition), std::move(steps));
}

}  // namespace fcm::mapping

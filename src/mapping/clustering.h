// Clustering the SW graph down to the HW node count (§5.2, §5.4, §6).
//
// "Since, invariably, the SW graph has a much greater number of nodes than
// the HW graph, the SW graph must be condensed ... The problem to be solved
// is: Given a graph with directed weighted edges, group the nodes into sets
// such that the sum of weights between the sets is minimized. Deterministic
// solutions to this problem do not exist, or are analytically intractable."
//
// Implemented heuristics:
//   H1  greedy: repeatedly combine the two combinable clusters with the
//       highest mutual influence (§5.4), with the round-based "pair all
//       nodes" variation;
//   H2  recursive min-cut bisection (§5.4);
//   H3  importance spheres: seed with the n most important nodes and attach
//       neighbors below an importance threshold / above an influence
//       threshold (§5.4);
//   Approach-B criticality pairing (§6.2): most critical with least
//       critical, with the narrated conflict fallbacks;
//   timing-ordered first-fit (§6.2 closing technique, Fig. 8).
//
// Every combination step respects: replica anti-affinity ("two nodes
// connected by an edge of weight 0 cannot be combined") and collocation
// schedulability ("the processes in the cluster must all be schedulable").
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/influence.h"
#include "graph/quotient.h"
#include "mapping/swgraph.h"
#include "sched/feasibility.h"

namespace fcm::mapping {

/// Options shared by all clustering heuristics.
struct ClusteringOptions {
  /// Number of clusters to stop at (the HW node count).
  std::size_t target_clusters = 1;
  /// Scheduling policy assumed for a shared processor.
  sched::Policy policy = sched::Policy::kPreemptiveEdf;
  /// When false, timing feasibility is not checked (pure graph condensation).
  bool enforce_schedulability = true;
  /// Optional check that a cluster's combined resource requirements can be
  /// hosted by at least one HW node (prevents merging modules whose joint
  /// needs fit nowhere). Null = no resource constraint during clustering.
  std::function<bool(const std::set<std::string>&)> resource_check;
  /// Record the human-readable per-merge step log. At thousands of nodes
  /// the joined member-name strings dominate memory and time; the scale
  /// bench turns this off. Results are unaffected.
  bool log_steps = true;
  /// Worker threads for the per-part clustering runs of h1_hierarchical
  /// (0 = FCM_THREADS / hardware concurrency, 1 = sequential). The result
  /// is bitwise identical for every value.
  std::uint32_t threads = 0;
};

/// Ordering keys for the timing-ordered technique.
enum class OrderKey : std::uint8_t {
  kCriticality,  ///< descending criticality (summary attribute)
  kEst,          ///< ascending earliest start time
  kUrgency,      ///< descending timing urgency (CT / window)
};

/// Result of a clustering run.
struct ClusteringResult {
  graph::Partition partition;
  /// The condensed influence graph (Eq. 4 probabilistic edge combination;
  /// replica links excluded).
  graph::Digraph quotient;
  /// Human-readable log of each combination step.
  std::vector<std::string> steps;

  /// Cluster member names, e.g. {"p1a","p2a"}, ordered by cluster index.
  [[nodiscard]] std::vector<std::vector<std::string>> cluster_names(
      const SwGraph& sw) const;
  /// Sum of influence weights crossing cluster boundaries (the containment
  /// objective being minimized).
  [[nodiscard]] double cross_cluster_influence() const;
};

/// Stateful clustering engine over one SW graph.
class ClusterEngine {
 public:
  ClusterEngine(const SwGraph& sw, ClusteringOptions options);

  /// Whether the two clusters may combine: no replica pair across them and
  /// (when enforced) the union is single-processor schedulable.
  [[nodiscard]] bool can_combine(const graph::Partition& partition,
                                 std::uint32_t cluster_a,
                                 std::uint32_t cluster_b);

  /// H1 greedy: merge the highest-mutual-influence combinable pair until
  /// the target count. Throws Infeasible when no combinable pair remains
  /// above the target count.
  ClusteringResult h1_greedy();

  /// H1 variation: "pair all nodes based on influence values and then
  /// repeat the process" — each round forms disjoint pairs greedily, then
  /// rounds repeat. May overshoot-stop exactly at target mid-round.
  ClusteringResult h1_rounds();

  /// Hierarchical H1 for large graphs: partition the SW nodes first
  /// (min-cut bisection for small parts, deterministic BFS-order bisection
  /// for large ones), run H1 to a proportional local target within each
  /// part — in parallel on `fcm::exec` when `options.threads` allows — and
  /// finally H1-merge the composed clustering down to the global target.
  /// This keeps the greedy merge loop quadratic only within parts, not
  /// globally. The result is bitwise identical for every thread count:
  /// parts are deterministic, each local run depends only on its own
  /// subgraph, and composition and the final merge happen in fixed part
  /// order. The part count is about one per 96 nodes, capped by the target
  /// cluster count; when that is 1, this is exactly h1_greedy.
  ClusteringResult h1_hierarchical();

  /// H2: recursive min-cut bisection of the largest part until the target
  /// count, then constraint repair (split invalid parts, re-merge best
  /// pairs).
  ClusteringResult h2_mincut();

  /// The §5.4 H2 variation "cut the graph using source and target nodes":
  /// the first split is the minimum cut separating the two given SW nodes
  /// (e.g. two replicas, or two processes that must not share a fault
  /// region); the recursion then proceeds as in h2_mincut. By default the
  /// two most important SW nodes are separated.
  ClusteringResult h2_st_cut(
      std::optional<graph::NodeIndex> source = std::nullopt,
      std::optional<graph::NodeIndex> target = std::nullopt);

  /// H3: seed with the `target_clusters` most important nodes; attach every
  /// other node to the combinable adjacent cluster of highest mutual
  /// influence, provided the node's importance is below
  /// `importance_threshold` or the influence is above `influence_threshold`.
  ClusteringResult h3_importance(double importance_threshold = 1.0,
                                 double influence_threshold = 0.0);

  /// §6.2 Approach B: sort by criticality, combine most critical with least
  /// critical; on timing conflict walk to the preceding process; on a final
  /// replicate conflict, dissolve the previous pair as the paper narrates.
  ClusteringResult criticality_pairing();

  /// §6.2 closing technique (Fig. 8): order nodes by `key`, first-fit into
  /// at most `target_clusters` bins of at most `max_per_cluster` members
  /// (0 = ceil(n/target)), respecting replica and schedulability
  /// constraints.
  ClusteringResult timing_ordered(OrderKey key = OrderKey::kCriticality,
                                  std::size_t max_per_cluster = 0);

  /// Number of schedulability-oracle analyses performed so far.
  [[nodiscard]] std::size_t oracle_analyses() const noexcept {
    return oracle_.analyses();
  }

  /// Incremental cluster-pair influence under a shrinking partition.
  ///
  /// The greedy heuristics (H1, H3, the H2 repair phase) keep, per ordered
  /// cluster pair, the sorted list of SW influence edges crossing the pair
  /// (replica links excluded) instead of rebuilding the quotient influence
  /// graph from every SW edge after each merge. Clusters are keyed by their
  /// *representative* — the smallest member node index — which is stable
  /// under merging (the union's representative is the min of the two
  /// inputs). A merge folds only the bundles adjacent to the two merged
  /// clusters, found through a per-representative neighbor index.
  /// Combination multiplies weights in ascending edge order, exactly the
  /// order `influence_quotient` uses, so every value is bitwise identical
  /// to a from-scratch rebuild.
  ///
  /// Public (rather than an implementation detail) so the property tests
  /// can drive merges directly and compare against the rebuilt quotient of
  /// the test-tree reference oracle.
  class QuotientCache {
   public:
    /// Rebuilds bundles and the neighbor index for the partition.
    void reset(const SwGraph& sw, const graph::Partition& partition);
    /// Mutual influence between the clusters represented by `rep_a` and
    /// `rep_b` (Eq. 4 combination per direction, summed).
    [[nodiscard]] double mutual(graph::NodeIndex rep_a,
                                graph::NodeIndex rep_b) const;
    /// Folds the two clusters' bundles after a partition merge, in
    /// O(degree) through the neighbor index.
    void merge(graph::NodeIndex rep_a, graph::NodeIndex rep_b);
    /// Representatives whose clusters share at least one crossing influence
    /// edge with `rep`'s cluster, ascending. Pairs not listed here have
    /// mutual influence exactly 0.0.
    [[nodiscard]] const std::vector<graph::NodeIndex>& neighbors(
        graph::NodeIndex rep) const;

   private:
    [[nodiscard]] double directed(graph::NodeIndex rep_from,
                                  graph::NodeIndex rep_to) const;
    /// Moves bundle `key` (if present) into `target`, folding into any
    /// bundle already there (merge of two ascending runs stays ascending).
    void fold_bundle_into(std::uint64_t key, std::uint64_t target);
    void recycle(std::vector<std::uint32_t>&& bundle);
    [[nodiscard]] std::vector<std::uint32_t> fresh_bundle();
    void update_adjacency_after_merge(graph::NodeIndex rep_a,
                                      graph::NodeIndex rep_b,
                                      graph::NodeIndex merged);

    const SwGraph* sw_ = nullptr;
    // (rep_from << 32 | rep_to) -> ascending indices into sw edges().
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> bundles_;
    // Representative -> sorted bundle-neighbor representatives (either
    // direction). Maintained exactly (no stale entries) by reset/merge.
    std::unordered_map<graph::NodeIndex, std::vector<graph::NodeIndex>>
        adjacency_;
    // Pooled transient storage for the merge loop: retired bundle vectors
    // are recycled instead of freed, and the scratch list below keeps its
    // capacity across merges.
    std::vector<std::vector<std::uint32_t>> bundle_pool_;
    std::vector<graph::NodeIndex> affected_scratch_;
  };

 private:
  /// Whether the union of the members' resource requirements passes the
  /// configured resource check (true when none is configured or the union
  /// is empty).
  [[nodiscard]] bool resources_hostable(
      const std::vector<graph::NodeIndex>& members) const;
  /// Whether the members can share one processor: one-shot jobs go through
  /// the memoizing EDF oracle; mixtures with periodic tasks use
  /// sched::mixed_feasible.
  [[nodiscard]] bool members_schedulable(
      const std::vector<graph::NodeIndex>& members);
  /// Step-log flavor of the shared greedy merge loop.
  enum class GreedyStepStyle : std::uint8_t {
    kCombine,      ///< H1: "combine A + B (mutual influence m)"
    kRepairMerge,  ///< H2 repair: "repair-merge A + B"
  };
  /// Merges the highest-mutual-influence combinable pair until the target
  /// cluster count, appending one step per merge. Candidates come from a
  /// lazy-deletion max-heap over positive-mutual neighbor pairs, with ties
  /// broken toward the lowest cluster indices; once the heap drains, a
  /// fallback scan takes the first combinable zero-mutual pair. Throws
  /// Infeasible when no combinable pair remains.
  void greedy_merge(graph::Partition& partition,
                    std::vector<std::string>& steps, GreedyStepStyle style);
  [[nodiscard]] static std::string greedy_step_text(GreedyStepStyle style,
                                                    const std::string& a_names,
                                                    const std::string& b_names,
                                                    double mutual);
  [[noreturn]] void throw_no_combinable_pair(
      const graph::Partition& partition, GreedyStepStyle style) const;
  /// Splits all SW nodes into `parts_wanted` deterministic parts for
  /// h1_hierarchical: recursively bisect the largest part — Stoer–Wagner
  /// min-cut when the part is small, BFS-order halving (over the positive-
  /// weight influence edges) when it is large. Parts are ascending node
  /// lists in creation order.
  [[nodiscard]] std::vector<std::vector<graph::NodeIndex>>
  partition_for_hierarchy(std::size_t parts_wanted) const;
  /// Shared H2 machinery: bisect the largest part until the target count,
  /// repair constraint violations, re-merge any overshoot.
  ClusteringResult h2_driver(
      std::vector<std::vector<graph::NodeIndex>> parts,
      std::vector<std::string> steps);
  [[nodiscard]] ClusteringResult finish(graph::Partition partition,
                                        std::vector<std::string> steps) const;
  /// Quotient with replica links dropped and probabilistic combination.
  [[nodiscard]] graph::Digraph influence_quotient(
      const graph::Partition& partition) const;

  const SwGraph* sw_;
  ClusteringOptions options_;
  sched::FeasibilityOracle oracle_;
  QuotientCache quotient_cache_;
};

}  // namespace fcm::mapping

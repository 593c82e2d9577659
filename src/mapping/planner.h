// End-to-end integration planning.
//
// The paper's §5 realization is "a two-phase technique: first, clustering of
// SW elements into FCMs; second, assigning these elements to processors".
// `IntegrationPlanner` drives the whole pipeline — SW graph construction
// with replication expansion, a chosen clustering heuristic, a chosen
// assignment approach, and quality evaluation — and can compare heuristics
// to pick the best-scoring feasible plan.
#pragma once

#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/influence.h"
#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/quality.h"

namespace fcm::mapping {

/// Clustering heuristic selector. kH1Hierarchical is the scale variant of
/// H1 (partition, cluster within parts in parallel, merge across); it is
/// selectable explicitly but excluded from the best_plan sweep, which
/// targets paper-sized systems where flat H1 subsumes it.
enum class Heuristic : std::uint8_t {
  kH1Greedy,
  kH1Rounds,
  kH2MinCut,
  kH2StCut,
  kH3Importance,
  kCriticalityPairing,
  kTimingOrdered,
  kH1Hierarchical,
};

const char* to_string(Heuristic heuristic) noexcept;

/// Assignment approach selector.
enum class Approach : std::uint8_t {
  kAImportance,     ///< Approach A: importance of tasks
  kBLexicographic,  ///< Approach B: importance of attributes
};

const char* to_string(Approach approach) noexcept;

/// One complete plan.
struct Plan {
  Heuristic heuristic = Heuristic::kH1Greedy;
  Approach approach = Approach::kAImportance;
  ClusteringResult clustering;
  Assignment assignment;
  MappingQuality quality;

  /// Multi-line description: clusters, hosts, quality report.
  [[nodiscard]] std::string report(const SwGraph& sw,
                                   const HwGraph& hw) const;
};

/// Options for planning.
struct PlanOptions {
  sched::Policy policy = sched::Policy::kPreemptiveEdf;
  QualityOptions quality;
  /// Worker threads for the best_plan heuristic sweep (0 = hardware
  /// concurrency, 1 = sequential). Candidates are independent, and the
  /// winner is always selected in the fixed heuristic order with a
  /// strictly-greater score rule, so the chosen plan is identical for
  /// every thread count.
  std::uint32_t sweep_threads = 1;
};

/// Plans the integration of `processes` onto `hw`.
class IntegrationPlanner {
 public:
  IntegrationPlanner(const core::FcmHierarchy& hierarchy,
                     const core::InfluenceModel& influence,
                     std::vector<FcmId> processes, const HwGraph& hw,
                     PlanOptions options = {});

  /// The replication-expanded SW graph.
  [[nodiscard]] const SwGraph& sw_graph() const noexcept { return sw_; }

  /// Runs one heuristic + approach combination.
  Plan plan(Heuristic heuristic, Approach approach);

  /// Runs every heuristic with the given approach and returns the feasible
  /// plan with the highest quality score. When `sweep_threads` allows, the
  /// candidates are planned in parallel (one worker-local separation memo
  /// each); the selection pass is always sequential over the fixed
  /// heuristic order, so the result is identical for any thread count.
  /// Throws Infeasible when no heuristic produces a feasible plan.
  Plan best_plan(Approach approach = Approach::kAImportance);

  /// Hit/miss counters of the planner's Eq. 3 separation memo, merged with
  /// the counters of every worker-local memo used by parallel best_plan
  /// sweeps on this planner.
  [[nodiscard]] core::CacheStats separation_cache_stats() const noexcept {
    core::CacheStats merged = separation_cache_.stats();
    merged.hits += sweep_stats_.hits;
    merged.misses += sweep_stats_.misses;
    merged.invalidations += sweep_stats_.invalidations;
    merged.evictions += sweep_stats_.evictions;
    return merged;
  }

 private:
  /// One heuristic + approach candidate, scored through `cache`. Const and
  /// side-effect free apart from the cache, so candidates may run
  /// concurrently with per-worker caches.
  [[nodiscard]] Plan plan_with(Heuristic heuristic, Approach approach,
                               core::SeparationCache* cache) const;

  const HwGraph* hw_;
  PlanOptions options_;
  SwGraph sw_;
  /// Scores across heuristics repeatedly analyze candidate quotients;
  /// identical quotients (heuristics often converge on the same clustering)
  /// share one power-series analysis through this memo.
  core::SeparationCache separation_cache_;
  /// Accumulated stats of retired worker-local sweep memos.
  core::CacheStats sweep_stats_;
};

}  // namespace fcm::mapping

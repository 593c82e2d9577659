#include "mapping/planner.h"

#include <exception>
#include <optional>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "exec/executor.h"
#include "obs/obs.h"

namespace fcm::mapping {

const char* to_string(Heuristic heuristic) noexcept {
  switch (heuristic) {
    case Heuristic::kH1Greedy:
      return "H1-greedy";
    case Heuristic::kH1Rounds:
      return "H1-rounds";
    case Heuristic::kH2MinCut:
      return "H2-mincut";
    case Heuristic::kH2StCut:
      return "H2-st-cut";
    case Heuristic::kH3Importance:
      return "H3-importance";
    case Heuristic::kCriticalityPairing:
      return "criticality-pairing";
    case Heuristic::kTimingOrdered:
      return "timing-ordered";
    case Heuristic::kH1Hierarchical:
      return "H1-hierarchical";
  }
  return "?";
}

const char* to_string(Approach approach) noexcept {
  switch (approach) {
    case Approach::kAImportance:
      return "A-importance";
    case Approach::kBLexicographic:
      return "B-lexicographic";
  }
  return "?";
}

std::string Plan::report(const SwGraph& sw, const HwGraph& hw) const {
  std::ostringstream out;
  out << "plan: " << to_string(heuristic) << " + " << to_string(approach)
      << '\n';
  const auto names = clustering.cluster_names(sw);
  for (std::uint32_t c = 0; c < names.size(); ++c) {
    out << "  " << hw.node(assignment.hw_of[c]).name << " <- {";
    for (std::size_t i = 0; i < names[c].size(); ++i) {
      if (i > 0) out << ',';
      out << names[c][i];
    }
    out << "}\n";
  }
  out << quality.report();
  return out.str();
}

IntegrationPlanner::IntegrationPlanner(const core::FcmHierarchy& hierarchy,
                                       const core::InfluenceModel& influence,
                                       std::vector<FcmId> processes,
                                       const HwGraph& hw, PlanOptions options)
    : hw_(&hw),
      options_(options),
      sw_(SwGraph::build(hierarchy, influence, processes)) {}

Plan IntegrationPlanner::plan(Heuristic heuristic, Approach approach) {
  return plan_with(heuristic, approach, &separation_cache_);
}

Plan IntegrationPlanner::plan_with(Heuristic heuristic, Approach approach,
                                   core::SeparationCache* cache) const {
  ClusteringOptions copts;
  copts.target_clusters = hw_->node_count();
  copts.policy = options_.policy;
  copts.resource_check = [hw = hw_](const std::set<std::string>& required) {
    for (const HwNode& node : hw->nodes()) {
      if (std::includes(node.resources.begin(), node.resources.end(),
                        required.begin(), required.end())) {
        return true;
      }
    }
    return false;
  };
  ClusterEngine engine(sw_, copts);

  Plan result;
  result.heuristic = heuristic;
  result.approach = approach;
  switch (heuristic) {
    case Heuristic::kH1Greedy:
      result.clustering = engine.h1_greedy();
      break;
    case Heuristic::kH1Rounds:
      result.clustering = engine.h1_rounds();
      break;
    case Heuristic::kH2MinCut:
      result.clustering = engine.h2_mincut();
      break;
    case Heuristic::kH2StCut:
      result.clustering = engine.h2_st_cut();
      break;
    case Heuristic::kH3Importance:
      result.clustering = engine.h3_importance();
      break;
    case Heuristic::kCriticalityPairing:
      result.clustering = engine.criticality_pairing();
      break;
    case Heuristic::kTimingOrdered:
      result.clustering = engine.timing_ordered();
      break;
    case Heuristic::kH1Hierarchical:
      result.clustering = engine.h1_hierarchical();
      break;
  }
  result.assignment =
      approach == Approach::kAImportance
          ? assign_by_importance(sw_, result.clustering, *hw_)
          : assign_lexicographic(sw_, result.clustering, *hw_);
  QualityOptions qopts = options_.quality;
  if (qopts.separation_cache == nullptr) {
    qopts.separation_cache = cache;
  }
  result.quality = evaluate(sw_, result.clustering, result.assignment, *hw_,
                            qopts);
  return result;
}

Plan IntegrationPlanner::best_plan(Approach approach) {
  static constexpr Heuristic kAll[] = {
      Heuristic::kH1Greedy,           Heuristic::kH1Rounds,
      Heuristic::kH2MinCut,           Heuristic::kH2StCut,
      Heuristic::kH3Importance,       Heuristic::kCriticalityPairing,
      Heuristic::kTimingOrdered,
  };
  constexpr std::size_t kCount = std::size(kAll);

  // Each candidate slot is written by exactly one worker; selection reads
  // them sequentially after the join, so the sweep is deterministic.
  struct Candidate {
    std::optional<Plan> plan;
    std::string failure;  // FcmError message, logged in heuristic order
    std::exception_ptr fatal;
  };
  Candidate candidates[kCount];

  const std::uint32_t threads =
      exec::resolve_threads(options_.sweep_threads, kCount);
  FCM_OBS_SPAN("planner.best_plan");
  FCM_OBS_COUNT("planner.sweeps", 1);
  FCM_OBS_GAUGE("planner.sweep_threads", static_cast<double>(threads));

  auto run_candidate = [&](std::size_t index, core::SeparationCache* cache) {
    Candidate& slot = candidates[index];
    // One span per heuristic candidate, keyed by its sweep index so the
    // merged trace reads the same whichever worker ran it.
    FCM_OBS_SPAN("planner.candidate", index);
    FCM_OBS_COUNT("planner.candidates", 1);
    try {
      slot.plan = plan_with(kAll[index], approach, cache);
    } catch (const FcmError& error) {
      slot.failure = error.what();
      FCM_OBS_COUNT("planner.candidate_failures", 1);
    } catch (...) {
      slot.fatal = std::current_exception();
    }
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < kCount; ++i) {
      run_candidate(i, &separation_cache_);
    }
  } else {
    // One separation cache per executor lane: candidates running on the
    // same lane share it. Which candidate lands on which lane depends on
    // the steal schedule, so the hit/miss totals merged below vary run to
    // run even at a fixed thread count — they are diagnostic-only and
    // must stay out of determinism comparisons (the plan itself is
    // schedule-invariant).
    std::vector<core::SeparationCache> lane_caches(threads);
    exec::parallel_for_blocks(
        kCount, threads, [&](std::uint64_t i, std::uint32_t lane) {
          run_candidate(static_cast<std::size_t>(i), &lane_caches[lane]);
        });
    for (const core::SeparationCache& cache : lane_caches) {
      const core::CacheStats stats = cache.stats();
      sweep_stats_.hits += stats.hits;
      sweep_stats_.misses += stats.misses;
      sweep_stats_.invalidations += stats.invalidations;
      sweep_stats_.evictions += stats.evictions;
    }
  }

  bool found = false;
  Plan best;
  for (std::size_t i = 0; i < kCount; ++i) {
    Candidate& candidate = candidates[i];
    if (candidate.fatal) std::rethrow_exception(candidate.fatal);
    if (!candidate.failure.empty()) {
      FCM_INFO() << to_string(kAll[i]) << " failed: " << candidate.failure;
      continue;
    }
    if (!candidate.plan || !candidate.plan->quality.constraints_satisfied()) {
      continue;
    }
    if (!found || candidate.plan->quality.score() > best.quality.score()) {
      best = std::move(*candidate.plan);
      found = true;
    }
  }
  if (!found) {
    throw Infeasible("no clustering heuristic produced a feasible plan");
  }
  return best;
}

}  // namespace fcm::mapping

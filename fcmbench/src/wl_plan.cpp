// The two planning workloads.
//
// plan_scale: 256 synthetic processes on a complete 85-node platform
// (eight seeded systems in rotation), planned with hierarchical H1 and
// approach A. SW-graph build and assignment dominate here; min-cut, Monte
// Carlo and the daemon do no work. (At 1024 and 512 processes the build's
// pair memo made every repetition memory-bound, and its time followed the
// load the machine's other tenants put on memory: see the README.)
//
// plan_sweep: 128 synthetic processes on 20 nodes through best_plan, the
// seven-heuristic sweep, where the two H2 cuts dominate and SW-graph build
// is negligible: the mapping layer used the other way round.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <string>

#include "checks.h"
#include "common/error.h"
#include "core/synthetic.h"
#include "harness.h"
#include "mapping/planner.h"
#include "obs/obs.h"

namespace fcmbench {

namespace {

using fcm::mapping::Approach;
using fcm::mapping::Heuristic;

struct Inputs {
  fcm::core::synthetic::System system;
  fcm::mapping::HwGraph hw;
};

Inputs make_inputs(std::size_t processes, int hw_nodes, std::uint64_t seed) {
  return {fcm::core::synthetic::make_system(processes, seed),
          fcm::mapping::HwGraph::complete(hw_nodes)};
}

fcm::mapping::IntegrationPlanner make_planner(const Inputs& in,
                                              std::uint32_t sweep_threads) {
  fcm::mapping::PlanOptions options;
  options.sweep_threads = sweep_threads;
  return fcm::mapping::IntegrationPlanner(in.system.hierarchy,
                                          in.system.influence,
                                          in.system.processes, in.hw, options);
}

bool same_plan(const fcm::mapping::Plan& a, const fcm::mapping::Plan& b) {
  return a.heuristic == b.heuristic &&
         a.clustering.partition.cluster_of ==
             b.clustering.partition.cluster_of &&
         a.assignment.hw_of == b.assignment.hw_of &&
         a.quality.cross_node_influence == b.quality.cross_node_influence &&
         a.quality.score() == b.quality.score();
}

// The plan checks on `plan`, then the same checkers on broken copies.
void check_plan_and_negatives(const fcm::mapping::SwGraph& sw,
                              const fcm::mapping::Plan& plan,
                              const fcm::mapping::HwGraph& hw,
                              Checks& checks) {
  const std::string why = check_plan(sw, plan, hw);
  checks.expect(why.empty(), "plan: " + why);

  // Two replicas of one process moved onto one HW node.
  for (fcm::graph::NodeIndex v = 1; v < sw.node_count(); ++v) {
    if (sw.node(v).origin != sw.node(v - 1).origin) continue;
    fcm::graph::Partition broken = plan.clustering.partition;
    broken.cluster_of[v] = broken.cluster_of[v - 1];
    checks.expect_rejects(
        !check_replicas_apart(sw, broken, plan.assignment).empty(),
        "replicas collocated");
    break;
  }
  // Cross-node influence off by 1e-6 relative.
  checks.expect_rejects(
      !check_cross_influence(sw, plan.clustering.partition,
                             plan.quality.cross_node_influence * (1 + 1e-6))
           .empty(),
      "cross-node influence off by 1e-6");
  // A cluster left without a host.
  fcm::mapping::Assignment short_assignment = plan.assignment;
  short_assignment.hw_of.pop_back();
  checks.expect_rejects(
      !check_partition(sw, plan.clustering.partition, short_assignment, hw)
           .empty(),
      "cluster without host");
}

// The planner path, decomposed into its public stages, each in its own
// span: what IntegrationPlanner(...) + plan(H1-hierarchical, A) runs.
struct DecomposedPlan {
  fcm::mapping::Plan plan;
  std::uint64_t build_allocs = 0;
  std::uint64_t assign_allocs = 0;
};

DecomposedPlan plan_decomposed(const Inputs& in, std::uint64_t rep) {
  DecomposedPlan out;
  const fcm::obs::ScopedSpan root("rep", rep);
  std::optional<fcm::mapping::SwGraph> sw;
  {
    const fcm::obs::ScopedSpan span("mapping.swgraph_build", rep);
    const std::uint64_t a0 = alloc_count();
    set_alloc_counting(true);
    sw.emplace(fcm::mapping::SwGraph::build(
        in.system.hierarchy, in.system.influence, in.system.processes));
    set_alloc_counting(false);
    out.build_allocs = alloc_count() - a0;
  }
  // The options IntegrationPlanner::plan passes to the engine.
  fcm::mapping::ClusteringOptions copts;
  copts.target_clusters = in.hw.node_count();
  copts.threads = 0;
  copts.resource_check = [&hw = in.hw](const std::set<std::string>& need) {
    for (const fcm::mapping::HwNode& node : hw.nodes()) {
      if (std::includes(node.resources.begin(), node.resources.end(),
                        need.begin(), need.end())) {
        return true;
      }
    }
    return false;
  };
  fcm::mapping::ClusterEngine engine(*sw, copts);
  fcm::mapping::Plan& plan = out.plan;
  plan.heuristic = Heuristic::kH1Hierarchical;
  plan.approach = Approach::kAImportance;
  {
    const fcm::obs::ScopedSpan span("mapping.cluster", rep);
    plan.clustering = engine.h1_hierarchical();
  }
  {
    const fcm::obs::ScopedSpan span("mapping.assign", rep);
    const std::uint64_t a0 = alloc_count();
    set_alloc_counting(true);
    plan.assignment =
        fcm::mapping::assign_by_importance(*sw, plan.clustering, in.hw);
    set_alloc_counting(false);
    out.assign_allocs = alloc_count() - a0;
  }
  {
    const fcm::obs::ScopedSpan span("mapping.quality", rep);
    fcm::core::SeparationCache cache;
    fcm::mapping::QualityOptions qopts;
    qopts.separation_cache = &cache;
    plan.quality = fcm::mapping::evaluate(*sw, plan.clustering,
                                          plan.assignment, in.hw, qopts);
  }
  return out;
}

constexpr std::size_t kScaleProcesses = 256;
constexpr int kScaleHw = 85;
constexpr std::size_t kScaleSystems = 8;
constexpr std::size_t kSweepProcesses = 128;
constexpr int kSweepHw = 20;
constexpr std::size_t kSweepSystems = 8;
// Set-up is timed at least kSetups times and for at least kSetupBudgetS
// seconds; setup_s is the median.
constexpr int kSetups = 9;
constexpr double kSetupBudgetS = 1.0;

}  // namespace

WorkloadResult run_plan_scale(const Args& args) {
  WorkloadResult result;
  Checks& checks = result.checks;
  // Repetition r plans system r mod kScaleSystems, so the median spans
  // several seeded systems rather than one system's particular cost.
  const std::vector<std::uint64_t> seeds =
      typical_system_seeds(kScaleProcesses, args.seed, kScaleSystems);
  std::vector<Inputs> ins;
  const double setup_s = median_setup_s(kSetups, kSetupBudgetS, [&] {
    ins.clear();
    for (std::size_t k = 0; k < kScaleSystems; ++k) {
      ins.push_back(make_inputs(kScaleProcesses, kScaleHw, seeds[k]));
    }
  });

  // Every repetition plans a freshly generated copy of its inputs: the
  // influence model memoizes pair values as the SW graph is built, and a
  // user's plan starts with that memo empty.
  std::optional<Inputs> fresh;
  const Prepare prepare = [&](int rep) {
    fresh.emplace(make_inputs(
        kScaleProcesses, kScaleHw,
        seeds[static_cast<std::size_t>(rep) % kScaleSystems]));
  };
  // Each system's first plan is kept for the checks (its planner is not:
  // holding it would double the peak resident set being measured).
  std::vector<std::optional<fcm::mapping::Plan>> first(kScaleSystems);
  bool identical = true;
  const auto planner_rep = [&](int rep) {
    auto planner = make_planner(*fresh, 1);
    fcm::mapping::Plan plan =
        planner.plan(Heuristic::kH1Hierarchical, Approach::kAImportance);
    auto& kept = first[static_cast<std::size_t>(rep) % kScaleSystems];
    if (!kept) {
      kept = std::move(plan);
    } else {
      identical = identical && same_plan(*kept, plan);
    }
  };

  if (!args.trace) {
    const std::vector<double> walls =
        repeat_for(args.seconds, static_cast<int>(kScaleSystems),
                   planner_rep, prepare);
    const double rss = peak_rss_mb();
    result.attempted = walls.size();
    result.metrics = {{"setup_s", setup_s, "s"},
                      {"rep_s", median_per_system(walls, kScaleSystems), "s"},
                      {"peak_rss_mb", rss, "MB"}};
  } else {
    std::optional<DecomposedPlan> decomposed;
    std::vector<std::uint64_t> build_allocs, assign_allocs;
    trace_begin();
    const Alternation alt = alternate(
        args.seconds, 2, planner_rep, [&](int rep) {
          DecomposedPlan d =
              plan_decomposed(*fresh, static_cast<std::uint64_t>(rep));
          build_allocs.push_back(d.build_allocs);
          assign_allocs.push_back(d.assign_allocs);
          if (!decomposed) decomposed = std::move(d);
        },
        prepare);
    const fcm::obs::MetricsSnapshot snap =
        fcm::obs::MetricsRegistry::global().snapshot();
    const auto spans = trace_end();
    write_trace(args, spans);
    const double traced_reps = static_cast<double>(alt.traced.size());
    const auto per_rep = [&](const char* name) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0.0
                                       : static_cast<double>(it->second) /
                                             traced_reps;
    };
    const auto median_u = [](const std::vector<std::uint64_t>& v) {
      std::vector<double> d(v.begin(), v.end());
      return median(d);
    };
    const auto reps = attribute_reps(
        spans, "rep",
        {"mapping.swgraph_build", "mapping.cluster", "mapping.assign",
         "mapping.quality", "series.power_sum"});
    checks.expect(print_breakdown("plan_scale", reps),
                  "layer self times sum to each traced repetition");
    checks.expect(reps.size() == alt.traced.size(),
                  "one attributed row per traced repetition");
    checks.expect(same_plan(*first[0], decomposed->plan),
                  "stage-by-stage plan equals IntegrationPlanner's plan");
    // The planner path's time outside its four stages: each untraced
    // IntegrationPlanner repetition minus the stage self times of the
    // stage-by-stage repetition paired with it (same inputs). Work added to
    // or removed from the planner around the stages moves this row.
    std::vector<double> gaps;
    for (const RepBreakdown& rep : reps) {
      double stages = 0.0;
      for (const auto& [name, self] : rep.self_s) stages += self;
      gaps.push_back(alt.untraced.at(rep.id) - stages);
    }
    const double plan_gap = median(gaps);
    const double plan_s = median_per_system(alt.untraced, kScaleSystems);
    std::printf("planner path: plan_s %.6f s, unattributed %.6f s (median "
                "over repetitions of the planner minus its stages)\n",
                plan_s, plan_gap);
    result.attempted = alt.untraced.size() + alt.traced.size();
    const double overhead = median(alt.traced) - median(alt.untraced);
    std::printf("obs overhead: traced %.6f s - untraced %.6f s = %.6f s\n",
                median(alt.traced), median(alt.untraced), overhead);
    result.metrics = {
        {"plan_s", plan_s, "s"},
        {"mapping.swgraph_build_s", median_self(reps, "mapping.swgraph_build"),
         "s"},
        {"mapping.cluster_s", median_self(reps, "mapping.cluster"), "s"},
        {"mapping.assign_s", median_self(reps, "mapping.assign"), "s"},
        {"mapping.quality_s", median_self(reps, "mapping.quality"), "s"},
        {"graph.series_s", median_self(reps, "series.power_sum"), "s"},
        {"mapping.plan_unattributed_s", plan_gap, "s"},
        {"mapping.swgraph_build_allocs", median_u(build_allocs), "count"},
        {"mapping.assign_allocs", median_u(assign_allocs), "count"},
        {"h1.merges", per_rep("h1.merges"), "count"},
        {"h1.heap.pops", per_rep("h1.heap.pops"), "count"},
        {"quotient_cache.delta_updates",
         per_rep("quotient_cache.delta_updates"), "count"},
        {"series.orders", per_rep("series.orders"), "count"},
        {"obs.trace_overhead_s", overhead, "s"},
    };
  }

  checks.expect(identical, "plans identical across repetitions");
  for (std::size_t k = 0; k < kScaleSystems; ++k) {
    if (!first[k]) continue;
    const Inputs& in = ins[k];
    const auto sw = fcm::mapping::SwGraph::build(
        in.system.hierarchy, in.system.influence, in.system.processes);
    if (k == 0) {
      check_plan_and_negatives(sw, *first[k], in.hw, checks);
    } else {
      const std::string why = check_plan(sw, *first[k], in.hw);
      checks.expect(why.empty(), "system " + std::to_string(k) + ": " + why);
    }
  }
  return result;
}

WorkloadResult run_plan_sweep(const Args& args) {
  WorkloadResult result;
  Checks& checks = result.checks;
  const std::uint32_t threads = fcm_threads();
  // Repetition r plans system r mod kSweepSystems, so the median spans
  // several seeded systems rather than one system's particular cost.
  const std::vector<std::uint64_t> seeds =
      typical_system_seeds(kSweepProcesses, args.seed, kSweepSystems);
  std::vector<Inputs> ins;
  const double setup_s = median_setup_s(kSetups, kSetupBudgetS, [&] {
    ins.clear();
    for (std::uint64_t k = 0; k < kSweepSystems; ++k) {
      ins.push_back(make_inputs(kSweepProcesses, kSweepHw, seeds[k]));
    }
  });
  const auto system_of = [&](int rep) -> const Inputs& {
    return ins[static_cast<std::size_t>(rep) % kSweepSystems];
  };
  // A fresh copy before each repetition, as on plan_scale.
  const Prepare prepare = [&](int rep) {
    const std::size_t k = static_cast<std::size_t>(rep) % kSweepSystems;
    ins[k] = make_inputs(kSweepProcesses, kSweepHw, seeds[k]);
  };

  std::vector<std::optional<fcm::mapping::Plan>> first(kSweepSystems);
  bool identical = true;
  const auto sweep_rep = [&](int rep) {
    auto planner = make_planner(system_of(rep), threads);
    fcm::mapping::Plan plan = planner.best_plan(Approach::kAImportance);
    auto& kept = first[static_cast<std::size_t>(rep) % kSweepSystems];
    if (!kept) {
      kept = std::move(plan);
    } else {
      identical = identical && same_plan(*kept, plan);
    }
  };

  static constexpr Heuristic kSweep[] = {
      Heuristic::kH1Greedy,     Heuristic::kH1Rounds,
      Heuristic::kH2MinCut,     Heuristic::kH2StCut,
      Heuristic::kH3Importance, Heuristic::kCriticalityPairing,
      Heuristic::kTimingOrdered,
  };
  static constexpr const char* kNames[] = {"h1", "h1r", "h2", "h2st",
                                           "h3", "crit", "timing"};
  // Each candidate on its own, in sweep order; failures are infeasible.
  std::vector<std::vector<double>> candidate_walls(std::size(kSweep));
  const auto run_candidates = [&](std::uint64_t rep) {
    auto planner = make_planner(system_of(static_cast<int>(rep)), 1);
    std::vector<Candidate> candidates;
    double slowest = 0.0;
    for (std::size_t i = 0; i < std::size(kSweep); ++i) {
      Candidate c{kSweep[i], false, 0.0};
      const double t0 = now_s();
      try {
        const fcm::obs::ScopedSpan span("mapping.candidate", rep);
        const fcm::mapping::Plan plan =
            planner.plan(kSweep[i], Approach::kAImportance);
        c.feasible = plan.quality.constraints_satisfied();
        c.score = plan.quality.score();
      } catch (const fcm::FcmError&) {
        c.feasible = false;
      }
      const double wall = now_s() - t0;
      candidate_walls[i].push_back(wall);
      slowest = std::max(slowest, wall);
      candidates.push_back(c);
    }
    return std::make_pair(candidates, slowest);
  };

  if (!args.trace) {
    const std::vector<double> walls =
        repeat_for(args.seconds, static_cast<int>(kSweepSystems), sweep_rep,
                   prepare);
    const double rss = peak_rss_mb();
    result.attempted = walls.size();
    result.metrics = {{"setup_s", setup_s, "s"},
                      {"rep_s", median_per_system(walls, kSweepSystems), "s"},
                      {"peak_rss_mb", rss, "MB"}};
  } else {
    std::vector<double> overheads;
    std::uint64_t hits = 0, misses = 0, failures = 0;
    trace_begin();
    const Alternation alt =
        alternate(args.seconds, 2, sweep_rep, [&](int rep) {
          const auto id = static_cast<std::uint64_t>(rep);
          const std::uint64_t h0 = counter("separation_cache.hits");
          const std::uint64_t m0 = counter("separation_cache.misses");
          const std::uint64_t f0 = counter("planner.candidate_failures");
          double best_plan_s = 0.0;
          {
            const fcm::obs::ScopedSpan root("rep", id);
            std::optional<fcm::mapping::IntegrationPlanner> planner;
            {
              const fcm::obs::ScopedSpan span("mapping.swgraph_build", id);
              planner.emplace(make_planner(system_of(rep), threads));
            }
            const fcm::obs::ScopedSpan span("mapping.best_plan", id);
            const double t0 = now_s();
            (void)planner->best_plan(Approach::kAImportance);
            best_plan_s = now_s() - t0;
          }
          hits += counter("separation_cache.hits") - h0;
          misses += counter("separation_cache.misses") - m0;
          failures += counter("planner.candidate_failures") - f0;
          overheads.push_back(best_plan_s - run_candidates(id).second);
        },
        prepare);
    const auto spans = trace_end();
    write_trace(args, spans);
    const auto reps =
        attribute_reps(spans, "rep",
                       {"mapping.swgraph_build", "mapping.best_plan"});
    checks.expect(print_breakdown("plan_sweep", reps),
                  "layer self times sum to each traced repetition");
    checks.expect(reps.size() == alt.traced.size(),
                  "one attributed row per traced repetition");
    result.attempted = alt.untraced.size() + alt.traced.size();
    const double traced_reps = static_cast<double>(alt.traced.size());
    const double overhead = median(alt.traced) - median(alt.untraced);
    std::printf("obs overhead: traced %.6f s - untraced %.6f s = %.6f s "
                "(traced reps include the one-by-one candidates)\n",
                median(alt.traced), median(alt.untraced), overhead);
    result.metrics = {
        {"plan_s", median_per_system(alt.untraced, kSweepSystems), "s"},
        {"mapping.swgraph_build_s", median_self(reps, "mapping.swgraph_build"),
         "s"},
        {"planner.sweep_overhead_s", median(overheads), "s"},
        {"mapping.sweep_unattributed_s", median_unattributed(reps), "s"},
        {"separation_cache.hits", static_cast<double>(hits) / traced_reps,
         "count"},
        {"separation_cache.misses", static_cast<double>(misses) / traced_reps,
         "count"},
        {"planner.candidate_failures",
         static_cast<double>(failures) / traced_reps, "count"},
    };
    for (std::size_t i = 0; i < std::size(kSweep); ++i) {
      result.metrics.push_back({std::string("mapping.candidate.") + kNames[i] +
                                    "_s",
                                median(candidate_walls[i]), "s"});
    }
    // Untraced minus traced best_plan rep, with the candidate pass excluded.
    std::vector<double> traced_sweeps;
    for (const RepBreakdown& rep : reps) traced_sweeps.push_back(rep.wall_s);
    result.metrics.push_back({"obs.trace_overhead_s",
                              median(traced_sweeps) - median(alt.untraced),
                              "s"});
  }

  checks.expect(identical, "best_plan identical across repetitions");
  for (std::size_t k = 0; k < kSweepSystems; ++k) {
    if (!first[k]) continue;
    const auto sw = fcm::mapping::SwGraph::build(
        ins[k].system.hierarchy, ins[k].system.influence,
        ins[k].system.processes);
    const std::string why = check_plan(sw, *first[k], ins[k].hw);
    checks.expect(why.empty(), "system " + std::to_string(k) + ": " + why);
  }
  // System 0's chosen plan against the seven candidates run one by one,
  // and against a sequential sweep.
  const Inputs* in = &ins[0];
  auto planner = make_planner(*in, threads);
  const fcm::mapping::Plan chosen = planner.best_plan(Approach::kAImportance);
  check_plan_and_negatives(planner.sw_graph(), chosen, in->hw, checks);
  const auto [candidates, slowest] = run_candidates(0);
  (void)slowest;
  const std::string why =
      check_sweep_choice(candidates, chosen.heuristic, chosen.quality.score());
  checks.expect(why.empty(), "sweep choice: " + why);
  checks.expect_rejects(
      !check_sweep_choice(candidates, chosen.heuristic,
                          chosen.quality.score() - 1e-3)
           .empty(),
      "chosen score below the best candidate");
  auto sequential = make_planner(*in, 1);
  const std::string seq_report =
      sequential.best_plan(Approach::kAImportance)
          .report(sequential.sw_graph(), in->hw);
  const std::string par_report = chosen.report(planner.sw_graph(), in->hw);
  const std::string same = check_same_bytes(seq_report, par_report);
  checks.expect(same.empty(), "best_plan at 1 sweep thread vs " +
                                  std::to_string(threads) + ": " + same);
  std::string flipped = par_report;
  flipped[flipped.size() / 2] ^= 1;
  checks.expect_rejects(!check_same_bytes(seq_report, flipped).empty(),
                        "plan report with one flipped byte");
  return result;
}

}  // namespace fcmbench

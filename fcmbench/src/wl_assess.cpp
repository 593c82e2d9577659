// The assessment workload: 64 synthetic processes on 12 nodes, their best
// plan built in setup, then one repetition runs the four assessments a
// user runs on a plan: Monte Carlo dependability (q = 0.05, 200k trials),
// the standard-grid fault campaign, the adversarial worst-case search and
// the rare-event estimate (q = 0.01). The dependability, resilience, sim
// and ftmech layers do nearly all the work; mapping does none.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "checks.h"
#include "core/synthetic.h"
#include "dependability/montecarlo.h"
#include "harness.h"
#include "mapping/planner.h"
#include "obs/obs.h"
#include "resilience/adversary.h"
#include "resilience/bounds.h"
#include "resilience/campaign.h"
#include "resilience/rare_event.h"
#include "resilience/scenario.h"

namespace fcmbench {

namespace {

constexpr std::size_t kProcesses = 64;
constexpr int kHwNodes = 12;
constexpr double kQ = 0.05;
constexpr std::uint32_t kTrials = 200'000;
constexpr double kRareQ = 0.01;
constexpr int kCritical = 7;
constexpr std::size_t kSubjects = 4;

struct Subject {
  fcm::core::synthetic::System system;
  fcm::mapping::HwGraph hw;
  std::optional<fcm::mapping::IntegrationPlanner> planner;
  fcm::mapping::Plan plan;
  std::vector<fcm::resilience::Scenario> grid;

  const fcm::mapping::SwGraph& sw() const { return planner->sw_graph(); }
};

void make_subject(Subject& s, std::uint64_t seed, std::uint32_t threads) {
  s.system = fcm::core::synthetic::make_system(kProcesses, seed);
  s.hw = fcm::mapping::HwGraph::complete(kHwNodes);
  fcm::mapping::PlanOptions options;
  options.sweep_threads = threads;
  s.planner.emplace(s.system.hierarchy, s.system.influence,
                    s.system.processes, s.hw, options);
  s.plan = s.planner->best_plan(fcm::mapping::Approach::kAImportance);
  s.grid = fcm::resilience::standard_grid(
      s.sw(), s.plan.clustering.partition, s.plan.assignment, s.hw);
}

// What one repetition produces, with each call's wall time.
struct Assessment {
  fcm::dependability::DependabilityReport depend;
  fcm::resilience::ResilienceReport campaign;
  fcm::resilience::AdversaryResult adversary;
  fcm::resilience::RareEventEstimate rare;
  double depend_s = 0, campaign_s = 0, adversary_s = 0, rare_s = 0;
};

struct Settings {
  std::uint64_t seed = 0;
  std::uint32_t threads = 1;

  fcm::dependability::MissionModel mission(bool propagate,
                                           std::uint32_t t) const {
    fcm::dependability::MissionModel m;
    m.hw_failure = fcm::Probability(kQ);
    m.propagate = propagate;
    m.trials = kTrials;
    m.threads = t;
    return m;
  }
  fcm::resilience::CampaignOptions campaign(std::uint32_t t) const {
    fcm::resilience::CampaignOptions c;
    c.threads = t;
    c.critical_threshold = kCritical;
    return c;
  }
  fcm::resilience::AdversaryOptions adversary() const {
    fcm::resilience::AdversaryOptions a;
    a.campaign = campaign(threads);
    return a;
  }
  fcm::resilience::RareEventOptions rare() const {
    fcm::resilience::RareEventOptions r;
    r.hw_failure = fcm::Probability(kRareQ);
    r.threads = threads;
    r.critical_threshold = kCritical;
    return r;
  }
};

// One repetition; `traced` wraps each call in its layer span under a root
// span shared by the repetition's id.
Assessment assess(const Subject& s, const Settings& cfg, bool traced,
                  std::uint64_t rep) {
  Assessment a;
  const auto& sw = s.sw();
  const auto& plan = s.plan;
  std::optional<fcm::obs::ScopedSpan> root;
  if (traced) root.emplace("rep", rep);
  const auto timed = [&](const char* layer, double& wall, auto&& call) {
    std::optional<fcm::obs::ScopedSpan> span;
    if (traced) span.emplace(layer, rep);
    const double t0 = now_s();
    call();
    wall = now_s() - t0;
  };
  timed("dependability.evaluate_mapping", a.depend_s, [&] {
    a.depend = fcm::dependability::evaluate_mapping(
        sw, plan.clustering, plan.assignment, s.hw,
        cfg.mission(true, cfg.threads), cfg.seed, kCritical);
  });
  timed("resilience.run_campaign", a.campaign_s, [&] {
    a.campaign = fcm::resilience::run_campaign(
        sw, plan.clustering.partition, plan.assignment, s.hw, s.grid,
        cfg.seed, cfg.campaign(cfg.threads));
  });
  timed("resilience.find_worst_case", a.adversary_s, [&] {
    a.adversary = fcm::resilience::find_worst_case(
        sw, plan.clustering.partition, plan.assignment, s.hw, cfg.seed,
        cfg.adversary());
  });
  timed("resilience.estimate_rare_event", a.rare_s, [&] {
    a.rare = fcm::resilience::estimate_rare_event(
        sw, plan.clustering, plan.assignment, s.hw, cfg.rare(), cfg.seed);
  });
  return a;
}

bool same_results(const Assessment& a, const Assessment& b) {
  return a.depend.process_survival == b.depend.process_survival &&
         a.depend.system_survival == b.depend.system_survival &&
         fcm::resilience::to_json(a.campaign) ==
             fcm::resilience::to_json(b.campaign) &&
         fcm::resilience::to_json(a.adversary) ==
             fcm::resilience::to_json(b.adversary) &&
         fcm::resilience::to_json(a.rare) == fcm::resilience::to_json(b.rare);
}

// The adversary's worst case reproduces alone and is no better than the
// grid.
std::string check_worst_case(double reproduced, double reported,
                             double grid_min) {
  if (reproduced != reported) {
    return "worst scenario re-run gives critical survival " +
           std::to_string(reproduced) + ", search reported " +
           std::to_string(reported);
  }
  if (reported > grid_min) {
    return "worst case " + std::to_string(reported) + " above grid minimum " +
           std::to_string(grid_min);
  }
  return {};
}

// The rare-event 99% interval on survival overlaps the mission bounds.
std::string check_rare_overlap(double ci_low_failure, double ci_high_failure,
                               const fcm::resilience::SurvivalBounds& b) {
  const double lo = 1.0 - ci_high_failure;
  const double hi = 1.0 - ci_low_failure;
  if (hi < b.lower || lo > b.upper) {
    return "rare-event interval [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "] misses bounds [" + std::to_string(b.lower) +
           ", " + std::to_string(b.upper) + "]";
  }
  return {};
}

void check_assessment(const Subject& s, const Settings& cfg,
                      const Assessment& a, Checks& checks,
                      double* bounds_s) {
  const auto& sw = s.sw();
  const auto& plan = s.plan;
  const std::string plan_why = check_plan(sw, plan, s.hw);
  checks.expect(plan_why.empty(), "assessed plan: " + plan_why);

  // Closed form against the no-propagation run; the propagating run may
  // only fall below it. Family-wise 99.99% over the processes.
  const std::vector<double> closed = closed_form_survival(sw, kQ);
  const double z = family_z(0.9999, closed.size());
  const auto no_prop = fcm::dependability::evaluate_mapping(
      sw, plan.clustering, plan.assignment, s.hw,
      cfg.mission(false, cfg.threads), cfg.seed + 1, kCritical);
  std::string why = check_against_closed_form(no_prop.process_survival,
                                              closed, kTrials, z, true);
  checks.expect(why.empty(), "no-propagation survival: " + why);
  why = check_against_closed_form(a.depend.process_survival, closed, kTrials,
                                  z, false);
  checks.expect(why.empty(), "propagating survival: " + why);
  std::vector<double> broken = no_prop.process_survival;
  broken[0] = closed[0] + halfwidth(closed[0], kTrials, z) + 1e-4;
  checks.expect_rejects(
      !check_against_closed_form(broken, closed, kTrials, z, true).empty(),
      "survival above the closed form");

  for (const auto* report : {&a.depend, &no_prop}) {
    why = check_survival_order(*report, sw, kCritical);
    checks.expect(why.empty(), "survival order: " + why);
  }
  fcm::dependability::DependabilityReport disordered = a.depend;
  disordered.system_survival = disordered.critical_survival + 1e-3;
  checks.expect_rejects(
      !check_survival_order(disordered, sw, kCritical).empty(),
      "system survival above critical survival");

  const std::uint32_t trials = cfg.campaign(1).trials;
  why = check_outcome_counts(a.campaign, trials);
  checks.expect(why.empty(), "campaign outcomes: " + why);
  checks.expect(a.campaign.scenarios.size() == s.grid.size(),
                "campaign covers the grid");
  fcm::resilience::ResilienceReport miscounted = a.campaign;
  miscounted.scenarios[0].system_survival += 0.5 / trials;
  checks.expect_rejects(!check_outcome_counts(miscounted, trials).empty(),
                        "outcome that is not whole trials");

  // Campaign figures against their compositional brackets.
  const double t0 = now_s();
  std::vector<fcm::resilience::CompositionalBounds> bounds;
  for (const auto& scenario : s.grid) {
    fcm::resilience::ScenarioBoundOptions options;
    options.critical_threshold = kCritical;
    bounds.push_back(fcm::resilience::scenario_bounds(
        sw, plan.clustering.partition, plan.assignment, s.hw, scenario,
        options));
  }
  fcm::resilience::MissionBoundOptions mission_options;
  mission_options.hw_failure = fcm::Probability(kRareQ);
  mission_options.critical_threshold = kCritical;
  const auto mission = fcm::resilience::mission_bounds(
      sw, plan.clustering.partition, plan.assignment, mission_options);
  *bounds_s = now_s() - t0;
  constexpr double kAlpha = 1e-7;
  why = check_campaign_bounds(a.campaign, bounds, kAlpha);
  checks.expect(why.empty(), "campaign bounds: " + why);
  // Broken input: one figure moved to the far end of its range where the
  // bracket makes that count impossible at kAlpha.
  bool planted = false;
  fcm::resilience::ResilienceReport outside = a.campaign;
  for (std::size_t i = 0; i < bounds.size() && !planted; ++i) {
    const auto& b = bounds[i].critical;
    if (binomial_lower_tail(trials, 0, b.lower) < kAlpha) {
      outside.scenarios[i].critical_survival = 0.0;
      planted = true;
    } else if (binomial_upper_tail(trials, trials, b.upper) < kAlpha) {
      outside.scenarios[i].critical_survival = 1.0;
      planted = true;
    }
  }
  checks.expect(planted, "a bracket tight enough to plant a broken figure");
  if (planted) {
    checks.expect_rejects(
        !check_campaign_bounds(outside, bounds, kAlpha).empty(),
        "campaign figure outside its bracket");
  }

  // The worst case, re-run on its own with the search's options and seed.
  const auto alone = fcm::resilience::run_campaign(
      sw, plan.clustering.partition, plan.assignment, s.hw,
      {a.adversary.worst}, cfg.seed, cfg.adversary().campaign);
  double grid_min = 1.0;
  for (const auto& scenario : a.campaign.scenarios) {
    grid_min = std::min(grid_min, scenario.critical_survival);
  }
  const double reproduced = alone.scenarios.front().critical_survival;
  why = check_worst_case(reproduced, a.adversary.worst_critical_survival,
                         grid_min);
  checks.expect(why.empty(), "adversary: " + why);
  checks.expect_rejects(
      !check_worst_case(reproduced, reproduced + 1.0 / trials, grid_min)
           .empty(),
      "worst case that does not reproduce");
  checks.expect_rejects(
      !check_worst_case(grid_min + 1.0 / trials, grid_min + 1.0 / trials,
                        grid_min)
           .empty(),
      "worst case above the grid minimum");

  why = check_rare_overlap(a.rare.ci_low, a.rare.ci_high, mission.critical);
  checks.expect(why.empty(), "rare event: " + why);
  const double width = a.rare.ci_high - a.rare.ci_low;
  checks.expect_rejects(
      !check_rare_overlap(1.0 - mission.critical.upper - width - 0.01,
                          1.0 - mission.critical.upper - 0.01,
                          mission.critical)
           .empty(),
      "rare-event interval above the bounds");
}

}  // namespace

WorkloadResult run_assess(const Args& args) {
  WorkloadResult result;
  Checks& checks = result.checks;
  Settings cfg;
  cfg.seed = args.seed;
  cfg.threads = fcm_threads();

  // Repetition r assesses subject r mod kSubjects, so the median spans
  // several seeded systems rather than one system's particular cost. The
  // vector is sized once: each planner points into its own subject.
  std::vector<Subject> subjects(kSubjects);
  const std::vector<std::uint64_t> seeds =
      typical_system_seeds(kProcesses, args.seed, kSubjects);
  const double setup_s = median_setup_s(5, 1.0, [&] {
    for (std::size_t k = 0; k < kSubjects; ++k) {
      make_subject(subjects[k], seeds[k], cfg.threads);
    }
  });
  const Subject& subject = subjects[0];

  std::vector<std::optional<Assessment>> firsts(kSubjects);
  bool identical = true;
  std::vector<double> depend_s, campaign_s, adversary_s, rare_s;
  const auto rep = [&](bool traced, int r) {
    const std::size_t k = static_cast<std::size_t>(r) % kSubjects;
    Assessment a =
        assess(subjects[k], cfg, traced, static_cast<std::uint64_t>(r));
    if (!traced) {
      depend_s.push_back(a.depend_s);
      campaign_s.push_back(a.campaign_s);
      adversary_s.push_back(a.adversary_s);
      rare_s.push_back(a.rare_s);
    }
    if (!firsts[k]) {
      firsts[k] = std::move(a);
    } else {
      identical = identical && same_results(*firsts[k], a);
    }
  };
  const auto& first = firsts[0];
  // Every assessed subject's results through every assessment check;
  // `bounds_s` is subject 0's bounds pass.
  const auto check_all = [&](double* bounds_s) {
    for (std::size_t k = 0; k < kSubjects; ++k) {
      if (!firsts[k]) continue;
      double subject_bounds_s = 0.0;
      check_assessment(subjects[k], cfg, *firsts[k], checks,
                       &subject_bounds_s);
      if (k == 0) *bounds_s = subject_bounds_s;
    }
  };

  double bounds_s = 0.0;
  if (!args.trace) {
    const std::vector<double> walls =
        repeat_for(args.seconds, static_cast<int>(kSubjects),
                   [&](int r) { rep(false, r); });
    const double rss = peak_rss_mb();
    result.attempted = 4 * walls.size();
    result.metrics = {{"setup_s", setup_s, "s"},
                      {"rep_s", median_per_system(walls, kSubjects), "s"},
                      {"peak_rss_mb", rss, "MB"}};
    check_all(&bounds_s);
  } else {
    // Work counters of one traced repetition, read as deltas so the
    // searches' internal campaigns do not blur the campaign's own.
    std::vector<double> sweeps, edges, trials_c, injections, recoveries;
    std::vector<double> tasks, submissions, pilots;
    trace_begin();
    const Alternation alt = alternate(
        args.seconds, 2, [&](int r) { rep(false, r); },
        [&](int r) {
          const std::uint64_t t0 = counter("exec.tasks");
          const std::uint64_t s0 = counter("exec.submissions");
          const std::uint64_t sw0 = counter("mc.propagation_sweeps");
          const std::uint64_t e0 = counter("mc.edges_sampled");
          const std::uint64_t p0 = counter("rare_event.pilot_trials");
          rep(true, r);
          tasks.push_back(static_cast<double>(counter("exec.tasks") - t0));
          submissions.push_back(
              static_cast<double>(counter("exec.submissions") - s0));
          sweeps.push_back(
              static_cast<double>(counter("mc.propagation_sweeps") - sw0) /
              kTrials);
          edges.push_back(
              static_cast<double>(counter("mc.edges_sampled") - e0) / kTrials);
          pilots.push_back(
              static_cast<double>(counter("rare_event.pilot_trials") - p0));
        });
    // One instrumented campaign alone for its work counters.
    const std::uint64_t c0 = counter("resilience.trials");
    const std::uint64_t i0 = counter("resilience.injections");
    const std::uint64_t r0 = counter("resilience.recoveries.attempted");
    (void)fcm::resilience::run_campaign(
        subject.sw(), subject.plan.clustering.partition,
        subject.plan.assignment, subject.hw, subject.grid, cfg.seed,
        cfg.campaign(cfg.threads));
    const double campaign_trials =
        static_cast<double>(counter("resilience.trials") - c0);
    const double campaign_injections =
        static_cast<double>(counter("resilience.injections") - i0);
    const double campaign_recoveries =
        static_cast<double>(counter("resilience.recoveries.attempted") - r0);
    const auto spans = trace_end();
    write_trace(args, spans);

    // Thread scaling, untraced: the two parallel engines on subject 0 at
    // one thread and at the workload's count, back to back.
    const auto scaling = [&](std::uint32_t threads, double* depend_wall,
                             double* campaign_wall) {
      const auto& plan = subject.plan;
      double t0 = now_s();
      auto d = fcm::dependability::evaluate_mapping(
          subject.sw(), plan.clustering, plan.assignment, subject.hw,
          cfg.mission(true, threads), cfg.seed, kCritical);
      *depend_wall = now_s() - t0;
      t0 = now_s();
      auto c = fcm::resilience::run_campaign(
          subject.sw(), plan.clustering.partition, plan.assignment,
          subject.hw, subject.grid, cfg.seed, cfg.campaign(threads));
      *campaign_wall = now_s() - t0;
      return std::make_pair(std::move(d), std::move(c));
    };
    double depend_1 = 0, campaign_1 = 0, depend_n = 0, campaign_n = 0;
    const auto serial = scaling(1, &depend_1, &campaign_1);
    (void)scaling(cfg.threads, &depend_n, &campaign_n);
    checks.expect(
        serial.first.process_survival == first->depend.process_survival &&
            fcm::resilience::to_json(serial.second) ==
                fcm::resilience::to_json(first->campaign),
        "results identical at 1 thread and at " + std::to_string(cfg.threads));

    const auto reps = attribute_reps(
        spans, "rep",
        {"dependability.evaluate_mapping", "resilience.run_campaign",
         "resilience.find_worst_case", "resilience.estimate_rare_event"});
    checks.expect(print_breakdown("assess", reps),
                  "layer self times sum to each traced repetition");
    checks.expect(reps.size() == alt.traced.size(),
                  "one attributed row per traced repetition");
    check_all(&bounds_s);
    result.attempted = 4 * (alt.untraced.size() + alt.traced.size());
    const double overhead = median(alt.traced) - median(alt.untraced);
    std::printf("obs overhead: traced %.6f s - untraced %.6f s = %.6f s\n",
                median(alt.traced), median(alt.untraced), overhead);
    const auto& adv = first->adversary;
    result.metrics = {
        {"depend_trials_per_s", kTrials / median(depend_s), "1/s"},
        {"campaign_s", median(campaign_s), "s"},
        {"adversary_s", median(adversary_s), "s"},
        {"rare_event_s", median(rare_s), "s"},
        {"dependability.evaluate_mapping_s",
         median_self(reps, "dependability.evaluate_mapping"), "s"},
        {"resilience.run_campaign_s",
         median_self(reps, "resilience.run_campaign"), "s"},
        {"resilience.find_worst_case_s",
         median_self(reps, "resilience.find_worst_case"), "s"},
        {"resilience.estimate_rare_event_s",
         median_self(reps, "resilience.estimate_rare_event"), "s"},
        {"assess.unattributed_s", median_unattributed(reps), "s"},
        {"mc.propagation_sweeps", median(sweeps), "count/trial"},
        {"mc.edges_sampled", median(edges), "count/trial"},
        {"resilience.trials", campaign_trials, "count"},
        {"resilience.injections", campaign_injections, "count"},
        {"resilience.recoveries.attempted", campaign_recoveries, "count"},
        {"adversary.evaluations", static_cast<double>(adv.evaluations),
         "count"},
        {"adversary.cache_hit_ratio",
         static_cast<double>(adv.cache_hits) /
             static_cast<double>(adv.evaluations + adv.cache_hits),
         "ratio"},
        {"resilience.bounds_s", bounds_s, "s"},
        {"rare_event.ess_ratio",
         first->rare.effective_samples / first->rare.trials, "ratio"},
        {"rare_event.pilot_trials", median(pilots), "count"},
        {"exec.mc_speedup", depend_1 / depend_n, "x"},
        {"exec.campaign_speedup", campaign_1 / campaign_n, "x"},
        {"exec.tasks", median(tasks), "count"},
        {"exec.submissions", median(submissions), "count"},
        {"obs.trace_overhead_s", overhead, "s"},
    };
  }
  checks.expect(identical, "assessments identical across repetitions");
  return result;
}

}  // namespace fcmbench

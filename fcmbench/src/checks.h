// Independent checks of the program's outputs. Each checker recomputes what
// it checks from the paper's definitions (or tests a property the method
// must have) and returns an empty string on success, or the reason it
// rejects the input. Returning the reason rather than recording it lets
// the negative tests feed each checker a deliberately broken input and
// confirm it is rejected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dependability/montecarlo.h"
#include "mapping/assignment.h"
#include "mapping/hw.h"
#include "mapping/planner.h"
#include "mapping/swgraph.h"
#include "resilience/bounds.h"
#include "resilience/report.h"

namespace fcmbench {

/// Every SW node sits in exactly one cluster, every cluster is non-empty,
/// there are no more clusters than HW nodes, and clusters map to distinct
/// HW nodes.
std::string check_partition(const fcm::mapping::SwGraph& sw,
                            const fcm::graph::Partition& partition,
                            const fcm::mapping::Assignment& assignment,
                            const fcm::mapping::HwGraph& hw);

/// No two replicas of one process share an HW node.
std::string check_replicas_apart(const fcm::mapping::SwGraph& sw,
                                 const fcm::graph::Partition& partition,
                                 const fcm::mapping::Assignment& assignment);

/// Eq. 4 cross-node influence recomputed from the SW influence edges:
/// per ordered pair of clusters, 1 - prod(1 - w) over the edges crossing
/// it, summed over the pairs.
double cross_node_influence(const fcm::mapping::SwGraph& sw,
                            const fcm::graph::Partition& partition);

/// `reported` agrees with the recomputed figure to 1e-9 relative.
std::string check_cross_influence(const fcm::mapping::SwGraph& sw,
                                  const fcm::graph::Partition& partition,
                                  double reported);

/// All plan checks above in one call.
std::string check_plan(const fcm::mapping::SwGraph& sw,
                       const fcm::mapping::Plan& plan,
                       const fcm::mapping::HwGraph& hw);

/// One candidate of the heuristic sweep, run on its own.
struct Candidate {
  fcm::mapping::Heuristic heuristic;
  bool feasible = false;
  double score = 0.0;
};

/// `chosen` (heuristic, score) is the first highest-scoring feasible
/// candidate in sweep order.
std::string check_sweep_choice(const std::vector<Candidate>& candidates,
                               fcm::mapping::Heuristic chosen,
                               double chosen_score);

/// Closed-form per-process survival of the no-propagation, no-software-
/// fault model with each replica on its own host: 1 - q^r for r <= 2 and a
/// strict majority of r for r >= 3.
std::vector<double> closed_form_survival(const fcm::mapping::SwGraph& sw,
                                         double q);

/// Normal-approximation half-width at `z` standard errors, with a 0.5/n
/// continuity correction, around the true probability `p`.
double halfwidth(double p, std::uint64_t n, double z);

/// Two-sided z whose Bonferroni-corrected family of `tests` comparisons
/// has coverage `coverage`.
double family_z(double coverage, std::size_t tests);

/// `estimate` agrees with `closed` per process within the family interval
/// (two-sided when `exact`, else only from above: propagation can only
/// lower survival).
std::string check_against_closed_form(const std::vector<double>& estimate,
                                      const std::vector<double>& closed,
                                      std::uint64_t trials, double z,
                                      bool exact);

/// system <= critical <= every critical process's survival.
std::string check_survival_order(const fcm::dependability::DependabilityReport&,
                                 const fcm::mapping::SwGraph& sw,
                                 int critical_threshold);

/// Each scenario's delivered/lost outcomes are whole trials that sum to
/// its trial count, and recoveries never exceed attempts.
std::string check_outcome_counts(const fcm::resilience::ResilienceReport&,
                                 std::uint32_t trials);

/// Exact one-sided binomial test of every campaign figure against its
/// compositional bracket at per-figure level `alpha`.
std::string check_campaign_bounds(
    const fcm::resilience::ResilienceReport& report,
    const std::vector<fcm::resilience::CompositionalBounds>& bounds,
    double alpha);

/// Exact binomial tail probabilities, P(X >= k) and P(X <= k) for
/// X ~ Binomial(n, p).
double binomial_upper_tail(std::uint64_t n, std::uint64_t k, double p);
double binomial_lower_tail(std::uint64_t n, std::uint64_t k, double p);

/// Compares two response payloads byte for byte.
std::string check_same_bytes(const std::string& expected,
                             const std::string& got);

/// A response memo answered every memoizable request it was sent: as many
/// misses as distinct payloads and, when `hits_sent` is given, as many
/// hits as repeated ones.
std::string check_memo_counts(std::uint64_t misses, std::uint64_t distinct,
                              std::uint64_t hits, std::uint64_t hits_sent);

}  // namespace fcmbench

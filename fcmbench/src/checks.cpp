#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>


namespace fcmbench {

namespace {
std::string fmt(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

// Origin process of each SW node, in first-appearance order.
std::vector<std::vector<fcm::graph::NodeIndex>> replicas_by_process(
    const fcm::mapping::SwGraph& sw) {
  std::map<fcm::FcmId, std::size_t> index_of;
  std::vector<std::vector<fcm::graph::NodeIndex>> groups;
  for (fcm::graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    const auto [it, inserted] =
        index_of.try_emplace(sw.node(v).origin, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(v);
  }
  return groups;
}
}  // namespace

std::string check_partition(const fcm::mapping::SwGraph& sw,
                            const fcm::graph::Partition& partition,
                            const fcm::mapping::Assignment& assignment,
                            const fcm::mapping::HwGraph& hw) {
  if (partition.cluster_of.size() != sw.node_count()) {
    return "partition covers " + std::to_string(partition.cluster_of.size()) +
           " of " + std::to_string(sw.node_count()) + " SW nodes";
  }
  std::vector<std::size_t> members(partition.cluster_count, 0);
  for (const std::uint32_t c : partition.cluster_of) {
    if (c >= partition.cluster_count) return "SW node in no valid cluster";
    ++members[c];
  }
  for (std::size_t c = 0; c < members.size(); ++c) {
    if (members[c] == 0) return "cluster " + std::to_string(c) + " is empty";
  }
  if (partition.cluster_count > hw.node_count()) {
    return std::to_string(partition.cluster_count) + " clusters for " +
           std::to_string(hw.node_count()) + " HW nodes";
  }
  if (assignment.hw_of.size() != partition.cluster_count) {
    return "assignment does not place every cluster";
  }
  std::set<std::uint32_t> hosts;
  for (const fcm::HwNodeId host : assignment.hw_of) {
    if (host.value() >= hw.node_count()) return "cluster on unknown HW node";
    if (!hosts.insert(host.value()).second) {
      return "two clusters share HW node " + std::to_string(host.value());
    }
  }
  return {};
}

std::string check_replicas_apart(const fcm::mapping::SwGraph& sw,
                                 const fcm::graph::Partition& partition,
                                 const fcm::mapping::Assignment& assignment) {
  for (const auto& replicas : replicas_by_process(sw)) {
    std::set<std::uint32_t> hosts;
    for (const fcm::graph::NodeIndex v : replicas) {
      const std::uint32_t host =
          assignment.hw_of[partition.cluster_of[v]].value();
      if (!hosts.insert(host).second) {
        return "replicas of " + sw.node(v).name + " share HW node " +
               std::to_string(host);
      }
    }
  }
  return {};
}

double cross_node_influence(const fcm::mapping::SwGraph& sw,
                            const fcm::graph::Partition& partition) {
  // Ordered cluster pair -> prod(1 - w) over the SW edges crossing it.
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> miss;
  for (const fcm::graph::Edge& e : sw.influence_graph().edges()) {
    if (e.weight <= 0.0) continue;  // replica links carry no influence
    const std::uint32_t a = partition.cluster_of[e.from];
    const std::uint32_t b = partition.cluster_of[e.to];
    if (a == b) continue;
    auto [it, inserted] = miss.try_emplace({a, b}, 1.0);
    it->second *= 1.0 - e.weight;
  }
  double total = 0.0;
  for (const auto& [pair, m] : miss) total += 1.0 - m;
  return total;
}

std::string check_cross_influence(const fcm::mapping::SwGraph& sw,
                                  const fcm::graph::Partition& partition,
                                  double reported) {
  const double expected = cross_node_influence(sw, partition);
  const double scale = std::max(std::fabs(expected), 1e-300);
  if (std::fabs(reported - expected) / scale > 1e-9) {
    return "cross-node influence " + fmt(reported) + " but Eq. 4 gives " +
           fmt(expected);
  }
  return {};
}

std::string check_plan(const fcm::mapping::SwGraph& sw,
                       const fcm::mapping::Plan& plan,
                       const fcm::mapping::HwGraph& hw) {
  const auto& partition = plan.clustering.partition;
  std::string why = check_partition(sw, partition, plan.assignment, hw);
  if (why.empty()) why = check_replicas_apart(sw, partition, plan.assignment);
  if (why.empty()) {
    why = check_cross_influence(sw, partition,
                                plan.quality.cross_node_influence);
  }
  return why;
}

std::string check_sweep_choice(const std::vector<Candidate>& candidates,
                               fcm::mapping::Heuristic chosen,
                               double chosen_score) {
  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    if (c.feasible && (best == nullptr || c.score > best->score)) best = &c;
  }
  if (best == nullptr) return "no feasible candidate";
  if (best->heuristic != chosen || best->score != chosen_score) {
    return std::string("best_plan chose ") + fcm::mapping::to_string(chosen) +
           " (score " + fmt(chosen_score) + ") but the best candidate is " +
           fcm::mapping::to_string(best->heuristic) + " (score " +
           fmt(best->score) + ")";
  }
  return {};
}

std::vector<double> closed_form_survival(const fcm::mapping::SwGraph& sw,
                                         double q) {
  std::vector<double> out;
  for (const auto& replicas : replicas_by_process(sw)) {
    const int r = static_cast<int>(replicas.size());
    if (sw.node(replicas.front()).attributes.replication <= 2) {
      out.push_back(1.0 - std::pow(q, r));  // at least one replica up
      continue;
    }
    double p = 0.0;  // strict majority of r independent replicas up
    for (int k = r / 2 + 1; k <= r; ++k) {
      p += std::tgamma(r + 1) / (std::tgamma(k + 1) * std::tgamma(r - k + 1)) *
           std::pow(1.0 - q, k) * std::pow(q, r - k);
    }
    out.push_back(p);
  }
  return out;
}

double halfwidth(double p, std::uint64_t n, double z) {
  const double dn = static_cast<double>(n);
  return z * std::sqrt(p * (1.0 - p) / dn) + 0.5 / dn;
}

double family_z(double coverage, std::size_t tests) {
  const double alpha = (1.0 - coverage) / static_cast<double>(tests);
  // Solve erfc(z / sqrt 2) = alpha by bisection (two-sided tail).
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (std::erfc(mid / std::sqrt(2.0)) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

std::string check_against_closed_form(const std::vector<double>& estimate,
                                      const std::vector<double>& closed,
                                      std::uint64_t trials, double z,
                                      bool exact) {
  if (estimate.size() != closed.size()) return "process count differs";
  for (std::size_t p = 0; p < closed.size(); ++p) {
    const double hw = halfwidth(closed[p], trials, z);
    const bool above = estimate[p] > closed[p] + hw;
    const bool below = exact && estimate[p] < closed[p] - hw;
    if (above || below) {
      return "process " + std::to_string(p + 1) + " survival " +
             fmt(estimate[p]) + " vs closed form " + fmt(closed[p]) +
             " +/- " + fmt(hw);
    }
  }
  return {};
}

std::string check_survival_order(
    const fcm::dependability::DependabilityReport& report,
    const fcm::mapping::SwGraph& sw, int critical_threshold) {
  if (report.system_survival > report.critical_survival) {
    return "system survival " + fmt(report.system_survival) +
           " above critical survival " + fmt(report.critical_survival);
  }
  const auto groups = replicas_by_process(sw);
  if (groups.size() != report.process_survival.size()) {
    return "process count differs";
  }
  for (std::size_t p = 0; p < groups.size(); ++p) {
    if (sw.node(groups[p].front()).attributes.criticality <
        critical_threshold) {
      continue;
    }
    if (report.critical_survival > report.process_survival[p]) {
      return "critical survival " + fmt(report.critical_survival) +
             " above critical process " + std::to_string(p + 1) + "'s " +
             fmt(report.process_survival[p]);
    }
  }
  return {};
}

namespace {
// Whole-trial count behind a fraction of n, or -1 when it is not one.
std::int64_t whole_trials(double fraction, std::uint32_t n) {
  const double count = fraction * static_cast<double>(n);
  const double rounded = std::round(count);
  if (std::fabs(count - rounded) > 1e-6 || rounded < 0 ||
      rounded > static_cast<double>(n)) {
    return -1;
  }
  return static_cast<std::int64_t>(rounded);
}
}  // namespace

std::string check_outcome_counts(
    const fcm::resilience::ResilienceReport& report, std::uint32_t trials) {
  for (const auto& s : report.scenarios) {
    if (s.trials != trials) {
      return s.name + ": " + std::to_string(s.trials) + " trials, not " +
             std::to_string(trials);
    }
    std::vector<double> figures = {s.system_survival, s.critical_survival};
    for (const auto& p : s.processes) figures.push_back(p.survival);
    for (const double f : figures) {
      const std::int64_t delivered = whole_trials(f, s.trials);
      const std::int64_t lost = whole_trials(1.0 - f, s.trials);
      if (delivered < 0 || lost < 0 ||
          delivered + lost != static_cast<std::int64_t>(s.trials)) {
        return s.name + ": outcome " + fmt(f) + " is not whole trials of " +
               std::to_string(s.trials);
      }
    }
    if (s.recoveries_succeeded > s.recoveries_attempted) {
      return s.name + ": more recoveries succeeded than attempted";
    }
  }
  return {};
}

std::string check_campaign_bounds(
    const fcm::resilience::ResilienceReport& report,
    const std::vector<fcm::resilience::CompositionalBounds>& bounds,
    double alpha) {
  if (bounds.size() != report.scenarios.size()) return "bound count differs";
  const auto test = [&](const std::string& what, double estimate,
                        std::uint32_t n,
                        const fcm::resilience::SurvivalBounds& b)
      -> std::string {
    const auto k = static_cast<std::uint64_t>(
        std::llround(estimate * static_cast<double>(n)));
    if (binomial_upper_tail(n, k, b.upper) < alpha ||
        binomial_lower_tail(n, k, b.lower) < alpha) {
      return what + " = " + fmt(estimate) + " outside [" + fmt(b.lower) +
             ", " + fmt(b.upper) + "] beyond sampling error";
    }
    return {};
  };
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const auto& s = report.scenarios[i];
    const auto& b = bounds[i];
    std::string why = test(s.name + " system", s.system_survival, s.trials,
                           b.system);
    if (why.empty()) {
      why = test(s.name + " critical", s.critical_survival, s.trials,
                 b.critical);
    }
    for (std::size_t p = 0; why.empty() && p < s.processes.size(); ++p) {
      const auto match = std::find_if(
          b.processes.begin(), b.processes.end(),
          [&](const auto& pb) { return pb.name == s.processes[p].name; });
      if (match == b.processes.end()) return s.name + ": unbounded process";
      why = test(s.name + " " + s.processes[p].name, s.processes[p].survival,
                 s.trials, match->survival);
    }
    if (!why.empty()) return why;
  }
  return {};
}

std::string check_same_bytes(const std::string& expected,
                             const std::string& got) {
  if (expected == got) return {};
  std::size_t at = 0;
  while (at < expected.size() && at < got.size() && expected[at] == got[at]) {
    ++at;
  }
  return "responses differ at byte " + std::to_string(at) + " of " +
         std::to_string(expected.size());
}

std::string check_memo_counts(std::uint64_t misses, std::uint64_t distinct,
                              std::uint64_t hits, std::uint64_t hits_sent) {
  if (misses != distinct) {
    return "memo misses " + std::to_string(misses) + " != distinct payloads " +
           std::to_string(distinct);
  }
  if (hits != hits_sent) {
    return "memo hits " + std::to_string(hits) + " != repeated payloads " +
           std::to_string(hits_sent);
  }
  return {};
}

namespace {
double log_pmf(std::uint64_t n, std::uint64_t k, double p) {
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  return std::lgamma(dn + 1) - std::lgamma(dk + 1) - std::lgamma(dn - dk + 1) +
         (k == 0 ? 0.0 : dk * std::log(p)) +
         (k == n ? 0.0 : (dn - dk) * std::log1p(-p));
}
}  // namespace

double binomial_upper_tail(std::uint64_t n, std::uint64_t k, double p) {
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  double sum = 0.0;
  for (std::uint64_t i = k; i <= n; ++i) sum += std::exp(log_pmf(n, i, p));
  return std::min(1.0, sum);
}

double binomial_lower_tail(std::uint64_t n, std::uint64_t k, double p) {
  if (k >= n) return 1.0;
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return 0.0;
  double sum = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) sum += std::exp(log_pmf(n, i, p));
  return std::min(1.0, sum);
}

}  // namespace fcmbench

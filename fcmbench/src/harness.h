// Shared machinery of the fcm benchmark: arguments, timing statistics, the
// allocation counter, the check ledger, and the outside-in layer attribution
// of traced repetitions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace fcmbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run artefacts (trace file, daemon port file and log).
  std::string run_dir = ".bench_build/run";
  /// The daemon binary the serve workload launches.
  std::string fcm_tool = ".bench_build/fcm_tool";
};

/// The worker count the library's pools use: FCM_THREADS when set, else
/// the hardware concurrency, resolved by the library itself.
std::uint32_t fcm_threads();

/// Generator seeds of `count` synthetic systems of `processes` processes
/// (`core::synthetic::make_system`) whose replica count is the expected
/// one, drawn deterministically from `seed`, and printed. The generator
/// draws each process's replication degree (3 with p = 0.15, else 2 with
/// p = 0.3, else 1: 1.555 on average), and the planning and assessment
/// costs grow steeply with the replica count, so systems of equal count
/// keep the seed from moving the timings. System k tries the candidates
/// 4096·(count·seed + k) + i in order and takes the first of the expected
/// count, or after 4096 the closest.
std::vector<std::uint64_t> typical_system_seeds(std::size_t processes,
                                                std::uint64_t seed,
                                                std::size_t count);

/// Seconds on the steady clock.
double now_s();
double median(std::vector<double> values);
/// Mean over `systems` groups of each group's median, where repetition r
/// belongs to group r mod `systems`: every rotating input system weighs
/// the same however many repetitions it got. One group is the median.
double median_per_system(const std::vector<double>& walls,
                         std::size_t systems);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Global operator new calls made while counting is on (any thread).
std::uint64_t alloc_count();
void set_alloc_counting(bool on);

/// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Pass/fail ledger for the correctness checks. Positive checks must hold;
/// negative checks run a checker on a deliberately broken input and must
/// see it rejected.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  /// `rejected` is the checker's verdict on a broken input.
  void expect_rejects(bool rejected, const std::string& what);
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] int passed() const noexcept { return passed_; }
  [[nodiscard]] int negatives() const noexcept { return negatives_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  int passed_ = 0;
  int negatives_ = 0;
  std::vector<std::string> failures_;
};

/// What one workload run hands back to main().
struct WorkloadResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;
};

/// Untimed preparation of repetition r (fresh inputs), or empty.
using Prepare = std::function<void(int)>;

/// Runs `fn` repeatedly until `seconds` have passed and at least
/// `min_reps` repetitions ran; returns each repetition's wall time.
/// `prepare(r)` runs before repetition r, outside the timed interval.
std::vector<double> repeat_for(double seconds, int min_reps,
                               const std::function<void(int)>& fn,
                               const Prepare& prepare = {});

/// Untraced and traced wall times of alternating repetitions.
struct Alternation {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// Alternates an untraced repetition (instrumentation off) with a traced
/// one (instrumentation on) until `seconds` have passed and at least
/// `min_pairs` pairs ran. Call between trace_begin() and trace_end().
Alternation alternate(double seconds, int min_pairs,
                      const std::function<void(int)>& untraced,
                      const std::function<void(int)>& traced,
                      const Prepare& prepare = {});

/// Times `setup` several times (at least `min_reps`, and until `budget_s`
/// seconds have passed) and returns the median wall time.
double median_setup_s(int min_reps, double budget_s,
                      const std::function<void()>& setup);

/// Outside-in attribution of one traced repetition. The repetition is a
/// root span; layers are the spans nested inside it on the same thread
/// whose names are in the layer set. A layer's self time is its duration
/// minus the part its nested layer spans cover; the unattributed row is the
/// root's duration minus its top-level layers, so self times plus the
/// unattributed row sum to the root's wall time exactly.
struct RepBreakdown {
  std::uint64_t id = 0;
  double wall_s = 0.0;
  std::map<std::string, double> self_s;  ///< summed per layer name
  double unattributed_s = 0.0;
};

std::vector<RepBreakdown> attribute_reps(
    const std::vector<fcm::obs::SpanRecord>& spans, const std::string& root,
    const std::vector<std::string>& layers);

/// Prints the per-repetition table (at most `max_rows` rows) and returns
/// false when any repetition fails to sum to its wall time.
bool print_breakdown(const std::string& title,
                     const std::vector<RepBreakdown>& reps,
                     std::size_t max_rows = 64);

/// Median over repetitions of one layer's self time.
double median_self(const std::vector<RepBreakdown>& reps,
                   const std::string& layer);
double median_unattributed(const std::vector<RepBreakdown>& reps);

/// Starts a clean traced section: metrics and spans reset, recording on.
void trace_begin();
/// Stops recording and returns every span collected since trace_begin().
std::vector<fcm::obs::SpanRecord> trace_end();
/// Counter value in the current registry snapshot (0 when absent).
std::uint64_t counter(const std::string& name);
/// Writes the spans in the chrome-trace format of the program's exporter.
void write_trace(const Args& args,
                 const std::vector<fcm::obs::SpanRecord>& spans);

WorkloadResult run_plan_scale(const Args& args);
WorkloadResult run_plan_sweep(const Args& args);
WorkloadResult run_assess(const Args& args);
WorkloadResult run_serve(const Args& args);

}  // namespace fcmbench

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

#include "core/synthetic.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/obs.h"

// --- Allocation counter ---------------------------------------------------
// Replaces the global allocation functions for this binary. Counting costs
// one relaxed load while off, so untraced repetitions are not perturbed.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fcmbench {

std::uint32_t fcm_threads() {
  return fcm::exec::resolve_threads(0, UINT64_MAX);
}

std::vector<std::uint64_t> typical_system_seeds(std::size_t processes,
                                                std::uint64_t seed,
                                                std::size_t count) {
  constexpr std::uint64_t kCandidates = 4096;
  const auto target = static_cast<std::int64_t>(
      std::llround(1.555 * static_cast<double>(processes)));
  std::vector<std::uint64_t> seeds;
  std::printf("systems: %zu processes, %lld replicas, generator seeds",
              processes, static_cast<long long>(target));
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t first = (seed * count + k) * kCandidates;
    std::uint64_t best = first;
    std::int64_t best_gap = INT64_MAX;
    for (std::uint64_t i = 0; i < kCandidates && best_gap != 0; ++i) {
      const auto system =
          fcm::core::synthetic::make_system(processes, first + i);
      std::int64_t replicas = 0;
      for (const fcm::FcmId id : system.processes) {
        replicas += system.hierarchy.get(id).attributes.replication;
      }
      const std::int64_t gap = std::llabs(replicas - target);
      if (gap < best_gap) {
        best = first + i;
        best_gap = gap;
      }
    }
    seeds.push_back(best);
    std::printf(" %llu%s", static_cast<unsigned long long>(best),
                best_gap == 0 ? "" : "(closest)");
  }
  std::printf("\n");
  return seeds;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double median_per_system(const std::vector<double>& walls,
                         std::size_t systems) {
  std::vector<std::vector<double>> groups(systems);
  for (std::size_t r = 0; r < walls.size(); ++r) {
    groups[r % systems].push_back(walls[r]);
  }
  double sum = 0.0;
  std::size_t used = 0;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    sum += median(group);
    ++used;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void set_alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
  } else {
    failures_.push_back(what);
  }
}

void Checks::expect_rejects(bool rejected, const std::string& what) {
  ++negatives_;
  if (!rejected) failures_.push_back("checker accepted a broken input: " + what);
}

std::vector<double> repeat_for(double seconds, int min_reps,
                               const std::function<void(int)>& fn,
                               const Prepare& prepare) {
  std::vector<double> walls, cpus;
  const auto cpu_s = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
  };
  const double start = now_s();
  for (int rep = 0;; ++rep) {
    if (rep >= min_reps && now_s() - start >= seconds) break;
    if (prepare) prepare(rep);
    const double t0 = now_s();
    const double c0 = cpu_s();
    fn(rep);
    walls.push_back(now_s() - t0);
    cpus.push_back(cpu_s() - c0);
  }
  std::printf("repetitions wall/cpu (s):");
  for (std::size_t i = 0; i < walls.size(); ++i) {
    std::printf(" %.4f/%.4f", walls[i], cpus[i]);
  }
  std::printf("\n");
  return walls;
}

Alternation alternate(double seconds, int min_pairs,
                      const std::function<void(int)>& untraced,
                      const std::function<void(int)>& traced,
                      const Prepare& prepare) {
  Alternation out;
  const double start = now_s();
  for (int pair = 0;; ++pair) {
    if (pair >= min_pairs && now_s() - start >= seconds) break;
    fcm::obs::set_enabled(false);
    if (prepare) prepare(pair);
    double t0 = now_s();
    untraced(pair);
    out.untraced.push_back(now_s() - t0);
    if (prepare) prepare(pair);
    fcm::obs::set_enabled(true);
    t0 = now_s();
    traced(pair);
    out.traced.push_back(now_s() - t0);
  }
  return out;
}

double median_setup_s(int min_reps, double budget_s,
                      const std::function<void()>& setup) {
  std::vector<double> walls;
  const double start = now_s();
  while (static_cast<int>(walls.size()) < min_reps ||
         now_s() - start < budget_s) {
    const double t0 = now_s();
    setup();
    walls.push_back(now_s() - t0);
  }
  return median(walls);
}

std::vector<RepBreakdown> attribute_reps(
    const std::vector<fcm::obs::SpanRecord>& spans, const std::string& root,
    const std::vector<std::string>& layers) {
  const auto is_layer = [&](const char* name) {
    return std::find(layers.begin(), layers.end(), name) != layers.end();
  };
  std::vector<RepBreakdown> reps;
  for (const fcm::obs::SpanRecord& r : spans) {
    if (root != r.name) continue;
    const std::uint64_t r_end = r.start_us + r.dur_us;
    // Layer spans inside the root on its thread, clipped to it, outermost
    // first.
    struct Interval {
      const char* name;
      std::uint64_t start, end;
    };
    std::vector<Interval> inside;
    for (const fcm::obs::SpanRecord& s : spans) {
      if (&s == &r || s.tid != r.tid || !is_layer(s.name)) continue;
      const std::uint64_t s_end = s.start_us + s.dur_us;
      if (s.start_us < r.start_us || s.start_us >= r_end) continue;
      inside.push_back({s.name, s.start_us, std::min(s_end, r_end)});
    }
    std::sort(inside.begin(), inside.end(),
              [](const Interval& a, const Interval& b) {
                return a.start != b.start ? a.start < b.start : a.end > b.end;
              });
    RepBreakdown rep;
    rep.id = r.id;
    rep.wall_s = static_cast<double>(r.dur_us) * 1e-6;
    // Stack walk: each interval's self time starts at its duration and
    // loses the duration of every directly nested interval.
    std::vector<std::size_t> stack;
    std::vector<std::int64_t> self_us(inside.size());
    std::int64_t top_level_us = 0;
    for (std::size_t i = 0; i < inside.size(); ++i) {
      while (!stack.empty() && inside[stack.back()].end <= inside[i].start) {
        stack.pop_back();
      }
      std::uint64_t end = inside[i].end;
      if (!stack.empty()) end = std::min(end, inside[stack.back()].end);
      inside[i].end = end;
      const auto dur = static_cast<std::int64_t>(end - inside[i].start);
      self_us[i] = dur;
      if (stack.empty()) {
        top_level_us += dur;
      } else {
        self_us[stack.back()] -= dur;
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < inside.size(); ++i) {
      rep.self_s[inside[i].name] += static_cast<double>(self_us[i]) * 1e-6;
    }
    rep.unattributed_s =
        static_cast<double>(static_cast<std::int64_t>(r.dur_us) -
                            top_level_us) *
        1e-6;
    reps.push_back(std::move(rep));
  }
  return reps;
}

bool print_breakdown(const std::string& title,
                     const std::vector<RepBreakdown>& reps,
                     std::size_t max_rows) {
  bool all_sum = true;
  std::printf("layer breakdown: %s (self seconds per traced repetition, "
              "%zu of %zu shown)\n",
              title.c_str(), std::min(max_rows, reps.size()), reps.size());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepBreakdown& rep = reps[i];
    double sum = rep.unattributed_s;
    for (const auto& [name, self] : rep.self_s) sum += self;
    const bool sums = std::fabs(sum - rep.wall_s) < 1e-9;
    all_sum = all_sum && sums;
    if (i >= max_rows) continue;
    std::printf("  rep %llu wall=%.6f", static_cast<unsigned long long>(rep.id),
                rep.wall_s);
    for (const auto& [name, self] : rep.self_s) {
      std::printf(" %s=%.6f", name.c_str(), self);
    }
    std::printf(" unattributed=%.6f sum=%.6f %s\n", rep.unattributed_s, sum,
                sums ? "ok" : "MISMATCH");
  }
  return all_sum;
}

double median_self(const std::vector<RepBreakdown>& reps,
                   const std::string& layer) {
  std::vector<double> values;
  for (const RepBreakdown& rep : reps) {
    const auto it = rep.self_s.find(layer);
    values.push_back(it == rep.self_s.end() ? 0.0 : it->second);
  }
  return median(values);
}

double median_unattributed(const std::vector<RepBreakdown>& reps) {
  std::vector<double> values;
  for (const RepBreakdown& rep : reps) values.push_back(rep.unattributed_s);
  return median(values);
}

void trace_begin() {
  fcm::obs::MetricsRegistry::global().reset();
  fcm::obs::TraceCollector::global().reset();
  fcm::obs::set_enabled(true);
}

std::vector<fcm::obs::SpanRecord> trace_end() {
  fcm::obs::set_enabled(false);
  return fcm::obs::TraceCollector::global().collect();
}

std::uint64_t counter(const std::string& name) {
  const fcm::obs::MetricsSnapshot snap =
      fcm::obs::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

void write_trace(const Args& args,
                 const std::vector<fcm::obs::SpanRecord>& spans) {
  const std::string path = args.run_dir + "/trace-" + args.workload + ".json";
  std::ofstream out(path);
  out << fcm::obs::trace_json(spans);
  std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
}

}  // namespace fcmbench

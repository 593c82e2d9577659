// The serve workload. Requests come in whole rounds: shuffled passes over a
// fixed example98 payload set, warmed in setup, so every one is a memo hit,
// and one memo miss (a depend query with a fresh q, few trials, one
// thread). Hits exercise the memo lookup; misses evaluate and insert beside
// those reads.
//
// The timed phase sends rounds to a resident QueryEngine in this process,
// the engine `fcm_tool serve` answers from, on FCM_THREADS lanes at once:
// its time is CPU work and repeats from run to run. The daemon itself then
// serves a fixed number of rounds over loopback from two closed-loop
// connections (two workers plus two connections: the machine's four
// hardware threads). Its round trips are dominated by thread hand-offs
// whose time follows the machine's other tenants, so they are reported by
// the traced run only; every run checks the daemon's answers, its exit and
// its ledger, and reads its peak resident set after that fixed work.
#include <signal.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "checks.h"
#include "harness.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/query.h"

extern char** environ;

namespace fcmbench {

namespace {

using fcm::serve::protocol::Opcode;
using fcm::serve::protocol::Status;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
// Passes over the hit set per round: in process a round's hits take about
// as long as its miss; over loopback a round is 36 hits and a miss.
constexpr int kEngineHitPasses = 256;
constexpr int kDaemonHitPasses = 4;
// Rounds per connection of the untraced run's daemon phase: a fixed amount
// of work, so the daemon's peak resident set does not follow throughput.
constexpr std::uint64_t kDaemonRounds = 1000;
constexpr int kMissTrials = 1000;
// Miss responses kept per engine lane for the one-shot comparison: the
// first rounds' and the last round's.
constexpr std::size_t kMissSamples = 16;

struct Request {
  Opcode opcode;
  std::string payload;
};

// The fixed hit set. Every depend carries threads=1 so its bytes do not
// depend on FCM_THREADS.
const std::vector<Request>& hit_set() {
  static const std::vector<Request> hits = {
      {Opcode::kMapping, ""},
      {Opcode::kMapping, "heuristic=h1"},
      {Opcode::kMapping, "approach=b"},
      {Opcode::kInfluence, ""},
      {Opcode::kReplan, "fail=0"},
      {Opcode::kReplan, "fail=1"},
      {Opcode::kDepend, "q=0.05 trials=2000 threads=1"},
      {Opcode::kDepend, "q=0.1 trials=2000 threads=1"},
      {Opcode::kPing, "fcmbench"},
  };
  return hits;
}

// A payload no earlier request to the same engine used: q is unique per
// (lane, round) and offset by the seed.
Request miss_request(std::uint64_t seed, std::uint64_t lane,
                     std::uint64_t lanes, std::uint64_t round) {
  char q[64];
  std::snprintf(q, sizeof q, "%.12f",
                0.02 + 1e-5 * static_cast<double>(seed % 1000) +
                    1e-9 * static_cast<double>(round * lanes + lane));
  return {Opcode::kDepend, std::string("q=") + q +
                               " trials=" + std::to_string(kMissTrials) +
                               " threads=1"};
}

// One round: `passes` shuffled passes over the hit set with the miss at a
// random place. Returns the miss's index.
std::size_t make_round(std::vector<Request>& round, int passes,
                       std::mt19937_64& rng, Request miss) {
  round.clear();
  for (int pass = 0; pass < passes; ++pass) {
    round.insert(round.end(), hit_set().begin(), hit_set().end());
  }
  std::shuffle(round.begin(), round.end(), rng);
  const std::size_t miss_at = rng() % (round.size() + 1);
  round.insert(round.begin() + static_cast<std::ptrdiff_t>(miss_at),
               std::move(miss));
  return miss_at;
}

using ResponseKey = std::pair<std::uint16_t, std::string>;

ResponseKey key_of(const Request& req) {
  return {static_cast<std::uint16_t>(req.opcode), req.payload};
}

// One `fcm_tool serve` process. The destructor kills and reaps it if it
// is still running, so no exit path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const Args& args, int index, bool metrics) {
    port_file_ = args.run_dir + "/serve-" + std::to_string(index) + ".port";
    log_file_ = args.run_dir + "/serve-" + std::to_string(index) + ".log";
    std::remove(port_file_.c_str());
    std::vector<std::string> argv_s = {args.fcm_tool, "serve",
                                       "--port",      "0",
                                       "--workers",   std::to_string(kWorkers),
                                       "--port-file", port_file_};
    if (metrics) argv_s.push_back("--metrics");
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_file_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, args.fcm_tool.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + args.fcm_tool);
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for the port file the daemon writes once it listens.
  std::uint16_t wait_port() const {
    const double deadline = now_s() + 30.0;
    while (now_s() < deadline) {
      std::ifstream in(port_file_);
      std::string line;
      if (std::getline(in, line) && !in.eof()) {
        return static_cast<std::uint16_t>(std::stoi(line));
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        throw std::runtime_error("daemon exited before listening");
      }
      usleep(500);
    }
    throw std::runtime_error("daemon did not listen within 30 s");
  }

  struct Exit {
    int code = -1;
    double peak_rss_mb = 0.0;
    std::string log;
  };
  /// SIGTERM, then waits for the drain and reads the exit report.
  Exit stop() {
    Exit out;
    kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    out.code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::ifstream in(log_file_);
    std::stringstream text;
    text << in.rdbuf();
    out.log = text.str();
    return out;
  }

 private:
  pid_t pid_ = -1;
  std::string port_file_;
  std::string log_file_;
};

// Everything the daemon phase observed.
struct Phase {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t memoizable_hits = 0;  // hit requests other than ping
  std::vector<double> hit_ms, miss_ms, round_s;
  // Distinct (opcode, payload) -> the OK bytes first received for it.
  std::map<ResponseKey, std::string> responses;
  bool consistent = true;  // repeated payloads always answered alike
};

// The closed loop against the daemon: kConnections threads, whole rounds
// until `rounds` per connection are done or `seconds` have passed.
Phase drive(std::uint16_t port, std::uint64_t seed, double seconds,
            std::uint64_t rounds, bool traced, std::uint64_t round_base) {
  Phase phase;
  std::mutex mutex;
  const double start = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Phase local;
      std::mt19937_64 rng(seed * 1000 + static_cast<std::uint64_t>(c));
      std::vector<Request> round;
      try {
        fcm::serve::Client client("127.0.0.1", port);
        for (std::uint64_t r = 0;
             r < rounds && (r == 0 || now_s() - start < seconds); ++r) {
          const std::uint64_t id =
              (round_base + r) * kConnections + static_cast<std::uint64_t>(c);
          const std::size_t miss_at = make_round(
              round, kDaemonHitPasses, rng,
              miss_request(seed, static_cast<std::uint64_t>(c), kConnections,
                           round_base + r));
          std::optional<fcm::obs::ScopedSpan> root;
          if (traced) root.emplace("rep", id);
          const double r0 = now_s();
          for (std::size_t i = 0; i < round.size(); ++i) {
            const Request& req = round[i];
            std::optional<fcm::obs::ScopedSpan> span;
            if (traced) span.emplace("serve.request", id);
            const double t0 = now_s();
            const auto response = client.request(req.opcode, req.payload);
            const double ms = (now_s() - t0) * 1e3;
            span.reset();
            ++local.attempted;
            if (response.status != Status::kOk) {
              ++local.failed;
              continue;
            }
            if (i != miss_at && req.opcode != Opcode::kPing) {
              ++local.memoizable_hits;
            }
            (i == miss_at ? local.miss_ms : local.hit_ms).push_back(ms);
            const auto [it, inserted] =
                local.responses.try_emplace(key_of(req), response.payload);
            if (!inserted && it->second != response.payload) {
              local.consistent = false;
            }
          }
          local.round_s.push_back(now_s() - r0);
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "connection %d: %s\n", c, error.what());
        ++local.failed;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      phase.attempted += local.attempted;
      phase.failed += local.failed;
      phase.memoizable_hits += local.memoizable_hits;
      phase.consistent = phase.consistent && local.consistent;
      phase.hit_ms.insert(phase.hit_ms.end(), local.hit_ms.begin(),
                          local.hit_ms.end());
      phase.miss_ms.insert(phase.miss_ms.end(), local.miss_ms.begin(),
                           local.miss_ms.end());
      phase.round_s.insert(phase.round_s.end(), local.round_s.begin(),
                           local.round_s.end());
      for (auto& [key, bytes] : local.responses) {
        const auto [it, inserted] = phase.responses.try_emplace(key, bytes);
        if (!inserted && it->second != bytes) phase.consistent = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = now_s() - start;
  return phase;
}

// Consecutive engine rounds of one lane averaged into one block time.
constexpr std::size_t kBlockRounds = 256;

// What the in-process phase observed.
struct EnginePhase {
  std::vector<double> round_s;
  // Mean round time of each block of kBlockRounds rounds of one lane.
  // Two lanes contend for the memo lock, so single round times are
  // bimodal; block means are not, and their median repeats run to run.
  std::vector<double> block_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t memoizable_hits = 0;
  std::uint64_t misses = 0;
  bool consistent = true;  // every hit answered with its warm-up length
  // Sampled miss responses, for the one-shot comparison.
  std::vector<std::pair<ResponseKey, std::string>> sampled;
};

// `lanes` threads send whole rounds to one warm engine until `seconds`
// have passed (at least one block each). A round's wall time is the
// repetition.
EnginePhase drive_engine(fcm::serve::QueryEngine& engine, std::uint64_t seed,
                         double seconds, std::uint32_t lanes) {
  std::vector<std::size_t> warm_size;
  for (const Request& req : hit_set()) {
    warm_size.push_back(engine.run(req.opcode, req.payload).text.size());
  }
  const auto hit_index = [](const Request& req) {
    const auto& hits = hit_set();
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (hits[i].opcode == req.opcode && hits[i].payload == req.payload) {
        return i;
      }
    }
    return hits.size();
  };
  EnginePhase phase;
  phase.memoizable_hits = hit_set().size() - 1;  // the pass above
  std::mutex mutex;
  const double start = now_s();
  std::vector<std::thread> threads;
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      EnginePhase local;
      std::mt19937_64 rng(seed * 1000 + 500 + lane);
      std::vector<Request> round;
      std::vector<std::size_t> expected;
      std::pair<ResponseKey, std::string> last_miss;
      for (std::uint64_t r = 0;
           r < kBlockRounds || now_s() - start < seconds; ++r) {
        const std::size_t miss_at = make_round(
            round, kEngineHitPasses, rng, miss_request(seed, lane, lanes, r));
        expected.clear();
        for (const Request& req : round) {
          const std::size_t h = hit_index(req);
          expected.push_back(h < warm_size.size() ? warm_size[h] : 0);
        }
        const double r0 = now_s();
        std::string miss_text;
        for (std::size_t i = 0; i < round.size(); ++i) {
          ++local.attempted;
          try {
            fcm::serve::QueryResult res =
                engine.run(round[i].opcode, round[i].payload);
            if (i == miss_at) {
              miss_text = std::move(res.text);
            } else if (res.text.size() != expected[i]) {
              local.consistent = false;
            }
          } catch (const std::exception&) {
            ++local.failed;
          }
        }
        local.round_s.push_back(now_s() - r0);
        ++local.misses;
        local.memoizable_hits += static_cast<std::uint64_t>(kEngineHitPasses) *
                                 (hit_set().size() - 1);  // ping is live
        last_miss = {key_of(round[miss_at]), std::move(miss_text)};
        if (r < kMissSamples) local.sampled.push_back(last_miss);
      }
      if (local.round_s.size() > kMissSamples) {
        local.sampled.push_back(std::move(last_miss));
      }
      for (std::size_t b = 0; b + kBlockRounds <= local.round_s.size();
           b += kBlockRounds) {
        double sum = 0.0;
        for (std::size_t i = b; i < b + kBlockRounds; ++i) {
          sum += local.round_s[i];
        }
        local.block_s.push_back(sum / kBlockRounds);
      }
      const std::lock_guard<std::mutex> lock(mutex);
      phase.attempted += local.attempted;
      phase.failed += local.failed;
      phase.memoizable_hits += local.memoizable_hits;
      phase.misses += local.misses;
      phase.consistent = phase.consistent && local.consistent;
      phase.round_s.insert(phase.round_s.end(), local.round_s.begin(),
                           local.round_s.end());
      phase.block_s.insert(phase.block_s.end(), local.block_s.begin(),
                           local.block_s.end());
      for (auto& entry : local.sampled) phase.sampled.push_back(entry);
    });
  }
  for (std::thread& t : threads) t.join();
  return phase;
}

// Sends every hit payload once so the memo is warm; false on any non-OK.
bool warm(std::uint16_t port) {
  fcm::serve::Client client("127.0.0.1", port);
  for (const Request& req : hit_set()) {
    if (client.request(req.opcode, req.payload).status != Status::kOk) {
      return false;
    }
  }
  return true;
}

// The ledger line `fcm_tool serve` prints on its way out.
std::string check_daemon_exit(const Daemon::Exit& exit) {
  if (exit.code != 0) return "daemon exit code " + std::to_string(exit.code);
  if (exit.log.find("ledger=balanced") == std::string::npos) {
    return "daemon ledger not balanced";
  }
  return {};
}

// Value of one counter in a metrics JSON document ("name":value).
std::uint64_t json_counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

}  // namespace

WorkloadResult run_serve(const Args& args) {
  WorkloadResult result;
  Checks& checks = result.checks;

  // Daemon start to a warm memo, kSetups times; the last daemon is the one
  // driven. In the traced run it also records its own metrics.
  constexpr int kSetups = 15;
  std::unique_ptr<Daemon> daemon;
  std::uint16_t port = 0;
  std::vector<double> daemon_setups;
  bool warmed = true;
  for (int k = 0; k < kSetups; ++k) {
    if (daemon) {
      const std::string why = check_daemon_exit(daemon->stop());
      checks.expect(why.empty(), "setup daemon: " + why);
    }
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(args, k, args.trace && k + 1 == kSetups);
    port = daemon->wait_port();
    warmed = warm(port) && warmed;
    daemon_setups.push_back(now_s() - t0);
  }
  checks.expect(warmed, "every warm-up request answered OK");

  // Set-up of the timed phase, and setup_s: a QueryEngine built and its
  // memo warmed with the hit set, kSetups times; the last one is driven.
  // (A daemon's start also spawns a process and waits for its port file,
  // and its time followed the machine's load: its median moved by a fifth
  // between two sets of runs, with a run-to-run spread of 0.5.)
  std::unique_ptr<fcm::serve::QueryEngine> engine;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    const double t0 = now_s();
    engine = std::make_unique<fcm::serve::QueryEngine>();
    for (const Request& req : hit_set()) {
      (void)engine->run(req.opcode, req.payload);
    }
    setups.push_back(now_s() - t0);
  }
  std::printf("setup: engine %.6f s, daemon start to warm memo %.6f s "
              "(medians of %d)\n",
              median(setups), median(daemon_setups), kSetups);

  const auto finish_daemon = [&](Daemon& d) {
    const Daemon::Exit exit = d.stop();
    const std::string why = check_daemon_exit(exit);
    checks.expect(why.empty(), "daemon: " + why);
    Daemon::Exit unbalanced = exit;
    unbalanced.log = "ledger=UNBALANCED";
    checks.expect_rejects(!check_daemon_exit(unbalanced).empty(),
                          "unbalanced daemon ledger");
    return exit;
  };
  // Distinct memoizable payloads a daemon phase sent: the warm set and
  // every miss (ping is answered live, never memoized).
  const auto distinct_memoizable = [](const Phase& p) {
    std::set<ResponseKey> distinct;
    for (const Request& req : hit_set()) {
      if (req.opcode != Opcode::kPing) distinct.insert(key_of(req));
    }
    for (const auto& [key, bytes] : p.responses) {
      if (key.first != static_cast<std::uint16_t>(Opcode::kPing)) {
        distinct.insert(key);
      }
    }
    return static_cast<std::uint64_t>(distinct.size());
  };

  const std::uint32_t lanes = fcm_threads();
  std::vector<Phase> phases;
  std::optional<EnginePhase> timed;

  if (!args.trace) {
    timed = drive_engine(*engine, args.seed, args.seconds, lanes);
    phases.push_back(drive(port, args.seed, 1e9, kDaemonRounds, false, 0));
    const Daemon::Exit exit = finish_daemon(*daemon);
    result.metrics = {{"setup_s", median(setups), "s"},
                      {"rep_s", median(timed->block_s), "s"},
                      {"peak_rss_mb", exit.peak_rss_mb, "MB"}};
  } else {
    // The daemon started with --metrics: an untraced phase (its figures
    // are the serve_* metrics), then a traced phase with the generator's
    // spans on. Then the in-process engine for a quarter of the run.
    phases.push_back(drive(port, args.seed, args.seconds * 3 / 8,
                           UINT64_MAX, false, 0));
    trace_begin();
    phases.push_back(drive(port, args.seed, args.seconds * 3 / 8, UINT64_MAX,
                           true, phases.front().round_s.size() + 1));
    const auto spans = trace_end();
    std::string daemon_metrics;
    {
      fcm::serve::Client client("127.0.0.1", port);
      daemon_metrics = client.request(Opcode::kMetrics, "").payload;
    }
    finish_daemon(*daemon);
    write_trace(args, spans);
    const Phase& plain = phases.front();
    const Phase& traced = phases.back();

    std::uint64_t distinct = 0;
    for (const Phase& p : phases) distinct += distinct_memoizable(p);
    distinct -= hit_set().size() - 1;  // the warm set, counted per phase
    std::uint64_t hits_sent = 0;
    for (const Phase& p : phases) hits_sent += p.memoizable_hits;
    const std::uint64_t misses =
        json_counter(daemon_metrics, "serve.memo.misses");
    const std::uint64_t hits = json_counter(daemon_metrics, "serve.memo.hits");
    const std::string why = check_memo_counts(misses, distinct, hits,
                                              hits_sent);
    checks.expect(why.empty(), "daemon memo: " + why);
    checks.expect_rejects(
        !check_memo_counts(misses + 1, distinct, hits, hits_sent).empty(),
        "daemon memo miss count off by one");

    const auto reps = attribute_reps(spans, "rep", {"serve.request"});
    checks.expect(print_breakdown("serve", reps, 8),
                  "layer self times sum to each traced round");

    // In-process engine costs: the timed rounds, then a warm hit and a
    // fresh miss one by one.
    timed = drive_engine(*engine, args.seed, args.seconds / 4, lanes);
    std::vector<double> hit_us;
    for (int i = 0; i < 200; ++i) {
      for (const Request& req : hit_set()) {
        const double t0 = now_s();
        (void)engine->run(req.opcode, req.payload);
        hit_us.push_back((now_s() - t0) * 1e6);
      }
    }
    std::vector<double> miss_ms;
    for (int i = 0; i < 50; ++i) {
      // Indices far above any round's, so these payloads are fresh too.
      const Request req = miss_request(args.seed, 0, 1, 100'000'000 + i);
      const double t0 = now_s();
      (void)engine->run(req.opcode, req.payload);
      miss_ms.push_back((now_s() - t0) * 1e3);
    }
    // The one-by-one misses are memoized too.
    timed->misses += miss_ms.size();
    timed->memoizable_hits += 200 * (hit_set().size() - 1);
    const double engine_hit_us = median(hit_us);
    result.metrics = {
        {"serve_rps", static_cast<double>(plain.attempted) / plain.wall_s,
         "1/s"},
        {"serve_hit_p50_ms", median(plain.hit_ms), "ms"},
        {"serve_miss_p50_ms", median(plain.miss_ms), "ms"},
        {"serve.hit_p99_ms", quantile(plain.hit_ms, 0.99), "ms"},
        {"serve.miss_p99_ms", quantile(plain.miss_ms, 0.99), "ms"},
        {"serve.engine_round_s", median(timed->block_s), "s"},
        {"serve.daemon_setup_s", median(daemon_setups), "s"},
        {"serve.engine_hit_us", engine_hit_us, "us"},
        {"serve.engine_miss_ms", median(miss_ms), "ms"},
        {"serve.transport_us", median(plain.hit_ms) * 1e3 - engine_hit_us,
         "us"},
        {"serve.memo.hits", static_cast<double>(hits), "count"},
        {"serve.memo.misses", static_cast<double>(misses), "count"},
        {"serve.plan_cache.misses",
         static_cast<double>(
             json_counter(daemon_metrics, "serve.plan_cache.misses")),
         "count"},
        {"serve.round_unattributed_s", median_unattributed(reps), "s"},
        {"obs.trace_overhead_s", median(traced.round_s) - median(plain.round_s),
         "s"},
    };
  }

  // The engine's memo answered each request once per distinct payload.
  {
    const auto stats = engine->memo_stats();
    const std::uint64_t distinct = (hit_set().size() - 1) + timed->misses;
    const std::string why = check_memo_counts(stats.misses, distinct,
                                              stats.hits,
                                              timed->memoizable_hits);
    checks.expect(why.empty(), "engine memo: " + why);
    checks.expect_rejects(!check_memo_counts(stats.misses, distinct,
                                             stats.hits + 1,
                                             timed->memoizable_hits)
                               .empty(),
                          "engine memo hit count off by one");
  }
  checks.expect(timed->consistent, "engine hits answered like warm-up");
  result.attempted += timed->attempted;
  result.failed += timed->failed;
  std::printf("engine: %llu requests on %u lanes, %zu rounds; round "
              "p5/p25/p50/p90 %.4f/%.4f/%.4f/%.4f ms; block mean "
              "p5/p50/p95 %.4f/%.4f/%.4f ms\n",
              static_cast<unsigned long long>(timed->attempted), lanes,
              timed->round_s.size(), quantile(timed->round_s, 0.05) * 1e3,
              quantile(timed->round_s, 0.25) * 1e3,
              median(timed->round_s) * 1e3,
              quantile(timed->round_s, 0.9) * 1e3,
              quantile(timed->block_s, 0.05) * 1e3, median(timed->block_s) * 1e3,
              quantile(timed->block_s, 0.95) * 1e3);

  for (const Phase& p : phases) {
    result.attempted += p.attempted;
    result.failed += p.failed;
    checks.expect(p.consistent, "repeated payloads answered identically");
    std::printf("daemon phase: %llu requests in %.3f s, %zu hits, %zu "
                "misses, %zu rounds; round p5/p25/p50/p90 "
                "%.3f/%.3f/%.3f/%.3f ms\n",
                static_cast<unsigned long long>(p.attempted), p.wall_s,
                p.hit_ms.size(), p.miss_ms.size(), p.round_s.size(),
                quantile(p.round_s, 0.05) * 1e3,
                quantile(p.round_s, 0.25) * 1e3, median(p.round_s) * 1e3,
                quantile(p.round_s, 0.9) * 1e3);
  }
  // Every distinct OK daemon response and every sampled engine response
  // against the one-shot path, byte for byte. The daemon is gone; two
  // threads keep the comparison from loading the whole machine right
  // before the next run.
  std::vector<const std::pair<const ResponseKey, std::string>*> distinct;
  for (const Phase& p : phases) {
    for (const auto& entry : p.responses) distinct.push_back(&entry);
  }
  std::map<ResponseKey, std::string> engine_answers;
  for (const Request& req : hit_set()) {
    engine_answers.emplace(key_of(req),
                           engine->run(req.opcode, req.payload).text);
  }
  for (const auto& [key, bytes] : timed->sampled) {
    engine_answers.emplace(key, bytes);
  }
  for (const auto& entry : engine_answers) distinct.push_back(&entry);
  const unsigned lanes_c = 2;
  std::vector<std::string> mismatch(lanes_c);
  std::vector<std::thread> checkers;
  for (unsigned lane = 0; lane < lanes_c; ++lane) {
    checkers.emplace_back([&, lane] {
      for (std::size_t i = lane; i < distinct.size(); i += lanes_c) {
        const auto& [key, bytes] = *distinct[i];
        const std::string why = check_same_bytes(
            fcm::serve::QueryEngine::one_shot(static_cast<Opcode>(key.first),
                                              key.second)
                .text,
            bytes);
        if (!why.empty() && mismatch[lane].empty()) {
          mismatch[lane] = key.second + ": " + why;
        }
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  for (const std::string& why : mismatch) {
    checks.expect(why.empty(), "responses equal one_shot: " + why);
  }
  std::printf("one_shot comparisons: %zu distinct responses\n",
              distinct.size());
  const auto& [key, bytes] = *phases.front().responses.begin();
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 1;
  checks.expect_rejects(
      !check_same_bytes(fcm::serve::QueryEngine::one_shot(
                            static_cast<Opcode>(key.first), key.second)
                            .text,
                        flipped)
           .empty(),
      "response with one flipped byte");
  return result;
}

}  // namespace fcmbench

// fcmbench: runs one named workload of the fcm benchmark and prints its
// metrics as the last line of standard output.
//
//   fcmbench --workload plan_scale|plan_sweep|assess|serve --seed N
//            --seconds S --trace 0|1 [--run-dir D] [--fcm-tool PATH]
//
// --trace 0 measures the end-to-end metrics with instrumentation off;
// --trace 1 is the separate traced run that yields the per-layer metrics.
// Both runs check the program's outputs. Normally started by run.py, which
// builds the program, sets FCM_THREADS and prints provenance first.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/simd.h"
#include "harness.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fcmbench --workload W --seed N --seconds S --trace 0|1"
               " [--run-dir D] [--fcm-tool PATH]\n");
  return 2;
}

// Full-precision JSON number (the driver compares raw measured values).
std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  fcmbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--run-dir") {
      args.run_dir = value;
    } else if (key == "--fcm-tool") {
      args.fcm_tool = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) {
    return usage();
  }

  std::printf("workload: %s  seed: %" PRIu64 "  seconds: %g  trace: %d  "
              "FCM_THREADS: %u  simd: %s\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0, fcmbench::fcm_threads(),
              fcm::simd::backend_name(fcm::simd::active_backend()));
  std::fflush(stdout);

  fcmbench::WorkloadResult result;
  try {
    if (args.workload == "plan_scale") {
      result = fcmbench::run_plan_scale(args);
    } else if (args.workload == "plan_sweep") {
      result = fcmbench::run_plan_sweep(args);
    } else if (args.workload == "assess") {
      result = fcmbench::run_assess(args);
    } else if (args.workload == "serve") {
      result = fcmbench::run_serve(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fcmbench: %s\n", error.what());
    return 1;
  }

  for (const std::string& failure : result.checks.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("checks: %d passed, %d broken inputs rejected, %zu failed\n",
              result.checks.passed(), result.checks.negatives(),
              result.checks.failures().size());
  std::printf("operations: %" PRIu64 " attempted, %" PRIu64 " failed\n",
              result.attempted, result.failed);

  std::string json = "{\"correct\": ";
  json += result.checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const fcmbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

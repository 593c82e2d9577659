#!/usr/bin/env python3
"""Build the fcm program from source and run one benchmark workload.

    python3 fcmbench/run.py --workload plan_scale|plan_sweep|assess|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
into .bench_build/ (CMake, the repository's RelWithDebInfo flags); later
runs only re-check the build. Each run prints its provenance (commit or
source digest, compiler and flags, CPU, hardware threads, FCM_THREADS,
SIMD backend, seed), the workload's own report and checks, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, where a layer the workload
does not exercise reads 0.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("plan_scale", "plan_sweep", "assess", "serve")
# FCM_THREADS of every workload, fixed so runs compare. Two of the machine's
# four hardware threads: using all four invites interference from other
# tenants of the machine into the figures. On serve the daemon's two workers
# and the generator's two connections make four.
THREADS = 2
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the build up to date. Output goes to
    .bench_build/build.log; the log's tail is shown on failure."""
    log_path = os.path.join(BUILD, "build.log")
    # Compiler temporaries stay inside the tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log,
                               env=env) != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                               stdout=log, stderr=log, env=env) == 0


def source_digest():
    """SHA-256 over the sources that make up the measured binaries."""
    digest = hashlib.sha256()
    paths = []
    for top in ("src", "examples", "fcmbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                       text=True,
                                       stderr=subprocess.DEVNULL).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def compiler_and_flags():
    """The compiler and the flags of one benchmark translation unit, read
    back from the build rather than restated."""
    compiler, flags = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD, "compile_commands.json")) as f:
            commands = json.load(f)
        entry = next(c for c in commands if c["file"].endswith("main.cpp"))
        words = entry["command"].split()
        compiler = words[0]
        flags = " ".join(w for w in words[1:]
                         if w.startswith(("-O", "-g", "-W", "-f", "-m", "-std",
                                          "-DNDEBUG", "-DFCM")))
        version = subprocess.check_output([compiler, "--version"], text=True)
        compiler = version.splitlines()[0]
    except (OSError, StopIteration, KeyError, ValueError,
            subprocess.CalledProcessError):
        pass
    return compiler, flags


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no fcm sources under {ROOT}/src; run from a source tree", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        with open(os.path.join(BUILD, "build.log")) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed; see .bench_build/build.log")

    compiler, flags = compiler_and_flags()
    print(f"commit: {commit()}  source digest: {source_digest()}")
    print(f"compiler: {compiler}")
    print(f"flags: {flags}")
    print(f"cpu: {cpu_model()}  nproc: {os.cpu_count()}  "
          f"affinity: {len(os.sched_getaffinity(0))}  seed: {args.seed}")
    sys.stdout.flush()

    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ, FCM_THREADS=str(THREADS))
    command = [os.path.join(BUILD, "fcmbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir,
               "--fcm-tool", os.path.join(BUILD, "fcm_tool")]
    # Own process group, so a timeout also takes down any daemon it started.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"fcmbench exited with {child.returncode}")
    result = json.loads(lines[-1])

    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    # The result must carry the metrics BENCHMARK.json names for this mode,
    # with their units. A per-layer metric of a layer this workload does not
    # exercise is reported as 0; an end-to-end metric is never missing.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    for name, value in metrics.items():
        declared = next((m for m in wanted if m["name"] == name), None)
        if declared is None or declared["unit"] != value["unit"]:
            fail(f"metric {name} [{value['unit']}] is not declared so in "
                 "BENCHMARK.json")
    complete = {}
    for m in wanted:
        if m["name"] in metrics:
            complete[m["name"]] = metrics[m["name"]]
        elif args.trace:
            complete[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"end-to-end metric {m['name']} missing")
    result["metrics"] = complete
    print(json.dumps(result))


if __name__ == "__main__":
    main()

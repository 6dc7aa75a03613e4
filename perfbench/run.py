#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is advisor_burst or instrumented_faults (the workloads BENCHMARK.json
lists), paper_ladder (the paper's campaign; its host times drift too much
between runs on a shared machine to hold a regression bound, so
BENCHMARK.json leaves it out; README.md), or all. Run from the repository
root. --trace 0 prints the end-to-end metrics (untraced
passes, plus a median of cold-start set-up probes); --trace 1 prints the
per-layer metrics of the traced pass, its span self times and the tracing
overhead. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. README.md describes the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper_ladder", "advisor_burst", "instrumented_faults")
SETUP_PROBES = 15
RUN_LIMIT_S = 170.0  # a run must end within 180 s once the build is done
BUILD_LIMIT_S = 880.0


class BenchError(Exception):
    pass


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 1:
        raise BenchError("out of time")
    return left


def build():
    """Configures and builds perfbench (and the library) in .bench_build/."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"]]
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=remaining(deadline)).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed:\n" + tail)


def run_binary(args, scratch, deadline):
    """Runs perfbench to completion; returns its last stdout line as JSON."""
    err_path = os.path.join(scratch, "stderr.txt")
    with open(err_path, "a") as err:
        proc = subprocess.run([BINARY] + args + ["--scratch", scratch], stdout=subprocess.PIPE,
                              stderr=err, text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        with open(err_path) as f:
            raise BenchError("perfbench exited %d:\n%s" % (proc.returncode, f.read()[-3000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


def setup_probe(base_args, scratch, deadline):
    """Process start -> first experiment result, cold, in a fresh process."""
    err_path = os.path.join(scratch, "stderr.txt")
    with open(err_path, "a") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([BINARY] + base_args + ["--mode", "setup", "--scratch", scratch],
                                stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(remaining(deadline), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait(timeout=remaining(deadline))
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or first.strip() != "first_result":
        raise BenchError("set-up probe failed (exit %s)" % proc.returncode)
    return elapsed, json.loads(rest.strip().splitlines()[-1])


def check_artifacts(scratch):
    """The last instrumented run's exports must be well-formed."""
    for name in ("trace.json", "metrics.json", "telemetry.json", "decisions.json",
                 "degradation.json", "profile.json"):
        with open(os.path.join(scratch, name)) as f:
            json.load(f)
    with open(os.path.join(scratch, "report.html")) as f:
        if "<html" not in f.read(4096).lower():
            raise BenchError("report.html is not an HTML document")


def run_workload(workload, seed, seconds, trace, spec, deadline):
    scratch = os.path.join(ROOT, ".bench_build", "scratch", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds))]
    try:
        if trace:
            out = run_binary(base + ["--mode", "trace"], scratch, deadline)
            out["correct"] = out["failed"] == 0 and out["metrics"]["trace.replica_mismatches"] == 0
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            out["spans_file"] = os.path.join(traces, "%s-seed%d.spans.jsonl" % (workload, seed))
            shutil.move(os.path.join(scratch, "spans.jsonl"), out["spans_file"])
            names = [m["name"] for m in spec["per_layer"]]
        else:
            setup, attempted, failed = [], 0, 0
            for _ in range(SETUP_PROBES):
                elapsed, probe = setup_probe(base, scratch, deadline)
                setup.append(elapsed)
                attempted += probe["attempted"]
                failed += probe["failed"]
            out = run_binary(base + ["--mode", "measure"], scratch, deadline)
            out["metrics"]["setup_s"] = statistics.median(setup)
            out["setup_samples"] = setup
            out["attempted"] += attempted
            out["failed"] += failed
            out["correct"] = out["failed"] == 0 and out["metrics"]["paper_gap_pp"] >= 0
            if workload == "instrumented_faults":
                try:
                    check_artifacts(scratch)
                except (OSError, ValueError, BenchError) as e:
                    out["correct"] = False
                    out["first_failure"] = "artifact check: %s" % e
            names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        if sorted(out["metrics"]) != sorted(names):
            raise BenchError("metric names differ from BENCHMARK.json: %s" %
                             sorted(set(out["metrics"]) ^ set(names)))
        out["metrics"] = {n: {"value": out["metrics"][n], "unit": units[n]} for n in names}
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(out, seconds, trace):
    w = out["workload"]
    print("== %s  seed=%d  --seconds %g  --trace %d" % (w, out["seed"], seconds, trace))
    failed_frac = out["failed"] / max(1, out["attempted"])
    print("  correct=%s  attempted=%d  failed=%d  failed_frac=%.6g%s" % (
        out["correct"], out["attempted"], out["failed"], failed_frac,
        ("  first failure: " + out["first_failure"]) if out["first_failure"] else ""))
    print("  digest %s over %d experiments (%d sim tasks, %.17g s simulated, %.17g J)" % (
        out["digest"], out["digest_experiments"], out["sim_tasks"], out["sim_makespan_s"],
        out["sim_energy_j"]))
    if trace:
        print("  untraced pass %.1f ms, traced pass %.1f ms; spans in %s" % (
            out["untraced_ms"], out["traced_ms"], out["spans_file"]))
        print("  %-28s %8s %12s %12s" % ("span", "count", "total_ms", "self_ms"))
        for s in sorted(out["spans"], key=lambda s: -s["self_ms"]):
            print("  %-28s %8d %12.3f %12.3f" % (s["name"], s["count"], s["total_ms"],
                                                  s["self_ms"]))
    else:
        print("  window %.2f s, %d passes, %d run-time samples" % (
            out["window_s"], out["passes"], out["run_ms_samples"]))
        print("  setup probes (s): %s" % " ".join("%.4f" % s for s in out["setup_samples"]))
        if out["run_ms_samples"] < 100:
            print("  WARNING: under 100 run-time samples, so run_ms_p90 is not resolved; "
                  "use a longer --seconds")
    for name, m in out["metrics"].items():
        print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
    if not trace:
        print("  %-28s %16.6f %s" % ("failed_frac", failed_frac, "ratio"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        outs = []
        for w in workloads:
            deadline = time.monotonic() + RUN_LIMIT_S
            outs.append(run_workload(w, args.seed, args.seconds, args.trace, spec, deadline))
            report(outs[-1], args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    if len(outs) == 1:
        metrics = outs[0]["metrics"]
    else:
        metrics = {"%s.%s" % (o["workload"], n): m for o in outs for n, m in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Builds perfbench/ (and with it
the library under src/) into the build directory, runs the workload one
instance per single-threaded process for --seconds, checks its outputs,
prints every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the `end_to_end` list of BENCHMARK.json with --trace 0
and the `per_layer` list with --trace 1.  Metrics that exist on one
workload only (the lossy_pipeline stage times, obs.*, fail_ratio) are
printed above that line.  See perfbench/README.md.

--tiny runs every workload at a fraction of a second (the benchmark's own
test uses it).  The build goes to $CARGO_TARGET_DIR, else .bench_build.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
MIN_SETUPS = 7  # setup_s is the median of at least this many setups


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; return the binary path.

    The build tree is keyed by this checkout's path, so a build directory
    shared between checkouts never runs another checkout's code.
    """
    key = hashlib.sha1(HERE.encode()).hexdigest()[:10]
    out = os.path.join(build_dir, "perfbench-" + key)
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    # Keep compiler temporaries inside the checkout.
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, env=env, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, env=env, stdout=sys.stderr)
    return os.path.join(out, "urn_perfbench")


def git_provenance():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_revision": "unknown (not a git checkout)",
                "git_dirty": None}
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True,
                               check=True).stdout.strip() != ""
        return {"git_revision": rev, "git_dirty": dirty}
    except (OSError, subprocess.CalledProcessError):
        return {"git_revision": "unknown", "git_dirty": None}


def comparable(prov):
    """Only portable optimized builds give numbers worth comparing."""
    flags = prov.get("cxx_flags", "")
    reasons = []
    if prov.get("build_type") != "Release":
        reasons.append("build type " + str(prov.get("build_type")))
    if "-fsanitize" in flags:
        reasons.append("sanitizer build")
    if "-march=native" in flags:
        reasons.append("-march=native (URN_NATIVE) build")
    return not reasons, reasons


def run_instance(binary, args, workdir, instance, deadline, setup_only=False):
    """One process, one instance; returns its JSON report."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--instance", str(instance), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a timeout kills the forked worker too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"urn_perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def aggregate(reports):
    """Combine per-process metrics: medians of timings, instance 0's exact
    counts, the maximum of `max` metrics."""
    out, samples = {}, {}
    for r in reports:
        for name, m in r["metrics"].items():
            samples.setdefault(name, []).append(m["value"])
            out.setdefault(name, dict(m))
    for name, m in out.items():
        v = samples[name]
        m["value"] = {"median": statistics.median, "first": lambda x: x[0],
                      "max": max}[m["agg"]](v)
        m["samples"] = len(v)
    return out


def measure(binary, args, workdir):
    """Launch instances 0, 1, ... while the next one is expected to end
    within --seconds (at least one always runs); then top setup_s up to
    MIN_SETUPS samples with setup-only processes."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    start, longest = time.monotonic(), 0.0
    reports = []
    while not reports or time.monotonic() - start + longest <= args.seconds:
        t0 = time.monotonic()
        reports.append(run_instance(binary, args, workdir, len(reports),
                                    deadline))
        longest = max(longest, time.monotonic() - t0)
        if reports[-1]["failures"]:
            break
    setups = [] if args.trace else [
        run_instance(binary, args, workdir, len(reports) + k, deadline,
                     setup_only=True)
        for k in range(max(0, MIN_SETUPS - len(reports)))]
    metrics = aggregate(reports + setups)
    if args.trace:
        metrics["radio.trace_overhead"] = {
            "value": statistics.median(
                r["metrics"]["radio.stepped_loop_s"]["value"]
                for r in reports) / statistics.median(
                r["metrics"]["radio.loop_s"]["value"] for r in reports) - 1,
            "unit": "ratio", "agg": "median", "samples": len(reports)}
    failures = [f for r in reports + setups for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reports + setups)
    return reports, metrics, failures, attempted


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"error: unknown workload {args.workload!r}; one of {names}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runner.hpp")):
        log(f"error: no library sources under {ROOT}/src")
        return 2
    binary = build(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    out_dir = os.path.dirname(binary)
    workdir = os.path.join(out_dir, "work", f"{args.workload}-{os.getpid()}")
    started = time.monotonic()
    try:
        reports, metrics, problems, attempted = measure(binary, args, workdir)
        spans = []
        for r in reports:
            path = os.path.join(workdir, f"spans-{r['instance']}.json")
            if os.path.exists(path):
                with open(path) as f:
                    spans += json.load(f)
        if spans:
            with open(os.path.join(
                    out_dir, f"spans-{args.workload}-seed{args.seed}.json"),
                    "w") as f:
                json.dump(spans, f, indent=0)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"error: {args.workload}: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = dict(reports[0]["provenance"])
    prov.update(git_provenance())
    prov["nproc"] = len(os.sched_getaffinity(0))
    prov["instances"] = len(reports)
    prov["comparable"], why = comparable(prov)
    if why:
        prov["not_comparable_because"] = why
    metrics["fail_ratio"] = {"value": len(problems) / max(attempted, 1),
                             "unit": "failed/attempted", "agg": "first",
                             "samples": 1}

    result = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} missing or not finite")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        result[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  wall {time.monotonic() - started:.1f} s")
    for k, v in sorted(prov.items()):
        print(f"  provenance.{k} = {v}")
    for name, v in sorted(metrics.items()):
        tail = {"median": f"  (median of {v['samples']})",
                "max": f"  (max of {v['samples']})",
                "first": "  (instance 0)"}[v["agg"]] if v["samples"] > 1 else ""
        print(f"  {name} = {v['value']:.9g} {v['unit']}{tail}")
    if reports[0]["exact"] is not None:
        print(f"  exact (instance 0) = {json.dumps(reports[0]['exact'])}")
    for p in problems:
        print(f"  FAILED: {p}")

    attempted = max(attempted, 1)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": min(len(problems), attempted),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(1)

#!/usr/bin/env python3
"""Build and run the allocator benchmark (perfbench/allocbench.ml).

    python3 perfbench/run.py --workload threadtest|larson|exchange \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere; the repository root is this file's parent directory.
The benchmark is built from source with dune (dune cache off, so
nothing is written outside the repository), then run. Its last output
line is one JSON object with the keys correct, attempted, failed and
metrics. An untraced run is split over ten processes and reports the
median over them; each process sets up once, so setup_s is the median
of ten set-ups. A traced run is one process; it also writes its
spans as a Chrome trace to perfbench/_out/spans-<workload>.json.

--self-test checks, on a tiny run of every workload, that every metric
BENCHMARK.json names is printed with its unit and no op fails, and that
a planted fault (a block handed out twice) is caught as failed ops.
A run whose warm-up or gc probe issues fewer calls than it should
aborts, so the self-test catches that as a failed exit too.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "allocbench.exe")
WORKLOADS = ["threadtest", "larson", "exchange"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# An untraced run is split over this many processes, one after another.
# The 2-domain rates of one process sit at a level that holds for the
# whole process but differs between processes (consecutive 8-second
# processes of one workload ranged over 1.6x while their rounds agreed
# within each), so the reported value is the median over processes.
PROCESSES = 10
# Every domain gets an 8 MiB (1M-word) minor heap. Each minor
# collection stops both domains; with the default 256k words the paper
# allocator's ~36 OCaml words per op made one 64-call batch in ~60 carry
# a collection, so its p99 measured pause length (1.7-2.6 us per call
# on larson). At 1M words it measures the allocator (0.75-0.92 us).
# OCAMLRUNPARAM is the one setting that reaches domains spawned later.
BENCH_ENV = dict(os.environ, OCAMLRUNPARAM="s=1M")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found under %s: not a checkout of the repository"
                 % (need, ROOT), 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/allocbench.exe"],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed", 3)


def bench_args(workload, seed, seconds, trace, extra=()):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace == 1:
        out = os.path.join(ROOT, "perfbench", "_out")
        os.makedirs(out, exist_ok=True)
        args += ["--spans", os.path.join(out, "spans-%s.json" % workload)]
    return args + list(extra)


def run(args, capture, timeout=RUN_TIMEOUT_S):
    try:
        r = subprocess.run(args, cwd=ROOT, env=BENCH_ENV, timeout=timeout,
                           text=True,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 4)
    return r


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def untraced(workload, seed, seconds):
    """Runs PROCESSES processes and combines their results: every
    metric is the median over processes, ops are summed."""
    results = []
    for i in range(PROCESSES):
        r = run(bench_args(workload, seed, seconds / PROCESSES, 0),
                capture=True, timeout=RUN_TIMEOUT_S / PROCESSES)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            fail("benchmark process %d failed" % i, 5)
        print("== process %d of %d" % (i + 1, PROCESSES))
        print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))
    first = results[0]["metrics"]
    combined = {
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": {
            name: {"value": median([res["metrics"][name]["value"]
                                    for res in results]),
                   "unit": m["unit"]}
            for name, m in first.items()
        },
    }
    print(json.dumps(combined))


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []

    def result(workload, trace, extra=()):
        r = run(bench_args(workload, 1, 1, trace, extra), capture=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            problems.append("%s trace %d: exit %d" % (workload, trace,
                                                       r.returncode))
            return None
        return json.loads(lines[-1])

    for w in WORKLOADS:
        for trace in (0, 1):
            res = result(w, trace)
            if res is None:
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s trace %d: %d of %d ops failed"
                                % (w, trace, res["failed"], res["attempted"]))
            got = res["metrics"]
            for m in wanted[trace]:
                g = got.get(m["name"])
                if g is None or g.get("unit") != m["unit"] \
                        or not isinstance(g.get("value"), (int, float)):
                    problems.append("%s trace %d: metric %s missing or wrong"
                                    % (w, trace, m["name"]))
            extra = set(got) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append("%s trace %d: unlisted metrics %s"
                                % (w, trace, sorted(extra)))
        res = result(w, 0, ["--faulty"])
        if res is not None and (res["correct"] or res["failed"] == 0):
            problems.append("%s: planted double hand-out not caught" % w)
        elif res is not None:
            print("%s: planted fault caught, %d of %d ops failed"
                  % (w, res["failed"], res["attempted"]))
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        build()
        sys.exit(self_test())
    if a.workload is None or a.seed is None or a.seconds is None \
            or a.trace is None or a.seconds < 1:
        p.error("--workload, --seed, --seconds (>= 1) and --trace are required")
    build()
    if a.trace == 0:
        untraced(a.workload, a.seed, a.seconds)
    else:
        sys.stdout.flush()
        sys.exit(run(bench_args(a.workload, a.seed, a.seconds, 1),
                     capture=False).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of the SERvartuka simulator on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator libraries under src/ and
the benchmark binary in Release into .bench_build/perfbench (build output
goes to stderr), then runs reps of the workload, each a fresh
`svk_perfbench` process (see main.cpp), for about S seconds. Lines starting
with '#' describe each rep; the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics:
  host_us_per_call  host µs per simulated call attempted in the measured
                    window. Every window is simulated in 1 s slices whose
                    simulated work repeats exactly from window to window;
                    host interference only adds time, so each slice's
                    fastest repetition is kept and the median over slices
                    is reported.
  setup_s           median over reps of bed construction + start_load +
                    warm-up simulation.
  peak_rss_mb       median over reps of the rep process's peak RSS.
--trace 1 reports the per-layer metrics, from interleaved rounds of a timed,
an observed and a traced rep: the exact counts (which must repeat between
reps), obs.on_ratio and trace.overhead (window time over the timed rep's),
and the traced rep's host time split by element (host.*, which sum to the
traced window time). The traced rep's spans are written to
.bench_build/spans/<workload>-seed<N>.csv.

Correctness: every rep's RunRecord digest must equal the workload's pinned
digest at the default seed (and at any other seed, every other rep's), and
at --trace 1 so must the digest workload::measure_point gives for the same
window. If any check fails, or a rep crashes or hangs, every call attempted
in the run counts as failed. Exits non-zero, without printing a result, when
the build fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "svk_perfbench")

# Measured windows per bed in the end-to-end mode: extra timing samples
# that cost no further warm-up.
WINDOWS_PER_BED = 8
MIN_REPS = 3
MIN_TRACE_ROUNDS = 2
REP_TIMEOUT_S = 120


class RepFailed(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources at src/; cannot build")
    commands = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        commands.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    commands.append(["cmake", "--build", BUILD_DIR, "--target",
                     "svk_perfbench", "-j", jobs])
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr, cwd=ROOT).returncode:
            sys.exit("perfbench: build failed: " + " ".join(command))


def run_rep(workload, seed, mode, windows=1, spans_out=None):
    """Runs one rep in its own process and returns its JSON record."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--windows", str(windows)]
    if spans_out:
        command += ["--spans-out", spans_out]
    # The binary clears these itself; dropping them here as well keeps the
    # ambient environment from reaching anything it starts.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SVK_")}
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed("%s rep timed out" % mode)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed("%s rep exited with %d" % (mode, proc.returncode))
    rep = json.loads(lines[-1])
    rep["mode"] = mode
    if "attempted" in rep:
        print("# %(workload)s seed=%(seed)d mode=%(mode)s shards=%(shards)d "
              "threads=%(threads)d digest=%(digest)s setup_s=%(setup_s).4f "
              "window_s=%(window_s).4f calls=%(attempted)d "
              "events=%(events)d peak_rss_mb=%(peak_rss_mb).1f" % rep)
    else:
        print("# %(workload)s seed=%(seed)d mode=%(mode)s digest=%(digest)s"
              % rep)
    sys.stdout.flush()
    return rep


class Budget:
    """Starts another rep only while one more of the longest seen fits."""

    def __init__(self, seconds):
        self.start = time.monotonic()
        self.seconds = seconds
        self.longest = 0.0

    def timed(self, fn, *args, **kwargs):
        t0 = time.monotonic()
        result = fn(*args, **kwargs)
        self.longest = max(self.longest, time.monotonic() - t0)
        return result

    def left(self):
        return time.monotonic() - self.start + self.longest <= self.seconds


def median_of_slice_minima(windows):
    minima = [min(column) for column in zip(*windows)]
    return statistics.median(minima)


def end_to_end(args, reps):
    budget = Budget(args.seconds)
    while len(reps) < MIN_REPS or budget.left():
        reps.append(budget.timed(run_rep, args.workload, args.seed, "timed",
                                 WINDOWS_PER_BED))
    windows = [w for rep in reps for w in rep["windows"]]
    return {
        "host_us_per_call": (median_of_slice_minima(windows), "us"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
    }


def per_layer(args, reps):
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, "%s-seed%d.csv" % (args.workload,
                                                      args.seed))
    budget = Budget(args.seconds)
    rounds = 0
    while rounds < MIN_TRACE_ROUNDS or budget.left():
        for mode in ("timed", "observed", "traced"):
            out = spans if mode == "traced" and rounds == 0 else None
            reps.append(budget.timed(run_rep, args.workload, args.seed, mode,
                                     spans_out=out))
        rounds += 1
    reps.append(run_rep(args.workload, args.seed, "runner"))

    def of(mode):
        return [r for r in reps if r["mode"] == mode]

    timed, observed, traced = of("timed"), of("observed"), of("traced")
    counts = timed[0]["counts"]
    for rep in timed[1:]:
        for name, count in counts.items():
            if rep["counts"][name]["value"] != count["value"]:
                raise RepFailed("count %s differs between reps: %r vs %r" % (
                    name, count["value"], rep["counts"][name]["value"]))
    metrics = {name: (c["value"], c["unit"]) for name, c in counts.items()}
    metrics["workload.construct_s"] = (
        statistics.median(r["construct_s"] for r in timed), "s")
    metrics["workload.warmup_s"] = (
        statistics.median(r["setup_s"] - r["construct_s"] for r in timed),
        "s")
    untraced = statistics.median(r["window_s"] for r in timed)
    metrics["obs.on_ratio"] = (
        statistics.median(r["window_s"] for r in observed) / untraced,
        "ratio")
    calls = sum(r["attempted"] for r in traced)
    for element in ("proxy", "uac", "uas", "other"):
        seconds = sum(r["element_s"][element] for r in traced)
        metrics["host.%s_us_per_call" % element] = (seconds * 1e6 / calls,
                                                    "us")
    metrics["host.us_per_event"] = (
        sum(r["window_s"] for r in traced) * 1e6
        / sum(r["events"] for r in traced), "us")
    metrics["trace.overhead"] = (
        statistics.median(r["window_s"] for r in traced) / untraced, "ratio")
    return metrics


def digests_agree(reps):
    pinned = reps[0].get("pinned_digest")
    expected = pinned if pinned is not None else reps[0]["digest"]
    wrong = [r for r in reps if r["digest"] != expected]
    for rep in wrong:
        print("# %s rep digest %s differs from the %s %s" % (
            rep["mode"], rep["digest"],
            "pinned" if pinned is not None else "first rep's", expected))
    return not wrong


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    reps = []
    try:
        metrics = (per_layer if args.trace else end_to_end)(args, reps)
        correct = digests_agree(reps)
    except RepFailed as failure:
        print("# run failed: %s" % failure)
        metrics, correct = {}, False
    attempted = max(1, sum(r.get("attempted", 0) for r in reps))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Run from the repository root (about half a minute after the build). Builds
the benchmark as run.py does, then checks, for every workload:
  * two timed reps, each in its own process, match the pinned digest and
    report exactly the same per-layer counts;
  * the event slab and the message pool do not grow in the measured window;
  * the observed rep, the traced rep and workload::measure_point itself
    match the pinned digest too, and the traced rep's element times tile
    its window;
  * at a non-default seed, two reps agree on one digest;
and that SVK_SIM_SHARDS in the environment leaves the bed serial and the
digest unchanged. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step and rep runner)

WORKLOADS = ["fig5_servartuka", "fig5_overload", "wide_fork"]


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)
    print("ok:", message)


def values(rep):
    return {name: c["value"] for name, c in rep["counts"].items()}


def main():
    run.build()
    for w in WORKLOADS:
        first = run.run_rep(w, 1, "timed")
        second = run.run_rep(w, 1, "timed")
        pinned = first["pinned_digest"]
        check(first["digest"] == pinned and second["digest"] == pinned,
              "%s: timed reps match the pinned digest" % w)
        a, b = values(first), values(second)
        check(a == b, "%s: all %d counts repeat exactly across processes"
              % (w, len(a)))
        # Under overload a new peak of live events or messages can in
        # principle land in the window; at the pinned seed none does.
        check(a["sim.event_slab_allocs"] == 0
              and a["sip.msg_fresh_allocs"] == 0,
              "%s: no event-slab or message-pool growth in the window" % w)

        observed = run.run_rep(w, 1, "observed")
        check(observed["digest"] == pinned,
              "%s: observed rep matches the pinned digest" % w)
        traced = run.run_rep(w, 1, "traced")
        parts = sum(traced["element_s"].values())
        check(traced["digest"] == pinned
              and abs(parts - traced["window_s"]) < 1e-9
              and all(s > 0 for s in traced["element_s"].values()),
              "%s: traced rep matches the pin; %s tile its window" % (
                  w, "+".join(traced["element_s"])))
        check(run.run_rep(w, 1, "runner")["digest"] == pinned,
              "%s: workload::measure_point gives the pinned digest" % w)

        other = [run.run_rep(w, 7, "timed")["digest"] for _ in range(2)]
        check(other[0] == other[1], "%s: seed 7 reps agree" % w)

    env = dict(os.environ, SVK_SIM_SHARDS="4")
    proc = subprocess.run(
        [run.BINARY, "--workload", "fig5_servartuka", "--seed", "1"],
        stdout=subprocess.PIPE, text=True, env=env, check=True)
    rep = json.loads(proc.stdout.splitlines()[-1])
    check(rep["shards"] == 1 and rep["threads"] == 1
          and rep["digest"] == rep["pinned_digest"],
          "SVK_SIM_SHARDS=4 is ignored: serial bed, pinned digest")
    print("all perfbench checks passed")


if __name__ == "__main__":
    main()

"""Benchmark of the orbifold package: three closed-loop workloads.

    python3 bench/run.py --workload series_deep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --record

A run repeats the workload's operation list (see ``workloads.py``) for
about ``--seconds`` seconds, at least three times untraced (or once
untraced and once traced with ``--trace 1``), each repetition in a
fresh interpreter (``worker.py``) so that no ``lru_cache`` carries over.
``ORBIFOLD_THREADS`` is removed from the workers' environment, so the
library's default thread count applies, as it does for a user.  Set-up is
sampled at least eleven times per run, by extra set-up-only interpreters
when the repetitions alone are fewer.

Every repetition runs the same operations on the same inputs, so the
timings are taken per operation at its best over the repetitions (see
``best_of_reps``).  The cores of a shared host run up to 1.7 times slower
in spells of a fraction of a second to tens of seconds; a median over
single latencies jumps by that much when a run spends more than half its
time slow, while an operation's best of many repetitions falls in a slow
spell only when all of them do.

With ``--trace 0`` the run reports the end-to-end metrics; ``error_rate``
is printed beside them and carried by the ``failed`` and ``attempted``
counts of the result line.  With ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones,
plus ``trace.overhead_s``, the traced minus the untraced median wall time.

Every output is checked (``oracles.py``, and the digests in
``expected.json`` recorded from the code the benchmark was written
against).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record``
rewrites ``expected.json`` from the current code; use it only for a change
that is meant to change outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("series_deep", "series_sweep", "invariants")
MIN_REPS = 3
SETUP_SAMPLES = 11
DEADLINE_S = 170  # a run must end within 180 s
TAIL_ABOVE = 10

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {name: "s" for name in (
    "genfun.rank2_vb_csets.self_s", "genfun.rank2_vb_r0.self_s",
    "genfun.rank2_vb_lambda.self_s", "genfun.rank2_vb_closed_p12.self_s",
    "genfun.crosscheck.self_s", "genfun.rank1_series.self_s",
    "genfun.vb_to_tf.self_s", "exact.HalfExpLaurent.mul.self_s",
    "exact.HalfExpLaurent.init.self_s", "exact.geometric_factor.self_s",
    "exact.Cyclotomic.self_s", "geometry.euler_characteristic.self_s",
    "geometry.hilbert_polynomial.self_s",
    "geometry.modified_hilbert_polynomial.self_s",
    "intlattice.smith_normal_form.self_s", "intlattice.integer_kernel.self_s",
    "intlattice.lattices_equal.self_s", "stackyfan.hirzebruch_fan.self_s",
    "stackyfan.projective_bundle.self_s",
    "stackyfan.fans_equal_up_to_ray_order.self_s",
    "sheafdata.stability_check.self_s", "sheafdata.rank2_c1_chi.self_s",
    "cli.main.self_s", "intlattice.self_s", "stackyfan.self_s",
    "exact.self_s", "geometry.self_s", "sheafdata.self_s", "genfun.self_s",
    "cli.self_s", "trace.overhead_s")}
PER_LAYER.update({name: "count" for name in (
    "exact.HalfExpLaurent.mul.calls", "exact.HalfExpLaurent.mul.term_pairs",
    "exact.HalfExpLaurent.init.calls", "exact.Cyclotomic.calls",
    "geometry.euler_characteristic.calls",
    "geometry.modified_euler_characteristic.calls", "genfun.window_slots")})
PER_LAYER["genfun.slots_per_s"] = "1/s"


class WorkerFailed(RuntimeError):
    pass


def spawn(args, mode, timeout):
    """One fresh interpreter running ``worker.py``; returns its result."""
    env = dict(os.environ)
    env.pop("ORBIFOLD_THREADS", None)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker exceeded %.0f s" % (mode, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("%s worker exited %d: %s" % (
            mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def best_of_reps(plain):
    """Each operation's lowest latency over the untraced repetitions.

    Operation i does the same work in every repetition (same inputs, same
    caches filled before it, a fresh interpreter each time), so its lowest
    latency is that work with the least interference from the host.
    """
    runs = [r["latencies"] for r in plain]
    if len({len(x) for x in runs}) != 1:
        raise WorkerFailed("repetitions ran %s operations"
                           % sorted({len(x) for x in runs}))
    return [min(col) for col in zip(*runs)]


def tail(best):
    """The latency at the highest percentile with TAIL_ABOVE operations
    above it.  Returns (latency, percentile, operations above, operations).
    """
    ordered = sorted(best)
    n = len(ordered)
    k = max(n - TAIL_ABOVE - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1, n


def run_reps(args, start):
    """Repetitions until the next one would overrun ``--seconds``."""
    plain, traced, last = [], [], {}
    while True:
        mode = "trace" if args.trace and len(traced) < len(plain) else "run"
        done = plain if mode == "run" else traced
        elapsed = time.perf_counter() - start
        if args.trace:
            enough = bool(plain) and bool(traced)
        else:
            enough = len(plain) >= MIN_REPS
        if enough and elapsed + last.get(mode, 0.0) > args.seconds:
            break
        t0 = time.perf_counter()
        done.append(spawn(args, mode, DEADLINE_S - elapsed))
        last[mode] = time.perf_counter() - t0
    return plain, traced


def end_to_end(plain, setups):
    walls = [r["wall_s"] for r in plain]
    best = best_of_reps(plain)
    tail_s, pct, above, n = tail(best)
    q1, q3 = quartiles(walls)
    metrics = {
        "wall_s": math.fsum(best),
        "setup_s": statistics.median(setups),
        "call_p50_ms": statistics.median(best) * 1e3,
        "call_tail_ms": tail_s * 1e3,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
    }
    best_of = "each call at its best of %d repetitions" % len(plain)
    notes = {
        "wall_s": "%s; whole repetitions: median %.4f q1 %.4f q3 %.4f"
                  % (best_of, statistics.median(walls), q1, q3),
        "setup_s": "median of %d set-ups" % len(setups),
        "call_p50_ms": "%d calls, %s" % (n, best_of),
        "call_tail_ms": "p%.3f, %d of %d calls above it" % (pct, above, n),
        "peak_rss_mib": "median over %d repetitions" % len(plain),
    }
    return metrics, notes


def per_layer(plain, traced):
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        metrics[name] = statistics.median(r["layers"][name] for r in traced)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    return metrics


def trace_problems(traced):
    """Self times must be nonnegative and add up to the traced wall time."""
    out = []
    for r in traced:
        gap = r["wall_s"] - r["main_self_s"]
        print("trace: self times sum to %.6f s of %.6f s traced wall"
              % (r["main_self_s"], r["wall_s"]))
        if r["min_self_s"] < -1e-6:
            out.append("negative self time %.3g s" % r["min_self_s"])
        if not 0 <= gap <= 0.05 * r["wall_s"] + 1e-3:
            out.append("self times sum to %.6f s, traced wall is %.6f s"
                       % (r["main_self_s"], r["wall_s"]))
    return out


def measure(args):
    start = time.perf_counter()
    plain, traced = run_reps(args, start)
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        elapsed = time.perf_counter() - start
        setups.append(spawn(args, "setup", DEADLINE_S - elapsed)["setup_s"])

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    env = plain[0]["env"]
    print("env: " + " ".join("%s=%s" % kv for kv in sorted(env.items())))
    print("workload %s seed %d size %s: %d untraced, %d traced repetitions"
          % (args.workload, args.seed, args.size, len(plain), len(traced)))
    for r in reps:
        for note in r["notes"]:
            print("failure: " + note)
    problems = trace_problems(traced)
    for p in problems:
        print("trace problem: " + p)
    print("error_rate: %.6f (%d of %d operations failed)"
          % (failed / attempted, failed, attempted))

    if args.trace:
        values, units, notes = per_layer(plain, traced), PER_LAYER, {}
    else:
        (values, notes), units = end_to_end(plain, setups), END_TO_END
    for name, value in values.items():
        print("%s: %r %s%s" % (name, value, units[name],
                               "  (%s)" % notes[name] if name in notes else ""))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def record(args):
    """Rewrite expected.json with the output digests of the current code."""
    digests = {}
    for size in ("full", "tiny"):
        for workload in WORKLOADS:
            args.workload, args.size = workload, size
            res = spawn(args, "record", 3600)
            if res["failed"]:
                raise WorkerFailed("%s (%s) failed its oracles while "
                                   "recording: %s" % (workload, size,
                                                      res["notes"]))
            digests.update(res["digests"])
    with open(EXPECTED, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests in %s" % (len(digests), EXPECTED))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own tests")
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from the current code")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record(args)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args)
    except WorkerFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

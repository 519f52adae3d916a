"""Closed-loop measurement of the workloads: end-to-end and traced runs.

Untraced runs loop over whole rounds of seeded operations until the wall
clock passes the deadline, and report their times scaled to the reference
speed of ``reference.py`` (see HostSpeed), since the shared hosts this
runs on change speed by up to a factor of two.  Traced runs replay a fixed
number of rounds, once without and once with spans, so their counts repeat
exactly for a seed and the two passes give the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference
import tracer as tracer_mod
import workloads
from reference import REFERENCE_S
from workloads import CYCLE_ROUNDS, FAIL, KNOWN, OK

RUN_PY = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("verify-rational", "engine-poly", "laurent-valuation", "cli-mixed")
DEFAULT_SEED = 1
# fresh interpreters timed per run, spread evenly over the timed phase so
# that their median follows the whole run rather than one moment of it
SETUP_REPEATS = 15
# reference kernels timed before and after each set-up sample
SETUP_KERNELS = 3
# seconds between reference kernel samples during the timed phase
SAMPLE_EVERY_S = 0.05
# rounds of inputs a set-up builds; later rounds are drawn between operations
SETUP_ROUNDS = 2
# rounds replayed by a traced run, whole cycles; fixed so that its counts
# repeat exactly
TRACE_ROUNDS = {
    "verify-rational": 2 * CYCLE_ROUNDS,
    "engine-poly": 6 * CYCLE_ROUNDS,
    "laurent-valuation": 3 * CYCLE_ROUNDS,
    "cli-mixed": CYCLE_ROUNDS,
}


class Tally:
    def __init__(self):
        self.rounds = []  # per round, each operation's seconds
        self.passed = 0
        self.failed = 0
        self.known = 0
        self.failures = []

    @property
    def attempted(self):
        return sum(len(lats) for lats in self.rounds)


class HostSpeed:
    """Times the reference kernel between operations, off the clock: after
    an operation once SAMPLE_EVERY_S has passed since the last sample, and
    at the end of every round.  The scale of a round is REFERENCE_S over the
    mean kernel time in its cycle; a time multiplied by it reads as at the
    reference speed.  The mean, not the median: the host's speed swings
    within a cycle, and the operations' summed time follows its mean."""

    def __init__(self):
        reference.kernel()  # warm up
        self.samples = defaultdict(list)  # per cycle
        self.last = time.perf_counter()

    def sample(self, round_index, force=False):
        if force or time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.samples[round_index // CYCLE_ROUNDS].append(reference.timed())
            self.last = time.perf_counter()

    def scale(self, round_index):
        return REFERENCE_S / statistics.fmean(self.samples[round_index // CYCLE_ROUNDS])

    def scaled_latencies(self, tally):
        return [t * self.scale(i) for i, lats in enumerate(tally.rounds) for t in lats]


def build(workload, seed, root):
    """The workload's round source with its first rounds already drawn."""
    source = workloads.rounds(workload, seed, root)
    first = list(itertools.islice(source, SETUP_ROUNDS))
    return itertools.chain(first, source)


def run_rounds(source, tally, speed, tracer=None, deadline=None, rounds=None, between=None):
    """Run whole cycles of rounds until the deadline passes, or run
    ``rounds`` rounds.  Only ``op.run()`` is timed; the check runs after
    the clock stops.  ``speed`` samples between operations, and
    ``between(done)``, if given, is called and returns the seconds it
    took, which move the deadline."""
    done = 0
    for ops in source:
        lats = []
        for op in ops:
            out = err = None
            if tracer is not None:
                tracer.tag = op.p
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # judged by the check, like any output
                err = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            lats.append(dt)
            try:
                verdict = op.check(out, err)
            except Exception as exc:
                verdict, err = FAIL, exc
            if verdict == OK:
                tally.passed += 1
            elif verdict == KNOWN:
                tally.known += 1
            else:
                tally.failed += 1
                tally.failures.append(f"{op.kind} p={op.p}: {err!r}")
            speed.sample(len(tally.rounds))
        speed.sample(len(tally.rounds), force=True)
        tally.rounds.append(lats)
        done += 1
        if between is not None and deadline is not None:
            deadline += between(done)
        if rounds is not None and done >= rounds:
            return done
        if deadline is not None and done % CYCLE_ROUNDS == 0 and time.perf_counter() >= deadline:
            return done
    raise AssertionError("round sources are endless")


def _metric(value, unit):
    return {"value": value, "unit": unit}


class SetupTimer:
    """Wall times of fresh interpreters that import palgebra and build the
    workload's algebras and first rounds of inputs.  Each is scaled by the
    reference kernel timed just before and just after it, since a set-up
    lasts a fraction of a second and the host's speed swings within a
    cycle."""

    def __init__(self, workload, seed, root):
        self.argv = [sys.executable, str(RUN_PY), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.root = root
        self.times = []  # (seconds, mean kernel seconds around it)

    def sample(self):
        t_start = time.perf_counter()
        kernel = [reference.timed() for _ in range(SETUP_KERNELS)]
        t0 = time.perf_counter()
        subprocess.run(self.argv, cwd=self.root, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        kernel += [reference.timed() for _ in range(SETUP_KERNELS)]
        self.times.append((dt, statistics.fmean(kernel)))
        return time.perf_counter() - t_start

    def spread_over(self, start, seconds):
        """A ``between`` hook for run_rounds: samples so that the i-th
        sample falls after i/SETUP_REPEATS of the timed phase."""
        paused = 0.0

        def between(_done):
            nonlocal paused
            elapsed = time.perf_counter() - start - paused
            taken = 0.0
            while (len(self.times) < SETUP_REPEATS
                   and len(self.times) * seconds < elapsed * SETUP_REPEATS):
                taken += self.sample()
            paused += taken
            return taken

        return between

    def median(self, scaled):
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(dt * REFERENCE_S / k if scaled else dt for dt, k in self.times)


def end_to_end(workload, seed, seconds, root):
    """End-to-end metrics, every time at the reference speed; the same
    figures as the clock read them go into the returned ``raw``."""
    setup = SetupTimer(workload, seed, root)
    setup.sample()
    source = build(workload, seed, root)
    tally, speed = Tally(), HostSpeed()
    start = time.perf_counter()
    rounds = run_rounds(source, tally, speed, deadline=start + seconds,
                        between=setup.spread_over(start, seconds))
    if tally.attempted < 100:
        print(f"perfbench: only {tally.attempted} samples; op_p90_ms has fewer than ten beyond it",
              file=sys.stderr)

    def times(lat, setup_s):
        return {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(tally.passed / sum(lat), "1/s"),
            "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": _metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        }

    metrics = times(speed.scaled_latencies(tally), setup.median(scaled=True))
    metrics["ops_ok_ratio"] = _metric(tally.passed / tally.attempted, "ratio")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = times([t for lats in tally.rounds for t in lats], setup.median(scaled=False))
    raw["host_scale"] = _metric(
        statistics.median(speed.scale(i) for i in range(rounds)), "ratio")
    return tally, rounds, metrics, raw


def traced(workload, seed, root):
    n = TRACE_ROUNDS[workload]
    plain, plain_speed = Tally(), HostSpeed()
    run_rounds(build(workload, seed, root), plain, plain_speed, rounds=n)
    tracer = tracer_mod.Tracer()
    tracer.install(extra_modules=[workloads])
    tally, speed = Tally(), HostSpeed()
    try:
        run_rounds(build(workload, seed, root), tally, speed, tracer=tracer, rounds=n)
    finally:
        tracer.uninstall()
    tracer.assert_reached(workload)
    overhead = (sum(speed.scaled_latencies(tally))
                / sum(plain_speed.scaled_latencies(plain)) - 1)
    op_seconds = sum(map(sum, tally.rounds))
    return tally, n, tracer.metrics(op_seconds, overhead, tally.known), {}


def run_all(args, root):
    """Each workload in its own process, then one table of every metric."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, check=True, stdout=subprocess.PIPE, text=True,
        )
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(rows[WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  " + "  ".join(f"{w:>17}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = "  ".join(f"{rows[w]['metrics'][name]['value']:>17.6g}" for w in WORKLOADS)
        print(f"{name:<{width}}  {cells}  {rows[WORKLOADS[0]]['metrics'][name]['unit']}")
    if "ops_ok_ratio" in names:
        cells = "  ".join(f"{1 - rows[w]['metrics']['ops_ok_ratio']['value']:>17.6g}" for w in WORKLOADS)
        print(f"{'ops_failed_ratio':<{width}}  {cells}  ratio")
    print(f"{'correct':<{width}}  " + "  ".join(f"{str(rows[w]['correct']):>17}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv, root):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description="palgebra benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if args.workload == "all":
        return run_all(args, root)
    if args.setup_only:
        build(args.workload, args.seed, root)
        return 0
    if args.trace:
        tally, rounds, metrics, raw = traced(args.workload, args.seed, root)
    else:
        tally, rounds, metrics, raw = end_to_end(args.workload, args.seed, args.seconds, root)

    for failure in tally.failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rounds} rounds, {tally.attempted} operations, {tally.passed} passed, "
          f"{tally.failed} failed, {tally.known} known contract violations")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          "shared machine: no CPU pinning or frequency control")
    print(f"ops_failed_ratio = {(tally.failed + tally.known) / tally.attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if raw:
        print("as the clock read them, before scaling to the reference speed: "
              + ", ".join(f"{name} = {m['value']:.6g} {m['unit']}" for name, m in raw.items()))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0

"""Verdict throughput and latency of muspec, end to end and per layer.

    python3 bench/run.py --workload sat-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports muspec from
``src/`` beside this directory and from nowhere else. One process, one
thread, closed loop: each operation starts when the previous one has
returned. The run repeats whole rounds of the workload's operations until
another round would overrun ``--seconds`` (two rounds at least), checks
every result, then checks a seeded sample of hardware runs against the
architectural semantics outside the timed region. Host times are scaled
to a reference host speed, measured by a short pure-Python probe between
operations, and an operation counts with its best time over the rounds.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced reference round, then traced rounds with span wrappers around
muspec's public functions (see tracer.py), and prints the per-layer
metrics per round. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

from tracer import Tracer
from workloads import WORKLOADS, Muspec, oracle_mismatches

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = (
    "muspec",
    "muspec.analysis",
    "muspec.arch",
    "muspec.contracts",
    "muspec.corpus",
    "muspec.countermeasures",
    "muspec.isa",
    "muspec.pipeline",
    "muspec.uarch",
)
SETUP_REPEATS = 15
ORACLE_SAMPLES = 48
MIN_ROUNDS = 2  # an operation's best time needs at least two tries
TAIL_BEYOND = 10  # operations the tail percentile must leave above it
PROBE_EVERY_S = 0.01
# The probe's time on the reference host (2.0 GHz Xeon vCPU, CPython
# 3.11.7) when no neighbour slowed it down.
PROBE_REFERENCE_S = 0.00031


def _probe_step(i, table):
    entry = (i, i + 1, "x", None)
    if isinstance(entry[2], str):
        table[i & 31] = entry
    return len(entry)


def probe() -> float:
    """Host speed: the best of three timings of a fixed piece of pure-Python
    work of muspec's kind (calls, tuples, dicts), independent of muspec."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(1000):
            acc += _probe_step(i, table)
            if i & 63 == 0:
                table = dict(table)
        best = min(best, time.perf_counter() - t0)
    return best


def import_muspec() -> dict:
    """Import muspec afresh, so every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "muspec" or n.startswith("muspec.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in MODULES}
    origin = os.path.dirname(os.path.abspath(modules["muspec"].__file__))
    if origin != os.path.join(SRC, "muspec"):
        raise ImportError(f"muspec imported from {origin}, not from {SRC}")
    return modules


def set_up(workload: str, seed: int):
    t0 = time.perf_counter()
    modules = import_muspec()
    m = Muspec(modules)
    built = WORKLOADS[workload](m, seed)
    return time.perf_counter() - t0, modules, m, built


def scaled_set_up(workload: str, seed: int):
    """set_up, its time scaled to the reference host speed."""
    before = probe()
    elapsed, modules, m, built = set_up(workload, seed)
    speed = PROBE_REFERENCE_S * 2 / (before + probe())
    return elapsed * speed, modules, m, built


class Rounds:
    """Outcome of repeated whole rounds of a workload's operations."""

    def __init__(self, reference):
        self.durations = []  # per round: host seconds per operation
        self.scaled = []  # per round, untraced runs only: the same at reference speed
        self.failed = []  # (round, operation name, reason)
        self.reference = reference  # verdict digests every round must repeat
        self.mismatched = []  # rounds whose verdicts differ from the reference
        self.round_states = []  # per round: states decided
        self.counts = []  # per round, traced runs only: simulated counts


def run_rounds(ops, seconds: float, min_rounds: int, tracer: Tracer = None,
               reference=None) -> Rounds:
    """Without a tracer, host speed is probed at least every PROBE_EVERY_S
    between operations; each operation is scaled by the mean of the probes
    just before and just after it. Verdicts are compared with
    ``reference``, by default the first round's, as each round ends, so
    memory does not grow with the number of rounds."""
    out = Rounds(reference)
    clock = time.perf_counter
    before = tracer.snapshot() if tracer else None
    start = clock()
    while True:
        durations, digests, states = [], [], 0
        probes, marks = [], []
        for op in ops:
            if not tracer and (not probes or clock() - last_probe > PROBE_EVERY_S):
                probes.append(probe())
                last_probe = clock()
            marks.append(len(probes) - 1)
            t0 = clock()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a raising operation is a failed one
                result, error = None, exc
            durations.append(clock() - t0)
            if tracer:
                tracer.on = False  # checking is not part of the workload
            try:
                passed, n, digest = (False, 0, repr(error)) if error else op.check(result)
            except Exception as exc:
                passed, n, digest = False, 0, repr(exc)
            if tracer:
                tracer.on = True
            digests.append(digest)
            if passed:
                states += n
            else:
                out.failed.append((len(out.durations), op.name, repr(error) if error else "check failed"))
        out.durations.append(durations)
        if not tracer:
            probes.append(probe())
            out.scaled.append([
                d * PROBE_REFERENCE_S * 2 / (probes[k] + probes[k + 1])
                for d, k in zip(durations, marks)
            ])
        if out.reference is None:
            out.reference = digests
        elif digests != out.reference:
            out.mismatched.append(len(out.durations) - 1)
        out.round_states.append(states)
        if tracer:
            after = tracer.snapshot()
            out.counts.append({k: after[k] - before.get(k, 0) for k in after})
            before = after
        rounds = len(out.durations)
        elapsed = clock() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile of n values with TAIL_BEYOND values above
    it (linear interpolation between closest ranks)."""
    return max(p for p in range(1, 100) if n - 1 - (n - 1) * p // 100 >= TAIL_BEYOND)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def consistency_problems(rounds: Rounds) -> list:
    """Every round must give the reference verdicts, and traced rounds the
    same simulated counts."""
    problems = [f"round {i}: verdicts differ from the reference" for i in rounds.mismatched]
    for i, counts in enumerate(rounds.counts[1:], start=1):
        if counts != rounds.counts[0]:
            problems.append(f"round {i}: simulated counts differ from round 0")
    return problems


def end_to_end(args) -> tuple:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, modules, m, built = scaled_set_up(args.workload, args.seed)
        setup_times.append(elapsed)
    rounds = run_rounds(built.ops, args.seconds, MIN_ROUNDS)
    problems = consistency_problems(rounds)
    problems += oracle_mismatches(m, built, args.seed, ORACLE_SAMPLES)
    # The host's speed swings by up to 2x, for seconds within a run and for
    # minutes between runs: times are scaled to the reference speed, and
    # each operation counts with its best time over the rounds.
    best = [min(tries) for tries in zip(*rounds.scaled)]
    tail = tail_percentile(len(best))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "states_per_s": (rounds.round_states[0] / sum(best), "states/s"),
        "check_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "check_tail_ms": (percentile(best, tail) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"rounds {len(rounds.durations)} x {len(built.ops)} operations, "
        f"{rounds.round_states[0]} states per round, "
        f"check_tail_ms is p{tail} of the operations' best times",
    ]
    return rounds, problems, metrics, notes


def per_layer(args) -> tuple:
    _, modules, m, built = set_up(args.workload, args.seed)
    reference = run_rounds(built.ops, 0, 1)
    tracer = Tracer()
    tracer.install(modules)
    try:
        built = WORKLOADS[args.workload](m, args.seed)  # traced set-up: parsing
        setup_spans = len(tracer.sid)
        rounds = run_rounds(built.ops, args.seconds, 1, tracer, reference.reference)
    finally:
        tracer.remove()
    problems = consistency_problems(rounds)
    problems += oracle_mismatches(m, built, args.seed, ORACLE_SAMPLES)

    n_rounds = len(rounds.durations)
    c = rounds.counts[0]
    setup_total, _ = tracer.span_totals(0, setup_spans)
    total, self_time = tracer.span_totals(setup_spans, len(tracer.sid))

    def calls(name):
        return c.get(f"{name}.calls", 0)

    def secs(name):
        return total.get(name, 0.0) / n_rounds

    if c["states"] != rounds.round_states[0]:
        problems.append(f"traced enumeration yielded {c['states']} states, "
                        f"the operations decided {rounds.round_states[0]}")
    steps = calls("pipeline.hw_step")
    if c["views"] != steps + calls("pipeline.hw_run"):
        problems.append(f"{c['views']} adversary views for {steps} hardware steps")
    accesses = calls("uarch.cache_access")
    metrics = {
        "analysis.checks": (c["enumerations"], "count"),
        "analysis.states": (c["states"], "count"),
        "analysis.enum_s": (secs("analysis.initial_states"), "s"),
        "analysis.self_s": (
            sum(v for k, v in self_time.items() if k.startswith("analysis.")) / n_rounds, "s"),
    }
    for fn in ("trace_seq", "trace_spec", "trace_degenerate"):
        metrics[f"contracts.{fn}.calls"] = (calls(f"contracts.{fn}"), "count")
        metrics[f"contracts.{fn}.s"] = (secs(f"contracts.{fn}"), "s")
    metrics["contracts.obs"] = (c["obs"], "count")
    metrics.update({
        "arch.arch_step.calls": (calls("arch.arch_step"), "count"),
        "arch.arch_step.s": (secs("arch.arch_step"), "s"),
        "isa.eval_expr.calls": (calls("isa.eval_expr"), "count"),
        "isa.eval_expr.s": (secs("isa.eval_expr"), "s"),
        "isa.parse_program.s": (setup_total.get("isa.parse_program", 0.0), "s"),
        "pipeline.hw_run.calls": (calls("pipeline.hw_run"), "count"),
        "pipeline.hw_run.s": (secs("pipeline.hw_run"), "s"),
        "pipeline.hw_step.calls": (steps, "count"),
        "pipeline.hw_step.self_s": (self_time.get("pipeline.hw_step", 0.0) / n_rounds, "s"),
        "pipeline.hw_steps_per_s": (
            steps / secs("pipeline.hw_run") if steps else 0.0, "steps/s"),
        "pipeline.stalled_steps": (c["stalled_steps"], "count"),
        "pipeline.squashes": (c["squashes"], "count"),
        "pipeline.progress_ratio": (
            (steps - c["stalled_steps"]) / steps if steps else 0.0, "ratio"),
        "pipeline.fetch_step.s": (secs("pipeline.fetch_step"), "s"),
        "pipeline.execute_step.s": (secs("pipeline.execute_step"), "s"),
        "pipeline.retire_step.s": (secs("pipeline.retire_step"), "s"),
        "pipeline.adversary_view.calls": (calls("pipeline.adversary_view"), "count"),
        "pipeline.adversary_view.s": (secs("pipeline.adversary_view"), "s"),
        "uarch.buf_project.calls": (calls("uarch.buf_project"), "count"),
        "uarch.buf_project.s": (secs("uarch.buf_project"), "s"),
        "uarch.sched_next.s": (secs("uarch.sched_next"), "s"),
        "uarch.sched_update.s": (secs("uarch.sched_update"), "s"),
        "uarch.apply_buffer.s": (secs("uarch.apply_buffer"), "s"),
        "uarch.cache.accesses": (accesses, "count"),
        "uarch.cache.hit_ratio": (c["cache_hits"] / accesses if accesses else 0.0, "ratio"),
        "uarch.predictor.updates": (calls("uarch.predictor_update"), "count"),
        "countermeasures.unlabel.s": (secs("countermeasures.unlabel"), "s"),
        "countermeasures.relabel.s": (secs("countermeasures.relabel"), "s"),
        "countermeasures.loaddelay_guard.s": (secs("countermeasures.loaddelay_guard"), "s"),
        "countermeasures.loaddelay_denials": (c["loaddelay_denials"], "count"),
    })

    ops = len(built.ops)
    untraced = sum(reference.durations[0])
    traced = sum(map(sum, rounds.durations)) / n_rounds
    top = sorted((kv for kv in self_time.items() if kv[1] > 0), key=lambda kv: -kv[1])[:8]
    notes = [
        f"rounds {n_rounds} x {ops} operations traced, {len(tracer.sid)} spans, "
        f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB; "
        f"figures are per round",
        f"round time untraced {untraced:.3f} s, traced {traced:.3f} s, "
        f"tracing overhead {traced / untraced:.2f}x",
        "top self time per round: " + ", ".join(f"{k} {v / n_rounds:.3f} s" for k, v in top),
    ]
    return rounds, problems, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "muspec", "__init__.py")):
        print(f"error: no muspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    rounds, problems, metrics, notes = (per_layer if args.trace else end_to_end)(args)

    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    attempted = sum(map(len, rounds.durations))
    print(f"operations attempted {attempted}, failed {len(rounds.failed)}")
    for round_index, name, reason in rounds.failed[:20]:
        print(f"FAILED round {round_index} {name}: {reason}")
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(rounds.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

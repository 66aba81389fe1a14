"""Acceptance criteria.

Each criterion prints one PASS/FAIL line; run with ``pytest -s
tests/test_acceptance.py`` to see them.  Tolerances (exact table matches,
zero counterexamples, wall-clock budgets) are asserted, not just reported.
"""
import random
import time
from dataclasses import replace

import pytest

from muspec import corpus
from muspec.analysis import (
    Policy,
    StateDomain,
    check_contract_satisfaction,
    check_lattice,
    classify_constant_time,
    classify_sandboxing,
    random_programs,
)
from muspec.arch import arch_run
from muspec.contracts import (
    SEQ_ARCH,
    SEQ_CT,
    SPEC_CT,
    SPEC_PC_CT,
    contract_stronger_test,
)
from muspec.isa import BinOp, Const, Reg, PC
from muspec.pipeline import HwConfig, hw_run
from muspec.uarch import (
    OooScheduler,
    SequentialScheduler,
    buf_project,
    cmd_assign,
    cmd_load,
    cmd_skip,
    cmd_store,
)

MU_W = 5
WINDOW = MU_W + 2  # the speculative window must exceed buffer size + 1

POLICY = Policy(corpus.TABLE_POLICY_LOW)

CONFIGS = (
    HwConfig(buffer_size=MU_W, cache="lru:4", predictor="fallthrough", scheduler="ooo"),
    HwConfig(buffer_size=MU_W, cache="direct:4:1", predictor="twobit", scheduler="ooo"),
    HwConfig(buffer_size=MU_W, cache="lru:2", predictor="backward", scheduler="seq"),
)

THEOREMS = (
    ("T1", "none", replace(SPEC_CT, window=WINDOW)),
    ("T2", "seq", SEQ_CT),
    ("T3", "loaddelay", replace(SPEC_PC_CT, window=WINDOW)),
    ("T4", "loaddelay", SEQ_ARCH),
    ("T5", "tt", replace(SPEC_CT, window=WINDOW)),
    ("T6", "tt", SEQ_ARCH),
    ("nda-s/spec-ct", "nda-strict", replace(SPEC_CT, window=WINDOW)),
    ("nda-s/seq-arch", "nda-strict", SEQ_ARCH),
    ("nda-p/spec-ct", "nda-permissive", replace(SPEC_CT, window=WINDOW)),
    ("nda-p/seq-arch", "nda-permissive", SEQ_ARCH),
)


def report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.2f}s){suffix}")


def dom_for(name):
    return StateDomain(modulus=16, vary=corpus.default_vary(name))


def test_criterion_1_table1_sandboxing():
    expected = {
        "P1": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "N", "spec-pc-ct": "Y,wSNI"},
        "P1f": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "Y,wSNI", "spec-pc-ct": "Y,wSNI"},
        "P1'": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "N", "spec-pc-ct": "N"},
        "P1'f": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "Y,wSNI", "spec-pc-ct": "Y,wSNI"},
    }
    start = time.time()
    mismatches = []
    for name, wanted in expected.items():
        row = classify_sandboxing(corpus.load(name), POLICY, dom_for(name), WINDOW, name=name)
        if not row.vanilla.ok:
            mismatches.append(f"{name}: not vanilla-sandboxed")
        for cname, want in wanted.items():
            got = row.cell(cname)
            if got != want:
                mismatches.append(f"{name}/{cname}: {got} != {want}")
    elapsed = time.time() - start
    ok = not mismatches and elapsed < 10.0
    report("1 (Table 1 sandboxing)", ok, elapsed, "; ".join(mismatches))
    assert not mismatches
    assert elapsed < 10.0


def test_criterion_2_table2_constant_time():
    expected = {
        "P2": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "N", "spec-pc-ct": "Y,SNI"},
        "P2f": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "Y,SNI", "spec-pc-ct": "Y,SNI"},
        "P2'": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "N", "spec-pc-ct": "N"},
        "P2'f": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "Y,SNI", "spec-pc-ct": "Y,SNI"},
    }
    start = time.time()
    mismatches = []
    for name, wanted in expected.items():
        row = classify_constant_time(corpus.load(name), POLICY, dom_for(name), WINDOW, name=name)
        if not row.vanilla.ok:
            mismatches.append(f"{name}: not vanilla-constant-time")
        for cname, want in wanted.items():
            got = row.cell(cname)
            if got != want:
                mismatches.append(f"{name}/{cname}: {got} != {want}")
    elapsed = time.time() - start
    ok = not mismatches and elapsed < 10.0
    report("2 (Table 2 constant-time)", ok, elapsed, "; ".join(mismatches))
    assert not mismatches
    assert elapsed < 10.0


@pytest.fixture(scope="module")
def theorem_suite_runs():
    """Run every theorem instance over every config, program, and state,
    recording counterexamples and the final hardware states for the
    functional-correctness oracle."""
    start = time.time()
    violations = []
    checked_triples = 0
    arch_mismatches = []
    arch_finals = {}
    for label, countermeasure, contract in THEOREMS:
        for ci, base in enumerate(CONFIGS):
            cfg = replace(base, countermeasure=countermeasure)
            for name in corpus.program_names():
                program = corpus.load(name)
                domain = dom_for(name)
                verdict = check_contract_satisfaction(program, contract, cfg, domain)
                if not verdict.ok:
                    violations.append(f"{label} cfg{ci} {name}")
                run_cfg = replace(cfg, modulus=domain.modulus)
                for sigma in domain.initial_states(program):
                    key = (name, sigma.key())
                    if key not in arch_finals:
                        arch_finals[key] = arch_run(program, sigma, modulus=domain.modulus)[0]
                    _, final = hw_run(program, sigma, run_cfg)
                    checked_triples += 1
                    if final.sigma != arch_finals[key]:
                        arch_mismatches.append(f"{label} cfg{ci} {name}")
    return {
        "elapsed": time.time() - start,
        "violations": violations,
        "arch_mismatches": arch_mismatches,
        "triples": checked_triples,
    }


def test_criterion_3_theorem_suites(theorem_suite_runs):
    res = theorem_suite_runs
    ok = not res["violations"] and res["elapsed"] < 300.0
    report(
        "3 (theorem suites)",
        ok,
        res["elapsed"],
        f"{len(THEOREMS)} theorems x {len(CONFIGS)} configs, "
        f"violations={len(res['violations'])}",
    )
    assert res["violations"] == []
    assert res["elapsed"] < 300.0


def test_criterion_4_counterexample_reproduction():
    start = time.time()
    cases = (
        ("ex2", "loaddelay", StateDomain(modulus=16, vary=((10, 0, 1),))),
        ("ex3", "tt", StateDomain(modulus=16, vary=((7, 0, 1),))),
    )
    failures = []
    for name, countermeasure, domain in cases:
        t0 = time.time()
        program = corpus.load(name)
        # the two-bit predictor starts strongly not-taken, so it mispredicts
        # the architecturally taken guard branch
        cfg = HwConfig(buffer_size=MU_W, countermeasure=countermeasure, predictor="twobit")
        verdict = check_contract_satisfaction(program, SEQ_CT, cfg, domain)
        found = time.time() - t0
        if verdict.ok:
            failures.append(f"{name}/{countermeasure}: no counterexample")
            continue
        if found >= 5.0:
            failures.append(f"{name}/{countermeasure}: took {found:.1f}s")
        run_cfg = replace(cfg, modulus=domain.modulus)
        t1 = hw_run(program, verdict.sigma, run_cfg)[0]
        t2 = hw_run(program, verdict.sigma_prime, run_cfg)[0]
        pos = verdict.position
        if not (t1 == verdict.trace and t2 == verdict.trace_prime):
            failures.append(f"{name}/{countermeasure}: replay traces differ")
        elif not (t1[:pos] == t2[:pos] and (t1[pos:pos + 1] != t2[pos:pos + 1])):
            failures.append(f"{name}/{countermeasure}: divergence moved")
    elapsed = time.time() - start
    report("4 (counterexample reproduction)", not failures, elapsed, "; ".join(failures))
    assert not failures


def test_criterion_5_lattice_suite():
    start = time.time()
    programs = [corpus.load(n) for n in corpus.program_names()]
    programs += random_programs(200, seed=20260808, length=8)
    domain = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3)))
    results = check_lattice(programs, domain, WINDOW)
    bad_edges = [edge for edge, witness in results.items() if witness is not None]
    reversed_witness = contract_stronger_test(
        replace(SPEC_CT, window=WINDOW), SEQ_CT, [corpus.load("P1")],
        StateDomain(modulus=16, vary=((7, 0, 3),)),
    )
    elapsed = time.time() - start
    ok = not bad_edges and reversed_witness is not None
    report(
        "5 (lattice suite)",
        ok,
        elapsed,
        f"edges={len(results)}, programs={len(programs)}, "
        f"reversed-refuted={reversed_witness is not None}",
    )
    assert bad_edges == []
    assert reversed_witness is not None


def test_criterion_6_functional_correctness(theorem_suite_runs):
    res = theorem_suite_runs
    ok = not res["arch_mismatches"]
    report(
        "6 (functional correctness)",
        ok,
        0.0,
        f"{res['triples']} hardware runs against the architectural oracle",
    )
    assert res["arch_mismatches"] == []


def test_criterion_7_projection_and_obliviousness():
    start = time.time()
    rng = random.Random(1789)
    failures = 0

    def random_command(resolved):
        roll = rng.randrange(5)
        value = rng.randrange(64)
        expr = BinOp("+", Reg(rng.choice("xyzw")), Const(rng.randrange(16)))
        if roll == 0:
            return cmd_skip()
        if roll == 1:
            return cmd_assign(rng.choice("xyzw"), value if resolved else expr)
        if roll == 2:
            return cmd_load(rng.choice("xyzw"), value if resolved else expr)
        if roll == 3:
            return cmd_store(value if resolved else Reg("x"), value if resolved else expr)
        return cmd_assign(PC, value, tag=rng.randrange(8))

    for _ in range(1000):
        shape = [rng.random() < 0.5 for _ in range(rng.randrange(1, MU_W + 1))]
        buf1 = tuple((random_command(res), frozenset()) for res in shape)
        # same resolvedness shape, different values/expressions
        buf2 = tuple(
            ((c[0], c[1], (c[2] + 1) % 64 if isinstance(c[2], int) else c[2], c[3], c[4]), l)
            for c, l in buf1
        )
        if buf_project(buf1) != buf_project(buf2):
            failures += 1
            continue
        p1, p2 = buf_project(buf1), buf_project(buf2)
        for scheduler in (SequentialScheduler(), OooScheduler(MU_W)):
            s1 = scheduler.update((), p1)
            s2 = scheduler.update((), p2)
            if s1.key(p1) != s2.key(p2) or s1.next(p1) != s2.next(p2):
                failures += 1
    elapsed = time.time() - start
    report("7 (projection/obliviousness)", failures == 0, elapsed, "1000 trials")
    assert failures == 0

"""The benchmark's three workloads, built through muspec's public API.

A workload is a list of operations plus the hardware targets its oracle
samples from. An operation pairs a call into muspec with a check of the
result against properties that do not come from the code under test: the
paper's tables, the theorems that say a check must pass, and the
divergence rule a counterexample must obey. Every build function takes the
imported muspec modules, so the benchmark can re-import them when it
times set-up.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

MU_W = 5
WINDOW = MU_W + 2  # speculative windows must exceed the buffer size plus one

# Tables 1 and 2 of the paper, as acceptance criteria 1 and 2 state them.
TABLE1 = {
    "P1": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "N", "spec-pc-ct": "Y,wSNI"},
    "P1f": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "Y,wSNI", "spec-pc-ct": "Y,wSNI"},
    "P1'": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "N", "spec-pc-ct": "N"},
    "P1'f": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "Y,wSNI", "spec-pc-ct": "Y,wSNI"},
}
TABLE2 = {
    "P2": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "N", "spec-pc-ct": "Y,SNI"},
    "P2f": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "Y,SNI", "spec-pc-ct": "Y,SNI"},
    "P2'": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "N", "spec-pc-ct": "N"},
    "P2'f": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "Y,SNI", "spec-pc-ct": "Y,SNI"},
}

# The paper's guarantees (T1-T6 and the NDA instances): each countermeasure
# satisfies the named contract on every program and microarchitecture.
THEOREMS = (
    ("T1", "none", "spec-ct"),
    ("T2", "seq", "seq-ct"),
    ("T3", "loaddelay", "spec-pc-ct"),
    ("T4", "loaddelay", "seq-arch"),
    ("T5", "tt", "spec-ct"),
    ("T6", "tt", "seq-arch"),
    ("nda-s/spec-ct", "nda-strict", "spec-ct"),
    ("nda-s/seq-arch", "nda-strict", "seq-arch"),
    ("nda-p/spec-ct", "nda-permissive", "spec-ct"),
    ("nda-p/seq-arch", "nda-permissive", "seq-arch"),
)

# The three microarchitectures of acceptance criterion 3.
PAPER_CONFIGS = (
    dict(cache="lru:4", predictor="fallthrough", scheduler="ooo"),
    dict(cache="direct:4:1", predictor="twobit", scheduler="ooo"),
    dict(cache="lru:2", predictor="backward", scheduler="seq"),
)

# sat-sweep: every pairing passes by T1, T5, the nda-strict instance, and T3
# combined with the spec-pc-ct >= spec-ct lattice edge.
SWEEP_COUNTERMEASURES = ("none", "tt", "nda-strict", "loaddelay")
SWEEP_VARY = ((7, 0, 15), (9, 0, 15))

LATTICE_VARY = ((7, 0, 3), (9, 0, 3))
LATTICE_RANDOM_PROGRAMS = 200
LATTICE_EDGES = 7


@dataclass
class Op:
    """One timed call. ``check`` maps the call's result to (passed, states
    decided, plain-data digest of the verdict)."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Workload:
    ops: list
    hw_targets: list  # (program, HwConfig, StateDomain) for the oracle sample


class Muspec:
    """The imported muspec modules. Operations look functions up on the
    modules at call time, so wrappers installed later take effect."""

    def __init__(self, modules: dict):
        self.analysis = modules["muspec.analysis"]
        self.arch = modules["muspec.arch"]
        self.contracts = modules["muspec.contracts"]
        self.corpus = modules["muspec.corpus"]
        self.isa = modules["muspec.isa"]
        self.pipeline = modules["muspec.pipeline"]

    def contract(self, name: str):
        return self.contracts.ContractId.parse(name, WINDOW)


# ---------------------------------------------------------------------------
# Verdict helpers


def enumeration_index(sigma, domain) -> int:
    """Position of ``sigma`` in the domain's enumeration order (the last
    varying cell moves fastest), computed from the domain alone."""
    index = 0
    for addr, lo, hi in domain.vary:
        index = index * (hi - lo + 1) + (sigma.read_mem(addr) - lo)
    return index


def states_decided(verdict, domain) -> int:
    """A pass decides every state; a counterexample stops at sigma_prime."""
    if verdict.ok:
        return domain_size(domain.vary)
    return enumeration_index(verdict.sigma_prime, domain) + 1


def domain_size(vary) -> int:
    n = 1
    for _addr, lo, hi in vary:
        n *= hi - lo + 1
    return n


def verdict_digest(v) -> tuple:
    key = (lambda s: None if s is None else s.key())
    return (v.ok, v.check, key(v.sigma), key(v.sigma_prime), v.position, v.trace, v.trace_prime)


def _satisfaction_op(m: Muspec, name, program, contract, cfg, domain) -> Op:
    def check(verdict):
        return verdict.ok, states_decided(verdict, domain), verdict_digest(verdict)

    return Op(
        name,
        lambda: m.analysis.check_contract_satisfaction(program, contract, cfg, domain),
        check,
    )


# ---------------------------------------------------------------------------
# sat-sweep


def build_sat_sweep(m: Muspec, seed: int) -> Workload:
    contract = m.contract("spec-ct")
    domain = m.analysis.StateDomain(modulus=16, vary=SWEEP_VARY)
    programs = [(n, m.corpus.load(n)) for n in m.corpus.program_names()]
    ops, targets = [], []
    for countermeasure in SWEEP_COUNTERMEASURES:
        cfg = m.pipeline.HwConfig(
            buffer_size=MU_W, cache="lru:4", predictor="twobit", scheduler="ooo",
            countermeasure=countermeasure,
        )
        for name, program in programs:
            ops.append(_satisfaction_op(m, f"{countermeasure}/{name}", program, contract, cfg, domain))
            targets.append((program, cfg, domain))
    return Workload(ops, targets)


# ---------------------------------------------------------------------------
# paper-suite


def _table_op(m: Muspec, kind, name, program, policy, domain, expected) -> Op:
    classify = "classify_sandboxing" if kind == "sandbox" else "classify_constant_time"

    def check(row):
        passed = row.vanilla.ok and all(row.cell(c) == want for c, want in expected.items())
        enumerated = {id(row.vanilla): row.vanilla}
        for _cname, _text, verdict in row.cells:
            if verdict is not None:
                enumerated[id(verdict)] = verdict
        states = sum(states_decided(v, domain) for v in enumerated.values())
        digest = (
            verdict_digest(row.vanilla),
            tuple((c, text, None if v is None else verdict_digest(v)) for c, text, v in row.cells),
        )
        return passed, states, digest

    return Op(
        f"{kind}/{name}",
        lambda: getattr(m.analysis, classify)(program, policy, domain, WINDOW, name=name),
        check,
    )


def _counterexample_op(m: Muspec, name, countermeasure, vary) -> Op:
    """The pair must diverge in hardware at ``position`` only, and agree
    on the contract: that is what makes it a satisfaction counterexample."""
    program = m.corpus.load(name)
    domain = m.analysis.StateDomain(modulus=16, vary=vary)
    contract = m.contract("seq-ct")
    # the two-bit predictor starts at not-taken, so it mispredicts the
    # architecturally taken guard branch
    cfg = m.pipeline.HwConfig(buffer_size=MU_W, countermeasure=countermeasure, predictor="twobit")
    run_cfg = replace(cfg, modulus=domain.modulus)

    def check(verdict):
        digest = verdict_digest(verdict)
        if verdict.ok:
            return False, states_decided(verdict, domain), digest
        pos = verdict.position
        t1 = m.pipeline.hw_run(program, verdict.sigma, run_cfg)[0]
        t2 = m.pipeline.hw_run(program, verdict.sigma_prime, run_cfg)[0]
        c1, c2 = (
            m.contracts.contract_trace(contract, program, s, modulus=domain.modulus,
                                       snapshot_addrs=domain.addresses)
            for s in (verdict.sigma, verdict.sigma_prime)
        )
        passed = (
            t1 == verdict.trace
            and t2 == verdict.trace_prime
            and t1[:pos] == t2[:pos]
            and t1[pos:pos + 1] != t2[pos:pos + 1]
            and c1 == c2
        )
        return passed, states_decided(verdict, domain), digest

    return Op(
        f"cex/{name}/{countermeasure}",
        lambda: m.analysis.check_contract_satisfaction(program, contract, cfg, domain),
        check,
    )


def build_paper_suite(m: Muspec, seed: int) -> Workload:
    names = m.corpus.program_names()
    programs = {n: m.corpus.load(n) for n in names}
    domains = {n: m.analysis.StateDomain(modulus=16, vary=m.corpus.default_vary(n)) for n in names}
    policy = m.analysis.Policy(m.corpus.TABLE_POLICY_LOW)
    ops, targets = [], []
    for label, countermeasure, cname in THEOREMS:
        contract = m.contract(cname)
        for ci, micro in enumerate(PAPER_CONFIGS):
            cfg = m.pipeline.HwConfig(buffer_size=MU_W, countermeasure=countermeasure, **micro)
            for n in names:
                ops.append(_satisfaction_op(m, f"{label}/cfg{ci}/{n}", programs[n], contract, cfg, domains[n]))
                targets.append((programs[n], cfg, domains[n]))
    for kind, table in (("sandbox", TABLE1), ("ct", TABLE2)):
        for n, expected in table.items():
            ops.append(_table_op(m, kind, n, programs[n], policy, domains[n], expected))
    ops.append(_counterexample_op(m, "ex2", "loaddelay", ((10, 0, 1),)))
    ops.append(_counterexample_op(m, "ex3", "tt", ((7, 0, 1),)))
    return Workload(ops, targets)


# ---------------------------------------------------------------------------
# lattice

_REGS = ("x", "y", "z", "w")
_BINOPS = ("+", "-", "*", "<", "=", "&", "|", "^")


def _random_expr(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return str(rng.randrange(16))
    if roll < 0.7:
        return rng.choice(_REGS)
    if roll < 0.8:
        return rng.choice("!-") + f"({_random_expr(rng, depth - 1)})"
    return f"({_random_expr(rng, depth - 1)} {rng.choice(_BINOPS)} {_random_expr(rng, depth - 1)})"


def random_program_source(rng: random.Random, length: int = 8) -> str:
    """uAsm text of a well-formed program whose control flow only moves
    forward, so it terminates. Generated here, not by muspec, so that the
    lattice inputs stay fixed while muspec changes."""
    lines = []
    for addr in range(length):
        roll = rng.random()
        reg = rng.choice(_REGS)
        if roll < 0.20:
            lines.append(f"{reg} <- {_random_expr(rng, 2)}")
        elif roll < 0.40:
            lines.append(f"load {reg}, {_random_expr(rng, 1)}")
        elif roll < 0.55:
            lines.append(f"store {reg}, {_random_expr(rng, 1)}")
        elif roll < 0.75:
            # never the fall-through address: that would be ill-formed
            forward = list(range(addr + 2, length))
            target = rng.choice(forward) if forward and rng.random() < 0.7 else "end"
            lines.append(f"beqz {reg}, {target}")
        elif roll < 0.82:
            lines.append(f"jmp {rng.randrange(addr + 1, length + 1)}")
        elif roll < 0.90:
            lines.append(f"{reg} <- {_random_expr(rng, 1)} ? {_random_expr(rng, 1)}")
        elif roll < 0.96:
            lines.append("skip")
        else:
            lines.append("spbarr")
    return "\n".join(lines) + "\n"


def _lattice_op(m: Muspec, name, program, domain) -> Op:
    def check(results):
        passed = len(results) == LATTICE_EDGES and all(w is None for w in results.values())
        states = LATTICE_EDGES * domain_size(domain.vary)
        return passed, states, tuple(sorted((e, w is None) for e, w in results.items()))

    return Op(f"lattice/{name}", lambda: m.analysis.check_lattice([program], domain, WINDOW), check)


def _reversed_edge_op(m: Muspec) -> Op:
    """spec-ct >= seq-ct must be refuted: P1's speculative load shows only
    under spec-ct."""
    program = m.corpus.load("P1")
    domain = m.analysis.StateDomain(modulus=16, vary=((7, 0, 3),))
    spec_ct, seq_ct = m.contract("spec-ct"), m.contract("seq-ct")

    def check(w):
        if w is None:
            return False, domain_size(domain.vary), None
        trace = (
            lambda c, s: m.contracts.contract_trace(
                c, program, s, modulus=domain.modulus, snapshot_addrs=domain.addresses)
        )
        passed = (
            trace(seq_ct, w.sigma) == trace(seq_ct, w.sigma_prime)
            and w.trace1 == trace(spec_ct, w.sigma)
            and w.trace1_prime == trace(spec_ct, w.sigma_prime)
            and w.trace1 != w.trace1_prime
        )
        digest = (w.program_index, w.sigma.key(), w.sigma_prime.key(), w.trace1, w.trace1_prime)
        return passed, enumeration_index(w.sigma_prime, domain) + 1, digest

    return Op(
        "lattice/reversed",
        lambda: m.contracts.contract_stronger_test(spec_ct, seq_ct, [program], domain),
        check,
    )


def build_lattice(m: Muspec, seed: int) -> Workload:
    rng = random.Random(seed)
    programs = [(n, m.corpus.load(n)) for n in m.corpus.program_names()]
    programs += [
        (f"random{i}", m.isa.parse_program(random_program_source(rng)))
        for i in range(LATTICE_RANDOM_PROGRAMS)
    ]
    domain = m.analysis.StateDomain(modulus=16, vary=LATTICE_VARY)
    ops = [_lattice_op(m, n, p, domain) for n, p in programs]
    ops.append(_reversed_edge_op(m))
    # the hardware oracle runs the lattice programs on the sweep's configs
    cfgs = [
        m.pipeline.HwConfig(buffer_size=MU_W, predictor="twobit", countermeasure=c)
        for c in SWEEP_COUNTERMEASURES
    ]
    targets = [(p, cfg, domain) for _n, p in programs for cfg in cfgs]
    return Workload(ops, targets)


WORKLOADS = {
    "sat-sweep": build_sat_sweep,
    "paper-suite": build_paper_suite,
    "lattice": build_lattice,
}


# ---------------------------------------------------------------------------
# Oracle: hardware final state against the architectural final state


def oracle_mismatches(m: Muspec, workload: Workload, seed: int, samples: int) -> list:
    """Run a seeded sample of states through hw_run and arch_run; returns
    a description of every sample whose final states differ."""
    rng = random.Random(f"oracle-{seed}")
    bad = []
    for _ in range(samples):
        program, cfg, domain = rng.choice(workload.hw_targets)
        mem = {a: rng.randint(lo, hi) for a, lo, hi in domain.vary}
        sigma = m.arch.ArchState.initial(program, mem)
        try:
            hw_final = m.pipeline.hw_run(program, sigma, replace(cfg, modulus=domain.modulus))[1].sigma
            arch_final = m.arch.arch_run(program, sigma, modulus=domain.modulus)[0]
        except Exception as exc:  # any error is a failed sample, reported below
            bad.append(f"{cfg.countermeasure} {sorted(mem.items())}: {exc!r}")
            continue
        if hw_final != arch_final:
            bad.append(f"{cfg.countermeasure} {sorted(mem.items())}: final states differ")
    return bad

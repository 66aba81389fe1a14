"""Labeled ISA semantics (contracts), their traces, and contract strength.

Observations are plain tuples so traces hash and compare cheaply:
    ("load", n) | ("store", n) | ("pc", v) | ("loadv", n, v) | ("state", blob)
where v is an int or the string "end" for the undefined value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arch import DEFAULT_FUEL, ArchState, FuelExhausted, arch_step, share_runs
from .isa import (
    BOTTOM,
    DEFAULT_MODULUS,
    PC,
    Barrier,
    Beqz,
    Jmp,
    Load,
    Program,
    Store,
    StuckError,
    eval_expr,
    observed,
)

INF = math.inf

DEFAULT_SPEC_WINDOW = 7

OBSERVERS = ("ct", "arch", "pc-ct")


@dataclass(frozen=True)
class ContractId:
    """One of the five labeled semantics plus the two degenerate contracts."""

    mode: str  # "seq" | "spec" | "top" | "bot"
    observer: Optional[str] = None
    window: Optional[int] = None  # spec mode only; None means DEFAULT_SPEC_WINDOW

    def __post_init__(self):
        if self.mode == "seq":
            if self.observer not in ("ct", "arch"):
                raise ValueError(f"seq contract needs observer ct|arch, got {self.observer!r}")
            if self.window is not None:
                raise ValueError("seq contract takes no window")
        elif self.mode == "spec":
            if self.observer not in OBSERVERS:
                raise ValueError(f"spec contract needs observer ct|arch|pc-ct, got {self.observer!r}")
            if self.window is None:
                object.__setattr__(self, "window", DEFAULT_SPEC_WINDOW)
            if self.window < 1:
                raise ValueError(f"speculative window must be >= 1, got {self.window}")
        elif self.mode in ("top", "bot"):
            if self.observer is not None or self.window is not None:
                raise ValueError(f"{self.mode} contract takes no parameters")
        else:
            raise ValueError(f"unknown contract mode {self.mode!r}")

    def __str__(self):
        if self.mode == "seq":
            return f"seq-{self.observer}"
        if self.mode == "spec":
            return f"spec-{self.observer}"
        return "bot-inf" if self.mode == "bot" else "top"

    @staticmethod
    def parse(name: str, window: Optional[int] = None) -> "ContractId":
        table = {
            "seq-ct": ("seq", "ct"),
            "seq-arch": ("seq", "arch"),
            "spec-ct": ("spec", "ct"),
            "spec-pc-ct": ("spec", "pc-ct"),
            "spec-arch": ("spec", "arch"),
        }
        if name in table:
            mode, obs = table[name]
            return ContractId(mode, obs, window if mode == "spec" else None)
        if name == "top":
            return ContractId("top")
        if name == "bot-inf":
            return ContractId("bot")
        raise ValueError(f"unknown contract {name!r}")


SEQ_CT = ContractId("seq", "ct")
SEQ_ARCH = ContractId("seq", "arch")
SPEC_CT = ContractId("spec", "ct")
SPEC_PC_CT = ContractId("spec", "pc-ct")
SPEC_ARCH = ContractId("spec", "arch")
TOP = ContractId("top")
BOT_INF = ContractId("bot")


def _labeled_step(p, state, observer, modulus):
    """One architectural step plus its observation (None when silent).

    The ct observer exposes load/store addresses and post-step pc at
    branches and jumps; arch additionally exposes loaded values.
    """
    ins = p.lookup(state.regs[PC])
    nxt = arch_step(p, state, modulus)
    obs = None
    if isinstance(ins, Load):
        n = eval_expr(ins.addr, state.regs, modulus=modulus)
        if observer == "arch":
            obs = ("loadv", observed(n), observed(state.read_mem(n)))
        else:
            obs = ("load", observed(n))
    elif isinstance(ins, Store):
        n = eval_expr(ins.addr, state.regs, modulus=modulus)
        obs = ("store", observed(n))
    elif isinstance(ins, (Beqz, Jmp)):
        obs = ("pc", observed(nxt.regs[PC]))
    return nxt, obs


def trace_seq(
    p: Program,
    state: ArchState,
    observer: str = "ct",
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
) -> tuple:
    if observer not in ("ct", "arch"):
        raise ValueError(f"sequential observer must be ct|arch, got {observer!r}")
    trace = []
    for _ in range(fuel):
        if state.is_final():
            return tuple(trace)
        state, obs = _labeled_step(p, state, observer, modulus)
        if obs is not None:
            trace.append(obs)
    raise FuelExhausted(f"no final state within {fuel} steps")


def trace_spec(
    p: Program,
    state: ArchState,
    observer: str = "ct",
    window: int = DEFAULT_SPEC_WINDOW,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
) -> tuple:
    """Always-mispredict exploration with speculative window ``window``.

    Configurations are stacks of (state, remaining window); the initial
    state sits at the bottom with an infinite window. Branches push the
    mispredicted continuation; exhausted windows roll back with a pc
    observation of the resumed state.
    """
    if observer not in OBSERVERS:
        raise ValueError(f"unknown observer {observer!r}")
    if window < 1:
        raise ValueError("speculative window must be >= 1")
    step_observer = "arch" if observer == "arch" else "ct"
    stack = [(state, INF)]
    trace = []
    for _ in range(fuel):
        top, w = stack[-1]
        if w == INF and top.is_final():
            return tuple(trace)
        if w == 0:
            resumed, _ = stack[-2]
            trace.append(("pc", observed(resumed.regs[PC])))
            stack.pop()
            continue
        ins = p.lookup(top.regs[PC])
        if isinstance(ins, Beqz):
            guard = top.regs[ins.guard]
            if guard is BOTTOM:
                raise StuckError(f"branch on undefined register {ins.guard}")
            pc = top.regs[PC]
            correct = ins.target if guard == 0 else pc + 1
            mispred = pc + 1 if guard == 0 else ins.target
            new_w = INF if w == INF else w - 1
            w_mispred = window if w == INF else new_w
            trace.append(("pc", observed(mispred)))
            stack[-1] = (top.with_regs(**{PC: correct}), new_w)
            stack.append((top.with_regs(**{PC: mispred}), w_mispred))
            continue
        if top.is_final():
            # terminated path inside a speculative frame: program lookup at
            # the undefined pc keeps yielding the terminate step, silently
            # burning the window until rollback
            nxt, obs = top, None
        else:
            nxt, obs = _labeled_step(p, top, step_observer, modulus)
        if isinstance(ins, Barrier):
            # barriers zero speculative windows; outside speculation they
            # are ordinary steps (the bottom frame keeps its infinite window)
            new_w = INF if w == INF else 0
        else:
            new_w = INF if w == INF else w - 1
        if obs is not None:
            if observer == "pc-ct" and w != INF and obs[0] in ("load", "loadv", "store"):
                obs = None
        if obs is not None:
            trace.append(obs)
        stack[-1] = (nxt, new_w)
    raise FuelExhausted(f"no final state within {fuel} steps")


class _Hole:
    """The placeholder ``state_snapshot`` lists for a cell it does not read."""

    def __repr__(self):
        return "HOLE"


HOLE = _Hole()


def state_snapshot(state: ArchState, addrs=()) -> tuple:
    """Canonical full-state blob: sorted registers, then memory restricted
    to nonzero cells plus ``addrs``, in address order. A cell of ``addrs``
    that the state still watches holds its initial value; it shows as HOLE
    and is not read, so a run shared by ``share_runs`` does not depend on
    it. Other watched cells are read through ``read_mem``, in address
    order: whether they are listed depends on their value."""
    mem = []
    for a in sorted(set(state.mem) | set(addrs) | state.watch):
        if a in addrs and a in state.watch:
            mem.append((a, HOLE))
            continue
        v = state.read_mem(a)
        if v != 0 or a in addrs:
            mem.append((a, observed(v)))
    return tuple(sorted((r, observed(v)) for r, v in state.regs.items())), tuple(mem)


def trace_degenerate(
    p: Program,
    state: ArchState,
    which: str,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    snapshot_addrs: tuple = (),
) -> tuple:
    if which == "top":
        return ()
    if which != "bot":
        raise ValueError(f"unknown degenerate contract {which!r}")
    trace = []
    touched = set(snapshot_addrs)
    for _ in range(fuel):
        if state.is_final():
            return tuple(trace)
        ins = p.lookup(state.regs[PC])
        if isinstance(ins, (Load, Store)):
            touched.add(eval_expr(ins.addr, state.regs, modulus=modulus))
        state = arch_step(p, state, modulus)
        trace.append(("state", state_snapshot(state, touched)))
    raise FuelExhausted(f"no final state within {fuel} steps")


def contract_trace(
    contract: ContractId,
    p: Program,
    state: ArchState,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    snapshot_addrs: tuple = (),
) -> tuple:
    if contract.mode == "seq":
        return trace_seq(p, state, contract.observer, fuel, modulus)
    if contract.mode == "spec":
        return trace_spec(p, state, contract.observer, contract.window, fuel, modulus)
    return trace_degenerate(p, state, contract.mode, fuel, modulus, snapshot_addrs)


def contract_tracer(contract: ContractId, p: Program, domain, fuel: int):
    """``contract``'s trace function on ``domain``'s states, run once per
    distinct read of the domain's varying cells. A shared ``bot-inf`` run
    lists the varying cells it has not written as HOLEs, and each state
    fills in its own initial values."""
    snapshot_addrs = tuple(domain.addresses)

    def run(sigma, _start):
        # a contract run never resumes, so it gives no resume points
        return contract_trace(contract, p, sigma, fuel, domain.modulus, snapshot_addrs), {}

    shared = share_runs(run, (a for a, *_ in domain.vary))
    if contract.mode != "bot":
        return shared
    return lambda sigma: _fill(shared(sigma), sigma.mem)


def _fill(trace: tuple, mem: dict) -> tuple:
    """``trace``, a run's ``state`` observations, with each HOLE replaced by
    the cell's value in ``mem``. A cell stays watched until it is written,
    so that is the value a run from ``mem`` would have listed. Memory
    changes only at stores, so each distinct listing is filled once."""
    filled, done = [], {}
    for _, (regs, cells) in trace:
        new = done.get(cells)
        if new is None:
            new = done[cells] = tuple((a, mem.get(a, 0) if v is HOLE else v) for a, v in cells)
        filled.append(("state", (regs, new)))
    return tuple(filled)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    check: str
    sigma: Optional[ArchState] = None
    sigma_prime: Optional[ArchState] = None
    position: Optional[int] = None
    trace: Optional[tuple] = None
    trace_prime: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def _first_divergence(t1: tuple, t2: tuple) -> int:
    for i, (a, b) in enumerate(zip(t1, t2)):
        if a != b:
            return i
    return min(len(t1), len(t2))


def relate(program: Program, domain, key, observe, check: str) -> Verdict:
    """The one relational engine: states with equal ``key`` must have
    equal ``observe``.

    Each state is compared against the first state with its key, so the
    first counterexample in enumeration order wins deterministically.
    """
    groups: dict = {}
    for sigma in domain.initial_states(program):
        k = key(sigma)
        trace = observe(sigma)
        if k in groups:
            rep_sigma, rep_trace = groups[k]
            if rep_trace != trace:
                return Verdict(
                    ok=False,
                    check=check,
                    sigma=rep_sigma,
                    sigma_prime=sigma,
                    position=_first_divergence(rep_trace, trace),
                    trace=rep_trace,
                    trace_prime=trace,
                )
        else:
            groups[k] = (sigma, trace)
    return Verdict(ok=True, check=check)


@dataclass(frozen=True)
class StrengthWitness:
    """A pair distinguishing c1 while agreeing on c2."""

    program_index: int
    sigma: ArchState
    sigma_prime: ArchState
    trace1: tuple
    trace1_prime: tuple


def contract_stronger_test(
    c1: ContractId,
    c2: ContractId,
    corpus,
    domain,
    fuel: int = DEFAULT_FUEL,
) -> Optional[StrengthWitness]:
    """Empirical check of c1's strength over c2 on finite domains.

    Returns None when every c2-equal state pair is also c1-equal on every
    program, else the first witness in program and enumeration order.
    """
    for idx, p in enumerate(corpus):
        c1_tracer, c2_tracer = (contract_tracer(c, p, domain, fuel) for c in (c1, c2))
        v = relate(p, domain, c2_tracer, c1_tracer, f"{c1} >= {c2}")
        if not v.ok:
            return StrengthWitness(idx, v.sigma, v.sigma_prime, v.trace, v.trace_prime)
    return None


def format_trace(trace: tuple) -> str:
    """Trace record format, one observation per line."""
    lines = []
    for obs in trace:
        if obs[0] == "state":
            lines.append(f"state {_blob(obs[1])}")
        else:
            lines.append(" ".join(str(x) for x in obs))
    return "\n".join(lines) + ("\n" if lines else "")


def _blob(snapshot) -> str:
    regs, mem = snapshot
    parts = [f"{r}={v}" for r, v in regs] + [f"[{a}]={v}" for a, v in mem]
    return ",".join(parts)

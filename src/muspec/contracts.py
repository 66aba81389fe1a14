"""Labeled ISA semantics (contracts), their traces, and contract strength.

A contract runs a mode, seq or spec at a window, whose explorer
(``trace_seq``, ``trace_spec``) gives the run's arch trace, and its observer
(ct, pc-ct or arch) chooses what to show of that trace (``_shown``, which
``contract_trace`` and the shared runs apply); bot-inf shows the state after
each step of the seq run, and top nothing.
Observations are plain tuples so traces hash and compare cheaply:
    ("load", n) | ("store", n) | ("pc", v) | ("loadv", n, v) | ("state", blob)
where v is an int or the string "end" for the undefined value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

from .arch import DEFAULT_FUEL, ArchState, FuelExhausted, arch_step, share_runs
from .isa import (
    DEFAULT_MODULUS,
    PC,
    Barrier,
    Beqz,
    Deferred,
    Jmp,
    Load,
    Program,
    Store,
    eval_expr,
    force,
    observed,
    term_value,
)

INF = math.inf

DEFAULT_SPEC_WINDOW = 7

# name -> (mode, observer) of the seven contracts, and the inverse
CONTRACTS = {
    "seq-ct": ("seq", "ct"),
    "seq-arch": ("seq", "arch"),
    "spec-ct": ("spec", "ct"),
    "spec-pc-ct": ("spec", "pc-ct"),
    "spec-arch": ("spec", "arch"),
    "top": ("top", None),
    "bot-inf": ("bot", None),
}
_NAMES = {pair: name for name, pair in CONTRACTS.items()}


@dataclass(frozen=True)
class ContractId:
    """One of the five labeled semantics plus the two degenerate contracts."""

    mode: str  # "seq" | "spec" | "top" | "bot"
    observer: Optional[str] = None
    window: Optional[int] = None  # spec mode only; None means DEFAULT_SPEC_WINDOW

    def __post_init__(self):
        if (self.mode, self.observer) not in _NAMES:
            raise ValueError(f"no contract has mode {self.mode!r} and observer {self.observer!r}")
        if self.mode != "spec":
            if self.window is not None:
                raise ValueError(f"{self} contract takes no window")
        elif self.window is None:
            object.__setattr__(self, "window", DEFAULT_SPEC_WINDOW)
        elif self.window < 1:
            raise ValueError(f"speculative window must be >= 1, got {self.window}")

    def __str__(self):
        return _NAMES[(self.mode, self.observer)]

    @staticmethod
    def parse(name: str, window: Optional[int] = None) -> "ContractId":
        """The contract ``name``; ``window`` applies to a spec contract only."""
        if name not in CONTRACTS:
            raise ValueError(f"unknown contract {name!r}")
        mode, observer = CONTRACTS[name]
        return ContractId(mode, observer, window if mode == "spec" else None)


SEQ_CT = ContractId("seq", "ct")
SEQ_ARCH = ContractId("seq", "arch")
SPEC_CT = ContractId("spec", "ct")
SPEC_PC_CT = ContractId("spec", "pc-ct")
SPEC_ARCH = ContractId("spec", "arch")
TOP = ContractId("top")
BOT_INF = ContractId("bot")


def _labeled_step(p, state, modulus):
    """One architectural step plus its arch observation (None when silent):
    load and store addresses, the post-step pc at branches and jumps, and
    the value a load loaded: in a watched run a deferred one until the run
    uses it. ``_shown`` makes the other observers' traces of it."""
    ins = p.lookup(state.regs[PC])
    if isinstance(ins, (Load, Store)):
        n = eval_expr(ins.addr, state.regs, modulus=modulus)
        n = n if n.__class__ is int else force(n)
        nxt = arch_step(p, state, modulus, n)
        if isinstance(ins, Store):
            return nxt, ("store", observed(n))
        return nxt, ("loadv", observed(n), observed(nxt.regs[ins.target]))
    nxt = arch_step(p, state, modulus)
    if isinstance(ins, (Beqz, Jmp)):
        return nxt, ("pc", observed(nxt.regs[PC]))
    return nxt, None


def _shown(trace: tuple, observer: str, speculative=(), fill=None) -> tuple:
    """What ``observer`` shows of ``trace``, an arch trace: arch all of it,
    with the loaded value at each position of ``fill`` given there, ct each
    ``("loadv", n, v)`` as ``("load", n)``, and pc-ct the ct trace without
    the memory observations at the positions ``speculative``, the ones made
    in a speculative frame."""
    if observer == "arch":
        return tuple(("loadv", o[1], fill[i]) if i in fill else o for i, o in enumerate(trace)) if fill else trace
    shown = (o for i, o in enumerate(trace) if observer == "ct" or i not in speculative)
    return tuple(("load", o[1]) if o[0] == "loadv" else o for o in shown)


def trace_seq(
    p: Program,
    state: ArchState,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    steps: list = None,
) -> tuple:
    """The arch trace of the sequential run from ``state``. ``steps``, if a
    list, receives each step's state and arch observation (None when
    silent), which ``bot-inf`` snapshots (see ``_snapshots``)."""
    trace = []
    for _ in range(fuel):
        if state.is_final():
            return tuple(trace)
        state, obs = _labeled_step(p, state, modulus)
        if steps is not None:
            steps.append((state, obs))
        if obs is not None:
            trace.append(obs)
    raise FuelExhausted(f"no final state within {fuel} steps")


def trace_spec(
    p: Program,
    state: ArchState,
    window: int = DEFAULT_SPEC_WINDOW,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    speculative: list = None,
) -> tuple:
    """The arch trace of the always-mispredict exploration from ``state``
    with speculative window ``window``.

    Configurations are stacks of (state, remaining window); the initial
    state sits at the bottom with an infinite window. A branch takes its
    ``arch_step`` and pushes the mispredicted continuation, observing its
    pc; exhausted windows roll back with a pc observation of the resumed
    state. ``speculative``, if a list, receives the position in the trace
    of each memory observation made in a speculative frame.
    """
    if window < 1:
        raise ValueError("speculative window must be >= 1")
    speculative = [] if speculative is None else speculative
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
            pc = top.regs[PC]
            nxt = arch_step(p, top, modulus)
            mispred = ins.target if nxt.regs[PC] == pc + 1 else pc + 1
            new_w = INF if w == INF else w - 1
            w_mispred = window if w == INF else new_w
            trace.append(("pc", observed(mispred)))
            stack[-1] = (nxt, new_w)
            stack.append((top.with_regs(**{PC: mispred}), w_mispred))
            continue
        if top.is_final():
            # terminated path inside a speculative frame: program lookup at
            # the undefined pc keeps yielding the terminate step, silently
            # burning the window until rollback
            nxt, obs = top, None
        else:
            nxt, obs = _labeled_step(p, top, modulus)
        # barriers zero speculative windows; outside speculation they are
        # ordinary steps (the bottom frame keeps its infinite window)
        new_w = INF if w == INF else 0 if isinstance(ins, Barrier) else w - 1
        if obs is not None:
            if w != INF and obs[0] != "pc":
                speculative.append(len(trace))
            trace.append(obs)
        stack[-1] = (nxt, new_w)
    raise FuelExhausted(f"no final state within {fuel} steps")


def state_snapshot(state: ArchState, addrs=()) -> tuple:
    """Canonical full-state blob: sorted registers, then memory restricted
    to nonzero cells plus ``addrs``, in address order. It forces nothing: in
    a watched run, a value the run has not logged, a deferred register or a
    watched cell (``ArchState.load``), differs between the states sharing
    the run and stays deferred; ``addrs`` must hold the watched cells."""
    regs = tuple((r, _snapped(v)) for r, v in sorted(state.regs.items()))
    return regs, tuple((a, _snapped(state.load(a))) for a in sorted(state.mem.keys() | addrs))


def _snapped(v):
    if v.__class__ is Deferred:
        return v.value if v.term in v.reads else v
    return observed(v)


def _snapshots(steps, addrs):
    """The ``bot-inf`` trace of a seq run's ``steps`` for the states sharing
    the run: a snapshot after each step, listing ``addrs`` and each cell
    loaded or stored so far. Returns the deferred terms the listings show,
    each once, and the filler, the trace as a function of those terms'
    values under a state. Each distinct listing, of registers or memory,
    with a deferred value is filled once per call."""
    touched, terms, deferred, snapshots = set(addrs), {}, {}, []

    def listing(entries):
        key = tuple(
            (k, terms.setdefault(v.term, len(terms)), None) if v.__class__ is Deferred else (k, v)
            for k, v in entries
        )
        return entries if key == entries else deferred.setdefault(key, len(deferred))

    for state, obs in steps:
        if obs is not None and obs[0] != "pc":
            touched.add(obs[1])  # a load's or store's address
        snapshots.append(tuple(map(listing, state_snapshot(state, touched))))
    deferred = tuple(deferred)

    def filled(values: tuple) -> tuple:
        done = [tuple((e[0], values[e[1]]) if len(e) == 3 else e for e in d) for d in deferred]
        return tuple(
            ("state", (r if r.__class__ is tuple else done[r], c if c.__class__ is tuple else done[c]))
            for r, c in snapshots
        )

    return tuple(terms), filled


def trace_degenerate(
    p: Program,
    state: ArchState,
    which: str,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    snapshot_addrs: tuple = (),
) -> tuple:
    """The ``top`` trace, empty, or the ``bot-inf`` trace: a snapshot of the
    state after each of ``trace_seq``'s steps."""
    if which == "top":
        return ()
    if which != "bot":
        raise ValueError(f"unknown degenerate contract {which!r}")
    steps = []
    trace_seq(p, state, fuel, modulus, steps)
    terms, filled = _snapshots(steps, snapshot_addrs)
    return filled(tuple(map(term_value, terms, repeat(state.mem))))


def contract_trace(
    contract: ContractId,
    p: Program,
    state: ArchState,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    snapshot_addrs: tuple = (),
) -> tuple:
    """``contract``'s trace from ``state``: what its observer shows of its
    mode's arch trace (``_shown``), or its degenerate trace."""
    if contract.mode == "seq":
        return _shown(trace_seq(p, state, fuel, modulus), contract.observer)
    if contract.mode == "spec":
        speculative = []
        trace = trace_spec(p, state, contract.window, fuel, modulus, speculative)
        return _shown(trace, contract.observer, speculative)
    return trace_degenerate(p, state, contract.mode, fuel, modulus, snapshot_addrs)


def contract_tracer(contract: ContractId, p: Program, domain, fuel: int, tracers: dict, as_key: bool = False):
    """``contract``'s trace function on ``domain``'s states, run once per
    distinct path of the terms over the domain's varying cells that a run
    forces (see ``arch_step``). A mode, seq or spec at a window, runs once
    per path for all its observers (``_Run``): ct, pc-ct, arch and, of seq,
    bot-inf; top shows nothing and runs nothing. ``tracers``, a batch's
    tracers by semantics, keeps each mode's runs under ``(mode, window)``.

    With ``as_key`` it returns a function equal on two states exactly when
    their traces are: the trace function, but for bot-inf. A bot-inf trace
    is a function of its seq run and the values of the deferred terms it
    shows (``_snapshots``), so its key is that pair, and no trace is built.
    States on different runs differ in a term the runs logged, and each
    cell of that term is shown in the snapshot just after the load that
    read it."""
    if contract.mode == "top":
        return lambda sigma: ()
    mode = ("seq", None) if contract.mode == "bot" else (contract.mode, contract.window)
    if mode not in tracers:
        cells = (a for a, *_ in domain.vary)
        tracers[mode] = share_runs(lambda s, _: (_Run(*mode, p, s, fuel, domain.modulus), {}), cells)
    shared, observer = tracers[mode], contract.observer
    if contract.mode == "bot":
        def tracer(sigma):
            run = shared(sigma)
            if run.bot_inf is None:
                run.bot_inf = _snapshots(run.steps, domain.addresses)
            terms, filled = run.bot_inf
            values = tuple(map(term_value, terms, repeat(sigma.mem)))
            return (run, values) if as_key else filled(values)
    elif observer != "arch":
        def tracer(sigma):  # runs once per state, so it only looks up
            return shared(sigma).shown[observer]
    else:
        def tracer(sigma):
            run = shared(sigma)
            if not run.cells:
                return run.trace
            key = tuple(map(sigma.mem.get, run.cells, repeat(0)))
            trace = run.fills.get(key)
            if trace is None:
                trace = run.fills[key] = _shown(run.trace, "arch", (), dict(zip(run.positions, key)))
            return trace
    return tracer


class _Run:
    """One run of a contract mode, a leaf of its shared trie: the arch
    ``trace`` of ``mode``'s explorer (at ``window``, for spec) from
    ``sigma``, whose loads at ``positions`` left their ``cells``' values
    deferred, ``shown``, what the ct and pc-ct observers show of it, and
    ``fills``, its arch traces filled in so far, by those cells' values; a
    seq run's ``steps``, and its ``bot_inf`` terms and filler once made."""

    __slots__ = ("trace", "shown", "positions", "cells", "fills", "steps", "bot_inf")

    def __init__(self, mode: str, window, p: Program, sigma: ArchState, fuel: int, modulus: int):
        speculative, self.steps, self.bot_inf = [], [], None
        if mode == "seq":
            self.trace = trace = trace_seq(p, sigma, fuel, modulus, self.steps)
        else:
            self.trace = trace = trace_spec(p, sigma, window, fuel, modulus, speculative)
        ct = _shown(trace, "ct")
        self.shown = {"ct": ct, "pc-ct": _shown(trace, "pc-ct", speculative) if speculative else ct}
        deferred = [i for i, o in enumerate(trace) if o[0] == "loadv" and o[2].__class__ is Deferred]
        self.positions, self.cells, self.fills = tuple(deferred), tuple(trace[i][2].term for i in deferred), {}


@dataclass(frozen=True)
class Verdict:
    """A check's outcome: a pass, or the first counterexample pair in
    enumeration order. ``states`` is how many states the check decided:
    the domain's size on a pass, else sigma_prime's enumeration position
    plus one; it is no part of the verdict's equality."""

    ok: bool
    check: str
    sigma: Optional[ArchState] = None
    sigma_prime: Optional[ArchState] = None
    position: Optional[int] = None
    trace: Optional[tuple] = None
    trace_prime: Optional[tuple] = None
    states: int = field(default=0, compare=False)

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
    first counterexample in enumeration order wins deterministically. A
    state alone in its key class forms no pair, so ``observe`` runs on a
    class's first state only when its second state arrives, and then on
    each later state of the class. A key error is raised at the first
    state whose key raises; an observation error at the arrival of the
    state whose comparison first needs that observation, and never for a
    state alone in its class. A shared tracer returns one trace object per
    run, so a state that shares its representative's run is not compared
    element by element.
    """
    groups: dict = {}  # key -> [first state, its trace once observed, else None]
    for sigma in domain.initial_states(program):
        k = key(sigma)
        group = groups.get(k)
        if group is None:
            groups[k] = [sigma, None]
            continue
        rep_sigma, rep_trace = group
        if rep_trace is None:
            rep_trace = group[1] = observe(rep_sigma)
        trace = observe(sigma)
        if rep_trace is not trace and rep_trace != trace:
            return Verdict(
                ok=False,
                check=check,
                sigma=rep_sigma,
                sigma_prime=sigma,
                position=_first_divergence(rep_trace, trace),
                trace=rep_trace,
                trace_prime=trace,
                states=domain.position(sigma) + 1,
            )
    return Verdict(ok=True, check=check, states=domain.size())


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
    program, else the first witness in program and enumeration order. An
    empty corpus raises ValueError: the strength would hold vacuously.
    """
    corpus = tuple(corpus)
    if not corpus:
        raise ValueError(f"{c1} >= {c2} needs at least one program")
    for idx, p in enumerate(corpus):
        tracers = {}
        c2_key = contract_tracer(c2, p, domain, fuel, tracers, as_key=True)
        v = relate(p, domain, c2_key, contract_tracer(c1, p, domain, fuel, tracers), f"{c1} >= {c2}")
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

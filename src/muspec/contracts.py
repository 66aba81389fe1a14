"""Labeled ISA semantics (contracts), their traces, and contract strength.

A labeled contract is the set of observation atoms it shows. An atom is an
observation kind, the pc, a load address, a store address or a loaded value,
in a frame, architectural (A) or speculative (S):

    seq-ct      pcA ldA stA             seq-arch   seq-ct + valA
    spec-pc-ct  seq-ct + pcS            spec-ct    seq-ct + pcS ldS stS
    spec-arch   all eight atoms         top        none

A contract that shows a speculative atom runs ``trace_spec`` at its window,
any other ``trace_seq`` (``_Run`` picks), and one filter, ``_shown``, keeps
the atoms it shows of the run's arch trace; bot-inf shows the state after
each step of the seq run instead.
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
)

INF = math.inf

DEFAULT_SPEC_WINDOW = 7

SPEC_ATOMS = frozenset({"pcS", "ldS", "stS", "valS"})
VALUE_ATOMS = frozenset({"valA", "valS"})
_CT = frozenset({"pcA", "ldA", "stA"})
# name -> the atoms each of the seven contracts shows (bot-inf: states), and
# the inverse
CONTRACTS = {
    "seq-ct": _CT,
    "seq-arch": _CT | {"valA"},
    "spec-ct": _CT | {"pcS", "ldS", "stS"},
    "spec-pc-ct": _CT | {"pcS"},
    "spec-arch": _CT | {"valA"} | SPEC_ATOMS,
    "top": frozenset(),
    "bot-inf": frozenset({"state"}),
}
_NAMES = {atoms: name for name, atoms in CONTRACTS.items()}


@dataclass(frozen=True)
class ContractId:
    """One of the seven contracts: the atoms it shows, and its window if
    one of them is speculative."""

    atoms: frozenset
    window: Optional[int] = None  # speculative only; None means DEFAULT_SPEC_WINDOW

    def __post_init__(self):
        name = _NAMES.get(frozenset(self.atoms))
        if name is None:
            raise ValueError(f"no contract shows the atoms {sorted(self.atoms)}")
        object.__setattr__(self, "atoms", CONTRACTS[name])
        if not self.speculative:
            if self.window is not None:
                raise ValueError(f"{self} contract takes no window")
        elif self.window is None:
            object.__setattr__(self, "window", DEFAULT_SPEC_WINDOW)
        elif self.window < 1:
            raise ValueError(f"speculative window must be >= 1, got {self.window}")

    @property
    def speculative(self) -> bool:
        """Whether it shows a speculative atom, and so runs ``trace_spec``."""
        return not self.atoms.isdisjoint(SPEC_ATOMS)

    def __str__(self):
        return _NAMES[self.atoms]

    @staticmethod
    def parse(name: str, window: Optional[int] = None) -> "ContractId":
        """The contract ``name``; ``window`` applies to a speculative one only."""
        if name not in CONTRACTS:
            raise ValueError(f"unknown contract {name!r}")
        contract = ContractId(CONTRACTS[name])
        return ContractId(contract.atoms, window) if contract.speculative else contract


SEQ_CT = ContractId.parse("seq-ct")
SEQ_ARCH = ContractId.parse("seq-arch")
SPEC_CT = ContractId.parse("spec-ct")
SPEC_PC_CT = ContractId.parse("spec-pc-ct")
SPEC_ARCH = ContractId.parse("spec-arch")
TOP = ContractId.parse("top")
BOT_INF = ContractId.parse("bot-inf")


def _labeled_step(p, state, modulus):
    """One architectural step plus its arch observation (None when silent):
    load and store addresses, the post-step pc at branches and jumps, and
    the value a load loaded: in a watched run a deferred one until the run
    uses it. ``_shown`` makes each labeled contract's trace of it."""
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


_KIND_ATOMS = {"pc": "pc", "store": "st", "loadv": "ld"}


def _shown(trace: tuple, atoms: frozenset, speculative=(), fill=()) -> tuple:
    """What a contract showing ``atoms`` shows of ``trace``, an arch trace
    whose observations at the positions ``speculative`` were made in a
    speculative frame: each observation whose atom it shows in that
    observation's frame, a load as ``("load", n)`` unless it also shows the
    value in that frame, with the value at each position of ``fill`` given
    there. A trace shown whole is ``trace`` itself."""
    shown = []
    for i, o in enumerate(trace):
        frame = "S" if i in speculative else "A"
        if _KIND_ATOMS[o[0]] + frame in atoms:
            if o[0] == "loadv":
                if "val" + frame not in atoms:
                    o = ("load", o[1])
                elif i in fill:
                    o = ("loadv", o[1], fill[i])
            shown.append(o)
    shown = tuple(shown)
    return trace if shown == trace else shown


def trace_seq(
    p: Program,
    state: ArchState,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    steps: list = None,
) -> tuple:
    """The arch trace of the sequential run from ``state``. ``steps``, if a
    list, receives each step's state and arch observation (None when
    silent), which ``bot-inf`` snapshots (see ``trace_degenerate``)."""
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
    of each observation made in a speculative frame, rollbacks included.
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
        ins = p.lookup(top.regs[PC])
        if w == 0:
            resumed, _ = stack[-2]
            obs = ("pc", observed(resumed.regs[PC]))
            stack.pop()
        elif isinstance(ins, Beqz):
            pc = top.regs[PC]
            nxt = arch_step(p, top, modulus)
            mispred = ins.target if nxt.regs[PC] == pc + 1 else pc + 1
            new_w = INF if w == INF else w - 1
            w_mispred = window if w == INF else new_w
            obs = ("pc", observed(mispred))
            stack[-1] = (nxt, new_w)
            stack.append((top.with_regs(**{PC: mispred}), w_mispred))
        else:
            # a terminated path inside a speculative frame: program lookup at
            # the undefined pc keeps yielding the terminate step, silently
            # burning the window until rollback
            nxt, obs = (top, None) if top.is_final() else _labeled_step(p, top, modulus)
            # barriers zero speculative windows; outside speculation they
            # are ordinary steps (the bottom frame keeps its infinite window)
            stack[-1] = (nxt, INF if w == INF else 0 if isinstance(ins, Barrier) else w - 1)
        if obs is not None:
            if w != INF:
                speculative.append(len(trace))
            trace.append(obs)
    raise FuelExhausted(f"no final state within {fuel} steps")


def state_snapshot(state: ArchState, addrs=()) -> tuple:
    """Canonical full-state blob: sorted registers, then memory restricted
    to nonzero cells plus ``addrs``, in address order."""
    regs = tuple((r, observed(v)) for r, v in sorted(state.regs.items()))
    return regs, tuple((a, observed(state.mem.get(a, 0))) for a in sorted(state.mem.keys() | addrs))


def trace_degenerate(
    p: Program,
    state: ArchState,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    snapshot_addrs: tuple = (),
) -> tuple:
    """The ``bot-inf`` trace: a snapshot of the state after each of
    ``trace_seq``'s steps, listing ``snapshot_addrs`` and each cell loaded
    or stored so far."""
    steps = []
    trace_seq(p, state, fuel, modulus, steps)
    touched, trace = set(snapshot_addrs), []
    for sigma, obs in steps:
        if obs is not None and obs[0] != "pc":
            touched.add(obs[1])  # a load's or store's address
        trace.append(("state", state_snapshot(sigma, touched)))
    return tuple(trace)


def contract_trace(
    contract: ContractId,
    p: Program,
    state: ArchState,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
    snapshot_addrs: tuple = (),
) -> tuple:
    """``contract``'s trace from ``state``: the atoms it shows of its run's
    arch trace (``_shown``), nothing for top, or the bot-inf trace."""
    if contract == TOP:
        return ()
    if contract == BOT_INF:
        return trace_degenerate(p, state, fuel, modulus, snapshot_addrs)
    run = _Run(contract.window, p, state, fuel, modulus)
    return _shown(run.trace, contract.atoms, run.speculative)


def contract_tracer(contract: ContractId, p: Program, domain, fuel: int, tracers: dict, as_key: bool = False):
    """``contract``'s trace function on ``domain``'s states, run once per
    distinct path of the terms over the domain's varying cells that a run
    forces (see ``arch_step``). An explorer, seq or spec at a window, runs
    once per path for every contract that reads it (``_Run``): the labeled
    contracts and, of seq, a bot-inf key; top shows nothing and runs
    nothing, and an observed bot-inf runs ``trace_degenerate`` on each
    state. ``tracers``, a batch's tracers by semantics, keeps each
    explorer's runs under ``(_Run, window)``, a key no semantics has.

    With ``as_key`` it returns a function equal on two states exactly when
    their traces are: the trace function, but for bot-inf. A bot-inf key is
    the state's seq run and its values of the kept cells, the varying cells
    the run's first step leaves watched, so no snapshot is built. A state's
    bot-inf trace is the run's step states with each value the run left
    deferred taken under the state. A domain state's registers hold no
    deferred value, so the first step logs no term: only a load reads
    memory, and it defers. The first snapshot lists every domain cell, and
    shows each kept cell's initial value, so equal traces mean equal keys.
    Each deferred term reads only cells watched at its load, kept cells as
    the watch only shrinks, so equal keys mean equal traces. States on
    different runs differ in a logged cell, which is kept, as a cell the
    first step overwrites is never logged. The run stays in the key, so a
    key raises a run's error at the first state."""
    if not contract.atoms:  # top
        return lambda sigma: ()
    if contract == BOT_INF and not as_key:
        return lambda sigma: trace_degenerate(p, sigma, fuel, domain.modulus, domain.addresses)
    window = contract.window
    if (_Run, window) not in tracers:
        cells = (a for a, *_ in domain.vary)
        tracers[_Run, window] = share_runs(lambda s, _: (_Run(window, p, s, fuel, domain.modulus), {}), cells)
    shared = tracers[_Run, window]
    if contract == BOT_INF:
        def key(sigma):
            run = shared(sigma)  # its one kept set orders the cells alike for its states
            return run, tuple(map(sigma.mem.get, run.kept, repeat(0)))
        return key
    atoms, values = contract.atoms, not contract.atoms.isdisjoint(VALUE_ATOMS)

    def tracer(sigma):  # runs once per state, so it makes a trace once per run and key
        run = shared(sigma)
        key = tuple(map(sigma.mem.get, run.cells, repeat(0))) if values and run.cells else atoms
        try:
            return run.shown[key]
        except KeyError:
            fill = dict(zip(run.positions, key)) if values else ()
            trace = run.shown[key] = _shown(run.trace, atoms, run.speculative, fill)
            return trace
    return tracer


class _Run:
    """One run of an explorer, a leaf of its shared trie: the arch ``trace``
    from ``sigma`` of ``trace_spec`` at ``window``, or of ``trace_seq`` if
    ``window`` is None, the positions ``speculative`` of the observations
    made in a speculative frame, the ``positions`` of the loads that left
    their ``cells``' values deferred, and ``shown``, the labeled traces made
    of it so far: by atoms, and for the run's one value-showing contract by
    those cells' values if there are any; and of a seq run, the ``kept``
    cells, still watched after its first step, that a bot-inf key reads."""

    __slots__ = ("trace", "speculative", "positions", "cells", "shown", "kept")

    def __init__(self, window, p: Program, sigma: ArchState, fuel: int, modulus: int):
        self.speculative, self.shown, self.kept = [], {}, None
        if window is None:
            steps = []
            self.trace = trace = trace_seq(p, sigma, fuel, modulus, steps)
            self.kept = steps[0][0].watch
        else:
            self.trace = trace = trace_spec(p, sigma, window, fuel, modulus, self.speculative)
        deferred = [i for i, o in enumerate(trace) if o[0] == "loadv" and o[2].__class__ is Deferred]
        self.positions, self.cells = tuple(deferred), tuple(trace[i][2].term for i in deferred)


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

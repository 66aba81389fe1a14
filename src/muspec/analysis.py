"""Decision procedures over finite state domains: contract satisfaction,
non-interference, SNI/wSNI, the sandboxing and constant-time tables, and
the contract lattice.

All verdicts are relative to an explicitly enumerated domain of initial
states; counterexamples replay deterministically.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

from .arch import DEFAULT_FUEL, ArchState, _state
from .contracts import (
    BOT_INF,
    SEQ_ARCH,
    SEQ_CT,
    ContractId,
    StrengthWitness,
    Verdict,
    contract_tracer,
    relate,
)
from .isa import (
    BINARY_OPS,
    BOTTOM,
    UNARY_OPS,
    Assign,
    Barrier,
    Beqz,
    BinOp,
    CondAssign,
    Const,
    Jmp,
    Load,
    Program,
    Reg,
    Skip,
    Store,
    UnOp,
    is_modulus,
    text_lines,
)
from .pipeline import HwConfig, hw_tracer

STATE_GUARD = 4096
_NO_WATCH = frozenset()


class DomainTooLarge(Exception):
    pass


@dataclass(frozen=True)
class Policy:
    """Low address ranges; everything else is high. Registers are all zero
    in initial states, so only memory needs classifying."""

    low: tuple  # ((lo, hi), ...), inclusive

    def __post_init__(self):
        for lo, hi in self.low:
            if not 0 <= lo <= hi:
                raise ValueError(f"low {lo}..{hi}: need 0 <= lo <= hi")

    def is_low(self, addr: int) -> bool:
        return any(lo <= addr <= hi for lo, hi in self.low)

    @staticmethod
    def parse(text: str) -> "Policy":
        ranges = []
        for lineno, line in text_lines(text):
            parts = line.split()
            try:
                if len(parts) != 2 or parts[0] != "low":
                    raise ValueError
                bounds = parts[1].split("..", 1)
                ranges.append((int(bounds[0]), int(bounds[-1])))
            except ValueError:
                raise ValueError(f"policy line {lineno}: expected 'low <addr>|<lo>..<hi>'") from None
        return Policy(tuple(ranges))


@dataclass(frozen=True)
class StateDomain:
    """Finite set of initial states: fixed memory cells plus varying cells
    enumerated over inclusive value ranges, arithmetic modulo ``modulus``."""

    modulus: int = 16
    vary: tuple = ()  # ((addr, lo, hi), ...)
    fixed: tuple = ()  # ((addr, value), ...)

    def __post_init__(self):
        if not is_modulus(self.modulus):
            raise ValueError(f"domain needs values a power of two >= 2, got {self.modulus}")
        for addr, lo, hi in self.vary:
            if not 0 <= lo <= hi < self.modulus:
                raise ValueError(f"vary {addr} in {lo}..{hi}: need 0 <= lo <= hi < {self.modulus}")
        for addr, v in self.fixed:
            if not 0 <= v < self.modulus:
                raise ValueError(f"fix {addr} = {v}: need 0 <= value < {self.modulus}")
        addrs = self.addresses
        for i, addr in enumerate(addrs):
            if addr < 0:
                raise ValueError(f"address {addr} is negative: no program can read it")
            if addr in addrs[:i]:
                raise ValueError(f"address {addr} is listed twice in the domain")
        if self.size() < 2:
            raise ValueError("domain has one state: it forms no pair, so every check would pass")

    @property
    def addresses(self) -> tuple:
        return tuple(a for a, *_ in self.vary) + tuple(a for a, _ in self.fixed)

    def size(self) -> int:
        n = 1
        for _, lo, hi in self.vary:
            n *= hi - lo + 1
        return n

    def position(self, sigma: ArchState) -> int:
        """The index of ``sigma`` in ``initial_states``' order."""
        index = 0
        for addr, lo, hi in self.vary:
            index = index * (hi - lo + 1) + sigma.read_mem(addr) - lo
        return index

    @cached_property
    def _images(self) -> tuple:
        """Each state's memory in enumeration order, without its zero cells."""
        base = tuple((a, v) for a, v in self.fixed if v)
        addrs = [a for a, *_ in self.vary]
        return tuple(
            dict(base + tuple((a, v) for a, v in zip(addrs, values) if v))
            for values in itertools.product(*(range(lo, hi + 1) for _, lo, hi in self.vary))
        )

    @cached_property
    def _states(self) -> dict:
        """Each register set's states, in enumeration order."""
        return {}

    def initial_states(self, program: Program):
        """Each state of the domain in enumeration order, the last varying
        cell fastest: registers zero, memory without its zero cells. The
        first enumeration for a register set builds its states, and every
        later one yields those same objects: they share one zero-register
        dict, and each state's memory dict with the states of every other
        register set. That is sound as no run writes a state's dicts in
        place: a step's update copies them. A caller must not write them
        either."""
        n = self.size()
        if n > STATE_GUARD:
            raise DomainTooLarge(f"domain has {n} states (> {STATE_GUARD})")
        states = self._states.get(program.registers)
        if states is None:
            regs = dict.fromkeys(program.registers, 0)
            states = self._states[program.registers] = tuple(
                _state(regs, mem, _NO_WATCH, None) for mem in self._images
            )
        yield from states

    @staticmethod
    def parse(text: str) -> "StateDomain":
        modulus = None
        vary = []
        fixed = []
        for lineno, line in text_lines(text):
            parts = line.split()
            if parts[0] == "values" and modulus is not None:
                raise ValueError(f"domain line {lineno}: values given twice")
            try:
                if parts[0] == "values" and len(parts) == 2:
                    modulus = int(parts[1])
                elif parts[0] == "vary" and len(parts) == 4 and parts[2] == "in":
                    lo, hi = parts[3].split("..", 1)
                    vary.append((int(parts[1]), int(lo), int(hi)))
                elif parts[0] == "fix" and len(parts) == 4 and parts[2] == "=":
                    fixed.append((int(parts[1]), int(parts[3])))
                else:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"domain line {lineno}: expected 'values <V>', "
                    f"'vary <addr> in <lo>..<hi>', or 'fix <addr> = <v>'"
                ) from None
        return StateDomain(16 if modulus is None else modulus, tuple(vary), tuple(fixed))


def low_equivalent(sigma: ArchState, sigma_prime: ArchState, policy: Policy) -> bool:
    return _low_fingerprint(sigma, policy) == _low_fingerprint(sigma_prime, policy)


def _low_fingerprint(sigma: ArchState, policy: Policy) -> tuple:
    return tuple(sorted((a, v) for a, v in sigma.mem.items() if policy.is_low(a)))


def _side(side, tracers, program, domain, fuel, as_key=False):
    """One side of a check as a function of the initial state: a Policy is
    the low fingerprint, a tuple the tuple of its parts, and a semantics
    its tracer in ``tracers``, built on first use. A side ``as_key`` need
    only be equal on two states exactly when the traces are: bot-inf's
    builds no trace (``contract_tracer``), so it is kept apart from its
    tracer."""
    if isinstance(side, tuple):
        parts = [_side(s, tracers, program, domain, fuel, as_key) for s in side]
        return lambda sigma: tuple(f(sigma) for f in parts)
    if isinstance(side, Policy):
        return lambda sigma: _low_fingerprint(sigma, side)
    slot = (side, as_key) if side == BOT_INF else side
    if slot not in tracers:
        if isinstance(side, ContractId):
            tracers[slot] = contract_tracer(side, program, domain, fuel, tracers, as_key)
        elif isinstance(side, HwConfig):
            tracers[slot] = hw_tracer(side, program, domain)
        else:
            raise TypeError(f"semantics must be a ContractId or HwConfig, got {side!r}")
    return tracers[slot]


def decide(program: Program, domain: StateDomain, checks, fuel: int = DEFAULT_FUEL) -> list:
    """Relate each check ``(name, key, observed)`` in order, one verdict per
    check. A side is a ContractId, an HwConfig, a Policy, or a tuple of
    these; every semantics gets one tracer for the whole batch (the
    contracts that run one explorer share its runs), and each check still
    walks the domain by itself. ``fuel`` bounds the contract runs; a
    hardware config's runs keep its own fuel."""
    tracers = {}
    return [
        relate(
            program,
            domain,
            _side(key, tracers, program, domain, fuel, as_key=True),
            _side(observed, tracers, program, domain, fuel),
            name,
        )
        for name, key, observed in checks
    ]


def check_contract_satisfaction(
    program: Program,
    contract: ContractId,
    cfg: HwConfig,
    domain: StateDomain,
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """Equal contract traces must imply equal adversary-visible hardware
    traces on the domain."""
    if contract.speculative and contract.window <= cfg.buffer_size + 1:
        raise ValueError(
            f"speculative contract window {contract.window} must exceed "
            f"buffer_size + 1 = {cfg.buffer_size + 1}"
        )
    check = (f"sat[{contract} vs {cfg.countermeasure}]", contract, cfg)
    return decide(program, domain, [check], fuel)[0]


def _ni(policy: Policy, semantics) -> tuple:
    name = f"hw:{semantics.countermeasure}" if isinstance(semantics, HwConfig) else semantics
    return (f"ni[{name}]", policy, semantics)


def check_ni(
    program: Program,
    policy: Policy,
    semantics: Union[ContractId, HwConfig],
    domain: StateDomain,
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """Low-equivalent initial states must produce equal traces."""
    return decide(program, domain, [_ni(policy, semantics)], fuel)[0]


def check_wsni(
    program: Program,
    contract: ContractId,
    domain: StateDomain,
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """Equal seq-arch traces must imply equal traces under ``contract``."""
    return decide(program, domain, [(f"wsni[{contract}]", SEQ_ARCH, contract)], fuel)[0]


def check_sni(
    program: Program,
    policy: Policy,
    contract: ContractId,
    domain: StateDomain,
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """Low-equivalence plus equal seq-ct traces must imply equal traces
    under ``contract``."""
    return decide(program, domain, [(f"sni[{contract}]", (policy, SEQ_CT), contract)], fuel)[0]


# ---------------------------------------------------------------------------
# Table classifications


def _spec_contracts(window: int) -> dict:
    """The speculative columns of both tables."""
    return {name: ContractId.parse(name, window) for name in ("spec-ct", "spec-pc-ct")}


@dataclass(frozen=True)
class TableRow:
    program: str
    vanilla: Verdict
    cells: tuple  # ((contract name, "Y,..."|"N", Verdict|None), ...)

    def cell(self, contract_name: str) -> str:
        for name, text, _verdict in self.cells:
            if name == contract_name:
                return text
        raise KeyError(contract_name)


def classify_sandboxing(
    program: Program,
    policy: Policy,
    domain: StateDomain,
    window: int,
    name: str = "",
    fuel: int = DEFAULT_FUEL,
) -> TableRow:
    """One row of the sandboxing table: vanilla sandboxing is NI against
    seq-arch; contracts at least as strong as seq-arch pass by the lattice,
    the speculative ones take a wSNI check."""
    spec = _spec_contracts(window)
    checks = [_ni(policy, SEQ_ARCH)] + [(f"wsni[{c}]", SEQ_ARCH, c) for c in spec.values()]
    vanilla, *verdicts = decide(program, domain, checks, fuel)
    cells = [(c, "Y,>=", None) for c in ("seq-ct", "seq-arch")]
    cells += [(c, "Y,wSNI" if v.ok else "N", v) for c, v in zip(spec, verdicts)]
    return TableRow(name, vanilla, tuple(cells))


def classify_constant_time(
    program: Program,
    policy: Policy,
    domain: StateDomain,
    window: int,
    name: str = "",
    fuel: int = DEFAULT_FUEL,
) -> TableRow:
    """One row of the constant-time table: vanilla constant-time is NI
    against seq-ct; seq-arch is checked directly as NI (values make it
    unusable for constant-time); the speculative contracts take SNI."""
    spec = _spec_contracts(window)
    checks = [_ni(policy, SEQ_CT), _ni(policy, SEQ_ARCH)]
    checks += [(f"sni[{c}]", (policy, SEQ_CT), c) for c in spec.values()]
    vanilla, arch, *verdicts = decide(program, domain, checks, fuel)
    cells = [("seq-ct", "Y,>=" if vanilla.ok else "N", vanilla)]
    cells.append(("seq-arch", "Y,NI" if arch.ok else "N", arch))
    cells += [(c, "Y,SNI" if v.ok else "N", v) for c, v in zip(spec, verdicts)]
    return TableRow(name, vanilla, tuple(cells))


# ---------------------------------------------------------------------------
# Lattice


# the contracts but bot-inf, in the order that lists lattice_edges' edges
_BY_STRENGTH = ("top", "seq-ct", "spec-pc-ct", "spec-ct", "seq-arch", "spec-arch")


@cache
def lattice_edges(window: int) -> tuple:
    """The seven strength edges, stronger contract first in each pair: the
    covering pairs of strict inclusion among the atom sets of the contracts
    but bot-inf (showing fewer atoms is stronger), in ``_BY_STRENGTH``
    order, and spec-arch >= bot-inf."""
    named = [ContractId.parse(name, window) for name in _BY_STRENGTH]
    edges = tuple(
        (c1, c2)
        for c1, c2 in itertools.combinations(named, 2)
        if c1.atoms < c2.atoms and not any(c1.atoms < c.atoms < c2.atoms for c in named)
    )
    return edges + ((named[-1], BOT_INF),)


def check_lattice(
    corpus,
    domain: StateDomain,
    window: int,
    fuel: int = DEFAULT_FUEL,
) -> dict:
    """Empirical check of each edge (c1, c2), c1 stronger than c2: maps
    ``"c1 >= c2"`` to None when every c2-equal state pair is also c1-equal
    on every program, else to the first witness in program and enumeration
    order. Each program is one batch over the edges not refuted yet. An
    empty corpus raises ValueError: every edge would hold vacuously."""
    corpus = tuple(corpus)
    if not corpus:
        raise ValueError("lattice check needs at least one program")
    edges = {f"{c1} >= {c2}": (c1, c2) for c1, c2 in lattice_edges(window)}
    results = dict.fromkeys(edges)
    for idx, p in enumerate(corpus):
        checks = [(name, c2, c1) for name, (c1, c2) in edges.items() if results[name] is None]
        for v in decide(p, domain, checks, fuel):
            if not v.ok:
                w = StrengthWitness(idx, v.sigma, v.sigma_prime, v.trace, v.trace_prime)
                results[v.check] = w
    return results


# ---------------------------------------------------------------------------
# Random well-formed programs for the lattice suite


_RANDOM_REGS = ("x", "y", "z", "w")


def _random_expr(rng: random.Random, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return Const(rng.randrange(16))
    if roll < 0.7:
        return Reg(rng.choice(_RANDOM_REGS))
    if roll < 0.8:
        return UnOp(rng.choice(list(UNARY_OPS)), _random_expr(rng, depth - 1))
    op = rng.choice(list(BINARY_OPS))
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def random_programs(count: int, seed: int = 0, length: int = 8) -> list:
    """Well-formed random programs; control flow only moves forward, so
    every one of them terminates."""
    rng = random.Random(seed)
    programs = []
    for _ in range(count):
        instrs = []
        for addr in range(length):
            roll = rng.random()
            if roll < 0.20:
                instrs.append(Assign(rng.choice(_RANDOM_REGS), _random_expr(rng)))
            elif roll < 0.40:
                instrs.append(Load(rng.choice(_RANDOM_REGS), _random_expr(rng, 1)))
            elif roll < 0.55:
                instrs.append(Store(rng.choice(_RANDOM_REGS), _random_expr(rng, 1)))
            elif roll < 0.75:
                choices = list(range(addr + 2, length))
                if choices and rng.random() < 0.7:
                    target = rng.choice(choices)
                else:
                    target = BOTTOM
                instrs.append(Beqz(rng.choice(_RANDOM_REGS), target))
            elif roll < 0.82:
                instrs.append(Jmp(Const(rng.randrange(addr + 1, length + 1))))
            elif roll < 0.90:
                instrs.append(
                    CondAssign(
                        rng.choice(_RANDOM_REGS),
                        _random_expr(rng, 1),
                        _random_expr(rng, 1),
                    )
                )
            elif roll < 0.96:
                instrs.append(Skip())
            else:
                instrs.append(Barrier())
        programs.append(Program(tuple(instrs)))
    return programs

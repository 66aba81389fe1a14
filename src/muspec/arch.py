"""Architectural (ISA-level) semantics: deterministic steps and runs."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Tuple

from .isa import (
    BOTTOM,
    DEFAULT_MODULUS,
    PC,
    Assign,
    Barrier,
    Beqz,
    CondAssign,
    Deferred,
    Jmp,
    Load,
    Program,
    Skip,
    Store,
    StuckError,
    Value,
    eval_expr,
    force,
    format_value,
    is_modulus,
    is_register_name,
    is_zero,
    observed,
    parse_value,
    term_cells,
    term_value,
    text_lines,
)

DEFAULT_FUEL = 10 ** 6


class FuelExhausted(Exception):
    """The step bound ran out, i.e. the program may not terminate."""


@dataclass(frozen=True)
class ArchState:
    """Memory plus register assignment.

    Memory is total with default 0; only nonzero cells are stored so that
    dict equality coincides with semantic equality.

    ``watch`` holds the varying cells whose initial value this state has not
    yet overwritten, and ``reads`` the log its run shares of the terms over
    those cells that it used (see ``isa.term_value``), each with its value.
    ``read_mem`` logs a watched cell, its own term, at its first read; a
    step's ``load``, architectural or hardware, hands out a ``Deferred``
    value instead, and the run logs a term computed from it, the cell
    itself or not, where a step first needs that term's value. Neither
    takes part in equality, hashing, ``key()`` or ``format_state``.
    """

    regs: dict
    mem: dict = field(default_factory=dict)
    watch: frozenset = field(default=frozenset(), compare=False, repr=False)
    reads: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mem", {k: v for k, v in self.mem.items() if v != 0})

    @staticmethod
    def initial(program: Program, mem: dict = None) -> "ArchState":
        return ArchState(regs={r: 0 for r in program.registers}, mem=dict(mem or {}))

    def read_mem(self, addr: int) -> Value:
        v = self.mem.get(addr, 0)
        if addr in self.watch:
            self.reads.setdefault(addr, v)
        return v

    def load(self, addr: int) -> Value:
        """``read_mem`` for a step's load in a watched run: a watched cell the
        reads log does not hold yet gives a deferred value, logged when it
        is used."""
        if addr in self.watch and addr not in self.reads:
            return Deferred(addr, self.mem.get(addr, 0), self.reads)
        return self.mem.get(addr, 0)

    def rebound(self, v: Value) -> Value:
        """``v`` for a run that resumes from this initial state: a deferred
        value takes its term's value here and this state's reads log."""
        if v.__class__ is Deferred:
            return Deferred(v.term, term_value(v.term, self.mem), self.reads, v.size)
        return v

    def is_final(self) -> bool:
        return self.regs[PC] is BOTTOM

    def with_regs(self, **updates) -> "ArchState":
        regs = dict(self.regs)
        regs.update(updates)
        return _state(regs, self.mem, self.watch, self.reads)

    def with_reg(self, reg: str, value: Value) -> "ArchState":
        regs = dict(self.regs)
        regs[reg] = value
        return _state(regs, self.mem, self.watch, self.reads)

    def with_mem(self, addr: int, value: Value) -> "ArchState":
        mem = dict(self.mem)
        if value == 0:
            mem.pop(addr, None)
        else:
            mem[addr] = value
        watch = self.watch - {addr} if addr in self.watch else self.watch
        return _state(self.regs, mem, watch, self.reads)

    def watched(self, cells: frozenset, reads: dict) -> "ArchState":
        """This state with ``cells`` watched and its run's log in ``reads``."""
        return _state(self.regs, self.mem, cells, reads)

    def resumed(self, sigma: "ArchState") -> "ArchState":
        """This state, taken midway through a run, continued for ``sigma``:
        the cells it still watches and sigma's reads log does not hold yet
        take sigma's values, deferred values in the registers are rebound
        to sigma, and what the run logs goes to sigma's log."""
        unread = self.watch - sigma.reads.keys()
        mem = {a: v for a, v in self.mem.items() if a not in unread}
        mem.update((a, sigma.mem[a]) for a in unread if a in sigma.mem)
        regs = {r: sigma.rebound(v) for r, v in self.regs.items()}
        return _state(regs, mem, self.watch, sigma.reads)

    def key(self) -> tuple:
        """Hashable canonical form."""
        return (
            tuple(sorted((r, observed(v)) for r, v in self.regs.items())),
            tuple(sorted((a, observed(v)) for a, v in self.mem.items())),
        )

    def __eq__(self, other):
        return isinstance(other, ArchState) and self.regs == other.regs and self.mem == other.mem

    def __hash__(self):
        return hash(self.key())


def _state(regs, mem, watch, reads) -> ArchState:
    """An ArchState from already normalised memory, without ``__post_init__``."""
    state = object.__new__(ArchState)
    d = state.__dict__
    d["regs"], d["mem"], d["watch"], d["reads"] = regs, mem, watch, reads
    return state


class ReadOrderError(Exception):
    """A run logged terms over the varying cells in another order than an
    earlier run that logged the same values: it looked at memory, or at a
    value it had not yet logged, other than through read_mem or a deferred
    value's force."""


class _Read:
    """Trie node: every run that gets here logs ``term`` next. ``start`` is
    where such a run can resume, the point just before that log, or None.
    A compound term's node also keeps the cells the term reads, a lone one
    bare, and in ``seen`` the node found after it for their values, so a
    state that repeats those values does not evaluate the term."""

    __slots__ = ("term", "next", "start", "cells", "seen")

    def __init__(self, term, start):
        self.term = term
        self.next = {}  # the term's value -> node, a _Read or the leaf (result,)
        self.start = start
        if term.__class__ is not int:
            cells = term_cells(term)
            self.cells = cells[0] if len(cells) == 1 else cells
            self.seen = {}  # the cells' values -> node


def share_runs(run, cells) -> Callable:
    """Share ``run``'s results between states that agree on every term over
    ``cells`` the run uses, and resume a run where those terms diverge.

    ``run(sigma, start)`` returns ``(result, starts)``. It must log a term
    over ``cells`` in sigma's reads (``read_mem`` logs a cell, ``force`` of
    a deferred value its term, see ``isa.term_value``) before its result
    first depends on the term's value, in an order that depends only on
    the values of the terms logged so far, and the states it is given must
    differ only in ``cells``. A trie branches on those terms' values over
    a state's memory, in the order the runs log them: a state whose values
    lead to a leaf gets the stored result, any other is run once, watched,
    and its path inserted. A result may hold deferred values the run did
    not use, for the caller to evaluate per state (see ``contracts._Run``).
    ``starts`` maps each term the run logged to the point just before the
    step that logged it, kept on the term's new node; a run that does not
    resume, a contract run, gives none. A state whose values leave the
    trie at a node with a point is run from it: ``start`` is that point,
    and the state's reads log already holds the path to the node.
    Otherwise ``start`` is None. A run whose log disagrees with the trie
    raises ReadOrderError.
    """
    cells = frozenset(cells)
    root = {}  # the trie's root node, under the key None

    def shared(sigma: ArchState):
        mem = sigma.mem
        fork = node = root.get(None)
        while node.__class__ is _Read:
            fork, t = node, node.term
            if t.__class__ is int:  # a raw cell is read inline
                node = node.next.get(mem.get(t, 0))
                continue
            read = node.cells
            raw = mem.get(read, 0) if read.__class__ is int else tuple(map(mem.get, read, repeat(0)))
            node = fork.seen.get(raw)
            if node is None:
                node = fork.next.get(term_value(t, mem))
                if node is not None:
                    fork.seen[raw] = node
        if node is not None:
            return node[0]
        reads = {}
        start = fork.start if fork is not None else None
        if start is not None:
            node = root[None]
            while node is not fork:
                reads[node.term] = value = term_value(node.term, sigma.mem)
                node = node.next[value]
        result, starts = run(sigma.watched(cells, reads), start)
        slot, key = root, None
        for term, value in reads.items():
            node = slot.get(key)
            if node is None:
                node = slot[key] = _Read(term, starts.get(term))
            elif not isinstance(node, _Read) or node.term != term:
                raise ReadOrderError(f"a run logged {term!r} out of the order of earlier runs")
            slot, key = node.next, value
        if key in slot:
            raise ReadOrderError("a run stopped reading where earlier runs with its values read on")
        slot[key] = (result,)
        return result

    return shared


def arch_step(p: Program, state: ArchState, modulus: int = DEFAULT_MODULUS, addr: int | None = None) -> ArchState:
    """The unique successor of a non-final state. In a watched run a load
    may give a deferred value (``ArchState.load``), and the step forces
    one only where it needs a natural: a load or store address, store
    data, a ``jmp`` target, and a branch or conditional-assignment guard
    as its zero test. ``addr`` is a load's or store's address, evaluated
    and forced, when the caller has it already."""
    pc = state.regs[PC]
    if pc is BOTTOM:
        raise StuckError("arch_step on a final state")
    ins = p.lookup(pc)
    a = state.regs
    if ins is None:
        return state.with_regs(**{PC: BOTTOM})
    if isinstance(ins, (Skip, Barrier)):
        return state.with_regs(**{PC: pc + 1})
    if isinstance(ins, Assign):
        v = eval_expr(ins.expr, a, modulus=modulus)
        return state.with_regs(**{PC: pc + 1, ins.target: v})
    if isinstance(ins, CondAssign):
        guard = eval_expr(ins.guard, a, modulus=modulus)
        if guard == 0 if guard.__class__ is int else is_zero(guard, modulus):
            v = eval_expr(ins.expr, a, modulus=modulus)
            return state.with_regs(**{PC: pc + 1, ins.target: v})
        return state.with_regs(**{PC: pc + 1})
    if isinstance(ins, (Load, Store)):
        if addr is None:
            addr = eval_expr(ins.addr, a, modulus=modulus)
            addr = addr if addr.__class__ is int else force(addr)
        if isinstance(ins, Load):
            return state.with_regs(**{PC: pc + 1, ins.target: state.load(addr)})
        v = a[ins.src]
        if v is BOTTOM:
            raise StuckError(f"store of undefined register {ins.src} at address {pc}")
        return state.with_mem(addr, v if v.__class__ is int else force(v)).with_regs(**{PC: pc + 1})
    if isinstance(ins, Beqz):
        v = a[ins.guard]
        if v is BOTTOM:
            raise StuckError(f"branch on undefined register {ins.guard} at address {pc}")
        if v == 0 if v.__class__ is int else is_zero(v, modulus):
            return state.with_regs(**{PC: ins.target})
        return state.with_regs(**{PC: pc + 1})
    if isinstance(ins, Jmp):
        target = eval_expr(ins.target, a, modulus=modulus)
        return state.with_regs(**{PC: target if target.__class__ is int else force(target)})
    raise TypeError(f"not an instruction: {ins!r}")


def arch_run(
    p: Program,
    state: ArchState,
    fuel: int = DEFAULT_FUEL,
    modulus: int = DEFAULT_MODULUS,
) -> Tuple[ArchState, int]:
    """Iterate arch_step to the final state; returns (final state, steps)."""
    steps = 0
    while not state.is_final():
        if steps >= fuel:
            raise FuelExhausted(f"no final state within {fuel} steps")
        state = arch_step(p, state, modulus)
        steps += 1
    return state, steps


# ---------------------------------------------------------------------------
# State literals: `reg name=value` / `mem addr=value`, one per line, after an
# optional first line `values <V>`. Values and addresses are runs of decimal
# digits; `end` is a register value only.


def parse_state(text: str, program: Program, modulus: int = DEFAULT_MODULUS) -> Tuple[ArchState, int]:
    """The state ``text`` gives ``program``, and the modulus its run takes:
    the ``values`` line's, as in a domain file, else ``modulus``. Every
    value is below that modulus, and every register one a program can name."""
    given = {"reg": {}, "mem": {}}
    for n, (lineno, line) in enumerate(text_lines(text)):
        parts = line.split()
        if parts[0] == "values":
            v = int(parts[1]) if len(parts) == 2 and parts[1].isdecimal() else 0
            if n or not is_modulus(v):
                raise ValueError(f"state line {lineno}: expected 'values <V>' first, V a power of two >= 2")
            modulus = v
            continue
        if len(parts) != 2 or "=" not in parts[1]:
            raise ValueError(f"state line {lineno}: expected 'reg name=value' or 'mem addr=value'")
        kind, assignment = parts
        lhs, rhs = assignment.split("=", 1)
        if kind not in given:
            raise ValueError(f"state line {lineno}: unknown kind {kind!r}")
        if kind == "mem" and not lhs.isdecimal():
            raise ValueError(f"state line {lineno}: expected integers in {assignment!r}")
        if kind == "reg" and not is_register_name(lhs):
            raise ValueError(f"state line {lineno}: no program names a register {lhs!r}")
        key = lhs if kind == "reg" else int(lhs)
        if key in given[kind]:
            raise ValueError(f"state line {lineno}: {kind} {lhs} given twice")
        try:
            value = parse_value(rhs)
        except ValueError:
            raise ValueError(f"state line {lineno}: expected integers in {assignment!r}") from None
        if value is BOTTOM and kind == "mem":
            raise ValueError(f"state line {lineno}: a memory cell holds no end in {assignment!r}")
        if value is not BOTTOM and value >= modulus:
            raise ValueError(f"state line {lineno}: {assignment!r} holds no value below {modulus}")
        given[kind][key] = value
    regs = {**ArchState.initial(program).regs, **given["reg"]}
    return ArchState(regs=regs, mem=given["mem"]), modulus


def format_state(state: ArchState) -> str:
    lines = [f"reg {r}={format_value(v)}" for r, v in sorted(state.regs.items())]
    lines += [f"mem {a}={format_value(v)}" for a, v in sorted(state.mem.items())]
    return "\n".join(lines) + "\n"

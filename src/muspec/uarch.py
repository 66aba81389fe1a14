"""Microarchitectural components: reorder buffers, caches, predictors,
schedulers.

Reorder-buffer commands are 5-tuples ``(kind, a, b, tag, marked)``:

    ("skip",    None, None,      None, False)
    ("barrier", None, None,      None, False)
    ("assign",  x,    payload,   tag,  marked)   marked: pc-increment writes
    ("load",    x,    payload,   None, False)
    ("store",   payload, payload, None, False)   value operand, address operand

A payload is an Expr (unresolved) or a Value (resolved).  An assignment's
``tag`` is None, or for a branch prediction the branch's address.  The
pipeline keeps a reorder buffer as a tuple of commands and a parallel tuple
of taint labels, frozensets of 1-based buffer indexes (empty outside taint
tracking).

The buffer's ordering rules are stated once, here: ``may_fetch``,
``executable``, ``blocked`` and ``retire_ready``.  Each reads only an
entry's kind, target and tag and whether its payloads are resolved (a
value in a command, R in a projection), so it gives the same answer on the
commands and on their projection.  The schedulers build their candidates
from these rules over the projection, and the pipeline's stages enforce
them over the commands:

- fetch needs room and no barrier or unresolved pc write in the buffer;
- an entry executes while it has something to compute (an unresolved
  payload, or a branch prediction to check) and is not blocked: no older
  barrier, and for a load no older store;
- the head retires once it has nothing left to execute; a load never
  does, its execute turns it into an assignment.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .isa import BOTTOM, PC, is_value

R = "R"
UR = "UR"

FETCH = ("fetch",)
RETIRE = ("retire",)


def execute(i: int) -> tuple:
    return ("execute", i)


# ---------------------------------------------------------------------------
# Commands


def cmd_skip():
    return ("skip", None, None, None, False)


def cmd_barrier():
    return ("barrier", None, None, None, False)


def cmd_assign(x, payload, tag=None, marked=False):
    return ("assign", x, payload, tag, marked)


def cmd_load(x, payload):
    return ("load", x, payload, None, False)


def cmd_store(value_payload, addr_payload):
    return ("store", value_payload, addr_payload, None, False)


def project_entry(cmd, label) -> tuple:
    """Data-independent projection of one labeled command: payloads become
    R/UR, the label and tag stay, values never appear."""
    kind, a, b, tag, marked = cmd
    if kind in ("skip", "barrier"):
        return (kind, None, None, tag, marked, label)
    if kind == "store":
        return (kind, R if is_value(a) else UR, R if is_value(b) else UR, tag, marked, label)
    return (kind, a, R if is_value(b) else UR, tag, marked, label)


def buf_project(entries) -> tuple:
    """Projection of a labeled buffer, given as ``(command, label)`` pairs."""
    return tuple(project_entry(cmd, label) for cmd, label in entries)


def apply_buffer(buf, regs: dict) -> dict:
    """Register assignment after the pending plain commands in ``buf``.

    Resolved assignments write their value, unresolved assignments and
    loads write BOTTOM.  A barrier writes nothing: no entry behind one
    executes (``blocked``).
    """
    a = dict(regs)
    for kind, x, payload, _tag, _marked in buf:
        if kind == "assign":
            a[x] = payload if is_value(payload) else BOTTOM
        elif kind == "load":
            a[x] = BOTTOM
    return a


# ---------------------------------------------------------------------------
# Ordering rules. Each takes commands or projected entries alike.


def _resolved(payload) -> bool:
    """A projected payload, R or UR, is resolved when it is R; a command's,
    an Expr or a Value, when it is a value."""
    return payload == R if payload.__class__ is str else is_value(payload)


def may_fetch(buf, mu_w: int) -> bool:
    """Fetch needs a free slot, and no barrier or unresolved pc write in
    flight: it waits for a barrier to retire and for the pc to be known."""
    if len(buf) >= mu_w:
        return False
    for entry in buf:
        kind = entry[0]
        if kind == "barrier" or kind == "assign" and entry[1] == PC and not _resolved(entry[2]):
            return False
    return True


def executable(entry) -> bool:
    """Whether executing the entry computes something: an unresolved
    payload, or a branch prediction (a tagged entry) to check."""
    kind = entry[0]
    if kind == "assign":
        return entry[3] is not None or not _resolved(entry[2])
    if kind == "store":
        return not (_resolved(entry[1]) and _resolved(entry[2]))
    return kind == "load"


def blocked(buf, i: int) -> bool:
    """Whether entry i (1-based) must wait for older entries: any entry
    behind a barrier, a load behind a store."""
    load = buf[i - 1][0] == "load"
    for j in range(i - 1):
        kind = buf[j][0]
        if kind == "barrier" or load and kind == "store":
            return True
    return False


def retire_ready(entry) -> bool:
    """Whether the entry may retire from the head: it has nothing left to
    execute, and it is not a load, which its execute makes an assignment."""
    return entry[0] != "load" and not executable(entry)


# ---------------------------------------------------------------------------
# Caches (metadata only: which lines are present, never their contents).
# An update that leaves the lines in place returns the cache itself.


@dataclass(unsafe_hash=True)
class LruCache:
    """Fully-associative cache with least-recently-used eviction."""

    capacity: int
    line: int = 1
    entries: tuple = ()  # most recent first

    def _lid(self, addr):
        return addr // self.line

    def access(self, addr) -> bool:
        return self._lid(addr) in self.entries

    def update(self, addr) -> "LruCache":
        lid = self._lid(addr)
        if self.entries and self.entries[0] == lid:
            return self
        rest = tuple(e for e in self.entries if e != lid)
        return LruCache(self.capacity, self.line, ((lid,) + rest)[: self.capacity])

    def key(self) -> tuple:
        return ("lru", self.capacity, self.line, self.entries)


@dataclass(unsafe_hash=True)
class DirectCache:
    """Direct-mapped cache: one slot per set, indexed by line modulo sets."""

    sets: int
    line: int = 1
    slots: Optional[tuple] = None  # None: every set empty

    def __post_init__(self):
        if self.slots is None:
            self.slots = (None,) * self.sets

    def _lid(self, addr):
        return addr // self.line

    def access(self, addr) -> bool:
        lid = self._lid(addr)
        return self.slots[lid % self.sets] == lid

    def update(self, addr) -> "DirectCache":
        lid = self._lid(addr)
        if self.slots[lid % self.sets] == lid:
            return self
        slots = list(self.slots)
        slots[lid % self.sets] = lid
        return DirectCache(self.sets, self.line, tuple(slots))

    def key(self) -> tuple:
        return ("direct", self.sets, self.line, self.slots)


def make_cache(spec: str):
    """Parse ``lru:<cap>[:<line>]`` or ``direct:<sets>[:<line>]``; the size
    and the line must be at least 1."""
    parts = spec.split(":")
    caches = {"lru": LruCache, "direct": DirectCache}
    if parts[0] not in caches or len(parts) not in (2, 3):
        raise ValueError(f"unknown cache spec {spec!r}")
    try:
        size, line = int(parts[1]), int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ValueError(f"cache spec {spec!r}: size and line must be integers") from None
    if size < 1 or line < 1:
        raise ValueError(f"cache spec {spec!r}: size and line must be >= 1")
    return caches[parts[0]](size, line)


# ---------------------------------------------------------------------------
# Branch predictors. Prediction must be one of the two legal outcomes, so
# the stages hand each call the branch's taken target. An update that moves
# no counter returns the predictor itself.


@dataclass(unsafe_hash=True)
class FallthroughPredictor:
    def predict(self, addr, target):
        return addr + 1

    def update(self, addr, outcome, target):
        return self

    def key(self):
        return ("fallthrough",)


@dataclass(unsafe_hash=True)
class BackwardTakenPredictor:
    """Static heuristic: backward branches predicted taken, forward not."""

    def predict(self, addr, target):
        if isinstance(target, int) and target <= addr:
            return target
        return addr + 1

    def update(self, addr, outcome, target):
        return self

    def key(self):
        return ("backward",)


@dataclass(unsafe_hash=True)
class TwoBitPredictor:
    """Per-address saturating counters, 0..3, taken when >= 2, cold state 0."""

    counters: tuple = ()  # sorted ((addr, counter), ...)

    def _counter(self, addr) -> int:
        for a, c in self.counters:
            if a == addr:
                return c
        return 0

    def predict(self, addr, target):
        return target if self._counter(addr) >= 2 else addr + 1

    def update(self, addr, outcome, target) -> "TwoBitPredictor":
        old = self._counter(addr)
        c = min(old + 1, 3) if outcome == target else max(old - 1, 0)
        if c == old and (addr, c) in self.counters:
            return self
        table = {a: v for a, v in self.counters}
        table[addr] = c
        return TwoBitPredictor(tuple(sorted(table.items())))

    def key(self):
        return ("twobit", self.counters)


PREDICTORS = {
    "fallthrough": FallthroughPredictor,
    "backward": BackwardTakenPredictor,
    "twobit": TwoBitPredictor,
}


def make_predictor(kind: str):
    if kind not in PREDICTORS:
        raise ValueError(f"unknown predictor {kind!r}")
    return PREDICTORS[kind]()


# ---------------------------------------------------------------------------
# Schedulers. A scheduler is its own state plus a policy over the buffer's
# data-independent projection, which the hardware state owns and hands to
# ``next``, ``key`` and ``update`` (the projections before and after a step).


@dataclass(unsafe_hash=True)
class SequentialScheduler:
    """Fetch / execute 1 / retire in strict program order; it keeps no state."""

    def next(self, proj: tuple) -> tuple:
        if not proj:
            return FETCH
        return execute(1) if executable(proj[0]) else RETIRE

    def update(self, old: tuple, new: tuple) -> "SequentialScheduler":
        return self

    def key(self, proj: tuple):
        return ("seq", proj)


@dataclass(unsafe_hash=True)
class OooScheduler:
    """Out-of-order policy over the buffer rules' candidates: fetch ahead
    while there is room, execute plain entries oldest first, retire, then
    resolve branch predictions youngest first.

    The directive may be stuck for reasons invisible in the projection
    (unresolved operands, masked values, a full buffer on a two-entry
    fetch).  A stuck directive leaves the projection unchanged, so the
    stall counter grows and the choice rotates through the candidate
    list, trying each candidate twice: a cache miss needs one repeat to
    turn into a hit, anything still stuck after two tries is skipped.

    The candidate list depends only on the projection, so ``memo`` keeps it
    per projection and ``update`` hands it on: a run shares one memo, and
    the runs that resume from its states share it too.
    """

    mu_w: int
    stall: int = 0
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def _candidates(self, proj: tuple) -> list:
        cands = [FETCH] if may_fetch(proj, self.mu_w) else []
        plain, branches = [], []
        for i, entry in enumerate(proj, 1):
            if executable(entry) and not blocked(proj, i):
                (plain if entry[3] is None else branches).append(execute(i))
        # data flows oldest-first; predictions resolve late and innermost
        # first, keeping speculative windows open as long as possible
        cands.extend(plain)
        if proj and retire_ready(proj[0]):
            cands.append(RETIRE)
        cands.extend(reversed(branches))
        return cands or [FETCH]

    def next(self, proj: tuple) -> tuple:
        cands = self.memo.get(proj)
        if cands is None:
            cands = self.memo[proj] = self._candidates(proj)
        return cands[(self.stall // 2) % len(cands)]

    def update(self, old: tuple, new: tuple) -> "OooScheduler":
        stall = self.stall + 1 if new is old or new == old else 0
        return OooScheduler(self.mu_w, stall, self.memo)

    def key(self, proj: tuple):
        return ("ooo", self.mu_w, proj, self.stall)


def make_scheduler(kind: str, mu_w: int):
    if kind == "seq":
        return SequentialScheduler()
    if kind == "ooo":
        return OooScheduler(mu_w)
    raise ValueError(f"unknown scheduler {kind!r}")

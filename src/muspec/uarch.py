"""Microarchitectural components: reorder buffers, caches, predictors,
schedulers.

Reorder-buffer commands are 5-tuples ``(kind, a, b, tag, marked)``:

    ("skip",    None, None,      tag, False)
    ("barrier", None, None,      tag, False)
    ("assign",  x,    payload,   tag, marked)   marked: pc-increment writes
    ("load",    x,    payload,   tag, False)
    ("store",   payload, payload, tag, False)   value operand, address operand

A payload is an Expr (unresolved) or a Value (resolved).  ``tag`` is None
for untagged entries or the branch address whose prediction produced the
entry.  The labeled buffer used by the pipeline pairs each command with a
frozenset of 1-based buffer indexes (empty outside taint tracking).
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


def cmd_skip(tag=None):
    return ("skip", None, None, tag, False)


def cmd_barrier(tag=None):
    return ("barrier", None, None, tag, False)


def cmd_assign(x, payload, tag=None, marked=False):
    return ("assign", x, payload, tag, marked)


def cmd_load(x, payload, tag=None):
    return ("load", x, payload, tag, False)


def cmd_store(value_payload, addr_payload, tag=None):
    return ("store", value_payload, addr_payload, tag, False)


def buf_project(buf) -> tuple:
    """Data-independent projection: payloads become R/UR, labels and tags
    stay, values never appear."""
    out = []
    for cmd, label in buf:
        kind, a, b, tag, marked = cmd
        if kind in ("skip", "barrier"):
            out.append((kind, None, None, tag, marked, label))
        elif kind == "store":
            out.append((kind, R if is_value(a) else UR, R if is_value(b) else UR, tag, marked, label))
        else:
            out.append((kind, a, R if is_value(b) else UR, tag, marked, label))
    return tuple(out)


def apply_buffer(buf, regs: dict) -> dict:
    """Register assignment after the pending plain commands in ``buf``.

    Resolved assignments write their value, unresolved assignments and
    loads write BOTTOM; a barrier anywhere maps every register to BOTTOM.
    """
    a = dict(regs)
    for kind, x, payload, _tag, _marked in buf:
        if kind == "assign":
            a[x] = payload if is_value(payload) else BOTTOM
        elif kind == "load":
            a[x] = BOTTOM
        elif kind == "barrier":
            return {r: BOTTOM for r in a}
    return a


# ---------------------------------------------------------------------------
# Caches (metadata only: which lines are present, never their contents)


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
    size, line = int(parts[1]), int(parts[2]) if len(parts) == 3 else 1
    if size < 1 or line < 1:
        raise ValueError(f"cache spec {spec!r}: size and line must be >= 1")
    return caches[parts[0]](size, line)


# ---------------------------------------------------------------------------
# Branch predictors. Prediction must be one of the two legal outcomes, so
# the stages hand each call the branch's taken target.


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
        c = self._counter(addr)
        c = min(c + 1, 3) if outcome == target else max(c - 1, 0)
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
# Schedulers. Both consume only data-independent buffer projections.


def _exec_projected(entry) -> bool:
    kind, a, b, tag, _marked, _label = entry
    if kind in ("skip", "barrier"):
        return False
    if kind == "assign":
        return b == UR or tag is not None
    if kind == "load":
        return True
    if kind == "store":
        return a == UR or b == UR
    raise ValueError(f"unknown command kind {kind!r}")


def _retire_ready(entry) -> bool:
    kind, a, b, tag, _marked, _label = entry
    if tag is not None:
        return False
    if kind in ("skip", "barrier"):
        return True
    if kind == "store":
        return a == R and b == R
    return b == R


@dataclass(unsafe_hash=True)
class SequentialScheduler:
    """Fetch / execute 1 / retire in strict program order; its state is the
    last projection it saw."""

    proj: tuple = ()

    def next(self) -> tuple:
        if not self.proj:
            return FETCH
        return execute(1) if _exec_projected(self.proj[0]) else RETIRE

    def update(self, proj: tuple) -> "SequentialScheduler":
        return SequentialScheduler(proj)

    def key(self):
        return ("seq", self.proj)


@dataclass(unsafe_hash=True)
class OooScheduler:
    """Out-of-order policy: fetch ahead while there is room, execute the
    youngest executable entry, retire last.

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
    proj: tuple = ()
    stall: int = 0
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def _candidates(self) -> list:
        proj = self.proj
        cands = []
        kinds = [e[0] for e in proj]
        if (
            len(proj) < self.mu_w
            and "barrier" not in kinds
            and not any(e[0] == "assign" and e[1] == PC and e[2] == UR for e in proj)
        ):
            cands.append(FETCH)
        plain, branches = [], []
        for i in range(1, len(proj) + 1):
            entry = proj[i - 1]
            if not _exec_projected(entry):
                continue
            prefix = kinds[: i - 1]
            if "barrier" in prefix:
                continue
            if entry[0] == "load" and "store" in prefix:
                continue
            if entry[3] is not None:
                branches.append(execute(i))
            else:
                plain.append(execute(i))
        # data flows oldest-first; predictions resolve late and innermost
        # first, keeping speculative windows open as long as possible
        cands.extend(plain)
        if proj and _retire_ready(proj[0]):
            cands.append(RETIRE)
        cands.extend(reversed(branches))
        return cands or [FETCH]

    def next(self) -> tuple:
        cands = self.memo.get(self.proj)
        if cands is None:
            cands = self.memo[self.proj] = self._candidates()
        return cands[(self.stall // 2) % len(cands)]

    def update(self, proj: tuple) -> "OooScheduler":
        stall = self.stall + 1 if proj == self.proj else 0
        return OooScheduler(self.mu_w, proj, stall, self.memo)

    def key(self):
        return ("ooo", self.mu_w, self.proj, self.stall)


SCHEDULERS = ("seq", "ooo")


def make_scheduler(kind: str, mu_w: int):
    if kind == "seq":
        return SequentialScheduler()
    if kind == "ooo":
        return OooScheduler(mu_w)
    raise ValueError(f"unknown scheduler {kind!r}")

"""Secure-speculation mechanisms: eager load delay and the taint-tracking
family (STT-style tt, NDA strict/permissive).

Taint labels are frozensets of 1-based buffer positions naming the
unresolved branch entries a command may transitively depend on.  The
pipeline consults ``unlabel`` before a stage (masking possibly-transient
data, or holding a load back) and ``relabel`` after it (propagating taint
through the new buffer).
"""
from __future__ import annotations

from .isa import BOTTOM, PC, expr_registers, is_value

EMPTY = frozenset()

COUNTERMEASURES = ("none", "seq", "loaddelay", "tt", "nda-strict", "nda-permissive")

TAINT = ("tt", "nda-strict", "nda-permissive")  # the taint-tracking countermeasures


def is_transmit(cmd) -> bool:
    """Loads, stores, and assignments to the program counter."""
    kind, a, _b, _tag, _marked = cmd
    if kind in ("load", "store"):
        return True
    return kind == "assign" and a == PC


def loaddelay_guard(buf, directive) -> bool:
    """True when the directive may proceed: loads execute only once every
    earlier branch prediction is resolved (no tagged entries in the prefix)."""
    if directive[0] != "execute":
        return True
    i = directive[1]
    if i > len(buf) or buf[i - 1][0][0] != "load":
        return True
    return all(cmd[3] is None for cmd, _label in buf[: i - 1])


# ---------------------------------------------------------------------------
# Unlabeling: how labels affect what a stage may see.


def _mask(buf) -> tuple:
    """Hide possibly-transient assignment values (non-empty label) as BOTTOM."""
    out = []
    for cmd, label in buf:
        kind, x, _payload, tag, marked = cmd
        if kind == "assign" and label:
            out.append(("assign", x, BOTTOM, tag, marked))
        else:
            out.append(cmd)
    return tuple(out)


def _drop(buf) -> tuple:
    return tuple(cmd for cmd, _label in buf)


def tt_unlabel(buf, directive) -> tuple:
    """STT: mask on fetch and on executes of transmit instructions, plain
    label erasure otherwise."""
    if directive[0] == "fetch":
        return _mask(buf)
    if directive[0] == "retire":
        return _drop(buf)
    i = directive[1]
    if 1 <= i <= len(buf) and is_transmit(buf[i - 1][0]):
        return _mask(buf)
    return _drop(buf)


def nda_unlabel(buf, directive) -> tuple:
    """NDA: masking applies regardless of directive and transmit status."""
    return _mask(buf)


def unlabel(countermeasure: str, buf, directive):
    """The plain commands a stage may see of the labeled buffer, or None
    when the countermeasure holds the directive back."""
    if countermeasure == "tt":
        return tt_unlabel(buf, directive)
    if countermeasure in TAINT:
        return nda_unlabel(buf, directive)
    if countermeasure == "loaddelay" and not loaddelay_guard(buf, directive):
        return None
    return _drop(buf)


# ---------------------------------------------------------------------------
# Labeling: how taint is assigned and propagated.


def _register_labels(buf) -> dict:
    """Label environment after the pending buffer writes: the label of a
    register is the label of its youngest in-flight definition."""
    env: dict = {}
    for cmd, label in buf:
        kind, x, _payload, _tag, _marked = cmd
        if kind in ("assign", "load"):
            env[x] = label
    return env


def _expr_label(buf, payload) -> frozenset:
    if is_value(payload):
        return EMPTY
    env = _register_labels(buf)
    out = set()
    for reg in expr_registers(payload):
        out |= env.get(reg, EMPTY)
    return frozenset(out)


def _unresolved_branch_indexes(buf) -> frozenset:
    return frozenset(
        j for j, (cmd, _label) in enumerate(buf, start=1) if cmd[3] is not None
    )


def _strip(entries, j) -> tuple:
    return tuple((cmd, label - {j}) for cmd, label in entries)


def _decrement(entries) -> tuple:
    return tuple(
        (cmd, frozenset(k - 1 for k in label if k - 1 > 0)) for cmd, label in entries
    )


def _fetch_labels(new_plain, old, policy: str) -> tuple:
    """Relabel after a fetch. ``policy`` picks how fresh entries are tainted:
    tt (loads by branch indexes, assignments by their operands), nda-strict
    (every fresh instruction by branch indexes), nda-permissive (loads only).
    """
    grown = len(new_plain) - len(old)
    if grown == 0:
        return tuple(old)
    appended = new_plain[len(old):]
    branches = _unresolved_branch_indexes(old)
    labeled = list(old)
    for offset, cmd in enumerate(appended):
        kind, _x, payload, tag, marked = cmd
        first = offset == 0
        if marked or tag is not None or not first:
            label = EMPTY  # pc bookkeeping entries are never tainted
        elif grown == 1:
            label = EMPTY  # branch prediction, jump, or terminate entry
        elif policy == "nda-strict":
            label = branches
        elif policy == "nda-permissive":
            label = branches if kind == "load" else EMPTY
        elif kind == "load":
            label = branches
        elif kind == "assign":
            label = _expr_label(old, payload)
        else:
            label = EMPTY
        labeled.append((cmd, label))
    return tuple(labeled)


def _execute_labels(new_plain, old, i: int) -> tuple:
    """Relabel after execute i, restoring every untouched old entry."""
    old_cmd, old_label = old[i - 1]
    new_cmd = new_plain[i - 1]
    was_tagged_pc = old_cmd[0] == "assign" and old_cmd[3] is not None
    if len(new_plain) < len(old):
        # rollback: suffix squashed, resolved branch is clean
        return tuple(old[: i - 1]) + ((new_cmd, EMPTY),)
    if was_tagged_pc and new_cmd[3] is None:
        # commit: this speculation source is gone from later labels
        return tuple(old[: i - 1]) + ((new_cmd, EMPTY),) + _strip(old[i:], i)
    return tuple(old[: i - 1]) + ((new_cmd, old_label),) + tuple(old[i:])


def relabel(new_plain, old, directive, policy: str) -> tuple:
    """Label the post-stage buffer given the pre-stage labeled buffer;
    every label is empty under a countermeasure without taint."""
    if policy not in TAINT:
        return tuple((cmd, EMPTY) for cmd in new_plain)
    if directive[0] == "fetch":
        return _fetch_labels(new_plain, old, policy)
    if directive[0] == "retire":
        return _decrement(old[1:])
    return _execute_labels(new_plain, old, directive[1])


"""Secure-speculation mechanisms: eager load delay and the taint-tracking
family (STT-style tt, NDA strict/permissive).

The pipeline keeps a taint label beside each reorder-buffer command: a
frozenset of 1-based buffer positions naming the unresolved branch entries
the command may transitively depend on, empty outside taint tracking.
``unlabel`` decides what a stage may see of the commands (masking
possibly-transient data, or holding a load back) and ``relabel`` labels the
stage's output.
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
    if i > len(buf) or buf[i - 1][0] != "load":
        return True
    return all(cmd[3] is None for cmd in buf[: i - 1])


# ---------------------------------------------------------------------------
# Unlabeling: how labels affect what a stage may see.


def _mask(buf, labels) -> tuple:
    """Hide possibly-transient assignment values (non-empty label) as BOTTOM;
    ``buf`` itself when no label is set."""
    if not any(labels):
        return buf
    return tuple(
        ("assign", cmd[1], BOTTOM, cmd[3], cmd[4]) if label and cmd[0] == "assign" else cmd
        for cmd, label in zip(buf, labels)
    )


def tt_unlabel(buf, labels, directive) -> tuple:
    """STT: mask on fetch and on executes of transmit instructions, the
    commands as they are otherwise."""
    if directive[0] == "fetch":
        return _mask(buf, labels)
    if directive[0] == "retire":
        return buf
    i = directive[1]
    if 1 <= i <= len(buf) and is_transmit(buf[i - 1]):
        return _mask(buf, labels)
    return buf


def nda_unlabel(buf, labels, directive) -> tuple:
    """NDA: masking applies regardless of directive and transmit status."""
    return _mask(buf, labels)


def unlabel(countermeasure: str, buf, labels, directive):
    """The commands a stage may see of ``buf`` given its ``labels``, or None
    when the countermeasure holds the directive back."""
    if countermeasure == "tt":
        return tt_unlabel(buf, labels, directive)
    if countermeasure in TAINT:
        return nda_unlabel(buf, labels, directive)
    if countermeasure == "loaddelay" and not loaddelay_guard(buf, directive):
        return None
    return buf


# ---------------------------------------------------------------------------
# Labeling: how taint is assigned and propagated.


def _register_labels(buf, labels) -> dict:
    """Label environment after the pending buffer writes: the label of a
    register is the label of its youngest in-flight definition."""
    env: dict = {}
    for cmd, label in zip(buf, labels):
        if cmd[0] in ("assign", "load"):
            env[cmd[1]] = label
    return env


def _expr_label(buf, labels, payload) -> frozenset:
    if is_value(payload):
        return EMPTY
    env = _register_labels(buf, labels)
    out = set()
    for reg in expr_registers(payload):
        out |= env.get(reg, EMPTY)
    return frozenset(out)


def _unresolved_branch_indexes(buf) -> frozenset:
    return frozenset(j for j, cmd in enumerate(buf, start=1) if cmd[3] is not None)


def _strip(labels, j) -> tuple:
    return tuple(label - {j} for label in labels)


def _decrement(labels) -> tuple:
    return tuple(frozenset(k - 1 for k in label if k > 1) if label else label for label in labels)


def _fetch_labels(new_plain, buf, labels, policy: str) -> tuple:
    """Relabel after a fetch. ``policy`` picks how fresh entries are tainted:
    tt (loads by branch indexes, assignments by their operands), nda-strict
    (every fresh instruction by branch indexes), nda-permissive (loads only).
    """
    grown = len(new_plain) - len(buf)
    if grown == 0:
        return buf, labels
    appended = new_plain[len(buf):]
    branches = _unresolved_branch_indexes(buf)
    fresh = []
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
            label = _expr_label(buf, labels, payload)
        else:
            label = EMPTY
        fresh.append(label)
    return buf + appended, labels + tuple(fresh)


def _execute_labels(new_plain, buf, labels, i: int) -> tuple:
    """Relabel after execute i, restoring every untouched old entry."""
    old_cmd, new_cmd = buf[i - 1], new_plain[i - 1]
    if len(new_plain) < len(buf):
        # rollback: suffix squashed, resolved branch is clean
        return buf[: i - 1] + (new_cmd,), labels[: i - 1] + (EMPTY,)
    new_buf = buf[: i - 1] + (new_cmd,) + buf[i:]
    if old_cmd[0] == "assign" and old_cmd[3] is not None and new_cmd[3] is None:
        # commit: this speculation source is gone from later labels
        return new_buf, labels[: i - 1] + (EMPTY,) + _strip(labels[i:], i)
    return new_buf, labels


def relabel(new_plain, buf, labels, directive, policy: str) -> tuple:
    """``(commands, labels)`` after a stage turned ``buf`` (labeled
    ``labels``) into ``new_plain``. Without taint, the stage's output with
    empty labels; under taint, every entry the stage did not change comes
    from ``buf``, unmasked."""
    if policy not in TAINT:
        return new_plain, (EMPTY,) * len(new_plain)
    if directive[0] == "fetch":
        return _fetch_labels(new_plain, buf, labels, policy)
    if directive[0] == "retire":
        return buf[1:], _decrement(labels[1:])
    return _execute_labels(new_plain, buf, labels, directive[1])

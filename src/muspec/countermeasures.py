"""Secure-speculation mechanisms: eager load delay and the taint-tracking
family (STT-style tt, NDA strict/permissive).

The pipeline keeps a taint label beside each reorder-buffer command: a
frozenset of 1-based buffer positions naming the unresolved branch entries
the command may transitively depend on, empty outside taint tracking.
``unlabel`` decides what a stage may see of the commands (masking
possibly-transient data, or holding a load back), and ``relabel`` gives the
labels after the stage's edit of the buffer, which the pipeline applies to
the unmasked commands.
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


def _expr_label(buf, labels, payload) -> frozenset:
    """The union of the labels of the registers ``payload`` reads, each the
    label of the register's youngest in-flight definition."""
    if is_value(payload):
        return EMPTY
    env = {cmd[1]: label for cmd, label in zip(buf, labels) if cmd[0] in ("assign", "load")}
    out = set()
    for reg in expr_registers(payload):
        out |= env.get(reg, EMPTY)
    return frozenset(out)


def _strip(labels, j) -> tuple:
    return tuple(label - {j} for label in labels)


def _decrement(labels) -> tuple:
    return tuple(frozenset(k - 1 for k in label if k > 1) if label else label for label in labels)


def relabel(buf, labels, lo: int, hi: int, new, directive, policy: str) -> tuple:
    """The labels after a stage replaced entries lo..hi-1 of ``buf``
    (labeled ``labels``) with the commands ``new``.

    Outside taint tracking every label is empty. Under it, a fetch labels
    the fresh entries by ``policy``: only the instruction of a two-entry
    fetch can be tainted, a load (nda-strict: any instruction) by the
    unresolved branch indexes, under tt an assignment by its operands. A
    retire moves every label down one place. A resolved branch, committed or
    rolled back, is clean and leaves every later label. Any other step keeps
    the labels.
    """
    if policy not in TAINT:
        return labels[:lo] + (EMPTY,) * len(new) + labels[hi:]
    if directive[0] == "retire":
        return _decrement(labels[1:])
    if directive[0] == "execute":
        if buf[lo][3] is None:
            return labels
        return labels[:lo] + (EMPTY,) + _strip(labels[hi:], hi)
    if len(new) < 2:  # a prediction, a jump or a terminate entry
        return labels + (EMPTY,) * len(new)
    kind, _x, payload, _tag, _marked = new[0]
    if kind == "load" or policy == "nda-strict":
        label = frozenset(j for j, cmd in enumerate(buf, start=1) if cmd[3] is not None)
    elif kind == "assign" and policy == "tt":
        label = _expr_label(buf, labels, payload)
    else:
        label = EMPTY
    return labels + (label, EMPTY)  # the marked pc increment is never tainted

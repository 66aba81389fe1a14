"""Eager load delay and the taint-tracking label machinery."""
from muspec import corpus, countermeasures
from muspec.arch import ArchState
from muspec.countermeasures import (
    COUNTERMEASURES,
    TAINT,
    is_transmit,
    loaddelay_guard,
    nda_unlabel,
    relabel,
    tt_unlabel,
    unlabel,
)
from muspec.isa import BOTTOM, PC, BinOp, Const, Reg
from muspec.pipeline import HwConfig, hw_run, hw_step, initial_hw_state
from muspec.uarch import cmd_assign, cmd_barrier, cmd_load, cmd_skip, cmd_store, execute

E = frozenset()
FETCH = ("fetch",)
RETIRE = ("retire",)


def lbl(*pairs):
    """The commands and the parallel labels of ``(command, label)`` pairs."""
    return tuple(cmd for cmd, _ in pairs), tuple(label for _, label in pairs)


# -- transmit classification ---------------------------------------------------


def test_loads_stores_and_pc_writes_transmit():
    assert is_transmit(cmd_load("x", Const(3)))
    assert is_transmit(cmd_store(Reg("x"), Const(3)))
    assert is_transmit(cmd_assign(PC, 5, tag=2))
    assert is_transmit(cmd_assign(PC, 5, marked=True))


def test_plain_assignments_do_not_transmit():
    assert not is_transmit(cmd_assign("x", Const(3)))
    assert not is_transmit(cmd_skip())
    assert not is_transmit(cmd_barrier())


# -- eager load delay -----------------------------------------------------------


def test_load_delayed_behind_unresolved_branch():
    buf = (cmd_assign(PC, 3, tag=1), cmd_load("x", Const(4)))
    assert loaddelay_guard(buf, execute(2)) is False


def test_load_allowed_after_branch_resolves():
    buf = (cmd_assign(PC, 3), cmd_load("x", Const(4)))
    assert loaddelay_guard(buf, execute(2)) is True


def test_non_load_directives_always_allowed():
    buf = (cmd_assign(PC, 3, tag=1), cmd_assign("x", Reg("y")))
    assert loaddelay_guard(buf, RETIRE) is True
    assert loaddelay_guard(buf, FETCH) is True
    assert loaddelay_guard(buf, execute(2)) is True


# -- unlabeling ------------------------------------------------------------------


def test_drop_strips_labels_only():
    buf, labels = lbl((cmd_assign("x", 5), frozenset((1,))))
    assert tt_unlabel(buf, labels, RETIRE) is buf


def test_mask_hides_tainted_assignments_on_transmit_execute():
    buf, labels = lbl(
        (cmd_assign(PC, 3, tag=1), E),
        (cmd_assign("x", 5), frozenset((1,))),
        (cmd_load("y", Reg("x")), frozenset((1,))),
    )
    unl = tt_unlabel(buf, labels, execute(3))  # the load is a transmit
    assert unl[1] == cmd_assign("x", BOTTOM)
    assert unl[0] == cmd_assign(PC, 3, tag=1)  # empty label untouched


def test_execute_of_non_transmit_drops_instead_of_masking():
    buf, labels = lbl(
        (cmd_assign("x", 5), frozenset((1,))),
        (cmd_assign("y", Reg("x")), frozenset((1,))),
    )
    unl = tt_unlabel(buf, labels, execute(2))
    assert unl == (cmd_assign("x", 5), cmd_assign("y", Reg("x")))


def test_nda_masks_for_every_directive():
    buf, labels = lbl((cmd_assign("x", 5), frozenset((1,))),)
    for directive in (FETCH, RETIRE, execute(1)):
        assert nda_unlabel(buf, labels, directive) == (cmd_assign("x", BOTTOM),)


def test_unlabel_hands_the_buffer_itself_when_nothing_is_masked():
    buf, labels = lbl((cmd_assign(PC, 3, tag=1), E), (cmd_load("x", Const(4)), E))
    for countermeasure in COUNTERMEASURES:
        for directive in (FETCH, RETIRE, execute(1), execute(2)):
            plain = unlabel(countermeasure, buf, labels, directive)
            assert plain is buf or plain is None


# -- labeling --------------------------------------------------------------------


def test_fetched_load_labeled_with_unresolved_branch_indexes():
    buf, labels = lbl(
        (cmd_skip(), E),
        (cmd_assign(PC, 3, tag=1), E),
        (cmd_assign(PC, 4, tag=2), E),
    )
    new = (cmd_load("w", Const(9)), cmd_assign(PC, 5, marked=True))
    out_labels = relabel(buf, labels, 3, 3, new, FETCH, "tt")
    assert out_labels[:3] == labels
    assert out_labels[3] == frozenset((2, 3))
    assert out_labels[4] == E  # the marked pc increment is never tainted


def test_fetched_assignment_inherits_operand_labels():
    buf, labels = lbl(
        (cmd_assign(PC, 2, tag=0), E),
        (cmd_load("z", Const(7)), frozenset((1,))),
    )
    new = (cmd_assign("q", BinOp("+", Reg("z"), Const(1))), cmd_assign(PC, 3, marked=True))
    out = relabel(buf, labels, 2, 2, new, FETCH, "tt")
    assert out[2] == frozenset((1,))
    out = relabel(buf, labels, 2, 2, new, FETCH, "nda-strict")
    assert out[2] == frozenset((1,))  # strict: any fresh instruction
    out = relabel(buf, labels, 2, 2, new, FETCH, "nda-permissive")
    assert out[2] == E  # permissive: loads only


def test_retire_decrements_labels():
    buf, labels = lbl(
        (cmd_assign("x", 5), E),
        (cmd_assign(PC, 3, tag=1), E),
        (cmd_load("w", Const(9)), frozenset((2,))),
        (cmd_load("v", Const(9)), frozenset((1, 2))),
    )
    out_labels = relabel(buf, labels, 0, 1, (), RETIRE, "tt")
    assert out_labels == (E, frozenset((1,)), frozenset((1,)))


def test_branch_commit_strips_its_index_from_later_labels():
    buf, labels = lbl(
        (cmd_assign(PC, 3, tag=2), E),
        (cmd_load("w", Const(9)), frozenset((1,))),
    )
    out_labels = relabel(buf, labels, 0, 1, (cmd_assign(PC, 3),), execute(1), "tt")
    assert out_labels == (E, E)


def test_branch_rollback_discards_labeled_suffix():
    buf, labels = lbl(
        (cmd_assign(PC, 3, tag=2), E),
        (cmd_load("w", Const(9)), frozenset((1,))),
    )
    assert relabel(buf, labels, 0, 2, (cmd_assign(PC, BOTTOM),), execute(1), "tt") == (E,)


# -- end-to-end countermeasure behavior -------------------------------------------


def leak_traces(name, cell, cm, predictor="fallthrough"):
    p = corpus.load(name)
    cfg = HwConfig(countermeasure=cm, predictor=predictor)
    return [hw_run(p, ArchState.initial(p, {cell: v}), cfg)[0] for v in (0, 1)]


def test_loaddelay_still_leaks_through_nested_branches():
    t0, t1 = leak_traces("ex2", 10, "loaddelay", "twobit")
    assert t0 != t1


def test_tt_permits_the_dependent_load_leak():
    t0, t1 = leak_traces("ex3", 7, "tt")
    assert t0 != t1


def test_mask_literal_does_not_reproduce_the_leak(monkeypatch):
    # the figure-literal guard masks the empty-labeled assignments instead:
    # it over-masks and the dependent load stays stuck
    def literal_mask(buf, labels):
        return tuple(
            ("assign", cmd[1], BOTTOM, cmd[3], cmd[4]) if cmd[0] == "assign" and not label else cmd
            for cmd, label in zip(buf, labels)
        )

    monkeypatch.setattr(countermeasures, "_mask", literal_mask)
    t0, t1 = leak_traces("ex3", 7, "tt")
    assert t0 == t1


def test_tt_delays_transmits_with_tainted_operands():
    # P1's second load depends on the speculatively loaded z, so tt must
    # keep it from touching the cache: traces cannot depend on cell 7
    t0, t1 = leak_traces("P1", 7, "tt")
    assert t0 == t1


def test_nda_strict_blocks_what_tt_allows():
    t0, t1 = leak_traces("ex3", 7, "nda-strict")
    assert t0 == t1


def test_sequential_countermeasure_blocks_everything():
    for name, cell in (("ex2", 10), ("ex3", 7), ("P1", 7)):
        t0, t1 = leak_traces(name, cell, "seq", "twobit")
        assert t0 == t1


def test_label_hygiene_through_a_run():
    # every index in every label names a currently tagged pc assignment, on
    # every corpus program under every taint-tracking countermeasure
    mem = {7: 2, 9: 1, 10: 1, 11: 3, 12: 2}
    for countermeasure in TAINT:
        cfg = HwConfig(countermeasure=countermeasure)
        for name in corpus.program_names():
            p = corpus.load(name)
            h = initial_hw_state(ArchState.initial(p, mem), cfg)
            for _ in range(500):
                if h.is_final():
                    break
                h, _, _ = hw_step(p, h, cfg)
                assert len(h.labels) == len(h.buf)
                for label in h.labels:
                    for j in label:
                        tagged_cmd = h.buf[j - 1]
                        assert tagged_cmd[0] == "assign" and tagged_cmd[3] is not None
            assert h.is_final(), (countermeasure, name)

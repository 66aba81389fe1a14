"""Reorder-buffer utilities and the cache / predictor / scheduler models."""
import random

import pytest

from muspec.isa import BOTTOM, PC, BinOp, Const, Reg
from muspec.uarch import (
    FETCH,
    RETIRE,
    DirectCache,
    FallthroughPredictor,
    LruCache,
    OooScheduler,
    SequentialScheduler,
    TwoBitPredictor,
    apply_buffer,
    blocked,
    buf_project,
    cmd_assign,
    cmd_barrier,
    cmd_load,
    cmd_skip,
    cmd_store,
    execute,
    make_cache,
    make_predictor,
    make_scheduler,
    may_fetch,
)

E = frozenset()


def lbl(*cmds):
    return tuple((c, E) for c in cmds)


# -- projection ---------------------------------------------------------------


def test_projection_of_mixed_buffer():
    buf = lbl(
        cmd_assign("k", 25),
        cmd_load("x", BinOp("+", Reg("y"), Reg("z"))),
        cmd_assign("z", BinOp("+", Const(2), Reg("k"))),
    )
    proj = buf_project(buf)
    assert [(e[0], e[1], e[2]) for e in proj] == [
        ("assign", "k", "R"),
        ("load", "x", "UR"),
        ("assign", "z", "UR"),
    ]


def test_projection_of_empty_buffer():
    assert buf_project(()) == ()


def test_projection_of_resolved_store():
    proj = buf_project(lbl(cmd_store(3, 7)))
    assert proj[0][:3] == ("store", "R", "R")
    proj = buf_project(lbl(cmd_store(Reg("x"), 7)))
    assert proj[0][:3] == ("store", "UR", "R")


def test_projection_keeps_tags_marks_labels():
    buf = ((cmd_assign(PC, 5, tag=2), frozenset((1,))),)
    entry = buf_project(buf)[0]
    assert entry[3] == 2
    assert entry[5] == frozenset((1,))


def test_projection_invariant_under_resolved_values():
    rng = random.Random(11)
    for _ in range(200):
        v1, v2 = rng.randrange(100), rng.randrange(100)
        buf1 = lbl(cmd_assign("x", v1), cmd_store(v1, v2), cmd_load("y", BinOp("+", Reg("x"), Const(v1))))
        buf2 = lbl(cmd_assign("x", v2), cmd_store(v2, v1), cmd_load("y", BinOp("+", Reg("x"), Const(v2))))
        assert buf_project(buf1) == buf_project(buf2)


# -- apply --------------------------------------------------------------------


def test_apply_resolved_assignment():
    a = apply_buffer((cmd_assign("x", 5),), {"x": 0, PC: 0})
    assert a["x"] == 5


def test_apply_load_writes_bottom():
    a = apply_buffer((cmd_load("x", Const(3)),), {"x": 7, PC: 0})
    assert a["x"] is BOTTOM


def test_apply_unresolved_assignment_writes_bottom():
    a = apply_buffer((cmd_assign("x", Reg("y")),), {"x": 7, "y": 2, PC: 0})
    assert a["x"] is BOTTOM
    assert a["y"] == 2


def test_a_barrier_stops_fetch_and_blocks_every_younger_entry():
    buf = (cmd_assign("x", Reg("z")), cmd_barrier(), cmd_assign("y", Reg("x")), cmd_load("w", Const(3)))
    # the rule reads the same on the commands and on their projection
    for entries in (buf, buf_project(lbl(*buf))):
        assert not may_fetch(entries, 5)
        assert may_fetch(entries[2:], 5)  # the barrier gone, fetch may go on
        assert [blocked(entries, i) for i in range(1, len(buf) + 1)] == [False, False, True, True]


def test_apply_store_and_skip_ignored():
    a0 = {"x": 1, PC: 2}
    assert apply_buffer((cmd_store(Reg("x"), Const(3)), cmd_skip()), a0) == a0


# -- caches -------------------------------------------------------------------


def test_fresh_lru_misses():
    cs = LruCache(2)
    assert cs.access(5) is False


def test_lru_eviction_order():
    cs = LruCache(2)
    for addr in (1, 2, 3):
        cs = cs.update(addr)
    assert cs.access(1) is False
    assert cs.access(3) is True
    assert cs.access(2) is True


def test_lru_against_reference_simulation():
    # reference: most-recent-first list of line ids, trimmed to capacity
    rng = random.Random(5)
    cs = LruCache(4, line=2)
    reference = []
    for _ in range(500):
        addr = rng.randrange(32)
        lid = addr // 2
        assert cs.access(addr) == (lid in reference)
        cs = cs.update(addr)
        if lid in reference:
            reference.remove(lid)
        reference.insert(0, lid)
        del reference[4:]
    assert list(cs.entries) == reference


def test_direct_mapped_conflict():
    cs = DirectCache(4, 1)
    cs = cs.update(0)
    cs = cs.update(4)  # same set, different tag
    assert cs.access(0) is False
    assert cs.access(4) is True


def test_direct_mapped_against_reference():
    rng = random.Random(6)
    cs = DirectCache(8, line=2)
    reference = {}
    for _ in range(500):
        addr = rng.randrange(64)
        lid = addr // 2
        assert cs.access(addr) == (reference.get(lid % 8) == lid)
        cs = cs.update(addr)
        reference[lid % 8] = lid


def test_cache_access_is_pure():
    cs = LruCache(2).update(3)
    before = cs.key()
    cs.access(3)
    cs.access(9)
    assert cs.key() == before


def test_cache_update_keeps_the_cache_when_the_line_is_in_place():
    # a step that leaves a component alone keeps it as the same object
    for cs in (LruCache(2).update(8).update(3), DirectCache(4).update(3)):
        assert cs.update(3) is cs
        assert cs.update(3 + 4 * 4) is not cs
    lru = LruCache(2).update(3).update(8)
    assert lru.update(3).entries == (3, 8)  # in the cache but not most recent


def test_make_cache_specs():
    assert make_cache("lru:4").key()[:3] == ("lru", 4, 1)
    assert make_cache("direct:4:2").key()[:3] == ("direct", 4, 2)
    with pytest.raises(ValueError):
        make_cache("plru:3")


# -- predictors ---------------------------------------------------------------

# the branches of "beqz x, end\nskip\nbeqz y, 4\nskip\nskip": address to taken target
BRANCHY = {0: BOTTOM, 2: 4}


def test_fallthrough_always_predicts_next():
    bp = FallthroughPredictor()
    assert bp.predict(0, BOTTOM) == 1
    assert bp.predict(2, 4) == 3
    assert bp.update(0, BOTTOM, BOTTOM) is bp


def test_backward_taken_splits_on_direction():
    # "L: skip\nbeqz x, L\nbeqz y, 4\nskip\nskip"
    bp = make_predictor("backward")
    assert bp.predict(1, 0) == 0  # backward: predicted taken
    assert bp.predict(2, 4) == 3  # forward: fall through


def test_twobit_warms_up_to_taken():
    bp = make_predictor("twobit")
    assert bp.predict(2, 4) == 3  # cold counter predicts fall-through
    bp = bp.update(2, 4, 4)  # taken
    assert bp.predict(2, 4) == 3
    bp = bp.update(2, 4, 4)
    assert bp.predict(2, 4) == 4  # counter reached 2: predict taken


def test_twobit_counter_oscillation():
    # 1 -> 2 -> 1 under taken then not-taken
    bp = TwoBitPredictor(counters=((2, 1),))
    bp = bp.update(2, 4, 4)
    assert bp.counters == ((2, 2),)
    bp = bp.update(2, 3, 4)
    assert bp.counters == ((2, 1),)


def test_twobit_update_keeps_the_predictor_when_no_counter_moves():
    bp = TwoBitPredictor(counters=((2, 3),))
    assert bp.update(2, 4, 4) is bp  # saturated at 3
    cold = make_predictor("twobit")
    assert cold.update(2, 3, 4).counters == ((2, 0),)  # a first update records the branch
    zero = TwoBitPredictor(counters=((2, 0),))
    assert zero.update(2, 3, 4) is zero


def test_predictions_always_legal_outcomes():
    rng = random.Random(9)
    for kind in ("fallthrough", "backward", "twobit"):
        bp = make_predictor(kind)
        for _ in range(1000):
            addr = rng.choice(list(BRANCHY))
            target = BRANCHY[addr]
            assert bp.predict(addr, target) in (target, addr + 1)
            bp = bp.update(addr, rng.choice((target, addr + 1)), target)


# -- schedulers ---------------------------------------------------------------


def test_sequential_fetches_on_empty():
    assert SequentialScheduler().next(()) == FETCH


def test_sequential_executes_unresolved_head():
    proj = buf_project(lbl(cmd_assign("x", Reg("y"))))
    assert SequentialScheduler().next(proj) == execute(1)


def test_sequential_retires_skip_and_resolved_heads():
    assert SequentialScheduler().next(buf_project(lbl(cmd_skip()))) == RETIRE
    assert SequentialScheduler().next(buf_project(lbl(cmd_assign("x", 3)))) == RETIRE


def test_sequential_executes_tagged_head():
    proj = buf_project(((cmd_assign(PC, 5, tag=0), E),))
    assert SequentialScheduler().next(proj) == execute(1)


def test_scheduler_obliviousness():
    # equal projections must drive both schedulers identically
    rng = random.Random(13)
    for _ in range(200):
        v = rng.randrange(50)
        bufa = lbl(cmd_assign("x", v), cmd_load("y", Reg("x")))
        bufb = lbl(cmd_assign("x", v + 1), cmd_load("y", Reg("x")))
        pa, pb = buf_project(bufa), buf_project(bufb)
        for kind in ("seq", "ooo"):
            sa = make_scheduler(kind, 5).update((), pa)
            sb = make_scheduler(kind, 5).update((), pb)
            assert sa.key(pa) == sb.key(pb)
            assert sa.next(pa) == sb.next(pb)


def test_ooo_rotates_on_stall():
    proj = buf_project(lbl(cmd_assign("x", Reg("y")), cmd_assign("z", Reg("x"))))
    sc = OooScheduler(5, stall=0)
    first = sc.next(proj)
    for _ in range(8):
        sc = sc.update(proj, proj)
    assert sc.next(proj) != first  # a stuck directive is eventually abandoned


def test_ooo_avoids_blocked_loads():
    buf = lbl(cmd_store(Reg("x"), Const(3)), cmd_load("y", Const(4)))
    sc = OooScheduler(5)
    cands = sc._candidates(buf_project(buf))
    assert execute(2) not in cands  # load blocked by the earlier store
    buf = lbl(cmd_barrier(), cmd_assign("x", Reg("y")))
    assert execute(2) not in sc._candidates(buf_project(buf))


def test_scheduler_keys_and_updates():
    # the sequential scheduler keeps no state; both keys keep the formats the
    # adversary views were pinned with
    proj = buf_project(lbl(cmd_assign("x", Reg("y"))))
    seq = SequentialScheduler()
    assert seq.update((), proj) is seq
    assert seq.key(proj) == ("seq", proj)
    assert OooScheduler(5, stall=3).key(proj) == ("ooo", 5, proj, 3)
    # the out-of-order stall counter grows on an equal projection, identical
    # or not, and resets on a different one
    sc = OooScheduler(5, stall=3)
    assert sc.update(proj, proj).stall == 4
    assert sc.update(proj, buf_project(lbl(cmd_assign("x", Reg("y"))))).stall == 4
    assert sc.update((), proj).stall == 0
    assert sc.update(proj, proj).memo is sc.memo

"""Hardware stage rules, top-level stepping, runs, and the adversary view."""
import pytest

from muspec import corpus
from muspec.arch import ArchState, arch_run
from muspec.countermeasures import COUNTERMEASURES
from muspec.isa import BOTTOM, PC, BinOp, Const, Reg, parse_program
from muspec.pipeline import (
    STUCK,
    HwConfig,
    adversary_view,
    execute_step,
    fetch_step,
    hw_run,
    hw_step,
    hw_steps,
    initial_hw_state,
    retire_step,
)
from muspec.uarch import (
    LruCache,
    buf_project,
    cmd_assign,
    cmd_load,
    cmd_skip,
    cmd_store,
    make_predictor,
)

MU_W = 5
MOD = 16


def plain(*cmds):
    return tuple(cmds)


def warm_cache(*addrs):
    cs = LruCache(8)
    for a in addrs:
        cs = cs.update(a)
    return cs


# -- fetch --------------------------------------------------------------------


def test_fetch_branch_appends_tagged_prediction():
    p = parse_program("beqz x, 5\nskip\nskip\nskip\nskip\nskip")
    bp = make_predictor("fallthrough")
    regs = {PC: 0, "x": 0}
    result = fetch_step(p, ArchState(regs), (), warm_cache(0), bp, MU_W)
    assert result is not STUCK
    _, buf, cs, _ = result
    assert buf == (cmd_assign(PC, 1, tag=0),)
    assert cs.access(0)


def test_fetch_cold_cache_misses_then_hits():
    p = parse_program("skip")
    bp = make_predictor("fallthrough")
    regs = {PC: 0}
    r1 = fetch_step(p, ArchState(regs), (), LruCache(4), bp, MU_W)
    _, buf1, cs1, _ = r1
    assert buf1 == ()  # miss: only the cache learned the address
    assert cs1.access(0)
    r2 = fetch_step(p, ArchState(regs), (), cs1, bp, MU_W)
    _, buf2, _, _ = r2
    assert buf2 == (cmd_skip(), cmd_assign(PC, 1, marked=True))


def test_fetch_load_appends_marked_pc_increment():
    p = parse_program("load z, 4 + 3")
    bp = make_predictor("fallthrough")
    result = fetch_step(p, ArchState({PC: 0, "z": 0}), (), warm_cache(0), bp, MU_W)
    _, buf, _, _ = result
    assert buf == (cmd_load("z", BinOp("+", Const(4), Const(3))), cmd_assign(PC, 1, marked=True))


def test_fetch_jump_appends_target_expression():
    p = parse_program("jmp 4 + 1\nskip\nskip\nskip\nskip\nskip")
    result = fetch_step(p, ArchState({PC: 0}), (), warm_cache(0), None, MU_W)
    _, buf, _, _ = result
    assert buf == (cmd_assign(PC, BinOp("+", Const(4), Const(1))),)


def test_fetch_past_program_appends_terminate_entry():
    p = parse_program("skip")
    result = fetch_step(p, ArchState({PC: 1}), (), warm_cache(1), None, MU_W)
    _, buf, _, _ = result
    assert buf == (cmd_assign(PC, BOTTOM),)


def test_fetch_stuck_on_undefined_pc_or_full_buffer():
    p = parse_program("skip\nskip")
    buf = plain(cmd_load("x", Const(3)))  # pending load of... pc? no: x
    # undefined pc: a pending unresolved jump target
    buf_pc = plain(cmd_assign(PC, Reg("x")))
    assert fetch_step(p, ArchState({PC: 0, "x": 1}), buf_pc, warm_cache(0), None, MU_W) is STUCK
    full = plain(*(cmd_skip() for _ in range(MU_W)))
    assert fetch_step(p, ArchState({PC: 0, "x": 1}), full, warm_cache(0), None, MU_W) is STUCK
    # two-entry fetch needs two free slots
    nearly = plain(*(cmd_skip() for _ in range(MU_W - 1)))
    assert fetch_step(p, ArchState({PC: 0, "x": 1}), nearly, warm_cache(0), None, MU_W) is STUCK


# -- execute ------------------------------------------------------------------


def test_execute_load_hit_resolves_to_value():
    p = parse_program("skip")
    buf = plain(cmd_load("z", Const(9)), cmd_assign(PC, 1, marked=True))
    result = execute_step(p, ArchState({PC: 0, "z": 0}, {9: 4}), buf, warm_cache(9), None, 1, MOD)
    _, buf2, cs2, _ = result
    assert buf2[0] == cmd_assign("z", 4)
    assert buf2[1] == buf[1]


def test_execute_load_miss_only_updates_cache():
    p = parse_program("skip")
    buf = plain(cmd_load("z", Const(9)))
    result = execute_step(p, ArchState({PC: 0, "z": 0}, {9: 4}), buf, LruCache(4), None, 1, MOD)
    _, buf2, cs2, _ = result
    assert buf2 == buf
    assert cs2.access(9)


def test_execute_branch_rollback_squashes_suffix():
    p = parse_program("beqz x, 5\nskip\nskip\nskip\nskip\nskip")
    bp = make_predictor("twobit")
    buf = plain(cmd_assign(PC, 1, tag=0), cmd_skip(), cmd_assign(PC, 2, marked=True))
    result = execute_step(p, ArchState({PC: 0, "x": 0}), buf, warm_cache(), bp, 1, MOD)
    _, buf2, _, bp2 = result
    assert buf2 == (cmd_assign(PC, 5),)  # corrected target, suffix gone
    assert bp2.counters == ((0, 1),)  # branch recorded as taken


def test_execute_branch_commit_keeps_suffix():
    p = parse_program("beqz x, 5\nskip\nskip\nskip\nskip\nskip")
    bp = make_predictor("fallthrough")
    buf = plain(cmd_assign(PC, 1, tag=0), cmd_skip())
    result = execute_step(p, ArchState({PC: 0, "x": 3}), buf, warm_cache(), bp, 1, MOD)
    _, buf2, _, _ = result
    assert buf2 == (cmd_assign(PC, 1), cmd_skip())


def test_execute_assignment_resolves_expression():
    p = parse_program("skip")
    buf = plain(cmd_assign("x", BinOp("+", Const(2), Const(3))))
    result = execute_step(p, ArchState({PC: 0, "x": 0}), buf, warm_cache(), None, 1, MOD)
    assert result[1][0] == cmd_assign("x", 5)


def test_execute_stuck_cases():
    p = parse_program("beqz x, 5\nskip\nskip\nskip\nskip\nskip")
    # operand depends on an earlier unresolved entry
    buf = plain(cmd_load("y", Const(3)), cmd_assign("x", Reg("y")))
    assert execute_step(p, ArchState({PC: 0, "x": 0, "y": 0}), buf, warm_cache(3), None, 2, MOD) is STUCK
    # load behind an in-flight store
    buf = plain(cmd_store(Reg("x"), Const(3)), cmd_load("y", Const(3)))
    assert execute_step(p, ArchState({PC: 0, "x": 1, "y": 0}), buf, warm_cache(3), None, 2, MOD) is STUCK
    # branch guard unresolved
    buf = plain(cmd_load("x", Const(3)), cmd_assign(PC, 1, tag=0))
    assert execute_step(p, ArchState({PC: 0, "x": 0}), buf, warm_cache(3), None, 2, MOD) is STUCK
    # index out of range
    assert execute_step(p, ArchState({PC: 0, "x": 0}), (), warm_cache(), None, 1, MOD) is STUCK


def test_execute_store_resolves_both_operands():
    p = parse_program("skip")
    buf = plain(cmd_store(Reg("x"), BinOp("+", Const(2), Const(1))))
    result = execute_step(p, ArchState({PC: 0, "x": 9}), buf, warm_cache(), None, 1, MOD)
    assert result[1][0] == cmd_store(9, 3)


# -- retire -------------------------------------------------------------------


def test_retire_assignment_writes_register():
    result = retire_step(ArchState({PC: 0, "x": 0}), plain(cmd_assign("x", 5)), warm_cache(), None)
    sigma, buf, _, _ = result
    assert sigma.regs["x"] == 5
    assert buf == ()


def test_retire_store_writes_memory_and_cache():
    result = retire_step(ArchState({PC: 0}), plain(cmd_store(3, 7)), LruCache(4), None)
    sigma, _, cs, _ = result
    assert sigma.mem[7] == 3
    assert cs.access(7)


def test_retire_stuck_on_tagged_or_unresolved_head():
    assert retire_step(ArchState({PC: 0}), plain(cmd_assign(PC, 5, tag=0)), warm_cache(), None) is STUCK
    assert retire_step(ArchState({PC: 0}), plain(cmd_assign("x", Reg("y"))), warm_cache(), None) is STUCK
    assert retire_step(ArchState({PC: 0}), (), warm_cache(), None) is STUCK


# -- top-level stepping and runs ----------------------------------------------


def test_sequential_run_on_skip_reaches_final():
    p = corpus.load("skip")
    cfg = HwConfig(countermeasure="seq")
    views, final = hw_run(p, ArchState.initial(p), cfg)
    assert final.is_final()
    assert final.sigma.regs[PC] is BOTTOM


def test_ooo_run_performs_rollback_on_misprediction():
    p = corpus.load("P1")
    cfg = HwConfig()
    sigma = ArchState.initial(p, {7: 1})
    h = initial_hw_state(sigma, cfg)
    shrunk = False
    prev_len = 0
    for _ in range(1000):
        if h.is_final():
            break
        h, directive, _ = hw_step(p, h, cfg)
        if len(h.buf) < prev_len and directive[0] == "execute":
            shrunk = True
        prev_len = len(h.buf)
    assert shrunk  # a mispredicted branch squashed its suffix


def test_buffer_never_exceeds_capacity():
    for name in ("P1", "ex2", "ex1"):
        p = corpus.load(name)
        cfg = HwConfig(buffer_size=4)
        h = initial_hw_state(ArchState.initial(p, {7: 1, 10: 1}), cfg)
        for _ in range(2000):
            if h.is_final():
                break
            h, _, _ = hw_step(p, h, cfg)
            assert len(h.buf) <= 4
        assert h.is_final()


def test_hw_run_deterministic():
    p = corpus.load("ex2")
    cfg = HwConfig(countermeasure="loaddelay", predictor="twobit")
    s = ArchState.initial(p, {10: 1, 11: 2})
    assert hw_run(p, s, cfg) == hw_run(p, s, cfg)


@pytest.mark.parametrize("name", [n for n in corpus.program_names()])
@pytest.mark.parametrize("countermeasure", ["none", "seq", "loaddelay", "tt"])
def test_final_state_matches_architectural_run(name, countermeasure):
    p = corpus.load(name)
    mem = {7: 2, 9: 1, 10: 1, 11: 3, 12: 2}
    sigma = ArchState.initial(p, mem)
    expected, _ = arch_run(p, sigma)
    cfg = HwConfig(countermeasure=countermeasure)
    _, final = hw_run(p, sigma, cfg)
    assert final.sigma == expected


def test_adversary_view_initial_and_cache_sensitivity():
    p = corpus.load("skip")
    cfg = HwConfig()
    h = initial_hw_state(ArchState.initial(p), cfg)
    proj, cs, bp, sc = adversary_view(h)
    assert proj == ()
    h2 = h.__class__(h.sigma, h.buf, h.cs.update(3), h.bp, h.sc)
    assert adversary_view(h2) != adversary_view(h)


def test_adversary_view_ignores_resolved_values():
    p = corpus.load("skip")
    cfg = HwConfig()
    h = initial_hw_state(ArchState.initial(p), cfg)
    buf1 = ((cmd_assign("x", 5), frozenset()),)
    buf2 = ((cmd_assign("x", 9), frozenset()),)
    v1 = adversary_view(h.__class__(h.sigma, buf1, h.cs, h.bp, h.sc.update(buf_project(buf1))))
    v2 = adversary_view(h.__class__(h.sigma, buf2, h.cs, h.bp, h.sc.update(buf_project(buf2))))
    assert v1 == v2
    assert v1[0]  # the entry is in the view, only its value is not


@pytest.mark.parametrize("scheduler", ["seq", "ooo"])
@pytest.mark.parametrize("countermeasure", COUNTERMEASURES)
def test_view_projection_is_buffer_projection_on_every_state(countermeasure, scheduler):
    # adversary_view reads the projection the scheduler keeps, so every
    # state a run reaches must keep it equal to the buffer's own projection
    mem = {7: 2, 9: 1, 10: 1, 11: 3, 12: 2}
    cfg = HwConfig(countermeasure=countermeasure, scheduler=scheduler)
    for name in corpus.program_names():
        p = corpus.load(name)
        h = initial_hw_state(ArchState.initial(p, mem), cfg)
        assert adversary_view(h)[0] == buf_project(h.buf)
        for h, _directive in hw_steps(p, h, cfg):
            assert adversary_view(h)[0] == buf_project(h.buf)


def test_projection_invariance_of_runs():
    # memory cells that are never observed by the adversary directly can
    # only influence the view through addresses; equal contract traces mean
    # equal views at every step (spot check on a fenced program)
    p = corpus.load("P1f")
    cfg = HwConfig()
    t1, _ = hw_run(p, ArchState.initial(p, {7: 0}), cfg)
    t2, _ = hw_run(p, ArchState.initial(p, {7: 3}), cfg)
    assert t1 == t2


def test_config_parsing():
    cfg = HwConfig.parse(
        "buffer_size = 4\ncache = direct:4:1\npredictor = twobit\n"
        "scheduler = seq\ncountermeasure = loaddelay\n"
    )
    assert cfg.buffer_size == 4
    assert cfg.cache == "direct:4:1"
    assert cfg.predictor == "twobit"
    assert cfg.scheduler == "seq"
    assert cfg.countermeasure == "loaddelay"
    with pytest.raises(ValueError):
        HwConfig.parse("nonsense = 1")


def test_config_errors_name_the_line():
    with pytest.raises(ValueError, match=r"^config line 2: expected an integer fuel$"):
        HwConfig.parse("cache = lru:4\nfuel = x\n")


@pytest.mark.parametrize(
    "bad",
    [
        dict(buffer_size=1),  # a later DeadlockError without the check
        dict(cache="lru:0"),  # a later DeadlockError
        dict(cache="direct:0"),  # a later ZeroDivisionError
        dict(cache="direct:4:0"),
        dict(predictor="oracle"),
        dict(scheduler="random"),
        dict(countermeasure="stt"),
        dict(modulus=0),  # a later ZeroDivisionError
        dict(modulus=10),  # not a power of two
        dict(fuel=0),  # every run a later FuelExhausted
        dict(fuel=-5),
    ],
)
def test_config_rejected_where_built(bad):
    with pytest.raises(ValueError):
        HwConfig(**bad)
    text = "".join(f"{k} = {v}\n" for k, v in bad.items())
    with pytest.raises(ValueError):
        HwConfig.parse(text)


def test_config_rejects_a_key_given_twice():
    # the last value used to win: this built countermeasure none
    with pytest.raises(ValueError, match=r"^config line 2: countermeasure given twice$"):
        HwConfig.parse("countermeasure = tt\ncountermeasure = none\n")


def test_seq_countermeasure_forces_sequential_scheduler():
    cfg = HwConfig(countermeasure="seq", scheduler="ooo")
    assert cfg.scheduler == "seq"

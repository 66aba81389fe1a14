"""Hardware stage rules, top-level stepping, runs, and the adversary view."""
import hashlib
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muspec import corpus
from muspec.analysis import StateDomain, random_programs
from muspec.arch import ArchState, arch_run
from muspec.countermeasures import COUNTERMEASURES
from muspec.isa import BOTTOM, PC, BinOp, Const, Reg, parse_program
from muspec.pipeline import (
    STUCK,
    HwConfig,
    HwState,
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
    FETCH,
    RETIRE,
    LruCache,
    OooScheduler,
    SequentialScheduler,
    blocked,
    buf_project,
    cmd_assign,
    cmd_load,
    cmd_skip,
    cmd_store,
    execute,
    executable,
    make_predictor,
    may_fetch,
    retire_ready,
)

MU_W = 5
MOD = 16

# The three micro-architectures of acceptance criterion 3.
MICROARCHS = (
    dict(cache="lru:4", predictor="fallthrough", scheduler="ooo"),
    dict(cache="direct:4:1", predictor="twobit", scheduler="ooo"),
    dict(cache="lru:2", predictor="backward", scheduler="seq"),
)


def plain(*cmds):
    return tuple(cmds)


def edited(buf, result):
    """``buf`` after the edit of a stage's result: entries lo..hi-1 replaced
    by the commands new."""
    lo, hi, new = result[1]
    return buf[:lo] + new + buf[hi:]


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
    assert edited((), result) == (cmd_assign(PC, 1, tag=0),)
    assert result[2].access(0)


def test_fetch_cold_cache_misses_then_hits():
    p = parse_program("skip")
    bp = make_predictor("fallthrough")
    regs = {PC: 0}
    r1 = fetch_step(p, ArchState(regs), (), LruCache(4), bp, MU_W)
    cs1 = r1[2]
    assert edited((), r1) == ()  # miss: only the cache learned the address
    assert cs1.access(0)
    r2 = fetch_step(p, ArchState(regs), (), cs1, bp, MU_W)
    assert edited((), r2) == (cmd_skip(), cmd_assign(PC, 1, marked=True))


def test_fetch_load_appends_marked_pc_increment():
    p = parse_program("load z, 4 + 3")
    bp = make_predictor("fallthrough")
    result = fetch_step(p, ArchState({PC: 0, "z": 0}), (), warm_cache(0), bp, MU_W)
    assert edited((), result) == (cmd_load("z", BinOp("+", Const(4), Const(3))), cmd_assign(PC, 1, marked=True))


def test_fetch_jump_appends_target_expression():
    p = parse_program("jmp 4 + 1\nskip\nskip\nskip\nskip\nskip")
    result = fetch_step(p, ArchState({PC: 0}), (), warm_cache(0), None, MU_W)
    assert edited((), result) == (cmd_assign(PC, BinOp("+", Const(4), Const(1))),)


def test_fetch_past_program_appends_terminate_entry():
    p = parse_program("skip")
    result = fetch_step(p, ArchState({PC: 1}), (), warm_cache(1), None, MU_W)
    assert edited((), result) == (cmd_assign(PC, BOTTOM),)


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
    buf2 = edited(buf, result)
    assert buf2[0] == cmd_assign("z", 4)
    assert buf2[1] == buf[1]


def test_execute_load_miss_only_updates_cache():
    p = parse_program("skip")
    buf = plain(cmd_load("z", Const(9)))
    result = execute_step(p, ArchState({PC: 0, "z": 0}, {9: 4}), buf, LruCache(4), None, 1, MOD)
    assert edited(buf, result) == buf
    assert result[2].access(9)


def test_execute_branch_rollback_squashes_suffix():
    p = parse_program("beqz x, 5\nskip\nskip\nskip\nskip\nskip")
    bp = make_predictor("twobit")
    buf = plain(cmd_assign(PC, 1, tag=0), cmd_skip(), cmd_assign(PC, 2, marked=True))
    result = execute_step(p, ArchState({PC: 0, "x": 0}), buf, warm_cache(), bp, 1, MOD)
    assert edited(buf, result) == (cmd_assign(PC, 5),)  # corrected target, suffix gone
    assert result[3].counters == ((0, 1),)  # branch recorded as taken


def test_execute_branch_commit_keeps_suffix():
    p = parse_program("beqz x, 5\nskip\nskip\nskip\nskip\nskip")
    bp = make_predictor("fallthrough")
    buf = plain(cmd_assign(PC, 1, tag=0), cmd_skip())
    result = execute_step(p, ArchState({PC: 0, "x": 3}), buf, warm_cache(), bp, 1, MOD)
    assert edited(buf, result) == (cmd_assign(PC, 1), cmd_skip())


def test_execute_assignment_resolves_expression():
    p = parse_program("skip")
    buf = plain(cmd_assign("x", BinOp("+", Const(2), Const(3))))
    result = execute_step(p, ArchState({PC: 0, "x": 0}), buf, warm_cache(), None, 1, MOD)
    assert edited(buf, result)[0] == cmd_assign("x", 5)


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
    assert edited(buf, result)[0] == cmd_store(9, 3)


# -- retire -------------------------------------------------------------------


def test_retire_assignment_writes_register():
    buf = plain(cmd_assign("x", 5))
    result = retire_step(ArchState({PC: 0, "x": 0}), buf, warm_cache(), None)
    assert result[0].regs["x"] == 5
    assert edited(buf, result) == ()


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


@dataclass(frozen=True)
class Picks:
    """A scheduler that always picks ``directive``."""

    directive: tuple

    def next(self, proj: tuple) -> tuple:
        return self.directive

    def update(self, old: tuple, new: tuple) -> "Picks":
        return self


@pytest.mark.parametrize("countermeasure", COUNTERMEASURES)
def test_an_empty_edit_keeps_the_buffer_objects(countermeasure):
    # a fetch miss, a load miss and a skip execute progress, but leave the
    # commands, the labels and the projection the same objects, so the
    # scheduler's stall check and hw_steps' progress check stay identity tests
    p = parse_program("skip")
    cfg = HwConfig(countermeasure=countermeasure)
    sigma = ArchState({PC: 0, "z": 0}, {9: 4})
    for buf, directive in (
        ((), FETCH),
        ((cmd_load("z", Const(9)),), execute(1)),
        ((cmd_skip(),), execute(1)),
    ):
        labels = (frozenset(),) * len(buf)
        proj = buf_project(zip(buf, labels))
        h = HwState(sigma, buf, labels, proj, LruCache(4), make_predictor("fallthrough"), Picks(directive))
        h2, _, progressed = hw_step(p, h, cfg)
        assert progressed, directive
        assert h2.buf is h.buf and h2.labels is h.labels and h2.proj is h.proj, directive


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
@pytest.mark.parametrize("countermeasure", COUNTERMEASURES)
def test_final_state_matches_architectural_run(name, countermeasure):
    p = corpus.load(name)
    mem = {7: 2, 9: 1, 10: 1, 11: 3, 12: 2}
    sigma = ArchState.initial(p, mem)
    expected, _ = arch_run(p, sigma)
    cfg = HwConfig(countermeasure=countermeasure)
    _, final = hw_run(p, sigma, cfg)
    assert final.sigma == expected


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.dictionaries(st.integers(0, 15), st.integers(0, 15), max_size=4),
    st.sampled_from(("fallthrough", "twobit", "backward")),
)
def test_generated_programs_end_in_the_architectural_state(seed, mem, predictor):
    # under every countermeasure on both schedulers: the hardware run ends in
    # arch_run's final state, and at every step each index in a taint label
    # names a pc assignment the buffer still tags
    p = random_programs(1, seed=seed)[0]
    sigma = ArchState.initial(p, mem)
    expected, _ = arch_run(p, sigma)
    for countermeasure in COUNTERMEASURES:
        for scheduler in ("ooo", "seq"):
            cfg = HwConfig(countermeasure=countermeasure, scheduler=scheduler, predictor=predictor)
            h = initial_hw_state(sigma, cfg)
            for _ in range(cfg.fuel):
                if h.is_final():
                    break
                h, _, _ = hw_step(p, h, cfg)
                assert len(h.labels) == len(h.buf)
                for label in h.labels:
                    for j in label:
                        assert h.buf[j - 1][0] == "assign" and h.buf[j - 1][3] is not None
            assert h.is_final() and h.sigma == expected, (countermeasure, scheduler)


def test_adversary_view_initial_and_cache_sensitivity():
    p = corpus.load("skip")
    cfg = HwConfig()
    h = initial_hw_state(ArchState.initial(p), cfg)
    proj, cs, bp, sc = adversary_view(h)
    assert proj == ()
    h2 = h.__class__(h.sigma, h.buf, h.labels, h.proj, h.cs.update(3), h.bp, h.sc)
    assert adversary_view(h2) != adversary_view(h)


def test_adversary_view_ignores_resolved_values():
    p = corpus.load("skip")
    cfg = HwConfig()
    h = initial_hw_state(ArchState.initial(p), cfg)
    labels = (frozenset(),)
    buf1, buf2 = (cmd_assign("x", 5),), (cmd_assign("x", 9),)
    v1 = adversary_view(h.__class__(h.sigma, buf1, labels, buf_project(zip(buf1, labels)), h.cs, h.bp, h.sc))
    v2 = adversary_view(h.__class__(h.sigma, buf2, labels, buf_project(zip(buf2, labels)), h.cs, h.bp, h.sc))
    assert v1 == v2
    assert v1[0]  # the entry is in the view, only its value is not


@pytest.mark.parametrize("scheduler", ["seq", "ooo"])
@pytest.mark.parametrize("countermeasure", COUNTERMEASURES)
def test_view_projection_is_buffer_projection_on_every_state(countermeasure, scheduler):
    # the state keeps its projection, edited step by step, and the scheduler
    # and adversary_view read it, so every state a run reaches must keep it
    # equal to the buffer's own projection. Buffer sizes 3 and 7 and the two-bit predictor bring
    # squashes, commits and taint retires, which project the whole buffer.
    # A fresh scheduler on that projection must pick what the run's
    # scheduler picks from the candidate memo the run shares.
    mem = {7: 2, 9: 1, 10: 1, 11: 3, 12: 2}
    micros = (dict(), dict(cache="direct:4:1", predictor="twobit"))
    runs = [
        (corpus.load(name), mu_w, micro)
        for mu_w in (3, 5, 7)
        for micro in micros
        for name in corpus.program_names()
    ]
    runs += [(p, mu_w, micros[1]) for mu_w in (3, 7) for p in random_programs(30, seed=1)]
    for p, mu_w, micro in runs:
        cfg = HwConfig(buffer_size=mu_w, countermeasure=countermeasure, scheduler=scheduler, **micro)
        h = initial_hw_state(ArchState.initial(p, mem), cfg)
        for h, _directive in [(h, None), *hw_steps(p, h, cfg)]:
            proj = buf_project(zip(h.buf, h.labels))
            assert h.proj == proj
            assert adversary_view(h)[0] == proj
            if cfg.scheduler == "seq":
                fresh = SequentialScheduler()
            else:
                fresh = OooScheduler(mu_w, h.sc.stall)
            assert fresh.next(proj) == h.sc.next(h.proj)


def test_buffer_rules_read_alike_on_commands_and_projection_and_bind_the_stages():
    # may_fetch, executable, blocked and retire_ready read only kinds, pc
    # writes, tags and whether payloads are resolved, so at every state a run
    # reaches they must answer alike on its commands and on its projection,
    # which is all a scheduler sees. A directive they rule out must make no
    # progress: its stage is stuck, or the countermeasure holds it back.
    mem = {7: 2, 9: 1, 10: 1, 11: 3, 12: 2}
    programs = [corpus.load(name) for name in corpus.program_names()] + random_programs(30, seed=1)
    ruled_out = dict.fromkeys(("fetch", "execute", "retire"), 0)
    for countermeasure in COUNTERMEASURES:
        for scheduler in ("seq", "ooo"):
            cfg = HwConfig(countermeasure=countermeasure, scheduler=scheduler, predictor="twobit")
            mu_w = cfg.buffer_size
            for p in programs:
                h = initial_hw_state(ArchState.initial(p, mem), cfg)
                for h, _directive in [(h, None), *hw_steps(p, h, cfg)]:
                    buf, proj = h.buf, h.proj
                    assert may_fetch(buf, mu_w) == may_fetch(proj, mu_w)
                    for i in range(1, len(buf) + 1):
                        assert executable(buf[i - 1]) == executable(proj[i - 1])
                        assert blocked(buf, i) == blocked(proj, i)
                        assert retire_ready(buf[i - 1]) == retire_ready(proj[i - 1])
                    out = [] if may_fetch(buf, mu_w) else [FETCH]
                    out += [
                        execute(i)
                        for i, cmd in enumerate(buf, 1)
                        # an execute of a skip or a barrier progresses, changing nothing
                        if cmd[0] not in ("skip", "barrier") and (not executable(cmd) or blocked(buf, i))
                    ]
                    if not (buf and retire_ready(buf[0])):
                        out.append(RETIRE)
                    for directive in out:
                        _, _, progressed = hw_step(p, replace(h, sc=Picks(directive)), cfg)
                        assert not progressed, (p, countermeasure, buf, directive)
                        ruled_out[directive[0]] += 1
    assert all(ruled_out.values()), ruled_out


@pytest.mark.parametrize("micro", MICROARCHS)
@pytest.mark.parametrize("countermeasure", COUNTERMEASURES)
def test_run_views_are_the_views_of_its_states(countermeasure, micro):
    # hw_run's views must be each state's own
    mem = {7: 2, 9: 1, 10: 1, 11: 3, 12: 2}
    cfg = HwConfig(countermeasure=countermeasure, **micro)
    for name in corpus.program_names():
        p = corpus.load(name)
        sigma = ArchState.initial(p, mem)
        h = initial_hw_state(sigma, cfg)
        expected = [adversary_view(h)] + [adversary_view(h) for h, _ in hw_steps(p, h, cfg)]
        assert list(hw_run(p, sigma, cfg)[0]) == expected


# sha256 of the views and final states below, recorded before the pipeline
# kept labels beside its commands and projected buffers by edit
HARDWARE_PIN = "de7234b3bbfbcdadd93453c2a829d7fa144af2106793dd3522c2944594461e6b"


def test_hardware_runs_are_pinned():
    # every corpus program on its default domain, under every countermeasure,
    # micro-architecture and buffer size 3, 5 and 7: 3,240 runs
    digest = hashlib.sha256()
    for name in corpus.program_names():
        p = corpus.load(name)
        states = list(StateDomain(modulus=MOD, vary=corpus.default_vary(name)).initial_states(p))
        for countermeasure in COUNTERMEASURES:
            for micro in MICROARCHS:
                for mu_w in (3, 5, 7):
                    cfg = HwConfig(buffer_size=mu_w, countermeasure=countermeasure, modulus=MOD, **micro)
                    for sigma in states:
                        views, final = hw_run(p, sigma, cfg)
                        digest.update(repr((views, final.sigma.key())).encode())
    assert digest.hexdigest() == HARDWARE_PIN


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


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(predictor="oracle"), "unknown predictor 'oracle'"),
        (dict(scheduler="random"), "unknown scheduler 'random'"),
        # the seq countermeasure's own scheduler does not hide a bad name
        (dict(countermeasure="seq", scheduler="random"), "unknown scheduler 'random'"),
    ],
)
def test_config_names_an_unknown_component(bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HwConfig(**bad)


def test_config_rejects_a_key_given_twice():
    # the last value used to win: this built countermeasure none
    with pytest.raises(ValueError, match=r"^config line 2: countermeasure given twice$"):
        HwConfig.parse("countermeasure = tt\ncountermeasure = none\n")


def test_seq_countermeasure_forces_sequential_scheduler():
    cfg = HwConfig(countermeasure="seq", scheduler="ooo")
    assert cfg.scheduler == "seq"

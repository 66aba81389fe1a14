"""Runs shared between domain states that agree on every varying cell read."""
import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muspec import analysis, contracts, corpus, pipeline
from muspec.analysis import StateDomain, check_contract_satisfaction, check_lattice, random_programs
from muspec.arch import ArchState, FuelExhausted, ReadOrderError, arch_run, format_state, share_runs
from muspec.contracts import (
    BOT_INF,
    SEQ_ARCH,
    SEQ_CT,
    SPEC_ARCH,
    SPEC_CT,
    SPEC_PC_CT,
    TOP,
    Verdict,
    contract_stronger_test,
    contract_trace,
    format_trace,
    relate,
)
from muspec.countermeasures import COUNTERMEASURES
from muspec.isa import MAX_TERM_SIZE, PC, parse_program
from muspec.pipeline import DeadlockError, HwConfig, hw_run

FUEL = 10_000
CONTRACTS = (TOP, BOT_INF, SEQ_CT, SEQ_ARCH, SPEC_CT, SPEC_PC_CT, SPEC_ARCH)
SWEEP_DOMAIN = StateDomain(modulus=16, vary=((7, 0, 15), (9, 0, 15)))
LATTICE_DOMAIN = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3)))


def _counting(monkeypatch, *targets):
    """Record the calls made to run functions, each given as (module, name)."""
    calls = []
    for module, name in targets:
        def counted(*args, fn=getattr(module, name)):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _mode_runs(monkeypatch):
    """Record the runs of the two modes' explorers, each as ``(mode,
    window, program, state)``; a seq run's window is None."""
    runs = []
    for name, mode in (("trace_seq", "seq"), ("trace_spec", "spec")):
        def counted(p, sigma, *args, fn=getattr(contracts, name), mode=mode):
            runs.append((mode, args[0] if mode == "spec" else None, p, sigma))
            return fn(p, sigma, *args)

        monkeypatch.setattr(contracts, name, counted)
    return runs


def test_watch_is_not_part_of_the_value():
    plain = ArchState({PC: 0, "x": 1}, {7: 3, 9: 0})
    reads = {}
    watched = plain.watched(frozenset({7, 9}), reads)
    assert watched == plain and hash(watched) == hash(plain)
    assert watched.key() == plain.key() and format_state(watched) == format_state(plain)
    assert repr(watched) == repr(plain)
    assert watched.read_mem(5) == 0 and reads == {}  # not a watched cell
    assert watched.read_mem(9) == 0 and watched.read_mem(7) == 3
    assert list(reads.items()) == [(9, 0), (7, 3)]


def test_with_mem_unwatches_and_with_regs_carries_the_watch():
    reads = {}
    sigma = ArchState({PC: 0}, {7: 3}).watched(frozenset({7, 9}), reads)
    stepped = sigma.with_regs(**{PC: 1})
    assert stepped.watch == {7, 9} and stepped.reads is reads
    written = stepped.with_mem(7, 0)
    assert written.watch == {9} and written.mem == {} and written.reads is reads
    assert written.read_mem(7) == 0 and reads == {}  # overwritten: not the initial value
    assert written.with_mem(9, 5).mem == {9: 5}
    assert sigma.read_mem(7) == 3 and reads == {7: 3}  # the unwritten state still watches 7


def test_a_lattice_batch_runs_nothing_for_bot_inf_or_top(monkeypatch):
    # bot-inf is only a key there, its seq run and the values of the cells
    # its first step left watched, and top shows nothing, so neither makes
    # a run of its own, through contract_trace or trace_degenerate, and no
    # bot-inf snapshot is built: every run is a mode's shared one
    runs = _mode_runs(monkeypatch)
    plain = _counting(monkeypatch, (contracts, "contract_trace"))
    degenerate = _counting(monkeypatch, (contracts, "trace_degenerate"))
    check_lattice([parse_program("skip"), corpus.load("P2")], LATTICE_DOMAIN, 7)
    assert runs and not plain and not degenerate


# programs whose bot-inf classes have pairs: the first step stores over a
# varying cell, at its address or at one that wraps onto it modulo 16, so
# no snapshot shows the cell's initial value; the last one's runs branch
BOT_INF_PAIRED = ("store x, 7\nload y, 9", "store x, 8 * 9\nload y, 1", "store x, 7\nload z, 9\nbeqz z, end")
# first steps the key's exactness rests on: a load defers, so the store after
# it logs a term and overwrites a varying cell the first snapshot still
# shows; a first step that reads no memory, then a store over a varying cell
# the first snapshot still shows; a first-step store over the fixed cell 9
BOT_INF_FIRST_STEPS = (
    "load x, 7\nstore x, 9",
    "skip\nstore x, 7\nload y, 9",
    "spbarr\nstore x, 7\nload y, 9",
    "jmp 1\nstore x, 7\nload y, 9",
    "store x, 9\nload y, 0\nbeqz y, end",
)
BOT_INF_DOMAINS = (
    LATTICE_DOMAIN,
    StateDomain(modulus=16, vary=((0, 0, 2), (1, 0, 1), (8, 0, 1)), fixed=((9, 5),)),
)


def _partition(f, p, dom):
    """The domain's states grouped by ``f``, as lists of enumeration positions."""
    classes = {}
    for i, sigma in enumerate(dom.initial_states(p)):
        classes.setdefault(f(sigma), []).append(i)
    return sorted(classes.values())


def test_a_bot_inf_key_groups_the_states_its_traces_group():
    # a bot-inf key is the state's seq run and the values of the cells its
    # first step left watched: equal exactly when the plain traces are equal
    programs = [corpus.load(n) for n in corpus.program_names()] + random_programs(200, seed=29)
    programs += map(parse_program, BOT_INF_PAIRED + BOT_INF_FIRST_STEPS)
    paired = Counter()
    for dom in BOT_INF_DOMAINS:
        for p in programs:
            key = analysis._side(BOT_INF, {}, p, dom, FUEL, as_key=True)
            classes = _partition(key, p, dom)
            plain = lambda s: contract_trace(BOT_INF, p, s, modulus=dom.modulus, snapshot_addrs=dom.addresses)
            assert classes == _partition(plain, p, dom), (str(p), dom)
            paired[dom] += any(len(c) > 1 for c in classes)
    # on both domains some class has a pair
    assert all(paired[dom] for dom in BOT_INF_DOMAINS), paired


def test_a_bot_inf_key_raises_a_run_error_at_the_first_state(monkeypatch):
    # the key runs the state's seq run, so a program that exhausts its fuel
    # raises at the domain's first state, and the observed side runs
    # nothing; a key of the cells' values alone would raise nothing
    p = parse_program("jmp 0")
    runs = _mode_runs(monkeypatch)
    with pytest.raises(FuelExhausted):
        analysis.decide(p, LATTICE_DOMAIN, [("bot-inf key", BOT_INF, SPEC_CT)], fuel=8)
    assert runs == [("seq", None, p, next(LATTICE_DOMAIN.initial_states(p)))]


def test_an_observed_bot_inf_runs_only_on_states_whose_key_class_has_a_pair(monkeypatch):
    # relate observes a state only once its key class has a pair, so a
    # check observing bot-inf makes its plain run on exactly those states:
    # none of P1's, whose bot-inf classes are singletons, and each state of
    # a program whose first step overwrites cell 7. Keyed on bot-inf, the
    # check passes, so it walks the whole domain
    degenerate = _counting(monkeypatch, (contracts, "trace_degenerate"))
    observed = []
    for p in (corpus.load("P1"), parse_program(BOT_INF_PAIRED[0])):
        degenerate.clear()
        assert analysis.decide(p, LATTICE_DOMAIN, [("bot-inf ~> bot-inf", BOT_INF, BOT_INF)])[0].ok
        key = analysis._side(BOT_INF, {}, p, LATTICE_DOMAIN, FUEL, as_key=True)
        paired = sorted(i for c in _partition(key, p, LATTICE_DOMAIN) if len(c) > 1 for i in c)
        assert sorted(LATTICE_DOMAIN.position(args[1]) for args in degenerate) == paired, str(p)
        observed.append(len(paired))
    assert observed == [0, LATTICE_DOMAIN.size()]


def test_bot_inf_witness_traces_are_the_plain_traces():
    # bot-inf is the observed side, so the witness holds its traces
    programs = [corpus.load(n) for n in corpus.program_names()]
    dom = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3)))
    w = contract_stronger_test(BOT_INF, SEQ_CT, programs, dom)
    p = programs[w.program_index]
    for sigma, trace in ((w.sigma, w.trace1), (w.sigma_prime, w.trace1_prime)):
        assert trace == contract_trace(BOT_INF, p, sigma, snapshot_addrs=dom.addresses)
        assert "deferred" not in format_trace(trace)


def test_lattice_traces_each_contract_once_per_state(monkeypatch):
    programs = [corpus.load(n) for n in corpus.program_names()]
    runs = _mode_runs(monkeypatch)
    check_lattice(programs, LATTICE_DOMAIN, 7)
    per_state = Counter((mode, window, id(p), sigma.key()) for mode, window, p, sigma in runs)
    assert runs and max(per_state.values()) == 1, per_state.most_common(1)
    # only the modes run: the ct, pc-ct, arch and bot-inf traces are made
    # from their mode's arch run, and top runs nothing
    assert {(mode, window) for mode, window, *_ in runs} == {("seq", None), ("spec", 7)}


def _plain_run(semantics, p, dom):
    if isinstance(semantics, HwConfig):
        cfg = replace(semantics, modulus=dom.modulus, fuel=FUEL)
        return lambda s: hw_run(p, s, cfg)[0]
    return lambda s: contract_trace(semantics, p, s, FUEL, dom.modulus, dom.addresses)


@pytest.mark.parametrize(
    "vary",
    [((0, 0, 3), (5, 0, 3)), ((0, 0, 2), (1, 0, 1), (3, 0, 1))],
    ids=["2-cell", "3-cell"],
)
def test_shared_tracer_equals_plain_run_on_every_state(monkeypatch, vary):
    dom = StateDomain(modulus=16, vary=vary)
    semantics = CONTRACTS + tuple(
        HwConfig(countermeasure=cm, predictor="twobit") for cm in COUNTERMEASURES
    )
    runs = _counting(monkeypatch, (contracts, "trace_seq"), (contracts, "trace_spec"), (pipeline, "hw_run"))
    states, shared_runs = Counter(), Counter()
    branched = 0
    for p in random_programs(20, seed=5):
        for sem in semantics:
            plain = _plain_run(sem, p, dom)
            expected = [plain(sigma) for sigma in dom.initial_states(p)]  # runs not counted below
            before = len(runs)
            shared = analysis._side(sem, {}, p, dom, FUEL)
            for sigma, trace in zip(dom.initial_states(p), expected):
                assert shared(sigma) == trace, (str(p), sem, format_state(sigma))
                states[sem] += 1
            shared_runs[sem] += len(runs) - before
            branched += len(runs) - before > 1
    # sharing happened, and so did runs that the read values told apart
    assert sum(shared_runs.values()) < sum(states.values()) and branched
    # a ct contract runs its arch contract, an observed bot-inf makes a
    # plain run per state, and top runs nothing
    assert shared_runs[SEQ_CT] == shared_runs[SEQ_ARCH] < states[SEQ_CT], shared_runs
    assert shared_runs[BOT_INF] == states[BOT_INF], shared_runs
    assert shared_runs[TOP] == 0, shared_runs
    assert shared_runs[SPEC_CT] == shared_runs[SPEC_ARCH], shared_runs


def test_sweep_domain_run_counts(monkeypatch):
    # P2's address 8 + z*2 takes 8 values modulo 16
    cfg = HwConfig(countermeasure="none", predictor="twobit")
    spec_ct = replace(SPEC_CT, window=7)
    runs = _counting(monkeypatch, (pipeline, "hw_run"))
    assert check_contract_satisfaction(corpus.load("P2"), spec_ct, cfg, SWEEP_DOMAIN).ok
    assert len(runs) == 8
    runs.clear()
    assert check_contract_satisfaction(parse_program("skip"), spec_ct, cfg, SWEEP_DOMAIN).ok
    assert len(runs) == 1


def test_a_loaded_value_nothing_uses_leaves_one_hardware_run(monkeypatch):
    # P2f loads z and never uses it before the barrier; ex1 uses z in the
    # address 12 + z*64, which is 12 for every z modulo 16
    cfg = HwConfig(countermeasure="none", predictor="twobit", modulus=SWEEP_DOMAIN.modulus)
    runs = _counting(monkeypatch, (pipeline, "hw_run"))
    counts = {}
    for name in ("P2f", "ex1"):
        tracer = pipeline.hw_tracer(cfg, corpus.load(name), SWEEP_DOMAIN)
        before = len(runs)
        for sigma in SWEEP_DOMAIN.initial_states(corpus.load(name)):
            tracer(sigma)
        counts[name] = len(runs) - before
    assert counts == {"P2f": 1, "ex1": 1}


@pytest.mark.parametrize("name, runs", [("P1", 1), ("P1'", 2), ("P2", 8), ("P2'", 2), ("ex1", 1)])
def test_sweep_runs_the_hardware_once_per_distinct_trace(monkeypatch, name, runs):
    # the runs branch on what a program computes from a loaded value: P1
    # and ex1 use none of it, P1' and P2' a branch on z, P2 the address
    # 8 + z*2; keying on the raw cell would run each 16 times
    p = corpus.load(name)
    cfg = HwConfig(countermeasure="none", predictor="twobit")
    calls = _counting(monkeypatch, (pipeline, "hw_run"))
    tracer = pipeline.hw_tracer(cfg, p, SWEEP_DOMAIN)
    traces = {tracer(sigma) for sigma in SWEEP_DOMAIN.initial_states(p)}
    assert len(calls) == len(traces) == runs


def test_resumed_runs_rebind_a_deferred_load(monkeypatch):
    # z's load stays deferred past the branch on w, whose zero test is
    # forced first; past the barrier only a nonzero w goes on to use z in
    # an address
    p = parse_program("load z, 7\nload w, 9\nbeqz w, end\nspbarr\nload x, 8 + z")
    dom = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3)))
    cfg = HwConfig(modulus=dom.modulus, predictor="twobit")
    runs = _counting(monkeypatch, (pipeline, "hw_run"))
    tracer = pipeline.hw_tracer(cfg, p, dom)
    shared = [tracer(sigma) for sigma in dom.initial_states(p)]
    resumed = sum(args[3] is not None for args in runs)
    monkeypatch.undo()
    assert shared == [hw_run(p, sigma, cfg)[0] for sigma in dom.initial_states(p)]
    # w = 0 shares one run whatever z is; every nonzero w shares a run up
    # to the address, which branches on z
    assert resumed and len(runs) == 1 + 4


# lines of the P-family, a move and a store that pass loaded values on, and
# lines that compute on loaded values: a term over two cells, a derived
# branch guard, a cmov on a loaded guard and a jmp to a computed target
SMALL_SCOPE_LINES = (
    "x <- 3 < 2",
    "beqz x, end",
    "load z, 7",
    "load w, 8 + z",
    "z <- z * 2",
    "beqz z, end",
    "spbarr",
    "load z, 4 + w",
    "store z, 9",
    "w <- z",
    "load w, 9",
    "w <- z + w",
    "x <- z & 1",
    "z <- w ? 5",
    "jmp 9 + (z & 0)",
)
# every countermeasure on an ooo and a seq micro-architecture of the theorem suite
SMALL_SCOPE_CONFIGS = tuple(
    HwConfig(countermeasure=cm, modulus=16, **arch)
    for cm in COUNTERMEASURES
    for arch in (
        dict(cache="direct:4:1", predictor="twobit"),
        dict(cache="lru:2", predictor="backward", scheduler="seq"),
    )
)
SMALL_SCOPE_DOMAIN = StateDomain(modulus=16, vary=((7, 0, 1), (9, 0, 1)))


def _small_scope(test):
    """Run ``test`` on programs of up to four SMALL_SCOPE_LINES."""
    test = example(["load z, 7", "beqz z, end", "x <- 3 < 2"])(test)  # a branch on a deferred load
    test = example(["load z, 7", "load w, 9", "beqz w, end", "w <- z"])(test)  # a deferred load resumed
    test = example(["load z, 7", "load w, 9", "w <- z + w", "load z, 4 + w"])(test)  # a two-cell address
    test = example(["load z, 7", "x <- z & 1", "beqz x, end", "load w, 8 + z"])(test)  # a derived guard
    test = example(["load w, 9", "z <- w ? 5", "load w, 8 + z"])(test)  # a cmov on a deferred guard
    test = example(["load z, 7", "jmp 2 + (z & 1)", "store z, 9", "load w, 8 + z"])(test)  # a jmp to a loaded target
    test = example(["load z, 7", "store z, 9", "load w, 9", "beqz w, end"])(test)  # a loaded value stored
    test = example(["store z, 9", "load w, 9"])(test)  # a varying cell written by the first step
    test = example(["load z, 7", "x <- 3 < 2"])(test)  # a load no step uses
    test = example(["load z, 7", "load w, 9", "w <- z + w"])(test)  # two deferred loads combined
    # a load and a store on a mispredicted path: x is 0, so the branch is
    # taken and only the always-mispredicting semantics run past it
    test = example(["x <- 3 < 2", "beqz x, end", "load z, 7", "store z, 9"])(test)
    test = example(["x <- 3 < 2", "beqz x, end", "store z, 9", "load w, 9"])(test)
    test = given(st.lists(st.sampled_from(SMALL_SCOPE_LINES), min_size=1, max_size=4))(test)
    return settings(max_examples=20, derandomize=True, database=None, deadline=None)(test)


@_small_scope
def test_shared_hardware_runs_equal_plain_runs_on_small_programs(lines):
    p = parse_program("\n".join(lines))
    for cfg in SMALL_SCOPE_CONFIGS:
        tracer = pipeline.hw_tracer(cfg, p, SMALL_SCOPE_DOMAIN)
        for sigma in SMALL_SCOPE_DOMAIN.initial_states(p):
            views, h = hw_run(p, sigma, cfg)
            assert tracer(sigma) == views, (lines, cfg.countermeasure, format_state(sigma))
            assert h.sigma == arch_run(p, sigma, modulus=cfg.modulus)[0]


@_small_scope
def test_shared_contract_runs_equal_plain_runs_on_small_programs(lines):
    # a contract run defers what it loads as the hardware does, and an arch
    # trace's values it did not use are filled in per state
    p = parse_program("\n".join(lines))
    tracers = {}
    for contract in CONTRACTS:
        tracer = analysis._side(contract, tracers, p, SMALL_SCOPE_DOMAIN, FUEL)
        plain = _plain_run(contract, p, SMALL_SCOPE_DOMAIN)
        for sigma in SMALL_SCOPE_DOMAIN.initial_states(p):
            assert tracer(sigma) == plain(sigma), (lines, str(contract), format_state(sigma))


def _term_nodes(term):
    """A deferred term's node count as a tree, a constant and a cell one each."""
    if term.__class__ is int or len(term) == 1:
        return 1
    return 1 + sum(_term_nodes(o) for o in term[2:])


@pytest.mark.parametrize("body, rounds", [("z <- z + 1\n" * 4, 150), ("z <- z + z\n", 12)])
def test_a_loop_that_computes_on_a_load_keeps_its_term_small(body, rounds):
    # a loop that adds to z, or doubles it, before an address uses it: a
    # term nesting every addition would overflow the recursion that
    # evaluates it at a trie node, and one that doubles (z + z uses z
    # twice) doubles its node count each round, so the run forces a term
    # once it has more than MAX_TERM_SIZE nodes: one that joins two
    # operands of at most that many
    p = parse_program(f"load z, 7\ni <- {rounds}\nL: {body}i <- i - 1\nx <- i = 0\nbeqz x, L\nload w, z")
    dom = StateDomain(modulus=1024, vary=((7, 0, 1),))
    cfg = HwConfig(modulus=dom.modulus, predictor="backward")
    runs = {cfg: (pipeline.hw_tracer(cfg, p, dom), lambda s: hw_run(p, s, cfg)[0])}
    tracers = {}
    for c in CONTRACTS:
        runs[c] = (analysis._side(c, tracers, p, dom, FUEL), _plain_run(c, p, dom))
    for sem, (tracer, plain) in runs.items():
        for sigma in dom.initial_states(p):
            assert tracer(sigma) == plain(sigma), (str(sem), format_state(sigma))
            reads = {}
            plain(sigma.watched(frozenset({7}), reads))
            assert max(map(_term_nodes, reads), default=1) <= 2 * MAX_TERM_SIZE + 1, str(sem)


def test_sweep_runs_each_contract_once_per_distinct_trace(monkeypatch):
    # a spec-ct check runs the contract once per distinct spec-ct trace of
    # each corpus program: the loaded values a spec-arch trace shows are
    # filled in per state, and its runs branch only on what a step uses
    cfg = HwConfig(countermeasure="none", predictor="twobit")
    spec_ct = replace(SPEC_CT, window=7)
    programs = [corpus.load(n) for n in corpus.program_names()]
    traces = [
        {contract_trace(spec_ct, p, s, modulus=SWEEP_DOMAIN.modulus) for s in SWEEP_DOMAIN.initial_states(p)}
        for p in programs
    ]
    calls = _counting(monkeypatch, (contracts, "trace_spec"))
    runs = []
    for p in programs:
        before = len(calls)
        assert check_contract_satisfaction(p, spec_ct, cfg, SWEEP_DOMAIN).ok
        runs.append(len(calls) - before)
    assert runs == [len(t) for t in traces]
    assert sum(runs) == 35  # 132 when every loaded value branched the runs


def test_sharing_is_scoped_to_one_check(monkeypatch):
    cfg = HwConfig(countermeasure="none", predictor="twobit")
    runs = _counting(monkeypatch, (pipeline, "hw_run"))
    for _ in range(2):
        check_contract_satisfaction(parse_program("skip"), replace(SPEC_CT, window=7), cfg, SWEEP_DOMAIN)
    assert len(runs) == 2


def test_a_table_row_traces_each_contract_once_per_state(monkeypatch):
    # the row's NI and both SNI checks all key on seq-ct, and share its tracer
    p = corpus.load("P2")
    dom = StateDomain(modulus=16, vary=corpus.default_vary("P2"))
    runs = _mode_runs(monkeypatch)
    analysis.classify_constant_time(p, analysis.Policy(corpus.TABLE_POLICY_LOW), dom, 7)
    per_state = Counter((mode, window, sigma.key()) for mode, window, _p, sigma in runs)
    assert runs and max(per_state.values()) == 1, per_state.most_common(1)
    # seq-ct, spec-ct and spec-pc-ct are made from the seq and spec runs' arch traces
    assert {(mode, window) for mode, window, *_ in runs} == {("seq", None), ("spec", 7)}


def _forced_paths(trace, p, dom):
    """The distinct forced paths of the domain's states under ``trace``: the
    terms over the varying cells a watched run forces, in order, with their
    values. A loaded value the run does not use is not on the path."""
    cells = frozenset(a for a, *_ in dom.vary)
    paths = set()
    for sigma in dom.initial_states(p):
        reads = {}
        trace(p, sigma.watched(cells, reads))
        paths.add(tuple(reads.items()))
    return len(paths)


OBSERVER_CONTRACTS = (SEQ_CT, SEQ_ARCH, replace(SPEC_CT, window=7), replace(SPEC_ARCH, window=7))
OBSERVER_PAIRS = [(f"{k} ~> {o}", k, o) for k in OBSERVER_CONTRACTS for o in OBSERVER_CONTRACTS if k != o]


def _reference_relate(program, domain, key, observe, check):
    """``relate`` with no memo: every state is compared with the first
    state of its key."""
    first = {}
    for sigma in domain.initial_states(program):
        k = key(sigma)
        trace = observe(sigma)
        rep_sigma, rep_trace = first.setdefault(k, (sigma, trace))
        if rep_trace != trace:
            diff = [i for i, (a, b) in enumerate(zip(rep_trace, trace)) if a != b]
            position = diff[0] if diff else min(len(rep_trace), len(trace))
            return Verdict(False, check, rep_sigma, sigma, position, rep_trace, trace)
    return Verdict(True, check)


# (domain, policy) pairs whose policy makes some varying cells low and some high
DIFFERENTIAL_DOMAINS = (
    (LATTICE_DOMAIN, analysis.Policy(corpus.TABLE_POLICY_LOW)),
    (StateDomain(modulus=16, vary=((0, 0, 2), (1, 0, 1), (3, 0, 1))), analysis.Policy(((1, 15),))),
)


def _differential_checks(policy, buffer_size):
    spec_ct = replace(SPEC_CT, window=buffer_size + 2)
    none, tt = (HwConfig(buffer_size=buffer_size, predictor="twobit", countermeasure=cm) for cm in ("none", "tt"))
    return [
        ("sat[seq-ct vs none]", SEQ_CT, none),
        ("sat[spec-ct vs none]", spec_ct, none),
        ("sat[seq-ct vs tt]", SEQ_CT, tt),
        ("ni[seq-ct]", policy, SEQ_CT),
        ("ni[hw:none]", policy, none),
        ("wsni[spec-ct]", SEQ_ARCH, spec_ct),
        ("sni[spec-ct]", (policy, SEQ_CT), spec_ct),
        # sides that build a fresh object on every call: bot-inf's plain
        # trace, a policy fingerprint and a tuple
        ("seq-ct ~> bot-inf", SEQ_CT, BOT_INF),
        ("top ~> low", TOP, policy),
        ("seq-arch ~> (seq-ct, spec-ct)", SEQ_ARCH, (SEQ_CT, spec_ct)),
    ]


def test_relate_equals_the_reference_without_a_memo(monkeypatch):
    programs = [corpus.load(n) for n in corpus.program_names()] + random_programs(50, seed=13)
    failed = Counter()
    for buffer_size in (5, 7):
        for dom, policy in DIFFERENTIAL_DOMAINS:
            checks = _differential_checks(policy, buffer_size)
            for p in programs:
                got = analysis.decide(p, dom, checks)
                with monkeypatch.context() as m:
                    m.setattr(analysis, "relate", _reference_relate)
                    want = analysis.decide(p, dom, checks)
                assert got == want, str(p)
                failed[buffer_size] += sum(not v.ok for v in got)
    # at each buffer size some check fails, so counterexamples were compared
    assert failed[5] and failed[7], failed


def test_fresh_equal_traces_do_not_hide_a_counterexample():
    # each call builds a new tuple, so an equal one freed earlier may leave
    # its id to the first unequal one
    p = parse_program("skip")
    dom = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 15)))

    def observe(sigma):
        return tuple([sigma.read_mem(7) > 0])

    v = relate(p, dom, lambda sigma: (), observe, "fresh")
    assert v == _reference_relate(p, dom, lambda sigma: (), observe, "fresh")
    assert not v.ok and v.position == 0
    assert (v.sigma_prime.read_mem(7), v.sigma_prime.read_mem(9)) == (1, 0)


def test_a_trace_found_equal_is_compared_again_under_another_key():
    # one trace object, equal to the first trace of cell 7 = 0 but not to
    # that of cell 7 = 1
    p = parse_program("skip")
    dom = StateDomain(modulus=16, vary=((7, 0, 1), (9, 0, 2)))
    first_a, shared_a, first_b = ("a",), tuple(["a"]), ("b",)

    def observe(sigma):
        if sigma.read_mem(9) == 0:
            return first_b if sigma.read_mem(7) else first_a
        return shared_a

    key = lambda sigma: sigma.read_mem(7)
    v = relate(p, dom, key, observe, "shared")
    assert v == _reference_relate(p, dom, key, observe, "shared")
    assert not v.ok and (v.trace, v.trace_prime) == (first_b, shared_a)


def _cell7_relate(key_of, observe_of):
    """``relate`` on cell 7 in 0..3 of ``skip``, with the key and the
    observation functions of the cell's value; returns the verdict, or the
    error raised, and the values keyed and observed, in call order."""
    keyed, observed = [], []

    def key(sigma):
        keyed.append(sigma.read_mem(7))
        return key_of(keyed[-1])

    def observe(sigma):
        observed.append(sigma.read_mem(7))
        return observe_of(observed[-1])

    dom = StateDomain(modulus=16, vary=((7, 0, 3),))
    try:
        result = relate(parse_program("skip"), dom, key, observe, "cell 7")
    except ValueError as error:
        result = str(error)
    return result, keyed, observed


def _raising_on(*values):
    def f(v):
        if v in values:
            raise ValueError(f"raised on {v}")
        return (v > 2,)

    return f


def test_relate_never_observes_a_state_alone_in_its_key_class():
    # classes {0}, {1}, {2, 3}; an observation of 0 or 1 would raise
    verdict, keyed, observed = _cell7_relate(lambda v: min(v, 2), _raising_on(0, 1))
    assert keyed == [0, 1, 2, 3]
    assert observed == [2, 3]  # the class's first state once its second arrives
    assert not verdict.ok and verdict.position == 0
    assert (verdict.sigma.read_mem(7), verdict.sigma_prime.read_mem(7)) == (2, 3)


def test_relate_raises_a_first_state_observation_error_when_the_second_arrives():
    # classes {0, 1}, {2, 3}: state 2 is observed when state 3 arrives
    result, keyed, observed = _cell7_relate(lambda v: v // 2, _raising_on(2))
    assert (result, keyed, observed) == ("raised on 2", [0, 1, 2, 3], [0, 1, 2])


def test_relate_raises_a_key_error_at_the_first_state_whose_key_raises():
    result, keyed, observed = _cell7_relate(_raising_on(1, 3), lambda v: (v,))
    assert (result, keyed, observed) == ("raised on 1", [0, 1], [])


def test_a_check_runs_hardware_only_for_key_classes_with_a_pair(monkeypatch):
    # seq-arch shows the value P2 loads from its varying cell, so each
    # default state is alone in its class; all of them share one seq-ct trace
    p, cfg = corpus.load("P2"), HwConfig()
    dom = StateDomain(modulus=16, vary=corpus.default_vary("P2"))
    runs = _counting(monkeypatch, (pipeline, "hw_run"))
    assert check_contract_satisfaction(p, SEQ_ARCH, cfg, dom).ok
    assert runs == []
    assert not check_contract_satisfaction(p, SEQ_CT, cfg, dom).ok  # P2 leaks z speculatively
    assert runs


def test_sat_check_states_share_the_trace_objects_of_their_runs(monkeypatch):
    pairs, unshared = {}, []  # (id, id) -> the pair of traces, held while the check runs

    def counting_relate(program, domain, key, observe, check):
        firsts = {}  # key -> the trace of its first state

        def counted(sigma):
            trace = observe(sigma)
            rep = firsts.setdefault(key(sigma), trace)
            if rep is not trace:
                pairs[id(rep), id(trace)] = (rep, trace)
                unshared.append(sigma)
            return trace

        return relate(program, domain, key, counted, check)

    monkeypatch.setattr(analysis, "relate", counting_relate)
    cfg = HwConfig(countermeasure="none", predictor="twobit")
    # the runs fork on the stored value w & 3, which no view shows
    p = parse_program("load z, 7\nload w, 9\nw <- w & 3\nstore w, 12 + z")
    assert check_contract_satisfaction(p, replace(SPEC_CT, window=7), cfg, SWEEP_DOMAIN).ok
    # a trace object per run, not per state: the states whose trace is not
    # their key's first trace outnumber the distinct pairs of trace objects
    assert len(pairs) < len(unshared)


def test_ct_and_arch_batch_equals_plain_relate():
    # every ordered pair of the four, and each one against top (NI with no low input)
    checks = OBSERVER_PAIRS + [(f"top ~> {o}", TOP, o) for o in OBSERVER_CONTRACTS]
    programs = [corpus.load(n) for n in corpus.program_names()] + random_programs(50, seed=12)
    failed = Counter()
    for p in programs:
        plain = {}
        for c in OBSERVER_CONTRACTS + (TOP,):
            traces = {
                s.key(): contract_trace(c, p, s, modulus=16, snapshot_addrs=LATTICE_DOMAIN.addresses)
                for s in LATTICE_DOMAIN.initial_states(p)
            }
            plain[c] = lambda s, traces=traces: traces[s.key()]
        for (name, key, observe), v in zip(checks, analysis.decide(p, LATTICE_DOMAIN, checks)):
            assert v == _reference_relate(p, LATTICE_DOMAIN, plain[key], plain[observe], name), (name, str(p))
            failed["arch" if "valA" in observe.atoms else "ct"] += not v.ok
    # counterexamples with ct traces and with arch traces were both compared
    assert failed["ct"] and failed["arch"], failed


def test_a_lattice_batch_runs_spec_once_per_forced_path(monkeypatch):
    # spec-ct, spec-pc-ct and spec-arch make their traces from one spec
    # run per forced path: pc-ct's dropped observations are marked in it
    programs = [corpus.load(n) for n in corpus.program_names()]
    m = LATTICE_DOMAIN.modulus
    paths = [_forced_paths(lambda p, s: contracts.trace_spec(p, s, 7, modulus=m), p, LATTICE_DOMAIN)
             for p in programs]
    calls = _counting(monkeypatch, (contracts, "trace_spec"))
    runs = []
    for p in programs:
        before = len(calls)
        assert all(w is None for w in check_lattice([p], LATTICE_DOMAIN, 7).values())
        runs.append(len(calls) - before)
    assert runs == paths
    assert {args[2] for args in calls} == {7}  # spec-pc-ct adds no run of its own


def test_ct_and_arch_batch_runs_each_read_path_once_as_arch(monkeypatch):
    # a run per forced path: states that differ only in the loaded values
    # an arch trace shows are filled in from one run
    programs = [corpus.load(n) for n in corpus.program_names()]
    seq_paths = spec_paths = 0
    m = LATTICE_DOMAIN.modulus
    for p in programs:
        seq_paths += _forced_paths(lambda p, s: contracts.trace_seq(p, s, modulus=m), p, LATTICE_DOMAIN)
        spec_paths += _forced_paths(lambda p, s: contracts.trace_spec(p, s, 7, modulus=m), p, LATTICE_DOMAIN)
    seq = _counting(monkeypatch, (contracts, "trace_seq"))
    spec = _counting(monkeypatch, (contracts, "trace_spec"))
    plain = _counting(monkeypatch, (contracts, "contract_trace"))
    for p in programs:
        analysis.decide(p, LATTICE_DOMAIN, OBSERVER_PAIRS)
    assert {args[2] for args in spec} == {7} and not plain  # every run is its mode's shared arch run
    assert (len(seq), len(spec)) == (seq_paths, spec_paths)
    assert seq_paths < len(programs) * LATTICE_DOMAIN.size()  # sharing happened


def test_a_batch_frees_its_tracers_when_it_returns(monkeypatch):
    # tracers hold the tries and resume points; a reference cycle would keep
    # them alive until the next collection
    refs = []

    def recording(fn):
        def recorded(*args):
            tracer = fn(*args)
            refs.append(weakref.ref(tracer))
            return tracer

        return recorded

    for name in ("contract_tracer", "hw_tracer"):
        monkeypatch.setattr(analysis, name, recording(getattr(analysis, name)))
    p = corpus.load("P2")
    dom = StateDomain(modulus=16, vary=corpus.default_vary("P2"))
    policy = analysis.Policy(corpus.TABLE_POLICY_LOW)
    cfg = HwConfig(countermeasure="tt", predictor="twobit")
    checks = [("sat", SEQ_CT, cfg), ("sni", (policy, SEQ_CT), SPEC_CT), ("ni", policy, cfg)]
    gc.disable()
    try:
        analysis.decide(p, dom, checks)
        alive = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert len(refs) == 3 and not alive


def test_views_account_for_every_step_and_runs_fork(monkeypatch):
    # the traced benchmark counts one view per hw_step call plus one per
    # hw_run call, so a resumed run returns the views from its start only
    p = corpus.load("P2")
    cfg = HwConfig(countermeasure="none", predictor="twobit")
    steps = _counting(monkeypatch, (pipeline, "hw_step"))
    runs = []  # (arguments, views) per hw_run call

    def recorded(*args, fn=pipeline.hw_run):
        result = fn(*args)
        runs.append((args, result[0]))
        return result

    monkeypatch.setattr(pipeline, "hw_run", recorded)
    assert check_contract_satisfaction(p, replace(SPEC_CT, window=7), cfg, SWEEP_DOMAIN).ok
    n_steps = len(steps)
    assert len(runs) > 1 and sum(len(views) for _, views in runs) == n_steps + len(runs)
    # runs resumed mid-way: fewer steps than the runs take from the start
    run_cfg = replace(cfg, modulus=SWEEP_DOMAIN.modulus)
    full = sum(len(hw_run(p, args[1], run_cfg)[0]) - 1 for args, _ in runs)
    assert n_steps < full, (n_steps, full)


def _first_raise(trace, states):
    """(position, exception type, message) of the first state whose trace
    raises, or None."""
    for i, sigma in enumerate(states):
        try:
            trace(sigma)
        except (FuelExhausted, DeadlockError) as error:
            return i, type(error), str(error)
    return None


def test_resumed_run_raises_what_the_plain_run_raises(monkeypatch):
    # a nonzero cell 7 runs past the branch, so those runs need more steps
    p = parse_program("skip\nload x, 7\nbeqz x, end\nskip\nskip\nskip\nskip")
    dom = StateDomain(modulus=16, vary=((7, 0, 3),))
    cfg = HwConfig(modulus=dom.modulus)
    short, long = (len(hw_run(p, ArchState.initial(p, {7: v}), cfg)[0]) - 1 for v in (0, 1))
    assert short < long
    # the fuel of the longer runs runs out on their last step, so a resumed
    # run that restarted its step count would finish instead
    cfg = replace(cfg, fuel=long)
    states = list(dom.initial_states(p))
    runs = _counting(monkeypatch, (pipeline, "hw_run"))
    shared = _first_raise(pipeline.hw_tracer(cfg, p, dom), states)
    assert runs[-1][3] is not None  # the raising run resumed
    assert shared == _first_raise(lambda s: hw_run(p, s, cfg), states)
    assert shared[:2] == (1, FuelExhausted)


def _peeking_run(sigma, _start):
    """Reads 9 then 7 while cell 9 is zero, else 7 then 9: it looks at memory
    other than through read_mem."""
    first, second = (7, 9) if sigma.mem.get(9, 0) else (9, 7)
    return (sigma.read_mem(first), sigma.read_mem(second)), {}


def _stopping_run(sigma, _start):
    """Stops reading once cell 7 is nonzero, judged by peeking."""
    if sigma.mem.get(7, 0):
        return (), {}
    return (sigma.read_mem(7), sigma.read_mem(9)), {}


@pytest.mark.parametrize("run", [_peeking_run, _stopping_run])
def test_read_order_that_depends_on_memory_raises(run):
    shared = share_runs(run, (7, 9))
    p = parse_program("skip")
    with pytest.raises(ReadOrderError):
        for sigma in StateDomain(modulus=16, vary=((7, 0, 1), (9, 0, 1))).initial_states(p):
            shared(sigma)

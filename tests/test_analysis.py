"""Decision procedures: NI, SNI, wSNI, satisfaction, tables, lattice."""
import hashlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muspec import analysis, corpus
from muspec.analysis import (
    DomainTooLarge,
    Policy,
    StateDomain,
    check_contract_satisfaction,
    check_lattice,
    check_ni,
    check_sni,
    check_wsni,
    classify_constant_time,
    classify_sandboxing,
    decide,
    lattice_edges,
    low_equivalent,
    random_programs,
)
from muspec.arch import ArchState
from muspec.contracts import (
    BOT_INF,
    CONTRACTS,
    DEFAULT_SPEC_WINDOW,
    SEQ_ARCH,
    SEQ_CT,
    SPEC_ARCH,
    SPEC_CT,
    SPEC_PC_CT,
    TOP,
    ContractId,
    contract_stronger_test,
    contract_trace,
)
from muspec.countermeasures import COUNTERMEASURES
from muspec.isa import format_program, parse_program
from muspec.pipeline import HwConfig, hw_run

W = 7
POLICY = Policy(corpus.TABLE_POLICY_LOW)
SPEC_CT_W = replace(SPEC_CT, window=W)
SPEC_PC_CT_W = replace(SPEC_PC_CT, window=W)


def dom_for(name):
    return StateDomain(modulus=16, vary=corpus.default_vary(name))


# -- policies and domains -------------------------------------------------------


def test_policy_parse_and_ranges():
    pol = Policy.parse("low 4..5\nlow 8\n# c\n")
    assert pol.is_low(4) and pol.is_low(5) and pol.is_low(8)
    assert not pol.is_low(6)
    with pytest.raises(ValueError):
        Policy.parse("high 3")
    with pytest.raises(ValueError):
        Policy.parse("low 9..3")  # would mark no address low
    with pytest.raises(ValueError):
        Policy.parse("low -1")


def test_policy_errors_name_the_line():
    for text in ("low 4\nlow x\n", "low 4\nlow 3..x\n", "low 4\nlow 3..\n"):
        with pytest.raises(ValueError, match=r"^policy line 2: expected 'low <addr>\|<lo>\.\.<hi>'$"):
            Policy.parse(text)


def test_low_equivalence():
    p = parse_program("skip")
    pol = Policy(((0, 7),))
    a = ArchState.initial(p, {3: 1, 9: 5})
    b = ArchState.initial(p, {3: 1, 9: 8})
    c = ArchState.initial(p, {3: 2, 9: 5})
    assert low_equivalent(a, a, pol)
    assert low_equivalent(a, b, pol)  # differ only at a high address
    assert not low_equivalent(a, c, pol)
    assert low_equivalent(c, a, pol) == low_equivalent(a, c, pol)


def test_domain_parse_and_enumeration():
    dom = StateDomain.parse("values 16\nvary 3 in 0..2\nfix 5 = 1\n")
    assert dom.modulus == 16
    p = parse_program("skip")
    states = list(dom.initial_states(p))
    assert len(states) == 3
    assert all(s.read_mem(5) == 1 for s in states)
    assert sorted(s.read_mem(3) for s in states) == [0, 1, 2]
    # position counts the enumeration, the last varying cell fastest
    dom = StateDomain(modulus=8, vary=((4, 1, 3), (2, 0, 1), (6, 5, 7)), fixed=((11, 4),))
    states = list(dom.initial_states(p))
    assert [dom.position(s) for s in states] == list(range(dom.size())) and len(states) == 18
    assert [s.read_mem(6) for s in states[:4]] == [5, 6, 7, 5]


def test_domain_rejects_empty_and_out_of_range_values():
    # one state forms no pair, so every check on it would pass: built in
    # code, it is rejected as StateDomain.parse rejects it
    for one_state in (dict(vary=((7, 3, 3),), fixed=((5, 15),)), {}):
        with pytest.raises(ValueError, match="domain has one state"):
            StateDomain(modulus=16, **one_state)
    for text in (
        "values 1\n",
        "values 10\n",  # arithmetic wraps modulo a power of two
        "vary 7 in 3..0\n",  # empty: size() would be -2 and nothing enumerated
        "vary 7 in -1..2\n",
        "vary 7 in 0..16\n",
        "fix 5 = 16\n",
        "fix 5 = -1\n",
        "vary -3 in 0..3\n",  # no program reads a negative address: a vacuous pass
        "fix -1 = 0\n",
    ):
        with pytest.raises(ValueError):
            StateDomain.parse(text)
    # a file with no vary line, or whose vary lines each fix one value, is
    # one state, which forms no pair: every check on it passed
    one_state = ("", "# nothing\n", "values 16\n", "fix 7 = 3\n", "values 8\nfix 7 = 3\n")
    for text in one_state + ("vary 7 in 3..3\n", "vary 7 in 0..0\nvary 9 in 5..5\nfix 4 = 1\n"):
        with pytest.raises(ValueError, match="domain has one state"):
            StateDomain.parse(text)
    assert StateDomain.parse("vary 7 in 3..3\nvary 9 in 0..1\n").size() == 2


def test_domain_rejects_an_address_listed_twice():
    # accepted, this domain had size() == 8 but only two distinct states,
    # and the fixed value was dropped
    for text in (
        "vary 7 in 0..3\nvary 7 in 0..1\nfix 7 = 5\n",
        "vary 7 in 0..3\nvary 7 in 0..1\n",
        "vary 7 in 0..3\nfix 7 = 5\n",
        "fix 7 = 1\nfix 7 = 5\n",
    ):
        with pytest.raises(ValueError, match="7"):
            StateDomain.parse(text)
    assert StateDomain.parse("vary 7 in 0..3\nvary 9 in 0..1\nfix 5 = 5\n").size() == 8


def test_domain_rejects_values_given_twice():
    # the last line used to win
    with pytest.raises(ValueError, match=r"^domain line 3: values given twice$"):
        StateDomain.parse("values 16\nvary 7 in 0..3\nvalues 8\n")


def test_domain_guard():
    skip = parse_program("skip")
    dom = StateDomain(vary=tuple((a, 0, 15) for a in range(4)))
    with pytest.raises(DomainTooLarge):
        list(dom.initial_states(skip))
    # the guard fires before any image or state is built
    assert "_images" not in vars(dom) and "_states" not in vars(dom)
    at_limit = StateDomain(vary=tuple((a, 0, 15) for a in range(3)))
    assert sum(1 for _ in at_limit.initial_states(skip)) == 4096
    with pytest.raises(DomainTooLarge):
        next(replace(at_limit, vary=at_limit.vary + ((3, 0, 1),)).initial_states(skip))


def test_initial_states_are_shared_plain_states():
    p = parse_program("x <- 1\nload y, 7")
    dom = StateDomain(modulus=16, vary=((7, 0, 1), (9, 2, 3)), fixed=((3, 0), (5, 4)))
    states = list(dom.initial_states(p))
    want = [ArchState({r: 0 for r in p.registers}, {5: 4, 7: v7, 9: v9}) for v7 in (0, 1) for v9 in (2, 3)]
    assert states == want
    for sigma in states:
        assert all(sigma.mem.values())  # zero cells, fixed or varying, are dropped
        assert sigma.watch == frozenset() and sigma.reads is None
    assert states[0].mem == {5: 4, 9: 2}
    # the states of a register set share one register dict, each its own memory
    assert len({id(s.regs) for s in states}) == 1 and len({id(s.mem) for s in states}) == len(states)
    # a later enumeration yields the same objects, registers still zero
    again = list(dom.initial_states(p))
    assert len(again) == len(states) and all(a is s for a, s in zip(again, states))
    assert again[0].regs == dict.fromkeys(p.registers, 0)
    # so does one for another program over the same registers
    same_regs = parse_program("y <- 2\nload x, 9")
    assert same_regs.registers == p.registers
    assert all(a is s for a, s in zip(dom.initial_states(same_regs), states))
    # another register set gets its own states over the same memory dicts
    q = parse_program("load z, 7")
    others = list(dom.initial_states(q))
    assert others == [ArchState(dict.fromkeys(q.registers, 0), s.mem) for s in states]
    assert all(o is not s and o.regs is not s.regs and o.mem is s.mem for o, s in zip(others, states))
    # the guard fires on the first next(), before any state is built
    big = StateDomain(vary=tuple((a, 0, 15) for a in range(4)))
    with pytest.raises(DomainTooLarge):
        next(big.initial_states(p))
    # a replaced domain enumerates its own cells, not the states of the old one
    other = replace(dom, vary=((7, 2, 3), (9, 0, 1)))
    assert [s.mem for s in other.initial_states(p)] == [{5: 4, 7: v7, 9: v9} if v9 else {5: 4, 7: v7}
                                                        for v7 in (2, 3) for v9 in (0, 1)]


# Every step kind writes the registers: load, assign and the conditional
# assign write a register and pc, beqz, store and jmp write pc. Cell 7
# takes both sides of the branch, and the store writes the varying cell 9.
EVERY_STEP_KIND = "load z, 7\nx <- z + 1\ny <- z ? x * 3\nbeqz z, 6\nstore x, 9\njmp 7\nw <- 5\nload w, 9\nx <- w ? y"
SHARING_CONTRACTS = (TOP, BOT_INF, SEQ_CT, SEQ_ARCH, SPEC_CT_W, SPEC_PC_CT_W, replace(SPEC_ARCH, window=W))


def _leaves_shared_states_intact(p, dom, configs):
    """Decide every contract against every config in one batch: a run that
    wrote its initial state's registers or memory in place would change the
    states the next enumeration yields."""
    states = list(dom.initial_states(p))
    decide(p, dom, [(f"{c} ~> {cfg}", c, cfg) for c in SHARING_CONTRACTS for cfg in configs])
    again = list(dom.initial_states(p))
    assert all(a is s for a, s in zip(again, states))
    assert again == list(replace(dom).initial_states(p))  # a fresh domain; == compares regs and mem


def test_no_run_writes_a_shared_memory_image():
    # every contract and every countermeasure on both ooo configs of the
    # theorem suite
    configs = [
        HwConfig(countermeasure=cm, cache=cache, predictor=predictor)
        for cm in COUNTERMEASURES
        for cache, predictor in (("lru:4", "fallthrough"), ("direct:4:1", "twobit"))
    ]
    p = parse_program(EVERY_STEP_KIND)
    _leaves_shared_states_intact(p, StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3))), configs)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_no_run_writes_a_shared_state_of_a_random_program(seed):
    # every countermeasure on the ooo scheduler; a random program's
    # registers start at zero, so cell 0 is the one it most often loads
    configs = [HwConfig(countermeasure=cm) for cm in COUNTERMEASURES if cm != "seq"]
    p = random_programs(1, seed=seed)[0]
    _leaves_shared_states_intact(p, StateDomain(modulus=16, vary=((0, 0, 3), (7, 0, 1)), fixed=((3, 5),)), configs)


# -- contract satisfaction --------------------------------------------------------


def test_loaddelay_violates_seq_ct_on_ex2():
    dom = StateDomain(modulus=16, vary=((10, 0, 1),))
    cfg = HwConfig(countermeasure="loaddelay", predictor="twobit")
    verdict = check_contract_satisfaction(corpus.load("ex2"), SEQ_CT, cfg, dom)
    assert not verdict.ok
    assert verdict.sigma.read_mem(10) != verdict.sigma_prime.read_mem(10)


def test_tt_violates_seq_ct_on_ex3():
    dom = dom_for("ex3")
    cfg = HwConfig(countermeasure="tt")
    verdict = check_contract_satisfaction(corpus.load("ex3"), SEQ_CT, cfg, dom)
    assert not verdict.ok


def test_sequential_satisfies_seq_ct_everywhere():
    cfg = HwConfig(countermeasure="seq")
    for name in corpus.program_names():
        verdict = check_contract_satisfaction(corpus.load(name), SEQ_CT, cfg, dom_for(name))
        assert verdict.ok, name


def test_counterexample_replays_to_same_divergence():
    dom = StateDomain(modulus=16, vary=((10, 0, 1),))
    cfg = HwConfig(countermeasure="loaddelay", predictor="twobit")
    p = corpus.load("ex2")
    v = check_contract_satisfaction(p, SEQ_CT, cfg, dom)
    assert not v.ok
    cfg16 = replace(cfg, modulus=16)
    t1 = hw_run(p, v.sigma, cfg16)[0]
    t2 = hw_run(p, v.sigma_prime, cfg16)[0]
    assert t1 == v.trace and t2 == v.trace_prime
    assert t1[: v.position] == t2[: v.position]
    assert t1[v.position] != t2[v.position]


def test_spec_window_precondition_enforced():
    cfg = HwConfig(buffer_size=5)
    with pytest.raises(ValueError):
        check_contract_satisfaction(
            corpus.load("P1"), replace(SPEC_CT, window=5), cfg, dom_for("P1")
        )


def test_spec_window_normalised_once():
    assert SPEC_CT.window == DEFAULT_SPEC_WINDOW
    assert ContractId.parse("spec-ct") == ContractId(SPEC_CT.atoms, DEFAULT_SPEC_WINDOW)
    with pytest.raises(ValueError):
        ContractId(SPEC_CT.atoms, 0)
    # a contract built without a window is checked with the window its
    # traces use, not rejected as window 0
    p, dom = corpus.load("P1"), dom_for("P1")
    cfg = HwConfig(countermeasure="tt")
    assert check_contract_satisfaction(p, SPEC_CT, cfg, dom) == check_contract_satisfaction(
        p, replace(SPEC_CT, window=DEFAULT_SPEC_WINDOW), cfg, dom
    )
    assert contract_trace(SPEC_CT, p, ArchState.initial(p, {7: 1})) == contract_trace(
        replace(SPEC_CT, window=DEFAULT_SPEC_WINDOW), p, ArchState.initial(p, {7: 1})
    )


# -- non-interference --------------------------------------------------------------


def test_skip_is_non_interferent():
    p = corpus.load("skip")
    dom = dom_for("skip")
    for contract in (SEQ_CT, SEQ_ARCH, SPEC_CT_W):
        assert check_ni(p, POLICY, contract, dom).ok


def test_p2_interferes_under_seq_arch():
    # the secret is loaded architecturally, so its value shows in the trace
    verdict = check_ni(corpus.load("P2"), POLICY, SEQ_ARCH, dom_for("P2"))
    assert not verdict.ok


def test_secret_load_public_address_is_ct():
    p = parse_program("load x, 5\nstore x, 0")
    pol = Policy(((0, 4),))  # address 5 is high
    dom = StateDomain(modulus=16, vary=((5, 0, 3),))
    assert check_ni(p, pol, SEQ_CT, dom).ok
    assert not check_ni(p, pol, SEQ_ARCH, dom).ok


def test_ni_against_hardware_semantics():
    cfg = HwConfig(countermeasure="seq")
    assert check_ni(corpus.load("P1"), POLICY, cfg, dom_for("P1")).ok
    cfg = HwConfig(countermeasure="tt")
    assert not check_ni(corpus.load("ex3"), POLICY, cfg, dom_for("ex3")).ok


# -- wSNI / SNI ---------------------------------------------------------------------


def test_wsni_trivial_for_contracts_stronger_than_seq_arch():
    for name in ("P1", "P2", "ex2"):
        p = corpus.load(name)
        dom = dom_for(name)
        assert check_wsni(p, SEQ_CT, dom).ok
        assert check_wsni(p, SEQ_ARCH, dom).ok


def test_p1_wsni_fails_spec_ct_passes_spec_pc_ct():
    p = corpus.load("P1")
    dom = dom_for("P1")
    assert not check_wsni(p, SPEC_CT_W, dom).ok
    assert check_wsni(p, SPEC_PC_CT_W, dom).ok


def test_p2_sni_fails_spec_ct_passes_spec_pc_ct():
    p = corpus.load("P2")
    dom = dom_for("P2")
    assert not check_sni(p, POLICY, SPEC_CT_W, dom).ok
    assert check_sni(p, POLICY, SPEC_PC_CT_W, dom).ok


def test_fenced_p2_satisfies_sni():
    p = corpus.load("P2f")
    assert check_sni(p, POLICY, SPEC_CT_W, dom_for("P2f")).ok


# -- composition properties -----------------------------------------------------------


def test_ni_composes_through_contract_satisfaction():
    # NI w.r.t. a contract plus satisfaction of that contract gives NI
    # against the hardware (checked empirically per the composition shape)
    dom = dom_for("P1f")
    p = corpus.load("P1f")
    for cm in ("none", "loaddelay", "tt"):
        cfg = HwConfig(countermeasure=cm)
        if check_ni(p, POLICY, SPEC_CT_W, dom).ok and check_contract_satisfaction(
            p, SPEC_CT_W, cfg, dom
        ).ok:
            assert check_ni(p, POLICY, cfg, dom).ok


def test_vanilla_plus_wsni_implies_general_sandboxing():
    # cross-validation of the bridging result on the shipped corpus
    for name in ("P1", "P1f", "P1'", "P1'f"):
        p = corpus.load(name)
        dom = dom_for(name)
        vanilla = check_ni(p, POLICY, SEQ_ARCH, dom).ok
        for contract in (SPEC_CT_W, SPEC_PC_CT_W):
            if vanilla and check_wsni(p, contract, dom).ok:
                assert check_ni(p, POLICY, contract, dom).ok


def test_vanilla_plus_sni_implies_general_ct():
    for name in ("P2", "P2f", "P2'", "P2'f"):
        p = corpus.load(name)
        dom = dom_for(name)
        vanilla = check_ni(p, POLICY, SEQ_CT, dom).ok
        for contract in (SPEC_CT_W, SPEC_PC_CT_W):
            if vanilla and check_sni(p, POLICY, contract, dom).ok:
                assert check_ni(p, POLICY, contract, dom).ok


# -- tables ---------------------------------------------------------------------------


def test_sandbox_rows_match_expected_pattern():
    expected = {
        "P1": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "N", "spec-pc-ct": "Y,wSNI"},
        "P1f": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "Y,wSNI", "spec-pc-ct": "Y,wSNI"},
        "P1'": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "N", "spec-pc-ct": "N"},
        "P1'f": {"seq-ct": "Y,>=", "seq-arch": "Y,>=", "spec-ct": "Y,wSNI", "spec-pc-ct": "Y,wSNI"},
    }
    for name, cells in expected.items():
        row = classify_sandboxing(corpus.load(name), POLICY, dom_for(name), W, name=name)
        assert row.vanilla.ok, name
        for cname, want in cells.items():
            assert row.cell(cname) == want, (name, cname)


def test_ct_rows_match_expected_pattern():
    expected = {
        "P2": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "N", "spec-pc-ct": "Y,SNI"},
        "P2f": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "Y,SNI", "spec-pc-ct": "Y,SNI"},
        "P2'": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "N", "spec-pc-ct": "N"},
        "P2'f": {"seq-ct": "Y,>=", "seq-arch": "N", "spec-ct": "Y,SNI", "spec-pc-ct": "Y,SNI"},
    }
    for name, cells in expected.items():
        row = classify_constant_time(corpus.load(name), POLICY, dom_for(name), W, name=name)
        assert row.vanilla.ok, name
        for cname, want in cells.items():
            assert row.cell(cname) == want, (name, cname)


# -- lattice ---------------------------------------------------------------------------


def test_lattice_edges_hold_on_corpus():
    programs = [corpus.load(n) for n in corpus.program_names()]
    dom = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3)))
    results = check_lattice(programs, dom, W)
    assert all(w is None for w in results.values()), results


def test_lattice_edges_are_the_covering_pairs_of_inclusion():
    # the order is the one `muspec lattice` prints
    spec_arch = replace(SPEC_ARCH, window=W)
    assert lattice_edges(W) == (
        (TOP, SEQ_CT),
        (SEQ_CT, SPEC_PC_CT_W),
        (SEQ_CT, SEQ_ARCH),
        (SPEC_PC_CT_W, SPEC_CT_W),
        (SPEC_CT_W, spec_arch),
        (SEQ_ARCH, spec_arch),
        (spec_arch, BOT_INF),
    )
    named = [ContractId.parse(name, W) for name in CONTRACTS if name != "bot-inf"]
    for c1, c2 in lattice_edges(W)[:-1]:
        assert c1.atoms < c2.atoms, (c1, c2)
        assert not any(c1.atoms < c.atoms < c2.atoms for c in named), (c1, c2)
    assert {c.window for edge in lattice_edges(3) for c in edge} == {None, 3}


def test_reversed_edge_refuted_on_p1():
    dom = StateDomain(modulus=16, vary=((7, 0, 3),))
    witness = contract_stronger_test(SPEC_CT_W, SEQ_CT, [corpus.load("P1")], dom)
    assert witness is not None


def test_empty_corpus_is_rejected():
    # with no program every edge would hold vacuously
    dom = StateDomain(modulus=16, vary=((7, 0, 3),))
    for corpus_ in ([], iter(())):
        with pytest.raises(ValueError, match="at least one program"):
            check_lattice(corpus_, dom, W)
        with pytest.raises(ValueError, match="at least one program"):
            contract_stronger_test(SPEC_CT_W, SEQ_CT, corpus_, dom)
    # a one-program iterator is a corpus
    assert contract_stronger_test(SPEC_CT_W, SEQ_CT, iter([corpus.load("P1")]), dom) is not None
    assert all(w is None for w in check_lattice(iter([corpus.load("P1")]), dom, W).values())


# sha256 over the verdicts of every ordered pair of the seven contracts, as
# recorded while bot-inf ran on a path of its own, before its traces were
# filled from the seq run; an observed bot-inf runs on its own again
ALL_PAIRS_DIGEST = "1b99725a868ee994150830aef5ca2b0461b7afa4c27a0c76a32c72b12875d48a"


def test_every_ordered_contract_pair_keeps_its_verdicts():
    contracts = [ContractId.parse(name, W) for name in CONTRACTS]
    checks = [(f"{c1} >= {c2}", c2, c1) for c1 in contracts for c2 in contracts if c1 != c2]
    dom = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3)))
    programs = [corpus.load(n) for n in corpus.program_names()] + random_programs(20, seed=1)
    key = (lambda s: None if s is None else s.key())
    digest, refuted = hashlib.sha256(), Counter()
    for p in programs:
        for v in decide(p, dom, checks):
            verdict = (v.ok, v.check, key(v.sigma), key(v.sigma_prime), v.position, v.trace, v.trace_prime)
            digest.update(repr(verdict).encode())
            refuted[v.check.split(" >= ")[0]] += not v.ok
    assert (len(programs) * len(checks), sum(refuted.values())) == (1344, 273)
    assert refuted["bot-inf"], refuted  # witnesses hold bot-inf traces
    assert digest.hexdigest() == ALL_PAIRS_DIGEST


def test_random_programs_are_well_formed_and_terminate():
    from muspec.arch import arch_run
    from muspec.isa import check_well_formed

    dom = StateDomain(modulus=16, vary=((1, 0, 1),))
    for p in random_programs(30, seed=2):
        assert check_well_formed(p) == []
        for sigma in dom.initial_states(p):
            arch_run(p, sigma, fuel=10_000)


# sha256 of the printed programs random_programs(count, seed=seed) makes:
# criterion 5's 200, and lattice --random 50 at its default seed; recorded
# while the generator spelled the operators it draws itself
RANDOM_PROGRAM_DIGESTS = {
    (200, 20260808): "b9f38ed63e2f536f06fcc5071da4c27531bd497ce7636ba4be0bcb04c3c9d732",
    (50, 0): "d8b8eb1da9b3808acb0e4a410fe5784df42055fc99fde1f4513352b9ce2c2764",
}


def test_random_programs_are_pinned():
    for (count, seed), digest in RANDOM_PROGRAM_DIGESTS.items():
        text = "".join(map(format_program, random_programs(count, seed=seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (count, seed)


def test_satisfaction_monotone_along_lattice_edges():
    # a config that satisfies the stronger contract of an edge also
    # satisfies the weaker one
    from muspec.analysis import lattice_edges

    cfg = HwConfig(countermeasure="seq")
    for name in ("P1", "P2f"):
        p = corpus.load(name)
        dom = dom_for(name)
        for c1, c2 in lattice_edges(W):
            if c1 == TOP or c2 == BOT_INF:
                continue
            if check_contract_satisfaction(p, c1, HwConfig(countermeasure="seq"), dom).ok:
                assert check_contract_satisfaction(p, c2, HwConfig(countermeasure="seq"), dom).ok


# -- the relational engine against its pairwise definition ---------------------


def _pairwise(states, key, observe):
    """Brute force: a check fails iff some pair i < j has equal keys and
    unequal observations. The counterexample is the smallest such j, the
    first state with j's key, and the first index where they differ."""
    keys = [key(s) for s in states]
    obs = [observe(s) for s in states]
    for j in range(len(states)):
        if any(keys[i] == keys[j] and obs[i] != obs[j] for i in range(j)):
            i = keys.index(keys[j])
            diff = [n for n, (a, b) in enumerate(zip(obs[i], obs[j])) if a != b]
            position = diff[0] if diff else min(len(obs[i]), len(obs[j]))
            return (False, states[i], states[j], position, obs[i], obs[j])
    return (True, None, None, None, None, None)


def test_relate_matches_pairwise_definition_on_random_programs(monkeypatch):
    dom = StateDomain(modulus=16, vary=((0, 0, 2), (1, 0, 1), (3, 0, 1)))
    policy = Policy(((1, 15),))  # cell 0 is the only high input

    def low(s):
        return tuple(s.read_mem(a) for a in dom.addresses if policy.is_low(a))

    edges = lattice_edges(W)
    edges += tuple((c2, c1) for c1, c2 in edges)
    edge_checks = [(f"{c1} >= {c2}", c2, c1) for c1, c2 in edges]
    first_witness = dict.fromkeys((name for name, _, _ in edge_checks), None)
    outcomes = Counter()
    programs = random_programs(20, seed=7)
    for idx, p in enumerate(programs):
        states = list(dom.initial_states(p))

        def trace(c):
            return lambda s: contract_trace(c, p, s, modulus=16, snapshot_addrs=dom.addresses)

        cases, checks = [], []
        for cm in ("none", "tt"):
            cfg = HwConfig(countermeasure=cm, predictor="twobit", modulus=16)
            verdict = check_contract_satisfaction(p, SEQ_CT, cfg, dom)
            cases.append((cm, verdict, trace(SEQ_CT), lambda s, cfg=cfg: hw_run(p, s, cfg)[0]))
            checks.append((verdict.check, SEQ_CT, cfg))
        cases.append(("ni", check_ni(p, policy, SEQ_CT, dom), low, trace(SEQ_CT)))
        checks.append(("ni[seq-ct]", policy, SEQ_CT))
        cases.append(("wsni", check_wsni(p, SPEC_CT_W, dom), trace(SEQ_ARCH), trace(SPEC_CT_W)))
        checks.append(("wsni[spec-ct]", SEQ_ARCH, SPEC_CT_W))
        seq_ct = trace(SEQ_CT)
        sni_key = lambda s: (low(s), seq_ct(s))
        cases.append(("sni", check_sni(p, policy, SPEC_CT_W, dom), sni_key, trace(SPEC_CT_W)))
        checks.append(("sni[spec-ct]", (policy, SEQ_CT), SPEC_CT_W))
        for name, v, key, observe in cases:
            got = (v.ok, v.sigma, v.sigma_prime, v.position, v.trace, v.trace_prime)
            assert got == _pairwise(states, key, observe), (name, p)
            outcomes[name, v.ok] += 1
        # one batch of every check, in two orders, gives the single checks' verdicts
        singles = [v for _, v, _, _ in cases]
        assert decide(p, dom, checks) == singles, p
        assert decide(p, dom, checks[::-1]) == singles[::-1], p

        # the seven lattice edges and their reverses, tested together in one batch
        for (name, c2, c1), v in zip(edge_checks, decide(p, dom, edge_checks)):
            want = _pairwise(states, trace(c2), trace(c1))
            assert (v.ok, v.sigma, v.sigma_prime, v.position, v.trace, v.trace_prime) == want, (name, p)
            if not v.ok and first_witness[name] is None:
                first_witness[name] = (idx, v.sigma, v.sigma_prime, v.trace, v.trace_prime)
            outcomes["edge", v.ok] += 1

    # over all programs at once, each edge's witness comes from the first program refuting it,
    # both edge by edge and with the refuted edges dropped from later batches
    def witnesses(results):
        return {
            name: w and (w.program_index, w.sigma, w.sigma_prime, w.trace1, w.trace1_prime)
            for name, w in results.items()
        }

    assert witnesses({
        f"{c1} >= {c2}": contract_stronger_test(c1, c2, programs, dom) for c1, c2 in edges
    }) == first_witness
    monkeypatch.setattr(analysis, "lattice_edges", lambda window: edges)
    assert witnesses(check_lattice(programs, dom, W)) == first_witness
    # every check both passes and fails somewhere, so no comparison is vacuous
    assert all(outcomes[name, ok] for name, _ in outcomes for ok in (True, False)), outcomes

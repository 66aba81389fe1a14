"""Contract trace semantics and the strength relation."""
import pytest

from muspec import corpus
from muspec.arch import DEFAULT_FUEL, ArchState, FuelExhausted
from muspec.analysis import StateDomain, random_programs
from muspec.contracts import (
    BOT_INF,
    CONTRACTS,
    SEQ_ARCH,
    SEQ_CT,
    SPEC_CT,
    TOP,
    ContractId,
    _shown,
    contract_stronger_test,
    contract_trace,
    format_trace,
    trace_degenerate,
    trace_seq,
    trace_spec,
)
from muspec.isa import parse_program

W = 7


def state(p, mem=None):
    return ArchState.initial(p, mem)


def seq(p, s, observer):
    """The trace from ``s`` of the seq contract ``seq-<observer>``."""
    return contract_trace(ContractId.parse(f"seq-{observer}"), p, s)


def spec(p, s, observer, window=W, fuel=DEFAULT_FUEL):
    """The trace from ``s`` of the spec contract ``spec-<observer>`` at
    ``window``."""
    return contract_trace(ContractId.parse(f"spec-{observer}", window), p, s, fuel)


# -- sequential traces --------------------------------------------------------


def test_example1_ct_trace():
    # branch observation is pc 2 in our zero-based addressing (the original
    # counts lines from 1)
    p = corpus.load("ex1")
    assert seq(p, state(p), "ct") == (("pc", 2), ("load", 9), ("load", 12))


def test_skip_has_empty_trace():
    p = parse_program("skip")
    assert seq(p, state(p), "ct") == ()


def test_example1_arch_trace_attaches_values():
    p = corpus.load("ex1")
    t = trace_seq(p, state(p, {9: 0, 12: 4}))
    assert t == (("pc", 2), ("loadv", 9, 0), ("loadv", 12, 4))


def test_store_and_jmp_observations():
    p = parse_program("x <- 2\nstore x, 6\njmp 3")
    assert seq(p, state(p), "ct") == (("store", 6), ("pc", 3))


def test_ct_is_value_erasure_of_arch():
    def erase(trace):
        return tuple(
            ("load", obs[1]) if obs[0] == "loadv" else obs for obs in trace
        )

    for name in corpus.program_names():
        p = corpus.load(name)
        s = state(p, {7: 2, 9: 1, 10: 1, 11: 3})
        assert erase(trace_seq(p, s)) == seq(p, s, "ct")
        assert erase(trace_spec(p, s, W)) == spec(p, s, "ct")


# -- speculative traces -------------------------------------------------------


def test_p1_spec_trace_shows_mispredicted_loads_then_rollback():
    p = corpus.load("P1")
    t = spec(p, state(p, {7: 2}), "ct", window=10)
    # branch at 1 architecturally jumps to end; the mispredicted path does
    # both loads before the rollback observation of the resumed pc
    assert t == (("pc", 2), ("load", 7), ("load", 12), ("pc", "end"))


def test_p1_pc_ct_filters_speculative_loads():
    p = corpus.load("P1")
    ct = spec(p, state(p, {7: 2}), "ct", window=10)
    pcct = spec(p, state(p, {7: 2}), "pc-ct", window=10)
    assert pcct == (("pc", 2), ("pc", "end"))
    assert [o for o in pcct] == [o for o in ct if o[0] == "pc"]


def test_pc_ct_is_subsequence_of_ct():
    def subsequence(small, big):
        it = iter(big)
        return all(x in it for x in small)

    for name in corpus.program_names():
        p = corpus.load(name)
        s = state(p, {7: 1, 9: 2, 10: 1, 11: 0})
        assert subsequence(spec(p, s, "pc-ct"), spec(p, s, "ct"))


def test_straight_line_spec_equals_seq():
    p = parse_program("x <- 1\nload y, 4\nstore y, 5")
    s = state(p, {4: 2})
    for observer in ("ct", "arch"):
        assert spec(p, s, observer) == seq(p, s, observer)


def test_window_one_explores_single_speculative_step():
    p = corpus.load("P1")
    t = spec(p, state(p, {7: 2}), "ct", window=1)
    # one step into the wrong path (the first load), then rollback
    assert t == (("pc", 2), ("load", 7), ("pc", "end"))


def test_barrier_zeroes_speculative_window():
    p = corpus.load("P1f")
    t = spec(p, state(p, {7: 2}), "ct", window=10)
    assert t == (("pc", 2), ("pc", "end"))


def test_barrier_on_architectural_path_is_plain_step():
    p = parse_program("spbarr\nload x, 5")
    assert spec(p, state(p), "ct") == (("load", 5),)


def test_nested_branches_roll_back_innermost_first():
    p = corpus.load("P1'")
    t0 = spec(p, state(p, {7: 0}), "pc-ct")
    t1 = spec(p, state(p, {7: 1}), "pc-ct")
    # the nested mispredict observation depends on the loaded value
    assert t0 != t1


def test_spec_marks_exactly_the_speculative_frames_observations():
    # the mispredicted-path observations, the branch pcs inside a frame and
    # the rollback pcs are marked; the bottom frame's branch pc is not, nor
    # is anything the bottom frame observes after a rollback
    cases = [
        # P1: bottom branch pc, two wrong-path loads, rollback
        ("P1", {7: 2}, [1, 2, 3]),
        # P1' at z = 0: the nested branch's pc, its load, two rollbacks
        ("P1'", {7: 0}, [1, 2, 3, 4, 5]),
        # P1' at z = 1: the nested frame at end burns its window first
        ("P1'", {7: 1}, [1, 2, 3, 4, 5]),
        # ex1: the wrong path ends at once; the rollback pc is marked, the
        # two architectural loads after it are not
        ("ex1", {9: 1, 12: 3}, [1]),
    ]
    for name, mem, expected in cases:
        p = corpus.load(name)
        speculative = []
        trace = trace_spec(p, state(p, mem), W, speculative=speculative)
        assert speculative == expected, (name, mem, trace)


def test_the_filter_keeps_each_observation_by_its_atom_in_its_frame():
    # no named contract tells pcA from pcS, so the filter is asked directly
    p = corpus.load("P1'")
    speculative = []
    trace = trace_spec(p, state(p, {7: 0}), W, speculative=speculative)
    assert _shown(trace, frozenset({"pcA"}), speculative) == (("pc", 2),)
    assert _shown(trace, frozenset({"pcS"}), speculative) == (("pc", 4), ("pc", "end"), ("pc", "end"))
    assert _shown(trace, frozenset({"ldS"}), speculative) == (("load", 7), ("load", 8))
    assert _shown(trace, frozenset({"ldS", "valS"}), speculative) == (("loadv", 7, 0), ("loadv", 8, 0))
    assert _shown(trace, frozenset({"ldA", "valA"}), speculative) == ()
    assert _shown(trace, CONTRACTS["spec-arch"], speculative) is trace


def test_spec_trace_window_must_be_positive():
    p = parse_program("skip")
    with pytest.raises(ValueError):
        trace_spec(p, state(p), window=0)


def test_fuel_exhausted_on_loop():
    p = corpus.load("loop")
    with pytest.raises(FuelExhausted):
        spec(p, state(p), "ct", fuel=50)


# -- degenerate contracts -----------------------------------------------------


def test_top_trace_is_empty():
    for name in ("P1", "ex2", "skip"):
        p = corpus.load(name)
        assert contract_trace(TOP, p, state(p, {7: 3})) == ()


def test_bot_on_skip_has_two_snapshots():
    p = parse_program("skip")
    t = trace_degenerate(p, state(p))
    assert len(t) == 2
    assert all(obs[0] == "state" for obs in t)
    # first snapshot: after the skip; second: after termination
    assert t[0][1][0] == (("pc", 1),)
    assert t[1][1][0] == (("pc", "end"),)


def test_bot_traces_equal_iff_states_equal():
    p = parse_program("load x, 3\nskip")
    a = trace_degenerate(p, state(p, {3: 1}))
    b = trace_degenerate(p, state(p, {3: 1}))
    c = trace_degenerate(p, state(p, {3: 2}))
    assert a == b
    assert a != c


def test_bot_inf_lists_each_snapshot_addr_zero_or_not():
    # skip touches no cell; each domain cell is listed in every snapshot
    # with the state's own value, zero or not
    p = parse_program("skip")
    dom = StateDomain(modulus=16, vary=((7, 0, 1),))
    traces = [contract_trace(BOT_INF, p, s, snapshot_addrs=dom.addresses) for s in dom.initial_states(p)]
    assert [[mem for _, (_, mem) in t] for t in traces] == [[((7, 0),)] * 2, [((7, 1),)] * 2]


# -- contract identifiers -----------------------------------------------------


def test_contract_id_parse_and_str():
    for name in ("seq-ct", "seq-arch", "spec-ct", "spec-pc-ct", "spec-arch", "top", "bot-inf"):
        assert str(ContractId.parse(name)) == name


def test_contract_id_rejects_invalid_combinations():
    with pytest.raises(ValueError, match="takes no window"):
        ContractId(SEQ_CT.atoms, 5)  # would print as seq-ct yet differ from SEQ_CT
    with pytest.raises(ValueError, match="window must be >= 1"):
        ContractId(SPEC_CT.atoms, 0)
    with pytest.raises(ValueError):
        ContractId.parse("spec-bogus")
    with pytest.raises(ValueError):
        ContractId.parse("bot")  # bot-inf has one spelling


@pytest.mark.parametrize(
    "atoms",
    [{"valA"}, SEQ_CT.atoms | {"ldS"}, SEQ_CT.atoms | {"valS"}, {"pcS"}, {"state", "pcA"}],
    ids=["valA", "seq-ct+ldS", "seq-ct+valS", "pcS", "bot-inf+pcA"],
)
def test_contract_id_rejects_an_atom_set_no_contract_shows(atoms):
    with pytest.raises(ValueError, match=rf"^no contract shows the atoms \[{', '.join(map(repr, sorted(atoms)))}\]$"):
        ContractId(frozenset(atoms))


def test_contract_id_window_reaches_a_spec_contract_only():
    for name in CONTRACTS:
        contract = ContractId.parse(name, window=3)
        assert ContractId.parse(str(contract), contract.window) == contract
        assert contract.speculative == name.startswith("spec-")
        assert contract.window == (3 if contract.speculative else None)


# -- the observers the atom sets replace --------------------------------------


def observer_reference(observer, trace, speculative):
    """What a labeled contract's observer showed of the arch ``trace``
    before contracts were atom sets: ``ct`` erases the loaded values,
    ``pc-ct`` also drops the memory observations at the positions
    ``speculative``, and ``arch`` shows the trace, its values filled in."""
    if observer == "arch":
        return trace
    kept = (o for i, o in enumerate(trace) if observer == "ct" or o[0] == "pc" or i not in speculative)
    return tuple(("load", o[1]) if o[0] == "loadv" else o for o in kept)


def test_each_labeled_contract_filters_as_its_observer_did():
    observers = {"seq-ct": "ct", "seq-arch": "arch", "spec-ct": "ct", "spec-pc-ct": "pc-ct", "spec-arch": "arch"}
    dom = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3)))
    cases = [(corpus.load(n), StateDomain(modulus=16, vary=corpus.default_vary(n))) for n in corpus.program_names()]
    cases += [(p, dom) for p in random_programs(50, seed=31)]
    compared = 0
    for p, domain in cases:
        for s in domain.initial_states(p):
            arch = trace_seq(p, s, modulus=16)
            for name in ("seq-ct", "seq-arch"):
                assert contract_trace(ContractId.parse(name), p, s, modulus=16) == observer_reference(
                    observers[name], arch, ()
                ), (name, str(p), s)
            for window in (1, 3, 7):
                speculative = []
                arch = trace_spec(p, s, window, modulus=16, speculative=speculative)
                for name in ("spec-ct", "spec-pc-ct", "spec-arch"):
                    traced = contract_trace(ContractId.parse(name, window), p, s, modulus=16)
                    assert traced == observer_reference(observers[name], arch, speculative), (name, window, str(p), s)
                    compared += 1
    assert compared > 1000


# -- strength test ------------------------------------------------------------


def test_seq_ct_stronger_than_seq_arch_on_corpus():
    programs = [corpus.load(n) for n in corpus.program_names()]
    dom = StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3)))
    assert contract_stronger_test(SEQ_CT, SEQ_ARCH, programs, dom) is None


def test_seq_arch_not_stronger_than_seq_ct():
    # values leak under arch while ct only sees the (constant) addresses
    dom = StateDomain(modulus=16, vary=((9, 0, 3),))
    witness = contract_stronger_test(SEQ_ARCH, SEQ_CT, [corpus.load("ex1")], dom)
    assert witness is not None
    assert witness.trace1 != witness.trace1_prime


def test_top_stronger_than_everything():
    programs = [corpus.load("P1"), corpus.load("ex2")]
    dom = StateDomain(modulus=16, vary=((7, 0, 1), (10, 0, 1)))
    for weaker in (SEQ_CT, SEQ_ARCH):
        assert contract_stronger_test(TOP, weaker, programs, dom) is None


def test_format_trace_records():
    p = corpus.load("ex1")
    text = format_trace(seq(p, state(p), "ct"))
    assert text == "pc 2\nload 9\nload 12\n"
    text = format_trace(trace_seq(p, state(p, {9: 1})))
    assert "loadv 9 1" in text


def test_rollback_resumes_the_correct_continuation():
    # architecturally not-taken branch: the mispredicted frame jumps to the
    # end and silently burns its window; after the rollback observation the
    # trace continues exactly like the sequential one
    p = corpus.load("ex1")
    s = state(p, {9: 1, 12: 3})
    spec_ct = spec(p, s, "ct", window=7)
    seq_ct = seq(p, s, "ct")
    assert spec_ct == (("pc", "end"),) + seq_ct
    assert seq_ct == (("pc", 2), ("load", 9), ("load", 76))

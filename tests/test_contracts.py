"""Contract trace semantics and the strength relation."""
import pytest

from muspec import corpus
from muspec.arch import ArchState, FuelExhausted
from muspec.analysis import StateDomain
from muspec.contracts import (
    SEQ_ARCH,
    SEQ_CT,
    TOP,
    ContractId,
    contract_stronger_test,
    format_trace,
    trace_degenerate,
    trace_seq,
    trace_spec,
)
from muspec.isa import parse_program

W = 7


def state(p, mem=None):
    return ArchState.initial(p, mem)


# -- sequential traces --------------------------------------------------------


def test_example1_ct_trace():
    # branch observation is pc 2 in our zero-based addressing (the original
    # counts lines from 1)
    p = corpus.load("ex1")
    assert trace_seq(p, state(p), "ct") == (("pc", 2), ("load", 9), ("load", 12))


def test_skip_has_empty_trace():
    p = parse_program("skip")
    assert trace_seq(p, state(p), "ct") == ()


def test_example1_arch_trace_attaches_values():
    p = corpus.load("ex1")
    t = trace_seq(p, state(p, {9: 0, 12: 4}), "arch")
    assert t == (("pc", 2), ("loadv", 9, 0), ("loadv", 12, 4))


def test_store_and_jmp_observations():
    p = parse_program("x <- 2\nstore x, 6\njmp 3")
    assert trace_seq(p, state(p), "ct") == (("store", 6), ("pc", 3))


def test_ct_is_value_erasure_of_arch():
    def erase(trace):
        return tuple(
            ("load", obs[1]) if obs[0] == "loadv" else obs for obs in trace
        )

    for name in corpus.program_names():
        p = corpus.load(name)
        s = state(p, {7: 2, 9: 1, 10: 1, 11: 3})
        assert erase(trace_seq(p, s, "arch")) == trace_seq(p, s, "ct")
        assert erase(trace_spec(p, s, "arch", W)) == trace_spec(p, s, "ct", W)


# -- speculative traces -------------------------------------------------------


def test_p1_spec_trace_shows_mispredicted_loads_then_rollback():
    p = corpus.load("P1")
    t = trace_spec(p, state(p, {7: 2}), "ct", window=10)
    # branch at 1 architecturally jumps to end; the mispredicted path does
    # both loads before the rollback observation of the resumed pc
    assert t == (("pc", 2), ("load", 7), ("load", 12), ("pc", "end"))


def test_p1_pc_ct_filters_speculative_loads():
    p = corpus.load("P1")
    ct = trace_spec(p, state(p, {7: 2}), "ct", window=10)
    pcct = trace_spec(p, state(p, {7: 2}), "pc-ct", window=10)
    assert pcct == (("pc", 2), ("pc", "end"))
    assert [o for o in pcct] == [o for o in ct if o[0] == "pc"]


def test_pc_ct_is_subsequence_of_ct():
    def subsequence(small, big):
        it = iter(big)
        return all(x in it for x in small)

    for name in corpus.program_names():
        p = corpus.load(name)
        s = state(p, {7: 1, 9: 2, 10: 1, 11: 0})
        assert subsequence(trace_spec(p, s, "pc-ct", W), trace_spec(p, s, "ct", W))


def test_straight_line_spec_equals_seq():
    p = parse_program("x <- 1\nload y, 4\nstore y, 5")
    s = state(p, {4: 2})
    for observer in ("ct", "arch"):
        assert trace_spec(p, s, observer, W) == trace_seq(p, s, observer)


def test_window_one_explores_single_speculative_step():
    p = corpus.load("P1")
    t = trace_spec(p, state(p, {7: 2}), "ct", window=1)
    # one step into the wrong path (the first load), then rollback
    assert t == (("pc", 2), ("load", 7), ("pc", "end"))


def test_barrier_zeroes_speculative_window():
    p = corpus.load("P1f")
    t = trace_spec(p, state(p, {7: 2}), "ct", window=10)
    assert t == (("pc", 2), ("pc", "end"))


def test_barrier_on_architectural_path_is_plain_step():
    p = parse_program("spbarr\nload x, 5")
    assert trace_spec(p, state(p), "ct", W) == (("load", 5),)


def test_nested_branches_roll_back_innermost_first():
    p = corpus.load("P1'")
    t0 = trace_spec(p, state(p, {7: 0}), "pc-ct", W)
    t1 = trace_spec(p, state(p, {7: 1}), "pc-ct", W)
    # the nested mispredict observation depends on the loaded value
    assert t0 != t1


def test_spec_trace_window_must_be_positive():
    p = parse_program("skip")
    with pytest.raises(ValueError):
        trace_spec(p, state(p), "ct", window=0)


def test_fuel_exhausted_on_loop():
    p = corpus.load("loop")
    with pytest.raises(FuelExhausted):
        trace_spec(p, state(p), "ct", W, fuel=50)


# -- degenerate contracts -----------------------------------------------------


def test_top_trace_is_empty():
    for name in ("P1", "ex2", "skip"):
        p = corpus.load(name)
        assert trace_degenerate(p, state(p, {7: 3}), "top") == ()


def test_bot_on_skip_has_two_snapshots():
    p = parse_program("skip")
    t = trace_degenerate(p, state(p), "bot")
    assert len(t) == 2
    assert all(obs[0] == "state" for obs in t)
    # first snapshot: after the skip; second: after termination
    assert t[0][1][0] == (("pc", 1),)
    assert t[1][1][0] == (("pc", "end"),)


def test_bot_traces_equal_iff_states_equal():
    p = parse_program("load x, 3\nskip")
    a = trace_degenerate(p, state(p, {3: 1}), "bot")
    b = trace_degenerate(p, state(p, {3: 1}), "bot")
    c = trace_degenerate(p, state(p, {3: 2}), "bot")
    assert a == b
    assert a != c


# -- contract identifiers -----------------------------------------------------


def test_contract_id_parse_and_str():
    for name in ("seq-ct", "seq-arch", "spec-ct", "spec-pc-ct", "spec-arch", "top", "bot-inf"):
        assert str(ContractId.parse(name)) == name


def test_contract_id_rejects_invalid_combinations():
    with pytest.raises(ValueError):
        ContractId("seq", "pc-ct")
    with pytest.raises(ValueError):
        ContractId("seq", "ct", 5)  # would print as seq-ct yet differ from SEQ_CT
    with pytest.raises(ValueError):
        ContractId("top", "ct")
    with pytest.raises(ValueError):
        ContractId.parse("spec-bogus")
    with pytest.raises(ValueError):
        ContractId.parse("bot")  # bot-inf has one spelling


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
    text = format_trace(trace_seq(p, state(p), "ct"))
    assert text == "pc 2\nload 9\nload 12\n"
    text = format_trace(trace_seq(p, state(p, {9: 1}), "arch"))
    assert "loadv 9 1" in text


def test_rollback_resumes_the_correct_continuation():
    # architecturally not-taken branch: the mispredicted frame jumps to the
    # end and silently burns its window; after the rollback observation the
    # trace continues exactly like the sequential one
    p = corpus.load("ex1")
    s = state(p, {9: 1, 12: 3})
    spec = trace_spec(p, s, "ct", window=7)
    seq = trace_seq(p, s, "ct")
    assert spec == (("pc", "end"),) + seq
    assert seq == (("pc", 2), ("load", 9), ("load", 76))

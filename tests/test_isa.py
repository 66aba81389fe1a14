"""Parser, printer, expression evaluation, and well-formedness checks."""
import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muspec import corpus
from muspec.isa import (
    BOTTOM,
    Assign,
    Beqz,
    BinOp,
    CondAssign,
    Const,
    Ite,
    Load,
    ParseError,
    Program,
    Reg,
    Skip,
    Store,
    StuckError,
    UnOp,
    check_well_formed,
    eval_expr,
    format_program,
    parse_program,
)

EX1_TEXT = """\
x <- 1 < 2
beqz x, end
load z, 8 + 1
z <- z * 64
load w, 12 + z
"""


def test_parse_single_skip():
    p = parse_program("skip")
    assert p.instrs == (Skip(),)


def test_parse_spectre_v1_listing():
    p = parse_program(EX1_TEXT)
    assert len(p) == 5
    assert p.instrs[0] == Assign("x", BinOp("<", Const(1), Const(2)))
    assert p.instrs[1] == Beqz("x", BOTTOM)
    assert p.instrs[2] == Load("z", BinOp("+", Const(8), Const(1)))
    assert p.instrs[4] == Load("w", BinOp("+", Const(12), Reg("z")))


def test_parse_labels_resolve_to_addresses():
    p = parse_program("beqz x, L\nskip\nL: skip")
    assert p.instrs[0] == Beqz("x", 2)


def test_parse_label_in_expression():
    p = parse_program("jmp L\nskip\nL: skip")
    assert p.instrs[0].target == Const(2)
    assert parse_program("L: jmp L").instrs[0].target == Const(0)


def test_parse_cond_assign():
    p = parse_program("x <- y ? 3 + 1")
    assert p.instrs[0] == CondAssign("x", BinOp("+", Const(3), Const(1)), Reg("y"))


def test_parse_store_and_comments():
    p = parse_program("store x, 5  # to the scratch cell\n\n# nothing else\n")
    assert p.instrs == (Store("x", Const(5)),)


def test_parse_ite_expression():
    p = parse_program("x <- ite(y, 1, 2)")
    assert p.instrs[0] == Assign("x", Ite(Reg("y"), Const(1), Const(2)))


@pytest.mark.parametrize(
    "text, line, column",
    [
        # columns are 1-based and count from the raw line
        ("load x 5", 1, 8),  # missing comma
        ("  beqz x, NOWHERE", 1, 11),
        ("L: skip\nL: skip", 2, 1),
        ("L: skip\nM: L: skip", 2, 4),  # a duplicate label at its own column
        ("\tx <- $", 1, 7),
        ("  L: x <- $", 1, 11),
        ("A: end: skip", 1, 4),
        ("x <- 1 +", 1, 9),  # the end of the line is one past its last character
        ("skip\njmp  # nowhere", 2, 6),
        ("x <- \u00b2", 1, 6),  # a digit that int() does not read
        # an ill-formed program names its instruction's line
        ("skip\nbeqz x, L\nL: skip", 2, 1),
        ("skip\n\nL:  pc <- 1", 3, 5),
        # a label's name in a register position
        ("x: x <- x + 1", 1, 4),  # parsed as x <- 0 + 1: register x written, never read
        ("L: skip\nL <- 1 ? 2", 2, 1),
        ("L: skip\nload L, 3", 2, 6),
        ("L: skip\nstore L, 3", 2, 7),
        ("L: skip\nbeqz L, L", 2, 6),  # register L as the guard, label L as the target
    ],
)
def test_parse_errors(text, line, column):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (info.value.line, info.value.column) == (line, column), str(info.value)


def test_decimal_digits_parse_as_numbers():
    assert parse_program("x <- \u0663") == Program((Assign("x", Const(3)),))


_LISTINGS = (
    corpus.P1, corpus.P1_F, corpus.P1_PRIME, corpus.P1_PRIME_F, corpus.P2, corpus.P2_F,
    corpus.P2_PRIME, corpus.P2_PRIME_F, corpus.EX1, corpus.EX2, corpus.TRIVIA_SKIP,
    corpus.TRIVIA_LOOP,
)
_PIECES = (
    "", "L:", "L", "end", "pc", "x", "<-", "?", ":", "(", ")", ",", "+", "#", "$", " ", "\t",
    "\n", "0", "9", "\u00b2", "\u0663", "\u00a0", "beqz x, ", "ite(",
    "\npc <- 1\n", "\nbeqz x, L\nL: ",  # ill-formed when they parse
)


def _mutated(draw) -> str:
    """A corpus listing with one to three pieces of uAsm written over it."""
    text = draw(st.sampled_from(_LISTINGS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(_PIECES)) + text[i + draw(st.integers(0, 3)):]
    return text


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.composite(_mutated)())
def test_parse_gives_a_program_or_a_positioned_error(text):
    try:
        p = parse_program(text)
    except ParseError as error:
        lines = text.splitlines()
        assert 1 <= error.line <= len(lines), str(error)
        assert 1 <= error.column <= len(lines[error.line - 1]) + 1, str(error)
    else:
        assert parse_program(format_program(p)) == p


@pytest.mark.parametrize(
    "text, column",
    [
        ("jmp end", 5),  # parsed as Reg("end"): a jump to 0, looping until the fuel ran out
        ("x <- end", 6),
        ("x <- y + end", 10),
        ("end <- 1", 1),
        ("load end, 3", 6),
        ("beqz end, 3\nskip\nskip", 6),
        ("end: skip", 1),  # a label that `beqz x, end` could never reach
    ],
)
def test_end_is_reserved_for_the_undefined_branch_target(text, column):
    with pytest.raises(ParseError, match="'end' is reserved") as info:
        parse_program(text)
    assert (info.value.line, info.value.column) == (1, column)


def test_bottom_stays_the_single_instance():
    assert copy.copy(BOTTOM) is BOTTOM
    assert copy.deepcopy(BOTTOM) is BOTTOM
    assert copy.deepcopy([Const(BOTTOM)])[0].value is BOTTOM
    assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM


def test_fall_through_branch_rejected():
    with pytest.raises(ParseError):
        parse_program("beqz x, L1\nL1: skip")


def test_pc_target_rejected():
    with pytest.raises(ParseError):
        parse_program("pc <- 3")
    with pytest.raises(ParseError):
        parse_program("load pc, 0")


def test_check_well_formed_reports_addresses():
    p = Program((Assign("pc", Const(3)),))
    violations = check_well_formed(p)
    assert [addr for addr, _ in violations] == [0]
    p = Program((Skip(), Beqz("x", 2)))
    violations = check_well_formed(p)
    assert [addr for addr, _ in violations] == [1]


def test_round_trip_corpus():
    for name in corpus.names():
        p = corpus.load(name)
        assert parse_program(format_program(p)) == p


def test_round_trip_random_programs():
    from muspec.analysis import random_programs

    for p in random_programs(40, seed=7):
        assert parse_program(format_program(p)) == p


# -- evaluation --------------------------------------------------------------


def test_eval_comparison():
    assert eval_expr(BinOp("<", Const(3), Const(5)), {}) == 1
    assert eval_expr(BinOp("<", Const(5), Const(3)), {}) == 0
    assert eval_expr(BinOp("=", Const(4), Const(4)), {}) == 1


def test_eval_partial_propagates_bottom():
    a = {"z": BOTTOM}
    assert eval_expr(Reg("z"), a, partial=True) is BOTTOM
    assert eval_expr(BinOp("+", Reg("z"), Const(1)), a, partial=True) is BOTTOM
    assert eval_expr(Ite(Reg("z"), Const(1), Const(2)), a, partial=True) is BOTTOM


def test_eval_total_rejects_bottom():
    with pytest.raises(StuckError):
        eval_expr(Reg("z"), {"z": BOTTOM})


def test_eval_modular_arithmetic():
    assert eval_expr(BinOp("*", Const(7), Const(5)), {}, modulus=16) == 3
    assert eval_expr(BinOp("-", Const(0), Const(1)), {}, modulus=16) == 15
    assert eval_expr(UnOp("neg", Const(1)), {}, modulus=16) == 15


def test_eval_logic_ops():
    assert eval_expr(UnOp("not", Const(0)), {}) == 1
    assert eval_expr(UnOp("not", Const(7)), {}) == 0
    assert eval_expr(BinOp("|", Const(2), Const(1)), {}) == 3
    assert eval_expr(BinOp("&", Const(6), Const(3)), {}) == 2
    assert eval_expr(BinOp("^", Const(6), Const(3)), {}) == 5


def test_eval_ite_nonzero_selects_then():
    assert eval_expr(Ite(Const(2), Const(10), Const(20)), {}) == 10
    assert eval_expr(Ite(Const(0), Const(10), Const(20)), {}) == 20


def test_partial_agrees_with_total_without_bottom():
    import random

    from muspec.analysis import _random_expr

    rng = random.Random(3)
    a = {"x": 3, "y": 0, "z": 9, "w": 14}
    for _ in range(300):
        e = _random_expr(rng, 16)
        assert eval_expr(e, a, modulus=16) == eval_expr(e, a, partial=True, modulus=16)

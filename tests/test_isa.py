"""Parser, printer, expression evaluation, and well-formedness checks."""
import copy
import hashlib
import importlib.util
import pickle
import random
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muspec import corpus
from muspec.isa import (
    BINARY_OPS,
    BOTTOM,
    UNARY_OPS,
    UNARY_SPELLINGS,
    Assign,
    Beqz,
    BinOp,
    CondAssign,
    Const,
    Deferred,
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
    format_expr,
    format_program,
    parse_program,
    term_value,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
PARSER_DIGEST = "224a66927b229dee489dfbe3fba2215fc7574644a427f2acb25f39dfd7fb9fda"

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


def _where(value):
    """A case's id for its message: the line and column the message names."""
    if value.startswith("line "):
        return "-".join(value[len("line "):].split(": ", 1)[0].split(", column "))
    return None


@pytest.mark.parametrize(
    "text, message",
    [
        # columns are 1-based and count from the raw line
        ("load x 5", "line 1, column 8: expected: load x, e"),  # missing comma
        ("  beqz x, NOWHERE", "line 1, column 11: unknown label 'NOWHERE'"),
        ("L: skip\nL: skip", "line 2, column 1: duplicate label 'L'"),
        # a duplicate label at its own column
        ("L: skip\nM: L: skip", "line 2, column 4: duplicate label 'L'"),
        ("\tx <- $", "line 1, column 7: unexpected character '$'"),
        ("  L: x <- $", "line 1, column 11: unexpected character '$'"),
        ("A: end: skip", "line 1, column 4: 'end' is reserved for the undefined value"),
        # the end of the line is one past its last character
        ("x <- 1 +", "line 1, column 9: unexpected end of line"),
        ("skip\njmp  # nowhere", "line 2, column 6: unexpected end of line"),
        # a digit that int() does not read, also after a number or as a label
        ("x <- \u00b2", "line 1, column 6: unexpected character '\u00b2'"),
        ("x <- 3\u00b2", "line 1, column 7: unexpected character '\u00b2'"),
        ("\u00b2: skip\n\u00b2: skip", "line 1, column 1: unexpected character '\u00b2'"),
        # but a name may go on with one; a roman numeral starts no name either
        ("x <- y\u00b2 + \u2167", "line 1, column 11: unexpected character '\u2167'"),
        # every line's labels are bound before an instruction is read
        ("L: $\nL: skip", "line 2, column 1: duplicate label 'L'"),
        ("x <- (1", "line 1, column 8: unexpected end of line"),
        ("x <- ite(1, 2 3)", "line 1, column 15: expected ',', found 3"),
        ("skip 1", "line 1, column 1: unrecognized instruction 'skip 1'"),
        ("3 <- 1", "line 1, column 1: unrecognized instruction '3 <- 1'"),
        ("jmp <- 1", "line 1, column 5: unexpected token '<-'"),
        ("x <- 1 2", "line 1, column 8: trailing tokens starting at 2"),
        ("beqz x, 1 2", "line 1, column 9: branch target must be a label, number, or end"),
        # an ill-formed program names its instruction's line
        (
            "skip\nbeqz x, L\nL: skip",
            "line 2, column 1: ill-formed program: branch at 1 targets its own fall-through",
        ),
        ("skip\n\nL:  pc <- 1", "line 3, column 5: ill-formed program: instruction at 1 targets pc"),
        # a label's name in a register position
        # parsed as x <- 0 + 1: register x written, never read
        ("x: x <- x + 1", "line 1, column 4: label 'x' used as a register"),
        ("L: skip\nL <- 1 ? 2", "line 2, column 1: label 'L' used as a register"),
        ("L: skip\nload L, 3", "line 2, column 6: label 'L' used as a register"),
        ("L: skip\nstore L, 3", "line 2, column 7: label 'L' used as a register"),
        # register L as the guard, label L as the target
        ("L: skip\nbeqz L, L", "line 2, column 6: label 'L' used as a register"),
    ],
    ids=_where,
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert str(info.value) == message
    assert message.startswith(f"line {info.value.line}, column {info.value.column}: ")


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


def _edited(pick, integer) -> str:
    """A corpus listing with one to three pieces of uAsm written over it;
    ``pick(seq)`` chooses an item and ``integer(lo, hi)`` a number in lo..hi."""
    text = pick(_LISTINGS)
    for _ in range(integer(1, 3)):
        i = integer(0, len(text))
        text = text[:i] + pick(_PIECES) + text[i + integer(0, 3):]
    return text


def _mutated(draw) -> str:
    return _edited(lambda seq: draw(st.sampled_from(seq)), lambda lo, hi: draw(st.integers(lo, hi)))


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


def _parsed(text: str) -> str:
    try:
        return repr(parse_program(text))
    except ParseError as error:
        return str(error)


def test_parser_digest_is_pinned(monkeypatch):
    # what the parser makes of 2,000 seeded edits of the corpus listings and
    # of the benchmark's 200 lattice programs: each Program's repr, or each
    # ParseError's message, line and column
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    rng = random.Random(2024)
    texts = [_edited(rng.choice, rng.randint) for _ in range(2000)]
    rng = random.Random(1)
    texts += [workloads.random_program_source(rng) for _ in range(workloads.LATTICE_RANDOM_PROGRAMS)]
    digest = hashlib.sha256("\n".join(map(_parsed, texts)).encode()).hexdigest()
    assert digest == PARSER_DIGEST


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
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert str(info.value) == f"line 1, column {column}: 'end' is reserved for the undefined value"


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


# Each operator, written out modulo 16, with its arity.
REFERENCE_OPS = {
    "neg": lambda v: (16 - v) % 16,
    "not": lambda v: int(v == 0),
    "+": lambda a, b: (a + b) % 16,
    "-": lambda a, b: (a - b) % 16,
    "*": lambda a, b: a * b % 16,
    "<": lambda a, b: int(a < b),
    "=": lambda a, b: int(a == b),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "ite": lambda c, t, o: t if c else o,
}


def _applied(op, args):
    """``op`` applied to the expressions ``args``."""
    if op == "ite":
        return Ite(*args)
    return UnOp(op, *args) if op in UNARY_OPS else BinOp(op, *args)


def test_operators_agree_everywhere():
    # evaluation on constants, the term a deferred operand builds, and the
    # reference agree on every operator and every operand modulo 16
    assert REFERENCE_OPS.keys() == UNARY_OPS.keys() | BINARY_OPS.keys() | {"ite"}
    for op, reference in REFERENCE_OPS.items():
        arity = 3 if op == "ite" else 1 if op in UNARY_OPS else 2
        regs = _applied(op, [Reg(f"r{i}") for i in range(arity)])
        for args in product(range(16), repeat=arity):
            plain = eval_expr(_applied(op, [Const(v) for v in args]), {}, modulus=16)
            reads = {}
            deferred = eval_expr(regs, {f"r{i}": Deferred(i, v, reads) for i, v in enumerate(args)}, modulus=16)
            assert deferred.__class__ is Deferred and not reads
            assert plain == term_value(deferred.term, dict(enumerate(args))) == deferred.value == reference(*args), (
                op, args)
    # each unary spelling prints and parses back
    assert UNARY_SPELLINGS.keys() == UNARY_OPS.keys()
    for op, spelling in UNARY_SPELLINGS.items():
        e = UnOp(op, Reg("x"))
        assert format_expr(e) == f"{spelling}x"
        assert parse_program(f"y <- {format_expr(e)}").instrs[0] == Assign("y", e)
    # an operator is looked up in its own arity's table only
    x = {"x": Deferred(1, 3, {})}
    wrong = (UnOp("+", Const(1)), UnOp("ite", Reg("x")), BinOp("not", Const(1), Const(2)), BinOp("neg", Reg("x"), Reg("x")))
    for e in wrong:
        with pytest.raises(StuckError, match="^unknown operator '"):
            eval_expr(e, x, modulus=16)


def test_partial_agrees_with_total_without_bottom():
    import random

    from muspec.analysis import _random_expr

    rng = random.Random(3)
    a = {"x": 3, "y": 0, "z": 9, "w": 14}
    for _ in range(300):
        e = _random_expr(rng, 16)
        assert eval_expr(e, a, modulus=16) == eval_expr(e, a, partial=True, modulus=16)

"""Architectural step and run semantics."""
import re

import pytest

from muspec.arch import ArchState, FuelExhausted, arch_run, arch_step, format_state, parse_state
from muspec.isa import BOTTOM, DEFAULT_MODULUS, PC, StuckError, parse_program
from muspec import corpus


def initial(text, mem=None):
    p = parse_program(text)
    return p, ArchState.initial(p, mem)


def test_skip_advances_pc_only():
    p, s = initial("skip")
    s2 = arch_step(p, s)
    assert s2.regs[PC] == 1
    assert s2.mem == s.mem


def test_beqz_taken_when_zero():
    p, s = initial("beqz x, 5\nskip\nskip\nskip\nskip\nskip")
    assert arch_step(p, s).regs[PC] == 5


def test_beqz_falls_through_when_nonzero():
    p, s = initial("x <- 1\nbeqz x, end")
    s = arch_step(p, s)
    assert arch_step(p, s).regs[PC] == 2


def test_store_writes_memory():
    p, s = initial("x <- 3\nstore x, 5 + 2")
    s = arch_step(p, s)
    s = arch_step(p, s)
    assert s.read_mem(7) == 3
    assert s.regs[PC] == 2


def test_load_reads_default_zero():
    p, s = initial("load x, 9")
    assert arch_step(p, s).regs["x"] == 0


def test_cond_assign_updates_only_on_zero_guard():
    p, s = initial("x <- y ? 7")
    assert arch_step(p, s).regs["x"] == 7  # y = 0: update happens
    p, s = initial("y <- 1\nx <- y ? 7")
    s = arch_step(p, s)
    assert arch_step(p, s).regs["x"] == 0


def test_terminate_on_missing_instruction():
    p, s = initial("skip")
    s = arch_step(p, s)
    s2 = arch_step(p, s)
    assert s2.regs[PC] is BOTTOM
    assert s2.is_final()


def test_empty_program_terminates_in_one_step():
    p = parse_program("")
    final, steps = arch_run(p, ArchState.initial(p))
    assert steps == 1
    assert final.is_final()


def test_step_is_deterministic():
    p, s = initial("x <- 1\nstore x, 3\nload y, 3")
    assert arch_step(p, s) == arch_step(p, s)


def test_frame_conditions():
    # non-store leaves memory alone; non-assign/load leaves registers but pc
    p, s = initial("skip\njmp 3", {4: 9})
    s1 = arch_step(p, s)
    assert s1.mem == s.mem
    s2 = arch_step(p, s1)
    assert s2.mem == s.mem
    assert {r: v for r, v in s2.regs.items() if r != PC} == {
        r: v for r, v in s.regs.items() if r != PC
    }


def test_example1_run_ends_with_w_from_b():
    # hand-execution: x <- 1, branch not taken, z <- A[1] = 0, z <- 0,
    # w <- mem[12], terminate
    p = corpus.load("ex1")
    final, steps = arch_run(p, ArchState.initial(p, {12: 5}))
    assert final.regs["w"] == 5
    assert final.regs["x"] == 1
    assert final.regs["z"] == 0
    assert steps == 6


def test_infinite_loop_exhausts_fuel():
    p = corpus.load("loop")
    with pytest.raises(FuelExhausted):
        arch_run(p, ArchState.initial(p), fuel=100)


def test_stuck_on_final_state():
    p, s = initial("")
    final, _ = arch_run(p, s)
    with pytest.raises(StuckError):
        arch_step(p, final)


def test_state_literal_round_trip():
    p = parse_program("load x, 5\nstore x, 6")
    s, modulus = parse_state("reg x=3\nmem 5=2\n# comment\n", p)
    assert s.regs["x"] == 3
    assert s.read_mem(5) == 2
    assert modulus == DEFAULT_MODULUS
    assert parse_state(format_state(s), p) == (s, DEFAULT_MODULUS)


def test_state_literal_errors_name_the_line():
    p = parse_program("skip")
    with pytest.raises(ValueError, match=r"^state line 2: expected integers in '7=x'$"):
        parse_state("reg x=1\nmem 7=x\n", p)
    with pytest.raises(ValueError, match=r"^state line 1: expected"):
        parse_state("mem y=1\n", p)


def test_state_literal_rejects_a_cell_given_twice():
    # the last value used to win
    p = parse_program("skip")
    with pytest.raises(ValueError, match=r"^state line 3: reg x given twice$"):
        parse_state("reg x=1\n# c\nreg x=2\n", p)
    with pytest.raises(ValueError, match=r"^state line 2: mem 07 given twice$"):
        parse_state("mem 7=1\nmem 07=end\n", p)
    assert parse_state("reg x=1\nmem 1=1\n", p)[0] == ArchState({"pc": 0, "x": 1}, {1: 1})


@pytest.mark.parametrize(
    "line, message",
    [
        # run raised StuckError on the end in memory, hwrun DeadlockError
        ("mem 7=end", "a memory cell holds no end in '7=end'"),
        # ran z < 2 as 1 on -4, where the wrapped 65532 gives 0
        ("mem 7=-4", "expected integers in '7=-4'"),
        ("mem 7=+4", "expected integers in '7=+4'"),
        ("mem 7=1_0", "expected integers in '7=1_0'"),
        ("mem -3=2", "expected integers in '-3=2'"),
        ("mem +3=2", "expected integers in '+3=2'"),
        ("mem 1_0=2", "expected integers in '1_0=2'"),
        ("reg y=-1", "expected integers in 'y=-1'"),
        # run printed these back in its final state
        ("reg =3", "no program names a register ''"),
        ("reg 5=3", "no program names a register '5'"),
        ("reg end=1", "no program names a register 'end'"),
        ("reg x-y=1", "no program names a register 'x-y'"),
        # a run never wrapped a value at or above its modulus
        ("mem 7=65540", "'7=65540' holds no value below 65536"),
        ("reg y=65536", "'y=65536' holds no value below 65536"),
        ("values 16", "expected 'values <V>' first, V a power of two >= 2"),
    ],
)
def test_state_literal_values_are_decimal_digits(line, message):
    p = parse_program("skip")
    with pytest.raises(ValueError, match=f"^state line 2: {re.escape(message)}"):
        parse_state(f"reg x=1\n{line}\n", p)


def test_state_literal_end_is_a_register_value():
    p = parse_program("skip")
    assert parse_state("reg pc=end\nreg x=end\nmem 7=3\n", p)[0] == ArchState({"pc": BOTTOM, "x": BOTTOM}, {7: 3})


def test_state_literal_values_line_sets_the_modulus():
    # a witness dumped by check names its domain's modulus, and replays at it
    p = parse_program("skip")
    s, modulus = parse_state("# witness\nvalues 16\nreg x=15\nmem 7=3\n", p, modulus=256)
    assert (s, modulus) == (ArchState({"pc": 0, "x": 15}, {7: 3}), 16)
    assert parse_state("mem 7=200\n", p, modulus=256)[1] == 256
    with pytest.raises(ValueError, match=r"^state line 2: '7=16' holds no value below 16$"):
        parse_state("values 16\nmem 7=16\n", p, modulus=256)
    with pytest.raises(ValueError, match=r"^state line 1: '7=20' holds no value below 16$"):
        parse_state("mem 7=20\n", p, modulus=16)
    for line in ("values 12", "values 1", "values 0", "values x", "values 16 32", "values -16"):
        with pytest.raises(ValueError, match=r"^state line 1: expected 'values <V>' first"):
            parse_state(f"{line}\nmem 7=1\n", p)


def test_zero_memory_cells_are_canonical():
    p = parse_program("skip")
    assert ArchState.initial(p, {3: 0}) == ArchState.initial(p, {})

"""Command-line interface: subcommands, formats, exit codes."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from muspec import cli, pipeline
from muspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_subcommand(capsys):
    code, out, _ = run_cli(capsys, "run", "ex1")
    assert code == 0
    assert "steps=6" in out
    assert "reg pc=end" in out
    assert "reg w=0" in out


def test_trace_subcommand_emits_branch_and_loads(capsys):
    code, out, _ = run_cli(capsys, "trace", "--contract", "seq-ct", "ex1")
    assert code == 0
    assert out == "pc 2\nload 9\nload 12\n"


def test_run_and_hwrun_reject_end_in_memory_alike(capsys, tmp_path):
    # run raised StuckError on this state, and hwrun DeadlockError
    program, state = tmp_path / "p.masm", tmp_path / "s.txt"
    program.write_text("load z, 7\nload w, z\n")
    state.write_text("mem 7=end\n")
    for command in ("run", "hwrun"):
        code, _, err = run_cli(capsys, command, str(program), "--state", str(state))
        assert (code, err) == (2, "error: state line 1: a memory cell holds no end in '7=end'\n")


def test_run_and_hwrun_reject_a_value_at_or_above_the_modulus(capsys, tmp_path):
    # such a value was kept as it was: a run never wrapped it
    program, state, config = tmp_path / "p.masm", tmp_path / "s.txt", tmp_path / "c.txt"
    program.write_text("load z, 7\nx <- z < 5\n")
    config.write_text("modulus = 16\n")
    for text, message in (
        ("mem 7=65540\n", "state line 1: '7=65540' holds no value below 65536"),
        ("values 16\nmem 7=16\n", "state line 2: '7=16' holds no value below 16"),
    ):
        state.write_text(text)
        for command in ("run", "hwrun"):
            code, out, err = run_cli(capsys, command, str(program), "--state", str(state))
            assert (code, out, err) == (2, "", f"error: {message}\n"), (text, command)
    # without a values line, hwrun runs at its config's modulus
    state.write_text("mem 7=20\n")
    code, out, err = run_cli(capsys, "hwrun", str(program), "--state", str(state), "--config", str(config))
    assert (code, out, err) == (2, "", "error: state line 1: '7=20' holds no value below 16\n")


def test_a_dumped_witness_replays_at_the_domains_modulus(capsys, tmp_path):
    # trace and hwrun ran the dumped states at modulus 65536, where z * 2
    # does not wrap: trace printed load 36 where the check saw load 4
    program, domain, policy = tmp_path / "p.masm", tmp_path / "d.txt", tmp_path / "pol.txt"
    program.write_text("load z, 7\nz <- z * 2\nload w, 8 + z\n")
    domain.write_text("values 16\nvary 7 in 14..15\n")
    policy.write_text("low 0..3\n")
    prefix = tmp_path / "w"
    code, out, _ = run_cli(
        capsys, "--format", "json-lines", "check", "ni", str(program), "--contract", "seq-ct",
        "--domain", str(domain), "--policy", str(policy), "--dump-states", str(prefix),
    )
    assert code == 1
    record = json.loads(out.splitlines()[0])
    assert record["trace"] == "load 7;load 4;"
    for suffix, key in (("sigma", "trace"), ("sigma_prime", "trace_prime")):
        path = tmp_path / f"w.{suffix}.txt"
        assert path.read_text().startswith("values 16\n")
        code, out, _ = run_cli(capsys, "trace", "--contract", "seq-ct", "--state", str(path), str(program))
        assert (code, out) == (0, record[key].replace(";", "\n"))
    code, out, _ = run_cli(capsys, "hwrun", str(program), "--state", str(tmp_path / "w.sigma.txt"))
    assert code == 0
    assert out.endswith("reg pc=end\nreg w=0\nreg z=12\nmem 7=14\n")


def test_trace_with_state_file(capsys, tmp_path):
    state = tmp_path / "s.txt"
    state.write_text("mem 9=1\nmem 12=7\n")
    code, out, _ = run_cli(capsys, "trace", "--contract", "seq-arch", "ex1", "--state", str(state))
    assert code == 0
    assert "loadv 9 1" in out


def test_trace_program_file(capsys, tmp_path):
    prog = tmp_path / "p.asm"
    prog.write_text("load x, 3\n")
    code, out, _ = run_cli(capsys, "trace", "--contract", "seq-ct", str(prog))
    assert code == 0
    assert out == "load 3\n"


def test_hwrun_dumps_steps(capsys):
    code, out, _ = run_cli(capsys, "hwrun", "skip", "--countermeasure", "seq")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("step 0 dir=- view=")
    assert any("dir=fetch" in line for line in lines)
    assert any("dir=retire" in line for line in lines)
    assert "reg pc=end" in out


def test_check_sat_counterexample_exit_code(capsys, tmp_path):
    prefix = tmp_path / "cex"
    code, out, _ = run_cli(
        capsys,
        "check", "sat", "ex2",
        "--contract", "seq-ct",
        "--countermeasure", "loaddelay",
        "--dump-states", str(prefix),
    )
    assert code == 1
    assert "counterexample" in out
    assert (tmp_path / "cex.sigma.txt").exists()
    # the dumped states replay through the state parser
    code2, out2, _ = run_cli(capsys, "run", "ex2", "--state", str(tmp_path / "cex.sigma.txt"))
    assert code2 == 0


def test_a_bot_inf_witness_replays_byte_identically(capsys, tmp_path):
    # a check lists every domain cell in its bot-inf snapshots, zero or not,
    # and trace lists the same cells when given the same domain
    domain = tmp_path / "dom.txt"
    domain.write_text("vary 7 in 0..3\n")
    prefix = tmp_path / "w"
    code, out, _ = run_cli(
        capsys, "--format", "json-lines", "check", "wsni", "P1", "--contract", "bot-inf",
        "--domain", str(domain), "--dump-states", str(prefix),
    )
    assert code == 1
    record = json.loads(out.splitlines()[0])
    assert "[7]=0" in record["trace"]
    for suffix, key in (("sigma", "trace"), ("sigma_prime", "trace_prime")):
        argv = ("trace", "--contract", "bot-inf", "--state", str(tmp_path / f"w.{suffix}.txt"), "P1")
        code, out, _ = run_cli(capsys, *argv, "--domain", str(domain))
        assert (code, out) == (0, record[key].replace(";", "\n"))
    # without the domain, a zero cell no step touched is not listed
    code, out, _ = run_cli(capsys, "trace", "--contract", "bot-inf", "--state", str(tmp_path / "w.sigma.txt"), "P1")
    assert (code, out) == (0, "state pc=1,w=0,x=0,z=0\nstate pc=end,w=0,x=0,z=0\n")


def test_trace_runs_at_the_domains_modulus(capsys, tmp_path):
    # trace read the domain's cells but not its values, and ran a state file
    # without a values line at 65536: it showed z=28 and [36]=0
    program, domain, state = tmp_path / "p.masm", tmp_path / "d.txt", tmp_path / "s.txt"
    program.write_text("load z, 7\nz <- z * 2\nload w, 8 + z\n")
    domain.write_text("values 16\nvary 7 in 14..15\n")
    argv = ("trace", "--contract", "bot-inf", "--domain", str(domain), "--state", str(state), str(program))
    at_16 = "state pc=3,w=0,z=12,[4]=0,[7]=14\nstate pc=end,w=0,z=12,[4]=0,[7]=14\n"
    for text in ("mem 7=14\n", "values 16\nmem 7=14\n"):
        state.write_text(text)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.endswith(at_16), text
    # a values line in the state file still decides
    state.write_text("values 65536\nmem 7=14\n")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.endswith("state pc=end,w=0,z=28,[7]=14,[36]=0\n")


@pytest.mark.parametrize("contract", ["seq-ct", "seq-arch", "spec-ct", "spec-pc-ct", "spec-arch", "top"])
def test_domain_without_bot_inf_is_a_usage_error(capsys, tmp_path, contract):
    # only bot-inf snapshots show memory cells that no step touched
    domain = tmp_path / "dom.txt"
    domain.write_text("vary 7 in 0..3\n")
    with pytest.raises(SystemExit) as info:
        main(["trace", "P1", "--contract", contract, "--domain", str(domain)])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "muspec trace: error: " in out.err and "--domain" in out.err


def test_check_sat_pass(capsys):
    code, out, _ = run_cli(
        capsys, "check", "sat", "ex2", "--contract", "seq-ct", "--countermeasure", "seq"
    )
    assert code == 0
    assert out.startswith("pass")


def test_check_wsni_and_sni(capsys):
    code, _, _ = run_cli(capsys, "check", "wsni", "P1", "--contract", "spec-ct")
    assert code == 1
    code, _, _ = run_cli(capsys, "check", "wsni", "P1", "--contract", "spec-pc-ct")
    assert code == 0
    code, _, _ = run_cli(capsys, "check", "sni", "P2", "--contract", "spec-ct")
    assert code == 1


def test_classify_sandbox_table(capsys):
    code, out, _ = run_cli(capsys, "classify", "sandbox", "P1", "P1f", "P1'", "P1'f")
    assert code == 1  # table contains N cells
    lines = out.splitlines()
    assert len(lines) == 4
    assert "spec-ct=N" in lines[0] and "spec-pc-ct=Y,wSNI" in lines[0]
    assert "spec-ct=Y,wSNI" in lines[1]


def test_classify_ct_json_lines(capsys):
    code, out, _ = run_cli(capsys, "--format", "json-lines", "classify", "ct", "P2")
    assert code == 1
    row = json.loads(out.splitlines()[0])
    assert row["seq-arch"] == "N"
    assert row["spec-pc-ct"] == "Y,SNI"


def test_lattice_report(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--random", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all("pass" in line for line in lines)


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "trace", "--contract", "bogus", "P1")[0] == 2
    assert run_cli(capsys, "trace", "--contract", "bot", "P1")[0] == 2  # bot-inf only
    assert run_cli(capsys, "run", "no_such_file.asm")[0] == 2


def test_fuel_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "loop", "--fuel", "50")
    assert code == 2
    assert "FuelExhausted" in err


def test_hwrun_error_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "hwrun", "P1", "--countermeasure", "tt", "--fuel", "5")
    assert code == 2
    assert out == ""
    assert "FuelExhausted" in err


def test_empty_domain_exit_two(capsys, tmp_path):
    dom = tmp_path / "dom.txt"
    dom.write_text("values 16\nvary 7 in 3..0\n")
    code, out, err = run_cli(
        capsys, "check", "sat", "P1", "--contract", "spec-ct",
        "--countermeasure", "tt", "--domain", str(dom),
    )
    assert code == 2
    assert out == ""
    assert "3..0" in err


@pytest.mark.parametrize("text", ["", "values 16\n", "fix 7 = 3\n", "vary 7 in 3..3\n", "vary 7 in 0..0\nvary 9 in 2..2\n"])
def test_domain_without_vary_exit_two(capsys, tmp_path, text):
    # accepted, its one state made every check pass: no vary line, or vary
    # lines that each fix one value
    dom = tmp_path / "dom.txt"
    dom.write_text(text)
    for check in (("sat", "P1", "--contract", "seq-ct"), ("sat", "P1", "--contract", "spec-ct"),
                  ("ni", "P2", "--countermeasure", "none")):
        code, out, err = run_cli(capsys, "check", *check, "--domain", str(dom))
        assert code == 2, check
        assert out == ""
        assert "domain has one state" in err


def test_domain_listing_an_address_twice_exit_two(capsys, tmp_path):
    dom = tmp_path / "dom.txt"
    dom.write_text("values 16\nvary 7 in 0..3\nfix 7 = 5\n")
    code, out, err = run_cli(
        capsys, "check", "sat", "P1", "--contract", "spec-ct",
        "--countermeasure", "tt", "--domain", str(dom),
    )
    assert code == 2
    assert out == ""
    assert "address 7" in err


def test_reversed_policy_range_exit_two(capsys, tmp_path):
    pol = tmp_path / "pol.txt"
    pol.write_text("low 9..3\n")
    code, out, err = run_cli(
        capsys, "check", "ni", "P2", "--contract", "seq-arch", "--policy", str(pol),
    )
    assert code == 2
    assert out == ""
    assert "9..3" in err


def test_negative_domain_address_exit_two(capsys, tmp_path):
    # accepted, this domain varied a cell no program reads, so ni passed
    dom = tmp_path / "dom.txt"
    dom.write_text("values 16\nvary -3 in 0..3\n")
    code, out, err = run_cli(
        capsys, "check", "ni", "P2", "--contract", "seq-arch", "--domain", str(dom),
    )
    assert code == 2
    assert out == ""
    assert "address -3" in err


def test_hwrun_takes_fuel_from_the_config_unless_given(capsys, tmp_path):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("fuel = 3\n")
    code, out, err = run_cli(capsys, "hwrun", "ex1", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "FuelExhausted" in err
    code, out, _ = run_cli(capsys, "hwrun", "ex1", "--config", str(cfg), "--fuel", "1000")
    assert code == 0
    assert "reg pc=end" in out


def test_check_takes_fuel_from_the_config_unless_given(capsys, tmp_path):
    # P1's default states share one seq-ct trace, so the hardware runs
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("fuel = 3\n")
    args = ("check", "sat", "P1", "--contract", "seq-ct", "--config", str(cfg))
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert "FuelExhausted" in err
    code, out, _ = run_cli(capsys, *args, "--fuel", "1000000")
    assert code == 0
    assert out.startswith("pass")


def test_check_runs_no_hardware_for_states_alone_in_their_key_class(capsys, tmp_path, monkeypatch):
    # each of P1's default states has its own spec-ct trace: no pair to
    # compare, so the fuel too short for any run is never spent
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("fuel = 3\n")
    runs = []
    monkeypatch.setattr(pipeline, "hw_run", lambda *args: runs.append(args))
    code, out, err = run_cli(capsys, "check", "sat", "P1", "--contract", "spec-ct", "--config", str(cfg))
    assert (code, err, runs) == (0, "", [])
    assert out.startswith("pass")


def test_config_modulus_not_a_power_of_two_exit_two(capsys, tmp_path):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("modulus = 10\n")
    code, out, err = run_cli(capsys, "hwrun", "P1", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "modulus" in err


def test_bad_config_exit_two(capsys, tmp_path):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("cache = direct:0\n")
    code, out, _ = run_cli(capsys, "hwrun", "P1", "--config", str(cfg))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("spec", ["lru:x", "lru:4:"])
def test_config_cache_spec_not_integers_exit_two(capsys, tmp_path, spec):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text(f"cache = {spec}\n")
    code, out, err = run_cli(capsys, "hwrun", "P1", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: cache spec {spec!r}: size and line must be integers\n"


def test_classify_output_byte_stable(capsys):
    first = run_cli(capsys, "classify", "ct", "P2", "P2f")
    second = run_cli(capsys, "classify", "ct", "P2", "P2f")
    assert first == second


def test_policy_and_domain_files(capsys, tmp_path):
    pol = tmp_path / "pol.txt"
    pol.write_text("low 4..5\nlow 8..15\n")
    dom = tmp_path / "dom.txt"
    dom.write_text("values 16\nvary 7 in 0..3\n")
    code, out, _ = run_cli(
        capsys, "classify", "sandbox", "P1",
        "--policy", str(pol), "--domain", str(dom),
    )
    assert code == 1
    assert "spec-ct=N" in out


def test_classify_reads_the_domain_file_once(capsys, tmp_path, monkeypatch):
    dom = tmp_path / "dom.txt"
    dom.write_text("vary 7 in 0..1\n")
    reads = []

    def counted(path, fn=cli._read):
        reads.append(path)
        return fn(path)

    monkeypatch.setattr(cli, "_read", counted)
    _, out, _ = run_cli(capsys, "classify", "ct", "P2", "P2f", "--domain", str(dom))
    assert len(out.splitlines()) == 2
    assert reads == [str(dom)]


def test_parse_error_names_the_raw_line_and_column(capsys, tmp_path):
    prog = tmp_path / "p.asm"
    prog.write_text("skip  # first\n  L: x <- \u00b2\n")
    code, out, err = run_cli(capsys, "run", str(prog))
    assert code == 2 and out == ""
    assert err == "error: line 2, column 11: unexpected character '\u00b2'\n"


def test_stale_mask_literal_config_key_exit_two(capsys, tmp_path):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("mask_literal = true\n")
    code, out, err = run_cli(capsys, "hwrun", "P1", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: config line 1: unknown key 'mask_literal'\n"


@pytest.mark.parametrize(
    "predictor, digest",
    [
        # the two-bit counter of the branch at 3 reaches 2 and 3: predictions turn taken
        ("twobit", "e7e9ea9470a006b60c9c9e1662d1b3a4a30fabbc3daca8430cbde17029c3f0b7"),
        ("backward", "2a74eac2329db284bfad8d7e82ddcb0cce639b040bb4dc391155eb97214b7160"),
    ],
)
def test_hwrun_views_under_stateful_predictors_byte_stable(capsys, tmp_path, predictor, digest):
    prog = tmp_path / "loop.asm"
    prog.write_text("x <- 4\nL: x <- x - 1\ny <- x = 0\nbeqz y, L\n")
    cfg = tmp_path / "hw.cfg"
    cfg.write_text(f"predictor = {predictor}\n")
    code, out, _ = run_cli(capsys, "hwrun", str(prog), "--config", str(cfg))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_config_key_given_twice_exit_two(capsys, tmp_path):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("countermeasure = tt\n\n# then\ncountermeasure = none\n")
    code, out, err = run_cli(capsys, "hwrun", "P1", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: config line 4: countermeasure given twice\n"


def test_run_and_hwrun_take_no_window(capsys):
    # accepted and ignored before
    for command in ("run", "hwrun"):
        with pytest.raises(SystemExit) as info:
            main([command, "ex1", "--window", "3"])
        assert info.value.code == 2
        assert "--window" in capsys.readouterr().err


def test_fuel_default_is_the_architectural_default(monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_FUEL", 7)
    assert cli.build_parser().parse_args(["run", "ex1"]).fuel == 7


def test_check_without_contract_says_it_is_required(capsys):
    for what in ("sat", "wsni", "sni"):
        with pytest.raises(SystemExit) as info:
            main(["check", what, "P1"])
        assert info.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"muspec check {what}: error: the following arguments are required: --contract" in out.err
    assert run_cli(capsys, "check", "ni", "P2")[0] == 0  # ni defaults to seq-ct


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "P1", "--fuel", "-1"),
        ("trace", "P1", "--contract", "seq-ct", "--fuel", "0"),
        ("check", "sat", "P1", "--contract", "spec-ct", "--fuel", "0"),
    ],
)
def test_fuel_below_one_is_a_usage_error(capsys, argv):
    # run reported FuelExhausted, as if the program had looped
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --fuel: fuel must be >= 1, got {argv[-1]}" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "P1", "--contract", "seq-ct", "--window", "0"),
        ("check", "wsni", "P1", "--contract", "seq-arch", "--window", "-3"),
        ("check", "sat", "P1", "--contract", "spec-ct", "--window", "0"),
        ("classify", "sandbox", "P1", "--window", "0"),
        ("lattice", "--window", "-1"),
    ],
)
def test_window_below_one_is_a_usage_error(capsys, argv):
    # trace and check under a seq contract ignored it and exited 0
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --window: window must be >= 1, got {argv[-1]}" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "sat", "ex2", "--contract", "seq-ct", "--window", "3"),
        ("check", "ni", "P2", "--countermeasure", "tt", "--window", "3"),
        ("check", "ni", "P2", "--window", "3"),
        ("check", "wsni", "P1", "--contract", "seq-arch", "--window", "3"),
        ("trace", "P1", "--contract", "seq-ct", "--window", "3", "--state", "STATE"),
    ],
)
def test_window_without_a_speculative_contract_is_a_usage_error(capsys, tmp_path, argv):
    # each ran with the window dropped: the checks to a verdict, trace to exit 0
    state = tmp_path / "s.txt"
    state.write_text("mem 7=1\n")
    with pytest.raises(SystemExit) as info:
        main([str(state) if arg == "STATE" else arg for arg in argv])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    command = " ".join(argv[:2]) if argv[0] == "check" else argv[0]
    assert f"muspec {command}: error: " in out.err and "--window" in out.err


def test_a_speculative_contract_reads_the_window(capsys):
    # a window of 2 rolls P1's misprediction back before its second load
    code, out, _ = run_cli(capsys, "trace", "P1", "--contract", "spec-ct", "--window", "2")
    assert (code, out) == (0, "pc 2\nload 7\npc end\n")
    code, out, _ = run_cli(capsys, "trace", "P1", "--contract", "spec-ct")  # the default window
    assert (code, out) == (0, "pc 2\nload 7\nload 8\npc end\n")


def test_lattice_negative_random_count_is_a_usage_error(capsys):
    # checked the corpus alone and passed before
    with pytest.raises(SystemExit) as info:
        main(["lattice", "--random", "-3"])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --random: random program count must be >= 0, got -3" in out.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("check", "ni", "P2", "--contract", "seq-arch", "--countermeasure", "tt"), "--contract"),
        (("check", "ni", "P2", "--contract", "seq-arch", "--config", "/nonexistent"), "--contract"),
        (("check", "wsni", "P1", "--contract", "spec-ct", "--countermeasure", "tt"), "--countermeasure"),
        (("check", "wsni", "P1", "--contract", "spec-ct", "--config", "/nonexistent"), "--config"),
        (("check", "sni", "P2", "--contract", "spec-ct", "--countermeasure", "tt"), "--countermeasure"),
        (("check", "sni", "P2", "--contract", "spec-ct", "--config", "/nonexistent"), "--config"),
        (("check", "sat", "P1", "--contract", "seq-ct", "--policy", "/nonexistent"), "--policy"),
        (("check", "wsni", "P1", "--contract", "spec-ct", "--policy", "/nonexistent"), "--policy"),
    ],
)
def test_check_rejects_options_it_does_not_read(capsys, argv, option):
    # ni dropped the contract; the others ignored the option, or failed to
    # open a file they never read
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"muspec check {argv[1]}: error: " in out.err and option in out.err


# the options among --contract, --countermeasure, --config and --policy that
# each check kind reads
CHECK_READS = {
    "sat": ("--contract", "--countermeasure", "--config"),
    "ni": ("--contract", "--countermeasure", "--config", "--policy"),
    "sni": ("--contract", "--policy"),
    "wsni": ("--contract",),
}


@pytest.mark.parametrize("option", ["--contract", "--countermeasure", "--config", "--policy"])
@pytest.mark.parametrize("kind", sorted(CHECK_READS))
def test_check_kind_accepts_exactly_the_options_it_reads(capsys, tmp_path, kind, option):
    (tmp_path / "hw.cfg").write_text("countermeasure = tt\n")
    (tmp_path / "pol.txt").write_text("low 4..5\n")
    value = {
        "--contract": "seq-arch",
        "--countermeasure": "tt",
        "--config": str(tmp_path / "hw.cfg"),
        "--policy": str(tmp_path / "pol.txt"),
    }[option]
    argv = ["check", kind, "P2", option, value]
    if kind != "ni" and option != "--contract":
        argv += ["--contract", "seq-ct"]
    if option in CHECK_READS[kind]:
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1) and err == ""
        assert out.startswith(("pass", "counterexample"))
        return
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"muspec check {kind}: error: unrecognized arguments: {option}" in out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        # ran as none, as the default domain, as the initial state
        (("check", "sat", "P1", "--contract", "seq-ct", "--countermeasure", ""), "unknown countermeasure ''"),
        (("check", "sat", "P1", "--contract", "seq-ct", "--config", ""), "No such file"),
        (("check", "sat", "P1", "--contract", "seq-ct", "--domain", ""), "No such file"),
        (("check", "ni", "P2", "--policy", ""), "No such file"),
        (("check", "ni", "P2", "--contract", ""), "unknown contract ''"),
        (("run", "P1", "--state", ""), "No such file"),
        (("hwrun", "P1", "--countermeasure", ""), "unknown countermeasure ''"),
        # ran seq-arch, while the same line with --countermeasure tt was a usage error
        (("check", "ni", "P2", "--countermeasure", "", "--contract", "seq-arch"), "not both"),
    ],
)
def test_an_empty_option_value_is_a_value(capsys, argv, message):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_an_empty_dump_prefix_is_a_prefix(capsys, tmp_path, monkeypatch):
    # wrote no files and reported none
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "check", "sat", "ex2", "--contract", "seq-ct", "--countermeasure", "loaddelay", "--dump-states", "",
    )
    assert code == 1
    assert "state-file which=sigma path=.sigma.txt" in out
    assert (tmp_path / ".sigma.txt").exists() and (tmp_path / ".sigma_prime.txt").exists()


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "muspec", "check", "wsni", "P1", "--contract", "spec-ct"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.startswith("counterexample check=wsni[spec-ct]")

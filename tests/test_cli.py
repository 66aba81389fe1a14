"""Command-line interface: subcommands, formats, exit codes."""
import hashlib
import json

import pytest

from muspec import cli
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
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("fuel = 3\n")
    args = ("check", "sat", "P1", "--contract", "spec-ct", "--config", str(cfg))
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert "FuelExhausted" in err
    code, out, _ = run_cli(capsys, *args, "--fuel", "1000000")
    assert code == 0
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
        code, out, err = run_cli(capsys, "check", what, "P1")
        assert code == 2
        assert out == ""
        assert err == f"error: check {what} requires --contract\n"
    assert run_cli(capsys, "check", "ni", "P2")[0] == 0  # ni defaults to seq-ct

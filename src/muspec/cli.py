"""Command-line front end.

Programs are file paths or shipped corpus names (P1, P1f, P1', P1'f, P2,
P2f, P2', P2'f, ex1, ex2, ex3, skip, loop).  Exit codes: 0 pass,
1 counterexample found, 2 usage or run error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import corpus
from .analysis import (
    Policy,
    StateDomain,
    Verdict,
    check_contract_satisfaction,
    check_lattice,
    check_ni,
    check_sni,
    check_wsni,
    classify_constant_time,
    classify_sandboxing,
    random_programs,
)
from .arch import DEFAULT_FUEL, ArchState, arch_run, format_state, parse_state
from .contracts import DEFAULT_SPEC_WINDOW, ContractId, contract_trace, format_trace
from .isa import ParseError, Program, parse_program
from .pipeline import HwConfig, adversary_view, hw_steps, initial_hw_state


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_program(spec: str) -> Program:
    if spec in corpus.names():
        return corpus.load(spec)
    return parse_program(_read(spec))


def _default_domain(spec: str) -> StateDomain:
    if spec in corpus.names():
        return StateDomain(modulus=16, vary=corpus.default_vary(spec))
    return StateDomain(modulus=16, vary=((0, 0, 3), (1, 0, 3)))


def _load_domain(args, default: StateDomain) -> StateDomain:
    return StateDomain.parse(_read(args.domain)) if args.domain else default


def _load_policy(args) -> Policy:
    return Policy.parse(_read(args.policy)) if args.policy else Policy(corpus.TABLE_POLICY_LOW)


def _load_state(args, program: Program) -> ArchState:
    return parse_state(_read(args.state), program) if args.state else ArchState.initial(program)


def _load_config(args) -> HwConfig:
    cfg = HwConfig.parse(_read(args.config)) if args.config else HwConfig()
    if args.countermeasure:
        cfg = replace(cfg, countermeasure=args.countermeasure)
    if args.fuel is not None:
        cfg = replace(cfg, fuel=args.fuel)
    return cfg


def _emit(args, record: dict):
    if args.format == "json-lines":
        print(json.dumps(record, sort_keys=True, default=str))
    else:
        kind = record.pop("kind", "")
        fields = " ".join(f"{k}={v}" for k, v in record.items())
        print(f"{kind} {fields}".strip())


def _verdict_records(args, verdict: Verdict, dump_prefix=None) -> int:
    if verdict.ok:
        _emit(args, {"kind": "pass", "check": verdict.check})
        return 0
    _emit(
        args,
        {
            "kind": "counterexample",
            "check": verdict.check,
            "position": verdict.position,
            "trace": format_trace(verdict.trace).replace("\n", ";"),
            "trace_prime": format_trace(verdict.trace_prime).replace("\n", ";"),
        },
    )
    if dump_prefix:
        for suffix, state in (("sigma", verdict.sigma), ("sigma_prime", verdict.sigma_prime)):
            path = f"{dump_prefix}.{suffix}.txt"
            with open(path, "w") as fh:
                fh.write(format_state(state))
            _emit(args, {"kind": "state-file", "which": suffix, "path": path})
    return 1


def _cmd_run(args) -> int:
    program = _load_program(args.program)
    final, steps = arch_run(program, _load_state(args, program), fuel=args.fuel)
    _emit(args, {"kind": "run", "steps": steps})
    sys.stdout.write(format_state(final))
    return 0


def _cmd_trace(args) -> int:
    program = _load_program(args.program)
    contract = ContractId.parse(args.contract, window=args.window)
    trace = contract_trace(contract, program, _load_state(args, program), fuel=args.fuel)
    sys.stdout.write(format_trace(trace))
    return 0


def _cmd_hwrun(args) -> int:
    program = _load_program(args.program)
    cfg = _load_config(args)
    h = initial_hw_state(_load_state(args, program), cfg)
    # collected first, so that a run that raises prints nothing
    lines = [f"step 0 dir=- view={adversary_view(h)}"]
    for k, (h, directive) in enumerate(hw_steps(program, h, cfg), start=1):
        if directive[0] == "execute":
            d = f"exec {directive[1]}"
        else:
            d = directive[0]
        lines.append(f"step {k} dir={d} view={adversary_view(h)}")
    print("\n".join(lines))
    sys.stdout.write(format_state(h.sigma))
    return 0


def _cmd_check(args) -> int:
    program = _load_program(args.program)
    fuel = DEFAULT_FUEL if args.fuel is None else args.fuel
    domain = _load_domain(args, _default_domain(args.program))
    if args.what == "ni":
        policy = _load_policy(args)
        if args.countermeasure or args.config:
            semantics = _load_config(args)
        else:
            semantics = ContractId.parse(args.contract or "seq-ct", window=args.window)
        verdict = check_ni(program, policy, semantics, domain, fuel=fuel)
        return _verdict_records(args, verdict, args.dump_states)
    if args.contract is None:
        raise ValueError(f"check {args.what} requires --contract")
    contract = ContractId.parse(args.contract, window=args.window)
    if args.what == "sat":
        verdict = check_contract_satisfaction(program, contract, _load_config(args), domain, fuel=fuel)
    elif args.what == "wsni":
        verdict = check_wsni(program, contract, domain, fuel=fuel)
    else:  # sni
        verdict = check_sni(program, _load_policy(args), contract, domain, fuel=fuel)
    return _verdict_records(args, verdict, args.dump_states)


def _cmd_classify(args) -> int:
    policy = _load_policy(args)
    exit_code = 0
    classify = classify_sandboxing if args.what == "sandbox" else classify_constant_time
    given = _load_domain(args, None)
    for spec in args.programs:
        program = _load_program(spec)
        domain = given or _default_domain(spec)
        row = classify(program, policy, domain, args.window, name=spec, fuel=args.fuel)
        record = {"kind": "row", "program": spec, "vanilla": "Y" if row.vanilla.ok else "N"}
        for cname, text, _verdict in row.cells:
            record[cname] = text
            if text == "N":
                exit_code = 1
        if not row.vanilla.ok:
            exit_code = 1
        _emit(args, record)
    return exit_code


def _cmd_lattice(args) -> int:
    programs = [corpus.load(n) for n in corpus.program_names()]
    if args.random:
        programs += random_programs(args.random, seed=args.seed)
    domain = _load_domain(args, StateDomain(modulus=16, vary=((7, 0, 3), (9, 0, 3))))
    results = check_lattice(programs, domain, args.window, fuel=args.fuel)
    bad = 0
    for edge, witness in results.items():
        if witness is None:
            _emit(args, {"kind": "edge", "edge": edge, "result": "pass"})
        else:
            bad = 1
            _emit(
                args,
                {
                    "kind": "edge",
                    "edge": edge,
                    "result": "witness",
                    "program_index": witness.program_index,
                },
            )
    return bad


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="muspec", description=__doc__)
    parser.add_argument("--format", choices=("plain", "json-lines"), default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, program=True, window=True):
        if program:
            p.add_argument("program", help="program file or corpus name")
        p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
        if window:
            p.add_argument("--window", type=int, default=DEFAULT_SPEC_WINDOW)

    p_run = sub.add_parser("run", help="architectural run")
    common(p_run, window=False)
    p_run.add_argument("--state")
    p_run.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser("trace", help="contract trace")
    common(p_trace)
    p_trace.add_argument("--contract", required=True)
    p_trace.add_argument("--state")
    p_trace.set_defaults(func=_cmd_trace)

    p_hw = sub.add_parser("hwrun", help="hardware run with adversary views")
    common(p_hw, window=False)
    p_hw.add_argument("--state")
    p_hw.add_argument("--config")
    p_hw.add_argument("--countermeasure")
    # without --fuel, the config's fuel applies
    p_hw.set_defaults(func=_cmd_hwrun, fuel=None)

    p_check = sub.add_parser("check", help="decision procedures")
    p_check.add_argument("what", choices=("sat", "ni", "sni", "wsni"))
    common(p_check)
    p_check.add_argument("--contract")
    p_check.add_argument("--countermeasure")
    p_check.add_argument("--config")
    p_check.add_argument("--policy")
    p_check.add_argument("--domain")
    p_check.add_argument("--dump-states", dest="dump_states")
    # without --fuel, a config's fuel applies to its runs
    p_check.set_defaults(func=_cmd_check, fuel=None)

    p_cls = sub.add_parser("classify", help="sandboxing / constant-time tables")
    p_cls.add_argument("what", choices=("sandbox", "ct"))
    p_cls.add_argument("programs", nargs="+")
    common(p_cls, program=False)
    p_cls.add_argument("--policy")
    p_cls.add_argument("--domain")
    p_cls.set_defaults(func=_cmd_classify)

    p_lat = sub.add_parser("lattice", help="contract lattice edge report")
    common(p_lat, program=False)
    p_lat.add_argument("--random", type=int, default=0)
    p_lat.add_argument("--seed", type=int, default=0)
    p_lat.add_argument("--domain")
    p_lat.set_defaults(func=_cmd_lattice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # fuel, deadlock, domain-too-large
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark in bench/ still fits the package: its tracer wraps every
name it lists, its workloads build, both ends of each workload pass their
checks, and a traced round reports no problem. A rename in muspec, or a
refactor that goes round a traced function or drops a view, then fails
here, not in a benchmark run."""
import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import muspec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _attributes(modules) -> dict:
    """Every module-level and class-level attribute, by owner and name."""
    found = {}
    for mod in modules.values():
        for key, value in vars(mod).items():
            found[mod, key] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found.update(((value, k), v) for k, v in vars(value).items())
    return found


def test_benchmark_installs_and_builds_every_workload(monkeypatch):
    tracer_module, workloads = (_load(monkeypatch, name) for name in ("tracer", "workloads"))
    modules = {"muspec": muspec}
    for info in pkgutil.iter_modules(muspec.__path__):
        modules[f"muspec.{info.name}"] = importlib.import_module(f"muspec.{info.name}")
    before = _attributes(modules)
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        m = workloads.Muspec(modules)
        for name, build in workloads.WORKLOADS.items():
            ops = build(m, 1).ops
            for op in (ops[0], ops[-1]):
                assert op.check(op.call())[0], (name, op.name)
    finally:
        tracer.remove()
    assert _attributes(modules) == before
    counts = tracer.snapshot()
    assert counts["states"] > 0 and counts["analysis.check_contract_satisfaction.calls"] > 0


def _traced_round(workload: str) -> dict:
    """One traced round of ``workload``, its metrics by name. run.py checks
    that the traced views are one per hardware step plus one per run, and
    that the traced enumeration yields the states decided."""
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = run.stdout.splitlines()
    assert [line for line in lines if line.startswith(("PROBLEM", "FAILED"))] == []
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_a_traced_paper_suite_round_reports_no_problem():
    metrics = _traced_round("paper-suite")
    assert metrics["pipeline.hw_run.calls"] > 0 and metrics["pipeline.hw_step.calls"] > 0
    # shared contract runs still go through the traced names
    assert metrics["contracts.trace_spec.calls"] > 0 and metrics["contracts.trace_seq.calls"] > 0


@pytest.mark.parametrize("workload", ["lattice", "sat-sweep"])
def test_a_traced_round_where_enumeration_dominates_reports_no_problem(workload):
    # most of these rounds' time is per-state work, so the yield-count rule
    # is checked where a change to the enumeration shows most
    assert _traced_round(workload)["analysis.states"] > 0


def test_verdicts_count_the_states_the_benchmark_rule_counts(monkeypatch):
    # Verdict.states against workloads.states_decided, which works the count
    # out from the domain alone: its size on a pass, else the enumeration
    # position of sigma_prime plus one
    from muspec import analysis, corpus
    from muspec.contracts import ContractId
    from muspec.pipeline import HwConfig

    workloads = _load(monkeypatch, "workloads")
    policy = analysis.Policy(corpus.TABLE_POLICY_LOW)
    kinds = Counter()
    for name in corpus.program_names():
        program = corpus.load(name)
        domain = analysis.StateDomain(modulus=16, vary=corpus.default_vary(name) + ((5, 0, 2),))
        checks = [(f"ni[{c}]", policy, ContractId.parse(c, 7)) for c in ("seq-arch", "spec-ct", "bot-inf")]
        checks += [
            (f"sat[{cm}]", ContractId.parse("seq-ct", 7), HwConfig(countermeasure=cm, predictor="twobit"))
            for cm in ("none", "loaddelay", "tt")
        ]
        for verdict in analysis.decide(program, domain, checks):
            assert verdict.states == workloads.states_decided(verdict, domain), (name, verdict.check)
            kinds[verdict.ok] += 1
            # the count is no part of the verdict
            assert verdict == replace(verdict, states=verdict.states + 1)
    assert kinds[True] and kinds[False]

"""Out-of-order speculative hardware semantics: fetch/execute/retire
micro-steps, the top-level step rule, runs, and the adversary view.

A hardware state is the architectural state plus a labeled reorder buffer
and the cache / branch predictor / scheduler component states.  Stages
communicate through plain (unlabeled) command tuples; the configured
countermeasure decides what a stage may see (unlabel) and how the result
is retainted (relabel).
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator, Tuple

from . import countermeasures as cm
from .arch import DEFAULT_FUEL, ArchState, FuelExhausted, share_runs
from .isa import (
    BOTTOM,
    DEFAULT_MODULUS,
    PC,
    Assign,
    Barrier,
    Beqz,
    CondAssign,
    Ite,
    Jmp,
    Load,
    Program,
    Reg,
    Skip,
    Store,
    eval_expr,
    is_value,
    text_lines,
)
from .uarch import (
    PREDICTORS,
    SCHEDULERS,
    apply_buffer,
    buf_project,
    cmd_assign,
    cmd_barrier,
    cmd_load,
    cmd_skip,
    cmd_store,
    make_cache,
    make_predictor,
    make_scheduler,
)

STUCK = object()  # stage outcome: no rule applies for the directive

DEFAULT_BUFFER_SIZE = 5


class DeadlockError(Exception):
    """No directive made progress for a full rotation of candidates."""


@dataclass(frozen=True)
class HwConfig:
    buffer_size: int = DEFAULT_BUFFER_SIZE
    cache: str = "lru:4"
    predictor: str = "fallthrough"
    scheduler: str = "ooo"
    countermeasure: str = "none"
    fuel: int = DEFAULT_FUEL
    modulus: int = DEFAULT_MODULUS

    def __post_init__(self):
        if self.countermeasure not in cm.COUNTERMEASURES:
            raise ValueError(f"unknown countermeasure {self.countermeasure!r}")
        if self.predictor not in PREDICTORS:
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.buffer_size < 2:
            raise ValueError(f"buffer_size must be >= 2, got {self.buffer_size}")
        if self.fuel < 1:
            raise ValueError(f"fuel must be >= 1, got {self.fuel}")
        if self.modulus < 2 or self.modulus & (self.modulus - 1):
            raise ValueError(f"modulus must be a power of two >= 2, got {self.modulus}")
        make_cache(self.cache)
        if self.countermeasure == "seq" and self.scheduler != "seq":
            object.__setattr__(self, "scheduler", "seq")

    @staticmethod
    def parse(text: str) -> "HwConfig":
        """Config file: `key = value` lines, # comments; each key a field, given once."""
        types = {f.name: f.type for f in fields(HwConfig)}  # "int" or "str"
        values = {}
        for lineno, line in text_lines(text):
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"config line {lineno}: {key} given twice")
            if types[key] == "int":
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ValueError(f"config line {lineno}: expected an integer {key}") from None
            else:
                values[key] = value
        return HwConfig(**values)


@dataclass(frozen=True)
class HwState:
    sigma: ArchState
    buf: tuple  # ((command, label), ...)
    cs: object
    bp: object
    sc: object

    def is_final(self) -> bool:
        return not self.buf and self.sigma.regs[PC] is BOTTOM


def initial_hw_state(sigma: ArchState, cfg: HwConfig) -> HwState:
    return HwState(
        sigma=sigma,
        buf=(),
        cs=make_cache(cfg.cache),
        bp=make_predictor(cfg.predictor),
        sc=make_scheduler(cfg.scheduler, cfg.buffer_size),
    )


# ---------------------------------------------------------------------------
# Stages. Each takes plain command tuples and returns
# (sigma, buf, cs, bp) or STUCK; only retire changes sigma.


def _instr_commands(ins) -> tuple:
    """Buffer entry for a fetched non-control instruction."""
    if isinstance(ins, Skip):
        return cmd_skip()
    if isinstance(ins, Barrier):
        return cmd_barrier()
    if isinstance(ins, Assign):
        return cmd_assign(ins.target, ins.expr)
    if isinstance(ins, CondAssign):
        # generic non-transmit form: keep the old value unless the guard is 0
        return cmd_assign(ins.target, Ite(ins.guard, Reg(ins.target), ins.expr))
    if isinstance(ins, Load):
        return cmd_load(ins.target, ins.addr)
    if isinstance(ins, Store):
        return cmd_store(Reg(ins.src), ins.addr)
    raise TypeError(f"not fetchable as a plain instruction: {ins!r}")


def fetch_step(p: Program, sigma: ArchState, buf, cs, bp, mu_w: int):
    a = apply_buffer(buf, sigma.regs)
    pc = a[PC]
    if pc is BOTTOM:
        return STUCK
    if len(buf) >= mu_w:
        return STUCK
    hit = cs.access(pc)
    cs2 = cs.update(pc)
    if not hit:
        return (sigma, buf, cs2, bp)
    ins = p.lookup(pc)
    if isinstance(ins, Beqz):
        predicted = bp.predict(pc, ins.target)
        return (sigma, buf + (cmd_assign(PC, predicted, tag=pc),), cs2, bp)
    if isinstance(ins, Jmp):
        return (sigma, buf + (cmd_assign(PC, ins.target),), cs2, bp)
    if ins is None:
        # no instruction at pc: the program is over on this path
        return (sigma, buf + (cmd_assign(PC, BOTTOM),), cs2, bp)
    if len(buf) >= mu_w - 1:
        return STUCK
    entry = _instr_commands(ins)
    marked = cmd_assign(PC, pc + 1, marked=True)
    return (sigma, buf + (entry, marked), cs2, bp)


def execute_step(p: Program, sigma: ArchState, buf, cs, bp, i: int, modulus: int):
    if not 1 <= i <= len(buf):
        return STUCK
    prefix, entry, suffix = buf[: i - 1], buf[i - 1], buf[i:]
    kind, A, B, tag, marked = entry
    if kind in ("skip", "barrier"):
        return (sigma, buf, cs, bp)
    if any(c[0] == "barrier" for c in prefix):
        return STUCK
    a = apply_buffer(prefix, sigma.regs)

    if kind == "load":
        if A == PC or any(c[0] == "store" for c in prefix):
            return STUCK
        n = B if is_value(B) else eval_expr(B, a, partial=True, modulus=modulus)
        if n is BOTTOM:
            return STUCK
        hit = cs.access(n)
        cs2 = cs.update(n)
        if not hit:
            return (sigma, buf, cs2, bp)
        loaded = cmd_assign(A, sigma.read_mem(n), tag)
        return (sigma, prefix + (loaded,) + suffix, cs2, bp)

    if kind == "assign" and tag is not None:
        # branch resolution: tag is the branch address
        ins0 = p.lookup(tag)
        if not isinstance(ins0, Beqz):
            return STUCK
        guard = a.get(ins0.guard, BOTTOM)
        if guard is BOTTOM:
            return STUCK
        correct = ins0.target if guard == 0 else tag + 1
        if B == correct:
            resolved = cmd_assign(PC, B)
            return (sigma, prefix + (resolved,) + suffix, cs, bp.update(tag, B, ins0.target))
        corrected = cmd_assign(PC, correct)
        return (sigma, prefix + (corrected,), cs, bp.update(tag, correct, ins0.target))

    if kind == "assign":
        v = B if is_value(B) else eval_expr(B, a, partial=True, modulus=modulus)
        if v is BOTTOM:
            return STUCK
        resolved = cmd_assign(A, v, None, marked)
        return (sigma, prefix + (resolved,) + suffix, cs, bp)

    if kind == "store":
        v = A if is_value(A) else eval_expr(A, a, partial=True, modulus=modulus)
        n = B if is_value(B) else eval_expr(B, a, partial=True, modulus=modulus)
        if v is BOTTOM or n is BOTTOM:
            return STUCK
        return (sigma, prefix + (cmd_store(v, n, tag),) + suffix, cs, bp)

    return STUCK


def retire_step(sigma: ArchState, buf, cs, bp):
    if not buf:
        return STUCK
    kind, A, B, tag, _marked = buf[0]
    if tag is not None:
        return STUCK
    rest = buf[1:]
    if kind in ("skip", "barrier"):
        return (sigma, rest, cs, bp)
    if kind == "assign":
        if not is_value(B):
            return STUCK
        return (sigma.with_regs(**{A: B}), rest, cs, bp)
    if kind == "store":
        if not (isinstance(A, int) and isinstance(B, int)):
            return STUCK
        return (sigma.with_mem(B, A), rest, cs.update(B), bp)
    return STUCK


def hw_step(p: Program, h: HwState, cfg: HwConfig) -> Tuple[HwState, tuple, bool]:
    """One top-level step: query the scheduler, run the stage through the
    countermeasure wrappers, relabel, update the scheduler.

    Returns (new state, directive, stage_progressed). A stuck stage is a
    delay: the buffer and architectural state stay put while the scheduler
    state still advances, so a later step can pick a different directive.
    """
    directive = h.sc.next()
    plain = cm.unlabel(cfg.countermeasure, h.buf, directive)
    if plain is None:  # the countermeasure holds the directive back
        result = STUCK
    elif directive[0] == "fetch":
        result = fetch_step(p, h.sigma, plain, h.cs, h.bp, cfg.buffer_size)
    elif directive[0] == "execute":
        result = execute_step(p, h.sigma, plain, h.cs, h.bp, directive[1], cfg.modulus)
    else:
        result = retire_step(h.sigma, plain, h.cs, h.bp)

    if result is STUCK:
        sigma, new_buf, cs2, bp2 = h.sigma, h.buf, h.cs, h.bp
        progressed = False
    else:
        sigma, buf_plain, cs2, bp2 = result
        new_buf = cm.relabel(buf_plain, h.buf, directive, cfg.countermeasure)
        progressed = True

    sc2 = h.sc.update(buf_project(new_buf))
    return HwState(sigma, new_buf, cs2, bp2, sc2), directive, progressed


def adversary_view(h: HwState) -> tuple:
    """What the microarchitectural adversary sees: the data-independent
    buffer projection (the scheduler's, always ``buf_project(h.buf)``)
    plus cache, predictor, and scheduler state."""
    return (h.sc.proj, h.cs.key(), h.bp.key(), h.sc.key())


def hw_steps(
    p: Program, h: HwState, cfg: HwConfig, steps: int = 0, idle: int = 0, starts: dict = None
) -> Iterator[Tuple[HwState, tuple]]:
    """Step from ``h`` to the final hardware state, yielding each new state
    with the directive that produced it.

    A resumed run passes the step count and the idle counter it stopped at,
    so fuel and deadlock count from the start of the run. ``starts``, if
    given, maps each watched cell first read to ``(h, steps, idle)`` just
    before the step that read it: a point to resume from.
    """
    idle_limit = 4 * (cfg.buffer_size + 3)
    reads = h.sigma.reads if starts is not None else {}
    for steps in range(steps, cfg.fuel):
        if h.is_final():
            return
        n = len(reads)
        h2, directive, progressed = hw_step(p, h, cfg)
        if len(reads) > n:
            for cell in list(reads)[n:]:
                starts[cell] = (h, steps, idle)
        # only retire changes sigma, and a retire that progresses shortens the buffer
        changed = progressed and (h2.buf != h.buf or h2.cs != h.cs or h2.bp != h.bp)
        idle = 0 if changed else idle + 1
        if idle > idle_limit:
            raise DeadlockError(
                f"no progress after {idle} steps; last directive {directive}"
            )
        yield h2, directive
        h = h2
    raise FuelExhausted(f"no final hardware state within {cfg.fuel} steps")


def hw_run(
    p: Program,
    sigma: ArchState,
    cfg: HwConfig,
    start: tuple = None,
    starts: dict = None,
) -> Tuple[tuple, HwState]:
    """Run to the final hardware state collecting the adversary trace
    (one view per state, the initial one included).

    ``start``, a point ``(h, steps, idle)`` that an earlier run of the same
    program put in its ``starts`` (see hw_steps), resumes that run for
    ``sigma`` instead: ``h`` takes sigma's values in the cells not read yet,
    and the trace begins with the view of ``h``.
    """
    if start is None:
        h, steps, idle = initial_hw_state(sigma, cfg), 0, 0
    else:
        h, steps, idle = start
        h = HwState(h.sigma.resumed(sigma), h.buf, h.cs, h.bp, h.sc)
    views = [adversary_view(h)]
    for h, _directive in hw_steps(p, h, cfg, steps, idle, starts):
        views.append(adversary_view(h))
    return tuple(views), h


def hw_tracer(cfg: HwConfig, p: Program, domain):
    """``cfg``'s adversary-trace function on ``domain``'s states, run once
    per distinct read of the domain's varying cells. Runs take the domain's
    modulus and keep ``cfg``'s fuel."""
    cfg = replace(cfg, modulus=domain.modulus)

    def run(sigma, start):
        # a resume point is hw_run's (h, steps, idle) with the trace before h
        point, prefix = start or (None, ())
        starts = {}
        trace = prefix + hw_run(p, sigma, cfg, point, starts)[0]
        return trace, {cell: (at, trace[: at[1]]) for cell, at in starts.items()}

    return share_runs(run, (a for a, *_ in domain.vary))

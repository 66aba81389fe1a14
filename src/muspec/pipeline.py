"""Out-of-order speculative hardware semantics: fetch/execute/retire
micro-steps, the top-level step rule, runs, and the adversary view.

A hardware state is the architectural state plus a reorder buffer, kept as
a tuple of plain commands beside a parallel tuple of taint labels and their
data-independent projection, and the cache / branch predictor / scheduler
component states.  The scheduler picks each directive from the state's
projection, and the adversary view shows it.  A stage sees the commands
the configured countermeasure lets it see (unlabel) and returns an edit of
the buffer, ``(lo, hi, new)``: entries lo..hi-1 are replaced by the
commands ``new``.  ``hw_step`` applies the edit once, to the commands, to
their labels (relabel) and to the projection; an empty edit keeps all
three objects, and so does every component a step leaves alone.
A run whose varying cells are watched loads deferred values
(``ArchState.load``). An expression over one is deferred too; a step
forces one only where it needs a natural: a load or store address, store
data, a value assigned to the pc, or a branch guard's zero test.
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
    force,
    is_modulus,
    is_value,
    is_zero,
    text_lines,
)
from .uarch import (
    apply_buffer,
    blocked,
    buf_project,
    cmd_assign,
    cmd_barrier,
    cmd_load,
    cmd_skip,
    cmd_store,
    executable,
    make_cache,
    make_predictor,
    make_scheduler,
    may_fetch,
    project_entry,
    retire_ready,
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
        make_predictor(self.predictor)
        make_scheduler(self.scheduler, self.buffer_size)
        if self.buffer_size < 2:
            raise ValueError(f"buffer_size must be >= 2, got {self.buffer_size}")
        if self.fuel < 1:
            raise ValueError(f"fuel must be >= 1, got {self.fuel}")
        if not is_modulus(self.modulus):
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


@dataclass(slots=True)
class HwState:
    sigma: ArchState
    buf: tuple  # (command, ...)
    labels: tuple  # a taint label per command, EMPTY outside taint tracking
    proj: tuple  # always buf_project(zip(buf, labels))
    cs: object
    bp: object
    sc: object

    def is_final(self) -> bool:
        return not self.buf and self.sigma.regs[PC] is BOTTOM


def initial_hw_state(sigma: ArchState, cfg: HwConfig) -> HwState:
    return HwState(
        sigma=sigma,
        buf=(),
        labels=(),
        proj=(),
        cs=make_cache(cfg.cache),
        bp=make_predictor(cfg.predictor),
        sc=make_scheduler(cfg.scheduler, cfg.buffer_size),
    )


# ---------------------------------------------------------------------------
# Stages. Each takes plain command tuples and returns
# (sigma, (lo, hi, new), cs, bp) or STUCK: the buffer edit replaces entries
# lo..hi-1 with the commands new. Only retire changes sigma. Each is stuck
# where the buffer's ordering rules (uarch) rule its directive out, and
# otherwise only on what they do not read: an undefined operand or pc, or
# a two-entry fetch into the last free slot.

KEEP = (0, 0, ())  # a cache miss, or the execute of a skip or a barrier
DROP_HEAD = (0, 1, ())  # a retire


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
    if not may_fetch(buf, mu_w):
        return STUCK
    pc = sigma.regs[PC]
    for kind, x, payload, _tag, _marked in buf:
        if kind == "assign" and x == PC:  # resolved (may_fetch); the youngest is the pc
            pc = payload
    if pc is BOTTOM:  # the program is over
        return STUCK
    hit = cs.access(pc)
    cs2 = cs.update(pc)
    if not hit:
        return (sigma, KEEP, cs2, bp)
    ins = p.lookup(pc)
    if isinstance(ins, Beqz):
        new = (cmd_assign(PC, bp.predict(pc, ins.target), tag=pc),)
    elif isinstance(ins, Jmp):
        new = (cmd_assign(PC, ins.target),)
    elif ins is None:
        # no instruction at pc: the program is over on this path
        new = (cmd_assign(PC, BOTTOM),)
    elif len(buf) >= mu_w - 1:
        return STUCK
    else:
        new = (_instr_commands(ins), cmd_assign(PC, pc + 1, marked=True))
    return (sigma, (len(buf), len(buf), new), cs2, bp)


def _forced(payload, a, modulus: int):
    """A load or store operand's value. The step uses it, so a deferred
    value is forced."""
    return force(payload if is_value(payload) else eval_expr(payload, a, partial=True, modulus=modulus))


def execute_step(p: Program, sigma: ArchState, buf, cs, bp, i: int, modulus: int):
    if not 1 <= i <= len(buf):
        return STUCK
    kind, A, B, tag, marked = entry = buf[i - 1]
    if kind in ("skip", "barrier"):
        return (sigma, KEEP, cs, bp)
    if not executable(entry) or blocked(buf, i):
        return STUCK
    a = apply_buffer(buf[: i - 1], sigma.regs)

    if kind == "load":
        n = _forced(B, a, modulus)
        if n is BOTTOM:
            return STUCK
        hit = cs.access(n)
        cs2 = cs.update(n)
        if not hit:
            return (sigma, KEEP, cs2, bp)
        return (sigma, (i - 1, i, (cmd_assign(A, sigma.load(n)),)), cs2, bp)

    if kind == "assign" and tag is not None:
        # branch resolution: tag is the branch address
        ins0 = p.lookup(tag)
        if not isinstance(ins0, Beqz):
            return STUCK
        guard = a.get(ins0.guard, BOTTOM)
        if guard is BOTTOM:
            return STUCK
        correct = ins0.target if is_zero(guard, modulus) else tag + 1
        hi = i if B == correct else len(buf)  # a misprediction squashes every later entry
        return (sigma, (i - 1, hi, (cmd_assign(PC, correct),)), cs, bp.update(tag, correct, ins0.target))

    if kind == "assign":
        v = eval_expr(B, a, partial=True, modulus=modulus)
        if v is BOTTOM:
            return STUCK
        if A == PC:  # a jmp target: fetch reads the pc
            v = force(v)
        return (sigma, (i - 1, i, (cmd_assign(A, v, None, marked),)), cs, bp)

    v = _forced(A, a, modulus)  # a store
    n = _forced(B, a, modulus)
    if v is BOTTOM or n is BOTTOM:
        return STUCK
    return (sigma, (i - 1, i, (cmd_store(v, n),)), cs, bp)


def retire_step(sigma: ArchState, buf, cs, bp):
    if not buf or not retire_ready(buf[0]):
        return STUCK
    kind, A, B, _tag, _marked = buf[0]
    if kind == "assign":
        return (sigma.with_reg(A, B), DROP_HEAD, cs, bp)
    if kind == "store":
        return (sigma.with_mem(B, A), DROP_HEAD, cs.update(B), bp)
    return (sigma, DROP_HEAD, cs, bp)


def hw_step(p: Program, h: HwState, cfg: HwConfig) -> Tuple[HwState, tuple, bool]:
    """One top-level step: query the scheduler, run the stage through the
    countermeasure wrappers, apply its edit to the commands, the labels and
    the projection, update the scheduler.

    Returns (new state, directive, stage_progressed). A stuck stage is a
    delay: the buffer and architectural state stay put while the scheduler
    state still advances, so a later step can pick a different directive.
    """
    directive = h.sc.next(h.proj)
    plain = cm.unlabel(cfg.countermeasure, h.buf, h.labels, directive)
    if plain is None:  # the countermeasure holds the directive back
        result = STUCK
    elif directive[0] == "fetch":
        result = fetch_step(p, h.sigma, plain, h.cs, h.bp, cfg.buffer_size)
    elif directive[0] == "execute":
        result = execute_step(p, h.sigma, plain, h.cs, h.bp, directive[1], cfg.modulus)
    else:
        result = retire_step(h.sigma, plain, h.cs, h.bp)

    progressed = result is not STUCK
    sigma, (lo, hi, new), cs2, bp2 = result if progressed else (h.sigma, KEEP, h.cs, h.bp)
    if lo == hi and not new:  # the buffer, its labels and its projection stay put
        return HwState(sigma, h.buf, h.labels, h.proj, cs2, bp2, h.sc.update(h.proj, h.proj)), directive, progressed
    buf = h.buf[:lo] + new + h.buf[hi:]
    labels = cm.relabel(h.buf, h.labels, lo, hi, new, directive, cfg.countermeasure)
    end = lo + len(new)
    if labels[end:] == h.labels[hi:]:
        proj = h.proj[:lo] + tuple(map(project_entry, new, labels[lo:end])) + h.proj[hi:]
    else:  # a taint retire or a commit moved a later label
        proj = buf_project(zip(buf, labels))
    return HwState(sigma, buf, labels, proj, cs2, bp2, h.sc.update(h.proj, proj)), directive, progressed


def adversary_view(h: HwState) -> tuple:
    """What the microarchitectural adversary sees: the data-independent
    buffer projection plus cache, predictor, and scheduler state."""
    return (h.proj, h.cs.key(), h.bp.key(), h.sc.key(h.proj))


def hw_steps(
    p: Program, h: HwState, cfg: HwConfig, steps: int = 0, idle: int = 0, starts: dict = None
) -> Iterator[Tuple[HwState, tuple]]:
    """Step from ``h`` to the final hardware state, yielding each new state
    with the directive that produced it.

    A resumed run passes the step count and the idle counter it stopped at,
    so fuel and deadlock count from the start of the run. ``starts``, if
    given, maps each term a step logged in the reads of a watched run to
    ``(h, steps, idle)`` just before that step: a point to resume from.
    """
    idle_limit = 4 * (cfg.buffer_size + 3)
    reads = h.sigma.reads if starts is not None else {}
    for steps in range(steps, cfg.fuel):
        if h.is_final():
            return
        n = len(reads)
        h2, directive, progressed = hw_step(p, h, cfg)
        if len(reads) > n:
            for term in list(reads)[n:]:
                starts[term] = (h, steps, idle)
        # only retire changes sigma, and a retire that progresses shortens the
        # buffer; labels change only with the commands
        changed = progressed and (
            h2.buf is not h.buf and h2.buf != h.buf
            or h2.cs is not h.cs and h2.cs != h.cs
            or h2.bp is not h.bp and h2.bp != h.bp
        )
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
    and the trace begins with the view of ``h``. Deferred values in h's
    buffer and registers are rebound to sigma.
    """
    if start is None:
        h, steps, idle = initial_hw_state(sigma, cfg), 0, 0
    else:
        h, steps, idle = start
        buf = tuple((kind, a, sigma.rebound(b), tag, marked) for kind, a, b, tag, marked in h.buf)
        h = HwState(h.sigma.resumed(sigma), buf, h.labels, h.proj, h.cs, h.bp, h.sc)
    views = [adversary_view(h)]
    for h, _directive in hw_steps(p, h, cfg, steps, idle, starts):
        views.append(adversary_view(h))
    return tuple(views), h


def hw_tracer(cfg: HwConfig, p: Program, domain):
    """``cfg``'s adversary-trace function on ``domain``'s states, run once
    per distinct path of term values over the domain's varying cells. Runs
    take the domain's modulus and keep ``cfg``'s fuel."""
    cfg = replace(cfg, modulus=domain.modulus)

    def run(sigma, start):
        # a resume point is hw_run's (h, steps, idle) with the trace before h
        point, prefix = start or (None, ())
        starts = {}
        trace = prefix + hw_run(p, sigma, cfg, point, starts)[0]
        return trace, {term: (at, trace[: at[1]]) for term, at in starts.items()}

    return share_runs(run, (a for a, *_ in domain.vary))

"""Span tracing of muspec's layers from outside the package.

The tracer replaces public functions and methods of the muspec modules
with wrappers that record one span per call: name, start, end and the
span that was open when the call began. Spans stay in memory, in flat
arrays, until the per-layer metrics are computed at the end. A function
called from itself (``eval_expr`` recurses) records only the outermost
call, so its span covers the whole evaluation once.

A span's name is ``<module>.<function>``; the module is the layer. Self
time is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import time
from array import array

# (module, attribute, span name); a dotted attribute is a method.
FUNCTIONS = (
    ("analysis", "check_contract_satisfaction", "analysis.check_contract_satisfaction"),
    ("analysis", "check_ni", "analysis.check_ni"),
    ("analysis", "check_wsni", "analysis.check_wsni"),
    ("analysis", "check_sni", "analysis.check_sni"),
    ("analysis", "classify_sandboxing", "analysis.classify_sandboxing"),
    ("analysis", "classify_constant_time", "analysis.classify_constant_time"),
    ("analysis", "check_lattice", "analysis.check_lattice"),
    ("contracts", "trace_seq", "contracts.trace_seq"),
    ("contracts", "trace_spec", "contracts.trace_spec"),
    ("contracts", "trace_degenerate", "contracts.trace_degenerate"),
    ("arch", "arch_step", "arch.arch_step"),
    ("isa", "eval_expr", "isa.eval_expr"),
    ("isa", "parse_program", "isa.parse_program"),
    ("pipeline", "hw_run", "pipeline.hw_run"),
    ("pipeline", "hw_step", "pipeline.hw_step"),
    ("pipeline", "fetch_step", "pipeline.fetch_step"),
    ("pipeline", "execute_step", "pipeline.execute_step"),
    ("pipeline", "retire_step", "pipeline.retire_step"),
    ("pipeline", "adversary_view", "pipeline.adversary_view"),
    ("uarch", "buf_project", "uarch.buf_project"),
    ("uarch", "apply_buffer", "uarch.apply_buffer"),
    ("uarch", "SequentialScheduler.next", "uarch.sched_next"),
    ("uarch", "OooScheduler.next", "uarch.sched_next"),
    ("uarch", "SequentialScheduler.update", "uarch.sched_update"),
    ("uarch", "OooScheduler.update", "uarch.sched_update"),
    ("uarch", "LruCache.access", "uarch.cache_access"),
    ("uarch", "DirectCache.access", "uarch.cache_access"),
    ("uarch", "FallthroughPredictor.update", "uarch.predictor_update"),
    ("uarch", "BackwardTakenPredictor.update", "uarch.predictor_update"),
    ("uarch", "TwoBitPredictor.update", "uarch.predictor_update"),
    ("countermeasures", "tt_unlabel", "countermeasures.unlabel"),
    ("countermeasures", "nda_unlabel", "countermeasures.unlabel"),
    ("countermeasures", "relabel", "countermeasures.relabel"),
    ("countermeasures", "loaddelay_guard", "countermeasures.loaddelay_guard"),
)

# StateDomain.initial_states is a generator: each resumption is one span.
GENERATOR = ("analysis", "StateDomain.initial_states", "analysis.initial_states")

COUNTERS = (
    "enumerations", "states", "stalled_steps", "squashes", "views", "cache_hits",
    "loaddelay_denials", "obs",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = []  # per span name, counted as spans are opened
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.on = True
        self._stack = []  # indexes of open spans
        self._open = []  # span names of open spans, parallel to _stack
        self._restore = []  # (owner, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    # -- installing ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every traced function in every muspec module that refers to
        it (``from .isa import eval_expr`` makes a second reference)."""
        hooks = {
            "pipeline.hw_step": self._on_hw_step,
            "pipeline.hw_run": self._on_hw_run,
            "uarch.cache_access": self._on_cache_access,
            "countermeasures.loaddelay_guard": self._on_loaddelay_guard,
            "contracts.trace_seq": self._on_trace,
            "contracts.trace_spec": self._on_trace,
            "contracts.trace_degenerate": self._on_trace,
        }
        for module, attr, name in FUNCTIONS:
            owner, fn = self._resolve(modules, module, attr)
            wrapper = self._wrap(fn, self._name_id(name), hooks.get(name))
            if owner is not None:
                self._patch(owner, attr.split(".")[1], wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        module, attr, name = GENERATOR
        owner, fn = self._resolve(modules, module, attr)
        self._patch(owner, attr.split(".")[1], self._wrap_generator(fn, self._name_id(name)))

    @staticmethod
    def _resolve(modules, module, attr):
        mod = modules[f"muspec.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            return cls, vars(cls)[meth]
        return None, getattr(mod, attr)

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def remove(self) -> None:
        """Put every original back, most recent patch first."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, sid, hook):
        tracer = self
        stack, open_sids, calls = self._stack, self._open, self.calls
        sids, parents, starts, ends = self.sid, self.parent, self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on or (open_sids and open_sids[-1] == sid):
                return fn(*args, **kwargs)
            idx = len(sids)
            sids.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            calls[sid] += 1
            stack.append(idx)
            open_sids.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_sids.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, sid):
        tracer = self
        stack, calls, counters = self._stack, self.calls, self.counters
        sids, parents, starts, ends = self.sid, self.parent, self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.on:
                yield from gen
                return
            counters["enumerations"] += 1
            while True:
                idx = len(sids)
                sids.append(sid)
                parents.append(stack[-1] if stack else -1)
                calls[sid] += 1
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    starts.append(t0)
                    ends.append(clock())
                counters["states"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counting hooks -------------------------------------------------------

    def _on_hw_step(self, args, result):
        h = args[1]
        h2, directive, progressed = result
        if not progressed:
            self.counters["stalled_steps"] += 1
        elif directive[0] == "execute" and len(h2.buf) < len(h.buf):
            self.counters["squashes"] += 1

    def _on_hw_run(self, args, result):
        self.counters["views"] += len(result[0])

    def _on_cache_access(self, args, result):
        if result:
            self.counters["cache_hits"] += 1

    def _on_loaddelay_guard(self, args, result):
        if not result:
            self.counters["loaddelay_denials"] += 1

    def _on_trace(self, args, result):
        self.counters["obs"] += len(result)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every count so far, for comparing rounds."""
        counts = dict(self.counters)
        counts.update((f"{name}.calls", n) for name, n in zip(self.names, self.calls))
        return counts

    def span_totals(self, lo: int, hi: int) -> tuple:
        """Per span name, over spans lo..hi-1: (total duration, self time).
        Spans never straddle lo, because it is taken with no span open."""
        child = array("d", bytes(8 * (hi - lo)))
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p - lo] += self.end[i] - self.start[i]
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for i in range(lo, hi):
            s, d = self.sid[i], self.end[i] - self.start[i]
            total[s] += d
            self_time[s] += d - child[i - lo]
        return dict(zip(self.names, total)), dict(zip(self.names, self_time))

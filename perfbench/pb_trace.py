"""Spans around calls into the program's layers, from outside it.

:func:`install` wraps public functions of each layer (and the rule
bodies the runtime calls) so that every call records a span: name,
layer, start, end, parent span and the tuning session it belongs to.
Spans stay in memory; :meth:`Tracer.write_chrome` writes them once, as
Chrome trace-event JSON, and :func:`layer_metrics` folds them
into the per-layer metrics.  A layer's self time is its span time
minus the time its child spans cover.

Rule bodies run thousands of times per simulation, so they are not
kept as spans: their time is charged to the enclosing span as child
time and summed per layer.  Wrappers called in another process (a
forked pool worker) pass straight through: the workers' spans would be
out of reach, so only the parent side is traced.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclasses.dataclass
class Span:
    span_id: int
    parent: int
    session: str
    layer: str
    name: str
    tid: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = True
        self.spans: List[Span] = []
        self.body_s: Dict[str, float] = {}
        self.frames: List[Tuple[int, float, bool]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._session = ""

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def begin(self, layer: str, name: str) -> Span:
        stack = self._stack()
        span = Span(
            span_id=next(self._ids),
            parent=stack[-1].span_id if stack else 0,
            session=self._session,
            layer=layer,
            name=name,
            tid=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration
        with self._lock:
            self.spans.append(span)

    def charge_body(self, layer: str, seconds: float) -> None:
        """Account an unrecorded leaf call (a rule body)."""
        stack = self._stack()
        if stack:
            stack[-1].child_s += seconds
        with self._lock:
            self.body_s[layer] = self.body_s.get(layer, 0.0) + seconds

    def session(self, name: str) -> "_SessionScope":
        """Scope under which new spans carry session id ``name``."""
        return _SessionScope(self, name)

    def wrap(self, fn: Callable, layer: str, name: str,
             on_result: Optional[Callable[[Span, Any], None]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            span = tracer.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(span, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- patching -------------------------------------------------------

    def replace_function(self, module_name: str, attr: str, layer: str,
                         name: str, on_result=None) -> None:
        """Wrap ``module.attr`` and every other module-level binding of
        the same function object (``from m import f`` copies)."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(original, layer, name, on_result)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapped)

    def replace_method(self, cls: type, attr: str, layer: str, name: str,
                       on_result=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, layer, name, on_result))

    # -- output ---------------------------------------------------------

    def write_chrome(self, path: str) -> None:
        """All spans as Chrome trace-event JSON (``chrome://tracing``)."""
        events = []
        origin = min((span.start for span in self.spans), default=0.0)
        for span in self.spans:
            args = {"id": span.span_id, "parent": span.parent,
                    "session": span.session, "self_us": span.self_s * 1e6}
            if span.info:
                args.update(span.info)
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": (span.start - origin) * 1e6, "dur": span.duration * 1e6,
                "pid": self.pid, "tid": span.tid, "args": args,
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_time(self, layer: str) -> float:
        return sum(span.self_s for span in self.spans if span.layer == layer)


class _SessionScope:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._previous = ""

    def __enter__(self) -> None:
        self._previous = self._tracer._session
        self._tracer._session = self._name

    def __exit__(self, *exc_info) -> None:
        self._tracer._session = self._previous


# -- the layers ---------------------------------------------------------

_APP_MODULES = (
    "blackscholes", "poisson2d", "separable_convolution", "sort",
    "strassen", "svd", "tridiagonal",
)


def _record_run(span: Span, result: Any) -> None:
    stats = result.stats
    span.info = {
        "tasks": stats.tasks_executed + stats.gpu_tasks_executed,
        "steals": stats.steals,
    }


def _record_compute(span: Span, result: Any) -> None:
    span.info = {"miss": span.child_s > 0.0}


def _install_rule_bodies(tracer: Tracer) -> None:
    """Time every rule body (and the ``combine`` continuations its
    ``Spawn`` results carry) without keeping a span per call."""
    from repro.lang.rule import Rule
    from repro.lang.spawn import Spawn

    wrapped: Dict[int, Callable] = {}

    def timed(fn: Callable) -> Callable:
        key = id(fn)
        cached = wrapped.get(key)
        if cached is not None and cached.__perfbench_original__ is fn:
            return cached

        @functools.wraps(fn)
        def body(ctx):
            if not tracer.active():
                return fn(ctx)
            start = time.perf_counter()
            try:
                result = fn(ctx)
            finally:
                tracer.charge_body("lang", time.perf_counter() - start)
            if isinstance(result, Spawn) and result.combine is not None:
                result = dataclasses.replace(result, combine=timed(result.combine))
            return result

        body.__perfbench_original__ = fn
        wrapped[key] = body
        return body

    def get_body(rule):
        return timed(rule.__dict__["body"])

    def set_body(rule, value):
        rule.__dict__["body"] = getattr(value, "__perfbench_original__", value)

    # A data descriptor on the class takes precedence over the
    # instance attribute the frozen dataclass stores, so every rule,
    # including ones built after this point, hands out a timed body.
    Rule.body = property(get_body, set_body)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer, for the rest
    of the process."""
    import repro.apps  # noqa: F401  (registers the app modules)
    import repro.cluster.protocol
    import repro.compiler.compile
    import repro.runtime.executor
    from repro.core.backends import ProcessEvaluator
    from repro.core.driver import TuningDriver
    from repro.core.fitness import Evaluator
    from repro.core.strategies.evolutionary import EvolutionaryStrategy
    from repro.service.client import ServiceClient

    tracer.replace_function(
        "repro.compiler.compile", "compile_program", "compiler", "compile_program"
    )
    for module in _APP_MODULES:
        __import__(f"repro.apps.{module}")
        tracer.replace_function(f"repro.apps.{module}", "make_env", "apps", "make_env")
    tracer.replace_function(
        "repro.runtime.executor", "run_program", "runtime", "run_program",
        _record_run,
    )
    _install_rule_bodies(tracer)
    tracer.replace_method(Evaluator, "compute", "fitness", "Evaluator.compute",
                          _record_compute)
    tracer.replace_method(Evaluator, "evaluate", "fitness", "Evaluator.evaluate")
    tracer.replace_method(ProcessEvaluator, "evaluate", "backend",
                          "ProcessEvaluator.evaluate")
    tracer.replace_method(EvolutionaryStrategy, "propose", "strategy", "propose")
    tracer.replace_method(EvolutionaryStrategy, "observe", "strategy", "observe")
    tracer.replace_method(TuningDriver, "run", "driver", "TuningDriver.run")
    for verb in ("submit", "status", "result", "lookup", "retune", "metrics"):
        tracer.replace_method(ServiceClient, verb, "service", f"service.{verb}")

    decode = repro.cluster.protocol._decode_payload

    @functools.wraps(decode)
    def timed_decode(payload, codec):
        if not tracer.active():
            return decode(payload, codec)
        start = time.perf_counter()
        message = decode(payload, codec)
        elapsed = time.perf_counter() - start
        tracer.charge_body("wire", elapsed)
        hit = message.get("type") == "config" and bool(message.get("hit"))
        with tracer._lock:
            tracer.frames.append((len(payload) + 4, elapsed, hit))
        return message

    repro.cluster.protocol._decode_payload = timed_decode


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Fold the recorded spans into the per-layer metrics."""
    metrics: Dict[str, float] = {}
    compiles = tracer.by_name("compile_program")
    metrics["compiler.compile_ms"] = _median([s.duration for s in compiles]) * 1e3
    metrics["compiler.calls"] = float(len(compiles))
    inputs = tracer.by_name("make_env")
    metrics["apps.inputgen_ms"] = sum(s.duration for s in inputs) * 1e3
    metrics["apps.inputgen_calls"] = float(len(inputs))
    sims = tracer.by_name("run_program")
    sim_s = sum(s.duration for s in sims)
    tasks = sum(s.info["tasks"] for s in sims if s.info)
    steals = sum(s.info["steals"] for s in sims if s.info)
    metrics["runtime.sim_ms"] = _median([s.duration for s in sims]) * 1e3
    metrics["runtime.sim_s"] = sim_s
    metrics["runtime.sims"] = float(len(sims))
    metrics["runtime.tasks_per_sim"] = tasks / len(sims) if sims else 0.0
    metrics["runtime.host_us_per_task"] = sim_s * 1e6 / tasks if tasks else 0.0
    metrics["runtime.steals_per_sim"] = steals / len(sims) if sims else 0.0
    body_s = tracer.body_s.get("lang", 0.0)
    metrics["lang.body_s"] = body_s
    metrics["lang.body_share"] = body_s / sim_s if sim_s else 0.0
    misses = [s for s in tracer.by_name("Evaluator.compute") if s.info and s.info["miss"]]
    metrics["fitness.miss_ms"] = _median([s.duration for s in misses]) * 1e3
    metrics["strategy.self_s"] = tracer.self_time("strategy")
    metrics["driver.self_s"] = tracer.self_time("driver")
    metrics["backend.wait_s"] = tracer.self_time("backend")
    metrics["service.submit_ms"] = _median(
        [s.duration for s in tracer.by_name("service.submit")]) * 1e3
    metrics["service.metrics_ms"] = _median(
        [s.duration for s in tracer.by_name("service.metrics")]) * 1e3
    hit_frames = [frame for frame in tracer.frames if frame[2]]
    metrics["wire.hit_frame_bytes"] = _median([float(f[0]) for f in hit_frames])
    metrics["wire.decode_us"] = _median([f[1] for f in hit_frames]) * 1e6
    return metrics

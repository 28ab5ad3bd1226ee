"""Per-layer span tracing for the benchmark's traced run.

A :class:`Tracer` wraps the public entry points of each layer of
``repro`` *at the name its callers look up* — a module global, a dict
entry such as ``STREAM_BUILDERS["microcode"]``, a class attribute or
the ``get`` of the shared ``GOLDEN_CACHE`` instance — so the traced
program takes exactly the untraced program's paths.  In particular the
response-capture wrapper is bound both in ``RESPONSE_CAPTURES`` and at
``repro.conformance.faulty.events.capture_response``: the vector
engine compares those two by identity (``_captures_patched``) and a
one-sided replacement would silently send vector sweeps down the
scalar path.

Every call into a wrapped entry point is one span.  A layer's *self
time* is its spans' duration minus the part covered by nested spans of
any layer, so self times add up to at most the traced wall time; the
rest is reported as ``unattributed.s``.  Counters (operations, lanes,
distinct memo keys, store hits) are recorded at the same boundaries.

Nothing here runs at import time: :func:`install` patches the layers
of the already-importable package and :meth:`Tracer.uninstall` puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Architectures whose stream builders are traced one by one.
ARCHITECTURES = ("microcode", "progfsm", "hardwired")


class LayerStats:
    """Calls, self time, counters and distinct call keys of one layer."""

    __slots__ = ("calls", "seconds", "counts", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.counts: Dict[str, int] = {}
        self.keys: set = set()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class Tracer:
    """Span recorder plus the patch ledger that undoes its wrapping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, LayerStats] = {}
        # Child-time accumulators of the open spans; slot 0 is the root.
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[Any, Any, bool, Any]] = []

    def stats(self, name: str) -> LayerStats:
        if name not in self.layers:
            self.layers[name] = LayerStats()
        return self.layers[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        key: Optional[Callable[..., Any]] = None,
        observe: Optional[Callable[[LayerStats, tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as one span of layer ``name``.

        ``key(*args, **kwargs)`` names the call's memo key (recorded
        before the span opens); ``observe(stats, args, result)`` updates
        counters after a successful call.
        """
        stats = self.stats(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                stats.keys.add(key(*args, **kwargs))
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                covered = stack.pop()
                stack[-1] += elapsed
                stats.calls += 1
                stats.seconds += elapsed - covered
            if observe is not None:
                observe(stats, args, result)
            return result

        return traced

    def counter(
        self, name: str, fn: Callable,
        observe: Callable[[LayerStats, tuple, Any], None],
    ) -> Callable:
        """``fn`` with a counter hook but no span (its time stays with
        its caller)."""
        stats = self.stats(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(stats, args, result)
            return result

        return counted

    # -- patching ----------------------------------------------------------

    def replace(self, owner: Any, attr: Any, value: Any) -> None:
        """Bind ``value`` at ``owner[attr]`` (dicts) or ``owner.attr``."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, True, owner[attr]))
            owner[attr] = value
            return
        own = attr in vars(owner)
        self._patches.append(
            (owner, attr, own, vars(owner)[attr] if own else None)
        )
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> Callable:
        """Wrap ``owner.attr`` as a span of layer ``name``; returns the
        wrapper so other lookup sites can share the same object."""
        original = (
            vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        wrapper = self.wrap(name, original, **hooks)
        self.replace(owner, attr, wrapper)
        return wrapper

    def rebind(
        self, modules: Sequence[str], attr: str, original: Any, wrapper: Any
    ) -> None:
        """Point every ``module.attr`` still bound to ``original`` at
        ``wrapper`` (the names that ``from x import f`` copied)."""
        for module_name in modules:
            module = importlib.import_module(module_name)
            if getattr(module, attr, None) is original:
                self.replace(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- report ------------------------------------------------------------

    def attributed_seconds(self) -> float:
        return sum(stats.seconds for stats in self.layers.values())


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's last component."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf in ("s", "overhead_s"):
        return "s"
    if leaf.endswith("_ratio"):
        return "ratio"
    if leaf.startswith("ns_per_"):
        return "ns"
    return "count"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _stream_key(architecture: str) -> Callable[..., Any]:
    def key(test, caps, compress):
        from repro.conformance.trace import stimulus_notation

        return (
            architecture,
            stimulus_notation(test),
            (caps.n_words, caps.width, caps.ports),
            compress,
        )

    return key


def _logic_min_key(n_vars, ones, dont_cares=()):
    return (n_vars, frozenset(ones), frozenset(dont_cares))


def _count_ops(stats: LayerStats, args: tuple, result: Any) -> None:
    stats.count("ops", result.ops_applied)


def _count_lane_ops(stats: LayerStats, args: tuple, result: Any) -> None:
    compiled, specs = args[0], args[3]
    stats.count("lane_ops", (1 + len(specs)) * compiled.length)


def _count_unsupported(stats: LayerStats, args: tuple, result: Any) -> None:
    stats.count("unsupported", result is None)


def _count_fallbacks(stats: LayerStats, args: tuple, result: Any) -> None:
    stats.count("fallback_runs", result.fallback_runs)


def _count_hits(stats: LayerStats, args: tuple, result: Any) -> None:
    stats.count("hits", result is not None)


def install(tracer: Tracer) -> Dict[str, Any]:
    """Wrap every traced layer of ``repro``; returns the golden cache
    counters at install time (the hit ratio is a delta)."""
    from repro.analysis import coverage as coverage_pkg
    from repro.analysis import verifier
    from repro.area import logic_min
    from repro.conformance import check as conformance_check
    from repro.conformance import infield
    from repro.conformance.faulty import check as faulty_check
    from repro.conformance.faulty import events as faulty_events
    from repro.core.hardwired.controller import HardwiredBistController
    from repro.core.microcode.controller import MicrocodeBistController
    from repro.core.progfsm.controller import ProgrammableFsmBistController
    from repro.diagnostics import classifier
    from repro.eval import experiments
    from repro.faults import universe
    from repro.prt.controller import PrtController
    from repro.prt.session import PrtSession
    from repro.service.store import ResultStore

    golden = conformance_check.GOLDEN_CACHE
    tracer.patch(golden, "get", "conformance.golden")

    for architecture in ARCHITECTURES:
        tracer.replace(
            conformance_check.STREAM_BUILDERS, architecture,
            tracer.wrap(
                f"conformance.stream.{architecture}",
                conformance_check.STREAM_BUILDERS[architecture],
                key=_stream_key(architecture),
            ),
        )

    original_capture = faulty_events.capture_response
    capture = tracer.patch(
        faulty_events, "capture_response", "conformance.capture",
        observe=_count_ops,
    )
    tracer.rebind(
        ["repro.conformance.faulty.check", "repro.conformance.faulty",
         "repro.conformance"],
        "capture_response", original_capture, capture,
    )
    for architecture in ARCHITECTURES:
        if faulty_check.RESPONSE_CAPTURES[architecture] is original_capture:
            tracer.replace(faulty_check.RESPONSE_CAPTURES, architecture, capture)

    tracer.patch(classifier, "classify", "diagnostics.classify")

    try:
        from repro.vector import sweep as vector_sweep
    except ImportError:  # no numpy: the vector layers never run
        vector_sweep = None
    if vector_sweep is not None:
        tracer.patch(vector_sweep, "compile_stream", "vector.compile")
        tracer.patch(
            vector_sweep, "lane_spec", "vector.lane_spec",
            observe=_count_unsupported,
        )
        tracer.patch(
            vector_sweep, "evaluate_lanes", "vector.kernel",
            observe=_count_lane_ops,
        )
        tracer.replace(
            vector_sweep, "run_vector_fault_sweep",
            tracer.counter(
                "vector.sweep", vector_sweep.run_vector_fault_sweep,
                _count_fallbacks,
            ),
        )

    original_universe = universe.standard_universe
    tracer.rebind(
        ["repro.faults.universe", "repro.faults",
         "repro.conformance.faulty.sampling",
         "repro.conformance.faulty.coverage",
         "repro.analysis.coverage.prover"],
        "standard_universe", original_universe,
        tracer.wrap("faults.universe", original_universe),
    )

    original_minimize = logic_min.minimize_sop
    tracer.rebind(
        ["repro.area.logic_min", "repro.area"], "minimize_sop",
        original_minimize,
        tracer.wrap("area.logic_min", original_minimize, key=_logic_min_key),
    )
    for cls in (MicrocodeBistController, ProgrammableFsmBistController,
                HardwiredBistController):
        tracer.patch(cls, "hardware", "core.hardware")
    original_estimate = experiments.estimate
    tracer.rebind(
        ["repro.eval.experiments", "repro.area.estimator", "repro.area"],
        "estimate", original_estimate,
        tracer.wrap("area.estimate", original_estimate),
    )

    for attr in ("verify_program", "verify_fsm_program"):
        original = getattr(verifier, attr)
        tracer.rebind(
            ["repro.analysis.verifier", "repro.analysis"], attr, original,
            tracer.wrap("analysis.verify", original),
        )
    original_certify = coverage_pkg.certify
    tracer.rebind(
        ["repro.analysis.coverage", "repro.analysis.coverage.prover"],
        "certify", original_certify,
        tracer.wrap("analysis.certify", original_certify),
    )
    for attr in ("build_infield_plan", "run_infield_session"):
        original = getattr(infield, attr)
        tracer.rebind(
            ["repro.conformance.infield", "repro.conformance"], attr,
            original, tracer.wrap("conformance.infield", original),
        )

    for attr in ("attributed_stream", "op_count", "predicted_signature"):
        tracer.patch(PrtSession, attr, "prt")
    for attr in ("__init__", "attributed_stream"):
        tracer.patch(PrtController, attr, "prt")

    tracer.patch(ResultStore, "get", "service.store.get", observe=_count_hits)
    tracer.patch(ResultStore, "put", "service.store.put")
    return {"hits": golden.hits, "misses": golden.misses}


def layer_metrics(
    tracer: Tracer, golden_before: Dict[str, int], traced_wall_s: float
) -> Dict[str, float]:
    """The per-layer metric values of one traced repetition."""
    from repro.conformance.check import GOLDEN_CACHE

    def layer(name: str) -> LayerStats:
        return tracer.layers.get(name) or LayerStats()

    metrics: Dict[str, float] = {}
    golden = layer("conformance.golden")
    hits = GOLDEN_CACHE.hits - golden_before["hits"]
    misses = GOLDEN_CACHE.misses - golden_before["misses"]
    metrics["conformance.golden.calls"] = golden.calls
    metrics["conformance.golden.s"] = golden.seconds
    metrics["conformance.golden.hit_ratio"] = _ratio(hits, hits + misses)

    streams = [layer(f"conformance.stream.{a}") for a in ARCHITECTURES]
    stream_calls = sum(stats.calls for stats in streams)
    metrics["conformance.stream.calls"] = stream_calls
    metrics["conformance.stream.s"] = sum(stats.seconds for stats in streams)
    metrics["conformance.stream.distinct_ratio"] = _ratio(
        sum(len(stats.keys) for stats in streams), stream_calls
    )
    for architecture, stats in zip(ARCHITECTURES, streams):
        metrics[f"conformance.stream.{architecture}.s"] = stats.seconds

    capture = layer("conformance.capture")
    ops = capture.counts.get("ops", 0)
    metrics["conformance.capture.calls"] = capture.calls
    metrics["conformance.capture.s"] = capture.seconds
    metrics["conformance.capture.ops"] = ops
    metrics["conformance.capture.ns_per_op"] = _ratio(capture.seconds * 1e9, ops)

    classify = layer("diagnostics.classify")
    metrics["diagnostics.classify.calls"] = classify.calls
    metrics["diagnostics.classify.s"] = classify.seconds

    metrics["vector.compile.s"] = layer("vector.compile").seconds
    lane_spec = layer("vector.lane_spec")
    metrics["vector.lane_spec.calls"] = lane_spec.calls
    metrics["vector.lane_spec.s"] = lane_spec.seconds
    metrics["vector.lane_spec.unsupported"] = lane_spec.counts.get(
        "unsupported", 0
    )
    kernel = layer("vector.kernel")
    lane_ops = kernel.counts.get("lane_ops", 0)
    metrics["vector.kernel.calls"] = kernel.calls
    metrics["vector.kernel.s"] = kernel.seconds
    metrics["vector.kernel.lane_ops"] = lane_ops
    metrics["vector.kernel.ns_per_lane_op"] = _ratio(
        kernel.seconds * 1e9, lane_ops
    )
    metrics["vector.fallback_runs"] = layer("vector.sweep").counts.get(
        "fallback_runs", 0
    )

    metrics["faults.universe.s"] = layer("faults.universe").seconds

    logic_min = layer("area.logic_min")
    metrics["area.logic_min.calls"] = logic_min.calls
    metrics["area.logic_min.s"] = logic_min.seconds
    metrics["area.logic_min.distinct_ratio"] = _ratio(
        len(logic_min.keys), logic_min.calls
    )
    metrics["core.hardware.s"] = layer("core.hardware").seconds
    metrics["area.estimate.s"] = layer("area.estimate").seconds

    metrics["analysis.verify.s"] = layer("analysis.verify").seconds
    metrics["analysis.certify.s"] = layer("analysis.certify").seconds
    metrics["conformance.infield.s"] = layer("conformance.infield").seconds
    metrics["prt.s"] = layer("prt").seconds
    store_get = layer("service.store.get")
    store_put = layer("service.store.put")
    metrics["service.store.get.calls"] = store_get.calls
    metrics["service.store.get.s"] = store_get.seconds
    metrics["service.store.put.calls"] = store_put.calls
    metrics["service.store.put.s"] = store_put.seconds
    metrics["service.store.hit_ratio"] = _ratio(
        store_get.counts.get("hits", 0), store_get.calls
    )

    metrics["unattributed.s"] = traced_wall_s - tracer.attributed_seconds()
    return metrics

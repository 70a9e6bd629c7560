"""Spans and planted delays around the public calls into each ``repro`` layer.

Everything here wraps the program from the outside: :func:`instrument`
replaces a layer's public function or method with a wrapper that records a
span (name, start, end, parent) and the wrapper's counts, and restores the
original on exit.  The program itself records nothing for the benchmark.

Span names are the layer names the benchmark reports (``src/repro``
module names).  A layer's self time is the sum, over its spans, of the
span's duration minus the durations of its direct children, so nested
calls into other layers are charged to those layers.
"""

from __future__ import annotations

import contextlib
import json
import time
from importlib import import_module
from pathlib import Path

from reference import spin

#: Per-layer metrics that are counts of work, with (unit, better): they
#: must repeat exactly between traced passes of the same seed.
COUNT_METRICS = {
    "workloads.trace_calls": ("count", "lower"),
    "uarch.engine_runs": ("count", "lower"),
    "uarch.engine_sim_instructions": ("count", "lower"),
    "core.dyad_runs": ("count", "lower"),
    "harness.measure.computes": ("count", "lower"),
    "queueing.mg1_runs": ("count", "lower"),
    "queueing.mg1_requests": ("count", "lower"),
    "queueing.mg1_compiled_frac": ("ratio", "higher"),
    "harness.metrics.service_time_calls": ("count", "lower"),
    "harness.metrics.batch_base_calls": ("count", "lower"),
    "harness.cache.lookups": ("count", "lower"),
    "harness.cache.hits": ("count", "higher"),
    "harness.cache.writes": ("count", "lower"),
    "harness.cache.bytes_written": ("B", "lower"),
    "validate.checks": ("count", "lower"),
    "validate.violations": ("count", "lower"),
    "cluster.sim.leaf_requests": ("count", "lower"),
    "cluster.sim.compiled_server_frac": ("ratio", "higher"),
    "uarch.fastpath.cluster_events_calls": ("count", "lower"),
}

#: Per-layer host times (self times unless noted) and rates, with
#: (unit, better).
TIME_METRICS = {
    "workloads.trace_s": ("s", "lower"),
    "uarch.engine_s": ("s", "lower"),
    "uarch.engine_sim_minstr_per_s": ("Minstr/s", "higher"),
    "core.dyad_s": ("s", "lower"),
    "harness.measure.self_s": ("s", "lower"),
    "queueing.mg1_compiled_s": ("s", "lower"),
    "queueing.mg1_scalar_s": ("s", "lower"),
    "harness.metrics.batch_base_s": ("s", "lower"),
    "harness.cache.s": ("s", "lower"),
    "validate.s": ("s", "lower"),
    "harness.experiment.self_s": ("s", "lower"),
    "cluster.arrivals.epochs_s": ("s", "lower"),
    "cluster.balancers.assign_s": ("s", "lower"),
    "cluster.sim.self_s": ("s", "lower"),
    "uarch.fastpath.cluster_events_s": ("s", "lower"),
    "cluster.metrics.summarize_s": ("s", "lower"),
    "cluster.experiment.self_s": ("s", "lower"),
    # Pass time outside every layer span (``run_grid`` glue, the
    # benchmark's own loop and the reference timed around each cell).
    "trace.unattributed_s": ("s", "lower"),
    # Traced over untraced pass time - 1, both at the nominal host speed
    # (computed by run.py from both kinds of pass).
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.attrs: list[dict | None] = []
        self.service_time_calls = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(None)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()
        if attrs:
            self.attrs[idx] = attrs

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "starts_ns": self.starts,
                    "ends_ns": self.ends,
                    "parents": self.parents,
                    "attrs": self.attrs,
                    "service_time_calls": self.service_time_calls,
                }
            )
        )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn, after=None, before=None):
    """``fn`` inside a span named ``name``.  ``before(args, kwargs)``
    runs at span start; ``after(args, kwargs, result, state)`` gets its
    value and returns the span's attributes."""
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        idx = begin(name)
        state = before(args, kwargs) if before else None
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end(idx, {"raised": 1})
            raise
        end(idx, after(args, kwargs, result, state) if after else None)
        return result

    return wrapper


def _counting(tracer: Tracer, fn):
    """``service_time`` runs ~1.5M times a grid pass: count, no span."""

    def wrapper(*args, **kwargs):
        tracer.service_time_calls += 1
        return fn(*args, **kwargs)

    return wrapper


def _planted(fn, seconds: float):
    """``fn`` after fixed interpreted work of ``seconds`` at the nominal
    host speed, which a slow host slows down like the program itself."""

    def wrapper(*args, **kwargs):
        spin(seconds)
        return fn(*args, **kwargs)

    return wrapper


def _subclasses_defining(base: type, attr: str) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _targets() -> dict[str, list[tuple[object, str]]]:
    """Span name -> every (owner, attribute) through which ``repro``
    reaches that layer's public call.  Names imported with ``from x
    import y`` are patched in the importing module too."""
    # ``repro.harness`` re-exports the function ``measure`` under its
    # module's name, so modules are looked up by name.
    cluster_experiment = import_module("repro.cluster.experiment")
    harness_experiment = import_module("repro.harness.experiment")
    harness_measure = import_module("repro.harness.measure")
    fastpath_cluster = import_module("repro.uarch.fastpath.cluster")
    filler = import_module("repro.workloads.filler")
    validate = import_module("repro.validate")
    from repro.cluster.arrivals import ArrivalProcess
    from repro.cluster.balancers import Balancer
    from repro.cluster.sim import ClusterSimulator
    from repro.core.dyad import DyadSimulator
    from repro.harness.cache import DiskCache
    from repro.harness.metrics import DesignServiceModel
    from repro.queueing.mg1 import MG1Simulator
    from repro.uarch.engine import TimingEngine
    from repro.workloads.microservices import Microservice

    return {
        "workloads.trace": [
            (Microservice, "saturated_trace"),
            (filler, "filler_trace"),
            (harness_measure, "filler_trace"),
        ],
        "uarch.engine": [(TimingEngine, "run")],
        "core.dyad": [(DyadSimulator, "run")],
        "harness.measure": [
            (harness_measure, "measure"),
            (harness_experiment, "measure"),
            (cluster_experiment, "measure"),
        ],
        "queueing.mg1": [(MG1Simulator, "run")],
        "service_time": [(DesignServiceModel, "service_time")],
        "harness.metrics.batch_base": [(DesignServiceModel, "batch_base")],
        "harness.cache.key": [(DiskCache, "key")],
        "harness.cache.get": [(DiskCache, "get")],
        "harness.cache.put": [(DiskCache, "put")],
        "validate": [
            (validate, "dispatch"),
            (validate, "check_tail_value"),
        ],
        "validate.report": [(validate, "report")],
        "harness.experiment": [(harness_experiment, "run_cell")],
        "cluster.arrivals": [
            (cls, "epochs")
            for cls in _subclasses_defining(ArrivalProcess, "epochs")
        ],
        "cluster.balancers": [
            (cls, "assignments")
            for cls in _subclasses_defining(Balancer, "assignments")
        ],
        "cluster.sim": [(ClusterSimulator, "run")],
        "uarch.fastpath.cluster_events": [
            (fastpath_cluster, "run_cluster_events")
        ],
        "cluster.metrics": [(cluster_experiment, "summarize")],
        "cluster.experiment": [(cluster_experiment, "run_cluster_cell")],
    }


#: Planted-delay targets of the sensitivity check, one public call per
#: workload: target -> (span name, owner name or None for every owner).
#: Only the bursty generator is planted among the arrival processes, so
#: the Poisson arrivals of ``cluster_random`` stay untouched.
PLANT_TARGETS = {
    "mg1": ("queueing.mg1", None),
    "assignments": ("cluster.balancers", None),
    "mmpp_epochs": ("cluster.arrivals", "MMPPArrivals"),
}


def _wrapper_for(tracer: Tracer, name: str, fn):
    if name == "service_time":
        return _counting(tracer, fn)
    if name == "queueing.mg1":
        # Classified by whether any request took the scalar
        # ``service_time`` path.
        return _span(
            tracer, name, fn,
            before=lambda a, k: tracer.service_time_calls,
            after=lambda a, k, r, calls0: {
                "requests": _arg(a, k, 1, "num_requests"),
                "scalar_calls": tracer.service_time_calls - calls0,
            },
        )
    if name == "harness.measure":
        # ``grew``: results that joined the L1 cache during the call,
        # nested calls included (removed again in :func:`metrics`).
        l1 = import_module("repro.harness.measure")._CACHE
        return _span(
            tracer, name, fn,
            before=lambda a, k: len(l1),
            after=lambda a, k, r, size0: {"grew": len(l1) - size0},
        )
    if name == "uarch.engine":
        return _span(
            tracer, name, fn,
            after=lambda a, k, r, s: {"instructions": int(r.instructions)},
        )
    if name == "cluster.sim":
        return _span(
            tracer, name, fn,
            after=lambda a, k, r, s: {
                "leaf": _arg(a, k, 1, "num_requests") * a[0].fanout,
                "fast": int(r.fastpath_servers),
                "servers": int(r.n_servers),
            },
        )
    if name == "harness.cache.get":
        return _span(
            tracer, "harness.cache", fn,
            after=lambda a, k, r, s: {"lookup": 1, "hit": int(r is not None)},
        )
    if name == "harness.cache.put":
        return _span(
            tracer, "harness.cache", fn,
            after=lambda a, k, r, s: {
                "write": 1, "bytes": _entry_bytes(a[0], a[1])
            },
        )
    if name == "harness.cache.key":
        return _span(tracer, "harness.cache", fn)
    if name == "validate.report":
        return _span(
            tracer, "validate", fn,
            after=lambda a, k, r, s: {"checks": 1, "violations": len(r)},
        )
    return _span(tracer, name, fn)


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> int:
    return int(args[pos] if len(args) > pos else kwargs[name])


def _entry_bytes(cache, key: str) -> int:
    try:
        return cache.path_for(key).stat().st_size
    except OSError:
        return 0


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set ``owner.attr = value`` for each entry; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Requests:
    """Simulated requests of a pass: M/G/1 requests on the grid, mid-tier
    requests on a cluster (each counted once, warmup included)."""

    def __init__(self) -> None:
        self.n = 0

    def wrap(self, fn):
        def wrapper(sim, num_requests, *args, **kwargs):
            self.n += int(num_requests)
            return fn(sim, num_requests, *args, **kwargs)

        return wrapper


def instrument(
    requests: Requests,
    tracer: Tracer | None = None,
    plant: tuple[str, float] | None = None,
):
    """Context manager: count simulated requests into ``requests``, trace
    every layer call into ``tracer`` and plant fixed work of ``seconds``
    per call into one target (``plant = (target, seconds)``)."""
    planted, planted_owner = PLANT_TARGETS[plant[0]] if plant else (None, None)
    replacements = []
    for name, sites in _targets().items():
        for owner, attr in sites:
            fn = owner.__dict__[attr]
            if name in ("queueing.mg1", "cluster.sim"):
                fn = requests.wrap(fn)
            if name == planted and planted_owner in (None, owner.__name__):
                fn = _planted(fn, plant[1])
            if tracer is not None:
                fn = _wrapper_for(tracer, name, fn)
            if fn is not owner.__dict__[attr]:
                replacements.append((owner, attr, fn))
    return patched(replacements)


# ----------------------------------------------------------------------
# Per-layer metrics from one pass's spans
# ----------------------------------------------------------------------


def metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the pass traced by ``tracer``."""
    n = len(tracer.names)
    child_ns = [0] * n
    child_grew = [0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child_ns[p] += tracer.ends[i] - tracer.starts[i]
            if tracer.names[i] == "harness.measure":
                child_grew[p] += (tracer.attrs[i] or {}).get("grew", 0)

    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    mg1 = {"runs": 0, "compiled": 0, "compiled_s": 0.0, "scalar_s": 0.0}
    for i in range(n):
        name = tracer.names[i]
        own = (tracer.ends[i] - tracer.starts[i] - child_ns[i]) / 1e9
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        attrs = tracer.attrs[i] or {}
        if name == "harness.measure":
            attrs = {"computes": attrs.get("grew", 0) - child_grew[i]}
        for key, value in attrs.items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        if name == "queueing.mg1":
            mg1["runs"] += 1
            if attrs.get("scalar_calls", 1) == 0:
                mg1["compiled"] += 1
                mg1["compiled_s"] += own
            else:
                mg1["scalar_s"] += own

    engine_s = self_s.get("uarch.engine", 0.0)
    instructions = sums.get("uarch.engine.instructions", 0)
    servers = sums.get("cluster.sim.servers", 0)
    out = {
        "workloads.trace_calls": count.get("workloads.trace", 0),
        "workloads.trace_s": self_s.get("workloads.trace", 0.0),
        "uarch.engine_runs": count.get("uarch.engine", 0),
        "uarch.engine_s": engine_s,
        "uarch.engine_sim_instructions": instructions,
        "uarch.engine_sim_minstr_per_s": (
            instructions / engine_s / 1e6 if engine_s > 0 else 0.0
        ),
        "core.dyad_runs": count.get("core.dyad", 0),
        "core.dyad_s": self_s.get("core.dyad", 0.0),
        "harness.measure.computes": sums.get("harness.measure.computes", 0),
        "harness.measure.self_s": self_s.get("harness.measure", 0.0),
        "queueing.mg1_runs": mg1["runs"],
        "queueing.mg1_requests": sums.get("queueing.mg1.requests", 0),
        "queueing.mg1_compiled_frac": (
            mg1["compiled"] / mg1["runs"] if mg1["runs"] else 0.0
        ),
        "queueing.mg1_compiled_s": mg1["compiled_s"],
        "queueing.mg1_scalar_s": mg1["scalar_s"],
        "harness.metrics.service_time_calls": tracer.service_time_calls,
        "harness.metrics.batch_base_calls": count.get(
            "harness.metrics.batch_base", 0
        ),
        "harness.metrics.batch_base_s": self_s.get(
            "harness.metrics.batch_base", 0.0
        ),
        "harness.cache.lookups": sums.get("harness.cache.lookup", 0),
        "harness.cache.hits": sums.get("harness.cache.hit", 0),
        "harness.cache.writes": sums.get("harness.cache.write", 0),
        "harness.cache.bytes_written": sums.get("harness.cache.bytes", 0),
        "harness.cache.s": self_s.get("harness.cache", 0.0),
        "validate.checks": sums.get("validate.checks", 0),
        "validate.violations": sums.get("validate.violations", 0),
        "validate.s": self_s.get("validate", 0.0),
        "harness.experiment.self_s": self_s.get("harness.experiment", 0.0),
        "cluster.arrivals.epochs_s": self_s.get("cluster.arrivals", 0.0),
        "cluster.balancers.assign_s": self_s.get("cluster.balancers", 0.0),
        "cluster.sim.self_s": self_s.get("cluster.sim", 0.0),
        "cluster.sim.leaf_requests": sums.get("cluster.sim.leaf", 0),
        "cluster.sim.compiled_server_frac": (
            sums.get("cluster.sim.fast", 0) / servers if servers else 0.0
        ),
        "uarch.fastpath.cluster_events_calls": count.get(
            "uarch.fastpath.cluster_events", 0
        ),
        "uarch.fastpath.cluster_events_s": self_s.get(
            "uarch.fastpath.cluster_events", 0.0
        ),
        "cluster.metrics.summarize_s": self_s.get("cluster.metrics", 0.0),
        "cluster.experiment.self_s": self_s.get("cluster.experiment", 0.0),
        "trace.unattributed_s": self_s.get("pass", 0.0),
    }
    return out

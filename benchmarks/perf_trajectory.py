"""Performance-trajectory benchmark: time a pinned FAST subset cold and warm.

Runs a fixed (design x workload x load) subset of the evaluation matrix
against a fresh result cache under both fastpath modes (reference cold
pass with ``REPRO_FASTPATH=off``, compiled cold pass with ``on``), then a
warm pass against the warmed disk cache, and writes the wall times,
speedup, cache hit rate and simulated-cycle volume to
``benchmarks/output/BENCH_profile.json``.  CI uploads the file as an
artifact, so the simulator's performance trajectory is tracked across
commits.

Thresholds that *do* fail the build, all against
``benchmarks/perf_baseline.json``: the compiled cold sweep, the pinned
cluster sweep, and the pinned JSQ event-kernel sweep each gate at 25%
over their committed baselines, so the fast path cannot silently rot
back toward reference speed; the JSQ sweep must additionally run the
compiled event kernel at >= 10x over a Python-loop extrapolation; and the
cluster sweep with tail telemetry *disabled* gates at 3% over its own
baseline, so :mod:`repro.cluster.tailobs` stays near-free when off.
The same 3% headroom applies against ``cluster_wall_s_energy_off`` for
the :mod:`repro.energy` attribution plane.  The benchmark also re-runs
the cluster sweep with tail telemetry *on*, and once more with the
energy plane on, and fails if either pass's results differ at all
(telemetry must never change simulation output; the energy pass must
additionally conserve exactly) or if either pass falls back from the
compiled event kernel.  ``--no-gate`` skips the baseline gates (e.g.
when profiling on a deliberately slow machine); they also skip
themselves when no C compiler is available.

Usage::

    python benchmarks/perf_trajectory.py [--out PATH] [--no-gate]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro import energy, obs, prof, validate  # noqa: E402
from repro.cluster import tailobs  # noqa: E402
from repro.cluster.experiment import (  # noqa: E402
    ClusterConfig,
    arrival_process_for,
    clear_cluster_cache,
    run_cluster_cell,
)
from repro.cluster.sim import ClusterSimulator  # noqa: E402
from repro.common.rng import derive_seed  # noqa: E402
from repro.core.designs import get_design  # noqa: E402
from repro.harness import cache, metrics  # noqa: E402
from repro.harness.experiment import clear_tail_cache  # noqa: E402
from repro.harness.fidelity import FAST  # noqa: E402
from repro.harness.measure import clear_cache as clear_measure_cache  # noqa: E402
from repro.harness.measure import measure  # noqa: E402
from repro.harness.parallel import GridRunStats, run_grid_cells  # noqa: E402
from repro.uarch import fastpath  # noqa: E402
from repro.workloads.microservices import standard_microservices  # noqa: E402

#: The pinned subset: two design families (single-threaded baseline and
#: the full morphing dyad) on the two paper workloads bracketing the
#: instruction-mix space, at a low and a high load point.
DESIGNS = ["baseline", "duplexity"]
WORKLOAD_NAMES = ("McRouter", "WordStem")
LOADS = (0.3, 0.7)

#: Pinned cluster sweep: the acceptance-scale fork-join topology —
#: 16 dyad-servers, fan-out 8, one million mid-tier (8M leaf) requests —
#: timed on the compiled path under strict validation.
CLUSTER_CONFIG = ClusterConfig(
    n_servers=16,
    fanout=8,
    balancer="random",
    num_requests=1_000_000,
    warmup=50_000,
)
CLUSTER_WORKLOAD = "WordStem"
CLUSTER_LOAD = 0.7

#: Pinned JSQ sweep: the same acceptance-scale topology routed through a
#: state-dependent balancer, so every request crosses the compiled event
#: kernel (live dispatch-stream PCG64, pre-drawn service buffers).
JSQ_CLUSTER_CONFIG = ClusterConfig(
    n_servers=16,
    fanout=8,
    balancer="jsq",
    num_requests=1_000_000,
    warmup=50_000,
)

#: The interpreter-loop leg runs at this reduced request count and is
#: extrapolated linearly to the pinned scale (the Python event loop is
#: O(requests); measuring the full million would dominate the benchmark).
JSQ_PYTHON_REQUESTS = 40_000
JSQ_PYTHON_WARMUP = 2_000

#: Minimum compiled-over-Python speedup for the pinned JSQ sweep; below
#: this line the event kernel is presumed broken (or bypassed).
JSQ_MIN_SPEEDUP = 10.0

#: A cluster p99.9 batch-means CI wider than this fails the benchmark:
#: the pinned sweep must be statistically converged, not just fast.
CLUSTER_MAX_REL_ERR = 0.05

DEFAULT_OUT = pathlib.Path(__file__).parent / "output" / "BENCH_profile.json"

#: Committed record of the compiled cold sweep on the reference machine.
BASELINE_PATH = pathlib.Path(__file__).parent / "perf_baseline.json"

#: The gate fails when the compiled cold sweep exceeds the committed
#: baseline by more than this factor.
GATE_HEADROOM = 1.25

#: Telemetry-off cluster gate: with :mod:`repro.cluster.tailobs`
#: *disabled* (the default), the pinned cluster sweep may exceed its
#: committed ``cluster_wall_s_tailobs_off`` baseline by at most 3% —
#: the off path is a single flag check per run, so any per-request cost
#: leaking onto it shows up far above this line.
TAILOBS_OFF_HEADROOM = 1.03

#: Energy-off cluster gate, same shape: the telemetry-off sweep may
#: exceed ``cluster_wall_s_energy_off`` by at most 3% — the energy
#: plane's off path is one flag check per record site.
ENERGY_OFF_HEADROOM = 1.03


def _workloads():
    by_name = {w.name: w for w in standard_microservices()}
    return [by_name[name] for name in WORKLOAD_NAMES]


def _sweep() -> tuple[GridRunStats, float]:
    stats = GridRunStats()
    start = time.perf_counter()
    run_grid_cells(
        designs=DESIGNS,
        workloads=_workloads(),
        loads=LOADS,
        fidelity=FAST,
        workers=1,
        stats=stats,
    )
    return stats, time.perf_counter() - start


def _cluster_sweep():
    """Time the pinned cluster cell under strict validation.

    Returns ``(cell, wall_s, violations, kernel_servers)``; the L1
    cluster cache is cleared first so the wall time covers a real
    simulation.  ``kernel_servers`` counts the servers that ran in the
    compiled event kernel (from the ``cluster.fastpath_servers`` obs
    counter, so obs must be enabled).
    """
    workload = {w.name: w for w in standard_microservices()}[CLUSTER_WORKLOAD]
    clear_cluster_cache()
    servers_before = obs.value("cluster.fastpath_servers")
    start = time.perf_counter()
    with validate.collecting() as found:
        cell = run_cluster_cell(
            "duplexity", workload, CLUSTER_LOAD, CLUSTER_CONFIG, FAST
        )
    wall = time.perf_counter() - start
    kernel_servers = obs.value("cluster.fastpath_servers") - servers_before
    return cell, wall, list(found), kernel_servers


def _jsq_simulator(num_requests: int) -> ClusterSimulator:
    """The pinned JSQ simulator, built exactly like ``run_cluster_cell``
    (same measurement-derived service model, saturation-clamped rate, and
    derived seed) so the timed runs match the experiment path."""
    workload = {w.name: w for w in standard_microservices()}[CLUSTER_WORKLOAD]
    design = get_design("duplexity")
    m = measure(design, workload, FAST)
    base = measure("baseline", workload, FAST)
    service = metrics.service_model_for(design, m, base, workload)
    config = JSQ_CLUSTER_CONFIG
    nominal_mean = workload.service_distribution().mean()
    service_mean = service.mean_service_time()
    rate = CLUSTER_LOAD * config.n_servers / (config.fanout * nominal_mean)
    if rate * config.fanout / config.n_servers * service_mean >= (
        metrics.SATURATION_RHO
    ):
        rate = (
            metrics.SATURATION_RHO
            * config.n_servers
            / (config.fanout * service_mean)
        )
    return ClusterSimulator(
        arrival_process_for(config, rate, num_requests),
        service,
        n_servers=config.n_servers,
        fanout=config.fanout,
        balancer=config.balancer,
        seed=derive_seed(FAST.seed, f"cluster-cell/{config.seed}"),
    )


def _jsq_sweep(compiled_available: bool):
    """Time the pinned JSQ sweep on the event kernel, plus a reduced
    Python-loop leg extrapolated to the same scale.

    Returns a dict for the payload's ``cluster_jsq`` section plus the
    raw numbers the gates need.  Without a compiler the "compiled" leg
    runs the interpreter at the reduced size (the payload records which).
    """
    num_requests, warmup = JSQ_CLUSTER_CONFIG.requests_for(FAST)
    if not compiled_available:
        num_requests, warmup = JSQ_PYTHON_REQUESTS, JSQ_PYTHON_WARMUP
    sim = _jsq_simulator(num_requests)
    start = time.perf_counter()
    result = sim.run(num_requests, warmup)
    compiled_wall = time.perf_counter() - start
    violations = validate.check(result, subject="perf-cluster-jsq")
    kernel_ran = result.fastpath_servers == JSQ_CLUSTER_CONFIG.n_servers

    python_sim = _jsq_simulator(JSQ_PYTHON_REQUESTS)
    mode = fastpath.mode()
    fastpath.set_mode("off")  # the Python reference loop
    try:
        start = time.perf_counter()
        python_sim.run(JSQ_PYTHON_REQUESTS, JSQ_PYTHON_WARMUP)
        python_wall = time.perf_counter() - start
    finally:
        fastpath.set_mode(mode)
    python_est = python_wall * (num_requests / JSQ_PYTHON_REQUESTS)
    speedup = python_est / compiled_wall if compiled_wall > 0 else 0.0
    section = {
        "n_servers": JSQ_CLUSTER_CONFIG.n_servers,
        "fanout": JSQ_CLUSTER_CONFIG.fanout,
        "balancer": JSQ_CLUSTER_CONFIG.balancer,
        "requests": num_requests,
        "load": CLUSTER_LOAD,
        "event_kernel_ran": kernel_ran,
        "wall_s_compiled": round(compiled_wall, 3),
        "python_requests": JSQ_PYTHON_REQUESTS,
        "wall_s_python": round(python_wall, 3),
        "wall_s_python_est": round(python_est, 3),
        "speedup_est": round(speedup, 2),
        "validation_violations": len(violations),
    }
    return section, compiled_wall, speedup, kernel_ran, violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(DEFAULT_OUT),
        help=f"output JSON path (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="record timings without failing on the perf-baseline gate",
    )
    options = parser.parse_args(argv)
    compiled_available = fastpath.is_available()

    # In-memory observation only: engine.cycles gives the simulated-cycle
    # volume behind the cold wall time.
    obs.reset()
    obs.enable()
    try:
        # Reference cold pass: the pure-Python path, its own fresh cache.
        fastpath.set_mode("off")
        with tempfile.TemporaryDirectory(prefix="repro-perf-ref-") as tmp:
            cache.configure(root=tmp, enabled=True)
            clear_measure_cache()
            clear_tail_cache()
            _, reference_wall = _sweep()

        # Compiled cold + warm passes.  With no C compiler 'on' falls
        # back to the reference path; the payload records which ran.
        fastpath.set_mode("on" if compiled_available else "off")
        obs.reset()
        obs.enable()
        with tempfile.TemporaryDirectory(prefix="repro-perf-") as tmp:
            # Fresh disk cache: the cold pass simulates every cell.
            cache.configure(root=tmp, enabled=True)
            clear_measure_cache()
            clear_tail_cache()
            cold_stats, cold_wall = _sweep()
            cycles = obs.value("engine.cycles")

            # Pinned cluster sweep, on the same (now-warm) measurements.
            # Telemetry off (the default): this is the wall time the
            # tailobs off-path gate below protects.
            cluster_cell, cluster_wall, cluster_violations, _ = (
                _cluster_sweep()
            )

            # Same sweep with per-request tail telemetry on.  The disk
            # layer is bypassed (the off pass warmed it and telemetry
            # does not change the cache key), so this pass re-simulates;
            # identical results double as a byte-identity check at the
            # million-request scale.
            cache.configure(enabled=False)
            tailobs.reset()
            tailobs.enable()
            try:
                cluster_cell_on, cluster_wall_on, _, tailobs_kernel = (
                    _cluster_sweep()
                )
                tailobs_records = sum(
                    len(run.records) for run in tailobs.snapshot().runs
                )
            finally:
                tailobs.reset()
            cache.configure(root=tmp, enabled=True)
            telemetry_identical = cluster_cell_on == cluster_cell

            # And once more with the energy-attribution plane on (which
            # also turns the profiler on): identical results again, plus
            # the ledger volume and the exact-conservation check.
            cache.configure(enabled=False)
            energy.reset()
            prof.reset()
            energy.enable()
            try:
                (
                    cluster_cell_energy,
                    cluster_wall_energy,
                    _,
                    energy_kernel,
                ) = _cluster_sweep()
                esnap = energy.snapshot()
                energy_records = (
                    len(esnap.cores)
                    + len(esnap.dyads)
                    + len(esnap.waterfalls)
                    + len(esnap.cluster_runs)
                )
                energy_conserved = esnap.conserved() and not esnap.empty
            finally:
                energy.reset()
                prof.reset()
            cache.configure(root=tmp, enabled=True)
            energy_identical = cluster_cell_energy == cluster_cell
            n_servers = CLUSTER_CONFIG.n_servers
            tailobs_kernel_ran = tailobs_kernel == n_servers
            energy_kernel_ran = energy_kernel == n_servers

            # Pinned JSQ sweep: the compiled event kernel at acceptance
            # scale against an extrapolated Python-loop leg (same warm
            # measurements, no result caches involved).
            (
                jsq_section,
                jsq_wall,
                jsq_speedup,
                jsq_kernel_ran,
                jsq_violations,
            ) = _jsq_sweep(compiled_available)

            # Warm pass: keep the disk layer, drop the in-memory layers
            # so every cell exercises the disk-cache read path.
            clear_measure_cache()
            clear_tail_cache()
            warm_stats, warm_wall = _sweep()
    finally:
        fastpath.set_mode(None)
        obs.reset()

    payload = {
        "designs": DESIGNS,
        "workloads": list(WORKLOAD_NAMES),
        "loads": list(LOADS),
        "fidelity": FAST.name,
        "cells": cold_stats.cells,
        "fastpath_available": compiled_available,
        "wall_s": round(cold_wall, 3),
        "wall_s_reference": round(reference_wall, 3),
        "speedup": round(reference_wall / cold_wall, 2) if cold_wall > 0 else 0.0,
        "wall_s_warm": round(warm_wall, 3),
        "cache_hit_rate": round(warm_stats.disk.hit_rate, 4),
        "cycles_simulated": int(cycles),
        "cluster": {
            "n_servers": CLUSTER_CONFIG.n_servers,
            "fanout": CLUSTER_CONFIG.fanout,
            "balancer": CLUSTER_CONFIG.balancer,
            "requests": CLUSTER_CONFIG.num_requests,
            "load": CLUSTER_LOAD,
            "wall_s": round(cluster_wall, 3),
            "wall_s_tailobs_off": round(cluster_wall, 3),
            "wall_s_tailobs_on": round(cluster_wall_on, 3),
            "tailobs_on_overhead": (
                round(cluster_wall_on / cluster_wall, 3)
                if cluster_wall > 0
                else 0.0
            ),
            "tailobs_records": tailobs_records,
            "tailobs_identical_results": telemetry_identical,
            "tailobs_kernel_ran": tailobs_kernel_ran,
            "wall_s_energy_on": round(cluster_wall_energy, 3),
            "energy_on_overhead": (
                round(cluster_wall_energy / cluster_wall, 3)
                if cluster_wall > 0
                else 0.0
            ),
            "energy_records": energy_records,
            "energy_identical_results": energy_identical,
            "energy_kernel_ran": energy_kernel_ran,
            "energy_conserved": energy_conserved,
            "p999_us": round(cluster_cell.p999_us, 3),
            "p999_rel_err": round(cluster_cell.p999_rel_err, 5),
            "requests_per_watt": round(cluster_cell.requests_per_watt, 1),
            "utilization_spread": round(
                cluster_cell.max_utilization - cluster_cell.min_utilization, 5
            ),
            "validation_violations": len(cluster_violations),
        },
        "cluster_jsq": jsq_section,
    }
    out = pathlib.Path(options.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))

    failed = False
    if cluster_violations:
        print(
            f"CLUSTER VALIDATION FAILED: {len(cluster_violations)} invariant"
            " violation(s) in the pinned cluster sweep:",
            file=sys.stderr,
        )
        for violation in cluster_violations[:10]:
            print(f"  {violation}", file=sys.stderr)
        failed = True
    if cluster_cell.p999_rel_err > CLUSTER_MAX_REL_ERR:
        print(
            f"CLUSTER CONVERGENCE FAILED: p99.9 relative error"
            f" {cluster_cell.p999_rel_err:.4f} exceeds"
            f" {CLUSTER_MAX_REL_ERR}",
            file=sys.stderr,
        )
        failed = True
    if not telemetry_identical:
        print(
            "TAILOBS IDENTITY FAILED: the cluster cell differs with tail"
            " telemetry on — telemetry must never change simulation"
            " results",
            file=sys.stderr,
        )
        failed = True
    if not energy_identical:
        print(
            "ENERGY IDENTITY FAILED: the cluster cell differs with the"
            " energy plane on — telemetry must never change simulation"
            " results",
            file=sys.stderr,
        )
        failed = True
    if not energy_conserved:
        print(
            "ENERGY CONSERVATION FAILED: the energy pass captured no"
            " ledgers or a ledger's integer shares do not sum to its"
            " power-model total",
            file=sys.stderr,
        )
        failed = True
    for plane, ran in (
        ("TAILOBS", tailobs_kernel_ran),
        ("ENERGY", energy_kernel_ran),
    ):
        if compiled_available and not ran:
            print(
                f"{plane} KERNEL FAILED TO BIND: the telemetry-on cluster"
                " pass fell back to the Python event loop despite a"
                " compiler being available",
                file=sys.stderr,
            )
            failed = True
    if jsq_violations:
        print(
            f"JSQ VALIDATION FAILED: {len(jsq_violations)} invariant"
            " violation(s) in the pinned JSQ sweep:",
            file=sys.stderr,
        )
        for violation in jsq_violations[:10]:
            print(f"  {violation}", file=sys.stderr)
        failed = True
    if compiled_available and not jsq_kernel_ran:
        print(
            "JSQ KERNEL FAILED TO BIND: the pinned JSQ sweep fell back to"
            " the Python event loop despite a compiler being available",
            file=sys.stderr,
        )
        failed = True
    if compiled_available and jsq_speedup < JSQ_MIN_SPEEDUP:
        print(
            f"JSQ SPEEDUP FAILED: compiled event kernel at"
            f" {jsq_speedup:.1f}x over the Python-loop extrapolation,"
            f" below the required {JSQ_MIN_SPEEDUP:.0f}x",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1

    if options.no_gate or not compiled_available or not BASELINE_PATH.exists():
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    limit = baseline["wall_s_compiled"] * GATE_HEADROOM
    if cold_wall > limit:
        print(
            f"PERF GATE FAILED: compiled cold sweep took {cold_wall:.3f}s, "
            f"over the gate of {limit:.3f}s "
            f"({baseline['wall_s_compiled']}s baseline x {GATE_HEADROOM}); "
            "if the slowdown is intentional, update "
            f"{BASELINE_PATH.name} and review the diff",
            file=sys.stderr,
        )
        return 1
    cluster_baseline = baseline.get("cluster_wall_s_compiled")
    if cluster_baseline is not None:
        cluster_limit = cluster_baseline * GATE_HEADROOM
        if cluster_wall > cluster_limit:
            print(
                f"PERF GATE FAILED: compiled cluster sweep took"
                f" {cluster_wall:.3f}s, over the gate of"
                f" {cluster_limit:.3f}s ({cluster_baseline}s baseline x"
                f" {GATE_HEADROOM}); if the slowdown is intentional, update"
                f" {BASELINE_PATH.name} and review the diff",
                file=sys.stderr,
            )
            return 1
    jsq_baseline = baseline.get("cluster_wall_s_jsq_compiled")
    if jsq_baseline is not None:
        jsq_limit = jsq_baseline * GATE_HEADROOM
        if jsq_wall > jsq_limit:
            print(
                f"PERF GATE FAILED: compiled JSQ sweep took"
                f" {jsq_wall:.3f}s, over the gate of {jsq_limit:.3f}s"
                f" ({jsq_baseline}s baseline x {GATE_HEADROOM}); if the"
                f" slowdown is intentional, update {BASELINE_PATH.name}"
                " and review the diff",
                file=sys.stderr,
            )
            return 1
    tail_off_baseline = baseline.get("cluster_wall_s_tailobs_off")
    if tail_off_baseline is not None:
        tail_off_limit = tail_off_baseline * TAILOBS_OFF_HEADROOM
        if cluster_wall > tail_off_limit:
            print(
                f"TAILOBS OFF-PATH GATE FAILED: the telemetry-off cluster"
                f" sweep took {cluster_wall:.3f}s, over the gate of"
                f" {tail_off_limit:.3f}s ({tail_off_baseline}s baseline x"
                f" {TAILOBS_OFF_HEADROOM}); tail telemetry must stay"
                " near-free when disabled — if the slowdown is intentional,"
                f" update {BASELINE_PATH.name} and review the diff",
                file=sys.stderr,
            )
            return 1
    energy_off_baseline = baseline.get("cluster_wall_s_energy_off")
    if energy_off_baseline is not None:
        energy_off_limit = energy_off_baseline * ENERGY_OFF_HEADROOM
        if cluster_wall > energy_off_limit:
            print(
                f"ENERGY OFF-PATH GATE FAILED: the telemetry-off cluster"
                f" sweep took {cluster_wall:.3f}s, over the gate of"
                f" {energy_off_limit:.3f}s ({energy_off_baseline}s baseline"
                f" x {ENERGY_OFF_HEADROOM}); energy attribution must stay"
                " near-free when disabled — if the slowdown is intentional,"
                f" update {BASELINE_PATH.name} and review the diff",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

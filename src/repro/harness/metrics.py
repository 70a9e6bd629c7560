"""Metric composition: from core measurements to the Figure 5/6 numbers.

The paper's evaluation metrics are functions of (a) the load-independent
core measurements of :mod:`repro.harness.measure`, (b) the offered load,
and (c) the area/power models.  This module holds those formulas:

* **Core utilization** (Fig 5a): retired instructions over peak retire
  bandwidth, composed from the measured saturated utilization during
  request service and the filler fill rate during idle periods (with the
  per-idle-window morph/restart overhead deducted).
* **Performance density** (Fig 5b): chip instructions/s per mm^2, each
  design paired with a lender-class throughput core and an LLC slice.
* **Energy** (Fig 5c): watts per (instructions/s) — power divided by
  aggregate IPS.
* **Tail latency** (Fig 5d/5e): the M/G/1 service model whose compute
  segments are scaled by the measured IPC slowdown, with per-stall and
  post-idle restart penalties for morphing designs.
* **Batch STP** (Fig 5f): aggregate batch-thread throughput normalized
  to the baseline pairing.
* **NIC IOPS** (Fig 6): master + filler + lender remote-operation rates
  against the FDR IOPS budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import prof, validate
from repro.common.distributions import (
    Deterministic,
    ServiceProgram,
    compile_program,
)
from repro.common.units import seconds_from_us
from repro.core.designs import Design, get_design
from repro.harness.measure import CoreMeasurement
from repro.net.nic import nic_utilization
from repro.power.mcpat import (
    core_power_model,
    design_area_mm2,
    lender_power_model,
    llc_area_mm2,
    llc_static_w,
)
from repro.queueing.mg1 import MG1Simulator, ServiceModel, sample_program
from repro.workloads.filler import (
    FILLER_COMPUTE_US,
    FILLER_INSTRUCTIONS_PER_US,
)
from repro.workloads.microservices import Microservice

#: LLC slice paired with each design for density/energy (1 MB x 2 cores).
LLC_MB_PER_PAIRING = 2.0


# ----------------------------------------------------------------------
# Utilization (Fig 5a)
# ----------------------------------------------------------------------


def nominal_arrival_rate(workload: Microservice, load: float) -> float:
    """Arrival rate (requests/s) for ``load`` of the workload's *nominal*
    capacity — the same offered traffic for every design, so designs that
    inflate service times run at a proportionally higher effective rho
    (this is what blows up SMT tails at high load in the paper)."""
    if not 0 < load < 1:
        raise ValueError(f"load must be in (0, 1), got {load!r}")
    return load / workload.service_distribution().mean()


def utilization_at_load(
    m: CoreMeasurement,
    workload: Microservice,
    load: float,
    service_inflation: float = 1.0,
) -> float:
    """Master-core utilization at offered load ``load`` (Fig 5a).

    The server is busy an ``effective rho = load x service_inflation``
    fraction of time; during service, utilization equals the measured
    saturated value (stall windows already filled per the design); during
    idle periods, fillers run at their idle fill rate, discounted by the
    morph/restart overhead amortized over the mean idle-period length.
    """
    if not 0 < load < 1:
        raise ValueError(f"load must be in (0, 1), got {load!r}")
    if service_inflation <= 0:
        raise ValueError("service inflation must be positive")
    busy = min(load * service_inflation, 1.0)
    busy_util = m.utilization_at_saturation
    idle_util = (m.idle_fill_ipc / m.width) * idle_window_efficiency(
        m, workload, load
    )
    return busy * busy_util + (1.0 - busy) * idle_util


def idle_window_efficiency(
    m: CoreMeasurement, workload: Microservice, load: float
) -> float:
    """Fraction of an average idle period usable by filler threads."""
    if m.switch_overhead_cycles <= 0:
        return 1.0
    mean_idle_s = workload.service_distribution().mean() / load
    idle_cycles = mean_idle_s * m.frequency_hz
    if idle_cycles <= 0:
        return 0.0
    return max(0.0, 1.0 - m.switch_overhead_cycles / idle_cycles)


# ----------------------------------------------------------------------
# Instruction rates, density (Fig 5b), energy (Fig 5c), STP (Fig 5f)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RateBreakdown:
    """Instruction rates (instructions/s) of one design pairing at load."""

    master_ips: float
    filler_ips: float  # batch instructions on the master-core
    lender_ips: float  # batch instructions on the paired throughput core

    @property
    def total_ips(self) -> float:
        return self.master_ips + self.filler_ips + self.lender_ips

    @property
    def batch_ips(self) -> float:
        return self.filler_ips + self.lender_ips


def rate_breakdown(
    m: CoreMeasurement,
    workload: Microservice,
    load: float,
    service_inflation: float = 1.0,
) -> RateBreakdown:
    busy = min(load * service_inflation, 1.0)
    master_ips = busy * m.master_ipc_saturated * m.frequency_hz
    total_core_ips = (
        utilization_at_load(m, workload, load, service_inflation)
        * m.width
        * m.frequency_hz
    )
    filler_ips = max(0.0, total_core_ips - master_ips)
    lender_ips = m.lender_ipc * m.frequency_hz
    return RateBreakdown(
        master_ips=master_ips, filler_ips=filler_ips, lender_ips=lender_ips
    )


def pairing_area_mm2(design: Design | str) -> float:
    """Area of the evaluated pairing: design core + lender + LLC slice."""
    if isinstance(design, str):
        design = get_design(design)
    return (
        design_area_mm2(design.name)
        + design_area_mm2("lender_core")
        + llc_area_mm2(LLC_MB_PER_PAIRING)
    )


def performance_density(
    design: Design | str,
    m: CoreMeasurement,
    workload: Microservice,
    load: float,
    service_inflation: float = 1.0,
) -> float:
    """Instructions per second per mm^2 (Fig 5b, unnormalized)."""
    rates = rate_breakdown(m, workload, load, service_inflation)
    return rates.total_ips / pairing_area_mm2(design)


def energy_per_instruction_nj(
    design: Design | str,
    m: CoreMeasurement,
    workload: Microservice,
    load: float,
    service_inflation: float = 1.0,
) -> float:
    """nJ per retired instruction across the pairing (Fig 5c)."""
    if isinstance(design, str):
        design = get_design(design)
    rates = rate_breakdown(m, workload, load, service_inflation)
    core = core_power_model(design.name)
    lender = lender_power_model()
    power = (
        core.power_w(ooo_ips=rates.master_ips, inorder_ips=rates.filler_ips)
        + lender.power_w(ooo_ips=0.0, inorder_ips=rates.lender_ips)
        + llc_static_w(LLC_MB_PER_PAIRING)
    )
    total_ips = rates.total_ips
    if total_ips <= 0:
        return float("inf")
    return power / total_ips * 1e9


def batch_stp(
    m: CoreMeasurement,
    workload: Microservice,
    load: float,
    service_inflation: float = 1.0,
) -> float:
    """Aggregate batch-thread instruction rate (Fig 5f, unnormalized).

    All batch contexts run statistically identical work, so system
    throughput (normalized-progress STP [123]) reduces to aggregate batch
    IPS up to a constant factor.
    """
    return rate_breakdown(m, workload, load, service_inflation).batch_ips


# ----------------------------------------------------------------------
# Tail latency (Fig 5d / 5e)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DesignServiceModel(ServiceModel):
    """Per-request service time under one design.

    Each phase's compute stretches by the measured IPC ``slowdown``;
    stalls keep their wall-clock duration but morphing designs append the
    filler-eviction/restart penalty at each stall's end; a request that
    arrives while the core is morphed (idle_before > 0) pays the restart
    once more up front.
    """

    workload: Microservice
    slowdown: float
    per_stall_penalty_s: float = 0.0
    start_penalty_s: float = 0.0

    def __post_init__(self) -> None:
        if self.slowdown <= 0:
            raise ValueError("slowdown must be positive")
        if self.per_stall_penalty_s < 0 or self.start_penalty_s < 0:
            raise ValueError("penalties cannot be negative")

    def service_time(self, rng: np.random.Generator, idle_before: float) -> float:
        total = 0.0
        for phase in self.workload.phases:
            total += (
                seconds_from_us(phase.compute_us.sample(rng)) * self.slowdown
            )
            if phase.stall_us is not None:
                total += seconds_from_us(phase.stall_us.sample(rng))
                total += self.per_stall_penalty_s
        if idle_before > 0:
            total += self.start_penalty_s
        return total

    @property
    def idle_penalty(self) -> float:
        """The restart a request pays when it arrives at an idle core."""
        return self.start_penalty_s

    @cached_property
    def program(self) -> ServiceProgram | None:
        """``service_time``'s terms in its order and float ops: each
        compute draw in seconds times the slowdown, then each stall draw
        in seconds and the per-stall penalty."""
        terms = []
        for phase in self.workload.phases:
            terms.append((phase.compute_us, True, self.slowdown))
            if phase.stall_us is not None:
                terms.append((phase.stall_us, True, None))
                terms.append((Deterministic(self.per_stall_penalty_s), False, None))
        return compile_program(terms, init=0.0)

    def batch_base(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, float, bool] | None:
        """Pre-draw ``n`` base (idle-independent) service times through
        the compiled :attr:`program`, consuming ``rng`` exactly as ``n``
        sequential ``service_time`` calls would, for any number of draws
        per request; see :meth:`DistributionService.batch_base`."""
        base = sample_program(self.program, rng, n)
        # idle_before > 0 always adds start_penalty_s in the scalar path
        # (even when it is 0.0), so has_penalty is unconditionally True.
        return None if base is None else (base, self.start_penalty_s, True)

    def mean_service_time(self) -> float:
        mean = 0.0
        for phase in self.workload.phases:
            mean += seconds_from_us(phase.mean_compute_us()) * self.slowdown
            if phase.stall_us is not None:
                mean += seconds_from_us(phase.mean_stall_us())
                mean += self.per_stall_penalty_s
        return mean


def service_model_for(
    design: Design | str,
    m: CoreMeasurement,
    baseline: CoreMeasurement,
    workload: Microservice,
) -> DesignServiceModel:
    """Build the design's M/G/1 service model from measured slowdowns."""
    if isinstance(design, str):
        design = get_design(design)
    slowdown = max(
        baseline.master_compute_ipc / max(m.master_compute_ipc, 1e-9), 1.0
    )
    per_stall = 0.0
    start = 0.0
    if design.morphs:
        per_stall = design.restart_cycles / m.frequency_hz
        start = (design.morph_cycles + design.restart_cycles) / m.frequency_hz
    return DesignServiceModel(
        workload=workload,
        slowdown=slowdown,
        per_stall_penalty_s=per_stall,
        start_penalty_s=start,
    )


#: Above this effective rho the queue is treated as saturated: the
#: arrival rate is clamped so the simulation stays stable and the
#: reported tail is a *lower bound* (the real system would shed load).
SATURATION_RHO = 0.95


def tail_latency_s(
    service: ServiceModel,
    arrival_rate: float,
    *,
    num_requests: int = 50_000,
    warmup: int = 5_000,
    quantile: float = 0.99,
    seed: int = 0,
) -> float:
    """99th-percentile sojourn time of the M/G/1 queue at ``arrival_rate``.

    If the design's inflated service times make the queue unstable at the
    offered rate, the rate is clamped to ``SATURATION_RHO`` of capacity
    (the reported tail then under-states the true degradation).
    """
    if arrival_rate <= 0:
        raise ValueError("arrival rate must be positive")
    mean = service.mean_service_time()
    if arrival_rate * mean >= SATURATION_RHO:
        arrival_rate = SATURATION_RHO / mean
    sim = MG1Simulator(arrival_rate, service, seed=seed)
    result = sim.run(num_requests, warmup=warmup)
    # Conservation check (Little's law, utilization vs rho) on the raw
    # queueing run, before its percentile is extracted and cached.
    validate.dispatch(result, subject=f"queue:rate={arrival_rate:g}")
    tail = result.tail_latency(quantile)
    prof.attach_tail(arrival_rate, quantile, tail)
    return tail


def tail_latency_converged_s(
    service: ServiceModel,
    arrival_rate: float,
    *,
    quantile: float = 0.99,
    target_relative_error: float = 0.05,
    segment_requests: int = 30_000,
    max_segments: int = 24,
    seed: int = 0,
):
    """99p tail with the paper's convergence criterion (Section V).

    "We simulate the queuing system until we achieve 95% confidence
    intervals of 5% error in reported results": simulation segments are
    pooled until the batch-means CI of the percentile converges.
    Returns the :class:`~repro.queueing.stats.Estimate`.
    """
    from repro.queueing.stats import simulate_until_converged

    if arrival_rate <= 0:
        raise ValueError("arrival rate must be positive")
    mean = service.mean_service_time()
    if arrival_rate * mean >= SATURATION_RHO:
        arrival_rate = SATURATION_RHO / mean

    def run_segment(i: int):
        sim = MG1Simulator(arrival_rate, service, seed=seed + 7919 * i)
        return sim.run(segment_requests, warmup=segment_requests // 10)

    estimate, _ = simulate_until_converged(
        run_segment,
        lambda result: result.sojourn_times,
        q=quantile,
        target_relative_error=target_relative_error,
        max_segments=max_segments,
    )
    return estimate


def iso_throughput_rate(
    arrival_rate: float, density: float, baseline_density: float
) -> float:
    """The arrival rate a design serves under the iso-cost comparison
    (Fig 5e): designs with higher performance density serve a fixed total
    throughput with fewer cores, so each core takes proportionally more
    load — and vice versa."""
    if density <= 0 or baseline_density <= 0:
        raise ValueError("densities must be positive")
    return arrival_rate * baseline_density / density


# ----------------------------------------------------------------------
# NIC utilization (Fig 6)
# ----------------------------------------------------------------------


def dyad_network_ops_per_second(
    m: CoreMeasurement,
    workload: Microservice,
    load: float,
    service_inflation: float = 1.0,
) -> float:
    """Remote (NIC) operations per second issued by one dyad."""
    request_rate = nominal_arrival_rate(workload, load)
    master_ops = request_rate * workload.network_ops_per_request()
    rates = rate_breakdown(m, workload, load, service_inflation)
    batch_interval_instr = FILLER_COMPUTE_US * FILLER_INSTRUCTIONS_PER_US
    batch_ops = rates.batch_ips / batch_interval_instr
    return master_ops + batch_ops


def dyad_nic_iops_utilization(
    m: CoreMeasurement,
    workload: Microservice,
    load: float,
    service_inflation: float = 1.0,
) -> float:
    """Fraction of one FDR port's IOPS budget a dyad consumes (Fig 6)."""
    return nic_utilization(
        dyad_network_ops_per_second(m, workload, load, service_inflation)
    ).iops_utilization

"""M/G/1 FCFS queue simulation at request granularity.

This is the reproduction's BigHouse: Poisson arrivals, general service
times, one FCFS server.  The paper (Section V) measures IPC in the core
model, scales the measured service-time distribution by the IPC slowdown,
and simulates the queue at request granularity; this module is that last
stage.

The simulation uses the Lindley recurrence

    W_{n+1} = max(0, W_n + S_n - A_{n+1})

which is exact for G/G/1-FCFS and directly yields waiting times, sojourn
times, idle-period durations and server utilization.

Service models may react to the idle period that preceded a request: this
is how architecture-dependent effects (a Duplexity master-core paying a
~50-cycle restart after running filler threads, a MorphCore paying a
microcode register reload) enter the queueing layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from repro import energy, obs, prof
from repro.common.distributions import (
    Distribution,
    ServiceProgram,
    compile_program,
)


class ServiceModel(Protocol):
    """Produces a service time for each request."""

    def service_time(self, rng: np.random.Generator, idle_before: float) -> float:
        """Service time (seconds) given the server idle time preceding
        this request (0.0 if the request queued behind another)."""
        ...

    def mean_service_time(self) -> float:
        """Approximate mean, used to convert load factors to arrival rates."""
        ...


@dataclass(frozen=True)
class DistributionService:
    """A service model that ignores server state."""

    dist: Distribution

    #: Restart penalty charged after an idle period (none here).
    idle_penalty = 0.0

    def service_time(self, rng: np.random.Generator, idle_before: float) -> float:
        return self.dist.sample(rng)

    def mean_service_time(self) -> float:
        return self.dist.mean()

    @cached_property
    def program(self) -> ServiceProgram | None:
        return compile_program([(self.dist, False, None)])

    def batch_base(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, float, bool] | None:
        """Pre-draw ``n`` base service times for the batched Lindley path.

        Contract (shared by every ``batch_base``): on success, consume
        ``rng`` exactly as ``n`` sequential ``service_time`` calls would
        and return ``(base, idle_penalty, has_penalty)``; on ineligibility
        return ``None`` *without touching the generator* so the scalar
        reference loop sees an untouched stream.  Every implementation
        samples its compiled :class:`ServiceProgram`.
        """
        base = sample_program(self.program, rng, n)
        return None if base is None else (base, 0.0, False)


@dataclass(frozen=True)
class RestartPenaltyService:
    """Base service time plus a fixed penalty after any idle period.

    Models cores that must switch out of filler-thread mode before serving
    a request that arrives while the master-thread is idle (Duplexity's
    fast restart, MorphCore's microcode reload).  ``penalty`` is charged
    only when ``idle_before`` is positive, i.e. the core had morphed.
    """

    dist: Distribution
    penalty: float

    def __post_init__(self) -> None:
        if self.penalty < 0:
            raise ValueError(f"penalty must be non-negative, got {self.penalty!r}")

    def service_time(self, rng: np.random.Generator, idle_before: float) -> float:
        base = self.dist.sample(rng)
        return base + self.penalty if idle_before > 0 else base

    @property
    def idle_penalty(self) -> float:
        return self.penalty

    @cached_property
    def program(self) -> ServiceProgram | None:
        return compile_program([(self.dist, False, None)])

    def batch_base(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, float, bool] | None:
        """See :meth:`DistributionService.batch_base`; the idle penalty is
        applied inside the Lindley recurrence exactly where the scalar
        path applies it (``base + penalty`` when ``idle_before > 0``)."""
        base = sample_program(self.program, rng, n)
        return None if base is None else (base, self.penalty, True)

    def mean_service_time(self) -> float:
        # The penalty applies to the (load-dependent) fraction of requests
        # arriving at an idle server; for rate conversion we use the base
        # mean, which keeps offered-load definitions consistent across
        # designs.  The penalty then manifests as extra utilization/tail.
        return self.dist.mean()


def sample_program(
    program: ServiceProgram | None, rng: np.random.Generator, n: int
) -> np.ndarray | None:
    """``program.sample(rng, n)``, or ``None`` for a model that does not
    compile (the generator is then untouched)."""
    return None if program is None else program.sample(rng, n)


@dataclass(frozen=True)
class QueueResult:
    """Outcome of one M/G/1 simulation run.  Times in seconds.

    All fields describe the same *measurement window*: the post-warmup
    span from the first retained arrival to the last departure.  Waiting
    and service times, idle periods, busy time and duration are trimmed
    consistently, so ``utilization`` and the idle-period CDF agree with
    the sojourn statistics about which requests are being measured.
    """

    wait_times: np.ndarray
    service_times: np.ndarray
    idle_periods: np.ndarray
    busy_time: float
    duration: float
    #: Offered Poisson arrival rate (requests/s); 0.0 when unknown (e.g.
    #: a hand-built result).  Lets :mod:`repro.validate` test Little's
    #: law and utilization-vs-rho conservation against the offered load.
    arrival_rate: float = 0.0

    @property
    def sojourn_times(self) -> np.ndarray:
        return self.wait_times + self.service_times

    @property
    def utilization(self) -> float:
        return self.busy_time / self.duration if self.duration > 0 else 0.0

    @property
    def num_requests(self) -> int:
        return int(self.wait_times.size)

    def tail_latency(self, q: float = 0.99) -> float:
        from repro.queueing.stats import percentile

        return percentile(self.sojourn_times, q)


class MG1Simulator:
    """Poisson arrivals into a single FCFS server."""

    def __init__(
        self,
        arrival_rate: float,
        service: ServiceModel | Distribution,
        seed: int = 0,
    ):
        if arrival_rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {arrival_rate!r}")
        if isinstance(service, Distribution):
            service = DistributionService(service)
        self.arrival_rate = arrival_rate
        self.service = service
        self.seed = seed

    @classmethod
    def at_load(
        cls,
        load: float,
        service: ServiceModel | Distribution,
        seed: int = 0,
    ) -> "MG1Simulator":
        """Build a simulator offered ``load`` (rho) of the service capacity."""
        if not 0 < load < 1:
            raise ValueError(f"load must be in (0, 1), got {load!r}")
        if isinstance(service, Distribution):
            service = DistributionService(service)
        mean = service.mean_service_time()
        if mean <= 0:
            raise ValueError("service model must have positive mean")
        return cls(arrival_rate=load / mean, service=service, seed=seed)

    def run(self, num_requests: int, warmup: int = 0) -> QueueResult:
        """Simulate ``num_requests`` arrivals; drop the first ``warmup``
        from the reported statistics (they still shape queue state).

        Every reported field covers the same measurement window,
        ``[arrival of request warmup, last departure]``: warmup requests
        shape the queue state carried into the window (their residual
        backlog is served — and counted as busy time — inside it), but
        their waiting/service times, the idle periods that preceded
        them, and the wall time they occupied are all excluded.
        Previously only ``wait_times``/``service_times`` were trimmed,
        so ``utilization`` and the Fig 1(b) idle-period CDF mixed warmup
        transients into otherwise warmup-free statistics.
        """
        if num_requests <= 0:
            raise ValueError("need a positive number of requests")
        if not 0 <= warmup < num_requests:
            raise ValueError("warmup must be in [0, num_requests)")
        with obs.span(
            "mg1",
            rate=float(self.arrival_rate),
            requests=int(num_requests),
            warmup=int(warmup),
        ):
            return self._run(num_requests, warmup)

    def _run(self, num_requests: int, warmup: int) -> QueueResult:
        rng = np.random.default_rng(self.seed)
        inter_arrivals = rng.exponential(1.0 / self.arrival_rate, size=num_requests)

        # Batched fast path: when the service model's draws are
        # queue-state independent and compile to a service program,
        # pre-draw them in C (identical bitstream) and run the Lindley
        # recurrence in the compiled kernel.  Falls through to the scalar
        # reference loop on any ineligibility; both paths produce
        # bit-identical results.
        result = self._run_batched(rng, inter_arrivals, num_requests, warmup)
        if result is not None:
            return result

        waits = np.empty(num_requests)
        services = np.empty(num_requests)
        idles: list[float] = []
        # Which requests arrived at an idle server (and so paid any
        # restart penalty the service model charges).  Tracked only for
        # the profiler; the simulation itself never reads it.
        penalized = (
            np.zeros(num_requests, dtype=bool) if prof.is_enabled() else None
        )

        arrival = 0.0  # arrival epoch of request n (first gap included)
        window_start = 0.0
        backlog = 0.0  # W_n + S_n carried into the next arrival
        for n in range(num_requests):
            gap = inter_arrivals[n]
            arrival += gap
            residual = backlog - gap
            if residual >= 0:
                wait = residual
                idle_before = 0.0
            else:
                wait = 0.0
                idle_before = -residual
                # An idle period is retained only if it ends at a
                # retained arrival strictly inside the window (the idle
                # preceding request ``warmup`` lies before the window;
                # the one before the very first arrival is artificial).
                if n > warmup:
                    idles.append(idle_before)
                if penalized is not None:
                    penalized[n] = True
            if n == warmup:
                window_start = arrival
            service = self.service.service_time(rng, idle_before)
            if service < 0:
                raise ValueError("service model produced a negative time")
            waits[n] = wait
            services[n] = service
            backlog = wait + service

        # Window: first retained arrival -> last departure.  The server
        # spends the first waits[warmup] seconds of it clearing the
        # residual warmup backlog, then serves every retained request.
        last_departure = arrival + backlog
        duration = float(last_departure - window_start)
        busy = float(waits[warmup] + services[warmup:].sum())
        obs.add("mg1.runs")
        obs.add("mg1.requests_completed", num_requests - warmup)
        if penalized is not None:
            penalty = self._idle_penalty()
            prof.record_mg1_run(
                rate=self.arrival_rate,
                waits=waits[warmup:],
                services=services[warmup:],
                penalized=penalized[warmup:] if penalty > 0 else None,
                penalty=penalty,
                seed=self.seed,
            )
            if energy.is_enabled():
                energy.record_mg1_run(
                    rate=self.arrival_rate,
                    requests=num_requests - warmup,
                    busy_s=busy,
                    duration_s=duration,
                    penalized=penalized[warmup:] if penalty > 0 else None,
                    penalty=penalty,
                )
        return QueueResult(
            wait_times=waits[warmup:],
            service_times=services[warmup:],
            idle_periods=np.asarray(idles, dtype=float),
            busy_time=busy,
            duration=duration,
            arrival_rate=self.arrival_rate,
        )

    def _idle_penalty(self) -> float:
        """The restart penalty the service model charges a request that
        arrives at an idle server (for profiler/energy attribution)."""
        return float(getattr(self.service, "idle_penalty", 0.0) or 0.0)

    def _run_batched(
        self,
        rng: np.random.Generator,
        inter_arrivals: np.ndarray,
        num_requests: int,
        warmup: int,
    ) -> QueueResult | None:
        """The vectorized ``_run``: compiled service draws + Lindley.

        Returns ``None`` (with ``rng`` untouched) whenever the fastpath
        is off, the kernel is unavailable, or the service model cannot
        pre-draw its times without changing the bitstream; the caller
        then runs the scalar reference loop.
        """
        from repro.uarch import fastpath

        if fastpath.mode() == "off":
            return None
        batch = getattr(self.service, "batch_base", None)
        if batch is None:
            return None
        from repro.uarch.fastpath.build import load_kernel

        lib = load_kernel()
        if lib is None:
            return None
        decomposed = batch(rng, num_requests)
        if decomposed is None:
            return None
        base, penalty, has_penalty = decomposed

        waits = np.empty(num_requests)
        services = np.empty(num_requests)
        idle_buf = np.empty(num_requests)
        penalized = (
            np.zeros(num_requests, dtype=np.uint8) if prof.is_enabled() else None
        )
        out3 = np.zeros(3)
        gaps = np.ascontiguousarray(inter_arrivals, dtype=np.float64)
        nidles = lib.rfp_lindley(
            gaps.ctypes.data,
            num_requests,
            warmup,
            1 if has_penalty else 0,
            float(penalty),
            base.ctypes.data,
            waits.ctypes.data,
            services.ctypes.data,
            idle_buf.ctypes.data,
            penalized.ctypes.data if penalized is not None else None,
            out3.ctypes.data,
        )
        if nidles < 0:
            raise ValueError("service model produced a negative time")

        arrival, backlog, window_start = out3
        last_departure = arrival + backlog
        duration = float(last_departure - window_start)
        busy = float(waits[warmup] + services[warmup:].sum())
        obs.add("mg1.runs")
        obs.add("mg1.requests_completed", num_requests - warmup)
        if penalized is not None:
            prof_penalty = self._idle_penalty()
            prof.record_mg1_run(
                rate=self.arrival_rate,
                waits=waits[warmup:],
                services=services[warmup:],
                penalized=(
                    penalized[warmup:] != 0 if prof_penalty > 0 else None
                ),
                penalty=prof_penalty,
                seed=self.seed,
            )
            if energy.is_enabled():
                energy.record_mg1_run(
                    rate=self.arrival_rate,
                    requests=num_requests - warmup,
                    busy_s=busy,
                    duration_s=duration,
                    penalized=(
                        penalized[warmup:] != 0 if prof_penalty > 0 else None
                    ),
                    penalty=prof_penalty,
                )
        return QueueResult(
            wait_times=waits[warmup:],
            service_times=services[warmup:],
            idle_periods=idle_buf[: int(nidles)].copy(),
            busy_time=busy,
            duration=duration,
            arrival_rate=self.arrival_rate,
        )

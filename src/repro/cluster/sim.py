"""The cluster simulator: fork-join fan-out over N FCFS dyad-servers.

Topology: an open-loop :class:`~repro.cluster.arrivals.ArrivalProcess`
emits mid-tier request epochs on a shared cluster clock; a
:class:`~repro.cluster.balancers.Balancer` dispatches each request to
``fanout`` distinct leaf servers; every leaf runs the same FCFS Lindley
recurrence as :class:`repro.queueing.mg1.MG1Simulator`; the mid-tier
request completes at the *max* of its leaf sojourns (a simulated
fork-join — the "tail at scale" max is measured, not the closed-form
:class:`repro.queueing.fanout.FanOutMax` approximation).

Seeding discipline: one :class:`repro.common.rng.SeedSequenceFactory`
per run derives independent named streams — ``arrivals`` (+
``arrivals/mod``) for the arrival process, ``dispatch`` for balancer
randomness, and ``server/<i>`` per leaf server's service draws.  Every
stream is a pure function of ``(seed, label)``, so results are
bit-identical whether the compiled kernel or the Python oracle runs,
serially or in a worker pool.

Execution: one global-order event loop serves every balancer.
*State-independent* balancers (random, round-robin) pre-commit the full
assignment matrix; *state-dependent* ones (JSQ, power-of-two) select
from the queue lengths at dispatch time.  The loop has one compiled
implementation, the C kernel ``rfp_cluster_events``: it walks the
assignment matrix (assign mode) or draws the dispatch stream live (JSQ
/ power-of-two modes), and draws each leaf's service time live on its
server stream through the model's compiled service program, all on
NumPy's own ``bitgen_t``, so any bit generator binds and every stream
ends where the interpreted loop leaves it.  The pure-Python loop below
is the reference oracle, byte-identical by construction and by
differential test.  The oracle runs when ``fastpath.mode() == "off"``
(``REPRO_FASTPATH=off``), when no kernel can be built, and for
ineligible runs: a service model without a compiled service program (a
``Sum``, ``Mixture`` or distribution subclass, or no NumPy sampler
library), or a state-dependent balancer the kernel does not know.  The
kernel keeps queue lengths only for JSQ and power-of-two, in per-server
FCFS departure rings, where the oracle drains one global heap; with
tail telemetry on it reports each request's chosen servers, so
telemetry binds the kernel for every balancer.

Window semantics carry over from the M/G/1 path: the measurement window
is ``[arrival of mid-tier request warmup, last departure cluster-wide]``
and every per-server :class:`~repro.queueing.mg1.QueueResult` is trimmed
to it — a server's retained leaves are those fanned out by retained
mid-tier requests, its idle periods keep the M/G/1 ``n > warmup``
retention rule server-locally, and all servers share the cluster window
duration so utilizations are comparable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cluster.arrivals import ArrivalProcess, PoissonArrivals
from repro.cluster.balancers import Balancer, get_balancer
from repro.common.distributions import Distribution
from repro.common.rng import SeedSequenceFactory, derive_seed
from repro.queueing.mg1 import (
    DistributionService,
    MG1Simulator,
    QueueResult,
    ServiceModel,
)

#: Per-server service stream label prefix (``server/0``, ``server/1``..).
SERVER_STREAM_PREFIX = "server/"

#: Balancer randomness stream label.
DISPATCH_STREAM = "dispatch"


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster simulation.  Times in seconds.

    All fields describe the same measurement window: from the arrival of
    mid-tier request ``warmup`` to the last departure on any server.
    """

    #: Retained mid-tier sojourns (max leaf sojourn per request), in
    #: arrival order.
    sojourn_times: np.ndarray
    #: Per-server results trimmed to the shared window; every server
    #: reports the cluster window ``duration`` and the offered per-server
    #: leaf rate as its ``arrival_rate``.
    servers: tuple[QueueResult, ...]
    duration: float
    #: Offered mid-tier arrival rate (requests/s).
    arrival_rate: float
    fanout: int
    balancer: str
    #: Variance-to-mean ratio of arrival counts for the arrival process
    #: (1.0 for Poisson); validation scales rate-noise slack by its root.
    arrival_dispersion: float = 1.0
    #: How many servers ran in the compiled event kernel: all of them
    #: when it bound, 0 when the Python oracle ran.
    fastpath_servers: int = field(default=0, compare=False)

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def num_requests(self) -> int:
        return int(self.sojourn_times.size)

    @property
    def utilizations(self) -> np.ndarray:
        return np.array([s.utilization for s in self.servers])

    @property
    def utilization_spread(self) -> float:
        u = self.utilizations
        return float(u.max() - u.min()) if u.size else 0.0

    def tail_latency(self, q: float = 0.99) -> float:
        from repro.queueing.stats import percentile

        return percentile(self.sojourn_times, q)


class ClusterSimulator:
    """N FCFS dyad-servers behind a load balancer with fork-join fan-out."""

    def __init__(
        self,
        arrivals: ArrivalProcess | float,
        service: ServiceModel | Distribution,
        n_servers: int = 1,
        fanout: int = 1,
        balancer: str | Balancer = "random",
        seed: int = 0,
    ):
        if isinstance(arrivals, (int, float)):
            arrivals = PoissonArrivals(float(arrivals))
        if isinstance(service, Distribution):
            service = DistributionService(service)
        if n_servers <= 0:
            raise ValueError(f"need at least one server, got {n_servers!r}")
        if not 1 <= fanout <= n_servers:
            raise ValueError(
                f"fan-out must be in [1, n_servers={n_servers}], got {fanout!r}"
            )
        self.arrivals = arrivals
        self.service = service
        self.n_servers = n_servers
        self.fanout = fanout
        self.balancer = get_balancer(balancer)
        self.seed = seed

    @classmethod
    def at_load(
        cls,
        load: float,
        service: ServiceModel | Distribution,
        n_servers: int = 1,
        fanout: int = 1,
        balancer: str | Balancer = "random",
        seed: int = 0,
        arrivals=None,
    ) -> "ClusterSimulator":
        """Build a cluster offered per-server leaf load ``load`` (rho).

        Each mid-tier request spawns ``fanout`` leaves spread over
        ``n_servers`` servers, so the mid-tier rate is
        ``load * n_servers / (fanout * mean_service_time)``.
        ``arrivals`` may be a callable mapping that rate to an
        :class:`ArrivalProcess` (default: Poisson).
        """
        if not 0 < load < 1:
            raise ValueError(f"load must be in (0, 1), got {load!r}")
        if isinstance(service, Distribution):
            service = DistributionService(service)
        mean = service.mean_service_time()
        if mean <= 0:
            raise ValueError("service model must have positive mean")
        rate = load * n_servers / (fanout * mean)
        process = arrivals(rate) if arrivals is not None else PoissonArrivals(rate)
        return cls(
            process,
            service,
            n_servers=n_servers,
            fanout=fanout,
            balancer=balancer,
            seed=seed,
        )

    def run(self, num_requests: int, warmup: int = 0) -> ClusterResult:
        """Simulate ``num_requests`` mid-tier arrivals; drop the first
        ``warmup`` from the reported statistics (their leaves still shape
        every server's queue state)."""
        if num_requests <= 0:
            raise ValueError("need a positive number of requests")
        if not 0 <= warmup < num_requests:
            raise ValueError("warmup must be in [0, num_requests)")
        with obs.span(
            "cluster",
            servers=int(self.n_servers),
            fanout=int(self.fanout),
            balancer=self.balancer.name,
            arrivals=self.arrivals.describe(),
            rate=float(self.arrivals.rate()),
            requests=int(num_requests),
            warmup=int(warmup),
        ):
            return self._run(num_requests, warmup)

    # -- executors --------------------------------------------------------

    def _run(self, num_requests: int, warmup: int) -> ClusterResult:
        if (
            self.n_servers == 1
            and self.fanout == 1
            and type(self.arrivals) is PoissonArrivals
        ):
            # Degenerate cluster == the existing M/G/1 path, delegated so
            # the output (stream consumption included) is byte-identical.
            result = MG1Simulator(
                self.arrivals.rate_per_s, self.service, seed=self.seed
            )._run(num_requests, warmup)
            obs.add("cluster.mg1_delegations")
            obs.add("cluster.runs")
            obs.add("cluster.requests_completed", num_requests - warmup)
            obs.add("cluster.leaf_requests", num_requests)
            from repro.cluster import tailobs

            if tailobs.is_enabled():
                tailobs.record_degenerate_run(
                    result=result,
                    rate=self.arrivals.rate_per_s,
                    seed=self.seed,
                    balancer=self.balancer.name,
                    arrivals=self.arrivals.describe(),
                    warmup=warmup,
                )
            return ClusterResult(
                sojourn_times=result.sojourn_times,
                servers=(result,),
                duration=result.duration,
                arrival_rate=result.arrival_rate,
                fanout=1,
                balancer=self.balancer.name,
                arrival_dispersion=1.0,
            )

        streams = SeedSequenceFactory(self.seed)
        epochs = np.ascontiguousarray(
            self.arrivals.epochs(streams, num_requests), dtype=np.float64
        )
        assign = None
        if not self.balancer.state_dependent:
            assign = self.balancer.assignments(
                streams.get(DISPATCH_STREAM),
                num_requests,
                self.fanout,
                self.n_servers,
            )
        return self._run_event_loop(streams, epochs, assign, num_requests, warmup)

    def _run_event_loop(
        self,
        streams: SeedSequenceFactory,
        epochs: np.ndarray,
        assign: np.ndarray | None,
        num_requests: int,
        warmup: int,
    ) -> ClusterResult:
        """The one executor: the compiled event kernel when it binds,
        else the pure-Python reference oracle (see the module docstring
        for when the oracle runs)."""
        from repro.cluster import tailobs
        from repro.uarch import fastpath

        n_servers = self.n_servers
        # Telemetry keeps the dispatch decisions; this is pure recording
        # outside the balancer, so the dispatch stream is untouched.
        decisions = (
            np.empty((num_requests, self.fanout), dtype=np.int64)
            if assign is None and tailobs.is_enabled()
            else None
        )
        rngs = [
            streams.get(f"{SERVER_STREAM_PREFIX}{i}") for i in range(n_servers)
        ]
        dispatch_rng = (
            streams.get(DISPATCH_STREAM) if assign is None else None
        )
        if fastpath.mode() != "off":
            from repro.uarch.fastpath import cluster as fp_cluster

            compiled = fp_cluster.run_cluster_events(
                epochs=epochs,
                assign=assign,
                fanout=self.fanout,
                n_servers=n_servers,
                num_requests=num_requests,
                warmup=warmup,
                service=self.service,
                rngs=rngs,
                dispatch_rng=dispatch_rng,
                balancer=self.balancer,
                decisions=decisions,
            )
            if compiled is not None:
                sojourns, per_server = compiled
                obs.add("cluster.event_kernel_runs")
                return self._assemble(
                    epochs,
                    sojourns,
                    per_server,
                    warmup,
                    n_servers,
                    assign if assign is not None else decisions,
                )
        obs.add("cluster.event_python_runs")
        completion = [0.0] * n_servers
        queue_lengths = np.zeros(n_servers, dtype=np.int64)
        # Global min-heap of (departure epoch, server): draining pending
        # departures up to each arrival is O(log total) instead of a scan
        # over every server's deque.  Pop order within ties differs from
        # the per-server scan, but each pop only decrements its server's
        # queue length, so the drained state at selection time is
        # identical (pinned by a differential test).
        pending: list[tuple[float, int]] = []
        waits_by: list[list[float]] = [[] for _ in range(n_servers)]
        services_by: list[list[float]] = [[] for _ in range(n_servers)]
        idles_by: list[list[float]] = [[] for _ in range(n_servers)]
        warmup_counts = [0] * n_servers
        sojourns = np.empty(num_requests)
        for j in range(num_requests):
            t = float(epochs[j])
            while pending and pending[0][0] <= t:
                queue_lengths[heapq.heappop(pending)[1]] -= 1
            if assign is None:
                chosen = self.balancer.select(
                    dispatch_rng, self.fanout, n_servers, queue_lengths
                )
            else:
                chosen = assign[j]
            if decisions is not None:
                decisions[j] = chosen
            retained = j >= warmup
            worst = 0.0
            for raw in chosen:
                i = int(raw)
                residual = completion[i] - t
                if residual >= 0.0:
                    wait = residual
                    idle_before = 0.0
                else:
                    wait = 0.0
                    idle_before = -residual
                    # The M/G/1 retention rule, server-locally
                    # (`k > warmup_count`): every warmup leaf at this
                    # server precedes every retained one, so the count is
                    # final by the time retained leaves arrive.
                    if retained and len(waits_by[i]) > warmup_counts[i]:
                        idles_by[i].append(idle_before)
                s = self.service.service_time(rngs[i], idle_before)
                if s < 0:
                    raise ValueError("service model produced a negative time")
                waits_by[i].append(wait)
                services_by[i].append(s)
                if not retained:
                    warmup_counts[i] += 1
                departure = t + wait + s
                completion[i] = departure
                heapq.heappush(pending, (departure, i))
                queue_lengths[i] += 1
                sojourn = wait + s
                if sojourn > worst:
                    worst = sojourn
            sojourns[j] = worst
        per_server = [
            (
                np.asarray(waits_by[i], dtype=float),
                np.asarray(services_by[i], dtype=float),
                np.asarray(idles_by[i], dtype=float),
                completion[i],
                warmup_counts[i],
            )
            for i in range(n_servers)
        ]
        return self._assemble(
            epochs,
            sojourns,
            per_server,
            warmup,
            0,
            assign if assign is not None else decisions,
        )

    def _assemble(
        self,
        epochs: np.ndarray,
        sojourns: np.ndarray,
        per_server: list,
        warmup: int,
        fast_servers: int,
        assign: np.ndarray | None = None,
    ) -> ClusterResult:
        num_requests = int(epochs.size)
        window_start = float(epochs[warmup])
        last_departure = window_start
        for _, _, _, server_last, _ in per_server:
            if server_last > last_departure:
                last_departure = server_last
        duration = float(last_departure - window_start)
        rate_mid = float(self.arrivals.rate())
        rate_leaf = rate_mid * self.fanout / self.n_servers
        servers = []
        for waits, services, idles, _, w_i in per_server:
            if w_i < waits.size:
                # The server spends the start of the window clearing the
                # residual warmup backlog (waits of its first retained
                # leaf), then serves every retained leaf — the same
                # window bookkeeping as the single-server path.
                busy = float(waits[w_i] + services[w_i:].sum())
            else:
                busy = 0.0
            servers.append(
                QueueResult(
                    wait_times=waits[w_i:],
                    service_times=services[w_i:],
                    idle_periods=np.asarray(idles, dtype=float),
                    busy_time=busy,
                    duration=duration,
                    arrival_rate=rate_leaf,
                )
            )
        obs.add("cluster.runs")
        obs.add("cluster.requests_completed", num_requests - warmup)
        obs.add("cluster.leaf_requests", num_requests * self.fanout)
        obs.add("cluster.fastpath_servers", fast_servers)
        obs.add("cluster.scalar_servers", self.n_servers - fast_servers)
        from repro import prof
        from repro.cluster import tailobs

        if prof.is_enabled():
            # Per-server waterfalls tagged with the server index, so
            # tailobs' cross-layer drill-down can join an exceedance
            # exemplar to its critical server's queueing decomposition.
            for i, (waits, services, _, _, w_i) in enumerate(per_server):
                if w_i < waits.size:
                    prof.record_mg1_run(
                        rate=rate_leaf,
                        waits=waits[w_i:],
                        services=services[w_i:],
                        penalized=None,
                        penalty=0.0,
                        seed=derive_seed(self.seed, f"cluster-server/{i}"),
                        server=i,
                    )
        from repro import energy

        if energy.is_enabled():
            # Per-server static-energy waterfalls next to the profiler's
            # latency waterfalls (same server tags).
            for i, qr in enumerate(servers):
                energy.record_mg1_run(
                    rate=rate_leaf,
                    requests=int(qr.service_times.size),
                    busy_s=float(qr.busy_time),
                    duration_s=float(qr.duration),
                    server=i,
                )
        if tailobs.is_enabled() and assign is not None:
            tailobs.record_cluster_run(
                epochs=epochs,
                sojourns=sojourns,
                assign=assign,
                per_server=[(w, s) for w, s, _, _, _ in per_server],
                warmup=warmup,
                fanout=self.fanout,
                n_servers=self.n_servers,
                balancer=self.balancer.name,
                arrivals=self.arrivals.describe(),
                rate=rate_mid,
                seed=self.seed,
            )
        return ClusterResult(
            sojourn_times=sojourns[warmup:],
            servers=tuple(servers),
            duration=duration,
            arrival_rate=rate_mid,
            fanout=self.fanout,
            balancer=self.balancer.name,
            arrival_dispersion=float(
                self.arrivals.count_dispersion(num_requests)
            ),
            fastpath_servers=fast_servers,
        )

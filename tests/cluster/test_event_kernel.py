"""The compiled cluster event loop: byte-identity with the Python
reference, stream end states on every bit generator, the growth ejects,
and the eligibility ladder (spy tests proving when the kernel must NOT
bind).
The randomized kernel-vs-oracle differential lives in
``test_executor_fuzz.py``.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster import sim as sim_module
from repro.cluster import tailobs
from repro.cluster.arrivals import MMPPArrivals, PoissonArrivals
from repro.cluster.sim import (
    DISPATCH_STREAM,
    SERVER_STREAM_PREFIX,
    ClusterSimulator,
)
from repro.common.distributions import Distribution, Exponential, ServiceProgram
from repro.common.rng import SeedSequenceFactory, derive_seed
from repro.queueing.mg1 import RestartPenaltyService
from repro.uarch import fastpath
from repro.uarch.fastpath import cluster as fp_cluster

needs_kernel = pytest.mark.skipif(
    not fastpath.is_available(), reason="no C compiler / kernel unavailable"
)

SERVICE = Exponential(100e-6)
PENALIZED = RestartPenaltyService(Exponential(100e-6), 5e-6)
BALANCERS = ("random", "round_robin", "jsq", "power_of_two")
BIT_GENERATORS = (
    np.random.PCG64,
    np.random.Philox,
    np.random.SFC64,
    np.random.MT19937,
)


def streams_on(bit_generator):
    """A stream factory whose generators run on ``bit_generator``."""

    class Streams(SeedSequenceFactory):
        def get(self, label):
            return np.random.Generator(
                bit_generator(derive_seed(self.root_seed, label))
            )

    return Streams


def assert_results_identical(a, b):
    """Every dataclass field equal (bar which executor ran), arrays byte
    for byte."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        if f.name == "fastpath_servers":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        elif f.name == "servers":
            assert len(x) == len(y)
            for sx, sy in zip(x, y):
                assert_results_identical(sx, sy)
        else:
            assert x == y, f.name


def make_sim(
    balancer="jsq",
    fanout=2,
    n_servers=5,
    arrivals=None,
    service=SERVICE,
    seed=11,
    load=0.7,
):
    return ClusterSimulator.at_load(
        load,
        service,
        n_servers=n_servers,
        fanout=fanout,
        balancer=balancer,
        seed=seed,
        arrivals=arrivals,
    )


def run_oracle(sim, num_requests, warmup):
    """Run ``sim`` on the Python reference loop."""
    fastpath.set_mode("off")
    try:
        return sim.run(num_requests, warmup)
    finally:
        fastpath.set_mode(None)


@needs_kernel
class TestKernelByteIdentity:
    @pytest.mark.parametrize("balancer", ["jsq", "power_of_two"])
    @pytest.mark.parametrize("fanout", [1, 2, 4])
    @pytest.mark.parametrize("arrivals", ["poisson", "mmpp"])
    @pytest.mark.parametrize("service", [SERVICE, PENALIZED])
    def test_full_result_identical_to_python_loop(
        self, balancer, fanout, arrivals, service
    ):
        """Every ClusterResult/QueueResult field is byte-identical
        between the compiled event kernel and the Python loop across
        {jsq, power_of_two} x fanout x {Poisson, MMPP} x penalties."""
        process = (
            None if arrivals == "poisson"
            else (lambda rate: MMPPArrivals.bursty(rate))
        )
        fastpath.set_mode("on")
        try:
            compiled = make_sim(
                balancer, fanout, arrivals=process, service=service
            ).run(3_000, 300)
        finally:
            fastpath.set_mode(None)
        reference = run_oracle(
            make_sim(balancer, fanout, arrivals=process, service=service),
            3_000,
            300,
        )
        assert compiled.fastpath_servers == 5
        assert reference.fastpath_servers == 0
        assert_results_identical(compiled, reference)

    @pytest.mark.parametrize(
        "bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__
    )
    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_dispatch_stream_end_state_identical(
        self, balancer, bit_generator, monkeypatch
    ):
        """On any NumPy bit generator the kernel binds, matches the
        Python loop on every result field, and leaves every stream —
        dispatch and each server's — in the oracle's end state (buffered
        half-words included)."""
        captured = []

        class Recording(streams_on(bit_generator)):
            def get(self, label):
                rng = super().get(label)
                captured.append((label, rng))
                return rng

        monkeypatch.setattr(sim_module, "SeedSequenceFactory", Recording)
        fastpath.set_mode("on")
        try:
            compiled = make_sim(balancer, fanout=3).run(2_000, 200)
        finally:
            fastpath.set_mode(None)
        kernel_streams = list(captured)
        captured.clear()
        reference = run_oracle(make_sim(balancer, fanout=3), 2_000, 200)
        assert compiled.fastpath_servers == 5
        assert_results_identical(compiled, reference)
        labels = [label for label, _ in kernel_streams]
        assert labels == [label for label, _ in captured]
        assert DISPATCH_STREAM in labels
        servers = [x for x in labels if x.startswith(SERVER_STREAM_PREFIX)]
        assert len(servers) == 5
        for (label, ours), (_, theirs) in zip(kernel_streams, captured):
            # States hold arrays (Philox, SFC64, MT19937): compare deeply.
            np.testing.assert_equal(
                ours.bit_generator.state, theirs.bit_generator.state, label
            )

    def test_growth_paths_stay_identical(self, monkeypatch):
        """Tiny buffers force every eject path — output doubling, heap
        doubling — without changing a single byte."""
        monkeypatch.setattr(fp_cluster, "HEAP_CAP", 2)
        monkeypatch.setattr(
            fp_cluster, "initial_capacity", lambda n, f, s: 4
        )
        fastpath.set_mode("on")
        try:
            compiled = make_sim("jsq", fanout=3, load=0.9).run(1_500, 150)
        finally:
            fastpath.set_mode(None)
        reference = run_oracle(make_sim("jsq", fanout=3, load=0.9), 1_500, 150)
        assert compiled.fastpath_servers == 5
        assert_results_identical(compiled, reference)

    def test_negative_service_raises_like_the_reference(self):
        # Deterministic rejects negative values, so the program that
        # draws -1.0 per request is built by hand.
        program = ServiceProgram(
            ops=np.zeros(1, dtype=np.int64),
            params=np.array([[-1.0, 0.0, 1.0, 1.0]]),
            init=-0.0,
        )

        @dataclass(frozen=True)
        class NegativeService:
            def service_time(self, rng, idle_before):
                return -1.0

            def mean_service_time(self):
                return 1.0

            @property
            def program(self):
                return program

            def batch_base(self, rng, n):
                return program.sample(rng, n), 0.0, False

        sim = ClusterSimulator(
            PoissonArrivals(1000.0), NegativeService(), n_servers=3,
            fanout=2, balancer="jsq", seed=5,
        )
        raised = []
        real = fp_cluster.run_cluster_events

        def spy(**kwargs):
            try:
                return real(**kwargs)
            except ValueError as err:
                raised.append(err)
                raise

        fastpath.set_mode("on")
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fp_cluster, "run_cluster_events", spy)
                with pytest.raises(ValueError, match="negative"):
                    sim.run(100, 10)
        finally:
            fastpath.set_mode(None)
        # The kernel itself raised; the oracle never ran.
        assert len(raised) == 1


class TestEligibilityLadder:
    """When the kernel must not bind, proven by spies on the driver."""

    def _bomb(self, monkeypatch):
        def bomb(**kwargs):
            raise AssertionError("the event kernel must not bind here")

        monkeypatch.setattr(fp_cluster, "run_cluster_events", bomb)

    def test_fastpath_off_never_binds(self, monkeypatch):
        self._bomb(monkeypatch)
        fastpath.set_mode("off")
        try:
            result = make_sim("jsq").run(500, 50)
        finally:
            fastpath.set_mode(None)
        assert result.fastpath_servers == 0

    def test_tailobs_enabled_never_binds(self, monkeypatch):
        """Tail telemetry on a state-dependent balancer needs the
        per-request decisions, which only the Python loop records.
        (State-independent balancers keep the kernel: see
        test_tailobs.py::test_executors_produce_equal_records.)"""
        self._bomb(monkeypatch)
        fastpath.set_mode("on")
        tailobs.reset()
        tailobs.enable()
        try:
            result = make_sim("jsq").run(500, 50)
            assert len(tailobs.snapshot().runs) == 1
        finally:
            tailobs.reset()
            fastpath.set_mode(None)
        assert result.fastpath_servers == 0

    @needs_kernel
    def test_non_stream_safe_service_falls_back(self, monkeypatch):
        """A service model outside the stream-safe whitelist makes the
        driver return None with every stream untouched; the Python loop
        produces the result."""

        class TwoDraw(Distribution):
            def mean(self):
                return 150e-6

            def sample(self, rng):
                return float(
                    rng.uniform(50e-6, 150e-6) + rng.uniform(0.0, 100e-6)
                )

        returns = []
        real = fp_cluster.run_cluster_events

        def spy(**kwargs):
            value = real(**kwargs)
            returns.append(value)
            return value

        monkeypatch.setattr(fp_cluster, "run_cluster_events", spy)
        fastpath.set_mode("on")
        try:
            result = make_sim("jsq", service=TwoDraw()).run(500, 50)
        finally:
            fastpath.set_mode(None)
        assert returns == [None]
        reference = run_oracle(make_sim("jsq", service=TwoDraw()), 500, 50)
        assert result.fastpath_servers == 0
        assert_results_identical(result, reference)


class TestHeapDrainEquivalence:
    """The retained Python loop's global departure min-heap against the
    original per-server deque scan, bit for bit."""

    @pytest.mark.parametrize("balancer", ["jsq", "power_of_two"])
    def test_heap_loop_matches_deque_reference(self, balancer):
        from collections import deque

        sim = make_sim(balancer, fanout=2)
        num_requests, warmup = 2_000, 200
        result = run_oracle(sim, num_requests, warmup)

        # The pre-heap reference loop, verbatim: per-server departure
        # deques drained by scanning every server at every arrival.
        streams = SeedSequenceFactory(sim.seed)
        epochs = np.ascontiguousarray(
            sim.arrivals.epochs(streams, num_requests), dtype=np.float64
        )
        n_servers = sim.n_servers
        rngs = [
            streams.get(f"{SERVER_STREAM_PREFIX}{i}")
            for i in range(n_servers)
        ]
        dispatch_rng = streams.get(DISPATCH_STREAM)
        completion = [0.0] * n_servers
        queue_lengths = np.zeros(n_servers, dtype=np.int64)
        departures = [deque() for _ in range(n_servers)]
        waits_by = [[] for _ in range(n_servers)]
        services_by = [[] for _ in range(n_servers)]
        idles_by = [[] for _ in range(n_servers)]
        warmup_counts = [0] * n_servers
        sojourns = np.empty(num_requests)
        for j in range(num_requests):
            t = float(epochs[j])
            for i in range(n_servers):
                dep = departures[i]
                while dep and dep[0] <= t:
                    dep.popleft()
                    queue_lengths[i] -= 1
            chosen = sim.balancer.select(
                dispatch_rng, sim.fanout, n_servers, queue_lengths
            )
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
                    if retained and len(waits_by[i]) > warmup_counts[i]:
                        idles_by[i].append(idle_before)
            # fmt: off
                s = sim.service.service_time(rngs[i], idle_before)
                waits_by[i].append(wait)
                services_by[i].append(s)
                if not retained:
                    warmup_counts[i] += 1
                departure = t + wait + s
                completion[i] = departure
                departures[i].append(departure)
                queue_lengths[i] += 1
                sojourn = wait + s
                if sojourn > worst:
                    worst = sojourn
            # fmt: on
            sojourns[j] = worst

        assert np.array_equal(result.sojourn_times, sojourns[warmup:])
        for i, server in enumerate(result.servers):
            w_i = warmup_counts[i]
            assert np.array_equal(
                server.wait_times, np.asarray(waits_by[i][w_i:], dtype=float)
            )
            assert np.array_equal(
                server.service_times,
                np.asarray(services_by[i][w_i:], dtype=float),
            )
            assert np.array_equal(
                server.idle_periods, np.asarray(idles_by[i], dtype=float)
            )

"""Cluster simulator: degenerate M/G/1 identity, executor equivalence,
fork-join law, balancer orderings, and validation invariants."""

import numpy as np
import pytest

from repro import validate
from repro.cluster.arrivals import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.cluster.sim import SERVER_STREAM_PREFIX, ClusterSimulator
from repro.common.distributions import Exponential, LogNormal
from repro.common.rng import SeedSequenceFactory
from repro.queueing.mg1 import DistributionService, MG1Simulator
from repro.queueing.stats import percentile
from repro.uarch import fastpath

SERVICE = Exponential(2e-6)


def result_fields(r):
    return (
        r.sojourn_times,
        [
            (s.wait_times, s.service_times, s.idle_periods, s.busy_time)
            for s in r.servers
        ],
        r.duration,
        r.arrival_rate,
    )


def assert_results_identical(a, b):
    assert np.array_equal(a.sojourn_times, b.sojourn_times)
    assert a.n_servers == b.n_servers
    for sa, sb in zip(a.servers, b.servers):
        assert np.array_equal(sa.wait_times, sb.wait_times)
        assert np.array_equal(sa.service_times, sb.service_times)
        assert np.array_equal(sa.idle_periods, sb.idle_periods)
        assert sa.busy_time == sb.busy_time
        assert sa.duration == sb.duration
        assert sa.arrival_rate == sb.arrival_rate
    assert a.duration == b.duration
    assert a.arrival_rate == b.arrival_rate


class TestDegenerateDelegation:
    def test_single_server_fanout_one_is_mg1_bytewise(self):
        """The acceptance identity: a 1-server fanout-1 Poisson cluster
        is byte-for-byte the existing M/G/1 path."""
        mg1 = MG1Simulator.at_load(0.7, SERVICE, seed=9).run(20_000, 2_000)
        cluster = ClusterSimulator.at_load(0.7, SERVICE, seed=9).run(
            20_000, 2_000
        )
        assert cluster.n_servers == 1
        (server,) = cluster.servers
        assert np.array_equal(server.wait_times, mg1.wait_times)
        assert np.array_equal(server.service_times, mg1.service_times)
        assert np.array_equal(server.idle_periods, mg1.idle_periods)
        assert server.busy_time == mg1.busy_time
        assert server.duration == mg1.duration
        assert server.arrival_rate == mg1.arrival_rate
        assert np.array_equal(cluster.sojourn_times, mg1.sojourn_times)
        assert cluster.duration == mg1.duration

    def test_non_poisson_single_server_not_delegated(self):
        """A bursty 1-server cluster must run the real cluster path (it
        cannot reuse the Poisson M/G/1 stream layout)."""
        arrivals = MMPPArrivals.bursty(0.7 / SERVICE.mean())
        result = ClusterSimulator(arrivals, SERVICE, seed=1).run(5_000, 500)
        assert result.arrival_dispersion > 1.0


class TestExecutorEquivalence:
    def test_fork_join_max_matches_manual_recurrence(self):
        """fanout == n_servers with round-robin: every server sees every
        epoch, so the cluster sojourn is the max over manually-run
        per-server recurrences on the shared arrival stream."""
        fastpath.set_mode("off")
        try:
            sim = ClusterSimulator.at_load(
                0.5, SERVICE, n_servers=3, fanout=3,
                balancer="round_robin", seed=4,
            )
            result = sim.run(2_000, 200)
        finally:
            fastpath.set_mode(None)
        streams = SeedSequenceFactory(4)
        epochs = sim.arrivals.epochs(SeedSequenceFactory(4), 2_000)
        service = DistributionService(SERVICE)
        per_server = []
        for i in range(3):
            # The FCFS recurrence on absolute epochs, one server at a time.
            rng = streams.get(f"{SERVER_STREAM_PREFIX}{i}")
            completion = 0.0
            sojourns = np.empty(epochs.size)
            for k, t in enumerate(epochs):
                wait = max(completion - t, 0.0)
                s = service.service_time(rng, max(t - completion, 0.0))
                completion = t + wait + s
                sojourns[k] = wait + s
            per_server.append(sojourns)
        expected = np.max(np.stack(per_server), axis=0)[200:]
        assert np.array_equal(result.sojourn_times, expected)


@pytest.mark.skipif(
    not fastpath.is_available(), reason="no C compiler for the fastpath kernel"
)
class TestFastpathIdentity:
    @pytest.mark.parametrize("balancer", ["random", "round_robin"])
    def test_compiled_equals_scalar(self, balancer):
        try:
            make = lambda: ClusterSimulator.at_load(
                0.7, LogNormal(3e-6, 1.5), n_servers=4, fanout=2,
                balancer=balancer, seed=21,
            )
            fastpath.set_mode("off")
            ref = make().run(8_000, 800)
            fastpath.set_mode("on")
            fast = make().run(8_000, 800)
        finally:
            fastpath.set_mode(None)
        assert ref.fastpath_servers == 0
        assert fast.fastpath_servers == 4
        assert_results_identical(ref, fast)


class TestBalancerOrdering:
    def test_jsq_tail_not_worse_than_random(self):
        """S4: JSQ's p99 must not exceed random's beyond noise at a load
        where queueing matters."""
        n, warmup = 40_000, 4_000
        p99 = {}
        for balancer in ("random", "jsq"):
            result = ClusterSimulator.at_load(
                0.7, SERVICE, n_servers=8, fanout=1,
                balancer=balancer, seed=3,
            ).run(n, warmup)
            p99[balancer] = percentile(result.sojourn_times, 0.99)
        # JSQ beats random decisively at rho = 0.7; 10% headroom covers
        # seed noise without weakening the ordering claim.
        assert p99["jsq"] <= p99["random"] * 1.1
        assert p99["jsq"] < p99["random"]

    def test_jsq_balances_utilization_tighter_than_random(self):
        spreads = {}
        for balancer in ("random", "jsq"):
            result = ClusterSimulator.at_load(
                0.6, SERVICE, n_servers=8, balancer=balancer, seed=5
            ).run(20_000, 2_000)
            spreads[balancer] = result.utilization_spread
        assert spreads["jsq"] < spreads["random"]


class TestSeedingAndWindows:
    def test_same_seed_reproducible_different_seed_not(self):
        make = lambda seed: ClusterSimulator.at_load(
            0.6, SERVICE, n_servers=4, fanout=2, seed=seed
        ).run(2_000, 200)
        assert_results_identical(make(11), make(11))
        assert not np.array_equal(make(11).sojourn_times, make(12).sojourn_times)

    @pytest.mark.parametrize("n,warmup", [(2, 0), (100, 99), (500, 0)])
    @pytest.mark.parametrize("balancer", ["random", "jsq"])
    def test_window_edge_cases_run(self, n, warmup, balancer):
        result = ClusterSimulator.at_load(
            0.6, SERVICE, n_servers=3, balancer=balancer, seed=1
        ).run(n, warmup)
        assert result.num_requests == n - warmup
        assert result.duration > 0
        for server in result.servers:
            assert server.duration == result.duration

    def test_mean_utilization_tracks_offered_load(self):
        result = ClusterSimulator.at_load(
            0.6, SERVICE, n_servers=4, fanout=2, seed=2
        ).run(40_000, 4_000)
        assert result.utilizations.mean() == pytest.approx(0.6, rel=0.05)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="fan-out"):
            ClusterSimulator(1e5, SERVICE, n_servers=2, fanout=3)
        with pytest.raises(ValueError, match="server"):
            ClusterSimulator(1e5, SERVICE, n_servers=0)
        with pytest.raises(ValueError, match="load"):
            ClusterSimulator.at_load(1.2, SERVICE)
        sim = ClusterSimulator(1e5, SERVICE)
        with pytest.raises(ValueError, match="positive"):
            sim.run(0)
        with pytest.raises(ValueError, match="warmup"):
            sim.run(10, warmup=10)


class TestValidationInvariants:
    @pytest.mark.parametrize(
        "balancer,arrivals",
        [
            ("random", None),
            ("jsq", None),
            ("power_of_two", None),
            ("round_robin", None),
            ("random", lambda rate: MMPPArrivals.bursty(rate)),
            ("jsq", lambda rate: DiurnalArrivals(rate, 0.5, 0.01)),
        ],
    )
    def test_strict_validation_clean(self, balancer, arrivals):
        """Per-server queue laws plus cluster-wide Little's law and work
        conservation hold on every topology/traffic combination."""
        result = ClusterSimulator.at_load(
            0.6, SERVICE, n_servers=4, fanout=2,
            balancer=balancer, seed=6, arrivals=arrivals,
        ).run(20_000, 2_000)
        violations = validate.check(result, subject="test-cluster")
        assert violations == []

    def test_validation_flags_window_mismatch(self):
        import dataclasses

        result = ClusterSimulator.at_load(
            0.6, SERVICE, n_servers=2, seed=0
        ).run(2_000, 200)
        broken = dataclasses.replace(
            result,
            servers=(
                result.servers[0],
                dataclasses.replace(
                    result.servers[1], duration=result.duration * 2
                ),
            ),
        )
        invariants = {v.invariant for v in validate.check(broken)}
        assert "shared-window" in invariants

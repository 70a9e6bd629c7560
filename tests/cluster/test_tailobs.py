"""Cluster tail observability: critical-path reconciliation, attribution
conservation, queue-length reconstruction, SLO math, worker deltas, and
the obs contract (off by default, result-transparent)."""

import dataclasses
import pickle

import numpy as np
import pytest

import repro.cluster.experiment as cluster_experiment
from repro import validate
from repro.cluster import tailobs
from repro.cluster.experiment import ClusterConfig, run_cluster_sweep
from repro.cluster.metrics import (
    burn_rate,
    slo_exceedances,
    worst_window_exceedances,
)
from repro.cluster.sim import ClusterSimulator
from repro.cluster.tailobs import SLObjective, TailObsConfig
from repro.common.distributions import Exponential
from repro.harness import cache
from repro.queueing.stats import percentile
from repro.uarch import fastpath
from repro.workloads.microservices import wordstem

SERVICE = Exponential(2e-6)


@pytest.fixture(autouse=True)
def _fresh_tailobs():
    tailobs.reset()
    yield
    tailobs.reset()


def run_cluster(
    balancer="jsq",
    fanout=2,
    n_servers=4,
    seed=7,
    n=4_000,
    warmup=400,
    load=0.7,
):
    sim = ClusterSimulator.at_load(
        load, SERVICE, n_servers=n_servers, fanout=fanout,
        balancer=balancer, seed=seed,
    )
    return sim.run(n, warmup)


def only_run():
    snap = tailobs.snapshot()
    assert len(snap.runs) == 1
    return snap.runs[0]


def test_off_by_default_records_nothing():
    assert not tailobs.is_enabled()
    run_cluster()
    assert tailobs.snapshot().empty


class TestReconciliation:
    @pytest.mark.parametrize(
        "balancer", ["random", "round_robin", "jsq", "power_of_two"]
    )
    @pytest.mark.parametrize("fanout", [1, 2, 4])
    def test_critical_path_exact(self, balancer, fanout):
        """The acceptance property: for every record, the critical leaf's
        wait + service *is* the fork-join sojourn — exact float equality,
        because the reconstruction repeats the executor's own addition."""
        tailobs.enable()
        run_cluster(balancer=balancer, fanout=fanout, n=3_000, warmup=300)
        run = only_run()
        assert run.records
        for rec in run.records:
            crit = rec.waits[rec.crit_leaf] + rec.services[rec.crit_leaf]
            assert crit == rec.sojourn_s
            for w, s in zip(rec.waits, rec.services):
                assert w + s <= rec.sojourn_s
        assert validate.check(run) == []

    def test_recorded_sojourns_match_result(self):
        tailobs.enable()
        result = run_cluster(balancer="random")
        run = only_run()
        for rec in run.records:
            assert rec.sojourn_s == result.sojourn_times[rec.index - run.warmup]
            assert rec.arrival_s > 0
            assert len(rec.servers) == run.fanout
            assert len(set(rec.servers)) == run.fanout


class TestAttribution:
    def test_integer_conservation_and_request_cover(self):
        """Shares sum to the exceedance mass as an integer identity, and
        the mass equals the per-request ps exceedances of *every* request
        past the quantile (attribution never loses requests to caps)."""
        tailobs.enable()
        result = run_cluster(balancer="jsq")
        run = only_run()
        retained = result.sojourn_times
        assert run.attributions
        for att in run.attributions:
            assert sum(att.shares_ps.values()) == att.exceedance_ps
            assert all(v >= 0 for v in att.shares_ps.values())
            value = run.quantile_value(att.quantile)
            assert value == att.threshold_s
            over = retained[retained > value]
            assert att.requests == over.size
            expected = sum(int(round((s - value) * 1e12)) for s in over)
            assert att.exceedance_ps == expected

    def test_fanout_one_has_no_straggle(self):
        tailobs.enable()
        run_cluster(balancer="random", fanout=1)
        run = only_run()
        for att in run.attributions:
            assert att.shares_ps["straggle"] == 0

    def test_shares_are_fractions_of_mass(self):
        tailobs.enable()
        run_cluster(balancer="jsq")
        run = only_run()
        att = run.attributions[0]
        assert sum(att.share(c) for c in tailobs.CAUSES) == pytest.approx(1.0)


class TestQueueReconstruction:
    def test_matches_live_event_loop_state(self, monkeypatch):
        """The reconstructed dispatch-time queue lengths equal the queue
        state the Python event loop actually showed the balancer (spied
        via a wrapped JSQ select), whichever executor reported the
        decisions the telemetry is built from."""
        from repro.cluster import balancers

        live = []
        original = balancers.JSQBalancer.select

        def spy(self, rng, fanout, n_servers, queue_lengths):
            chosen = original(self, rng, fanout, n_servers, queue_lengths)
            live.append((queue_lengths.copy(), np.array(chosen)))
            return chosen

        monkeypatch.setattr(balancers.JSQBalancer, "select", spy)
        fastpath.set_mode("off")
        try:
            run_cluster(balancer="jsq", n=2_000, warmup=200)
        finally:
            fastpath.set_mode(None)
        assert len(live) == 2_000
        tailobs.enable(TailObsConfig(reservoir=128))
        run_cluster(balancer="jsq", n=2_000, warmup=200)
        run = only_run()
        assert run.queues_observed
        assert run.records
        for rec in run.records:
            qlens, _ = live[rec.index]
            assert rec.min_queue_len == int(qlens.min())
            for slot, server in enumerate(rec.servers):
                assert rec.queue_lens[slot] == int(qlens[server])

    def test_chosen_never_below_minimum(self):
        tailobs.enable()
        run_cluster(balancer="power_of_two")
        run = only_run()
        for rec in run.records:
            assert min(rec.queue_lens) >= rec.min_queue_len


class TestSelection:
    def test_threshold_captures_all_above(self):
        threshold = 30e-6
        tailobs.enable(
            TailObsConfig(quantiles=(), threshold_s=threshold, reservoir=0)
        )
        result = run_cluster(balancer="random")
        run = only_run()
        expected = np.flatnonzero(result.sojourn_times > threshold)
        assert [r.index - run.warmup for r in run.records] == list(expected)

    def test_reservoir_is_private_and_reproducible(self):
        config = TailObsConfig(quantiles=(), threshold_s=None, reservoir=16)
        tailobs.enable(config)
        run_cluster(balancer="random", seed=5)
        first = [r.index for r in only_run().records]
        assert len(first) == 16
        tailobs.reset()
        tailobs.enable(config)
        run_cluster(balancer="random", seed=5)
        assert [r.index for r in only_run().records] == first

    def test_config_validation(self):
        with pytest.raises(ValueError, match="quantiles"):
            TailObsConfig(quantiles=(1.5,))
        with pytest.raises(ValueError, match="reservoir"):
            TailObsConfig(reservoir=-1)
        with pytest.raises(ValueError, match="burn window"):
            TailObsConfig(burn_window=0)
        with pytest.raises(ValueError, match="latency"):
            SLObjective(0.0)
        with pytest.raises(ValueError, match="target"):
            SLObjective(1e-3, target=1.0)


class TestSLO:
    def test_stats_match_hand_computation(self):
        objective = SLObjective(20e-6, target=0.99)
        tailobs.enable(TailObsConfig(slos=(objective,), burn_window=500))
        result = run_cluster(balancer="jsq", n=2_000, warmup=200)
        run = only_run()
        (stat,) = run.slos
        soj = result.sojourn_times
        over = soj > objective.latency_s
        exceed = int(np.count_nonzero(over))
        assert stat.exceedances == exceed
        assert stat.requests == soj.size
        assert stat.burn_rate == pytest.approx((exceed / soj.size) / 0.01)
        window = 500
        worst = max(
            int(over[i : i + window].sum())
            for i in range(soj.size - window + 1)
        )
        assert stat.worst_window_burn == pytest.approx(
            (worst / window) / 0.01
        )

    def test_metric_helpers(self):
        soj = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) * 1e-6
        over = slo_exceedances(soj, 1.5e-6)
        assert over.tolist() == [False, True, True, True, False]
        assert burn_rate(3, 5, 0.9) == pytest.approx((3 / 5) / 0.1)
        assert burn_rate(0, 0, 0.9) == 0.0
        rng = np.random.default_rng(0)
        mask = rng.random(200) > 0.7
        for window in (1, 7, 50, 200, 500):
            w = min(window, mask.size)
            brute = max(
                int(mask[i : i + w].sum()) for i in range(mask.size - w + 1)
            )
            assert worst_window_exceedances(mask, window) == brute


class TestResultTransparency:
    @pytest.mark.parametrize("balancer", ["jsq", "power_of_two"])
    def test_simulation_identical_with_telemetry_on(self, balancer):
        """Satellite guarantee: telemetry never perturbs the dispatch
        stream — per-request sojourns (tie-break draws included) are
        byte-identical with capture on vs off."""
        off = run_cluster(balancer=balancer, seed=11)
        tailobs.enable()
        on = run_cluster(balancer=balancer, seed=11)
        assert np.array_equal(off.sojourn_times, on.sojourn_times)
        for a, b in zip(off.servers, on.servers):
            assert np.array_equal(a.wait_times, b.wait_times)
            assert np.array_equal(a.service_times, b.service_times)
        assert len(tailobs.snapshot().runs) == 1

    @pytest.mark.skipif(
        not fastpath.is_available(), reason="no C compiler for the kernel"
    )
    @pytest.mark.parametrize(
        "balancer", ["random", "round_robin", "jsq", "power_of_two"]
    )
    def test_executors_produce_equal_records(self, balancer):
        """With telemetry on, every policy still runs the compiled event
        kernel (JSQ and power-of-two report their decisions from C), and
        it reconstructs the *same* telemetry as the Python oracle (same
        records, same attribution)."""
        tailobs.enable()
        fastpath.set_mode("on")
        try:
            compiled = run_cluster(balancer=balancer, seed=3)
        finally:
            fastpath.set_mode(None)
        kernel = only_run()
        tailobs.reset()
        tailobs.enable()
        fastpath.set_mode("off")
        try:
            reference = run_cluster(balancer=balancer, seed=3)
        finally:
            fastpath.set_mode(None)
        assert compiled.fastpath_servers == compiled.n_servers
        assert reference.fastpath_servers == 0
        assert kernel == only_run()


class TestDegenerateDelegation:
    def test_single_server_poisson_is_recorded(self):
        tailobs.enable(
            TailObsConfig(slos=(SLObjective(15e-6, target=0.99),))
        )
        result = ClusterSimulator.at_load(0.7, SERVICE, seed=9).run(
            4_000, 400
        )
        run = only_run()
        assert run.n_servers == 1 and run.fanout == 1
        assert not run.queues_observed
        assert run.records
        for rec in run.records:
            assert rec.servers == (0,)
            assert rec.min_queue_len == 0
            assert rec.sojourn_s == result.sojourn_times[rec.index - run.warmup]
            assert rec.waits[0] + rec.services[0] == rec.sojourn_s
        for att in run.attributions:
            assert att.shares_ps["misplacement"] == 0
            assert sum(att.shares_ps.values()) == att.exceedance_ps
        (stat,) = run.slos
        assert stat.exceedances == int(
            np.count_nonzero(result.sojourn_times > 15e-6)
        )
        assert validate.check(run) == []


class TestValidationHooks:
    def test_validator_flags_broken_reconciliation(self):
        tailobs.enable()
        run_cluster(balancer="jsq")
        run = only_run()
        rec = run.records[0]
        broken = dataclasses.replace(
            run,
            records=(dataclasses.replace(rec, sojourn_s=rec.sojourn_s * 2),)
            + run.records[1:],
        )
        invariants = {v.invariant for v in validate.check(broken)}
        assert "crit-path-reconciliation" in invariants

    def test_validator_flags_broken_attribution(self):
        tailobs.enable()
        run_cluster(balancer="jsq")
        run = only_run()
        att = run.attributions[0]
        shares = dict(att.shares_ps)
        shares["service"] += 1
        broken = dataclasses.replace(
            run,
            attributions=(dataclasses.replace(att, shares_ps=shares),)
            + run.attributions[1:],
        )
        invariants = {v.invariant for v in validate.check(broken)}
        assert "attribution-conservation" in invariants


class TestWorkerDelta:
    def test_mark_delta_merge_round_trip(self):
        tailobs.enable()
        run_cluster(balancer="random", seed=1)
        before = tailobs.mark()
        run_cluster(balancer="jsq", seed=2)
        delta = tailobs.delta_since(before)
        assert len(delta.runs) == 1
        assert delta.runs[0].balancer == "jsq"
        revived = pickle.loads(pickle.dumps(delta))
        assert revived == delta
        full = tailobs.snapshot()
        tailobs.reset()
        tailobs.enable()
        run_cluster(balancer="random", seed=1)
        tailobs.merge_delta(revived)
        assert tailobs.snapshot() == full

    def test_configure_worker_starts_clean(self):
        tailobs.enable(TailObsConfig(reservoir=3))
        run_cluster(balancer="random")
        shipped = tailobs.config_for_worker()
        revived = pickle.loads(pickle.dumps(shipped))
        tailobs.configure_worker(revived)
        # Forked parent runs must not leak into the worker's delta.
        assert tailobs.snapshot().empty
        assert tailobs.is_enabled()
        assert tailobs.current_config().reservoir == 3
        tailobs.configure_worker({"enabled": False, "config": None})
        assert not tailobs.is_enabled()

    def test_pooled_sweep_reproduces_serial_telemetry(self):
        """Satellite guarantee: a pooled cluster sweep captures exactly
        the runs a serial sweep does (deltas merged in submission
        order)."""
        config = ClusterConfig(
            n_servers=4, fanout=2, balancer="jsq",
            num_requests=3_000, warmup=300,
        )
        loads = (0.4, 0.7)
        workload = wordstem()
        previous = cache.current_config()
        cache.configure(enabled=False)  # cached cells skip simulation
        try:
            tailobs.enable()
            cluster_experiment._CLUSTER_CACHE.clear()
            serial = run_cluster_sweep(
                "duplexity", workload, loads, config, workers=1
            )
            serial_snap = tailobs.snapshot()
            tailobs.reset()
            tailobs.enable()
            cluster_experiment._CLUSTER_CACHE.clear()
            pooled = run_cluster_sweep(
                "duplexity", workload, loads, config, workers=2
            )
            pooled_snap = tailobs.snapshot()
        finally:
            cluster_experiment._CLUSTER_CACHE.clear()
            cache.configure(**previous)
        assert pooled == serial
        assert not serial_snap.empty
        assert pooled_snap == serial_snap
        # Experiment-layer runs carry the ambient context labels.
        assert {run.design for run in serial_snap.runs} == {"duplexity"}
        assert {run.workload for run in serial_snap.runs} == {"WordStem"}
        assert sorted(run.load for run in serial_snap.runs) == list(loads)


class TestExportAndReport:
    def test_export_emits_cluster_records(self, tmp_path):
        from repro import obs
        from repro.obs import export

        tailobs.enable(
            TailObsConfig(slos=(SLObjective(25e-6),))
        )
        run_cluster(balancer="jsq")
        path = tmp_path / "t.jsonl"
        obs.reset()
        try:
            obs.enable(trace_path=path)
            tailobs.export_to_obs(tailobs.snapshot())
        finally:
            obs.reset()
        records = export.read_trace(path)
        kinds = {}
        for r in records:
            if r.get("type") == "cluster":
                kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
        run = only_run()
        assert kinds["run"] == 1
        assert kinds["attribution"] == len(run.attributions)
        assert kinds["slo"] == 1
        assert kinds["request"] == min(
            len(run.records), tailobs.EXPORT_RECORD_CAP
        )
        summary = export.summarize_records(records)
        assert summary.cluster_records == kinds
        text = export.render_prometheus(summary)
        assert 'repro_cluster_record_count{kind="run"} 1' in text

    def test_render_tail_report_sections(self):
        tailobs.enable(
            TailObsConfig(slos=(SLObjective(25e-6),))
        )
        with tailobs.context(design="duplexity", workload="WordStem", load=0.7):
            run_cluster(balancer="jsq")
        report = tailobs.render_tail_report(tailobs.snapshot())
        assert "cluster tail report: duplexity/WordStem load 0.7" in report
        assert "tail attribution (share of exceedance mass)" in report
        assert "SLO objectives" in report
        assert "slowest recorded requests" in report
        assert "misplacement" in report

    def test_empty_report(self):
        assert "no cluster runs" in tailobs.render_tail_report(
            tailobs.snapshot()
        )

    def test_live_totals_in_grid_stats(self):
        from repro.harness.parallel import GridRunStats
        from repro.harness.reporting import format_grid_stats

        tailobs.enable()
        run_cluster(balancer="random")
        out = format_grid_stats(GridRunStats())
        assert "tailobs.runs" in out
        assert "tailobs.records" in out

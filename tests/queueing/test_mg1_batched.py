"""Batched M/G/1 fast path vs the scalar reference loop.

The batched ``_run`` pre-draws service times through the compiled
service program (NumPy's own C samplers on the exact same generator
stream the scalar loop would consume) and runs the Lindley recurrence in
the compiled kernel.  Its contract is bit identity: every
``QueueResult`` field — wait/service arrays, idle periods, busy time,
window duration — must equal the scalar loop's, for every eligible
service model, and ineligible models must fall back without perturbing
the stream.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import energy, prof
from repro.common.distributions import (
    Deterministic,
    Exponential,
    LogNormal,
    Mixture,
    Pareto,
    ScaledDistribution,
    SumDistribution,
    Uniform,
    is_stream_safe,
)
from repro.harness.metrics import DesignServiceModel
from repro.queueing.mg1 import (
    DistributionService,
    MG1Simulator,
    RestartPenaltyService,
)
from repro.uarch import fastpath
from repro.workloads import microservices as ms

pytestmark = pytest.mark.skipif(
    not fastpath.is_available(), reason="no C compiler for the fastpath kernel"
)


@pytest.fixture(autouse=True)
def _restore_mode():
    yield
    fastpath.set_mode(None)


def run_both(make_sim, n, warmup):
    fastpath.set_mode("off")
    ref = make_sim().run(n, warmup)
    fastpath.set_mode("on")
    fast = make_sim().run(n, warmup)
    return ref, fast


def assert_identical(ref, fast):
    assert np.array_equal(ref.wait_times, fast.wait_times)
    assert np.array_equal(ref.service_times, fast.service_times)
    assert np.array_equal(ref.idle_periods, fast.idle_periods)
    assert ref.wait_times.dtype == fast.wait_times.dtype
    assert ref.idle_periods.dtype == fast.idle_periods.dtype
    assert ref.busy_time == fast.busy_time
    assert ref.duration == fast.duration
    assert ref.arrival_rate == fast.arrival_rate


SERVICES = {
    "exponential": lambda: Exponential(2e-6),
    "uniform": lambda: Uniform(1e-6, 4e-6),
    "lognormal": lambda: LogNormal(3e-6, 1.5),
    "pareto": lambda: Pareto(2e-6, 2.5),
    "deterministic": lambda: Deterministic(2e-6),
    "scaled-lognormal": lambda: ScaledDistribution(LogNormal(2e-6, 1.0), 1.7),
}


@pytest.mark.parametrize("name", sorted(SERVICES))
@pytest.mark.parametrize("seed", [0, 3, 12345])
def test_distribution_service_identical(name, seed):
    dist = SERVICES[name]()
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(0.7, dist, seed=seed), 20_000, 2_000
    )
    assert_identical(ref, fast)


@pytest.mark.parametrize("penalty", [0.0, 5e-7])
@pytest.mark.parametrize("seed", [0, 5])
def test_restart_penalty_identical(penalty, seed):
    """Idle-triggered restart penalties are applied inside the compiled
    recurrence at the exact point the scalar loop applies them."""
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(
            0.6, RestartPenaltyService(Exponential(2e-6), penalty), seed=seed
        ),
        20_000,
        2_000,
    )
    assert_identical(ref, fast)
    # Low load => idle periods exist, so penalties actually fired.
    assert ref.idle_periods.size > 0


def same_state(a, b):
    """Generator states equal, including the array-valued words of
    Philox and MT19937."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def assert_batch_matches_scalar(service, rng_factory, n):
    """batch_base(rng, n) equals n sequential service_time calls bit for
    bit and leaves the generator in the same state."""
    r1, r2 = rng_factory(), rng_factory()
    decomposed = service.batch_base(r1, n)
    assert decomposed is not None
    base = decomposed[0]
    seq = np.array([service.service_time(r2, 0.0) for _ in range(n)])
    if decomposed[2]:
        # service_time(rng, 0.0) never adds the idle penalty.
        assert decomposed[1] == service.idle_penalty
    assert base.dtype == np.float64 and base.shape == (n,)
    assert base.tobytes() == seq.astype(np.float64).tobytes()
    assert same_state(r1.bit_generator.state, r2.bit_generator.state)


@pytest.mark.parametrize("workload", ["wordstem", "flann_ha", "rsc", "mcrouter"])
def test_design_service_model(workload):
    """Every paper workload compiles, including the multi-draw ones
    (compute + stall per phase, RSC's three phases)."""
    service = DesignServiceModel(
        getattr(ms, workload)(),
        slowdown=1.3,
        per_stall_penalty_s=1e-8,
        start_penalty_s=3e-8,
    )
    assert_batch_matches_scalar(service, lambda: np.random.default_rng(0), 4_096)
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(0.7, service, seed=11), 20_000, 2_000
    )
    assert_identical(ref, fast)


def test_design_multiphase_with_deterministic_terms():
    """Constant phases (Deterministic compute/stall) consume no draws and
    join the base in the scalar loop's addition order."""
    workload = ms.Microservice(
        name="synthetic",
        phases=(
            ms.Phase(Deterministic(2.0), Deterministic(1.5)),
            ms.Phase(LogNormal(4.0, 0.3), None),
            ms.Phase(Deterministic(0.5), None),
        ),
        profile=ms.wordstem().profile,
    )
    service = DesignServiceModel(
        workload, slowdown=1.2, per_stall_penalty_s=1e-8, start_penalty_s=3e-8
    )
    assert service.batch_base(np.random.default_rng(0), 8) is not None
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(0.6, service, seed=21), 20_000, 2_000
    )
    assert_identical(ref, fast)


def test_batch_base_consumes_stream_exactly():
    """On success, batch_base advances the generator exactly as n
    sequential service_time calls would."""
    for service in (
        DistributionService(LogNormal(2e-6, 1.0)),
        RestartPenaltyService(Exponential(2e-6), 5e-7),
        DesignServiceModel(ms.wordstem(), 1.3, start_penalty_s=3e-8),
    ):
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        service.batch_base(r1, 777)
        for _ in range(777):
            service.service_time(r2, 0.0)
        assert r1.bit_generator.state == r2.bit_generator.state


@pytest.mark.parametrize(
    "dist_name",
    ["exponential", "uniform", "lognormal", "pareto", "scaled-lognormal"],
)
def test_stream_safety_empirical(dist_name):
    """The whitelist's defining property, asserted directly: bulk fills
    produce the same values and leave the generator in the same state as
    sequential scalar draws."""
    dist = SERVICES[dist_name]()
    assert is_stream_safe(dist)
    r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
    bulk = dist.sample_many(r1, 500)
    seq = np.array([dist.sample(r2) for _ in range(500)])
    assert np.array_equal(bulk, seq)
    assert r1.bit_generator.state == r2.bit_generator.state


def test_stream_unsafe_compositions_excluded():
    combo = SumDistribution((Exponential(1e-6), Uniform(1e-6, 2e-6)))
    mix = Mixture((Exponential(1e-6), Exponential(3e-6)), (0.5, 0.5))
    assert not is_stream_safe(combo)
    assert not is_stream_safe(mix)
    # ...and simulations over them still agree (both legs scalar).
    for service in (combo, mix):
        ref, fast = run_both(
            lambda: MG1Simulator.at_load(0.5, service, seed=2), 5_000, 500
        )
        assert_identical(ref, fast)


class _SubclassedExponential(Exponential):
    """A subclass may override ``sample``; it must never compile."""


_UNCOMPILABLE = {
    "sum": SumDistribution((Exponential(1.0), Uniform(1.0, 2.0))),
    "mixture": Mixture((Exponential(1.0), Exponential(3.0)), (0.5, 0.5)),
    "subclass": _SubclassedExponential(2.0),
    "nested-scaling": ScaledDistribution(
        ScaledDistribution(Exponential(1.0), 2.0), 3.0
    ),
}


def _uncompilable_services(dist):
    yield DistributionService(dist)
    yield RestartPenaltyService(dist, 5e-7)
    for phase in (
        ms.Phase(dist, Exponential(1.0)),
        ms.Phase(LogNormal(2.0, 0.3), dist),
    ):
        yield DesignServiceModel(
            ms.Microservice("x", ms.wordstem().profile, (phase,)), 1.2, 1e-8, 3e-8
        )


@pytest.mark.parametrize("name", sorted(_UNCOMPILABLE))
def test_uncompilable_models_leave_the_stream_untouched(name):
    """Sums, mixtures, subclasses and nested scalings anywhere in a model
    make batch_base return None without consuming a single draw, and the
    simulation still agrees (both legs scalar)."""
    for service in _uncompilable_services(_UNCOMPILABLE[name]):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        assert service.batch_base(rng, 64) is None
        assert rng.bit_generator.state == before
        ref, fast = run_both(
            lambda: MG1Simulator.at_load(0.5, service, seed=2), 3_000, 300
        )
        assert_identical(ref, fast)


# -- service-program differential ------------------------------------------

_BIT_GENERATORS = (
    np.random.PCG64,
    np.random.Philox,
    np.random.SFC64,
    np.random.MT19937,
)
_pos = st.floats(0.05, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def _base_dists(draw):
    kind = draw(st.sampled_from(("det", "exp", "uni", "logn", "pareto")))
    if kind == "det":
        return Deterministic(draw(st.one_of(st.just(0.0), _pos)))
    if kind == "exp":
        return Exponential(draw(_pos))
    if kind == "uni":
        low, high = sorted((draw(_pos), draw(_pos)))
        return Uniform(low, high)
    if kind == "logn":
        return LogNormal(draw(_pos), draw(st.floats(0.01, 4.0)))
    return Pareto(draw(_pos), draw(st.floats(1.05, 5.0)))


@st.composite
def _terms(draw):
    dist = draw(_base_dists())
    if draw(st.booleans()):
        return ScaledDistribution(dist, draw(st.floats(0.1, 10.0)))
    return dist


@st.composite
def _services(draw):
    shape = draw(st.sampled_from(("distribution", "restart", "design")))
    if shape == "distribution":
        return DistributionService(draw(_terms()))
    if shape == "restart":
        return RestartPenaltyService(draw(_terms()), draw(st.floats(0.0, 1e-6)))
    phases = draw(
        st.lists(
            st.builds(ms.Phase, _terms(), st.one_of(st.none(), _terms())),
            min_size=1,
            max_size=4,
        )
    )
    return DesignServiceModel(
        ms.Microservice("synthetic", ms.wordstem().profile, tuple(phases)),
        slowdown=draw(st.floats(1.0, 4.0)),
        per_stall_penalty_s=draw(st.sampled_from((0.0, 2.5e-8, 1e-7))),
        start_penalty_s=draw(st.sampled_from((0.0, 5e-8))),
    )


@settings(max_examples=200, deadline=None)
@given(
    service=_services(),
    n=st.one_of(st.integers(0, 3), st.integers(4, 300)),
    bit_generator=st.sampled_from(_BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
)
def test_service_program_matches_sequential_service_time(
    service, n, bit_generator, seed
):
    """rfp_service_program against n sequential service_time calls:
    bit-equal values and equal bit_generator.state, over random phase
    lists of every base distribution (bare or scaled, with and without
    stalls), slowdowns, penalties and all four NumPy bit generators."""
    assert_batch_matches_scalar(
        service, lambda: np.random.Generator(bit_generator(seed)), n
    )


# -- restart-penalty attribution -------------------------------------------


@pytest.mark.parametrize("mode", ["off", "on"])
def test_design_model_restart_penalty_is_attributed(mode):
    """A morphing design's idle restart (``start_penalty_s``) reaches the
    profiler waterfall and the energy plane's penalty carve-out on both
    the scalar and the compiled path."""
    service = DesignServiceModel(ms.rsc(), 1.1, 2.5e-8, 5e-8)
    fastpath.set_mode(mode)
    prof.reset()
    energy.reset()
    prof.enable()
    energy.enable()
    try:
        with prof.context(design="duplexity", workload="rsc"):
            result = MG1Simulator.at_load(0.3, service, seed=7).run(20_000, 2_000)
        (waterfall,) = prof.snapshot().waterfalls
        (joules,) = energy.snapshot().waterfalls
    finally:
        prof.disable()
        energy.disable()
        prof.reset()
        energy.reset()
    # At rho 0.3 most retained requests find the core idle and pay it.
    assert waterfall.penalty_s == 5e-8
    assert waterfall.penalized_requests > result.num_requests // 2
    assert joules.penalty_s == pytest.approx(
        5e-8 * waterfall.penalized_requests, rel=1e-12
    )


@pytest.mark.parametrize(
    "n,warmup",
    [(1, 0), (2, 1), (100, 99), (100, 0), (20_000, 19_999)],
    ids=["single", "pair", "all-warmup", "no-warmup", "one-retained"],
)
def test_window_edge_cases_identical(n, warmup):
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(0.7, Exponential(2e-6), seed=3), n, warmup
    )
    assert_identical(ref, fast)


class TestIdlePeriodWindowAgreement:
    """Idle-period retention (`n > warmup`) at the smallest windows,
    where an off-by-one in either path would surface first."""

    @pytest.mark.parametrize("warmup", [0, 1])
    def test_minimal_warmup_idles_identical(self, warmup):
        ref, fast = run_both(
            lambda: MG1Simulator.at_load(0.3, Exponential(2e-6), seed=7),
            5_000,
            warmup,
        )
        assert_identical(ref, fast)
        # Low load: the window genuinely contains idle periods, so the
        # retention rule was exercised, not vacuously satisfied.
        assert ref.idle_periods.size > 0
        # Arrival `warmup` itself is excluded (strict `n > warmup`), so
        # at most one idle period per retained arrival after it.
        assert ref.idle_periods.size <= 5_000 - warmup - 1

    def test_first_retained_arrival_hits_idle_server(self):
        """A window whose first retained arrival finds the server idle:
        its wait is zero and the idle gap before it must be dropped by
        both paths (it belongs to arrival `warmup`, not `warmup + 1`)."""
        warmup = 50
        ref, fast = run_both(
            lambda: MG1Simulator.at_load(0.05, Exponential(2e-6), seed=1),
            2_000,
            warmup,
        )
        assert_identical(ref, fast)
        # rho = 0.05 => the first retained arrival found an empty queue.
        assert ref.wait_times[0] == 0.0
        assert ref.idle_periods.size > 0


def test_profiled_run_identical():
    """prof.record_mg1_run sees identical waits/services/penalized arrays
    from either path: full snapshot equality."""

    def snap_for(mode):
        fastpath.set_mode(mode)
        prof.reset()
        prof.enable()
        try:
            MG1Simulator.at_load(
                0.6, RestartPenaltyService(Exponential(2e-6), 5e-7), seed=5
            ).run(20_000, 2_000)
            return dataclasses.asdict(prof.snapshot())
        finally:
            prof.disable()
            prof.reset()

    assert snap_for("off") == snap_for("on")


def test_negative_service_raises_either_way():
    class NegativeService:
        def service_time(self, rng, idle_before):
            return -1.0

        def mean_service_time(self):
            return 1e-6

        def batch_base(self, rng, n):
            return np.full(n, -1.0), 0.0, False

    for mode in ("off", "on"):
        fastpath.set_mode(mode)
        sim = MG1Simulator(arrival_rate=1e5, service=NegativeService(), seed=0)
        with pytest.raises(ValueError, match="negative"):
            sim.run(100)


def test_off_mode_never_batches():
    """REPRO_FASTPATH=off must not even construct the batched path."""
    called = []

    class SpyService:
        def service_time(self, rng, idle_before):
            return 2e-6

        def mean_service_time(self):
            return 2e-6

        def batch_base(self, rng, n):
            called.append(n)
            return np.full(n, 2e-6), 0.0, False

    fastpath.set_mode("off")
    MG1Simulator.at_load(0.7, SpyService(), seed=3).run(1_000, 100)
    assert not called
    fastpath.set_mode("on")
    MG1Simulator.at_load(0.7, SpyService(), seed=3).run(1_000, 100)
    assert called == [1_000]

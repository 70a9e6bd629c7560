"""Randomized differential: the compiled cluster event kernel against
the Python reference oracle, over every balancer, topology, arrival
process, service model and NumPy bit generator, with buffers shrunk so
the kernel's grow ejects fire mid-run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import sim as sim_module
from repro.cluster.arrivals import MMPPArrivals, PoissonArrivals
from repro.cluster.sim import ClusterSimulator
from repro.common.distributions import Exponential, LogNormal
from repro.harness.metrics import DesignServiceModel
from repro.queueing.mg1 import DistributionService, RestartPenaltyService
from repro.uarch import fastpath
from repro.uarch.fastpath import cluster as fp_cluster
from repro.workloads import microservices as ms
from tests.cluster.test_event_kernel import (
    BALANCERS,
    BIT_GENERATORS,
    assert_results_identical,
    streams_on,
)

pytestmark = pytest.mark.skipif(
    not fastpath.is_available(), reason="no C compiler / kernel unavailable"
)

SERVICES = (
    DistributionService(Exponential(100e-6)),
    DistributionService(LogNormal(100e-6, 1.2)),
    RestartPenaltyService(Exponential(100e-6), 5e-6),
    # Multi-draw models: RSC's three phases, McRouter's compute + stall.
    DesignServiceModel(ms.rsc(), 1.3, 2.5e-7, 5e-7),
    DesignServiceModel(ms.mcrouter(), 1.1, 2.5e-7, 5e-7),
)


@st.composite
def clusters(draw):
    n_servers = draw(st.integers(1, 8))
    fanout = draw(st.integers(1, n_servers))
    load = draw(st.sampled_from((0.3, 0.7, 0.95)))
    service = draw(st.sampled_from(SERVICES))
    rate = load * n_servers / (fanout * service.mean_service_time())
    arrivals = (
        MMPPArrivals.bursty(rate)
        if draw(st.booleans())
        else PoissonArrivals(rate)
    )
    return ClusterSimulator(
        arrivals,
        service,
        n_servers=n_servers,
        fanout=fanout,
        balancer=draw(st.sampled_from(BALANCERS)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(
    sim=clusters(),
    num_requests=st.integers(1, 400),
    warmup_frac=st.floats(0.0, 0.5),
    bit_generator=st.sampled_from(BIT_GENERATORS),
    ring_cap=st.sampled_from((1, 2, 4, 8)),
    out_cap=st.integers(1, 32),
)
def test_kernel_matches_python_oracle(
    sim, num_requests, warmup_frac, bit_generator, ring_cap, out_cap
):
    warmup = int(num_requests * warmup_frac)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_module, "SeedSequenceFactory", streams_on(bit_generator))
        mp.setattr(fp_cluster, "RING_CAP", ring_cap)
        mp.setattr(fp_cluster, "initial_capacity", lambda n, f, s: out_cap)
        fastpath.set_mode("on")
        try:
            compiled = sim.run(num_requests, warmup)
            fastpath.set_mode("off")
            reference = sim.run(num_requests, warmup)
        finally:
            fastpath.set_mode(None)
    degenerate = (
        sim.n_servers == 1
        and sim.fanout == 1
        and type(sim.arrivals) is PoissonArrivals
    )
    # The degenerate cluster is delegated to M/G/1 and reports no
    # cluster-kernel servers; every other run binds the kernel.
    assert compiled.fastpath_servers == (0 if degenerate else sim.n_servers)
    assert reference.fastpath_servers == 0
    assert_results_identical(compiled, reference)

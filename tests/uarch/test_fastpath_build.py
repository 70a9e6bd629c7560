"""Building the fastpath kernel when NumPy's sampler library is missing.

Without ``libnpyrandom.a`` or its headers the kernel compiles without
the service program: every other entry point still loads, ``batch_base``
returns ``None`` with the generator untouched, and service times come
from the interpreted reference loop with identical results.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.arrivals import PoissonArrivals
from repro.cluster.sim import ClusterSimulator
from repro.harness.metrics import DesignServiceModel
from repro.queueing.mg1 import MG1Simulator
from repro.uarch import fastpath
from repro.uarch.fastpath import build
from repro.workloads import microservices as ms

pytestmark = pytest.mark.skipif(
    not fastpath.is_available(), reason="no C compiler for the fastpath kernel"
)

SERVICE = DesignServiceModel(ms.rsc(), 1.1, 2.5e-8, 5e-8)
_REAL_PATHS = build._npyrandom_paths


def _runs():
    mg1 = MG1Simulator.at_load(0.5, SERVICE, seed=3).run(5_000, 500)
    rate = 0.5 * 4 / (2 * SERVICE.mean_service_time())
    cluster = ClusterSimulator(
        PoissonArrivals(rate), SERVICE, n_servers=4, fanout=2,
        balancer="jsq", seed=3,
    ).run(1_000, 100)
    return mg1, cluster


def _assert_same(a, b):
    """Equal field by field (bar which executor ran), arrays byte for
    byte."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            if f.name != "fastpath_servers":
                _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


@pytest.fixture
def compiled_runs():
    fastpath.set_mode("on")
    try:
        runs = _runs()
    finally:
        fastpath.set_mode(None)
    assert runs[1].fastpath_servers == 4
    return runs


def _missing(tmp_path):
    missing = tmp_path / "missing"
    return lambda: (missing, missing, missing / "libnpyrandom.a")


@pytest.fixture
def no_sampler_library(monkeypatch, tmp_path):
    monkeypatch.setattr(build, "_npyrandom_paths", _missing(tmp_path))
    monkeypatch.setenv("REPRO_FASTPATH_CACHE", str(tmp_path / "kernels"))
    build.reset_for_tests()
    yield
    monkeypatch.undo()
    build.reset_for_tests()


def test_missing_sampler_library_keeps_the_kernel(no_sampler_library):
    lib = build.load_kernel()
    assert lib is not None
    for name in ("rfp_run", "rfp_tracegen", "rfp_lindley", "rfp_cluster_events"):
        assert getattr(lib, name).argtypes is not None
    assert build.service_program_kernel() is None
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert SERVICE.batch_base(rng, 16) is None
    assert rng.bit_generator.state == before


def test_missing_sampler_library_runs_scalar_with_identical_results(
    compiled_runs, no_sampler_library, monkeypatch
):
    calls = []
    real = DesignServiceModel.service_time

    def counting(self, rng, idle_before):
        calls.append(1)
        return real(self, rng, idle_before)

    monkeypatch.setattr(DesignServiceModel, "service_time", counting)
    fastpath.set_mode("on")
    try:
        scalar = _runs()
    finally:
        fastpath.set_mode(None)
    # Every request of both runs was drawn by the interpreted loop...
    assert len(calls) == 5_000 + 1_000 * 2
    assert scalar[1].fastpath_servers == 0
    # ...and produced the same results as the compiled sampler.
    _assert_same(compiled_runs, scalar)


def test_cache_key_covers_the_sampler_library(no_sampler_library, tmp_path):
    """The kernel built without the library sits under its own key, so a
    build with the library never reuses the program-less object."""
    build.load_kernel()
    (without,) = (tmp_path / "kernels").glob("kernel-*.so")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build, "_npyrandom_paths", _REAL_PATHS)
        build.reset_for_tests()
        assert build.service_program_kernel() is not None
    built = sorted((tmp_path / "kernels").glob("kernel-*.so"))
    assert len(built) == 2 and without in built

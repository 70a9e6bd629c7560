"""Load-balancer policies: distinctness, determinism, and selection laws."""

import numpy as np
import pytest

from repro.cluster.balancers import (
    BALANCERS,
    JSQBalancer,
    PowerOfTwoBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    get_balancer,
)


def test_registry_and_lookup():
    assert set(BALANCERS) == {"random", "round_robin", "jsq", "power_of_two"}
    assert isinstance(get_balancer("jsq"), JSQBalancer)
    instance = RandomBalancer()
    assert get_balancer(instance) is instance
    with pytest.raises(ValueError, match="unknown balancer"):
        get_balancer("lru")


def test_state_dependence_flags():
    assert not RandomBalancer.state_dependent
    assert not RoundRobinBalancer.state_dependent
    assert JSQBalancer.state_dependent
    assert PowerOfTwoBalancer.state_dependent


@pytest.mark.parametrize("fanout", [1, 2, 4])
def test_random_assignments_distinct_and_in_range(fanout):
    assign = RandomBalancer().assignments(
        np.random.default_rng(0), n=500, fanout=fanout, n_servers=4
    )
    assert assign.shape == (500, fanout)
    assert assign.min() >= 0 and assign.max() < 4
    for row in assign:
        assert len(set(row.tolist())) == fanout


@pytest.mark.parametrize("fanout", [1, 3])
def test_random_assignments_own_contiguous_memory(fanout):
    """The matrix must not be a strided view pinning the full
    (n, n_servers) argsort behind it."""
    assign = RandomBalancer().assignments(
        np.random.default_rng(0), n=100, fanout=fanout, n_servers=8
    )
    assert assign.flags.c_contiguous
    assert assign.base is None


def test_random_assignments_cover_all_servers():
    assign = RandomBalancer().assignments(
        np.random.default_rng(1), n=2000, fanout=1, n_servers=8
    )
    counts = np.bincount(assign.ravel(), minlength=8)
    assert counts.min() > 0
    # Roughly uniform: no server off by more than 4 sigma.
    expected = 2000 / 8
    assert np.all(np.abs(counts - expected) < 4 * np.sqrt(expected))


def test_round_robin_exact_pattern():
    assign = RoundRobinBalancer().assignments(
        np.random.default_rng(0), n=5, fanout=2, n_servers=3
    )
    assert assign.tolist() == [[0, 1], [2, 0], [1, 2], [0, 1], [2, 0]]
    with pytest.raises(NotImplementedError):
        RoundRobinBalancer().select(np.random.default_rng(0), 1, 3, np.zeros(3))


def test_jsq_selects_shortest_queues():
    rng = np.random.default_rng(0)
    queues = np.array([5, 0, 3, 1])
    chosen = JSQBalancer().select(rng, fanout=2, n_servers=4, queue_lengths=queues)
    assert sorted(chosen.tolist()) == [1, 3]


def test_jsq_ties_break_uniformly():
    """All-equal queues: every server is picked, none systematically."""
    rng = np.random.default_rng(0)
    queues = np.zeros(4, dtype=np.int64)
    picks = [
        int(JSQBalancer().select(rng, 1, 4, queues)[0]) for _ in range(2000)
    ]
    counts = np.bincount(picks, minlength=4)
    assert counts.min() > 0
    assert np.all(np.abs(counts - 500) < 4 * np.sqrt(500))


def test_power_of_two_prefers_short_queues():
    rng = np.random.default_rng(0)
    queues = np.array([50, 0, 0, 0])
    picks = [
        int(PowerOfTwoBalancer().select(rng, 1, 4, queues)[0])
        for _ in range(1000)
    ]
    # Server 0 only wins when both probes land on it — impossible with
    # distinct probes — so it is never chosen while others are empty.
    assert picks.count(0) == 0


def test_power_of_two_distinct_within_request():
    rng = np.random.default_rng(3)
    queues = np.zeros(6, dtype=np.int64)
    for _ in range(200):
        chosen = PowerOfTwoBalancer().select(rng, 4, 6, queues)
        assert len(set(chosen.tolist())) == 4


def test_state_independent_assignments_deterministic():
    for name in ("random", "round_robin"):
        a = get_balancer(name).assignments(np.random.default_rng(5), 100, 2, 4)
        b = get_balancer(name).assignments(np.random.default_rng(5), 100, 2, 4)
        assert np.array_equal(a, b)


def _reference_power_of_two_select(rng, fanout, n_servers, queue_lengths):
    """The pre-optimization PowerOfTwoBalancer.select: a materialized
    ordered pool with ``list.remove`` — the draw-sequence reference the
    production implementation must match byte-for-byte."""
    available = list(range(n_servers))
    chosen = np.empty(fanout, dtype=np.int64)
    for i in range(fanout):
        if len(available) <= 2:
            probes = available
        else:
            picks = rng.choice(len(available), size=2, replace=False)
            probes = [available[picks[0]], available[picks[1]]]
        best = probes[0]
        for candidate in probes[1:]:
            if queue_lengths[candidate] < queue_lengths[best] or (
                queue_lengths[candidate] == queue_lengths[best]
                and rng.random() < 0.5
            ):
                best = candidate
        chosen[i] = best
        available.remove(best)
    return chosen


def test_power_of_two_select_matches_reference_pool_byte_for_byte():
    """The O(fanout^2) sorted-removed implementation consumes the
    dispatch stream draw-for-draw like the O(fanout*n) list pool and
    returns the same servers, so results stay byte-identical."""
    balancer = PowerOfTwoBalancer()
    for seed in range(25):
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        for fanout, n_servers in (
            (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 8), (8, 16), (16, 16),
        ):
            queues = np.random.default_rng(seed * 31 + n_servers).integers(
                0, 4, size=n_servers
            )
            got = balancer.select(rng_new, fanout, n_servers, queues)
            want = _reference_power_of_two_select(
                rng_ref, fanout, n_servers, queues
            )
            assert np.array_equal(got, want), (seed, fanout, n_servers)
        # Same number and kind of draws: the streams end in lockstep.
        assert (
            rng_new.bit_generator.state == rng_ref.bit_generator.state
        )

"""Pluggable leaf-selection policies for the cluster simulator.

Two families:

- *State-independent* (``random``, ``round_robin``): the full
  ``(n, fanout)`` assignment matrix is a pure function of the dispatch
  stream, so :class:`~repro.cluster.sim.ClusterSimulator` draws it up
  front and its event loop (compiled or Python) just walks it.
- *State-dependent* (``jsq``, ``power_of_two``): selection reads the
  per-server queue lengths at dispatch time, so the event loop calls
  :meth:`Balancer.select` (or its C port) per request.

Each mid-tier request is dispatched to ``fanout`` *distinct* servers.
Queue-length ties break uniformly at random (via the dispatch stream),
never by server index: a deterministic tie-break would systematically
skew low-index servers and break the per-server symmetry that
validation's Little's-law check leans on.

Telemetry contract: policies never observe or record telemetry state.
:mod:`repro.cluster.tailobs` captures dispatch decisions *outside* the
policy (the event loop copies the chosen indices after ``select``
returns; queue lengths at dispatch are reconstructed from the run's
own output), so the dispatch stream's draw sequence — including the
tie-break draws above — is bit-identical with telemetry on or off.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Balancer(ABC):
    """A leaf-selection policy."""

    #: Registry key and display name.
    name: str = ""

    #: True when selection reads per-server queue state at dispatch time.
    state_dependent: bool = False

    def assignments(
        self, rng: np.random.Generator, n: int, fanout: int, n_servers: int
    ) -> np.ndarray | None:
        """The full ``(n, fanout)`` server-index matrix, or ``None`` for
        state-dependent policies (which must use :meth:`select`)."""
        return None

    @abstractmethod
    def select(
        self,
        rng: np.random.Generator,
        fanout: int,
        n_servers: int,
        queue_lengths: np.ndarray,
    ) -> np.ndarray:
        """``fanout`` distinct server indices for one request."""


class RandomBalancer(Balancer):
    """Uniformly random choice of ``fanout`` distinct servers."""

    name = "random"
    state_dependent = False

    def assignments(self, rng, n, fanout, n_servers):
        if fanout == 1:
            return rng.integers(0, n_servers, size=(n, 1))
        # fanout distinct servers per request: rank per-request random
        # keys (a vectorized Fisher-Yates-equivalent draw).  Copied out
        # contiguously so the result does not pin the whole
        # (n, n_servers) argsort behind a strided view.
        keys = rng.random((n, n_servers))
        return np.ascontiguousarray(np.argsort(keys, axis=1)[:, :fanout])

    def select(self, rng, fanout, n_servers, queue_lengths):
        if fanout == 1:
            return rng.integers(0, n_servers, size=1)
        return np.argsort(rng.random(n_servers))[:fanout]


class RoundRobinBalancer(Balancer):
    """Deterministic rotation: request j takes servers
    ``(j*fanout + i) % n_servers`` for ``i < fanout``."""

    name = "round_robin"
    state_dependent = False

    def assignments(self, rng, n, fanout, n_servers):
        start = (np.arange(n, dtype=np.int64) * fanout)[:, None]
        offsets = np.arange(fanout, dtype=np.int64)[None, :]
        return (start + offsets) % n_servers

    def select(self, rng, fanout, n_servers, queue_lengths):
        raise NotImplementedError(
            "round_robin is state-independent; use assignments()"
        )


class JSQBalancer(Balancer):
    """Join-shortest-queue: the ``fanout`` least-loaded servers."""

    name = "jsq"
    state_dependent = True

    def select(self, rng, fanout, n_servers, queue_lengths):
        # Random keys break queue-length ties uniformly: lexsort's last
        # key is primary, so order is (queue_length, random).
        return np.lexsort((rng.random(n_servers), queue_lengths))[:fanout]


class PowerOfTwoBalancer(Balancer):
    """Power-of-two-choices: per leaf, probe two random servers and take
    the shorter queue (random tie-break), without reusing a server
    within one request's fan-out."""

    name = "power_of_two"
    state_dependent = True

    def select(self, rng, fanout, n_servers, queue_lengths):
        # Reference semantics: an ordered ``available`` pool with
        # ``list.remove(best)`` after each pick — O(fanout * n_servers)
        # per request.  Because that pool starts sorted and in-order
        # removal keeps it sorted, its k-th entry is just the k-th
        # smallest server index not yet chosen; tracking only the
        # (<= fanout) chosen servers makes selection O(fanout^2) with a
        # draw sequence, and therefore results, byte-identical to the
        # materialized pool (pinned by a regression test).
        chosen = np.empty(fanout, dtype=np.int64)
        removed: list[int] = []
        for i in range(fanout):
            remaining = n_servers - i
            if remaining <= 2:
                probes = [
                    self._nth_available(k, removed) for k in range(remaining)
                ]
            else:
                picks = rng.choice(remaining, size=2, replace=False)
                probes = [
                    self._nth_available(int(picks[0]), removed),
                    self._nth_available(int(picks[1]), removed),
                ]
            best = probes[0]
            for candidate in probes[1:]:
                if queue_lengths[candidate] < queue_lengths[best] or (
                    queue_lengths[candidate] == queue_lengths[best]
                    and rng.random() < 0.5
                ):
                    best = candidate
            chosen[i] = best
            position = len(removed)
            while position > 0 and removed[position - 1] > best:
                position -= 1
            removed.insert(position, best)
        return chosen

    @staticmethod
    def _nth_available(k: int, removed: list[int]) -> int:
        """The k-th smallest server index not in sorted ``removed``."""
        for taken in removed:
            if taken <= k:
                k += 1
            else:
                break
        return k


BALANCERS: dict[str, type[Balancer]] = {
    cls.name: cls
    for cls in (
        RandomBalancer,
        RoundRobinBalancer,
        JSQBalancer,
        PowerOfTwoBalancer,
    )
}


def get_balancer(balancer: "str | Balancer") -> Balancer:
    """Resolve a balancer name (or pass through an instance)."""
    if isinstance(balancer, Balancer):
        return balancer
    try:
        return BALANCERS[balancer]()
    except KeyError:
        raise ValueError(
            f"unknown balancer {balancer!r}; "
            f"expected one of {sorted(BALANCERS)}"
        ) from None

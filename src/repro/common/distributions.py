"""Latency / service-time distributions used throughout the reproduction.

The paper models microsecond-scale I/O latencies as exponentially
distributed (e.g. single-cache-line RDMA reads with a 1 microsecond mean,
Section V) and cloud service times as heavy-tailed (Section II-A).  This
module provides small, explicit distribution objects with a shared
interface: ``mean()``, ``sample(rng)`` and ``sample_many(rng, n)``.

All times are in **seconds** unless a class documents otherwise.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class Distribution(ABC):
    """A non-negative continuous random variable."""

    @abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw a single value."""

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` values.  Subclasses may vectorize."""
        return np.array([self.sample(rng) for _ in range(n)])

    def scaled(self, factor: float) -> "ScaledDistribution":
        """Return this distribution with every sample multiplied by ``factor``.

        Used to apply IPC slowdowns to service-time distributions, per the
        BigHouse methodology in Section V of the paper.
        """
        return ScaledDistribution(self, factor)

    def squared_coefficient_of_variation(self) -> float:
        """C^2 = Var/Mean^2; subclasses with closed forms override."""
        raise NotImplementedError


@dataclass(frozen=True)
class Deterministic(Distribution):
    """A degenerate distribution: always ``value``."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"value must be non-negative, got {self.value!r}")

    def mean(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def squared_coefficient_of_variation(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution with the given mean (NOT rate)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError(f"mean must be positive, got {self.mean_value!r}")

    def mean(self) -> float:
        return self.mean_value

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_value))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_value, size=n)

    def squared_coefficient_of_variation(self) -> float:
        return 1.0


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(f"require 0 <= low <= high, got [{self.low}, {self.high}]")

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def squared_coefficient_of_variation(self) -> float:
        m = self.mean()
        if m == 0:
            return 0.0
        var = (self.high - self.low) ** 2 / 12.0
        return var / (m * m)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal distribution parameterized by its mean and C^2.

    Cloud service times are widely reported to be heavy-tailed with high
    variability; log-normal is the standard stand-in (cf. BigHouse [67]).
    """

    mean_value: float
    cv2: float = 1.0  # squared coefficient of variation

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError(f"mean must be positive, got {self.mean_value!r}")
        if self.cv2 <= 0:
            raise ValueError(f"cv2 must be positive, got {self.cv2!r}")

    def _params(self) -> tuple[float, float]:
        sigma2 = math.log(1.0 + self.cv2)
        mu = math.log(self.mean_value) - sigma2 / 2.0
        return mu, math.sqrt(sigma2)

    def mean(self) -> float:
        return self.mean_value

    def sample(self, rng: np.random.Generator) -> float:
        mu, sigma = self._params()
        return float(rng.lognormal(mu, sigma))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        mu, sigma = self._params()
        return rng.lognormal(mu, sigma, size=n)

    def squared_coefficient_of_variation(self) -> float:
        return self.cv2


@dataclass(frozen=True)
class Pareto(Distribution):
    """Bounded-mean Pareto (Lomax) distribution: heavy tail for service times.

    ``shape`` must exceed 1 for the mean to exist; larger shapes mean
    lighter tails.
    """

    mean_value: float
    shape: float = 2.5

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError(f"mean must be positive, got {self.mean_value!r}")
        if self.shape <= 1:
            raise ValueError(f"shape must exceed 1 for finite mean, got {self.shape!r}")

    def _scale(self) -> float:
        # Lomax mean = scale / (shape - 1)
        return self.mean_value * (self.shape - 1.0)

    def mean(self) -> float:
        return self.mean_value

    def sample(self, rng: np.random.Generator) -> float:
        return float(self._scale() * rng.pareto(self.shape))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._scale() * rng.pareto(self.shape, size=n)

    def squared_coefficient_of_variation(self) -> float:
        if self.shape <= 2:
            return math.inf
        # Lomax: var = scale^2 * shape / ((shape-1)^2 (shape-2))
        return self.shape / (self.shape - 2.0)


@dataclass(frozen=True)
class ScaledDistribution(Distribution):
    """Wraps another distribution, multiplying every sample by ``factor``."""

    base: Distribution
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"factor must be positive, got {self.factor!r}")

    def mean(self) -> float:
        return self.base.mean() * self.factor

    def sample(self, rng: np.random.Generator) -> float:
        return self.base.sample(rng) * self.factor

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.base.sample_many(rng, n) * self.factor

    def squared_coefficient_of_variation(self) -> float:
        # Scaling leaves CV^2 unchanged.
        return self.base.squared_coefficient_of_variation()


@dataclass(frozen=True)
class SumDistribution(Distribution):
    """The sum of independent component distributions.

    Used to compose multi-phase request occupancies (e.g. RSC's lookup +
    Optane access + memcpy) into one service-time distribution.
    """

    components: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("sum needs at least one component")

    def mean(self) -> float:
        return sum(c.mean() for c in self.components)

    def sample(self, rng: np.random.Generator) -> float:
        return sum(c.sample(rng) for c in self.components)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.zeros(n)
        for component in self.components:
            out += component.sample_many(rng, n)
        return out

    def squared_coefficient_of_variation(self) -> float:
        total_mean = self.mean()
        if total_mean == 0:
            return 0.0
        variance = sum(
            c.squared_coefficient_of_variation() * c.mean() ** 2
            for c in self.components
        )
        return variance / (total_mean**2)


@dataclass(frozen=True)
class Mixture(Distribution):
    """A finite mixture of component distributions.

    Useful for bimodal service times (e.g. McRouter's 3-5 microsecond leaf
    KV operations, which differ by operation type).
    """

    components: tuple[Distribution, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights):
            raise ValueError("components and weights must have equal length")
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        total = sum(self.weights)
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {total!r}")

    def mean(self) -> float:
        return sum(w * c.mean() for w, c in zip(self.weights, self.components))

    def sample(self, rng: np.random.Generator) -> float:
        idx = rng.choice(len(self.components), p=list(self.weights))
        return self.components[idx].sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.components), p=list(self.weights), size=n)
        out = np.empty(n)
        for i, component in enumerate(self.components):
            mask = idx == i
            count = int(mask.sum())
            if count:
                out[mask] = component.sample_many(rng, count)
        return out


# ----------------------------------------------------------------------
# Stream-safety classification (used by the chunked FanOutMax mean)
# ----------------------------------------------------------------------

#: Distributions whose ``sample_many(rng, n)`` consumes the generator's
#: bitstream exactly as ``n`` sequential ``sample(rng)`` calls would and
#: produces bit-identical values.  True for NumPy's element-at-a-time
#: array fills (each element runs the same scalar algorithm), asserted
#: empirically by tests/queueing/test_mg1_batched.py.  ``SumDistribution``
#: and ``Mixture`` are excluded: their bulk fills reorder the stream
#: (component-major / selector-batched) relative to the scalar path.
_STREAM_SAFE = (Deterministic, Exponential, Uniform, LogNormal, Pareto)


def is_stream_safe(dist: Distribution) -> bool:
    """Whether bulk sampling matches sequential sampling bit-for-bit.

    Exact-type checks: a subclass may override ``sample`` arbitrarily,
    so it is conservatively unsafe.
    """
    if type(dist) in _STREAM_SAFE:
        return True
    if type(dist) is ScaledDistribution:
        return is_stream_safe(dist.base)
    return False


# ----------------------------------------------------------------------
# Service programs (sampled in C by the batched M/G/1 and cluster paths)
# ----------------------------------------------------------------------

#: Term kinds and flags of a service program; keep in sync with
#: ``rfp_service_program`` in ``repro/uarch/fastpath/kernel.c``.
_TERM_KIND = {Deterministic: 0, Exponential: 1, Uniform: 2, LogNormal: 3, Pareto: 4}
_SCALE, _PER_US, _SLOW = 8, 16, 32


@dataclass(frozen=True, eq=False)
class ServiceProgram:
    """A request's service-time terms, compiled for the C sampler.

    One request is ``init`` plus each term in order; a term is one draw
    of a distribution (or its constant), times any ``ScaledDistribution``
    factor, then optionally divided by 1e6 and times a slowdown.  The
    kernel draws through NumPy's own C samplers on the live generator,
    so ``sample(rng, n)`` equals ``n`` sequential interpreted requests
    bit for bit and leaves the generator in the same state.
    """

    ops: np.ndarray  # int64 (terms,): kind | flags
    params: np.ndarray  # float64 (terms, 4): p0, p1, factor, slowdown
    init: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray | None:
        """``n`` base service times, or ``None`` (generator untouched)
        when the kernel or NumPy's sampler library is unavailable."""
        from repro.uarch.fastpath.build import service_program_kernel

        kernel = service_program_kernel()
        if kernel is None:
            return None
        out = np.empty(n)
        kernel(
            rng.bit_generator.ctypes.bit_generator,
            n,
            len(self.ops),
            self.ops.ctypes.data,
            self.params.ctypes.data,
            self.init,
            out.ctypes.data,
        )
        return out


def compile_program(
    terms: list[tuple[Distribution, bool, float | None]], init: float = -0.0
) -> ServiceProgram | None:
    """Compile ``(dist, per_us, slowdown)`` terms into a service program.

    Each term replays ``dist.sample(rng)``, then ``seconds_from_us``
    when ``per_us``, then ``* slowdown`` when one is given, added to an
    accumulator starting at ``init`` (``-0.0``, the exact additive
    identity, reproduces a bare ``sample``).  Returns ``None`` unless
    every ``dist`` is one of the five base types, bare or under one
    ``ScaledDistribution`` (exact types: a subclass may override
    ``sample``); sums, mixtures and nested scalings do not compile.
    """
    ops = []
    params = []
    for dist, per_us, slowdown in terms:
        op, factor = 0, 1.0
        if type(dist) is ScaledDistribution:
            op, factor, dist = _SCALE, dist.factor, dist.base
        kind = _TERM_KIND.get(type(dist))
        if kind is None:
            return None
        if kind == 0:
            p0, p1 = dist.value, 0.0
        elif kind == 1:
            p0, p1 = dist.mean_value, 0.0
        elif kind == 2:
            p0, p1 = dist.low, float(dist.high) - float(dist.low)  # (low, range)
        elif kind == 3:
            p0, p1 = dist._params()
        else:
            p0, p1 = dist.shape, dist._scale()
        op |= kind
        if per_us:
            op |= _PER_US
        if slowdown is not None:
            op |= _SLOW
        ops.append(op)
        params.append((p0, p1, factor, 1.0 if slowdown is None else slowdown))
    return ServiceProgram(
        ops=np.array(ops, dtype=np.int64),
        params=np.array(params, dtype=np.float64).reshape(-1, 4),
        init=float(init),
    )

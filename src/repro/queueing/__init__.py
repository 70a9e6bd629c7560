"""Request-granularity queueing simulation (BigHouse methodology)."""

from repro.queueing.fanout import (
    FanOutMax,
    expected_max_exponential,
    fanout_for_leaf_budget,
    tail_amplification,
)
from repro.queueing.idle import IdlePeriodLaw, empirical_idle_cdf
from repro.queueing.mg1 import (
    DistributionService,
    MG1Simulator,
    QueueResult,
    RestartPenaltyService,
    ServiceModel,
)
from repro.queueing.stats import (
    Estimate,
    batch_means_mean,
    batch_means_percentile,
    percentile,
    simulate_until_converged,
)

__all__ = [
    "DistributionService",
    "Estimate",
    "FanOutMax",
    "IdlePeriodLaw",
    "MG1Simulator",
    "QueueResult",
    "RestartPenaltyService",
    "ServiceModel",
    "batch_means_mean",
    "batch_means_percentile",
    "empirical_idle_cdf",
    "expected_max_exponential",
    "fanout_for_leaf_budget",
    "percentile",
    "tail_amplification",
    "simulate_until_converged",
]

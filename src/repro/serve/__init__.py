"""Async serving front end: admission control, lanes, group-commit batching.

The serving leg of the reproduction (see ``docs/architecture.md``,
"Serving front end"): an ``asyncio`` layer over
:class:`~repro.core.api.ScoringSession` that sheds overload instead of
queueing it, routes delta-friendly traffic into its own batching lane,
ships each lane's queued requests as one batch the moment the lane is
idle (group commit), swaps model generations under live traffic without
ever scoring a request against a mixed generation, and survives faults
(injected failures, hung scoring) through bounded retries,
per-lane circuit breakers, and a bit-identical degradation ladder
(:mod:`repro.serve.resilience`).
"""

from repro.serve.admission import (
    SHED_CIRCUIT_OPEN,
    SHED_CLOSED,
    SHED_INFLIGHT_BYTES,
    SHED_QUEUE_DEPTH,
    AdmissionController,
    Overloaded,
)
from repro.serve.frontend import AsyncServingFrontend, ServeResult
from repro.serve.lanes import (
    COLD_LANE,
    DEFAULT_SMALL_CHURN_FRACTION,
    DELTA_LANE,
    LANES,
    LaneRouter,
    expected_sources_of,
)
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    RETRYABLE_ERRORS,
    CircuitBreaker,
    RetryPolicy,
    is_retryable,
)

__all__ = [
    "AdmissionController",
    "AsyncServingFrontend",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "COLD_LANE",
    "CircuitBreaker",
    "DEFAULT_SMALL_CHURN_FRACTION",
    "DELTA_LANE",
    "LANES",
    "LaneRouter",
    "Overloaded",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "SHED_CIRCUIT_OPEN",
    "SHED_CLOSED",
    "SHED_INFLIGHT_BYTES",
    "SHED_QUEUE_DEPTH",
    "ServeResult",
    "expected_sources_of",
    "is_retryable",
]

"""Unified fusion interface, result objects, and the method registry.

Every algorithm in this repository -- the paper's PrecRec family and every
baseline -- implements :class:`TruthFuser`: given an observation matrix it
assigns each triple a truthfulness score in ``[0, 1]`` (for probabilistic
methods, the posterior ``Pr(t | Ot)``), and triples scoring above a threshold
(0.5 unless stated otherwise) are accepted as true.

Model-based fusers (PrecRec, exact/aggressive/elastic PrecRecCorr) share the
pattern-memoisation machinery in :class:`ModelBasedFuser`: two triples with
the same provider set and the same silent-covering set necessarily get the
same probability, so each distinct observation pattern is computed once.

A note on priors: the quality model's ``prior`` calibrates the derived
false-positive rates (Theorem 3.5), while the *decision prior* enters the
posterior formula ``Pr(t|Ot) = 1/(1 + (1-a)/a * 1/mu)``.  They coincide by
default; the paper's Section 5 protocol fixes the posterior's ``alpha`` at
0.5 while measuring quality on the gold standard, which corresponds to
passing ``decision_prior=0.5``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.joint import JointQualityModel
from repro.core.observations import ObservationMatrix
from repro.core.parallel import ShardedExecutor, make_executor
from repro.core.patterns import PatternSet
from repro.util.probability import probability_from_mu, probability_from_mu_array

#: Decision threshold used throughout the paper: accept when Pr(t | Ot) > 0.5.
DEFAULT_THRESHOLD = 0.5

#: Default cap on memoised per-pattern likelihood ratios, mirroring
#: ``EmpiricalJointModel``'s ``max_cache_entries`` so long-lived serving
#: processes cannot grow without bound.
DEFAULT_MU_CACHE_ENTRIES = 200_000


@dataclass(frozen=True)
class FusionResult:
    """Outcome of running a fuser over an observation matrix.

    Attributes
    ----------
    method:
        Human-readable method name (e.g. ``"PrecRecCorr"``).
    scores:
        Truthfulness score per triple, shape ``(n_triples,)``.
    threshold:
        Acceptance threshold applied to ``scores``.
    elapsed_seconds:
        Wall-clock scoring time.
    """

    method: str
    scores: np.ndarray
    threshold: float = DEFAULT_THRESHOLD
    elapsed_seconds: float = 0.0

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        object.__setattr__(self, "scores", scores)

    @property
    def accepted(self) -> np.ndarray:
        """Boolean mask of triples accepted as true.

        The comparison is inclusive with a tiny float tolerance: a triple
        whose posterior lands exactly on the threshold (e.g. ``mu = 1`` with
        ``alpha = 0.5``) is accepted, matching the paper's decisions on the
        motivating example (PrecRec accepts t3, whose probability is
        exactly 0.5).
        """
        return self.scores >= self.threshold - 1e-9

    @property
    def n_accepted(self) -> int:
        return int(self.accepted.sum())

    def with_threshold(self, threshold: float) -> "FusionResult":
        """The same result re-thresholded (scores are unchanged)."""
        return FusionResult(
            method=self.method,
            scores=self.scores,
            threshold=threshold,
            elapsed_seconds=self.elapsed_seconds,
        )


class TruthFuser(ABC):
    """Base interface: score triples by truthfulness."""

    #: Subclasses set a default display name; instances may override.
    name: str = "fuser"

    @abstractmethod
    def score(self, observations: ObservationMatrix) -> np.ndarray:
        """Return one truthfulness score per triple, in column order."""

    def fuse(
        self,
        observations: ObservationMatrix,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> FusionResult:
        """Score ``observations`` and package a timed :class:`FusionResult`."""
        start = time.perf_counter()
        scores = self.score(observations)
        elapsed = time.perf_counter() - start
        return FusionResult(
            method=self.name,
            scores=np.asarray(scores, dtype=float),
            threshold=threshold,
            elapsed_seconds=elapsed,
        )


PatternKey = tuple[frozenset[int], frozenset[int]]


def _likelihoods_block_job(job: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Worker-pool job: one pattern block through a fuser's block pipeline.

    A module-level function (not a closure) so the process backend can
    pickle it; ``job`` is ``(fuser, provider_block, silent_block)`` and
    the fuser must implement ``_likelihoods_block`` (the exact and
    elastic fusers do).
    """
    fuser, provider_matrix, silent_matrix = job
    return fuser._likelihoods_block(provider_matrix, silent_matrix)


class ModelBasedFuser(TruthFuser):
    """Shared machinery for fusers driven by a :class:`JointQualityModel`.

    Subclasses implement :meth:`pattern_mu`, the likelihood ratio
    ``mu = Pr(Ot | t) / Pr(Ot | not t)`` for one observation pattern; this
    class handles scope masking, per-pattern memoisation, and the posterior
    transform ``Pr(t | Ot) = 1 / (1 + (1 - a)/a * 1/mu)``.

    Scoring extracts the matrix's distinct observation patterns once,
    evaluates each exactly once (through :meth:`pattern_mu_batch` when a
    subclass vectorises it, otherwise through the memoised per-pattern
    path), and scatters scores back.

    Sharded execution: ``workers > 1`` (or an explicit ``shard_size``)
    equips the fuser with a :class:`~repro.core.parallel.ShardedExecutor`.
    Subclasses with batched scoring paths shard their per-pattern work
    across its pool and merge per-shard results by concatenation -- every
    pattern's score depends only on its own terms, so sharded scores are
    bit-identical to the serial path.  The per-pattern ``_mu_cache`` memo
    is safe under that concurrency: dict reads/writes are atomic under the
    GIL and memoised values are deterministic, so racing writers store
    identical floats.
    """

    #: Whether this fuser's per-pattern scores are *bitwise* independent of
    #: which other patterns share their batch.  The inclusion-exclusion
    #: family computes each pattern from its own terms in a fixed order, so
    #: a sub-batch reproduces the full batch exactly -- the property the
    #: delta engine's pattern-level reuse requires.  PrecRec and the
    #: aggressive approximation score through matrix products whose BLAS
    #: reduction may vary in the last ulp with the batch's row count, so
    #: they leave this False and the delta engine only reuses whole
    #: identical requests for them.
    pattern_batch_invariant: bool = False

    def __init__(
        self,
        model: JointQualityModel,
        decision_prior: Optional[float] = None,
        max_cache_entries: int = DEFAULT_MU_CACHE_ENTRIES,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        parallel_backend: str = "thread",
    ) -> None:
        if decision_prior is not None and not 0.0 < decision_prior < 1.0:
            raise ValueError(
                f"decision_prior must be in (0, 1), got {decision_prior}"
            )
        if max_cache_entries < 0:
            raise ValueError(
                f"max_cache_entries must be non-negative, got {max_cache_entries}"
            )
        self._model = model
        self._decision_prior = decision_prior
        self._max_cache = int(max_cache_entries)
        self._mu_cache: dict[PatternKey, float] = {}
        self._executor = make_executor(workers, shard_size, parallel_backend)

    @property
    def model(self) -> JointQualityModel:
        return self._model

    @property
    def workers(self) -> int:
        """Effective worker count (1 = serial)."""
        return self._executor.workers if self._executor is not None else 1

    @property
    def executor(self) -> Optional[ShardedExecutor]:
        """The sharded executor, or ``None`` on the serial configuration."""
        return self._executor

    def _fan_pattern_blocks(
        self,
        provider_matrix: np.ndarray,
        silent_matrix: np.ndarray,
        evaluator: Optional["ModelBasedFuser"] = None,
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Sharded ``(numerators, denominators)``, or ``None`` to run serial.

        The shared fan-out of the exact and elastic batch entry points:
        partition the pattern matrices into word-aligned blocks, run each
        block through ``evaluator``'s ``_likelihoods_block`` pipeline
        (default: this fuser's own) on this fuser's pool, and merge the
        per-block results by concatenation -- bit-identical to the serial
        sweep, since every pattern's likelihoods depend only on its own
        terms.  The clustered fuser passes its serial per-cluster
        evaluators, so their batches shard on its pool.  ``None`` when no
        executor is configured or the plan is a single shard (callers then
        run their unsharded path, keeping the one-shard case free of
        dispatch overhead and byte-identical in cache keying to the serial
        configuration).
        """
        executor = self._executor
        if executor is None:
            return None
        shards = executor.shards(provider_matrix.shape[0])
        if len(shards) <= 1:
            return None
        blocks = executor.map(
            _likelihoods_block_job,
            [
                (
                    self if evaluator is None else evaluator,
                    provider_matrix[shard.start : shard.stop],
                    silent_matrix[shard.start : shard.stop],
                )
                for shard in shards
            ],
        )
        return (
            np.concatenate([block[0] for block in blocks]),
            np.concatenate([block[1] for block in blocks]),
        )

    @property
    def prior(self) -> float:
        """The ``alpha`` used in the posterior (decision) formula."""
        if self._decision_prior is not None:
            return self._decision_prior
        return self._model.prior

    @abstractmethod
    def pattern_mu(
        self, providers: frozenset[int], silent: frozenset[int]
    ) -> float:
        """Likelihood ratio for the pattern "``providers`` assert the triple,
        ``silent`` cover its domain but stay quiet".

        May be non-positive for degenerate inputs (Proposition 4.8); the
        posterior transform maps those to a probability of ~0.
        """

    def pattern_probability(
        self, providers: frozenset[int], silent: frozenset[int]
    ) -> float:
        """Memoised posterior for one observation pattern.

        The memo is bounded by ``max_cache_entries``; beyond the cap values
        are recomputed instead of stored, so long-lived serving processes
        cannot grow without limit (same policy as ``EmpiricalJointModel``).
        """
        key = (providers, silent)
        mu = self._mu_cache.get(key)
        if mu is None:
            mu = self.pattern_mu(providers, silent)
            if len(self._mu_cache) < self._max_cache:
                self._mu_cache[key] = mu
        return probability_from_mu(mu, self.prior)

    def invalidate_caches(self) -> None:
        """Drop memoised per-pattern scores.

        The explicit invalidation hook for long-lived serving processes:
        call it when the state a fuser memoised against has been replaced
        (e.g. after refitting the joint model).  Subclasses that hold
        further caches -- the compiled-plan caches of the inclusion-exclusion
        fusers -- extend this to clear those too.
        """
        self._mu_cache.clear()

    def close(self) -> None:
        """Shut down this fuser's worker pool (idempotent).

        Scoring keeps working after a close -- sharded dispatch degrades
        to inline serial execution -- so retiring a fuser under concurrent
        scorers is always safe.  ``ScoringSession.refit`` closes the
        retired fuser; the pool's GC finalizer is the backstop for fusers
        dropped without an explicit close.
        """
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "ModelBasedFuser":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def enable_delta_memo(self, max_entries: int = 200_000) -> None:
        """Opt this fuser into per-pattern result reuse across requests.

        The serving-layer hook behind ``ScoringSession(delta="auto")``:
        subclasses with a delta fast path (the inclusion-exclusion fusers)
        attach a :class:`~repro.core.plans.PatternValueMemo` so batches
        whose pattern sets *overlap* previously-seen ones only compute
        their novel rows.  The default is a no-op -- fusers whose batch
        path is already a couple of matrix products (PrecRec, aggressive)
        gain nothing from row-level reuse.
        """

    def pool_stats(self) -> dict:
        """Worker-pool supervision counters, empty on the serial config.

        Surfaces ``restarts`` / ``timeouts`` / ``inline_fallbacks`` from
        :attr:`repro.core.parallel.WorkerPool.stats` so serving
        observability (``ScoringSession.cache_stats()["pool"]``) can show
        whether the fault-tolerance layer had to intervene.
        """
        if self._executor is None:
            return {}
        return self._executor.stats

    def pattern_mu_batch(self, patterns: PatternSet) -> Optional[np.ndarray]:
        """Vectorized ``mu`` for every distinct pattern, or ``None``.

        Subclasses whose likelihood ratio factorises per source (PrecRec,
        the aggressive approximation) override this to evaluate all patterns
        with a handful of matrix operations.  Returning ``None`` falls back
        to the generic per-pattern loop, which still benefits from pattern
        deduplication and memoisation.
        """
        return None

    def score(self, observations: ObservationMatrix) -> np.ndarray:
        if observations.n_sources != self._model.n_sources:
            raise ValueError(
                f"observation matrix has {observations.n_sources} sources but "
                f"the quality model covers {self._model.n_sources}"
            )
        patterns = observations.patterns()
        probabilities = self.pattern_probabilities(patterns)
        return patterns.scatter(probabilities).astype(float, copy=False)

    def pattern_probabilities(self, patterns: PatternSet) -> np.ndarray:
        """Posterior probability for every distinct pattern of ``patterns``.

        The per-pattern half of :meth:`score`, exposed so the
        delta-scoring layer (:mod:`repro.core.deltas`) can evaluate *only*
        a request's novel patterns: every value depends on its own pattern
        alone (the property the sharded engine already relies on), so a
        sub-batch evaluates bit-identically to the same rows inside a full
        batch.
        """
        mus = self.pattern_mu_batch(patterns)
        if mus is not None:
            return probability_from_mu_array(
                np.asarray(mus, dtype=float), self.prior
            )
        probabilities = np.empty(patterns.n_patterns, dtype=float)
        for k in range(patterns.n_patterns):
            probabilities[k] = self.pattern_probability(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
        return probabilities


class FunctionFuser(TruthFuser):
    """Adapter turning a plain scoring function into a :class:`TruthFuser`.

    Handy for ad-hoc baselines in notebooks and tests.
    """

    def __init__(
        self,
        fn: Callable[[ObservationMatrix], np.ndarray],
        name: str = "custom",
    ) -> None:
        self._fn = fn
        self.name = name

    def score(self, observations: ObservationMatrix) -> np.ndarray:
        return np.asarray(self._fn(observations), dtype=float)

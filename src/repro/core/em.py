"""Semi-supervised EM fusion (extension to Section 3.2).

The paper derives source quality from a fully-labelled training set.  When
labels are scarce, the same machinery supports an expectation-maximisation
loop, which the paper's related work (LTM, 3-Estimates) does implicitly:

- **E-step**: score every triple with PrecRec under the current quality
  estimates (Theorem 3.1), yielding a soft truth probability per triple.
- **M-step**: re-estimate every source's precision and recall against the
  soft labels (fractional counts), derive ``q_i`` by Theorem 3.5, and
  optionally update the prior ``alpha`` to the mean truth probability.

A handful of known labels can be pinned (`seed`) and act as the supervision
anchor; with no seed the loop is fully unsupervised and is initialised from
vote fractions.  This fuser is an *extension* -- it is not part of the
paper's evaluation, but it makes the library usable when no gold standard
exists, and the ablation benchmark compares it against the supervised
PrecRec upper bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.fusion import TruthFuser
from repro.core.observations import ObservationMatrix
from repro.util.probability import clamp_probability
from repro.util.validation import check_fraction, check_positive_int


@dataclass(frozen=True)
class EMDiagnostics:
    """Convergence record of one EM run."""

    iterations: int
    converged: bool
    final_change: float
    final_prior: float
    #: Was this run initialised from a previous generation's posteriors
    #: (:meth:`ExpectationMaximizationFuser.warm_start_from`)?
    warm_started: bool = False


class ExpectationMaximizationFuser(TruthFuser):
    """Unsupervised / semi-supervised PrecRec via EM.

    Parameters
    ----------
    prior:
        Initial ``alpha``.
    update_prior:
        When true the prior is re-estimated each iteration as the mean soft
        truth probability.
    max_iterations, tolerance:
        Stopping rule: stop when the max absolute probability change falls
        below ``tolerance`` or after ``max_iterations``.
    smoothing:
        Pseudo-count applied to the fractional precision/recall ratios; keeps
        early iterations (when soft labels are near-uniform) stable.
    seed_labels:
        Optional float array of shape ``(n_triples,)`` with values in
        ``[0, 1]`` and ``nan`` for unlabelled triples.  Labelled entries are
        clamped to their given value every iteration.
    """

    name = "PrecRec-EM"

    def __init__(
        self,
        prior: float = 0.5,
        update_prior: bool = True,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        smoothing: float = 0.5,
        seed_labels: Optional[np.ndarray] = None,
    ) -> None:
        check_fraction(prior, "prior")
        check_positive_int(max_iterations, "max_iterations")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if smoothing < 0:
            raise ValueError(f"smoothing must be non-negative, got {smoothing}")
        self._prior = prior
        self._update_prior = update_prior
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._smoothing = smoothing
        self._seed = None if seed_labels is None else np.asarray(seed_labels, float)
        self._last_diagnostics: Optional[EMDiagnostics] = None
        # Warm-start state (see warm_start_from): an init overlay from a
        # previous generation's converged posteriors, plus bookkeeping for
        # the iterations-saved diagnostics.
        self._warm: Optional[np.ndarray] = None
        self._warm_baseline: Optional[int] = None
        self._warm_scores = 0
        self._warm_iterations_saved = 0
        self._last_posteriors: Optional[np.ndarray] = None
        # Per-score buffer workspace and diagnostics, thread-local so
        # concurrent ``score`` calls on one fuser (a multi-threaded
        # ScoringSession) never share scratch buffers and each thread
        # reads its own run's convergence record; unset outside a scoring
        # run (direct ``_m_step``/``_e_step`` calls then allocate fresh).
        self._tls = threading.local()

    def warm_start_from(
        self,
        probabilities: Optional[np.ndarray],
        baseline_iterations: Optional[int] = None,
    ) -> None:
        """Initialise future ``score`` runs from previous posteriors.

        The delta-refit path (``ScoringSession.refit_delta`` with an EM
        fuser) hands the retired generation's converged posteriors to the
        fresh fuser: ``score`` overlays them onto the vote-fraction
        initialisation (positionally, up to the shorter length when the
        matrix width changed) and then iterates under the *unchanged*
        convergence criterion.  EM's fixed point does not depend on the
        starting point for the basins these serving workloads stay in --
        the warm run lands on the cold fixed point (asserted within
        tolerance by the golden suites) in fewer iterations.

        ``baseline_iterations`` (typically the retired generation's
        iteration count) feeds the ``iterations_saved`` diagnostic.
        ``None`` clears the warm start.
        """
        if probabilities is None:
            self._warm = None
            self._warm_baseline = None
            return
        self._warm = np.asarray(probabilities, dtype=float).copy()
        self._warm_baseline = (
            None if baseline_iterations is None else int(baseline_iterations)
        )

    @property
    def last_posteriors(self) -> Optional[np.ndarray]:
        """The most recent ``score`` run's converged posteriors.

        Read-only snapshot (any thread's latest run) -- the hand-off a
        session passes to the next generation's :meth:`warm_start_from`.
        """
        return self._last_posteriors

    @property
    def warm_start_stats(self) -> dict:
        """Warm-start diagnostics for ``cache_stats()``/serving reports."""
        return {
            "warm_scores": self._warm_scores,
            "iterations_saved": self._warm_iterations_saved,
            "baseline_iterations": self._warm_baseline,
        }

    @property
    def diagnostics(self) -> Optional[EMDiagnostics]:
        """Convergence record of this thread's last ``score`` run.

        Falls back to the most recent run from any thread when the
        calling thread has not scored (e.g. a monitor inspecting a
        serving fuser).
        """
        local = getattr(self._tls, "diagnostics", None)
        return local if local is not None else self._last_diagnostics

    @diagnostics.setter
    def diagnostics(self, value: Optional[EMDiagnostics]) -> None:
        self._tls.diagnostics = value
        self._last_diagnostics = value

    @property
    def _workspace(self) -> Optional["_Workspace"]:
        return getattr(self._tls, "workspace", None)

    @_workspace.setter
    def _workspace(self, value: Optional["_Workspace"]) -> None:
        self._tls.workspace = value

    def score(self, observations: ObservationMatrix) -> np.ndarray:
        provides = observations.provides.astype(float)
        coverage = observations.coverage.astype(float)
        # Every loop invariant is computed exactly once: the silent-source
        # matrix, the per-source provided counts, and their smoothed
        # denominator never change across EM iterations.
        silent = coverage * (1.0 - provides)
        n_triples = observations.n_triples
        n_sources = observations.n_sources

        seed_mask = None
        seed_values = None
        if self._seed is not None:
            if self._seed.shape != (n_triples,):
                raise ValueError(
                    f"seed_labels shape {self._seed.shape} != ({n_triples},)"
                )
            seed_mask = ~np.isnan(self._seed)
            seed_values = np.clip(self._seed[seed_mask], 0.0, 1.0)

        # Initialise with vote fractions among covering sources.
        covering = np.maximum(coverage.sum(axis=0), 1.0)
        probabilities = provides.sum(axis=0) / covering
        probabilities = np.clip(probabilities, 0.05, 0.95)
        # Warm-start overlay: resume from a previous generation's
        # posteriors where available (positional, truncated to the shorter
        # width on matrix growth/shrink); seeds still win below.
        warm = self._warm
        warm_applied = False
        if warm is not None and warm.size and n_triples:
            shared = min(warm.size, n_triples)
            probabilities[:shared] = warm[:shared]
            warm_applied = True
        if seed_mask is not None:
            probabilities[seed_mask] = seed_values

        prior = self._prior
        if seed_mask is not None and bool(seed_mask.all()):
            # Every triple is pinned: the E-step assignment restores the
            # seed values each iteration, so no update can ever change the
            # probabilities -- return them without running the loop.  The
            # prior still takes its one update (the loop used to apply it
            # before detecting convergence), so diagnostics.final_prior
            # matches the pre-exit behaviour.
            if self._update_prior:
                prior = clamp_probability(
                    float(probabilities.mean()), floor=1e-3
                )
            self.diagnostics = EMDiagnostics(
                iterations=0,
                converged=True,
                final_change=0.0,
                final_prior=prior,
            )
            self._last_posteriors = probabilities.copy()
            return probabilities

        # Preallocated work buffers, reused across iterations (see
        # :class:`_Workspace`); the per-iteration M- and E-steps replay the
        # original numpy expressions as the same ufunc sequences with
        # ``out=`` targets, so probabilities are bit-identical to the
        # allocate-per-iteration reference.
        workspace = _Workspace(n_sources, n_triples, provides, self._smoothing)
        self._workspace = workspace
        try:
            change = np.inf
            iteration = 0
            for iteration in range(1, self._max_iterations + 1):
                recall, fpr = self._m_step(
                    provides, coverage, probabilities, prior
                )
                updated = self._e_step(provides, silent, recall, fpr, prior)
                if seed_mask is not None:
                    updated[seed_mask] = seed_values
                np.subtract(updated, probabilities, out=workspace.triple_buf)
                np.abs(workspace.triple_buf, out=workspace.triple_buf)
                change = float(np.max(workspace.triple_buf))
                # Ping-pong the two probability buffers: the retired one
                # becomes the next E-step's output target.
                workspace.out_probabilities = probabilities
                probabilities = updated
                if self._update_prior:
                    prior = clamp_probability(
                        float(probabilities.mean()), floor=1e-3
                    )
                if change < self._tolerance:
                    break
        finally:
            self._workspace = None
        self.diagnostics = EMDiagnostics(
            iterations=iteration,
            converged=change < self._tolerance,
            final_change=change,
            final_prior=prior,
            warm_started=warm_applied,
        )
        if warm_applied:
            # Diagnostics only (plain increments, last-writer-wins under
            # threads): how many iterations the warm init saved vs the
            # baseline generation's cold run.
            self._warm_scores += 1
            if self._warm_baseline is not None:
                self._warm_iterations_saved += max(
                    self._warm_baseline - iteration, 0
                )
        self._last_posteriors = probabilities.copy()
        return probabilities

    def _m_step(
        self,
        provides: np.ndarray,
        coverage: np.ndarray,
        probabilities: np.ndarray,
        prior: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fractional-count quality estimates from soft labels.

        Inside a ``score`` run the returned arrays are the workspace's
        reusable buffers (overwritten on the next iteration); called
        standalone it allocates.  Either way the ufunc sequence replays
        the original expressions, so values are bit-identical.
        """
        ws = self._workspace or _Workspace(
            provides.shape[0], provides.shape[1], provides, self._smoothing
        )
        s = self._smoothing
        precision, recall, fpr = ws.precision, ws.recall, ws.fpr
        np.dot(provides, probabilities, out=ws.provided_true)
        np.dot(coverage, probabilities, out=ws.scope_buf)
        np.add(ws.provided_true, s, out=precision)
        np.divide(precision, ws.provided_den, out=precision)
        np.add(ws.scope_buf, 2.0 * s, out=ws.scope_buf)
        np.add(ws.provided_true, s, out=recall)
        np.divide(recall, ws.scope_buf, out=recall)
        np.clip(precision, 1e-6, 1.0 - 1e-6, out=precision)
        np.clip(recall, 1e-6, 1.0 - 1e-6, out=recall)
        # Theorem 3.5, vectorised, clipped to a valid rate.
        np.subtract(1.0, precision, out=fpr)
        np.multiply(prior / (1.0 - prior), fpr, out=fpr)
        np.divide(fpr, precision, out=fpr)
        np.multiply(fpr, recall, out=fpr)
        np.clip(fpr, 1e-9, 1.0 - 1e-6, out=fpr)
        return recall, fpr

    def _e_step(
        self,
        provides: np.ndarray,
        silent: np.ndarray,
        recall: np.ndarray,
        fpr: np.ndarray,
        prior: float,
    ) -> np.ndarray:
        """Vectorised Theorem 3.1 in log space (buffer-reusing; see above)."""
        ws = self._workspace or _Workspace(
            provides.shape[0], provides.shape[1], provides, self._smoothing
        )
        z = ws.z
        np.log(recall, out=ws.log_provide)
        np.log(fpr, out=ws.source_buf)
        np.subtract(ws.log_provide, ws.source_buf, out=ws.log_provide)
        np.negative(recall, out=ws.log_silent)
        np.log1p(ws.log_silent, out=ws.log_silent)
        np.negative(fpr, out=ws.source_buf)
        np.log1p(ws.source_buf, out=ws.source_buf)
        np.subtract(ws.log_silent, ws.source_buf, out=ws.log_silent)
        np.dot(ws.log_provide, provides, out=z)
        np.dot(ws.log_silent, silent, out=ws.triple_buf)
        np.add(z, ws.triple_buf, out=z)
        np.add(np.log(prior) - np.log1p(-prior), z, out=z)
        np.clip(z, -500, 500, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.add(1.0, z, out=z)
        # The output buffer now belongs to the caller; score swaps the
        # retired probability buffer back into ``out_probabilities`` after
        # every iteration, so consecutive E-steps never alias.
        updated = ws.out_probabilities
        np.divide(1.0, z, out=updated)
        return updated


class _Workspace:
    """Reusable EM buffers for one ``score`` run.

    All loop invariants (``provided`` counts and their smoothed
    denominator) are computed once at construction; everything else is an
    uninitialised scratch buffer the M-/E-steps overwrite each iteration
    with the exact ufunc sequence of the original allocate-per-iteration
    code.
    """

    __slots__ = (
        "provided_true", "scope_buf", "precision", "recall", "fpr",
        "source_buf", "log_provide", "log_silent", "z", "triple_buf",
        "out_probabilities", "provided_den",
    )

    def __init__(
        self,
        n_sources: int,
        n_triples: int,
        provides: np.ndarray,
        smoothing: float,
    ) -> None:
        self.provided_den = provides.sum(axis=1) + 2.0 * smoothing
        self.provided_true = np.empty(n_sources)
        self.scope_buf = np.empty(n_sources)
        self.precision = np.empty(n_sources)
        self.recall = np.empty(n_sources)
        self.fpr = np.empty(n_sources)
        self.source_buf = np.empty(n_sources)
        self.log_provide = np.empty(n_sources)
        self.log_silent = np.empty(n_sources)
        self.z = np.empty(n_triples)
        self.triple_buf = np.empty(n_triples)
        #: The E-step's output target; ``score`` ping-pongs the retired
        #: probability buffer back in after each iteration.
        self.out_probabilities = np.empty(n_triples)

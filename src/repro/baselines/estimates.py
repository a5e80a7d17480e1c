"""The Galland et al. fixed-point baseline: 3-Estimates.

Reimplementation of 3-Estimates from [13] (A. Galland, S. Abiteboul,
A. Marian, P. Senellart, "Corroborating information from disagreeing
views", WSDM 2010), which the paper compares against as "the best model
among the three" (Cosine, 2-Estimates, 3-Estimates) on its datasets.

It iterates between an estimated *truth value* per fact and an estimated
*error* per source.  The chance that source ``s`` errs on fact ``f`` is
``eps_s * delta_f``, a per-source error rate times a per-fact difficulty;
the two factors are fit by alternating least squares.  A positive vote
contributes ``1 - eps_s * delta_f`` to the fact's truth estimate and a
negative vote ``eps_s * delta_f``.  After every round the truth estimates
are *normalised* (linearly rescaled onto [0, 1]) -- Galland et al. found
the fixed point collapses without this step.

Open-world adaptation: the original models consume explicit negative claims
(from functional dependencies under closed-world semantics).  Under this
paper's open-world semantics no source ever asserts a triple is false, so --
like the paper's own comparison -- we synthesise a negative vote whenever a
source *covers* a triple's domain but does not provide the triple.
"""

from __future__ import annotations

import numpy as np

from repro.core.fusion import TruthFuser
from repro.core.observations import ObservationMatrix
from repro.util.validation import check_positive_int


def _vote_matrices(observations: ObservationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(positive, negative)`` float vote matrices, shape (sources, facts)."""
    positive = observations.provides.astype(float)
    negative = (observations.coverage & ~observations.provides).astype(float)
    return positive, negative


def _rescale_unit(values: np.ndarray) -> np.ndarray:
    """Linear rescale onto [0, 1] (Galland's full normalisation, lambda = 1)."""
    low = float(values.min())
    high = float(values.max())
    if high - low < 1e-12:
        return np.full_like(values, 0.5)
    return (values - low) / (high - low)


def _normalise(values: np.ndarray, mode: str) -> np.ndarray:
    """Apply the configured normalisation: full rescale or plain clipping."""
    if mode == "rescale":
        return _rescale_unit(values)
    return np.clip(values, 0.0, 1.0)


def _fix_polarity(truth: np.ndarray, vote_share: np.ndarray) -> np.ndarray:
    """Flip a mirrored fixed point back to the natural polarity.

    The (truth, error) fixed-point equations admit a mirrored solution
    ``(1 - truth, 1 - error)``; on silence-heavy data the iteration can
    converge to it.  A positive vote asserts truth, so the truth estimate
    must correlate *positively* with the raw vote share -- if it does not,
    the mirror was reached and we flip back.
    """
    centred_truth = truth - truth.mean()
    centred_votes = vote_share - vote_share.mean()
    if float(centred_truth @ centred_votes) < 0.0:
        return 1.0 - truth
    return truth


class ThreeEstimatesFuser(TruthFuser):
    """Galland et al.'s 3-Estimates: error factored into source x difficulty.

    The per-(source, fact) error probability is ``eps_s * delta_f``; with
    the current truth estimates the residual error of a vote is
    ``1 - theta_f`` for a positive vote and ``theta_f`` for a negative one,
    and ``eps`` / ``delta`` are refit by alternating least squares each
    round, after the truth estimates are normalised.

    Parameters
    ----------
    iterations:
        Fixed-point rounds (the original converges within tens of rounds).
    prior_votes:
        Weight of a neutral pseudo-vote (value 0.5) mixed into every fact's
        truth estimate.  Facts with a one-source electorate would otherwise
        score a perfect ``1 - eps`` and crowd out well-attested facts in the
        ranking -- an artifact of sparse-coverage data the original paper
        (closed-world, dense votes) never faced.
    normalization:
        ``"rescale"`` (Galland's full normalisation, default) linearly maps
        each round's *truth* estimates onto [0, 1]; ``"clip"`` only clips.
        Rescaling converges faster but can land on the mirrored fixed
        point, which the polarity guard then flips back.  Source errors
        and difficulties are always clipped, never rescaled.
    """

    name = "3-Estimates"

    def __init__(
        self,
        iterations: int = 20,
        prior_votes: float = 1.0,
        normalization: str = "rescale",
    ) -> None:
        self.iterations = check_positive_int(iterations, "iterations")
        if prior_votes < 0:
            raise ValueError(f"prior_votes must be non-negative, got {prior_votes}")
        if normalization not in ("rescale", "clip"):
            raise ValueError(
                f"normalization must be 'rescale' or 'clip', got {normalization!r}"
            )
        self.prior_votes = float(prior_votes)
        self.normalization = normalization

    def score(self, observations: ObservationMatrix) -> np.ndarray:
        positive, negative = _vote_matrices(observations)
        voted = positive + negative
        votes_per_fact = np.maximum(
            voted.sum(axis=0) + self.prior_votes, 1.0
        )
        errors = np.full(observations.n_sources, 0.2)
        difficulty = np.full(observations.n_triples, 0.5)
        vote_share = positive.sum(axis=0) / votes_per_fact
        truth = vote_share
        for _ in range(self.iterations):
            # Truth update: wrong-vote probability of s on f is eps_s*delta_f;
            # prior_votes neutral pseudo-votes of value 0.5 keep a fact
            # with a one-source electorate from scoring a perfect 1 - eps.
            wrong = np.clip(np.outer(errors, difficulty), 0.0, 1.0)
            contribution = positive * (1.0 - wrong) + negative * wrong
            truth = _normalise(
                (contribution.sum(axis=0) + 0.5 * self.prior_votes)
                / votes_per_fact,
                self.normalization,
            )
            # Residual error of each cast vote given the new truth.
            residual = positive * (1.0 - truth)[None, :] + negative * truth[None, :]
            # ALS: fit residual ~= eps_s * delta_f on the voted cells.
            denom_eps = voted @ (difficulty**2)
            errors = np.divide(
                residual @ difficulty,
                denom_eps,
                out=np.full_like(errors, 0.2),
                where=denom_eps > 1e-12,
            )
            errors = np.clip(errors, 1e-6, 1.0 - 1e-6)
            denom_delta = voted.T @ (errors**2)
            difficulty = np.divide(
                residual.T @ errors,
                denom_delta,
                out=np.full_like(difficulty, 0.5),
                where=denom_delta > 1e-12,
            )
            difficulty = np.clip(difficulty, 1e-6, 1.0)
        return _fix_polarity(truth, vote_share)

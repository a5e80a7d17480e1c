"""The paper's definitions as oracles, and the edges of the one scoring path.

- **First principles** -- under full coverage and no smoothing, the exact
  fuser's ``Pr(Ot | t)`` (Eq. 10) telescopes to the fraction of true
  triples whose providers within ``St union St-bar`` are exactly ``St``.
  Every ``(providers, silent)`` pattern on up to 8 sources is enumerated
  and checked against that count, and elastic at ``lambda >= |St-bar|``
  is checked against the exact fuser.  Both sides sum in a different
  order from the count, so these comparisons state a small tolerance;
  the production contract against the goldens stays exact.
- **One cluster is exact** -- the clustered fuser with one all-source
  cluster on both sides scores like the exact fuser on up to 8 sources,
  cold and delta-served (its restriction log tables), within a stated
  tolerance for the log/exp route.
- **Totality** -- every joint model answers ``joint_params_batch`` (never
  ``None``), bit-equal to its scalar ``joint_recall`` / ``joint_fpr``.
- **Removed switches stay removed** -- no public callable takes
  ``engine`` or ``accumulate``, and the CLI rejects ``--engine``.
- **Typed validation at the models** -- explicit joint parameters must be
  probabilities, and ``smoothing`` must be finite and non-negative.
"""

from __future__ import annotations

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
import repro.core
from repro.cli import main
from repro.core import (
    ClusteredCorrelationFuser,
    DeltaScorer,
    ElasticFuser,
    EmpiricalJointModel,
    ExactCorrelationFuser,
    ExplicitJointModel,
    IndependentJointModel,
    ObservationMatrix,
    ScoringSession,
    SourcePartition,
    SourceQuality,
    fit_model,
)
from repro.eval import mutation_trace
from repro.util.probability import PROBABILITY_FLOOR

#: Absolute tolerance of the enumerations: Eq. 10 adds up to 2^8 signed
#: terms of at most 1, in an order unrelated to the direct count.
ENUMERATION_ATOL = 1e-12


def _all_patterns(n_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """Every disjoint ``(providers, silent)`` pair: ``3^n`` pattern rows."""
    states = np.array(
        list(itertools.product((0, 1, 2), repeat=n_sources)), dtype=np.int8
    ).reshape(-1, n_sources)
    return states == 1, states == 2


def _assert_numerator_counts_patterns(provides: np.ndarray, labels: np.ndarray):
    n_sources = provides.shape[0]
    matrix = ObservationMatrix(provides, [f"s{i}" for i in range(n_sources)])
    model = EmpiricalJointModel(matrix, labels, smoothing=0.0)
    provider, silent = _all_patterns(n_sources)
    fuser = ExactCorrelationFuser(model, max_silent_sources=n_sources)
    numerators, _ = fuser.pattern_likelihoods_batch(provider, silent)

    # A true triple matches a pattern when, over the pattern's sources
    # (providers and silent ones), it is provided by exactly the providers.
    true_columns = provides[:, labels].T  # (n_true, n_sources)
    scope = provider | silent
    matches = (
        (true_columns[None, :, :] == provider[:, None, :]) | ~scope[:, None, :]
    ).all(axis=2)
    fraction = matches.sum(axis=1) / labels.sum()
    np.testing.assert_allclose(
        numerators,
        np.maximum(fraction, PROBABILITY_FLOOR),
        rtol=0,
        atol=ENUMERATION_ATOL,
    )
    # The patterns that cover every source partition the true triples.
    full = scope.all(axis=1)
    assert math.isclose(numerators[full].sum(), 1.0, abs_tol=1e-9)


class TestFirstPrinciples:
    @given(
        data=st.data(),
        n_sources=st.integers(1, 6),
        n_triples=st.integers(1, 60),
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_exact_numerator_is_the_pattern_frequency(
        self, data, n_sources, n_triples
    ):
        provides = data.draw(
            arrays(dtype=bool, shape=(n_sources, n_triples))
        )
        labels = data.draw(arrays(dtype=bool, shape=(n_triples,)))
        labels[0] = True  # at least one true triple to count over
        _assert_numerator_counts_patterns(provides, labels)

    def test_exact_numerator_on_eight_sources(self):
        rng = np.random.default_rng(8)
        provides = rng.random((8, 300)) < 0.4
        labels = rng.random(300) < 0.5
        _assert_numerator_counts_patterns(provides, labels)

    @given(data=st.data(), n_sources=st.integers(1, 6))
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_elastic_at_full_level_is_exact(self, data, n_sources):
        # At lambda >= |St-bar| every approximate coefficient is swapped for
        # the exact joint, so Algorithm 1 reduces to Theorem 4.2.
        n_triples = data.draw(st.integers(2, 60))
        provides = data.draw(
            arrays(dtype=bool, shape=(n_sources, n_triples))
        )
        labels = data.draw(arrays(dtype=bool, shape=(n_triples,)))
        labels[0], labels[1] = True, False
        matrix = ObservationMatrix(
            provides, [f"s{i}" for i in range(n_sources)]
        )
        model = fit_model(matrix, labels, smoothing=0.1)
        provider, silent = _all_patterns(n_sources)
        elastic = ElasticFuser(model, level=n_sources)
        exact = ExactCorrelationFuser(model)
        for got, want in zip(
            elastic.pattern_likelihoods_batch(provider, silent),
            exact.pattern_likelihoods_batch(provider, silent),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=ENUMERATION_ATOL)


# ----------------------------------------------------------------------
# Clustered with one cluster is exact
# ----------------------------------------------------------------------

#: Relative tolerance of clustered-vs-exact scores: the clustered route
#: computes ``mu`` as ``exp(log Pr(Ot|t) - log Pr(Ot|not t))``, the exact
#: fuser as the plain quotient, so the two differ by a few ulps.
CLUSTERED_RTOL = 1e-12


class TestOneClusterIsExact:
    @pytest.mark.parametrize("n_sources", (1, 4, 8))
    @pytest.mark.parametrize("partial", (False, True))
    def test_cold_and_delta_served(self, n_sources, partial):
        rng = np.random.default_rng(100 + n_sources)
        provides = rng.random((n_sources, 400)) < 0.4
        coverage = provides | (rng.random((n_sources, 400)) < 0.85)
        matrix = ObservationMatrix(
            provides,
            [f"s{i}" for i in range(n_sources)],
            coverage=coverage if partial else None,
        )
        labels = rng.random(400) < 0.5
        model = fit_model(matrix, labels, smoothing=0.1)
        whole = SourcePartition((frozenset(range(n_sources)),))
        exact = ExactCorrelationFuser(model)
        cold = ClusteredCorrelationFuser(
            model, true_partition=whole, false_partition=whole
        )
        served = ClusteredCorrelationFuser(
            model, true_partition=whole, false_partition=whole
        )
        served.enable_delta_memo()
        scorer = DeltaScorer(served)
        steps = [matrix] + mutation_trace(matrix, 4, 0.05, seed=n_sources)
        for step in steps:
            want = exact.score(step)
            np.testing.assert_allclose(
                cold.score(step), want, rtol=CLUSTERED_RTOL, atol=0
            )
            np.testing.assert_allclose(
                scorer.score(step), want, rtol=CLUSTERED_RTOL, atol=0
            )
        assert scorer.stats["delta"] == 4
        # With one cluster every restriction is a whole pattern, so the
        # delta steps above only extended the log table.  A fresh scorer
        # over the same fuser re-scores each mutated step in full, and
        # every restriction now comes from the table.
        (table,) = served.log_tables
        replay = DeltaScorer(served)
        for step in steps[1:]:
            replay.invalidate()
            np.testing.assert_allclose(
                replay.score(step), exact.score(step),
                rtol=CLUSTERED_RTOL, atol=0,
            )
        assert served.log_tables[0] is table and table[0].size


# ----------------------------------------------------------------------
# joint_params_batch is total and equals the scalar queries
# ----------------------------------------------------------------------


@st.composite
def joint_models(draw, kind):
    n_sources = draw(st.integers(1, 6))
    if kind == "empirical":
        # Half the draws span more than one packed word (or end on a
        # word boundary), under partial and full coverage alike.
        n_triples = draw(
            st.integers(1, 40) | st.sampled_from([63, 64, 65, 130])
        )
        provides = draw(arrays(dtype=bool, shape=(n_sources, n_triples)))
        extra = draw(arrays(dtype=bool, shape=(n_sources, n_triples)))
        partial = draw(st.booleans())
        matrix = ObservationMatrix(
            provides,
            [f"s{i}" for i in range(n_sources)],
            coverage=(provides | extra) if partial else None,
        )
        labels = draw(arrays(dtype=bool, shape=(n_triples,)))
        smoothing = draw(st.sampled_from([0.0, 0.5]))
        return EmpiricalJointModel(matrix, labels, prior=0.4, smoothing=smoothing)
    unit = st.floats(0.0, 1.0)
    qualities = [
        SourceQuality(
            name=f"s{i}",
            precision=draw(unit),
            recall=draw(unit),
            false_positive_rate=draw(unit),
        )
        for i in range(n_sources)
    ]
    if kind == "independent":
        return IndependentJointModel(qualities, prior=0.4)
    subsets = st.frozensets(st.integers(0, n_sources - 1), min_size=1)
    return ExplicitJointModel(
        qualities,
        prior=0.4,
        joint_recalls=draw(st.dictionaries(subsets, unit, max_size=6)),
        joint_fprs=draw(st.dictionaries(subsets, unit, max_size=6)),
    )


class TestJointParamsBatchIsTotal:
    @pytest.mark.parametrize("kind", ["explicit", "independent", "empirical"])
    @given(data=st.data())
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bit_equal_to_scalar_queries(self, kind, data):
        model = data.draw(joint_models(kind))
        n = model.n_sources
        drawn = data.draw(
            arrays(dtype=bool, shape=(data.draw(st.integers(0, 8)), n))
        )
        # A full row among singletons and empty rows: member counts far
        # apart, so the batch AND's size-sorted slots line up only if the
        # scatter back to input order is right.
        skewed = np.vstack(
            [
                np.ones((1, n), dtype=bool),
                np.eye(n, dtype=bool),
                np.zeros((2, n), dtype=bool),
            ]
        )
        subsets = np.vstack([np.zeros((1, n), dtype=bool), drawn, skewed])
        result = model.joint_params_batch(subsets)
        assert result is not None
        recalls, fprs = result
        assert recalls.shape == fprs.shape == (subsets.shape[0],)
        assert recalls[0] == fprs[0] == 1.0  # the empty subset
        for row, subset in enumerate(subsets):
            ids = np.flatnonzero(subset).tolist()
            assert recalls[row] == model.joint_recall(ids)
            assert fprs[row] == model.joint_fpr(ids)
        no_rows = model.joint_params_batch(np.zeros((0, n), dtype=bool))
        assert no_rows is not None
        assert no_rows[0].shape == no_rows[1].shape == (0,)

    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("n_triples", [63, 64, 65, 130])
    def test_multi_word_batches_equal_scalar_queries(self, partial, n_triples):
        rng = np.random.default_rng(n_triples)
        n = 7
        provides = rng.random((n, n_triples)) < 0.6
        coverage = provides | (rng.random((n, n_triples)) < 0.5)
        matrix = ObservationMatrix(
            provides, [f"s{i}" for i in range(n)],
            coverage=coverage if partial else None,
        )
        assert matrix.has_partial_coverage == partial
        labels = rng.random(n_triples) < 0.5
        model = EmpiricalJointModel(matrix, labels, prior=0.4)
        subsets = np.vstack(
            [
                rng.random((20, n)) < 0.5,
                np.ones((1, n), dtype=bool),
                np.eye(n, dtype=bool),
                np.zeros((2, n), dtype=bool),
            ]
        )[rng.permutation(30)]
        recalls, fprs = model.joint_params_batch(subsets)
        for row, subset in enumerate(subsets):
            ids = np.flatnonzero(subset).tolist()
            assert recalls[row] == model.joint_recall(ids)
            assert fprs[row] == model.joint_fpr(ids)
            if ids and partial:  # the coverage half is really read
                scope = model.joint_coverage_counts(ids)
                assert scope != model.evidence_counts()

    def test_rejects_wrong_width(self):
        model = IndependentJointModel(
            [SourceQuality("a", 0.8, 0.5, 0.1), SourceQuality("b", 0.7, 0.4, 0.2)]
        )
        with pytest.raises(ValueError, match="subsets shape"):
            model.joint_params_batch(np.zeros((2, 3), dtype=bool))


# ----------------------------------------------------------------------
# The removed switches stay removed
# ----------------------------------------------------------------------


def _public_signatures():
    """``(qualified name, signature)`` of every public exported callable."""
    for module in (repro, repro.core):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                members = [("__init__", obj.__init__)] + [
                    (attr, getattr(obj, attr))
                    for attr in dir(obj)
                    if not attr.startswith("_")
                    and callable(getattr(obj, attr, None))
                ]
                for attr, member in members:
                    try:
                        yield f"{name}.{attr}", inspect.signature(member)
                    except (TypeError, ValueError):
                        continue
            elif callable(obj):
                yield name, inspect.signature(obj)


def test_no_public_callable_takes_engine_or_accumulate():
    offenders = [
        name
        for name, signature in _public_signatures()
        if {"engine", "accumulate"} & set(signature.parameters)
    ]
    assert offenders == []


@pytest.mark.parametrize("command", ["fuse", "compare"])
def test_cli_rejects_the_engine_flag(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--dataset", "figure1", "--engine", "legacy"])
    assert exit_info.value.code == 2
    assert "--engine" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Typed validation at the models
# ----------------------------------------------------------------------

_QUALITIES = [
    SourceQuality("a", 0.8, 0.5, 0.1),
    SourceQuality("b", 0.7, 0.4, 0.2),
    SourceQuality("c", 0.6, 0.3, 0.2),
]

not_a_probability = st.floats(allow_nan=True, allow_infinity=True).filter(
    lambda value: not 0.0 <= value <= 1.0
)


class TestExplicitJointParameters:
    @pytest.mark.parametrize("argument", ["joint_recalls", "joint_fprs"])
    @given(value=not_a_probability)
    def test_rejects_non_probabilities(self, argument, value):
        with pytest.raises(ValueError, match=argument):
            ExplicitJointModel(
                _QUALITIES, **{argument: {frozenset({0, 1}): value}}
            )

    @pytest.mark.parametrize("argument", ["joint_recalls", "joint_fprs"])
    @given(value=st.floats(0.0, 1.0))
    def test_accepts_probabilities(self, argument, value):
        model = ExplicitJointModel(
            _QUALITIES, **{argument: {frozenset({0, 1}): value}}
        )
        getter = (
            model.joint_recall if argument == "joint_recalls" else model.joint_fpr
        )
        assert getter([1, 0]) == value

    def test_nan_no_longer_floors_silently(self):
        # Used to score the triple provided by sources 0 and 1 at ~1e-12.
        with pytest.raises(ValueError, match="joint_recalls"):
            ExplicitJointModel(
                _QUALITIES, joint_recalls={frozenset({0, 1}): float("nan")}
            )


def _small_matrix():
    rng = np.random.default_rng(4)
    provides = rng.random((3, 40)) < 0.5
    return ObservationMatrix(provides, ["a", "b", "c"]), rng.random(40) < 0.5


bad_smoothing = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=-1e-12, allow_infinity=False),
)


class TestSmoothingValidation:
    @given(smoothing=bad_smoothing)
    @settings(deadline=None)
    def test_model_rejects_bad_smoothing(self, smoothing):
        matrix, labels = _small_matrix()
        with pytest.raises(ValueError, match="smoothing"):
            EmpiricalJointModel(matrix, labels, smoothing=smoothing)
        with pytest.raises(ValueError, match="smoothing"):
            fit_model(matrix, labels, smoothing=smoothing)

    @given(smoothing=bad_smoothing)
    @settings(deadline=None, max_examples=20)
    def test_refits_reject_bad_smoothing(self, smoothing):
        matrix, labels = _small_matrix()
        model = EmpiricalJointModel(matrix, labels)
        with pytest.raises(ValueError, match="smoothing"):
            model.refit_delta(matrix, labels, smoothing=smoothing)
        session = ScoringSession(matrix, labels, method="precrec", delta="off")
        with pytest.raises(ValueError, match="smoothing"):
            session.refit(matrix, labels, smoothing=smoothing)
        session.close()

    @given(smoothing=st.floats(0.0, 10.0))
    @settings(deadline=None, max_examples=20)
    def test_accepts_finite_non_negative_smoothing(self, smoothing):
        matrix, labels = _small_matrix()
        assert EmpiricalJointModel(matrix, labels, smoothing=smoothing).smoothing == smoothing

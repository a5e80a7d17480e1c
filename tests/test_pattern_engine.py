"""The pattern-centric vectorized execution engine vs the legacy path.

Three layers are exercised:

- :mod:`repro.core.bitset` -- bit-packed rows must agree bit-for-bit with
  plain boolean reductions (popcounts, subset intersections, masked counts);
- :mod:`repro.core.patterns` -- extracted unique patterns must reconstruct
  the matrix exactly and cover every triple, and the row-dedup kernel must
  reproduce ``np.unique(axis=0)`` exactly (row order, first indices,
  inverse), also for matrices wider than one 64-bit word;
- the engines themselves -- property-based tests assert that the vectorized
  engine's scores match the legacy per-triple path within 1e-9 across full-
  and partial-coverage matrices for PrecRec, exact, aggressive, and elastic
  fusers (plus the clustered fuser and the one-call API on seeded data).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    AggressiveFuser,
    ClusteredCorrelationFuser,
    ElasticFuser,
    EmpiricalJointModel,
    ExactCorrelationFuser,
    ObservationMatrix,
    PackedMatrix,
    PrecRecFuser,
    extract_patterns,
    fit_model,
    fuse,
    pack_bool_rows,
    pack_bool_vector,
    popcount,
)
from repro.core.fusion import DEFAULT_MU_CACHE_ENTRIES
from repro.core.patterns import (
    packed_pattern_rows,
    restricted_unique_patterns,
    unique_rows,
)
from repro.util.probability import probability_from_mu, probability_from_mu_array

ENGINE_TOLERANCE = 1e-9

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

bool_matrices = st.tuples(
    st.integers(1, 6), st.integers(1, 150)
).flatmap(
    lambda shape: arrays(dtype=bool, shape=shape, elements=st.booleans())
)


@st.composite
def observation_cases(draw, max_sources=6, max_triples=40):
    """(matrix, labels) with every triple provided by someone; coverage may
    be partial (always a superset of provides)."""
    n = draw(st.integers(2, max_sources))
    m = draw(st.integers(2, max_triples))
    provides = draw(
        arrays(dtype=bool, shape=(n, m), elements=st.booleans()).filter(
            lambda a: a.any(axis=0).all()
        )
    )
    partial = draw(st.booleans())
    if partial:
        extra = draw(arrays(dtype=bool, shape=(n, m), elements=st.booleans()))
        coverage = provides | extra
    else:
        coverage = None
    labels = draw(arrays(dtype=bool, shape=(m,), elements=st.booleans()))
    matrix = ObservationMatrix(
        provides, [f"s{i}" for i in range(n)], coverage=coverage
    )
    return matrix, labels


def _seeded_case(seed, n_sources=9, n_triples=400, partial=True):
    rng = np.random.default_rng(seed)
    provides = rng.random((n_sources, n_triples)) < 0.35
    provides[:, ~provides.any(axis=0)] = True
    coverage = provides | (rng.random((n_sources, n_triples)) < 0.7) if partial else None
    labels = rng.random(n_triples) < 0.5
    matrix = ObservationMatrix(
        provides, [f"s{i}" for i in range(n_sources)], coverage=coverage
    )
    return matrix, labels


# ----------------------------------------------------------------------
# Bitset layer
# ----------------------------------------------------------------------


class TestBitset:
    @given(matrix=bool_matrices)
    @settings(max_examples=60)
    def test_popcount_matches_boolean_sum(self, matrix):
        packed = PackedMatrix.from_bool(matrix)
        assert popcount(packed.words) == int(matrix.sum())
        assert np.array_equal(packed.row_counts(), matrix.sum(axis=1))

    @given(matrix=bool_matrices, data=st.data())
    @settings(max_examples=60)
    def test_and_reduce_matches_all_reduction(self, matrix, data):
        packed = PackedMatrix.from_bool(matrix)
        ids = data.draw(
            st.lists(
                st.integers(0, matrix.shape[0] - 1), unique=True, max_size=4
            )
        )
        expected = (
            matrix[ids].all(axis=0)
            if ids
            else np.ones(matrix.shape[1], dtype=bool)
        )
        assert packed.count(ids) == int(expected.sum())
        assert np.array_equal(
            packed.and_reduce(ids), pack_bool_vector(expected)
        )

    @given(matrix=bool_matrices, data=st.data())
    @settings(max_examples=60)
    def test_count_with_mask_matches_masked_sum(self, matrix, data):
        packed = PackedMatrix.from_bool(matrix)
        mask = data.draw(
            arrays(dtype=bool, shape=(matrix.shape[1],), elements=st.booleans())
        )
        ids = list(range(min(2, matrix.shape[0])))
        expected = int((matrix[ids].all(axis=0) & mask).sum())
        assert packed.count_with(ids, pack_bool_vector(mask)) == expected

    def test_tail_padding_is_clean(self):
        # Widths straddling word boundaries must not leak padding bits into
        # counts or full-row intersections.
        for width in (1, 63, 64, 65, 127, 128, 129):
            ones = np.ones((2, width), dtype=bool)
            packed = PackedMatrix.from_bool(ones)
            assert packed.count([]) == width
            assert packed.count([0, 1]) == width

    def test_pack_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pack_bool_rows(np.ones(4, dtype=bool))
        with pytest.raises(ValueError):
            pack_bool_vector(np.ones((2, 2), dtype=bool))


class _ReadRecorder(np.ndarray):
    """Word array that records which rows are read by integer index."""

    rows_read: set

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            self.rows_read.add(int(key))
        return super().__getitem__(key)


def _assert_batch_matches_brute_force(packed, subsets):
    batched = packed.and_reduce_batch(subsets)
    assert batched.shape == (subsets.shape[0], packed.n_words)
    for row in range(subsets.shape[0]):
        ids = np.flatnonzero(subsets[row]).tolist()
        assert np.array_equal(batched[row], packed.and_reduce(ids))
    return batched


class TestAndReduceBatchEdges:
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
    def test_all_empty_subsets_give_full_row_with_clean_tail(self, width):
        rng = np.random.default_rng(width)
        packed = PackedMatrix.from_bool(rng.random((5, width)) < 0.5)
        batched = _assert_batch_matches_brute_force(
            packed, np.zeros((3, 5), dtype=bool)
        )
        full = pack_bool_vector(np.ones(width, dtype=bool))
        for row in batched:
            assert np.array_equal(row, full)
            assert popcount(row) == width

    def test_subsets_selecting_only_the_last_row(self):
        rng = np.random.default_rng(7)
        matrix = rng.random((6, 130)) < 0.6
        packed = PackedMatrix.from_bool(matrix)
        subsets = np.zeros((4, 6), dtype=bool)
        subsets[[0, 2], 5] = True
        batched = _assert_batch_matches_brute_force(packed, subsets)
        assert np.array_equal(batched[0], pack_bool_vector(matrix[5]))
        assert np.array_equal(batched[1], packed.full_row())

    def test_sources_never_selected_are_never_read(self):
        rng = np.random.default_rng(11)
        packed = PackedMatrix.from_bool(rng.random((32, 100)) < 0.7)
        subsets = np.zeros((5, 32), dtype=bool)
        subsets[0, [3, 17]] = True
        subsets[1, [17, 31]] = True
        subsets[3, 3] = True
        expected = [
            packed.and_reduce(np.flatnonzero(row).tolist()) for row in subsets
        ]
        recorder = packed.words.view(_ReadRecorder)
        recorder.rows_read = set()
        packed._words = recorder
        batched = packed.and_reduce_batch(subsets)
        assert recorder.rows_read == {3, 17, 31}
        for row, want in zip(batched, expected):
            assert np.array_equal(row, want)


# ----------------------------------------------------------------------
# Pattern layer
# ----------------------------------------------------------------------


class TestPatterns:
    @given(case=observation_cases())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_patterns_reconstruct_matrix(self, case):
        matrix, _ = case
        patterns = extract_patterns(matrix.provides, matrix.coverage)
        assert patterns.n_triples == matrix.n_triples
        assert patterns.n_patterns <= matrix.n_triples
        assert int(patterns.counts.sum()) == matrix.n_triples
        # Scattering the pattern rows back must rebuild the exact columns.
        rebuilt_prov = patterns.provider_matrix[patterns.inverse].T
        rebuilt_sil = patterns.silent_matrix[patterns.inverse].T
        assert np.array_equal(rebuilt_prov, matrix.provides)
        assert np.array_equal(
            rebuilt_sil, matrix.coverage & ~matrix.provides
        )

    @given(case=observation_cases())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_pattern_sets_match_matrix_rows(self, case):
        matrix, _ = case
        patterns = matrix.patterns()
        for k in range(patterns.n_patterns):
            assert patterns.provider_sets[k] == frozenset(
                np.flatnonzero(patterns.provider_matrix[k]).tolist()
            )
            assert patterns.silent_sets[k] == frozenset(
                np.flatnonzero(patterns.silent_matrix[k]).tolist()
            )

    def test_patterns_are_cached_on_the_matrix(self):
        matrix, _ = _seeded_case(3)
        assert matrix.patterns() is matrix.patterns()

    def test_duplicate_columns_collapse(self):
        provides = np.array(
            [[1, 1, 0, 1], [0, 0, 1, 0]], dtype=bool
        )
        matrix = ObservationMatrix(provides, ["a", "b"])
        patterns = matrix.patterns()
        assert patterns.n_patterns == 2
        assert patterns.dedup_ratio == pytest.approx(2.0)

    def test_scatter_validates_shape(self):
        matrix, _ = _seeded_case(4, n_sources=3, n_triples=10)
        patterns = matrix.patterns()
        with pytest.raises(ValueError):
            patterns.scatter(np.zeros(patterns.n_patterns + 1))


# ----------------------------------------------------------------------
# Row-dedup kernel == np.unique(axis=0)
# ----------------------------------------------------------------------

#: Word values at and above 2**63 catch a signed comparison in the sort.
_EDGE_WORDS = (0, 1, 2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)


@st.composite
def word_rows(draw):
    """A ``(n_rows, n_words)`` uint64 array drawn from a few distinct rows,
    so duplicates are common; ``n_rows`` may be 0."""
    n_words = draw(st.integers(1, 3))
    n_distinct = draw(st.integers(1, 5))
    word = st.one_of(st.sampled_from(_EDGE_WORDS), st.integers(0, 2**64 - 1))
    pool = draw(
        arrays(dtype=np.uint64, shape=(n_distinct, n_words), elements=word)
    )
    picks = draw(st.lists(st.integers(0, n_distinct - 1), max_size=40))
    return pool[np.asarray(picks, dtype=np.intp)]


def _assert_matches_np_unique(words):
    expected_rows, expected_first, expected_inverse = np.unique(
        words, axis=0, return_index=True, return_inverse=True
    )
    first_index, inverse = unique_rows(words)
    assert np.array_equal(first_index, expected_first)
    assert np.array_equal(inverse, expected_inverse.reshape(-1))
    assert np.array_equal(words[first_index], expected_rows)


class TestUniqueRows:
    @given(words=word_rows())
    @settings(max_examples=200)
    def test_matches_np_unique(self, words):
        _assert_matches_np_unique(words)

    @pytest.mark.parametrize("n_words", [1, 2, 3])
    def test_zero_rows(self, n_words):
        words = np.zeros((0, n_words), dtype=np.uint64)
        _assert_matches_np_unique(words)
        first_index, inverse = unique_rows(words)
        assert first_index.shape == inverse.shape == (0,)

    @pytest.mark.parametrize("n_words", [1, 2, 3])
    def test_one_row(self, n_words):
        words = np.full((1, n_words), 2**63, dtype=np.uint64)
        _assert_matches_np_unique(words)

    @pytest.mark.parametrize("n_words", [1, 2, 3])
    def test_all_duplicate_rows(self, n_words):
        words = np.full((9, n_words), 2**64 - 1, dtype=np.uint64)
        first_index, inverse = unique_rows(words)
        assert first_index.tolist() == [0]
        assert inverse.tolist() == [0] * 9
        _assert_matches_np_unique(words)

    def test_high_bit_sorts_as_unsigned(self):
        words = np.array([[2**63, 0], [1, 5], [2**63, 0], [1, 2**63]],
                         dtype=np.uint64)
        first_index, inverse = unique_rows(words)
        assert first_index.tolist() == [1, 3, 0]
        assert inverse.tolist() == [2, 0, 2, 1]
        _assert_matches_np_unique(words)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            unique_rows(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            unique_rows(np.zeros((4, 0), dtype=np.uint64))


# ----------------------------------------------------------------------
# Pattern layer on matrices wider than one 64-bit word
# ----------------------------------------------------------------------


def _wide_case(seed, n_sources=130, n_triples=600):
    """Provides/coverage with many repeated columns over several words."""
    rng = np.random.default_rng(seed)
    templates = rng.random((n_sources, 40)) < 0.3
    provides = templates[:, rng.integers(0, 40, n_triples)]
    flips = rng.random((n_sources, n_triples)) < 0.002
    provides = provides ^ flips
    provides[:, ~provides.any(axis=0)] = True
    coverage = provides | (rng.random((n_sources, 1)) < 0.8)
    return provides, coverage


def _restricted_by_np_unique(provider_matrix, silent_matrix, members):
    """The ``np.unique(axis=0)`` formulation of restricted dedup."""
    mask = np.zeros(provider_matrix.shape[1], dtype=bool)
    mask[members] = True
    sub_providers = provider_matrix & mask
    sub_silent = silent_matrix & mask
    packed = np.concatenate(
        [
            pack_bool_rows(sub_providers[:, members]),
            pack_bool_rows(sub_silent[:, members]),
        ],
        axis=1,
    )
    _, first_index, inverse = np.unique(
        packed, axis=0, return_index=True, return_inverse=True
    )
    return (
        sub_providers[first_index],
        sub_silent[first_index],
        inverse.reshape(-1),
    )


class TestWidePatterns:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extract_rebuilds_matrix_in_first_occurrence_order(self, seed):
        provides, coverage = _wide_case(seed)
        silent = coverage & ~provides
        patterns = extract_patterns(provides, coverage)
        combined = packed_pattern_rows(provides.T, silent.T)
        assert combined.shape[1] == 6  # three words per side
        assert 1 < patterns.n_patterns < provides.shape[1]
        assert np.array_equal(
            patterns.provider_matrix[patterns.inverse].T, provides
        )
        assert np.array_equal(patterns.silent_matrix[patterns.inverse].T, silent)
        # Each pattern row is its first triple's column, and patterns are
        # numbered exactly as np.unique(axis=0) numbers them.
        first = np.array(
            [np.flatnonzero(patterns.inverse == k)[0]
             for k in range(patterns.n_patterns)]
        )
        assert np.array_equal(patterns.provider_matrix, provides.T[first])
        assert np.array_equal(patterns.silent_matrix, silent.T[first])
        _, expected_first, expected_inverse = np.unique(
            combined, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(first, expected_first)
        assert np.array_equal(patterns.inverse, expected_inverse.reshape(-1))

    @pytest.mark.parametrize(
        "members",
        [[3, 63, 64, 70], [0, 64, 128, 129], list(range(0, 130, 2))],
    )
    def test_restricted_matches_np_unique_across_word_boundary(self, members):
        provides, coverage = _wide_case(5)
        patterns = extract_patterns(provides, coverage)
        got = restricted_unique_patterns(
            patterns.provider_matrix, patterns.silent_matrix, members
        )
        want = _restricted_by_np_unique(
            patterns.provider_matrix, patterns.silent_matrix, members
        )
        assert got[0].shape[0] < patterns.n_patterns
        for got_part, want_part in zip(got, want):
            assert np.array_equal(got_part, want_part)
        assert np.array_equal(
            got[0][got[2]], patterns.provider_matrix & np.isin(
                np.arange(provides.shape[0]), members
            )
        )


# ----------------------------------------------------------------------
# Joint model: packed statistics == boolean-mask statistics
# ----------------------------------------------------------------------


class TestJointModelEngines:
    @given(case=observation_cases(), data=st.data())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_joint_parameters_identical(self, case, data):
        matrix, labels = case
        legacy = EmpiricalJointModel(matrix, labels, engine="legacy")
        packed = EmpiricalJointModel(matrix, labels, engine="vectorized")
        subset = data.draw(
            st.lists(
                st.integers(0, matrix.n_sources - 1), unique=True, max_size=4
            )
        )
        assert packed.joint_recall(subset) == legacy.joint_recall(subset)
        assert packed.joint_fpr(subset) == legacy.joint_fpr(subset)
        assert packed.joint_precision(subset) == legacy.joint_precision(subset)
        assert packed.joint_coverage_counts(subset) == legacy.joint_coverage_counts(
            subset
        )

    def test_engine_validation(self):
        matrix, labels = _seeded_case(5, n_sources=3, n_triples=12)
        with pytest.raises(ValueError, match="engine"):
            EmpiricalJointModel(matrix, labels, engine="turbo")

    @given(case=observation_cases(), data=st.data())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_params_match_scalar_queries(self, case, data):
        matrix, labels = case
        model = EmpiricalJointModel(matrix, labels, engine="vectorized")
        n_subsets = data.draw(st.integers(1, 6))
        subsets = data.draw(
            arrays(
                dtype=bool,
                shape=(n_subsets, matrix.n_sources),
                elements=st.booleans(),
            )
        )
        result = model.joint_params_batch(subsets)
        assert result is not None
        recalls, fprs = result
        for row in range(n_subsets):
            ids = np.flatnonzero(subsets[row]).tolist()
            assert recalls[row] == model.joint_recall(ids)
            assert fprs[row] == model.joint_fpr(ids)

    def test_batch_params_unavailable_on_legacy_engine(self):
        matrix, labels = _seeded_case(6, n_sources=4, n_triples=20)
        model = EmpiricalJointModel(matrix, labels, engine="legacy")
        probe = np.zeros((1, matrix.n_sources), dtype=bool)
        assert model.joint_params_batch(probe) is None

    @given(matrix=bool_matrices, data=st.data())
    @settings(max_examples=40)
    def test_and_reduce_batch_matches_per_subset(self, matrix, data):
        packed = PackedMatrix.from_bool(matrix)
        n_subsets = data.draw(st.integers(1, 5))
        subsets = data.draw(
            arrays(
                dtype=bool,
                shape=(n_subsets, matrix.shape[0]),
                elements=st.booleans(),
            )
        )
        batched = packed.and_reduce_batch(subsets)
        for row in range(n_subsets):
            ids = np.flatnonzero(subsets[row]).tolist()
            assert np.array_equal(batched[row], packed.and_reduce(ids))


# ----------------------------------------------------------------------
# Fuser engines: vectorized scores == legacy scores
# ----------------------------------------------------------------------


def _fuser_pairs(model_legacy, model_vectorized):
    yield (
        PrecRecFuser(model_legacy, engine="legacy"),
        PrecRecFuser(model_vectorized, engine="vectorized"),
    )
    yield (
        ExactCorrelationFuser(model_legacy, engine="legacy"),
        ExactCorrelationFuser(model_vectorized, engine="vectorized"),
    )
    yield (
        AggressiveFuser(model_legacy, engine="legacy"),
        AggressiveFuser(model_vectorized, engine="vectorized"),
    )
    yield (
        ElasticFuser(model_legacy, level=2, engine="legacy"),
        ElasticFuser(model_vectorized, level=2, engine="vectorized"),
    )


class TestEngineEquivalence:
    @given(case=observation_cases())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_scores_match_on_random_matrices(self, case):
        matrix, labels = case
        model_legacy = fit_model(matrix, labels, prior=0.5, engine="legacy")
        model_vec = fit_model(matrix, labels, prior=0.5, engine="vectorized")
        for legacy, vectorized in _fuser_pairs(model_legacy, model_vec):
            np.testing.assert_allclose(
                vectorized.score(matrix),
                legacy.score(matrix),
                atol=ENGINE_TOLERANCE,
                rtol=0,
                err_msg=type(legacy).__name__,
            )

    @pytest.mark.parametrize("partial", [False, True])
    def test_scores_match_on_seeded_matrices(self, partial):
        matrix, labels = _seeded_case(11, partial=partial)
        model_legacy = fit_model(matrix, labels, engine="legacy")
        model_vec = fit_model(matrix, labels, engine="vectorized")
        for legacy, vectorized in _fuser_pairs(model_legacy, model_vec):
            np.testing.assert_allclose(
                vectorized.score(matrix),
                legacy.score(matrix),
                atol=ENGINE_TOLERANCE,
                rtol=0,
                err_msg=type(legacy).__name__,
            )
        clustered_legacy = ClusteredCorrelationFuser(model_legacy, engine="legacy")
        clustered_vec = ClusteredCorrelationFuser(model_vec, engine="vectorized")
        np.testing.assert_allclose(
            clustered_vec.score(matrix),
            clustered_legacy.score(matrix),
            atol=ENGINE_TOLERANCE,
            rtol=0,
        )

    def test_aggressive_with_restricted_universe_falls_back(self):
        matrix, labels = _seeded_case(7, n_sources=5, n_triples=60, partial=False)
        model = fit_model(matrix, labels)
        fuser = AggressiveFuser(model, universe=[0, 1, 2])
        assert fuser.pattern_mu_batch(matrix.patterns()) is None

    def test_vectorized_is_default_engine(self):
        matrix, labels = _seeded_case(8, n_sources=4, n_triples=30)
        model = fit_model(matrix, labels)
        assert model.engine == "vectorized"
        assert PrecRecFuser(model).engine == "vectorized"

    def test_invalid_engine_rejected(self):
        matrix, labels = _seeded_case(9, n_sources=4, n_triples=30)
        model = fit_model(matrix, labels)
        with pytest.raises(ValueError, match="engine"):
            PrecRecFuser(model, engine="warp")

    def test_fuse_api_engines_agree(self):
        matrix, labels = _seeded_case(10, n_sources=6, n_triples=200)
        for method in ("precrec", "precreccorr", "aggressive", "elastic"):
            vec = fuse(matrix, labels, method=method, engine="vectorized")
            legacy = fuse(matrix, labels, method=method, engine="legacy")
            np.testing.assert_allclose(
                vec.scores, legacy.scores, atol=ENGINE_TOLERANCE, rtol=0,
                err_msg=method,
            )


# ----------------------------------------------------------------------
# Clustered fuser: batched union-plan scoring == legacy per-triple scoring
# ----------------------------------------------------------------------


@st.composite
def source_partitions(draw, n_sources):
    """A random partition of ``range(n_sources)`` into clusters."""
    assignment = draw(
        st.lists(
            st.integers(0, n_sources - 1),
            min_size=n_sources,
            max_size=n_sources,
        )
    )
    clusters: dict[int, set[int]] = {}
    for source, label in enumerate(assignment):
        clusters.setdefault(label, set()).add(source)
    from repro.core import SourcePartition

    return SourcePartition(
        clusters=tuple(frozenset(c) for c in clusters.values())
    )


class TestClusteredEngineEquivalence:
    """Hypothesis equivalence for the clustered fuser's batched path.

    The vectorized path (per-cluster sub-pattern dedup + batched union
    plans) must reproduce the legacy per-triple scoring *bit-identically*,
    including when the true-side and false-side partitions differ and when
    oversized clusters route through the elastic evaluators.
    """

    @given(
        case=observation_cases(max_sources=6, max_triples=30),
        data=st.data(),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_batched_matches_legacy_bit_for_bit(self, case, data):
        matrix, labels = case
        true_partition = data.draw(source_partitions(matrix.n_sources))
        false_partition = data.draw(source_partitions(matrix.n_sources))
        # A small exact_cluster_limit routes larger clusters through the
        # elastic evaluators; level 1 keeps the approximation observable.
        exact_cluster_limit = data.draw(st.sampled_from([1, 2, 12]))
        model_legacy = fit_model(matrix, labels, prior=0.5, engine="legacy")
        model_vec = fit_model(matrix, labels, prior=0.5, engine="vectorized")
        kwargs = dict(
            true_partition=true_partition,
            false_partition=false_partition,
            exact_cluster_limit=exact_cluster_limit,
            elastic_level=1,
        )
        legacy = ClusteredCorrelationFuser(
            model_legacy, engine="legacy", **kwargs
        )
        vectorized = ClusteredCorrelationFuser(
            model_vec, engine="vectorized", **kwargs
        )
        np.testing.assert_array_equal(
            vectorized.score(matrix), legacy.score(matrix)
        )

    def test_true_false_partition_split_drives_the_right_side(self):
        # With a degenerate false partition (all singletons) the denominator
        # must factor per source while the numerator keeps the joint
        # true-side cluster -- verified against a hand-built expectation.
        from repro.core import SourcePartition

        matrix, labels = _seeded_case(14, n_sources=4, n_triples=60)
        model = fit_model(matrix, labels, prior=0.5)
        true_partition = SourcePartition(clusters=(frozenset(range(4)),))
        false_partition = SourcePartition(
            clusters=tuple(frozenset({i}) for i in range(4))
        )
        fuser = ClusteredCorrelationFuser(
            model,
            true_partition=true_partition,
            false_partition=false_partition,
        )
        swapped = ClusteredCorrelationFuser(
            model,
            true_partition=false_partition,
            false_partition=true_partition,
        )
        scores = fuser.score(matrix)
        # Each fuser must still agree with its own legacy path ...
        legacy = ClusteredCorrelationFuser(
            model,
            engine="legacy",
            true_partition=true_partition,
            false_partition=false_partition,
        )
        np.testing.assert_array_equal(scores, legacy.score(matrix))
        # ... and the two sides are genuinely distinct computations.
        assert not np.array_equal(scores, swapped.score(matrix))

    def test_oversized_clusters_route_through_elastic_batch(self):
        matrix, labels = _seeded_case(15, n_sources=8, n_triples=150)
        from repro.core import SourcePartition

        partition = SourcePartition(
            clusters=(frozenset(range(5)), frozenset(range(5, 8)))
        )
        model_legacy = fit_model(matrix, labels, engine="legacy")
        model_vec = fit_model(matrix, labels, engine="vectorized")
        kwargs = dict(
            true_partition=partition,
            false_partition=partition,
            exact_cluster_limit=3,  # both a 5-cluster (elastic) and 3 (exact)
            elastic_level=2,
        )
        legacy = ClusteredCorrelationFuser(
            model_legacy, engine="legacy", **kwargs
        )
        vectorized = ClusteredCorrelationFuser(
            model_vec, engine="vectorized", **kwargs
        )
        assert any(
            isinstance(e, ElasticFuser) for e in vectorized._true_evaluators
        )
        # The same oversized cluster on both sides shares one elastic
        # evaluator, so its batch evaluation is memoised across sides.
        for true_eval, false_eval in zip(
            vectorized._true_evaluators, vectorized._false_evaluators
        ):
            assert true_eval is false_eval
        np.testing.assert_array_equal(
            vectorized.score(matrix), legacy.score(matrix)
        )


# ----------------------------------------------------------------------
# Posterior transform: vectorized == scalar
# ----------------------------------------------------------------------


class TestBatchPosterior:
    @given(
        mu=st.floats(
            allow_nan=True, allow_infinity=True, min_value=None, max_value=None
        ),
        prior=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=120)
    def test_matches_scalar_transform(self, mu, prior):
        batched = probability_from_mu_array(np.array([mu]), prior)
        assert batched[0] == pytest.approx(
            probability_from_mu(mu, prior), abs=1e-15
        )


# ----------------------------------------------------------------------
# Satellites: bounded mu cache, pruning source restrictions
# ----------------------------------------------------------------------


class TestBoundedMuCache:
    def test_cache_respects_cap_and_stays_correct(self):
        matrix, labels = _seeded_case(12, n_sources=6, n_triples=120)
        model = fit_model(matrix, labels)
        capped = PrecRecFuser(model, max_cache_entries=1, engine="legacy")
        uncapped = PrecRecFuser(model, engine="legacy")
        np.testing.assert_allclose(
            capped.score(matrix), uncapped.score(matrix), atol=0
        )
        assert len(capped._mu_cache) <= 1
        assert len(uncapped._mu_cache) > 1

    def test_default_cap_matches_joint_model_policy(self):
        assert DEFAULT_MU_CACHE_ENTRIES == 200_000

    def test_negative_cap_rejected(self):
        matrix, labels = _seeded_case(13, n_sources=3, n_triples=10)
        model = fit_model(matrix, labels)
        with pytest.raises(ValueError, match="max_cache_entries"):
            PrecRecFuser(model, max_cache_entries=-1)


class TestRestrictedToSourcesPruning:
    def test_prune_drops_dead_columns(self):
        provides = np.array(
            [
                [True, False, False, True],
                [False, True, False, False],
                [False, False, True, False],
            ]
        )
        matrix = ObservationMatrix(provides, ["a", "b", "c"])
        kept = matrix.restricted_to_sources([0, 1], prune_empty_triples=True)
        assert kept.n_triples == 3  # column 2 is provided only by "c"
        assert kept.n_sources == 2
        assert np.array_equal(
            kept.provides,
            np.array([[True, False, True], [False, True, False]]),
        )

    def test_default_keeps_all_columns(self):
        provides = np.array([[True, False], [False, False]])
        provides[1, 1] = True
        matrix = ObservationMatrix(provides, ["a", "b"])
        restricted = matrix.restricted_to_sources([0])
        assert restricted.n_triples == 2

    def test_pruned_matrix_reindexes_triples(self):
        from repro.core import Triple, TripleIndex

        index = TripleIndex(
            [Triple("s1", "p", "o1"), Triple("s2", "p", "o2")]
        )
        provides = np.array([[True, False], [False, True]])
        matrix = ObservationMatrix(provides, ["a", "b"], triple_index=index)
        kept = matrix.restricted_to_sources([1], prune_empty_triples=True)
        assert kept.n_triples == 1
        assert kept.triple_index is not None
        assert kept.triple_index[0] == Triple("s2", "p", "o2")

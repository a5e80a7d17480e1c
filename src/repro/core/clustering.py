"""Correlation-based source clustering (Section 5, BOOK-dataset treatment).

With hundreds of sources the number of joint parameters explodes and most
subsets have no support in training data.  The paper's remedy: "we divide
sources into clusters based on their pairwise correlations, and assume that
sources across clusters are independent".  Under cross-cluster independence
the likelihoods factorise:

    Pr(Ot | t)     = prod_{cluster c} Pr(Ot restricted to c | t)
    Pr(Ot | not t) = prod_{cluster c} Pr(Ot restricted to c | not t)

so each cluster can be evaluated exactly (or elastically) in isolation.  The
paper clusters separately for true-triple correlations and false-triple
correlations -- the numerator uses the true-side partition and the
denominator the false-side partition, which this module implements.

Clusters are connected components of a "correlation graph": sources are
linked when their provide-indicators show a large-enough phi coefficient
(in either direction -- both positive and negative correlations matter)
*and* the pair's 2x2 contingency table rejects independence at a
Bonferroni-corrected level, so noise pairs cannot chain wide datasets into
one giant component.

Detection has one path, :func:`detect_partition_state`.  It gathers the
pair statistics once -- per-source rates, every pair's joint recall and
fpr, and joint coverage counts -- screens the true and false sides
together element-wise, sends both sides' surviving candidates through one
independence-test batch (:mod:`repro.core.independence`, scipy's
chi-square and Fisher algorithms replayed on the kernels scipy calls), and
forms components by union-find.  Its :class:`PartitionDetectionState`
carries the edge sets, so a delta refit re-decides only pairs that touch
a dirty source (:func:`refresh_partition_state`).  The fuser, the session,
:func:`pairwise_correlations`, :func:`correlation_clusters` and
:func:`discovered_correlation_groups` all read that state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.elastic import ElasticFuser
from repro.core.fusion import ModelBasedFuser
from repro.core.independence import decide_tables
from repro.core.joint import JointQualityModel, pair_indices
from repro.core.locktrace import make_lock
from repro.core.patterns import (
    CODE_MAX_MEMBERS,
    PatternSet,
    RestrictionTable,
    restricted_unique_patterns,
)
from repro.core.plans import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    CompiledExactPlan,
    CompiledPlanCache,
    pattern_digest,
)
from repro.util.probability import PROBABILITY_FLOOR

Side = Literal["true", "false"]

#: A per-cluster evaluator: an oversized cluster's elastic evaluator, or
#: ``None`` for a small cluster, scored exactly from its restriction codes.
ClusterEvaluator = Optional[ElasticFuser]
#: One evaluator, the clusters it serves, and their restriction table.
_EvaluatorGroup = tuple[
    ClusterEvaluator, list[frozenset[int]], RestrictionTable
]
#: A coded group's log memo: restriction keys (sorted ``int64``) with the
#: parallel true- and false-side log-likelihoods of each restriction.
_LogTable = tuple[np.ndarray, np.ndarray, np.ndarray]
#: ``((logs_true, logs_false), row index by cluster)`` -- one group's part
#: of the per-side term lists.
_GroupLogs = tuple[
    tuple[np.ndarray, np.ndarray], dict[frozenset[int], np.ndarray]
]


def _frozen_log_table(
    keys: np.ndarray, logs_true: np.ndarray, logs_false: np.ndarray
) -> _LogTable:
    for array in (keys, logs_true, logs_false):
        array.setflags(write=False)
    return keys, logs_true, logs_false


_EMPTY_LOG_TABLE = _frozen_log_table(
    np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
)


#: Rows of a group's sub-pattern table: every row (``slice(None)``) or an
#: index array.
_RowSelection = Union[slice, np.ndarray]


def _log_pair(
    likelihoods: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``(logs_true, logs_false)``: one ``math.log`` walk over both sides.

    Each value is floored at ``PROBABILITY_FLOOR`` first, as the
    per-pattern walk in ``tests/reference.py`` does.
    """
    logs = np.array(
        [
            math.log(max(value, PROBABILITY_FLOOR))
            for value in np.concatenate(likelihoods).tolist()
        ],
        dtype=float,
    )
    n_rows = likelihoods[0].shape[0]
    return logs[:n_rows], logs[n_rows:]


def _check_exact_limit(limit: int, n_sources: int) -> None:
    """Refuse an ``exact_cluster_limit`` whose exact group could go uncoded.

    The exact group holds the clusters of at most ``limit`` sources of
    both partitions, and a ``k``-source cluster spans ``4^k`` restriction
    keys (a provider and a silent bit per member).  Each partition spans
    the most keys when it has as many full-size clusters as fit, so the
    group spans at most twice that; it must stay within ``int64``, and no
    cluster may be wider than :data:`CODE_MAX_MEMBERS`.
    """

    def fits(width: int) -> bool:
        full, rest = divmod(n_sources, width)
        span = full * 4**width + (4**rest if rest else 0)
        return width <= CODE_MAX_MEMBERS and 2 * span < 2**63

    if limit < 1:
        raise ValueError(f"exact_cluster_limit must be >= 1, got {limit}")
    if n_sources and not fits(min(limit, n_sources)):
        largest = max(
            width for width in range(1, CODE_MAX_MEMBERS + 1) if fits(width)
        )
        raise ValueError(
            f"exact_cluster_limit must be at most {largest} for "
            f"{n_sources} sources (an exact cluster of k sources costs 2^k "
            f"terms, and the exact clusters' restriction codes must fit "
            f"int64), got {limit}"
        )


def _find_keys(
    known: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, found)`` of ``keys`` in the sorted ``known`` keys.

    ``positions`` are the insertion points; ``found`` marks the keys
    ``known`` holds, each at its position.
    """
    positions = np.searchsorted(known, keys)
    if known.size == 0:
        return positions, np.zeros(keys.shape, dtype=bool)
    return positions, known[np.minimum(positions, known.size - 1)] == keys


@dataclass(frozen=True)
class SourcePartition:
    """A partition of source ids into correlation clusters."""

    clusters: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cluster in self.clusters:
            if seen & cluster:
                raise ValueError("clusters overlap; not a partition")
            seen |= cluster

    @property
    def sizes(self) -> tuple[int, ...]:
        """Cluster sizes in decreasing order (the paper reports these)."""
        return tuple(sorted((len(c) for c in self.clusters), reverse=True))

    @property
    def nontrivial(self) -> tuple[frozenset[int], ...]:
        """Clusters with at least two sources -- the discovered correlations."""
        return tuple(c for c in self.clusters if len(c) >= 2)

    def cluster_of(self, source_id: int) -> frozenset[int]:
        for cluster in self.clusters:
            if source_id in cluster:
                return cluster
        raise KeyError(f"source {source_id} not in partition")


@dataclass(frozen=True)
class PairwiseCorrelation:
    """One detected source-pair correlation."""

    source_i: int
    source_j: int
    factor: float
    phi: float

    @property
    def positive(self) -> bool:
        return self.phi > 0


def pairwise_phi(p_i: float, p_j: float, p_both: float) -> float:
    """Phi coefficient of two provide-indicators from their rates.

    ``phi = (p11 - p1 p2) / sqrt(p1 (1-p1) p2 (1-p2))`` -- a correlation
    measure that, unlike the raw factor ``C = p11 / (p1 p2)``, does not
    saturate when the marginal rates are high (the RESTAURANT regime) or
    explode when they are low (the BOOK regime).
    """
    denominator = math.sqrt(p_i * (1.0 - p_i) * p_j * (1.0 - p_j))
    if denominator <= 0.0:
        return 0.0
    return (p_both - p_i * p_j) / denominator


class SignificanceMemo:
    """Decision memo for the pair independence tests, keyed by exact table.

    A test outcome is a pure function of the integer 2x2 contingency table
    and the Bonferroni level, so a delta refit whose dirty words left a
    pair's table bit-unchanged can reuse the previous generation's decision
    verbatim -- the dominant cost of clustering on wide grids is the
    per-pair independence test, and under low churn most tables recur.
    The memo is carried across model generations by the scoring session
    (never module-global: a process-wide memo would also accelerate *cold*
    refits and corrupt delta-vs-cold benchmark comparisons).

    Thread-safety mirrors ``PatternValueMemo``: reads are plain dict
    look-ups (atomic under the GIL), stores take a lock, and values are
    deterministic so racing duplicate computes are benign.  Hit/miss
    counters are deliberately unlocked diagnostics.
    """

    __slots__ = ("_decisions", "_max_entries", "_lock", "hits", "misses")

    def __init__(self, max_entries: int = 1_000_000) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be non-negative, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._lock = make_lock("SignificanceMemo._lock")
        # guarded-by: _lock
        self._decisions: dict[tuple, bool] = {}
        # Hit/miss counters are deliberately unlocked diagnostics (see
        # class docstring).
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._decisions)

    @property
    def stats(self) -> dict:
        """Counters for serving diagnostics (``cache_stats()["refit"]``)."""
        return {
            "entries": len(self._decisions),
            "max_entries": self._max_entries,
            "hits": self.hits,
            "misses": self.misses,
        }

    def lookup(
        self, tables: Sequence[tuple[int, int, int, int]], alpha: float
    ) -> list[Optional[bool]]:
        """Known decisions per table (``None`` where never seen)."""
        get = self._decisions.get
        out: list[Optional[bool]] = []
        hits = 0
        for table in tables:
            value = get((*table, alpha))
            out.append(value)
            if value is not None:
                hits += 1
        self.hits += hits
        self.misses += len(out) - hits
        return out

    def store(
        self,
        tables: Sequence[tuple[int, int, int, int]],
        decisions: Sequence[bool],
        alpha: float,
    ) -> None:
        with self._lock:
            memo = self._decisions
            for table, decision in zip(tables, decisions):
                if len(memo) >= self._max_entries:
                    break
                memo[(*table, alpha)] = bool(decision)


def _check_thresholds(
    min_phi: float, min_expected: float, significance: float
) -> None:
    """Reject detection thresholds that would silently drop every edge."""
    if not 0.0 <= min_phi <= 1.0:
        raise ValueError(f"min_phi must be in [0, 1], got {min_phi}")
    if not 0.0 < significance <= 1.0:
        raise ValueError(f"significance must be in (0, 1], got {significance}")
    if not (math.isfinite(min_expected) and min_expected >= 0.0):
        raise ValueError(
            f"min_expected must be finite and >= 0, got {min_expected}"
        )


@dataclass(frozen=True)
class PartitionDetectionState:
    """One generation's full correlation-detection outcome, carryable.

    Holds both sides' *edge sets* alongside their partitions: a pair whose
    two sources are both clean in the next generation has bit-identical
    rates, joint parameters, and coverage counts, so its edge decision
    provably cannot change and is carried; only pairs touching a dirty
    source are re-decided (:func:`refresh_partition_state`).  The
    detection thresholds are recorded so a refresh can refuse to carry
    across a parameter change.
    """

    true_edges: frozenset[tuple[int, int]]
    false_edges: frozenset[tuple[int, int]]
    true_partition: SourcePartition
    false_partition: SourcePartition
    n_sources: int
    min_phi: float
    min_expected: float
    significance: float

    @classmethod
    def from_edges(
        cls,
        n_sources: int,
        true_edges: frozenset[tuple[int, int]],
        false_edges: frozenset[tuple[int, int]],
        min_phi: float,
        min_expected: float,
        significance: float,
    ) -> "PartitionDetectionState":
        return cls(
            true_edges=true_edges,
            false_edges=false_edges,
            true_partition=_components_partition(n_sources, true_edges),
            false_partition=_components_partition(n_sources, false_edges),
            n_sources=n_sources,
            min_phi=min_phi,
            min_expected=min_expected,
            significance=significance,
        )

    def matches(
        self, n_sources: int, min_phi: float, min_expected: float,
        significance: float,
    ) -> bool:
        return (
            self.n_sources == n_sources
            and self.min_phi == min_phi
            and self.min_expected == min_expected
            and self.significance == significance
        )

    def edges(self, side: Side) -> frozenset[tuple[int, int]]:
        return self.true_edges if side == "true" else self.false_edges

    def partition(self, side: Side) -> SourcePartition:
        return self.true_partition if side == "true" else self.false_partition

    def groups(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Non-trivial clusters per side as sorted id tuples, largest first."""
        return {
            side: tuple(
                sorted(
                    (tuple(sorted(c)) for c in self.partition(side).nontrivial),
                    key=len,
                    reverse=True,
                )
            )
            for side in ("true", "false")
        }


def _components_partition(
    n_sources: int, edges: Iterable[tuple[int, int]]
) -> SourcePartition:
    """Connected components of the edge set, as a :class:`SourcePartition`.

    Union-find, with components emitted in order of their smallest member
    -- the order ``networkx.connected_components`` yields when nodes
    ``0..n-1`` were added first (pinned against it by the test oracle), so
    cluster *order*, which fixes the likelihood summation order, is the
    one the paper reproduction has always used.
    """
    parent = list(range(n_sources))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            if rj < ri:
                ri, rj = rj, ri
            parent[rj] = ri
    members: dict[int, list[int]] = {}
    for node in range(n_sources):
        members.setdefault(find(node), []).append(node)
    clusters = tuple(
        frozenset(members[root]) for root in sorted(members)
    )
    return SourcePartition(clusters=clusters)


def _pair_joints(model: JointQualityModel, pair_ids: np.ndarray) -> np.ndarray:
    """``(2, k)`` joint recall (row 0) and fpr (row 1) of the selected pairs,
    from the model's memoised all-pairs batch."""
    _, r_pairs, q_pairs = model.pair_joint_params()
    return np.stack([r_pairs[pair_ids], q_pairs[pair_ids]])


def _pair_counts(
    model: JointQualityModel, pair_ids: np.ndarray
) -> Optional[np.ndarray]:
    """``(2, k)`` joint coverage counts (true, false), or ``None``.

    ``None`` for parameter-only models, which have no sample to judge
    support or significance by.
    """
    coverage = model.pair_coverage_counts()
    if coverage is not None:
        return np.stack(coverage).astype(np.int64)[:, pair_ids]
    ii, jj = pair_indices(model.n_sources)
    counts = [
        model.joint_coverage_counts((int(ii[k]), int(jj[k])))
        for k in pair_ids
    ]
    if any(count is None for count in counts):
        return None
    return np.array(counts, dtype=np.int64).reshape(-1, 2).T


def _pair_effects(
    rates_i: np.ndarray, rates_j: np.ndarray, joints: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element-wise ``(independent, factor, phi)`` of each pair.

    ``factor`` replays ``correlation_true``/``correlation_false`` (1 where
    the independence product vanishes) and ``phi`` :func:`pairwise_phi`,
    each in the scalar expression's operation order, so every value is
    bit-identical to the per-pair scalar computation.
    """
    independent = rates_i * rates_j
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(independent == 0.0, 1.0, joints / independent)
        variance = rates_i * (1.0 - rates_i) * rates_j * (1.0 - rates_j)
        phi_denominator = np.sqrt(variance)
        phis = np.where(
            phi_denominator <= 0.0,
            0.0,
            (joints - independent) / phi_denominator,
        )
    return independent, factors, phis


def _decide_pairs(
    model: JointQualityModel,
    pair_ids: np.ndarray,
    min_phi: float,
    min_expected: float,
    alpha: float,
    memo: Optional[SignificanceMemo],
) -> np.ndarray:
    """``(2, k)`` edge decisions (true side, false side) for the pairs.

    The one decision core: ``pair_ids`` are row-major upper-triangle pair
    ids, and both sides are screened together -- effect size
    (``|phi| >= min_phi``), then, on models with evidence counts, support
    (expected co-occurrences ``>= min_expected``), then one
    :func:`_significant_batch` call over both sides' surviving candidates.
    Each pair is decided independently of which others are selected, so a
    restricted evaluation (the delta-refit refresh) decides every pair
    exactly as a full one does.
    """
    ii, jj = pair_indices(model.n_sources)
    rates = model.source_rates()
    rates_i = rates[:, ii[pair_ids]]
    rates_j = rates[:, jj[pair_ids]]
    joints = _pair_joints(model, pair_ids)
    independent, _, phis = _pair_effects(rates_i, rates_j, joints)
    keep = np.abs(phis) >= min_phi
    counts = _pair_counts(model, pair_ids)
    if counts is None:
        return keep  # parameter-only model: effect size alone
    keep &= (independent * counts) >= min_expected
    flat = keep.reshape(-1)
    candidates = np.flatnonzero(flat)
    if candidates.size:
        flat[candidates] = _significant_batch(
            joints.reshape(-1)[candidates],
            rates_i.reshape(-1)[candidates],
            rates_j.reshape(-1)[candidates],
            counts.reshape(-1)[candidates],
            alpha,
            memo,
        )
    return keep


def _per_pair_alpha(significance: float, n_sources: int) -> float:
    """Bonferroni level: ``significance`` spread over every source pair."""
    return significance / max(n_sources * (n_sources - 1) // 2, 1)


def detect_partition_state(
    model: JointQualityModel,
    min_phi: float = 0.15,
    min_expected: float = 2.0,
    significance: float = 0.05,
    memo: Optional[SignificanceMemo] = None,
) -> PartitionDetectionState:
    """Two-sided correlation detection: the one detector.

    A source pair becomes an edge on a side when (a) its phi coefficient
    has magnitude at least ``min_phi`` (effect size), (b) its expected
    co-occurrence count under independence, over the pair's joint
    coverage, is at least ``min_expected`` (enough support to judge), and
    (c) an independence test of its 2x2 contingency table (chi-square, or
    Fisher's exact test when any expected cell is small) beats
    ``significance / n_pairs`` (Bonferroni): ``significance`` bounds the
    expected number of spurious edges in the whole graph, and without the
    guard wide datasets chain everything into one component through noise
    pairs.  Parameter-only models have no counts and skip (b) and (c).
    Clusters are the connected components of each side's edges.

    ``memo``, when given, caches independence-test decisions by exact
    integer table (see :class:`SignificanceMemo`); decisions are
    identical with or without it.  The returned state feeds the fuser,
    the reporting helpers, and :func:`refresh_partition_state` on the
    next low-churn refit.
    """
    _check_thresholds(min_phi, min_expected, significance)
    n = model.n_sources
    ii, jj = pair_indices(n)
    keep = _decide_pairs(
        model, np.arange(ii.size), min_phi, min_expected,
        _per_pair_alpha(significance, n), memo,
    )
    true_edges, false_edges = (
        frozenset(zip(ii[side_keep].tolist(), jj[side_keep].tolist()))
        for side_keep in keep
    )
    return PartitionDetectionState.from_edges(
        n, true_edges, false_edges, min_phi, min_expected, significance
    )


def refresh_partition_state(
    previous: PartitionDetectionState,
    model: JointQualityModel,
    dirty_source_ids: Sequence[int],
    memo: Optional[SignificanceMemo] = None,
) -> PartitionDetectionState:
    """Re-derive the detection state after a delta refit, by churn.

    Only pairs touching a dirty source are re-decided (through the same
    core a full detection runs); every clean pair's edge is carried from
    ``previous``.  Callers must ensure clean sources' parameters are
    bit-identical across the two generations -- the condition the session
    checks before taking this path (delta-mode model refit, unchanged
    labels, same prior and smoothing).  Under it the result is exactly
    what :func:`detect_partition_state` would return.
    """
    n = model.n_sources
    if previous.n_sources != n:
        raise ValueError(
            f"previous state covers {previous.n_sources} sources, model {n}"
        )
    dirty = np.zeros(n, dtype=bool)
    dirty[np.asarray(list(dirty_source_ids), dtype=int)] = True
    ii, jj = pair_indices(n)
    pair_ids = np.flatnonzero(dirty[ii] | dirty[jj])
    keep = _decide_pairs(
        model, pair_ids, previous.min_phi, previous.min_expected,
        _per_pair_alpha(previous.significance, n), memo,
    )
    sides: list[frozenset[tuple[int, int]]] = []
    for previous_edges, side_keep in zip(
        (previous.true_edges, previous.false_edges), keep
    ):
        edges = {
            edge for edge in previous_edges
            if not (dirty[edge[0]] or dirty[edge[1]])
        }
        chosen = pair_ids[side_keep]
        edges.update(zip(ii[chosen].tolist(), jj[chosen].tolist()))
        sides.append(frozenset(edges))
    return PartitionDetectionState.from_edges(
        n, sides[0], sides[1], previous.min_phi, previous.min_expected,
        previous.significance,
    )


def correlation_edges(
    model: JointQualityModel,
    state: PartitionDetectionState,
    side: Side = "true",
) -> list[PairwiseCorrelation]:
    """One side's detected edges with their factor and phi, row-major."""
    edges = sorted(state.edges(side))
    if not edges:
        return []
    n = model.n_sources
    row = 0 if side == "true" else 1
    left = np.array([i for i, _ in edges])
    right = np.array([j for _, j in edges])
    # Row-major upper-triangle id of each (i, j), i < j.
    pair_ids = left * (2 * n - left - 1) // 2 + (right - left - 1)
    rates = model.source_rates()[row]
    _, factors, phis = _pair_effects(
        rates[left], rates[right], _pair_joints(model, pair_ids)[row]
    )
    return [
        PairwiseCorrelation(
            source_i=i, source_j=j, factor=float(factor), phi=float(phi)
        )
        for (i, j), factor, phi in zip(edges, factors, phis)
    ]


def pairwise_correlations(
    model: JointQualityModel,
    side: Side = "true",
    min_phi: float = 0.15,
    min_expected: float = 2.0,
    significance: float = 0.05,
    memo: Optional[SignificanceMemo] = None,
) -> list[PairwiseCorrelation]:
    """Significantly correlated source pairs on one side, row-major.

    A reader of :func:`detect_partition_state` (see there for the edge
    criteria), with each edge's correlation factor and phi attached.
    """
    state = detect_partition_state(
        model, min_phi=min_phi, min_expected=min_expected,
        significance=significance, memo=memo,
    )
    return correlation_edges(model, state, side)


def correlation_clusters(
    model: JointQualityModel,
    side: Side = "true",
    min_phi: float = 0.15,
    min_expected: float = 2.0,
    significance: float = 0.05,
    memo: Optional[SignificanceMemo] = None,
) -> SourcePartition:
    """Partition sources by pairwise correlation on one side.

    Clusters are the connected components (singletons included) of the
    side's correlation edges -- the construction the paper applies to the
    BOOK dataset ("we divide sources into clusters based on their pairwise
    correlations, and assume that sources across clusters are
    independent").  A reader of :func:`detect_partition_state`.
    """
    return detect_partition_state(
        model, min_phi=min_phi, min_expected=min_expected,
        significance=significance, memo=memo,
    ).partition(side)


def _significant_batch(
    joint_rates: np.ndarray,
    rates_i: np.ndarray,
    rates_j: np.ndarray,
    trials: np.ndarray,
    alpha: float,
    memo: Optional[SignificanceMemo] = None,
) -> np.ndarray:
    """Independence decisions for candidate pairs, from their rates.

    Reconstructs every pair's integer contingency table from its joint and
    marginal rates and its trial count, forces an edge where the margins
    overlap so much that dependence is certain (a negative fourth cell),
    resolves decisions from ``memo`` where the table was seen before, and
    decides the rest with :func:`repro.core.independence.decide_tables`.
    """
    joint_rates = np.asarray(joint_rates, dtype=float)
    trials = np.asarray(trials, dtype=np.int64)
    n11 = np.rint(joint_rates * trials).astype(np.int64)
    n1 = np.rint(np.asarray(rates_i, dtype=float) * trials).astype(np.int64)
    n2 = np.rint(np.asarray(rates_j, dtype=float) * trials).astype(np.int64)
    n11 = np.minimum(np.minimum(n11, n1), n2)
    n10 = n1 - n11
    n01 = n2 - n11
    n00 = trials - n1 - n2 + n11
    out = np.zeros(n11.size, dtype=bool)
    out[n00 < 0] = True  # margins overlap so much that dependence is forced
    todo = np.flatnonzero(n00 >= 0)
    if todo.size == 0:
        return out
    tables = None
    if memo is not None:
        tables = [
            (int(n11[k]), int(n10[k]), int(n01[k]), int(n00[k]))
            for k in todo
        ]
        cached = memo.lookup(tables, alpha)
        missing: list[int] = []
        for position, value in enumerate(cached):
            if value is None:
                missing.append(position)
            else:
                out[todo[position]] = value
        if not missing:
            return out
        todo = todo[np.asarray(missing)]
        tables = [tables[position] for position in missing]
    decisions = decide_tables(
        n11[todo], n10[todo], n01[todo], n00[todo], alpha
    )
    out[todo] = decisions
    if memo is not None:
        memo.store(tables, decisions.tolist(), alpha)
    return out


class ClusteredCorrelationFuser(ModelBasedFuser):
    """PrecRecCorr at scale: per-cluster correlation, cross-cluster independence.

    The numerator of ``mu`` is the product of per-cluster ``Pr(Ot|t)`` over
    the *true-side* partition; the denominator the product of per-cluster
    ``Pr(Ot|not t)`` over the *false-side* partition.  Inside a cluster the
    likelihood is computed exactly when the cluster is small enough and with
    the elastic approximation otherwise.

    Parameters
    ----------
    model:
        Joint quality model over all sources.
    true_partition, false_partition:
        Pre-computed partitions; computed from ``model`` when omitted.
    min_phi, min_expected, significance:
        Forwarded to :func:`detect_partition_state` when partitions are not
        supplied.
    exact_cluster_limit:
        Clusters with at most this many sources are evaluated exactly;
        larger ones use :class:`ElasticFuser` at ``elastic_level``.  The
        exact clusters of both sides are scored together from their
        integer restriction codes, so the limit must keep every such
        group's codes within ``int64`` (:func:`_check_exact_limit`); an
        exact cluster of ``k`` sources costs ``2^k`` terms per
        restriction anyway.
    elastic_level:
        Elastic ``lambda`` for oversized clusters (paper: level 3).
    max_plan_cache_entries:
        LRU cap for the compiled-plan caches: forwarded to every
        per-cluster elastic evaluator *and* used for this fuser's own cache
        of per-cluster decompositions and log-likelihood tables, keyed by the
        global pattern digest -- repeated ``score`` calls on a serving
        process skip restriction, collect, compile, model evaluation, and
        the log transform entirely.  ``0`` disables both layers.
    significance_memo:
        Optional :class:`SignificanceMemo` consulted (and extended) by the
        partition discovery when partitions are not supplied -- the
        delta-refit path carries one across generations so unchanged pair
        tables skip their independence test.  Decisions, and therefore
        partitions and scores, are identical with or without it.
    """

    name = "PrecRecCorr-Clustered"

    #: Per-pattern values are computed from each pattern's own terms in a
    #: fixed order -- sub-batches reproduce full batches bit-for-bit.
    pattern_batch_invariant = True

    def __init__(
        self,
        model: JointQualityModel,
        true_partition: Optional[SourcePartition] = None,
        false_partition: Optional[SourcePartition] = None,
        min_phi: float = 0.15,
        min_expected: float = 2.0,
        significance: float = 0.05,
        exact_cluster_limit: int = 12,
        elastic_level: int = 3,
        decision_prior: Optional[float] = None,
        max_plan_cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
        significance_memo: Optional[SignificanceMemo] = None,
        carried_elastic: Optional[
            Mapping[frozenset[int], ElasticFuser]
        ] = None,
    ) -> None:
        super().__init__(model, decision_prior=decision_prior)
        _check_exact_limit(exact_cluster_limit, model.n_sources)
        self._max_plan_cache = int(max_plan_cache_entries)
        self._plan_cache = CompiledPlanCache(max_plan_cache_entries)
        self._delta_serving = False
        self._partition_state: Optional[PartitionDetectionState] = None
        if true_partition is None or false_partition is None:
            state = detect_partition_state(
                model, min_phi=min_phi, min_expected=min_expected,
                significance=significance, memo=significance_memo,
            )
            if true_partition is None and false_partition is None:
                self._partition_state = state
            if true_partition is None:
                true_partition = state.true_partition
            if false_partition is None:
                false_partition = state.false_partition
        self._true_partition = true_partition
        self._false_partition = false_partition
        self._elastic_by_cluster: dict[frozenset[int], ElasticFuser] = {}
        if carried_elastic:
            # Delta-refit carry: an oversized cluster whose sources are all
            # clean has bit-identical parameters in the new generation, so
            # its (eagerly built, aggressive-factor-heavy) elastic
            # evaluator can be reused outright.  The caller vouches for
            # cleanliness; a carried evaluator still references the model
            # generation it was built against, whose parameters equal this
            # one's on the cluster universe.  Seeding the map makes
            # _make_evaluator a lookup hit for those clusters.
            self._elastic_by_cluster.update(carried_elastic)
        self._true_evaluators = [
            self._make_evaluator(cluster, exact_cluster_limit, elastic_level)
            for cluster in true_partition.clusters
        ]
        self._false_evaluators = [
            self._make_evaluator(cluster, exact_cluster_limit, elastic_level)
            for cluster in false_partition.clusters
        ]
        self._evaluator_groups = self._group_clusters(model.n_sources)
        # Delta serving's per-restriction log memo, one immutable table
        # per coded group (None: no table), each swapped by a single
        # assignment -- see enable_delta_memo.
        self._log_tables: list[Optional[_LogTable]] = [None] * len(
            self._evaluator_groups
        )
        self._max_log_entries = 0

    @property
    def true_partition(self) -> SourcePartition:
        return self._true_partition

    @property
    def false_partition(self) -> SourcePartition:
        return self._false_partition

    @property
    def partition_state(self) -> Optional[PartitionDetectionState]:
        """The detection state both partitions came from, if detected here.

        ``None`` when the caller supplied either partition.  A session
        keeps it from a cold fit, so its first delta refit refreshes the
        state instead of detecting again.
        """
        return self._partition_state

    def _make_evaluator(
        self, cluster: frozenset[int], exact_limit: int, level: int
    ) -> ClusterEvaluator:
        if len(cluster) <= exact_limit:
            # Every small cluster, on either side, joins the one exact
            # group, scored straight from its restriction codes
            # (_exact_logs).  Oversized clusters get their own elastic
            # evaluator (its aggressive factors depend on the universe).
            return None
        # An oversized cluster appearing in both partitions reuses one
        # elastic evaluator (its aggressive factors depend only on the
        # cluster universe), so _compile_side_terms scores the cluster once
        # for both sides.
        evaluator = self._elastic_by_cluster.get(cluster)
        if evaluator is None:
            evaluator = ElasticFuser(
                self.model,
                level=level,
                universe=sorted(cluster),
                max_plan_cache_entries=self._max_plan_cache,
            )
            self._elastic_by_cluster[cluster] = evaluator
        return evaluator

    def invalidate_caches(self) -> None:
        """Drop every compiled-plan layer.

        The serving-process refit hook: clears this fuser's decomposition
        cache and restriction log tables plus each distinct per-cluster
        evaluator's caches.
        """
        self._plan_cache.invalidate()
        for evaluator in self._distinct_evaluators():
            evaluator.invalidate_caches()
        for index, log_table in enumerate(self._log_tables):
            if log_table is not None:
                self._log_tables[index] = _EMPTY_LOG_TABLE

    @property
    def plan_cache(self) -> CompiledPlanCache:
        """This fuser's decomposition/log-table cache (diagnostics)."""
        return self._plan_cache

    def elastic_evaluators(self) -> dict[frozenset[int], ElasticFuser]:
        """This generation's per-cluster elastic evaluators, by cluster.

        The delta-refit carry source: the session passes the subset whose
        clusters stayed clean to the next generation's ``carried_elastic``.
        """
        return dict(self._elastic_by_cluster)

    def _distinct_evaluators(self) -> list[ElasticFuser]:
        """Each per-cluster elastic evaluator exactly once."""
        return [
            evaluator
            for evaluator, _, _ in self._evaluator_groups
            if evaluator is not None
        ]

    def enable_delta_memo(self, max_entries: int = 200_000) -> None:
        """Opt into per-restriction reuse across requests.

        A novel *global* pattern of a delta step usually restricts to
        cluster sub-patterns scored before, so only genuinely new
        restrictions should pay union-plan work.  Every evaluator group
        whose :class:`RestrictionTable` is ``coded`` gets a log table:
        its restriction keys (sorted ``int64``) with the true- and
        false-side log-likelihoods of each restriction, filled by every
        evaluation of the group (:meth:`_evaluate_clusters`) and read by
        key on later digest misses (:meth:`pattern_mu_batch`).  Each table
        holds at most ``max_entries`` restrictions; beyond that, values
        are computed but not stored.  The table replaces an elastic
        evaluator's own sub-pattern memo, so only the evaluators of
        uncoded groups (a cluster of more than
        :data:`~repro.core.patterns.CODE_MAX_MEMBERS` sources, or keys
        past ``int64``; never the exact group), which have no key, attach
        theirs.  Per-pattern reuse across requests is the score-level
        delta engine's job; this fuser's own digest-keyed decomposition
        cache switches to seed-only storage (see :meth:`pattern_mu_batch`)
        because delta sub-batches carry never-recurring digests that would
        only churn its LRU.
        """
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be non-negative, got {max_entries}"
            )
        self._delta_serving = True
        self._max_log_entries = int(max_entries)
        for index, (evaluator, _, table) in enumerate(self._evaluator_groups):
            if table.coded:
                if self._log_tables[index] is None:
                    self._log_tables[index] = _EMPTY_LOG_TABLE
            elif evaluator is not None:
                evaluator.enable_delta_memo(max_entries)

    @property
    def log_tables(self) -> list[Optional[_LogTable]]:
        """Each evaluator group's ``(keys, logs_true, logs_false)`` memo.

        ``None`` for a group without one (delta serving off, or an
        uncoded group).  Diagnostics: the tables are read-only.
        """
        return list(self._log_tables)

    def _group_clusters(self, n_sources: int) -> list[_EvaluatorGroup]:
        """Clusters grouped by evaluator, each with its restriction table.

        A cluster in both partitions is listed once (the batch entry points
        compute the true- and false-side arrays together), clusters keep
        first-seen order, and the :class:`RestrictionTable` is built here,
        once per fuser, so requests neither revalidate member ids nor
        rebuild masks.
        """
        groups: dict[
            int, tuple[ClusterEvaluator, dict[frozenset[int], None]]
        ] = {}
        for partition, evaluators in (
            (self._true_partition, self._true_evaluators),
            (self._false_partition, self._false_evaluators),
        ):
            for cluster, evaluator in zip(partition.clusters, evaluators):
                listed = groups.setdefault(id(evaluator), (evaluator, {}))[1]
                listed[cluster] = None
        return [
            (
                evaluator,
                list(clusters),
                RestrictionTable(list(clusters), n_sources),
            )
            for evaluator, clusters in groups.values()
        ]

    def _compile_side_terms(
        self, patterns: PatternSet
    ) -> tuple[
        list[tuple[np.ndarray, np.ndarray]],
        list[tuple[np.ndarray, np.ndarray]],
    ]:
        """Per-side ``(log-likelihood table, inverse index)`` term lists.

        Each distinct global pattern is decomposed into per-cluster
        sub-patterns (``providers & cluster``, ``silent & cluster``), and
        the work is grouped by evaluator (:meth:`_evaluate_clusters`).
        Every cluster of at most ``exact_cluster_limit`` sources, on
        either side, is in the one exact group: its distinct restriction
        keys are scored straight from their integer codes by one
        :meth:`CompiledExactPlan.from_codes` plan and one joint-model
        call (:meth:`_exact_logs`), with no sub-pattern table and no
        union plan.  Each oversized cluster's elastic evaluator serves
        its own cluster: one :func:`restricted_unique_patterns` pass over
        the group's prebuilt :class:`RestrictionTable` and one
        :meth:`pattern_likelihoods_batch` call.  One ``math.log`` walk
        per group turns both sides' likelihoods into log tables.  A group
        with a log table (delta serving, see :meth:`enable_delta_memo`)
        whose every restriction of ``patterns`` is already in the table
        skips all of that: its terms gather from the table by key
        (:meth:`_logged_clusters`).  Every cluster contributes one
        ``(logs, inverse)`` term -- its group's table for the side,
        gathered through the cluster's inverse -- in partition order, the
        true-side partition first.  Each restriction's value depends only
        on its own terms, taken in the paper's order, so how the work is
        grouped changes no value.
        """
        groups: dict[int, _GroupLogs] = {}
        for index, (evaluator, _, _) in enumerate(self._evaluator_groups):
            logged = self._logged_clusters(index, patterns)
            groups[id(evaluator)] = (
                logged if logged is not None
                else self._evaluate_clusters(index, patterns)
            )
        side_terms: tuple[
            list[tuple[np.ndarray, np.ndarray]],
            list[tuple[np.ndarray, np.ndarray]],
        ] = ([], [])
        sides = (
            (self._true_partition, self._true_evaluators),
            (self._false_partition, self._false_evaluators),
        )
        for side, (partition, evaluators) in enumerate(sides):
            for cluster, evaluator in zip(partition.clusters, evaluators):
                logs, inverse_of = groups[id(evaluator)]
                side_terms[side].append((logs[side], inverse_of[cluster]))
        return side_terms

    def _logged_clusters(
        self, index: int, patterns: PatternSet
    ) -> Optional[_GroupLogs]:
        """Group ``index``'s logs from its log table, or ``None``.

        One :meth:`RestrictionTable.keys` call and one ``searchsorted``
        over the table's keys; each cluster's inverse is its keys'
        positions in the table.  ``None`` when the group has no table or
        some restriction is not in it.
        """
        log_table = self._log_tables[index]
        if log_table is None or log_table[0].size == 0:
            return None  # the seeding batch finds nothing
        known, logs_true, logs_false = log_table
        _, clusters, table = self._evaluator_groups[index]
        keys = table.keys(patterns.provider_matrix, patterns.silent_matrix)
        positions, found = _find_keys(known, keys)
        if not found.all():
            return None
        return (logs_true, logs_false), dict(zip(clusters, positions))

    def _evaluate_clusters(
        self, index: int, patterns: PatternSet
    ) -> _GroupLogs:
        """Group ``index``'s ``((logs_true, logs_false), inverse by cluster)``.

        The exact group (no evaluator) deduplicates its restriction keys
        (:meth:`RestrictionTable.unique_keys`) and scores the distinct
        keys from their codes (:meth:`_exact_logs`); its terms and their
        order are the ones a union plan over the decoded sub-patterns
        would sum, so the logs are bit-identical to that route.  An
        elastic group runs one restriction pass and one evaluator call
        over the shared sub-pattern table.  Either way one ``math.log``
        walk covers both sides' values, and with a log table only the
        restrictions the table lacks are evaluated (:meth:`_table_logs`).
        """
        evaluator, clusters, table = self._evaluator_groups[index]
        provider_matrix = patterns.provider_matrix
        silent_matrix = patterns.silent_matrix
        if evaluator is None:
            keys, inverse = table.unique_keys(provider_matrix, silent_matrix)
            logs = self._table_logs(
                index, keys, np.arange(keys.size), keys.size,
                lambda rows: self._exact_logs(table, keys[rows]),
            )
            return logs, dict(zip(clusters, inverse))
        elastic: ElasticFuser = evaluator
        sub_providers, sub_silent, inverses, restriction_keys = (
            restricted_unique_patterns(
                provider_matrix, silent_matrix, table, return_keys=True
            )
        )

        def evaluate(rows: _RowSelection) -> tuple[np.ndarray, np.ndarray]:
            return _log_pair(
                elastic.pattern_likelihoods_batch(
                    sub_providers[rows], sub_silent[rows]
                )
            )

        if restriction_keys is None:
            logs = evaluate(slice(None))
        else:
            keys, rows = restriction_keys
            logs = self._table_logs(
                index, keys, rows, sub_providers.shape[0], evaluate
            )
        return logs, dict(zip(clusters, inverses))

    def _exact_logs(
        self, table: RestrictionTable, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(logs_true, logs_false)`` of coded restrictions, scored exactly.

        Theorem 4.2's inclusion-exclusion per restriction: one
        :meth:`CompiledExactPlan.from_codes` plan, one
        :meth:`~repro.core.joint.JointQualityModel.joint_params_batch`
        call over the unions it touches, and its step-major ``accumulate``.
        """
        compiled = CompiledExactPlan.from_codes(table, keys)
        recalls, fprs = self.model.joint_params_batch(compiled.rows)
        return _log_pair(compiled.accumulate(recalls, fprs))

    def _table_logs(
        self,
        index: int,
        keys: np.ndarray,
        rows: np.ndarray,
        n_rows: int,
        evaluate: Callable[[_RowSelection], tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Logs of ``n_rows`` rows, through group ``index``'s log table.

        ``keys`` are the group's distinct restriction keys, ascending, and
        ``rows`` each key's row; ``evaluate(rows)`` computes the logs of
        the selected rows.  Without a log table every row is evaluated.
        With one, the rows whose key the table holds take its logs, only
        the other rows are evaluated, and the new keys' logs extend the
        table (:meth:`_store_logs`).
        """
        log_table = self._log_tables[index]
        if log_table is None:
            return evaluate(slice(None))
        known, known_true, known_false = log_table
        positions, hit = _find_keys(known, keys)
        if not hit.any():  # the seeding batch: nothing to take
            logs_true, logs_false = evaluate(slice(None))
        else:
            logs_true = np.empty(n_rows, dtype=float)
            logs_false = np.empty(n_rows, dtype=float)
            logs_true[rows[hit]] = known_true[positions[hit]]
            logs_false[rows[hit]] = known_false[positions[hit]]
            todo = np.ones(n_rows, dtype=bool)
            todo[rows[hit]] = False
            todo = np.flatnonzero(todo)
            if todo.size:
                logs_true[todo], logs_false[todo] = evaluate(todo)
        novel = ~hit
        self._store_logs(
            index, log_table, positions[novel], keys[novel],
            logs_true[rows[novel]], logs_false[rows[novel]],
        )
        return logs_true, logs_false

    def _store_logs(
        self,
        index: int,
        log_table: _LogTable,
        positions: np.ndarray,
        keys: np.ndarray,
        logs_true: np.ndarray,
        logs_false: np.ndarray,
    ) -> None:
        """Insert ``keys``, absent from ``log_table``, at their ``positions``.

        At most ``max_entries`` (see :meth:`enable_delta_memo`) are kept.
        The merged table replaces group ``index``'s in a single
        assignment, so readers never see a partial table.  A writer racing
        another can only lose one insertion -- a benign recompute, since
        every value is a pure function of this fuser's fixed model.
        """
        known, known_true, known_false = log_table
        room = max(self._max_log_entries - known.size, 0)
        if keys.size == 0 or room == 0:
            return
        keys, logs_true, logs_false = (
            keys[:room], logs_true[:room], logs_false[:room]
        )
        if known.size:
            positions = positions[:room]
            keys = np.insert(known, positions, keys)
            logs_true = np.insert(known_true, positions, logs_true)
            logs_false = np.insert(known_false, positions, logs_false)
        self._log_tables[index] = _frozen_log_table(
            keys, logs_true, logs_false
        )

    def pattern_mu_batch(self, patterns: PatternSet) -> np.ndarray:
        """Every distinct pattern's ``mu`` from per-cluster log tables.

        The compile step (:meth:`_compile_side_terms`) decomposes the
        global patterns per cluster, scores the exact group's distinct
        restrictions from their codes and each elastic evaluator's
        clusters through its batched union plan, and freezes the results
        into per-group log-likelihood tables with per-cluster inverses; it
        is memoised in the digest-keyed plan cache, so repeated
        ``score`` calls over the same pattern set -- the serving case --
        skip restriction, compilation, model evaluation, and the log
        transform.  Under delta serving (see
        :meth:`enable_delta_memo`) a digest miss first looks each coded
        group's restrictions up in its log table by key: when every one
        is known, the group's terms are the table's logs gathered at the
        keys' positions, with no dedup and no evaluation; otherwise the
        group deduplicates its restrictions, evaluates only those the
        table lacks, and adds them to the table.  The
        execute step recombines per-pattern ``mu`` as a gather-sum of the
        tables: the true-side partition in the numerator, the false-side
        partition in the denominator.

        Logs and the final exponential are taken with ``math.log`` /
        ``math.exp`` on the deduplicated values and the per-cluster terms
        are added in partition order -- the operation sequence of the
        per-pattern walk in ``tests/reference.py``, so scores are
        bit-identical to it.
        """
        key = (
            "clustered",
            pattern_digest(patterns.provider_matrix, patterns.silent_matrix),
        )
        if not self._delta_serving:
            entry = self._plan_cache.get_or_compute(
                key, lambda: self._compile_side_terms(patterns)
            )
        else:
            # Delta serving (see enable_delta_memo): only the seeding
            # workload is stored.  Later misses are delta-step novel
            # sub-batches whose digests never recur -- caching them would
            # churn the LRU out from under the seeded entries (the same
            # rule as plans.likelihoods_with_memo), and the probe leaves
            # the miss counters to the seeding compute.
            entry = self._plan_cache.get(key, count_miss=False)
            if entry is None:
                if len(self._plan_cache) == 0:
                    entry = self._plan_cache.get_or_compute(
                        key, lambda: self._compile_side_terms(patterns)
                    )
                else:
                    entry = self._compile_side_terms(patterns)
        true_terms, false_terms = entry
        log_numerator = np.zeros(patterns.n_patterns, dtype=float)
        log_denominator = np.zeros(patterns.n_patterns, dtype=float)
        for logs, inverse in true_terms:
            log_numerator += logs[inverse]
        for logs, inverse in false_terms:
            log_denominator += logs[inverse]
        return np.array(
            [
                math.exp(value)
                for value in (log_numerator - log_denominator).tolist()
            ],
            dtype=float,
        )


def discovered_correlation_groups(
    model: JointQualityModel,
    min_phi: float = 0.15,
    min_expected: float = 2.0,
    significance: float = 0.05,
) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Report non-trivial correlation groups per side (paper Section 5.1).

    Returns a dict with keys ``"true"`` and ``"false"``; each value is a
    tuple of sorted source-id tuples, largest group first -- the same shape
    as the paper's "discovered correlations" discussion.
    """
    return detect_partition_state(
        model, min_phi=min_phi, min_expected=min_expected,
        significance=significance,
    ).groups()

"""Golden-score regression suite: engine rewrites diff against committed numbers.

Two frozen fixtures -- a small correlated synthetic grid and a BOOK-scale
slice (54 sources, wide enough to route ``precreccorr`` through the
clustered fuser) -- carry committed per-triple ``mu`` and score vectors for
every fuser family under ``tests/golden/*.json``.  Future engine rewrites
are compared against these numbers, not just against self-consistency, so a
rewrite that is internally consistent but numerically wrong cannot slip
through.

Two layers of strictness:

- **golden comparison** (``GOLDEN_ATOL``): scores and mus must match the
  committed vectors to 1e-9.  Everything on these paths is deterministic
  IEEE float64 arithmetic except ``math.log`` / ``math.exp``, whose last
  ulp may differ across libm builds -- the tolerance absorbs exactly that
  and nothing more;
- **bit-identity** (exact 0.0): within one process, the compiled numpy
  accumulate and the warm plan-cache path must equal the per-triple walk
  of the paper's definitions (``reference.triple_scores``), both over the
  fitted packed model and over boolean-mask statistics
  (``reference.MaskJointModel``), bit for bit.

Regenerate after an *intentional* numeric change with::

    PYTHONPATH=src python tests/test_golden_scores.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    AggressiveFuser,
    ClusteredCorrelationFuser,
    ElasticFuser,
    ExactCorrelationFuser,
    PrecRecFuser,
    fit_model,
    make_fuser,
)
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    book_dataset,
    generate,
    uniform_sources,
)

import reference

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Absolute tolerance for the committed-number comparison (see module doc).
GOLDEN_ATOL = 1e-9

#: Method recipes per fixture.  ``precreccorr`` exercises the exact route on
#: the 6-source synthetic grid and the clustered route on the 54-source
#: BOOK slice; ``em`` has no quality model and therefore no mu vector.
METHOD_SPECS: dict[str, dict] = {
    "precrec": {"method": "precrec"},
    "precreccorr": {"method": "precreccorr"},
    "aggressive": {"method": "aggressive"},
    "elastic-2": {"method": "elastic", "level": 2},
    "clustered": {"method": "clustered"},
    "em": {"method": "em"},
}

FIXTURES: dict[str, dict] = {
    "synthetic_small": {
        "methods": (
            "precrec", "precreccorr", "aggressive", "elastic-2",
            "clustered", "em",
        ),
    },
    "book_slice": {
        "methods": ("precrec", "precreccorr", "em"),
    },
}


def _dataset(kind: str):
    if kind == "synthetic_small":
        config = SyntheticConfig(
            sources=uniform_sources(6, precision=0.7, recall=0.45),
            n_triples=80,
            true_fraction=0.5,
            groups=(
                CorrelationGroup(
                    members=(0, 1, 2), mode="overlap_true", strength=0.9
                ),
                CorrelationGroup(
                    members=(3, 4), mode="overlap_false", strength=0.9
                ),
            ),
        )
        return generate(config, seed=77)
    if kind == "book_slice":
        return book_dataset(
            seed=5, n_sources=54, n_books=30, gold_true=100, gold_false=80
        )
    raise ValueError(f"unknown fixture kind {kind!r}")


def _build(kind: str, name: str, **extra):
    """The fixture's fuser for one method recipe (plus option overrides)."""
    spec = dict(METHOD_SPECS[name])
    spec.update(extra)
    method = spec.pop("method")
    dataset = _dataset(kind)
    if method == "em":
        return dataset, make_fuser("em", **spec)
    model = fit_model(dataset.observations, dataset.labels)
    return dataset, make_fuser(method, model, **spec)


def _method_vectors(kind: str, name: str):
    """``(scores, per-triple mu or None)`` for one fixture method."""
    dataset, fuser = _build(kind, name)
    scores = np.asarray(fuser.score(dataset.observations), dtype=float)
    if METHOD_SPECS[name]["method"] == "em":
        return scores, None
    patterns = dataset.observations.patterns()
    mus = fuser.pattern_mu_batch(patterns)
    return scores, np.asarray(mus, dtype=float)[patterns.inverse]


def _golden_payload(kind: str) -> dict:
    methods = {}
    for name in FIXTURES[kind]["methods"]:
        scores, mus = _method_vectors(kind, name)
        entry = {"scores": scores.tolist()}
        if mus is not None:
            entry["mu"] = mus.tolist()
        methods[name] = entry
    dataset = _dataset(kind)
    return {
        "fixture": kind,
        "n_sources": dataset.observations.n_sources,
        "n_triples": dataset.observations.n_triples,
        "methods": methods,
    }


def _golden_path(kind: str) -> Path:
    return GOLDEN_DIR / f"{kind}.json"


def _load_golden(kind: str) -> dict:
    path = _golden_path(kind)
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_scores.py --regen`"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("kind", sorted(FIXTURES))
class TestGoldenScores:
    def test_fixture_shape_is_frozen(self, kind):
        golden = _load_golden(kind)
        dataset = _dataset(kind)
        assert golden["n_sources"] == dataset.observations.n_sources
        assert golden["n_triples"] == dataset.observations.n_triples
        assert set(golden["methods"]) == set(FIXTURES[kind]["methods"])

    def test_scores_and_mus_match_committed_numbers(self, kind):
        golden = _load_golden(kind)
        for name in FIXTURES[kind]["methods"]:
            expected = golden["methods"][name]
            scores, mus = _method_vectors(kind, name)
            want = np.array(expected["scores"], dtype=float)
            assert scores.shape == want.shape, name
            np.testing.assert_allclose(
                scores, want, rtol=0.0, atol=GOLDEN_ATOL,
                err_msg=f"{kind}/{name} scores drifted from golden fixture",
            )
            assert ("mu" in expected) == (mus is not None), name
            if mus is not None:
                np.testing.assert_allclose(
                    mus,
                    np.array(expected["mu"], dtype=float),
                    rtol=0.0,
                    atol=GOLDEN_ATOL,
                    err_msg=f"{kind}/{name} mus drifted from golden fixture",
                )

    def test_scores_are_valid_probabilities(self, kind):
        golden = _load_golden(kind)
        for name, entry in golden["methods"].items():
            scores = np.array(entry["scores"], dtype=float)
            assert np.isfinite(scores).all(), name
            assert (scores >= 0.0).all() and (scores <= 1.0).all(), name


#: The fuser families whose batch path runs through the union plans -- the
#: families the compiled accumulate and the plan cache must reproduce
#: bit-for-bit (the other families have no plan layer to diverge).
_PLAN_FAMILIES = ("precreccorr", "elastic-2", "clustered")


def _reference_scores(fuser, observations, model):
    """``reference.triple_scores`` configured like ``fuser``, over ``model``."""
    options: dict = {}
    if isinstance(fuser, ClusteredCorrelationFuser):
        method = "clustered"
        options = {
            "true_partition": fuser.true_partition,
            "false_partition": fuser.false_partition,
        }
    elif isinstance(fuser, ElasticFuser):
        method = "elastic"
        options = {"level": fuser.level}
    elif isinstance(fuser, ExactCorrelationFuser):
        method = "exact"
    elif isinstance(fuser, AggressiveFuser):
        method = "aggressive"
    else:
        assert isinstance(fuser, PrecRecFuser), type(fuser)
        method = "precrec"
    return reference.triple_scores(
        observations, model, method, prior=fuser.prior, **options
    )


@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_compiled_and_warm_paths_bit_identical_to_python_walk(kind):
    """The acceptance bar: max |score diff| exactly 0.0 against the walk."""
    for name in FIXTURES[kind]["methods"]:
        if name not in _PLAN_FAMILIES:
            continue
        dataset, compiled = _build(kind, name)
        expected = _reference_scores(
            compiled, dataset.observations, compiled.model
        )
        cold = compiled.score(dataset.observations)
        warm = compiled.score(dataset.observations)
        assert np.abs(cold - expected).max() == 0.0, name
        assert np.abs(warm - expected).max() == 0.0, name
        assert compiled.plan_cache.hits >= 1, name


@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_vectorized_engine_matches_legacy_engine(kind):
    """Packed scoring vs the per-triple walk over boolean-mask statistics.

    The walk over :class:`reference.MaskJointModel` is the seed's
    per-triple, boolean-mask scoring path, kept as the oracle.  Plan
    families match bitwise; the matmul families to the 1e-9 contract.
    """
    for name in FIXTURES[kind]["methods"]:
        if METHOD_SPECS[name]["method"] == "em":
            continue  # EM manages its own loop; there is no quality model
        dataset, fuser = _build(kind, name)
        mask = reference.MaskJointModel(
            dataset.observations, dataset.labels, prior=fuser.model.prior
        )
        diff = np.abs(
            fuser.score(dataset.observations)
            - _reference_scores(fuser, dataset.observations, mask)
        ).max()
        if name in _PLAN_FAMILIES:
            assert diff == 0.0, name
        else:
            # PrecRec / aggressive vectorize through matmuls, whose
            # reduction order legitimately differs from the scalar walk.
            assert diff <= 1e-9, name


def _regen() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for kind in sorted(FIXTURES):
        path = _golden_path(kind)
        path.write_text(json.dumps(_golden_payload(kind), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)

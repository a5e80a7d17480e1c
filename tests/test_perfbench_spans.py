"""The benchmark's layer map names entry points that exist.

``perfbench/spans.py`` times each layer by wrapping the ``module:qualname``
entry points named in its ``LAYERS`` and ``PROBES`` tables.  An entry point
that was renamed or deleted is only reported on stderr, and its layer then
reads 0 in every traced run; this test fails on it instead.
"""

from __future__ import annotations

import os

from perfbench.spans import Tracer
from repro.core.fusion import ModelBasedFuser


def test_every_layer_entry_point_resolves():
    score, fsync = ModelBasedFuser.score, os.fsync
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert ModelBasedFuser.score is not score
    finally:
        tracer.uninstall()
    assert ModelBasedFuser.score is score
    assert os.fsync is fsync

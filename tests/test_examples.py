"""Smoke test: every script under ``examples/`` runs to completion.

The examples are the only callers of a few public helpers
(``fuse_per_domain``, ``run_extractors``, ``build_corpus``,
``crowd_labels``), so running them keeps those paths exercised.  Each
script runs in-process as ``__main__`` from an empty working directory,
and must print something and leave no file behind.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        assert stop.code in (0, None)
    assert capsys.readouterr().out.strip()
    assert list(tmp_path.iterdir()) == []

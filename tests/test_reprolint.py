"""The reprolint rule engine: each rule catches its target and stays
quiet on the blessed pattern, the allow escape hatch works, and the
pickle contracts the REP002 sweep forced into the codebase hold.

Fixtures are linted via ``check_source`` with synthetic repo-relative
paths so path-scoped rule selection (``applicable_rules``) is exercised
exactly as the CLI would.
"""

from __future__ import annotations

import pickle
import textwrap

import pytest

from tools.reprolint import (
    ALL_RULES,
    BIT_IDENTITY_MODULES,
    applicable_rules,
    check_source,
    lint_paths,
)
from tools.reprolint.cli import main as reprolint_main

CORE = "src/repro/core/plans.py"  # bit-identity module: REP001 applies
BENCH = "benchmarks/bench_example.py"


def _codes(source, path, rules=None):
    return [
        finding.code
        for finding in check_source(textwrap.dedent(source), path, rules=rules)
    ]


# ----------------------------------------------------------------------
# rule selection by path
# ----------------------------------------------------------------------


def test_applicable_rules_by_location():
    assert "REP001" in applicable_rules("src/repro/core/plans.py")
    assert "REP001" not in applicable_rules("src/repro/core/api.py")
    assert "REP004" in applicable_rules("src/repro/core/api.py")
    assert "REP004" not in applicable_rules("src/repro/eval/harness.py")
    assert "REP005" in applicable_rules("benchmarks/bench_serving.py")
    assert "REP005" not in applicable_rules("src/repro/core/plans.py")
    assert "REP008" in applicable_rules("src/repro/core/plans.py")
    # Lock discipline is repo-wide.
    for path in ("src/repro/core/api.py", "tests/test_api.py", "x.py"):
        assert {"REP002", "REP003"} <= applicable_rules(path)


def test_every_bit_identity_module_exists():
    import pathlib

    for name in BIT_IDENTITY_MODULES:
        assert (pathlib.Path("src/repro/core") / name).is_file()


# ----------------------------------------------------------------------
# REP001 -- deterministic accumulation
# ----------------------------------------------------------------------


def test_rep001_flags_reduceat():
    src = """
    import numpy as np

    def f(values, offsets):
        return np.add.reduceat(values, offsets)
    """
    assert _codes(src, CORE) == ["REP001"]


def test_rep001_flags_fsum_and_builtin_sum():
    src = """
    import math

    def f(values):
        return math.fsum(values) + sum(values)
    """
    assert _codes(src, CORE) == ["REP001", "REP001"]


def test_rep001_flags_accumulation_over_set_iteration():
    src = """
    def f(ids):
        total = 0.0
        for i in {3, 1, 2}:
            total += float(i)
        return total
    """
    assert _codes(src, CORE) == ["REP001"]


def test_rep001_quiet_on_ordered_sweep():
    src = """
    import numpy as np

    def f(values, members):
        total = 0.0
        for i in sorted(members):
            total += values[i]
        return total + float(np.sum(values))
    """
    assert _codes(src, CORE) == []


def test_rep001_not_applied_outside_bit_identity_modules():
    src = """
    import math

    def f(values):
        return math.fsum(values)
    """
    assert _codes(src, "src/repro/core/api.py") == []


# ----------------------------------------------------------------------
# REP002 -- lock owners must be pickle-deliberate
# ----------------------------------------------------------------------

_REP002_BAD = """
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}
"""

_REP002_GOOD = """
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}

    def __getstate__(self):
        return {"entries": dict(self._entries)}
"""


def test_rep002_flags_lock_owner_without_getstate():
    assert _codes(_REP002_BAD, "src/repro/core/x.py", rules=["REP002"]) == [
        "REP002"
    ]


def test_rep002_quiet_with_getstate():
    assert (
        _codes(_REP002_GOOD, "src/repro/core/x.py", rules=["REP002"]) == []
    )


def test_rep002_covers_executors_and_make_lock():
    src = """
    from concurrent.futures import ThreadPoolExecutor
    from repro.core.locktrace import make_lock

    class Pool:
        def __init__(self):
            self._executor = ThreadPoolExecutor(2)

    class Guarded:
        def __init__(self):
            self._lock = make_lock("Guarded._lock")
    """
    assert _codes(src, "x.py", rules=["REP002"]) == ["REP002", "REP002"]


# ----------------------------------------------------------------------
# REP003 -- guarded-by discipline
# ----------------------------------------------------------------------

_REP003_BAD = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._count = 0

    def bump(self):
        self._count += 1
"""

_REP003_GOOD = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def __getstate__(self):
        return {}
"""

_REP003_CALLER_HOLDS = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._count = 0

    def bump(self):
        with self._lock:
            self._bump_locked()

    # guarded-by: _lock
    def _bump_locked(self):
        self._count += 1
"""


def test_rep003_flags_unguarded_write():
    assert _codes(_REP003_BAD, "x.py", rules=["REP003"]) == ["REP003"]


def test_rep003_quiet_under_with_lock():
    assert _codes(_REP003_GOOD, "x.py", rules=["REP003"]) == []


def test_rep003_caller_holds_marker_on_def():
    assert _codes(_REP003_CALLER_HOLDS, "x.py", rules=["REP003"]) == []


def test_rep003_init_and_setstate_exempt():
    src = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            # guarded-by: _lock
            self._count = 0

        def __setstate__(self, state):
            self._lock = threading.Lock()
            self._count = 0
    """
    assert _codes(src, "x.py", rules=["REP003"]) == []


# ----------------------------------------------------------------------
# REP004 -- module-level mutable state
# ----------------------------------------------------------------------


def test_rep004_flags_module_level_dict():
    src = """
    _CACHE = {}
    """
    assert _codes(src, "src/repro/core/x.py", rules=["REP004"]) == ["REP004"]


def test_rep004_quiet_on_frozen_constants_and_all():
    src = """
    LIMIT = 16
    NAMES = ("a", "b")
    FROZEN = frozenset({"a"})
    __all__ = ["LIMIT"]
    """
    assert _codes(src, "src/repro/core/x.py", rules=["REP004"]) == []


def test_rep004_flags_lru_cache_on_closure():
    src = """
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def module_level(n):
        return n  # fine: module level

    def outer(k):
        @lru_cache(maxsize=None)
        def inner(n):
            return n + k
        return inner
    """
    assert _codes(src, "src/repro/core/x.py", rules=["REP004"]) == ["REP004"]


# ----------------------------------------------------------------------
# REP005 -- seeded benchmarks
# ----------------------------------------------------------------------


def test_rep005_flags_unseeded_rngs():
    src = """
    import random
    import numpy as np

    rng = np.random.default_rng()
    r = random.Random()
    x = np.random.rand(5)
    y = random.random()
    """
    assert _codes(src, BENCH) == ["REP005"] * 4


def test_rep005_quiet_when_seeded():
    src = """
    import random
    import numpy as np

    rng = np.random.default_rng(17)
    r = random.Random(17)
    np.random.seed(17)
    random.seed(17)
    x = np.random.rand(5)
    y = random.random()
    """
    assert _codes(src, BENCH) == []


# ----------------------------------------------------------------------
# REP006 -- broad except handlers must re-raise or justify the barrier
# ----------------------------------------------------------------------

SERVE = "src/repro/serve/frontend.py"


def test_rep006_scoped_to_core_and_serve():
    assert "REP006" in applicable_rules("src/repro/core/api.py")
    assert "REP006" in applicable_rules("src/repro/serve/frontend.py")
    assert "REP006" not in applicable_rules("src/repro/eval/harness.py")
    assert "REP006" not in applicable_rules("benchmarks/bench_x.py")
    assert "REP006" not in applicable_rules("tests/test_faults.py")


def test_rep006_flags_swallowing_handlers():
    src = """
    def f():
        try:
            g()
        except Exception:
            pass
        try:
            g()
        except:
            return None
        try:
            g()
        except (ValueError, Exception) as error:
            log(error)
    """
    findings = check_source(
        textwrap.dedent(src), SERVE, rules=["REP006"]
    )
    assert [f.code for f in findings] == ["REP006"] * 3
    # A bare ``except:`` catches BaseException and is reported as such.
    assert "BaseException" in findings[1].message


def test_rep006_quiet_on_reraise_and_narrow_handlers():
    src = """
    def f():
        try:
            g()
        except Exception:
            raise
        try:
            g()
        except BaseException as error:
            raise RuntimeError("wrapped") from error
        try:
            g()
        except Exception as error:
            if recoverable(error):
                log(error)
            else:
                raise
        try:
            g()
        except (ValueError, KeyError):
            pass
    """
    assert _codes(src, SERVE, rules=["REP006"]) == []


def test_rep006_fault_barrier_marker_same_line_and_line_above():
    src = """
    def f():
        try:
            g()
        except Exception:  # fault-barrier: error is settled into the request future
            record()
        try:
            g()
        # fault-barrier: last degradation rung; per-request capture
        except Exception as error:
            record(error)
    """
    assert _codes(src, SERVE, rules=["REP006"]) == []


def test_rep006_marker_needs_a_justification():
    src = """
    def f():
        try:
            g()
        except Exception:  # fault-barrier:
            pass
    """
    assert _codes(src, SERVE, rules=["REP006"]) == ["REP006"]


# ----------------------------------------------------------------------
# REP007 -- durable writes go through the atomic module
# ----------------------------------------------------------------------

PERSIST = "src/repro/persist/wal.py"


def test_rep007_scoped_to_persist_outside_atomic():
    assert "REP007" in applicable_rules("src/repro/persist/wal.py")
    assert "REP007" in applicable_rules("src/repro/persist/snapshot.py")
    # The atomic module is the one place allowed to open files for
    # writing -- but the rest of the lint battery still applies there.
    assert "REP007" not in applicable_rules("src/repro/persist/atomic.py")
    assert "REP006" in applicable_rules("src/repro/persist/atomic.py")
    assert "REP007" not in applicable_rules("src/repro/core/api.py")
    assert "REP007" not in applicable_rules("tests/test_persist.py")


def test_rep007_flags_write_mode_opens():
    src = """
    def f(path):
        with open(path, "wb") as handle:
            handle.write(b"x")
        open(path, mode="a")
        io.open(path, "r+b")
        path.open("w")
    """
    assert _codes(src, PERSIST, rules=["REP007"]) == ["REP007"] * 4


def test_rep007_flags_path_write_helpers():
    src = """
    def f(path):
        path.write_text("data")
        path.write_bytes(b"data")
    """
    assert _codes(src, PERSIST, rules=["REP007"]) == ["REP007"] * 2


def test_rep007_quiet_on_reads_and_non_files():
    src = """
    def f(path):
        with open(path, "rb") as handle:
            handle.read()
        open(path)
        path.open("r")
        data = path.read_bytes()
        handle.write(b"already-open handles are fine")
    """
    assert _codes(src, PERSIST, rules=["REP007"]) == []


def test_rep007_allow_comment_suppresses():
    src = """
    def f(path):
        open(path, "wb")  # reprolint: allow[REP007]
    """
    assert _codes(src, PERSIST, rules=["REP007"]) == []


# ----------------------------------------------------------------------
# REP008 -- row dedup has one path
# ----------------------------------------------------------------------

PATTERNS = "src/repro/core/patterns.py"


def test_rep008_scoped_to_core():
    assert "REP008" in applicable_rules(PATTERNS)
    assert "REP008" in applicable_rules("src/repro/core/api.py")
    assert "REP008" not in applicable_rules("src/repro/eval/harness.py")
    assert "REP008" not in applicable_rules("tests/test_pattern_engine.py")


def test_rep008_flags_row_unique():
    src = """
    import numpy
    import numpy as np

    def f(words):
        np.unique(words, axis=0)
        np.unique(words, axis=0, return_index=True, return_inverse=True)
        numpy.unique(words, return_inverse=True, axis=-1)
        np.unique(words, True, True, False, 0)
    """
    assert _codes(src, PATTERNS, rules=["REP008"]) == ["REP008"] * 4


def test_rep008_quiet_on_flat_unique_and_unique_rows():
    src = """
    import numpy as np
    from repro.core.patterns import unique_rows

    def f(words, columns):
        np.unique(columns)
        np.unique(columns, return_index=True, return_inverse=True)
        np.unique(columns, axis=None)
        first_index, inverse = unique_rows(words)
    """
    assert _codes(src, PATTERNS, rules=["REP008"]) == []


def test_rep008_allow_comment_suppresses():
    src = """
    def f(words):
        np.unique(words, axis=0)  # reprolint: allow[REP008]
    """
    assert _codes(src, PATTERNS, rules=["REP008"]) == []


# ----------------------------------------------------------------------
# suppression
# ----------------------------------------------------------------------


def test_allow_escape_hatch_same_line_and_line_above():
    src = """
    _CACHE = {}  # reprolint: allow[REP004]

    # reprolint: allow[REP004]
    _OTHER = {}
    """
    assert _codes(src, "src/repro/core/x.py", rules=["REP004"]) == []


def test_allow_without_codes_suppresses_everything():
    src = """
    _CACHE = {}  # reprolint: allow
    """
    assert _codes(src, "src/repro/core/x.py", rules=["REP004"]) == []


def test_allow_for_other_rule_does_not_suppress():
    src = """
    _CACHE = {}  # reprolint: allow[REP001]
    """
    assert _codes(src, "src/repro/core/x.py", rules=["REP004"]) == [
        "REP004"
    ]


def test_unknown_rule_selection_raises():
    with pytest.raises(ValueError, match="REP999"):
        check_source("x = 1\n", "x.py", rules=["REP999"])


# ----------------------------------------------------------------------
# CLI + repo gate
# ----------------------------------------------------------------------


def test_repo_is_lint_clean():
    """The enforced CI gate: the shipped tree has zero findings."""
    findings = lint_paths(["src", "benchmarks", "tools"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    assert reprolint_main([str(clean)]) == 0
    dirty = tmp_path / "src" / "repro" / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("_CACHE = {}\n")
    assert reprolint_main([str(dirty)]) == 1
    out = capsys.readouterr()
    assert "REP004" in out.out
    assert reprolint_main(["--select", "REP999", str(clean)]) == 2
    assert reprolint_main([str(tmp_path / "missing")]) == 2


def test_cli_list_rules(capsys):
    assert reprolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_RULES:
        assert code in out


def test_cli_syntax_error_is_rep000(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n")
    assert reprolint_main([str(bad)]) == 1
    assert "REP000" in capsys.readouterr().out


# ----------------------------------------------------------------------
# pickle contracts forced by the REP002 sweep
# ----------------------------------------------------------------------


def test_significance_memo_pickles_empty():
    """Process-backend jobs may carry memos; they re-arm empty (the
    decisions are pure functions of the tables, so nothing is lost)."""
    from repro.core.clustering import SignificanceMemo

    memo = SignificanceMemo(max_entries=123)
    memo.store([(1, 2, 3, 4)], [True], alpha=0.05)
    clone = pickle.loads(pickle.dumps(memo))
    assert isinstance(clone, SignificanceMemo)
    assert clone._max_entries == 123
    assert clone.stats["entries"] == 0


def test_scoring_session_refuses_to_pickle():
    from repro.core.api import ScoringSession

    session = ScoringSession.__new__(ScoringSession)
    with pytest.raises(TypeError, match="process-local"):
        pickle.dumps(session)


def test_micro_batcher_refuses_to_pickle():
    from repro.core.api import MicroBatcher

    batcher = MicroBatcher.__new__(MicroBatcher)
    with pytest.raises(TypeError, match="process-local"):
        pickle.dumps(batcher)

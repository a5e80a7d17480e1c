"""The reprolint rule engine: each rule catches its target and stays
quiet on the blessed pattern, the allow escape hatch works, and the
process-local components refuse to pickle.

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
    assert "REP009" in applicable_rules("src/repro/core/plans.py")
    # Lock discipline is repo-wide.
    for path in ("src/repro/core/api.py", "tests/test_api.py", "x.py"):
        assert "REP003" in applicable_rules(path)
    assert "REP002" not in ALL_RULES


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
# REP009 -- correlation detection has one path
# ----------------------------------------------------------------------

CLUSTERING = "src/repro/core/clustering.py"


def test_rep009_scoped_to_repro():
    for path in (CLUSTERING, "src/repro/cli.py", "src/repro/eval/harness.py"):
        assert "REP009" in applicable_rules(path)
    for path in ("tests/reference.py", "tests/test_refit_delta.py",
                 "benchmarks/bench_figure1.py", "tools/reprolint/rules.py"):
        assert "REP009" not in applicable_rules(path)


def test_rep009_flags_networkx_and_scipy_table_tests():
    src = """
    import networkx as nx
    import networkx.algorithms
    from networkx import connected_components
    from scipy.stats import fisher_exact
    from scipy import stats

    def f(table):
        stats.fisher_exact(table)
        stats.chi2_contingency(table, correction=True)
        scipy.stats.contingency.chi2_contingency(table)
    """
    assert _codes(src, CLUSTERING, rules=["REP009"]) == ["REP009"] * 7


def test_rep009_quiet_on_the_kernel_replays():
    src = """
    from scipy import special
    from scipy.special import _ufuncs
    from repro.core.independence import decide_tables, fisher_pvalue

    def f(n11, n10, n01, n00):
        special.chdtrc(1.0, 2.0)
        _ufuncs._hypergeom_pmf(1.0, 2.0, 3.0, 4.0)
        fisher_pvalue(1, 2, 3, 4)
        return decide_tables(n11, n10, n01, n00, 0.05)
    """
    assert _codes(src, CLUSTERING) == []


def test_rep009_allow_comment_suppresses():
    src = """
    import networkx  # reprolint: allow[REP009]
    """
    assert _codes(src, CLUSTERING, rules=["REP009"]) == []


# ----------------------------------------------------------------------
# REP010 -- every public name has a production caller
# ----------------------------------------------------------------------


def _write_tree(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


@pytest.fixture
def census_tree(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": """
                from repro.lib import exported

                __all__ = ["exported"]
            """,
            "src/repro/lib.py": """
                def exported():
                    return _private()


                def _private():
                    return 1


                def used_in_src():
                    return 2


                def test_only():
                    return 3


                def doc_only():
                    return 4


                def example_only():
                    return 5


                def helper_of_dead_code():
                    return 6


                def dead_caller():
                    return helper_of_dead_code()


                def recursive(n):
                    return recursive(n - 1) if n else 0


                def chain_a():
                    return chain_b()


                def chain_b():
                    return chain_c()


                def chain_c():
                    return 9
            """,
            "src/repro/app.py": """
                '''Mentions doc_only and test_only in prose only.'''

                from repro.lib import chain_a, doc_only, used_in_src

                _SIZE = used_in_src() + chain_a()
                VALUE = 8
            """,
            "src/repro/eval/crash.py": """
                def run_serving_crash():
                    return 7
            """,
            "examples/demo.py": """
                from repro import lib

                lib.example_only()
            """,
            "tests/test_lib.py": """
                from repro.lib import test_only

                def test_it():
                    assert test_only() == 3
            """,
        },
    )
    return tmp_path


def _rep010_names(findings):
    assert {finding.code for finding in findings} <= {"REP010"}
    return sorted(
        finding.message.split("`")[1] for finding in findings
    )


def test_rep010_census_on_a_fixture_tree(census_tree):
    findings = lint_paths([census_tree / "src"], rules=["REP010"])
    # A test caller and a docstring mention do not count; a helper whose
    # only caller is itself unused, and a self-recursive function, are
    # flagged too, and so is VALUE, a public assignment nothing reads.
    assert _rep010_names(findings) == [
        "VALUE",
        "dead_caller",
        "doc_only",
        "helper_of_dead_code",
        "recursive",
        "test_only",
    ]
    # Not flagged: exported is in repro.__all__, run_serving_crash is on
    # the allow-list, example_only has an examples/ caller, used_in_src a
    # src/ caller, chain_c is reached through chain_a and chain_b, and
    # _private is private.
    assert {finding.path for finding in findings} == {
        str(census_tree / "src" / "repro" / "app.py"),
        str(census_tree / "src" / "repro" / "lib.py"),
    }


def test_rep010_runs_only_when_src_repro_is_linted(census_tree):
    for covering in (census_tree, census_tree / "src",
                     census_tree / "src" / "repro"):
        assert lint_paths([covering], rules=["REP010"])
    assert lint_paths([census_tree / "examples"], rules=["REP010"]) == []
    assert lint_paths(
        [census_tree / "src" / "repro" / "lib.py"], rules=["REP010"]
    ) == []
    # Other rules selected: the census does not run.
    assert lint_paths([census_tree / "src"], rules=["REP003"]) == []


def test_rep010_cli_exit_code(census_tree, capsys):
    assert reprolint_main(["--select", "REP010", str(census_tree / "src")]) == 1
    assert "REP010" in capsys.readouterr().out


def test_rep010_allow_list_names_exist():
    """Every allow-list entry names a live definition, with a reason."""
    import importlib

    from tools.reprolint.rules import REP010_ALLOWED

    for dotted, reason in REP010_ALLOWED.items():
        module_name, _, name = dotted.rpartition(".")
        assert hasattr(importlib.import_module(module_name), name), dotted
        assert reason.strip(), dotted


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
# process-local components refuse to pickle
# ----------------------------------------------------------------------


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

"""The reprolint rule engine: AST checks for repo-specific invariants.

Each rule encodes one invariant the engine's correctness depends on and
which ordinary linters cannot know about.  The catalogue (rationale,
motivating PR, escape-hatch policy) lives in ``docs/static-analysis.md``;
in short:

REP001  no non-deterministic float accumulation in bit-identity modules
REP002  lock/executor owners must define ``__getstate__`` (pickle safety)
REP003  writes to ``# guarded-by: <lock>`` attributes must hold the lock
REP004  no module-level mutable state in ``repro.core`` (and no
        ``lru_cache`` on closures)
REP005  benchmark scripts must seed their RNGs explicitly
REP006  broad ``except`` handlers in ``repro.core``/``repro.serve`` must
        re-raise, or carry a justified ``# fault-barrier:`` marker
REP007  no ad-hoc file writes in ``repro.persist`` outside the atomic
        module -- every durable byte goes through ``atomic_write`` /
        ``durable_write`` (fsync + temp-file + rename discipline)
REP008  no ``np.unique(..., axis=...)`` in ``repro.core`` -- row dedup has
        one path, :func:`repro.core.patterns.unique_rows`

Suppression: a finding is silenced by ``# reprolint: allow`` (all rules)
or ``# reprolint: allow[REP004]`` (listed rules) on the finding's line or
the line directly above it.  Every allow is expected to carry a
justification in the surrounding comment.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Union

#: Modules whose float accumulation order is part of their contract:
#: the compiled-plan sweep replays the legacy left-to-right accumulation
#: bit-for-bit (PR 3 rejected ``np.add.reduceat`` for pairwise segment
#: summation), and the joint/cluster decompositions feed it.
BIT_IDENTITY_MODULES = frozenset(
    {
        "plans.py",
        "joint.py",
        "exact.py",
        "elastic.py",
        "clustering.py",
        "deltas.py",
    }
)

#: Constructors whose product must not travel across process boundaries
#: implicitly: a class assigning one of these to ``self`` must define
#: ``__getstate__`` so process-backend pickling is deliberate, not luck.
_LOCK_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "TrackedLock",
        "make_lock",
    }
)

#: Module-level assignments of these call results are mutable state.
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)

#: ``np.random`` attributes that are not global-state draws.
_NP_RANDOM_SAFE = frozenset(
    {"default_rng", "seed", "Generator", "SeedSequence", "BitGenerator",
     "PCG64", "Philox", "RandomState"}
)

#: Stdlib ``random`` module functions that draw from the global stream.
_RANDOM_GLOBAL_DRAWS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "getrandbits", "randbytes",
    }
)

_ALLOW_RE = re.compile(
    r"#\s*reprolint:\s*allow(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)
_FAULT_BARRIER_RE = re.compile(r"#\s*fault-barrier:\s*\S")
_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_]\w*)")

#: Methods in which unguarded writes are allowed: construction and pickle
#: reconstruction run before the object is shared between threads.
_UNGUARDED_METHODS = frozenset(
    {"__init__", "__post_init__", "__setstate__", "__del__"}
)


@dataclass(frozen=True)
class Finding:
    """One lint violation, printable as ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class _Module:
    """Parsed source plus the line-level comment directives."""

    def __init__(self, source: str, path: str) -> None:
        self.source = source
        self.path = str(path)
        self.posix = self.path.replace("\\", "/")
        self.name = self.posix.rsplit("/", 1)[-1]
        self.tree = ast.parse(source, filename=self.path)
        self.lines = source.splitlines()
        self.allows: dict[int, Optional[frozenset[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _ALLOW_RE.search(line)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                self.allows[lineno] = None  # every rule
            else:
                self.allows[lineno] = frozenset(
                    code.strip().upper()
                    for code in codes.split(",")
                    if code.strip()
                )

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def allowed(self, lineno: int, code: str) -> bool:
        """Is ``code`` suppressed on ``lineno`` (or the line above it)?"""
        for candidate in (lineno, lineno - 1):
            if candidate in self.allows:
                codes = self.allows[candidate]
                if codes is None or code in codes:
                    return True
        return False

    def guarded_by(self, lineno: int) -> Optional[str]:
        """The ``# guarded-by: <lock>`` directive on/above ``lineno``."""
        for candidate in (lineno, lineno - 1):
            match = _GUARDED_BY_RE.search(self.line(candidate))
            if match is not None:
                return match.group("lock")
        return None

    def finding(
        self, node: ast.AST, code: str, message: str
    ) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _call_name(func: ast.expr) -> Optional[str]:
    """The terminal name of a call target (``a.b.c(...)`` -> ``"c"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.<attr>`` -> ``attr`` (unwrapping one subscript level)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _target_attrs(target: ast.expr) -> Iterator[ast.expr]:
    """Flatten tuple/list/starred assignment targets."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_attrs(element)
    elif isinstance(target, ast.Starred):
        yield from _target_attrs(target.value)
    else:
        yield target


def _stmt_lists(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    """Every nested statement list of a compound statement."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(stmt, "handlers", []) or []:
        yield handler.body
    for case in getattr(stmt, "cases", []) or []:
        yield case.body


def _decorator_name(decorator: ast.expr) -> Optional[str]:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return _call_name(decorator)


# ---------------------------------------------------------------------------
# REP001 -- deterministic float accumulation
# ---------------------------------------------------------------------------


def _is_unordered_collection(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp, ast.DictComp, ast.Dict)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        return name in {"set", "frozenset"}
    return False


def _body_accumulates(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return True
    return False


def check_rep001(module: _Module) -> list[Finding]:
    """Ban non-deterministic float accumulation in bit-identity modules.

    The compiled-plan engine's contract is a bit-for-bit replay of the
    legacy left-to-right accumulation order (PR 3): numpy's pairwise
    ``reduceat`` segment summation, ``math.fsum``'s compensated order,
    builtin ``sum`` over float arrays, and accumulation driven by
    set/dict iteration order all break it silently.
    """
    findings = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr == "reduceat":
            findings.append(
                module.finding(
                    node,
                    "REP001",
                    "ufunc.reduceat uses pairwise segment summation and "
                    "breaks the bit-identical accumulation-order contract "
                    "(see core/plans.py module docstring); use the "
                    "segmented left-to-right sweep",
                )
            )
        elif isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name == "fsum":
                findings.append(
                    module.finding(
                        node,
                        "REP001",
                        "math.fsum reorders float accumulation; this module "
                        "must replay the legacy left-to-right order "
                        "bit-for-bit",
                    )
                )
            elif name == "sum" and isinstance(node.func, ast.Name):
                findings.append(
                    module.finding(
                        node,
                        "REP001",
                        "builtin sum() over floats has no pinned "
                        "accumulation contract here; use the explicit "
                        "left-to-right sweep (or np.sum on an axis whose "
                        "order is part of the plan), or justify with "
                        "# reprolint: allow[REP001]",
                    )
                )
        elif isinstance(node, ast.For) and _is_unordered_collection(node.iter):
            if _body_accumulates(node.body):
                findings.append(
                    module.finding(
                        node,
                        "REP001",
                        "accumulating over set/dict iteration order is "
                        "non-deterministic across processes (hash "
                        "randomisation); iterate a sorted() or otherwise "
                        "explicitly ordered sequence",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# REP002 -- lock owners must be pickle-deliberate
# ---------------------------------------------------------------------------


def check_rep002(module: _Module) -> list[Finding]:
    """Classes owning locks/executors must define ``__getstate__``.

    Process-backend jobs carry fusers (and their caches) across pickle;
    a raw ``threading.Lock`` or executor in ``__dict__``/``__slots__``
    makes that a ``TypeError`` at the worst possible moment (PR 4).  An
    explicit ``__getstate__`` -- dropping the lock, or raising a clear
    error for process-local objects -- makes the pickle story deliberate.
    """
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        has_getstate = any(
            isinstance(item, ast.FunctionDef) and item.name == "__getstate__"
            for item in node.body
        )
        if has_getstate:
            continue
        owning_assigns = []
        for sub in ast.walk(node):
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                continue
            if sub.value is None:
                continue
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            assigns_self = any(
                _self_attr(flat) is not None
                for target in targets
                for flat in _target_attrs(target)
            )
            if not assigns_self:
                continue
            for inner in ast.walk(sub.value):
                if (
                    isinstance(inner, ast.Call)
                    and _call_name(inner.func) in _LOCK_FACTORIES
                ):
                    owning_assigns.append(sub)
                    break
        for assign in owning_assigns:
            findings.append(
                module.finding(
                    assign,
                    "REP002",
                    f"class {node.name!r} owns a lock/executor but defines "
                    "no __getstate__; define one that drops (or refuses to "
                    "pickle) process-local state so process-backend jobs "
                    "fail deliberately, not incidentally",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# REP003 -- guarded-by discipline
# ---------------------------------------------------------------------------


def _with_lock_names(stmt: ast.With) -> set[str]:
    names = set()
    for item in stmt.items:
        attr = _self_attr(item.context_expr)
        if attr is not None:
            names.add(attr)
    return names


def _check_guarded_writes(
    module: _Module,
    statements: Sequence[ast.stmt],
    declarations: dict[str, str],
    held: frozenset[str],
    findings: list[Finding],
) -> None:
    for stmt in statements:
        if isinstance(stmt, ast.With):
            _check_guarded_writes(
                module,
                stmt.body,
                declarations,
                held | _with_lock_names(stmt),
                findings,
            )
            continue
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                targets = [stmt.target]
            for target in targets:
                for flat in _target_attrs(target):
                    attr = _self_attr(flat)
                    if attr is None or attr not in declarations:
                        continue
                    lock = declarations[attr]
                    if lock not in held:
                        findings.append(
                            module.finding(
                                stmt,
                                "REP003",
                                f"write to self.{attr} (declared "
                                f"# guarded-by: {lock}) outside a "
                                f"`with self.{lock}:` block; either take "
                                "the lock, or mark the enclosing method "
                                f"`# guarded-by: {lock}` if every caller "
                                "provably holds it",
                            )
                        )
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                attr = _self_attr(target)
                if attr is not None and attr in declarations:
                    lock = declarations[attr]
                    if lock not in held:
                        findings.append(
                            module.finding(
                                stmt,
                                "REP003",
                                f"del on self.{attr} (declared "
                                f"# guarded-by: {lock}) outside a "
                                f"`with self.{lock}:` block",
                            )
                        )
        for block in _stmt_lists(stmt):
            _check_guarded_writes(
                module, block, declarations, held, findings
            )


def check_rep003(module: _Module) -> list[Finding]:
    """Writes to ``# guarded-by: <lock>`` attributes must hold the lock.

    Attributes are declared at their initialising assignment (usually in
    ``__init__``) with a ``# guarded-by: _lock`` comment on the same or
    preceding line.  Every later write must sit lexically inside a
    ``with self._lock:`` block -- or inside a helper method itself marked
    ``# guarded-by: _lock`` on its ``def`` line, asserting that callers
    hold the lock (``ScoringSession._publish_generation`` is the
    motivating case).  ``__init__``/``__setstate__`` are exempt: the
    object is not yet shared.
    """
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        declarations: dict[str, str] = {}
        methods = [
            item for item in node.body if isinstance(item, ast.FunctionDef)
        ]
        for method in methods:
            if method.name not in _UNGUARDED_METHODS:
                continue
            for sub in ast.walk(method):
                if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    sub.targets
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    for flat in _target_attrs(target):
                        attr = _self_attr(flat)
                        if attr is None:
                            continue
                        lock = module.guarded_by(sub.lineno)
                        if lock is not None:
                            declarations[attr] = lock
        if not declarations:
            continue
        for method in methods:
            if method.name in _UNGUARDED_METHODS:
                continue
            caller_holds = module.guarded_by(method.lineno)
            held = (
                frozenset({caller_holds})
                if caller_holds is not None
                else frozenset()
            )
            _check_guarded_writes(
                module, method.body, declarations, held, findings
            )
    return findings


# ---------------------------------------------------------------------------
# REP004 -- no module-level mutable state in repro.core
# ---------------------------------------------------------------------------


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(
        value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp,
                ast.DictComp)
    ):
        return True
    if isinstance(value, ast.Call):
        return _call_name(value.func) in _MUTABLE_FACTORIES
    return False


def check_rep004(module: _Module) -> list[Finding]:
    """Ban module-level mutable state (and ``lru_cache`` on closures).

    Module-global mutable containers outlive every model generation:
    PR 6's rule that significance memos must never be module-global
    exists because a process-wide memo silently accelerates cold refits
    and corrupts delta-vs-cold comparisons -- and any global dict/list/set
    in ``repro.core`` is one refactor away from the same bug.  Pure
    deterministic memos may opt out with a justified
    ``# reprolint: allow[REP004]``.  ``lru_cache`` on a *closure* creates
    one unbounded cache per enclosing call and pins its cell contents;
    hoist the function to module level.
    """
    findings = []
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            if isinstance(stmt, ast.Assign):
                names = [
                    flat.id
                    for target in stmt.targets
                    for flat in _target_attrs(target)
                    if isinstance(flat, ast.Name)
                ]
            else:
                names = (
                    [stmt.target.id]
                    if isinstance(stmt.target, ast.Name)
                    else []
                )
            if names == ["__all__"]:
                continue
            if stmt.value is not None and _is_mutable_value(stmt.value):
                findings.append(
                    module.finding(
                        stmt,
                        "REP004",
                        f"module-level mutable state "
                        f"({', '.join(names) or 'assignment'}) in "
                        "repro.core: state must live on a component "
                        "instance so a model-generation swap replaces it "
                        "(PR 6 memo rule); justify pure deterministic "
                        "memos with # reprolint: allow[REP004]",
                    )
                )
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(node):
            if sub is node:
                continue
            if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in sub.decorator_list:
                if _decorator_name(decorator) in {"lru_cache", "cache"}:
                    findings.append(
                        module.finding(
                            sub,
                            "REP004",
                            f"lru_cache on closure {sub.name!r}: each "
                            "enclosing call builds a fresh unbounded cache "
                            "pinning its closed-over state; hoist the "
                            "function to module level (pure args only)",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# REP005 -- benchmarks must seed their RNGs
# ---------------------------------------------------------------------------


def check_rep005(module: _Module) -> list[Finding]:
    """Benchmark scripts must seed RNGs explicitly.

    Every committed ``BENCH_*.json`` claims bit-identity and speedup
    numbers; an unseeded generator makes the run unreproducible and the
    artifact unverifiable.  Flags argless ``default_rng()`` /
    ``ensure_rng()`` / ``random.Random()`` and global-stream draws
    (``np.random.rand`` etc.) without a module-level ``seed(...)`` call.
    """
    has_np_seed = False
    has_random_seed = False
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "seed":
                target = func.value
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "random"
                ):
                    has_np_seed = True
                elif isinstance(target, ast.Name) and target.id == "random":
                    has_random_seed = True
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = _call_name(func)
        argless = not node.args and not node.keywords
        none_arg = (
            len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value is None
        )
        if name == "default_rng" and argless:
            findings.append(
                module.finding(
                    node,
                    "REP005",
                    "unseeded default_rng() in a benchmark: committed "
                    "BENCH artifacts must be reproducible; pass an "
                    "explicit integer seed",
                )
            )
        elif name == "ensure_rng" and (argless or none_arg):
            findings.append(
                module.finding(
                    node,
                    "REP005",
                    "ensure_rng() without a seed draws fresh entropy; "
                    "benchmarks must pass an explicit seed",
                )
            )
        elif name == "Random" and argless and isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "random":
                findings.append(
                    module.finding(
                        node,
                        "REP005",
                        "unseeded random.Random() in a benchmark; pass an "
                        "explicit seed",
                    )
                )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in {"np", "numpy"}
            and func.attr not in _NP_RANDOM_SAFE
            and not has_np_seed
        ):
            findings.append(
                module.finding(
                    node,
                    "REP005",
                    f"np.random.{func.attr} draws from the unseeded global "
                    "stream; use a seeded np.random.default_rng(seed) "
                    "generator (or call np.random.seed first)",
                )
            )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr in _RANDOM_GLOBAL_DRAWS
            and not has_random_seed
        ):
            findings.append(
                module.finding(
                    node,
                    "REP005",
                    f"random.{func.attr} draws from the unseeded global "
                    "stream; seed it (random.seed) or use a seeded "
                    "random.Random(seed)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# REP006 -- broad except handlers must be deliberate fault barriers
# ---------------------------------------------------------------------------


def _broad_exception_names(annotation: Optional[ast.expr]) -> list[str]:
    """The broad names a handler catches (``Exception``/``BaseException``).

    ``None`` (a bare ``except:``) reports as ``BaseException`` -- that is
    what it catches.  Tuples are flattened, so
    ``except (ValueError, Exception):`` is still broad.
    """
    if annotation is None:
        return ["BaseException"]
    nodes = (
        annotation.elts if isinstance(annotation, ast.Tuple) else [annotation]
    )
    names = []
    for node in nodes:
        name = (
            node.id
            if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None
        )
        if name in ("Exception", "BaseException"):
            names.append(name)
    return names


def check_rep006(module: _Module) -> list[Finding]:
    """Broad ``except`` handlers must re-raise or be marked fault barriers.

    A bare ``except Exception:`` that swallows is how fault-tolerance
    code rots: it hides injected faults, broken pools, and admission
    leaks behind a silently-absorbed error, and chaos tests then pass
    vacuously.  In ``repro.core`` and ``repro.serve`` every handler
    catching ``Exception``/``BaseException`` (bare ``except:`` included)
    must either contain a ``raise`` -- it narrows or wraps, it does not
    swallow -- or carry a ``# fault-barrier: <why>`` marker on the
    ``except`` line (or the line above) naming the invariant that makes
    swallowing safe (e.g. "per-request error capture on the last
    degradation rung; the error is settled into the request's future").
    """
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = _broad_exception_names(node.type)
        if not broad:
            continue
        if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
            continue
        for candidate in (node.lineno, node.lineno - 1):
            if _FAULT_BARRIER_RE.search(module.line(candidate)):
                break
        else:
            findings.append(
                module.finding(
                    node,
                    "REP006",
                    f"broad `except {'/'.join(broad)}` swallows without "
                    "re-raising; either narrow the exception type, "
                    "re-raise (possibly wrapped), or justify the barrier "
                    "with `# fault-barrier: <why swallowing is safe "
                    "here>` on the except line",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# REP007 -- durable writes go through the atomic module
# ---------------------------------------------------------------------------


def _looks_like_mode(value: Any) -> bool:
    """Whether a constant is plausibly an ``open`` mode string."""
    return (
        isinstance(value, str)
        and 0 < len(value) <= 4
        and all(ch in "rwaxbt+U" for ch in value)
    )


def _open_write_mode(call: ast.Call, *, method: bool) -> Optional[str]:
    """The write-capable mode string of an ``open``-style call, if any.

    Builtin ``open(path, mode)`` takes the mode second; method-style
    ``Path.open(mode)`` takes it first (while ``io.open(path, mode)`` is
    also attribute-shaped), so for ``method`` calls both leading
    positions are considered -- a candidate only counts when it actually
    looks like a mode string.
    """
    candidates: List[ast.expr] = []
    if method:
        candidates.extend(call.args[:2])
    elif len(call.args) >= 2:
        candidates.append(call.args[1])
    for keyword in call.keywords:
        if keyword.arg == "mode":
            candidates = [keyword.value]
    for node in candidates:
        if not isinstance(node, ast.Constant) or not _looks_like_mode(node.value):
            continue
        mode = node.value
        if any(flag in mode for flag in "wax+"):
            return str(mode)
    return None


def check_rep007(module: _Module) -> list[Finding]:
    """No ad-hoc write-mode file opens in ``repro.persist``.

    The durability layer's crash-exactness proof rests on one invariant:
    every byte that matters is written with fsync + temp-file + rename
    (or a tail-repairable append), all of which live in
    ``repro.persist.atomic``.  A stray ``open(path, "w")`` or
    ``Path.write_bytes`` elsewhere in the package can tear on crash,
    silently invalidating the recovery contract -- so outside the atomic
    module, write-capable ``open`` calls and ``write_text``/
    ``write_bytes`` are findings.  Route the write through
    ``atomic_write``/``open_for_append``/``truncate_file`` instead.
    """
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            findings.append(
                module.finding(
                    node,
                    "REP007",
                    f"`.{func.attr}()` bypasses the atomic-write "
                    "discipline; use repro.persist.atomic.atomic_write "
                    "so the file cannot tear on crash",
                )
            )
            continue
        if isinstance(func, ast.Name) and func.id == "open":
            method = False
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            method = True
        else:
            continue
        mode = _open_write_mode(node, method=method)
        if mode is not None:
            findings.append(
                module.finding(
                    node,
                    "REP007",
                    f"write-mode open ({mode!r}) outside "
                    "repro.persist.atomic; durable bytes must go through "
                    "atomic_write/open_for_append/truncate_file",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# REP008 -- row dedup has one path
# ---------------------------------------------------------------------------

#: Position of ``axis`` in ``np.unique(ar, return_index, return_inverse,
#: return_counts, axis)``.
_UNIQUE_AXIS_POSITION = 4


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def check_rep008(module: _Module) -> list[Finding]:
    """No ``np.unique(..., axis=...)`` row dedup in ``repro.core``.

    ``np.unique(axis=0)`` sorts a structured-void view of the rows; on the
    many small per-cluster inputs of the clustered route its per-call
    overhead dominated the pattern layer.  Row dedup has one path,
    ``repro.core.patterns.unique_rows`` (a lexsort over packed words with
    the same output), so a ``unique`` call with a non-``None`` ``axis``
    -- by keyword or in its fifth positional slot -- is a finding.
    Flat ``np.unique(values)`` is fine.
    """
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or _call_name(node.func) != "unique":
            continue
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        axes.extend(node.args[_UNIQUE_AXIS_POSITION : _UNIQUE_AXIS_POSITION + 1])
        if any(not _is_none(axis) for axis in axes):
            findings.append(
                module.finding(
                    node,
                    "REP008",
                    "`unique(..., axis=...)` row dedup; use "
                    "repro.core.patterns.unique_rows, the one row-dedup "
                    "kernel",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


RULE_CHECKERS: dict[str, Callable[[_Module], list[Finding]]] = {
    "REP001": check_rep001,
    "REP002": check_rep002,
    "REP003": check_rep003,
    "REP004": check_rep004,
    "REP005": check_rep005,
    "REP006": check_rep006,
    "REP007": check_rep007,
    "REP008": check_rep008,
}

ALL_RULES = tuple(sorted(RULE_CHECKERS))


def applicable_rules(path: Union[str, Path]) -> frozenset[str]:
    """Which rules apply to ``path``, from its repo-relative location.

    REP002/REP003 apply everywhere (lock discipline is repo-wide);
    REP001 to the bit-identity core modules; REP004 to ``repro/core``;
    REP005 to benchmark scripts; REP006 to the fault-tolerant layers
    (``repro/core``, ``repro/serve``, and ``repro/persist``); REP007 to
    ``repro/persist`` outside its atomic module (the only place allowed
    to open files for writing); REP008 to ``repro/core``.
    """
    posix = str(path).replace("\\", "/")
    name = posix.rsplit("/", 1)[-1]
    rules = {"REP002", "REP003"}
    if "repro/core/" in posix:
        rules.add("REP004")
        rules.add("REP006")
        rules.add("REP008")
        if name in BIT_IDENTITY_MODULES:
            rules.add("REP001")
    if "repro/serve/" in posix:
        rules.add("REP006")
    if "repro/persist/" in posix:
        rules.add("REP006")
        if name != "atomic.py":
            rules.add("REP007")
    if "benchmarks/" in posix or name.startswith("bench_"):
        rules.add("REP005")
    return frozenset(rules)


def check_source(
    source: str,
    path: Union[str, Path] = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint one source string; ``rules=None`` derives them from ``path``."""
    module = _Module(source, str(path))
    selected = (
        applicable_rules(path) if rules is None else frozenset(rules)
    )
    unknown = selected - set(RULE_CHECKERS)
    if unknown:
        raise ValueError(f"unknown reprolint rule(s): {sorted(unknown)}")
    findings: list[Finding] = []
    for code in sorted(selected):
        findings.extend(RULE_CHECKERS[code](module))
    findings = [
        finding
        for finding in findings
        if not module.allowed(finding.line, finding.code)
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def lint_file(
    path: Union[str, Path], rules: Optional[Iterable[str]] = None
) -> list[Finding]:
    """Lint one file; a syntax error becomes a REP000 finding."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    try:
        return check_source(source, path=str(path), rules=rules)
    except SyntaxError as error:
        return [
            Finding(
                path=str(path),
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
                code="REP000",
                message=f"syntax error: {error.msg}",
            )
        ]


def iter_python_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, skipping caches and hidden dirs."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_file():
            if entry.suffix == ".py":
                yield entry
            continue
        if not entry.is_dir():
            raise FileNotFoundError(f"no such file or directory: {entry}")
        for candidate in sorted(entry.rglob("*.py")):
            parts = candidate.parts
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in parts
            ):
                continue
            yield candidate


def lint_paths(
    paths: Iterable[Union[str, Path]],
    rules: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint every Python file under ``paths`` (files or directories)."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules=rules))
    return findings

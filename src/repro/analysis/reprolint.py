"""reprolint — invariant-enforcing static analysis for this reproduction.

Every quantitative claim the repo makes (the CHS recovery curves, the
matrix-free speedups, the ROB-BYZ trim results) rests on invariants the
interpreter does not enforce: all randomness flows through seeded
generators, simulation logic never reads wall-clock time, the parallel
solve phase is side-effect-free, shared registry arrays are never
mutated.  This module machine-checks those invariants with a small,
project-specific AST linter.

Rules
-----
RPR001 global-rng
    Calls into the *global-state* RNGs — ``np.random.<fn>`` module
    functions or ``random.<fn>`` module functions — anywhere in library
    code.  Seeded generator objects (``np.random.default_rng(seed)``,
    ``random.Random(seed)``) are the only sanctioned randomness.
RPR002 wall-clock
    ``time.time`` / ``time.perf_counter`` / ``time.monotonic`` /
    ``datetime.now`` and friends.  Simulation logic must read the
    :class:`repro.sim.clock.SimClock`; the few legitimate perf-timing
    sites carry a ``# reprolint: allow[wall-clock]`` pragma.  The
    *sanctioned realtime modules* (``repro/sim/wallclock.py``,
    ``repro/network/asyncio_transport.py`` and ``repro/gateway/``) are
    allowlisted wholesale: there the wall clock *is* the simulation
    clock, by design — see ``docs/invariants.md``.
RPR003 solve-purity
    Writes to ``self.*`` (or ``global`` declarations) inside the solve
    phase of the collect/solve/finalize split of ``broker.py`` /
    ``rounds.py`` / ``localcloud.py``.  Bit-identity of sharded and
    serial zone reconstruction depends on the solve phase being
    side-effect-free.
RPR004 raw-topic
    Raw string-literal topics at ``publish``/``subscribe``/
    ``unsubscribe`` call sites.  Topics must come from the shared
    constants in :mod:`repro.network.topics` so publishers and
    subscribers can never drift apart by typo.
RPR005 float-eq
    ``==`` / ``!=`` against float expressions.  Exact float comparison
    is only meaningful at explicit bit-identity pins (exact-zero
    sentinels, property tests) — those carry a pragma.
RPR006 mutable-default
    Mutable default arguments, and unseeded ``np.random.default_rng()``
    (no argument) in library code — both silently break replayability.
RPR007 (retired)
    Gated the deprecated ``TrafficStats.latency_s`` alias until every
    internal caller was migrated; the alias itself was removed in PR 8,
    so the rule retired with it.  The id stays reserved — it is never
    reused for a different check.
RPR008 raw-inbox
    Direct mutation of an ``Endpoint.inbox`` deque — ``*.inbox.append``
    and friends, ``x.inbox = ...`` rebinds, ``del x.inbox[i]`` —
    outside :mod:`repro.network.bus`.  All delivery and re-enqueueing
    must go through the bounded-queue API (``MessageBus.requeue`` /
    ``Endpoint.push``) so backpressure accounting and capacity bounds
    can never be bypassed.
RPR009 worker-rng
    RNG construction (``np.random.default_rng`` / ``Generator`` /
    ``SeedSequence`` / ``random.Random``) inside a worker-entry
    function (any function whose name contains ``worker``).  Ad-hoc
    worker seeding silently correlates shard streams; per-shard
    generators must be derived in the parent via
    :func:`repro.core.registry.spawn_shard_seeds` /
    :func:`repro.core.registry.shard_rng` and passed in.

Suppression
-----------
A finding is suppressed by a pragma on the same physical line (or the
closing line of a multi-line statement)::

    started = time.perf_counter()  # reprolint: allow[wall-clock]

The bracket takes a comma-separated list of rule ids (``RPR002``) or
names (``wall-clock``), or ``*`` for all rules.  Suppressed findings are
still reported (as suppressed) but never fail the run.

Run as ``python -m repro.analysis [paths] [--format text|json]``; the
process exits non-zero when unsuppressed findings remain.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "RULES",
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]

#: rule id -> (short name, one-line summary)
RULES: dict[str, tuple[str, str]] = {
    "RPR001": (
        "global-rng",
        "global-state RNG call (np.random.<fn> / random.<fn>); use a "
        "seeded np.random.default_rng / random.Random instance",
    ),
    "RPR002": (
        "wall-clock",
        "wall-clock read in simulation code; use the SimClock (pragma "
        "the legitimate perf-timing sites)",
    ),
    "RPR003": (
        "solve-purity",
        "state mutation inside a solve-phase function; the "
        "serial==sharded bit-identity needs solves to be "
        "side-effect-free",
    ),
    "RPR004": (
        "raw-topic",
        "raw string-literal topic at a publish/subscribe call site; use "
        "the shared constants from repro.network.topics",
    ),
    "RPR005": (
        "float-eq",
        "exact float ==/!= comparison; use a tolerance, or pragma an "
        "intentional bit-identity pin",
    ),
    "RPR006": (
        "mutable-default",
        "mutable default argument or unseeded np.random.default_rng() "
        "in library code",
    ),
    # RPR007 "deprecated-latency-s" is retired: it gated the
    # TrafficStats.latency_s alias to zero internal callers, and the
    # alias was removed in PR 8.  The id stays reserved.
    "RPR008": (
        "raw-inbox",
        "direct Endpoint.inbox mutation outside repro.network.bus; "
        "deliver/re-enqueue through the bounded-queue API "
        "(MessageBus.requeue) so capacity bounds cannot be bypassed",
    ),
    "RPR009": (
        "worker-rng",
        "RNG constructed inside a worker-entry function; derive "
        "per-shard streams via repro.core.registry.spawn_shard_seeds / "
        "shard_rng in the parent and pass them in",
    ),
    # RPR010–RPR013 are whole-program rules: they need the cross-file
    # call graph, so they live in repro.analysis.wholeprogram and only
    # run through analyze_paths (the CLI default), not lint_source.
    "RPR010": (
        "async-blocking",
        "blocking call reachable (transitively) from a realtime-module "
        "coroutine; one blocked frame stalls every session on the event "
        "loop — offload via run_in_executor/to_thread",
    ),
    "RPR011": (
        "transitive-impurity",
        "solve-phase function reaches (at any call depth) code that "
        "writes self.*/module state; serial==sharded bit-identity "
        "needs the whole solve call tree side-effect-free",
    ),
    "RPR012": (
        "seed-lineage",
        "duplicate literal seed feeding two RNG streams, or an RNG "
        "object crossing an executor boundary; derive independent "
        "child streams via SeedSequence.spawn",
    ),
    "RPR013": (
        "pubsub-flow",
        "topic constant published with no subscriber anywhere in the "
        "project (or subscribed with no publisher); the pub/sub "
        "contract needs both ends",
    ),
}

#: Parse failures are reported under a pseudo-rule that cannot be
#: pragma-suppressed.
PARSE_ERROR_RULE = "RPR000"

_NAME_TO_RULE = {name: rule for rule, (name, _) in RULES.items()}

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*allow\[([^\]]*)\]")

# Sanctioned constructors on the two RNG modules: these *create* seeded
# generator state rather than consuming the hidden global stream.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)
_PY_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

# RPR002: the sanctioned realtime modules — the socket-facing layer,
# where the wall clock IS the simulation clock by design (a WallClock
# is defined in terms of the event loop's time, and the gateway serves
# live devices).  Everything else must read whichever clock it was
# handed.  Kept deliberately short; additions belong in
# docs/invariants.md too.
_REALTIME_ALLOWED_SUFFIXES = (
    "repro/sim/wallclock.py",
    "repro/network/asyncio_transport.py",
)
_REALTIME_ALLOWED_DIRS = ("repro/gateway/",)


def _is_realtime_module(path: str) -> bool:
    """True when ``path`` is on the RPR002 realtime-module allowlist."""
    posix = Path(path).as_posix()
    if posix.endswith(_REALTIME_ALLOWED_SUFFIXES):
        return True
    return any(
        directory in posix for directory in _REALTIME_ALLOWED_DIRS
    )


_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

# The collect/solve/finalize split: these files host the functions the
# LocalCloud/Hierarchy layers dispatch on the reconstruction thread
# pool, and these function names are the dispatched solve phase.
_SOLVE_PHASE_FILES = frozenset({"broker.py", "rounds.py", "localcloud.py"})
_SOLVE_PHASE_FUNCS = frozenset({"solve_round"})

# publish(topic, message) / subscribe(address, topic) /
# unsubscribe(address, topic): positional index of the topic argument.
_TOPIC_ARG_INDEX = {"publish": 0, "subscribe": 1, "unsubscribe": 1}

_MUTABLE_DEFAULT_CALLS = frozenset({"list", "dict", "set", "bytearray"})

# RPR008: the transport module owns the inbox deques; everywhere else
# must use the bounded-queue API (register/requeue/push).
_INBOX_EXEMPT_FILES = frozenset({"bus.py"})
_INBOX_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popleft",
        "remove",
        "clear",
        "rotate",
    }
)


@dataclass(frozen=True)
class Finding:
    """One linter hit, pointing at a physical source location."""

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}[{self.name}] {self.message}{tag}"
        )


def _pragma_lines(source: str) -> dict[int, set[str]]:
    """Map physical line number -> set of allowed rule ids/names/'*'."""
    allowed: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            entries = {
                entry.strip()
                for entry in match.group(1).split(",")
                if entry.strip()
            }
            allowed.setdefault(token.start[0], set()).update(entries)
    except tokenize.TokenError:
        # Fall back to a crude per-line scan; a tokenize failure will
        # surface as a parse error anyway.
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _PRAGMA_RE.search(line)
            if match is not None:
                allowed.setdefault(lineno, set()).update(
                    entry.strip()
                    for entry in match.group(1).split(",")
                    if entry.strip()
                )
    return allowed


class _Checker(ast.NodeVisitor):
    """Single-pass AST walk collecting findings for every rule."""

    def __init__(self, path: str, select: frozenset[str] | None) -> None:
        self.path = path
        self.basename = Path(path).name
        self.realtime_allowed = _is_realtime_module(path)
        self.select = select
        self.findings: list[Finding] = []
        # local name -> dotted module path it is bound to, e.g.
        # {"np": "numpy", "_random": "random", "perf_counter":
        #  "time.perf_counter", "datetime": "datetime.datetime"}
        self.aliases: dict[str, str] = {}
        self._solve_depth = 0
        self._worker_depth = 0

    # -- helpers -------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if self.select is not None and rule not in self.select:
            return
        self.findings.append(
            Finding(
                rule=rule,
                name=RULES[rule][0],
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _resolve(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted path through the
        module's import aliases; None when the root is not an import."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[bound] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                self.aliases[bound] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- function definitions (RPR003 scope, RPR006 defaults) ----------

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults: list[ast.expr] = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (
                    ast.List,
                    ast.Dict,
                    ast.Set,
                    ast.ListComp,
                    ast.DictComp,
                    ast.SetComp,
                ),
            )
            if (
                not mutable
                and isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_DEFAULT_CALLS
            ):
                mutable = True
            if mutable:
                self._emit(
                    "RPR006",
                    default,
                    f"mutable default argument in {node.name}(); default "
                    "to None and construct inside the body",
                )

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_defaults(node)
        in_solve = (
            self.basename in _SOLVE_PHASE_FILES
            and node.name in _SOLVE_PHASE_FUNCS
        )
        # RPR009 scope: worker-entry functions (and their nested
        # helpers) are the code multiprocessing dispatches into — the
        # naming convention the middleware uses throughout.
        in_worker = "worker" in node.name.lower()
        if in_worker:
            self._worker_depth += 1
        if in_solve or self._solve_depth:
            self._solve_depth += 1
            self.generic_visit(node)
            self._solve_depth -= 1
        else:
            self.generic_visit(node)
        if in_worker:
            self._worker_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- RPR003: solve-phase purity ------------------------------------

    def _is_self_attribute(self, node: ast.expr) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def _check_solve_write(self, node: ast.stmt, targets: list[ast.expr]) -> None:
        if not self._solve_depth:
            return
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_solve_write(node, list(target.elts))
            elif isinstance(
                target, (ast.Attribute, ast.Subscript)
            ) and self._is_self_attribute(target):
                self._emit(
                    "RPR003",
                    node,
                    "write to broker state inside the thread-pool solve "
                    "phase; solve_round must stay side-effect-free "
                    "(mutate state in finalize_round)",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_solve_write(node, list(node.targets))
        self._check_inbox_write(node, list(node.targets))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_solve_write(node, [node.target])
        self._check_inbox_write(node, [node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_solve_write(node, [node.target])
            self._check_inbox_write(node, [node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_solve_write(node, list(node.targets))
        self._check_inbox_write(node, list(node.targets))
        self.generic_visit(node)

    # -- RPR008: inbox mutation outside the transport ------------------

    def _inbox_exempt(self) -> bool:
        return self.basename in _INBOX_EXEMPT_FILES

    def _is_inbox_attr(self, node: ast.expr) -> bool:
        """True for an ``<anything>.inbox`` attribute chain (but not a
        bare ``inbox`` local, which is just a variable name)."""
        return isinstance(node, ast.Attribute) and node.attr == "inbox"

    def _check_inbox_write(
        self, node: ast.stmt, targets: list[ast.expr]
    ) -> None:
        if self._inbox_exempt():
            return
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_inbox_write(node, list(target.elts))
            elif self._is_inbox_attr(target) or (
                isinstance(target, ast.Subscript)
                and self._is_inbox_attr(target.value)
            ):
                self._emit(
                    "RPR008",
                    node,
                    "Endpoint.inbox mutated outside repro.network.bus; "
                    "route delivery through MessageBus.requeue/push so "
                    "the bounded-queue accounting cannot be bypassed",
                )

    def _check_inbox_call(self, node: ast.Call) -> None:
        if self._inbox_exempt():
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _INBOX_MUTATORS
            and self._is_inbox_attr(func.value)
        ):
            self._emit(
                "RPR008",
                node,
                f"inbox.{func.attr}() outside repro.network.bus; route "
                "delivery through MessageBus.requeue/push so the "
                "bounded-queue accounting cannot be bypassed",
            )

    def visit_Global(self, node: ast.Global) -> None:
        if self._solve_depth:
            self._emit(
                "RPR003",
                node,
                "global declaration inside the thread-pool solve phase; "
                "solve_round must stay side-effect-free",
            )
        self.generic_visit(node)

    # -- RPR001 / RPR002 / RPR004 / RPR006: calls ----------------------

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None:
            self._check_rng_call(node, resolved)
            self._check_wall_clock_call(node, resolved)
        self._check_topic_call(node)
        self._check_inbox_call(node)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, resolved: str) -> None:
        parts = resolved.split(".")
        if (
            len(parts) == 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] not in _NP_RANDOM_ALLOWED
        ):
            self._emit(
                "RPR001",
                node,
                f"np.random.{parts[2]}() consumes NumPy's hidden global "
                "RNG stream; draw from a seeded np.random.default_rng "
                "generator instead",
            )
        elif (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] not in _PY_RANDOM_ALLOWED
        ):
            self._emit(
                "RPR001",
                node,
                f"random.{parts[1]}() consumes the stdlib's hidden global "
                "RNG stream; draw from a seeded random.Random instance "
                "instead",
            )
        if (
            resolved == "numpy.random.default_rng"
            and not node.args
            and not node.keywords
        ):
            self._emit(
                "RPR006",
                node,
                "np.random.default_rng() without a seed is entropy-seeded "
                "and unreplayable; thread an explicit seed or Generator "
                "through",
            )
        if self._worker_depth and (
            (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] in _NP_RANDOM_ALLOWED
            )
            or (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _PY_RANDOM_ALLOWED
            )
        ):
            self._emit(
                "RPR009",
                node,
                f"{resolved}() constructed inside a worker-entry "
                "function; ad-hoc worker seeding correlates shard "
                "streams — derive the stream in the parent via "
                "repro.core.registry.spawn_shard_seeds/shard_rng and "
                "pass it in",
            )

    def _check_wall_clock_call(self, node: ast.Call, resolved: str) -> None:
        if self.realtime_allowed:
            return
        if resolved in _WALL_CLOCK_CALLS:
            self._emit(
                "RPR002",
                node,
                f"{resolved}() reads the wall clock; simulation logic "
                "must use the SimClock (perf-timing sites carry "
                "`# reprolint: allow[wall-clock]`)",
            )

    def _check_topic_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        index = _TOPIC_ARG_INDEX.get(node.func.attr)
        if index is None:
            return
        topic: ast.expr | None = None
        if len(node.args) > index:
            topic = node.args[index]
        else:
            for keyword in node.keywords:
                if keyword.arg == "topic":
                    topic = keyword.value
        if isinstance(topic, ast.Constant) and isinstance(topic.value, str):
            self._emit(
                "RPR004",
                topic,
                f"raw topic string {topic.value!r} at a "
                f"{node.func.attr}() call site; use the shared constants "
                "in repro.network.topics",
            )

    # -- RPR005: float equality ----------------------------------------

    def _is_float_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            return self._is_float_expr(node.operand)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            return True
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(self._is_float_expr(operand) for operand in operands):
                self._emit(
                    "RPR005",
                    node,
                    "exact float ==/!= comparison; compare with a "
                    "tolerance, or pragma an intentional bit-identity "
                    "pin",
                )
        self.generic_visit(node)

    # -- RPR007: retired -----------------------------------------------
    # The ``*.stats.latency_s`` matcher lived here until the deprecated
    # alias it gated was removed from TrafficStats (PR 8).


def _normalise_select(select: Iterable[str] | None) -> frozenset[str] | None:
    if select is None:
        return None
    rules: set[str] = set()
    for entry in select:
        entry = entry.strip()
        if not entry:
            continue
        rule = _NAME_TO_RULE.get(entry, entry.upper())
        if rule not in RULES:
            raise ValueError(
                f"unknown rule {entry!r}; expected one of "
                f"{sorted(RULES) + sorted(_NAME_TO_RULE)}"
            )
        rules.add(rule)
    return frozenset(rules)


def lint_source(
    source: str,
    path: str = "<memory>",
    *,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one source string; returns findings (suppressed ones
    flagged, parse failures reported under RPR000)."""
    selected = _normalise_select(select)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule=PARSE_ERROR_RULE,
                name="parse-error",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"could not parse: {exc.msg}",
            )
        ]
    allowed = _pragma_lines(source)
    checker = _Checker(path, selected)
    checker.visit(tree)
    findings: list[Finding] = []
    for finding in checker.findings:
        # A pragma counts on the finding's line or on the closing line
        # of a multi-line statement that starts there.
        pragmas: set[str] = set()
        for lineno in {finding.line} | _statement_lines(tree, finding.line):
            pragmas |= allowed.get(lineno, set())
        if "*" in pragmas or finding.rule in pragmas or finding.name in pragmas:
            finding = replace(finding, suppressed=True)
        findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _statement_lines(tree: ast.AST, line: int) -> set[int]:
    """End lines of *simple* statements whose span covers ``line`` —
    a multi-line statement accepts its pragma on the closing line.
    Compound statements (def/if/for/...) are excluded so a pragma on a
    block's last line never blankets the whole block."""
    ends: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or hasattr(node, "body"):
            continue
        end = getattr(node, "end_lineno", None)
        if end is not None and node.lineno <= line <= end:
            ends.add(end)
    return ends


def lint_file(
    path: str | Path, *, select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint one file on disk."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), select=select)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files,
    skipping ``__pycache__`` and hidden directories."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for candidate in sorted(entry.rglob("*.py")):
                parts = candidate.relative_to(entry).parts
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in parts
                ):
                    continue
                yield candidate
        else:
            yield entry


def lint_paths(
    paths: Iterable[str | Path], *, select: Iterable[str] | None = None
) -> tuple[list[Finding], int]:
    """Lint files/directories; returns (findings, files scanned)."""
    findings: list[Finding] = []
    scanned = 0
    for path in iter_python_files(paths):
        scanned += 1
        findings.extend(lint_file(path, select=select))
    return findings, scanned

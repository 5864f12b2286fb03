"""In-memory span tracer that wraps the program's public layer calls.

Tracing never edits ``src/``: :meth:`Tracer.install` swaps each target
function or method for a timing wrapper and :meth:`Tracer.uninstall`
puts the originals back.  A module-level function is replaced in its
defining module *and* in every loaded ``repro`` module that imported it
by name (``from ..core.omp import omp``), so call sites that bound the
name at import time are traced too.

Each span records its name, start, end, busy time, parent span and
round id.  For a synchronous call busy time is ``end - start``; for a
coroutine it is the sum of its running slices, so a socket read that
sits suspended waiting for bytes is not charged for the wait.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

#: ``Counter(args, kwargs, result) -> {counter: increment}`` hooks.
CountHook = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Target:
    """One public call to wrap: ``module:qualname`` recorded as ``name``."""

    name: str
    module: str
    qualname: str
    count: CountHook | None = None


class Tracer:
    """Collects spans and counters from wrapped layer calls."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: Parallel span columns: name, start, end, busy, parent, round.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.busy: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.counters: dict[str, float] = {}
        #: Stamped on new spans; while negative, spans and counts are
        #: still recorded but fall outside every round.
        self.round_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start)
        self.busy.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round_id)
        return idx

    def _count(self, target: Target, args, kwargs, result) -> None:
        if target.count is None or self.round_id < 0:
            return
        for key, inc in target.count(args, kwargs, result).items():
            self.counters[key] = self.counters.get(key, 0.0) + float(inc)

    def _wrap_sync(self, target: Target, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = tracer.clock()
            idx = tracer._open(target.name, start)
            tracer._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.ends[idx] = end
                tracer.busy[idx] = end - start
            tracer._count(target, args, kwargs, result)
            return result

        return traced

    def _wrap_async(self, target: Target, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return _TimedAwaitable(tracer, target, func(*args, **kwargs), args, kwargs)

        return traced

    # -- installation --------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target; call :meth:`uninstall` to restore them."""
        # Import everything first, so a name imported by another module
        # is already bound there when the originals are swapped out.
        modules = [importlib.import_module(t.module) for t in targets]
        for target, module in zip(targets, modules):
            owner: Any = module
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrapper(target, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(target, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _wrapper(self, target: Target, func):
        if inspect.iscoroutinefunction(func):
            return self._wrap_async(target, func)
        return self._wrap_sync(target, func)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------

    def export(self) -> dict:
        """Plain-data copy of every span and counter (JSON-safe)."""
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "busy": self.busy,
            "parents": self.parents,
            "rounds": self.rounds,
            "counters": self.counters,
        }


class _TimedAwaitable:
    """Drives a coroutine and charges only its running slices as busy."""

    def __init__(self, tracer: Tracer, target: Target, coro, args, kwargs) -> None:
        self._tracer = tracer
        self._target = target
        self._coro = coro
        self._args = args
        self._kwargs = kwargs

    def __await__(self):
        tracer = self._tracer
        inner = self._coro.__await__()
        idx = tracer._open(self._target.name, tracer.clock())
        send: Any = None
        error: BaseException | None = None
        while True:
            start = tracer.clock()
            tracer._stack.append(idx)
            try:
                if error is not None:
                    yielded = inner.throw(error)
                else:
                    yielded = inner.send(send)
            except StopIteration as stop:
                self._close(idx, start)
                tracer._count(self._target, self._args, self._kwargs, stop.value)
                return stop.value
            except BaseException:
                self._close(idx, start)
                raise
            self._close(idx, start)
            try:
                send = yield yielded
                error = None
            except BaseException as exc:  # delivered into the coroutine
                send, error = None, exc

    def _close(self, idx: int, start: float) -> None:
        tracer = self._tracer
        tracer._stack.pop()
        end = tracer.clock()
        tracer.busy[idx] += end - start
        tracer.ends[idx] = end


# -- analysis ------------------------------------------------------------


def self_times(spans: dict) -> list[float]:
    """Per-span self time: busy time minus its direct children's busy."""
    own = list(spans["busy"])
    for idx, parent in enumerate(spans["parents"]):
        if parent >= 0:
            own[parent] -= spans["busy"][idx]
    return own


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]

"""Span tracer that times the program's layers from outside.

Nothing under ``src/`` is edited.  Each hook replaces one module
function or class method with a wrapper while a traced pass runs and
puts the original back afterwards.  A hook whose target no longer
exists (renamed or deleted) is recorded as absent instead of failing;
every metric that needs it is then reported absent by name, never as 0.

Timing model: a span covers one call of a wrapped target.  Its self
time is its duration minus the durations of the spans it directly
encloses.  Its total time is counted once per outermost activation, so
recursion is not double counted.  A generator target is timed at the
call and at each resumption its consumer drives, one span per ``next``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SPAN = "span"        # time and count every call
COUNT = "count"      # count calls only: for targets too hot to time
GEN = "gen"          # also time every resumption of the returned iterator


@dataclass(frozen=True)
class Hook:
    """One wrapped target: ``module`` plus an attribute path like
    ``"func"`` or ``"Class.method"``.

    ``observe(stat, args, result)`` runs after a call returns and may
    record extra counters in ``stat.extra``.
    """

    name: str
    module: str
    target: str
    mode: str = SPAN
    observe: Optional[Callable] = None


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.active = 0
        self.extra: Dict[str, float] = {}

    def add(self, key: str, value: float):
        self.extra[key] = self.extra.get(key, 0) + value


def _resolve(hook: Hook):
    """(owner, attribute, original) of a hook target, or raise LookupError."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError as exc:
        raise LookupError("module %s: %s" % (hook.module, exc))
    *path, attr = hook.target.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            raise LookupError("%s.%s not found" % (hook.module, part))
    original = vars(owner).get(attr)
    if original is None:
        raise LookupError("%s.%s not found" % (hook.module, hook.target))
    return owner, attr, original


class Tracer:
    """Installs hooks, keeps one Stat per hook, restores on uninstall."""

    def __init__(self, hooks: Sequence[Hook]):
        self.hooks = list(hooks)
        self.stats: Dict[str, Stat] = {h.name: Stat() for h in self.hooks}
        self.absent: Dict[str, str] = {}
        self.originals: Dict[str, object] = {}
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[object, str, object]] = []

    def install(self):
        for hook in self.hooks:
            try:
                owner, attr, original = _resolve(hook)
            except LookupError as exc:
                self.absent[hook.name] = str(exc)
                continue
            self.originals[hook.name] = original
            wrapper = self._wrap(hook, original, self.stats[hook.name])
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, hook: Hook, fn, stat: Stat):
        observe = hook.observe
        if hook.mode == COUNT:
            if observe is None:
                def counted(*args, **kwargs):
                    stat.calls += 1
                    return fn(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    stat.calls += 1
                    result = fn(*args, **kwargs)
                    observe(stat, args, result)
                    return result
            return counted
        if hook.mode == GEN:
            timed = self._timed

            def resume(inner):
                done = object()
                while True:
                    item = timed(stat, next, (inner, done), {})
                    if item is done:
                        return
                    yield item

            def generator(*args, **kwargs):
                stat.calls += 1
                return resume(iter(timed(stat, fn, args, kwargs)))
            return generator
        if hook.mode != SPAN:
            raise ValueError("unknown hook mode %r" % (hook.mode,))
        timed = self._timed

        def spanned(*args, **kwargs):
            stat.calls += 1
            result = timed(stat, fn, args, kwargs)
            if observe is not None:
                observe(stat, args, result)
            return result
        return spanned

    def _timed(self, stat: Stat, fn, args, kwargs):
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        stat.active += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stat.errors += 1
            raise
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            stat.active -= 1
            stat.self_time += elapsed - frame[0]
            if not stat.active:
                stat.total += elapsed
            if stack:
                stack[-1][0] += elapsed


@dataclass(frozen=True)
class Metric:
    """A per-layer figure computed from the stats of the hooks it needs."""

    name: str
    unit: str
    needs: Tuple[str, ...]
    value: Callable[[Dict[str, Stat], Dict[str, object]], float]


def ratio(num: float, den: float) -> float:
    """num / den, reading 0 when nothing was attempted."""
    return num / den if den else 0.0


def evaluate(metrics: Sequence[Metric], tracer: Tracer
             ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """(values, absent) where absent maps a metric to its missing hooks."""
    values: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    for metric in metrics:
        missing = [h for h in metric.needs if h in tracer.absent]
        if missing:
            absent[metric.name] = "; ".join(tracer.absent[h] for h in missing)
            continue
        try:
            values[metric.name] = metric.value(tracer.stats,
                                               tracer.originals)
        except AttributeError as exc:    # e.g. a cache that was removed
            absent[metric.name] = str(exc)
    return values, absent

"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the ``repro`` layers from
the outside; nothing under ``src/`` knows it exists. A wrapper records one
span per call: name, start, end, the span that was open when it started
(its parent), the request id of the service request it serves, and the
thread. Parents and request ids live in :mod:`contextvars`, so concurrent
asyncio tasks and island threads each keep their own nesting.

Functions are patched under every name a ``repro`` module holds them by
(``from x import f`` copies the reference into the importing module, so the
defining module alone is not enough). Methods are patched on the class, so
bound methods created after :meth:`Tracer.install` see the wrapper.
:meth:`Tracer.uninstall` restores every original object.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: The span open in the current task or thread (its id), for parent links.
_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: The benchmark's request id, set by the service workload per request.
REQUEST_ID: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: Marker attribute holding the wrapped original on every wrapper.
ORIGINAL_ATTR = "__perfbench_original__"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int
    #: Counts measured at the boundary (rows sampled, bytes, hit/miss ...).
    attrs: dict[str, Any] | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while :attr:`active`; patches and restores targets."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        # (owner, attribute, original value, owner had its own attribute)
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            result = None
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                extra = attrs(args, kwargs, result) if attrs and returned else None
                tracer._add(span_id, name, start, end, parent, extra)

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span around a block (children started inside link to it)."""
        if not self.active:
            yield
            return
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self._add(span_id, name, start, end, parent, None)

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (e.g. a queue wait)."""
        if self.active:
            self._add(next(self._ids), name, start, end, _CURRENT.get(), None)

    def _add(
        self,
        span_id: int,
        name: str,
        start: float,
        end: float,
        parent: int | None,
        attrs: dict[str, Any] | None,
    ) -> None:
        self.spans.append(
            Span(span_id, name, start, end, parent, REQUEST_ID.get(), threading.get_ident(), attrs)
        )

    # -- patching -------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        # The raw attribute, so a classmethod is restored as a classmethod.
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def patch_function(
        self,
        module: str,
        attr: str,
        name: str,
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> None:
        """Wrap ``module.attr`` under every name a loaded repro module uses."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(
        self,
        module: str,
        cls_name: str,
        attr: str,
        name: str,
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> None:
        cls = getattr(sys.modules[module], cls_name)
        raw = vars(cls).get(attr)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, attrs)))
        else:
            self._set(cls, attr, self.wrap(name, getattr(cls, attr), attrs))

    def patch_raw(self, owner: Any, attr: str, value: Any) -> None:
        """Install a hand-written replacement (restored like the others)."""
        self._set(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name, newest first. Idempotent."""
        self.active = False
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def installed_wrappers() -> list[str]:
    """Names in loaded repro modules and classes that still hold a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if hasattr(value, ORIGINAL_ATTR):
                found.append(f"{mod_name}.{key}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in list(vars(value).items()):
                    member = getattr(member, "__func__", member)  # classmethods
                    if hasattr(member, ORIGINAL_ATTR):
                        found.append(f"{mod_name}.{key}.{attr}")
    return found


# -- aggregation ----------------------------------------------------------------


def busy(spans: list[Span], name: str) -> float:
    """Summed duration of the spans called ``name`` (across threads)."""
    return float(sum(s.duration for s in spans if s.name == name))


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def attr_sum(spans: list[Span], name: str, key: str) -> float:
    return float(sum((s.attrs or {}).get(key, 0) for s in spans if s.name == name))


def self_time(spans: list[Span], names: set[str]) -> float:
    """Summed self time of spans named in ``names``.

    A span's self time is its duration minus the durations of its direct
    children. Children run in the parent's task or thread and nest inside
    it, so they never overlap each other.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return float(sum(s.duration - child_time.get(s.id, 0.0) for s in spans if s.name in names))


def to_records(spans: list[Span]) -> list[dict[str, Any]]:
    """JSON-able span list (times relative to the first span)."""
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {
            "id": s.id,
            "name": s.name,
            "start_s": s.start - t0,
            "end_s": s.end - t0,
            "parent": s.parent,
            "request": s.request,
            "thread": s.thread,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in spans
    ]

"""In-memory spans around the calls ``discordant.cli`` and ``discordant.verify`` make.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, every function that those two modules import from another package
module by a wrapper that records a span.  The layer of a span is the
module that defines the wrapped function, so a call from ``cli`` into
``structural_discord_zero`` is a ``blocks`` span.  Nothing inside the
package is edited: functions that ``blocks`` or ``discord`` call
internally (``linalg`` helpers included) count toward their caller's
self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from dataclasses import dataclass
from time import perf_counter

import discordant.cli
import discordant.verify

#: Modules whose imported names are wrapped.
CALLERS = (discordant.cli, discordant.verify)
#: Layers a span can belong to, in report order.
LAYERS = ("cli", "serialize", "states", "blocks", "discord", "verify")


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None
    item: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "item": self.item}


class Tracer:
    """Records nested spans; the innermost open span is the parent of the next."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._item: int | None = None

    def call(self, name: str, fn, args, kwargs, item: int | None = None):
        if item is not None:
            self._item = item
        sid = len(self.spans)
        span = Span(sid, name, perf_counter(), 0.0,
                    self._open[-1] if self._open else None, self._item)
        self.spans.append(span)
        self._open.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the imported package functions of every caller module."""
        saved = []
        for module in CALLERS:
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__.startswith("discordant.")
                        and obj.__module__ != module.__name__):
                    saved.append((module, attr, obj))
                    setattr(module, attr, self._wrap(obj))
        try:
            yield self
        finally:
            for module, attr, obj in saved:
                setattr(module, attr, obj)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[s.id] for s in spans]

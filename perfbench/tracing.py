"""In-memory span tracing for the benchmark, applied from outside the program.

The tracer replaces functions at their call sites: the name a vulnseq
module looks up when it calls another layer (``vulnseq.predict.encode``,
``vulnseq.seq2seq.train.train_step``, ``LinearClassifier.predict``). The
program's files are never edited. Wrappers are installed only inside
``Tracer.recording`` and the originals are put back on exit, so untraced
runs and output checks execute the unmodified code.

A target that no longer exists (a later commit renamed or removed it) is
skipped and reports zero calls; a target that is never called also
reports zero. A call that raises still closes its span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One call site to wrap.

    ``attr`` may be ``Class.method``. ``on_result(result)`` and
    ``on_error(exc)`` return counter increments for the current run.
    """

    module: str
    attr: str
    span: str
    on_result: Callable[[object], dict[str, float]] | None = None
    on_error: Callable[[BaseException], dict[str, float]] | None = None


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _resolve(module_name: str, attr: str):
    """Return (owner, name, current value), or None when the target is gone.

    Modules are resolved with importlib: ``vulnseq.seq2seq.train`` as an
    attribute of the package is the re-exported function, not the module.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = ""
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans), name, self.run, parent.id if parent else None, time.perf_counter()
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_time += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, increments: dict[str, float]) -> None:
        bucket = self.counts[self.run]
        for key, value in increments.items():
            bucket[key] += value

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(target.span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if target.on_error is not None:
                    tracer.count(target.on_error(exc))
                raise
            finally:
                tracer.close(span)
            if target.on_result is not None:
                tracer.count(target.on_result(result))
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self, run: str):
        """Install every wrapper, tag new spans with ``run``, then restore."""
        installed = []
        self.run = run
        try:
            for target in self.targets:
                found = _resolve(target.module, target.attr)
                if found is None:
                    continue
                owner, name, original = found
                setattr(owner, name, self._wrap(original, target))
                installed.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(installed):
                setattr(owner, name, original)
            self.run = ""

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times in seconds, perf_counter)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "run": s.run,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "self": s.self_time,
                        }
                    )
                    + "\n"
                )

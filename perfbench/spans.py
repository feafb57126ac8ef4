"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` wraps every binding through which one ``tensorcur``
module calls a public function of another (``tensorcur.cur.unfold``,
``tensorcur.experiments.read_tensor``, ...), the package-level bindings the
benchmark calls, and any extra bindings or methods it is given.  Each call
through a wrapper records a span: ``layer.function``, start, end, parent
span and op id.  When ``tracemalloc`` is tracing, the span also records the
peak of traced memory above its start; a child's peak is folded into its
parent.  Spans stay in memory; the caller writes them out at the end.

Wrappers pass arguments and results through untouched, so a traced run
computes bit-identical outputs.  Book-keeping happens outside the child's
[start, end] interval and is therefore charged to the parent's self time.
"""

import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

ROOT = "bench.op"
SKIP = ("cli",)  # argument parsing only; not a measured layer


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    alloc_peak: int = 0  # bytes of traced memory above the span's start
    count: float = 0.0  # counter attached to the span name, e.g. indices drawn

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans for calls through installed wrappers.

    ``counters`` maps a span name to ``f(args, kwargs, result) -> number``,
    evaluated after the call returns.
    """

    def __init__(self, counters=None):
        self.spans: list[Span] = []
        self.counters = dict(counters or {})
        self._stack: list[list] = []  # [span, traced memory at entry, peak seen]
        self._op: int | None = None
        self._undo: list[tuple] = []

    def _enter(self, name: str) -> Span:
        start_mem = 0
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
            start_mem = current
        parent = self._stack[-1][0].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._op, 0.0)
        self.spans.append(span)
        self._stack.append([span, start_mem, start_mem])
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        _, start_mem, seen = self._stack.pop()
        if tracemalloc.is_tracing():
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            span.alloc_peak = peak - start_mem
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; nested spans carry its id."""
        self._op = op_id
        span = self._enter(ROOT)
        try:
            yield span
        finally:
            self._exit(span)
            self._op = None

    def wrap(self, fn, name: str):
        count = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                span.count = float(count(args, kwargs, result))
            return result

        traced.__traced__ = True
        return traced

    def _replace(self, owner, attr: str, fn) -> None:
        layer = fn.__module__.rsplit(".", 1)[-1]
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, f"{layer}.{fn.__name__}"))

    def install(self, package, also=(), methods=()) -> None:
        """Wrap the cross-module bindings of ``package``'s submodules and the
        package's own public bindings.

        ``also`` names extra same-module bindings as ``"module.function"``;
        ``methods`` lists ``(class, name)`` pairs to wrap on the class.
        """
        prefix = package.__name__ + "."
        owners = [package] + [
            m for m in vars(package).values()
            if inspect.ismodule(m) and m.__name__.startswith(prefix)
            and m.__name__[len(prefix):] not in SKIP
        ]
        extra = {prefix + a for a in also}
        for owner in owners:
            for attr, fn in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if getattr(fn, "__traced__", False) or not fn.__module__.startswith(prefix):
                    continue
                if fn.__module__[len(prefix):] in SKIP:
                    continue
                home = fn.__module__ == owner.__name__
                if owner is package or not home or f"{owner.__name__}.{attr}" in extra:
                    self._replace(owner, attr, fn)
        for cls, attr in methods:
            self._replace(cls, attr, getattr(cls, attr))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def self_times(spans) -> dict[int, float]:
    """Seconds of each span not covered by its direct children."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.end - s.start
    return out


def op_profiles(spans) -> dict[int, dict]:
    """Per op id: self ms, calls and peak MB per layer; inclusive ms, peak
    MB and counter totals per span name (and per ``"parent>name"`` pair);
    and the span count."""
    own = self_times(spans)
    names = {s.id: s.name for s in spans}
    prof: dict[int, dict] = {}
    for s in spans:
        if s.op is None:
            continue
        p = prof.setdefault(s.op, {
            "self_ms": defaultdict(float), "calls": defaultdict(int),
            "ms": defaultdict(float), "peak_mb": defaultdict(float),
            "layer_peak_mb": defaultdict(float), "count": defaultdict(float),
            "spans": 0,
        })
        p["spans"] += 1
        p["self_ms"][s.layer] += own[s.id] * 1e3
        p["ms"][s.name] += (s.end - s.start) * 1e3
        if s.parent is not None:
            p["ms"][f"{names[s.parent]}>{s.name}"] += (s.end - s.start) * 1e3
        p["count"][s.name] += s.count
        p["peak_mb"][s.name] = max(p["peak_mb"][s.name], s.alloc_peak / 1e6)
        p["layer_peak_mb"][s.layer] = max(p["layer_peak_mb"][s.layer], s.alloc_peak / 1e6)
        if s.name != ROOT:
            p["calls"][s.layer] += 1
    return prof


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                "start": s.start, "end": s.end,
                "alloc_peak_bytes": s.alloc_peak, "count": s.count,
            }) + "\n")

"""In-memory spans recorded around calls into the program's public functions.

The benchmark installs wrappers on a fixed list of public functions and
methods (see :data:`HOOKS`) for the traced repetitions only, and removes
them again for the untraced ones; nothing under ``src/`` changes.  Each
span records name, start, end, parent span, request id and how many items
(documents, results) the call handled.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, Union


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "items")

    def __init__(self, name: str, start: float, parent: int, request: str | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.items = 1


class Tracer:
    """Collects spans; parents are the innermost open span of the same thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request_id(self) -> str | None:
        if self.request is not None:
            return self.request
        from repro.obs.tracing import current_trace

        context = current_trace()
        return context.trace_id if context is not None else None

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, 0.0, stack[-1] if stack else -1, self._request_id())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = perf_counter()
        return index

    def end(self, index: int, name: str | None = None, items: int = 1) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        if name is not None:
            span.name = name
        span.items = items
        self._stack().pop()
        return span

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` under one span (for calls the benchmark makes itself)."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def reset(self) -> None:
        with self._lock:
            self.spans = []


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


class LayerTable:
    """Self time, calls and items per span name."""

    def __init__(self, spans: list[Span]) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.by_request: dict[tuple[str | None, str], float] = defaultdict(float)
        self.wall_by_request: dict[tuple[str | None, str], float] = defaultdict(float)
        for span, own in zip(spans, self_times(spans)):
            self.self_s[span.name] += own
            self.calls[span.name] += 1
            self.items[span.name] += span.items
            self.by_request[(span.request, span.name)] += own
            self.wall_by_request[(span.request, span.name)] += span.end - span.start

    def per_item_us(self, *names: str) -> float:
        items = sum(self.items[n] for n in names)
        return 1e6 * sum(self.self_s[n] for n in names) / items if items else 0.0

    def per_call_us(self, name: str) -> float:
        calls = self.calls[name]
        return 1e6 * self.self_s[name] / calls if calls else 0.0

    def total_self(self, names: Iterable[str] | None = None) -> float:
        keys = self.self_s if names is None else names
        return sum(self.self_s[n] for n in keys)

    def inner_overhead(self, outer: str, inner_prefixes: tuple[str, ...]) -> float:
        """Summed ``outer`` wall minus the self time of inner layers, per request."""
        requests = {r for (r, name) in self.wall_by_request if name == outer}
        total = 0.0
        for request in requests:
            inner = sum(
                own
                for (r, name), own in self.by_request.items()
                if r == request and name.startswith(inner_prefixes)
            )
            total += max(0.0, self.wall_by_request[(request, outer)] - inner)
        return total


# --------------------------------------------------------------------------- #
# Hooks
# --------------------------------------------------------------------------- #
#: A span name, or a function of (call args, result) giving one.
SpanName = Union[str, Callable[[tuple, Any], str]]


def _wrap_call(
    tracer: Tracer, fn: Callable, name: SpanName, items: Callable[[tuple, Any], int]
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin("?")
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(index, "error", 0)
            raise
        label = name(args, result) if callable(name) else name
        tracer.end(index, label, items(args, result))
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """Time every ``next`` of a generator method: one span per item."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any):
        iterator = iter(fn(*args, **kwargs))
        while True:
            index = tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                tracer.end(index, items=0)
                return
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index)
            yield item

    return wrapper


def _one(args: tuple, result: Any) -> int:
    return 1


def _parser_name(args: tuple, result: Any) -> str:
    return f"parsers.{args[0].name}"


def _lookup_name(args: tuple, result: Any) -> str:
    return "cache.lookup_hit" if result is not None else "cache.lookup_miss"


def _second_arg_len(args: tuple, result: Any) -> int:
    return len(args[1])


#: The layer boundaries: ("module:attribute path", span name, items per call).
#: Items ``None`` marks a generator, which gets one span per yielded item.
HOOKS: list[tuple[str, Any, Any]] = [
    ("repro.documents.sources:SimPdfDirSource.iter_documents", "documents.simpdf_read", None),
    ("repro.documents.sources:SyntheticSource.iter_documents", "documents.synth", None),
    ("repro.documents.corpus:build_corpus", "documents.synth", lambda a, r: len(r)),
    ("repro.parsers.base:Parser.parse", _parser_name, _one),
    ("repro.core.cls1:ValidationClassifier.validate", "core.validate", _one),
    ("repro.core.engine:AdaParseFT.improvement_scores", "core.score", _second_arg_len),
    (
        "repro.core.cls2:ImprovementClassifier.improvement_probability",
        "core.score_cls2",
        _second_arg_len,
    ),
    ("repro.core.engine:select_within_budget", "core.budget", _one),
    ("repro.pipeline.pipeline:build_default_engine", "core.train", _one),
    ("repro.cache.cache:parse_cache_key", "cache.key", _one),
    ("repro.cache.cache:ParseCache.lookup", _lookup_name, _one),
    ("repro.cache.cache:ParseCache.store", "cache.store", _one),
    ("repro.cache.cache:ParseCache.flush", "cache.flush", _one),
    ("repro.pipeline.pipeline:ParsePipeline.run", "pipeline.run", lambda a, r: r.n_documents),
    (
        "repro.pipeline.report:ParseReport.to_json_dict",
        "pipeline.report_encode",
        lambda a, r: len(a[0].results),
    ),
    (
        "repro.pipeline.report:ParseReport.from_json_dict",
        "pipeline.report_decode",
        lambda a, r: len(r.results),
    ),
    ("repro.cluster.coordinator:document_to_dict", "cluster.codec", _one),
    (
        "repro.cluster.protocol:parse_batch_result",
        "cluster.codec_decode",
        lambda a, r: len(r[0]),
    ),
    ("repro.utils.wire:encode_message", "wire.encode", _one),
]


class Hooks:
    """Installs :data:`HOOKS` wrappers onto a tracer and removes them again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            return
        for target, name, items in HOOKS:
            module_name, path = target.split(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # A class's own __dict__ keeps classmethod objects unbound.
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            bound = isinstance(original, (staticmethod, classmethod))
            fn = original.__func__ if bound else original
            if items is None:
                wrapped = _wrap_generator(self.tracer, fn, name)
            else:
                wrapped = _wrap_call(self.tracer, fn, name, items)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

"""Span recording around the program's public functions, from the outside.

A traced process calls ``install(tracer)`` once, before it does any work. The
wrappers replace module and class attributes of ``simharvest`` so that every
call through them opens a span: name, start, end and the span that caused it.
Nothing inside ``src/`` is edited; the wrappers sit on the names the program
itself looks up at call time.

Spans called thousands of times per phase (one per record, page or pair) are
kept as aggregates: they add their time and count to the enclosing root span
and their time to their parent's child time, so self times stay exact while
memory stays small. Every other span is kept as its own record. Everything
stays in memory until ``Tracer.dump`` writes it out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

_now = time.perf_counter


class _Open:
    __slots__ = ("id", "name", "parent", "root", "start", "child_s", "attrs", "totals")

    def __init__(self, span_id, name, parent, root, attrs):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.root = root if root is not None else self
        self.attrs = attrs
        self.child_s = 0.0
        self.totals = {} if root is None else None
        self.start = _now()


class Tracer:
    """In-memory span store, safe for the server's request threads."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[dict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, **attrs) -> _Open:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = _Open(
            next(self._ids), name, parent, parent.root if parent else None, attrs
        )
        stack.append(span)
        return span

    def close(self, span: _Open, hot: bool = False, **attrs) -> float:
        end = _now()
        stack = self._stack()
        stack.pop()
        duration = end - span.start
        self._account(span.parent, span.root, span.name, duration, duration - span.child_s)
        for value in attrs.values():
            self.count(f"{span.name}.{value}", root=span.root)
        if not hot:
            span.attrs.update(attrs)
            record = {
                "id": span.id,
                "name": span.name,
                "parent": span.parent.id if span.parent else None,
                "start": span.start,
                "end": end,
                "self_s": duration - span.child_s,
                "attrs": span.attrs,
            }
            if span.totals is not None:
                record["totals"] = span.totals
            with self._lock:
                self.spans.append(record)
        return duration

    def add(self, name: str, seconds: float, calls: int) -> None:
        """Account time spent in ``calls`` calls of ``name`` under the open span."""
        parent = self.current()
        if parent is not None:
            self._account(parent, parent.root, name, seconds, seconds, calls)

    def count(self, name: str, amount: int = 1, root=None) -> None:
        if root is None:
            current = self.current()
            if current is None:
                return
            root = current.root
        entry = root.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += amount

    @staticmethod
    def _account(parent, root, name, duration, self_s, calls=1):
        if parent is None:
            return
        parent.child_s += duration
        entry = root.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += duration
        entry[2] += self_s

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def _wrap_call(tracer: Tracer, function, name: str, hot: bool, result_attr=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        attrs = {}
        try:
            result = function(*args, **kwargs)
            if result_attr is not None:
                attrs[result_attr] = getattr(result, result_attr)
            return result
        finally:
            tracer.close(span, hot=hot, **attrs)

    return wrapper


def _wrap_iterator(tracer: Tracer, function, name: str):
    """Time only the parent's waits inside next(); the consumer's own work
    between items stays in the consumer's self time."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        iterator = iter(function(*args, **kwargs))

        def stream():
            busy = 0.0
            items = 0
            try:
                while True:
                    started = _now()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += _now() - started
                        return
                    busy += _now() - started
                    items += 1
                    yield item
            finally:
                tracer.add(name, busy, 1)
                tracer.count(f"{name}.items", items)

        return stream()

    return wrapper


def _wrap_wsgi(tracer: Tracer, function):
    @functools.wraps(function)
    def wrapper(self, environ, start_response):
        span = tracer.open(
            "service.request",
            request=environ.get("HTTP_X_BENCH_REQUEST", ""),
            path=environ.get("PATH_INFO", ""),
        )
        try:
            return function(self, environ, start_response)
        finally:
            tracer.close(span)

    return wrapper


def _wrap_handle_request(tracer: Tracer, function):
    @functools.wraps(function)
    def wrapper(self, params):
        verb = (params.get("verb") or [""])[0]
        span = tracer.open("service.handle_request", verb=verb)
        try:
            return function(self, params)
        finally:
            tracer.close(span)

    return wrapper


# (module, attribute, span name, hot)
_FUNCTIONS = (
    ("harvester", "harvest", "harvester.harvest", False),
    ("harvester", "default_fetch", "harvester.fetch", False),
    ("harvester", "parse_response", "oai_xml.parse_response", False),
    ("store", "parse_record_fragment", "oai_xml.parse_record_fragment", True),
    ("store", "serialize_record_fragment", "oai_xml.serialize_record_fragment", True),
    ("pipeline", "index_store", "pipeline.index_store", False),
    ("pipeline", "compute_store", "pipeline.compute_store", False),
    ("pipeline", "record_to_tf", "textpipe.record_to_tf", True),
    ("pipeline", "check_results_fresh", "pipeline.check_results_fresh", True),
    ("service", "check_results_fresh", "pipeline.check_results_fresh", True),
    ("service", "load_top_matches", "pipeline.load_top_matches", True),
    ("service", "build_similarity_about", "oai_xml.build_similarity_about", True),
    ("service", "duplicate_report", "service.duplicate_report", False),
)
_SERIALIZERS = (
    "serialize_error",
    "serialize_get_record",
    "serialize_identify",
    "serialize_list_identifiers",
    "serialize_list_metadata_formats",
    "serialize_list_records",
    "serialize_list_sets",
)
# RecordStore methods: (method, span name, hot, result attribute to count)
_STORE_METHODS = (
    ("put_record", "store.put_record", True, "status"),
    ("get_record", "store.get_record", True, None),
    ("has_record", "store.has_record", True, None),
    ("list_identifiers", "store.list_identifiers", True, None),
    ("set_specs", "store.set_specs", True, None),
    ("earliest_datestamp", "store.earliest_datestamp", True, None),
    ("put_tf", "store.put_tf", True, None),
    ("get_tf", "store.get_tf", True, None),
    ("put_weights", "store.put_weights", True, None),
)


def install(tracer: Tracer) -> None:
    """Wrap the program's public functions so calls through them are traced."""
    import importlib

    modules = {
        name: importlib.import_module(f"simharvest.{name}")
        for name in ("harvester", "store", "pipeline", "service", "similarity")
    }
    for module, attribute, name, hot in _FUNCTIONS:
        owner = modules[module]
        setattr(owner, attribute, _wrap_call(tracer, getattr(owner, attribute), name, hot))
    # pipeline.iter_similarity_lines is a generator: time the waits on it.
    service = modules["service"]
    service.iter_similarity_lines = _wrap_iterator(
        tracer, service.iter_similarity_lines, "pipeline.iter_similarity_lines"
    )
    for attribute in _SERIALIZERS:
        function = getattr(service, attribute)
        setattr(service, attribute, _wrap_call(tracer, function, "oai_xml.serialize", True))
    record_store = modules["store"].RecordStore
    for method, name, hot, result_attr in _STORE_METHODS:
        function = getattr(record_store, method)
        setattr(record_store, method, _wrap_call(tracer, function, name, hot, result_attr))
    model = modules["similarity"].VectorSpaceModel
    model.fit = _wrap_call(tracer, model.fit, "similarity.fit", False)
    model.similarity_pairs = _wrap_iterator(
        tracer, model.similarity_pairs, "similarity.pair_stream"
    )
    provider = service.OaiProvider
    provider.__call__ = _wrap_wsgi(tracer, provider.__call__)
    provider.handle_request = _wrap_handle_request(tracer, provider.handle_request)

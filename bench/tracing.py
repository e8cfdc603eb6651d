"""Spans around the calls into each layer of the program, for traced runs.

The tracer wraps the program's public functions from outside, by replacing
the names the calling module looks up. Each span records its name, start,
end, parent span and operation id; spans stay in memory until dump().

An operation is one generate() call or one GraphQL query. Work that the
executor hands to its thread pool keeps the operation and parent span of
the thread that submitted it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, extra)
        self.counts: dict[tuple, int] = {}  # (op, name) -> calls
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- context -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int | None, int | None]:
        """(operation id, innermost span id) of the calling thread."""
        stack = self._stack()
        return (stack[-1][0], stack[-1][1]) if stack else (None, None)

    @contextlib.contextmanager
    def adopt(self, context: tuple[int | None, int | None]):
        """Run the calling thread under another thread's context."""
        if context[0] is None:
            yield
            return
        stack = self._stack()
        stack.append(context)
        try:
            yield
        finally:
            stack.pop()

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, op=None, extra=None):
        span_id = next(self._ids)
        parent_op, parent = self.current()
        op_id = op if op is not None else (parent_op if parent_op is not None else span_id)
        stack = self._stack()
        stack.append((op_id, span_id))
        start = time.perf_counter()
        result = note = None
        try:
            result = fn(*args, **kwargs)
            note = extra(result, args) if extra else None
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, op_id, name, start, end, note))

    def wrap(self, name: str, fn, op_of=None, extra=None):
        """fn with a span named name around each call. op_of(args) may name
        the operation; extra(result, args) may attach a small value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = op_of(args) if op_of else None
            return self.call(name, fn, args, kwargs, op=op, extra=extra)

        return traced

    def tally(self, name: str) -> None:
        """Count one event for the calling thread's operation."""
        key = (self.current()[0], name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def counting(self, name: str, fn):
        """fn, counting its calls per operation (for hot functions whose
        count matters more than their time)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.tally(name)
            return fn(*args, **kwargs)

        return counted

    def dump(self, path) -> None:
        """Write the counts as the first line, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps([[op, name, n] for (op, name), n in self.counts.items()]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_trace(path) -> tuple[list[tuple], dict[tuple, int]]:
    """(spans, counts by (operation, name)) as written by Tracer.dump()."""
    with open(path, encoding="utf-8") as fh:
        counts = {(op, name): n for op, name, n in json.loads(fh.readline())}
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return spans, counts


# -- installation ----------------------------------------------------------------


def install_generation(tracer: Tracer) -> None:
    """Spans around each generation phase, generate() itself, and a count of
    deep_equal calls."""
    from oaswrap import cli, evaluate, generator, preprocessing

    phases = {
        "load_document": "oas_ingest.load",
        "ingest": "oas_ingest.ingest",
        "validate": "oas_ingest.validate",
        "make_resolve_plan": "resolver_runtime.plans",
        "assemble_schema": "schema_gen.assemble",
    }
    for attr, name in phases.items():
        setattr(generator, attr, tracer.wrap(name, getattr(generator, attr)))
    generator.preprocess = tracer.wrap(
        "preprocessing.preprocess", preprocessing.preprocess,
        extra=lambda result, args: len(result.dictionary.entries))
    generator.print_sdl = tracer.wrap(
        "schema_gen.print", generator.print_sdl,
        extra=lambda result, args: len(result.encode("utf-8")))
    preprocessing.deep_equal = tracer.counting("preprocessing.deep_equal",
                                               preprocessing.deep_equal)
    traced_generate = tracer.wrap("generator.generate", generator.generate)
    generator.generate = traced_generate
    evaluate.generate = traced_generate
    cli.generate = traced_generate


def install_serving(tracer: Tracer) -> None:
    """Spans around each serving layer: request handling, parse, validate,
    execution, binding, the upstream round trip, decoding and shaping; and a
    count of thread pools."""
    from oaswrap import resolver_runtime, service
    from oaswrap.engine import execution

    def op_of(args):
        payload = args[1] if len(args) > 1 else None
        if isinstance(payload, dict):
            ext = payload.get("extensions")
            if isinstance(ext, dict) and isinstance(ext.get("benchOp"), int):
                return ext["benchOp"]
        return None

    service.GraphQLService.handle_graphql = tracer.wrap(
        "service.handle", service.GraphQLService.handle_graphql, op_of=op_of)
    service.parse_query = tracer.wrap("engine.parse", service.parse_query)
    service.validate_query = tracer.wrap("engine.validate", service.validate_query)
    execution.Executor.execute = tracer.wrap("engine.execute", execution.Executor.execute)
    execution.bind_runtime = tracer.wrap("resolver_runtime.bind", execution.bind_runtime)
    execution.inject_auth = tracer.wrap("resolver_runtime.inject_auth", execution.inject_auth)
    execution.parse_upstream_body = tracer.wrap("resolver_runtime.decode",
                                                execution.parse_upstream_body)
    execution.shape_response = tracer.wrap("resolver_runtime.shape", execution.shape_response)

    def send_extra(result, args):
        spec = args[1]
        key = json.dumps([spec.method, spec.url, spec.query, sorted(spec.headers.items()),
                          spec.body], sort_keys=True, default=str)
        return [len(result[2]), key]

    resolver_runtime.HttpClient.send = tracer.wrap(
        "resolver_runtime.send", resolver_runtime.HttpClient.send, extra=send_extra)

    class TracedPool(ThreadPoolExecutor):
        """Counts pools and carries the submitter's operation into workers."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.tally("engine.pool")

        def submit(self, fn, /, *args, **kwargs):
            context = tracer.current()

            def run():
                with tracer.adopt(context):
                    return fn(*args, **kwargs)

            return super().submit(run)

    execution.ThreadPoolExecutor = TracedPool

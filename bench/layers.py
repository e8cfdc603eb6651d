"""Per-layer metrics from the spans and counts of a traced run.

Generation values are per document, serving values per query; each metric
is the median over the operations of the run. A layer's self time is its
span's duration less the part of that interval its child layers cover.
"""

from __future__ import annotations

from statistics import median

GEN_PHASES = {
    "oas_ingest.load_ms": "oas_ingest.load",
    "oas_ingest.ingest_ms": "oas_ingest.ingest",
    "oas_ingest.validate_ms": "oas_ingest.validate",
    "preprocessing.preprocess_ms": "preprocessing.preprocess",
    "resolver_runtime.plans_ms": "resolver_runtime.plans",
    "schema_gen.assemble_ms": "schema_gen.assemble",
    "schema_gen.print_ms": "schema_gen.print",
}

EXECUTE_CHILDREN = ("resolver_runtime.bind", "resolver_runtime.inject_auth",
                    "resolver_runtime.send", "resolver_runtime.decode",
                    "resolver_runtime.shape")


def _by_op(spans: list[tuple]) -> dict[int, list[tuple]]:
    groups: dict[int, list[tuple]] = {}
    for span in spans:
        groups.setdefault(span[2], []).append(span)
    return groups


def _total(spans: list[tuple], name: str) -> float:
    return sum(s[5] - s[4] for s in spans if s[3] == name)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def generation_ops(spans: list[tuple], counts: dict, window=None) -> list[dict]:
    """Per generate() call: every generation metric of that document."""
    groups = _by_op(spans)
    ops = []
    for span in spans:
        if span[3] != "generator.generate" or span[0] != span[2]:
            continue
        if window is not None and not (window[0] <= span[4] <= window[1]):
            continue
        mine = groups[span[2]]
        values = {metric: _total(mine, name) * 1000.0 for metric, name in GEN_PHASES.items()}
        duration = (span[5] - span[4]) * 1000.0
        values["generator.self_ms"] = duration - sum(values.values())
        values["generator.generate_ms"] = duration
        values["preprocessing.deep_equal_calls"] = counts.get(
            (span[2], "preprocessing.deep_equal"), 0)
        values["preprocessing.types_created"] = sum(
            s[6] or 0 for s in mine if s[3] == "preprocessing.preprocess")
        values["schema_gen.sdl_bytes"] = sum(s[6] or 0 for s in mine
                                             if s[3] == "schema_gen.print")
        values["start"] = span[4]
        ops.append(values)
    return ops


def per_document(ops: list[dict]) -> dict[str, float]:
    """Median over documents of each generation metric."""
    if not ops:
        return {}
    keys = [k for k in ops[0] if k != "start"]
    return {k: median(op[k] for op in ops) for k in keys}


def per_pass(ops: list[dict], passes: list[tuple], files: int) -> dict[str, float]:
    """gen-corpus: the generation metrics summed over one evaluate_corpus
    pass and divided by the documents in it, median over passes; plus the
    pass time and its parallelism (generate time over pass wall time)."""
    rows = []
    for start, end in passes:
        inside = [op for op in ops if start <= op["start"] <= end]
        keys = [k for k in ops[0] if k != "start"]
        row = {k: sum(op[k] for op in inside) / files for k in keys}
        row["evaluate.pass_s"] = end - start
        row["evaluate.parallelism"] = (sum(op["generator.generate_ms"] for op in inside)
                                       / 1000.0 / (end - start))
        rows.append(row)
    return {k: median(row[k] for row in rows) for k in rows[0]}


def serving_ops(spans: list[tuple], counts: dict, client: dict[int, tuple]) -> list[dict]:
    """Per query: every serving metric. client maps each query id of the
    timed loop to (latency s, response bytes) seen by the client."""
    groups = _by_op(spans)
    ops = []
    for op_id, (latency, response_bytes) in client.items():
        mine = groups.get(op_id, [])
        handle = _total(mine, "service.handle")
        execute = _total(mine, "engine.execute")
        sends = [s for s in mine if s[3] == "resolver_runtime.send"]
        answered = [s for s in sends if s[6] is not None]  # sends that did not raise
        upstream = sum(s[5] - s[4] for s in sends)
        children = [(s[4], s[5]) for s in mine if s[3] in EXECUTE_CHILDREN]
        ops.append({
            "service.handle_ms": handle * 1000.0,
            "service.http_ms": (latency - handle) * 1000.0,
            "service.response_bytes": response_bytes,
            "engine.parse_ms": _total(mine, "engine.parse") * 1000.0,
            "engine.validate_ms": _total(mine, "engine.validate") * 1000.0,
            "engine.execute_ms": execute * 1000.0,
            "engine.complete_ms": (execute - _covered(children)) * 1000.0,
            "engine.pools_created": counts.get((op_id, "engine.pool"), 0),
            "resolver_runtime.bind_ms": (_total(mine, "resolver_runtime.bind")
                                         + _total(mine, "resolver_runtime.inject_auth")) * 1000.0,
            "resolver_runtime.upstream_calls": len(sends),
            "resolver_runtime.upstream_distinct_ratio": (
                len({s[6][1] for s in answered}) / len(answered) if answered else 0.0),
            "resolver_runtime.upstream_ms": upstream * 1000.0,
            "resolver_runtime.upstream_overlap": upstream / execute if execute else 0.0,
            "resolver_runtime.decode_ms": _total(mine, "resolver_runtime.decode") * 1000.0,
            "resolver_runtime.shape_ms": _total(mine, "resolver_runtime.shape") * 1000.0,
            "resolver_runtime.upstream_bytes": sum(s[6][0] for s in answered),
        })
    return ops


def per_query(ops: list[dict]) -> dict[str, float]:
    if not ops:
        return {}
    return {k: median(op[k] for op in ops) for k in ops[0]}

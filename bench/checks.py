"""Correctness checks made apart from the program.

Each checker returns a list of problems (empty when the outputs are right).
The expectations come from the input generators' own models, from the
fixture manifest and from graphql-core, never from a stored copy of the
program's output.
"""

from __future__ import annotations

import json

from graphql import build_schema, validate_schema

BUILTIN_SCALARS = {"String", "Int", "Float", "Boolean", "ID"}


def sdl_problems(sdl: str) -> list[str]:
    """graphql-core must build and validate the schema."""
    try:
        schema = build_schema(sdl)
    except Exception as exc:  # any parse or build failure is a finding
        return [f"graphql-core cannot build the SDL: {exc}"]
    return [f"graphql-core rejects the SDL: {err.message}" for err in validate_schema(schema)]


def named_types(sdl: str) -> set[str]:
    """Named types of an SDL other than the root and built-in ones."""
    schema = build_schema(sdl)
    return {name for name in schema.type_map
            if not name.startswith("__") and name not in BUILTIN_SCALARS
            and name not in ("Query", "Mutation")}


def check_dedup(outputs: list[dict], expected: list[dict]) -> list[str]:
    """Every gen-dedup document succeeds with no warnings, the operation
    count it was built with, and one GraphQL type per distinct structure."""
    problems = []
    for out, want in zip(outputs, expected, strict=True):
        where = out["path"]
        if out["outcome"] != "success" or out["warnings"]:
            problems.append(f"{where}: outcome {out['outcome']} warnings {out['warnings']}")
            continue
        if out["operations_total"] != want["operations"]:
            problems.append(f"{where}: {out['operations_total']} operations, "
                            f"built {want['operations']}")
        invalid = sdl_problems(out["sdl"])
        problems += [f"{where}: {p}" for p in invalid]
        if not invalid:
            types = len(named_types(out["sdl"]))
            if types != want["types"]:
                problems.append(f"{where}: {types} GraphQL types for "
                                f"{want['types']} distinct structures")
    return problems


def check_corpus(outputs: list[dict], manifest: dict, synthetic_ops: dict[str, int]) -> list[str]:
    """Fixture outcomes and warning counts match the manifest; synthetic
    documents succeed with no warnings and their built operation count;
    strict succeeds exactly when non-strict succeeds with zero warnings;
    every SDL passes graphql-core."""
    problems = []
    names = {out["file"]["name"] for out in outputs}
    want_names = set(manifest["files"]) | set(synthetic_ops)
    if names != want_names:
        problems.append(f"corpus files {sorted(names ^ want_names)} missing or unexpected")
    for out in outputs:
        entry = out["file"]
        name = entry["name"]
        warnings = entry["warnings"]
        if name in synthetic_ops:
            if entry["outcome"] != "success" or warnings:
                problems.append(f"{name}: outcome {entry['outcome']} warnings {warnings}")
            if out["operations_total"] != synthetic_ops[name]:
                problems.append(f"{name}: {out['operations_total']} operations, "
                                f"built {synthetic_ops[name]}")
        elif name in manifest["files"]:
            want = manifest["files"][name]
            if entry["outcome"] != want["outcome"]:
                problems.append(f"{name}: outcome {entry['outcome']}, manifest {want['outcome']}")
            if want["outcome"] == "error" and entry["error_kind"] != want["error_kind"]:
                problems.append(f"{name}: error {entry['error_kind']}, "
                                f"manifest {want['error_kind']}")
            if want["outcome"] == "success" and warnings != want["warnings"]:
                problems.append(f"{name}: warnings {warnings}, manifest {want['warnings']}")
        clean = entry["outcome"] == "success" and not warnings
        if (entry["strict_outcome"] == "success") != clean:
            problems.append(f"{name}: strict {entry['strict_outcome']} but non-strict "
                            f"{entry['outcome']} with warnings {warnings}")
        if out["outcome"] == "success":
            problems += [f"{name}: {p}" for p in sdl_problems(out["sdl"])]
    return problems


def response_problems(body: bytes, expected: dict) -> list[str]:
    """A served response must equal the expected projection, with no errors."""
    try:
        payload = json.loads(body)
    except ValueError:
        return [f"response is not JSON: {body[:120]!r}"]
    if payload != expected:
        return [f"response differs from the projection: {json.dumps(payload)[:300]}"]
    return []


def check_mutation_posts(posts: list[dict], sent: list[dict]) -> list[str]:
    """Each mutation field reaches the stub as exactly one POST, in alias
    order, with the raw payload keys and values.

    sent lists, per mutation query, its id and the raw payloads in alias
    order; the order is checked within each query.
    """
    problems = []
    by_query: dict[str, list[dict]] = {}
    for post in posts:
        ref = str(post["body"].get("ref_code", ""))
        by_query.setdefault(ref.split("-m")[0], []).append(post["body"])
    want_ids = {f"q{m['id']}" for m in sent}
    unexpected = set(by_query) - want_ids
    if unexpected:
        problems.append(f"POSTs for no sent mutation: {sorted(unexpected)[:5]}")
    for mutation in sent:
        got = by_query.get(f"q{mutation['id']}", [])
        if got != mutation["payloads"]:
            problems.append(f"mutation q{mutation['id']}: stub received {got}, "
                            f"sent {mutation['payloads']}")
    return problems

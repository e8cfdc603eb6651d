"""Acceptance criteria, one test per criterion, each printing a PASS line at
its stated tolerance. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, MockUpstream, intermediates, load_manifest, schema_from_sdl
from oaswrap.engine import Executor, parse_query, validate_query
from oaswrap.evaluate import evaluate_corpus
from oaswrap.generator import GenerationOptions, generate
from oaswrap.ir import NON_NULL, to_raw
from oaswrap.oas_ingest import normalize
from oaswrap.preprocessing import OUTPUT, deep_equal, preprocess
from oaswrap.report import Report
from oaswrap.resolver_runtime import HttpClient
from oaswrap.schema_gen import print_sdl

NAME_RE = re.compile(r"^[_A-Za-z][_0-9A-Za-z]*$")


def passed(number: int, title: str) -> None:
    print(f"\n[ACCEPTANCE {number}] {title}: PASS")


def all_fixture_wrappers():
    manifest = load_manifest()["files"]
    for name in sorted(manifest):
        yield name, manifest[name], generate(CORPUS_DIR / name)


# -- 1: fixture-corpus taxonomy exactness --------------------------------------------


def test_criterion_1_corpus_taxonomy_exact():
    manifest = load_manifest()["files"]
    started = time.monotonic()
    stats = evaluate_corpus(CORPUS_DIR)
    elapsed = time.monotonic() - started

    expected_successes = sum(1 for s in manifest.values() if s["outcome"] == "success")
    expected_errors: dict[str, int] = {}
    expected_warnings: dict[str, int] = {}
    for spec in manifest.values():
        if spec["outcome"] == "error":
            expected_errors[spec["error_kind"]] = (
                expected_errors.get(spec["error_kind"], 0) + 1)
        else:
            for kind, count in spec.get("warnings", {}).items():
                expected_warnings[kind] = expected_warnings.get(kind, 0) + count

    assert stats.total == len(manifest)
    assert stats.successes == expected_successes
    assert stats.errors_by_kind == expected_errors
    assert stats.warnings_by_kind == expected_warnings
    # per-file exactness, not just aggregate
    for result in stats.files:
        spec = manifest[result.name]
        assert result.outcome == spec["outcome"], result.name
        if spec["outcome"] == "error":
            assert result.error_kind == spec["error_kind"], result.name
        else:
            assert result.warnings == spec.get("warnings", {}), result.name
    # every error kind and every warning kind is exercised by some fixture
    assert set(expected_errors) == {"InvalidOas", "SanitationError", "MissingRef"}
    assert set(expected_warnings) == {
        "MissingResponseSchema", "MultipleResponses", "InvalidSchemaType",
        "UnknownSchemaType", "UnsupportedFeature",
    }
    assert elapsed < 10.0, f"corpus evaluation took {elapsed:.1f}s"
    passed(1, f"fixture-corpus taxonomy exact over {stats.total} files "
              f"in {elapsed:.2f}s")


# -- 2: strict/non-strict coherence ----------------------------------------------------


def test_criterion_2_strict_coherence():
    counterexamples = []
    for name in sorted(load_manifest()["files"]):
        non_strict = generate(CORPUS_DIR / name)
        strict = generate(CORPUS_DIR / name, GenerationOptions(strict=True))
        lhs = strict.report.outcome == "success"
        rhs = (non_strict.report.outcome == "success"
               and len(non_strict.report.warnings) == 0)
        if lhs != rhs:
            counterexamples.append(name)
    assert counterexamples == []
    passed(2, "strict success <=> non-strict success with zero warnings, "
              "zero counterexamples")


# -- 3: link composition end to end -----------------------------------------------------


def test_criterion_3_link_composition_two_requests():
    upstream = MockUpstream().start()
    try:
        upstream.static("GET", "/user/{id}",
                        {"id": "erik", "name": "Erik", "employerId": "ibm"})
        upstream.static("GET", "/company/{companyName}",
                        {"companyName": "International Business Machines"})
        root = {
            "openapi": "3.0.0",
            "info": {"title": "Linked", "version": "1"},
            "servers": [{"url": upstream.base_url}],
            "paths": {
                "/user/{id}": {"get": {
                    "operationId": "getUserById",
                    "parameters": [{"name": "id", "in": "path", "required": True,
                                    "schema": {"type": "string"}}],
                    "responses": {"200": {
                        "description": "ok",
                        "content": {"application/json": {"schema": {
                            "$ref": "#/components/schemas/User"}}},
                        "links": {"EmployerCompany": {
                            "operationId": "getCompanyById",
                            "parameters": {"companyName": "$response.body#/employerId"},
                        }},
                    }},
                }},
                "/company/{companyName}": {"get": {
                    "operationId": "getCompanyById",
                    "parameters": [{"name": "companyName", "in": "path", "required": True,
                                    "schema": {"type": "string"}}],
                    "responses": {"200": {"description": "ok", "content": {
                        "application/json": {"schema": {
                            "$ref": "#/components/schemas/Company"}}}}},
                }},
            },
            "components": {"schemas": {
                "User": {"type": "object", "properties": {
                    "id": {"type": "string"}, "name": {"type": "string"},
                    "employerId": {"type": "string"}}},
                "Company": {"type": "object", "properties": {
                    "companyName": {"type": "string"}}},
            }},
        }
        wrapper = generate(json.dumps(root).encode())
        assert wrapper.ok
        query = '{ user(id: "erik") { name employerCompany { companyName } } }'
        doc = parse_query(query)
        assert validate_query(doc, wrapper.schema) == []
        executor = Executor(wrapper.schema, wrapper.plans, HttpClient(timeout=5))
        result = executor.execute(doc, None, None)
        assert result.errors == []
        assert result.data == {"user": {
            "name": "Erik",
            "employerCompany": {"companyName": "International Business Machines"},
        }}
        assert upstream.paths_seen == ["/user/erik", "/company/ibm"]
    finally:
        upstream.stop()
    passed(3, "nested link query resolved with exactly 2 upstream requests "
              "in dependency order")


# -- 4: identify -> translate chained use case ---------------------------------------------


def test_criterion_4_identify_translate_chain():
    upstream = MockUpstream().start()
    try:
        def identify(request, params):
            assert request.query.get("text") == "hello world"
            return {"languages": [
                {"language": "en", "confidence": 0.98},
                {"language": "de", "confidence": 0.02},
            ]}

        def translate(request, params):
            if (request.query.get("text") == "hello world"
                    and request.query.get("source") == "en"
                    and request.query.get("target") == "es"):
                return {"translation": "hola mundo"}
            return 400, {"error": f"bad parameters: {request.query}"}

        upstream.route("POST", "/identify", identify)
        upstream.route("POST", "/translate", translate)

        def post_op(op_id, params, schema, links=None):
            response = {"description": "ok",
                        "content": {"application/json": {"schema": schema}}}
            if links:
                response["links"] = links
            return {"post": {
                "operationId": op_id,
                "security": [{"basicAuth": []}],
                "parameters": [{"name": p, "in": "query", "required": True,
                                "schema": {"type": "string"}} for p in params],
                "responses": {"200": response},
            }}

        root = {
            "openapi": "3.0.0",
            "info": {"title": "Translator", "version": "2.0"},
            "servers": [{"url": upstream.base_url}],
            "paths": {
                "/identify": post_op(
                    "identifyLanguage", ["text"],
                    {"type": "object", "properties": {"languages": {
                        "type": "array", "items": {"type": "object", "properties": {
                            "language": {"type": "string"},
                            "confidence": {"type": "number"},
                        }}}}},
                    links={"Translate": {
                        "operationId": "translateText",
                        "parameters": {
                            "source": "$response.body#/languages/0/language",
                        },
                    }},
                ),
                "/translate": post_op(
                    "translateText", ["text", "source", "target"],
                    {"type": "object",
                     "properties": {"translation": {"type": "string"}}},
                ),
            },
            "components": {"securitySchemes": {
                "basicAuth": {"type": "http", "scheme": "basic"}}},
        }
        wrapper = generate(json.dumps(root).encode())
        assert wrapper.ok, wrapper.report.error_message
        query = """
        mutation {
          mutationViewerBasicAuth(username: "erik", password: "secret") {
            postIdentify(text: "hello world") {
              languages { language }
              translate(target: "es") { translation }
            }
          }
        }
        """
        doc = parse_query(query)
        assert validate_query(doc, wrapper.schema) == [], \
            validate_query(doc, wrapper.schema)
        executor = Executor(wrapper.schema, wrapper.plans, HttpClient(timeout=5))
        result = executor.execute(doc, None, None)
        assert result.errors == []
        viewer_data = result.data["mutationViewerBasicAuth"]
        assert viewer_data["postIdentify"]["languages"][0]["language"] == "en"
        assert viewer_data["postIdentify"]["translate"] == {"translation": "hola mundo"}
        # exactly two chained POSTs, both carrying basic credentials
        assert [r.path for r in upstream.requests] == ["/identify", "/translate"]
        for request in upstream.requests:
            assert request.method == "POST"
            assert request.headers.get("Authorization", "").startswith("Basic ")
    finally:
        upstream.stop()
    passed(4, "identified language fed translate's source through the link; "
              "exact translation value via two authenticated POSTs")


# -- 5: sanitation round-trip property ---------------------------------------------------


raw_key = st.text(
    alphabet=st.sampled_from(list("abcXYZ012_-$./~é ")), min_size=1, max_size=10
).filter(lambda s: any(c.isalnum() and c.isascii() for c in s))

json_tree = st.recursive(
    st.one_of(st.integers(), st.text(max_size=6), st.booleans(), st.none()),
    lambda child: st.one_of(
        st.lists(child, max_size=3),
        st.dictionaries(raw_key, child, max_size=4),
    ),
    max_leaves=12,
)


def _rename_keys(value, names):
    if isinstance(value, dict):
        return {names[k]: _rename_keys(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [_rename_keys(v, names) for v in value]
    return value


def _walk_keys(value, found):
    if isinstance(value, dict):
        for key, child in value.items():
            found.add(key)
            _walk_keys(child, found)
    elif isinstance(value, list):
        for child in value:
            _walk_keys(child, found)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(json_tree)
def test_criterion_5_sanitation_round_trip(tree):
    # Every key of the tree is a property of one input schema T whose
    # properties all refer to T again, so preprocessing names every key as a
    # field of TInput and the payload de-sanitizer walks the whole tree
    # through TInput's fields. "q" lies outside the key alphabet: it keeps T
    # an object when the tree has no keys, and names no tree key.
    keys: set[str] = set()
    _walk_keys(tree, keys)
    ref = {"$ref": "#/components/schemas/T"}
    ok = {"200": {"description": "ok", "content": {"application/json": {
        "schema": {"type": "string"}}}}}
    root = {"openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "paths": {"/t": {"post": {"responses": ok, "requestBody": {
                "content": {"application/json": {"schema": ref}}}}}},
            "components": {"schemas": {"T": {"type": "object", "properties": {
                key: ref for key in [*keys, "q"]}}}}}
    types = preprocess(normalize(root, Report(source="<test>")),
                       Report(source="<test>")).dictionary.types
    names = {f.raw: f.name for f in types["TInput"].fields.values()}
    for key in keys:
        assert NAME_RE.match(names[key])
    sanitized = _rename_keys(tree, names)
    restored = to_raw(types, "TInput", sanitized)
    assert restored == tree

    emitted: set[str] = set()
    _walk_keys(sanitized, emitted)
    for key in emitted:
        assert NAME_RE.match(key)


def test_criterion_5_report_line():
    passed(5, "sanitize/desanitize identity and grammar-legal names over "
              "1000 randomized trees")


# -- 6: de-duplication oracle ------------------------------------------------------------


def test_criterion_6_dedup_oracle():
    for name, spec, wrapper in all_fixture_wrappers():
        if not wrapper.ok:
            continue
        doc, pre = intermediates(CORPUS_DIR / name)
        for direction in ("input", "output"):
            entries = [e for e in pre.dictionary.entries.values()
                       if e.direction == direction]
            for i, a in enumerate(entries):
                for b in entries[i + 1:]:
                    assert not deep_equal(a.schema, b.schema, doc), \
                        f"{name}: duplicate entries {a.name} / {b.name}"
    collapsed = generate(CORPUS_DIR / "clean_dedup_inline.json")
    _, pre = intermediates(CORPUS_DIR / "clean_dedup_inline.json")
    outputs = [e for e in pre.dictionary.entries.values() if e.direction == OUTPUT]
    assert len(outputs) == 1
    assert len(collapsed.plans) == 3  # three operations share the single type
    passed(6, "pairwise deep-equality found no duplicates; 3-way inline "
              "duplicate collapsed to one type")


# -- 7: GET/mutation partition and NonNull soundness ----------------------------------------


def _operation_fields(schema, side):
    """(plan_key, field) pairs reachable on one root side, viewers included."""
    fields = schema.query_fields if side == "query" else schema.mutation_fields
    out = []
    for field in fields.values():
        if field.binding and field.binding.kind == "operation":
            out.append(field)
        elif field.binding and field.binding.kind == "viewer":
            viewer_type = schema.types[field.type.unwrap().name]
            out.extend(f for f in viewer_type.fields.values()
                       if f.binding and f.binding.kind == "operation")
    return out


def test_criterion_7_partition_and_nonnull():
    for name, spec, wrapper in all_fixture_wrappers():
        if not wrapper.ok:
            continue
        schema = wrapper.schema
        doc, pre = intermediates(CORPUS_DIR / name)
        # GET <=> query (counting each operation once even when viewer-wrapped)
        query_ops = {f.binding.plan_key for f in _operation_fields(schema, "query")}
        mutation_ops = {f.binding.plan_key for f in _operation_fields(schema, "mutation")}
        get_ops = {k for k, p in wrapper.plans.items() if p.method == "GET"}
        non_get_ops = {k for k, p in wrapper.plans.items() if p.method != "GET"}
        link_only = set()  # link bindings never add root fields
        assert query_ops == get_ops - link_only, name
        assert mutation_ops == non_get_ops, name

        # NonNull <=> required over every entry-derived type
        for entry in pre.dictionary.entries.values():
            type_ir = schema.types.get(entry.name)
            if type_ir is None or type_ir.fields is None:
                continue
            by_raw = {f.raw: f for f in type_ir.fields.values()}
            for raw_key, child in entry.schema.properties.items():
                field = by_raw[raw_key]
                should = raw_key in entry.schema.required
                is_non_null = field.type.kind == NON_NULL
                assert is_non_null == should, (name, entry.name, raw_key)

        # NonNull <=> required over operation arguments, as the document declares it
        operations = {op.key: op for op in doc.operations}
        fields = {f.binding.plan_key: f for side in ("query", "mutation")
                  for f in _operation_fields(schema, side)}
        for key in wrapper.plans:
            op, field = operations[key], fields.get(key)
            assert field is not None, (name, key)
            required = {(p.name, p.location): p.required for p in op.parameters}
            assert len(field.args) == len(required) + (op.request_body is not None), (name, key)
            for arg in field.args.values():
                should = (op.request_body.required if arg.location == "body"
                          else required[arg.raw, arg.location])
                assert (arg.type.kind == NON_NULL) == should, (name, key, arg.name)
    passed(7, "query fields <=> GET operations and NonNull <=> required "
              "on every fixture")


# -- 8: SDL round trip ------------------------------------------------------------------


def test_criterion_8_sdl_round_trip():
    checked = 0
    for name, spec, wrapper in all_fixture_wrappers():
        if not wrapper.ok:
            continue
        first = wrapper.sdl
        second = print_sdl(schema_from_sdl(first))
        assert first == second, f"{name}: SDL round trip not a fixed point"
        checked += 1
    assert checked >= 15
    passed(8, f"print -> parse -> print byte-identical on {checked} fixtures")


# -- 9: paper-scale corpus (optional, not CI-gating) ----------------------------------------


@pytest.mark.skipif("OASWRAP_CORPUS_DIR" not in os.environ,
                    reason="paper-scale corpus not supplied "
                           "(set OASWRAP_CORPUS_DIR to run)")
def test_criterion_9_paper_scale_corpus():
    stats = evaluate_corpus(os.environ["OASWRAP_CORPUS_DIR"], strict_also=True)
    success_rate = stats.successes / stats.total
    strict_rate = (stats.strict_successes or 0) / stats.total
    assert success_rate >= 0.85
    assert strict_rate < success_rate
    passed(9, f"non-strict success {success_rate:.1%}, strict {strict_rate:.1%} "
              f"over {stats.total} documents")

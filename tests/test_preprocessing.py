"""Sanitation, the raw/sanitized mapping, deep equality, and the types
dictionary (naming and de-duplication)."""

import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CannedClient
from oaswrap import preprocessing
from oaswrap.errors import SanitationError
from oaswrap.engine import Executor, parse_query
from oaswrap.generator import generate
from oaswrap.oas_ingest import load_document, normalize, parse_schema
from oaswrap.preprocessing import (
    INPUT,
    OUTPUT,
    NameTables,
    SanitationMap,
    TypesDictionary,
    canonical_name,
    deep_equal,
    preprocess,
    sanitize,
    sanitize_enum_value,
    structure_key,
)
from oaswrap.report import Report
from oaswrap.resolver_runtime import ExecutionContext
from oaswrap.schema_gen import INPUT_OBJECT, FieldIR, TypeIR, reference

NAME_RE = re.compile(r"^[_A-Za-z][_0-9A-Za-z]*$")


def make_doc(paths, components=None, report=None):
    root = {
        "openapi": "3.0.0",
        "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://x.example.com"}],
        "paths": paths,
    }
    if components:
        root["components"] = components
    return normalize(root, "<test>", report or Report(source="<test>"))


def get_op(schema, parameters=None):
    """Path item with a single GET operation returning the given schema."""
    op = {"responses": {"200": {"description": "ok", "content": {
        "application/json": {"schema": schema}}}}}
    if parameters:
        op["parameters"] = parameters
    return {"get": op}


# -- sanitize ---------------------------------------------------------------------


def test_sanitize_identity_on_legal_name():
    assert sanitize("user") == "user"


def test_sanitize_strips_leading_symbol_without_upcasing():
    # The de-sanitation example in the resolver contract depends on "$id"
    # mapping to "id", not "Id".
    assert sanitize("$id") == "id"


def test_sanitize_camel_cases_after_separator():
    assert sanitize("user-name") == "userName"


def test_sanitize_camel_treats_underscore_as_separator():
    assert sanitize("user_name") == "userName"


def test_sanitize_preserve_keeps_underscores():
    assert sanitize("user_name", casing="preserve") == "user_name"
    assert sanitize("user-name", casing="preserve") == "username"


def test_sanitize_digit_start_gets_underscore():
    assert sanitize("1st") == "_1st"


def test_sanitize_empty_result_raises():
    with pytest.raises(SanitationError):
        sanitize("$$$")


def test_sanitize_boolean_enum_value_raises():
    with pytest.raises(SanitationError):
        sanitize_enum_value(True)
    with pytest.raises(SanitationError):
        sanitize_enum_value(False)


def test_sanitize_enum_value_reserved_words_raise():
    with pytest.raises(SanitationError):
        sanitize_enum_value("true")
    with pytest.raises(SanitationError):
        sanitize_enum_value("null")


def test_sanitize_enum_value_plain():
    assert sanitize_enum_value("asc") == "asc"
    assert sanitize_enum_value("en-US") == "enUS"


# -- SanitationMap.register -------------------------------------------------------


def test_register_mapping_suffixes_on_collision():
    sanmap = SanitationMap()
    assert sanmap.register("s", "user-name", sanitize("user-name")) == "userName"
    assert sanmap.register("s", "user_name", sanitize("user_name")) == "userName2"


def test_register_mapping_idempotent():
    sanmap = SanitationMap()
    first = sanmap.register("s", "user-name", "userName")
    again = sanmap.register("s", "user-name", "userName")
    assert first == again == "userName"
    assert len(sanmap.scope("s").forward) == 1


def test_register_mapping_fresh_scope_no_collision():
    sanmap = SanitationMap()
    assert sanmap.register("s", "id", "id") == "id"


def test_register_mapping_injective_per_scope():
    sanmap = SanitationMap()
    finals = [sanmap.register("s", raw, sanitize(raw))
              for raw in ("a-b", "a_b", "aB", "ab")]
    assert len(set(finals)) == len(finals)


# -- name tables: payloads de-sanitize, completion reads raw keys ------------------------


def recursive_input(raws):
    """Name tables for one input type T whose fields, one per raw key, are
    all of type T again; returns the tables and raw -> sanitized names."""
    sanmap = SanitationMap()
    names = {raw: sanmap.register("type:T", raw, sanitize(raw)) for raw in raws}
    fields = {name: FieldIR(name, reference("T")) for name in names.values()}
    tables = NameTables({"T": TypeIR(INPUT_OBJECT, name="T", fields=fields)}, sanmap)
    return tables, names


def rename_keys(value, names):
    """Apply a raw -> sanitized key mapping to a whole tree."""
    if isinstance(value, dict):
        return {names[k]: rename_keys(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [rename_keys(v, names) for v in value]
    return value


def serve_raw(schema, body, query):
    """Complete one query against a GET /t returning the schema, whose
    upstream answers body."""
    root = {"openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://x.example.com"}], "paths": {"/t": get_op(schema)}}
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok, wrapper.report.error_message
    executor = Executor(wrapper.schema, wrapper.plans, wrapper.pre.sanmap, CannedClient(body))
    return executor.execute(parse_query(query), None, None, ExecutionContext())


def test_desanitize_tree_paper_example():
    tables, _ = recursive_input(["$id"])
    assert tables.to_raw("T", {"id": 1}) == {"$id": 1}


def test_sanitize_tree_recurses_into_arrays():
    schema = {"type": "object", "properties": {"a": {"type": "array", "items": {
        "type": "object", "properties": {"x-y": {"type": "integer"}}}}}}
    result = serve_raw(schema, {"a": [{"x-y": 3}, {"x-y": 4}]}, "{ getT { a { xY } } }")
    assert result.errors == []
    assert result.data == {"getT": {"a": [{"xY": 3}, {"xY": 4}]}}
    tables, _ = recursive_input(["a", "x-y"])
    assert tables.to_raw("T", {"a": [{"xY": 3}]}) == {"a": [{"x-y": 3}]}


def test_sanitize_tree_scalar_passthrough():
    tables, _ = recursive_input(["a"])
    assert tables.to_raw("T", 42) == 42
    assert tables.to_raw("T", "x") == "x"


def test_sanitize_tree_drops_unmapped_keys(caplog):
    schema = {"type": "object", "properties": {"known": {"type": "integer"}}}
    with caplog.at_level(logging.DEBUG, logger="oaswrap.engine"):
        result = serve_raw(schema, {"known": 1, "mystery": 2}, "{ getT { known } }")
    assert result.data == {"getT": {"known": 1}}
    dropped = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
    assert dropped == ["dropped 1 unexpected upstream key(s) of type getT: ['mystery']"]


def test_desanitize_tree_passes_unmapped_keys_through():
    tables, _ = recursive_input(["known"])
    assert tables.to_raw("T", {"other": 5}) == {"other": 5}


raw_keys = st.text(
    alphabet=st.sampled_from(list("abcXYZ012_-$./~ ")), min_size=1, max_size=12
).filter(lambda s: any(c.isalnum() for c in s))


@settings(max_examples=300)
@given(st.lists(raw_keys, min_size=1, max_size=8, unique=True))
def test_round_trip_property(keys):
    tables, names = recursive_input(keys)
    value = {raw: i for i, raw in enumerate(keys)}
    sanitized = rename_keys(value, names)
    assert all(NAME_RE.match(k) for k in sanitized)
    assert tables.to_raw("T", sanitized) == value


# -- deep_equal -----------------------------------------------------------------------


def schema_of(node):
    return parse_schema(node, "#/t")


def canonical_form(node):
    """Independent canonicalization oracle for order-insensitivity checks."""
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if key == "properties":
            out[key] = {k: canonical_form(v) for k, v in sorted(value.items())}
        elif key in ("required", "enum"):
            out[key] = sorted(value, key=json.dumps)
        elif key in ("title", "description"):
            continue
        else:
            out[key] = canonical_form(value)
    return out


def test_deep_equal_property_order_insensitive():
    a = schema_of({"type": "object", "properties": {"a": {"type": "string"},
                                                    "b": {"type": "integer"}}})
    b = schema_of({"type": "object", "properties": {"b": {"type": "integer"},
                                                    "a": {"type": "string"}}})
    assert deep_equal(a, b)


def test_deep_equal_enum_as_set():
    x = {"type": "string", "enum": ["x", "y"]}
    y = {"type": "string", "enum": ["y", "x"]}
    assert canonical_form(x) == canonical_form(y)
    assert deep_equal(schema_of(x), schema_of(y))


def test_deep_equal_structural_difference():
    a = schema_of({"type": "object", "properties": {"a": {"type": "string"}}})
    b = schema_of({"type": "object", "properties": {"a": {"type": "string"},
                                                    "c": {"type": "boolean"}}})
    assert not deep_equal(a, b)


def test_deep_equal_ignores_title_and_description():
    a = schema_of({"type": "object", "title": "One", "description": "first",
                   "properties": {"a": {"type": "string"}}})
    b = schema_of({"type": "object", "title": "Two", "description": "second",
                   "properties": {"a": {"type": "string"}}})
    assert deep_equal(a, b)


def test_deep_equal_required_as_set():
    a = schema_of({"type": "object", "required": ["a", "b"],
                   "properties": {"a": {"type": "string"}, "b": {"type": "string"}}})
    b = schema_of({"type": "object", "required": ["b", "a"],
                   "properties": {"b": {"type": "string"}, "a": {"type": "string"}}})
    assert deep_equal(a, b)


def test_deep_equal_distinguishes_nested_allof_members():
    a = schema_of({"type": "object", "properties": {"p": {"allOf": [
        {"type": "object", "properties": {"x": {"type": "string"}}}]}}})
    b = schema_of({"type": "object", "properties": {"p": {"allOf": [
        {"type": "object", "properties": {"x": {"type": "integer"}}}]}}})
    assert not deep_equal(a, b)
    same = schema_of({"type": "object", "properties": {"p": {"allOf": [
        {"type": "object", "properties": {"x": {"type": "string"}}}]}}})
    assert deep_equal(a, same)


def test_deep_equal_cyclic_schemas():
    doc = make_doc(
        {"/n": get_op({"$ref": "#/components/schemas/Node"})},
        components={"schemas": {"Node": {
            "type": "object",
            "properties": {"next": {"$ref": "#/components/schemas/Node"}},
        }}},
    )
    node = doc.resolve_ref("#/components/schemas/Node")
    assert deep_equal(node, node, doc)


# -- structure_key ----------------------------------------------------------------------

SELF = "<self>"  # marks where a generated schema refers back to its own component

_leaf_schemas = st.one_of(
    st.sampled_from(["string", "integer", "number", "boolean"]).map(lambda t: {"type": t}),
    st.lists(st.sampled_from(["red", "blue", "x-y", "7"]), min_size=1, max_size=4)
    .map(lambda values: {"type": "string", "enum": values}),
    st.just(SELF),
)


def _composite_schemas(children):
    objects = st.dictionaries(st.sampled_from("abcde"), children, min_size=1, max_size=4).flatmap(
        lambda props: st.lists(st.sampled_from(sorted(props)), max_size=3).map(
            lambda required: {"type": "object", "properties": props, "required": required}))
    arrays = children.map(lambda item: {"type": "array", "items": item})
    all_of = st.lists(objects, min_size=1, max_size=2).map(lambda members: {"allOf": members})
    return st.one_of(objects, arrays, all_of)


# Roots are objects, so a component never is just a reference to itself.
_schema_trees = _composite_schemas(st.recursive(_leaf_schemas, _composite_schemas, max_leaves=8))


def _fill(tree, self_schema):
    """The tree with every SELF marker replaced by self_schema."""
    if tree == SELF:
        return self_schema
    if isinstance(tree, list):
        return [_fill(item, self_schema) for item in tree]
    if isinstance(tree, dict):
        return {key: _fill(value, self_schema) for key, value in tree.items()}
    return tree


def _vary(tree, rnd):
    """A deep_equal variant: property order, required and enum order and
    repeats, and titles all changed at random."""
    if isinstance(tree, list):
        return [_vary(item, rnd) for item in tree]
    if not isinstance(tree, dict) or "$ref" in tree:
        return tree
    out = {}
    for key, value in tree.items():
        if key == "properties":
            keys = list(value)
            rnd.shuffle(keys)
            out[key] = {k: _vary(value[k], rnd) for k in keys}
        elif key in ("required", "enum"):
            values = list(value) + rnd.sample(value, min(len(value), rnd.randint(0, 2)))
            rnd.shuffle(values)
            out[key] = values
        else:
            out[key] = _vary(value, rnd)
    out["title"] = f"T{rnd.randint(0, 9)}"
    return out


def _ref(name):
    return {"$ref": f"#/components/schemas/{name}"}


@given(tree=_schema_trees, other=_schema_trees, rnd=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_deep_equal_implies_equal_structure_keys(tree, other, rnd):
    # A refers to itself; B and C refer to each other; D unrolls the cycle
    # once inline: all four are bisimilar, so deep_equal holds between them.
    components = {
        "A": _vary(_fill(tree, _ref("A")), rnd),
        "B": _vary(_fill(tree, _ref("C")), rnd),
        "C": _vary(_fill(tree, _ref("B")), rnd),
        "D": _vary(_fill(tree, _fill(tree, _ref("D"))), rnd),
        "E": _fill(other, _ref("E")),
    }
    doc = make_doc({}, components={"schemas": components})
    nodes = [doc.resolve_ref(f"#/components/schemas/{name}") for name in components]
    memo: dict = {}
    keys = [structure_key(node, doc, memo) for node in nodes]
    for node, key in zip(nodes[1:4], keys[1:4]):
        assert deep_equal(nodes[0], node, doc)
        assert key == keys[0]
    if deep_equal(nodes[0], nodes[4], doc):
        assert keys[4] == keys[0]


def test_structure_key_tells_apart_schemas_differing_below_the_top():
    doc = make_doc({}, components={"schemas": {
        name: {"type": "object", "properties": {"detail": {"type": "object", "properties": {
            "kind": {"type": "string", "enum": values}}}}}
        for name, values in (("A", ["x", "y"]), ("B", ["x", "z"]))}})
    a, b = (doc.resolve_ref(f"#/components/schemas/{n}") for n in "AB")
    assert structure_key(a, doc, {}) != structure_key(b, doc, {})


def _same_top_level_keys_doc(n):
    """n component schemas with equal top-level keys and one shared enum,
    differing only in an enum two levels down."""
    components, paths = {}, {}
    for i in range(n):
        components[f"S{i}"] = {"type": "object", "properties": {
            "a_id": {"type": "integer"},
            "b_name": {"type": "string"},
            "state": {"type": "string", "enum": ["on", "off"]},
            "detail": {"type": "object", "properties": {
                "kind": {"type": "string", "enum": [f"k{i}a", f"k{i}b"]},
                "level": {"type": "integer"}}},
        }}
        paths[f"/s{i}"] = get_op(_ref(f"S{i}"))
    return make_doc(paths, {"schemas": components})


def test_dedup_calls_deep_equal_less_than_once_per_schema(monkeypatch):
    n = 400
    calls = []
    counted = preprocessing.deep_equal

    def counting(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(preprocessing, "deep_equal", counting)
    pre = preprocess(_same_top_level_keys_doc(n), Report(source="<test>"))
    assert len(calls) < n
    expected = []
    for i in range(n):
        suffix = str(i + 1) if i else ""
        expected += [f"S{i}", f"Detail{suffix}", f"Kind{suffix}"] + (["State"] if i == 0 else [])
    assert list(pre.dictionary.entries) == expected


def test_repeated_enum_values_dedup_as_a_set():
    from graphql import build_schema

    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://x.example.com"}],
        "paths": {"/a": get_op({"type": "string", "enum": ["red", "red", "blue"]}),
                  "/b": get_op({"type": "string", "enum": ["blue", "red"]})},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok, wrapper.report.error_message
    enums = [e.name for e in wrapper.pre.dictionary.entries_for(OUTPUT) if e.schema.enum]
    assert enums == ["getA"]
    assert wrapper.schema.types["getA"].enum_values == ["red", "blue"]
    build_schema(wrapper.sdl)


# -- canonical_name ---------------------------------------------------------------


def test_canonical_name_from_component_ref():
    dictionary = TypesDictionary()
    schema = schema_of({"type": "object", "properties": {"id": {"type": "string"}}})
    name, origin = canonical_name(schema, "User", None, None, dictionary)
    assert name == "User"
    assert origin.kind == "component_ref"


def test_canonical_name_operation_fallback():
    dictionary = TypesDictionary()
    doc = make_doc({"/users/{id}": {"get": {
        "parameters": [{"name": "id", "in": "path", "required": True,
                        "schema": {"type": "string"}}],
        "responses": {"200": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"n": {"type": "string"}}}}}}},
    }}})
    op = doc.operations[0]
    schema = op.responses["200"].schema
    name, origin = canonical_name(schema, None, op, None, dictionary)
    # Rule 3 plus camel sanitation over "get/users/{id}".
    assert name == "getUsersId"
    assert origin.kind == "operation"


def test_canonical_name_property_key_fallback():
    dictionary = TypesDictionary()
    schema = schema_of({"type": "object", "properties": {"city": {"type": "string"}}})
    name, origin = canonical_name(schema, None, None, "address", dictionary)
    assert name == "Address"
    assert origin.kind == "property_key"


def test_canonical_name_title_collision_falls_through():
    dictionary = TypesDictionary()
    dictionary.take_name("Widget")
    schema = schema_of({"type": "object", "title": "Widget",
                        "properties": {"a": {"type": "string"}}})
    name, origin = canonical_name(schema, None, None, "fallbackKey", dictionary)
    assert name == "FallbackKey"


def test_canonical_name_suffix_past_last_rule():
    dictionary = TypesDictionary()
    dictionary.take_name("Address")
    schema = schema_of({"type": "object", "properties": {"a": {"type": "string"}}})
    name, origin = canonical_name(schema, None, None, "address", dictionary)
    assert name == "Address2"
    assert origin.suffixed


# -- build_types_dictionary ----------------------------------------------------------


def test_shared_ref_yields_single_output_entry():
    doc = make_doc(
        {
            "/a": get_op({"$ref": "#/components/schemas/User"}),
            "/b": get_op({"$ref": "#/components/schemas/User"}),
        },
        components={"schemas": {"User": {"type": "object", "properties": {
            "id": {"type": "string"}}}}},
    )
    pre = preprocess(doc, Report(source="<test>"))
    outputs = pre.dictionary.entries_for(OUTPUT)
    assert [e.name for e in outputs] == ["User"]


def test_empty_document_empty_dictionary():
    doc = make_doc({})
    pre = preprocess(doc, Report(source="<test>"))
    assert pre.dictionary.entries == {}


def test_structurally_identical_inline_schemas_deduplicate():
    inline = {"type": "object", "properties": {"x": {"type": "number"}}}
    doc = make_doc({
        "/p1": get_op(json.loads(json.dumps(inline))),
        "/p2": get_op(json.loads(json.dumps(inline))),
    })
    pre = preprocess(doc, Report(source="<test>"))
    outputs = pre.dictionary.entries_for(OUTPUT)
    assert len(outputs) == 1
    # Brute-force pairwise oracle over the finished dictionary.
    for i, a in enumerate(outputs):
        for b in outputs[i + 1:]:
            assert not deep_equal(a.schema, b.schema, doc)


def test_nested_objects_are_flattened_into_entries():
    doc = make_doc({"/u": get_op({
        "type": "object",
        "properties": {"address": {"type": "object", "properties": {
            "city": {"type": "string"}}}},
    })})
    pre = preprocess(doc, Report(source="<test>"))
    names = {e.name for e in pre.dictionary.entries_for(OUTPUT)}
    assert "Address" in names


def test_input_and_output_entries_are_separate():
    user = {"$ref": "#/components/schemas/User"}
    doc = make_doc(
        {"/u": {
            "post": {
                "requestBody": {"content": {"application/json": {"schema": dict(user)}}},
                "responses": {"200": {"description": "ok", "content": {
                    "application/json": {"schema": dict(user)}}}},
            },
        }},
        components={"schemas": {"User": {"type": "object", "properties": {
            "id": {"type": "string"}}}}},
    )
    pre = preprocess(doc, Report(source="<test>"))
    assert {e.name for e in pre.dictionary.entries_for(OUTPUT)} == {"User"}
    assert {e.name for e in pre.dictionary.entries_for(INPUT)} == {"UserInput"}


def test_all_dictionary_names_match_grammar():
    doc = make_doc({"/weird": get_op({
        "type": "object",
        "properties": {
            "first-name": {"type": "string"},
            "nested$": {"type": "object", "properties": {"x": {"type": "string"}}},
        },
    })})
    pre = preprocess(doc, Report(source="<test>"))
    for entry in pre.dictionary.entries.values():
        assert NAME_RE.match(entry.name)
    for scope in pre.sanmap.scopes.values():
        for sanitized in scope.reverse:
            assert NAME_RE.match(sanitized)


def test_rebuild_is_deterministic():
    raw = (load_document((
        '{"openapi": "3.0.0", "info": {"title": "T", "version": "1"},'
        '"servers": [{"url": "https://d.example.com"}],'
        '"paths": {"/a": {"get": {"responses": {"200": {"description": "ok",'
        '"content": {"application/json": {"schema": {"type": "object",'
        '"properties": {"z": {"type": "string"}, "a": {"type": "object",'
        '"properties": {"q": {"type": "integer"}}}}}}}}}}}}}'
    ).encode()))
    from oaswrap.oas_ingest import ingest

    names = []
    for _ in range(2):
        doc = ingest(raw, Report(source="<test>"))
        pre = preprocess(doc, Report(source="<test>"))
        names.append(list(pre.dictionary.entries))
    assert names[0] == names[1]

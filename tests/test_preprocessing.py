"""Sanitation, the raw/sanitized mapping, deep equality, and the types
dictionary (naming and de-duplication)."""

import json
import logging
from collections import Counter
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, CannedClient, intermediates
from oaswrap import preprocessing, schema_gen
from oaswrap.errors import SanitationError, StrictModeAbort
from oaswrap.engine import Executor, parse_query
from oaswrap.generator import GenerationOptions, generate
from oaswrap.ir import scalar, to_raw
from oaswrap.oas_ingest import load_document, normalize, parse_schema
from oaswrap.preprocessing import (
    CAMEL,
    INPUT,
    OUTPUT,
    SanitizedNames,
    StructuralClasses,
    deep_equal,
    preprocess,
    sanitize,
)
from oaswrap.report import Report

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
    return normalize(root, report or Report(source="<test>"))


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


def test_sanitize_keeps_one_leading_underscore():
    # Names starting with "__" are reserved for GraphQL's introspection.
    assert sanitize("__v", casing="preserve") == "_v"
    assert sanitize("-_-_x", casing="preserve") == "_x"
    assert sanitize("___", casing="preserve") == "_"
    assert sanitize("a__b", casing="preserve") == "a__b"


def test_sanitize_digit_start_gets_underscore():
    assert sanitize("1st") == "_1st"


def test_sanitize_empty_result_raises():
    with pytest.raises(SanitationError):
        sanitize("$$$")


def test_sanitize_boolean_enum_value_raises():
    with pytest.raises(SanitationError):
        SanitizedNames(CAMEL).enum_value(True)
    with pytest.raises(SanitationError):
        SanitizedNames(CAMEL).enum_value(False)


def test_sanitize_enum_value_reserved_words_raise():
    with pytest.raises(SanitationError):
        SanitizedNames(CAMEL).enum_value("true")
    with pytest.raises(SanitationError):
        SanitizedNames(CAMEL).enum_value("null")


def test_sanitize_enum_value_plain():
    assert SanitizedNames(CAMEL).enum_value("asc") == "asc"
    assert SanitizedNames(CAMEL).enum_value("en-US") == "enUS"


# -- field and enum names: one namespace per type -----------------------------------


def output_types(schema):
    """The named types preprocessing builds for a GET /t returning schema."""
    return preprocess(make_doc({"/t": get_op(schema)}), Report(source="<test>")).dictionary.types


def recursive_input(raws):
    """The types of a document whose input type TInput has one field per raw
    key, each of type TInput again; and the fields' raw keys -> names."""
    ok = {"200": {"description": "ok", "content": {"application/json": {
        "schema": {"type": "string"}}}}}
    body = {"content": {"application/json": {"schema": _ref("T")}}}
    doc = make_doc({"/t": {"post": {"requestBody": body, "responses": ok}}},
                   {"schemas": {"T": {"type": "object",
                                      "properties": {raw: _ref("T") for raw in raws}}}})
    types = preprocess(doc, Report(source="<test>")).dictionary.types
    return types, {f.raw: f.name for f in types["TInput"].fields.values()}


def test_register_mapping_suffixes_on_collision():
    _, names = recursive_input(["user-name", "user_name"])
    assert names == {"user-name": "userName", "user_name": "userName2"}
    [enum] = output_types({"type": "string", "enum": ["user-name", "user_name"]}).values()
    assert enum.enum_values == {"userName": "user-name", "userName2": "user_name"}


def test_register_mapping_idempotent():
    # A repeated raw value maps to one name.
    [enum] = output_types({"type": "string", "enum": ["user-name", "user-name"]}).values()
    assert enum.enum_values == {"userName": "user-name"}


def test_register_mapping_fresh_scope_no_collision():
    # Each type names its fields on its own, so "id" is free in both.
    types = output_types({"type": "object", "properties": {
        "id": {"type": "string"},
        "child": {"type": "object", "properties": {"id": {"type": "integer"}}}}})
    assert [list(t.fields) for t in types.values()] == [["child", "id"], ["id"]]


def test_register_mapping_injective_per_scope():
    raws = ["a-b", "a_b", "aB", "ab"]
    _, names = recursive_input(raws)
    assert sorted(names) == sorted(raws) and len(set(names.values())) == len(raws)
    [enum] = output_types({"type": "string", "enum": raws}).values()
    assert sorted(enum.enum_values.values()) == sorted(raws)


# -- to_raw: payloads de-sanitize, completion reads raw keys ---------------------------


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
    executor = Executor(wrapper.schema, wrapper.plans, CannedClient(body))
    return executor.execute(parse_query(query), None, None)


def test_desanitize_tree_paper_example():
    types, _ = recursive_input(["$id"])
    assert to_raw(types, "TInput", {"id": 1}) == {"$id": 1}


def test_sanitize_tree_recurses_into_arrays():
    schema = {"type": "object", "properties": {"a": {"type": "array", "items": {
        "type": "object", "properties": {"x-y": {"type": "integer"}}}}}}
    result = serve_raw(schema, {"a": [{"x-y": 3}, {"x-y": 4}]}, "{ getT { a { xY } } }")
    assert result.errors == []
    assert result.data == {"getT": {"a": [{"xY": 3}, {"xY": 4}]}}
    types, _ = recursive_input(["a", "x-y"])
    assert to_raw(types, "TInput", {"a": [{"xY": 3}]}) == {"a": [{"x-y": 3}]}


def test_sanitize_tree_scalar_passthrough():
    types, _ = recursive_input(["a"])
    assert to_raw(types, "TInput", 42) == 42
    assert to_raw(types, "TInput", "x") == "x"


def test_sanitize_tree_drops_unmapped_keys(caplog):
    schema = {"type": "object", "properties": {"known": {"type": "integer"}}}
    with caplog.at_level(logging.DEBUG, logger="oaswrap.engine"):
        result = serve_raw(schema, {"known": 1, "mystery": 2}, "{ getT { known } }")
    assert result.data == {"getT": {"known": 1}}
    dropped = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
    assert dropped == ["dropped 1 unexpected upstream key(s) of type getT: ['mystery']"]


def test_desanitize_tree_passes_unmapped_keys_through():
    types, _ = recursive_input(["known"])
    assert to_raw(types, "TInput", {"other": 5}) == {"other": 5}


raw_keys = st.text(
    alphabet=st.sampled_from(list("abcXYZ012_-$./~ ")), min_size=1, max_size=12
).filter(lambda s: any(c.isalnum() for c in s))


@settings(max_examples=300)
@given(st.lists(raw_keys, min_size=1, max_size=8, unique=True))
def test_round_trip_property(keys):
    types, names = recursive_input(keys)
    value = {raw: i for i, raw in enumerate(keys)}
    sanitized = rename_keys(value, names)
    assert all(NAME_RE.match(k) for k in sanitized)
    assert len(set(sanitized)) == len(keys)
    assert to_raw(types, "TInput", sanitized) == value


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


# -- structural classes -------------------------------------------------------------------

SELF = "<self>"  # marks where a generated schema refers back to its own component

_finite_leaf_schemas = st.one_of(
    st.sampled_from(["string", "integer", "number", "boolean"]).map(lambda t: {"type": t}),
    st.lists(st.sampled_from(["red", "blue", "x-y", "7"]), min_size=1, max_size=4)
    .map(lambda values: {"type": "string", "enum": values}),
)
_leaf_schemas = st.one_of(_finite_leaf_schemas, st.just(SELF))


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


def _reachable(doc, roots):
    """Every node reachable from roots, dereferenced."""
    seen, stack = {}, list(roots)
    while stack:
        node = doc.deref(stack.pop())
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.properties.values())
            stack.extend([node.items] if node.items is not None else [])
            stack.extend(node.all_of or [])
    return list(seen.values())


@given(tree=_schema_trees, other=_schema_trees, rnd=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_structural_classes_equal_iff_deep_equal(tree, other, rnd):
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
    roots = [doc.resolve_ref(f"#/components/schemas/{name}") for name in components]
    classes = StructuralClasses(doc, roots)
    for node in roots[1:4]:
        assert deep_equal(roots[0], node, doc)
    nodes = _reachable(doc, roots)
    # Merged allOf nodes are built after the walk and classed on demand.
    merged = [doc.merge_all_of(node, Report(source="<test>")) for node in nodes if node.all_of]
    for a in roots + merged:
        for b in nodes + merged:
            assert (classes.of(a) == classes.of(b)) == deep_equal(a, b, doc)


def _assert_classes_exact(components):
    """Class every component, then check each pair of reachable nodes, and of
    merged allOf nodes classed after the pass, against deep_equal."""
    doc = make_doc({}, components={"schemas": components})
    roots = [doc.resolve_ref(f"#/components/schemas/{name}") for name in components]
    classes = StructuralClasses(doc, roots)
    nodes = _reachable(doc, roots)
    merged = [doc.merge_all_of(node, Report(source="<test>")) for node in nodes if node.all_of]
    for a in nodes + merged:
        for b in nodes + merged:
            assert (classes.of(a) == classes.of(b)) == deep_equal(a, b, doc)
    return doc, classes


_acyclic_trees = _composite_schemas(st.recursive(_finite_leaf_schemas, _composite_schemas,
                                                  max_leaves=8))


@given(tree=_acyclic_trees, other=_acyclic_trees, rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_structural_classes_equal_iff_deep_equal_without_cycles(tree, other, rnd):
    # No component reaches a reference cycle: A and B are variants of one
    # tree, and D and E hold A's tree by $ref and inline beside a shared C.
    components = {
        "A": tree,
        "B": _vary(tree, rnd),
        "C": other,
        "D": {"type": "object", "properties": {"x": _ref("A"), "y": _ref("C")}},
        "E": {"type": "object", "properties": {"x": _vary(tree, rnd), "y": _ref("C")}},
    }
    doc, classes = _assert_classes_exact(components)
    a, b, d, e = (doc.resolve_ref(f"#/components/schemas/{name}") for name in "ABDE")
    assert classes.of(a) == classes.of(b) and classes.of(d) == classes.of(e)


@given(tree=_schema_trees, shared=_acyclic_trees, rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_structural_classes_equal_iff_deep_equal_on_mixed_documents(tree, shared, rnd):
    # A and B each reach a cycle; F and G never do. All four hold the shared
    # acyclic subtree S, by $ref or inline, so one finite class sits below
    # both kinds of node.
    components = {
        "S": shared,
        "A": {"type": "object", "properties": {
            "s": _ref("S"), "me": _ref("A"), "t": _fill(tree, _ref("A"))}},
        "B": {"type": "object", "properties": {
            "s": _vary(shared, rnd), "me": _ref("B"), "t": _vary(_fill(tree, _ref("B")), rnd)}},
        "F": {"type": "object", "properties": {"s": _ref("S"), "l": {"type": "array",
                                                                      "items": _ref("S")}}},
        "G": {"type": "object", "properties": {"s": _vary(shared, rnd), "l": {
            "type": "array", "items": _vary(shared, rnd)}}},
    }
    doc, classes = _assert_classes_exact(components)
    a, b, f, g = (doc.resolve_ref(f"#/components/schemas/{name}") for name in "ABFG")
    assert classes.of(a) == classes.of(b) and classes.of(f) == classes.of(g)
    assert classes.of(a) != classes.of(f)


def test_structural_classes_tell_apart_schemas_differing_below_the_top():
    doc = make_doc({}, components={"schemas": {
        name: {"type": "object", "properties": {"detail": {"type": "object", "properties": {
            "kind": {"type": "string", "enum": values}}}}}
        for name, values in (("A", ["x", "y"]), ("B", ["x", "z"]), ("C", ["y", "x"]))}})
    a, b, c = (doc.resolve_ref(f"#/components/schemas/{n}") for n in "ABC")
    classes = StructuralClasses(doc, [a, b, c])
    assert classes.of(a) != classes.of(b)
    assert classes.of(a) == classes.of(c)


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
    # Classes decide every match; deep_equal is only the reference.
    n = 400
    calls = []
    counted = preprocessing.deep_equal

    def counting(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(preprocessing, "deep_equal", counting)
    pre = preprocess(_same_top_level_keys_doc(n), Report(source="<test>"))
    assert calls == []
    expected = []
    for i in range(n):
        suffix = str(i + 1) if i else ""
        expected += [f"S{i}", f"Detail{suffix}", f"Kind{suffix}"] + (["State"] if i == 0 else [])
    assert list(pre.dictionary.entries) == expected


def _deep_difference_doc(n):
    """n component schemas differing only in an enum six levels down."""
    components, paths = {}, {}
    for i in range(n):
        node = {"type": "string", "enum": [f"k{i}a", f"k{i}b"]}
        for key in "edcba":
            node = {"type": "object", "properties": {key: node, "n": {"type": "integer"}}}
        components[f"S{i}"] = {"type": "object", "properties": {
            "top": node, "id": {"type": "string"}}}
        paths[f"/s{i}"] = get_op(_ref(f"S{i}"))
    return make_doc(paths, {"schemas": components})


def test_dedup_of_schemas_differing_deep_down_is_near_linear():
    n = 1600
    doc = _deep_difference_doc(n)
    started = time.perf_counter()
    pre = preprocess(doc, Report(source="<test>"))
    elapsed = time.perf_counter() - started
    assert len(pre.dictionary.entries) == n * 7
    assert elapsed < 10, f"{elapsed:.1f} s"


def test_requiring_every_property_costs_about_what_requiring_none_does():
    # An object merged from two allOf members of 4,000 properties each: each
    # required name is found by a set lookup, in the merge and in the walk.
    n = 8000

    def seconds(required: bool) -> float:
        halves = [[f"p{i}" for i in range(start, n, 2)] for start in (0, 1)]
        members = [{"type": "object", "properties": {key: {"type": "string"} for key in keys},
                    **({"required": keys} if required else {})} for keys in halves]
        data = json.dumps({"openapi": "3.0.0", "info": {"title": "T", "version": "1"},
                           "paths": {"/x": get_op({"allOf": members})}}).encode()
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            assert generate(data).ok
            best = min(best, time.perf_counter() - started)
        return best

    assert seconds(True) < 3 * seconds(False)


# Twelve schemas with the same ten top-level keys differ only in the enum of
# their last property; the last three repeat the structures of S0, S4 and S8
# under names and titles of their own. The gen-dedup benchmark's shape.
_SHARED_KEYS_STRUCTURE = [*range(9), 0, 4, 8]


def _shared_keys_document() -> bytes:
    keys = ["a_id", "b-name", "c_at", "d.rate", "e_on", "f_note", "g_count", "h_tag"]
    kinds = ["integer", "string", "string", "number", "boolean", "string", "integer", "string"]
    components, paths = {}, {}
    for i, cls in enumerate(_SHARED_KEYS_STRUCTURE):
        props = {key: {"type": kind} for key, kind in zip(keys, kinds)}
        props["state"] = {"type": "string", "enum": ["on_state", "off_state"]}
        props["detail"] = {"type": "object", "properties": {
            "kind": {"type": "string", "enum": [f"k{cls}_a", f"k{cls}_b"]},
            "level": {"type": "integer"}, "label": {"type": "string"}}}
        components[f"S{i}"] = {"type": "object", "title": f"S{i} record", "required": ["a_id"],
                               "properties": props}
        paths[f"/s{i}"] = get_op(_ref(f"S{i}"))
    root = {"openapi": "3.0.3", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://x.example.com"}], "paths": paths,
            "components": {"schemas": components}}
    return json.dumps(root).encode()


def test_schemas_sharing_their_top_level_keys_get_one_type_per_structure():
    wrapper = generate(_shared_keys_document())
    assert wrapper.ok and wrapper.report.warnings == []
    doc, pre = intermediates(_shared_keys_document())
    # Nine records, nine details, nine kind enums and the one state enum.
    assert len(pre.dictionary.types) == 9 * 3 + 1
    responses = {op.path: pre.fields[op.key].type.name for op in doc.operations}
    structure = _SHARED_KEYS_STRUCTURE
    assert responses == {f"/s{i}": f"S{structure.index(cls)}" for i, cls in enumerate(structure)}


@pytest.mark.parametrize("source", [*sorted(CORPUS_DIR.iterdir()), "shared-keys"],
                         ids=lambda source: getattr(source, "name", source))
def test_plain_scalar_properties_type_as_add_types_them(source, monkeypatch):
    # Typing a plain scalar property directly gives the SDL and the warnings
    # that sending it through Preprocessor.add gives.
    data = _shared_keys_document() if source == "shared-keys" else source.read_bytes()
    direct = generate(data)
    monkeypatch.setattr(preprocessing, "plain_scalar", lambda schema: None)
    through_add = generate(data)
    assert direct.sdl == through_add.sdl
    assert ([(w.kind, w.location, w.mitigation) for w in direct.report.warnings]
            == [(w.kind, w.location, w.mitigation) for w in through_add.report.warnings])
    assert direct.report.error_message == through_add.report.error_message


def test_plain_scalar_is_the_shared_scalar_type():
    assert preprocessing.plain_scalar(parse_schema({"type": "integer"}, "#/s")) is scalar("Int")
    for node in ({"type": "string", "enum": ["a"]}, {"$ref": "#/s"}, {"type": "object"},
                 {"type": "string", "allOf": []}, {"type": "string", "oneOf": []}, {}):
        assert preprocessing.plain_scalar(parse_schema(node, "#/s")) is None


def test_the_name_memo_lasts_one_run():
    # One process generates one document in each casing mode in turn; each
    # run sanitizes with its own mode.
    schema = {"type": "object", "properties": {
        "user_name": {"type": "string"},
        "sort_order": {"type": "string", "enum": ["most_recent", "least_recent"]}}}
    root = json.dumps({"openapi": "3.0.0", "info": {"title": "T", "version": "1"},
                       "servers": [{"url": "https://x.example.com"}],
                       "paths": {"/user_info": get_op(schema)}}).encode()
    sdl = [generate(root, GenerationOptions(casing=casing)).sdl
           for casing in ("camel", "preserve", "camel", "preserve")]
    assert sdl[0] == sdl[2] and sdl[1] == sdl[3] and sdl[0] != sdl[1]
    assert all(name in sdl[0] for name in ("userName", "mostRecent", "getUserInfo"))
    assert not any(name in sdl[0] for name in ("user_name", "most_recent"))
    assert all(name in sdl[1] for name in ("user_name", "most_recent", "getuser_info"))
    assert not any(name in sdl[1] for name in ("userName", "mostRecent"))


@pytest.mark.parametrize("casing", ["camel", "preserve"])
def test_each_raw_name_is_sanitized_once_per_run(casing, monkeypatch):
    # The run's SanitizedNames is the one name policy: assembly reads the
    # names preprocessing sanitized, scheme names for viewers included.
    calls = []

    def counted(raw, casing=CAMEL):
        calls.append(raw)
        return sanitize(raw, casing)

    monkeypatch.setattr(preprocessing, "sanitize", counted)
    monkeypatch.setattr(schema_gen, "sanitize", counted, raising=False)
    for path in sorted(CORPUS_DIR.glob("clean_*")):
        calls.clear()
        assert generate(path, GenerationOptions(casing=casing)).ok, path.name
        assert calls and [raw for raw, n in Counter(calls).items() if n > 1] == [], path.name


def test_dangling_ref_in_unselected_response_still_generates():
    def document(not_found_schema):
        return json.dumps({
            "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://x.example.com"}],
            "paths": {"/a": {"get": {"responses": {
                "200": {"description": "ok", "content": {"application/json": {
                    "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}},
                "404": {"description": "missing", "content": {"application/json": {
                    "schema": not_found_schema}}},
            }}}},
        }).encode()

    dangling = {"$ref": "#/components/schemas/Nowhere"}
    for schema in (dangling, {"type": "object", "properties": {"error": dangling}}):
        wrapper = generate(document(schema))
        assert wrapper.ok, wrapper.report.error_message
        assert list(intermediates(document(schema))[1].dictionary.entries) == ["getA"]
    # Where add() reaches the reference, it still reports it.
    broken = json.loads(document(dangling))
    responses = broken["paths"]["/a"]["get"]["responses"]
    responses["200"]["content"]["application/json"]["schema"]["properties"]["id"] = dangling
    wrapper = generate(json.dumps(broken).encode())
    assert wrapper.report.error_kind == "MissingRef"


def test_repeated_enum_values_dedup_as_a_set():
    from graphql import build_schema

    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://x.example.com"}],
        "paths": {"/a": get_op({"type": "string", "enum": ["red", "red", "blue"]}),
                  "/b": get_op({"type": "string", "enum": ["blue", "red"]})},
    }
    data = json.dumps(root).encode()
    wrapper = generate(data)
    assert wrapper.ok, wrapper.report.error_message
    enums = [e.name for e in intermediates(data)[1].dictionary.entries.values()
             if e.direction == OUTPUT and e.schema.enum]
    assert enums == ["getA"]
    assert list(wrapper.schema.types["getA"].enum_values) == ["red", "blue"]
    build_schema(wrapper.sdl)


# -- canonical names -------------------------------------------------------------


def entry_names(paths, components=None):
    """The entry names, in creation order."""
    pre = preprocess(make_doc(paths, components), Report(source="<test>"))
    return list(pre.dictionary.entries)


def obj(**props):
    return {"type": "object", "properties": {k: {"type": t} for k, t in props.items()}}


def test_canonical_name_from_component_ref():
    names = entry_names({"/u": get_op(_ref("User"))}, {"schemas": {"User": obj(id="string")}})
    assert names == ["User"]


def test_canonical_name_operation_fallback():
    names = entry_names({"/users/{id}": get_op(obj(n="string"), parameters=[
        {"name": "id", "in": "path", "required": True, "schema": {"type": "string"}}])})
    # Rule 3 plus camel sanitation over "get/users/{id}".
    assert names == ["getUsersId"]


def test_canonical_name_property_key_fallback():
    names = entry_names({"/u": get_op({"type": "object", "properties": {
        "address": obj(city="string")}})})
    assert names == ["getU", "Address"]


def test_canonical_name_title_collision_falls_through():
    widget = dict(obj(a="string"), title="Widget")
    other_widget = dict(obj(b="integer"), title="Widget")
    names = entry_names({
        "/a": get_op(widget),
        "/b": get_op({"type": "object", "properties": {"fallbackKey": other_widget}}),
    })
    # The second Widget takes its property key, not a suffixed title.
    assert names == ["Widget", "getB", "FallbackKey"]


def test_canonical_name_suffix_past_last_rule():
    names = entry_names({
        "/a": get_op({"type": "object", "properties": {"address": obj(city="string")}}),
        "/b": get_op({"type": "object", "properties": {"address": obj(zip="integer")}}),
    })
    assert names == ["getA", "Address", "getB", "Address2"]


def test_unnamed_items_of_top_level_array_are_named_from_operation():
    # Neither ref, title nor property key names these items.
    names = entry_names({"/pets": get_op({"type": "array", "items": obj(id="integer")})})
    assert names == ["getPets", "getPets2"]


def test_titled_items_of_top_level_array_keep_their_suffixed_title():
    names = entry_names({
        "/a": get_op(dict(obj(a="string"), title="Pet")),
        "/pets": get_op({"type": "array", "items": dict(obj(b="integer"), title="Pet")}),
    })
    assert names == ["Pet", "getPets", "Pet2"]


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
    outputs = [e for e in pre.dictionary.entries.values() if e.direction == OUTPUT]
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
    outputs = [e for e in pre.dictionary.entries.values() if e.direction == OUTPUT]
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
    names = {e.name for e in pre.dictionary.entries.values() if e.direction == OUTPUT}
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
    entries = {(e.direction, e.name) for e in pre.dictionary.entries.values()}
    assert entries == {(OUTPUT, "User"), (INPUT, "UserInput")}


def test_all_dictionary_names_match_grammar():
    doc = make_doc({"/weird": get_op({
        "type": "object",
        "properties": {
            "first-name": {"type": "string"},
            "nested$": {"type": "object", "properties": {"x": {"type": "string"}}},
            "kind": {"type": "string", "enum": ["a-b", "$c", "9"]},
        },
    })})
    pre = preprocess(doc, Report(source="<test>"))
    for entry in pre.dictionary.entries.values():
        assert NAME_RE.match(entry.name)
    for type_ir in pre.dictionary.types.values():
        for name in [*(type_ir.fields or {}), *(type_ir.enum_values or {})]:
            assert NAME_RE.match(name)


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


# -- self-containing arrays ------------------------------------------------------


SELF_ARRAY = {"schemas": {"L": {"type": "array", "items": _ref("L")}}}


@pytest.mark.parametrize("strict", [False, True])
def test_array_containing_itself_falls_back_to_string(strict):
    report = Report(source="<test>", mode="strict" if strict else "non_strict")
    doc = make_doc({"/x": get_op({"type": "object", "properties": {"l": _ref("L")}})},
                   SELF_ARRAY)
    if strict:
        with pytest.raises(StrictModeAbort) as caught:
            preprocess(doc, report)
        assert (caught.value.kind, caught.value.location) == (
            "InvalidSchemaType", "#/components/schemas/L")
        return
    pre = preprocess(doc, report)
    assert [(w.kind, w.location) for w in report.warnings] == [
        ("InvalidSchemaType", "#/components/schemas/L")]
    [object_type] = pre.dictionary.types.values()
    assert object_type.fields["l"].type == scalar("String")


def test_array_reaching_itself_through_an_object_stays_a_list():
    components = {"schemas": {"L": {"type": "array", "items": _ref("O")},
                              "O": {"type": "object", "properties": {"l": _ref("L")}}}}
    wrapper = generate(json.dumps({
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "paths": {"/x": get_op(_ref("L"))}, "components": components}).encode())
    assert wrapper.ok and wrapper.report.warnings == []
    assert "l: [O]" in wrapper.sdl

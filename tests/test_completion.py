"""Completion of upstream records, checked against graphql-core as an oracle.

Hypothesis generates upstream bodies for a list of records whose type has
non-null, list, enum, list-of-scalar and nested-object fields. The bodies hold
nulls, missing keys, wrong JSON types, unknown enum values, non-dict items and
lists containing nulls. The executor completes each body three times: on its
first run, on its second run (through the completion kernels of the sets that
ran before) and through its general path alone, and all three must agree
exactly. graphql_sync completes the same body with resolvers that read each
field by its raw upstream key (``FieldIR.raw``); data and error paths must
agree with it.

Deliberate differences, which the bodies do not generate:
- an Int outside 32 bits surfaces as a Float, where graphql-core errs;
- a String from a JSON object or array becomes its JSON text, where
  graphql-core errs;
- an upstream boolean or numeric string for an Int or Float, and a number for
  a Boolean, are field errors, where graphql-core coerces them;
- an upstream enum value that already is the sanitized GraphQL name passes,
  where graphql-core errs.
"""

import copy
import json
import logging
import math

import pytest
from graphql import build_schema, graphql_sync
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CannedClient, general_path
from oaswrap.engine import Executor, execution, parse_query, validate_query
from oaswrap.engine.execution import KERNEL_TABLE_ENTRIES
from oaswrap.engine.validation import INT_MAX, INT_MIN, KERNEL_TEXT_CHARS, CompiledSet
from oaswrap.generator import GenerationOptions, generate
from oaswrap.ir import OBJECT, list_of, non_null, reference, resolve_type, scalar
from oaswrap.schema_gen import print_sdl

SORTS = ["up-down", "flat", "x_y"]
FIXTURE = {
    "openapi": "3.0.0",
    "info": {"title": "Completion", "version": "1"},
    "servers": [{"url": "http://upstream.invalid"}],
    "paths": {"/records": {"get": {"responses": {"200": {
        "description": "ok", "content": {"application/json": {"schema": {
            "type": "array", "items": {"$ref": "#/components/schemas/Record"}}}}}}}}},
    "components": {"schemas": {
        "Record": {"type": "object", "required": ["id", "label-text"], "properties": {
            "id": {"type": "string"}, "label-text": {"type": "string"},
            "n": {"type": "integer"}, "x": {"type": "number"}, "ok": {"type": "boolean"},
            "sort": {"type": "string", "enum": SORTS},
            "tags": {"type": "array", "items": {"type": "string"}},
            "nums": {"type": "array", "items": {"type": "integer"}},
            "sorts": {"type": "array", "items": {"type": "string", "enum": SORTS}},
            "box": {"$ref": "#/components/schemas/Box"},
            "boxes": {"type": "array", "items": {"$ref": "#/components/schemas/Box"}}}},
        "Box": {"type": "object", "required": ["name"], "properties": {
            "w-d": {"type": "integer"}, "name": {"type": "string"}}},
    }},
}
WRAPPER = generate(json.dumps(FIXTURE).encode(), GenerationOptions())


def strict_items(schema):
    """A copy of schema whose lists hold non-null items, with tags itself non-null.
    Generated schemas never have non-null items; the executor must still
    bubble them."""
    schema = copy.deepcopy(schema)
    fields = schema.types["Record"].fields
    fields["tags"].type = non_null(list_of(non_null(scalar("String"))))
    fields["nums"].type = list_of(non_null(scalar("Int")))
    fields["sorts"].type = list_of(non_null(reference("Sort")))
    fields["boxes"].type = list_of(non_null(reference("Box")))
    schema.query_fields["getRecords"].type = list_of(non_null(reference("Record")))
    return schema


def oracle(schema):
    """graphql-core's schema for ours: object fields read their raw key from a
    dict parent, anything else is not an object, and enums serialize raw values."""
    theirs = build_schema(print_sdl(schema))
    for name, type_ir in schema.types.items():
        target = theirs.type_map[name]
        if type_ir.kind == OBJECT:
            target.is_type_of = lambda value, info: isinstance(value, dict)
            for field_name, field_ir in type_ir.fields.items():
                target.fields[field_name].resolve = (
                    lambda parent, info, raw=field_ir.raw: parent.get(raw))
        elif type_ir.enum_values:
            for value, raw in type_ir.enum_values.items():
                target.values[value].value = raw
    return theirs


# The generated schema and its strict copy, each with graphql-core's.
SCHEMAS = [(schema, oracle(schema)) for schema in (WRAPPER.schema, strict_items(WRAPPER.schema))]

# Values that are wrong for a scalar in both engines.
NOT_NUMBERS = st.sampled_from(["x", "", {}, [1]])
# Numbers JSON has no literal for; the canned body carries them as NaN and Infinity.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SCALARS = {
    "String": st.one_of(st.text(max_size=4), st.integers(-10**6, 10**6), st.booleans(),
                        st.floats(allow_nan=False, allow_infinity=False)),
    "Int": st.one_of(st.integers(INT_MIN, INT_MAX), st.sampled_from([3.0, -0.0, 2.5]),
                     NOT_NUMBERS, NON_FINITE),
    "Float": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-2**53, 2**53), NOT_NUMBERS, NON_FINITE),
    "Boolean": st.one_of(st.booleans(), NOT_NUMBERS),
}


def often(values, otherwise=st.none()):
    """values seven times in eight, otherwise (null by default) once."""
    return st.integers(0, 7).flatmap(lambda n: values if n else otherwise)


ENUM = often(st.sampled_from(SORTS), st.sampled_from(["sideways", "UP-DOWN", 5, True, {}]))
NOT_OBJECTS = st.sampled_from(["x", 5, [1]])


def lists_of(items):
    return often(st.lists(often(items), max_size=3), st.sampled_from([None, "a", 5, {}]))


BOX = often(st.fixed_dictionaries({"name": often(st.text(max_size=4))}, optional={
    "w-d": often(SCALARS["Int"]), "other": st.just(1)}), often(NOT_OBJECTS))
RECORD = often(st.fixed_dictionaries({
    "id": often(st.text(max_size=4), often(st.none(), SCALARS["String"])),
    "label-text": often(SCALARS["String"]), "tags": lists_of(SCALARS["String"]),
    "sort": often(ENUM), "box": often(BOX), "boxes": lists_of(BOX),
}, optional={
    "n": often(SCALARS["Int"]), "x": often(SCALARS["Float"]),
    "ok": often(SCALARS["Boolean"]), "nums": lists_of(SCALARS["Int"]),
    "sorts": lists_of(ENUM),
}), often(NOT_OBJECTS))
BODIES = often(st.lists(RECORD, min_size=1, max_size=5), st.sampled_from([None, {}, "x", []]))

RECORD_FIELDS = ["box", "boxes", "id", "labelText", "n", "nums", "ok", "sort", "sorts",
                 "tags", "x"]


@st.composite
def queries(draw):
    def pick(names):
        return draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names),
                             unique=True))

    selections = [name + (" { " + " ".join(pick(["name", "wD"])) + " }"
                          if name in ("box", "boxes") else "")
                  for name in pick(RECORD_FIELDS)]
    return "{ getRecords { " + " ".join(selections) + " } }"


def execute(schema, text, body, mode, plans=WRAPPER.plans):
    """body completed for text by a new executor: on its first run ("cold"),
    on its second ("warm"), or through its general path alone ("general")."""
    doc = parse_query(text)
    assert validate_query(doc, schema) == []
    if mode == "general":
        general_path(doc)
    executor = Executor(schema, plans, CannedClient(body))
    for _ in range(2 if mode == "warm" else 1):
        payload = executor.execute(doc, None, None).to_payload()
    if (mode == "warm" and type(body) is list and body and all(type(r) is dict for r in body)
            and not logging.getLogger("oaswrap.engine").isEnabledFor(logging.DEBUG)):
        records = doc.operations[0].compiled[1].fields[0].child
        assert callable(executor._kernels.get(records.signature))
    return payload


def under_null(data, path) -> bool:
    """Whether a proper prefix of path leads to null in data."""
    for key in path[:-1]:
        if data is None:
            return True
        data = data[key]
    return data is None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), queries(), BODIES)
def test_completion_agrees_with_graphql_core(strict, text, body):
    schema, theirs = SCHEMAS[strict]
    ours = execute(schema, text, body, "warm")
    # As JSON, since 3 == 3.0.
    for mode in ("cold", "general"):
        assert json.dumps(ours) == json.dumps(execute(schema, text, body, mode))

    expected = graphql_sync(theirs, text, root_value={"getRecords": json.loads(json.dumps(body))})
    assert json.dumps(ours["data"]) == json.dumps(expected.data)
    # graphql-core sorts its errors, and stops completing an object at its
    # first non-null violation, where the executor completes every field and
    # reports each error. Errors outside a nulled object agree one for one.
    our_paths = sorted((e["path"] for e in ours.get("errors", [])), key=json.dumps)
    their_paths = sorted((e.path for e in expected.errors or []), key=json.dumps)
    assert all(path in our_paths for path in their_paths)
    assert ([p for p in our_paths if not under_null(ours["data"], p)]
            == [p for p in their_paths if not under_null(expected.data, p)])


# Raw keys and enum values that would break generated source if it embedded
# them other than by repr().
HOSTILE = ['a"b', "a'b", "a'''b", 'a"""b', "a\\b", "a\nb", "{x}", "x}{y", "aé", "a\\'", "get",
           "raw"]


@pytest.fixture
def kernels(caplog):
    """Kernels run even where DEBUG logging is on, which turns them off to
    report dropped upstream keys."""
    caplog.set_level(logging.INFO, logger="oaswrap.engine")


def test_kernels_read_hostile_raw_keys(kernels):
    props = {key: {"type": "string"} for key in HOSTILE}
    props["n'"] = {"type": "integer"}
    props['e"'] = {"type": "string", "enum": ["q'", 'q"', "q\\", "q}\n{", "é1"]}
    props["o{"] = {"type": "object", "properties": {
        "c'''": {"type": "boolean"}, "d\\": {"type": "number"},
        "e\n": {"type": "array", "items": {"type": "string"}}}}
    spec = dict(FIXTURE, components={}, paths={"/things": {"get": {"responses": {"200": {
        "description": "ok", "content": {"application/json": {"schema": {
            "type": "array", "items": {"type": "object", "properties": props}}}}}}}}})
    wrapper = generate(json.dumps(spec).encode(), GenerationOptions())
    schema = wrapper.schema
    [root] = schema.query_fields.values()

    def selection(type_ir):
        parts = []
        for name, field_ir in type_ir.fields.items():
            inner = resolve_type(field_ir.type.unwrap(), schema.types)
            parts.append(name + (" { " + selection(inner) + " }" if inner.kind == OBJECT else ""))
        return " ".join(parts)

    def completed(type_ir, raw):
        out = {}
        for name, field_ir in type_ir.fields.items():
            inner = resolve_type(field_ir.type.unwrap(), schema.types)
            value = raw[field_ir.raw]
            if inner.kind == OBJECT:
                value = completed(inner, value)
            elif inner.enum_values:
                value = {raw: name for name, raw in inner.enum_values.items()}[value]
            out[name] = value
        return out

    records = [dict({key: f"{key}-{n}" for key in HOSTILE}, **{
        "n'": n, 'e"': props['e"']["enum"][n],
        "o{": {"c'''": n % 2 == 0, "d\\": n + 0.5, "e\n": ["'", "\\"]}}) for n in range(3)]
    thing = resolve_type(root.type.unwrap(), schema.types)
    text = "{ %s { %s } }" % (root.name, selection(thing))
    expected = {"data": {root.name: [completed(thing, record) for record in records]}}
    for mode in ("cold", "warm", "general"):
        assert execute(schema, text, records, mode, wrapper.plans) == expected


def record_ids(alias: str) -> str:
    return "{ getRecords { %s: id } }" % alias


def test_a_kernel_is_generated_when_a_second_query_runs_its_signature(kernels):
    executor = Executor(WRAPPER.schema, WRAPPER.plans, CannedClient([{"id": "r"}] * 3))
    doc = parse_query(record_ids("a"))
    for run in range(3):
        assert executor.execute(doc, None, None).to_payload() == {
            "data": {"getRecords": [{"a": "r"}] * 3}}
        records = doc.operations[0].compiled[1].fields[0].child
        assert callable(executor._kernels.get(records.signature)) is (run > 0)


def test_the_kernel_table_keeps_the_most_recently_used_signatures_at_its_bound(kernels):
    executor = Executor(WRAPPER.schema, WRAPPER.plans, CannedClient([{"id": "r"}] * 2))

    def run(alias: str) -> str:
        doc = parse_query(record_ids(alias))
        assert executor.execute(doc, None, None).to_payload() == {
            "data": {"getRecords": [{alias: "r"}] * 2}}
        return doc.operations[0].compiled[1].fields[0].child.signature

    def kept(alias: str) -> str:
        run(alias)
        return run(alias)

    # A kept kernel survives any number of signatures that one query runs.
    hot = kept("hot")
    once = [run(f"a{n}") for n in range(2 * KERNEL_TABLE_ENTRIES)]
    assert len(set(once)) == 2 * KERNEL_TABLE_ENTRIES
    assert len(executor._kernels._values) == 1 and callable(executor._kernels.get(hot))
    # Among kept kernels the least recently used goes at the bound.
    others = [kept(f"b{n}") for n in range(KERNEL_TABLE_ENTRIES - 1)]
    run("hot")  # now the most recently used
    newest = kept("c")  # evicts b0
    assert len(executor._kernels._values) == KERNEL_TABLE_ENTRIES
    assert executor._kernels.get(others[0]) is None
    assert all(callable(executor._kernels.get(s)) for s in [hot, newest] + others[1:])


FITS = {"id": "r", "label-text": "t", "n": 1, "box": {"name": "b"}}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("last", [
    FITS, dict(FITS, id=None), dict(FITS, n="x"), dict(FITS, box={"name": None}),
    {key: value for key, value in FITS.items() if key != "label-text"}, None, "x",
])
def test_a_list_completes_in_one_kernel_call_or_as_the_general_path_does(kernels, monkeypatch,
                                                                         strict, last):
    text = "{ getRecords { id labelText n box { name } } }"
    body = [FITS, FITS, last]
    schema = SCHEMAS[strict][0]
    calls, objects = [], execution.objects

    def counted(kernel, items):
        calls.append(len(items))
        return objects(kernel, items)

    monkeypatch.setattr(execution, "objects", counted)
    doc = parse_query(text)
    assert validate_query(doc, schema) == []
    executor = Executor(schema, WRAPPER.plans, CannedClient(body))
    # The second query keeps the kernel; the third finds it kept when its list starts.
    payloads = [executor.execute(doc, None, None).to_payload() for _ in range(3)]
    assert calls == [3]
    assert payloads[0] == payloads[1] == payloads[2] == execute(schema, text, body, "general")
    errors = payloads[2].get("errors", [])
    assert all(error["path"][:2] == ["getRecords", 2] for error in errors)
    assert errors or last is FITS or last is None and not strict


def test_a_set_past_the_kernel_text_bound_takes_the_general_path(kernels):
    def run(text: str, data: list) -> tuple[CompiledSet, Executor]:
        doc = parse_query(text)
        assert validate_query(doc, WRAPPER.schema) == []
        body = [{"id": "r", "box": {"name": "b"}}] * 2
        executor = Executor(WRAPPER.schema, WRAPPER.plans, CannedClient(body))
        # The third run finds the kernels kept when the list starts.
        for _ in range(3):
            assert executor.execute(doc, None, None).to_payload() == {
                "data": {"getRecords": data}}
        return doc.operations[0].compiled[1].fields[0].child, executor

    def records(alias: str) -> CompiledSet:
        return run(record_ids(alias), [{alias: "r"}] * 2)

    # The longest alias whose one-field set still gets a signature.
    lengths = range(KERNEL_TEXT_CHARS - 100, KERNEL_TEXT_CHARS + 1)
    longest = max(n for n in lengths if records("a" * n)[0].signature)
    for alias, signed in [("a" * (longest - 1), True), ("a" * longest, True),
                          ("a" * (longest + 1), False)]:
        compiled, executor = records(alias)
        assert (compiled.signature is not None) is signed
        assert callable(executor._kernels.get(compiled.signature)) is signed

    # A parent keeps its kernel and leaves the field holding an unsigned set out.
    alias = "a" * KERNEL_TEXT_CHARS
    compiled, executor = run("{ getRecords { id box { %s: name } } }" % alias,
                             [{"id": "r", "box": {alias: "b"}}] * 2)
    assert [f.key for f in compiled.rest] == ["box"]
    assert compiled.fields[1].child.signature is None
    assert callable(executor._kernels.get(compiled.signature))

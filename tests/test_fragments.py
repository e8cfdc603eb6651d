"""The selection walk: fragment expansion, the field-merge rule and depth with
fragments expanded, checked through the service and against graphql-core as
an oracle.

One deliberate difference: graphql-core 3.2.8 misses a field-merge conflict
reached through a fragment whose body only spreads another fragment, as in
``r: user { ...F0 a: name }`` merged with ``r: user { id }`` where F0 is
``{ ...F1 }`` and F1 is ``{ a: id }``; the spec's FieldsInSetCanMerge refuses
it. So where graphql-core accepts and the walk reports a conflict, the oracle
is graphql-core's verdict on the document with its fragments inlined.
"""

import copy
import json
import time

import pytest
from graphql import (REMOVE, InlineFragmentNode, NoFragmentCyclesRule, Visitor, build_schema,
                     graphql_sync, parse, validate, visit)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import CannedClient
from oaswrap.engine import parse_query, validate_query
from oaswrap.engine.parser import MAX_DEPTH
from oaswrap.errors import GraphQLSyntaxError
from oaswrap.generator import GenerationOptions, generate
from oaswrap.ir import scalar
from oaswrap.service import GraphQLService


def by_id(ref):
    return {"get": {
        "parameters": [{"name": "id", "in": "path", "required": True,
                        "schema": {"type": "string"}}],
        "responses": {"200": {"description": "ok", "content": {"application/json": {
            "schema": {"$ref": ref}}}}},
    }}


FIXTURE = {
    "openapi": "3.0.0",
    "info": {"title": "Fragments", "version": "1"},
    "servers": [{"url": "http://upstream.invalid"}],
    "paths": {"/user/{id}": by_id("#/components/schemas/User"),
              "/company/{id}": by_id("#/components/schemas/Company")},
    "components": {"schemas": {
        "User": {"type": "object", "properties": {
            "id": {"type": "string"}, "name": {"type": "string"},
            "manager": {"$ref": "#/components/schemas/User"},
            "employer": {"$ref": "#/components/schemas/Company"}}},
        "Company": {"type": "object", "properties": {
            "id": {"type": "string"}, "name": {"type": "string"},
            "owner": {"$ref": "#/components/schemas/User"}}},
    }},
}

# Query { user(id: String!): User  company(id: String!): Company }, and the
# object fields of each type (None for a leaf).
WRAPPER = generate(json.dumps(FIXTURE).encode(), GenerationOptions())
SCHEMA = build_schema(WRAPPER.sdl)
FIELDS = {"User": {"id": None, "name": None, "manager": "User", "employer": "Company"},
          "Company": {"id": None, "name": None, "owner": "User"}}

# One upstream body serves every call; it has the keys of both types.
INNER = {"id": "2", "name": "Inner"}
BODY = {"id": "1", "name": "Outer", "manager": INNER, "employer": INNER, "owner": INNER}


class CountingClient(CannedClient):
    def __init__(self, body):
        super().__init__(body)
        self.specs = []

    def send(self, spec):
        self.specs.append(spec)
        return super().send(spec)


def counting_service():
    client = CountingClient(BODY)
    return GraphQLService(WRAPPER, client=client, max_parallel=1), client


# -- the field-merge rule ----------------------------------------------------------


@pytest.mark.parametrize("query", [
    '{ a: user(id: "1") { id } a: user(id: "2") { name } }',
    '{ user(id: "1") { a: id a: name } }',
    '{ user(id: "1") { id ...on User { id: name } } }',
], ids=["arguments", "aliases", "inline-fragment"])
def test_fields_that_cannot_merge_are_400_before_any_upstream_call(query):
    service, client = counting_service()
    status, payload = service.handle_graphql({"query": query})
    assert status == 400
    assert "conflicting fields or arguments" in payload["errors"][0]["message"]
    assert client.specs == []
    assert validate(SCHEMA, parse(query)), "graphql-core accepts it"


def test_fields_that_merge_make_one_call_and_keep_first_occurrence_order():
    service, client = counting_service()
    query = ('{ a: user(id: "1") { name ...M } a: user(id: "1") { id manager { id } } }'
             ' fragment M on User { manager { name } id }')
    status, payload = service.handle_graphql({"query": query})
    assert status == 200
    assert json.dumps(payload) == json.dumps(
        {"data": {"a": {"name": "Outer", "manager": {"name": "Inner", "id": "2"}, "id": "1"}}})
    assert len(client.specs) == 1


# -- names that must not repeat, and variable defaults --------------------------------


@pytest.mark.parametrize("query, message", [
    ('{ user(id: "1", id: "2") { id } }', "There can be only one argument named 'id'."),
    ('{ user(id: "1") { ...A } } fragment A on User { id } fragment A on User { name }',
     "There can be only one fragment named 'A'."),
], ids=["argument", "fragment"])
def test_repeated_names_are_400_before_any_upstream_call(query, message):
    service, client = counting_service()
    status, payload = service.handle_graphql({"query": query})
    assert status == 400
    assert payload["errors"][0]["message"].startswith(message)
    assert client.specs == []
    assert [e.message for e in validate(SCHEMA, parse(query))] == [message]


def test_variable_default_of_the_wrong_type_is_400_before_any_upstream_call():
    service, client = counting_service()
    query = 'query Q($v: String = 5) { user(id: $v) { id } }'
    status, payload = service.handle_graphql({"query": query})
    assert status == 400
    assert payload == {"errors": [
        {"message": "default value of variable $v expects String, got int 5"}]}
    assert client.specs == []
    assert validate(SCHEMA, parse(query))


def test_variable_default_is_coerced_to_its_type():
    wrapper = copy.deepcopy(WRAPPER)
    wrapper.schema.query_fields["user"].args["id"].type = scalar("ID")
    client = CountingClient(BODY)
    service = GraphQLService(wrapper, client=client)
    status, _ = service.handle_graphql({"query": 'query Q($v: ID = 5) { user(id: $v) { id } }'})
    assert status == 200
    assert [spec.sent["path"] for spec in client.specs] == [{"id": "5"}]


# -- fragment chains and depth ------------------------------------------------------


def chain(count, body):
    """A query spreading F0 into user, and fragments F0..F{count-1} on User,
    each with the given body text, where {next} names the next fragment."""
    lines = ['{ user(id: "1") { ...F0 } }']
    lines += [f"fragment F{i} on User {{ {body.format(next=f'F{i + 1}')} }}"
              for i in range(count - 1)]
    lines.append(f"fragment F{count - 1} on User {{ id }}")
    return "\n".join(lines)


def test_doubling_fragment_chain_compiles_once_per_fragment():
    service, client = counting_service()
    query = chain(20, "id ...{next} ...{next}")
    start = time.perf_counter()
    status, payload = service.handle_graphql({"query": query})
    assert time.perf_counter() - start < 1.0
    assert (status, payload) == (200, {"data": {"user": {"id": "1"}}})
    assert len(client.specs) == 1


def test_fragment_chain_deeper_than_the_bound_is_400():
    service, client = counting_service()
    status, payload = service.handle_graphql({"query": chain(3000, "id ...{next}")})
    assert status == 400
    assert f"deeper than {MAX_DEPTH} levels" in payload["errors"][0]["message"]
    assert client.specs == []


# Fragment Fi's selections sit at depth 3 + 2i: each spread and each manager
# adds a level, as if the fragment were written inline.
@pytest.mark.parametrize("count, status", [((MAX_DEPTH - 1) // 2, 200),
                                           ((MAX_DEPTH - 1) // 2 + 1, 400)])
def test_depth_through_nested_fragments_is_bounded(count, status):
    service, client = counting_service()
    reply, payload = service.handle_graphql({"query": chain(count, "manager {{ ...{next} }}")})
    assert reply == status
    assert len(client.specs) == (status == 200)


def test_a_set_compiled_shallow_is_bounded_where_it_is_reached_deep():
    # Deep's manager set compiles at depth 3, then is reached again at depth 62.
    deep = "manager { " * 5 + "id" + " }" * 5
    outer = "manager { " * 58 + "...Deep" + " }" * 58
    query = f'{{ user(id: "1") {{ ...Deep {outer} }} }} fragment Deep on User {{ {deep} }}'
    errors = validate_query(parse_query(query), WRAPPER.schema)
    assert errors == [f"selections nest deeper than {MAX_DEPTH} levels with fragments expanded"]


def test_a_fragment_spread_only_by_unused_fragments_is_unused():
    query = '{ user(id: "1") { id } } fragment A on User { ...B } fragment B on User { id }'
    errors = validate_query(parse_query(query), WRAPPER.schema)
    assert errors == ["fragment 'A' is defined but never used",
                      "fragment 'B' is defined but never used"]
    assert len(validate(SCHEMA, parse(query))) == 2


def test_variable_scope_is_per_operation():
    query = ('query A($v: String!) { ...Q } query B { ...Q } '
             'fragment Q on Query { user(id: $v) { id } }')
    errors = validate_query(parse_query(query), WRAPPER.schema)
    assert errors == ["variable $v used in argument 'id' of field 'user' is not declared"]


# -- differential: graphql-core as the oracle ----------------------------------------


def odds(draw, n):
    """True one time in n."""
    return draw(st.integers(0, n - 1)) == 0


@st.composite
def documents(draw):
    """A document over FIELDS whose spread graph may hold chains, diamonds,
    doubled spreads, cycles, unused fragments, wrong type conditions and
    conflicting aliases, and which may repeat an argument or a fragment name.
    Acyclic, it nests at most 3 + 3 * 5 levels.

    Fragment Fi spreads only later fragments unless the document may be
    cyclic, and mostly fragments on the type it spreads them into."""
    count = draw(st.integers(0, 4))
    names = [f"F{i}" for i in range(count)]
    conditions = {name: "Company" if odds(draw, 4) else "User" for name in names}
    cyclic = odds(draw, 4)

    def selection_set(type_name, levels, owner):
        return "{ " + " ".join(selection(type_name, levels, owner)
                               for _ in range(draw(st.integers(1, 3)))) + " }"

    def selection(type_name, levels, owner):
        kind = draw(st.sampled_from(["field", "field", "field", "spread", "spread", "inline"]))
        targets = [n for i, n in enumerate(names) if cyclic or i > owner]
        fitting = [n for n in targets if conditions[n] == type_name]
        if kind == "spread" and fitting and not odds(draw, 8):
            return "..." + draw(st.sampled_from(fitting))
        if kind == "spread" and targets and odds(draw, 2):
            return "..." + draw(st.sampled_from(targets))
        if kind == "inline" and levels:
            condition = draw(st.sampled_from(["User", "Company"])) if odds(draw, 5) else type_name
            return f"... on {condition} " + selection_set(condition, levels - 1, owner)
        fields = FIELDS[type_name]
        name = draw(st.sampled_from(sorted(f for f in fields if levels or not fields[f])))
        alias = "a: " if odds(draw, 8) else ""
        if fields[name] is None:
            return alias + name
        return alias + name + " " + selection_set(fields[name], levels - 1, owner)

    roots = []
    for _ in range(draw(st.integers(1, 2))):
        alias = "r: " if odds(draw, 2) else ""
        root = "company" if odds(draw, 4) else "user"
        body = selection_set(root.title(), 2, -1)
        if not odds(draw, 4):  # most documents spread every fitting fragment here too
            body = body[:-1] + "".join(f"...{n} " for n in names
                                       if conditions[n] == root.title()) + "}"
        args = ", ".join(f'id: "{draw(st.sampled_from("12"))}"'
                         for _ in range(2 if odds(draw, 16) else 1))
        roots.append(f"{alias}{root}({args}) {body}")
    fragments = [f"fragment {name} on {conditions[name]} "
                 + selection_set(conditions[name], 2, i) for i, name in enumerate(names)]
    if names and odds(draw, 16):
        i = draw(st.integers(0, count - 1))
        fragments.append(f"fragment {names[i]} on {conditions[names[i]]} "
                         + selection_set(conditions[names[i]], 2, i))
    return "\n".join(["{ " + " ".join(roots) + " }"] + fragments)


def graphql_core_errors(document):
    # graphql-core's overlap rule recurses without end on a fragment cycle
    # through nested fields, so its cycle rule rules first.
    return validate(SCHEMA, document, [NoFragmentCyclesRule]) or validate(SCHEMA, document)


class Inline(Visitor):
    """Replaces each fragment spread with an inline fragment of the
    fragment's body, and drops the fragments; it ends on an acyclic document."""

    def __init__(self, document):
        super().__init__()
        self.fragments = {d.name.value: d for d in document.definitions
                          if d.kind == "fragment_definition"}

    def enter_fragment_spread(self, node, *_):
        fragment = self.fragments[node.name.value]
        return InlineFragmentNode(type_condition=fragment.type_condition, directives=[],
                                  selection_set=fragment.selection_set)

    def enter_fragment_definition(self, *_):
        return REMOVE


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
@example('{ r: user(id: "1") { id } r: user(id: "1") { ...F0 a: name } }\n'
         'fragment F0 on User { ...F1 }\nfragment F1 on User { a: id }')
@example('{ r: user(id: "1") { a: id ...F0 manager { ...F0 employer { a: id } '
         'a: employer { a: id } } } }\nfragment F0 on User { ...F1 }\n'
         'fragment F1 on User { employer { a: name id id } }')
@example('{ r: user(id: "1") { id } r: user(id: "1") { ...F0 id a: employer { a: id a: id '
         'a: id } } }\nfragment F0 on User { ...F1 }\nfragment F1 on User { a: id }')
def test_walk_agrees_with_graphql_core(text):
    try:
        ours = validate_query(parse_query(text), WRAPPER.schema)
    except GraphQLSyntaxError as exc:  # a repeated name
        ours = [str(exc)]
    document = parse(text)
    theirs = graphql_core_errors(document)
    if ours and not theirs:  # graphql-core has ruled out cycles, so inlining ends
        theirs = graphql_core_errors(visit(document, Inline(document)))
    assert (ours == []) == (theirs == []), (ours, [e.message for e in theirs])
    status, payload = counting_service()[0].handle_graphql({"query": text})
    assert status == (200 if ours == [] else 400)
    if status == 200:
        expected = graphql_sync(SCHEMA, text, root_value={"user": BODY, "company": BODY})
        assert expected.errors is None
        assert json.dumps(payload) == json.dumps({"data": expected.data})

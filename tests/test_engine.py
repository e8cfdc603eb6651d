"""GraphQL engine: parsing, validation, coercion, and execution."""

import base64
import json
import logging
import time

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import CannedClient, general_path, query_texts
from oaswrap.engine import (
    Executor,
    coerce_variables,
    parse_query,
    validate_query,
    validation,
)
from oaswrap.engine.ast import FragmentSpreadNode, InlineFragmentNode
from oaswrap.engine.execution import RequestFailed
from oaswrap.engine.lexer import tokenize
from oaswrap.errors import CoercionError, GraphQLSyntaxError
from oaswrap.generator import generate
from oaswrap.resolver_runtime import HttpClient

FIG2_QUERY = """
query {
  user(id: "erik") {
    name
    employerCompany {
      companyName
    }
  }
}
"""


def build(paths, components=None, servers=None):
    root = {
        "openapi": "3.0.0",
        "info": {"title": "T", "version": "1"},
        "servers": servers or [{"url": "https://api.example.com"}],
        "paths": paths,
    }
    if components:
        root["components"] = components
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok, wrapper.report.error_message
    return wrapper


def get_path(schema, parameters=None, links=None, operation_id=None):
    response = {"description": "ok", "content": {"application/json": {"schema": schema}}}
    if links:
        response["links"] = links
    op = {"responses": {"200": response}}
    if parameters:
        op["parameters"] = parameters
    if operation_id:
        op["operationId"] = operation_id
    return {"get": op}


LINKED_PATHS = {
    "/user/{id}": get_path(
        {"$ref": "#/components/schemas/User"},
        parameters=[{"name": "id", "in": "path", "required": True,
                     "schema": {"type": "string"}}],
        links={"EmployerCompany": {
            "operationId": "getCompanyById",
            "parameters": {"companyName": "$response.body#/employerId"},
        }},
        operation_id="getUserById",
    ),
    "/company/{companyName}": get_path(
        {"$ref": "#/components/schemas/Company"},
        parameters=[{"name": "companyName", "in": "path", "required": True,
                     "schema": {"type": "string"}}],
        operation_id="getCompanyById",
    ),
}

LINKED_COMPONENTS = {"schemas": {
    "User": {"type": "object", "properties": {
        "id": {"type": "string"}, "name": {"type": "string"},
        "employerId": {"type": "string"}}},
    "Company": {"type": "object", "properties": {
        "companyName": {"type": "string"}, "city": {"type": "string"}}},
}}


def linked_wrapper(upstream):
    return build(LINKED_PATHS, LINKED_COMPONENTS, servers=[{"url": upstream.base_url}])


def executor_for(wrapper, max_parallel=8):
    return Executor(wrapper.schema, wrapper.plans, HttpClient(timeout=5),
                    max_parallel=max_parallel)


# -- parse_query -------------------------------------------------------------------


def test_parse_nested_link_query():
    doc = parse_query(FIG2_QUERY)
    op = doc.operations[0]
    assert op.kind == "query"
    user = op.selection_set[0]
    assert user.name == "user"
    assert user.arguments["id"].value == "erik"
    nested = [s.name for s in user.selection_set]
    assert nested == ["name", "employerCompany"]
    company = user.selection_set[1]
    assert [s.name for s in company.selection_set] == ["companyName"]


def test_parse_empty_selection_is_syntax_error():
    with pytest.raises(GraphQLSyntaxError):
        parse_query("{}")


def test_parse_alias():
    doc = parse_query('{ u: user(id: "x") { id } }')
    field = doc.operations[0].selection_set[0]
    assert field.alias == "u"
    assert field.name == "user"
    assert field.response_key == "u"


def test_parse_rejects_subscription():
    with pytest.raises(GraphQLSyntaxError):
        parse_query("subscription { tick }")


def test_directives_rejected():
    with pytest.raises(GraphQLSyntaxError) as excinfo:
        parse_query('{ user(id: "x") @include(if: true) { id } }')
    assert str(excinfo.value) == ("directive @include is not supported by this engine "
                                  "(line 1, column 17)")


def test_parse_variables_fragments_inline():
    doc = parse_query("""
        query Q($id: String!, $n: Int = 3) {
          user(id: $id) { ...userBits ... on User { name } }
        }
        fragment userBits on User { id }
    """)
    op = doc.operations[0]
    assert [d.name for d in op.variable_definitions] == ["id", "n"]
    assert str(op.variable_definitions[0].type) == "String!"
    assert "userBits" in doc.fragments


def test_parse_values():
    doc = parse_query('{ f(a: [1, 2.5, "s", true, null, ENUMV], o: {k: 1}) }')
    args = doc.operations[0].selection_set[0].arguments
    kinds = [v.kind for v in args["a"].values]
    assert kinds == ["int", "float", "string", "boolean", "null", "enum"]
    assert args["o"].fields["k"].value == 1


def _our_tree(doc):
    """parse_query's document as plain data, for comparison with graphql-core."""

    def value(v):
        if v.kind == "list":
            return ["list", [value(item) for item in v.values]]
        if v.kind == "object":
            return ["object", {key: value(child) for key, child in v.fields.items()}]
        return [v.kind, v.value]

    def selections(nodes):
        out = []
        for node in nodes or []:
            if isinstance(node, FragmentSpreadNode):
                out.append(["spread", node.name])
            elif isinstance(node, InlineFragmentNode):
                out.append(["inline", node.type_condition, selections(node.selection_set)])
            else:
                out.append(["field", node.alias, node.name,
                            {key: value(arg) for key, arg in node.arguments.items()},
                            selections(node.selection_set)])
        return out

    operations = [[op.kind, op.name,
                   [[d.name, str(d.type), d.default and value(d.default)]
                    for d in op.variable_definitions],
                   selections(op.selection_set)] for op in doc.operations]
    fragments = {name: [f.type_condition, selections(f.selection_set)]
                 for name, f in doc.fragments.items()}
    return operations, fragments


def _graphql_core_tree(doc):
    """graphql-core's document in the shape of _our_tree."""
    from graphql.language import ast as g

    def value(v):
        if isinstance(v, g.VariableNode):
            return ["variable", v.name.value]
        if isinstance(v, g.IntValueNode):
            return ["int", int(v.value)]
        if isinstance(v, g.FloatValueNode):
            return ["float", float(v.value)]
        if isinstance(v, g.StringValueNode):
            return ["string", v.value]
        if isinstance(v, g.BooleanValueNode):
            return ["boolean", v.value]
        if isinstance(v, g.NullValueNode):
            return ["null", None]
        if isinstance(v, g.EnumValueNode):
            return ["enum", v.value]
        if isinstance(v, g.ListValueNode):
            return ["list", [value(item) for item in v.values]]
        return ["object", {f.name.value: value(f.value) for f in v.fields}]

    def type_of(t):
        if isinstance(t, g.NonNullTypeNode):
            return f"{type_of(t.type)}!"
        if isinstance(t, g.ListTypeNode):
            return f"[{type_of(t.type)}]"
        return t.name.value

    def selections(selection_set):
        out = []
        for node in selection_set.selections if selection_set else []:
            if isinstance(node, g.FragmentSpreadNode):
                out.append(["spread", node.name.value])
            elif isinstance(node, g.InlineFragmentNode):
                out.append(["inline", node.type_condition and node.type_condition.name.value,
                            selections(node.selection_set)])
            else:
                out.append(["field", node.alias and node.alias.value, node.name.value,
                            {a.name.value: value(a.value) for a in node.arguments},
                            selections(node.selection_set) if node.selection_set else []])
        return out

    operations, fragments = [], {}
    for d in doc.definitions:
        if isinstance(d, g.FragmentDefinitionNode):
            fragments[d.name.value] = [d.type_condition.name.value, selections(d.selection_set)]
        else:
            operations.append([
                d.operation.value, d.name and d.name.value,
                [[v.variable.name.value, type_of(v.type),
                  v.default_value and value(v.default_value)] for v in d.variable_definitions],
                selections(d.selection_set)])
    return operations, fragments


def test_parse_agrees_with_graphql_core():
    from graphql import parse

    corpus = [
        FIG2_QUERY,
        '{ u: user(id: "x") { id } }',
        'query Q($id: String!) { user(id: $id) { id name } }',
        'mutation M { createUser(user: {id: "a", tags: [1, 2]}) { id } }',
        'query { a { ...f } }\nfragment f on A { x y }',
        'query V($n: Int = 3, $s: [String!]!) { a(x: 1.5, e: RED, z: null, b: false, n: $n) '
        '{ ... on A { x } ... { y } } }',
    ]
    for text in corpus:
        assert _our_tree(parse_query(text)) == _graphql_core_tree(parse(text)), text


# Parse-time refusals that graphql-core's parser does not make, each a
# deliberate scope of this engine: subscriptions, directives, nesting past
# MAX_DEPTH, and a document with no operation to run, which graphql-core's
# execute refuses ("Must provide an operation.").
DELIBERATE_REFUSALS = ("subscriptions are not supported", "is not supported by this engine",
                       "nests deeper than", "document defines no operations")


def _graphql_core_document(text):
    """graphql-core's document for text, or None where it refuses it: at
    parse, or by a rule on an executable document's shape alone, which this
    parser checks while it builds the AST."""
    from graphql import GraphQLError, build_schema, parse, validate
    from graphql.validation import (ExecutableDefinitionsRule, UniqueArgumentNamesRule,
                                    UniqueFragmentNamesRule, UniqueInputFieldNamesRule)

    try:
        doc = parse(text)
    except (GraphQLError, IndexError):  # IndexError: a "\u" escape cut short by the text's end
        return None
    rules = [ExecutableDefinitionsRule, UniqueArgumentNamesRule, UniqueFragmentNamesRule,
             UniqueInputFieldNamesRule]
    return None if validate(build_schema("type Query { a: Int }"), doc, rules) else doc


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(query_texts())
def test_parse_accepts_what_graphql_core_accepts(text):
    """parse_query accepts exactly the documents graphql-core accepts, but for
    DELIBERATE_REFUSALS, and reads the same tree from each."""
    theirs = _graphql_core_document(text)
    try:
        ours = parse_query(text)
    except GraphQLSyntaxError as exc:
        assert theirs is None or any(r in str(exc) for r in DELIBERATE_REFUSALS), (text, exc)
        return
    assert theirs is not None, text
    assert _our_tree(ours) == _graphql_core_tree(theirs), text


@pytest.mark.parametrize("text, value", [
    ("{ a(x: 1.) }", None),
    ("{ a(x: 00) }", None),
    ("{ é }", None),
    ("\ufeff{ a(x: 1) }", 1),
    ('{ a(x: "a\tb") }', "a\tb"),
    (r'{ a(x: "\u{1F600}") }', "\U0001F600"),
    ('{ a(x: """\n   hi\n  there\n""") }', " hi\nthere"),
    ("{ a(x: 1e) }", None),
    ('{ a(x: ["""b"]) }', None),
    ("{ a() }", None),
    ("query Q() { a }", None),
    (r'{ a(x: "\ud800") }', None),
], ids=["fraction-without-digits", "leading-zero", "non-ascii-name", "leading-bom", "raw-tab",
        "braced-escape", "block-string-dedent", "exponent-without-digits",
        "unterminated-block-string", "empty-arguments", "empty-variable-definitions",
        "lone-surrogate-escape"])
def test_lexical_edges_get_graphql_core_verdict(text, value):
    """Each text gets graphql-core's verdict and, where it is accepted, its
    argument value; value None marks a refused text."""
    theirs = _graphql_core_document(text)
    assert (theirs is None) == (value is None)
    if theirs is None:
        with pytest.raises(GraphQLSyntaxError):
            parse_query(text)
        return
    doc = parse_query(text)
    assert doc.operations[0].selection_set[0].arguments["x"].value == value
    assert _our_tree(doc) == _graphql_core_tree(theirs)


@pytest.mark.parametrize("text", [
    "{ a\n  b\r\n  c\r  d }",
    '{ f(x: """a\n  b\r\n  c""" y: 1) }',
    "# note\r\n\ufeff{\ta, b }",
])
def test_token_positions_agree_with_graphql_core(text):
    from graphql.language import Lexer, Source, TokenKind

    lexer, theirs = Lexer(Source(text)), []
    while lexer.advance().kind != TokenKind.EOF:
        theirs.append((lexer.token.line, lexer.token.column))
    assert [(t.line, t.column) for t in tokenize(text)[:-1]] == theirs


def test_syntax_error_carries_position():
    with pytest.raises(GraphQLSyntaxError) as excinfo:
        parse_query("{ user(id: }")
    assert excinfo.value.line == 1
    assert excinfo.value.column > 0


@pytest.mark.parametrize("text, message", [
    ('{ a(x: 1, x: 2) }', "There can be only one argument named 'x'. (line 1, column 11)"),
    ('{ a(x: {b: 1, b: 2}) }', "There can be only one input field named 'b'. (line 1, column 15)"),
    ('{ a } fragment F on A { b } fragment F on A { c }',
     "There can be only one fragment named 'F'. (line 1, column 29)"),
], ids=["argument", "input-field", "fragment"])
def test_repeated_names_are_syntax_errors(text, message):
    with pytest.raises(GraphQLSyntaxError) as excinfo:
        parse_query(text)
    assert str(excinfo.value) == message


# -- validate_query --------------------------------------------------------------


def schema_for_validation():
    wrapper = build(LINKED_PATHS, LINKED_COMPONENTS)
    return wrapper.schema


def test_fig2_query_validates_cleanly():
    schema = schema_for_validation()
    assert validate_query(parse_query(FIG2_QUERY), schema) == []


def test_unknown_field_names_the_type():
    schema = schema_for_validation()
    errors = validate_query(parse_query('{ userx { id } }'), schema)
    assert len(errors) == 1
    assert "userx" in errors[0] and "Query" in errors[0]


def test_missing_required_argument():
    schema = schema_for_validation()
    errors = validate_query(parse_query("{ user { id } }"), schema)
    assert any("required argument" in e and "id" in e for e in errors)


def test_leaf_with_selection_rejected():
    schema = schema_for_validation()
    errors = validate_query(parse_query('{ user(id: "x") { name { x } } }'), schema)
    assert any("leaf" in e for e in errors)


def test_composite_without_selection_rejected():
    schema = schema_for_validation()
    errors = validate_query(parse_query('{ user(id: "x") }'), schema)
    assert any("selection set" in e for e in errors)


def test_argument_type_mismatch():
    schema = schema_for_validation()
    errors = validate_query(parse_query("{ user(id: 5) { id } }"), schema)
    assert any("expects String" in e for e in errors)


def test_undeclared_variable_usage():
    schema = schema_for_validation()
    errors = validate_query(parse_query("{ user(id: $who) { id } }"), schema)
    assert any("$who" in e and "not declared" in e for e in errors)


def test_unused_variable_rejected():
    schema = schema_for_validation()
    errors = validate_query(
        parse_query('query Q($x: String!) { user(id: "a") { id } }'), schema)
    assert any("never used" in e for e in errors)


def test_variable_type_compatibility():
    schema = schema_for_validation()
    ok = validate_query(parse_query("query Q($i: String!) { user(id: $i) { id } }"), schema)
    assert ok == []
    bad = validate_query(parse_query("query Q($i: Int!) { user(id: $i) { id } }"), schema)
    assert any("not compatible" in e for e in bad)


def test_introspection_rejected_with_sdl_pointer():
    schema = schema_for_validation()
    errors = validate_query(parse_query("{ __schema { types { name } } }"), schema)
    assert any("SDL" in e for e in errors)


def test_fragment_cycle_rejected():
    schema = schema_for_validation()
    text = """
        { user(id: "x") { ...a } }
        fragment a on User { ...b }
        fragment b on User { ...a }
    """
    errors = validate_query(parse_query(text), schema)
    assert any("spreads itself" in e for e in errors)


def test_undefined_fragment_rejected():
    schema = schema_for_validation()
    errors = validate_query(parse_query('{ user(id: "x") { ...nope } }'), schema)
    assert any("never defined" in e for e in errors)


def test_mutation_on_query_only_schema_rejected():
    schema = schema_for_validation()
    errors = validate_query(parse_query("mutation { anything }"), schema)
    assert any("no mutations" in e for e in errors)


def test_enum_argument_literal_checked():
    wrapper = build({"/sorted": get_path(
        {"type": "string"},
        parameters=[{"name": "order", "in": "query",
                     "schema": {"type": "string", "enum": ["asc", "desc"]}}],
    )})
    ok = validate_query(parse_query("{ getSorted(order: asc) }"), wrapper.schema)
    assert ok == []
    bad = validate_query(parse_query("{ getSorted(order: sideways) }"), wrapper.schema)
    assert any("expects enum" in e for e in bad)
    also_bad = validate_query(parse_query('{ getSorted(order: "asc") }'), wrapper.schema)
    assert any("expects enum" in e for e in also_bad)


# -- coerce_variables ---------------------------------------------------------------


def defs_of(text):
    return parse_query(text).operations[0].variable_definitions


def test_coerce_int_passthrough():
    schema = schema_for_validation()
    defs = defs_of("query Q($n: Int) { user(id: $n) { id } }")
    assert coerce_variables(defs, {"n": 3}, schema) == {"n": 3}


def test_coerce_int_for_float_accepted():
    schema = schema_for_validation()
    defs = defs_of("query Q($x: Float) { user(id: $x) { id } }")
    assert coerce_variables(defs, {"x": 3}, schema) == {"x": 3.0}


def test_coerce_missing_non_null_rejected():
    schema = schema_for_validation()
    defs = defs_of("query Q($s: String!) { user(id: $s) { id } }")
    with pytest.raises(CoercionError):
        coerce_variables(defs, {}, schema)


def test_coerce_default_applied():
    schema = schema_for_validation()
    defs = defs_of('query Q($s: String = "dft") { user(id: $s) { id } }')
    assert coerce_variables(defs, {}, schema) == {"s": "dft"}


def test_coerce_enum_variable():
    wrapper = build({"/sorted": get_path(
        {"type": "string"},
        parameters=[{"name": "order", "in": "query",
                     "schema": {"type": "string", "enum": ["asc", "desc"]}}],
    )})
    enum_name = next(n for n, t in wrapper.schema.types.items() if t.kind == "Enum")
    defs = defs_of(f"query Q($o: {enum_name}) {{ getSorted(order: $o) }}")
    assert coerce_variables(defs, {"o": "asc"}, wrapper.schema) == {"o": "asc"}
    with pytest.raises(CoercionError):
        coerce_variables(defs, {"o": "bad"}, wrapper.schema)


def test_coerce_int_range_checked():
    schema = schema_for_validation()
    defs = defs_of("query Q($n: Int) { user(id: $n) { id } }")
    with pytest.raises(CoercionError):
        coerce_variables(defs, {"n": 2**31}, schema)


def test_coerce_undeclared_variable_rejected():
    schema = schema_for_validation()
    defs = defs_of('query Q($n: Int) { user(id: "x") { id } }')
    with pytest.raises(CoercionError):
        coerce_variables(defs, {"m": 1}, schema)


def test_twenty_thousand_variables_coerce_in_under_a_second():
    # Each provided variable is checked against the declared names in
    # constant time: 20,000 of them take milliseconds, not the minutes of a
    # scan per variable.
    schema = schema_for_validation()
    count = 20_000
    defs = defs_of("query Q(" + " ".join(f"$v{i}: String" for i in range(count))
                   + ') { user(id: "x") { id } }')
    provided = {f"v{i}": str(i) for i in range(count)}
    started = time.perf_counter()
    assert coerce_variables(defs, provided, schema) == provided
    assert time.perf_counter() - started < 1.0


# -- execute -------------------------------------------------------------------------


def run(wrapper, query, variables=None, operation_name=None, max_parallel=8):
    doc = parse_query(query)
    errors = validate_query(doc, wrapper.schema)
    assert errors == [], errors
    executor = executor_for(wrapper, max_parallel)
    return executor.execute(doc, operation_name, variables)


def test_execute_fig2_composition(upstream):
    upstream.static("GET", "/user/{id}",
                    {"id": "erik", "name": "Erik", "employerId": "ibm"})
    upstream.static("GET", "/company/{companyName}",
                    {"companyName": "International Business Machines", "city": "Armonk"})
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, FIG2_QUERY)
    assert result.errors == []
    assert result.data == {"user": {
        "name": "Erik",
        "employerCompany": {"companyName": "International Business Machines"},
    }}
    assert upstream.paths_seen == ["/user/erik", "/company/ibm"]


def test_execute_projection_drops_unrequested_fields(upstream):
    upstream.static("GET", "/user/{id}",
                    {"id": "erik", "name": "Erik", "employerId": "ibm"})
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ user(id: "erik") { id } }')
    assert result.data == {"user": {"id": "erik"}}


def test_execute_alias_shapes_response(upstream):
    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N", "employerId": "e"})
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ me: user(id: "x") { id } }')
    assert result.data == {"me": {"id": "x"}}


def test_execute_upstream_error_yields_null_and_error_path(upstream):
    upstream.route("GET", "/user/{id}", lambda req, p: (404, {"message": "nope"}))
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ user(id: "ghost") { id } }')
    assert result.data == {"user": None}
    assert len(result.errors) == 1
    assert result.errors[0]["path"] == ["user"]
    assert "404" in result.errors[0]["message"]


def test_execute_expression_unresolvable_gives_null_link_field(upstream):
    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N"})  # no employerId
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ user(id: "x") { name employerCompany { companyName } } }')
    assert result.data == {"user": {"name": "N", "employerCompany": None}}
    assert result.errors and result.errors[0]["path"] == ["user", "employerCompany"]


def test_execute_unknown_operation_name_is_request_error(upstream):
    wrapper = linked_wrapper(upstream)
    doc = parse_query('query A { user(id: "x") { id } }')
    with pytest.raises(RequestFailed):
        executor_for(wrapper).execute(doc, "B", None)


def test_execute_deterministic_repeat(upstream):
    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N", "employerId": "e"})
    upstream.static("GET", "/company/{companyName}", {"companyName": "C", "city": "Y"})
    wrapper = linked_wrapper(upstream)
    results = [run(wrapper, FIG2_QUERY).data for _ in range(3)]
    assert results[0] == results[1] == results[2]


def test_execute_list_completion(upstream):
    upstream.static("GET", "/users", [{"id": "a"}, {"id": "b"}])
    wrapper = build(
        {"/users": get_path({"type": "array",
                             "items": {"$ref": "#/components/schemas/User"}})},
        {"schemas": {"User": {"type": "object", "properties": {"id": {"type": "string"}}}}},
        servers=[{"url": upstream.base_url}],
    )
    result = run(wrapper, "{ getUsers { id } }")
    assert result.data == {"getUsers": [{"id": "a"}, {"id": "b"}]}


def test_execute_fragments_and_variables(upstream):
    upstream.static("GET", "/user/{id}", {"id": "v1", "name": "Via", "employerId": "e"})
    wrapper = linked_wrapper(upstream)
    query = """
        query Q($who: String!) { user(id: $who) { ...bits } }
        fragment bits on User { id name }
    """
    result = run(wrapper, query, variables={"who": "v1"})
    assert result.data == {"user": {"id": "v1", "name": "Via"}}


def test_execute_sibling_concurrency_bounded(upstream):
    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N", "employerId": "e"})
    wrapper = linked_wrapper(upstream)
    query = '{ a: user(id: "1") { id } b: user(id: "2") { id } c: user(id: "3") { id } }'
    result = run(wrapper, query, max_parallel=2)
    assert set(result.data) == {"a", "b", "c"}
    assert sorted(upstream.paths_seen) == ["/user/1", "/user/2", "/user/3"]


def test_execute_enum_output_mapped(upstream):
    upstream.static("GET", "/items", {"sort": "asc"})
    wrapper = build({"/items": get_path({"type": "object", "properties": {
        "sort": {"type": "string", "enum": ["asc", "desc"]}}})},
        servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ getItems { sort } }")
    assert result.data == {"getItems": {"sort": "asc"}}


def test_execute_string_fallback_stringifies(upstream):
    upstream.static("GET", "/blob", {"anything": [1, 2]})
    wrapper = build({"/blob": get_path({})}, servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ getBlob }")
    assert result.errors == []
    assert json.loads(result.data["getBlob"]) == {"anything": [1, 2]}


def test_execute_int_overflow_surfaces_float(upstream):
    upstream.static("GET", "/big", {"n": 2**40})
    wrapper = build({"/big": get_path({"type": "object", "properties": {
        "n": {"type": "integer"}}})}, servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ getBig { n } }")
    assert result.data == {"getBig": {"n": float(2**40)}}


def test_execute_any_auth_viewer_credential_groups(upstream):
    def check_key(request, params):
        assert request.headers.get("X-Api-Key") == "k-1"
        return {"v": "a"}

    def check_basic(request, params):
        assert request.headers.get("Authorization", "").startswith("Basic ")
        return {"v": "b"}

    upstream.route("GET", "/a", check_key)
    upstream.route("GET", "/b", check_basic)
    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {
            "/a": {"get": {"security": [{"key1": []}],
                           "responses": {"200": {"description": "ok", "content": {
                               "application/json": {"schema": {
                                   "$ref": "#/components/schemas/Thing"}}}}}}},
            "/b": {"get": {"security": [{"basicAuth": []}],
                           "responses": {"200": {"description": "ok", "content": {
                               "application/json": {"schema": {
                                   "$ref": "#/components/schemas/Thing"}}}}}}},
        },
        "components": {
            "schemas": {"Thing": {"type": "object",
                                  "properties": {"v": {"type": "string"}}}},
            "securitySchemes": {
                "key1": {"type": "apiKey", "name": "X-Api-Key", "in": "header"},
                "basicAuth": {"type": "http", "scheme": "basic"},
            },
        },
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok
    query = """
    {
      viewerAnyAuth(
        key1: {apiKey: "k-1"}
        basicAuth: {username: "u", password: "p"}
      ) {
        a: thing { v }
        b: thing2 { v }
      }
    }
    """
    result = run(wrapper, query)
    assert result.errors == []
    assert result.data == {"viewerAnyAuth": {"a": {"v": "a"}, "b": {"v": "b"}}}


def test_any_auth_schemes_that_sanitize_alike_keep_their_own_credentials(upstream):
    from graphql import build_schema

    seen = []
    upstream.route("GET", "/b", lambda request, params: (
        seen.append(request.headers.get("Authorization")) or {"v": "b"}))
    ok = {"200": {"description": "ok", "content": {"application/json": {
        "schema": {"$ref": "#/components/schemas/Thing"}}}}}
    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {f"/{path}": {"get": {"security": [{scheme: []}], "responses": ok}}
                  for path, scheme in (("a", "api_key"), ("b", "api-key"), ("c", "apiKey"))},
        "components": {
            "schemas": {"Thing": {"type": "object", "properties": {"v": {"type": "string"}}}},
            "securitySchemes": {
                "api_key": {"type": "apiKey", "name": "X-Api-Key", "in": "header"},
                "api-key": {"type": "http", "scheme": "basic"},
                "apiKey": {"type": "apiKey", "name": "key", "in": "query"},
            },
        },
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok, wrapper.report.error_message
    schema = build_schema(wrapper.sdl)
    any_auth = schema.query_type.fields["viewerAnyAuth"]
    arg_types = {name: str(arg.type) for name, arg in any_auth.args.items()}
    assert arg_types == {"apiKey": "ApiKeyCredentials", "apiKey2": "ApiKeyCredentials2",
                         "apiKey3": "ApiKeyCredentials3"}
    assert set(schema.type_map["ApiKeyCredentials"].fields) == {"apiKey"}
    assert set(schema.type_map["ApiKeyCredentials2"].fields) == {"username", "password"}
    assert set(schema.type_map["ApiKeyCredentials3"].fields) == {"apiKey"}

    result = run(wrapper, '{ viewerAnyAuth(apiKey2: {username: "u", password: "p"}) '
                          '{ thing2 { v } } }')
    assert result.errors == []
    assert result.data == {"viewerAnyAuth": {"thing2": {"v": "b"}}}
    assert seen == ["Basic " + base64.b64encode(b"u:p").decode()]


def test_execute_mutation_root_fields_serial_in_order(upstream):
    upstream.static("POST", "/jobs", {"id": "j"})
    wrapper = build({"/jobs": {"post": {
        "operationId": "createJob",
        "responses": {"201": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
    }}}, servers=[{"url": upstream.base_url}])
    field = next(iter(wrapper.schema.mutation_fields))
    result = run(wrapper, "mutation { one: %s { id } two: %s { id } }" % (field, field))
    assert result.errors == []
    assert list(result.data) == ["one", "two"]
    assert upstream.paths_seen == ["/jobs", "/jobs"]


def test_execute_mutation_viewer_fields_serial_in_order():
    import time

    aliases = ["one", "two", "three"]

    class SlowFirstPost(HttpClient):
        """Answers every POST itself; the first alias's POST arrives late."""

        def __init__(self):
            super().__init__(timeout=5)
            self.tags: list[str] = []

        def send(self, spec):
            tag = spec.sent["query"]["tag"]
            if tag == aliases[0]:
                time.sleep(0.2)
            self.tags.append(tag)
            return 201, {}, json.dumps({"id": tag}).encode()

    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://api.example.com"}],
        "paths": {"/jobs": {"post": {
            "operationId": "createJob",
            "security": [{"basicAuth": []}],
            "parameters": [{"name": "tag", "in": "query", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"201": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
        }}},
        "components": {"securitySchemes": {"basicAuth": {"type": "http", "scheme": "basic"}}},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok, wrapper.report.error_message
    creates = " ".join('%s: postJobs(tag: "%s") { id }' % (a, a) for a in aliases)
    doc = parse_query('mutation { mutationViewerBasicAuth(username: "u", password: "p") '
                      '{ %s } }' % creates)
    assert validate_query(doc, wrapper.schema) == []
    client = SlowFirstPost()
    executor = Executor(wrapper.schema, wrapper.plans, client)
    result = executor.execute(doc, None, None)
    assert result.errors == []
    assert client.tags == aliases
    assert list(result.data["mutationViewerBasicAuth"]) == aliases


def test_response_shape_matches_query_shape(upstream):
    upstream.static("GET", "/user/{id}",
                    {"id": "x", "name": "N", "employerId": "e", "extra": "ignored"})
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ renamed: user(id: "x") { theId: id name } }')
    assert result.data == {"renamed": {"theId": "x", "name": "N"}}


def test_no_credentials_in_default_verbosity_logs(upstream, caplog):
    import logging

    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N", "employerId": "e"})
    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {"/user/{id}": {"get": {
            "security": [{"key1": []}],
            "parameters": [{"name": "id", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
        }}},
        "components": {"securitySchemes": {
            "key1": {"type": "apiKey", "name": "X-Api-Key", "in": "query"}}},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok
    with caplog.at_level(logging.WARNING):
        result = run(wrapper,
                     '{ viewerKey1(apiKey: "TOPSECRET") { getUserId(id: "x") { id } } }')
    assert result.errors == []
    for record in caplog.records:
        assert "TOPSECRET" not in record.getMessage()
    spec_urls = [r.path for r in upstream.requests]
    assert all("TOPSECRET" not in p for p in spec_urls)  # key went to query string only


def test_non_null_field_error_bubbles_to_parent(upstream):
    upstream.static("GET", "/must", {"other": "x"})  # required "id" absent
    wrapper = build({"/must": get_path({
        "type": "object", "required": ["id"],
        "properties": {"id": {"type": "string"}, "other": {"type": "string"}},
    })}, servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ getMust { id other } }")
    assert result.data == {"getMust": None}
    assert any("non-null" in e["message"] for e in result.errors)
    assert result.errors[0]["path"] == ["getMust", "id"]


def test_execute_placeholder_resolves_null(upstream):
    wrapper = build({"/jobs": {"post": {
        "responses": {"201": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
    }}}, servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ placeholder }")
    assert result.data == {"placeholder": None}
    assert result.errors == []


# -- completion from raw upstream JSON ---------------------------------------------------


def test_list_item_links_resolve_against_each_item(upstream):
    users = [{"id": "a", "employerId": "ibm"}, {"id": "b", "employerId": "sap"},
             {"id": "c", "employerId": "ibm"}]
    cities = {"ibm": "Armonk", "sap": "Walldorf"}
    upstream.static("GET", "/users", users)
    upstream.static("GET", "/user/{id}", users[1])
    upstream.route("GET", "/company/{companyName}",
                   lambda req, p: {"companyName": p["companyName"],
                                   "city": cities[p["companyName"]]})
    paths = dict(LINKED_PATHS, **{"/users": get_path(
        {"type": "array", "items": {"$ref": "#/components/schemas/User"}})})
    wrapper = build(paths, LINKED_COMPONENTS, servers=[{"url": upstream.base_url}])

    result = run(wrapper, "{ getUsers { id employerCompany { city } } }")
    assert result.errors == []
    assert result.data == {"getUsers": [
        {"id": "a", "employerCompany": {"city": "Armonk"}},
        {"id": "b", "employerCompany": {"city": "Walldorf"}},
        {"id": "c", "employerCompany": {"city": "Armonk"}},
    ]}
    assert upstream.paths_seen == ["/users", "/company/ibm", "/company/sap", "/company/ibm"]

    result = run(wrapper, '{ user(id: "b") { employerCompany { city } } }')
    assert result.errors == []
    assert result.data == {"user": {"employerCompany": {"city": "Walldorf"}}}


def colliding_wrapper(base_url):
    """A{aB, a_b, child: B{a_b}}: A.a_b is aB2 while B.a_b is aB."""
    def response(schema):
        return {"200": {"description": "ok", "content": {"application/json": {
            "schema": schema}}}}

    a_ref = {"$ref": "#/components/schemas/A"}
    return build(
        {"/a": {
            "get": {"responses": response(a_ref)},
            "post": {"requestBody": {"required": True, "content": {
                         "application/json": {"schema": a_ref}}},
                     "responses": response({"type": "object", "properties": {
                         "ok": {"type": "boolean"}}})},
        }},
        {"schemas": {
            "A": {"type": "object", "properties": {
                "aB": {"type": "string"}, "a_b": {"type": "string"},
                "child": {"$ref": "#/components/schemas/B"}}},
            "B": {"type": "object", "properties": {"a_b": {"type": "string"}}},
        }},
        servers=[{"url": base_url}],
    )


def test_nested_key_is_not_renamed_by_ancestor_mapping(upstream):
    upstream.static("GET", "/a", {"aB": "TOP", "a_b": "UNDER", "child": {"a_b": "CHILD"}})
    wrapper = colliding_wrapper(upstream.base_url)
    result = run(wrapper, "{ a { aB aB2 child { aB } } }")
    assert result.errors == []
    assert result.data == {"a": {"aB": "TOP", "aB2": "UNDER", "child": {"aB": "CHILD"}}}


def test_nested_payload_key_is_not_renamed_by_ancestor_mapping(upstream):
    upstream.static("POST", "/a", {"ok": True})
    wrapper = colliding_wrapper(upstream.base_url)
    result = run(wrapper, 'mutation { postA(a: {aB: "TOP", aB2: "UNDER", '
                          'child: {aB: "CHILD"}}) { ok } }')
    assert result.errors == []
    assert upstream.requests[0].json() == {"aB": "TOP", "a_b": "UNDER",
                                           "child": {"a_b": "CHILD"}}


ITEM_COMPONENTS = {"schemas": {
    "Item": {"type": "object", "required": ["id"], "properties": {
        "id": {"type": "string"}, "n": {"type": "integer"},
        "sort": {"type": "string", "enum": ["up-down", "flat"]},
        "tags": {"type": "array", "items": {"type": "string"}},
        "box": {"type": "object", "properties": {"w-d": {"type": "integer"}}},
        "sorts": {"type": "array", "items": {"type": "string", "enum": ["up-down", "flat"]}},
        "ns": {"type": "array", "items": {"type": "integer"}},
        "boxes": {"type": "array", "items": {
            "type": "object", "properties": {"w-d": {"type": "integer"}}}}}},
}}

ITEMS = [
    {"id": "i0", "n": 7, "sort": "up-down", "tags": ["a"], "box": {"w-d": 1},
     "sorts": ["flat", "up-down"], "ns": [1, -2], "boxes": [{"w-d": 2}, {"w-d": 3}]},
    {"n": 8, "sort": "flat", "boxes": []},  # required id absent: the item bubbles to null
    {"id": "i2", "n": "12", "sort": "sideways", "tags": [3, None],  # Int as string, bad enum
     "sorts": ["flat", "sideways"], "ns": [1, 2**31], "boxes": [None, "x", {"w-d": True}]},
    {"id": "i3", "n": 2**40, "box": {"w-d": "x"},  # Int overflow, Int as string in a child
     "sorts": "flat", "ns": [True, None], "boxes": {"w-d": 1}, "extra": 1},
]


def execute_items(query, general=False, items=ITEMS):
    """Complete a query over items, optionally with every field forced
    through the general path."""
    wrapper = build({"/items": get_path(
        {"type": "array", "items": {"$ref": "#/components/schemas/Item"}})}, ITEM_COMPONENTS)
    doc = parse_query(query)
    assert validate_query(doc, wrapper.schema) == []
    if general:
        general_path(doc)
    executor = Executor(wrapper.schema, wrapper.plans, CannedClient(items))
    return executor.execute(doc, None, None).to_payload()


ITEMS_QUERY = """
{ getItems { k: id n ...F sort tags box { wD } id } }
fragment F on Item { n k: id }
"""


def test_leaf_path_matches_general_path_on_list_items():
    leaf = execute_items(ITEMS_QUERY)
    general = execute_items(ITEMS_QUERY, general=True)
    assert leaf == general
    assert leaf["data"] == {"getItems": [
        {"k": "i0", "n": 7, "sort": "upDown", "tags": ["a"], "box": {"wD": 1}, "id": "i0"},
        None,
        {"k": "i2", "n": None, "sort": None, "tags": ["3", None], "box": None, "id": "i2"},
        {"k": "i3", "n": float(2**40), "sort": None, "tags": None, "box": {"wD": None},
         "id": "i3"},
    ]}
    assert [(e["message"], e["path"]) for e in leaf["errors"]] == [
        ("field 'k' of non-null type resolved to null", ["getItems", 1, "k"]),
        ("field 'id' of non-null type resolved to null", ["getItems", 1, "id"]),
        ("upstream value '12' is not an Int", ["getItems", 2, "n"]),
        ("upstream value 'sideways' is not a value of enum Sort", ["getItems", 2, "sort"]),
        ("upstream value 'x' is not an Int", ["getItems", 3, "box", "wD"]),
    ]
    assert all(e["locations"] for e in leaf["errors"])


SHAPES_QUERY = "{ getItems { sorts ns boxes { wD } tags box { wD } } }"
# Values that fit no shape: an object that is a list, a list holding an Int
# beyond 32 bits, an Int in a String list and a null enum.
SHAPE_ITEMS = ITEMS + [{"box": [1], "boxes": [{"w-d": 2**31}], "tags": ["x", 5],
                        "sorts": [None], "ns": []}]


@pytest.mark.parametrize("debug", [False, True], ids=["info", "debug"])
def test_inline_shapes_match_general_path(debug, caplog):
    caplog.set_level(logging.DEBUG if debug else logging.INFO, logger="oaswrap.engine")
    for query in (ITEMS_QUERY, SHAPES_QUERY):
        caplog.clear()
        inline = execute_items(query, items=SHAPE_ITEMS)
        inline_log = caplog.messages[:]
        caplog.clear()
        general = execute_items(query, general=True, items=SHAPE_ITEMS)
        # As JSON, since 2**40 == float(2**40).
        assert json.dumps(inline) == json.dumps(general)
        assert inline_log == caplog.messages
        assert any("dropped" in m for m in inline_log) == debug
    assert inline["data"] == {"getItems": [
        {"sorts": ["flat", "upDown"], "ns": [1, -2], "boxes": [{"wD": 2}, {"wD": 3}],
         "tags": ["a"], "box": {"wD": 1}},
        {"sorts": None, "ns": None, "boxes": [], "tags": None, "box": None},
        {"sorts": ["flat", None], "ns": [1, float(2**31)], "boxes": [None, None, {"wD": None}],
         "tags": ["3", None], "box": None},
        {"sorts": None, "ns": [None, None], "boxes": None, "tags": None, "box": {"wD": None}},
        {"sorts": [None], "ns": [], "boxes": [{"wD": float(2**31)}], "tags": ["x", "5"],
         "box": None},
    ]}
    assert [(e["message"], e["path"]) for e in inline["errors"]] == [
        ("upstream value 'sideways' is not a value of enum Sort", ["getItems", 2, "sorts", 1]),
        ("expected an object for field 'boxes', got str", ["getItems", 2, "boxes", 1]),
        ("upstream value True is not an Int", ["getItems", 2, "boxes", 2, "wD"]),
        ("expected a list for field 'sorts', got str", ["getItems", 3, "sorts"]),
        ("upstream value True is not an Int", ["getItems", 3, "ns", 0]),
        ("expected a list for field 'boxes', got dict", ["getItems", 3, "boxes"]),
        ("upstream value 'x' is not an Int", ["getItems", 3, "box", "wD"]),
        ("expected an object for field 'box', got list", ["getItems", 4, "box"]),
    ]


def test_selection_sets_compile_once_per_query(monkeypatch):
    calls = []
    collect = validation._Walk._collect

    def counting(self, lists, parent, depth):
        calls.append(parent.name)
        return collect(self, lists, parent, depth)

    monkeypatch.setattr(validation._Walk, "_collect", counting)
    items = [{"id": f"i{n}", "n": n, "box": {"w-d": n}} for n in range(200)]
    wrapper = build({"/items": get_path(
        {"type": "array", "items": {"$ref": "#/components/schemas/Item"}})}, ITEM_COMPONENTS)
    executor = Executor(wrapper.schema, wrapper.plans, CannedClient(items))
    query = "{ getItems { id n box { wD } } }"
    for _ in range(2):  # unvalidated documents: execute runs the same walk
        result = executor.execute(parse_query(query), None, None)
        assert result.errors == [] and len(result.data["getItems"]) == 200
    # The root, item and box selection sets: once each per query.
    assert sorted(calls) == sorted(["Query", "Item", "Box"] * 2)
    doc = parse_query(query)
    assert validate_query(doc, wrapper.schema) == []
    executor.execute(doc, None, None)
    assert len(calls) == 9  # execute reuses what validation compiled


def test_non_integral_upstream_number_for_int_is_a_field_error():
    wrapper = build({"/x": get_path({"type": "object", "properties": {
        "n": {"type": "integer"}, "m": {"type": "integer"}, "ns": {
            "type": "array", "items": {"type": "integer"}}}})})
    body = {"n": 3.7, "m": 3.0, "ns": [1, 2.5, 4.0]}
    executor = Executor(wrapper.schema, wrapper.plans, CannedClient(body))
    result = executor.execute(parse_query("{ getX { n m ns } }"), None, None)
    assert result.data == {"getX": {"n": None, "m": 3, "ns": [1, None, 4]}}
    assert [(e["path"], e["message"]) for e in result.errors] == [
        (["getX", "n"], "upstream value 3.7 is not an Int"),
        (["getX", "ns", 1], "upstream value 2.5 is not an Int"),
    ]
    assert type(result.data["getX"]["m"]) is int

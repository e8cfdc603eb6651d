"""Loading, version detection, 2.0 upconversion, validation, reference
resolution, and allOf merging."""

import copy
import json
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, intermediates
from oaswrap import oas_ingest
from oaswrap.errors import InvalidOasError, MissingRefError, ParseError, UpconvertError
from oaswrap.oas_ingest import (
    OasDocument,
    SchemaObject,
    convert_v2_dict,
    detect_version,
    escape_pointer_token,
    ingest,
    load_document,
    member,
    normalize,
    parse_schema,
    template_params,
    upconvert,
    validate,
)
from oaswrap.generator import GenerationOptions, generate
from oaswrap.report import ERROR_KINDS, Report, STRICT
from oaswrap.errors import StrictModeAbort


def make_doc(paths=None, components=None, servers=None, title="T", version="1.0.0",
             report=None) -> OasDocument:
    root = {
        "openapi": "3.0.0",
        "info": {"title": title, "version": version},
        "servers": servers or [{"url": "https://api.example.com"}],
        "paths": paths or {},
    }
    if components:
        root["components"] = components
    return normalize(root, report or Report(source="<test>"))


# -- load_document -----------------------------------------------------------


def test_load_json_document():
    raw = load_document(b'{"swagger": "2.0", "info": {}}')
    assert raw["swagger"] == "2.0"


def test_load_truncated_json_is_parse_error():
    with pytest.raises(ParseError):
        load_document(b'{"swagger":')


def test_load_yaml_autodetected():
    raw = load_document(b"openapi: 3.0.0\ninfo:\n  title: Y\n")
    assert raw["openapi"] == "3.0.0"


def test_load_scalar_root_rejected():
    with pytest.raises(ParseError):
        load_document(b"just a string")


def test_load_empty_rejected():
    with pytest.raises(ParseError):
        load_document(b"   ")


def test_yaml_anchors_are_expanded():
    text = b"openapi: 3.0.0\nx-shared: &s {a: 1}\nother: *s\n"
    raw = load_document(text, format_hint="yaml")
    assert raw["other"] == {"a": 1}


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parent / "fixtures" / "corpus").glob("*.yaml")), ids=lambda p: p.name)
def test_yaml_loader_matches_pure_python_safe_loader(path):
    text = path.read_text(encoding="utf-8")
    assert load_document(text, format_hint="yaml") == yaml.load(text, Loader=yaml.SafeLoader)


# -- detect_version ------------------------------------------------------------


def test_detect_v2():
    assert detect_version(load_document(b'{"swagger": "2.0"}')) == "v2"


def test_detect_v3():
    assert detect_version(load_document(b'{"openapi": "3.0.0"}')) == "v3"
    assert detect_version(load_document(b'{"openapi": "3.1.0"}')) == "v3"


def test_detect_unknown():
    assert detect_version(load_document(b'{"info": {}}')) == "unknown"


def test_ingest_unknown_version_is_invalid_oas():
    with pytest.raises(InvalidOasError):
        ingest(load_document(b'{"info": {}}'), Report(source="x"))


# -- upconvert: expected values frozen from a reference v2->v3 converter run ----


V2_MIN = {
    "swagger": "2.0",
    "info": {"title": "Pets", "version": "1.0.0"},
    "host": "api.example.com",
    "basePath": "/v2",
    "schemes": ["https", "http"],
    "paths": {
        "/pets": {
            "post": {
                "operationId": "createPet",
                "consumes": ["application/json"],
                "parameters": [{"name": "pet", "in": "body", "required": True,
                                "schema": {"$ref": "#/definitions/Pet"}}],
                "responses": {"200": {"description": "ok",
                                      "schema": {"$ref": "#/definitions/Pet"}}},
            },
        },
    },
    "definitions": {
        "Pet": {"type": "object", "required": ["name"],
                "properties": {"name": {"type": "string"}, "tag": {"type": "string"}}},
    },
    "securityDefinitions": {
        "keyAuth": {"type": "apiKey", "name": "X-Api-Key", "in": "header"},
        "basicAuth": {"type": "basic"},
    },
}


def test_upconvert_server_from_host_basepath_schemes():
    # Reference converter output for the same fixture: first server URL is
    # "https://api.example.com/v2" (one entry per scheme; we keep the first).
    converted = convert_v2_dict(V2_MIN)
    assert converted["servers"] == [{"url": "https://api.example.com/v2"}]


def test_upconvert_body_param_to_request_body():
    converted = convert_v2_dict(V2_MIN)
    body = converted["paths"]["/pets"]["post"]["requestBody"]
    # Frozen from the reference converter: content keyed by the consumes media
    # type, schema preserved (ref rewritten), required hoisted.
    assert body["required"] is True
    assert body["content"]["application/json"]["schema"] == {
        "$ref": "#/components/schemas/Pet"
    }


def test_upconvert_definitions_and_security():
    converted = convert_v2_dict(V2_MIN)
    assert converted["components"]["schemas"]["Pet"]["required"] == ["name"]
    schemes = converted["components"]["securitySchemes"]
    assert schemes["keyAuth"] == {"type": "apiKey", "name": "X-Api-Key", "in": "header"}
    assert schemes["basicAuth"] == {"type": "http", "scheme": "basic"}


def test_upconvert_formdata_to_urlencoded_body():
    # Frozen from the reference converter run on the formData fixture.
    v2 = {
        "swagger": "2.0",
        "info": {"title": "Form", "version": "1.0.0"},
        "host": "api.example.com",
        "paths": {"/upload": {"post": {
            "operationId": "upload",
            "produces": ["application/json"],
            "parameters": [
                {"name": "field-one", "in": "formData", "type": "string", "required": True},
                {"name": "count", "in": "formData", "type": "integer"},
            ],
            "responses": {"201": {"description": "ok", "schema": {
                "type": "object", "properties": {"ok": {"type": "boolean"}}}}},
        }}},
    }
    converted = convert_v2_dict(v2)
    body = converted["paths"]["/upload"]["post"]["requestBody"]
    schema = body["content"]["application/x-www-form-urlencoded"]["schema"]
    assert schema == {
        "type": "object",
        "properties": {"field-one": {"type": "string"}, "count": {"type": "integer"}},
        "required": ["field-one"],
    }
    assert body["required"] is True
    response = converted["paths"]["/upload"]["post"]["responses"]["201"]
    assert "application/json" in response["content"]


def test_upconvert_no_definitions_gives_empty_components():
    v2 = {"swagger": "2.0", "info": {"title": "X", "version": "0"}, "paths": {}}
    doc = upconvert(load_document(json.dumps(v2).encode()))
    assert doc.raw_root["components"] == {}
    assert doc.operations == []


def test_upconvert_rejects_two_body_params():
    v2 = {
        "swagger": "2.0", "info": {"title": "X", "version": "0"},
        "paths": {"/x": {"post": {
            "parameters": [
                {"name": "a", "in": "body", "schema": {}},
                {"name": "b", "in": "body", "schema": {}},
            ],
            "responses": {"200": {"description": "ok"}},
        }}},
    }
    with pytest.raises(UpconvertError):
        convert_v2_dict(v2)


def test_upconvert_leaves_its_input_as_it_was():
    # The converted document shares no container with the caller's, so
    # rewriting its references leaves the 2.0 document pointing at
    # #/definitions.
    v2 = copy.deepcopy(V2_MIN)
    v2["paths"]["/pets"]["get"] = {
        "produces": ["application/json", "application/xml"],
        "responses": {"200": {"description": "ok", "schema": {
            "type": "array", "items": {"$ref": "#/definitions/Pet"}}}}}
    v2["definitions"]["Owner"] = {"type": "object", "properties": {
        "pet": {"$ref": "#/definitions/Pet"}}}
    before = copy.deepcopy(v2)
    converted = convert_v2_dict(v2)
    assert v2 == before
    assert converted["components"]["schemas"]["Owner"]["properties"]["pet"] == {
        "$ref": "#/components/schemas/Pet"}
    upconvert(v2)
    assert v2 == before


def test_upconverted_doc_passes_validate():
    doc = upconvert(load_document(json.dumps(V2_MIN).encode()))
    assert validate(doc) == []


# -- validate -----------------------------------------------------------------


def test_validate_minimal_doc_clean():
    doc = make_doc(paths={"/x": {"get": {"responses": {"200": {
        "description": "ok",
        "content": {"application/json": {"schema": {"type": "string"}}}}}}}})
    assert validate(doc) == []


def test_validate_undeclared_path_param_is_fatal():
    # Checked by hand against the OpenAPI 3.0 path-templating rules: every
    # template expression must have a corresponding declared path parameter.
    doc = make_doc(paths={"/users/{id}": {"get": {"responses": {"200": {
        "description": "ok",
        "content": {"application/json": {"schema": {"type": "string"}}}}}}}})
    assert validate(doc) == [
        "path parameter {id} of GET /users/{id} must be declared exactly once (found 0) "
        "(at #/paths/~1users~1{id}/get)"]


def test_validate_missing_title_is_fatal():
    # OpenAPI 3.0 required fields: info.title and info.version.
    doc = make_doc(title=None)
    assert validate(doc) == ["info.title is required (at #/info/title)"]


def test_validate_bad_status_pattern_is_fatal():
    doc = make_doc(paths={"/x": {"get": {"responses": {"20": {"description": "?"}}}}})
    assert validate(doc) == [
        "response key '20' is not a 3-digit code, wildcard pattern, or 'default' "
        "(at #/paths/~1x/get/responses/20)"]


# -- resolve_ref ---------------------------------------------------------------


def test_resolve_ref_components_schema():
    doc = make_doc(components={"schemas": {"User": {"type": "object", "properties": {
        "id": {"type": "string"}}}}})
    schema = doc.resolve_ref("#/components/schemas/User")
    assert schema.type == "object"
    assert "id" in schema.properties


def test_resolve_ref_memoized_identity():
    doc = make_doc(components={"schemas": {"User": {"type": "object", "properties": {
        "id": {"type": "string"}}}}})
    first = doc.resolve_ref("#/components/schemas/User")
    second = doc.resolve_ref("#/components/schemas/User")
    assert first is second


def test_resolve_ref_external_document_is_missing_ref():
    doc = make_doc()
    with pytest.raises(MissingRefError):
        doc.resolve_ref("./other.json#/Foo")


def test_resolve_ref_absent_target_is_missing_ref():
    doc = make_doc()
    with pytest.raises(MissingRefError):
        doc.resolve_ref("#/components/schemas/Nope")


def test_resolve_ref_cycle_returns_self_referential_handle():
    doc = make_doc(components={"schemas": {"Node": {
        "type": "object",
        "properties": {"next": {"$ref": "#/components/schemas/Node"}},
    }}})
    node = doc.resolve_ref("#/components/schemas/Node")
    assert doc.deref(node.properties["next"]) is node


# -- merge_all_of -----------------------------------------------------------------


def brute_force_merge(members):
    """Independent oracle: plain dict union with later-wins override."""
    props = {}
    required = set()
    for member in members:
        props.update(member.get("properties", {}))
        required |= set(member.get("required", []))
    return props, sorted(required)


def test_merge_all_of_union():
    members = [
        {"type": "object", "properties": {"a": {"type": "string"}}},
        {"type": "object", "properties": {"b": {"type": "integer"}}},
    ]
    expected_props, expected_required = brute_force_merge(members)
    schema = parse_schema({"allOf": members}, "#/x")
    doc = make_doc()
    merged = doc.merge_all_of(schema, Report(source="<test>"))
    assert merged.type == "object"
    assert set(merged.properties) == set(expected_props)
    assert merged.properties["a"].type == "string"
    assert merged.properties["b"].type == "integer"
    assert merged.required == expected_required


def test_merge_all_of_single_member_identity():
    inner = {"type": "object", "properties": {"only": {"type": "string"}}}
    schema = parse_schema({"allOf": [inner]}, "#/x")
    doc = make_doc()
    merged = doc.merge_all_of(schema, Report(source="<test>"))
    assert merged.type == "object"
    assert set(merged.properties) == {"only"}


def test_merge_all_of_conflict_non_strict_falls_back_to_string():
    members = [
        {"type": "object", "properties": {"a": {"type": "string"}}},
        {"type": "object", "properties": {"a": {"type": "integer"}}},
    ]
    schema = parse_schema({"allOf": members}, "#/x")
    doc = make_doc()
    report = Report(source="<test>")
    merged = doc.merge_all_of(schema, report)
    assert merged.properties["a"].type == "string"
    assert [w.kind for w in report.warnings] == ["InvalidSchemaType"]


def test_merge_all_of_conflict_strict_aborts():
    members = [
        {"type": "object", "properties": {"a": {"type": "string"}}},
        {"type": "object", "properties": {"a": {"type": "integer"}}},
    ]
    schema = parse_schema({"allOf": members}, "#/x")
    doc = make_doc()
    with pytest.raises(StrictModeAbort):
        doc.merge_all_of(schema, Report(source="<test>", mode=STRICT))


@pytest.mark.parametrize("schemas, pointer", [
    ({"L": {"allOf": [{"$ref": "#/components/schemas/L"}]}}, "#/components/schemas/L"),
    ({"A": {"allOf": [{"$ref": "#/components/schemas/B"}]},
      "B": {"allOf": [{"$ref": "#/components/schemas/A"}]}}, "#/components/schemas/A"),
])
@pytest.mark.parametrize("strict", [False, True])
def test_circular_all_of_falls_back_to_string(schemas, pointer, strict):
    root = json.loads(json.dumps(_MINIMAL_V3))
    root["components"] = {"schemas": schemas}
    _replace(root, _SCHEMA + ("properties", "id"), {"$ref": pointer})
    report = generate(json.dumps(root).encode(), GenerationOptions(strict=strict)).report
    if strict:
        assert report.error_kind == "InvalidSchemaType"
        assert pointer in report.error_message
    else:
        assert report.outcome == "success"
        assert [(w.kind, w.location, w.mitigation) for w in report.warnings] == [
            ("InvalidSchemaType", pointer, "schema lacks a type; falling back to string")]


def test_circular_all_of_keeps_the_other_members():
    doc = make_doc(components={"schemas": {"L": {"allOf": [
        {"$ref": "#/components/schemas/L"},
        {"type": "object", "properties": {"a": {"type": "string"}}},
    ]}}})
    merged = doc.merge_all_of(doc.resolve_ref("#/components/schemas/L"), Report(source="<test>"))
    assert merged.type == "object" and set(merged.properties) == {"a"}


# -- normalization details ------------------------------------------------------


def test_cookie_parameter_warned_and_ignored():
    report = Report(source="<test>")
    doc = make_doc(paths={"/x": {"get": {
        "parameters": [{"name": "sid", "in": "cookie", "schema": {"type": "string"}}],
        "responses": {"200": {"description": "ok", "content": {
            "application/json": {"schema": {"type": "string"}}}}},
    }}}, report=report)
    assert doc.operations[0].parameters == []
    assert [w.kind for w in report.warnings] == ["UnsupportedFeature"]


def test_path_level_parameters_are_merged():
    doc = make_doc(paths={"/u/{id}": {
        "parameters": [{"name": "id", "in": "path", "required": True,
                        "schema": {"type": "string"}}],
        "get": {"responses": {"200": {"description": "ok", "content": {
            "application/json": {"schema": {"type": "string"}}}}}},
    }})
    op = doc.operations[0]
    assert [p.name for p in op.parameters] == ["id"]
    assert op.parameters[0].required is True


def test_content_negotiation_prefers_json():
    doc = make_doc(paths={"/x": {"get": {"responses": {"200": {
        "description": "ok",
        "content": {
            "text/plain": {"schema": {"type": "string"}},
            "application/json": {"schema": {"type": "integer"}},
        },
    }}}}})
    response = doc.operations[0].responses["200"]
    assert response.content_type == "application/json"
    assert response.schema.type == "integer"


def test_content_negotiation_accepts_json_variant():
    doc = make_doc(paths={"/x": {"get": {"responses": {"200": {
        "description": "ok",
        "content": {"application/hal+json": {"schema": {"type": "string"}}},
    }}}}})
    assert doc.operations[0].responses["200"].content_type == "application/hal+json"


def test_unique_path_method_pairs():
    doc = make_doc(paths={
        "/a": {"get": {"responses": {"200": {"description": "ok", "content": {
            "application/json": {"schema": {"type": "string"}}}}}},
               "post": {"responses": {"200": {"description": "ok", "content": {
                   "application/json": {"schema": {"type": "string"}}}}}}},
    })
    keys = [op.key for op in doc.operations]
    assert len(keys) == len(set(keys)) == 2


def test_find_operation_by_id_takes_the_first_declaration():
    ok = {"responses": {"200": {"description": "ok", "content": {
        "application/json": {"schema": {"type": "string"}}}}}}
    doc = make_doc(paths={"/a": {"get": {**ok, "operationId": "dup"}},
                          "/b": {"get": {**ok, "operationId": "dup"},
                                 "post": {**ok, "operationId": "other"}}})
    assert doc.find_operation(operation_id="dup").path == "/a"
    assert doc.find_operation(operation_id="other").key == "POST /b"
    assert doc.find_operation(method="get", path="/b").operation_id == "dup"
    assert doc.find_operation(operation_id="missing") is None
    assert doc.find_operation(method="put", path="/a") is None


def test_template_params():
    assert template_params("/user/{id}/pets/{petId}") == ["id", "petId"]
    assert template_params("/plain") == []


# -- malformed members ------------------------------------------------------------

_MINIMAL_V3 = {
    "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
    "servers": [{"url": "https://api.example.com"}],
    "paths": {"/pets/{id}": {"get": {
        "operationId": "getPet",
        "parameters": [{"name": "id", "in": "path", "required": True,
                        "schema": {"type": "string"}}],
        "responses": {"200": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "required": ["id"],
                       "properties": {"id": {"type": "string"}}}}}}},
    }}},
}
_MINIMAL_V2 = {
    "swagger": "2.0", "info": {"title": "T", "version": "1"}, "host": "api.example.com",
    "paths": {"/pets": {"get": {"responses": {"200": {
        "description": "ok", "schema": {"type": "string"}}}}}},
}


class _Key:
    """A replacement of the key, not the value, at a path: the member moves
    to this key (a member of a list stays)."""

    def __init__(self, key):
        self.key = key

    def __repr__(self):
        return f"_Key({self.key!r})"


def _replace(doc: dict, path: tuple, value) -> None:
    node = doc
    for key in path[:-1]:
        node = node[key]
    if not isinstance(value, _Key):
        node[path[-1]] = copy.deepcopy(value)
    elif isinstance(node, dict):
        node[value.key] = node.pop(path[-1])


def _dump(doc: dict, keyed: bool) -> bytes:
    """JSON, or YAML when a key was replaced: JSON would turn a number or
    boolean key back into a string."""
    if keyed:
        dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
        return yaml.dump(doc, Dumper=dumper, sort_keys=False).encode()
    return json.dumps(doc).encode()


def _with(doc: dict, path: tuple, value) -> bytes:
    doc = copy.deepcopy(doc)
    _replace(doc, path, value)
    return _dump(doc, isinstance(value, _Key))


_OP = ("paths", "/pets/{id}", "get")
_SCHEMA = _OP + ("responses", "200", "content", "application/json", "schema")
_NAMED_V3 = copy.deepcopy(_MINIMAL_V3)  # with a component schema, a scheme and a link
_NAMED_V3["components"] = {"schemas": {"Pet": {"type": "string"}},
                           "securitySchemes": {"basic": {"type": "http", "scheme": "basic"}}}
_replace(_NAMED_V3, _OP + ("responses", "200", "links"), {"Self": {"operationId": "getPet"}})


@pytest.mark.parametrize("doc, path, value, pointer", [
    (_MINIMAL_V3, _OP + ("responses",), [], "#/paths/~1pets~1{id}/get/responses"),
    (_MINIMAL_V3, _OP + ("parameters",), True, "#/paths/~1pets~1{id}/get/parameters"),
    (_MINIMAL_V3, _OP + ("parameters", 0), 3, "#/paths/~1pets~1{id}/get/parameters/0"),
    (_MINIMAL_V3, _OP + ("parameters", 0, "required"), "yes",
     "#/paths/~1pets~1{id}/get/parameters/id/required"),
    (_MINIMAL_V3, _OP + ("responses", "200"), "OK", "#/paths/~1pets~1{id}/get/responses/200"),
    (_MINIMAL_V3, _SCHEMA + ("properties", "id"), 7,
     "#/paths/~1pets~1{id}/get/responses/200/content/application~1json/schema/properties/id"),
    (_MINIMAL_V3, _SCHEMA + ("required",), [1],
     "#/paths/~1pets~1{id}/get/responses/200/content/application~1json/schema/required/0"),
    (_MINIMAL_V3, _SCHEMA + ("title",), {}, "/schema/title"),
    (_MINIMAL_V3, _SCHEMA + ("$ref",), 3, "/schema/$ref"),
    (_MINIMAL_V3, ("servers",), {}, "#/servers"),
    (_MINIMAL_V3, ("info", "version"), ["1"], "#/info/version"),
    (_MINIMAL_V3, ("openapi",), 3.0, "#/openapi"),
    (_MINIMAL_V2, ("schemes",), {}, "#/schemes"),
    (_MINIMAL_V2, ("paths", "/pets", "get", "responses"), [], "#/paths/~1pets/get/responses"),
    # YAML reads unquoted numbers and booleans as such, keys included
    (_MINIMAL_V3, _SCHEMA + ("properties", "id"), _Key(200),
     "#/paths/~1pets~1{id}/get/responses/200/content/application~1json/schema/properties "
     "has key 200"),
    (_MINIMAL_V3, _SCHEMA[:-1], _Key(True),
     "#/paths/~1pets~1{id}/get/responses/200/content has key True"),
    (_NAMED_V3, ("components", "schemas", "Pet"), _Key(404), "#/components/schemas has key 404"),
    (_MINIMAL_V3, _OP[:-1], _Key(200), "#/paths has key 200"),
    (_NAMED_V3, _OP + ("responses", "200", "links", "Self"), _Key(7),
     "#/paths/~1pets~1{id}/get/responses/200/links has key 7"),
    (_NAMED_V3, ("components", "securitySchemes", "basic"), _Key(1),
     "#/components/securitySchemes has key 1"),
    # descriptions nothing keeps are still checked
    (_MINIMAL_V3, _OP + ("parameters", 0, "description"), {},
     "#/paths/~1pets~1{id}/get/parameters/id/description"),
    (_MINIMAL_V3, _OP + ("responses", "200", "description"), [],
     "#/paths/~1pets~1{id}/get/responses/200/description"),
    # every schema member parse_schema reads, with a value of no type it takes
    (_MINIMAL_V3, _SCHEMA + ("type",), 5, "/schema/type must be a string or a list, not a number"),
    (_MINIMAL_V3, _SCHEMA + ("items",), 3, "/schema/items must be a schema, not a number"),
    (_MINIMAL_V3, _SCHEMA + ("allOf",), {}, "/schema/allOf must be a list, not a mapping"),
    (_MINIMAL_V3, _SCHEMA + ("enum",), "x", "/schema/enum must be a list, not a string"),
    (_MINIMAL_V3, _SCHEMA + ("description",), {},
     "/schema/description must be a scalar, not a mapping"),
    (_MINIMAL_V3, _SCHEMA + ("properties",), [],
     "/schema/properties must be a mapping, not a list"),
    (_MINIMAL_V3, _SCHEMA + ("required",), "x", "/schema/required must be a list, not a string"),
])
@pytest.mark.parametrize("strict", [False, True])
def test_wrong_member_type_is_invalid_oas_with_pointer(doc, path, value, pointer, strict):
    report = generate(_with(doc, path, value), GenerationOptions(strict=strict)).report
    assert report.error_kind == "InvalidOas"
    assert pointer in report.error_message


@pytest.mark.parametrize("node, attribute, read", [
    ({"type": ["string", "null"]}, "type", None),  # OAS 3.1's list reads as no type
    ({"title": 7}, "title", None),  # a title that is not a string names no type
    ({"description": 5}, "description", "5"),  # other scalars read as their text
    ({"properties": {"a": True, "b": {"type": "string"}}}, "properties", ["b"]),
    ({"items": True}, "items", None),  # a boolean schema reads as absent
    ({"allOf": [False, {"type": "string"}]}, "all_of", ["#/s/allOf/1"]),
])
def test_schema_member_spelled_another_way(node, attribute, read):
    value = getattr(parse_schema(node, "#/s"), attribute)
    if attribute == "properties":
        value = list(value)
    elif attribute == "all_of":
        value = [part.pointer for part in value]
    assert value == read


@pytest.mark.parametrize("doc, path", [
    (_MINIMAL_V3, ("paths", "/pets/{id}", "parameters")), (_MINIMAL_V3, _SCHEMA + ("title",)),
    (_MINIMAL_V3, _SCHEMA + ("allOf",)), (_MINIMAL_V3, ("servers",)),
    (_MINIMAL_V2, ("schemes",)),
])
def test_null_member_reads_as_absent(doc, path):
    assert generate(_with(doc, path, None)).ok


_OAS31 = b"""
openapi: 3.1.0
info: {title: Pets, version: 1}
paths:
  /pets/{id}:
    get:
      parameters:
        - {name: id, in: path, required: true, schema: {type: string}}
        - {name: q, in: query, schema: true}
      responses:
        '200':
          description: ok
          content:
            application/json:
              schema:
                type: object
                properties:
                  id: {type: string}
                  nickname: {type: [string, "null"]}
                  extra: true
                  tags: {type: array, items: true}
                  meta: {allOf: [true, {type: object, properties: {a: {type: integer}}}]}
        '404': {description: missing, content: {application/json: {schema: false}}}
"""


def test_oas31_type_lists_and_boolean_schemas_read_as_absent():
    # A list `type` reads as no type and a boolean schema as no schema, so
    # this document generates with the fallbacks it always had.
    wrapper = generate(_OAS31)
    schema = "#/paths/~1pets~1{id}/get/responses/200/content/application~1json/schema"
    assert [(w.kind, w.location, w.mitigation) for w in wrapper.report.warnings] == [
        ("InvalidSchemaType", f"{schema}/properties/nickname",
         "schema lacks a type; falling back to string"),
        ("InvalidSchemaType", f"{schema}/properties/tags",
         "array schema lacks items; falling back to string"),
        ("InvalidSchemaType", "#/paths/~1pets~1{id}/get/parameters/q",
         "parameter 'q' lacks a schema; assuming string"),
    ]
    assert wrapper.sdl.rstrip().split("\n\n") == [
        "type Query {\n  getPetsId(id: String!, q: String): getPetsId\n}",
        "type Meta {\n  a: Int\n}",
        "type getPetsId {\n  id: String\n  meta: Meta\n  nickname: String\n  tags: String\n}",
    ]
    assert generate(_OAS31, GenerationOptions(strict=True)).report.error_kind == \
        "InvalidSchemaType"


@pytest.mark.parametrize("info", ["{title: Pets, version: 1.0}",
                                  "{title: Pets, version: 2021-06-01}",
                                  "{title: 2021, version: 3, description: 7}"])
def test_scalar_metadata_reads_as_text(info):
    data = f"""
openapi: 3.0.3
info: {info}
paths:
  /pets:
    get:
      summary: 12
      responses:
        '200':
          description: 200
          content:
            application/json:
              schema: {{type: object, title: 42, description: 2021-06-01,
                        properties: {{id: {{type: integer}}}}}}
""".encode()
    wrapper = generate(data, GenerationOptions(strict=True))
    assert wrapper.ok and wrapper.report.warnings == []
    # Descriptions read as text; a title that is not a string names no type.
    assert wrapper.sdl == ('type Query {\n  "12"\n  getPets: getPets\n}\n\n'
                           '"2021-06-01"\ntype getPets {\n  id: Int\n}\n')


_JUNK = [None, 0, 7, -1.5, True, False, "", "x", [], {}, {"$ref": 3},
         {"$ref": "#/nope/x"}, {"$ref": "#/components/schemas/Nope"}, {"$ref": "other.json#/a"},
         _Key(200), _Key(True)]


def _parseable_json_fixtures() -> list[dict]:
    fixtures = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        try:
            fixtures.append(json.loads(path.read_text(encoding="utf-8")))
        except ValueError:
            continue
    return fixtures


def _subtree_paths(node, prefix=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from _subtree_paths(child, prefix + (key,))


# One to three subtrees, never the root, each replaced with junk or moved to
# a number or boolean key.
MUTATIONS = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_JUNK)),
                     min_size=1, max_size=3)


def mutant(fixture: dict, mutations: list) -> bytes:
    doc = copy.deepcopy(fixture)
    for choice, junk in mutations:
        paths = list(_subtree_paths(doc))
        _replace(doc, paths[choice % len(paths)], junk)
    return _dump(doc, any(isinstance(junk, _Key) for _, junk in mutations))


@settings(max_examples=2000, deadline=None)
@given(fixture=st.sampled_from(_parseable_json_fixtures()), mutations=MUTATIONS)
def test_mutated_fixtures_end_in_the_error_taxonomy(fixture, mutations):
    # Generates each mutant in both modes: every outcome must be in the
    # closed error taxonomy. The non-strict outcome must also be the one the
    # member()-only reference parser gives.
    data = mutant(fixture, mutations)
    wrappers = {strict: generate(data, GenerationOptions(strict=strict)) for strict in (False, True)}
    for wrapper in wrappers.values():
        report = wrapper.report
        assert report.error_kind is None or report.error_kind in ERROR_KINDS
        assert report.error_kind != "InternalError", report.error_message
    with mock.patch.object(oas_ingest, "parse_schema", reference_parse_schema):
        reference = _outcome(generate(data), intermediates(data)[0])
    assert _outcome(wrappers[False], intermediates(data)[0]) == reference


_REFERENCE_MEMBERS = {"properties", "items", "allOf", "type", "required", "enum", "title",
                      "description"}


def reference_parse_schema(node: dict, pointer: str) -> SchemaObject:
    """``parse_schema`` as it reads a schema by definition: each present
    member through ``member()``, in the node's order."""
    if node.get("$ref") is not None:
        return SchemaObject(ref=member(node, "$ref", pointer), pointer=pointer)
    schema = SchemaObject(
        composed_with=next((key for key in ("oneOf", "anyOf", "not") if key in node), None),
        default=node.get("default"), pointer=pointer,
    )
    for name, value in node.items():
        if value is None or name not in _REFERENCE_MEMBERS:
            continue
        value = member(node, name, pointer)
        if value is None:
            continue
        if name == "properties":
            schema.properties = {
                key: reference_parse_schema(
                    child, f"{pointer}/properties/{escape_pointer_token(key)}")
                for key, child in value.items() if child is not None
            }
        elif name == "items":
            schema.items = reference_parse_schema(value, f"{pointer}/items")
        elif name == "allOf":
            schema.all_of = [reference_parse_schema(child, f"{pointer}/allOf/{i}")
                             for i, child in enumerate(value) if child is not None]
        else:
            setattr(schema, name, value)
    return schema


def _outcome(wrapper, doc) -> tuple:
    """A generation's error, SDL and warnings, and every schema tree that
    parsing its document built, each record as plain values."""
    report = wrapper.report
    trees = None if doc is None else (doc.operations, doc._ref_cache)
    return _plain((report.error_kind, report.error_message, wrapper.sdl, report.warnings, trees))


def _plain(value):
    """value with each record replaced by its class name and attributes, so
    that two parses compare by value; the records define no equality."""
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if type(value).__module__.startswith("oaswrap."):
        names = getattr(type(value), "__slots__", None)
        attrs = vars(value) if names is None else {name: getattr(value, name) for name in names}
        return type(value).__name__, _plain(attrs)
    return value

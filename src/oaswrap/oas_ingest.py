"""OpenAPI ingestion: load, version-detect, upconvert 2.0 docs, validate,
and normalize into an in-memory model with memoized reference resolution.

The normalized :class:`OasDocument` is the only shape downstream modules see;
OAS 2.0 input is structurally translated to 3.0 before normalization.
"""

from __future__ import annotations

import json
from datetime import date
from itertools import repeat
from typing import Any

from .errors import InvalidOasError, MissingRefError, ParseError, UpconvertError
from .report import (
    INVALID_SCHEMA_TYPE,
    UNSUPPORTED_FEATURE,
    Report,
    record_warning,
)

HTTP_METHODS = ("get", "put", "post", "delete", "options", "head", "patch", "trace")

JSON_MEDIA = "application/json"
FORM_MEDIA = "application/x-www-form-urlencoded"

# The JSON types a member may have. The first is the member's own type; a
# value of one of the others is another spelling that reads as absent, except
# for TEXT, whose other spellings read as their str().
MAPPING, LIST, STRING, BOOLEAN, ANY = (dict,), (list,), (str,), (bool,), (object,)
SCHEMA = (dict, bool)  # JSON Schema's `true`/`false` (OAS 3.1) constrain nothing we use
TYPE = (str, list)  # OAS 3.1's `type: [string, "null"]` is read as no type
_SCALARS = (int, float, bool, date)  # YAML reads `version: 1.0` as a float
TEXT = (str, *_SCALARS)
TITLE = (str, *_SCALARS)  # other scalars read as absent: a schema title names a type

# The shape of every OAS member this module reads, as (types, element types).
# With no element types the member is one value: absent or null, it reads as
# None. Otherwise it is a collection: absent or null, it reads as empty, and
# each element must have the element types. Where the object kind decides the
# shape, the key is qualified by it. A member read for its shape only (the
# descriptions nothing keeps) is still InvalidOas when it has another type.
SHAPES: dict[str, tuple[tuple[type, ...], tuple[type, ...] | None]] = {
    # document roots, 3.x and 2.0
    "openapi": (STRING, None), "info": (MAPPING, ANY), "info.title": (TEXT, None),
    "version": (TEXT, None), "description": (TEXT, None), "servers": (LIST, MAPPING),
    "url": (STRING, None), "components": (MAPPING, ANY), "schemas": (MAPPING, MAPPING),
    "securitySchemes": (MAPPING, MAPPING), "security": (LIST, MAPPING),
    "paths": (MAPPING, MAPPING), "schemes": (LIST, STRING), "host": (STRING, None),
    "basePath": (STRING, None), "consumes": (LIST, STRING), "produces": (LIST, STRING),
    "securityDefinitions": (MAPPING, MAPPING), "v2.parameters": (MAPPING, MAPPING),
    # path items, operations, parameters, bodies, responses and links
    **dict.fromkeys(HTTP_METHODS, (MAPPING, None)), "parameters": (LIST, MAPPING),
    "operationId": (STRING, None), "summary": (TEXT, None), "requestBody": (MAPPING, None),
    "responses": (MAPPING, MAPPING), "content": (MAPPING, MAPPING), "schema": (SCHEMA, None),
    "param.required": (BOOLEAN, None),  # a parameter's or a request body's
    "name": (STRING, None), "in": (STRING, None), "links": (MAPPING, MAPPING),
    "operationRef": (STRING, None), "link.parameters": (MAPPING, ANY),
    # security schemes and schemas
    "type": (TYPE, None), "scheme": (STRING, None), "flow": (STRING, None),
    "title": (TITLE, None), "$ref": (STRING, None), "properties": (MAPPING, SCHEMA),
    "items": (SCHEMA, None), "allOf": (LIST, SCHEMA), "required": (LIST, STRING),
    "enum": (LIST, None),
}
# Each key's member name, its types and its element types, in one lookup.
_READ = {key: (key.rpartition(".")[2], *shape) for key, shape in SHAPES.items()}
_JSON_TYPES = {dict: "a mapping", list: "a list", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}
_SHAPE_NAMES = {**{(t,): name for t, name in _JSON_TYPES.items()},
                SCHEMA: "a schema", TYPE: "a string or a list", TEXT: "a scalar"}  # TITLE == TEXT


def member(node: dict, key: str, pointer: str) -> Any:
    """Member ``key`` of the object at ``pointer``, read through SHAPES. Any
    other JSON type makes the document InvalidOas, naming the member's pointer;
    so does a key that is not a string in a mapping whose elements are read,
    except the status codes of ``responses``, which YAML reads as numbers."""
    name, shape, element = _READ[key]
    value = node.get(name)
    if not isinstance(value, shape[0]):
        if value is None:
            return None if element is None else shape[0]()
        if not isinstance(value, shape):
            _wrong_type(f"{pointer}/{name}", shape, value)
        return str(value) if shape is TEXT else None
    if element is None or element is ANY:
        return value
    other = False
    string_keys = shape is MAPPING and key != "responses"
    for index, item in value.items() if shape is MAPPING else enumerate(value):
        if string_keys and not isinstance(index, str):
            raise InvalidOasError(f"{pointer}/{name} has key {index!r}, not a string")
        if not isinstance(item, element[0]):
            if not isinstance(item, element):
                _wrong_type(f"{pointer}/{name}/{escape_pointer_token(str(index))}", element, item)
            other = True
    if other:  # elements spelled another way read as absent
        value = ({k: v if isinstance(v, element[0]) else None for k, v in value.items()}
                 if shape is MAPPING else [v if isinstance(v, element[0]) else None for v in value])
    return value


def _wrong_type(pointer: str, expected: tuple[type, ...], value: Any) -> None:
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    raise InvalidOasError(f"{pointer} must be {_SHAPE_NAMES[expected]}, not {got}")


class SchemaObject:
    """JSON-Schema-like payload shape. ``ref`` nodes stay unresolved until
    dereferenced through the owning document (cycle-safe, memoized).
    ``structural_class`` is the class its document's ``SchemaTable`` gave
    it when it was parsed, or None for a ``$ref`` node, a node whose subtree
    holds one, and a node built after parsing."""

    __slots__ = ("type", "properties", "items", "required", "enum", "title", "description",
                 "ref", "all_of", "composed_with", "default", "pointer", "structural_class")

    def __init__(self, type: str | None = None,
                 properties: dict[str, SchemaObject] | None = None,
                 items: SchemaObject | None = None, required: list[str] | None = None,
                 enum: list | None = None, title: str | None = None,
                 description: str | None = None, ref: str | None = None,
                 all_of: list[SchemaObject] | None = None,
                 composed_with: str | None = None,  # "oneOf" | "anyOf" | "not" when present
                 default: Any = None, pointer: str = ""):
        self.type, self.properties = type, {} if properties is None else properties
        self.items, self.required = items, [] if required is None else required
        self.enum, self.title, self.description = enum, title, description
        self.ref, self.all_of, self.composed_with = ref, all_of, composed_with
        self.default, self.pointer = default, pointer
        self.structural_class: int | None = None


# -- structural classes ------------------------------------------------------------


# One encoder for every enum value: json.dumps with arguments builds a new one per call.
_encode_enum_value = json.JSONEncoder(sort_keys=True, default=str).encode


def _label(s: SchemaObject) -> tuple:
    """What equality compares on one node: type, property keys, required and
    enum as sets, items presence and allOf arity; titles never count. An enum
    value is compared as its sorted-key JSON text or, if that encoder refuses
    it (a mapping whose keys are of mixed types, as YAML reads ``{1: a, b:
    2}``), as a tagged repr that no text equals."""
    enum = None if s.enum is None else frozenset(map(_enum_label, s.enum))
    return (s.type, frozenset(s.properties), frozenset(s.required), enum,
            s.items is not None, None if s.all_of is None else len(s.all_of))


def _enum_label(value: Any) -> str | tuple[str, str]:
    try:
        return _encode_enum_value(value)
    except (TypeError, ValueError):
        return ("unsorted", repr(value))


def _children(s: SchemaObject) -> list[SchemaObject]:
    """Properties by key, then items, then allOf members (compared member-wise)."""
    out = [s.properties[key] for key in sorted(s.properties)]
    if s.items is not None:
        out.append(s.items)
    if s.all_of:
        out += s.all_of
    return out


class SchemaTable:
    """One document's hash-consing table (Filliâtre & Conchon, "Type-Safe
    Modular Hash-Consing", 2006). Each node label and each (label, child
    classes) signature is numbered in order of first sight; a signature's
    number is a structural class. ``intern`` classes a node as parsing
    closes it, so a subtree free of ``$ref`` is classed once, while it is
    built; the nodes that reach a ``$ref`` are classed later, through the
    same table, by ``preprocessing.StructuralClasses``."""

    __slots__ = ("labels", "signatures", "leaves")

    def __init__(self):
        self.labels: dict[tuple, int] = {}
        self.signatures: dict[tuple, int] = {}
        self.leaves: dict[str | None, int] = {}  # a leaf's type -> its class

    def label_id(self, label: tuple) -> int:
        return self.labels.setdefault(label, len(self.labels))

    def class_of(self, label_id: int, kids: tuple) -> int:
        return self.signatures.setdefault((label_id, kids), len(self.signatures))

    def intern(self, schema: SchemaObject) -> SchemaObject:
        """schema, classed if it is no ``$ref`` and all its children are classed."""
        if schema.ref is not None:
            return schema
        if (schema.properties or schema.items is not None or schema.all_of is not None
                or schema.required or schema.enum is not None):
            kids = tuple([child.structural_class for child in _children(schema)])
            if None not in kids:
                schema.structural_class = self.class_of(self.label_id(_label(schema)), kids)
        else:  # a leaf, labelled by its type alone
            cls = self.leaves.get(schema.type)
            if cls is None:
                cls = self.leaves[schema.type] = self.class_of(self.label_id(_label(schema)), ())
            schema.structural_class = cls
        return schema


class OasParameter:
    def __init__(self, name: str, location: str,  # path | query | header
                 schema: SchemaObject | None, required: bool = False, default: Any = None,
                 pointer: str = ""):
        self.name, self.location, self.schema = name, location, schema
        self.required, self.default, self.pointer = required, default, pointer


class RequestBody:
    def __init__(self, content_type: str | None, schema: SchemaObject | None,
                 required: bool = False, pointer: str = ""):
        self.content_type, self.schema = content_type, schema
        self.required, self.pointer = required, pointer


class LinkDefinition:
    def __init__(self, operation_id: str | None = None, operation_ref: str | None = None,
                 parameters: dict[str, str] | None = None, request_body: Any = None,
                 description: str | None = None, pointer: str = ""):
        self.operation_id, self.operation_ref, self.parameters = (
            operation_id, operation_ref, parameters or {})
        self.request_body, self.description, self.pointer = request_body, description, pointer


class OasResponse:
    def __init__(self, content_type: str | None, schema: SchemaObject | None,
                 links: dict[str, LinkDefinition] | None = None, pointer: str = ""):
        self.content_type, self.schema = content_type, schema
        self.links, self.pointer = links or {}, pointer


class SecurityScheme:
    def __init__(self, name: str, type: str,  # apiKey | http | oauth2 | openIdConnect
                 location: str | None = None,  # apiKey: header | query
                 param_name: str | None = None,  # apiKey: raw upstream name
                 http_scheme: str | None = None):  # http: basic | bearer | ...
        self.name, self.type, self.location = name, type, location
        self.param_name, self.http_scheme = param_name, http_scheme


class OasOperation:
    def __init__(self, method: str, path: str, operation_id: str | None = None,
                 description: str | None = None, parameters: list[OasParameter] | None = None,
                 request_body: RequestBody | None = None,
                 responses: dict[str, OasResponse] | None = None,
                 security: list[str] | None = None, pointer: str = ""):
        self.method, self.path, self.operation_id = method, path, operation_id
        self.description, self.parameters = description, parameters or []
        self.request_body, self.responses = request_body, responses or {}
        self.security, self.pointer = security or [], pointer

    @property
    def key(self) -> str:
        return f"{self.method.upper()} {self.path}"

    def links(self) -> dict[str, LinkDefinition]:
        """Links declared on any success response, first declaration wins."""
        merged: dict[str, LinkDefinition] = {}
        for status in sorted(self.responses):
            if not is_success_status(status):
                continue
            for name, link in self.responses[status].links.items():
                merged.setdefault(name, link)
        return merged


class OasDocument:
    def __init__(self, title: str | None, api_version: str | None, servers: list[str],
                 operations: list[OasOperation], security_schemes: dict[str, SecurityScheme],
                 raw_root: dict, table: SchemaTable):
        self.title, self.api_version, self.servers = title, api_version, servers
        self.operations, self.security_schemes, self.raw_root = (
            operations, security_schemes, raw_root)
        self.table = table  # classes every schema parsed for this document
        self._ref_cache: dict[str, SchemaObject] = {}
        self._allof_cache: dict[int, SchemaObject] = {}
        # Link targets by operationId, the first declaration winning, and by (method, path).
        self._by_id = {op.operation_id: op for op in reversed(self.operations)}
        self._by_route = {(op.method, op.path): op for op in self.operations}

    # -- reference resolution -------------------------------------------------

    def resolve_ref(self, pointer: str) -> SchemaObject:
        """Dereference an internal JSON pointer to its canonical SchemaObject.

        Resolution is memoized: the same pointer always yields the same object
        identity, which is what makes reference cycles representable.
        """
        if pointer in self._ref_cache:
            return self._ref_cache[pointer]
        schema = parse_schema(_ref_target(self.raw_root, pointer), pointer, self.table)
        self._ref_cache[pointer] = schema
        return schema

    def deref(self, schema: SchemaObject) -> SchemaObject:
        """Follow ref chains to the underlying schema (cycle-guarded)."""
        if schema.ref is None:
            return schema
        seen: set[str] = set()
        while schema.ref is not None:
            if schema.ref in seen:
                break
            seen.add(schema.ref)
            schema = self.resolve_ref(schema.ref)
        return schema

    def merge_all_of(self, schema: SchemaObject, report: Report) -> SchemaObject:
        if id(schema) not in self._allof_cache:
            self._allof_cache[id(schema)] = _merge_all_of(self, schema, report)
        return self._allof_cache[id(schema)]

    def find_operation(self, operation_id: str | None = None,
                       method: str | None = None, path: str | None = None) -> OasOperation | None:
        if operation_id is not None:
            return self._by_id.get(operation_id)
        return self._by_route.get((method, path))


# -- loading and version detection --------------------------------------------


def load_document(data: bytes | str, format_hint: str | None = None,
                  source_path: str = "<bytes>") -> dict:
    """The root mapping of OAS bytes parsed as JSON or YAML; without a hint,
    JSON is tried first."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source_path}: not valid UTF-8: {exc}") from exc
    else:
        text = data
    if not text.strip():
        raise ParseError(f"{source_path}: document is empty")

    attempts = {"json": [json.loads], "yaml": [_load_yaml],
                None: [json.loads, _load_yaml]}[format_hint]
    last_error: Exception | None = None
    for loader in attempts:
        try:
            root = loader(text)
        except Exception as exc:  # json.JSONDecodeError or yaml.YAMLError
            last_error = exc
            continue
        if not isinstance(root, dict):
            raise ParseError(f"{source_path}: document root must be a mapping")
        return root
    raise ParseError(f"{source_path}: cannot parse as JSON or YAML: {last_error}")


def _load_yaml(text: str) -> Any:
    """Safe YAML load; libyaml's loader, where PyYAML was built with it,
    parses the same safe subset several times faster. PyYAML is imported
    on the first YAML document, so JSON-only runs never load it."""
    import yaml

    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def detect_version(root: dict) -> str:
    """Classify a raw document as "v2", "v3" or "unknown" (a non-string openapi is InvalidOas)."""
    if root.get("swagger") == "2.0":
        return "v2"
    openapi = member(root, "openapi", "#")
    if openapi is not None and openapi.startswith("3."):
        return "v3"
    return "unknown"


def ingest(root: dict, report: Report) -> OasDocument:
    """Version-detect and produce a normalized 3.x document model."""
    version = detect_version(root)
    if version == "v2":
        return upconvert(root, report)
    if version == "v3":
        return normalize(root, report)
    raise InvalidOasError(
        f"{report.source}: neither 'swagger: 2.0' nor an 'openapi: 3.*' version marker found"
    )


# -- OAS 2.0 -> 3.0 structural translation -------------------------------------


def upconvert(root: dict, report: Report | None = None) -> OasDocument:
    """Losslessly translate a Swagger 2.0 document and normalize it."""
    return normalize(convert_v2_dict(root), report or Report(source="<bytes>"))


def convert_v2_dict(root: dict) -> dict:
    """Structural 2.0 -> 3.0 mapping for the supported v2 feature subset, in
    new containers: root is left as it was."""
    out: dict = {"openapi": "3.0.0", "info": root.get("info", {})}

    schemes = member(root, "schemes", "#")
    scheme = schemes[0] if schemes else "https"
    host = member(root, "host", "#")
    base_path = member(root, "basePath", "#") or ""
    if host:
        out["servers"] = [{"url": f"{scheme}://{host}{base_path}"}]
    elif base_path:
        out["servers"] = [{"url": base_path}]

    components: dict = {}
    if "definitions" in root:
        components["schemas"] = root["definitions"]
    if "securityDefinitions" in root:
        components["securitySchemes"] = {
            name: _convert_v2_security(name, node)
            for name, node in member(root, "securityDefinitions", "#").items()
        }
    out["components"] = components

    global_consumes = member(root, "consumes", "#")
    global_produces = member(root, "produces", "#")

    paths_out: dict = {}
    for path, path_item in member(root, "paths", "#").items():
        path_ptr = f"#/paths/{escape_pointer_token(path)}"
        item_out: dict = {}
        shared_params = _resolve_v2_params(root, path_item, path_ptr)
        for method in HTTP_METHODS:
            if path_item.get(method) is None:
                continue
            op_ptr = f"{path_ptr}/{method}"
            op = member(path_item, method, path_ptr)
            item_out[method] = _convert_v2_operation(
                op, shared_params + _resolve_v2_params(root, op, op_ptr), op_ptr,
                consumes=member(op, "consumes", op_ptr) or global_consumes,
                produces=member(op, "produces", op_ptr) or global_produces,
            )
        paths_out[path] = item_out
    out["paths"] = paths_out

    if "security" in root:
        out["security"] = root["security"]

    return _rewrite_refs(out, {})


def _resolve_v2_params(root: dict, node: dict, pointer: str) -> list[dict]:
    """``node``'s parameters with '#/parameters/...' references followed."""
    params = []
    for index, param in enumerate(member(node, "parameters", pointer)):
        where = f"{pointer}/parameters/{index}"
        ref = member(param, "$ref", where)
        if ref is not None:
            if not ref.startswith("#/parameters/"):
                raise UpconvertError(f"unsupported parameter reference {ref!r}")
            param = member(root, "v2.parameters", "#").get(ref[len("#/parameters/"):])
            if param is None:
                raise UpconvertError(f"parameter reference {ref!r} has no target")
            where = ref
        if None in (member(param, "name", where), member(param, "in", where)):
            raise UpconvertError(f"malformed v2 parameter: {param!r}")
        member(param, "param.required", where)  # read raw below, once checked here
        params.append(param)
    return params


def _convert_v2_operation(op: dict, params: list[dict], pointer: str,
                          consumes: list[str], produces: list[str]) -> dict:
    out = {
        key: op[key]
        for key in ("operationId", "summary", "description", "security", "deprecated")
        if key in op
    }

    body_params = [p for p in params if p["in"] == "body"]
    form_params = [p for p in params if p["in"] == "formData"]
    plain_params = [p for p in params if p["in"] not in ("body", "formData")]

    if body_params and form_params:
        raise UpconvertError("operation declares both body and formData parameters")
    if len(body_params) > 1:
        raise UpconvertError("operation declares more than one body parameter")

    if body_params:
        body = body_params[0]
        media = consumes[0] if consumes else JSON_MEDIA
        out["requestBody"] = {
            "content": {media: {"schema": body.get("schema", {})}},
            "required": bool(body.get("required")),
        }
    elif form_params:
        properties = {}
        required = []
        for p in form_params:
            properties[p["name"]] = {
                key: p[key]
                for key in ("type", "format", "items", "enum", "default", "description")
                if key in p
            }
            if p.get("required"):
                required.append(p["name"])
        schema: dict = {"type": "object", "properties": properties}
        if required:
            schema["required"] = required
        out["requestBody"] = {
            "content": {FORM_MEDIA: {"schema": schema}},
            "required": bool(required),
        }

    converted_params = []
    for p in plain_params:
        q = {key: p[key] for key in ("name", "in", "required", "description") if key in p}
        schema_keys = ("type", "format", "items", "enum", "default",
                       "minimum", "maximum", "pattern")
        q["schema"] = {key: p[key] for key in schema_keys if key in p}
        converted_params.append(q)
    if converted_params:
        out["parameters"] = converted_params

    responses_out = {}
    for status, resp in member(op, "responses", pointer).items():
        r_out = {"description": resp.get("description", "")}
        if "schema" in resp:
            media_types = produces or [JSON_MEDIA]
            r_out["content"] = {media: {"schema": resp["schema"]} for media in media_types}
        responses_out[str(status)] = r_out
    out["responses"] = responses_out
    return out


def _convert_v2_security(name: str, node: dict) -> dict:
    pointer = f"#/securityDefinitions/{escape_pointer_token(name)}"
    kind = member(node, "type", pointer)
    if kind == "basic":
        return {"type": "http", "scheme": "basic",
                **({"description": node["description"]} if "description" in node else {})}
    if kind == "apiKey":
        return {key: node[key] for key in ("type", "name", "in", "description") if key in node}
    if kind == "oauth2":
        flow_names = {"implicit": "implicit", "password": "password",
                      "application": "clientCredentials", "accessCode": "authorizationCode"}
        flow = flow_names.get(member(node, "flow", pointer), "implicit")
        detail = {key: node[key] for key in ("authorizationUrl", "tokenUrl") if key in node}
        detail["scopes"] = node.get("scopes", {})
        return {"type": "oauth2", "flows": {flow: detail}}
    raise UpconvertError(f"security definition {name!r} has unsupported type {kind!r}")


def _rewrite_refs(node: dict | list, copies: dict[int, Any]) -> dict | list:
    """node in new containers, with '#/definitions/...' pointers rewritten to
    their components location; a container that node holds twice is copied
    once, so the copy holds one container twice too."""
    copy = copies.get(id(node))
    if copy is not None:
        return copy
    if isinstance(node, list):
        copy = [_rewrite_refs(value, copies) if isinstance(value, (dict, list)) else value
                for value in node]
    else:
        copy = {key: _rewrite_refs(value, copies) if isinstance(value, (dict, list)) else value
                for key, value in node.items()}
        ref = copy.get("$ref")
        if isinstance(ref, str) and ref.startswith("#/definitions/"):
            copy["$ref"] = "#/components/schemas/" + ref[len("#/definitions/"):]
    copies[id(node)] = copy
    return copy


# -- normalization of 3.x documents --------------------------------------------


def normalize(root: dict, report: Report) -> OasDocument:
    """Build the document model from a raw 3.x mapping.

    Grossly malformed structure raises InvalidOas; semantic problems are left
    for :func:`validate` so they can all be reported together.
    """
    info = member(root, "info", "#")
    servers = []
    for index, server in enumerate(member(root, "servers", "#")):
        url = member(server, "url", f"#/servers/{index}")
        if url is not None:
            servers.append(url)

    components = member(root, "components", "#")
    member(components, "schemas", "#/components")  # shape check only
    security_schemes = _parse_security_schemes(
        member(components, "securitySchemes", "#/components"), report)

    global_security = _security_names(member(root, "security", "#"))
    table = SchemaTable()
    operations: list[OasOperation] = []
    for path, path_item in member(root, "paths", "#").items():
        path_ptr = f"#/paths/{escape_pointer_token(path)}"
        shared_params = member(path_item, "parameters", path_ptr)
        for method in HTTP_METHODS:
            if path_item.get(method) is None:
                continue
            operations.append(_parse_operation(
                root, method, path, member(path_item, method, path_ptr), shared_params,
                f"{path_ptr}/{method}", global_security, security_schemes, table, report,
            ))

    doc = OasDocument(
        title=member(info, "info.title", "#/info"),
        api_version=member(info, "version", "#/info"),
        servers=servers, operations=operations,
        security_schemes=security_schemes, raw_root=root, table=table,
    )
    member(info, "description", "#/info")  # shape check only
    return doc


def _parse_security_schemes(nodes: dict, report: Report) -> dict[str, SecurityScheme]:
    schemes: dict[str, SecurityScheme] = {}
    for name, node in nodes.items():
        pointer = f"#/components/securitySchemes/{escape_pointer_token(name)}"
        kind = member(node, "type", pointer)
        member(node, "description", pointer)  # shape check only
        if kind == "apiKey":
            location = member(node, "in", pointer) or "header"
            if location not in ("header", "query"):
                record_warning(report, UNSUPPORTED_FEATURE, pointer,
                               f"apiKey location {location!r} unsupported; scheme ignored")
                continue
            schemes[name] = SecurityScheme(
                name=name, type="apiKey", location=location,
                param_name=member(node, "name", pointer) or name,
            )
        elif kind == "http":
            scheme = (member(node, "scheme", pointer) or "").lower()
            schemes[name] = SecurityScheme(name=name, type="http", http_scheme=scheme)
        elif kind in ("oauth2", "openIdConnect"):
            schemes[name] = SecurityScheme(name=name, type=kind)
        else:
            record_warning(report, UNSUPPORTED_FEATURE, pointer,
                           f"security scheme type {kind!r} unsupported; scheme ignored")
    return schemes


def _security_names(requirements: list[dict]) -> list[str]:
    return list(dict.fromkeys(name for requirement in requirements for name in requirement))


def _parse_operation(root: dict, method: str, path: str, node: dict, shared_params: list,
                     pointer: str, global_security: list[str],
                     known_schemes: dict[str, SecurityScheme], table: SchemaTable,
                     report: Report) -> OasOperation:
    params: list[OasParameter] = []
    seen: set[tuple[str, str]] = set()
    for origin, nodes in ((pointer, member(node, "parameters", pointer)),
                          (pointer.rsplit("/", 1)[0], shared_params)):
        for index, param_node in enumerate(nodes):
            param = _parse_parameter(root, param_node, f"{origin}/parameters", index, table,
                                     report)
            if param is None or (param.name, param.location) in seen:
                continue
            seen.add((param.name, param.location))
            params.append(param)

    request_body = None
    body_node = member(node, "requestBody", pointer)
    if body_node is not None:
        body_ptr = f"{pointer}/requestBody"
        body_node = _deref_raw(root, body_node, body_ptr)
        content_type, schema = _select_content(body_node, body_ptr, table)
        request_body = RequestBody(
            content_type=content_type, schema=schema,
            required=bool(member(body_node, "param.required", body_ptr)), pointer=body_ptr,
        )
        member(body_node, "description", body_ptr)  # shape check only

    responses: dict[str, OasResponse] = {}
    for status, resp_node in member(node, "responses", pointer).items():
        status = str(status)
        resp_ptr = f"{pointer}/responses/{status}"
        resp_node = _deref_raw(root, resp_node, resp_ptr)
        content_type, schema = _select_content(resp_node, resp_ptr, table)
        links = {}
        for link_name, link_node in member(resp_node, "links", resp_ptr).items():
            link_ptr = f"{resp_ptr}/links/{escape_pointer_token(link_name)}"
            link_node = _deref_raw(root, link_node, link_ptr)
            parameters = member(link_node, "link.parameters", link_ptr)
            links[link_name] = LinkDefinition(
                operation_id=member(link_node, "operationId", link_ptr),
                operation_ref=member(link_node, "operationRef", link_ptr),
                parameters={str(k): str(v) for k, v in parameters.items()},
                request_body=link_node.get("requestBody"),
                description=member(link_node, "description", link_ptr), pointer=link_ptr,
            )
        member(resp_node, "description", resp_ptr)  # shape check only
        responses[status] = OasResponse(content_type, schema, links, pointer=resp_ptr)

    security = global_security
    if "security" in node:
        security = _security_names(member(node, "security", pointer))
    # Drop schemes the components section does not define or we do not support.
    kept = []
    for name in security:
        if name in known_schemes:
            kept.append(name)
        else:
            record_warning(report, UNSUPPORTED_FEATURE, f"{pointer}/security",
                           f"security scheme {name!r} is not defined or unsupported; "
                           f"requirement dropped")
    return OasOperation(
        method=method, path=path, operation_id=member(node, "operationId", pointer),
        description=member(node, "description", pointer) or member(node, "summary", pointer),
        parameters=params, request_body=request_body, responses=responses,
        security=kept, pointer=pointer,
    )


def _parse_parameter(root: dict, node: dict, pointer: str, index: int, table: SchemaTable,
                     report: Report) -> OasParameter | None:
    where = f"{pointer}/{index}"
    node = _deref_raw(root, node, where)
    name, location = member(node, "name", where), member(node, "in", where)
    if name is None or location is None:
        raise InvalidOasError(f"parameter at {where} lacks 'name' or 'in'")
    param_ptr = f"{pointer}/{escape_pointer_token(name)}"
    if location not in ("path", "query", "header"):
        record_warning(report, UNSUPPORTED_FEATURE, param_ptr,
                       f"parameter location {location!r} unsupported; parameter ignored")
        return None
    schema = member(node, "schema", param_ptr)
    if schema is not None:
        schema = parse_schema(schema, f"{param_ptr}/schema", table)
    else:
        _, schema = _select_content(node, param_ptr, table)
    required = bool(member(node, "param.required", param_ptr)) or location == "path"
    member(node, "description", param_ptr)  # shape check only
    return OasParameter(name=name, location=location, schema=schema, required=required,
                        default=schema.default if schema is not None else None,
                        pointer=param_ptr)


def _deref_raw(root: dict, node: dict, pointer: str) -> dict:
    """Follow a raw-tree $ref (components.parameters/responses/requestBodies/links)
    from the object at ``pointer``."""
    seen: set[str] = set()
    while (ref := member(node, "$ref", pointer)) is not None:
        if ref in seen:
            raise InvalidOasError(f"circular non-schema reference chain at {ref!r}")
        seen.add(ref)
        node, pointer = _ref_target(root, ref), ref
    return node


def _select_content(node: dict, pointer: str,
                    table: SchemaTable) -> tuple[str | None, SchemaObject | None]:
    """Pick one media type of the content of the object at ``pointer``:
    application/json, then any application/*json*, then the first declared."""
    content = member(node, "content", pointer)
    if not content:
        return None, None

    chosen = next((name for name in content if _media_base(name) == JSON_MEDIA), None)
    if chosen is None:
        chosen = next((name for name in content if is_json_media(name)), next(iter(content)))
    media_ptr = f"{pointer}/content/{escape_pointer_token(chosen)}"
    schema = member(content[chosen], "schema", media_ptr)
    if schema is not None:
        schema = parse_schema(schema, f"{media_ptr}/schema", table)
    return _media_base(chosen), schema


def _media_base(content_type: str) -> str:
    """The media type without parameters, lower-cased."""
    return content_type.split(";", 1)[0].strip().lower()


def is_json_media(content_type: str | None) -> bool:
    """application/json or any other application/*json* media type."""
    if content_type is None:
        return False
    base = _media_base(content_type)
    return base.startswith("application/") and "json" in base


# -- schema object parsing ------------------------------------------------------


# The members a schema object reads, each with its own JSON type and that of
# its elements (None for a single value, or elements of any type), from SHAPES.
_SCHEMA_MEMBERS = {name: (SHAPES[name][0][0], SHAPES[name][1] and SHAPES[name][1][0])
                   for name in ("type", "properties", "items", "required", "enum", "title",
                                "description", "allOf")}


def _own_elements(value: dict | list, element: type) -> bool:
    """Every element of the collection has its own type and, in a mapping,
    every key is a string."""
    if isinstance(value, dict):
        return (all(map(isinstance, value, repeat(str)))
                and all(map(isinstance, value.values(), repeat(element))))
    return all(map(isinstance, value, repeat(element)))


def parse_schema(node: dict, pointer: str, table: SchemaTable) -> SchemaObject:
    """Parse one schema mapping; $ref children stay unresolved. Each present
    member is read once: a value of the member's own JSON type is taken as it
    is, and only another goes through ``member()``, which reads the other
    spellings and rejects a wrong type. Each node is interned in ``table`` as
    it closes, after its children."""
    ref = node.get("$ref")
    if ref is not None:
        return SchemaObject(ref=ref if isinstance(ref, str) else member(node, "$ref", pointer),
                            pointer=pointer)
    stype = items = enum = title = description = all_of = None
    properties: dict[str, SchemaObject] = {}
    required: list[str] = []
    for name, value in node.items():
        shape = _SCHEMA_MEMBERS.get(name)
        if shape is None or value is None:
            continue
        own, element = shape
        if not isinstance(value, own) or element and not _own_elements(value, element):
            value = member(node, name, pointer)
            if value is None:
                continue
        if name == "type":
            stype = value
        elif name == "properties":
            prefix = f"{pointer}/properties/"
            properties = {key: parse_schema(child, prefix + escape_pointer_token(key), table)
                          for key, child in value.items() if child is not None}
        elif name == "items":
            items = parse_schema(value, f"{pointer}/items", table)
        elif name == "required":
            required = value
        elif name == "enum":
            enum = value
        elif name == "title":
            title = value
        elif name == "description":
            description = value
        else:
            all_of = [parse_schema(child, f"{pointer}/allOf/{i}", table)
                      for i, child in enumerate(value) if child is not None]
    composed_with = ("oneOf" if "oneOf" in node else "anyOf" if "anyOf" in node
                     else "not" if "not" in node else None)
    # Positional, in field order: keyword arguments cost twice as much here.
    return table.intern(SchemaObject(stype, properties, items, required, enum, title,
                                     description, None, all_of, composed_with,
                                     node.get("default"), pointer))


# -- allOf merging ----------------------------------------------------------------


def _merge_all_of(doc: OasDocument, schema: SchemaObject, report: Report) -> SchemaObject:
    members: list[SchemaObject] = []
    inside: set[int] = set()  # a schema reached again inside itself adds no constraint

    def collect(s: SchemaObject) -> None:
        s = doc.deref(s)
        if not s.all_of:
            members.append(s)
        elif id(s) not in inside:
            inside.add(id(s))
            for part in s.all_of:
                collect(part)
            inside.discard(id(s))

    collect(schema)
    if not members:
        return SchemaObject(pointer=schema.pointer, title=schema.title,
                            description=schema.description)

    declared_types = {m.type for m in members if m.type is not None}
    if len(declared_types) > 1:
        record_warning(report, INVALID_SCHEMA_TYPE, schema.pointer,
                       f"allOf members disagree on type ({sorted(declared_types)}); "
                       f"falling back to string")
        return SchemaObject(type="string", pointer=schema.pointer, title=schema.title)

    if declared_types and declared_types != {"object"} and not any(m.properties for m in members):
        merged = members[0]
        if len(members) == 1:
            return merged
        return SchemaObject(
            type=merged.type, enum=merged.enum, items=merged.items,
            title=schema.title or merged.title,
            description=_join_descriptions(schema, members), pointer=schema.pointer,
        )

    properties: dict[str, SchemaObject] = {}
    for member in members:
        for key, child in member.properties.items():
            if key in properties:
                previous = doc.deref(properties[key])
                incoming = doc.deref(child)
                if (previous.type is not None and incoming.type is not None
                        and previous.type != incoming.type):
                    record_warning(
                        report, INVALID_SCHEMA_TYPE, child.pointer,
                        f"allOf members assign conflicting types to property {key!r} "
                        f"({previous.type} vs {incoming.type}); falling back to string",
                    )
                    properties[key] = SchemaObject(type="string", pointer=child.pointer)
                    continue
            properties[key] = child

    return SchemaObject(
        type="object", properties=properties,
        required=sorted({name for member in members for name in member.required}),
        title=schema.title or next((m.title for m in members if m.title), None),
        description=_join_descriptions(schema, members),
        pointer=schema.pointer,
    )


def _join_descriptions(schema: SchemaObject, members: list[SchemaObject]) -> str | None:
    parts = [schema.description] + [m.description for m in members]
    joined = " ".join(p for p in parts if p)
    return joined or None


# -- validation --------------------------------------------------------------------


def validate(doc: OasDocument) -> list[str]:
    """Structural checks over a normalized document: each error, worded
    ``"<message> (at <pointer>)"``. Any error rejects the document as
    InvalidOas."""
    errors: list[str] = []

    if not doc.title:
        errors.append("info.title is required (at #/info/title)")
    if not doc.api_version:
        errors.append("info.version is required (at #/info/version)")
    if "paths" not in doc.raw_root:
        errors.append("paths object is required (at #/paths)")

    for op in doc.operations:
        template = template_params(op.path)
        declared = [p.name for p in op.parameters if p.location == "path"]
        for name in template:
            if declared.count(name) != 1:
                errors.append(f"path parameter {{{name}}} of {op.key} must be declared "
                              f"exactly once (found {declared.count(name)}) (at {op.pointer})")
        for name in declared:
            if name not in template:
                errors.append(f"declared path parameter {name!r} does not appear in "
                              f"{op.path!r} (at {op.pointer})")

        for status in op.responses:
            if not _valid_status_pattern(status):
                errors.append(f"response key {status!r} is not a 3-digit code, wildcard "
                              f"pattern, or 'default' (at {op.pointer}/responses/{status})")
    return errors


def _valid_status_pattern(status: str) -> bool:
    if status == "default":
        return True
    if len(status) != 3:
        return False
    return all(c.isdigit() or c in "Xx" for c in status) and status[0].isdigit()


def is_success_status(status: str) -> bool:
    return status.startswith("2") and status != "default"


# -- pointer helpers ------------------------------------------------------------


def escape_pointer_token(token: str) -> str:
    return token.replace("~", "~0").replace("/", "~1")


def unescape_pointer_token(token: str) -> str:
    return token.replace("~1", "/").replace("~0", "~")


def navigate_pointer(root: Any, pointer: str) -> Any:
    """Walk a '#/a/b/0' pointer through a raw JSON tree; raises MissingRef."""
    if not pointer.startswith("#/"):
        raise MissingRefError(pointer)
    node = root
    for raw_token in pointer[2:].split("/"):
        token = unescape_pointer_token(raw_token)
        if isinstance(node, dict):
            if token not in node:
                raise MissingRefError(pointer)
            node = node[token]
        elif isinstance(node, list):
            if not token.isdigit() or int(token) >= len(node):
                raise MissingRefError(pointer)
            node = node[int(token)]
        else:
            raise MissingRefError(pointer)
    return node


def _ref_target(root: dict, ref: str) -> dict:
    """The object an internal reference targets; MissingRef for any other."""
    if not ref.startswith("#/"):
        raise MissingRefError(ref, f"reference {ref!r} targets a relative or external document")
    target = navigate_pointer(root, ref)
    if not isinstance(target, dict):
        raise MissingRefError(ref, f"reference {ref!r} does not target an object")
    return target


def template_params(path: str) -> list[str]:
    """Names of {param} segments in declaration order."""
    names = []
    rest = path
    while "{" in rest:
        _, _, rest = rest.partition("{")
        name, brace, rest = rest.partition("}")
        if not brace:
            break
        if name:
            names.append(name)
    return names

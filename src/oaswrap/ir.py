"""The GraphQL type IR: named and wrapped types, fields, arguments, resolve
bindings and plans, and the whole schema. Preprocessing builds the named
types, generation the plans, schema assembly adds the roots, and the engine
validates and executes against them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .oas_ingest import SecurityScheme

SCALAR = "Scalar"
ENUM = "Enum"
OBJECT = "Object"
INPUT_OBJECT = "InputObject"
LIST = "List"
NON_NULL = "NonNull"
REFERENCE = "Reference"

SCALAR_TYPE_NAMES = ("Int", "Float", "String", "Boolean", "ID")


class TypeIR:
    __slots__ = ("kind", "name", "of_type", "fields", "enum_values", "description")

    def __init__(self, kind: str, name: str | None = None, of_type: TypeIR | None = None,
                 fields: dict[str, FieldIR] | None = None,
                 enum_values: dict[str, str] | None = None,  # sanitized value -> raw value
                 description: str | None = None):
        self.kind, self.name, self.of_type = kind, name, of_type
        self.fields, self.enum_values, self.description = fields, enum_values, description

    def unwrap(self) -> "TypeIR":
        t = self
        while t.of_type is not None:
            t = t.of_type
        return t


# The String members of a viewer's credentials, by the kind of scheme it
# gates: viewer arguments, credential input fields and what resolution reads.
CREDENTIAL_MEMBERS = {"apiKey": ("apiKey",), "basicAuth": ("username", "password")}


def credential_kind(scheme: SecurityScheme) -> str | None:
    """scheme's key in CREDENTIAL_MEMBERS; None for a scheme no viewer gates."""
    if scheme.type == "http" and scheme.http_scheme == "basic":
        return "basicAuth"
    return "apiKey" if scheme.type == "apiKey" else None


_SCALARS = {name: TypeIR(SCALAR, name=name) for name in SCALAR_TYPE_NAMES}


def scalar(name: str) -> TypeIR:
    """The one shared type of a built-in scalar; a type is never changed once built."""
    return _SCALARS[name]


def reference(name: str) -> TypeIR:
    return TypeIR(REFERENCE, name=name)


def list_of(inner: TypeIR) -> TypeIR:
    return TypeIR(LIST, of_type=inner)


def non_null(inner: TypeIR) -> TypeIR:
    if inner.kind == NON_NULL:
        return inner
    return TypeIR(NON_NULL, of_type=inner)


def type_str(t: TypeIR) -> str:
    """The type as GraphQL writes it: ``[Name!]``."""
    if t.kind == NON_NULL:
        return type_str(t.of_type) + "!"
    if t.kind == LIST:
        return f"[{type_str(t.of_type)}]"
    return t.name


def resolve_type(t: TypeIR, types: dict[str, TypeIR]) -> TypeIR:
    if t.kind == REFERENCE:
        return types[t.name]
    return t


def to_raw(types: dict[str, TypeIR], type_name: str | None, value):
    """De-sanitize an input value of the named type: object keys to their
    fields' raw keys, each child by its field's own type, and enum values to
    their raw values. Unknown keys and values pass through."""
    if isinstance(value, list):
        return [to_raw(types, type_name, item) for item in value]
    named = types.get(type_name)
    if named is None:
        return value
    if isinstance(value, dict):
        fields = named.fields or {}
        out = {}
        for key, child in value.items():
            f = fields.get(key)
            if f is None:
                out[key] = child
            else:
                out[f.raw or key] = to_raw(types, f.type.unwrap().name, child)
        return out
    if isinstance(value, str) and named.enum_values is not None:
        return named.enum_values.get(value, value)
    return value


class ArgIR:
    """A field argument. An operation argument also records where its value
    goes upstream; a required one already has a non-null type."""

    __slots__ = ("name", "type", "raw", "location", "default")

    def __init__(self, name: str, type: TypeIR,
                 raw: str | None = None,  # the upstream parameter name; None for the body
                 location: str | None = None,  # path | query | header | body
                 default: Any = None):
        self.name, self.type, self.raw = name, type, raw
        self.location, self.default = location, default


class ResolvePlan:
    """Design-time binding of one operation: everything a resolver needs that
    can be known before any query arrives."""

    def __init__(self, operation_key: str, method: str, path: str, base_url: str,
                 args: dict[str, ArgIR],  # the operation's arguments
                 content_type: str | None,  # of the body argument's payload
                 security: list[SecurityScheme]):
        self.operation_key, self.method, self.path = operation_key, method, path
        self.base_url, self.args = base_url, args
        self.content_type, self.security = content_type, security


class LinkExpression:
    """A supported OAS runtime expression, parsed at generation: a
    ``$response.body#/…`` pointer into the object that holds the link field,
    or a ``$request.path.<name>`` / ``$request.query.<name>`` parameter the
    parent's request sent. Two are equal when they are written alike, as
    their source and tokens follow from their text."""

    def __init__(self, text: str,  # as written, for error messages
                 source: str,  # body | path | query
                 tokens: tuple[str, ...]):  # body: the unescaped pointer tokens; else the name
        self.text, self.source, self.tokens = text, source, tokens

    def __eq__(self, other) -> bool:
        return isinstance(other, LinkExpression) and self.text == other.text


class FieldBinding:
    def __init__(self, kind: str,  # "operation" | "viewer" | "placeholder"
                 plan_key: str | None = None,
                 link_params: dict[str, LinkExpression] | None = None,  # by argument name
                 schemes: list[str] | None = None,  # viewer credential schemes
                 credential_args: dict[str, str] | None = None):  # anyAuth: arg -> scheme
        self.kind, self.plan_key, self.link_params = kind, plan_key, link_params or {}
        self.schemes, self.credential_args = schemes or [], credential_args or {}


class FieldIR:
    __slots__ = ("name", "type", "args", "description", "binding", "raw")

    def __init__(self, name: str, type: TypeIR, args: dict[str, ArgIR] | None = None,
                 description: str | None = None, binding: FieldBinding | None = None,
                 raw: str | None = None):  # the upstream key of an object or input field
        self.name, self.type, self.args = name, type, {} if args is None else args
        self.description, self.binding, self.raw = description, binding, raw


class SchemaIR:
    def __init__(self, types: dict[str, TypeIR] | None = None,
                 query_fields: dict[str, FieldIR] | None = None,
                 mutation_fields: dict[str, FieldIR] | None = None):
        self.types = {} if types is None else types
        self.query_fields = {} if query_fields is None else query_fields
        self.mutation_fields = {} if mutation_fields is None else mutation_fields

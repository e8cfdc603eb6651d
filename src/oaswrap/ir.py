"""The GraphQL type IR: named and wrapped types, fields, arguments, resolve
bindings and plans, and the whole schema. Preprocessing builds the named
types, generation the plans, schema assembly adds the roots, and the engine
validates and executes against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(slots=True)
class TypeIR:
    kind: str
    name: str | None = None
    of_type: "TypeIR | None" = None
    fields: "dict[str, FieldIR] | None" = None
    enum_values: dict[str, str] | None = None  # sanitized value -> raw value
    description: str | None = None

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


@dataclass(slots=True)
class ArgIR:
    """A field argument. An operation argument also records where its value
    goes upstream; a required one already has a non-null type."""

    name: str
    type: TypeIR
    raw: str | None = None  # the upstream parameter name; None for the body
    location: str | None = None  # path | query | header | body
    default: Any = None


@dataclass
class ResolvePlan:
    """Design-time binding of one operation: everything a resolver needs that
    can be known before any query arrives."""

    operation_key: str
    method: str
    path: str
    base_url: str
    args: dict[str, ArgIR] = field(default_factory=dict)  # the operation's arguments
    content_type: str | None = None  # of the body argument's payload
    security: list[SecurityScheme] = field(default_factory=list)


@dataclass(frozen=True)
class LinkExpression:
    """A supported OAS runtime expression, parsed at generation: a
    ``$response.body#/…`` pointer into the object that holds the link field,
    or a ``$request.path.<name>`` / ``$request.query.<name>`` parameter the
    parent's request sent."""

    text: str  # as written, for error messages
    source: str  # body | path | query
    tokens: tuple[str, ...]  # body: the unescaped pointer tokens; else the parameter name


@dataclass
class FieldBinding:
    kind: str  # "operation" | "viewer" | "placeholder"
    plan_key: str | None = None
    link_params: dict[str, LinkExpression] = field(default_factory=dict)  # by argument name
    schemes: list[str] = field(default_factory=list)  # viewer credential schemes
    credential_args: dict[str, str] = field(default_factory=dict)  # anyAuth: arg -> scheme


@dataclass(slots=True)
class FieldIR:
    name: str
    type: TypeIR
    args: dict[str, ArgIR] = field(default_factory=dict)
    description: str | None = None
    binding: FieldBinding | None = None
    raw: str | None = None  # the upstream key of an object or input field


@dataclass
class SchemaIR:
    types: dict[str, TypeIR] = field(default_factory=dict)
    query_fields: dict[str, FieldIR] = field(default_factory=dict)
    mutation_fields: dict[str, FieldIR] = field(default_factory=dict)

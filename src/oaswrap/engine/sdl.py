"""Type-system (SDL) parser: reads ``print_sdl`` output back into a SchemaIR.

Parsed schemas carry no resolve bindings; they exist for round-trip checks and
for tooling that consumes the exported SDL.
"""

from __future__ import annotations

from ..errors import GraphQLSyntaxError
from ..ir import (
    ENUM,
    INPUT_OBJECT,
    OBJECT,
    SCALAR_TYPE_NAMES,
    ArgIR,
    FieldIR,
    SchemaIR,
    TypeIR,
    list_of,
    non_null,
    reference,
    scalar,
)
from .lexer import TokenStream


def parse_sdl(text: str) -> SchemaIR:
    stream = TokenStream(text)
    schema = SchemaIR()
    while stream.current.kind != "EOF":
        description = None
        if stream.current.kind == "STRING":
            description = stream.advance().value
        keyword = stream.expect("NAME")
        if keyword.value == "type":
            name, type_ir = _object_type(stream, OBJECT, description)
        elif keyword.value == "input":
            name, type_ir = _object_type(stream, INPUT_OBJECT, description)
        elif keyword.value == "enum":
            name, type_ir = _enum_definition(stream, description)
        else:
            raise GraphQLSyntaxError(
                f"unsupported type system definition {keyword.value!r}",
                keyword.line, keyword.column,
            )
        if name == "Query":
            schema.query_fields = type_ir.fields
        elif name == "Mutation":
            schema.mutation_fields = type_ir.fields
        else:
            schema.types[name] = type_ir
    return schema


def _object_type(stream: TokenStream, kind: str, description) -> tuple[str, TypeIR]:
    name = stream.expect("NAME").value
    stream.expect("PUNCT", "{")
    fields: dict[str, FieldIR] = {}
    while not stream.accept("PUNCT", "}"):
        field_description = None
        if stream.current.kind == "STRING":
            field_description = stream.advance().value
        field_name = stream.expect("NAME").value
        args: dict[str, ArgIR] = {}
        if stream.accept("PUNCT", "("):
            while not stream.accept("PUNCT", ")"):
                arg_description = None
                if stream.current.kind == "STRING":
                    arg_description = stream.advance().value
                arg_name = stream.expect("NAME").value
                stream.expect("PUNCT", ":")
                args[arg_name] = ArgIR(arg_name, _type_ref(stream), arg_description)
        stream.expect("PUNCT", ":")
        field_type = _type_ref(stream)
        fields[field_name] = FieldIR(name=field_name, type=field_type, args=args,
                                     description=field_description)
    return name, TypeIR(kind, name=name, fields=fields, description=description)


def _enum_definition(stream: TokenStream, description) -> tuple[str, TypeIR]:
    name = stream.expect("NAME").value
    stream.expect("PUNCT", "{")
    values: dict[str, str] = {}  # SDL holds no raw values: each value is its own
    while not stream.accept("PUNCT", "}"):
        if stream.current.kind == "STRING":
            stream.advance()
        value = stream.expect("NAME").value
        values[value] = value
    return name, TypeIR(ENUM, name=name, enum_values=values, description=description)


def _type_ref(stream: TokenStream) -> TypeIR:
    if stream.accept("PUNCT", "["):
        inner = _type_ref(stream)
        stream.expect("PUNCT", "]")
        node = list_of(inner)
    else:
        name = stream.expect("NAME").value
        node = scalar(name) if name in SCALAR_TYPE_NAMES else reference(name)
    if stream.accept("PUNCT", "!"):
        node = non_null(node)
    return node

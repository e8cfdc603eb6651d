"""Recursive-descent parser for the supported GraphQL query language subset:
operations, fields with arguments and aliases, variables, named and inline
fragments. Subscriptions and directives are rejected outright."""

from __future__ import annotations

from ..errors import GraphQLSyntaxError
from .ast import (
    FieldNode,
    FragmentNode,
    FragmentSpreadNode,
    InlineFragmentNode,
    OperationNode,
    QueryDocument,
    TypeNode,
    ValueNode,
    VariableDefinitionNode,
)
from .lexer import TokenStream

# Nesting of selection sets, list values and types, and object values in the
# query text; validation bounds selection sets again with fragments expanded.
# The parser, validator and executor recurse once or more per level.
MAX_DEPTH = 64


def parse_query(text: str) -> QueryDocument:
    if not text or not text.strip():
        raise GraphQLSyntaxError("query text is empty")
    stream = TokenStream(text)
    _check_depth(stream)
    doc = QueryDocument()
    while stream.current.kind != "EOF":
        token = stream.current
        if token.kind == "PUNCT" and token.value == "{":
            doc.operations.append(
                OperationNode(kind="query", name=None,
                              selection_set=_selection_set(stream),
                              line=token.line, column=token.column)
            )
        elif token.kind == "NAME" and token.value in ("query", "mutation", "subscription"):
            if token.value == "subscription":
                raise GraphQLSyntaxError("subscriptions are not supported",
                                         token.line, token.column)
            doc.operations.append(_operation(stream))
        elif token.kind == "NAME" and token.value == "fragment":
            fragment = _fragment_definition(stream)
            _unique(doc.fragments, fragment.name, "fragment", fragment.line, fragment.column)
            doc.fragments[fragment.name] = fragment
        else:
            raise GraphQLSyntaxError(
                f"unexpected {token.value or token.kind!r} at document level",
                token.line, token.column,
            )
    if not doc.operations:
        raise GraphQLSyntaxError("document defines no operations")
    return doc


def _check_depth(stream: TokenStream) -> None:
    """Bound the nesting, and refuse the first directive, in one pass."""
    depth = 0
    for i, token in enumerate(stream.tokens):
        if token.kind != "PUNCT":
            continue
        if token.value == "@":
            raise GraphQLSyntaxError(f"directive @{stream.tokens[i + 1].value} is not supported "
                                     f"by this engine", token.line, token.column)
        if token.value in "{[":
            depth += 1
            if depth > MAX_DEPTH:
                raise GraphQLSyntaxError(f"query nests deeper than {MAX_DEPTH} levels",
                                         token.line, token.column)
        elif token.value in "}]":
            depth -= 1


def _operation(stream: TokenStream) -> OperationNode:
    keyword = stream.expect("NAME")
    name = None
    if stream.current.kind == "NAME":
        name = stream.advance().value
    variable_definitions = []
    if stream.accept("PUNCT", "("):  # one definition or more, as arguments are
        while not variable_definitions or not stream.accept("PUNCT", ")"):
            variable_definitions.append(_variable_definition(stream))
    return OperationNode(
        kind=keyword.value, name=name, variable_definitions=variable_definitions,
        selection_set=_selection_set(stream),
        line=keyword.line, column=keyword.column,
    )


def _variable_definition(stream: TokenStream) -> VariableDefinitionNode:
    dollar = stream.expect("PUNCT", "$")
    name = stream.expect("NAME").value
    stream.expect("PUNCT", ":")
    var_type = _type(stream)
    default = None
    if stream.accept("PUNCT", "="):
        default = _value(stream, const=True)
    return VariableDefinitionNode(name=name, type=var_type, default=default,
                                  line=dollar.line, column=dollar.column)


def _type(stream: TokenStream) -> TypeNode:
    if stream.accept("PUNCT", "["):
        inner = _type(stream)
        stream.expect("PUNCT", "]")
        node = TypeNode("list", of_type=inner)
    else:
        name = stream.expect("NAME").value
        node = TypeNode("named", name=name)
    if stream.accept("PUNCT", "!"):
        node = TypeNode("non_null", of_type=node)
    return node


def _selection_set(stream: TokenStream) -> list:
    open_brace = stream.expect("PUNCT", "{")
    selections: list = []
    while not stream.accept("PUNCT", "}"):
        if stream.current.kind == "EOF":
            raise GraphQLSyntaxError("unterminated selection set",
                                     open_brace.line, open_brace.column)
        selections.append(_selection(stream))
    if not selections:
        raise GraphQLSyntaxError("selection set must not be empty",
                                 open_brace.line, open_brace.column)
    return selections


def _selection(stream: TokenStream):
    if stream.current.kind == "SPREAD":
        spread = stream.advance()
        if stream.current.kind == "NAME" and stream.current.value != "on":
            name = stream.advance().value
            return FragmentSpreadNode(name=name, line=spread.line, column=spread.column)
        type_condition = None
        if stream.accept("NAME", "on"):
            type_condition = stream.expect("NAME").value
        return InlineFragmentNode(type_condition=type_condition,
                                  selection_set=_selection_set(stream),
                                  line=spread.line, column=spread.column)
    return _field(stream)


def _field(stream: TokenStream) -> FieldNode:
    first = stream.expect("NAME")
    alias = None
    name = first.value
    if stream.accept("PUNCT", ":"):
        alias = first.value
        name = stream.expect("NAME").value
    arguments = _arguments(stream)
    selection_set = None
    if stream.current.kind == "PUNCT" and stream.current.value == "{":
        selection_set = _selection_set(stream)
    return FieldNode(name=name, alias=alias, arguments=arguments,
                     selection_set=selection_set, line=first.line, column=first.column)


def _arguments(stream: TokenStream) -> dict[str, ValueNode]:
    arguments: dict[str, ValueNode] = {}
    if stream.accept("PUNCT", "("):  # one argument or more
        while not arguments or not stream.accept("PUNCT", ")"):
            name = stream.expect("NAME")
            stream.expect("PUNCT", ":")
            _unique(arguments, name.value, "argument", name.line, name.column)
            arguments[name.value] = _value(stream)
    return arguments


def _unique(seen: dict, name: str, what: str, line: int, column: int) -> None:
    """Reject a repeated argument, input field or fragment name, which the AST
    keys by, with graphql-core's message."""
    if name in seen:
        raise GraphQLSyntaxError(f"There can be only one {what} named {name!r}.", line, column)


def _value(stream: TokenStream, const: bool = False) -> ValueNode:
    token = stream.current
    if token.kind == "PUNCT" and token.value == "$":
        if const:
            raise GraphQLSyntaxError("variables are not allowed in this position",
                                     token.line, token.column)
        stream.advance()
        name = stream.expect("NAME").value
        return ValueNode("variable", value=name, line=token.line, column=token.column)
    if token.kind == "INT":
        stream.advance()
        try:
            value = int(token.value)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise GraphQLSyntaxError(f"integer literal of {len(token.value)} characters is too "
                                     f"long", token.line, token.column) from None
        return ValueNode("int", value=value, line=token.line, column=token.column)
    if token.kind == "FLOAT":
        stream.advance()
        return ValueNode("float", value=float(token.value), line=token.line, column=token.column)
    if token.kind == "STRING":
        stream.advance()
        return ValueNode("string", value=token.value, line=token.line, column=token.column)
    if token.kind == "NAME":
        stream.advance()
        if token.value == "true":
            return ValueNode("boolean", value=True, line=token.line, column=token.column)
        if token.value == "false":
            return ValueNode("boolean", value=False, line=token.line, column=token.column)
        if token.value == "null":
            return ValueNode("null", line=token.line, column=token.column)
        return ValueNode("enum", value=token.value, line=token.line, column=token.column)
    if token.kind == "PUNCT" and token.value == "[":
        stream.advance()
        values = []
        while not stream.accept("PUNCT", "]"):
            values.append(_value(stream, const))
        return ValueNode("list", values=values, line=token.line, column=token.column)
    if token.kind == "PUNCT" and token.value == "{":
        stream.advance()
        fields: dict[str, ValueNode] = {}
        while not stream.accept("PUNCT", "}"):
            name = stream.expect("NAME")
            stream.expect("PUNCT", ":")
            _unique(fields, name.value, "input field", name.line, name.column)
            fields[name.value] = _value(stream, const)
        return ValueNode("object", fields=fields, line=token.line, column=token.column)
    raise GraphQLSyntaxError(f"expected a value, found {token.value or token.kind!r}",
                             token.line, token.column)


def _fragment_definition(stream: TokenStream) -> FragmentNode:
    keyword = stream.expect("NAME", "fragment")
    name = stream.expect("NAME").value
    if name == "on":
        raise GraphQLSyntaxError("fragment name must not be 'on'",
                                 keyword.line, keyword.column)
    stream.expect("NAME", "on")
    type_condition = stream.expect("NAME").value
    return FragmentNode(name=name, type_condition=type_condition,
                        selection_set=_selection_set(stream),
                        line=keyword.line, column=keyword.column)

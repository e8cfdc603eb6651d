"""Query document AST node types."""

from __future__ import annotations

from typing import Any


class TypeNode:
    __slots__ = ("kind", "name", "of_type")

    def __init__(self, kind: str,  # "named" | "list" | "non_null"
                 name: str | None = None, of_type: TypeNode | None = None):
        self.kind, self.name, self.of_type = kind, name, of_type

    def __str__(self) -> str:
        if self.kind == "named":
            return self.name
        if self.kind == "list":
            return f"[{self.of_type}]"
        return f"{self.of_type}!"


class ValueNode:
    # kind: variable | int | float | string | boolean | null | enum | list | object
    __slots__ = ("kind", "value", "values", "fields", "line", "column")

    def __init__(self, kind: str, value: Any = None,  # scalar payload, or variable/enum name
                 values: list[ValueNode] | None = None,  # list
                 fields: dict[str, ValueNode] | None = None,  # object
                 line: int = 0, column: int = 0):
        self.kind, self.value, self.values = kind, value, values
        self.fields, self.line, self.column = fields, line, column

    def __eq__(self, other) -> bool:
        """Values compare without their source positions, as the field-merge rule needs."""
        return isinstance(other, ValueNode) and (
            self.kind, self.value, self.values, self.fields) == (
            other.kind, other.value, other.values, other.fields)


class FieldNode:
    __slots__ = ("name", "alias", "arguments", "selection_set", "line", "column")

    def __init__(self, name: str, alias: str | None = None,
                 arguments: dict[str, ValueNode] | None = None, selection_set: list | None = None,
                 line: int = 0, column: int = 0):
        self.name, self.alias, self.arguments = name, alias, {} if arguments is None else arguments
        self.selection_set, self.line, self.column = selection_set, line, column

    @property
    def response_key(self) -> str:
        return self.alias or self.name


class FragmentSpreadNode:
    __slots__ = ("name", "line", "column")

    def __init__(self, name: str, line: int = 0, column: int = 0):
        self.name, self.line, self.column = name, line, column


class InlineFragmentNode:
    __slots__ = ("type_condition", "selection_set", "line", "column")

    def __init__(self, type_condition: str | None, selection_set: list | None = None,
                 line: int = 0, column: int = 0):
        self.type_condition, self.selection_set = type_condition, selection_set or []
        self.line, self.column = line, column


class VariableDefinitionNode:
    __slots__ = ("name", "type", "default", "line", "column")

    def __init__(self, name: str, type: TypeNode, default: ValueNode | None = None,
                 line: int = 0, column: int = 0):
        self.name, self.type, self.default = name, type, default
        self.line, self.column = line, column


class OperationNode:
    __slots__ = ("kind", "name", "variable_definitions", "selection_set", "line", "column",
                 "compiled")

    def __init__(self, kind: str,  # "query" | "mutation"
                 name: str | None,
                 variable_definitions: list[VariableDefinitionNode] | None = None,
                 selection_set: list | None = None, line: int = 0, column: int = 0):
        self.kind, self.name = kind, name
        self.variable_definitions = variable_definitions or []
        self.selection_set, self.line, self.column = selection_set or [], line, column
        # (schema, compiled root selection set, errors) of validation.compile_operation
        self.compiled: tuple | None = None


class FragmentNode:
    __slots__ = ("name", "type_condition", "selection_set", "line", "column")

    def __init__(self, name: str, type_condition: str, selection_set: list | None = None,
                 line: int = 0, column: int = 0):
        self.name, self.type_condition = name, type_condition
        self.selection_set, self.line, self.column = selection_set or [], line, column


class QueryDocument:
    __slots__ = ("operations", "fragments")

    def __init__(self):
        self.operations: list[OperationNode] = []
        self.fragments: dict[str, FragmentNode] = {}

"""Query document AST node types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class TypeNode:
    kind: str  # "named" | "list" | "non_null"
    name: str | None = None
    of_type: "TypeNode | None" = None

    def __str__(self) -> str:
        if self.kind == "named":
            return self.name
        if self.kind == "list":
            return f"[{self.of_type}]"
        return f"{self.of_type}!"


@dataclass
class ValueNode:
    kind: str  # variable | int | float | string | boolean | null | enum | list | object
    value: Any = None  # scalar payload, or variable/enum name
    values: list["ValueNode"] | None = None  # list
    fields: dict[str, "ValueNode"] | None = None  # object
    # Values compare without their source positions, as the field-merge rule needs.
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass
class FieldNode:
    name: str
    alias: str | None = None
    arguments: dict[str, ValueNode] = field(default_factory=dict)
    selection_set: list | None = None
    line: int = 0
    column: int = 0

    @property
    def response_key(self) -> str:
        return self.alias or self.name


@dataclass
class FragmentSpreadNode:
    name: str
    line: int = 0
    column: int = 0


@dataclass
class InlineFragmentNode:
    type_condition: str | None
    selection_set: list = field(default_factory=list)
    line: int = 0
    column: int = 0


@dataclass
class VariableDefinitionNode:
    name: str
    type: TypeNode
    default: ValueNode | None = None
    line: int = 0
    column: int = 0


@dataclass
class OperationNode:
    kind: str  # "query" | "mutation"
    name: str | None
    variable_definitions: list[VariableDefinitionNode] = field(default_factory=list)
    selection_set: list = field(default_factory=list)
    line: int = 0
    column: int = 0
    # (schema, compiled root selection set, errors) of validation.compile_operation
    compiled: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class FragmentNode:
    name: str
    type_condition: str
    selection_set: list = field(default_factory=list)
    line: int = 0
    column: int = 0


@dataclass
class QueryDocument:
    operations: list[OperationNode] = field(default_factory=list)
    fragments: dict[str, FragmentNode] = field(default_factory=dict)

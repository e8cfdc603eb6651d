"""Query validation against a generated SchemaIR.

Covers the documented subset: field existence, leaf/composite selection
correctness, argument names and types, required arguments, variable usage and
compatibility, enum literals, fragment resolution, and rejection of
directives and introspection selections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import (
    ENUM,
    INPUT_OBJECT,
    LIST,
    NON_NULL,
    OBJECT,
    SCALAR,
    SchemaIR,
    TypeIR,
    resolve_type,
)
from .ast import (
    FieldNode,
    FragmentSpreadNode,
    InlineFragmentNode,
    QueryDocument,
    TypeNode,
    ValueNode,
)

INT_MAX = 2**31 - 1
INT_MIN = -(2**31)


@dataclass
class _OperationState:
    """Per-operation validation state."""

    variables: dict[str, TypeNode] = field(default_factory=dict)
    defaults: set[str] = field(default_factory=set)
    used: set[str] = field(default_factory=set)


def validate_query(doc: QueryDocument, schema: SchemaIR) -> list[str]:
    errors: list[str] = []

    names = [op.name for op in doc.operations if op.name]
    if len(names) != len(set(names)):
        errors.append("operation names must be unique")
    if len(doc.operations) > 1 and any(op.name is None for op in doc.operations):
        errors.append("anonymous operations are only allowed in single-operation documents")

    for fragment in doc.fragments.values():
        if _fragment_cycle(fragment.name, doc, set()):
            errors.append(f"fragment {fragment.name!r} spreads itself, directly or transitively")

    spread_names = _all_spreads(doc)
    for name in doc.fragments:
        if name not in spread_names:
            errors.append(f"fragment {name!r} is defined but never used")

    for op in doc.operations:
        scope = _OperationState()
        for var_def in op.variable_definitions:
            if var_def.name in scope.variables:
                errors.append(f"variable ${var_def.name} is declared more than once")
            scope.variables[var_def.name] = var_def.type
            if var_def.default is not None:
                scope.defaults.add(var_def.name)
        _check_directives(op.directives, errors)

        if op.kind == "mutation":
            if not schema.mutation_fields:
                errors.append("schema defines no mutations")
                continue
            root = TypeIR(OBJECT, name="Mutation", fields=schema.mutation_fields)
        else:
            root = TypeIR(OBJECT, name="Query", fields=schema.query_fields)
        _check_selection_set(op.selection_set, root, schema, doc, scope, errors, set())

        for name in scope.variables:
            if name not in scope.used:
                errors.append(f"variable ${name} is declared but never used")
    return errors


def _fragment_cycle(name: str, doc: QueryDocument, stack: set[str]) -> bool:
    if name in stack:
        return True
    fragment = doc.fragments.get(name)
    if fragment is None:
        return False
    stack = stack | {name}
    for spread in _spreads_in(fragment.selection_set):
        if _fragment_cycle(spread, doc, stack):
            return True
    return False


def _spreads_in(selections: list) -> list[str]:
    found = []
    for node in selections:
        if isinstance(node, FragmentSpreadNode):
            found.append(node.name)
        elif isinstance(node, FieldNode) and node.selection_set:
            found.extend(_spreads_in(node.selection_set))
        elif isinstance(node, InlineFragmentNode):
            found.extend(_spreads_in(node.selection_set))
    return found


def _all_spreads(doc: QueryDocument) -> set[str]:
    names: set[str] = set()
    for op in doc.operations:
        names.update(_spreads_in(op.selection_set))
    for fragment in doc.fragments.values():
        names.update(_spreads_in(fragment.selection_set))
    return names


def _check_directives(directives, errors: list[str]) -> None:
    for directive in directives:
        errors.append(
            f"directive @{directive.name} is not supported by this engine "
            f"(line {directive.line})"
        )


def _check_selection_set(selections: list, parent: TypeIR, schema: SchemaIR,
                         doc: QueryDocument, scope: _OperationState, errors: list[str],
                         seen_fragments: set[str]) -> None:
    for node in selections:
        if isinstance(node, FieldNode):
            _check_field(node, parent, schema, doc, scope, errors, seen_fragments)
        elif isinstance(node, FragmentSpreadNode):
            _check_directives(node.directives, errors)
            fragment = doc.fragments.get(node.name)
            if fragment is None:
                errors.append(f"fragment {node.name!r} is spread but never defined "
                              f"(line {node.line})")
                continue
            if fragment.type_condition != parent.name:
                errors.append(
                    f"fragment {node.name!r} is declared on {fragment.type_condition!r} "
                    f"but spread into {parent.name!r} (line {node.line})"
                )
                continue
            if node.name in seen_fragments:
                continue
            _check_directives(fragment.directives, errors)
            _check_selection_set(fragment.selection_set, parent, schema, doc, scope,
                                 errors, seen_fragments | {node.name})
        elif isinstance(node, InlineFragmentNode):
            _check_directives(node.directives, errors)
            if node.type_condition is not None and node.type_condition != parent.name:
                errors.append(
                    f"inline fragment on {node.type_condition!r} does not match "
                    f"enclosing type {parent.name!r} (line {node.line})"
                )
                continue
            _check_selection_set(node.selection_set, parent, schema, doc, scope,
                                 errors, seen_fragments)


def _check_field(node: FieldNode, parent: TypeIR, schema: SchemaIR, doc: QueryDocument,
                 scope: _OperationState, errors: list[str], seen_fragments: set[str]) -> None:
    _check_directives(node.directives, errors)
    if node.name in ("__schema", "__type", "__typename"):
        errors.append(
            f"introspection field {node.name!r} is not served; fetch the exported "
            f"SDL instead (line {node.line})"
        )
        return
    field_ir = (parent.fields or {}).get(node.name)
    if field_ir is None:
        errors.append(f"field {node.name!r} does not exist on type {parent.name!r} "
                      f"(line {node.line})")
        return

    for arg_name, value in node.arguments.items():
        arg = field_ir.args.get(arg_name)
        if arg is None:
            errors.append(f"unknown argument {arg_name!r} on field {node.name!r} "
                          f"(line {node.line})")
            continue
        _check_value(value, arg.type, schema, scope, errors,
                     f"argument {arg_name!r} of field {node.name!r}")
    for arg_name, arg in field_ir.args.items():
        if arg.type.kind == NON_NULL and arg_name not in node.arguments:
            errors.append(f"required argument {arg_name!r} of field {node.name!r} "
                          f"is missing (line {node.line})")

    inner = resolve_type(field_ir.type.unwrap(), schema.types)
    if inner.kind == OBJECT:
        if node.selection_set is None:
            errors.append(f"field {node.name!r} of object type {inner.name!r} "
                          f"requires a selection set (line {node.line})")
        else:
            _check_selection_set(node.selection_set, inner, schema, doc, scope,
                                 errors, seen_fragments)
    else:
        if node.selection_set is not None:
            errors.append(f"field {node.name!r} of leaf type {inner.name!r} "
                          f"must not have a selection set (line {node.line})")


def _check_value(value: ValueNode, expected: TypeIR, schema: SchemaIR, scope: _OperationState,
                 errors: list[str], where: str) -> None:
    if value.kind == "variable":
        scope.used.add(value.value)
        declared = scope.variables.get(value.value)
        if declared is None:
            errors.append(f"variable ${value.value} used in {where} is not declared")
            return
        if not _variable_compatible(declared, expected, value.value in scope.defaults,
                                    schema):
            errors.append(
                f"variable ${value.value}: {declared} is not compatible with the "
                f"{_type_str(expected, schema)} expected by {where}"
            )
        return

    if expected.kind == NON_NULL:
        if value.kind == "null":
            errors.append(f"{where} must not be null")
            return
        _check_value(value, expected.of_type, schema, scope, errors, where)
        return
    if value.kind == "null":
        return
    if expected.kind == LIST:
        items = value.values if value.kind == "list" else [value]
        for item in items:
            _check_value(item, expected.of_type, schema, scope, errors, where)
        return

    named = resolve_type(expected, schema.types)
    if named.kind == SCALAR:
        _check_scalar(value, named.name, errors, where)
    elif named.kind == ENUM:
        if value.kind != "enum" or value.value not in (named.enum_values or []):
            errors.append(f"{where} expects enum {named.name} "
                          f"(one of {list(named.enum_values)}), got {_describe(value)}")
    elif named.kind == INPUT_OBJECT:
        if value.kind != "object":
            errors.append(f"{where} expects input object {named.name}, got {_describe(value)}")
            return
        for key, child in value.fields.items():
            child_field = (named.fields or {}).get(key)
            if child_field is None:
                errors.append(f"unknown field {key!r} for input object {named.name} in {where}")
                continue
            _check_value(child, child_field.type, schema, scope, errors,
                         f"field {key!r} of {named.name}")
        for key, child_field in (named.fields or {}).items():
            if child_field.type.kind == NON_NULL and key not in value.fields:
                errors.append(f"required field {key!r} of input object {named.name} "
                              f"is missing in {where}")
    else:
        errors.append(f"{where} expects an input type, got {named.kind}")


def _check_scalar(value: ValueNode, scalar_name: str, errors: list[str], where: str) -> None:
    kind = value.kind
    ok = {
        "Int": kind == "int",
        "Float": kind in ("int", "float"),
        "String": kind == "string",
        "Boolean": kind == "boolean",
        "ID": kind in ("string", "int"),
    }.get(scalar_name, False)
    if not ok:
        errors.append(f"{where} expects {scalar_name}, got {_describe(value)}")
        return
    if scalar_name == "Int" and kind == "int" and not (INT_MIN <= value.value <= INT_MAX):
        errors.append(f"{where}: Int value {value.value} is outside the 32-bit range")


def _variable_compatible(declared: TypeNode, expected: TypeIR, has_default: bool,
                         schema: SchemaIR) -> bool:
    if expected.kind == NON_NULL:
        if declared.kind == "non_null":
            return _variable_compatible(declared.of_type, expected.of_type,
                                        has_default, schema)
        return has_default and _variable_compatible(declared, expected.of_type,
                                                    has_default, schema)
    if declared.kind == "non_null":
        return _variable_compatible(declared.of_type, expected, has_default, schema)
    if expected.kind == LIST:
        return declared.kind == "list" and _variable_compatible(
            declared.of_type, expected.of_type, has_default, schema
        )
    if declared.kind == "list":
        return False
    named = resolve_type(expected, schema.types)
    return declared.name == named.name


def _type_str(t: TypeIR, schema: SchemaIR) -> str:
    if t.kind == NON_NULL:
        return _type_str(t.of_type, schema) + "!"
    if t.kind == LIST:
        return "[" + _type_str(t.of_type, schema) + "]"
    return t.name or "?"


def _describe(value: ValueNode) -> str:
    if value.kind in ("int", "float", "string", "boolean"):
        return f"{value.kind} {value.value!r}"
    return value.kind

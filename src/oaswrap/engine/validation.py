"""Query validation against a generated SchemaIR, and the compiled selection
sets the executor runs.

One walk per operation collects each selection set's fields the way the
spec's CollectFields does: spreads expand from an explicit stack, each
fragment at most once per collection. Each response-key group is checked
once: its fields merge (one field, the same arguments), the field exists,
its arguments and variables are valid, and a leaf has no selection set while
an object has one. A compiled set is memoized per operation by its parent
type and the selection lists it merges, so a fragment spread in many places
compiles once and the result is a DAG linear in the query text. Depth counts
selection sets with fragments expanded and is bounded by ``MAX_DEPTH``.
Each compiled set carries a structural signature, by which the executor
shares one completion kernel (``kernels.py``) among the sets that complete
alike. Introspection selections are rejected; directives and subscriptions
never get here, as the parser refuses them with a syntax error, which is a 400.
"""

from __future__ import annotations

from math import isfinite

try:
    # hashlib re-exports this constructor, but importing hashlib loads
    # _hashlib and with it OpenSSL's libcrypto, which a plain-HTTP server
    # would otherwise never map.
    from _blake2 import blake2b
except ImportError:  # an interpreter without the built-in BLAKE2
    from hashlib import blake2b

from ..ir import (
    ENUM,
    INPUT_OBJECT,
    LIST,
    NON_NULL,
    OBJECT,
    SCALAR,
    SCALAR_TYPE_NAMES,
    FieldIR,
    SchemaIR,
    TypeIR,
    list_of,
    non_null,
    reference,
    resolve_type,
    scalar,
    type_str,
)
from .ast import FieldNode, FragmentSpreadNode, OperationNode, QueryDocument, TypeNode, ValueNode
from .parser import MAX_DEPTH

INT_MAX = 2**31 - 1
INT_MIN = -(2**31)
# The most characters of signed text (see _sign) a set with a completion
# kernel may have. A kernel's source, code and tables grow with that text, so
# this bounds what one kernel holds and how long it takes to generate; a
# larger set takes the general path.
KERNEL_TEXT_CHARS = 4096


def finite_float(value: int | float) -> float | None:
    """value as a float, or None if it is NaN, an infinity or an integer past
    the float range: GraphQL's Float and JSON have no such number."""
    try:
        as_float = float(value)
    except OverflowError:
        return None
    return as_float if isfinite(as_float) else None


# Python types of upstream JSON values that complete to themselves.
_PASS_THROUGH = {"String": str, "ID": str, "Int": int, "Float": float, "Boolean": bool}


class CompiledField:
    """One response key of a compiled selection set.

    A value that fits the field's shape completes without the general path:
    an unbound ``leaf`` (a scalar or enum) or ``leaves`` (a list of them) in
    its set's kernel, read straight from the parent's raw object; an
    ``object`` straight in its child set; ``objects`` (a list of objects) in
    one call of the child set's kept kernel if every item fits it, else item
    by item in the child set. Any other value, and every error, takes the
    general path."""

    __slots__ = ("key", "node", "field_ir", "inner", "child", "raw_key", "shape", "plain",
                 "enum")

    def __init__(self, key: str,
                 node: FieldNode,  # the first of the merged nodes: arguments and error locations
                 field_ir: FieldIR,
                 inner: TypeIR,  # the named type under the field's list and non-null wrappers
                 child: CompiledSet | None,  # an object field's merged sub-selections
                 raw_key: str | None):  # an unbound field's upstream key: read, not resolved
        self.key, self.node, self.field_ir = key, node, field_ir
        self.inner, self.child, self.raw_key = inner, child, raw_key
        self.shape: str | None = None  # leaf | object | leaves | objects; None: the general path
        self.plain: type | None = None  # a scalar's values of this exact type pass unchanged
        self.enum: dict[str, str] | None = None  # an enum's raw -> sanitized table


class CompiledSet:
    """A selection set compiled on one parent type, fields in response-key order."""

    __slots__ = ("type", "fields", "parallel", "height", "signature", "rest")

    def __init__(self, type: TypeIR):
        self.type, self.fields = type, []
        self.parallel = False  # two or more operation fields, outside a mutation
        self.height = 1  # nested selection sets, this one included, fragments expanded
        # What a completion kernel of the set depends on, digested; None when a
        # kernel would complete no field. Sets of one signature share a kernel.
        self.signature: str | None = None
        self.rest: list[CompiledField] = []  # fields a kernel leaves out


def validate_query(doc: QueryDocument, schema: SchemaIR) -> list[str]:
    errors: list[str] = []

    names = [op.name for op in doc.operations if op.name]
    if len(names) != len(set(names)):
        errors.append("operation names must be unique")
    if len(doc.operations) > 1 and any(op.name is None for op in doc.operations):
        errors.append("anonymous operations are only allowed in single-operation documents")
    _check_fragment_graph(doc, errors)
    for op in doc.operations:
        errors.extend(compile_operation(doc, op, schema)[1])
    return errors


def _check_fragment_graph(doc: QueryDocument, errors: list[str]) -> None:
    """Report fragment cycles, and fragments no operation reaches, in one
    iterative depth-first pass over the spread graph from the operations."""
    spreads = {name: _spreads(f.selection_set) for name, f in doc.fragments.items()}
    on_stack: dict[str, bool] = {}  # every fragment reached; True while on the stack
    stack = [(None, iter([name for op in doc.operations for name in _spreads(op.selection_set)]))]
    while stack:
        name, targets = stack[-1]
        target = next(targets, None)
        if target is None:
            on_stack[name] = False
            stack.pop()
        elif on_stack.get(target):
            errors.append(f"fragment {target!r} spreads itself, directly or transitively")
        elif target in spreads and target not in on_stack:
            on_stack[target] = True
            stack.append((target, iter(spreads[target])))
    errors.extend(f"fragment {name!r} is defined but never used"
                  for name in doc.fragments if name not in on_stack)


def _spreads(selections: list) -> dict[str, None]:
    """The fragment names spread anywhere in a selection list, once each."""
    found: dict[str, None] = {}
    todo = [selections]
    while todo:
        for node in todo.pop():
            if isinstance(node, FragmentSpreadNode):
                found[node.name] = None
            elif node.selection_set:
                todo.append(node.selection_set)
    return found


def compile_operation(doc: QueryDocument, op: OperationNode,
                      schema: SchemaIR) -> tuple[CompiledSet | None, list[str]]:
    """The operation's compiled root selection set and its validation errors,
    walked once per schema and kept on the operation node."""
    if op.compiled is not None and op.compiled[0] is schema:
        return op.compiled[1], op.compiled[2]
    errors: list[str] = []
    walk = _Walk(doc, schema, errors, op.kind == "mutation")
    for var_def in op.variable_definitions:
        if var_def.name in walk.variables:
            errors.append(f"variable ${var_def.name} is declared more than once")
        walk.variables[var_def.name] = var_def.type
        if var_def.default is not None:
            walk.defaults.add(var_def.name)
            expected = declared_type(var_def.type, schema)
            if expected is not None:  # an unknown type is incompatible wherever it is used
                walk._check_value(var_def.default, expected,
                                  f"default value of variable ${var_def.name}")

    root = None
    if walk.mutation and not schema.mutation_fields:
        errors.append("schema defines no mutations")
    else:
        fields = schema.mutation_fields if walk.mutation else schema.query_fields
        root = walk.compile([op.selection_set], TypeIR(OBJECT, name=op.kind.title(),
                                                       fields=fields), 1)
        errors.extend(f"variable ${name} is declared but never used"
                      for name in walk.variables if name not in walk.used)
    op.compiled = (schema, root, errors)
    return root, errors


class _Walk:
    """Compiles one operation's selection sets, each once per parent type and
    merged selection lists, and holds the operation's variable scope."""

    def __init__(self, doc: QueryDocument, schema: SchemaIR, errors: list[str],
                 mutation: bool):
        self.doc = doc
        self.schema = schema
        self.errors = errors
        self.mutation = mutation
        self.variables: dict[str, TypeNode] = {}
        self.defaults: set[str] = set()
        self.used: set[str] = set()
        self.memo: dict[tuple, CompiledSet | None] = {}  # None while being compiled
        self.too_deep = False

    def compile(self, lists: list[list], parent: TypeIR, depth: int) -> CompiledSet:
        """The set merging lists on parent, whose own level is at depth."""
        key = (parent.name, tuple(map(id, lists)))
        if key in self.memo:
            compiled = self.memo[key]
            # A set reached again inside itself nests without end.
            if compiled is None or depth + compiled.height - 1 > MAX_DEPTH:
                self._deep()
            return compiled or CompiledSet(parent)
        if depth > MAX_DEPTH:
            self._deep()
            return CompiledSet(parent)
        self.memo[key] = None
        compiled = CompiledSet(parent)
        groups, compiled.height = self._collect(lists, parent, depth)
        for response_key, (nodes, level) in groups.items():
            f = self._field(response_key, nodes, parent, depth + level)
            if f is not None:
                compiled.fields.append(f)
                if f.child is not None:
                    compiled.height = max(compiled.height, level + f.child.height)
        operations = sum(1 for f in compiled.fields
                         if f.field_ir.binding and f.field_ir.binding.kind == "operation")
        compiled.parallel = not self.mutation and operations > 1
        _sign(compiled)
        self.memo[key] = compiled
        return compiled

    def _collect(self, lists: list[list], parent: TypeIR,
                 depth: int) -> tuple[dict[str, list], int]:
        """The fields of lists grouped by response key in first-occurrence
        order, each with the deepest level it occurs at, and the deepest level
        reached. Spreads and inline fragments expand in place, each fragment
        once."""
        groups: dict[str, list] = {}
        visited: set[str] = set()
        height = 1
        stack = [(iter(nodes), 1) for nodes in reversed(lists)]
        while stack:
            nodes, level = stack[-1]
            node = next(nodes, None)
            if node is None:
                stack.pop()
                continue
            if isinstance(node, FieldNode):
                group = groups.setdefault(node.response_key, [[], level])
                group[0].append(node)
                group[1] = max(group[1], level)
                continue
            if isinstance(node, FragmentSpreadNode):
                fragment = self.doc.fragments.get(node.name)
                if fragment is None:
                    self.errors.append(f"fragment {node.name!r} is spread but never defined "
                                       f"(line {node.line})")
                    continue
                if fragment.type_condition != parent.name:
                    self.errors.append(
                        f"fragment {node.name!r} is declared on {fragment.type_condition!r} "
                        f"but spread into {parent.name!r} (line {node.line})")
                    continue
                if node.name in visited:
                    continue
                visited.add(node.name)
                inner = fragment.selection_set
            else:
                if node.type_condition is not None and node.type_condition != parent.name:
                    self.errors.append(
                        f"inline fragment on {node.type_condition!r} does not match "
                        f"enclosing type {parent.name!r} (line {node.line})")
                    continue
                inner = node.selection_set
            if depth + level > MAX_DEPTH:
                self._deep()
                continue
            height = max(height, level + 1)
            stack.append((iter(inner), level + 1))
        return groups, height

    def _field(self, key: str, nodes: list[FieldNode], parent: TypeIR,
               depth: int) -> CompiledField | None:
        """Check one response-key group; compile it unless it is in error."""
        node = nodes[0]
        errors = self.errors
        for other in nodes[1:]:
            if other.name != node.name or other.arguments != node.arguments:
                errors.append(
                    f"response key {key!r} selects conflicting fields or arguments (line "
                    f"{node.line}, column {node.column} and line {other.line}, column "
                    f"{other.column}); use different aliases")
                return None
        if node.name in ("__schema", "__type", "__typename"):
            errors.append(
                f"introspection field {node.name!r} is not served; fetch the exported "
                f"SDL instead (line {node.line})"
            )
            return None
        field_ir = (parent.fields or {}).get(node.name)
        if field_ir is None:
            errors.append(f"field {node.name!r} does not exist on type {parent.name!r} "
                          f"(line {node.line})")
            return None

        for arg_name, value in node.arguments.items():
            arg = field_ir.args.get(arg_name)
            if arg is None:
                errors.append(f"unknown argument {arg_name!r} on field {node.name!r} "
                              f"(line {node.line})")
                continue
            self._check_value(value, arg.type, f"argument {arg_name!r} of field {node.name!r}")
        for arg_name, arg in field_ir.args.items():
            if arg.type.kind == NON_NULL and arg_name not in node.arguments:
                errors.append(f"required argument {arg_name!r} of field {node.name!r} "
                              f"is missing (line {node.line})")

        inner = resolve_type(field_ir.type.unwrap(), self.schema.types)
        lists = [n.selection_set for n in nodes if n.selection_set is not None]
        child = None
        if inner.kind == OBJECT:
            if len(lists) < len(nodes):
                bare = next(n for n in nodes if n.selection_set is None)
                errors.append(f"field {node.name!r} of object type {inner.name!r} "
                              f"requires a selection set (line {bare.line})")
                return None
            child = self.compile(lists, inner, depth)
        elif lists:
            errors.append(f"field {node.name!r} of leaf type {inner.name!r} "
                          f"must not have a selection set (line {node.line})")
            return None

        unbound = field_ir.binding is None
        f = CompiledField(key, node, field_ir, inner, child,
                          field_ir.raw or field_ir.name if unbound else None)
        if inner.kind == SCALAR:
            f.plain = _PASS_THROUGH.get(inner.name)
        elif inner.kind == ENUM:
            f.enum = {raw: value for value, raw in inner.enum_values.items()}
        t = _nullable(field_ir.type)
        many = t.kind == LIST
        if many and _nullable(t.of_type).kind == LIST:
            return f  # nested lists take the general path
        if inner.kind == OBJECT:
            f.shape = "objects" if many else "object"
        elif inner.kind in (SCALAR, ENUM) and unbound:  # read by the set's kernel
            f.shape = "leaves" if many else "leaf"
        return f

    def _check_value(self, value: ValueNode, expected: TypeIR, where: str) -> None:
        errors = self.errors
        if value.kind == "variable":
            self.used.add(value.value)
            declared = self.variables.get(value.value)
            if declared is None:
                errors.append(f"variable ${value.value} used in {where} is not declared")
            elif not _variable_compatible(declared, expected, value.value in self.defaults,
                                          self.schema):
                errors.append(f"variable ${value.value}: {declared} is not compatible with "
                              f"the {type_str(expected)} expected by {where}")
            return

        if expected.kind == NON_NULL:
            if value.kind == "null":
                errors.append(f"{where} must not be null")
            else:
                self._check_value(value, expected.of_type, where)
            return
        if value.kind == "null":
            return
        if expected.kind == LIST:
            for item in value.values if value.kind == "list" else [value]:
                self._check_value(item, expected.of_type, where)
            return

        named = resolve_type(expected, self.schema.types)
        if named.kind == SCALAR:
            _check_scalar(value, named.name, errors, where)
        elif named.kind == ENUM:
            if value.kind != "enum" or value.value not in (named.enum_values or []):
                errors.append(f"{where} expects enum {named.name} "
                              f"(one of {list(named.enum_values)}), got {_describe(value)}")
        elif named.kind == INPUT_OBJECT:
            if value.kind != "object":
                errors.append(f"{where} expects input object {named.name}, "
                              f"got {_describe(value)}")
                return
            for key, child in value.fields.items():
                child_field = (named.fields or {}).get(key)
                if child_field is None:
                    errors.append(f"unknown field {key!r} for input object {named.name} "
                                  f"in {where}")
                else:
                    self._check_value(child, child_field.type, f"field {key!r} of {named.name}")
            for key, child_field in (named.fields or {}).items():
                if child_field.type.kind == NON_NULL and key not in value.fields:
                    errors.append(f"required field {key!r} of input object {named.name} "
                                  f"is missing in {where}")
        else:
            errors.append(f"{where} expects an input type, got {named.kind}")


    def _deep(self) -> None:
        if not self.too_deep:
            self.too_deep = True
            self.errors.append(f"selections nest deeper than {MAX_DEPTH} levels "
                               f"with fragments expanded")


def _sign(compiled: CompiledSet) -> None:
    """Set compiled's kernel signature and the fields its kernel leaves to the
    general path. A kernel reads each unbound field that has a shape and
    whose child set, if any, a kernel covers whole. Child sets enter by their
    own signature, so a signature's size does not grow with the sets under it.
    A set whose signed text is longer than KERNEL_TEXT_CHARS gets none."""
    parts: list = [compiled.type.name]
    for f in compiled.fields:
        child = f.child
        if f.raw_key is None or f.shape is None or child is not None and (
                child.signature is None or child.rest):
            compiled.rest.append(f)
            parts.append((f.key,))
        else:
            parts.append((f.key, f.raw_key, f.shape, f.field_ir.type.kind == NON_NULL,
                          f.inner.name, child and child.signature))
    text = repr(parts)
    if len(compiled.rest) < len(compiled.fields) and len(text) <= KERNEL_TEXT_CHARS:
        compiled.signature = blake2b(text.encode(), digest_size=16).hexdigest()


def declared_type(node: TypeNode, schema: SchemaIR) -> TypeIR | None:
    """The type a variable declares, or None if it names no type of the schema."""
    if node.kind == "named":
        if node.name in SCALAR_TYPE_NAMES:
            return scalar(node.name)
        return reference(node.name) if node.name in schema.types else None
    inner = declared_type(node.of_type, schema)
    if inner is None:
        return None
    return non_null(inner) if node.kind == "non_null" else list_of(inner)


def _nullable(t: TypeIR) -> TypeIR:
    return t.of_type if t.kind == NON_NULL else t


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
    if scalar_name == "Float" and finite_float(value.value) is None:
        errors.append(f"{where}: Float cannot represent non numeric value: {value.value}")


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


def _describe(value: ValueNode) -> str:
    if value.kind in ("int", "float", "string", "boolean"):
        return f"{value.kind} {value.value!r}"
    return value.kind

"""Query execution: depth-first field collection, argument/variable coercion,
resolve-plan invocation over HTTP, and spec-shaped response assembly.

Sibling fields of query selections may resolve concurrently (bounded), while
a mutation's fields resolve one at a time at every depth; a link field's
resolution starts only after its parent's response is available by
construction of the recursion.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..errors import CoercionError, OaswrapError, ResolveError
from ..preprocessing import NameTables, SanitationMap
from ..resolver_runtime import (
    ExecutionContext,
    HttpClient,
    ResolvePlan,
    bind_runtime,
    inject_auth,
    parse_upstream_body,
    shape_response,
)
from ..schema_gen import (
    ENUM,
    INPUT_OBJECT,
    LIST,
    NON_NULL,
    OBJECT,
    SCALAR,
    FieldIR,
    SchemaIR,
    TypeIR,
    resolve_type,
)
from .ast import (
    FieldNode,
    FragmentSpreadNode,
    InlineFragmentNode,
    OperationNode,
    QueryDocument,
    TypeNode,
    ValueNode,
)
from .validation import INT_MAX, INT_MIN

logger = logging.getLogger("oaswrap.engine")

_ABSENT = object()

# Python types of upstream JSON values that complete to themselves.
_PASS_THROUGH = {"String": str, "ID": str, "Int": int, "Float": float, "Boolean": bool}


@dataclass
class ExecutionResult:
    data: Any = None
    errors: list[dict] = field(default_factory=list)

    def to_payload(self) -> dict:
        payload: dict[str, Any] = {"data": self.data}
        if self.errors:
            payload["errors"] = self.errors
        return payload


class RequestFailed(OaswrapError):
    """Request-level failure (unknown operation name etc.); maps to HTTP 400."""


class _NonNullViolation(Exception):
    def __init__(self, path: list):
        self.path = path


@dataclass
class Source:
    """A raw upstream value under completion, with the request that fetched
    it (for ``$request.*`` link expressions) and the query's context."""

    value: Any
    request_record: Mapping[str, Mapping[str, Any]]
    ctx: ExecutionContext


@dataclass
class _Field:
    """One response key of a compiled selection set."""

    key: str
    nodes: list[FieldNode]
    field_ir: FieldIR
    selections: list  # the nodes' merged sub-selections
    raw_key: str | None  # the upstream key a field without binding reads
    leaf: bool  # completed inline, without a Source, arguments or _execute_field
    plain: type | None = None  # a leaf scalar's values of this exact type pass unchanged
    enum: dict[str, str] | None = None  # a leaf enum's raw -> sanitized table


@dataclass
class _Compiled:
    fields: list[_Field]
    parallel: bool


@dataclass
class _Query:
    """Per-query state: the document, the coerced variables and the selection
    sets compiled so far, keyed by (id of the selection list, parent type).
    One per execute(), since one Executor serves concurrent requests."""

    doc: QueryDocument
    variables: dict
    compiled: dict[tuple[int, str], _Compiled] = field(default_factory=dict)
    dropped: dict[str, set[str]] | None = None  # type -> unexpected upstream keys, DEBUG only


# -- variable coercion ------------------------------------------------------------


def coerce_variables(definitions, provided: Mapping[str, Any] | None,
                     schema: SchemaIR) -> dict[str, Any]:
    provided = provided or {}
    for name in provided:
        if name not in {d.name for d in definitions}:
            raise CoercionError(f"variable ${name} is provided but never declared")
    coerced: dict[str, Any] = {}
    for definition in definitions:
        name = definition.name
        expected = _type_from_node(definition.type, schema)
        if name in provided:
            coerced[name] = _coerce_input(provided[name], expected, schema, f"${name}")
        elif definition.default is not None:
            coerced[name] = _literal_value(definition.default, {}, expected, schema)
        elif definition.type.kind == "non_null":
            raise CoercionError(f"variable ${name} is non-null but was not provided")
    return coerced


def _type_from_node(node: TypeNode, schema: SchemaIR) -> TypeIR:
    from ..schema_gen import list_of, non_null, reference, scalar
    from ..schema_gen import SCALAR_TYPE_NAMES

    if node.kind == "non_null":
        return non_null(_type_from_node(node.of_type, schema))
    if node.kind == "list":
        return list_of(_type_from_node(node.of_type, schema))
    if node.name in SCALAR_TYPE_NAMES:
        return scalar(node.name)
    if node.name not in schema.types:
        raise CoercionError(f"variable type {node.name!r} is not defined by the schema")
    return reference(node.name)


def _coerce_input(value: Any, expected: TypeIR, schema: SchemaIR, where: str) -> Any:
    if expected.kind == NON_NULL:
        if value is None:
            raise CoercionError(f"{where} must not be null")
        return _coerce_input(value, expected.of_type, schema, where)
    if value is None:
        return None
    if expected.kind == LIST:
        items = value if isinstance(value, list) else [value]
        return [_coerce_input(v, expected.of_type, schema, f"{where}[{i}]")
                for i, v in enumerate(items)]

    named = resolve_type(expected, schema.types)
    if named.kind == SCALAR:
        return _coerce_scalar(value, named.name, where)
    if named.kind == ENUM:
        if not isinstance(value, str) or value not in (named.enum_values or []):
            raise CoercionError(f"{where} expects one of {named.enum_values}, got {value!r}")
        return value
    if named.kind == INPUT_OBJECT:
        if not isinstance(value, dict):
            raise CoercionError(f"{where} expects an object for input type {named.name}")
        out = {}
        for key, child in value.items():
            child_field = (named.fields or {}).get(key)
            if child_field is None:
                raise CoercionError(f"{where} has unknown field {key!r} for {named.name}")
            out[key] = _coerce_input(child, child_field.type, schema, f"{where}.{key}")
        for key, child_field in (named.fields or {}).items():
            if child_field.type.kind == NON_NULL and key not in out:
                raise CoercionError(f"{where} is missing required field {key!r}")
        return out
    raise CoercionError(f"{where}: type {named.name!r} cannot be used as input")


def _coerce_scalar(value: Any, name: str, where: str) -> Any:
    if name == "Int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise CoercionError(f"{where} expects Int, got {value!r}")
        if not (INT_MIN <= value <= INT_MAX):
            raise CoercionError(f"{where}: Int {value} is outside the 32-bit range")
        return value
    if name == "Float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CoercionError(f"{where} expects Float, got {value!r}")
        return float(value)
    if name == "String":
        if not isinstance(value, str):
            raise CoercionError(f"{where} expects String, got {value!r}")
        return value
    if name == "Boolean":
        if not isinstance(value, bool):
            raise CoercionError(f"{where} expects Boolean, got {value!r}")
        return value
    if name == "ID":
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise CoercionError(f"{where} expects ID, got {value!r}")
        return str(value)
    raise CoercionError(f"{where}: unknown scalar {name!r}")


def _literal_value(node: ValueNode, variables: Mapping[str, Any],
                   expected: TypeIR | None, schema: SchemaIR) -> Any:
    if node.kind == "variable":
        return variables.get(node.value, _ABSENT)
    if node.kind in ("int", "float", "string", "boolean"):
        return node.value
    if node.kind == "null":
        return None
    if node.kind == "enum":
        return node.value
    if node.kind == "list":
        items = []
        inner = expected.of_type if expected is not None and expected.kind == LIST else None
        for child in node.values:
            value = _literal_value(child, variables, inner, schema)
            if value is not _ABSENT:
                items.append(value)
        return items
    if node.kind == "object":
        out = {}
        for key, child in node.fields.items():
            value = _literal_value(child, variables, None, schema)
            if value is not _ABSENT:
                out[key] = value
        return out
    raise CoercionError(f"cannot evaluate value node {node.kind!r}")


# -- execution ---------------------------------------------------------------------


class Executor:
    """Executes validated query documents against one immutable SchemaIR.

    Completion reads the raw upstream JSON through one name table per named
    type, built here at serve start from the types' sanitation scopes.
    """

    def __init__(self, schema: SchemaIR, plans: Mapping[str, ResolvePlan],
                 sanmap: SanitationMap, client: HttpClient | None = None,
                 max_parallel: int = 8):
        self.schema = schema
        self.plans = plans
        self.tables = NameTables(schema.types, sanmap)
        self.client = client or HttpClient()
        self.max_parallel = max(1, max_parallel)

    def execute(self, doc: QueryDocument, operation_name: str | None,
                variables: Mapping[str, Any] | None, ctx: ExecutionContext) -> ExecutionResult:
        operation = self._pick_operation(doc, operation_name)
        query = _Query(doc, coerce_variables(operation.variable_definitions, variables,
                                             self.schema))
        if logger.isEnabledFor(logging.DEBUG):
            query.dropped = {}

        result = ExecutionResult()
        if operation.kind == "mutation":
            root = TypeIR(OBJECT, name="Mutation", fields=self.schema.mutation_fields)
            ctx = replace(ctx, mutation=True)
        else:
            root = TypeIR(OBJECT, name="Query", fields=self.schema.query_fields)
        source = Source(value={}, request_record={}, ctx=ctx)
        try:
            result.data = self._execute_selection_set(
                operation.selection_set, root, source, query, [], result.errors,
            )
        except _NonNullViolation:
            result.data = None
        for type_name, keys in sorted((query.dropped or {}).items()):
            logger.debug("dropped %d unexpected upstream key(s) of type %s: %s",
                         len(keys), type_name, sorted(keys)[:10])
        return result

    def _pick_operation(self, doc: QueryDocument, name: str | None) -> OperationNode:
        if name is not None:
            for op in doc.operations:
                if op.name == name:
                    return op
            raise RequestFailed(f"unknown operation name {name!r}")
        if len(doc.operations) != 1:
            raise RequestFailed("operationName is required for multi-operation documents")
        return doc.operations[0]

    # -- selection sets ---------------------------------------------------

    def _execute_selection_set(self, selections: list, parent_type: TypeIR, source: Source,
                               query: _Query, path: list, errors: list) -> dict:
        compiled = query.compiled.get((id(selections), parent_type.name))
        if compiled is None:
            compiled = self._compile(selections, parent_type, source.ctx, query)
        if query.dropped is not None and parent_type.name in self.tables.fields:
            unexpected = source.value.keys() - self.tables.fields[parent_type.name].values()
            query.dropped.setdefault(parent_type.name, set()).update(unexpected)

        out: dict[str, Any] = {}
        bubbled: _NonNullViolation | None = None
        if compiled.parallel:
            def run(f: _Field):
                # Each sibling collects into its own error list so concurrent
                # completion cannot reorder the merged result.
                local_errors: list = []
                return self._field_value(f, source, query, path, local_errors), local_errors

            with ThreadPoolExecutor(
                    max_workers=min(self.max_parallel, len(compiled.fields))) as pool:
                results = list(pool.map(run, compiled.fields))
            for f, (value, local_errors) in zip(compiled.fields, results):
                errors.extend(local_errors)
                if isinstance(value, _NonNullViolation):
                    bubbled = bubbled or value
                else:
                    out[f.key] = value
        else:
            raw = source.value
            for f in compiled.fields:
                # A leaf value that completes unchanged, or by one enum table
                # lookup, is taken here; any other value, and every error,
                # takes the general path.
                value = raw.get(f.raw_key) if f.leaf else None
                if type(value) is f.plain and (f.plain is not int
                                               or INT_MIN <= value <= INT_MAX):
                    out[f.key] = value
                elif f.enum is not None and type(value) is str and value in f.enum:
                    out[f.key] = f.enum[value]
                else:
                    value = self._field_value(f, source, query, path, errors)
                    if isinstance(value, _NonNullViolation):
                        bubbled = bubbled or value
                    else:
                        out[f.key] = value
        if bubbled is not None:
            raise bubbled
        return out

    def _compile(self, selections: list, parent_type: TypeIR, ctx: ExecutionContext,
                 query: _Query) -> _Compiled:
        """Collect a selection set's fields once per query, deciding which are
        leaves and whether siblings resolve in parallel."""
        table = self.tables.fields.get(parent_type.name, {})
        fields = []
        for key, nodes in self._collect_fields(selections, parent_type, query.doc).items():
            field_ir = (parent_type.fields or {}).get(nodes[0].name)
            if field_ir is None:  # validation rejects this; defensive only
                continue
            merged = [s for n in nodes if n.selection_set for s in n.selection_set]
            raw_key = None
            if field_ir.binding is None:
                raw_key = table.get(field_ir.name, field_ir.name)
            f = _Field(key, nodes, field_ir, merged, raw_key, self._is_leaf(field_ir))
            if f.leaf:  # a list leaf is neither plain nor enum
                t = field_ir.type.of_type if field_ir.type.kind == NON_NULL else field_ir.type
                named = resolve_type(t, self.schema.types)
                if named.kind == SCALAR:
                    f.plain = _PASS_THROUGH.get(named.name)
                elif named.kind == ENUM:
                    f.enum = self.tables.enums.get(named.name)
            fields.append(f)
        operations = sum(1 for f in fields
                         if f.field_ir.binding and f.field_ir.binding.kind == "operation")
        parallel = (not ctx.mutation and self.max_parallel > 1 and len(fields) > 1
                    and operations > 1)
        compiled = _Compiled(fields, parallel)
        query.compiled[(id(selections), parent_type.name)] = compiled
        return compiled

    def _is_leaf(self, field_ir: FieldIR) -> bool:
        """Whether a field completes inline: a scalar or enum, or a list of
        them, with no binding and no arguments."""
        return (field_ir.binding is None and not field_ir.args
                and resolve_type(field_ir.type.unwrap(), self.schema.types).kind
                in (SCALAR, ENUM))

    def _collect_fields(self, selections: list, parent_type: TypeIR,
                        doc: QueryDocument) -> dict[str, list[FieldNode]]:
        grouped: dict[str, list[FieldNode]] = {}

        def visit(nodes: list, seen_fragments: set[str]) -> None:
            for node in nodes:
                if isinstance(node, FieldNode):
                    grouped.setdefault(node.response_key, []).append(node)
                elif isinstance(node, FragmentSpreadNode):
                    if node.name in seen_fragments:
                        continue
                    fragment = doc.fragments[node.name]
                    visit(fragment.selection_set, seen_fragments | {node.name})
                elif isinstance(node, InlineFragmentNode):
                    visit(node.selection_set, seen_fragments)

        visit(selections, set())
        return grouped

    # -- fields ----------------------------------------------------------------

    def _field_value(self, f: _Field, source: Source, query: _Query, path: list,
                     errors: list):
        """The completed value of one field, or a _NonNullViolation to bubble."""
        if not f.leaf:
            return self._execute_field(f, source, query, path + [f.key], errors)
        try:
            return self._complete(f.field_ir.type, source.value.get(f.raw_key), source, f,
                                  query, path + [f.key], errors)
        except _NonNullViolation as bubble:
            return bubble if f.field_ir.type.kind == NON_NULL else None

    def _execute_field(self, f: _Field, source: Source, query: _Query, path: list,
                       errors: list):
        node = f.nodes[0]
        field_ir = f.field_ir
        try:
            args = self._coerce_arguments(field_ir, node, query.variables)
            child = self._resolve(f, args, source)
            return self._complete(field_ir.type, child.value, child, f, query, path, errors)
        except (ResolveError, CoercionError) as exc:
            errors.append(_error_entry(str(exc), path, node))
            if field_ir.type.kind == NON_NULL:
                return _NonNullViolation(path)
            return None
        except _NonNullViolation as bubble:
            if field_ir.type.kind == NON_NULL:
                return bubble
            return None

    def _coerce_arguments(self, field_ir: FieldIR, node: FieldNode,
                          variables: dict) -> dict[str, Any]:
        args: dict[str, Any] = {}
        for arg_name, arg in field_ir.args.items():
            if arg_name in node.arguments:
                value = _literal_value(node.arguments[arg_name], variables,
                                       arg.type, self.schema)
                if value is _ABSENT:
                    continue
                args[arg_name] = value
            # absent nullable arguments simply stay absent; defaults are
            # design-time plan knowledge applied at bind time
        return args

    def _resolve(self, f: _Field, args: dict, source: Source) -> Source:
        field_ir = f.field_ir
        binding = field_ir.binding
        if binding is None:
            return Source(source.value.get(f.raw_key), source.request_record, source.ctx)
        if binding.kind == "placeholder":
            return Source(None, {}, source.ctx)
        if binding.kind == "viewer":
            creds: dict[str, dict[str, str]] = {}
            if binding.credential_args:
                for arg_name, scheme in binding.credential_args.items():
                    group = args.get(arg_name)
                    if isinstance(group, dict):
                        creds[scheme] = {k: str(v) for k, v in group.items() if v is not None}
            else:
                for scheme in binding.schemes:
                    creds[scheme] = {k: str(v) for k, v in args.items() if v is not None}
            ctx = source.ctx.with_credentials(creds)
            return Source({}, source.request_record, ctx)

        plan = self.plans[binding.plan_key]
        # Link expressions read the raw object holding the link field.
        spec = bind_runtime(
            plan, args, source.value, source.request_record, source.ctx,
            self.tables, link_params=binding.link_params,
        )
        spec = inject_auth(spec, plan, source.ctx)
        status, _headers, body = self.client.send(spec)
        stringlike = _is_plain_string(field_ir.type)
        parsed = parse_upstream_body(status, body, expects_structured=not stringlike)
        return Source(
            value=shape_response(parsed, not stringlike),
            request_record={"path": spec.path_values, "query": spec.query_values},
            ctx=source.ctx.with_used_params(spec.sent_params),
        )

    # -- completion ---------------------------------------------------------------

    def _complete(self, type_ir: TypeIR, value: Any, source: Source, f: _Field,
                  query: _Query, path: list, errors: list):
        """Complete a raw value of field f; objects inherit source's request
        record and context."""
        if type_ir.kind == NON_NULL:
            value = self._complete(type_ir.of_type, value, source, f, query, path, errors)
            if value is None:
                errors.append(_error_entry(
                    f"field {f.key!r} of non-null type resolved to null", path, f.nodes[0]))
                raise _NonNullViolation(path)
            return value
        if value is None:
            return None

        if type_ir.kind == LIST:
            if not isinstance(value, list):
                errors.append(_error_entry(
                    f"expected a list for field {f.key!r}, got {type(value).__name__}",
                    path, f.nodes[0]))
                return None
            items = []
            for index, item in enumerate(value):
                try:
                    items.append(self._complete(type_ir.of_type, item, source, f, query,
                                                path + [index], errors))
                except _NonNullViolation:
                    # A nullable item is the nearest nullable parent.
                    if type_ir.of_type.kind == NON_NULL:
                        raise
                    items.append(None)
            return items

        named = resolve_type(type_ir, self.schema.types)
        node = f.nodes[0]
        if named.kind == SCALAR:
            return self._complete_scalar(named.name, value, path, errors, node)
        if named.kind == ENUM:
            return self._complete_enum(named, value, path, errors, node)
        if named.kind == OBJECT:
            if not isinstance(value, dict):
                errors.append(_error_entry(
                    f"expected an object for field {f.key!r}, got {type(value).__name__}",
                    path, node))
                return None
            return self._execute_selection_set(
                f.selections, named, Source(value, source.request_record, source.ctx),
                query, path, errors)
        errors.append(_error_entry(f"type {named.name!r} cannot appear in output", path, node))
        return None

    def _complete_scalar(self, name: str, value: Any, path: list, errors: list,
                         node: FieldNode):
        if name == "String":
            if isinstance(value, (dict, list)):
                return json.dumps(value)
            if isinstance(value, bool):
                return "true" if value else "false"
            return str(value)
        if name == "Int":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(_error_entry(f"upstream value {value!r} is not an Int",
                                           path, node))
                return None
            as_int = int(value)
            if not (INT_MIN <= as_int <= INT_MAX):
                logger.info("Int overflow at %s: %s surfaced as Float", path, value)
                return float(value)
            return as_int
        if name == "Float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(_error_entry(f"upstream value {value!r} is not a Float",
                                           path, node))
                return None
            return float(value)
        if name == "Boolean":
            if not isinstance(value, bool):
                errors.append(_error_entry(f"upstream value {value!r} is not a Boolean",
                                           path, node))
                return None
            return value
        if name == "ID":
            return str(value)
        errors.append(_error_entry(f"unknown scalar {name!r}", path, node))
        return None

    def _complete_enum(self, named: TypeIR, value: Any, path: list, errors: list,
                       node: FieldNode):
        mapped = self.tables.enums.get(named.name, {}).get(str(value))
        if mapped is not None:
            return mapped
        if isinstance(value, str) and value in (named.enum_values or []):
            return value
        errors.append(_error_entry(
            f"upstream value {value!r} is not a value of enum {named.name}", path, node))
        return None


def _is_plain_string(type_ir: TypeIR) -> bool:
    t = type_ir
    while t.kind == NON_NULL:
        t = t.of_type
    return t.kind == SCALAR and t.name == "String"


def _error_entry(message: str, path: list, node: FieldNode) -> dict:
    return {
        "message": message,
        "path": list(path),
        "locations": [{"line": node.line, "column": node.column}],
    }

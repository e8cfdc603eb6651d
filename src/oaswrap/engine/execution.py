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
from ..preprocessing import SanitationMap
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
    """Value container threading both the sanitized view (for selection) and
    the raw upstream view (for link expressions) through execution."""

    data: Any
    raw: Any
    response_root: Any
    request_record: Mapping[str, Mapping[str, Any]]
    ctx: ExecutionContext


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
    """Executes validated query documents against one immutable SchemaIR."""

    def __init__(self, schema: SchemaIR, plans: Mapping[str, ResolvePlan],
                 sanmap: SanitationMap, client: HttpClient | None = None,
                 max_parallel: int = 8):
        self.schema = schema
        self.plans = plans
        self.sanmap = sanmap
        self.client = client or HttpClient()
        self.max_parallel = max(1, max_parallel)

    def execute(self, doc: QueryDocument, operation_name: str | None,
                variables: Mapping[str, Any] | None, ctx: ExecutionContext) -> ExecutionResult:
        operation = self._pick_operation(doc, operation_name)
        coerced = coerce_variables(operation.variable_definitions, variables, self.schema)

        result = ExecutionResult()
        if operation.kind == "mutation":
            root = TypeIR(OBJECT, name="Mutation", fields=self.schema.mutation_fields)
            ctx = replace(ctx, mutation=True)
        else:
            root = TypeIR(OBJECT, name="Query", fields=self.schema.query_fields)
        source = Source(data={}, raw={}, response_root=None, request_record={}, ctx=ctx)
        try:
            result.data = self._execute_selection_set(
                operation.selection_set, root, source, doc, coerced, [], result.errors,
            )
        except _NonNullViolation:
            result.data = None
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
                               doc: QueryDocument, variables: dict, path: list,
                               errors: list) -> dict:
        grouped = self._collect_fields(selections, parent_type, doc)
        out: dict[str, Any] = {}

        def run(entry: tuple[str, list[FieldNode]]):
            # Each sibling collects into its own error list so concurrent
            # completion cannot reorder the merged result.
            key, nodes = entry
            local_errors: list = []
            value = self._execute_field(parent_type, nodes, source, doc, variables,
                                        path + [key], local_errors)
            return value, local_errors

        entries = list(grouped.items())
        parallel = (not source.ctx.mutation and self.max_parallel > 1 and len(entries) > 1
                    and sum(1 for _, nodes in entries
                            if self._has_operation_binding(parent_type, nodes[0])) > 1)
        if parallel:
            with ThreadPoolExecutor(max_workers=min(self.max_parallel, len(entries))) as pool:
                results = list(pool.map(run, entries))
        else:
            results = [run(entry) for entry in entries]

        bubbled: _NonNullViolation | None = None
        for (key, nodes), (value, local_errors) in zip(entries, results):
            errors.extend(local_errors)
            if isinstance(value, _NonNullViolation):
                bubbled = bubbled or value
                continue
            out[key] = value
        if bubbled is not None:
            raise bubbled
        return out

    def _has_operation_binding(self, parent_type: TypeIR, node: FieldNode) -> bool:
        field_ir = (parent_type.fields or {}).get(node.name)
        return bool(field_ir and field_ir.binding and field_ir.binding.kind == "operation")

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

    def _execute_field(self, parent_type: TypeIR, nodes: list[FieldNode], source: Source,
                       doc: QueryDocument, variables: dict, path: list, errors: list):
        node = nodes[0]
        field_ir = (parent_type.fields or {}).get(node.name)
        if field_ir is None:  # validation rejects this; defensive only
            return None
        try:
            args = self._coerce_arguments(field_ir, node, variables)
            child = self._resolve(parent_type, field_ir, args, source)
            merged_selections = [s for n in nodes if n.selection_set
                                 for s in n.selection_set]
            return self._complete(field_ir.type, child, merged_selections, doc,
                                  variables, path, errors, node)
        except ResolveError as exc:
            errors.append(_error_entry(str(exc), path, node))
            if field_ir.type.kind == NON_NULL:
                return _NonNullViolation(path)
            return None
        except CoercionError as exc:
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

    def _resolve(self, parent_type: TypeIR, field_ir: FieldIR, args: dict,
                 source: Source) -> Source:
        binding = field_ir.binding
        if binding is None:
            return self._project(parent_type, field_ir, source)
        if binding.kind == "placeholder":
            return Source(None, None, None, {}, source.ctx)
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
            return Source({}, {}, source.response_root, source.request_record, ctx)

        plan = self.plans[binding.plan_key]
        spec = bind_runtime(
            plan, args, source.response_root, source.request_record, source.ctx,
            self.sanmap, link_params=binding.link_params,
        )
        spec = inject_auth(spec, plan, source.ctx)
        status, _headers, body = self.client.send(spec)
        stringlike = _is_plain_string(field_ir.type)
        parsed = parse_upstream_body(status, body, expects_structured=not stringlike)
        shaped = shape_response(parsed, not stringlike, self.sanmap, plan.response_scopes)
        child_ctx = source.ctx.with_used_params(spec.sent_params)
        return Source(
            data=shaped, raw=parsed, response_root=parsed,
            request_record={"path": spec.path_values, "query": spec.query_values},
            ctx=child_ctx,
        )

    def _project(self, parent_type: TypeIR, field_ir: FieldIR, source: Source) -> Source:
        scope = f"type:{parent_type.name}"
        data = source.data.get(field_ir.name) if isinstance(source.data, dict) else None
        raw_key = self.sanmap.to_raw([scope], field_ir.name) or field_ir.name
        raw = source.raw.get(raw_key) if isinstance(source.raw, dict) else None
        return Source(data, raw, source.response_root, source.request_record, source.ctx)

    # -- completion ---------------------------------------------------------------

    def _complete(self, type_ir: TypeIR, source: Source, selections: list,
                  doc: QueryDocument, variables: dict, path: list, errors: list,
                  node: FieldNode):
        if type_ir.kind == NON_NULL:
            value = self._complete(type_ir.of_type, source, selections, doc,
                                   variables, path, errors, node)
            if value is None:
                errors.append(_error_entry(
                    f"field {node.response_key!r} of non-null type resolved to null",
                    path, node))
                raise _NonNullViolation(path)
            return value

        if source.data is None:
            return None

        if type_ir.kind == LIST:
            if not isinstance(source.data, list):
                errors.append(_error_entry(
                    f"expected a list for field {node.response_key!r}, got "
                    f"{type(source.data).__name__}", path, node))
                return None
            raw_list = source.raw if isinstance(source.raw, list) else [None] * len(source.data)
            out = []
            for index, item in enumerate(source.data):
                item_source = Source(item, raw_list[index] if index < len(raw_list) else None,
                                     source.response_root, source.request_record, source.ctx)
                out.append(self._complete(type_ir.of_type, item_source, selections, doc,
                                          variables, path + [index], errors, node))
            return out

        named = resolve_type(type_ir, self.schema.types)
        if named.kind == SCALAR:
            return self._complete_scalar(named.name, source.data, path, errors, node)
        if named.kind == ENUM:
            return self._complete_enum(named, source.data, path, errors, node)
        if named.kind == OBJECT:
            if not isinstance(source.data, dict):
                errors.append(_error_entry(
                    f"expected an object for field {node.response_key!r}, got "
                    f"{type(source.data).__name__}", path, node))
                return None
            return self._execute_selection_set(selections, named, source, doc,
                                               variables, path, errors)
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
        scope = f"type:{named.name}"
        mapped = self.sanmap.to_sanitized([scope], str(value))
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

"""Query execution over the selection sets validation compiles: argument and
variable coercion, resolve-plan invocation over HTTP, and spec-shaped
response assembly.

Sibling fields of query selections may resolve concurrently (bounded), while
a mutation's fields resolve one at a time at every depth; a link field's
resolution starts only after its parent's response is available by
construction of the recursion.
"""

from __future__ import annotations

import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import count
from math import isfinite
from typing import Any, Mapping

from ..errors import CoercionError, OaswrapError, ResolveError, UpstreamNotJson
from ..resolver_runtime import (
    HttpClient,
    bind_runtime,
    inject_auth,
    parse_upstream_body,
    shape_response,
)
from ..ir import (
    ENUM,
    INPUT_OBJECT,
    LIST,
    NON_NULL,
    OBJECT,
    SCALAR,
    FieldIR,
    ResolvePlan,
    SchemaIR,
    TypeIR,
    resolve_type,
)
from .ast import FieldNode, OperationNode, QueryDocument, ValueNode
from .cache import SecondSightingCache
from .kernels import Kernel, build_kernel, leaves
from .validation import (INT_MAX, INT_MIN, CompiledField, CompiledSet, compile_operation,
                         declared_type, finite_float)

logger = logging.getLogger("oaswrap.engine")

_ABSENT = object()

# The most selection-set signatures an executor keeps a completion kernel for;
# past it the least recently used goes.
KERNEL_TABLE_ENTRIES = 256


class ExecutionResult:
    def __init__(self, data: Any = None, errors: list[dict] | None = None):
        self.data, self.errors = data, [] if errors is None else errors

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


class Scope:
    """What resolutions below one resolved field share. Nested objects and
    list items inherit it unchanged; a resolution forks it, and none changes it."""

    def __init__(self, sent: Mapping[str, Mapping[str, Any]], used: Mapping[str, Any],
                 credentials: Mapping[str, Mapping[str, str]]):
        self.sent = sent  # location -> raw name -> value the parent sent
        self.used = used  # raw name -> value an ancestor request sent
        self.credentials = credentials  # scheme -> members a viewer supplied

    def after(self, sent: Mapping[str, Mapping[str, Any]]) -> "Scope":
        """The scope below a field resolved by a request that sent sent. Of
        its values that share a raw name, the path value wins, then the query
        value."""
        used = dict(self.used)
        for location in ("header", "query", "path"):
            used.update(sent.get(location, {}))
        return Scope(sent, used, self.credentials)


class _Query:
    """Per-query state: the coerced variables and, with DEBUG on, the raw
    upstream keys seen per type. One per execute(), since one Executor serves
    concurrent requests."""

    def __init__(self, variables: dict,
                 serial: int,  # this query's number among its executor's
                 seen: dict[str, set[str]] | None = None):  # type -> upstream keys, DEBUG only
        self.variables, self.serial, self.seen = variables, serial, seen


# -- variable coercion ------------------------------------------------------------


def coerce_variables(definitions, provided: Mapping[str, Any] | None,
                     schema: SchemaIR) -> dict[str, Any]:
    provided = provided or {}
    declared = {d.name for d in definitions}
    for name in provided:
        if name not in declared:
            raise CoercionError(f"variable ${name} is provided but never declared")
    coerced: dict[str, Any] = {}
    for definition in definitions:
        name = definition.name
        expected = declared_type(definition.type, schema)
        if expected is None:
            raise CoercionError(f"variable type {str(definition.type)!r} is not defined "
                                f"by the schema")
        if name in provided:
            coerced[name] = _coerce_input(provided[name], expected, schema, f"${name}")
        elif definition.default is not None:
            coerced[name] = _coerce_input(_literal_value(definition.default, {}), expected,
                                          schema, f"${name}")
        elif definition.type.kind == "non_null":
            raise CoercionError(f"variable ${name} is non-null but was not provided")
    return coerced


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
            raise CoercionError(f"{where} expects one of {list(named.enum_values)}, got {value!r}")
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
        as_float = finite_float(value)
        if as_float is None:
            raise CoercionError(f"{where}: Float cannot represent non numeric value: {value!r}")
        return as_float
    if name == "String":
        if not isinstance(value, str):
            raise CoercionError(f"{where} expects String, got {value!r}")
        return _unicode_text(value, where)
    if name == "Boolean":
        if not isinstance(value, bool):
            raise CoercionError(f"{where} expects Boolean, got {value!r}")
        return value
    if name == "ID":
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise CoercionError(f"{where} expects ID, got {value!r}")
        return _unicode_text(str(value), where)
    raise CoercionError(f"{where}: unknown scalar {name!r}")


def _unicode_text(text: str, where: str) -> str:
    """text, unless it holds a lone surrogate: the request decoder yields one
    for a JSON escape such as "\\ud800", and no upstream request can carry it."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise CoercionError(f"{where} holds a lone surrogate, which is no Unicode "
                                f"scalar value") from None
    return text


def _literal_value(node: ValueNode, variables: Mapping[str, Any]) -> Any:
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
        for child in node.values:
            value = _literal_value(child, variables)
            if value is not _ABSENT:
                items.append(value)
        return items
    if node.kind == "object":
        out = {}
        for key, child in node.fields.items():
            value = _literal_value(child, variables)
            if value is not _ABSENT:
                out[key] = value
        return out
    raise CoercionError(f"cannot evaluate value node {node.kind!r}")


# -- execution ---------------------------------------------------------------------


class Executor:
    """Executes validated query documents against one immutable SchemaIR.

    Completion reads the raw upstream JSON by each field's raw key, and maps
    raw enum values through the compiled field's raw -> sanitized table. A
    selection set whose signature a second query runs gets a completion
    kernel (kernels.py), shared by every set of that signature, which
    completes its fitting objects; any other object takes the general path.
    The kernel table is a second-sighting cache (cache.py).

    ``token`` is the bearer token sent to OAuth, OpenID and bearer schemes;
    viewer credentials and propagated parameters travel in each path's Scope.
    """

    def __init__(self, schema: SchemaIR, plans: Mapping[str, ResolvePlan],
                 client: HttpClient | None = None, max_parallel: int = 8, token: Any = None):
        self.schema = schema
        self.plans = plans
        self.client = client or HttpClient()
        self.max_parallel = max(1, max_parallel)
        self.token = token
        self._kernels = SecondSightingCache(KERNEL_TABLE_ENTRIES)  # signature -> kernel
        self._serials = count()

    def execute(self, doc: QueryDocument, operation_name: str | None,
                variables: Mapping[str, Any] | None) -> ExecutionResult:
        operation = self._pick_operation(doc, operation_name)
        root, errors = compile_operation(doc, operation, self.schema)
        if errors:
            raise RequestFailed("; ".join(errors))
        query = _Query(coerce_variables(operation.variable_definitions, variables,
                                        self.schema), next(self._serials))
        if logger.isEnabledFor(logging.DEBUG):
            query.seen = {}

        result = ExecutionResult()
        try:
            result.data = self._execute_selection_set(root, {}, Scope({}, {}, {}), query, [],
                                                      result.errors)
        except _NonNullViolation:
            result.data = None
        for type_name, keys in sorted((query.seen or {}).items()):
            if keys:  # root and viewer objects are empty, and their types not in the schema's
                keys -= {f.raw for f in self.schema.types[type_name].fields.values()}
            if keys:
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

    def _execute_selection_set(self, compiled: CompiledSet, raw: dict, scope: Scope,
                               query: _Query, path: list, errors: list) -> dict:
        """Complete the raw upstream object raw on compiled's fields: those
        its kernel covers, if the kernel completes them, and the rest on the
        general path."""
        out = None
        if query.seen is not None:
            query.seen.setdefault(compiled.type.name, set()).update(raw)
        elif compiled.signature is not None:
            # A query owns its sightings, so a selection that one query runs,
            # however many objects it completes, never pays for a kernel.
            kernel = self._kernels.get(compiled.signature)
            if kernel is not None:
                try:
                    self._kernels.refresh(compiled.signature)
                except KeyError:  # another thread evicted it since
                    pass
                out = kernel(raw)
            elif self._kernels.sighted(compiled.signature, query.serial):
                out = self._built(compiled)(raw)
        if out is None:
            out, fields = {}, compiled.fields
        elif compiled.rest:
            fields = compiled.rest  # assigned in place, so response-key order holds
        else:
            return out

        bubbled: _NonNullViolation | None = None
        if compiled.parallel and self.max_parallel > 1:
            def run(f: CompiledField):
                # Each sibling collects into its own error list so concurrent
                # completion cannot reorder the merged result.
                local_errors: list = []
                return (self._execute_field(f, raw, scope, query, path + [f.key], local_errors),
                        local_errors)

            with ThreadPoolExecutor(max_workers=min(self.max_parallel, len(fields))) as pool:
                results = list(pool.map(run, fields))
            for f, (value, local_errors) in zip(fields, results):
                errors.extend(local_errors)
                if isinstance(value, _NonNullViolation):
                    bubbled = bubbled or value
                else:
                    out[f.key] = value
        else:
            for f in fields:
                # An unbound scalar or enum, or a list of them, whose values
                # pass unchanged or map by one enum table lookup each, is
                # taken here; any other field, and every error, takes
                # _execute_field.
                shape = f.shape
                if shape == "leaf":
                    value = raw.get(f.raw_key)
                    plain = f.plain
                    if type(value) is plain and (plain is not int
                                                 or INT_MIN <= value <= INT_MAX) and (
                            plain is not float or isfinite(value)):
                        out[f.key] = value
                        continue
                    if f.enum is not None and type(value) is str and value in f.enum:
                        out[f.key] = f.enum[value]
                        continue
                elif shape == "leaves":
                    value = raw.get(f.raw_key)
                    if type(value) is list:
                        value = leaves(f, value)
                        if value is not None:
                            out[f.key] = value
                            continue
                value = self._execute_field(f, raw, scope, query, path + [f.key], errors)
                if isinstance(value, _NonNullViolation):
                    bubbled = bubbled or value
                else:
                    out[f.key] = value
        if bubbled is not None:
            raise bubbled
        return out

    def _built(self, compiled: CompiledSet) -> Kernel:
        """compiled's kernel, generated now if the table lacks it. Threads
        generate outside the table's lock, so two may build one kernel alike."""
        kernel = self._kernels.get(compiled.signature)
        if kernel is None:
            kernel = build_kernel(compiled, self._built)
            self._kernels.keep(compiled.signature, kernel)
        return kernel

    # -- fields ----------------------------------------------------------------

    def _execute_field(self, f: CompiledField, raw: dict, scope: Scope, query: _Query,
                       path: list, errors: list):
        """The completed value of one field of the raw object raw, or a
        _NonNullViolation to bubble. An unbound field's value is read from raw,
        any other is resolved. An object goes straight to the child set; any
        other value takes _complete."""
        field_ir = f.field_ir
        try:
            if f.raw_key is not None:
                value = raw.get(f.raw_key)
            else:
                args = self._coerce_arguments(field_ir, f.node, query.variables)
                value, scope = self._resolve(f, args, raw, scope)
            if f.shape == "object" and type(value) is dict:
                return self._execute_selection_set(f.child, value, scope, query, path, errors)
            return self._complete(field_ir.type, value, scope, f, query, path, errors)
        except (ResolveError, CoercionError) as exc:
            message = str(exc)
        except RecursionError:  # a value nested past what decoding or json.dumps can walk
            source = field_ir.binding and field_ir.binding.plan_key or f"field {f.key!r}"
            message = f"upstream value of {source} is nested too deeply"
        except _NonNullViolation as bubble:
            if field_ir.type.kind == NON_NULL:
                return bubble
            return None
        errors.append(_error_entry(message, path, f.node))
        if field_ir.type.kind == NON_NULL:
            return _NonNullViolation(path)
        return None

    def _coerce_arguments(self, field_ir: FieldIR, node: FieldNode,
                          variables: dict) -> dict[str, Any]:
        """The given arguments, in declaration order, coerced to their types as
        variables are, so a literal and a variable of one value bind alike.
        Absent ones stay absent: defaults are design-time plan knowledge
        applied at bind time."""
        given = {name: _literal_value(node.arguments[name], variables)
                 for name in field_ir.args if name in node.arguments}
        return {name: _coerce_input(value, field_ir.args[name].type, self.schema, name)
                for name, value in given.items() if value is not _ABSENT}

    def _resolve(self, f: CompiledField, args: dict, raw: dict,
                 scope: Scope) -> tuple[Any, Scope]:
        """The value of a bound field of the raw object raw, and the scope its
        completion runs in."""
        field_ir = f.field_ir
        binding = field_ir.binding
        if binding.kind == "placeholder":
            return None, scope
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
            return {}, Scope(scope.sent, scope.used, {**scope.credentials, **creds})

        plan = self.plans[binding.plan_key]
        # Link expressions read the raw object holding the link field.
        spec = bind_runtime(
            plan, args, raw, scope.sent, scope.used,
            self.schema.types, link_params=binding.link_params,
        )
        spec = inject_auth(spec, plan, scope.credentials, self.token)
        status, _headers, body = self.client.send(spec)
        stringlike = _is_plain_string(field_ir.type)
        try:
            parsed = parse_upstream_body(status, body, expects_structured=not stringlike)
        except ValueError:  # an integer literal past sys.get_int_max_str_digits()
            raise UpstreamNotJson(f"upstream value of {binding.plan_key} holds an integer of "
                                  f"more than {sys.get_int_max_str_digits()} digits") from None
        return shape_response(parsed, not stringlike), scope.after(spec.sent)

    # -- completion ---------------------------------------------------------------

    def _complete(self, type_ir: TypeIR, value: Any, scope: Scope, f: CompiledField,
                  query: _Query, path: list, errors: list):
        """Complete a raw value of field f, of type type_ir, in scope."""
        if type_ir.kind == NON_NULL:
            value = self._complete(type_ir.of_type, value, scope, f, query, path, errors)
            if value is None:
                errors.append(_error_entry(
                    f"field {f.key!r} of non-null type resolved to null", path, f.node))
                raise _NonNullViolation(path)
            return value
        if value is None:
            return None

        if type_ir.kind == LIST:
            if not isinstance(value, list):
                errors.append(_error_entry(
                    f"expected a list for field {f.key!r}, got {type(value).__name__}",
                    path, f.node))
                return None
            item_type = type_ir.of_type
            # A list of objects completes each dict item straight in the child set.
            child = f.child if f.shape == "objects" else None
            items = []
            for index, item in enumerate(value):
                try:
                    if child is not None and type(item) is dict:
                        items.append(self._execute_selection_set(child, item, scope, query,
                                                                 path + [index], errors))
                    else:
                        items.append(self._complete(item_type, item, scope, f, query,
                                                    path + [index], errors))
                except _NonNullViolation:
                    # A nullable item is the nearest nullable parent.
                    if item_type.kind == NON_NULL:
                        raise
                    items.append(None)
            return items

        named = f.inner
        node = f.node
        if named.kind == SCALAR:
            return self._complete_scalar(named.name, value, path, errors, node)
        if named.kind == ENUM:
            return self._complete_enum(f, value, path, errors)
        if named.kind == OBJECT:
            if not isinstance(value, dict):
                errors.append(_error_entry(
                    f"expected an object for field {f.key!r}, got {type(value).__name__}",
                    path, node))
                return None
            return self._execute_selection_set(f.child, value, scope, query, path, errors)
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
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or isinstance(value, float) and not value.is_integer()):
                errors.append(_error_entry(f"upstream value {value!r} is not an Int",
                                           path, node))
                return None
            as_int = int(value)
            if not (INT_MIN <= as_int <= INT_MAX):
                logger.info("Int overflow at %s: %s surfaced as Float", path, value)
                return _finite_float(value, path, errors, node)
            return as_int
        if name == "Float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(_error_entry(f"upstream value {value!r} is not a Float",
                                           path, node))
                return None
            return _finite_float(value, path, errors, node)
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

    def _complete_enum(self, f: CompiledField, value: Any, path: list, errors: list):
        mapped = f.enum.get(str(value))
        if mapped is not None:
            return mapped
        if isinstance(value, str) and value in f.inner.enum_values:
            return value
        errors.append(_error_entry(
            f"upstream value {value!r} is not a value of enum {f.inner.name}", path, f.node))
        return None


def _finite_float(value: int | float, path: list, errors: list,
                  node: FieldNode) -> float | None:
    """value as a float, or None after a field error if JSON cannot carry it."""
    as_float = finite_float(value)
    if as_float is None:
        errors.append(_error_entry(f"Float cannot represent non numeric value: {value!r}",
                                   path, node))
    return as_float


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

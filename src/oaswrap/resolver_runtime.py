"""Serve-time resolution: design-time resolve plans per operation, runtime
argument binding with the documented precedence, link expression evaluation,
credential injection, and the HTTP round trip with body decoding.
"""

from __future__ import annotations

import base64
import json
import logging
from dataclasses import dataclass, field, replace
from typing import Any, Mapping
from urllib.parse import quote, urlencode

import requests

from .errors import (
    ExpressionUnresolvable,
    MissingCredentials,
    MissingRequiredParameter,
    NetworkError,
    RequestTimeout,
    UpstreamError,
    UpstreamNotJson,
)
from .ir import REFERENCE, TypeIR, to_raw
from .oas_ingest import FORM_MEDIA, OasDocument, OasOperation, SecurityScheme
from .preprocessing import OperationBinding, PreprocessResult, first_free, sanitize

logger = logging.getLogger("oaswrap.runtime")

DEFAULT_TIMEOUT = 30.0
BODY_EXCERPT_LIMIT = 1024

_UNSET = object()


@dataclass
class ParamBinding:
    arg_name: str
    raw_name: str
    location: str  # path | query | header
    required: bool
    type: TypeIR  # the argument's type, before a required one is made non-null
    default: Any = None
    description: str | None = None


@dataclass
class ResolvePlan:
    """Design-time binding of one operation: everything a resolver needs that
    can be known before any query arrives."""

    operation_key: str
    method: str
    path: str
    base_url: str
    parameter_map: dict[str, ParamBinding] = field(default_factory=dict)  # by arg name
    payload_arg: str | None = None
    payload_required: bool = False
    payload_content_type: str | None = None
    payload_type: str | None = None  # named input type of the payload, for de-sanitizing
    security: list[SecurityScheme] = field(default_factory=list)
    token_path: str | None = None


@dataclass(frozen=True)
class ExecutionContext:
    """Read-only per-query state; forks grow used_params along one path."""

    credentials: Mapping[str, Mapping[str, str]] = field(default_factory=dict)
    token_store: Any = None
    used_params: Mapping[str, Any] = field(default_factory=dict)
    extra_headers: Mapping[str, str] = field(default_factory=dict)
    mutation: bool = False  # fields resolve one at a time, in query order, at every depth

    def with_credentials(self, creds: Mapping[str, Mapping[str, str]]) -> "ExecutionContext":
        merged = dict(self.credentials)
        merged.update(creds)
        return replace(self, credentials=merged)

    def with_used_params(self, params: Mapping[str, Any]) -> "ExecutionContext":
        if not params:
            return self
        merged = dict(self.used_params)
        merged.update(params)
        return replace(self, used_params=merged)


@dataclass
class HttpRequestSpec:
    method: str
    url: str
    headers: dict[str, str] = field(default_factory=dict)
    query: list[tuple[str, str]] = field(default_factory=list)
    body: Any = None  # de-sanitized JSON value (or raw text)
    content_type: str | None = None
    sent_params: dict[str, Any] = field(default_factory=dict)  # raw name -> value
    path_values: dict[str, Any] = field(default_factory=dict)
    query_values: dict[str, Any] = field(default_factory=dict)


# -- plan construction -----------------------------------------------------------


def make_resolve_plan(op: OasOperation, doc: OasDocument, binding: OperationBinding,
                      pre: PreprocessResult, casing: str = "camel",
                      token_path: str | None = None) -> ResolvePlan:
    """Bind base URL, path, method, parameter mapping, defaults, security, and
    the payload's input type for one operation."""
    parameter_map: dict[str, ParamBinding] = {}
    for param, param_type in zip(op.parameters, binding.params):
        arg_name = first_free(sanitize(param.name, casing), parameter_map)
        parameter_map[arg_name] = ParamBinding(
            arg_name=arg_name, raw_name=param.name, location=param.location,
            required=param.required, type=param_type,
            default=param.default, description=param.description,
        )

    payload_arg = None
    payload_required = False
    payload_content_type = None
    payload_type = None
    if op.request_body is not None and binding.request is not None:
        payload_arg = _payload_arg_name(binding.request, pre, parameter_map)
        payload_required = op.request_body.required
        payload_content_type = binding.request_content_type or "application/json"
        named = binding.request.unwrap()
        payload_type = named.name if named.kind == REFERENCE else None

    return ResolvePlan(
        operation_key=op.key,
        method=op.method.upper(),
        path=op.path,
        base_url=doc.servers[0] if doc.servers else "",
        parameter_map=parameter_map,
        payload_arg=payload_arg,
        payload_required=payload_required,
        payload_content_type=payload_content_type,
        payload_type=payload_type,
        security=[doc.security_schemes[name] for name in op.security
                  if name in doc.security_schemes],
        token_path=token_path,
    )


def _payload_arg_name(request: TypeIR, pre: PreprocessResult,
                      parameter_map: dict[str, ParamBinding]) -> str:
    if request.kind == REFERENCE:
        base = pre.dictionary.entries[request.name].base_name
        name = base[:1].lower() + base[1:]
    else:
        name = "payload"
    return first_free(name, parameter_map)


# -- runtime binding ------------------------------------------------------------


def bind_runtime(plan: ResolvePlan, args: Mapping[str, Any], parent_response: Any,
                 parent_request: Mapping[str, Mapping[str, Any]] | None,
                 ctx: ExecutionContext, types: Mapping[str, TypeIR],
                 link_params: Mapping[str, str] | None = None) -> HttpRequestSpec:
    """Assemble the upstream request for one field resolution.

    Per-parameter precedence: explicit argument, then link expression value,
    then a parameter propagated from an ancestor request, then the declared
    default. Link expressions read ``parent_response``, the raw object that
    holds the link field. Every argument value, lists included, and the
    payload are de-sanitized through their named types in ``types`` before
    sending.
    """
    link_params = link_params or {}
    path = plan.path
    sent: dict[str, Any] = {}
    path_values: dict[str, Any] = {}
    query_values: dict[str, Any] = {}
    query_pairs: list[tuple[str, str]] = []
    headers: dict[str, str] = dict(ctx.extra_headers)

    for arg_name, param in plan.parameter_map.items():
        value = _UNSET
        if arg_name in args:
            value = args[arg_name]
        elif param.raw_name in link_params:
            value = eval_link_expression(link_params[param.raw_name], parent_response,
                                         parent_request)
        elif param.raw_name in ctx.used_params:
            value = ctx.used_params[param.raw_name]
        elif param.default is not None:
            value = param.default
        if value is _UNSET:
            if param.required:
                raise MissingRequiredParameter(
                    f"required parameter {param.raw_name!r} of {plan.operation_key} "
                    f"has no value from any source"
                )
            continue
        value = to_raw(types, param.type.unwrap().name, value)
        sent[param.raw_name] = value
        if param.location == "path":
            path = path.replace("{%s}" % param.raw_name, quote(_plain(value), safe=""))
            path_values[param.raw_name] = value
        elif param.location == "query":
            query_values[param.raw_name] = value
            if isinstance(value, list):
                query_pairs.extend((param.raw_name, _plain(v)) for v in value)
            else:
                query_pairs.append((param.raw_name, _plain(value)))
        else:  # header
            headers[param.raw_name] = _plain(value)

    if "{" in path:
        missing = path[path.index("{") + 1: path.index("}")] if "}" in path else path
        raise MissingRequiredParameter(
            f"path parameter {missing!r} of {plan.operation_key} was never bound"
        )

    body = None
    content_type = None
    if plan.payload_arg is not None:
        if plan.payload_arg in args:
            payload = args[plan.payload_arg]
            body = to_raw(types, plan.payload_type, payload)
            content_type = plan.payload_content_type
        elif plan.payload_required:
            raise MissingRequiredParameter(
                f"required request body argument {plan.payload_arg!r} of "
                f"{plan.operation_key} was not provided"
            )

    return HttpRequestSpec(
        method=plan.method,
        url=plan.base_url.rstrip("/") + path,
        headers=headers,
        query=query_pairs,
        body=body,
        content_type=content_type,
        sent_params=sent,
        path_values=path_values,
        query_values=query_values,
    )


def _plain(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


# -- link expressions ---------------------------------------------------------------


def eval_link_expression(expr: str, parent_response: Any,
                         parent_request: Mapping[str, Mapping[str, Any]] | None = None) -> Any:
    """Evaluate a supported runtime expression against the raw parent response
    (``$response.body#/...``) or the parent's sent parameters (``$request.*``)."""
    if expr.startswith("$response.body#/"):
        pointer = expr[len("$response.body#"):]
        return _eval_pointer(pointer, parent_response, expr)
    if expr.startswith("$request.path."):
        name = expr[len("$request.path."):]
        return _request_lookup(parent_request, "path", name, expr)
    if expr.startswith("$request.query."):
        name = expr[len("$request.query."):]
        return _request_lookup(parent_request, "query", name, expr)
    raise ExpressionUnresolvable(f"unsupported runtime expression {expr!r}")


def _eval_pointer(pointer: str, value: Any, expr: str) -> Any:
    node = value
    for raw_token in pointer.lstrip("/").split("/"):
        token = raw_token.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict):
            if token not in node:
                raise ExpressionUnresolvable(
                    f"expression {expr!r}: key {token!r} absent in upstream response"
                )
            node = node[token]
        elif isinstance(node, list):
            if not token.isdigit() or int(token) >= len(node):
                raise ExpressionUnresolvable(
                    f"expression {expr!r}: index {token!r} out of range"
                )
            node = node[int(token)]
        else:
            raise ExpressionUnresolvable(
                f"expression {expr!r}: cannot descend into non-container value"
            )
    return node


def _request_lookup(parent_request, section: str, name: str, expr: str) -> Any:
    values = (parent_request or {}).get(section, {})
    if name not in values:
        raise ExpressionUnresolvable(
            f"expression {expr!r}: parent request sent no {section} parameter {name!r}"
        )
    return values[name]


# -- authentication -----------------------------------------------------------------


def inject_auth(spec: HttpRequestSpec, plan: ResolvePlan, ctx: ExecutionContext) -> HttpRequestSpec:
    """Apply the first security scheme whose credentials are available.

    API keys go to their declared header or query location, basic credentials
    become an Authorization header, and OAuth/OpenID tokens are read from the
    context's token store at the configured path and sent as a Bearer header.
    """
    if not plan.security:
        return spec
    for scheme in plan.security:
        if scheme.type == "apiKey":
            creds = ctx.credentials.get(scheme.name)
            if not creds or "apiKey" not in creds:
                continue
            if scheme.location == "query":
                spec.query.append((scheme.param_name, creds["apiKey"]))
            else:
                spec.headers[scheme.param_name] = creds["apiKey"]
            return spec
        if scheme.type == "http" and scheme.http_scheme == "basic":
            creds = ctx.credentials.get(scheme.name)
            if not creds or "username" not in creds or "password" not in creds:
                continue
            token = base64.b64encode(
                f"{creds['username']}:{creds['password']}".encode()
            ).decode("ascii")
            spec.headers["Authorization"] = f"Basic {token}"
            return spec
        if scheme.type in ("oauth2", "openIdConnect") or (
            scheme.type == "http" and scheme.http_scheme == "bearer"
        ):
            token = read_token(ctx.token_store, plan.token_path)
            if token is None:
                continue
            spec.headers["Authorization"] = f"Bearer {token}"
            return spec
    raise MissingCredentials(
        f"operation {plan.operation_key} requires one of "
        f"{[s.name for s in plan.security]} but no credentials were supplied"
    )


def read_token(store: Any, token_path: str | None) -> Any:
    """Evaluate a dotted/bracket JsonPath ('a.b[0].c') against the context tree."""
    if store is None or not token_path:
        return None
    node = store
    for part in token_path.split("."):
        while part:
            key, bracket, rest = part.partition("[")
            if key:
                if not isinstance(node, dict) or key not in node:
                    return None
                node = node[key]
            if not bracket:
                break
            index, _, rest = rest.partition("]")
            if not index.isdigit() or not isinstance(node, list) or int(index) >= len(node):
                return None
            node = node[int(index)]
            part = rest.lstrip(".") if rest.startswith(".") else rest
            if not part:
                break
    return node


# -- HTTP execution -------------------------------------------------------------------


class HttpClient:
    """Thin transport wrapper; one round trip, no retries."""

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        self.session = requests.Session()

    def send(self, spec: HttpRequestSpec) -> tuple[int, Mapping[str, str], bytes]:
        """One HTTP round trip; network failures map to execution errors."""
        headers = dict(spec.headers)
        kwargs: dict[str, Any] = {}
        if spec.body is not None:
            content_type = spec.content_type or "application/json"
            if content_type == FORM_MEDIA and isinstance(spec.body, dict):
                kwargs["data"] = urlencode({k: _plain(v) for k, v in spec.body.items()})
            elif isinstance(spec.body, str):
                kwargs["data"] = spec.body.encode("utf-8")
            else:
                kwargs["data"] = json.dumps(spec.body).encode("utf-8")
            headers.setdefault("Content-Type", content_type)
        try:
            response = self.session.request(
                spec.method, spec.url, params=spec.query or None, headers=headers,
                timeout=self.timeout, **kwargs,
            )
        except requests.Timeout as exc:
            raise RequestTimeout(f"request to {spec.url} timed out") from exc
        except requests.RequestException as exc:
            raise NetworkError(f"request to {spec.url} failed: {exc}") from exc
        logger.debug("upstream %s %s -> %s", spec.method, spec.url.split("?")[0],
                     response.status_code)
        return response.status_code, response.headers, response.content


def parse_upstream_body(status: int, body: bytes, expects_structured: bool) -> Any:
    """Decode an upstream body; non-2xx raises, non-JSON raises only when a
    structured value is required (String fallbacks receive the raw text)."""
    text = body.decode("utf-8", errors="replace")
    if not (200 <= status < 300):
        raise UpstreamError(status, text[:BODY_EXCERPT_LIMIT])
    try:
        return json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        if expects_structured:
            raise UpstreamNotJson(
                f"upstream body is not JSON but a structured type was expected: "
                f"{text[:120]!r}"
            ) from None
        return text


def shape_response(body: Any, structured: bool) -> Any:
    """Stringify a structured body served as a String fallback. Structured
    bodies stay as decoded: completion reads them by raw key."""
    if not structured and isinstance(body, (dict, list)):
        return json.dumps(body)
    return body

"""Serve-time resolution: runtime argument binding of a resolve plan with the
documented precedence, link expression evaluation, credential injection, and
the HTTP round trip with body decoding.
"""

from __future__ import annotations

import base64
import json
import logging
import select
import ssl
import threading
import zlib
from dataclasses import dataclass, field
from http.client import (
    HTTPConnection,
    HTTPException,
    HTTPResponse,
    HTTPSConnection,
    IncompleteRead,
    InvalidURL,
    RemoteDisconnected,
)
from typing import Any, Mapping
from urllib.parse import quote, unquote, urlencode, urljoin, urlsplit
from urllib.request import getproxies, proxy_bypass

import orjson

from .errors import (
    ExpressionUnresolvable,
    MissingCredentials,
    MissingRequiredParameter,
    NetworkError,
    RequestTimeout,
    UpstreamError,
    UpstreamNotJson,
    UpstreamTooLarge,
)
from .ir import (CREDENTIAL_MEMBERS, NON_NULL, LinkExpression, ResolvePlan, TypeIR,
                 credential_kind, to_raw)
from .oas_ingest import FORM_MEDIA

logger = logging.getLogger("oaswrap.runtime")

DEFAULT_TIMEOUT = 30.0
BODY_EXCERPT_LIMIT = 1024
MAX_UPSTREAM_BYTES = 32 * 1024 * 1024  # per upstream body, on the wire and decoded
MAX_REDIRECTS = 30
# orjson converts nested values on the C stack without a depth limit, and one
# object level takes about 160 bytes of it; a body with more opening brackets
# than this could nest deep enough to overflow a thread's stack.
MAX_FAST_BRACKETS = 4096

_UNSET = object()


@dataclass
class HttpRequestSpec:
    method: str
    url: str
    headers: dict[str, str] = field(default_factory=dict)
    query: list[tuple[str, str]] = field(default_factory=list)
    body: Any = None  # de-sanitized JSON value (or raw text)
    content_type: str | None = None
    # location (path | query | header) -> raw name -> de-sanitized value
    sent: dict[str, dict[str, Any]] = field(default_factory=dict)
    operation: str = ""  # the plan's operation key, for error messages
    credential_header: str = "Authorization"  # or the header an API key went in


# -- runtime binding ------------------------------------------------------------


def bind_runtime(plan: ResolvePlan, args: Mapping[str, Any], parent_response: Any,
                 parent_request: Mapping[str, Mapping[str, Any]] | None,
                 used_params: Mapping[str, Any], types: Mapping[str, TypeIR],
                 link_params: Mapping[str, LinkExpression] | None = None) -> HttpRequestSpec:
    """Assemble the upstream request for one field resolution.

    Per-parameter precedence: explicit argument, then link expression value,
    then a parameter propagated from an ancestor request (``used_params``, by
    raw name), then the declared default. ``link_params`` maps argument names
    to link expressions, which read ``parent_response``, the raw object that
    holds the link field, or ``parent_request``, what the parent's request
    sent. Every argument value, lists included, and the payload are
    de-sanitized through their named types in ``types`` before sending.
    """
    link_params = link_params or {}
    path = plan.path
    sent: dict[str, dict[str, Any]] = {"path": {}, "query": {}, "header": {}}
    query_pairs: list[tuple[str, str]] = []
    headers: dict[str, str] = {}
    payload = None

    for arg in plan.args.values():
        if arg.location == "body":
            payload = arg
            continue
        value = _UNSET
        if arg.name in args:
            value = args[arg.name]
        elif arg.name in link_params:
            value = eval_link_expression(link_params[arg.name], parent_response, parent_request)
        elif arg.raw in used_params:
            value = used_params[arg.raw]
        elif arg.default is not None:
            value = arg.default
        if value is _UNSET:
            if arg.type.kind == NON_NULL:
                raise MissingRequiredParameter(
                    f"required parameter {arg.raw!r} of {plan.operation_key} "
                    f"has no value from any source"
                )
            continue
        value = to_raw(types, arg.type.unwrap().name, value)
        sent[arg.location][arg.raw] = value
        # OAS 3.0's default styles: simple for path and header, exploded form for query.
        if arg.location == "path":
            path = path.replace("{%s}" % arg.raw,
                                ",".join(quote(_plain(v), safe="") for v in _simple(value)))
        elif arg.location == "query":
            if isinstance(value, dict):  # one pair per property
                query_pairs.extend((k, _plain(v)) for k, v in value.items())
            else:
                query_pairs.extend((arg.raw, _plain(v)) for v in _items(value))
        else:  # header
            headers[arg.raw] = ",".join(_plain(v) for v in _simple(value))

    if "{" in path:
        missing = path[path.index("{") + 1: path.index("}")] if "}" in path else path
        raise MissingRequiredParameter(
            f"path parameter {missing!r} of {plan.operation_key} was never bound"
        )

    body = None
    content_type = None
    if payload is not None:
        if payload.name in args:
            body = to_raw(types, payload.type.unwrap().name, args[payload.name])
            content_type = plan.content_type
        elif payload.type.kind == NON_NULL:
            raise MissingRequiredParameter(
                f"required request body argument {payload.name!r} of "
                f"{plan.operation_key} was not provided"
            )

    return HttpRequestSpec(
        method=plan.method,
        url=plan.base_url.rstrip("/") + path,
        headers=headers,
        query=query_pairs,
        body=body,
        content_type=content_type,
        sent=sent,
        operation=plan.operation_key,
    )


def _items(value: Any) -> list:
    """A list's items, or the one value that is not a list."""
    return value if isinstance(value, list) else [value]


def _simple(value: Any) -> list:
    """The parts that simple style joins with commas: a list's items, an
    object's property names and values in turn, or the one value."""
    if isinstance(value, dict):
        return [part for pair in value.items() for part in pair]
    return _items(value)


def _plain(value: Any) -> str:
    """A scalar as text; an object or list, where no style spreads it, as
    JSON, the Encoding Object's default for a form field holding an object."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


# -- link expressions ---------------------------------------------------------------


def eval_link_expression(expr: LinkExpression, parent_response: Any,
                         parent_request: Mapping[str, Mapping[str, Any]] | None = None) -> Any:
    """The value a link expression reads from the raw parent response or from
    the parameters the parent's request sent."""
    if expr.source != "body":
        values = (parent_request or {}).get(expr.source, {})
        name = expr.tokens[0]
        if name not in values:
            raise ExpressionUnresolvable(f"expression {expr.text!r}: parent request sent no "
                                         f"{expr.source} parameter {name!r}")
        return values[name]
    node = parent_response
    for token in expr.tokens:
        if isinstance(node, dict):
            if token not in node:
                raise ExpressionUnresolvable(
                    f"expression {expr.text!r}: key {token!r} absent in upstream response"
                )
            node = node[token]
        elif isinstance(node, list):
            if not token.isdigit() or int(token) >= len(node):
                raise ExpressionUnresolvable(
                    f"expression {expr.text!r}: index {token!r} out of range"
                )
            node = node[int(token)]
        else:
            raise ExpressionUnresolvable(
                f"expression {expr.text!r}: cannot descend into non-container value"
            )
    return node


# -- authentication -----------------------------------------------------------------


def inject_auth(spec: HttpRequestSpec, plan: ResolvePlan,
                credentials: Mapping[str, Mapping[str, str]], token: Any = None) -> HttpRequestSpec:
    """Apply the first security scheme whose credentials are available.

    ``credentials`` maps scheme names to the members a viewer supplied. API
    keys go to their declared header or query location, basic credentials
    become an Authorization header, and the token, if any, goes to OAuth,
    OpenID and bearer schemes as a Bearer header. A credential header
    replaces a header parameter whose name matches it case-insensitively, and
    a query credential each query parameter of exactly its name.
    """
    if not plan.security:
        return spec
    for scheme in plan.security:
        kind = credential_kind(scheme)
        if kind is not None:
            creds = credentials.get(scheme.name) or {}
            values = [creds.get(name) for name in CREDENTIAL_MEMBERS[kind]]
            if None in values:
                continue
            if kind == "basicAuth":
                pair = base64.b64encode(":".join(values).encode()).decode("ascii")
                spec.headers = _overridden(spec.headers, {"Authorization": f"Basic {pair}"})
            elif scheme.location == "query":
                spec.query = [pair for pair in spec.query if pair[0] != scheme.param_name]
                spec.query.append((scheme.param_name, values[0]))
            else:
                spec.headers = _overridden(spec.headers, {scheme.param_name: values[0]})
                spec.credential_header = scheme.param_name
            return spec
        if scheme.type in ("oauth2", "openIdConnect") or (
            scheme.type == "http" and scheme.http_scheme == "bearer"
        ):
            if token is None:
                continue
            spec.headers = _overridden(spec.headers, {"Authorization": f"Bearer {token}"})
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
    """Keep-alive HTTP/1.1 transport shared by every query thread.

    Idle connections wait in one pool keyed by (scheme, host, port), which the
    per-connection threads of a threading server share, so the pool holds at
    most as many connections as there were concurrent sends. A connection goes
    back only when its response was read to the end and the server keeps it
    open.

    ``headers`` are sent on every request, each replacing a default header of
    the same name (User-Agent, Accept, Accept-Encoding); a request's own
    headers, its header parameters and credential, replace both. Names
    compare case-insensitively.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT, headers: Mapping[str, str] | None = None):
        self.timeout = timeout
        self.headers = _overridden(_DEFAULT_HEADERS, headers or {})
        self._idle: dict[tuple[str, str, int], list[_Connection]] = {}
        self._lock = threading.Lock()
        self._tls: ssl.SSLContext | None = None  # built on the first HTTPS connection

    def send(self, spec: HttpRequestSpec) -> tuple[int, Mapping[str, str], bytes]:
        """One HTTP round trip, following redirects; network failures map to
        execution errors."""
        headers = _overridden(self.headers, spec.headers)
        body = None
        if spec.body is not None:
            content_type = spec.content_type or "application/json"
            if content_type == FORM_MEDIA and isinstance(spec.body, dict):
                body = urlencode([(k, _plain(v)) for k, value in spec.body.items()
                                  for v in _items(value)]).encode("ascii")
            elif isinstance(spec.body, str):
                body = spec.body.encode("utf-8")
            else:
                body = json.dumps(spec.body).encode("utf-8")
            if not any(name.lower() == "content-type" for name in headers):
                headers["Content-Type"] = content_type
        url = spec.url
        if spec.query:
            url += ("&" if "?" in url else "?") + urlencode(spec.query)
        method = spec.method
        try:
            for _ in range(MAX_REDIRECTS + 1):
                status, response_headers, data = self._exchange(method, url, headers, body, spec)
                location = response_headers.get("Location")
                if status not in (301, 302, 303, 307, 308) or location is None:
                    logger.debug("upstream %s %s -> %s", method, url.split("?")[0], status)
                    return status, response_headers, data
                target = urljoin(url, location)
                dropped = set()
                if status in (301, 302, 303):  # as browsers do: the body is not resent
                    body = None
                    dropped.add("content-type")
                    if method != "HEAD" and (status != 301 or method == "POST"):
                        method = "GET"
                before, after = urlsplit(url), urlsplit(target)
                if after.hostname != before.hostname or (before.scheme, after.scheme) == (
                        "https", "http"):
                    # credentials stay with their host and on TLS
                    dropped.update({"authorization", spec.credential_header.lower()})
                headers = {k: v for k, v in headers.items() if k.lower() not in dropped}
                url = target
        except TimeoutError as exc:
            raise RequestTimeout(f"request to {spec.url} timed out") from exc
        except (OSError, HTTPException, ValueError, zlib.error) as exc:
            raise NetworkError(f"request to {spec.url} failed: {exc}") from exc
        raise NetworkError(f"request to {spec.url} exceeded {MAX_REDIRECTS} redirects")

    def close(self) -> None:
        """Close the idle connections; a later send opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.http.close()

    def _exchange(self, method: str, url: str, headers: dict[str, str], body: bytes | None,
                  spec: HttpRequestSpec) -> tuple[int, Mapping[str, str], bytes]:
        """One request and its whole response on a pooled or new connection.
        An idempotent request that finds a reused socket closed by the server
        is sent once more on a new connection."""
        parts = urlsplit(url)
        scheme = parts.scheme.lower()
        if scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise InvalidURL(f"no http or https host in {url.split('?')[0]!r}")
        key = (scheme, parts.hostname, parts.port or _DEFAULT_PORTS[scheme])
        path = (parts.path or "/") + ("?" + parts.query if parts.query else "")
        conn = self._idle_connection(key)
        if conn is not None:
            try:
                response = _request(conn, method, path, headers, body)
            except _STALE:
                if method not in _IDEMPOTENT:
                    raise
                conn = None
        if conn is None:
            conn = self._connect(key)
            response = _request(conn, method, path, headers, body)
        try:
            data = response.read(MAX_UPSTREAM_BYTES + 1)
            if len(data) > MAX_UPSTREAM_BYTES:
                raise UpstreamTooLarge(_too_large(spec))
            if response.length:
                raise IncompleteRead(data, response.length)
        except BaseException:
            conn.http.close()
            raise
        finally:
            response.close()
        if response.will_close:
            conn.http.close()
        else:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        return response.status, response.headers, _decoded(
            data, response.headers.get("Content-Encoding"), spec)

    def _idle_connection(self, key: tuple[str, str, int]) -> _Connection | None:
        """A pooled connection to key that the server has not closed, if any.
        A readable idle socket holds an EOF or stray bytes, so it is dropped."""
        while True:
            with self._lock:
                idle = self._idle.get(key)
                if not idle:
                    return None
                conn = idle.pop()
            sock = conn.http.sock
            if sock is not None and not select.select([sock], [], [], 0)[0]:
                return conn
            conn.http.close()

    def _connect(self, key: tuple[str, str, int]) -> _Connection:
        """A new connection to key, through the proxy the environment names for
        its scheme unless the host is exempt: an HTTP proxy is sent absolute
        URLs, and HTTPS goes through a CONNECT tunnel."""
        scheme, host, port = key
        proxy = getproxies().get(scheme)
        if not proxy or proxy_bypass(f"{host}:{port}"):
            return _Connection(self._open(scheme, host, port))
        parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        auth = {}
        if parts.username is not None:
            token = base64.b64encode(
                f"{unquote(parts.username)}:{unquote(parts.password or '')}".encode()
            ).decode("ascii")
            auth["Proxy-Authorization"] = f"Basic {token}"
        conn = self._open(scheme, parts.hostname, parts.port or 80)
        if scheme == "https":
            conn.set_tunnel(host, port, headers=auth)
            return _Connection(conn)
        return _Connection(conn, f"http://{host}:{port}", auth)

    def _open(self, scheme: str, host: str, port: int) -> HTTPConnection:
        if scheme == "http":
            return HTTPConnection(host, port, timeout=self.timeout)
        with self._lock:
            if self._tls is None:
                self._tls = ssl.create_default_context()
        return HTTPSConnection(host, port, timeout=self.timeout, context=self._tls)


@dataclass
class _Connection:
    http: HTTPConnection
    prefix: str = ""  # an HTTP proxy is sent the absolute URL
    headers: dict[str, str] = field(default_factory=dict)  # added to each request


def _request(conn: _Connection, method: str, path: str, headers: dict[str, str],
             body: bytes | None) -> HTTPResponse:
    """Send one request on conn and read the response head; a failure closes conn."""
    try:
        conn.http.request(method, conn.prefix + path, body, {**headers, **conn.headers})
        return conn.http.getresponse()
    except BaseException:
        conn.http.close()
        raise


_DEFAULT_HEADERS = {"Accept": "*/*", "Accept-Encoding": "gzip, deflate",
                    "User-Agent": "oaswrap"}


def _overridden(headers: Mapping[str, str], own: Mapping[str, str]) -> dict[str, str]:
    """headers with own added, each of own replacing any header whose name
    matches its name case-insensitively."""
    given = {name.lower() for name in own}
    merged = {k: v for k, v in headers.items() if k.lower() not in given}
    merged.update(own)
    return merged


_DEFAULT_PORTS = {"http": 80, "https": 443}
_IDEMPOTENT = frozenset({"GET", "HEAD", "PUT", "DELETE", "OPTIONS", "TRACE"})
# What a request on a kept-alive socket the server has since closed raises.
_STALE = (RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def _decoded(data: bytes, encoding: str | None, spec: HttpRequestSpec) -> bytes:
    """The body with a gzip or (zlib-wrapped) deflate coding removed; the
    decoded size is capped like the wire size."""
    if (encoding or "").strip().lower() not in ("gzip", "x-gzip", "deflate"):
        return data
    decoded = zlib.decompressobj(zlib.MAX_WBITS | 32).decompress(data, MAX_UPSTREAM_BYTES + 1)
    if len(decoded) > MAX_UPSTREAM_BYTES:
        raise UpstreamTooLarge(_too_large(spec))
    return decoded


def _too_large(spec: HttpRequestSpec) -> str:
    return (f"upstream response of {spec.operation or spec.url} exceeds "
            f"{MAX_UPSTREAM_BYTES} bytes")


def parse_upstream_body(status: int, body: bytes, expects_structured: bool) -> Any:
    """Decode an upstream body; non-2xx raises, non-JSON raises only when a
    structured value is required (String fallbacks receive the raw text).

    A 2xx body is read by orjson where it reads it as the standard library
    does; any body orjson refuses, might read differently or might not read
    safely takes the standard library, errors included."""
    if 200 <= status < 300 and _fast_decodable(body):
        try:
            return orjson.loads(body)
        except orjson.JSONDecodeError:
            pass
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


# Digits and minus signs become "0" and braces "[", so that one count and one
# search over the translated body find wide integers and bound nesting.
_GUARD_TABLE = bytes.maketrans(b"-0123456789{", b"00000000000[")
_WIDE_INT = b"0" * 20


def _fast_decodable(body: bytes) -> bool:
    """Whether orjson may decode body. It reads an integer outside
    [-2**63, 2**64) as a float, where the standard library keeps it exact, so
    any run of 20 digits and minus signs rules it out (such an integer is
    one); so do more than MAX_FAST_BRACKETS opening brackets."""
    masked = body.translate(_GUARD_TABLE)
    return masked.count(b"[") <= MAX_FAST_BRACKETS and _WIDE_INT not in masked


def shape_response(body: Any, structured: bool) -> Any:
    """Stringify a structured body served as a String fallback. Structured
    bodies stay as decoded: completion reads them by raw key."""
    if not structured and isinstance(body, (dict, list)):
        return json.dumps(body)
    return body

"""Serve-time resolution: runtime argument binding of a resolve plan with the
documented precedence, link expression evaluation, credential injection, and
the HTTP round trip with body decoding.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import select
import socket
import threading
import time
import zlib
from typing import Any, Mapping
from urllib.parse import quote, unquote, urlencode, urljoin, urlsplit

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
from .http11 import Fields, ProtocolError, Reader, remaining, request_head, run
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


class HttpRequestSpec:
    def __init__(self, method: str, url: str, headers: dict[str, str] | None = None,
                 query: list[tuple[str, str]] | None = None,
                 body: Any = None,  # de-sanitized JSON value (or raw text)
                 content_type: str | None = None,
                 # location (path | query | header) -> raw name -> de-sanitized value
                 sent: dict[str, dict[str, Any]] | None = None,
                 operation: str = "",  # the plan's operation key, for error messages
                 credential_header: str = "Authorization"):  # or the header an API key went in
        self.method, self.url, self.headers = method, url, headers or {}
        self.query, self.body, self.content_type = query or [], body, content_type
        self.sent = sent or {}
        self.operation, self.credential_header = operation, credential_header
        self.deadline = 0.0  # the time.monotonic() time by which HttpClient.send must end


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
    """Keep-alive HTTP/1.1 transport shared by every query thread, on the
    http11 codec.

    Idle connections wait in one pool keyed by (scheme, host, port), which the
    per-connection threads of a threading server share, so the pool holds at
    most as many connections as there were concurrent sends. A connection goes
    back only when its response was read to the end and the server keeps it
    open. ``timeout`` bounds each request, from its first connect to the last
    byte of its last redirect's response.

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
        self._tls: Any = None  # an ssl.SSLContext, built on the first HTTPS connection

    def send(self, spec: HttpRequestSpec) -> tuple[int, Mapping[str, str], bytes]:
        """One HTTP round trip, following redirects; network failures map to
        execution errors."""
        spec.deadline = time.monotonic() + self.timeout
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
        except ProtocolError as exc:
            if exc.status == 413:
                raise UpstreamTooLarge(_too_large(spec)) from exc
            raise NetworkError(f"request to {spec.url} failed: {exc}") from exc
        except (OSError, EOFError, ValueError, zlib.error) as exc:
            raise NetworkError(f"request to {spec.url} failed: {exc}") from exc
        raise NetworkError(f"request to {spec.url} exceeded {MAX_REDIRECTS} redirects")

    def close(self) -> None:
        """Close the idle connections; a later send opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.sock.close()

    def _exchange(self, method: str, url: str, headers: dict[str, str], body: bytes | None,
                  spec: HttpRequestSpec) -> tuple[int, Mapping[str, str], bytes]:
        """One request and its whole response on a pooled or new connection,
        by spec's deadline. An idempotent request that finds a reused socket
        closed by the server is sent once more on a new connection."""
        deadline = spec.deadline
        parts = urlsplit(url)
        scheme = parts.scheme.lower()
        if scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise ValueError(f"no http or https host in {url.split('?')[0]!r}")
        key = (scheme, parts.hostname, parts.port or _DEFAULT_PORTS[scheme])
        target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
        framing = {"Host": _authority(key[1], key[2], _DEFAULT_PORTS[scheme])}
        if body is not None or method in ("POST", "PUT", "PATCH"):
            framing["Content-Length"] = str(len(body or b""))
        fields = _overridden(headers, framing)
        conn = self._idle_connection(key)
        response = None
        if conn is not None:
            try:
                response = _request(conn, method, target, fields, body, deadline)
            except _STALE:
                if method not in _IDEMPOTENT:
                    raise
        if response is None:
            conn = self._connect(key, deadline)
            response = _request(conn, method, target, fields, body, deadline)
        status, response_fields, data, reusable = response
        if reusable and not conn.reader.buffer:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        else:
            conn.sock.close()
        return status, response_fields, _decoded(
            data, response_fields.get("Content-Encoding"), spec)

    def _idle_connection(self, key: tuple[str, str, int]) -> _Connection | None:
        """A pooled connection to key that the server has not closed, if any.
        A readable idle socket holds an EOF or stray bytes, so it is dropped."""
        while True:
            with self._lock:
                idle = self._idle.get(key)
                if not idle:
                    return None
                conn = idle.pop()
            if not select.select([conn.sock], [], [], 0)[0]:
                return conn
            conn.sock.close()

    def _connect(self, key: tuple[str, str, int], deadline: float) -> _Connection:
        """A new connection to key, through the proxy the environment names for
        its scheme unless no_proxy exempts the host: an HTTP proxy is sent
        absolute URLs, and HTTPS goes through a CONNECT tunnel."""
        scheme, host, port = key
        proxies = _environment_proxies()
        proxy = proxies.get(scheme)
        if not proxy or _bypassed(host, port, proxies.get("no", "")):
            sock = _open(host, port, deadline)
            return _Connection(self._tls_wrapped(sock, host, deadline) if scheme == "https"
                               else sock)
        parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if not parts.hostname:
            raise ValueError(f"the {scheme} proxy URL names no host")
        auth = {}
        if parts.username is not None:
            token = base64.b64encode(
                f"{unquote(parts.username)}:{unquote(parts.password or '')}".encode()
            ).decode("ascii")
            auth["Proxy-Authorization"] = f"Basic {token}"
        sock = _open(parts.hostname, parts.port or 80, deadline)
        if scheme == "http":
            return _Connection(sock, f"http://{_authority(host, port, 80)}", auth)
        tunnel = _authority(host, port)
        status = _request(_Connection(sock), "CONNECT", tunnel, {"Host": tunnel, **auth}, None,
                          deadline)[0]
        if not 200 <= status < 300:
            sock.close()
            raise OSError(f"the proxy refused a tunnel to {tunnel}: {status}")
        return _Connection(self._tls_wrapped(sock, host, deadline))

    def _tls_wrapped(self, sock: socket.socket, host: str, deadline: float) -> socket.socket:
        with self._lock:
            if self._tls is None:
                import ssl  # on the first HTTPS connection only

                self._tls = ssl.create_default_context()
        try:
            sock.settimeout(remaining(deadline))
            return self._tls.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise


class _Connection:
    """A socket to an upstream or its proxy, and what it has received."""

    def __init__(self, sock: socket.socket,
                 prefix: str = "",  # an HTTP proxy is sent the absolute URL
                 headers: dict[str, str] | None = None):  # added to each request
        self.sock, self.reader = sock, Reader()
        self.prefix, self.headers = prefix, headers or {}


def _request(conn: _Connection, method: str, target: str, fields: dict[str, str],
             body: bytes | None, deadline: float) -> tuple[int, Fields, bytes, bool]:
    """Send one request on conn and read its response: (status, fields,
    body, whether conn may be reused). A failure closes conn."""
    sock = conn.sock

    def receive() -> bytes:
        sock.settimeout(remaining(deadline))
        return sock.recv(_RECV_BYTES)

    try:
        head = request_head(method, conn.prefix + target, {**fields, **conn.headers})
        sock.settimeout(remaining(deadline))
        sock.sendall(head + body if body else head)
        return run(conn.reader.response(method, MAX_UPSTREAM_BYTES), receive)
    except BaseException:
        sock.close()
        raise


def _open(host: str, port: int, deadline: float) -> socket.socket:
    # getaddrinfo IDNA-encodes a str host, loading the codec; ASCII needs none.
    address = (host.encode("ascii") if host.isascii() else host, port)
    sock = socket.create_connection(address, remaining(deadline))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _authority(host: str, port: int, default_port: int = 0) -> str:
    """host:port as a Host header or a CONNECT target gives it, without a
    default port."""
    host = host if host.isascii() else host.encode("idna").decode("ascii")
    host = f"[{host}]" if ":" in host else host
    return host if port == default_port else f"{host}:{port}"


def _environment_proxies() -> dict[str, str]:
    """The proxy URL of each scheme, and under "no" the no_proxy list, as
    urllib reads the environment: *_proxy in any case, a lower-case name
    winning and its empty value unsetting; HTTP_PROXY is dropped in a CGI
    script (REQUEST_METHOD set), where a request's Proxy header may set it."""
    proxies = {}
    for name, value in os.environ.items():
        if value and name[-6:].lower() == "_proxy":
            proxies[name[:-6].lower()] = value
    if "REQUEST_METHOD" in os.environ:
        proxies.pop("http", None)
    for name, value in os.environ.items():
        if name[-6:] == "_proxy":
            if value:
                proxies[name[:-6].lower()] = value
            else:
                proxies.pop(name[:-6].lower(), None)
    return proxies


def _bypassed(host: str, port: int, no_proxy: str) -> bool:
    """Whether no_proxy exempts host as urllib reads it: "*", or an entry
    that is host or host:port or, leading dots aside, a domain of either."""
    if no_proxy == "*":
        return True
    host = host.lower()
    both = (host, f"{host}:{port}")
    for name in no_proxy.lower().split(","):
        name = name.strip().lstrip(".")
        if name and (name in both or any(h.endswith("." + name) for h in both)):
            return True
    return False


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
_STALE = (EOFError, ConnectionResetError, BrokenPipeError)
# One receive of this size takes a page of a few hundred KB in one or two
# calls; 64 KiB receives made a 128 KB loopback GET 45% slower.
_RECV_BYTES = 1 << 18


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

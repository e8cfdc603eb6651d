"""Sans-I/O HTTP/1.1 (RFC 9112) for the edge and the upstream client: the
heads they send, and the messages framed in the bytes they receive.

A Reader holds what one connection has received. Its steps (request, body,
response) are generators: a step yields when it needs more bytes, is sent
the next bytes received (b"" once the peer has closed), and returns what it
framed; run() drives one. The codec never touches a socket, so each caller
keeps its own deadlines, and a test can feed it bytes in any splits.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Generator, Mapping

# The start line and header lines: at most this many bytes, and this many lines.
MAX_HEAD_BYTES = 1 << 16
MAX_HEADERS = 100
# The reason phrase of each status the edge sends.
REASONS = {100: "Continue", 200: "OK", 400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 413: "Content Too Large",
           431: "Request Header Fields Too Large", 500: "Internal Server Error",
           501: "Not Implemented", 505: "HTTP Version Not Supported"}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_VERSIONS = (b"HTTP/1.1", b"HTTP/1.0")
_TOKEN = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

Step = Generator[None, bytes, Any]


class ProtocolError(Exception):
    """A message that cannot be framed, so that nothing after it on its
    connection can be read either; status is the answer a server gives it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Fields(dict):
    """Header fields by lower-case name, a repeated field's values joined by
    ", "; get() takes a name in any case."""

    def get(self, name: str, default: Any = None) -> Any:
        return dict.get(self, name.lower(), default)


def run(step: Step, receive: Callable[[], bytes]) -> Any:
    """What step returns, sending it receive() each time it needs more bytes."""
    data = None
    while True:
        try:
            step.send(data)
        except StopIteration as done:
            return done.value
        data = receive()


def remaining(deadline: float) -> float:
    """The seconds left before deadline, a time.monotonic() time; raises
    TimeoutError once none are."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("deadline passed")
    return left


class Reader:
    """The bytes one connection has received and not yet framed."""

    def __init__(self, data: bytes = b""):
        self.buffer = bytearray(data)

    def request(self, limit: int) -> Step:
        """(method, target, HTTP/1.0, keep-alive, body length, 100-continue)
        of the next request; no Content-Length is a length of 0. Raises
        ProtocolError for a head that cannot be framed safely (a malformed
        request line or header line, too many or too long lines, another
        HTTP version, any Transfer-Encoding, a malformed or conflicting
        Content-Length) and for a body over limit bytes."""
        lines = yield from self._head()
        parts = lines[0].split(b" ")
        if len(parts) != 3:
            raise ProtocolError(400, "malformed request line")
        method, target, version = parts
        if version not in _VERSIONS:
            raise ProtocolError(505, "only HTTP/1.0 and HTTP/1.1 are supported")
        fields = _fields(lines)
        if "transfer-encoding" in fields:
            raise ProtocolError(501, "Transfer-Encoding is not supported; send a Content-Length")
        length = _length(fields["content-length"]) if "content-length" in fields else 0
        if length > limit:
            raise ProtocolError(413, f"request body of {length} bytes exceeds the limit of "
                                     f"{limit} bytes")
        http10 = version == b"HTTP/1.0"
        tokens = _tokens(fields.get("connection", ""))
        keep_alive = "keep-alive" in tokens if http10 else "close" not in tokens
        expect_continue = not http10 and fields.get("expect", "").lower() == "100-continue"
        return (method.decode("latin-1"), target.decode("latin-1"), http10, keep_alive, length,
                expect_continue)

    def response(self, method: str, limit: int) -> Step:
        """(status, fields, body, reusable) of the final response to a method
        request; 1xx responses are skipped. The body is framed as RFC 9112
        §6.3 says: none after HEAD, a 204 or 304, or a 2xx to CONNECT; else
        chunked, by Content-Length, or up to the end of the stream, which
        leaves the connection unusable. Raises ProtocolError for a message
        that cannot be framed, and with status 413 for a body over limit
        bytes."""
        while True:
            lines = yield from self._head()
            parts = lines[0].split(b" ", 2)
            code = parts[1] if len(parts) > 1 else b""
            if parts[0] not in _VERSIONS or len(code) != 3 or not code.isdigit() or code < b"100":
                raise ProtocolError(400, f"malformed status line {lines[0][:80]!r}")
            fields, status = _fields(lines), int(code)
            if status >= 200:
                break
        tokens = _tokens(fields.get("connection", ""))
        reusable = "close" not in tokens if parts[0] == b"HTTP/1.1" else "keep-alive" in tokens
        if method == "HEAD" or status in (204, 304) or (method == "CONNECT" and status < 300):
            return status, fields, b"", reusable
        coding = fields.get("transfer-encoding")
        if coding is not None and _tokens(coding)[-1:] == ["chunked"]:
            body = yield from self._chunked(limit)
            return status, fields, body, reusable and "content-length" not in fields
        if coding is None and "content-length" in fields:
            length = _length(fields["content-length"])
            if length > limit:
                raise _too_large(limit)
            return status, fields, (yield from self.body(length)), reusable
        while len(self.buffer) <= limit:  # delimited by the end of the stream
            data = yield
            if not data:
                return status, fields, self._take(len(self.buffer)), False
            self.buffer += data
        raise _too_large(limit)

    def body(self, length: int) -> Step:
        """The next length bytes."""
        while len(self.buffer) < length:
            yield from self._more()
        return self._take(length)

    def _head(self) -> Step:
        """The lines of the next message's head; empty lines before it are
        skipped. Raises EOFError when the stream ends before it begins."""
        buffer = self.buffer
        while True:
            if buffer[:1] in (b"\r", b"\n"):
                del buffer[:len(buffer) - len(buffer.lstrip(b"\r\n"))]
            end, skip = buffer.find(b"\n\r\n", 0, MAX_HEAD_BYTES + 3), 3
            bare = buffer.find(b"\n\n", 0, MAX_HEAD_BYTES + 2 if end == -1 else end + 1)
            if bare != -1:  # lines may end in a bare LF
                end, skip = bare, 2
            if end != -1:
                break
            if len(buffer) >= MAX_HEAD_BYTES + 3:
                raise ProtocolError(431, f"head exceeds {MAX_HEAD_BYTES} bytes")
            if buffer:
                yield from self._more()
            elif data := (yield):
                buffer += data
            else:
                raise EOFError("the connection closed before a message")
        lines = bytes(buffer[:end]).split(b"\n")
        del buffer[:end + skip]
        lines[0] = lines[0].rstrip(b"\r")
        return lines

    def _chunked(self, limit: int) -> Step:
        """A chunked body (RFC 9112 §7.1); extensions and trailers are read
        and dropped."""
        chunks, size = [], 0
        while True:
            digits = (yield from self._line()).split(b";", 1)[0].strip()
            if not digits or digits.strip(b"0123456789abcdefABCDEF"):
                raise ProtocolError(400, f"malformed chunk size {digits[:20]!r}")
            length = int(digits, 16)
            if not length:
                break
            size += length
            if size > limit:
                raise _too_large(limit)
            chunks.append((yield from self.body(length)))
            if (yield from self._line()):
                raise ProtocolError(400, "chunk data longer than its size")
        while (yield from self._line()):
            pass
        return b"".join(chunks)

    def _line(self) -> Step:
        """The next line, without its line end."""
        buffer = self.buffer
        while (end := buffer.find(b"\n", 0, MAX_HEAD_BYTES)) == -1:
            if len(buffer) >= MAX_HEAD_BYTES:
                raise ProtocolError(400, f"a line exceeds {MAX_HEAD_BYTES} bytes")
            yield from self._more()
        line = bytes(buffer[:end])
        del buffer[:end + 1]
        return line.rstrip(b"\r")

    def _more(self) -> Step:
        if not (data := (yield)):
            raise ProtocolError(400, "the connection closed inside a message")
        self.buffer += data

    def _take(self, length: int) -> bytes:
        buffer = self.buffer
        if length == len(buffer):
            data = bytes(buffer)
            buffer.clear()
        else:
            data = bytes(buffer[:length])
            del buffer[:length]
        return data


def _fields(lines: list[bytes]) -> Fields:
    if len(lines) > MAX_HEADERS + 1:
        raise ProtocolError(431, f"more than {MAX_HEADERS} header lines")
    fields = Fields()
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        if not colon or not name or name.strip() != name:  # also a folded line
            raise ProtocolError(400, "malformed header line")
        key, text = name.decode("latin-1").lower(), value.strip().decode("latin-1")
        fields[key] = f"{fields[key]}, {text}" if key in fields else text
    return fields


def _tokens(value: str) -> list[str]:
    return [token.strip() for token in value.lower().split(",")]


def _length(value: str) -> int:
    """A Content-Length value: a repeated field must repeat one number."""
    values = {part.strip() for part in value.split(",")}
    if len(values) > 1:
        raise ProtocolError(400, "conflicting Content-Length values")
    value = values.pop()
    try:
        length = int(value) if value.isascii() and value.isdigit() else -1
    except ValueError:  # more digits than int() reads
        length = -1
    if length < 0:
        raise ProtocolError(400, "Content-Length must be a non-negative integer")
    return length


def _too_large(limit: int) -> ProtocolError:
    return ProtocolError(413, f"body exceeds {limit} bytes")


def request_head(method: str, target: str, fields: Mapping[str, str]) -> bytes:
    """An HTTP/1.1 request head. Raises ValueError for a target, a field
    name or a field value that would end a line or the start line early."""
    if not target.isascii() or not target.isprintable() or " " in target:
        # not quoted: its query may hold a credential
        raise ValueError("the request target holds a space or a control character")
    for name, value in fields.items():
        if not name or name.strip(_TOKEN) or "\r" in value or "\n" in value or "\0" in value:
            raise ValueError(f"header {name!r} holds a character that ends its line")
    return _serialized(f"{method} {target} HTTP/1.1", fields)


def response_head(status: int, fields: Mapping[str, Any]) -> bytes:
    """An HTTP/1.1 response head of a status in REASONS."""
    return _serialized(f"HTTP/1.1 {status} {REASONS[status]}", fields)


def _serialized(start: str, fields: Mapping[str, Any]) -> bytes:
    return "".join([start, "\r\n", *[f"{name}: {value}\r\n" for name, value in fields.items()],
                    "\r\n"]).encode("latin-1")


def imf_date(when: float | None = None) -> str:
    """when (by default now) as RFC 9110 §5.6.7's IMF-fixdate."""
    t = time.gmtime(when)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")

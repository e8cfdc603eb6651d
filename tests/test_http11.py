"""The sans-I/O HTTP/1.1 codec on its own, in memory: responses framed the
same whatever the splits they arrive in, and as http.client frames them;
malformed messages refused with the codec's one error; the heads and dates
the edge writes."""

import http.client
import io
from email.utils import formatdate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaswrap import http11
from oaswrap.http11 import MAX_HEADERS, ProtocolError, Reader

LIMIT = 1 << 20
TOKENS = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8)
VALUES = st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=12)


@st.composite
def responses(draw):
    """(wire bytes, request method, expected (status, fields, body, reusable),
    whether http.client reads it as the codec does). The body is framed by
    a drawn kind: none after HEAD, a 204 or 304, Content-Length, chunked with
    drawn sizes, extensions and trailers, or the end of the stream."""
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    wire = []
    preludes = draw(st.lists(st.sampled_from([100, 103]), max_size=2))
    for status in preludes:
        wire.append(f"{version} {status} Interim\r\n"
                    + ("Link: </a>\r\n" if status == 103 else "") + "\r\n")
    kind = draw(st.sampled_from(["head", "204", "304", "length", "chunked", "close"]))
    status = {"204": 204, "304": 304}.get(kind) or draw(st.sampled_from([200, 201, 404, 500]))
    fields = {f"x-{name}": value for name, value in draw(
        st.dictionaries(TOKENS, VALUES, max_size=3)).items()}
    connection = draw(st.sampled_from([None, "close", "keep-alive"]))
    if connection:
        fields["connection"] = connection
    body = draw(st.binary(max_size=200))
    payload = body
    if kind == "chunked":
        fields["transfer-encoding"] = "chunked"
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
        payload = b""
        for start, end in zip([0, *cuts], [*cuts, len(body)]):
            if end > start:
                ext = draw(st.sampled_from(["", ";a=b", ' ; name="v"']))
                payload += b"%x%s\r\n%s\r\n" % (end - start, ext.encode(), body[start:end])
        trailers = draw(st.lists(st.tuples(TOKENS, VALUES), max_size=2))
        payload += b"0\r\n" + b"".join(b"x-t-%s: %s\r\n" % (n.encode(), v.encode())
                                         for n, v in trailers) + b"\r\n"
    elif kind == "head":  # a HEAD response's Content-Length is the GET body's
        fields["content-length"] = str(draw(st.integers(0, 99)))
    elif kind == "length":
        fields["content-length"] = str(len(body))
    if kind in ("head", "204", "304"):
        body = payload = b""
    method = "HEAD" if kind == "head" else "GET"
    wire.append(f"{version} {status} Reason Words\r\n"
                + "".join(f"{name}: {value}\r\n" for name, value in fields.items()) + "\r\n")
    data = "".join(wire).encode("latin-1") + payload
    tokens = connection or ""
    reusable = kind != "close" and (
        "close" not in tokens if version == "HTTP/1.1" else "keep-alive" in tokens)
    return data, method, (status, fields, body, reusable), 103 not in preludes


def framed(data: bytes, method: str, cuts: list[int]):
    """The codec's response to data fed in pieces at cuts, then the end of
    the stream; and the bytes it left unread."""
    pieces = [data[start:end] for start, end in zip([0, *cuts], [*cuts, len(data)])]
    feed = iter([piece for piece in pieces if piece])  # a socket's b"" is the end
    reader = Reader()
    result = http11.run(reader.response(method, LIMIT), lambda: next(feed, b""))
    return result, bytes(reader.buffer)


class _Socket:
    def __init__(self, data):
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


def as_http_client_reads(data: bytes, method: str):
    response = http.client.HTTPResponse(_Socket(data), method=method)
    response.begin()
    body = response.read()
    fields = {name.lower(): value for name, value in response.getheaders()}
    return response.status, fields, body, not response.will_close


@settings(max_examples=400, deadline=None)
@given(response=responses(), data=st.data())
def test_a_response_fed_in_any_splits_is_framed_as_whole_and_as_http_client_frames_it(
        response, data):
    wire, method, expected, oracle = response
    cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=6)))
    whole, rest = framed(wire, method, [])
    assert rest == b""
    assert framed(wire, method, cuts) == (whole, b"")
    assert (whole[0], dict(whole[1]), whole[2], whole[3]) == expected
    if oracle:  # http.client skips only 100 Continue
        assert as_http_client_reads(wire, method) == expected


def test_a_pipelined_response_stays_in_the_buffer_and_fields_take_any_case():
    wire = (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nLocation: /x\r\nContent-Encoding: gzip\r\n"
            b"\r\nhiHTTP/1.1 204 No Content\r\n\r\n")
    (status, fields, body, reusable), rest = framed(wire, "GET", [])
    assert (status, body, reusable, rest) == (200, b"hi", True, b"HTTP/1.1 204 No Content\r\n\r\n")
    assert fields.get("LOCATION") == "/x" and fields.get("content-encoding") == "gzip"


HEX = "0123456789abcdefABCDEF"


@st.composite
def malformed_responses(draw) -> bytes:
    """A response with one drawn fault: a bad status line, more than
    MAX_HEADERS header lines, a bad chunk size, or a negative or conflicting
    Content-Length."""
    fault = draw(st.sampled_from(["status", "headers", "chunk", "negative", "conflicting"]))
    head, body = ["HTTP/1.1 200 OK"], b""
    if fault == "status":
        version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "http/1.1", "ICY"]))
        code = draw(st.integers(0, 99).map("{:03d}".format) | st.integers(1000, 10**6).map(str)
                    | st.text("0123456789x ", max_size=4) | st.sampled_from(["200", "404"]))
        line = f"{version} {code} OK"
        parts = line.split(" ", 2)
        if parts[0] in ("HTTP/1.1", "HTTP/1.0") and len(parts[1]) == 3 and parts[1].isdigit() \
                and parts[1] >= "100":  # a well-formed line: break its version instead
            line = draw(st.sampled_from(["HTTP/2", "HTTP/1.2", "HTTP/1.1x"])) + line[8:]
        head = [line]
    elif fault == "headers":
        head += ["X-A: b"] * (MAX_HEADERS + draw(st.integers(1, 3)))
    elif fault == "chunk":
        size = draw(st.text(HEX + "ghxz-+ \t", max_size=6).filter(
            lambda text: not text.strip() or text.strip().strip(HEX)))
        head.append("Transfer-Encoding: chunked")
        body = size.encode() + b"\r\nabc\r\n0\r\n\r\n"
    elif fault == "negative":
        head.append(f"Content-Length: -{draw(st.integers(1, 10**6))}")
    else:
        first, second = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2, unique=True))
        head += ([f"Content-Length: {first}, {second}"] if draw(st.booleans())
                 else [f"Content-Length: {first}", f"Content-Length: {second}"])
        body = b"x" * max(first, second)
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


@settings(max_examples=300, deadline=None)
@given(wire=malformed_responses(), data=st.data())
def test_a_malformed_response_raises_the_codec_error_in_any_splits(wire, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=4)))
    with pytest.raises(ProtocolError):
        framed(wire, "GET", cuts)


@pytest.mark.parametrize("wire", [
    b"HTTP/1.1 200 OK\r\nNo colon\r\n\r\n", b"HTTP/1.1 200 OK\r\n folded: x\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc",  # the stream ends inside the body
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nab\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nX: " + b"a" * http11.MAX_HEAD_BYTES + b"\r\n\r\n",
])
def test_a_malformed_header_line_or_frame_raises_the_codec_error(wire):
    with pytest.raises(ProtocolError):
        framed(wire, "GET", [])


def test_a_body_over_the_limit_is_a_413_however_it_is_framed():
    for wire in (b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n",
                 b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nb\r\n",
                 b"HTTP/1.1 200 OK\r\n\r\n" + b"x" * 11):
        with pytest.raises(ProtocolError) as caught:
            http11.run(Reader(wire).response("GET", 10), lambda: b"")
        assert caught.value.status == 413


def test_a_stream_that_ends_before_a_message_is_eof_and_inside_one_a_protocol_error():
    with pytest.raises(EOFError):
        http11.run(Reader(b"\r\n").response("GET", LIMIT), lambda: b"")
    with pytest.raises(ProtocolError):
        http11.run(Reader(b"HTTP/1.1 200").response("GET", LIMIT), lambda: b"")


def test_a_request_head_refuses_what_would_end_a_line():
    assert http11.request_head("GET", "/a?b=c", {"Host": "h", "X": "v w"}) == (
        b"GET /a?b=c HTTP/1.1\r\nHost: h\r\nX: v w\r\n\r\n")
    for target, fields in [("/a b", {}), ("/a\r\nX: y", {}), ("/\x7f", {}), ("/é", {}),
                           ("/", {"X": "v\r\nInjected: 1"}), ("/", {"X": "v\n"}),
                           ("/", {"X": "\0"}), ("/", {"Bad Name": "v"}), ("/", {"": "v"}),
                           ("/", {"X:": "v"})]:
        with pytest.raises(ValueError):
            http11.request_head("GET", target, fields)


@pytest.mark.parametrize("when", [0.0, 784111777.0, 951782400.5, 1700000000.0, 4102444799.0])
def test_the_date_is_the_imf_fixdate_that_formatdate_writes(when):
    assert http11.imf_date(when) == formatdate(when, usegmt=True)


# RFC 9110 §15's reason phrase of each status the edge can send.
RFC_9110_REASONS = {
    100: "Continue", 200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Content Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 505: "HTTP Version Not Supported"}


def test_every_status_the_edge_sends_has_its_reason_phrase():
    from test_service import EDGE_STATUSES

    assert EDGE_STATUSES | {100} <= set(RFC_9110_REASONS)
    for status, phrase in RFC_9110_REASONS.items():
        head = http11.response_head(status, {"Content-Length": 0})
        assert head == b"HTTP/1.1 %d %s\r\nContent-Length: 0\r\n\r\n" % (status, phrase.encode())

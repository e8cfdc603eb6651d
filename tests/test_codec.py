"""The JSON codec at the serving edge: orjson decodes 2xx upstream bodies and
encodes responses, and the standard library is the exact fallback.

A decoded body equals, types included, what the standard library reads from
it, or raises the same error class; the one exception is nesting, which
orjson reads past the standard library's recursion limit. An encoded response
reads back as the payload with its keys in order. Non-finite and oversize
upstream numbers become field errors, so a response never needs NaN or an
infinity.
"""

import copy
import json
import math
import sys
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import general_path
from oaswrap.engine import Executor, parse_query, validate_query
from oaswrap.errors import UpstreamError, UpstreamNotJson
from oaswrap.generator import GenerationOptions, generate
from oaswrap.ir import list_of, scalar
from oaswrap.resolver_runtime import (BODY_EXCERPT_LIMIT, MAX_FAST_BRACKETS,
                                      parse_upstream_body)
from oaswrap.service import GraphQLService, encode_response


def same(a, b) -> bool:
    """a equals b with the same types, dict keys in the same order, and
    floats alike to the sign of zero. Iterative, for deep nesting."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, dict):
            if list(a) != list(b):
                return False
            todo.extend((a[key], b[key]) for key in a)
        elif isinstance(a, list):
            if len(a) != len(b):
                return False
            todo.extend(zip(a, b))
        elif isinstance(a, float):
            if not (math.isnan(a) and math.isnan(b)
                    or a == b and math.copysign(1, a) == math.copysign(1, b)):
                return False
        elif a != b:
            return False
    return True


def stdlib_parse(status: int, body: bytes, structured: bool):
    """The standard library's reading of an upstream body: the reference."""
    text = body.decode("utf-8", errors="replace")
    if not (200 <= status < 300):
        raise UpstreamError(status, text[:BODY_EXCERPT_LIMIT])
    try:
        return json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        if structured:
            raise UpstreamNotJson("not JSON") from None
        return text


def outcome(parse, *args):
    try:
        return "value", parse(*args)
    except Exception as exc:  # the class is what is compared
        return "error", type(exc)


# -- decoding -------------------------------------------------------------------------------

WS = st.text(alphabet=" \t\n\r", max_size=2)
TOKENS = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0", "0.1e1",
    '"\\ud800"', '"a\\udfff"', '"\\ud83d\\ude00"', '"\\u00e9\\n"', "01", "[1,]", "tru",
])
WIDE_INTS = st.integers(10**18, 10**30).flatmap(lambda n: st.sampled_from([str(n), str(-n)]))
STRINGS = st.builds(lambda text, ascii: json.dumps(text, ensure_ascii=ascii),
                    st.text(st.characters(blacklist_categories=()), max_size=6), st.booleans())
LEAVES = st.one_of(
    st.sampled_from(["null", "true", "false"]), st.integers().map(str), WIDE_INTS,
    st.floats(allow_nan=False, allow_infinity=False).map(repr), TOKENS, STRINGS,
)


@st.composite
def arrays(draw, items):
    return "[" + draw(WS) + ",".join(draw(WS) + item + draw(WS)
                                     for item in draw(st.lists(items, max_size=4))) + "]"


@st.composite
def objects(draw, items):
    members = draw(st.lists(st.tuples(STRINGS, items), max_size=4))
    return "{" + draw(WS) + ",".join(f"{draw(WS)}{key}{draw(WS)}:{draw(WS)}{value}{draw(WS)}"
                                     for key, value in members) + "}"


TEXTS = st.recursive(LEAVES, lambda items: st.one_of(arrays(items), objects(items)),
                     max_leaves=12)


@st.composite
def bodies(draw) -> bytes:
    """JSON text with random whitespace, and some of it made invalid UTF-8,
    given a BOM, emptied or nested deep."""
    text = draw(WS) + draw(TEXTS) + draw(WS)
    body = text.encode("utf-8", errors="surrogatepass")  # a lone surrogate is invalid UTF-8
    change = draw(st.sampled_from(["none"] * 6 + ["byte", "bom", "blank", "deep"]))
    if change == "byte":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + body[at:]
    elif change == "bom":
        body = b"\xef\xbb\xbf" + body
    elif change == "blank":
        body = draw(st.sampled_from([b"", b" ", b"\r\n\t ", b"\x0c", "\u00a0".encode()]))
    elif change == "deep":
        depth = draw(st.sampled_from([900, 1100, 3000, MAX_FAST_BRACKETS + 100]))
        opener, closer = draw(st.sampled_from([(b"[", b"]"), (b'{"k":', b"}")]))
        body = opener * depth + body + closer * depth
    return body


@contextmanager
def room_for_nesting():
    """A recursion limit the standard library can read and compare the
    generated nesting with."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3 * MAX_FAST_BRACKETS)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bodies(), st.booleans(), st.sampled_from([200, 201, 204, 299, 404, 502]))
def test_decoding_reads_what_the_standard_library_reads(body, structured, status):
    ours = outcome(parse_upstream_body, status, body, structured)
    reference = outcome(stdlib_parse, status, body, structured)
    if reference == ("error", RecursionError) and ours[0] == "value":
        # orjson reads nesting past the standard library's recursion limit.
        assert body.count(b"[") + body.count(b"{") <= MAX_FAST_BRACKETS
        with room_for_nesting():
            assert same(ours[1], json.loads(body.decode("utf-8")))
    elif reference[0] == "error":
        assert ours == reference
    else:
        assert ours[0] == "value" and same(ours[1], reference[1])


def test_wide_integers_decode_exactly():
    for literal in ("18446744073709551616", "-9223372036854775809",
                    "123456789012345678901234567890", "-123456789012345678901234567890"):
        body = f'{{"n": {literal}, "f": 1.5}}'.encode()
        assert same(parse_upstream_body(200, body, True), {"n": int(literal), "f": 1.5})


def test_a_body_nested_past_the_bracket_bound_takes_the_standard_library():
    depth = 60_000  # orjson 3.8 overflows an 8 MiB stack near this depth of objects
    with pytest.raises(RecursionError):
        parse_upstream_body(200, b'{"k":' * depth + b"1" + b"}" * depth, True)


# -- encoding -------------------------------------------------------------------------------

TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)
PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
              st.floats(allow_nan=False, allow_infinity=False), TEXT),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=12,
)


def nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


@settings(max_examples=300, deadline=None)
@given(PAYLOADS, st.sampled_from([0, 0, 0, 300]))
def test_encoding_reads_back_as_the_payload(payload, depth):
    payload = nested(payload, depth)  # past orjson's 254 levels
    encoded = encode_response(payload)
    assert same(json.loads(encoded.decode("utf-8")), payload)


def test_encoding_is_compact_and_utf8():
    expected = '{"a":[1,2.5,null],"é":"ü"}'.encode()
    assert encode_response({"a": [1, 2.5, None], "é": "ü"}) == expected
    assert encode_response({"s": "\ud800"}) == b'{"s":"\\ud800"}'  # the standard library's


# -- completion of the numbers JSON cannot carry ---------------------------------------------

FIXTURE = {
    "openapi": "3.0.0",
    "info": {"title": "Numbers", "version": "1"},
    "servers": [{"url": "http://upstream.invalid"}],
    "paths": {"/x": {"get": {"responses": {"200": {
        "description": "ok", "content": {"application/json": {"schema": {
            "$ref": "#/components/schemas/X"}}}}}}}},
    "components": {"schemas": {"X": {"type": "object", "properties": {
        "n": {"type": "integer"}, "f": {"type": "number"}, "s": {"type": "string"},
        "fs": {"type": "array", "items": {"type": "number"}}}}}},
}
WRAPPER = generate(json.dumps(FIXTURE).encode(), GenerationOptions())


class BytesClient:
    """Answers every upstream request with one raw body."""

    def __init__(self, body: bytes):
        self.body = body

    def send(self, spec):
        return 200, {}, self.body


def run(body: bytes, selection: str, schema=WRAPPER.schema, general=False) -> dict:
    doc = parse_query("{ x { " + selection + " } }")
    assert validate_query(doc, schema) == []
    if general:
        general_path(doc)
    executor = Executor(schema, WRAPPER.plans, BytesClient(body))
    return executor.execute(doc, None, None).to_payload()


WIDE = "1" + "0" * 400


@pytest.mark.parametrize("general", [False, True])
@pytest.mark.parametrize("key, literal", [("f", "NaN"), ("f", "Infinity"), ("f", "-Infinity"),
                                          ("f", "1e400"), ("f", WIDE), ("n", WIDE)])
def test_a_non_finite_or_oversize_number_is_a_field_error(key, literal, general):
    """A Float field, or an Int field whose value past 32 bits would surface
    as a Float, gets no NaN or infinity."""
    payload = run(f'{{"{key}": {literal}, "s": "kept"}}'.encode(), f"{key} s", general=general)
    assert payload["data"] == {"x": {key: None, "s": "kept"}}
    [error] = payload["errors"]
    assert error["path"] == ["x", key]
    assert error["message"].startswith("Float cannot represent non numeric value")
    json.loads(encode_response(payload), parse_constant=pytest.fail)


@pytest.mark.parametrize("general", [False, True])
def test_a_non_finite_float_in_a_list_is_a_field_error(general):
    payload = run(b'{"fs": [1.5, NaN, 2]}', "fs", general=general)
    assert payload["data"] == {"x": {"fs": [1.5, None, 2.0]}}
    [error] = payload["errors"]
    assert error["path"] == ["x", "fs", 1]
    assert error["message"].startswith("Float cannot represent non numeric value")


@pytest.mark.parametrize("scalar_name", ["String", "ID"])
def test_a_wide_integer_serves_its_exact_digits(scalar_name):
    schema = copy.deepcopy(WRAPPER.schema)
    schema.types["X"].fields["s"].type = scalar(scalar_name)
    schema.types["X"].fields["fs"].type = list_of(scalar(scalar_name))
    body = b'{"s": 123456789012345678901234567890, "fs": [-98765432109876543210]}'
    payload = run(body, "s fs", schema=schema)
    assert payload == {"data": {"x": {"s": "123456789012345678901234567890",
                                      "fs": ["-98765432109876543210"]}}}


@pytest.mark.parametrize("key", ["s", "f"])
def test_an_integer_past_the_digit_limit_is_a_field_error(key):
    """json.loads refuses an integer literal of more digits than
    sys.get_int_max_str_digits() with a ValueError that is no decode error."""
    digits = sys.get_int_max_str_digits()
    payload = run(b'{"%s": 1%s}' % (key.encode(), b"0" * digits), key)
    assert payload == {"data": {"x": None}, "errors": [{
        "message": f"upstream value of GET /x holds an integer of more than {digits} digits",
        "path": ["x"], "locations": [{"line": 1, "column": 3}]}]}


# -- Float inputs JSON cannot carry ------------------------------------------------------------

INPUTS = {
    "openapi": "3.0.0",
    "info": {"title": "Inputs", "version": "1"},
    "servers": [{"url": "http://upstream.invalid"}],
    "paths": {"/x": {"post": {
        "requestBody": {"content": {"application/json": {"schema": {
            "type": "object", "properties": {"f": {"type": "number"}}}}}},
        "parameters": [{"name": "q", "in": "query", "schema": {"type": "number"}}],
        "responses": {"200": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"ok": {"type": "boolean"}}}}}}}}}},
}
INPUTS_WRAPPER = generate(json.dumps(INPUTS).encode(), GenerationOptions())


class RecordingClient(BytesClient):
    def __init__(self):
        super().__init__(b'{"ok": true}')
        self.specs = []

    def send(self, spec):
        self.specs.append(spec)
        return super().send(spec)


def handle(query: str, variables=None):
    client = RecordingClient()
    service = GraphQLService(INPUTS_WRAPPER, client=client)
    status, payload = service.handle_graphql({"query": query, "variables": variables})
    return status, payload, client.specs


def test_a_finite_float_input_is_sent():
    status, payload, specs = handle("mutation M($f: Float) { postX(q: 2, postX: {f: $f}) { ok } }",
                                    {"f": 1.5})
    assert (status, payload) == (200, {"data": {"postX": {"ok": True}}})
    assert [(spec.body, spec.query) for spec in specs] == [({"f": 1.5}, [("q", "2.0")])]


VARIABLE = "mutation M($f: Float) { postX(postX: {f: $f}) { ok } }"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -(10**400)],
                         ids=["nan", "inf", "-inf", "wide", "-wide"])
def test_a_non_finite_or_oversize_float_variable_is_a_400(value):
    status, payload, specs = handle(VARIABLE, {"f": value})
    assert status == 400
    [error] = payload["errors"]
    assert error["message"].startswith("$f: Float cannot represent non numeric value")
    assert specs == []


@pytest.mark.parametrize("query", [
    "mutation { postX(postX: {f: 1e400}) { ok } }",
    "mutation { postX(postX: {f: -1e400}) { ok } }",
    "mutation { postX(postX: {f: 1%s}) { ok } }" % ("0" * 400),
    "mutation { postX(q: 1e400) { ok } }",
    "mutation M($f: Float = 1e400) { postX(q: $f) { ok } }",
], ids=["1e400", "-1e400", "wide", "argument", "default"])
def test_a_non_finite_or_oversize_float_literal_is_a_400(query):
    status, payload, specs = handle(query)
    assert status == 400
    [error] = payload["errors"]
    assert "Float cannot represent non numeric value" in error["message"]
    assert specs == []


def test_an_integer_literal_past_the_digit_limit_is_a_400():
    literal = "1" + "0" * sys.get_int_max_str_digits()
    status, payload, specs = handle("mutation { postX(postX: {f: %s}) { ok } }" % literal)
    assert status == 400
    assert payload == {"errors": [{"message": f"integer literal of {len(literal)} characters "
                                              f"is too long (line 1, column 29)"}]}
    assert specs == []

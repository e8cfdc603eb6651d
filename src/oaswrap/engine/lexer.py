"""GraphQL lexer for the query parser. Tokens follow the spec's lexical grammar
(https://spec.graphql.org/October2021/#sec-Appendix-Grammar-Summary.Lexical-Tokens),
scanned by one pattern whose alternatives are its tokens. Names are ASCII, a
number may not run into a digit, ``.`` or name start, and block strings are
dedented as the spec's BlockStringValue() dedents them."""

from __future__ import annotations

import json
import re

from ..errors import GraphQLSyntaxError

# Each alternative is one token kind, named by a match's lastgroup, after the
# blanks before it. IGNORED is a comment or the text's end, ERROR a character
# no token starts with. No token holds a surrogate, which is no scalar value.
_INTEGER = r"-?(?:0|[1-9][0-9]*)"
_NUMBER_END = r"(?![.0-9_A-Za-z])"
_TOKEN = re.compile(r"[\ufeff \t,]*(?:" + "|".join([
    r"(?P<NAME>[_A-Za-z][_0-9A-Za-z]*)",
    r"(?P<PUNCT>[!$&():=@\[\]{|}])",
    r"(?P<NEWLINE>\r\n|[\n\r])",
    r"(?P<IGNORED>#[^\n\r\ud800-\udfff]*|\Z)",
    r"(?P<SPREAD>\.\.\.)",
    rf"(?P<FLOAT>{_INTEGER}(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)){_NUMBER_END}",
    rf"(?P<INT>{_INTEGER}){_NUMBER_END}",
    r'(?P<BLOCK>"""(?:\\"""|\\(?!""")|"(?!"")|[^"\\\ud800-\udfff])*""")',
    r'(?P<STRING>(?!""")"(?:[^"\\\n\r\ud800-\udfff]|\\[^\n\r\ud800-\udfff])*")',
    r"(?P<ERROR>[\s\S])",
]) + ")")
_VERBATIM = frozenset(("NAME", "PUNCT", "SPREAD", "INT", "FLOAT"))
_NUMBER_CHARS = re.compile(r"[-+.0-9_A-Za-z]{1,32}")  # a bounded quote in the message
_LINE_END = re.compile(r"\r\n|[\n\r]")
_BRACED_ESCAPE = re.compile(r"\\\\|\\u\{([0-9A-Fa-f]{1,8})\}")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str,  # NAME | INT | FLOAT | STRING | PUNCT | SPREAD | EOF
                 value: str, line: int, column: int):
        self.kind, self.value = kind, value
        self.line, self.column = line, column


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    match = _TOKEN.match
    while pos < len(text):
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.start(kind), m.end()
        column = start - line_start + 1
        if kind in _VERBATIM:
            tokens.append(Token(kind, m[kind], line, column))
        elif kind == "NEWLINE":
            line, line_start = line + 1, pos
        elif kind == "STRING":
            tokens.append(Token(kind, _string_value(m[kind], line, column), line, column))
        elif kind == "BLOCK":
            lines = _LINE_END.split(m[kind][3:-3])
            tokens.append(Token("STRING", _block_string_value(lines), line, column))
            if len(lines) > 1:
                line, line_start = line + len(lines) - 1, pos - 3 - len(lines[-1])
        elif kind == "ERROR":
            raise GraphQLSyntaxError(_unexpected(text, start), line, column)
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def _unexpected(text: str, start: int) -> str:
    if text[start] == '"':
        return "unterminated or invalid string"
    if text[start] in "-0123456789":
        return f"invalid number {_NUMBER_CHARS.match(text, start)[0]!r}"
    return f"unexpected character {text[start]!r}"


def _string_value(literal: str, line: int, column: int) -> str:
    """A quoted string's value: JSON's escapes are GraphQL's, but for the
    braced ``\\u{...}``, and a lone surrogate escape is no scalar value."""
    try:
        if "\\u{" in literal:
            literal = _BRACED_ESCAPE.sub(_braced_escape, literal)
        value = json.loads(literal, strict=False)  # strict=False lets a raw tab through
    except (ValueError, OverflowError) as exc:  # JSONDecodeError, chr() past U+10FFFF
        raise GraphQLSyntaxError(f"bad string literal: {exc}", line, column) from None
    if _SURROGATE.search(value):
        raise GraphQLSyntaxError("string escapes a surrogate code point", line, column)
    return value


def _braced_escape(m: re.Match) -> str:
    """``\\u{...}`` as JSON spells its code point, an escaped backslash as it
    is. A surrogate stays raw, so that no JSON escape before it pairs with it."""
    return m[0] if m[1] is None else json.dumps(chr(int(m[1], 16)), ensure_ascii=False)[1:-1]


def _block_string_value(lines: list[str]) -> str:
    """The spec's BlockStringValue(): the common indentation of the lines
    after the first goes, then the blank lines at either end."""
    lines = [raw.replace('\\"""', '"""') for raw in lines]
    filled = [i for i, s in enumerate(lines) if s.strip(" \t")]
    common = min((len(lines[i]) - len(lines[i].lstrip(" \t")) for i in filled if i), default=0)
    lines[1:] = [s[common:] for s in lines[1:]]
    return "\n".join(lines[filled[0]:filled[-1] + 1]) if filled else ""


class TokenStream:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.current
        if token.kind != kind or (value is not None and token.value != value):
            wanted = value or kind
            raise GraphQLSyntaxError(
                f"expected {wanted!r}, found {token.value or token.kind!r}",
                token.line, token.column,
            )
        return self.advance()

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.current
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

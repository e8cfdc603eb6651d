"""GraphQL lexer for the query parser."""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import GraphQLSyntaxError

PUNCTUATORS = frozenset("!$&():=@[]{|}")


@dataclass
class Token:
    kind: str  # NAME | INT | FLOAT | STRING | PUNCT | SPREAD | EOF
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)

    def err(msg: str):
        return GraphQLSyntaxError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r,":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == ".":
            if text[i:i + 3] == "...":
                tokens.append(Token("SPREAD", "...", line, col))
                i += 3
                col += 3
                continue
            raise err("unexpected '.'")
        if ch in PUNCTUATORS:
            tokens.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            if text[i:i + 3] == '"""':
                end = text.find('"""', i + 3)
                while end != -1 and text[end - 1] == "\\":
                    end = text.find('"""', end + 1)
                if end == -1:
                    raise err("unterminated block string")
                raw = text[i + 3:end]
                value = raw.replace('\\"""', '"""')
                tokens.append(Token("STRING", value, line, col))
                consumed = text[i:end + 3]
                line += consumed.count("\n")
                col = len(consumed.rsplit("\n", 1)[-1]) + 1 if "\n" in consumed else col + len(consumed)
                i = end + 3
                continue
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    raise err("unterminated string")
                j += 1
            else:
                raise err("unterminated string")
            literal = text[i:j + 1]
            try:
                value = json.loads(literal)
            except json.JSONDecodeError as exc:
                raise err(f"bad string literal: {exc}")
            tokens.append(Token("STRING", value, line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch == "-" or ch.isdigit():
            j = i
            if text[j] == "-":
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            is_float = False
            if j < n and text[j] == ".":
                is_float = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                is_float = True
                j += 1
                if j < n and text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            value = text[i:j]
            tokens.append(Token("FLOAT" if is_float else "INT", value, line, col))
            col += j - i
            i = j
            continue
        if ch == "_" or ch.isalpha():
            j = i
            while j < n and (text[j] == "_" or text[j].isalnum()):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise err(f"unexpected character {ch!r}")

    tokens.append(Token("EOF", "", line, col))
    return tokens


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

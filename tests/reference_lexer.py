"""The original per-character Verilog lexer, kept as a test oracle.

``tbforge.frontend.tokens.lex`` is one compiled scanner; the property tests
in ``test_lexer.py`` require it to give this loop's token stream, and its
``LexError`` message, line and column, on every input.
"""

from __future__ import annotations

import re

from tbforge.errors import LexError
from tbforge.frontend.tokens import KEYWORDS, Token, TokenKind

# Longest-first so e.g. "<<<" wins over "<<" and "<".
_OPERATORS = [
    "<<<", ">>>", "===", "!==", "**",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "~&", "~|", "~^", "^~", "+:", "-:",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "<", ">", "=", "?", ":",
]

_PUNCTUATION = ["(", ")", "[", "]", "{", "}", ";", ",", ".", "#", "@"]

_SIZED_NUMBER = re.compile(
    r"(?:\d[\d_]*)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+"
)
_PLAIN_NUMBER = re.compile(r"\d[\d_]*(?:\.\d[\d_]*)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_SYSTEM_IDENT = re.compile(r"\$[A-Za-z_][A-Za-z0-9_$]*")
_DIRECTIVE_IDENT = re.compile(r"`[A-Za-z_][A-Za-z0-9_$]*")
_ESCAPED_IDENT = re.compile(r"\\\S+")


def reference_lex(source: str) -> list[Token]:
    """The character-loop lexer, kept as the reference for
    ``tbforge.frontend.tokens.lex``."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)

    def col() -> int:
        return pos - line_start + 1

    def advance_lines(text: str) -> None:
        nonlocal line, line_start
        count = text.count("\n")
        if count:
            line += count
            line_start = pos + text.rindex("\n") + 1

    while pos < n:
        ch = source[pos]

        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r\f":
            pos += 1
            continue

        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = n if end == -1 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end == -1:
                raise LexError("unterminated block comment", line, col())
            advance_lines(source[pos:end + 2])
            pos = end + 2
            continue

        # Attribute instance. "(*)" in an event control is not an attribute.
        if source.startswith("(*", pos) and not source.startswith("(*)", pos):
            end = source.find("*)", pos + 2)
            if end == -1:
                raise LexError("unterminated attribute", line, col())
            advance_lines(source[pos:end + 2])
            pos = end + 2
            continue

        if ch == '"':
            end = pos + 1
            while end < n:
                if source[end] == "\\":
                    end += 2
                    continue
                if source[end] == '"':
                    break
                if source[end] == "\n":
                    raise LexError("unterminated string literal", line, col())
                end += 1
            if end >= n:
                raise LexError("unterminated string literal", line, col())
            text = source[pos:end + 1]
            tokens.append(Token(TokenKind.StringLiteral, text, line))
            advance_lines(text)
            pos = end + 1
            continue

        if ch == "\\":
            m = _ESCAPED_IDENT.match(source, pos)
            if m:
                pos = m.end()
                continue
            raise LexError("stray backslash", line, col())

        m = _SIZED_NUMBER.match(source, pos)
        if m:
            tokens.append(Token(TokenKind.Number, m.group(), line))
            pos = m.end()
            continue
        m = _PLAIN_NUMBER.match(source, pos)
        if m:
            tokens.append(Token(TokenKind.Number, m.group(), line))
            pos = m.end()
            continue

        m = _IDENT.match(source, pos)
        if m:
            text = m.group()
            kind = TokenKind.Keyword if text in KEYWORDS else TokenKind.Identifier
            tokens.append(Token(kind, text, line))
            pos = m.end()
            continue

        m = _SYSTEM_IDENT.match(source, pos) or _DIRECTIVE_IDENT.match(source, pos)
        if m:
            tokens.append(Token(TokenKind.Identifier, m.group(), line))
            pos = m.end()
            continue

        matched = False
        for op in _OPERATORS:
            if source.startswith(op, pos):
                tokens.append(Token(TokenKind.Operator, op, line))
                pos += len(op)
                matched = True
                break
        if matched:
            continue

        if ch in _PUNCTUATION:
            tokens.append(Token(TokenKind.Punctuation, ch, line))
            pos += 1
            continue

        raise LexError(f"illegal character {ch!r}", line, col())

    return tokens

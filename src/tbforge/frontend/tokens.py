"""Tokenizer for a synthesizable Verilog subset.

Comments and whitespace produce no tokens. Attribute instances ``(* ... *)``
and escaped identifiers (``\\name``) are consumed and dropped: they are rare
in the corpus and irrelevant to similarity scoring. Sized number literals
such as ``8'hFF`` or ``2'b01`` lex as a single Number token when written
without internal whitespace.

``lex`` makes one scanner match per token. Each match first skips, by a
prefix of the pattern, the spaces, line comments and escaped identifiers
in front of the token; the token's text is the match's only group. One
``findall`` therefore returns every token text in a single pass over the
source, together with the newlines, block comments and attributes that
the line count needs. A text's kind comes from a table keyed by the whole
text (keywords, operators, punctuation), else from one keyed by its first
character. Only when ``lex`` is about to raise does it scan the source
again, to find the offending text's column.
"""

from __future__ import annotations

import re
import string
from enum import Enum
from functools import partial
from typing import NamedTuple

from tbforge.errors import LexError


class TokenKind(Enum):
    Identifier = "identifier"
    Number = "number"
    Keyword = "keyword"
    Operator = "operator"
    Punctuation = "punctuation"
    StringLiteral = "string"


class Token(NamedTuple):
    """One lexed token. A named tuple, so it is immutable and hashable, and
    cheap to build: a source holds hundreds of them. Two tokens are equal
    when all three fields are."""

    kind: TokenKind
    text: str
    line: int


KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg logic parameter localparam
    assign always initial begin end if else case casex casez endcase default
    posedge negedge or and not for while repeat forever generate endgenerate
    genvar integer real time signed unsigned function endfunction task endtask
    defparam specify endspecify wait deassign force release disable edge
    """.split()
)

_OPERATORS = [
    "<<<", ">>>", "===", "!==", "**",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "~&", "~|", "~^", "^~", "+:", "-:",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "<", ">", "=", "?", ":",
]

_PUNCTUATION = "()[]{};,.#@"

# Group 1 is the token text. The prefix in front of it skips what makes no
# token and holds no newline: runs of " \t\r\f", line comments and escaped
# identifiers. Where two alternatives match at the same place the first
# wins, and that order is the lexer's precedence: longer operators before
# their prefixes, block comments before "/", attributes before "(" ("(*)"
# in an event control is not one), sized numbers before plain ones. A "/*"
# or "(*" that is never closed matches alone. The catch-all matches any
# other character alone: a newline, a one-character operator or punctuation
# mark, a lone '"', "\", "$", "`" or "'", or an illegal character; the
# tables below tell them apart.
#
# requires-python is >=3.10, so the skip cannot be made possessive or
# atomic (both need 3.11). It needs neither: after the greedy skip the next
# character is not one of " \t\r\f", so the catch-all "[^ \t\r\f]" or, at
# the end of the source, "\Z" always matches on the first try, and the
# plain "*" never backtracks into the skip. (Without "\Z", trailing spaces
# would be split every possible way before the match failed.) At the end
# of the source "\Z" makes one or two empty matches, which end the scan.
_SCANNER = re.compile(
    r"(?:[ \t\r\f]+|//[^\n]*|\\\S+)*"
    r"([A-Za-z_][A-Za-z0-9_$]*"
    r"|" + "|".join(re.escape(op) for op in _OPERATORS if len(op) > 1) +
    r"|/\*(?:[\s\S]*?\*/)?"
    r"|\(\*(?!\))(?:[\s\S]*?\*\))?"
    r"|(?:\d[\d_]*)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+"
    r"|\d[\d_]*(?:\.\d[\d_]*)?"
    r'|"(?:[^"\\\n]|\\[\s\S])*"'
    r"|[$`][A-Za-z_][A-Za-z0-9_$]*"
    r"|[^ \t\r\f]|\Z)"
)

_ERRORS = {
    "/*": "unterminated block comment",
    "(*": "unterminated attribute",
    '"': "unterminated string literal",
    "\\": "stray backslash",
}

# Kinds in _KINDS of the texts that make no token.
_NEWLINE = object()
_NOT_A_TOKEN = object()

# Kind by the whole text.
_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.Keyword),
    **dict.fromkeys(_OPERATORS, TokenKind.Operator),
    **dict.fromkeys(_PUNCTUATION, TokenKind.Punctuation),
    "\n": _NEWLINE,
    # The empty match at the end of the source, and the texts that mean an
    # error: an unclosed "/*", "(*" or '"', a stray backslash, and a "$",
    # "`" or "'" that starts no identifier or number.
    **dict.fromkeys(["", *_ERRORS, "$", "`", "'"], _NOT_A_TOKEN),
}

# Kind by the first character, for texts missing from _KINDS. What starts
# with a character missing here is a string literal ('"'), a block comment
# ("/"), an attribute ("("), a number that starts with a non-ASCII decimal
# digit (which "\d" matches), or an illegal character.
_FIRST_KINDS = {
    **dict.fromkeys(string.ascii_letters + "_$`", TokenKind.Identifier),
    **dict.fromkeys(string.digits + "'", TokenKind.Number),
}


def lex(source: str) -> list[Token]:
    """Tokenize Verilog text. Raises LexError with line/column on an
    unterminated comment, attribute or string, a stray backslash, or an
    illegal character.

    Lines advance at every newline, including those inside comments,
    attributes and (backslash-escaped) inside string literals; a token's
    line is the line it starts on.
    """
    tokens: list[Token] = []
    append = tokens.append
    # Token((kind, text, line)) without the Python-level Token.__new__.
    make = partial(tuple.__new__, Token)
    kind_of = _KINDS.get
    first_kind_of = _FIRST_KINDS.get
    line = 1
    for text in _SCANNER.findall(source):
        kind = kind_of(text)
        if kind is None:
            first = text[0]
            kind = first_kind_of(first)
            if kind is None:
                if first == '"':  # a string, its newlines backslash-escaped
                    append(make((TokenKind.StringLiteral, text, line)))
                    line += text.count("\n")
                    continue
                if first == "/" or first == "(":  # a comment or an attribute
                    line += text.count("\n")
                    continue
                if not first.isdecimal():
                    raise _lex_error(source, text, line)
                kind = TokenKind.Number
        elif kind is _NEWLINE:
            line += 1
            continue
        elif kind is _NOT_A_TOKEN:
            if not text:
                break
            raise _lex_error(source, text, line)
        append(make((kind, text, line)))
    return tokens


def _lex_error(source: str, text: str, line: int) -> LexError:
    """The LexError for the first match whose text is ``text``: lex raises
    at the first bad text, and every earlier match of the same text would
    have been just as bad. Skipped text holds no newline, so the column
    counts from the last newline before the match."""
    start = next(m.start(1) for m in _SCANNER.finditer(source) if m.group(1) == text)
    message = _ERRORS.get(text) or f"illegal character {text!r}"
    return LexError(message, line, start - source.rfind("\n", 0, start))

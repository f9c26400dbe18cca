"""Tokenizer for a synthesizable Verilog subset.

Comments and whitespace produce no tokens. Attribute instances ``(* ... *)``
and escaped identifiers (``\\name``) are consumed and dropped: they are rare
in the corpus and irrelevant to similarity scoring. Sized number literals
such as ``8'hFF`` or ``2'b01`` lex as a single Number token when written
without internal whitespace.
"""

from __future__ import annotations

import re
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

# Longest-first so e.g. "<<<" wins over "<<" and "<".
_OPERATORS = [
    "<<<", ">>>", "===", "!==", "**",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "~&", "~|", "~^", "^~", "+:", "-:",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "<", ">", "=", "?", ":",
]

_PUNCTUATION = "()[]{};,.#@"

# One alternation, tried in order at each position: the order is the
# lexer's precedence (comments before "/", attributes before "(", sized
# numbers before plain ones). The *_open rules match only where the full
# rule above them failed, that is at an unterminated construct. No rule
# matches the empty string and "illegal" matches any character, so the
# matches tile the source.
_RULES = [
    ("newline", r"\n"),
    ("space", r"[ \t\r\f]+"),
    ("line_comment", r"//[^\n]*"),
    ("block_comment", r"/\*[\s\S]*?\*/"),
    ("block_comment_open", r"/\*"),
    # "(*)" in an event control is not an attribute.
    ("attribute", r"\(\*(?!\))[\s\S]*?\*\)"),
    ("attribute_open", r"\(\*(?!\))"),
    ("string", r'"(?:[^"\\\n]|\\[\s\S])*"'),
    ("string_open", r'"'),
    ("escaped_ident", r"\\\S+"),
    ("backslash", r"\\"),
    ("number", r"(?:\d[\d_]*)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+"
               r"|\d[\d_]*(?:\.\d[\d_]*)?"),
    ("word", r"[A-Za-z_][A-Za-z0-9_$]*"),
    ("system_ident", r"[$`][A-Za-z_][A-Za-z0-9_$]*"),
    ("operator", "|".join(re.escape(op) for op in _OPERATORS)),
    ("punctuation", "[" + re.escape(_PUNCTUATION) + "]"),
    ("illegal", r"[\s\S]"),
]
_SCANNER = re.compile("|".join(f"(?P<{name}>{rule})" for name, rule in _RULES))

_TOKEN_KINDS = {
    "number": TokenKind.Number,
    "system_ident": TokenKind.Identifier,
    "operator": TokenKind.Operator,
    "punctuation": TokenKind.Punctuation,
}
_SKIPPED = frozenset({"space", "line_comment", "escaped_ident"})
# Matches that may span lines; of these only strings make a token.
_MULTILINE = frozenset({"string", "block_comment", "attribute"})
_ERRORS = {
    "block_comment_open": "unterminated block comment",
    "attribute_open": "unterminated attribute",
    "string_open": "unterminated string literal",
    "backslash": "stray backslash",
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
    line = 1
    line_start = 0
    for m in _SCANNER.finditer(source):
        group = m.lastgroup
        kind = _TOKEN_KINDS.get(group)
        if kind is not None:
            append(make((kind, m.group(), line)))
        elif group == "word":
            text = m.group()
            append(make((TokenKind.Keyword if text in KEYWORDS else TokenKind.Identifier,
                         text, line)))
        elif group == "newline":
            line += 1
            line_start = m.end()
        elif group in _SKIPPED:
            continue
        elif group in _MULTILINE:
            text = m.group()
            if group == "string":
                append(make((TokenKind.StringLiteral, text, line)))
            count = text.count("\n")
            if count:
                line += count
                line_start = m.start() + text.rindex("\n") + 1
        elif group == "illegal":
            raise LexError(f"illegal character {m.group()!r}", line,
                           m.start() - line_start + 1)
        else:
            raise LexError(_ERRORS[group], line, m.start() - line_start + 1)
    return tokens


def render_tokens(tokens: list[Token]) -> str:
    """Join token texts with single spaces; re-lexing reproduces kinds+texts."""
    return " ".join(t.text for t in tokens)

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbforge.errors import LexError
from tbforge.frontend import Token, TokenKind, lex

import cli_fixtures
import fixture_data
from fixture_data import AUDIO_ENCODER_DUT, TESTBENCH_SKELETON
from reference_lexer import reference_lex


def kinds_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


def test_simple_assign():
    tokens = lex("assign y = a & b;")
    assert kinds_texts(tokens) == [
        (TokenKind.Keyword, "assign"),
        (TokenKind.Identifier, "y"),
        (TokenKind.Operator, "="),
        (TokenKind.Identifier, "a"),
        (TokenKind.Operator, "&"),
        (TokenKind.Identifier, "b"),
        (TokenKind.Punctuation, ";"),
    ]


def test_empty_input():
    assert lex("") == []


def test_sized_literal_is_single_token():
    tokens = lex("2'b01")
    assert len(tokens) == 1
    assert tokens[0] == Token(TokenKind.Number, "2'b01", 1)


# Golden token fixtures over snippets drawn from the DUT/testbench corpus.
GOLDEN = [
    ("wire w;", ["wire", "w", ";"]),
    ("reg [4:0] shift_count;", ["reg", "[", "4", ":", "0", "]", "shift_count", ";"]),
    ("assign i_ready = ~is_valid_shift;",
     ["assign", "i_ready", "=", "~", "is_valid_shift", ";"]),
    ("always @(posedge clk or posedge reset)",
     ["always", "@", "(", "posedge", "clk", "or", "posedge", "reset", ")"]),
    ("shift_count <= shift_count - 1'b1;",
     ["shift_count", "<=", "shift_count", "-", "1'b1", ";"]),
    ("is_valid_shift <= shift_count != 0;",
     ["is_valid_shift", "<=", "shift_count", "!=", "0", ";"]),
    ("shift <= shift << 1;", ["shift", "<=", "shift", "<<", "1", ";"]),
    ("reg_sdata <= 2'b00;", ["reg_sdata", "<=", "2'b00", ";"]),
    ("localparam width = 16;", ["localparam", "width", "=", "16", ";"]),
    ("serial_audio_encoder #(width) uut (",
     ["serial_audio_encoder", "#", "(", "width", ")", "uut", "("]),
    (".audio_in(audio_in),", [".", "audio_in", "(", "audio_in", ")", ","]),
    ("if (reset) begin", ["if", "(", "reset", ")", "begin"]),
    ("end else begin", ["end", "else", "begin"]),
    ("x = 8'hFF;", ["x", "=", "8'hFF", ";"]),
    ("y = 'd255;", ["y", "=", "'d255", ";"]),
    ("z = 16'hDEAD_BEEF;", ["z", "=", "16'hDEAD_BEEF", ";"]),
    ("q <= d;", ["q", "<=", "d", ";"]),
    ("assign y = sel ? a : b;", ["assign", "y", "=", "sel", "?", "a", ":", "b", ";"]),
    ("assign o = {a, b[3:0]};",
     ["assign", "o", "=", "{", "a", ",", "b", "[", "3", ":", "0", "]", "}", ";"]),
    ("assign p = in[7 -: 4];", ["assign", "p", "=", "in", "[", "7", "-:", "4", "]", ";"]),
]


@pytest.mark.parametrize("source,expected", GOLDEN)
def test_golden_tokens(source, expected):
    assert [t.text for t in lex(source)] == expected


def test_comments_and_whitespace_produce_no_tokens():
    source = "// line comment\n  /* block\n comment */ \t\n"
    assert lex(source) == []


def test_comment_between_tokens():
    tokens = lex("assign /* x */ y = 1; // done")
    assert [t.text for t in tokens] == ["assign", "y", "=", "1", ";"]


def test_line_numbers():
    tokens = lex("module m;\n\nassign y = 1;\nendmodule\n")
    lines = {t.text: t.line for t in tokens}
    assert lines["module"] == 1
    assert lines["assign"] == 3
    assert lines["endmodule"] == 4


def test_attributes_discarded():
    tokens = lex("(* keep = 1 *) wire w;")
    assert [t.text for t in tokens] == ["wire", "w", ";"]


def test_escaped_identifier_discarded():
    tokens = lex("wire \\weird$name ;")
    assert [t.text for t in tokens] == ["wire", ";"]


def test_event_star_is_not_attribute():
    tokens = lex("always @(*) x = y;")
    assert "(" in [t.text for t in tokens]
    assert "*" in [t.text for t in tokens]


def test_string_literal():
    tokens = lex('x = "hello world";')
    assert (TokenKind.StringLiteral, '"hello world"') in kinds_texts(tokens)


def test_unterminated_string_raises():
    with pytest.raises(LexError) as exc:
        lex('x = "oops\n;')
    assert exc.value.line == 1


def test_illegal_character_raises():
    with pytest.raises(LexError):
        lex("wire w \x01;")


def test_system_identifier_single_token():
    tokens = lex("$display($time);")
    assert [t.text for t in tokens] == ["$display", "(", "$time", ")", ";"]
    assert tokens[0].kind is TokenKind.Identifier


def render_tokens(tokens):
    """Join token texts with single spaces; re-lexing reproduces kinds+texts."""
    return " ".join(t.text for t in tokens)


def _roundtrip(source):
    tokens = lex(source)
    relexed = lex(render_tokens(tokens))
    assert kinds_texts(relexed) == kinds_texts(tokens)


@pytest.mark.parametrize("source", [s for s, _ in GOLDEN])
def test_roundtrip_golden(source):
    _roundtrip(source)


@pytest.mark.parametrize("source", [AUDIO_ENCODER_DUT, TESTBENCH_SKELETON])
def test_roundtrip_fixture_modules(source):
    _roundtrip(source)


_ident = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
_number = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.builds(lambda w, b, d: f"{w}'{b}{d}",
              st.integers(min_value=1, max_value=64),
              st.sampled_from(["b", "h", "d", "o"]),
              st.integers(min_value=0, max_value=7).map(str)),
)
_piece = st.one_of(
    _ident, _number,
    st.sampled_from(["assign", "wire", "reg", "module", "endmodule", "begin", "end",
                     "<=", ">=", "==", "+", "-", "&", "|", "^", "(", ")", "[", "]",
                     "{", "}", ";", ",", ":", "?", "<<", ">>"]),
)


@given(st.lists(_piece, max_size=40))
def test_roundtrip_random_token_soup(pieces):
    source = " ".join(pieces)
    _roundtrip(source)


# ---- the compiled scanner against the character-loop reference ----


def lex_result(lexer, source):
    """The (kind, text, line) stream, or the LexError's message, line and
    column."""
    try:
        return [(t.kind, t.text, t.line) for t in lexer(source)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


FIXTURE_SOURCES = {
    f"{module.__name__}.{name}": value
    for module in (fixture_data, cli_fixtures)
    for name, value in vars(module).items()
    if name.isupper() and isinstance(value, str)
}


# Inputs where a scanner rule that is almost right would differ.
EDGE_SOURCES = [
    "always @(*) y = a; (* keep *) wire w;",
    "always @(*) y = a * b; // (*)\n(* two\n lines *) z = a ** b *c;",
    "/* a */ b /* c\n d */ e /*/ f */ g",
    'x = "two\nlines";',
    'x = "esc\\"aped" + "q\\\\" + "r";',
    "a<<<b>>>c===d!==e**f<<g>>h<=i>=j==k!=l&&m||n~&o~|p~^q^~r[s+:t][u-:v]",
    "8'hFF 'sb1 4'b1x?z 16'hDEAD_BEEF 1.5 1_000 2 'd3 8 'o7",
    "\\escaped$id wire \\x[0] $display `define",
    # "\d" matches any Unicode decimal digit, not only 0-9.
    "x = \u0663 + 1;",
    " \t\r\n\f \n",
    "// only a comment, with no final newline",
    "assign y = a;   ",
]


@pytest.mark.parametrize("source", sorted(FIXTURE_SOURCES.values()) + EDGE_SOURCES)
def test_lex_matches_reference(source):
    assert lex_result(lex, source) == lex_result(reference_lex, source)


LEX_ERRORS = [
    ("wire w;\n  /* never closed\n", "unterminated block comment", 2, 3),
    ("a\n(* keep = 1\n wire w;", "unterminated attribute", 2, 1),
    ('x = "oops\n;', "unterminated string literal", 1, 5),
    ('x = "trailing escape\\', "unterminated string literal", 1, 5),
    ("assign y = a \\ b;", "stray backslash", 1, 14),
    ("wire w \x01;", "illegal character '\\x01'", 1, 8),
    ("/* two\nlines */ x = 8';", "illegal character \"'\"", 2, 15),
    ('s = "a\\\nb"; $', "illegal character '$'", 2, 5),
    # Alone, these start no token, though longer texts that start with them do.
    ("a = $ b;", "illegal character '$'", 1, 5),
    ("a = ` b;", "illegal character '`'", 1, 5),
    ("a = ' b;", "illegal character \"'\"", 1, 5),
    # The space rule is [ \t\r\f], not \s.
    ("a\n \vb", "illegal character '\\x0b'", 2, 2),
    ("x /* two\n lines */ y \x01", "illegal character '\\x01'", 2, 13),
    ("(* two\n lines *) wire w; \\", "stray backslash", 2, 19),
]


@pytest.mark.parametrize("source,message,line,col", LEX_ERRORS)
def test_lex_errors_match_reference(source, message, line, col):
    expected = ("LexError", f"L{line}:{col}: {message}", line, col)
    assert lex_result(reference_lex, source) == expected
    assert lex_result(lex, source) == expected


def test_escaped_newline_in_string_keeps_line():
    # A backslash-escaped newline inside a string literal is a line break:
    # tokens after it, and error columns, count from the line it starts.
    source = 's = "a\\\nb";\nt'
    assert lex_result(lex, source)[-1] == (TokenKind.Identifier, "t", 3)
    assert lex_result(lex, source) == lex_result(reference_lex, source)


_VERILOG_CHARS = "abhsxz_019$`'\\\"/*()[]{}<>=!~&|^+-:;,.#@?% \t\n\r\f\x01é٣"

_fragment = st.one_of(
    _piece,
    st.sampled_from([
        "// line comment", "/* block */", "/* two\nlines */", "/* open",
        "(* keep *)", "(* two\nlines *)", "(*)", "(**)", "(* open",
        '"str"', '"esc\\"aped"', '"a\\\nb"', '"open', "\\escaped$id ", "\\",
        "8'hFF", "'sb1", "4'b1x?z", "16'hDEAD_BEEF", "1.5", "1_000", "2 'd3",
        "$display", "`define", "<<<", ">>>", "===", "!==", "**", "~&", "^~",
        "+:", "-:", "\t", "\r\n", "\f",
    ]),
    st.text(alphabet=_VERILOG_CHARS, max_size=3),
)


@given(st.text(alphabet=_VERILOG_CHARS, max_size=80))
def test_lex_matches_reference_on_generated_text(source):
    assert lex_result(lex, source) == lex_result(reference_lex, source)


@given(st.lists(_fragment, max_size=30), st.sampled_from(["", " ", "\n"]))
def test_lex_matches_reference_on_generated_verilog(fragments, separator):
    source = separator.join(fragments)
    assert lex_result(lex, source) == lex_result(reference_lex, source)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbforge.errors import ParseError, ParseUnsupported
from tbforge.frontend import AstNode, NodeKind, Token, TokenKind, parse_module

from fixture_data import AUDIO_ENCODER_DUT, parse_text


def kinds_in(root):
    return {n.kind for n in root.walk()}


def test_minimal_module():
    root = parse_text("module m; endmodule")
    assert root == AstNode(NodeKind.Module, label="m")


def test_ansi_ports():
    root = parse_text("module m(input clk, input [3:0] d, output reg [3:0] q); endmodule")
    ports = [c for c in root.children if c.kind is NodeKind.PortDecl]
    assert [(p.label, p.qualifier) for p in ports] == [
        ("clk", "input"), ("d", "input"), ("q", "output")]
    assert len(ports[1].children) == 2  # range exprs


def test_ansi_direction_inheritance():
    root = parse_text("module m(input a, b, output y); endmodule")
    ports = [c for c in root.children if c.kind is NodeKind.PortDecl]
    assert [(p.label, p.qualifier) for p in ports] == [
        ("a", "input"), ("b", "input"), ("y", "output")]


def test_non_ansi_ports():
    root = parse_text("""
        module m(a, b, y);
        input a, b;
        output y;
        assign y = a & b;
        endmodule
    """)
    header = [c for c in root.children if c.kind is NodeKind.PortDecl and not c.qualifier]
    body = [c for c in root.children if c.kind is NodeKind.PortDecl and c.qualifier]
    assert [p.label for p in header] == ["a", "b", "y"]
    assert [(p.label, p.qualifier) for p in body] == [
        ("a", "input"), ("b", "input"), ("y", "output")]


def test_always_block_contains_nested_if():
    root = parse_text(AUDIO_ENCODER_DUT)
    always = [c for c in root.children if c.kind is NodeKind.AlwaysBlock]
    assert len(always) == 1
    assert always[0].qualifier == "posedge clk or posedge reset"
    body = always[0].children[0]
    assert body.kind is NodeKind.SeqBlock
    outer_if = body.children[0]
    assert outer_if.kind is NodeKind.IfStmt
    else_branch = outer_if.children[2]
    inner_if = else_branch.children[0]
    assert inner_if.kind is NodeKind.IfStmt
    assert inner_if.children[0].label == "is_valid_shift"


def test_generate_unsupported():
    with pytest.raises(ParseUnsupported):
        parse_text("""
            module m;
            generate
            endgenerate
            endmodule
        """)


@pytest.mark.parametrize("body,needle", [
    ("initial begin end", "initial"),
    ("function f; endfunction", "function"),
    ("integer i;", "integer"),
    ("always @(posedge clk) $display(1);", "system task"),
    ("always @(posedge clk) begin #5 q = 1; end", "timing"),
])
def test_unsupported_constructs(body, needle):
    with pytest.raises(ParseUnsupported) as exc:
        parse_text(f"module m(input clk, output reg q); {body} endmodule")
    assert needle.split()[0] in str(exc.value)


def test_unsupported_reports_line():
    with pytest.raises(ParseUnsupported) as exc:
        parse_text("module m;\n\ngenerate\nendgenerate\nendmodule")
    assert exc.value.line == 3


def test_malformed_input():
    with pytest.raises(ParseError):
        parse_text("module m; assign = 1; endmodule")
    with pytest.raises(ParseError):
        parse_text("module m; assign y = 1;")  # missing endmodule
    with pytest.raises(ParseError):
        parse_text("module m; endmodule module n; endmodule")  # two modules


def test_parse_determinism():
    a = parse_text(AUDIO_ENCODER_DUT)
    b = parse_text(AUDIO_ENCODER_DUT)
    assert a == b


def test_case_statement():
    root = parse_text("""
        module m(input [1:0] sel, input a, b, c, output reg y);
        always @(*) begin
          case (sel)
            2'b00: y = a;
            2'b01, 2'b10: y = b;
            default: y = c;
          endcase
        end
        endmodule
    """)
    case = next(n for n in root.walk() if n.kind is NodeKind.CaseStmt)
    items = [c for c in case.children if c.kind is NodeKind.CaseItem]
    assert len(items) == 3
    assert items[1].children[0].label == "2'b01"
    assert items[2].label == "default"


def test_instance_named_and_positional():
    root = parse_text("""
        module top(input a, b, output y);
        wire w;
        sub #(8) u1 (.x(a), .y(w));
        sub2 u2 (w, b, y);
        endmodule
    """)
    insts = [c for c in root.children if c.kind is NodeKind.Instance]
    assert [(i.label, i.qualifier) for i in insts] == [("sub", "u1"), ("sub2", "u2")]
    named = [c for c in insts[0].children if c.kind is NodeKind.PortConn]
    assert [c.label for c in named] == ["x", "y"]
    positional = [c for c in insts[1].children if c.kind is NodeKind.PortConn]
    assert all(c.label == "" for c in positional)


def test_expression_shapes():
    root = parse_text("""
        module m(input [7:0] a, b, input c, output [15:0] y0, y1, y2, y3, y4);
        assign y0 = c ? a + b : a - b;
        assign y1 = {a, b};
        assign y2 = {2{a}};
        assign y3 = a[3] & b[7:4] | a[2 +: 2];
        assign y4 = ~&a ^ (b ** 2);
        endmodule
    """)
    kinds = kinds_in(root)
    for kind in (NodeKind.TernaryOp, NodeKind.Concat, NodeKind.Replicate,
                 NodeKind.BitSelect, NodeKind.PartSelect, NodeKind.UnaryOp,
                 NodeKind.BinaryOp):
        assert kind in kinds


def test_precedence():
    root = parse_text("module m(input a, b, c, output y); assign y = a | b & c; endmodule")
    assign = next(n for n in root.walk() if n.kind is NodeKind.ContAssign)
    rhs = assign.children[1]
    assert rhs.label == "|"
    assert rhs.children[1].label == "&"


def test_blocking_vs_nonblocking():
    root = parse_text("""
        module m(input clk, a, output reg x, y);
        always @(posedge clk) begin
          x = a;
          y <= a;
        end
        endmodule
    """)
    kinds = kinds_in(root)
    assert NodeKind.BlockingAssign in kinds
    assert NodeKind.NonblockingAssign in kinds


def test_wire_initializer_desugars_to_assign():
    root = parse_text("module m(input a, b); wire w = a & b; endmodule")
    kinds = [c.kind for c in root.children]
    assert NodeKind.NetDecl in kinds
    assert NodeKind.ContAssign in kinds


def test_grammar_coverage_all_kinds_reachable():
    sources = [
        AUDIO_ENCODER_DUT,
        """
        module top #(parameter W = 8, localparam D = 4) (input [W-1:0] a, b, input sel, clk,
                                  output [W-1:0] y, output reg q);
        wire [W-1:0] w;
        sub u1 (.i(a), .o(w));
        assign y = sel ? {a[3], b[W-1:1], {2{a[0]}}} : ~w;
        always @(posedge clk) begin
          case (sel)
            1'b0: q <= a[0];
            default: q = b[0];
          endcase
          if (sel) q <= 1'b1;
        end
        endmodule
        """,
    ]
    seen = set()
    for source in sources:
        seen |= kinds_in(parse_text(source))
    assert seen == set(NodeKind)


def test_empty_token_list():
    with pytest.raises(ParseError):
        parse_module([])


def test_split_sized_literal_joins():
    root = parse_text("module m(output [3:0] y); assign y = 4 'b0101; endmodule")
    lit = next(n for n in root.walk()
               if n.kind is NodeKind.NumberLit and "'" in n.label)
    assert lit.label == "4'b0101"


def test_tokens_and_nodes_are_immutable_records():
    tok = Token(TokenKind.Identifier, "a", 1)
    node = AstNode(NodeKind.BitSelect, children=(AstNode(NodeKind.IdentRef, "a"),))
    assert repr(tok) == "Token(kind=<TokenKind.Identifier: 'identifier'>, text='a', line=1)"
    assert repr(node) == (
        "AstNode(kind=<NodeKind.BitSelect: 'bit_select'>, label='', children="
        "(AstNode(kind=<NodeKind.IdentRef: 'ident_ref'>, label='a', children=(), "
        "qualifier=''),), qualifier='')")
    assert tok == Token(TokenKind.Identifier, "a", 1)
    assert hash(tok) == hash(Token(TokenKind.Identifier, "a", 1))
    assert tok != Token(TokenKind.Identifier, "a", 2)
    assert node == AstNode(NodeKind.BitSelect, "", (AstNode(NodeKind.IdentRef, "a"),), "")
    assert node != node._replace(qualifier="x")
    assert len({node, AstNode(NodeKind.BitSelect, children=node.children)}) == 1
    with pytest.raises(AttributeError):
        tok.line = 2
    with pytest.raises(AttributeError):
        node.label = "b"


# ---- expressions ----

def rhs_of(expr_text):
    root = parse_text(f"module m; assign y = {expr_text}; endmodule")
    return root.children[0].children[1]


def ident(name):
    return AstNode(NodeKind.IdentRef, name)


def binop(op, lhs, rhs):
    return AstNode(NodeKind.BinaryOp, op, (lhs, rhs))


def unop(op, operand):
    return AstNode(NodeKind.UnaryOp, op, (operand,))


a, b, c, d, e = (ident(name) for name in "abcde")


@pytest.mark.parametrize("text,tree", [
    ("a - b - c", binop("-", binop("-", a, b), c)),
    ("a ** b ** c", binop("**", binop("**", a, b), c)),
    ("a ? b : c ? d : e",
     AstNode(NodeKind.TernaryOp, "?:",
             (a, b, AstNode(NodeKind.TernaryOp, "?:", (c, d, e))))),
    ("-a ** b", binop("**", unop("-", a), b)),
    ("&a | ~^b", binop("|", unop("&", a), unop("~^", b))),
    ("a + 4 'b0101 * b",
     binop("+", a, binop("*", AstNode(NodeKind.NumberLit, "4'b0101"), b))),
])
def test_expression_grouping(text, tree):
    assert rhs_of(text) == tree


# IEEE 1364-2005 Table 5-4: binary operators from the loosest binding to the
# tightest. All of them group to the left; unary operators bind tighter
# still, and ?: looser, grouping to the right.
BINARY_LEVELS = [
    ["||"], ["&&"], ["|"], ["^", "~^", "^~"], ["&"], ["==", "!=", "===", "!=="],
    ["<", "<=", ">", ">="], ["<<", ">>", "<<<", ">>>"], ["+", "-"],
    ["*", "/", "%"], ["**"],
]
LEVEL_OF = {op: 1 + i for i, ops in enumerate(BINARY_LEVELS) for op in ops}
UNARY_LEVEL = len(BINARY_LEVELS) + 1
UNARY_OPS = ["+", "-", "!", "~", "&", "~&", "|", "~|", "^", "~^", "^~"]


def level(node):
    if node.kind is NodeKind.TernaryOp:
        return 0
    if node.kind is NodeKind.BinaryOp:
        return LEVEL_OF[node.label]
    if node.kind is NodeKind.UnaryOp:
        return UNARY_LEVEL
    return UNARY_LEVEL + 1


def render(node, full):
    """Verilog text for an expression tree, with only the parentheses its
    grouping needs or, if full, around every operand a parser could
    otherwise regroup. Tokens are space-separated so that no two operators
    lex as one."""
    def sub(child, min_level=0):
        text = render(child, full)
        return f"( {text} )" if full or level(child) < min_level else text

    kind, ch = node.kind, node.children
    if kind in (NodeKind.IdentRef, NodeKind.NumberLit):
        return node.label
    if kind is NodeKind.UnaryOp:
        return f"{node.label} {sub(ch[0], UNARY_LEVEL)}"
    if kind is NodeKind.BinaryOp:
        return f"{sub(ch[0], level(node))} {node.label} {sub(ch[1], level(node) + 1)}"
    if kind is NodeKind.TernaryOp:
        return f"{sub(ch[0], 1)} ? {sub(ch[1])} : {sub(ch[2])}"
    # A select's base is an identifier or a select, never parenthesised.
    if kind is NodeKind.BitSelect:
        return f"{render(ch[0], full)} [ {sub(ch[1])} ]"
    if kind is NodeKind.PartSelect:
        return f"{render(ch[0], full)} [ {sub(ch[1])} {node.qualifier} {sub(ch[2])} ]"
    if kind is NodeKind.Concat:
        return "{ " + " , ".join(sub(part) for part in ch) + " }"
    assert kind is NodeKind.Replicate
    return "{ " + sub(ch[0]) + " " + render(ch[1], full) + " }"


_leaves = st.one_of(
    st.sampled_from("abcde").map(ident),
    st.sampled_from(["0", "7", "4'b0101", "8'hff"]).map(
        lambda text: AstNode(NodeKind.NumberLit, text)),
)


def _compound(operands):
    bases = st.one_of(
        st.sampled_from("abcde").map(ident),
        st.tuples(st.sampled_from("abcde"), operands).map(
            lambda t: AstNode(NodeKind.BitSelect, children=(ident(t[0]), t[1]))),
    )
    concats = st.lists(operands, min_size=1, max_size=3).map(
        lambda parts: AstNode(NodeKind.Concat, children=tuple(parts)))
    # A tier first, then one of its operators, so that every pair of tiers
    # meets often; and half of the inner nodes binary.
    binaries = st.tuples(st.sampled_from(BINARY_LEVELS).flatmap(st.sampled_from),
                         operands, operands).map(lambda t: binop(*t))
    return binaries | st.one_of(
        st.tuples(st.sampled_from(UNARY_OPS), operands).map(lambda t: unop(*t)),
        st.tuples(operands, operands, operands).map(
            lambda t: AstNode(NodeKind.TernaryOp, "?:", t)),
        st.tuples(bases, operands).map(
            lambda t: AstNode(NodeKind.BitSelect, children=t)),
        st.tuples(bases, operands, operands, st.sampled_from([":", "+:", "-:"])).map(
            lambda t: AstNode(NodeKind.PartSelect, children=t[:3], qualifier=t[3])),
        concats,
        st.tuples(operands, concats).map(
            lambda t: AstNode(NodeKind.Replicate, children=t)),
    )


expression_trees = st.recursive(_leaves, _compound, max_leaves=16)


def test_every_pair_of_binary_operators_groups_by_level():
    ops = sorted(LEVEL_OF)
    for outer in ops:
        for inner in ops:
            for tree in (binop(outer, a, binop(inner, b, c)),
                         binop(outer, binop(inner, a, b), c)):
                text = render(tree, full=False)
                assert rhs_of(text) == tree, text


@settings(max_examples=300)
@given(expression_trees)
def test_expression_trees_round_trip(tree):
    assert rhs_of(render(tree, full=False)) == tree
    assert rhs_of(render(tree, full=True)) == tree


# ---- errors at the end of input and past the nesting limit ----

@pytest.mark.parametrize("tail,message", [
    ("assign y = a &", "L2: unexpected '<eof>' in expression"),
    ("assign y = (a", "L2: expected ')', got '<eof>'"),
])
def test_error_at_end_of_input_names_the_last_line(tail, message):
    with pytest.raises(ParseError) as exc:
        parse_text(f"module m(input a, output y);\n{tail}")
    assert str(exc.value) == message
    assert exc.value.line == 2


def test_nesting_past_the_limit_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_text("module m(input a, output y);\nassign y =\n"
                     + "(" * 300 + "a" + ")" * 300 + ";\nendmodule")
    assert str(exc.value) == "L3: nested too deeply"
    assert not isinstance(exc.value, ParseUnsupported)


def test_nesting_within_the_limit_parses():
    assert rhs_of("(" * 50 + "a" + ")" * 50) == a


# ---- list grammar: override, connection, port and header parameter lists ----

def _instance(*children):
    return AstNode(NodeKind.Module, label="m", children=(
        AstNode(NodeKind.Instance, label="sub", children=children, qualifier="u"),))


def _override(name, *value):
    return AstNode(NodeKind.ParamDecl, label=name, children=value, qualifier="override")


def _conn(name, *expr):
    return AstNode(NodeKind.PortConn, label=name, children=expr)


def _port(name, direction=""):
    return AstNode(NodeKind.PortDecl, label=name, qualifier=direction)


_x = AstNode(NodeKind.IdentRef, label="x")
_four = AstNode(NodeKind.NumberLit, label="4")

LIST_TREES = {
    "module m;\nsub #() u (x);\nendmodule": _instance(_conn("", _x)),
    "module m;\nsub #(4, ) u (x);\nendmodule": _instance(_override("", _four),
                                                          _conn("", _x)),
    "module m;\nsub #(.W(4) .D()) u (x);\nendmodule": _instance(
        _override("W", _four), _override("D"), _conn("", _x)),
    "module m;\nsub u ();\nendmodule": _instance(),
    "module m;\nsub u (.a(x), .b());\nendmodule": _instance(_conn("a", _x), _conn("b")),
    "module m(input a, b, output c);\nendmodule": AstNode(
        NodeKind.Module, label="m",
        children=(_port("a", "input"), _port("b", "input"), _port("c", "output"))),
    "module m #(parameter W) ();\nendmodule": AstNode(
        NodeKind.Module, label="m",
        children=(AstNode(NodeKind.ParamDecl, label="W", qualifier="parameter"),)),
    "module m #(parameter W = 4,\n  ) (a);\nendmodule": AstNode(
        NodeKind.Module, label="m",
        children=(AstNode(NodeKind.ParamDecl, label="W", children=(_four,),
                          qualifier="parameter"), _port("a"))),
}


@pytest.mark.parametrize("source", LIST_TREES)
def test_list_grammar_trees(source):
    assert parse_text(source) == LIST_TREES[source]


@pytest.mark.parametrize("source,message", [
    # Connection lists take no trailing comma and need one between items.
    ("module m;\nsub u (a, );\nendmodule", "L2: unexpected ')' in expression"),
    ("module m;\nsub u (a b);\nendmodule", "L2: expected ')', got 'b'"),
    # A non-ANSI port list takes no direction after its first port.
    ("module m(a,\n  input b);\nendmodule", "L2: expected identifier, got 'input'"),
    ("module m(input a,\n  );\nendmodule", "L2: expected identifier, got ')'"),
])
def test_list_grammar_errors(source, message):
    with pytest.raises(ParseError) as exc:
        parse_text(source)
    assert type(exc.value) is ParseError
    assert str(exc.value) == message
    assert exc.value.line == 2


# ---- bracketed runs: parameter ranges and event controls ----

def _param(name, value, flavor="parameter"):
    return AstNode(NodeKind.ParamDecl, label=name,
                   children=(AstNode(NodeKind.NumberLit, label=value),), qualifier=flavor)


# A parameter's range is skipped, not parsed, so what it holds only has to
# balance its brackets.
RANGED_PARAMS = {
    "module m #(parameter [7:0] W = 8) ();\nendmodule": (_param("W", "8"),),
    "module m;\nlocalparam signed [W-1:0] X = 1;\nendmodule": (
        _param("X", "1", "localparam"),),
    "module m;\nparameter [A[0]:0] P = 2, Q = 3;\nendmodule": (
        _param("P", "2"), _param("Q", "3")),
    "module m #(parameter [A[0]:0] W = 8) ();\nendmodule": (_param("W", "8"),),
    "module m #(parameter N = 4, localparam [$clog2(N)-1:0] M = 0) ();\nendmodule": (
        _param("N", "4"), _param("M", "0")),
    "module m;\nlocalparam [$clog2(N)-1:0] M = 0;\nendmodule": (
        _param("M", "0", "localparam"),),
}


@pytest.mark.parametrize("source", RANGED_PARAMS)
def test_ranged_parameter_declarations(source):
    assert parse_text(source) == AstNode(NodeKind.Module, label="m",
                                         children=RANGED_PARAMS[source])


def _sensitivity(source):
    [always] = parse_text(f"module m;\n{source} q <= d;\nendmodule").children
    return always.qualifier


@pytest.mark.parametrize("control,qualifier", [
    ("@(posedge clk or negedge rst)", "posedge clk or negedge rst"),
    ("@((a or b))", "( a or b )"),
    ("@((a) or (b[0]))", "( a ) or ( b [ 0 ] )"),
    ("@*", "*"),
])
def test_event_control_qualifier(control, qualifier):
    assert _sensitivity(f"always {control}") == qualifier


@pytest.mark.parametrize("source,message", [
    ("module m #(\n  parameter [7:0", "L2: unterminated range"),
    ("module m #(parameter [A[0]:0\n  ", "L1: unterminated range"),
    ("module m;\nparameter [7:0", "L2: unterminated range"),
    ("module m;\nlocalparam [A[0]\n  :0", "L3: unterminated range"),
    ("module m;\nalways @(a", "L2: unterminated event control"),
    ("module m;\nalways @((a or b)\n  q", "L3: unterminated event control"),
])
def test_unterminated_bracketed_run_names_the_last_line(source, message):
    with pytest.raises(ParseError) as exc:
        parse_text(source)
    assert type(exc.value) is ParseError
    assert str(exc.value) == message

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbforge.frontend import AstNode, NodeKind, extract_dfg, parse_source

from fixture_data import AUDIO_ENCODER_DUT


def dfg_of(source):
    return extract_dfg(parse_source(source))


def test_simple_assign():
    dfg = dfg_of("module m(input a, b, output y); assign y = a & b; endmodule")
    assert dfg.edges == {("a", "y"), ("b", "y")}


def test_clock_excluded_condition_included():
    dfg = dfg_of("""
        module m(input clk, en, d, output reg q);
        always @(posedge clk) if (en) q <= d;
        endmodule
    """)
    assert dfg.edges == {("en", "q"), ("d", "q")}


def test_self_edge_feedback_register():
    dfg = dfg_of("""
        module m(input clk, output reg [3:0] n);
        always @(posedge clk) n <= n + 1;
        endmodule
    """)
    assert dfg.edges == {("n", "n")}


def test_audio_encoder_edge_set():
    # Manual dataflow trace of the fixture module.
    dfg = dfg_of(AUDIO_ENCODER_DUT)
    expected = set()
    # assign i_ready = ~is_valid_shift; assign is_underrun = reg_underrun;
    expected.add(("is_valid_shift", "i_ready"))
    expected.add(("reg_underrun", "is_underrun"))
    # reset branch: targets depend only on the reset condition.
    for t in ("shift", "shift_count", "is_valid_shift", "reg_underrun"):
        expected.add(("reset", t))
    # then-branch of is_valid_shift (conditions: reset, is_valid_shift)
    expected.add(("shift_count", "shift_count"))
    expected.add(("is_valid_shift", "shift_count"))
    expected.add(("shift_count", "is_valid_shift"))
    expected.add(("is_valid_shift", "is_valid_shift"))
    expected.add(("shift", "shift"))
    expected.add(("is_valid_shift", "shift"))
    # else-branch targets (conditions only)
    for t in ("reg_lrclk", "is_next_left", "is_valid_shift", "reg_sdata", "reg_underrun"):
        expected.add(("reset", t))
        expected.add(("is_valid_shift", t))
    # then-branch targets also gated by reset
    for t in ("shift_count", "is_valid_shift", "shift"):
        expected.add(("reset", t))
    assert dfg.edges == expected


def test_case_subject_and_labels_are_conditions():
    dfg = dfg_of("""
        module m(input [1:0] sel, input a, b, k, output reg y);
        always @(*) begin
          case (sel)
            2'b00: y = a;
            k: y = b;
          endcase
        end
        endmodule
    """)
    assert ("sel", "y") in dfg.edges
    assert ("k", "y") in dfg.edges
    assert ("a", "y") in dfg.edges


def test_undeclared_names_filtered():
    dfg = dfg_of("""
        module m #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
        assign y = a + W;
        endmodule
    """)
    assert dfg.edges == {("a", "y")}


def test_instance_edges_input_to_output():
    dfg = dfg_of("""
        module top(input a, b, output y);
        wire w;
        sub u1 (.i1(a), .i2(b), .o(w));
        assign y = w;
        endmodule
    """)
    assert ("a", "w") in dfg.edges
    assert ("b", "w") in dfg.edges
    assert ("w", "y") in dfg.edges


def test_instance_driven_wire_is_input():
    dfg = dfg_of("""
        module top(input a, output y);
        wire w;
        assign w = ~a;
        sub u1 (.i(w), .o(y));
        endmodule
    """)
    # w is assigned in the module, so it cannot be an instance output.
    assert ("w", "y") in dfg.edges
    assert ("a", "w") in dfg.edges


def test_several_instances_edge_set():
    dfg = dfg_of("""
        module top(input [3:0] a, input b, output [3:0] y, output z);
        wire [3:0] w;
        logic [1:0] l;
        reg r;
        wire d;
        assign d = b;
        adder u1 (.x(a), .cin(r), .s(w[1:0]), .c(), .ovf(l));
        inv u2 (w[3], d, z);
        mux u3 (.sel(r), .in(ghost), .en(a[0] & b), .out(y[2]));
        endmodule
    """)
    # Outputs are the bare or selected output ports and wire/logic nets no
    # assignment drives (w, l, z, y); the reg r, the assigned wire d and
    # every other expression are inputs; the undeclared ghost is dropped.
    assert dfg.edges == {
        ("b", "d"),
        ("a", "w"), ("r", "w"), ("a", "l"), ("r", "l"),
        ("d", "w"), ("d", "z"),
        ("r", "y"), ("a", "y"), ("b", "y"),
    }


def test_concat_target_fans_out():
    dfg = dfg_of("""
        module m(input [1:0] d, input clk, output reg h, l);
        always @(posedge clk) {h, l} <= d;
        endmodule
    """)
    assert dfg.edges == {("d", "h"), ("d", "l")}


WHITESPACE_VARIANTS = [
    "module m(input a,b,output y);assign y=a&b;endmodule",
    "module m(input a, b, output y);\n  assign y = a & b;\nendmodule",
    "module m(input a, b, output y); /* c */ assign y = a & b; // x\nendmodule",
]


@pytest.mark.parametrize("source", WHITESPACE_VARIANTS)
def test_whitespace_and_comment_invariance(source):
    base = dfg_of(WHITESPACE_VARIANTS[0])
    assert dfg_of(source).edges == base.edges


def test_statement_reordering_invariance():
    a = dfg_of("""
        module m(input x, z, output p, q);
        assign p = x;
        assign q = z;
        endmodule
    """)
    b = dfg_of("""
        module m(input x, z, output p, q);
        assign q = z;
        assign p = x;
        endmodule
    """)
    assert a.edges == b.edges


_names = st.sampled_from(["a", "b", "c", "d"])


@given(st.lists(st.tuples(_names, _names), min_size=0, max_size=6))
def test_set_semantics_no_duplicates(pairs):
    body = "\n".join(f"assign {t} = {s};" for s, t in pairs)
    # Redeclaring targets repeatedly is fine for extraction purposes.
    source = f"module m(input a, b, c, d, output e); wire t;\n{body}\nendmodule"
    try:
        dfg = dfg_of(source)
    except Exception:
        return
    assert len(dfg.edges) == len(set(dfg.edges))


def test_nesting_deeper_than_the_recursion_limit():
    # if (c) if (c) ... {{...{y}...}} = a; built by hand, since the parser
    # stops far sooner.
    def ident(name):
        return AstNode(NodeKind.IdentRef, name)

    lhs = ident("y")
    for _ in range(5000):
        lhs = AstNode(NodeKind.Concat, children=(lhs,))
    stmt = AstNode(NodeKind.BlockingAssign, children=(lhs, ident("a")))
    for _ in range(5000):
        stmt = AstNode(NodeKind.IfStmt, children=(ident("c"), stmt))
    ports = [AstNode(NodeKind.PortDecl, name) for name in "acy"]
    always = AstNode(NodeKind.AlwaysBlock, children=(stmt,), qualifier="*")
    dfg = extract_dfg(AstNode(NodeKind.Module, "m", (*ports, always)))
    assert dfg.edges == {("a", "y"), ("c", "y")}

"""Recursive-descent parser for a synthesizable Verilog subset.

Supported constructs:
  - one module per source text, ANSI or simple non-ANSI port lists
  - parameter / localparam declarations (header and body)
  - wire / reg declarations with ranges, multiple declarators,
    wire initializers (desugared to a continuous assignment)
  - continuous assign, always blocks with event controls
  - begin/end blocks (optionally labeled), if/else, case/casex/casez
  - blocking and nonblocking assignments
  - module instantiation with named or positional connections and
    parameter overrides
  - expressions: unary/binary/ternary operators, concatenation,
    replication, bit select, part select (: +: -:), sized and
    unsized literals

Binary operators are parsed by precedence climbing over the tiers of
IEEE 1364-2005 Table 5-4: one call per operand, not one per tier. All of
them associate left to right, ``**`` included; only ``?:`` associates right
to left (§5.1.2). Unary operators bind tighter than any binary one, so
``-a ** b`` is ``(-a) ** b``.

Anything outside the subset (generate, functions, tasks, initial blocks,
system tasks, delays, loops, compiler directives, ...) raises
ParseUnsupported with the offending line. Testbenches are never parsed
here; they go straight to the external simulator.

Errors carry the line of the token where parsing stopped; at the end of
input, the line of the last token. Nesting that exhausts Python's
recursion limit (about 240 levels of parentheses at the default limit)
raises ParseError "nested too deeply", never RecursionError.
"""

from __future__ import annotations

from functools import partial

from tbforge.errors import ParseError, ParseUnsupported
from tbforge.frontend.ast_nodes import AstNode, NodeKind
from tbforge.frontend.tokens import Token, TokenKind, lex

_UNSUPPORTED_KEYWORDS = {
    "generate": "generate block",
    "endgenerate": "generate block",
    "genvar": "genvar declaration",
    "function": "function declaration",
    "endfunction": "function declaration",
    "task": "task declaration",
    "endtask": "task declaration",
    "initial": "initial block",
    "integer": "integer declaration",
    "real": "real declaration",
    "time": "time declaration",
    "for": "for loop",
    "while": "while loop",
    "repeat": "repeat loop",
    "forever": "forever loop",
    "defparam": "defparam",
    "specify": "specify block",
    "wait": "wait statement",
    "force": "force statement",
    "release": "release statement",
    "deassign": "deassign statement",
    "disable": "disable statement",
}

_UNARY_OPS = {"+", "-", "!", "~", "&", "~&", "|", "~|", "^", "~^", "^~"}

# Binary operators by ascending precedence tier.
_BINARY_TIERS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^", "~^", "^~"],
    ["&"],
    ["==", "!=", "===", "!=="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", "<<<", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
    ["**"],
]

# Binary operator -> its tier in _BINARY_TIERS.
_BINARY_TIER = {op: tier for tier, ops in enumerate(_BINARY_TIERS) for op in ops}

# AstNode((kind, label, children, qualifier)) without the Python-level
# AstNode.__new__, for the node kinds built once per operand or operator.
_node = partial(tuple.__new__, AstNode)


class _Parser:
    __slots__ = ("tokens", "pos", "eof")

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # What the cursor reads past the last token; on that token's line,
        # so an error at the end of input names the line where it ends.
        self.eof = Token(TokenKind.Punctuation, "<eof>", tokens[-1].line)

    # -- token navigation --

    def cur(self) -> Token:
        try:
            return self.tokens[self.pos]
        except IndexError:
            return self.eof

    def at(self, text: str) -> bool:
        return self.cur().text == text

    def accept(self, text: str) -> bool:
        """Take the current token if its text is ``text``."""
        if self.cur().text != text:
            return False
        self.pos += 1
        return True

    def take(self) -> Token:
        tok = self.cur()
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.cur()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.line)
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.cur()
        if tok.kind is not TokenKind.Identifier:
            raise ParseError(f"expected identifier, got {tok.text!r}", tok.line)
        if tok.text.startswith(("$", "`")):
            raise ParseUnsupported(f"system or macro identifier {tok.text!r}", tok.line)
        return self.take()

    def reject_unsupported(self) -> None:
        tok = self.cur()
        if tok.kind is TokenKind.Keyword and tok.text in _UNSUPPORTED_KEYWORDS:
            raise ParseUnsupported(_UNSUPPORTED_KEYWORDS[tok.text], tok.line)
        if tok.text.startswith("`"):
            raise ParseUnsupported(f"compiler directive {tok.text!r}", tok.line)

    # -- module --

    def parse_module(self) -> AstNode:
        if self.cur().text.startswith("`"):
            raise ParseUnsupported(f"compiler directive {self.cur().text!r}", self.cur().line)
        self.expect("module")
        name = self.expect_ident().text
        children: list[AstNode] = []

        if self.accept("#"):
            self.expect("(")
            children.extend(self._header_params())
            self.expect(")")

        if self.accept("("):
            children.extend(self._port_list())
            self.expect(")")

        self.expect(";")

        while not self.at("endmodule"):
            if self.cur() is self.eof:
                raise ParseError("missing endmodule", self.eof.line)
            children.extend(self._module_item())
        self.expect("endmodule")
        if self.cur() is not self.eof:
            raise ParseError(f"trailing input after endmodule: {self.cur().text!r}", self.cur().line)
        return AstNode(NodeKind.Module, label=name, children=tuple(children))

    def _header_params(self) -> list[AstNode]:
        params: list[AstNode] = []
        while not self.at(")"):
            if not self.accept("parameter"):
                self.accept("localparam")
            self.accept("signed")
            if self.at("["):
                self._skip_range()
            name = self.expect_ident().text
            default = (self._expr(),) if self.accept("=") else ()
            params.append(AstNode(NodeKind.ParamDecl, label=name, children=default,
                                  qualifier="parameter"))
            self.accept(",")
        return params

    def _skip_range(self) -> None:
        self.expect("[")
        depth = 1
        while depth:
            tok = self.take()
            if tok is self.eof:
                raise ParseError("unterminated range", self.eof.line)
            if tok.text == "[":
                depth += 1
            elif tok.text == "]":
                depth -= 1

    def _port_list(self) -> list[AstNode]:
        ports: list[AstNode] = []
        if self.at(")"):
            return ports
        direction = ""
        rng: tuple[AstNode, ...] = ()
        while True:
            # A port without a direction carries over the previous port's;
            # a list whose first port has none (non-ANSI) takes none later.
            if self.cur().text in ("input", "output", "inout") and (direction or not ports):
                direction, rng = self._port_header()
            name = self.expect_ident().text
            ports.append(AstNode(NodeKind.PortDecl, label=name, children=rng,
                                 qualifier=direction))
            if not self.accept(","):
                return ports

    def _port_header(self) -> tuple[str, tuple[AstNode, ...]]:
        """A direction, an optional net type and ``signed``, and a range."""
        direction = self.take().text
        if self.cur().text in ("wire", "reg", "logic"):
            self.take()
        self.accept("signed")
        return direction, self._opt_range()

    def _opt_range(self) -> tuple[AstNode, ...]:
        if not self.accept("["):
            return ()
        msb = self._expr()
        self.expect(":")
        lsb = self._expr()
        self.expect("]")
        return (msb, lsb)

    # -- module body --

    def _module_item(self) -> list[AstNode]:
        self.reject_unsupported()
        tok = self.cur()

        if tok.text in ("parameter", "localparam"):
            return self._param_decls()
        if tok.text in ("input", "output", "inout"):
            return self._port_decls()
        if tok.text in ("wire", "reg", "logic"):
            return self._net_decls()
        if tok.text == "assign":
            return self._cont_assigns()
        if tok.text == "always":
            return [self._always_block()]
        if tok.text in ("and", "or", "not"):
            raise ParseUnsupported(f"gate primitive {tok.text!r}", tok.line)
        if tok.kind is TokenKind.Identifier:
            if tok.text.startswith("$"):
                raise ParseUnsupported(f"system task {tok.text!r}", tok.line)
            return [self._instance()]
        raise ParseError(f"unexpected {tok.text!r} in module body", tok.line)

    def _param_decls(self) -> list[AstNode]:
        flavor = self.take().text
        self.accept("signed")
        if self.at("["):
            self._skip_range()
        decls = []
        while True:
            name = self.expect_ident().text
            self.expect("=")
            value = self._expr()
            decls.append(AstNode(NodeKind.ParamDecl, label=name, children=(value,),
                                 qualifier=flavor))
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def _port_decls(self) -> list[AstNode]:
        direction, rng = self._port_header()
        decls = []
        while True:
            name = self.expect_ident().text
            decls.append(AstNode(NodeKind.PortDecl, label=name, children=rng,
                                 qualifier=direction))
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def _net_decls(self) -> list[AstNode]:
        net_type = self.take().text
        self.accept("signed")
        rng = self._opt_range()
        decls: list[AstNode] = []
        while True:
            name_tok = self.expect_ident()
            decls.append(AstNode(NodeKind.NetDecl, label=name_tok.text, children=rng,
                                 qualifier=net_type))
            if self.accept("="):
                if net_type != "wire":
                    raise ParseUnsupported("reg initializer", name_tok.line)
                rhs = self._expr()
                lhs = AstNode(NodeKind.IdentRef, label=name_tok.text)
                decls.append(AstNode(NodeKind.ContAssign, children=(lhs, rhs)))
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def _cont_assigns(self) -> list[AstNode]:
        self.expect("assign")
        if self.at("#"):
            raise ParseUnsupported("assignment delay", self.cur().line)
        assigns = []
        while True:
            lhs = self._lvalue()
            self.expect("=")
            rhs = self._expr()
            assigns.append(AstNode(NodeKind.ContAssign, children=(lhs, rhs)))
            if not self.accept(","):
                break
        self.expect(";")
        return assigns

    def _always_block(self) -> AstNode:
        tok = self.expect("always")
        if not self.accept("@"):
            raise ParseUnsupported("always block without event control", tok.line)
        sensitivity = self._event_control()
        body = self._statement()
        if body is None:
            body = AstNode(NodeKind.SeqBlock)
        return AstNode(NodeKind.AlwaysBlock, children=(body,), qualifier=sensitivity)

    def _event_control(self) -> str:
        if self.accept("*"):
            return "*"
        self.expect("(")
        parts: list[str] = []
        while not self.at(")"):
            tok = self.take()
            if tok is self.eof:
                raise ParseError("unterminated event control", self.eof.line)
            parts.append(tok.text)
        self.expect(")")
        return " ".join(parts)

    # -- statements --

    def _statement(self) -> AstNode | None:
        self.reject_unsupported()
        tok = self.cur()

        if tok.text == ";":
            self.take()
            return None
        if tok.text == "begin":
            return self._seq_block()
        if tok.text == "if":
            return self._if_stmt()
        if tok.text in ("case", "casex", "casez"):
            return self._case_stmt()
        if tok.text in ("#", "@"):
            raise ParseUnsupported("timing control in statement", tok.line)
        if tok.kind is TokenKind.Identifier and tok.text.startswith("$"):
            raise ParseUnsupported(f"system task {tok.text!r}", tok.line)
        if tok.kind is TokenKind.Identifier or tok.text == "{":
            return self._assignment()
        raise ParseError(f"unexpected {tok.text!r} in statement", tok.line)

    def _seq_block(self) -> AstNode:
        self.expect("begin")
        label = ""
        if self.accept(":"):
            label = self.expect_ident().text
        stmts = []
        while not self.at("end"):
            if self.cur() is self.eof:
                raise ParseError("unterminated begin/end block", self.eof.line)
            stmt = self._statement()
            if stmt is not None:
                stmts.append(stmt)
        self.expect("end")
        return AstNode(NodeKind.SeqBlock, label=label, children=tuple(stmts))

    def _if_stmt(self) -> AstNode:
        self.expect("if")
        self.expect("(")
        cond = self._expr()
        self.expect(")")
        then = self._statement() or AstNode(NodeKind.SeqBlock)
        children = [cond, then]
        if self.accept("else"):
            otherwise = self._statement() or AstNode(NodeKind.SeqBlock)
            children.append(otherwise)
        return AstNode(NodeKind.IfStmt, children=tuple(children))

    def _case_stmt(self) -> AstNode:
        flavor = self.take().text
        self.expect("(")
        subject = self._expr()
        self.expect(")")
        items = []
        while not self.at("endcase"):
            if self.cur() is self.eof:
                raise ParseError("unterminated case statement", self.eof.line)
            items.append(self._case_item())
        self.expect("endcase")
        return AstNode(NodeKind.CaseStmt, children=(subject, *items), qualifier=flavor)

    def _case_item(self) -> AstNode:
        if self.accept("default"):
            self.accept(":")
            body = self._statement() or AstNode(NodeKind.SeqBlock)
            return AstNode(NodeKind.CaseItem, label="default", children=(body,))
        labels = [self._expr()]
        while self.accept(","):
            labels.append(self._expr())
        self.expect(":")
        body = self._statement() or AstNode(NodeKind.SeqBlock)
        return AstNode(NodeKind.CaseItem, children=(*labels, body))

    def _assignment(self) -> AstNode:
        lhs = self._lvalue()
        tok = self.cur()
        if tok.text == "=":
            kind = NodeKind.BlockingAssign
        elif tok.text == "<=":
            kind = NodeKind.NonblockingAssign
        else:
            raise ParseError(f"expected assignment operator, got {tok.text!r}", tok.line)
        self.take()
        if self.at("#") or self.at("@"):
            raise ParseUnsupported("intra-assignment timing control", self.cur().line)
        rhs = self._expr()
        self.expect(";")
        return AstNode(kind, children=(lhs, rhs))

    def _lvalue(self) -> AstNode:
        if self.accept("{"):
            parts = [self._lvalue()]
            while self.accept(","):
                parts.append(self._lvalue())
            self.expect("}")
            return AstNode(NodeKind.Concat, children=tuple(parts))
        name = self.expect_ident()
        node = AstNode(NodeKind.IdentRef, label=name.text)
        return self._select_suffix(node)

    # -- instances --

    def _instance(self) -> AstNode:
        module_name = self.expect_ident().text
        params: list[AstNode] = []
        if self.accept("#"):
            self.expect("(")
            params = self._override_list()
            self.expect(")")
        inst_name = self.expect_ident().text
        if self.at("["):
            raise ParseUnsupported("instance array", self.cur().line)
        self.expect("(")
        conns = self._connection_list()
        self.expect(")")
        self.expect(";")
        return AstNode(NodeKind.Instance, label=module_name,
                       children=tuple(params + conns), qualifier=inst_name)

    def _override_list(self) -> list[AstNode]:
        overrides = []
        while not self.at(")"):
            overrides.append(self._binding(NodeKind.ParamDecl, "override"))
            self.accept(",")
        return overrides

    def _connection_list(self) -> list[AstNode]:
        conns: list[AstNode] = []
        if self.at(")"):
            return conns
        while True:
            conns.append(self._binding(NodeKind.PortConn, ""))
            if not self.accept(","):
                return conns

    def _binding(self, kind: NodeKind, qualifier: str) -> AstNode:
        """A named ``.name(expr)``, whose expression may be empty, or a
        positional ``expr``."""
        if not self.accept("."):
            return AstNode(kind, children=(self._expr(),), qualifier=qualifier)
        name = self.expect_ident().text
        self.expect("(")
        value = () if self.at(")") else (self._expr(),)
        self.expect(")")
        return AstNode(kind, label=name, children=value, qualifier=qualifier)

    # -- expressions --

    def _expr(self) -> AstNode:
        cond = self._binary(0)
        if not self.at("?"):
            return cond
        self.pos += 1
        then = self._expr()
        self.expect(":")
        return AstNode(NodeKind.TernaryOp, "?:", (cond, then, self._expr()))

    def _binary(self, min_tier: int) -> AstNode:
        """Precedence climbing: an operand, then every operator of tier
        min_tier or above with its right operand, which takes only
        operators of a higher tier, so equal tiers group to the left."""
        node = self._unary()
        tokens = self.tokens
        while True:
            try:
                op = tokens[self.pos].text
            except IndexError:
                return node
            tier = _BINARY_TIER.get(op)
            if tier is None or tier < min_tier:
                return node
            self.pos += 1
            node = _node((NodeKind.BinaryOp, op, (node, self._binary(tier + 1)), ""))

    def _unary(self) -> AstNode:
        tok = self.cur()
        if tok.text in _UNARY_OPS and tok.kind is TokenKind.Operator:
            self.pos += 1
            return _node((NodeKind.UnaryOp, tok.text, (self._unary(),), ""))
        return self._primary()

    def _primary(self) -> AstNode:
        tok = self.cur()
        kind = tok.kind

        if kind is TokenKind.Identifier:
            # Macro usages (`NAME) are opaque identifier references here, so
            # macro-parameterized widths degrade to symbolic instead of failing.
            if tok.text.startswith("$"):
                raise ParseUnsupported(f"system function {tok.text!r}", tok.line)
            self.pos += 1
            nxt = self.cur().text
            if nxt == "(":
                raise ParseUnsupported(f"function call {tok.text!r}", tok.line)
            node = _node((NodeKind.IdentRef, tok.text, (), ""))
            return self._select_suffix(node) if nxt == "[" else node

        if kind is TokenKind.Number:
            self.pos += 1
            # "4 'b0101": a sized literal split by whitespace re-joins here.
            nxt = self.cur()
            if (nxt.kind is TokenKind.Number and nxt.text.startswith("'")
                    and "'" not in tok.text):
                self.pos += 1
                return _node((NodeKind.NumberLit, tok.text + nxt.text, (), ""))
            return _node((NodeKind.NumberLit, tok.text, (), ""))

        if tok.text == "(":
            self.pos += 1
            node = self._expr()
            self.expect(")")
            return node

        if tok.text == "{":
            return self._concat_or_replicate()

        self.reject_unsupported()
        if kind is TokenKind.StringLiteral:
            raise ParseUnsupported("string literal in expression", tok.line)
        raise ParseError(f"unexpected {tok.text!r} in expression", tok.line)

    def _concat_or_replicate(self) -> AstNode:
        self.expect("{")
        first = self._expr()
        if self.at("{"):
            inner = self._concat_or_replicate()
            self.expect("}")
            return AstNode(NodeKind.Replicate, children=(first, inner))
        parts = [first]
        while self.accept(","):
            parts.append(self._expr())
        self.expect("}")
        return AstNode(NodeKind.Concat, children=tuple(parts))

    def _select_suffix(self, node: AstNode) -> AstNode:
        while self.accept("["):
            first = self._expr()
            if self.cur().text in (":", "+:", "-:"):
                sep = self.take().text
                second = self._expr()
                self.expect("]")
                node = AstNode(NodeKind.PartSelect, children=(node, first, second),
                               qualifier=sep)
            else:
                self.expect("]")
                node = AstNode(NodeKind.BitSelect, children=(node, first))
        return node


def parse_module(tokens: list[Token]) -> AstNode:
    """Parse a token stream holding exactly one module into a Module root."""
    if not tokens:
        raise ParseError("empty input", 1)
    parser = _Parser(tokens)
    try:
        return parser.parse_module()
    except RecursionError:
        raise ParseError("nested too deeply", parser.cur().line) from None


def parse_source(source: str) -> AstNode:
    return parse_module(lex(source))

"""Generic AST node for the Verilog subset.

A single immutable node type keeps structural similarity simple: similarity
signatures are built from ``kind`` and child kinds only, so declared names
and operator symbols (``label``) never leak into structure comparisons.
``qualifier`` carries secondary syntax that is not a child node: port
direction, net type, always-block sensitivity, case flavor, part-select
flavor, instance name.

Nodes are named tuples: immutable, hashable, equal when all four fields
are, and cheap to build, since one source makes hundreds of them.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class NodeKind(Enum):
    Module = "module"
    PortDecl = "port_decl"
    ParamDecl = "param_decl"
    NetDecl = "net_decl"
    ContAssign = "cont_assign"
    AlwaysBlock = "always_block"
    SeqBlock = "seq_block"
    IfStmt = "if_stmt"
    CaseStmt = "case_stmt"
    CaseItem = "case_item"
    BlockingAssign = "blocking_assign"
    NonblockingAssign = "nonblocking_assign"
    Instance = "instance"
    PortConn = "port_conn"
    BinaryOp = "binary_op"
    UnaryOp = "unary_op"
    TernaryOp = "ternary_op"
    Concat = "concat"
    Replicate = "replicate"
    BitSelect = "bit_select"
    PartSelect = "part_select"
    IdentRef = "ident_ref"
    NumberLit = "number_lit"


class AstNode(NamedTuple):
    kind: NodeKind
    label: str = ""
    children: tuple[AstNode, ...] = ()
    qualifier: str = ""

    def walk(self):
        """Yield this node and all descendants, depth-first, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


"""Verilog-subset frontend: lexer, parser and dataflow extraction."""

from tbforge.frontend.tokens import Token, TokenKind, lex
from tbforge.frontend.ast_nodes import AstNode, NodeKind
from tbforge.frontend.parser import parse_module
from tbforge.frontend.dfg import Dfg, extract_dfg

__all__ = [
    "Token",
    "TokenKind",
    "lex",
    "AstNode",
    "NodeKind",
    "parse_module",
    "Dfg",
    "extract_dfg",
]

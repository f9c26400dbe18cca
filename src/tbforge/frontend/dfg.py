"""Signal-level dataflow graph extraction.

The graph is a set of directed (source, target) signal-name edges:

  - every continuous/blocking/nonblocking assignment adds an edge from each
    signal in its right-hand side to each assigned base signal;
  - signals in enclosing if conditions, case subjects, and matched case-item
    labels add conditional-dependency edges to the same targets;
  - instance connections add edges from input-connection signals to
    output-connection signals, where an output connection is a bare
    (possibly selected) net or output port not driven by any assignment in
    the module; port directions of the instantiated module are not visible
    from a single-module parse, so this is a declared approximation.

Clock/reset signals in always event controls are deliberately not dataflow
sources: edge sensitivity is timing, not data. Only declared ports, nets,
and registers may appear as endpoints; parameter and macro references are
dropped. Edges have set semantics and self-edges are allowed (feedback
registers).
"""

from __future__ import annotations

from dataclasses import dataclass

from tbforge.errors import ParseError
from tbforge.frontend.ast_nodes import AstNode, NodeKind

_ASSIGN_KINDS = (NodeKind.ContAssign, NodeKind.BlockingAssign, NodeKind.NonblockingAssign)
# The declarations whose names may appear as endpoints, each with the
# qualifiers of the ones an instance may drive.
_DRIVABLE = {NodeKind.PortDecl: ("output",), NodeKind.NetDecl: ("wire", "logic")}


@dataclass(frozen=True)
class Dfg:
    edges: frozenset[tuple[str, str]]


def _ident_names(expr: AstNode) -> set[str]:
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.kind is NodeKind.IdentRef:
            names.add(node.label)
        stack.extend(node.children)
    return names


def _lvalue_bases(lhs: AstNode) -> set[str]:
    bases: set[str] = set()
    stack = [lhs]
    while stack:
        node = stack.pop()
        if node.kind is NodeKind.IdentRef:
            bases.add(node.label)
        elif node.kind in (NodeKind.BitSelect, NodeKind.PartSelect):
            stack.append(node.children[0])
        elif node.kind is NodeKind.Concat:
            stack.extend(node.children)
    return bases


def extract_dfg(ast: AstNode) -> Dfg:
    """Build the dataflow edge set for a Module root."""
    if ast.kind is not NodeKind.Module:
        raise ParseError("dataflow extraction needs a Module root", 1)

    declared: set[str] = set()
    drivable: set[str] = set()
    instances: list[AstNode] = []
    # (statement, signals of the conditions that enclose it); a work list,
    # not recursion, so no nesting depth is too deep.
    work: list[tuple[AstNode, frozenset[str]]] = []
    for child in ast.children:
        kind = child.kind
        drivable_qualifiers = _DRIVABLE.get(kind)
        if drivable_qualifiers is not None:
            declared.add(child.label)
            if child.qualifier in drivable_qualifiers:
                drivable.add(child.label)
        elif kind in (NodeKind.ContAssign, NodeKind.AlwaysBlock):
            work.append((child, frozenset()))
        elif kind is NodeKind.Instance:
            instances.append(child)

    edges: set[tuple[str, str]] = set()
    assigned: set[str] = set()
    while work:
        node, conds = work.pop()
        kind = node.kind
        if kind in _ASSIGN_KINDS:
            targets = _lvalue_bases(node.children[0])
            sources = _ident_names(node.children[1]) | conds
            assigned.update(targets)
            for t in targets:
                for s in sources:
                    edges.add((s, t))
        elif kind is NodeKind.IfStmt:
            cond_sigs = conds | _ident_names(node.children[0])
            work.extend((branch, cond_sigs) for branch in node.children[1:])
        elif kind is NodeKind.CaseStmt:
            subject_sigs = conds | _ident_names(node.children[0])
            for item in node.children[1:]:
                label_sigs = frozenset()
                for label_expr in item.children[:-1]:
                    label_sigs |= _ident_names(label_expr)
                work.append((item.children[-1], subject_sigs | label_sigs))
        elif kind in (NodeKind.SeqBlock, NodeKind.AlwaysBlock):
            work.extend((child, conds) for child in node.children)

    drivable -= assigned
    for inst in instances:
        outputs: list[str] = []
        inputs: set[str] = set()
        for conn in inst.children:
            if conn.kind is not NodeKind.PortConn or not conn.children:
                continue
            expr = base = conn.children[0]
            while base.kind in (NodeKind.BitSelect, NodeKind.PartSelect):
                base = base.children[0]
            if base.kind is NodeKind.IdentRef and base.label in drivable:
                outputs.append(base.label)
            else:
                inputs |= _ident_names(expr)
        edges.update((s, t) for t in outputs for s in inputs)

    return Dfg(edges=frozenset(
        (s, t) for s, t in edges if s in declared and t in declared))

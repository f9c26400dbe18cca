"""BLEU, AST, and DFG similarity between candidate and reference modules.

All three scores live in [0, 1]. BLEU is asymmetric (candidate vs reference);
the structural scores are symmetric. Zero n-gram precision yields a hard 0
with no smoothing: downstream pair construction discards ties and zeros
carry no preference signal anyway.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from tbforge.errors import EmptyInput
from tbforge.frontend.ast_nodes import AstNode, NodeKind
from tbforge.frontend.dfg import Dfg
from tbforge.frontend.tokens import Token

BLEU_MAX_NGRAM = 4

# Depth of the structural signature: 1 means (node kind, child kinds).
# Deeper signatures explode on large modules.
AST_SIGNATURE_DEPTH = 1


@dataclass(frozen=True)
class SimilarityScore:
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"similarity out of range: {self.value}")


def _ngram_counts(texts: list[str], n: int) -> Counter:
    return Counter(tuple(texts[i:i + n]) for i in range(len(texts) - n + 1))


def bleu(candidate: list[Token], reference: list[Token]) -> SimilarityScore:
    """Corpus BLEU over 1..4-grams with uniform weights and brevity penalty.

    Precision counts are clipped against the reference; the score is the
    geometric mean of the four precisions times BP, and 0 if any precision
    is 0.
    """
    if not candidate or not reference:
        raise EmptyInput("BLEU needs non-empty token lists")

    cand = [t.text for t in candidate]
    ref = [t.text for t in reference]

    log_sum = 0.0
    for n in range(1, BLEU_MAX_NGRAM + 1):
        cand_counts = _ngram_counts(cand, n)
        total = sum(cand_counts.values())
        if total == 0:
            return SimilarityScore(0.0)
        ref_counts = _ngram_counts(ref, n)
        clipped = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
        if clipped == 0:
            return SimilarityScore(0.0)
        log_sum += math.log(clipped / total) / BLEU_MAX_NGRAM

    if len(cand) > len(ref):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(ref) / len(cand))

    return SimilarityScore(min(1.0, bp * math.exp(log_sum)))


def _signature(node: AstNode, depth: int) -> tuple:
    if depth == 0:
        return (node.kind.name,)
    return (node.kind.name,
            tuple(_signature(c, depth - 1) for c in node.children))


def ast_signatures(root: AstNode, depth: int = AST_SIGNATURE_DEPTH) -> Counter:
    """Multiset of depth-limited structural signatures over all nodes.

    Identifiers and literals contribute only their node kinds; labels are
    abstracted away, so consistent renaming leaves the multiset unchanged.
    """
    return Counter(_signature(node, depth) for node in root.walk())


def _multiset_jaccard(a: Counter, b: Counter) -> float:
    keys = set(a) | set(b)
    inter = sum(min(a[k], b[k]) for k in keys)
    union = sum(max(a[k], b[k]) for k in keys)
    if union == 0:
        return 1.0
    return inter / union


def ast_similarity(candidate: AstNode, reference: AstNode) -> SimilarityScore:
    """Multiset Jaccard over depth-1 structural signatures of two modules."""
    if candidate.kind is not NodeKind.Module or reference.kind is not NodeKind.Module:
        raise EmptyInput("AST similarity needs Module roots")
    value = _multiset_jaccard(ast_signatures(candidate), ast_signatures(reference))
    return SimilarityScore(value)


def dfg_similarity(candidate: Dfg, reference: Dfg) -> SimilarityScore:
    """Jaccard similarity over dataflow edge sets; two empty graphs score 1."""
    union = candidate.edges | reference.edges
    if not union:
        return SimilarityScore(1.0)
    inter = candidate.edges & reference.edges
    return SimilarityScore(len(inter) / len(union))

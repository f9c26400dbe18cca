import math
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbforge.errors import EmptyInput
from tbforge.frontend import Dfg, lex, parse_source
from tbforge.frontend.tokens import Token, TokenKind
from tbforge.similarity import (
    SimilarityScore,
    ast_similarity,
    bleu,
    dfg_similarity,
)

from fixture_data import AUDIO_ENCODER_DUT


def idents(*texts):
    return [Token(TokenKind.Identifier, t, 1) for t in texts]


# ---- BLEU ----

def test_bleu_self_similarity():
    tokens = lex("assign y = a & b;")
    assert len(tokens) >= 4
    assert bleu(tokens, tokens).value == pytest.approx(1.0, abs=1e-12)


def test_bleu_disjoint_is_zero():
    assert bleu(idents("a", "b", "c", "d"), idents("w", "x", "y", "z")).value == 0.0


def oracle_bleu(cand, ref):
    # Independent hand-rolled BLEU: explicit loops, counts per n-gram.
    def grams(seq, n):
        out = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i:i + n])
            out[g] = out.get(g, 0) + 1
        return out

    precisions = []
    for n in (1, 2, 3, 4):
        cg, rg = grams(cand, n), grams(ref, n)
        total = sum(cg.values())
        if total == 0:
            return 0.0
        hit = 0
        for g, c in cg.items():
            hit += min(c, rg.get(g, 0))
        if hit == 0:
            return 0.0
        precisions.append(hit / total)
    geo = math.exp(sum(math.log(p) for p in precisions) / 4)
    bp = 1.0 if len(cand) > len(ref) else math.exp(1 - len(ref) / len(cand))
    return bp * geo


def test_bleu_hand_counted_fixture():
    cand = ["a", "b", "c", "d", "e"]
    ref = ["a", "b", "c", "d", "f"]
    # clipped matches: 1-grams 4/5, 2-grams 3/4, 3-grams 2/3, 4-grams 1/2
    expected = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
    score = bleu(idents(*cand), idents(*ref)).value
    assert score == pytest.approx(expected, abs=1e-12)
    assert score == pytest.approx(oracle_bleu(cand, ref), abs=1e-9)


def test_bleu_brevity_penalty():
    # candidate shorter than reference: BP = exp(1 - |ref|/|cand|)
    cand = ["a", "b", "c", "d"]
    ref = ["a", "b", "c", "d", "e", "f"]
    score = bleu(idents(*cand), idents(*ref)).value
    assert score == pytest.approx(oracle_bleu(cand, ref), abs=1e-12)
    assert score < 1.0


def test_bleu_longer_candidate_no_penalty():
    cand = ["a", "b", "c", "d", "e"]
    ref = ["a", "b", "c", "d"]
    assert bleu(idents(*cand), idents(*ref)).value == pytest.approx(
        oracle_bleu(cand, ref), abs=1e-12)


def test_bleu_empty_input():
    with pytest.raises(EmptyInput):
        bleu([], idents("a"))
    with pytest.raises(EmptyInput):
        bleu(idents("a"), [])


def test_bleu_short_candidate_scores_zero():
    # fewer than 4 tokens -> no 4-grams -> hard zero
    assert bleu(idents("a", "b"), idents("a", "b")).value == 0.0


def test_bleu_asymmetry_possible():
    a = idents("x", "x", "x", "x", "a", "b", "c", "d")
    b = idents("a", "b", "c", "d")
    assert bleu(a, b).value != bleu(b, a).value


@given(st.lists(st.sampled_from("abcxyz"), min_size=4, max_size=12),
       st.lists(st.sampled_from("abcxyz"), min_size=4, max_size=12))
def test_bleu_matches_oracle_and_range(ca, re_):
    score = bleu(idents(*ca), idents(*re_)).value
    assert 0.0 <= score <= 1.0
    assert score == pytest.approx(oracle_bleu(ca, re_), abs=1e-9)


# ---- AST similarity ----

def test_ast_identical_modules():
    a = parse_source(AUDIO_ENCODER_DUT)
    assert ast_similarity(a, a).value == 1.0


def test_ast_no_shared_signatures():
    a = parse_source("module m(input x); endmodule")
    b = parse_source("module n; wire w; assign w = 1; endmodule")
    assert ast_similarity(a, b).value == 0.0


def oracle_signatures(root):
    # Independent enumeration: recursive instead of the stack walk.
    counter = Counter()

    def rec(node):
        counter[(node.kind.name, tuple((c.kind.name,) for c in node.children))] += 1
        for c in node.children:
            rec(c)

    rec(root)
    return counter


def test_ast_one_assignment_deleted_matches_oracle():
    full = parse_source(AUDIO_ENCODER_DUT)
    pruned_src = AUDIO_ENCODER_DUT.replace(
        "assign is_underrun = reg_underrun;\n", "")
    pruned = parse_source(pruned_src)

    a, b = oracle_signatures(full), oracle_signatures(pruned)
    keys = set(a) | set(b)
    inter = sum(min(a[k], b[k]) for k in keys)
    union = sum(max(a[k], b[k]) for k in keys)
    expected = inter / union

    got = ast_similarity(full, pruned).value
    assert got == pytest.approx(expected, abs=1e-12)
    assert 0.0 < got < 1.0


def test_ast_symmetry():
    a = parse_source(AUDIO_ENCODER_DUT)
    b = parse_source("module m(input x, output y); assign y = ~x; endmodule")
    assert ast_similarity(a, b).value == ast_similarity(b, a).value


def test_ast_rename_invariance():
    src_a = "module m(input alpha, beta, output gamma); assign gamma = alpha & beta; endmodule"
    renames = {"m": "k", "alpha": "p", "beta": "q", "gamma": "r"}
    src_b = re.sub(r"\b(m|alpha|beta|gamma)\b", lambda mm: renames[mm.group()], src_a)
    base = parse_source(src_a)
    renamed = parse_source(src_b)
    other = parse_source("module z(input a, output w); assign w = ~a; endmodule")
    assert ast_similarity(base, other).value == ast_similarity(renamed, other).value
    assert ast_similarity(base, renamed).value == 1.0


# ---- DFG similarity ----

def _dfg(*edges):
    return Dfg(edges=frozenset(edges))


def test_dfg_identical():
    d = _dfg(("a", "y"), ("b", "y"))
    assert dfg_similarity(d, d).value == 1.0


def test_dfg_disjoint():
    assert dfg_similarity(_dfg(("a", "y")), _dfg(("b", "z"))).value == 0.0


def test_dfg_jaccard_arithmetic():
    a = _dfg(("a", "x"), ("b", "x"), ("c", "x"))
    b = _dfg(("a", "x"), ("b", "x"), ("d", "x"))
    # intersection 2, union 4
    assert dfg_similarity(a, b).value == 0.5


def test_dfg_both_empty_is_one():
    assert dfg_similarity(_dfg(), _dfg()).value == 1.0


def test_dfg_symmetry():
    a = _dfg(("a", "x"), ("b", "x"))
    b = _dfg(("a", "x"), ("c", "z"))
    assert dfg_similarity(a, b).value == dfg_similarity(b, a).value


def test_score_range_validation():
    with pytest.raises(ValueError):
        SimilarityScore(1.5)

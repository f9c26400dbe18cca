import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbforge import preference
from tbforge.errors import EmptyInput, LexError, ParseError, ScriptExhausted
from tbforge.frontend import extract_dfg, lex, parse_module
from tbforge.llm import MockChatClient
from tbforge.preference import (
    CandidateEval,
    Discard,
    PairMethod,
    PreferencePair,
    SIMILARITY_METHODS,
    SamplingParams,
    build_pair_similarity,
    build_pair_testbench,
    build_pair_with_fails,
    build_pairs,
    code_line_count,
    evaluate_candidate,
    sample_candidates,
)
from tbforge.sim import CompileError, MockSimulator, Report, RuntimeAbort
from tbforge.similarity import ast_similarity, bleu, dfg_similarity


def ev(passed, total=5, compile_ok=True, aborted=False, code=None):
    if aborted or not compile_ok:
        passed, total = 0, 0
    return CandidateEval(code=code or f"module c_{passed}_{compile_ok}; endmodule",
                         compile_ok=compile_ok, outcome=None,
                         passed=passed, total=total, aborted=aborted)


# ---- sampling ----

def test_sample_two_candidates():
    client = MockChatClient([
        "```verilog\nmodule a; endmodule\n```",
        "```verilog\nmodule b; endmodule\n```",
    ])
    codes = sample_candidates(client, "spec", SamplingParams(n=2), retries=3, backoff=0)
    assert len(codes) == 2
    assert "module a" in codes[0]
    assert "module b" in codes[1]


def test_sample_prose_yields_empty_marker():
    client = MockChatClient(["module only; endmodule", "no code at all"])
    codes = sample_candidates(client, "spec", SamplingParams(n=2), retries=3, backoff=0)
    assert codes[1] == ""


def test_sample_on_code_fires_in_order_before_next_request():
    client = MockChatClient([
        "```verilog\nmodule a; endmodule\n```",
        "no code at all",
        "```verilog\nmodule c; endmodule\n```",
    ])
    seen = []

    def on_code(code):
        seen.append((code, len(client.calls)))

    codes = sample_candidates(client, "spec", SamplingParams(n=3), retries=3, backoff=0,
                              on_code=on_code)
    assert [code for code, _ in seen] == codes
    assert codes[1] == ""
    assert [calls for _, calls in seen] == [1, 2, 3]


def test_sample_call_count_over_batch():
    client = MockChatClient(["module m; endmodule"] * 20)
    for _ in range(10):
        sample_candidates(client, "spec", SamplingParams(n=2), retries=3, backoff=0)
    assert len(client.calls) == 20
    with pytest.raises(ScriptExhausted):
        sample_candidates(client, "spec", SamplingParams(n=2), retries=3, backoff=0)


def test_sample_forwards_sampling_params():
    client = MockChatClient(["module m; endmodule"] * 2)
    sample_candidates(client, "spec",
                      SamplingParams(n=2, temperatures=(0.2, 0.5), top_p=0.95, top_k=50),
                      retries=3, backoff=0)
    assert [c.temperature for c in client.calls] == [0.2, 0.5]
    assert all(c.top_p == 0.95 and c.top_k == 50 for c in client.calls)


# ---- evaluation ----

def test_evaluate_partial_pass():
    sim = MockSimulator(["ok", Report(5, 2)])
    result = evaluate_candidate("module m; endmodule", "module tb; endmodule", sim)
    assert result.passed == 3
    assert result.total == 5
    assert result.compile_ok


def test_evaluate_compile_error():
    sim = MockSimulator([CompileError("nope")])
    result = evaluate_candidate("module m; endmodule", "tb", sim)
    assert not result.compile_ok
    assert result.passed == 0


def test_evaluate_full_pass():
    sim = MockSimulator(["ok", Report(5, 0)])
    result = evaluate_candidate("module m; endmodule", "tb", sim)
    assert result.passed == 5


def test_evaluate_abort_flagged():
    sim = MockSimulator(["ok", RuntimeAbort("timeout")])
    result = evaluate_candidate("module m; endmodule", "tb", sim)
    assert result.aborted
    assert result.passed == 0


def test_evaluate_empty_code_marker():
    sim = MockSimulator(["ok"])
    result = evaluate_candidate("", "tb", sim)
    assert result.no_code
    assert not result.compile_ok
    assert sim.calls == []


# ---- testbench rule ----

def test_testbench_rule_prefers_more_passes():
    pair = build_pair_testbench("s", ev(5), ev(3))
    assert isinstance(pair, PreferencePair)
    assert pair.chosen_passed == 5
    assert pair.rejected_passed == 3
    assert pair.method is PairMethod.Testbench


def test_testbench_rule_discards_compile_failure():
    assert build_pair_testbench("s", ev(0, compile_ok=False), ev(5)) == \
        Discard("compile_failure")


def test_testbench_rule_discards_tie():
    assert build_pair_testbench("s", ev(4), ev(4)) == Discard("tie")


def test_testbench_rule_discards_abort():
    assert build_pair_testbench("s", ev(0, aborted=True), ev(5)) == Discard("aborted")


def test_symmetry_in_argument_order():
    a, b = ev(5), ev(3)
    x = build_pair_testbench("s", a, b)
    y = build_pair_testbench("s", b, a)
    assert x == y


# ---- similarity rules ----

REF = "module r(input a, b, output y); assign y = a & b; endmodule"
NEAR = "module c(input a, b, output y); assign y = a & b; endmodule"
FAR = "module c(input p, q, output z); wire t; assign t = p | q; assign z = ~t; endmodule"


def pairwise_score(method, candidate_code, reference_code):
    """One candidate's similarity to the reference, from both sources, as
    the pairwise rule computed it for every pair before per-spec scoring."""
    if method is PairMethod.Bleu:
        return bleu(lex(candidate_code), lex(reference_code)).value
    if method is PairMethod.Ast:
        return ast_similarity(parse_module(lex(candidate_code)),
                              parse_module(lex(reference_code))).value
    return dfg_similarity(extract_dfg(parse_module(lex(candidate_code))),
                          extract_dfg(parse_module(lex(reference_code)))).value


def score_or_none(method, code, reference_code=REF):
    try:
        return pairwise_score(method, code, reference_code)
    except (ParseError, LexError, EmptyInput):
        return None


def similarity_pair(a, b, method):
    return build_pair_similarity("s", a, b, score_or_none(method, a.code),
                                 score_or_none(method, b.code), method)


def test_similarity_rule_prefers_higher_score():
    a = ev(2, code=NEAR)
    b = ev(4, code=FAR)
    for method in SIMILARITY_METHODS:
        pair = similarity_pair(a, b, method)
        assert isinstance(pair, PreferencePair), method
        assert pair.chosen == NEAR
        assert pair.method is method


def test_similarity_rule_requires_compiling_candidates():
    outcome = similarity_pair(ev(0, compile_ok=False, code=NEAR),
                              ev(3, code=FAR), PairMethod.Bleu)
    assert outcome == Discard("compile_failure")


def test_similarity_rule_parse_failure_discards():
    broken = "module c; generate endgenerate endmodule"
    outcome = similarity_pair(ev(1, code=broken), ev(2, code=FAR), PairMethod.Ast)
    assert outcome == Discard("parse")


def test_similarity_rule_tie_discards():
    outcome = similarity_pair(ev(1, code=NEAR), ev(2, code=NEAR), PairMethod.Dfg)
    assert outcome == Discard("tie")


def test_bleu_fixture_chooses_higher():
    # NEAR shares the reference token stream exactly; FAR shares little.
    pair = similarity_pair(ev(0, total=5, code=FAR), ev(5, code=NEAR),
                           PairMethod.Bleu)
    assert isinstance(pair, PreferencePair)
    assert pair.chosen == NEAR


def test_similarity_rule_compile_status_before_missing_score():
    outcome = build_pair_similarity("s", ev(0, aborted=True, code=NEAR),
                                    ev(2, code=FAR), None, 0.5, PairMethod.Dfg)
    assert outcome == Discard("aborted")
    with pytest.raises(ValueError):
        build_pair_similarity("s", ev(1), ev(2), 0.1, 0.2, PairMethod.Testbench)


# ---- per-spec scoring against the pairwise rule ----

MID = "module c(input a, b, output y); wire t; assign t = a & b; assign y = t; endmodule"
NO_PARSE = "module c; generate endgenerate endmodule"
NO_LEX = "module c(input a, output y); assign y = a \x01; endmodule"
NO_TOKENS = "// nothing but a comment"
REF_NO_PARSE = "module r; generate endgenerate endmodule"
REF_NO_LEX = "module r; \\ endmodule"


def pairwise_reference(spec, reference_code, evals, method, cap):
    """build_pairs under a similarity method as it stood before per-spec
    scoring: both candidates and the reference re-scored for every pair."""
    outcomes = []
    emitted = 0
    for a, b in itertools.combinations(evals, 2):
        if not a.compile_ok or not b.compile_ok:
            outcome = Discard("compile_failure")
        elif a.aborted or b.aborted:
            outcome = Discard("aborted")
        else:
            try:
                score_a = pairwise_score(method, a.code, reference_code)
                score_b = pairwise_score(method, b.code, reference_code)
            except (ParseError, LexError, EmptyInput):
                outcome = Discard("parse")
            else:
                if score_a == score_b:
                    outcome = Discard("tie")
                else:
                    chosen, rejected = (a, b) if score_a > score_b else (b, a)
                    outcome = PreferencePair(
                        spec=spec, chosen=chosen.code, rejected=rejected.code,
                        chosen_passed=chosen.passed,
                        rejected_passed=rejected.passed, method=method)
        if isinstance(outcome, PreferencePair):
            if emitted >= cap:
                continue
            emitted += 1
        outcomes.append(outcome)
    return outcomes


MIXED = [
    ev(3, code=NEAR), ev(1, code=FAR), ev(2, code=MID), ev(4, code=NO_PARSE),
    ev(0, compile_ok=False, code=NEAR), ev(2, code=NEAR), ev(0, aborted=True, code=MID),
    ev(5, code=NO_LEX), ev(1, code=NO_TOKENS), ev(2, code=FAR),
]

CASES = {
    "mixed": (REF, MIXED),
    "reference-does-not-parse": (REF_NO_PARSE, MIXED),
    "reference-does-not-lex": (REF_NO_LEX, MIXED),
    "duplicates-only": (REF, [ev(1, code=NEAR), ev(2, code=NEAR), ev(3, code=FAR),
                              ev(4, code=FAR)]),
    "all-compile-status": (REF, [ev(0, compile_ok=False, code=NEAR),
                                 ev(0, aborted=True, code=FAR),
                                 ev(2, code=MID)]),
}


@pytest.mark.parametrize("cap", [0, 2, 100])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("method", SIMILARITY_METHODS, ids=lambda m: m.value)
def test_build_pairs_matches_pairwise_reference(method, case, cap):
    reference_code, evals = CASES[case]
    expected = pairwise_reference("s", reference_code, evals, method, cap)
    assert build_pairs("s", reference_code, evals, method, cap=cap) == expected


_CODES = [REF, NEAR, FAR, MID, NO_PARSE, NO_LEX, NO_TOKENS]


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(SIMILARITY_METHODS),
       reference_code=st.sampled_from(_CODES + [REF_NO_PARSE, REF_NO_LEX]),
       candidates=st.lists(st.tuples(st.sampled_from(_CODES),
                                     st.sampled_from(["ok", "compile", "abort"]),
                                     st.integers(0, 5)),
                           max_size=7),
       cap=st.integers(0, 6))
def test_build_pairs_matches_pairwise_reference_random(method, reference_code,
                                                       candidates, cap):
    evals = [ev(passed, code=code, compile_ok=status != "compile",
                aborted=status == "abort")
             for code, status, passed in candidates]
    expected = pairwise_reference("s", reference_code, evals, method, cap)
    assert build_pairs("s", reference_code, evals, method, cap=cap) == expected


@pytest.fixture
def frontend_calls(monkeypatch):
    calls = {"lex": 0, "parse_module": 0}
    for name in calls:
        real = getattr(preference, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(preference, name, counted)
    return calls


@pytest.mark.parametrize("method", [PairMethod.Ast, PairMethod.Dfg],
                         ids=lambda m: m.value)
def test_build_pairs_parses_each_candidate_and_reference_once(frontend_calls, method):
    # Four candidates reach the comparison, two discard on compile status.
    evals = [ev(1, code=NEAR), ev(2, code=FAR), ev(3, code=MID), ev(4, code=NO_PARSE),
             ev(0, compile_ok=False, code=NEAR), ev(0, aborted=True, code=FAR)]
    build_pairs("s", REF, evals, method, cap=100)
    assert frontend_calls == {"lex": 5, "parse_module": 5}


def test_build_pairs_bleu_lexes_each_candidate_and_reference_once(frontend_calls):
    evals = [ev(1, code=NEAR), ev(2, code=FAR), ev(3, code=NEAR),
             ev(0, compile_ok=False, code=MID)]
    build_pairs("s", REF, evals, PairMethod.Bleu)
    assert frontend_calls == {"lex": 4, "parse_module": 0}


def test_build_pairs_unparseable_reference_parsed_once(frontend_calls):
    evals = [ev(1, code=NEAR), ev(2, code=FAR), ev(3, code=MID)]
    outcomes = build_pairs("s", REF_NO_PARSE, evals, PairMethod.Dfg)
    assert outcomes == [Discard("parse")] * 3
    assert frontend_calls["parse_module"] <= len(evals) + 1
    assert frontend_calls["lex"] <= len(evals) + 1


@pytest.mark.parametrize("method", SIMILARITY_METHODS, ids=lambda m: m.value)
def test_build_pairs_scores_nothing_when_compile_status_discards_all(frontend_calls,
                                                                    method):
    evals = [ev(0, compile_ok=False, code=NEAR), ev(0, aborted=True, code=FAR),
             ev(3, code=MID), ev(0, compile_ok=False, code=MID)]
    outcomes = build_pairs("s", REF, evals, method)
    assert all(o.reason in ("compile_failure", "aborted") for o in outcomes)
    assert frontend_calls == {"lex": 0, "parse_module": 0}


# ---- compile-status rule ----

def test_with_fails_emits_on_status_difference():
    pair = build_pair_with_fails("s", ev(3), ev(0, compile_ok=False))
    assert isinstance(pair, PreferencePair)
    assert pair.method is PairMethod.TestbenchWithFails
    assert pair.chosen_passed == 3


def test_with_fails_both_fail_discards():
    outcome = build_pair_with_fails("s", ev(0, compile_ok=False),
                                    ev(0, compile_ok=False))
    assert outcome == Discard("compile_failure")


def test_with_fails_both_ok_falls_back_to_testbench_rule():
    pair = build_pair_with_fails("s", ev(5), ev(3))
    assert isinstance(pair, PreferencePair)
    assert pair.method is PairMethod.Testbench


def test_with_fails_aborting_compiler_still_wins():
    pair = build_pair_with_fails("s", ev(0, aborted=True), ev(0, compile_ok=False))
    assert isinstance(pair, PreferencePair)
    assert pair.method is PairMethod.TestbenchWithFails


# ---- randomized property suite ----

def random_eval(rng):
    roll = rng.random()
    if roll < 0.2:
        return ev(0, compile_ok=False, code=f"module x{rng.random()}; endmodule")
    if roll < 0.3:
        return ev(0, aborted=True, code=f"module x{rng.random()}; endmodule")
    total = rng.randint(1, 8)
    return ev(rng.randint(0, total), total=total,
              code=f"module x{rng.random()}; endmodule")


def test_randomized_pair_properties():
    rng = random.Random(1234)
    for _ in range(1000):
        a, b = random_eval(rng), random_eval(rng)
        tb_pair = build_pair_testbench("s", a, b)
        wf_pair = build_pair_with_fails("s", a, b)

        if isinstance(tb_pair, PreferencePair):
            assert a.compile_ok and b.compile_ok
            assert not a.aborted and not b.aborted
            assert tb_pair.chosen_passed > tb_pair.rejected_passed
        elif a.compile_ok and b.compile_ok and not a.aborted and not b.aborted:
            assert tb_pair == Discard("tie")
            assert a.passed == b.passed

        emitted_wf = isinstance(wf_pair, PreferencePair) and \
            wf_pair.method is PairMethod.TestbenchWithFails
        assert emitted_wf == (a.compile_ok != b.compile_ok)

        # symmetry
        assert build_pair_testbench("s", b, a) == tb_pair
        assert build_pair_with_fails("s", b, a) == wf_pair


def test_accounting_pairs_plus_discards():
    rng = random.Random(7)
    outcomes = []
    for _ in range(200):
        a, b = random_eval(rng), random_eval(rng)
        outcomes.append(build_pair_testbench("s", a, b))
    pairs = sum(isinstance(o, PreferencePair) for o in outcomes)
    discards = sum(isinstance(o, Discard) for o in outcomes)
    assert pairs + discards == 200


def test_build_pairs_cap():
    evals = [ev(i, total=8, code=f"module m{i}; endmodule") for i in range(5)]
    outcomes = build_pairs("s", REF, evals, PairMethod.Testbench, cap=3)
    pairs = [o for o in outcomes if isinstance(o, PreferencePair)]
    assert len(pairs) == 3


# ---- corpus filter ----

def test_code_line_count_skips_blank_and_comments():
    code = """\
module m;
// a comment

/* block
   comment */
assign x = 1; // trailing comment counts as code
endmodule
"""
    assert code_line_count(code) == 3


def test_fifty_line_filter_boundary():
    code = "\n".join(f"assign x{i} = {i};" for i in range(50))
    assert code_line_count(code) == 50
    assert code_line_count(code + "\nassign y = 0;") == 51

"""Candidate sampling, testbench evaluation, and preference-pair construction.

A pair prefers the candidate with more passed testcases (testbench rule) or
higher similarity to the reference code (ablation rules). Ties are always
discarded: preference needs a strict inequality, equal evidence carries no
learning signal. Candidates that abort at runtime are discarded wherever a
pass count or similarity is compared; the compile-status rule
(tb-with-fails) looks at compile status alone, so a compiling-but-aborting
candidate still beats one with syntax errors.

Similarity rules score a spec's candidates in one pass before any pair is
built: the reference code is brought to the method's form once, and each
candidate that compiles and does not abort is scored against it once, when
at least two such candidates exist. A candidate or reference that the
frontend rejects has no score, and every pair that needs it is discarded as
"parse".
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

from tbforge.errors import ConfigError, EmptyInput, LexError, ParseError
from tbforge.frontend import extract_dfg, lex, parse_module
from tbforge.llm.client import ChatRequest, Message, complete
from tbforge.llm.postprocess import extract_code_block
from tbforge.sim.backends import SimulatorBackend
from tbforge.sim.outcomes import CompileError, RuntimeAbort, SimOutcome
from tbforge.similarity import SimilarityScore, ast_similarity, bleu, dfg_similarity


class PairMethod(Enum):
    Testbench = "testbench"
    Bleu = "bleu"
    Ast = "ast"
    Dfg = "dfg"
    TestbenchWithFails = "tb-with-fails"


SIMILARITY_METHODS = (PairMethod.Bleu, PairMethod.Ast, PairMethod.Dfg)

# With more than two candidates per spec, emit at most this many strict
# pairs per spec unless configured otherwise.
DEFAULT_PAIR_CAP = 4


@dataclass(frozen=True)
class CandidateEval:
    code: str
    compile_ok: bool
    outcome: SimOutcome | None
    passed: int
    total: int
    aborted: bool = False
    no_code: bool = False

    def __post_init__(self):
        if not self.compile_ok and self.passed != 0:
            raise ValueError("non-compiling candidate cannot pass testcases")
        if self.passed > self.total:
            raise ValueError("passed exceeds total")


@dataclass(frozen=True)
class PreferencePair:
    spec: str
    chosen: str
    rejected: str
    chosen_passed: int
    rejected_passed: int
    method: PairMethod

    def __post_init__(self):
        if self.method is PairMethod.Testbench:
            if self.chosen_passed <= self.rejected_passed:
                raise ValueError("testbench pair needs a strict pass-count win")


@dataclass(frozen=True)
class Discard:
    reason: str  # compile_failure | aborted | tie | parse


PairOutcome = Union[PreferencePair, Discard]


@dataclass(frozen=True)
class SamplingParams:
    n: int = 2
    temperatures: tuple[float, ...] = (0.2, 0.5, 0.8)
    top_p: float | None = 0.95
    top_k: int | None = 50
    max_tokens: int = 4096

    def __post_init__(self):
        temperatures_ok = bool(self.temperatures) and min(self.temperatures) >= 0
        for key, ok, rule in (("n", self.n >= 2, ">= 2"),
                              ("temperatures", temperatures_ok, "one or more values >= 0"),
                              ("max_tokens", self.max_tokens >= 1, ">= 1")):
            if not ok:
                raise ConfigError(f"sampling {key} must be {rule}")


def sample_candidates(client, spec: str, params: SamplingParams | None = None, *,
                      retries: int, backoff: float,
                      on_code: Callable[[str], None] | None = None) -> list[str]:
    """Draw n independent completions for a specification and extract the
    code. A response with no code yields ""; it evaluates as non-compiling.

    ``on_code``, when given, receives each extracted code (or "") in
    candidate order, before the next request goes out, so a caller can
    evaluate candidate k before k+1 is requested; an error it raises ends
    the sampling."""
    params = params or SamplingParams()
    if not spec.strip():
        raise EmptyInput("empty specification")
    codes = []
    for i in range(params.n):
        temperature = params.temperatures[i % len(params.temperatures)]
        request = ChatRequest(
            messages=(Message("user", spec),),
            temperature=temperature,
            max_tokens=params.max_tokens,
            top_p=params.top_p,
            top_k=params.top_k,
        )
        code = extract_code_block(
            complete(client, request, retries=retries, backoff=backoff))
        codes.append(code)
        if on_code is not None:
            on_code(code)
    return codes


def evaluate_candidate(code: str, testbench: str,
                       simulator: SimulatorBackend) -> CandidateEval:
    """Compile and run one candidate under a pipeline-produced testbench."""
    if not code.strip():
        return CandidateEval(code=code, compile_ok=False, outcome=None,
                             passed=0, total=0, no_code=True)
    outcome = simulator.run_test(code, testbench)
    if isinstance(outcome, CompileError):
        return CandidateEval(code=code, compile_ok=False, outcome=outcome,
                             passed=0, total=0)
    if isinstance(outcome, RuntimeAbort):
        return CandidateEval(code=code, compile_ok=True, outcome=outcome,
                             passed=0, total=0, aborted=True)
    return CandidateEval(code=code, compile_ok=True, outcome=outcome,
                         passed=outcome.passed, total=outcome.total_cases)


def _status_discard(a: CandidateEval, b: CandidateEval) -> Discard | None:
    """The discard owed to a pair before any pass count or similarity is
    compared: either candidate failed to compile, or aborted."""
    if not a.compile_ok or not b.compile_ok:
        return Discard("compile_failure")
    if a.aborted or b.aborted:
        return Discard("aborted")
    return None


def build_pair_testbench(spec: str, a: CandidateEval, b: CandidateEval) -> PairOutcome:
    """Prefer the candidate passing more testcases; discard compile
    failures, aborts, and ties."""
    discard = _status_discard(a, b)
    if discard is not None:
        return discard
    if a.passed == b.passed:
        return Discard("tie")
    chosen, rejected = (a, b) if a.passed > b.passed else (b, a)
    return PreferencePair(spec=spec, chosen=chosen.code, rejected=rejected.code,
                          chosen_passed=chosen.passed,
                          rejected_passed=rejected.passed,
                          method=PairMethod.Testbench)


# Frontend failures that leave a code without a similarity score; a pair
# that needs such a score is discarded as "parse".
_UNSCORABLE = (ParseError, LexError, EmptyInput)


def similarity_form(method: PairMethod, code: str):
    """Bring code to the form a similarity method compares: its tokens
    (BLEU), its module AST, or that module's dataflow graph. Raises LexError
    or ParseError on code the frontend rejects."""
    if method not in SIMILARITY_METHODS:
        raise ValueError(f"not a similarity method: {method}")
    tokens = lex(code)
    if method is PairMethod.Bleu:
        return tokens
    tree = parse_module(tokens)
    if method is PairMethod.Ast:
        return tree
    return extract_dfg(tree)


def form_similarity(method: PairMethod, candidate, reference) -> SimilarityScore:
    """Score a candidate against a reference, both in the method's
    ``similarity_form``."""
    if method is PairMethod.Bleu:
        return bleu(candidate, reference)
    if method is PairMethod.Ast:
        return ast_similarity(candidate, reference)
    if method is PairMethod.Dfg:
        return dfg_similarity(candidate, reference)
    raise ValueError(f"not a similarity method: {method}")


def _reference_scores(method: PairMethod, reference_code: str,
                      evals: Sequence[CandidateEval]) -> list[float | None]:
    """Each candidate's similarity to the reference code, indexed like the
    candidates. None marks a candidate that no pair compares, because it
    failed to compile or aborted, and one that has no score, because it or
    the reference is unscorable. The reference is formed once, and only when
    at least two candidates can be compared."""
    scores: list[float | None] = [None] * len(evals)
    comparable = [i for i, e in enumerate(evals) if e.compile_ok and not e.aborted]
    if len(comparable) < 2:
        return scores
    try:
        reference = similarity_form(method, reference_code)
    except _UNSCORABLE:
        return scores
    for i in comparable:
        try:
            candidate = similarity_form(method, evals[i].code)
            scores[i] = form_similarity(method, candidate, reference).value
        except _UNSCORABLE:
            pass
    return scores


def build_pair_similarity(spec: str, a: CandidateEval, b: CandidateEval,
                          score_a: float | None, score_b: float | None,
                          method: PairMethod) -> PairOutcome:
    """Prefer the candidate more similar to the reference code. score_a and
    score_b are the candidates' similarities to the reference, None where
    the candidate or the reference failed to lex or parse. Both candidates
    must compile and not abort; a missing score or a tie discards the
    pair."""
    if method not in SIMILARITY_METHODS:
        raise ValueError(f"not a similarity method: {method}")
    discard = _status_discard(a, b)
    if discard is not None:
        return discard
    if score_a is None or score_b is None:
        return Discard("parse")
    if score_a == score_b:
        return Discard("tie")
    chosen, rejected = (a, b) if score_a > score_b else (b, a)
    return PreferencePair(spec=spec, chosen=chosen.code, rejected=rejected.code,
                          chosen_passed=chosen.passed,
                          rejected_passed=rejected.passed,
                          method=method)


def build_pair_with_fails(spec: str, a: CandidateEval, b: CandidateEval) -> PairOutcome:
    """Compile-status rule: a syntax-valid candidate is preferred over one
    with syntax errors; equal compile statuses fall back to the testbench
    rule (both ok) or discard (both failed)."""
    if a.compile_ok != b.compile_ok:
        chosen, rejected = (a, b) if a.compile_ok else (b, a)
        return PreferencePair(spec=spec, chosen=chosen.code, rejected=rejected.code,
                              chosen_passed=chosen.passed,
                              rejected_passed=rejected.passed,
                              method=PairMethod.TestbenchWithFails)
    if not a.compile_ok:
        return Discard("compile_failure")
    return build_pair_testbench(spec, a, b)


def build_pairs(spec: str, reference_code: str, evals: Sequence[CandidateEval],
                method: PairMethod, cap: int = DEFAULT_PAIR_CAP) -> list[PairOutcome]:
    """All strict pairs over the candidate set, capped per spec. Under a
    similarity method, scoring is one pass before any pair is built: the
    reference is formed once, and then each candidate that compiles and does
    not abort is scored once, provided at least two such candidates exist."""
    scores = (_reference_scores(method, reference_code, evals)
              if method in SIMILARITY_METHODS else [])
    outcomes: list[PairOutcome] = []
    emitted = 0
    for (i, a), (j, b) in itertools.combinations(enumerate(evals), 2):
        if method is PairMethod.Testbench:
            outcome = build_pair_testbench(spec, a, b)
        elif method is PairMethod.TestbenchWithFails:
            outcome = build_pair_with_fails(spec, a, b)
        else:
            outcome = build_pair_similarity(spec, a, b, scores[i], scores[j], method)
        if isinstance(outcome, PreferencePair):
            if emitted >= cap:
                continue
            emitted += 1
        outcomes.append(outcome)
    return outcomes


_COMMENT_ONLY = re.compile(r"^\s*(//.*)?$")


def code_line_count(code: str) -> int:
    """Count non-blank lines that are not comment-only; block comments are
    stripped first. Used by the corpus-prep filter for RL data."""
    without_blocks = re.sub(r"/\*.*?\*/", "", code, flags=re.DOTALL)
    return sum(1 for line in without_blocks.splitlines()
               if not _COMMENT_ONLY.match(line))

"""Candidate sampling, testbench evaluation, and preference-pair construction.

Every method judges a pair by one rule over one key per candidate: its pass
count (testbench, tb-with-fails) or its similarity to the reference code
(bleu, ast, dfg). A reply with no code is never a side of a pair: such a
candidate discards the pair ("no_code") under every method. Then, under
tb-with-fails, a compile-status difference decides the pair by itself, so a
compiling-but-aborting candidate beats one with syntax errors. Otherwise a
compile failure, then an abort, then a missing key ("parse"), then equal
keys ("tie") discard the pair: preference needs a strict inequality. Else
the larger key is chosen.

Similarity keys are computed once per spec before any pair is judged: the
reference is brought to the method's form once, and each candidate that
compiles and does not abort is scored against it once, when at least two
such candidates exist. A candidate or reference the frontend rejects has no
key.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

from tbforge.errors import EmptyInput, LexError, ParseError, check_settings
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


@dataclass(frozen=True)
class CandidateEval:
    code: str
    compile_ok: bool
    outcome: SimOutcome | None
    passed: int
    total: int
    aborted: bool = False

    def __post_init__(self):
        if not self.compile_ok and self.passed != 0:
            raise ValueError("non-compiling candidate cannot pass testcases")
        if self.passed > self.total:
            raise ValueError("passed exceeds total")

    @property
    def no_code(self) -> bool:
        """The reply held no code, so the candidate was never simulated."""
        return not self.code.strip()


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
    reason: str  # no_code | compile_failure | aborted | tie | parse


PairOutcome = Union[PreferencePair, Discard]


@dataclass(frozen=True)
class SamplingParams:
    n: int = 2
    temperatures: tuple[float, ...] = (0.2, 0.5, 0.8)
    top_p: float | None = 0.95
    top_k: int | None = 50
    max_tokens: int = 4096
    max_pairs_per_spec: int = 4  # strict pairs kept per spec; discards are all kept

    def __post_init__(self):
        temperatures_ok = bool(self.temperatures) and all(
            0 <= t < math.inf for t in self.temperatures)
        check_settings("sampling", (
            ("n", self.n >= 2, ">= 2"),
            ("temperatures", temperatures_ok, "one or more finite values >= 0"),
            ("top_p", self.top_p is None or 0 <= self.top_p <= 1, "in [0, 1]"),
            ("max_tokens", self.max_tokens >= 1, ">= 1"),
            ("max_pairs_per_spec", self.max_pairs_per_spec >= 1, ">= 1")))


def sample_candidates(client, spec: str, params: SamplingParams, *, retries: int,
                      backoff: float, on_code: Callable[[str], None]) -> None:
    """Draw n independent completions for a specification and extract the
    code. A response with no code yields ""; it evaluates as ``no_code``.

    ``on_code`` receives each extracted code (or "") in candidate order,
    before the next request goes out, so a caller can evaluate candidate k
    before k+1 is requested; an error it raises ends the sampling."""
    if not spec.strip():
        raise EmptyInput("empty specification")
    for i in range(params.n):
        temperature = params.temperatures[i % len(params.temperatures)]
        request = ChatRequest(
            messages=(Message("user", spec),),
            temperature=temperature,
            max_tokens=params.max_tokens,
            top_p=params.top_p,
            top_k=params.top_k,
        )
        on_code(extract_code_block(
            complete(client, request, retries=retries, backoff=backoff)))


def evaluate_candidate(code: str, testbench: str,
                       simulator: SimulatorBackend) -> CandidateEval:
    """Compile and run one candidate under a pipeline-produced testbench."""
    if not code.strip():
        return CandidateEval(code=code, compile_ok=False, outcome=None,
                             passed=0, total=0)
    outcome = simulator.run_test(code, testbench)
    if isinstance(outcome, CompileError):
        return CandidateEval(code=code, compile_ok=False, outcome=outcome,
                             passed=0, total=0)
    if isinstance(outcome, RuntimeAbort):
        return CandidateEval(code=code, compile_ok=True, outcome=outcome,
                             passed=0, total=0, aborted=True)
    return CandidateEval(code=code, compile_ok=True, outcome=outcome,
                         passed=outcome.passed, total=outcome.total_cases)


def _judge(spec: str, a: CandidateEval, b: CandidateEval, key_a: float | None,
           key_b: float | None, method: PairMethod) -> PairOutcome:
    """The one pair rule of the module docstring. A tb-with-fails pair
    decided by pass counts is a testbench pair."""
    if a.no_code or b.no_code:
        return Discard("no_code")
    if method is PairMethod.TestbenchWithFails and a.compile_ok != b.compile_ok:
        a_wins = a.compile_ok
    elif not (a.compile_ok and b.compile_ok):
        return Discard("compile_failure")
    elif a.aborted or b.aborted:
        return Discard("aborted")
    elif key_a is None or key_b is None:
        return Discard("parse")
    elif key_a == key_b:
        return Discard("tie")
    else:
        a_wins = key_a > key_b
        if method is PairMethod.TestbenchWithFails:
            method = PairMethod.Testbench
    chosen, rejected = (a, b) if a_wins else (b, a)
    return PreferencePair(spec=spec, chosen=chosen.code, rejected=rejected.code,
                          chosen_passed=chosen.passed,
                          rejected_passed=rejected.passed, method=method)


# Frontend failures that leave a code without a similarity score; a pair
# that needs such a score is discarded as "parse".
_UNSCORABLE = (ParseError, LexError, EmptyInput)


def similarity_form(method: PairMethod, code: str):
    """Bring code to the form a similarity method compares: its tokens
    (BLEU), its module AST, or that module's dataflow graph. Raises LexError
    or ParseError on code the frontend rejects, and code with no tokens is
    ``empty input`` under every method."""
    if method not in SIMILARITY_METHODS:
        raise ValueError(f"not a similarity method: {method}")
    tokens = lex(code)
    if method is PairMethod.Bleu:
        if not tokens:
            raise EmptyInput("empty input")
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


def build_pairs(spec: str, reference_code: str, evals: Sequence[CandidateEval],
                method: PairMethod, cap: int) -> list[PairOutcome]:
    """Every combination of the candidates judged in order, with at most
    ``cap`` pairs kept; discards are all kept. Each candidate's key is
    computed once, before any pair is judged."""
    keys = (_reference_scores(method, reference_code, evals)
            if method in SIMILARITY_METHODS else [e.passed for e in evals])
    outcomes: list[PairOutcome] = []
    emitted = 0
    for (a, key_a), (b, key_b) in itertools.combinations(zip(evals, keys), 2):
        outcome = _judge(spec, a, b, key_a, key_b, method)
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

"""Unbiased pass@k and sequence perplexity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from tbforge.errors import EmptyInput, KExceedsN


@dataclass(frozen=True)
class TaskResults:
    task: str
    n: int
    c_syntax: int
    c_function: int

    def __post_init__(self):
        if not 0 <= self.c_function <= self.c_syntax <= self.n:
            raise ValueError(
                f"need 0 <= c_function <= c_syntax <= n, got "
                f"({self.c_function}, {self.c_syntax}, {self.n})")


@dataclass(frozen=True)
class SequenceLogProb:
    token_logprobs: tuple[float, ...]

    def __post_init__(self):
        if not self.token_logprobs:
            raise ValueError("need at least one token logprob")
        if any(lp > 0 for lp in self.token_logprobs):
            raise ValueError("token log-probabilities must be <= 0")

    @property
    def length(self) -> int:
        return len(self.token_logprobs)


def pass_at_single(n: int, c: int, k: int) -> float:
    """1 - C(n-c, k) / C(n, k), evaluated exactly then rounded once.

    Exact integer binomials avoid overflow and bias for any n up to 10^4
    and make the k=1 closed form c/n hold to the last bit.
    """
    if k > n:
        raise KExceedsN(f"k={k} exceeds n={n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n - c < k:
        return 1.0
    return float(1 - Fraction(math.comb(n - c, k), math.comb(n, k)))


def pass_at_k(results: Sequence[TaskResults], k: int, mode: str = "function") -> float:
    """Mean unbiased pass@k over tasks; mode picks compile-only (syntax)
    or testbench-passing (function) counts."""
    if mode not in ("syntax", "function"):
        raise ValueError(f"unknown mode {mode!r}")
    if not results:
        raise EmptyInput("no task results")
    values = []
    for task in results:
        c = task.c_syntax if mode == "syntax" else task.c_function
        values.append(pass_at_single(task.n, c, k))
    return sum(values) / len(values)


def perplexity(seq: SequenceLogProb) -> float:
    """exp of the mean negative token log-likelihood; >= 1 for proper
    log-probabilities."""
    return math.exp(-sum(seq.token_logprobs) / seq.length)


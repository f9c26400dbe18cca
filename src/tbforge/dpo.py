"""Preference-optimization math: the pairwise logistic loss over policy/
reference log-ratios, its analytic gradient, the supervised MLE loss, and a
tabular softmax policy small enough to verify every gradient against finite
differences.

The loss for one pair is -log sigma(beta * z) with

    z = (policy_chosen - ref_chosen) - (policy_rejected - ref_rejected)

computed in a log-sigmoid form that stays finite for |beta * z| in the
hundreds, since summed sequence log-probabilities reach that scale. Batch
reduction is the mean over pairs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from tbforge.errors import EmptyInput, IndexOutOfRange, NonPositiveBeta

DEFAULT_BETA = 0.1


@dataclass(frozen=True)
class PairLogProbs:
    policy_chosen: float
    ref_chosen: float
    policy_rejected: float
    ref_rejected: float

    def __post_init__(self):
        for name in ("policy_chosen", "ref_chosen", "policy_rejected", "ref_rejected"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def margin(self) -> float:
        return (self.policy_chosen - self.ref_chosen) - \
            (self.policy_rejected - self.ref_rejected)


def _log_sigmoid(x: float) -> float:
    # stable: never exponentiates a positive argument
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def dpo_loss(batch: Sequence[PairLogProbs], beta: float = DEFAULT_BETA) -> float:
    """Mean -log sigma(beta * margin) over the batch."""
    if beta <= 0:
        raise NonPositiveBeta(f"beta must be > 0, got {beta}")
    if not batch:
        raise EmptyInput("empty batch")
    return -sum(_log_sigmoid(beta * pair.margin) for pair in batch) / len(batch)


def dpo_grad(pair: PairLogProbs, beta: float = DEFAULT_BETA) -> tuple[float, float]:
    """(dL/d policy_chosen, dL/d policy_rejected) for a single pair.

    Reference-model log-probabilities are constants with zero gradient.
    """
    if beta <= 0:
        raise NonPositiveBeta(f"beta must be > 0, got {beta}")
    coefficient = beta * _sigmoid(-beta * pair.margin)
    return -coefficient, coefficient


def _log_softmax(row: Sequence[float]) -> tuple[float, ...]:
    """One row's log softmax, max-shifted so that no exp overflows."""
    top = max(row)
    shifted = [x - top for x in row]
    log_total = math.log(math.fsum(map(math.exp, shifted)))
    return tuple(x - log_total for x in shifted)


@dataclass(frozen=True)
class TabularPolicy:
    """Softmax policy over (context, token) logits, dense enough to brute
    force. Takes any 2-D numeric sequence and keeps it as float tuples."""

    logits: tuple[tuple[float, ...], ...]  # contexts x vocab
    _log_probs: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            rows = tuple(tuple(float(x) for x in row) for row in self.logits)
        except TypeError:
            raise ValueError("logits must be 2-D (contexts x vocab)") from None
        if len({len(row) for row in rows}) != 1 or not rows[0]:
            raise ValueError("logits must be 2-D (contexts x vocab)")
        if not all(math.isfinite(x) for row in rows for x in row):
            raise ValueError("logits must be finite")
        object.__setattr__(self, "logits", rows)
        object.__setattr__(self, "_log_probs", tuple(map(_log_softmax, rows)))

    @property
    def contexts(self) -> int:
        return len(self.logits)

    @property
    def vocab(self) -> int:
        return len(self.logits[0])

    def log_probs(self) -> tuple[tuple[float, ...], ...]:
        """Row-wise log softmax, computed once when the policy is made."""
        return self._log_probs


def _table_logprob(log_probs: Sequence[Sequence[float]], context_ids: Sequence[int],
                   token_ids: Sequence[int]) -> float:
    """Sum of log_probs[context][token] over positions, left to right."""
    if len(context_ids) != len(token_ids):
        raise ValueError("context and token sequences must align")
    total = 0.0
    for ctx, tok in zip(context_ids, token_ids):
        if not (0 <= ctx < len(log_probs) and 0 <= tok < len(log_probs[0])):
            raise IndexOutOfRange(f"(context={ctx}, token={tok}) out of range")
        total += log_probs[ctx][tok]
    return total


def sequence_logprob(policy: TabularPolicy, context_ids: Sequence[int],
                     token_ids: Sequence[int]) -> float:
    """Sum over positions of log softmax(logits[context])[token]."""
    return _table_logprob(policy.log_probs(), context_ids, token_ids)


def sft_loss(policy: TabularPolicy,
             dataset: Sequence[tuple[Sequence[int], Sequence[int]]]) -> float:
    """Negative mean token log-likelihood over the dataset.

    Token-mean normalization makes exp(sft_loss) the dataset perplexity.
    """
    if not dataset:
        raise EmptyInput("empty dataset")
    total = 0.0
    tokens = 0
    for context_ids, token_ids in dataset:
        total += sequence_logprob(policy, context_ids, token_ids)
        tokens += len(token_ids)
    if tokens == 0:
        raise EmptyInput("dataset has no tokens")
    return -total / tokens


def _seq_logprob_grad(policy: TabularPolicy, context_ids: Sequence[int],
                      token_ids: Sequence[int]) -> list[list[float]]:
    """d sequence_logprob / d logits, via the softmax Jacobian."""
    probs = [list(map(math.exp, row)) for row in policy.log_probs()]
    grad = [[0.0] * policy.vocab for _ in range(policy.contexts)]
    for ctx, tok in zip(context_ids, token_ids):
        row = grad[ctx]
        row[tok] += 1.0
        for t, p in enumerate(probs[ctx]):
            row[t] -= p
    return grad


def dpo_policy_grad(policy: TabularPolicy, ref: TabularPolicy,
                    chosen: tuple[Sequence[int], Sequence[int]],
                    rejected: tuple[Sequence[int], Sequence[int]],
                    beta: float = DEFAULT_BETA) -> list[list[float]]:
    """Analytic gradient of the pair loss w.r.t. every policy logit."""
    pair = PairLogProbs(
        policy_chosen=sequence_logprob(policy, *chosen),
        ref_chosen=sequence_logprob(ref, *chosen),
        policy_rejected=sequence_logprob(policy, *rejected),
        ref_rejected=sequence_logprob(ref, *rejected))
    coeff_chosen, coeff_rejected = dpo_grad(pair, beta)
    return [[coeff_chosen * c + coeff_rejected * r for c, r in zip(row_c, row_r)]
            for row_c, row_r in zip(_seq_logprob_grad(policy, *chosen),
                                    _seq_logprob_grad(policy, *rejected))]


def dpo_policy_grad_check(policy: TabularPolicy, ref: TabularPolicy,
                          chosen: tuple[Sequence[int], Sequence[int]],
                          rejected: tuple[Sequence[int], Sequence[int]],
                          beta: float = DEFAULT_BETA,
                          step: float = 1e-5) -> float:
    """Max relative error between the analytic policy gradient and central
    finite differences over all contexts x vocab parameters.

    The error scale has a small absolute floor so that near-zero gradient
    entries compare at machine precision instead of dividing finite-
    difference noise by noise.
    """
    analytic = dpo_policy_grad(policy, ref, chosen, rejected, beta)
    ref_chosen, ref_rejected = (sequence_logprob(ref, *seq) for seq in (chosen, rejected))
    worst = 0.0
    for ctx in range(policy.contexts):
        for tok in range(policy.vocab):
            bumped = list(policy.logits[ctx])
            table = list(policy.log_probs())
            losses = []  # at +step, then at -step
            for delta in (step, -2 * step):
                bumped[tok] += delta
                table[ctx] = _log_softmax(bumped)  # the only row the bump moves
                losses.append(dpo_loss([PairLogProbs(
                    _table_logprob(table, *chosen), ref_chosen,
                    _table_logprob(table, *rejected), ref_rejected)], beta))
            numeric = (losses[0] - losses[1]) / (2 * step)
            scale = max(abs(analytic[ctx][tok]), abs(numeric), 1e-4)
            worst = max(worst, abs(analytic[ctx][tok] - numeric) / scale)
    return worst


def random_grad_check(seed: int, max_contexts: int = 5, max_vocab: int = 8,
                      beta: float = DEFAULT_BETA) -> float:
    """One randomized policy-gradient check; returns its max relative error."""
    rng = random.Random(seed)
    contexts = rng.randint(2, max_contexts)
    vocab = rng.randint(2, max_vocab)

    def random_logits():
        return [[rng.gauss(0, 1.5) for _ in range(vocab)] for _ in range(contexts)]

    def random_seq():
        length = rng.randint(1, 6)
        return ([rng.randrange(contexts) for _ in range(length)],
                [rng.randrange(vocab) for _ in range(length)])

    policy = TabularPolicy(logits=random_logits())
    ref = TabularPolicy(logits=random_logits())
    return dpo_policy_grad_check(policy, ref, random_seq(), random_seq(), beta)

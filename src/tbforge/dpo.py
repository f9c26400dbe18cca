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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from tbforge.errors import EmptyInput, IndexOutOfRange, NonPositiveBeta

if TYPE_CHECKING:
    import numpy as np

# numpy is imported where it is used: importing this module, which every
# CLI start does through the package, must not pay for it.

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


@dataclass(frozen=True)
class TabularPolicy:
    """Softmax policy over (context, token) logits, dense enough to brute
    force."""

    logits: np.ndarray  # shape (contexts, vocab)

    def __post_init__(self):
        import numpy as np

        logits = np.asarray(self.logits, dtype=float)
        if logits.ndim != 2:
            raise ValueError("logits must be 2-D (contexts x vocab)")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        object.__setattr__(self, "logits", logits)

    @property
    def contexts(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab(self) -> int:
        return self.logits.shape[1]

    def log_probs(self) -> np.ndarray:
        import numpy as np

        row_max = self.logits.max(axis=1, keepdims=True)
        shifted = self.logits - row_max
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def sequence_logprob(policy: TabularPolicy, context_ids: Sequence[int],
                     token_ids: Sequence[int]) -> float:
    """Sum over positions of log softmax(logits[context])[token]."""
    if len(context_ids) != len(token_ids):
        raise ValueError("context and token sequences must align")
    log_probs = policy.log_probs()
    total = 0.0
    for ctx, tok in zip(context_ids, token_ids):
        if not (0 <= ctx < policy.contexts and 0 <= tok < policy.vocab):
            raise IndexOutOfRange(f"(context={ctx}, token={tok}) out of range")
        total += log_probs[ctx, tok]
    return float(total)


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
                      token_ids: Sequence[int]) -> np.ndarray:
    """d sequence_logprob / d logits, via the softmax Jacobian."""
    import numpy as np

    probs = np.exp(policy.log_probs())
    grad = np.zeros_like(policy.logits)
    for ctx, tok in zip(context_ids, token_ids):
        grad[ctx, tok] += 1.0
        grad[ctx] -= probs[ctx]
    return grad


def _pair_logprobs(policy: TabularPolicy, ref: TabularPolicy, chosen,
                   rejected) -> PairLogProbs:
    """The chosen and rejected sequences' log-probabilities under the policy
    and the reference."""
    return PairLogProbs(
        policy_chosen=sequence_logprob(policy, *chosen),
        ref_chosen=sequence_logprob(ref, *chosen),
        policy_rejected=sequence_logprob(policy, *rejected),
        ref_rejected=sequence_logprob(ref, *rejected),
    )


def dpo_policy_grad(policy: TabularPolicy, ref: TabularPolicy,
                    chosen: tuple[Sequence[int], Sequence[int]],
                    rejected: tuple[Sequence[int], Sequence[int]],
                    beta: float = DEFAULT_BETA) -> np.ndarray:
    """Analytic gradient of the pair loss w.r.t. every policy logit."""
    pair = _pair_logprobs(policy, ref, chosen, rejected)
    coeff_chosen, coeff_rejected = dpo_grad(pair, beta)
    return (coeff_chosen * _seq_logprob_grad(policy, *chosen)
            + coeff_rejected * _seq_logprob_grad(policy, *rejected))


def _pair_loss_at(policy_logits: np.ndarray, ref: TabularPolicy, chosen, rejected,
                  beta: float) -> float:
    pair = _pair_logprobs(TabularPolicy(logits=policy_logits), ref, chosen, rejected)
    return dpo_loss([pair], beta)


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
    worst = 0.0
    base = policy.logits
    for ctx in range(policy.contexts):
        for tok in range(policy.vocab):
            bumped = base.copy()
            bumped[ctx, tok] += step
            up = _pair_loss_at(bumped, ref, chosen, rejected, beta)
            bumped[ctx, tok] -= 2 * step
            down = _pair_loss_at(bumped, ref, chosen, rejected, beta)
            numeric = (up - down) / (2 * step)
            scale = max(abs(analytic[ctx, tok]), abs(numeric), 1e-4)
            worst = max(worst, abs(analytic[ctx, tok] - numeric) / scale)
    return float(worst)


def random_grad_check(seed: int, max_contexts: int = 5, max_vocab: int = 8,
                      beta: float = DEFAULT_BETA) -> float:
    """One randomized policy-gradient check; returns its max relative error."""
    import numpy as np

    rng = np.random.default_rng(seed)
    contexts = int(rng.integers(2, max_contexts + 1))
    vocab = int(rng.integers(2, max_vocab + 1))
    policy = TabularPolicy(logits=rng.normal(0, 1.5, size=(contexts, vocab)))
    ref = TabularPolicy(logits=rng.normal(0, 1.5, size=(contexts, vocab)))

    def random_seq():
        length = int(rng.integers(1, 7))
        ctx = rng.integers(0, contexts, size=length).tolist()
        tok = rng.integers(0, vocab, size=length).tolist()
        return ctx, tok

    return dpo_policy_grad_check(policy, ref, random_seq(), random_seq(), beta)

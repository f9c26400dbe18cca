import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbforge.errors import EmptyInput, IndexOutOfRange, NonPositiveBeta
from tbforge.dpo import (
    PairLogProbs,
    TabularPolicy,
    dpo_grad,
    dpo_loss,
    dpo_policy_grad,
    random_grad_check,
    sequence_logprob,
    sft_loss,
)
from tbforge.metrics import SequenceLogProb, perplexity


def pair(pc=0.0, rc=0.0, pr=0.0, rr=0.0):
    return PairLogProbs(policy_chosen=pc, ref_chosen=rc,
                        policy_rejected=pr, ref_rejected=rr)


# ---- loss ----

def test_zero_margin_is_ln2():
    assert dpo_loss([pair()], beta=0.1) == pytest.approx(math.log(2), abs=1e-12)


def test_half_unit_diffs_against_arbitrary_precision():
    p = pair(pc=0.5, rc=0.0, pr=-0.5, rr=0.0)
    with mpmath.workdps(60):
        expected = -mpmath.log(mpmath.sigmoid(mpmath.mpf("0.1") * 1))
    assert dpo_loss([p], beta=0.1) == pytest.approx(float(expected), rel=1e-12)


def test_extreme_margins_stay_finite():
    up = pair(pc=1e4)
    down = pair(pr=1e4)
    assert dpo_loss([up], beta=0.1) == pytest.approx(0.0, abs=1e-12)
    big = dpo_loss([down], beta=0.1)
    assert math.isfinite(big)
    # asymptotically linear: loss ~ beta * |margin|
    assert big == pytest.approx(0.1 * 1e4, rel=1e-6)


def test_batch_mean():
    batch = [pair(), pair(pc=100.0)]
    expected = (math.log(2) + dpo_loss([pair(pc=100.0)], 0.1)) / 2
    assert dpo_loss(batch, beta=0.1) == pytest.approx(expected, rel=1e-12)


def test_beta_validation_and_empty():
    with pytest.raises(NonPositiveBeta):
        dpo_loss([pair()], beta=0.0)
    with pytest.raises(NonPositiveBeta):
        dpo_loss([pair()], beta=-1.0)
    with pytest.raises(EmptyInput):
        dpo_loss([], beta=0.1)
    with pytest.raises(ValueError):
        PairLogProbs(float("nan"), 0, 0, 0)


@given(st.floats(min_value=-500, max_value=500))
def test_loss_positive_and_decreasing(margin):
    a = dpo_loss([pair(pc=margin)], beta=0.1)
    b = dpo_loss([pair(pc=margin + 1.0)], beta=0.1)
    assert a >= 0
    assert b <= a


def test_loss_depends_only_on_beta_times_margin():
    a = dpo_loss([pair(pc=10.0)], beta=0.1)
    b = dpo_loss([pair(pc=5.0)], beta=0.2)
    assert a == pytest.approx(b, rel=1e-12)


def test_loss_invariant_under_shared_chosen_shift():
    base = pair(pc=1.0, rc=0.5, pr=-2.0, rr=0.3)
    shifted = pair(pc=1.0 + 7.0, rc=0.5 + 7.0, pr=-2.0, rr=0.3)
    assert dpo_loss([base], 0.1) == pytest.approx(dpo_loss([shifted], 0.1), rel=1e-12)


# ---- gradient coefficients ----

def test_grad_at_zero_margin():
    gc, gr = dpo_grad(pair(), beta=0.1)
    assert gc == pytest.approx(-0.05, abs=1e-12)
    assert gr == pytest.approx(+0.05, abs=1e-12)


@given(st.floats(min_value=-200, max_value=200), st.floats(min_value=0.01, max_value=2))
def test_grad_coefficients_sum_to_zero(margin, beta):
    gc, gr = dpo_grad(pair(pc=margin), beta=beta)
    assert gc + gr == pytest.approx(0.0, abs=1e-15)
    assert gc <= 0 <= gr


def test_grad_matches_finite_differences_of_loss():
    rng = random.Random(3)
    h = 1e-5
    for _ in range(50):
        p = pair(pc=rng.uniform(-30, 30), rc=rng.uniform(-30, 30),
                 pr=rng.uniform(-30, 30), rr=rng.uniform(-30, 30))
        beta = rng.choice([0.05, 0.1, 0.5])
        gc, gr = dpo_grad(p, beta)

        def loss_with(pc=p.policy_chosen, pr=p.policy_rejected):
            return dpo_loss([PairLogProbs(pc, p.ref_chosen, pr, p.ref_rejected)], beta)

        fd_c = (loss_with(pc=p.policy_chosen + h) - loss_with(pc=p.policy_chosen - h)) / (2 * h)
        fd_r = (loss_with(pr=p.policy_rejected + h) - loss_with(pr=p.policy_rejected - h)) / (2 * h)
        assert gc == pytest.approx(fd_c, rel=1e-6, abs=1e-9)
        assert gr == pytest.approx(fd_r, rel=1e-6, abs=1e-9)


def test_swap_chosen_rejected_negates_margin_and_swaps_grads():
    p = pair(pc=2.0, rc=0.5, pr=-1.0, rr=0.25)
    swapped = PairLogProbs(policy_chosen=p.policy_rejected, ref_chosen=p.ref_rejected,
                           policy_rejected=p.policy_chosen, ref_rejected=p.ref_chosen)
    assert swapped.margin == pytest.approx(-p.margin)
    gc, gr = dpo_grad(p, 0.1)
    gc2, gr2 = dpo_grad(swapped, 0.1)
    # within each pair the coefficients are negatives of each other,
    # and sigma(-x) + sigma(x) = 1 links the two orderings
    assert gc == pytest.approx(-gr, rel=1e-12)
    assert gc2 == pytest.approx(-gr2, rel=1e-12)
    assert gr + gr2 == pytest.approx(0.1, rel=1e-12)


# ---- tabular policy ----

def test_uniform_sequence_logprob():
    policy = TabularPolicy(logits=np.zeros((2, 4)))
    value = sequence_logprob(policy, [0, 1, 0], [3, 2, 1])
    assert value == pytest.approx(3 * math.log(1 / 4), rel=1e-12)


def test_dominant_logit_near_zero_loss():
    logits = np.full((1, 4), -30.0)
    logits[0, 2] = 30.0
    policy = TabularPolicy(logits=logits)
    assert sequence_logprob(policy, [0], [2]) == pytest.approx(0.0, abs=1e-12)


def test_sequence_logprob_against_independent_softmax():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(3, 5))
    policy = TabularPolicy(logits=logits)
    ctx, tok = [2, 0, 1, 2], [4, 0, 3, 1]
    expected = 0.0
    for c, t in zip(ctx, tok):
        probs = np.exp(logits[c]) / np.exp(logits[c]).sum()
        expected += math.log(probs[t])
    assert sequence_logprob(policy, ctx, tok) == pytest.approx(expected, rel=1e-10)


def test_index_out_of_range():
    policy = TabularPolicy(logits=np.zeros((2, 2)))
    with pytest.raises(IndexOutOfRange):
        sequence_logprob(policy, [2], [0])
    with pytest.raises(IndexOutOfRange):
        sequence_logprob(policy, [0], [5])


TABLE = [[0.5, -1.0, 2.0], [3.0, 0.0, -0.25]]


@pytest.mark.parametrize("make", [np.array, list, lambda rows: tuple(map(tuple, rows))],
                         ids=["numpy", "lists", "tuples"])
def test_policy_takes_any_2d_numeric_sequence(make):
    policy = TabularPolicy(logits=make(TABLE))
    assert policy.logits == tuple(map(tuple, TABLE))
    assert policy.log_probs() == TabularPolicy(logits=TABLE).log_probs()


@pytest.mark.parametrize("logits, message", [
    ([[1.0, 2.0], [3.0]], r"2-D \(contexts x vocab\)"),
    ([], r"2-D \(contexts x vocab\)"),
    ([[]], r"2-D \(contexts x vocab\)"),
    (np.zeros((0, 3)), r"2-D \(contexts x vocab\)"),
    ([1.0, 2.0], r"2-D \(contexts x vocab\)"),
    (np.zeros((2, 2, 2)), r"2-D \(contexts x vocab\)"),
    ([[0.0, float("nan")]], "finite"),
    (np.array([[np.inf, 0.0]]), "finite"),
], ids=["ragged", "no-rows", "empty-row", "numpy-empty", "1-D", "3-D", "nan", "inf"])
def test_policy_rejects_logits_that_are_not_a_finite_table(logits, message):
    with pytest.raises(ValueError, match=f"^logits must be {message}$"):
        TabularPolicy(logits=logits)


def test_policy_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    policy = TabularPolicy(logits=rng.normal(size=(4, 6)) * 3)
    sums = np.exp(policy.log_probs()).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


# ---- SFT loss ----

def test_sft_uniform_policy():
    policy = TabularPolicy(logits=np.zeros((2, 4)))
    dataset = [([0, 1], [0, 1]), ([1], [3])]
    assert sft_loss(policy, dataset) == pytest.approx(math.log(4), rel=1e-12)


def test_sft_exp_equals_perplexity():
    rng = np.random.default_rng(21)
    policy = TabularPolicy(logits=rng.normal(size=(3, 5)))
    dataset = []
    flat = []
    for _ in range(4):
        length = rng.integers(1, 6)
        ctx = rng.integers(0, 3, size=length).tolist()
        tok = rng.integers(0, 5, size=length).tolist()
        dataset.append((ctx, tok))
        log_probs = policy.log_probs()
        flat.extend(float(log_probs[c][t]) for c, t in zip(ctx, tok))
    seq = SequenceLogProb(token_logprobs=tuple(flat))
    assert math.exp(sft_loss(policy, dataset)) == pytest.approx(
        perplexity(seq), rel=1e-12)


def test_sft_random_fixture_against_recomputation():
    rng = np.random.default_rng(33)
    logits = rng.normal(size=(2, 3))
    policy = TabularPolicy(logits=logits)
    dataset = [([0, 1, 0], [2, 1, 0])]
    expected = 0.0
    for c, t in zip(*dataset[0]):
        row = np.exp(logits[c]) / np.exp(logits[c]).sum()
        expected -= math.log(row[t])
    assert sft_loss(policy, dataset) == pytest.approx(expected / 3, rel=1e-10)


def test_sft_empty_dataset():
    with pytest.raises(EmptyInput):
        sft_loss(TabularPolicy(logits=np.zeros((1, 2))), [])


# ---- end-to-end gradient checks ----

def test_policy_grad_check_small():
    assert random_grad_check(seed=42) < 1e-5


def test_grad_check_many_seeds():
    worst = max(random_grad_check(seed) for seed in range(30))
    assert worst < 1e-5


def test_identical_sequences_zero_gradient_ln2_loss():
    rng = np.random.default_rng(8)
    policy = TabularPolicy(logits=rng.normal(size=(3, 4)))
    ref = TabularPolicy(logits=rng.normal(size=(3, 4)))
    seq = ([0, 1, 2], [1, 2, 3])
    logp = sequence_logprob(policy, *seq)
    ref_logp = sequence_logprob(ref, *seq)
    p = PairLogProbs(logp, ref_logp, logp, ref_logp)
    assert dpo_loss([p], 0.1) == pytest.approx(math.log(2), abs=1e-12)
    grad = dpo_policy_grad(policy, ref, seq, seq, beta=0.1)
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_beta_z_invariance_through_policies():
    rng = np.random.default_rng(13)
    policy = TabularPolicy(logits=rng.normal(size=(2, 3)))
    ref = TabularPolicy(logits=rng.normal(size=(2, 3)))
    chosen = ([0, 1], [0, 2])
    rejected = ([1, 0], [1, 1])
    p = PairLogProbs(
        sequence_logprob(policy, *chosen), sequence_logprob(ref, *chosen),
        sequence_logprob(policy, *rejected), sequence_logprob(ref, *rejected))
    doubled = PairLogProbs(p.policy_chosen / 2 + p.ref_chosen / 2, p.ref_chosen,
                           p.policy_rejected / 2 + p.ref_rejected / 2, p.ref_rejected)
    # halving the margin and doubling beta leaves the loss unchanged
    assert doubled.margin == pytest.approx(p.margin / 2)
    assert dpo_loss([p], 0.1) == pytest.approx(dpo_loss([doubled], 0.2), rel=1e-9)

import math
import random
from itertools import combinations

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbforge.errors import EmptyInput, KExceedsN
from tbforge.metrics import (
    SequenceLogProb,
    TaskResults,
    pass_at_k,
    pass_at_single,
    perplexity,
)


def task(n, c_func, c_syn=None, name="t"):
    return TaskResults(task=name, n=n, c_syntax=c_syn if c_syn is not None else c_func,
                       c_function=c_func)


# ---- pass@k ----

def enumeration_oracle(n, c, k):
    """Count k-subsets containing at least one of the first c trials."""
    correct = set(range(c))
    hits = 0
    total = 0
    for subset in combinations(range(n), k):
        total += 1
        if not correct.isdisjoint(subset):
            hits += 1
    return hits / total


def test_zero_correct():
    assert pass_at_k([task(20, 0)], k=5) == 0.0


def test_all_correct():
    assert pass_at_k([task(20, 20)], k=1) == 1.0


def test_k1_closed_form():
    assert pass_at_k([task(20, 10)], k=1) == 0.5


def test_derived_n12_c5_k3():
    got = pass_at_single(12, 5, 3)
    assert got == pytest.approx(enumeration_oracle(12, 5, 3), abs=1e-12)


def test_mean_over_tasks():
    tasks = [task(10, 0), task(10, 10)]
    assert pass_at_k(tasks, k=1) == pytest.approx(0.5)


def test_k_exceeds_n():
    with pytest.raises(KExceedsN):
        pass_at_k([task(5, 2)], k=6)


def test_mode_selects_counts():
    tasks = [task(10, 2, c_syn=8)]
    assert pass_at_k(tasks, k=1, mode="syntax") == pytest.approx(0.8)
    assert pass_at_k(tasks, k=1, mode="function") == pytest.approx(0.2)


def test_function_never_exceeds_syntax():
    rng = random.Random(5)
    tasks = []
    for i in range(40):
        n = rng.randint(1, 15)
        c_syn = rng.randint(0, n)
        c_fun = rng.randint(0, c_syn)
        tasks.append(task(n, c_fun, c_syn, name=f"t{i}"))
    for k in (1, 2, 3):
        usable = [t for t in tasks if t.n >= k]
        assert pass_at_k(usable, k, "function") <= pass_at_k(usable, k, "syntax")


def test_no_overflow_at_large_n():
    value = pass_at_single(10_000, 5_000, 100)
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(1.0, abs=1e-12)  # overwhelmingly likely to hit


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=0, max_value=n),
                        st.integers(min_value=1, max_value=n))))
def test_monotone_in_k_and_c(args):
    n, c, k = args
    if k < n:
        assert pass_at_single(n, c, k) <= pass_at_single(n, c, k + 1) + 1e-15
    if c < n:
        assert pass_at_single(n, c, k) <= pass_at_single(n, c + 1, k) + 1e-15


def test_validation():
    with pytest.raises(ValueError):
        task(5, 6)
    with pytest.raises(ValueError):
        TaskResults(task="x", n=5, c_syntax=2, c_function=3)
    with pytest.raises(EmptyInput):
        pass_at_k([], k=1)
    with pytest.raises(ValueError):
        pass_at_k([task(5, 1)], k=1, mode="bogus")


# ---- perplexity ----

def test_uniform_logprobs():
    vocab = 50
    seq = SequenceLogProb(token_logprobs=(-math.log(vocab),) * 7)
    assert perplexity(seq) == pytest.approx(vocab, rel=1e-12)


def test_certain_model():
    seq = SequenceLogProb(token_logprobs=(0.0, 0.0, 0.0))
    assert perplexity(seq) == 1.0


def test_mixed_fixture_against_arbitrary_precision():
    rng = random.Random(99)
    logps = tuple(-rng.uniform(0.01, 8.0) for _ in range(25))
    seq = SequenceLogProb(token_logprobs=logps)
    with mpmath.workdps(60):
        expected = mpmath.e ** (-mpmath.fsum(map(mpmath.mpf, logps)) / len(logps))
        assert perplexity(seq) == pytest.approx(float(expected), rel=1e-12)


@given(st.lists(st.floats(min_value=-20, max_value=0), min_size=1, max_size=30))
def test_perplexity_permutation_invariant(logps):
    seq = SequenceLogProb(token_logprobs=tuple(logps))
    shuffled = SequenceLogProb(token_logprobs=tuple(reversed(logps)))
    assert perplexity(seq) == pytest.approx(perplexity(shuffled), rel=1e-12)
    assert perplexity(seq) >= 1.0


def test_sequence_logprob_validation():
    with pytest.raises(ValueError):
        SequenceLogProb(token_logprobs=())
    with pytest.raises(ValueError):
        SequenceLogProb(token_logprobs=(0.5,))
    with pytest.raises(ValueError):
        SequenceLogProb(token_logprobs=(-1.0,), length=5)


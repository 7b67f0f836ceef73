"""The first-passage stack steps four tridiagonal kernels per product.

Between checkpoints, a stack whose kernels are all tridiagonal multiplies
by ``K_a K_b K_c K_d``, formed from the diagonals of four consecutive
kernels, and by the product of the last one to three kernels where a
stride's length is not a multiple of four. The factors are checked against
the dense products; ``first_passages`` on random tridiagonal sequences is
checked against the stepwise ``walk``: the same hit time, values within
``merging._passage_bound`` of the stepwise ones, and each stacked result
equal, bit for bit, to its sequence walked alone, with hits placed at
every kind of step of a measured window and of a stride, and ``n_max`` at
each residue modulo four.
"""

import functools
import math

import numpy as np
import pytest

from mclab import KernelSequence, StateSpace, StochasticKernel
from mclab import merging
from mclab.chain_core import UNIT_ROUNDOFF, walk
from mclab.merging import first_passage, first_passages, relsup_between_rows, tv_between_rows

from conftest import random_kernel

# state count: a horizon at which both distances are still away from 0 and (TV) from 1;
# at 129 states each product is formed in column blocks
HORIZONS = {3: 40, 4: 40, 9: 60, 17: 96, 33: 160, 65: 290, 129: 560}
MEASURE = {"tv": tv_between_rows, "relsup": relsup_between_rows}


def tridiagonal_kernels(n, count, rng):
    """Random birth-death kernels drifting up: holding in [0.3, 0.7], up over down in [1.1, 2]."""
    space, states = StateSpace(n), np.arange(n)
    kernels = []
    for _ in range(count):
        hold = rng.uniform(0.3, 0.7, n)
        ratio = rng.uniform(1.1, 2.0, n)
        down = (1.0 - hold) / (1.0 + ratio)
        up = ratio * down
        entries = np.diag(hold)
        entries[states[:-1], states[1:]] = up[:-1]
        entries[states[1:], states[:-1]] = down[1:]
        entries[0, 0] += down[0]
        entries[-1, -1] += up[-1]
        kernels.append(StochasticKernel(space, entries))
    return kernels


def sequence(kind, n, seed):
    kernels = tridiagonal_kernels(n, 4, np.random.default_rng(1000 * n + seed))
    if kind == "iid":
        return KernelSequence.iid(kernels, seed=seed)
    return KernelSequence.cyclic(kernels, word=[0, 1, 1, 2, 3])


def stepwise(seq, epsilon, metric, n_max):
    """The reference: ``walk`` from the identity, the metric evaluated at every step."""
    measure = MEASURE[metric]
    i, p = 0, np.eye(seq.space.size)
    value = measure(p)
    if value > epsilon:
        for i, p, _ in walk(seq, range(1, n_max + 1)):
            value = measure(p)
            if value <= epsilon:
                break
    return i if value <= epsilon else None, tv_between_rows(p), relsup_between_rows(p)


def assert_within_bound(got, expected, n, n_max):
    assert got[0] == expected[0]
    delta = merging._passage_bound(n_max if got[0] is None else got[0], n)
    assert abs(got[1] - expected[1]) <= delta
    assert abs(got[2] - expected[2]) <= delta * (1 + expected[2])


def gamma(k):
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


# by the number of kernels a factor holds: how far its entries may lie from
# the exact product's, and how far those of a float64 fold of its kernels
# may. A formed pair's entry sums at most 3 products (γ_3); a factor's
# entry sums at most 5 products of two formed pairs' entries (γ_3 twice,
# then γ_5), or 3 where the second pair is one kernel padded with the
# identity, which adds no rounding; each step of the fold sums at most 3
# nonzero terms an entry
FORMED = {1: 0.0, 2: gamma(3), 3: gamma(6), 4: gamma(11)}
FOLDED = {1: 0.0, 2: gamma(3), 3: gamma(6), 4: gamma(9)}


@pytest.mark.parametrize("tail", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 17, 33, 65, 129])
def test_quad_factors_are_the_products_of_four_consecutive_kernels(n, tail):
    rng = np.random.default_rng(n)
    seqs = [KernelSequence.cyclic(tridiagonal_kernels(n, 4, rng)) for _ in range(2)]
    rows, cols = np.indices((n, n))
    # two factors of four kernels a slice, then the tail's kernels alone
    indices = [rng.integers(0, 4, 8 + tail) for _ in seqs]
    factors = merging._quad_factors(seqs, [0, 1], n)([0, 1], indices)
    for j, factor in enumerate(factors):
        assert factor.shape == (2, n, n)
        for s, (seq, idx) in enumerate(zip(seqs, indices)):
            kernels = [seq.kernels[k].entries for k in idx[4 * j:4 * j + 4]]
            fold = functools.reduce(np.matmul, kernels)
            if len(kernels) == 1:  # padded with the identity: the kernel exactly
                assert np.array_equal(factor[s], fold)
            # |factor − exact| ≤ FORMED·exact and |fold − exact| ≤ FOLDED·exact
            bound = (FORMED[len(kernels)] + FOLDED[len(kernels)]) / (1 - FOLDED[len(kernels)])
            assert np.all(np.abs(factor[s] - fold) <= bound * fold)
            assert not factor[s][np.abs(rows - cols) > len(kernels)].any()
    assert j == 1 + (tail > 0)


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("n", sorted(HORIZONS))
@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", ["iid", "cyclic"])
def test_values_at_the_horizon(kind, metric, n, odd):
    # a threshold of 0 is never reached: the values at n_max come from the stack
    seq, n_max = sequence(kind, n, 1), HORIZONS[n] + odd
    *_, (_, p, _) = walk(seq, range(1, n_max + 1))
    expected = None, tv_between_rows(p), relsup_between_rows(p)
    assert 0 < expected[1] < 1 and 0 < expected[2] < math.inf
    assert_within_bound(first_passage(seq, 0.0, metric, n_max), expected, n, n_max)


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("n", [3, 4, 9, 17, 33, 65])
@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", ["iid", "cyclic"])
def test_hit_times(kind, metric, n, odd):
    # a threshold between two stepwise values: the hit is decided from a checkpoint of the stack
    seq, n_max = sequence(kind, n, 2), HORIZONS[n] + odd
    hit = 3 * n_max // 5
    values = [MEASURE[metric](p) for _, p, _ in walk(seq, range(1, hit + 1))]
    assert values[-2] > values[-1]
    epsilon = 0.5 * (values[-2] + values[-1])
    expected = stepwise(seq, epsilon, metric, n_max)
    assert expected[0] == hit
    assert_within_bound(first_passage(seq, epsilon, metric, n_max), expected, n, n_max)


@pytest.mark.parametrize("n", [3, 9, 17, 33, 65])
@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_stacked_quads_equal_each_sequence_alone(metric, n, monkeypatch):
    # tridiagonal sequences of both rules with one dense sequence in the same
    # batch: the dense one walks a kernel a step, alone
    seqs = [sequence(kind, n, seed) for seed in range(3) for kind in ("iid", "cyclic")]
    seqs.insert(2, KernelSequence.iid([random_kernel(np.random.default_rng(n), n)
                                       for _ in range(2)], seed=5))
    n_max = HORIZONS[n] + 1
    epsilon = 0.5 if metric == "tv" else 50.0
    alone = [first_passage(seq, epsilon, metric, n_max) for seq in seqs]
    widths, quads = [], []
    batch, quad_factors = merging._passage_batch, merging._quad_factors

    def batch_spy(batch_seqs, *args):
        widths.append(len(batch_seqs))
        return batch(batch_seqs, *args)

    def quad_spy(batch_seqs, members, size):
        quads.append(list(members))
        return quad_factors(batch_seqs, members, size)

    monkeypatch.setattr(merging, "_passage_batch", batch_spy)
    monkeypatch.setattr(merging, "_quad_factors", quad_spy)
    assert first_passages(seqs, epsilon, metric, n_max) == alone
    if n < 33:  # from 33 states the window arrays of six sequences pass the byte cap
        assert widths == [len(seqs)] and quads == [[0, 1, 3, 4, 5, 6]]
    assert any(t is not None for t, _, _ in alone)


WINDOW = merging._PASSAGE_BLOCK * merging._PASSAGE_STRIDE


@pytest.mark.parametrize("place", ["first stride", "last stride", "window end", "n_max inside"])
@pytest.mark.parametrize("n", [17, 33, 65])
@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", ["iid", "cyclic"])
def test_hits_across_a_measured_window(kind, metric, n, place):
    # the stack is measured at 64 and 128 only, then at each stride of the
    # window holding n_max; a hit in the second window is found by walking
    # that window again, stride by stride
    seq = sequence(kind, n, 3)
    n_max = 2 * WINDOW + 37
    hit = {"first stride": WINDOW + 5, "last stride": 2 * WINDOW - 3, "window end": 2 * WINDOW,
           "n_max inside": 2 * WINDOW + 21}[place]
    values = [MEASURE[metric](p) for _, p, _ in walk(seq, range(1, hit + 1))]
    assert values[-2] > values[-1] > 1e-12
    epsilon = 0.5 * (values[-2] + values[-1])
    expected = stepwise(seq, epsilon, metric, n_max)
    assert expected[0] == hit
    got = first_passage(seq, epsilon, metric, n_max)
    assert_within_bound(got, expected, n, n_max)
    assert_within_bound(first_passage(seq, 0.0, metric, n_max), stepwise(seq, 0.0, metric, n_max),
                        n, n_max)
    # its mates walk on past the hit's window, or finish in it
    seqs = [sequence(other, n, seed) for seed in (4, 5) for other in ("iid", "cyclic")]
    seqs.insert(1, seq)
    assert first_passages(seqs, epsilon, metric, n_max) == \
        [first_passage(s, epsilon, metric, n_max) for s in seqs]


def hit_at(seq, metric, hit):
    """A threshold between the stepwise values at steps ``hit − 1`` and ``hit``."""
    values = [MEASURE[metric](p) for _, p, _ in walk(seq, range(1, hit + 1))]
    assert values[-2] > values[-1] > 1e-12
    return 0.5 * (values[-2] + values[-1])


@pytest.mark.parametrize("residue", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [9, 33])
@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", ["iid", "cyclic"])
def test_n_max_at_each_residue_mod_four(kind, metric, n, residue):
    # the stride ending at n_max takes two factors of four kernels and, for
    # a residue r > 0, one of r kernels; the hit at n_max lies in its last
    seq, n_max = sequence(kind, n, 6), WINDOW + 8 + residue
    assert_within_bound(first_passage(seq, 0.0, metric, n_max), stepwise(seq, 0.0, metric, n_max),
                        n, n_max)
    epsilon = hit_at(seq, metric, n_max)
    expected = stepwise(seq, epsilon, metric, n_max)
    assert expected[0] == n_max
    assert_within_bound(first_passage(seq, epsilon, metric, n_max), expected, n, n_max)


@pytest.mark.parametrize("step", [1, 4, 13, 16])
@pytest.mark.parametrize("n", [9, 33])
@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", ["iid", "cyclic"])
def test_hits_in_the_first_and_last_factor_of_a_stride(kind, metric, n, step):
    # steps 1-4 of a stride form its first factor and steps 13-16 its last;
    # the stride is the second of the second window, before n_max's
    seq = sequence(kind, n, 7)
    n_max, hit = 3 * WINDOW, WINDOW + merging._PASSAGE_STRIDE + step
    epsilon = hit_at(seq, metric, hit)
    expected = stepwise(seq, epsilon, metric, n_max)
    assert expected[0] == hit
    assert_within_bound(first_passage(seq, epsilon, metric, n_max), expected, n, n_max)
    seqs = [sequence(other, n, seed) for seed in (8, 9) for other in ("iid", "cyclic")]
    seqs.insert(2, seq)
    assert first_passages(seqs, epsilon, metric, n_max) == \
        [first_passage(s, epsilon, metric, n_max) for s in seqs]

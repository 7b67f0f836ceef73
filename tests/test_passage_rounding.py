"""The strided first passage against a stepwise ``walk``, under its rounding bound.

``first_passage`` multiplies between checkpoints without renormalizing, so
its matrices differ from the stepwise walk's in the last bits. Its contract:
the hit time is the stepwise walk's, ``tv`` and ``relsup`` lie within
``δ = merging._passage_bound(stop, N)`` of the stepwise values (relative to
``1 + value`` for relative-sup), and a threshold that the stepwise walk
reaches exactly sends the sequence down the stepwise route, whose result is
the reference's bit for bit.
"""

import math

import numpy as np
import pytest

from mclab import KernelSequence, StateSpace, StochasticKernel
from mclab import merging
from mclab.chain_core import walk
from mclab.merging import first_passage, relsup_between_rows, tv_between_rows

SIZES = [3, 9, 33, 65]
STRIDE = merging._PASSAGE_STRIDE
N_MAX = 120
# mid-stride, just before a checkpoint and at a checkpoint: in the first stride and later
STEPS = [7, STRIDE - 1, STRIDE, 5 * STRIDE + 7, 6 * STRIDE - 1, 5 * STRIDE]
MEASURE = {"tv": tv_between_rows, "relsup": relsup_between_rows}


def lazy_kernels(n, count, seed, hold=0.94):
    """Dense kernels that hold with probability ``hold``: distances fall by a few percent a step."""
    rng = np.random.default_rng(seed)
    space = StateSpace(n)
    return [StochasticKernel(space, hold * np.eye(n) + (1 - hold) * rng.dirichlet(np.ones(n), n))
            for _ in range(count)]


def sequence(kind, n, seed=0):
    seed = n + 1000 * seed
    if kind == "cyclic":
        return KernelSequence.cyclic(lazy_kernels(n, 3, seed), word=[0, 1, 1, 2])
    if kind == "explicit":
        return KernelSequence.explicit(lazy_kernels(n, 5, seed + 1))
    return KernelSequence.iid(lazy_kernels(n, 3, seed + 2), seed=seed)


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


def trajectory(seq, metric, n):
    measure = MEASURE[metric]
    return [measure(np.eye(seq.space.size))] + [measure(p) for _, p, _ in
                                                walk(seq, range(1, n + 1))]


def assert_within_bound(got, expected, n_max, n):
    assert got[0] == expected[0]
    delta = merging._passage_bound(n_max if got[0] is None else got[0], n)
    assert abs(got[1] - expected[1]) <= delta
    if math.isinf(expected[2]):
        assert got[2] == expected[2]
    else:
        assert abs(got[2] - expected[2]) <= delta * (1 + expected[2])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", ["cyclic", "explicit", "iid"])
def test_threshold_at_a_stepwise_value_takes_the_stepwise_route(kind, metric, n):
    seq = sequence(kind, n)
    traj = trajectory(seq, metric, N_MAX)
    assert all(a > b for a, b in zip(traj[1:], traj[2:]))  # every step a first passage
    for step in STEPS:
        expected = stepwise(seq, traj[step], metric, N_MAX)
        assert expected[0] == step
        assert first_passage(seq, traj[step], metric, N_MAX) == expected


@pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (3, 2), (3, 3), (9, 0)])
@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", ["cyclic", "explicit", "iid"])
def test_every_stepwise_value_at_few_states(kind, metric, n, seed):
    # at few states the two walks differ most against δ (a few thousandths
    # of it here), so every step is tried as the threshold
    seq = sequence(kind, n, seed)
    measure = MEASURE[metric]
    expected = [(i, tv_between_rows(p), relsup_between_rows(p), measure(p))
                for i, p, _ in walk(seq, range(1, N_MAX + 1))]
    assert all(a[3] > b[3] for a, b in zip(expected, expected[1:]))
    for i, tv, relsup, value in expected:
        assert first_passage(seq, value, metric, N_MAX) == (i, tv, relsup)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", ["cyclic", "explicit", "iid"])
def test_threshold_between_stepwise_values(kind, metric, n):
    # away from every computed value the fast walk decides alone, within δ
    seq = sequence(kind, n)
    traj = trajectory(seq, metric, N_MAX)
    for step in STEPS:
        epsilon = 0.5 * (traj[step - 1] + traj[step])
        expected = stepwise(seq, epsilon, metric, N_MAX)
        assert expected[0] == step
        assert_within_bound(first_passage(seq, epsilon, metric, N_MAX), expected, N_MAX, n)
    never = 0.5 * traj[N_MAX]
    got = first_passage(seq, never, metric, N_MAX)
    assert got[0] is None
    assert_within_bound(got, stepwise(seq, never, metric, N_MAX), N_MAX, n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_threshold_inside_the_band(metric, n):
    # the checkpoint lies within 2δ above epsilon: its stride is walked again
    # and the hit is the first step of the next stride
    seq = sequence("cyclic", n)
    checkpoint = 5 * STRIDE
    value = trajectory(seq, metric, checkpoint)[checkpoint]
    scale = 1.0 if metric == "tv" else 1.0 + value
    epsilon = value - 1.5 * merging._passage_bound(checkpoint, n) * scale
    expected = stepwise(seq, epsilon, metric, N_MAX)
    assert expected[0] == checkpoint + 1
    assert_within_bound(first_passage(seq, epsilon, metric, N_MAX), expected, N_MAX, n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_a_kernel_failing_the_drift_screen_raises_at_its_step(metric, n):
    space = StateSpace(n)
    good = lazy_kernels(n, 1, n)[0]
    heavy = StochasticKernel._unchecked(space, good.entries * (1 + 1e-10))
    for step in (7, 2 * STRIDE, 3 * STRIDE + 9):
        seq = KernelSequence.explicit([good] * (step - 1) + [heavy])
        message = f"row-sum drift 1.00e-10 at step {step}"
        with pytest.raises(ArithmeticError, match=message):
            stepwise(seq, 1e-6, metric, N_MAX)
        with pytest.raises(ArithmeticError, match=message):
            first_passage(seq, 1e-6, metric, N_MAX)


def test_the_bound_grows_with_steps_and_states():
    u = 2.0 ** -53
    assert merging._passage_bound(400, 9) == pytest.approx(32 * 402 * 10 * u, rel=1e-6)
    assert merging._passage_bound(10 ** 5, 65) < 2.5e-8
    assert merging._passage_bound(17, 9) < merging._passage_bound(18, 9) < \
        merging._passage_bound(18, 10)

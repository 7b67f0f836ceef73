import numpy as np
import pytest

from mclab import StateSpace, StochasticKernel


def random_kernel(rng, n, zero_prob=0.0, low=0.05):
    """Random row-stochastic kernel; optional sparsification keeps rows valid."""
    m = rng.uniform(low, 1.0, (n, n))
    if zero_prob > 0:
        m = np.where(rng.random((n, n)) < zero_prob, 0.0, m)
        for i in range(n):
            if m[i].sum() == 0:
                m[i, i] = 1.0
    return StochasticKernel(StateSpace(n), m / m.sum(axis=1, keepdims=True))


def random_reversible_kernel(rng, n, lazy=0.2):
    """Reversible kernel from random symmetric conductances plus holding."""
    c = rng.uniform(0.2, 1.0, (n, n))
    c = 0.5 * (c + c.T)
    k = c / c.sum(axis=1, keepdims=True)
    m = lazy * np.eye(n) + (1 - lazy) * k
    # detailed balance w.r.t. row sums of c holds for k and survives the lazy mix
    return StochasticKernel(StateSpace(n), m)


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


def all_pairs_tv(matrix):
    """Worst-pair total variation over every pair of rows, without the cap at 1.

    Each row is compared with every later row, one contiguous L1 sum per
    pair, so the value is the literal pair loop's bit for bit.
    """
    n = matrix.shape[0]
    return max((0.5 * float(np.abs(matrix[i + 1:] - matrix[i]).sum(axis=1).max())
                for i in range(n - 1)), default=0.0)

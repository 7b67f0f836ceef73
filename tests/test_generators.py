"""Kernel generators against the per-site loops they replace, byte for byte.

``zoo._tridiagonal`` fills its three diagonals by strided assignment, and
the scenario generators draw their random rates in blocks. Each test keeps
the loop the generator was first written as and checks the fast form
against it: the same entries, and for random generators the same
generator state and next draw afterwards.
"""

import math

import numpy as np
import pytest

from mclab import StateSpace, StochasticKernel, constant_rate_bd, general_bd, scenarios
from mclab.rng import fold_path, substream

SIZES = [1, 2, 16, 64]


def loop_tridiagonal(up, down, hold):
    """The birth-death kernel as a per-site loop; ``up[N]`` and ``down[0]`` are not read."""
    n = len(hold) - 1
    k = np.zeros((n + 1, n + 1))
    for x in range(n + 1):
        if x < n:
            k[x, x + 1] = up[x]
        if x > 0:
            k[x, x - 1] = down[x]
        k[x, x] = hold[x]
    return StochasticKernel(StateSpace(n + 1), k)


def same_kernel(a, b):
    return a.space == b.space and a.entries.tobytes() == b.entries.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p, q, r", [(0.54, 0.36, 0.1), (0.1, 0.7, 0.2), (0.0, 0.7, 0.3),
                                     (1 / 3, 1 / 3, 1 / 3)])
def test_constant_rate_bd_is_the_site_loop(n, p, q, r):
    reference = loop_tridiagonal([p] * n, [q] * (n + 1), [r + q] + [r] * (n - 1) + [r + p])
    assert same_kernel(constant_rate_bd(n, p, q, r), reference)


@pytest.mark.parametrize("n", SIZES)
def test_general_bd_is_the_site_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        up = rng.uniform(0.05, 0.5, n + 1)
        down = rng.uniform(0.05, 0.5, n + 1)
        up[n] = down[0] = 0.0
        spec = general_bd(n, up, down)
        reference = loop_tridiagonal(up, down, 1.0 - up - down)
        assert same_kernel(spec.kernel, reference)
        entries = reference.entries
        band = entries[np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1))) <= 1]
        assert spec.within_rate_band == bool((band >= 0.25 - 1e-15).all()
                                             and (band <= 0.75 + 1e-15).all())


def test_kernels_of_one_size_share_one_space():
    assert constant_rate_bd(9, 0.4, 0.3, 0.3).space is constant_rate_bd(9, 0.3, 0.4, 0.3).space
    assert constant_rate_bd(9, 0.4, 0.3, 0.3).space == StateSpace(10)


def test_entries_are_read_only():
    k = constant_rate_bd(4, 0.4, 0.3, 0.3)
    with pytest.raises(ValueError):
        k.entries[0, 0] = 0.5
    matrix = np.full((3, 3), 1 / 3)
    kernel = StochasticKernel(StateSpace(3), matrix)
    matrix[0, 0] = 0.9  # the caller's array is not the stored one
    assert kernel.entries[0, 0] == 1 / 3


def loop_banded_chain(n, rng):
    """``_sample_banded_chain`` as first written: one (u, d) pair per draw."""
    for _ in range(10000):
        up = np.zeros(n + 1)
        down = np.zeros(n + 1)
        up[0] = rng.uniform(0.25, 0.75)
        down[n] = rng.uniform(0.25, 0.75)
        for x in range(1, n):
            while True:
                u, d = rng.uniform(0.25, 0.5, size=2)
                if u + d <= 0.75:
                    up[x], down[x] = u, d
                    break
        spec = general_bd(n, up, down)
        if spec.within_rate_band and spec.within_measure_band:
            return spec
    raise RuntimeError("could not sample a chain in the target class")


def plain(state):
    """A bit generator's state with its arrays as lists, so ``==`` compares every field."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def assert_same_stream_after(fast, slow):
    assert plain(fast.bit_generator.state) == plain(slow.bit_generator.state)
    assert fast.random() == slow.random()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_banded_chain_is_the_pair_loop(n):
    for seed in range(20):
        fast, slow = substream(seed, fold_path(n)), substream(seed, fold_path(n))
        spec, reference = scenarios._sample_banded_chain(n, fast), loop_banded_chain(n, slow)
        assert spec.up.tobytes() == reference.up.tobytes()
        assert spec.down.tobytes() == reference.down.tobytes()
        assert same_kernel(spec.kernel, reference.kernel)
        assert spec.reversible_measure.weights.tobytes() == \
            reference.reversible_measure.weights.tobytes()
        assert_same_stream_after(fast, slow)


def test_accepted_pairs_across_several_blocks():
    # a block holds 2 * count + 8 pairs, about half of them accepted, so
    # some of these counts need a second block
    second_blocks = 0
    for count in range(0, 41):
        for seed in range(6):
            fast, slow = substream(seed, count), substream(seed, count)
            first_block = substream(seed, count).uniform(0.25, 0.5, size=(2 * count + 8, 2))
            second_blocks += int((first_block.sum(axis=1) <= 0.75).sum() < count)
            expected = []
            while len(expected) < count:
                u, d = slow.uniform(0.25, 0.5, size=2)
                if u + d <= 0.75:
                    expected.append((u, d))
            pairs = scenarios._accepted_pairs(count, fast)
            assert pairs.shape == (count, 2)
            assert pairs.tobytes() == np.array(expected, dtype=float).reshape(-1, 2).tobytes()
            assert_same_stream_after(fast, slow)
    assert second_blocks > 0


def loop_bd_ratio_set(params, n, rng):
    """``_gen_bd_ratio_set`` as first written: two scalar draws per kernel."""
    lo, hi = params["ratio_min"], params["ratio_max"]
    kernels = []
    for _ in range(params["set_size"]):
        ratio = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        r = rng.uniform(0.0, params["hold_max"])
        q = (1.0 - r) / (1.0 + ratio)
        kernels.append(constant_rate_bd(n, ratio * q, q, r))
    return kernels, int(rng.integers(0, 2 ** 62))


@pytest.mark.parametrize("n", [1, 16, 64])
def test_bd_ratio_set_is_the_scalar_draw_loop(n):
    params = {"ratio_min": 1.2, "ratio_max": 2.0, "hold_max": 0.3, "set_size": 32}
    for seed in range(5):
        fast, slow = substream(seed, fold_path(n)), substream(seed, fold_path(n))
        seq, _ = scenarios._gen_bd_ratio_set(params, {"N": n}, fast)
        kernels, iid_seed = loop_bd_ratio_set(params, n, slow)
        assert seq.seed == iid_seed
        assert all(same_kernel(a, b) for a, b in zip(seq.kernels, kernels, strict=True))
        assert_same_stream_after(fast, slow)

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

from mclab import StateSpace, StochasticKernel, constant_rate_bd, general_bd, general_bd_set, scenarios
from mclab.chain_core import ProbMeasure, VALUE_ATOL
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


def first_general_bd(n, up, down):
    """``general_bd`` as first written, one chain: ``(kernel, measure, rate flag, measure flag)``."""
    up, down = np.asarray(up, dtype=float), np.asarray(down, dtype=float)
    kernel = loop_tridiagonal(up, down, 1.0 - up - down)
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(up[:n]) - np.log(down[1:]))))
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    measure = ProbMeasure(kernel.space, pi / pi.sum())
    flow = measure.weights[:, None] * kernel.entries
    assert np.abs(flow - flow.T).max() <= VALUE_ATOL
    entries = kernel.entries
    active = np.concatenate((entries.diagonal(-1), entries.diagonal(), entries.diagonal(1)))
    rate_band = bool((active >= 0.25 - 1e-15).all() and (active <= 0.75 + 1e-15).all())
    scaled = (n + 1) * measure.weights
    measure_band = bool((scaled >= 0.25 - 1e-15).all() and (scaled <= 4 + 1e-15).all())
    return kernel, measure, rate_band, measure_band


def random_rates(n, count, rng):
    """``count`` rate rows, some inside both class bands and some outside."""
    up = rng.uniform(0.05, 0.5, (count, n + 1))
    down = rng.uniform(0.05, 0.5, (count, n + 1))
    up[::2, 1:n] = down[::2, 1:n] = 0.3  # flat measures: the measure band holds
    up[::3, 0] = down[::3, n] = 0.5
    up[:, n] = down[:, 0] = 0.0
    return up, down


def same_spec(a, b):
    return (same_kernel(a.kernel, b.kernel) and a.N == b.N
            and a.reversible_measure.space is b.reversible_measure.space
            and a.reversible_measure.weights.tobytes() == b.reversible_measure.weights.tobytes()
            and all(getattr(a, key).tobytes() == getattr(b, key).tobytes()
                    for key in ("up", "down", "hold"))
            and (a.within_rate_band, a.within_measure_band) == (b.within_rate_band,
                                                                b.within_measure_band))


@pytest.mark.parametrize("size", [2, 3, 9, 33])
def test_general_bd_set_is_a_loop_of_general_bd(size):
    n, rng = size - 1, np.random.default_rng(size)
    for count in (1, 2, 7):
        up, down = random_rates(n, count, rng)
        specs = general_bd_set(n, up, down)
        loop = [general_bd(n, u, d) for u, d in zip(up, down)]
        assert len(specs) == count and all(map(same_spec, specs, loop))
        for spec, u, d in zip(specs, up, down):
            kernel, measure, rate_band, measure_band = first_general_bd(n, u, d)
            assert same_kernel(spec.kernel, kernel)
            assert spec.reversible_measure.weights.tobytes() == measure.weights.tobytes()
            assert (spec.within_rate_band, spec.within_measure_band) == (rate_band, measure_band)
        # one stack of kernels, and one of measures, each held once and read-only
        base = specs[0].kernel.entries.base
        assert base.shape == (count, n + 1, n + 1) and not base.flags.writeable
        assert all(spec.kernel.entries.base is base for spec in specs)
        assert all(not spec.reversible_measure.weights.flags.writeable for spec in specs)
        if count == 7:  # both flags hold for some chains and fail for others
            assert {spec.within_rate_band for spec in specs} == {False, True}
            assert size < 9 or {spec.within_measure_band for spec in specs} == {False, True}


def bad_rows(n):
    """``(name, up rows, down rows)``: one bad pair after a good one, or two bad pairs."""
    good_up, good_down = [0.3] * n + [0.0], [0.0] + [0.3] * n
    negative = [0.3] * (n - 1) + [-0.1, 0.0]
    nan = [float("nan")] + [0.3] * (n - 1) + [0.0]
    return [
        ("short", [good_up, good_up[1:]], [good_down, good_down[1:]]),
        ("top up", [good_up, [0.3] * (n + 1)], [good_down, good_down]),
        ("negative", [good_up, negative], [good_down, good_down]),
        ("over one", [good_up, [0.3] + [0.8] * (n - 1) + [0.0]], [good_down, good_down]),
        ("zero interior", [good_up, good_up], [good_down, [0.0, 0.0] + [0.3] * (n - 1)]),
        ("nan first", [nan, negative], [good_down, good_down]),
        ("negative first", [negative, nan], [good_down, good_down]),
        ("text", [good_up, ["x"] * (n + 1)], [good_down, good_down]),
    ]


def error_of(run):
    with pytest.raises((ValueError, ArithmeticError)) as exc:
        run()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("name, up, down", bad_rows(4), ids=[case[0] for case in bad_rows(4)])
def test_a_bad_row_raises_the_loops_error(name, up, down):
    def loop():
        return [general_bd(4, u, d) for u, d in zip(up, down)]
    expected = error_of(loop)
    assert error_of(lambda: general_bd_set(4, up, down)) == expected


def test_a_set_without_rows_or_states_raises():
    assert error_of(lambda: general_bd_set(4, [], [])) == (ValueError, "kernel set must be non-empty")
    assert error_of(lambda: general_bd_set(0, [[0.0]], [[0.0]])) == (ValueError, "N must be >= 1")
    assert error_of(lambda: general_bd_set(1, [[0.5, 0.0]], [])) == \
        (ValueError, "up and down must hold one row per chain")


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
        (up, down), reference = scenarios._sample_banded_chain(n, fast), loop_banded_chain(n, slow)
        assert up.tobytes() == reference.up.tobytes()
        assert down.tobytes() == reference.down.tobytes()
        spec = general_bd(n, up, down)
        assert same_kernel(spec.kernel, reference.kernel)
        assert spec.reversible_measure.weights.tobytes() == \
            reference.reversible_measure.weights.tobytes()
        assert_same_stream_after(fast, slow)


def kernel_per_try_banded_chain(n, rng):
    """``_sample_banded_chain`` as it was before it drew rates alone: a ``general_bd`` a try."""
    for _ in range(10000):
        up = np.zeros(n + 1)
        down = np.zeros(n + 1)
        up[0] = rng.uniform(0.25, 0.75)
        down[n] = rng.uniform(0.25, 0.75)
        up[1:n], down[1:n] = scenarios._accepted_pairs(n - 1, rng).T
        spec = general_bd(n, up, down)
        if spec.within_rate_band and spec.within_measure_band:
            return spec
    raise RuntimeError("could not sample a chain in the target class")


@pytest.mark.parametrize("n", [2, 8, 16, 32])
def test_banded_chain_draws_the_rates_of_a_kernel_per_try(n):
    for seed in range(5):
        fast, slow = substream(seed, fold_path(n)), substream(seed, fold_path(n))
        (up, down), reference = scenarios._sample_banded_chain(n, fast), \
            kernel_per_try_banded_chain(n, slow)
        assert up.tobytes() == reference.up.tobytes()
        assert down.tobytes() == reference.down.tobytes()
        assert_same_stream_after(fast, slow)


@pytest.mark.parametrize("n", [8, 32])
def test_uniform_bd_set_builds_the_kernels_of_a_loop(n):
    params = {"set_size": 8}
    for seed in range(3):
        fast, slow = substream(seed, fold_path(n)), substream(seed, fold_path(n))
        seq, _ = scenarios._gen_uniform_bd_set(params, {"N": n}, fast)
        kernels = [kernel_per_try_banded_chain(n, slow).kernel for _ in range(8)]
        assert seq.seed == int(slow.integers(0, 2 ** 62))
        assert all(same_kernel(a, b) for a, b in zip(seq.kernels, kernels, strict=True))
        base = seq.kernels[0].entries.base  # one stack, held once
        assert base.shape == (8, n + 1, n + 1) and all(k.entries.base is base for k in seq.kernels)


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

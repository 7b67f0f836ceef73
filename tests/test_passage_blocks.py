"""Blocks of strides in the first-passage stack, its one-pass relative-sup
measure, and birth-death kernel sets built as one stack.

``merging._passage_batch`` draws kernel positions and forms factors once per
block of strides and starts a new block where a slice leaves; every result
must still equal a loop of ``first_passage`` bit for bit, with the hit time
of the stepwise walk. ``merging._relsup_stack`` must give the bits of
``relsup_between_rows`` on every slice. ``zoo.constant_rate_bd_set`` must
give the kernels, and the errors, of a loop of ``constant_rate_bd``.
"""

import math
import struct

import numpy as np
import pytest

from mclab import KernelSequence, StateSpace, StochasticKernel, constant_rate_bd, merging, scenarios
from mclab.chain_core import walk
from mclab.merging import first_passage, first_passages, relsup_between_rows, tv_between_rows
from mclab.rng import fold_path, substream
from mclab.zoo import constant_rate_bd_set

from conftest import random_kernel

MEASURE = {"tv": tv_between_rows, "relsup": relsup_between_rows}
STRIDE = merging._PASSAGE_STRIDE


def bd(n, p, q):
    return constant_rate_bd(n, p, q, 1.0 - p - q)


def stepwise_values(seq, metric, n_max):
    return [MEASURE[metric](p) for _, p, _ in walk(seq, range(1, n_max + 1))]


def spy_blocks(monkeypatch):
    """Record ``(width, steps)`` of every block the pair stacks form factors for."""
    blocks = []
    pair_factors = merging._pair_factors

    def spy(seqs, members, n):
        factors = pair_factors(seqs, members, n)

        def recorded(live, indices):
            blocks.append((len(live), len(indices[0])))
            return factors(live, indices)
        return recorded

    monkeypatch.setattr(merging, "_pair_factors", spy)
    return blocks


def test_block_length_follows_the_byte_budget():
    assert merging._block_strides(10, 17, True) == 1
    assert merging._block_strides(3, 33, True) == 3
    assert merging._block_strides(1, 65, True) == merging._PASSAGE_BLOCK == 4
    assert merging._block_strides(50, 65, False) == merging._PASSAGE_BLOCK
    assert merging._block_strides(10 ** 4, 1025, True) == 1  # at least one stride
    for width, n in [(1, 9), (2, 17), (4, 33), (7, 65), (1, 257)]:
        strides = merging._block_strides(width, n, True)
        formed = 8 * 12 * (STRIDE // 2) * width * (n + 2) * strides
        assert formed <= merging._BLOCK_BYTES or strides == 1


@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("hit", [4 * STRIDE - 7, 4 * STRIDE + 6])
def test_hits_in_the_last_stride_of_a_block_and_the_first_of_the_next(monkeypatch, metric, hit):
    # a lone 9-state stack takes blocks of four strides: steps 1-64, then 65-128
    seq = KernelSequence.iid([bd(8, 0.3, 0.2), bd(8, 0.2, 0.35), bd(8, 0.25, 0.25)], seed=4)
    assert merging._block_strides(1, 9, True) == 4
    values = stepwise_values(seq, metric, hit)
    assert values[-2] > values[-1] > 1e-6
    epsilon = 0.5 * (values[-2] + values[-1])
    blocks = spy_blocks(monkeypatch)
    got = first_passage(seq, epsilon, metric, 200)
    assert got[0] == hit
    *_, (_, p, _) = walk(seq, range(1, hit + 1))
    delta = merging._passage_bound(hit, 9)
    assert abs(got[1] - tv_between_rows(p)) <= delta
    assert abs(got[2] - relsup_between_rows(p)) <= delta * (1 + relsup_between_rows(p))
    assert blocks[0] == (1, 4 * STRIDE)
    assert len(blocks) == 1 + (hit > 4 * STRIDE)


def block_sequences(n=8):
    """Tridiagonal sequences that merge at different speeds, and one dense sequence."""
    rng = np.random.default_rng(9)
    return [
        KernelSequence.iid([bd(n, 0.45, 0.35), bd(n, 0.35, 0.45)], seed=1),
        KernelSequence.cyclic([bd(n, 0.2, 0.15), bd(n, 0.15, 0.2)]),
        KernelSequence.iid([bd(n, 0.1, 0.05), bd(n, 0.05, 0.1), bd(n, 0.08, 0.08)], seed=2),
        KernelSequence.iid([random_kernel(rng, n + 1, zero_prob=0.5) for _ in range(3)], seed=3),
        KernelSequence.explicit([bd(n, 0.3, 0.25), bd(n, 0.25, 0.3), bd(n, 0.2, 0.3)]),
        KernelSequence.constant(bd(n, 0.02, 0.02)),
        KernelSequence.iid([bd(n, 0.4, 0.1), bd(n, 0.1, 0.4)], seed=5),
    ]


@pytest.mark.parametrize("metric, epsilon", [("tv", 0.1), ("relsup", 0.25)])
@pytest.mark.parametrize("n_max", [4 * STRIDE + 2 * STRIDE + 5, 4 * STRIDE + 7, 301])
def test_slices_leave_mid_block_and_n_max_ends_inside_a_block(monkeypatch, metric, epsilon, n_max):
    seqs = block_sequences()
    loop = [first_passage(seq, epsilon, metric, n_max) for seq in seqs]
    blocks = spy_blocks(monkeypatch)
    assert first_passages(seqs, epsilon, metric, n_max) == loop
    # six tridiagonal slices of 9 states: blocks of four strides while all six walk
    assert blocks[0] == (6, min(4 * STRIDE, n_max))
    hits = [t for t, _, _ in loop if t is not None]
    assert any(t is None for t, _, _ in loop)  # walked to n_max
    assert len({(t - 1) // STRIDE for t in hits}) >= 2
    assert any(width < 6 for width, _ in blocks)
    if n_max > 100:  # a slice leaving inside a block starts another block at that checkpoint
        assert len(blocks) > math.ceil(n_max / (4 * STRIDE))
    # the last block ends at n_max, inside four strides of its start, with an odd length
    assert blocks[-1][1] % 2 == 1 and blocks[-1][1] < 4 * STRIDE


def test_a_failing_slice_leaves_mid_block_with_the_loops_error():
    n = 8
    drifting = StochasticKernel._unchecked(StateSpace(n + 1), bd(n, 0.3, 0.3).entries * (1 + 1e-9))
    seqs = [KernelSequence.iid([bd(n, 0.45, 0.35), bd(n, 0.35, 0.45)], seed=1),
            KernelSequence.explicit([bd(n, 0.02, 0.02)] * 40 + [drifting]),
            KernelSequence.constant(bd(n, 0.02, 0.02))]

    def outcome(run):
        try:
            return run()
        except ArithmeticError as exc:
            return type(exc), str(exc)

    loop = outcome(lambda: [first_passage(seq, 0.25, "relsup", 300) for seq in seqs])
    assert loop[0] is ArithmeticError and "at step 41" in loop[1]
    assert outcome(lambda: first_passages(seqs, 0.25, "relsup", 300)) == loop


def test_a_kernel_failing_the_drift_screen_mid_block_sends_its_stride_stepwise():
    # row sums 1e-13 from 1 fail the screen but never the walk's drift check;
    # from the stride holding step 41 (steps 33-48, the third of the first
    # block) on, the sequence takes the stepwise route, whose values are the
    # stepwise walk's bit for bit
    n, k = 8, bd(8, 0.45, 0.35)
    off = StochasticKernel._unchecked(StateSpace(n + 1), k.entries * (1 + 1e-13))
    seq = KernelSequence.explicit([k] * 40 + [off] + [k] * 400)
    values = stepwise_values(seq, "relsup", 300)
    hit = next(i for i, v in enumerate(values, 1) if v <= 0.25)
    assert 48 < hit < 300
    *_, (_, p, _) = walk(seq, range(1, hit + 1))
    expected = hit, tv_between_rows(p), relsup_between_rows(p)
    assert first_passage(seq, 0.25, "relsup", 300) == expected
    seqs = [KernelSequence.iid([bd(n, 0.45, 0.35), bd(n, 0.35, 0.45)], seed=1), seq]
    assert first_passages(seqs, 0.25, "relsup", 300) == [first_passage(s, 0.25, "relsup", 300)
                                                          for s in seqs]


def bits(x):
    return struct.pack("<d", x)


def stack_cases():
    rng = np.random.default_rng(31)
    positive = rng.uniform(0.05, 1.0, (4, 6, 6))
    dead_column = positive.copy()
    dead_column[1, :, 2] = 0.0  # a state reached from nowhere
    dead_column[2] = 0.0  # a slice of zeros reads 0
    mixed = positive.copy()
    mixed[0, 3, 4] = 0.0  # zero and positive entries in one column: inf
    tiny = positive.copy()
    tiny[1, :, 5] = [1e-295, 3e-300, 2e-292, 5e-294, 1e-296, 7e-299]
    tiny[3, 2, 0] = 1e-291  # below the cut-off, no zero in the stack
    tiny_with_zero = tiny.copy()
    tiny_with_zero[0, :, 1] = 0.0
    tiny_with_zero[2, 4, 3] = 0.0
    tiny_with_zero[2, 1, 3] = 5e-310  # subnormal, beside a zero of its column
    banded = np.stack([np.linalg.matrix_power(bd(8, 0.3, 0.2).entries, t) for t in (1, 3, 9)])
    return {"positive": positive, "dead_column": dead_column, "mixed": mixed, "tiny": tiny,
            "tiny_with_zero": tiny_with_zero, "banded": banded}


@pytest.mark.parametrize("case", sorted(stack_cases()))
def test_the_stack_measure_is_relsup_between_rows_bit_for_bit(case):
    stack = stack_cases()[case]
    values, tiny = merging._relsup_stack(stack)
    assert values.shape == tiny.shape == (stack.shape[0],)
    for s, matrix in enumerate(stack):
        assert bits(values.tolist()[s]) == bits(relsup_between_rows(matrix))
        assert tiny[s] == ((matrix > 0) & (matrix < merging._PASSAGE_TINY)).any()
    if case == "mixed":
        assert math.isinf(values[0])
    if case == "dead_column":
        assert values[2] == 0.0 and math.isfinite(values[1])
    if case in ("tiny", "tiny_with_zero"):
        assert tiny[1] and tiny[2 if case == "tiny_with_zero" else 3]


def loop_bd_ratio_set(params, n, rng):
    """``bd_ratio_set`` as first written: one ``constant_rate_bd`` a kernel."""
    lo, hi = params.get("ratio_min", 1.2), params.get("ratio_max", 2.0)
    size, hold_max = params.get("set_size", 32), params.get("hold_max", 0.3)
    draws = rng.uniform(np.array([math.log(lo), 0.0]), np.array([math.log(hi), hold_max]),
                        size=(size, 2))
    kernels = []
    for log_ratio, r in draws.tolist():
        ratio = math.exp(log_ratio)
        q = (1.0 - r) / (1.0 + ratio)
        kernels.append(constant_rate_bd(n, ratio * q, q, r))
    return KernelSequence.iid(kernels, seed=int(rng.integers(0, 2 ** 62)))


@pytest.mark.parametrize("n", [1, 2, 16, 64, 128])
def test_bd_ratio_set_is_a_loop_of_constant_rate_bd(n):
    params = {"ratio_min": 1.2, "ratio_max": 2.0, "hold_max": 0.3, "set_size": 32}
    for seed in range(3):
        seq, _ = scenarios.GENERATORS["bd_ratio_set"](params, {"N": n}, substream(seed, fold_path(n)))
        reference = loop_bd_ratio_set(params, n, substream(seed, fold_path(n)))
        assert seq.seed == reference.seed
        for k, ref in zip(seq.kernels, reference.kernels, strict=True):
            assert k.space is ref.space
            assert k.entries.tobytes() == ref.entries.tobytes()
            assert k.bandwidth == ref.bandwidth == 1
        # one stack, held once and read-only
        base = seq.kernels[0].entries.base
        assert base is not None and base.shape == (32, n + 1, n + 1)
        assert all(k.entries.base is base for k in seq.kernels)
        assert not base.flags.writeable


def error_of(run):
    with pytest.raises(ValueError) as exc:
        run()
    return str(exc.value)


@pytest.mark.parametrize("p, q, r", [
    ([0.3, 0.5, 0.2], [0.3, 0.6, 0.9], [0.4, 0.1, 0.1]),  # the second sums to 1.2
    ([0.3, 0.5], [0.3, -0.1], [0.4, 0.6]),
    ([0.5, float("nan")], [0.5, 0.5], [0.0, 0.0]),
    ([0.5, 0.5], [0.5, "x"], [0.0, 0.0]),
])
def test_a_bad_rate_triple_raises_the_loops_error(p, q, r):
    def loop():
        return [constant_rate_bd(4, *triple) for triple in zip(p, q, r)]
    assert error_of(lambda: constant_rate_bd_set(4, p, q, r)) == error_of(loop)
    assert error_of(loop).startswith("rates must be a probability triple")


def test_a_bad_triple_from_the_generator_raises_the_loops_error():
    # a holding above 1 gives a negative q
    params = {"hold_max": 1.5, "set_size": 8}
    rng = substream(5, fold_path(0))
    expected = error_of(lambda: loop_bd_ratio_set(params, 6, substream(5, fold_path(0))))
    assert error_of(lambda: scenarios.GENERATORS["bd_ratio_set"](params, {"N": 6}, rng)) == expected
    assert error_of(lambda: constant_rate_bd_set(6, [], [], [])) == "kernel set must be non-empty"
    assert error_of(lambda: constant_rate_bd_set(0, [0.5], [0.5], [0.0])) == "N must be >= 1"


def test_a_stack_of_any_kernels_has_the_constructors_bits_and_bandwidths():
    rng = np.random.default_rng(12)
    n = 70
    rows = [random_kernel(rng, n, zero_prob=0.9).entries for _ in range(3)]
    rows.append(bd(n - 1, 0.3, 0.3).entries)
    rows.append(np.eye(n))
    wide = np.eye(n)
    wide[5, 5], wide[5, 60] = 0.5, 0.5
    rows.append(wide)
    values = np.array(rows) * (1 + 1e-12)
    alone = [StochasticKernel(StateSpace(n), v) for v in values]
    kernels = StochasticKernel.stack(StateSpace(n), values)
    assert [k.bandwidth for k in kernels] == [k.bandwidth for k in alone]
    assert [k.bandwidth for k in kernels][3:] == [1, 0, 55]
    for k, a in zip(kernels, alone):
        assert k.entries.tobytes() == a.entries.tobytes()
    with pytest.raises(ValueError, match="does not match space size"):
        StochasticKernel.stack(StateSpace(n), np.eye(n))
    with pytest.raises(ValueError, match="sum to"):
        StochasticKernel.stack(StateSpace(2), np.full((1, 2, 2), 0.4))


def test_integer_rates_build_the_float_kernel():
    # an integer holding rate once made an integer holding diagonal, which
    # truncated K(0, 0) = q + r = 0.5 to 0
    assert constant_rate_bd(4, 0.5, 0.5, 0).entries.tobytes() == \
        constant_rate_bd(4, 0.5, 0.5, 0.0).entries.tobytes()
    assert constant_rate_bd(3, 1, 0, 0).entries.tolist() == \
        [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]

"""Windows and blocks of strides in the first-passage stack, its one-pass
relative-sup measure, and birth-death kernel sets built as one stack.

``merging._passage_batch`` walks a stack in windows of
``_PASSAGE_BLOCK * _PASSAGE_STRIDE`` steps, each multiplied once and
measured at its end; a slice that fails its window is judged stride by
stride from the checkpoints the walk kept, and walks on from the window's
end when it does not finish. Inside a window, kernel positions are drawn
and factors formed once per block of strides. Every result must
still equal a loop of ``first_passage`` bit for bit, with the hit time of
the stepwise walk. ``merging._relsup_stack`` must give the bits of
``relsup_between_rows`` on every slice. ``zoo.constant_rate_bd_set`` must
give the kernels, and the errors, of a loop of ``constant_rate_bd``.
"""

import math
import struct

import numpy as np
import pytest

from mclab import KernelSequence, StateSpace, StochasticKernel, constant_rate_bd, merging, scenarios
from mclab.chain_core import walk
from mclab.rng import fold_path as fold
from mclab.merging import first_passage, first_passages, relsup_between_rows, tv_between_rows
from mclab.rng import fold_path, substream
from mclab.zoo import constant_rate_bd_set

from conftest import random_kernel

MEASURE = {"tv": tv_between_rows, "relsup": relsup_between_rows}
STRIDE = merging._PASSAGE_STRIDE
WINDOW = merging._PASSAGE_BLOCK * STRIDE


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


def spy_draws(monkeypatch):
    """Record ``(width, start, stop)`` of every block of strides a stack draws kernel positions for."""
    draws = []
    draw = merging._StackWalk.draw

    def spy(self, live, start, stop):
        draws.append((len(live), start, stop))
        return draw(self, live, start, stop)

    monkeypatch.setattr(merging._StackWalk, "draw", spy)
    return draws


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
    draws = spy_draws(monkeypatch)
    assert first_passages(seqs, epsilon, metric, n_max) == loop
    # six tridiagonal slices of 9 states: blocks of four strides, a whole window, while all six walk
    assert blocks[0] == (6, min(WINDOW, n_max))
    hits = [t for t, _, _ in loop if t is not None]
    assert any(t is None for t, _, _ in loop)  # walked to n_max
    assert len({(t - 1) // STRIDE for t in hits}) >= 2
    assert any(width < 6 for width, _ in blocks)
    # every block lies inside one window; within each stack (the pair stack,
    # then the dense one) every window's steps are drawn exactly once, in
    # blocks that start at the window start or at the previous block's end,
    # and a slice leaving inside a window starts no block
    assert draws[0][1:] == (0, min(WINDOW, n_max))
    assert sum(start == 0 for _, start, _ in draws) == 2
    for (width, start, stop), (before, _, end) in zip(draws[1:], draws):
        assert start // WINDOW == (stop - 1) // WINDOW
        assert stop == min((start // WINDOW + 1) * WINDOW, n_max)
        assert start in (0, end) and (start % WINDOW == 0 or width == before)
    # the last block ends at n_max, inside the window holding it, with an odd length
    assert blocks[-1][1] % 2 == 1 and blocks[-1][1] < WINDOW


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


def spy_walks(monkeypatch):
    """Record the width of every one-pass measure, and ``(sequence, start)`` of every replay and stepwise route."""
    widths, replays, stepwise_from = [], [], []
    measure, replay, stepwise = merging._relsup_stack, merging._replay, merging._stepwise

    def measure_spy(stack):
        widths.append(stack.shape[0])
        return measure(stack)

    def replay_spy(seq, matrix, start, *args):
        replays.append((seq, start))
        return replay(seq, matrix, start, *args)

    def stepwise_spy(seq, first, *args):
        stepwise_from.append((seq, first))
        return stepwise(seq, first, *args)

    monkeypatch.setattr(merging, "_relsup_stack", measure_spy)
    monkeypatch.setattr(merging, "_replay", replay_spy)
    monkeypatch.setattr(merging, "_stepwise", stepwise_spy)
    return widths, replays, stepwise_from


def test_only_the_slice_failing_its_window_is_measured_per_stride(monkeypatch):
    # four 9-state slices; at 128 only the fast one (hit 99) lies below the band
    seqs = [block_sequences()[r] for r in (1, 2, 5, 6)]
    n_max = 301
    loop = [first_passage(seq, 0.25, "relsup", n_max) for seq in seqs]
    mates = first_passages(seqs[:3], 0.25, "relsup", n_max)
    assert [t for t, _, _ in loop] == [135, None, None, 99]
    widths, replays, stepwise_from = spy_walks(monkeypatch)
    assert first_passages(seqs, 0.25, "relsup", n_max) == loop
    assert loop[:3] == mates  # its mates' results are those of a stack without it
    # window ends 64 and 128 with all four; the fast slice alone at 80, 96
    # and 112, where it hits; the three left at 192, the slice hitting at 135
    # alone at 144; the two left at 256, then at every stride of the window
    # holding n_max
    assert widths == [4, 4, 1, 1, 1, 3, 1, 2, 2, 2, 2]
    assert replays == [(seqs[3], 96), (seqs[0], 128)] and not stepwise_from


def slow_bd(n=8):
    return KernelSequence.constant(bd(n, 0.45, 0.35))


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_a_drift_failure_inside_a_window_raises_at_its_step(metric):
    # rows summing to 1 + 1e-9 fail the walk's drift check; step 20 lies in
    # the second stride of the first window, whose end is far from the band
    n, k = 8, bd(8, 0.45, 0.35)
    drifting = StochasticKernel._unchecked(StateSpace(n + 1), k.entries * (1 + 1e-9))
    seq = KernelSequence.explicit([k] * 19 + [drifting] + [k] * 400)
    values = stepwise_values(slow_bd(), metric, 3 * WINDOW)
    # between two values, so no replay takes the stepwise route; the hit,
    # walked without the drift, is two windows on
    epsilon = 0.5 * (values[-2] + values[-1])
    assert values[WINDOW - 1] > epsilon + 1e-3
    for seqs in ([seq], [slow_bd(), seq, slow_bd()]):
        with pytest.raises(ArithmeticError, match="at step 20"):
            first_passages(seqs, epsilon, metric, 300)


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_a_drift_screen_failure_inside_a_window_sends_the_slice_stepwise(monkeypatch, metric):
    # rows 1e-13 from 1 fail the screen but not the walk; step 20 is in the
    # second stride of the first window, and the hit two windows later
    n, k = 8, bd(8, 0.45, 0.35)
    off = StochasticKernel._unchecked(StateSpace(n + 1), k.entries * (1 + 1e-13))
    seq = KernelSequence.explicit([k] * 19 + [off] + [k] * 400)
    hit = 2 * WINDOW + 21
    values = stepwise_values(seq, metric, hit)
    epsilon = 0.5 * (values[-2] + values[-1])
    *_, (_, p, _) = walk(seq, range(1, hit + 1))
    expected = hit, tv_between_rows(p), relsup_between_rows(p)
    _, replays, stepwise_from = spy_walks(monkeypatch)
    assert first_passage(seq, epsilon, metric, 300) == expected  # the stepwise walk's bits
    assert stepwise_from == [(seq, STRIDE + 1)] and not replays
    seqs = [slow_bd(), seq, slow_bd()]
    assert first_passages(seqs, epsilon, metric, 300) == \
        [first_passage(s, epsilon, metric, 300) for s in seqs]


def test_tiny_entries_at_an_inner_checkpoint_only_void_nothing(monkeypatch):
    # the first 16 kernels leave entries near 1e-295 in the last column at
    # step 16; the kernel after them lifts every entry above 1e-3, so the
    # window ends at 64 and 128 hold no tiny entry, and no checkpoint is
    # measured before 64
    space = StateSpace(3)
    tiny = StochasticKernel(space, np.array([[0.9, 0.1, 1e-295], [0.1, 0.9, 2e-295],
                                             [0.5, 0.5, 3e-295]]))
    mixing = StochasticKernel(space, np.array([[0.96, 0.02, 0.02], [0.02, 0.96, 0.02],
                                               [0.02, 0.02, 0.96]]))
    seq = KernelSequence.explicit([tiny] * STRIDE + [mixing] * 400)
    steps = [p for _, p, _ in walk(seq, range(1, 3 * WINDOW))]
    assert 0 < steps[STRIDE - 1].min() < merging._PASSAGE_TINY
    assert all(p.min() > 1e-3 for p in steps[STRIDE:])
    hit = 2 * WINDOW + 5
    values = stepwise_values(seq, "relsup", hit)
    epsilon = 0.5 * (values[-2] + values[-1])
    widths, replays, stepwise_from = spy_walks(monkeypatch)
    got = first_passage(seq, epsilon, "relsup", 300)
    assert got[0] == hit and not stepwise_from and [r for r, _ in replays] == [seq]
    p = steps[hit - 1]
    delta = merging._passage_bound(hit, 3)
    assert abs(got[1] - tv_between_rows(p)) <= delta
    assert abs(got[2] - relsup_between_rows(p)) <= delta * (1 + relsup_between_rows(p))
    seqs = [slow_bd(2), seq]
    assert first_passages(seqs, epsilon, "relsup", 300) == \
        [first_passage(s, epsilon, "relsup", 300) for s in seqs]


@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("end", [WINDOW, 2 * WINDOW])
def test_a_slice_judged_without_finishing_walks_on_from_the_window_end(monkeypatch, metric, end):
    # the value at the window end lies within the band, more than δ above
    # epsilon: the window's stored checkpoints are judged, its last stride
    # replayed from the checkpoint before it without a hit, and the slice
    # walks on from the row at the window end
    seq = KernelSequence.iid([bd(8, 0.3, 0.2), bd(8, 0.2, 0.35), bd(8, 0.25, 0.25)], seed=4)
    value = stepwise_values(seq, metric, end)[-1]
    delta = merging._passage_bound(end, 9) * (1.0 if metric == "tv" else 1.0 + value)
    epsilon = value - 1.5 * delta
    reference = [MEASURE[metric](p) for _, p, _ in walk(seq, range(1, 300))]
    hit = next(i for i, v in enumerate(reference, 1) if v <= epsilon)
    assert hit > end and reference[end - 1] == value
    _, replays, stepwise_from = spy_walks(monkeypatch)
    got = first_passage(seq, epsilon, metric, 300)
    assert got[0] == hit and not stepwise_from
    assert (seq, end - STRIDE) in replays and replays[-1][1] == (hit - 1) // STRIDE * STRIDE
    *_, (_, p, _) = walk(seq, range(1, hit + 1))
    bound = merging._passage_bound(hit, 9)
    assert abs(got[1] - tv_between_rows(p)) <= bound
    assert abs(got[2] - relsup_between_rows(p)) <= bound * (1 + relsup_between_rows(p))
    seqs = [slow_bd(), seq, KernelSequence.constant(bd(8, 0.02, 0.02))]
    assert first_passages(seqs, epsilon, metric, 300) == \
        [first_passage(s, epsilon, metric, 300) for s in seqs]


def spy_products(monkeypatch):
    """Record the number of slices of every product a stack forms."""
    products = []
    forward_matmul = merging.forward_matmul

    def spy(n, band):
        multiply = forward_matmul(n, band)

        def counted(p, k, out=None):
            products.append(p.shape[0])
            return multiply(p, k, out=out)
        return counted

    monkeypatch.setattr(merging, "forward_matmul", spy)
    return products


@pytest.mark.parametrize("metric, epsilon", [("tv", 0.1), ("relsup", 0.25)])
def test_each_window_is_multiplied_once_a_slice(monkeypatch, metric, epsilon):
    # slices fail windows before n_max, finishing there or walking on; each
    # slice takes the products of every window up to the one it finishes
    # in, once, and the whole window holding n_max
    seqs, n_max = block_sequences(), 301
    loop = [first_passage(seq, epsilon, metric, n_max) for seq in seqs]
    products = spy_products(monkeypatch)
    _, replays, stepwise_from = spy_walks(monkeypatch)
    assert first_passages(seqs, epsilon, metric, n_max) == loop
    assert not stepwise_from
    last_window = (n_max - 1) // WINDOW * WINDOW
    assert sum(start < last_window for _, start in replays) >= 2

    def factors(t, paired):
        end = min(-(-t // WINDOW) * WINDOW, n_max)
        strides = [min(start + STRIDE, end) - start for start in range(0, end, STRIDE)]
        return sum((s + 1) // 2 if paired else s for s in strides)

    dense = 3  # the one sequence of dense kernels, which steps a kernel at a time
    assert sum(products) == sum(factors(n_max if t is None else t, r != dense)
                                for r, (t, _, _) in enumerate(loop))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_lone_65_state_sweep_sequence_is_measured_once_a_window(monkeypatch, seed):
    # a drifted-bd-scaling point at N = 64: one measure at each window end
    # before the hit's window, then at that window's end and at each of its
    # strides up to the hit's
    params = {"ratio_min": 1.2, "ratio_max": 2.0, "hold_max": 0.3, "set_size": 32}
    seq, _ = scenarios.GENERATORS["bd_ratio_set"](params, {"N": 64}, substream(seed, fold(seed)))
    widths, replays, stepwise_from = spy_walks(monkeypatch)
    hit = first_passage(seq, 0.25, "relsup", 4000)[0]
    assert hit is not None and hit > 10 * WINDOW and not stepwise_from
    windows_before, strides = (hit - 1) // WINDOW, (hit - 1) % WINDOW // STRIDE + 1
    assert len(widths) == windows_before + 1 + strides
    assert [start for _, start in replays] == [(hit - 1) // STRIDE * STRIDE]


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

"""``first_passages`` against a loop of ``first_passage``, bit for bit.

Every case compares the batched result with the per-sequence one by
``==``; when the loop raises, the batch must raise the same error type with
the same message. The scenario runner's rows are compared with a per-point
``first_passage`` loop on the sweep scenarios.
"""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from mclab import KernelSequence, StateSpace, StochasticKernel
from mclab import merging, scenarios
from mclab.chain_core import walk
from mclab.merging import first_passage, first_passages, relsup_between_rows, tv_between_rows
from mclab.rng import fold_path, substream
from mclab.zoo import constant_rate_bd

from conftest import random_kernel


def outcome(run):
    """``run()``'s value, or the type and message of what it raised."""
    try:
        return run()
    except ArithmeticError as exc:
        return type(exc), str(exc)


def assert_batch_is_loop(seqs, epsilon, metric, n_max):
    loop = outcome(lambda: [first_passage(s, epsilon, metric, n_max) for s in seqs])
    assert outcome(lambda: first_passages(seqs, epsilon, metric, n_max)) == loop
    return loop


def bd_sequences(n=8):
    """Birth-death sequences on ``n + 1`` states that merge at different speeds."""
    def bd(p, q):
        return constant_rate_bd(n, p, q, 1.0 - p - q)
    return [
        KernelSequence.iid([bd(0.5, 0.3), bd(0.3, 0.5), bd(0.45, 0.25)], seed=11),
        KernelSequence.cyclic([bd(0.54, 0.36), bd(0.36, 0.54)], word=[0, 1, 1, 0]),
        KernelSequence.explicit([bd(0.3, 0.2), bd(0.25, 0.35), bd(0.4, 0.3), bd(0.2, 0.2)]),
        KernelSequence.iid([bd(0.2, 0.1), bd(0.1, 0.2)], seed=3),
        KernelSequence.constant(bd(0.45, 0.45)),
    ]


def trajectory(seq, metric, n):
    measure = tv_between_rows if metric == "tv" else relsup_between_rows
    p = np.eye(seq.space.size)
    out = [measure(p)]
    for i in range(1, n + 1):
        p = p @ seq.kernel_at(i).entries
        p = p / p.sum(axis=1)[:, None]
        out.append(measure(p))
    return out


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_hits_in_different_strides(metric):
    seqs = bd_sequences()
    epsilon = 0.3 if metric == "tv" else 2.0
    results = assert_batch_is_loop(seqs, epsilon, metric, 400)
    hits = [t for t, _, _ in results]
    assert None not in hits
    assert len({t // merging._PASSAGE_STRIDE for t in hits}) >= 3


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_hit_at_step_zero(metric):
    epsilon = 1.0 if metric == "tv" else math.inf
    results = assert_batch_is_loop(bd_sequences(), epsilon, metric, 100)
    assert [t for t, _, _ in results] == [0] * 5


@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("epsilon", [math.nan, -0.1])
def test_nan_or_negative_epsilon_is_rejected_before_the_walk(metric, epsilon):
    # every computed distance compares False with NaN, so a walk would never hit
    read = []

    def sequences():
        for seq in bd_sequences():
            read.append(seq)
            yield seq

    message = f"epsilon must be a number >= 0, got {epsilon}"
    with pytest.raises(ValueError, match=message):
        first_passages(sequences(), epsilon, metric, 100)
    assert read == []
    with pytest.raises(ValueError, match=message):
        first_passage(bd_sequences()[0], epsilon, metric, 100)


N_MAX_ERRORS = {
    -1: "n_max must be >= 0",
    -100: "n_max must be >= 0",
    math.inf: "not an integer in n_max: inf",  # a sequence that never merges was walked forever
    2.5: "not an integer in n_max: 2.5",  # range() raised a TypeError
    math.nan: "not an integer in n_max: nan",
    True: "not a number in n_max: a boolean",  # walked one step
}


@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("n_max", list(N_MAX_ERRORS))
def test_negative_n_max_is_rejected_before_the_walk(metric, n_max):
    # a negative n_max would report the identity's values, where merging_time raises
    read = []

    def sequences():
        for seq in bd_sequences():
            read.append(seq)
            yield seq

    message = N_MAX_ERRORS[n_max]
    with pytest.raises(ValueError, match=message):
        first_passages(sequences(), 0.25, metric, n_max)
    assert read == []
    stuck = KernelSequence.constant(StochasticKernel.identity(StateSpace(3)))
    with pytest.raises(ValueError, match=message):
        first_passage(stuck, 0.25, metric, n_max)
    with pytest.raises(ValueError, match=message if n_max not in (-1, -100) else "n_max must be >= 1"):
        merging.merging_time(stuck, 0.25, metric, n_max)
    # n_max = 0 still measures the identity, and a whole float counts as its integer
    assert first_passage(bd_sequences()[0], 0.25, metric, 0) == (None, 1.0, math.inf)
    assert first_passage(bd_sequences()[0], 0.25, metric, 40.0) == \
        first_passage(bd_sequences()[0], 0.25, metric, 40)


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_one_sequence_never_reaches_epsilon(metric):
    space = StateSpace(9)
    stuck = KernelSequence.constant(StochasticKernel.identity(space))
    seqs = bd_sequences()[:2] + [stuck] + bd_sequences()[2:]
    epsilon = 0.3 if metric == "tv" else 2.0
    results = assert_batch_is_loop(seqs, epsilon, metric, 300)
    assert results[2][0] is None
    assert all(t is not None for i, (t, _, _) in enumerate(results) if i != 2)


@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("n_max", [0, 1, 15, 37, 90, 161])
def test_horizons_off_the_stride(metric, n_max):
    seqs = bd_sequences()
    # one sequence hits in the last partial stride, the rest run out of horizon
    traj = trajectory(seqs[1], metric, n_max)
    epsilon = traj[-2] if n_max > 1 else 0.5 * traj[-1]
    assert_batch_is_loop(seqs, epsilon, metric, n_max)


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_thresholds_on_and_inside_the_band(metric):
    seqs = bd_sequences()
    stride = merging._PASSAGE_STRIDE
    traj = trajectory(seqs[0], metric, 6 * stride)
    value = traj[5 * stride]
    delta = merging._passage_bound(5 * stride, 9) * (1.0 if metric == "tv" else 1.0 + value)
    for epsilon in (traj[5 * stride + 7], traj[6 * stride - 1], value, value - 1.5 * delta):
        assert_batch_is_loop(seqs, epsilon, metric, 200)


def drifting_after(space, steps, merged=True):
    """``steps`` kernels, then one whose rows sum to ``1 + 1e-10``.

    The kernels are row-constant when ``merged``, so every distance is 0
    from step 1; otherwise they are the identity, which never merges.
    """
    n = space.size
    base = np.full((n, n), 1 / n) if merged else np.eye(n)
    return KernelSequence.explicit([StochasticKernel(space, base)] * steps
                                   + [StochasticKernel._unchecked(space, base * (1 + 1e-10))])


def slow_merger(space, seed):
    rng = np.random.default_rng(seed)
    kernels = []
    for _ in range(3):
        m = np.eye(space.size) * 0.97 + 0.03 * rng.dirichlet(np.ones(space.size), space.size)
        kernels.append(StochasticKernel(space, m))
    return KernelSequence.iid(kernels, seed=seed)


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_drift_error_before_and_after_another_hit(metric):
    space = StateSpace(3)
    slow = slow_merger(space, 5)
    epsilon = 0.5 if metric == "tv" else 4.0
    hit = first_passage(slow, epsilon, metric, 200)[0]
    assert hit is not None and hit > 20
    early = drifting_after(space, 3, merged=False)  # drifts at step 4, before slow's hit
    late = drifting_after(space, hit + 10, merged=False)  # drifts after slow's hit
    for seqs in ([early, slow], [slow, early], [late, slow], [slow, late],
                 [slow, late, early], [late, early, slow]):
        loop = assert_batch_is_loop(seqs, epsilon, metric, 200)
        first = next(s for s in seqs if s is not slow)
        assert loop == (ArithmeticError,
                        f"row-sum drift 1.00e-10 at step {len(first.kernels)}")


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_hit_before_a_later_drift_in_a_batch(metric):
    # the drifting sequence hits at step 1, inside the stride that reaches
    # its drifting kernel at step 6; the batch must return that hit
    space = StateSpace(3)
    seqs = [slow_merger(space, 5), drifting_after(space, 5), slow_merger(space, 9)]
    results = assert_batch_is_loop(seqs, 0.5, metric, 40)
    assert results[1][0] == 1


def test_drift_error_at_a_checkpoint():
    space = StateSpace(3)
    stride = merging._PASSAGE_STRIDE
    seqs = [slow_merger(space, 5), drifting_after(space, stride - 1, merged=False)]
    loop = assert_batch_is_loop(seqs, 0.5, "tv", 100)
    assert loop == (ArithmeticError, f"row-sum drift 1.00e-10 at step {stride}")


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_tiny_entries_make_one_replica_stepwise(metric):
    # last-column entries near 1e-295 lie below the cut-off of the relative rounding bound
    k = np.array([[0.9, 0.1, 1e-295], [0.1, 0.9, 2e-295], [0.5, 0.5, 3e-295]])
    space = StateSpace(3)
    tiny = KernelSequence.constant(StochasticKernel(space, k))
    seqs = [slow_merger(space, 5), tiny, slow_merger(space, 9), tiny]
    for epsilon in (trajectory(tiny, metric, 60)[60], 0.5, 0.01):
        assert_batch_is_loop(seqs, epsilon, metric, 200)


def stepwise(seq, epsilon, metric, n_max):
    """The first passage measured at every step of ``walk``: the oracle of a stacked slice."""
    measure = tv_between_rows if metric == "tv" else relsup_between_rows
    i, p = 0, np.eye(seq.space.size)
    value = measure(p)
    if value > epsilon:
        for i, p, _ in walk(seq, range(1, n_max + 1)):
            value = measure(p)
            if value <= epsilon:
                break
    return i if value <= epsilon else None, tv_between_rows(p), relsup_between_rows(p)


def test_stride_buffers_keep_every_checkpoint(monkeypatch):
    # one relsup stack whose slices leave at different strides, one replayed
    # from a checkpoint inside the band, one walked stepwise because its
    # stride drifted after its hit, and one stepwise after turning tiny;
    # every replay starts from a checkpoint the stack's steps must not touch
    space, stride, n_max = StateSpace(3), merging._PASSAGE_STRIDE, 300
    in_band = slow_merger(space, 5)
    value = trajectory(in_band, "relsup", 7 * stride)[7 * stride]
    epsilon = value - 1.5 * merging._passage_bound(7 * stride, 3) * (1.0 + value)
    base = slow_merger(space, 11)
    hit = stepwise(base, epsilon, "relsup", n_max)[0]
    assert hit > stride and hit % stride  # the drift comes later in the hit's own stride
    drifting = KernelSequence.explicit(
        [base.kernel_at(i) for i in range(1, hit + 1)]
        + [StochasticKernel._unchecked(space, base.kernel_at(hit + 1).entries * (1 + 1e-10))])
    k = np.array([[0.97, 0.03, 1e-295], [0.02, 0.98, 2e-295], [0.5, 0.5, 3e-295]])
    tiny = KernelSequence.constant(StochasticKernel(space, k))
    seqs = [slow_merger(space, 8), in_band, drifting, slow_merger(space, 12), tiny,
            slow_merger(space, 1), KernelSequence.constant(StochasticKernel.identity(space))]
    expected = [stepwise(seq, epsilon, "relsup", n_max) for seq in seqs]

    widths, replays, stepwise_from = [], [], []
    batch, rewalk = merging._passage_batch, merging._StackWalk.rewalk

    def batch_spy(batch_seqs, *args):
        widths.append(len(batch_seqs))
        return batch(batch_seqs, *args)

    def rewalk_spy(self, seq, start, matrix, first, stop):
        if matrix is None:  # the stepwise route, from the identity
            stepwise_from.append((seqs.index(seq), first))
        else:  # a stride walked again from its checkpoint
            replays.append((seqs.index(seq), start))
        return rewalk(self, seq, start, matrix, first, stop)

    monkeypatch.setattr(merging, "_passage_batch", batch_spy)
    monkeypatch.setattr(merging._StackWalk, "rewalk", rewalk_spy)
    got = first_passages(seqs, epsilon, "relsup", n_max)
    assert [t for t, _, _ in got] == [t for t, _, _ in expected]
    for (t, tv, relsup), (_, tv_ref, relsup_ref) in zip(got, expected):
        delta = merging._passage_bound(n_max if t is None else t, 3)
        assert abs(tv - tv_ref) <= delta
        assert relsup == relsup_ref or abs(relsup - relsup_ref) <= delta * (1 + relsup_ref)
    assert widths == [len(seqs)]
    hits = [t for t, _, _ in expected]
    assert expected[2][0] == hit and hits[-1] is None
    assert len({t // stride for t in hits if t is not None}) >= 4
    # the checkpoint at 7 strides lies inside the band: that stride is walked again, then the next
    assert {(1, 6 * stride), (1, 7 * stride)} <= set(replays)
    # the drifting stride and the tiny sequence's first stride are walked stepwise from their first step
    assert (2, hit // stride * stride + 1) in stepwise_from
    assert (4, 1) in stepwise_from and 4 not in [r for r, _ in replays]


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_cap_of_one_byte_walks_one_sequence_per_batch(metric, monkeypatch):
    seqs = bd_sequences()
    epsilon = 0.3 if metric == "tv" else 2.0
    expected = [first_passage(s, epsilon, metric, 400) for s in seqs]
    widths = []
    batch = merging._passage_batch

    def spy(batch_seqs, *args):
        widths.append(len(batch_seqs))
        return batch(batch_seqs, *args)

    monkeypatch.setattr(merging, "_passage_batch", spy)
    assert first_passages(seqs, epsilon, metric, 400) == expected
    assert widths == [len(seqs)]
    monkeypatch.setattr(merging, "_BATCH_BYTES", 1)
    widths.clear()
    assert first_passages(seqs, epsilon, metric, 400) == expected
    assert widths == [1] * len(seqs)


def test_batches_split_by_the_cap(monkeypatch):
    seqs = bd_sequences()
    expected = [first_passage(s, 0.3, "tv", 300) for s in seqs]
    widths = []
    batch = merging._passage_batch

    def spy(batch_seqs, *args):
        widths.append(len(batch_seqs))
        return batch(batch_seqs, *args)

    monkeypatch.setattr(merging, "_passage_batch", spy)
    monkeypatch.setattr(merging, "_BATCH_BYTES", 2 * merging._passage_bytes(seqs[0]))
    assert first_passages(seqs, 0.3, "tv", 300) == expected
    assert widths == [2, 2, 1]


def test_state_count_changes_start_a_new_batch(monkeypatch):
    seqs = bd_sequences(4)[:2] + bd_sequences(8)[:3] + bd_sequences(4)[2:]
    expected = [first_passage(s, 0.3, "tv", 300) for s in seqs]
    widths = []
    batch = merging._passage_batch

    def spy(batch_seqs, *args):
        widths.append(len(batch_seqs))
        return batch(batch_seqs, *args)

    monkeypatch.setattr(merging, "_passage_batch", spy)
    assert first_passages(seqs, 0.3, "tv", 300) == expected
    assert widths == [2, 3, 3]


def test_a_generator_is_read_as_the_batches_take_it(monkeypatch):
    # the floor walks a batch as soon as no one-kernel sequence fits beside it
    seqs = bd_sequences()
    expected = [first_passage(s, 0.3, "tv", 300) for s in seqs]
    events = []
    batch = merging._passage_batch

    def spy(batch_seqs, *args):
        events.append(f"walk {len(batch_seqs)}")
        return batch(batch_seqs, *args)

    def pulled():
        for i, seq in enumerate(seqs):
            events.append(f"pull {i}")
            yield seq

    monkeypatch.setattr(merging, "_passage_batch", spy)
    monkeypatch.setattr(merging, "_BATCH_BYTES", 2 * merging._passage_bytes(seqs[0]))
    assert first_passages(pulled(), 0.3, "tv", 300) == expected
    assert events == ["pull 0", "pull 1", "walk 2", "pull 2", "pull 3", "walk 2",
                      "pull 4", "walk 1"]


def test_a_walked_sequence_is_freed_before_the_next_is_made(monkeypatch):
    expected = [first_passage(s, 0.3, "tv", 300) for s in bd_sequences()]
    refs = []
    alive = []

    def make(i):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        seq = bd_sequences()[i]
        refs.append(weakref.ref(seq))
        return seq

    monkeypatch.setattr(merging, "_BATCH_BYTES", 1)
    assert first_passages((make(i) for i in range(5)), 0.3, "tv", 300) == expected
    assert alive == [0] * 5


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_a_failed_read_comes_after_the_batch_read_before_it(metric):
    space = StateSpace(3)

    def pulled():
        yield slow_merger(space, 5)
        yield drifting_after(space, 3, merged=False)
        raise RuntimeError("generator failed")

    with pytest.raises(ArithmeticError, match="row-sum drift 1.00e-10 at step 4"):
        first_passages(pulled(), 0.5, metric, 50)

    def pulled_clean():
        yield slow_merger(space, 5)
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        first_passages(pulled_clean(), 0.5, metric, 50)


def test_rejects_an_unknown_metric():
    with pytest.raises(ValueError):
        first_passages(bd_sequences(), 0.3, "hellinger", 10)
    assert first_passages([], 0.3, "tv", 10) == []


def test_random_dense_kernels(rng):
    seqs = [KernelSequence.iid([random_kernel(rng, 6, zero_prob=0.3) for _ in range(4)],
                               seed=s) for s in range(7)]
    for metric in ("tv", "relsup"):
        for epsilon in (0.5, 1e-3, 1e-9):
            assert_batch_is_loop(seqs, epsilon, metric, 120)


def banded_kernel(rng, n, width):
    """A random kernel on ``n`` states, zero beyond ``width`` diagonals from the main one."""
    rows, cols = np.indices((n, n))
    m = np.where(np.abs(rows - cols) <= width, rng.uniform(0.05, 1.0, (n, n)), 0.0)
    return StochasticKernel(StateSpace(n), m / m.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("n", [9, 33, 65])
@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_a_batch_mixing_dense_and_tridiagonal_sequences_is_the_loop(monkeypatch, metric, n):
    # one batch of one state count: the tridiagonal sequences walk as one
    # stack, by four kernels a product, and each other sequence alone, a
    # kernel a product with the band of its own kernels
    rng = np.random.default_rng(n)
    dense = [KernelSequence.iid([banded_kernel(rng, n, w) for w in (2, 5)], seed=1),
             KernelSequence.iid([random_kernel(rng, n, zero_prob=0.3) for _ in range(3)], seed=2),
             KernelSequence.cyclic([banded_kernel(rng, n, 2), banded_kernel(rng, n, 3)])]
    tridiagonal = bd_sequences(n - 1)
    seqs = [tridiagonal[0], dense[0], dense[1], *tridiagonal[1:3], dense[2], *tridiagonal[3:]]
    epsilon = 0.3 if metric == "tv" else 2.0
    loop = [first_passage(seq, epsilon, metric, 400) for seq in seqs]
    assert any(t is not None for t, _, _ in loop)
    widths, bands, products = [], [], []
    batch, forward_matmul = merging._passage_batch, merging.forward_matmul

    def batch_spy(batch_seqs, *args):
        widths.append(len(batch_seqs))
        return batch(batch_seqs, *args)

    def matmul_spy(size, band):  # once a stack
        multiply, stack = forward_matmul(size, band), len(bands)
        bands.append(band)

        def counted(p, k, out=None):
            products.append((stack, p.shape[0]))
            return multiply(p, k, out=out)
        return counted

    monkeypatch.setattr(merging, "_BATCH_BYTES", 1 << 23)  # every sequence in one batch
    monkeypatch.setattr(merging, "_passage_batch", batch_spy)
    monkeypatch.setattr(merging, "forward_matmul", matmul_spy)
    assert first_passages(seqs, epsilon, metric, 400) == loop
    assert widths == [len(seqs)]
    assert bands == [4] + [n if n < 64 else max(k.bandwidth for k in seq.kernels)
                           for seq in dense]
    assert products[0] == (0, len(tridiagonal))
    assert {width for stack, width in products if stack > 0} == {1}


class TestIndices:
    def test_iid_blocks_match_index_at(self, rng):
        seq = KernelSequence.iid([random_kernel(rng, 3) for _ in range(5)], seed=8)
        block = seq._BLOCK
        for start, stop in ((1, 17), (-40, 3), (block - 5, block + 5), (1, 3 * block + 7),
                            (-2 * block - 1, -block + 2), (9, 9), (9, 4)):
            expected = [seq.index_at(i) for i in range(start, stop)]
            assert seq.indices(start, stop).tolist() == expected

    @pytest.mark.parametrize("kind", ["cyclic", "explicit"])
    def test_modular_rules_match_index_at(self, rng, kind):
        kernels = [random_kernel(rng, 3) for _ in range(4)]
        seq = (KernelSequence.cyclic(kernels, word=[2, 0, 3, 3, 1]) if kind == "cyclic"
               else KernelSequence.explicit(kernels))
        for start, stop in ((1, 30), (-23, 4), (0, 1), (5, 5)):
            assert seq.indices(start, stop).tolist() == [seq.index_at(i)
                                                         for i in range(start, stop)]


MIRRORED_64 = {
    "name": "mirrored-pair-64",
    "generator": {"family": "mirrored_bd_pair", "params": {"p": 0.54, "q": 0.36, "r": 0.1}},
    "analysis": {"kind": "merging_time", "metric": "tv", "epsilon": 0.25, "n_max": 100000},
    "grid": {"N": [16, 32, 64]},
    "replicas": 1,
    "seed": 1,
}

# one state count under two values of a second grid key: both values share a stack
UNIFORM_LABELS = {
    "name": "uniform-bd-labels",
    "generator": {"family": "uniform_bd_set", "params": {"set_size": 4}},
    "analysis": {"kind": "merging_time", "metric": "tv", "epsilon": 0.25, "n_max": 20000},
    "grid": {"N": [12], "label": ["a", "b"]},
    "replicas": 3,
    "seed": 4,
}
INLINE_CONFIGS = {"mirrored-pair-64": MIRRORED_64, "uniform-bd-labels": UNIFORM_LABELS}


def per_point_rows(config):
    """Rows of a merging_time scenario from a loop of ``first_passage``, one point at a time."""
    generate = scenarios.GENERATORS[config["generator"]["family"]]
    params = config["generator"].get("params", {})
    analysis = config["analysis"]
    rows = []
    for index, point in enumerate(scenarios._grid_points(config)):
        seq, _ = generate(params, point, substream(int(config["seed"]), fold_path(index)))
        t, tv, relsup = first_passage(seq, float(analysis["epsilon"]), analysis["metric"],
                                      int(analysis["n_max"]))
        rows.append({**point, "t_merge": t if t is not None else -1,
                     "tv_final": float(tv), "relsup_final": float(relsup)})
    return rows


@pytest.mark.parametrize("source", ["drifted-bd-scaling", "uniform-bd-probe", "mirrored-pair",
                                    "mirrored-pair-64", "uniform-bd-labels"])
def test_scenario_rows_equal_a_per_point_loop(source, tmp_path):
    if source in INLINE_CONFIGS:
        config = INLINE_CONFIGS[source]
        source = tmp_path / f"{source}.json"
        source.write_text(json.dumps(config))
    config, _ = scenarios.load_scenario(source)
    assert scenarios.run_scenario(source).rows == per_point_rows(config)


def test_scenario_walks_points_in_stacks(monkeypatch):
    widths = []
    batch = merging._passage_batch

    def spy(batch_seqs, *args):
        widths.append((batch_seqs[0].space.size, len(batch_seqs)))
        return batch(batch_seqs, *args)

    monkeypatch.setattr(merging, "_passage_batch", spy)
    config, _ = scenarios.load_scenario("uniform-bd-probe")
    rows = scenarios.run_scenario("uniform-bd-probe").rows
    assert sum(w for _, w in widths) == len(rows)
    assert max(w for _, w in widths) > 1
    # one grid value per stack, in grid order
    sizes = [size for size, _ in widths]
    assert sizes == sorted(sizes)


def test_a_failing_point_raises_the_first_error(monkeypatch):
    # point 3's generator fails; points 0..2 are walked first and the drift
    # error of point 1 is the one the serial loop raises
    space = StateSpace(3)
    good = slow_merger(space, 5)
    drifting = drifting_after(space, 3, merged=False)

    def generate(params, point, rng):
        if point["replica"] == 3:
            raise RuntimeError("generator failed")
        return (drifting if point["replica"] == 1 else good), {}

    monkeypatch.setitem(scenarios.GENERATORS, "mirrored_bd_pair", generate)
    options = {"metric": "tv", "epsilon": 0.5, "n_max": 50}
    points = [{"N": 2, "replica": r} for r in range(5)]
    with pytest.raises(ArithmeticError, match="row-sum drift 1.00e-10 at step 4"):
        scenarios._run_merging(points, lambda i, p: generate({}, p, None)[0], options)
    points = [{"N": 2, "replica": r} for r in (0, 2, 3, 4)]
    with pytest.raises(RuntimeError, match="generator failed"):
        scenarios._run_merging(points, lambda i, p: generate({}, p, None)[0], options)

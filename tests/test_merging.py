import math

import numpy as np
import pytest

from mclab import (
    KernelSequence,
    StateSpace,
    StochasticKernel,
    backward_envelopes,
    block_contraction_bound,
    contraction_coefficient,
    doeblin_bound,
    graph_kernel,
    lazy_stick,
    limit_row_estimate,
    merging_time,
    pairwise_distances,
    product,
    small_example,
    total_variation,
    uniform_conditions_certificate,
)
from mclab import merging
from mclab.chain_core import walk, walk_from_start
from mclab.merging import _block_trajectory, first_passage, relsup_between_rows, tv_between_rows
from mclab.zoo import constant_rate_bd

from conftest import all_pairs_tv, random_kernel


def exact_tv_trajectory(seq, n):
    """Independent oracle: distances from explicitly multiplied matrices."""
    p = np.eye(seq.space.size)
    out = [tv_between_rows(p)]
    for i in range(1, n + 1):
        p = p @ seq.kernel_at(i).entries
        out.append(tv_between_rows(p))
    return np.array(out)


class TestPairwiseDistances:
    def test_time_zero_is_dirac_separation(self, rng):
        seq = KernelSequence.explicit([random_kernel(rng, 4)])
        tv, relsup = pairwise_distances(seq, 0)
        assert tv == 1.0 and math.isinf(relsup)

    def test_row_constant_merges_in_one_step(self):
        space = StateSpace(3)
        u = StochasticKernel(space, np.full((3, 3), 1 / 3))
        seq = KernelSequence.explicit([u])
        tv, relsup = pairwise_distances(seq, 1)
        assert tv == 0.0 and relsup == 0.0

    def test_two_point_relsup_infinite_at_even_times(self):
        q0, q1 = small_example("two_point", a=0.5, b=0.5)
        seq = KernelSequence.cyclic([q0, q1])
        for n in (2, 4, 6, 10):
            tv, relsup = pairwise_distances(seq, n)
            assert math.isinf(relsup)
            assert tv < 1.0

    def test_relsup_conventions(self):
        # dead column contributes 0; mixed zero/positive column is infinite
        dead = np.array([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.5, 0.5, 0.0]])
        assert relsup_between_rows(dead) == pytest.approx(0.5 / 0.25 - 1)
        mixed = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.5, 0.5, 0.0]])
        assert math.isinf(relsup_between_rows(mixed))

    def test_dense_pairs_never_beat_dirac_pairs(self, rng):
        # extremal-pair reduction, tested against 1000 random dense pairs
        kernels = [random_kernel(rng, 5, zero_prob=0.4) for _ in range(3)]
        seq = KernelSequence.iid(kernels, seed=5)
        n = 7
        p = product(seq, 0, n).entries
        tv_star, relsup_star = pairwise_distances(seq, n)
        worst_tv = 0.0
        worst_relsup = 0.0
        for _ in range(1000):
            mu = rng.dirichlet(np.ones(5))
            nu = rng.dirichlet(np.ones(5))
            a, b = mu @ p, nu @ p
            worst_tv = max(worst_tv, total_variation(a, b))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where((a == 0) & (b == 0), 1.0, b / np.where(a == 0, np.nan, a))
            stat = np.nanmax(np.abs(ratio - 1.0)) if not np.isnan(ratio).all() else math.inf
            if np.isnan(ratio).any():
                stat = math.inf
            worst_relsup = max(worst_relsup, stat)
        assert worst_tv <= tv_star + 1e-12
        assert worst_relsup <= relsup_star + 1e-12 or math.isinf(relsup_star)


class TestMergingTime:
    def test_row_constant_takes_one_step(self):
        u = StochasticKernel(StateSpace(3), np.full((3, 3), 1 / 3))
        rep = merging_time(KernelSequence.explicit([u] * 5), 0.5, "tv", 5)
        assert rep.tv_time == 1 and rep.relsup_time == 1

    def test_balanced_two_state_mixes_in_one_step(self):
        k = StochasticKernel(StateSpace(2), np.array([[0.5, 0.5], [0.5, 0.5]]))
        rep = merging_time(KernelSequence.constant(k), 0.1, "tv", 10)
        assert rep.tv_time == 1

    def test_five_point_tv_merges_but_relsup_never(self):
        q0, q1 = small_example("five_point")
        seq = KernelSequence.cyclic([q1, q0])  # second graph drives odd steps
        rep = merging_time(seq, 1e-6, "tv", n_max=1000)
        assert rep.tv_time is not None and rep.tv_time < 500
        assert rep.relsup_time is None
        assert all(math.isinf(v) for v in rep.relsup_trajectory[1:])

    def test_trajectory_matches_oracle_and_is_monotone(self, rng):
        kernels = [random_kernel(rng, 4, zero_prob=0.3) for _ in range(3)]
        seq = KernelSequence.iid(kernels, seed=2)
        rep = merging_time(seq, 1e-9, "tv", 60)
        oracle = exact_tv_trajectory(seq, 60)
        assert np.abs(rep.tv_trajectory - oracle).max() <= 1e-10
        assert (np.diff(rep.tv_trajectory) <= 1e-12).all()

    def test_epsilon_validation(self, rng):
        seq = KernelSequence.explicit([random_kernel(rng, 3)])
        with pytest.raises(ValueError):
            merging_time(seq, 1.5, "tv", 5)
        with pytest.raises(ValueError):
            merging_time(seq, -0.1, "relsup", 5)

    def test_first_passage_agrees_with_report(self, rng):
        kernels = [random_kernel(rng, 5) for _ in range(2)]
        seq = KernelSequence.iid(kernels, seed=9)
        rep = merging_time(seq, 0.01, "tv", 50)
        t, tv, relsup = first_passage(seq, 0.01, "tv", 50)
        assert t == rep.tv_time
        assert tv == pytest.approx(rep.tv_trajectory[t], abs=1e-14)

    @pytest.mark.parametrize("metric,epsilon,n_max", [
        ("tv", 0.01, 50), ("relsup", 0.05, 50), ("tv", 1e-9, 3), ("relsup", 1e-9, 0)])
    def test_first_passage_values_are_the_trajectory_at_the_stop(self, rng, metric, epsilon,
                                                                 n_max):
        seq = KernelSequence.iid([random_kernel(rng, 5) for _ in range(2)], seed=9)
        rep = merging_time(seq, epsilon, metric, max(n_max, 1))
        got = first_passage(seq, epsilon, metric, n_max)
        stop = n_max if got[0] is None else got[0]
        assert got[0] == rep.time(metric)
        assert_within_passage_bound(got, (rep.time(metric), rep.tv_trajectory[stop],
                                          rep.relsup_trajectory[stop]), 5, stop)

    def test_capped_trajectory_on_the_mirrored_pair(self):
        # the 65-state pair stays at distance 1 for about 30 steps, some of
        # them above 1 by rounding; only those cells change under the cap
        seq = KernelSequence.cyclic([constant_rate_bd(64, 0.54, 0.36, 0.1),
                                     constant_rate_bd(64, 0.36, 0.54, 0.1)])
        n_max, epsilon = 300, 0.95
        uncapped = np.array([all_pairs_tv(p) for _, p, _ in walk_from_start(seq, n_max)])
        relsup = np.array([relsup_between_rows(p) for _, p, _ in walk_from_start(seq, n_max)])
        rep = merging_time(seq, epsilon, "tv", n_max)
        assert rep.tv_time == int(np.nonzero(uncapped <= epsilon)[0][0])
        assert rep.relsup_time is None and not (relsup <= epsilon).any()
        assert (rep.relsup_trajectory == relsup).all()
        changed = rep.tv_trajectory != uncapped
        assert changed.any()
        assert (changed == (uncapped > 1.0)).all()
        assert (rep.tv_trajectory[changed] == 1.0).all()
        t, tv, _ = first_passage(seq, epsilon, "tv", n_max)
        assert t == rep.tv_time and abs(tv - uncapped[t]) <= merging._passage_bound(t, 65)
        assert first_passage(seq, 1e3, "relsup", 20)[1] == 1.0 < uncapped[20]

    def test_report_serialization(self, rng, tmp_path):
        seq = KernelSequence.explicit([random_kernel(rng, 3) for _ in range(4)])
        rep = merging_time(seq, 0.5, "tv", 4, block=2)
        csv_path = tmp_path / "report.csv"
        rep.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,tv,relsup,doeblin_bound,block_bound"
        assert len(lines) == 1 + 5
        # \r\n line ends and repr floats, byte for byte
        assert csv_path.read_bytes().decode() == lines[0] + "\r\n" + "".join(
            f"{i},{float(rep.tv_trajectory[i])!r},{float(rep.relsup_trajectory[i])!r},"
            f"{float(rep.doeblin_trajectory[i])!r},{float(rep.block_trajectory[i])!r}\r\n"
            for i in range(5))
        obj = rep.to_json(tmp_path / "report.json")
        assert obj["horizon"] == 4 and len(obj["tv"]) == 5


def drifting_sequence():
    # rows sum to 1 + 1e-10, which only the unchecked constructor admits
    m = np.full((3, 3), (1 + 1e-10) / 3)
    return KernelSequence.constant(StochasticKernel._unchecked(StateSpace(3), m))


@pytest.mark.parametrize("run", [
    lambda seq: first_passage(seq, 1e-3, "tv", 5),
    lambda seq: limit_row_estimate(seq, n=0, m_min=-5),
    lambda seq: merging_time(seq, 0.5, "tv", 5),
    lambda seq: backward_envelopes(seq, 5),
], ids=["first_passage", "limit_row_estimate", "merging_time", "backward_envelopes"])
def test_walks_raise_on_row_sum_drift(run):
    with pytest.raises(ArithmeticError, match="row-sum drift"):
        run(drifting_sequence())


def stepwise_passage(seq, epsilon, metric, n_max):
    """Reference first passage: the walk with the metric evaluated at every step."""
    measure = tv_between_rows if metric == "tv" else relsup_between_rows
    p = np.eye(seq.space.size)
    hit = 0 if measure(p) <= epsilon else None
    if hit is None:
        for i, p, _ in walk(seq, range(1, n_max + 1)):
            if measure(p) <= epsilon:
                hit = i
                break
    return hit, tv_between_rows(p), relsup_between_rows(p)


def assert_within_passage_bound(got, expected, n_states, stop):
    """Same time as ``expected``, distances within the first passage's rounding bound at ``stop``."""
    delta = merging._passage_bound(stop, n_states)
    assert got[0] == expected[0]
    assert abs(got[1] - expected[1]) <= delta
    assert got[2] == expected[2] or abs(got[2] - expected[2]) <= delta * (1 + expected[2])


def metric_trajectory(seq, metric, n):
    measure = tv_between_rows if metric == "tv" else relsup_between_rows
    return [measure(np.eye(seq.space.size))] + [measure(p) for _, p, _ in
                                                walk(seq, range(1, n + 1))]


def bd_kernels(rates, n=8):
    return [constant_rate_bd(n, p, q, 1.0 - p - q) for p, q in rates]


PASSAGE_SEQUENCES = {
    "explicit": lambda: KernelSequence.explicit(
        bd_kernels([(0.3, 0.2), (0.25, 0.35), (0.4, 0.3), (0.2, 0.2), (0.35, 0.3)])),
    "cyclic": lambda: KernelSequence.cyclic(bd_kernels([(0.54, 0.36), (0.36, 0.54)]),
                                            word=[0, 1, 1, 0]),
    "iid": lambda: KernelSequence.iid(bd_kernels([(0.5, 0.3), (0.3, 0.5), (0.45, 0.25)]),
                                      seed=11),
}


@pytest.mark.parametrize("metric", ["tv", "relsup"])
@pytest.mark.parametrize("kind", sorted(PASSAGE_SEQUENCES))
class TestStridedFirstPassage:
    """``first_passage`` against the stepwise reference, bit for bit."""

    N_MAX = 200

    def test_threshold_at_a_computed_value(self, kind, metric):
        seq = PASSAGE_SEQUENCES[kind]()
        traj = metric_trajectory(seq, metric, self.N_MAX)
        first_finite = next(n for n, v in enumerate(traj) if math.isfinite(v))
        if metric == "relsup":
            assert first_finite > 3  # the kernels are tridiagonal: relsup starts at inf
        stride = merging._PASSAGE_STRIDE
        # mid-stride, just before a checkpoint, at a checkpoint, first finite value
        for step in (5 * stride + 7, 6 * stride - 1, 5 * stride, first_finite):
            epsilon = traj[step]
            got = first_passage(seq, epsilon, metric, self.N_MAX)
            assert got == stepwise_passage(seq, epsilon, metric, self.N_MAX)
            assert got[0] == step

    def test_threshold_inside_the_slack_band(self, kind, metric):
        # the checkpoint lies inside the band epsilon + 2δ, though not within
        # δ of epsilon: its stride is walked again and the hit comes later
        seq = PASSAGE_SEQUENCES[kind]()
        checkpoint = 5 * merging._PASSAGE_STRIDE
        value = metric_trajectory(seq, metric, checkpoint)[checkpoint]
        delta = merging._passage_bound(checkpoint, 9) * (1.0 if metric == "tv" else 1.0 + value)
        epsilon = value - 1.5 * delta
        assert epsilon + delta < value <= epsilon + 2 * delta
        got = first_passage(seq, epsilon, metric, self.N_MAX)
        expected = stepwise_passage(seq, epsilon, metric, self.N_MAX)
        assert_within_passage_bound(got, expected, 9, expected[0])
        assert got[0] > checkpoint

    @pytest.mark.parametrize("n_max", [0, 1, 15, 37, 90])
    def test_horizons_off_the_stride(self, kind, metric, n_max):
        seq = PASSAGE_SEQUENCES[kind]()
        traj = metric_trajectory(seq, metric, n_max)
        never = 0.5 * min(traj[-1], 1.0)
        assert first_passage(seq, never, metric, n_max)[0] is None
        # not reached, within the bound; reached in the last partial stride, at
        # a computed value and so bit for bit
        assert_within_passage_bound(first_passage(seq, never, metric, n_max),
                                    stepwise_passage(seq, never, metric, n_max), 9, n_max)
        for epsilon in traj[-3:-2]:
            assert first_passage(seq, epsilon, metric, n_max) == \
                stepwise_passage(seq, epsilon, metric, n_max)

    def test_hit_at_step_zero(self, kind, metric):
        seq = PASSAGE_SEQUENCES[kind]()
        epsilon = math.inf if metric == "relsup" else 1.0
        got = first_passage(seq, epsilon, metric, self.N_MAX)
        assert got == stepwise_passage(seq, epsilon, metric, self.N_MAX)
        assert got[0] == 0


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_rounding_rise_inside_a_stride(rng, metric):
    # at the rounding floor a computed value can rise after its first passage;
    # the slack keeps the checkpoint ending that stride from ruling it out
    seq = KernelSequence.iid([random_kernel(rng, 6) for _ in range(3)], seed=25)
    traj = metric_trajectory(seq, metric, 160)
    stride = merging._PASSAGE_STRIDE
    step = next(j for j in range(1, 160)
                if j % stride and min(traj[:j]) > traj[j] < traj[(j // stride + 1) * stride])
    got = first_passage(seq, traj[step], metric, 160)
    assert got == stepwise_passage(seq, traj[step], metric, 160)
    assert got[0] == step


@pytest.mark.parametrize("reached", [True, False])
def test_first_passage_measures_once_per_stride(monkeypatch, reached):
    seq = PASSAGE_SEQUENCES["explicit"]()
    n_max = 400
    traj = metric_trajectory(seq, "relsup", n_max)
    epsilon = traj[390] if reached else 0.5 * traj[n_max]
    expected = stepwise_passage(seq, epsilon, "relsup", n_max)
    calls = []

    def counted(matrix):
        calls.append(1)
        return relsup_between_rows(matrix)

    monkeypatch.setattr(merging, "relsup_between_rows", counted)
    got = first_passage(seq, epsilon, "relsup", n_max)
    if reached:  # at a computed value, so bit for bit
        assert got == expected
    else:
        assert_within_passage_bound(got, expected, 9, n_max)
    assert expected[0] == (390 if reached else None)
    assert len(calls) <= n_max / merging._PASSAGE_STRIDE + merging._PASSAGE_STRIDE + 2


@pytest.mark.parametrize("computed", [False, True])
def test_a_threshold_near_1e9_walks_no_stride_again_before_the_crossing(monkeypatch, computed):
    # the band above epsilon is the rounding bound's, about 3e-11 here, so
    # the checkpoints that fall below epsilon + 1e-9 strides before the
    # crossing rule their strides out
    seq = PASSAGE_SEQUENCES["cyclic"]()
    n_max = 400
    traj = metric_trajectory(seq, "relsup", n_max)
    epsilon = traj[390] if computed else 2.5e-9
    expected = stepwise_passage(seq, epsilon, "relsup", n_max)
    assert expected[0] == 390
    assert traj[24 * merging._PASSAGE_STRIDE] < epsilon + 1e-9
    calls = []

    def counted(matrix):
        calls.append(1)
        return relsup_between_rows(matrix)

    def counted_stack(stack):  # a checkpoint measures its whole stack, here of one, in one call
        calls.append(1)
        return relsup_stack(stack)

    relsup_stack = merging._relsup_stack
    monkeypatch.setattr(merging, "relsup_between_rows", counted)
    monkeypatch.setattr(merging, "_relsup_stack", counted_stack)
    got = first_passage(seq, epsilon, "relsup", n_max)
    assert_within_passage_bound(got, expected, 9, 390)
    # time 0, 25 checkpoints and the hit's stride up to the hit; a computed
    # epsilon lies within δ of the walked-again value, so the hit is
    # measured once more on the stepwise route
    assert len(calls) == 1 + 25 + 6 + computed
    if computed:
        assert got == expected


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_tiny_entries_make_relsup_stepwise(monkeypatch, metric):
    # last-column entries near 1e-295 lie below the cut-off of the relative rounding bound
    k = np.array([[0.9, 0.1, 1e-295], [0.1, 0.9, 2e-295], [0.5, 0.5, 3e-295]])
    seq = KernelSequence.constant(StochasticKernel(StateSpace(3), k))
    epsilon = metric_trajectory(seq, metric, 60)[60]
    expected = stepwise_passage(seq, epsilon, metric, 200)
    assert expected[0] == 60
    measured = {"tv": tv_between_rows, "relsup": relsup_between_rows}[metric]
    calls = []

    def counted(matrix):
        calls.append(1)
        return measured(matrix)

    monkeypatch.setattr(merging, f"{metric}_between_rows", counted)
    assert first_passage(seq, epsilon, metric, 200) == expected
    if metric == "relsup":
        assert len(calls) == 1 + 60  # every step once the checkpoint at 16 holds tiny entries
    else:
        assert len(calls) < 1 + 60


def tiny_entry_kernel():
    # last-column entries near 1e-295 lie below the cut-off of the relative rounding
    # bound; relsup still shrinks by a factor 0.9 a step at n = 200, above its rounding floor
    k = np.array([[0.95, 0.05, 1e-295], [0.05, 0.95, 2e-295], [0.5, 0.5, 3e-295]])
    return StochasticKernel(StateSpace(3), k)


@pytest.mark.parametrize("reached", [True, False])
def test_tiny_entries_against_the_stepwise_reference(reached):
    # from the checkpoint at 16 on, every stride is walked again: a hit on a
    # checkpoint is the last step of that walk, and the horizon 200 ends a
    # shorter last stride (200 = 12 * 16 + 8)
    seq = KernelSequence.constant(tiny_entry_kernel())
    n_max, checkpoint = 200, 4 * merging._PASSAGE_STRIDE
    traj = metric_trajectory(seq, "relsup", n_max)
    epsilon = traj[checkpoint] if reached else 0.5 * traj[n_max]
    expected = stepwise_passage(seq, epsilon, "relsup", n_max)
    assert expected[0] == (checkpoint if reached else None)
    assert first_passage(seq, epsilon, "relsup", n_max) == expected


def test_tiny_entries_then_a_drift_raise_the_walks_error():
    drifting = StochasticKernel._unchecked(StateSpace(3), np.full((3, 3), (1 + 1e-10) / 3))
    seq = KernelSequence.explicit([tiny_entry_kernel()] * 39 + [drifting])
    epsilon = 0.5 * metric_trajectory(seq, "relsup", 39)[39]
    with pytest.raises(ArithmeticError, match="row-sum drift") as reference:
        stepwise_passage(seq, epsilon, "relsup", 200)
    with pytest.raises(ArithmeticError) as got:
        first_passage(seq, epsilon, "relsup", 200)
    assert str(got.value) == str(reference.value)
    assert str(got.value).endswith(" at step 40")


@pytest.mark.parametrize("metric", ["tv", "relsup"])
def test_first_passage_stops_before_a_later_drift(metric):
    # the walk reaches the drifting kernel at step 6, inside the stride that
    # holds the hit at step 1; a stepwise evaluation never gets there
    space = StateSpace(3)
    merged = StochasticKernel(space, np.full((3, 3), 1 / 3))
    drifting = StochasticKernel._unchecked(space, np.full((3, 3), (1 + 1e-10) / 3))
    seq = KernelSequence.explicit([merged] * 5 + [drifting])
    got = first_passage(seq, 0.5, metric, 40)
    assert got == stepwise_passage(seq, 0.5, metric, 40)
    assert got[0] == 1


class TestDoeblin:
    def test_row_constant_epsilon(self):
        row = np.array([0.2, 0.5, 0.3])
        u = StochasticKernel(StateSpace(3), np.tile(row, (3, 1)))
        cert = doeblin_bound(KernelSequence.explicit([u]), 1)
        assert cert.epsilons[0] == pytest.approx(0.5)
        assert cert.cumulative_bound[0] == pytest.approx(0.5)

    def test_balanced_two_state_geometric(self):
        k = StochasticKernel(StateSpace(2), np.array([[0.5, 0.5], [0.5, 0.5]]))
        cert = doeblin_bound(KernelSequence.constant(k), 20)
        assert np.allclose(cert.cumulative_bound, 0.5 ** np.arange(1, 21))
        assert cert.diverges is False  # sum of epsilons is 10 < default threshold

    def test_divergence_flag(self):
        k = StochasticKernel(StateSpace(2), np.array([[0.5, 0.5], [0.5, 0.5]]))
        cert = doeblin_bound(KernelSequence.constant(k), 200)
        assert cert.diverges is True

    def test_dominates_exact_tv_on_random_sequences(self, rng):
        for trial in range(500):
            n_states = int(rng.integers(2, 9))
            kernels = [random_kernel(rng, n_states, zero_prob=0.35)
                       for _ in range(int(rng.integers(1, 4)))]
            seq = KernelSequence.iid(kernels, seed=trial)
            horizon = int(rng.integers(2, 51))
            cert = doeblin_bound(seq, horizon)
            exact = exact_tv_trajectory(seq, horizon)
            assert (exact[1:] <= cert.cumulative_bound + 1e-12).all()


class TestBlockContraction:
    def test_row_constant_block_one(self):
        u = StochasticKernel(StateSpace(3), np.full((3, 3), 1 / 3))
        assert block_contraction_bound(KernelSequence.explicit([u] * 4), 4, 1) == 0.0

    def test_single_block_is_whole_product_coefficient(self, rng):
        kernels = [random_kernel(rng, 4) for _ in range(6)]
        seq = KernelSequence.explicit(kernels)
        assert block_contraction_bound(seq, 6, 6) == pytest.approx(
            contraction_coefficient(product(seq, 0, 6)), abs=1e-14)

    def test_dominates_exact_tv(self, rng):
        for trial in range(500):
            n_states = int(rng.integers(2, 9))
            kernels = [random_kernel(rng, n_states, zero_prob=0.3)
                       for _ in range(int(rng.integers(1, 4)))]
            seq = KernelSequence.iid(kernels, seed=10_000 + trial)
            horizon = int(rng.integers(2, 40))
            block = int(rng.integers(1, 6))
            bound = block_contraction_bound(seq, horizon, block)
            boundary = (horizon // block) * block
            exact = exact_tv_trajectory(seq, boundary)[-1] if boundary else 1.0
            assert exact <= bound + 1e-12

    @pytest.mark.parametrize("block", [0, -3])
    def test_rejects_nonpositive_block(self, rng, block):
        seq = KernelSequence.explicit([random_kernel(rng, 3)])
        with pytest.raises(ValueError, match="block"):
            merging_time(seq, 0.25, "tv", 20, block=block)
        with pytest.raises(ValueError, match="block"):
            block_contraction_bound(seq, 20, block)


def window_sequences(rng):
    """A cyclic word with repeats, an i.i.d. rule and an explicit list."""
    alphabet = [random_kernel(rng, 5, zero_prob=0.2) for _ in range(3)]
    return {
        "cyclic": KernelSequence.cyclic(alphabet, word=[0, 1, 0, 0, 2, 1]),
        "iid": KernelSequence.iid(alphabet, probs=[0.5, 0.3, 0.2], seed=4),
        "explicit": KernelSequence.explicit([random_kernel(rng, 5) for _ in range(5)]),
    }


class TestWindowMemo:
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_block_trajectory_matches_uncached_fold(self, rng, block):
        for name, seq in window_sequences(rng).items():
            for n in (5, 47):
                expected = np.ones(n + 1)
                running = 1.0
                for j in range(n // block):
                    running *= contraction_coefficient(
                        product(seq, j * block, (j + 1) * block, "forward"))
                    expected[(j + 1) * block:] = running
                assert np.array_equal(_block_trajectory(seq, n, block), expected), (name, n)

    def test_doeblin_matches_per_step_minima(self, rng):
        for name, seq in window_sequences(rng).items():
            eps = np.array([seq.kernel_at(i).entries.min(axis=0).max() for i in range(1, 48)])
            cert = doeblin_bound(seq, 47)
            assert np.array_equal(cert.epsilons, eps), name
            assert np.array_equal(cert.cumulative_bound, np.cumprod(1.0 - eps)), name

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_product_runs_once_per_distinct_window(self, rng, monkeypatch, block):
        calls = []

        def counting_product(seq, m, n, order="forward"):
            calls.append((m, n))
            return product(seq, m, n, order)

        monkeypatch.setattr(merging, "product", counting_product)
        for name, seq in window_sequences(rng).items():
            calls.clear()
            horizon = 200
            _block_trajectory(seq, horizon, block)
            windows = {tuple(id(seq.kernel_at(i)) for i in range(m + 1, m + block + 1))
                       for m in range(0, horizon - block + 1, block)}
            assert len(calls) == len(windows), name
            if block == 1:
                assert len(calls) <= len(seq.kernels)

    def test_index_at_agrees_with_kernel_at(self, rng):
        seqs = window_sequences(rng)
        word = seqs["cyclic"].word
        n_explicit = len(seqs["explicit"].kernels)
        for i in range(-20, 30):
            for seq in seqs.values():
                assert seq.kernels[seq.index_at(i)] is seq.kernel_at(i)
            assert seqs["cyclic"].index_at(i) == word[(i - 1) % len(word)]
            assert seqs["explicit"].index_at(i) == (i - 1) % n_explicit
        fresh = KernelSequence.iid(seqs["iid"].kernels, probs=seqs["iid"].probs, seed=4)
        assert ([fresh.index_at(i) for i in range(-2000, 2000)]
                == [seqs["iid"].index_at(i) for i in range(-2000, 2000)])


class TestUniformConditions:
    def test_strictly_positive_needs_one_step(self, rng):
        cert = uniform_conditions_certificate([random_kernel(rng, 4) for _ in range(2)], 5)
        assert cert.satisfied and cert.ell == 1

    def test_lazy_stick_needs_diameter(self):
        n = 6
        k, _ = graph_kernel(lazy_stick(n))
        cert = uniform_conditions_certificate([k], 10)
        assert cert.satisfied
        assert cert.ell == n  # the path needs its diameter to fill in
        assert cert.eta == pytest.approx(1 / 3)  # interior holding mass

    def test_swap_fails_laziness(self):
        swap = StochasticKernel(StateSpace(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        cert = uniform_conditions_certificate([swap], 8)
        assert not cert.satisfied and cert.eta == 0.0

    def test_satisfied_implies_relsup_decrease(self, rng):
        # qualitative relative-sup decay between horizons ell and 10 * ell * N
        n = 4
        k, _ = graph_kernel(lazy_stick(n))
        kernels = [k]
        for _ in range(2):
            g = lazy_stick(n)
            w = np.exp(rng.uniform(0, np.log(2), len(g.edges)))
            kernels.append(graph_kernel(g.with_weights(w))[0])
        cert = uniform_conditions_certificate(kernels, 20)
        assert cert.satisfied
        seq = KernelSequence.iid(kernels, seed=3)
        _, early = pairwise_distances(seq, cert.ell)
        _, late = pairwise_distances(seq, 10 * cert.ell * (n + 1))
        assert late < early


class TestBackwardEnvelopes:
    def test_initial_values(self, rng):
        seq = KernelSequence.explicit([random_kernel(rng, 4)])
        lo, hi = backward_envelopes(seq, 1)
        assert np.array_equal(hi[0], np.ones(4))
        assert np.array_equal(lo[0], np.zeros(4))

    def test_row_constant_collapses_immediately(self):
        row = np.array([0.1, 0.6, 0.3])
        u = StochasticKernel(StateSpace(3), np.tile(row, (3, 1)))
        lo, hi = backward_envelopes(KernelSequence.explicit([u, u]), 1)
        assert np.allclose(lo[1], row) and np.allclose(hi[1], row)

    def test_monotone_on_random_sequences(self, rng):
        for trial in range(100):
            n_states = int(rng.integers(2, 7))
            kernels = [random_kernel(rng, n_states, zero_prob=0.3) for _ in range(3)]
            seq = KernelSequence.iid(kernels, seed=trial)
            lo, hi = backward_envelopes(seq, 40)
            assert (np.diff(hi, axis=0) <= 1e-12).all()
            assert (np.diff(lo, axis=0) >= -1e-12).all()


class TestCounterexampleFloors:
    def test_seven_point_tv_floor(self):
        q0, q1 = small_example("seven_point")
        seq = KernelSequence.cyclic([q1, q0])
        rep = merging_time(seq, 0.25, "tv", 200)
        assert rep.tv_time is None
        assert rep.tv_trajectory.min() >= 0.5

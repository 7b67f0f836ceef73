
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab import (
    KernelSequence,
    ProbMeasure,
    ReducibleKernelError,
    StateSpace,
    StochasticKernel,
    adjoint_kernel,
    classify_structure,
    compose,
    constant_rate_bd,
    contraction_coefficient,
    evolve,
    perturbed_stick_pair,
    product,
    small_example,
    stationary_measure,
    stick_pair_measures,
    total_variation,
)
from mclab.chain_core import (
    DRIFT_ATOL,
    kernel_from_json,
    kernel_to_json,
    sequence_from_json,
    sequence_to_json,
    tv_between_rows,
    walk,
    walk_from_start,
)

from conftest import all_pairs_tv, random_kernel


def brute_force_sia(entries, n=400, tol=1e-8):
    """Row-constant-limit oracle: does K^n have nearly identical rows?"""
    p = np.linalg.matrix_power(entries, n)
    spread = max(
        total_variation(p[i], p[j])
        for i in range(p.shape[0])
        for j in range(i + 1, p.shape[0])
    )
    return spread < tol


class TestConstruction:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            StateSpace(0)
        with pytest.raises(ValueError):
            StateSpace(2, ("a", "a"))

    def test_kernel_renormalizes_small_drift(self):
        m = np.array([[0.5, 0.5 + 3e-10], [0.25, 0.75]])
        k = StochasticKernel(StateSpace(2), m)
        assert np.allclose(k.entries.sum(axis=1), 1.0, atol=1e-15)

    def test_kernel_rejects_large_drift_and_negatives(self):
        with pytest.raises(ValueError):
            StochasticKernel(StateSpace(2), np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            StochasticKernel(StateSpace(2), np.array([[-0.1, 1.1], [0.5, 0.5]]))

    def test_measure_flags(self):
        space = StateSpace(3)
        mu = ProbMeasure(space, np.array([0.2, 0.3, 0.5]))
        assert mu.positive
        nu = ProbMeasure(space, np.array([0.0, 0.5, 0.5]))
        assert not nu.positive

    def test_entries_are_readonly(self):
        k = StochasticKernel(StateSpace(2), np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            k.entries[0, 0] = 1.0

    def test_bandwidth_is_the_widest_step_of_the_support(self, rng):
        assert StochasticKernel.identity(StateSpace(4)).bandwidth == 0
        assert constant_rate_bd(6, 0.3, 0.5, 0.2).bandwidth == 1
        assert random_kernel(rng, 5).bandwidth == 4
        entries = constant_rate_bd(6, 0.3, 0.5, 0.2).entries.copy()
        entries[4, 2] = 0.1
        entries[4] /= entries[4].sum()
        assert StochasticKernel(StateSpace(7), entries).bandwidth == 2


class TestCompose:
    def test_identity_left(self, rng):
        k = random_kernel(rng, 5)
        i = StochasticKernel.identity(k.space)
        assert np.array_equal(compose(i, k).entries, k.entries)

    def test_row_constant_absorbs(self, rng):
        # any kernel followed by a row-constant one yields the row-constant one
        k = random_kernel(rng, 4)
        u = StochasticKernel(k.space, np.full((4, 4), 0.25))
        assert np.allclose(compose(k, u).entries, u.entries, atol=1e-15)
        # composing the other way gives a row-constant matrix as well
        left = compose(u, k).entries
        assert np.allclose(left, left[0][None, :], atol=1e-15)

    def test_space_mismatch(self, rng):
        with pytest.raises(ValueError):
            compose(random_kernel(rng, 3), random_kernel(rng, 4))


class TestProduct:
    def test_empty_window_is_identity(self, rng):
        seq = KernelSequence.explicit([random_kernel(rng, 4) for _ in range(5)])
        assert np.array_equal(product(seq, 3, 3).entries, np.eye(4))

    def test_cyclic_unrolls(self, rng):
        q1, q2 = random_kernel(rng, 4), random_kernel(rng, 4)
        seq = KernelSequence.cyclic([q1, q2])
        expected = compose(compose(StochasticKernel.identity(q1.space), q1), q2)
        got = product(seq, 0, 2, "forward")
        assert np.array_equal(got.entries, expected.entries)

    def test_equals_fold_of_compose_bitwise(self, rng):
        kernels = [random_kernel(rng, 5) for _ in range(6)]
        seq = KernelSequence.explicit(kernels)
        acc = StochasticKernel.identity(kernels[0].space)
        for k in kernels:
            acc = compose(acc, k)
        assert np.array_equal(product(seq, 0, 6).entries, acc.entries)

    def test_backward_order(self, rng):
        kernels = [random_kernel(rng, 3) for _ in range(3)]
        seq = KernelSequence.explicit(kernels)
        fwd = product(seq, 0, 3, "forward").entries
        bwd = product(seq, 0, 3, "backward").entries
        direct_fwd = kernels[0].entries @ kernels[1].entries @ kernels[2].entries
        direct_bwd = kernels[2].entries @ kernels[1].entries @ kernels[0].entries
        assert np.allclose(fwd, direct_fwd, atol=1e-14)
        assert np.allclose(bwd, direct_bwd, atol=1e-14)

    def test_rejects_bad_window(self, rng):
        seq = KernelSequence.explicit([random_kernel(rng, 3)])
        with pytest.raises(ValueError):
            product(seq, 2, 1)


def three_kinds_of_sequence(rng, kind):
    kernels = [random_kernel(rng, 5, zero_prob=0.3) for _ in range(3)]
    if kind == "explicit":
        return KernelSequence.explicit(kernels)
    if kind == "cyclic":
        return KernelSequence.cyclic(kernels, word=[2, 0, 1, 1])
    return KernelSequence.iid(kernels, seed=11)


class TestWalk:
    @pytest.mark.parametrize("order", ["forward", "backward"])
    @pytest.mark.parametrize("kind", ["explicit", "cyclic", "iid"])
    def test_equals_product_fold_bitwise(self, rng, kind, order):
        seq = three_kinds_of_sequence(rng, kind)
        steps = list(walk(seq, range(1, 13), order))
        assert [i for i, _, _ in steps] == list(range(1, 13))
        for i, p, drift in steps:
            assert np.array_equal(p, product(seq, 0, i, order).entries)
            assert 0.0 <= drift <= DRIFT_ATOL

    @pytest.mark.parametrize("kind", ["explicit", "cyclic", "iid"])
    def test_descending_backward_walk_is_forward_window(self, rng, kind):
        # the limit-row order: K_i joins on the left as i runs down to -9
        seq = three_kinds_of_sequence(rng, kind)
        for i, p, _ in walk(seq, range(3, -10, -1), "backward"):
            assert np.allclose(p, product(seq, i - 1, 3, "forward").entries, rtol=0, atol=1e-15)

    def test_rejects_unknown_order(self, rng):
        seq = three_kinds_of_sequence(rng, "explicit")
        with pytest.raises(ValueError):
            next(walk(seq, range(1, 3), "sideways"))

    @pytest.mark.parametrize("order", ["forward", "backward"])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_walk_from_start_prepends_time_zero(self, rng, order, n):
        seq = three_kinds_of_sequence(rng, "iid")
        steps = list(walk_from_start(seq, n, order))
        assert [i for i, _, _ in steps] == list(range(n + 1))
        assert np.array_equal(steps[0][1], np.eye(seq.space.size)) and steps[0][2] == 0.0
        for (i, p, drift), (j, q, d) in zip(steps[1:], walk(seq, range(1, n + 1), order)):
            assert (i, drift) == (j, d) and np.array_equal(p, q)


class TestEvolve:
    def test_invariant_measure_is_fixed(self, rng):
        k = random_kernel(rng, 6)
        pi = stationary_measure(k)
        out = evolve(pi, KernelSequence.constant(k), 20)
        for mu in out:
            assert np.abs(mu.weights - pi.weights).max() <= 1e-12

    def test_two_point_deterministic_cycle(self):
        q0, q1 = small_example("two_point", a=0.4, b=0.6)
        seq = KernelSequence.cyclic([q0, q1])
        delta = ProbMeasure.dirac(q0.space, 0)
        out = evolve(delta, seq, 2)
        # 0 -> 1 -> 0 with probability one
        assert np.array_equal(out[1].weights, [0.0, 1.0])
        assert np.array_equal(out[2].weights, [1.0, 0.0])

    def test_stick_pair_band(self, rng):
        # after a full sweep, every state holds at least min(p,q)^(2N+1) mass
        n_sites = 7
        p, q = 0.6, 0.4
        q1, q2 = perturbed_stick_pair(n_sites, p, q, 0.0, 0.0, 0.0)
        seq = KernelSequence.iid([q1, q2], seed=11)
        floor = min(p, q) ** (2 * n_sites + 1)
        out = evolve(ProbMeasure.uniform(q1.space), seq, 60)
        for mu in out[2 * n_sites + 1:]:
            assert mu.weights.min() >= floor
            assert mu.weights.max() <= 1 - n_sites * floor


class TestStationary:
    def test_doubly_stochastic_gives_uniform(self):
        m = np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
        pi = stationary_measure(StochasticKernel(StateSpace(3), m))
        assert np.allclose(pi.weights, 1 / 3, atol=1e-13)

    def test_constant_rate_bd_uniform(self):
        k = constant_rate_bd(10, 1 / 3, 1 / 3, 1 / 3)
        assert k.entries[0, 0] == pytest.approx(2 / 3)
        assert k.entries[10, 10] == pytest.approx(2 / 3)
        pi = stationary_measure(k)
        assert np.allclose(pi.weights, 1 / 11, atol=1e-13)

    def test_stick_kernel_measure_formula(self):
        n_sites, p, q, r, eta1, eta2 = 9, 0.5, 0.3, 0.2, 0.25, 0.1
        q1, _ = perturbed_stick_pair(n_sites, p, q, r, eta1, eta2)
        pi1, _ = stick_pair_measures(n_sites, p, q, r, eta1, eta2)
        got = stationary_measure(q1)
        assert np.abs(got.weights - pi1.weights).max() <= 1e-12
        # all states below the top share one weight
        assert np.ptp(pi1.weights[:-1]) == 0.0

    def test_reducible_raises_with_classes(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ReducibleKernelError) as err:
            stationary_measure(StochasticKernel(StateSpace(2), m))
        assert err.value.recurrent_classes == ((0,), (1,))

    def test_residual_on_random_irreducible_kernels(self, rng):
        # spec tolerance: residual below 1e-12 across sizes up to 12
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            k = random_kernel(rng, n, zero_prob=0.2)
            if not classify_structure(k).irreducible:
                continue
            pi = stationary_measure(k)
            assert np.abs(pi.weights @ k.entries - pi.weights).max() <= 1e-12


class TestClassify:
    def test_identity(self):
        rep = classify_structure(StochasticKernel.identity(StateSpace(3)))
        assert not rep.irreducible and not rep.sia
        assert len(rep.recurrent_classes) == 3

    def test_swap(self):
        rep = classify_structure(StochasticKernel(StateSpace(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert rep.irreducible and not rep.aperiodic and not rep.sia
        assert rep.period == 2

    def test_strictly_positive(self, rng):
        rep = classify_structure(random_kernel(rng, 5))
        assert rep.sia and rep.irreducible and rep.aperiodic and rep.period == 1

    def test_transient_states_allowed(self):
        # one absorbing state fed by a transient one: sia without irreducibility
        m = np.array([[0.5, 0.5], [0.0, 1.0]])
        rep = classify_structure(StochasticKernel(StateSpace(2), m))
        assert rep.sia and not rep.irreducible
        assert rep.recurrent_classes == ((1,),)

    def test_agrees_with_limit_oracle_on_2state_grid(self):
        for a in np.linspace(0, 1, 21):
            for b in np.linspace(0, 1, 21):
                k = StochasticKernel(StateSpace(2), np.array([[1 - a, a], [b, 1 - b]]))
                assert classify_structure(k).sia == brute_force_sia(k.entries)


class TestAdjoint:
    def test_reversible_is_self_adjoint(self, rng):
        from conftest import random_reversible_kernel

        k = random_reversible_kernel(rng, 5)
        pi = stationary_measure(k)
        assert np.abs(adjoint_kernel(k, pi).entries - k.entries).max() <= 1e-12

    def test_rotation_adjoint_is_reverse_rotation(self):
        rot = np.roll(np.eye(3), 1, axis=1)
        k = StochasticKernel(StateSpace(3), rot)
        pi = ProbMeasure.uniform(k.space)
        assert np.allclose(adjoint_kernel(k, pi).entries, rot.T, atol=1e-15)

    def test_composition_with_adjoint_can_be_reducible(self):
        k, adj = small_example("adjoint_pair")
        pi = stationary_measure(k)
        assert np.abs(adjoint_kernel(k, pi).entries - k.entries).max() > 1e-3  # not reversible
        rep = classify_structure(compose(k, adj))
        assert not rep.irreducible

    def test_double_adjoint_returns_original(self, rng):
        k = random_kernel(rng, 6)
        pi = stationary_measure(k)
        back = adjoint_kernel(adjoint_kernel(k, pi), pi)
        assert np.abs(back.entries - k.entries).max() <= 1e-12

    def test_non_invariant_measure_warns(self, rng):
        k = random_kernel(rng, 4)
        mu = ProbMeasure(k.space, np.array([0.7, 0.1, 0.1, 0.1]))
        with pytest.warns(UserWarning):
            adjoint_kernel(k, mu)

    def test_zero_entry_rejected(self, rng):
        k = random_kernel(rng, 3)
        with pytest.raises(ValueError):
            adjoint_kernel(k, ProbMeasure(k.space, np.array([0.0, 0.5, 0.5])))


class TestContraction:
    def test_identity_is_one(self):
        assert contraction_coefficient(StochasticKernel.identity(StateSpace(4))) == 1.0

    def test_row_constant_is_zero(self):
        k = StochasticKernel(StateSpace(3), np.full((3, 3), 1 / 3))
        assert contraction_coefficient(k) == 0.0

    @given(a=st.floats(0, 1), b=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_two_state_formula(self, a, b):
        k = StochasticKernel(StateSpace(2), np.array([[1 - a, a], [b, 1 - b]]))
        assert contraction_coefficient(k) == pytest.approx(abs(1 - a - b), abs=1e-12)

    def test_submultiplicative(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            k1 = random_kernel(rng, n, zero_prob=0.3)
            k2 = random_kernel(rng, n, zero_prob=0.3)
            lhs = contraction_coefficient(compose(k1, k2))
            rhs = contraction_coefficient(k1) * contraction_coefficient(k2)
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 9, 17, 33, 65, 129, 257])
    def test_tv_kernel_matches_all_pairs_oracle(self, rng, n):
        k = random_kernel(rng, n, zero_prob=0.3)
        e = k.entries
        oracle = max((total_variation(e[i], e[j]) for i in range(n) for j in range(i + 1, n)),
                     default=0.0)
        assert tv_between_rows(e) == oracle
        assert contraction_coefficient(k) == min(tv_between_rows(e), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 9, 17, 33, 65, 129, 257])
    def test_tv_kernel_is_the_oracle_capped_at_one(self, rng, n):
        # most rows hold one or two entries, so many pairs are disjoint and,
        # from 65 states on, rounding puts the oracle above 1
        e = random_kernel(rng, n, zero_prob=0.97).entries
        assert tv_between_rows(e) == min(all_pairs_tv(e), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 9, 65, 257])
    def test_identity_rows_read_one(self, n):
        e = np.eye(n)
        assert tv_between_rows(e) == min(all_pairs_tv(e), 1.0) == (1.0 if n > 1 else 0.0)

    def test_walk_before_merging_reads_one(self):
        # the mirrored pair's ends stay apart for about 30 steps; rounding
        # puts some of those worst-pair values above 1
        seq = KernelSequence.cyclic([constant_rate_bd(64, 0.54, 0.36, 0.1),
                                     constant_rate_bd(64, 0.36, 0.54, 0.1)])
        above = 0
        for _, p, _ in walk_from_start(seq, 40):
            oracle = all_pairs_tv(p)
            above += oracle > 1.0
            assert tv_between_rows(p) == min(oracle, 1.0)
        assert above > 0

    @pytest.mark.parametrize("n", [9, 65, 257])
    def test_scan_reaches_the_last_block_below_one(self, n):
        # every row uniform but the last two, u + d and u - d: the worst pair
        # is those two, which only the last block compares, and it stays below 1
        e = np.full((n, n), 1.0 / n)
        d = np.zeros(n)
        d[:n - n % 2] = 0.8 / n * np.resize([1.0, -1.0], n - n % 2)
        e[-2] += d
        e[-1] -= d
        oracle = all_pairs_tv(e)
        assert oracle == 0.5 * float(np.abs(e[-2] - e[-1]).sum())
        assert 0.7 < oracle < 1.0
        assert tv_between_rows(e) == oracle


class TestSequences:
    def test_iid_is_deterministic_and_random_access(self, rng):
        kernels = [random_kernel(rng, 3) for _ in range(4)]
        a = KernelSequence.iid(kernels, seed=99)
        b = KernelSequence.iid(kernels, seed=99)
        idx = [a.kernel_at(i) for i in range(1, 50)]
        assert all(x is y for x, y in zip(idx, (b.kernel_at(i) for i in range(1, 50))))
        # negative indices are defined too
        assert a.kernel_at(-5) is b.kernel_at(-5)

    def test_iid_respects_probs(self, rng):
        kernels = [random_kernel(rng, 2) for _ in range(2)]
        seq = KernelSequence.iid(kernels, probs=[0.9, 0.1], seed=1)
        picks = [seq.kernel_at(i) is kernels[0] for i in range(1, 3001)]
        assert 0.85 < np.mean(picks) < 0.95

    def test_cyclic_word(self, rng):
        q = [random_kernel(rng, 2) for _ in range(2)]
        seq = KernelSequence.cyclic(q, word=[1, 0, 0])
        picked = [seq.kernel_at(i) for i in range(1, 7)]
        assert [p is q[1] for p in picked] == [True, False, False, True, False, False]

    def test_json_round_trip(self, rng):
        kernels = [random_kernel(rng, 3) for _ in range(2)]
        seq = KernelSequence.iid(kernels, probs=[0.25, 0.75], seed=7)
        back = sequence_from_json(sequence_to_json(seq))
        assert back.kind == "iid" and back.seed == 7
        assert np.array_equal(back.kernels[0].entries, kernels[0].entries)
        k = random_kernel(rng, 4)
        assert np.array_equal(kernel_from_json(kernel_to_json(k)).entries, k.entries)


class TestEvolveChecksEachStep:
    def test_weights_are_the_validated_measures(self, rng):
        # the reference builds a checked ProbMeasure from every step
        seq = KernelSequence.iid([random_kernel(rng, 7, zero_prob=0.3) for _ in range(3)], seed=4)
        mu = ProbMeasure.from_weights(seq.space, rng.uniform(0.1, 1.0, 7))
        expected = [mu]
        for i in range(1, 41):
            expected.append(ProbMeasure(seq.space, expected[-1].weights @ seq.kernel_at(i).entries))
        out = evolve(mu, seq, 40)
        assert len(out) == 41 and out[0] is mu
        for got, ref in zip(out, expected):
            assert got.space == seq.space
            assert np.array_equal(got.weights, ref.weights)
            assert not got.weights.flags.writeable

    @pytest.mark.parametrize("matrix", [
        [[1.2, -0.2], [0.5, 0.5]],            # a negative weight after one step
        [[0.5, 0.5 + 1e-8], [0.5, 0.5 + 1e-8]],  # a total 1e-8 away from 1
    ], ids=["negative", "drifting"])
    def test_a_bad_step_raises_value_error(self, matrix):
        space = StateSpace(2)
        seq = KernelSequence.constant(StochasticKernel._unchecked(space, np.array(matrix)))
        with pytest.raises(ValueError, match="at step 1"):
            evolve(ProbMeasure.dirac(space, 0), seq, 3)

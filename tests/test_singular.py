import tracemalloc

import numpy as np
import pytest

import mclab.singular

from mclab import (
    KernelSequence,
    ProbMeasure,
    StateSpace,
    StochasticKernel,
    constant_rate_bd,
    graph_kernel,
    homogeneous_bounds,
    lazy_stick,
    perturbed_stick_pair,
    pi_kernel,
    random_weights,
    stationary_measure,
    step_sigma,
    singular_value_bounds,
)

from mclab.chain_core import walk

from conftest import random_kernel, random_reversible_kernel


def second_abs_eigenvalue(kernel, pi):
    """Eigen oracle for reversible kernels via symmetric conjugation."""
    root = np.sqrt(pi.weights)
    sym = root[:, None] * kernel.entries / root[None, :]
    ev = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return max(ev[-2], -ev[0])


class TestStepSigma:
    def test_row_constant_kernel_gives_zero(self):
        row = np.array([0.2, 0.3, 0.5])
        u = StochasticKernel(StateSpace(3), np.tile(row, (3, 1)))
        mu_prev = ProbMeasure(u.space, np.array([0.4, 0.3, 0.3]))
        mu_next = ProbMeasure(u.space, row)
        assert step_sigma(u, mu_prev, mu_next) == pytest.approx(0.0, abs=1e-12)

    def test_reversible_at_stationarity_matches_eigen_oracle(self, rng):
        for _ in range(20):
            k = random_reversible_kernel(rng, 5)
            pi = stationary_measure(k)
            sigma = step_sigma(k, pi, pi)
            assert sigma == pytest.approx(second_abs_eigenvalue(k, pi), abs=1e-10)

    def test_inconsistent_measures_rejected(self, rng):
        k = random_kernel(rng, 3)
        mu = ProbMeasure.uniform(k.space)
        with pytest.raises(ValueError):
            step_sigma(k, mu, mu)  # uniform is generally not preserved

    def test_zero_entry_rejected(self, rng):
        k = random_kernel(rng, 3)
        mu0 = ProbMeasure(k.space, np.array([0.0, 0.5, 0.5]))
        mu1 = ProbMeasure(k.space, (np.array([0.0, 0.5, 0.5]) @ k.entries))
        with pytest.raises(ValueError):
            step_sigma(k, mu0, mu1)


class TestPiKernel:
    def test_row_constant_stays_row_constant(self):
        row = np.array([0.25, 0.25, 0.5])
        u = StochasticKernel(StateSpace(3), np.tile(row, (3, 1)))
        mu_prev = ProbMeasure(u.space, np.array([0.3, 0.4, 0.3]))
        p = pi_kernel(u, mu_prev, ProbMeasure(u.space, row))
        assert np.allclose(p.entries, p.entries[0][None, :], atol=1e-14)

    def test_reversible_at_stationarity_squares_eigenvalues(self, rng):
        k = random_reversible_kernel(rng, 6)
        pi = stationary_measure(k)
        p = pi_kernel(k, pi, pi)
        root = np.sqrt(pi.weights)
        sym_k = root[:, None] * k.entries / root[None, :]
        sym_p = root[:, None] * p.entries / root[None, :]
        ev_k = np.sort(np.abs(np.linalg.eigvalsh(0.5 * (sym_k + sym_k.T))))
        ev_p = np.sort(np.linalg.eigvalsh(0.5 * (sym_p + sym_p.T)))
        assert np.allclose(ev_p, ev_k ** 2, atol=1e-11)

    def test_svd_and_eigen_paths_agree(self, rng):
        # dual-route check on 200 random steps
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = random_kernel(rng, n)
            mu_prev = ProbMeasure(k.space, rng.dirichlet(np.full(n, 5.0)))
            mu_next = ProbMeasure(k.space, mu_prev.weights @ k.entries)
            sigma = step_sigma(k, mu_prev, mu_next)
            p = pi_kernel(k, mu_prev, mu_next)
            root = np.sqrt(mu_next.weights)
            sym = root[:, None] * p.entries / root[None, :]
            ev = np.linalg.eigvalsh(0.5 * (sym + sym.T))
            assert sigma == pytest.approx(np.sqrt(max(ev[-2], 0.0)), abs=1e-9)


class TestSingularValueBounds:
    def test_time_zero_bound_exceeds_exact(self, rng):
        k = random_kernel(rng, 4)
        mu0 = ProbMeasure(k.space, rng.dirichlet(np.full(4, 3.0)))
        rep = singular_value_bounds(KernelSequence.constant(k), mu0, 0)
        assert (rep.tv_bound[0] >= 1.0 - 1e-15).all()
        assert (rep.tv_exact[0] <= 1.0).all()
        assert rep.max_violation() <= 1e-12

    def test_stationary_start_reduces_to_geometric_rate(self, rng):
        k = random_reversible_kernel(rng, 5)
        pi = stationary_measure(k)
        rep = singular_value_bounds(KernelSequence.constant(k), pi, 30)
        sigma = second_abs_eigenvalue(k, pi)
        assert np.allclose(rep.sigmas, sigma, atol=1e-10)
        assert np.allclose(rep.sigma_product, sigma ** np.arange(31), atol=1e-9)
        expected = sigma ** 30 / np.sqrt(pi.weights)
        assert np.allclose(rep.tv_bound[30], expected, atol=1e-9)

    def test_domination_on_drifted_bd_sequences(self, rng):
        for trial in range(20):
            n = int(rng.integers(4, 11))
            kernels = []
            for _ in range(3):
                ratio = np.exp(rng.uniform(np.log(1.2), np.log(2.0)))
                r = rng.uniform(0, 0.3)
                q = (1 - r) / (1 + ratio)
                kernels.append(constant_rate_bd(n, ratio * q, q, r))
            seq = KernelSequence.iid(kernels, seed=trial)
            rep = singular_value_bounds(seq, ProbMeasure.uniform(kernels[0].space), 50)
            assert rep.max_violation() <= 1e-12

    def test_relabeling_invariance(self, rng):
        n = 6
        kernels = [random_kernel(rng, n) for _ in range(2)]
        mu0 = ProbMeasure(kernels[0].space, rng.dirichlet(np.full(n, 4.0)))
        rep = singular_value_bounds(KernelSequence.cyclic(kernels), mu0, 12)
        perm = rng.permutation(n)
        pm = np.eye(n)[perm]
        relabeled = [StochasticKernel(kernels[0].space, pm @ k.entries @ pm.T)
                     for k in kernels]
        mu0_rel = ProbMeasure(kernels[0].space, mu0.weights[perm])
        rep_rel = singular_value_bounds(KernelSequence.cyclic(relabeled), mu0_rel, 12)
        assert np.allclose(rep_rel.sigmas, rep.sigmas, atol=1e-10)
        assert np.allclose(rep_rel.tv_bound, rep.tv_bound[:, perm], atol=1e-10)
        assert np.allclose(
            rep_rel.relsup_bound, rep.relsup_bound[:, perm][:, :, perm], atol=1e-10)

    def test_csv_columns(self, rng, tmp_path):
        k = random_kernel(rng, 3)
        rep = singular_value_bounds(KernelSequence.constant(k), ProbMeasure.uniform(k.space), 5)
        path = tmp_path / "bounds.csv"
        rep.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("n,sigma_n,sigma_product,max_tv_bound,max_tv_exact,"
                          "max_relsup_bound,max_relsup_exact")
        # \r\n line ends and repr floats, byte for byte; sigma_n is empty at n = 0
        assert path.read_bytes().decode() == header + "\r\n" + "".join(
            f"{t},{'' if t == 0 else repr(float(rep.sigmas[t - 1]))},"
            f"{float(rep.sigma_product[t])!r},{float(rep.tv_bound[t].max())!r},"
            f"{float(rep.tv_exact[t].max())!r},{float(rep.relsup_bound_max[t])!r},"
            f"{float(rep.relsup_exact_max[t])!r}\r\n" for t in range(6))


    @pytest.mark.parametrize("low", [0.0, 1e-300])
    def test_mu0_at_or_below_floor_rejected(self, low):
        space = StateSpace(3)
        k = StochasticKernel(space, np.full((3, 3), 1.0 / 3.0))
        mu0 = ProbMeasure(space, np.array([low, 0.5, 0.5]))
        with pytest.raises(ValueError, match="strictly positive"):
            singular_value_bounds(KernelSequence.constant(k), mu0, 0)
        above = ProbMeasure(space, np.array([1e-299, 0.5, 0.5]))
        assert singular_value_bounds(KernelSequence.constant(k), above, 0).horizon == 0


class TestDominates:
    KERNEL = [[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]

    def test_rounding_at_a_tiny_mu0_entry_is_not_a_violation(self):
        # at t = 0 the relative-sup values are about 1/mu_0(x), so an ulp of rounding in
        # the bound exceeds VALUE_ATOL once mu_0(x) is below about 1e-16
        k = StochasticKernel(StateSpace(3), np.array(self.KERNEL))
        flagged = []
        for low in 10.0 ** -np.linspace(2, 39, 152):
            mu0 = ProbMeasure(k.space, np.array([low, 0.5, 0.5 - low]))
            rep = singular_value_bounds(KernelSequence.constant(k), mu0, 5)
            if not rep.dominates():
                flagged.append((low, rep.max_violation()))
        assert flagged == []

    @pytest.mark.parametrize("weights", [[1e-17, 0.5, 0.5 - 1e-17], [1e-3, 0.5, 0.499],
                                         [1 / 3, 1 / 3, 1 / 3]])
    def test_halved_sigmas_are_still_flagged(self, monkeypatch, weights):
        k = StochasticKernel(StateSpace(3), np.array(self.KERNEL))
        mu0 = ProbMeasure(k.space, np.array(weights))
        seq = KernelSequence.constant(k)
        assert singular_value_bounds(seq, mu0, 30).dominates()
        step_sigma = mclab.singular.step_sigma
        monkeypatch.setattr(mclab.singular, "step_sigma", lambda *args: 0.5 * step_sigma(*args))
        rep = singular_value_bounds(seq, mu0, 30)
        assert not rep.dominates()
        assert rep.max_violation() > 1e-12

    def test_relsup_bound_low_by_a_millionth_is_flagged(self, monkeypatch):
        # at t = 0 and x = y = 0 the relative-sup bound is exact: a bound lowered by one
        # part in a million must exceed the rounding slack, with the TV family still holding
        k = StochasticKernel(StateSpace(3), np.array(self.KERNEL))
        mu0 = ProbMeasure(k.space, np.array([1e-17, 0.5, 0.5 - 1e-17]))
        relsup_bound = mclab.singular._relsup_bound
        monkeypatch.setattr(mclab.singular, "_relsup_bound",
                            lambda *args: relsup_bound(*args) * (1.0 - 1e-6))
        rep = singular_value_bounds(KernelSequence.constant(k), mu0, 5)
        assert (rep.tv_exact <= rep.tv_bound).all()
        assert not rep.dominates()


class TestHomogeneousBounds:
    def test_stationary_start_is_geometric(self, rng):
        k = random_reversible_kernel(rng, 4)
        pi = stationary_measure(k)
        rep = homogeneous_bounds(k, pi, 20)
        assert np.allclose(rep.sigmas, rep.sigmas[0], atol=1e-10)
        assert (np.diff(rep.sigma_product) <= 1e-15).all()

    def test_two_state_invariant_deviation_is_dominated(self):
        # closed-form two-state evolution: mu_n(0) - pi(0) decays like (1-a-b)^n
        a = b = 0.3
        k = StochasticKernel(StateSpace(2), np.array([[1 - a, a], [b, 1 - b]]))
        mu0 = ProbMeasure.uniform(k.space)
        n = 25
        rep = homogeneous_bounds(k, mu0, n)
        pi = np.array([0.5, 0.5])
        for t in range(n + 1):
            mu_t = pi + (1 - a - b) ** t * (mu0.weights - pi)
            oracle = np.abs(pi / mu_t - 1.0)
            assert np.allclose(rep.invariant_exact[t], oracle, atol=1e-12)
        assert rep.max_violation() <= 1e-12

    def test_requires_ergodic_kernel(self):
        swap = StochasticKernel(StateSpace(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            homogeneous_bounds(swap, ProbMeasure.uniform(swap.space), 5)

    def test_positive_start_on_weighted_stick(self, rng):
        g = lazy_stick(6)
        k, _ = graph_kernel(g.with_weights(random_weights(g, 2.0, seed=4)))
        mu0 = ProbMeasure(k.space, rng.dirichlet(np.full(7, 6.0)))
        rep = homogeneous_bounds(k, mu0, 40)
        assert rep.max_violation() <= 1e-12
        assert rep.mu0_star == pytest.approx(mu0.weights.min())


class TestStickPairBounds:
    def test_domination_along_alternating_stick_pair(self):
        q1, q2 = perturbed_stick_pair(9, 0.6, 0.4, 0.0, 0.0, 0.0)
        seq = KernelSequence.cyclic([q1, q2])
        rep = singular_value_bounds(seq, ProbMeasure.uniform(q1.space), 80)
        assert rep.max_violation() <= 1e-12
        assert (rep.sigmas <= 1.0 + 1e-12).all()
        assert (np.diff(rep.sigma_product) <= 1e-15).all()


def full_tensor_reference(seq, report):
    """Gap rows, largest violation and both relsup tensors, each ``(n+1, N, N)``.

    Walks the product separately with ``chain_core.walk`` and keeps every
    per-step matrix, as the report did before it was reduced on the fly.
    """
    mus = report.mus
    size = mus.shape[1]
    inv_sqrt_mu0 = 1.0 / np.sqrt(mus[0])
    products = [np.eye(size)] + [p for _, p, _ in walk(seq, range(1, report.horizon + 1))]
    tv_exact = np.stack([0.5 * np.abs(p - w[None, :]).sum(axis=1)
                         for p, w in zip(products, mus)])
    tv_bound = report.sigma_product[:, None] * inv_sqrt_mu0[None, :]
    exact = np.stack([np.abs(p / w[None, :] - 1.0) for p, w in zip(products, mus)])
    bound = np.stack([sp * inv_sqrt_mu0[:, None] / np.sqrt(w)[None, :]
                      for sp, w in zip(report.sigma_product, mus)])
    rows = [{
        "n": t,
        "sigma_n": float(report.sigmas[t - 1]) if t >= 1 else "",
        "sigma_product": float(report.sigma_product[t]),
        "max_tv_bound": float(tv_bound[t].max()),
        "max_tv_exact": float(tv_exact[t].max()),
        "max_relsup_bound": float(bound[t].max()),
        "max_relsup_exact": float(exact[t].max()),
    } for t in range(report.horizon + 1)]
    violation = max(float((tv_exact - tv_bound).max()), float((exact - bound).max()))
    return rows, violation, exact, bound


class TestStreamedReport:
    @pytest.mark.parametrize("n", [0, 1, 37])
    @pytest.mark.parametrize("kind", ["explicit", "cyclic", "iid", "stick-pair"])
    def test_bit_equal_to_full_tensor_reference(self, rng, kind, n):
        size = 10 if kind == "stick-pair" else 6
        if kind == "explicit":
            seq = KernelSequence.explicit([random_kernel(rng, size) for _ in range(max(n, 1))])
        elif kind == "cyclic":
            seq = KernelSequence.cyclic([random_kernel(rng, size) for _ in range(3)],
                                        word=[2, 0, 1, 1])
        elif kind == "iid":
            seq = KernelSequence.iid([random_kernel(rng, size) for _ in range(3)], seed=5)
        else:
            # mu_t spans about 11 decades by t = 37, so the bound's largest entry
            # and its smallest sqrt(mu_t(y)) move far from the rest
            seq = KernelSequence.cyclic(list(perturbed_stick_pair(9, 0.9, 0.1, 0.0, 0.0, 0.0)))
        mu0 = ProbMeasure(seq.space, rng.dirichlet(np.full(size, 2.0)))
        rep = singular_value_bounds(seq, mu0, n)
        rows, violation, _, bound = full_tensor_reference(seq, rep)
        assert rep.gap_rows() == rows
        assert rep.max_violation() == violation
        assert rep.relsup_bound.shape == (n + 1, size, size)
        assert np.array_equal(rep.relsup_bound, bound)

    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_homogeneous_violation_matches_reference(self, rng, n):
        k = random_reversible_kernel(rng, 5)
        mu0 = ProbMeasure(k.space, rng.dirichlet(np.full(5, 3.0)))
        rep = homogeneous_bounds(k, mu0, n)
        seq = KernelSequence.constant(k)
        _, _, exact, bound = full_tensor_reference(seq, singular_value_bounds(seq, mu0, n))
        expected = max(float((exact - bound).max()),
                       float((rep.invariant_exact - rep.invariant_bound).max()))
        assert rep.max_violation() == expected
        assert np.array_equal(rep.pointwise_bound, bound)

    def test_peak_memory_is_quadratic_in_states(self):
        # full (n+1)·N·N tensors would take 2 x 13.6 MB here
        size, n = 65, 400
        kernels = [constant_rate_bd(size, ratio * (0.8 / (1 + ratio)), 0.8 / (1 + ratio), 0.2)
                   for ratio in (1.3, 1.8, 1.5)]
        seq = KernelSequence.iid(kernels, seed=2)
        mu0 = ProbMeasure.uniform(seq.space)
        tracemalloc.start()
        try:
            rep = singular_value_bounds(seq, mu0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.horizon == n
        assert peak < 5 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

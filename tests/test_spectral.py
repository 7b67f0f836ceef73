import tracemalloc

import mpmath
import numpy as np
import pytest

from mclab import (
    StateSpace,
    comparison_check,
    dirichlet_forms,
    graph_kernel,
    lazy_stick,
    random_regular_graph,
    random_weights,
    second_singular_value,
    srw_spectrum,
    step_sigma,
)
from mclab.spectral import _symmetrized, reversible_eigenvalues
from mclab.zoo import WeightedGraph


def mpmath_deviations(graph, steps, dps=50):
    """``max_xy |K^n(x,y)/pi(y) - 1|`` for each ``n`` in ``steps``, at ``dps`` digits.

    The kernel and its measure are built in mpmath from the float edge
    weights, a loop counted once, and powered by repeated squaring.
    """
    size = graph.n_vertices
    with mpmath.workdps(dps):
        k = mpmath.zeros(size, size)
        for (x, y), w in zip(graph.edges, graph.weights.tolist()):
            k[x, y] += mpmath.mpf(w)
            if x != y:
                k[y, x] += mpmath.mpf(w)
        incident = [sum(k[x, y] for y in range(size)) for x in range(size)]
        total = sum(incident)
        pi = [s / total for s in incident]
        for x in range(size):
            for y in range(size):
                k[x, y] /= incident[x]
        values = []
        for n in steps:
            power, square = mpmath.eye(size), k
            while n:
                if n & 1:
                    power = power * square
                n >>= 1
                if n:
                    square = square * square
            values.append(max(abs(power[x, y] / pi[y] - 1)
                              for x in range(size) for y in range(size)))
        return values


def plain_deviations(graph, n_max):
    """``max_xy |K^n(x,y)/pi(y) - 1|`` for ``n = 0..n_max`` from a plain float power."""
    kernel, pi = graph_kernel(graph)
    p = np.eye(graph.n_vertices)
    values = [np.abs(p / pi.weights - 1.0).max()]
    for _ in range(n_max):
        p = p @ kernel.entries
        values.append(np.abs(p / pi.weights - 1.0).max())
    return np.array(values)


def all_terms_kept(graph, n):
    """Whether the truncation rule keeps every non-Perron term at step ``n``.

    A block of 16 steps starts at most 15 steps before ``n`` and keeps the
    terms with ``(|lam_k| / lam*)^start > 2^-53 pi_min``; fewer terms are
    kept at later starts, so the earliest possible start bounds the count.
    """
    kernel, pi = graph_kernel(graph)
    lam = np.abs(reversible_eigenvalues(kernel, pi)[:-1])
    ratio = lam / lam.max()
    return (ratio ** max(n - 15, 1) > 2.0 ** -53 * pi.weights.min()).all()


def truncated_sums(graph, n_max):
    """Dense ``C_n = Phi_r Lambda_r^n Phi_r^T`` for ``n = 1..n_max``, with the kept eigenvalues.

    ``r`` follows the truncation rule of ``comparison_check`` at the first
    step ``s`` of the 16-step block holding ``n``: the terms with
    ``(|lam_k| / lam*)^s > 2^-53 pi_min``, and at least two.
    """
    kernel, pi = graph_kernel(graph)
    lam, vec = np.linalg.eigh(_symmetrized(kernel, pi))
    order = np.argsort(-np.abs(lam[:-1]), kind="stable")
    lam, phi = lam[order], vec[:, order] / np.sqrt(pi.weights)[:, None]
    ratio = np.abs(lam) / np.abs(lam).max()
    sums, kept = [], []
    for n in range(1, n_max + 1):
        start = n - (n - 1) % 16
        rank = max(2, int(np.count_nonzero(ratio ** start > 2.0 ** -53 * pi.weights.min())))
        sums.append((phi[:, :rank] * lam[:rank] ** n) @ phi[:, :rank].T)
        kept.append(lam[:rank])
    return sums, kept


def bipartite_cycle(n):
    edges = tuple(sorted([(x, x + 1) for x in range(n - 1)] + [(0, n - 1)]))
    return WeightedGraph(StateSpace(n), edges, np.ones(n))


def complete_graph_with_loops(n):
    edges = [(x, y) for x in range(n) for y in range(x, n)]
    return WeightedGraph(StateSpace(n), tuple(sorted(edges)), np.ones(len(edges)))


class TestSrwSpectrum:
    def test_complete_graph_collapses(self):
        # the walk kernel is row-constant: every non-top eigenvalue vanishes
        g = complete_graph_with_loops(6)
        kernel, pi = graph_kernel(g)
        eigs = np.sort(np.linalg.eigvals(kernel.entries).real)
        assert np.allclose(eigs[:-1], 0.0, atol=1e-12)
        spec = srw_spectrum(g)
        assert spec.sigma == pytest.approx(0.0, abs=1e-12)

    def test_two_point_stick(self):
        spec = srw_spectrum(lazy_stick(1))
        assert spec.sigma == pytest.approx(0.0, abs=1e-14)
        assert spec.gap == pytest.approx(1.0)

    def test_lazy_stick_gap_scales_inverse_square(self):
        gaps = {n: srw_spectrum(lazy_stick(n)).gap for n in (8, 16, 32)}
        for small, large in ((8, 16), (16, 32)):
            ratio = gaps[small] / gaps[large]
            assert 4 * 0.7 <= ratio <= 4 * 1.3

    def test_report_fields(self):
        spec = srw_spectrum(lazy_stick(5))
        assert spec.sigma == pytest.approx(max(spec.beta_top, -spec.beta_bottom))
        assert spec.degree_total == 2 + 3 * 4 + 2
        assert spec.degree_min == 2


class TestDirichletForms:
    def test_constant_function_vanishes(self):
        g = lazy_stick(6)
        energy, sums, var = dirichlet_forms(g, np.ones(7))
        assert energy == 0.0 and var == pytest.approx(0.0, abs=1e-15)

    def test_unit_weights_reduce_to_degree_sum(self, rng):
        g = lazy_stick(5)
        f = rng.normal(size=6)
        energy, _, _ = dirichlet_forms(g, f)
        degree_total = g.degrees.sum()
        direct = sum((f[x] - f[y]) ** 2 for x, y in g.edges if x != y) / degree_total
        assert energy == pytest.approx(direct, rel=1e-12)

    def test_sum_form_is_quadratic_form_of_identity_plus_kernel(self, rng):
        g = lazy_stick(4)
        w = random_weights(g, 2.0, seed=6)
        graph = g.with_weights(w)
        f = rng.normal(size=5)
        _, sums, _ = dirichlet_forms(graph, f)
        kernel, pi = graph_kernel(graph)
        direct = float(pi.weights @ (f * (f + kernel.entries @ f)))
        assert sums == pytest.approx(direct, rel=1e-12)

    def test_comparison_sandwich(self, rng):
        g = lazy_stick(7)
        b = 2.5
        degree_total = g.degrees.sum()
        for seed in range(20):
            w = random_weights(g, b, seed=seed)
            graph = g.with_weights(w)
            c_w = graph.total_weight
            f = rng.normal(size=8)
            e_w, _, var_w = dirichlet_forms(graph, f)
            e_sr, _, var_sr = dirichlet_forms(g, f)
            assert e_sr <= (c_w * b / degree_total) * e_w + 1e-12
            assert var_w <= (degree_total * b / c_w) * var_sr + 1e-12


class TestComparisonCheck:
    def test_unit_band_forces_equality(self):
        g = lazy_stick(10)
        report = comparison_check(g, None, b=1.0)
        assert report.sigma_w == pytest.approx(report.sigma_unit, abs=1e-12)
        assert report.gap_holds

    def test_declared_band_validated(self):
        g = lazy_stick(5)
        w = random_weights(g, 3.0, seed=0)
        with pytest.raises(ValueError):
            comparison_check(g, w, b=np.sqrt(g.with_weights(w).weight_ratio))

    def test_no_violations_across_random_weightings(self):
        graphs = [lazy_stick(16), random_regular_graph(16, 3, seed=3)]
        for g in graphs:
            for b in (2.0, 4.0):
                for seed in range(25):
                    w = random_weights(g, b, seed=seed)
                    report = comparison_check(g, w, b)
                    assert report.gap_holds

    def test_bound_dominates_trajectory(self):
        g = lazy_stick(8)
        w = random_weights(g, 2.0, seed=12)
        report = comparison_check(g, w, 2.0, n_max=10 * 8 * 8)
        assert report.dominates()
        # decay rate of the bound is the comparison rate
        assert report.bound[1] / report.bound[0] == pytest.approx(
            1 - (1 - report.sigma_unit) / 4.0)

    def test_regular_graph_prefactor_is_b_times_size(self):
        n = 14
        g = random_regular_graph(n, 3, seed=8)
        b = 2.0
        w = random_weights(g, b, seed=1)
        report = comparison_check(g, w, b, n_max=3)
        assert report.bound[0] == pytest.approx(b * n)

    def test_sigma_agrees_with_step_operator(self):
        # cross-module consistency of the two singular-value routes
        g = lazy_stick(9)
        w = random_weights(g, 3.0, seed=21)
        kernel, pi = graph_kernel(g.with_weights(w))
        assert second_singular_value(kernel, pi) == pytest.approx(
            step_sigma(kernel, pi, pi), abs=1e-10)

    def test_one_symmetric_eigensolve_of_the_weighted_kernel(self, monkeypatch):
        # sigma_w and the spectral sum read one eigh; the unit walk has its own eigvalsh
        g = lazy_stick(9)
        w = random_weights(g, 2.0, seed=21)
        kernel, pi = graph_kernel(g.with_weights(w))
        solved = []
        for name in ("eigh", "eigvalsh"):
            def spy(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                solved.append(np.array(a))
                return _solve(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        comparison_check(g, w, 2.0, n_max=20)
        assert len(solved) == 2
        assert sum(np.array_equal(a, _symmetrized(kernel, pi)) for a in solved) == 1

    def test_csv_output(self, tmp_path):
        g = lazy_stick(4)
        report = comparison_check(g, None, b=1.0, n_max=6)
        path = tmp_path / "comparison.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,bound,exact_max"
        assert len(lines) == 8
        # \r\n line ends and repr floats, byte for byte
        assert path.read_bytes().decode() == lines[0] + "\r\n" + "".join(
            f"{n},{float(report.bound[n])!r},{float(report.exact[n])!r}\r\n" for n in range(7))

    def test_exact_matches_mpmath_past_the_rounding_floor(self):
        # a plain float power of this 9-state chain is off by 9e-6 relative at
        # n = 400 (value 2e-9) and reads a flat 3.5e-14 at n = 800 and 1000,
        # while the chain falls to 5e-23 by n = 1000; the 50-digit reference
        # keeps 1e-6 relative down to about 1e-43
        g = lazy_stick(8)
        w = random_weights(g, 2.0, seed=1)
        report = comparison_check(g, w, 2.0, n_max=1000)
        steps = [0, 1, 10, 100, 200, 300, 400, 500, 600, 800, 1000]
        reference = mpmath_deviations(g.with_weights(w), steps)
        for n, ref in zip(steps, reference):
            assert report.exact[n] == pytest.approx(float(ref), rel=1e-6, abs=0.0), n
        assert float(reference[-1]) < 1e-20
        # where the plain power still reads the chain, it agrees to 1e-9
        kernel, pi = graph_kernel(g.with_weights(w))
        p = np.eye(g.n_vertices)
        plain = [np.abs(p / pi.weights - 1.0).max()]
        for _ in range(1000):
            p = p @ kernel.entries
            plain.append(np.abs(p / pi.weights - 1.0).max())
        plain = np.array(plain)
        rows = plain >= 1e-3
        assert rows.sum() > 100
        assert report.exact[rows] == pytest.approx(plain[rows], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n_max", [-1, -2, -5])
    def test_negative_horizon_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            comparison_check(lazy_stick(4), None, b=1.0, n_max=n_max)


class TestSpectralSum:
    """``exact`` from the truncated eigen-sum against independent powers."""

    def test_certify_shape_matches_plain_power_and_mpmath(self):
        # the certify workload's spectral input at seed 3; 5.8383118692e-15 is
        # a 45-digit mpmath power's value at n = 40960
        g = lazy_stick(64)
        w = random_weights(g, 2.0, seed=3)
        report = comparison_check(g, w, 2.0, n_max=40960)
        plain = plain_deviations(g.with_weights(w), 5000)
        rows = plain >= 1e-3
        assert rows.sum() > 1000
        assert report.exact[:5001][rows] == pytest.approx(plain[rows], rel=1e-9, abs=0.0)
        assert report.exact[40960] == pytest.approx(5.8383118692e-15, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("graph, steps, dps", [
        (lazy_stick(16).with_weights(random_weights(lazy_stick(16), 2.0, seed=5)),
         [30, 37, 50, 100, 200, 400, 800, 1500, 3000], 50),
        (random_regular_graph(16, 3, seed=0).with_weights(
            random_weights(random_regular_graph(16, 3, seed=0), 2.0, seed=4)),
         [30, 37, 50, 100, 200, 400], 60),
    ], ids=["weighted stick", "regular without loops"])
    def test_truncated_steps_match_mpmath(self, graph, steps, dps):
        assert not any(all_terms_kept(graph, n) for n in steps)
        report = comparison_check(graph, n_max=max(steps))
        reference = mpmath_deviations(graph, steps, dps=dps)
        for n, ref in zip(steps, reference):
            assert report.exact[n] == pytest.approx(float(ref), rel=1e-9, abs=0.0), n

    def test_bipartite_cycle_stays_at_one(self):
        # eigenvalue -1: K^n(x, y) is 0 off the parity class, so exact[n] never
        # falls below 1
        edges = tuple(sorted([(x, x + 1) for x in range(7)] + [(0, 7)]))
        g = WeightedGraph(StateSpace(8), edges, np.ones(8))
        report = comparison_check(g, None, b=1.0, n_max=500)
        plain = plain_deviations(g, 500)
        assert report.exact == pytest.approx(plain, rel=1e-12, abs=0.0)
        assert report.exact[100:] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("graph", [
        complete_graph_with_loops(6),
        lazy_stick(1),
        WeightedGraph(StateSpace(1), ((0, 0),), np.ones(1)),
    ], ids=["complete with loops", "two-state stick", "one state"])
    def test_row_constant_kernel_reads_positive_zero(self, graph):
        # K is 1 pi^T, so C_n is zero from n = 1; a -0.0 would print as "-0.0"
        report = comparison_check(graph, None, b=1.0, n_max=100)
        assert (report.exact[1:] < 1e-15).all()
        assert not np.signbit(report.exact).any()


REGULAR = random_regular_graph(16, 3, seed=0)
STICK = lazy_stick(16)


class TestDiagonalRead:
    """``exact`` read from the diagonal of a positive semidefinite ``C_n``, or in full."""

    @pytest.mark.parametrize("graph", [
        STICK.with_weights(random_weights(STICK, 2.0, seed=5)),
        REGULAR.with_weights(random_weights(REGULAR, 2.0, seed=4)),
        REGULAR.with_weights(random_weights(REGULAR, 2.0, seed=7)),
        bipartite_cycle(8),
    ], ids=["weighted stick", "regular without loops", "regular, positive lam*", "bipartite cycle"])
    def test_matches_dense_truncated_sum(self, graph):
        # lam* is -0.84 on the first regular input and +0.85 on the second, so a read
        # that tests the sign of lam* alone reads the diagonal at n = 1 on the second
        sums, _ = truncated_sums(graph, 400)
        kernel, pi = graph_kernel(graph)
        reference = [np.abs(np.diag(1.0 / pi.weights) - 1.0).max()] + [np.abs(c).max() for c in sums]
        report = comparison_check(graph, n_max=400)
        assert report.exact == pytest.approx(np.array(reference), rel=8 * 2.0 ** -53, abs=0.0)

    def test_stick_reads_both_ways(self):
        # negative eigenvalues are kept until n = 48, none from n = 49 on
        graph = STICK.with_weights(random_weights(STICK, 2.0, seed=5))
        _, kept = truncated_sums(graph, 400)
        signs = [bool((lam >= 0.0).all()) for lam in kept]
        assert signs == [False] * 48 + [True] * 352

    def test_regular_graph_peaks_off_the_diagonal(self):
        # a loop-free regular graph keeps negative eigenvalues at every step, and at
        # odd n its largest |C_n(x, y)| lies off the diagonal: a diagonal read fails there
        graph = REGULAR.with_weights(random_weights(REGULAR, 2.0, seed=4))
        sums, kept = truncated_sums(graph, 400)
        assert not any((lam >= 0.0).all() for lam in kept)
        odd = sums[::2]
        off = [np.abs(c - np.diag(np.diag(c))).max() for c in odd]
        assert all(o > 1.01 * abs(np.diag(c).max()) for o, c in zip(off, odd))
        assert sum(o > 1.01 * np.abs(np.diag(c)).max() for o, c in zip(off, odd)) > 50

    def test_memory_stays_within_the_workspace(self):
        # the certify input: beside exact and bound, one 16 N^2-float workspace and 256 KiB;
        # reading all 40,960 steps at once would take N x n_max floats (21 MB)
        g = lazy_stick(64)
        w = random_weights(g, 2.0, seed=3)
        n_max, size = 40960, g.n_vertices
        comparison_check(g, w, 2.0, n_max=100)
        tracemalloc.start()
        try:
            comparison_check(g, w, 2.0, n_max=n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * (n_max + 1) + 16 * size * size * 8 + 256 * 1024

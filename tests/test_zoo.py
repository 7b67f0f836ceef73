import numpy as np
import pytest

from mclab import (
    ProbMeasure,
    StateSpace,
    circle_relabeling,
    classify_structure,
    closed_form_invariant,
    compose,
    constant_rate_bd,
    general_bd,
    general_bd_set,
    graph_kernel,
    lazy_stick,
    metropolis_ratio_bound,
    metropolis_reweight,
    perturbed_stick_pair,
    random_regular_graph,
    random_weights,
    small_example,
    stationary_measure,
    stick_pair_measures,
)
from mclab.zoo import WeightedGraph


def composed_stick_entries(N, p, q, r, e1, e2):
    """The displayed entry table of the composed stick pair, as a matrix."""
    n = (N - 1) // 2
    k = np.zeros((N + 1, N + 1))
    for x in range(0, n):
        k[2 * x, 2 * x + 2] = p * p
        k[2 * x + 2, 2 * x] = q * q
    for x in range(0, n - 1):
        k[2 * x + 1, 2 * x + 3] = q * q
        k[2 * x + 3, 2 * x + 1] = p * p
    k[0, 0] = 2 * p * q + r
    for x in range(1, N - 1):
        k[x, x] = 2 * p * q + r * r
        k[x, x + 1] = r * (p + q)
        k[x + 1, x] = r * (p + q)
    k[0, 1] = q * q + r * (1 - r)
    k[1, 0] = p * p + r * (1 - r)
    k[N - 1, N] = p * e2 + r * q
    k[N, N - 1] = (1 - e2) * e1 + (1 - e1) * r
    k[N - 2, N] = q * q
    k[N, N - 2] = (1 - e1) * p
    k[N - 1, N - 1] = p * (q + 1 - e2) + r * r
    k[N, N] = e1 * e2 + (1 - e1) * q
    return k


class TestConstantRateBD:
    def test_balanced_rates_give_uniform(self):
        k = constant_rate_bd(8, 1 / 3, 1 / 3, 1 / 3)
        assert k.entries[0, 0] == pytest.approx(2 / 3)
        assert k.entries[8, 8] == pytest.approx(2 / 3)
        assert np.allclose(stationary_measure(k).weights, 1 / 9, atol=1e-13)

    def test_symmetric_rates_uniform_for_any_holding(self):
        k = constant_rate_bd(6, 0.3, 0.3, 0.4)
        assert np.allclose(stationary_measure(k).weights, 1 / 7, atol=1e-13)

    def test_drift_two_gives_geometric_measure(self):
        k = constant_rate_bd(5, 0.5, 0.25, 0.25)
        pi = stationary_measure(k).weights
        expected = 2.0 ** np.arange(6)
        expected /= expected.sum()
        assert np.allclose(pi, expected, atol=1e-12)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            constant_rate_bd(5, 0.5, 0.4, 0.4)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("p, q, r", [(0.4, 0.3, 0.3), (0.0, 0.7, 0.3), (0.6, 0.0, 0.4)])
    def test_matches_explicit_loop(self, n, p, q, r):
        k = np.zeros((n + 1, n + 1))
        for x in range(n + 1):
            if x < n:
                k[x, x + 1] = p
            if x > 0:
                k[x, x - 1] = q
            k[x, x] = r
        k[0, 0] += q
        k[n, n] += p
        assert constant_rate_bd(n, p, q, r).entries.tobytes() == k.tobytes()


class TestGeneralBD:
    def test_constant_rates_agree_with_constant_constructor(self):
        n, p, q, r = 7, 0.4, 0.35, 0.25
        up = np.full(n + 1, p)
        up[n] = 0.0
        down = np.full(n + 1, q)
        down[0] = 0.0
        spec = general_bd(n, up, down)
        reference = constant_rate_bd(n, p, q, r)
        assert np.abs(spec.kernel.entries - reference.entries).max() <= 1e-15

    def test_band_instance_flags_true(self, rng):
        n = 8
        for _ in range(50):
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
                return
        pytest.fail("no in-band instance found in 50 draws")

    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    def test_rate_band_holds_at_the_edges_of_the_sampled_rates(self, n):
        # the uniform-bd sampler draws interior pairs from [1/4, 1/2)² with
        # u + d <= 3/4 and end rates from [1/4, 3/4); it never tests the rate
        # band, which must hold at every edge of those ranges
        below = np.nextafter
        rng = np.random.default_rng(n)
        edges = [(0.25, 0.25), (0.25, below(0.5, 0.0)), (below(0.5, 0.0), 0.25), (0.375, 0.375)]
        for u in rng.uniform(0.25, 0.5, 20).tolist():  # u + d on 3/4, the largest d it accepts
            d = 0.75 - u
            while d < 0.5 and u + below(d, 1.0) <= 0.75:
                d = below(d, 1.0)
            if d < 0.5 and u + d <= 0.75:
                edges.append((u, d))
        ends = [0.25, below(0.75, 0.0)]
        rows = []
        for first, last in [(a, b) for a in ends for b in ends]:
            for shift in range(len(edges)):
                pairs = [edges[(shift + x) % len(edges)] for x in range(n - 1)]
                up = [first] + [u for u, _ in pairs] + [0.0]
                down = [0.0] + [d for _, d in pairs] + [last]
                rows.append((up, down))
        specs = general_bd_set(n, [u for u, _ in rows], [d for _, d in rows])
        assert len(specs) == len(rows) and all(spec.within_rate_band for spec in specs)
        assert min(float(spec.hold.min()) for spec in specs) < 0.25  # 1 - u - d rounds below 1/4

    def test_drifting_rates_leave_measure_band(self):
        n = 16
        up = np.full(n + 1, 0.30)
        up[n] = 0.0
        down = np.full(n + 1, 0.25)
        down[0] = 0.0
        spec = general_bd(n, up, down)
        assert spec.within_rate_band
        assert not spec.within_measure_band

    def test_detailed_balance(self):
        spec = general_bd(5, [0.3, 0.4, 0.2, 0.5, 0.3, 0.0],
                          [0.0, 0.2, 0.3, 0.2, 0.4, 0.5])
        flow = spec.reversible_measure.weights[:, None] * spec.kernel.entries
        assert np.abs(flow - flow.T).max() <= 1e-15


class TestStickPair:
    def test_measure_formula(self):
        n, p, q, r, e1, e2 = 9, 0.45, 0.3, 0.25, 0.2, 0.6
        pi1, pi2 = stick_pair_measures(n, p, q, r, e1, e2)
        scale1 = (1 - e1) / p
        expected = np.full(n + 1, scale1 / (n * scale1 + 1))
        expected[n] = 1 / (n * scale1 + 1)
        assert np.allclose(pi1.weights, expected, atol=1e-15)
        q1, q2 = perturbed_stick_pair(n, p, q, r, e1, e2)
        assert np.abs(stationary_measure(q1).weights - pi1.weights).max() <= 1e-12
        assert np.abs(stationary_measure(q2).weights - pi2.weights).max() <= 1e-12

    def test_uniformizing_etas(self):
        n, p, q, r = 7, 0.5, 0.2, 0.3
        pi1, pi2 = stick_pair_measures(n, p, q, r, q + r, p + r)
        assert np.allclose(pi1.weights, 1 / (n + 1), atol=1e-15)
        assert np.allclose(pi2.weights, 1 / (n + 1), atol=1e-15)

    def test_composed_kernel_matches_entry_table(self):
        for (n, p, r, e1, e2) in [(5, 0.6, 0.0, 0.0, 0.0), (11, 0.55, 0.2, 0.3, 0.7),
                                  (7, 0.7, 0.1, 0.9, 0.05)]:
            q = 1 - p - r
            q1, q2 = perturbed_stick_pair(n, p, q, r, e1, e2)
            table = composed_stick_entries(n, p, q, r, e1, e2)
            assert np.abs(compose(q1, q2).entries - table).max() <= 1e-15

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            perturbed_stick_pair(6, 0.5, 0.5, 0.0, 0.0, 0.0)


class TestClosedFormInvariant:
    def test_zero_eta_profile(self):
        n, p, q = 7, 0.6, 0.4
        pi = closed_form_invariant(n, p, q, 0.0, 0.0)
        order = circle_relabeling(n)
        vals = pi.weights[order]
        # geometric profile (p/q)^(2i) / p after the top state
        ratio = vals[1:] / vals[0]
        expected = (p / q) ** (2 * np.arange(1, n + 1)) / p
        assert np.allclose(ratio, expected, rtol=1e-12)

    def test_swap_etas_give_uniform(self):
        n, p, q = 9, 0.55, 0.45
        pi = closed_form_invariant(n, p, q, q, p)
        assert np.allclose(pi.weights, 1 / (n + 1), rtol=1e-12)

    def test_matches_stationary_solver(self):
        n, p, q = 11, 0.6, 0.4
        pi = closed_form_invariant(n, p, q, 0.3, 0.7)
        q1, q2 = perturbed_stick_pair(n, p, q, 0.0, 0.3, 0.7)
        solved = stationary_measure(compose(q1, q2))
        assert np.abs(pi.weights / solved.weights - 1).max() <= 1e-10

    def test_rejects_equal_rates(self):
        with pytest.raises(ValueError):
            closed_form_invariant(5, 0.5, 0.5, 0.0, 0.0)


class TestSmallExamples:
    def test_two_point_rows(self):
        q0, q1 = small_example("two_point", a=0.3, b=0.8)
        assert np.allclose(q0.entries, [[0.0, 1.0], [0.7, 0.3]])
        assert np.allclose(q1.entries, [[0.8, 0.2], [1.0, 0.0]])

    def test_five_point_reversible_for_degree_measure(self):
        for k in small_example("five_point"):
            degrees = (k.entries > 0).sum(axis=1).astype(float)
            # loop contributes one edge; rows have as many moves as edges
            pi = degrees / degrees.sum()
            flow = pi[:, None] * k.entries
            assert np.abs(flow - flow.T).max() <= 1e-15

    @pytest.mark.parametrize("name, n, edge_sets", [
        ("five_point", 5, [[(0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (3, 4)],
                           [(0, 0), (0, 2), (2, 1), (2, 4), (1, 3), (4, 3)]]),
        ("seven_point", 7, [[(2, 2), (0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
                            [(2, 2), (1, 0), (0, 2), (2, 4), (4, 3), (4, 6), (3, 5), (6, 5)]]),
    ])
    def test_walks_are_degree_normalized_adjacency(self, name, n, edge_sets):
        for kernel, edges in zip(small_example(name), edge_sets, strict=True):
            a = np.zeros((n, n))
            for x, y in edges:
                a[x, y] = a[y, x] = 1.0
            assert kernel.entries.tobytes() == (a / a.sum(axis=1)[:, None]).tobytes()

    def test_seven_point_supports_oscillate(self):
        q0, q1 = small_example("seven_point")
        # chain driven by q1, q0, q1, ... starting in the right diamond
        p = np.eye(7)
        for i in range(1, 9):
            p = p @ (q1.entries if i % 2 == 1 else q0.entries)
            support = np.nonzero(p[3])[0]  # start at state 4 (0-based 3)
            if i % 2 == 1:
                assert set(support) <= {4, 5}   # states 5 and 6
            else:
                assert set(support) <= {3, 6}   # states 4 and 7
        # the two-cycle trap between the first two states
        assert p[1].argmax() == 1 and np.nonzero(p[1])[0].tolist() == [1]

    def test_adjoint_pair_composition_reducible(self):
        k, adj = small_example("adjoint_pair")
        assert not classify_structure(compose(k, adj)).irreducible

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            small_example("eight_point")


class TestWeightedGraph:
    def test_lazy_stick_shape(self):
        g = lazy_stick(1)
        kernel, pi = graph_kernel(g)
        assert np.allclose(kernel.entries, 0.5)
        assert lazy_stick(6).max_degree == 3

    def test_degree_and_ratio(self):
        g = lazy_stick(4)
        assert g.degrees.tolist() == [2, 3, 3, 3, 2]
        # loops count once and weights are ignored
        loopy = WeightedGraph(StateSpace(4), ((0, 0), (0, 1), (1, 2), (2, 2), (2, 3)),
                              np.array([1.0, 2.0, 0.5, 3.0, 1.5]))
        assert loopy.degrees.tolist() == [2, 2, 3, 1] and loopy.degrees.dtype.kind == "i"
        assert g.weight_ratio == 1.0
        assert g.has_all_loops

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            WeightedGraph(StateSpace(4), ((0, 1), (2, 3)), np.ones(2))

    def test_kernel_scale_invariance(self, rng):
        g = lazy_stick(5)
        w = random_weights(g, 3.0, seed=2)
        k1, p1 = graph_kernel(g.with_weights(w))
        k2, p2 = graph_kernel(g.with_weights(4.2 * w))
        assert np.abs(k1.entries - k2.entries).max() <= 1e-15
        assert np.abs(p1.weights - p2.weights).max() <= 1e-15

    def test_unit_weights_give_degree_measure(self):
        g = lazy_stick(5)
        _, pi = graph_kernel(g)
        d = g.degrees.astype(float)
        assert np.allclose(pi.weights, d / d.sum(), atol=1e-15)

    def test_band_against_degree_measure(self, rng):
        g = lazy_stick(8)
        for seed in range(20):
            b = 3.0
            w = random_weights(g, b, seed=seed)
            _, pi = graph_kernel(g.with_weights(w))
            delta = g.degree_measure.weights
            assert (pi.weights <= b * delta + 1e-15).all()
            assert (pi.weights >= delta / b - 1e-15).all()
            # pointwise comparability within max-degree times band
            cap = g.max_degree * b
            ratios = pi.weights[:, None] / pi.weights[None, :]
            assert ratios.max() <= cap + 1e-12 and ratios.min() >= 1 / cap - 1e-15

    def test_json_round_trip(self):
        g = lazy_stick(3)
        back = WeightedGraph.from_json(g.to_json())
        assert back.edges == g.edges
        assert np.array_equal(back.weights, g.weights)

    @pytest.mark.parametrize("edges", [((0, 1.5), (0, 1)), ((0, 1, 1),), ((0,),), (1,)])
    def test_an_edge_that_is_not_an_integer_pair_fails_at_construction(self, edges):
        # (0, 1.5) once built, and only graph_kernel failed, on rows summing to 0.5
        with pytest.raises(ValueError, match="is not a pair of vertex indices"):
            WeightedGraph(StateSpace(2), edges, np.ones(len(edges)))

    def test_a_json_edge_that_is_not_a_pair_names_edges(self):
        obj = dict(lazy_stick(1).to_json(), edges=[[0, 1, 1]], weights=[1.0])
        with pytest.raises(ValueError, match="^edges must be pairs of vertex indices"):
            WeightedGraph.from_json(obj)


class TestMetropolis:
    def test_fixed_point_when_target_is_current(self, rng):
        g = lazy_stick(6)
        w = random_weights(g, 2.0, seed=9)
        graph = g.with_weights(w)
        _, pi = graph_kernel(graph)
        new = metropolis_reweight(graph, pi)
        assert np.abs(new - w).max() <= 1e-12 * w.max()

    def test_hits_target_exactly(self, rng):
        g = lazy_stick(9)
        _, pi = graph_kernel(g)
        tilt = pi.weights * np.exp(rng.uniform(-0.3, 0.3, 10))
        target = ProbMeasure.from_weights(g.space, tilt)
        new = metropolis_reweight(g, target)
        _, achieved = graph_kernel(g.with_weights(new))
        assert np.abs(achieved.weights - target.weights).max() <= 1e-12

    def test_ratio_bound_holds(self, rng):
        g = random_regular_graph(12, 3, seed=4, with_loops=True)
        for seed in range(30):
            w = random_weights(g, 2.0, seed=seed)
            graph = g.with_weights(w)
            _, delta_like = graph_kernel(graph)
            tilt = g.degree_measure.weights * np.exp(rng.uniform(-0.25, 0.25, 12))
            target = ProbMeasure.from_weights(g.space, tilt)
            new = metropolis_reweight(graph, target)
            assert graph.with_weights(new).weight_ratio <= metropolis_ratio_bound(graph, target) + 1e-9

    def test_requires_loops(self):
        g = random_regular_graph(8, 3, seed=1)
        _, pi = graph_kernel(g)
        with pytest.raises(ValueError):
            metropolis_reweight(g, pi)

    def test_band_guard(self):
        g = lazy_stick(4)
        skew = ProbMeasure(g.space, np.array([0.9, 0.025, 0.025, 0.025, 0.025]))
        with pytest.raises(ValueError):
            metropolis_reweight(g, skew, a_max=1.5)


class TestRandomWeights:
    def test_unit_band_gives_unit_weights(self):
        g = lazy_stick(4)
        assert np.array_equal(random_weights(g, 1.0, seed=3), np.ones(len(g.edges)))

    def test_deterministic_by_seed(self):
        g = lazy_stick(4)
        assert np.array_equal(random_weights(g, 2.5, seed=7), random_weights(g, 2.5, seed=7))
        assert not np.array_equal(random_weights(g, 2.5, seed=7), random_weights(g, 2.5, seed=8))

    def test_ratio_never_exceeds_band(self):
        g = lazy_stick(10)
        for seed in range(1000):
            w = random_weights(g, 3.0, seed=seed)
            assert w.max() / w.min() <= 3.0

    def test_rejects_small_band(self):
        with pytest.raises(ValueError):
            random_weights(lazy_stick(3), 0.9, seed=0)


class TestRandomRegularGraph:
    def test_degrees_and_connectivity(self):
        g = random_regular_graph(16, 3, seed=11)
        assert (g.degrees == 3).all()
        assert g.weight_ratio == 1.0

    def test_seed_determinism(self):
        a = random_regular_graph(10, 3, seed=2)
        b = random_regular_graph(10, 3, seed=2)
        assert a.edges == b.edges

    def test_with_loops(self):
        g = random_regular_graph(10, 3, seed=5, with_loops=True)
        assert g.has_all_loops
        assert (g.degrees == 4).all()

"""Component analysis of kernel supports and graphs, and the loop rule of edge lists.

Recurrent classes and periods are checked against brute force on boolean
matrix powers; the graph functions are checked bit for bit against literal
loops over the edge list.
"""

import math

import numpy as np
import pytest

from mclab import ProbMeasure, StateSpace, StochasticKernel, classify_structure
from mclab.chain_core import _class_period
from mclab.spectral import dirichlet_forms
from mclab.zoo import (
    WeightedGraph,
    graph_kernel,
    metropolis_reweight,
    random_regular_graph,
    random_weights,
)


# ---------------------------------------------------------------------------
# brute-force oracles


def _bool_matmul(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def reachability(support):
    """``R[x, y]``: ``y`` can be reached from ``x`` in zero or more steps."""
    n = len(support)
    reach = np.eye(n, dtype=bool) | support
    for _ in range(max(1, math.ceil(math.log2(n)))):
        reach = _bool_matmul(reach, reach)
    return reach


def oracle_classes(support):
    reach = reachability(support)
    mutual = reach & reach.T
    closed = [x for x in range(len(support)) if not (reach[x] & ~reach[:, x]).any()]
    return sorted({tuple(np.flatnonzero(mutual[x]).tolist()) for x in closed})


def oracle_period(support, x):
    """gcd of the ``k <= N^2`` with ``(S^k)_{xx} > 0``."""
    n = len(support)
    power = np.eye(n, dtype=bool)
    g = 0
    for k in range(1, n * n + 1):
        power = _bool_matmul(power, support)
        if power[x, x]:
            g = math.gcd(g, k)
    return g


def random_support(rng, n, kind):
    if kind == "sparse":
        s = rng.random((n, n)) < rng.uniform(0.03, 0.3)
    elif kind == "periodic":
        d = int(rng.integers(1, min(n, 6) + 1))
        label = rng.integers(0, d, n)
        s = (label[None, :] == (label[:, None] + 1) % d) & (rng.random((n, n)) < 0.6)
    elif kind == "dense":
        s = rng.random((n, n)) < 0.9
    else:  # block triangular, so usually reducible
        cut = int(rng.integers(0, n + 1))
        s = rng.random((n, n)) < 0.25
        s[cut:, :cut] = False
    empty = ~s.any(axis=1)
    s[np.flatnonzero(empty), rng.integers(0, n, empty.sum())] = True
    return s


def kernel_on(support, rng):
    m = support * rng.uniform(0.1, 1.0, support.shape)
    return StochasticKernel(StateSpace(len(support)), m / m.sum(axis=1, keepdims=True))


class TestComponentAnalysis:
    @pytest.mark.parametrize("kind", ["sparse", "periodic", "dense", "reducible"])
    def test_classes_and_periods_match_brute_force(self, kind):
        rng = np.random.default_rng({"sparse": 1, "periodic": 2, "dense": 3, "reducible": 4}[kind])
        for _ in range(30):
            n = int(rng.integers(1, 41))
            support = random_support(rng, n, kind)
            report = classify_structure(kernel_on(support, rng))
            classes = oracle_classes(support)
            assert report.recurrent_classes == tuple(classes)
            periods = [oracle_period(support, c[0]) for c in classes]
            assert [_class_period(support, list(c)) for c in classes] == periods
            assert report.irreducible == (len(classes) == 1 and len(classes[0]) == n)
            assert report.aperiodic == all(p == 1 for p in periods)
            assert report.sia == (len(classes) == 1 and periods[0] == 1)
            assert report.period == math.gcd(*periods)

    def test_cycle_of_blocks_has_the_block_count_as_period(self):
        # 0 -> {1, 2} -> 3 -> 0, plus the shortcut 1 -> 0: cycles of length 2 and 3
        s = np.zeros((4, 4), dtype=bool)
        s[0, [1, 2]] = s[1, 3] = s[2, 3] = s[3, 0] = True
        rng = np.random.default_rng(0)
        assert classify_structure(kernel_on(s, rng)).period == 3
        s[1, 0] = True
        assert classify_structure(kernel_on(s, rng)).period == 1


# ---------------------------------------------------------------------------
# literal edge-loop references


def reference_incident_weight(g, w):
    s = np.zeros(g.n_vertices)
    for (x, y), we in zip(g.edges, w):
        s[x] += we
        if y != x:
            s[y] += we
    return s


def reference_graph_kernel(g):
    s = reference_incident_weight(g, g.weights)
    k = np.zeros((g.n_vertices, g.n_vertices))
    for (x, y), w in zip(g.edges, g.weights):
        k[x, y] += w / s[x]
        if y != x:
            k[y, x] += w / s[y]
    # both constructors renormalize, as graph_kernel's do
    return StochasticKernel(g.space, k).entries, ProbMeasure(g.space, s / s.sum()).weights


def reference_metropolis(g, target):
    c_v = reference_incident_weight(g, g.weights).sum()
    scale = target / (reference_incident_weight(g, g.weights) / c_v)
    new = np.empty(len(g.edges))
    nonloop_sum = np.zeros(g.n_vertices)
    loops = {}
    for idx, ((x, y), w) in enumerate(zip(g.edges, g.weights)):
        if x == y:
            loops[x] = idx
        else:
            new[idx] = w * min(scale[x], scale[y])
            nonloop_sum[x] += new[idx]
            nonloop_sum[y] += new[idx]
    for x, idx in loops.items():
        new[idx] = c_v * target[x] - nonloop_sum[x]
    return new


def reference_dirichlet(g, f):
    energy = sums = 0.0
    for (x, y), w in zip(g.edges, g.weights):
        if x == y:
            sums += 0.5 * (2.0 * f[x]) ** 2 * w
        else:
            energy += (f[x] - f[y]) ** 2 * w
            sums += (f[x] + f[y]) ** 2 * w
    c_w = reference_incident_weight(g, g.weights).sum()
    return energy / c_w, sums / c_w


def unsorted_json_graph():
    # edges out of order and given both ways round, a loop at every vertex
    return WeightedGraph.from_json({
        "space": {"labels": [str(i) for i in range(6)]},
        "edges": [[3, 2], [0, 0], [5, 5], [1, 0], [4, 3], [2, 2], [1, 1], [5, 4], [3, 3],
                  [2, 1], [4, 4], [5, 0]],
        "weights": [1.5, 2.0, 0.7, 1.1, 3.0, 0.9, 1.3, 2.2, 1.0, 0.6, 1.7, 0.4],
    })


def sample_graphs():
    graphs = [unsorted_json_graph()]
    for seed in range(12):
        g = random_regular_graph(10 + 2 * seed, 3, seed=seed, with_loops=seed % 2 == 1)
        graphs.append(g.with_weights(random_weights(g, 3.0, seed)))
    return graphs


def assert_bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLoopRule:
    @pytest.mark.parametrize("g", sample_graphs())
    def test_incident_weight_and_kernel_match_edge_loops(self, g):
        assert_bit_equal(g.incident_weight(), reference_incident_weight(g, g.weights))
        halves = 0.5 * g.weights
        assert_bit_equal(g.incident_weight(halves), reference_incident_weight(g, halves))
        assert_bit_equal(g.degrees, reference_incident_weight(g, np.ones(len(g.edges))).astype(int))
        kernel, pi = graph_kernel(g)
        k_ref, pi_ref = reference_graph_kernel(g)
        assert_bit_equal(kernel.entries, k_ref)
        assert_bit_equal(pi.weights, pi_ref)

    @pytest.mark.parametrize("g", [g for g in sample_graphs() if g.has_all_loops])
    def test_metropolis_reweight_matches_edge_loop(self, g):
        rng = np.random.default_rng(len(g.edges))
        target = ProbMeasure.from_weights(g.space, rng.uniform(0.8, 1.2, g.n_vertices))
        assert_bit_equal(metropolis_reweight(g, target), reference_metropolis(g, target.weights))

    @pytest.mark.parametrize("g", sample_graphs())
    def test_dirichlet_forms_match_edge_loop(self, g):
        f = np.random.default_rng(len(g.edges)).normal(size=g.n_vertices)
        energy, sums, _ = dirichlet_forms(g, f)
        ref_energy, ref_sums = reference_dirichlet(g, f)
        # the terms are non-negative and summed in another order: a few ulps per edge at most
        assert energy == pytest.approx(ref_energy, rel=1e-13, abs=1e-300)
        assert sums == pytest.approx(ref_sums, rel=1e-13)

    def test_json_graph_has_every_loop_once(self):
        g = unsorted_json_graph()
        assert g.has_all_loops
        assert g.degrees.tolist() == [3, 3, 3, 3, 3, 3]


# ---------------------------------------------------------------------------
# graph connectivity


def dfs_connected(n, edges):
    adj = [[] for _ in range(n)]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    seen, stack = {0}, [0]
    while stack:
        for nbr in adj[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == n


def test_connectivity_matches_depth_first_search():
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(200):
        n = int(rng.integers(1, 13))
        pairs = {(int(min(x, y)), int(max(x, y)))
                 for x, y in rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))}
        edges = tuple(sorted(pairs))
        expected = dfs_connected(n, edges)
        verdicts.add(expected)
        if expected:
            WeightedGraph(StateSpace(n), edges, np.ones(len(edges)))
        else:
            with pytest.raises(ValueError, match="graph must be connected"):
                WeightedGraph(StateSpace(n), edges, np.ones(len(edges)))
    assert verdicts == {True, False}


@pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
def test_graph_weights_must_be_strictly_positive(weight):
    with pytest.raises(ValueError, match="weights must be strictly positive"):
        WeightedGraph(StateSpace(2), ((0, 1), (1, 1)), np.array([1.0, weight]))

"""Constructors for the kernel families and worked examples used throughout.

Birth-death chains on a segment, the perturbed-stick pair whose alternating
composition develops a geometric invariant profile, the small two-, five-
and seven-point counterexample kernels, and weighted-graph walks with the
Metropolis reweighting that pins a prescribed reversible measure.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .chain_core import (
    VALUE_ATOL,
    ProbMeasure,
    StateSpace,
    StochasticKernel,
    _recurrent_classes,
    adjoint_kernel,
    numbers,
    probability_rows,
    required_key,
    space_from_json,
    space_to_json,
    stationary_measure,
)
from .rng import substream

_REGULAR_GRAPH_TRIES = 2000  # pairing-model draws before random_regular_graph gives up


def _check_rate_triple(p: float, q: float, r: float) -> None:
    try:
        probability_rows(np.array([p, q, r], dtype=float), VALUE_ATOL)
    except ValueError as exc:
        raise ValueError(f"rates must be a probability triple, got p={p} q={q} r={r}") from exc


def _check_rate_triples(p, q, r) -> np.ndarray:
    """The triples ``(p[i], q[i], r[i])`` as an ``(m, 3)`` array, checked in one call.

    A bad triple raises the ``ValueError`` :func:`_check_rate_triple` gives
    the first of them: the sums of a row of three reduce in the same order
    in the stack as alone.
    """
    try:
        rates = np.array([p, q, r], dtype=float).T.copy()
        probability_rows(rates, VALUE_ATOL)
    except ValueError:
        for triple in zip(p, q, r):
            _check_rate_triple(*triple)
        raise
    return rates


def _check_detailed_balance(kernel: StochasticKernel, pi: ProbMeasure, what: str) -> None:
    flow = pi.weights[:, None] * kernel.entries
    if np.abs(flow - flow.T).max() > VALUE_ATOL:
        raise ArithmeticError(f"{what} failed its detailed balance check")


# ---------------------------------------------------------------------------
# birth-death chains on {0, ..., N}


@functools.lru_cache(maxsize=32)
def _segment_space(size: int) -> StateSpace:
    # one default-labelled space per size; StateSpace is immutable, so kernels share it
    return StateSpace(size)


def _tridiagonal(up, down, hold) -> tuple[StochasticKernel, ...]:
    """Birth-death kernels on ``{0, ..., N}``, one for each row of ``hold``, ``(m, N + 1)``.

    In kernel ``j``, ``x -> x+1`` with ``up[j, x]`` for ``x < N``,
    ``x -> x-1`` with ``down[j, x - 1]`` for ``x >= 1``, holding
    ``hold[j, x]``; ``up`` and ``down`` hold ``N`` values a kernel, or one
    value for every site (shape ``(m, 1)``). The kernels are one
    ``(m, N + 1, N + 1)`` stack (:meth:`StochasticKernel.stack`): each
    diagonal is one strided assignment into the flattened slices, whose
    row stride is ``N + 1``.
    """
    hold = np.asarray(hold, dtype=float)
    m, n = hold.shape[0], hold.shape[1] - 1
    k = np.zeros((m, n + 1, n + 1))
    flat = k.reshape(m, -1)
    flat[:, ::n + 2] = hold
    flat[:, 1::n + 2] = up
    flat[:, n + 1::n + 2] = down
    return StochasticKernel.stack(_segment_space(n + 1), k)


def constant_rate_bd(N: int, p: float, q: float, r: float) -> StochasticKernel:
    """Constant-rate birth-death chain on ``{0, ..., N}``.

    Interior states move up with ``p``, down with ``q`` and hold with ``r``;
    at the two ends the blocked move is reflected into holding, so
    ``K(0,0) = q + r`` and ``K(N,N) = p + r``. This is
    :func:`constant_rate_bd_set` of one triple.
    """
    return constant_rate_bd_set(N, [p], [q], [r])[0]


def constant_rate_bd_set(N: int, p, q, r) -> tuple[StochasticKernel, ...]:
    """:func:`constant_rate_bd` for each triple ``(p[i], q[i], r[i])``, with its bits.

    The triples are checked in one call and the kernels built as one
    ``(m, N + 1, N + 1)`` stack, which they share, so the set is held once
    (1.08 MB for 32 kernels at 65 states). A bad triple raises the error
    :func:`constant_rate_bd` raises for the first of them.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not len(p):
        raise ValueError("kernel set must be non-empty")
    rates = _check_rate_triples(p, q, r)
    hold = np.repeat(rates[:, 2:], N + 1, axis=1)
    hold[:, 0] = rates[:, 2] + rates[:, 1]
    hold[:, N] = rates[:, 2] + rates[:, 0]
    return _tridiagonal(rates[:, :1], rates[:, 1:2], hold)


@dataclass(frozen=True)
class BirthDeathSpec:
    """A general birth-death chain with its reversible measure and class flags.

    ``within_rate_band`` and ``within_measure_band`` report membership in
    the reference class of nearly uniform chains: every transition
    probability in ``[1/4, 3/4]`` and ``1/4 <= (N+1) pi(x) <= 4``. The
    flags are informational; membership is not enforced.
    """

    N: int
    up: np.ndarray
    down: np.ndarray
    hold: np.ndarray
    kernel: StochasticKernel
    reversible_measure: ProbMeasure
    within_rate_band: bool
    within_measure_band: bool


def general_bd(N: int, up, down) -> BirthDeathSpec:
    """Birth-death chain with per-site rates.

    ``up[x]`` and ``down[x]`` are the probabilities of ``x -> x+1`` and
    ``x -> x-1``; ``up[N]`` and ``down[0]`` must be 0. Holding is the
    leftover mass ``1 - up - down``. The reversible measure comes from the
    standard product formula ``pi(x) proportional to prod_{j<x} up[j]/down[j+1]``.
    """
    up = np.asarray(up, dtype=float)
    down = np.asarray(down, dtype=float)
    if up.shape != (N + 1,) or down.shape != (N + 1,):
        raise ValueError("up and down must have length N+1")
    if up[N] != 0 or down[0] != 0:
        raise ValueError("up[N] and down[0] must be 0")
    hold = 1.0 - up - down
    if min(up.min(), down.min(), hold.min()) < 0:
        raise ValueError("per-site rates must form probability triples")
    if up[:N].min() <= 0 or down[1:].min() <= 0:
        raise ValueError("interior up and down rates must be positive (irreducible chain)")
    (kernel,) = _tridiagonal(up[None, :N], down[None, 1:], hold[None])

    log_pi = np.concatenate(([0.0], np.cumsum(np.log(up[:N]) - np.log(down[1:]))))
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    measure = ProbMeasure(kernel.space, pi / pi.sum())
    _check_detailed_balance(kernel, measure, "birth-death kernel")

    entries = kernel.entries
    active = np.concatenate((entries.diagonal(-1), entries.diagonal(), entries.diagonal(1)))
    rate_band = bool((active >= 0.25 - 1e-15).all() and (active <= 0.75 + 1e-15).all())
    scaled = (N + 1) * measure.weights
    measure_band = bool((scaled >= 0.25 - 1e-15).all() and (scaled <= 4 + 1e-15).all())
    return BirthDeathSpec(N, up, down, hold, kernel, measure, rate_band, measure_band)


# ---------------------------------------------------------------------------
# the perturbed stick pair


def perturbed_stick_pair(N: int, p: float, q: float, r: float,
                         eta1: float, eta2: float) -> tuple[StochasticKernel, StochasticKernel]:
    """The two perturbed stick kernels on ``{0, ..., N}``, ``N`` odd.

    The first kernel moves even sites up with ``p`` / down with ``q`` and
    odd sites up with ``q`` / down with ``p``, holds interior sites with
    ``r``, reflects at 0 (``q + r`` holding) and holds the top state with
    ``eta1``. The second kernel swaps the roles of ``p`` and ``q`` and
    replaces ``eta1`` by ``eta2``. Both are reversible; their reversible
    measures are flat except at the top state and are returned by
    :func:`stick_pair_measures`.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be odd and >= 3")
    _check_rate_triple(p, q, r)
    if not (0 <= eta1 < 1 and 0 <= eta2 < 1):
        raise ValueError("eta parameters must lie in [0, 1)")

    def build(up_even: float, down_even: float, eta: float) -> StochasticKernel:
        # even sites move up with up_even, odd sites with down_even; the top leaves with 1 - eta
        up = [up_even, down_even] * ((N + 1) // 2)
        down = [down_even, up_even] * ((N - 1) // 2) + [down_even, 1.0 - eta]
        (kernel,) = _tridiagonal([up[:N]], [down[1:]], [[down_even + r] + [r] * (N - 1) + [eta]])
        return kernel

    q1 = build(p, q, eta1)
    q2 = build(q, p, eta2)
    for kern, pi in zip((q1, q2), stick_pair_measures(N, p, q, r, eta1, eta2)):
        _check_detailed_balance(kern, pi, "stick kernel")
    return q1, q2


def stick_pair_measures(N: int, p: float, q: float, r: float,
                        eta1: float, eta2: float) -> tuple[ProbMeasure, ProbMeasure]:
    """Reversible measures of the two stick kernels (flat below the top state)."""
    space = StateSpace(N + 1)
    out = []
    for rate, eta in ((p, eta1), (q, eta2)):
        w = np.full(N + 1, (1.0 - eta) / rate)
        w[N] = 1.0
        out.append(ProbMeasure(space, w / w.sum()))
    return out[0], out[1]


def circle_relabeling(N: int) -> list[int]:
    """State order that turns the composed stick pair into a line chain.

    Descending odd states from ``N`` down to 1, then ascending even states
    from 0 up to ``N-1``; position ``i`` in this list is the state whose
    composed-chain invariant weight is ``alpha + beta (p/q)^(2i)``.
    """
    n = (N - 1) // 2
    return [N - 2 * i for i in range(n + 1)] + [2 * j for j in range(n + 1)]


def closed_form_invariant(N: int, p: float, q: float, eta1: float, eta2: float) -> ProbMeasure:
    """Invariant measure of the composed stick pair with zero holding.

    Solves the invariance equations of the composed kernel (first stick
    kernel applied first) in closed form: along :func:`circle_relabeling`
    the weights are ``alpha + beta (p/q)^(2i)`` with::

        beta  = [(1-eta1) q/p - (1-eta2)] / [q - p + p eta2 (1 - (p/q)^(2N))]
        alpha = [(1-eta2) eta1 - (1-eta1) eta2 (p/q)^(2N)] / [same denominator]

    and weight 1 at relabeling position 0. Requires ``p + q = 1`` and
    ``p != q``. Evaluated in decimal arithmetic at ``40 + 2N|log10(p/q)| +
    N`` digits from the parameters' exact binary values: ``(p/q)^(2N)``
    spans many decades already for moderate ``N`` and the terms combine
    with mixed signs.
    """
    if abs(p + q - 1.0) > VALUE_ATOL:
        raise ValueError("closed form needs r = 0, so p + q = 1")
    if p == q:
        raise ValueError("closed form degenerates at p = q")
    # imported here so that `import mclab` does not load decimal for this one function
    import decimal

    digits = 40 + int(2 * N * abs(np.log10(p / q))) + N
    with decimal.localcontext(decimal.Context(prec=digits)):
        p, q, eta1, eta2 = map(decimal.Decimal, (p, q, eta1, eta2))
        t = (p / q) ** 2
        t_pow_n = t ** N
        den = q - p + p * eta2 * (1 - t_pow_n)
        beta = ((1 - eta1) * (q / p) - (1 - eta2)) / den
        alpha = ((1 - eta2) * eta1 - (1 - eta1) * eta2 * t_pow_n) / den
        vals = [decimal.Decimal(1)]
        for i in range(1, N + 1):
            vals.append(alpha + beta * t ** i)
        total = sum(vals)
        normalized = [v / total for v in vals]
    weights = np.zeros(N + 1)
    for i, state in enumerate(circle_relabeling(N)):
        weights[state] = float(normalized[i])
    return ProbMeasure(StateSpace(N + 1), weights)


# ---------------------------------------------------------------------------
# small counterexample kernels


def small_example(name: str, a: float | None = None,
                  b: float | None = None) -> tuple[StochasticKernel, ...]:
    """Named small kernel sets.

    ``two_point(a, b)``
        ``[[0, 1], [1-a, a]]`` and ``[[b, 1-b], [1, 0]]`` with parameters in
        ``(0, 1)``: merging in total variation, never in relative-sup.
    ``five_point``
        Unit-weight walk kernels on two five-vertex graphs that differ by
        swapping the hub's neighbors; alternating them traps the support in
        a two-cycle of sets while total variation still merges.
    ``seven_point``
        Unit-weight walk kernels on two seven-vertex graphs; alternating
        them splits mass between two oscillating traps, so even total
        variation merging fails.
    ``adjoint_pair``
        ``(K, K*)`` for a non-reversible 3-state shift ``K`` with a split
        return, whose composition ``K K*`` is reducible.
    """
    if name == "two_point":
        if a is None or b is None or not (0 < a < 1 and 0 < b < 1):
            raise ValueError("two_point needs parameters a, b in (0, 1)")
        space = StateSpace(2)
        return (
            StochasticKernel(space, np.array([[0.0, 1.0], [1.0 - a, a]])),
            StochasticKernel(space, np.array([[b, 1.0 - b], [1.0, 0.0]])),
        )
    walks = {
        # left vertex 0 loops and hangs off a degree-3 hub; the second graph
        # swaps labels 1<->2 and 3<->4 of the first
        "five_point": (5, [((0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (3, 4)),
                           ((0, 0), (0, 2), (1, 2), (2, 4), (1, 3), (3, 4))]),
        # path into a looped middle vertex, then a diamond to the far end;
        # the second graph swaps labels 0<->1, 3<->4, 5<->6 of the first
        "seven_point": (7, [((2, 2), (0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)),
                            ((2, 2), (0, 1), (0, 2), (2, 4), (3, 4), (4, 6), (3, 5), (5, 6))]),
    }
    if name in walks:
        n, edge_sets = walks[name]
        return tuple(graph_kernel(WeightedGraph(StateSpace(n), edges, np.ones(len(edges))))[0]
                     for edges in edge_sets)
    if name == "adjoint_pair":
        # 0 -> 1 -> 2 deterministically, 2 splits back to {0, 1}: irreducible,
        # aperiodic, not reversible, and sharing-a-successor fails to connect
        # state 1 to the others, so the kernel composed with its adjoint is
        # reducible.
        k = StochasticKernel(StateSpace(3), np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.0],
        ]))
        return k, adjoint_kernel(k, stationary_measure(k))
    raise ValueError(f"unknown example {name!r}")


# ---------------------------------------------------------------------------
# weighted graphs


@dataclass(frozen=True)
class WeightedGraph:
    """A connected non-oriented graph with loops allowed and positive weights.

    Edges are pairs of integer vertex indices ``(x, y)`` with ``x <= y``; a
    loop is ``(x, x)`` and counts once in the degree. ``weights`` is
    parallel to ``edges``.
    """

    space: StateSpace
    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray

    def __post_init__(self):
        n = self.space.size
        seen = set()
        for edge in self.edges:
            try:  # integers only: _ends would truncate 1.5 to 1 after the checks below
                x, y = map(operator.index, edge)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"edge {edge!r} is not a pair of vertex indices") from exc
            if not (0 <= x <= y < n):
                raise ValueError(f"edge ({x}, {y}) out of range or not ordered")
            if (x, y) in seen:
                raise ValueError(f"duplicate edge ({x}, {y})")
            seen.add((x, y))
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.edges),):
            raise ValueError("weights must align with edges")
        if len(self.edges) and not (w.min() > 0 and w.max() < np.inf):
            raise ValueError("weights must be strictly positive and finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        _, end, other = self._ends()
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[end, other] = True
        if len(_recurrent_classes(adjacency)) != 1:
            raise ValueError("graph must be connected")

    def _ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(edge, end, other)`` index arrays, one entry per edge end, in edge order.

        Edge ``i = (x, y)`` lists ``(i, x, y)`` and then ``(i, y, x)``; a
        loop ``(x, x)`` is listed once, which is the rule that a loop
        counts once.
        """
        xy = np.array(self.edges, dtype=int).reshape(-1, 2)
        edge = np.arange(len(xy)).repeat(2)
        end, other = xy.ravel(), xy[:, ::-1].ravel()
        keep = np.ones(edge.size, dtype=bool)
        keep[1::2] = xy[:, 0] != xy[:, 1]
        return edge[keep], end[keep], other[keep]

    @property
    def n_vertices(self) -> int:
        return self.space.size

    @property
    def degrees(self) -> np.ndarray:
        """Edges at each vertex, loops counted once."""
        return self.incident_weight(np.ones(len(self.edges))).astype(int)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    @property
    def degree_measure(self) -> ProbMeasure:
        d = self.degrees.astype(float)
        return ProbMeasure(self.space, d / d.sum())

    def incident_weight(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Total weight at each vertex, loops counted once."""
        w = self.weights if weights is None else np.asarray(weights, dtype=float)
        edge, end, _ = self._ends()
        return np.bincount(end, weights=w[edge], minlength=self.n_vertices)

    @property
    def total_weight(self) -> float:
        """The normalization ``sum_x sum_{e at x} w_e``."""
        return float(self.incident_weight().sum())

    @property
    def weight_ratio(self) -> float:
        """Largest ratio between two edge weights (at least 1)."""
        return float(self.weights.max() / self.weights.min())

    @property
    def has_all_loops(self) -> bool:
        loops = {x for x, y in self.edges if x == y}
        return len(loops) == self.n_vertices

    def with_weights(self, weights) -> "WeightedGraph":
        return WeightedGraph(self.space, self.edges, np.asarray(weights, dtype=float))

    def unit_weights(self) -> "WeightedGraph":
        return self.with_weights(np.ones(len(self.edges)))

    def to_json(self) -> dict:
        return {
            "space": space_to_json(self.space),
            "edges": [list(e) for e in self.edges],
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WeightedGraph":
        space = space_from_json(required_key(obj, "space"))
        edges = numbers(required_key(obj, "edges"), "edges", 2, True)
        if edges.shape[1] != 2:
            raise ValueError(f"edges must be pairs of vertex indices; these have "
                             f"{edges.shape[1]} indices each")
        edges = edges.tolist()
        return cls(space, tuple((min(x, y), max(x, y)) for x, y in edges),
                   numbers(required_key(obj, "weights"), "weights", 1))


def graph_kernel(g: WeightedGraph) -> tuple[StochasticKernel, ProbMeasure]:
    """Weighted-walk kernel ``K(x,y) = w_xy / sum_{e at x} w_e`` and its measure.

    The reversible measure is the incident weight normalized by the total;
    scaling all weights leaves both outputs unchanged.
    """
    s = g.incident_weight()
    edge, end, other = g._ends()
    k = np.zeros((g.n_vertices, g.n_vertices))
    k[end, other] = g.weights[edge] / s[end]
    kernel = StochasticKernel(g.space, k)
    pi = ProbMeasure(g.space, s / s.sum())
    _check_detailed_balance(kernel, pi, "graph kernel")
    return kernel, pi


def _target_band(g: WeightedGraph, pi_target: ProbMeasure) -> float:
    """Band ``a``: the largest ratio, either way, of ``pi_target`` to the degree measure."""
    delta = g.degree_measure.weights
    return max(float((pi_target.weights / delta).max()), float((delta / pi_target.weights).max()))


def metropolis_reweight(g: WeightedGraph, pi_target: ProbMeasure,
                        a_max: float | None = None) -> np.ndarray:
    """Edge weights whose walk has ``pi_target`` as reversible measure.

    This is the Metropolis construction with the current weights as
    proposal: non-loop weights are scaled by the smaller of the two
    endpoint ratios ``pi_target / pi(w)`` and loops absorb the leftover
    mass, which stays positive. Requires a loop at every vertex. With
    ``a`` the band of ``pi_target / degree measure`` and ``b`` the weight
    ratio of ``g``, the new weight ratio is at most ``a^2 (b^3 + b D)``.

    Returns the new weight vector aligned with ``g.edges``.
    """
    if not g.has_all_loops:
        raise ValueError("metropolis reweight needs a loop at every vertex")
    if pi_target.space != g.space:
        raise ValueError("measure lives on a different space")
    if not pi_target.positive:
        raise ValueError("pi_target must be strictly positive")
    ratio_band = _target_band(g, pi_target)
    if a_max is not None and ratio_band > a_max:
        raise ValueError(f"pi_target sits in the a={ratio_band:.4g} band, beyond a_max={a_max}")
    c_v = g.total_weight
    pi_v = g.incident_weight() / c_v
    scale = pi_target.weights / pi_v
    edge, end, other = g._ends()
    loop = end == other
    scaled = g.weights[edge] * np.minimum(scale[end], scale[other])
    nonloop_sum = np.bincount(end[~loop], weights=scaled[~loop], minlength=g.n_vertices)
    new = np.empty(len(g.edges))
    new[edge] = scaled
    looped = end[loop]
    new[edge[loop]] = c_v * pi_target.weights[looped] - nonloop_sum[looped]
    bad = looped[new[edge[loop]] <= 0]
    if bad.size:
        raise ArithmeticError(f"loop weight at vertex {bad[0]} came out non-positive")
    return new


def metropolis_ratio_bound(g: WeightedGraph, pi_target: ProbMeasure) -> float:
    """The guaranteed weight-ratio bound ``a^2 (b^3 + b D)`` for the reweight."""
    a = _target_band(g, pi_target)
    b = g.weight_ratio
    return a * a * (b ** 3 + b * g.max_degree)


def check_weight_band(b: float) -> None:
    """A weight-ratio band ``b`` must be a finite number ``>= 1``; NaN and ``+inf`` are not."""
    if not 1 <= b < np.inf:
        raise ValueError(f"b must be a number >= 1, got {b}")


def random_weights(g: WeightedGraph, b: float, seed: int) -> np.ndarray:
    """I.i.d. log-uniform weights on ``[1, b]``; the weight ratio never exceeds ``b``."""
    check_weight_band(b)
    rng = substream(seed, 0x9E1A)
    return np.exp(rng.uniform(0.0, np.log(b), size=len(g.edges)))


def lazy_stick(N: int) -> WeightedGraph:
    """Path on ``{0, ..., N}`` with unit weights and a loop at every vertex."""
    if N < 1:
        raise ValueError("N must be >= 1")
    edges = [(x, x + 1) for x in range(N)] + [(x, x) for x in range(N + 1)]
    edges.sort()
    return WeightedGraph(StateSpace(N + 1), tuple(edges), np.ones(len(edges)))


def random_regular_graph(n: int, d: int, seed: int, with_loops: bool = False) -> WeightedGraph:
    """Random simple ``d``-regular graph by the pairing model with rejection.

    Stubs are matched uniformly; matchings with self-pairs or repeated
    pairs are rejected, as are disconnected graphs. ``with_loops`` adds a
    unit loop at every vertex afterwards (degrees become ``d + 1``).
    """
    if n * d % 2 != 0:
        raise ValueError("n * d must be even")
    if d < 2 or n <= d:
        raise ValueError("need 2 <= d < n")
    rng = substream(seed, 0x3E6)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_REGULAR_GRAPH_TRIES):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        edges = set()
        ok = True
        for x, y in pairs:
            x, y = int(min(x, y)), int(max(x, y))
            if x == y or (x, y) in edges:
                ok = False
                break
            edges.add((x, y))
        if not ok:
            continue
        edge_list = sorted(edges)
        if with_loops:
            edge_list = sorted(edge_list + [(x, x) for x in range(n)])
        try:
            return WeightedGraph(StateSpace(n), tuple(edge_list), np.ones(len(edge_list)))
        except ValueError:
            continue  # disconnected draw
    raise RuntimeError(f"no simple connected {d}-regular graph found in {_REGULAR_GRAPH_TRIES} tries")

"""Spectral quantities of graph walks and the weight-comparison bound.

Reversible kernels are analyzed through the symmetric conjugation
``diag(pi)^(1/2) K diag(pi)^(-1/2)``, so eigenvalues come from an exact
symmetric eigensolver. Changing edge weights within a ratio band ``b``
moves Dirichlet forms by at most ``b^2``, which pins the spectral gap of
every reweighted walk to the unit-weight gap and yields an explicit
convergence bound for each such chain.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .chain_core import UNIT_ROUNDOFF, VALUE_ATOL, ProbMeasure, StochasticKernel, write_csv
from .zoo import WeightedGraph, check_weight_band, graph_kernel

_BLOCK = 16              # steps per truncation test in comparison_check; its workspace is _BLOCK·N² floats


def _symmetrized(kernel: StochasticKernel, pi: ProbMeasure) -> np.ndarray:
    """``diag(pi)^(1/2) K diag(pi)^(-1/2)`` averaged with its transpose.

    The conjugation is symmetric when K is reversible for ``pi``; the average
    removes the asymmetry that rounding leaves in it.
    """
    root = np.sqrt(pi.weights)
    sym = root[:, None] * kernel.entries / root[None, :]
    return 0.5 * (sym + sym.T)


def reversible_eigenvalues(kernel: StochasticKernel, pi: ProbMeasure) -> np.ndarray:
    """Ascending eigenvalues of a reversible kernel via symmetric conjugation."""
    return np.linalg.eigvalsh(_symmetrized(kernel, pi))


def _second_absolute(ev: np.ndarray) -> float:
    """Second largest absolute eigenvalue from ascending eigenvalues ``ev``; 0 for one state."""
    return float(max(ev[-2], -ev[0])) if len(ev) > 1 else 0.0


def second_singular_value(kernel: StochasticKernel, pi: ProbMeasure) -> float:
    """:func:`_second_absolute` of a reversible kernel's eigenvalues."""
    return _second_absolute(reversible_eigenvalues(kernel, pi))


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary of the unit-weight walk on a graph."""

    sigma: float          # second_singular_value of the walk
    gap: float            # 1 - sigma
    beta_top: float       # second largest signed eigenvalue
    beta_bottom: float    # smallest eigenvalue
    degree_total: int     # sum of degrees
    degree_min: int

    def to_json(self) -> dict:
        return asdict(self)


def srw_spectrum(g: WeightedGraph) -> SpectralReport:
    """Spectral report of the simple (unit-weight) walk on ``g``."""
    kernel, delta = graph_kernel(g.unit_weights())
    ev = reversible_eigenvalues(kernel, delta)
    sigma = _second_absolute(ev)
    degrees = g.degrees
    return SpectralReport(
        sigma=sigma,
        gap=1.0 - sigma,
        beta_top=float(ev[-2]) if len(ev) > 1 else 0.0,
        beta_bottom=float(ev[0]),
        degree_total=int(degrees.sum()),
        degree_min=int(degrees.min()),
    )


def dirichlet_forms(g: WeightedGraph, f, weights=None) -> tuple[float, float, float]:
    """Energy form, sum form and variance of ``f`` for the weighted walk.

    Returns ``(E, F, var)`` where ``E = sum_e |f(x)-f(y)|^2 w_e / c(w)``
    (loops contribute nothing), ``F`` is the matching form on sums
    ``|f(x)+f(y)|^2`` over ordered adjacent pairs with the 1/2 factor, and
    ``var`` is the variance of ``f`` under the walk's reversible measure.
    ``F`` equals the quadratic form of ``I + K`` at ``f``.
    """
    f = np.asarray(f, dtype=float)
    graph = g if weights is None else g.with_weights(weights)
    c_w = graph.total_weight
    # over ordered adjacent pairs, so a non-loop edge counts twice, halved
    edge, end, other = graph._ends()
    w = 0.5 * graph.weights[edge]
    energy = float(((f[end] - f[other]) ** 2 * w).sum()) / c_w
    sums = float(((f[end] + f[other]) ** 2 * w).sum()) / c_w
    _, pi = graph_kernel(graph)
    mean = float(pi.weights @ f)
    var = float(pi.weights @ (f - mean) ** 2)
    return energy, sums, var


@dataclass(frozen=True)
class ComparisonReport:
    """Gap comparison between a weighted walk and the unit-weight walk.

    ``unit`` is the spectrum of the unit-weight walk, and ``sigma_unit`` is
    its ``sigma``. ``gap_holds`` asserts
    ``1 - sigma_w >= (1 - sigma_unit) / b^2`` up to slack. ``bound[n]`` is
    the uniform convergence bound
    ``b (degree_total / degree_min) (1 - (1 - sigma_unit)/b^2)^n`` and
    ``exact[n]`` the exact worst relative deviation
    ``max_xy |K^n(x,y)/pi(y) - 1|`` of the weighted chain. ``exact`` comes
    from the spectral sum of :func:`comparison_check`, so its rounding is
    relative to its own size: it keeps decaying past the floor of a plain
    float power (about 1e-12 at 40,960 steps on 65 states).
    """

    b: float
    unit: SpectralReport
    sigma_w: float
    gap_holds: bool
    gap_margin: float
    bound: np.ndarray
    exact: np.ndarray

    @property
    def sigma_unit(self) -> float:
        return self.unit.sigma

    def dominates(self) -> bool:
        return bool((self.exact <= self.bound + VALUE_ATOL).all())

    def to_csv(self, path) -> None:
        write_csv(path, ["n", "bound", "exact_max"],
                  zip(range(len(self.bound)), self.bound.tolist(), self.exact.tolist()))


def _exact_deviations(pi: ProbMeasure, lam: np.ndarray, vec: np.ndarray, n_max: int) -> np.ndarray:
    """``exact`` of :func:`comparison_check` from the eigenpairs ``lam, vec`` of its ``S``.

    ``C_0`` is read directly, then the truncated sum chunk by chunk, every
    chunk's temporaries carved from one workspace of ``_BLOCK * N^2`` floats.
    """
    size = len(pi.weights)
    exact = np.empty(n_max + 1)
    c0 = np.diag(1.0 / pi.weights) - 1.0
    exact[0] = max(c0.max(), -c0.min())
    if n_max == 0:
        return exact
    order = np.argsort(-np.abs(lam[:-1]), kind="stable")
    lam = lam[order]
    phi = vec[:, order] / np.sqrt(pi.weights)[:, None]
    squares = phi * phi
    top = abs(lam[0]) if size > 1 else 0.0
    ratio = np.abs(lam) / top if top > 0.0 else np.zeros_like(lam)
    cut = UNIT_ROUNDOFF * pi.weights.min()
    keep = min(2, size - 1)
    work = np.empty(_BLOCK * size * size)
    start = 1
    while start <= n_max:
        rank = max(keep, int(np.count_nonzero(ratio ** start > cut)))
        if (lam[:rank] >= 0.0).all():
            # C_n is positive semidefinite, so its largest entry is on its diagonal; read as
            # many 16-step blocks as the workspace holds at r powers and N diagonal entries a step
            stop = min(start + _BLOCK * (size * size // (size + rank)), n_max + 1)
            steps = np.arange(start, stop, dtype=float)
            count = len(steps)
            powers = work[:rank * count].reshape(rank, count)
            for k in range(rank):  # row by row: a broadcast power would allocate ufunc buffers
                np.power(lam[k], steps, out=powers[k])
            diag = np.matmul(squares[:, :rank], powers,
                             out=work[rank * count:(rank + size) * count].reshape(size, count))
            # a sum of terms >= 0; abs makes an all-zero C_n read +0.0, not -0.0
            exact[start:stop] = np.abs(diag.max(axis=0))
        else:
            # full read of one 16-step block, 8 steps per matmul so that the scaled factor and
            # the product fit the workspace together
            stop = min(start + _BLOCK, n_max + 1)
            head = phi[:, :rank]
            for first in range(start, stop, _BLOCK // 2):
                steps = np.arange(first, min(first + _BLOCK // 2, stop), dtype=float)
                rows = len(steps) * size
                # einsum writes the product into out directly; np.multiply would allocate buffers
                scaled = np.einsum("xk,nk->nxk", head, lam[:rank] ** steps[:, None],
                                   out=work[:rows * rank].reshape(len(steps), size, rank))
                block = np.matmul(scaled.reshape(rows, rank), head.T,
                                  out=work[rows * rank:rows * (rank + size)].reshape(rows, size))
                block = block.reshape(len(steps), size * size)
                # the larger of max and -min is >= 0; abs makes an all-zero C_n read +0.0, not -0.0
                exact[first:first + len(steps)] = np.abs(np.maximum(block.max(axis=1), -block.min(axis=1)))
        start = stop
    return exact


def comparison_check(g: WeightedGraph, weights=None, b: float | None = None,
                     n_max: int = 0) -> ComparisonReport:
    """Verify the gap comparison and emit the convergence bound trajectory.

    ``weights`` defaults to the graph's own; ``b`` defaults to their exact
    ratio, and a given ``b`` must be a finite number ``>= 1`` (NaN is not)
    and at least that ratio. With ``n_max > 0`` the exact deviations
    ``exact[n] = max_xy |K^n(x,y)/pi(y) - 1|`` of the weighted chain are
    computed for ``n <= n_max``. Both they and ``sigma_w``, the
    second largest absolute eigenvalue (:func:`_second_absolute`), come from
    one ``eigh`` of the weighted kernel's symmetrized conjugation ``S``.

    **Spectral sum.** Let ``S`` be the symmetrized conjugation
    ``diag(pi)^(1/2) K diag(pi)^(-1/2)`` of :func:`reversible_eigenvalues`
    and ``S = U diag(lam) U^T``. Drop the top (Perron) pair, whose vector is
    ``sqrt(pi)``, order the rest by ``|lam_k|``, largest first, and set
    ``phi = U / sqrt(pi)`` (row ``x`` divided by ``sqrt(pi(x))``). Then
    ``C_n = K^n diag(pi)^-1 - 1 1^T = phi diag(lam)^n phi^T`` and
    ``exact[n] = max |C_n|`` (Levin, Peres and Wilmer, *Markov Chains and
    Mixing Times*, 12.1). ``exact[0]`` is read from ``C_0`` directly.

    **Truncation.** Let ``lam* = max_k |lam_k|`` over the non-Perron pairs.

    - Lower bound: the columns of ``phi`` are ``pi``-orthonormal, so
      ``sum_xy pi(x) pi(y) C_n(x,y)^2 = sum_k lam_k^(2n)`` and
      ``max |C_n| >= lam*^n``.
    - Dropped terms: ``sum_k phi_k(x)^2 = C_0(x,x) = 1/pi(x) - 1``, so by
      Cauchy-Schwarz the terms with ``|lam_k| <= cut`` add at most
      ``cut^n (1/pi_min - 1)`` to any entry of ``C_n``.

    The steps ``n >= s`` of a chunk starting at ``s`` keep every ``k`` with
    ``(|lam_k| / lam*)^s > u pi_min`` (``u = 2^-53``), and at least two
    terms. Every dropped term has ``(|lam_k| / lam*)^n <= u pi_min``, so
    the dropped part is below ``u exact[n]``. On the certify input
    (``lazy_stick(64)``, ``b = 2``) the first chunk keeps all 64 terms and
    from about ``n = 7,600`` only two remain.

    **Evaluation.** The steps are read in chunks whose temporaries share one
    workspace of ``16 N^2`` floats. Every chunk starts at a step
    ``s = 1 (mod 16)``, so no step keeps fewer terms than the 16-step block
    holding it would.

    - Diagonal read, when every kept ``lam_k`` is ``>= 0``. Then every kept
      term ``lam_k^n phi_k phi_k^T`` is positive semidefinite, so the
      truncated ``C_n`` is too, and ``|C_n(x,y)| <= sqrt(C_n(x,x) C_n(y,y))``
      puts its largest entry on the diagonal:
      ``exact[n] = max_x sum_k lam_k^n phi_k(x)^2``. A chunk of up to
      ``16 floor(N^2 / (N + r))`` steps is one ``(N x r) @ (r x steps)``
      matmul of ``phi_r * phi_r`` with the powers: O(N r) per step. The kept
      terms only shrink as ``s`` grows, so once a chunk reads the diagonal
      every later one does. On the certify input that is from ``n = 49``.
    - Full read, when a kept eigenvalue is negative: the early steps of a
      lazy stick, every step of a loop-free regular graph or of a bipartite
      cycle. Then the largest entry can lie off the diagonal. A chunk is one
      16-step block, read as two ``(8 N x r) @ (r x N)`` matmuls of ``phi_r``
      scaled by ``lam_r^n``, then a max and a min over each step's ``N^2``
      entries: O(N^2 r) per step. The floor of two terms is kept for this
      read: a matmul with inner dimension 1 costs several times one with
      inner dimension 2.

    An all-zero ``C_n`` (a row-constant kernel) reads ``+0.0``.

    **Error budget.** The computed ``lam`` is off by about ``u ||S||``
    absolute, so ``lam^n`` is off by about ``n u / |lam|`` relative, and
    the vectors are off by about ``u / gap``. Both errors are relative to
    ``C_n``, so ``exact`` does not stop at the floor of a plain float power
    ``K^n``. On the certify input it agrees with a 45-digit mpmath power to
    about 4e-12 relative at ``n = 40960`` (65 states). The diagonal read
    adds terms of one sign in another order than the full read: on the
    certify input at weight seeds 1, 3 and 21 the two agree to 4e-16
    relative at every step, bit for bit at 52-65% of the steps and at
    ``n = 40960``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    graph = g if weights is None else g.with_weights(weights)
    ratio = graph.weight_ratio
    if b is None:
        b = ratio
    else:
        check_weight_band(b)
    if ratio > b * (1 + VALUE_ATOL):
        raise ValueError(f"weight ratio {ratio:.6g} exceeds the declared b={b}")
    unit = srw_spectrum(g)
    kernel, pi = graph_kernel(graph)
    lam, vec = np.linalg.eigh(_symmetrized(kernel, pi))
    sigma_w = _second_absolute(lam)
    lhs = 1.0 - sigma_w
    rhs = (1.0 - unit.sigma) / (b * b)
    prefactor = b * unit.degree_total / unit.degree_min
    rate = 1.0 - rhs
    bound = prefactor * np.power(rate, np.arange(n_max + 1))
    return ComparisonReport(
        b=b,
        unit=unit,
        sigma_w=sigma_w,
        gap_holds=bool(lhs >= rhs - VALUE_ATOL),
        gap_margin=float(lhs - rhs),
        bound=bound,
        exact=_exact_deviations(pi, lam, vec, n_max),
    )

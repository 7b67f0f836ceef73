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

from .chain_core import VALUE_ATOL, ProbMeasure, StochasticKernel, write_csv
from .zoo import WeightedGraph, graph_kernel

_RECENTER = 16     # comparison_check removes its power's 1^T component every this many steps


def reversible_eigenvalues(kernel: StochasticKernel, pi: ProbMeasure) -> np.ndarray:
    """Ascending eigenvalues of a reversible kernel via symmetric conjugation."""
    root = np.sqrt(pi.weights)
    sym = root[:, None] * kernel.entries / root[None, :]
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


def second_singular_value(kernel: StochasticKernel, pi: ProbMeasure) -> float:
    """Second largest absolute eigenvalue of a reversible kernel."""
    ev = reversible_eigenvalues(kernel, pi)
    return float(max(ev[-2], -ev[0])) if len(ev) > 1 else 0.0


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary of the unit-weight walk on a graph."""

    sigma: float          # second largest absolute eigenvalue
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
    beta_top = float(ev[-2]) if len(ev) > 1 else 0.0
    beta_bottom = float(ev[0])
    sigma = max(beta_top, -beta_bottom) if len(ev) > 1 else 0.0
    degrees = g.degrees
    return SpectralReport(
        sigma=sigma,
        gap=1.0 - sigma,
        beta_top=beta_top,
        beta_bottom=beta_bottom,
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

    ``gap_holds`` asserts ``1 - sigma_w >= (1 - sigma_unit) / b^2`` up to
    slack. ``bound[n]`` is the uniform convergence bound
    ``b (degree_total / degree_min) (1 - (1 - sigma_unit)/b^2)^n`` and
    ``exact[n]`` the exact worst relative deviation
    ``max_xy |K^n(x,y)/pi(y) - 1|`` of the weighted chain. ``exact`` comes
    from the centered, pi-scaled power of :func:`comparison_check`, so its
    rounding is relative to its own size: it keeps decaying past the floor
    of a plain float power (about 1e-12 at 40,960 steps on 65 states).
    """

    b: float
    sigma_unit: float
    sigma_w: float
    gap_holds: bool
    gap_margin: float
    bound: np.ndarray
    exact: np.ndarray

    def dominates(self) -> bool:
        return bool((self.exact <= self.bound + VALUE_ATOL).all())

    def to_csv(self, path) -> None:
        write_csv(path, ["n", "bound", "exact_max"],
                  ({"n": n, "bound": bd, "exact_max": ex}
                   for n, (bd, ex) in enumerate(zip(self.bound.tolist(), self.exact.tolist()))))


def comparison_check(g: WeightedGraph, weights=None, b: float | None = None,
                     n_max: int = 0) -> ComparisonReport:
    """Verify the gap comparison and emit the convergence bound trajectory.

    ``weights`` defaults to the graph's own; ``b`` defaults to their exact
    ratio and is validated otherwise. With ``n_max > 0`` the exact
    deviations of the weighted chain are tracked for ``n <= n_max``.

    They are read from ``C_n = K^n diag(pi)^-1 - 1 1^T``, the centered,
    pi-scaled power, stepped as ``C_n = C_{n-1} M`` with
    ``M = diag(pi) K diag(pi)^-1`` (valid because ``pi K = pi``). ``M`` keeps
    each row's component along ``1^T``, so every 16 steps ``(C pi) 1^T`` is
    subtracted to remove the rounding that lands there. Rounding then stays
    relative to ``C_n`` and ``exact[n] = max |C_n|`` has no floor at the
    kernel's rounding.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    graph = g if weights is None else g.with_weights(weights)
    ratio = graph.weight_ratio
    if b is None:
        b = ratio
    elif ratio > b * (1 + VALUE_ATOL):
        raise ValueError(f"weight ratio {ratio:.6g} exceeds the declared b={b}")
    unit = srw_spectrum(g)
    kernel, pi = graph_kernel(graph)
    sigma_w = second_singular_value(kernel, pi)
    lhs = 1.0 - sigma_w
    rhs = (1.0 - unit.sigma) / (b * b)
    prefactor = b * unit.degree_total / unit.degree_min
    rate = 1.0 - rhs
    bound = prefactor * np.power(rate, np.arange(n_max + 1))
    exact = np.empty(n_max + 1)
    # c is K^n / pi - 1 1^T; m's left eigenvector for eigenvalue 1 is 1^T and its
    # right one pi, so c @ pi is the rounding m would otherwise carry forever
    inv_pi = 1.0 / pi.weights
    m = pi.weights[:, None] * kernel.entries * inv_pi[None, :]
    c = np.diag(inv_pi) - 1.0
    scratch = np.empty_like(c)
    exact[0] = max(c.max(), -c.min())
    for n in range(1, n_max + 1):
        np.matmul(c, m, out=scratch)
        c, scratch = scratch, c
        if n % _RECENTER == 0:
            c -= (c @ pi.weights)[:, None]
        exact[n] = max(c.max(), -c.min())
    return ComparisonReport(
        b=b,
        sigma_unit=unit.sigma,
        sigma_w=sigma_w,
        gap_holds=bool(lhs >= rhs - VALUE_ATOL),
        gap_margin=float(lhs - rhs),
        bound=bound,
        exact=exact,
    )

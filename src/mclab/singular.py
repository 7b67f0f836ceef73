"""Per-step singular values and the associated merging bounds.

A kernel driving the step ``mu_prev -> mu_next`` acts as a contraction
between the weighted spaces ``l2(mu_next) -> l2(mu_prev)``. Its second
largest singular value controls how fast the chain forgets a Dirac start
relative to the reference trajectory: products of the per-step values give
computable total-variation and relative-sup bounds, without needing any
invariant measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_core import (
    VALUE_ATOL,
    KernelSequence,
    ProbMeasure,
    StochasticKernel,
    classify_structure,
    evolve,
    stationary_measure,
    walk_from_start,
    write_csv,
)

#: measures consistent with the kernel step must match to this tolerance
STEP_ATOL = 1e-10
#: entries at or below this are a hard error: the bound weights blow up and
#: clamping would silently fabricate finite bounds
POSITIVITY_FLOOR = 1e-300


def _check_step(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> None:
    if mu_prev.weights.min() <= POSITIVITY_FLOOR or mu_next.weights.min() <= POSITIVITY_FLOOR:
        raise ValueError("measures must be strictly positive (entries above 1e-300)")
    drift = np.abs(mu_prev.weights @ k.entries - mu_next.weights).max()
    if drift > STEP_ATOL:
        raise ValueError(f"mu_next is not mu_prev K (residual {drift:.2e})")


def step_sigma(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> float:
    """Second largest singular value of the step operator.

    Computed from the full SVD of ``diag(mu_prev)^(1/2) K diag(mu_next)^(-1/2)``;
    the top singular value must come out as 1 (constants map to constants),
    which doubles as a consistency check of the measure propagation.
    """
    _check_step(k, mu_prev, mu_next)
    m = np.sqrt(mu_prev.weights)[:, None] * k.entries / np.sqrt(mu_next.weights)[None, :]
    s = np.linalg.svd(m, compute_uv=False)
    if abs(s[0] - 1.0) > STEP_ATOL:
        raise ArithmeticError(f"top singular value {s[0]} deviates from 1")
    return float(s[1]) if len(s) > 1 else 0.0


def pi_kernel(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> StochasticKernel:
    """The kernel ``P(x,y) = sum_z K(z,x) K(z,y) mu_prev(z) / mu_next(x)``.

    ``P`` is the composition of the step adjoint with the step itself: it is
    row-stochastic, reversible with respect to ``mu_next``, and its second
    largest eigenvalue is the square of :func:`step_sigma`.
    """
    _check_step(k, mu_prev, mu_next)
    p = (k.entries.T @ (mu_prev.weights[:, None] * k.entries)) / mu_next.weights[:, None]
    return StochasticKernel(k.space, p)


@dataclass(frozen=True)
class MeasureTrajectory:
    """A strictly positive reference trajectory ``mu_0, ..., mu_n``."""

    measures: tuple[ProbMeasure, ...]

    def __post_init__(self):
        for mu in self.measures:
            if mu.weights.min() <= POSITIVITY_FLOOR:
                raise ValueError("trajectory measures must be strictly positive")

    def as_matrix(self) -> np.ndarray:
        return np.stack([mu.weights for mu in self.measures])


def _relsup_bound_tensor(trajectory: MeasureTrajectory, sigma_product: np.ndarray) -> np.ndarray:
    """The ``(n+1, N, N)`` relative-sup bound ``prod sigma_i [mu_0(x) mu_t(y)]^(-1/2)``.

    Elementwise the same operations, in the same order, as the per-time
    matrices :func:`singular_value_bounds` reduces, so bit-identical to them.
    """
    inv_sqrt_mu0 = 1.0 / np.sqrt(trajectory.measures[0].weights)
    roots = np.sqrt(trajectory.as_matrix())
    return sigma_product[:, None, None] * inv_sqrt_mu0[None, :, None] / roots[:, None, :]


@dataclass(frozen=True)
class SingularBoundReport:
    """Singular-value bounds against exact distances along one trajectory.

    Index conventions: ``sigmas[i-1]`` belongs to step ``i``;
    ``sigma_product[t] = prod_{i<=t} sigma_i``; the total-variation arrays
    are indexed by time ``t = 0..n`` first, then by starting state ``x``.

    The relative-sup family (start ``x``, target ``y``) is reduced as the
    walk goes: the report keeps its per-time maxima over ``(x, y)`` and the
    largest ``exact - bound`` over all ``t, x, y``, so it holds O(n·N)
    numbers rather than two ``(n+1)·N·N`` tensors. ``relsup_bound`` is the
    closed-form bound tensor, recomputed on access.
    """

    trajectory: MeasureTrajectory
    sigmas: np.ndarray
    sigma_product: np.ndarray
    tv_bound: np.ndarray             # (n+1, N)
    tv_exact: np.ndarray             # (n+1, N)
    relsup_bound_max: np.ndarray     # (n+1,): max over (x, y) of the bound at time t
    relsup_exact_max: np.ndarray     # (n+1,): max over (x, y) of the exact value
    relsup_violation: float          # max over (t, x, y) of exact - bound

    @property
    def horizon(self) -> int:
        return len(self.sigmas)

    @property
    def relsup_bound(self) -> np.ndarray:
        """``(n+1, N, N)`` bound ``[mu_0(x) mu_t(y)]^(-1/2) prod sigma_i``, built on access."""
        return _relsup_bound_tensor(self.trajectory, self.sigma_product)

    def max_violation(self) -> float:
        """Largest ``exact - bound`` over both families (negative when dominated)."""
        return max(float((self.tv_exact - self.tv_bound).max()), self.relsup_violation)

    def dominates(self) -> bool:
        """Whether both bounds hold everywhere, to ``VALUE_ATOL``."""
        return self.max_violation() <= VALUE_ATOL

    def gap_rows(self) -> list[dict]:
        rows = []
        for t in range(self.horizon + 1):
            rows.append({
                "n": t,
                "sigma_n": float(self.sigmas[t - 1]) if t >= 1 else "",
                "sigma_product": float(self.sigma_product[t]),
                "max_tv_bound": float(self.tv_bound[t].max()),
                "max_tv_exact": float(self.tv_exact[t].max()),
                "max_relsup_bound": float(self.relsup_bound_max[t]),
                "max_relsup_exact": float(self.relsup_exact_max[t]),
            })
        return rows

    def to_csv(self, path) -> None:
        names = ["n", "sigma_n", "sigma_product", "max_tv_bound", "max_tv_exact",
                 "max_relsup_bound", "max_relsup_exact"]
        write_csv(path, names, self.gap_rows())


def singular_value_bounds(seq: KernelSequence, mu0: ProbMeasure, n: int) -> SingularBoundReport:
    """Singular-value merging bounds along ``mu_t = mu_0 K_{0,t}``.

    For every time ``t <= n``, start ``x`` and target ``y``::

        TV(K_{0,t}(x, .), mu_t)        <=  mu_0(x)^(-1/2)              prod sigma_i
        |K_{0,t}(x, y)/mu_t(y) - 1|    <=  [mu_0(x) mu_t(y)]^(-1/2)    prod sigma_i

    The exact left-hand sides are evaluated from the accumulated product
    matrix and reported next to the bounds; the reported gap is always the
    difference ``bound - exact``, never a ratio. The ``N x N`` relative-sup
    matrices of each step are reduced to their maxima before the next step,
    so memory stays O(N² + n·N).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not mu0.positive:
        raise ValueError("mu0 must be strictly positive")
    mus = evolve(mu0, seq, n)
    trajectory = MeasureTrajectory(tuple(mus))

    sigmas = np.empty(n)
    for i in range(1, n + 1):
        sigmas[i - 1] = step_sigma(seq.kernel_at(i), mus[i - 1], mus[i])
    sigma_product = np.concatenate(([1.0], np.cumprod(sigmas)))

    inv_sqrt_mu0 = 1.0 / np.sqrt(mu0.weights)
    tv_bound = sigma_product[:, None] * inv_sqrt_mu0[None, :]
    tv_exact = np.empty((n + 1, seq.space.size))
    relsup_bound_max = np.empty(n + 1)
    relsup_exact_max = np.empty(n + 1)
    relsup_violation = -np.inf

    for t, p, _ in walk_from_start(seq, n):
        w = mus[t].weights
        tv_exact[t] = 0.5 * np.abs(p - w[None, :]).sum(axis=1)
        exact = np.abs(p / w[None, :] - 1.0)
        bound = sigma_product[t] * inv_sqrt_mu0[:, None] / np.sqrt(w)[None, :]
        relsup_exact_max[t] = exact.max()
        relsup_bound_max[t] = bound.max()
        # np.maximum, not max(): a NaN gap must propagate as it would through .max()
        relsup_violation = np.maximum(relsup_violation, (exact - bound).max())
    return SingularBoundReport(
        trajectory=trajectory,
        sigmas=sigmas,
        sigma_product=sigma_product,
        tv_bound=tv_bound,
        tv_exact=tv_exact,
        relsup_bound_max=relsup_bound_max,
        relsup_exact_max=relsup_exact_max,
        relsup_violation=float(relsup_violation),
    )


@dataclass(frozen=True)
class HomogeneousBoundReport:
    """Dynamical error estimates for a single ergodic kernel.

    Bounds the pointwise deviation of ``K^t(x, y)`` and of the invariant
    measure from the running trajectory ``mu_t = mu_0 K^t``, using only
    quantities observable along the trajectory (no invariant measure enters
    the bound; it is reported for the exact comparison only).

    The pointwise family is reduced during the walk, as in
    :class:`SingularBoundReport`: only its largest ``exact - bound`` is
    kept, and ``pointwise_bound`` is the closed-form tensor, built on access.
    """

    trajectory: MeasureTrajectory
    sigmas: np.ndarray
    sigma_product: np.ndarray
    pointwise_violation: float       # max over (t, x, y) of exact - bound
    invariant_bound: np.ndarray      # (n+1, N): bound on |pi(y)/mu_t(y) - 1|
    invariant_exact: np.ndarray
    mu0_star: float

    @property
    def pointwise_bound(self) -> np.ndarray:
        """``(n+1, N, N)`` bound on ``|K^t(x, y)/mu_t(y) - 1|``, target indexed last."""
        return _relsup_bound_tensor(self.trajectory, self.sigma_product)

    def max_violation(self) -> float:
        return max(
            self.pointwise_violation,
            float((self.invariant_exact - self.invariant_bound).max()),
        )


def homogeneous_bounds(k: StochasticKernel, mu0: ProbMeasure, n: int) -> HomogeneousBoundReport:
    """Time-homogeneous specialization with per-step recomputed sigmas."""
    structure = classify_structure(k)
    if not (structure.irreducible and structure.aperiodic):
        raise ValueError("homogeneous bounds need an irreducible aperiodic kernel")
    report = singular_value_bounds(KernelSequence.constant(k), mu0, n)
    pi = stationary_measure(k).weights
    mu0_star = float(mu0.weights.min())
    mu_matrix = report.trajectory.as_matrix()
    invariant_bound = report.sigma_product[:, None] / np.sqrt(mu0_star * mu_matrix)
    invariant_exact = np.abs(pi[None, :] / mu_matrix - 1.0)
    return HomogeneousBoundReport(
        trajectory=report.trajectory,
        sigmas=report.sigmas,
        sigma_product=report.sigma_product,
        pointwise_violation=report.relsup_violation,
        invariant_bound=invariant_bound,
        invariant_exact=invariant_exact,
        mu0_star=mu0_star,
    )

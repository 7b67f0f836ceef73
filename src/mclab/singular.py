"""Per-step singular values and the associated merging bounds.

A kernel driving the step ``mu_prev -> mu_next`` acts as a contraction
between the weighted spaces ``l2(mu_next) -> l2(mu_prev)``. Its second
largest singular value controls how fast the chain forgets a Dirac start
relative to the reference trajectory: products of the per-step values give
computable total-variation and relative-sup bounds, without needing any
invariant measure.
"""

from __future__ import annotations

import math
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
#: unit roundoff of float64
UNIT_ROUNDOFF = 2.0 ** -53


def _check_step(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> None:
    if mu_prev.weights.min() <= POSITIVITY_FLOOR or mu_next.weights.min() <= POSITIVITY_FLOOR:
        raise ValueError("measures must be strictly positive (entries above 1e-300)")
    drift = np.abs(mu_prev.weights @ k.entries - mu_next.weights).max()
    if drift > STEP_ATOL:
        raise ValueError(f"mu_next is not mu_prev K (residual {drift:.2e})")


def step_sigma(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> float:
    """Second largest singular value of the step operator, rounded up.

    With ``m = diag(mu_prev)^(1/2) K diag(mu_next)^(-1/2)``, ``a = √mu_prev``
    and ``b = √mu_next``, the top singular pair of ``m`` is ``(1, a, b)``:
    ``m b = a`` and ``mᵀ a = b``. So σ₂ is the largest singular value of the
    deflated operator ``A = m − a bᵀ = diag(a) (K − 1 mu_nextᵀ) diag(b)^(-1)``
    (Fill, Ann. Appl. Probab. 1, 1991; Saloff-Coste & Zúñiga, EJP 14, 2009).
    It is computed as ``sqrt(λ_max(AᵀA))``, with the top eigenvalue alone
    taken from LAPACK ``dsyevr``. For any vectors ``a`` and ``b``, Weyl's
    inequality gives ``σ₂(m) ≤ ‖m − a bᵀ‖₂``, so the bound does not rest on
    the measures being exactly consistent.

    The result is rounded up so that ``prod sigma_i`` stays an upper bound
    on the exact values for the given floating-point inputs. With
    ``u = 2^-53``, ``γ_k = k·u/(1 − k·u)``, ``N`` states, ``Â`` the computed
    ``A``, ``Ĝ`` the computed ``ÂᵀÂ``, ``t = trace(Ĝ)`` (which is
    ``‖Â‖_F²`` to within ``γ_N``) and ``λ̂`` the computed top eigenvalue:

    - *Forming A.* An entry takes five roundings (two square roots, a
      difference, a product, a quotient), so ``|Â − A| ≤ γ_5·|A|`` and
      ``‖Â − A‖₂ ≤ γ_5·‖A‖_F``. Weyl's inequality carries this into
      ``σ₁(A)``; it is added as ``8u·√t``. (``A`` is formed from
      ``K − 1 mu_nextᵀ`` rather than as ``m − a bᵀ``, which would add
      ``c·u·(‖m‖_F + 1)`` absolute instead.)
    - *The Gram product.* ``|Ĝ − ÂᵀÂ| ≤ γ_N·|Â|ᵀ|Â|`` (Higham, *Accuracy
      and Stability of Numerical Algorithms*, 2nd ed., §3.5), so
      ``‖Ĝ − ÂᵀÂ‖₂ ≤ γ_N·‖Â‖_F² ≤ e_G = 2·γ_N·t``; the factor 2 covers the
      rounding of ``t`` itself.
    - *The eigensolver.* ``λ̂`` is an eigenvalue of ``Ĝ + E`` with
      ``‖E‖₂ ≤ p(N)·u·‖Ĝ‖₂`` (Golub & Van Loan, *Matrix Computations*,
      ch. 8). Their ``p(n)`` is a modestly growing function left
      unspecified; ``p = N²`` is taken, generous for the Householder
      tridiagonalization and the bisection ``dsyevr`` runs for one
      eigenvalue. Since ``‖Ĝ‖₂ ≤ λ_max(Ĝ) + e_G``, this gives
      ``λ_max(ÂᵀÂ) ≤ (λ̂ + e_G) / (1 − N²·u)``.

    A last factor ``1 + 8u`` covers the roundings of evaluating these
    expressions. As ``t ≤ N·σ₂²``, ``σ̂`` exceeds σ₂ by at most about
    ``(1.5·N² + 8√N)·u`` relative: 3e-12 at 129 states, and about a third
    of that when σ₂ dominates the rest of the spectrum.

    In place of the SVD's "top singular value is 1", the step is checked
    in O(N²): ``m b − a = A b`` and ``mᵀ a − b = Aᵀ a`` (as ``‖a‖ = ‖b‖ = 1``)
    must be within ``STEP_ATOL`` of 0 in the max norm, and the computed σ₂
    at most ``1 + STEP_ATOL``. That last check reads ``√λ̂`` before the
    round-up, which alone reaches ``STEP_ATOL`` on a periodic step of about
    800 states. A failure raises ``ArithmeticError``.
    """
    # imported here, not at module level: scipy.linalg adds about 22 MB to a process
    import scipy.linalg.lapack as lapack

    _check_step(k, mu_prev, mu_next)
    a = np.sqrt(mu_prev.weights)
    b = np.sqrt(mu_next.weights)
    deflated = k.entries - mu_next.weights
    deflated *= a[:, None]
    deflated /= b
    # np.dot rather than @: on the small matrices of a long walk its lower call cost shows
    residuals = np.concatenate((np.dot(deflated, b), np.dot(a, deflated)))
    residual = np.maximum.reduce(np.abs(residuals))
    if not residual <= STEP_ATOL:
        raise ArithmeticError(f"top singular pair of the step is off by {residual:.2e}")
    gram = np.dot(deflated.T, deflated)
    # summed in Python: on a few states a numpy reduction costs more than the sum
    trace = sum(gram.diagonal().tolist())
    n = len(a)
    # The top eigenvalue alone: compute_v=0, range="I", lower=0, vl, vu, il = iu = n,
    # abstol=0, lwork, liwork, overwrite_a=1. Positional, as f2py's keyword parsing
    # costs about 1 µs a call. gram is symmetric, so its transpose is a
    # Fortran-ordered array dsyevr may overwrite in place.
    w, _, _, _, info = lapack.dsyevr(gram.T, 0, "I", 0, 0.0, 1.0, n, n, 0.0, 26 * n, 10 * n, 1)
    if info != 0:
        raise ArithmeticError(f"dsyevr failed (info {info})")
    lam = max(float(w[0]), 0.0)
    if not lam <= (1.0 + STEP_ATOL) ** 2:
        raise ArithmeticError(f"second singular value {math.sqrt(lam)} exceeds 1")
    u = UNIT_ROUNDOFF
    e_gram = 2.0 * n * u / (1.0 - n * u) * trace
    top = math.sqrt((lam + e_gram) / (1.0 - n * n * u))
    return (top + 8.0 * u * math.sqrt(trace)) * (1.0 + 8.0 * u)


def pi_kernel(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> StochasticKernel:
    """The kernel ``P(x,y) = sum_z K(z,x) K(z,y) mu_prev(z) / mu_next(x)``.

    ``P`` is the composition of the step adjoint with the step itself: it is
    row-stochastic, reversible with respect to ``mu_next``, and its second
    largest eigenvalue is ``σ₂²``, the square of the second singular value
    of the step operator. :func:`step_sigma` returns that ``σ₂`` rounded up,
    by at most about ``1.5·N²·u`` relative, so its square sits just above
    this eigenvalue.
    """
    _check_step(k, mu_prev, mu_next)
    p = (k.entries.T @ (mu_prev.weights[:, None] * k.entries)) / mu_next.weights[:, None]
    return StochasticKernel(k.space, p)


def _relsup_bound(sigma_product, mu0: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The relative-sup bound ``prod sigma_i [mu_0(x) mu_t(y)]^(-1/2)``, target ``y`` last.

    With a scalar ``sigma_product`` and one measure ``mu`` it is the
    ``(N, N)`` matrix at one time; with ``(n+1,)`` and ``(n+1, N)`` it is the
    whole ``(n+1, N, N)`` tensor. Both take the same operations elementwise,
    so each slice of the tensor equals the matrix bit for bit.
    """
    scaled = np.asarray(sigma_product)[..., None, None] * (1.0 / np.sqrt(mu0))[:, None]
    return scaled / np.sqrt(mu)[..., None, :]


@dataclass(frozen=True)
class SingularBoundReport:
    """Singular-value bounds against exact distances along one trajectory.

    Index conventions: ``mus[t] = mu_t`` (read-only); ``sigmas[i-1]`` belongs
    to step ``i``; ``sigma_product[t] = prod_{i<=t} sigma_i``; the
    total-variation arrays are indexed by time ``t = 0..n`` first, then by
    starting state ``x``.

    The bound columns are closed-form in ``mu_t`` and ``sigma_t`` and are
    computed before the walk, which fills only the exact columns. The walk
    reduces the relative-sup family (start ``x``, target ``y``) to per-time
    maxima and the largest ``exact - bound`` over all ``t, x, y``, so the
    report holds O(n·N) numbers rather than two ``(n+1)·N·N`` tensors.
    ``relsup_bound`` is built on access from the expression the walk used.
    """

    mus: np.ndarray                  # (n+1, N)
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
        return _relsup_bound(self.sigma_product, self.mus[0], self.mus)

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

    The bound columns are closed-form in ``mu_t`` and ``sigma_t``, computed
    before the walk. The walk fills only the exact columns, from the
    accumulated product matrix, and reduces each step's ``N x N`` relative-sup
    matrices before the next, so memory stays O(N² + n·N). Its bound matrix
    and the report's ``relsup_bound`` tensor come from one expression. The
    reported gap is always ``bound - exact``, never a ratio.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if mu0.weights.min() <= POSITIVITY_FLOOR:
        raise ValueError("mu0 must be strictly positive (entries above 1e-300)")
    measures = evolve(mu0, seq, n)
    mus = np.stack([mu.weights for mu in measures])
    mus.flags.writeable = False

    sigmas = np.empty(n)
    for i in range(1, n + 1):
        sigmas[i - 1] = step_sigma(seq.kernel_at(i), measures[i - 1], measures[i])
    sigma_product = np.concatenate(([1.0], np.cumprod(sigmas)))

    inv_sqrt_mu0 = 1.0 / np.sqrt(mu0.weights)
    tv_bound = sigma_product[:, None] * inv_sqrt_mu0[None, :]
    # the bound matrix's largest entry at each t, bit for bit: rounded multiply and
    # divide are monotone (sigma_product >= 0), so it sits at the largest
    # 1/sqrt(mu_0(x)) and the smallest sqrt(mu_t(y))
    relsup_bound_max = sigma_product * inv_sqrt_mu0.max() / np.sqrt(mus).min(axis=1)

    tv_exact = np.empty((n + 1, seq.space.size))
    relsup_exact_max = np.empty(n + 1)
    relsup_violation = -np.inf
    for t, p, _ in walk_from_start(seq, n):
        w = mus[t]
        tv_exact[t] = 0.5 * np.abs(p - w[None, :]).sum(axis=1)
        exact = np.abs(p / w[None, :] - 1.0)
        relsup_exact_max[t] = exact.max()
        gap = exact - _relsup_bound(sigma_product[t], mu0.weights, w)
        # np.maximum, not max(): a NaN gap must propagate as it would through .max()
        relsup_violation = np.maximum(relsup_violation, gap.max())
    return SingularBoundReport(
        mus=mus,
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
    measure from the running trajectory ``mu_t = mu_0 K^t`` (``mus[t]``),
    using only quantities observable along the trajectory (no invariant
    measure enters the bound; it is reported for the exact comparison only).

    As in :class:`SingularBoundReport`, the bounds are closed-form in ``mu_t``
    and ``sigma_t`` and computed before the walk, which keeps only the largest
    pointwise ``exact - bound``; ``pointwise_bound`` is built on access from
    the expression the walk used.
    """

    mus: np.ndarray                  # (n+1, N)
    sigmas: np.ndarray
    sigma_product: np.ndarray
    pointwise_violation: float       # max over (t, x, y) of exact - bound
    invariant_bound: np.ndarray      # (n+1, N): bound on |pi(y)/mu_t(y) - 1|
    invariant_exact: np.ndarray
    mu0_star: float

    @property
    def pointwise_bound(self) -> np.ndarray:
        """``(n+1, N, N)`` bound on ``|K^t(x, y)/mu_t(y) - 1|``, target indexed last."""
        return _relsup_bound(self.sigma_product, self.mus[0], self.mus)

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
    invariant_bound = report.sigma_product[:, None] / np.sqrt(mu0_star * report.mus)
    invariant_exact = np.abs(pi[None, :] / report.mus - 1.0)
    return HomogeneousBoundReport(
        mus=report.mus,
        sigmas=report.sigmas,
        sigma_product=report.sigma_product,
        pointwise_violation=report.relsup_violation,
        invariant_bound=invariant_bound,
        invariant_exact=invariant_exact,
        mu0_star=mu0_star,
    )

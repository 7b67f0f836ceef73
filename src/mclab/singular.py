"""Per-step singular values and the associated merging bounds.

A kernel driving the step ``mu_prev -> mu_next`` acts as a contraction
between the weighted spaces ``l2(mu_next) -> l2(mu_prev)``. Its second
largest singular value controls how fast the chain forgets a Dirac start
relative to the reference trajectory: products of the per-step values give
computable total-variation and relative-sup bounds, without needing any
invariant measure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
#: relative slack of a relative-sup comparison: the exact value ``|p/w − 1|`` takes 2
#: roundings and the bound 5 (two square roots, a reciprocal, a product, a quotient),
#: so a computed exact value can exceed a computed bound it truly meets by about 7u·bound
RELSUP_SLACK = 8 * UNIT_ROUNDOFF


@functools.lru_cache(maxsize=None)
def _lapack():
    # imported on first use, not at module level: scipy.linalg adds about 22 MB to a
    # process; cached, as an import statement costs about 0.5 µs a call
    import scipy.linalg.lapack as lapack
    return lapack


def _check_step(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> None:
    if mu_prev.weights.min() <= POSITIVITY_FLOOR or mu_next.weights.min() <= POSITIVITY_FLOOR:
        raise ValueError("measures must be strictly positive (entries above 1e-300)")
    drift = np.abs(mu_prev.weights @ k.entries - mu_next.weights).max()
    if drift > STEP_ATOL:
        raise ValueError(f"mu_next is not mu_prev K (residual {drift:.2e})")


class _BandLayout(NamedTuple):
    """Flat indices for the band path at one state count ``N``.

    A band is a flat array of ``3N`` entries: ``3i + c`` holds entry
    ``(i, i + c − 1)`` of a tridiagonal matrix, for ``c = 0, 1, 2``. The two
    corners ``(0, −1)`` and ``(N − 1, N)`` lie outside the matrix and hold 0.
    """

    kernel: np.ndarray   # (3N,) into K: K(i, i+c−1); the corners read K(0, N−1), 0 on this path
    scale: np.ndarray    # (2, 3N) into (a, b): b_{i+c−1} (any b at a corner), then a_i
    sums: np.ndarray     # (6N,) slot of m(i, j)·b_j in m b (slot i), of m(i, j)·a_i in mᵀa (N + j)
    pairs: np.ndarray    # (2, 6N) into a band: the factors of m(i, j)·m(i, j + d), 0 <= d <= 2
    gram: np.ndarray     # (6N,) slot 3j + d of that product in the lower band of mᵀm


@functools.lru_cache(maxsize=16)
def _band_layout(n: int) -> _BandLayout:
    # Kept for the last few state counts: on a few states, index arithmetic per call
    # would cost more than the band itself. Left writable, as numpy copies a read-only
    # index array on every gather and bincount; nothing writes to them.
    entry = np.arange(3 * n)
    row = entry // 3
    col = row + entry % 3 - 1
    inside = np.clip(col, 0, n - 1)
    # the six products of row i: entries c <= c2 of it
    c, c2 = np.triu_indices(3)
    first = (3 * np.arange(n)[:, None] + c).reshape(-1)
    second = (3 * np.arange(n)[:, None] + c2).reshape(-1)
    return _BandLayout(
        kernel=np.where(col == inside, row * n + col, n - 1),
        scale=np.stack((n + inside, row)),
        sums=np.concatenate((row, n + inside)),
        pairs=np.stack((first, second)),
        # a product outside the band has a zero corner factor, so any slot takes it
        gram=np.clip(3 * col[first] + second - first, 0, 3 * n - 1),
    )


def step_sigma(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> float:
    """Second largest singular value of the step operator, rounded up.

    With ``m = diag(mu_prev)^(1/2) K diag(mu_next)^(-1/2)``, ``a = √mu_prev``
    and ``b = √mu_next``, the top singular pair of ``m`` is ``(1, a, b)``:
    ``m b = a`` and ``mᵀ a = b`` (Fill, Ann. Appl. Probab. 1, 1991;
    Saloff-Coste & Zúñiga, EJP 14, 2009). The kernel's support alone picks
    one of two paths:

    - *Band path*, for a tridiagonal ``K`` (support within ``|x − y| ≤ 1``)
      of 3 or more states, as every birth-death kernel is. Then ``m`` is
      tridiagonal and ``mᵀm`` pentadiagonal. As ``‖a‖ = 1``, the deflated
      Gram matrix is ``mᵀm − b bᵀ``, so σ₂² is the second largest
      eigenvalue of ``mᵀm`` itself. Its three lower diagonals are formed in
      O(N) from the three diagonals of ``m``, and its top two eigenvalues
      ``λ̂₂ ≤ λ̂₁`` are taken from LAPACK ``dsbevx``.
    - *Dense path*, for every other kernel. σ₂ is the largest singular value
      of the deflated operator ``A = m − a bᵀ = diag(a) (K − 1 mu_nextᵀ)
      diag(b)^(-1)``, computed as ``sqrt(λ_max(AᵀA))`` with the top
      eigenvalue alone taken from LAPACK ``dsyevr``. For any vectors ``a``
      and ``b``, Weyl's inequality gives ``σ₂(m) ≤ ‖m − a bᵀ‖₂``, so the
      bound does not rest on the measures being exactly consistent.

    The result is rounded up so that ``prod sigma_i`` stays an upper bound
    on the exact values for the given floating-point inputs. With
    ``u = 2^-53``, ``γ_k = k·u/(1 − k·u)`` and ``N`` states, the dense path
    writes ``Â`` for the computed ``A``, ``Ĝ`` for the computed ``ÂᵀÂ``,
    ``t = trace(Ĝ)`` (which is ``‖Â‖_F²`` to within ``γ_N``) and ``λ̂`` for
    the computed top eigenvalue:

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

    The band path writes ``m̂`` for the computed ``m``, ``Ĝ`` for the
    computed band of ``m̂ᵀm̂``, ``e = (N² + 4)·u`` and ``s = λ̂₁ / (1 − e)``:

    - *Forming m.* An entry takes four roundings (two square roots, a
      product, a quotient) and ``m ≥ 0``, so ``|m̂ − m| ≤ γ_4·m`` and
      ``‖m̂ − m‖₂ ≤ γ_4·‖m‖₂ ≤ 5u·‖m̂‖₂``. Weyl's inequality for singular
      values carries this into σ₂; it is added as ``5u·√s``.
    - *The band Gram matrix.* An entry is a sum of at most 3 products of
      non-negative numbers, so ``‖Ĝ − m̂ᵀm̂‖₂ ≤ γ_3·‖m̂‖₂²``.
    - *The eigensolver.* ``λ̂₂`` and ``λ̂₁`` are eigenvalues of ``Ĝ + E``
      with ``‖E‖₂ ≤ N²·u·‖Ĝ‖₂``, the same generous ``p`` as above, for the
      reduction to tridiagonal form and the bisection ``dsbevx`` runs for
      two eigenvalues. With ``‖Ĝ‖₂ ≤ (1 + γ_3)·‖m̂‖₂²``, the computed top
      eigenvalue bounds the norm, ``‖m̂‖₂² ≤ s``, and Weyl's inequality
      gives ``σ₂(m̂)² ≤ λ̂₂ + e·s``, as ``γ_3 + N²·u·(1 + γ_3) ≤ e``.

    On both paths a last factor ``1 + 8u`` covers the roundings of
    evaluating these expressions. The dense round-up is relative: as
    ``t ≤ N·σ₂²``, its ``σ̂`` exceeds σ₂ by at most about
    ``(1.5·N² + 8√N)·u`` relative, 3e-12 at 129 states, and about a third
    of that when σ₂ dominates the rest of the spectrum. The band round-up
    is absolute, as ``λ̂₁`` is about 1: about ``N²·u / (2σ₂) + 13u``, which
    is 9e-13 at 129 states near σ₂ = 1 but grows as σ₂ falls, up to about
    ``N·√u`` at σ₂ = 0.

    In place of the SVD's "top singular value is 1", the step is checked:
    ``m b − a`` and ``mᵀ a − b`` must be within ``STEP_ATOL`` of 0 in the
    max norm (on the dense path as ``A b`` and ``Aᵀ a``, in O(N²), as
    ``‖a‖ = ‖b‖ = 1``; on the band path in O(N)), and the computed σ₂ at
    most ``1 + STEP_ATOL``. That last check reads ``√λ̂`` (``√λ̂₂``) before
    the round-up, which alone reaches ``STEP_ATOL`` on a periodic step of
    about 800 states. A failure, or a nonzero ``info`` from LAPACK, raises
    ``ArithmeticError``.
    """
    _check_step(k, mu_prev, mu_next)
    if k.size >= 3 and k.bandwidth <= 1:
        return _band_sigma(k.entries, mu_prev.weights, mu_next.weights)
    return _dense_sigma(k.entries, mu_prev.weights, mu_next.weights)


def _dense_sigma(entries: np.ndarray, mu_prev: np.ndarray, mu_next: np.ndarray) -> float:
    a = np.sqrt(mu_prev)
    b = np.sqrt(mu_next)
    deflated = entries - mu_next
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
    w, _, _, _, info = _lapack().dsyevr(gram.T, 0, "I", 0, 0.0, 1.0, n, n, 0.0, 26 * n, 10 * n, 1)
    if info != 0:
        raise ArithmeticError(f"dsyevr failed (info {info})")
    lam = max(float(w[0]), 0.0)
    if not lam <= (1.0 + STEP_ATOL) ** 2:
        raise ArithmeticError(f"second singular value {math.sqrt(lam)} exceeds 1")
    u = UNIT_ROUNDOFF
    e_gram = 2.0 * n * u / (1.0 - n * u) * trace
    top = math.sqrt((lam + e_gram) / (1.0 - n * n * u))
    return (top + 8.0 * u * math.sqrt(trace)) * (1.0 + 8.0 * u)


def _band_sigma(entries: np.ndarray, mu_prev: np.ndarray, mu_next: np.ndarray) -> float:
    n = len(entries)
    layout = _band_layout(n)
    band = entries.ravel()[layout.kernel]
    roots = np.sqrt(np.concatenate((mu_prev, mu_next)))    # (a, b)
    scale = roots[layout.scale]
    m = band * scale[1]
    m /= scale[0]
    residuals = np.bincount(layout.sums, (m * scale).ravel(), 2 * n)
    residuals -= roots
    residual = np.maximum.reduce(np.abs(residuals))
    if not residual <= STEP_ATOL:
        raise ArithmeticError(f"top singular pair of the step is off by {residual:.2e}")
    factors = m.take(layout.pairs)
    # lower band storage: gram[d, j] = (mᵀm)[j + d, j], Fortran-ordered for dsbevx
    gram = np.bincount(layout.gram, factors[0] * factors[1], 3 * n).reshape(n, 3).T
    # The top two eigenvalues: vl, vu, il = n - 1, iu = n, ldab=3, compute_v=0,
    # range="I" (2), lower=1, abstol=0, mmax=1, overwrite_ab=1; positional, as for dsyevr.
    w, _, _, _, info = _lapack().dsbevx(gram, 0.0, 1.0, n - 1, n, 3, 0, 2, 1, 0.0, 1, 1)
    if info != 0:
        raise ArithmeticError(f"dsbevx failed (info {info})")
    lam = max(float(w[0]), 0.0)
    if not lam <= (1.0 + STEP_ATOL) ** 2:
        raise ArithmeticError(f"second singular value {math.sqrt(lam)} exceeds 1")
    u = UNIT_ROUNDOFF
    e = (n * n + 4) * u
    s = float(w[1]) / (1.0 - e)
    return (math.sqrt(lam + e * s) + 5.0 * u * math.sqrt(s)) * (1.0 + 8.0 * u)


def pi_kernel(k: StochasticKernel, mu_prev: ProbMeasure, mu_next: ProbMeasure) -> StochasticKernel:
    """The kernel ``P(x,y) = sum_z K(z,x) K(z,y) mu_prev(z) / mu_next(x)``.

    ``P`` is the composition of the step adjoint with the step itself: it is
    row-stochastic, reversible with respect to ``mu_next``, and its second
    largest eigenvalue is ``σ₂²``, the square of the second singular value
    of the step operator. :func:`step_sigma` returns that ``σ₂`` rounded up
    by the bound its docstring states, so its square sits just above this
    eigenvalue.
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
    maxima, the largest ``exact - bound`` over all ``t, x, y`` and whether
    every ``exact - bound`` is within ``VALUE_ATOL + RELSUP_SLACK·bound``, so
    the report holds O(n·N) numbers rather than two ``(n+1)·N·N`` tensors.
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
    relsup_dominated: bool           # exact - bound <= VALUE_ATOL + RELSUP_SLACK·bound everywhere

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
        """Whether both bounds hold everywhere, up to the rounding of their comparison.

        The total-variation family is compared to the absolute ``VALUE_ATOL``.
        The relative-sup family also gets ``RELSUP_SLACK`` relative to the
        bound: at ``t = 0`` its values are about ``1/mu_0(x)``, so a few ulps of
        rounding there can exceed ``VALUE_ATOL`` by far.
        """
        return bool((self.tv_exact - self.tv_bound).max() <= VALUE_ATOL) and self.relsup_dominated

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
    relsup_dominated = True
    for t, p, _ in walk_from_start(seq, n):
        w = mus[t]
        tv_exact[t] = 0.5 * np.abs(p - w[None, :]).sum(axis=1)
        exact = np.abs(p / w[None, :] - 1.0)
        relsup_exact_max[t] = exact.max()
        bound = _relsup_bound(sigma_product[t], mu0.weights, w)
        gap = exact - bound
        worst = gap.max()
        # np.maximum, not max(): a NaN gap must propagate as it would through .max()
        relsup_violation = np.maximum(relsup_violation, worst)
        if not worst <= VALUE_ATOL:
            relsup_dominated &= bool((gap <= VALUE_ATOL + RELSUP_SLACK * bound).all())
    return SingularBoundReport(
        mus=mus,
        sigmas=sigmas,
        sigma_product=sigma_product,
        tv_bound=tv_bound,
        tv_exact=tv_exact,
        relsup_bound_max=relsup_bound_max,
        relsup_exact_max=relsup_exact_max,
        relsup_violation=float(relsup_violation),
        relsup_dominated=relsup_dominated,
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

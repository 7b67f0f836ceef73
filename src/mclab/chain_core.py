"""State spaces, stochastic kernels, measures, products and structure.

All values are immutable after construction and every operation is a pure
function, so objects can be shared freely across threads. Matrices are
dense ``float64``; the intended scale is a few thousand states at most.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .rng import substream

ROW_SUM_ATOL = 1e-9        # constructor accepts rows this far from 1
VALUE_ATOL = 1e-12         # tolerance quoted in the public contracts
DRIFT_ATOL = 1e-12         # per-step renormalization drift allowed in a walk
_TV_CHUNK = 1 << 14        # elements per block of row differences in tv_between_rows


class ReducibleKernelError(ValueError):
    """Raised when an operation needs irreducibility and the kernel lacks it.

    Carries the recurrent classes so callers can report which parts of the
    state space decoupled.
    """

    def __init__(self, message: str, recurrent_classes: tuple[tuple[int, ...], ...]):
        super().__init__(message)
        self.recurrent_classes = recurrent_classes


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateSpace:
    """A finite, labelled state space.

    Parameters
    ----------
    size : int
        Number of states, at least 1.
    labels : tuple of str, optional
        Display labels, one per state, unique. Defaults to ``"0", "1", ...``.
    """

    size: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"state space needs size >= 1, got {self.size}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(self.size)))
        if len(self.labels) != self.size:
            raise ValueError("labels length must equal size")
        if len(set(self.labels)) != self.size:
            raise ValueError("labels must be unique")


@dataclass(frozen=True, eq=False)
class ProbMeasure:
    """A probability vector on a :class:`StateSpace`.

    Weights must be non-negative and sum to 1 within ``1e-9``; they are
    renormalized on construction so the stored vector sums to 1 in working
    precision. ``positive`` is true iff every weight is strictly positive.
    """

    space: StateSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.space.size,):
            raise ValueError(f"weights shape {w.shape} does not match space size {self.space.size}")
        if w.min() < 0:
            raise ValueError(f"negative weight {w.min()}")
        total = w.sum()
        if abs(total - 1.0) > ROW_SUM_ATOL:
            raise ValueError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "weights", _as_readonly(w / total))

    @property
    def positive(self) -> bool:
        return bool(self.weights.min() > 0)

    @classmethod
    def _checked_by_caller(cls, space: StateSpace, weights: np.ndarray) -> "ProbMeasure":
        # For weights the caller has already checked and normalized as
        # __post_init__ would; ``weights`` must be a fresh, unshared array.
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        weights.setflags(write=False)
        object.__setattr__(obj, "weights", weights)
        return obj

    @classmethod
    def uniform(cls, space: StateSpace) -> "ProbMeasure":
        return cls(space, np.full(space.size, 1.0 / space.size))

    @classmethod
    def dirac(cls, space: StateSpace, state: int) -> "ProbMeasure":
        w = np.zeros(space.size)
        w[state] = 1.0
        return cls(space, w)

    @classmethod
    def from_weights(cls, space: StateSpace, raw: Iterable[float]) -> "ProbMeasure":
        """Normalize arbitrary non-negative weights into a measure."""
        w = np.asarray(list(raw) if not isinstance(raw, np.ndarray) else raw, dtype=float)
        s = w.sum()
        if s <= 0:
            raise ValueError("weights must have positive total mass")
        return cls(space, w / s)


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """A row-stochastic square matrix on a :class:`StateSpace`.

    Entries must be non-negative and each row must sum to 1 within
    ``1e-9``; rows are renormalized on construction so stored sums are 1
    in working precision.
    """

    space: StateSpace
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        n = self.space.size
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match space size {n}")
        if m.min() < 0:
            raise ValueError(f"negative entry {m.min()}")
        sums = m.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_ATOL
        if bad.any():
            raise ValueError(f"rows {np.nonzero(bad)[0].tolist()} sum to {sums[bad]}, not 1")
        object.__setattr__(self, "entries", _as_readonly(m / sums[:, None]))

    @property
    def size(self) -> int:
        return self.space.size

    @functools.cached_property
    def bandwidth(self) -> int:
        """Largest ``|x − y|`` with ``K(x, y) != 0``: 1 for a birth-death kernel.

        Computed on first access and kept, as the entries are read-only.
        """
        rows, cols = np.nonzero(self.entries)
        return int(np.abs(rows - cols).max(initial=0))

    @classmethod
    def identity(cls, space: StateSpace) -> "StochasticKernel":
        return cls(space, np.eye(space.size))

    @classmethod
    def _unchecked(cls, space: StateSpace, matrix: np.ndarray) -> "StochasticKernel":
        # Bypass used only where the contract explicitly disables the
        # stochasticity check (adjoint of a non-invariant measure).
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "entries", _as_readonly(matrix))
        return obj


def _require_same_space(*objs) -> StateSpace:
    space = objs[0].space
    for o in objs[1:]:
        if o.space != space:
            raise ValueError("operands live on different state spaces")
    return space


@dataclass(eq=False)
class KernelSequence:
    """A rule producing the driving kernels ``K_1, K_2, ...``.

    Three rules are supported: an explicit finite list, a cyclic word over
    a finite kernel alphabet, and seeded i.i.d. draws from a finite kernel
    alphabet. Cyclic and i.i.d. rules extend to indices ``i <= 0`` (used by
    backward-limit estimates); explicit lists extend by cyclic reuse and
    carry ``extension_is_convention = True`` to flag that choice.
    """

    kind: str
    kernels: tuple[StochasticKernel, ...]
    word: tuple[int, ...] = ()
    probs: tuple[float, ...] = ()
    seed: int = 0

    _draw_cache: dict = field(default_factory=dict, compare=False, repr=False)

    _BLOCK = 1024

    def __post_init__(self):
        if self.kind not in ("explicit", "cyclic", "iid"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not self.kernels:
            raise ValueError("kernel set must be non-empty")
        _require_same_space(*self.kernels)
        if self.kind == "cyclic":
            if not self.word:
                object.__setattr__(self, "word", tuple(range(len(self.kernels))))
            if any(not 0 <= i < len(self.kernels) for i in self.word):
                raise ValueError("cyclic word indexes outside the kernel set")
        if self.kind == "iid":
            if not self.probs:
                object.__setattr__(self, "probs", (1.0 / len(self.kernels),) * len(self.kernels))
            if len(self.probs) != len(self.kernels):
                raise ValueError("probs length must match kernel set")
            if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > ROW_SUM_ATOL:
                raise ValueError("probs must be a probability vector")

    @property
    def space(self) -> StateSpace:
        return self.kernels[0].space

    @property
    def extension_is_convention(self) -> bool:
        """True when indices ``i <= 0`` are defined only by cyclic reuse."""
        return self.kind == "explicit"

    @classmethod
    def explicit(cls, kernels: Sequence[StochasticKernel]) -> "KernelSequence":
        return cls("explicit", tuple(kernels))

    @classmethod
    def cyclic(cls, kernels: Sequence[StochasticKernel], word: Sequence[int] | None = None) -> "KernelSequence":
        return cls("cyclic", tuple(kernels), word=tuple(word) if word is not None else ())

    @classmethod
    def constant(cls, kernel: StochasticKernel) -> "KernelSequence":
        return cls("cyclic", (kernel,), word=(0,))

    @classmethod
    def iid(cls, kernels: Sequence[StochasticKernel], probs: Sequence[float] | None = None,
            seed: int = 0) -> "KernelSequence":
        return cls("iid", tuple(kernels), probs=tuple(probs) if probs is not None else (), seed=seed)

    def _draws(self, block: int) -> np.ndarray:
        """Kernel positions of the i.i.d. steps ``block * _BLOCK`` onward, read-only."""
        draws = self._draw_cache.get(block)
        if draws is None:
            u = substream(self.seed, block).random(self._BLOCK)
            cdf = np.cumsum(self.probs)
            draws = np.searchsorted(cdf, u, side="right").clip(0, len(self.kernels) - 1)
            draws.setflags(write=False)
            self._draw_cache[block] = draws
        return draws

    def index_at(self, i: int) -> int:
        """Position of ``K_i`` in ``kernels``; defined for every integer ``i``."""
        if self.kind == "iid":
            block, offset = divmod(i, self._BLOCK)
            return int(self._draws(block)[offset])
        if self.kind == "cyclic":
            return self.word[(i - 1) % len(self.word)]
        return (i - 1) % len(self.kernels)

    def indices(self, start: int, stop: int) -> np.ndarray:
        """Positions of ``K_i`` in ``kernels`` for ``start <= i < stop``, as :meth:`index_at` gives them.

        I.i.d. draws are read a whole block at a time; cyclic and explicit
        rules are evaluated with modular arithmetic over the whole range.
        The result may be a read-only view of the draw cache.
        """
        if stop <= start:
            return np.zeros(0, dtype=np.intp)
        if self.kind == "iid":
            first, last = start // self._BLOCK, (stop - 1) // self._BLOCK
            base = first * self._BLOCK
            if first == last:
                return self._draws(first)[start - base:stop - base]
            draws = np.concatenate([self._draws(b) for b in range(first, last + 1)])
            return draws[start - base:stop - base]
        steps = np.arange(start - 1, stop - 1)
        if self.kind == "cyclic":
            return np.asarray(self.word, dtype=np.intp)[steps % len(self.word)]
        return steps % len(self.kernels)

    def kernel_at(self, i: int) -> StochasticKernel:
        """Kernel ``K_i``; defined for every integer ``i`` (see class docs)."""
        return self.kernels[self.index_at(i)]


# ---------------------------------------------------------------------------
# operations


def compose(a: StochasticKernel, b: StochasticKernel) -> StochasticKernel:
    """Matrix product ``ab(x, y) = sum_z a(x, z) b(z, y)``."""
    space = _require_same_space(a, b)
    return StochasticKernel(space, a.entries @ b.entries)


def product(seq: KernelSequence, m: int, n: int, order: str = "forward") -> StochasticKernel:
    """Iterated kernel over the window ``(m, n]``.

    ``forward`` returns ``K_{m+1} ... K_n`` and ``backward`` returns
    ``K_n ... K_{m+1}``; ``n == m`` gives the identity. Implemented as a
    literal fold of :func:`compose`, so the result carries the same
    floating-point operations as step-by-step composition.
    """
    if m > n:
        raise ValueError(f"need m <= n, got m={m} n={n}")
    if order not in ("forward", "backward"):
        raise ValueError(f"unknown order {order!r}")
    acc = StochasticKernel.identity(seq.space)
    for i in range(m + 1, n + 1):
        k = seq.kernel_at(i)
        acc = compose(acc, k) if order == "forward" else compose(k, acc)
    return acc


def renormalized_step(p: np.ndarray, k: np.ndarray, order: str = "forward"):
    """One walk step on a matrix or on a stack of matrices.

    Forms the fresh product ``P K`` (``forward``) or ``K P`` (``backward``)
    of two ``(N, N)`` matrices or two ``(R, N, N)`` stacks, slice by slice,
    then divides each row of it in place by the row's sum. Returns
    ``(Q, drift)``: ``drift`` is the largest deviation of a row sum from 1
    before the division, a scalar for one matrix and one value per matrix
    of a stack, for the caller to check against ``DRIFT_ATOL``. Neither
    operand is modified, so a matrix returned by one step stays valid after
    the next.

    A stacked step gives each slice the bits the same step gives that
    slice alone: ``np.matmul`` multiplies a stack one slice at a time with
    the same BLAS call, the row sums reduce along the same contiguous axis
    in the same order, and the division is elementwise.
    """
    q = np.matmul(p, k) if order == "forward" else np.matmul(k, p)
    sums = np.add.reduce(q, axis=-1)
    drift = np.maximum.reduce(np.abs(sums - 1.0), axis=-1)
    np.divide(q, sums[..., None], out=q)
    return q, drift


def walk(seq: KernelSequence, indices: Iterable[int], order: str = "forward",
         start: np.ndarray | None = None):
    """Accumulate ``K_i`` for ``i`` in ``indices`` from ``start``, by default the identity.

    ``forward`` multiplies each kernel on the right (``P K_i``) and
    ``backward`` on the left (``K_i P``). Each step is a
    :func:`renormalized_step`; yields ``(i, P, drift)`` with the largest
    row-sum deviation from 1 seen before that step's renormalization.
    ``start`` and every yielded matrix are replaced, never mutated, by
    later steps. Every walk's drift is checked here.

    Raises
    ------
    ArithmeticError
        If a step's drift exceeds ``DRIFT_ATOL``.
    """
    if order not in ("forward", "backward"):
        raise ValueError(f"unknown order {order!r}")
    p = np.eye(seq.space.size) if start is None else start
    for i in indices:
        p, drift = renormalized_step(p, seq.kernel_at(i).entries, order)
        drift = float(drift)
        if drift > DRIFT_ATOL:
            raise ArithmeticError(f"row-sum drift {drift:.2e} at step {i}")
        yield i, p, drift


def walk_from_start(seq: KernelSequence, n: int, order: str = "forward"):
    """``(0, I, 0.0)`` for time 0, then :func:`walk` over ``1..n``."""
    yield 0, np.eye(seq.space.size), 0.0
    yield from walk(seq, range(1, n + 1), order)


def evolve(mu0: ProbMeasure, seq: KernelSequence, n: int) -> list[ProbMeasure]:
    """Distributions ``mu_0, ..., mu_n`` with ``mu_i = mu_{i-1} K_i``.

    Computed by iterated vector-matrix products; the full product matrix is
    never materialized. Each step is checked and normalized here exactly as
    the :class:`ProbMeasure` constructor would, so the weights are the ones
    it gives, without a second check per measure.

    Raises
    ------
    ValueError
        If a step has a negative weight or its total is more than
        ``ROW_SUM_ATOL`` from 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    space = _require_same_space(mu0, seq)
    kernels = seq.kernels
    out = [mu0]
    w = mu0.weights
    for i, k in enumerate(seq.indices(1, n + 1).tolist(), 1):
        w = w @ kernels[k].entries
        # the reductions behind w.min() and w.sum(), without their wrappers
        low, total = np.minimum.reduce(w), np.add.reduce(w)
        if low < 0:
            raise ValueError(f"negative weight {low} at step {i}")
        if abs(total - 1.0) > ROW_SUM_ATOL:
            raise ValueError(f"weights sum to {total} at step {i}, not 1")
        w = w / total
        out.append(ProbMeasure._checked_by_caller(space, w))
    return out


def _gth_stationary(matrix: np.ndarray) -> np.ndarray:
    # Grassmann-Taksar-Heyman elimination: no subtractions, so the result
    # is entrywise accurate even when the measure spans many decades.
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for k in range(n - 1, 0, -1):
        s = a[k, :k].sum()
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def stationary_measure(k: StochasticKernel) -> ProbMeasure:
    """The unique invariant measure of an irreducible kernel.

    Primary path is a direct solve of the singular system with the first
    row replaced by the normalization constraint. If that solution is not
    entrywise trustworthy (a non-positive entry, or a large relative
    residual on some state) the GTH elimination is used instead, which is
    accurate entry by entry regardless of the measure's dynamic range.

    Raises
    ------
    ReducibleKernelError
        If the kernel has more than one recurrent class; the error carries
        the classes.
    """
    report = classify_structure(k)
    if not report.irreducible:
        raise ReducibleKernelError(
            f"kernel is reducible ({len(report.recurrent_classes)} recurrent classes); "
            "the invariant measure is not unique",
            report.recurrent_classes,
        )
    n = k.size
    if n == 1:
        return ProbMeasure(k.space, np.ones(1))
    a = k.entries.T - np.eye(n)
    a[0, :] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    pi = np.linalg.solve(a, b)
    residual = pi @ k.entries - pi
    # relative residual per state: catches solutions whose small entries
    # are garbage even when the absolute residual looks fine
    entrywise_ok = pi.min() > 0 and np.max(np.abs(residual) / np.maximum(pi, 1e-300)) <= VALUE_ATOL
    if not entrywise_ok:
        pi = _gth_stationary(k.entries)
        residual = pi @ k.entries - pi
    if np.abs(residual).max() > VALUE_ATOL:
        raise ArithmeticError(f"stationary solve residual {np.abs(residual).max():.2e} exceeds {VALUE_ATOL:g}")
    return ProbMeasure(k.space, pi)


def _recurrent_classes(support: np.ndarray) -> list[list[int]]:
    """Closed strongly connected components of a boolean digraph, each sorted, in order."""
    # imported here, not at module level: scipy.sparse more than doubles the time of `import mclab`
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_comp, comp = connected_components(csr_matrix(support), directed=True, connection="strong")
    leaves = (support & (comp[:, None] != comp[None, :])).any(axis=1)
    closed = np.bincount(comp[leaves], minlength=n_comp) == 0
    return sorted(np.nonzero(comp == c)[0].tolist() for c in np.nonzero(closed)[0])


def _class_period(support: np.ndarray, members: list[int]) -> int:
    # gcd of cycle lengths through a strongly connected class, via BFS
    # levels: every edge u -> v contributes level(u) + 1 - level(v).
    sub = support[members][:, members]
    level = np.full(len(members), -1)
    level[0] = 0
    frontier = np.zeros(1, dtype=int)
    depth = 0
    while frontier.size:
        depth += 1
        frontier = np.flatnonzero(sub[frontier].any(axis=0) & (level < 0))
        level[frontier] = depth
    u, v = np.nonzero(sub)
    return int(np.gcd.reduce(level[u] + 1 - level[v])) or 1


@dataclass(frozen=True)
class StructureReport:
    """Communication structure of a kernel's positive-entry digraph."""

    irreducible: bool
    aperiodic: bool
    sia: bool
    recurrent_classes: tuple[tuple[int, ...], ...]
    period: int


def classify_structure(k: StochasticKernel) -> StructureReport:
    """Strongly-connected-component analysis of the support digraph.

    ``sia`` is true iff there is exactly one recurrent class and the
    kernel is aperiodic on it, which is equivalent to the powers of the
    kernel converging to a row-constant matrix.
    """
    support = k.entries > 0
    classes = _recurrent_classes(support)
    periods = [_class_period(support, members) for members in classes]
    aperiodic = all(p == 1 for p in periods)
    period = periods[0] if len(periods) == 1 else math.gcd(*periods) if periods else 1
    return StructureReport(
        irreducible=len(classes) == 1 and len(classes[0]) == k.size,
        aperiodic=aperiodic,
        sia=len(classes) == 1 and periods[0] == 1,
        recurrent_classes=tuple(tuple(c) for c in classes),
        period=max(period, 1),
    )


def adjoint_kernel(k: StochasticKernel, pi: ProbMeasure) -> StochasticKernel:
    """Adjoint ``K*(x, y) = pi(y) K(y, x) / pi(x)`` on ``l2(pi)``.

    ``pi`` must be strictly positive. When ``pi K = pi`` (checked to
    ``1e-10``) the adjoint is row-stochastic; otherwise a warning is
    emitted and the raw adjoint matrix is returned with the stochasticity
    check disabled.
    """
    _require_same_space(k, pi)
    if not pi.positive:
        raise ValueError("adjoint needs a strictly positive measure")
    w = pi.weights
    adj = (w[None, :] * k.entries.T) / w[:, None]
    if np.abs(w @ k.entries - w).max() > 1e-10:
        warnings.warn("measure is not invariant for the kernel; adjoint rows may not sum to 1",
                      stacklevel=2)
        return StochasticKernel._unchecked(k.space, adj)
    return StochasticKernel(k.space, adj)


def total_variation(mu: np.ndarray, nu: np.ndarray) -> float:
    """Total variation distance between two probability vectors."""
    return 0.5 * float(np.abs(np.asarray(mu) - np.asarray(nu)).sum())


def tv_between_rows(matrix: np.ndarray) -> float:
    """Largest total-variation distance between two rows, capped at 1.

    Each block of rows is compared with every row after the block's first,
    with the block sized so the difference array stays near ``_TV_CHUNK``
    elements. Between two probability rows the distance is at most 1, but
    rounding can put the computed L1 difference above 2 (``1.0000000000000002``
    after halving, as on every step of a chain that has not yet started to
    merge). So the scan returns ``1.0`` at the first block whose largest L1
    difference reaches 2.0 and skips the blocks after it. Halving is exact,
    so the result equals ``min(all-pairs value, 1.0)`` bit for bit: values
    below 1 are the ones the full scan gives, and values at or above 1 read
    ``1.0``.
    """
    n = matrix.shape[0]
    rows = max(1, _TV_CHUNK // (n * n))
    best = 0.0
    for i in range(0, n - 1, rows):
        d = np.abs(matrix[i:i + rows, None, :] - matrix[None, i + 1:, :]).sum(axis=-1)
        best = max(best, float(d.max()))
        if best >= 2.0:
            return 1.0
    return 0.5 * best


def contraction_coefficient(k: StochasticKernel) -> float:
    """Dobrushin coefficient: the largest TV distance between two rows.

    Submultiplicative under composition, hence a merging upper bound.
    Capped at 1 by :func:`tv_between_rows`.
    """
    return tv_between_rows(k.entries)


# ---------------------------------------------------------------------------
# JSON wire formats
#
# kernel:   {"space": {"labels": [...]}, "matrix": [[...]]}
# measure:  {"space": {"labels": [...]}, "weights": [...]}
# sequence: {"kind": "cyclic"|"explicit"|"iid", "kernels": [...],
#            "word": [...], "probs": [...], "seed": <u64>}


def required_key(obj, key: str):
    """``obj[key]``; a missing key, or an ``obj`` that is not a JSON object,
    raises ``ValueError`` naming the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing required key {key!r}")
    return obj[key]


def space_to_json(space: StateSpace) -> dict:
    return {"labels": list(space.labels)}


def space_from_json(obj: dict) -> StateSpace:
    labels = required_key(obj, "labels")
    return StateSpace(len(labels), tuple(labels))


def kernel_to_json(k: StochasticKernel) -> dict:
    return {"space": space_to_json(k.space), "matrix": k.entries.tolist()}


def kernel_from_json(obj: dict) -> StochasticKernel:
    return StochasticKernel(space_from_json(required_key(obj, "space")),
                            np.asarray(required_key(obj, "matrix"), dtype=float))


def measure_to_json(mu: ProbMeasure) -> dict:
    return {"space": space_to_json(mu.space), "weights": mu.weights.tolist()}


def measure_from_json(obj: dict) -> ProbMeasure:
    return ProbMeasure(space_from_json(required_key(obj, "space")),
                       np.asarray(required_key(obj, "weights"), dtype=float))


def sequence_to_json(seq: KernelSequence) -> dict:
    out: dict = {"kind": seq.kind, "kernels": [kernel_to_json(k) for k in seq.kernels]}
    if seq.kind == "cyclic":
        out["word"] = list(seq.word)
    if seq.kind == "iid":
        out["probs"] = list(seq.probs)
        out["seed"] = seq.seed
    return out


def sequence_from_json(obj: dict) -> KernelSequence:
    kernels = [kernel_from_json(k) for k in required_key(obj, "kernels")]
    kind = required_key(obj, "kind")
    if kind == "explicit":
        return KernelSequence.explicit(kernels)
    if kind == "cyclic":
        return KernelSequence.cyclic(kernels, obj.get("word"))
    if kind == "iid":
        return KernelSequence.iid(kernels, obj.get("probs"), obj.get("seed", 0))
    raise ValueError(f"unknown sequence kind {kind!r}")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _null_nonfinite(obj):
    """``obj`` with every non-finite float replaced by ``None`` (JSON ``null``)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_nonfinite(v) for v in obj]
    return obj


def dump_json(obj: dict, path) -> None:
    """Write ``obj`` as indented JSON with sorted keys and ``null`` for non-finite floats."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_null_nonfinite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, names: list[str], rows: Iterable[dict], comments: Iterable[str] = ()) -> None:
    """Write ``rows`` under the header ``names`` with ``\\r\\n`` line ends.

    Each of ``comments`` is written first as a ``# `` line. Cells holding a
    comma, quote or line break are quoted. The csv module writes a Python
    float as its ``repr``, so rows should hold Python floats, not numpy
    scalars.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\r\n" for line in comments)
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([row[k] for k in names] for row in rows)


def write_plotdata(path, series: dict[str, list[tuple[float, float]]]) -> None:
    """Write two-column ``x y`` blocks separated by blank lines, one per labeled series."""
    blocks = []
    for label, pairs in series.items():
        rows = "\n".join(f"{float(x)!r} {float(y)!r}" for x, y in pairs)
        blocks.append(f"# series: {label}\n{rows}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")

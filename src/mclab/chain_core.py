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
import reprlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .rng import substream

ROW_SUM_ATOL = 1e-9        # constructor accepts rows this far from 1
VALUE_ATOL = 1e-12         # tolerance quoted in the public contracts
DRIFT_ATOL = 1e-12         # per-step renormalization drift allowed in a walk
UNIT_ROUNDOFF = 2.0 ** -53  # unit roundoff of float64
_TV_CHUNK = 1 << 14        # elements per block of row differences in tv_between_rows
_BAND_BLOCK = 16           # columns (forward) or rows (backward) of a kernel product per BLAS call
_NUMERIC_CELLS = frozenset((int, float))  # cell types write_csv writes without the csv module


class ReducibleKernelError(ValueError):
    """Raised when an operation needs irreducibility and the kernel lacks it.

    Carries the recurrent classes so callers can report which parts of the
    state space decoupled.
    """

    def __init__(self, message: str, recurrent_classes: tuple[tuple[int, ...], ...]):
        super().__init__(message)
        self.recurrent_classes = recurrent_classes


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


def probability_rows(values: np.ndarray, atol: float, in_place: bool = False) -> np.ndarray:
    """``values``, a vector or a stack of rows, divided by its row sums, read-only.

    The one probability rule: every entry finite and non-negative and every
    sum within ``atol`` of 1, else ``ValueError``. Each test passes only for
    accepted numbers, so NaN and ``±inf`` fail it. The quotient is a fresh
    array, so no other reference can write it; with ``in_place`` it is
    written over ``values`` instead, which the caller then no longer writes.
    Either way it has the same bits.
    """
    # the reductions behind values.min() and values.sum(axis=-1), without their wrappers
    low = np.minimum.reduce(values, axis=None)
    if not low >= 0:
        raise ValueError(f"entries must be finite and non-negative, found {low}")
    sums = np.add.reduce(values, axis=-1)
    deviation = abs(sums - 1.0)
    if not np.maximum.reduce(deviation, axis=None) <= atol:
        bad = ~(deviation <= atol)
        where = f"rows {np.flatnonzero(bad).tolist()}" if sums.ndim else "entries"
        raise ValueError(f"{where} sum to {sums[bad]}, not 1")
    quotient = np.divide(values, sums[..., None], out=values if in_place else None)
    quotient.setflags(write=False)
    return quotient


@dataclass(frozen=True, eq=False)
class ProbMeasure:
    """A probability vector on a :class:`StateSpace`.

    Weights obey :func:`probability_rows` with ``ROW_SUM_ATOL`` (``1e-9``)
    and are stored renormalized, summing to 1 in working precision.
    ``positive`` is true iff every weight is strictly positive.
    """

    space: StateSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.space.size,):
            raise ValueError(f"weights shape {w.shape} does not match space size {self.space.size}")
        object.__setattr__(self, "weights", probability_rows(w, ROW_SUM_ATOL))

    @property
    def positive(self) -> bool:
        return bool(self.weights.min() > 0)

    @classmethod
    def uniform(cls, space: StateSpace) -> "ProbMeasure":
        return cls(space, np.full(space.size, 1.0 / space.size))

    @classmethod
    def dirac(cls, space: StateSpace, state: int) -> "ProbMeasure":
        w = np.zeros(space.size)
        w[state] = 1.0
        return cls(space, w)

    @classmethod
    def stack(cls, space: StateSpace, values: np.ndarray) -> tuple["ProbMeasure", ...]:
        """One measure for each row of the ``(m, N)`` array ``values``.

        The rows obey the probability rule in one :func:`probability_rows`
        call, which divides ``values`` in place: each measure's weights are
        a read-only view of its row, with the bits the constructor gives
        that row alone. ``values`` is the caller's to give up, not to write
        again.
        """
        if values.dtype != np.float64 or values.ndim != 2 or values.shape[1] != space.size:
            raise ValueError(f"a {values.dtype} stack of shape {values.shape} does not match "
                             f"space size {space.size}")
        probability_rows(values, ROW_SUM_ATOL, in_place=True)
        measures = []
        for weights in values:
            obj = object.__new__(cls)
            object.__setattr__(obj, "space", space)
            object.__setattr__(obj, "weights", weights)
            measures.append(obj)
        return tuple(measures)

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

    Each row obeys :func:`probability_rows` with ``ROW_SUM_ATOL`` (``1e-9``)
    and is stored renormalized, summing to 1 in working precision.
    """

    space: StateSpace
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        n = self.space.size
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match space size {n}")
        object.__setattr__(self, "entries", probability_rows(m, ROW_SUM_ATOL))

    @property
    def size(self) -> int:
        return self.space.size

    @functools.cached_property
    def bandwidth(self) -> int:
        """Largest ``|x − y|`` with ``K(x, y) != 0``: 1 for a birth-death kernel.

        Computed on first access, by :func:`_bandwidths` as a stack of one,
        and kept, as the entries are read-only.
        """
        return int(_bandwidths(self.entries[None])[0])

    @classmethod
    def identity(cls, space: StateSpace) -> "StochasticKernel":
        return cls(space, np.eye(space.size))

    @classmethod
    def stack(cls, space: StateSpace, values: np.ndarray) -> tuple["StochasticKernel", ...]:
        """One kernel for each slice of the ``(m, N, N)`` array ``values``.

        The whole stack obeys the probability rule in one
        :func:`probability_rows` call, which divides ``values`` in place, so
        the set is held once: each kernel's entries are a read-only view of
        its slice, with the bits the constructor gives that slice alone.
        Every :attr:`bandwidth` is found in one pass over the stack.
        ``values`` is the caller's to give up, not to write again.
        """
        if values.dtype != np.float64 or values.ndim != 3 \
                or values.shape[1:] != (space.size, space.size):
            raise ValueError(f"a {values.dtype} stack of shape {values.shape} does not match "
                             f"space size {space.size}")
        probability_rows(values, ROW_SUM_ATOL, in_place=True)
        kernels = []
        for entries, band in zip(values, _bandwidths(values).tolist()):
            obj = object.__new__(cls)
            object.__setattr__(obj, "space", space)
            object.__setattr__(obj, "entries", entries)
            obj.__dict__["bandwidth"] = band  # where cached_property keeps it
            kernels.append(obj)
        return tuple(kernels)

    @classmethod
    def _unchecked(cls, space: StateSpace, matrix: np.ndarray) -> "StochasticKernel":
        # Bypasses the probability rule; only tests build kernels this way,
        # to check that walks and steps reject rows that do not sum to 1.
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        entries = np.array(matrix, dtype=float)  # a copy the caller cannot write
        entries.setflags(write=False)
        object.__setattr__(obj, "entries", entries)
        return obj


def _bandwidths(stack: np.ndarray) -> np.ndarray:
    """:attr:`StochasticKernel.bandwidth` of each slice of an ``(m, N, N)`` stack.

    A slice whose nonzeros all lie on its three middle diagonals, as a
    birth-death kernel's do, is settled by counting them, for the whole
    stack at once. Otherwise row ``i`` reaches from its first nonzero
    column to its last, so it contributes the larger of ``i − first`` and
    ``last − i``, and a row of zeros contributes nothing.
    """
    lower, middle, upper = (np.add.reduce(np.diagonal(stack, d, 1, 2) != 0, axis=1)
                            for d in (-1, 0, 1))
    bands = (lower + upper > 0).astype(int)
    total = [np.count_nonzero(entries) for entries in stack]  # no (m, N, N) mask
    wide = np.flatnonzero(lower + upper + middle != total)
    rows = np.arange(stack.shape[-1])
    for s in wide.tolist():
        support = stack[s] != 0
        first = support.argmax(axis=1)  # 0 for a row of zeros, which the mask below drops
        last = (rows.size - 1) - support[:, ::-1].argmax(axis=1)
        reach = np.maximum(rows - first, last - rows)
        bands[s] = reach.max(where=support[rows, first], initial=0)
    return bands


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
    carry ``extension_is_convention = True`` to flag that choice. I.i.d.
    ``probs`` obey :func:`probability_rows` with ``ROW_SUM_ATOL`` and are
    stored as given, not renormalized, so the draws read them unchanged.
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
            probability_rows(np.asarray(self.probs, dtype=float), ROW_SUM_ATOL)

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


def kernel_matmul(p: np.ndarray, k: np.ndarray, band: int, order: str = "forward",
                  out: np.ndarray | None = None) -> np.ndarray:
    """``P K`` (``forward``) or ``K P`` (``backward``) by a kernel ``K`` of bandwidth ``band`` or less.

    The operands are two ``(N, N)`` matrices or two ``(R, N, N)`` stacks;
    the product goes to ``out`` when given, else to a fresh array. With
    ``B = _BAND_BLOCK`` and ``w = band``, ``forward`` forms the product in
    column blocks ``J`` of ``B`` columns, ``out[..., J] = P[..., J±w] @
    K[..., J±w, J]``, and ``backward`` in row blocks, ``out[..., J, :] =
    K[..., J, J±w] @ P[..., J±w, :]``, where ``J±w`` is ``J`` widened by
    ``w`` on each side: every entry ``K`` holds outside it is zero. Each
    block is one BLAS call, so a stacked product gives each slice the bits
    of that slice's product alone.

    Blocks take ``N²(B + 2w)`` multiply-adds a matrix against the
    ``N³`` of one ``np.matmul``, but in ``N / B`` narrow calls, each
    slower per operation and with its own fixed cost. So the product is
    one ``np.matmul`` whenever ``N < 5(B + 2w)``, where blocks would save
    less than four fifths of the work: every product by a kernel of
    bandwidth 1 or more at 89 states or fewer, and by a kernel of bandwidth
    above ``N/10 − 8``, a dense one among them, at any size. With ``w = 1``
    and one BLAS thread on a 2-vCPU Xeon VM, blocks take about 1.2 times
    as long as one matmul at 73 and 81 states, as long at 89, about 6%
    less at 97 and about half at 101 and 105.

    **Rounding.** An entry is a sum of at most ``B + 2w`` non-negative
    products, of which at most ``2w + 1`` are nonzero, and adding an exact
    zero is exact. So it lies within ``γ_{2w+1} ≤ γ_N`` times the same
    entry of ``|P||K|`` of the exact product, as the dense product does.
    """
    n = k.shape[-1]
    if _one_matmul(n, band):
        return np.matmul(p, k, out=out) if order == "forward" else np.matmul(k, p, out=out)
    if out is None:
        out = np.empty(np.broadcast_shapes(p.shape, k.shape))
    for first in range(0, n, _BAND_BLOCK):
        last = min(first + _BAND_BLOCK, n)
        lo, hi = max(first - band, 0), min(last + band, n)
        if order == "forward":
            np.matmul(p[..., :, lo:hi], k[..., lo:hi, first:last], out=out[..., :, first:last])
        else:
            np.matmul(k[..., first:last, lo:hi], p[..., lo:hi, :], out=out[..., first:last, :])
    return out


def _one_matmul(n: int, band: int) -> bool:
    """Whether :func:`kernel_matmul` forms a product at ``n`` states and ``band`` as one ``np.matmul``."""
    return n < 5 * (_BAND_BLOCK + 2 * band)


def forward_matmul(n: int, band: int):
    """:func:`kernel_matmul` forward at ``n`` states and ``band``, as a function ``(p, k, out=None)``.

    ``np.matmul`` itself where that product is one ``np.matmul``, so a loop
    that multiplies at every step pays nothing for the choice.
    """
    return np.matmul if _one_matmul(n, band) else functools.partial(kernel_matmul, band=band)


def matmul_band(k: StochasticKernel) -> int:
    """The ``band`` to give :func:`kernel_matmul` for ``k``.

    ``k.bandwidth``, except below ``4 · _BAND_BLOCK`` states, where every
    band multiplies densely: there it is ``k.size`` and the bandwidth is
    not computed.
    """
    return k.bandwidth if k.size >= 4 * _BAND_BLOCK else k.size


def compose(a: StochasticKernel, b: StochasticKernel) -> StochasticKernel:
    """Matrix product ``ab(x, y) = sum_z a(x, z) b(z, y)``.

    Formed by :func:`kernel_matmul` with ``b`` as the kernel, so it is the
    forward step of :func:`product` and :func:`walk` bit for bit.
    """
    space = _require_same_space(a, b)
    return StochasticKernel(space, kernel_matmul(a.entries, b.entries, matmul_band(b)))


def product(seq: KernelSequence, m: int, n: int, order: str = "forward") -> StochasticKernel:
    """Iterated kernel over the window ``(m, n]``.

    ``forward`` returns ``K_{m+1} ... K_n`` and ``backward`` returns
    ``K_n ... K_{m+1}``; ``n == m`` gives the identity. Implemented as a
    literal fold: each step is :func:`kernel_matmul` of the product so far
    and ``K_i`` in ``order``, and the constructor's row division. Forward,
    a step is :func:`compose` of the product and ``K_i``; in either order
    it carries the floating-point operations of the :func:`walk` step.
    """
    if m > n:
        raise ValueError(f"need m <= n, got m={m} n={n}")
    if order not in ("forward", "backward"):
        raise ValueError(f"unknown order {order!r}")
    acc = StochasticKernel.identity(seq.space)
    for i in range(m + 1, n + 1):
        k = seq.kernel_at(i)
        step = kernel_matmul(acc.entries, k.entries, matmul_band(k), order)
        acc = StochasticKernel(seq.space, step)
    return acc


def renormalized_step(p: np.ndarray, k: np.ndarray, band: int, order: str = "forward"):
    """One walk step on a matrix or on a stack of matrices.

    Forms the :func:`kernel_matmul` ``P K`` (``forward``) or ``K P``
    (``backward``) of two ``(N, N)`` matrices or two ``(R, N, N)`` stacks,
    slice by slice, with ``k`` of bandwidth at most ``band``, into a fresh
    array, then divides each row of it in place by the row's sum. Returns
    ``(Q, sums)``: ``sums`` holds the row sums before the division, shape
    ``(N,)`` for one matrix and ``(R, N)`` for a stack, for the caller to
    check their deviation from 1 against ``DRIFT_ATOL``. Neither operand is
    modified.

    A stacked step gives each slice the bits the same step gives that
    slice alone: :func:`kernel_matmul` multiplies a stack one slice at a
    time with the same BLAS calls, the row sums reduce along the same
    contiguous axis in the same order, and the division is elementwise.
    """
    q = kernel_matmul(p, k, band, order)
    sums = np.add.reduce(q, axis=-1)
    np.divide(q, sums[..., None], out=q)
    return q, sums


def walk(seq: KernelSequence, indices: Iterable[int], order: str = "forward",
         start: np.ndarray | None = None):
    """Accumulate ``K_i`` for ``i`` in ``indices`` from ``start``, by default the identity.

    ``forward`` multiplies each kernel on the right (``P K_i``) and
    ``backward`` on the left (``K_i P``). Each step is a
    :func:`renormalized_step`; yields ``(i, P, drift)`` with ``drift`` the
    largest deviation from 1 of a row sum before that step's
    renormalization. ``start`` and every yielded matrix are replaced, never
    mutated, by later steps. Every walk's drift is checked here.

    Raises
    ------
    ArithmeticError
        If a step's drift exceeds ``DRIFT_ATOL``.
    """
    if order not in ("forward", "backward"):
        raise ValueError(f"unknown order {order!r}")
    p = np.eye(seq.space.size) if start is None else start
    for i in indices:
        k = seq.kernel_at(i)
        p, sums = renormalized_step(p, k.entries, matmul_band(k), order)
        drift = float(np.maximum.reduce(np.abs(sums - 1.0)))
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
    never materialized. Each step's measure is built by the
    :class:`ProbMeasure` constructor, so it obeys :func:`probability_rows`.

    Raises
    ------
    ValueError
        If a step breaks that rule; the message names the step.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    space = _require_same_space(mu0, seq)
    out = [mu0]
    for i, k in enumerate(seq.indices(1, n + 1).tolist(), 1):
        try:
            out.append(ProbMeasure(space, out[-1].weights @ seq.kernels[k].entries))
        except ValueError as exc:
            raise ValueError(f"{exc} at step {i}") from exc
    return out


def stationary_measure(k: StochasticKernel) -> ProbMeasure:
    """The unique invariant measure of an irreducible kernel.

    Computed by Grassmann-Taksar-Heyman elimination (Grassmann, Taksar and
    Heyman, *Operations Research* 33, 1985): the states are eliminated one
    by one, each row renormalized by its off-diagonal sum, and ``pi`` is
    built back up by products and sums of non-negative numbers alone. With
    no subtractions there is no cancellation, so each entry carries a small
    relative error, even when the measure spans many decades.

    Raises
    ------
    ReducibleKernelError
        If the kernel has more than one recurrent class; the error carries
        the classes.
    ArithmeticError
        If the residual ``max |pi K - pi|`` exceeds ``VALUE_ATOL``.
    """
    report = classify_structure(k)
    if not report.irreducible:
        raise ReducibleKernelError(
            f"kernel is reducible ({len(report.recurrent_classes)} recurrent classes); "
            "the invariant measure is not unique",
            report.recurrent_classes,
        )
    return _irreducible_stationary_measure(k)


def _irreducible_stationary_measure(k: StochasticKernel) -> ProbMeasure:
    """:func:`stationary_measure` of a kernel whose structure is known to be irreducible.

    For a caller that has classified ``k`` already: the elimination and
    the residual check, without classifying it again.
    """
    a = np.array(k.entries, dtype=float)
    n = k.size
    for j in range(n - 1, 0, -1):
        s = a[j, :j].sum()
        a[:j, j] /= s
        a[:j, :j] += np.outer(a[:j, j], a[j, :j])
    pi = np.zeros(n)
    pi[0] = 1.0
    for j in range(1, n):
        pi[j] = pi[:j] @ a[:j, j]
    pi /= pi.sum()
    residual = np.abs(pi @ k.entries - pi).max()
    if residual > VALUE_ATOL:
        raise ArithmeticError(f"stationary solve residual {residual:.2e} exceeds {VALUE_ATOL:g}")
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

    ``pi`` must be strictly positive and invariant, ``pi K = pi`` to
    ``1e-10`` in the max norm; then the adjoint is row-stochastic. A
    measure that breaks either rule raises ``ValueError``.
    """
    _require_same_space(k, pi)
    if not pi.positive:
        raise ValueError("adjoint needs a strictly positive measure")
    w = pi.weights
    residual = np.abs(w @ k.entries - w).max()
    if not residual <= 1e-10:
        raise ValueError(f"measure is not invariant for the kernel (residual {residual:.2e}); "
                         "its adjoint is not stochastic")
    return StochasticKernel(k.space, (w[None, :] * k.entries.T) / w[:, None])


def total_variation(mu: np.ndarray, nu: np.ndarray) -> float:
    """Total variation distance between two probability vectors."""
    return 0.5 * float(np.abs(np.asarray(mu) - np.asarray(nu)).sum())


def tv_between_rows(matrix: np.ndarray) -> float:
    """Largest total-variation distance between two rows, capped at 1.

    Each block of rows is compared with the rows after the block's first,
    one chunk of them at a time, the last chunk first, so that the rows
    farthest from the block come first. Block and chunk are sized so that
    their difference holds at most ``_TV_CHUNK`` elements (a single pair of
    rows longer than that is compared alone). It is formed in one buffer of
    that size: the block is copied in, then the chunk is subtracted and the
    absolute value taken in place. So a call allocates nothing else of
    order ``N²``. Subtracting a broadcast block instead would make numpy
    allocate a ufunc buffer of up to 64 KiB when a block is one row, that
    is above 128 states.

    Between two probability rows the distance is at most 1, but rounding
    can put the computed L1 difference above 2 (``1.0000000000000002``
    after halving, as on every step of a chain that has not yet started to
    merge). So the scan returns ``1.0`` at the first chunk whose largest L1
    difference reaches 2.0 and skips the rest. Every L1 sum runs over one
    contiguous row of the buffer, as over a row of ``matrix``, and halving
    is exact, so the result equals ``min(all-pairs value, 1.0)`` bit for
    bit: values below 1 are the ones the full scan gives, and values at or
    above 1 read ``1.0``.
    """
    n = matrix.shape[0]
    rows = max(1, _TV_CHUNK // (n * n))      # rows of a block
    later = max(1, _TV_CHUNK // (rows * n))  # rows of a chunk
    buffer = np.empty(min(rows, n) * min(later, n) * n)
    best = 0.0
    for i in range(0, n - 1, rows):
        block = matrix[i:i + rows, None, :]
        for j in reversed(range(i + 1, n, later)):
            chunk = matrix[None, j:j + later, :]
            diff = buffer[:block.shape[0] * chunk.shape[1] * n].reshape(block.shape[0], -1, n)
            np.copyto(diff, block)
            np.subtract(diff, chunk, out=diff)
            np.abs(diff, out=diff)
            best = max(best, float(np.add.reduce(diff, axis=-1).max()))
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
# kernel:   {"space": {"labels": [...]}, "matrix": [[...]]}, or, when its
#           bandwidth w has 2w + 1 < N, {"space": {...}, "band": w,
#           "diagonals": [[...], ...]}: diagonals d = -w..w of the matrix
# measure:  {"space": {"labels": [...]}, "weights": [...]}
# sequence: {"kind": "cyclic"|"explicit"|"iid", "kernels": [...],
#            "word": [...], "probs": [...], "seed": <u64>}


def required_key(obj, key: str):
    """``obj[key]``; a missing key, or an ``obj`` that is not a JSON object,
    raises ``ValueError`` naming the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing required key {key!r}")
    return obj[key]


def numbers(values, name: str, ndim: int, integer: bool = False) -> np.ndarray:
    """``values``, a number (``ndim`` 0) or lists of numbers read from input, as a float array.

    The one rule for numbers in input files and scenario configs. A JSON
    object, a string that is not a number, a boolean (which numpy would
    read as 0 or 1), ragged lists or another ``ndim`` raise ``ValueError``
    naming the field, ``name``; so does, with ``integer``, an entry that is
    not a whole number, and the array then holds integers.
    """
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not a number in {name}: {exc}") from exc
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {('a number', 'a list', 'a list of lists')[ndim]}, "
                         f"got {reprlib.repr(values)}")
    if _holds_bool(values, ndim):
        raise ValueError(f"not a number in {name}: a boolean")
    if not integer:
        return array
    whole = (np.abs(array) < 2.0 ** 63) & (array == np.trunc(array))  # fits an int64; NaN fails
    if not whole.all():
        raise ValueError(f"not an integer in {name}: {array[~whole][0].item()!r}")
    return array.astype(int)


def _holds_bool(values, ndim: int) -> bool:
    """Whether ``values``, ``ndim`` levels of lists (or an array), holds a boolean.

    The element types of each innermost list are collected by
    ``set(map(type, ...))``, which runs in C, so no element is tested by a
    Python loop.
    """
    if isinstance(values, np.ndarray):
        return values.dtype == bool
    if ndim == 0:
        return isinstance(values, bool)
    rows = [values] if ndim == 1 else values
    return any(bool in set(map(type, row)) for row in rows)


def number(value, name: str, integer: bool = False) -> float | int:
    """One finite number by the rule of :func:`numbers`: a Python ``float``, or ``int``
    with ``integer``."""
    if integer and isinstance(value, int) and not isinstance(value, bool):
        return value  # as given: a seed may exceed 2**53
    x = numbers(value, name, 0, integer).item()
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    return x


def space_to_json(space: StateSpace) -> dict:
    return {"labels": list(space.labels)}


def space_from_json(obj: dict) -> StateSpace:
    labels = required_key(obj, "labels")
    return StateSpace(len(labels), tuple(labels))


def kernel_to_json(k: StochasticKernel) -> dict:
    """``k`` as a JSON object: banded when its bandwidth ``w`` has ``2w + 1 < N``, else dense.

    The banded form holds ``"band": w`` and ``"diagonals"``, the
    ``np.diagonal(entries, d)`` for ``d = −w..w``: ``N(2w + 1) − w(w + 1)``
    numbers instead of ``N²``.
    """
    w, entries = k.bandwidth, k.entries
    if 2 * w + 1 >= k.size:
        return {"space": space_to_json(k.space), "matrix": entries.tolist()}
    return {"space": space_to_json(k.space), "band": w,
            "diagonals": [np.diagonal(entries, d).tolist() for d in range(-w, w + 1)]}


def kernel_from_json(obj: dict) -> StochasticKernel:
    """A kernel from either form :func:`kernel_to_json` writes.

    Both forms build the same ``(N, N)`` array, zero off the band, before
    the probability rule, so a kernel loads with the same bits from either,
    save an off-band ``-0.0``, which the banded form cannot hold.
    """
    space = space_from_json(required_key(obj, "space"))
    if "band" in obj:
        entries = _band_entries(space.size, obj["band"], required_key(obj, "diagonals"))
    else:
        entries = numbers(required_key(obj, "matrix"), "matrix", 2)
    return StochasticKernel(space, entries)


def _band_entries(n: int, band, diagonals) -> np.ndarray:
    """The ``(n, n)`` array with ``diagonals[band + d]`` on diagonal ``d``, ``|d| <= band``, and zeros elsewhere."""
    if isinstance(band, bool) or not isinstance(band, int) or not 0 <= band < n:
        raise ValueError(f"band must be an integer from 0 to {n - 1}, got {band!r}")
    if not isinstance(diagonals, list) or len(diagonals) != 2 * band + 1:
        raise ValueError(f"a kernel of band {band} needs a list of {2 * band + 1} diagonals")
    entries = np.zeros((n, n))
    for d, values in enumerate(diagonals, -band):
        values = numbers(values, f"diagonal {d}", 1)
        rows = np.arange(max(-d, 0), min(n - d, n))
        if values.shape != rows.shape:
            raise ValueError(f"diagonal {d} needs {rows.size} entries, got shape {values.shape}")
        entries[rows, rows + d] = values
    return entries


def measure_to_json(mu: ProbMeasure) -> dict:
    return {"space": space_to_json(mu.space), "weights": mu.weights.tolist()}


def measure_from_json(obj: dict) -> ProbMeasure:
    return ProbMeasure(space_from_json(required_key(obj, "space")),
                       numbers(required_key(obj, "weights"), "weights", 1))


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
        word = numbers(obj.get("word", []), "word", 1, True)
        return KernelSequence.cyclic(kernels, word.tolist())
    if kind == "iid":
        return KernelSequence.iid(kernels, numbers(obj.get("probs", []), "probs", 1).tolist(),
                                  number(obj.get("seed", 0), "seed", True))
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


def write_csv(path, names: list[str], rows: Iterable[Sequence], comments: Iterable[str] = ()) -> None:
    """Write ``rows``, each a sequence of cells in ``names`` order, under the header ``names``.

    Lines end in ``\\r\\n``. Each of ``comments`` is written first as a
    ``# `` line. Cells holding a comma, quote or line break are quoted. The
    csv module writes a Python float as its ``repr``, so rows should hold
    Python floats (``ndarray.tolist()`` gives them), not numpy scalars. A
    row of ``int`` and ``float`` cells alone, which never need quoting, is
    written as the join of their ``repr``s, the bytes the csv module writes
    for it, without the csv module.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\r\n" for line in comments)
        writer = csv.writer(fh)
        writer.writerow(names)
        write = fh.write
        for row in rows:
            if _NUMERIC_CELLS.issuperset(map(type, row)):
                write(",".join(map(repr, row)) + "\r\n")
            else:
                writer.writerow(row)


def write_plotdata(path, series: dict[str, list[tuple[float, float]]]) -> None:
    """Write two-column ``x y`` blocks separated by blank lines, one per labeled series."""
    blocks = []
    for label, pairs in series.items():
        rows = "\n".join(f"{float(x)!r} {float(y)!r}" for x, y in pairs)
        blocks.append(f"# series: {label}\n{rows}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")

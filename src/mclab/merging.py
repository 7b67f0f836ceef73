"""Exact merging distances, merging times, and certified upper bounds.

Distances are computed from the full iterated-kernel matrix, never from
sampled trajectories, so the reported values are exact at desk scale.
Walks over time accumulate that matrix one
:func:`~mclab.chain_core.renormalized_step` at a time through
:func:`~mclab.chain_core.walk`, which raises when a step drifts by more
than ``DRIFT_ATOL``; first passages instead multiply a stack of walks,
by four consecutive kernels at a time where they are all tridiagonal,
renormalize it once per stride and measure it once per window of strides,
which it multiplies once, under the rounding bound stated in
:func:`first_passage`. Every product
step, in a walk, a stack or :func:`product`, is one
:func:`~mclab.chain_core.kernel_matmul`, which
multiplies by a banded kernel in column blocks. :func:`product` is the
literal fold the walk is checked against. The worst-pair total
variation and the Dobrushin coefficient share one kernel,
:func:`~mclab.chain_core.tv_between_rows`, which caps the distance at its
ceiling of 1: a trajectory or ``tv_final`` value that rounding would put
at ``1.0000000000000002`` reads ``1.0``. Halving an L1 difference is exact,
so values below 1, and every merging time, are those of the uncapped
all-pairs scan bit for bit. The Doeblin and block
certificates are computed once per distinct kernel window and reused
wherever the window recurs. The extremal-pair reduction
applies throughout: the worst pair of Dirac starting points realizes the
supremum over all pairs of starting distributions, both for total
variation and for the relative-sup statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .chain_core import (
    DRIFT_ATOL,
    UNIT_ROUNDOFF,
    KernelSequence,
    contraction_coefficient,
    dump_json,
    forward_matmul,
    matmul_band,
    number,
    product,
    tv_between_rows,
    walk,
    walk_from_start,
    write_csv,
)

_PASSAGE_STRIDE = 16    # first_passage renormalizes and evaluates its metric every this many steps
_PASSAGE_TINY = 1e-290  # relsup entries below this void the relative rounding bound
_DIVERGENCE_THRESHOLD = 50.0  # an epsilon sum above this stands in for an infinite one
_BATCH_BYTES = 1 << 20  # kernels, stacks and window arrays of one first_passages batch
_PASSAGE_BLOCK = 4      # strides in a first_passages window, walked once and measured at its end


def relsup_between_rows(matrix: np.ndarray) -> float:
    """Relative-sup statistic ``max_y (max_x M(x,y)) / (min_x M(x,y)) - 1``.

    A column that is identically zero contributes 0 (the state is reached
    from nowhere); a column with both zero and positive entries yields
    ``+inf``.
    """
    mx = matrix.max(axis=0)
    mn = matrix.min(axis=0)
    if bool(((mn == 0) & (mx > 0)).any()):
        return math.inf
    live = mx > 0
    if not live.any():
        return 0.0
    return float((mx[live] / mn[live]).max() - 1.0)


def pairwise_distances(seq: KernelSequence, n: int) -> tuple[float, float]:
    """Exact ``(tv, relsup)`` distance over Dirac starting pairs at time n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = product(seq, 0, n, "forward").entries
    return tv_between_rows(p), relsup_between_rows(p)


def first_passage(seq: KernelSequence, epsilon: float, metric: str,
                  n_max: int) -> tuple[int | None, float, float]:
    """First ``n`` with pairwise distance <= epsilon, walking incrementally.

    Stops as soon as the chosen metric reaches the threshold; returns
    ``(time or None, tv, relsup)`` evaluated at the stopping step (``n_max``
    when the threshold is not reached). Cheaper than :func:`merging_time`
    when only the passage time is needed. This is :func:`first_passages`
    of the one sequence.

    **Contract.** The time is the one the stepwise walk gives:
    :func:`~mclab.chain_core.walk` with the metric evaluated at every step.
    ``tv`` and ``relsup`` lie within ``δ = _passage_bound(stop, N)`` of that
    walk's values at the stopping step (absolute for TV, relative to
    ``1 + value`` for relative-sup), and equal them bit for bit when the
    sequence took the stepwise route below. A walk whose step drifts by
    more than ``DRIFT_ATOL`` before its hit raises the walk's error for
    that step.

    **Walk.** Between checkpoints (every ``_PASSAGE_STRIDE`` steps and
    ``n_max``) the matrix is only multiplied, by one
    :func:`~mclab.chain_core.kernel_matmul` a factor; at a checkpoint
    each row is divided by its sum. When every kernel is tridiagonal (as
    every birth-death kernel is), a factor is the product
    ``K_a K_b K_c K_d`` of four consecutive kernels, with band 4, and a
    stride of a length not a multiple of four ends with the product of its
    last one to three kernels; otherwise a factor is one kernel. Each
    window of ``_PASSAGE_BLOCK`` strides, aligned to multiples of 64 steps,
    is walked once and its checkpoints kept. Below, ``ε ± kδ`` means
    ``ε ± kδ·(1 + ε)`` for relative-sup. A checkpoint passes the screen
    when every kernel since the previous checkpoint (since the window's
    start, at a window's end) passed the drift screen (below), it holds no
    positive entry below ``_PASSAGE_TINY`` in a relative-sup walk, and its
    value (for TV, half the largest L1 distance from row 0 to another row,
    a lower bound on it) lies above ``ε + 2δ``, which rules out every step
    since the previous measured checkpoint. The walk goes on from a
    window's end before ``n_max`` that passes. Otherwise, and in the
    window holding ``n_max``, the kept checkpoints are screened in order.
    A failed drift or tiny-entry test sends the sequence on the stepwise
    route from its stride's first step: it is walked again from the
    identity and measured at every step from there, to its hit or
    ``n_max``. A full value above ``ε + 2δ`` rules out the stride. Else the
    stride is walked again from the previous checkpoint and measured step
    by step: a value below ``ε - δ`` is a hit and one above ``ε + δ`` is
    not, as the stepwise walk's value lies within ``δ`` of it; one within
    ``δ`` of ``ε`` takes the stepwise route from its step.
    :meth:`_StackWalk.rewalk` makes both walks.

    **Rounding bound.** With ``u = 2^-53`` and ``γ_N = N·u / (1 - N·u)``, a
    product of non-negative matrices is exact up to a factor ``1 ± γ_N`` on
    each entry (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §3.1), and a division up to ``1 ± u``. A product by a kernel of
    bandwidth ``w``, one ``np.matmul`` or formed in column blocks, sums at
    most ``2w + 1`` nonzero terms an entry, so its factor is
    ``1 ± γ_{2w+1}``, within ``1 ± γ_N``: nothing below depends on how the
    product is formed. A factor ``1 ± e`` on each entry moves a row by at
    most ``log((1 + e)/(1 - e))`` in Hilbert's projective
    metric, and so does replacing a kernel whose exact row sums lie within
    ``e`` of 1 by its exactly stochastic rescaling. A non-negative kernel
    never expands that metric (Birkhoff), so the moves add up linearly:
    every walk used here, with or without a division after a step, keeps
    each row of its step-``t`` matrix within ``t·λ`` of the exact product
    of the rescaled kernels, ``λ = -log(1 - 8(N + 1)·u)`` for kernels whose
    row sums lie within ``(3N + 2)·u`` of 1, which the screen guarantees.
    A factor of four kernels counts as four steps. Each entry of a formed
    pair ``K_a K_b`` sums at most ``min(3, N)`` non-negative products, so
    it lies within ``1 ± γ_{min(3, N)}`` of the exact pair's entry. Each
    entry of the formed ``K_a K_b K_c K_d`` sums at most ``min(5, N)``
    nonzero products of two formed pairs' entries: it lies within
    ``(1 ± γ_{min(3, N)})²`` of the same sum over the exact pairs'
    entries, as every term is non-negative, and its own rounding adds
    ``1 ± γ_{min(5, N)}``. As ``P`` is non-negative, each entry of the
    exact product of ``P`` by the formed factor lies within the same
    three factors of ``P K_a K_b K_c K_d``, and each entry of the computed
    product sums at most ``min(9, N)`` nonzero terms, within
    ``1 ± γ_{min(9, N)}``. No sum has more than ``N`` nonzero terms, so
    each of these four factors is within ``1 ± γ_N`` at every ``N``,
    ``N ≤ 4`` included, and together they are within the
    ``(1 ± γ_N)^4`` allowed to four single steps; rescaling the factor's
    four kernels moves a row as much as it does for four single steps. A
    factor of ``k < 4`` kernels, which ends a stride, carries ``k`` such
    factors (the identity it is padded with adds no rounding). So
    ``δ(t, N)`` below holds unchanged.
    A measured row sums to ``1 ± γ_{N+1}``, which costs one more ``λ``, so
    its entries lie within a factor ``exp((t + 1)λ)`` of the exact ones.
    TV then moves by at most ``expm1((t + 1)λ)`` plus the ``γ_N`` of its
    sum, and ``1 + relsup``, a ratio of two entries, by a factor
    ``exp(2(t + 1)λ)`` and the two roundings of its quotient. Two walks
    therefore differ by at most ``δ(t, N) = expm1(4(t + 2)λ)``, about
    ``32(t + 2)(N + 1)·u``: 1.4e-11 at N = 9 and t = 400, 2.3e-8 at N = 65
    and t = 1e5. The exact statistics are non-increasing under right
    multiplication by a stochastic kernel (TV by Dobrushin's contraction,
    relative-sup by the mediant inequality), so a checkpoint above
    ``ε + δ`` already puts every stepwise value since the previous measured
    checkpoint above ``ε``, however many strides lie between them; the
    band ``ε + 2δ`` doubles that margin. Measuring fewer checkpoints
    changes no product: a window is multiplied and renormalized once,
    whichever of its checkpoints are measured.

    **Drift screen.** Each kernel is screened once per batch: its computed
    row sums must lie within ``min(2(N + 1)·u, DRIFT_ATOL - 4(N + 1)·u)``
    of 1. Its exact row sums then lie within ``(3N + 2)·u`` of 1, as the
    bound needs, and a stepwise step by it cannot drift past
    ``DRIFT_ATOL``: the computed drift is at most the kernel's own plus
    ``γ_{3N}`` from the product, the sums and the previous division. Every
    kernel built through the probability rule passes up to 1500 states.

    The bound assumes entries in the normal floating-point range. Below
    it, a product or a quotient errs by an absolute amount under
    ``2^-1074`` instead of a relative one, and a sum of subnormals is
    exact. Such errors are carried forward by later steps, non-negative
    kernels and divisions by row sums within a factor ``exp(tλ)`` of 1,
    which do not grow a row's L1 norm beyond that factor; so at step ``t``
    each row carries less than ``2t(N + 1)²·2^-1074`` of them in all,
    about ``2e-311`` at N = 1500 and t = 1e6. TV moves by no more, far
    below ``δ``. An entry at or above ``_PASSAGE_TINY`` at a measured
    checkpoint therefore carries a relative error below ``1e-20`` from
    underflow, inside the ``4λ`` that ``δ`` keeps beyond the terms above,
    wherever in the walk the underflow happened, at a measured checkpoint
    or not. Relative-sup divides by entries, so a slice whose measured
    checkpoint holds a positive entry below ``_PASSAGE_TINY`` takes the
    stepwise route; tiny entries at a checkpoint that is not measured
    void nothing.

    An ``epsilon`` at or below about 1e-12 measures rounding, not merging:
    the computed TV stops falling at a floor set by the rounding of each
    step. On the cyclic 17-state mirrored pair it reads 1.2e-15 at
    n = 3000, where the decay from n = 1000 to 2000 would put it near 5e-20.
    """
    return first_passages([seq], epsilon, metric, n_max)[0]


def first_passages(seqs, epsilon: float, metric: str,
                   n_max: int) -> list[tuple[int | None, float, float]]:
    """:func:`first_passage` of each sequence, walked together as a stack.

    ``seqs`` is read lazily into batches of consecutive sequences of one
    state count, taken while their :func:`_passage_bytes` fit in
    ``_BATCH_BYTES`` (at least one), and walked as soon as not even a
    one-kernel sequence would fit. A batch's tridiagonal sequences walk
    as one ``(R, N, N)`` stack, which pays the per-step call overhead once,
    and every other sequence alone. A stacked step, renormalization or
    relative-sup measure gives each slice the bits it has alone, so each
    result equals its :func:`first_passage` bit for bit, and the error
    raised is the first failing sequence's; when reading ``seqs`` fails,
    the batch read so far is walked first. A NaN or negative ``epsilon``,
    or an ``n_max`` that is not a whole number ``>= 0``, raises
    ``ValueError`` before anything is read or walked.
    """
    if metric not in ("tv", "relsup"):
        raise ValueError(f"unknown metric {metric!r}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be a number >= 0, got {epsilon}")
    n_max = number(n_max, "n_max", integer=True)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    results = []
    batch: list[KernelSequence] = []
    used = 0

    def walk_batch():
        nonlocal batch, used
        walking, batch, used = batch, [], 0  # emptied first: a walk's own error is not walked again
        if walking:
            results.extend(_passage_batch(walking, epsilon, metric, n_max))

    try:
        for seq in seqs:
            n = seq.space.size
            cost = _passage_bytes(seq)
            if batch and (used + cost > _BATCH_BYTES or n != batch[0].space.size):
                walk_batch()
            batch.append(seq)
            used += cost
            del seq  # held by the batch alone, and dropped with it
            # the least a one-kernel sequence adds (_passage_bytes)
            if used + 8 * n * ((_PASSAGE_BLOCK + 4) * n + 8) > _BATCH_BYTES:
                walk_batch()
    except Exception:
        walk_batch()  # reading failed; the sequences read before it come first
        raise
    walk_batch()
    return results


def _passage_bytes(seq: KernelSequence) -> int:
    """Bytes one sequence adds to a :func:`first_passages` batch.

    Its kernels and its slice of the ``_PASSAGE_BLOCK + 3`` stacks a walk
    allocates (a window's start, its checkpoints, a spare, and a factor
    padded to ``N × (N + 8)``). A tridiagonal sequence also adds its
    kernels' three diagonals and the 28 numbers a row that
    :func:`_quad_factors` forms for each of a window's 16 factors. Arrays
    of ``O(N)`` numbers, and the copy of the slices a checkpoint judges,
    are not counted.
    """
    n, m = seq.space.size, len(seq.kernels)
    quads = n * (3 * m + 28 * _PASSAGE_BLOCK * _PASSAGE_STRIDE // 4) if _tridiagonal(seq) else 0
    return 8 * (n * (n * (m + _PASSAGE_BLOCK + 3) + 8) + quads)


def _tridiagonal(seq: KernelSequence) -> bool:
    """Whether every kernel of ``seq`` has bandwidth at most 1: its stack steps by four kernels."""
    return all(k.bandwidth <= 1 for k in seq.kernels)


def _passage_bound(t: int, n: int) -> float:
    """``δ(t, N)``: how far two first-passage walks of ``N`` states may differ at step ``t``.

    Absolute for TV, relative to ``1 + value`` for relative-sup; derived in
    :func:`first_passage`.
    """
    return math.expm1(-4 * (t + 2) * math.log1p(-8 * (n + 1) * UNIT_ROUNDOFF))


def _passage_batch(seqs: list[KernelSequence], epsilon: float, metric: str,
                   n_max: int) -> list[tuple[int | None, float, float]]:
    """:func:`first_passages` of one batch: its tridiagonal sequences as one stack, any other alone.

    The identity at time 0 is measured once for the batch; each stack is
    walked by :class:`_StackWalk`.
    """
    measure = tv_between_rows if metric == "tv" else relsup_between_rows
    n = seqs[0].space.size
    eye = np.eye(n)
    value = measure(eye)
    if value <= epsilon or n_max <= 0:
        return [_passage_result(metric, 0 if value <= epsilon else None, eye, value)] * len(seqs)
    walker = _StackWalk(seqs, epsilon, metric, n_max)
    tridiagonal = [_tridiagonal(seq) for seq in seqs]
    quads = [r for r, t in enumerate(tridiagonal) if t]
    for live in [quads] * bool(quads) + [[r] for r, t in enumerate(tridiagonal) if not t]:
        walker.walk(live)
    if walker.errors:
        raise walker.errors[min(walker.errors)]
    return walker.results


def _passage_result(metric: str, hit, matrix: np.ndarray, value: float):
    """``(hit, tv, relsup)`` at a stopping step whose ``metric`` reads ``value``."""
    if metric == "tv":
        return hit, value, relsup_between_rows(matrix)
    return hit, tv_between_rows(matrix), value


def _tv_pivot(p: np.ndarray) -> np.ndarray:
    """Half the largest L1 distance from row 0 to another row, capped at 1, per slice of ``p``.

    A lower bound on each slice's worst-pair TV, in one ``O(N²)`` pass. A
    TV value that is reported, or compared with ``epsilon`` to decide a
    hit, is the full :func:`~mclab.chain_core.tv_between_rows`.
    """
    return np.minimum(0.5 * np.add.reduce(np.abs(p[:, :1] - p[:, 1:]), axis=-1).max(axis=-1), 1.0)


class _StackWalk:
    """The stacks of one :func:`_passage_batch`, walked as :func:`first_passage` says.

    Holds what the batch's stacks share: every kernel's drift screen (a
    sequence's kernels from ``offsets[r]`` on), the results and the errors.
    """

    def __init__(self, seqs, epsilon, metric, n_max):
        self.seqs, self.epsilon, self.metric, self.n_max = seqs, epsilon, metric, n_max
        self.measure = tv_between_rows if metric == "tv" else relsup_between_rows
        self.scale = 1.0 if metric == "tv" else 1.0 + epsilon  # δ is relative to 1 + value for relsup
        n = self.n = seqs[0].space.size
        limit = min(2 * (n + 1) * UNIT_ROUNDOFF, DRIFT_ATOL - 4 * (n + 1) * UNIT_ROUNDOFF)
        self.screened = np.array([np.abs(np.add.reduce(k.entries, axis=1) - 1.0).max()
                                  for seq in seqs for k in seq.kernels]) <= limit
        self.offsets = np.cumsum([0] + [len(seq.kernels) for seq in seqs[:-1]])
        self.results: list = [None] * len(seqs)
        self.errors: dict[int, ArithmeticError] = {}

    def walk(self, live: list[int]) -> None:
        """Walk the sequences ``live`` as one stack: four kernels a factor if tridiagonal, else one."""
        n, seq = self.n, self.seqs[live[0]]
        self.quads = _tridiagonal(seq)
        if self.quads:
            self.multiply, self.factors = forward_matmul(n, 4), _quad_factors(self.seqs, live, n)
        else:
            self.multiply = forward_matmul(n, max(map(matmul_band, seq.kernels)))
            self.factors = _kernel_factors(seq)
        # the rows at the window start, one slot for each checkpoint of a
        # window, and a spare the products alternate with
        stacks = [np.repeat(np.eye(n)[None], len(live), axis=0)]
        stacks += [np.empty_like(stacks[0]) for _ in range(_PASSAGE_BLOCK + 1)]
        start = 0
        while live:
            end = min(start + _PASSAGE_BLOCK * _PASSAGE_STRIDE, self.n_max)
            live = self.window(live, stacks, start, end)
            start = end

    def band(self, t: int) -> float:
        """``ε + 2δ(t)``: a value above it rules out every step since the last measured checkpoint."""
        return self.epsilon + 2.0 * _passage_bound(t, self.n) * self.scale

    def screen(self, p: np.ndarray, passed: np.ndarray, t: int):
        """The screen of :func:`first_passage` on the stack ``p`` at step ``t``.

        ``passed`` holds each slice's drift screen. Returns, per slice,
        whether it takes the stepwise route, whether its value (for TV,
        :func:`_tv_pivot`) lies above the band, and the relative-sup values.
        """
        if self.metric == "relsup":
            values, tiny = _relsup_stack(p)
            return ~passed | tiny, values > self.band(t), values.tolist()
        return ~passed, _tv_pivot(p) > self.band(t), None

    def window(self, live: list[int], stacks: list, start: int, end: int) -> list[int]:
        """Walk a window ``(start, end]`` once and return the slices that walk on.

        The rows at ``start`` are the first of ``stacks[0]``. The stride
        ending at the window's ``k``-th checkpoint multiplies from
        ``stacks[k - 1]``, alternating with the spare ``stacks[-1]``, into
        ``stacks[k]``. The slices failing the screen at an ``end`` before
        ``n_max``, and all at ``n_max``, go to :meth:`judge`. On return the
        rows of the slices that walk on lead ``stacks[0]``, in order.
        """
        width = len(live)
        marks = [*range(start, end, _PASSAGE_STRIDE), end]  # the start, then each checkpoint
        indices = [self.seqs[r].indices(start + 1, end + 1) for r in live]
        passed = self.screened[np.add(indices, self.offsets[live][:, None])]
        steps = self.factors(live, indices)
        for k in range(1, len(marks)):  # a stride
            length = marks[k] - marks[k - 1]
            count = (length + 3) // 4 if self.quads else length
            p = stacks[k - 1][:width]
            for j, factor in enumerate(islice(steps, count)):
                p = self.multiply(p, factor, out=stacks[k if (count - j) % 2 else -1][:width])
            np.divide(p, np.add.reduce(p, axis=-1)[..., None], out=p)
        if end == self.n_max:
            judged = list(range(width))
        else:
            stepwise, walks_on, _ = self.screen(p, passed.all(axis=1), end)
            judged = np.flatnonzero(stepwise | ~walks_on).tolist()
        finished = self.judge(live, judged, stacks, marks, passed)
        # the rows at end become the window start
        stacks[0], stacks[k] = stacks[k], stacks[0]
        bound = min(self.errors, default=len(self.seqs))
        keep = [s for s in range(width) if s not in finished and live[s] < bound]
        if len(keep) < width:
            stacks[0][:len(keep)] = stacks[0][keep]
        return [live[s] for s in keep]

    def judge(self, live, judged, stacks, marks, passed) -> set[int]:
        """Screen the slices ``judged`` at the window's checkpoints in order; return those that finish.

        ``passed`` holds each slice's drift screens by step of the window.
        The error of a slice that fails is kept in :attr:`errors`.
        """
        n_max, epsilon, metric = self.n_max, self.epsilon, self.metric
        finished: set[int] = set()
        for k in range(1, len(marks)):
            first, stop = marks[k - 1], marks[k]
            bound = min(self.errors, default=len(self.seqs))
            judged = [s for s in judged if s not in finished and live[s] < bound]
            if not judged:
                break
            p = stacks[k][judged]
            ok = passed[judged, first - marks[0]:stop - marks[0]].all(axis=1)
            stepwise, walks_on, values = self.screen(p, ok, stop)
            walks_on &= stop < n_max  # every slice finishes at n_max
            for i in np.flatnonzero(stepwise | ~walks_on).tolist():
                s = judged[i]
                seq = self.seqs[live[s]]
                try:
                    if stepwise[i]:
                        step = self.rewalk(seq, 0, None, first + 1, n_max)
                    else:
                        value = self.measure(p[i]) if values is None else values[i]
                        step = (stop, p[i], value) if value > self.band(stop) else \
                            self.rewalk(seq, first, stacks[k - 1][s], first + 1, stop)
                except ArithmeticError as exc:
                    self.errors[live[s]] = exc
                    finished.add(s)
                    continue
                if step[2] <= epsilon or step[0] == n_max:
                    t, matrix, value = step
                    self.results[live[s]] = _passage_result(metric, t if value <= epsilon else None,
                                                            matrix, value)
                    finished.add(s)
        return finished

    def rewalk(self, seq: KernelSequence, start: int, matrix, first: int, stop: int):
        """``(i, P_i, value)`` at the first ``first <= i <= stop`` with value <= ε, else at ``stop``.

        Walks ``seq`` again by :func:`~mclab.chain_core.walk` from
        ``matrix``, its product at step ``start``, and measures no step
        before ``first``. From a product, a value within ``δ(i, N)`` of ε
        does not tell whether the stepwise walk hits at ``i``, so the
        result is then the stepwise route's: the walk from the identity
        (``matrix`` None) at step 0, measured from ``i`` to ``n_max``.
        """
        for i, p, _ in walk(seq, range(start + 1, stop + 1), start=matrix):
            if i >= first:
                value = self.measure(p)
                if matrix is not None and \
                        abs(value - self.epsilon) <= _passage_bound(i, self.n) * self.scale:
                    return self.rewalk(seq, 0, None, i, self.n_max)
                if value <= self.epsilon:
                    break
        return i, p, value


def _relsup_stack(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`relsup_between_rows` of each slice of an ``(R, N, N)`` stack, in one pass.

    Returns the values, with the bits of :func:`relsup_between_rows` (max
    and min are exact, the quotients and the subtraction rounded alike),
    and whether each slice holds a positive entry below ``_PASSAGE_TINY``.
    An all-zero column counts as a quotient of 1, which adds nothing; a
    column with zero and positive entries reads ``+inf``. Without a zero
    in the stack, the column minima alone tell whether an entry is tiny.
    """
    hi = np.maximum.reduce(p, axis=1)
    lo = np.minimum.reduce(p, axis=1)
    ratio = np.ones_like(hi)
    with np.errstate(divide="ignore"):
        np.divide(hi, lo, out=ratio, where=hi > 0)
    values = np.maximum.reduce(ratio, axis=1) - 1.0
    if np.minimum.reduce(lo, axis=None) > 0:
        return values, np.minimum.reduce(lo, axis=1) < _PASSAGE_TINY
    return values, ((p > 0) & (p < _PASSAGE_TINY)).any(axis=(1, 2))


def _kernel_factors(seq: KernelSequence):
    """The factors of a sequence walked alone a kernel a step: ``(1, N, N)`` views of its kernels.

    Returns ``factors(live, indices)``, as :func:`_quad_factors` does.
    """
    kernels = [k.entries[None] for k in seq.kernels]
    return lambda live, indices: (kernels[k] for k in indices[0].tolist())


def _quad_factors(seqs: list[KernelSequence], members: list[int], n: int):
    """The factors of a window's steps for tridiagonal sequences: four kernels a step.

    Returns ``factors(live, indices)``, a generator of the window's
    factors for the sequences ``live`` (a subset of ``members``, in
    order), each a stack of one factor a slice; ``indices[s]`` holds the
    kernel positions of slice ``s``. A factor is the product
    ``K_a K_b K_c K_d`` of four consecutive kernels of a slice; a window
    of a length not a multiple of four ends with its last one to three
    kernels and the identity. :func:`_band_product` forms the five
    diagonals of every first and second pair of the window, then the
    factors' nine, with the rounding bounded in :func:`first_passage`.
    Each factor is written over the nine diagonals of one ``(R, N, N)``
    buffer whose rows carry four columns of zero padding on each side, so
    the band is one strided view: row ``i`` of diagonal ``c − 4`` lies
    ``i(N + 9) + c`` elements into a slice.
    """
    first = np.zeros(len(seqs), dtype=np.intp)  # each member's first row of table
    count = 0
    for r in members:
        first[r], count = count, count + len(seqs[r].kernels)
    # table[s, j, i] = K_j(i, i + s − 1), zero outside the matrix; the last K_j is I
    table = np.zeros((3, count + 1, n))
    kernels = (k.entries for r in members for k in seqs[r].kernels)
    for j, k in enumerate(kernels):
        table[0, j, 1:] = k.diagonal(-1)
        table[1, j] = k.diagonal()
        table[2, j, :-1] = k.diagonal(1)
    table[1, count] = 1.0
    padded = np.zeros((len(members), n, n + 8))
    dense = padded[:, :, 4:n + 4]
    item = padded.itemsize
    band = np.lib.stride_tricks.as_strided(padded, (len(members), 9, n),
                                           (padded.strides[0], item, (n + 9) * item), writeable=True)
    size = n * (_PASSAGE_BLOCK * _PASSAGE_STRIDE // 4) * len(members)  # a row of every factor and slice
    # the first and the second kernels of a half of the pairs (3 diagonals,
    # then 3 between two zero diagonals on each side), then the factors' nine
    work = np.empty(10 * size)
    # the first pairs, four zero diagonals, the second pairs, four zero diagonals
    pairs = np.zeros((18, size))

    def factors(live, indices):
        width = len(live)
        rows = np.add(indices, first[live][:, None])
        if rows.shape[1] % 4:
            rows = np.concatenate((rows, np.full((width, -rows.shape[1] % 4), count)), axis=1)
        # the table row of kernel k of pair q of each of h factors, for each slice: (k, q, h, R)
        rows = rows.reshape(width, -1, 2, 2).transpose(3, 2, 1, 0)
        h = rows.shape[2]
        positions = h * width * n
        a = work[:3 * positions].reshape(3, positions)
        b = work[3 * positions:10 * positions].reshape(7, positions)
        b[:2] = b[5:] = 0.0  # the factors of the previous window overlap them
        for q in range(2):  # mode="clip" takes into out unbuffered; every row is in range
            np.take(table, rows[0, q], axis=1, mode="clip", out=a.reshape(3, h, width, n))
            np.take(table, rows[1, q], axis=1, mode="clip", out=b[2:5].reshape(3, h, width, n))
            _band_product(a, b, pairs[9 * q:9 * q + 5, :positions])
        formed = work[:9 * positions].reshape(9, positions)
        _band_product(pairs[:5, :positions], pairs[5:], formed)
        target, factor = band[:width], dense[:width]
        for diagonals in formed.reshape(9, h, width, n).transpose(1, 2, 0, 3):
            np.copyto(target, diagonals)
            yield factor
    return factors


def _band_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the diagonals of ``A B``, for banded ``A`` and ``B`` given by theirs.

    ``a`` is a ``(2h + 1, F)`` array of positions laid out as the table of
    :func:`_quad_factors`: the rows of each matrix lie at consecutive
    positions, and at the position ``f`` of row ``i``,
    ``a[s, f] = A(i, i + s − h)``, zero where that column falls outside the
    matrix. ``b`` holds the ``w`` diagonals of ``B`` on the same positions,
    between ``2h`` zero diagonals on each side, as one C-contiguous array
    whose rows are at least ``F`` long; ``out`` receives the ``2h + w``
    diagonals of ``A B``. Term ``s`` of row ``i`` adds each diagonal ``c``
    of ``B``, ``s − h`` positions away, to diagonal ``s + c`` of the
    product, through one strided view of ``b``. So each entry sums
    ``2h + 1`` non-negative products, at most ``min(2h + 1, N)`` of them
    nonzero: a term reading past the matrix multiplies a finite number by
    an exact zero.
    """
    span, h, rows = len(a), len(a) // 2, b.strides[0]
    # skewed[s, e, f] = b[e − s + 2h, f + s − h], built from the s = 2h end
    skewed = np.ndarray((span, len(out), a.shape[1]), b.dtype, b, offset=h * b.itemsize,
                        strides=(rows - b.itemsize, rows, b.itemsize))[::-1]
    np.einsum("sf,sef->ef", a, skewed, out=out)


@dataclass(frozen=True)
class MergingReport:
    """Distance trajectories and first passage under a threshold.

    ``tv_time``/``relsup_time`` are the smallest ``n <= horizon`` at which
    the respective trajectory falls to ``epsilon`` or below, or ``None``
    when the threshold is not reached within the horizon. The certificate
    trajectories from the Doeblin and block-contraction bounds ride along
    for serialization.
    """

    horizon: int
    epsilon: float
    tv_trajectory: np.ndarray
    relsup_trajectory: np.ndarray
    tv_time: int | None
    relsup_time: int | None
    doeblin_trajectory: np.ndarray
    block_trajectory: np.ndarray
    renorm_drift: float = 0.0

    def time(self, metric: str) -> int | None:
        if metric == "tv":
            return self.tv_time
        if metric == "relsup":
            return self.relsup_time
        raise ValueError(f"unknown metric {metric!r}")

    def to_csv(self, path) -> None:
        write_csv(path, ["n", "tv", "relsup", "doeblin_bound", "block_bound"],
                  zip(range(self.horizon + 1), self.tv_trajectory.tolist(),
                      self.relsup_trajectory.tolist(), self.doeblin_trajectory.tolist(),
                      self.block_trajectory.tolist()))

    def to_json(self, path=None):
        """The report as a JSON object; with ``path``, also written there by ``dump_json``."""
        obj = {
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "tv_time": self.tv_time,
            "relsup_time": self.relsup_time,
            "tv": self.tv_trajectory.tolist(),
            "relsup": self.relsup_trajectory.tolist(),
            "doeblin_bound": self.doeblin_trajectory.tolist(),
            "block_bound": self.block_trajectory.tolist(),
            "renorm_drift": self.renorm_drift,
        }
        if path is not None:
            dump_json(obj, path)
        return obj


def merging_time(seq: KernelSequence, epsilon: float, metric: str = "tv",
                 n_max: int = 1000, block: int = 1) -> MergingReport:
    """Trajectories up to ``n_max`` and the first time distance <= epsilon.

    Both distance trajectories are recorded regardless of ``metric``; the
    metric argument only validates the epsilon range (total variation needs
    ``epsilon in (0, 1)``, relative-sup any positive value). ``None`` stands
    for "not reached": the horizon is reported rather than extrapolated.
    """
    if metric not in ("tv", "relsup"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "tv" and not 0 < epsilon < 1:
        raise ValueError("tv epsilon must lie in (0, 1)")
    if metric == "relsup" and not epsilon > 0:
        raise ValueError("relsup epsilon must be positive")
    n_max = number(n_max, "n_max", integer=True)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    block_traj = _block_trajectory(seq, n_max, block)  # validates block before the walk

    tv = np.empty(n_max + 1)
    rs = np.empty(n_max + 1)
    drift = 0.0
    for i, p, step_drift in walk_from_start(seq, n_max):
        drift = max(drift, step_drift)
        tv[i] = tv_between_rows(p)
        rs[i] = relsup_between_rows(p)

    def first_time(traj):
        hits = np.nonzero(traj <= epsilon)[0]
        return int(hits[0]) if hits.size else None

    cert = doeblin_bound(seq, n_max)
    return MergingReport(
        horizon=n_max,
        epsilon=epsilon,
        tv_trajectory=tv,
        relsup_trajectory=rs,
        tv_time=first_time(tv),
        relsup_time=first_time(rs),
        doeblin_trajectory=np.concatenate(([1.0], cert.cumulative_bound)),
        block_trajectory=block_traj,
        renorm_drift=drift,
    )


@dataclass(frozen=True)
class DoeblinCertificate:
    """Per-step common-column mass and the coupling product bound.

    ``epsilons[i-1]`` is ``max_y min_x K_i(x, y)``; the cumulative bound
    ``prod (1 - eps_i)`` dominates the exact total-variation pairwise
    distance. ``diverges`` records whether the partial sum of the epsilons
    exceeded ``divergence_threshold`` (50) over the horizon, the numerical
    stand-in for an infinite sum.
    """

    epsilons: np.ndarray
    cumulative_bound: np.ndarray
    diverges: bool
    divergence_threshold: float


def doeblin_bound(seq: KernelSequence, n: int) -> DoeblinCertificate:
    """Doeblin coupling certificate over the first ``n`` steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = _window_coefficients(seq, n, 1, lambda m, k: seq.kernel_at(k).entries.min(axis=0).max())
    return DoeblinCertificate(
        epsilons=eps,
        cumulative_bound=np.cumprod(1.0 - eps),
        diverges=bool(eps.sum() > _DIVERGENCE_THRESHOLD),
        divergence_threshold=_DIVERGENCE_THRESHOLD,
    )


def _window_coefficients(seq: KernelSequence, n: int, block: int, coefficient) -> np.ndarray:
    """``coefficient(m, m + block)`` for each complete window ``(m, m + block]`` up to ``n``.

    A window's coefficient depends only on its kernel word, the alphabet
    indices ``K_{m+1} ... K_{m+block}``, so it is computed once per distinct
    word and reused wherever that word recurs; values are unchanged.
    """
    memo: dict[tuple[int, ...], float] = {}
    out = np.empty(n // block)
    words = seq.indices(1, out.size * block + 1).reshape(out.size, block).tolist()
    for j, word in enumerate(map(tuple, words)):
        if word not in memo:
            memo[word] = coefficient(j * block, (j + 1) * block)
        out[j] = memo[word]
    return out


def _block_trajectory(seq: KernelSequence, n: int, block: int) -> np.ndarray:
    # traj[i] = product of block coefficients over complete blocks ending
    # at or before i; valid because tv distances are non-increasing.
    if block < 1:
        raise ValueError("block must be >= 1")
    coeffs = _window_coefficients(
        seq, n, block, lambda m, k: contraction_coefficient(product(seq, m, k, "forward")))
    traj = np.ones(n + 1)
    traj[block:] = np.repeat(np.cumprod(coeffs), block)[:n + 1 - block]
    return traj


def block_contraction_bound(seq: KernelSequence, n: int, block: int) -> float:
    """Product of Dobrushin coefficients over complete blocks of length ``block``.

    Valid as an upper bound on the exact pairwise TV distance at the last
    complete block boundary (and beyond, distances being non-increasing).
    """
    return float(_block_trajectory(seq, n, block)[n])


@dataclass(frozen=True)
class UniformConditionsCertificate:
    """Witness for the uniform irreducibility / uniform laziness conditions.

    ``satisfied`` means every support pattern raised to the ``ell`` power is
    entrywise positive and every kernel holds each state with probability at
    least ``eta > 0``; ``epsilon`` is the largest uniform entry lower bound
    on the supports.
    """

    ell: int | None
    epsilon: float
    eta: float
    adjacency_witnesses: tuple[np.ndarray, ...]
    satisfied: bool


def uniform_conditions_certificate(kernels, ell_max: int) -> UniformConditionsCertificate:
    """Search powers of each kernel's own support pattern up to ``ell_max``."""
    kernels = list(kernels)
    if not kernels:
        raise ValueError("kernel set must be non-empty")
    supports = [k.entries > 0 for k in kernels]
    eta = min(float(k.entries.diagonal().min()) for k in kernels)
    epsilon = min(float(k.entries[s].min()) for k, s in zip(kernels, supports))
    ell = None
    powers = [s.copy() for s in supports]
    for step in range(1, ell_max + 1):
        if all(p.all() for p in powers):
            ell = step
            break
        powers = [(p.astype(int) @ s.astype(int)) > 0 for p, s in zip(powers, supports)]
    return UniformConditionsCertificate(
        ell=ell,
        epsilon=epsilon,
        eta=eta,
        adjacency_witnesses=tuple(s.astype(int) for s in supports),
        satisfied=ell is not None and eta > 0,
    )


def backward_envelopes(seq: KernelSequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column envelopes of the backward products ``K_k ... K_1``.

    Returns ``(m, M)`` of shape ``(n+1, n_states)``: the columnwise minimum
    and maximum after each step. ``M(., y)`` is non-increasing and
    ``m(., y)`` non-decreasing because left-multiplying by a stochastic
    matrix averages rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = seq.space.size
    lo = np.empty((n + 1, size))
    hi = np.empty((n + 1, size))
    for i, p, _ in walk_from_start(seq, n, "backward"):
        lo[i] = p.min(axis=0)
        hi[i] = p.max(axis=0)
    return lo, hi

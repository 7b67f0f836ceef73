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
    product,
    tv_between_rows,
    walk,
    walk_from_start,
    write_csv,
)

_PASSAGE_STRIDE = 16    # first_passage renormalizes and evaluates its metric every this many steps
_PASSAGE_TINY = 1e-290  # relsup entries below this void the relative rounding bound
_DIVERGENCE_THRESHOLD = 50.0  # an epsilon sum above this stands in for an infinite one
_BATCH_BYTES = 1 << 20  # kernels plus stacks of one first_passages batch
_PASSAGE_BLOCK = 4      # most strides whose kernel positions and factors first_passages forms at once
_BLOCK_BYTES = 1 << 18  # most bytes of the arrays formed for one block of strides


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
    each row is divided by its sum. When every
    kernel of the sequence is tridiagonal (bandwidth at most 1, as every
    birth-death kernel is), a factor is the product ``K_a K_b K_c K_d`` of
    four consecutive kernels, formed from their diagonals in ``O(N)``
    elementwise work, with band 4; a stride whose length is not a multiple
    of four ends with the product of its last one to three kernels.
    Otherwise a factor is one kernel, with
    the largest :func:`~mclab.chain_core.matmul_band` of the sequence's
    kernels as its band. Below, a threshold
    ``ε ± kδ`` means ``ε ± kδ·(1 + ε)`` for relative-sup. The metric is
    measured once per window of ``_PASSAGE_BLOCK · _PASSAGE_STRIDE`` = 64
    steps, the windows aligned to multiples of 64 from step 0, so which
    checkpoints are measured depends on ``n_max`` and the sequence's own
    values alone, not on a stack it walks in. At the end of a
    window before ``n_max`` the walk goes on when every kernel of the
    window passed the drift screen (below), a relative-sup checkpoint
    holds no positive entry below ``_PASSAGE_TINY``, and the value (for
    TV, half the largest L1 distance from row 0 to another row, a lower
    bound on it) lies above ``ε + 2δ``: such a value rules out every step
    since the previous measured checkpoint. Otherwise each checkpoint of
    the window, kept from the one walk through it, is measured in order,
    as those of the window holding ``n_max`` are; if nothing ends the walk
    there, it goes on from the window's end. At a measured
    checkpoint, a value above ``ε + 2δ`` rules out its stride. Otherwise
    :func:`_replay` walks that stride again through ``walk``
    from the previous checkpoint and measures its steps in order: a value
    below ``ε - δ`` is a hit and one above ``ε + δ`` is not, because the
    stepwise walk's value lies within ``δ`` of it. A value within ``δ`` of
    ``ε`` cannot be decided, so the sequence takes the stepwise route:
    :func:`_stepwise` walks it again from step 0 and measures every step
    from that one on, to its hit or ``n_max``. Steps ruled out before are
    not measured again. The stepwise route is also taken from the first
    step of a stride that uses a kernel failing the drift screen, and of
    the stride whose measured checkpoint first holds a positive entry
    below ``_PASSAGE_TINY`` in a relative-sup walk.

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

    The sequences are walked in batches of consecutive sequences with one
    state count and one band (the largest
    :func:`~mclab.chain_core.matmul_band` of a sequence's kernels). In a
    batch, the sequences whose kernels are all tridiagonal walk as one
    ``(R, N, N)`` stack, advanced one :func:`~mclab.chain_core.kernel_matmul`
    by the product of four kernels at a time, and the others as another,
    advanced a kernel at a time; each stack is renormalized once per
    stride, so the per-step call overhead is paid once for the stack
    rather than once per sequence. A stack walks each window of
    ``_PASSAGE_BLOCK · _PASSAGE_STRIDE`` steps once, keeps its rows at
    every checkpoint of the window, and is measured at the window's end;
    only the slices that fail there are judged stride by stride, from the
    rows it kept. A
    stack draws its kernel positions, and forms the factors it steps by,
    once per block of strides (:func:`_block_strides`) inside a window,
    not once per stride. A relative-sup checkpoint measures the whole
    stack in one pass (:func:`_relsup_stack`). The stacks a window needs,
    the rows at its start, one for each of its checkpoints and a spare,
    are allocated once per stack. A batch takes
    sequences while their kernels and stacks (:func:`_passage_bytes` each)
    fit in ``_BATCH_BYTES``, and always at least one. Every slice of a
    stacked step, and of its renormalization, has the bits of the same step
    walked alone, the one-pass measure has the bits of
    :func:`relsup_between_rows` on each slice, and each sequence is
    screened, measured and judged exactly as :func:`first_passage` does it
    (the identity at time 0 is measured once per batch), so each result
    equals its :func:`first_passage` bit for bit. A sequence leaves the
    stack at the end of the window it finishes in. ``seqs`` is read
    lazily, and a batch is walked and dropped as soon as not even a
    one-kernel sequence of its state count would fit, so a sequence waits
    outside a stack only when it has another state count or band, or the
    stack had room for a one-kernel sequence but not for it. When walks
    fail, the error raised is the one of the first failing sequence, the
    one a loop over :func:`first_passage` raises; when reading ``seqs``
    fails, the batch read so far is walked first. A NaN or negative
    ``epsilon``, or a negative ``n_max``, raises ``ValueError`` before
    anything is read or walked.
    """
    if metric not in ("tv", "relsup"):
        raise ValueError(f"unknown metric {metric!r}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be a number >= 0, got {epsilon}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    results = []
    batch: list[KernelSequence] = []
    batch_key = None  # (state count, band) of the sequences in batch
    used = 0

    def walk_batch():
        nonlocal batch, used
        walking, batch, used = batch, [], 0  # emptied first: a walk's own error is not walked again
        results.extend(_passage_batch(walking, epsilon, metric, n_max))

    try:
        for seq in seqs:
            n = seq.space.size
            cost = _passage_bytes(seq)
            key = (n, _stack_band(seq))
            if batch and (used + cost > _BATCH_BYTES or key != batch_key):
                walk_batch()
            batch.append(seq)
            batch_key = key
            used += cost
            del seq  # held by the batch alone, and dropped with it
            # the least a one-kernel sequence adds (_passage_bytes)
            if used + 8 * n * ((_PASSAGE_BLOCK + 4) * n + 8) > _BATCH_BYTES:
                walk_batch()
    except Exception:
        if batch:  # reading failed; the sequences read before it come first
            walk_batch()
        raise
    if batch:
        walk_batch()
    return results


def _passage_bytes(seq: KernelSequence) -> int:
    """Bytes one sequence adds to a :func:`first_passages` batch.

    Its kernels, which the batch reads where the sequence holds them, plus
    its slice of the ``_PASSAGE_BLOCK + 3`` stacks a batch allocates once:
    the rows at a window's start, the rows at each of the window's
    checkpoints, a spare the products alternate with, and the factor of a
    step, which is either the concatenated kernels or the product of four
    kernels with its eight columns of padding (``N × (N + 8)``). A
    sequence that steps by four kernels also adds its kernels' three
    diagonals of ``N`` each. Not counted: the arrays formed for a block of
    strides, which :func:`_block_strides` keeps within ``_BLOCK_BYTES``
    for the whole stack; the ``O(N)`` numbers a kernel or a step that the
    drift screen, a window's kernel positions, a checkpoint's row sums and
    the relative-sup column extremes take; and the copy of a checkpoint's
    judged slices that :meth:`_StackWalk.judge` measures.
    """
    n, m = seq.space.size, len(seq.kernels)
    diagonals = 3 * n * m if _tridiagonal(seq) else 0
    return 8 * (n * (n * (m + _PASSAGE_BLOCK + 3) + 8) + diagonals)


def _stack_band(seq: KernelSequence) -> int:
    """The band of a stacked product by ``seq``'s kernels: their largest ``matmul_band``."""
    return max(map(matmul_band, seq.kernels))


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
    """:func:`first_passages` of one batch, walked as one stack per step kind.

    The sequences whose kernels are all tridiagonal form one stack that
    steps four kernels at a time (:func:`_quad_factors`); the others
    form one that steps a kernel at a time (:func:`_kernel_factors`). A
    stack only multiplies, by :func:`~mclab.chain_core.kernel_matmul` with
    the band of its factors, and at each checkpoint divides every row by
    its sum in one pass. It is walked once through each window of
    ``_PASSAGE_BLOCK · _PASSAGE_STRIDE`` steps aligned to multiples of
    that length, by :class:`_StackWalk`, which keeps the rows at every
    checkpoint of the window: a window ending before ``n_max`` is measured
    at its end only, and its failing slices are measured at each kept
    checkpoint; the window holding ``n_max`` is measured at each
    checkpoint. The kernel positions, the drift screen of each stride and
    the factors are formed once per block of strides
    (:func:`_block_strides`) inside a window, for every live slice, by the
    factor generators, which take kernel positions of any length. At a
    relative-sup checkpoint, :func:`_relsup_stack` measures
    every slice in one pass, with the bits of :func:`relsup_between_rows`.
    At a TV checkpoint a slice's TV is first bounded from below by
    :func:`_tv_pivot`, one ``O(N²)`` pass: a non-final checkpoint whose
    bound already lies above the band needs no full scan. Any TV value
    that is reported, or compared with ``epsilon`` to decide a hit, is the
    full :func:`~mclab.chain_core.tv_between_rows`.
    """
    measure = tv_between_rows if metric == "tv" else relsup_between_rows
    n = seqs[0].space.size
    eye = np.eye(n)
    value = measure(eye)
    if value <= epsilon or n_max <= 0:
        return [_passage_result(metric, 0 if value <= epsilon else None, eye, value)] * len(seqs)
    walker = _StackWalk(seqs, epsilon, metric, n_max)
    tridiagonal = [_tridiagonal(seq) for seq in seqs]
    for quads in (True, False):
        live = [r for r, t in enumerate(tridiagonal) if t == quads]  # the sequence in each slice
        if live:
            walker.walk(live, quads)
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

    A lower bound on each slice's worst-pair TV, in one ``O(N²)`` pass.
    """
    return np.minimum(0.5 * np.add.reduce(np.abs(p[:, :1] - p[:, 1:]), axis=-1).max(axis=-1), 1.0)


class _StackWalk:
    """The stacks of one :func:`_passage_batch`, walked window by window.

    Holds what the batch's stacks share: every kernel's drift screen (a
    sequence's kernels from ``offsets[r]`` on), the results and the errors
    of the sequences, in batch order.
    """

    def __init__(self, seqs, epsilon, metric, n_max):
        self.seqs, self.epsilon, self.metric, self.n_max = seqs, epsilon, metric, n_max
        self.measure = tv_between_rows if metric == "tv" else relsup_between_rows
        self.scale = 1.0 if metric == "tv" else 1.0 + epsilon  # δ is relative to 1 + value for relsup
        n = self.n = seqs[0].space.size
        limit = min(2 * (n + 1) * UNIT_ROUNDOFF, DRIFT_ATOL - 4 * (n + 1) * UNIT_ROUNDOFF)
        self.screened = np.concatenate([_drift_screen(seq, limit) for seq in seqs])
        self.offsets = np.cumsum([0] + [len(seq.kernels) for seq in seqs[:-1]])
        self.results: list = [None] * len(seqs)
        self.errors: dict[int, ArithmeticError] = {}

    def walk(self, live: list[int], quads: bool) -> None:
        """Walk the sequences ``live`` as one stack, stepping four kernels or one at a time."""
        n = self.n
        self.quads = quads
        if quads:
            self.multiply, self.factors = forward_matmul(n, 4), _quad_factors(self.seqs, live, n)
        else:
            self.multiply = forward_matmul(n, max(_stack_band(self.seqs[r]) for r in live))
            self.factors = _kernel_factors(self.seqs, live, n)
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

    def draw(self, live: list[int], start: int, stop: int):
        """The kernel positions of steps ``start + 1`` to ``stop`` of each slice, and their drift screens."""
        indices = [self.seqs[r].indices(start + 1, stop + 1) for r in live]
        return indices, self.screened[np.add(indices, self.offsets[live][:, None])]

    def window(self, live: list[int], stacks: list, start: int, end: int) -> list[int]:
        """Walk a window ``(start, end]`` once and return the slices that walk on.

        The rows at ``start`` are the first of ``stacks[0]``. The stride
        ending at the window's ``k``-th checkpoint multiplies from
        ``stacks[k - 1]``, alternating with the spare ``stacks[-1]`` so
        that its last product lands in ``stacks[k]``, which is then divided
        by its row sums in place; every checkpoint keeps its bits. At an
        ``end`` before ``n_max`` a slice walks on when every kernel of its
        window passed the drift screen, and its value at ``end`` (for TV,
        :func:`_tv_pivot`) lies above the band with, for relative-sup, no
        positive entry below ``_PASSAGE_TINY``; every other slice, and
        every slice of the window holding ``n_max``, is judged from the
        stored checkpoints by :meth:`judge`. On return the rows of the
        slices that walk on are the first of ``stacks[0]``, in order.
        """
        width = len(live)
        marks = [*range(start, end, _PASSAGE_STRIDE), end]  # the start, then each checkpoint
        screens, k, first = [], 0, start
        while first < end:  # a block of strides; only the last one's factors are held
            stop = min(first + _block_strides(width, self.n, self.quads) * _PASSAGE_STRIDE, end)
            indices, passed = self.draw(live, first, stop)
            screens.append(passed)
            steps = self.factors(live, indices)
            while marks[k] < stop:  # a stride
                k += 1
                length = marks[k] - marks[k - 1]
                count = (length + 3) // 4 if self.quads else length
                p = stacks[k - 1][:width]
                for j, factor in enumerate(islice(steps, count)):
                    p = self.multiply(p, factor, out=stacks[k if (count - j) % 2 else -1][:width])
                np.divide(p, np.add.reduce(p, axis=-1)[..., None], out=p)
            first = stop
        passed = np.concatenate(screens, axis=1)
        if end == self.n_max:
            judged = list(range(width))
        else:
            band = self.band(end)
            if self.metric == "relsup":
                values, tiny = _relsup_stack(p)
                fails = ~passed.all(axis=1) | tiny | ~(values > band)
            else:
                fails = ~passed.all(axis=1) | ~(_tv_pivot(p) > band)
            judged = np.flatnonzero(fails).tolist()
        finished = self.judge(live, judged, stacks, marks, passed)
        # the rows at end become the window start
        stacks[0], stacks[k] = stacks[k], stacks[0]
        bound = min(self.errors, default=len(self.seqs))
        keep = [s for s in range(width) if s not in finished and live[s] < bound]
        if len(keep) < width:
            stacks[0][:len(keep)] = stacks[0][keep]
        return [live[s] for s in keep]

    def judge(self, live, judged, stacks, marks, passed) -> set[int]:
        """Measure the slices ``judged`` at the window's checkpoints in order; return those that finish.

        A slice whose stride used a kernel failing the drift screen
        (``passed``, by step of the window), or whose relative-sup
        checkpoint holds a positive entry below ``_PASSAGE_TINY``, is
        finished by :func:`_stepwise`; a checkpoint inside the band is
        walked again by :func:`_replay` from the previous checkpoint's
        slot. A slice that finishes is measured no further, and at
        ``n_max`` every slice finishes; the error of a slice that fails is
        kept in :attr:`errors`.
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
            band = self.band(stop)
            stepwise = ~passed[judged, first - marks[0]:stop - marks[0]].all(axis=1)
            if metric == "relsup":
                values, tiny = _relsup_stack(p)
                stepwise |= tiny
                walks_on = values > band
                values = values.tolist()
            elif stop < n_max:
                walks_on = _tv_pivot(p) > band
            if stop == n_max:  # every slice finishes here
                walks_on = np.zeros(len(judged), dtype=bool)
            for i in np.flatnonzero(stepwise | ~walks_on).tolist():
                s = judged[i]
                r = live[s]
                try:
                    if stepwise[i]:
                        step = _stepwise(self.seqs[r], first + 1, n_max, self.measure, epsilon)
                    else:
                        value = values[i] if metric == "relsup" else self.measure(p[i])
                        step = (stop, p[i], value) if value > band else \
                            _replay(self.seqs[r], stacks[k - 1][s], first, stop, self.measure,
                                    epsilon, self.scale, n_max)
                except ArithmeticError as exc:
                    self.errors[r] = exc
                    finished.add(s)
                    continue
                if step[2] <= epsilon or step[0] == n_max:
                    t, matrix, value = step
                    self.results[r] = _passage_result(metric, t if value <= epsilon else None,
                                                      matrix, value)
                    finished.add(s)
        return finished


def _drift_screen(seq: KernelSequence, limit: float) -> np.ndarray:
    """Whether each kernel's row sums lie within ``limit`` of 1 (see :func:`first_passage`)."""
    sums = np.array([np.add.reduce(k.entries, axis=1) for k in seq.kernels])
    return np.abs(sums - 1.0).max(axis=1) <= limit


def _block_strides(width: int, n: int, quads: bool) -> int:
    """Strides in a block of a stack of ``width`` slices of ``n`` states, inside one window.

    ``_PASSAGE_BLOCK``, or, in a stack stepping four kernels at a time,
    fewer, so that the arrays :func:`_quad_factors` forms for a block's
    factors fit in ``_BLOCK_BYTES``; at least one. They hold 28 numbers per
    factor, slice and row: the five diagonals of each of the factor's two
    pairs with eight zero diagonals, the three diagonals of each kernel of
    one of its pairs with four zero diagonals, and the factor's own nine
    in the place of those. A stack stepping a kernel at a time forms
    nothing ahead: its kernels are joined step by step.
    """
    if not quads:
        return _PASSAGE_BLOCK
    stride = 8 * 28 * (_PASSAGE_STRIDE // 4) * width * n
    return max(1, min(_PASSAGE_BLOCK, _BLOCK_BYTES // stride))


def _relsup_stack(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`relsup_between_rows` of each slice of an ``(R, N, N)`` stack, in one pass.

    Returns the values and whether each slice holds a positive entry below
    ``_PASSAGE_TINY``. Every column's max and min are taken over the whole
    stack at once; as max and min are exact, and a quotient and the final
    subtraction are rounded as in :func:`relsup_between_rows`, each value
    has its bits. An all-zero column counts as a quotient of 1, below every
    other (``max ≥ min > 0`` gives a quotient of at least 1), so it adds
    nothing and a stack of such columns reads 0; a column with zero and
    positive entries divides by zero and reads ``+inf``. When no column of
    the stack holds a zero, every entry is at least its column's minimum,
    so the minima alone tell whether a positive entry lies below
    ``_PASSAGE_TINY``; otherwise every entry is compared.
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


def _kernel_factors(seqs: list[KernelSequence], members: list[int], n: int):
    """The factors of a block's steps for the sequences ``members``: a kernel a step.

    Returns ``factors(live, indices)``, a generator of the steps of the
    sequences ``live`` (a subset of ``members``, in order): for each step,
    one stack of the kernels those sequences take at that step;
    ``indices[s]`` holds the kernel positions of slice ``s``. A lone
    sequence's kernel is a ``(1, N, N)`` view; kernels of several
    sequences are concatenated into one buffer allocated once.
    """
    stacks_of_one = {r: [k.entries[None] for k in seqs[r].kernels] for r in members}
    out = np.empty((len(members), n, n)) if len(members) > 1 else None

    def factors(live, indices):
        columns = [[stacks_of_one[r][k] for k in idx.tolist()] for r, idx in zip(live, indices)]
        if len(columns) == 1:
            yield from columns[0]
        else:
            for step in zip(*columns):
                yield np.concatenate(step, out=out[:len(columns)])
    return factors


def _quad_factors(seqs: list[KernelSequence], members: list[int], n: int):
    """The factors of a block's steps for tridiagonal sequences: four kernels a step.

    Returns ``factors(live, indices)`` as :func:`_kernel_factors` does, but
    each factor is the product ``K_a K_b K_c K_d`` of four consecutive
    kernels of a slice, and a block whose length is not a multiple of four
    ends with its last one to three kernels followed by the identity, which
    gives their product exactly. The product of two tridiagonal kernels is
    pentadiagonal, and that of two such pairs has band 4. For every factor
    of the block and every live slice, :func:`_band_product` forms the
    first pairs' five diagonals from their kernels' three, then the second
    pairs', then the factors' nine from the pairs'. Each factor is written
    over the same nine diagonals of one ``(R, N, N)`` buffer, zero
    elsewhere. Its rows carry four columns of padding on each side, so the
    band is one strided view: row ``i`` of diagonal ``c − 4`` lies
    ``i(N + 9) + c`` elements into a slice, and a write never wraps into
    another row. The arrays a block forms (:func:`_block_strides`) are
    allocated once, for the largest block, and reused.
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
    # positions of the largest block: a row of every factor and slice
    size = n * (_PASSAGE_STRIDE // 4) * max(w * _block_strides(w, n, True)
                                            for w in range(1, len(members) + 1))
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
        b[:2] = b[5:] = 0.0  # the factors of the previous block overlap them
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
    diagonals of ``A B``. Term ``s`` of row ``i``, ``A(i, i + s − h)``
    times row ``i + s − h`` of ``B``, lies ``s − h`` positions away and
    adds each diagonal ``c`` of ``B`` to diagonal ``s + c`` of the
    product. One strided view of ``b`` gives every ``(s, s + c)`` its
    row, and a zero row where ``c`` falls outside ``B``; the view stays
    inside ``b``. So each entry is a sum of ``2h + 1`` non-negative
    products, of which at most ``min(2h + 1, N)`` are nonzero: a term
    whose column of ``A`` falls outside the matrix multiplies what it reads
    of ``b``, a finite number, by an exact zero, and so does one that reads
    across the end of a row of ``B`` into the next.
    """
    span, h, rows = len(a), len(a) // 2, b.strides[0]
    # skewed[s, e, f] = b[e − s + 2h, f + s − h], built from the s = 2h end
    skewed = np.ndarray((span, len(out), a.shape[1]), b.dtype, b, offset=h * b.itemsize,
                        strides=(rows - b.itemsize, rows, b.itemsize))[::-1]
    np.einsum("sf,sef->ef", a, skewed, out=out)


def _replay(seq: KernelSequence, matrix: np.ndarray, start: int, stop: int, measure, epsilon,
            scale, n_max):
    """``(i, P_i, value)`` at the first ``start < i <= stop`` with value <= epsilon, else at ``stop``.

    The steps are walked again by :func:`~mclab.chain_core.walk` from
    ``matrix``, the product at ``start``, and measured in order up to the
    first hit. A value within ``δ(i, N)·scale`` of ``epsilon`` does not
    tell whether the stepwise walk hits at ``i``, so from there the result
    is that of :func:`_stepwise`.
    """
    n = matrix.shape[0]
    for i, matrix, _ in walk(seq, range(start + 1, stop + 1), start=matrix):
        value = measure(matrix)
        if abs(value - epsilon) <= _passage_bound(i, n) * scale:
            return _stepwise(seq, i, n_max, measure, epsilon)
        if value <= epsilon:
            break
    return i, matrix, value


def _stepwise(seq: KernelSequence, first: int, n_max: int, measure, epsilon):
    """``(i, P_i, value)`` of the stepwise walk at its first hit from step ``first`` on, else at ``n_max``.

    The walk starts again from the identity and measures no step before
    ``first``; :func:`~mclab.chain_core.walk` raises at the first step that
    drifts.
    """
    for i, matrix, _ in walk(seq, range(1, n_max + 1)):
        if i >= first:
            value = measure(matrix)
            if value <= epsilon:
                break
    return i, matrix, value


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

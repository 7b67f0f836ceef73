"""Exact merging distances, merging times, and certified upper bounds.

Distances are computed from the full iterated-kernel matrix, never from
sampled trajectories, so the reported values are exact at desk scale.
Walks over time accumulate that matrix one
:func:`~mclab.chain_core.renormalized_step` at a time through
:func:`~mclab.chain_core.walk`, which raises when a step drifts by more
than ``DRIFT_ATOL``; first passages instead multiply a stack of walks,
by two consecutive kernels at a time where they are all tridiagonal, and
renormalize it once per stride, under the rounding bound stated in
:func:`first_passage`. Every product step, in a walk, a stack or
:func:`product`, is one :func:`~mclab.chain_core.kernel_matmul`, which
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
_BLOCK_BYTES = 1 << 18  # most bytes of the pairs formed for one block of strides


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
    each row is divided by its sum and the metric is evaluated. When every
    kernel of the sequence is tridiagonal (bandwidth at most 1, as every
    birth-death kernel is), a factor is the product ``K_a K_b`` of two
    consecutive kernels, pentadiagonal and formed from their diagonals in
    ``O(N)`` elementwise work, with band 2; a stride of odd length ends
    with its last kernel alone. Otherwise a factor is one kernel, with
    the largest :func:`~mclab.chain_core.matmul_band` of the sequence's
    kernels as its band. Below, a threshold
    ``ε ± kδ`` means ``ε ± kδ·(1 + ε)`` for relative-sup. A checkpoint value
    above ``ε + 2δ`` rules out every step since the previous checkpoint.
    Otherwise :func:`_replay` walks that stride again through ``walk``
    from the previous checkpoint and measures its steps in order: a value
    below ``ε - δ`` is a hit and one above ``ε + δ`` is not, because the
    stepwise walk's value lies within ``δ`` of it. A value within ``δ`` of
    ``ε`` cannot be decided, so the sequence takes the stepwise route:
    :func:`_stepwise` walks it again from step 0 and measures every step
    from that one on, to its hit or ``n_max``. Steps ruled out before are
    not measured again. The stepwise route is also taken from the first
    step of a stride that uses a kernel failing the drift screen (below),
    and of the stride whose checkpoint first holds a positive entry below
    ``_PASSAGE_TINY`` in a relative-sup walk.

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
    A pair step counts as two steps. Each entry of the formed ``K_a K_b``
    sums at most ``min(3, N)`` non-negative products, so it lies within
    ``1 ± γ_3`` of the exact pair's entry, and as ``P`` is non-negative,
    each entry of the exact product of ``P`` by the formed pair lies
    within the same factor of ``P K_a K_b``. Each entry of the computed
    product sums at most ``min(5, N)`` nonzero terms, within ``1 ± γ_5``.
    Both are within ``1 ± γ_N``, the factor allowed to each of two single
    steps, and rescaling the pair's two kernels moves a row as much as it
    does for two single steps; so ``δ(t, N)`` below holds unchanged.
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
    ``ε + δ`` already puts every stepwise value of its stride above ``ε``;
    the band ``ε + 2δ`` doubles that margin.

    **Drift screen.** Each kernel is screened once per batch: its computed
    row sums must lie within ``min(2(N + 1)·u, DRIFT_ATOL - 4(N + 1)·u)``
    of 1. Its exact row sums then lie within ``(3N + 2)·u`` of 1, as the
    bound needs, and a stepwise step by it cannot drift past
    ``DRIFT_ATOL``: the computed drift is at most the kernel's own plus
    ``γ_{3N}`` from the product, the sums and the previous division. Every
    kernel built through the probability rule passes up to 1500 states.

    The bound assumes entries in the normal floating-point range. For TV
    an entry lost to underflow is below ``2^-1022`` and moves the distance
    by far less than ``δ``; relative-sup divides by entries, hence its
    stepwise route once a checkpoint holds tiny ones.

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
    by a pair of kernels at a time, and the others as another, advanced a
    kernel at a time; each stack is renormalized once per stride, so the
    per-step call overhead is paid once for the stack rather than once per
    sequence. A stack draws its kernel positions, and forms the pairs it
    steps by, once per block of strides (:func:`_block_strides`), not once
    per stride; a block ends early at a checkpoint where a sequence leaves.
    A relative-sup checkpoint measures the whole stack in one pass
    (:func:`_relsup_stack`). The steps write into two buffers allocated
    once per stack, never into the last checkpoint. A batch takes
    sequences while their kernels and stacks (:func:`_passage_bytes` each)
    fit in ``_BATCH_BYTES``, and always at least one. Every slice of a
    stacked step, and of its renormalization, has the bits of the same step
    walked alone, the one-pass measure has the bits of
    :func:`relsup_between_rows` on each slice, and each sequence is
    screened, measured and walked again exactly as :func:`first_passage`
    does it (the identity at time 0 is measured once per batch), so each
    result equals its :func:`first_passage` bit for bit. A sequence leaves
    the stack when it finishes. ``seqs`` is read lazily, and a batch is
    walked and dropped as soon as not even a one-kernel sequence of its
    state count would fit, so a sequence waits outside a stack only when
    it has another state count or band, or the stack had room for a
    one-kernel sequence but not for it. When walks fail, the error raised
    is the one of the first failing sequence, the one a loop over
    :func:`first_passage` raises; when reading ``seqs`` fails, the batch
    read so far is walked first. A NaN or negative ``epsilon`` raises
    ``ValueError`` before anything is walked.
    """
    if metric not in ("tv", "relsup"):
        raise ValueError(f"unknown metric {metric!r}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be a number >= 0, got {epsilon}")
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
            if used + 8 * n * (5 * n + 4) > _BATCH_BYTES:  # the least a one-kernel sequence adds
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
    its slice of the four stacks a batch allocates once: the last
    checkpoint, the two buffers the steps alternate between (the current
    matrices and the product being formed) and the factor of a step, which
    is either the concatenated kernels or the product of a pair of kernels
    with its four columns of padding (``N × (N + 4)``). A sequence that
    steps in pairs also adds its kernels' three diagonals, padded to
    ``N + 2`` each. Not counted: the pairs formed for a block of strides,
    which :func:`_block_strides` keeps within ``_BLOCK_BYTES`` for the
    whole stack, and the ``O(N)`` numbers a kernel or a step that the
    drift screen, a block's kernel positions, a checkpoint's row sums and
    the relative-sup column extremes take.
    """
    n, m = seq.space.size, len(seq.kernels)
    diagonals = 3 * (n + 2) * m if _tridiagonal(seq) else 0
    return 8 * (n * (n * (m + 4) + 4) + diagonals)


def _stack_band(seq: KernelSequence) -> int:
    """The band of a stacked product by ``seq``'s kernels: their largest ``matmul_band``."""
    return max(map(matmul_band, seq.kernels))


def _tridiagonal(seq: KernelSequence) -> bool:
    """Whether every kernel of ``seq`` has bandwidth at most 1: its stack steps in pairs."""
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
    steps a pair of kernels at a time (:func:`_pair_factors`); the others
    form one that steps a kernel at a time (:func:`_kernel_factors`). A
    stack only multiplies, by :func:`~mclab.chain_core.kernel_matmul` with
    the band of its factors, alternating between two buffers that are
    never the checkpoint, and at each checkpoint divides every row by its
    sum in one pass. The kernel positions, the drift screen of each
    stride and the factors are formed once per block of strides
    (:func:`_block_strides`), for every live slice, by the factor
    generators, which take kernel positions of any length; a block ends
    early when a slice leaves, and the next one starts at that checkpoint
    for the slices left. At a relative-sup checkpoint,
    :func:`_relsup_stack` measures every slice in one pass, with the bits
    of :func:`relsup_between_rows`. At a TV checkpoint a slice's TV is
    first bounded from below by the L1 distances of row 0 to every other
    row, one ``O(N²)`` pass: a non-final checkpoint whose bound already
    lies above the band needs no full scan. Any TV value that is reported,
    or compared with ``epsilon`` to decide a hit, is the full
    :func:`~mclab.chain_core.tv_between_rows`. A slice whose stride used a
    kernel failing the drift screen, or whose relative-sup checkpoint
    holds an entry below ``_PASSAGE_TINY``, is finished by
    :func:`_stepwise`; a checkpoint inside the band is walked again by
    :func:`_replay`.
    """
    measure = tv_between_rows if metric == "tv" else relsup_between_rows
    scale = 1.0 if metric == "tv" else 1.0 + epsilon  # δ is relative to 1 + value for relsup

    def result(hit, matrix, value):
        if metric == "tv":
            return hit, value, relsup_between_rows(matrix)
        return hit, tv_between_rows(matrix), value

    n = seqs[0].space.size
    eye = np.eye(n)
    value = measure(eye)
    if value <= epsilon or n_max <= 0:
        return [result(0 if value <= epsilon else None, eye, value)] * len(seqs)

    # the drift screen of every kernel of the batch, a sequence's kernels from offsets[r] on
    limit = min(2 * (n + 1) * UNIT_ROUNDOFF, DRIFT_ATOL - 4 * (n + 1) * UNIT_ROUNDOFF)
    screened = np.concatenate([_drift_screen(seq, limit) for seq in seqs])
    offsets = np.cumsum([0] + [len(seq.kernels) for seq in seqs[:-1]])
    results: list = [None] * len(seqs)
    errors: dict[int, ArithmeticError] = {}
    pairs = [_tridiagonal(seq) for seq in seqs]
    for paired in (True, False):
        live = [r for r in range(len(seqs)) if pairs[r] == paired]  # the sequence walked in each slice
        if not live:
            continue
        if paired:
            multiply, factors = forward_matmul(n, 2), _pair_factors(seqs, live, n)
        else:
            multiply = forward_matmul(n, max(_stack_band(seqs[r]) for r in live))
            factors = _kernel_factors(seqs, live, n)
        # the checkpoint and two buffers the steps alternate between; slices
        # that leave are compacted to the front
        stacks = [np.repeat(eye[None], len(live), axis=0)]
        stacks += [np.empty_like(stacks[0]) for _ in range(2)]
        start = 0
        while live:  # a block of strides
            width, first = len(live), start
            end = min(start + _block_strides(width, n, paired) * _PASSAGE_STRIDE, n_max)
            indices = [seqs[r].indices(start + 1, end + 1) for r in live]
            passed = screened[np.add(indices, offsets[live][:, None])]
            steps = iter(factors(live, indices))
            while start < end:  # a stride
                stop = min(start + _PASSAGE_STRIDE, n_max)
                checkpoint = p = stacks[0][:width]
                buffers = (stacks[1][:width], stacks[2][:width])
                count = (stop - start + 1) // 2 if paired else stop - start
                for j, factor in enumerate(islice(steps, count)):
                    p = multiply(p, factor, out=buffers[j % 2])
                np.divide(p, np.add.reduce(p, axis=-1)[..., None], out=p)
                band = epsilon + 2.0 * _passage_bound(stop, n) * scale
                stepwise = ~passed[:, start - first:stop - first].all(axis=1)
                if metric == "relsup":
                    values, tiny = _relsup_stack(p)
                    stepwise |= tiny
                    walks_on = values > band
                    values = values.tolist()
                elif stop < n_max:  # half the L1 distances from row 0 bound the worst pair from below
                    pivot = 0.5 * np.add.reduce(np.abs(p[:, :1] - p[:, 1:]), axis=-1).max(axis=-1)
                    walks_on = np.minimum(pivot, 1.0) > band
                if stop == n_max:  # every slice finishes here
                    walks_on = np.zeros(width, dtype=bool)
                leaving = []
                for s in np.flatnonzero(stepwise | ~walks_on).tolist():
                    r = live[s]
                    try:
                        if stepwise[s]:
                            step = _stepwise(seqs[r], start + 1, n_max, measure, epsilon)
                        else:
                            value = values[s] if metric == "relsup" else measure(p[s])
                            step = (stop, p[s], value) if value > band else \
                                _replay(seqs[r], checkpoint[s], start, stop, measure, epsilon, scale,
                                        n_max)
                    except ArithmeticError as exc:
                        errors[r] = exc
                        leaving.append(s)
                        continue
                    if step[2] <= epsilon or step[0] == n_max:
                        i, matrix, value = step
                        results[r] = result(i if value <= epsilon else None, matrix, value)
                        leaving.append(s)
                # the buffer holding p becomes the next checkpoint; the old one takes steps
                last = 1 + j % 2
                stacks[0], stacks[last] = stacks[last], stacks[0]
                start = stop
                bound = min(errors, default=len(seqs))
                keep = [s for s in range(width) if s not in leaving and live[s] < bound]
                if len(keep) < width:
                    stacks[0][:len(keep)] = p[keep]
                    live = [live[s] for s in keep]
                    break
    if errors:
        raise errors[min(errors)]
    return results


def _drift_screen(seq: KernelSequence, limit: float) -> np.ndarray:
    """Whether each kernel's row sums lie within ``limit`` of 1 (see :func:`first_passage`)."""
    sums = np.array([np.add.reduce(k.entries, axis=1) for k in seq.kernels])
    return np.abs(sums - 1.0).max(axis=1) <= limit


def _block_strides(width: int, n: int, paired: bool) -> int:
    """Strides in a block of a stack of ``width`` slices of ``n`` states.

    ``_PASSAGE_BLOCK``, or, in a stack stepping pairs, fewer, so that the
    arrays :func:`_pair_factors` forms for a block's pairs, 12 numbers per
    pair, slice and padded row position (the two kernels' gathered
    diagonals, the five formed and one temporary), fit in
    ``_BLOCK_BYTES``; at least one. A stack stepping a kernel at a time
    forms nothing ahead: its kernels are joined step by step.
    """
    if not paired:
        return _PASSAGE_BLOCK
    stride = 8 * 12 * (_PASSAGE_STRIDE // 2) * width * (n + 2)
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
    """The factors of a stride's steps for the sequences ``members``: a kernel a step.

    Returns ``factors(live, indices)``, which yields, for each step of the
    stride, one stack of the kernels that the sequences ``live`` (a subset
    of ``members``, in order) take at that step: ``indices[s]`` holds the
    kernel positions of slice ``s``. A lone sequence's kernel is a
    ``(1, N, N)`` view; kernels of several sequences are concatenated into
    one buffer allocated once.
    """
    stacks_of_one = {r: [k.entries[None] for k in seqs[r].kernels] for r in members}
    out = np.empty((len(members), n, n)) if len(members) > 1 else None

    def factors(live, indices):
        columns = [[stacks_of_one[r][k] for k in idx.tolist()] for r, idx in zip(live, indices)]
        if len(columns) == 1:
            return columns[0]
        return (np.concatenate(step, out=out[:len(live)]) for step in zip(*columns))
    return factors


def _pair_factors(seqs: list[KernelSequence], members: list[int], n: int):
    """The factors of a stride's steps for tridiagonal sequences: two kernels a step.

    Returns ``factors(live, indices)`` as :func:`_kernel_factors` does, but
    each factor is the product ``K_a K_b`` of two consecutive kernels of a
    slice, and the last kernel of a stride of odd length is paired with the
    identity, which gives that kernel exactly. A product of two tridiagonal
    kernels is pentadiagonal: its five diagonals are formed from the two
    kernels' three by :func:`_pair_diagonals`, for every pair of the stride
    and every live slice in one pass, and each pair is written over the
    same five diagonals of one ``(R, N, N)`` buffer, zero elsewhere. Its
    rows carry two columns of padding on each side, so the band is one
    strided view: row ``i`` of diagonal ``c − 2`` lies ``i(N + 5) + c``
    elements into a slice, and a write never wraps into another row.
    """
    first = np.zeros(len(seqs), dtype=np.intp)  # each member's first row of table
    count = 0
    for r in members:
        first[r], count = count, count + len(seqs[r].kernels)
    # table[s, j, i + 1] = K_j(i, i + s − 1), zero outside the matrix; the last K_j is I
    table = np.zeros((3, count + 1, n + 2))
    kernels = (k.entries for r in members for k in seqs[r].kernels)
    for j, k in enumerate(kernels):
        table[0, j, 2:n + 1] = k.diagonal(-1)
        table[1, j, 1:n + 1] = k.diagonal()
        table[2, j, 1:n] = k.diagonal(1)
    table[1, count, 1:n + 1] = 1.0
    padded = np.zeros((len(members), n, n + 4))
    product = padded[:, :, 2:n + 2]
    item = padded.itemsize
    band = np.lib.stride_tricks.as_strided(padded, (len(members), 5, n),
                                           (padded.strides[0], item, (n + 5) * item), writeable=True)

    def factors(live, indices):
        width = len(live)
        rows = np.add(indices, first[live][:, None])
        if rows.shape[1] % 2:
            rows = np.concatenate((rows, np.full((width, 1), count)), axis=1)
        # (3, 2, h, R, N + 2): the first kernel of each of h pairs, then the second
        pair = np.take(table, rows.reshape(width, -1, 2).transpose(2, 1, 0), axis=1)
        formed = _pair_diagonals(pair[:, 0], pair[:, 1]).transpose(1, 2, 0, 3)
        del pair  # while the steps are taken, only the pairs' diagonals are held
        target, factor = band[:width], product[:width]
        for diagonals in formed:
            np.copyto(target, diagonals)
            yield factor
    return factors


def _pair_diagonals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The five diagonals of ``K_a K_b`` for tridiagonal kernels given by their three.

    ``a`` and ``b`` are ``(3, ..., N + 2)`` arrays laid out as the table of
    :func:`_pair_factors`: ``a[s, ..., i + 1] = K_a(i, i + s − 1)``, with a
    zero on each side of every row. Returns ``d`` of shape ``(5, ..., N)``
    with ``d[c, ..., i] = (K_a K_b)(i, i + c − 2)``. Term ``s`` of row ``i``,
    ``K_a(i, i + s − 1)`` times row ``i + s − 1`` of ``K_b``, lands on
    diagonals ``s − 2`` to ``s``; so each entry is a sum of at most three
    non-negative products, and a term that falls outside the matrix is an
    exact zero. The rows are processed as one flat array: a shift by one
    across the end of a row reads its zero padding.
    """
    shape, n = a.shape[1:-1], a.shape[-1] - 2
    a, b = a.reshape(3, -1), b.reshape(3, -1)  # views when all but the first axis are contiguous
    d = np.empty((5, a.shape[1]))
    inner = d[:, 1:-1]  # every padded position but the flat array's ends
    np.multiply(a[0, 1:-1], b[:, :-2], out=inner[:3])
    inner[3:] = 0.0
    for c in range(3):  # a diagonal at a time, so that a temporary holds one
        np.add(inner[1 + c], a[1, 1:-1] * b[c, 1:-1], out=inner[1 + c])
    for c in range(3):
        np.add(inner[2 + c], a[2, 1:-1] * b[c, 2:], out=inner[2 + c])
    return d.reshape((5,) + shape + (n + 2,))[..., 1:n + 1]


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

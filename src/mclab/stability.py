"""Stability of kernel sets: word-tree envelopes and related criteria.

A set of kernels is stable around a reference measure when some starting
measure keeps every word of kernels inside a multiplicative band around
the reference. The envelope computed here is the exact maximum of
``max(mu_w/pi, pi/mu_w)`` over the full word tree up to a depth, which is
why enumeration is exhaustive by default: the envelope is a maximum and
sampling can only under-estimate it.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .chain_core import (
    VALUE_ATOL,
    KernelSequence,
    ProbMeasure,
    ReducibleKernelError,
    StochasticKernel,
    _irreducible_stationary_measure,
    _require_same_space,
    classify_structure,
    stationary_measure,
    walk,
    write_csv,
)
from .rng import substream

DEFAULT_BUDGET_NODES = 1 << 20
_CHUNK_ROWS = 1 << 13   # entries of one word-tree chunk: 64 KiB, below malloc's mmap threshold
_MAX_WITNESSES = 10     # product_invariant_criterion stops after this many failing words
_SEARCH_PASSES = 40     # coordinate sweeps per start in search_stable_measure
_SEARCH_BUDGET_VISITS = 1 << 24   # word-tree nodes search_stable_measure may visit in all


class EnumerationBudgetError(RuntimeError):
    """Word tree larger than the node budget, or a stable-measure search
    whose walks could visit more nodes in all than its budget.

    Raise the budget for an exhaustive answer, or estimate from below by
    evaluating sampled words (for example i.i.d. :class:`KernelSequence`
    trajectories), accepting that a sampled envelope is a lower bound.
    """

    def __init__(self, nodes: int, budget: int, message: str | None = None):
        super().__init__(message or (
            f"word tree has {nodes} nodes, budget is {budget}; raise budget_nodes "
            "or fall back to sampled words (the sampled envelope is only a lower bound)"
        ))
        self.nodes = nodes
        self.budget = budget


def _tree_nodes(letters: int, depth: int) -> int:
    """Nodes of the word tree over ``letters`` letters, the empty word included."""
    return sum(letters ** d for d in range(depth + 1))


def _tree_matrices(kernels, depth: int, budget: int, *measures: ProbMeasure) -> list[np.ndarray]:
    """Entry checks of the word-tree functions, in order; returns the kernel matrices.

    A non-empty kernel set on the measures' space, ``depth >= 1`` and strictly
    positive measures (else ``ValueError``), then a tree within ``budget`` nodes.
    """
    kernels = list(kernels)
    if not kernels:
        raise ValueError("kernel set must be non-empty")
    _require_same_space(*kernels, *measures)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not all(mu.positive for mu in measures):
        raise ValueError("measures must be strictly positive")
    nodes = _tree_nodes(len(kernels), depth)
    if nodes > budget:
        raise EnumerationBudgetError(nodes, budget)
    return [k.entries for k in kernels]


@dataclass(frozen=True)
class StabilityReport:
    """Envelope of measure-to-reference ratios over a word tree."""

    candidate_pi: ProbMeasure
    mu0: ProbMeasure
    depth: int
    c_estimate: float
    witness_word: tuple[int, ...]
    criterion_pass: bool | None = None

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "c_estimate": self.c_estimate,
            "witness_word": list(self.witness_word),
            "criterion_pass": self.criterion_pass,
        }


def envelope_summary_csv(reports, path) -> None:
    """Write one ``depth,c_estimate`` row per report with :func:`~mclab.chain_core.write_csv`."""
    write_csv(path, ["depth", "c_estimate"], ((r.depth, float(r.c_estimate)) for r in reports))


def _word_blocks(mats, item: np.ndarray, depth: int, step: int):
    """``(length, first, block)`` for the words ``|w| <= depth``, depth first.

    ``item`` is the empty word's: the row ``mu_0`` for rows ``mu_w``, the
    identity for products ``P_w``. A block holds the items of at most
    ``step`` consecutive words of one length, or a whole deepest chunk,
    the first at lexicographic index ``first``. One matmul against the
    kernels side by side makes its children, walked before its next
    sibling block. A step of 1 is lexicographic preorder.
    """
    wide = np.concatenate(mats, axis=1)
    stack = [(item[None], 0, 0)]  # words not yet given out: items, length, first index
    while stack:
        block, length, first = stack.pop()
        if length < depth and len(block) > step:
            stack.append((block[step:], length, first + step))
            block = block[:step]
        yield length, first, block
        if length < depth:
            children = (block @ wide).reshape(*block.shape[:-1], len(mats), -1).swapaxes(1, -2)
            stack.append((children.reshape(-1, *item.shape), length + 1, first * len(mats)))


def _word(length: int, index: int, letters: int) -> tuple[int, ...]:
    return tuple(index // letters ** (length - 1 - i) % letters for i in range(length))


def _walk_envelope(mats, mu0: np.ndarray, log_pi: np.ndarray,
                   depth: int) -> tuple[float, tuple[int, ...]]:
    """Max of ``max_x |log(mu_w(x)/pi(x))|`` over all words ``|w| <= depth``.

    Exact: scores in one flat pass each block of rows ``mu_w`` from
    :func:`_word_blocks`, whose chunks hold at most ``_CHUNK_ROWS`` entries
    or one word's children. The witness is the first maximizer in (length,
    lexicographic) order, at any chunk size; a zero ``mu_w(x)`` gives inf.
    """
    q, size = len(mats), mu0.shape[0]
    step = max(1, _CHUNK_ROWS // (size * q))
    flat = np.empty(step * q * size)
    log_pi_flat = np.tile(log_pi, step * q)
    best, best_key = -np.inf, (0, 0)  # witness (length, lexicographic index)
    with np.errstate(divide="ignore"):
        for length, first, rows in _word_blocks(mats, mu0, depth, step):
            scores = flat[:rows.size]
            np.log(rows.reshape(-1), out=scores)
            np.abs(np.subtract(scores, log_pi_flat[:rows.size], out=scores), out=scores)
            top = int(scores.argmax())
            value, key = float(scores[top]), (length, first + top // size)
            if value > best or (value == best and key < best_key):
                best, best_key = value, key
    return best, _word(*best_key, q)


def ratio_envelope(kernels, mu0: ProbMeasure, pi: ProbMeasure, depth: int,
                   budget_nodes: int = DEFAULT_BUDGET_NODES,
                   c_threshold: float | None = None) -> StabilityReport:
    """Exact ratio envelope of ``mu0`` against ``pi`` over the word tree.

    ``c_estimate`` is the max over all words of length at most ``depth``
    (the empty word included) and all states of
    ``max(mu_w(x)/pi(x), pi(x)/mu_w(x))``; it never decreases with depth.
    When ``c_threshold`` is given, a number ``>= 1`` (else ``ValueError``),
    ``criterion_pass`` records whether the envelope stayed at or below it.
    """
    if c_threshold is not None and not c_threshold >= 1:
        raise ValueError(f"c_threshold must be a number >= 1, got {c_threshold}")
    mats = _tree_matrices(kernels, depth, budget_nodes, mu0, pi)
    log_best, word = _walk_envelope(mats, mu0.weights, np.log(pi.weights), depth)
    c = float(np.exp(log_best))
    return StabilityReport(candidate_pi=pi, mu0=mu0, depth=depth, c_estimate=c, witness_word=word,
                           criterion_pass=None if c_threshold is None else bool(c <= c_threshold))


@dataclass(frozen=True)
class CriterionWitness:
    word: tuple[int, ...]
    reason: str
    detail: str


def product_invariant_criterion(kernels, pi: ProbMeasure, depth: int, c: float,
                                budget_nodes: int = DEFAULT_BUDGET_NODES
                                ) -> tuple[bool, list[CriterionWitness]]:
    """Check every word product up to ``depth`` for the stability criterion.

    For each non-empty word ``w``, the product ``P_w`` must be irreducible
    and aperiodic and its invariant measure must satisfy
    ``pi/c <= pi_w <= c pi`` entrywise. This is a necessary condition for
    ``c``-stability of a merging set, and it is reported as a criterion,
    not as a proof; ``c`` must be a number ``>= 1`` (else ``ValueError``).
    Witnesses list the first failing words, at most ten, in lexicographic
    order. The walk is iterative, so Python's recursion limit caps no depth.
    """
    if not c >= 1:
        raise ValueError(f"c must be a number >= 1, got {c}")
    mats = _tree_matrices(kernels, depth, budget_nodes, pi)
    lo, hi = pi.weights / c, pi.weights * c
    witnesses: list[CriterionWitness] = []
    blocks = _word_blocks(mats, np.eye(pi.space.size), depth, 1)
    next(blocks)  # the empty word
    for length, first, block in blocks:
        for index, matrix in enumerate(block, first):
            k = StochasticKernel(pi.space, matrix)
            structure = classify_structure(k)
            if not (structure.irreducible and structure.aperiodic):
                reason = "reducible" if not structure.irreducible else "periodic"
                detail = f"recurrent classes {structure.recurrent_classes}"
            else:  # classified once: the measure of an irreducible kernel, not classified again
                pw = _irreducible_stationary_measure(k).weights
                if not ((pw < lo - VALUE_ATOL).any() or (pw > hi + VALUE_ATOL).any()):
                    continue
                state = int(np.argmax(np.maximum(lo - pw, pw - hi)))
                reason, detail = "band", (f"state {state}: pi_w={pw[state]:.6g} outside "
                                          f"[{lo[state]:.6g}, {hi[state]:.6g}]")
            witnesses.append(CriterionWitness(_word(length, index, len(mats)), reason, detail))
            if len(witnesses) == _MAX_WITNESSES:
                return False, witnesses
    return not witnesses, witnesses


def search_stable_measure(kernels, pi: ProbMeasure, depth: int,
                          budget_nodes: int = DEFAULT_BUDGET_NODES,
                          seed: int = 0) -> tuple[ProbMeasure, float]:
    """Heuristic search for a starting measure minimizing the envelope.

    Minimizes ``F(mu0) = max_w max_x |log(mu_w(x)/pi(x))|`` by coordinate
    multiplicative updates projected back to the simplex, multi-started
    from ``pi``, the uniform measure, and the barycenter of the alphabet's
    stationary measures. Deterministic given the seed. The result is
    evidence, not proof: a failed search does not certify instability.

    Cost: up to 3 starts x (1 + 40 sweeps x ``2N``) envelope walks on ``N``
    states. ``budget_nodes`` caps each walk's word tree; the search raises
    :class:`EnumerationBudgetError` before its first walk when those walks
    could visit more than ``2**24`` tree nodes in all (with two irreducible
    kernels on 12 states, depth 11 runs and depth 12 raises).
    """
    kernels = list(kernels)
    mats = _tree_matrices(kernels, depth, budget_nodes, pi)
    log_pi = np.log(pi.weights)
    size = pi.space.size

    starts = [pi.weights, np.full(size, 1.0 / size)]
    leaf_measures = []
    for k in kernels:
        with suppress(ReducibleKernelError):  # the kernel has no unique stationary measure
            leaf_measures.append(stationary_measure(k).weights)
    if leaf_measures:
        bary = np.mean(leaf_measures, axis=0)
        starts.append(bary / bary.sum())
    visits = len(starts) * (1 + _SEARCH_PASSES * 2 * size) * _tree_nodes(len(mats), depth)
    if visits > _SEARCH_BUDGET_VISITS:
        raise EnumerationBudgetError(visits, _SEARCH_BUDGET_VISITS, (
            f"stable-measure search may visit {visits} word-tree nodes, its budget is "
            f"{_SEARCH_BUDGET_VISITS}; lower the depth or call ratio_envelope on chosen "
            "starting measures"))

    rng = substream(seed, 0x57A7)
    best_w, best_f = None, np.inf
    for start in starts:
        w = start.copy()
        f = _walk_envelope(mats, w, log_pi, depth)[0]
        step = 0.25
        for _ in range(_SEARCH_PASSES):
            improved = False
            for x in rng.permutation(size):
                for factor in (1.0 + step, 1.0 / (1.0 + step)):
                    trial = w.copy()
                    trial[x] *= factor
                    trial /= trial.sum()
                    ft = _walk_envelope(mats, trial, log_pi, depth)[0]
                    if ft < f - 1e-15:
                        w, f = trial, ft
                        improved = True
                        break
            if not improved:
                step /= 2.0
                if step < 1e-4:
                    break
        if best_w is None or f < best_f:
            best_f, best_w = f, w
    return ProbMeasure(pi.space, best_w), float(np.exp(best_f))


def two_point_classify(kernels) -> tuple[str, tuple[int, int] | None]:
    """Stability of a set of 2x2 kernels by the zero-corner pattern.

    The set is unstable exactly when it contains an ordered pair of
    distinct kernels where the first never holds state 0 and the second
    never holds state 1; the witness pair of indices is returned.
    """
    kernels = list(kernels)
    for k in kernels:
        if k.space.size != 2:
            raise ValueError("two_point_classify needs 2x2 kernels")
    for i, a in enumerate(kernels):
        for j, b in enumerate(kernels):
            if i == j:
                continue
            distinct = not np.array_equal(a.entries, b.entries)
            if distinct and a.entries[0, 0] == 0.0 and b.entries[1, 1] == 0.0:
                return "unstable", (i, j)
    return "stable", None


@dataclass(frozen=True)
class LimitRowEstimate:
    """Backward-limit row estimate with its convergence diagnostic.

    ``spread`` is the worst column max-min gap of the deepest backward
    window; small values mean the window matrix is nearly row-constant and
    ``measure`` approximates the limit row. ``spreads[j]`` tracks the gap
    after extending the window ``j`` steps into the past (monotone
    non-increasing). ``extension_is_convention`` flags explicit-list
    sequences, which are reused cyclically for indices before the start.
    """

    measure: ProbMeasure
    spread: float
    spreads: np.ndarray
    n: int
    m_min: int
    extension_is_convention: bool


def limit_row_estimate(seq: KernelSequence, n: int, m_min: int) -> LimitRowEstimate:
    """Estimate the limit row of backward windows ``K_{m,n}`` as m decreases."""
    if m_min >= n:
        raise ValueError("m_min must be < n")
    spreads = np.empty(n - m_min)
    # K_{m+1} joins on the left as m runs down from n - 1 to m_min
    for j, (_, p, _) in enumerate(walk(seq, range(n, m_min, -1), "backward")):
        spreads[j] = float((p.max(axis=0) - p.min(axis=0)).max())
    measure = ProbMeasure.from_weights(seq.space, p.mean(axis=0))
    return LimitRowEstimate(
        measure=measure,
        spread=float(spreads[-1]),
        spreads=spreads,
        n=n,
        m_min=m_min,
        extension_is_convention=seq.extension_is_convention,
    )

"""Stability of kernel sets: word-tree envelopes and related criteria.

A set of kernels is stable around a reference measure when some starting
measure keeps every word of kernels inside a multiplicative band around
the reference. The envelope computed here is the exact maximum of
``max(mu_w/pi, pi/mu_w)`` over the full word tree up to a depth, which is
why enumeration is exhaustive by default: the envelope is a maximum and
sampling can only under-estimate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_core import (
    VALUE_ATOL,
    KernelSequence,
    ProbMeasure,
    StochasticKernel,
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


def _walk_envelope(mats, mu0: np.ndarray, log_pi: np.ndarray,
                   depth: int) -> tuple[float, tuple[int, ...]]:
    """Max of ``max_x |log(mu_w(x)/pi(x))|`` over all words ``|w| <= depth``.

    Exact depth-first walk over level chunks: the rows ``mu_w`` of
    consecutive words of one length in lexicographic order, at most
    ``_CHUNK_ROWS`` entries or one word's children. One matmul against the
    kernels side by side expands ``step`` rows of a chunk into a child
    chunk, walked before the next is made and scored in one flat pass. The
    witness is the first maximizer in (length, lexicographic) order, at any
    chunk size. Zero measure entries produce an infinite envelope.
    """
    q, size = len(mats), mu0.shape[0]
    wide = np.concatenate(mats, axis=1)
    step = max(1, _CHUNK_ROWS // (size * q))
    flat = np.empty(step * q * size)
    log_pi_flat = np.tile(log_pi, step * q)
    best, best_key = -np.inf, (0, 0)           # witness (length, lexicographic index)
    stack = [[mu0.reshape(1, size), 0, 0, 0]]  # chunk, length, first index, next row
    while stack:
        rows, length, first, offset = frame = stack[-1]
        if offset == 0:
            scores = flat[:rows.size]
            with np.errstate(divide="ignore"):
                np.log(rows.reshape(-1), out=scores)
            np.abs(np.subtract(scores, log_pi_flat[:rows.size], out=scores), out=scores)
            top = int(scores.argmax())
            key = (length, first + top // size)
            if scores[top] > best or (scores[top] == best and key < best_key):
                best, best_key = float(scores[top]), key
        if length == depth or offset >= len(rows):
            stack.pop()
        else:
            frame[3] = offset + step
            children = (rows[offset:offset + step] @ wide).reshape(-1, size)
            stack.append([children, length + 1, (first + offset) * q, 0])
    length, index = best_key
    return best, tuple(index // q ** (length - 1 - i) % q for i in range(length))


def ratio_envelope(kernels, mu0: ProbMeasure, pi: ProbMeasure, depth: int,
                   budget_nodes: int = DEFAULT_BUDGET_NODES,
                   c_threshold: float | None = None) -> StabilityReport:
    """Exact ratio envelope of ``mu0`` against ``pi`` over the word tree.

    ``c_estimate`` is the max over all words of length at most ``depth``
    (the empty word included) and all states of
    ``max(mu_w(x)/pi(x), pi(x)/mu_w(x))``; it never decreases with depth.
    When ``c_threshold`` is given, ``criterion_pass`` records whether the
    envelope stayed at or below it.
    """
    mats = _tree_matrices(kernels, depth, budget_nodes, mu0, pi)
    log_best, word = _walk_envelope(mats, mu0.weights, np.log(pi.weights), depth)
    c = float(np.exp(log_best))
    return StabilityReport(
        candidate_pi=pi,
        mu0=mu0,
        depth=depth,
        c_estimate=c,
        witness_word=word,
        criterion_pass=None if c_threshold is None else bool(c <= c_threshold),
    )


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
    not as a proof. Witnesses list the first failing words in lexicographic
    order, at most ten of them.
    """
    mats = _tree_matrices(kernels, depth, budget_nodes, pi)
    lo = pi.weights / c
    hi = pi.weights * c
    witnesses: list[CriterionWitness] = []
    for word, matrix in _preorder_products(mats, (), np.eye(pi.space.size), depth):
        k = StochasticKernel(pi.space, matrix)
        structure = classify_structure(k)
        if not (structure.irreducible and structure.aperiodic):
            reason = "reducible" if not structure.irreducible else "periodic"
            witnesses.append(CriterionWitness(word, reason,
                                              f"recurrent classes {structure.recurrent_classes}"))
        else:
            pw = stationary_measure(k).weights
            if (pw < lo - VALUE_ATOL).any() or (pw > hi + VALUE_ATOL).any():
                state = int(np.argmax(np.maximum(lo - pw, pw - hi)))
                witnesses.append(CriterionWitness(
                    word, "band",
                    f"state {state}: pi_w={pw[state]:.6g} outside [{lo[state]:.6g}, {hi[state]:.6g}]"))
        if len(witnesses) >= _MAX_WITNESSES:
            break
    return len(witnesses) == 0, witnesses


def _preorder_products(mats, word: tuple[int, ...], matrix: np.ndarray, depth: int):
    """``(word + w, matrix @ P_w)`` in preorder, for each non-empty ``w`` with
    ``|word + w| <= depth``."""
    for j, m in enumerate(mats):
        child = matrix @ m
        yield word + (j,), child
        if len(word) + 1 < depth:
            yield from _preorder_products(mats, word + (j,), child, depth)


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

    def objective(w: np.ndarray) -> float:
        value, _ = _walk_envelope(mats, w, log_pi, depth)
        return value

    starts = [pi.weights, np.full(size, 1.0 / size)]
    leaf_measures = []
    for k in kernels:
        if classify_structure(k).irreducible:
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
    best_w = None
    best_f = np.inf
    for start in starts:
        w = start.copy()
        f = objective(w)
        step = 0.25
        for _ in range(_SEARCH_PASSES):
            improved = False
            for x in rng.permutation(size):
                for factor in (1.0 + step, 1.0 / (1.0 + step)):
                    trial = w.copy()
                    trial[x] *= factor
                    trial /= trial.sum()
                    ft = objective(trial)
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
    mu0 = ProbMeasure(pi.space, best_w)
    return mu0, float(np.exp(best_f))


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

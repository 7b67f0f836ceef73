import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mclab import (
    EnumerationBudgetError,
    KernelSequence,
    ProbMeasure,
    ReducibleKernelError,
    StateSpace,
    StochasticKernel,
    classify_structure,
    compose,
    limit_row_estimate,
    perturbed_stick_pair,
    product_invariant_criterion,
    ratio_envelope,
    search_stable_measure,
    small_example,
    stationary_measure,
    two_point_classify,
)
from mclab import chain_core, stability
from mclab.chain_core import VALUE_ATOL
from mclab.stability import envelope_summary_csv

from conftest import random_kernel


def envelope_oracle(kernels, mu0, pi, depth):
    """Plain nested-loop envelope for cross-checking the chunked walker."""
    best = 0.0
    best_word = ()
    for d in range(depth + 1):
        for word in itertools.product(range(len(kernels)), repeat=d):
            mu = mu0.weights
            for j in word:
                mu = mu @ kernels[j].entries
            with np.errstate(divide="ignore"):
                score = np.abs(np.log(mu) - np.log(pi.weights)).max()
            if score > best:
                best, best_word = score, word
    return math.exp(best), best_word


def criterion_oracle(kernels, pi, depth, c):
    """First ten failing ``(word, reason)`` pairs, each product folded by ``compose``."""
    words = sorted(word for d in range(1, depth + 1)  # sorted tuples are in preorder
                   for word in itertools.product(range(len(kernels)), repeat=d))
    lo, hi = pi.weights / c, pi.weights * c
    failures = []
    for word in words:
        product = functools.reduce(compose, [kernels[j] for j in word])
        structure = classify_structure(product)
        if not structure.irreducible:
            failures.append((word, "reducible"))
        elif not structure.aperiodic:
            failures.append((word, "periodic"))
        else:
            pw = stationary_measure(product).weights
            if (pw < lo - VALUE_ATOL).any() or (pw > hi + VALUE_ATOL).any():
                failures.append((word, "band"))
        if len(failures) == 10:
            break
    return failures


def circulant(space, row):
    n = space.size
    m = np.stack([np.roll(row, shift) for shift in range(n)])
    return StochasticKernel(space, m)


class TestRatioEnvelope:
    def test_stationary_singleton_is_one(self, rng):
        k = random_kernel(rng, 5)
        pi = stationary_measure(k)
        rep = ratio_envelope([k], pi, pi, depth=8)
        assert rep.c_estimate == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariant_kernels_are_one_stable(self, rng):
        # circulant kernels preserve the uniform measure exactly
        space = StateSpace(5)
        kernels = [circulant(space, rng.dirichlet(np.ones(5))) for _ in range(3)]
        uniform = ProbMeasure.uniform(space)
        rep = ratio_envelope(kernels, uniform, uniform, depth=6)
        assert rep.c_estimate == pytest.approx(1.0, abs=1e-9)

    def test_matches_bruteforce_oracle(self, rng):
        kernels = [random_kernel(rng, 4, zero_prob=0.2) for _ in range(2)]
        mu0 = ProbMeasure(kernels[0].space, rng.dirichlet(np.full(4, 2.0)))
        pi = ProbMeasure.uniform(kernels[0].space)
        rep = ratio_envelope(kernels, mu0, pi, depth=7)
        oracle_c, oracle_word = envelope_oracle(kernels, mu0, pi, 7)
        assert rep.c_estimate == pytest.approx(oracle_c, rel=1e-12)
        assert rep.witness_word == oracle_word

    def test_monotone_in_depth(self, rng):
        kernels = [random_kernel(rng, 3) for _ in range(2)]
        mu0 = ProbMeasure(kernels[0].space, rng.dirichlet(np.ones(3)))
        pi = ProbMeasure.uniform(kernels[0].space)
        values = [ratio_envelope(kernels, mu0, pi, depth=d).c_estimate
                  for d in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_stick_pair_envelope_grows_with_size(self):
        values = {}
        for n in (5, 11):
            q1, q2 = perturbed_stick_pair(n, 0.6, 0.4, 0.0, 0.0, 0.0)
            uniform = ProbMeasure.uniform(q1.space)
            rep = ratio_envelope([q1, q2], uniform, uniform, depth=2 * n,
                                 budget_nodes=1 << 24)
            values[n] = rep.c_estimate
        assert values[11] > values[5] > 2.0

    def test_budget_error(self, rng):
        kernels = [random_kernel(rng, 3) for _ in range(2)]
        uniform = ProbMeasure.uniform(kernels[0].space)
        with pytest.raises(EnumerationBudgetError):
            ratio_envelope(kernels, uniform, uniform, depth=25, budget_nodes=1000)

    def test_threshold_flag(self, rng):
        k = random_kernel(rng, 4)
        pi = stationary_measure(k)
        rep = ratio_envelope([k], pi, pi, depth=3, c_threshold=1.5)
        assert rep.criterion_pass is True

    def test_summary_csv(self, rng, tmp_path):
        k = random_kernel(rng, 3)
        pi = stationary_measure(k)
        reports = [ratio_envelope([k], pi, pi, depth=d) for d in (1, 2)]
        path = tmp_path / "summary.csv"
        envelope_summary_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "depth,c_estimate" and len(lines) == 3


class TestProductInvariantCriterion:
    def test_single_ergodic_kernel_passes(self, rng):
        k = random_kernel(rng, 4)
        pi = stationary_measure(k)
        ok, witnesses = product_invariant_criterion([k], pi, depth=4, c=1.0 + 1e-9)
        assert ok and not witnesses

    def test_stick_pair_fails_with_alternating_witness(self):
        n = 11
        q1, q2 = perturbed_stick_pair(n, 0.6, 0.4, 0.0, 0.0, 0.0)
        uniform = ProbMeasure.uniform(q1.space)
        ok, witnesses = product_invariant_criterion([q1, q2], uniform, depth=2, c=2.0)
        assert not ok
        assert witnesses[0].word == (0, 1)
        assert witnesses[0].reason == "band"

    def test_pass_implies_envelope_within_squared_constant(self, rng):
        # no exact constant relation is known between the two notions, so
        # this pins the observed behavior on concrete stable sets
        n, p, q, r = 7, 0.5, 0.3, 0.2
        pair = list(perturbed_stick_pair(n, p, q, r, eta1=q + r, eta2=p + r))
        uniform = ProbMeasure.uniform(pair[0].space)
        c = 1.05
        ok, _ = product_invariant_criterion(pair, uniform, depth=4, c=c)
        assert ok
        envelope = ratio_envelope(pair, uniform, uniform, depth=4)
        assert envelope.c_estimate <= c * c

    def test_stick_pair_witnesses_match_preorder_oracle(self):
        pair = list(perturbed_stick_pair(11, 0.6, 0.4, 0.0, 0.0, 0.0))
        uniform = ProbMeasure.uniform(pair[0].space)
        ok, witnesses = product_invariant_criterion(pair, uniform, depth=12, c=2.0)
        found = [(w.word, w.reason) for w in witnesses]
        assert not ok and found == criterion_oracle(pair, uniform, 12, 2.0)
        assert found[0][0] == (0,) * 11 + (1,)
        assert len(found) == 10 and {len(word) for word, _ in found} == {9, 10, 11, 12}

    def test_random_set_witnesses_match_preorder_oracle(self, rng):
        kernels = [random_kernel(rng, 4, zero_prob=0.3) for _ in range(3)]
        uniform = ProbMeasure.uniform(kernels[0].space)
        ok, witnesses = product_invariant_criterion(kernels, uniform, depth=5, c=3.0)
        found = [(w.word, w.reason) for w in witnesses]
        assert not ok and found == criterion_oracle(kernels, uniform, 5, 3.0)
        assert len(found) == 10 and len({len(word) for word, _ in found}) > 1

    def test_each_word_is_classified_once(self, monkeypatch):
        pair = list(perturbed_stick_pair(11, 0.6, 0.4, 0.0, 0.0, 0.0))
        uniform = ProbMeasure.uniform(pair[0].space)
        expected = criterion_oracle(pair, uniform, 6, 2.0)
        calls = []

        def counted(k):
            calls.append(1)
            return classify(k)

        classify = chain_core.classify_structure
        monkeypatch.setattr(chain_core, "classify_structure", counted)
        monkeypatch.setattr(stability, "classify_structure", counted)
        ok, witnesses = product_invariant_criterion(pair, uniform, depth=6, c=1e5)
        assert ok and not witnesses and len(calls) == 2 ** 7 - 2  # every word of 1 to 6 letters
        calls.clear()
        ok, witnesses = product_invariant_criterion(pair, uniform, depth=6, c=2.0)
        assert [(w.word, w.reason) for w in witnesses] == expected and not ok
        words = sorted(word for d in range(1, 7) for word in itertools.product(range(2), repeat=d))
        assert len(calls) == words.index(expected[-1][0]) + 1  # up to the tenth witness
        # the public stationary_measure still classifies, and refuses a reducible kernel
        calls.clear()
        stationary_measure(pair[0])
        assert len(calls) == 1
        with pytest.raises(ReducibleKernelError):
            stationary_measure(StochasticKernel.identity(pair[0].space))

    def test_depth_is_not_bounded_by_the_recursion_limit(self, rng):
        # one kernel: the tree is a path of depth + 1 nodes, well inside the budget
        k = random_kernel(rng, 4)
        pi = stationary_measure(k)
        assert product_invariant_criterion([k], pi, depth=1100, c=1.5) == (True, [])

    def test_five_point_composition_is_not_irreducible(self):
        q0, q1 = small_example("five_point")
        rep = classify_structure(compose(q1, q0))
        assert not rep.irreducible
        uniform = ProbMeasure.uniform(q0.space)
        ok, witnesses = product_invariant_criterion([q0, q1], uniform, depth=2, c=50.0)
        assert not ok
        assert any(w.reason == "reducible" for w in witnesses)


class TestSearchStableMeasure:
    def test_singleton_recovers_stationary(self, rng):
        k = random_kernel(rng, 4)
        pi = stationary_measure(k)
        mu0, c = search_stable_measure([k], pi, depth=4, seed=1)
        assert c == pytest.approx(1.0, abs=1e-8)
        assert np.abs(mu0.weights - pi.weights).max() <= 1e-6

    def test_shared_invariant_pair_gives_exactly_pi(self, rng):
        space = StateSpace(4)
        kernels = [circulant(space, rng.dirichlet(np.ones(4))) for _ in range(2)]
        uniform = ProbMeasure.uniform(space)
        mu0, c = search_stable_measure(kernels, uniform, depth=5, seed=0)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(mu0.weights, uniform.weights)

    def test_uniformizing_etas_make_pair_one_stable(self):
        n, p, q, r = 7, 0.5, 0.3, 0.2
        q1, q2 = perturbed_stick_pair(n, p, q, r, eta1=q + r, eta2=p + r)
        uniform = ProbMeasure.uniform(q1.space)
        mu0, c = search_stable_measure([q1, q2], uniform, depth=5, seed=0)
        assert c <= 1.0 + 1e-9

    def test_reported_c_is_achievable(self, rng):
        kernels = [random_kernel(rng, 3, zero_prob=0.2) for _ in range(2)]
        pi = ProbMeasure.uniform(kernels[0].space)
        mu0, c = search_stable_measure(kernels, pi, depth=4, seed=3)
        recheck = ratio_envelope(kernels, mu0, pi, depth=4)
        assert recheck.c_estimate <= c + 1e-12

    def test_search_budget_raises_before_any_walk(self, monkeypatch):
        # 3 starts x (1 + 40 x 24) walks of the 12-state stick pair: depth 11
        # visits 11.8M nodes, depth 12 23.6M, over the 2**24 search budget
        pair = perturbed_stick_pair(11, 0.6, 0.4, 0.0, 0.0, 0.0)
        uniform = ProbMeasure.uniform(pair[0].space)
        walks = []

        def walk(mats, mu0, log_pi, depth):
            walks.append(depth)
            return 0.0, ()

        monkeypatch.setattr(stability, "_walk_envelope", walk)
        for depth in (12, 19):
            with pytest.raises(EnumerationBudgetError, match="search"):
                search_stable_measure(list(pair), uniform, depth=depth)
        assert walks == []
        search_stable_measure(list(pair), uniform, depth=11)
        assert walks and set(walks) == {11}

    def test_each_start_kernel_is_classified_once(self, rng, monkeypatch):
        # the reducible kernel gives no start; the irreducible one gives the barycenter
        space = StateSpace(3)
        reducible = StochasticKernel(space, np.eye(3))
        k = random_kernel(rng, 3)
        calls = []
        classify = chain_core.classify_structure

        def spy(kernel):
            calls.append(kernel)
            return classify(kernel)

        monkeypatch.setattr(chain_core, "classify_structure", spy)
        uniform = ProbMeasure.uniform(space)
        mu0, c = search_stable_measure([k, reducible], uniform, depth=1, seed=0)
        assert calls == [k, reducible]
        recheck = ratio_envelope([k, reducible], mu0, uniform, depth=1)
        assert recheck.c_estimate <= c + 1e-12


class TestTwoPointClassify:
    def test_paper_pattern_is_unstable(self):
        kernels = small_example("two_point", a=0.4, b=0.7)
        verdict, witness = two_point_classify(kernels)
        assert verdict == "unstable"
        assert witness == (0, 1)

    def test_singleton_is_stable(self):
        swap = StochasticKernel(StateSpace(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert two_point_classify([swap])[0] == "stable"

    def test_positive_diagonals_are_stable(self, rng):
        kernels = [random_kernel(rng, 2) for _ in range(3)]
        assert two_point_classify(kernels)[0] == "stable"

    def test_rejects_larger_kernels(self, rng):
        with pytest.raises(ValueError):
            two_point_classify([random_kernel(rng, 3)])

    def test_unstable_pair_envelope_diverges(self, rng):
        kernels = small_example("two_point", a=0.5, b=0.5)
        uniform = ProbMeasure.uniform(kernels[0].space)
        values = [ratio_envelope(list(kernels), uniform, uniform, depth=d).c_estimate
                  for d in (2, 4, 6, 8, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))
        # alternating the two kernels drains one state geometrically
        assert values[-1] > 4.0 * values[0]


class TestLimitRow:
    def test_homogeneous_converges_to_stationary(self, rng):
        k = random_kernel(rng, 5)
        pi = stationary_measure(k)
        est = limit_row_estimate(KernelSequence.constant(k), n=3, m_min=-60)
        assert est.spread < 1e-10
        assert np.abs(est.measure.weights - pi.weights).max() < 1e-9
        assert not est.extension_is_convention

    def test_spread_decays_geometrically(self, rng):
        k = random_kernel(rng, 4)
        est = limit_row_estimate(KernelSequence.constant(k), n=0, m_min=-40)
        tail = est.spreads[-10:]
        assert all(b <= a * 0.9 for a, b in zip(tail, tail[1:]))

    def test_sia_products_merge(self, rng):
        kernels = [random_kernel(rng, 4) for _ in range(2)]
        # strictly positive kernels: every finite product forgets the start
        est = limit_row_estimate(KernelSequence.iid(kernels, seed=5), n=2, m_min=-50)
        assert est.spread < 1e-12

    def test_seven_point_never_merges(self):
        q0, q1 = small_example("seven_point")
        seq = KernelSequence.cyclic([q1, q0])
        est = limit_row_estimate(seq, n=4, m_min=-100)
        assert est.spread >= 0.5

    def test_spread_is_monotone(self, rng):
        kernels = [random_kernel(rng, 4, zero_prob=0.4) for _ in range(2)]
        est = limit_row_estimate(KernelSequence.iid(kernels, seed=8), n=0, m_min=-60)
        assert (np.diff(est.spreads) <= 1e-12).all()

    def test_explicit_list_flags_convention(self, rng):
        seq = KernelSequence.explicit([random_kernel(rng, 3) for _ in range(3)])
        est = limit_row_estimate(seq, n=1, m_min=-10)
        assert est.extension_is_convention


class TestWordTreeTraversal:
    # at 4 states and 3 letters these chunks expand 1, 1, 4 and 2730 rows at
    # a time: from one word's children up to whole levels of depth 5
    @pytest.mark.parametrize("chunk", [4, 16, 48, 1 << 15])
    def test_split_tree_matches_bruteforce_oracle(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(stability, "_CHUNK_ROWS", chunk)
        kernels = [random_kernel(rng, 4, zero_prob=0.2) for _ in range(3)]
        mu0 = ProbMeasure(kernels[0].space, rng.dirichlet(np.full(4, 2.0)))
        pi = ProbMeasure(kernels[0].space, rng.dirichlet(np.full(4, 3.0)))
        rep = ratio_envelope(kernels, mu0, pi, depth=5)
        oracle_c, oracle_word = envelope_oracle(kernels, mu0, pi, 5)
        assert rep.c_estimate == pytest.approx(oracle_c, rel=1e-12)
        assert rep.witness_word == oracle_word

    @pytest.mark.parametrize("chunk", [3, 6, 12, 1 << 15])
    def test_identical_kernels_witness_is_first_in_length_lex_order(self, monkeypatch, chunk):
        # a 3-cycle permutation multiplies exactly, so all words of one
        # length tie exactly; the ratio peaks at lengths 2 and 5
        monkeypatch.setattr(stability, "_CHUNK_ROWS", chunk)
        space = StateSpace(3)
        cycle = StochasticKernel(space, np.roll(np.eye(3), 1, axis=1))
        mu0 = ProbMeasure(space, np.array([0.2, 0.3, 0.5]))
        pi = ProbMeasure(space, np.array([0.4, 0.2, 0.4]))
        rep = ratio_envelope([cycle, cycle], mu0, pi, depth=6)
        oracle_c, oracle_word = envelope_oracle([cycle, cycle], mu0, pi, 6)
        assert rep.c_estimate == pytest.approx(oracle_c, rel=1e-12)
        assert rep.witness_word == oracle_word == (0, 0)

    @pytest.mark.parametrize("chunk", [8, 1 << 15])
    def test_identical_random_kernels_match_oracle(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(stability, "_CHUNK_ROWS", chunk)
        # starting at pi, the ratio grows with length as the walk drifts to
        # the kernel's own invariant measure: all 64 words of length 6 tie
        k = random_kernel(rng, 4, low=0.01)
        pi = ProbMeasure(k.space, rng.dirichlet(np.ones(4)))
        rep = ratio_envelope([k, k], pi, pi, depth=6)
        oracle_c, oracle_word = envelope_oracle([k, k], pi, pi, 6)
        assert rep.c_estimate == pytest.approx(oracle_c, rel=1e-12)
        assert rep.witness_word == oracle_word == (0,) * 6

    @pytest.mark.parametrize("chunk", [3, 6, 12, 24, 1 << 15])
    @pytest.mark.parametrize("pi_weights, witness", [((0.1, 0.45, 0.45), (1,)),
                                                     ((0.45, 0.1, 0.45), (1, 1))])
    def test_witness_is_first_in_length_lex_order_at_any_chunk(self, monkeypatch, chunk,
                                                               pi_weights, witness):
        # with the identity beside a 3-cycle shift, every word holding the
        # same number of shifts (mod 3) gives the same measure exactly; the
        # ratio peaks at one shift, or at two with the second pi, where a
        # depth-first walk reaches (0, 1, 1) before (1, 1)
        monkeypatch.setattr(stability, "_CHUNK_ROWS", chunk)
        space = StateSpace(3)
        kernels = [StochasticKernel(space, np.eye(3)),
                   StochasticKernel(space, np.roll(np.eye(3), 1, axis=1))]
        mu0 = ProbMeasure(space, np.array([0.2, 0.3, 0.5]))
        pi = ProbMeasure(space, np.array(pi_weights))
        rep = ratio_envelope(kernels, mu0, pi, depth=4)
        oracle_c, oracle_word = envelope_oracle(kernels, mu0, pi, 4)
        assert rep.c_estimate == pytest.approx(oracle_c, rel=1e-12)
        assert rep.witness_word == oracle_word == witness

    def test_depth_first_walk_holds_one_chunk_per_level(self):
        # certify's input: a whole level 19 would take 2**19 x 12 floats (48 MiB)
        q1, q2 = perturbed_stick_pair(11, 0.6, 0.4, 0.0, 0.0, 0.0)
        uniform = ProbMeasure.uniform(q1.space)
        tracemalloc.start()
        try:
            ratio_envelope([q1, q2], uniform, uniform, depth=19)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024


def _entry_calls(kernels, pi, depth):
    return [
        lambda: ratio_envelope(kernels, pi, pi, depth),
        lambda: product_invariant_criterion(kernels, pi, depth, c=2.0),
        lambda: search_stable_measure(kernels, pi, depth),
    ]


class TestEntryChecks:
    @pytest.mark.parametrize("which", range(3))
    @pytest.mark.parametrize("depth", [0, -2])
    def test_depth_below_one(self, rng, which, depth):
        k = random_kernel(rng, 3)
        with pytest.raises(ValueError, match="depth"):
            _entry_calls([k], ProbMeasure.uniform(k.space), depth)[which]()

    @pytest.mark.parametrize("which", range(3))
    def test_empty_kernel_set(self, which):
        with pytest.raises(ValueError, match="non-empty"):
            _entry_calls([], ProbMeasure.uniform(StateSpace(3)), 2)[which]()

    @pytest.mark.parametrize("which", range(3))
    @pytest.mark.parametrize("space", [StateSpace(4), StateSpace(3, ("a", "b", "c"))])
    def test_mismatched_spaces(self, rng, which, space):
        k = random_kernel(rng, 3)
        with pytest.raises(ValueError, match="different state spaces"):
            _entry_calls([k], ProbMeasure.uniform(space), 2)[which]()

    @pytest.mark.parametrize("which", range(3))
    def test_measure_not_strictly_positive(self, rng, which):
        k = random_kernel(rng, 3)
        with pytest.raises(ValueError, match="strictly positive"):
            _entry_calls([k], ProbMeasure.dirac(k.space, 0), 2)[which]()

    @pytest.mark.parametrize("c", [float("nan"), 0.5, -1.0])
    def test_c_must_be_a_number_at_least_one(self, rng, c):
        # checked before the budget, which a depth-40 tree over 4 kernels exceeds
        kernels = [random_kernel(rng, 3) for _ in range(4)]
        uniform = ProbMeasure.uniform(kernels[0].space)
        with pytest.raises(ValueError, match="c must be a number >= 1"):
            product_invariant_criterion(kernels, uniform, 40, c=c)
        with pytest.raises(ValueError, match="c_threshold must be a number >= 1"):
            ratio_envelope(kernels, uniform, uniform, 40, c_threshold=c)
        # 1 itself is a constant: the band is pi alone
        product_invariant_criterion(kernels[:1], uniform, 2, c=1.0)
        ratio_envelope(kernels[:1], uniform, uniform, 2, c_threshold=1.0)

    @pytest.mark.parametrize("which", range(3))
    def test_value_checks_come_before_the_budget(self, rng, which):
        kernels = [random_kernel(rng, 3) for _ in range(4)]
        uniform = ProbMeasure.uniform(kernels[0].space)
        with pytest.raises(ValueError, match="depth"):
            _entry_calls(kernels * 8, uniform, 0)[which]()
        with pytest.raises(EnumerationBudgetError):
            _entry_calls(kernels, uniform, 40)[which]()

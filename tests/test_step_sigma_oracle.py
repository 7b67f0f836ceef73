"""``step_sigma`` against a 50-digit SVD, its two paths, and its lazy LAPACK import."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import mclab
from mclab import ProbMeasure, StateSpace, StochasticKernel, stationary_measure, step_sigma
from mclab.chain_core import evolve
from mclab.rng import substream
from mclab.scenarios import GENERATORS
from mclab.singular import UNIT_ROUNDOFF, _dense_sigma

from conftest import random_kernel, random_reversible_kernel

#: the 50-digit SVD's own error: it puts the exact zero of a rank-one operator near 1e-51
ORACLE_ATOL = 1e-45


def oracle_sigma2(k, mu_prev, mu_next):
    """Second singular value of ``diag(mu_prev)^(1/2) K diag(mu_next)^(-1/2)`` at 50 digits.

    The operator is built exactly from the floating-point inputs, so the
    reference carries no rounding of its own to speak of.
    """
    with mpmath.workdps(50):
        a = [mpmath.sqrt(mpmath.mpf(float(x))) for x in mu_prev.weights]
        b = [mpmath.sqrt(mpmath.mpf(float(x))) for x in mu_next.weights]
        n = len(a)
        m = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                m[i, j] = a[i] * mpmath.mpf(float(k.entries[i, j])) / b[j]
        return sorted(mpmath.svd_r(m, compute_uv=False))[-2]


def row_constant_step(rng, n):
    row = rng.dirichlet(np.full(n, 2.0))
    k = StochasticKernel(StateSpace(n), np.tile(row, (n, 1)))
    return k, ProbMeasure(k.space, rng.dirichlet(np.full(n, 2.0))), ProbMeasure(k.space, row)


def reversible_stationary_step(rng, n):
    k = random_reversible_kernel(rng, n, lazy=float(rng.uniform(0.0, 0.5)))
    pi = stationary_measure(k)
    return k, pi, pi


def near_periodic_step(rng, n):
    # a permutation with leakage eps: sigma_2 is within about eps of 1
    eps = 10.0 ** -float(rng.uniform(2, 9))
    perm = np.eye(n)[rng.permutation(n)]
    leak = random_kernel(rng, n).entries
    k = StochasticKernel(StateSpace(n), (1 - eps) * perm + eps * leak)
    mu_prev = ProbMeasure(k.space, rng.dirichlet(np.full(n, 3.0)))
    return k, mu_prev, ProbMeasure(k.space, mu_prev.weights @ k.entries)


def random_step(rng, n):
    k = random_kernel(rng, n)
    mu_prev = ProbMeasure(k.space, rng.dirichlet(np.full(n, 2.0)))
    return k, mu_prev, ProbMeasure(k.space, mu_prev.weights @ k.entries)


def birth_death(rng, hold):
    """Tridiagonal kernel: hold ``hold[x]`` at x, split the rest at random between the neighbours."""
    n = len(hold)
    up = rng.uniform(0.05, 0.95, n)
    up[0], up[-1] = 1.0, 0.0
    entries = np.diag(hold)
    entries[np.arange(n - 1), np.arange(1, n)] = (1.0 - hold[:-1]) * up[:-1]
    entries[np.arange(1, n), np.arange(n - 1)] = (1.0 - hold[1:]) * (1.0 - up[1:])
    return StochasticKernel(StateSpace(n), entries)


def random_bd_step(rng, n):
    k = birth_death(rng, rng.uniform(0.0, 0.9, n))
    mu_prev = ProbMeasure(k.space, rng.dirichlet(np.full(n, 2.0)))
    return k, mu_prev, ProbMeasure(k.space, mu_prev.weights @ k.entries)


def near_periodic_bd_step(rng, n):
    # holding eps: without it the chain alternates parity, so sigma_2 is within about eps of 1
    k = birth_death(rng, np.full(n, 10.0 ** -float(rng.uniform(2, 9))))
    mu_prev = ProbMeasure(k.space, rng.dirichlet(np.full(n, 3.0)))
    return k, mu_prev, ProbMeasure(k.space, mu_prev.weights @ k.entries)


# the two birth-death families take the band path from 3 states on, the others the dense path
@pytest.mark.parametrize("family", [row_constant_step, reversible_stationary_step,
                                    near_periodic_step, random_step,
                                    random_bd_step, near_periodic_bd_step])
def test_step_sigma_bounds_mpmath_svd_from_above(rng, family):
    # 6 families x 60 steps of 2 to 9 states
    for _ in range(60):
        n = int(rng.integers(2, 10))
        k, mu_prev, mu_next = family(rng, n)
        sigma = mpmath.mpf(step_sigma(k, mu_prev, mu_next))
        exact = oracle_sigma2(k, mu_prev, mu_next)
        assert sigma >= exact - ORACLE_ATOL, (family.__name__, n, float(exact), float(sigma - exact))
        assert sigma - exact <= 1e-12, (family.__name__, n, float(exact), float(sigma - exact))


@pytest.mark.parametrize("size", [65, 129])
def test_band_and_dense_paths_agree_within_their_round_ups(size):
    seq, _ = GENERATORS["bd_ratio_set"]({"set_size": 8}, {"N": size - 1}, substream(17, size))
    measures = evolve(ProbMeasure.uniform(seq.space), seq, 30)
    u = UNIT_ROUNDOFF
    for i in range(1, 31):
        k = seq.kernel_at(i)
        assert k.bandwidth == 1
        band = step_sigma(k, measures[i - 1], measures[i])
        dense = _dense_sigma(k.entries, measures[i - 1].weights, measures[i].weights)
        # the round-ups the step_sigma docstring states: relative on the dense path,
        # absolute on the band path
        dense_round_up = (1.5 * size ** 2 + 8 * math.sqrt(size)) * u * dense
        band_round_up = (size ** 2 + 4) * u / (2 * band) + 13 * u
        assert abs(band - dense) <= dense_round_up + band_round_up, (i, band, dense)


@pytest.mark.parametrize("family", [random_bd_step, near_periodic_bd_step])
def test_band_round_up_covers_a_solver_at_its_error_bound(rng, monkeypatch, family):
    # the band round-up allows dsbevx the eigenvalues of Ĝ + E with ‖E‖₂ ≤ N²·u·‖Ĝ‖₂;
    # a solver that shifts both eigenvalues down by nearly that much must not push
    # σ̂ below the exact σ₂
    import scipy.linalg.lapack as lapack

    solver = lapack.dsbevx

    def low_solver(ab, *args):
        w, *rest = solver(ab, *args)
        n = ab.shape[1]
        w[:2] -= 0.99 * n * n * UNIT_ROUNDOFF * w[1]
        return (w, *rest)

    monkeypatch.setattr(lapack, "dsbevx", low_solver)
    for _ in range(40):
        n = int(rng.integers(3, 10))
        k, mu_prev, mu_next = family(rng, n)
        sigma = mpmath.mpf(step_sigma(k, mu_prev, mu_next))
        exact = oracle_sigma2(k, mu_prev, mu_next)
        assert sigma >= exact - ORACLE_ATOL, (n, float(exact), float(sigma - exact))


class DenseSolverCalled(Exception):
    pass


def refuse_dense_solver(monkeypatch):
    """Make the dense path's eigensolver raise, so a step that returns took the band path."""
    import scipy.linalg.lapack as lapack

    def refuse(*args, **kwargs):
        raise DenseSolverCalled

    monkeypatch.setattr(lapack, "dsyevr", refuse)


def test_path_is_chosen_from_the_support(rng, monkeypatch):
    refuse_dense_solver(monkeypatch)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        k, mu_prev, mu_next = random_bd_step(rng, n)
        sigma = mpmath.mpf(step_sigma(k, mu_prev, mu_next))
        exact = oracle_sigma2(k, mu_prev, mu_next)
        assert exact - ORACLE_ATOL <= sigma <= exact + 1e-12
        # one entry at distance 2, however small, puts the step on the dense path
        entries = k.entries.copy()
        x = int(rng.integers(0, n - 2))
        entries[x, x + 2] = 1e-30
        wide = StochasticKernel(k.space, entries)
        with pytest.raises(DenseSolverCalled):
            step_sigma(wide, mu_prev, ProbMeasure(k.space, mu_prev.weights @ wide.entries))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fewest_states(rng, monkeypatch, n):
    if n == 1:
        space = StateSpace(1)
        k, mu_prev, mu_next = (StochasticKernel(space, [[1.0]]), ProbMeasure(space, [1.0]),
                               ProbMeasure(space, [1.0]))
    else:
        k, mu_prev, mu_next = random_bd_step(rng, n)
    sigma = step_sigma(k, mu_prev, mu_next)
    if n == 1:
        assert sigma == 0.0  # a one-state step has no second singular value
    else:
        exact = oracle_sigma2(k, mu_prev, mu_next)
        assert exact - ORACLE_ATOL <= mpmath.mpf(sigma) <= exact + 1e-12
    # every kernel of 1 or 2 states is tridiagonal, but the band path starts at 3
    refuse_dense_solver(monkeypatch)
    if n < 3:
        with pytest.raises(DenseSolverCalled):
            step_sigma(k, mu_prev, mu_next)
    else:
        assert step_sigma(k, mu_prev, mu_next) == sigma


def test_import_leaves_scipy_linalg_unloaded():
    # step_sigma imports scipy's LAPACK wrappers on first use, not with the package
    src = Path(mclab.__file__).resolve().parents[1]
    code = ("import sys, mclab; print('scipy.linalg' in sys.modules); "
            "k = mclab.StochasticKernel(mclab.StateSpace(2), [[0.5, 0.5], [0.5, 0.5]]); "
            "mu = mclab.ProbMeasure.uniform(k.space); mclab.step_sigma(k, mu, mu); "
            "print('scipy.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout.split() == ["False", "True"]

"""``step_sigma`` against a 50-digit SVD, and its lazy LAPACK import."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import mclab
from mclab import ProbMeasure, StateSpace, StochasticKernel, stationary_measure, step_sigma

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


@pytest.mark.parametrize("family", [row_constant_step, reversible_stationary_step,
                                    near_periodic_step, random_step])
def test_step_sigma_bounds_mpmath_svd_from_above(rng, family):
    # 4 families x 60 steps of 2 to 9 states
    for _ in range(60):
        n = int(rng.integers(2, 10))
        k, mu_prev, mu_next = family(rng, n)
        sigma = mpmath.mpf(step_sigma(k, mu_prev, mu_next))
        exact = oracle_sigma2(k, mu_prev, mu_next)
        assert sigma >= exact - ORACLE_ATOL, (family.__name__, n, float(exact), float(sigma - exact))
        assert sigma - exact <= 1e-12, (family.__name__, n, float(exact), float(sigma - exact))


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

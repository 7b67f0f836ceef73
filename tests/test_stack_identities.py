"""Bit identities the stacked first passage relies on.

``first_passages`` walks several sequences as one ``(R, N, N)`` stack and
promises each the bits of its walk alone. That holds only while numpy and
the BLAS give a stacked operation the bits of the same operation on each
slice: the product (one ``np.matmul`` at the sizes in ``SIZES``, blocks of
columns or rows at those in ``BLOCK_SIZES``), the row sums and the
division. If a numpy or BLAS release breaks one of these identities, the
test named after it fails here, instead of scenario rows moving silently.
"""

import numpy as np
import pytest

from mclab.chain_core import _BAND_BLOCK, kernel_matmul, renormalized_step

SIZES = [9, 17, 33, 65]
BLOCK_SIZES = [129, 257]
WIDTH = 8


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def stochastic_stack(rng, n, width=WIDTH, zero_prob=0.3):
    m = rng.uniform(0.0, 1.0, (width, n, n))
    m = np.where(rng.random((width, n, n)) < zero_prob, 0.0, m)
    m[:, np.arange(n), np.arange(n)] += 1e-3
    return m / m.sum(axis=-1, keepdims=True)


def walked_stack(rng, n, steps=5):
    """A stack of products a few steps into a walk, with rounding in their low bits."""
    p = np.repeat(np.eye(n)[None], WIDTH, axis=0)
    for _ in range(steps):
        p = p @ stochastic_stack(rng, n)
        p /= p.sum(axis=-1, keepdims=True)
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(1729)


@pytest.mark.parametrize("n", SIZES)
def test_stacked_matmul_is_per_slice_matmul(rng, n):
    p, k = walked_stack(rng, n), stochastic_stack(rng, n)
    stacked = np.matmul(p, k)
    assert all(same_bits(stacked[r], p[r] @ k[r]) for r in range(WIDTH))
    backward = np.matmul(k, p)
    assert all(same_bits(backward[r], k[r] @ p[r]) for r in range(WIDTH))


@pytest.mark.parametrize("n", SIZES)
def test_stack_of_one_is_the_matrix(rng, n):
    p, k = walked_stack(rng, n)[0], stochastic_stack(rng, n)[0]
    assert same_bits(np.matmul(p[None], k[None])[0], p @ k)


@pytest.mark.parametrize("n", SIZES)
def test_add_reduce_is_sum(rng, n):
    q = np.matmul(walked_stack(rng, n), stochastic_stack(rng, n))
    sums = np.add.reduce(q, axis=-1)
    assert all(same_bits(sums[r], q[r].sum(axis=1)) for r in range(WIDTH))
    assert same_bits(np.add.reduce(q[3], axis=-1), q[3].sum(axis=1))


@pytest.mark.parametrize("n", SIZES)
def test_in_place_divide_is_divide(rng, n):
    q = np.matmul(walked_stack(rng, n), stochastic_stack(rng, n))
    sums = np.add.reduce(q, axis=-1)
    expected = [q[r] / sums[r][:, None] for r in range(WIDTH)]
    np.divide(q, sums[..., None], out=q)
    assert all(same_bits(q[r], expected[r]) for r in range(WIDTH))


@pytest.mark.parametrize("order", ["forward", "backward"])
@pytest.mark.parametrize("band", [1, 2])
@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_stacked_block_product_is_per_slice_block_product(rng, n, band, order):
    assert n >= 4 * (_BAND_BLOCK + 2 * band)  # the block path, not one np.matmul
    rows, cols = np.indices((n, n))
    k = np.where(np.abs(rows - cols) <= band, stochastic_stack(rng, n, zero_prob=0.0), 0.0)
    k /= k.sum(axis=-1, keepdims=True)
    p = walked_stack(rng, n)
    stacked = kernel_matmul(p, k, band, order)
    assert all(same_bits(stacked[r], kernel_matmul(p[r], k[r], band, order)) for r in range(WIDTH))
    assert same_bits(kernel_matmul(p[:1], k[:1], band, order)[0], stacked[0])  # a batch of one
    out = np.empty_like(p)  # the stack writes into a buffer it allocated once
    assert kernel_matmul(p, k, band, order, out=out) is out and same_bits(out, stacked)


@pytest.mark.parametrize("order", ["forward", "backward"])
@pytest.mark.parametrize("n", SIZES)
def test_renormalized_step_on_a_stack_is_the_walk_step(rng, n, order):
    # the walk's step as first written: multiply, sum, divide; on the stack
    # or on each slice alone
    p, k = walked_stack(rng, n), stochastic_stack(rng, n)
    p_bits, k_bits = p.tobytes(), k.tobytes()
    q, sums = renormalized_step(p, k, n, order)
    assert sums.shape == (WIDTH, n)
    for r in range(WIDTH):
        ref = p[r] @ k[r] if order == "forward" else k[r] @ p[r]
        ref_sums = ref.sum(axis=1)
        assert same_bits(sums[r], ref_sums)
        assert same_bits(q[r], ref / ref_sums[:, None])
        one, one_sums = renormalized_step(p[r], k[r], n, order)
        assert same_bits(one, q[r]) and same_bits(one_sums, sums[r])
    assert p.tobytes() == p_bits and k.tobytes() == k_bits  # neither operand is written

"""Adder + MUX Bernstein node: the packed bit-sliced kernel against the
count-and-gather reading of the circuit."""

import numpy as np
import pytest

from stochtdr.bernstein import bernstein_mux_packed, stochastic_bernstein_eval
from stochtdr.streams import BitStream


def count_and_gather(copy_bits: np.ndarray, beta_bits: np.ndarray) -> np.ndarray:
    """Output bit r is bit r of coefficient stream number (ones across copies at r)."""
    count = copy_bits.sum(axis=0)
    return np.take_along_axis(beta_bits, count[None], axis=0)[0]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 16])
def test_stochastic_bernstein_eval_matches_count_and_gather(n):
    rng = np.random.default_rng(n)
    L = 37 + n
    copies = [BitStream(rng.integers(0, 2, L)) for _ in range(n)]
    betas = [BitStream(rng.integers(0, 2, L)) for _ in range(n + 1)]
    expected = count_and_gather(np.stack([c.bits for c in copies]),
                                np.stack([b.bits for b in betas]))
    np.testing.assert_array_equal(stochastic_bernstein_eval(copies, betas).bits, expected)


@pytest.mark.parametrize("n,L", [(3, 37), (6, 64), (15, 20)])
def test_packed_kernel_batch_axes_and_zero_padding(n, L):
    rng = np.random.default_rng(L)
    # skew the copies toward ones so that high counts occur
    copy_bits = (rng.random((n, 2, 3, L)) < 0.8).astype(np.uint8)
    beta_bits = rng.integers(0, 2, (n + 1, 2, 3, L), dtype=np.uint8)
    out = bernstein_mux_packed(np.packbits(copy_bits, axis=-1),
                               np.packbits(beta_bits, axis=-1))
    assert out.shape == (2, 3, -(-L // 8))
    bits = np.unpackbits(out, axis=-1)
    np.testing.assert_array_equal(bits[..., :L], count_and_gather(copy_bits, beta_bits))
    assert not bits[..., L:].any()


def test_coefficient_count_must_be_degree_plus_one():
    s = BitStream(np.ones(16, dtype=np.uint8))
    with pytest.raises(ValueError, match="coefficient streams"):
        stochastic_bernstein_eval([s, s], [s, s])

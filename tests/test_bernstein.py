"""Adder + MUX Bernstein node: the packed bit-sliced kernel against the
count-and-gather reading of the circuit, and the rotated copies against
``np.roll``."""

import numpy as np
import pytest

from stochtdr.bernstein import (
    TransformedActivation,
    bernstein_basis,
    bernstein_mux_packed,
    check_fit_size,
    fit_bernstein_coeffs,
    make_independent_copies,
    spread_delays,
    transform_activation,
)
from stochtdr.streams import pack


def count_and_gather(copy_bits: np.ndarray, beta_bits: np.ndarray) -> np.ndarray:
    """Output bit r is bit r of coefficient stream number (ones across copies at r)."""
    count = copy_bits.sum(axis=0)
    return np.take_along_axis(beta_bits, count[None], axis=0)[0]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 16])
def test_stochastic_bernstein_eval_matches_count_and_gather(n):
    rng = np.random.default_rng(n)
    L = 37 + n
    copy_bits = rng.random((n, L)) < 0.5
    beta_bits = rng.random((n + 1, L)) < 0.5
    out = bernstein_mux_packed(pack(copy_bits), pack(beta_bits))
    np.testing.assert_array_equal(np.unpackbits(out, count=L).astype(bool),
                                  count_and_gather(copy_bits, beta_bits))


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
    s = pack(np.ones((2, 16), dtype=bool))
    with pytest.raises(ValueError, match="coefficient streams"):
        bernstein_mux_packed(s, s)


@pytest.mark.parametrize("n,L", [(1, 9), (3, 37), (5, 5), (8, 64)])
def test_copies_are_rotations(n, L):
    bits = np.random.default_rng(L).random((2, 3, L)) < 0.5
    delays = spread_delays(n, L)
    copies = make_independent_copies(bits, delays)
    assert copies.shape == (n, 2, 3, -(-L // 8))
    unpacked = np.unpackbits(copies, axis=-1)
    for j, d in enumerate(delays):
        np.testing.assert_array_equal(unpacked[j, ..., :L], np.roll(bits, d, axis=-1))
    assert not unpacked[..., L:].any()
    # any delay in [0, L) is a rotation, not only the spread ones
    np.testing.assert_array_equal(
        np.unpackbits(make_independent_copies(bits, [L - 1]), axis=-1)[0, ..., :L],
        np.roll(bits, L - 1, axis=-1))


@pytest.mark.parametrize("delays", [[], [0, 9], [-1]])
def test_copy_delays_must_lie_in_the_stream(delays):
    with pytest.raises(ValueError, match="delay"):
        make_independent_copies(np.ones((2, 9), dtype=bool), delays)


@pytest.mark.parametrize("gamma,n", [(0.5, 3), (2.0, 5), (4.0, 7), (-1.5, 4), (6.0, 9)])
def test_fit_matches_bounded_least_squares(gamma, n):
    optimize = pytest.importorskip("scipy.optimize")
    fbar = transform_activation(gamma)
    u = np.linspace(0.0, 1.0, check_fit_size(n))
    A = np.column_stack([bernstein_basis(k, n, u) for k in range(n + 1)])
    f = fbar(u)

    def objective(beta):
        return float(np.sum((A @ np.asarray(beta) - f) ** 2))

    ref = optimize.lsq_linear(A, f, bounds=(0.0, 1.0), method="bvls")
    assert objective(fit_bernstein_coeffs(fbar, n).beta) <= objective(ref.x) + 1e-8


@pytest.mark.parametrize("gamma,delta_s", [(np.nan, 2.0), (np.inf, 2.0), (-np.inf, 2.0),
                                           (0.0, 2.0), (2.0, np.nan), (2.0, np.inf),
                                           (2.0, 0.0), (2.0, -1.0)])
def test_activation_rejects_bad_gamma_and_delta_s(gamma, delta_s):
    with pytest.raises(ValueError, match="gamma|delta_s"):
        TransformedActivation(gamma, delta_s)

"""Adder + MUX Bernstein node: the packed bit-sliced kernel against the
count-and-gather reading of the circuit, and the packed rotated copies
against ``np.roll`` of the unpacked stream."""

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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 12, 16])
def test_stochastic_bernstein_eval_matches_count_and_gather(n):
    # bit r of the copies holds r % (n+1) ones, so every count 0..n occurs,
    # including the top ones that an unpaired MUX-tree entry serves
    rng = np.random.default_rng(n)
    L = 37 + n
    copy_bits = rng.permuted(np.arange(n)[:, None] < np.arange(L) % (n + 1), axis=0)
    beta_bits = rng.random((n + 1, L)) < 0.5
    out = np.unpackbits(bernstein_mux_packed(pack(copy_bits), pack(beta_bits)))
    np.testing.assert_array_equal(out[:L].astype(bool), count_and_gather(copy_bits, beta_bits))
    assert not out[L:].any()


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


def rolled(bits: np.ndarray, delays) -> np.ndarray:
    """The reference copies: each delay's ``np.roll`` of the unpacked streams, packed."""
    return np.stack([pack(np.roll(bits, d, axis=-1)) for d in delays])


@pytest.mark.parametrize("n,L", [(1, 9), (3, 37), (5, 5), (8, 64), (5, 100), (5, 255),
                                 (5, 1000), (5, 1001)])
def test_copies_are_rotations(n, L):
    bits = np.random.default_rng(L).random((2, 3, L)) < 0.5
    delays = spread_delays(n, L)
    copies = make_independent_copies(pack(bits), delays, L)
    assert copies.shape == (n, 2, 3, -(-L // 8))
    # pack() zero-pads, so this also checks that the padding bits are zero
    np.testing.assert_array_equal(copies, rolled(bits, delays))
    # any delay in [0, L) is a rotation, not only the spread ones: every
    # window start, on and off byte boundaries
    every = list(range(L))
    np.testing.assert_array_equal(make_independent_copies(pack(bits), every, L),
                                  rolled(bits, every))
    # all-ones streams: every padding bit past L must still come out zero
    ones = pack(np.ones(L, dtype=bool))
    np.testing.assert_array_equal(make_independent_copies(ones, every, L),
                                  np.broadcast_to(ones, (L,) + ones.shape))


@pytest.mark.parametrize("delays", [[], [0, 9], [-1]])
def test_copy_delays_must_lie_in_the_stream(delays):
    with pytest.raises(ValueError, match="delay"):
        make_independent_copies(pack(np.ones((2, 9), dtype=bool)), delays, 9)


def test_copies_need_the_packed_width_of_L():
    with pytest.raises(ValueError, match="bytes"):
        make_independent_copies(pack(np.ones((2, 9), dtype=bool)), [0], 17)


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
    assert objective(fit_bernstein_coeffs(fbar, n)) <= objective(ref.x) + 1e-8


@pytest.mark.parametrize("gamma,delta_s", [(np.nan, 2.0), (np.inf, 2.0), (-np.inf, 2.0),
                                           (0.0, 2.0), (2.0, np.nan), (2.0, np.inf),
                                           (2.0, 0.0), (2.0, -1.0)])
def test_activation_rejects_bad_gamma_and_delta_s(gamma, delta_s):
    with pytest.raises(ValueError, match="gamma|delta_s"):
        TransformedActivation(gamma, delta_s)

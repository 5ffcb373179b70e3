"""Bernstein polynomials: the nested evaluator against exact rational
arithmetic, and the adder + MUX node: the packed bit-sliced kernel against
the count-and-gather reading of the circuit, and on copies from separate
LFSRs against the polynomial; the MUX tree folded on constant coefficient
streams against the unfolded one and the count-and-gather reading; and the
packed rotated copies against ``np.roll`` of the unpacked stream."""

import hashlib
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gate_oracle import lfsr_words
from stochtdr import cli
from stochtdr.bernstein import (
    MAX_DEGREE,
    TransformedActivation,
    bernstein_basis,
    bernstein_mux_packed,
    check_fit_size,
    fit_bernstein_coeffs,
    make_independent_copies,
    nested_form,
    spread_delays,
)
from stochtdr.reservoir import Reservoir, TdrConfig
from stochtdr.streams import b2s, maximal_taps, pack, quantize_probability


def exact_eval(beta, u: float) -> float:
    """sum(C(n,k) beta_k u^k (1-u)^(n-k)) in exact rationals, u = a/d, rounded once."""
    a, d = u.as_integer_ratio()
    n = len(beta) - 1
    total = sum(math.comb(n, k) * Fraction(b) * (a**k * (d - a) ** (n - k))
                for k, b in enumerate(beta))
    return float(total / d**n)


@pytest.mark.parametrize("n,us", [
    *[pytest.param(n, [0.0, 1e-300, 0.3, 0.5, 0.9, 1.0], id=f"n={n}") for n in (1, 5, 20, 100)],
    # short dyadic arguments keep the exact sum small at the largest degree
    pytest.param(MAX_DEGREE, [0.0, 0.25, 0.5, 1.0], id="n=MAX_DEGREE"),
])
def test_eval_matches_exact_arithmetic(n, us):
    # u is not written, and the result is a new array, which the
    # ideal-bernstein step scales in place
    beta = np.random.default_rng(n).random(n + 1)
    u = np.array(us)
    kept = u.copy()
    got = nested_form(beta.tolist(), u)
    np.testing.assert_allclose(got, [exact_eval(beta, x) for x in us], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(u, kept)
    assert not np.shares_memory(got, u)


def test_eval_keeps_the_shape_of_its_argument():
    beta = [0.2, 0.5, 0.9]
    u = np.linspace(0.0, 1.0, 24).reshape(2, 3, 4)
    assert nested_form(beta, u).shape == (2, 3, 4)
    assert nested_form(beta, np.empty((0, 3))).shape == (0, 3)
    assert bernstein_basis(1, 2, np.empty(0)).shape == (0,)


@pytest.mark.parametrize("u", [np.nan, -1e-300, 1.0 + 1e-15, [0.3, np.nan], [0.2, np.inf]])
def test_arguments_outside_the_unit_interval_are_rejected(u):
    with pytest.raises(ValueError, match="outside"):
        bernstein_basis(1, 2, u)


def test_degree_above_the_float_range_is_rejected():
    with pytest.raises(ValueError, match=str(MAX_DEGREE)):
        bernstein_basis(0, MAX_DEGREE + 1, 0.3)
    with pytest.raises(ValueError, match="degree"):
        bernstein_basis(0, -1, 0.3)


def test_basis_index_outside_0_to_n_is_rejected():
    for k in (-1, 3):
        with pytest.raises(ValueError, match=rf"basis index k={k} outside 0\.\.2"):
            bernstein_basis(k, 2, 0.3)


def test_ideal_bernstein_step_is_the_basis_sum():
    cfg = TdrConfig(H=6, alpha=0.3, gamma=2.0, n=7, backend="ideal-bernstein")
    res = Reservoir(cfg)
    rng = np.random.default_rng(5)
    u, fb = rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, (4, 6))
    s = 0.5 * (cfg.alpha * res.weights * u[:, None] + (1.0 - cfg.alpha) * fb)
    beta = np.asarray(res.beta_words) / ((1 << cfg.q) - 1)
    want = 2.0 * sum(b * bernstein_basis(k, cfg.n, (s + 1.0) / 2.0)
                     for k, b in enumerate(beta)) - 1.0
    np.testing.assert_allclose(res.step(u, fb, 0), want, rtol=0, atol=1e-13)


def test_ideal_bernstein_metrics_csv_is_pinned(tmp_path):
    # ranks are integers, so the evaluator's last digits must not move them
    assert cli.main(["metrics", "--backend", "ideal-bernstein", "--H", "16", "--m", "6",
                     "--runs", "2", "--alpha-grid", "0.2,0.8", "--degree", "20",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == "bc27bb0351b428c2040047f2f56bbb646d62c4543be6d05b7b0c91b45eab6122"


def count_and_gather(copy_bits: np.ndarray, beta_bits: np.ndarray) -> np.ndarray:
    """Output bit r is bit r of coefficient stream number (ones across copies at r)."""
    count = copy_bits.sum(axis=0)
    return np.take_along_axis(beta_bits, count[None], axis=0)[0]


@pytest.mark.parametrize("n", [*range(1, 13), 16])
def test_stochastic_bernstein_eval_matches_count_and_gather(n):
    # bit r of the copies holds r % (n+1) ones, so every count 0..n occurs,
    # including the top ones that an unpaired MUX-tree entry serves; odd and
    # even n give an even and an odd number of coefficient streams, and
    # L = 37 leaves 3 padding bits
    rng = np.random.default_rng(n)
    L = 37
    copy_bits = rng.permuted(np.arange(n)[:, None] < np.arange(L) % (n + 1), axis=0)
    beta_bits = rng.random((n + 1, L)) < 0.5
    out = np.unpackbits(bernstein_mux_packed(pack(copy_bits), pack(beta_bits)))
    np.testing.assert_array_equal(out[:L].astype(bool), count_and_gather(copy_bits, beta_bits))
    assert not out[L:].any()


@pytest.mark.parametrize("u", [0.2, 0.5, 0.8])
def test_stochastic_bernstein_node_on_independent_copies(u):
    # n = 5 copies of u, each from its own LFSR (tap masks 0..4), and the
    # coefficient streams from masks 5..10, at q = 16 and L = 10^5 bits:
    # the output's ones-fraction is the polynomial within 3 sigma, plus the
    # width-16 rounding of u and beta, at most (n + 1) / 2 / (2^16 - 1)
    q, n, L = 16, 5, 100_000
    beta = (0.1, 0.9, 0.2, 0.8, 0.3, 0.6)  # far from what correlated copies give
    seeds = np.random.default_rng(0).integers(1, 1 << q, 2 * n + 1)

    def stream(p, mask):
        return pack(b2s(quantize_probability(p, q),
                        lfsr_words(q, maximal_taps(q, mask), int(seeds[mask]), L)))

    copies = np.stack([stream(u, j) for j in range(n)])
    coeffs = np.stack([stream(b, n + k) for k, b in enumerate(beta)])
    ones = np.bitwise_count(bernstein_mux_packed(copies, coeffs)).sum()
    p = exact_eval(beta, u)
    assert abs(ones / L - p) <= 3 * math.sqrt(p * (1 - p) / L) + (n + 1) / 2 / ((1 << q) - 1)


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


def constant_patterns(n: int, rng):
    """Constant patterns of n + 1 coefficient streams, each entry 0 (all-zero),
    1 (all-one) or None: every pattern up to n = 6, and past it every choice
    of the constant entries, their values drawn from ``rng``."""
    if n <= 6:
        return list(itertools.product((0, 1, None), repeat=n + 1))
    return [tuple(int(v) if c else None for c, v in zip(mask, rng.integers(0, 2, n + 1)))
            for mask in itertools.product((False, True), repeat=n + 1)]


@pytest.mark.parametrize("L", [37, 1000, 1001])
@pytest.mark.parametrize("n", range(1, 10))
def test_folded_mux_equals_the_unfolded_mux(n, L):
    # the same call with the constant rows as plain all-zero and all-one
    # packed arrays, byte for byte with the padding, and the count-and-gather
    # reading of the unpacked bits, which shares no code with the MUX tree;
    # bit r of the copies holds r % (n + 1) ones, so every count occurs, on
    # a batch of 2
    rng = np.random.default_rng(10 * n + L)
    copy_bits = rng.permuted(np.arange(n)[:, None, None] < np.arange(L) % (n + 1), axis=0)
    copy_bits = np.concatenate([copy_bits, ~copy_bits[::-1]], axis=1)
    copies = pack(copy_bits)
    free = rng.random((n + 1, 2, L)) < 0.5
    for constant in constant_patterns(n, rng):
        bits = np.stack([f if c is None else np.full_like(f, c) for f, c in zip(free, constant)])
        coeffs = pack(bits)
        out = bernstein_mux_packed(copies, coeffs, constant)
        np.testing.assert_array_equal(out, bernstein_mux_packed(copies, coeffs),
                                      err_msg=str(constant))
        out_bits = np.unpackbits(out, axis=-1)
        np.testing.assert_array_equal(out_bits[..., :L].astype(bool),
                                      count_and_gather(copy_bits, bits), err_msg=str(constant))
        assert not out_bits[..., L:].any(), constant


def test_constant_entries_must_match_the_coefficients():
    s = pack(np.ones((3, 16), dtype=bool))
    with pytest.raises(ValueError, match="3 constant entries"):
        bernstein_mux_packed(s[:2], s, (0, None))
    with pytest.raises(ValueError, match="must be 0, 1 or None"):
        bernstein_mux_packed(s[:2], s, (0, 0.5, 1))


def test_coefficient_count_must_be_degree_plus_one():
    s = pack(np.ones((2, 16), dtype=bool))
    with pytest.raises(ValueError, match="coefficient streams"):
        bernstein_mux_packed(s, s)


def rolled(bits: np.ndarray, delays) -> np.ndarray:
    """The reference copies: each delay's ``np.roll`` of the unpacked streams, packed."""
    return np.stack([pack(np.roll(bits, d, axis=-1)) for d in delays])


@pytest.mark.parametrize("n,L", [(1, 9), (3, 37), (5, 5), (8, 64), (5, 100), (5, 255),
                                 (5, 1000), (5, 1001),
                                 # up to degree 12, at L % 8 != 0
                                 *((n, L) for n in range(9, 13) for L in (37, 1001, 4095))])
def test_copies_are_rotations(n, L):
    bits = np.random.default_rng(L).random((2, 3, L)) < 0.5
    delays = spread_delays(n, L)
    copies = make_independent_copies(pack(bits), delays, L)
    assert copies.shape == (n, 2, 3, -(-L // 8))
    # pack() zero-pads, so this also checks that the padding bits are zero
    np.testing.assert_array_equal(copies, rolled(bits, delays))
    if L > 1001:  # every delay would take 4095 copies
        return
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
    fbar = TransformedActivation(gamma)
    u = np.linspace(0.0, 1.0, check_fit_size(n))
    A = np.column_stack([bernstein_basis(k, n, u) for k in range(n + 1)])
    f = fbar(u)

    def objective(beta):
        return float(np.sum((A @ np.asarray(beta) - f) ** 2))

    ref = optimize.lsq_linear(A, f, bounds=(0.0, 1.0), method="bvls")
    assert objective(fit_bernstein_coeffs(fbar, n)) <= objective(ref.x) + 1e-8


# 2 gamma overflows past 1e308, and gamma is subnormal below 2.2e-308
@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, 1e308, -1e308,
                                   1e-320, -1e-320, 5e-324])
def test_activation_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        TransformedActivation(gamma)


@pytest.mark.parametrize("gamma,f_max", [(sys.float_info.min, sys.float_info.min),
                                         (-sys.float_info.max / 2, 1.0)])
def test_activation_takes_each_end_of_the_gamma_range(gamma, f_max):
    assert TransformedActivation(gamma).f_max == f_max

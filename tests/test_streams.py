"""Bit-stream encoding, LFSR, and gate-law tests on the array kernels, and
on the LFSR words and XNOR of the test-side oracle (``gate_oracle``).

Statistical checks that rely on Bernoulli behaviour run at q=16 so the
stream length stays well below the LFSR period; q=8 whole-period streams
are reserved for the exactness tests they enable.
"""

from fractions import Fraction

import numpy as np
import pytest

from gate_oracle import lfsr_words, stoch_mult
from stochtdr.streams import (
    b2s,
    b2s_table,
    lfsr_cycle,
    lfsr_windows,
    maximal_taps,
    mix_input_base,
    mix_masks,
    offset_to_real,
    ones_count_to_offset,
    pack,
    quantize,
    quantize_probability,
    real_to_offset,
    s2b,
    stoch_mux_average,
    supported_widths,
    _TAP_MASKS,
)


def bernoulli_sigma(p, L):
    return np.sqrt(p * (1 - p) / L)


def reference_lfsr(q, taps, state, count):
    """Bit-level Fibonacci LFSR: emit the state, then shift in the tap parity."""
    out = []
    for _ in range(count):
        out.append(state)
        state = (state >> 1) | ((bin(state & taps).count("1") & 1) << (q - 1))
    return out


def estimate(bits):
    """Signed estimate (#ones - #zeros) / L of each stream."""
    return 2.0 * bits.mean(axis=-1) - 1.0


# ---------------------------------------------------------------------------
# LFSR


def test_lfsr_period_and_coverage_q8():
    taps = maximal_taps(8)
    words = lfsr_words(8, taps, 0x5A, 256)
    assert list(words) == reference_lfsr(8, taps, 0x5A, 256)
    assert words[255] == 0x5A  # period exactly 2^q - 1
    assert sorted(words[:255]) == list(range(1, 256))  # every nonzero word exactly once


@pytest.mark.parametrize("q", supported_widths())
def test_all_table_masks_are_maximal(q):
    # lfsr_cycle walks the register 2^q - 1 steps from state 1 and raises
    # unless they visit every nonzero state; its words are checked here
    # without a second pure-Python walk of a whole q = 16 period: the first
    # 4096 against the bit-level reference, and every transition, the wrap
    # included, against the same law applied to all words at once
    full = (1 << q) - 1
    assert list(_TAP_MASKS[q]) == sorted(set(_TAP_MASKS[q]))  # distinct, ascending
    assert len(_TAP_MASKS[q]) == (16 if q >= 7 else [1, 2, 2, 6, 6][q - 2])
    for mask in _TAP_MASKS[q]:
        cycle, pos = lfsr_cycle(q, mask)
        states = reference_lfsr(q, mask, 1, min(full, 4096))
        assert cycle[:len(states)].tolist() == states
        c = cycle.astype(np.int64)
        parity = np.bitwise_count(c & mask).astype(np.int64) & 1
        assert np.array_equal((c >> 1) | (parity << (q - 1)), np.roll(c, -1))
        assert np.array_equal(np.sort(c), np.arange(1, full + 1)), \
            f"mask {mask:#x} at q={q} is not maximal"
        assert np.array_equal(pos[cycle], np.arange(full))


def test_non_maximal_masks_are_rejected():
    # both kinds at q = 8: 0x01 rotates the register, which is not back at
    # state 1 after 255 steps; 0x17 is, on a cycle of 15 states
    for mask, back in ((0x01, False), (0x17, True)):
        states = reference_lfsr(8, mask, 1, 256)
        assert (states[255] == 1) == back and len(set(states)) < 255
        with pytest.raises(ValueError, match=f"tap mask {mask:#x} is not maximal-length at q=8"):
            lfsr_cycle(8, mask)


def test_lfsr_zero_seed_rejected():
    taps = maximal_taps(8)
    # zero locks the register; the others are not 8-bit words at all
    for states in (0, [3, 0, 7], -1, -300, 256, [[1, 2], [3, -2]]):
        with pytest.raises(ValueError, match="nonzero"):
            lfsr_words(8, taps, states, 5)


def test_lfsr_determinism_and_words():
    taps = maximal_taps(8, 3)
    ref = reference_lfsr(8, taps, 17, 41)
    assert list(lfsr_words(8, taps, 17, 40)) == ref[:40]
    assert np.array_equal(lfsr_words(8, taps, 17, 40), lfsr_words(8, taps, 17, 40))
    # the word after 40 steps is where a 40-step jump lands
    assert lfsr_words(8, taps, 17, 41)[-1] == ref[40]
    # an array of start states gives one row per state, in the state's shape
    states = np.array([[17, 200], [1, 255]])
    rows = lfsr_words(8, taps, states, 300)  # longer than one period
    assert rows.shape == (2, 2, 300) and rows.dtype == np.uint8
    for idx in np.ndindex(states.shape):
        assert list(rows[idx]) == reference_lfsr(8, taps, int(states[idx]), 300)
    assert lfsr_words(12, maximal_taps(12), 5, 3).dtype == np.uint16


def test_maximal_taps_raise_past_the_table():
    assert maximal_taps(6, 5) == _TAP_MASKS[6][-1]
    for index in (6, 7, -1):
        with pytest.raises(ValueError, match="q=6 has 6 maximal tap masks"):
            maximal_taps(6, index)


def test_unsupported_width_rejected():
    with pytest.raises(ValueError):
        maximal_taps(40)
    with pytest.raises(ValueError):
        lfsr_cycle(40, 0x3)
    assert 8 in supported_widths() and 16 in supported_widths()


# ---------------------------------------------------------------------------
# values and quantization


def test_bipolar_value_views():
    # z = 0 at q = 8 is offset 128, zbar = 128/255, ztilde = 2*zbar - 1
    assert real_to_offset(2 * 128 / 255 - 1, 8) == 128
    assert offset_to_real(128, 8) == pytest.approx(2 * 128 / 255 - 1, abs=1e-15)
    # the quantizer never leaves the q-bit offset range
    assert list(real_to_offset([-1.5, -1.0, 1.0, 1.5], 8)) == [0, 0, 255, 255]


def test_from_real_roundtrip_all_values_q8():
    offsets = np.arange(256)
    assert np.array_equal(real_to_offset(offset_to_real(offsets, 8), 8), offsets)


def test_from_real_ties_toward_zero():
    # 0.0 sits exactly between z=-1 and z=0; the dead-center tie picks z=0
    assert real_to_offset(0.0, 8) == 128
    # endpoints map exactly
    assert real_to_offset(1.0, 8) == 255
    assert real_to_offset(-1.0, 8) == 0
    # midpoints between neighbours (those exact in floating point) resolve
    # toward the smaller magnitude
    lo = np.arange(255)
    mid = (lo + 0.5) / 127.5 - 1.0
    lo = lo[(mid + 1.0) * 0.5 * 255 == lo + 0.5]
    assert lo.size > 100
    nearer_zero = np.where(np.abs(2 * lo - 255) < np.abs(2 * lo - 253), lo, lo + 1)
    assert np.array_equal(real_to_offset((lo + 0.5) / 127.5 - 1.0, 8), nearer_zero)


def test_quantize_is_idempotent():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 1000)
    qx = quantize(x, 8)
    assert np.array_equal(quantize(qx, 8), qx)
    assert np.abs(qx - x).max() <= 1.0 / 255 + 1e-12


# ---------------------------------------------------------------------------
# B2S / S2B


def test_b2s_endpoints_q8():
    words = lfsr_words(8, maximal_taps(8), 33, 1000)
    assert b2s(255, words).all()       # ztilde = +1
    assert not b2s(0, words).any()    # ztilde = -1


def test_b2s_density_near_half_q8():
    zbar = 128 / 255  # z = 0
    bits = b2s(128, lfsr_words(8, maximal_taps(8), 91, 100_000))
    assert abs(bits.mean() - zbar) <= 3 * bernoulli_sigma(zbar, bits.size)


def test_s2b_trivial_cases():
    assert s2b(pack(np.ones(50, dtype=bool)), 50, 8) == 255  # ztilde = +1
    alternating = np.tile([True, False], 5)
    assert s2b(pack(alternating), 10, 8) == 128  # c = 0 -> dead-center tie -> z = 0


def test_s2b_counter_tie_goes_toward_zero():
    # seven ones in L=10: ztilde = 0.4 = 102/255 sits exactly between
    # offsets 178 and 179; the tie resolves to the smaller magnitude
    bits = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0], dtype=bool)
    got = int(s2b(pack(bits), 10, 8))

    # oracle: exact rational scan over all 256 representable values
    target = Fraction(2 * 7 - 10, 10)
    best = None
    for offset in range(256):
        zt = Fraction(2 * offset - 255, 255)
        key = (abs(zt - target), abs(zt))
        if best is None or key < best[0]:
            best = (key, offset)
    assert got == best[1] == 128 + 50


@pytest.mark.parametrize("L", [1, 8, 13, 64, 301])
def test_s2b_matches_an_unpacked_count(L):
    bits = np.random.default_rng(L).random((3, 4, L)) < 0.6
    got = s2b(pack(bits), L, 10)
    assert got.shape == (3, 4)
    assert np.array_equal(got, ones_count_to_offset(bits.sum(axis=-1), L, 10))


def test_roundtrip_exact_whole_period_q8():
    # L = one full period makes the comparator count exact for every value;
    # all 256 offsets run as one batch, each from its own start state
    offsets = np.arange(256)
    states = 1 + (offsets * 7 + 300) % 255
    words = lfsr_words(8, maximal_taps(8), states, 255)
    assert np.array_equal(s2b(pack(b2s(offsets[:, None], words)), 255, 8), offsets)


@pytest.mark.parametrize("q", [7, 8, 10])
@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("L", [8, 37, 1001])
def test_b2s_table_is_the_masked_comparator_at_every_word(q, S, L):
    # S streams of words from random positions on a maximal LFSR's cycle,
    # so the 8 words of each byte are distinct, as the table needs
    rng = np.random.default_rng(q * L + S)
    words = lfsr_windows(q, maximal_taps(q), L)[rng.integers(0, (1 << q) - 1, S)]
    every = np.arange(1 << q)[:, None, None]
    # a zero-padded mask, and one that sets every padding bit
    for mask in (pack(rng.random((S, L)) < 0.7), np.full((S, -(-L // 8)), 0xFF, np.uint8)):
        table = b2s_table(words, mask, q)
        assert table.shape == (1 << q, S, -(-L // 8)) and table.dtype == np.uint8
        np.testing.assert_array_equal(table, pack(b2s(every, words)) & mask)
        if L % 8:
            assert not (table[..., -1] & (0xFF >> L % 8)).any()


# ---------------------------------------------------------------------------
# gates


def gate_expectation(gate, *probs):
    """Ones-probability of a gate's output, enumerating every input bit pattern."""
    patterns = np.array(list(np.ndindex(*(2,) * len(probs))), dtype=bool).T
    weight = np.prod([np.where(bits, p, 1 - p) for bits, p in zip(patterns, probs)], axis=0)
    return float(np.sum(gate(*patterns) * weight))


def test_xnor_product_law_by_enumeration():
    for pa in np.linspace(0, 1, 9):
        for pb in np.linspace(0, 1, 9):
            za, zb = 2 * pa - 1, 2 * pb - 1
            out = gate_expectation(stoch_mult, pa, pb)
            assert 2 * out - 1 == pytest.approx(za * zb, abs=1e-12)


def test_mux_average_law_by_enumeration():
    for pa, pb, ps in [(0.3, 0.9, 0.25), (0.5, 0.1, 0.8), (0.0, 1.0, 0.5)]:
        za, zb = 2 * pa - 1, 2 * pb - 1
        out = gate_expectation(stoch_mux_average, pa, pb, ps)
        assert 2 * out - 1 == pytest.approx(ps * za + (1 - ps) * zb, abs=1e-12)


def test_xnor_trivial_streams():
    b = np.random.default_rng(5).random(200) < 0.5
    ones, zeros = np.ones(200, dtype=bool), np.zeros(200, dtype=bool)
    assert np.array_equal(stoch_mult(ones, b), b)
    assert np.array_equal(stoch_mult(zeros, b), ~b)
    with pytest.raises(ValueError):
        stoch_mult(ones, np.ones(100, dtype=bool))


def test_xnor_empirical_q16():
    # ztilde = 0.5 each; product 0.25; distinct tap polynomials keep the
    # word sequences statistically independent
    q, L = 16, 100_000
    offset = real_to_offset(0.5, q)
    a = b2s(offset, lfsr_words(q, maximal_taps(q, 0), 1234, L))
    b = b2s(offset, lfsr_words(q, maximal_taps(q, 1), 56789, L))
    expected = offset_to_real(offset, q) ** 2
    sigma = np.sqrt((1 - expected**2) / L)
    assert abs(estimate(stoch_mult(a, b)) - expected) <= 3 * sigma


def test_negate():
    # an inverter negates the value exactly: S2B's rounding is symmetric about
    # zero, except that both sides of the dead-center tie (c = 0) read z = 0
    bits = np.random.default_rng(6).random((40, 333)) < np.linspace(0, 1, 40)[:, None]
    for L in (333, 10):  # L = 10 hits the half-way ties
        s = bits[:, :L]
        negated = np.where(2 * s.sum(axis=-1) == L, 128, 255 - s2b(pack(s), L, 8))
        assert np.array_equal(s2b(pack(~s), L, 8), negated)
    assert s2b(pack(~np.ones(5, dtype=bool)), 5, 8) == 0


def test_mux_select_endpoints():
    rng = np.random.default_rng(7)
    a, b = rng.random((2, 3, 100)) < 0.5
    assert np.array_equal(stoch_mux_average(a, b, np.ones(100, dtype=bool)), a)
    assert np.array_equal(stoch_mux_average(a, b, np.zeros(100, dtype=bool)), b)
    # a select line per stream broadcasts over the stream axis
    rows = np.array([True, False, True])[:, None]
    assert np.array_equal(stoch_mux_average(a, b, rows), np.where(rows, a, b))


@pytest.mark.parametrize("L", [8, 37, 1000, 1001])
def test_gates_on_packed_bytes_equal_packed_boolean_gates(L):
    a, b, s, f, t = np.random.default_rng(L).random((5, 4, L)) < 0.5
    # the XNOR sets the padding bits of packed streams, so compare L bits
    np.testing.assert_array_equal(
        np.unpackbits(stoch_mult(pack(a), pack(b)), axis=-1, count=L).astype(bool),
        stoch_mult(a, b))
    np.testing.assert_array_equal(stoch_mux_average(pack(a), pack(b), pack(s)),
                                  pack(stoch_mux_average(a, b, s)))
    # the reservoir's chain: a MUX with zero-padded b and select clears the
    # XNOR's padding again
    np.testing.assert_array_equal(
        stoch_mux_average(stoch_mux_average(stoch_mult(pack(a), pack(b)), pack(f), pack(s)),
                          pack(t), pack(~s)),
        pack(stoch_mux_average(stoch_mux_average(stoch_mult(a, b), f, s), t, ~s)))


@pytest.mark.parametrize("L", [37, 1000])
def test_mux_distributes_over_or_on_packed_streams(L):
    # the per-node step reads mix(UW, 0, T) from a per-word table and ORs in
    # mix(0, F, 0); L = 37 leaves zero padding in the last byte
    rng = np.random.default_rng(L)
    a, a2, b, b2, s, u, w, f, t, sm, sb = (pack(x) for x in rng.random((11, 5, L)) < 0.5)
    np.testing.assert_array_equal(stoch_mux_average(a | a2, b | b2, s),
                                  stoch_mux_average(a, b, s) | stoch_mux_average(a2, b2, s))
    uw, zero = stoch_mult(u, w), np.zeros_like(f)

    def mix(x, y, z):  # the alpha-MUX, then the 0.5-MUX
        return stoch_mux_average(stoch_mux_average(x, y, sm), z, sb)

    np.testing.assert_array_equal(mix(uw, f, t), mix(uw, zero, t) | mix(zero, f, zero))
    np.testing.assert_array_equal(mix(zero, f, zero), f & sb & ~sm)
    # both policies' step: the disjoint masks, zero in the padding, fold the
    # two MUXes into one MUX and an AND
    A, C, D = mix_masks(t, sm, sb)
    np.testing.assert_array_equal(mix(uw, f, t), stoch_mux_average(uw, C, A) | (f & D))
    assert not ((A & C) | (A & D) | (C & D)).any()
    if L % 8:
        assert not ((A | C | D)[:, -1] & (0xFF >> L % 8)).any()


@pytest.mark.parametrize("L", [37, 1000])
def test_input_half_is_x0_xor_u_and_a(L):
    # the free-running step reads U & A per input word and X0 = (A & ~W) | C
    # per node and phase: with A and C disjoint and zero in the padding, the
    # input half mux(XNOR(U, W), C, A) is their XOR
    rng = np.random.default_rng(L)
    u, w, t, sm, sb = (pack(x) for x in rng.random((5, 6, L)) < 0.5)
    A, C, _ = mix_masks(t, sm, sb)
    assert not (A & C).any()
    if L % 8:
        assert not ((A | C)[:, -1] & (0xFF >> L % 8)).any()
    np.testing.assert_array_equal(stoch_mux_average(stoch_mult(u, w), C, A),
                                  mix_input_base(w, A, C) ^ (u & A))


def test_mux_empirical_half_mix_q16():
    q, L = 16, 100_000
    a = np.ones(L, dtype=bool)    # ztilde = +1
    b = np.zeros(L, dtype=bool)   # ztilde = -1
    sel = b2s(quantize_probability(0.5, q), lfsr_words(q, maximal_taps(q), 42424, L))
    out = stoch_mux_average(a, b, sel)
    assert abs(estimate(out) - 0.0) <= 3 * 2 * np.sqrt(0.25 / L) + 2e-4


def test_unipolar_select_endpoints_and_density():
    # a MUX select line is the comparator against a quantized probability
    words = lfsr_words(16, maximal_taps(16), 999, 100_000)
    assert not b2s(quantize_probability(0.0, 16), words[:500]).any()
    assert b2s(quantize_probability(1.0, 16), words[:500]).all()
    s = b2s(quantize_probability(0.2, 16), words)
    assert abs(s.mean() - 0.2) <= 3 * bernoulli_sigma(0.2, s.size) + 1e-4
    with pytest.raises(ValueError):
        quantize_probability(1.5, 16)


# ---------------------------------------------------------------------------
# statistical invariants


def test_unbiasedness_over_seeds_q8():
    # mean of quantized estimates over many seeds matches the encoded value
    rng = np.random.default_rng(11)
    seeds = rng.choice(np.arange(1, 256), size=100, replace=False)
    L = 1000
    words = lfsr_words(8, maximal_taps(8), seeds, L)
    for x in np.linspace(-1, 1, 9):
        offset = real_to_offset(x, 8)
        ests = offset_to_real(s2b(pack(b2s(offset, words)), L, 8), 8)
        se = ests.std(ddof=1) / np.sqrt(len(seeds))
        tol = 3 * se + 1e-12  # exact-count values can have zero spread
        assert abs(ests.mean() - offset_to_real(offset, 8)) <= tol, f"bias at x={x}"


def test_variance_scaling_q16():
    # Bernoulli 1/L variance scaling holds while L stays far below the LFSR
    # period; at small q whole-period exactness collapses variance faster,
    # so this runs at q=16.
    rng = np.random.default_rng(13)
    offset = real_to_offset(0.3, 16)
    seeds = rng.integers(1, 2**16 - 1, 80)
    Ls = [100, 1000, 10_000]
    variances = []
    for L in Ls:
        words = lfsr_words(16, maximal_taps(16), seeds, L)
        ests = offset_to_real(s2b(pack(b2s(offset, words)), L, 16), 16)
        variances.append(ests.var(ddof=1))
    slope = np.polyfit(np.log10(Ls), np.log10(variances), 1)[0]
    assert -1.15 <= slope <= -0.85

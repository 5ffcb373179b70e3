"""Bit-stream number representation and the stochastic-logic gates, one
array kernel per gate.

A q-bit two's-complement word ``z`` carries three linked views:

* the raw integer ``z`` in ``{-2^(q-1), ..., 2^(q-1)-1}``, held as its
  offset-binary reading ``z + 2^(q-1)`` in ``{0, ..., 2^q - 1}``,
* its ones-probability ``zbar = (z + 2^(q-1)) / (2^q - 1)`` in [0, 1],
* the signed value ``ztilde = 2*zbar - 1`` in [-1, 1].

A number is materialized as a Bernoulli bit stream whose ones-density
estimates ``zbar``.  Arithmetic on such streams reduces to single logic
gates: XNOR multiplies signed values and a MUX forms a weighted average.
The pseudo-random words that drive the binary-to-stochastic comparator
come from maximal-length LFSRs (:func:`lfsr_cycle`, read as windows by
:func:`lfsr_windows`), so a stream spanning whole LFSR periods reproduces
its ones-probability exactly.

Each gate is one numpy kernel.  A stream has the bit position on its last
axis; any leading axes (nodes, copies, coefficients) are batch axes that
broadcast, so one call runs the gate for every stream of a reservoir step.
In the order of the reservoir node's gate chain:

* :func:`b2s`, the comparator, emits boolean streams, which :func:`pack`
  packs 8 bits to a byte along the last axis (zero-padded);
  :func:`b2s_table` tabulates the packed comparator output for every word;
* :func:`mix_masks` and :func:`mix_input_base` hold the law of the node's
  XNOR and two MUXes on packed streams, as disjoint masks;
* :func:`stoch_mux_average`, the MUX, is pure bitwise logic, so one
  implementation serves boolean and packed streams;
* :func:`s2b`, the up/down counter, takes packed streams.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_Q = 8

# Maximal-length feedback tap masks per register width, for the Fibonacci
# form used here: feedback = parity(state & mask), then
# state <- (state >> 1) | (feedback << (q - 1)).
# Each width holds its first maximal masks in ascending order: all of them at
# q <= 6 (1, 2, 2, 6, 6), the first 16 at q >= 7 (q = 8 has only 16).  The
# suite re-checks every mask over its whole cycle.  A stochastic node runs
# each of its 7 + n LFSR roles on its own mask, so no two share a sequence.
_TAP_MASKS: dict[int, tuple[int, ...]] = {
    2: (0x3,),
    3: (0x3, 0x5),
    4: (0x3, 0x9),
    5: (0x5, 0x9, 0xF, 0x17, 0x1B, 0x1D),
    6: (0x3, 0x1B, 0x21, 0x27, 0x2D, 0x33),
    7: (0x3, 0x9, 0xF, 0x11, 0x1D, 0x27, 0x2B, 0x39,
        0x3F, 0x41, 0x4B, 0x53, 0x55, 0x65, 0x6F, 0x71),
    8: (0x1D, 0x2B, 0x2D, 0x4D, 0x5F, 0x63, 0x65, 0x69,
        0x71, 0x87, 0x8D, 0xA9, 0xC3, 0xCF, 0xE7, 0xF5),
    9: (0x11, 0x1B, 0x21, 0x2D, 0x33, 0x59, 0x5F, 0x69,
        0x6F, 0x77, 0x7D, 0x87, 0x95, 0xA3, 0xA5, 0xAF),
    10: (0x9, 0x1B, 0x27, 0x2D, 0x65, 0x6F, 0x81, 0x8B,
         0xC5, 0xD7, 0xE7, 0xF3, 0xFF, 0x10D, 0x119, 0x123),
    11: (0x5, 0x17, 0x2B, 0x2D, 0x47, 0x63, 0x65, 0x71,
         0x7B, 0x8D, 0x95, 0x9F, 0xA9, 0xB1, 0xCF, 0xD1),
    12: (0x53, 0x69, 0x7B, 0x7D, 0x99, 0xD1, 0xEB, 0x107,
         0x11F, 0x123, 0x13B, 0x14F, 0x157, 0x161, 0x16B, 0x185),
    13: (0x1B, 0x27, 0x35, 0x53, 0x65, 0x6F, 0x8B, 0x8D,
         0x9F, 0xA5, 0xAF, 0xBB, 0xBD, 0xC3, 0xC9, 0xE1),
    14: (0x2B, 0x39, 0x53, 0x5F, 0x7B, 0xA9, 0xAF, 0xBB,
         0xBD, 0xCF, 0xEB, 0xF3, 0x10D, 0x113, 0x13B, 0x143),
    15: (0x3, 0x11, 0x17, 0x2D, 0x35, 0x5F, 0x77, 0x81,
         0x87, 0x93, 0xA5, 0xC3, 0xCF, 0xDD, 0xE7, 0xF5),
    16: (0x2D, 0x39, 0x3F, 0x53, 0xBD, 0xD7, 0x12F, 0x13D,
         0x14F, 0x15D, 0x197, 0x1A1, 0x1AD, 0x1BF, 0x1C7, 0x215),
}


def supported_widths() -> tuple[int, ...]:
    """Register widths for which maximal-length taps are available."""
    return tuple(sorted(_TAP_MASKS))


def maximal_taps(q: int, index: int = 0) -> int:
    """Return maximal-length tap mask number ``index`` of width ``q``.

    Distinct indices give distinct masks, so callers that need several
    decorrelated sources hand each one its own sequence.  An index past the
    width's masks raises ValueError naming their count.
    """
    if q not in _TAP_MASKS:
        raise ValueError(f"no maximal-length taps known for width q={q}")
    masks = _TAP_MASKS[q]
    if not 0 <= index < len(masks):
        raise ValueError(f"width q={q} has {len(masks)} maximal tap masks, no mask {index}")
    return masks[index]


# ---------------------------------------------------------------------------
# LFSR word source


def word_dtype(q: int) -> type:
    """The narrowest unsigned type of a q-bit word (q <= 16).

    Comparing words with offsets of the same type keeps the comparator from
    widening to int64.
    """
    return np.uint8 if q <= 8 else np.uint16


@functools.lru_cache(maxsize=64)
def lfsr_cycle(q: int, taps: int) -> tuple[np.ndarray, np.ndarray]:
    """Full state cycle of a maximal-length LFSR from state 1, plus the
    state -> position table (-1 for the zero state).

    The register steps in the Fibonacci form of ``_TAP_MASKS`` and emits
    its state before each step.  The cycle holds ``word_dtype(q)`` words.
    Both arrays are cached and read-only.
    """
    if q not in _TAP_MASKS:
        raise ValueError(f"no maximal-length taps known for width q={q}")
    full = (1 << q) - 1
    states = []
    s = 1
    for _ in range(full):
        states.append(s)
        s = (s >> 1) | (((s & taps).bit_count() & 1) << (q - 1))
    cycle = np.array(states, dtype=word_dtype(q))
    pos = np.full(full + 1, -1, dtype=np.int64)
    pos[cycle] = np.arange(full)
    # a mask that is not maximal-length misses a nonzero state in these
    # 2^q - 1 steps, whether it is back at state 1 early or not at all
    if (pos[1:] < 0).any():
        raise ValueError(f"tap mask {taps:#x} is not maximal-length at q={q}")
    cycle.flags.writeable = pos.flags.writeable = False
    return cycle, pos


@functools.lru_cache(maxsize=32)
def lfsr_windows(q: int, taps: int, count: int) -> np.ndarray:
    """``windows[k]`` is the ``count`` words emitted from cycle position k.

    A read-only sliding view of the cycle repeated to ``period + count - 1``
    words, so every window, and any reshape of one, is a view.  Cached.
    """
    cycle, _ = lfsr_cycle(q, taps)
    return sliding_window_view(np.resize(cycle, cycle.size + count - 1), count)


# ---------------------------------------------------------------------------
# number <-> word conversions


def offset_to_real(offset, q: int):
    """Vectorized offset -> signed value map."""
    full = (1 << q) - 1
    return (2.0 * np.asarray(offset) - full) / full


def real_to_offset(x, q: int):
    """Vectorized nearest-representable quantizer, ties toward zero.

    Midpoint cases resolve toward the representable value of smaller
    magnitude; the dead-center tie between z = -1 and z = 0 picks z = 0.
    """
    full = (1 << q) - 1
    t = (np.asarray(x, dtype=np.float64) + 1.0) * 0.5 * full
    k = np.floor(t)
    frac = t - k
    center_up = (2 * k + 1) <= full  # below (or at) the zbar = 0.5 midpoint
    up = (frac > 0.5) | ((frac == 0.5) & center_up)
    return np.clip(k + up, 0, full).astype(np.int64)


def quantize(x, q: int = DEFAULT_Q):
    """Round an array of signed values onto the width-q representable grid."""
    return offset_to_real(real_to_offset(x, q), q)


def quantize_probability(p: float, q: int = DEFAULT_Q) -> int:
    """Probability in [0, 1] -> comparator threshold word (round to nearest)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    full = (1 << q) - 1
    return int(np.floor(p * full + 0.5))


def ones_count_to_offset(ones, L: int, q: int):
    """Offset word(s) nearest to the stream estimate, ties toward zero.

    Integer-exact: compares ones*(2^q - 1) against half-odd multiples of L
    rather than forming the quotient in floating point.
    """
    full = (1 << q) - 1
    ones = np.asarray(ones, dtype=np.int64)
    num = ones * full
    k = num // L
    rem = num - k * L
    up = (2 * rem > L) | ((2 * rem == L) & ((2 * k + 1) <= full))
    return k + up


# ---------------------------------------------------------------------------
# gates


def b2s(offsets, words):
    """Binary-to-stochastic conversion by comparator: bit r is 1 iff word r <= offset.

    ``words`` holds each stream's comparator words on the last axis, and
    ``offsets`` broadcast against it, so one offset per stream carries a
    trailing unit axis.  An offset is a number's offset-binary reading or,
    for a MUX select line, ``quantize_probability(p, q)``.  Because an LFSR
    emits each word in {1, ..., 2^q - 1} once per period, the ones-fraction
    over whole periods is exactly offset / (2^q - 1).
    """
    return words <= offsets


def b2s_table(words, mask, q: int) -> np.ndarray:
    """The packed comparator output at every q-bit word v: T[v, s] =
    pack(b2s(v, words[s])) & mask[s], shape (2^q, S, ceil(L/8)), from the
    (S, L) comparator words of S streams and their packed masks.

    Bit r of stream s turns on at v = words[s, r] and stays on, so the
    table sets each bit at the row of its word, in one scatter, and ORs
    every row into the later ones.  The scatter needs the 8 words of each
    byte distinct, or two bits of a byte would share a row and one would be
    lost.  8 consecutive words of a maximal LFSR are distinct when its
    period 2^q - 1 is at least 8; the stochastic backend's role count
    already needs q >= 7.  The padding bits stay zero.  The scatter and the
    running OR work on packed bytes, 8 bits at a time, where comparators
    at every word would compare and pack each bit 2^q times.

    The running OR goes in blocks of about sqrt(2^q) rows: a scan inside
    every block, then each block takes the last row of the one before, so
    the Python loop runs about 2*sqrt(2^q) slices, not the 2^q of a scan
    row by row; ``np.bitwise_or.accumulate`` on axis 0 measured slower
    than either.
    """
    S, L = words.shape
    width = (L + 7) // 8
    table = np.zeros((1 << q, S, width), dtype=np.uint8)
    r = np.arange(L)
    # one flat index: three index arrays take about 4x as long
    at = words.astype(np.intp) * (S * width) + (np.arange(S)[:, None] * width + r // 8)
    table.reshape(-1)[at] = (0x80 >> r % 8).astype(np.uint8)
    b = 1 << (q + 1) // 2
    blocks = table.reshape(-1, b, S, width)
    for j in range(1, b):
        blocks[:, j] |= blocks[:, j - 1]
    for k in range(1, len(blocks)):
        blocks[k] |= blocks[k - 1, -1]
    table &= mask
    return table


def mix_masks(t, sm, sb):
    """The disjoint masks (A, C, D) = (SM & SB, T & ~SB, SB & ~SM) of the
    node's mix, from its packed bias stream T and its select streams SM
    (alpha) and SB (0.5).

    The mix SB ? (SM ? U*W : F) : T, the alpha-MUX of the input product
    U*W against the feedback F and then the 0.5-MUX against T, equals
    mux(U*W, C, A) | (F & D): an input half, the mix at a zero feedback
    stream, which :func:`mix_input_base` splits further, OR the feedback
    stream masked by D.  A MUX distributes over OR, and the masks are zero in the padding of
    zero-padded streams, so the halves can be tabulated apart and ORed.
    """
    return sm & sb, t & ~sb, sb & ~sm


def mix_input_base(w, a, c):
    """X0 = (A & ~W) | C, the input half mux(XNOR(U, W), C, A) of the mix
    at a zero input stream U, from the packed weight stream W and the masks
    A and C of :func:`mix_masks`.

    A and C are disjoint, and where A is set the XNOR is ~W ^ U, so the
    input half at any input stream U is X0 ^ (U & A).
    """
    return (a & ~w) | c


def stoch_mux_average(a, b, select):
    """MUX gate: the bit of ``a`` where select is 1, else the bit of ``b``.

    With an independent select stream of ones-probability alpha the output
    signed value averages to alpha*za + (1 - alpha)*zb.
    """
    return b ^ (select & (a ^ b))


def pack(bits):
    """Boolean streams packed 8 bits to a byte along the last axis, zero-padded."""
    return np.packbits(bits, axis=-1)


@functools.lru_cache(maxsize=64)
def count_offsets(L: int, q: int) -> np.ndarray:
    """The ``word_dtype(q)`` offset word of every ones count 0..L of an
    L-bit stream; cached, read-only."""
    table = ones_count_to_offset(np.arange(L + 1), L, q).astype(word_dtype(q))
    table.flags.writeable = False
    return table


def s2b(words, L: int, q: int):
    """Stochastic-to-binary conversion by up/down counter, on packed streams.

    Each stream of ``L`` bits, packed along the last axis of ``words``,
    ends the count at c = #ones - #zeros; the result is the offset word of
    the representable value nearest to ztilde = c / L (ties toward zero),
    read from a table indexed by the ones count, in ``word_dtype(q)``.  The
    count sums in the narrowest type that holds L.
    """
    return count_offsets(L, q)[np.bitwise_count(words).sum(axis=-1, dtype=np.min_scalar_type(L))]

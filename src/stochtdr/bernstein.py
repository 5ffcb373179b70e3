"""Bernstein-polynomial activation synthesis and its stochastic evaluator.

A degree-n Bernstein polynomial sum(beta_k * b_{k,n}(u)) with coefficients
in the unit interval is directly computable in stochastic logic: an adder
counts the ones across n independent copies of the input stream, and that
count selects among n+1 coefficient streams through a MUX.  The count
equals k with probability C(n,k) u^k (1-u)^(n-k), so the output stream's
ones-probability is exactly the polynomial when the copies are independent.

An arbitrary activation is first shifted and scaled so the used portion
lies in the unit square, then fitted in the Bernstein basis under the
box constraint beta_k in [0, 1].

The stochastic gates follow the array-kernel convention of ``streams``:
the bit position is the last axis, leading axes are batch axes.  Both
take streams packed 8 bits to a byte: :func:`make_independent_copies`
rotates a packed L-bit stream into n packed copies, and
:func:`bernstein_mux_packed` runs the adder plus MUX on them, copies and
the plain coefficient streams beta_0 .. beta_n each stacked on a new
first axis.

The adder is a carry-save counter: full adders (3 bits to 2) at each
weight and no carry past weight n, 12 bitwise ops at n = 5 and 20 at
n = 7.  The MUX tree is one rule at every level: it folds every MUX that
a stream known to be constant feeds, all-zero or all-one, as the
comparator thresholds 0 and 2^q - 1 give at every source.  At the
default fit, words (0, 0, 0, 255, 255, 255) at n = 5, q = 8, the tree is
"count >= 3", two ops in place of fifteen.  Every packed stream keeps its
padding bits zero, and so does every folded form: none complements a
plane without masking it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .streams import stoch_mux_average

DEFAULT_DEGREE = 5
MAX_DEGREE = 1029  # the largest whose C(n, k) fit a float: C(1030, 515) > 1.8e308


def _check_degree(n: int, least: int = 0) -> None:
    if not least <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be in {least}..{MAX_DEGREE}, got {n}")


def bernstein_basis(k: int, n: int, u):
    """Basis polynomial b_{k,n}(u) = C(n,k) u^k (1-u)^(n-k)."""
    _check_degree(n)
    if not 0 <= k <= n:
        raise ValueError(f"basis index k={k} outside 0..{n}")
    u = np.asarray(u, dtype=np.float64)
    # one pass each way; a NaN fails both compares
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("basis argument outside [0, 1]")
    return math.comb(n, k) * u**k * (1.0 - u) ** (n - k)


def nested_form(beta, u: np.ndarray) -> np.ndarray:
    """sum(beta_k * b_{k,n}(u)) for n = len(beta) - 1 >= 1, unchecked.

    The nested form of Schumaker & Volk (CAGD 1986): Horner in f = 1 - u
    on the weights C(n,k) beta_k, with u^k built up by one multiply per
    degree, so a call costs O(n) array operations and no powers.  For beta
    in [0, 1] and u in [0, 1] every weight, power and factor is
    non-negative, so no step cancels and the rounding error stays relative
    to the value, unlike Horner in the power basis (Farouki & Rajan, CAGD
    1987); and the partial sum after degree k stays below C(n, k) / (k + 1),
    so no degree up to MAX_DEGREE overflows.

    ``beta`` is a sequence of Python floats and ``u`` a float64 array,
    which is not written.  Nothing is checked: ``Reservoir``'s ideal step
    calls this on an affine image of the mix sum, which lies in [1/4, 3/4],
    up to rounding, by construction.  Each C(n,k) beta_k u^k term goes
    through one scratch array, so the degree loop allocates nothing.
    """
    n = len(beta) - 1
    f = 1.0 - u
    out = beta[0] * f
    un = u.copy()  # u^k at degree k
    term = np.empty_like(un)
    for k in range(1, n):
        np.multiply(un, math.comb(n, k) * beta[k], out=term)
        out += term
        out *= f
        un *= u
    un *= beta[n]
    out += un
    return out


@dataclass(frozen=True)
class TransformedActivation:
    """sin(gamma * s) on the node's s in [-1, 1], shifted and scaled into the unit square.

    fbar(sbar) = (sin(gamma * s) + f_max) / (2 f_max) at s = 2 (sbar - 0.5),
    where +-f_max are the extrema of the sine on [-1, 1]: +-1 once |gamma|
    reaches pi/2, otherwise the endpoint values +-sin(|gamma|).  A domain
    of width D in place of 2 is the same function at gamma * D / 2.
    """

    gamma: float
    f_max: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma={self.gamma} is not finite")
        if self.gamma == 0.0:
            raise ValueError("gamma must be nonzero (flat sine has no extent to scale)")
        # 2 gamma past the float range makes every sine NaN, and a subnormal
        # gamma keeps only a few significant bits in sin(gamma * s) and f_max
        if not sys.float_info.min <= abs(self.gamma) <= sys.float_info.max / 2.0:
            raise ValueError(f"gamma={self.gamma} is subnormal, or twice it overflows")
        f_max = 1.0 if abs(self.gamma) >= np.pi / 2.0 else float(np.sin(abs(self.gamma)))
        object.__setattr__(self, "f_max", f_max)

    def __call__(self, sbar):
        sbar = np.asarray(sbar, dtype=np.float64)
        raw = np.sin(self.gamma * 2.0 * (sbar - 0.5))
        out = (raw + self.f_max) / (2.0 * self.f_max)
        return out if out.ndim else float(out)


def check_fit_size(n: int, grid_size: int | None = None) -> int:
    """The fit grid size, max(10(n+1), 201) points unless given.

    Raises ValueError unless 1 <= n <= MAX_DEGREE and the grid has >= 10(n+1) points.
    """
    _check_degree(n, least=1)
    if grid_size is None:
        return max(10 * (n + 1), 201)
    if grid_size < 10 * (n + 1):
        raise ValueError(f"grid_size must be >= {10 * (n + 1)} for degree {n}")
    return grid_size


def fit_bernstein_coeffs(fbar, n: int = DEFAULT_DEGREE,
                         grid_size: int | None = None) -> tuple[float, ...]:
    """Box-constrained least-squares fit of ``fbar`` on a uniform [0,1] grid.

    Minimizes the discretized integral of (fbar - B_n)^2 subject to
    beta_k in [0, 1], by projected gradient descent started from the clipped
    unconstrained solution; iteration stops when the objective changes by
    less than 1e-10.  The constrained optimum is never worse than clipping.
    Returns the n + 1 coefficients beta_0..beta_n.
    """
    grid_size = check_fit_size(n, grid_size)
    u = np.linspace(0.0, 1.0, grid_size)
    f = np.asarray(fbar(u), dtype=np.float64)
    A = np.column_stack([bernstein_basis(k, n, u) for k in range(n + 1)])

    beta, *_ = np.linalg.lstsq(A, f, rcond=None)
    beta = np.clip(beta, 0.0, 1.0)

    ata = A.T @ A
    atf = A.T @ f
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(ata)[-1]))

    def objective(b):
        r = A @ b - f
        return float(r @ r)

    obj = objective(beta)
    for _ in range(200_000):
        grad = 2.0 * (ata @ beta - atf)
        beta = np.clip(beta - step * grad, 0.0, 1.0)
        new_obj = objective(beta)
        if abs(obj - new_obj) < 1e-10:
            obj = new_obj
            break
        obj = new_obj
    return tuple(float(b) for b in beta)


def make_independent_copies(packed, delays, L: int) -> np.ndarray:
    """Copies of packed L-bit streams, copy j rotated by ``delays[j]`` bits.

    Copy j is the L-bit window from bit L-d_j of the ring ``[bits | bits]``:
    the stream rotated by d_j positions (a delayed shift-register tap), so
    every copy has exactly the source's ones-count.  When 8 divides L the
    ring is the packed stream twice; otherwise it is packed from the
    unpacked bits, and the copies' tail padding is masked back to zero.  A
    window that starts on a byte boundary is a byte slice, any other one a
    funnel shift of two slices.  The copies are stacked on a new first axis;
    delays spread far apart (:func:`spread_delays`) weaken the residual
    correlation between them.
    """
    width = -(-L // 8)
    if packed.shape[-1] != width:
        raise ValueError(f"a packed {L}-bit stream has {width} bytes, got {packed.shape[-1]}")
    if not delays or min(delays) < 0 or max(delays) >= L:
        raise ValueError(f"need at least one delay, each in [0, {L})")
    tail = L % 8
    if tail:
        bits = np.unpackbits(packed, axis=-1)
        ring = np.packbits(np.concatenate([bits[..., :L], bits], axis=-1), axis=-1)
    else:  # the bytes give the same ring without unpacking and repacking
        ring = np.concatenate([packed, packed], axis=-1)
    copies = np.empty((len(delays),) + packed.shape, dtype=np.uint8)
    for copy, d in zip(copies, delays):
        k, r = divmod(L - d, 8)
        if r:
            np.left_shift(ring[..., k:k + width], r, out=copy)
            copy |= ring[..., k + 1:k + width + 1] >> (8 - r)
        else:
            copy[...] = ring[..., k:k + width]
    if tail:
        copies[..., -1] &= 0xFF << (8 - tail) & 0xFF
    return copies


def spread_delays(n: int, L: int) -> list[int]:
    """Rotation depths spaced evenly around the stream, starting at zero.

    Adjacent comparator outputs are strongly related (consecutive LFSR
    states are a linear map apart), so depth-1..n taps bias the adder's
    count distribution; separated taps weaken, not remove, that bias.  When
    both n and 2^q - 1 divide L, the copies' words are a fixed LFSR power
    apart: the measured static node error is 0.117 at q=8, L=255, not 0.024
    as at L=1000.
    """
    stride = max(1, L // n)
    return [(j * stride) % L for j in range(n)]


def _count_planes(copies) -> list:
    """The bit planes of the ones count across the n ``copies``, lowest
    first: a carry-save counter.  Each weight's bits go three at a time
    through a full adder, a ^ b ^ c plus the carry (a & b) | ((a ^ b) & c)
    at twice the weight, and a last pair through a half adder; a carry past
    weight n is zero, as the count never exceeds n, and is not computed."""
    n = len(copies)
    planes, column, weight = [], list(copies), 1
    while column:
        carries, keep = [], 2 * weight <= n
        while len(column) > 1:
            a, b = column.pop(), column.pop()
            s = a ^ b
            if column:
                c = column.pop()
                if keep:
                    carries.append((a & b) | (s & c))
                s ^= c
            elif keep:
                carries.append(a & b)
            column.append(s)
        planes.append(column[0])
        column, weight = carries, 2 * weight
    return planes


def _fold_mux(hi, lo, select, coeffs, k):
    """mux(hi, lo, select) on MUX-tree nodes: 0 or 1 for a stream known to
    be all-zero or all-one, else the stream.  Where lo is 1, ``coeffs[k]``
    is an all-one stream: the coefficient at lo's first count.

    A constant input folds the MUX into one AND or OR, or into the select
    plane.  No form sets a padding bit: lo ^ select is the select's
    complement where lo is all-one, and ~select is only ANDed with a stream."""
    if type(lo) is int:
        if type(hi) is int:  # mux(c, c) = c, mux(1, 0) = select, mux(0, 1) = ~select
            return lo if hi == lo else select if hi else coeffs[k] ^ select
        # mux(x, 0) = x & select, mux(x, 1) = x | ~select
        return hi | (coeffs[k] ^ select) if lo else hi & select
    if type(hi) is int:  # mux(1, x) = x | select, mux(0, x) = x & ~select
        return lo | select if hi else lo & ~select
    return stoch_mux_average(hi, lo, select)


def bernstein_mux_packed(copies, coeffs, constant=None):
    """Adder + MUX Bernstein node on bit-packed streams, e.g. (n, H, W) words.

    The first axis of ``copies`` (n input copies) and ``coeffs`` (the n + 1
    coefficient streams beta_0 .. beta_n) indexes streams; any batch axes
    lead the word axis.  A carry-save counter adds the copies into
    n.bit_length() count planes, and a tree of MUX gates selects
    beta[count]: level 0 is the coefficient streams, and count plane i
    picks the upper of each pair of level i.  An unpaired last entry passes
    up, since the count never exceeds n.

    ``constant``, if given, has one entry per coefficient stream: 0 for a
    stream known to be all-zero, 1 for one known to be all-one (within the
    stream; its padding is zero), None for any other.  The tree folds every
    MUX that a constant feeds, by one rule at every level: two equal
    constants pass up, 0 below 1 is the select plane, and one constant
    input leaves a single AND or OR.

    The copies' and coefficients' zero padding counts 0 and selects the
    zero padding of beta_0, so the output padding is zero; no folded form
    complements a plane without masking it.  The result may be a view of
    an input, e.g. a count plane, which is one of the copies at n = 1.
    """
    n, coeffs = len(copies), np.asarray(coeffs)
    if len(coeffs) != n + 1:
        raise ValueError(f"need {n + 1} coefficient streams for {n} copies, "
                         f"got {len(coeffs)}")
    if constant is None:
        constant = (None,) * (n + 1)
    elif len(constant) != n + 1:
        raise ValueError(f"need {n + 1} constant entries for {n} copies, got {len(constant)}")
    constant = _checked_constant(tuple(constant))
    level = [coeffs[k] if c is None else c for k, c in enumerate(constant)]
    for i, p in enumerate(_count_planes(copies)):
        level = [_fold_mux(level[j + 1], level[j], p, coeffs, j << i) if j + 1 < len(level)
                 else level[j] for j in range(0, len(level), 2)]
    # a constant root is every coefficient stream, beta_0 among them
    return coeffs[0] if type(level[0]) is int else level[0]


@functools.lru_cache(maxsize=64)
def _checked_constant(constant: tuple) -> tuple:
    """The constant entries, each checked to be 0, 1 or None."""
    if any(c is not None and (type(c) is not int or c not in (0, 1)) for c in constant):
        raise ValueError(f"constant entries must be 0, 1 or None, got {constant}")
    return constant

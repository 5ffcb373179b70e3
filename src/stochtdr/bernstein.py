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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .streams import BitStream, _check_equal_length

DEFAULT_DEGREE = 5
DEFAULT_DELTA_S = 2.0

_COEFF_EPS = 1e-12  # tolerated constraint overshoot from finite solver precision


@dataclass(frozen=True)
class BernsteinSpec:
    """Degree-n coefficient vector of a synthesized activation.

    Every coefficient must lie in [0, 1]; values outside the interval are
    not representable as stream probabilities and are rejected with the
    offending indices named rather than clipped.
    """

    beta: tuple[float, ...]
    source: str = ""

    def __post_init__(self):
        if len(self.beta) < 2:
            raise ValueError("need degree n >= 1, i.e. at least two coefficients")
        bad = [k for k, b in enumerate(self.beta)
               if not (-_COEFF_EPS <= b <= 1.0 + _COEFF_EPS)]
        if bad:
            vals = ", ".join(f"beta[{k}]={self.beta[k]:.6g}" for k in bad)
            raise ValueError(f"coefficients outside [0, 1]: {vals}")
        object.__setattr__(
            self, "beta", tuple(float(np.clip(b, 0.0, 1.0)) for b in self.beta))

    @property
    def n(self) -> int:
        return len(self.beta) - 1

    def __call__(self, u):
        return bernstein_eval(np.asarray(self.beta), u)


def bernstein_basis(k: int, n: int, u):
    """Basis polynomial b_{k,n}(u) = C(n,k) u^k (1-u)^(n-k)."""
    if not 0 <= k <= n:
        raise ValueError(f"basis index k={k} outside 0..{n}")
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("basis argument outside [0, 1]")
    return math.comb(n, k) * u**k * (1.0 - u) ** (n - k)


def bernstein_eval(beta, u):
    """Evaluate sum(beta_k * b_{k,n}(u)) for coefficient vector beta."""
    beta = np.asarray(beta, dtype=np.float64)
    n = beta.size - 1
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u, dtype=np.float64)
    for k in range(n + 1):
        out = out + beta[k] * bernstein_basis(k, n, u)
    return out if out.ndim else float(out)


def power_to_bernstein(a) -> np.ndarray:
    """Power-form coefficients a_0..a_n -> Bernstein coefficients of degree n.

    beta_k = sum_{i<=k} [C(k,i) / C(n,i)] a_i; the returned polynomial equals
    the power form pointwise.  Coefficients are returned as-is, so callers
    requesting stochastic representability (BernsteinSpec) see out-of-range
    values reported instead of silently clipped.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("need a 1-D power coefficient vector")
    n = a.size - 1
    beta = np.zeros(n + 1)
    for k in range(n + 1):
        beta[k] = sum(math.comb(k, i) / math.comb(n, i) * a[i] for i in range(k + 1))
    return beta


@dataclass(frozen=True)
class TransformedActivation:
    """sin(gamma * s) shifted and scaled into the unit square.

    fbar(sbar) = (f(delta_s * (sbar - 0.5)) - f_min) / (f_max - f_min) where
    f_min/f_max are the extrema of the sine on [-delta_s/2, +delta_s/2]; for
    the sine family the extrema are closed-form: +-1 once |gamma|*delta_s/2
    reaches pi/2, otherwise the interval endpoints +-sin(|gamma|*delta_s/2).
    """

    gamma: float
    delta_s: float = DEFAULT_DELTA_S
    f_min: float = field(init=False, default=0.0)
    f_max: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.gamma == 0.0:
            raise ValueError("gamma must be nonzero (flat sine has no extent to scale)")
        if self.delta_s <= 0.0:
            raise ValueError("delta_s must be positive")
        reach = abs(self.gamma) * self.delta_s / 2.0
        f_max = 1.0 if reach >= np.pi / 2.0 else float(np.sin(reach))
        object.__setattr__(self, "f_max", f_max)
        object.__setattr__(self, "f_min", -f_max)

    def __call__(self, sbar):
        sbar = np.asarray(sbar, dtype=np.float64)
        raw = np.sin(self.gamma * self.delta_s * (sbar - 0.5))
        out = (raw - self.f_min) / (self.f_max - self.f_min)
        return out if out.ndim else float(out)


def transform_activation(gamma: float, delta_s: float = DEFAULT_DELTA_S) -> TransformedActivation:
    """Shift/scale the sine activation so its used portion fills [0,1]x[0,1]."""
    return TransformedActivation(gamma, delta_s)


def fit_bernstein_coeffs(fbar, n: int = DEFAULT_DEGREE, grid_size: int | None = None,
                         source: str = "") -> BernsteinSpec:
    """Box-constrained least-squares fit of ``fbar`` on a uniform [0,1] grid.

    Minimizes the discretized integral of (fbar - B_n)^2 subject to
    beta_k in [0, 1], by projected gradient descent started from the clipped
    unconstrained solution; iteration stops when the objective changes by
    less than 1e-10.  The constrained optimum is never worse than clipping.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if grid_size is None:
        grid_size = max(10 * (n + 1), 201)
    if grid_size < 10 * (n + 1):
        raise ValueError(f"grid_size must be >= {10 * (n + 1)} for degree {n}")
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
    return BernsteinSpec(tuple(float(b) for b in beta), source=source)


def make_independent_copies(s: BitStream, n: int,
                            delays: list[int] | None = None) -> list[BitStream]:
    """n statistically independent copies of a stream via cyclic rotation.

    Copy j is the source rotated by j positions (a delayed shift-register
    tap), so every copy has exactly the source's ones-count.  Custom
    ``delays`` may be supplied; spreading them far apart weakens the
    residual correlation between copies.
    """
    if n < 1:
        raise ValueError("need at least one copy")
    if s.L <= n:
        raise ValueError(f"stream length {s.L} too short for {n} rotated copies")
    if delays is None:
        delays = list(range(n))
    if len(delays) != n:
        raise ValueError(f"got {len(delays)} delays for {n} copies")
    return [BitStream(np.roll(s.bits, d)) for d in delays]


def spread_delays(n: int, L: int) -> list[int]:
    """Rotation depths spaced evenly around the stream, starting at zero.

    Adjacent comparator outputs are strongly related (consecutive LFSR
    states are a linear map apart), so depth-1..n taps bias the adder's
    count distribution; maximally separated taps behave like independent
    draws.
    """
    stride = max(1, L // n)
    return [(j * stride) % L for j in range(n)]


def bernstein_mux_packed(copies, beta):
    """Adder + MUX Bernstein node on bit-packed streams, e.g. (n, H, W) words.

    The first axis of ``copies`` (n input copies) and ``beta`` (n+1
    coefficient streams) indexes streams; any batch axes lead the word axis.
    A bit-sliced ripple counter adds the copies into n.bit_length() planes,
    and a decoder selects out = OR_k (beta_k & [count == k]).  All-zero
    padding counts 0, so zero-padded beta_0 keeps the output padding zero.
    """
    n = len(copies)
    if len(beta) != n + 1:
        raise ValueError(f"need {n + 1} coefficient streams for {n} copies, "
                         f"got {len(beta)}")
    planes: list[np.ndarray] = []
    for j, carry in enumerate(copies):
        for i, p in enumerate(planes):
            planes[i], carry = p ^ carry, p & carry
        if (j + 1).bit_length() > len(planes):
            planes.append(carry)
    inverted = [~p for p in planes]
    out = np.zeros_like(beta[0])
    for k, sel in enumerate(beta):
        for i, p in enumerate(planes):
            sel = sel & (p if k >> i & 1 else inverted[i])
        out |= sel
    return out


def stochastic_bernstein_eval(copies: list[BitStream],
                              beta_streams: list[BitStream]) -> BitStream:
    """Adder + MUX evaluator: output bit r comes from coefficient stream V_r.

    V_r is the ones-count across the copies at position r; with independent
    copies of ones-probability u the output ones-probability is the
    Bernstein polynomial of the coefficient probabilities at u.  The streams
    are packed, run through :func:`bernstein_mux_packed` and unpacked.
    """
    L = _check_equal_length(*copies, *beta_streams)
    out = bernstein_mux_packed(np.packbits(np.stack([c.bits for c in copies]), axis=-1),
                               np.packbits(np.stack([b.bits for b in beta_streams]), axis=-1))
    return BitStream(np.unpackbits(out, count=L))

"""Time delay reservoir with exact, Bernstein-deterministic, and bit-level backends.

One nonlinear node plus a delay line of ``tau`` slots realizes ``H`` virtual
nodes: at macro step p the held input u is mixed, node by node, with the
delayed state read ``tau`` slots back (global slot g = p*H + i reads slot
g - tau), passed through the activation, and written back.  With
tau = H + 1 the virtual nodes form a unidirectional ring.

The per-node update is

    s = 0.5 * (alpha * (w_i * u) + (1 - alpha) * x_fb) + 0.5 * theta_i
    x = activation(s)

which the ``stochastic`` backend realizes gate for gate: comparator-based
B2S of the operands, XNOR for the input weighting, one MUX (select
probability alpha) mixing input against feedback, a second MUX (select 0.5)
averaging in the bias, an adder+MUX Bernstein node for the activation, and
an up/down-counter S2B whose q-bit word enters the delay line.  Past the
comparators and the boolean XNOR/MUX logic every gate works on packed
words: copy j of the adder input is the window ring[:, L-d_j : 2L-d_j] of
ring = [m | m] (a rotation by d_j without a copy), the n windows are
packed, the adder plus MUX runs bit-sliced in
:func:`bernstein.bernstein_mux_packed`, and S2B is a population count.  The
two ideal backends evaluate the same composition in exact arithmetic, so the
stochastic state matrix converges to the ``ideal-bernstein`` one as the
stream length L grows.  Select thresholds are quantized at width q in the
stochastic backend; the ideal backends use the exact alpha and 0.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bernstein as bp
from . import streams
from .streams import (
    DEFAULT_Q,
    maximal_taps,
    offset_to_real,
    quantize,
    quantize_probability,
    real_to_offset,
    supported_widths,
    _lfsr_cycle,
)

BACKENDS = ("ideal-exact", "ideal-bernstein", "stochastic")
RESEED_POLICIES = ("none", "per-node")

# One LFSR role per stochastic source inside a node; each role runs its own
# tap polynomial so that paired streams never ride the same sequence.
ROLE_INPUT = 0
ROLE_WEIGHT = 1
ROLE_BIAS = 2
ROLE_FEEDBACK = 3
ROLE_SELECT_MIX = 4
ROLE_SELECT_BIAS = 5
ROLE_COEFF_BASE = 6  # coefficient k uses role ROLE_COEFF_BASE + k

_MASK64 = (1 << 64) - 1
_TAG_WEIGHTS = 0xA5B35E12D3C4F607
_TAG_BIASES = 0x9D2C5680CA3E1B45
_TAG_FREERUN = 0x6C62272E07BB0142


def _mix64(x: int) -> int:
    """splitmix64 finalizer; platform-independent integer hashing."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Deterministic 64-bit seed from a master seed and integer components."""
    h = _mix64(master & _MASK64)
    for p in parts:
        h = _mix64(h ^ _mix64(p & _MASK64))
    return h


def reseed_for_node(master_seed: int, node_index: int, role: int,
                    q: int = DEFAULT_Q) -> int:
    """Node-unique nonzero q-bit LFSR seed, identical at every macro step.

    Hash-mix of (master seed, node index, role), truncated to q bits and
    mapped away from zero.
    """
    v = derive_seed(master_seed, node_index, role) & ((1 << q) - 1)
    return v if v != 0 else 1


@dataclass
class TdrConfig:
    """All reservoir hyperparameters.

    ``L`` is the stochastic stream length; ``None`` marks the ideal
    (infinite-stream) backends.  ``input_weights``/``biases`` default to a
    master-seed draw (uniform, width-q representable) and zeros; passing
    ``biases="random"`` draws them uniformly instead.
    """

    H: int
    alpha: float
    gamma: float
    tau: int | None = None
    L: int | None = None
    n: int = bp.DEFAULT_DEGREE
    q: int = DEFAULT_Q
    master_seed: int = 0
    input_weights: np.ndarray | None = None
    biases: np.ndarray | str | None = None
    reseed_policy: str = "per-node"
    backend: str = "ideal-exact"

    def validate(self) -> None:
        if self.H < 1:
            raise ValueError("need at least one virtual node")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")
        if self.tau is not None and self.tau < self.H:
            raise ValueError(f"delay tau={self.tau} must be >= H={self.H}")
        if self.q not in supported_widths():
            raise ValueError(f"unsupported word width q={self.q}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.reseed_policy not in RESEED_POLICIES:
            raise ValueError(f"unknown reseed policy {self.reseed_policy!r}")
        if self.backend == "stochastic":
            if self.L is None or self.L < 1:
                raise ValueError("stochastic backend needs a stream length L >= 1")
            if self.L < self.n:
                raise ValueError(f"stream length L={self.L} is shorter than the Bernstein "
                                 f"degree n={self.n}: the adder's rotated copies would repeat")
        if self.n < 1:
            raise ValueError("Bernstein degree must be >= 1")

    @property
    def effective_tau(self) -> int:
        return self.tau if self.tau is not None else self.H + 1


def resolve_weights(cfg: TdrConfig) -> tuple[np.ndarray, np.ndarray]:
    """Input weights and biases, drawn from the master seed where unspecified.

    Both are exactly representable at width q: drawn values are quantized,
    supplied arrays are required to already sit on the grid.
    """
    if cfg.input_weights is None:
        rng = np.random.default_rng(derive_seed(cfg.master_seed, _TAG_WEIGHTS))
        w = quantize(rng.uniform(-1.0, 1.0, cfg.H), cfg.q)
    else:
        w = np.asarray(cfg.input_weights, dtype=np.float64)
        _check_representable(w, cfg.q, "input_weights")
    if cfg.biases is None:
        theta = np.zeros(cfg.H)
    elif isinstance(cfg.biases, str):
        if cfg.biases != "random":
            raise ValueError(f"biases must be an array, None, or 'random', got {cfg.biases!r}")
        rng = np.random.default_rng(derive_seed(cfg.master_seed, _TAG_BIASES))
        theta = quantize(rng.uniform(-1.0, 1.0, cfg.H), cfg.q)
    else:
        theta = np.asarray(cfg.biases, dtype=np.float64)
        _check_representable(theta, cfg.q, "biases")
    if w.shape != (cfg.H,) or theta.shape != (cfg.H,):
        raise ValueError(f"weights/biases must have shape ({cfg.H},)")
    return w, theta


def _check_representable(x: np.ndarray, q: int, what: str) -> None:
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > 1.0):
        raise ValueError(f"{what} outside [-1, 1]")
    if np.max(np.abs(quantize(x, q) - x), initial=0.0) > 1e-12:
        raise ValueError(f"{what} not exactly representable at width q={q}")


@dataclass
class TdrState:
    """Delay-line contents plus the macro-step counter.

    ``lfsr_pos`` tracks the free-running LFSR cycle positions under the
    ``none`` reseed policy (role -> position); it is ``None`` otherwise.
    """

    delay_line: np.ndarray
    current_step: int = 0
    lfsr_pos: dict[int, int] | None = None

    def copy(self) -> "TdrState":
        pos = dict(self.lfsr_pos) if self.lfsr_pos is not None else None
        return TdrState(self.delay_line.copy(), self.current_step, pos)

    def reset_dynamics(self) -> "TdrState":
        """Zeroed delay line and step counter; PRNG positions carry over."""
        fresh = np.zeros_like(self.delay_line)
        pos = dict(self.lfsr_pos) if self.lfsr_pos is not None else None
        return TdrState(fresh, 0, pos)


def activation_ideal(s, cfg: TdrConfig):
    """Exact activation in bipolar terms: the unit-square sine, mapped back.

    Equals sin(gamma*s) where the extrema +-1 are reachable
    (|gamma| >= pi/2), else sin(gamma*s)/sin(|gamma|); gamma = 0 is the
    linear limit (identity).
    """
    s = np.asarray(s, dtype=np.float64)
    if cfg.gamma == 0.0:
        out = s.copy()
    else:
        reach = abs(cfg.gamma) * bp.DEFAULT_DELTA_S / 2.0
        f_max = 1.0 if reach >= np.pi / 2.0 else np.sin(reach)
        out = np.sin(cfg.gamma * s) / f_max
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=128)
def _fitted_betas(gamma: float, n: int, q: int) -> tuple[float, ...]:
    """Width-q quantized Bernstein coefficients for the sine activation.

    gamma = 0 falls back to the identity ramp k/n (the linear limit of the
    transform), which the basis reproduces exactly.
    """
    if gamma == 0.0:
        beta = tuple(k / n for k in range(n + 1))
    else:
        fbar = bp.transform_activation(gamma, bp.DEFAULT_DELTA_S)
        beta = bp.fit_bernstein_coeffs(fbar, n).beta
    full = (1 << q) - 1
    return tuple(quantize_probability(b, q) / full for b in beta)


class Reservoir:
    """A configured reservoir instance with precomputed per-node machinery.

    Instances hold no mutable run state; the delay line and any free-running
    PRNG positions travel in :class:`TdrState`, so distinct instances (and
    sweep workers) share nothing.
    """

    def __init__(self, cfg: TdrConfig):
        cfg.validate()
        self.cfg = cfg
        self.H = cfg.H
        self.tau = cfg.effective_tau
        self.weights, self.biases = resolve_weights(cfg)
        self.activation_spec: bp.BernsteinSpec | None = None
        if cfg.backend in ("ideal-bernstein", "stochastic"):
            beta = _fitted_betas(cfg.gamma, cfg.n, cfg.q)
            self.activation_spec = bp.BernsteinSpec(
                beta, source=f"sin(gamma={cfg.gamma}) on delta_s={bp.DEFAULT_DELTA_S}")
        if cfg.backend == "stochastic":
            self._prepare_stochastic()

    # -- stochastic machinery ------------------------------------------------

    def _roles(self) -> list[int]:
        return list(range(ROLE_COEFF_BASE + self.cfg.n + 1))

    def _cycle(self, role: int):
        taps = maximal_taps(self.cfg.q, role)
        return _lfsr_cycle(self.cfg.q, taps)

    def _prepare_stochastic(self) -> None:
        cfg = self.cfg
        L, q, H, n = cfg.L, cfg.q, cfg.H, cfg.n
        full = (1 << q) - 1
        self._half = 1 << (q - 1)
        # words and thresholds share one narrow type, so no comparator widens
        self._word_dtype = np.uint8 if q <= 8 else np.uint16
        self._w_offsets = real_to_offset(self.weights, q).astype(self._word_dtype)
        self._t_offsets = real_to_offset(self.biases, q).astype(self._word_dtype)
        self._alpha_thr = quantize_probability(cfg.alpha, q)
        self._bias_thr = quantize_probability(0.5, q)
        self._beta_thr = np.array(
            [int(round(b * full)) for b in self.activation_spec.beta], dtype=self._word_dtype)
        self._copy_delays = bp.spread_delays(n, L)

        if cfg.reseed_policy == "per-node":
            def node_words(role: int) -> np.ndarray:
                cycle, pos = self._cycle(role)
                starts = np.array([pos[reseed_for_node(cfg.master_seed, i, role, q)]
                                   for i in range(H)])
                idx = (starts[:, None] + np.arange(L)[None, :]) % cycle.size
                return cycle[idx].astype(self._word_dtype)

            # constant operands freeze into fixed streams under re-seeding
            self._in_words = node_words(ROLE_INPUT)
            self._fb_words = node_words(ROLE_FEEDBACK)
            self._W = node_words(ROLE_WEIGHT) <= self._w_offsets[:, None]
            self._T = node_words(ROLE_BIAS) <= self._t_offsets[:, None]
            self._SM = node_words(ROLE_SELECT_MIX) <= self._alpha_thr
            self._SB = node_words(ROLE_SELECT_BIAS) <= self._bias_thr
            self._beta = np.packbits(np.stack(
                [node_words(ROLE_COEFF_BASE + k) <= self._beta_thr[k]
                 for k in range(n + 1)]), axis=-1)
        else:
            # free-running draws slice these pre-tiled cycles contiguously
            self._tiled = {}
            for role in self._roles():
                cycle, _ = self._cycle(role)
                reps = -(-(cycle.size + H * L) // cycle.size)
                self._tiled[role] = np.tile(cycle.astype(self._word_dtype), reps)

    def _initial_lfsr_pos(self) -> dict[int, int] | None:
        if self.cfg.backend != "stochastic" or self.cfg.reseed_policy != "none":
            return None
        pos = {}
        for role in self._roles():
            cycle, lookup = self._cycle(role)
            seed = derive_seed(self.cfg.master_seed, _TAG_FREERUN, role)
            word = seed & ((1 << self.cfg.q) - 1) or 1
            pos[role] = int(lookup[word])
        return pos

    def _draw_words(self, role: int, pos: dict[int, int]) -> np.ndarray:
        """Consume H*L words from a free-running role LFSR (nodes in order)."""
        count = self.H * self.cfg.L
        start = pos[role]
        period = (1 << self.cfg.q) - 1
        pos[role] = (start + count) % period
        return self._tiled[role][start:start + count].reshape(self.H, self.cfg.L)

    # -- stepping -------------------------------------------------------------

    def initial_state(self) -> TdrState:
        """All-zero delay line (the quantized zero word for the bit-level backend)."""
        if self.cfg.backend == "stochastic":
            zero_word = int(real_to_offset(0.0, self.cfg.q)) - self._half
            line = np.full(self.tau, zero_word, dtype=np.int64)
        else:
            line = np.zeros(self.tau, dtype=np.float64)
        return TdrState(line, 0, self._initial_lfsr_pos())

    def _read_positions(self, p: int) -> np.ndarray:
        # slot g - tau lands on the ring position about to be overwritten
        return (p * self.H + np.arange(self.H)) % self.tau

    def step(self, state: TdrState, u: float) -> tuple[TdrState, np.ndarray]:
        """Consume one held input sample; returns (new state, node outputs)."""
        if not math.isfinite(u):
            raise ValueError(f"input {u} is not finite")
        off = real_to_offset(u, self.cfg.q)
        if abs(float(offset_to_real(off, self.cfg.q)) - float(u)) > 1e-12:
            raise ValueError(f"input {u} not representable at width q={self.cfg.q}")
        if self.cfg.backend == "stochastic":
            return self._step_stochastic(state, int(off))
        return self._step_ideal(state, float(u))

    def _step_ideal(self, state: TdrState, u: float) -> tuple[TdrState, np.ndarray]:
        cfg = self.cfg
        pos = self._read_positions(state.current_step)
        fb = state.delay_line[pos]
        s = 0.5 * (cfg.alpha * (self.weights * u) + (1.0 - cfg.alpha) * fb) \
            + 0.5 * self.biases
        if cfg.backend == "ideal-exact":
            x = activation_ideal(s, cfg)
        else:
            sbar = (s + 1.0) / 2.0
            x = 2.0 * bp.bernstein_eval(np.asarray(self.activation_spec.beta), sbar) - 1.0
        line = state.delay_line.copy()
        line[pos] = x
        new = TdrState(line, state.current_step + 1, state.lfsr_pos)
        return new, np.asarray(x, dtype=np.float64)

    def _step_stochastic(self, state: TdrState, u_off: int) -> tuple[TdrState, np.ndarray]:
        cfg = self.cfg
        L = cfg.L
        pos = self._read_positions(state.current_step)
        fb_offsets = (state.delay_line[pos] + self._half).astype(self._word_dtype)[:, None]

        if cfg.reseed_policy == "per-node":
            new_pos = state.lfsr_pos
            U = self._in_words <= u_off
            F = self._fb_words <= fb_offsets
            W, T, SM, SB = self._W, self._T, self._SM, self._SB
            beta = self._beta
        else:
            new_pos = dict(state.lfsr_pos)
            U = self._draw_words(ROLE_INPUT, new_pos) <= u_off
            W = self._draw_words(ROLE_WEIGHT, new_pos) <= self._w_offsets[:, None]
            T = self._draw_words(ROLE_BIAS, new_pos) <= self._t_offsets[:, None]
            F = self._draw_words(ROLE_FEEDBACK, new_pos) <= fb_offsets
            SM = self._draw_words(ROLE_SELECT_MIX, new_pos) <= self._alpha_thr
            SB = self._draw_words(ROLE_SELECT_BIAS, new_pos) <= self._bias_thr
            beta = np.packbits(np.stack(
                [self._draw_words(ROLE_COEFF_BASE + k, new_pos) <= self._beta_thr[k]
                 for k in range(cfg.n + 1)]), axis=-1)

        # XNOR multiplies input by weight, the alpha-MUX mixes in the feedback,
        # the 0.5-MUX averages in the bias
        m2 = (SB & ((SM & (U == W)) | (~SM & F))) | (~SB & T)
        ring = np.concatenate([m2, m2], axis=1)
        copies = np.packbits(
            np.stack([ring[:, L - d:2 * L - d] for d in self._copy_delays]), axis=-1)
        out = bp.bernstein_mux_packed(copies, beta)
        ones = np.bitwise_count(out).sum(axis=-1, dtype=np.int64)

        offs = streams.ones_count_to_offset(ones, L, cfg.q)
        line = state.delay_line.copy()
        line[pos] = offs - self._half
        new = TdrState(line, state.current_step + 1, new_pos)
        return new, offset_to_real(offs, cfg.q)

    def run(self, inputs, state: TdrState | None = None,
            return_state: bool = False):
        """Feed a held-input sequence; row p of the result holds x_1..x_H.

        An explicit ``state`` continues a previous run (or carries
        free-running PRNG positions across probe sequences).
        """
        inputs = np.asarray(inputs, dtype=np.float64).reshape(-1)
        if inputs.size < 1:
            raise ValueError("need at least one input sample")
        if state is None:
            state = self.initial_state()
        X = np.empty((inputs.size, self.H), dtype=np.float64)
        for p, u in enumerate(inputs):
            state, X[p] = self.step(state, float(u))
        return (X, state) if return_state else X


def run_reservoir(inputs, cfg: TdrConfig) -> np.ndarray:
    """State matrix (one row per input sample) for a fresh reservoir run."""
    return Reservoir(cfg).run(inputs)


def write_states_csv(path, X: np.ndarray) -> None:
    """State matrix as CSV with header ``step,x1..xH``."""
    X = np.asarray(X)
    with open(path, "w", newline="") as fh:
        fh.write("step," + ",".join(f"x{i + 1}" for i in range(X.shape[1])) + "\n")
        for p, row in enumerate(X):
            fh.write(str(p) + "," + ",".join(repr(float(v)) for v in row) + "\n")

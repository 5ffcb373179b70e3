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
an up/down-counter S2B whose q-bit word enters the delay line.  Each gate
is one array kernel of ``streams`` or ``bernstein``, called once per step
on the streams of all H nodes: :func:`streams.b2s`,
:func:`streams.stoch_mult`, :func:`streams.stoch_mux_average`,
:func:`bernstein.make_independent_copies`,
:func:`bernstein.bernstein_mux_packed` and :func:`streams.s2b`; the LFSR
words come from :func:`streams.lfsr_words`.  The step only composes them.
Every stream is packed right after its comparator, so the gate chain runs
on (H, ceil(L/8)) bytes.
The two ideal backends evaluate the same composition in exact arithmetic,
so the stochastic state matrix converges to the ``ideal-bernstein`` one as
the stream length L grows.  Select thresholds are quantized at width q in the
stochastic backend; the ideal backends use the exact alpha and 0.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bernstein as bp
from .streams import (
    DEFAULT_Q,
    b2s,
    lfsr_words,
    maximal_taps,
    offset_to_real,
    pack,
    quantize,
    quantize_probability,
    real_to_offset,
    s2b,
    stoch_mult,
    stoch_mux_average,
    supported_widths,
    word_dtype,
)

BACKENDS = ("ideal-exact", "ideal-bernstein", "stochastic")
RESEED_POLICIES = ("none", "per-node")

# One LFSR role per stochastic source inside a node; role r runs the tap mask
# maximal_taps(q, r).  That index wraps where a width has fewer masks than a
# node has roles (q = 2-6 and 13-16 at n = 5): two roles then share a sequence.
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
    (infinite-stream) backends.  The input weights are always a master-seed
    draw (uniform, width-q representable); the biases are zero unless
    ``biases="random"`` draws them the same way.
    """

    H: int
    alpha: float
    gamma: float
    tau: int | None = None
    L: int | None = None
    n: int = bp.DEFAULT_DEGREE
    q: int = DEFAULT_Q
    master_seed: int = 0
    biases: str | None = None
    reseed_policy: str = "per-node"
    backend: str = "ideal-exact"

    def validate(self) -> None:
        if self.H < 1:
            raise ValueError("need at least one virtual node")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma={self.gamma} is not finite")
        if self.tau is not None and self.tau < self.H:
            raise ValueError(f"delay tau={self.tau} must be >= H={self.H}")
        if self.q not in supported_widths():
            raise ValueError(f"unsupported word width q={self.q}")
        if self.biases not in (None, "random"):
            raise ValueError(f"biases must be None or 'random', got {self.biases!r}")
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


def _seeded_uniform(cfg: TdrConfig, tag: int) -> np.ndarray:
    """H values drawn uniformly from [-1, 1] by the master seed, on the width-q grid."""
    rng = np.random.default_rng(derive_seed(cfg.master_seed, tag))
    return quantize(rng.uniform(-1.0, 1.0, cfg.H), cfg.q)


@dataclass
class TdrState:
    """Delay-line contents plus the macro-step counter.

    ``delay_line`` has shape ``(tau,)``, or ``(B, tau)`` for B sequences
    stepped together on the ideal backends; on ``stochastic`` it holds the
    offset words that S2B writes and B2S reads, in ``word_dtype(q)``.
    ``lfsr_states`` holds the register of each role's free-running LFSR
    under the ``none`` reseed policy (indexed by role); it is ``None``
    otherwise.
    """

    delay_line: np.ndarray
    current_step: int = 0
    lfsr_states: tuple[int, ...] | None = None


def activation_ideal(s: np.ndarray, gamma: float) -> np.ndarray:
    """Exact activation in bipolar terms: the unit-square sine, mapped back.

    sin(gamma*s) over the sine's largest value on the used interval (the
    ``f_max`` of :func:`bernstein.transform_activation`), so +-1 are the
    extrema; gamma = 0 is the linear limit (identity).
    """
    return np.sin(gamma * s) / bp.transform_activation(gamma).f_max if gamma else s


def check_run_length(m: int) -> None:
    """Raise ValueError unless a run has at least one macro step."""
    if m < 1:
        raise ValueError("need a nonempty input sequence")


def _scalar_offset(u: float, q: int) -> int:
    """Offset word of a float input; raises unless u is finite and on the
    width-q grid.

    The checks of :meth:`Reservoir.step` in math-module arithmetic: numpy
    ufuncs on one float cost about 15 us more per step (2-core Xeon).  On
    every input that passes, the nearest word (clamped to [0, 2^q - 1]) is
    the word of :func:`real_to_offset`, whose tie rules only act half a
    grid step, at least 1/65535, off the grid.
    """
    if not math.isfinite(u):
        raise ValueError(f"input {u} is not finite")
    full = (1 << q) - 1
    off = round(min(max((u + 1.0) * 0.5 * full, 0.0), full))
    if abs((2.0 * off - full) / full - u) > 1e-12:
        raise ValueError(f"input {u} not representable at width q={q}")
    return off


@functools.lru_cache(maxsize=128)
def _fitted_betas(gamma: float, n: int, q: int) -> tuple[int, ...]:
    """Bernstein coefficients of the sine activation as width-q threshold words;
    ``ideal-bernstein`` evaluates word / (2^q - 1).

    gamma = 0 falls back to the identity ramp k/n (the linear limit of the
    transform), which the basis reproduces exactly.
    """
    if gamma == 0.0:
        beta = tuple(k / n for k in range(n + 1))
    else:
        fbar = bp.transform_activation(gamma, bp.DEFAULT_DELTA_S)
        beta = bp.fit_bernstein_coeffs(fbar, n).beta
    return tuple(quantize_probability(b, q) for b in beta)


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
        self.weights = _seeded_uniform(cfg, _TAG_WEIGHTS)
        self.biases = (_seeded_uniform(cfg, _TAG_BIASES) if cfg.biases == "random"
                       else np.zeros(cfg.H))
        self.beta_words = (None if cfg.backend == "ideal-exact"
                           else _fitted_betas(cfg.gamma, cfg.n, cfg.q))
        if cfg.backend == "stochastic":
            self._prepare_stochastic()

    # -- stochastic machinery ------------------------------------------------

    def _prepare_stochastic(self) -> None:
        cfg = self.cfg
        L, q, H, n = cfg.L, cfg.q, cfg.H, cfg.n
        # thresholds share the words' narrow type, so no comparator widens
        self._w_offsets = real_to_offset(self.weights, q).astype(word_dtype(q))[:, None]
        self._t_offsets = real_to_offset(self.biases, q).astype(word_dtype(q))[:, None]
        self._alpha_thr = quantize_probability(cfg.alpha, q)
        self._bias_thr = quantize_probability(0.5, q)
        self._copy_delays = bp.spread_delays(n, L)
        self._taps = [maximal_taps(q, role) for role in range(ROLE_COEFF_BASE + n + 1)]

        if cfg.reseed_policy == "per-node":
            words = [lfsr_words(q, taps, [reseed_for_node(cfg.master_seed, i, role, q)
                                          for i in range(H)], L)
                     for role, taps in enumerate(self._taps)]
            # constant operands freeze into fixed streams under re-seeding
            self._fixed_streams = self._operand_streams(words)
            self._node_words = {ROLE_INPUT: words[ROLE_INPUT],
                                ROLE_FEEDBACK: words[ROLE_FEEDBACK]}

    def _operand_streams(self, words: list[np.ndarray]) -> tuple:
        """Packed W, T, SM, SB and coefficient streams from each role's words."""
        coeff_words = words[ROLE_COEFF_BASE:]
        return (pack(b2s(self._w_offsets, words[ROLE_WEIGHT])),
                pack(b2s(self._t_offsets, words[ROLE_BIAS])),
                pack(b2s(self._alpha_thr, words[ROLE_SELECT_MIX])),
                pack(b2s(self._bias_thr, words[ROLE_SELECT_BIAS])),
                np.stack([pack(b2s(thr, w)) for thr, w in zip(self.beta_words, coeff_words)]))

    def _initial_lfsr_states(self) -> tuple[int, ...] | None:
        if self.cfg.backend != "stochastic" or self.cfg.reseed_policy != "none":
            return None
        full = (1 << self.cfg.q) - 1
        return tuple(derive_seed(self.cfg.master_seed, _TAG_FREERUN, role) & full or 1
                     for role in range(len(self._taps)))

    def _draw_words(self, lfsr_states: tuple[int, ...]) -> tuple[list[np.ndarray], tuple]:
        """H*L words from each role's free-running LFSR (nodes in order), and
        the registers after them."""
        H, L = self.H, self.cfg.L
        words, after = [], []
        for taps, state in zip(self._taps, lfsr_states):
            run = lfsr_words(self.cfg.q, taps, state, H * L + 1)
            words.append(run[:-1].reshape(H, L))
            after.append(int(run[-1]))
        return words, tuple(after)

    # -- stepping -------------------------------------------------------------

    def initial_state(self) -> TdrState:
        """All-zero delay line (the quantized zero word for the bit-level backend)."""
        if self.cfg.backend == "stochastic":
            q = self.cfg.q
            line = np.full(self.tau, real_to_offset(0.0, q), dtype=word_dtype(q))
        else:
            line = np.zeros(self.tau, dtype=np.float64)
        return TdrState(line, 0, self._initial_lfsr_states())

    def step(self, state: TdrState, u) -> tuple[TdrState, np.ndarray]:
        """Consume one held input sample; returns (new state, node outputs).

        On the ideal backends ``u`` may hold one sample per row of a
        ``(B, tau)`` delay line, and the outputs then have shape ``(B, H)``.
        """
        q = self.cfg.q
        if isinstance(u, float):
            off = _scalar_offset(u, q)
        else:
            if not np.isfinite(u).all():
                raise ValueError(f"input {u} is not finite")
            off = real_to_offset(u, q)
            if (np.abs(offset_to_real(off, q) - u) > 1e-12).any():
                raise ValueError(f"input {u} not representable at width q={q}")
        # slot g - tau lands on the ring position about to be overwritten
        pos = (state.current_step * self.H + np.arange(self.H)) % self.tau
        fb = state.delay_line[..., pos]
        lfsr_states = state.lfsr_states
        if self.cfg.backend == "stochastic":
            if np.ndim(off) or fb.ndim != 1:
                raise ValueError("the stochastic backend steps one sequence at a time")
            written, lfsr_states = self._step_stochastic(int(off), fb, lfsr_states)
            x = offset_to_real(written, q)
        else:
            written = x = self._step_ideal(np.asarray(u, dtype=np.float64), fb)
        line = state.delay_line.copy()
        line[..., pos] = written
        return TdrState(line, state.current_step + 1, lfsr_states), x

    def _step_ideal(self, u: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """Node outputs from the held input(s) and the feedback values."""
        cfg = self.cfg
        s = 0.5 * (cfg.alpha * (self.weights * u[..., None]) + (1.0 - cfg.alpha) * fb) \
            + 0.5 * self.biases
        if cfg.backend == "ideal-exact":
            return activation_ideal(s, cfg.gamma)
        beta = np.asarray(self.beta_words) / ((1 << cfg.q) - 1)
        return 2.0 * bp.bernstein_eval(beta, (s + 1.0) / 2.0) - 1.0

    def _step_stochastic(self, u_off: int, fb: np.ndarray,
                         lfsr_states: tuple | None) -> tuple[np.ndarray, tuple | None]:
        """Node output words from the input word and the feedback words, and
        the LFSR registers after the step."""
        cfg = self.cfg
        if cfg.reseed_policy == "per-node":
            words = self._node_words
            W, T, SM, SB, beta = self._fixed_streams
        else:
            words, lfsr_states = self._draw_words(lfsr_states)
            W, T, SM, SB, beta = self._operand_streams(words)
        U = pack(b2s(u_off, words[ROLE_INPUT]))
        F = pack(b2s(fb[:, None], words[ROLE_FEEDBACK]))

        # XNOR multiplies input by weight, the alpha-MUX mixes in the feedback,
        # the 0.5-MUX averages in the bias
        mixed = stoch_mux_average(stoch_mux_average(stoch_mult(U, W), F, SM), T, SB)
        copies = bp.make_independent_copies(mixed, self._copy_delays, cfg.L)
        return s2b(bp.bernstein_mux_packed(copies, beta), cfg.L, cfg.q), lfsr_states

    def run(self, inputs) -> np.ndarray:
        """Feed a held-input sequence from :meth:`initial_state`; row p of the
        result holds x_1..x_H (signed values on every backend).

        A ``(B, m)`` block runs B sequences, each from the initial delay
        line, and returns ``(B, m, H)``.  The ideal backends step the rows
        together; the stochastic backend runs them in turn (see ``metrics``),
        its free-running PRNG positions advancing through the rows in order.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim not in (1, 2):
            raise ValueError("need an input sequence or (B, m) block")
        check_run_length(inputs.size)
        init = self.initial_state()
        if inputs.ndim == 2 and self.cfg.backend != "stochastic":
            # the rows advance together, one (B, H) step per macro step
            X = np.empty(inputs.shape + (self.H,), dtype=np.float64)
            state = TdrState(np.broadcast_to(init.delay_line, (len(inputs), self.tau)))
            for p in range(inputs.shape[1]):
                state, X[:, p] = self.step(state, inputs[:, p])
            return X
        X, state = [], init
        for row in np.atleast_2d(inputs):
            state = TdrState(init.delay_line, 0, state.lfsr_states)
            for u in row.tolist():
                state, x = self.step(state, u)
                X.append(x)
        return np.reshape(X, inputs.shape + (self.H,))

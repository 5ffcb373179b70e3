"""Time delay reservoir with exact, Bernstein-deterministic, and bit-level backends.

One nonlinear node plus a delay line of ``tau`` slots realizes ``H`` virtual
nodes: at macro step p the held input u is mixed, node by node, with the
value written ``tau`` slots back (virtual node g = p*H + i reads the output
of node g - tau, or zero for g < tau), and passed through the activation.
With tau = H + 1 the virtual nodes form a unidirectional ring.
:meth:`Reservoir.step` is the node, a pure function from the held input, its
feedback and the macro step's index t to the step's H outputs;
:meth:`Reservoir.run` keeps each sequence's delay line as its output history,
so the read and the write are two slices.
``run`` checks the whole input once and hands the node each held input as
an offset word on ``stochastic``, like the feedback, and as the value otherwise.

The per-node update is

    s = 0.5 * (alpha * (w_i * u) + (1 - alpha) * x_fb) + 0.5 * theta
    x = activation(s)

with theta = 0.  The ``stochastic`` backend realizes it gate for gate:
comparator-based B2S of the operands, XNOR for the input weighting, one MUX
(select probability alpha) mixing input against feedback, the paper's second
MUX (select 0.5) averaging in the bias operand, which is the zero word, an
adder+MUX Bernstein node for the activation, and
an up/down-counter S2B whose q-bit word enters the delay line.  The step
runs each on the streams of all H nodes at once: comparators
(:func:`streams.b2s`) on the words of :func:`streams.lfsr_windows`, every
stream packed right after its comparator, so the gate chain runs on
(H, ceil(L/8)) bytes; the XNOR and both MUXes as the masked form below;
then :func:`bernstein.make_independent_copies`,
:func:`bernstein.bernstein_mux_packed` and :func:`streams.s2b`.  The MUX
tree folds the coefficient streams of threshold 0 and 2^q - 1, all-zero
and all-one at every source since an LFSR emits no word 0.
The two ideal backends evaluate the same composition in exact arithmetic,
so the stochastic state matrix converges to the ``ideal-bernstein`` one as
the stream length L grows.  Select thresholds are quantized at width q in the
stochastic backend; the ideal backends use the exact alpha and 0.5.

The ideal step computes the mix sum
S = alpha * (w_i * u) + (1 - alpha) * x_fb into one array and scales it in
place, once, by a power of two: s = S / 2 on ``ideal-exact``, and on
``ideal-bernstein`` sbar = S / 4 + 1/2, the unit-square argument
(s + 1) / 2.  Scaling by 1/2 or 1/4 is exact for every normal value, so
sbar has the bits of (S / 2 + 1) / 2; where S / 4 would round
(|S| < 2^-1020) both forms round to 1/2.  Folding the scale into alpha and
1 - alpha instead rounds at a subnormal alpha.  Inputs, weights and
feedback lie in [-1, 1], so sbar lies in [1/4, 3/4] up to rounding, well
inside the unit interval, and the step evaluates the unchecked
:func:`bernstein.nested_form`.

The mix SB ? (SM ? U*W : F) : T is the input half X0 ^ (U & A) OR the
feedback stream F & D, with the masks A, C, D of :func:`streams.mix_masks`
and X0 of :func:`streams.mix_input_base`, whose docstrings derive the law.

The reseed policy decides only which LFSR words a node reads.  A source is
one L-word row of every role, starting at its own position on the role's
cycle: under ``per-node`` source i is node i, restarted from its seeds
(:func:`reseed_for_node`), so there are S = H sources; under ``none``
source s is phase s of the free-running cycles, s*L words past each role's
position, so S = :func:`freerun_phases` and the sources from any one on
are one run of each cycle.  Node i of macro step t reads source
(t*H + i) mod S, and the build tabulates, from the sources' words:

* the shared table of A, C, D and the coefficient streams beta_0 .. beta_n,
  the streams whose threshold every node shares: n + 4 stacked rows for
  sources 0 .. S + H - gcd(H, S) - 1 (mod S), of which step t reads H from
  t*H mod S on as a view;
* X0, a function of node and source that repeats with t*H + i mod
  lcm(H, S): row r is node r mod H at source r mod S;
* the per-word input and feedback tables UA, of U & A, and FD, of F & D,
  for every word, read at the held input word and at each node's feedback
  word: :func:`streams.b2s_table` of the sources' U and F words,
  2^q * S * ceil(L/8) bytes each.  A step reads UA[u] at its sources with
  one row ``take``, and FD, kept as 2^q * S flat rows, with one ``take`` at
  v*S + s.

When H divides S, as always under ``per-node``, X0 has one row per source
and folds into UA, so step t reads UA[u] at sources t*H mod S on as a view.
At q = 8, H = 50, L = 1000 each per-word table takes 1.6 MB, and X0 under
``none`` (S = 51) 0.3 MB.  Each table is built, in the order above and X0
and the per-word tables only beside the shared table, when it fits within
one fixed byte cap or has at most H rows a stream.  The latter holds for
the shared table and X0 when S divides H: every step then reads the same
H sources, and the build also keeps their U and F words.  Past the cap
each step derives the missing streams with comparators, as the gate chain
above reads, from its sources' words: kept, or under ``none`` a view of
one run of each cycle.

Under ``per-node`` node i reads source i at every step, so it is a fixed
function S_i(u, v) of the input word u and its feedback word v.  When the
surface S[u, v, i] of output words, 2^(2q) * H words, fits the byte cap
(up to H = 64 at q = 8), the build makes the shared table and X0 but not
the per-word tables, and the first step derives the surface from them and
the sources' U and F words; every step is then the gather S[u, fb, i].
The derivation, for node i:

* the mixed bit at position s is X0 (the bit at u = v = 0) but for a step
  at one word: on A it is XNOR([U_s <= u], W_s), a step at u = U_s, up
  where W_s is set and down where it is not; on D it is [F_s <= v], a
  step up at v = F_s;
* the adder's count at position r sums the copies' bits at r - d_j
  (mod L), d = :func:`bernstein.spread_delays`: a constant plus the u-steps
  and the v-steps crossed, at most n steps; the output bit is beta_c[r] at
  count c, row 3 + c of the shared table;
* so each position's output bit is constant on a grid of its steps, and
  adds the 2-D differences at the grid's corners, ties taken in sorted
  order so that they telescope.  Prefix sums over u and v of all corners
  give every ones count N_i(u, v), and S2B's table maps it to the word.

At q = 8, L = 1000, H = 50 the surface takes 3.3 MB, and its derivation
costs a few hundred table-served gate-chain steps; a step that reads the
derived surface is one gather, a small fraction of one gate-chain step.
The gather reads row u of the surface, flattened to 2^q * H words, with
one ``take`` at v*H + i.
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
    b2s_table,
    count_offsets,
    lfsr_cycle,
    lfsr_windows,
    maximal_taps,
    mix_input_base,
    mix_masks,
    offset_to_real,
    pack,
    quantize,
    quantize_probability,
    real_to_offset,
    s2b,
    supported_widths,
    word_dtype,
)

BACKENDS = ("ideal-exact", "ideal-bernstein", "stochastic")
BERNSTEIN_BACKENDS = ("ideal-bernstein", "stochastic")  # the backends that read the degree n
RESEED_POLICIES = ("none", "per-node")

# One LFSR role per stochastic source inside a node; role r runs the tap mask
# maximal_taps(q, r), so no two roles share a sequence.  A node has 7 + n
# roles, and TdrConfig.validate rejects a width with fewer masks (every
# q <= 6, and n >= 10 at the 16 masks of q >= 7).
ROLE_INPUT = 0
ROLE_WEIGHT = 1
ROLE_BIAS = 2
ROLE_FEEDBACK = 3
ROLE_SELECT_MIX = 4
ROLE_SELECT_BIAS = 5
ROLE_COEFF_BASE = 6  # coefficient k uses role ROLE_COEFF_BASE + k

# the largest precomputed table a reservoir builds, each of the per-node
# surface, the shared-stream table, X0 and the per-word input and feedback
# tables, unless it has at most H rows a stream; past it every step derives
# the missing streams from its sources' words
_TABLE_MAX_BYTES = 4 << 20

_MASK64 = (1 << 64) - 1
_TAG_WEIGHTS = 0xA5B35E12D3C4F607
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


def reseed_for_node(master_seed: int, node_index: int | np.ndarray, role: int | np.ndarray,
                    q: int = DEFAULT_Q) -> int | np.ndarray:
    """Node-unique nonzero q-bit LFSR seed, identical at every macro step.

    Hash-mix of (master seed, node index, role), truncated to q bits and
    mapped away from zero.  ``node_index`` and ``role`` may also be uint64
    arrays, which broadcast and hash every pair in one pass: the finalizer
    wraps mod 2^64 on them as on the masked integers.
    """
    v = derive_seed(master_seed, node_index, role) & ((1 << q) - 1)
    return v + (v == 0)


@dataclass
class TdrConfig:
    """All reservoir hyperparameters.

    ``L`` is the stochastic stream length; ``None`` marks the ideal
    (infinite-stream) backends.  The input weights are a master-seed draw
    (uniform, width-q representable); the bias is zero on every node.
    """

    H: int
    alpha: float
    gamma: float
    tau: int | None = None
    L: int | None = None
    n: int = bp.DEFAULT_DEGREE
    q: int = DEFAULT_Q
    master_seed: int = 0
    reseed_policy: str = "per-node"
    backend: str = "ideal-exact"

    def validate(self) -> None:
        if self.H < 1:
            raise ValueError("need at least one virtual node")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")
        if self.gamma:  # every backend scales by it: f_max on ideal-exact, else the fit
            bp.TransformedActivation(self.gamma)
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
            roles = ROLE_COEFF_BASE + self.n + 1
            try:
                maximal_taps(self.q, roles - 1)
            except ValueError as e:
                raise ValueError(f"a stochastic node of degree n={self.n} runs {roles} LFSR "
                                 f"roles, one tap mask each, but {e}") from None
        if self.backend in BERNSTEIN_BACKENDS:
            bp.check_fit_size(self.n)

    @property
    def effective_tau(self) -> int:
        return self.tau if self.tau is not None else self.H + 1


def freerun_phases(L: int, q: int) -> int:
    """P' = P / gcd(L, P), P = 2^q - 1: the LFSR phases the nodes of a
    free-running (``none``) reservoir of stream length L read.  At 1 every
    node and every macro step reads the same words of each role."""
    period = (1 << q) - 1
    return period // math.gcd(L, period)


def check_run_length(m: int) -> None:
    """Raise ValueError unless a run has at least one macro step."""
    if m < 1:
        raise ValueError("need a nonempty input sequence")


def _input_error(inputs: np.ndarray, bad: np.ndarray, what: str) -> ValueError:
    """The error naming the first flagged input, its step and, in a block or
    a stack, its row and block."""
    at = tuple(np.argwhere(bad)[0])
    where = ", ".join(f"{axis} {i}" for axis, i in zip(("block", "row", "step")[-len(at):], at))
    return ValueError(f"input {inputs[at]} at {where} {what}")


def _sorted(keys: list[np.ndarray]) -> list[np.ndarray]:
    """Sort equal-shape arrays elementwise, in place, by odd-even
    transposition: keys[0] ends with the least of each element.  About
    n^2/2 min-max pairs, far fewer operations than np.sort on a short
    last axis at small n."""
    for p in range(len(keys)):
        for j in range(p % 2, len(keys) - 1, 2):
            keys[j], keys[j + 1] = np.minimum(keys[j], keys[j + 1]), np.maximum(keys[j], keys[j + 1])
    return keys


@functools.lru_cache(maxsize=128)
def _fitted_betas(gamma: float, n: int, q: int) -> tuple[int, ...]:
    """Bernstein coefficients of the sine activation as width-q threshold words;
    ``ideal-bernstein`` evaluates word / (2^q - 1).

    gamma = 0 falls back to the identity ramp k/n (the linear limit of the
    transform), which the basis reproduces exactly.
    """
    beta = (bp.fit_bernstein_coeffs(bp.TransformedActivation(gamma), n) if gamma
            else [k / n for k in range(n + 1)])
    return tuple(quantize_probability(b, q) for b in beta)


class Reservoir:
    """A configured reservoir instance with precomputed stream machinery:
    under ``stochastic``, the seed rows the sources' LFSR words start from
    and, each within ``_TABLE_MAX_BYTES`` or of at most H rows a stream, the
    shared-stream table, X0 and, unless the per-node surface fits, the
    per-word input and feedback tables of those sources.  A surface that
    fits is derived on the first step and cached on the instance.

    Instances hold no run state: :meth:`run` owns the delay line, and
    :meth:`step` reads the surface, the tables, or past the cap the words,
    of its macro step's sources, so distinct instances (and sweep workers)
    share nothing.
    """

    def __init__(self, cfg: TdrConfig):
        cfg.validate()
        self.cfg = cfg
        self.H = cfg.H
        self.tau = cfg.effective_tau
        # H weights drawn uniformly from [-1, 1] by the master seed, on the width-q grid
        rng = np.random.default_rng(derive_seed(cfg.master_seed, _TAG_WEIGHTS))
        self.weights = quantize(rng.uniform(-1.0, 1.0, cfg.H), cfg.q)
        self.beta_words = (_fitted_betas(cfg.gamma, cfg.n, cfg.q)
                           if cfg.backend in BERNSTEIN_BACKENDS else None)
        if cfg.backend == "ideal-exact" and cfg.gamma:
            self._f_max = bp.TransformedActivation(cfg.gamma).f_max
        if cfg.backend == "ideal-bernstein":
            self._beta = tuple(w / ((1 << cfg.q) - 1) for w in self.beta_words)
        if cfg.backend == "stochastic":
            self._prepare_stochastic()

    # -- stochastic machinery ------------------------------------------------

    def _prepare_stochastic(self) -> None:
        cfg = self.cfg
        L, q, H, n = cfg.L, cfg.q, cfg.H, cfg.n
        width = (L + 7) // 8
        # thresholds share the words' narrow type, so no comparator widens
        self._w_offsets = real_to_offset(self.weights, q).astype(word_dtype(q))[:, None]
        # the thresholds of T (the zero-word bias), SM and SB
        self._thresholds = (int(real_to_offset(0.0, q)), quantize_probability(cfg.alpha, q),
                            quantize_probability(0.5, q))
        self._copy_delays = bp.spread_delays(n, L)
        # an LFSR emits no word 0, so threshold 0 compares to the all-zero
        # stream and 2^q - 1 to the all-one stream at every source
        full = (1 << q) - 1
        self._constant_coeffs = tuple(0 if w == 0 else 1 if w == full else None
                               for w in self.beta_words)
        self._nodes = np.arange(H)
        self._taps = [maximal_taps(q, role) for role in range(ROLE_COEFF_BASE + n + 1)]
        self._seeds, S = self._source_seeds()
        self._source_count = S
        self._shared = self._x0 = self._input_table = self._feedback_table = self._sources = None
        self._kept_words = {}
        self._word = word_dtype(q)
        # a derived per-node surface: S itself and its flattened rows
        self._surface = self._surface_rows = None
        # the feedback offsets v*S that a gather from the surface or the
        # feedback table adds the node or source index to (S = H under per-node)
        self._fb_offsets = np.arange(1 << q, dtype=np.intp) * S
        surface_bytes = (H << 2 * q) * np.dtype(word_dtype(q)).itemsize
        self._surface_fits = cfg.reseed_policy == "per-node" and surface_bytes <= _TABLE_MAX_BYTES

        def fits(rows, streams=1):
            # at most H rows a stream hold no more than one step derives
            return rows <= H or streams * rows * width <= _TABLE_MAX_BYTES

        rows = S + H - math.gcd(H, S)
        if not fits(rows, n + 4):
            return
        # the source of each shared-table row; step t's nodes read the rows
        # from t*H mod S on, a multiple of gcd(H, S)
        self._sources = np.arange(rows) % S
        self._shared = self._shared_streams(lambda role: self._words(role, self._sources))
        A, C, D = self._shared[:3, :S]
        src, rows = np.arange(S), math.lcm(H, S)
        if fits(rows):
            # S rows at a time, one per source, as the shared table compares them
            W = self._words(ROLE_WEIGHT, src)
            self._x0 = np.concatenate([
                mix_input_base(pack(b2s(self._w_offsets[np.arange(k, k + S) % H], W)), A, C)
                for k in range(0, rows, S)])
        if self._surface_fits:  # the first step derives the surface from these and U and F
            return
        if fits((1 << q) * S):
            self._input_table = b2s_table(self._words(ROLE_INPUT, src), A, q)
            if S % H == 0:  # one X0 row per source: fold it into the input table
                self._input_table ^= self._x0
                self._x0 = None
            # flat rows, v*S + s at feedback word v and source s
            FD = b2s_table(self._words(ROLE_FEEDBACK, src), D, q)
            self._feedback_table = FD.reshape(-1, width)
        elif len(self._sources) <= H:  # every step reads these H sources: keep U and F
            self._kept_words = {role: self._words(role, self._sources)
                                for role in (ROLE_INPUT, ROLE_FEEDBACK)}

    def _source_seeds(self) -> tuple[np.ndarray, int]:
        """The cycle positions of each role's K seed rows, (roles, K), and
        the source count S.  Source s starts (s div K)*L words past seed row
        s mod K.

        The reseed policy is this choice alone: under ``per-node`` K = S = H,
        source i is node i, its LFSRs restarted from its own seeds; under
        ``none`` K = 1, source s is phase s of the free-running cycles, s*L
        words past each role's position, and S = :func:`freerun_phases`, so
        S*L words are whole periods.
        """
        cfg = self.cfg
        if cfg.reseed_policy == "per-node":
            nodes, S = np.arange(self.H, dtype=np.uint64), self.H
        else:
            nodes, S = _TAG_FREERUN, freerun_phases(cfg.L, cfg.q)
        # every role's seed words in one pass: a role column against the node row
        roles = np.arange(len(self._taps), dtype=np.uint64)[:, None]
        words = reseed_for_node(cfg.master_seed, nodes, roles, cfg.q)
        return np.stack([lfsr_cycle(cfg.q, taps)[1][w] for taps, w in zip(self._taps, words)]), S

    def _words(self, role: int, src: np.ndarray) -> np.ndarray:
        """The (len(src), L) comparator words of ``role`` at sources ``src``."""
        q, L, seeds = self.cfg.q, self.cfg.L, self._seeds[role]
        starts = (seeds[src % len(seeds)] + src // len(seeds) * L) % ((1 << q) - 1)
        return lfsr_windows(q, self._taps[role], L)[starts]

    def _step_words(self, role: int, o: int) -> np.ndarray:
        """The (H, L) words of ``role`` at a step's sources o .. o + H - 1
        (mod S): the kept rows, or else a view of one run of the cycle from
        the one seed row, since S*L words are whole periods.  More seed rows
        mean S = H sources, whose tables and words the build always keeps."""
        H, q, L = self.H, self.cfg.q, self.cfg.L
        if role in self._kept_words:
            return self._kept_words[role][o:o + H]
        start = (int(self._seeds[role, 0]) + o * L) % ((1 << q) - 1)
        return lfsr_windows(q, self._taps[role], H * L)[start].reshape(H, L)

    def _shared_streams(self, words) -> np.ndarray:
        """The mix masks A, C and D (:func:`streams.mix_masks`), then the
        coefficient streams beta_0 .. beta_n, packed and stacked on a leading
        axis, from ``words(role)``, the sources' words of each role: the
        streams whose threshold every node shares."""
        T, SM, SB = (pack(b2s(thr, words(role))) for thr, role in
                     zip(self._thresholds, (ROLE_BIAS, ROLE_SELECT_MIX, ROLE_SELECT_BIAS)))
        coeffs = [pack(b2s(beta, words(ROLE_COEFF_BASE + k)))
                  for k, beta in enumerate(self.beta_words)]
        return np.stack([*mix_masks(T, SM, SB), *coeffs])

    def transfer_surface(self) -> np.ndarray:
        """The per-node surface S, (2^q, 2^q, H) and read-only: S[u, v, i]
        is node i's output word at input word u and feedback word v, as
        :meth:`step` returns it at every t.  Derived on the first call or
        step and cached; raises ValueError on the ideal backends, under
        ``none`` and past the table cap.
        """
        cfg = self.cfg
        if cfg.backend != "stochastic":
            raise ValueError(f"the {cfg.backend} backend steps values, not words: it has no "
                             "transfer surface")
        if cfg.reseed_policy != "per-node":
            raise ValueError("under reseed policy 'none' a node reads other streams at every "
                             "step: only 'per-node' has a transfer surface")
        if not self._surface_fits:
            raise ValueError(f"the transfer surface of {cfg.H} nodes at q={cfg.q} is past the "
                             f"{_TABLE_MAX_BYTES}-byte table cap")
        if self._surface is None:
            surface = self._derive_surface()
            surface.flags.writeable = False
            self._surface_rows = list(surface.reshape(1 << cfg.q, -1))
            self._surface = surface
        return self._surface

    def _derive_surface(self) -> np.ndarray:
        """The surface, from the corners of :meth:`_surface_corners`.

        Summed over v, the corners at u = 0 give the ones counts N(0, v) and
        the others the steps N(u, v) - N(u - 1, v).  A step is at most n times
        the ceil(L / (2^q - 1)) positions of one input word, so the steps
        wrap in a narrow unsigned grid, and row u of the grid turns into
        row u of the surface once the counts have taken it.
        """
        L, q, H, n = self.cfg.L, self.cfg.q, self.H, self.cfg.n
        at, diff = self._surface_corners()
        first = at < H << q
        counts = np.zeros((1 << q, H), dtype=np.min_scalar_type(-L))
        np.add.at(counts.reshape(-1), at[first], diff[first].astype(counts.dtype))
        counts = counts.cumsum(axis=0, dtype=counts.dtype)

        words = count_offsets(L, q)
        most = -(-L // ((1 << q) - 1)) * n
        size = max(np.min_scalar_type(-most).itemsize, words.itemsize)
        grid = np.zeros((1 << q, 1 << q, H), dtype=f"u{size}")
        np.add.at(grid.reshape(-1), at[~first], diff[~first].astype(grid.dtype))
        for v in range(1, 1 << q):  # row by row, in place: np.cumsum is several times slower
            grid[:, v] += grid[:, v - 1]
        steps = grid.view(f"i{size}")
        surface = grid.view(words.dtype) if size == words.itemsize else np.empty_like(grid, words.dtype)
        for u in range(1 << q):
            if u:
                counts += steps[u]
            np.take(words, counts, out=surface[u])
        return surface

    def _surface_corners(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2-D differences of every position's output bit over (u, v):
        flat indices into the (2^q, 2^q, H) grid and their values."""
        L, q, H, n = self.cfg.L, self.cfg.q, self.H, self.cfg.n

        def bits(packed):
            return np.unpackbits(packed, axis=-1, count=L).view(bool)

        # a tap's step as a sort key, past every word where the tap has none:
        # 2 U_s + X0_s on A, odd for a step down, and F_s on D
        never = 2 << q
        itype = np.min_scalar_type(-2 * never)  # signed; holds the keys and n + 1 bits

        def taps(x):  # copy j reads position r - d_j
            return [np.roll(x, d, axis=1).reshape(-1) for d in self._copy_delays]

        A, D = bits(self._shared[[0, 2]])
        X0 = bits(self._x0)
        U, F = (self._words(role, self._nodes).astype(itype) for role in (ROLE_INPUT, ROLE_FEEDBACK))
        ut = _sorted(taps(np.where(A, 2 * U + X0, never).astype(itype)))
        vt = _sorted(taps(np.where(D, F, never).astype(itype)))
        count = sum(np.roll(X0, d, axis=1).reshape(-1).astype(itype) for d in self._copy_delays)
        # bit c of G is beta_c, the Bernstein MUX's output at count c: shared row
        # 3 + c, unpacked one row at a time so that one row's bits are live, not n + 1
        G = np.zeros(H * L, itype)
        for c in range(n + 1):
            G |= bits(self._shared[3 + c]).reshape(-1).astype(itype) << c
        node = np.repeat(self._nodes.astype(np.int32), L)
        at, diff = [], []
        # u-segment k: the positions with k u-steps or more, after the first k
        for k in range(n + 1):
            if k:
                sel = np.flatnonzero(ut[k - 1] < never)
                if not sel.size:
                    break
                ut, vt = [x[sel] for x in ut], [x[sel] for x in vt]
                G, count, node, before = G[sel], count[sel], node[sel], now[sel]
                count += 1 - 2 * (ut[k - 1] & 1)
                base = (ut[k - 1] >> 1) * np.int32(H << q) + node
            else:
                before, base = 0, node
            now = G >> count
            step_prev = 0
            for l in range(n + 1):  # the corner at the l-th smallest v-step, or v = 0
                # the output bit's change from u-segment k - 1 to k, after l v-steps
                step = (now >> l & 1) - (before >> l & 1)
                d = step - step_prev
                step_prev = step
                if l:
                    keep = np.flatnonzero((vt[l - 1] < never) & (d != 0))
                    at.append(base[keep] + vt[l - 1][keep] * np.int32(H))
                else:
                    keep = np.flatnonzero(d)
                    at.append(base[keep])
                diff.append(d[keep].astype(np.int8))
        return np.concatenate(at), np.concatenate(diff)

    # -- stepping -------------------------------------------------------------

    def step(self, u, fb: np.ndarray, t: int) -> np.ndarray:
        """One macro step of the node: the H outputs from the held input ``u``
        and the feedback ``fb``, the values written ``tau`` slots back.

        A pure function of its arguments.  ``t`` is the macro step's index
        in the run (b*m + p for step p of row b of a ``(B, m)`` block, or of
        each block of a stack); only ``stochastic`` reads it: node i reads
        source (t*H + i) mod S, which under ``per-node`` is node i at every
        step.  ``u`` comes as :meth:`run` prepared it, and the step checks no
        values; a feedback whose last axis is not H raises ValueError.  On
        ``stochastic``, ``u``, the feedback and the outputs are offset words
        in ``word_dtype(q)``, the outputs a new ``(H,)`` array: under
        ``per-node`` within the table cap the gather ``S[u, fb, i]`` of
        :meth:`transfer_surface`, which the first step derives, and
        otherwise the gate chain.  The gather is one ``take`` on
        row u of the surface, flattened, at the cached offsets fb*H plus the
        node index, a small fraction of a table-served gate chain.  A
        ``word_dtype(q)`` scalar ``u`` and an ``(H,)`` ndarray ``fb``, as
        :meth:`run` passes them, skip the shape checks that any other input
        takes.  The ideal backends take the signed value, a plain float as
        well as a numpy scalar, and may step B sequences at once: ``u`` then
        holds one sample per row of a ``(B, H)`` feedback block.
        """
        if self.cfg.backend == "stochastic":
            # the types and the shape run passes, else the shapes of one sequence
            if not (type(u) is self._word and type(fb) is np.ndarray and fb.shape == (self.H,)):
                if np.ndim(u) or np.ndim(fb) != 1:
                    raise ValueError("the stochastic backend steps one sequence at a time")
                fb = np.asarray(fb)  # a feedback list, as the gate chain indexes arrays
                self._check_feedback(fb.shape)
            rows = self._surface_rows
            if rows is None:
                if not self._surface_fits:
                    return self._step_stochastic(u, fb, t)
                self.transfer_surface()
                rows = self._surface_rows
            # S[u, fb, i] as row u, flattened, at v*H + i
            return rows[u].take(self._fb_offsets.take(fb) + self._nodes)
        if not (type(fb) is np.ndarray and fb.shape[-1:] == (self.H,)):
            self._check_feedback(np.shape(fb))
        return self._step_ideal(u, fb)

    def _check_feedback(self, shape: tuple) -> None:
        """Raise ValueError unless a feedback of this shape has a last axis of H."""
        if shape[-1:] != (self.H,):
            raise ValueError(f"the feedback of {self.H} nodes needs a last axis of {self.H}, "
                             f"got shape {shape}")

    def _step_ideal(self, u, fb: np.ndarray) -> np.ndarray:
        """Node outputs from the held input(s) and the feedback values."""
        cfg = self.cfg
        # the mix sum alpha*(w*u) + (1-alpha)*fb, scaled in place by one exact power of two
        s = np.multiply.outer(u, self.weights)
        s *= cfg.alpha
        s += (1.0 - cfg.alpha) * fb
        if cfg.backend == "ideal-exact":
            s *= 0.5
            # the unit-square sine mapped back, so +-1 are its extrema on the
            # used interval; gamma = 0 is the linear limit (identity)
            if cfg.gamma:
                s *= cfg.gamma
                np.sin(s, out=s)
                s /= self._f_max
            return s
        # (s/2 + 1)/2 as s/4 + 1/2, in [1/4, 3/4] up to rounding as |s| <= 1:
        # well inside [0, 1], so the nested form needs no range check
        s *= 0.25
        s += 0.5
        out = bp.nested_form(self._beta, s)
        out *= 2.0
        out -= 1.0
        return out

    def _step_stochastic(self, u_off: np.integer, fb: np.ndarray, t: int) -> np.ndarray:
        """Node output words of macro step t from the input word and the
        feedback words, by the gate chain."""
        H, S, UA, FD = self.H, self._source_count, self._input_table, self._feedback_table
        # node i reads source (t*H + i) mod S: the source rows from o on
        o = t * H % S
        # the rows A, C, D and the coefficient streams; a step with every
        # table reads only the latter
        rows = (self._shared_streams(lambda role: self._step_words(role, o))
                if self._shared is None else self._shared[:, o:o + H])
        if UA is not None and S % H == 0:  # X0 folded into UA: sources o .. o + H - 1
            G = UA[u_off, o:o + H]
        else:  # the input half X0 ^ (U & A)
            if self._x0 is None:
                W = pack(b2s(self._w_offsets, self._step_words(ROLE_WEIGHT, o)))
                X0 = mix_input_base(W, rows[0], rows[1])
            else:  # row r serves node r mod H at source r mod S
                r = t * H % len(self._x0)
                X0 = self._x0[r:r + H]
            G = X0 ^ (UA[u_off].take(self._sources[o:o + H], axis=0) if UA is not None
                      else pack(b2s(u_off, self._step_words(ROLE_INPUT, o))) & rows[0])
        F = (FD.take(self._fb_offsets.take(fb) + self._sources[o:o + H], axis=0) if FD is not None
             else pack(b2s(fb[:, None], self._step_words(ROLE_FEEDBACK, o))) & rows[2])
        # XNOR, the alpha-MUX and the 0.5-MUX: SB ? (SM ? U*W : F) : T
        mixed = G | F
        copies = bp.make_independent_copies(mixed, self._copy_delays, self.cfg.L)
        return s2b(bp.bernstein_mux_packed(copies, rows[3:], self._constant_coeffs),
                   self.cfg.L, self.cfg.q)

    def run(self, inputs) -> np.ndarray:
        """Feed a held-input sequence from the zero delay line; row p of the
        result holds x_1..x_H (signed values on every backend).

        The whole input is checked once, before the first step: each value
        must be finite and within 1e-12 of the width-q grid, and the error
        names the first bad one (in row order), its step and, in a block or
        a stack, its row and block.  On ``stochastic`` the inputs become
        ``word_dtype(q)`` words once.

        Each sequence's delay line is its output history: ``tau`` zero slots
        (the zero word on ``stochastic``), then the H outputs of every macro
        step.  Node i of step p reads slot p*H + i and writes slot
        tau + p*H + i, so slot g reads g - tau.  The result is the history
        after its first ``tau`` slots, the stochastic words converted to reals
        once.

        A ``(B, m)`` block runs B sequences and returns ``(B, m, H)``.  The
        ideal backends step the rows together; the stochastic backend runs
        them in turn, as no batched stochastic step is built yet (see
        ``metrics``).  Step p of row b is macro step t = b*m + p, so under
        ``none`` row b continues the free-running streams where row b - 1
        left them.

        A ``(K, B, m)`` stack runs K blocks and returns ``(K, B, m, H)``.
        Each block runs as it would alone, restarting at t = 0, so the stack
        equals K separate calls; the ideal backends step every row of every
        block together.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim not in (1, 2, 3):
            raise ValueError("need an input sequence, a (B, m) block or a (K, B, m) stack")
        check_run_length(inputs.size)
        H, tau, q, m = self.H, self.tau, self.cfg.q, inputs.shape[-1]
        bad = ~np.isfinite(inputs)
        if bad.any():
            raise _input_error(inputs, bad, "is not finite")
        # nothing beyond +-2 is on the grid; the clip keeps the scaling finite
        off = real_to_offset(np.clip(inputs, -2.0, 2.0), q)
        bad = np.abs(offset_to_real(off, q) - inputs) > 1e-12
        if bad.any():
            raise _input_error(inputs, bad, f"not representable at width q={q}")

        stochastic = self.cfg.backend == "stochastic"
        zero, dtype = (real_to_offset(0.0, q), word_dtype(q)) if stochastic else (0.0, np.float64)
        held = off.astype(dtype) if stochastic else inputs
        width = tau + m * H
        hist = np.full(inputs.shape[:-1] + (width,), zero, dtype=dtype)
        # one row a sequence, its delay line a view of hist; a 1-D input is one row
        seqs, lines = held.reshape(-1, m), hist.reshape(-1, width)
        if stochastic:
            # each row in turn: row b of each block from macro step t = b*m
            B = inputs.shape[-2] if inputs.ndim > 1 else 1
            step = self.step
            for r, (seq, line) in enumerate(zip(seqs, lines)):
                t = r % B * m
                for p, u in enumerate(seq):
                    g = p * H
                    line[tau + g:tau + g + H] = step(u, line[g:g + H], t + p)
        else:
            # every row of a block or stack together, one (rows, H) step per
            # macro step, a column at a time
            for p, u in enumerate(seqs.T):
                g = p * H
                lines[..., tau + g:tau + g + H] = self.step(u, lines[..., g:g + H], p)
        X = hist[..., tau:].reshape(inputs.shape + (H,))
        return offset_to_real(X, q) if stochastic else X

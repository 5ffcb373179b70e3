"""A second, independent implementation of the stochastic node's gates, for
the tests: the LFSR words of a start state, the XNOR, and a gate-by-gate
oracle of the reservoir's stochastic state matrix.

The library's step reads tables and masks (``streams.b2s_table``,
``streams.mix_masks``, ``streams.mix_input_base``) built from LFSR windows;
the oracle rebuilds every node's streams one node at a time from the cycle
of ``streams.lfsr_cycle`` (which ``tests/test_streams.py`` checks against a
bit-level register), the comparator ``streams.b2s``, the XNOR below and the
MUX ``streams.stoch_mux_average``, whose laws ``tests/test_streams.py``
checks by enumeration.  For the packed parts it uses independent
references: ``np.roll`` copies, a count-and-gather adder plus MUX and an
unpacked ones count, against which ``tests/test_bernstein.py`` and
``tests/test_streams.py`` check the packed kernels.
"""

import numpy as np

from stochtdr.bernstein import spread_delays
from stochtdr.reservoir import (
    ROLE_BIAS,
    ROLE_COEFF_BASE,
    ROLE_FEEDBACK,
    ROLE_INPUT,
    ROLE_SELECT_BIAS,
    ROLE_SELECT_MIX,
    ROLE_WEIGHT,
    _TAG_FREERUN,
    Reservoir,
    derive_seed,
    reseed_for_node,
)
from stochtdr.streams import (
    b2s,
    lfsr_cycle,
    maximal_taps,
    offset_to_real,
    ones_count_to_offset,
    quantize_probability,
    real_to_offset,
    stoch_mux_average,
)


def lfsr_words(q: int, taps: int, states, count: int) -> np.ndarray:
    """The ``count`` words a width-q LFSR emits from each start state.

    The first word is the start state itself; over ``count`` = one period
    every nonzero word appears exactly once.  The result has shape
    ``np.shape(states) + (count,)`` and the cycle's word type, gathered
    from the cycle by position mod its period.
    """
    if count < 1:
        raise ValueError("need at least one word")
    states = np.asarray(states)
    if ((states < 1) | (states >= 1 << q)).any():
        raise ValueError(f"LFSR states must be nonzero {q}-bit words")
    cycle, pos = lfsr_cycle(q, taps)
    return cycle[(pos[states][..., None] + np.arange(count)) % cycle.size]


def stoch_mult(a, b):
    """XNOR gate: multiplies the signed values of independent streams.

    On packed streams the zero padding comes out as ones; a MUX whose
    ``b`` input and select line have zero padding clears it again.
    """
    return ~(a ^ b)


def oracle_run(res: Reservoir, inputs) -> np.ndarray:
    """State matrix of ``res``, computed one node and one gate at a time."""
    cfg = res.cfg
    H, L, n, q = cfg.H, cfg.L, cfg.n, cfg.q
    full = (1 << q) - 1
    steps = len(inputs)
    # one free-running LFSR per role hands out H*L words per step, node by node
    freerun = {role: lfsr_words(q, maximal_taps(q, role),
                                derive_seed(cfg.master_seed, _TAG_FREERUN, role) & full or 1,
                                steps * H * L)
               for role in range(ROLE_COEFF_BASE + n + 1)}

    def words(role, i, p):
        if cfg.reseed_policy == "per-node":
            seed = reseed_for_node(cfg.master_seed, i, role, q)
            return lfsr_words(q, maximal_taps(q, role), seed, L)
        return freerun[role][(p * H + i) * L:(p * H + i + 1) * L]

    line = [real_to_offset(0.0, q)] * res.tau
    offsets = np.empty((steps, H), dtype=np.int64)
    for p, u in enumerate(inputs):
        for i in range(H):
            slot = (p * H + i) % res.tau
            U = b2s(real_to_offset(u, q), words(ROLE_INPUT, i, p))
            W = b2s(real_to_offset(res.weights[i], q), words(ROLE_WEIGHT, i, p))
            T = b2s(real_to_offset(0.0, q), words(ROLE_BIAS, i, p))  # the zero-word bias
            F = b2s(line[slot], words(ROLE_FEEDBACK, i, p))
            SM = b2s(quantize_probability(cfg.alpha, q), words(ROLE_SELECT_MIX, i, p))
            SB = b2s(quantize_probability(0.5, q), words(ROLE_SELECT_BIAS, i, p))
            mixed = stoch_mux_average(stoch_mux_average(stoch_mult(U, W), F, SM), T, SB)
            copies = np.stack([np.roll(mixed, d) for d in spread_delays(n, L)])
            betas = np.stack([b2s(b, words(ROLE_COEFF_BASE + k, i, p))
                              for k, b in enumerate(res.beta_words)])
            out = np.take_along_axis(betas, copies.sum(axis=0)[None], axis=0)[0]
            line[slot] = ones_count_to_offset(out.sum(), L, q)
            offsets[p, i] = line[slot]
    return offset_to_real(offsets, q)

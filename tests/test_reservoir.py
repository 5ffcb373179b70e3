"""Reservoir tests: the stochastic backend against a gate-by-gate oracle,
and rejection of bad inputs and configurations.

The oracle rebuilds every node's streams from the public gate functions of
``streams`` and ``bernstein``, so the gate-law tests of those modules also
cover the reservoir's packed, bit-sliced step.
"""

import numpy as np
import pytest

from stochtdr.bernstein import (
    make_independent_copies,
    spread_delays,
    stochastic_bernstein_eval,
)
from stochtdr.reservoir import (
    BACKENDS,
    ROLE_BIAS,
    ROLE_COEFF_BASE,
    ROLE_FEEDBACK,
    ROLE_INPUT,
    ROLE_SELECT_BIAS,
    ROLE_SELECT_MIX,
    ROLE_WEIGHT,
    _TAG_FREERUN,
    Reservoir,
    TdrConfig,
    derive_seed,
    reseed_for_node,
)
from stochtdr.streams import (
    BipolarValue,
    LfsrGenerator,
    b2s,
    maximal_taps,
    offset_to_real,
    quantize,
    s2b,
    stoch_mult,
    stoch_mux_average,
    unipolar_select_stream,
)


def oracle_run(res: Reservoir, inputs) -> np.ndarray:
    """State matrix of ``res``, computed one node and one gate at a time."""
    cfg = res.cfg
    H, L, n, q = cfg.H, cfg.L, cfg.n, cfg.q
    full = (1 << q) - 1

    def generator(role, i, p):
        taps = maximal_taps(q, role)
        if cfg.reseed_policy == "per-node":
            return LfsrGenerator(q, reseed_for_node(cfg.master_seed, i, role, q), taps)
        # one free-running LFSR per role hands out H*L words per step, node by node
        start = derive_seed(cfg.master_seed, _TAG_FREERUN, role) & full or 1
        return LfsrGenerator(q, start, taps).advanced((p * H + i) * L)

    line = [BipolarValue.from_real(0.0, q)] * res.tau
    offsets = np.empty((len(inputs), H), dtype=np.int64)
    for p, u in enumerate(inputs):
        for i in range(H):
            slot = (p * H + i) % res.tau
            U = b2s(BipolarValue.from_real(u, q), generator(ROLE_INPUT, i, p), L)
            W = b2s(BipolarValue.from_real(res.weights[i], q), generator(ROLE_WEIGHT, i, p), L)
            T = b2s(BipolarValue.from_real(res.biases[i], q), generator(ROLE_BIAS, i, p), L)
            F = b2s(line[slot], generator(ROLE_FEEDBACK, i, p), L)
            SM = unipolar_select_stream(cfg.alpha, generator(ROLE_SELECT_MIX, i, p), L)
            SB = unipolar_select_stream(0.5, generator(ROLE_SELECT_BIAS, i, p), L)
            mixed = stoch_mux_average(stoch_mux_average(stoch_mult(U, W), F, SM), T, SB)
            copies = make_independent_copies(mixed, n, spread_delays(n, L))
            betas = [unipolar_select_stream(b, generator(ROLE_COEFF_BASE + k, i, p), L)
                     for k, b in enumerate(res.activation_spec.beta)]
            line[slot] = s2b(stochastic_bernstein_eval(copies, betas), q)
            offsets[p, i] = line[slot].offset
    return offset_to_real(offsets, q)


@pytest.mark.parametrize("policy", ["per-node", "none"])
@pytest.mark.parametrize("n,q", [(1, 8), (3, 10), (6, 8), (8, 10)])
def test_stochastic_run_matches_gate_oracle(policy, n, q):
    H, L, steps = 4, 37, 6
    cfg = TdrConfig(H=H, alpha=0.3, gamma=2.0, L=L, n=n, q=q, master_seed=11 * n + q,
                    biases="random", reseed_policy=policy, backend="stochastic")
    res = Reservoir(cfg)
    inputs = quantize(np.random.default_rng(n).uniform(-1.0, 1.0, steps), q)
    X = res.run(inputs)
    assert X.shape == (steps, H)
    np.testing.assert_array_equal(X, oracle_run(res, inputs))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_input(backend, bad):
    L = 16 if backend == "stochastic" else None
    res = Reservoir(TdrConfig(H=3, alpha=0.5, gamma=2.0, L=L, backend=backend))
    with pytest.raises(ValueError, match="not finite"):
        res.step(res.initial_state(), bad)
    with pytest.raises(ValueError, match="not finite"):
        res.run([float(quantize(0.0, res.cfg.q)), bad])


def test_stochastic_rejects_streams_shorter_than_degree():
    with pytest.raises(ValueError, match="shorter than the Bernstein degree"):
        Reservoir(TdrConfig(H=3, alpha=0.5, gamma=2.0, L=3, n=5, backend="stochastic"))
    # at L == n the n rotations are still distinct
    TdrConfig(H=3, alpha=0.5, gamma=2.0, L=5, n=5, backend="stochastic").validate()
    assert sorted(spread_delays(5, 5)) == [0, 1, 2, 3, 4]
    # the ideal backends have no streams to check
    TdrConfig(H=3, alpha=0.5, gamma=2.0, n=5, backend="ideal-bernstein").validate()

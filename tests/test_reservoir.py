"""Reservoir tests: the stochastic backend against a gate-by-gate oracle,
and rejection of bad inputs and configurations.

The oracle rebuilds every node's streams one node at a time from the gate
kernels of ``streams`` that the reservoir calls (LFSR words, comparator,
XNOR, MUX), so the gate-law tests of that module also cover the
reservoir's step.  For the packed parts it uses independent references:
``np.roll`` copies, a count-and-gather adder plus MUX and an unpacked
ones count, against which ``tests/test_bernstein.py`` and
``tests/test_streams.py`` check the packed kernels.
"""

import math

import numpy as np
import pytest

from stochtdr.bernstein import spread_delays
from stochtdr.reservoir import (
    BACKENDS,
    RESEED_POLICIES,
    ROLE_BIAS,
    ROLE_COEFF_BASE,
    ROLE_FEEDBACK,
    ROLE_INPUT,
    ROLE_SELECT_BIAS,
    ROLE_SELECT_MIX,
    ROLE_WEIGHT,
    _TAG_FREERUN,
    _scalar_offset,
    Reservoir,
    TdrConfig,
    derive_seed,
    reseed_for_node,
)
from stochtdr.streams import (
    b2s,
    lfsr_words,
    maximal_taps,
    offset_to_real,
    ones_count_to_offset,
    quantize,
    quantize_probability,
    real_to_offset,
    stoch_mult,
    stoch_mux_average,
)


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
            T = b2s(real_to_offset(res.biases[i], q), words(ROLE_BIAS, i, p))
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


@pytest.mark.parametrize("policy", ["per-node", "none"])
@pytest.mark.parametrize("H,L,n,q", [
    pytest.param(4, 37, 1, 8, id="1-8"),
    pytest.param(4, 37, 3, 10, id="3-10"),
    pytest.param(4, 37, 6, 8, id="6-8"),
    pytest.param(4, 37, 8, 10, id="8-10"),
    pytest.param(3, 5, 5, 8, id="L=n=5"),  # the shortest streams the config accepts
])
def test_stochastic_run_matches_gate_oracle(policy, H, L, n, q):
    steps = 6
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad,match", [(float("nan"), "not finite"), (float("inf"), "not finite"),
                                       (float("-inf"), "not finite"),
                                       (0.1, "not representable"),
                                       # 2^q - 1 levels: zero is never on the grid,
                                       # and -0.0 reads like 0.0
                                       (0.0, "not representable"),
                                       (-0.0, "not representable")])
def test_scalar_input_check_raises_on_every_repeat(backend, bad, match):
    # a failing input raises on each call and leaves the reservoir usable
    L = 16 if backend == "stochastic" else None
    res = Reservoir(TdrConfig(H=3, alpha=0.5, gamma=2.0, L=L, backend=backend))
    state = res.initial_state()
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            res.step(state, bad)
        res.step(state, float(quantize(0.5, res.cfg.q)))


@pytest.mark.parametrize("q", [2, 8, 10, 16])
def test_scalar_input_check_matches_the_array_quantizer(q):
    # every word at q <= 10, every 97th at q = 16; on the grid, just off it,
    # off it, at the midpoints (ties) and outside [-1, 1]
    full = (1 << q) - 1
    grid = offset_to_real(np.arange(0, full + 1, 1 if q <= 10 else 97), q)
    u = np.concatenate([grid, grid + 1e-13, grid - 1e-11, grid + 0.3 / full, grid + 1.0 / full,
                        [0.0, -0.0, 1.0 + 1e-13, -1.0 - 1e-13, 1.5, -1.5, 1e300, -1e300]])
    offs = real_to_offset(u, q)
    on_grid = np.abs(offset_to_real(offs, q) - u) <= 1e-12
    assert on_grid.sum() == 2 * len(grid) + 2  # the grid, +1e-13 and the two ends
    for x, off, ok in zip(u.tolist(), offs.tolist(), on_grid.tolist()):
        if ok:
            assert _scalar_offset(x, q) == off
        else:
            with pytest.raises(ValueError, match="not representable"):
                _scalar_offset(x, q)
    # past the float range once scaled by 2^q - 1
    with pytest.raises(ValueError, match="not representable"):
        _scalar_offset(1e308, q)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(7,), (2, 5)])
def test_run_takes_every_macro_step_through_step(backend, shape, monkeypatch):
    # per-step instrumentation wraps Reservoir.step, and the per-layer
    # metrics of perfbench/run.py divide by its call count
    calls = []
    step = Reservoir.step

    def counted(self, state, u):
        calls.append(u)
        return step(self, state, u)

    monkeypatch.setattr(Reservoir, "step", counted)
    L = 16 if backend == "stochastic" else None
    res = Reservoir(TdrConfig(H=3, alpha=0.5, gamma=2.0, L=L, backend=backend))
    res.run(quantize(np.linspace(-0.9, 0.9, math.prod(shape)), res.cfg.q).reshape(shape))
    # the stochastic backend runs the rows of a block in turn, the ideal
    # ones step all rows at once
    assert len(calls) == (math.prod(shape) if backend == "stochastic" else shape[-1])


def test_stochastic_rejects_streams_shorter_than_degree():
    with pytest.raises(ValueError, match="shorter than the Bernstein degree"):
        Reservoir(TdrConfig(H=3, alpha=0.5, gamma=2.0, L=3, n=5, backend="stochastic"))
    # at L == n the n rotations are still distinct
    TdrConfig(H=3, alpha=0.5, gamma=2.0, L=5, n=5, backend="stochastic").validate()
    assert sorted(spread_delays(5, 5)) == [0, 1, 2, 3, 4]
    # the ideal backends have no streams to check
    TdrConfig(H=3, alpha=0.5, gamma=2.0, n=5, backend="ideal-bernstein").validate()


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="not finite"):
        TdrConfig(H=3, alpha=0.5, gamma=gamma).validate()


def state_rms(cfg_a: dict, cfg_b: dict, q: int) -> np.ndarray:
    """Per seed 0-5, the RMS difference between the state matrices of two
    reservoirs with the same weights and biases, driven by the same input."""
    rms = []
    for seed in range(6):
        u = quantize(np.random.default_rng(seed).uniform(-1.0, 1.0, 20), q)
        base = dict(H=8, alpha=0.3, gamma=2.0, q=q, master_seed=seed, biases="random")
        X_a = Reservoir(TdrConfig(**base, **cfg_a)).run(u)
        X_b = Reservoir(TdrConfig(**base, **cfg_b)).run(u)
        rms.append(np.sqrt(np.mean((X_a - X_b) ** 2)))
    return np.array(rms)


@pytest.mark.parametrize("policy", RESEED_POLICIES)
def test_stochastic_converges_to_ideal_bernstein(policy):
    # the stream fluctuation shrinks as 1/sqrt(L); at q = 16 every L stays
    # far below the LFSR period, where whole-period exactness would set in
    means = []
    for L in (64, 512, 4096):
        rms = state_rms({"backend": "stochastic", "L": L, "reseed_policy": policy},
                        {"backend": "ideal-bernstein"}, q=16)
        assert rms.mean() <= 4.0 / np.sqrt(L), f"L={L}: {rms}"
        means.append(rms.mean())
    assert means[0] > means[1] > means[2]


def test_ideal_bernstein_converges_to_ideal_exact():
    means = [state_rms({"backend": "ideal-bernstein", "n": n}, {"backend": "ideal-exact"},
                       q=12).mean()
             for n in (2, 5, 12)]
    assert means[0] > means[1] > means[2]
    assert means[2] < 0.01

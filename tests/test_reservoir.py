"""Reservoir tests: the stochastic backend against a gate-by-gate oracle,
and rejection of bad inputs and configurations.

The oracle (``tests/gate_oracle.py``) rebuilds every node's streams one
node at a time, from the LFSR cycle and the gate laws, without the
reservoir's tables, masks or LFSR windows; so the tables are checked
against the gate laws that ``tests/test_streams.py`` tests.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from gate_oracle import oracle_run
from stochtdr import reservoir
from stochtdr.bernstein import TransformedActivation, spread_delays
from stochtdr.reservoir import (
    BACKENDS,
    BERNSTEIN_BACKENDS,
    RESEED_POLICIES,
    ROLE_COEFF_BASE,
    ROLE_FEEDBACK,
    ROLE_INPUT,
    Reservoir,
    TdrConfig,
    derive_seed,
    freerun_phases,
    reseed_for_node,
)
from stochtdr.streams import (
    lfsr_cycle,
    maximal_taps,
    offset_to_real,
    quantize,
    real_to_offset,
    word_dtype,
)


def drawn_configs(count: int, seed: int) -> list:
    """``count`` small stochastic configs (H, L, n, q), drawn from ``seed``:
    H in 1..6, q in 7..10, n in 1..9 and L in n..100, each uniform."""
    rng = np.random.default_rng(seed)
    configs = []
    for k in range(count):
        H, q, n = (int(x) for x in rng.integers([1, 7, 1], [7, 11, 10]))
        L = int(rng.integers(n, 101))
        configs.append(pytest.param(H, L, n, q, id=f"draw{k}-H{H}-L{L}-n{n}-q{q}"))
    return configs


@pytest.mark.parametrize("policy", ["per-node", "none"])
@pytest.mark.parametrize("H,L,n,q", [
    pytest.param(4, 37, 1, 8, id="1-8"),
    pytest.param(4, 37, 3, 10, id="3-10"),
    pytest.param(4, 37, 6, 8, id="6-8"),
    pytest.param(4, 37, 8, 10, id="8-10"),
    pytest.param(3, 5, 5, 8, id="L=n=5"),  # the shortest streams the config accepts
    # under none, node g reads phase g mod P' = 255 / gcd(L, 255) of each
    # cycle, so the 24 nodes wrap P' = 1, 3 (< H) and 5
    pytest.param(4, 255, 5, 8, id="L=255"),
    pytest.param(4, 85, 5, 8, id="L=85"),
    pytest.param(4, 51, 5, 8, id="L=51"),
    # H = 3 divides P' = 3, so under none X0 folds into the input table as
    # under per-node
    pytest.param(3, 85, 5, 8, id="L=85-H=3"),
    # a fixed draw of small configs; a failing one is a defect to mend, not
    # to draw away
    *drawn_configs(20, seed=21),
])
def test_stochastic_run_matches_gate_oracle(policy, H, L, n, q, monkeypatch):
    steps = 6
    cfg = TdrConfig(H=H, alpha=0.3, gamma=2.0, L=L, n=n, q=q, master_seed=11 * n + q,
                    reseed_policy=policy, backend="stochastic")
    res = Reservoir(cfg)
    inputs = quantize(np.random.default_rng(n).uniform(-1.0, 1.0, steps), q)
    X = res.run(inputs)
    assert X.shape == (steps, H)
    np.testing.assert_array_equal(X, oracle_run(res, inputs))
    # with the cap at 0 a step derives every stream it has no table of
    monkeypatch.setattr(reservoir, "_TABLE_MAX_BYTES", 0)
    np.testing.assert_array_equal(Reservoir(cfg).run(inputs), X)


@pytest.mark.parametrize("policy", ["per-node", "none"])
@pytest.mark.parametrize("gamma", [0.0, 1.3, 3.0])
@pytest.mark.parametrize("H,L,n,q", [(4, 37, 5, 8), (4, 37, 7, 8), (3, 51, 9, 8), (4, 100, 3, 10)])
def test_stochastic_run_at_other_gammas_matches_gate_oracle(policy, gamma, H, L, n, q,
                                                            monkeypatch):
    # gamma = 2 keeps n <= 5 coefficient streams all 0 or all 1; at gamma = 0
    # and 1.3 only the end streams are constant, at 3.0 only interior ones,
    # so the Bernstein MUX folds other patterns
    steps = 6
    cfg = TdrConfig(H=H, alpha=0.3, gamma=gamma, L=L, n=n, q=q, master_seed=7 * n + q,
                    reseed_policy=policy, backend="stochastic")
    res = Reservoir(cfg)
    if (gamma, n, q) == (3.0, 5, 8):
        assert res.beta_words == (63, 0, 0, 255, 255, 192)
    inputs = quantize(np.random.default_rng(n + q).uniform(-1.0, 1.0, steps), q)
    X = res.run(inputs)
    np.testing.assert_array_equal(X, oracle_run(res, inputs))
    monkeypatch.setattr(reservoir, "_TABLE_MAX_BYTES", 0)
    np.testing.assert_array_equal(Reservoir(cfg).run(inputs), X)


_TABLES = ("_shared", "_input_table", "_feedback_table", "_x0")


@pytest.mark.parametrize("policy,L", [("none", 64), ("per-node", 200)])
def test_past_the_table_cap_matches_gate_oracle(policy, L):
    # past the cap, every step derives its streams with comparators: under
    # none, P' = 65535 sources of 13 shared 8-byte streams, and X0 needs the
    # shared table; under per-node, 2^16 input (and feedback) words of 4
    # sources' 25-byte streams, while X0 of its 4 rows is built
    cfg = TdrConfig(H=4, alpha=0.3, gamma=2.0, L=L, n=9, q=16, master_seed=5,
                    reseed_policy=policy, backend="stochastic")
    res = Reservoir(cfg)
    built = {name for name in _TABLES if getattr(res, name) is not None}
    assert built == (set() if policy == "none" else {"_shared", "_x0"})
    inputs = quantize(np.random.default_rng(5).uniform(-1.0, 1.0, 6), cfg.q)
    np.testing.assert_array_equal(res.run(inputs), oracle_run(res, inputs))


_FOLDED = ("_shared", "_input_table", "_feedback_table")  # X0 folded into the input table


@pytest.mark.parametrize("policy,q,L,H,n,steps,tables,per_step", [
    # per_step: comparator calls per step with the tables built and with the
    # cap at 0.  Past the per-word tables a step compares U and F, past X0
    # also W, and past the shared table also T, SM, SB and the n + 1
    # coefficient streams, under either policy.  When S divides H every
    # step reads the same H sources, so the shared table, X0 and the words
    # of U and F are kept whatever the cap: 2 comparisons at cap 0.
    # Under none, 1000 nodes wrap P' = 51 sources; 60 steps wrap X0's
    # lcm(50, 51) = 2550 rows at step 51
    pytest.param("none", 8, 1000, 50, 5, 60, _TABLES, (0, 12), id="none-8-1000"),
    # P' = 3 and H = 6: X0 has H rows; n = 4 leaves beta_4 unpaired
    pytest.param("none", 8, 85, 6, 4, 10, _TABLES, (0, 2), id="none-8-85"),
    # H = 3 divides P' = 3: X0 has one row per source and folds into UA
    pytest.param("none", 8, 85, 3, 5, 10, _FOLDED, (0, 2), id="none-8-85-H3"),
    # P' = 93 and 819: the per-word tables are past the cap, and X0 fits
    # at lcm(50, 93) = 4650 rows (586 KB) but not at lcm(50, 819) = 40950
    pytest.param("none", 10, 1001, 50, 5, 10, ("_shared", "_x0"), (2, 12),
                 id="none-10-1001"),
    pytest.param("none", 12, 1000, 50, 5, 10, _TABLES[:1], (3, 12), id="none-12-1000"),
    # H = 130 > 2^7 nodes over P' = 127 sources: a step's source rows wrap
    # twice, and X0 has lcm(130, 127) = 16510 rows
    pytest.param("none", 7, 8, 130, 5, 4, _TABLES, (0, 12), id="none-7-8"),
    # under per-node at q = 8 the surface (1.3 MB) serves every step, so the
    # build skips the per-word tables; past it, 2^q input and feedback rows of
    # H sources: 2.6 MB each at q = 10 and 3.2 MB at q = 9, the largest under
    # the cap; at q = 10, H = 50 they take 6.4 MB each, and X0 spares the step W
    pytest.param("per-node", 8, 1000, 20, 5, 10, ("_shared", "_x0"), (0, 2),
                 id="per-node-8-1000"),
    pytest.param("per-node", 10, 1001, 20, 4, 10, _FOLDED, (0, 2), id="per-node-10-1001"),
    pytest.param("per-node", 9, 1000, 50, 5, 10, _FOLDED, (0, 2), id="per-node-9-1000"),
    pytest.param("per-node", 10, 1000, 50, 5, 10, ("_shared", "_x0"), (2, 2),
                 id="per-node-10-1000"),
])
def test_table_matches_per_step_streams(policy, q, L, H, n, steps, tables, per_step,
                                        monkeypatch):
    cfg = TdrConfig(H=H, alpha=0.3, gamma=2.0, L=L, n=n, q=q, master_seed=q,
                    reseed_policy=policy, backend="stochastic")
    inputs = quantize(np.random.default_rng(q).uniform(-1.0, 1.0, (2, steps)), q)
    with_table = Reservoir(cfg)
    assert {name for name in _TABLES if getattr(with_table, name) is not None} == set(tables)
    monkeypatch.setattr(reservoir, "_TABLE_MAX_BYTES", 0)
    per_step_streams = Reservoir(cfg)
    sources = H if policy == "per-node" else freerun_phases(L, q)
    kept = {"_shared", "_x0"} if H % sources == 0 else set()
    assert {name for name in _TABLES if getattr(per_step_streams, name) is not None} == kept
    compare, comparisons = reservoir.b2s, []

    def counted(*args):
        comparisons.append(args)
        return compare(*args)

    monkeypatch.setattr(reservoir, "b2s", counted)
    X = with_table.run(inputs)
    assert len(comparisons) == per_step[0] * inputs.size
    comparisons.clear()
    np.testing.assert_array_equal(per_step_streams.run(inputs), X)
    assert len(comparisons) == per_step[1] * inputs.size


# the sha256 of Reservoir.run on a (2, 6) block at H = 50, for each state of
# the stream tables: which tables the build made, and whether it kept the
# words of U and F
@pytest.mark.parametrize("policy,q,L,tables,kept,digest", [
    pytest.param("none", 8, 1000, _TABLES, False,
                 "b16f61c7097ef3188ddb7d0261f44bd39ba91a5f2af4ef0dfcb90b71e922714c",
                 id="none-8-1000"),
    pytest.param("none", 10, 1001, ("_shared", "_x0"), False,
                 "09147c8e7d1fd8f6f4c0eed7a59fa099460a325e5905577bc17d416b1b086284",
                 id="none-10-1001"),
    pytest.param("none", 12, 1000, ("_shared",), False,
                 "55e1fef252f472b782f22619341cade6768170df545b331085a2fd8412f71ccf",
                 id="none-12-1000"),
    pytest.param("none", 16, 1000, (), False,
                 "fd3cc0aaf86e4acf3b2f2f0911fbcb9b4254ffea36b096f07a14f787ed673a96",
                 id="none-16-1000"),
    # the surface serves every step; it is derived from the shared table and X0
    pytest.param("per-node", 8, 1000, ("_shared", "_x0"), False,
                 "f8d9d0ba08ebb7aeebf061245f76c7d3faa49e7303b928bb129d78471357f055",
                 id="per-node-8-1000"),
    pytest.param("per-node", 12, 1000, ("_shared", "_x0"), True,
                 "bfbf8cc87d551d0205a1d7bb4318f11699607536c86a5024c27b64b699a79544",
                 id="per-node-12-1000"),
])
def test_stochastic_run_digest_is_pinned(policy, q, L, tables, kept, digest):
    cfg = TdrConfig(H=50, alpha=0.3, gamma=2.0, L=L, q=q, master_seed=q,
                    reseed_policy=policy, backend="stochastic")
    res = Reservoir(cfg)
    assert {name for name in _TABLES if getattr(res, name) is not None} == set(tables)
    assert set(res._kept_words) == ({ROLE_INPUT, ROLE_FEEDBACK} if kept else set())
    inputs = quantize(np.random.default_rng(q).uniform(-1.0, 1.0, (2, 6)), q)
    X = res.run(inputs)
    assert X.dtype == np.float64 and X.shape == (2, 6, 50)
    assert hashlib.sha256(X.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("q,L,H", [(8, 1000, 50), (8, 255, 4), (8, 85, 6), (10, 1001, 4),
                                   (16, 64, 4)])  # the last is past the table cap
def test_freerun_step_repeats_with_the_lfsr_phase(q, L, H):
    # step t reads phases t*H mod P' on, so t and t + P'/gcd(H, P') agree
    period = (1 << q) - 1
    phases = period // math.gcd(L, period)
    res = Reservoir(TdrConfig(H=H, alpha=0.3, gamma=2.0, L=L, q=q, master_seed=L,
                              reseed_policy="none", backend="stochastic"))
    rng = np.random.default_rng(L)
    u = word_dtype(q)(rng.integers(0, period + 1))
    fb = rng.integers(0, period + 1, H).astype(word_dtype(q))
    for t in (0, 3, 100):
        np.testing.assert_array_equal(res.step(u, fb, t),
                                      res.step(u, fb, t + phases // math.gcd(H, phases)))


@pytest.mark.parametrize("q", [2, 8, 12, 16])
@pytest.mark.parametrize("master", [0, 7, (1 << 63) + 5, (1 << 64) - 1, -3])
def test_node_seeds_hash_in_one_array_pass(master, q):
    nodes = np.arange(300, dtype=np.uint64)
    for role in (ROLE_INPUT, ROLE_FEEDBACK, ROLE_COEFF_BASE):
        seeds = reseed_for_node(master, nodes, role, q)
        assert seeds.dtype == np.uint64 and seeds.min() >= 1
        assert seeds.tolist() == [reseed_for_node(master, i, role, q) for i in range(300)]
    if q == 2:  # a quarter of the hashes truncate to zero and map to 1
        assert any(derive_seed(master, i, ROLE_INPUT) & 3 == 0 for i in range(300))


@pytest.mark.parametrize("backend", ["ideal-exact", "ideal-bernstein"])
def test_ideal_step_takes_a_plain_float(backend):
    res = Reservoir(TdrConfig(H=3, alpha=0.2, gamma=2.0, backend=backend))
    fb = quantize(np.random.default_rng(0).uniform(-1.0, 1.0, 3), res.cfg.q)
    out = res.step(0.5, fb, 0)
    assert out.shape == (3,)
    np.testing.assert_array_equal(out, res.step(np.float64(0.5), fb, 0))


def reference_ideal_step(res, u, fb):
    """The ideal step written out as plain expressions: the mix, the affine
    maps into and out of the unit square, and the nested Bernstein form."""
    cfg = res.cfg
    s = 0.5 * (cfg.alpha * np.multiply.outer(u, res.weights) + (1.0 - cfg.alpha) * fb)
    if cfg.backend == "ideal-exact":
        if not cfg.gamma:
            return s
        return np.sin(cfg.gamma * s) / TransformedActivation(cfg.gamma).f_max
    beta = [w / ((1 << cfg.q) - 1) for w in res.beta_words]
    n = len(beta) - 1
    u = (s + 1.0) / 2.0
    f = 1.0 - u
    out = beta[0] * f
    un = u.copy()  # u^k at degree k
    for k in range(1, n):
        out += math.comb(n, k) * beta[k] * un
        out *= f
        un *= u
    out += beta[n] * un
    return 2.0 * out - 1.0


# besides drawn values the feedback holds 0, +-1e-300, +-1, the least
# subnormal and the least normal
_FB_EDGES = [0.0, 1e-300, -1e-300, 1.0, -1.0, 5e-324, -2.0**-1022]


@pytest.mark.parametrize("backend,n", [("ideal-exact", 5), *(("ideal-bernstein", n)
                                                             for n in (1, 5, 12))])
@pytest.mark.parametrize("gamma", [0.0, -0.7, 1.3, 2.0])
@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.37, 1.0, 1.0 - 2.0**-53, 1e-310, 3 * 2.0**-1074])
def test_ideal_step_is_the_reference_law_bit_for_bit(backend, n, gamma, alpha):
    # the step scales the mix sum in place; every scaling must be exact
    H, B = 37, 6
    res = Reservoir(TdrConfig(H=H, alpha=alpha, gamma=gamma, n=n, backend=backend))
    rng = np.random.default_rng(11)
    fb = rng.uniform(-1.0, 1.0, (B, H))
    fb[:, :len(_FB_EDGES)] = _FB_EDGES
    fb[1] = np.roll(fb[1], 9)
    fb[2] *= 1e-300  # mix sums far below the normal range
    fb[3] = 0.0
    u = np.array([0.37, -1.0, 1.0, 1e-300, 0.0, float(quantize(-0.6, res.cfg.q))])
    np.testing.assert_array_equal(res.step(u, fb, 0), reference_ideal_step(res, u, fb))
    for b in range(B):
        np.testing.assert_array_equal(res.step(u[b], fb[b], 0),
                                      reference_ideal_step(res, u[b], fb[b]))


@pytest.mark.parametrize("backend,policy", [("ideal-exact", "per-node"),
                                            ("ideal-bernstein", "per-node"),
                                            ("stochastic", "per-node"), ("stochastic", "none")])
def test_step_rejects_feedback_of_another_width(backend, policy):
    # a feedback of one value, or a (2, 1) block, would broadcast to every node
    H = 4
    res = Reservoir(TdrConfig(H=H, alpha=0.3, gamma=2.0, L=37 if backend == "stochastic" else None,
                              reseed_policy=policy, backend=backend))
    if backend == "stochastic":
        u, cases = np.uint8(5), [np.array([3], np.uint8), np.zeros(H + 1, np.uint8), [3]]
    else:
        u, cases = 0.5, [np.zeros(1), np.zeros(H + 1), [0.0]]
    for fb in cases:
        with pytest.raises(ValueError, match=rf"feedback of {H} nodes .*shape \({len(fb)},\)"):
            res.step(u, fb, 0)
    if backend != "stochastic":
        with pytest.raises(ValueError, match=rf"feedback of {H} nodes .*shape \(2, 1\)"):
            res.step(np.array([0.5, 0.5]), np.zeros((2, 1)), 0)
        assert res.step(np.array([0.5, 0.5]), np.zeros((2, H)), 0).shape == (2, H)
    fb = np.zeros(H, np.uint8 if backend == "stochastic" else float)
    assert res.step(u, fb, 0).shape == (H,)


@pytest.mark.parametrize("backend", BACKENDS)
def test_step_never_writes_into_its_arguments(backend):
    # run hands the step a column of the held inputs and a slice of the
    # delay line; both must read the same afterwards
    H, tau, B = 5, 7, 3
    L = 16 if backend == "stochastic" else None
    res = Reservoir(TdrConfig(H=H, alpha=0.4, gamma=2.0, L=L, tau=tau, backend=backend))
    q, rng = res.cfg.q, np.random.default_rng(2)
    if backend == "stochastic":
        held = rng.integers(0, 1 << q, (B, 4)).astype(word_dtype(q))
        hist = rng.integers(0, 1 << q, (B, tau + 4 * H)).astype(word_dtype(q))
        u, fb = held[0, 1], hist[0, H:2 * H]
    else:
        held = quantize(rng.uniform(-1.0, 1.0, (B, 4)), q)
        hist = quantize(rng.uniform(-1.0, 1.0, (B, tau + 4 * H)), q)
        u, fb = held.T[1], hist[:, H:2 * H]
    held_before, hist_before = held.copy(), hist.copy()
    out = res.step(u, fb, 1)
    np.testing.assert_array_equal(held, held_before)
    np.testing.assert_array_equal(hist, hist_before)
    if backend != "stochastic":
        assert not np.shares_memory(out, hist)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_input(backend, bad):
    # run checks the whole input before its first step, and names the step
    L = 16 if backend == "stochastic" else None
    res = Reservoir(TdrConfig(H=3, alpha=0.5, gamma=2.0, L=L, backend=backend))
    with pytest.raises(ValueError, match="step 0 is not finite"):
        res.run([bad])
    with pytest.raises(ValueError, match="step 1 is not finite"):
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
    # a failing input raises on each run and leaves the reservoir usable
    L = 16 if backend == "stochastic" else None
    cfg = TdrConfig(H=3, alpha=0.5, gamma=2.0, L=L, reseed_policy="none", backend=backend)
    res = Reservoir(cfg)
    good = [float(quantize(0.5, cfg.q))] * 2
    expected = Reservoir(cfg).run(good)
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            res.run([bad])
        np.testing.assert_array_equal(res.run(good), expected)


@pytest.mark.parametrize("q", [2, 8, 10, 16])
def test_run_checks_every_input_against_the_width_q_grid(q, monkeypatch):
    # every word at q <= 10, every 97th at q = 16; on the grid and within
    # 1e-13 of it pass, while 1e-11 off it, off it, at the midpoints (ties),
    # +-0.0 and outside [-1, 1] fail
    full = (1 << q) - 1
    grid = offset_to_real(np.arange(0, full + 1, 1 if q <= 10 else 97), q)
    on = np.concatenate([grid, grid + 1e-13, grid - 1e-13, [1.0 + 1e-13, -1.0 - 1e-13]])
    off = np.concatenate([grid - 1e-11, grid + 0.3 / full, grid + 1.0 / full,
                          [0.0, -0.0, 1.5, -1.5, 1e300, -1e300],
                          [1e308]])  # past the float range once scaled by 2^q - 1 (q >= 8)
    held = []

    def recorded(self, u, fb, t):
        # a stand-in node: keeps what run hands it, writes zeros
        held.append(u)
        return np.zeros_like(fb)

    monkeypatch.setattr(Reservoir, "step", recorded)
    # q = 2 has one tap mask, too few for a stochastic node's LFSR roles
    for backend in ("ideal-exact",) if q == 2 else ("ideal-exact", "stochastic"):
        # free-running LFSRs: the build draws one table row of shared streams
        # per cycle phase, and the stand-in node draws no words
        res = Reservoir(TdrConfig(H=2, alpha=0.5, gamma=2.0, L=5, n=2, q=q,
                                  reseed_policy="none", backend=backend))
        held.clear()
        res.run(on[:, None])  # one macro step per row
        if backend == "stochastic":
            # the rows step in turn, each on its input's offset word
            assert {type(u) for u in held} == {word_dtype(q)}
            np.testing.assert_array_equal(held, real_to_offset(on, q))
        else:
            # the rows step together, on the checked values
            np.testing.assert_array_equal(held, [on])
    # the check comes before the backends part ways
    for x in off.tolist():
        with pytest.raises(ValueError, match=f"not representable at width q={q}"):
            res.run([x])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(7,), (2, 5), (2, 2, 5)])
def test_run_takes_every_macro_step_through_step(backend, shape, monkeypatch):
    # per-step instrumentation wraps Reservoir.step, and the per-layer
    # metrics of perfbench/run.py divide by its call count
    calls = []
    step = Reservoir.step

    def counted(self, u, *args):
        calls.append(u)
        return step(self, u, *args)

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


def test_only_the_bernstein_backends_check_the_degree():
    assert BERNSTEIN_BACKENDS == ("ideal-bernstein", "stochastic")
    cfg = TdrConfig(H=3, alpha=0.5, gamma=2.0, n=0)
    cfg.validate()  # ideal-exact reads no degree: n = 0 runs the default's states
    u = quantize(np.linspace(-1.0, 1.0, 6), cfg.q)
    np.testing.assert_array_equal(Reservoir(cfg).run(u), Reservoir(replace(cfg, n=5)).run(u))
    for backend, L in (("ideal-bernstein", None), ("stochastic", 64)):
        with pytest.raises(ValueError, match="degree"):
            replace(cfg, backend=backend, L=L).validate()


@pytest.mark.parametrize("q,n", [*((q, 1) for q in range(2, 7)), (8, 10)])
def test_stochastic_rejects_fewer_tap_masks_than_lfsr_roles(q, n):
    cfg = TdrConfig(H=3, alpha=0.5, gamma=2.0, L=16, n=n, q=q, backend="stochastic")
    with pytest.raises(ValueError, match=rf"runs {7 + n} LFSR roles.* q={q} has \d+ maximal"):
        cfg.validate()
    # the ideal backends run no LFSRs
    replace(cfg, L=None, backend="ideal-bernstein").validate()


@pytest.mark.parametrize("q", range(7, 17))
def test_every_lfsr_role_runs_its_own_tap_mask(q):
    # n = 9 is the largest degree at the 16 masks of q >= 7: 7 + n roles
    res = Reservoir(TdrConfig(H=2, alpha=0.5, gamma=2.0, L=16, n=9, q=q,
                              reseed_policy="none", backend="stochastic"))
    assert len(set(res._taps)) == len(res._taps) == ROLE_COEFF_BASE + 10


def test_config_rejects_an_unknown_backend_and_reseed_policy():
    with pytest.raises(ValueError, match="unknown backend 'analog'; choose from"):
        TdrConfig(H=3, alpha=0.5, gamma=2.0, backend="analog").validate()
    with pytest.raises(ValueError, match="unknown reseed policy 'per-step'"):
        TdrConfig(H=3, alpha=0.5, gamma=2.0, reseed_policy="per-step").validate()


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="not finite"):
        TdrConfig(H=3, alpha=0.5, gamma=gamma).validate()


def state_rms(cfg_a: dict, cfg_b: dict, q: int) -> np.ndarray:
    """Per seed 0-5, the RMS difference between the state matrices of two
    reservoirs with the same weights, driven by the same input."""
    rms = []
    for seed in range(6):
        u = quantize(np.random.default_rng(seed).uniform(-1.0, 1.0, 20), q)
        base = dict(H=8, alpha=0.3, gamma=2.0, q=q, master_seed=seed)
        X_a = Reservoir(TdrConfig(**base, **cfg_a)).run(u)
        X_b = Reservoir(TdrConfig(**base, **cfg_b)).run(u)
        rms.append(np.sqrt(np.mean((X_a - X_b) ** 2)))
    return np.array(rms)


@pytest.mark.parametrize("policy", RESEED_POLICIES)
def test_stochastic_converges_to_ideal_bernstein(policy):
    # the stream fluctuation shrinks as 1/sqrt(L); at q = 16 every L stays
    # far below the LFSR period.  A whole period brings no exactness here:
    # at q = 8 the Bernstein node's static error is 0.117 at L = 255 = 2^q - 1,
    # its worst, against 0.024 at L = 1000
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


def per_node(H, L, q, n=5, seed=0):
    return TdrConfig(H=H, alpha=0.3, gamma=2.0, L=L, n=n, q=q, master_seed=seed,
                     reseed_policy="per-node", backend="stochastic")


def gate_chain(cfg, monkeypatch):
    """A reservoir of ``cfg`` built with the table cap at 0, so that every
    step runs the gate chain on comparator streams."""
    with monkeypatch.context() as m:
        m.setattr(reservoir, "_TABLE_MAX_BYTES", 0)
        return Reservoir(cfg)


@pytest.mark.parametrize("q,H,path", [
    (8, 4, "surface"), (8, 65, "per-word tables"), (8, 4, "gate chain"),
    (10, 1, "surface"), (10, 3, "per-word tables"), (10, 3, "gate chain")])
def test_stochastic_step_returns_words(q, H, path, monkeypatch):
    # past H = 64 at q = 8, or H = 2 at q = 10, the surface is past the cap
    cfg = per_node(H, 64, q)
    res = gate_chain(cfg, monkeypatch) if path == "gate chain" else Reservoir(cfg)
    assert res._surface_fits == (path == "surface")
    assert (res._input_table is not None) == (path == "per-word tables")
    rng = np.random.default_rng(q)
    fb = rng.integers(0, 1 << q, H).astype(word_dtype(q))
    out = res.step(word_dtype(q)(rng.integers(0, 1 << q)), fb, 0)
    assert out.dtype == word_dtype(q) and out.shape == (H,)


@pytest.mark.parametrize("H,L,q,n", [(50, 1000, 8, 5), (3, 37, 7, 3), (1, 64, 10, 2)])
def test_transfer_surface_is_the_step_at_every_t(H, L, q, n, monkeypatch):
    res, gate = Reservoir(per_node(H, L, q, n)), gate_chain(per_node(H, L, q, n), monkeypatch)
    S = res.transfer_surface()
    assert S.shape == (1 << q, 1 << q, H) and S.dtype == word_dtype(q)
    assert not S.flags.writeable and res.transfer_surface() is S
    rng = np.random.default_rng(H)
    for t in (0, 1, 17):
        for _ in range(500 if t == 0 else 20):
            u = word_dtype(q)(rng.integers(0, 1 << q))
            fb = rng.integers(0, 1 << q, H).astype(word_dtype(q))
            expected = gate.step(u, fb, t)
            np.testing.assert_array_equal(res.step(u, fb, t), expected)
            np.testing.assert_array_equal(S[u, fb, np.arange(H)], expected)


def test_transfer_surface_equals_the_gate_chain_on_a_grid(monkeypatch):
    # node i reads only u and fb[i], so one step fills S[u, v, :] for every
    # node; every v at every 6th u and at the last, for the time budget
    H, q = 3, 7
    cfg = per_node(H, 37, q, n=3, seed=1)
    S, gate = Reservoir(cfg).transfer_surface(), gate_chain(cfg, monkeypatch)
    for u in [*range(0, 1 << q, 6), (1 << q) - 1]:
        expected = [gate.step(np.uint8(u), np.full(H, v, np.uint8), 0) for v in range(1 << q)]
        np.testing.assert_array_equal(S[u], expected)


@pytest.mark.parametrize("H", [1, 4])
@pytest.mark.parametrize("L", [37, 1000])
def test_a_gather_run_through_the_surface_is_the_run(H, L, monkeypatch):
    q, tau, steps = 7, H + 1, 12
    cfg = per_node(H, L, q, seed=L)
    S = Reservoir(cfg).transfer_surface()
    inputs = quantize(np.random.default_rng(H).uniform(-1.0, 1.0, steps), q)
    line = np.full(tau + steps * H, real_to_offset(0.0, q), dtype=word_dtype(q))
    for p, u in enumerate(real_to_offset(inputs, q)):
        g = p * H
        line[tau + g:tau + g + H] = S[u, line[g:g + H], np.arange(H)]
    X = gate_chain(cfg, monkeypatch).run(inputs)
    np.testing.assert_array_equal(offset_to_real(line[tau:], q).reshape(steps, H), X)


@pytest.mark.parametrize("H,surface", [(64, True), (65, False)])
def test_the_surface_serves_up_to_the_table_cap(H, surface, monkeypatch):
    # at q = 8, H = 64 words a cell take exactly the 4 MiB cap
    cfg = per_node(H, 1000, 8)
    res = Reservoir(cfg)
    assert res._surface_fits == surface
    assert (res._input_table is None) == surface
    inputs = quantize(np.random.default_rng(H).uniform(-1.0, 1.0, 4), 8)
    X = res.run(inputs)
    assert (res._surface is not None) == surface
    np.testing.assert_array_equal(X, gate_chain(cfg, monkeypatch).run(inputs))


def test_the_first_step_derives_the_surface():
    res = Reservoir(per_node(50, 1000, 8))
    assert res._surface is None
    assert res._input_table is None and res._feedback_table is None
    res.step(np.uint8(0), np.zeros(50, np.uint8), 0)
    assert res._surface is not None


def step_inputs(u, fb):
    """The one-sequence spellings of (u, fb) that a step accepts: the word
    scalar and the 1-D array that run passes, a Python int, a 0-d array and
    a feedback list."""
    return {"word": (u, fb), "int": (int(u), fb), "0-d": (np.array(u), fb),
            "list": (u, fb.tolist())}


@pytest.mark.parametrize("q,H", [(8, 4), (10, 2)])
@pytest.mark.parametrize("policy,derived", [("per-node", False), ("per-node", True),
                                            ("none", False)],
                         ids=["surface-not-derived", "surface-derived", "none"])
def test_every_one_sequence_input_steps_as_the_surface(q, H, policy, derived, monkeypatch):
    # at q = 10 the words are uint16, and the surface fits up to H = 2
    cfg = replace(per_node(H, 64, q), reseed_policy=policy)
    gate = gate_chain(cfg, monkeypatch)
    S = Reservoir(cfg).transfer_surface() if policy == "per-node" else None
    rng = np.random.default_rng(q + H)
    for _ in range(5):
        u = word_dtype(q)(rng.integers(0, 1 << q))
        fb = rng.integers(0, 1 << q, H).astype(word_dtype(q))
        # the surface at (u, fb), or under none the gate chain
        expected = gate.step(u, fb, 3) if S is None else S[u, fb, np.arange(H)]
        if S is not None:
            np.testing.assert_array_equal(gate.step(u, fb, 3), expected)
        for name, (su, sfb) in step_inputs(u, fb).items():
            res = Reservoir(cfg)
            if derived:
                res.step(u, fb, 0)
            assert (res._surface is not None) == derived
            out = res.step(su, sfb, 3)
            assert out.dtype == word_dtype(q) and out.shape == (H,), name
            np.testing.assert_array_equal(out, expected, err_msg=name)
            assert (res._surface is not None) == (policy == "per-node")
        res = Reservoir(cfg)
        if derived:
            res.step(u, fb, 0)
        for bad_u, bad_fb in [(np.stack([u, u]), np.stack([fb, fb])), ([u], fb),
                              (u, np.stack([fb, fb])), (u, [fb.tolist()])]:
            with pytest.raises(ValueError, match="one sequence at a time"):
                res.step(bad_u, bad_fb, 1)
        # a rejected block derives no surface
        assert (res._surface is not None) == derived


@pytest.mark.parametrize("policy", RESEED_POLICIES)
@pytest.mark.parametrize("H", [1, 50])
@pytest.mark.parametrize("q", [7, 8, 10, 16])
@pytest.mark.parametrize("master", [0, (1 << 64) - 1])
def test_source_seeds_equal_the_per_role_oracle(policy, H, q, master):
    cfg = TdrConfig(H=H, alpha=0.3, gamma=2.0, L=64, q=q, master_seed=master,
                    reseed_policy=policy, backend="stochastic")
    res = Reservoir(cfg)
    seeds, S = res._source_seeds()
    # the oracle: one reseed_for_node call a role, as the seeds were first hashed
    if policy == "per-node":
        nodes, count = np.arange(H, dtype=np.uint64), H
    else:
        nodes, count = reservoir._TAG_FREERUN, freerun_phases(64, q)
    expected = [lfsr_cycle(q, maximal_taps(q, role))[1][reseed_for_node(master, nodes, role, q)]
                for role in range(ROLE_COEFF_BASE + cfg.n + 1)]
    expected = np.reshape(expected, (len(expected), -1))
    assert S == count
    assert seeds.shape == expected.shape and seeds.dtype == expected.dtype
    np.testing.assert_array_equal(seeds, expected)


@pytest.mark.parametrize("cfg,match", [
    (TdrConfig(H=3, alpha=0.3, gamma=2.0), "steps values"),
    (TdrConfig(H=3, alpha=0.3, gamma=2.0, backend="ideal-bernstein"), "steps values"),
    (replace(per_node(3, 64, 8), reseed_policy="none"), "only 'per-node'"),
    (per_node(3, 64, 10), "past the 4194304-byte table cap"),
])
def test_transfer_surface_raises_without_one(cfg, match):
    with pytest.raises(ValueError, match=match):
        Reservoir(cfg).transfer_surface()

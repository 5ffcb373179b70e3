"""Batched probe runs: a ``(B, m)`` block against rows run one at a time, a
``(K, B, m)`` stack against its blocks run apart, the KQ/GR ranks built on
them, and sweep output across worker counts."""

import hashlib

import numpy as np
import pytest

from stochtdr import cli, metrics
from stochtdr.reservoir import BACKENDS, RESEED_POLICIES, Reservoir, TdrConfig, derive_seed
from stochtdr.streams import offset_to_real, quantize, real_to_offset, word_dtype

H, M, L = 5, 7, 24


def rows_in_turn(res: Reservoir, probes) -> np.ndarray:
    """Each probe row from a zero delay line, one ``Reservoir.step`` at a
    time; step p of row b is macro step b*m + p of the run.

    The line is a ring of ``tau`` slots, independent of ``run``'s history:
    node i of step p reads, then overwrites, slot (p*H + i) mod tau.
    """
    q, stochastic = res.cfg.q, res.cfg.backend == "stochastic"
    X = []
    for b, row in enumerate(np.asarray(probes, dtype=np.float64)):
        ring = (np.full(res.tau, real_to_offset(0.0, q), dtype=word_dtype(q)) if stochastic
                else np.zeros(res.tau))
        # step takes the input word on stochastic, the value on the ideal backends
        for p, u in enumerate(real_to_offset(row, q).astype(word_dtype(q)) if stochastic
                              else row):
            pos = (p * res.H + np.arange(res.H)) % res.tau
            ring[pos] = res.step(u, ring[pos], b * len(row) + p)
            X.append(offset_to_real(ring[pos], q) if stochastic else ring[pos])
    return np.reshape(X, np.shape(probes) + (res.H,))


class RowsInTurn(Reservoir):
    """A reservoir that runs every (B, m) block through ``rows_in_turn``."""

    def run(self, inputs):
        if np.ndim(inputs) == 2:
            return rows_in_turn(self, inputs)
        return super().run(inputs)


def config(backend, policy, seed=3, tau=None):
    return TdrConfig(H=H, alpha=0.4, gamma=2.0, tau=tau,
                     L=L if backend == "stochastic" else None, n=3, master_seed=seed,
                     reseed_policy=policy, backend=backend)


# every backend and policy at tau = H (each node reads itself), the default
# H + 1 (a ring, the plain id) and 2H + 3 (the first steps read the zero line)
EVERY_RUN_KIND = pytest.mark.parametrize("backend,policy,tau", [
    pytest.param(b, p, t, id=f"{b}-{p}" + ("" if t == H + 1 else f"-tau={t}"))
    for b in BACKENDS for p in RESEED_POLICIES for t in (H, H + 1, 2 * H + 3)])


@EVERY_RUN_KIND
def test_block_run_matches_rows_in_turn(backend, policy, tau):
    res = Reservoir(config(backend, policy, tau=tau))
    probes = quantize(np.random.default_rng(1).uniform(-1.0, 1.0, (4, M)), res.cfg.q)
    X = res.run(probes)
    assert X.shape == (4, M, H)
    np.testing.assert_array_equal(X, rows_in_turn(res, probes))


@EVERY_RUN_KIND
def test_stack_run_matches_its_blocks_run_apart(backend, policy, tau):
    # each block of a stack restarts at macro step 0, so under none it reads
    # the free-running streams that a call of its own reads
    res = Reservoir(config(backend, policy, tau=tau))
    stack = quantize(np.random.default_rng(7).uniform(-1.0, 1.0, (2, 4, M)), res.cfg.q)
    X = res.run(stack)
    assert X.shape == (2, 4, M, H)
    for block, states in zip(stack, X):
        np.testing.assert_array_equal(states, res.run(block))


@pytest.mark.parametrize("policy", RESEED_POLICIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_sequence_run_matches_rows_in_turn(backend, policy):
    res = Reservoir(config(backend, policy))
    row = quantize(np.random.default_rng(2).uniform(-1.0, 1.0, M), res.cfg.q)
    np.testing.assert_array_equal(res.run(row), rows_in_turn(res, [row])[0])


@pytest.mark.parametrize("policy", RESEED_POLICIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_step_is_pure(backend, policy):
    # a run's macro steps replayed in reverse, each on the feedback the run's
    # history holds for it, give the run's outputs back: a step depends on
    # (u, fb, t) alone, and row 1 of a block is steps t = m..2m - 1
    res = Reservoir(config(backend, policy))
    q, stochastic = res.cfg.q, backend == "stochastic"
    block = quantize(np.random.default_rng(4).uniform(-1.0, 1.0, (3, M)), q)
    for u, X, t0 in ((block[0], res.run(block[0]), 0), (block[1], res.run(block)[1], M)):
        if stochastic:  # step takes and returns offset words there
            u, X = (real_to_offset(v, q).astype(word_dtype(q)) for v in (u, X))
        zero = real_to_offset(0.0, q) if stochastic else 0.0
        line = np.concatenate([np.full(res.tau, zero, dtype=X.dtype), X.ravel()])
        for p in reversed(range(M)):
            np.testing.assert_array_equal(res.step(u[p], line[p * H:(p + 1) * H], t0 + p),
                                          X[p])


@pytest.mark.parametrize("policy", RESEED_POLICIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_ranks_match_rows_in_turn(backend, policy):
    # metric_study's probe stack and ranks, against each probe set's rows in turn
    cfg = config(backend, policy, seed=5)
    res, oracle = Reservoir(cfg), RowsInTurn(cfg)
    probes = np.stack([metrics._kq_probes(res, M, 2),
                       metrics._gr_probes(res, M, 2, metrics.DEFAULT_NOISE_AMPLITUDE)])
    assert [metrics.numerical_rank(X[:, -1].T) for X in res.run(probes)] \
        == [metrics.numerical_rank(oracle.run(block)[:, -1].T) for block in probes]


@pytest.mark.parametrize("policy", RESEED_POLICIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_metric_study_probes_one_reservoir_per_run_both_ways(monkeypatch, backend, policy):
    cfg = config(backend, policy, seed=6)
    built = []
    init = Reservoir.__init__

    def counted(self, run_cfg):
        built.append(run_cfg)
        init(self, run_cfg)

    monkeypatch.setattr(Reservoir, "__init__", counted)
    kq, gr = metrics.metric_study(cfg, M, runs=3, seed=2)
    monkeypatch.undo()
    assert [c.master_seed for c in built] == [derive_seed(6, metrics._TAG_RUN, r)
                                              for r in range(3)]
    assert kq.dtype == gr.dtype == np.int64 and kq.shape == gr.shape == (3,)
    for r, run_cfg in enumerate(built):
        # each probe set as a block run of its own on the draw's reservoir
        res = Reservoir(run_cfg)
        probe_seed = derive_seed(2, metrics._TAG_RUN, r)
        blocks = (metrics._kq_probes(res, M, probe_seed),
                  metrics._gr_probes(res, M, probe_seed, metrics.DEFAULT_NOISE_AMPLITUDE))
        assert (kq[r], gr[r]) == tuple(metrics.numerical_rank(res.run(block)[:, -1].T)
                                       for block in blocks)


@pytest.mark.parametrize("policy,digest", [
    ("none", "695cb506c8238d33ea0acb76ede8e5adb19ac4cb29627deb00961ff86469ef01"),
    ("per-node", "07ad4847b6787099b55a62e4679c133181ce1bba285621ea6de43b70e2f53c44"),
])
def test_stochastic_metrics_csv_is_pinned(tmp_path, policy, digest):
    # the digests of the sweep as it ran when each probe built its own
    # reservoir: probing one draw both ways changes no rank
    assert cli.main(["metrics", "--backend", "stochastic", "--H", "6", "--m", "6", "--L", "24",
                     "--rank-tol", "0.05", "--runs", "2", "--alpha-grid", "0.2,0.5",
                     "--gamma", "1.3", "--seed", "3", "--reseed", policy,
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("backend", ["ideal-exact", "ideal-bernstein"])
def test_ideal_metrics_csv_is_pinned(tmp_path, backend):
    # the digest of the same sweep as it ran when each probe set of a draw
    # had a run of its own; the Bernstein fit moves no rank here, so both
    # backends write the same file.  At rank tolerance 0.05 every GR is 1,
    # so 0.01 pins both metrics at more than one value
    assert cli.main(["metrics", "--backend", backend, "--H", "6", "--m", "6",
                     "--rank-tol", "0.01", "--runs", "2", "--alpha-grid", "0.2,0.5",
                     "--gamma", "1.3", "--seed", "3", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() \
        == "aabab9749af259d5cbb82a871fbe3be0271ca870dc951c0955722535ac27dbd9"


@pytest.mark.parametrize("backend", BACKENDS)
def test_step_rejects_a_non_finite_row(backend):
    # run checks the block before its first step and names the row
    res = Reservoir(config(backend, "per-node"))
    with pytest.raises(ValueError, match="input nan at row 1, step 0 is not finite"):
        res.run(np.array([[res.weights[0]], [np.nan], [res.weights[1]]]))
    with pytest.raises(ValueError, match="input 0.1 at row 2, step 1 not representable"):
        res.run(np.array([[res.weights[0]] * 3] * 2 + [[res.weights[1], 0.1, 0.2]]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_names_the_block_of_a_bad_stack_input(backend):
    res = Reservoir(config(backend, "none"))
    stack = np.full((2, 3, 4), res.weights[0])
    stack[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="input nan at block 1, row 2, step 3 is not finite"):
        res.run(stack)
    stack[1, 2, 3], stack[1, 0, 2] = res.weights[1], 0.1
    with pytest.raises(ValueError, match="input 0.1 at block 1, row 0, step 2 not representable"):
        res.run(stack)
    with pytest.raises(ValueError, match=r"\(K, B, m\) stack"):
        res.run(stack[None])


@pytest.mark.parametrize("policy,derived", [("per-node", False), ("per-node", True),
                                            ("none", False)],
                         ids=["surface-not-derived", "surface-derived", "none"])
def test_stochastic_step_takes_one_sequence(policy, derived):
    res = Reservoir(config("stochastic", policy))
    fb = np.zeros(res.H, dtype=word_dtype(res.cfg.q))
    u = fb[0]
    if derived:  # the first step derives the surface, later steps read it
        res.step(u, fb, 0)
    assert (res._surface is not None) == derived
    for bad_u, bad_fb in [(np.stack([u, u]), np.stack([fb, fb])), (np.stack([u, u]), fb),
                          (u, np.stack([fb, fb]))]:
        with pytest.raises(ValueError, match="one sequence at a time"):
            res.step(bad_u, bad_fb, 1)
    # the check runs before a first step would derive the surface
    assert (res._surface is not None) == derived


def test_metrics_csv_does_not_depend_on_worker_count(tmp_path):
    argv = ["metrics", "--backend", "ideal-bernstein", "--H", "6", "--m", "8",
            "--runs", "2", "--alpha-grid", "0.2,0.5", "--seed", "4"]
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert cli.main(argv + ["--workers", str(workers), "--out", str(out)]) == cli.EXIT_OK
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("m,noise,rel_tol", [(0, 0.05, 0.01), (5, np.nan, 0.01), (5, 0.05, 1.0)])
def test_metric_study_checks_everything_before_its_first_run(monkeypatch, m, noise, rel_tol):
    def run(self, inputs):
        raise AssertionError("a probe ran before the checks")

    monkeypatch.setattr(Reservoir, "run", run)
    with pytest.raises(ValueError, match="probe length|noise amplitude|rank tolerance"):
        metrics.metric_study(config("ideal-exact", "per-node"), m, runs=1,
                             noise_amplitude=noise, rel_tol=rel_tol)


@pytest.mark.parametrize("rel_tol", [np.nan, -1.0, 1.0, np.inf])
def test_rank_tolerance_must_lie_in_the_unit_interval(rel_tol):
    with pytest.raises(ValueError, match="rank tolerance"):
        metrics.numerical_rank(np.eye(3), rel_tol)
    assert metrics.numerical_rank(np.diag([1.0, 0.5, 0.0]), 0.0) == 2


# the noise draw uniform(-a, a) needs 2a finite: 1e308 is finite, 2e308 is not
@pytest.mark.parametrize("m,noise", [(0, 0.05), (5, np.nan), (5, -0.1), (5, np.inf),
                                     (5, 1e308)])
def test_probe_length_and_noise_are_checked(m, noise):
    with pytest.raises(ValueError, match="probe length|noise amplitude"):
        metrics.metric_study(config("ideal-exact", "per-node"), m, runs=1,
                             noise_amplitude=noise)


def test_a_study_needs_a_run():
    with pytest.raises(ValueError, match="at least one run"):
        metrics.metric_study(config("ideal-exact", "per-node"), 5, runs=0)


def test_rank_of_the_zero_matrix_is_0_and_a_nan_entry_is_rejected():
    assert metrics.numerical_rank(np.zeros((3, 3))) == 0
    # rank-deficient products, at every scale the float range allows
    rng = np.random.default_rng(3)
    for rank, shape in ((2, (5, 4)), (3, (6, 6)), (1, (4, 7))):
        M = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        for scale in (1e-300, 1.0, 1e300):
            assert metrics.numerical_rank(scale * M) == rank
    with pytest.raises(ValueError, match="non-finite"):
        metrics.numerical_rank(np.array([[1.0, np.nan], [0.0, 1.0]]))

"""Batched probe runs: a ``(B, m)`` block against rows run one at a time,
the KQ/GR ranks built on them, and sweep output across worker counts."""

import numpy as np
import pytest

from stochtdr import cli, metrics
from stochtdr.reservoir import BACKENDS, RESEED_POLICIES, Reservoir, TdrConfig, TdrState
from stochtdr.streams import quantize

H, M, L = 5, 7, 24


def rows_in_turn(res: Reservoir, probes) -> np.ndarray:
    """Each probe row from the initial delay line at step 0, one
    ``Reservoir.step`` at a time, LFSR positions carried from row to row."""
    init = res.initial_state()
    state, X = init, []
    for row in probes:
        state = TdrState(init.delay_line, 0, state.lfsr_states)
        for u in row:
            state, x = res.step(state, float(u))
            X.append(x)
    return np.reshape(X, np.shape(probes) + (res.H,))


class RowsInTurn(Reservoir):
    """A reservoir that runs every (B, m) block through ``rows_in_turn``."""

    def run(self, inputs):
        if np.ndim(inputs) == 2:
            return rows_in_turn(self, inputs)
        return super().run(inputs)


def config(backend, policy, seed=3):
    return TdrConfig(H=H, alpha=0.4, gamma=2.0, L=L if backend == "stochastic" else None,
                     n=3, master_seed=seed, biases="random", reseed_policy=policy,
                     backend=backend)


@pytest.mark.parametrize("policy", RESEED_POLICIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_block_run_matches_rows_in_turn(backend, policy):
    res = Reservoir(config(backend, policy))
    probes = quantize(np.random.default_rng(1).uniform(-1.0, 1.0, (4, M)), res.cfg.q)
    X = res.run(probes)
    assert X.shape == (4, M, H)
    np.testing.assert_array_equal(X, rows_in_turn(res, probes))


@pytest.mark.parametrize("policy", RESEED_POLICIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_ranks_match_rows_in_turn(monkeypatch, backend, policy):
    cfg = config(backend, policy, seed=5)
    kq = metrics.kernel_quality(cfg, M, seed=2)
    gr = metrics.generalization_rank(cfg, M, seed=2)
    monkeypatch.setattr(metrics, "Reservoir", RowsInTurn)
    assert (kq, gr) == (metrics.kernel_quality(cfg, M, seed=2),
                        metrics.generalization_rank(cfg, M, seed=2))


@pytest.mark.parametrize("backend", BACKENDS)
def test_step_rejects_a_non_finite_row(backend):
    res = Reservoir(config(backend, "per-node"))
    state = TdrState(np.zeros((3, res.tau)))
    with pytest.raises(ValueError, match="not finite"):
        res.step(state, np.array([res.weights[0], np.nan, res.weights[1]]))


def test_stochastic_step_takes_one_sequence():
    res = Reservoir(config("stochastic", "per-node"))
    with pytest.raises(ValueError, match="one sequence at a time"):
        res.step(TdrState(np.zeros((2, res.tau), dtype=np.int64)), quantize(np.zeros(2)))


def test_metrics_csv_does_not_depend_on_worker_count(tmp_path):
    argv = ["metrics", "--backend", "ideal-bernstein", "--H", "6", "--m", "8",
            "--runs", "2", "--alpha-grid", "0.2,0.5", "--seed", "4"]
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert cli.main(argv + ["--workers", str(workers), "--out", str(out)]) == cli.EXIT_OK
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("rel_tol", [np.nan, -1.0, 1.0, np.inf])
def test_rank_tolerance_must_lie_in_the_unit_interval(rel_tol):
    with pytest.raises(ValueError, match="rank tolerance"):
        metrics.numerical_rank(np.eye(3), rel_tol)
    assert metrics.numerical_rank(np.diag([1.0, 0.5, 0.0]), 0.0) == 2


@pytest.mark.parametrize("m,noise", [(0, 0.05), (5, np.nan), (5, -0.1), (5, np.inf)])
def test_probe_length_and_noise_are_checked(m, noise):
    with pytest.raises(ValueError, match="probe length|noise amplitude"):
        metrics.generalization_rank(config("ideal-exact", "per-node"), m, noise_amplitude=noise)

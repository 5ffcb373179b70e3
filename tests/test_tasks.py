"""Task generators and the evaluation protocol: its split check, and each
evaluation against the protocol composed by hand."""

import hashlib

import numpy as np
import pytest

from narma_oracle import narma10_oracle
from stochtdr import tasks
from stochtdr.readout import classification_accuracy, nmse, predict, ridge_train
from stochtdr.reservoir import BACKENDS, Reservoir, TdrConfig, derive_seed
from stochtdr.streams import quantize
from stochtdr.tasks import (NarmaDivergence, check_split, evaluate_classification,
                            evaluate_regression, narma10_generate, narma10_recurrence,
                            sine_square_generate)


def test_narma10_recurrence_matches_hand_computed_values():
    u = np.arange(13) / 20
    # y[p] = 0.3 y[p-1] + 0.05 y[p-1] sum(y[p-10..p-1]) + 1.5 u[p-1] u[p-10] + 0.1
    # y[10] = 1.5 * 0.45 * 0 + 0.1
    # y[11] = 0.3 * 0.1 + 0.05 * 0.1 * 0.1 + 1.5 * 0.5 * 0.05 + 0.1
    # y[12] = 0.3 * 0.168 + 0.05 * 0.168 * 0.268 + 1.5 * 0.55 * 0.1 + 0.1
    np.testing.assert_allclose(narma10_recurrence(u), [0.0] * 10 + [0.1, 0.168, 0.2351512],
                               rtol=1e-14, atol=0.0)


def test_narma10_recurrence_raises_on_divergence():
    with pytest.raises(NarmaDivergence, match=r"\|y\[\d+\]\|"):
        narma10_recurrence(np.ones(100))
    # a generated draw stays inside the bound
    assert np.abs(narma10_generate(200, seed=1).y).max() <= 10.0


def test_narma10_generate_rejects_a_divergent_draw():
    # seed 98 is the one seed in 0..299 whose first draw of 2000 samples diverges
    m, seed = 2000, 98
    draws = [np.random.default_rng(derive_seed(seed, tasks._TAG_NARMA, attempt))
             .uniform(0.0, 0.5, m) for attempt in (0, 1)]
    with pytest.raises(NarmaDivergence):
        narma10_recurrence(draws[0])
    seq = narma10_generate(m, seed)
    assert seq.regenerations == 1
    np.testing.assert_array_equal(seq.u, draws[1])
    np.testing.assert_array_equal(seq.y, narma10_recurrence(draws[1]))


def outcome(recurrence, u):
    """The targets, or the message of the divergence."""
    try:
        return recurrence(u)
    except NarmaDivergence as err:
        return str(err)


def test_narma10_recurrence_is_pinned_to_the_numpy_loop():
    # the float loop's fixed window order is numpy's pairwise sum, bit for bit
    stable = 0
    for s in range(60):
        u = np.random.default_rng(s).uniform(0.0, 0.5, 2000)
        got, want = outcome(narma10_recurrence, u), outcome(narma10_oracle, u)
        if isinstance(want, str):
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.float64
            stable += 1
    assert stable >= 50
    # seed 98's first draw diverges at the same p, with the same message
    u = np.random.default_rng(derive_seed(98, tasks._TAG_NARMA, 0)).uniform(0.0, 0.5, 2000)
    message = outcome(narma10_oracle, u)
    assert message.startswith("|y[")
    with pytest.raises(NarmaDivergence) as err:
        narma10_recurrence(u)
    assert str(err.value) == message
    # the targets of two draws, as the numpy loop gave them
    for seed, digest in [
            (0, "4da630b797b28aca3f1e144a4499f4f2ad51389574d9d71c75e7fabcbfb341af"),
            (7, "7100f34d288854c40043feb026947613812d8e8bc7f10b2c51437aea6a93e59f")]:
        assert hashlib.sha256(narma10_generate(1000, seed).y.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_narma10_recurrence_rejects_non_finite_inputs(bad):
    u = np.random.default_rng(5).uniform(0.0, 0.5, 30)
    np.testing.assert_array_equal(narma10_recurrence(u), narma10_oracle(u))
    u[[3, 7]] = bad
    # the error names the first bad index, before any step
    with pytest.raises(ValueError, match=rf"u\[3\] = {bad} is not finite"):
        narma10_recurrence(u)
    u[3] = 0.1
    with pytest.raises(ValueError, match=rf"u\[7\] = {bad} is not finite"):
        narma10_recurrence(u)


def test_sine_square_needs_one_sample():
    assert len(sine_square_generate(1).u) == len(sine_square_generate(1).y) == 1
    for m in (0, -1):
        with pytest.raises(ValueError, match="sequence length must be >= 1"):
            sine_square_generate(m)


def test_split_check():
    check_split(7, 7, 5)  # washout + 2 samples in each split is the least
    for args in [(7, 7, -1), (6, 7, 5), (7, 6, 5)]:
        with pytest.raises(ValueError):
            check_split(*args)


# a small reservoir on each backend, and the protocol's 120/80 split, washout 10
PROTOCOL = {"m_train": 120, "m_test": 80, "lam": 1e-4, "washout": 10, "seed": 3}


def small_reservoir(backend):
    return TdrConfig(H=8, alpha=0.2, gamma=2.0, L=64 if backend == "stochastic" else None,
                     backend=backend)


def hand_protocol(cfg, drive, y):
    """Continuous run, contiguous split, washout dropped from each split:
    the train rows fit the readout, and its predictions on the test rows."""
    mt, w, lam = PROTOCOL["m_train"], PROTOCOL["washout"], PROTOCOL["lam"]
    X = Reservoir(cfg).run(drive)
    yhat = predict(ridge_train(X[w:mt], y[w:mt], lam), X[mt + w:])
    return y[mt + w:], yhat, np.mean(y[w:mt])


@pytest.mark.parametrize("backend", BACKENDS)
def test_evaluate_regression_is_the_protocol_composed_by_hand(backend):
    cfg = small_reservoir(backend)
    res = evaluate_regression(cfg, **PROTOCOL)
    data = narma10_generate(PROTOCOL["m_train"] + PROTOCOL["m_test"], PROTOCOL["seed"])
    np.testing.assert_array_equal(res.sequence.u, data.u)
    # the NARMA input in [0, 0.5] drives the reservoir rescaled to [-1, 1]
    y_test, yhat, y_mean = hand_protocol(cfg, quantize(4 * data.u - 1, cfg.q), data.y)
    assert (res.metric, res.value) == ("nmse", nmse(y_test, yhat, y_mean))
    assert res.metadata == {"regenerations": data.regenerations}


@pytest.mark.parametrize("backend", BACKENDS)
def test_evaluate_classification_is_the_protocol_composed_by_hand(backend):
    cfg = small_reservoir(backend)
    res = evaluate_classification(cfg, **PROTOCOL)
    data = sine_square_generate(PROTOCOL["m_train"] + PROTOCOL["m_test"], PROTOCOL["seed"])
    np.testing.assert_array_equal(res.sequence.u, data.u)
    y_test, yhat, _ = hand_protocol(cfg, quantize(data.u, cfg.q), data.y.astype(np.float64))
    assert (res.metric, res.value) == ("accuracy", classification_accuracy(y_test, yhat))


@pytest.mark.parametrize("evaluate", [evaluate_regression, evaluate_classification])
def test_no_test_target_reaches_the_trainer(monkeypatch, evaluate):
    seen, train = [], tasks.ridge_train

    def recording(X, Y, lam):
        seen.append(np.array(Y, copy=True))
        return train(X, Y, lam)

    monkeypatch.setattr(tasks, "ridge_train", recording)
    res = evaluate(small_reservoir("ideal-exact"), **PROTOCOL)
    mt, w = PROTOCOL["m_train"], PROTOCOL["washout"]
    # one fit, on the train targets past the washout and on nothing else
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], res.sequence.y[w:mt])

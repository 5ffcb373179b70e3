"""Benchmark task generators and evaluation protocols.

Two tasks: the tenth-order NARMA recurrence (regression) and sine/square
waveform discrimination (classification).  Evaluation generates one
continuous sequence, splits it contiguously into train and test, discards a
washout prefix from each split, trains the ridge readout on the train
states, and scores on the test states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .readout import classification_accuracy, nmse, predict, ridge_train
from .reservoir import Reservoir, TdrConfig, derive_seed
from .streams import quantize

NARMA_ORDER = 10
NARMA_DIVERGENCE_BOUND = 10.0
NARMA_MAX_ATTEMPTS = 1000
DEFAULT_WASHOUT = 50
DEFAULT_LAMBDA = 1e-6
SINE_SQUARE_PERIOD = 10

_TAG_NARMA = 0x6E61726D61313030
_TAG_SINESQ = 0x73696E6573717561


class NarmaDivergence(RuntimeError):
    """The NARMA recurrence left the stable region for this input draw."""


def narma10_recurrence(u: np.ndarray) -> np.ndarray:
    """Tenth-order NARMA targets for a given input vector.

    y[p] = 0.3 y[p-1] + 0.05 y[p-1] * sum(y[p-10..p-1]) + 1.5 u[p-1] u[p-10]
           + 0.1, with the first 10 targets fixed at zero.  Raises ValueError,
    naming the first bad index, if an input is not finite, and
    :class:`NarmaDivergence` once |y| exceeds ``NARMA_DIVERGENCE_BOUND`` (the
    recurrence is unstable for some input draws).

    The loop runs on Python floats.  The window sum is added in one fixed
    order, ((y0 + y1) + (y2 + y3)) + ((y4 + y5) + (y6 + y7)), then y8, then
    y9: the order numpy's pairwise sum takes over 10 values, so the targets
    keep the bits of a numpy loop but no longer depend on numpy's reductions.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    bad = ~np.isfinite(u)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"NARMA10 input u[{i}] = {u[i]} is not finite")
    x, m = u.tolist(), u.size
    y = [0.0] * m
    for p in range(NARMA_ORDER, m):
        y0, y1, y2, y3, y4, y5, y6, y7, y8, y9 = y[p - NARMA_ORDER:p]
        window = ((y0 + y1) + (y2 + y3)) + ((y4 + y5) + (y6 + y7)) + y8 + y9
        yp = 0.3 * y9 + 0.05 * y9 * window + 1.5 * x[p - 1] * x[p - NARMA_ORDER] + 0.1
        if abs(yp) > NARMA_DIVERGENCE_BOUND:
            raise NarmaDivergence(f"|y[{p}]| = {abs(yp):.3g} > {NARMA_DIVERGENCE_BOUND}")
        y[p] = yp
    return np.array(y)


@dataclass
class TaskSequence:
    """One task draw: the input ``u``, the target ``y`` and, for NARMA10,
    the number of divergent draws rejected before it."""

    u: np.ndarray
    y: np.ndarray
    regenerations: int = 0


def check_narma_length(m: int) -> None:
    """Raise ValueError unless a NARMA10 sequence of m samples is long enough."""
    if m < 2 * NARMA_ORDER:
        raise ValueError(f"sequence length must be >= {2 * NARMA_ORDER}")


def narma10_generate(m: int, seed: int = 0) -> TaskSequence:
    """Draw u ~ U[0, 0.5]^m and its NARMA targets, regenerating divergent draws.

    Divergent draws are rejected and retried with the next sub-seed; the
    number of regenerations is recorded on the result.
    """
    check_narma_length(m)
    for attempt in range(NARMA_MAX_ATTEMPTS):
        rng = np.random.default_rng(derive_seed(seed, _TAG_NARMA, attempt))
        u = rng.uniform(0.0, 0.5, m)
        try:
            y = narma10_recurrence(u)
        except NarmaDivergence:
            continue
        return TaskSequence(u, y, regenerations=attempt)
    raise RuntimeError(f"no stable NARMA draw in {NARMA_MAX_ATTEMPTS} attempts")


def sine_square_generate(m: int, seed: int = 0) -> TaskSequence:
    """One-period segments, each a fair coin flip between sine and square:
    waveform samples ``u`` in [-1, 1] and per-sample labels ``y`` (0=sine,
    1=square).

    The square is +1 on the first half-period and -1 on the second, so it
    has no 0 samples where sign(sin) would.
    """
    if m < 1:
        raise ValueError("sequence length must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, _TAG_SINESQ))
    t = np.arange(SINE_SQUARE_PERIOD)
    segments = (np.sin(2.0 * np.pi * t / SINE_SQUARE_PERIOD),
                np.where(t < SINE_SQUARE_PERIOD / 2, 1.0, -1.0))
    is_square = [int(rng.integers(0, 2)) for _ in range(-(-m // SINE_SQUARE_PERIOD))]
    return TaskSequence(np.concatenate([segments[k] for k in is_square])[:m],
                        np.repeat(is_square, SINE_SQUARE_PERIOD)[:m])


@dataclass
class EvalResult:
    """One evaluation's score: the metric's name and value, the sequence it
    was scored on, and in ``metadata`` the NARMA ``regenerations`` (empty for
    sine/square)."""

    metric: str
    value: float
    sequence: TaskSequence
    metadata: dict


def check_split(m_train: int, m_test: int, washout: int) -> None:
    """Raise ValueError unless washout >= 0 and each split keeps >= 2 samples past it."""
    if washout < 0:
        raise ValueError("washout must be >= 0")
    if m_train < washout + 2 or m_test < washout + 2:
        raise ValueError(
            f"splits of {m_train}/{m_test} too short for washout {washout}")


def _split_and_fit(cfg: TdrConfig, drive: np.ndarray, targets: np.ndarray,
                   m_train: int, lam: float, washout: int):
    """Shared protocol: continuous run, contiguous split, washout discard."""
    check_split(m_train, drive.size - m_train, washout)
    X = Reservoir(cfg).run(drive)
    X_train, y_train = X[washout:m_train], targets[washout:m_train]
    X_test = X[m_train + washout:]
    y_test = targets[m_train + washout:]
    return ridge_train(X_train, y_train, lam), X_test, y_test, float(np.mean(y_train))


def evaluate_regression(cfg: TdrConfig, m_train: int = 1000, m_test: int = 1000,
                        lam: float = DEFAULT_LAMBDA, washout: int = DEFAULT_WASHOUT,
                        seed: int = 0) -> EvalResult:
    """NARMA regression NMSE for one train/test draw.

    The driving input is the task input affinely rescaled from [0, 0.5] to
    [-1, 1] and quantized at width q; test targets never reach the trainer.
    """
    data = narma10_generate(m_train + m_test, seed)
    drive = quantize(4.0 * data.u - 1.0, cfg.q)
    w, X_test, y_test, y_mean = _split_and_fit(cfg, drive, data.y, m_train, lam, washout)
    return EvalResult("nmse", nmse(y_test, predict(w, X_test), y_mean), data,
                      {"regenerations": data.regenerations})


def evaluate_classification(cfg: TdrConfig, m_train: int = 1000, m_test: int = 1000,
                            lam: float = DEFAULT_LAMBDA,
                            washout: int = DEFAULT_WASHOUT,
                            seed: int = 0) -> EvalResult:
    """Sine/square discrimination accuracy with a 0/1 target and 0.5 decision."""
    data = sine_square_generate(m_train + m_test, seed)
    drive = quantize(data.u, cfg.q)
    w, X_test, y_test, _ = _split_and_fit(
        cfg, drive, data.y.astype(np.float64), m_train, lam, washout)
    return EvalResult("accuracy", classification_accuracy(y_test, predict(w, X_test)), data, {})

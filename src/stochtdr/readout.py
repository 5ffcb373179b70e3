"""Linear output layer: regularized least-squares training and error metrics."""

from __future__ import annotations

import math

import numpy as np


class RankDeficiencyError(ValueError):
    """Normal equations are singular and no regularization was requested."""


def _with_bias(X: np.ndarray) -> np.ndarray:
    return np.column_stack([X, np.ones(X.shape[0])])


def check_lambda(lam: float) -> None:
    """Raise ValueError unless the regularization parameter is finite and >= 0."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"regularization parameter lambda={lam} must be finite and >= 0")


def check_training_rows(rows: int, H: int, lam: float) -> None:
    """Raise ValueError if lam = 0 and fewer than H + 1 training rows meet
    the H state weights and the bias weight: the Gram matrix is then
    singular whatever the states are."""
    if lam == 0.0 and rows < H + 1:
        raise ValueError(f"with lambda = 0, {rows} training rows past the washout cannot fit "
                         f"H = {H} weights and a bias; need >= {H + 1}")


def ridge_train(X: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """The output weights w solving (Xd^T Xd + lam*I) w = Xd^T Y by a factored
    linear solve, where Xd is X with a column of ones appended: one weight
    per state column, then the bias weight last.

    With lam > 0 the system is always solvable; at lam = 0 a singular
    Gram matrix raises RankDeficiencyError with the detected rank.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64).reshape(-1)
    if X.ndim != 2 or X.shape[0] != Y.size:
        raise ValueError(f"shape mismatch: X {X.shape} vs Y ({Y.size},)")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite entries in training data")
    check_lambda(lam)
    Xd = _with_bias(X)
    gram = Xd.T @ Xd + lam * np.eye(Xd.shape[1])
    if lam == 0.0:
        rank = np.linalg.matrix_rank(gram)
        if rank < Xd.shape[1]:
            raise RankDeficiencyError(
                f"X^T X is rank deficient (rank {rank} < {Xd.shape[1]}) and lam = 0")
    return np.linalg.solve(gram, Xd.T @ Y)


def predict(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """yhat = Xd w for weights w from :func:`ridge_train`, the bias weight
    last (identity output function)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != w.size - 1:
        raise ValueError(f"X has {X.shape[1] if X.ndim == 2 else '?'} columns, "
                         f"model expects {w.size - 1}")
    return _with_bias(X) @ w


def nmse(y: np.ndarray, yhat: np.ndarray, y_train_mean: float) -> float:
    """Normalized mean squared error vs. the predict-the-training-mean baseline.

    sum((y - yhat)^2) / sum((y - y_train_mean)^2): 0 for a perfect
    prediction, exactly 1 for predicting the training mean.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(-1)
    if y.size != yhat.size:
        raise ValueError(f"length mismatch: {y.size} targets vs {yhat.size} predictions")
    denom = float(np.sum((y - y_train_mean) ** 2))
    if denom <= 0.0:
        raise ValueError("targets have zero variance around the training mean")
    return float(np.sum((y - yhat) ** 2)) / denom


def classification_accuracy(y: np.ndarray, yhat: np.ndarray) -> float:
    """Fraction of samples where (yhat >= 0.5) matches the 0/1 label."""
    y = np.asarray(y).reshape(-1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(-1)
    if y.size != yhat.size:
        raise ValueError(f"length mismatch: {y.size} labels vs {yhat.size} predictions")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return float(np.mean((yhat >= 0.5) == (y == 1)))

"""Ridge readout against a least-squares solve of the augmented system."""

import numpy as np
import pytest

from stochtdr.readout import (
    RankDeficiencyError,
    check_training_rows,
    classification_accuracy,
    nmse,
    predict,
    ridge_train,
)


@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.3])
def test_ridge_matches_lstsq_on_the_augmented_system(lam):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 5))
    y = X @ rng.normal(size=5) + 0.7 + 0.1 * rng.normal(size=60)
    w_out = ridge_train(X, y, lam)
    # (Xd^T Xd + lam I) w = Xd^T y are the normal equations of [Xd; sqrt(lam) I] w = [y; 0]
    Xd = np.column_stack([X, np.ones(60)])
    A = np.vstack([Xd, np.sqrt(lam) * np.eye(Xd.shape[1])])
    w, *_ = np.linalg.lstsq(A, np.concatenate([y, np.zeros(Xd.shape[1])]), rcond=None)
    np.testing.assert_allclose(w_out, w, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(predict(w_out, X), Xd @ w, rtol=1e-9, atol=1e-12)


def test_rank_deficient_data_needs_regularization():
    X = np.random.default_rng(4).normal(size=(30, 3))
    X = np.column_stack([X, X[:, 0] - 2 * X[:, 1]])  # a dependent column
    y = X[:, 0]
    with pytest.raises(RankDeficiencyError, match="rank 4 < 5"):
        ridge_train(X, y, 0.0)
    assert np.isfinite(ridge_train(X, y, 1e-3)).all()


@pytest.mark.parametrize("rows", [1, 4, 5])
def test_too_few_rows_at_lambda_0_are_caught_before_the_solve(rows):
    # H = 4 weights and a bias need 5 rows; with fewer the solve always fails
    X = np.random.default_rng(6).normal(size=(rows, 4))
    if rows < 5:
        with pytest.raises(ValueError, match=f"{rows} training rows .* need >= 5"):
            check_training_rows(rows, 4, 0.0)
        with pytest.raises(RankDeficiencyError):
            ridge_train(X, X[:, 0], 0.0)
    else:
        check_training_rows(rows, 4, 0.0)
        assert np.isfinite(ridge_train(X, X[:, 0], 0.0)).all()
    check_training_rows(rows, 4, 1e-6)  # a regularized solve takes any row count


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_lambda_must_be_finite_and_non_negative(lam):
    X = np.eye(4)
    with pytest.raises(ValueError, match="lambda"):
        ridge_train(X, np.ones(4), lam)


def test_predict_rejects_weights_of_the_wrong_width():
    X = np.random.default_rng(5).normal(size=(10, 3))
    w = ridge_train(X, X[:, 0], 1e-3)
    assert w.shape == (4,)  # one weight per column, then the bias weight
    with pytest.raises(ValueError, match="X has 2 columns, model expects 3"):
        predict(w, X[:, :2])
    with pytest.raises(ValueError, match="X has 3 columns, model expects 4"):
        predict(np.append(w, 0.0), X)


def test_ridge_rejects_mismatched_shapes_and_non_finite_data():
    X = np.random.default_rng(7).normal(size=(10, 3))
    for bad_X, y in ((X, np.ones(9)), (X[:, 0], np.ones(10))):
        with pytest.raises(ValueError, match="shape mismatch"):
            ridge_train(bad_X, y, 1e-3)
    for bad in (np.nan, np.inf):
        Xb = X.copy()
        Xb[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ridge_train(Xb, np.ones(10), 1e-3)
        with pytest.raises(ValueError, match="non-finite"):
            ridge_train(X, np.where(np.arange(10) == 4, bad, 1.0), 1e-3)


def test_nmse_rejects_mismatched_lengths_and_flat_targets():
    assert nmse([1.0, 3.0], [1.0, 3.0], 2.0) == 0.0
    assert nmse([1.0, 3.0], [2.0, 2.0], 2.0) == 1.0
    with pytest.raises(ValueError, match="3 targets vs 2 predictions"):
        nmse([1.0, 2.0, 3.0], [1.0, 2.0], 2.0)
    with pytest.raises(ValueError, match="zero variance"):
        nmse([2.0, 2.0], [1.0, 3.0], 2.0)


def test_accuracy_rejects_mismatched_lengths_and_labels_other_than_0_and_1():
    assert classification_accuracy([0, 1, 1], [0.2, 0.5, 0.4]) == 2 / 3
    with pytest.raises(ValueError, match="3 labels vs 2 predictions"):
        classification_accuracy([0, 1, 1], [0.2, 0.7])
    for labels in ([0, 2, 1], [0, -1, 1], [0, 0.5, 1]):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            classification_accuracy(labels, [0.2, 0.7, 0.9])

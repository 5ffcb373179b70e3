"""Task generators and the evaluation protocol's split check."""

import numpy as np
import pytest

from stochtdr import tasks
from stochtdr.reservoir import derive_seed
from stochtdr.tasks import NarmaDivergence, check_split, narma10_generate, narma10_recurrence


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


def test_split_check():
    check_split(7, 7, 5)  # washout + 2 samples in each split is the least
    for args in [(7, 7, -1), (6, 7, 5), (7, 6, 5)]:
        with pytest.raises(ValueError):
            check_split(*args)

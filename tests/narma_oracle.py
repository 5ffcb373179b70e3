"""The NARMA10 recurrence as a loop over numpy scalars, for the tests.

``tasks.narma10_recurrence`` runs on Python floats and adds each window in
a fixed order; this oracle sums the window with ``ndarray.sum``, so the two
agree bit for bit only while that order is numpy's.
"""

import numpy as np

from stochtdr.tasks import NARMA_DIVERGENCE_BOUND, NARMA_ORDER, NarmaDivergence


def narma10_oracle(u: np.ndarray) -> np.ndarray:
    """NARMA10 targets of the input vector ``u``, raising
    :class:`NarmaDivergence` once |y| exceeds the bound."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    m = u.size
    y = np.zeros(m)
    for p in range(NARMA_ORDER, m):
        window = y[p - NARMA_ORDER:p].sum()
        y[p] = (0.3 * y[p - 1] + 0.05 * y[p - 1] * window
                + 1.5 * u[p - 1] * u[p - NARMA_ORDER] + 0.1)
        if abs(y[p]) > NARMA_DIVERGENCE_BOUND:
            raise NarmaDivergence(f"|y[{p}]| = {abs(y[p]):.3g} > {NARMA_DIVERGENCE_BOUND}")
    return y

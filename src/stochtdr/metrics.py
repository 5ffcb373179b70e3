"""Application-independent reservoir quality metrics: kernel quality and
generalization rank.

Both drive the reservoir with H probe sequences of length m, each from a
zeroed delay line, and take the rank of the H x H matrix of final state
vectors.  Kernel quality uses independent random probes (separation);
generalization rank perturbs one base probe with small noise (a low rank
means similar inputs collapse to similar states).  Each run of
:func:`metric_study` probes one reservoir draw both ways, as Legenstein &
Maass (Neural Networks 2007) define the two metrics on one circuit.

:func:`metric_study` hands both probe sets of a draw to :meth:`Reservoir.run`
as one ``(2, H, m)`` stack, an ``(H, m)`` block per probe set.
The ideal backends advance every row of the stack together, one ``(2H, H)``
step per macro step, instead of paying the per-step Python overhead for each
probe, or for each probe set.  The ``stochastic`` backend steps the rows in
turn under both reseed policies, since a batched stochastic step is not
built yet; under ``per-node``, within the table cap, each step of a row is
one gather from the reservoir's transfer surface, which the draw's first
step derives.  Each block of the stack restarts at macro step t = 0, so the
second probe set sees what a fresh build would.  Under ``none`` row b of a
block reads the free-running LFSRs from macro step b*m on, where row b - 1
left them, as a hardware part would between bursts.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .reservoir import Reservoir, TdrConfig, derive_seed
from .streams import quantize

DEFAULT_NOISE_AMPLITUDE = 0.05
DEFAULT_RANK_TOL = 1e-6

_TAG_KQ = 0x4B51B2D1E6A7C903
_TAG_GR = 0x47521C3F9D0B8E61
_TAG_RUN = 0x52554E5F8A1D2B37


def check_rank_tol(rel_tol: float) -> None:
    """Raise ValueError unless 0 <= rel_tol < 1."""
    if not 0.0 <= rel_tol < 1.0:
        raise ValueError(f"rank tolerance {rel_tol} outside [0, 1)")


def check_probes(m: int, noise_amplitude: float) -> None:
    """Raise ValueError unless the probes have m >= 1 steps and a
    non-negative noise amplitude a whose draw range 2a is finite."""
    if m < 1:
        raise ValueError("probe length must be >= 1")
    if not 0.0 <= 2.0 * noise_amplitude < math.inf:
        raise ValueError(f"noise amplitude {noise_amplitude} must be >= 0, "
                         "and twice it finite")


def numerical_rank(M: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """numpy's matrix rank at relative tolerance rel_tol: the singular values
    above rel_tol times the largest; 0 for the zero matrix."""
    check_rank_tol(rel_tol)
    M = np.asarray(M, dtype=np.float64)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return int(np.linalg.matrix_rank(M, rtol=rel_tol))


def _kq_probes(res: Reservoir, m: int, seed: int) -> np.ndarray:
    """H independent random probes of m steps on the width-q grid."""
    rng = np.random.default_rng(derive_seed(seed, _TAG_KQ))
    return quantize(rng.uniform(-1.0, 1.0, (res.H, m)), res.cfg.q)


def _gr_probes(res: Reservoir, m: int, seed: int, noise_amplitude: float) -> np.ndarray:
    """H probes of m steps: one random base plus independent noise on each."""
    rng = np.random.default_rng(derive_seed(seed, _TAG_GR))
    base = rng.uniform(-1.0, 1.0, m)
    noise = rng.uniform(-noise_amplitude, noise_amplitude, (res.H, m))
    return quantize(np.clip(base[None, :] + noise, -1.0, 1.0), res.cfg.q)


def metric_study(cfg: TdrConfig, m: int, runs: int = 10, seed: int = 0,
                 noise_amplitude: float = DEFAULT_NOISE_AMPLITUDE,
                 rel_tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """KQ and GR over several runs, each on a fresh reservoir draw with fresh
    probes: the two int64 arrays (kq, gr) of per-run ranks in [0, H].

    Each draw runs both probe sets as one stack; everything is checked
    before the first run."""
    if runs < 1:
        raise ValueError("need at least one run")
    check_probes(m, noise_amplitude)
    check_rank_tol(rel_tol)
    kq = np.empty(runs, dtype=np.int64)
    gr = np.empty(runs, dtype=np.int64)
    for r in range(runs):
        res = Reservoir(replace(cfg, master_seed=derive_seed(cfg.master_seed, _TAG_RUN, r)))
        probe_seed = derive_seed(seed, _TAG_RUN, r)
        probes = np.stack([_kq_probes(res, m, probe_seed),
                           _gr_probes(res, m, probe_seed, noise_amplitude)])
        # each probe set's final states, probes by nodes; a copy, so that the
        # run's history is freed at once
        final = res.run(probes)[..., -1, :].copy()
        kq[r], gr[r] = (numerical_rank(X.T, rel_tol) for X in final)
    return kq, gr

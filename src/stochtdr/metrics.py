"""Application-independent reservoir quality metrics: kernel quality and
generalization rank.

Both drive the reservoir with H probe sequences of length m, each from a
zeroed delay line, and take the rank of the H x H matrix of final state
vectors.  Kernel quality uses independent random probes (separation);
generalization rank perturbs one base probe with small noise (a low rank
means similar inputs collapse to similar states).

The probes go to :meth:`Reservoir.run` as one ``(H, m)`` block.  The ideal
backends advance all H probes together, one ``(H, H)`` step per macro step,
instead of paying the per-step Python overhead H times.  The ``stochastic``
backend runs the rows in turn: under the free-running ``none`` policy a
bit-identical batched packed step gathers about 30 MB of LFSR words per
macro step (12 roles of B*H*L bytes at B = H = m = 50, L = 1000, q = 8),
and took 2.6-3.0 s against 1.6-1.8 s for rows in turn on a 2-core Xeon.
Under that policy the probe runs share the advancing LFSRs in row order,
as a hardware part would between bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def check_probes(m: int, noise_amplitude: float = 0.0) -> None:
    """Raise ValueError unless the probes have m >= 1 steps and a finite,
    non-negative noise amplitude."""
    if m < 1:
        raise ValueError("probe length must be >= 1")
    if not 0.0 <= noise_amplitude < math.inf:
        raise ValueError(f"noise amplitude {noise_amplitude} must be finite and >= 0")


def numerical_rank(M: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rel_tol times the largest; 0 for the zero matrix."""
    check_rank_tol(rel_tol)
    M = np.asarray(M, dtype=np.float64)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def kernel_quality(cfg: TdrConfig, m: int, seed: int = 0,
                   rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of the final-state matrix under H independent random probes."""
    check_probes(m)
    rng = np.random.default_rng(derive_seed(seed, _TAG_KQ))
    probes = quantize(rng.uniform(-1.0, 1.0, (cfg.H, m)), cfg.q)
    return numerical_rank(Reservoir(cfg).run(probes)[:, -1, :].T, rel_tol)


def generalization_rank(cfg: TdrConfig, m: int, seed: int = 0,
                        noise_amplitude: float = DEFAULT_NOISE_AMPLITUDE,
                        rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of the final-state matrix when all probes share one noisy base."""
    check_probes(m, noise_amplitude)
    rng = np.random.default_rng(derive_seed(seed, _TAG_GR))
    base = rng.uniform(-1.0, 1.0, m)
    noise = rng.uniform(-noise_amplitude, noise_amplitude, (cfg.H, m))
    probes = quantize(np.clip(base[None, :] + noise, -1.0, 1.0), cfg.q)
    return numerical_rank(Reservoir(cfg).run(probes)[:, -1, :].T, rel_tol)


@dataclass
class MetricRun:
    """Repeated KQ/GR measurements for one configuration; per-run values are
    raw ranks in [0, H]."""

    kq: np.ndarray
    gr: np.ndarray


def metric_study(cfg: TdrConfig, m: int, runs: int = 10, seed: int = 0,
                 noise_amplitude: float = DEFAULT_NOISE_AMPLITUDE,
                 rel_tol: float = DEFAULT_RANK_TOL) -> MetricRun:
    """KQ and GR over several runs, each with a fresh reservoir draw and probes."""
    if runs < 1:
        raise ValueError("need at least one run")
    kq = np.empty(runs, dtype=np.int64)
    gr = np.empty(runs, dtype=np.int64)
    for r in range(runs):
        run_cfg = replace(
            cfg, master_seed=derive_seed(cfg.master_seed, _TAG_RUN, r))
        probe_seed = derive_seed(seed, _TAG_RUN, r)
        kq[r] = kernel_quality(run_cfg, m, probe_seed, rel_tol)
        gr[r] = generalization_rank(run_cfg, m, probe_seed, noise_amplitude, rel_tol)
    return MetricRun(kq=kq, gr=gr)

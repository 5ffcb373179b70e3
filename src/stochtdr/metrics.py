"""Application-independent reservoir quality metrics: kernel quality and
generalization rank.

Both drive the reservoir with H probe sequences of length m and take the
rank of the H x H matrix of final state vectors.  Kernel quality uses
independent random probes (separation); generalization rank perturbs one
base probe with small noise (a low rank means similar inputs collapse to
similar states).  Under the free-running PRNG policy the probe runs share
the advancing LFSRs, exactly as a hardware part would between bursts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .reservoir import Reservoir, TdrConfig, derive_seed
from .streams import quantize

DEFAULT_NOISE_AMPLITUDE = 0.05
DEFAULT_RANK_TOL = 1e-6

_TAG_KQ = 0x4B51B2D1E6A7C903
_TAG_GR = 0x47521C3F9D0B8E61
_TAG_RUN = 0x52554E5F8A1D2B37


def numerical_rank(M: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rel_tol times the largest; 0 for the zero matrix."""
    M = np.asarray(M, dtype=np.float64)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def _final_states(res: Reservoir, probes: np.ndarray) -> np.ndarray:
    """Run each probe row from a reset delay line; columns are final states.

    LFSR positions carry across probe runs so the free-running policy sees
    one continuous pseudo-random sequence.
    """
    state = res.initial_state()
    cols = []
    for row in probes:
        state = state.reset_dynamics()
        X, state = res.run(row, state=state, return_state=True)
        cols.append(X[-1])
    return np.stack(cols, axis=1)


def kernel_quality(cfg: TdrConfig, m: int, seed: int = 0,
                   rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of the final-state matrix under H independent random probes."""
    if m < 1:
        raise ValueError("probe length must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, _TAG_KQ))
    probes = quantize(rng.uniform(-1.0, 1.0, (cfg.H, m)), cfg.q)
    return numerical_rank(_final_states(Reservoir(cfg), probes), rel_tol)


def generalization_rank(cfg: TdrConfig, m: int, seed: int = 0,
                        noise_amplitude: float = DEFAULT_NOISE_AMPLITUDE,
                        rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of the final-state matrix when all probes share one noisy base."""
    if m < 1:
        raise ValueError("probe length must be >= 1")
    if noise_amplitude < 0:
        raise ValueError("noise amplitude must be >= 0")
    rng = np.random.default_rng(derive_seed(seed, _TAG_GR))
    base = rng.uniform(-1.0, 1.0, m)
    noise = rng.uniform(-noise_amplitude, noise_amplitude, (cfg.H, m))
    probes = quantize(np.clip(base[None, :] + noise, -1.0, 1.0), cfg.q)
    return numerical_rank(_final_states(Reservoir(cfg), probes), rel_tol)


@dataclass
class MetricRun:
    """Repeated KQ/GR measurements for one configuration.

    Per-run values are raw ranks in [0, H]; the *_norm properties report
    them normalized to H.
    """

    H: int
    m: int
    runs: int
    rank_tolerance: float
    noise_amplitude: float
    kq: np.ndarray = field(default_factory=lambda: np.empty(0))
    gr: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def kq_mean(self) -> float:
        return float(np.mean(self.kq))

    @property
    def gr_mean(self) -> float:
        return float(np.mean(self.gr))

    @property
    def kq_std(self) -> float:
        return float(np.std(self.kq, ddof=1)) if self.runs > 1 else 0.0

    @property
    def gr_std(self) -> float:
        return float(np.std(self.gr, ddof=1)) if self.runs > 1 else 0.0

    @property
    def kq_norm(self) -> np.ndarray:
        return self.kq / self.H

    @property
    def gr_norm(self) -> np.ndarray:
        return self.gr / self.H


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
    return MetricRun(H=cfg.H, m=m, runs=runs, rank_tolerance=rel_tol,
                     noise_amplitude=noise_amplitude, kq=kq, gr=gr)

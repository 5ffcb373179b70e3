"""The benchmark's workloads, driven through stochtdr's public API.

A workload runs a fixed number of task instances, each derived from the
benchmark seed with ``derive_seed`` as ``stochtdr bench`` derives its runs.
A run cycles through the instances, so every instance is repeated and must
give the same output each time.  Importing this module imports stochtdr,
so the set-up measurement (setup_probe.py) times it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from stochtdr import cli, reservoir, tasks
from stochtdr.reservoir import TdrConfig, derive_seed

# The tags `stochtdr bench` uses for run r, so task instance r of seed s is
# `stochtdr bench <task> --seed s` run r.
TAG_MASTER = 0x4D41535445525F31
TAG_TASK = 0x5441534B5F5F5F32


@dataclass(frozen=True)
class Output:
    """What one entry call produced: the key that the exact check compares,
    the scores it reports, the invariant it breaks, if any, and how often
    the task generator redrew a divergent sequence."""

    key: str
    scores: dict[str, float]
    error: str | None = None
    regenerations: int = 0


@dataclass(frozen=True)
class TaskWorkload:
    """``evaluate_regression`` or ``evaluate_classification`` on the
    stochastic backend, one call per task instance."""

    name: str
    task: str  # "narma10" or "sinesquare"
    reseed_policy: str
    instances: int = 2
    H: int = 50
    L: int = 1000
    n: int = 5
    q: int = 8
    alpha: float = 0.2
    gamma: float = 2.0
    train: int = 500
    test: int = 500
    washout: int = 50

    # calibration kernel with the operations of a stochastic step
    kernel: ClassVar[str] = "bit_streams"

    @property
    def score(self) -> str:
        return "nmse" if self.task == "narma10" else "accuracy"

    def config(self, seed: int, r: int = 0) -> TdrConfig:
        return TdrConfig(H=self.H, alpha=self.alpha, gamma=self.gamma, L=self.L,
                         n=self.n, q=self.q, master_seed=derive_seed(seed, TAG_MASTER, r),
                         reseed_policy=self.reseed_policy, backend="stochastic")

    def node_updates(self) -> int:
        """H x macro steps of one call: one run over the train and test split."""
        return self.H * (self.train + self.test)

    def call(self, seed: int, r: int, workdir: Path):
        evaluate = (tasks.evaluate_regression if self.task == "narma10"
                    else tasks.evaluate_classification)
        return evaluate(self.config(seed, r), self.train, self.test,
                        washout=self.washout, seed=derive_seed(seed, TAG_TASK, r))

    def output(self, result, workdir: Path) -> Output:
        v = result.value
        error = None
        if not math.isfinite(v):
            error = f"{self.score} is not finite: {v!r}"
        elif self.score == "accuracy" and not 0.0 <= v <= 1.0:
            error = f"accuracy {v!r} outside [0, 1]"
        elif self.score == "nmse" and v < 0.0:
            error = f"negative nmse {v!r}"
        return Output(repr(v), {self.score: v}, error,
                      result.metadata.get("regenerations", 0))


@dataclass(frozen=True)
class MetricsWorkload:
    """``stochtdr metrics`` called in-process through ``cli.main``."""

    name: str
    backend: str
    instances: int = 2
    H: int = 50
    m: int = 50
    runs: int = 2
    alphas: tuple[float, ...] = (0.2, 0.5)
    gamma: float = 2.0
    n: int = 5
    q: int = 8

    HEADER: ClassVar[str] = "alpha,gamma,L,policy,run,kq,gr"
    # calibration kernel with the operations of an ideal-Bernstein step
    kernel: ClassVar[str] = "small_vectors"

    def cli_seed(self, seed: int, r: int) -> int:
        return derive_seed(seed, TAG_TASK, r)

    def config(self, seed: int, r: int = 0) -> TdrConfig:
        return TdrConfig(H=self.H, alpha=self.alphas[0], gamma=self.gamma, n=self.n,
                         q=self.q, master_seed=derive_seed(seed, TAG_MASTER, r),
                         backend=self.backend)

    def node_updates(self) -> int:
        """H x macro steps of one call: per grid point and run, H kernel-quality
        and H generalization-rank probes of m steps each."""
        return self.H * len(self.alphas) * self.runs * 2 * self.H * self.m

    def argv(self, seed: int, r: int, workdir: Path) -> list[str]:
        return ["metrics", "--backend", self.backend, "--H", str(self.H),
                "--m", str(self.m), "--runs", str(self.runs),
                "--alpha-grid", ",".join(repr(a) for a in self.alphas),
                "--gamma", repr(self.gamma), "--degree", str(self.n), "--q", str(self.q),
                "--workers", "1", "--seed", str(self.cli_seed(seed, r)),
                "--out", str(workdir)]

    def call(self, seed: int, r: int, workdir: Path):
        code = cli.main(self.argv(seed, r, workdir))
        if code != 0:
            raise RuntimeError(f"stochtdr metrics exited with code {code}")
        return code

    def output(self, result, workdir: Path) -> Output:
        path = workdir / "metrics.csv"
        data = path.read_bytes()
        path.unlink()  # a later call that writes nothing must not pass on this file
        text = data.decode()
        rows = list(csv.DictReader(io.StringIO(text)))
        runs = [row for row in rows if row["run"] not in ("mean", "std")]
        kq = [float(row["kq"]) for row in runs]
        gr = [float(row["gr"]) for row in runs]
        points = len(self.alphas)
        header = text.split("\n", 1)[0]
        error = None
        if header != self.HEADER:
            error = f"metrics.csv header is {header!r}"
        elif len(rows) != points * (self.runs + 2) or len(runs) != points * self.runs:
            error = (f"metrics.csv has {len(rows)} rows ({len(runs)} per run), "
                     f"expected {points * (self.runs + 2)} ({points * self.runs})")
        elif not all(0 <= v <= self.H and v == int(v) for v in kq + gr):
            error = f"a rank in metrics.csv is outside 0..{self.H}"
        scores = {"kq_mean": sum(kq) / len(kq), "gr_mean": sum(gr) / len(gr)} if runs else {}
        return Output(hashlib.sha256(data).hexdigest(), scores, error)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {wl.name: wl for wl in (
    TaskWorkload("narma-stoch", "narma10", "per-node"),
    TaskWorkload("sinesquare-freerun", "sinesquare", "none"),
    MetricsWorkload("metrics-bernstein", "ideal-bernstein"),
)}


def build_first_reservoir(wl, seed: int):
    """The first reservoir the workload's entry call builds (set-up)."""
    return reservoir.Reservoir(wl.config(seed, 0))

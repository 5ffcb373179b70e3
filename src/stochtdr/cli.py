"""Command-line harness: activation fitting, capacity-metric sweeps,
benchmarks, and raw state-matrix simulation, all emitting tidy CSV.

Every command is deterministic in (resolved config, master seed): rerunning
writes byte-identical CSV, and sweep points are dispatched to workers but
collected in grid order, so the parallelism degree never changes output.
Plotting stays out of process; see the demo scripts for figure rendering.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bernstein import check_fit_size, fit_bernstein_coeffs, transform_activation
from .metrics import metric_study
from .reservoir import Reservoir, TdrConfig, derive_seed, write_states_csv
from .streams import quantize
from .tasks import evaluate_classification, evaluate_regression, write_sequence_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_TAG_MASTER = 0x4D41535445525F31
_TAG_TASK = 0x5441534B5F5F5F32
_TAG_POINT = 0x504F494E545F5F33
_TAG_SIM = 0x53494D5F5F5F5F34


class ConfigError(ValueError):
    """Bad flag, file key, or value; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """Fully resolved invocation: command, reservoir fields, sweep grids."""

    command: str
    task: str | None = None
    H: int = 50
    tau: int | None = None
    alpha: float = 0.2
    gamma: float = 2.0
    L: list[int | None] = field(default_factory=lambda: [1000])
    degree: int = 5
    q: int = 8
    seed: int = 0
    runs: int = 10
    backend: str = "ideal-exact"
    reseed: str = "per-node"
    lam: float = 1e-6
    washout: int = 50
    out: str = "out"
    workers: int = 1
    m: int = 50
    train: int = 1000
    test: int = 1000
    alpha_grid: list[float] | None = None
    gamma_grid: list[float] | None = None
    H_grid: list[int] | None = None
    noise: float = 0.05
    rank_tol: float = 1e-6
    delta_s: float = 2.0
    grid_size: int = 201
    input: str | None = None
    dump_sequences: bool = False

    def file_items(self) -> list[tuple[str, str]]:
        """key = value lines that reparse to this config (see parse_config)."""
        items: list[tuple[str, str]] = []
        for key, val in vars(self).items():
            if key in ("command", "task", "out") or val is None:
                continue
            if isinstance(val, list):
                items.append((key, ",".join("inf" if v is None else repr(v) for v in val)))
            elif isinstance(val, bool):
                items.append((key, "true" if val else "false"))
            elif isinstance(val, float):
                items.append((key, repr(val)))
            else:
                items.append((key, str(val)))
        return items


# ---------------------------------------------------------------------------
# parsing


def _parse_number(token: str, kind, key: str):
    try:
        return kind(token)
    except ValueError:
        raise ConfigError(f"malformed value {token!r} for {key}") from None


def _parse_grid(spec: str, key: str, kind=float) -> list:
    """Grid syntax: 'start:step:stop' (inclusive) or a comma list."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"malformed grid {spec!r} for {key}; want start:step:stop")
        start, step, stop = (_parse_number(p, float, key) for p in parts)
        if step <= 0:
            raise ConfigError(f"grid step must be positive in {key}={spec!r}")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        vals = [round(start + k * step, 12) for k in range(count)]
        return [kind(v) for v in vals]
    return [_parse_number(p, kind, key) for p in spec.split(",") if p.strip()]


def _parse_L_token(token: str) -> int | None:
    token = token.strip().lower()
    if token in ("inf", "infinity", "none"):
        return None
    try:
        return int(float(token)) if "e" in token else int(token)
    except ValueError:
        raise ConfigError(f"malformed value {token!r} for L") from None


_FILE_KEYS = {
    "H": ("H", int), "tau": ("tau", int), "alpha": ("alpha", float),
    "gamma": ("gamma", float), "degree": ("degree", int), "q": ("q", int),
    "seed": ("seed", int), "runs": ("runs", int), "backend": ("backend", str),
    "reseed": ("reseed", str), "lambda": ("lam", float), "lam": ("lam", float),
    "washout": ("washout", int), "workers": ("workers", int), "m": ("m", int),
    "train": ("train", int), "test": ("test", int), "noise": ("noise", float),
    "rank_tol": ("rank_tol", float), "delta_s": ("delta_s", float),
    "grid_size": ("grid_size", int), "input": ("input", str),
    "dump_sequences": ("dump_sequences", bool),
    "L": ("L", "L_list"), "alpha_grid": ("alpha_grid", "fgrid"),
    "gamma_grid": ("gamma_grid", "fgrid"), "H_grid": ("H_grid", "igrid"),
}


def _read_config_file(path: str) -> dict:
    """Flat 'key = value' file with # comments; unknown keys are errors."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        norm = key.replace("-", "_")
        if norm not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        field_name, kind = _FILE_KEYS[norm]
        if kind == "L_list":
            out[field_name] = [_parse_L_token(t) for t in val.split(",")]
        elif kind == "fgrid":
            out[field_name] = _parse_grid(val, key, float)
        elif kind == "igrid":
            out[field_name] = _parse_grid(val, key, int)
        elif kind is bool:
            if val.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"malformed value {val!r} for {key}")
            out[field_name] = val.lower() in ("true", "1")
        else:
            out[field_name] = _parse_number(val, kind, key)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochtdr",
        description="Stochastic-logic time delay reservoir experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--H", type=int)
        p.add_argument("--tau", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--L", action="append", metavar="L",
                       help="stream length; repeat for a sweep; 'inf' for ideal")
        p.add_argument("--degree", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--runs", type=int)
        p.add_argument("--backend",
                       choices=["ideal-exact", "ideal-bernstein", "stochastic"])
        p.add_argument("--reseed", choices=["none", "per-node"])
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--washout", type=int)
        p.add_argument("--out", type=str)
        p.add_argument("--config", type=str)
        p.add_argument("--workers", type=int)

    p_fit = sub.add_parser("fit-activation", help="fit Bernstein coefficients")
    common(p_fit)
    p_fit.add_argument("--delta-s", dest="delta_s", type=float)
    p_fit.add_argument("--grid", dest="grid_size", type=int)

    p_met = sub.add_parser("metrics", help="kernel quality / generalization rank sweep")
    common(p_met)
    p_met.add_argument("--m", type=int)
    p_met.add_argument("--alpha-grid", dest="alpha_grid", type=str)
    p_met.add_argument("--gamma-grid", dest="gamma_grid", type=str)
    p_met.add_argument("--noise", type=float)
    p_met.add_argument("--rank-tol", dest="rank_tol", type=float)

    p_bench = sub.add_parser("bench", help="run a benchmark task")
    p_bench.add_argument("task", choices=["narma10", "sinesquare"])
    common(p_bench)
    p_bench.add_argument("--train", type=int)
    p_bench.add_argument("--test", type=int)
    p_bench.add_argument("--H-grid", dest="H_grid", type=str)
    p_bench.add_argument("--dump-sequences", dest="dump_sequences",
                         action="store_const", const=True)

    p_sim = sub.add_parser("simulate", help="write a raw state matrix")
    common(p_sim)
    p_sim.add_argument("--m", type=int)
    p_sim.add_argument("--input", type=str,
                       help="CSV with a 'u' column to drive the reservoir")
    return parser


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Resolve defaults <- config file <- flags into an ExperimentConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = ExperimentConfig(command=ns.command, task=getattr(ns, "task", None))

    if getattr(ns, "config", None):
        for field_name, value in _read_config_file(ns.config).items():
            setattr(cfg, field_name, value)

    for key, value in vars(ns).items():
        if key in ("command", "task", "config") or value is None:
            continue
        if key == "L":
            cfg.L = [_parse_L_token(t) for t in value]
        elif key == "alpha_grid":
            cfg.alpha_grid = _parse_grid(value, "alpha-grid", float)
        elif key == "gamma_grid":
            cfg.gamma_grid = _parse_grid(value, "gamma-grid", float)
        elif key == "H_grid":
            cfg.H_grid = _parse_grid(value, "H-grid", int)
        else:
            setattr(cfg, key, value)

    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.runs < 1:
        raise ConfigError(f"runs must be >= 1, got {cfg.runs}")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    if not cfg.L:
        raise ConfigError("L sweep list is empty")
    if cfg.backend == "stochastic" and any(l is None for l in cfg.L):
        raise ConfigError("stochastic backend needs finite L (got 'inf')")
    for name in ("alpha_grid", "gamma_grid", "H_grid"):
        grid = getattr(cfg, name)
        if grid is not None and not grid:
            raise ConfigError(f"{name} is empty")
    # a fit or reservoir the run would reject is a config error, not a failure mid-run
    try:
        if cfg.command == "fit-activation":
            transform_activation(cfg.gamma, cfg.delta_s)
            check_fit_size(cfg.degree, cfg.grid_size)
            return
        Hs = cfg.H_grid if cfg.command == "bench" and cfg.H_grid else [cfg.H]
        alphas = cfg.alpha_grid if cfg.command == "metrics" and cfg.alpha_grid else [cfg.alpha]
        for H, alpha, L in itertools.product(Hs, alphas, cfg.L):
            _tdr_config(cfg, H=H, alpha=alpha, L=L).validate()
    except ValueError as e:
        raise ConfigError(str(e)) from None


# ---------------------------------------------------------------------------
# execution


def _tdr_config(cfg: ExperimentConfig, *, H=None, alpha=None, gamma=None,
                L="unset", master_seed=0) -> TdrConfig:
    eff_L = (cfg.L[0] if L == "unset" else L)
    return TdrConfig(
        H=H if H is not None else cfg.H,
        alpha=alpha if alpha is not None else cfg.alpha,
        gamma=gamma if gamma is not None else cfg.gamma,
        tau=cfg.tau,
        L=None if cfg.backend != "stochastic" else eff_L,
        n=cfg.degree, q=cfg.q, master_seed=master_seed,
        reseed_policy=cfg.reseed, backend=cfg.backend)


def _fmt(v) -> str:
    if v is None:
        return "inf"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _metrics_point(args: dict) -> list[str]:
    cfg = ExperimentConfig(**args["cfg"])
    alpha, gamma, L, idx = args["alpha"], args["gamma"], args["L"], args["index"]
    tdr = _tdr_config(cfg, alpha=alpha, gamma=gamma, L=L,
                      master_seed=derive_seed(cfg.seed, _TAG_MASTER, idx))
    result = metric_study(tdr, cfg.m, runs=cfg.runs,
                          seed=derive_seed(cfg.seed, _TAG_POINT, idx),
                          noise_amplitude=cfg.noise, rel_tol=cfg.rank_tol)
    prefix = f"{_fmt(alpha)},{_fmt(gamma)},{_fmt(L)},{cfg.reseed}"
    rows = [f"{prefix},{r},{int(result.kq[r])},{int(result.gr[r])}"
            for r in range(cfg.runs)]
    rows.append(f"{prefix},mean,{_fmt(result.kq_mean)},{_fmt(result.gr_mean)}")
    rows.append(f"{prefix},std,{_fmt(result.kq_std)},{_fmt(result.gr_std)}")
    return rows


def _bench_point(args: dict) -> list[str]:
    cfg = ExperimentConfig(**args["cfg"])
    H, L = args["H"], args["L"]
    evaluate = evaluate_regression if cfg.task == "narma10" else evaluate_classification
    values = []
    for r in range(cfg.runs):
        tdr = _tdr_config(cfg, H=H, L=L,
                          master_seed=derive_seed(cfg.seed, _TAG_MASTER, r))
        res = evaluate(tdr, cfg.train, cfg.test, lam=cfg.lam,
                       washout=cfg.washout, seed=derive_seed(cfg.seed, _TAG_TASK, r))
        values.append(res.value)
    metric = "nmse" if cfg.task == "narma10" else "accuracy"
    prefix = (f"{cfg.task},{cfg.backend},{H},{_fmt(cfg.alpha)},{_fmt(cfg.gamma)},"
              f"{_fmt(L)},{cfg.degree}")
    rows = [f"{prefix},{r},{metric},{_fmt(values[r])}" for r in range(cfg.runs)]
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if cfg.runs > 1 else 0.0
    rows.append(f"{prefix},mean,{metric},{_fmt(mean)}")
    rows.append(f"{prefix},std,{metric},{_fmt(std)}")
    return rows


def _run_points(cfg: ExperimentConfig, worker, tasks: list[dict]) -> list[str]:
    """Dispatch grid points, collect in submission order regardless of workers."""
    if cfg.workers == 1 or len(tasks) == 1:
        batches = [worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            batches = list(pool.map(worker, tasks))
    return [row for batch in batches for row in batch]


def _write_provenance(cfg: ExperimentConfig, out: Path, wall: float,
                      extra: dict) -> None:
    lines = [f"{k} = {v}" for k, v in cfg.file_items()]
    header = [f"# resolved configuration: stochtdr {cfg.command}"
              + (f" {cfg.task}" if cfg.task else "")]
    (out / "config.txt").write_text("\n".join(header + lines) + "\n")
    manifest = {"command": cfg.command, "task": cfg.task, "seed": cfg.seed,
                "version": __version__, "wall_time_s": wall, **extra}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the selected pipeline over its sweep grid; artifacts on disk."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {cfg.out}: {e}") from None
    start = time.time()
    extra: dict = {}

    if cfg.command == "fit-activation":
        spec = fit_bernstein_coeffs(
            transform_activation(cfg.gamma, cfg.delta_s), cfg.degree,
            grid_size=cfg.grid_size,
            source=f"sin(gamma={cfg.gamma}) on delta_s={cfg.delta_s}")
        with open(out / "coefficients.csv", "w", newline="") as fh:
            fh.write("k,beta\n")
            for k, b in enumerate(spec.beta):
                fh.write(f"{k},{b:.12g}\n")
        extra["outputs"] = ["coefficients.csv"]

    elif cfg.command == "metrics":
        alphas = cfg.alpha_grid if cfg.alpha_grid is not None else [cfg.alpha]
        gammas = cfg.gamma_grid if cfg.gamma_grid is not None else [cfg.gamma]
        Ls = cfg.L if cfg.backend == "stochastic" else [None]
        base = vars(cfg).copy()
        tasks = [{"cfg": base, "alpha": a, "gamma": g, "L": l, "index": i}
                 for i, (a, g, l) in enumerate(
                     (a, g, l) for a in alphas for g in gammas for l in Ls)]
        rows = _run_points(cfg, _metrics_point, tasks)
        (out / "metrics.csv").write_text(
            "alpha,gamma,L,policy,run,kq,gr\n" + "\n".join(rows) + "\n")
        extra["outputs"] = ["metrics.csv"]
        extra["grid_points"] = len(tasks)

    elif cfg.command == "bench":
        Hs = cfg.H_grid if cfg.H_grid is not None else [cfg.H]
        Ls = cfg.L if cfg.backend == "stochastic" else [None]
        base = vars(cfg).copy()
        tasks = [{"cfg": base, "H": h, "L": l}
                 for h in Hs for l in Ls]
        rows = _run_points(cfg, _bench_point, tasks)
        (out / "results.csv").write_text(
            "task,backend,H,alpha,gamma,L,n,run,metric,value\n"
            + "\n".join(rows) + "\n")
        extra["outputs"] = ["results.csv"]
        extra["grid_points"] = len(tasks)
        if cfg.dump_sequences:
            from .tasks import narma10_generate, sine_square_generate
            seed0 = derive_seed(cfg.seed, _TAG_TASK, 0)
            if cfg.task == "narma10":
                data = narma10_generate(cfg.train + cfg.test, seed0)
                write_sequence_csv(out / "sequence.csv", data.u, data.y)
            else:
                data = sine_square_generate(cfg.train + cfg.test, seed0)
                write_sequence_csv(out / "sequence.csv", data.signal, data.labels)
            extra["outputs"].append("sequence.csv")

    elif cfg.command == "simulate":
        if cfg.input:
            try:
                table = np.genfromtxt(cfg.input, delimiter=",", names=True)
            except OSError as e:
                raise ConfigError(f"cannot read input file {cfg.input}: {e}") from None
            if table.dtype.names is None or "u" not in table.dtype.names:
                raise ConfigError(f"input file {cfg.input} has no 'u' column")
            u = np.atleast_1d(table["u"]).astype(np.float64)
        else:
            rng = np.random.default_rng(derive_seed(cfg.seed, _TAG_SIM))
            u = rng.uniform(-1.0, 1.0, cfg.m)
        u = quantize(u, cfg.q)
        tdr = _tdr_config(cfg, master_seed=derive_seed(cfg.seed, _TAG_MASTER, 0))
        X = Reservoir(tdr).run(u)
        write_states_csv(out / "states.csv", X)
        with open(out / "inputs.csv", "w", newline="") as fh:
            fh.write("step,u\n")
            for p, v in enumerate(u):
                fh.write(f"{p},{float(v)!r}\n")
        extra["outputs"] = ["states.csv", "inputs.csv"]

    else:  # pragma: no cover - argparse restricts the choices
        raise ConfigError(f"unknown command {cfg.command!r}")

    _write_provenance(cfg, out, time.time() - start, extra)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return run_experiment(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - boundary: report and set exit code
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

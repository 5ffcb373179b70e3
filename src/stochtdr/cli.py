"""Command-line harness: activation fitting, capacity-metric sweeps,
benchmarks, and raw state-matrix simulation, all emitting tidy CSV.

Every option is one ``ExperimentConfig`` field, declared with ``_opt``: its
metadata holds the value parser, the commands whose subparser has the flag,
the flag spelling when it is not ``--<field>``, its config-file keys, and
the argparse extras (choices, help).  The four subparsers, the config-file
key lookup and the ``config.txt`` lines are all generated from those fields,
and flags and file values go through the same value parser.  A config file
(``--config``, flat ``key = value`` lines) may set any option that has a
file key, whichever command reads it; flags override the file.

No other module knows a file format: the library returns arrays,
``_write_csv`` writes all six CSV files and ``_write_provenance`` writes
``config.txt`` and ``manifest.json``.

Every command is deterministic in (resolved config, master seed): rerunning
writes byte-identical CSV, and sweep points are dispatched to workers but
collected in grid order, so the parallelism degree never changes output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bernstein import (DEFAULT_DEGREE, DEFAULT_DELTA_S, check_fit_size, fit_bernstein_coeffs,
                        transform_activation)
from .metrics import (DEFAULT_NOISE_AMPLITUDE, DEFAULT_RANK_TOL, check_probes, check_rank_tol,
                      metric_study)
from .readout import check_lambda
from .reservoir import (BACKENDS, RESEED_POLICIES, Reservoir, TdrConfig, check_run_length,
                        derive_seed)
from .streams import DEFAULT_Q, quantize
from .tasks import (DEFAULT_LAMBDA, DEFAULT_WASHOUT, check_narma_length, check_split,
                    evaluate_classification, evaluate_regression, narma10_generate,
                    sine_square_generate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_TAG_MASTER = 0x4D41535445525F31
_TAG_TASK = 0x5441534B5F5F5F32
_TAG_POINT = 0x504F494E545F5F33
_TAG_SIM = 0x53494D5F5F5F5F34


class ConfigError(ValueError):
    """Bad flag, file key, or value; maps to exit code 2."""


# ---------------------------------------------------------------------------
# value parsers: flag or file text -> value, raising ValueError


def _int(text: str) -> int:
    """An integer literal, or a float literal with an integral value (1e3)."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "0", "1"):
        raise ValueError("want true, false, 0 or 1")
    return text.lower() in ("true", "1")


def _L_list(text: str) -> list[int | None]:
    """Comma list of stream lengths; 'inf' marks the ideal (infinite) limit."""
    return [None if t.strip().lower() in ("inf", "infinity", "none") else _int(t)
            for t in text.split(",")]


def _grid(text: str, kind) -> list:
    """Grid syntax: 'start:step:stop' (inclusive) or a comma list."""
    if ":" not in text:
        return [kind(t) for t in text.split(",") if t.strip()]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("want start:step:stop")
    start, step, stop = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, step, stop))):
        raise ValueError("grid start, step and stop must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [kind(repr(round(start + k * step, 12))) for k in range(count)]


_float_grid = functools.partial(_grid, kind=float)
_int_grid = functools.partial(_grid, kind=_int)


# ---------------------------------------------------------------------------
# the option table


def _fmt(v) -> str:
    """A value as CSV or config-file text; _fmt(None) is the 'inf' of an L list."""
    if v is None:
        return "inf"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


_COMMANDS = {
    "fit-activation": "fit Bernstein coefficients",
    "metrics": "kernel quality / generalization rank sweep",
    "bench": "run a benchmark task",
    "simulate": "write a raw state matrix",
}


def _opt(default, parse, commands=tuple(_COMMANDS), *, flag=None, keys=None, **argparse_kw):
    """An ExperimentConfig field that is also an option.

    ``parse`` turns flag or file text into the value; ``commands`` have the
    flag, spelled ``flag`` or else ``--<field>`` with dashes; ``keys`` are
    the config-file keys, the field name unless given; ``argparse_kw``
    (choices, help, action) goes to ``add_argument``.
    """
    meta = {"parse": parse, "commands": commands, "flag": flag, "keys": keys,
            "argparse": argparse_kw}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """Fully resolved invocation: command, reservoir fields, sweep grids."""

    command: str
    task: str | None = _opt(None, str, ("bench",), flag="task", keys=(),
                            choices=["narma10", "sinesquare"])
    H: int = _opt(50, _int)
    tau: int | None = _opt(None, _int)
    alpha: float = _opt(0.2, float)
    gamma: float = _opt(2.0, float)
    L: list[int | None] = _opt([1000], _L_list, action="append",
                               help="stream length; repeat for a sweep; 'inf' for ideal")
    degree: int = _opt(DEFAULT_DEGREE, _int)
    q: int = _opt(DEFAULT_Q, _int)
    seed: int = _opt(0, _int)
    runs: int = _opt(10, _int)
    backend: str = _opt("ideal-exact", str, choices=BACKENDS)
    reseed: str = _opt("per-node", str, choices=RESEED_POLICIES)
    lam: float = _opt(DEFAULT_LAMBDA, float, flag="--lambda", keys=("lam", "lambda"))
    washout: int = _opt(DEFAULT_WASHOUT, _int)
    out: str = _opt("out", str, keys=())
    workers: int = _opt(1, _int)
    m: int = _opt(50, _int, ("metrics", "simulate"))
    train: int = _opt(1000, _int, ("bench",))
    test: int = _opt(1000, _int, ("bench",))
    alpha_grid: list[float] | None = _opt(None, _float_grid, ("metrics",))
    gamma_grid: list[float] | None = _opt(None, _float_grid, ("metrics",))
    H_grid: list[int] | None = _opt(None, _int_grid, ("bench",))
    noise: float = _opt(DEFAULT_NOISE_AMPLITUDE, float, ("metrics",))
    rank_tol: float = _opt(DEFAULT_RANK_TOL, float, ("metrics",))
    delta_s: float = _opt(DEFAULT_DELTA_S, float, ("fit-activation",))
    grid_size: int | None = _opt(None, _int, ("fit-activation",), flag="--grid")
    input: str | None = _opt(None, str, ("simulate",),
                             help="CSV with a 'u' column to drive the reservoir")
    dump_sequences: bool = _opt(False, _bool, ("bench",), action="store_const", const="true")

    def file_items(self) -> list[tuple[str, str]]:
        """key = value lines that reparse to this config (see parse_config)."""
        items = []
        for f in _OPTIONS:
            val = getattr(self, f.name)
            if _file_keys(f) and val is not None:
                items.append((f.name, ",".join(map(_fmt, val)) if isinstance(val, list)
                              else _fmt(val)))
        return items


_OPTIONS = [f for f in fields(ExperimentConfig) if f.metadata]


def _flag(f) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def _file_keys(f) -> tuple[str, ...]:
    keys = f.metadata["keys"]
    return (f.name,) if keys is None else keys


_BY_FILE_KEY = {key: f for f in _OPTIONS for key in _file_keys(f)}


# ---------------------------------------------------------------------------
# parsing


def _parse_value(f, key: str, text: str):
    """Flag or file text -> the value of option ``f``; ``key`` names it in errors."""
    try:
        value = f.metadata["parse"](text)
    except ValueError as e:
        raise ConfigError(f"malformed value {text!r} for {key}: {e}") from None
    choices = f.metadata["argparse"].get("choices")
    if choices and value not in choices:
        raise ConfigError(f"invalid value {text!r} for {key}; choose from {', '.join(choices)}")
    return value


def _read_config_file(path: str) -> dict:
    """Flat 'key = value' file with # comments; unknown keys are errors."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        f = _BY_FILE_KEY.get(key.replace("-", "_"))
        if f is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[f.name] = _parse_value(f, key, val)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochtdr",
        description="Stochastic-logic time delay reservoir experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for f in _OPTIONS:
            if command in f.metadata["commands"]:
                flag = _flag(f)
                dest = {"dest": f.name} if flag.startswith("-") else {}
                p.add_argument(flag, **dest, **f.metadata["argparse"])
        p.add_argument("--config", help="'key = value' file; flags override it")
    return parser


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Resolve defaults <- config file <- flags into an ExperimentConfig."""
    ns = _build_parser().parse_args(argv)
    cfg = ExperimentConfig(command=ns.command)
    if ns.config:
        for name, value in _read_config_file(ns.config).items():
            setattr(cfg, name, value)
    for f in _OPTIONS:
        text = getattr(ns, f.name, None)
        if text is not None:
            if isinstance(text, list):  # a repeated flag (--L) extends one comma list
                text = ",".join(text)
            setattr(cfg, f.name, _parse_value(f, _flag(f).lstrip("-"), text))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.runs < 1:
        raise ConfigError(f"runs must be >= 1, got {cfg.runs}")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    for name in ("alpha_grid", "gamma_grid", "H_grid"):
        if getattr(cfg, name) == []:
            raise ConfigError(f"{name} is empty")
    # a value the run would reject is a config error, not a failure mid-run
    try:
        if cfg.command == "fit-activation":
            transform_activation(cfg.gamma, cfg.delta_s)
            check_fit_size(cfg.degree, cfg.grid_size)
        elif cfg.command == "metrics":
            check_probes(cfg.m, cfg.noise)
            check_rank_tol(cfg.rank_tol)
        elif cfg.command == "bench":
            check_split(cfg.train, cfg.test, cfg.washout)
            check_lambda(cfg.lam)
            if cfg.task == "narma10":
                check_narma_length(cfg.train + cfg.test)
        elif cfg.command == "simulate" and cfg.input is None:
            check_run_length(cfg.m)
        points = _sweep(cfg)
        for point in points:
            _tdr_config(cfg, point).validate()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if cfg.command == "simulate" and len(points) > 1:
        Ls = ",".join(map(_fmt, cfg.L))
        raise ConfigError(f"simulate takes one stream length, got L = {Ls}")


# ---------------------------------------------------------------------------
# execution


def _sweep(cfg: ExperimentConfig) -> list[dict]:
    """The run's reservoir grid points in output order, as TdrConfig overrides.

    metrics sweeps alpha x gamma x L and bench H x L; simulate takes one L.
    L is swept on the stochastic backend only.
    Validation walks the same list that run_experiment dispatches.
    """
    Ls = cfg.L if cfg.backend == "stochastic" else [None]
    if cfg.command == "metrics":
        return [{"alpha": a, "gamma": g, "L": l} for a in cfg.alpha_grid or [cfg.alpha]
                for g in cfg.gamma_grid or [cfg.gamma] for l in Ls]
    if cfg.command == "bench":
        return [{"H": h, "L": l} for h in cfg.H_grid or [cfg.H] for l in Ls]
    if cfg.command == "simulate":
        return [{"L": l} for l in Ls]
    return []


def _tdr_config(cfg: ExperimentConfig, point: dict, master_seed: int = 0) -> TdrConfig:
    """The reservoir of one sweep point: the point's values over cfg's."""
    return TdrConfig(**{"H": cfg.H, "alpha": cfg.alpha, "gamma": cfg.gamma, **point},
                     tau=cfg.tau, n=cfg.degree, q=cfg.q, master_seed=master_seed,
                     reseed_policy=cfg.reseed, backend=cfg.backend)


def _summary(values) -> tuple[float, float]:
    """Mean and sample standard deviation of a point's per-run values (std 0 for one run)."""
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), std


def _metrics_point(args: dict) -> list[list]:
    cfg = ExperimentConfig(**args["cfg"])
    idx = args["index"]
    tdr = _tdr_config(cfg, args["point"], derive_seed(cfg.seed, _TAG_MASTER, idx))
    result = metric_study(tdr, cfg.m, runs=cfg.runs,
                          seed=derive_seed(cfg.seed, _TAG_POINT, idx),
                          noise_amplitude=cfg.noise, rel_tol=cfg.rank_tol)
    prefix = [tdr.alpha, tdr.gamma, tdr.L, cfg.reseed]
    rows = [[*prefix, r, int(result.kq[r]), int(result.gr[r])] for r in range(cfg.runs)]
    mean, std = zip(_summary(result.kq), _summary(result.gr))  # (kq, gr) each
    return rows + [[*prefix, "mean", *mean], [*prefix, "std", *std]]


def _bench_point(args: dict) -> list[list]:
    cfg = ExperimentConfig(**args["cfg"])
    evaluate = evaluate_regression if cfg.task == "narma10" else evaluate_classification
    values = []
    for r in range(cfg.runs):
        tdr = _tdr_config(cfg, args["point"], derive_seed(cfg.seed, _TAG_MASTER, r))
        res = evaluate(tdr, cfg.train, cfg.test, lam=cfg.lam,
                       washout=cfg.washout, seed=derive_seed(cfg.seed, _TAG_TASK, r))
        values.append(res.value)
    prefix = [cfg.task, cfg.backend, tdr.H, cfg.alpha, cfg.gamma, tdr.L, cfg.degree]
    rows = [[*prefix, r, res.metric, values[r]] for r in range(cfg.runs)]
    mean, std = _summary(values)
    return rows + [[*prefix, "mean", res.metric, mean], [*prefix, "std", res.metric, std]]


def _run_points(cfg: ExperimentConfig, worker, tasks: list[dict]) -> list[list]:
    """Dispatch grid points, collect in submission order regardless of workers."""
    if cfg.workers == 1 or len(tasks) == 1:
        batches = [worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            batches = list(pool.map(worker, tasks))
    return [row for batch in batches for row in batch]


def _write_csv(path: Path, header: str, rows) -> None:
    """The header line, then one line per row: its values as _fmt text."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _simulate_input(cfg: ExperimentConfig) -> np.ndarray:
    """simulate's drive on the width-q grid: m seeded uniform draws, or the 'u'
    column of ``cfg.input``, which needs one or more values, all in [-1, 1]."""
    if cfg.input is None:
        rng = np.random.default_rng(derive_seed(cfg.seed, _TAG_SIM))
        return quantize(rng.uniform(-1.0, 1.0, cfg.m), cfg.q)
    try:
        with warnings.catch_warnings():  # the error below names an empty file
            warnings.simplefilter("ignore")
            table = np.genfromtxt(cfg.input, delimiter=",", names=True)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read input file {cfg.input}: {e}") from None
    except IndexError:  # genfromtxt finds no header line
        raise ConfigError(f"input file {cfg.input} has no header line") from None
    if table.dtype.names is None or "u" not in table.dtype.names:
        raise ConfigError(f"input file {cfg.input} has no 'u' column")
    u = np.atleast_1d(table["u"]).astype(np.float64)
    if u.size == 0:
        raise ConfigError(f"input file {cfg.input} has no rows")
    bad = np.flatnonzero(~(np.abs(u) <= 1.0))  # NaN compares false
    if bad.size:
        raise ConfigError(f"input file {cfg.input}: u = {float(u[bad[0]])!r} at step {bad[0]} "
                          "is not a number in [-1, 1]")
    return quantize(u, cfg.q)


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
    u = _simulate_input(cfg) if cfg.command == "simulate" else None  # before any output
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {cfg.out}: {e}") from None
    start = time.time()
    extra: dict = {}

    if cfg.command == "fit-activation":
        spec = fit_bernstein_coeffs(transform_activation(cfg.gamma, cfg.delta_s),
                                    cfg.degree, grid_size=cfg.grid_size)
        _write_csv(out / "coefficients.csv", "k,beta",
                   ([k, f"{b:.12g}"] for k, b in enumerate(spec.beta)))
        extra["outputs"] = ["coefficients.csv"]

    elif cfg.command in ("metrics", "bench"):
        points = _sweep(cfg)
        base = vars(cfg).copy()
        tasks = [{"cfg": base, "point": p, "index": i} for i, p in enumerate(points)]
        if cfg.command == "metrics":
            name, header = "metrics.csv", "alpha,gamma,L,policy,run,kq,gr"
            rows = _run_points(cfg, _metrics_point, tasks)
        else:
            name, header = "results.csv", "task,backend,H,alpha,gamma,L,n,run,metric,value"
            rows = _run_points(cfg, _bench_point, tasks)
        _write_csv(out / name, header, rows)
        extra["outputs"] = [name]
        extra["grid_points"] = len(points)
        if cfg.command == "bench" and cfg.dump_sequences:
            seed0 = derive_seed(cfg.seed, _TAG_TASK, 0)
            if cfg.task == "narma10":
                data = narma10_generate(cfg.train + cfg.test, seed0)
                seq = np.column_stack([data.u, data.y])
            else:
                data = sine_square_generate(cfg.train + cfg.test, seed0)
                seq = np.column_stack([data.signal, data.labels])
            _write_csv(out / "sequence.csv", "step,u,y",
                       ([p, *row] for p, row in enumerate(seq.tolist())))
            extra["outputs"].append("sequence.csv")

    elif cfg.command == "simulate":
        tdr = _tdr_config(cfg, _sweep(cfg)[0], derive_seed(cfg.seed, _TAG_MASTER, 0))
        X = Reservoir(tdr).run(u)
        _write_csv(out / "states.csv", ",".join(["step"] + [f"x{i + 1}" for i in range(tdr.H)]),
                   ([p, *x] for p, x in enumerate(X.tolist())))
        _write_csv(out / "inputs.csv", "step,u", enumerate(u.tolist()))
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

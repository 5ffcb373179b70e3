"""The command line: exit codes for rejected configurations and input files,
the option table behind flags, config-file keys and config.txt, and the
CSV formats it writes."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from stochtdr import cli, tasks
from stochtdr.reservoir import BACKENDS, Reservoir, TdrConfig, derive_seed
from stochtdr.streams import quantize
from stochtdr.tasks import narma10_generate, sine_square_generate


# flags that keep each run small, only of those its command reads; a case's
# own flags come after them, so they override these
SMALL_RUN = {"fit-activation": [], "simulate": ["--H", "4"],
             "metrics": ["--H", "4", "--runs", "1"], "bench": ["--H", "4", "--runs", "1"]}


@pytest.mark.parametrize("argv", [
    ["bench", "narma10", "--backend", "stochastic", "--L", "0"],
    ["bench", "narma10", "--backend", "stochastic", "--L", "3", "--degree", "5"],
    ["bench", "sinesquare", "--H-grid", "4,0"],
    ["metrics", "--alpha-grid", "0.2,1.5"],
    ["simulate", "--q", "99"],
    ["fit-activation", "--degree", "0"],
    ["fit-activation", "--degree", "3", "--grid", "5"],
    ["metrics", "--L", "2.5e0"],
    ["bench", "sinesquare", "--H-grid", "2:1.5:5"],
    ["fit-activation", "--config", "backend = bogus"],  # the fit reads no backend key
    ["bench", "sinesquare", "--lambda", "nan"],
    ["bench", "narma10", "--lambda", "-1"],
    ["metrics", "--rank-tol", "nan"],
    ["metrics", "--rank-tol", "-1"],
    ["metrics", "--gamma", "nan"],
    ["bench", "narma10", "--gamma", "inf"],
    ["simulate", "--gamma=-inf"],
    ["metrics", "--noise", "nan"],
    ["metrics", "--noise", "-0.1"],
    ["bench", "sinesquare", "--washout", "-1"],
    ["bench", "sinesquare", "--train", "10"],  # shorter than the default washout 50 + 2
    ["metrics", "--m", "0"],
    ["fit-activation", "--gamma", "1e308"],  # 2 gamma overflows: every sine would be NaN
    ["fit-activation", "--gamma", "inf"],
    ["simulate", "--backend", "stochastic", "--L", "16", "--L", "32"],
    ["bench", "narma10", "--train", "8", "--test", "8", "--washout", "0"],  # NARMA needs 20
    ["simulate", "--m", "0"],
    ["metrics", "--alpha-grid", "0:0.1:inf"],  # an unbounded grid
    ["bench", "narma10", "--H-grid", "4:1:inf"],
    ["metrics", "--alpha-grid", "0:inf:1"],
    ["metrics", "--config", "gamma_grid = -inf:1:0"],
    ["metrics", "--alpha-grid", "0:1e-300:1"],  # about 1e300 points
    ["bench", "narma10", "--H-grid", "1:1:1e12"],
    ["fit-activation", "--degree", "1030"],  # C(1030, 515) is past the float range
    ["metrics", "--backend", "ideal-bernstein", "--degree", "1030"],
    ["fit-activation", "--degree", "1000000000"],  # rejected before any grid is built
    # a stochastic node runs 7 + n LFSR roles, each on its own tap mask: q <= 6
    # has at most 6 masks, and q >= 7 has 16
    *[["simulate", "--backend", "stochastic", "--L", "16", "--q", str(q)] for q in range(2, 7)],
    ["metrics", "--backend", "stochastic", "--L", "16", "--degree", "10"],
    # at lambda = 0 fewer than H + 1 training rows past the washout leave the
    # Gram matrix singular: 4 rows for H = 4, and 6 rows for the H = 8 point
    ["bench", "narma10", "--lambda", "0", "--train", "54"],
    ["bench", "sinesquare", "--lambda", "0", "--H-grid", "2,8", "--train", "56"],
    # a subnormal gamma: sin(gamma * s) and f_max would keep about 10 bits
    ["fit-activation", "--gamma", "1e-320"],
    ["simulate", "--backend", "ideal-exact", "--gamma", "1e-320", "--m", "3"],
    *[["simulate", "--backend", backend, "--gamma", "1e308", "--m", "3"]
      for backend in ("ideal-exact", "ideal-bernstein")],
    ["simulate", "--backend", "stochastic", "--L", "16", "--gamma", "1e308", "--m", "3"],
    ["metrics", "--noise", "1e308", "--m", "3"],  # the noise draw spans 2e308
    ["metrics", "--runs", "0"],
    ["metrics", "--workers", "0"],
    ["metrics", "--alpha-grid", ","],
    ["metrics", "--alpha-grid", "5:1:3"],  # stop below start: no points
    ["metrics", "--alpha-grid", "0:0:1"],
    ["metrics", "--alpha-grid", "1:2"],
    ["simulate", "--tau", "3", "--H", "4"],
    ["bench", "narma10", "--config", "dump_sequences = maybe"],
    ["simulate", "--config", "H 4"],
    ["metrics", "--config", "bogus = 1"],
    # a key set twice, under one spelling or under the removed alias of lambda
    ["simulate", "--config", "H = 4\nH = 6"],
    ["bench", "narma10", "--config", "lam = 1\nlambda = 0.5"],
    ["simulate", "--backend", "ideal-bernstein", "--gamma=-1e-320", "--m", "3"],
    # ideal-exact reads no stream length, not even one that stochastic rejects
    ["simulate", "--L", "0", "--H", "4", "--m", "3"],
    ["simulate", "--backend", "stochastic", "--L", "16", "--gamma", "5e-324", "--m", "3"],
])
def test_reservoir_config_errors_exit_2(tmp_path, capsys, argv):
    if "--config" in argv:  # the value after --config is the file's text
        i = argv.index("--config") + 1
        path = tmp_path / "config.txt"
        path.write_text(argv[i] + "\n")
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    out = tmp_path / "out"
    code = cli.main([argv[0], *SMALL_RUN[argv[0]], *argv[1:], "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# a small run of each command that reads a seed
SEEDED_RUNS = {"simulate": ["simulate", "--H", "3", "--m", "4"],
               "metrics": ["metrics", "--H", "3", "--m", "4", "--runs", "1"],
               "bench": ["bench", "sinesquare", "--H", "3", "--runs", "1", "--train", "30",
                         "--test", "20", "--washout", "5"]}


@pytest.mark.parametrize("by", ["flag", "key"])
@pytest.mark.parametrize("command", SEEDED_RUNS)
@pytest.mark.parametrize("seed", [str(-1), str(1 << 64), "1e30"])
def test_a_seed_outside_64_bits_exits_2(tmp_path, capsys, by, command, seed):
    # seeds are hashed mod 2^64: 2^64 would run the states of 0, and -1 those of 2^64 - 1
    out = tmp_path / "out"
    if by == "flag":
        argv = [*SEEDED_RUNS[command], f"--seed={seed}"]
    else:
        (tmp_path / "seed.txt").write_text(f"seed = {seed}\n")
        argv = [*SEEDED_RUNS[command], "--config", str(tmp_path / "seed.txt")]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: seed must be in [0, 2^64)")
    assert not out.exists()


@pytest.mark.parametrize("command", SEEDED_RUNS)
def test_the_seed_range_ends_are_accepted(tmp_path, command):
    outputs = []
    for seed in (0, (1 << 64) - 1):
        out = tmp_path / str(seed)
        argv = [*SEEDED_RUNS[command], "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed
        outputs.append(b"".join(p.read_bytes() for p in sorted(out.glob("*.csv"))))
    if command == "simulate":  # the ranks of metrics, or an accuracy, may coincide
        assert outputs[0] != outputs[1]


def test_a_library_failure_mid_run_exits_3(tmp_path, monkeypatch, capsys):
    def fit(*args, **kwargs):
        raise RuntimeError("the fit failed")

    monkeypatch.setattr(cli, "fit_bernstein_coeffs", fit)
    assert cli.main(["fit-activation", "--out", str(tmp_path)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("runtime error: the fit failed")


@pytest.mark.parametrize("grid", ["0:0.1:inf", "0:inf:1", "nan:1:2", "-inf:1:0"])
def test_a_non_finite_grid_bound_names_the_option(tmp_path, capsys, grid):
    path = tmp_path / "config.txt"
    path.write_text(f"alpha_grid = {grid}\n")
    for argv, name in ((f"--alpha-grid={grid}", "alpha-grid"), (f"--config={path}", "alpha_grid")):
        assert cli.main(["metrics", argv, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert f"for {name}: grid start, step and stop must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (["metrics", "--alpha-grid", "0:1e-300:1"], "alpha-grid"),
    (["metrics", "--gamma-grid", "0:1e-320:1e300"], "gamma-grid"),  # (stop - start) / step = inf
    (["bench", "narma10", "--H-grid", "1:1:1e12"], "H-grid"),
])
def test_a_huge_grid_names_the_option(tmp_path, capsys, argv, name):
    # the point count is checked before any point is built
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert f"for {name}: grid has about" in capsys.readouterr().err


def test_a_grid_may_have_max_grid_points():
    assert len(cli._float_grid(f"0:1:{cli.MAX_GRID_POINTS - 1}")) == cli.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="more than"):
        cli._float_grid(f"0:1:{cli.MAX_GRID_POINTS}")


@pytest.mark.parametrize("grid", [",", ",,", "5:1:3", "1:1:0"])
def test_a_grid_has_one_point_or_more(tmp_path, capsys, grid):
    assert cli._float_grid("1:1:1") == [1.0]
    with pytest.raises(ValueError, match="the grid has no points"):
        cli._float_grid(grid)
    # named as the user spelled the option, by flag or by key
    path = tmp_path / "config.txt"
    path.write_text(f"alpha_grid = {grid}\n")
    for argv, name in ((f"--alpha-grid={grid}", "alpha-grid"), (f"--config={path}", "alpha_grid")):
        assert cli.main(["metrics", argv, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert f"malformed value {grid!r} for {name}: the grid has no points" in (
            capsys.readouterr().err)


def test_a_config_file_with_a_utf8_byte_order_mark_is_read(tmp_path):
    path = tmp_path / "config.txt"
    path.write_bytes(b"\xef\xbb\xbfH = 4\n")
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--m", "3", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert "H = 4" in (out / "config.txt").read_text().splitlines()


def test_a_config_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_bytes(b"\xff\xfeH = 4\n")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}")
    assert not (tmp_path / "out").exists()


def test_a_config_file_value_outside_the_choices_exits_2(tmp_path, capsys):
    # argparse checks the choices of a flag; a file's value meets the same
    # choices in cli._parse_value
    path = tmp_path / "config.txt"
    path.write_text("backend = foo\n")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: invalid value 'foo' for backend; "
                                       f"choose from {', '.join(BACKENDS)}\n")
    assert not (tmp_path / "out").exists()


def test_fit_activation_derives_its_grid_size(tmp_path):
    def coefficients(*argv):
        out = tmp_path / "-".join(argv)
        assert cli.main(["fit-activation", *argv, "--out", str(out)]) == cli.EXIT_OK
        return (out / "coefficients.csv").read_bytes()

    # max(10(n+1), 201) points: 210 at degree 20, 201 (the old fixed size) at 5
    assert coefficients("--degree", "20") == coefficients("--degree", "20", "--grid", "210")
    assert coefficients("--degree", "5") == coefficients("--degree", "5", "--grid", "201")


# one run of each command, with values away from the defaults
RUNS = {
    "fit-activation": ["fit-activation", "--degree", "4", "--gamma", "0.9375", "--grid", "120"],
    "metrics": ["metrics", "--backend", "stochastic", "--L", "8", "--L", "12", "--reseed", "none",
                "--H", "4", "--m", "6", "--runs", "2", "--alpha-grid", "0.1:0.2:0.3",
                "--gamma-grid", "1.0,2.5", "--noise", "0.1", "--rank-tol", "1e-5", "--q", "7"],
    "bench": ["bench", "narma10", "--H-grid", "4,5", "--tau", "7", "--train", "40", "--test", "40",
              "--washout", "5", "--lambda", "0.001", "--runs", "2", "--seed", "3",
              "--dump-sequences"],
    "simulate": ["simulate", "--backend", "ideal-bernstein", "--H", "4", "--m", "9",
                 "--degree", "3", "--alpha", "0.4"],
}


@pytest.mark.parametrize("command", list(RUNS))
def test_config_txt_parses_back_to_the_same_config(tmp_path, command):
    out = str(tmp_path / "out")
    argv = RUNS[command] + ["--out", out]
    assert cli.main(argv) == cli.EXIT_OK
    task = argv[1:2] if command == "bench" else []
    again = cli.parse_config([command, *task, "--config", f"{out}/config.txt", "--out", out])
    assert again == cli.parse_config(argv)


# flag/file text per value parser, and per option where that would not do: q
# is a register width, 2..16, and a stochastic node of degree n runs 7 + n
# LFSR roles, at most 16 at q = 8; simulate takes one stream length
SAMPLES = {cli._int: "64", float: "0.375", str: "x.csv", cli._bool: "true",
           cli._L_list: "64", cli._float_grid: "0.1:0.2:0.5", cli._int_grid: "64,80"}
SPECIAL_SAMPLES = {"q": "12", "degree": "7"}
NO_FILE_KEY = {"out", "task"}


@pytest.mark.parametrize("f", cli._OPTIONS, ids=lambda f: f.name)
def test_every_option_parses_alike_from_flag_and_file(tmp_path, f):
    keys = {key for table in cli._FILE_KEYS.values() for key, g in table.items() if g is f}
    if f.name in NO_FILE_KEY:
        assert not keys
        return
    assert len(keys) == 1, f"option {f.name} has no config-file key, or more than one"
    key = keys.pop()
    meta = f.metadata
    choices = [c for c in meta["argparse"].get("choices", []) if c != f.default]
    text = choices[0] if choices else SPECIAL_SAMPLES.get(f.name) or SAMPLES[meta["parse"]]
    flag = [cli._flag(f)] if meta["parse"] is cli._bool else [cli._flag(f), text]
    for command in meta["commands"]:
        assert cli._FILE_KEYS[command][key] is f
        task = ["narma10"] if command == "bench" else []
        # the default ideal-exact backend reads no L, degree or reseed
        if command != "fit-activation" and "ideal-exact" not in meta["backends"]:
            task += ["--backend", "stochastic"]
        from_flag = cli.parse_config([command, *task, *flag])
        assert getattr(from_flag, f.name) != getattr(cli.ExperimentConfig(command), f.name)
        for spelling in {key, key.replace("_", "-")}:  # '-' and '_' are alike in a key
            path = tmp_path / f"{spelling}.txt"
            path.write_text(f"{spelling} = {text}\n")
            assert cli.parse_config([command, *task, "--config", str(path)]) == from_flag


def test_flags_and_file_keys_stay_the_same():
    """Adding or dropping one changes the command-line interface."""
    flags = {cli._flag(f) for f in cli._OPTIONS}
    assert flags == {"task", "--H", "--tau", "--alpha", "--gamma", "--L", "--degree", "--q",
                     "--seed", "--runs", "--backend", "--reseed", "--lambda", "--washout",
                     "--out", "--workers", "--m", "--train", "--test", "--alpha-grid",
                     "--gamma-grid", "--H-grid", "--noise", "--rank-tol", "--grid",
                     "--input", "--dump-sequences"}
    # a key is its flag without the dashes, '_' for '-'; task and --out have none
    keys = {key for table in cli._FILE_KEYS.values() for key in table}
    assert keys == {flag.lstrip("-").replace("-", "_") for flag in flags} - NO_FILE_KEY


# each command's flags: those of the options it reads, 55 in all; the three
# commands that build reservoirs share these
_RESERVOIR_FLAGS = {"--H", "--tau", "--alpha", "--gamma", "--L", "--degree", "--q", "--seed",
                    "--backend", "--reseed", "--out"}
COMMAND_FLAGS = {
    "fit-activation": {"--gamma", "--degree", "--grid", "--out"},
    "simulate": _RESERVOIR_FLAGS | {"--m", "--input"},
    "metrics": _RESERVOIR_FLAGS | {"--m", "--runs", "--workers", "--alpha-grid", "--gamma-grid",
                                   "--noise", "--rank-tol"},
    "bench": _RESERVOIR_FLAGS | {"task", "--runs", "--workers", "--lambda", "--washout",
                                 "--train", "--test", "--H-grid", "--dump-sequences"},
}


# each command's config-file keys: those of the options it reads but task and
# --out, 50 in all
_RESERVOIR_KEYS = {"H", "tau", "alpha", "gamma", "L", "degree", "q", "seed", "backend", "reseed"}
COMMAND_KEYS = {
    "fit-activation": {"gamma", "degree", "grid"},
    "simulate": _RESERVOIR_KEYS | {"m", "input"},
    "metrics": _RESERVOIR_KEYS | {"m", "runs", "workers", "alpha_grid", "gamma_grid", "noise",
                                  "rank_tol"},
    "bench": _RESERVOIR_KEYS | {"runs", "workers", "lambda", "washout", "train", "test",
                                "H_grid", "dump_sequences"},
}


def test_each_command_has_the_flags_it_reads():
    """Adding a flag to a command, or dropping one, changes the command-line interface."""
    table = {command: {cli._flag(f) for f in cli._OPTIONS if command in f.metadata["commands"]}
             for command in cli._COMMANDS}
    assert table == COMMAND_FLAGS
    assert sum(map(len, table.values())) == 55


def test_each_command_has_the_file_keys_it_reads():
    """Adding a key to a command, or dropping one, changes the config-file format."""
    table = {command: set(keys) for command, keys in cli._FILE_KEYS.items()}
    assert table == COMMAND_KEYS
    assert sum(map(len, table.values())) == 50
    for command, keys in COMMAND_KEYS.items():  # each key is its flag's name
        flags = {"--" + key.replace("_", "-") for key in keys}
        assert flags == COMMAND_FLAGS[command] - {"task", "--out"}


# the keys of the reservoir commands that each backend does not read: L and
# reseed set up bit streams, and degree the Bernstein fit
UNREAD_BY_BACKEND = {"ideal-exact": {"L", "degree", "reseed"}, "ideal-bernstein": {"L", "reseed"},
                     "stochastic": set()}
_RESERVOIR_COMMANDS = ("simulate", "metrics", "bench")
BACKEND_KEYS = {(command, backend): COMMAND_KEYS[command] - unread
                for command in _RESERVOIR_COMMANDS for backend, unread in UNREAD_BY_BACKEND.items()}


def test_each_backend_has_the_file_keys_it_reads():
    """A run on a backend reads its command's keys but those of UNREAD_BY_BACKEND."""
    def read(command, backend):
        cfg = cli.ExperimentConfig(command, backend=backend)
        return {key for key, f in cli._FILE_KEYS[command].items() if not cli._unread(cfg, f)}

    table = {(c, b): read(c, b) for c in _RESERVOIR_COMMANDS for b in BACKENDS}
    assert table == BACKEND_KEYS
    assert sum(map(len, table.values())) == 126  # of 141 (command, backend, key) triples


# each command's config.txt keys, in order, at the defaults on the stochastic
# backend: no line for an option that is unset (tau, grid, the sweep grids,
# input), nor, on the ideal backends, for the keys of UNREAD_BY_BACKEND
CONFIG_TXT_KEYS = {
    "fit-activation": ["gamma", "degree"],
    "metrics": ["H", "alpha", "gamma", "L", "degree", "q", "seed", "runs", "backend", "reseed",
                "workers", "m", "noise", "rank_tol"],
    "bench": ["H", "alpha", "gamma", "L", "degree", "q", "seed", "runs", "backend", "reseed",
              "lambda", "washout", "workers", "train", "test", "dump_sequences"],
    "simulate": ["H", "alpha", "gamma", "L", "degree", "q", "seed", "backend", "reseed", "m"],
}


@pytest.mark.parametrize("command,backend", [
    ("fit-activation", None), *((c, b) for c in _RESERVOIR_COMMANDS for b in BACKENDS)])
def test_config_txt_lists_only_the_command_keys(tmp_path, command, backend):
    # SMALL_RUN, the backend and a short stream set values only, of keys
    # that are written at the defaults too
    task = ["sinesquare"] if command == "bench" else []
    on = [] if backend is None else ["--backend", backend]
    on += ["--L", "16"] if backend == "stochastic" else []
    argv = [command, *task, *on, *SMALL_RUN[command], "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    lines = (tmp_path / "config.txt").read_text().splitlines()
    assert lines[0] == f"# resolved configuration: stochtdr {' '.join([command, *task])}"
    unread = UNREAD_BY_BACKEND.get(backend, set())
    assert [line.split(" = ")[0] for line in lines[1:]] == [
        key for key in CONFIG_TXT_KEYS[command] if key not in unread]


# a value for each flag below that the commands reading it would accept; 1 for the rest
UNREAD_VALUES = {"--H": "4", "--workers": "2", "--lambda": "0.1"}
# flags that no command reads any more: --delta-s D was --gamma gamma*D/2
REMOVED_FLAGS = {"--delta-s"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in COMMAND_FLAGS.items()
    for flag in sorted(set.union(*COMMAND_FLAGS.values()) - flags - {"task"} | REMOVED_FLAGS)])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    # e.g. fit-activation --H 4, simulate --workers 2 and metrics --lambda 0.1
    out = tmp_path / "out"
    task = ["narma10"] if command == "bench" else []
    argv = [command, *task, flag, UNREAD_VALUES.get(flag, "1"), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
    assert not out.exists()


# a value for each key below that the commands reading it would accept; 1 for the rest
UNREAD_KEY_VALUES = {"H": "4", "workers": "2", "lambda": "0.1", "backend": "stochastic",
                     "reseed": "none"}
# keys that no command reads any more: lam and grid_size are now lambda and
# grid, their flags' names, and delta_s went with --delta-s
REMOVED_KEYS = {"lam", "grid_size", "delta_s"}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, keys in COMMAND_KEYS.items()
    for key in sorted(set.union(*COMMAND_KEYS.values()) - keys | REMOVED_KEYS)])
def test_a_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, key):
    # e.g. fit-activation with H = 4, simulate with workers = 2, metrics with lambda = 0.1
    path = tmp_path / "config.txt"
    path.write_text(f"# a file of another command\n{key} = {UNREAD_KEY_VALUES.get(key, '1')}\n")
    out = tmp_path / "out"
    task = ["narma10"] if command == "bench" else []
    assert cli.main([command, *task, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"error: {path}:2: {command} reads no config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# a value for each key below that the backends reading it would accept
UNREAD_BACKEND_VALUES = {"L": "64", "degree": "3", "reseed": "none"}


@pytest.mark.parametrize("by", ["flag", "key"])
@pytest.mark.parametrize("command,backend,key", [
    (command, backend, key) for command in _RESERVOIR_COMMANDS
    for backend, unread in UNREAD_BY_BACKEND.items() for key in sorted(unread)])
def test_an_option_the_backend_does_not_read_exits_2(tmp_path, capsys, by, command, backend, key):
    # e.g. simulate --L 64 on ideal-exact, which would run without streams
    argv = [command, *(["narma10"] if command == "bench" else []), "--backend", backend]
    value = UNREAD_BACKEND_VALUES[key]
    if by == "flag":
        argv += ["--" + key, value]
    else:
        (tmp_path / "config.txt").write_text(f"{key} = {value}\n")
        argv += ["--config", str(tmp_path / "config.txt")]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert f"error: {command} reads no {key} on the {backend} backend" in capsys.readouterr().err
    assert not out.exists()


# the options that another option replaces, each with a value, and the
# replacing one with a value
REPLACED = [("bench", "H", "4", "H-grid", "4,5"), ("metrics", "alpha", "0.3", "alpha-grid", "0.2"),
            ("metrics", "gamma", "1.5", "gamma-grid", "1,2"), ("simulate", "m", "7", "input", None)]


@pytest.mark.parametrize("by", ["flag", "key"])
@pytest.mark.parametrize("command,name,value,over,over_value", REPLACED,
                         ids=[f"{name}-{over}" for _, name, _, over, _ in REPLACED])
def test_an_option_that_another_replaces_exits_2(tmp_path, capsys, by, command, name, value,
                                                   over, over_value):
    # e.g. bench --H 7 --H-grid 4 would run H = 4 and record H = 7
    if over_value is None:  # a 3-step input file
        over_value = str(tmp_path / "u.csv")
        Path(over_value).write_text("u\n0.5\n0\n-0.5\n")
    task = ["sinesquare"] if command == "bench" else []
    cli.parse_config([command, *task, "--" + over, over_value])  # alone, it is read
    argv = [command, *task]
    if by == "flag":
        argv += ["--" + name, value, "--" + over, over_value]
    else:
        (tmp_path / "config.txt").write_text(f"{name} = {value}\n{over} = {over_value}\n")
        argv += ["--config", str(tmp_path / "config.txt")]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert f"error: {command} reads no {name} when {over} is set" in capsys.readouterr().err
    assert not out.exists()


def test_a_key_set_twice_exits_2_naming_both_lines(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text("H = 4\nm = 3\nH = 6\n")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"{path}:3: config key 'H' is set again, after line 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("backend", ["ideal-exact", "stochastic"])
def test_an_infinite_stream_length_exits_2(tmp_path, capsys, backend):
    # an ideal backend reads no L, and a stochastic one needs a finite one
    argv = ["metrics", "--backend", backend, "--L", "inf", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "malformed value 'inf' for L" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_L_sweep_is_the_same_from_repeated_flags_a_list_and_a_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("L = 64,128\n")
    base = ["metrics", "--backend", "stochastic", "--gamma-grid", "1,2.5"]
    cfgs = [cli.parse_config(base + extra) for extra in
            (["--L", "64", "--L", "128"], ["--L", "64,128"], ["--config", str(path)])]
    assert cfgs[0] == cfgs[1] == cfgs[2]
    assert cli._sweep(cfgs[0]) == [{"alpha": 0.2, "gamma": g, "L": L}
                                   for g in (1.0, 2.5) for L in (64, 128)]
    assert cli._sweep(replace(cfgs[0], backend="ideal-exact")) == [
        {"alpha": 0.2, "gamma": g, "L": None} for g in (1.0, 2.5)]


def test_tdr_config_sets_every_reservoir_field(monkeypatch):
    # a TdrConfig field that no option sets would be a knob only tests reach
    cfg = cli.parse_config(["simulate"])
    monkeypatch.setattr(cli, "TdrConfig", lambda **kw: kw)
    assert set(cli._tdr_config(cfg, cli._sweep(cfg)[0])) == {f.name for f in fields(TdrConfig)}


def test_results_csv_does_not_depend_on_worker_count(tmp_path):
    argv = ["bench", "sinesquare", "--H-grid", "4,5", "--train", "40", "--test", "30",
            "--washout", "5", "--runs", "2", "--seed", "4"]
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert cli.main(argv + ["--workers", str(workers), "--out", str(out)]) == cli.EXIT_OK
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cpus,sizes", [(8, [3]), (2, [2]), (None, [])])
def test_the_pool_never_outgrows_the_grid_or_the_cpus(tmp_path, monkeypatch, cpus, sizes):
    # a fork-based pool starts all of its processes at once; this fake
    # records its size and runs the points here, so no process starts
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = ["metrics", "--H", "4", "--m", "5", "--runs", "1", "--alpha-grid", "0.2,0.5,0.8",
            "--workers", "1000000", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert seen == sizes  # one process per point and per CPU at most; one CPU runs here
    # the header, then run 0, mean and std of each point
    assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 1 + 3 * 3


def test_importing_the_cli_loads_no_process_pool():
    # the pool's modules are imported only when a sweep starts one; every
    # one-worker run, and every process that imports the CLI, goes without
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, stochtdr.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


BAD_INPUTS = {
    "nan": "step,u\n0,0.5\n1,nan\n",
    "missing-value": "step,u\n0,0.5\n1,\n",  # reads as NaN
    "inf": "step,u\n0,inf\n",
    "above-1": "step,u\n0,5.0\n",
    "below-minus-1": "step,u\n0,0.25\n1,-3\n",
    "header-only": "step,u\n",
    "empty": "",
    "no-u-column": "step,v\n0,0.5\n",
    "ragged-row": "step,u\n0,0.5\n1,0.5,7\n",
    "missing-file": None,
}


@pytest.mark.parametrize("text", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_simulate_input_files_exit_2_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "input.csv"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--H", "4", "--input", str(path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()



def _read_csv(path, header):
    """The rows of a CSV file whose first line is ``header``, as floats."""
    lines = path.read_text().splitlines()
    assert lines[0] == header
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(table[:, 0], np.arange(len(table)))
    return table[:, 1:]


@pytest.mark.parametrize("argv", [
    ["--backend", "stochastic", "--L", "37", "--H", "5", "--m", "9"],
    ["--backend", "ideal-exact", "--H", "3", "--m", "7", "--seed", "4"],
    ["--backend", "stochastic", "--L", "16", "--H", "4", "--reseed", "none", "--input"],
])
def test_simulate_csvs_parse_back_to_the_run(tmp_path, argv):
    if argv[-1] == "--input":  # on and off the q=8 grid, and both ends
        path = tmp_path / "input.csv"
        path.write_text("u\n0.5\n-1\n1.0\n0.1234\n-0.0\n")
        argv = argv + [str(path)]
    out = tmp_path / "out"
    argv = ["simulate", *argv, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    cfg = cli.parse_config(argv)
    u = _read_csv(out / "inputs.csv", "step,u")[:, 0]
    if cfg.input:
        np.testing.assert_array_equal(u, quantize([0.5, -1.0, 1.0, 0.1234, -0.0], cfg.q))
    tdr = cli._tdr_config(cfg, cli._sweep(cfg)[0], derive_seed(cfg.seed, cli._TAG_MASTER, 0))
    header = "step," + ",".join(f"x{i + 1}" for i in range(cfg.H))
    np.testing.assert_array_equal(_read_csv(out / "states.csv", header), Reservoir(tdr).run(u))


@pytest.mark.parametrize("task", ["narma10", "sinesquare"])
def test_dumped_sequence_csv_parses_back_to_the_generator(tmp_path, task):
    out = tmp_path / "out"
    assert cli.main(["bench", task, "--H", "4", "--train", "30", "--test", "25", "--washout",
                     "3", "--runs", "1", "--seed", "5", "--dump-sequences",
                     "--out", str(out)]) == cli.EXIT_OK
    seq = _read_csv(out / "sequence.csv", "step,u,y")
    seed0 = derive_seed(5, cli._TAG_TASK, 0)
    data = (narma10_generate if task == "narma10" else sine_square_generate)(55, seed0)
    np.testing.assert_array_equal(seq, np.column_stack([data.u, data.y]))


@pytest.mark.parametrize("task,generator", [("narma10", "narma10_generate"),
                                            ("sinesquare", "sine_square_generate")])
def test_dumped_sequence_is_the_draw_of_run_0(tmp_path, monkeypatch, task, generator):
    # the dump writes the sequence run 0 of point 0 drew: one draw per run, none more
    calls = []
    for name in ("narma10_generate", "sine_square_generate"):
        real = getattr(tasks, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)
        for module in (tasks, cli):  # wherever a caller reads the name from
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert cli.main(["bench", task, "--runs", "2", "--H-grid", "4,5", "--dump-sequences",
                     "--workers", "1", "--train", "30", "--test", "25", "--washout", "3",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert calls == [generator] * 4  # runs x points
    assert (tmp_path / "sequence.csv").is_file()


# states of small runs of the bias-free node, one per backend and reseed policy
@pytest.mark.parametrize("argv,digest", [
    (["--backend", "ideal-exact"],
     "d6887ffd788176779fdee951349a802fe33bbdc4b7ec2fa09af436075e5564ec"),
    (["--backend", "ideal-bernstein"],
     "63a3bffdc819d769ef07308041a802320833a9a493341fb2fbd02b633ba01679"),
    (["--backend", "stochastic", "--L", "37", "--reseed", "per-node"],
     "c47aa7f013372705b52b540d918a7ed998fca946efaa0bb95c2f0b278fc48491"),
    (["--backend", "stochastic", "--L", "37", "--reseed", "none"],
     "f9dd030cc9cab0805717da1e069295c584144f1bb67970513bfcba8a29ea4b0a"),
], ids=["ideal-exact", "ideal-bernstein", "stochastic-per-node", "stochastic-none"])
def test_simulate_states_csv_is_pinned(tmp_path, argv, digest):
    assert cli.main(["simulate", *argv, "--H", "4", "--m", "12",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / "states.csv").read_bytes()).hexdigest() == digest


# fits that --gamma G --delta-s D wrote before the domain width was dropped:
# --gamma G*D/2 writes the same coefficients.csv
@pytest.mark.parametrize("G,D,argv,digest", [
    (2.0, 1.25, [], "4480f261d5c220d769850bc26638a3baa817562549d71670332453b828c00d34"),
    (3.0, 0.5, [], "f1196268e601bb530957f1204fa0e565cefe6e63a2513dbde7144d71ca98fe3a"),
    (-1.7, 3.3, [], "277125861f239b51bb0e6d0b6f6f55062ddeb0795d605c34398a09a91bd0ee6d"),
    (0.7, 10.0, [], "6a02b894718ed9b72460b30b69a587922a7a0ba841de42e5bd4b96adc082107f"),
    (3.0, 0.5, ["--degree", "9", "--grid", "300"],
     "e71351da7df6cc5eea7b97339579af342df85ee983086ce5746f1428874ba640"),
])
def test_fit_at_a_domain_width_is_pinned_as_a_gamma(tmp_path, G, D, argv, digest):
    assert cli.main(["fit-activation", f"--gamma={G * D / 2!r}", *argv,
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / "coefficients.csv").read_bytes()).hexdigest() == digest


# 2^8 - 1 = 255 divides L = 255 and 510: every node and macro step of a free
# run reads one LFSR phase
@pytest.mark.parametrize("argv,flagged", [
    (["simulate", "--reseed", "none", "--L", "255"], [255]),
    (["simulate", "--reseed", "none", "--L", "37"], []),
    (["metrics", "--reseed", "none", "--L", "51,510", "--runs", "1"], [510]),
    (["simulate", "--reseed", "per-node", "--L", "255"], None),
])
def test_manifest_flags_a_degenerate_free_run(tmp_path, argv, flagged):
    assert cli.main([*argv, "--backend", "stochastic", "--H", "4", "--m", "5",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest.get("degenerate_free_run_L") == flagged

"""The command line: exit codes for rejected configurations and input files,
the option table behind flags, config-file keys and config.txt, and the
CSV formats it writes."""

from dataclasses import replace

import numpy as np
import pytest

from stochtdr import cli
from stochtdr.reservoir import Reservoir, derive_seed
from stochtdr.streams import quantize
from stochtdr.tasks import narma10_generate, sine_square_generate


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
    ["fit-activation", "--config", "backend = bogus"],  # the fit uses no reservoir
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
    ["fit-activation", "--delta-s", "nan"],
    ["fit-activation", "--gamma", "inf"],
    ["simulate", "--backend", "stochastic", "--L", "16", "--L", "32"],
    ["bench", "narma10", "--train", "8", "--test", "8", "--washout", "0"],  # NARMA needs 20
    ["simulate", "--m", "0"],
    ["metrics", "--alpha-grid", "0:0.1:inf"],  # an unbounded grid
    ["bench", "narma10", "--H-grid", "4:1:inf"],
    ["metrics", "--alpha-grid", "0:inf:1"],
    ["metrics", "--config", "gamma_grid = -inf:1:0"],
])
def test_reservoir_config_errors_exit_2(tmp_path, capsys, argv):
    if "--config" in argv:  # the value after --config is the file's text
        i = argv.index("--config") + 1
        path = tmp_path / "config.txt"
        path.write_text(argv[i] + "\n")
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    out = tmp_path / "out"
    code = cli.main(argv + ["--H", "4", "--runs", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0:0.1:inf", "0:inf:1", "nan:1:2", "-inf:1:0"])
def test_a_non_finite_grid_bound_names_the_option(tmp_path, capsys, grid):
    path = tmp_path / "config.txt"
    path.write_text(f"alpha_grid = {grid}\n")
    for argv, name in ((f"--alpha-grid={grid}", "alpha-grid"), (f"--config={path}", "alpha_grid")):
        assert cli.main(["metrics", argv, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert f"for {name}: grid start, step and stop must be finite" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_bytes(b"\xff\xfeH = 4\n")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}")
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
    "fit-activation": ["fit-activation", "--degree", "4", "--gamma", "1.5",
                       "--delta-s", "1.25", "--grid", "120"],
    "metrics": ["metrics", "--backend", "stochastic", "--L", "8", "--L", "12", "--reseed", "none",
                "--H", "4", "--m", "6", "--runs", "2", "--alpha-grid", "0.1:0.2:0.3",
                "--gamma-grid", "1.0,2.5", "--noise", "0.1", "--rank-tol", "1e-5", "--q", "6"],
    "bench": ["bench", "narma10", "--H-grid", "4,5", "--tau", "7", "--train", "40", "--test", "40",
              "--washout", "5", "--lambda", "0.001", "--runs", "2", "--seed", "3",
              "--dump-sequences"],
    "simulate": ["simulate", "--backend", "ideal-bernstein", "--H", "4", "--m", "9",
                 "--degree", "3", "--alpha", "0.4", "--workers", "2"],
}


@pytest.mark.parametrize("command", list(RUNS))
def test_config_txt_parses_back_to_the_same_config(tmp_path, command):
    out = str(tmp_path / "out")
    argv = RUNS[command] + ["--out", out]
    assert cli.main(argv) == cli.EXIT_OK
    task = argv[1:2] if command == "bench" else []
    again = cli.parse_config([command, *task, "--config", f"{out}/config.txt", "--out", out])
    assert again == cli.parse_config(argv)


# flag/file text per value parser; q is a register width, 2..16
SAMPLES = {cli._int: "64", float: "0.375", str: "x.csv", cli._bool: "true",
           cli._L_list: "64,inf", cli._float_grid: "0.1:0.2:0.5", cli._int_grid: "64,80"}
NO_FILE_KEY = {"out", "task"}


@pytest.mark.parametrize("f", cli._OPTIONS, ids=lambda f: f.name)
def test_every_option_parses_alike_from_flag_and_file(tmp_path, f):
    if f.name in NO_FILE_KEY:
        assert not cli._file_keys(f)
        return
    assert cli._file_keys(f), f"option {f.name} has no config-file key"
    meta = f.metadata
    choices = [c for c in meta["argparse"].get("choices", []) if c != f.default]
    text = choices[0] if choices else "12" if f.name == "q" else SAMPLES[meta["parse"]]
    flag = [cli._flag(f)] if meta["parse"] is cli._bool else [cli._flag(f), text]
    for command in meta["commands"]:
        task = ["narma10"] if command == "bench" else []
        from_flag = cli.parse_config([command, *task, *flag])
        assert getattr(from_flag, f.name) != getattr(cli.ExperimentConfig(command), f.name)
        for key in cli._file_keys(f):
            path = tmp_path / f"{key}.txt"
            path.write_text(f"{key} = {text}\n")
            assert cli.parse_config([command, *task, "--config", str(path)]) == from_flag


def test_flags_and_file_keys_stay_the_same():
    """Adding or dropping one changes the command-line interface."""
    flags = {cli._flag(f) for f in cli._OPTIONS}
    assert flags == {"task", "--H", "--tau", "--alpha", "--gamma", "--L", "--degree", "--q",
                     "--seed", "--runs", "--backend", "--reseed", "--lambda", "--washout",
                     "--out", "--workers", "--m", "--train", "--test", "--alpha-grid",
                     "--gamma-grid", "--H-grid", "--noise", "--rank-tol", "--delta-s",
                     "--grid", "--input", "--dump-sequences"}
    keys = {f.name for f in cli._OPTIONS} - NO_FILE_KEY | {"lambda"}
    assert set(cli._BY_FILE_KEY) == keys


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


def test_results_csv_does_not_depend_on_worker_count(tmp_path):
    argv = ["bench", "sinesquare", "--H-grid", "4,5", "--train", "40", "--test", "30",
            "--washout", "5", "--runs", "2", "--seed", "4"]
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert cli.main(argv + ["--workers", str(workers), "--out", str(out)]) == cli.EXIT_OK
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


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
    if task == "narma10":
        data = narma10_generate(55, seed0)
        expected = (data.u, data.y)
    else:
        data = sine_square_generate(55, seed0)
        expected = (data.signal, data.labels)
    np.testing.assert_array_equal(seq, np.column_stack(expected))

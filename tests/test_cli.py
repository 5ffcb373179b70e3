"""Command-line exit codes for configurations the reservoir rejects."""

import pytest

from stochtdr import cli


@pytest.mark.parametrize("argv", [
    ["bench", "narma10", "--backend", "stochastic", "--L", "0"],
    ["bench", "narma10", "--backend", "stochastic", "--L", "3", "--degree", "5"],
    ["bench", "sinesquare", "--H-grid", "4,0"],
    ["metrics", "--alpha-grid", "0.2,1.5"],
    ["simulate", "--q", "99"],
])
def test_reservoir_config_errors_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = cli.main(argv + ["--H", "4", "--runs", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()

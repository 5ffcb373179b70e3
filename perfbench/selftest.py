"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
every metric BENCHMARK.json names is reported with its unit, that a
corrupted reference counts as a failed operation, that tracing puts back
every attribute it wrapped (``Reservoir.step`` included), that the shipped
references match the workloads' settings, and that the runner, from the
command line, reports a full-size workload and refuses a checkout that
holds no program.  Exits non-zero at the first check that fails.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import asdict, replace

import run

TINY = {
    "narma-stoch": dict(H=4, L=64, train=60, test=60, washout=5),
    "sinesquare-freerun": dict(H=4, L=64, train=60, test=60, washout=5),
    "metrics-bernstein": dict(H=4, m=5, runs=1, alphas=(0.2,)),
}


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def expect_metrics(result: dict, declared: list[dict], what: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: metrics {got} differ from BENCHMARK.json {want}")
    for k, v in result["metrics"].items():
        expect(isinstance(v["value"], float), f"{what}: {k} is not a number")


def cli(args: list[str], cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def main() -> int:
    run.prepare_program()
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]},
           "workloads differ from BENCHMARK.json")
    shipped = json.loads(run.REFERENCES.read_text())
    for name, wl in workloads.WORKLOADS.items():
        expect(name in shipped and shipped[name]["params"] == json.loads(json.dumps(asdict(wl))),
               f"references.json has no references for the current {name} settings")

    run.OUT.mkdir(parents=True, exist_ok=True)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.span_targets()]
    expect(len(originals) == len(tracing.span_targets()), "a span target is missing")
    step = vars(workloads.reservoir.Reservoir)["step"]
    for name, sizes in TINY.items():
        wl = replace(workloads.WORKLOADS[name], **sizes)
        plain = run.measure(wl, 0, 0.0, traced=False)
        expect(plain["correct"] and plain["failed"] == 0, f"{name}: untraced run failed")
        expect_metrics(plain, spec["end_to_end"], name)

        traced = run.measure(wl, 0, 0.0, traced=True)
        expect(traced["correct"] and traced["failed"] == 0, f"{name}: traced run failed")
        expect_metrics(traced, spec["per_layer"], f"{name} traced")
        expect(vars(workloads.reservoir.Reservoir)["step"] is step,
               f"{name}: Reservoir.step is still wrapped after the traced run")
        expect(all(vars(owner)[attr] is fn for owner, attr, fn in originals),
               f"{name}: a wrapped attribute was not put back")

        bad = run.measure(wl, 0, 0.0, traced=False, references=["corrupted"] * wl.instances)
        expect(not bad["correct"] and bad["failed"] == bad["attempted"] == wl.instances,
               f"{name}: a corrupted reference did not fail the run: {bad}")

    proc = cli(["--workload", "narma-stoch", "--seed", "0", "--seconds", "0", "--trace", "0"],
               run.ROOT)
    expect(proc.returncode == 0, f"full-size run exited {proc.returncode}: {proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(last) == ["attempted", "correct", "failed", "metrics"] and last["correct"],
           f"full-size run printed {last}")
    expect_metrics(last, spec["end_to_end"], "full-size narma-stoch")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = cli(["--workload", "narma-stoch", "--seed", "0", "--seconds", "1", "--trace", "0"],
                   bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"a checkout without src/ gave exit code {proc.returncode} and {proc.stdout!r}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

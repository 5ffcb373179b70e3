"""Benchmark of the stochtdr simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload narma-stoch --seed 1 --seconds 20 --trace 0

One process drives one workload (workloads.py) through stochtdr's public
API in a closed loop with a single caller: each entry call starts when the
previous one has returned.  Calls cycle through the workload's task
instances until ``--seconds`` have passed, and every instance runs at
least once.  Every output is checked: exactly against references.json
when it holds the seed, by invariants otherwise, and always against the
first output of the same instance.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` follows every
untraced call with a traced call of the same instance (tracing.py) and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a summary with the machine and versions, and with
``--trace 1`` the spans, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

# The machine has two cores and the load is one caller, so BLAS and OpenMP
# run one thread each; their own threads would only add scheduling noise.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
TRACED_SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# Self times of a traced call must sum to its wall time within this share.
SELF_TIME_TOLERANCE = 0.01

END_TO_END_UNITS = {"node_updates_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric: (span name, per-call statistic, unit)
SPAN_METRICS = {
    "reservoir.steps": ("reservoir.step", "count", "count"),
    "reservoir.step_self_s": ("reservoir.step", "self_s", "s"),
    "reservoir.runs": ("reservoir.run", "count", "count"),
    "reservoir.run_self_s": ("reservoir.run", "self_s", "s"),
    "reservoir.builds": ("reservoir.build", "count", "count"),
    "reservoir.build_s": ("reservoir.build", "total_s", "s"),
    "bernstein.eval_calls": ("bernstein.eval", "count", "count"),
    "bernstein.eval_s": ("bernstein.eval", "total_s", "s"),
    "streams.s2b_s": ("streams.s2b", "total_s", "s"),
    "streams.quantize_s": ("streams.quantize", "total_s", "s"),
    "tasks.generate_s": ("tasks.generate", "total_s", "s"),
    "tasks.evaluate_self_s": ("tasks.evaluate", "self_s", "s"),
    "readout.ridge_train_s": ("readout.ridge_train", "total_s", "s"),
    "readout.predict_s": ("readout.predict", "total_s", "s"),
    "metrics.rank_calls": ("metrics.numerical_rank", "count", "count"),
    "metrics.numerical_rank_s": ("metrics.numerical_rank", "total_s", "s"),
    "metrics.metric_study_self_s": ("metrics.metric_study", "self_s", "s"),
    "cli.parse_s": ("cli.parse", "total_s", "s"),
    "cli.run_experiment_self_s": ("cli.run_experiment", "self_s", "s"),
}
# per-layer metric: (span name, percentile of its pooled durations), in us
PERCENTILE_METRICS = {
    "reservoir.step_us_p50": ("reservoir.step", 50),
    "reservoir.step_us_p99": ("reservoir.step", 99),
    "bernstein.eval_us_p50": ("bernstein.eval", 50),
}
OTHER_LAYER_UNITS = {
    "reservoir.ns_per_node_bit": "ns",
    "tasks.narma_regenerations": "count",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "bernstein.fit_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}
PER_LAYER_UNITS = {**{k: v[2] for k, v in SPAN_METRICS.items()},
                   **{k: "us" for k in PERCENTILE_METRICS}, **OTHER_LAYER_UNITS}


def prepare_program() -> None:
    """Make the checkout's src/stochtdr importable, with BLAS on one thread.

    Exits with an error when the checkout holds no program, so that the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "stochtdr" / "__init__.py").is_file():
        raise SystemExit(f"error: no stochtdr package under {SRC}")
    os.environ.update(THREAD_PINS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stochtdr
    if Path(stochtdr.__file__).resolve().parent != (SRC / "stochtdr").resolve():
        raise SystemExit(f"error: imported stochtdr from {stochtdr.__file__}, not {SRC}")


def load_references(wl, seed: int) -> list[str] | None:
    """Expected output keys per instance for this seed, if shipped."""
    table = json.loads(REFERENCES.read_text()).get(wl.name)
    if table is None or table["params"] != json.loads(json.dumps(asdict(wl))):
        return None
    return table["seeds"].get(str(seed))


class Checker:
    """Counts operations and failed operations.

    An output fails when it breaks an invariant, differs from the shipped
    reference of its instance, or differs from the first output of its
    instance in this run.
    """

    def __init__(self, references: list[str] | None):
        self.expected = dict(enumerate(references or []))
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def record(self, r: int, out, error: str | None = None) -> bool:
        self.attempted += 1
        error = error or out.error
        if error is None and r in self.expected and out.key != self.expected[r]:
            error = f"instance {r}: output {out.key} differs from expected {self.expected[r]}"
        if error is not None:
            return self.fail(error)
        self.expected.setdefault(r, out.key)
        self.first.setdefault(r, out)
        return True

    def fail(self, message: str) -> bool:
        self.failed += 1
        print(f"failed operation: {message}", file=sys.stderr)
        return False

    def raised(self) -> bool:
        self.attempted += 1
        return self.fail(traceback.format_exc())


def timed_call(wl, seed: int, r: int, workdir: Path, trace=None):
    """Seconds of one entry call, and its checked output."""
    with trace.installed() if trace is not None else nullcontext():
        t0 = time.perf_counter()
        raw = wl.call(seed, r, workdir)
        seconds = time.perf_counter() - t0
    return seconds, wl.output(raw, workdir)


def run_probes(name: str, seed: int, traced: bool, count: int) -> list[dict]:
    """Set-up measurements, each in a fresh process (setup_probe.py)."""
    results = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(int(traced))],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def untraced_loop(wl, seed: int, seconds: float, workdir: Path, check: Checker) -> list[dict]:
    """Each correct call until the time is up: its seconds, and the mean
    seconds of the calibration kernel just before and just after it."""
    import calibration

    kernel = getattr(calibration, wl.kernel)
    calls = []
    deadline = time.perf_counter() + seconds
    after = calibration.kernel_seconds(kernel)
    i = 0
    while i < wl.instances or time.perf_counter() < deadline:
        r = i % wl.instances
        i += 1
        before = after
        try:
            dt, out = timed_call(wl, seed, r, workdir)
        except Exception:  # noqa: BLE001 - a failing call is a failed operation
            check.raised()
            continue
        finally:
            after = calibration.kernel_seconds(kernel)
        if check.record(r, out):
            calls.append({"seconds": dt, "kernel_s": (before + after) / 2})
    return calls


def traced_loop(wl, seed: int, seconds: float, workdir: Path, check: Checker) -> list[dict]:
    """Pairs of an untraced and a traced call of one instance until the time is up."""
    from tracing import Trace

    pairs = []
    digests: dict[int, str] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 1 or time.perf_counter() < deadline:
        r = i % wl.instances
        i += 1
        try:
            dt_plain, plain = timed_call(wl, seed, r, workdir)
        except Exception:  # noqa: BLE001 - a failing call is a failed operation
            check.raised()
            continue
        if not check.record(r, plain):
            continue
        trace = Trace()
        try:
            dt_traced, traced = timed_call(wl, seed, r, workdir, trace)
        except Exception:  # noqa: BLE001
            check.raised()
            continue
        digest = trace.state_digest()
        error = trace.sanity_error(dt_traced, SELF_TIME_TOLERANCE)
        if error is None and traced.key != plain.key:
            error = f"traced output {traced.key} differs from untraced {plain.key}"
        if error is None and digests.setdefault(r, digest) != digest:
            error = f"instance {r}: state digest {digest} differs from {digests[r]}"
        if check.record(r, traced, error):
            pairs.append({"instance": r, "untraced_s": dt_plain, "traced_s": dt_traced,
                          "state_sha256": digest, "layers": trace.layers(),
                          "spans": trace.arrays(), "regenerations": traced.regenerations})
    return pairs


def end_to_end_metrics(wl, calls: list[dict], probes: list[dict]) -> dict:
    """Throughput is scaled to the calibration kernel's reference speed."""
    from calibration import REFERENCE_S

    reference = REFERENCE_S[wl.kernel]
    return {
        "node_updates_per_s": statistics.median(
            wl.node_updates() / c["seconds"] * c["kernel_s"] / reference for c in calls)
        if calls else 0.0,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(wl, pairs: list[dict], probes: list[dict]) -> dict:
    import numpy as np

    def median(values) -> float:
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    def stat(layers, span, key) -> float:
        return float(layers[span][key]) if span in layers else 0.0

    m = {name: median(stat(p["layers"], span, key) for p in pairs)
         for name, (span, key, _) in SPAN_METRICS.items()}
    for name, (span, q) in PERCENTILE_METRICS.items():
        pooled = [p["layers"][span]["durations_ns"] for p in pairs if span in p["layers"]]
        m[name] = float(np.percentile(np.concatenate(pooled), q)) / 1e3 if pooled else 0.0
    bits_per_node = getattr(wl, "L", None)
    m["reservoir.ns_per_node_bit"] = median(
        stat(p["layers"], "reservoir.step", "self_s") * 1e9
        / (stat(p["layers"], "reservoir.step", "count") * wl.H * bits_per_node)
        for p in pairs) if bits_per_node else 0.0
    m["tasks.narma_regenerations"] = median(p["regenerations"] for p in pairs)
    m["setup.import_s"] = median(p["import_s"] for p in probes)
    m["setup.build_s"] = median(p["build_s"] for p in probes)
    m["bernstein.fit_s"] = median(p["fit_s"] for p in probes)
    m["trace.wall_s"] = median(p["traced_s"] for p in pairs)
    m["trace.overhead_s"] = median(p["traced_s"] - p["untraced_s"] for p in pairs)
    plain = median(p["untraced_s"] for p in pairs)
    m["trace.overhead_pct"] = 100.0 * m["trace.overhead_s"] / plain if plain else 0.0
    return m


def environment() -> dict:
    """Machine and versions, recorded next to the results."""
    import platform

    import numpy
    import stochtdr

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                        "arch": platform.machine(), "platform": platform.platform()},
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                         "blas": blas, "stochtdr": stochtdr.__version__,
                         "commit": git_commit()},
            "threads": THREAD_PINS}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(wl, seed: int, seconds: float, traced: bool,
            references: list[str] | None = None) -> dict:
    """Run one workload; returns the result object and writes the summary.

    ``references`` replaces the shipped references of the seed (for the
    self-test); by default they are read from references.json.
    """
    import numpy as np
    import workloads

    check = Checker(load_references(wl, seed) if references is None else references)
    probes = run_probes(wl.name, seed, traced, TRACED_SETUP_PROBES if traced else SETUP_PROBES)
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.build_first_reservoir(wl, seed)  # set-up ends before timing starts
        if traced:
            pairs = traced_loop(wl, seed, seconds, workdir, check)
            metrics = per_layer_metrics(wl, pairs, probes)
            units = PER_LAYER_UNITS
        else:
            calls = untraced_loop(wl, seed, seconds, workdir, check)
            metrics = end_to_end_metrics(wl, calls, probes)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scores = {}
    for out in check.first.values():
        for k, v in out.scores.items():
            scores.setdefault(k, []).append(v)
    fidelity = {k: statistics.fmean(v) for k, v in scores.items()}
    result = {"correct": check.failed == 0 and check.attempted > 0,
              "attempted": check.attempted, "failed": check.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    record = environment()
    run = {"seed": seed, "seconds": seconds, "trace": int(traced), "probes": probes,
           "fidelity": fidelity, "outputs": {r: o.key for r, o in sorted(check.first.items())},
           **result}
    if traced:
        run["calls"] = [{k: p[k] for k in ("instance", "untraced_s", "traced_s", "state_sha256")}
                        for p in pairs]
        run["spans_file"] = f"{wl.name}-seed{seed}.spans.npz"
        columns = {}
        for k, p in enumerate(pairs):
            for col, arr in p["spans"].items():
                columns[f"call{k}_{col}"] = arr
        np.savez_compressed(OUT / run["spans_file"], **columns)
    else:
        run["calls"] = calls
        run["wall_node_updates_per_s"] = statistics.median(
            wl.node_updates() / c["seconds"] for c in calls) if calls else 0.0
    record["workloads"] = {wl.name: run}
    (OUT / f"{wl.name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps({k: record[k] for k in ("machine", "versions")}))
    print("fidelity " + json.dumps(fidelity))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the stochtdr simulator.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

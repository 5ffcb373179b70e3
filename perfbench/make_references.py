"""Regenerate references.json, the exact outputs the benchmark expects.

    python3 perfbench/make_references.py FIRST_SEED LAST_SEED

Runs every task instance of every workload for the seeds FIRST..LAST with
the program under src/, and stores each output key (the repr of the score,
or the sha256 of metrics.csv) next to the workload's settings.  The
benchmark only uses references whose settings match its workloads.
Regenerate them only with a change that is meant to alter outputs, and
say so in that change.
"""

import json
import shutil
import sys
from dataclasses import asdict

from run import OUT, REFERENCES, prepare_program


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    prepare_program()
    import workloads

    workdir = OUT / "references-work"
    workdir.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        for name, wl in workloads.WORKLOADS.items():
            seeds = {}
            for seed in range(first, last + 1):
                keys = []
                for r in range(wl.instances):
                    out = wl.output(wl.call(seed, r, workdir), workdir)
                    if out.error is not None:
                        raise RuntimeError(f"{name} seed {seed} instance {r}: {out.error}")
                    keys.append(out.key)
                seeds[str(seed)] = keys
                print(name, seed, keys, flush=True)
            table[name] = {"params": asdict(wl), "seeds": seeds}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Set-up time of one workload, measured in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed> <trace 0|1>

Times the import of stochtdr (through workloads.py) and the build of the
workload's first Reservoir: LFSR cycles, the Bernstein fit and any tables.
Prints one JSON line.  With trace 1 the build runs under span wrappers,
and the line also holds the build and Bernstein-fit seconds.
"""

import json
import sys
import time

from run import prepare_program


def main(argv: list[str]) -> int:
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    t0 = time.perf_counter()
    prepare_program()
    import workloads
    t_import = time.perf_counter()
    wl = workloads.WORKLOADS[name]
    if not traced:
        workloads.build_first_reservoir(wl, seed)
        t_built = time.perf_counter()
        print(json.dumps({"setup_s": t_built - t0, "import_s": t_import - t0}))
        return 0

    from tracing import Trace
    trace = Trace()
    with trace.installed():
        t1 = time.perf_counter()
        workloads.build_first_reservoir(wl, seed)
        t_built = time.perf_counter()
    layers = trace.layers()
    print(json.dumps({"import_s": t_import - t0, "build_s": t_built - t1,
                      "fit_s": layers.get("bernstein.fit", {}).get("total_s", 0.0)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

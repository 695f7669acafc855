"""Probes run in a fresh interpreter, with the program's ``src`` on
PYTHONPATH:

    python3 perfbench/probe.py SPEC.json

A spec of kind ``pair``, ``verify`` or ``cli`` times the import of the
program plus its first cold op and prints ``{"setup_s": ...}``.  The spec
is read before the clock starts, and holds the op's inputs as plain
JSON, so that no numpy import happens before it.

A spec of kind ``footprint`` runs every input of a pairs or verify
workload once, holding one input at a time, or one CLI command, and
prints ``{"peak_rss_mb": ...}``: the peak memory of a process that holds
the program and one op's data, without the benchmark's reference route
(scipy) or its input pool.  It is the process's own high-water mark,
VmHWM; ``ru_maxrss`` would not do, since after fork and exec it keeps
the parent's peak, here the benchmark's.
"""

import contextlib
import io
import json
import sys
import time


def pair_op(sp, n: int, field_name: str, left: list, right: list):
    """What ``spangle angle`` computes for one pair, through the package
    namespace."""
    field = sp.Field(field_name)
    V = sp.from_spanning(left, field, ambient_dim=n)
    W = sp.from_spanning(right, field, ambient_dim=n)
    return (
        V.dim,
        W.dim,
        sp.angle_report(V, W),
        sp.principal_angles(V, W),
        sp.grassmann_angle(W, V),
        sp.fubini_study(V, W),
    )


def _vectors(doc: dict) -> list:
    if doc["field"] == "complex":
        return [[complex(re, im) for re, im in v] for v in doc["vectors"]]
    return doc["vectors"]


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def footprint(spec: dict) -> float:
    if "pool" in spec:
        import generate
        import spangle as sp

        pool = spec["pool"]
        per_field = {int(n): count for n, count in pool["per_field"].items()}
        pmax = {int(n): p for n, p in pool["pmax"].items()}
        for pair in generate.pair_pool(pool["seed"], per_field, pmax):
            pair_op(sp, *pair.inputs())
    elif "suite_seeds" in spec:
        from spangle.verify import run_suites

        for seed in spec["suite_seeds"]:
            run_suites("all", seed, trials=spec["trials"], dim_max=spec["dim_max"])
    else:
        from spangle.cli import main as cli_main

        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(spec["cli_args"], standalone_mode=False)
    return _peak_rss_mb()


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    kind = spec["kind"]
    if kind == "footprint":
        print(json.dumps({"peak_rss_mb": footprint(spec)}))
        return
    if kind == "pair":
        left, right = spec["left"], spec["right"]
        n, field_name = left["ambient_dim"], left["field"]
        left_vectors, right_vectors = _vectors(left), _vectors(right)

    start = time.perf_counter()
    if kind == "pair":
        import spangle as sp

        pair_op(sp, n, field_name, left_vectors, right_vectors)
    elif kind == "verify":
        from spangle.verify import run_suites

        if not all(r.passed for r in run_suites("all", spec["seed"], trials=spec["trials"], dim_max=spec["dim_max"])):
            sys.exit("set-up op failed verification")
    elif kind == "cli":
        from spangle.cli import main as cli_main

        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(spec["args"], standalone_mode=False)
    else:
        sys.exit(f"unknown probe kind {kind!r}")
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()

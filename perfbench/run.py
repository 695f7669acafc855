"""The spangle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` it measures the end-to-end metrics of one workload
for S seconds; with ``--trace 1`` it runs the workload half untraced and
half traced and reports the per-layer metrics.  Every op's result is
checked against an independent reference outside the timed region.

Stdout: a detail line (machine facts, sample counts, the metrics under
their per-workload names, failed_frac), then, as the last line, the
result ``{"correct", "attempted", "failed", "metrics"}``.  Both are also
written to ``.perfbench_run/`` in the checkout, with the kept spans of a
traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads, in this process and its
# children.  On a 2-CPU machine shared with other load, OpenBLAS's default
# of one thread per CPU made n=256 pairs 1.6x slower and their times three
# times as variable, since each op then waits for the busier CPU.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import generate  # noqa: E402
import machine  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from calibrate import Kernel  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("linalg", "subspace", "principal", "angles", "metrics", "sampling",
          "exterior", "gram", "identities", "verify", "io", "cli")
SUITES = ("pythagorean", "oriented", "metric-axioms", "oracle-equivalence", "bounds")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3

# The end-to-end metrics under the names each workload gives them:
# alias -> (metric, scale, unit).
ALIASES = {
    "pairs-small": {"pairs_per_s": ("ops_per_s", 1.0, "1/s"), "pair_p50_us": ("op_p50_ms", 1e3, "us"),
                    "pair_p99_us": ("op_tail_ms", 1e3, "us")},
    "pairs-large": {"pairs_per_s": ("ops_per_s", 1.0, "1/s"), "pair_p50_us": ("op_p50_ms", 1e3, "us"),
                    "pair_p90_us": ("op_tail_ms", 1e3, "us")},
    "verify-all": {"verify_s": ("op_p50_ms", 1e-3, "s")},
    "cli-angle": {"cli_p50_ms": ("op_p50_ms", 1.0, "ms"), "cli_p90_ms": ("op_tail_ms", 1.0, "ms")},
}


class OpError:
    """An op that raised; it counts as failed."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


@dataclass
class Loop:
    """What a closed loop measured: every op's latency, the fastest
    latency of each input, each input's ratios of op time to the kernel
    time next to it, and the checks of the results."""

    latencies: list = field(default_factory=list)
    best: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)
    failed: int = 0
    missed: int = 0
    max_angle_err: float = 0.0
    wall: float = 0.0
    first_error: str | None = None

    def add(self, other: "Loop") -> None:
        self.failed += other.failed
        self.missed += other.missed
        self.max_angle_err = max(self.max_angle_err, other.max_angle_err)
        self.first_error = self.first_error or other.first_error

    def check(self, workload, k: int, result) -> None:
        if isinstance(result, OpError):
            self.failed += 1
            self.first_error = self.first_error or result.message
            return
        try:
            verdict = workload.check(k, result)
        except (KeyError, TypeError, ValueError, IndexError):
            verdict = reference.Verdict(ok=False)
        self.failed += not verdict.ok
        self.missed += verdict.misses > 0
        self.max_angle_err = max(self.max_angle_err, verdict.max_angle_err)


def closed_loop(workload, op, seconds: float, count: int | None = None, pauses=(), kernel: Kernel | None = None) -> Loop:
    """Run op(0), op(1), ... back to back until ``seconds`` have passed
    (or ``count`` ops ran), checking each result after its op.  The
    ``pauses`` run between ops, spread evenly over the run; their time
    does not count towards ``seconds``.  The ``kernel``, if any, runs
    right after every op."""
    loop = Loop()
    pending = list(pauses)
    start = time.perf_counter()
    deadline = start + seconds
    every = seconds / (len(pending) + 1)
    next_pause = start + every
    k = 0
    while True:
        t0 = time.perf_counter()
        try:
            result = op(k)
        except Exception as exc:  # a failing op is counted, the run goes on
            result = OpError(exc)
        t1 = time.perf_counter()
        latency = t1 - t0
        loop.latencies.append(latency)
        key = k % workload.cycle
        loop.best[key] = min(latency, loop.best.get(key, math.inf))
        loop.check(workload, k, result)
        if kernel is not None:
            loop.ratios.setdefault(key, []).append(latency / kernel.measure())
        k += 1
        if t1 >= deadline or (count is not None and k >= count):
            loop.wall = time.perf_counter() - start
            return loop
        if pending and t1 >= next_pause:
            p0 = time.perf_counter()
            pending.pop()()
            paused = time.perf_counter() - p0
            deadline += paused
            next_pause += every + paused


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def run_probe(spec: dict, path: Path) -> dict:
    """Run probe.py on ``spec`` in a fresh interpreter; its JSON output."""
    path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(path)], capture_output=True, text=True,
                          env=workloads.child_env(ROOT), cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {spec['kind']} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SetupProbe:
    """Import plus first cold op, in a fresh interpreter each time."""

    def __init__(self, workload, workdir: Path):
        self.spec = workload.probe_spec()
        self.path = workdir / "probe.json"
        self.times: list[float] = []

    def run(self) -> float:
        return run_probe(self.spec, self.path)["setup_s"]

    def measure(self) -> None:
        self.times.append(self.run())


def peak_rss_mb(workload, workdir: Path) -> float:
    """Peak memory of the program, without the benchmark's own: the
    largest of the workload's footprint probes (see probe.py)."""
    return max(run_probe(spec, workdir / "footprint.json")["peak_rss_mb"] for spec in workload.footprint_specs())


def parse_importtime(stderr: str) -> dict:
    """Import costs from ``python -X importtime -c 'import spangle.cli'``."""
    cumulative: dict[str, int] = {}
    top_us = own_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cum_us, raw = int(parts[0]), int(parts[1]), parts[2][1:]
        name = raw.strip()
        ours = name == "spangle" or name.startswith("spangle.")
        if ours and raw == name:  # top level
            top_us += cum_us
        if ours:
            own_us += self_us
        cumulative.setdefault(name, cum_us)
    return {
        "cli.import_ms": top_us / 1e3,
        "import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
        "import.click_ms": cumulative.get("click", 0) / 1e3,
        "import.spangle_self_ms": own_us / 1e3,
    }


def import_costs() -> dict:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spangle.cli"],
                              capture_output=True, text=True, env=workloads.child_env(ROOT), cwd=ROOT, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"import of spangle.cli failed: {proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    out = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    floor = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=workloads.child_env(ROOT), cwd=ROOT, timeout=150)
        floor.append(time.perf_counter() - t0)
    out["cli.interpreter_ms"] = statistics.median(floor) * 1e3
    return out


def spangle_modules() -> list:
    import spangle

    return [spangle] + [importlib.import_module(f"spangle.{layer}") for layer in LAYERS]


def sanity_pair_counts() -> dict:
    """Counters for one equal-dimension pair (n=4, p=q=2, real)."""
    pair = generate.make_pair(np.random.default_rng(0), 4, "real", "generic", 2, 2)
    modules = spangle_modules()
    tr = Tracer()
    tr.install(modules)
    try:
        probe.pair_op(modules[0], *pair.inputs())
    finally:
        tr.uninstall()
    return {
        "linalg.svd_calls_equal_dim_pair": tr.calls("numpy.linalg.svd"),
        "subspace.validations_equal_dim_pair": tr.calls("subspace.Subspace.__post_init__"),
        "spans": tr.spans,
    }


def layer_metrics(tr, ops: int, op_time: float) -> dict:
    """Per-layer metrics of a traced phase of ``ops`` ops."""
    us = 1e6
    m = {
        "linalg.svd_calls_per_op": (tr.calls("numpy.linalg.svd") / ops, "count"),
        "linalg.svd_self_us_per_op": (tr.self_time("numpy.linalg.svd") / ops * us, "us"),
        "linalg.orthonormalize_columns_us": (tr.per_call("linalg.orthonormalize_columns") * us, "us"),
        "subspace.validations_per_op": (tr.calls("subspace.Subspace.__post_init__") / ops, "count"),
        "subspace.validation_self_us_per_op": (tr.self_time("subspace.Subspace.__post_init__") / ops * us, "us"),
        "subspace.from_spanning_us": (tr.per_call("subspace.from_spanning") * us, "us"),
        "principal.principal_cosines_calls_per_op": (tr.calls("principal.principal_cosines") / ops, "count"),
        "principal.self_us_per_op": (tr.layer_self_time("principal") / ops * us, "us"),
        "angles.grassmann_angle_calls_per_op": (tr.calls("angles.grassmann_angle") / ops, "count"),
        "angles.angle_report_us": (tr.per_call("angles.angle_report") * us, "us"),
        "angles.self_us_per_op": (tr.layer_self_time("angles") / ops * us, "us"),
        "metrics.fubini_study_us": (tr.per_call("metrics.fubini_study") * us, "us"),
        "metrics.sampled_directed_hausdorff_s_per_op": (tr.inclusive("metrics.sampled_directed_hausdorff") / ops, "s"),
        "sampling.haar_subspace_s_per_op": (tr.inclusive("sampling.haar_subspace") / ops, "s"),
        "exterior.oracle_s_per_op": (tr.outer.get("exterior.oracle", 0.0) / ops, "s"),
        "exterior.wedge_calls_per_op": (tr.calls("exterior.wedge") / ops, "count"),
        "gram.s_per_op": (tr.outer.get("gram", 0.0) / ops, "s"),
        "identities.s_per_op": (tr.outer.get("identities", 0.0) / ops, "s"),
    }
    for suite in SUITES:
        m[f"verify.{suite}_s"] = (tr.inclusive(f"verify.run_{suite.replace('-', '_')}") / ops, "s")
    m["verify.self_share"] = (tr.layer_self_time("verify") / op_time, "fraction")
    for name in ("parse_subspace_document", "load_subspace_file", "dump_json"):
        m[f"io.{name}_us"] = (tr.per_call(f"io.{name}") * us, "us")
    return m


def figures(times: dict, tail: float) -> dict:
    """End-to-end figures from each input's time (input -> seconds)."""
    values = list(times.values())
    return {
        "ops_per_s": (len(values) / sum(values), "1/s"),
        "op_p50_ms": (percentile(values, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(values, tail) * 1e3, "ms"),
    }


def per_category_p50_ms(workload, times: dict) -> dict:
    """Median time of the inputs of each category, in ms."""
    groups: dict[str, list] = {}
    for key, value in times.items():
        label = workload.label(key)
        if label is not None:
            groups.setdefault(label, []).append(value)
    return {label: percentile(values, 50) * 1e3 for label, values in sorted(groups.items())}


def timed_run(name: str, workload, seconds: float, workdir: Path):
    # Set-up runs several times, spread over the run so that the median
    # does not rest on one phase of the machine's load; the first run,
    # unmeasured, writes the bytecode caches.
    setup_probe = SetupProbe(workload, workdir)
    setup_probe.run()
    kernel = Kernel(workload.kernel, ROOT, workloads.child_env(ROOT))
    workload.warm_up()
    kernel.measure()
    loop = closed_loop(workload, workload.op, seconds, pauses=[setup_probe.measure] * SETUP_REPEATS, kernel=kernel)
    # Each input's time at the baseline's speed (see calibrate.py).
    times = {key: statistics.median(r) * kernel.reference for key, r in loop.ratios.items()}
    setup = setup_probe.times
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update(figures(times, workload.tail))
    metrics["peak_rss_mb"] = (peak_rss_mb(workload, workdir), "MB")
    ops = len(loop.latencies)
    detail = {
        "samples": ops,
        "inputs": len(loop.best),
        "repetitions_per_input": ops / len(loop.best),
        "tail_percentile": workload.tail,
        "inputs_beyond_tail": int(len(loop.best) * (100 - workload.tail) / 100),
        "setup_samples_s": setup,
        "named": {alias: (metrics[base][0] * scale, unit) for alias, (base, scale, unit) in ALIASES[name].items()},
        "category_p50_ms": per_category_p50_ms(workload, times),
        "kernel": {"kind": kernel.kind, "reference_s": kernel.reference, "runs": len(kernel.times),
                   "median_s": statistics.median(kernel.times), "fastest_s": min(kernel.times)},
        "measured": {
            "fastest_of_input": {key: value for key, (value, _) in figures(loop.best, workload.tail).items()},
            "category_p50_ms": per_category_p50_ms(workload, loop.best),
        },
        "all_ops": {
            "ops_per_s": ops / loop.wall,
            "p50_ms": percentile(loop.latencies, 50) * 1e3,
            f"p{workload.tail}_ms": percentile(loop.latencies, workload.tail) * 1e3,
        },
    }
    return ops, loop, metrics, detail


def traced_run(name: str, workload, seconds: float, workdir: Path):
    """Half the time untraced, then as many whole input cycles traced, so
    that counts per op are exact averages over the inputs."""
    op = workload.op_in_process if name == "cli-angle" else workload.op
    modules = spangle_modules()
    workload.warm_up()
    plain = closed_loop(workload, op, seconds / 2)
    cycles = max(1, len(plain.latencies) // workload.cycle)
    tr = Tracer()
    tr.install(modules)
    try:
        traced = closed_loop(workload, op, math.inf, count=cycles * workload.cycle)
    finally:
        tr.uninstall()
    plain.add(traced)
    ops = len(traced.latencies)
    sanity = sanity_pair_counts()
    metrics = layer_metrics(tr, ops, sum(traced.latencies))
    metrics["cli.command_ms"] = (percentile(plain.latencies, 50) * 1e3 if name == "cli-angle" else 0.0, "ms")
    metrics.update((key, (value, "ms")) for key, value in import_costs().items())
    metrics["linalg.svd_calls_equal_dim_pair"] = (sanity["linalg.svd_calls_equal_dim_pair"], "count")
    metrics["subspace.validations_equal_dim_pair"] = (sanity["subspace.validations_equal_dim_pair"], "count")
    metrics["trace.overhead_frac"] = (sum(traced.best.values()) / sum(plain.best.values()) - 1.0, "fraction")
    attempted = len(plain.latencies) + ops
    metrics["accuracy.readme_tol_miss_frac"] = (plain.missed / attempted, "fraction")
    metrics["accuracy.max_angle_err_rad"] = (plain.max_angle_err, "rad")
    (workdir / "spans.json").write_text(json.dumps({
        "columns": ["id", "parent", "name", "start", "end"],
        "traced_phase": tr.spans,
        "equal_dim_pair": sanity["spans"],
        "stats": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]} for k, v in sorted(tr.stats.items())},
    }), encoding="utf-8")
    detail = {"samples": ops, "untraced_samples": len(plain.latencies), "spans_kept": len(tr.spans)}
    return attempted, plain, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spangle" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'spangle'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spangle

    if Path(spangle.__file__).resolve().parent != (SRC / "spangle").resolve():
        print(f"perfbench: imported spangle from {spangle.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.make(args.workload, args.seed, workdir, ROOT)
    run = traced_run if args.trace else timed_run
    attempted, checked, metrics, detail = run(args.workload, workload, args.seconds, workdir)

    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": checked.failed / attempted,
        "readme_tol_miss_frac": checked.missed / attempted,
        "max_angle_err_rad": checked.max_angle_err,
        "first_error": checked.first_error,
        "machine": machine.facts(ROOT),
    })
    result = {
        "correct": checked.failed == 0,
        "attempted": attempted,
        "failed": checked.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

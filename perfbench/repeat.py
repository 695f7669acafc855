"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--trace 0|1]
                                [--seconds S] [--out FILE]

Runs one seed after another (never in parallel, which would disturb the
timings) from the root of this checkout and prints, per metric, every
value, the median, the quartiles and their distance as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives them.  ``--out``
also writes the summary, with each run's detail line, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs, values = [], {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        *_, detail_line, result_line = proc.stdout.strip().splitlines()
        result = json.loads(result_line)
        runs.append({"seed": seed, "detail": json.loads(detail_line), "result": result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    stats = {name: summary(vals) for name, vals in values.items()}
    for name, s in stats.items():
        spread = s.get("spread")
        print(f"{name:45s} median {s['median']:.6g}" + (f"  spread {spread:.4f}" if spread is not None else ""))
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                                        "metrics": stats, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

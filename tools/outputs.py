"""Every output a change could move, written once per tree and compared.

    PYTHONPATH=TREE/src python tools/outputs.py write OUT.jsonl
    python tools/outputs.py diff A.jsonl B.jsonl

``write`` runs the spangle found on ``PYTHONPATH`` in process and writes
one JSON record per output:

- the stdout and exit code of ``angle``, ``principal``, ``angle
  --oriented`` (on lists of equal length) and ``geodesic --t 0.3`` over
  a 300-pair corpus of the benchmark's generator, at n in {4, 8, 64};
- the full-precision ``pair_op`` results (what ``spangle angle``
  computes, as the benchmark runs it) over that corpus and over the
  pairs-small and pairs-large pools at seeds 1 and 7, up to n = 256;
- ``random --out`` at n in {8, 64}, both fields, two seeds: stdout and
  the file written;
- default ``verify`` and ``verify --suite all --trials 20 --dim-max 8``;
- ``run_suites('all', s, t, 8)`` for the verify-all benchmark's suite
  seeds s = 42..57, at t = 1 and t = 20 trials.

The corpus and the pools come from ``perfbench/generate.py`` and the op
from ``perfbench/probe.py`` of the checkout holding this file, imported
without writing bytecode there, so two trees are run on the same inputs.

``diff`` prints, per command and pool category, how many outputs moved
(any byte of the record); then, per value path (list indices dropped,
verify suites and checks named), how many values moved, the largest
|delta| and the largest shift in ulps; then the first few moved records.
It exits 1 when anything moved, else 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import difflib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# pair_pool's (seed, per_field, pmax): 50 pairs per field at each n.
CORPUS = (7, {4: 50, 8: 50, 64: 50}, {4: 4, 8: 8, 64: 32})
# The pools of perfbench/workloads.make, built here without the
# reference route it computes for every pair.
POOLS = {
    "pairs-small": ({4: 280, 8: 280}, {4: 4, 8: 8}),
    "pairs-large": ({64: 40, 256: 80}, {64: 32, 256: 128}),
}
POOL_SEEDS = (1, 7)
PAIR_COMMANDS = (("angle",), ("principal",), ("geodesic", "--t", "0.3"), ("angle", "--oriented"))
VERIFY_COMMANDS = (("verify",), ("verify", "--suite", "all", "--trials", "20", "--dim-max", "8"))
SUITE_SEEDS = range(42, 58)
SUITE_TRIALS = (1, 20)
PAIR_OP_FIELDS = ("dim_left", "dim_right", "report", "principal_angles", "theta_right_left", "fubini_study")
LABELS = ("key", "command", "category")
SHOWN = 5  # moved records that diff prints
SHOWN_LINES = 12  # diff lines printed of each


def _plain(x):
    """``x`` as JSON values: dataclasses as objects, arrays as lists,
    complex numbers as [re, im]."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if hasattr(x, "tolist"):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


def _cli(main, args: list[str]) -> dict:
    """The stdout and exit code of one in-process CLI run.  An exception
    the command does not handle ends a process with exit 1 and a
    traceback; it is recorded the same way, with its type and message."""
    out, code = io.StringIO(), 0
    with contextlib.redirect_stdout(out):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            return {"stdout": out.getvalue(), "exit": 1, "error": f"{type(exc).__name__}: {exc}"}
    return {"stdout": out.getvalue(), "exit": code}


def _pair_op(probe, spangle, pair) -> dict:
    return dict(zip(PAIR_OP_FIELDS, _plain(probe.pair_op(spangle, *pair.inputs()))))


def write(out_path: str) -> None:
    """Write one JSON record a line to ``out_path`` for each output listed
    in the module docstring."""
    sys.dont_write_bytecode = True  # before perfbench's modules are imported
    sys.path.insert(0, str(PERFBENCH))
    # One BLAS thread, before numpy loads, as the benchmark runs: the bits
    # then do not hang on the machine's CPU count, and a loaded machine
    # does not slow the run down many times over.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    import generate
    import probe
    import spangle
    from spangle.cli import main
    from spangle.verify import run_suites

    cwd = os.getcwd()
    with open(out_path, "w", encoding="utf-8") as out, tempfile.TemporaryDirectory() as tmp:

        def add(key: str, command: str, category: str | None, **output) -> None:
            record = {"key": key, "command": command, "category": category, **output}
            out.write(json.dumps(record, sort_keys=True) + "\n")

        # The documents, and random's --out, are written under their bare
        # names in the temporary directory, so no path of it reaches stdout.
        os.chdir(tmp)
        try:
            for i, pair in enumerate(generate.pair_pool(*CORPUS)):
                for name, side in (("left.json", pair.left), ("right.json", pair.right)):
                    with open(name, "w", encoding="utf-8") as fh:
                        fh.write(json.dumps(generate.subspace_document(side, pair.n, pair.field)))
                for command, *options in PAIR_COMMANDS:
                    if options == ["--oriented"] and len(pair.left) != len(pair.right):
                        continue
                    label = " ".join([command, *options])
                    add(f"{label} {i}", label, pair.category, **_cli(main, [command, "left.json", "right.json", *options]))
                add(f"pair_op corpus {i}", "pair_op corpus", pair.category, value=_pair_op(probe, spangle, pair))
            for pool, (per_field, pmax) in POOLS.items():
                for seed in POOL_SEEDS:
                    for i, pair in enumerate(generate.pair_pool(seed, per_field, pmax)):
                        value = _pair_op(probe, spangle, pair)
                        add(f"pair_op {pool} {seed}:{i}", f"pair_op {pool}", pair.category, value=value)
            for n in (8, 64):
                for field in ("real", "complex"):
                    for seed in (1, 2):
                        args = ["random", str(n), str(n // 2), "--field", field, "--seed", str(seed), "--out", "random.json"]
                        output = _cli(main, args)
                        with contextlib.suppress(OSError), open("random.json", encoding="utf-8") as fh:
                            output["file"] = fh.read()
                        with contextlib.suppress(OSError):
                            os.remove("random.json")
                        add(" ".join(args[:-2]), "random --out", field, **output)
            for args in VERIFY_COMMANDS:
                add(" ".join(args), " ".join(args), None, **_cli(main, list(args)))
            for trials in SUITE_TRIALS:
                for seed in SUITE_SEEDS:
                    value = [r.as_dict() for r in run_suites("all", seed, trials, 8)]
                    add(f"run_suites {seed} {trials}", "run_suites", None, value=value)
        finally:
            os.chdir(cwd)


def _read(path: str) -> dict:
    """key -> (line, record) of each record of a file that ``write`` wrote."""
    with open(path, encoding="utf-8") as fh:
        return {record["key"]: (line, record) for line, record in ((line, json.loads(line)) for line in fh)}


def _tree(record: dict) -> dict:
    """A record's outputs, with each text that holds a JSON document
    (a CLI run's stdout, random's file) parsed."""
    tree = {}
    for name, value in record.items():
        if name in LABELS:
            continue
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                value = json.loads(value)
        tree[name] = value
    return tree


def _leaves(x, key: tuple = (), path: str = ""):
    """``(key, path, leaf)`` for each leaf of ``x``.  ``key`` locates the
    leaf; ``path`` names it with list indices dropped, and a list entry
    that names itself (a verify suite or check) is keyed and named by
    that name."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, key + (k,), f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            name = v.get("name", v.get("suite")) if isinstance(v, dict) else None
            if name is None:
                yield from _leaves(v, key + (i,), path)
            else:
                yield from _leaves(v, key + (name,), f"{path}.{name}")
    else:
        yield key, path, x


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _ordinal(x: float) -> int:
    """The float ``x`` as an integer that counts floats in order (-0.0
    and 0.0 both 0), so that two floats differ by as many ulps as their
    ordinals do."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return bits if bits < 1 << 63 else (1 << 63) - bits


def _lines(record: dict) -> list[str]:
    """A record's outputs as text lines, for a line diff."""
    lines = []
    for name in sorted(set(record) - set(LABELS)):
        value = record[name]
        text = value if isinstance(value, str) else json.dumps(value, indent=1)
        lines += f"{name}: {text}".splitlines()
    return lines


def diff(path_a: str, path_b: str) -> int:
    a, b = _read(path_a), _read(path_b)
    keys = list(a) + [k for k in b if k not in a]
    commands = {}  # command -> category -> [moved, total]
    values = {}  # (command, path) -> [moved, total, largest |delta|, largest ulps]
    moved = {}  # key of each moved output -> lines that say how it moved
    for key in keys:
        line_a, rec_a = a.get(key, (None, None))
        line_b, rec_b = b.get(key, (None, None))
        rec = rec_a or rec_b
        count = commands.setdefault(rec["command"], {}).setdefault(rec["category"], [0, 0])
        count[1] += 1
        if rec_a is None or rec_b is None:
            count[0] += 1
            moved[key] = [f"only in {path_a if rec_b is None else path_b}"]
            continue
        leaves_a = {k: (p, v) for k, p, v in _leaves(_tree(rec_a))}
        leaves_b = {k: (p, v) for k, p, v in _leaves(_tree(rec_b))}
        how = []
        for k in list(leaves_a) + [k for k in leaves_b if k not in leaves_a]:
            both = k in leaves_a and k in leaves_b
            path, x = leaves_a[k] if k in leaves_a else leaves_b[k]
            y = leaves_b[k][1] if both else None
            stat = values.setdefault((rec["command"], path), [0, 0, 0.0, 0])
            stat[1] += 1
            if both and repr(x) == repr(y):
                continue
            stat[0] += 1
            how.append(".".join(map(str, k)) + (f": {x!r} -> {y!r}" if both else ": on one side only"))
            if _is_number(x) and _is_number(y):
                delta = abs(float(y) - float(x))
                if delta == delta:  # not NaN
                    stat[2] = max(stat[2], delta)
                stat[3] = max(stat[3], abs(_ordinal(float(y)) - _ordinal(float(x))))
        if line_a != line_b:
            count[0] += 1
            # Equal values in different bytes (a layout change) show as text.
            moved[key] = how or list(difflib.unified_diff(_lines(rec_a), _lines(rec_b), n=0, lineterm=""))[2:]

    print(f"outputs moved, by command and pool category ({path_a} -> {path_b}):")
    width = max(map(len, commands), default=0)
    for command, categories in commands.items():
        moved_here = sum(m for m, _ in categories.values())
        total = sum(t for _, t in categories.values())
        split = ", ".join(f"{c} {m} of {t}" for c, (m, t) in categories.items() if m and c is not None)
        print(f"  {command:<{width}}  {moved_here} of {total}" + (f"  ({split})" if split else ""))
    moved_values = {k: v for k, v in values.items() if v[0]}
    if moved_values:
        print("values moved, by command and path (list indices dropped):")
        for (command, path), (count, total, delta, ulps) in moved_values.items():
            print(f"  {command}: {path}  {count} of {total}, largest |delta| {delta:.3g}, largest shift {ulps:.3g} ulp")
    if not moved:
        print("nothing moved")
        return 0
    print(f"{len(moved)} of {len(keys)} outputs moved; the first {min(SHOWN, len(moved))}:")
    for key, how in list(moved.items())[:SHOWN]:
        print(f"--- {key}")
        for line in how[:SHOWN_LINES]:
            print(f"    {line}")
    return 1


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print("usage: outputs.py write OUT.jsonl | outputs.py diff A.jsonl B.jsonl", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The four workloads: seeded inputs, one op, and the check of its result.

Every workload is a closed loop driven from one thread: the next op
starts when the previous one has returned.  ``op(k)`` runs the k-th op
(inputs cycle through a seeded pool); ``check(k, out)`` compares its
result with the reference, outside the timed region; ``label(k)`` names
the category of the k-th input, for the per-category times.  Spangle
functions are looked up on their modules at call time, so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import generate
import reference
from probe import pair_op


def child_env(root: Path) -> dict:
    """This process's environment, with the program's ``src`` first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class PairsWorkload:
    """What ``spangle angle`` computes for one pair, in process."""

    def __init__(self, seed: int, per_field: dict[int, int], pmax: dict[int, int], tail: int, probe_shape, kernel: str):
        import spangle

        self.sp = spangle
        self.tail = tail
        self.kernel = kernel
        self.pool: list[generate.Inputs] = []
        self.categories: list[str] = []
        self.refs: list[reference.PairReference] = []
        for pair in generate.pair_pool(seed, per_field, pmax):
            self.pool.append(pair.inputs())
            self.categories.append(pair.category)
            self.refs.append(reference.reference(pair.ref_left, pair.ref_right, pair.field == "complex"))
        self.cycle = len(self.pool)
        self.pool_spec = {"seed": seed, "per_field": per_field, "pmax": pmax}
        # The set-up op has a fixed shape, so set-up time does not vary
        # with the seed; its values still come from the seed.
        n, p = probe_shape
        self.probe_pair = generate.make_pair(np.random.default_rng([seed, 2**31]), n, "real", "generic", p, p)

    def op(self, k: int):
        return pair_op(self.sp, *self.pool[k % self.cycle])

    def label(self, k: int) -> str:
        return self.categories[k % self.cycle]

    def check(self, k: int, out) -> reference.Verdict:
        dim_left, dim_right, rep, angles, back, fs = out
        as_cli = {
            "dim_left": dim_left,
            "dim_right": dim_right,
            "principal_angles": [float(a) for a in angles],
            "theta_left_right": rep.theta,
            "theta_right_left": back,
            "theta_perp": rep.theta_perp,
            "theta_min_sym": rep.theta_min_sym,
            "theta_max_sym": rep.theta_max_sym,
            "projection_factor": rep.projection_factor,
            "fubini_study": fs,
        }
        return reference.check_angle_report(as_cli, self.refs[k % self.cycle])

    def warm_up(self) -> None:
        for k in range(min(self.cycle, 50)):
            self.op(k)

    def probe_spec(self) -> dict:
        pair = self.probe_pair
        return {
            "kind": "pair",
            "left": generate.subspace_document(pair.left, pair.n, pair.field),
            "right": generate.subspace_document(pair.right, pair.n, pair.field),
        }

    def footprint_specs(self) -> list[dict]:
        return [{"kind": "footprint", "pool": self.pool_spec}]


class VerifyWorkload:
    """``verify.run_suites("all", suite_seed, trials=1, dim_max=8)`` per op.

    Outside load on a shared machine slows code by up to 40% in phases
    that can last seconds, so only a short op finds undisturbed stretches often enough
    for its times to be steady; at trials=200 an op takes 4-7 s and its
    times spread by 30% from run to run.  One trial per suite still
    reaches every suite's code.  The suite seeds are a fixed set, in an
    order drawn from the run's seed: the cost of an op varies by 15% or
    more with its suite seed (the oracle's cost grows as 4^n), more than a
    run's inputs average out.
    """

    SUITE_SEEDS = tuple(range(42, 58))
    TRIALS = 1
    DIM_MAX = 8

    def __init__(self, seed: int):
        import spangle.verify

        self.verify = spangle.verify
        self.suite_seeds = [int(s) for s in np.random.default_rng(seed).permutation(self.SUITE_SEEDS)]
        self.cycle = len(self.suite_seeds)
        self.tail = 90
        self.kernel = "python"

    def op(self, k: int):
        return self.verify.run_suites("all", self.suite_seeds[k % self.cycle], trials=self.TRIALS, dim_max=self.DIM_MAX)

    def label(self, k: int) -> None:
        return None

    def check(self, k: int, out) -> reference.Verdict:
        return reference.Verdict(ok=len(out) == len(self.verify.SUITE_NAMES) and all(r.passed for r in out))

    def warm_up(self) -> None:
        self.op(0)

    def probe_spec(self) -> dict:
        return {"kind": "verify", "seed": self.suite_seeds[0], "trials": self.TRIALS, "dim_max": self.DIM_MAX}

    def footprint_specs(self) -> list[dict]:
        return [{"kind": "footprint", "suite_seeds": self.suite_seeds, "trials": self.TRIALS, "dim_max": self.DIM_MAX}]


@dataclass(frozen=True)
class Command:
    kind: str  # "angle", "oriented", "principal" or "random"
    args: tuple[str, ...]
    pair: int = -1  # index into CliWorkload.refs, for the pair commands


class CliWorkload:
    """A serial loop of ``python -m spangle.cli`` child processes."""

    NS = (4, 8, 64)
    SPECIAL = ("near_coincident", "intersecting", "nested", "orthogonal", "zero_dim", "rank_deficient")

    def __init__(self, seed: int, workdir: Path, root: Path):
        from click.testing import CliRunner

        import spangle.cli

        self.cli = spangle.cli
        self.runner = CliRunner()
        self.workdir = workdir
        self.root = root
        self.tail = 90
        self.kernel = "spawn"
        self.env = child_env(root)
        rng = np.random.default_rng(seed)
        self.refs: list[reference.PairReference] = []
        specials = iter(rng.permutation(self.SPECIAL))
        commands: list[Command] = []
        strata = [(n, field) for n in self.NS for field in generate.FIELDS]
        # One command per stratum, the kinds in turn; ``angle --oriented``
        # gets an equal-dimension generic pair, the other pair commands
        # special pairs.  Few commands give each one many repetitions.
        for i, (n, field) in enumerate(strata):
            kind = ("angle", "oriented", "principal", "random")[i % 4]
            p = int(rng.integers(1, n // 2 + 1))
            q = int(rng.integers(1, n // 2 + 1))
            if kind == "random":
                seed_arg = str(int(rng.integers(0, 2**31)))
                commands.append(Command(kind, ("random", str(n), str(q), "--field", field, "--seed", seed_arg)))
                continue
            if kind == "oriented":
                pair = generate.make_pair(rng, n, field, "generic", p, p)
            else:
                pair = generate.make_pair(rng, n, field, str(next(specials)), p, q)
            index = self._write_pair(pair)
            flags = ("angle", "--oriented") if kind == "oriented" else (kind,)
            commands.append(Command(kind, (*flags, *self._paths(index)), index))
        self.commands = [commands[i] for i in rng.permutation(len(commands))]
        self.cycle = len(self.commands)
        # The setup copy of each random document, made by the program in
        # process; every timed call must reproduce it byte for byte.
        self.random_copies = {}
        for i, cmd in enumerate(self.commands):
            if cmd.kind == "random":
                path = workdir / f"random-setup-{i}.json"
                result = self.runner.invoke(self.cli.main, [*cmd.args, "--out", str(path)])
                if result.exit_code != 0:
                    raise RuntimeError(f"setup copy of {cmd.args} failed: {result.stdout}")
                self.random_copies[i] = path.read_bytes()

    def _write_pair(self, pair: generate.Pair) -> int:
        index = len(self.refs)
        for side, vectors in (("left", pair.left), ("right", pair.right)):
            doc = generate.subspace_document(vectors, pair.n, pair.field)
            (self.workdir / f"pair{index}-{side}.json").write_text(json.dumps(doc), encoding="utf-8")
        # The reference reads the documents back, so it sees the exact
        # floats the program parses.
        left, right = (
            generate.decode_document(json.loads((self.workdir / f"pair{index}-{s}.json").read_text()))
            for s in ("left", "right")
        )
        self.refs.append(
            reference.reference(_full_rank(left, pair.ref_left), _full_rank(right, pair.ref_right), pair.field == "complex")
        )
        return index

    def _paths(self, index: int) -> tuple[str, str]:
        return str(self.workdir / f"pair{index}-left.json"), str(self.workdir / f"pair{index}-right.json")

    def args(self, k: int) -> list[str]:
        cmd = self.commands[k % self.cycle]
        if cmd.kind == "random":
            return [*cmd.args, "--out", str(self.workdir / f"random-{k}.json")]
        return list(cmd.args)

    def op(self, k: int):
        proc = subprocess.run(
            [sys.executable, "-m", "spangle.cli", *self.args(k)],
            capture_output=True,
            cwd=self.root,
            env=self.env,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def label(self, k: int) -> str:
        return self.commands[k % self.cycle].kind

    def op_in_process(self, k: int):
        result = self.runner.invoke(self.cli.main, self.args(k))
        return result.exit_code, result.stdout_bytes

    def check(self, k: int, out) -> reference.Verdict:
        code, stdout = out
        index = k % self.cycle
        cmd = self.commands[index]
        if code != 0:
            return reference.Verdict(ok=False)
        try:
            data = json.loads(stdout)
        except ValueError:
            return reference.Verdict(ok=False)
        if cmd.kind == "random":
            path = self.workdir / f"random-{k}.json"
            ok = path.is_file() and path.read_bytes() == self.random_copies[index]
            path.unlink(missing_ok=True)
            return reference.Verdict(ok=ok)
        ref = self.refs[cmd.pair]
        if cmd.kind == "principal":
            return reference.check_principal(data, ref)
        verdict = reference.check_angle_report(data, ref)
        if cmd.kind == "oriented":
            verdict.merge(reference.check_oriented(data, ref))
        return verdict

    def warm_up(self) -> None:
        self.op(0)

    def probe_spec(self) -> dict:
        return {"kind": "cli", "args": self.args(0)}

    def footprint_specs(self) -> list[dict]:
        """One command per fresh interpreter, as a CLI call has it."""
        return [{"kind": "footprint", "cli_args": self.args(k)} for k in range(self.cycle)]


def _full_rank(vectors: list, generator: np.ndarray) -> np.ndarray:
    """The spanning list as a matrix when it has full column rank, else
    the generator matrix it was built from (rank-deficient lists)."""
    if len(vectors) == generator.shape[1]:
        return np.column_stack(vectors) if vectors else generator
    return generator


WORKLOADS = ("pairs-small", "pairs-large", "verify-all", "cli-angle")


def make(name: str, seed: int, workdir: Path, root: Path):
    if name == "pairs-small":
        return PairsWorkload(seed, {4: 280, 8: 280}, {4: 4, 8: 8}, tail=99, probe_shape=(8, 4), kernel="python")
    if name == "pairs-large":
        # Two thirds of the pairs at n=256, so that the median lies inside
        # the n=256 cluster rather than in the gap between the two sizes.
        return PairsWorkload(seed, {64: 40, 256: 80}, {64: 32, 256: 128}, tail=90, probe_shape=(256, 64),
                             kernel="lapack")
    if name == "verify-all":
        return VerifyWorkload(seed)
    if name == "cli-angle":
        return CliWorkload(seed, workdir, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from spangle.cli import main
from spangle.io import dump_json, load_subspace_file, write_subspace_file
from spangle.linalg import Field
from spangle.subspace import from_spanning


@pytest.fixture
def runner():
    return CliRunner()


def write_doc(path, field, ambient_dim, vectors):
    doc = {"field": field, "ambient_dim": ambient_dim, "vectors": vectors}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def real_pair_files(tmp_path):
    s = 1 / math.sqrt(2)
    left = write_doc(tmp_path / "v.json", "real", 4, [[s, 0, s, 0], [0, s, 0, s]])
    right = write_doc(tmp_path / "w.json", "real", 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    return left, right


class TestAngleCommand:
    def test_golden_real_pair_degrees(self, runner, real_pair_files):
        left, right = real_pair_files
        result = runner.invoke(main, ["angle", left, right, "--degrees"])
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        assert out["units"] == "degrees"
        np.testing.assert_allclose(out["principal_angles"], [45.0, 45.0], atol=1e-7)
        assert out["theta_left_right"] == pytest.approx(60.0, abs=1e-6)
        assert out["theta_perp"] == pytest.approx(60.0, abs=1e-6)
        assert out["projection_factor"] == pytest.approx(0.5, abs=1e-9)
        assert out["fubini_study"] == pytest.approx(60.0, abs=1e-6)

    def test_same_file_twice(self, runner, real_pair_files):
        left, _ = real_pair_files
        result = runner.invoke(main, ["angle", left, left])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["theta_left_right"] == 0.0
        assert out["theta_right_left"] == 0.0
        assert out["theta_perp"] == pytest.approx(math.pi / 2)

    def test_mismatched_ambient_dims_exit_2(self, runner, tmp_path, real_pair_files):
        left, _ = real_pair_files
        bad = write_doc(tmp_path / "bad.json", "real", 3, [[1, 0, 0]])
        result = runner.invoke(main, ["angle", left, bad])
        assert result.exit_code == 2
        out = json.loads(result.output)
        assert out["field"] == "ambient_dim"

    def test_invalid_json_exit_2_names_field(self, runner, tmp_path, real_pair_files):
        left, _ = real_pair_files
        bad = tmp_path / "broken.json"
        bad.write_text('{"field": "real", "ambient_dim": 2, "vectors": [[1, "x"]]}')
        result = runner.invoke(main, ["angle", left, str(bad)])
        assert result.exit_code == 2
        out = json.loads(result.output)
        assert out["field"] == "right:vectors[0][1]"

    # The bad entry sits at vectors[1][2] (real) or vectors[1][1] (complex).
    NON_FINITE_DOCS = {
        "real": ('[[1, 0, 0], [1, 0, {}]]', "vectors[1][2]", [[1, 0, 0]]),
        "complex": (
            '[[[0, 1], [0, 0], [0, 0]], [[1, 0], [0, {}], [0, 0]]]',
            "vectors[1][1]",
            [[[1, 0], [0, 0], [0, 0]]],
        ),
    }

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_non_finite_entry_exit_2_names_entry(self, runner, tmp_path, token, field):
        vectors, where, good_vectors = self.NON_FINITE_DOCS[field]
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"field": "{field}", "ambient_dim": 3, "vectors": {vectors.format(token)}}}')
        good = write_doc(tmp_path / "good.json", field, 3, good_vectors)
        for args, side in (([str(bad), good], "left"), ([good, str(bad)], "right")):
            result = runner.invoke(main, ["angle", *args])
            assert result.exit_code == 2, result.output
            out = json.loads(result.output)
            assert out["field"] == f"{side}:{where}"
            assert "finite" in out["error"]

    def test_oriented_flag(self, runner, tmp_path):
        left = write_doc(
            tmp_path / "a.json",
            "complex",
            3,
            [[[1, 0], [0, 1], [0, 0]], [[0, 1], [-1, 0], [-1, 0]]],
        )
        right = write_doc(
            tmp_path / "b.json", "complex", 3, [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
        )
        result = runner.invoke(main, ["angle", left, right, "--oriented"])
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        assert out["oriented"]["magnitude"] == pytest.approx(math.pi / 4, abs=1e-9)
        assert out["oriented"]["phase"] == pytest.approx(math.pi, abs=1e-9)
        np.testing.assert_allclose(
            out["oriented"]["cos_value"], [-math.sqrt(2) / 2, 0.0], atol=1e-9
        )

    def test_oriented_requires_equal_dims(self, runner, tmp_path, real_pair_files):
        left, _ = real_pair_files
        line = write_doc(tmp_path / "line.json", "real", 4, [[1, 0, 0, 0]])
        result = runner.invoke(main, ["angle", left, line, "--oriented"])
        assert result.exit_code == 2

    def test_oriented_rank_deficient_list_exits_2(self, runner, tmp_path, kahan_vectors, rng):
        """The left list ranks 59 like the right one, so the dimensions
        match; orientation then rejects it with a JSON error."""
        left = write_doc(tmp_path / "kahan.json", "real", 60, [v.tolist() for v in kahan_vectors])
        right = write_doc(tmp_path / "gauss.json", "real", 60, rng.standard_normal((59, 60)).tolist())
        result = runner.invoke(main, ["angle", left, right, "--oriented"])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        out = json.loads(result.output)
        assert out["field"] == "vectors"
        assert "independent" in out["error"]


class TestPrincipalCommand:
    def test_reports_angles(self, runner, real_pair_files):
        left, right = real_pair_files
        result = runner.invoke(main, ["principal", left, right, "--degrees"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        np.testing.assert_allclose(out["principal_angles"], [45.0, 45.0], atol=1e-7)
        assert out["dim_left"] == 2 and out["dim_right"] == 2


class TestRandomCommand:
    def test_deterministic_output_bytes(self, runner, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                ["random", "6", "3", "--field", "complex", "--seed", "9", "--out", str(out)],
            )
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_dimension_valid(self, runner, tmp_path):
        out = tmp_path / "zero.json"
        result = runner.invoke(main, ["random", "4", "0", "--seed", "1", "--out", str(out)])
        assert result.exit_code == 0
        V, vectors = load_subspace_file(str(out))
        assert V.dim == 0 and vectors == []

    def test_full_dimension_self_angle_zero(self, runner, tmp_path):
        out = tmp_path / "full.json"
        runner.invoke(main, ["random", "3", "3", "--seed", "2", "--out", str(out)])
        result = runner.invoke(main, ["angle", str(out), str(out)])
        data = json.loads(result.output)
        assert data["theta_left_right"] == 0.0

    def test_invalid_dims_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["random", "3", "5", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        assert json.loads(result.output)["field"] == "dim"


@pytest.mark.parametrize("command", [["random", "4", "2"], ["verify", "--trials", "1"]])
def test_negative_seed_exit_2(runner, command):
    result = runner.invoke(main, command + ["--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert json.loads(result.output)["field"] == "seed"
    assert "nonnegative" in runner.invoke(main, [command[0], "--help"]).output


@pytest.mark.parametrize(
    "command, field",
    [
        (["verify", "--trials", "abc"], "trials"),
        (["angle", "--bogus"], "bogus"),
        (["nope"], "usage"),
        (["random"], "ambient_dim"),
    ],
)
def test_usage_error_exit_2_json(runner, command, field):
    """click's own usage errors come out as the JSON error, naming the
    option or argument, like every other failure."""
    result = runner.invoke(main, command)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    out = json.loads(result.output)
    assert out["field"] == field
    assert out["error"]


def test_bare_command_prints_help(runner):
    result = runner.invoke(main, [])
    assert result.output.startswith("Usage:")
    assert "verify" in result.output


class TestVerifyCommand:
    def test_small_run_passes(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--suite", "bounds", "--dim-max", "4", "--trials", "10", "--seed", "42"],
        )
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        assert out["passed"] is True
        assert out["suites"][0]["suite"] == "bounds"

    def test_zero_trials_vacuous_note(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "oriented", "--trials", "0"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert "0 trials" in out["note"]

    def test_unknown_suite_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "bogus", "--trials", "1"])
        assert result.exit_code == 2
        assert json.loads(result.output)["field"] == "suite"

    @pytest.mark.parametrize("dim_max", ["1", "9", "40"])
    def test_dim_max_out_of_range_exit_2(self, runner, dim_max):
        result = runner.invoke(main, ["verify", "--suite", "oriented", "--trials", "1", "--dim-max", dim_max])
        assert result.exit_code == 2
        assert json.loads(result.output)["field"] == "dim-max"

    def test_all_suites_smoke(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--suite", "all", "--dim-max", "5", "--trials", "15", "--seed", "42"],
        )
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        assert len(out["suites"]) == 5
        assert out["passed"] is True

    def test_injected_bug_fails_suite(self, runner, monkeypatch):
        from spangle import exterior

        monkeypatch.setattr(exterior, "shuffle_sign", lambda a, b: 1)
        result = runner.invoke(
            main,
            ["verify", "--suite", "oracle-equivalence", "--dim-max", "5", "--trials", "40"],
        )
        assert result.exit_code == 1
        out = json.loads(result.output)
        assert out["passed"] is False


class TestGeodesicCommand:
    def test_endpoint_reproduces_target(self, runner, tmp_path):
        t = 0.7
        left = write_doc(tmp_path / "u.json", "real", 3, [[1, 0, 0], [0, 1, 0]])
        right = write_doc(
            tmp_path / "w.json", "real", 3, [[1, 0, 0], [0, math.cos(t), math.sin(t)]]
        )
        result = runner.invoke(main, ["geodesic", left, right, "--t", str(t)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        V = from_spanning(
            [np.array(v) for v in doc["vectors"]], Field.REAL, ambient_dim=3
        )
        target, _ = load_subspace_file(right)
        from spangle.subspace import spans_equal

        assert spans_equal(V, target)

    def test_codimension_error_exit_2(self, runner, tmp_path):
        left = write_doc(tmp_path / "u.json", "real", 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        right = write_doc(tmp_path / "w.json", "real", 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        result = runner.invoke(main, ["geodesic", left, right, "--t", "0.3"])
        assert result.exit_code == 2
        assert "codimension" in json.loads(result.output)["error"]

    def test_zero_subspaces_exit_2(self, runner, tmp_path):
        left = write_doc(tmp_path / "u.json", "real", 0, [])
        right = write_doc(tmp_path / "w.json", "real", 0, [])
        result = runner.invoke(main, ["geodesic", left, right, "--t", "0.3"])
        assert result.exit_code == 2
        assert json.loads(result.output) == {"error": "geodesics need nonzero subspaces", "field": "vectors"}


    @pytest.mark.parametrize(
        "option, value", [("--t", "nan"), ("--t", "inf"), ("--phase", "inf"), ("--phase", "-inf"), ("--phase", "nan")]
    )
    def test_non_finite_parameter_exit_2_names_option(self, runner, tmp_path, option, value):
        left = write_doc(tmp_path / "u.json", "complex", 3, [[1, 0, 0], [0, 1, 0]])
        right = write_doc(tmp_path / "w.json", "complex", 3, [[1, 0, 0], [0, 0.6, 0.8]])
        args = ["geodesic", left, right, "--t", "0.3", option, value]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        out = json.loads(result.output)
        assert out["field"] == option.removeprefix("--")
        assert "finite" in out["error"]

    def test_real_nan_t_exit_2(self, runner, tmp_path):
        left = write_doc(tmp_path / "u.json", "real", 3, [[1, 0, 0], [0, 1, 0]])
        right = write_doc(tmp_path / "w.json", "real", 3, [[1, 0, 0], [0, 0.6, 0.8]])
        result = runner.invoke(main, ["geodesic", left, right, "--t", "nan"])
        assert result.exit_code == 2, result.output
        assert json.loads(result.output) == {"error": "t must be finite", "field": "t"}


class TestIoRoundTrip:
    def test_document_round_trip(self, tmp_path, rng):
        from spangle.sampling import haar_subspace
        from spangle.subspace import spans_equal

        for field in (Field.REAL, Field.COMPLEX):
            V = haar_subspace(rng, 5, 3, field)
            path = tmp_path / f"{field.value}.json"
            write_subspace_file(str(path), V)
            W, _ = load_subspace_file(str(path))
            assert spans_equal(V, W)

    def test_dump_json_deterministic(self):
        a = dump_json({"b": 1.0, "a": [2.0, 3.0]})
        b = dump_json({"a": [2.0, 3.0], "b": 1.0})
        assert a == b
        assert a.endswith("\n")


def test_angle_commands_do_not_load_the_verify_stack():
    """A fresh interpreter that imports the CLI loads neither verify nor
    the modules only verify needs; every export still resolves."""
    import spangle

    src = os.path.dirname(os.path.dirname(spangle.__file__))
    code = (
        "import sys, spangle.cli\n"
        "heavy = [m for m in ('verify', 'exterior', 'identities', 'gram') if 'spangle.' + m in sys.modules]\n"
        "assert not heavy, heavy\n"
        "import spangle\n"
        "missing = [n for n in spangle.__all__ if getattr(spangle, n, None) is None]\n"
        "assert not missing, missing\n"
        "print(len(spangle.__all__))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "75"  # 67 functions and classes, 8 modules

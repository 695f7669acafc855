import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from spangle.cli import main
from spangle.io import MAX_ENTRIES, dump_json, load_subspace_file, parse_subspace_document, write_subspace_file
from spangle.linalg import Field
from spangle.sampling import gaussian_matrix, haar_subspace
from spangle.subspace import from_spanning, spans_equal


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
        assert V.dim == 0 and vectors.shape == (4, 0)

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

    @pytest.mark.parametrize("args", [["100000000", "1000"], ["4194305", "0"], ["2049", "2048"]])
    def test_oversized_request_exits_2_before_drawing(self, runner, monkeypatch, args):
        """The size bound is checked on the arguments: the sampler is never reached."""

        def unreachable(*_):
            raise AssertionError("haar_subspace reached")

        monkeypatch.setattr("spangle.sampling.haar_subspace", unreachable)
        result = runner.invoke(main, ["random", *args, "--field", "complex"])
        assert result.exit_code == 2, result.output
        out = json.loads(result.output)
        assert out["field"] == "dim" and str(MAX_ENTRIES) in out["error"]
        assert str(MAX_ENTRIES) in runner.invoke(main, ["random", "--help"]).output


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


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    import spangle

    src = os.path.dirname(os.path.dirname(spangle.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# What importing the command line loads of the package; each command adds
# the modules it computes with.
_CLI_MODULES = {"spangle", "spangle._suites", "spangle.cli", "spangle.io", "spangle.linalg", "spangle.subspace"}


def test_angle_commands_do_not_load_the_verify_stack():
    """A fresh interpreter that imports the CLI loads only the modules
    every command shares (none of verify's stack, nor the modules that
    compute); every export still resolves."""
    code = (
        "import sys, spangle.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'spangle'))\n"
        "import spangle\n"
        "missing = [n for n in spangle.__all__ if getattr(spangle, n, None) is None]\n"
        "assert not missing, missing\n"
        "print(len(spangle.__all__))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, exports = proc.stdout.splitlines()
    assert loaded == str(sorted(_CLI_MODULES))
    assert exports == "74"  # 66 functions and classes, 8 modules


def _imported_modules(importtime: str) -> set[str]:
    """The package's modules in a ``python -X importtime`` report."""
    names = (line.rsplit("|", 1)[-1].strip() for line in importtime.splitlines() if line.startswith("import time:"))
    return {name for name in names if name.split(".")[0] == "spangle"}


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["angle", "U", "W"], {"principal", "angles"}),
        (["angle", "U", "W", "--degrees", "--oriented"], {"principal", "angles"}),
        (["angle", "A", "B", "--oriented"], {"principal", "angles"}),
        (["principal", "U", "W"], {"principal"}),
        (["random", "5", "2", "--field", "complex", "--seed", "3", "--out", "OUT"], {"sampling"}),
        (["geodesic", "U", "W", "--t", "0.25"], {"principal", "angles", "metrics"}),
        (["angle", "BAD", "W"], set()),
        (["principal", "U", "BAD"], set()),
    ],
)
def test_child_process_prints_what_main_prints(runner, tmp_path, argv, loads):
    """``python -m spangle.cli`` exits with the code and prints the bytes
    that ``main`` gives under CliRunner, writes the same file, and loads
    only its own command's modules beyond the shared ones."""
    t = 0.4
    paths = {
        "U": write_doc(tmp_path / "u.json", "real", 3, [[1, 0, 0], [0, 1, 0]]),
        "W": write_doc(tmp_path / "w.json", "real", 3, [[1, 0, 0], [0, math.cos(t), math.sin(t)]]),
        "A": write_doc(tmp_path / "a.json", "complex", 3, [[[1, 0], [0, 1], [0, 0]], [[0, 1], [-1, 0], [-1, 0]]]),
        "B": write_doc(tmp_path / "b.json", "complex", 3, [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]),
        "BAD": write_doc(tmp_path / "bad.json", "real", 3, [[1, 0, "x"]]),
        "OUT": str(tmp_path / "out.json"),
    }
    args = [paths.get(a, a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "spangle.cli", *args],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    written = (tmp_path / "out.json").read_bytes() if "OUT" in argv else None
    result = runner.invoke(main, args)
    assert (proc.returncode, proc.stdout.encode()) == (result.exit_code, result.stdout_bytes)
    assert written is None or (tmp_path / "out.json").read_bytes() == written
    assert proc.returncode == (2 if "BAD" in argv else 0)
    assert _imported_modules(proc.stderr) == _CLI_MODULES - {"spangle.cli"} | {f"spangle.{m}" for m in loads}


def test_oriented_angle_orients_the_loaded_subspaces(runner, tmp_path, monkeypatch):
    """``angle --oriented`` orthonormalizes each document once, as plain
    ``angle`` does: it orients the subspaces it loaded."""
    import spangle.subspace

    calls = []
    orthonormalize = spangle.subspace.orthonormalize_columns
    monkeypatch.setattr(spangle.subspace, "orthonormalize_columns", lambda M: calls.append(M.shape) or orthonormalize(M))
    left = write_doc(tmp_path / "v.json", "real", 6, np.eye(6)[:3].tolist())
    right = write_doc(tmp_path / "w.json", "real", 6, (np.eye(6)[:3] + np.eye(6)[3:]).tolist())
    for argv in (["angle", left, right], ["angle", left, right, "--oriented"]):
        calls.clear()
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert calls == [(6, 3), (6, 3)]


@pytest.mark.parametrize(
    "argv",
    [["angle", "BIG", "V"], ["principal", "V", "BIG"], ["geodesic", "BIG", "V", "--t", "0.5"]],
)
@pytest.mark.parametrize(
    "ambient_dim, vectors",
    [(MAX_ENTRIES + 1, []), (MAX_ENTRIES // 2, [["x"], [], []])],
)
def test_oversized_document_exits_2_before_any_entry_is_read(runner, tmp_path, monkeypatch, argv, ambient_dim, vectors):
    """A document of more than 2**22 entries, ambient_dim * max(1,
    len(vectors)), is refused before its entries are read or spanned."""
    import spangle.io

    span = spangle.io._span

    def small_only(M, field):
        assert M.shape[0] == 2, "_span reached on the oversized document"
        return span(M, field)

    monkeypatch.setattr(spangle.io, "_span", small_only)
    paths = {
        "BIG": write_doc(tmp_path / "big.json", "real", ambient_dim, vectors),
        "V": write_doc(tmp_path / "v.json", "real", 2, [[1, 0]]),
    }
    result = runner.invoke(main, [paths.get(a, a) for a in argv])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    out = json.loads(result.output)
    side = "left" if argv[1] == "BIG" else "right"
    assert out["field"] == f"{side}:vectors"
    assert f"<= {MAX_ENTRIES}, got {ambient_dim} * {max(1, len(vectors))}" in out["error"]


def test_largest_document_is_read(runner, tmp_path):
    """A document of exactly 2**22 entries is within the bound."""
    path = write_doc(tmp_path / "zero.json", "real", MAX_ENTRIES, [])
    result = runner.invoke(main, ["principal", path, path])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["principal_angles"] == []


@pytest.mark.parametrize("over", [1, 0])
@pytest.mark.parametrize("side", ["left", "right"])
def test_document_over_the_byte_cap_exits_2_unread(runner, tmp_path, monkeypatch, side, over):
    """A file one byte over MAX_DOCUMENT_BYTES exits 2 with one JSON error
    naming its side's document, and json.load is never called on it; a
    file of exactly that size reaches json.load.  The file is sparse
    (os.truncate), so it takes no disk, and the patched json.load reads
    none of it."""
    import spangle.io

    big = str(tmp_path / "big.json")
    open(big, "wb").close()
    os.truncate(big, spangle.io.MAX_DOCUMENT_BYTES + over)
    small = write_doc(tmp_path / "v.json", "real", 2, [[1, 0]])
    json_load, loaded = json.load, []

    def guarded_load(fh):
        loaded.append(fh.name)
        if fh.name == big:
            assert not over, "json.load reached on a file over the byte cap"
            return {"field": "real", "ambient_dim": 2, "vectors": [[0, 1]]}
        return json_load(fh)

    monkeypatch.setattr(spangle.io.json, "load", guarded_load)
    paths = [big, small] if side == "left" else [small, big]
    result = runner.invoke(main, ["angle", *paths])
    if over:
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        out = json.loads(result.output)
        assert out == {
            "field": f"{side}:document",
            "error": f"document: need at most {spangle.io.MAX_DOCUMENT_BYTES} bytes, "
            f"the file has {spangle.io.MAX_DOCUMENT_BYTES + 1}",
        }
        assert big not in loaded
    else:
        assert result.exit_code == 0, result.output
        assert big in loaded


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_no_number_is_written_longer_than_the_cap_allows(x):
    """Every finite number encode_number writes is at most as long as the
    one MAX_DOCUMENT_BYTES is derived from."""
    from spangle.io import _LONGEST_ENTRY, encode_number

    assert len(json.dumps(encode_number(x, Field.REAL))) <= len(json.dumps(_LONGEST_ENTRY[0]))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (5, 2), (9, 9), (64, 32)])
def test_every_written_document_fits_the_byte_cap(tmp_path, field, n, k):
    """MAX_DOCUMENT_BYTES extends dump_json's layout linearly: a document
    of k vectors of n longest entries is one entry's document plus n k - 1
    entries and k - 1 vectors, and a document write_subspace_file writes
    is no longer.  The cap is that length at n = k = isqrt(MAX_ENTRIES),
    the most entries, and with them the most vectors, a subspace within
    MAX_ENTRIES has."""
    import spangle.io as sio

    def bound(n, k):
        return sio._ONE_ENTRY_BYTES + (n * k - 1) * sio._ENTRY_BYTES + (k - 1) * sio._VECTOR_BYTES

    if k:
        assert sio._document_bytes([[sio._LONGEST_ENTRY] * n] * k) == bound(n, k)
    V = haar_subspace(np.random.default_rng(n + k), n, k, Field(field))
    path = tmp_path / "doc.json"
    write_subspace_file(str(path), V)
    assert os.path.getsize(path) <= bound(n, k)
    side = math.isqrt(MAX_ENTRIES)
    assert side * side == MAX_ENTRIES and sio.MAX_DOCUMENT_BYTES == bound(side, side)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("n, k", [(6, 3), (40, 20), (20, 40)])
def test_a_document_spans_as_its_vectors_do(tmp_path, field, n, k):
    """parse_subspace_document gives the column-major matrix of the
    document's vectors, and load_subspace_file's subspace is from_spanning's
    of the same vectors, bit for bit (on the QR route too, at k >= 16)."""
    rows = gaussian_matrix(np.random.default_rng(n * k), k, n, field)
    entries = [[[z.real, z.imag] for z in r] if field is Field.COMPLEX else list(r) for r in rows.tolist()]
    path = write_doc(tmp_path / "doc.json", field.value, n, entries)
    with open(path, encoding="utf-8") as fh:
        parsed_field, ambient_dim, M = parse_subspace_document(json.load(fh))
    assert (parsed_field, ambient_dim) == (field, n)
    assert M.shape == (n, k) and M.flags.f_contiguous and M.T.tobytes() == rows.tobytes()
    V, vectors = load_subspace_file(path)
    W = from_spanning(rows, field)
    assert vectors.tobytes() == M.tobytes()
    assert V.dim == W.dim and V.basis.tobytes() == W.basis.tobytes()


_REAL_PAIR = '{"field": "real", "ambient_dim": 2, "vectors": [[1, 0]]}'
_COMPLEX_LINE = '{"field": "complex", "ambient_dim": 2, "vectors": [[[1, 0], [0, 1]]]}'


@pytest.mark.parametrize(
    "right, argv, field",
    [
        ("[1, 2]", ["angle"], "right:document"),
        ('{"ambient_dim": 2, "vectors": []}', ["angle"], "right:field"),
        ('{"field": "quaternion", "ambient_dim": 2, "vectors": []}', ["angle"], "right:field"),
        ('{"field": "real", "vectors": []}', ["angle"], "right:ambient_dim"),
        ('{"field": "real", "ambient_dim": -1, "vectors": []}', ["angle"], "right:ambient_dim"),
        ('{"field": "real", "ambient_dim": 2}', ["angle"], "right:vectors"),
        ('{"field": "real", "ambient_dim": 2, "vectors": 5}', ["angle"], "right:vectors"),
        ('{"field": "real", "ambient_dim": 2, "vectors": [[1, 0], 5]}', ["angle"], "right:vectors[1]"),
        ('{"field": "real", "ambient_dim": 2, "vectors": [[1, 0], [1]]}', ["principal"], "right:vectors[1]"),
        ('{"field": "complex", "ambient_dim": 2, "vectors": [[[1, 0], [0, 1, 2]]]}', ["angle"], "right:vectors[0][1]"),
        ('{"field": ', ["principal"], "right:document"),
        (None, ["angle"], "right"),
        (_COMPLEX_LINE, ["angle"], "field"),
        (_REAL_PAIR, ["--bogus", "angle"], "bogus"),
        (_REAL_PAIR, ["verify", "--trials", "-1"], "trials"),
    ],
)
def test_rejected_input_exits_2_with_one_json_error(runner, tmp_path, right, argv, field):
    """Each malformed document, unreadable path or bad option exits 2 and
    prints one JSON object naming the offending entry, without a traceback."""
    left = write_doc(tmp_path / "v.json", "real", 2, [[1, 0]])
    right_path = tmp_path / "w.json"
    if right is not None:
        right_path.write_text(right)
    args = argv + ([left, str(right_path)] if argv[-1] in ("angle", "principal") else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    out = json.loads(result.output)
    assert set(out) == {"error", "field"} and out["error"]
    assert out["field"] == field


def test_random_writes_its_document_to_stdout(runner):
    result = runner.invoke(main, ["random", "3", "2", "--field", "complex", "--seed", "5"])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    doc = json.loads(result.output)
    assert (doc["field"], doc["ambient_dim"], len(doc["vectors"])) == ("complex", 3, 2)
    assert result.output == dump_json(doc)


def test_geodesic_out_writes_the_point_to_a_file(runner, tmp_path):
    t = 0.4
    left = write_doc(tmp_path / "u.json", "real", 3, [[1, 0, 0], [0, 1, 0]])
    right = write_doc(tmp_path / "w.json", "real", 3, [[1, 0, 0], [0, math.cos(t), math.sin(t)]])
    out_path = str(tmp_path / "point.json")
    result = runner.invoke(main, ["geodesic", left, right, "--t", str(t), "--out", out_path])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert json.loads(result.output) == {"out": out_path}
    assert spans_equal(load_subspace_file(out_path)[0], load_subspace_file(right)[0])

"""``tools/outputs.py diff`` on small files of hand-made records, in the
layout ``write`` gives them: one JSON object a line, with the output's
key, command and pool category."""

import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"

STDOUT = {"dim_left": 2, "principal_angles": [0.5, 1.0]}
RECORDS = [
    {"key": "angle 0", "command": "angle", "category": "generic", "exit": 0, "stdout": json.dumps(STDOUT, indent=2) + "\n"},
    {
        "key": "pair_op corpus 0",
        "command": "pair_op corpus",
        "category": "generic",
        "value": {"principal_angles": [0.25, 0.75], "report": {"theta": 1.0}},
    },
    {
        "key": "run_suites 42 1",
        "command": "run_suites",
        "category": None,
        "value": [
            {
                "suite": "bounds",
                "passed": True,
                "checks": [{"name": "slack", "max_residual": 2.0**-53}, {"name": "spread", "max_residual": 0.0}],
            }
        ],
    },
]


def _load_tool():
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outputs():
    return _load_tool()


def _diff(outputs, tmp_path, capsys, records_b):
    paths = []
    for name, records in (("a.jsonl", RECORDS), ("b.jsonl", records_b)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        paths.append(str(path))
    code = outputs.main(["diff", *paths])
    return code, capsys.readouterr().out


def test_importing_the_tool_leaves_the_interpreter_as_it_was():
    path, no_bytecode = list(sys.path), sys.dont_write_bytecode
    _load_tool()
    assert sys.path == path
    assert sys.dont_write_bytecode == no_bytecode


def test_a_file_against_itself_moves_nothing(outputs, tmp_path, capsys):
    code, out = _diff(outputs, tmp_path, capsys, RECORDS)
    assert code == 0
    assert "nothing moved" in out
    assert re.search(r"^  angle +0 of 1$", out, re.M)


@pytest.mark.parametrize(
    "index, where, path, shown, total",
    [
        (1, ["principal_angles", 1], "value.principal_angles", "value.principal_angles.1", 2),
        (2, [0, "checks", 1, "max_residual"], "value.bounds.checks.spread.max_residual",
         "value.bounds.checks.spread.max_residual", 1),
    ],
)
def test_a_planted_ulp_is_one_value_moved_by_one_ulp(outputs, tmp_path, capsys, index, where, path, shown, total):
    records = json.loads(json.dumps(RECORDS))
    parent = records[index]["value"]
    for step in where[:-1]:
        parent = parent[step]
    old = parent[where[-1]]
    parent[where[-1]] = math.nextafter(old, 1.0)
    code, out = _diff(outputs, tmp_path, capsys, records)
    assert code == 1
    assert f"  {RECORDS[index]['command']}: {path}  1 of {total}, " in out
    assert "largest shift 1 ulp" in out
    assert "1 of 3 outputs moved" in out
    assert f"    {shown}: {old!r} -> {math.nextafter(old, 1.0)!r}\n" in out


def test_equal_values_in_other_bytes_are_reported(outputs, tmp_path, capsys):
    records = json.loads(json.dumps(RECORDS))
    records[0]["stdout"] = json.dumps(STDOUT, indent=4) + "\n"
    code, out = _diff(outputs, tmp_path, capsys, records)
    assert code == 1
    assert re.search(r"^  angle +1 of 1  \(generic 1 of 1\)$", out, re.M)
    assert "values moved" not in out
    assert "--- angle 0" in out


def test_a_record_on_one_side_only_is_reported(outputs, tmp_path, capsys):
    extra = {"key": "verify", "command": "verify", "category": None, "exit": 0, "stdout": "{}\n"}
    code, out = _diff(outputs, tmp_path, capsys, RECORDS + [extra])
    assert code == 1
    assert re.search(r"^  verify +1 of 1$", out, re.M)
    assert "--- verify\n    only in " in out

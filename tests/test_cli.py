"""End-to-end coverage of the command-line front end.

Golden outputs are byte-compared through a real subprocess; the exit-code
taxonomy and the JSON schema are exercised both in process and out.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from loopfusion import cli
from loopfusion.errors import NumericalError, ValidationError

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("fusion_a1_k2.json", ["fusion", "--algebra", "A1", "--level", "2", "--weights", "1;1"]),
    ("report_a1_h1_wall.json", ["report", "--algebra", "A1", "--level", "1", "--weights", "2"]),
    ("induce_a1_h1.json", ["induce", "--algebra", "A1", "--level", "1", "--weights", "3"]),
]


def run_cli(args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "loopfusion", *args],
        capture_output=True,
        env=env,
    )


@pytest.mark.parametrize("fname,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs_are_byte_identical(fname, args):
    proc = run_cli(args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / fname).read_bytes()


def test_identical_invocations_are_deterministic():
    args = GOLDEN_CASES[0][1]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


ALL_SUBCOMMANDS = [
    ["roots", "--algebra", "G2"],
    ["dim", "--algebra", "A2", "--weights", "1,1"],
    ["tensor", "--algebra", "A2", "--weights", "1,0;0,1"],
    ["reduce", "--algebra", "A1", "--level", "1", "--weights=3;-1"],
    ["fusion", "--algebra", "A1", "--level", "2", "--weights", "1;1"],
    ["verlinde", "--algebra", "A1", "--level", "1", "--genus", "1"],
    ["report", "--algebra", "A1", "--level", "1", "--weights", "1"],
    ["induce", "--algebra", "A1", "--level", "1", "--weights", "0"],
    ["check", "--algebra", "A1", "--level", "1", "--weights", "1;1"],
    ["check", "--algebra", "A1", "--level", "1", "--genus", "1"],
]


@pytest.mark.parametrize("args", ALL_SUBCOMMANDS, ids=lambda a: " ".join(a))
def test_every_subcommand_emits_schema_stable_json(args, capsys):
    assert cli.main(args) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert list(payload) == ["algebra", "level", "result", "meta"]
    assert "kappa" in payload["meta"]
    # canonical compact serialization plus one trailing newline
    assert text == json.dumps(payload, separators=(",", ":")) + "\n"


def test_table_format_is_aligned_ascii(capsys):
    assert cli.main(["fusion", "--algebra", "A1", "--level", "2", "--weights", "1;1", "--format", "table"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert any(line.startswith("algebra") for line in lines)
    assert any("result[0].weight" in line for line in lines)
    assert out.isascii()
    # two-column layout: keys padded to one shared width
    width = max(len(line.split(None, 1)[0]) for line in lines)
    for line in lines:
        key = line.split(None, 1)[0]
        assert line.startswith(key.ljust(width) + "  ")


def test_reduce_reports_raw_point_semantics(capsys):
    # reduce takes arbitrary integer vectors, not alcove labels
    assert cli.main(["reduce", "--algebra", "A1", "--level", "1", "--weights=-2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = payload["result"][0]
    assert entry["input"] == [-2]
    assert entry["reduced"] == [2]
    assert entry["status"] == "interior"
    assert entry["length"] == 1
    assert entry["sign"] == -1


def test_check_dispatches_on_genus(capsys):
    assert cli.main(["check", "--algebra", "A1", "--level", "1", "--genus", "2"]) == 0
    fact = json.loads(capsys.readouterr().out)
    assert set(fact["result"]) == {"lhs", "rhs", "equal"}
    assert isinstance(fact["result"]["lhs"], int)
    assert cli.main(["check", "--algebra", "A1", "--level", "1", "--weights", "1;0"]) == 0
    hom = json.loads(capsys.readouterr().out)
    assert hom["result"]["equal"] is True
    assert isinstance(hom["result"]["lhs"], list)


def test_usage_errors_exit_2():
    assert run_cli([]).returncode == 2
    assert run_cli(["fusion", "--algebra", "A1", "--frobnicate"]).returncode == 2
    assert run_cli(["no-such-subcommand", "--algebra", "A1"]).returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ["fusion", "--algebra", "Z9", "--level", "2", "--weights", "1;1"],
        ["fusion", "--algebra", "A1", "--level", "1", "--weights", "2;0"],
        ["fusion", "--algebra", "A1", "--level", "2", "--weights", "1"],
        ["fusion", "--algebra", "A1", "--level=-1", "--weights", "1;1"],
        ["dim", "--algebra", "A1", "--weights", "x,y"],
        ["induce", "--algebra", "A1", "--level", "1", "--weights", "1;2"],
    ],
    ids=["bad-algebra", "outside-alcove", "arity", "negative-level", "non-integer", "induce-arity"],
)
def test_validation_errors_exit_3(args):
    proc = run_cli(args)
    assert proc.returncode == 3
    assert b"error" in proc.stderr


def test_numerical_gate_exits_4(monkeypatch, capsys):
    import loopfusion.verlinde as verlinde

    def explode(*args, **kwargs):
        raise NumericalError("rounding residual above tolerance")

    monkeypatch.setattr(verlinde, "s_matrix", explode)
    assert cli.main(["verlinde", "--algebra", "A1", "--level", "1", "--genus", "1"]) == 4
    assert capsys.readouterr().out == ""


def test_resource_cap_exits_5():
    import os

    env = dict(os.environ, LOOPFUSION_WEYL_CAP="1")
    proc = run_cli(["verlinde", "--algebra", "A2", "--level", "1", "--genus", "1"], env=env)
    assert proc.returncode == 5
    assert b"resource" in proc.stderr


def test_malformed_weyl_cap_exits_3():
    import os

    env = dict(os.environ, LOOPFUSION_WEYL_CAP="abc")
    proc = run_cli(["verlinde", "--algebra", "A2", "--level", "1", "--genus", "1"], env=env)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"LOOPFUSION_WEYL_CAP" in proc.stderr and b"'abc'" in proc.stderr


def test_weight_list_parsing_units():
    assert cli.parse_weight_list("") == []
    assert cli.parse_weight_list("1,2;3,4") == [(1, 2), (3, 4)]
    assert cli.parse_weight_list(" 5 ") == [(5,)]
    with pytest.raises(ValidationError):
        cli.parse_weight_list("1,,2")
    with pytest.raises(ValidationError):
        cli.parse_weight_list("1;;2")

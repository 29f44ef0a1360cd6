"""End-to-end coverage of the command-line front end.

Golden outputs are byte-compared through a real subprocess; the exit-code
taxonomy and the JSON schema are exercised both in process and out.
"""

import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

from loopfusion import cli
from loopfusion.errors import NumericalError, ResourceError, ValidationError
from loopfusion.rootdata import build_root_system
from loopfusion.verlinde import Surface, verlinde_dimension

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


# stdout, stderr and exit code of every subcommand in both formats and of the
# error paths, frozen from the CLI before it ran on argparse's namespace; the
# entries that pass a subcommand an option it does not declare were frozen
# again once the subcommand's parser refused them (exit 2, its own usage
# line), with a usage line wide enough that no Python version wraps it
FROZEN = json.loads((GOLDEN / "cli_queries.json").read_text())


def main_exit(args):
    """cli.main's exit code, argparse's usage exit included."""
    try:
        return cli.main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", FROZEN, ids=[" ".join(c["args"]) for c in FROZEN])
def test_queries_answer_byte_for_byte_as_frozen(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps its usage to the terminal
    assert main_exit(case["args"]) == case["exit"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


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


# the options each subcommand reads besides --algebra, --level and --format
READS = {
    "roots": (),
    "dim": ("--weights",),
    "tensor": ("--weights",),
    "reduce": ("--weights",),
    "fusion": ("--weights",),
    "verlinde": ("--weights", "--genus", "--boundary"),
    "report": ("--weights", "--genus", "--boundary"),
    "induce": ("--weights",),
    "check": ("--weights", "--genus", "--boundary"),
}


@pytest.mark.parametrize("name", cli.SUBCOMMANDS)
def test_each_subcommand_takes_only_the_options_it_reads(name, capsys):
    assert set(READS) == set(cli.SUBCOMMANDS)
    parser = cli.build_parser()
    for common in (["--level", "2"], ["--format", "table"]):
        parser.parse_args([name, "--algebra", "A1", *common])
    for option in ("--weights", "--genus", "--boundary"):
        args = [name, "--algebra", "A1", option, "1"]
        if option in READS[name]:
            assert getattr(parser.parse_args(args), option[2:]) == (1 if option == "--genus" else "1")
        else:
            assert main_exit(args) == 2
            assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_a_refused_option_names_its_subcommand(capsys, monkeypatch):
    # the subcommand's parser refuses it, under its own usage line, not the
    # top-level parser with the list of subcommands
    monkeypatch.setenv("COLUMNS", "200")
    for name in cli.SUBCOMMANDS:
        assert main_exit([name, "--algebra", "A1", "--frobnicate", "2"]) == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith(f"usage: loopfusion {name} [-h] --algebra ALGEBRA")
        assert error == f"loopfusion {name}: error: unrecognized arguments: --frobnicate 2"


def test_an_absent_or_undeclared_option_reads_as_empty():
    for name in cli.SUBCOMMANDS:
        args = cli.build_parser().parse_args([name, "--algebra", "A1"])
        assert (args.weights, args.boundary, args.genus) == ("", None, None)


def test_check_refuses_a_boundary_without_a_genus(capsys):
    for boundary in ("1", ""):
        args = ["check", "--algebra", "A1", "--level", "1", "--weights", "1;1", "--boundary", boundary]
        assert cli.main(args) == 3
        assert capsys.readouterr() == ("", "error: check --boundary needs --genus\n")
    # a malformed boundary is still the first fault, as where --boundary is read
    assert cli.main(["check", "--algebra", "A1", "--boundary", "x"]) == 3
    assert "weight entry 'x'" in capsys.readouterr().err
    # with a genus the boundary is read: one A1 boundary label at genus 1
    assert cli.main(["check", "--algebra", "A1", "--level", "1", "--genus", "1", "--boundary", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["equal"] is True


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
    def explode(*args, **kwargs):
        raise NumericalError("rounding residual above tolerance")

    monkeypatch.setattr(cli, "verlinde_dimension", explode)
    assert cli.main(["verlinde", "--algebra", "A1", "--level", "1", "--genus", "1"]) == 4
    assert capsys.readouterr().out == ""


def test_resource_cap_exits_5():
    import os

    env = dict(os.environ, LOOPFUSION_WEYL_CAP="1")
    proc = run_cli(["verlinde", "--algebra", "A2", "--level", "2", "--genus", "1"], env=env)
    assert proc.returncode == 5
    assert b"resource" in proc.stderr
    # A2's three level-1 labels form one simple-current orbit: the build copies
    # the vacuum and builds no weight system, so the cap is never read
    proc = run_cli(["verlinde", "--algebra", "A2", "--level", "1", "--genus", "1"], env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == 3


def test_inputs_past_the_caps_exit_5():
    huge = str(2**45)
    proc = run_cli(["tensor", "--algebra", "A1", "--weights", f"{huge};{huge}"])
    assert proc.returncode == 5 and proc.stdout == b""
    proc = run_cli(["verlinde", "--algebra", "A1", "--level", "500", "--genus", "2"])
    assert proc.returncode == 5 and proc.stdout == b""
    proc = run_cli(["verlinde", "--algebra", "A1", "--level", "1", "--genus", "1000000"])
    assert proc.returncode == 5 and proc.stdout == b""


@pytest.mark.parametrize("algebra,level", [("A1", 100000000), ("E8", 200)])
def test_huge_levels_are_refused_before_the_labels_are_listed(algebra, level):
    rs = build_root_system(algebra)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="fusion matrices"):
        verlinde_dimension(rs, level, Surface(genus=2))
    assert time.perf_counter() - start < 1.0
    proc = run_cli(["verlinde", "--algebra", algebra, "--level", str(level), "--genus", "2"])
    assert proc.returncode == 5 and proc.stdout == b""


def test_fusion_past_int64_answers_exactly():
    k, big = 2**64, 2**63
    proc = run_cli(["fusion", "--algebra", "A1", "--level", str(k), "--weights", f"1;{big}"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result == [{"weight": [big - 1], "coeff": 1}, {"weight": [big + 1], "coeff": 1}]


def test_long_exact_numbers_print_in_full():
    # 2^20000 has 6021 decimal digits, past Python's default conversion limit
    proc = run_cli(["verlinde", "--algebra", "A1", "--level", "1", "--genus", "20000"])
    assert proc.returncode == 0
    digits = re.search(rb'"result":(\d+),', proc.stdout).group(1)
    assert len(digits) == 6021
    assert int(digits[-18:]) == pow(2, 20000, 10**18)


def test_malformed_weyl_cap_exits_3():
    import os

    env = dict(os.environ, LOOPFUSION_WEYL_CAP="abc")
    proc = run_cli(["verlinde", "--algebra", "A2", "--level", "2", "--genus", "1"], env=env)
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


FOOTPRINT = """
import sys

def loaded(*names):
    return [m for m in names if m in sys.modules]

import loopfusion
import loopfusion.cli
print(loaded("dataclasses", "fractions", "decimal"))

import numpy as np
from loopfusion import AffineContext, Surface, alcove_reduce, build_root_system, induce, verlinde_dimension
from loopfusion.affine_weyl import alcove_reduce_batch

rs = build_root_system("E6")
ctx = AffineContext(rs, 2)
alcove_reduce(ctx, (40, -3, 7, 0, 25, -11))
alcove_reduce_batch(ctx, np.array([(40, -3, 7, 0, 25, -11), (1, 2, 3, 4, 5, 6)], dtype=np.int64))
induce(rs, 2, (3, 0, 1, 0, 0, 2))
verlinde_dimension(build_root_system("A2"), 3, Surface(2, insertions=((1, 1),)))
print(loaded("fractions"))
"""


def test_integer_work_loads_no_dataclasses_fractions_or_decimal():
    # records are NamedTuples and fractions is imported only where a Fraction
    # is made or tested, so neither the import nor integer work loads them
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]

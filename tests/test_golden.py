"""The CLI's stdout, byte for byte, against the reports in golden_cli.json.

Each case is an argv, run in process with `--no-cache` and without
`--timing`, with its recorded exit code and exact stdout.  The input files
of FILES are written to a temporary directory that becomes the working
directory, so a path quoted in a message reads the same on every machine.
The cases cover every subcommand, the README examples, each kind of value
(rationals, `EMPTY`, null, nested lists, `_approx` floats) and the error
reports of exits 1 and 2.  Renaming a payload key, or a field of a record a
handler returns whole, changes the bytes and fails here.

After an intended change of output, record the reports again with

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hyperpos import cli

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

FILES = {
    # the README's worked-example inputs
    "conf.json": {"ambient": 2, "variety": [], "family": ["x0", "x1", "x2"]},
    "conic.json": {"ambient": 2, "polys": ["x0*x2 - x1^2"]},
    "pts.txt": "1,1,2\n1,2,3\n",
    # five lines with rational coefficients; the rounding knob, and a seed key
    # that configs may still carry and that is ignored
    "mixed.json": {"ambient": 2, "variety": [],
                   "family": ["x0", "x1", "x2", "x0 + x1 + x2", "1/2*x0 - 3*x1"],
                   "precision": 6, "seed": 3},
    # two lines through one point: every member meets, so l and two bounds are null
    "pencil.json": {"ambient": 2, "variety": [], "family": ["x0", "x1"]},
    "quadric.json": {"ambient": 3, "variety": ["x0*x3 - x1*x2"],
                     "family": ["x0", "x1", "x2", "x3", "x0 + 2/3*x3"]},
    "cubic.json": {"ambient": 3, "polys": [{"vars": 4, "terms": [
                       {"exp": [1, 0, 1, 0], "coef": "1/1"},
                       {"exp": [0, 2, 0, 0], "coef": "-1/1"}]},
                   "x1*x3 - x2^2", "x0*x3 - x1*x2"]},
    "void.json": {"ambient": 1, "polys": ["x0", "x1"]},
    "mixed_pts.txt": "1,1,1\n2,3,5\n-4,1,7\n6,-5,12\n",
    "on_member.txt": "1,0,2\n",
}

CASES = [
    ["parse", "--poly", "1/2*x0^2 - x1*x2 + 3*x2^2", "--nvars", "3"],
    ["parse", "--poly", "x0 - x0", "--nvars", "2"],
    ["dim", "--ideal", "conic.json"],
    ["dim", "--ideal", "void.json"],
    ["delta", "--config", "conf.json"],
    ["delta", "--config", "mixed.json", "--table"],
    ["classify", "--config", "conf.json"],
    ["classify", "--config", "mixed.json"],
    ["classify", "--config", "pencil.json"],
    ["profile", "--config", "conf.json"],
    ["profile", "--config", "mixed.json", "--order", "5,3,1,2,4"],
    ["replace", "--config", "conf.json"],
    ["replace", "--config", "quadric.json"],
    ["schedule", "--t", "0,2,3,7"],
    ["ineq", "--t", "0,1,3", "--a", "5/2,4/3"],
    ["hilbert", "--ideal", "conic.json", "--u", "5"],
    ["hweight", "--variety", "conic.json", "--u", "2", "--c", "1,0,0", "--oracle"],
    ["hweight", "--variety", "cubic.json", "--u", "2", "--c", "1/2,0,2,1", "--oracle"],
    ["efcheck", "--variety", "conic.json", "--u", "3", "--c", "1,1,0", "--subset", "0,2"],
    ["efcheck", "--variety", "cubic.json", "--u", "4", "--c", "1,2,0,3", "--subset", "0,3"],
    ["m0", "--n", "2", "--d", "2", "--degv", "3", "--delta", "3/2", "--q", "7",
     "--eps", "1/5"],
    ["compare", "--n", "2", "--ambient", "4", "--l", "4", "--kappa", "1", "--q", "9"],
    ["height", "--point", "1,2,3"],
    ["height", "--scalar=-20/9"],
    ["height", "--poly", "2*x0 + 3/4*x1", "--nvars", "2"],
    ["weil", "--poly", "x0 + 2*x1", "--nvars", "3", "--point", "1,2,3", "--place", "oo"],
    ["weil", "--poly", "x0 + 2*x1", "--nvars", "3", "--point", "1,2,3", "--place", "5"],
    ["pfcheck", "--x=-20/9"],
    ["margin", "--config", "conf.json", "--points", "pts.txt", "--eps", "1/2"],
    ["margin", "--config", "conf.json", "--points", "pts.txt", "--eps", "1/2",
     "--delta", "2"],
    ["margin", "--config", "mixed.json", "--points", "mixed_pts.txt", "--eps", "1/3",
     "--primes", "2,3"],
    # exit 2: a domain error names itself in the payload
    ["pfcheck", "--x", "0"],
    ["profile", "--config", "conf.json", "--order", "1,1,2"],
    ["ineq", "--t", "0,9100", "--a", "3"],
    ["efcheck", "--variety", "conic.json", "--u", "2", "--c", "1,1,0", "--subset", "0,2"],
    ["hweight", "--variety", "cubic.json", "--u", "3", "--c", "1/2,0,2,1", "--oracle"],
    ["margin", "--config", "conf.json", "--points", "on_member.txt", "--eps", "1/2"],
    # exit 1: a missing input file, and a missing flag (argparse prints no report)
    ["dim", "--ideal", "missing.json"],
    ["schedule"],
]


def write_inputs(directory):
    for name, content in FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (Path(directory) / name).write_text(text, encoding="utf-8")


def run_case(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv + ["--no-cache"])
    return code, buf.getvalue()


def recorded():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_cases_match_the_recording():
    assert [case["argv"] for case in recorded()] == CASES


def test_every_subcommand_is_covered():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in CASES} == set(sub.choices)
    assert {case["exit"] for case in recorded()} == {0, 1, 2}


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i][:3]))
def test_stdout_is_byte_identical(inputs, monkeypatch, capsys, index):
    case = recorded()[index]
    monkeypatch.chdir(inputs)
    code, out = run_case(case["argv"])
    capsys.readouterr()  # argparse's usage message goes to stderr
    assert (code, out) == (case["exit"], case["stdout"])


def float_keys(value, key=""):
    """The key that each float in `value` sits under, in document order."""
    if isinstance(value, float):
        return [key]
    if isinstance(value, dict):
        return [k for name, v in value.items() for k in float_keys(v, name)]
    if isinstance(value, list):
        return [k for v in value for k in float_keys(v, key)]
    return []


def test_floats_only_under_approx_keys():
    keys = [k for case in recorded() if case["stdout"]
            for k in float_keys(json.loads(case["stdout"]))]
    assert "slack_approx" in keys and "log_approx" in keys
    assert [k for k in keys if not k.endswith("_approx")] == []


def test_float_checker_finds_every_float():
    report = {"payload": {"slack": 0.5, "rows": [{"log_approx": 1.5, "x": [2.5, 1]}]}}
    assert float_keys(report) == ["slack", "log_approx", "x"]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        os.chdir(directory)
        cases = []
        for argv in CASES:
            code, out = run_case(argv)
            cases.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} cases in {GOLDEN}", file=sys.stderr)

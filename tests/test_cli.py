"""End-to-end checks of the command line interface.

Every invocation goes through main(argv) with an explicit cache flag so no
test touches the user-level cache directory.
"""

import importlib.util
import json
import math
import os
import sqlite3
import subprocess
import sys
import time
from contextlib import closing
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from conftest import cache_rows, drop_summary_rows, is_summary, write_rows
from hypothesis import given, settings
from hypothesis import strategies as st
from test_polyring import TOO_LONG, TOO_MANY_DIGITS
from test_walk import dense_plane_family

import hyperpos
from hyperpos import __version__, cli, groebner, polyring, position, replace
from hyperpos.groebner import DIMENSION_COUNTS, EMPTY
from hyperpos.polyring import poly_to_json


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out
    return invoke


@pytest.fixture()
def runj(run):
    def invoke(*argv):
        code, out = run(*argv)
        return code, json.loads(out)
    return invoke


@pytest.fixture()
def coord_config(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(
        {"ambient": 2, "variety": [], "family": ["x0", "x1", "x2"]}))
    return str(path)


@pytest.fixture()
def conic_ideal(tmp_path):
    path = tmp_path / "conic.json"
    path.write_text(json.dumps({"ambient": 2, "polys": ["x0*x2 - x1^2"]}))
    return str(path)


class TestEnvelope:
    def test_report_shape(self, runj):
        code, report = runj("pfcheck", "--x", "6", "--no-cache")
        assert code == 0
        assert sorted(report) == ["command", "digest", "payload", "version"]
        assert report["command"] == "pfcheck"
        assert report["version"] == __version__
        assert len(report["digest"]) == 64

    def test_timing_flag_adds_field(self, runj):
        _, plain = runj("pfcheck", "--x", "6", "--no-cache")
        _, timed = runj("pfcheck", "--x", "6", "--no-cache", "--timing")
        assert "timing_ms_approx" not in plain
        assert isinstance(timed["timing_ms_approx"], float)

    def test_timing_counts_the_cache_write(self, run, monkeypatch):
        events = []
        close, render, answer = groebner.close_cache, cli._render, cli.cmd_pfcheck
        monkeypatch.setattr(groebner, "close_cache", lambda: events.append("close") or close())
        monkeypatch.setattr(cli, "_render", lambda *a: events.append("render") or render(*a))
        monkeypatch.setattr(cli, "cmd_pfcheck", lambda a: events.append("answer") or answer(a))
        assert run("pfcheck", "--x", "6", "--no-cache", "--timing")[0] == 0
        # the stores are written after the answer and before the report takes the time
        assert events[events.index("answer"):][:3] == ["answer", "close", "render"]

    def test_byte_determinism(self, run, coord_config):
        first = run("delta", "--config", coord_config, "--no-cache")
        second = run("delta", "--config", coord_config, "--no-cache")
        assert first == second

    def test_digest_tracks_arguments(self, runj):
        _, one = runj("pfcheck", "--x", "6", "--no-cache")
        _, two = runj("pfcheck", "--x", "10", "--no-cache")
        assert one["digest"] != two["digest"]

    def test_digest_hashes_file_content(self, runj, tmp_path, conic_ideal):
        copy = tmp_path / "other_name.json"
        copy.write_text(json.dumps({"ambient": 2, "polys": ["x0*x2 - x1^2"]}))
        _, a = runj("dim", "--ideal", conic_ideal, "--no-cache")
        _, b = runj("dim", "--ideal", str(copy), "--no-cache")
        assert a["digest"] == b["digest"]

    def test_cache_flags_do_not_change_output(self, run, conic_ideal, tmp_path):
        cached = run("dim", "--ideal", conic_ideal,
                     "--cache-dir", str(tmp_path / "cache"))
        uncached = run("dim", "--ideal", conic_ideal, "--no-cache")
        assert cached == uncached


class TestExitCodes:
    def test_success_is_zero(self, run):
        code, _ = run("pfcheck", "--x", "6", "--no-cache")
        assert code == 0

    def test_help_is_zero(self, run):
        code, _ = run("--help")
        assert code == 0

    def test_version_is_zero(self, run):
        code, out = run("--version")
        assert code == 0
        assert out.strip() == __version__

    def test_unknown_subcommand_is_one(self, run, capsys):
        code = cli.main(["frobnicate"])
        capsys.readouterr()
        assert code == 1

    def test_missing_required_flag_is_one(self, capsys):
        code = cli.main(["pfcheck", "--no-cache"])
        capsys.readouterr()
        assert code == 1

    def test_missing_file_is_one(self, runj):
        code, report = runj("dim", "--ideal", "/no/such/file.json", "--no-cache")
        assert code == 1
        assert report["payload"] == {
            "error": "UsageError",
            "message": "[Errno 2] No such file or directory: '/no/such/file.json'"}

    def test_domain_error_is_two_with_name(self, runj):
        code, report = runj("pfcheck", "--x", "0", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "ZeroInput"

    @pytest.mark.parametrize("poly, error", [
        ("x0^99999999", "DegreeBudgetExceeded"),
        ("x0^600*x1^401", "DegreeBudgetExceeded"),
        # more digits than int() converts
        ("x0^" + "9" * 5000, "SyntaxError"),
    ])
    def test_oversized_exponent_is_two(self, runj, poly, error):
        code, report = runj("parse", "--poly", poly, "--nvars", "2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == error

    @pytest.mark.usefixtures("default_digit_limit")
    @pytest.mark.parametrize("poly, expected", TOO_MANY_DIGITS)
    def test_too_many_digits_is_two_at_their_position(self, runj, poly, expected):
        code, report = runj("parse", "--poly", poly, "--nvars", "2", "--no-cache")
        message = f"{expected} at position {poly.index(TOO_LONG)} has too many digits"
        assert (code, report["payload"]) == (2, {"error": "SyntaxError", "message": message})

    def test_non_ascii_digit_is_two(self, runj):
        # str.isdigit once read the Arabic-Indic three as an exponent of 3
        code, report = runj("parse", "--poly", "x0^٣", "--nvars", "2", "--no-cache")
        assert (code, report["payload"]) == (
            2, {"error": "SyntaxError", "message": "at position 3: expected exponent"})

    @pytest.mark.parametrize("argv, bad, other", [
        (("pfcheck", "--x", "{}"), ["1_0/\u0663", "\u0663"], "a/3"),
        (("schedule", "--t", "{}"), ["0,1_0,\u0663\u0663"], "0,a"),
        (("hilbert", "--ideal", "missing.json", "--u", "{}"), ["\u0663", "1_0"], "x"),
        (("weil", "--poly", "x0 + x1", "--nvars", "2", "--point", "1,1", "--place", "{}"),
         ["\u0663", "1_1"], "p"),
    ])
    def test_non_ascii_integer_argument_is_malformed(self, run, argv, bad, other, capsys):
        # int() took underscores and every Unicode digit: pfcheck answered for
        # 10/3, schedule for t = (0, 10, 33), hilbert for u = 3
        def refusal(text):
            code, out = run(*[a.format(text) for a in argv], "--no-cache")
            err = capsys.readouterr().err
            return code, out, err.split(":")[:3]
        expected = refusal(other)
        assert expected[:2] == (1, "")
        for text in bad:
            assert refusal(text) == expected, text

    @pytest.mark.parametrize("ambient", ["\u0662", "2_0"])
    def test_non_ascii_integer_in_json_is_malformed(self, runj, tmp_path, ambient):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"ambient": ambient, "variety": [], "family": ["x0", "x1"]}))
        code, report = runj("delta", "--config", str(config), "--no-cache")
        assert (code, report["payload"]) == (2, {
            "error": "DomainError", "message": f"ambient must be an integer, got {ambient!r}"})
        pts = tmp_path / "pts.txt"
        config.write_text(json.dumps({"ambient": 1, "variety": [], "family": ["x0", "x1"]}))
        for line in ("1,\u0663", "1,1_0", "1,a"):
            pts.write_text(line + "\n")
            code, report = runj("margin", "--config", str(config), "--points", str(pts),
                                "--eps", "1/2", "--no-cache")
            assert (code, report["payload"]["message"]) == (
                2, f"{pts}:1: expected comma-separated integers"), line

    def test_term_budget_is_two(self, runj, monkeypatch):
        monkeypatch.setattr(polyring, "MAX_TERMS", 1)
        code, report = runj("parse", "--poly", "x0 + x1", "--nvars", "2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "TermBudgetExceeded"

    IDEAL_COMMANDS = [("dim",), ("hilbert", "--u", "2"),
                      ("hweight", "--u", "2", "--c", "1,0"),
                      ("efcheck", "--u", "3", "--c", "1,0", "--subset", "0,1")]

    @pytest.mark.parametrize("command", IDEAL_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("ambient, polys, error", [
        (-1, [], "EmptyInput"),
        (polyring.MAX_VARIABLES, [], "VariableBudgetExceeded"),
        (polyring.MAX_VARIABLES, ["x0"], "VariableBudgetExceeded")])
    def test_variable_count_out_of_range_is_two(self, runj, tmp_path, command,
                                                ambient, polys, error):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"ambient": ambient, "polys": polys}))
        flag = "--ideal" if command[0] in ("dim", "hilbert") else "--variety"
        code, report = runj(command[0], flag, str(path), *command[1:], "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == error

    def test_not_sorted_surfaces_verbatim(self, runj):
        code, report = runj("ineq", "--t", "0,1,2", "--a", "1,3/2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "NotSorted"

    def test_power_budget_is_two(self, runj):
        # 3^9100 has more digits than int -> str prints
        code, report = runj("ineq", "--t", "0,9100", "--a", "3", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "PowerBudgetExceeded"

    @pytest.mark.parametrize("t, a, digest", [
        ("0,7000", "3", "b9ce84282e1bee183bac80cfa0f7fb3f0c24219cd40c03b3d0b371d8f54f4604"),
        ("0,9012", "3", "db2fd2ad545d040a50591e3de7b687d1bb84c6071537cd2a745807bb018aa71f")])
    def test_power_within_budget_prints(self, runj, t, a, digest):
        code, report = runj("ineq", "--t", t, "--a", a, "--no-cache")
        assert code == 0
        assert report["payload"]["lhs"] == f"{int(a) ** int(t.split(',')[1])}/1"
        assert report["digest"] == digest

    def test_hilbert_value_past_print_limit_is_two(self, runj, tmp_path):
        # C(10^1500 + 3, 3) has about 4500 digits, past the 4300 that int -> str prints
        ideal = tmp_path / "p3.json"
        ideal.write_text(json.dumps({"ambient": 3, "polys": []}))
        code, report = runj("hilbert", "--ideal", str(ideal), "--u", str(10 ** 1500),
                            "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "NumberTooLarge"
        assert str(sys.get_int_max_str_digits()) in report["payload"]["message"]

    def test_margin_argument_past_print_limit_is_two(self, runj, tmp_path):
        conf = tmp_path / "p1.json"
        conf.write_text(json.dumps({"ambient": 1, "variety": [],
                                    "family": ["x0", "x1", "x0 + x1"]}))
        pts = tmp_path / "big.txt"
        pts.write_text(f"{10 ** 2000 + 1},{10 ** 2000 + 3}\n")
        code, report = runj("margin", "--config", str(conf), "--points", str(pts),
                            "--eps", "1/2", "--delta", "1", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "NumberTooLarge"

    def test_ambiguous_floor_is_two(self, runj):
        code, report = runj("m0", "--n", "40", "--d", "3", "--degv", "2", "--delta", "2",
                            "--q", "20", "--eps", "1/2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "FloorAmbiguous"

    def test_internal_error_is_three(self, runj, monkeypatch):
        def boom(args):
            raise RuntimeError("wires crossed")
        monkeypatch.setattr(cli, "cmd_pfcheck", boom)
        code, report = runj("pfcheck", "--x", "6", "--no-cache")
        assert code == 3
        assert report["payload"]["error"] == "InternalError"
        assert "wires crossed" in report["payload"]["message"]


class TestFrozenPayloads:
    def test_delta_example(self, runj, coord_config):
        code, report = runj("delta", "--config", coord_config, "--no-cache")
        assert code == 0
        assert report["payload"] == {"delta": "1/1", "witness": [1]}

    def test_delta_table(self, runj, coord_config):
        _, report = runj("delta", "--config", coord_config, "--table", "--no-cache")
        table = report["payload"]["table"]
        assert {"subset": [1], "dimension": 1, "ratio": "1/1"} in table
        assert {"subset": [1, 2], "dimension": 0, "ratio": "1/1"} in table
        # the full family is void on P^2 so only 6 subsets carry a ratio
        assert len(table) == 6

    def test_m0_example(self, runj):
        code, report = runj("m0", "--n", "1", "--d", "1", "--degv", "1",
                            "--delta", "1", "--q", "3", "--eps", "6", "--no-cache")
        assert code == 0
        assert report["payload"]["m0"] == 32
        assert report["payload"]["defect_total"] == "2/1"
        assert report["payload"]["coefficient"] == "-5/1"

    def test_pfcheck_example(self, runj):
        code, report = runj("pfcheck", "--x=-20/9", "--no-cache")
        assert code == 0
        assert report["payload"] == {"product": "1/1", "ok": True}

    def test_parse(self, runj):
        _, report = runj("parse", "--poly", "x1*x2 + x0^2", "--nvars", "3",
                         "--no-cache")
        assert report["payload"]["canonical"] == "x0^2 + x1*x2"
        assert report["payload"]["degree"] == 2
        assert report["payload"]["json"]["vars"] == 3

    def test_parse_zero_has_null_degree(self, runj):
        _, report = runj("parse", "--poly", "0", "--nvars", "2", "--no-cache")
        assert report["payload"]["degree"] is None

    def test_dim_conic(self, runj, conic_ideal):
        _, report = runj("dim", "--ideal", conic_ideal, "--no-cache")
        assert report["payload"] == {"ambient": 2, "dimension": 1, "degree": 2}

    def test_dim_empty_set(self, runj, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"ambient": 1, "polys": ["x0", "x1"]}))
        _, report = runj("dim", "--ideal", str(path), "--no-cache")
        assert report["payload"] == {"ambient": 1, "dimension": "EMPTY",
                                     "degree": None}

    def test_dim_point(self, runj, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"ambient": 0, "polys": []}))
        code, report = runj("dim", "--ideal", str(path), "--no-cache")
        assert code == 0
        assert report["payload"] == {"ambient": 0, "dimension": 0, "degree": 1}

    def test_classify(self, runj, coord_config):
        _, report = runj("classify", "--config", coord_config, "--no-cache")
        payload = report["payload"]
        assert payload["l_value"] == 2
        assert payload["general_position"] is True
        assert payload["kappa"] == 2
        assert payload["t_vector"] == [1, 2]
        assert payload["bounds"]["subgeneral"] == "1/1"

    def test_profile_identity_order(self, runj, coord_config):
        _, report = runj("profile", "--config", coord_config, "--no-cache")
        payload = report["payload"]
        assert payload["ordering"] == [1, 2, 3]
        assert payload["prefix_dims"] == [1, 0, "EMPTY"]
        assert payload["t_values"] == [0, 1, 2]
        assert payload["l_value"] == 2

    def test_profile_explicit_order(self, runj, coord_config):
        _, report = runj("profile", "--config", coord_config,
                         "--order", "3,1,2", "--no-cache")
        assert report["payload"]["ordering"] == [3, 1, 2]
        assert report["payload"]["t_values"] == [0, 1, 2]

    @pytest.mark.parametrize("command", ["profile", "replace"])
    @pytest.mark.parametrize("order", ["1,1,2", "0,1,2", "1,2,3,4", "1,2"])
    def test_order_must_be_a_one_based_permutation(self, runj, coord_config, command, order):
        code, report = runj(command, "--config", coord_config, "--order", order, "--no-cache")
        assert code == 2
        assert report["payload"] == {"error": "IndexOutOfRange",
                                     "message": "--order must be a permutation of 1..3"}

    def test_replace(self, runj, coord_config):
        code, report = runj("replace", "--config", coord_config, "--no-cache")
        assert code == 0
        payload = report["payload"]
        assert payload["ok"] is True
        assert payload["degree"] == 1
        assert len(payload["coeff_matrix"]) == 3
        assert payload["prefix_dims"] == [1, 0, "EMPTY"]

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--bound", "8"]])
    def test_replace_search_options_are_gone(self, run, coord_config, option):
        code, _ = run("replace", "--config", coord_config, *option, "--no-cache")
        assert code == 1  # an argparse error: the search has no knobs

    def test_schedule(self, runj):
        _, report = runj("schedule", "--t", "0,1,2", "--no-cache")
        assert report["payload"] == {"delta": "1/1",
                                     "m_values": ["1/1", "1/1", "1/1"],
                                     "max_index": 1}

    def test_ineq(self, runj):
        _, report = runj("ineq", "--t", "0,1,2", "--a", "3/2,1", "--no-cache")
        payload = report["payload"]
        assert payload["holds"] is True
        assert payload["equality"] is True
        assert payload["lhs"] == payload["rhs"] == "3/2"

    def test_hilbert(self, runj, conic_ideal):
        _, report = runj("hilbert", "--ideal", conic_ideal, "--u", "3",
                         "--no-cache")
        assert report["payload"] == {"u": 3, "value": 7}

    def test_hweight_with_oracle(self, runj, conic_ideal):
        _, report = runj("hweight", "--variety", conic_ideal, "--u", "2",
                         "--c", "1,0,0", "--oracle", "--no-cache")
        payload = report["payload"]
        assert payload["weight"] == "4/1"
        assert payload["oracle"] == "4/1"
        assert payload["agrees"] is True
        assert len(payload["basis"]) == 5

    def test_efcheck(self, runj, conic_ideal):
        code, report = runj("efcheck", "--variety", conic_ideal, "--u", "3",
                            "--c", "1,1,0", "--subset", "0,2", "--no-cache")
        assert code == 0
        payload = report["payload"]
        assert payload["holds"] is True
        assert payload["lhs"] == "5/7"
        assert payload["rhs"] == "-3/2"
        assert payload["subset"] == [0, 2]

    def test_efcheck_u_too_small(self, runj, conic_ideal):
        code, report = runj("efcheck", "--variety", conic_ideal, "--u", "2",
                            "--c", "1,1,0", "--subset", "0,2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "UTooSmall"

    def test_hweight_past_monomial_budget(self, runj, conic_ideal):
        code, report = runj("hweight", "--variety", conic_ideal, "--u", "100000",
                            "--c", "1,0,0", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "MonomialBudgetExceeded"

    def test_compare(self, runj):
        _, report = runj("compare", "--n", "2", "--ambient", "4", "--l", "4",
                         "--kappa", "1", "--q", "9", "--no-cache")
        payload = report["payload"]
        assert payload["this_paper"] == "9/1"
        assert payload["entries"]["shi_ru"] == "9/1"
        assert payload["strictly_better"]["shi_ru"] is False
        assert payload["strictly_better"]["chen_ru_yan"] is True

    def test_height_point(self, runj):
        _, report = runj("height", "--point", "1,2,3", "--no-cache")
        assert report["payload"]["argument"] == "3/1"
        assert report["payload"]["log_approx"] == pytest.approx(math.log(3))

    def test_height_scalar(self, runj):
        _, report = runj("height", "--scalar=-20/9", "--no-cache")
        assert report["payload"]["argument"] == "20/1"

    def test_height_poly(self, runj):
        _, report = runj("height", "--poly", "x0^2 - 7*x1^2", "--nvars", "2",
                         "--no-cache")
        assert report["payload"]["argument"] == "7/1"

    def test_weil(self, runj):
        _, report = runj("weil", "--poly", "x0 + x1", "--nvars", "2",
                         "--point", "1,1", "--place", "oo", "--no-cache")
        assert report["payload"]["argument"] == "1/2"
        assert report["payload"]["log_approx"] == pytest.approx(-math.log(2))

    def test_weil_finite_place(self, runj):
        _, report = runj("weil", "--poly", "x0 + x1", "--nvars", "2",
                         "--point", "1,3", "--place", "2", "--no-cache")
        assert report["payload"]["argument"] == "4/1"


class TestMarginCommand:
    def test_slack_values(self, runj, coord_config, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("1,1,2\n\n1,2,3\n")
        code, report = runj("margin", "--config", coord_config,
                            "--points", str(pts), "--eps", "1/2", "--no-cache")
        assert code == 0
        payload = report["payload"]
        assert payload["delta"] == "1/1"
        # members are the coordinates, so S covers every place of a point
        # with 13-smooth coordinates and the slack is h(x) * eps exactly
        slacks = [r["slack_approx"] for r in payload["reports"]]
        assert slacks[0] == pytest.approx(math.log(2) / 2, abs=1e-9)
        assert slacks[1] == pytest.approx(math.log(3) / 2, abs=1e-9)
        assert payload["summary"]["negative_points"] == []
        assert payload["summary"]["min_slack_approx"] == min(slacks)

    def test_point_on_member_is_domain_error(self, runj, coord_config, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("1,0,2\n")
        code, report = runj("margin", "--config", coord_config,
                            "--points", str(pts), "--eps", "1/2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "PointOnHypersurface"
        assert "member 2" in report["payload"]["message"]

    def test_constant_member_is_domain_error(self, runj, tmp_path):
        conf = tmp_path / "const.json"
        conf.write_text(json.dumps({"ambient": 1, "variety": [], "family": ["2", "x0"]}))
        pts = tmp_path / "pts.txt"
        pts.write_text("1,2\n")
        code, report = runj("margin", "--config", str(conf), "--points", str(pts),
                            "--eps", "1/2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "ConstantMember"
        code, report = runj("delta", "--config", str(conf), "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "ConstantMember"

    def test_wrong_arity_point(self, runj, coord_config, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("1,1\n")
        code, report = runj("margin", "--config", coord_config,
                            "--points", str(pts), "--eps", "1/2", "--no-cache")
        assert code == 2
        assert "2 coordinates" in report["payload"]["message"]

    def test_empty_points_file(self, runj, coord_config, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("\n\n")
        code, report = runj("margin", "--config", coord_config,
                            "--points", str(pts), "--eps", "1/2", "--no-cache")
        assert code == 2

    def test_non_utf8_points_file_is_domain_error(self, runj, coord_config, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_bytes(b"1,2,3\n\xff\xfe,3,1\n")
        code, report = runj("margin", "--config", coord_config,
                            "--points", str(pts), "--eps", "1/2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "DomainError"
        assert str(pts) in report["payload"]["message"]

    def test_delta_override_moves_rhs(self, runj, coord_config, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("1,1,2\n")
        _, base = runj("margin", "--config", coord_config, "--points", str(pts),
                       "--eps", "1/2", "--no-cache")
        _, wide = runj("margin", "--config", coord_config, "--points", str(pts),
                       "--eps", "1/2", "--delta", "2", "--no-cache")
        assert wide["payload"]["delta"] == "2/1"
        assert (wide["payload"]["reports"][0]["slack_approx"]
                > base["payload"]["reports"][0]["slack_approx"])

    def test_primes_restriction_shrinks_lhs(self, runj, coord_config, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("1,2,3\n")
        _, full = runj("margin", "--config", coord_config, "--points", str(pts),
                       "--eps", "1/2", "--no-cache")
        _, only2 = runj("margin", "--config", coord_config, "--points", str(pts),
                        "--eps", "1/2", "--primes", "2", "--no-cache")
        # dropping the place at 3 removes log 3 from the left side
        assert (only2["payload"]["reports"][0]["slack_approx"]
                > full["payload"]["reports"][0]["slack_approx"])


class TestMarginRefusalOrder:
    """Each point is refused for its coordinate count, then for lying off V,
    then on a member, before a negative multiplier or a power budget is."""

    @staticmethod
    def margin(runj, tmp_path, ambient, variety, family, points, delta):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"ambient": ambient, "variety": variety, "family": family}))
        pts = tmp_path / "pts.txt"
        pts.write_text("".join(p + "\n" for p in points))
        code, report = runj("margin", "--config", str(conf), "--points", str(pts),
                            "--eps", "1/2", f"--delta={delta}", "--no-cache")
        return code, report["payload"]

    P1 = (1, [], ["x0", "x1", "x0 + x1"])
    CONIC = (2, ["x0*x2 - x1^2"], ["x0", "x1", "x2"])

    def test_negative_multiplier(self, runj, tmp_path):
        # 2 * (-1) + 1/2
        code, payload = self.margin(runj, tmp_path, *self.P1, ["1,2"], "-1")
        assert code == 2
        assert payload == {"error": "DomainError",
                           "message": "scale factor must be non-negative, got -3/2"}

    @pytest.mark.parametrize("point, member", [("1,-1", 3), ("0,1", 1), ("1,0", 2)])
    def test_point_on_member_before_negative_multiplier(self, runj, tmp_path, point, member):
        code, payload = self.margin(runj, tmp_path, *self.P1, [point, "1,2"], "-1")
        assert code == 2
        assert payload["error"] == "PointOnHypersurface"
        assert payload["message"] == f"({point.replace(',', ':')}) lies on family member {member}"

    def test_coordinate_count_first(self, runj, tmp_path):
        code, payload = self.margin(runj, tmp_path, *self.P1, ["0,1,1"], "-1")
        assert code == 2
        assert payload["error"] == "DomainError"
        assert "point has 3 coordinates, expected 2" in payload["message"]

    def test_off_the_variety_first(self, runj, tmp_path):
        # (0:1:1) is off the conic and on the member x0; 2 * (-1) + 1/2 < 0
        code, payload = self.margin(runj, tmp_path, *self.CONIC, ["0,1,1", "1,1,1"], "-1")
        assert code == 2
        assert payload == {"error": "PointNotOnVariety",
                           "message": "(0:1:1) does not satisfy a defining equation"}
        code, payload = self.margin(runj, tmp_path, *self.CONIC, ["1,1,1"], "-1")
        assert payload["message"] == "scale factor must be non-negative, got -3/2"


# every command that reads a file; BAD marks the file under test and GOOD a
# well-formed one, each of the kind its flag reads
FILE_COMMANDS = [
    ("delta", "--config", "BAD"),
    ("classify", "--config", "BAD"),
    ("profile", "--config", "BAD"),
    ("replace", "--config", "BAD"),
    ("margin", "--config", "BAD", "--points", "GOOD", "--eps", "1/2"),
    ("margin", "--config", "GOOD", "--points", "BAD", "--eps", "1/2"),
    ("dim", "--ideal", "BAD"),
    ("hilbert", "--ideal", "BAD", "--u", "3"),
    ("hweight", "--variety", "BAD", "--u", "2", "--c", "1,0,0"),
    ("efcheck", "--variety", "BAD", "--u", "3", "--c", "1,1,0", "--subset", "0,2"),
]
MALFORMED_FILES = {"non-utf8": b"1,2\n\xff\xfe,3\n", "array": b"[1, 2]",
                   "string": b'"x0"', "number": b"3", "no-keys": b"{}"}


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: " ".join(argv[:argv.index("BAD")]))
def test_malformed_input_file_is_refused_not_internal(run, coord_config, conic_ideal, tmp_path,
                                                      argv):
    pts = tmp_path / "pts.txt"
    pts.write_text("1,1,2\n")
    good = {"--config": coord_config, "--points": str(pts), "--ideal": conic_ideal,
            "--variety": conic_ideal}
    args = [good[argv[i - 1]] if arg in ("BAD", "GOOD") else arg for i, arg in enumerate(argv)]
    assert run(*args, "--no-cache")[0] == 0  # the arguments are well formed
    for name, content in MALFORMED_FILES.items():
        bad = tmp_path / f"{name}.bad"
        bad.write_bytes(content)
        args[argv.index("BAD")] = str(bad)
        code, out = run(*args, "--no-cache")
        assert code in (1, 2), (name, out)


class TestInputHandling:
    def test_invalid_json_is_domain_error(self, runj, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report = runj("dim", "--ideal", str(path), "--no-cache")
        assert code == 2
        assert "invalid JSON" in report["payload"]["message"]

    def test_config_must_be_object(self, runj, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _ = runj("delta", "--config", str(path), "--no-cache")
        assert code == 2

    def test_ideal_missing_keys(self, runj, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"ambient": 2}))
        code, _ = runj("dim", "--ideal", str(path), "--no-cache")
        assert code == 2

    @pytest.mark.parametrize("ambient", [2.9, True, "2.0", None])
    def test_non_integer_ambient_is_domain_error(self, runj, tmp_path, ambient):
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({"ambient": ambient, "polys": ["x0*x2 - x1^2"]}))
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"ambient": ambient, "variety": [], "family": ["x0", "x1"]}))
        for command, flag, path in (("dim", "--ideal", ideal), ("delta", "--config", config)):
            code, report = runj(command, flag, str(path), "--no-cache")
            assert code == 2, command
            assert report["payload"] == {"error": "DomainError",
                                         "message": f"ambient must be an integer, got {ambient!r}"}

    def test_integer_string_ambient_accepted(self, runj, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"ambient": "2", "polys": ["x0*x2 - x1^2"]}))
        code, report = runj("dim", "--ideal", str(path), "--no-cache")
        assert code == 0
        assert report["payload"] == {"ambient": 2, "dimension": 1, "degree": 2}

    def test_config_knobs_reach_handlers(self, runj, tmp_path):
        path = tmp_path / "precise.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": ["x0", "x1", "x2"],
                                    "precision": 2}))
        pts = tmp_path / "pts.txt"
        pts.write_text("1,1,2\n")
        code, report = runj("margin", "--config", str(path), "--points", str(pts),
                            "--eps", "1/2", "--no-cache")
        assert code == 0
        assert report["payload"]["reports"][0]["slack_approx"] == 0.35  # log(2)/2

    def test_subset_cap_key_ignored(self, run, runj, tmp_path):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": ["x0", "x1", "x2"],
                                    "subset_cap": 2}))
        code, report = runj("delta", "--config", str(path), "--no-cache")
        assert code == 0
        assert report["payload"]["delta"] == "1/1"
        code, _ = run("delta", "--config", str(path), "--cap", "14", "--no-cache")
        assert code == 1  # the --cap option is gone

    @pytest.mark.parametrize("seed", [7, "abc"])
    def test_seed_key_ignored(self, runj, coord_config, tmp_path, seed):
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": ["x0", "x1", "x2"], "seed": seed}))
        code, report = runj("replace", "--config", str(path), "--no-cache")
        assert code == 0
        assert report["payload"] == runj("replace", "--config", coord_config,
                                         "--no-cache")[1]["payload"]

    @pytest.mark.parametrize("knobs", [{"precision": "abc"}, {"precision": []},
                                       {"precision": 2.5}, {"precision": True}])
    def test_non_integer_knob_is_domain_error(self, runj, tmp_path, knobs):
        path = tmp_path / "knobs.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": ["x0", "x1", "x2"], **knobs}))
        code, report = runj("delta", "--config", str(path), "--no-cache")
        assert code == 2
        assert "must be an integer" in report["payload"]["message"]

    def test_integer_string_knob_accepted(self, runj, tmp_path):
        path = tmp_path / "knobs.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": ["x0", "x1", "x2"], "precision": "3"}))
        pts = tmp_path / "pts.txt"
        pts.write_text("1,1,2\n")
        code, report = runj("margin", "--config", str(path), "--points", str(pts),
                            "--eps", "1/2", "--no-cache")
        assert code == 0
        assert report["payload"]["reports"][0]["slack_approx"] == 0.347  # log(2)/2

    @pytest.mark.parametrize("key", ["family", "variety"])
    def test_config_string_for_list_is_domain_error(self, runj, tmp_path, key):
        config = {"ambient": 2, "variety": [], "family": ["x0", "x1", "x2"]}
        config[key] = "x0"
        path = tmp_path / "stringy.json"
        path.write_text(json.dumps(config))
        code, report = runj("delta", "--config", str(path), "--no-cache")
        assert code == 2
        assert f"{key} must be a list" in report["payload"]["message"]

    def test_ideal_string_for_list_is_domain_error(self, runj, tmp_path):
        path = tmp_path / "stringy.json"
        path.write_text(json.dumps({"ambient": 2, "polys": "x0"}))
        code, report = runj("dim", "--ideal", str(path), "--no-cache")
        assert code == 2
        assert "must be a list" in report["payload"]["message"]

    @pytest.mark.parametrize("poly", [
        {"vars": 3, "terms": [{"exp": ["a", 1, 1], "coef": "1/1"}]},
        {"vars": 3, "terms": [{"exp": [2, 0, 0]}]},
        {"vars": 3, "terms": 5},
        {"vars": 3, "terms": [{"exp": [2, 0, 0], "coef": 1}]},
        {"vars": 3, "terms": [{"exp": "200", "coef": "1/1"}]},
    ])
    def test_malformed_json_poly_is_syntax_error(self, runj, tmp_path, poly):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"ambient": 2, "polys": [poly]}))
        code, report = runj("dim", "--ideal", str(path), "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "SyntaxError"

    @pytest.mark.parametrize("poly", [
        {"vars": 3.7, "terms": [{"exp": [1, 0, 0], "coef": "1/1"}]},
        {"vars": True, "terms": [{"exp": [1], "coef": "1/1"}]},
        {"vars": 3, "terms": [{"exp": [1.9, 0, 0.5], "coef": "1/1"}]},
        {"vars": 3, "terms": [{"exp": [True, 0, 0], "coef": "1/1"}]},
    ], ids=["float-vars", "bool-vars", "float-exp", "bool-exp"])
    def test_float_or_bool_in_json_poly_is_syntax_error(self, runj, tmp_path, poly):
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps({"ambient": 2, "polys": [poly]}))
        code, report = runj("dim", "--ideal", str(path), "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "SyntaxError"
        assert "must be an integer" in report["payload"]["message"]

    def test_bad_place_is_usage_error(self, capsys):
        code = cli.main(["weil", "--poly", "x0", "--nvars", "1",
                         "--point", "1", "--place", "six", "--no-cache"])
        capsys.readouterr()
        assert code == 1

    def test_nonprime_place_is_domain_error(self, runj):
        code, report = runj("weil", "--poly", "x0 + x1", "--nvars", "2",
                            "--point", "1,1", "--place", "6", "--no-cache")
        assert code == 2


# 10^18 + 3 is prime: trial division up to its square root took minutes
BIG_PRIME = 10 ** 18 + 3


class TestPrimeBudget:
    """Primes are proven by Miller-Rabin with the bases up to 41; what neither
    trial division up to MAX_TRIAL_DIVISOR nor that test settles exits 2."""

    def test_big_prime_answers(self, runj, coord_config, tmp_path):
        code, report = runj("pfcheck", f"--x={BIG_PRIME}/1", "--no-cache")
        assert code == 0 and report["payload"] == {"ok": True, "product": "1/1"}
        code, report = runj("height", "--poly", f"{BIG_PRIME}*x0+x1", "--nvars", "2", "--no-cache")
        assert code == 0 and report["payload"]["argument"] == f"{BIG_PRIME}/1"
        code, report = runj("weil", "--poly", f"{BIG_PRIME}*x0 + x1", "--nvars", "2",
                            "--point", "1,0", "--place", str(BIG_PRIME), "--no-cache")
        # |Q|_p = 1 and |Q(1, 0)|_p = 1/p
        assert code == 0 and report["payload"]["argument"] == f"{BIG_PRIME}/1"
        pts = tmp_path / "pts.txt"
        pts.write_text("1,1,2\n")
        code, report = runj("margin", "--config", coord_config, "--points", str(pts),
                            "--eps", "1/2", "--primes", f"2,{BIG_PRIME}", "--no-cache")
        assert code == 0 and len(report["payload"]["reports"]) == 1

    def test_height_poly_needs_no_factoring(self, runj):
        # (10^9 + 7)(10^9 + 9) is refused by pfcheck, but the height of a
        # polynomial is read off its primitive integer form
        code, report = runj("height", "--poly", f"{(10 ** 9 + 7) * (10 ** 9 + 9)}*x0 + x1",
                            "--nvars", "2", "--no-cache")
        assert code == 0 and report["payload"]["argument"] == "1000000016000000063/1"

    @pytest.mark.parametrize("argv", [
        # (10^9 + 7)(10^9 + 9): no factor up to the budget, and composite
        ["pfcheck", f"--x={(10 ** 9 + 7) * (10 ** 9 + 9)}"],
        # 2^89 - 1 is prime, but past the limit of the primality test
        ["pfcheck", f"--x=1/{2 ** 89 - 1}"],
        ["weil", "--poly", "x0", "--nvars", "2", "--point", "1,1",
         "--place", "3317044064679887385961981"],
    ], ids=["pfcheck-semiprime", "pfcheck-past-limit", "weil-past-limit"])
    def test_unsettled_is_two(self, runj, argv):
        code, report = runj(*argv, "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "FactorBudgetExceeded"

    def test_margin_prime_past_limit_is_two(self, runj, coord_config, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("1,1,2\n")
        code, report = runj("margin", "--config", coord_config, "--points", str(pts),
                            "--eps", "1/2", "--primes", f"3,{2 ** 89 - 1}", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "FactorBudgetExceeded"


SMALL_PRIMES = [p for p in range(2, 100) if all(p % d for d in range(2, p))]


class TestMarginPowerBudget:
    """Inputs on which `margin` ran without bound: each now answers or exits 2
    at once.  They run in a fresh process with a timeout, so that a
    regression fails instead of hanging."""

    @staticmethod
    def margin(tmp_path, family, point, *argv):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"ambient": 1, "variety": [], "family": family}))
        pts = tmp_path / "pts.txt"
        pts.write_text(point + "\n")
        env = {**os.environ, "PYTHONPATH": str(Path(hyperpos.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "hyperpos", "margin", "--config", str(conf),
                               "--points", str(pts), *argv, "--no-cache"],
                              env=env, capture_output=True, text=True, timeout=20)
        return done.returncode, json.loads(done.stdout)["payload"]

    def test_huge_root_settled_by_logarithms(self, tmp_path):
        # log(2)/(10^9 + 7) < log 8: the sign needs no power of 8
        code, payload = self.margin(tmp_path, ["x0", "x1", "x0 + x1"], "1,2",
                                    "--eps", "1/1000000007", "--delta", "0")
        assert code == 0
        assert payload["reports"][0]["lhs_argument"] == "8/1"
        assert payload["reports"][0]["rhs_root"] == 1000000007
        assert payload["summary"]["negative_points"] == [[1, 2]]

    def test_close_values_past_the_budget_still_answer(self, tmp_path):
        # lhs is about log(3/2) and rhs log(10^20 + 1)/2000: bit lengths leave
        # them open, and the lift of lhs to the root 2000 needs 270001 bits
        code, payload = self.margin(tmp_path, ["x0", "x1", "3*x0 - x1"],
                                    "100000000000000000001,100000000000000000000",
                                    "--eps", "1/2000", "--delta", "0")
        assert code == 0
        assert payload["reports"][0]["rhs_root"] == 2000
        assert payload["summary"]["negative_points"] == [[100000000000000000001, 100000000000000000000]]

    @pytest.mark.parametrize("eps, delta", [("1/2", "1/1000000007"), ("1/10000019", "1")])
    def test_huge_scale_is_two(self, tmp_path, eps, delta):
        # h(x)^numerator(2 * delta + eps), a power of 2 past 10^7 bits
        code, payload = self.margin(tmp_path, ["x0", "x1", "x0 + x1"], "1,2",
                                    "--eps", eps, "--delta", delta)
        assert code == 2
        assert payload["error"] == "PowerBudgetExceeded"

    def test_lcm_past_the_degree_budget_is_two(self, tmp_path):
        family = [f"x0^{p} + 2*x1^{p}" for p in SMALL_PRIMES]  # the lcm has 121 bits
        code, payload = self.margin(tmp_path, family, "1,1", "--eps", "1/2", "--delta", "1")
        assert code == 2
        assert payload["error"] == "DegreeBudgetExceeded"
        assert "lcm of the degrees" in payload["message"]


class TestM0FactorialBudget:
    """`m0` with a large q is refused before q! is formed: q = 10^6 spent
    10 s forming it, and 10^7 ran past two minutes."""

    @pytest.mark.parametrize("q", ["10000000", "10" * 30])
    def test_large_q_refused_at_once(self, q):
        env = {**os.environ, "PYTHONPATH": str(Path(hyperpos.__file__).parents[1])}
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "hyperpos", "m0", "--n", "1", "--d", "1",
                               "--degv", "1", "--delta", "1", "--q", q, "--eps", "1/2",
                               "--no-cache"], env=env, capture_output=True, text=True, timeout=20)
        assert time.perf_counter() - start < 2
        assert done.returncode == 2
        payload = json.loads(done.stdout)["payload"]
        assert payload["error"] == "FloorAmbiguous"
        assert payload["message"].startswith("factor exceeds 2^")


def printed(tree):
    """The encoder's text of `tree`, as `_render` prints a report, or the
    type of the exception it raises."""
    try:
        return "".join(cli._encode(tree, "\n", [])) + "\n"
    except (TypeError, ValueError) as exc:
        return type(exc)


def printed_by_json(tree):
    try:
        return oracles.render(tree)
    except (TypeError, ValueError) as exc:
        return type(exc)


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
                    st.fractions(), st.just(EMPTY),
                    st.integers(10 ** 4299, 10 ** 4301))  # about int -> str's limit
TREES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(), children, max_size=4)), max_leaves=20)


class TestPrinter:
    """`_render`'s encoder prints what `json.dumps(indent=2, sort_keys=True)` did."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(TREES)
    def test_same_text_as_json_dumps(self, tree):
        assert printed(tree) == printed_by_json(tree)

    @pytest.mark.parametrize("tree", [
        {}, [], (), {"a": [], "b": {}, "c": ()}, [[[]]], {"z": 1, "a": 2, "A": 3, "": 4},
        [True, False, None, 0, 1, -1], [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
        {"x": object()}, [10 ** 4300], [10 ** 4299],
        ["\u00e9", "\ud83d\ude00", "\"\\\n\t\x00\x7f"], [Fraction(-3, 4), Fraction(5), EMPTY]])
    def test_edge_cases(self, tree):
        assert printed(tree) == printed_by_json(tree)

    def test_margin_reports(self, run, coord_config, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("".join(f"{a},{b},{a + b + 1}\n" for a in range(1, 9) for b in range(1, 9)))
        for argv in (["margin", "--config", coord_config, "--points", str(points), "--eps", "1/2"],
                     ["delta", "--table", "--config", coord_config],
                     ["classify", "--config", coord_config]):
            code, out = run(*argv, "--no-cache")
            assert code == 0
            assert out == oracles.render(json.loads(out))


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, coord_config, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this
        env = {**os.environ, "PYTHONPATH": str(Path(hyperpos.__file__).parents[1])}
        sequence = [
            ["delta", "--config", coord_config, "--table", "--no-cache"],
            ["replace", "--config", coord_config, "--no-cache"],
            ["pfcheck", "--no-cache"],  # no --x: an argparse error, exit 1
            ["schedule", "--t", "0,1,3", "--no-cache"],
            ["delta", "--config", coord_config, "--no-cache"],
        ]
        for argv in sequence:
            fresh = subprocess.run([sys.executable, "-m", "hyperpos", *argv], env=env,
                                   capture_output=True, text=True, check=False)
            code = cli.main(argv)
            out = capsys.readouterr()
            assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            assert code == (1 if argv[0] == "pfcheck" else 0)


class TestCacheWiring:
    def test_cache_dir_flag_writes(self, run, coord_config, tmp_path):
        cache = tmp_path / "cache"
        code, _ = run("delta", "--config", coord_config, "--cache-dir", str(cache))
        assert code == 0
        assert any(cache.iterdir())

    def test_env_var_honored(self, run, coord_config, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("HYPERPOS_CACHE_DIR", str(cache))
        code, _ = run("delta", "--config", coord_config)
        assert code == 0
        assert any(cache.iterdir())

    def test_no_cache_wins_over_env(self, run, coord_config, tmp_path, monkeypatch):
        cache = tmp_path / "unused"
        monkeypatch.setenv("HYPERPOS_CACHE_DIR", str(cache))
        code, _ = run("delta", "--config", coord_config, "--no-cache")
        assert code == 0
        assert not cache.exists()

    def test_flag_wins_over_env(self, run, coord_config, tmp_path, monkeypatch):
        envcache = tmp_path / "envcache"
        flagcache = tmp_path / "flagcache"
        monkeypatch.setenv("HYPERPOS_CACHE_DIR", str(envcache))
        run("delta", "--config", coord_config, "--cache-dir", str(flagcache))
        assert any(flagcache.iterdir())
        assert not envcache.exists()

    @pytest.mark.parametrize("via", ["flag", "home"])
    def test_unusable_cache_dir_runs_uncached(self, run, coord_config, tmp_path, monkeypatch,
                                              via):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        uncached = run("delta", "--config", coord_config, "--no-cache")
        if via == "flag":
            cached = run("delta", "--config", coord_config, "--cache-dir", str(blocker / "sub"))
        else:
            # the default ~/.cache/hyperpos, under a home that cannot hold it
            monkeypatch.delenv("HYPERPOS_CACHE_DIR", raising=False)
            monkeypatch.setenv("HOME", str(blocker))
            cached = run("delta", "--config", coord_config)
        assert cached == uncached
        assert uncached[0] == 0

    def test_garbage_database_runs_uncached(self, run, coord_config, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        garbage = bytes(range(256)) * 16
        (cache / groebner.CACHE_FILE).write_bytes(garbage)
        uncached = run("delta", "--config", coord_config, "--no-cache")
        for _ in range(2):
            assert run("delta", "--config", coord_config, "--cache-dir", str(cache)) == uncached
        assert (cache / groebner.CACHE_FILE).read_bytes() == garbage


class _Recorded:
    """A cache connection that records each statement it is asked to run, one
    per row for `executemany`, before SQLite prepares it, so a statement that
    a lock or a broken file refuses is recorded too."""

    def __init__(self, db, seen):
        self.db, self.seen = db, seen

    def execute(self, sql, params=()):
        self.seen.append((sql, tuple(params)))
        return self.db.execute(sql, params)

    def executemany(self, sql, rows):
        rows = list(rows)
        self.seen.extend((sql, tuple(row)) for row in rows)
        return self.db.executemany(sql, rows)


@pytest.fixture()
def statements(monkeypatch):
    """(sql, parameters) of every statement that the disk cache runs."""
    seen = []
    connect = groebner._CacheSession.connect
    monkeypatch.setattr(groebner._CacheSession, "connect",
                        lambda session: _Recorded(connect(session), seen))
    return seen


@pytest.fixture(scope="module")
def bench_pool():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBatchedRead:
    """The subset walk reads the dimension records of a level in one statement."""

    @pytest.fixture(params=[6, 8])
    def family(self, request, bench_pool, tmp_path):
        """A P^2 q=11 family of the benchmark's pool, the levels a warm walk
        reads, and the key of member 0's record.  Entry 6 walks sizes 1 to 4,
        entry 8 sizes 1 to 3; warm, every pair is settled from a void triple,
        so the walk reads every size but 2."""
        texts = bench_pool.quadric_family(3, 11, request.param)
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [], "family": texts}))
        v = position.build_variety([], num_vars=3)
        fam = position.build_family(v, [polyring.parse_poly(t, 3) for t in texts])
        position.distributive_constant(v, fam)
        return (str(path), len({len(subset) for _, subset in fam._memo} - {2}),
                groebner.cache_key(fam.members[:1], 3))

    @staticmethod
    def selects(statements):
        return [sql for sql, _ in statements if sql.startswith("SELECT")]

    def test_one_select_per_level(self, run, family, statements, tmp_path):
        config, levels, _ = family
        cache = tmp_path / "cache"
        DIMENSION_COUNTS.clear()
        assert run("delta", "--config", config, "--cache-dir", str(cache))[0] == 0
        walked = sum(DIMENSION_COUNTS.values())  # every subset the walk memoizes
        for command in ("delta", "classify"):
            expected = run(command, "--config", config, "--no-cache")
            [(summary, _)] = drop_summary_rows(cache)  # so that the warm command walks
            DIMENSION_COUNTS.clear()
            statements.clear()
            assert run(command, "--config", config, "--cache-dir", str(cache)) == expected
            assert DIMENSION_COUNTS == {"cached": walked - 55, "inferred": 55}
            # the summary row's read, which misses, then one read per level
            assert statements[0][1] == (summary,)
            assert len(self.selects(statements)) == 1 + levels
            assert all(" IN (" in s for s in self.selects(statements))

    def test_prefetched_miss_computed_and_written_once(self, run, family, statements, tmp_path):
        config, levels, key = family
        cache = tmp_path / "cache"
        expected = run("delta", "--config", config, "--cache-dir", str(cache))
        rows = cache_rows(cache)
        # without the summary row, so that both warm commands walk
        [summary] = drop_summary_rows(cache)
        DIMENSION_COUNTS.clear()
        assert run("delta", "--config", config, "--cache-dir", str(cache)) == expected
        warm = dict(DIMENSION_COUNTS)
        drop_summary_rows(cache)
        row = next(row for row in rows if row[0] == key)
        with closing(sqlite3.connect(cache / groebner.CACHE_FILE)) as db, db:
            db.execute("DELETE FROM dimensions WHERE key = ?", (key,))
        DIMENSION_COUNTS.clear()
        statements.clear()
        assert run("delta", "--config", config, "--cache-dir", str(cache)) == expected
        assert DIMENSION_COUNTS == {**warm, "cached": warm["cached"] - 1, "modp": 1}
        # the summary row's read, which misses, then one read per level
        assert len(self.selects(statements)) == 1 + levels
        # the walk that completed writes its summary again after the one miss
        assert [params for sql, params in statements if sql.startswith("INSERT")] == \
            [row, summary]
        assert cache_rows(cache) == rows

    def test_cold_walk_sends_the_queries_a_warm_walk_reads(self, run, family, statements,
                                                           tmp_path):
        # a pair is settled from a void triple known before its top subset's
        # bound is asked, so the cold walk queries exactly the rows it writes
        # and the warm walk reads
        config, _, _ = family
        argv = ("delta", "--table", "--config", config, "--cache-dir", str(tmp_path / "cache"))
        DIMENSION_COUNTS.clear()
        expected = run(*argv)
        cold = dict(DIMENSION_COUNTS)
        written = {params[0] for sql, params in statements if sql.startswith("INSERT")}
        DIMENSION_COUNTS.clear()
        statements.clear()
        assert run(*argv) == expected
        read = {key for sql, params in statements if sql.startswith("SELECT") for key in params}
        assert read == written
        assert len(written) == cold["modp"] + cold.get("exact", 0)
        assert DIMENSION_COUNTS == {"cached": len(written), "inferred": cold["inferred"]}

    @pytest.mark.parametrize("broken", ["locked", "garbage"])
    def test_unreadable_database_runs_uncached(self, run, family, statements, tmp_path, broken):
        config, _, _ = family
        cache = tmp_path / "cache"
        assert run("delta", "--config", config, "--cache-dir", str(cache))[0] == 0
        expected = run("delta", "--config", config, "--no-cache")
        if broken == "garbage":
            (cache / groebner.CACHE_FILE).write_bytes(bytes(range(256)) * 16)
        before = (cache / groebner.CACHE_FILE).read_bytes()
        statements.clear()
        with closing(sqlite3.connect(cache / groebner.CACHE_FILE, isolation_level=None)) as other:
            if broken == "locked":
                other.execute("BEGIN EXCLUSIVE")  # another process in the middle of a write
            assert run("delta", "--config", config, "--cache-dir", str(cache)) == expected
            if broken == "locked":
                other.execute("ROLLBACK")
        # the batched read of the first level is refused, and no row is read after it
        assert len(self.selects(statements)) == 1
        assert (cache / groebner.CACHE_FILE).read_bytes() == before


class TestOneKeyPerQuery:
    """A batch of dimension queries hashes each key once, and verification
    reads its n + 1 prefixes as one batch."""

    @pytest.mark.parametrize("command", ["delta", "classify"])
    def test_warm_walk_hashes_each_key_once(self, run, bench_pool, tmp_path, monkeypatch,
                                            command):
        conf = tmp_path / "family.json"
        conf.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": bench_pool.quadric_family(3, 11, 6)}))
        argv = (command, "--config", str(conf), "--cache-dir", str(tmp_path / "cache"))
        expected = run(command, "--config", str(conf), "--no-cache")
        assert run(*argv) == expected
        drop_summary_rows(tmp_path / "cache")  # so that the warm command walks
        keys = []
        cache_key = groebner.cache_key
        monkeypatch.setattr(groebner, "cache_key", lambda *a: keys.append(a) or cache_key(*a))
        DIMENSION_COUNTS.clear()
        assert run(*argv) == expected
        # every pair is settled from a void triple: its key is never made
        assert DIMENSION_COUNTS == {"cached": len(keys), "inferred": 55}
        assert len(keys) > 50

    def test_verification_reads_its_prefixes_in_one_statement(self, run, bench_pool, statements,
                                                              tmp_path):
        config = {"ambient": 3, "variety": [], "family": bench_pool.pair_products(4)}
        conf = tmp_path / "pairs.json"
        conf.write_text(json.dumps(config))
        cache = tmp_path / "cache"
        expected = run("replace", "--config", str(conf), "--no-cache")
        for _ in range(2):  # a new directory, then the warm one
            assert run("replace", "--config", str(conf), "--cache-dir", str(cache)) == expected
        # a session of its own on the warm directory, as a library caller's
        groebner.set_cache_dir(str(cache))
        v, fam = position.load_configuration(config)
        system = replace.build_replacement(v, fam, position.dimension_profile(v, fam, range(fam.q)))
        groebner.close_cache()
        DIMENSION_COUNTS.clear()
        statements.clear()
        verdict = replace.verify_replacement(v, system)
        assert verdict.ok
        assert [repr(d) if d is groebner.EMPTY else d for d in verdict.prefix_dims] == \
            json.loads(expected[1])["payload"]["prefix_dims"]
        assert DIMENSION_COUNTS == {"cached": v.dim_n + 1}
        assert len(TestBatchedRead.selects(statements)) == 1


class TestWalkSummary:
    """`delta` and `classify` read one summary row per family, which the first
    completed walk on a directory stores."""

    @pytest.fixture()
    def conics(self, bench_pool, tmp_path):
        """A P^2 q=11 family of the benchmark's pool: D = (1, 0), every triple void."""
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": bench_pool.quadric_family(3, 11, 6)}))
        return str(path)

    def test_classify_after_delta_asks_nothing(self, run, conics, statements, tmp_path):
        cache = str(tmp_path / "cache")
        expected = run("classify", "--config", conics, "--no-cache")
        assert run("delta", "--config", conics, "--cache-dir", cache)[0] == 0
        DIMENSION_COUNTS.clear()
        statements.clear()
        assert run("classify", "--config", conics, "--cache-dir", cache) == expected
        assert DIMENSION_COUNTS == {}
        assert len(statements) == 1 and statements[0][0].startswith("SELECT")

    @pytest.mark.parametrize("value", [
        "garbage", "", "EMPTY", 7, 2.5, b"1:0;0:0,1", None,
        # wrongly shaped
        "1:0;0:0", "1:0,1;0:0,1", "1:0;0:1,0", "1:0;0:0,0", "1:0:1;0:0,1", "1;0", "1:0;",
        # out of range
        "3:0;0:0,1", "1:0;0:0,11", "1:-1;0:0,1", "-1:0", "0:0;1:0,1",
        ";".join(["1:0"] + [f"0:{','.join(map(str, range(m)))}" for m in range(2, 13)]),
        # not the text the walk writes
        "01:0;0:0,1", " 1:0;0:0,1", "1:0;0:0, 1", "1:0;0:0,1\n"])
    def test_malformed_summary_is_recomputed(self, run, conics, tmp_path, value):
        cache = tmp_path / "cache"
        expected = {c: run(c, "--config", conics, "--no-cache") for c in ("delta", "classify")}
        assert run("delta", "--config", conics, "--cache-dir", str(cache)) == expected["delta"]
        rows = cache_rows(cache)
        [key] = [key for key, text in rows if is_summary(text)]
        for command in ("delta", "classify"):
            write_rows(cache, *[(k, value if k == key else v) for k, v in rows])
            DIMENSION_COUNTS.clear()
            assert run(command, "--config", conics, "--cache-dir", str(cache)) == expected[command]
            assert DIMENSION_COUNTS["cached"] > 0  # it walked
            assert cache_rows(cache) == rows  # and overwrote the row

    def test_key_follows_order_variety_and_budget(self, monkeypatch):
        members = [polyring.parse_poly(t, 3) for t in ("x0", "x1 + x2", "x0*x2 - x1^2")]
        conic = [polyring.parse_poly("x0*x2 - x1^2", 3)]

        def key(gens=(), fam=members):
            return groebner.summary_key(gens, fam, 3, position.MAX_WALK_SUBSETS)

        base = key()
        assert key(fam=members[::-1]) != base
        assert key(fam=members[1:] + members[:1]) != base
        assert key(gens=conic) != base
        # the generators are a set, the members a sequence
        assert key(gens=conic + members[:1]) == key(gens=members[:1] + conic)
        assert key(gens=members[:1], fam=members[1:]) != key(fam=members)
        assert key(fam=[members[0] * 3, members[1] * Fraction(1, 2), members[2]]) == base
        assert key(fam=[-members[0]] + members[1:]) != base
        assert groebner.summary_key((), members, 4, position.MAX_WALK_SUBSETS) != base
        monkeypatch.setattr(position, "MAX_WALK_SUBSETS", position.MAX_WALK_SUBSETS - 1)
        assert key() != base
        monkeypatch.setattr(groebner, "CACHE_FORMAT", "hyperpos-cache/other")
        monkeypatch.setattr(position, "MAX_WALK_SUBSETS", position.MAX_WALK_SUBSETS + 1)
        assert key() != base

    def test_order_and_budget_reach_the_key(self, run, conics, tmp_path, monkeypatch):
        # a warm directory misses the summary of the reversed family, and of
        # the same family under another budget, and answers each as uncached
        cache = str(tmp_path / "cache")
        texts = json.loads(Path(conics).read_text())
        texts["family"].reverse()
        reversed_conics = tmp_path / "reversed.json"
        reversed_conics.write_text(json.dumps(texts))
        expected = {}
        for config in (conics, str(reversed_conics)):
            expected[config] = run("delta", "--config", config, "--no-cache")
            assert run("delta", "--config", config, "--cache-dir", cache) == expected[config]
            DIMENSION_COUNTS.clear()
            assert run("delta", "--config", config, "--cache-dir", cache) == expected[config]
            assert DIMENSION_COUNTS == {}
        assert expected[conics] != expected[str(reversed_conics)]
        assert len([row for row in cache_rows(tmp_path / "cache") if is_summary(row[1])]) == 2
        monkeypatch.setattr(position, "MAX_WALK_SUBSETS", position.MAX_WALK_SUBSETS - 1)
        DIMENSION_COUNTS.clear()
        assert run("delta", "--config", conics, "--cache-dir", cache) == expected[conics]
        assert DIMENSION_COUNTS["cached"] > 0

    @pytest.mark.parametrize("command", ["delta", "classify"])
    def test_refused_walk_stores_no_summary(self, run, conics, tmp_path, monkeypatch, command):
        # 11 members and 55 pairs fit in the budget, the 165 triples do not
        cache = tmp_path / "cache"
        monkeypatch.setattr(position, "MAX_WALK_SUBSETS", 100)
        code, out = run(command, "--config", conics, "--cache-dir", str(cache))
        assert (code, json.loads(out)["payload"]["error"]) == (2, "SubsetCapExceeded")
        rows = cache_rows(cache)
        assert rows and not any(is_summary(value) for _, value in rows)

    def test_unbounded_delta_stores_no_summary(self, run, tmp_path):
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps({"ambient": 2, "variety": ["x1*x2"],
                                    "family": ["x0 + x2", "x1", "x0"]}))
        code, out = run("delta", "--config", str(path), "--cache-dir", str(tmp_path / "cache"))
        assert (code, json.loads(out)["payload"]["error"]) == (2, "UnboundedRatio")
        assert not any(is_summary(value) for _, value in cache_rows(tmp_path / "cache"))

    def test_table_walks_and_stores_no_summary(self, run, conics, tmp_path):
        fresh, warm = tmp_path / "fresh", tmp_path / "warm"
        expected = run("delta", "--table", "--config", conics, "--no-cache")
        assert run("delta", "--table", "--config", conics, "--cache-dir", str(fresh)) == expected
        assert not any(is_summary(value) for _, value in cache_rows(fresh))
        DIMENSION_COUNTS.clear()
        assert run("delta", "--config", conics, "--cache-dir", str(warm))[0] == 0
        walked = sum(DIMENSION_COUNTS.values())
        DIMENSION_COUNTS.clear()
        assert run("delta", "--table", "--config", conics, "--cache-dir", str(warm)) == expected
        assert DIMENSION_COUNTS == {"cached": walked - 55, "inferred": 55}


def test_bench_smoke_lattice_ops_print_the_same_bytes_cached_or_not(run, bench_pool, tmp_path):
    """Every lattice op of the benchmark's smoke scale, seed 1: uncached, on a
    new cache directory and on that directory warm."""
    ops = bench_pool.lattice_ops("smoke", bench_pool.choose(1), str(tmp_path))
    assert sorted({op.kind for op in ops}) == ["classify", "delta", "replace"]
    for i, op in enumerate(ops):
        code, out = expected = run(*op.argv, "--no-cache")
        assert code == 0 and (op.verify is None or op.verify(json.loads(out)["payload"])), op.key
        for _ in range(2):
            assert run(*op.argv, "--cache-dir", str(tmp_path / f"cache-{i}")) == expected, op.key


def test_two_processes_share_one_cache_dir(run, tmp_path):
    _, fam = dense_plane_family(10)
    conf = tmp_path / "conics.json"
    conf.write_text(json.dumps({"ambient": 2, "variety": [],
                                "family": [poly_to_json(m) for m in fam.members]}))
    commands = ("delta", "classify")
    expected = {c: run(c, "--config", str(conf), "--no-cache") for c in commands}
    env = {**os.environ, "PYTHONPATH": str(Path(hyperpos.__file__).parents[1])}
    cache = tmp_path / "cache"
    for _ in range(2):  # a new directory, then the one the first pair filled
        procs = {c: subprocess.Popen(
            [sys.executable, "-m", "hyperpos", c, "--config", str(conf), "--cache-dir", str(cache)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for c in commands}
        for c, proc in procs.items():
            # a process that waited on the other's lock for every store would take minutes
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, out, err) == (0, expected[c][1], "")
    assert cache_rows(cache)


def test_older_cache_file_is_never_opened(run, bench_pool, tmp_path, monkeypatch):
    conf = tmp_path / "family.json"
    conf.write_text(json.dumps({"ambient": 2, "variety": [],
                                "family": bench_pool.quadric_family(3, 11, 6)}))
    commands = ("delta", "replace")
    expected = {c: run(c, "--config", str(conf), "--no-cache") for c in commands}
    fresh = tmp_path / "fresh"
    for c in commands:
        assert run(c, "--config", str(conf), "--cache-dir", str(fresh)) == expected[c]
    rows = cache_rows(fresh)
    # the layout of dimensions-4.sqlite3, with a wrong dimension and a wrong
    # mod-p answer under every key that the two commands ask for today
    cache = tmp_path / "cache"
    cache.mkdir()
    old = cache / "dimensions-4.sqlite3"
    with closing(sqlite3.connect(old)) as db, db:
        db.execute("CREATE TABLE dimensions (key TEXT NOT NULL, modulus INTEGER NOT NULL, "
                   "value, PRIMARY KEY (key, modulus)) WITHOUT ROWID")
        db.executemany("INSERT INTO dimensions VALUES (?, ?, ?)",
                       [(key, modulus, 0 if value == "EMPTY" else "EMPTY")
                        for key, value in rows for modulus in (0, groebner.MODULUS)])
    before = old.read_bytes()
    for c in commands:
        assert run(c, "--config", str(conf), "--cache-dir", str(cache)) == expected[c]
    assert old.read_bytes() == before
    assert cache_rows(cache) == rows
    # the planted rows are wrong answers that a read of the old file would take
    monkeypatch.setattr(groebner, "CACHE_FILE", old.name)
    assert run("delta", "--config", str(conf), "--cache-dir", str(cache)) != expected["delta"]


# Runs each argv list through cli.main in one process and prints
# [[exit code, payload], ...] as one JSON line.
_BATCH = """
import contextlib, io, json, sys
from hyperpos import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, json.loads(buf.getvalue())["payload"]])
print(json.dumps(out))
"""


def _run_batch(commands):
    """Payloads of `commands` from a fresh process that must finish in 60 s."""
    env = {**os.environ, "PYTHONPATH": str(Path(hyperpos.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _BATCH, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_fat_points_of_many_leading_monomials(tmp_path):
    # (x0, x1, x2)^d in P^3: the point (0:0:0:1) with multiplicity C(d+2, 3),
    # and C(d+2, 2) leading monomials, 91 at d = 12
    commands, expected = [], []
    for d in range(5, 13):
        path = tmp_path / f"fat{d}.json"
        monos = [f"x0^{a}*x1^{b}*x2^{d - a - b}" for a in range(d + 1) for b in range(d + 1 - a)]
        path.write_text(json.dumps({"ambient": 3, "polys": monos}))
        commands.append(["dim", "--ideal", str(path), "--no-cache"])
        expected.append([0, {"ambient": 3, "dimension": 0, "degree": math.comb(d + 2, 3)}])
        for u in (d - 1, d):
            commands.append(["hilbert", "--ideal", str(path), "--u", str(u), "--no-cache"])
            expected.append([0, {"u": u, "value": math.comb(min(u, d - 1) + 3, 3)}])
    assert _run_batch(commands) == expected


def test_point_ideal_in_the_largest_ring(runj, tmp_path):
    # (x0, ..., x30) in P^31: every variable but one is forced, so the
    # read-off scans no subset (a scan of subsets took 46 s on P^24)
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"ambient": 31, "polys": [f"x{i}" for i in range(31)]}))
    start = time.perf_counter()
    code, report = runj("dim", "--ideal", str(path), "--no-cache")
    assert time.perf_counter() - start < 1
    assert (code, report["payload"]) == (0, {"ambient": 31, "dimension": 0, "degree": 1})


def test_high_degree_leading_monomial(tmp_path):
    # the Hilbert series numerator of <x0^999*x1> is 1 - t^1000
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"ambient": 2, "polys": ["x0^999*x1"]}))
    assert _run_batch([["dim", "--ideal", str(path), "--no-cache"],
                       ["hilbert", "--ideal", str(path), "--u", "1000", "--no-cache"]]) == [
        [0, {"ambient": 2, "dimension": 1, "degree": 1000}],
        [0, {"u": 1000, "value": math.comb(1002, 2) - 1}]]

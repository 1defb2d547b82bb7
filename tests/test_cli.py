"""End-to-end checks of the command line interface.

Every invocation goes through main(argv) with an explicit cache flag so no
test touches the user-level cache directory.
"""

import json
import math

import pytest

from hyperpos import __version__, cli


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
        assert report["payload"]["error"] == "UsageError"

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

    def test_not_sorted_surfaces_verbatim(self, runj):
        code, report = runj("ineq", "--t", "0,1,2", "--a", "1,3/2", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "NotSorted"

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

    def test_replace(self, runj, coord_config):
        code, report = runj("replace", "--config", coord_config,
                            "--seed", "5", "--no-cache")
        assert code == 0
        payload = report["payload"]
        assert payload["ok"] is True
        assert payload["degree"] == 1
        assert len(payload["coeff_matrix"]) == 3
        assert payload["prefix_dims"] == [1, 0, "EMPTY"]

    def test_replace_rejects_zero_bound(self, runj, coord_config):
        code, report = runj("replace", "--config", coord_config,
                            "--bound", "0", "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "BelowOne"

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

    def test_config_knobs_reach_handlers(self, runj, tmp_path):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": ["x0", "x1", "x2"],
                                    "subset_cap": 2}))
        code, report = runj("delta", "--config", str(path), "--no-cache")
        assert code == 2
        assert report["payload"]["error"] == "SubsetCapExceeded"

    def test_cap_flag_overrides_config(self, runj, tmp_path):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps({"ambient": 2, "variety": [],
                                    "family": ["x0", "x1", "x2"],
                                    "subset_cap": 2}))
        code, report = runj("delta", "--config", str(path), "--cap", "14",
                            "--no-cache")
        assert code == 0
        assert report["payload"]["delta"] == "1/1"

    @pytest.mark.parametrize("knobs", [{"seed": "abc"}, {"subset_cap": []},
                                       {"precision": 2.5}, {"seed": True}])
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
                                    "family": ["x0", "x1", "x2"], "subset_cap": "2"}))
        code, report = runj("delta", "--config", str(path), "--no-cache")
        assert report["payload"]["error"] == "SubsetCapExceeded"

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

    def test_bad_place_is_usage_error(self, capsys):
        code = cli.main(["weil", "--poly", "x0", "--nvars", "1",
                         "--point", "1", "--place", "six", "--no-cache"])
        capsys.readouterr()
        assert code == 1

    def test_nonprime_place_is_domain_error(self, runj):
        code, report = runj("weil", "--poly", "x0 + x1", "--nvars", "2",
                            "--point", "1,1", "--place", "6", "--no-cache")
        assert code == 2


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

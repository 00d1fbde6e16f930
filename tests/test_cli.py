import argparse
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from importlib import resources

import pytest

import flagflux
from flagflux import cli, print_form, print_malcev, rootsys, tduality
from flagflux.cli import main

from conftest import fingerprint_tie_dual

Result = namedtuple("Result", "exit_code stdout stderr")


@pytest.fixture()
def tie_config(tmp_path):
    """Config of ``fingerprint_tie_dual``."""
    dual = fingerprint_tie_dual()
    cfg = tmp_path / "tie.json"
    cfg.write_text(
        json.dumps(
            {
                "algebra": print_malcev(dual.algebra),
                "ideal": list(dual.ideal),
                "flux": print_form(dual.flux),
            }
        )
    )
    return str(cfg)


@pytest.fixture()
def run(capsys):
    """Run one command line in-process; its exit code and captured output."""

    def invoke(*args):
        code = main(list(args), standalone_mode=False)
        out, err = capsys.readouterr()
        return Result(code, out, err)

    return invoke


class TestExitCodes:
    def test_success_is_zero(self, run):
        result = run("dualize", "--rank", "2", "--ideal", "3")
        assert result.exit_code == 0

    def test_domain_error_is_one_with_error_object(self, run):
        result = run("dualize", "--rank", "2", "--ideal", "1")
        assert result.exit_code == 1
        body = json.loads(result.stdout)
        assert body["error"]["kind"] == "inadmissible"
        assert body["error"]["admissibility"]["ok"] is False
        assert "quotient differential contains ideal legs" in (
            body["error"]["admissibility"]["details"]["ideal"]
        )

    def test_unsupported_series_is_one(self, run):
        result = run("root-system", "--series", "B", "--rank", "2")
        assert result.exit_code == 1
        assert json.loads(result.stdout)["error"]["kind"] == "unsupported-series"

    @pytest.mark.parametrize(
        "command", ["nilradical", "selfdual", "dualize", "correspond", "root-system", "gcs-transport"]
    )
    def test_unsupported_series_wins_over_bad_rank(self, run, command):
        extra = ["--ideal", "1"] if command in ("dualize", "correspond") else []
        result = run(command, "--series", "B", "--rank", "0", *extra)
        assert result.exit_code == 1
        assert json.loads(result.stdout)["error"]["kind"] == "unsupported-series"

    @pytest.mark.parametrize("rank", ["0", "-2"])
    @pytest.mark.parametrize(
        "command", ["nilradical", "selfdual", "dualize", "correspond", "root-system", "gcs-transport"]
    )
    def test_rank_below_one_is_one(self, run, command, rank):
        extra = ["--ideal", "1"] if command in ("dualize", "correspond") else []
        result = run(command, "--rank", rank, *extra)
        assert result.exit_code == 1
        body = json.loads(result.stdout)
        assert body["error"] == {"kind": "invalid-input", "message": "rank must be >= 1"}

    @pytest.mark.parametrize("command", ["root-system", "nilradical"])
    def test_spec_is_read_before_it_is_checked(self, run, tmp_path, command):
        # an unreadable theta is a usage error even on an unsupported series
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"series": "B", "rank": 2, "theta": "x"}))
        result = run(command, "--config", str(cfg))
        assert result.exit_code == 2
        assert "expected a comma-separated integer list, got 'x'" in result.stderr

    def test_ideal_out_of_range_is_one(self, run):
        # named as typed, repeats and order kept
        result = run("dualize", "--rank", "2", "--ideal", "5,5,1")
        assert result.exit_code == 1
        assert json.loads(result.stdout)["error"] == {
            "kind": "invalid-input",
            "message": "ideal (5, 5, 1) outside 1..3",
        }

    def test_flux_out_of_range_is_one(self, run):
        result = run("dualize", "--rank", "2", "--ideal", "3", "--flux", "e^{145}")
        assert result.exit_code == 1
        body = json.loads(result.stdout)
        assert body["error"]["kind"] == "invalid-input"
        assert "beyond dimension" in body["error"]["message"]

    @pytest.mark.parametrize("command", ["dualize", "correspond"])
    def test_algebra_failing_jacobi_is_one(self, run, command, tmp_path):
        # d(de^5) = d(e^{34}) = e^{124}: not a Lie algebra, though admissible
        cfg = tmp_path / "nonjacobi.json"
        cfg.write_text(json.dumps({"algebra": "(0,0,e^{12},e^{13},e^{34})", "ideal": [5]}))
        result = run(command, "--config", str(cfg))
        assert result.exit_code == 1
        assert json.loads(result.stdout)["error"] == {
            "kind": "invalid-input",
            "message": "algebra fails the Jacobi identity: d(de^5) = e^{124}",
        }

    @pytest.mark.parametrize("command", ["dualize", "correspond"])
    def test_non_invariant_flux_is_inadmissible(self, run, command):
        # a Lie algebra, but slot 4 moves H: its dual would fail the Jacobi identity
        result = run(
            command, "--rank", "3", "--ideal", "4,6", "--flux", "e^{126}+e^{145}"
        )
        assert result.exit_code == 1
        error = json.loads(result.stdout)["error"]
        assert error["kind"] == "inadmissible"
        assert error["message"] == "triple is not admissible: invariant failed"
        assert error["admissibility"]["invariant"] is False
        assert error["admissibility"]["details"]["invariant"] == "L_{e_4} H = -e^{123}"

    def test_flag_value_may_start_with_minus(self, run):
        result = run("dualize", "--rank", "2", "--ideal", "3", "--flux", "-e^{123}")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["flux"] == "-e^{123}"

    def test_invariant_flux_on_non_central_ideal_is_zero(self, run):
        result = run(
            "dualize", "--rank", "3", "--theta", "1", "--ideal", "1,4", "--flux", "e^{123}"
        )
        assert result.exit_code == 0
        admissibility = json.loads(result.stdout)["admissibility"]
        assert admissibility["ok"] and admissibility["invariant"]
        assert not admissibility["central"]

    def test_malcev_syntax_error_is_two(self, run, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"algebra": "(0,0,-e^{1", "ideal": [3]}))
        result = run("dualize", "--config", str(cfg))
        assert result.exit_code == 2
        assert "parse error" in result.stderr

    def test_lone_rational_flux_is_two(self, run):
        # a 0-form's text is not a 3-form
        result = run("dualize", "--rank", "2", "--ideal", "3", "--flux", "3")
        assert result.exit_code == 2
        assert "parse error" in result.stderr

    def test_invalid_json_config_is_two(self, run, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        result = run("dualize", "--config", str(cfg))
        assert result.exit_code == 2
        assert "invalid JSON" in result.stderr

    def test_non_utf8_config_is_two(self, run, tmp_path):
        # a config is JSON, which is UTF-8; a byte that cannot decode is a
        # parse error like invalid JSON, not a domain error
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'{"rank": 2, "theta": "\xff"}')
        result = run("nilradical", "--config", str(cfg))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "parse error: invalid JSON" in result.stderr
        assert "can't decode byte 0xff" in result.stderr

    def test_missing_rank_is_two(self, run):
        result = run("nilradical")
        assert result.exit_code == 2
        assert "--rank" in result.stderr

    def test_unknown_option_is_two(self, run):
        result = run("dualize", "--no-such-flag")
        assert result.exit_code == 2
        assert "flagflux dualize: error: unrecognized arguments: --no-such-flag" in result.stderr

    def test_bad_theta_list_is_two(self, run):
        result = run(
            "root-system", "--rank", "2", "--theta", "1,x"
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("root-system", {"rank": [1]}, "rank"),
            ("root-system", {"rank": True}, "rank"),
            ("root-system", {"rank": "x"}, "rank"),
            ("nilradical", {"rank": [1]}, "rank"),
            ("nilradical", {"rank": True}, "rank"),
            ("nilradical", {"rank": "x"}, "rank"),
            ("correspond", {"rank": 2, "ideal": [3], "rank_bound": [1]}, "rank_bound"),
            ("correspond", {"rank": 2, "ideal": [3], "rank_bound": True}, "rank_bound"),
            ("dualize", {"rank": 2, "ideal": [3], "flux": 0}, "flux"),
            ("dualize", {"algebra": 5, "ideal": [3]}, "algebra"),
            ("dualize", {"algebra": "(0,0,-e^{12})", "dim": [3], "ideal": [3]}, "dim"),
            ("correspond", {"rank": 2, "ideal": [3], "rank_bound": -3}, "rank_bound"),
            ("nilradical", {"series": 5, "rank": 2}, "series"),
            ("root-system", {"series": 5, "rank": 2}, "series"),
            (
                "gcs-transport",
                {"rank": 1, "blocks": {"1": {"kind": "complex"}}, "dual": {"series": 5, "rank": 1}},
                "series",
            ),
        ],
    )
    def test_wrong_config_type_is_two(self, run, tmp_path, command, config, key):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        result = run(command, "--config", str(cfg))
        assert result.exit_code == 2
        assert "Traceback" not in result.stdout + result.stderr
        assert key in result.stderr

    def test_rank_bound_flag_is_gone(self, run):
        result = run(
            "correspond", "--rank", "2", "--ideal", "3", "--rank-bound", "7"
        )
        assert result.exit_code == 2
        assert "--rank-bound" in result.stderr

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("correspond", {"rank": 2, "ideal": [3], "rank_bound": 7}, "'rank_bound'"),
            ("nilradical", {"rank": 2, "ideal": [3], "flux": "0"}, "keys in config: 'flux', 'ideal'"),
            ("selfdual", {"rank": 2, "blocks": {}}, "'blocks'"),
            ("root-system", {"rank": 2, "dual": {}}, "'dual'"),
        ],
    )
    def test_unknown_config_key_is_two(self, run, tmp_path, command, config, message):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        result = run(command, "--config", str(cfg))
        assert result.exit_code == 2
        assert message in result.stderr

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("dualize", {"algebra": "(0,0,-e^{12})", "rank": 5, "ideal": [3]}, "'rank'"),
            ("correspond", {"algebra": "(0,0,-e^{12})", "theta": [1], "ideal": [3]}, "'theta'"),
            ("dualize", {"algebra": "(0,0,-e^{12})", "series": "B", "ideal": [3]}, "'series'"),
            ("correspond", {"rank": 2, "dim": 7, "ideal": [3]}, "'dim'"),
        ],
    )
    def test_mixed_config_keys_is_two(self, run, tmp_path, command, config, message):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        result = run(command, "--config", str(cfg))
        assert result.exit_code == 2
        assert message in result.stderr

    def test_default_series_with_algebra_is_zero(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"algebra": "(0,0,-e^{12})", "series": "A", "ideal": [3]}))
        result = run("dualize", "--config", str(cfg))
        assert result.exit_code == 0


class TestDeterminism:
    def test_byte_identical_repeat(self, run):
        args = ["correspond", "--rank", "2", "--ideal", "3"]
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_json_is_sorted_and_indented(self, run):
        result = run("nilradical", "--rank", "2")
        body = json.loads(result.stdout)
        assert result.stdout == json.dumps(body, sort_keys=True, indent=2) + "\n"

    def test_no_timestamps(self, run):
        result = run("selfdual", "--rank", "2")
        assert "time" not in result.stdout.lower()
        assert "date" not in result.stdout.lower()


class TestConfigMerge:
    def test_config_wins_with_warning(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"rank": 2, "ideal": [3]}))
        result = run(
            "dualize", "--rank", "3", "--config", str(cfg)
        )
        assert result.exit_code == 0
        assert "warning: config file overrides --rank" in result.stderr
        assert json.loads(result.stdout)["algebra"] == "(0,0,-e^{12})"

    def test_flag_fills_missing_key_silently(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"rank": 2}))
        result = run("dualize", "--ideal", "3", "--config", str(cfg))
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_default_value_never_warns(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"series": "A", "rank": 2, "ideal": [3]}))
        result = run("dualize", "--config", str(cfg))
        assert result.stderr == ""

    def test_explicit_algebra_input(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "algebra": "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})",
                    "ideal": [6],
                }
            )
        )
        result = run("dualize", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["dual"]["algebra"] == "(0,0,0,-e^{12},-e^{23},0)"
        assert body["H_dual"] == "-e^{146}+e^{356}"
        assert "source" not in body

    def test_zero_dimensional_nilradical_dualizes(self, run, tmp_path):
        # theta {1} on A_1 leaves no complementary root: a 0-dimensional nilradical
        algebra = json.loads(run("nilradical", "--rank", "1", "--theta", "1").stdout)
        assert algebra["presentation"] == "()"
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"algebra": algebra["presentation"], "ideal": []}))
        result = run("dualize", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.stdout)["dual"]["algebra"] == "()"


class TestReports:
    def test_dualize_json_shape(self, run):
        result = run("dualize", "--rank", "2", "--ideal", "3")
        body = json.loads(result.stdout)
        assert body["H_dual"] == "-e^{123}"
        assert body["dual"]["flux"] == body["H_dual"]
        assert body["delta"] == "0"
        assert body["certificate"]["ok"] is True
        assert body["slot_map"]["identity"] is True
        assert body["source"] == {"series": "A", "rank": 2, "theta": []}

    def test_correspond_json_shape(self, run):
        result = run("correspond", "--rank", "2", "--ideal", "3")
        body = json.loads(result.stdout)
        assert "rank_bound" not in body
        assert [t["pretty_name"] for t in body["targets"]] == [
            "SU(4)/S(U(3)×U(1)) ≅ CP^3"
        ]
        assert "search_reason" not in body
        assert "unconfirmed" not in body

    def test_correspond_reports_unconfirmed_beside_targets(self, run, tie_config):
        body = json.loads(run("correspond", "--config", tie_config).stdout)
        assert [t["theta"] for t in body["targets"]] == [[1, 3, 4, 5, 6, 8]]
        assert "search_reason" not in body
        assert body["unconfirmed"] == [
            {
                "series": "A",
                "rank": 8,
                "theta": [1, 2, 3, 5, 6, 7],
                "reason": "search space exhausted without witness",
            }
        ]

    def test_correspond_empty_targets_reason(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "algebra": "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})",
                    "ideal": [6],
                }
            )
        )
        result = run("correspond", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["targets"] == []
        assert body["search_reason"] == (
            "no parabolic nilradical, every rank searched, is isomorphic to "
            "the dual: 3 candidates of dimension 6, 3 rejected by invariant "
            "fingerprint, 0 unconfirmed within search budget"
        )

    def test_correspond_uncapped_reason(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps({"algebra": "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})", "ideal": [6]})
        )
        result = run("correspond", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["targets"] == []
        assert body["search_reason"].startswith(
            "no parabolic nilradical, every rank searched,"
        )

    def test_selfdual_undecided_report(self, run):
        result = run("selfdual", "--rank", "3")
        body = json.loads(result.stdout)
        assert body["selfdual"] is None
        assert body["admissibility"]["closed"] is False
        assert body["admissibility"]["details"]["closed"] == "dH = 2e^{1345}"
        assert "dual" not in body

    def test_selfdual_witness_report(self, run):
        result = run("selfdual", "--rank", "2")
        body = json.loads(result.stdout)
        assert body["selfdual"] is True
        assert body["flux_matches"] is True
        assert body["witness"]["signs"] == [-1, 1, 1]

    def test_root_system_with_theta(self, run):
        result = run(
            "root-system", "--rank", "3", "--theta", "1,3"
        )
        body = json.loads(result.stdout)
        assert body["count"] == 6
        assert body["flag_dimension"] == 4
        assert [s["dim"] for s in body["summands"]] == [4]

    def test_root_system_reports_normalized_theta(self, run):
        args = ("--rank", "3", "--theta", "3,1,1")
        roots = json.loads(run("root-system", *args).stdout)
        nil = json.loads(run("nilradical", *args).stdout)
        assert roots["theta"] == nil["theta"] == [1, 3]
        text = run("root-system", *args, "--format", "text").stdout
        assert "theta: {1,3}\n" in text

    def test_nilradical_legend(self, run):
        result = run("nilradical", "--rank", "2")
        body = json.loads(result.stdout)
        assert body["presentation"] == "(0,0,-e^{12})"
        assert body["jacobi_ok"] is True
        assert body["legend"][2] == {
            "slot": 3,
            "root": [1, 1],
            "matrix_unit": [1, 3],
        }


class TestTextFormat:
    def test_dualize_text(self, run):
        result = run(
            "dualize", "--rank", "2", "--ideal", "3", "--format", "text"
        )
        lines = result.stdout.splitlines()
        assert "algebra: (0,0,-e^{12})" in lines
        assert "H_dual: -e^{123}" in lines
        assert "certificate: pass" in lines

    def test_correspond_text_targets(self, run):
        result = run(
            "correspond", "--rank", "2", "--ideal", "3", "--format", "text"
        )
        assert "targets:" in result.stdout
        assert "SU(4)/S(U(3)×U(1)) ≅ CP^3" in result.stdout
        assert "unconfirmed" not in result.stdout

    def test_correspond_text_unconfirmed(self, run, tie_config):
        lines = run("correspond", "--config", tie_config, "--format", "text").stdout.splitlines()
        assert lines[-1] == (
            "unconfirmed: A_8, theta {1,2,3,5,6,7} (search space exhausted without witness)"
        )

    def test_root_system_text(self, run):
        result = run("root-system", "--rank", "2", "--format", "text")
        lines = result.stdout.splitlines()
        assert lines[0] == "series: A"
        assert "positive roots (3):" in lines

    def test_gcs_transport_text_spells_the_dual_flag(self, run, tmp_path):
        # golden job 14; the dual flag is spelled as every other text report spells a flag
        job = resources.files("flagflux").joinpath("jobs", "14-gcs-sl3-to-cp3.json")
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(json.loads(job.read_text(encoding="utf-8"))["config"]))
        result = run("gcs-transport", "--config", str(cfg), "--format", "text")
        lines = result.stdout.splitlines()
        assert lines[-1] == "uniform after transport on A_3, theta {1,2}: no"

    def test_selfdual_text_undecided(self, run):
        result = run("selfdual", "--rank", "3", "--format", "text")
        assert "selfdual: undecided" in result.stdout
        assert "closed: dH = 2e^{1345}" in result.stdout

    def test_selfdual_text_dual(self, run):
        lines = run("selfdual", "--rank", "2", "--format", "text").stdout.splitlines()
        assert lines[-3:] == [
            "selfdual: yes", "dual algebra: (0,0,e^{12})", "H_dual: -e^{123}",
        ]

    def test_nilradical_text(self, run):
        lines = run("nilradical", "--rank", "2", "--format", "text").stdout.splitlines()
        assert lines == [
            "flag: A_2, theta {}",
            "dim: 3",
            "presentation: (0,0,-e^{12})",
            "jacobi: pass",
            "legend:",
            "  e1 = root (1,0) = E(1,2)",
            "  e2 = root (0,1) = E(2,3)",
            "  e3 = root (1,1) = E(1,3)",
        ]

    def test_correspond_text_no_targets(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps({"algebra": "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})", "ideal": [6]})
        )
        lines = run("correspond", "--config", str(cfg), "--format", "text").stdout.splitlines()
        assert lines[-2:] == [
            "targets: none",
            "reason: no parabolic nilradical, every rank searched, is isomorphic to the "
            "dual: 3 candidates of dimension 6, 3 rejected by invariant fingerprint, "
            "0 unconfirmed within search budget",
        ]


class TestGcsTransport:
    CONFIG = {
        "series": "A",
        "rank": 2,
        "theta": [],
        "blocks": {
            "1,0": {"kind": "noncomplex", "a": "0", "x": "1", "y": "1"},
            "0,1": {"kind": "complex", "sign": 1},
            "1,1": {"kind": "complex", "sign": 1},
        },
        "dual": {"series": "A", "rank": 3, "theta": [1, 2]},
    }

    def test_transport_report(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(self.CONFIG))
        result = run("gcs-transport", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["uniform_before"]["ok"] is True
        assert body["uniform_after"]["ok"] is False
        assert [t["classification"] for t in body["transported"]] == [
            "complex", "symplectic", "symplectic",
        ]

    def test_missing_blocks_is_usage_error(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"series": "A", "rank": 2, "theta": []}))
        result = run("gcs-transport", "--config", str(cfg))
        assert result.exit_code == 2

    def test_unknown_dual_key_is_usage_error(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, dual={"rank": 3, "ideal": [6]})))
        result = run("gcs-transport", "--config", str(cfg))
        assert result.exit_code == 2
        assert "unknown key in dual: 'ideal'" in result.stderr

    def test_non_object_dual_is_usage_error(self, run, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, dual=5)))
        result = run("gcs-transport", "--config", str(cfg))
        assert result.exit_code == 2
        assert "dual must be a JSON object" in result.stderr

    @pytest.mark.parametrize(
        "block, message",
        [
            (5, "must be a JSON object"),
            ({"kind": "noncomplex", "a": "0", "y": "1"}, "needs 'x'"),
            ({"kind": "weird"}, "unknown block kind"),
            ({"kind": "noncomplex", "a": True, "x": "1", "y": "1"}, "bool"),
            ({"kind": "complex", "sign": True}, "sign must be the integer 1 or -1, got True"),
            ({"kind": "complex", "sign": 1.0}, "sign must be the integer 1 or -1, got 1.0"),
            ({"kind": "noncomplex", "a": "1/0", "x": "1", "y": "1"}, "got '1/0'"),
            ({"kind": "noncomplex", "a": "abc", "x": "1", "y": "1"}, "got 'abc'"),
            ({"kind": "noncomplex", "a": "0", "x": "1", "y": "1", "z": 3}, "['z']"),
            ({"kind": "complex", "sign": 1, "a": 3}, "['a']"),
        ],
    )
    def test_malformed_block_is_usage_error(self, run, tmp_path, block, message):
        blocks = dict(self.CONFIG["blocks"], **{"1,0": block})
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, blocks=blocks)))
        result = run("gcs-transport", "--config", str(cfg))
        assert result.exit_code == 2
        assert "block for signature (1,0)" in result.stderr
        assert message in result.stderr

    def test_builds_only_the_summand_roots(self, run, monkeypatch, tmp_path):
        # golden job 14: three roots of A_2 and the three of A_3 theta {1,2}
        # that cross its cut; no whole root system is built
        job = resources.files("flagflux").joinpath("jobs", "14-gcs-sl3-to-cp3.json")
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(json.loads(job.read_text(encoding="utf-8"))["config"]))
        built = []
        real = rootsys.Root.__post_init__
        monkeypatch.setattr(rootsys.Root, "__post_init__", lambda r: built.append(r) or real(r))
        assert run("gcs-transport", "--config", str(cfg)).exit_code == 0
        assert len(built) == 6

    @pytest.mark.parametrize(
        "blocks, key",
        [
            (dict(CONFIG["blocks"], **{"9,9": {"kind": "complex", "bogus": 1}}), "9,9"),
            # names no summand and leaves (1,0) unassigned: the unread key
            # is the usage error, before any block is looked up
            ({("1, 0" if k == "1,0" else k): v for k, v in CONFIG["blocks"].items()}, "1, 0"),
        ],
        ids=["extra", "misspelt"],
    )
    def test_unknown_signature_is_usage_error(self, run, tmp_path, blocks, key):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, blocks=blocks)))
        result = run("gcs-transport", "--config", str(cfg))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "unknown key in blocks: %r" % key in result.stderr

    def test_unassigned_signature_is_domain_error(self, run, tmp_path):
        broken = dict(self.CONFIG, blocks={"1,0": {"kind": "complex", "sign": 1}})
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(broken))
        result = run("gcs-transport", "--config", str(cfg))
        assert result.exit_code == 1
        assert "no block assigned" in json.loads(result.stdout)["error"]["message"]


class TestGolden:
    def test_all_jobs_pass(self, run):
        result = run("golden")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 14
        assert all(line.startswith("ok   ") for line in lines)

    def test_failures_are_reported_and_exit_one(self, run, monkeypatch, tmp_path):
        # a jobs/ tree with one job of each failing kind and one that passes
        jobs = tmp_path / "jobs"
        (jobs / "expected").mkdir(parents=True)
        nil = {"command": "nilradical", "config": {"rank": 1}}
        for name, job in [
            ("1-bad.json", {"command": "nope"}),
            ("2-err.json", {"command": "nilradical", "config": {}}),
            ("3-miss.json", nil),
            ("4-diff.json", nil),
            ("5-ok.json", nil),
        ]:
            (jobs / name).write_text(json.dumps(job))
        (jobs / "expected" / "4-diff.json").write_text("{}\n")
        (jobs / "expected" / "5-ok.json").write_text(run("nilradical", "--rank", "1").stdout)
        monkeypatch.setattr(cli.resources, "files", lambda package: tmp_path)
        result = run("golden")
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert lines[:5] == [
            "BAD  1-bad.json (unknown command 'nope')",
            "ERR  2-err.json (missing --rank (or config key \"rank\"))",
            "MISS 3-miss.json (no expected report)",
            "DIFF 4-diff.json",
            "ok   5-ok.json",
        ]
        assert json.loads("\n".join(lines[5:])) == {
            "error": {"kind": "golden-mismatch", "message": "4 job(s) differ"}
        }

    def test_list_names_jobs(self, run):
        result = run("golden", "--list")
        names = result.stdout.split()
        assert len(names) == 14
        assert names == sorted(names)
        assert "11-correspond-su6.json" in names


class TestLocale:
    """Configs are JSON, read as UTF-8 whatever the locale's encoding; a
    text report the locale cannot encode is written as UTF-8."""

    def test_unicode_minus_config_in_c_locale(self, tmp_path):
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(flagflux.__file__))
        reports = []
        for name, minus in (("unicode", "\u2212"), ("ascii", "-")):
            path = tmp_path / (name + ".json")
            path.write_text(
                json.dumps(
                    {"algebra": "(0,0,%se^{12})" % minus, "ideal": [3], "flux": "0"},
                    ensure_ascii=False,
                ),
                encoding="utf-8",
            )
            result = subprocess.run(
                [sys.executable, "-m", "flagflux.cli", "correspond", "--config", str(path)],
                env=env, capture_output=True, check=False,
            )
            assert result.returncode == 0, result.stdout
            reports.append(result.stdout)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["targets"][0]["rank"] == 3

    def test_text_report_in_c_locale_is_utf8(self):
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(flagflux.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "flagflux.cli", "correspond", "--rank", "2", "--ideal", "3",
             "--format", "text"],
            env=env, capture_output=True, check=False,
        )
        assert result.returncode == 0, result.stderr
        assert "  SU(4)/S(U(3)×U(1)) ≅ CP^3  [A_3, theta {1,2}]\n".encode("utf-8") in result.stdout


class TestLibraryChecks:
    """The CLI reads admissibility off the library's dualization and leaves
    the triple's input rules to AdmissibleTriple."""

    @pytest.mark.parametrize("command", ["dualize", "correspond"])
    def test_checks_admissibility_once(self, run, monkeypatch, command):
        calls = []
        real = tduality.check_admissible
        monkeypatch.setattr(tduality, "check_admissible", lambda t: calls.append(t) or real(t))
        result = run(command, "--rank", "3", "--theta", "2", "--ideal", "5")
        assert json.loads(result.stdout)["admissibility"]["ok"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["dualize", "correspond"])
    def test_jacobi_checked_on_explicit_algebras_only(self, run, monkeypatch, tmp_path, command):
        # a flag's nilradical and its dual are marked Lie where they are built
        calls = []
        real = tduality.jacobi_check
        monkeypatch.setattr(tduality, "jacobi_check", lambda p: calls.append(p) or real(p))
        flag = tmp_path / "flag.json"
        flag.write_text(json.dumps({"rank": 5, "theta": [1, 3, 5], "ideal": [10, 11, 12]}))
        assert run(command, "--config", str(flag)).exit_code == 0
        assert calls == []
        explicit = tmp_path / "explicit.json"
        explicit.write_text(json.dumps({"algebra": "(0,0,-e^{12})", "ideal": [3]}))
        assert run(command, "--config", str(explicit)).exit_code == 0
        assert [print_malcev(p) for p in calls] == ["(0,0,-e^{12})"]


class TestCommandFlags:
    """Each report command takes exactly the flags it always took."""

    SPEC = ["--series", "--rank", "--theta"]
    TRIPLE = SPEC + ["--ideal", "--flux"]

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("root-system", SPEC),
            ("nilradical", SPEC),
            ("dualize", TRIPLE),
            ("correspond", TRIPLE),
            ("selfdual", ["--series", "--rank"]),
            ("gcs-transport", SPEC),
        ],
    )
    def test_flags(self, command, flags):
        assert _options(_command_parser(command)) == ["-h", "--help"] + flags + [
            "--format", "--config"
        ]

    def test_golden_flags(self):
        assert _options(_command_parser("golden")) == ["-h", "--help", "--list"]


def _command_parser(name):
    """The argparse parser of one command, read off the CLI's parser."""
    (commands,) = [
        action for action in cli._PARSER._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices[name]


def _options(parser):
    return [opt for action in parser._actions for opt in action.option_strings]


class TestHelp:
    def test_main_help_lists_every_command(self, run):
        result = run("--help")
        assert result.exit_code == 0
        text = " ".join(result.stdout.split())
        for name, spec in cli._COMMANDS.items():
            assert "%s %s" % (name, spec.help) in text
        assert "golden Run the bundled jobs" in text

    @pytest.mark.parametrize("command", [*cli._COMMANDS, "golden"])
    def test_command_help_lists_flags_in_order(self, run, command):
        result = run(command, "--help")
        assert result.exit_code == 0
        assert result.stderr == ""
        if command == "golden":
            flags = ["--list"]
        else:
            spec = cli._COMMANDS[command]
            assert spec.help in " ".join(result.stdout.split())
            flags = [*spec.flags, "--format", "--config"]
        assert re.findall(r"^  (-[-\w]+)", result.stdout, re.M) == ["-h", *flags]


class TestEmbedding:
    """The call an embedding program makes: main returns the exit code."""

    JOB = "08-correspond-heisenberg.json"

    def test_golden_job_returns_zero_with_expected_bytes(self, capsys, tmp_path):
        jobs = resources.files("flagflux").joinpath("jobs")
        job = json.loads(jobs.joinpath(self.JOB).read_text(encoding="utf-8"))
        config = tmp_path / self.JOB
        config.write_text(json.dumps(job["config"]))
        code = main(
            args=["correspond", "--config", str(config)], standalone_mode=False,
            prog_name="flagflux",
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert out == jobs.joinpath("expected", self.JOB).read_text(encoding="utf-8")
        assert err == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["correspond"], "flagflux correspond: error: missing --rank"),
            (["correspond", "--rank", "x"], "argument --rank: invalid int value: 'x'"),
            (["correspond", "--config", "no-such.json"], "'no-such.json' does not exist"),
        ],
    )
    def test_usage_error_returns_two(self, capsys, args, message):
        code = main(args=args, standalone_mode=False, prog_name="flagflux")
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert message in err

    def test_prog_name_names_the_program(self, capsys):
        assert main(["nilradical"], prog_name="ff", standalone_mode=False) == 2
        assert "ff nilradical: error: missing --rank" in capsys.readouterr().err

    def test_standalone_mode_exits_with_the_code(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["golden", "--list"])
        assert exit_info.value.code == 0
        assert "08-correspond-heisenberg.json" in capsys.readouterr().out


class TestImports:
    def test_cli_imports_only_the_standard_library(self):
        code = (
            "import sys; before = set(sys.modules); import flagflux.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(flagflux.__file__)))
        loaded = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert "flagflux.cli" in loaded
        roots = {name.partition(".")[0] for name in loaded}
        assert roots - set(sys.stdlib_module_names) == {"flagflux"}

import json

import pytest
from click.testing import CliRunner

from flagflux.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


class TestExitCodes:
    def test_success_is_zero(self, runner):
        result = invoke(runner, "dualize", "--rank", "2", "--ideal", "3")
        assert result.exit_code == 0

    def test_domain_error_is_one_with_error_object(self, runner):
        result = runner.invoke(main, ["dualize", "--rank", "2", "--ideal", "1"])
        assert result.exit_code == 1
        body = json.loads(result.stdout)
        assert body["error"]["kind"] == "inadmissible"
        assert body["error"]["admissibility"]["ok"] is False
        assert "quotient differential contains ideal legs" in (
            body["error"]["admissibility"]["details"]["ideal"]
        )

    def test_unsupported_series_is_one(self, runner):
        result = runner.invoke(main, ["root-system", "--series", "B", "--rank", "2"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["error"]["kind"] == "unsupported-series"

    def test_flux_out_of_range_is_one(self, runner):
        result = runner.invoke(
            main,
            ["dualize", "--rank", "2", "--ideal", "3", "--flux", "e^{145}"],
        )
        assert result.exit_code == 1
        body = json.loads(result.stdout)
        assert body["error"]["kind"] == "invalid-input"
        assert "beyond dimension" in body["error"]["message"]

    def test_malcev_syntax_error_is_two(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"algebra": "(0,0,-e^{1", "ideal": [3]}))
        result = runner.invoke(main, ["dualize", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "parse error" in result.stderr

    def test_invalid_json_config_is_two(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["dualize", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "invalid JSON" in result.stderr

    def test_missing_rank_is_two(self, runner):
        result = runner.invoke(main, ["nilradical"])
        assert result.exit_code == 2
        assert "--rank" in result.stderr

    def test_unknown_option_is_two(self, runner):
        result = runner.invoke(main, ["dualize", "--no-such-flag"])
        assert result.exit_code == 2

    def test_bad_theta_list_is_two(self, runner):
        result = runner.invoke(
            main, ["root-system", "--rank", "2", "--theta", "1,x"]
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
        ],
    )
    def test_wrong_config_type_is_two(self, runner, tmp_path, command, config, key):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert key in result.stderr

    def test_non_positive_rank_bound_flag_is_two(self, runner):
        result = runner.invoke(
            main, ["correspond", "--rank", "2", "--ideal", "3", "--rank-bound", "0"]
        )
        assert result.exit_code == 2
        assert "rank_bound" in result.stderr


class TestDeterminism:
    def test_byte_identical_repeat(self, runner):
        args = ["correspond", "--rank", "2", "--ideal", "3", "--rank-bound", "13"]
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_json_is_sorted_and_indented(self, runner):
        result = invoke(runner, "nilradical", "--rank", "2")
        body = json.loads(result.stdout)
        assert result.stdout == json.dumps(body, sort_keys=True, indent=2) + "\n"

    def test_no_timestamps(self, runner):
        result = invoke(runner, "selfdual", "--rank", "2")
        assert "time" not in result.stdout.lower()
        assert "date" not in result.stdout.lower()


class TestConfigMerge:
    def test_config_wins_with_warning(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"rank": 2, "ideal": [3]}))
        result = invoke(
            runner, "dualize", "--rank", "3", "--config", str(cfg)
        )
        assert result.exit_code == 0
        assert "warning: config file overrides --rank" in result.stderr
        assert json.loads(result.stdout)["algebra"] == "(0,0,-e^{12})"

    def test_flag_fills_missing_key_silently(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"rank": 2}))
        result = invoke(runner, "dualize", "--ideal", "3", "--config", str(cfg))
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_default_value_never_warns(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"series": "A", "rank": 2, "ideal": [3]}))
        result = invoke(runner, "dualize", "--config", str(cfg))
        assert result.stderr == ""

    def test_explicit_algebra_input(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "algebra": "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})",
                    "ideal": [6],
                }
            )
        )
        result = invoke(runner, "dualize", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["dual"]["algebra"] == "(0,0,0,-e^{12},-e^{23},0)"
        assert body["H_dual"] == "-e^{146}+e^{356}"
        assert "source" not in body


class TestReports:
    def test_dualize_json_shape(self, runner):
        result = invoke(runner, "dualize", "--rank", "2", "--ideal", "3")
        body = json.loads(result.stdout)
        assert body["H_dual"] == "-e^{123}"
        assert body["dual"]["flux"] == body["H_dual"]
        assert body["delta"] == "0"
        assert body["certificate"]["ok"] is True
        assert body["slot_map"]["identity"] is True
        assert body["source"] == {"series": "A", "rank": 2, "theta": []}

    def test_correspond_json_shape(self, runner):
        result = invoke(
            runner, "correspond", "--rank", "2", "--ideal", "3",
            "--rank-bound", "13",
        )
        body = json.loads(result.stdout)
        assert body["rank_bound"] == 13
        assert [t["pretty_name"] for t in body["targets"]] == [
            "SU(4)/S(U(3)×U(1)) ≅ CP^3"
        ]
        assert "search_reason" not in body

    def test_correspond_empty_targets_reason(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "algebra": "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})",
                    "ideal": [6],
                    "rank_bound": 7,
                }
            )
        )
        result = invoke(runner, "correspond", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["targets"] == []
        assert body["search_reason"].startswith(
            "no parabolic nilradical within rank bound 7"
        )

    def test_correspond_uncapped_reason(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps({"algebra": "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})", "ideal": [6]})
        )
        result = invoke(runner, "correspond", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["rank_bound"] is None
        assert body["targets"] == []
        assert body["search_reason"].startswith(
            "no parabolic nilradical, every rank searched,"
        )

    def test_selfdual_undecided_report(self, runner):
        result = invoke(runner, "selfdual", "--rank", "3")
        body = json.loads(result.stdout)
        assert body["selfdual"] is None
        assert body["admissibility"]["closed"] is False
        assert body["admissibility"]["details"]["closed"] == "dH = 2e^{1345}"
        assert "dual" not in body

    def test_selfdual_witness_report(self, runner):
        result = invoke(runner, "selfdual", "--rank", "2")
        body = json.loads(result.stdout)
        assert body["selfdual"] is True
        assert body["flux_matches"] is True
        assert body["witness"]["signs"] == [-1, 1, 1]

    def test_root_system_with_theta(self, runner):
        result = invoke(
            runner, "root-system", "--rank", "3", "--theta", "1,3"
        )
        body = json.loads(result.stdout)
        assert body["count"] == 6
        assert body["flag_dimension"] == 4
        assert [s["dim"] for s in body["summands"]] == [4]

    def test_nilradical_legend(self, runner):
        result = invoke(runner, "nilradical", "--rank", "2")
        body = json.loads(result.stdout)
        assert body["presentation"] == "(0,0,-e^{12})"
        assert body["jacobi_ok"] is True
        assert body["legend"][2] == {
            "slot": 3,
            "root": [1, 1],
            "matrix_unit": [1, 3],
        }


class TestTextFormat:
    def test_dualize_text(self, runner):
        result = invoke(
            runner, "dualize", "--rank", "2", "--ideal", "3", "--format", "text"
        )
        lines = result.stdout.splitlines()
        assert "algebra: (0,0,-e^{12})" in lines
        assert "H_dual: -e^{123}" in lines
        assert "certificate: pass" in lines

    def test_correspond_text_targets(self, runner):
        result = invoke(
            runner, "correspond", "--rank", "2", "--ideal", "3", "--format", "text"
        )
        assert "rank bound: none" in result.stdout.splitlines()
        assert "targets:" in result.stdout
        assert "SU(4)/S(U(3)×U(1)) ≅ CP^3" in result.stdout

    def test_root_system_text(self, runner):
        result = invoke(runner, "root-system", "--rank", "2", "--format", "text")
        lines = result.stdout.splitlines()
        assert lines[0] == "series: A"
        assert "positive roots (3):" in lines

    def test_selfdual_text_undecided(self, runner):
        result = invoke(runner, "selfdual", "--rank", "3", "--format", "text")
        assert "selfdual: undecided" in result.stdout
        assert "closed: dH = 2e^{1345}" in result.stdout


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

    def test_transport_report(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(self.CONFIG))
        result = invoke(runner, "gcs-transport", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["uniform_before"]["ok"] is True
        assert body["uniform_after"]["ok"] is False
        assert [t["classification"] for t in body["transported"]] == [
            "complex", "symplectic", "symplectic",
        ]

    def test_missing_blocks_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"series": "A", "rank": 2, "theta": []}))
        result = runner.invoke(main, ["gcs-transport", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_non_object_dual_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, dual=5)))
        result = runner.invoke(main, ["gcs-transport", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "dual must be a JSON object" in result.stderr

    @pytest.mark.parametrize(
        "block, message",
        [
            (5, "must be a JSON object"),
            ({"kind": "noncomplex", "a": "0", "y": "1"}, "needs 'x'"),
            ({"kind": "weird"}, "unknown block kind"),
            ({"kind": "noncomplex", "a": True, "x": "1", "y": "1"}, "bool"),
        ],
    )
    def test_malformed_block_is_usage_error(self, runner, tmp_path, block, message):
        blocks = dict(self.CONFIG["blocks"], **{"1,0": block})
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, blocks=blocks)))
        result = runner.invoke(main, ["gcs-transport", "--config", str(cfg)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "block for signature (1,0)" in result.stderr
        assert message in result.stderr

    def test_unassigned_signature_is_domain_error(self, runner, tmp_path):
        broken = dict(self.CONFIG, blocks={"1,0": {"kind": "complex", "sign": 1}})
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(broken))
        result = runner.invoke(main, ["gcs-transport", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "no block assigned" in json.loads(result.stdout)["error"]["message"]


class TestGolden:
    def test_all_jobs_pass(self, runner):
        result = invoke(runner, "golden")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 14
        assert all(line.startswith("ok   ") for line in lines)

    def test_list_names_jobs(self, runner):
        result = invoke(runner, "golden", "--list")
        names = result.stdout.split()
        assert len(names) == 14
        assert names == sorted(names)
        assert "11-correspond-su6.json" in names

import json

import pytest
from click.testing import CliRunner

from flagflux import tduality
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

    @pytest.mark.parametrize(
        "command", ["nilradical", "selfdual", "dualize", "correspond", "root-system", "gcs-transport"]
    )
    def test_unsupported_series_wins_over_bad_rank(self, runner, command):
        extra = ["--ideal", "1"] if command in ("dualize", "correspond") else []
        result = runner.invoke(main, [command, "--series", "B", "--rank", "0", *extra])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["error"]["kind"] == "unsupported-series"

    @pytest.mark.parametrize("rank", ["0", "-2"])
    @pytest.mark.parametrize(
        "command", ["nilradical", "selfdual", "dualize", "correspond", "root-system", "gcs-transport"]
    )
    def test_rank_below_one_is_one(self, runner, command, rank):
        extra = ["--ideal", "1"] if command in ("dualize", "correspond") else []
        result = runner.invoke(main, [command, "--rank", rank, *extra])
        assert result.exit_code == 1
        body = json.loads(result.stdout)
        assert body["error"] == {"kind": "invalid-input", "message": "rank must be >= 1"}

    def test_flux_out_of_range_is_one(self, runner):
        result = runner.invoke(
            main,
            ["dualize", "--rank", "2", "--ideal", "3", "--flux", "e^{145}"],
        )
        assert result.exit_code == 1
        body = json.loads(result.stdout)
        assert body["error"]["kind"] == "invalid-input"
        assert "beyond dimension" in body["error"]["message"]

    @pytest.mark.parametrize("command", ["dualize", "correspond"])
    def test_algebra_failing_jacobi_is_one(self, runner, command, tmp_path):
        # d(de^5) = d(e^{34}) = e^{124}: not a Lie algebra, though admissible
        cfg = tmp_path / "nonjacobi.json"
        cfg.write_text(json.dumps({"algebra": "(0,0,e^{12},e^{13},e^{34})", "ideal": [5]}))
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["error"] == {
            "kind": "invalid-input",
            "message": "algebra fails the Jacobi identity: d(de^5) = e^{124}",
        }

    @pytest.mark.parametrize("command", ["dualize", "correspond"])
    def test_non_invariant_flux_is_inadmissible(self, runner, command):
        # a Lie algebra, but slot 4 moves H: its dual would fail the Jacobi identity
        result = runner.invoke(
            main, [command, "--rank", "3", "--ideal", "4,6", "--flux", "e^{126}+e^{145}"]
        )
        assert result.exit_code == 1
        error = json.loads(result.stdout)["error"]
        assert error["kind"] == "inadmissible"
        assert error["message"] == "triple is not admissible: invariant failed"
        assert error["admissibility"]["invariant"] is False
        assert error["admissibility"]["details"]["invariant"] == "L_{e_4} H = -e^{123}"

    def test_invariant_flux_on_non_central_ideal_is_zero(self, runner):
        result = invoke(
            runner, "dualize", "--rank", "3", "--theta", "1", "--ideal", "1,4", "--flux", "e^{123}"
        )
        assert result.exit_code == 0
        admissibility = json.loads(result.stdout)["admissibility"]
        assert admissibility["ok"] and admissibility["invariant"]
        assert not admissibility["central"]

    def test_malcev_syntax_error_is_two(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"algebra": "(0,0,-e^{1", "ideal": [3]}))
        result = runner.invoke(main, ["dualize", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "parse error" in result.stderr

    def test_lone_rational_flux_is_two(self, runner):
        # a 0-form's text is not a 3-form
        result = runner.invoke(main, ["dualize", "--rank", "2", "--ideal", "3", "--flux", "3"])
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
            ("nilradical", {"series": 5, "rank": 2}, "series"),
            ("root-system", {"series": 5, "rank": 2}, "series"),
            (
                "gcs-transport",
                {"rank": 1, "blocks": {"1": {"kind": "complex"}}, "dual": {"series": 5, "rank": 1}},
                "series",
            ),
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

    def test_rank_bound_flag_is_gone(self, runner):
        result = runner.invoke(
            main, ["correspond", "--rank", "2", "--ideal", "3", "--rank-bound", "7"]
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
    def test_unknown_config_key_is_two(self, runner, tmp_path, command, config, message):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
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
    def test_mixed_config_keys_is_two(self, runner, tmp_path, command, config, message):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.stderr

    def test_default_series_with_algebra_is_zero(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"algebra": "(0,0,-e^{12})", "series": "A", "ideal": [3]}))
        result = runner.invoke(main, ["dualize", "--config", str(cfg)])
        assert result.exit_code == 0


class TestDeterminism:
    def test_byte_identical_repeat(self, runner):
        args = ["correspond", "--rank", "2", "--ideal", "3"]
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
        result = invoke(runner, "correspond", "--rank", "2", "--ideal", "3")
        body = json.loads(result.stdout)
        assert "rank_bound" not in body
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
                }
            )
        )
        result = invoke(runner, "correspond", "--config", str(cfg))
        body = json.loads(result.stdout)
        assert body["targets"] == []
        assert body["search_reason"] == (
            "no parabolic nilradical, every rank searched, is isomorphic to "
            "the dual: 3 candidates of dimension 6, 3 rejected by invariant "
            "fingerprint, 0 unconfirmed within search budget"
        )

    def test_correspond_uncapped_reason(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps({"algebra": "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})", "ideal": [6]})
        )
        result = invoke(runner, "correspond", "--config", str(cfg))
        body = json.loads(result.stdout)
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

    def test_root_system_reports_normalized_theta(self, runner):
        args = ("--rank", "3", "--theta", "3,1,1")
        roots = json.loads(invoke(runner, "root-system", *args).stdout)
        nil = json.loads(invoke(runner, "nilradical", *args).stdout)
        assert roots["theta"] == nil["theta"] == [1, 3]
        text = invoke(runner, "root-system", *args, "--format", "text").stdout
        assert "theta: {1,3}\n" in text

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

    def test_unknown_dual_key_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, dual={"rank": 3, "ideal": [6]})))
        result = runner.invoke(main, ["gcs-transport", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "unknown key in dual: 'ideal'" in result.stderr

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
            ({"kind": "complex", "sign": True}, "sign must be the integer 1 or -1, got True"),
            ({"kind": "complex", "sign": 1.0}, "sign must be the integer 1 or -1, got 1.0"),
            ({"kind": "noncomplex", "a": "1/0", "x": "1", "y": "1"}, "got '1/0'"),
            ({"kind": "noncomplex", "a": "abc", "x": "1", "y": "1"}, "got 'abc'"),
            ({"kind": "noncomplex", "a": "0", "x": "1", "y": "1", "z": 3}, "['z']"),
            ({"kind": "complex", "sign": 1, "a": 3}, "['a']"),
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


class TestLibraryChecks:
    """The CLI reads admissibility off the library's dualization and leaves
    the triple's input rules to AdmissibleTriple."""

    @pytest.mark.parametrize("command", ["dualize", "correspond"])
    def test_checks_admissibility_once(self, runner, monkeypatch, command):
        calls = []
        real = tduality.check_admissible
        monkeypatch.setattr(tduality, "check_admissible", lambda t: calls.append(t) or real(t))
        result = invoke(runner, command, "--rank", "3", "--theta", "2", "--ideal", "5")
        assert json.loads(result.stdout)["admissibility"]["ok"] is True
        assert len(calls) == 1


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
        params = main.commands[command].params
        assert [opt for p in params for opt in p.opts] == flags + ["--format", "--config"]

    def test_golden_flags(self):
        assert [opt for p in main.commands["golden"].params for opt in p.opts] == ["--list"]

"""Exit codes, output layering, and file emission of the command line."""

from __future__ import annotations

import csv
import json
import re
import socket

import pytest

from quditqkd import cli
from quditqkd.distill import DistillParams
from quditqkd.netrun import RoleReport, roles


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


# The JSON type of every setting a config file may hold, per subcommand;
# a trailing "?" marks a setting whose built-in is None, which null may set.
CONFIG_TYPES = {
    "simulate": {
        "n": "int", "rounds": "int", "channel": "str", "sample_fraction": "float",
        "seed": "int",
    },
    "analyze": {"n": "int", "channel": "str"},
    "distill": {
        "matrix": "str?", "channel": "str?", "n": "int", "auto_params": "bool",
        "k": "int?", "r": "int?", "k_max": "int", "r_max": "int",
        "css_target": "float", "z_budget": "float", "margin": "float",
        "count": "int?", "seed": "int",
    },
    "threshold": {"n": "int", "grid": "int"},
    "verify": {"samples": "int", "seed": "int"},
    "netrun": {
        "role": "str?", "n": "int", "rounds": "int", "channel": "str",
        "sample_fraction": "float", "seed": "int", "k": "int", "r": "int",
        "listen": "str?", "connect_alice": "str?", "connect_bob": "str?",
    },
}
SETTING_PAIRS = [(command, name) for command in CONFIG_TYPES for name in CONFIG_TYPES[command]]
# One value of each JSON type, and the JSON types a setting of each type takes
JSON_VALUES = {"str": "x", "int": 3, "float": 0.5, "bool": True, "list": [1], "object": {"a": 1}}
ACCEPTS = {"str": {"str"}, "int": {"int"}, "float": {"int", "float"}, "bool": {"bool"}}


def _merge(tmp_path, command: str, data: dict) -> dict:
    """The merged settings of ``command`` run with ``data`` as its config file."""
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(data))
    return cli._layer(cli.build_parser().parse_args([command, "--config", str(path)]))


class TestSimulate:
    def test_clean_session_exits_zero(self, capsys):
        code = run_cli("simulate", "--rounds", "400", "--seed", "0")
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: continue" in out
        assert "e_b:" in out

    def test_condition_failure_exits_two(self, capsys):
        code = run_cli(
            "simulate", "--channel", "full_dephase", "--rounds", "4000", "--seed", "2"
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "verdict: abort" in out

    def test_insufficient_sift_exits_one(self, capsys):
        code = run_cli("simulate", "--n", "4", "--rounds", "3", "--seed", "0")
        assert code == 1
        assert "status:" in capsys.readouterr().out

    def test_bad_channel_exits_one(self, capsys):
        code = run_cli("simulate", "--channel", "nonsense")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_json_dash_is_pure_json(self, capsys):
        code = run_cli("simulate", "--rounds", "400", "--json", "-")
        out = capsys.readouterr().out
        assert code == 0
        blob = json.loads(out)
        assert blob["config"]["rounds"] == 400
        assert blob["stats"]["rounds"] == 400

    def test_json_file_alongside_human_output(self, tmp_path, capsys):
        target = tmp_path / "stats.json"
        code = run_cli("simulate", "--rounds", "400", "--json", str(target))
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict:" in out
        blob = json.loads(target.read_text())
        assert blob["stats"]["rounds"] == 400

    def test_round_log_csv(self, tmp_path):
        target = tmp_path / "rounds.csv"
        code = run_cli("simulate", "--rounds", "400", "--round-log", str(target))
        assert code == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["round", "i", "j"]
        assert len(rows) == 401


class TestAnalyze:
    def test_unitary_report(self, capsys):
        code = run_cli("analyze", "--channel", "z_flip:0.3")
        out = capsys.readouterr().out
        assert code == 0
        assert "e_b: 0.15" in out
        assert "error matrix:" in out

    def test_intercept_report_json(self, capsys):
        code = run_cli("analyze", "--channel", "partial_intercept:0.4", "--json", "-")
        blob = json.loads(capsys.readouterr().out)
        assert code == 0
        assert blob["kind"] == "intercept"
        assert blob["e_b"] == 0.2


class TestDistill:
    def test_auto_params_feasible(self, capsys):
        code = run_cli(
            "distill", "--matrix", "0.75,0.05,0.05,0.15", "--auto-params"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "selected: k=3 r=327" in out

    def test_auto_params_infeasible_exits_two(self, capsys):
        code = run_cli("distill", "--matrix", "0.3,0.3,0.2,0.2", "--auto-params")
        out = capsys.readouterr().out
        assert code == 2
        assert "no feasible parameters" in out

    def test_matrix_and_channel_conflict(self, capsys):
        code = run_cli(
            "distill", "--matrix", "1,0,0,0", "--channel", "identity", "--k", "1",
            "--r", "3",
        )
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_neither_source_rejected(self, capsys):
        code = run_cli("distill", "--k", "1", "--r", "3")
        assert code == 1

    def test_manual_params_without_selection(self, capsys):
        code = run_cli("distill", "--channel", "z_flip:0.3", "--k", "1", "--r", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "params: k=1 r=3" in out
        assert "x_fail:" in out

    def test_manual_needs_both_k_and_r(self, capsys):
        code = run_cli("distill", "--channel", "z_flip:0.3", "--k", "1")
        assert code == 1

    def test_count_runs_sampled_labels(self, capsys):
        code = run_cli(
            "distill", "--matrix", "0.9,0.02,0.03,0.05", "--k", "1", "--r", "3",
            "--count", "2000", "--seed", "5", "--json", "-",
        )
        blob = json.loads(capsys.readouterr().out)
        assert code == 0
        assert blob["run"]["input_length"] == 2000
        assert blob["manual"]["k"] == 1

    def test_nan_matrix_rejected(self, capsys):
        code = run_cli(
            "distill", "--matrix", "nan,0,0,1", "--k", "1", "--r", "1", "--json", "-"
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            # UnsupportedModelError: an intercept channel has no error matrix
            (["--channel", "partial_intercept:0.2", "--k", "1", "--r", "3"],
             "distill --channel needs a unitary-mixture channel;"
             " give an intercept channel's error matrix with --matrix"),
            # InsufficientKeyError: 10 labels are short of 2**3 * 5
            (["--matrix", "0.9,0.02,0.03,0.05", "--k", "3", "--r", "5", "--count", "10"],
             "need at least 2**k * r = 40 labeled bits, got 10"),
        ],
        ids=["unsupported-model", "insufficient-key"],
    )
    def test_value_error_subclasses_exit_one(self, capsys, argv, message):
        code = run_cli("distill", *argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"

    def test_negative_count_rejected(self, capsys):
        code = run_cli(
            "distill", "--channel", "z_flip:0.3", "--auto-params", "--count", "-5"
        )
        assert code == 1
        assert "count must be >= 0" in capsys.readouterr().err


class TestThreshold:
    def test_scan_with_files(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        code = run_cli(
            "threshold", "--grid", "1000", "--csv", str(csv_path),
            "--json", str(json_path),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "e_max = 0.499000" in out
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1002
        blob = json.loads(json_path.read_text())
        assert blob["e_max"] == pytest.approx(0.499)

    def test_bad_grid_exits_one(self, capsys):
        code = run_cli("threshold", "--grid", "10")
        assert code == 1

    @pytest.mark.parametrize("n", ["9", "600"])
    def test_degree_outside_the_field_range_exits_one(self, n, capsys):
        # 600 once escaped as an OverflowError traceback, 9 scanned quietly
        code = run_cli("threshold", "--n", n)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: n must be in [2, 8], got {n}\n"

    def test_json_report_keys(self, capsys):
        code = run_cli("threshold", "--grid", "1000", "--json", "-")
        blob = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(blob) == {"n", "grid", "e_max", "resolution", "statuses"}

    def test_sampling_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"ec_samples": 64}))
        code = run_cli("threshold", "--config", str(cfg))
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err


VERIFY_SAMPLES_30 = """\
field tables (n=2): 23/23 ok
field tables (n=3): 79/79 ok
field tables (n=4): 287/287 ok
field tables (n=5): 1087/1087 ok
field tables (n=6): 4223/4223 ok
field tables (n=7): 16639/16639 ok
field tables (n=8): 66047/66047 ok
born completeness (n=2): 96/96 ok
born completeness (n=3): 1792/1792 ok
born completeness (n=4): 30720/30720 ok
conjugation: 768/768 ok
conjugation sampled (n=3): 30/30 ok
conjugation sampled (n=4): 30/30 ok
all checks passed
"""


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code = run_cli("verify", "--samples", "30")
        assert code == 0
        assert capsys.readouterr().out == VERIFY_SAMPLES_30

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_rejected(self, samples, capsys):
        code = run_cli("verify", "--samples", samples)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "samples must be >= 1" in captured.err


class TestNetrunWiring:
    def test_flags_reach_role_config(self, monkeypatch, capsys):
        seen = {}

        def fake_run_role(cfg):
            seen["cfg"] = cfg
            return RoleReport(role=cfg.role)

        monkeypatch.setattr(cli, "run_role", fake_run_role)
        code = run_cli(
            "netrun", "--role", "alice", "--connect-bob", "127.0.0.1:9",
            "--rounds", "123", "--seed", "7", "--k", "2", "--r", "5",
            "--channel", "z_flip:0.1",
        )
        assert code == 0
        cfg = seen["cfg"]
        assert cfg.role == "alice"
        assert cfg.connect_bob == "127.0.0.1:9"
        assert cfg.session.rounds == 123
        assert cfg.session.seed == 7
        assert cfg.session.channel == "z_flip:0.1"
        assert cfg.params == DistillParams(2, 5)

    def test_report_exit_code_propagates(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli,
            "run_role",
            lambda cfg: RoleReport(role="bob", status="insufficient-sift", exit_code=1),
        )
        code = run_cli("netrun", "--role", "bob", "--listen", "127.0.0.1:9")
        assert code == 1
        assert "status: insufficient-sift" in capsys.readouterr().out

    def test_missing_role_rejected(self, capsys):
        code = run_cli("netrun", "--listen", "127.0.0.1:9")
        assert code == 1
        assert "needs --role" in capsys.readouterr().err

    def test_listener_nobody_dials_names_address_and_deadline(self, monkeypatch, capsys):
        monkeypatch.setattr(roles, "PEER_TIMEOUT", 0.3)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = run_cli("netrun", "--role", "bob", "--listen", f"127.0.0.1:{port}")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"127.0.0.1:{port}" in err and "0.3 s" in err


class TestConfigLayering:
    def test_flags_beat_file_beats_builtin(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"rounds": 50, "seed": 3}))
        code = run_cli(
            "simulate", "--config", str(cfg), "--rounds", "400", "--json", "-"
        )
        blob = json.loads(capsys.readouterr().out)
        assert code == 0
        merged = blob["config"]
        assert merged["rounds"] == 400  # flag wins
        assert merged["seed"] == 3  # file wins over builtin 0
        assert merged["n"] == 2  # builtin survives

    @pytest.mark.parametrize(
        "flags", [["--ec-mode", "in_pair"], ["--no-strict"], ["--strict"], ["--modulus", "0xb"]]
    )
    def test_removed_session_flags_are_usage_errors(self, capsys, flags):
        # one e_c estimator, one strict verdict and one modulus per degree
        # leave nothing to choose
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--rounds", "200", *flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "distill", "netrun"])
    def test_no_subcommand_takes_a_modulus(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--modulus", "0xb")
        assert exc.value.code == 2
        assert "unrecognized arguments: --modulus 0xb" in capsys.readouterr().err

    def test_removed_session_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(
            json.dumps({"ec_mode": "in_pair", "condition_strict": True, "modulus": 11})
        )
        code = run_cli("simulate", "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown config keys: ['condition_strict', 'ec_mode', 'modulus']" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"banana": 1}))
        code = run_cli("simulate", "--config", str(cfg))
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text("[1, 2]")
        code = run_cli("simulate", "--config", str(cfg))
        assert code == 1

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text("{oops")
        code = run_cli("simulate", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize(
        "command, data",
        [
            ("simulate", {"rounds": "100"}),
            ("simulate", {"channel": 5}),
            ("simulate", {"seed": "x"}),
            ("verify", {"samples": "10"}),
        ],
    )
    def test_wrong_config_type_rejected(self, tmp_path, capsys, command, data):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps(data))
        code = run_cli(command, "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and repr(next(iter(data))) in err
        assert "Traceback" not in err

    def test_matrix_list_and_null_config_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        data = {"matrix": [0.9, 0.02, 0.03, 0.05], "channel": None, "k": 1, "r": 3}
        cfg.write_text(json.dumps(data))
        code = run_cli("distill", "--config", str(cfg), "--json", "-")
        blob = json.loads(capsys.readouterr().out)
        assert code == 0
        assert blob["manual"]["k"] == 1

    def test_config_types_cover_every_setting(self):
        assert len(SETTING_PAIRS) == 35
        outputs = {"command", "func", "config", "json", "csv", "round_log", "report"}
        for command, settings in CONFIG_TYPES.items():
            dests = set(vars(cli.build_parser().parse_args([command])))
            assert dests - outputs == set(settings), command

    @pytest.mark.parametrize("command, name", SETTING_PAIRS)
    def test_config_value_types(self, tmp_path, command, name):
        """A value of the setting's JSON type merges in and any other fails;
        null is accepted exactly where the built-in is None."""
        kind = CONFIG_TYPES[command][name]
        nullable = kind.endswith("?")
        accepted = ACCEPTS[kind.rstrip("?")] | ({"list"} if name == "matrix" else set())
        wrong = re.escape(f"config key {name!r} has the wrong type")
        for json_type, value in JSON_VALUES.items():
            if json_type in accepted:
                assert _merge(tmp_path, command, {name: value})[name] == value
            else:
                with pytest.raises(ValueError, match=wrong):
                    _merge(tmp_path, command, {name: value})
        if nullable:
            assert _merge(tmp_path, command, {name: None})[name] is None
        else:
            with pytest.raises(ValueError, match=wrong):
                _merge(tmp_path, command, {name: None})

    @pytest.mark.parametrize(
        "command, defaults",
        [
            ("simulate", cli.SETTINGS["simulate"]),
            ("analyze", cli.SETTINGS["analyze"]),
            ("distill", cli.SETTINGS["distill"]),
            ("threshold", cli.SETTINGS["threshold"]),
            ("verify", cli.SETTINGS["verify"]),
            ("netrun", cli.SETTINGS["netrun"]),
        ],
    )
    def test_flags_match_defaults(self, command, defaults):
        """Every setting flag has a built-in default and every default a flag."""
        dests = set(vars(cli.build_parser().parse_args([command])))
        outputs = {"command", "func", "config", "json", "csv", "round_log", "report"}
        assert dests - outputs == set(defaults)

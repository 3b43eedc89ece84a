"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_params, _parse_value, main


class TestParsing:
    def test_parse_value_types(self):
        assert _parse_value("3") == 3
        assert _parse_value("0.5") == 0.5
        assert _parse_value("abc") == "abc"

    def test_parse_params(self):
        assert _parse_params(["epsilon=0.5", "rr_scale=0.01"]) == {
            "epsilon": 0.5,
            "rr_scale": 0.01,
        }

    def test_parse_params_rejects_bad_item(self):
        with pytest.raises(SystemExit):
            _parse_params(["oops"])

    def test_parse_params_none(self):
        assert _parse_params(None) == {}


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "nethept" in out and "friendster" in out

    def test_support_matrix(self, capsys):
        assert main(["support-matrix"]) == 0
        out = capsys.readouterr().out
        assert "LDAG" in out

    def test_recommend(self, capsys):
        assert main(["recommend", "--model", "WC"]) == 0
        assert "IMM" in capsys.readouterr().out

    def test_recommend_memory_constrained(self, capsys):
        assert main(["recommend", "--model", "IC", "--memory-constrained"]) == 0
        assert "EaSyIM" in capsys.readouterr().out

    def test_select(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "EaSyIM", "--param", "path_length=2",
            "--k", "3", "--mc", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spread" in out
        assert "seeds" in out

    def test_select_budget_violation_nonzero_exit(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "CELF", "--param", "mc_simulations=5000",
            "--k", "5", "--time-limit", "0.05",
        ])
        assert code == 1
        assert "DNF" in capsys.readouterr().out

    def test_tune(self, capsys):
        code = main([
            "tune", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "EaSyIM", "--parameter", "path_length",
            "--spectrum", "3,2,1", "--k", "3", "--mc", "50",
        ])
        assert code == 0
        assert "X*" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


SELECT_RIS = [
    "select", "--dataset", "nethept", "--model", "WC", "--algorithm", "RIS",
    "--k", "3", "--mc", "20", "--param", "num_rr_sets=400",
    "--rr-workers", "2", "--pool-retries", "1",
]


class TestFaultEnvironment:
    """``repro select`` arms pool faults from ``REPRO_FAULT_*``, read once."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in ("REPRO_FAULT_RATE", "REPRO_FAULT_MODE", "REPRO_FAULT_SEED"):
            monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize("name, value", [
        ("REPRO_FAULT_MODE", "kil"),
        ("REPRO_FAULT_RATE", "abc"),
        ("REPRO_FAULT_RATE", "1.5"),
        ("REPRO_FAULT_RATE", "-0.1"),
        ("REPRO_FAULT_SEED", "seven"),
    ])
    def test_malformed_value_names_the_variable(self, monkeypatch, name, value):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.2")
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            main(SELECT_RIS)

    def test_armed_raise_fails_the_cell(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_MODE", "raise")
        monkeypatch.setenv("REPRO_FAULT_RATE", "1")
        assert main(SELECT_RIS) == 1
        assert "RIS on nethept/WC: FAILED" in capsys.readouterr().out

    def test_isolated_child_runs_pools_serially(self, monkeypatch, capsys):
        # A daemonic isolated child cannot fan out, so no chunk is ever
        # injected there and the same armed cell finishes OK.
        monkeypatch.setenv("REPRO_FAULT_MODE", "raise")
        monkeypatch.setenv("REPRO_FAULT_RATE", "1")
        assert main(SELECT_RIS + ["--isolate"]) == 0
        assert "seeds" in capsys.readouterr().out

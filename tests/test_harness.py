"""Config validation, scenario dispatch, report round trips, figure files."""

import json
import re
from pathlib import Path

import pytest

from pamse import harness
from pamse.lattice import green, srw_kernel

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestConfigValidation:
    def test_unknown_scenario(self):
        cfg = harness.ScenarioConfig("frobnicate", {})
        with pytest.raises(harness.ConfigError):
            harness.validate_config(cfg)

    def test_missing_key(self):
        cfg = harness.ScenarioConfig("exact_vs_mc", {"d": 1})
        with pytest.raises(harness.ConfigError):
            harness.validate_config(cfg)

    def test_unknown_key(self):
        cfg = harness.ScenarioConfig("kappa_sweep", {
            "d": 1, "L": 4, "rho": 0.5, "p": 1, "kappas": [0.0], "bogus": 1})
        with pytest.raises(harness.ConfigError):
            harness.validate_config(cfg)

    @pytest.mark.parametrize("scenario, key", [
        ("comparison_suite", "rhos"), ("comparison_suite", "weight_values"),
        ("comparison_suite", "box"), ("kappa_sweep", "kappas"),
        ("intermittency_kappa0", "p_list"), ("recurrent_trend", "t_grid")])
    def test_empty_list_rejected(self, scenario, key):
        cfg = harness.ScenarioConfig.from_file(str(CONFIG_DIR / f"{scenario}.json"))
        cfg.params[key] = []
        with pytest.raises(harness.ConfigError, match=f"key '{key}' must be non-empty"):
            harness.validate_config(cfg)

    @pytest.mark.parametrize("scenario", ["kappa_sweep", "intermittency_kappa0"])
    def test_seed_unknown_to_exact_scenarios(self, scenario):
        cfg = harness.ScenarioConfig.from_file(str(CONFIG_DIR / f"{scenario}.json"))
        cfg.params["seed"] = 0
        with pytest.raises(harness.ConfigError, match="unknown key 'seed'"):
            harness.validate_config(cfg)

    def test_int_for_float_converted(self):
        cfg = harness.ScenarioConfig("exact_vs_mc", {
            "d": 1, "L": 6, "rho": 0.5, "kappa": 1, "p": 1, "t": 2, "n": 10,
            "seed": 0})
        kwargs = harness.validate_config(cfg)
        assert type(kwargs["kappa"]) is float and type(kwargs["t"]) is float
        assert kwargs["t"] == 2.0 and type(kwargs["n"]) is int
        assert cfg.params["t"] == 2 and type(cfg.params["t"]) is int

    def test_one_config_per_scenario(self):
        assert {p.stem for p in CONFIG_DIR.glob("*.json")} == set(harness._RUNNERS)
        for name in harness._RUNNERS:
            cfg = harness.ScenarioConfig.from_file(str(CONFIG_DIR / f"{name}.json"))
            assert cfg.scenario == name
            harness.validate_config(cfg)
            params = harness.scenario_parameters(name).values()
            assert all(p.kind is p.KEYWORD_ONLY for p in params)
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        listed = re.search(r"one per scenario:(.*?)\.", readme, re.S).group(1)
        assert set(re.findall(r"`(\w+)`", listed)) == set(harness._RUNNERS)

    def test_type_check(self):
        cfg = harness.ScenarioConfig("exact_vs_mc", {
            "d": 1, "L": 6, "rho": 0.5, "kappa": 0.5, "p": 1, "t": 2.0,
            "n": "many", "seed": 0})
        with pytest.raises(harness.ConfigError):
            harness.validate_config(cfg)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": "kappa_sweep",
            "params": {"d": 1, "L": 4, "rho": 0.5, "p": 1,
                       "kappas": [0.0, 1.0]},
        }))
        cfg = harness.ScenarioConfig.from_file(str(path))
        harness.validate_config(cfg)
        assert cfg.scenario == "kappa_sweep"


class TestScenarios:
    def test_comparison_suite_passes(self):
        cfg = harness.ScenarioConfig("comparison_suite", {
            "d": 1, "L": 4, "rhos": [0.4], "t": 0.5, "seed": 1})
        rep = harness.run_scenario(cfg)
        assert rep.passed
        assert len(rep.rows) == 4
        assert all(r["margin"] >= -1e-10 for r in rep.rows)

    def test_kappa_sweep_flags(self):
        cfg = harness.ScenarioConfig("kappa_sweep", {
            "d": 1, "L": 4, "rho": 0.5, "p": 1,
            "kappas": [0.0, 0.5, 1.0, 2.0], "t_ref": 3.0})
        rep = harness.run_scenario(cfg)
        assert rep.passed and rep.flags["non_increasing"] and rep.flags["convex"]
        assert "Lambda_at_t_ref" in rep.rows[0]

    def test_intermittency_scenario(self):
        cfg = harness.ScenarioConfig("intermittency_kappa0", {
            "d": 1, "L": 6, "rho": 0.5, "p_list": [1, 2], "t": 5.0})
        rep = harness.run_scenario(cfg)
        assert rep.passed

    def test_report_embeds_config_and_env(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = harness.ScenarioConfig("kappa_sweep", {
            "d": 1, "L": 4, "rho": 0.5, "p": 1, "kappas": [0.0, 1.0]},
            output_path=str(out))
        rep = harness.run_scenario(cfg)
        assert out.exists()
        back = harness.Report.from_json(str(out))
        assert back.config["params"]["kappas"] == [0.0, 1.0]
        assert "numpy" in back.env

    def test_rerun_reproduces_bitwise(self):
        cfg = harness.ScenarioConfig("exact_vs_mc", {
            "d": 1, "L": 4, "rho": 0.5, "kappa": 0.5, "p": 1, "t": 1.0,
            "n": 500, "seed": 12})
        a = harness.run_scenario(cfg)
        b = harness.run_scenario(cfg)
        assert a.rows[0]["mc"] == b.rows[0]["mc"]

    def test_recurrent_trend_scenario(self):
        cfg = harness.ScenarioConfig("recurrent_trend", {
            "d": 1, "L": 6, "rho": 0.5, "kappa": 1.0,
            "t_grid": [0.5, 1.0, 2.0, 4.0], "n": 2000, "seed": 5})
        rep = harness.run_scenario(cfg)
        assert rep.flags["bounds_ok"]
        lams = [r["Lambda"] for r in rep.rows if "Lambda" in r]
        assert rep.passed and lams[-1] >= lams[0] - 0.1

    def test_recurrent_trend_rejects_zero_density(self):
        cfg = harness.ScenarioConfig("recurrent_trend", {
            "d": 1, "L": 6, "rho": 0, "kappa": 1.0,
            "t_grid": [0.5, 1.0, 2.0], "n": 100, "seed": 5})
        with pytest.raises(ValueError, match="density"):
            harness.run_scenario(cfg)


class TestFigures:
    def test_kappa_sweep_files(self, tmp_path):
        cfg = harness.ScenarioConfig("kappa_sweep", {
            "d": 1, "L": 4, "rho": 0.5, "p": 1, "kappas": [0.5, 1.0, 2.0]})
        rep = harness.run_scenario(cfg)
        files = harness.emit_figures_data(rep, str(tmp_path))
        header, rows = harness.parse_figure_file(files[0])
        assert header == ["kappa", "lambda_p", "ci", "asymptote"]
        assert len(rows) == 3
        # columns round-trip as floats
        assert rows[0][0] == 0.5

    def test_asymptote_value(self):
        col = harness._asymptote_column(4, 0.5, [1.0])
        expected = 0.5 + 0.25 * green(srw_kernel(4)) / 8.0
        assert col[0] == pytest.approx(expected, rel=1e-9)

    def test_empty_report_writes_header_only(self, tmp_path):
        rep = harness.Report("kappa_sweep",
                             {"params": {"d": 1, "rho": 0.5, "p": 1}},
                             rows=[], flags={}, passed=True)
        files = harness.emit_figures_data(rep, str(tmp_path))
        header, rows = harness.parse_figure_file(files[0])
        assert header and rows == []

    def test_generic_scenario_table(self, tmp_path):
        rep = harness.Report("asymptotic_probe", {"params": {}},
                             rows=[{"mc_mean": 0.15, "stderr": 0.01,
                                    "reference": 0.153, "rel_gap": 0.02,
                                    "n": 10}],
                             flags={}, passed=True)
        files = harness.emit_figures_data(rep, str(tmp_path))
        header, rows = harness.parse_figure_file(files[0])
        assert "mc_mean" in header and len(rows) == 1


class TestCli:
    def test_validate_and_run(self, tmp_path, capsys):
        from pamse.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "kappa_sweep",
            "params": {"d": 1, "L": 4, "rho": 0.5, "p": 1,
                       "kappas": [0.0, 1.0, 2.0]},
        }))
        assert main(["validate", str(cfg_path)]) == 0
        out_path = tmp_path / "report.json"
        assert main(["run", str(cfg_path), "--output", str(out_path)]) == 0
        assert out_path.exists()
        rep = harness.Report.from_json(str(out_path))
        figs = tmp_path / "figs"
        assert main(["figures", str(out_path), "--outdir", str(figs)]) == 0
        assert list(figs.iterdir())

    def test_validate_rejects_bad_config(self, tmp_path):
        from pamse.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "nope", "params": {}}))
        assert main(["validate", str(bad)]) == 1

    @pytest.mark.parametrize("raw", [[1, 2], "x",
                                     {"scenario": "kappa_sweep", "params": "d L rho"}])
    def test_validate_rejects_non_object(self, tmp_path, raw):
        from pamse.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate", str(bad)]) == 1

    @pytest.mark.parametrize("scenario, params", [
        ("exact_vs_mc", "d L rho"),
        ("exact_vs_mc", {"d": 1}),
        ("recurrent_trend", {"d": 1, "L": 6, "rho": 0, "kappa": 1.0,
                             "t_grid": [0.5, 1.0], "n": 100, "seed": 5}),
        ("comparison_suite", {"d": 1, "L": 4, "rhos": [], "t": 0.5, "seed": 1}),
        ("intermittency_kappa0", {"d": 1, "L": 6, "rho": 0.5, "p_list": [],
                                  "t": 5.0})])
    def test_run_rejects_bad_config(self, tmp_path, capsys, scenario, params):
        from pamse.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": scenario, "params": params}))
        assert main(["run", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("scenario, params", [
        ("recurrent_trend", {"d": 1, "L": 6, "rho": 0, "kappa": 1.0,
                             "t_grid": [0.5, 1.0], "n": 100, "seed": 5}),
        ("field_checks", {"d": 1, "T": 1.0, "kappa": 1.0, "n_eta": 1, "seed": 0,
                          "rho": 1.0}),
        ("comparison_suite", {"d": 1, "L": 4, "rhos": [0.3, 1.5], "t": 0.5,
                              "seed": 1})])
    def test_validate_rejects_bad_density_as_run_does(self, tmp_path, capsys,
                                                       scenario, params):
        from pamse.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": scenario, "params": params}))
        assert main(["validate", str(bad)]) == 1
        validated = capsys.readouterr()
        assert main(["run", str(bad)]) == 1
        ran = capsys.readouterr()
        assert validated.out == ran.out == ""
        assert validated.err == ran.err
        assert validated.err.startswith("invalid: ")
        assert validated.err.endswith("density must lie in (0, 1)\n")

    @pytest.mark.parametrize("scenario, key, value, message", [
        ("exact_vs_mc", "kappa", -1.0, "kappa must be >= 0"),
        ("asymptotic_probe", "kappa", 0.0, "kappa must be > 0"),
        ("field_checks", "kappa", 0.0, "kappa must be > 0"),
        ("field_checks", "limit_kappa", 0.0, "kappa must be > 0"),
        ("kappa_sweep", "kappas", [0.0, -0.5], "kappa must be >= 0"),
        ("kappa_sweep", "p", -1, "walker count must be >= 0"),
        ("intermittency_kappa0", "p_list", [1, -2], "walker count must be >= 0")])
    def test_validate_rejects_bad_model_as_run_does(self, tmp_path, capsys, scenario,
                                                    key, value, message):
        # unchecked, a zero kappa ends run in a traceback: an OverflowError in
        # the probe's heat tables, a ZeroDivisionError in the field window size
        from pamse.cli import main

        cfg = json.loads((CONFIG_DIR / f"{scenario}.json").read_text())
        cfg["params"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        for command in ("validate", "run"):
            assert main([command, str(bad)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"invalid: {scenario}: key '{key}': {message}\n"

    def test_shipped_configs_validate(self):
        from pamse.cli import main

        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert paths
        for path in paths:
            assert main(["validate", str(path)]) == 0, path

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from chiralwalk.cli import main
from chiralwalk.exceptions import ScenarioError
from chiralwalk.scenarios import Scenario, SweepSpec


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def gapped_scenario(grid_n=512):
    return {
        "model": "split_step",
        "params": {
            "a": {"profile": "step", "left": 1.0, "right": float(np.cos(1.0))},
            "b": {"profile": "step", "left": 0.0, "right": float(np.sin(1.0))},
            "c": float(np.cos(0.3)),
            "d_coin": float(np.sin(0.3)),
            "shift_exponent": 1,
        },
        "tolerances": {"rank_tol": 1e-8, "grid_n": grid_n, "margin": 1e-6},
        "seed": 3,
    }


def gapless_scenario():
    doc = gapped_scenario()
    doc["params"]["a"] = {"profile": "step", "left": 0.0, "right": 0.0}
    doc["params"]["b"] = {"profile": "step", "left": 1.0, "right": 1.0}
    doc["params"]["c"] = 0.0
    doc["params"]["d_coin"] = 1.0
    return doc


class TestScenarioParsing:
    def test_unknown_keys_rejected(self):
        doc = gapped_scenario()
        doc["unexpected"] = 1
        with pytest.raises(ScenarioError, match="unexpected"):
            Scenario.from_doc(doc)

    def test_unknown_param_rejected(self):
        doc = gapped_scenario()
        doc["params"]["typo"] = 1
        scenario = Scenario.from_doc(doc)
        with pytest.raises(ScenarioError, match="typo"):
            scenario.build()

    def test_bad_model(self):
        with pytest.raises(ScenarioError, match="model"):
            Scenario.from_doc({"model": "mystery"})

    def test_tolerances_positive(self):
        doc = gapped_scenario()
        doc["tolerances"]["rank_tol"] = -1.0
        with pytest.raises(ScenarioError):
            Scenario.from_doc(doc)

    def test_table_profile(self):
        doc = gapped_scenario()
        doc["params"]["a"] = {
            "profile": "table",
            "left": 1.0,
            "right": float(np.cos(1.0)),
            "table": [{"x": 0, "value": float(np.cos(2.0))}],
        }
        doc["params"]["b"] = {
            "profile": "table",
            "left": 0.0,
            "right": float(np.sin(1.0)),
            "table": [{"x": 0, "value": float(np.sin(2.0))}],
        }
        pair = Scenario.from_doc(doc).build()
        assert pair.certification.max_deviation < 1e-10

    def test_cli_overrides_take_precedence(self):
        scenario = Scenario.from_doc(gapped_scenario(), {"grid_n": 128, "rank_tol": None})
        assert scenario.tolerances.grid_n == 128
        assert scenario.tolerances.rank_tol == 1e-8

    def test_complex_pair_scalars(self):
        doc = gapped_scenario()
        doc["params"]["d_coin"] = [0.0, float(np.sin(0.3))]
        doc["params"]["c"] = float(np.cos(0.3))
        pair = Scenario.from_doc(doc).build()
        assert pair.certification.max_deviation < 1e-10


class TestSweepSpec:
    def sweep_doc(self):
        params = []
        for t in (0.9, 1.0):
            p = dict(gapped_scenario()["params"])
            p["a"] = {"profile": "step", "left": 1.0, "right": float(np.cos(t))}
            p["b"] = {"profile": "step", "left": 0.0, "right": float(np.sin(t))}
            params.append(p)
        return {
            "scenario": gapped_scenario(256),
            "axes": [
                {"path": "params", "values": params},
                {"path": "tolerances.grid_n", "values": [256, 512]},
            ],
        }

    def test_grid_points_lexicographic(self, tmp_path):
        spec = SweepSpec.load(write_json(tmp_path / "sweep.json", self.sweep_doc()))
        assert list(spec.grid_points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_empty_axis_rejected(self, tmp_path):
        doc = self.sweep_doc()
        doc["axes"] = []
        with pytest.raises(ScenarioError):
            SweepSpec.load(write_json(tmp_path / "sweep.json", doc))

    def test_bad_axis_path(self, tmp_path):
        doc = self.sweep_doc()
        doc["axes"][0]["path"] = "params.missing.deep"
        with pytest.raises(ScenarioError):
            SweepSpec.load(write_json(tmp_path / "sweep.json", doc))


class TestCliCommands:
    def test_index_exit_zero_and_report(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", gapped_scenario())
        code = main(["index", path])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0
        assert report["indices"]["si_plus"] == 1
        assert report["windings"]["holds"] is True

    def test_index_gapless_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", gapless_scenario())
        code = main(["index", path])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert any("gap_at(-1) refuted" in line for line in report["omitted"])
        assert report["indices"] == {}

    def test_parser_reuse_keeps_no_flags(self, tmp_path, capsys):
        doc = gapped_scenario()
        del doc["tolerances"]["rank_tol"]
        path = write_json(tmp_path / "s.json", doc)
        assert main(["index", path, "--rank-tol", "1e-6", "--format", "csv"]) == 0
        first = capsys.readouterr().out
        assert "tolerances.rank_tol,1e-06" in first.splitlines()
        assert main(["index", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"]["rank_tol"] == 1e-8

    def test_index_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["index", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_index_determinism_byte_identical(self, tmp_path):
        path = write_json(tmp_path / "s.json", gapped_scenario())
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["index", path, "--out", str(out1)]) == 0
        assert main(["index", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_weighted_shift_winding_report(self, tmp_path, capsys):
        doc = {
            "model": "weighted_shift",
            "params": {"m": 1, "n": 0,
                       "coin": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "tolerances": {"grid_n": 256},
        }
        path = write_json(tmp_path / "ws.json", doc)
        assert main(["index", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["winding"]["value"] == 1
        assert report["index_theorem"]["holds"] is True

    def test_generator_scenario(self, tmp_path, capsys):
        doc = {
            "model": "generator",
            "params": {
                "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "gamma0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            },
        }
        path = write_json(tmp_path / "g.json", doc)
        assert main(["index", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["indices"]["si_total"] == 0
        assert report["indices"]["generator_index"] == 0

    def test_custom_banded_scenario(self, tmp_path, capsys):
        from chiralwalk.verification import interpolating_shift_model

        rng = np.random.default_rng(0)
        op = interpolating_shift_model(rng, 0, 1, noise_sites=1)
        doc = {"model": "custom_banded", "params": {"operator": op.to_json_dict()},
               "tolerances": {"grid_n": 512}}
        path = write_json(tmp_path / "c.json", doc)
        assert main(["index", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["index"]["index"] == 1
        assert report["index_theorem"]["holds"] is True

    def test_custom_banded_root_on_circle_not_certified(self, tmp_path, capsys):
        # symbol z - e^i vanishes at z = e^i, between the points of any grid
        from chiralwalk.operators import identity, shift_power

        op = shift_power(1, 1) - identity(1).scaled(np.exp(1j))
        doc = {"model": "custom_banded", "params": {"operator": op.to_json_dict()}}
        path = write_json(tmp_path / "c.json", doc)
        assert main(["index", path]) == 2
        report = json.loads(capsys.readouterr().out)
        for side in ("left", "right"):
            cert = report["certifications"][f"symbol_invertible_{side}"]
            assert cert["certified"] is False and cert["root_margin"] < 1e-12
        assert "index" not in report
        assert report["omitted"][0].startswith("index: ")

    def test_spectrum_csv(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", gapped_scenario(64))
        assert main(["spectrum", path, "--grid", "16"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "side,theta,eigenvalue_re,eigenvalue_im"
        assert len(lines) == 1 + 2 * 16 * 2  # sides x grid x fiber

    def test_spectrum_rejects_finite_model(self, tmp_path, capsys):
        doc = {
            "model": "generator",
            "params": {
                "hamiltonian": [[[0.0, 0.0]]],
                "gamma0": [[[1.0, 0.0]]],
            },
        }
        path = write_json(tmp_path / "g.json", doc)
        assert main(["spectrum", path]) == 1

    def test_winding_subcommand(self, tmp_path, capsys):
        doc = {
            "model": "weighted_shift",
            "params": {"m": 2, "n": 1,
                       "coin": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "tolerances": {"grid_n": 256},
        }
        path = write_json(tmp_path / "w.json", doc)
        assert main(["winding", path, "--side", "left"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"rounded": 1, "root_margin": None, "certified": True, "side": "left"}

    def test_winding_subcommand_root_within_margin(self, tmp_path, capsys):
        # det symbol z - (1 - 1e-7): its root lies inside the band in which
        # exact_kernel refuses, so no winding is certified
        from chiralwalk.operators import identity, shift_power

        op = shift_power(1, 1) - identity(1).scaled(1.0 - 1e-7)
        doc = {"model": "custom_banded", "params": {"operator": op.to_json_dict()}}
        path = write_json(tmp_path / "c.json", doc)
        assert main(["winding", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is False and report["rounded"] is None
        assert report["side"] == "right"
        assert "margin of the unit circle" in report["reason"]

    def test_sweep_csv_rows_ordered(self, tmp_path):
        sweep = TestSweepSpec().sweep_doc()
        path = write_json(tmp_path / "sweep.json", sweep)
        out = tmp_path / "rows.csv"
        assert main(["sweep", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        assert header[0] == "params" and header[1] == "tolerances.grid_n"
        assert "error" in header[-1]
        # grid column follows lexicographic order of the axes
        import csv as csvmod

        rows = list(csvmod.reader(lines[1:]))
        grids = [row[1] for row in rows]
        assert grids == ["256", "512", "256", "512"]

    def test_sweep_cell_error_recorded(self, tmp_path):
        sweep = TestSweepSpec().sweep_doc()
        bad_params = dict(gapped_scenario()["params"])
        bad_params["a"] = {"profile": "step", "left": 1.0, "right": 0.9}  # unnormalized
        sweep["axes"][0]["values"].append(bad_params)
        path = write_json(tmp_path / "sweep.json", sweep)
        out = tmp_path / "rows.csv"
        assert main(["sweep", path, "--out", str(out)]) == 0
        import csv as csvmod

        lines = out.read_text().strip().splitlines()
        rows = list(csvmod.reader(lines[1:]))
        errors = [row[-1] for row in rows]
        assert sum(1 for e in errors if e) == 2  # both grid cells of the bad axis value
        assert all("deviates" in e for e in errors if e)

    def test_sweep_across_gap_closing(self, tmp_path):
        # the a-profile angle crosses the coin angle: the +1 gap closes at the
        # middle cell; certification flips there and si_plus changes only
        # across the refuted cell
        params = []
        for t in (0.1, 0.2, 0.3, 0.4, 0.5):
            p = dict(gapped_scenario()["params"])
            p["a"] = {"profile": "step", "left": 1.0, "right": float(np.cos(t))}
            p["b"] = {"profile": "step", "left": 0.0, "right": float(np.sin(t))}
            params.append(p)
        sweep = {
            "scenario": gapped_scenario(256),
            "axes": [{"path": "params", "values": params}],
        }
        path = write_json(tmp_path / "sweep.json", sweep)
        out = tmp_path / "rows.csv"
        assert main(["sweep", path, "--out", str(out)]) == 0
        import csv as csvmod

        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = list(csvmod.reader(lines[1:]))
        status = [row[header.index("gap_plus_status")] for row in rows]
        si_plus = [row[header.index("si_plus")] for row in rows]
        assert status == ["certified", "certified", "refuted", "certified", "certified"]
        assert si_plus == ["0", "0", "", "1", "1"]

    def test_verify_zero_trials_vacuous(self, capsys):
        assert main(["verify", "finite", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "WARNING" in out and "vacuous" in out

    def test_verify_small_run_deterministic(self, capsys):
        assert main(["verify", "finite", "--trials", "5", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "finite", "--trials", "5", "--seed", "11"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.count("PASS") >= 6


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
INDEX_SCENARIOS = sorted(p for p in SCENARIO_DIR.glob("*.json") if not p.name.startswith("sweep"))


class TestShippedScenarios:
    @pytest.mark.parametrize("path", INDEX_SCENARIOS, ids=lambda p: p.stem)
    def test_index_exit_code_and_theorem(self, path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["index", str(path), "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == (2 if "gapless" in path.stem else 0)
        if report.get("windings") is not None:
            assert report["windings"]["holds"] is True
        if "gapless" in path.stem:
            assert report["windings"] is None and report["omitted"]
        elif report["model"] == "split_step":
            assert report["windings"] is not None

    def test_readme_winding_command(self, capsys):
        assert main(["winding", str(SCENARIO_DIR / "weighted_shift.json"), "--side", "right"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rounded"] == 1 and report["certified"] is True
        assert report["side"] == "right"

    def test_sweep_theorem_holds_in_every_row(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", str(SCENARIO_DIR / "sweep_coin_angle.json"), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows and all(row["theorem_holds"] == "true" for row in rows)

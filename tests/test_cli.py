import argparse
import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chiralwalk import analysis
from chiralwalk.cli import build_parser, main
from chiralwalk.exceptions import ScenarioError
from chiralwalk.scenarios import Scenario, SweepSpec
from chiralwalk.transfer import MAX_PENCIL

import oracles


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
        # the open-boundary truncation snapshot is no longer part of the schema
        doc = {**gapped_scenario(), "truncation_L": 12}
        with pytest.raises(ScenarioError, match="unknown key.*truncation_L"):
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

    @pytest.mark.parametrize("key", ["rank_tol", "grid_n", "margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerances_rejected(self, key, value, tmp_path):
        # json.dump writes NaN and Infinity literals, and json.load reads them back
        doc = gapped_scenario()
        doc["tolerances"][key] = value
        path = write_json(tmp_path / "s.json", doc)
        with pytest.raises(ScenarioError, match="tolerances"):
            Scenario.load(path)
        assert main(["index", path]) == 1

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

    @pytest.mark.parametrize("where, doc", [
        ("scenario.seed", {**gapped_scenario(), "seed": "three"}),
        ("params.a.split", {**gapped_scenario(), "params": {
            **gapped_scenario()["params"],
            "a": {"profile": "step", "left": 1.0, "right": 0.5, "split": [1]}}}),
        ("params.a.table.x", {**gapped_scenario(), "params": {
            **gapped_scenario()["params"],
            "a": {"profile": "table", "left": 1.0, "right": 0.5, "table": [{"value": 1.0}]}}}),
        ("params", {**gapped_scenario(), "params": 5}),
        ("params.a.table", {**gapped_scenario(), "params": {
            **gapped_scenario()["params"],
            "a": {"profile": "table", "left": 1.0, "right": 0.5, "table": [3]}}}),
    ], ids=["seed", "split", "table_x", "params_number", "table_entry_number"])
    def test_malformed_nested_field_names_the_field(self, where, doc):
        with pytest.raises(ScenarioError, match=f"^{where}: "):
            Scenario.from_doc(doc).build()


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

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("c", [0.955, 0.0], "params.c"),
            ("c", "abc", "params.c"),
            ("shift_exponent", "two", "params.shift_exponent"),
            ("a", None, "params.a"),   # None: the key is removed
            ("d_coin", ["x", "y"], "params.d_coin"),
        ],
        ids=["c_pair", "c_text", "shift_exponent_text", "a_missing", "d_coin_text"],
    )
    def test_malformed_field_is_a_scenario_error(self, key, value, field, tmp_path, capsys):
        doc = gapped_scenario()
        if value is None:
            del doc["params"][key]
        else:
            doc["params"][key] = value
        assert main(["index", write_json(tmp_path / "bad.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["c", "d_coin", "table", "coin", "hamiltonian",
                                       "hamiltonian_entry"])
    def test_a_non_finite_value_is_refused(self, where, value, tmp_path, capsys):
        # a NaN compares false to every tolerance, so a check written `dev > tol` let it
        # through: a NaN Hamiltonian entry ran to exit 0, a NaN pair of them raised
        # LinAlgError from eigh
        doc = gapped_scenario()
        zero, one = [0.0, 0.0], [1.0, 0.0]
        if where in ("c", "d_coin"):
            doc["params"][where] = value
        elif where == "table":
            doc["params"]["a"] = {"profile": "table", "left": 1.0, "right": 0.5,
                                  "table": [{"x": 0, "value": value}]}
        elif where == "coin":
            doc = {"model": "weighted_shift",
                   "params": {"m": 1, "n": 0, "coin": [[[value, 0.0], zero], [zero, one]]}}
        else:
            h = [[zero, zero], [zero, zero]]
            h[0][1] = [value, 0.0]
            if where == "hamiltonian":
                h[1][0] = [value, 0.0]
            doc = {"model": "generator",
                   "params": {"hamiltonian": h, "gamma0": [[one, zero], [zero, [-1.0, 0.0]]]}}
        assert main(["index", write_json(tmp_path / "bad.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv, flag", [
        (["--rank-tol", "1e-6", "index", "{path}"], "--rank-tol"),
        (["--margin=1e-3", "sweep", "{path}"], "--margin"),
        (["--out", "{path}", "verify", "finite"], "--out"),
        (["--format"], "--format"),
    ], ids=["value_taken_as_command", "joined_value", "out", "no_command"])
    def test_a_flag_before_the_subcommand_is_named(self, argv, flag, tmp_path, capsys):
        # argparse named the flag's value as an invalid subcommand, or named no flag
        path = write_json(tmp_path / "s.json", gapped_scenario())
        with pytest.raises(SystemExit) as exc:
            main([path if a == "{path}" else a for a in argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"; {flag} precedes the subcommand: flags go after it")

    def test_a_flag_after_the_subcommand_gets_no_hint(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "-1"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "chiralwalk verify: error: argument --trials: must not be negative, got -1")

    @pytest.mark.parametrize("section, key, value, line", [
        ("params", "shift_exponent", 1.5, "params.shift_exponent: expected int, got 1.5"),
        ("params", "shift_exponent", True, "params.shift_exponent: expected int, got True"),
        (None, "seed", 1.5, "scenario.seed: expected int, got 1.5"),
        (None, "seed", False, "scenario.seed: expected int, got False"),
        ("table", "x", 0.5, "params.a.table.x: expected int, got 0.5"),
        ("tolerances", "grid_n", 2.7, "tolerances.grid_n: expected int, got 2.7"),
        ("tolerances", "grid_n", "abc", "tolerances.grid_n: expected int, got 'abc'"),
        ("tolerances", "rank_tol", "abc", "tolerances.rank_tol: expected float, got 'abc'"),
    ], ids=["shift_fraction", "shift_bool", "seed_fraction", "seed_bool", "table_x_fraction",
            "grid_fraction", "grid_text", "rank_tol_text"])
    def test_integer_fields_are_not_truncated(self, section, key, value, line, tmp_path, capsys):
        # each of these ran as a truncated integer (shift 1, seed 1, site 0, grid 2)
        # and exited 0, or named no key
        doc = gapped_scenario()
        if section == "table":
            doc["params"]["a"] = {"profile": "table", "left": 1.0, "right": 0.5,
                                  "table": [{"x": value, "value": 0.8}]}
        else:
            (doc if section is None else doc[section])[key] = value
        assert main(["index", write_json(tmp_path / "bad.json", doc)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_integral_floats_still_read_as_integers(self):
        doc = gapped_scenario()
        doc["params"]["shift_exponent"] = 2.0
        doc["tolerances"]["grid_n"] = 512.0
        doc["seed"] = 3.0
        scenario = Scenario.from_doc(doc)
        assert (scenario.seed, scenario.tolerances.grid_n) == (3, 512)
        assert scenario.build().u.band_radius == Scenario.from_doc(
            {**doc, "params": {**doc["params"], "shift_exponent": 2}}).build().u.band_radius

    @pytest.mark.parametrize(
        "argv",
        [["index", "{path}", "--bogus"], ["index"], ["verify", "nonexistent"], ["mystery"]],
    )
    def test_usage_error_exits_one_not_two(self, argv, tmp_path, capsys):
        # exit 2 means a refuted certification, so a broken command line must not use it
        path = write_json(tmp_path / "s.json", gapless_scenario())
        with pytest.raises(SystemExit) as exc:
            main([a.replace("{path}", path) for a in argv])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

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
        # det F(z) = z on both sides: each winds once, and the index is 0
        [branch] = report["index_theorem"]["branches"]
        assert (branch["winding_left"], branch["winding_right"]) == (1, 1)
        assert report["index"]["index"] == branch["rhs_index"] == 0
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

    @pytest.mark.filterwarnings("error")
    def test_a_large_generator_flattens_to_the_same_integers(self, tmp_path, capsys):
        # s / sqrt(1 + s^2) overflowed above s ~ 1.3e154: at 1e160 it flattened +-s to 0,
        # reported dim Ker(U - 1) = 3 and dim Ker(U + 1) = 0, and warned
        integers = []
        for s in (1e150, 1e160, 1e300):
            assert main(["index", write_json(tmp_path / "g.json", oracles.scaled_generator(s))]) == 0
            idx = json.loads(capsys.readouterr().out)["indices"]
            integers.append([(k, v) for k, v in sorted({**idx, **idx["diagnostics"]}.items())
                             if isinstance(v, int)])
        assert integers[0] == integers[1] == integers[2]
        assert ("dim_ker_u_minus_one", 1) in integers[0] and ("dim_ker_u_plus_one", 2) in integers[0]
        assert ("generator_index", 1) in integers[0] and ("si_plus", 1) in integers[0]

    def test_generator_report_builds_and_ranks_once(self, tmp_path, capsys, monkeypatch):
        # Index(H) = 2 with ||H|| = 2, so H is flattened: the report builds its walk
        # once, ranks Ker H on that walk's spectrum and Ker(U - 1) once, in its SVD
        from chiralwalk import indices, scenarios

        zero = [0.0, 0.0]
        h = [[[2.0, 0.0] if {i, j} == {0, 3} else zero for j in range(4)] for i in range(4)]
        g = [[[1.0 if i < 3 else -1.0, 0.0] if i == j else zero for j in range(4)]
             for i in range(4)]
        path = write_json(tmp_path / "g.json", {"model": "generator",
                                                "params": {"hamiltonian": h, "gamma0": g}})
        calls = []
        for module, name in ((scenarios, "build_generator_walk"), (indices, "build_generator_walk"),
                             (indices, "kernel_basis"), (indices, "_unit_svd")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        assert main(["index", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conventions"]["regularized"] is True and report["indices"]["consistent"]
        assert report["indices"]["generator_index"] == report["indices"]["si_plus"] == 2
        assert sorted(calls) == ["_unit_svd", "build_generator_walk"]
        h_flat = Scenario.from_doc(json.loads(Path(path).read_text())).build()[0].hamiltonian
        assert indices.generator_index(h_flat, np.diag([1.0, 1.0, 1.0, -1.0])) == 2

    def test_custom_banded_scenario(self, tmp_path, capsys):
        from chiralwalk.verification import interpolating_shift_model

        rng = np.random.default_rng(0)
        op = interpolating_shift_model(rng, 0, 1, noise_sites=1)
        doc = {"model": "custom_banded", "params": {"operator": oracles.operator_doc(op)},
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
        doc = {"model": "custom_banded", "params": {"operator": oracles.operator_doc(op)}}
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
        doc = {"model": "custom_banded", "params": {"operator": oracles.operator_doc(op)}}
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

    def test_sweep_parses_each_grid_point_once(self, tmp_path, monkeypatch):
        # load parsed every point to validate it and run_sweep parsed it again
        parsed = []
        from_doc = Scenario.from_doc.__func__
        monkeypatch.setattr(Scenario, "from_doc", classmethod(
            lambda cls, doc, overrides=None: parsed.append(doc) or from_doc(cls, doc, overrides)))
        path = write_json(tmp_path / "sweep.json", TestSweepSpec().sweep_doc())
        assert main(["sweep", path, "--out", str(tmp_path / "rows.csv")]) == 0
        assert [doc["tolerances"]["grid_n"] for doc in parsed] == [256, 512, 256, 512]

    def test_sweep_refuses_a_malformed_point_before_any_cell_runs(self, tmp_path, capsys,
                                                                  monkeypatch):
        cells = []
        monkeypatch.setattr(analysis, "run_index_report", lambda scenario: cells.append(scenario))
        sweep = TestSweepSpec().sweep_doc()
        sweep["axes"][1]["values"].append("many")
        out = tmp_path / "rows.csv"
        assert main(["sweep", write_json(tmp_path / "sweep.json", sweep), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: tolerances.grid_n: expected int, got 'many'\n"
        assert cells == [] and not out.exists()

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

    @pytest.mark.parametrize("flag", ["--rank-tol", "--margin"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_index_non_finite_tolerance_flag_exits_one(self, flag, value, tmp_path, capsys):
        # a NaN rank tolerance used to report si_plus = 0 and exit 0
        path = write_json(tmp_path / "s.json", gapped_scenario())
        out = tmp_path / "r.json"
        assert main(["index", path, flag, value, "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "finite", "--trials", "-3"],
        ["verify", "lattice", "--models", "-2"],
        # a negative seed used to reach numpy's default_rng and end in a traceback
        ["verify", "finite", "--seed", "-5", "--trials", "1"],
    ])
    def test_verify_negative_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "must not be negative" in captured.err and "PASS" not in captured.out

    def test_seed_is_a_verify_flag_only(self, tmp_path, capsys):
        # index used to accept --seed and ignore it, keeping the scenario's own seed
        path = write_json(tmp_path / "s.json", gapped_scenario())
        for argv in (["index", path, "--seed", "3"], ["--seed", "3", "index", path]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err
        assert main(["verify", "finite", "--trials", "1", "--seed", "11"]) == 0

    def test_verify_zero_models_run_no_chiral_model(self, capsys):
        assert main(["verify", "lattice", "--models", "0", "--trials", "1", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS  index_theorem: 0 trials, 0 failures" in lines
        assert "PASS  dichotomy: 0 trials, 0 failures" in lines

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

    def test_verify_out_writes_the_stdout_lines(self, tmp_path, capsys):
        argv = ["verify", "finite", "--trials", "2", "--seed", "11"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "verify.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        assert printed.splitlines()[-1].startswith("PASS: 12 trials across 6 suites")

    def test_verify_times_each_suite_on_stderr(self, tmp_path, capsys):
        # wall times go to stderr, one line per suite in run order; stdout and
        # the --out file keep exactly the suite lines and the verdict
        argv = ["verify", "finite", "--trials", "2", "--seed", "11"]
        names = ["identity_chain", "componentwise", "trace_formulas", "pair_algebra",
                 "kernel_structure", "generator"]
        expected = "".join(f"PASS  {name}: 2 trials, 0 failures\n" for name in names)
        expected += "PASS: 12 trials across 6 suites, 0 failures\n"
        out = tmp_path / "verify.txt"
        for extra in ([], ["--out", str(out)]):
            assert main(argv + extra) == 0
            captured = capsys.readouterr()
            assert (out.read_text() if extra else captured.out) == expected
            assert captured.out == ("" if extra else expected)
            err = captured.err.splitlines()
            assert len(err) == len(names)
            for name, line in zip(names, err):
                assert re.fullmatch(rf"time  {name}: \d+\.\d{{3}} s", line), line

    def test_verify_out_zero_trials(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        assert main(["verify", "finite", "--trials", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == (
            "WARNING: trials=0 requested; suites pass vacuously\nPASS  (vacuous): 0 trials\n"
        )

    @pytest.mark.parametrize("argv", [
        ["verify", "finite", "--trials", "1", "--format", "json"],
        ["--format", "csv", "verify", "finite", "--trials", "1"],
    ])
    def test_verify_rejects_format(self, argv, tmp_path, capsys):
        # verify registers no --format, and the top-level parser no flag: argparse
        # refuses both before any suite runs
        out = tmp_path / "verify.txt"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith({
            "verify": "chiralwalk: error: unrecognized arguments: --format json",
            "--format": "chiralwalk: error: argument command: invalid choice: 'csv'",
        }[argv[0]])
        assert not out.exists()

    def test_commands_load_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: importing the package and running
        # index on every shipped scenario but the sweep, sweep, winding, spectrum and
        # both verify suites load no scipy module, with the exit code of each command
        root = Path(__file__).resolve().parents[1]
        shipped = sorted((root / "scenarios").glob("*.json"))
        gapped, out = str(root / "scenarios" / "split_step_gapped.json"), str(tmp_path / "out")
        runs = [(["index", str(p), "--out", out], 2 if p.stem == "split_step_gapless" else 0)
                for p in shipped if "axes" not in json.loads(p.read_text())]
        runs += [
            (["sweep", str(root / "scenarios" / "sweep_coin_angle.json"), "--out", out], 0),
            (["winding", gapped, "--out", out], 0),
            (["spectrum", gapped, "--grid", "16", "--out", out], 0),
            (["verify", "lattice", "--models", "1", "--trials", "1", "--out", out], 0),
            (["verify", "finite", "--trials", "1", "--out", out], 0),
        ]
        assert len(runs) == len(shipped) + 4
        code = (
            "import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1]); import chiralwalk.cli\n"
            "def scipy_modules(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not scipy_modules(), scipy_modules()\n"
            "for argv, want in json.loads(sys.argv[2]):\n"
            "    with contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert chiralwalk.cli.main(argv) == want, argv\n"
            "    assert not scipy_modules(), (argv, scipy_modules())\n"
        )
        subprocess.run([sys.executable, "-c", code, str(root / "src"), json.dumps(runs)], check=True)


class _Reads(argparse.Namespace):
    """A parsed namespace that records every attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def readme_operator():
    """The README's custom_banded document: 1 on the far left, the forward shift
    on the far right."""
    one, zero = [[[1.0, 0.0]]], [[[0.0, 0.0]]]
    return {"model": "custom_banded", "params": {"operator": {"fiber_dim": 1, "bands": [
        {"offset": 0, "left_limit": one, "right_limit": zero, "bulk": []},
        {"offset": 1, "left_limit": zero, "right_limit": one, "bulk": []}]}}}


class TestAcceptedSettings:
    """Every flag a subcommand accepts is read, and every scenario value is taken
    as it is written or refused with an error line that names its field."""

    def test_each_subcommand_registers_the_flags_it_reads(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "s.json", gapped_scenario())
        sweep = write_json(tmp_path / "sweep.json", {
            "scenario": gapped_scenario(), "axes": [{"path": "seed", "values": [1]}]})
        argvs = {
            "index": ["index", scenario], "sweep": ["sweep", sweep],
            "verify": ["verify", "finite", "--trials", "1"],
            "spectrum": ["spectrum", scenario, "--grid", "8"], "winding": ["winding", scenario],
        }
        parser = build_parser()
        assert parser._option_string_actions.keys() == {"-h", "--help"}
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert commands.choices.keys() == argvs.keys()
        for name, sub in commands.choices.items():
            registered = {action.dest for action in sub._actions} - {"help"}
            args = parser.parse_args(argvs[name] + ["--out", str(tmp_path / name)],
                                     namespace=_Reads())
            command = args.func
            args._reads.clear()
            assert command(args) == 0
            assert args._reads == registered, name
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "finite", "--rank-tol", "0.9", "--margin", "3", "--grid", "7"],
        ["verify", "finite", "--rank-tol", "1e-6", "--trials", "1"],
        ["verify", "finite", "--trials", "1", "--margin", "1e-3"],
        ["winding", "{path}", "--margin", "1e-3"],
        ["winding", "{path}", "--rank-tol", "1e-6"],
        ["index", "{path}", "--grid", "256"],
        ["sweep", "{sweep}", "--grid", "256"],
        ["spectrum", "{path}", "--margin", "1e-3"],
        ["--rank-tol", "1e-6", "index", "{path}"],
        ["--out", "{out}", "index", "{path}"],
    ], ids=["verify_all_three", "verify_rank_tol", "verify_margin", "winding_margin",
            "winding_rank_tol", "index_grid", "sweep_grid", "spectrum_margin",
            "rank_tol_before_command", "out_before_command"])
    def test_a_flag_the_command_does_not_read_is_refused(self, argv, tmp_path, capsys):
        # each of these exited 0, the flag read by nothing
        files = {"{path}": write_json(tmp_path / "s.json", gapped_scenario()),
                 "{sweep}": str(SCENARIO_DIR / "sweep_coin_angle.json"),
                 "{out}": str(tmp_path / "out.txt")}
        with pytest.raises(SystemExit) as exc:
            main([files.get(a, a) for a in argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err.splitlines()[-1]
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("section, key, value, line", [
        ("tolerances", "rank_tol", True, "tolerances.rank_tol: expected float, got True"),
        ("tolerances", "margin", "1e-6", "tolerances.margin: expected float, got '1e-6'"),
        ("params", "c", "0.955", "params.c: expected float, got '0.955'"),
        ("params", "c", True, "params.c: expected float, got True"),
        ("params", "shift_exponent", "1", "params.shift_exponent: expected int, got '1'"),
        ("params", "d_coin", True,
         "params.d_coin: expected a number or [re, im] pair, got True"),
        ("params", "d_coin", ["0.29", 0.0],
         "params.d_coin: expected a number or [re, im] pair, got ['0.29', 0.0]"),
    ], ids=["rank_tol_true", "margin_text", "c_text", "c_true", "shift_text", "d_coin_true",
            "d_coin_text_pair"])
    def test_number_fields_take_json_numbers_only(self, section, key, value, line,
                                                  tmp_path, capsys):
        # each of these was coerced and exited 0; rank_tol true ranked at 1.0 and
        # reported si_minus = -1 on split_step_gapped, where the default gives 0
        doc = gapped_scenario()
        doc[section][key] = value
        assert main(["index", write_json(tmp_path / "bad.json", doc)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_a_repeated_profile_site_is_refused(self, tmp_path, capsys):
        doc = gapped_scenario()
        doc["params"]["a"] = {"profile": "table", "left": 1.0, "right": 1.0,
                              "table": [{"x": 0, "value": 0.6}, {"x": 0, "value": 0.8}]}
        doc["params"]["b"] = {"profile": "table", "left": 0.0, "right": 0.0,
                              "table": [{"x": 0, "value": 0.6}]}
        assert main(["index", write_json(tmp_path / "bad.json", doc)]) == 1
        assert capsys.readouterr().err == "error: params.a.table.x: site 0 given twice\n"

    def test_sweep_output_is_a_path(self, tmp_path, capsys):
        # a list ran every cell and then ended in a traceback at open()
        sweep = json.loads((SCENARIO_DIR / "sweep_coin_angle.json").read_text())
        sweep["output"] = [str(tmp_path / "rows.csv")]
        assert main(["sweep", write_json(tmp_path / "sweep.json", sweep)]) == 1
        assert capsys.readouterr().err == (
            f"error: sweep.output: expected str, got {sweep['output']!r}\n")

    def test_readme_operator(self, tmp_path, capsys):
        assert main(["index", write_json(tmp_path / "c.json", readme_operator())]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["index"] == {"dim_ker": 0, "dim_ker_adjoint": 1, "index": 1,
                                   "tau_normalized": "1"}
        branch = report["index_theorem"]["branches"][0]
        assert (branch["winding_left"], branch["winding_right"]) == (0, 1)

    @pytest.mark.parametrize("edit, line", [
        (lambda op: op["bands"][0].update(left_limit="abc"),
         "params.operator.bands.left_limit: expected a 1 x 1 matrix of [re, im] pairs"),
        (lambda op: op["bands"][1].update(offset=1.5),
         "params.operator.bands.offset: expected int, got 1.5"),
        (lambda op: op["bands"][1].update(offset=True),
         "params.operator.bands.offset: expected int, got True"),
        (lambda op: op["bands"][1].update(offset=0),
         "params.operator.bands.offset: offset 0 given twice"),
        (lambda op: op["bands"][0].update(bulk=[{"x": 0.5, "value": [[[0.5, 0.0]]]}]),
         "params.operator.bands.bulk.x: expected int, got 0.5"),
        (lambda op: op["bands"][0].update(bulk=[{"x": 0, "value": [[[0.5, 0.0]]]},
                                                {"x": 0, "value": [[[0.7, 0.0]]]}]),
         "params.operator.bands.bulk.x: site 0 given twice"),
        (lambda op: op.update(fiber_dim="1"),
         "params.operator.fiber_dim: expected int, got '1'"),
        (lambda op: op.update(fiber_dim=1.7),
         "params.operator.fiber_dim: expected int, got 1.7"),
        (lambda op: op.update(fiber_dim=0, bands=[]),
         "params.operator.fiber_dim: expected a positive int, got 0"),
        (lambda op: op.update(typo=1), "unknown key(s) ['typo'] in params.operator"),
        (lambda op: op["bands"][0].update(typo=1),
         "unknown key(s) ['typo'] in params.operator.bands"),
        (lambda op: op["bands"][0].update(right_limit=[[[True, False]]]),
         "params.operator.bands.right_limit: expected a 1 x 1 matrix of [re, im] pairs"),
        (lambda op: op["bands"][1].update(right_limit=[[[1.0, False]]]),
         "params.operator.bands.right_limit: expected a 1 x 1 matrix of [re, im] pairs"),
        (lambda op: op["bands"][1].update(right_limit=[[["1.0", 0.0]]]),
         "params.operator.bands.right_limit: expected a 1 x 1 matrix of [re, im] pairs"),
    ], ids=["limit_text", "offset_fraction", "offset_true", "offset_twice", "bulk_x_fraction",
            "bulk_x_twice", "fiber_dim_text", "fiber_dim_fraction", "fiber_dim_zero",
            "operator_key", "band_key", "limit_booleans", "limit_number_and_boolean",
            "limit_text_entry"])
    def test_custom_banded_fields(self, edit, line, tmp_path, capsys):
        # "abc" and fiber_dim 0 ended in a traceback; the others were truncated, coerced,
        # ignored or replaced a band, and ran (a repeated offset 0 turned exit 0 into exit 2)
        doc = readme_operator()
        edit(doc["params"]["operator"])
        assert main(["index", write_json(tmp_path / "bad.json", doc)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_custom_banded_fiber_dimension(self, tmp_path, capsys):
        # a bulk value of another size was broadcast over the fiber and ran
        doc = readme_operator()
        operator = doc["params"]["operator"]
        operator["fiber_dim"] = 2
        for band in operator["bands"]:
            for key in ("left_limit", "right_limit"):
                (((re, im),),) = band[key]
                band[key] = [[[re, im], [0.0, 0.0]], [[0.0, 0.0], [re, im]]]
        assert main(["index", write_json(tmp_path / "c.json", doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["index"]["index"] == 2
        operator["bands"][0]["bulk"] = [{"x": 0, "value": [[[0.5, 0.0]]]}]
        assert main(["index", write_json(tmp_path / "bad.json", doc)]) == 1
        assert capsys.readouterr().err == (
            "error: params.operator.bands.bulk.value: expected a 2 x 2 matrix of [re, im] pairs\n")


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
INDEX_SCENARIOS = sorted(p for p in SCENARIO_DIR.glob("*.json") if not p.name.startswith("sweep"))


# the keys of every section of an index report: each fact is stated once, so a
# certification holds no margin (tolerances.margin) and no threshold (0 for a gap),
# || 1 -+ U ||_ess < 2 is the gap at -+1 and has no verdict of its own, a kernel's
# diagnostics hold no dimension or signature (indices) and no rank tolerance
# (tolerances.rank_tol), a generator's indices no tolerance (stated at the top level),
# and no report states a constant of its construction (G0 = G0^* exactly, a generator's
# conventions other than whether it was flattened)
_CERTIFICATION = ["root_margin", "status", "value"]
_GAPS = {"certifications.gap_minus_one": _CERTIFICATION,
         "certifications.gap_plus_one": _CERTIFICATION}
_BRANCH = ["holds", "lhs_index", "lhs_tau_normalized", "name", "rhs_index",
           "rhs_tau_normalized", "winding_left", "winding_right"]
_CHIRAL = {
    "certifications": ["dichotomy", "gap_minus_one", "gap_plus_one"],
    "certifications.dichotomy": ["holds", "norm_difference", "norm_sum"],
    **_GAPS,
    "chiral_certification": ["chiral_relation", "gamma0_involution", "gamma1_involution",
                             "gamma1_selfadjoint", "max_deviation", "symbol_deviation",
                             "unitary_symbol_deviation"],
    "tolerances": ["margin", "rank_tol"],
}
_DIAGNOSTICS = ["rank_margin", "signature_margin"]
_BANDED = {
    "": ["certifications", "index", "index_theorem", "model", "omitted", "tolerances"],
    "certifications": ["symbol_invertible_left", "symbol_invertible_right"],
    "certifications.symbol_invertible_left": ["certified", "root_margin"],
    "certifications.symbol_invertible_right": ["certified", "root_margin"],
    "index": ["dim_ker", "dim_ker_adjoint", "index", "tau_normalized"],
    "index_theorem": ["branches", "holds"],
    "index_theorem.branches.0": _BRANCH,
    "tolerances": ["rank_tol"],
}
REPORT_SECTIONS = {
    "split_step_gapped": {
        "": ["certifications", "chiral_certification", "diagnostics_minus", "diagnostics_plus",
             "indices", "model", "omitted", "seed", "tolerances", "windings"],
        **_CHIRAL,
        "diagnostics_minus": _DIAGNOSTICS,
        "diagnostics_plus": _DIAGNOSTICS,
        "indices": ["dim_ker_u_minus_one", "dim_ker_u_plus_one", "si_minus", "si_plus", "si_total"],
        "windings": ["branches", "holds"],
        "windings.branches.0": sorted(_BRANCH + ["root_margin"]),
        "windings.branches.1": sorted(_BRANCH + ["root_margin"]),
    },
    "split_step_gapless": {
        "": ["certifications", "chiral_certification", "indices", "model", "omitted",
             "tolerances", "windings"],
        **_CHIRAL,
        "indices": [],
    },
    "custom_banded_shift": _BANDED,
    # a banded unitary: the custom_banded sections, and both essential gaps
    "weighted_shift": {
        **_BANDED,
        "certifications": sorted(_BANDED["certifications"] + ["gap_minus_one", "gap_plus_one"]),
        **_GAPS,
        "tolerances": ["margin", "rank_tol"],
    },
    "generator_1e160": {
        "": ["conventions", "indices", "model", "tolerances"],
        "conventions": ["regularized"],
        "indices": ["cayley_minus", "cayley_plus", "consistent", "diagnostics",
                    "generator_index", "pair_index", "pair_index_complement", "si_minus",
                    "si_plus", "si_total", "susy_index", "tanaka_minus", "tanaka_plus",
                    "trace_gamma0"],
        "indices.diagnostics": ["dim_ker_u_minus_one", "dim_ker_u_plus_one", "rank_margin"],
        "tolerances": ["rank_tol"],
    },
}


def report_sections(doc, path=""):
    """{path: sorted keys} of every object in a JSON document, lists entered by index."""
    found = {}
    if isinstance(doc, dict):
        found[path] = sorted(doc)
        for key, value in doc.items():
            found.update(report_sections(value, f"{path}.{key}" if path else key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            found.update(report_sections(value, f"{path}.{i}"))
    return found


def leaf_paths(doc, path=""):
    """The dotted path of every leaf of a JSON document, as a CSV report names its rows."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items()
                for p in leaf_paths(value, f"{path}.{key}" if path else key)]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in leaf_paths(value, f"{path}.{i}")]
    return [path]


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

    @pytest.mark.parametrize("name", sorted(REPORT_SECTIONS))
    def test_index_report_keys(self, name, tmp_path):
        out = tmp_path / "report"
        scenario = (write_json(tmp_path / "generator.json", oracles.scaled_generator(1e160))
                    if name == "generator_1e160" else str(SCENARIO_DIR / f"{name}.json"))
        main(["index", scenario, "--out", str(out)])
        report = json.loads(out.read_text())
        assert report_sections(report) == REPORT_SECTIONS[name]
        # the CSV form has one row per leaf of the JSON form
        main(["index", scenario, "--format", "csv", "--out", str(out)])
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert sorted(key for key, _ in rows) == sorted(leaf_paths(report))

    def test_custom_banded_shift(self, capsys):
        # the README's banded example: 0.4 S^-1 on both sides, 1 -> S with 0.5 + 0.2i at x = 0
        assert main(["index", str(SCENARIO_DIR / "custom_banded_shift.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        margins = [report["certifications"][f"symbol_invertible_{side}"]["root_margin"]
                   for side in ("left", "right")]
        assert margins == pytest.approx([0.6, 0.367544467966], abs=1e-12)
        assert (report["index"]["dim_ker"], report["index"]["dim_ker_adjoint"]) == (0, 1)
        [branch] = report["index_theorem"]["branches"]
        assert (report["index"]["index"], branch["winding_left"], branch["winding_right"]) == (1, 0, 1)
        assert report["tolerances"] == {"rank_tol": 1e-8}   # no grid and no margin is read

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


def sized_scenario(model, radius):
    """A ``model`` scenario whose operator has band radius ``radius``: a split-step shift
    exponent or a weighted-shift m (fiber 2), or a custom_banded offset (fiber 1)."""
    if model == "split_step":
        doc = gapped_scenario()
        doc["params"]["shift_exponent"] = radius
    elif model == "weighted_shift":
        doc = json.loads((SCENARIO_DIR / "weighted_shift.json").read_text())
        doc["params"]["m"] = radius
    else:
        doc = readme_operator()
        doc["params"]["operator"]["bands"][1]["offset"] = radius
    return doc


class TestPencilCap:
    """A split-step index report refuses a companion pencil 2 r d above MAX_PENCIL with
    one error line before the gaps are certified.  The other paths keep every band:
    winding and spectrum of the same walk, and the ungraded kernels of a weighted shift
    or a custom_banded operator."""

    PENCILS = [("split_step", 2), ("weighted_shift", 2), ("custom_banded", 1)]

    @pytest.mark.filterwarnings("error")
    def test_just_above_the_cap_index_is_refused(self, tmp_path, capsys):
        radius = MAX_PENCIL // 4 + 1
        path = write_json(tmp_path / "big.json", sized_scenario("split_step", radius))
        assert main(["index", path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"error: companion pencil 2 r d = {4 * radius} exceeds {MAX_PENCIL} "
            f"(band radius {radius}, fiber dimension 2)\n"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, fiber_dim", PENCILS, ids=[m for m, _ in PENCILS])
    def test_just_above_the_cap_other_paths_report(self, model, fiber_dim, tmp_path, capsys):
        radius = MAX_PENCIL // (2 * fiber_dim) + 1
        path = write_json(tmp_path / "big.json", sized_scenario(model, radius))
        commands = ["winding", "spectrum"] + ([] if model == "split_step" else ["index"])
        for command in commands:
            assert main([command, path]) == 0
            assert capsys.readouterr().err == ""

    def test_at_the_cap_the_gaps_are_certified(self, monkeypatch):
        # a split-step shift exponent of 31 reports in a few seconds: stop at the certification
        def reached(*args, **kwargs):
            raise LookupError("certify_unitary reached")
        monkeypatch.setattr(analysis.essential, "certify_unitary", reached)
        scenario = Scenario.from_doc(sized_scenario("split_step", MAX_PENCIL // 4))
        with pytest.raises(LookupError, match="certify_unitary reached"):
            analysis.run_index_report(scenario)

    def test_a_sweep_cell_states_the_refusal(self, tmp_path, capsys):
        sweep = write_json(tmp_path / "sweep.json", {
            "scenario": gapped_scenario(),
            "axes": [{"path": "params.shift_exponent", "values": [1, MAX_PENCIL // 4 + 1]}]})
        assert main(["sweep", sweep, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["error"] for row in rows] == [
            "", f"companion pencil 2 r d = {4 * (MAX_PENCIL // 4 + 1)} exceeds {MAX_PENCIL} "
                f"(band radius {MAX_PENCIL // 4 + 1}, fiber dimension 2)"]

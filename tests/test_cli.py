import json
import math

import numpy as np
import pytest

from kdsim.analytic import distribution_pattern, pointlike_pattern
from kdsim.cli import (
    ConfigError, main, parse_config, read_observed_csv, run,
)
from kdsim.fit import band_radius, model_probabilities
from kdsim.model import MomentSet

J0_2_SQ = 0.050127080984469568505
J0_1_SQ = 0.58552749951366402438


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(tmp_path, doc, capsys, extra_flags=()):
    mode = doc["mode"]
    code = main([mode, "--config", write_config(tmp_path, doc), *extra_flags])
    out, err = capsys.readouterr()
    return code, out, err


class TestParseConfig:
    def test_minimal_defaults(self):
        rc = parse_config('{"mode": "analytic", "alpha": 2.0}')
        assert rc.mode == "analytic"
        assert rc.setup.alpha == 2.0 and math.isinf(rc.setup.u0)
        assert rc.grid.n_points == 1024 and rc.grid.n_periods == 8
        assert rc.fmt == "json" and rc.bounds == (0.0, 2.0)
        assert rc.n_grid == 201 and rc.delta_chi2 == 1.0
        assert rc.include_kinetic is True
        assert rc.moments.dipole == 0.0 and rc.moments.quadrupole == 0.0

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wavelenght_m"):
            parse_config('{"mode": "analytic", "alpha": 2, "wavelenght_m": 1e-10}')

    def test_mode_required_and_checked(self):
        with pytest.raises(ConfigError, match="'mode'"):
            parse_config('{"alpha": 2.0}')
        with pytest.raises(ConfigError, match="unknown mode"):
            parse_config('{"mode": "dance", "alpha": 2.0}')

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="'u0'"):
            parse_config('{"mode": "analytic", "u0": "deep", "tau": 0.01}')
        with pytest.raises(ConfigError, match="'n_points'"):
            parse_config('{"mode": "analytic", "alpha": 1, "n_points": 3.5}')
        with pytest.raises(ConfigError, match="'include_kinetic'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, '
                         '"include_kinetic": "maybe"}')

    def test_physical_and_dimensionless_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config('{"mode": "analytic", "wavelength_m": 1e-10, "alpha": 2}')

    def test_underdetermined_dimensionless(self):
        with pytest.raises(ConfigError, match="underdetermined"):
            parse_config('{"mode": "analytic", "u0": 100.0}')
        with pytest.raises(ConfigError, match="underdetermined"):
            parse_config('{"mode": "analytic", "tau": 0.01}')

    def test_alpha_consistency_checked(self):
        rc = parse_config('{"mode": "analytic", "u0": 100, "tau": 0.04, "alpha": 2.0}')
        assert rc.setup.alpha == 2.0
        with pytest.raises(ConfigError, match="contradicts"):
            parse_config('{"mode": "analytic", "u0": 100, "tau": 0.04, "alpha": 2.1}')

    def test_tau_alpha_pair(self):
        rc = parse_config('{"mode": "analytic", "tau": 0.01, "alpha": 2.0}')
        assert rc.setup.u0 == pytest.approx(400.0)

    def test_physical_inputs_resolved(self):
        rc = parse_config('{"mode": "validate", "wavelength_m": 1e-10, '
                          '"field_V_per_m": 1e10, "time_s": 1e-9}')
        assert rc.laser is not None
        assert rc.setup.recoil_energy_J == pytest.approx(2.4098669579e-17, rel=1e-9)
        assert rc.setup.alpha == pytest.approx(0.5 * rc.setup.u0 * rc.setup.tau, rel=1e-12)

    def test_tdse_requires_finite_depth(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config('{"mode": "tdse", "alpha": 2.0}')

    def test_fit_needs_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config('{"mode": "fit", "alpha": 2.0}')
        doc = {"mode": "fit", "alpha": 2.0, "data": "obs.csv",
               "synthetic": {"r_eff": 0.8}, "seed": 1}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(json.dumps(doc))

    def test_synthetic_requires_seed(self):
        doc = {"mode": "fit", "alpha": 2.0, "synthetic": {"r_eff": 0.8}}
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config(json.dumps(doc))
        doc["seed"] = 11
        rc = parse_config(json.dumps(doc))
        assert rc.synthetic["r_eff"] == 0.8
        assert rc.synthetic["noise"] == "gaussian"
        assert rc.synthetic["orders"] == [0, 1, 2, 3, 4]

    def test_synthetic_subkeys_checked(self):
        doc = {"mode": "fit", "alpha": 2.0, "seed": 1,
               "synthetic": {"r_eff": 0.8, "nois": "gaussian"}}
        with pytest.raises(ConfigError, match="synthetic"):
            parse_config(json.dumps(doc))
        doc = {"mode": "fit", "alpha": 2.0, "seed": 1,
               "synthetic": {"r_eff": 0.8, "noise": "poisson"}}
        with pytest.raises(ConfigError, match="noise"):
            parse_config(json.dumps(doc))

    def test_datasets_structure_checked(self):
        doc = {"mode": "fit", "alpha": 2.0, "datasets": {"entries": []}}
        with pytest.raises(ConfigError, match="entries"):
            parse_config(json.dumps(doc))
        doc = {"mode": "fit", "alpha": 2.0,
               "datasets": {"entries": [{"path": "a.csv"}]}}
        with pytest.raises(ConfigError, match="alpha required"):
            parse_config(json.dumps(doc))

    def test_scan_ranges_checked(self):
        base = {"mode": "scan", "alpha": 2.0, "q_range": [0, 1, 5]}
        with pytest.raises(ConfigError, match="d_range"):
            parse_config(json.dumps(base))
        with pytest.raises(ConfigError, match="d_range"):
            parse_config(json.dumps({**base, "d_range": [0, 1]}))
        with pytest.raises(ConfigError, match="positive integer"):
            parse_config(json.dumps({**base, "d_range": [0, 1, 2.5]}))
        with pytest.raises(ConfigError, match="lo must be"):
            parse_config(json.dumps({**base, "d_range": [1, 0, 5]}))

    def test_bounds_and_format_checked(self):
        with pytest.raises(ConfigError, match="bounds"):
            parse_config('{"mode": "fit", "alpha": 2, "data": "x.csv", "bounds": [1]}')
        with pytest.raises(ConfigError, match="'format'"):
            parse_config('{"mode": "analytic", "alpha": 2, "format": "yaml"}')
        with pytest.raises(ConfigError, match="'envelope'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, "envelope": "box"}')
        with pytest.raises(ConfigError, match="'init_state'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, "init_state": "soliton"}')

    def test_grid_errors_attributed(self):
        with pytest.raises(ConfigError, match="'n_points'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, "n_points": 100}')
        with pytest.raises(ConfigError, match="'n_periods'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, "n_periods": 0}')

    def test_out_of_hierarchy_moments_allowed(self):
        # the parser accepts them; the regime report flags the ordering
        rc = parse_config('{"mode": "validate", "alpha": 2.0, "q_tilde": 1.5}')
        payload = run(rc).payload
        assert payload["kind"] == "regime"
        assert payload["ordering_ok"] is False


class TestEchoRoundTrip:
    def test_physical_config_reparses_dimensionless(self):
        rc1 = parse_config('{"mode": "analytic", "wavelength_m": 1e-10, '
                           '"field_V_per_m": 1e10, "time_s": 1e-9}')
        echo = rc1.echo
        for key in ("wavelength_m", "field_V_per_m", "time_s"):
            assert key not in echo
        rc2 = parse_config(json.dumps(echo))
        assert rc2.setup.alpha == pytest.approx(rc1.setup.alpha, rel=1e-12)
        assert rc2.setup.u0 == pytest.approx(rc1.setup.u0, rel=1e-12)
        assert rc2.setup.recoil_energy_J == pytest.approx(
            rc1.setup.recoil_energy_J, rel=1e-12)

    def test_ideal_limit_echo_omits_depth(self):
        rc1 = parse_config('{"mode": "analytic", "alpha": 2.0}')
        assert "u0" not in rc1.echo and "tau" not in rc1.echo
        rc2 = parse_config(json.dumps(rc1.echo))
        assert math.isinf(rc2.setup.u0) and rc2.setup.alpha == 2.0


class TestObservationFiles:
    def test_read_with_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("order,probability,sigma\n0,0.5,0.01\n1,0.3,0.01\n2,0.1,0.01\n")
        obs = read_observed_csv(str(path), 2.0)
        assert obs.orders == (0, 1, 2)
        assert obs.values == (0.5, 0.3, 0.1)

    def test_bad_rows_reported_with_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("order,probability,sigma\n0,0.5,0.01\nx,0.3,0.01\n")
        with pytest.raises(ValueError, match="line 3"):
            read_observed_csv(str(path), 2.0)
        path.write_text("order,probability,sigma\n0,0.5\n")
        with pytest.raises(ValueError, match="order,probability,sigma"):
            read_observed_csv(str(path), 2.0)

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read"):
            read_observed_csv("/nonexistent/obs.csv", 2.0)


class TestMainAnalytic:
    def test_json_output(self, tmp_path, capsys):
        code, out, err = run_main(tmp_path, {"mode": "analytic", "alpha": 2.0}, capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert list(doc) == ["version", "setup", "regime", "payload"]
        payload = doc["payload"]
        probs = dict(zip(payload["orders"], payload["probabilities"]))
        assert probs[0] == pytest.approx(J0_2_SQ, abs=1e-13)
        assert probs[1] == pytest.approx(probs[-1], abs=1e-15)
        assert doc["regime"]["raman_nath_ok"] is True

    def test_csv_output(self, tmp_path, capsys):
        doc = {"mode": "analytic", "alpha": 2.0, "format": "csv", "order_cutoff": 2}
        code, out, err = run_main(tmp_path, doc, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order,probability"
        assert len(lines) == 6
        assert lines[3].startswith("0,")
        assert float(lines[3].split(",")[1]) == pytest.approx(J0_2_SQ, abs=1e-13)

    def test_svg_output(self, tmp_path, capsys):
        doc = {"mode": "analytic", "alpha": 2.0, "format": "svg", "order_cutoff": 4}
        code, out, err = run_main(tmp_path, doc, capsys)
        assert code == 0
        assert out.startswith("<svg") and out.count("<rect") == 9

    def test_quadrupole_flag_override(self, tmp_path, capsys):
        # q~ = 0.25 halves the effective amplitude: P_0 = J_0(1)^2
        doc = {"mode": "analytic", "alpha": 2.0}
        code, out, _ = run_main(tmp_path, doc, capsys, extra_flags=["--q-tilde", "0.25"])
        assert code == 0
        payload = json.loads(out)["payload"]
        probs = dict(zip(payload["orders"], payload["probabilities"]))
        assert probs[0] == pytest.approx(J0_1_SQ, abs=1e-12)

    def test_flag_wins_over_document(self, tmp_path, capsys):
        doc = {"mode": "analytic", "alpha": 1.0}
        code, out, _ = run_main(tmp_path, doc, capsys, extra_flags=["--alpha", "2.0"])
        assert code == 0
        assert json.loads(out)["setup"]["alpha"] == 2.0

    def test_higher_moments_use_single_harmonic_route(self, tmp_path, capsys):
        doc = {"mode": "analytic", "alpha": 2.0, "d_tilde": 0.3, "q_tilde": 0.1,
               "higher": [0.02]}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        assert json.loads(out)["payload"]["generator"] == "closed_form"
        # dipole/quadrupole-only sets take the same route; the double Bessel
        # sum stays an oracle for them
        doc = {"mode": "analytic", "alpha": 2.0, "d_tilde": 0.3, "q_tilde": 0.1}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["generator"] == "closed_form"
        want = distribution_pattern(2.0, MomentSet((0.3, 0.1)))
        assert payload["orders"] == list(want.orders)
        for p, prob in zip(payload["orders"], payload["probabilities"]):
            assert prob == pytest.approx(want.probability(p), abs=1e-10)

    def test_no_config_file_needed(self, capsys):
        code = main(["analytic", "--alpha", "2.0"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["setup"]["alpha"] == 2.0


class TestMainValidate:
    def test_laboratory_report(self, tmp_path, capsys):
        doc = {"mode": "validate", "wavelength_m": 1e-10,
               "field_V_per_m": 1e10, "time_s": 1e-9}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["kind"] == "regime"
        assert payload["recoil_energy_J"] == pytest.approx(2.4098669579e-17, rel=1e-9)
        assert payload["explorable_length_m"] == pytest.approx(1e-10, rel=1e-9)

    def test_ideal_limit_report(self, tmp_path, capsys):
        code, out, _ = run_main(tmp_path, {"mode": "validate", "alpha": 2.0}, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["explorable_length_m"] is None
        assert payload["raman_nath_ok"] is True


class TestMainScan:
    def test_grid_rows_and_values(self, tmp_path, capsys):
        doc = {"mode": "scan", "alpha": 2.0, "format": "csv",
               "d_range": [0.0, 0.2, 3], "q_range": [0.0, 0.3, 4]}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d_tilde,q_tilde,r_eff,p0"
        assert len(lines) == 13
        # row-major: d outer, q inner; check an interior row against the model
        d, q, r, p0 = (float(v) for v in lines[6].split(","))
        assert d == pytest.approx(0.1, rel=1e-12)
        assert q == pytest.approx(0.1, rel=1e-12)
        assert r == pytest.approx(band_radius(0.1, 0.1), rel=1e-12)
        assert p0 == pytest.approx(model_probabilities(2.0, r, [0])[0], rel=1e-12)


class TestMainFit:
    def test_synthetic_end_to_end(self, tmp_path, capsys):
        region_out = tmp_path / "region.csv"
        doc = {"mode": "fit", "alpha": 2.0, "seed": 7,
               "synthetic": {"r_eff": 0.8, "orders": [-4, -3, -2, -1, 0, 1, 2, 3, 4]},
               "region_out": str(region_out)}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["kind"] == "fit"
        assert abs(payload["r_eff_hat"] - 0.8) <= 0.02
        assert payload["ci"][0] < payload["r_eff_hat"] < payload["ci"][1]
        assert not payload["misfit"]
        region_lines = region_out.read_text().splitlines()
        assert region_lines[0] == "d_tilde,q_tilde"
        assert len(region_lines) > 10

    def test_data_file_end_to_end(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        vals = model_probabilities(2.0, 0.8, range(0, 5))
        obs.write_text("order,probability,sigma\n" + "".join(
            f"{p},{float(v)!r},0.01\n" for p, v in enumerate(vals)))
        doc = {"mode": "fit", "alpha": 2.0, "data": str(obs)}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["r_eff_hat"] == pytest.approx(0.8, abs=1e-6)
        assert payload["chi2_min"] <= 1e-12

    def test_joint_datasets(self, tmp_path, capsys):
        paths = []
        for alpha in (1.5, 2.5):
            path = tmp_path / f"obs_{alpha}.csv"
            vals = model_probabilities(alpha, 0.8, range(0, 5))
            path.write_text("order,probability,sigma\n" + "".join(
                f"{p},{float(v)!r},0.01\n" for p, v in enumerate(vals)))
            paths.append({"path": str(path), "alpha": alpha})
        doc = {"mode": "fit", "alpha": 2.0, "datasets": {"entries": paths}}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["r_eff_hat"] == pytest.approx(0.8, abs=1e-6)
        assert payload["dof"] == 9

    def test_fit_csv_is_chi2_scan(self, tmp_path, capsys):
        doc = {"mode": "fit", "alpha": 2.0, "seed": 7, "format": "csv",
               "synthetic": {"r_eff": 0.8}}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r_eff,chi2"
        assert len(lines) == 202


class TestMainTdse:
    def test_end_to_end_matches_thin_grating(self, tmp_path, capsys):
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "order_cutoff": 8}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        probs = dict(zip(payload["orders"], payload["probabilities"]))
        want = pointlike_pattern(1.5, order_cutoff=8)
        for p in range(-8, 9):
            assert probs[p] == pytest.approx(want.probability(p), abs=1e-3)

    def test_kinetic_toggle_flag(self, tmp_path, capsys):
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "order_cutoff": 8}
        code, out, _ = run_main(tmp_path, doc, capsys,
                                extra_flags=["--include-kinetic", "false"])
        assert code == 0
        payload = json.loads(out)["payload"]
        probs = dict(zip(payload["orders"], payload["probabilities"]))
        want = pointlike_pattern(1.5, order_cutoff=8)
        for p in range(-8, 9):
            assert probs[p] == pytest.approx(want.probability(p), abs=1e-10)

    def test_snapshots_written(self, tmp_path, capsys):
        prefix = tmp_path / "snap"
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "d_tau": 0.0003,
               "snapshot_every": 10, "snapshot_prefix": str(prefix)}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        pos = tmp_path / "snap_000010_position.csv"
        mom = tmp_path / "snap_000010_momentum.csv"
        assert pos.exists() and mom.exists()
        lines = pos.read_text().splitlines()
        assert lines[0] == "x,density" and len(lines) == 1025
        mom_lines = mom.read_text().splitlines()
        assert mom_lines[0] == "k,density"
        total = sum(float(line.split(",")[1]) for line in mom_lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_initial_state(self, tmp_path, capsys):
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "order_cutoff": 6,
               "init_state": "gaussian"}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert sum(payload["probabilities"]) == pytest.approx(1.0, abs=1e-3)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        docs = [
            {"mode": "analytic", "alpha": 2.0, "d_tilde": 0.3, "q_tilde": 0.1},
            {"mode": "analytic", "alpha": 2.0, "format": "csv", "order_cutoff": 6},
            {"mode": "analytic", "alpha": 2.0, "format": "svg", "order_cutoff": 6},
            {"mode": "fit", "alpha": 2.0, "seed": 7, "synthetic": {"r_eff": 0.8}},
            {"mode": "tdse", "u0": 200.0, "alpha": 1.0, "order_cutoff": 6},
        ]
        for doc in docs:
            first = run_main(tmp_path, doc, capsys)
            second = run_main(tmp_path, doc, capsys)
            assert first == second, doc["mode"]

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        doc = {"mode": "analytic", "alpha": 2.0}
        _, out, _ = run_main(tmp_path, doc, capsys)
        target = tmp_path / "result.json"
        code = main(["analytic", "--config", write_config(tmp_path, doc, "c2.json"),
                     "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        written = json.loads(target.read_text())
        assert written["setup"].pop("out") == str(target)  # echo records the flag
        assert written == json.loads(out)


class TestErrorReporting:
    def test_bad_config_exits_one_with_record(self, tmp_path, capsys):
        doc = {"mode": "analytic", "alpha": -2.0}
        code, out, err = run_main(tmp_path, doc, capsys)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert "alpha" in record["message"]
        assert err.count("\n") == 1

    def test_missing_config_file(self, capsys):
        code = main(["analytic", "--config", "/nonexistent/config.json"])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_runtime_failure_reported(self, tmp_path, capsys):
        doc = {"mode": "fit", "alpha": 2.0, "data": str(tmp_path / "none.csv")}
        code, out, err = run_main(tmp_path, doc, capsys)
        assert code == 1
        assert "cannot read" in json.loads(err)["message"]

    def test_csv_for_regime_rejected(self, tmp_path, capsys):
        doc = {"mode": "validate", "alpha": 2.0, "format": "csv"}
        code, out, err = run_main(tmp_path, doc, capsys)
        assert code == 1
        assert "no CSV form" in json.loads(err)["message"]


class TestConstantsOverride:
    def test_env_file_changes_scales(self, tmp_path, capsys, monkeypatch):
        consts = tmp_path / "constants.json"
        consts.write_text(json.dumps({"m": 2.0 * 9.1093837015e-31}))
        doc = {"mode": "validate", "wavelength_m": 1e-10}
        _, out, _ = run_main(tmp_path, doc, capsys)
        base = json.loads(out)["payload"]["recoil_energy_J"]
        monkeypatch.setenv("KDSIM_CONSTANTS", str(consts))
        _, out2, _ = run_main(tmp_path, doc, capsys)
        halved = json.loads(out2)["payload"]["recoil_energy_J"]
        assert halved == pytest.approx(0.5 * base, rel=1e-12)

    def test_config_key_overrides(self, tmp_path, capsys):
        consts = tmp_path / "constants.json"
        consts.write_text(json.dumps({"m": 2.0 * 9.1093837015e-31}))
        doc = {"mode": "validate", "wavelength_m": 1e-10, "constants": str(consts)}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        assert json.loads(out)["payload"]["recoil_energy_J"] == pytest.approx(
            0.5 * 2.4098669579e-17, rel=1e-8)

    def test_bad_constants_rejected(self, tmp_path, capsys):
        consts = tmp_path / "constants.json"
        consts.write_text(json.dumps({"planck": 6.6e-34}))
        doc = {"mode": "validate", "wavelength_m": 1e-10, "constants": str(consts)}
        code, _, err = run_main(tmp_path, doc, capsys)
        assert code == 1
        assert "unknown entries" in json.loads(err)["message"]

import argparse
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdsim
from kdsim import tdse
from kdsim.cli import (
    _LEAVES, _PARSER, _SYNTHETIC_LEAVES, MODES, ConfigError, _flag_name, main, parse_config,
    read_observed_csv, run,
)
from kdsim.emit import float_text
from kdsim.fit import band_radius, model_probabilities
from kdsim.model import MomentSet

from oracles import (
    distribution_pattern, pointlike_pattern, propagate_cell_eigh, propagate_full_box,
    stepped_sectors,
)

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


_SYN = {"mode": "fit", "alpha": 2.0, "seed": 1, "synthetic": {"r_eff": 0.8}}
_LAB = {"mode": "validate", "wavelength_m": 1e-10}
_IDEAL = {"mode": "analytic", "alpha": 2.0}
_SCAN = {"mode": "scan", "alpha": 2.0, "d_range": [0, 0, 1], "q_range": [0, 0, 1]}


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
        # json reads NaN and Infinity as floats; int() of them would raise unattributed
        for key, value in (("n_points", "NaN"), ("order_cutoff", "-Infinity")):
            with pytest.raises(ConfigError, match=f"'{key}': expected an integer"):
                parse_config(f'{{"mode": "tdse", "u0": 100, "tau": 0.01, "{key}": {value}}}')

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
        doc = {"mode": "fit", "alpha": 2.0, "seed": 1,
               "synthetic": {"r_eff": 0.8, "noise": "counts", "shots": math.inf}}
        with pytest.raises(ConfigError, match="'synthetic.shots': expected an integer"):
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
        for bad in ([0, math.inf, 5], [math.nan, 1, 5]):
            with pytest.raises(ConfigError, match="'d_range'"):
                parse_config(json.dumps({**base, "d_range": bad}))
        for bad in ([0, 1, math.inf], [0, 1, math.nan]):
            with pytest.raises(ConfigError, match="'q_range': n must be a positive integer"):
                parse_config(json.dumps({**base, "d_range": [0, 1, 5], "q_range": bad}))

    def test_bounds_and_format_checked(self):
        with pytest.raises(ConfigError, match="bounds"):
            parse_config('{"mode": "fit", "alpha": 2, "data": "x.csv", "bounds": [1]}')
        with pytest.raises(ConfigError, match="'format'"):
            parse_config('{"mode": "analytic", "alpha": 2, "format": "yaml"}')
        with pytest.raises(ConfigError, match="'envelope'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, "envelope": "box"}')
        with pytest.raises(ConfigError, match="'init_state'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, "init_state": "soliton"}')
        # svg is the pattern bar chart: rejected up front for the other payloads
        for doc in ({"mode": "fit", "alpha": 2, "data": "x.csv"},
                    {"mode": "scan", "alpha": 2, "d_range": [0, 1, 3], "q_range": [0, 1, 3]},
                    {"mode": "validate", "alpha": 2}):
            with pytest.raises(ConfigError, match="config key 'format': svg"):
                parse_config(json.dumps({**doc, "format": "svg"}))
        for doc in ({"mode": "analytic", "alpha": 2},
                    {"mode": "tdse", "u0": 100, "tau": 0.01}):
            assert parse_config(json.dumps({**doc, "format": "svg"})).fmt == "svg"
        # a regime report has no table form
        with pytest.raises(ConfigError, match="config key 'format': .* no CSV form"):
            parse_config('{"mode": "validate", "alpha": 2, "format": "csv"}')

    def test_grid_errors_attributed(self):
        with pytest.raises(ConfigError, match="'n_points'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, "n_points": 100}')
        with pytest.raises(ConfigError, match="'n_periods'"):
            parse_config('{"mode": "tdse", "u0": 100, "tau": 0.01, "n_periods": 0}')
        # the propagation plan is built while parsing, so its errors name their key too
        for key, value in (("ramp_fraction", 0.9), ("snapshot_every", -1),
                           ("max_step_phase", 0), ("d_tau", -1)):
            doc = {"mode": "tdse", "u0": 100, "tau": 0.01, "envelope": "sin2_ramp", key: value}
            with pytest.raises(ConfigError, match=f"config key '{key}'"):
                parse_config(json.dumps(doc))
        # moment_region's own check would name it n_samples, at run time
        doc = {"mode": "fit", "alpha": 2.0, "data": "x.csv", "region_samples": 1}
        with pytest.raises(ConfigError, match="config key 'region_samples'"):
            parse_config(json.dumps(doc))
        # the tdse start state is built while parsing: init_gaussian's own checks
        # would say sigma or wavenumber, and order binning max_order, at run time
        gauss = {"mode": "tdse", "u0": 100, "tau": 0.01, "init_state": "gaussian"}
        for key, value, why in (("gauss_sigma", 0, "too narrow"),
                                ("gauss_sigma", 100, "too wide"),
                                ("gauss_k0", 0.3, "incommensurate")):
            with pytest.raises(ConfigError, match=f"config key '{key}': .*{why}"):
                parse_config(json.dumps({**gauss, key: value}))
        assert parse_config(json.dumps({**gauss, "gauss_k0": 0.25})).state.k0 == 0.25
        for center in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="config key 'gauss_center': must be finite"):
                parse_config(json.dumps({**gauss, "gauss_center": center}))
        far = parse_config(json.dumps({**gauss, "gauss_center": -1e300})).state
        assert far.norm == pytest.approx(1.0, rel=1e-12)  # taken modulo the box
        plane = {"mode": "tdse", "u0": 100, "tau": 0.01}
        assert parse_config(json.dumps({**plane, "order_offset": 63})).state.k0 == 126.0
        for offset in (64, -64):  # 2*|offset| reaches n_points/n_periods = 128: aliased
            with pytest.raises(ConfigError, match="config key 'order_offset': .*aliases"):
                parse_config(json.dumps({**plane, "order_offset": offset}))
        for doc in ({"mode": "tdse", "u0": 100, "tau": 0.01}, {"mode": "analytic", "alpha": 2}):
            with pytest.raises(ConfigError, match="config key 'order_cutoff': must be >= 0"):
                parse_config(json.dumps({**doc, "order_cutoff": -1}))

    def test_out_of_hierarchy_moments_allowed(self):
        # the parser accepts them; the regime report flags the ordering
        rc = parse_config('{"mode": "validate", "alpha": 2.0, "q_tilde": 1.5}')
        payload = run(rc).payload
        assert payload["kind"] == "regime"
        assert payload["ordering_ok"] is False

    def test_nested_objects_checked(self, tmp_path):
        fit = {"mode": "fit", "alpha": 2.0}
        entry = {"path": "a.csv", "alpha": 1.5}
        for datasets, why in (
                ({"entries": [entry, {**entry, "sigma": 0.1}]},
                 r"\['datasets.entries\[1\].sigma'\]: unknown entries"),
                ({"entries": [entry, "b.csv"]},
                 r"'datasets.entries\[1\]': expected an object, got str"),
                ({"entries": [entry], "weights": [1]}, r"\['datasets.weights'\]: unknown"),
                ([entry], "'datasets': expected an object, got list"),
                ({"entries": [entry, {**entry, "alpha": -1.5}]},
                 r"'datasets.entries\[1\].alpha': must be >= 0"),
                ({}, "'datasets.entries': entries required")):
            with pytest.raises(ConfigError, match=why):
                parse_config(json.dumps({**fit, "datasets": datasets}))
        consts = tmp_path / "constants.json"
        lab = {"mode": "validate", "wavelength_m": 1e-10, "constants": str(consts)}
        for doc, why in (([1.0, 2.0], "'constants': expected an object, got list"),
                         ({"m": 1e-30, "planck": 6.6e-34}, r"\['constants.planck'\]"),
                         ({"m": "heavy"}, "'constants.m': cannot parse"),
                         ({"m": -1.0}, "'constants.m': m must be > 0")):
            consts.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=why):
                parse_config(json.dumps(lab))

    @pytest.mark.parametrize("doc, named", [
        pytest.param({**_SYN, key: value}, named, id=f"{key}={value}")
        for key, value, named in (
            ("delta_chi2", math.nan, "'delta_chi2': must be finite"),
            ("delta_chi2", math.inf, "'delta_chi2': must be finite"),
            ("delta_chi2", 0.0, "'delta_chi2': must be > 0"),
            ("n_grid", 199, "'n_grid': must be >= 200"),
            ("bounds", [1.0, 0.5], "'bounds': expected [r_min, r_max], 0 <= r_min < r_max"),
            ("bounds", [-0.5, 2.0], "'bounds': expected [r_min, r_max], 0 <= r_min < r_max"),
            ("bounds", [0.0, math.nan], "'bounds[1]': must be finite"),
            ("seed", -1, "'seed': must be >= 0"))
    ] + [
        pytest.param({**_SYN, "synthetic": {"r_eff": 0.8, **extra}}, named,
                     id="synthetic." + ",".join(f"{k}={v}" for k, v in extra.items()))
        for extra, named in (
            ({"rel_sigma": -1.0}, "'synthetic.rel_sigma': must be >= 0"),
            ({"r_eff": -0.8}, "'synthetic.r_eff': must be >= 0"),  # fitted as +0.8
            ({"alpha": -2.0}, "'synthetic.alpha': must be >= 0"),
            ({"orders": [0, 1]}, "'synthetic.orders': need at least 3 distinct"),
            ({"orders": [0, 1, 1, 0]}, "'synthetic.orders': need at least 3 distinct"),
            ({"noise": "counts", "shots": 0}, "'synthetic.shots': must be >= 1"))
    ] + [
        pytest.param({**base, key.partition("[")[0]: value}, f"'{key}': {why}",
                     id=f"{key}={value}")
        for base, key, value, why in (
            (_LAB, "time_s", math.nan, "must be finite"),  # these four named 'wavelength_m'
            (_LAB, "time_s", -1.0, "must be >= 0"),
            (_LAB, "field_V_per_m", math.inf, "must be finite"),
            (_LAB, "field_V_per_m", -1.0, "must be >= 0"),
            (_LAB, "time_s", 1e300, "time_s 1e+300 gives tau = inf and alpha = nan"),
            (_LAB, "field_V_per_m", 1e300, "field_V_per_m 1e+300 gives"),  # OverflowError
            (_LAB, "wavelength_m", 1e300, "wavelength_m 1e+300 puts"),  # ZeroDivisionError
            (_IDEAL, "recoil_energy_J", -1.0, "must be >= 0"),  # these two named 'alpha'
            (_IDEAL, "v0_V", -1.0, "must be >= 0"),
            (_IDEAL, "d_tilde", math.nan, "must be finite"),  # these two named 'q_tilde[i]'
            (_IDEAL, "higher[1]", [0.01, math.nan], "must be finite"),
            (_IDEAL, "q_tilde", -math.inf, "must be finite"),
            (_IDEAL, "alpha", math.inf, "must be finite"),
            (_SCAN, "higher", [0.5], "scan mode takes d_tilde and q_tilde only"))  # was ignored
    ])
    def test_bad_input_named_while_parsing(self, doc, named):
        """Each config here ran before, to a meaningless interval (a NaN delta_chi2),
        with a silently floored sigma (a negative rel_sigma), or into an error
        naming no config key or the wrong one."""
        with pytest.raises(ConfigError, match=re.escape(f"config key {named}")):
            parse_config(json.dumps(doc))

    def test_allowed_values_listed(self):
        for doc, key in (({"mode": "analytic", "alpha": 2, "format": "yaml"}, "format"),
                         ({"mode": "dance", "alpha": 2}, "mode"),
                         ({"mode": "tdse", "u0": 100, "tau": 0.01, "envelope": "box"},
                          "envelope")):
            with pytest.raises(ConfigError, match=f"config key '{key}': unknown {key} .*; "
                                                  "expected one of"):
                parse_config(json.dumps(doc))


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

    @pytest.mark.parametrize("doc", [
        {"mode": "fit", "alpha": 2.0, "seed": 7, "synthetic": {"r_eff": 0.8}},
        {"mode": "fit", "alpha": 2.0, "n_grid": 250,
         "datasets": {"entries": [{"path": "a.csv", "alpha": 1.5},
                                  {"path": "b.csv", "alpha": 2.5}]}},
        {"mode": "fit", "alpha": 2.0, "data": "obs.csv", "bounds": [0.5, 1.5]},
        {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "init_state": "gaussian",
         "gauss_k0": 0.5},
        {"mode": "validate", "wavelength_m": 1e-10, "field_V_per_m": 1e10, "time_s": 1e-9},
        {"mode": "scan", "alpha": 2.0, "d_range": "0,0.5,11", "q_range": "0,0.5,11"},
    ], ids=["fit-synthetic", "fit-datasets", "fit-data", "tdse-gaussian", "validate-lab",
            "scan-strings"])
    def test_echo_is_a_fixed_point(self, doc):
        echo = parse_config(json.dumps(doc)).echo
        again = parse_config(json.dumps(echo)).echo
        assert again == echo
        assert json.dumps(again) == json.dumps(echo)  # key order too

    def test_objects_echo_given_entries_first(self):
        # one rule for every object: given entries in document order, then defaults
        syn = parse_config(json.dumps({**_SYN, "synthetic": {"orders": [0, 1, 2], "r_eff": 0.8}}))
        assert list(syn.echo["synthetic"]) == ["orders", "r_eff", "noise", "rel_sigma", "shots"]
        doc = {"mode": "fit", "alpha": 2.0, "datasets": {"entries": [{"alpha": 1.5, "path": "a"}]}}
        entry = parse_config(json.dumps(doc)).echo["datasets"]["entries"][0]
        assert list(entry) == ["alpha", "path"]

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
        path.write_text("\n \norder,probability,sigma\n0,0.5,0.01\n1,0.3,0.01\n2,0.1,0.01\n")
        assert read_observed_csv(str(path), 2.0) == obs  # header on the first non-blank row

    def test_bad_rows_reported_with_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("order,probability,sigma\n0,0.5,0.01\nx,0.3,0.01\n")
        with pytest.raises(ValueError, match="line 3"):
            read_observed_csv(str(path), 2.0)
        path.write_text("order,probability,sigma\n0,0.5\n")
        with pytest.raises(ValueError, match="order,probability,sigma"):
            read_observed_csv(str(path), 2.0)
        for text, why in (("0,abc,0.1\n", "line 1: bad probability 'abc'"),
                          ("0,0.5,0.01\n\n1,0.3,-\n", "line 3: bad sigma '-'"),
                          ("order,probability,sigma\nsigma,0.5,0.01\n", "line 2: bad order")):
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(f"{path}: {why}")):
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


    def test_each_axis_formatted_once(self, tmp_path, capsys, monkeypatch):
        """A CSV scan formats its d~ and q~ axes once each, not once per cell.

        The spy counts every float the run formats; the rows must still
        carry each value's own text.
        """
        emit_mod = importlib.import_module("kdsim.emit")
        bulk, counts = emit_mod.float_texts, []

        def spy_bulk(values):
            values = tuple(values)
            counts.append(len(values))
            return bulk(values)

        monkeypatch.setattr(emit_mod, "float_texts", spy_bulk)
        doc = {"mode": "scan", "alpha": 2.0, "format": "csv",
               "d_range": [0.0, 0.2, 3], "q_range": [0.0, 0.3, 4]}
        formatted = []
        for _ in range(2):  # a second run formats as much again: nothing outlives main
            counts.clear()
            code, out, _ = run_main(tmp_path, doc, capsys)
            assert code == 0
            formatted.append(sum(counts))
        assert formatted == [3 + 4 + 2 * 12] * 2
        payload = run(parse_config(json.dumps(doc))).payload
        keys = ("d_tilde", "q_tilde", "r_eff", "p0")
        rows = [",".join(map(float_text, row)) for row in zip(*(payload[k] for k in keys))]
        assert out.splitlines() == [",".join(keys), *rows]
        ds, qs = np.meshgrid(np.linspace(0.0, 0.2, 3), np.linspace(0.0, 0.3, 4), indexing="ij")
        assert payload["d_tilde"] == ds.ravel().tolist()
        assert payload["q_tilde"] == qs.ravel().tolist()


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

    def test_region_csv_carries_the_json_contour_texts(self, tmp_path, capsys):
        region_out = tmp_path / "region.csv"
        code, out, _ = run_main(tmp_path, {**_SYN, "region_out": str(region_out)}, capsys)
        assert code == 0
        # every number as its source text, so the digits themselves are compared
        doc = json.loads(out, parse_float=str, parse_int=str, parse_constant=str)
        contours = doc["payload"]["region"]["contours"]
        tokens = [row for c in contours for row in zip(c["d_tilde"], c["q_tilde"])]
        rows = [tuple(line.split(",")) for line in region_out.read_text().splitlines()[1:]]
        assert len(tokens) > 10
        assert rows == tokens

    def test_each_call_formats_its_floats_once(self, tmp_path, capsys, monkeypatch):
        """Two identical runs each format every float of the document once.

        The spies sit on the formatters, so a cache above them (in cli or in
        the column type) would show as a lower count on the second run, and
        a contour formatted for the JSON and again for the region CSV as a
        higher one.
        """
        emit_mod = importlib.import_module("kdsim.emit")
        bulk, one = emit_mod.float_texts, emit_mod.float_text
        counts, inside = [0], [False]

        def spy_bulk(values):
            values = tuple(values)
            counts[0] += len(values)
            inside[0] = True  # a non-finite column falls back to float_text per item
            try:
                return bulk(values)
            finally:
                inside[0] = False

        def spy_one(value):
            counts[0] += not inside[0]
            return one(value)

        monkeypatch.setattr(emit_mod, "float_texts", spy_bulk)
        monkeypatch.setattr(emit_mod, "float_text", spy_one)
        doc = {**_SYN, "region_out": str(tmp_path / "region.csv")}
        argv = ["fit", "--config", write_config(tmp_path, doc)]
        formatted = []
        for _ in range(2):
            counts[0] = 0
            assert main(argv) == 0
            formatted.append(counts[0])
        capsys.readouterr()

        def n_floats(obj):
            if isinstance(obj, dict):
                return sum(map(n_floats, obj.values()))
            if isinstance(obj, (list, tuple)):
                return sum(map(n_floats, obj))
            return isinstance(obj, (float, np.floating))

        payload = run(parse_config(json.dumps(doc))).as_dict()
        contours = payload["payload"]["region"]["contours"]
        assert sum(len(c["d_tilde"]) + len(c["q_tilde"]) for c in contours) > 100
        assert formatted == [n_floats(payload)] * 2

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

    def test_snapshot_axes_formatted_once_per_run(self, tmp_path, capsys, monkeypatch):
        """The x and k columns are formatted at the first snapshot of each run only.

        Every snapshot still writes each axis value's own text.
        """
        emit_mod = importlib.import_module("kdsim.emit")
        cli_mod = importlib.import_module("kdsim.cli")
        bulk, counts = emit_mod.float_texts, []

        def spy_bulk(values):
            values = tuple(values)
            counts.append(len(values))
            return bulk(values)

        for module in (emit_mod, cli_mod):
            monkeypatch.setattr(module, "float_texts", spy_bulk)
        prefix = tmp_path / "snap"
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "d_tau": 0.0003,
               "snapshot_every": 10, "snapshot_prefix": str(prefix)}
        per_run = []
        for _ in range(2):  # the second run formats its axes again
            counts.clear()
            code, _, _ = run_main(tmp_path, doc, capsys)
            assert code == 0
            per_run.append(list(counts))
        snaps = sorted(tmp_path.glob("snap_*_position.csv"))
        n_snap, n, cell = len(snaps), 1024, 128
        assert n_snap > 2
        # json payload columns aside, 2 axes once and per snapshot the position
        # density over one Bloch cell and the momentum density of that sector
        assert per_run[0] == per_run[1]
        assert per_run[0].count(n) == 2
        assert per_run[0].count(cell) == 2 * n_snap
        grid = parse_config(json.dumps(doc)).state.grid
        want = {"position": [float_text(x) for x in grid.positions()],
                "momentum": [float_text(k) for k in np.fft.fftshift(grid.wavenumbers())]}
        for name, texts in want.items():
            for path in sorted(tmp_path.glob(f"snap_*_{name}.csv")):
                assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == texts

    @pytest.mark.parametrize("extra", [
        {}, {"order_offset": 1}, {"n_periods": 6, "order_offset": -2}, {"n_periods": 3},
        {"envelope": "sin2_ramp"}, {"include_kinetic": False}, {"init_state": "gaussian"},
    ])
    def test_snapshot_densities_per_cell(self, extra, monkeypatch):
        """A state in one Bloch sector has |psi|^2 periodic over its cell: formatted
        there, it equals the whole box's |ifft|^2, and its momentum texts are the
        box's; any other state is formatted over the whole box."""
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 2.5, "d_tilde": 0.3, "q_tilde": 0.1,
               **extra}
        rc = parse_config(json.dumps(doc))
        grid = rc.grid
        out = tdse.run(tdse.plan_run(rc.state, rc.spec, rc.setup, rc.plan))
        cli_mod = importlib.import_module("kdsim.cli")
        sizes, bulk = [], cli_mod.float_texts
        monkeypatch.setattr(cli_mod, "float_texts", lambda v: sizes.append(len(v)) or bulk(v))
        position, momentum = cli_mod._snapshot_texts(out)
        fold = math.gcd(grid.n_points, grid.n_periods)
        one_sector = rc.init_state == "plane"
        assert sizes == [grid.n_points // fold if one_sector else grid.n_points] * 2
        whole = np.abs(np.fft.ifft(out.spectrum)) ** 2
        assert np.max(np.abs(np.array(position, dtype=float) - whole)) <= 1e-15
        if one_sector:
            assert position == position[:grid.n_points // fold] * fold
        spec = np.fft.fftshift(np.abs(out.spectrum) ** 2)
        assert momentum == [float_text(v) for v in spec / spec.sum()]

    @pytest.mark.parametrize("init_state, box", [("plane", 128), ("gaussian", 1024)])
    def test_snapshot_density_transform(self, tmp_path, capsys, monkeypatch, init_state, box):
        """A plane wave's snapshot transforms one 128-point cell, a Gaussian's the box."""
        shapes, ifft = [], np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda a, *args, **kwargs: shapes.append(
            np.shape(a)) or ifft(a, *args, **kwargs))
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "d_tau": 0.0003, "snapshot_every": 10,
               "init_state": init_state, "snapshot_prefix": str(tmp_path / "snap")}
        code, _, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        n_snap = len(list(tmp_path.glob("snap_*_position.csv")))
        assert n_snap > 2 and shapes == [(box,)] * n_snap

    FFT_BOX = ("fft", (1024,))  # a transform of the whole box

    @pytest.mark.parametrize("extra, calls", [
        ({}, [("eigh", (1, 21, 21))]),
        ({"init_state": "gaussian"}, [FFT_BOX, ("eigh", (8, 42, 42))]),
        ({"envelope": "sin2_ramp"}, [("ifft", (1, 64)), ("ifft", (1, 64)), ("fft", (1, 64))]),
    ])
    def test_setup_runs_once(self, tmp_path, capsys, monkeypatch, extra, calls):
        """States stay in momentum space: a plane wave starts as its spectrum, a
        Gaussian's is taken once, and results are binned from theirs.  An exact
        job runs one stacked eigh, the even block for an order-0 plane wave; a
        ramp steps its band's cell (circulant kinetic step, no per-step FFT)."""
        seen = []

        def spy(name, fn):
            return lambda a, *args, **kwargs: seen.append((name, np.shape(a))) or fn(
                a, *args, **kwargs)

        for module, name in ((np.fft, "fft"), (np.fft, "ifft"), (np.linalg, "eigh")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 2.5, **extra}
        code, _, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        assert seen == calls

    def test_gaussian_initial_state(self, tmp_path, capsys):
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "order_cutoff": 6,
               "init_state": "gaussian"}
        code, out, _ = run_main(tmp_path, doc, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert sum(payload["probabilities"]) == pytest.approx(1.0, abs=1e-3)


class TestPlaneWaveCell:
    """tdse runs step only the order band of the occupied Bloch sectors.

    The reference is the full-box oracle; stepped is the number of points one
    Strang step advances: per occupied sector (one for a plane wave, all
    f = gcd(n_points, n_periods) for a Gaussian) the band's own cell, a power
    of two of at most n_points/f points.  A run under a rectangular pulse with
    the kinetic term takes no steps: tdse.run serves it on the exact route
    within the n_points/f bins of each sector (stepped is that cell here),
    checked against a dense diagonalization of each occupied cell, and it
    stays within the Strang error of the full-box oracle.
    """

    BASE = {"mode": "tdse", "u0": 300.0, "alpha": 2.5, "d_tilde": 0.3, "q_tilde": 0.1}

    @pytest.mark.parametrize("extra, stepped", [
        ({}, 128),
        ({"envelope": "sin2_ramp"}, 64),
        ({"order_offset": 1}, 128),
        ({"n_periods": 6}, 512),
        ({"n_periods": 3}, 1024),  # n_points // n_periods = 341 is no grid
        ({"snapshot_every": 20}, 128),
        ({"init_state": "gaussian"}, 128),
        ({"init_state": "gaussian", "gauss_k0": 0.5}, 128),
        ({"include_kinetic": False, "snapshot_every": 20}, 128),
        ({"init_state": "gaussian", "envelope": "sin2_ramp"}, 512),
        ({"init_state": "gaussian", "envelope": "sin2_ramp", "gauss_k0": 0.5}, 512),
    ])
    def test_matches_full_box(self, tmp_path, capsys, monkeypatch, extra, stepped):
        doc = {**self.BASE, **extra, "snapshot_prefix": str(tmp_path / "snap")}
        rc = parse_config(json.dumps(doc))
        grid = rc.grid
        if rc.init_state == "plane":  # built apart from the CLI, so its defaults are checked
            start = tdse.init_plane_wave(grid, rc.order_offset)
        else:
            start = tdse.init_gaussian(grid, grid.box_length / 2, grid.box_length / 8,
                                       rc.gauss_k0)
        exact = rc.envelope == "rectangular" and rc.include_kinetic
        snaps, strang_snaps = {}, {}
        full = propagate_full_box(start, rc.spec, rc.setup, rc.plan,
                                  lambda j, _t, s: strang_snaps.setdefault(j, s.psi))
        strang = tdse.order_probabilities(full, max_order=rc.order_cutoff)
        if exact:  # the reference is the cell's dense diagonalization
            ref = propagate_cell_eigh(start, rc.spec, rc.setup, rc.plan,
                                      lambda j, _t, s: snaps.setdefault(j, s.psi))
            want, tol = tdse.order_probabilities(ref, max_order=rc.order_cutoff), 1e-12
        else:
            want, snaps, tol = strang, strang_snaps, 1e-13

        grids = []
        run_plan = tdse.run

        def spy(plan, *args, **kwargs):
            grids.append(plan.state.grid)
            return run_plan(plan, *args, **kwargs)

        monkeypatch.setattr(tdse, "run", spy)
        (code, out, _), shapes = stepped_sectors(lambda: run_main(tmp_path, doc, capsys))
        assert code == 0
        assert grids == [grid]
        f = math.gcd(grid.n_points, grid.n_periods)
        if exact:
            assert shapes == set()  # no 2-D FFT: not one Strang step
            assert grid.n_points // f == stepped
        else:
            (live, points), = shapes
            assert live == (1 if rc.init_state == "plane" else f)
            assert points * live == stepped
        payload = json.loads(out)["payload"]
        assert payload["generator"] == ("tdse_exact" if exact else "tdse")
        assert payload["orders"] == list(want.orders)
        got = np.array(payload["probabilities"])
        assert np.max(np.abs(got - [want.probabilities[p] for p in want.orders])) <= tol
        assert abs(payload["tail_mass"] - want.tail_mass) <= tol
        if exact:  # within the Strang error of the full-box stepper
            assert np.max(np.abs(got - [strang.probabilities[p] for p in strang.orders])) <= 1e-5

        assert len(snaps) == (rc.plan.n_steps // 20 if "snapshot_every" in extra else 0)
        assert sorted(snaps) == sorted(strang_snaps)
        k = np.fft.fftshift(grid.wavenumbers())
        for refs, bound in [(snaps, tol)] + [(strang_snaps, 1e-5)] * exact:
            for step, psi in refs.items():
                spec = np.fft.fftshift(np.abs(np.fft.fft(psi)) ** 2)
                for name, coords, dens in (("position", grid.positions(), np.abs(psi) ** 2),
                                           ("momentum", k, spec / spec.sum())):
                    got = np.loadtxt(tmp_path / f"snap_{step:06d}_{name}.csv", delimiter=",",
                                     skiprows=1)
                    assert np.array_equal(got[:, 0], coords)
                    assert np.max(np.abs(got[:, 1] - dens)) <= bound

    def test_step_phase_example_served_exactly(self, tmp_path, capsys, recwarn):
        # 3 rad of potential phase per step: Strang would warn and be far off
        code = main(["tdse", "--u0", "300", "--alpha", "1.5", "--d-tau", "0.01"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert len(recwarn) == 0
        payload = json.loads(out)["payload"]
        assert payload["generator"] == "tdse_exact"
        rc = parse_config("{}", {"mode": "tdse", "u0": 300.0, "alpha": 1.5, "d_tau": 0.01})
        assert rc.plan.n_steps == 1
        want = tdse.order_probabilities(propagate_cell_eigh(rc.state, rc.spec, rc.setup, rc.plan))
        assert payload["orders"] == list(want.orders)
        assert np.max(np.abs(np.subtract(payload["probabilities"],
                                         [want.probabilities[p] for p in want.orders]))) <= 1e-12


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

    def test_exact_route_with_snapshots_reruns_byte_identical(self, tmp_path, capsys):
        snap_dir = tmp_path / "snaps"
        doc = {"mode": "tdse", "u0": 300.0, "alpha": 2.0, "d_tilde": 0.3, "q_tilde": 0.1,
               "snapshot_every": 16, "snapshot_prefix": str(snap_dir / "snap")}
        runs = []
        for _ in range(2):
            snap_dir.mkdir()
            code, out, err = run_main(tmp_path, doc, capsys)
            files = sorted(snap_dir.iterdir())
            runs.append((code, out, err, [(f.name, f.read_bytes()) for f in files]))
            shutil.rmtree(snap_dir)
        assert json.loads(runs[0][1])["payload"]["generator"] == "tdse_exact"
        assert len(runs[0][3]) == 2 * (parse_config(json.dumps(doc)).plan.n_steps // 16) > 0
        assert runs[0] == runs[1]

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


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for argv in (["analytic", "--alpha", "2"], ["validate", "--alpha", "2"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert built == []

    def test_echo_lists_flags_then_mode(self, capsys):
        assert main(["analytic", "--order-cutoff", "3", "--alpha", "2", "--d-tilde", "0.1"]) == 0
        setup = json.loads(capsys.readouterr().out)["setup"]
        assert list(setup) == ["alpha", "d_tilde", "order_cutoff", "mode"]

    def test_flags_may_precede_mode(self, capsys):
        outs = []
        for argv in (["analytic", "--alpha", "2", "--d-tilde", "0.1"],
                     ["--alpha", "2", "--d-tilde", "0.1", "analytic"]):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_one_option_per_flag_leaf(self):
        options = [s for action in _PARSER._actions for s in action.option_strings]
        flags = [_flag_name(k) for k, leaf in _LEAVES.items() if leaf.flag]
        assert sorted(options) == sorted(["-h", "--help", "--version", "--config", *flags])
        [mode] = [action for action in _PARSER._actions if not action.option_strings]
        assert mode.dest == "mode" and list(mode.choices) == list(MODES)

    def test_version_and_unknown_mode_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == kdsim.__version__ + "\n"
        with pytest.raises(SystemExit) as exc:
            main(["dance", "--alpha", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'dance'" in capsys.readouterr().err


def test_python_m_kdsim_runs_the_cli(tmp_path):
    src = str(Path(kdsim.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "kdsim", "analytic", "--alpha", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
    payload = json.loads(done.stdout)["payload"]
    assert payload["kind"] == "pattern"
    assert payload["probabilities"][payload["orders"].index(0)] == pytest.approx(
        J0_2_SQ, rel=1e-12)


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

    def test_env_file_recorded_in_echo(self, tmp_path, capsys, monkeypatch):
        consts = tmp_path / "constants.json"
        consts.write_text(json.dumps({"m": 2.0 * 9.1093837015e-31}))
        monkeypatch.setenv("KDSIM_CONSTANTS", str(consts))
        doc = {"mode": "validate", "wavelength_m": 1e-10}
        _, out, _ = run_main(tmp_path, doc, capsys)
        first = json.loads(out)
        assert first["setup"]["constants"] == str(consts)
        monkeypatch.delenv("KDSIM_CONSTANTS")
        _, out2, _ = run_main(tmp_path, first["setup"], capsys)
        assert json.loads(out2)["payload"] == first["payload"]

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


def test_readme_names_every_config_key():
    """The README's config-key paragraph names every leaf and synthetic entry."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    named = set(re.findall(r"`([A-Za-z_0-9]+)`", section))
    assert set(_LEAVES) - named == set()
    assert set(_SYNTHETIC_LEAVES) - named == set()


def test_public_api_names_resolve():
    """Every exported name resolves; the routes and oracles moved out stay out."""
    for name in kdsim.__all__:
        assert getattr(kdsim, name) is not None, name
    dropped = {"exact_route", "BesselRow", "distribution_pattern", "pointlike_pattern",
               "bessel_j", "pattern_distance"}
    assert dropped.isdisjoint(kdsim.__all__)

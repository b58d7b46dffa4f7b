"""Command line front end.

One JSON config document (plus per-leaf flag overrides) drives five modes:

* analytic -- thin-grating pattern from the closed form J_p(alpha r_eff)^2
* tdse     -- split-operator propagation, binned into orders
* fit      -- chi-square estimate of r_eff from observed patterns
* validate -- regime report only
* scan     -- r_eff and zero-order probability over a (d~, q~) grid

The config carries either laboratory inputs (wavelength_m, field_V_per_m,
time_s) or dimensionless ones (u0, tau, alpha), never both.  Every result
is wrapped in an envelope {version, setup, regime, payload}; the setup echo
is itself a valid config that re-parses to an equivalent run.
"""
from __future__ import annotations

import argparse
import csv as _csvmod
import inspect
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import analytic, fit as fit_mod, model, tdse
from .emit import ResultEnvelope, csv_table, emit, float_text
from .version import __version__

ENV_CONSTANTS = "KDSIM_CONSTANTS"
MODES = ("analytic", "tdse", "fit", "validate", "scan")


class ConfigError(ValueError):
    """Config rejection; the message names the failing key."""


def _cast_float(key, v) -> float:
    if isinstance(v, bool):
        raise ConfigError(f"config key '{key}': expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"config key '{key}': cannot parse {v!r} as a number") from None
    raise ConfigError(f"config key '{key}': expected a number, got {type(v).__name__}")


def _cast_int(key, v) -> int:
    if isinstance(v, bool):
        raise ConfigError(f"config key '{key}': expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():  # False for nan and inf too
        return int(v)
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"config key '{key}': cannot parse {v!r} as an integer") from None
    raise ConfigError(f"config key '{key}': expected an integer, got {type(v).__name__}")


def _cast_bool(key, v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, str):
        low = v.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
    raise ConfigError(f"config key '{key}': expected true/false, got {v!r}")


def _cast_str(key, v) -> str:
    if isinstance(v, str):
        return v
    raise ConfigError(f"config key '{key}': expected a string, got {type(v).__name__}")


def _cast_list(cast_item, noun: str):
    """Caster for a list (or comma-separated string) of cast_item values."""
    def cast(key, v) -> list:
        if isinstance(v, str):
            v = [part for part in v.split(",") if part.strip() != ""]
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"config key '{key}': expected a list of {noun}")
        return [cast_item(f"{key}[{i}]", item) for i, item in enumerate(v)]
    return cast


_cast_float_list = _cast_list(_cast_float, "numbers")


def _cast_dict(key, v) -> dict:
    if isinstance(v, dict):
        return v
    raise ConfigError(f"config key '{key}': expected an object, got {type(v).__name__}")


def _default(func, name: str):
    """Default of parameter name in func's signature."""
    return inspect.signature(func).parameters[name].default


# caster, default when absent, has a CLI flag.  A default that feeds a
# library call is read from that call, so it is defined in one place.
_Leaf = namedtuple("_Leaf", "cast default flag", defaults=(None, True))

_LEAVES = {
    "mode": _Leaf(_cast_str, flag=False),
    "wavelength_m": _Leaf(_cast_float),
    "field_V_per_m": _Leaf(_cast_float),
    "time_s": _Leaf(_cast_float),
    "u0": _Leaf(_cast_float),
    "tau": _Leaf(_cast_float),
    "alpha": _Leaf(_cast_float),
    "recoil_energy_J": _Leaf(_cast_float),
    "v0_V": _Leaf(_cast_float),
    "d_tilde": _Leaf(_cast_float),
    "q_tilde": _Leaf(_cast_float),
    "higher": _Leaf(_cast_float_list),
    "n_points": _Leaf(_cast_int, tdse.Grid1D.n_points),
    "n_periods": _Leaf(_cast_int, tdse.Grid1D.n_periods),
    "d_tau": _Leaf(_cast_float),
    "max_step_phase": _Leaf(_cast_float, _default(tdse.plan_propagation, "max_step_phase")),
    "include_kinetic": _Leaf(_cast_bool, tdse.PropagationConfig.include_kinetic),
    "envelope": _Leaf(_cast_str, tdse.PropagationConfig.envelope),
    "ramp_fraction": _Leaf(_cast_float, tdse.PropagationConfig.ramp_fraction),
    "init_state": _Leaf(_cast_str, "plane"),
    "order_offset": _Leaf(_cast_int, _default(tdse.init_plane_wave, "order_offset")),
    "gauss_center": _Leaf(_cast_float),
    "gauss_sigma": _Leaf(_cast_float),
    "gauss_k0": _Leaf(_cast_float, _default(tdse.init_gaussian, "k0")),
    "snapshot_every": _Leaf(_cast_int, tdse.PropagationConfig.snapshot_every),
    "snapshot_prefix": _Leaf(_cast_str, "snapshot"),
    "data": _Leaf(_cast_str),
    "datasets": _Leaf(_cast_dict, flag=False),  # {"entries": [{"path":..., "alpha":...}, ...]}
    "synthetic": _Leaf(_cast_dict, flag=False),
    "bounds": _Leaf(_cast_float_list, _default(fit_mod.joint_fit, "bounds")),
    "delta_chi2": _Leaf(_cast_float, _default(fit_mod.joint_fit, "delta_chi2")),
    "n_grid": _Leaf(_cast_int, _default(fit_mod.joint_fit, "n_grid")),
    "region_samples": _Leaf(_cast_int, _default(fit_mod.moment_region, "n_samples")),
    "region_out": _Leaf(_cast_str),
    "d_range": _Leaf(_cast_float_list),
    "q_range": _Leaf(_cast_float_list),
    "order_cutoff": _Leaf(_cast_int),
    "out": _Leaf(_cast_str),
    "format": _Leaf(_cast_str, "json"),
    "seed": _Leaf(_cast_int),
    "constants": _Leaf(_cast_str),
}

_PHYSICAL_KEYS = ("wavelength_m", "field_V_per_m", "time_s")
_DIMLESS_KEYS = ("u0", "tau", "alpha")
_PLAN_KEYS = ("d_tau", "max_step_phase", "include_kinetic", "envelope", "ramp_fraction",
              "snapshot_every")  # plan_propagation's keywords

# defaulted entries are filled in this order, after the given ones
_SYNTHETIC_LEAVES = {
    "r_eff": _Leaf(_cast_float),
    "alpha": _Leaf(_cast_float),
    "noise": _Leaf(_cast_str, "gaussian"),
    "orders": _Leaf(_cast_list(_cast_int, "integers"), [0, 1, 2, 3, 4]),
    "rel_sigma": _Leaf(_cast_float, _default(fit_mod.synthesize_gaussian, "rel_sigma")),
    "shots": _Leaf(_cast_int, _default(fit_mod.synthesize_counts, "shots")),
}


class RunConfig:
    """Fully resolved run parameters; built by parse_config only.

    Holds every leaf of _LEAVES under its own name (its default when the
    config omits it) plus the objects resolved from them.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __repr__(self):
        return f"RunConfig(mode={self.mode!r}, alpha={self.setup.alpha!r})"


def _load_constants(path: str | None) -> model.ElectronConstants:
    if path is None:
        return model.ElectronConstants()
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config key 'constants': cannot read {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config key 'constants': file must hold an object")
    allowed = {"e", "m", "hbar", "c"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"config key 'constants': unknown entries {sorted(unknown)}")
    kw = {k: _cast_float(f"constants.{k}", v) for k, v in raw.items()}
    return model.ElectronConstants(**kw)


def _resolve_setup(cfg: dict, consts: model.ElectronConstants):
    physical = [k for k in _PHYSICAL_KEYS if k in cfg]
    dimless = [k for k in _DIMLESS_KEYS if k in cfg]
    if physical and dimless:
        raise ConfigError(
            f"config keys {physical + dimless}: give either laboratory or "
            "dimensionless parameters, not both")
    laser = None
    if physical:
        if "wavelength_m" not in cfg:
            raise ConfigError("config key 'wavelength_m': required with laboratory inputs")
        try:
            laser = model.LaserSetup(
                wavelength_m=cfg["wavelength_m"],
                field_amplitude_V_per_m=cfg.get("field_V_per_m", 0.0))
            setup = model.derive_scales(laser, cfg.get("time_s", 0.0), consts)
        except ValueError as exc:
            raise ConfigError(f"config key 'wavelength_m': {exc}") from exc
        return setup, laser
    if not dimless:
        raise ConfigError(
            "config key 'alpha': either dimensionless (u0/tau/alpha) or "
            "laboratory (wavelength_m/...) parameters are required")
    anchors = {}
    if "recoil_energy_J" in cfg:
        anchors["recoil_energy_J"] = cfg["recoil_energy_J"]
    if "v0_V" in cfg:
        anchors["v0_V"] = cfg["v0_V"]
    u0, tau, alpha = cfg.get("u0"), cfg.get("tau"), cfg.get("alpha")
    try:
        if u0 is not None and tau is not None:
            setup = model.DimensionlessSetup.from_u0_tau(u0, tau, **anchors)
            if alpha is not None and abs(alpha - setup.alpha) > 1e-12 * max(1.0, abs(alpha)):
                raise ConfigError(
                    f"config key 'alpha': {alpha!r} contradicts u0*tau/2 = {setup.alpha!r}")
        elif u0 is not None and alpha is not None:
            setup = model.DimensionlessSetup.from_u0_alpha(u0, alpha, **anchors)
        elif tau is not None and alpha is not None:
            if tau <= 0.0:
                raise ConfigError("config key 'tau': must be > 0 when paired with alpha")
            setup = model.DimensionlessSetup(u0=2.0 * alpha / tau, tau=tau,
                                             alpha=alpha, **anchors)
        elif alpha is not None:
            setup = model.DimensionlessSetup.from_alpha(alpha, **anchors)
        else:
            raise ConfigError(
                f"config key '{dimless[0]}': underdetermined; give alpha, or u0 "
                "with tau or alpha")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config key '{dimless[0]}': {exc}") from exc
    return setup, laser


def _validate_synthetic(raw: dict) -> dict:
    unknown = set(raw) - set(_SYNTHETIC_LEAVES)
    if unknown:
        raise ConfigError(f"config key 'synthetic': unknown entries {sorted(unknown)}")
    if "r_eff" not in raw:
        raise ConfigError("config key 'synthetic.r_eff': required")
    out = {k: _SYNTHETIC_LEAVES[k].cast(f"synthetic.{k}", v) for k, v in raw.items()}
    for k, leaf in _SYNTHETIC_LEAVES.items():
        if k not in out and leaf.default is not None:
            out[k] = leaf.cast(f"synthetic.{k}", leaf.default)  # cast copies a list
    if out["noise"] not in ("gaussian", "counts"):
        raise ConfigError(f"config key 'synthetic.noise': unknown model {out['noise']!r}")
    return out


def _validate_datasets(raw: dict) -> list[dict]:
    entries = raw.get("entries")
    if set(raw) - {"entries"}:
        raise ConfigError("config key 'datasets': expected a single 'entries' list")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config key 'datasets.entries': expected a nonempty list")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) - {"path", "alpha"}:
            raise ConfigError(
                f"config key 'datasets.entries[{i}]': expected {{path, alpha}}")
        if "path" not in entry or "alpha" not in entry:
            raise ConfigError(f"config key 'datasets.entries[{i}]': path and alpha required")
        out.append({"path": _cast_str(f"datasets.entries[{i}].path", entry["path"]),
                    "alpha": _cast_float(f"datasets.entries[{i}].alpha", entry["alpha"])})
    return out


def _leading_key_error(exc: ValueError) -> ConfigError:
    """ConfigError for a library message that leads with the field at fault."""
    return ConfigError(f"config key '{str(exc).split()[0]}': {exc}")


def _initial_state(val: dict, grid: tdse.Grid1D) -> tdse.WaveState:
    """tdse start state on the configured grid; its errors name their key."""
    if val["init_state"] == "plane":
        try:
            return tdse.init_plane_wave(grid, val["order_offset"])
        except ValueError as exc:
            raise _leading_key_error(exc) from exc
    try:
        grid.mode_index(val["gauss_k0"])
    except ValueError as exc:
        raise ConfigError(f"config key 'gauss_k0': {exc}") from exc
    center = grid.box_length / 2.0 if val["gauss_center"] is None else val["gauss_center"]
    if not math.isfinite(center):
        raise ConfigError(f"config key 'gauss_center': must be finite, got {center!r}")
    sigma = grid.box_length / 8.0 if val["gauss_sigma"] is None else val["gauss_sigma"]
    try:
        return tdse.init_gaussian(grid, center, sigma, val["gauss_k0"])
    except ValueError as exc:  # the carrier and center passed above, so the width is at fault
        raise ConfigError(f"config key 'gauss_sigma': {exc}") from exc


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Validate a config document and resolve it to a RunConfig.

    overrides maps leaf keys to values (typically from CLI flags) and wins
    over the document.  Unknown keys, type mismatches and inconsistent
    parameter sets are rejected with the failing key named.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    merged = dict(raw)
    for k, v in (overrides or {}).items():
        if v is not None:
            merged[k] = v
    if "constants" not in merged and ENV_CONSTANTS in os.environ:
        merged["constants"] = os.environ[ENV_CONSTANTS]  # so the echo records it

    unknown = set(merged) - set(_LEAVES)
    if unknown:
        raise ConfigError(f"unknown config key '{sorted(unknown)[0]}'")
    # cfg holds the keys given (the setup echo); val every leaf, defaulted
    cfg = {k: _LEAVES[k].cast(k, v) for k, v in merged.items()}
    val = {k: cfg.get(k, leaf.default) for k, leaf in _LEAVES.items()}

    mode = val["mode"]
    if mode is None:
        raise ConfigError("config key 'mode': required")
    if mode not in MODES:
        raise ConfigError(f"config key 'mode': unknown mode {mode!r}")

    consts = _load_constants(val["constants"])
    setup, laser = _resolve_setup(cfg, consts)
    moments = model.MomentSet.from_dipole_quadrupole(
        **{k: cfg[k] for k in ("d_tilde", "q_tilde", "higher") if k in cfg})

    try:
        grid = tdse.Grid1D(n_points=val["n_points"], n_periods=val["n_periods"])
    except ValueError as exc:
        raise _leading_key_error(exc) from exc

    if val["format"] not in ("csv", "json", "svg"):
        raise ConfigError(
            f"config key 'format': expected csv, json or svg, got {val['format']!r}")
    if val["envelope"] not in tdse.ENVELOPES:
        raise ConfigError(f"config key 'envelope': unknown envelope {val['envelope']!r}")
    if val["init_state"] not in ("plane", "gaussian"):
        raise ConfigError(f"config key 'init_state': expected plane or gaussian, "
                          f"got {val['init_state']!r}")
    if val["format"] == "svg" and mode not in ("analytic", "tdse"):
        raise ConfigError(f"config key 'format': svg output is only defined for patterns "
                          f"(analytic, tdse), not {mode} mode")
    if val["format"] == "csv" and mode == "validate":
        raise ConfigError("config key 'format': payload kind 'regime' has no CSV form; use json")
    if val["order_cutoff"] is not None and val["order_cutoff"] < 0:
        raise ConfigError(f"config key 'order_cutoff': must be >= 0, got {val['order_cutoff']}")
    if len(val["bounds"]) != 2:
        raise ConfigError("config key 'bounds': expected [r_min, r_max]")

    synthetic = _validate_synthetic(cfg["synthetic"]) if "synthetic" in cfg else None
    datasets = _validate_datasets(cfg["datasets"]) if "datasets" in cfg else None

    spec = plan = state = None
    if mode == "tdse":
        if not math.isfinite(setup.u0):
            raise ConfigError("config key 'u0': tdse mode needs a finite well depth")
        spec = model.build_potential(moments)
        try:
            plan = tdse.plan_propagation(setup, spec, **{k: val[k] for k in _PLAN_KEYS})
        except ValueError as exc:
            raise _leading_key_error(exc) from exc
        state = _initial_state(val, grid)
    if mode == "fit":
        sources = [s for s in ("data", "datasets", "synthetic") if val[s] is not None]
        if len(sources) != 1:
            raise ConfigError(
                "config key 'data': fit mode needs exactly one of data, datasets "
                f"or synthetic, got {sources or 'none'}")
        if synthetic is not None and val["seed"] is None:
            raise ConfigError("config key 'seed': required when synthesizing noisy data")
        if val["region_samples"] < 2:
            raise ConfigError(
                f"config key 'region_samples': must be >= 2, got {val['region_samples']}")
    if mode == "scan":
        for key in ("d_range", "q_range"):
            rng = val[key]
            if rng is None or len(rng) != 3:
                raise ConfigError(f"config key '{key}': expected [lo, hi, n]")
            if not math.isfinite(rng[2]) or int(rng[2]) != rng[2] or rng[2] < 1:
                raise ConfigError(f"config key '{key}': n must be a positive integer")
            if not -math.inf < rng[0] <= rng[1] < math.inf:
                raise ConfigError(f"config key '{key}': lo must be <= hi, both finite")

    echo = {k: v for k, v in cfg.items() if k not in _PHYSICAL_KEYS}
    echo["mode"] = mode
    if math.isfinite(setup.u0):
        echo["u0"] = setup.u0
        echo["tau"] = setup.tau
    else:
        echo.pop("u0", None)
        echo.pop("tau", None)
    echo["alpha"] = setup.alpha
    if setup.recoil_energy_J is not None:
        echo["recoil_energy_J"] = setup.recoil_energy_J
    if setup.v0_V is not None:
        echo["v0_V"] = setup.v0_V
    if "datasets" in echo:
        echo["datasets"] = {"entries": datasets}
    if "synthetic" in echo:
        echo["synthetic"] = synthetic
    if val["data"] is not None:
        datasets = [{"path": val["data"], "alpha": setup.alpha}]  # read as one dataset

    val.update(setup=setup, laser=laser, consts=consts, moments=moments, grid=grid, spec=spec,
               plan=plan, state=state, datasets=datasets, synthetic=synthetic,
               bounds=tuple(val["bounds"]), fmt=val["format"], echo=echo)
    return RunConfig(**val)


def _pattern_payload(pattern: analytic.DiffractionPattern,
                     alpha: float | None = None) -> dict:
    orders = pattern.orders
    return {
        "kind": "pattern",
        "generator": pattern.generator,
        "alpha": pattern.alpha if alpha is None else alpha,
        "orders": list(orders),
        "probabilities": [pattern.probabilities[p] for p in orders],
        "tail_mass": pattern.tail_mass,
        "cutoff_warning": pattern.cutoff_warning,
    }


def _region_payload(region: fit_mod.MomentRegion) -> dict:
    return {
        "kind": "region",
        "r_band": list(region.r_band),
        "empty": region.is_empty,
        "note": region.note,
        "contours": [
            {"label": label,
             "d_tilde": [float(d) for d, _ in arr],
             "q_tilde": [float(q) for _, q in arr]}
            for label, arr in region.contours
        ],
    }


def _fit_payload(result: fit_mod.FitResult, region: fit_mod.MomentRegion) -> dict:
    return {
        "kind": "fit",
        "r_eff_hat": result.r_eff_hat,
        "chi2_min": result.chi2_min,
        "dof": result.dof,
        "reduced_chi2": result.reduced_chi2,
        "ci": list(result.ci),
        "delta_chi2": result.delta_chi2,
        "at_bound": result.at_bound,
        "ci_at_bounds": list(result.ci_at_bounds),
        "misfit": result.misfit,
        "notes": result.notes,
        "local_minima": [[r, c] for r, c in result.local_minima],
        "scan_r": list(result.scan_r),
        "scan_chi2": list(result.scan_chi2),
        "region": _region_payload(region),
    }


def read_observed_csv(path: str, alpha: float) -> fit_mod.ObservedPattern:
    """Load an observation from CSV columns order, probability, sigma."""
    orders, values, sigmas = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for i, row in enumerate(_csvmod.reader(fh)):
                if not row or not "".join(row).strip():
                    continue
                try:
                    p = int(row[0])
                except ValueError:
                    if i == 0:
                        continue  # header row
                    raise ValueError(f"{path}: line {i + 1}: bad order {row[0]!r}") from None
                if len(row) < 3:
                    raise ValueError(f"{path}: line {i + 1}: need order,probability,sigma")
                orders.append(p)
                values.append(float(row[1]))
                sigmas.append(float(row[2]))
    except OSError as exc:
        raise ValueError(f"cannot read observation file {path!r}: {exc}") from exc
    return fit_mod.ObservedPattern(orders=tuple(orders), values=tuple(values),
                                   sigmas=tuple(sigmas), alpha=alpha)


def _write_snapshot(prefix: str, step: int, state: tdse.WaveState) -> None:
    k = np.fft.fftshift(state.grid.wavenumbers())
    spec = np.fft.fftshift(np.abs(np.fft.fft(state.psi)) ** 2)
    profiles = (("position", "x", state.grid.positions(), np.abs(state.psi) ** 2),
                ("momentum", "k", k, spec / spec.sum()))
    for name, axis, coords, dens in profiles:
        rows = ((float_text(c), float_text(v)) for c, v in zip(coords, dens))
        with open(f"{prefix}_{step:06d}_{name}.csv", "w", encoding="utf-8") as fh:
            fh.write(csv_table(f"{axis},density", rows))


def _run_tdse(config: RunConfig) -> dict:
    final = tdse.propagate(
        config.state, config.spec, config.setup, config.plan,
        snapshot_callback=lambda step, _tau, snap: _write_snapshot(
            config.snapshot_prefix, step, snap))
    pattern = tdse.order_probabilities(final, max_order=config.order_cutoff)
    return _pattern_payload(pattern, alpha=config.setup.alpha)


def _run_fit(config: RunConfig) -> dict:
    if config.datasets is not None:
        datasets = [read_observed_csv(e["path"], e["alpha"]) for e in config.datasets]
    else:
        syn = config.synthetic
        rng = np.random.default_rng(config.seed)
        alpha = syn.get("alpha", config.setup.alpha)
        if syn["noise"] == "gaussian":
            obs = fit_mod.synthesize_gaussian(alpha, syn["r_eff"], syn["orders"], rng,
                                              rel_sigma=syn["rel_sigma"])
        else:
            obs = fit_mod.synthesize_counts(alpha, syn["r_eff"], syn["orders"], rng,
                                            shots=syn["shots"])
        datasets = [obs]
    result = fit_mod.joint_fit(datasets, bounds=config.bounds,
                               delta_chi2=config.delta_chi2, n_grid=config.n_grid)
    region = fit_mod.moment_region(result, config.region_samples)
    return _fit_payload(result, region)


def _run_scan(config: RunConfig) -> dict:
    axes = (np.linspace(lo, hi, int(n)) for lo, hi, n in (config.d_range, config.q_range))
    ds, qs = np.meshgrid(*axes, indexing="ij")
    ds, qs = ds.ravel().tolist(), qs.ravel().tolist()  # d~ major, q~ minor
    rs = list(map(fit_mod.band_radius, ds, qs))
    alpha = config.setup.alpha
    p0s = fit_mod.model_probabilities(alpha, np.array(rs), [0])[:, 0].tolist()
    return {"kind": "scan", "alpha": alpha, "d_tilde": ds, "q_tilde": qs, "r_eff": rs, "p0": p0s}


def run(config: RunConfig) -> ResultEnvelope:
    """Execute a parsed config and wrap the result in an envelope."""
    report = model.check_regime(config.setup, config.moments, config.consts)
    if config.mode == "analytic":
        payload = _pattern_payload(analytic.closed_form_pattern(
            config.setup.alpha, config.moments, config.order_cutoff))
    elif config.mode == "tdse":
        payload = _run_tdse(config)
    elif config.mode == "fit":
        payload = _run_fit(config)
    elif config.mode == "scan":
        payload = _run_scan(config)
    else:  # validate
        payload = {"kind": "regime", **report.as_dict()}
    return ResultEnvelope(setup=config.echo, regime=report.as_dict(), payload=payload)


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-").lower()


def _build_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", metavar="PATH", help="config document (JSON)")
    for key, leaf in _LEAVES.items():
        if leaf.flag:
            parent.add_argument(_flag_name(key), dest=key, metavar="V",
                                help=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="kdsim",
        description="standing-wave diffraction of a structured charge")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    descriptions = {
        "analytic": "thin-grating pattern from the closed form",
        "tdse": "split-operator propagation binned into orders",
        "fit": "estimate r_eff from observed patterns",
        "validate": "regime report only",
        "scan": "r_eff and P_0 over a (d~, q~) grid",
    }
    for mode in MODES:
        sub.add_parser(mode, parents=[parent], help=descriptions[mode])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = "{}"
        overrides = {key: getattr(args, key) for key, leaf in _LEAVES.items()
                     if leaf.flag and getattr(args, key, None) is not None}
        overrides["mode"] = args.mode
        config = parse_config(text, overrides)
        envelope = run(config)
        data = emit(envelope, config.fmt)
        if config.out:
            with open(config.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data.decode())
        if config.mode == "fit" and config.region_out:
            region_env = ResultEnvelope(setup=config.echo, regime=envelope.regime,
                                        payload=envelope.payload["region"])
            with open(config.region_out, "wb") as fh:
                fh.write(emit(region_env, "csv"))
    except Exception as exc:  # one-line machine-parsable error record
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

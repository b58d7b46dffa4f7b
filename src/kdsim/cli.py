"""Command line front end.

One JSON config document (plus per-leaf flag overrides) drives five modes:

* analytic -- thin-grating pattern from the closed form J_p(alpha r_eff)^2
* tdse     -- propagation at finite u0 (exact order basis or split-operator), binned into orders
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
import dataclasses
import inspect
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import analytic, fit as fit_mod, model, tdse
from .emit import (
    FloatColumn, RepeatedColumn, ResultEnvelope, csv_table, emit, float_text, float_texts,
)
from .version import __version__

ENV_CONSTANTS = "KDSIM_CONSTANTS"
MODES = {  # mode: its line in the MODE help
    "analytic": "thin-grating pattern from the closed form",
    "tdse": "finite-u0 propagation binned into orders",
    "fit": "estimate r_eff from observed patterns",
    "validate": "regime report only",
    "scan": "r_eff and P_0 over a (d~, q~) grid",
}


class ConfigError(ValueError):
    """Config rejection; the message names the failing key."""


def _cast_float(key, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ConfigError(f"config key '{key}': expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except (ValueError, OverflowError):
        raise ConfigError(f"config key '{key}': cannot parse {v!r} as a number") from None
    if not math.isfinite(x):
        raise ConfigError(f"config key '{key}': must be finite, got {x!r}")
    return x


def _cast_int(key, v) -> int:
    if isinstance(v, float) and v.is_integer():  # False for nan and inf too
        return int(v)
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ConfigError(f"config key '{key}': expected an integer, got {v!r}")
    try:
        return int(v)
    except ValueError:
        raise ConfigError(f"config key '{key}': cannot parse {v!r} as an integer") from None


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _cast_bool(key, v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, str) and v.strip().lower() in _BOOL_WORDS:
        return _BOOL_WORDS[v.strip().lower()]
    raise ConfigError(f"config key '{key}': expected true/false, got {v!r}")


def _cast_str(key, v) -> str:
    if isinstance(v, str):
        return v
    raise ConfigError(f"config key '{key}': expected a string, got {type(v).__name__}")


def _cast_list(cast_item, noun: str, nonempty: bool = False):
    """Caster for a list (or comma-separated string) of cast_item values."""
    def cast(key, v) -> list:
        if isinstance(v, str):
            v = [part for part in v.split(",") if part.strip() != ""]
        if not isinstance(v, (list, tuple)) or (nonempty and not v):
            raise ConfigError(f"config key '{key}': expected a {'nonempty ' * nonempty}"
                              f"list of {noun}")
        return [cast_item(f"{key}[{i}]", item) for i, item in enumerate(v)]
    return cast


_cast_float_list = _cast_list(_cast_float, "numbers")


def _default(func, name: str):
    """Default of parameter name in func's signature."""
    return inspect.signature(func).parameters[name].default


# caster, default when absent, has a CLI flag, allowed values, least value.  A
# default or least value of a library call is read from it: defined in one place.
_Leaf = namedtuple("_Leaf", "cast default flag choices low", defaults=(None, True, None, None))
_REQUIRED = object()  # the default of a leaf that must be given
_PLAN_KEYS = [k for k, p in inspect.signature(tdse.plan_run).parameters.items()
              if p.default is not p.empty]  # plan_run's schedule keywords


def _cast_leaf(key: str, leaf: _Leaf, v):
    v = leaf.cast(key, v)
    if leaf.choices is not None and v not in leaf.choices:
        raise ConfigError(f"config key '{key}': unknown {key.rpartition('.')[2]} {v!r}; "
                          f"expected one of {', '.join(leaf.choices)}")
    if leaf.low is not None and v < leaf.low:
        raise ConfigError(f"config key '{key}': must be >= {leaf.low}, got {v!r}")
    return v


def _cast_object(leaves: dict):
    """Caster for a JSON object whose entries are the given leaves.

    Given entries are cast in document order, then absent ones with a default
    are filled in table order.  Entries are named by dotted key (bare at the
    top level, where the caster's key is "").
    """
    def cast(key, v) -> dict:
        if not isinstance(v, dict):
            raise ConfigError(f"config key '{key}': expected an object, got {type(v).__name__}")
        prefix = f"{key}." if key else ""
        unknown = sorted(set(v) - set(leaves))
        if unknown:
            raise ConfigError(f"config keys {[prefix + k for k in unknown]}: unknown entries")
        out = {k: _cast_leaf(prefix + k, leaves[k], x) for k, x in v.items()}
        for k, leaf in leaves.items():
            if k in out or leaf.default is None:
                continue
            if leaf.default is _REQUIRED:
                raise ConfigError(f"config key '{prefix}{k}': {k} required")
            out[k] = _cast_leaf(prefix + k, leaf, leaf.default)  # cast copies a list
        return out
    return cast


_SYNTHETIC_LEAVES = {
    "r_eff": _Leaf(_cast_float, _REQUIRED, low=0.0),
    "alpha": _Leaf(_cast_float, low=0.0),
    "noise": _Leaf(_cast_str, "gaussian", choices=("gaussian", "counts")),
    "orders": _Leaf(_cast_list(_cast_int, "integers"), [0, 1, 2, 3, 4]),
    "rel_sigma": _Leaf(_cast_float, _default(fit_mod.synthesize_gaussian, "rel_sigma"), low=0.0),
    "shots": _Leaf(_cast_int, _default(fit_mod.synthesize_counts, "shots"), low=fit_mod.MIN_SHOTS),
}
_ENTRY_LEAVES = {"path": _Leaf(_cast_str, _REQUIRED),
                 "alpha": _Leaf(_cast_float, _REQUIRED, low=0.0)}
_cast_entries = _cast_list(_cast_object(_ENTRY_LEAVES), "objects", nonempty=True)
_cast_constants = _cast_object(dict.fromkeys(vars(model.ElectronConstants()), _Leaf(_cast_float)))

_LEAVES = {
    "mode": _Leaf(_cast_str, _REQUIRED, flag=False, choices=MODES),
    "wavelength_m": _Leaf(_cast_float),
    "field_V_per_m": _Leaf(_cast_float, low=0.0),
    "time_s": _Leaf(_cast_float, low=0.0),
    "u0": _Leaf(_cast_float),
    "tau": _Leaf(_cast_float),
    "alpha": _Leaf(_cast_float),
    "recoil_energy_J": _Leaf(_cast_float, low=0.0),
    "v0_V": _Leaf(_cast_float, low=0.0),
    "d_tilde": _Leaf(_cast_float),
    "q_tilde": _Leaf(_cast_float),
    "higher": _Leaf(_cast_float_list),
    "n_points": _Leaf(_cast_int, tdse.Grid1D.n_points),
    "n_periods": _Leaf(_cast_int, tdse.Grid1D.n_periods),
    "d_tau": _Leaf(_cast_float),
    "max_step_phase": _Leaf(_cast_float, _default(tdse.plan_run, "max_step_phase")),
    "include_kinetic": _Leaf(_cast_bool, _default(tdse.plan_run, "include_kinetic")),
    "envelope": _Leaf(_cast_str, _default(tdse.plan_run, "envelope"), choices=tdse.ENVELOPES),
    "ramp_fraction": _Leaf(_cast_float, _default(tdse.plan_run, "ramp_fraction")),
    "init_state": _Leaf(_cast_str, "plane", choices=("plane", "gaussian")),
    "order_offset": _Leaf(_cast_int, _default(tdse.init_plane_wave, "order_offset")),
    "gauss_center": _Leaf(_cast_float),
    "gauss_sigma": _Leaf(_cast_float),
    "gauss_k0": _Leaf(_cast_float, _default(tdse.init_gaussian, "k0")),
    "snapshot_every": _Leaf(_cast_int, _default(tdse.plan_run, "snapshot_every")),
    "snapshot_prefix": _Leaf(_cast_str, "snapshot"),
    "data": _Leaf(_cast_str),
    "datasets": _Leaf(_cast_object({"entries": _Leaf(_cast_entries, _REQUIRED)}), flag=False),
    "synthetic": _Leaf(_cast_object(_SYNTHETIC_LEAVES), flag=False),
    "bounds": _Leaf(_cast_float_list, _default(fit_mod.joint_fit, "bounds")),
    "delta_chi2": _Leaf(_cast_float, _default(fit_mod.joint_fit, "delta_chi2")),
    "n_grid": _Leaf(_cast_int, _default(fit_mod.joint_fit, "n_grid"), low=fit_mod.MIN_GRID),
    "region_samples": _Leaf(_cast_int, _default(fit_mod.moment_region, "n_samples"),
                            low=fit_mod.MIN_REGION_SAMPLES),
    "region_out": _Leaf(_cast_str),
    "d_range": _Leaf(_cast_float_list),
    "q_range": _Leaf(_cast_float_list),
    "order_cutoff": _Leaf(_cast_int, low=0),
    "out": _Leaf(_cast_str),
    "format": _Leaf(_cast_str, "json", choices=("csv", "json", "svg")),
    "seed": _Leaf(_cast_int, low=0),  # numpy's seeds are non-negative
    "constants": _Leaf(_cast_str),
}

_cast_config = _cast_object(_LEAVES)


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-").lower()


def _build_parser() -> argparse.ArgumentParser:
    """Every leaf with a flag, once; MODE last so flags lead the setup echo."""
    parser = argparse.ArgumentParser(
        prog="kdsim", description="standing-wave diffraction of a structured charge")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", metavar="PATH", help="config document (JSON)")
    for key, leaf in _LEAVES.items():
        if leaf.flag:
            parser.add_argument(_flag_name(key), dest=key, metavar="V", help=argparse.SUPPRESS)
    parser.add_argument("mode", metavar="MODE", choices=MODES,
                        help="; ".join(f"{m}: {h}" for m, h in MODES.items()))
    return parser


_PARSER = _build_parser()
_PHYSICAL_KEYS = ("wavelength_m", "field_V_per_m", "time_s")
_DIMLESS_KEYS = ("u0", "tau", "alpha")


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
    kw = _cast_constants("constants", raw)
    try:
        return model.ElectronConstants(**kw)
    except ValueError as exc:
        raise _leading_key_error(exc, "constants.") from exc


def _resolve_setup(cfg: dict, consts: model.ElectronConstants) -> model.DimensionlessSetup:
    physical = [k for k in _PHYSICAL_KEYS if k in cfg]
    dimless = [k for k in _DIMLESS_KEYS if k in cfg]
    if physical and dimless:
        raise ConfigError(
            f"config keys {physical + dimless}: give either laboratory or "
            "dimensionless parameters, not both")
    if physical and "wavelength_m" not in cfg:
        raise ConfigError("config key 'wavelength_m': required with laboratory inputs")
    if not physical and not dimless:
        raise ConfigError(
            "config key 'alpha': either dimensionless (u0/tau/alpha) or "
            "laboratory (wavelength_m/...) parameters are required")
    try:
        if physical:
            laser = model.LaserSetup(
                wavelength_m=cfg["wavelength_m"],
                field_amplitude_V_per_m=cfg.get("field_V_per_m", 0.0))
            return model.derive_scales(laser, cfg.get("time_s", 0.0), consts)
        names = (f.name for f in dataclasses.fields(model.DimensionlessSetup))
        return model.DimensionlessSetup(**{k: cfg[k] for k in names if k in cfg})
    except ValueError as exc:
        raise _leading_key_error(exc) from exc


def _leading_key_error(exc: ValueError, prefix: str = "") -> ConfigError:
    """ConfigError for a library message that leads with the field at fault."""
    return ConfigError(f"config key '{prefix}{str(exc).split()[0]}': {exc}")


def _initial_state(val: dict, grid: tdse.Grid1D) -> tdse.WaveState:
    """tdse start state on the configured grid; its errors name their key."""
    gaussian = val["init_state"] == "gaussian"
    try:
        if not gaussian:
            return tdse.init_plane_wave(grid, val["order_offset"])
        center = grid.box_length / 2.0 if val["gauss_center"] is None else val["gauss_center"]
        sigma = grid.box_length / 8.0 if val["gauss_sigma"] is None else val["gauss_sigma"]
        return tdse.init_gaussian(grid, center, sigma, val["gauss_k0"])
    except ValueError as exc:  # led by order_offset, or by gaussian center, sigma or k0
        raise _leading_key_error(exc, "gauss_" if gaussian else "") from exc


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
    merged = {**raw, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    if "constants" not in merged and ENV_CONSTANTS in os.environ:
        merged["constants"] = os.environ[ENV_CONSTANTS]  # so the echo records it

    # cfg holds the keys given and the defaulted ones; val every leaf
    cfg = _cast_config("", merged)
    val = {**dict.fromkeys(_LEAVES), **cfg}
    mode = val["mode"]

    consts = _load_constants(val["constants"])
    setup = _resolve_setup(cfg, consts)
    moments = model.MomentSet.from_dipole_quadrupole(
        **{k: cfg[k] for k in ("d_tilde", "q_tilde", "higher") if k in cfg})

    try:
        grid = tdse.Grid1D(n_points=val["n_points"], n_periods=val["n_periods"])
    except ValueError as exc:
        raise _leading_key_error(exc) from exc

    if val["format"] == "svg" and mode not in ("analytic", "tdse"):
        raise ConfigError(f"config key 'format': svg output is only defined for patterns "
                          f"(analytic, tdse), not {mode} mode")
    if val["format"] == "csv" and mode == "validate":
        raise ConfigError("config key 'format': payload kind 'regime' has no CSV form; use json")
    if len(val["bounds"]) != 2 or not 0.0 <= val["bounds"][0] < val["bounds"][1]:
        raise ConfigError("config key 'bounds': expected [r_min, r_max], 0 <= r_min < r_max")
    if not val["delta_chi2"] > 0.0:
        raise ConfigError(f"config key 'delta_chi2': must be > 0, got {val['delta_chi2']!r}")
    synthetic = val["synthetic"]
    if synthetic is not None and (len(set(synthetic["orders"]))
                                  < max(fit_mod.MIN_ORDERS, len(synthetic["orders"]))):
        raise ConfigError(f"config key 'synthetic.orders': need at least {fit_mod.MIN_ORDERS} "
                          f"distinct orders, none repeated, got {synthetic['orders']}")

    plan = datasets = None
    if mode == "tdse":
        state = _initial_state(val, grid)
        try:
            plan = tdse.plan_run(state, model.build_potential(moments), setup,
                                 **{k: val[k] for k in _PLAN_KEYS})
        except ValueError as exc:
            raise _leading_key_error(exc) from exc
    if mode == "fit":
        sources = [s for s in ("data", "datasets", "synthetic") if val[s] is not None]
        if len(sources) != 1:
            raise ConfigError(
                "config key 'data': fit mode needs exactly one of data, datasets "
                f"or synthetic, got {sources or 'none'}")
        if synthetic is not None and val["seed"] is None:
            raise ConfigError("config key 'seed': required when synthesizing noisy data")
        # every source as one dataset list: entries, a CSV file, or a synthetic draw
        if val["datasets"] is not None:
            datasets = val["datasets"]["entries"]
        elif val["data"] is not None:
            datasets = [{"path": val["data"], "alpha": setup.alpha}]
        else:  # a new dict, so the echo keeps synthetic as given
            datasets = [{**synthetic, "alpha": synthetic.get("alpha", setup.alpha)}]
    if mode == "scan":
        if "higher" in cfg:  # the scan maps the band radius of d~ and q~ alone
            raise ConfigError("config key 'higher': scan mode takes d_tilde and q_tilde only; "
                              "run analytic mode for octupole and higher moments")
        for key in ("d_range", "q_range"):
            rng = val[key]
            if rng is None or len(rng) != 3:
                raise ConfigError(f"config key '{key}': expected [lo, hi, n]")
            if int(rng[2]) != rng[2] or rng[2] < 1:
                raise ConfigError(f"config key '{key}': n must be a positive integer")
            if not rng[0] <= rng[1]:
                raise ConfigError(f"config key '{key}': lo must be <= hi, both finite")

    echo = {k: val[k] for k in merged if k not in _PHYSICAL_KEYS}
    ideal = math.isinf(setup.u0)  # the ideal limit is echoed by alpha alone
    for k, v in vars(setup).items():
        if v is None or (ideal and k in ("u0", "tau")):
            echo.pop(k, None)
        else:
            echo[k] = v

    val.update(setup=setup, consts=consts, moments=moments, grid=grid, plan=plan,
               datasets=datasets, bounds=tuple(val["bounds"]), fmt=val["format"], echo=echo)
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
        "contours": [  # columns formatted once for the JSON and the region CSV
            {"label": label, "d_tilde": FloatColumn(arr[:, 0].tolist()),
             "q_tilde": FloatColumn(arr[:, 1].tolist())}
            for label, arr in region.contours
        ],
    }


def _fit_payload(result: fit_mod.FitResult, region: fit_mod.MomentRegion) -> dict:
    return {"kind": "fit", **vars(result), "region": _region_payload(region)}


_OBS_COLUMNS = (("order", int), ("probability", float), ("sigma", float))


def read_observed_csv(path: str, alpha: float) -> fit_mod.ObservedPattern:
    """Load an observation from CSV columns order, probability, sigma (after an optional
    header row naming them), dropping a byte-order mark; a non-empty cell past the third
    is an error.  Each error names the file, and a bad cell or row its line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig: drop a byte-order mark
            rows = [(i, row) for i, row in enumerate(_csvmod.reader(fh), 1)
                    if "".join(row).strip()]
        try:
            float(rows[0][1][0])
        except (IndexError, ValueError):  # no rows, or a header: its order cell is not a number
            if rows:   # empty cells past the third are allowed, as in a data row
                line, header = rows[0]
                if ([c.strip() for c in header[:3]] != [name for name, _ in _OBS_COLUMNS]
                        or any(c.strip() for c in header[3:])):
                    raise ValueError(f"line {line}: header must read order,probability,sigma, "
                                     f"got {','.join(header)!r}") from None
            rows = rows[1:]
        columns = [], [], []
        for line, row in rows:
            for (name, cast), text, column in zip(_OBS_COLUMNS, row, columns):
                try:
                    column.append(cast(text))
                except ValueError:
                    raise ValueError(f"line {line}: bad {name} {text!r}") from None
            if len(row) < 3:
                raise ValueError(f"line {line}: need order,probability,sigma")
            if any(c.strip() for c in row[3:]):   # empty cells past the third are allowed
                raise ValueError(f"line {line}: more than three cells in order,probability,sigma")
        return fit_mod.ObservedPattern(*columns, alpha=alpha)  # it casts each column to a tuple
    except OSError as exc:
        raise ValueError(f"cannot read observation file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _snapshot_texts(state: tdse.WaveState) -> tuple[list[str], list[str]]:
    """Texts of a snapshot's densities: |psi|^2 by x, and |spectrum|^2 / its sum by k.

    A spectrum in one Bloch sector s (the bins a*f + s, f = gcd(n_points,
    n_periods)) makes psi a phase times (1/f) ifft(spectrum[s::f]) repeated f
    times, so |psi|^2 is formatted over that cell and its texts written f
    times; its momentum density is exactly 0 off the sector, whose bins keep
    their residue s modulo f in k order, so only those are formatted.  Any
    other state is formatted over the whole box.
    """
    grid = state.grid
    fold = math.gcd(grid.n_points, grid.n_periods)
    power = np.abs(state.spectrum) ** 2
    spec = np.fft.fftshift(power)
    spec = spec / spec.sum()
    sectors = np.flatnonzero(power.reshape(-1, fold).sum(axis=0))
    if sectors.size != 1:
        return float_texts((np.abs(state.psi) ** 2).tolist()), float_texts(spec.tolist())
    s = sectors[0]
    cell = np.abs(np.fft.ifft(state.spectrum[s::fold])) ** 2 / fold ** 2
    momentum = [float_text(0.0)] * grid.n_points
    momentum[s::fold] = float_texts(spec[s::fold].tolist())
    return float_texts(cell.tolist()) * fold, momentum


def _snapshot_writer(prefix: str, grid: tdse.Grid1D):
    """tdse.run's snapshot callback: position and momentum densities as CSV files.

    The x and k axes are the same in every snapshot of a run, so their texts
    are formatted once per writer, at the first snapshot; the densities'
    texts come from _snapshot_texts.
    """
    axes = (("position", "x", FloatColumn(grid.positions().tolist())),
            ("momentum", "k", FloatColumn(np.fft.fftshift(grid.wavenumbers()).tolist())))

    def write(step: int, _tau: float, state: tdse.WaveState) -> None:
        for (name, axis, coords), texts in zip(axes, _snapshot_texts(state)):
            with open(f"{prefix}_{step:06d}_{name}.csv", "w", encoding="utf-8") as fh:
                fh.write(csv_table(f"{axis},density", coords.texts, texts))

    return write


def _run_tdse(config: RunConfig) -> dict:
    writer = (_snapshot_writer(config.snapshot_prefix, config.grid)
              if config.snapshot_every else None)
    pattern = tdse.order_probabilities(tdse.run(config.plan, writer), max_order=config.order_cutoff)
    payload = _pattern_payload(pattern, alpha=config.setup.alpha)
    if config.plan.route == "exact":
        payload["generator"] = "tdse_exact"
    return payload


def _observation(entry: dict, seed: int | None) -> fit_mod.ObservedPattern:
    """One fit dataset: a CSV file read at its alpha, or a synthetic draw seeded by seed."""
    if "path" in entry:
        return read_observed_csv(entry["path"], entry["alpha"])
    args = entry["alpha"], entry["r_eff"], entry["orders"], seed
    if entry["noise"] == "gaussian":
        return fit_mod.synthesize_gaussian(*args, rel_sigma=entry["rel_sigma"])
    return fit_mod.synthesize_counts(*args, shots=entry["shots"])


def _run_fit(config: RunConfig) -> dict:
    result = fit_mod.joint_fit([_observation(e, config.seed) for e in config.datasets],
                               bounds=config.bounds, delta_chi2=config.delta_chi2,
                               n_grid=config.n_grid)
    return _fit_payload(result, fit_mod.moment_region(result, config.region_samples))


def _run_scan(config: RunConfig) -> dict:
    d_axis, q_axis = (np.linspace(lo, hi, int(n)).tolist()
                      for lo, hi, n in (config.d_range, config.q_range))
    ds = RepeatedColumn(d_axis, each=len(q_axis))   # d~ major, q~ minor
    qs = RepeatedColumn(q_axis, times=len(d_axis))
    rs = list(map(fit_mod.band_radius, ds, qs))
    alpha = config.setup.alpha
    p0s = analytic.model_probabilities(alpha, np.array(rs), [0])[:, 0].tolist()
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


def main(argv: list[str] | None = None) -> int:
    overrides = vars(_PARSER.parse_args(argv))  # the leaf flags, then mode
    path = overrides.pop("config")
    try:
        text = "{}"
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
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

"""Reference checks for every job's output, run outside the timed region.

Each check recomputes the answer by a route that is independent of the one
kdsim served it from:

* analytic -- the FFT of the phase mask (``analytic.grating_oracle``), fed
  with grating coefficients this file collapses from the moments itself;
* scan     -- r_eff from the band formula and p0 from ``scipy.special.jv``;
* fit      -- chi-square re-evaluated with ``scipy.special.jv``: r_hat must
  be its minimum over the scan bounds, each free interval end must sit on the
  delta-chi-square threshold, and every region point must satisfy the band
  inequality;
* tdse     -- total probability and snapshot norms (unitarity); plane-wave
  rectangular pulses also against an exact propagator in the order basis,
  where the Hamiltonian is tridiagonal;
* validate -- u0 and the explorable length from the laboratory inputs.

check_job returns None when the job is correct and a one-line reason if not.
"""
from __future__ import annotations

import csv
import glob
import json
import math
import os

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import jv

from kdsim import analytic, model
from workloads import SIGMA_FLOOR

PATTERN_TOL = 1e-10      # analytic routes agree with the FFT oracle to this
SCAN_TOL = 1e-12
CHI2_REL_TOL = 1e-9
STRANG_TOL = 1e-4        # split-step error at 0.05 rad per step is < 1e-5 on these jobs
NORM_TOL = 1e-9          # kdsim's own unitarity bound
BAND_SLACK = 1e-12

# CODATA 2018, as the laboratory inputs are defined
E_CHARGE = 1.602176634e-19
M_ELECTRON = 9.1093837015e-31
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_rows(path, header):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and ",".join(rows[0]) == header, f"{path}: header is not {header!r}")
    return np.array(rows[1:], dtype=float).reshape(len(rows) - 1, header.count(",") + 1)


def grating_coefficients(d_tilde, q_tilde, higher=()):
    """(a_c, a_s) of the single harmonic the multipole series collapses to."""
    moments = (1.0, d_tilde, q_tilde, *higher)
    a_c = sum((-1) ** (m // 2) * q * 2.0**m / math.factorial(m)
              for m, q in enumerate(moments) if m % 2 == 0)
    a_s = sum((-1) ** ((m + 1) // 2) * q * 2.0**m / math.factorial(m)
              for m, q in enumerate(moments) if m % 2 == 1)
    return a_c, a_s


def _pattern_output(path, fmt):
    """(orders, probabilities) from a pattern written as json or csv."""
    if fmt == "json":
        payload = _read_json(path)["payload"]
        _require(payload["kind"] == "pattern", "payload is not a pattern")
        return np.array(payload["orders"]), np.array(payload["probabilities"])
    table = _read_rows(path, "order,probability")
    return table[:, 0].astype(int), table[:, 1]


def _check_svg(path, orders, probs):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    heights = [float(part.split('"')[0]) for part in text.split('height="')[2:]]
    _require(len(heights) == len(orders), "svg bar count differs from the order count")
    ref = 328.0 * probs / max(probs.max(), 1e-12)   # plot height of the bar chart
    _require(np.max(np.abs(np.array(heights) - ref)) <= 0.0051, "svg bar heights wrong")


def check_analytic(job):
    cfg = job["check"]["config"]
    a_c, a_s = grating_coefficients(cfg["d_tilde"], cfg["q_tilde"], cfg.get("higher", ()))
    alpha = cfg["alpha"]
    cut = int(math.ceil(alpha * math.hypot(a_c, a_s))) + 30
    oracle = analytic.grating_oracle(model.PotentialSpec(1.0, a_c, a_s), alpha,
                                     order_cutoff=cut)
    ref = np.array([oracle.probabilities[p] for p in range(-cut, cut + 1)])
    out = job["outputs"][0]
    if cfg["format"] == "svg":
        return _check_svg(out, range(-cut, cut + 1), ref)
    orders, probs = _pattern_output(out, cfg["format"])
    _require(list(orders) == list(range(-cut, cut + 1)), "orders differ from the oracle's")
    err = float(np.max(np.abs(probs - ref)))
    _require(err <= PATTERN_TOL, f"pattern differs from the FFT oracle by {err:.2e}")


def check_scan(job):
    cfg = job["check"]["config"]
    table = _read_rows(job["outputs"][0], "d_tilde,q_tilde,r_eff,p0")
    d = np.linspace(*cfg["d_range"][:2], cfg["d_range"][2])
    q = np.linspace(*cfg["q_range"][:2], cfg["q_range"][2])
    dd, qq = (g.ravel() for g in np.meshgrid(d, q, indexing="ij"))
    _require(table.shape[0] == dd.size, "scan row count differs from the grid")
    _require(np.array_equal(table[:, 0], dd) and np.array_equal(table[:, 1], qq),
             "scan grid points differ from linspace")
    r = np.hypot(1.0 - 2.0 * qq, 2.0 * dd)
    _require(np.allclose(table[:, 2], r, rtol=1e-14, atol=1e-15), "scan r_eff wrong")
    err = float(np.max(np.abs(table[:, 3] - jv(0, cfg["alpha"] * r) ** 2)))
    _require(err <= SCAN_TOL, f"scan p0 differs from scipy by {err:.2e}")


def _synthetic_observation(check):
    """Replay kdsim's documented noise draw with scipy model values."""
    syn, alpha = check["synthetic"], check["alpha"]
    gen = np.random.default_rng(check["seed"])
    orders = np.array(syn["orders"])
    x = alpha * syn["r_eff"]
    if syn["noise"] == "gaussian":
        model = jv(np.abs(orders), x) ** 2
        sig = np.maximum(syn["rel_sigma"] * model, SIGMA_FLOOR)
        values = np.clip(model + gen.normal(size=len(orders)) * sig, 0.0, 1.0)
    else:
        shots = syn["shots"]
        cut = int(math.ceil(abs(x))) + 30
        probs = jv(np.abs(np.arange(-cut, cut + 1)), x) ** 2
        pvec = np.append(probs, max(0.0, 1.0 - probs.sum()))
        counts = gen.multinomial(shots, pvec / pvec.sum())
        values = counts[orders + cut] / shots
        sig = np.maximum(np.sqrt(np.clip(values * (1.0 - values), 0.0, None) / shots),
                         SIGMA_FLOOR)
    return [{"orders": orders, "values": values, "sigmas": sig, "alpha": alpha}]


def check_fit(job):
    check = job["check"]
    observations = check.get("observations") or _synthetic_observation(check)

    def chi2(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))[:, None]
        total = np.zeros(r.shape[0])
        for obs in observations:
            orders = np.abs(np.asarray(obs["orders"]))[None, :]
            model = jv(orders, obs["alpha"] * r) ** 2
            total += np.sum(((np.asarray(obs["values"]) - model)
                             / np.asarray(obs["sigmas"])) ** 2, axis=1)
        return total

    def close(a, b):
        return np.all(np.abs(a - b) <= CHI2_REL_TOL * np.maximum(1.0, np.abs(b)))

    p = _read_json(job["outputs"][0])["payload"]
    _require(p["kind"] == "fit", "payload is not a fit")
    _require(close(np.array(p["scan_chi2"]), chi2(p["scan_r"])),
             "scanned chi-square differs from scipy")
    r_hat, chi_min = p["r_eff_hat"], p["chi2_min"]
    lo, hi = check["bounds"]
    _require(close(chi2(r_hat)[0], chi_min), "chi2_min is not chi-square at r_hat")
    dense = chi2(np.linspace(lo, hi, 1001))
    _require(chi_min <= dense.min() * (1.0 + CHI2_REL_TOL) + CHI2_REL_TOL,
             "r_hat is not the chi-square minimum over the bounds")
    near = [r for r in (r_hat - 1e-6, r_hat + 1e-6) if lo <= r <= hi]
    _require(np.all(chi2(near) >= chi_min - CHI2_REL_TOL * max(1.0, chi_min)),
             "r_hat is not a local chi-square minimum")
    threshold = chi_min + check["delta_chi2"]
    ci = p["ci"]
    _require(ci[0] <= r_hat <= ci[1], "interval does not contain r_hat")
    for end, clipped in zip(ci, p["ci_at_bounds"]):
        if clipped:
            _require(end in (lo, hi), "clipped interval end is not a bound")
            continue
        h = 1e-9 * max(1.0, abs(end))
        below, above = chi2([end - h, end + h]) - threshold
        _require(below * above <= 0.0, f"interval end {end!r} is off the threshold")

    band = _read_rows(job["outputs"][1], "d_tilde,q_tilde")
    _require(p["region"]["r_band"] == ci, "region band differs from the interval")
    r = np.hypot(1.0 - 2.0 * band[:, 1], 2.0 * band[:, 0])
    _require(np.all((band >= 0.0) & (band < 1.0)), "region point outside the unit square")
    _require(np.all((r >= ci[0] - BAND_SLACK) & (r <= ci[1] + BAND_SLACK)),
             "region point outside the r_eff band")


def exact_plane_wave(cfg, n_orders):
    """Order probabilities of a plane wave under a rectangular pulse, exactly.

    In the order basis the potential couples p only to p +- 1, so H is
    tridiagonal: diagonal (k0 + 2p)^2 + u0/2 (the offset), coupling
    u0 |a_c - i a_s| / 4 (its phase is a gauge and drops out of |psi_p|^2).
    """
    a_c, a_s = grating_coefficients(cfg["d_tilde"], cfg["q_tilde"])
    u0, alpha = cfg["u0"], cfg["alpha"]
    k0 = 2.0 * cfg.get("order_offset", 0)
    span = n_orders + int(math.ceil(alpha * math.hypot(a_c, a_s))) + 40
    p = np.arange(-span, span + 1)
    w, v = eigh_tridiagonal((k0 + 2.0 * p) ** 2 + 0.5 * u0,
                            np.full(2 * span, 0.25 * u0 * math.hypot(a_c, a_s)))
    psi = v @ (np.exp(-1j * w * (2.0 * alpha / u0)) * v[span])
    return dict(zip(p.tolist(), (np.abs(psi) ** 2).tolist()))


def check_tdse(job):
    cfg = job["check"]["config"]
    orders, probs = _pattern_output(job["outputs"][0], cfg["format"])
    total = float(probs.sum())
    _require(abs(total - 1.0) <= NORM_TOL, f"total probability {total!r} is not 1")
    if cfg["init_state"] == "plane" and cfg["envelope"] == "rectangular":
        ref = exact_plane_wave(cfg, int(np.max(np.abs(orders))))
        err = max(abs(pr - ref[int(o)]) for o, pr in zip(orders, probs))
        _require(err <= STRANG_TOL, f"pattern differs from the exact propagator by {err:.2e}")
    if "snapshot_every" in cfg:
        box = 8 * math.pi   # default n_periods
        positions = sorted(glob.glob(cfg["snapshot_prefix"] + "_*_position.csv"))
        _require(positions, "no snapshots written")
        for path in positions:
            step = int(path[len(cfg["snapshot_prefix"]) + 1:].split("_")[0])
            _require(step % cfg["snapshot_every"] == 0, f"snapshot at step {step}")
            dens = _read_rows(path, "x,density")[:, 1]
            norm = dens.sum() * box / dens.size
            spec = _read_rows(path.replace("_position", "_momentum"), "k,density")[:, 1]
            _require(abs(norm - 1.0) <= NORM_TOL and abs(spec.sum() - 1.0) <= NORM_TOL,
                     f"snapshot {step} is not normalized")


def check_validate(job):
    cfg = job["check"]["config"]
    reg = _read_json(job["outputs"][0])["payload"]
    _require(reg["kind"] == "regime", "payload is not a regime report")
    k_l = 2.0 * math.pi / cfg["wavelength_m"]
    omega = k_l * C_LIGHT
    v0 = E_CHARGE * cfg["field_V_per_m"] ** 2 / (4.0 * M_ELECTRON * omega**2)
    recoil = HBAR**2 * k_l**2 / (2.0 * M_ELECTRON)
    u0 = E_CHARGE * v0 / recoil
    _require(math.isclose(reg["raman_nath_ratio"], u0, rel_tol=1e-12), "u0 wrong")
    _require(reg["raman_nath_ok"] == (u0 >= 100.0), "raman_nath_ok wrong")
    _require(math.isclose(reg["explorable_length_m"], cfg["wavelength_m"], rel_tol=1e-12),
             "explorable length is not the wavelength")
    _require(math.isclose(reg["recoil_energy_J"], recoil, rel_tol=1e-12), "recoil wrong")


_CHECKS = {"analytic": check_analytic, "scan": check_scan, "fit": check_fit,
           "tdse": check_tdse, "validate": check_validate}


def check_job(job):
    """None if the job's outputs are right, else the reason they are not."""
    missing = [p for p in job["outputs"] if not os.path.exists(p)]
    if missing:
        return f"missing output {missing[0]}"
    try:
        _CHECKS[job["mode"]](job)
    except (CheckFailed, OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None

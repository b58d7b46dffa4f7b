"""Seeded job sets for the three benchmark workloads.

A workload is a list of slots: job kinds with fixed parameter ranges.  A job
set holds `rounds` jobs of every slot.  Across the rounds of one slot each
range is stratified (Latin hypercube): the seed draws one value from each of
`rounds` equal strata and pairs them at random.  So the set's total cost and
its latency percentiles hardly depend on the seed, while every job is
distinct and the seed changes all of them.

A job is a plain dict:
  id, mode   -- unique name and CLI mode
  argv       -- arguments for kdsim.cli.main
  files      -- {path: text} written before the job is timed
  outputs    -- paths the job must write
  check      -- what the reference check needs (see checks.py)
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("fit_campaign", "propagation", "pattern_scan")

SIGMA_FLOOR = 1e-4   # the absolute sigma floor kdsim documents for noisy data


def _strata(rng, n, lo, hi):
    """n values, one in each of n equal strata of [lo, hi], in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def bessel_sq(orders, x):
    """J_|p|(x)^2 from the DFT of exp(i x sin t); numpy only, for input data."""
    n = 512
    coeffs = np.fft.fft(np.exp(1j * x * np.sin(2.0 * np.pi * np.arange(n) / n))) / n
    return np.abs(coeffs[np.abs(np.asarray(orders))]) ** 2


def _csv_observation(rng, orders, alpha, r_eff, noise):
    """Order, probability, sigma rows of a benchmark-made observation."""
    model = bessel_sq(orders, alpha * r_eff)
    if noise == "gaussian":
        sig = np.maximum(rng.uniform(0.005, 0.03) * model, SIGMA_FLOOR)
        values = np.clip(model + rng.normal(size=len(orders)) * sig, 0.0, 1.0)
    else:
        shots = int(rng.integers(10_000, 1_000_000))
        values = rng.binomial(shots, np.clip(model, 0.0, 1.0)) / shots
        sig = np.maximum(np.sqrt(values * (1.0 - values) / shots), SIGMA_FLOOR)
    rows = ["order,probability,sigma"]
    rows += [f"{p},{v!r},{s!r}" for p, v, s in zip(orders, values.tolist(), sig.tolist())]
    obs = {"orders": list(orders), "values": values.tolist(), "sigmas": sig.tolist(),
           "alpha": alpha}
    return "\n".join(rows) + "\n", obs


def _config_job(job_id, mode, config, workdir, check, outputs, files=None):
    path = os.path.join(workdir, f"{job_id}.cfg.json")
    files = dict(files or {})
    files[path] = json.dumps(config)
    return {"id": job_id, "mode": mode, "argv": [mode, "--config", path],
            "files": files, "outputs": outputs, "check": check}


# data source, noise, number of datasets.  Two of the twelve slots are 3-dataset
# fits, the costliest jobs, so p90 falls inside their group and not on the
# step between 2- and 3-dataset fits.
_FIT_SLOTS = (("synthetic", "gaussian", 1),) * 4 + (("synthetic", "counts", 1),) * 3 + (
    ("data", "gaussian", 1), ("data", "counts", 1), ("datasets", "", 2),
    ("datasets", "", 3), ("datasets", "", 3))


def _fit_jobs(rng, rounds, workdir):
    jobs = []
    for slot, (source, noise, n_sets) in enumerate(_FIT_SLOTS):
        alphas = _strata(rng, rounds, 0.5, 6.0)
        r_effs = _strata(rng, rounds, 0.2, 1.8)
        n_orders = np.floor(_strata(rng, rounds, 5, 16)).astype(int)
        # the scan resolution spreads the cost within each group of fits
        n_grids = np.floor(_strata(rng, rounds, 201, 301)).astype(int)
        for k in range(rounds):
            job_id = f"r{k:03d}s{slot:02d}"
            out = os.path.join(workdir, f"{job_id}.json")
            region = os.path.join(workdir, f"{job_id}.region.csv")
            alpha, r_eff = float(alphas[k]), float(r_effs[k])
            start = 0 if slot % 2 else -(n_orders[k] // 2)
            orders = list(range(int(start), int(start + n_orders[k])))
            config = {"mode": "fit", "alpha": alpha, "n_grid": int(n_grids[k]),
                      "delta_chi2": 4.0 if slot in (3, 6) else 1.0,
                      "out": out, "region_out": region}
            files = {}
            check = {"n_grid": config["n_grid"], "n_sets": n_sets, "bounds": [0.0, 2.0],
                     "delta_chi2": config["delta_chi2"]}
            if source == "synthetic":
                syn = {"r_eff": r_eff, "orders": orders, "noise": noise}
                if noise == "gaussian":
                    syn["rel_sigma"] = float(rng.uniform(0.005, 0.03))
                else:
                    syn["shots"] = int(_log_uniform(rng, 1e4, 1e6))
                config.update(seed=int(rng.integers(2**31)), synthetic=syn)
                check.update(synthetic=syn, seed=config["seed"], alpha=alpha)
            else:
                set_alphas = [alpha] if n_sets == 1 else _strata(rng, n_sets, 0.5, 6.0)
                observations = []
                for i, a in enumerate(set_alphas):
                    text, obs = _csv_observation(
                        rng, orders, float(a), r_eff,
                        noise or ("gaussian", "counts")[i % 2])
                    obs["path"] = os.path.join(workdir, f"{job_id}.data{i}.csv")
                    files[obs["path"]] = text
                    observations.append(obs)
                config["alpha"] = observations[0]["alpha"]
                if source == "data":
                    config["data"] = observations[0]["path"]
                else:
                    config["datasets"] = {"entries": [
                        {"path": o["path"], "alpha": o["alpha"]} for o in observations]}
                check["observations"] = observations
            jobs.append(_config_job(job_id, "fit", config, workdir, check, [out, region],
                                    files))
    return jobs


# init, envelope, u0, n_points, alpha range, format, extra config
_PROPAGATION_SLOTS = (
    ("plane", "rectangular", 100.0, 1024, (0.5, 4.0), "json", {}),
    ("plane", "rectangular", 300.0, 1024, (4.0, 10.0), "csv", {"order_offset": 1}),
    ("plane", "rectangular", 1000.0, 1024, (10.0, 16.0), "json", {"order_cutoff": 40}),
    ("plane", "rectangular", 300.0, 2048, (16.0, 20.0), "json", {}),
    ("plane", "rectangular", 100.0, 4096, (1.0, 4.0), "csv", {}),
    ("plane", "rectangular", 1000.0, 16384, (0.5, 1.5), "json", {"order_cutoff": 30}),
    # alpha >= 1.5 plans >= 36 steps, so every job writes a snapshot
    ("plane", "rectangular", 300.0, 1024, (1.5, 4.0), "json", {"snapshot_every": 20}),
    ("plane", "sin2_ramp", 300.0, 1024, (2.0, 8.0), "json", {}),
    ("plane", "sin2_ramp", 100.0, 2048, (8.0, 14.0), "csv", {"ramp_fraction": 0.3}),
    ("gaussian", "rectangular", 100.0, 2048, (1.0, 5.0), "json", {}),
    ("gaussian", "sin2_ramp", 1000.0, 4096, (1.0, 3.0), "csv", {"gauss_k0": 0.5}),
    ("gaussian", "rectangular", 300.0, 8192, (0.5, 2.0), "json", {"order_cutoff": 40}),
)


def _propagation_jobs(rng, rounds, workdir):
    jobs = []
    for slot, (init, env, u0, n_points, (a_lo, a_hi), fmt, extra) in \
            enumerate(_PROPAGATION_SLOTS):
        alphas = _strata(rng, rounds, a_lo, a_hi)
        ds, qs = _strata(rng, rounds, 0.0, 0.4), _strata(rng, rounds, 0.0, 0.4)
        for k in range(rounds):
            job_id = f"r{k:03d}s{slot:02d}"
            out = os.path.join(workdir, f"{job_id}.{fmt}")
            config = {"mode": "tdse", "u0": u0, "alpha": float(alphas[k]),
                      "d_tilde": float(ds[k]), "q_tilde": float(qs[k]),
                      "n_points": n_points, "init_state": init, "envelope": env,
                      "format": fmt, "out": out, **extra}
            if "snapshot_every" in extra:
                config["snapshot_prefix"] = os.path.join(workdir, f"{job_id}.snap")
            jobs.append(_config_job(job_id, "tdse", config, workdir, {"config": config},
                                    [out]))
    return jobs


def _analytic_argv(config):
    """The same run as flags instead of a config document."""
    argv = ["analytic"]
    for key, value in config.items():
        if key == "mode":
            continue
        flag = "--" + key.replace("_", "-").lower()
        argv += [flag, ",".join(map(repr, value)) if isinstance(value, list) else str(value)]
    return argv


_ANALYTIC_FORMATS = ("json", "json", "json", "csv", "csv", "csv", "svg", "svg")
_SCAN_SIZES = ((21, 35), (35, 48), (48, 62))   # grid side ranges of the scan slots
_VALIDATE_SLOTS = 2


def _pattern_jobs(rng, rounds, workdir):
    jobs = []
    for slot, fmt in enumerate(_ANALYTIC_FORMATS):
        alphas = _strata(rng, rounds, 0.5, 50.0)
        ds, qs = _strata(rng, rounds, 0.0, 0.45), _strata(rng, rounds, 0.0, 0.45)
        for k in range(rounds):
            job_id = f"r{k:03d}s{slot:02d}"
            out = os.path.join(workdir, f"{job_id}.{fmt}")
            config = {"mode": "analytic", "alpha": float(alphas[k]),
                      "d_tilde": float(ds[k]), "q_tilde": float(qs[k]),
                      "format": fmt, "out": out}
            if slot in (2, 5, 7):   # octupole and up: served by the closed-form route
                config["higher"] = sorted(rng.uniform(0.0, 0.2, 1 + slot % 2).tolist(),
                                          reverse=True)
            check = {"config": config}
            if slot % 2:
                jobs.append({"id": job_id, "mode": "analytic",
                             "argv": _analytic_argv(config), "files": {},
                             "outputs": [out], "check": check})
            else:
                jobs.append(_config_job(job_id, "analytic", config, workdir, check, [out]))
    slot = len(_ANALYTIC_FORMATS)
    for lo, hi in _SCAN_SIZES:
        sizes = np.floor(_strata(rng, rounds, lo, hi)).astype(int)
        for k in range(rounds):
            job_id = f"r{k:03d}s{slot:02d}"
            out = os.path.join(workdir, f"{job_id}.csv")
            n_d = int(sizes[k])
            n_q = int(np.clip(n_d + rng.integers(-3, 4), 21, 61))
            # alpha * r_eff <= 50: the range where kdsim's Bessel rows promise 1e-12
            config = {"mode": "scan", "alpha": float(rng.uniform(0.5, 20.0)),
                      "d_range": [0.0, float(rng.uniform(0.2, 0.99)), n_d],
                      "q_range": [0.0, float(rng.uniform(0.2, 0.99)), n_q],
                      "format": "csv", "out": out}
            jobs.append(_config_job(job_id, "scan", config, workdir, {"config": config},
                                    [out]))
        slot += 1
    for _ in range(_VALIDATE_SLOTS):
        for k in range(rounds):
            job_id = f"r{k:03d}s{slot:02d}"
            out = os.path.join(workdir, f"{job_id}.json")
            config = {"mode": "validate",
                      "wavelength_m": _log_uniform(rng, 1e-10, 1e-6),
                      "field_V_per_m": _log_uniform(rng, 1e8, 1e11),
                      "time_s": _log_uniform(rng, 1e-15, 1e-12),
                      "d_tilde": float(rng.uniform(0.0, 0.3)),
                      "q_tilde": float(rng.uniform(0.0, 0.3)), "out": out}
            jobs.append(_config_job(job_id, "validate", config, workdir,
                                    {"config": config}, [out]))
        slot += 1
    return jobs


_BUILDERS = {"fit_campaign": _fit_jobs, "propagation": _propagation_jobs,
             "pattern_scan": _pattern_jobs}


def job_set(workload, seed, rounds, workdir):
    """`rounds` jobs of every slot of the workload, in a seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _BUILDERS[workload](rng, rounds, workdir)
    return [jobs[i] for i in rng.permutation(len(jobs))]


def mix_digest(jobs, workdir):
    """Hash of a job set's commands and inputs: equal seeds, equal job mix."""
    h = hashlib.sha256()
    for job in jobs:
        text = json.dumps([job["argv"], sorted(job["files"].items())])
        h.update(text.replace(str(workdir), "").encode())
    return h.hexdigest()[:16]

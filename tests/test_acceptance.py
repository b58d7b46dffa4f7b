"""Acceptance suite: twelve numbered end-to-end checks with pinned tolerances.

Each test prints one ACCEPTANCE line (also aggregated by conftest.py into
the terminal summary).  Oracle values come from the power-series Bessel
implementation in oracles.py, never from the package under test.
"""
import functools
import json
import math
import time

import numpy as np

from kdsim.analytic import (
    closed_form_pattern, distribution_pattern, grating_oracle, pointlike_pattern,
)
from kdsim.cli import main
from kdsim.fit import (
    ObservedPattern, fit_effective_amplitude, model_probabilities,
    synthesize_gaussian,
)
from kdsim.bessel import bessel_row
from kdsim.model import (
    DimensionlessSetup, LaserSetup, MomentSet, build_potential, check_regime,
    derive_scales,
)
from kdsim.tdse import (
    Grid1D, PropagationConfig, init_plane_wave, order_probabilities,
    plan_propagation, propagate,
)

from oracles import bessel_j, bessel_series, pattern_distance

# grid for the three-route equivalence check
GRID_ALPHAS = (0.5, 2.0, 8.0)
GRID_D = (0.0, 0.3, 0.6)
GRID_Q = (0.0, 0.1, 0.4)

POINTLIKE_SPEC = build_potential(MomentSet())


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=1)
def grid_patterns():
    """All patterns generated for criteria 1-2, reused by criterion 3."""
    patterns = [pointlike_pattern(2.0)]
    for alpha in GRID_ALPHAS:
        for d in GRID_D:
            for q in GRID_Q:
                moments = MomentSet((d, q))
                patterns.append(distribution_pattern(alpha, moments))
                patterns.append(closed_form_pattern(alpha, moments))
                patterns.append(grating_oracle(build_potential(moments), alpha))
    return patterns


def tdse_pattern(u0: float, alpha: float, include_kinetic: bool = True,
                 max_order: int = 32):
    setup = DimensionlessSetup.from_u0_alpha(u0, alpha)
    plan = plan_propagation(setup, POINTLIKE_SPEC, include_kinetic=include_kinetic)
    final = propagate(init_plane_wave(Grid1D()), POINTLIKE_SPEC, setup, plan)
    return order_probabilities(final, max_order=max_order)


def test_01_pointlike_pattern_correctness():
    j0 = float(bessel_series(0, 2.0)) ** 2
    j1 = float(bessel_series(1, 2.0)) ** 2
    start = time.perf_counter()
    pat = pointlike_pattern(2.0)
    errs = [abs(pat.probability(0) - j0),
            abs(pat.probability(1) - j1),
            abs(pat.probability(-1) - j1)]
    elapsed = time.perf_counter() - start
    ok = max(errs) <= 1e-9 and elapsed < 1.0
    report(1, "pointlike pattern correctness", ok,
           f"max err {max(errs):.2e} vs 1e-9, {elapsed:.2f}s vs 1s")


def test_02_three_route_equivalence():
    start = time.perf_counter()
    patterns = grid_patterns()[1:]  # drop the pointlike pattern
    worst = 0.0
    for i in range(0, len(patterns), 3):
        a, b, c = patterns[i:i + 3]
        worst = max(worst, pattern_distance(a, b)[0], pattern_distance(a, c)[0],
                    pattern_distance(b, c)[0])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, "three route equivalence", ok,
           f"27 configs, max_abs {worst:.2e} vs 1e-10, {elapsed:.2f}s vs 5s")


def test_03_unitarity():
    totals = [pat.total() for pat in grid_patterns()]
    lo, hi = min(totals), max(totals)
    ok = lo >= 1.0 - 1e-10 and hi <= 1.0 + 1e-12
    report(3, "unitarity", ok,
           f"{len(totals)} patterns, totals in [{lo:.15f}, {hi:.15f}]")


def test_04_degeneracy():
    structured = distribution_pattern(2.0, MomentSet((0.3, 0.1)))
    pointlike = pointlike_pattern(2.0)
    err = pattern_distance(structured, pointlike)[0]
    ok = err <= 1e-10
    report(4, "degeneracy", ok, f"max_abs {err:.2e} vs 1e-10 at r_eff = 1")


def test_05_phase_grating_limit():
    got = tdse_pattern(1000.0, 2.0, include_kinetic=False)
    err = pattern_distance(got, pointlike_pattern(2.0))[0]
    ok = err <= 1e-10
    report(5, "phase grating limit", ok, f"max_abs {err:.2e} vs 1e-10")


def test_06_raman_nath_convergence():
    start = time.perf_counter()
    reference = pointlike_pattern(2.0)
    err_deep = pattern_distance(tdse_pattern(1000.0, 2.0), reference)[0]
    err_shallow = pattern_distance(tdse_pattern(10.0, 2.0), reference)[0]
    elapsed = time.perf_counter() - start
    ok = err_deep <= 1e-3 and err_shallow > err_deep and elapsed < 30.0
    report(6, "raman nath convergence", ok,
           f"err(u0=1e3) {err_deep:.2e} vs 1e-3, err(u0=10) {err_shallow:.2e}, "
           f"{elapsed:.1f}s vs 30s")


def test_07_strang_order():
    setup = DimensionlessSetup.from_u0_alpha(20.0, 1.0)
    grid = Grid1D()

    def pattern(n_steps):
        config = PropagationConfig(d_tau=setup.tau / n_steps, n_steps=n_steps)
        out = propagate(init_plane_wave(grid), POINTLIKE_SPEC, setup, config)
        return order_probabilities(out, max_order=10)

    reference = pattern(320)
    err_coarse = pattern_distance(pattern(40), reference)[0]
    err_fine = pattern_distance(pattern(80), reference)[0]
    ratio = err_coarse / err_fine
    ok = 3.5 <= ratio <= 4.5
    report(7, "strang order", ok, f"halving ratio {ratio:.3f} vs [3.5, 4.5]")


def test_08_norm_conservation():
    setup = DimensionlessSetup.from_u0_alpha(300.0, 1.5)
    config = PropagationConfig(d_tau=setup.tau / 10000, n_steps=10000)
    out = propagate(init_plane_wave(Grid1D()), POINTLIKE_SPEC, setup, config)
    drift = abs(out.norm - 1.0)
    ok = drift <= 1e-10
    report(8, "norm conservation", ok, f"drift {drift:.2e} over 1e4 steps vs 1e-10")


def test_09_fit_round_trip():
    start = time.perf_counter()
    orders = tuple(range(0, 5))
    worst_clean = 0.0
    for r_true in (0.4, 0.8, 1.1, 1.5):
        for alpha in (1.5, 2.0, 3.0):
            values = model_probabilities(alpha, r_true, orders)
            obs = ObservedPattern(orders=orders, values=tuple(values),
                                  sigmas=(0.01,) * len(orders), alpha=alpha)
            fit = fit_effective_amplitude(obs)
            worst_clean = max(worst_clean, abs(fit.r_eff_hat - r_true))

    rng = np.random.default_rng(20240823)
    hits = 0
    noisy_orders = tuple(range(-4, 5))
    for _ in range(200):
        obs = synthesize_gaussian(2.0, 0.8, noisy_orders, rng)
        fit = fit_effective_amplitude(obs)
        hits += abs(fit.r_eff_hat - 0.8) <= 0.02
    elapsed = time.perf_counter() - start
    ok = worst_clean <= 1e-6 and hits >= 190 and elapsed < 60.0
    report(9, "fit round trip", ok,
           f"noiseless worst {worst_clean:.2e} vs 1e-6, noisy {hits}/200 vs 190, "
           f"{elapsed:.1f}s vs 60s")


def test_10_bessel_oracle():
    worst = 0.0
    for x in (0.5, 1.0, 2.0, 5.0, -7.5, 10.0, 20.0):
        row = bessel_row(40, x).values if x >= 0 else None
        for n in range(41):
            mine = row[n] if row is not None else bessel_j(n, x)
            worst = max(worst, abs(mine - float(bessel_series(n, x))))
    worst_norm = 0.0
    for x in (0.5, 5.0, 20.0):
        row = bessel_row(120, x).values
        residual = abs(row[0] + 2.0 * row[2::2].sum() - 1.0)
        worst_norm = max(worst_norm, residual)
    ok = worst <= 1e-12 and worst_norm <= 1e-10
    report(10, "bessel oracle", ok,
           f"series err {worst:.2e} vs 1e-12, norm residual {worst_norm:.2e} vs 1e-10")


def test_11_regime_report():
    # hand calculation, written out: eps = (hbar * 2 pi / lambda)^2 / (2 m)
    k_l = 2.0 * math.pi / 1e-10
    eps_hand = (1.054571817e-34 * k_l) ** 2 / (2.0 * 9.1093837015e-31)
    setup = derive_scales(LaserSetup(1e-10, 1e10), 1e-15)
    rep = check_regime(setup, MomentSet())
    eps_err = abs(setup.recoil_energy_J - eps_hand) / eps_hand
    len_err = abs(rep.explorable_length_m - 1e-10) / 1e-10
    around = abs(setup.recoil_energy_J - 2.41e-17) / 2.41e-17
    ok = eps_err <= 1e-12 and around <= 0.005 and len_err <= 1e-9
    report(11, "regime report", ok,
           f"eps {setup.recoil_energy_J:.6e} J (vs 2.41e-17 +- 0.5%: {around:.2%}), "
           f"length {rep.explorable_length_m:.3e} m")


def test_12_cli_determinism(tmp_path, capsys, monkeypatch):
    # literally identical configs: relative output paths, separate run dirs
    config = {
        "mode": "fit", "alpha": 2.0, "seed": 7, "out": "fit.json",
        "region_out": "region.csv",
        "synthetic": {"r_eff": 0.8, "orders": [-4, -3, -2, -1, 0, 1, 2, 3, 4]},
    }
    outputs = []
    for run_dir in ("first", "second"):
        base = tmp_path / run_dir
        base.mkdir()
        (base / "config.json").write_text(json.dumps(config))
        monkeypatch.chdir(base)
        code = main(["fit", "--config", "config.json"])
        code2 = main(["analytic", "--alpha", "2.0", "--order-cutoff", "8",
                      "--format", "svg", "--out", "pattern.svg"])
        capsys.readouterr()
        assert code == 0 and code2 == 0
        outputs.append(((base / "fit.json").read_bytes(),
                        (base / "region.csv").read_bytes(),
                        (base / "pattern.svg").read_bytes()))
    same = outputs[0] == outputs[1]
    # the two runs must also have produced nonempty artifacts
    ok = same and all(len(blob) > 0 for blob in outputs[0])
    sizes = ", ".join(str(len(b)) for b in outputs[0])
    report(12, "cli determinism", ok, f"byte-identical artifacts of {sizes} bytes")

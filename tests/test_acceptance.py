"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import dataclasses
import time

import numpy as np
import pytest

import optotriplet as ot
from optotriplet.optimizer import y_opt_analytic
from optotriplet.scenarios import SWEEP_SCENARIOS, sweep_grid_spec
from optotriplet.timedomain import sigma_weights


def verdict(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def random_lossy_asymmetric(rng):
    base = ot.table1_preset()
    g0p = rng.uniform(5e4, 5e5)
    g0m = rng.uniform(5e4, 5e5)
    p = dataclasses.replace(
        base,
        gamma0_plus=g0p,
        gamma0_minus=g0m,
        gamma_e_plus=rng.uniform(0.005, 0.08) * g0p,
        gamma_e_minus=rng.uniform(0.005, 0.08) * g0m,
        eps_plus=rng.uniform(0.6, 1.4),
        eps_minus=rng.uniform(0.6, 1.4),
        p_in=10.0 ** rng.uniform(-7, -4),
    )
    return ot.derive(p)


def blackbox_quadratic_minimizer(c, d):
    s = lambda y: float(ot.s_qu(c, d, y))
    f0 = s(0.0)
    a = 0.5 * (s(1.0) + s(-1.0)) - f0
    du = 0.5 * (s(1.0) - s(-1.0))
    b = 0.5 * (s(1.0j) + s(-1.0j)) - f0
    dv = 0.5 * (s(1.0j) - s(-1.0j))
    cc = s(1.0 + 1.0j) - a - b - du - dv - f0
    u, v = np.linalg.solve([[2.0 * a, cc], [cc, 2.0 * b]], [-du, -dv])
    return complex(u, v)


def test_criterion_1_reduction_identity():
    t0 = time.perf_counter()
    d = ot.derive(ot.variant(ot.table1_preset(), symmetric=True, lossless=True))
    grid = ot.make_grid(d.phys.tau, n=400)
    c = ot.coeffs(d, grid)
    general = np.asarray(ot.s_qu(c, d, -c.y_plus))
    closed = np.asarray(ot.s_qu_sym_lossless(d, grid))
    err = float(np.max(np.abs(general / closed - 1.0)))
    elapsed = time.perf_counter() - t0
    verdict(1, "reduction identity", err <= 1e-10 and elapsed < 1.0,
            f"max rel err {err:.3e} (tol 1e-10), {elapsed:.2f} s (< 1 s)")


def test_criterion_2_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_probe_violation = 0.0
    worst_fit_gap = 0.0
    for _ in range(100):
        d = random_lossy_asymmetric(rng)
        gmax = max(d.gamma_plus, d.gamma_minus)
        freqs = 10.0 ** rng.uniform(0.0, np.log10(10.0 * gmax), size=20)
        for omega in freqs:
            c = ot.coeffs(d, float(omega))
            y_ana = y_opt_analytic(c, d)
            s_min = float(ot.s_qu(c, d, y_ana))
            scale = 1.0 + abs(y_ana)
            probes = y_ana + scale * 10.0 ** rng.uniform(-3, 1, 1000) * np.exp(
                2j * np.pi * rng.uniform(size=1000)
            )
            s_probes = np.asarray(ot.s_qu(c, d, probes))
            worst_probe_violation = max(worst_probe_violation,
                                        float((s_min - s_probes.min()) / s_min))
            s_fit = float(ot.s_qu(c, d, blackbox_quadratic_minimizer(c, d)))
            worst_fit_gap = max(worst_fit_gap, abs(s_fit - s_min) / s_min)
    elapsed = time.perf_counter() - t0
    ok = worst_probe_violation <= 1e-12 and worst_fit_gap <= 1e-9 and elapsed < 10.0
    verdict(2, "analytic optimality", ok,
            f"probe violation {worst_probe_violation:.2e} (tol 1e-12), "
            f"gap to fitted minimizer {worst_fit_gap:.2e} (tol 1e-9), {elapsed:.1f} s (< 10 s)")


def test_criterion_3_balanced_asymmetric_cancellation():
    p = ot.variant(ot.table1_preset(), lossless=True)
    d0 = ot.derive(p)
    eps_bal = float(np.sqrt(d0.gamma_plus / d0.gamma_minus))
    d = ot.derive(dataclasses.replace(p, eps_plus=eps_bal, eps_minus=1.0))
    g0 = complex(ot.coeffs(d, 0.0).g_opt)
    g_term = d.eta_plus**2 * d.c0_sq / d.gamma_plus
    g_rel = abs(g0) / g_term

    gmin = min(d.gamma_plus, d.gamma_minus)
    omega = np.linspace(1e-3 * gmin, 0.0999 * gmin, 200)
    c = ot.coeffs(d, omega)
    s_min = np.asarray(ot.s_qu(c, d, y_opt_analytic(c, d)))
    g_plus = (d.eta_plus**2 / d.gamma_plus + d.eta_minus**2 / d.gamma_minus) * d.c0_sq
    sym_form = (d.gamma_m**2 + omega**2) / (2.0 * g_plus)
    dev = float(np.max(np.abs(s_min / sym_form - 1.0)))
    ok = g_rel < 1e-12 and dev < 0.01
    verdict(3, "asymmetric back-action cancellation", ok,
            f"|G(0)| / coupling term {g_rel:.2e} (machine), "
            f"max dev from symmetric optimum {100 * dev:.3f} % (< 1 %)")


def test_criterion_4_sql_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        gm = 10.0 ** rng.uniform(-4, 2)
        nt = 10.0 ** rng.uniform(-2, 7)
        om = 10.0 ** rng.uniform(-3, 6)
        k_star = float(np.sqrt(gm**2 + om**2))
        achieved = ot.s_fa(k_star, gm, nt, om)
        target = 2.0 * gm * (nt + 0.5) + ot.s_sql(gm, om)
        worst = max(worst, abs(achieved - target) / target)
        for k in (0.37 * k_star, 5.1 * k_star):
            assert ot.s_fa(k, gm, nt, om) >= target * (1.0 - 1e-14)
    elapsed = time.perf_counter() - t0
    verdict(4, "SQL strength optimization identity", worst <= 1e-13 and elapsed < 1.0,
            f"worst rel dev {worst:.2e} (machine precision), {elapsed:.2f} s (< 1 s)")


def test_criterion_5_preset_constants():
    d = ot.derive(ot.table1_preset())
    nt_dev = abs(d.n_t / 1.2e6 - 1.0)
    ok = nt_dev <= 0.02 and 0.18 <= d.b_thermal <= 0.26
    verdict(5, "preset thermal constants", ok,
            f"n_T = {d.n_t:.4e} ({100 * nt_dev:.2f} % from 1.2e6, tol 2 %), "
            f"B = {d.b_thermal:.4f} (window [0.18, 0.26])")


def test_criterion_6_figure_properties():
    t0 = time.perf_counter()
    base = ot.table1_preset()
    grid = ot.make_grid(base.tau, **sweep_grid_spec(base.tau))

    def ratios(name):
        d = ot.derive(SWEEP_SCENARIOS[name].apply(base))
        return ot.spectrum_sweep(d, grid).ratio

    r_sym = ratios("fig2-sym")
    r_non = ratios("fig2-nonsym")
    r_non10 = ratios("fig2-nonsym-10P")
    r3_lossy = ratios("fig3-nonsym-lossy")
    r3_lossy10 = ratios("fig3-nonsym-lossy-10P")
    r4_lossy = ratios("fig4-sym-lossy")
    r4_lossless = ratios("fig4-sym-lossless")
    r4_lossy10 = ratios("fig4-sym-lossy-10P")
    r4_lossless10 = ratios("fig4-sym-lossless-10P")

    sub_sql = {n: int(np.sum(r < 1.0)) for n, r in
               [("sym", r_sym), ("nonsym", r_non), ("nonsym-10P", r_non10)]}
    a_ok = all(v > 0 for v in sub_sql.values())

    b_ok = bool(np.all(r_non10 < r_non) and np.all(r4_lossless10 < r4_lossless))

    c_ok = bool(np.all(r3_lossy >= r_non) and np.all(r3_lossy10 >= r_non10)
                and np.all(r4_lossy >= r4_lossless) and np.all(r4_lossy10 >= r4_lossless10))

    floor_ratio = float(r4_lossy10.min() / r4_lossy.min())
    lossless_ratio = float(r4_lossless10.min() / r4_lossless.min())
    d_ok = 0.7 <= floor_ratio <= 1.3 and lossless_ratio <= 0.15

    elapsed = time.perf_counter() - t0
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 5.0
    verdict(6, "figure-level curve properties", ok,
            f"(a) sub-SQL bins {sub_sql}; (b) 10x pump lowers lossless R pointwise: {b_ok}; "
            f"(c) loss raises R pointwise: {c_ok}; "
            f"(d) lossy floor 10P/1P = {floor_ratio:.3f} vs lossless {lossless_ratio:.3f}; "
            f"{elapsed:.1f} s (< 5 s)")


def test_criterion_7_monte_carlo_agreement():
    t0 = time.perf_counter()
    base = ot.table1_preset()
    details = []
    all_ok = True
    for name, scen in ot.ORACLE_SCENARIOS.items():
        d = ot.derive(scen.apply(base))
        cfg = ot.default_sim_config(d, seed=2026)
        report, _, _ = ot.run_comparison(d, cfg, segments=16)
        med_dev = abs(report.median_ratio - 1.0)
        ok = report.passed and med_dev <= 0.05
        all_ok &= ok
        details.append(
            f"{name}: {100 * report.frac_within_3sigma:.1f}% in 3-sigma, "
            f"median dev {100 * med_dev:.2f}%"
        )
    elapsed = time.perf_counter() - t0
    all_ok &= elapsed < 300.0
    verdict(7, "Monte Carlo spectral agreement", all_ok,
            "; ".join(details) + f"; total {elapsed:.0f} s (<= 300 s)")


def test_criterion_8_signal_transfer():
    p = ot.variant(ot.table1_preset(), pump_mult=1000.0)
    d = ot.derive(p)
    pulse = ot.SignalPulse(force_amp=1e-15, duration=4e-6, t_start=5e-4)
    cfg = ot.default_sim_config(d, t_dur=0.02, n_traj=1, noise=False, signal=pulse)
    ts = ot.simulate(d, cfg)

    n = ts.n_steps
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=ts.dt)
    xp = ts.dt * np.conj(np.fft.rfft(np.asarray(ts.b_plus[0], dtype=float)))
    xm = ts.dt * np.conj(np.fft.rfft(np.asarray(ts.b_minus[0], dtype=float)))
    f_n = np.zeros(n)
    i0 = int(round(pulse.t_start / cfg.dt))
    i1 = int(round((pulse.t_start + pulse.duration) / cfg.dt))
    f_n[i0:i1] = pulse.quad_amp(d)
    f_ref = ts.dt * np.conj(np.fft.rfft(f_n))

    sel = (omega >= 1e3) & (omega <= 2.0 * np.pi * 10.0 / p.tau)
    wp, wm = sigma_weights(d, omega[sel], "optimal")
    ratio = (wp * xp[sel] + wm * xm[sel]) / f_ref[sel]
    err = float(np.max(np.abs(ratio - 1.0)))
    verdict(8, "unit signal transfer", err <= 0.01,
            f"max |Sigma/f - 1| = {100 * err:.3f} % over {int(sel.sum())} in-band bins (< 1 %)")


def test_criterion_9_hermitian_symmetry():
    rng = np.random.default_rng(9)
    fields = [f.name for f in dataclasses.fields(ot.CoeffSet) if f.name != "omega"]
    worst_coeff = 0.0
    worst_even = 0.0
    for _ in range(5):
        d = random_lossy_asymmetric(rng)
        omega = 10.0 ** rng.uniform(0, 6, size=20)
        cp = ot.coeffs(d, omega)
        cm = ot.coeffs(d, -omega)
        for name in fields:
            vp, vm = getattr(cp, name), getattr(cm, name)
            denom = np.maximum(np.abs(vp), 1e-300)
            worst_coeff = max(worst_coeff, float(np.max(np.abs(vm - np.conj(vp)) / denom)))
        sp = np.asarray(ot.s_qu(cp, d, y_opt_analytic(cp, d)))
        sm = np.asarray(ot.s_qu(cm, d, y_opt_analytic(cm, d)))
        worst_even = max(worst_even, float(np.max(np.abs(sm / sp - 1.0))))
        worst_even = max(worst_even, float(np.max(
            np.abs(np.asarray(ot.s_sql(d.gamma_m, -omega))
                   / np.asarray(ot.s_sql(d.gamma_m, omega)) - 1.0))))
    ok = worst_coeff <= 1e-12 and worst_even <= 1e-12
    verdict(9, "Hermitian symmetry suite", ok,
            f"worst coefficient conj dev {worst_coeff:.2e}, "
            f"worst evenness dev {worst_even:.2e} (machine precision)")

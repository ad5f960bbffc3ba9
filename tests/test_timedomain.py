import collections
import dataclasses
import hashlib
import math
import os
import select
import signal
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm, solve_continuous_lyapunov, solve_discrete_lyapunov

import optotriplet as ot
from optotriplet.optimizer import y_opt_analytic
from optotriplet.timedomain import (
    _BLOCK,
    _QUARTER,
    _THETA13,
    RunRangeError,
    SimulationError,
    _BlockScan,
    _check_segment_len,
    _expm,
    _factor_psd,
    _lyapunov,
    _median,
    _plan,
    _segment_len,
    _step_operators,
    _system_matrices,
    _welch,
    default_band,
    sigma_weights,
)


FORK = hasattr(os, "fork")


@pytest.fixture(scope="module")
def d_lossy():
    return ot.derive(ot.table1_preset())


@pytest.fixture(scope="module")
def d_sym():
    return ot.derive(ot.variant(ot.table1_preset(), symmetric=True, lossless=True))


def fine_dt(d):
    """A fine step, 0.8 of 0.1 over the fastest relaxation rate: 3.5e-7 s on
    the preset, about a tenth of the default step."""
    g0 = abs(complex(ot.coeffs(d, 0.0).g_opt))
    return 0.8 * (0.1 / max(d.gamma_plus, d.gamma_minus, g0 + d.gamma_m))


def short_cfg(d, **kw):
    kw.setdefault("n_traj", 4)
    kw.setdefault("t_dur", 0.0025)
    kw.setdefault("seed", 99)
    return ot.default_sim_config(d, **kw)


def welch_psd(x, dt, segments):
    """Averaged Hann-windowed periodogram of real records.

    ``x`` has shape ``(..., L)``; leading axes are averaged as independent
    records.  Normalized so unit-intensity white noise (sample variance
    ``1/dt``) estimates a flat density of one; a density ``S(Omega)`` in
    these units integrates to the variance as ``int S dOmega / (2 pi)``.
    Returns ``(omega, psd)`` over the interior positive bins.  A single
    channel, unmixed: an independent reference for the combined estimator.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    seg_len = _segment_len(x.shape[-1], segments)
    _check_segment_len(x.shape[-1], seg_len)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg_len) / seg_len)
    keep = slice(1, (seg_len + 1) // 2)  # positive bins without DC and Nyquist
    omega = 2.0 * np.pi * np.fft.rfftfreq(seg_len, d=dt)[keep]
    norm = dt / np.sum(win**2)
    acc = 0.0
    for s in range(segments):
        spec = np.fft.rfft(x[..., s * seg_len:(s + 1) * seg_len] * win, axis=-1)
        acc = acc + np.abs(spec) ** 2
    psd = norm * np.mean(acc.reshape(-1, acc.shape[-1]), axis=0) / segments
    return omega, psd[keep]


# --- estimator calibration ------------------------------------------------------

def test_welch_white_noise_calibration():
    rng = np.random.default_rng(40)
    dt = 1e-3
    x = rng.standard_normal((8, 120_000)) / np.sqrt(dt)
    om, psd = welch_psd(x, dt, segments=16)
    assert om[0] > 0.0
    assert abs(psd.mean() - 1.0) < 0.03
    # per-bin scatter consistent with 1/sqrt(n_ind)
    assert np.std(psd) < 3.0 / np.sqrt(8 * 16)


def test_welch_sinusoid_peak():
    dt = 1e-3
    n = 65536
    seg = n // 16
    f0 = 200 / (seg * dt)  # exactly on a bin
    x = np.sqrt(2.0) * np.cos(2 * np.pi * f0 * np.arange(n) * dt)
    om, psd = welch_psd(x, dt, segments=16)
    k = int(np.argmax(psd))
    assert om[k] == pytest.approx(2 * np.pi * f0, rel=1e-12)
    side = np.delete(psd, [k - 1, k, k + 1])
    assert psd[k] > 1e6 * np.max(side)


def test_welch_guards():
    with pytest.raises(ValueError, match="segments"):
        welch_psd(np.zeros(1000), 1e-3, segments=4)
    with pytest.raises(ValueError, match="too short"):
        welch_psd(np.zeros(100), 1e-3, segments=8)


def test_error_bar_scaling(d_sym):
    # n_ind counts the periodograms averaged: 605 samples in 8 segments of 75,
    # one every 37 samples, give 15 per trajectory
    cfg8 = short_cfg(d_sym, n_traj=8)
    cfg32 = short_cfg(d_sym, n_traj=32)
    e8 = ot.estimate_psd(ot.simulate(d_sym, cfg8), segments=8)
    e32 = ot.estimate_psd(ot.simulate(d_sym, cfg32), segments=8)
    assert e32.rel_err == pytest.approx(0.5 * e8.rel_err, rel=1e-12)
    assert e8.n_ind == 8 * 15 and e32.n_ind == 32 * 15


# --- simulator ------------------------------------------------------------------

def test_zero_noise_zero_signal_zero_output(d_lossy):
    cfg = short_cfg(d_lossy, noise=False, n_traj=2)
    ts = ot.simulate(d_lossy, cfg)
    assert not np.any(ts.b_plus)
    assert not np.any(ts.b_minus)


def test_seed_determinism(d_lossy):
    cfg = short_cfg(d_lossy)
    a = ot.simulate(d_lossy, cfg)
    b = ot.simulate(d_lossy, cfg)
    assert np.array_equal(a.b_plus, b.b_plus)
    assert np.array_equal(a.b_minus, b.b_minus)
    c = ot.simulate(d_lossy, dataclasses.replace(cfg, seed=cfg.seed + 1))
    assert not np.array_equal(a.b_plus, c.b_plus)


def _reference_records(d, cfg, pulse_window):
    """Plain step-by-step recursion with the simulator's operators and draws."""
    drift, f_in, intens, c_out, e_sel = _system_matrices(d, cfg.noise)
    phi, j_dt, jj, cov = _step_operators(drift, f_in, intens, c_out, e_sel, cfg.dt)
    noise_factor = _factor_psd(cov)
    zx = (c_out @ j_dt) / cfg.dt
    x_kick = j_dt[:, 2]
    z_kick = (c_out @ jj[:, 2]) / cfg.dt
    if cfg.noise:
        stat_cov = _lyapunov(drift, -(f_in @ intens @ f_in.T))
        stat_factor = _factor_psd(0.5 * (stat_cov + stat_cov.T))
    else:
        stat_factor = np.zeros((3, 3))
    n_steps = int(round(cfg.t_dur / cfg.dt))
    f_amp = np.zeros(n_steps)
    f_amp[slice(*pulse_window)] = cfg.signal.quad_amp(d)
    out = np.empty((2, cfg.n_traj, n_steps))
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
    for k, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        x = stat_factor @ rng.standard_normal(3)
        joint = rng.standard_normal((n_steps, 5)) @ noise_factor.T
        for n in range(n_steps):
            out[:, k, n] = zx @ x + joint[n, 3:] + z_kick * f_amp[n]
            x = phi @ x + joint[n, :3] + x_kick * f_amp[n]
    return out


@pytest.mark.parametrize("noise", [True, False])
def test_scan_matches_reference_recursion(d_lossy, noise):
    # 3000 steps: three panels of 1024 steps, the last one partial; the pulse
    # straddles the first panel boundary at step 1024
    dt = ot.default_sim_config(d_lossy).dt
    pulse = ot.SignalPulse(force_amp=1e-15, duration=60 * dt, t_start=1000 * dt)
    cfg = short_cfg(d_lossy, n_traj=3, t_dur=3000 * dt, signal=pulse, noise=noise)
    ts = ot.simulate(d_lossy, cfg)
    assert ts.n_steps == 3000
    ref = _reference_records(d_lossy, cfg, (1000, 1060))
    for got, want in ((ts.b_plus, ref[0]), (ts.b_minus, ref[1])):
        assert np.max(np.abs(want)) > 0.0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_scan_carry_does_not_drift(d_lossy):
    # the block carry applies phi^32 about 1.6e3 times here; a power of phi a
    # few ulps off drifts the slow mechanical mode to ~4e-13 of the response
    dt = ot.default_sim_config(d_lossy).dt
    pulse = ot.SignalPulse(force_amp=1e-15, duration=60 * dt, t_start=1000 * dt)
    cfg = short_cfg(d_lossy, n_traj=1, t_dur=50_000 * dt, signal=pulse, noise=False)
    ts = ot.simulate(d_lossy, cfg)
    ref = _reference_records(d_lossy, cfg, (1000, 1060))
    for got, want in ((ts.b_plus, ref[0]), (ts.b_minus, ref[1])):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("source", [*ot.ORACLE_SCENARIOS, "random"])
def test_scan_carry_power_is_the_exact_power_rounded_once(source):
    # phi^32 of the integers over one power-of-two denominator is phi^32 of
    # the rationals the float entries are, rounded once: the step propagator
    # of each oracle scenario at its default step, and 200 random matrices
    # with entries over six decades, some of them zero
    if source == "random":
        rng = np.random.default_rng(5)
        phis = [rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-6.0, 0.0, (3, 3))
                * rng.integers(0, 2, (3, 3)) / 2.0 for _ in range(200)]
    else:
        d = oracle_derived(source)
        phis = [_step_operators(*_system_matrices(d, True), ot.default_sim_config(d).dt)[0]]
    for phi in phis:
        rationals = np.vectorize(Fraction, otypes=[object])(phi)
        want = np.linalg.matrix_power(rationals, _BLOCK).astype(float).T
        np.testing.assert_array_equal(_BlockScan(phi).phi_block_t, want)


# 32 fine steps are 3.4 default steps, where the covariance is formed over a
# quarter step and doubled twice; the worst block there is the cross block,
# 6.8e-15 of its largest element in both scenarios, against 1.1e-14 and 3.6e-14
# when it was one Van Loan exponential over the whole step.  Coarser steps are
# checked in test_step_covariance_stays_exact_at_coarse_steps: from 4 default
# steps on, quad_vec's own cross block is off by 2e-14 to 2e-13 (roundoff in
# the integrand, against a 60-digit Van Loan exponential)
@pytest.mark.parametrize("dt_mult", [1, 8, 32])
@pytest.mark.parametrize("scenario", ["sym-lossless", "nonsym-lossy"])
def test_step_operators_match_quadrature(scenario, dt_mult):
    # every operator against adaptive quadrature of its explicit integrand,
    # built from exp(M s) and K(s) = int_0^s exp(M v) dv alone
    d = ot.derive(ot.ORACLE_SCENARIOS[scenario].apply(ot.table1_preset()))
    dt = dt_mult * fine_dt(d)
    drift, f_in, intens, c_out, e_sel = _system_matrices(d, True)
    phi, j_dt, jj, cov = _step_operators(drift, f_in, intens, c_out, e_sel, dt)
    aug = np.zeros((6, 6))
    aug[:3, :3] = drift
    aug[:3, 3:] = np.eye(3)

    def exp_k(s):
        blocks = expm(aug * s)
        return blocks[:3, :3], blocks[:3, 3:]

    def kernel(s):  # output-noise kernel at lag s
        return c_out @ exp_k(s)[1] @ f_in - e_sel

    def state_noise(s):
        e = exp_k(s)[0] @ f_in
        return e @ intens @ e.T

    integrands = [
        (j_dt, lambda s: exp_k(s)[0], 1.0),
        (jj, lambda s: exp_k(s)[1], 1.0),
        (cov[:3, :3], state_noise, 1.0),
        (cov[:3, 3:], lambda s: exp_k(s)[0] @ f_in @ intens @ kernel(s).T, dt),
        (cov[3:, 3:], lambda s: kernel(s) @ intens @ kernel(s).T, dt**2),
    ]
    for got, integrand, scale in integrands:
        want = quad_vec(integrand, 0.0, dt, epsabs=0.0, epsrel=1e-15, norm="max")[0] / scale
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    np.testing.assert_array_equal(cov, cov.T)
    np.testing.assert_allclose(phi, expm(drift * dt), rtol=0.0, atol=1e-14)

    # the stationary covariance is a fixed point of one exact step
    p_stat = solve_continuous_lyapunov(drift, -(f_in @ intens @ f_in.T))
    np.testing.assert_allclose(phi @ p_stat @ phi.T + cov[:3, :3], p_stat, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("dt_mult", [32, 128])
@pytest.mark.parametrize("scenario", list(ot.ORACLE_SCENARIOS))
def test_step_covariance_stays_exact_at_coarse_steps(scenario, dt_mult):
    # at 32 and 128 default steps one Van Loan exponential over the whole step
    # missed this fixed point by up to 2.6e-8 and 1.6e24 relative: its
    # exp(-A dt) block grows as e^{|lambda| dt}, |lambda| dt = 24 and 97, and
    # cancels.  Halved to |lambda| h <= 1 and doubled back, the worst miss is
    # 8.3e-15
    d = oracle_derived(scenario)
    dt = dt_mult * ot.default_sim_config(d).dt
    drift, f_in, intens, c_out, e_sel = _system_matrices(d, True)
    phi, _, _, cov = _step_operators(drift, f_in, intens, c_out, e_sel, dt)
    assert np.all(np.isfinite(cov))
    np.testing.assert_array_equal(cov, cov.T)
    np.linalg.cholesky(cov)  # positive definite
    p_stat = solve_continuous_lyapunov(drift, -(f_in @ intens @ f_in.T))
    np.testing.assert_allclose(phi @ p_stat @ phi.T + cov[:3, :3], p_stat, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("pump", [1.0, 10.0, 100.0, 1000.0])
@pytest.mark.parametrize("scenario", list(ot.ORACLE_SCENARIOS))
def test_default_step_covariance_is_one_exponential(monkeypatch, scenario, pump):
    # the largest drift eigenvalue modulus times the default step is 0.76 at
    # most (0.011 at 1000x pump), so the covariance is never halved and
    # doubled: its Van Loan matrix is built over the whole step
    sc = ot.ORACLE_SCENARIOS[scenario]
    d = ot.derive(ot.variant(ot.table1_preset(), symmetric=sc.symmetric,
                             lossless=sc.lossless, pump_mult=pump))
    dt = ot.default_sim_config(d).dt
    drift = _system_matrices(d, True)[0]
    assert np.max(np.abs(np.linalg.eigvals(drift))) * dt <= 1.0
    seen = []
    monkeypatch.setattr(ot.timedomain, "_expm", lambda a: seen.append(a) or _expm(a))
    _step_operators(*_system_matrices(d, True), dt)
    np.testing.assert_array_equal(seen[1][:3, :3], -drift * dt)


@pytest.mark.parametrize("scenario, counts", [
    ("sym-lossless", (13824, 20480, 115200, 1280000)),
    ("nonsym-lossless", (13824, 20480, 115200, 1296000)),
    ("nonsym-lossy", (13824, 20480, 115200, 1250000)),
])
def test_default_step_counts_at_1x_to_1000x_pump(monkeypatch, scenario, counts):
    # at 1x pump the band's edge sets the step, in one step-bound evaluation,
    # and Nyquist may reach it; above it the bound sets the step, in 7, 8 and
    # 9 at 10x, 100x and 1000x (the bisection over the 5-smooth counts up to
    # 4 times the dt^2 estimate): the counts the earlier searches by doubling,
    # by one 5-smooth neighbour at a time and by galloping found
    sc = ot.ORACLE_SCENARIOS[scenario]
    step_gap = ot.timedomain._step_gap
    calls = []
    monkeypatch.setattr(ot.timedomain, "_step_gap",
                        lambda d, dt: calls.append(dt) or step_gap(d, dt))
    for pump, n_steps in zip((1.0, 10.0, 100.0, 1000.0), counts):
        d = ot.derive(ot.variant(ot.table1_preset(), symmetric=sc.symmetric,
                                 lossless=sc.lossless, pump_mult=pump))
        calls.clear()
        cfg = ot.default_sim_config(d)
        assert round(cfg.t_dur / cfg.dt) == n_steps
        assert len(calls) == {1.0: 1, 10.0: 7, 100.0: 8, 1000.0: 9}[pump]


def test_default_step_search_bisects(monkeypatch):
    # a stable parameter set from the property test's ranges, pump 7390x: the
    # gap grows much faster than dt^2 at coarse steps, so the dt^2 estimate
    # (m = 108000) lies 65 5-smooth counts above the fewest admitted (40500).
    # One neighbour per step-bound evaluation took 68 evaluations, a gallop
    # from the estimate then bisection 15; bisecting all the counts up to 4
    # times the estimate takes 10, for the same count
    base = ot.table1_preset()
    scales = {"m": 2.28, "omega_m": 0.778, "Q": 3.35, "T": 5.06, "tau": 0.753, "L": 0.453,
              "wavelength": 4.33, "gamma0": 3.39, "gamma0_plus": 1.88, "gamma0_minus": 9.16,
              "p_in": 7390.0}
    values = {name: getattr(base, name) * x for name, x in scales.items()}
    gamma0 = values["gamma0"]
    d = ot.derive(dataclasses.replace(
        base, **values, gamma_e=0.983 * gamma0, gamma_e_plus=0.0688 * gamma0,
        gamma_e_minus=0.416 * gamma0, eps_plus=1.18, eps_minus=1.38))
    step_gap = ot.timedomain._step_gap
    calls = []
    monkeypatch.setattr(ot.timedomain, "_step_gap",
                        lambda d, dt: calls.append(dt) or step_gap(d, dt))
    cfg = ot.default_sim_config(d)
    assert round(cfg.t_dur / cfg.dt) == 16 * 40500
    assert len(calls) == 10


# norm 0 is the zero matrix, whose exponential is the identity to the rounding
# of the final solve (b0 I)^-1 (b0 I), 1.1e-16; the other tolerances are about
# three times the worst error measured against scipy.linalg.expm on this
# matrix: 2.0e-16, 1.6e-16, 3.3e-15 and 1.8e-14
@pytest.mark.parametrize("norm, tol", [(0.0, 2.3e-16), (0.5, 5e-16), (5.0, 5e-16),
                                       (50.0, 1e-14), (200.0, 5e-14)])
def test_expm_matches_scipy(norm, tol):
    a = np.random.default_rng(0).standard_normal((6, 6))
    a *= norm / np.linalg.norm(a, 1)
    assert (norm > _THETA13) == (norm >= 50.0)  # the last two take the squaring branch
    want = expm(a)
    assert np.max(np.abs(_expm(a) - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("dt_mult", [1, 8])
@pytest.mark.parametrize("scenario", list(ot.ORACLE_SCENARIOS))
def test_expm_of_the_step_operator_blocks_matches_scipy(monkeypatch, scenario, dt_mult):
    # the chain and Van Loan matrices exactly as _step_operators builds them;
    # the worst error measured is 2.4e-16 of the largest entry
    d = ot.derive(ot.ORACLE_SCENARIOS[scenario].apply(ot.table1_preset()))
    dt = dt_mult * fine_dt(d)
    seen = []

    def recording(a):
        seen.append(a)
        return _expm(a)

    monkeypatch.setattr(ot.timedomain, "_expm", recording)
    _step_operators(*_system_matrices(d, True), dt)
    assert [a.shape for a in seen] == [(9, 9), (10, 10)]
    for a in seen:
        want = expm(a)
        assert np.max(np.abs(_expm(a) - want)) <= 5e-16 * np.max(np.abs(want))


def _exact_lyapunov(a, q):
    """Solution of ``A X + X A^T = Q`` in rationals, rounded once to floats.

    Gauss-Jordan elimination of the ``n^2`` system built entry by entry from
    ``(A X + X A^T)_ij = sum_k A_ik X_kj + X_ik A_jk``; the float inputs are
    taken as the exact rationals they are.
    """
    n = a.shape[0]
    af = [[Fraction(float(v)) for v in row] for row in a]
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += af[i][k]
                row[i * n + k] += af[j][k]
            rows.append(row + [Fraction(float(q[i, j]))])
    for c in range(n * n):
        pivot = next(r for r in range(c, n * n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n * n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return np.array([float(rows[r][-1] / rows[r][r]) for r in range(n * n)]).reshape(n, n)


def test_lyapunov_matches_exact_rational_solve():
    # the sym-lossless drift: scipy's solve_continuous_lyapunov is off by 4.0e-10
    # of the largest entry here, the Kronecker solve by 7.2e-13
    d = ot.derive(ot.ORACLE_SCENARIOS["sym-lossless"].apply(ot.table1_preset()))
    drift, f_in, intens, _, _ = _system_matrices(d, True)
    q = -(f_in @ intens @ f_in.T)
    got = _lyapunov(drift, q)
    want = _exact_lyapunov(drift, q)
    assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))
    # residual measured at 4.3e-13 of the largest entry of Q; symmetric exactly
    residual = drift @ got + got @ drift.T - q
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(q))
    assert np.max(np.abs(got - got.T)) <= 1e-15 * np.max(np.abs(got))


def test_factor_psd_refuses_a_numerically_singular_covariance():
    # no clip: a covariance Cholesky refuses is refused whole, named by its
    # shape, with its eigenvalue ratio; only the step covariance's message
    # asks for a larger dt
    v = np.array([[1.0, 2.0, 3.0], [2.0, -1.0, 0.5], [0.3, 0.1, 1.0]])
    rounded = v.T @ np.diag([1.0, 0.5, -1e-15]) @ v  # Cholesky fails here
    with pytest.raises(SimulationError, match=r"^the 3x3 stationary noise covariance is "
                       r"numerically singular: .* eigenvalue -[0-9.]+e-1[0-9]$"):
        _factor_psd(rounded)
    assert not np.any(_factor_psd(np.zeros((5, 5))))  # the noise-off runs
    # the real trigger: a lossless sensor has three noise inputs for five step
    # outputs, so at 1e-13 s two eigenvalues of its step covariance sink below
    # rounding; the lossy sensor's five inputs keep it positive definite
    cfg = ot.SimConfig(dt=1e-13, t_dur=1e-9, n_traj=2, seed=1)
    for scenario in ("sym-lossless", "nonsym-lossless"):
        with pytest.raises(SimulationError, match=r"^the 5x5 step noise covariance is "
                           r"numerically singular: .*; use a larger dt$"):
            ot.simulate(oracle_derived(scenario), cfg)
    ts = ot.simulate(oracle_derived("nonsym-lossy"), cfg)
    assert np.all(np.isfinite(ts.b_plus)) and np.all(np.isfinite(ts.b_minus))


def test_dt_bound_rejected_upfront(d_lossy, monkeypatch):
    # 20 us, six times the default step: the sampled density is off by 7.1e-6
    def no_panels(*args):
        raise AssertionError("panels started")

    monkeypatch.setattr(ot.timedomain, "_panels", no_panels)
    refused = r"breaks the step bound.* 7\.11e-06 relative \(bound 1e-06\)"
    with pytest.raises(SimulationError, match=refused):
        ot.simulate(d_lossy, short_cfg(d_lossy, dt=2e-5))


def test_antidamped_configuration_rejected():
    # swapping the coupling asymmetry makes the optical damping negative and
    # larger than the intrinsic loss: the sensor self-oscillates
    p = dataclasses.replace(ot.table1_preset(), eps_plus=0.97, eps_minus=1.03)
    d = ot.derive(p)
    with pytest.raises(SimulationError, match="stable"):
        ot.simulate(d, short_cfg(d))


def test_config_validation(d_lossy):
    with pytest.raises(SimulationError):
        ot.SimConfig(dt=-1e-7, t_dur=1.0)
    with pytest.raises(SimulationError):
        ot.SimConfig(dt=1e-7, t_dur=1e-8)
    with pytest.raises(SimulationError):
        ot.SimConfig(dt=1e-7, t_dur=1.0, n_traj=0)
    with pytest.raises(SimulationError, match="t_dur must be finite"):
        ot.SimConfig(dt=1e-7, t_dur=float("nan"))
    with pytest.raises(SimulationError, match="t_dur must be finite"):
        ot.SimConfig(dt=1e-7, t_dur=float("inf"))
    with pytest.raises(SimulationError, match="seed"):
        ot.SimConfig(dt=1e-7, t_dur=1.0, seed=-1)
    # counts that are not integers are refused before any plan or operator;
    # numpy integers are counts
    for bad in ({"n_traj": 2.5}, {"n_traj": 2.0}, {"n_traj": True}, {"n_traj": np.True_},
                {"seed": 1.5}, {"seed": False}, {"n_traj": "2"}):
        (name,) = bad
        with pytest.raises(RunRangeError, match=f"{name} must be an integer"):
            ot.SimConfig(dt=1e-7, t_dur=1.0, **bad)
    cfg = ot.SimConfig(dt=1e-7, t_dur=1.0, n_traj=np.int64(2), seed=np.uint8(3))
    assert (cfg.n_traj, cfg.seed) == (2, 3)
    # so are durations that are not real numbers, a noise switch that is not
    # a bool and a signal that is not a pulse; numpy floats and bools are
    # durations and switches
    for bad, message in (({"dt": True}, "dt must be a real number"),
                         ({"dt": "1e-6"}, "dt must be a real number"),
                         ({"t_dur": np.True_}, "t_dur must be a real number"),
                         ({"t_dur": 1.0 + 0.0j}, "t_dur must be a real number"),
                         ({"noise": "no"}, "noise must be a bool"),
                         ({"noise": 0}, "noise must be a bool"),
                         ({"signal": 3.0}, "signal must be None or a SignalPulse")):
        with pytest.raises(RunRangeError, match=message):
            ot.SimConfig(**{"dt": 1e-7, "t_dur": 1.0, **bad})
    cfg = ot.SimConfig(dt=np.float64(1e-7), t_dur=np.float32(1.0), noise=np.False_)
    assert (cfg.dt, cfg.t_dur, cfg.noise) == (1e-7, 1.0, False)


def test_signal_linearity_noiseless(d_lossy):
    base = dict(noise=False, n_traj=1, t_dur=0.004)
    p1 = ot.SignalPulse(force_amp=1e-15, duration=5e-6, t_start=1e-4)
    p2 = ot.SignalPulse(force_amp=2e-15, duration=5e-6, t_start=1e-4)
    a = ot.simulate(d_lossy, short_cfg(d_lossy, signal=p1, **base))
    b = ot.simulate(d_lossy, short_cfg(d_lossy, signal=p2, **base))
    np.testing.assert_allclose(b.b_plus, 2.0 * a.b_plus, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(b.b_minus, 2.0 * a.b_minus, rtol=1e-12, atol=1e-300)


def test_signal_linearity_with_fixed_seeds(d_lossy):
    # same seeds: subtracting the signal-free run isolates the response exactly
    p1 = ot.SignalPulse(force_amp=1e-15, duration=5e-6, t_start=1e-4)
    p2 = ot.SignalPulse(force_amp=2e-15, duration=5e-6, t_start=1e-4)
    cfg0 = short_cfg(d_lossy, n_traj=2)
    a0 = ot.simulate(d_lossy, cfg0)
    a1 = ot.simulate(d_lossy, dataclasses.replace(cfg0, signal=p1))
    a2 = ot.simulate(d_lossy, dataclasses.replace(cfg0, signal=p2))
    det1 = a1.b_plus - a0.b_plus
    det2 = a2.b_plus - a0.b_plus
    scale = np.max(np.abs(det1))
    assert scale > 0.0
    np.testing.assert_allclose(det2, 2.0 * det1, atol=1e-9 * scale)


def test_signal_window_must_fit(d_lossy):
    bad = ot.SignalPulse(force_amp=1e-15, duration=1.0, t_start=0.0)
    with pytest.raises(SimulationError, match="window"):
        ot.simulate(d_lossy, short_cfg(d_lossy, signal=bad, noise=False))


def test_phase_quadrature_projection(d_lossy):
    # the drive couples through cos(psi_f); a pi/2 carrier phase leaves
    # essentially nothing in the measured quadrature
    base = dict(duration=5e-6, t_start=1e-4)
    in_phase = ot.SignalPulse(force_amp=1e-15, **base)
    quadrature = ot.SignalPulse(force_amp=1e-15, psi_f=np.pi / 2.0, **base)
    a = ot.simulate(d_lossy, short_cfg(d_lossy, signal=in_phase, noise=False, n_traj=1))
    b = ot.simulate(d_lossy, short_cfg(d_lossy, signal=quadrature, noise=False, n_traj=1))
    assert np.max(np.abs(b.b_plus)) < 1e-12 * np.max(np.abs(a.b_plus))


def test_stationary_start(d_sym):
    # stationary init: first and second halves give consistent spectra
    cfg = ot.default_sim_config(d_sym, seed=13, n_traj=8, t_dur=0.02)
    ts = ot.simulate(d_sym, cfg)
    half = ts.n_steps // 2
    first = dataclasses.replace(ts, b_plus=ts.b_plus[:, :half], b_minus=ts.b_minus[:, :half])
    second = dataclasses.replace(ts, b_plus=ts.b_plus[:, half:], b_minus=ts.b_minus[:, half:])
    e1 = ot.estimate_psd(first, segments=8)
    e2 = ot.estimate_psd(second, segments=8)
    band = (2e5, 7e5)  # well-resolved bins only
    sel = (e1.omega >= band[0]) & (e1.omega <= band[1])
    diff = e1.psd[sel] / e2.psd[sel] - 1.0
    sigma = np.sqrt(e1.rel_err**2 + e2.rel_err**2)
    assert np.mean(np.abs(diff) <= 4.0 * sigma) > 0.9


def test_sigma_timeseries_and_dump(tmp_path, d_lossy):
    cfg = short_cfg(d_lossy, n_traj=2, dt=fine_dt(d_lossy))
    ts = ot.simulate(d_lossy, cfg)
    sig = ts.sigma_timeseries()
    assert sig.shape == ts.b_plus.shape
    assert np.isrealobj(sig)
    path = tmp_path / "series.txt"
    ts.dump_text(path)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["time", "b_plus_a", "b_minus_a"]
    assert len(lines) == ts.n_steps + 1
    # written in blocks of 1024 rows, the last one partial, as one savetxt of
    # the whole series would write it
    assert ts.n_steps > 1024 and ts.n_steps % 1024
    whole = np.column_stack([ts.times, ts.b_plus[0], ts.b_minus[0]])
    np.savetxt(tmp_path / "whole.txt", whole, header="time b_plus_a b_minus_a", comments="")
    assert path.read_bytes() == (tmp_path / "whole.txt").read_bytes()


def test_interrupted_dump_leaves_the_old_file(tmp_path, d_lossy, monkeypatch):
    # the second block fails to format: the file under the final name is the
    # one that was there before, and no temporary file is left
    ts = ot.simulate(d_lossy, short_cfg(d_lossy, n_traj=1, dt=fine_dt(d_lossy)))
    path = tmp_path / "series.txt"
    path.write_text("old\n")
    rows_text, blocks = ot.timedomain._rows_text, []

    def failing(block):
        blocks.append(len(block))
        if len(blocks) == 2:
            raise OSError("disk full")
        return rows_text(block)

    monkeypatch.setattr(ot.timedomain, "_rows_text", failing)
    with pytest.raises(OSError, match="disk full"):
        ts.dump_text(path)
    assert blocks == [1024, 1024]
    assert [p.name for p in tmp_path.iterdir()] == ["series.txt"]
    assert path.read_text() == "old\n"
    path.unlink()
    blocks.clear()
    with pytest.raises(OSError, match="disk full"):
        ts.dump_text(path)
    assert not list(tmp_path.iterdir())


# --- deterministic legs: analytic <-> exact discrete time <-> Welch -------------

def oracle_derived(scenario):
    return ot.derive(ot.ORACLE_SCENARIOS[scenario].apply(ot.table1_preset()))


def discrete_model(d, dt):
    """``phi``, ``zx`` and the state, cross and output blocks ``Q``, ``S``,
    ``R`` of the per-step noise covariance, as the sampler uses them."""
    drift, f_in, intens, c_out, e_sel = _system_matrices(d, True)
    phi, j_dt, _, cov = _step_operators(drift, f_in, intens, c_out, e_sel, dt)
    return phi, (c_out @ j_dt) / dt, cov[:3, :3], cov[:3, 3:], cov[3:, 3:]


def expected_welch_psd(d, dt, seg_len, bins, y_policy="optimal"):
    """The expectation of what ``_welch`` estimates at the bins ``bins`` of a
    segment of ``seg_len`` samples of a stationary run.

    The outputs' autocovariance is ``r(0) = zx P zx^T + R`` and
    ``r(k) = zx phi^(k-1) (phi P zx^T + S)`` for ``k >= 1``, with ``P`` the
    stationary covariance of the sampled recursion (the discrete Lyapunov
    equation ``P = phi P phi^T + Q``).  A Hann-windowed transform in the
    physics sign sees it through the lag window ``c(k) = sum_n win[n]
    win[n + k]``: ``E[X X^H] = dt^2 (A + A^H - c(0) r(0))`` with
    ``A = sum_k c(k) e^{i omega k dt} r(k)``, mixed with the weights of
    ``sigma_weights`` and normalised as ``_welch`` normalises.
    """
    phi, zx, q, s, r = discrete_model(d, dt)
    p = solve_discrete_lyapunov(phi, q)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg_len) / seg_len)
    lag_win = np.correlate(win, win, mode="full")[seg_len - 1:]
    lags = np.empty((seg_len, 2, 2))
    lags[0] = zx @ p @ zx.T + r
    carry = phi @ p @ zx.T + s
    for k in range(1, seg_len):
        lags[k] = zx @ carry
        carry = phi @ carry
    omega = 2.0 * np.pi * np.fft.rfftfreq(seg_len, d=dt)[bins]
    phase = np.exp(1j * dt * np.outer(omega, np.arange(seg_len)))
    a = np.einsum("nk,kij->nij", phase * lag_win, lags)
    xx = a + np.conj(np.swapaxes(a, 1, 2)) - lag_win[0] * lags[0]
    w = np.stack(sigma_weights(d, omega, y_policy), axis=1)
    mixed = np.einsum("ni,nij,nj->n", w, xx, np.conj(w)).real
    return omega, dt * mixed / np.sum(win**2)


@pytest.mark.parametrize("step", ["1x fine", "4x fine", "8x fine", "default"])
@pytest.mark.parametrize("scenario", list(ot.ORACLE_SCENARIOS))
def test_exact_discrete_psd_matches_the_analytic_density(scenario, step):
    # from 1 rad/s to the band's top edge, below and across the comparison
    # band; the worst errors measured are 2.2e-9, 3.5e-8, 1.4e-7 and 3.1e-7,
    # growing as dt^2, largest near 1.0e4 rad/s (the default step's band top
    # is 0.96 Nyquist)
    d = oracle_derived(scenario)
    if step == "default":
        dt = ot.default_sim_config(d).dt
    else:
        dt = int(step[0]) * fine_dt(d)
    omega = np.geomspace(1.0, ot.timedomain._band_top(d, dt), 2000)
    exact = ot.exact_discrete_psd(d, dt, omega)
    analytic = ot.spectrum_sweep(d, omega).s_f
    assert np.max(np.abs(exact - analytic) / analytic) <= 1e-6


@pytest.mark.parametrize("scenario", list(ot.ORACLE_SCENARIOS))
def test_expected_welch_psd_matches_the_analytic_density(scenario):
    # the band bins of a default run: only the Hann window's leakage remains,
    # at most 3.2e-5 of the density, a thousandth of the 3.1% error bar
    d = oracle_derived(scenario)
    cfg = ot.default_sim_config(d)
    plan = _plan(d, cfg, 16)
    omega, expected = expected_welch_psd(d, cfg.dt, plan.seg_len, plan.bins)
    assert omega.size == 410
    analytic = ot.spectrum_sweep(d, omega).s_f
    assert np.max(np.abs(expected - analytic) / analytic) <= 1e-4


def test_expected_welch_psd_matches_the_explicit_covariance_of_a_segment(d_lossy):
    # 64 samples written as z = M xi in the independent draws xi = (x[0],
    # (w, v)[0], ..., (w, v)[63]), whose covariance is block diagonal: the
    # periodogram's expectation is then a quadratic form in Cov(z) = M C M^T,
    # with no lag or window algebra
    dt, n = ot.default_sim_config(d_lossy).dt, 64
    phi, zx, q, s, r = discrete_model(d_lossy, dt)
    step_cov = np.block([[q, s], [s.T, r]])
    p = solve_discrete_lyapunov(phi, q)
    m = np.zeros((n, 2, 3 + 5 * n))
    state = np.zeros((3, 3 + 5 * n))
    state[:, :3] = np.eye(3)
    for k in range(n):
        noise = slice(3 + 5 * k, 3 + 5 * (k + 1))
        m[k] = zx @ state
        m[k][:, noise][:, 3:] += np.eye(2)
        state = phi @ state
        state[:, noise][:, :3] += np.eye(3)
    m = m.reshape(2 * n, -1)
    draws = np.zeros((3 + 5 * n, 3 + 5 * n))
    draws[:3, :3] = p
    for k in range(n):
        draws[3 + 5 * k:3 + 5 * (k + 1), 3 + 5 * k:3 + 5 * (k + 1)] = step_cov
    cov_z = m @ draws @ m.T  # z[k] at rows 2k (b_plus) and 2k + 1 (b_minus)

    bins = slice(1, n // 2)
    omega, expected = expected_welch_psd(d_lossy, dt, n, bins)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    wp, wm = sigma_weights(d_lossy, omega, "optimal")
    brute = np.empty(omega.size)
    for j in range(omega.size):
        taper = dt * win * np.exp(1j * omega[j] * dt * np.arange(n))
        a = np.stack([wp[j] * taper, wm[j] * taper], axis=1).reshape(-1)
        brute[j] = (a @ cov_z @ np.conj(a)).real / (dt * np.sum(win**2))
    assert np.max(np.abs(expected - brute) / brute) <= 1e-12


# --- estimator + comparison ------------------------------------------------------

def test_estimate_psd_guards(d_lossy, monkeypatch):
    cfg = short_cfg(d_lossy, n_traj=2, dt=fine_dt(d_lossy))
    ts = ot.simulate(d_lossy, cfg)
    with pytest.raises(ValueError, match="segments"):
        ot.estimate_psd(ts, segments=4)
    tiny = dataclasses.replace(ts, b_plus=ts.b_plus[:, :400], b_minus=ts.b_minus[:, :400])
    with pytest.raises(ValueError, match="too short"):
        ot.estimate_psd(tiny, segments=8)
    # a weight table needs one value per interior bin of a segment
    n_bins = (ts.n_steps // 8 + 1) // 2 - 1
    with pytest.raises(ValueError, match="per-frequency y table"):
        ot.estimate_psd(ts, segments=8, y_policy=np.zeros(n_bins + 1, dtype=complex))

    # the streamed run is rejected by the same guards before any simulation work
    def no_simulation(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr(ot.timedomain, "_step_operators", no_simulation)
    with pytest.raises(ValueError, match="segments"):
        ot.run_comparison(d_lossy, cfg, segments=4)
    with pytest.raises(ValueError, match="too short"):
        ot.run_comparison(d_lossy, cfg, segments=ts.n_steps // 63)
    with pytest.raises(ValueError, match="too short for any comparison band"):
        ot.run_comparison(d_lossy, dataclasses.replace(cfg, t_dur=8e-4), segments=8)


@pytest.mark.parametrize("n_traj", [1, 3])
def test_streamed_estimate_matches_records(d_lossy, n_traj):
    # 7001 steps: six full scan panels and a partial one, and 7001 = 8 * 875 + 1,
    # so one sample is left after the last segment; the pulse straddles the
    # panel boundary at step 1024
    dt = ot.default_sim_config(d_lossy).dt
    pulse = ot.SignalPulse(force_amp=1e-15, duration=60 * dt, t_start=1000 * dt)
    cfg = short_cfg(d_lossy, n_traj=n_traj, t_dur=7001 * dt, signal=pulse)
    ts = ot.simulate(d_lossy, cfg)
    assert ts.n_steps == 7001
    want = ot.estimate_psd(ts, segments=8)
    report, got, _ = ot.run_comparison(d_lossy, cfg, segments=8)
    # the streamed estimate holds the band bins only
    band = default_band(d_lossy, cfg)
    sel = (want.omega >= band[0]) & (want.omega <= band[1])
    assert np.array_equal(got.psd, want.psd[sel])
    assert np.array_equal(got.omega, want.omega[sel])
    assert (got.t_dur, got.n_ind) == (want.t_dur, want.n_ind)


@pytest.fixture(scope="module")
def run_7001(d_lossy):
    # 7001 = 8 * 875 + 1 steps of 3 trajectories, with a pulse across step 1024
    dt = ot.default_sim_config(d_lossy).dt
    pulse = ot.SignalPulse(force_amp=1e-15, duration=60 * dt, t_start=1000 * dt)
    return ot.simulate(d_lossy, short_cfg(d_lossy, n_traj=3, t_dur=7001 * dt, signal=pulse))


# SHA-256 of the records (b_plus, then b_minus) and of the streamed estimate of
# the default nonsym-lossy run of 3 trajectories, seed 2026, at the step it had
# while the band's edge was kept within 0.8 Nyquist (17280 steps), without and
# with a pulse over steps [1000, 1600).  The records' digests were captured
# (numpy 2.4, x86-64) before the noise was drawn a quarter at a time and the
# estimator reused its buffers, the estimate's once its segments overlapped
# by half, so any change to a record or estimate bit shows, not only one
# between shard counts.
PINNED_DIGESTS = {
    False: ("ff518aec1794e2d1014bffe81ec56fa6147d65aa5c153d5be168714912cfa551",
            "92cd2a6b58b051421b20d7e0779b9bad57dd09c6cf0f2bdfe97cc59f31a9c6ed"),
    True: ("60add895be3e56f4ff98ae6aeab246cc2fdf050a1b5a3803d7c58c5255b0d56e",
           "002c46c2969b36395f415cdd8e8efc88a2deedd980e1a7b043901a51b2c36044"),
}


@pytest.mark.parametrize("pulsed", [False, True])
def test_default_records_and_estimate_keep_their_bits(monkeypatch, pulsed):
    # one shard, and three shards of one trajectory each (the lone-trajectory scan)
    d = oracle_derived("nonsym-lossy")
    t_dur = ot.default_sim_config(d).t_dur
    cfg = ot.default_sim_config(d, seed=2026, n_traj=3, dt=t_dur / 17280)
    assert round(cfg.t_dur / cfg.dt) == 17280
    if pulsed:
        pulse = ot.SignalPulse(force_amp=1e-15, duration=600 * cfg.dt, t_start=1000 * cfg.dt)
        cfg = dataclasses.replace(cfg, signal=pulse)
    for cpus in (1, 3):
        monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: cpus)
        ts = ot.simulate(d, cfg)
        psd = ot.run_comparison(d, cfg)[1].psd
        got = (hashlib.sha256(ts.b_plus.tobytes() + ts.b_minus.tobytes()).hexdigest(),
               hashlib.sha256(psd.tobytes()).hexdigest())
        assert got == PINNED_DIGESTS[pulsed]


def test_records_do_not_depend_on_the_cpu_count(run_7001, monkeypatch):
    # 1, 2, 3 and 5 shards of 3 and 7 trajectories, with and without noise:
    # uneven shards, shards of one trajectory and more CPUs than trajectories.
    # The records, the streamed estimate and estimate_psd of the records are
    # the same bit for bit, and a trajectory's record does not depend on how
    # many trajectories run with it.  Only the streamed run asks the process
    # policy for its shards; simulate and estimate_psd run in this process.
    # Every shard but the first runs in a forked child, and each shard's last
    # panel is held back the longer the earlier its rows, so the shards end in
    # reverse order and a lost or misplaced row, or a report taken for another
    # shard's, would show.
    d, runs = run_7001.d, {}
    panels = ot.timedomain._panels

    def reverse_ends(sampler, rows):
        yield from panels(sampler, rows)
        time.sleep(0.005 * (len(sampler.seeds) - rows.start))

    monkeypatch.setattr(ot.timedomain, "_panels", reverse_ends)
    monkeypatch.setattr(ot._forks, "_MAX_WORKERS", 5)  # 5 CPUs make 5 shards
    for noise in (True, False):
        for n_traj in (3, 7):
            cfg = dataclasses.replace(run_7001.cfg, n_traj=n_traj, noise=noise)
            for cpus in (1, 2, 3, 5):
                asked = []
                monkeypatch.setattr(ot._forks, "_usable_cpus",
                                    lambda: asked.append(cpus) or cpus)
                ts = ot.simulate(d, cfg)
                streamed = ot.run_comparison(d, cfg, segments=8)[1]
                records = ot.estimate_psd(ts, segments=8)
                assert asked == [cpus]
                got = (ts.b_plus, ts.b_minus, streamed.psd, records.psd)
                want = runs.setdefault((noise, n_traj), got)
                assert all(map(np.array_equal, got, want))
    for noise in (True, False):
        for k in (0, 1):  # b_plus, b_minus
            assert np.array_equal(runs[noise, 7][k][:3], runs[noise, 3][k])
    # the fixture ran on every usable CPU
    assert np.array_equal(runs[True, 3][0], run_7001.b_plus)
    assert np.array_equal(runs[True, 3][1], run_7001.b_minus)


@pytest.mark.parametrize("cgroup, cpu_max, want", [
    ("0::/job/leaf\n", "150000 100000\n", 2),   # 1.5 CPUs of quota, rounded up
    ("0::/job/leaf\n", "20000 100000\n", 1),
    ("0::/job/leaf\n", "2000000 100000\n", 8),  # above the affinity set
    ("0::/job/leaf\n", "max 100000\n", 8),
    ("0::/job/leaf\n", None, 8),                # no cpu controller there
    ("1:cpu:/job\n", "100000 100000\n", 8),     # cgroup v1: no 0:: line
    (None, "100000 100000\n", 8),               # no /proc/self/cgroup
    ("0::/job/leaf\n", "100000\n", 8),          # malformed
    ("0::/job/leaf\n", "lots 100000\n", 8),
    ("0::/job/leaf\n", "100000 0\n", 8),
])
def test_usable_cpus_obey_the_cgroup_cpu_quota(tmp_path, monkeypatch, cgroup, cpu_max, want):
    leaf = tmp_path / "fs" / "job" / "leaf"
    leaf.mkdir(parents=True)
    if cgroup is not None:
        (tmp_path / "cgroup").write_text(cgroup)
    if cpu_max is not None:
        (leaf / "cpu.max").write_text(cpu_max)
    monkeypatch.setattr(ot._forks, "_PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(ot._forks, "_CGROUP_ROOT", str(tmp_path / "fs"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert ot._forks._usable_cpus() == want


@pytest.mark.skipif(not FORK, reason="the shard processes need fork")
def test_shards_are_capped_and_one_where_another_thread_runs(monkeypatch):
    # one shard per usable CPU up to _MAX_WORKERS, whose forks the calling
    # process makes one after another before its own shard starts; and one
    # shard, in the calling process, while another Python thread runs, which
    # a child could inherit in the middle of holding a lock
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 36)
    assert ot.timedomain._shards(36) == [slice(0, 9), slice(9, 18), slice(18, 27), slice(27, 36)]
    assert ot.timedomain._shards(3) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    stop = threading.Event()
    idle = threading.Thread(target=stop.wait)
    idle.start()
    try:
        assert ot.timedomain._shards(36) == [slice(0, 36)]
    finally:
        stop.set()
        idle.join()


def _open_fds():
    """The number of this process's open file descriptors, or ``None`` where
    the platform does not list them."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.skipif(not FORK, reason="the shard processes need fork")
def test_runs_leave_no_draw_thread_behind(d_lossy, monkeypatch, forks):
    # simulate runs in this process; the streamed run in three shards, the
    # first in this process, the others in two forked children; no run starts
    # a thread, and none leaves a child or a pipe
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 3)
    cfg = short_cfg(d_lossy, n_traj=3, dt=fine_dt(d_lossy))
    start, fds = threading.active_count(), _open_fds()
    ot.simulate(d_lossy, cfg)
    assert threading.active_count() == start
    assert not forks
    ot.run_comparison(d_lossy, cfg, segments=8)
    assert threading.active_count() == start
    assert len(forks.reaped()) == 2
    assert _open_fds() == fds


@pytest.mark.skipif(not FORK, reason="the check counts forks")
def test_simulate_and_estimate_psd_run_in_the_calling_process(d_lossy, monkeypatch, forks):
    # whatever the usable CPUs, simulate reads every trajectory's panels in
    # this process, as one shard, and neither it nor estimate_psd forks; a
    # diverging _panels makes simulate raise its SimulationError here, and
    # no thread or pipe is left
    panels, seen = ot.timedomain._panels, []

    def logged(sampler, rows):
        seen.append((os.getpid(), rows))
        yield from panels(sampler, rows)

    def diverging(sampler, rows):
        for k, panel in enumerate(logged(sampler, rows)):
            if k == 4:
                raise SimulationError("state diverged by step 1024 (of 40960)")
            yield panel

    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=3, t_dur=40 * 1024 * dt)
    start, fds = threading.active_count(), _open_fds()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(ot.timedomain, "_panels", logged)
        ot.estimate_psd(ot.simulate(d_lossy, cfg), segments=8)
        monkeypatch.setattr(ot.timedomain, "_panels", diverging)
        with pytest.raises(SimulationError, match="state diverged by step 1024"):
            ot.simulate(d_lossy, cfg)
        assert threading.active_count() == start
        assert _open_fds() == fds
    assert seen == [(os.getpid(), slice(0, 3))] * 6
    assert not forks


class _InterruptedWait:
    """A ``select.poll`` object whose blocking polls raise
    ``KeyboardInterrupt``: the caller's wait for the children is interrupted,
    and its polls without waiting are not."""

    def __init__(self, poll=select.poll):  # the real one, bound before the patch
        self.poller = poll()

    def __getattr__(self, name):
        return getattr(self.poller, name)

    def poll(self, timeout=None):
        if timeout is None:
            raise KeyboardInterrupt
        return self.poller.poll(timeout)


@pytest.mark.skipif(not FORK, reason="the shard processes need fork")
def test_an_interrupted_wait_stops_every_shard_first(tmp_path, monkeypatch, forks):
    # the caller runs the first shard, of 3 chunks, and is interrupted while
    # it waits for the second, a child that would read 10000 chunks of 1 ms:
    # the child is killed before it has read them, and it is reaped and its
    # pipe closed when the interrupt is raised
    log = tmp_path / "chunks"

    def work(rows, chunks):
        for _ in chunks:
            with open(log, "a") as fh:
                fh.write(f"{rows.start}\n")
            time.sleep(0.001)

    monkeypatch.setattr(select, "poll", _InterruptedWait)
    start, fds = threading.active_count(), _open_fds()
    with pytest.raises(KeyboardInterrupt):
        ot.timedomain._in_shards([(slice(0, 1), range(3)), (slice(1, 2), range(10_000))], work)
    assert threading.active_count() == start
    assert len(forks.reaped()) == 1
    assert _open_fds() == fds
    made = collections.Counter(log.read_text().split())
    assert made["0"] == 3 and made["1"] < 10_000


def _fail_a_shard(monkeypatch, tmp_path, failing, starts):
    """Make the shard whose rows start at ``failing``, of the shards whose
    rows start at ``starts``, diverge at its first panel, once the others
    have made theirs.  The others make each later panel only 0.2 s after it
    has failed, and log each panel they make as ``start late`` to
    ``tmp_path / "made"``, ``late`` 1 once it has failed.  Returns a function
    that reads the log into ``(made, late)`` counters."""
    panels, failed, log = ot.timedomain._panels, tmp_path / "failed", tmp_path / "made"

    def first(g):
        return tmp_path / f"first-{g}"

    def wait_for(*paths):
        deadline = time.monotonic() + 30.0
        while not all(path.exists() for path in paths):
            assert time.monotonic() < deadline
            time.sleep(0.001)

    def diverging(sampler, rows):
        for k, panel in enumerate(panels(sampler, rows)):
            if rows.start == failing:
                wait_for(*(first(g) for g in starts if g != failing))
                failed.touch()
                raise SimulationError("state diverged by step 1024 (of 40960)")
            if k:
                wait_for(failed)
                time.sleep(0.2)
            with open(log, "a") as fh:
                fh.write(f"{rows.start} {int(failed.exists())}\n")
            first(rows.start).touch()
            yield panel

    monkeypatch.setattr(ot.timedomain, "_panels", diverging)

    def counts():
        made, late = collections.Counter(), collections.Counter()
        for line in log.read_text().splitlines() if log.exists() else []:
            g, was_late = map(int, line.split())
            made[g] += 1
            late[g] += was_late
        return made, late

    return counts


# each run, and whether it runs in shards: the streamed run makes one shard
# a usable CPU, simulate makes one, in the calling process, whatever the CPUs
_RUNS = [pytest.param(ot.simulate, False, id="simulate"),
         pytest.param(lambda d, cfg: ot.run_comparison(d, cfg, 8), True, id="run_comparison")]


def _fails_in_its_shard(d, tmp_path, monkeypatch, forks, run, sharded, pick):
    """Run ``run`` at 3 usable CPUs with the shard ``pick(starts)`` of its
    shards diverging once the others have made a panel: its error reaches
    the caller, every child has been reaped, no thread or pipe is left, the
    failing shard makes no panel and each other shard makes at least one and
    at most one after the failure."""
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 3)
    starts = (0, 1, 2) if sharded else (0,)
    dt = ot.default_sim_config(d).dt
    cfg = short_cfg(d, n_traj=3, t_dur=40 * 1024 * dt)
    failing = pick(starts)
    counts = _fail_a_shard(monkeypatch, tmp_path, failing, starts)
    start, fds = threading.active_count(), _open_fds()
    with pytest.raises(SimulationError, match="state diverged by step 1024"):
        run(d, cfg)
    assert threading.active_count() == start
    assert len(forks.reaped()) == len(starts) - 1
    assert _open_fds() == fds
    made, late = counts()
    assert made[failing] == 0
    assert all(made[g] >= 1 and late[g] <= 1 for g in starts if g != failing)


@pytest.mark.skipif(not FORK, reason="the shard processes need fork")
@pytest.mark.parametrize("run, sharded", _RUNS)
def test_a_failing_shard_stops_the_others(d_lossy, tmp_path, monkeypatch, forks, run, sharded):
    # the last shard diverges: in the streamed run it is the last of three,
    # a child, and the caller, which runs the first shard, sees its error
    # before that shard's next panel; simulate's one shard is the caller's
    # own, and fails with no child forked
    _fails_in_its_shard(d_lossy, tmp_path, monkeypatch, forks, run, sharded,
                        pick=lambda starts: starts[-1])


@pytest.mark.skipif(not FORK, reason="the shard processes need fork")
@pytest.mark.parametrize("run, sharded", _RUNS)
def test_a_failing_first_shard_stops_the_children(d_lossy, tmp_path, monkeypatch, forks, run, sharded):
    # the first shard, in the calling process, diverges: in the streamed run
    # its error reaches the caller once both children are killed and reaped;
    # simulate has no children to stop
    _fails_in_its_shard(d_lossy, tmp_path, monkeypatch, forks, run, sharded,
                        pick=lambda starts: starts[0])


@pytest.mark.skipif(not FORK, reason="the shard processes need fork")
@pytest.mark.parametrize("run, sharded", _RUNS)
def test_a_killed_shard_process_fails_the_run_naming_it(d_lossy, tmp_path, monkeypatch, forks,
                                                         run, sharded):
    # at 2 usable CPUs any shard outside this process is killed at its first
    # panel: the streamed run's child, which runs trajectories 1-2, is, and
    # the run fails with one error naming it; simulate forks no shard that
    # could be killed, and runs to its end.  No child or pipe is left
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    panels, parent = ot.timedomain._panels, os.getpid()

    def killed(sampler, rows):
        if os.getpid() != parent:
            (tmp_path / "killed").write_text(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        yield from panels(sampler, rows)

    monkeypatch.setattr(ot.timedomain, "_panels", killed)
    fds = _open_fds()
    cfg = short_cfg(d_lossy, n_traj=3, dt=fine_dt(d_lossy))
    if sharded:
        with pytest.raises(ChildProcessError) as lost:
            run(d_lossy, cfg)
        assert str(lost.value) == (
            f"shard process {(tmp_path / 'killed').read_text()} (trajectories 1-2) ended "
            f"without a report (killed by signal {int(signal.SIGKILL)})")
        assert len(forks.reaped()) == 1
    else:
        run(d_lossy, cfg)
        assert not (tmp_path / "killed").exists()
        assert not forks
    assert _open_fds() == fds


def test_band_without_bins_is_refused_before_chunks_are_read(run_7001, monkeypatch):
    ts = run_7001
    omega = 2.0 * np.pi * np.fft.rfftfreq(ts.n_steps // 8, d=ts.dt)[1:]
    step = omega[11] - omega[10]
    between = (omega[10] + 0.25 * step, omega[10] + 0.75 * step)

    def no_simulation(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr(ot.timedomain, "default_band", lambda d, cfg: between)
    monkeypatch.setattr(ot.timedomain, "_step_operators", no_simulation)
    with pytest.raises(ValueError, match="does not overlap"):
        _plan(ts.d, ts.cfg, 8)
    with pytest.raises(ValueError, match="does not overlap"):
        ot.run_comparison(ts.d, ts.cfg, segments=8)


def test_welch_of_uneven_chunks_matches_one_chunk(run_7001):
    ts = run_7001
    seg_len = ts.n_steps // 8
    sizes = [1, 63, 1024, seg_len - 1, seg_len + 1]
    cuts = np.cumsum(sizes)
    assert cuts[-1] < ts.n_steps

    def welch(*shards):
        return _welch(ts.d, ts.cfg, ts.n_steps, 8, shards)

    def pieces(rows, cuts):
        return list(zip(np.split(ts.b_plus[rows], cuts, axis=1),
                        np.split(ts.b_minus[rows], cuts, axis=1)))

    want = welch((slice(0, 3), [(ts.b_plus, ts.b_minus)]))
    # one shard in uneven pieces, and two shards cut at different steps
    for got in (welch((slice(0, 3), pieces(slice(0, 3), cuts))),
                welch((slice(0, 1), pieces(slice(0, 1), cuts)),
                      (slice(1, 3), pieces(slice(1, 3), cuts[::2])))):
        assert np.array_equal(got.psd, want.psd)
        assert np.array_equal(got.omega, want.omega)
        assert (got.t_dur, got.n_ind) == (want.t_dur, want.n_ind)


@pytest.mark.parametrize("size", [1, 7, 1000])
def test_welch_of_pieces_of_any_length_matches_estimate_psd(run_7001, size):
    # segments of 875 complete at samples 875 + 437 k: pieces of 7 end on the
    # first of them, and the piece of 1000 over [1000, 2000) completes two
    ts = run_7001
    ends = range(875, 8 * 875 + 1, 437)
    assert 875 % 7 == 0 and sum(1000 <= e <= 2000 for e in ends) == 2
    cuts = np.arange(size, ts.n_steps, size)
    pieces = list(zip(np.split(ts.b_plus, cuts, axis=1), np.split(ts.b_minus, cuts, axis=1)))
    got = _welch(ts.d, ts.cfg, ts.n_steps, 8, [(slice(0, 3), pieces)])
    want = ot.estimate_psd(ts, segments=8)
    assert np.array_equal(got.psd, want.psd)
    assert np.array_equal(got.omega, want.omega)
    assert (got.rel_err, got.n_ind) == (want.rel_err, want.n_ind)


def test_streamed_run_reads_every_panel_of_every_shard(d_lossy, tmp_path, monkeypatch):
    # 8193 = 8 * 1024 + 1 steps: 33 panels, the last of one step, after the
    # last whole segment; every shard of a plain run (no dump) draws it too,
    # the second in a forked child, so each panel is logged to a file
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    panels, log = ot.timedomain._panels, tmp_path / "panels"

    def counted(sampler, rows):
        for panel in panels(sampler, rows):
            with open(log, "a") as fh:
                fh.write(f"{rows.start} {rows.stop}\n")
            yield panel

    monkeypatch.setattr(ot.timedomain, "_panels", counted)
    dt = ot.default_sim_config(d_lossy).dt
    ot.run_comparison(d_lossy, short_cfg(d_lossy, n_traj=3, t_dur=8193 * dt), segments=8)
    read = collections.Counter(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert read == {(0, 1): 33, (1, 3): 33}


@pytest.mark.parametrize("weight", ["optimal", 0.1 - 0.2j, "table"],
                         ids=["optimal", "fixed", "table"])
def test_estimate_psd_matches_plain_segment_slices(run_7001, weight):
    # reference without a ring buffer: slice each half-overlapped segment out
    # of the records (875 samples, one every 437: 15 of them), transform with
    # the physics sign e^{+i Omega t}, mix with sigma_weights at the weight the
    # records are combined with
    ts, segments = run_7001, 8
    n = ts.n_steps // segments
    starts = range(0, segments * n - n + 1, n // 2)
    assert len(starts) == 15
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    bins = slice(1, (n + 1) // 2)  # positive bins without DC and Nyquist
    omega = 2.0 * np.pi * np.arange(n)[bins] / (n * ts.dt)
    if weight == "table":  # one value per interior bin
        weight = np.linspace(-0.5, 0.5, omega.size) + 0.3j * np.cos(omega * ts.dt)
    wp, wm = sigma_weights(ts.d, omega, weight)
    power = np.zeros(omega.size)
    for s in starts:
        sl = slice(s, s + n)
        xp = ts.dt * n * np.fft.ifft(ts.b_plus[:, sl] * win, axis=1)[:, bins]
        xm = ts.dt * n * np.fft.ifft(ts.b_minus[:, sl] * win, axis=1)[:, bins]
        power += np.sum(np.abs(wp * xp + wm * xm) ** 2, axis=0)
    want = power / (ts.dt * np.sum(win**2) * len(starts) * ts.b_plus.shape[0])
    est = ot.estimate_psd(ts, segments=segments, y_policy=weight)
    np.testing.assert_allclose(est.omega, omega, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(est.psd - want) / want) <= 1e-13


@pytest.mark.parametrize("segments", [10, 20, 50])
def test_even_segments_error_bar_counts_the_half_overlap(run_7001, segments):
    # segments of 700, 350 and 140 samples, one every half segment: 2 segments
    # - 1 periodograms per trajectory, each correlated 1/6 with its neighbours
    # (the periodic Hann window at half overlap) and with nothing further off
    est = ot.estimate_psd(run_7001, segments=segments)
    k, n_traj = 2 * segments - 1, run_7001.cfg.n_traj
    assert est.n_ind == k * n_traj
    assert est.rel_err == pytest.approx(
        math.sqrt((1.0 + (k - 1) / (18.0 * k)) / (k * n_traj)), rel=1e-14, abs=0.0)


def test_odd_segments_hop_down_and_leave_the_tail_out(d_lossy):
    # 1212 samples in 8 segments of 151: one every 75 samples, 15 of them, the
    # last ending at sample 1201; the 11 samples after it are never read
    dt = ot.default_sim_config(d_lossy).dt
    ts = ot.simulate(d_lossy, short_cfg(d_lossy, n_traj=2, t_dur=1212 * dt))
    assert ts.n_steps == 1212
    plan = _plan(d_lossy, ts.cfg, 8)
    assert (plan.seg_len, plan.periodograms) == (151, 15)
    est = ot.estimate_psd(ts, segments=8)
    assert est.n_ind == 2 * 15
    poisoned = dataclasses.replace(ts, b_plus=ts.b_plus.copy(), b_minus=ts.b_minus.copy())
    poisoned.b_plus[:, 1201:] = np.nan
    poisoned.b_minus[:, 1201:] = np.nan
    assert np.array_equal(ot.estimate_psd(poisoned, segments=8).psd, est.psd)
    # every segment sliced out of the records at 75 * s
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(151) / 151)
    wp, wm = sigma_weights(ts.d, est.omega, "optimal")
    power = np.zeros(est.omega.size)
    for s in range(15):
        sl = slice(75 * s, 75 * s + 151)
        xp = ts.dt * 151 * np.fft.ifft(ts.b_plus[:, sl] * win, axis=1)[:, 1:76]
        xm = ts.dt * 151 * np.fft.ifft(ts.b_minus[:, sl] * win, axis=1)[:, 1:76]
        power += np.sum(np.abs(wp * xp + wm * xm) ** 2, axis=0)
    want = power / (ts.dt * np.sum(win**2) * 15 * 2)
    assert np.max(np.abs(est.psd - want) / want) <= 1e-13
    # the error bar counts the overlap of neighbours, 76 samples, and of
    # segments two hops apart, one sample where the window is zero
    rho = [np.dot(win[:151 - lag], win[lag:]) / np.dot(win, win) for lag in (75, 150)]
    assert rho[1] == 0.0
    v = 1.0 + 2.0 * (1.0 - 1.0 / 15) * rho[0] ** 2
    assert est.rel_err == pytest.approx(math.sqrt(v / 30), rel=1e-14, abs=0.0)


def test_default_run_is_the_first_trajectories_of_a_longer_one():
    # trajectory k draws from the k-th spawned seed whatever the count, so the
    # 36 trajectories of the default run are the first 36 of 64, to the bit
    d = oracle_derived("nonsym-lossy")
    cfg = ot.default_sim_config(d, seed=7)
    assert cfg.n_traj == 36
    short = ot.simulate(d, cfg)
    long = ot.simulate(d, dataclasses.replace(cfg, n_traj=64))
    assert np.array_equal(short.b_plus, long.b_plus[:36])
    assert np.array_equal(short.b_minus, long.b_minus[:36])


def test_streamed_comparison_memory_stays_below_records(d_lossy, child_peaks):
    # 8 trajectories x 86241 steps: the records would take 11.0 MB; the peak
    # counts this process's and every shard child's
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=8, t_dur=86_241 * dt)
    records_bytes = 2 * cfg.n_traj * 86_241 * 8
    ot.run_comparison(d_lossy, short_cfg(d_lossy, n_traj=1, dt=fine_dt(d_lossy)),
                      segments=16)  # warm caches
    tracemalloc.start()
    try:
        report, _, _ = ot.run_comparison(d_lossy, cfg, segments=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak += sum(child_peaks())
    assert report.n_bins > 0
    assert peak < 0.5 * records_bytes


def test_streamed_memory_stays_within_the_plan_whatever_the_shards(d_lossy, monkeypatch, child_peaks):
    # every shard holds its segment buffers, transforms and quarter at once, and
    # one periodogram row per trajectory and its running sum: together, the
    # calling process's peak and each shard child's, still within the plan's
    # working set, at one, two and four shards
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=8, t_dur=20_000 * dt)
    stream_bytes = _plan(d_lossy, cfg, 16).stream_bytes
    for cpus in (1, 2, 4):
        monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: cpus)
        ot.run_comparison(d_lossy, short_cfg(d_lossy, n_traj=cpus, dt=fine_dt(d_lossy)),
                          segments=16)  # warm caches
        child_peaks()
        tracemalloc.start()
        try:
            ot.run_comparison(d_lossy, cfg, segments=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        children = child_peaks()
        assert len(children) == (cpus - 1 if FORK else 0)
        assert peak + sum(children) <= stream_bytes


def test_streamed_memory_of_many_trajectories_stays_within_the_plan(d_lossy, child_peaks):
    # 128 trajectories in segments of 5000: the buffers of each trajectory's
    # segment dominate, and the plan counts both channels' segment and one
    # windowed channel; the peak, this process's and every shard child's
    # together, is 0.87 of the plan in one shard and 0.92 in two (each
    # process has its own fixed part), and a windowed copy of both channels
    # would take 1.05 of it in one
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=128, t_dur=40_000 * dt)
    stream_bytes = _plan(d_lossy, cfg, 8).stream_bytes
    ot.run_comparison(d_lossy, short_cfg(d_lossy, n_traj=1, t_dur=1100 * dt),
                      segments=8)  # warm caches
    tracemalloc.start()
    try:
        ot.run_comparison(d_lossy, cfg, segments=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak += sum(child_peaks())
    assert peak <= stream_bytes


def test_streamed_memory_of_a_tiny_run_stays_within_the_plan(d_lossy):
    # 1100 steps of one trajectory: the peak, 0.19 MB, is the step bound's
    # evaluation at 256 frequencies, whatever the run's size; the plan's fixed
    # 256 KiB counts it
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=1, t_dur=1100 * dt)
    stream_bytes = _plan(d_lossy, cfg, 16).stream_bytes
    ot.run_comparison(d_lossy, cfg, segments=16)  # warm caches
    tracemalloc.start()
    try:
        ot.run_comparison(d_lossy, cfg, segments=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= stream_bytes


def test_simulate_refuses_records_above_the_cap(d_lossy):
    # 64 trajectories x 5e6 steps would take 4.77 GiB of records
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=64, t_dur=5e6 * dt)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match=r"4\.77 GiB.*run_comparison"):
            ot.simulate(d_lossy, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_simulate_cap_counts_the_scan_panel(d_lossy, monkeypatch):
    # 1e6 trajectories x 200 steps: 2.98 GiB of records fit the cap, but the
    # scan buffers that fill them would take 38.15 GiB
    def no_panels(*args):
        raise AssertionError("panels started")

    monkeypatch.setattr(ot.timedomain, "_panels", no_panels)
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=10**6, t_dur=200 * dt)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match=r"2\.98 GiB and their scan buffers 38\.15 GiB"):
            ot.simulate(d_lossy, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_simulate_records_are_traced_memory_within_the_plan(d_lossy):
    # 8 trajectories x 1e5 steps: 12.8 MB of records, made in this process,
    # where tracemalloc sees them; the peak is at least 0.9 of the records and
    # at most the records, one quarter's scan buffers and the plan's fixed
    # 256 KiB of the streamed run (the step bound's frequencies and the scan's
    # operators)
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=8, t_dur=100_000 * dt)
    records = 16 * cfg.n_traj * 100_000
    ot.simulate(d_lossy, short_cfg(d_lossy, n_traj=8, t_dur=1024 * dt))  # warm caches
    tracemalloc.start()
    try:
        ts = ot.simulate(d_lossy, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ts.b_plus.shape == (8, 100_000)
    assert 0.9 * records <= peak <= records + 8 * cfg.n_traj * 20 * _QUARTER + 2**18


@pytest.mark.parametrize("n_traj, n_steps, streams", [(64, 5_000_000, True), (10**6, 200, False)])
def test_simulate_hints_at_streaming_only_where_the_records_break_the_cap(
        d_lossy, monkeypatch, n_traj, n_steps, streams):
    # 64 x 5e6 steps: 4.77 GiB of records over 2.6 MB of scan buffers, which a
    # streamed run holds easily; 1e6 x 200 steps: 2.98 GiB of records fit, but
    # the 38.15 GiB of scan buffers do not, and a streamed run would need them too
    def no_panels(*args):
        raise AssertionError("panels started")

    monkeypatch.setattr(ot.timedomain, "_panels", no_panels)
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=n_traj, t_dur=n_steps * dt)
    with pytest.raises(SimulationError) as refused:
        ot.simulate(d_lossy, cfg)
    assert ("run_comparison streams" in str(refused.value)) == streams
    if streams:
        _plan(d_lossy, cfg, 16)
    else:
        with pytest.raises(SimulationError, match="streamed run"):
            _plan(d_lossy, cfg, 16)


@pytest.mark.parametrize("overrides", [{"dt": 1e-10}, {"n_traj": 100_000}])
def test_streamed_run_refuses_working_set_above_the_cap(d_lossy, monkeypatch, overrides):
    # default duration: 5.7e8 steps of 36 trajectories, or 1.4e4 steps of 1e5
    # trajectories; the segment buffers alone would take 19 GiB (and the bin
    # weights of 1.8e7 bins about 6 GB), or the working set 7.68 GiB, 3.81 GiB
    # of it the scan buffers
    def no_simulation(*args):
        raise AssertionError("simulation started")

    cfg = ot.default_sim_config(d_lossy, **overrides)
    monkeypatch.setattr(ot.timedomain, "_step_operators", no_simulation)
    monkeypatch.setattr(ot.timedomain, "sigma_weights", no_simulation)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match=r"GiB \(cap 4 GiB\)"):
            ot.run_comparison(d_lossy, cfg, segments=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_compare_identity_passes(d_lossy):
    cfg = short_cfg(d_lossy, n_traj=2)
    ts = ot.simulate(d_lossy, cfg)
    est = ot.estimate_psd(ts, segments=8)
    band = default_band(d_lossy, cfg)
    analytic = ot.timedomain.analytic_records_for(d_lossy, est, band)
    sel = (est.omega >= band[0]) & (est.omega <= band[1])
    forged = dataclasses.replace(est, psd=est.psd.copy())
    forged.psd[sel] = analytic.s_f
    rep = ot.compare(analytic, forged, band)
    assert rep.passed
    assert rep.frac_within_3sigma == 1.0
    assert rep.chi2_reduced == 0.0
    assert rep.median_ratio == 1.0
    assert "PASS" in rep.format()


def test_compare_rejects_misscaled(d_lossy):
    cfg = short_cfg(d_lossy, n_traj=4, t_dur=0.004)
    ts = ot.simulate(d_lossy, cfg)
    est = ot.estimate_psd(ts, segments=8)
    band = default_band(d_lossy, cfg)
    analytic = ot.timedomain.analytic_records_for(d_lossy, est, band)
    doubled = dataclasses.replace(analytic, s_f=2.0 * analytic.s_f)
    rep = ot.compare(doubled, est, band)
    assert not rep.passed
    assert "FAIL" in rep.format()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 255, 256, 1001, 1024])
def test_median_matches_numpy_to_the_bit(n):
    rng = np.random.default_rng(n)
    for x in (rng.normal(1.0, 0.05, n), rng.lognormal(0.0, 30.0, n),
              np.full(n, rng.normal()), rng.integers(-3, 3, n).astype(float)):
        want = np.median(x)
        assert np.float64(_median(x)).tobytes() == np.float64(want).tobytes()
        x[rng.integers(n)] = np.nan
        assert np.isnan(_median(x)) and np.isnan(np.median(x))


def test_compare_band_guards(d_lossy):
    cfg = short_cfg(d_lossy, n_traj=2)
    ts = ot.simulate(d_lossy, cfg)
    est = ot.estimate_psd(ts, segments=8)
    with pytest.raises(ValueError, match="resolvable"):
        ot.compare([], est, (1.0, 10.0))
    with pytest.raises(ValueError, match="does not overlap"):
        ot.compare([], est, (1e9, 2e9))
    band = default_band(d_lossy, cfg)
    with pytest.raises(ValueError, match="band bins"):
        ot.compare(ot.spectrum_sweep(d_lossy, []), est, band)


def test_monte_carlo_agreement_smoke(d_sym):
    # reduced-statistics version of the acceptance run
    cfg = ot.default_sim_config(d_sym, seed=3, n_traj=8, t_dur=0.015)
    report, est, analytic = ot.run_comparison(d_sym, cfg, segments=8)
    assert report.passed
    assert abs(report.median_ratio - 1.0) < 0.08


def test_backaction_signature():
    # strong pump makes the y = 0 penalty visible above the estimator noise
    p = ot.variant(ot.table1_preset(), pump_mult=1000.0)
    d = ot.derive(p)
    cfg = ot.default_sim_config(d, seed=11, n_traj=16, t_dur=0.03)
    ts = ot.simulate(d, cfg)
    est_opt = ot.estimate_psd(ts, segments=16)
    est0 = ot.estimate_psd(ts, segments=16, y_policy=0.0)
    band = default_band(d, cfg)
    sel = (est_opt.omega >= band[0]) & (est_opt.omega <= band[1])
    om = est_opt.omega[sel]
    c = ot.coeffs(d, om)
    s_opt = np.asarray(ot.s_qu(c, d, y_opt_analytic(c, d)))
    s_zero = np.asarray(ot.s_qu(c, d, 0.0))
    excess_ana = s_zero - s_opt
    strong = excess_ana > 0.2 * s_opt
    assert strong.sum() > 10
    assert np.all(est0.psd[sel][strong] > est_opt.psd[sel][strong])
    ratio_strong = (est0.psd[sel][strong] - est_opt.psd[sel][strong]) / excess_ana[strong]
    assert 0.7 < np.median(ratio_strong) < 1.3
    band_mean = np.sum(est0.psd[sel] - est_opt.psd[sel]) / np.sum(excess_ana)
    assert 0.8 < band_mean < 1.25


def test_default_band(d_lossy):
    cfg = short_cfg(d_lossy)
    lo, hi = default_band(d_lossy, cfg)
    t_rec = int(round(cfg.t_dur / cfg.dt)) * cfg.dt  # actual record length
    assert lo == pytest.approx(100.0 * 2.0 * np.pi / t_rec, rel=1e-12)
    assert hi <= 2.0 * np.pi * 10.0 / d_lossy.phys.tau


def test_raw_channel_spectra_match_transfer_model(d_lossy):
    # independent check of the integrator: the single-channel densities follow
    # from the output expansion, a different combination than the weighted sum
    d = d_lossy
    cfg = ot.default_sim_config(d, seed=7, n_traj=8, t_dur=0.01)
    ts = ot.simulate(d, cfg)
    segs = 8
    om, psd_p = welch_psd(ts.b_plus, ts.dt, segs)
    _, psd_m = welch_psd(ts.b_minus, ts.dt, segs)
    sel = om > 200.0 * 2.0 * np.pi / cfg.t_dur
    om = om[sel]
    c = ot.coeffs(d, om)
    p = d.phys
    st = ot.s_thermal(d)
    pref_p = np.abs(c.a_plus / (c.gm_tot - 1j * om)) ** 2
    pref_m = np.abs(c.a_minus / (c.gm_tot - 1j * om)) ** 2
    sb_p = pref_p * (
        np.abs(c.b_plus - c.a_plus) ** 2 + np.abs(c.a_minus) ** 2
        + (p.gamma_e_plus / p.gamma0_plus) * np.abs(c.be_plus - c.a_plus) ** 2
        + (p.gamma_e_minus / p.gamma0_minus) * np.abs(c.a_minus) ** 2 + st
    )
    sb_m = pref_m * (
        np.abs(c.b_minus + c.a_minus) ** 2 + np.abs(c.a_plus) ** 2
        + (p.gamma_e_minus / p.gamma0_minus) * np.abs(c.be_minus + c.a_minus) ** 2
        + (p.gamma_e_plus / p.gamma0_plus) * np.abs(c.a_plus) ** 2 + st
    )
    n_ind = segs * cfg.n_traj
    for est, ana in ((psd_p[sel], sb_p), (psd_m[sel], sb_m)):
        ratio = est / ana
        assert abs(np.median(ratio) - 1.0) < 0.05
        assert np.mean(np.abs(ratio - 1.0) <= 4.0 / np.sqrt(n_ind)) > 0.9


def test_sigma_weights_give_unit_signal_coefficient(d_lossy):
    # W+ b+ + W- b- assembles the combination whose force coefficient is one:
    # checked through the identity W+ A+ - W- A- = -(gm_tot - i Omega)
    om = np.geomspace(1e3, 7e5, 9)
    c = ot.coeffs(d_lossy, om)
    wp, wm = sigma_weights(d_lossy, om, 0.25 - 0.1j)
    chi = c.gm_tot - 1j * om
    np.testing.assert_allclose(wm * c.a_minus - wp * c.a_plus, chi, rtol=1e-12)


def test_system_matrices_shapes(d_lossy):
    drift, f_in, intens, c_out, e_sel = _system_matrices(d_lossy, True)
    assert drift.shape == (3, 3)
    assert f_in.shape == (3, 5)
    assert intens.shape == (5, 5)
    assert c_out.shape == (2, 3)
    assert e_sel.shape == (2, 5)
    assert intens[4, 4] == pytest.approx(d_lossy.n_t + 0.5)

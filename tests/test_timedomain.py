import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm, solve_continuous_lyapunov

import optotriplet as ot
from optotriplet.optimizer import y_opt_analytic
from optotriplet.timedomain import (
    _THETA13,
    SimulationError,
    _expm,
    _factor_psd,
    _lyapunov,
    _step_operators,
    _system_matrices,
    _welch,
    _welch_segments,
    default_band,
    sigma_weights,
)


@pytest.fixture(scope="module")
def d_lossy():
    return ot.derive(ot.table1_preset())


@pytest.fixture(scope="module")
def d_sym():
    return ot.derive(ot.variant(ot.table1_preset(), symmetric=True, lossless=True))


def short_cfg(d, **kw):
    kw.setdefault("n_traj", 4)
    kw.setdefault("t_dur", 0.002)
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
    seg_len, win, keep, omega = _welch_segments(x.shape[-1], dt, segments)
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
    cfg8 = short_cfg(d_sym, n_traj=8)
    cfg32 = short_cfg(d_sym, n_traj=32)
    e8 = ot.estimate_psd(ot.simulate(d_sym, cfg8), segments=8)
    e32 = ot.estimate_psd(ot.simulate(d_sym, cfg32), segments=8)
    assert e32.rel_err == pytest.approx(0.5 * e8.rel_err, rel=1e-12)
    assert e8.n_ind == 64 and e32.n_ind == 256


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


@pytest.mark.parametrize("dt_mult", [1, 8])
@pytest.mark.parametrize("scenario", ["sym-lossless", "nonsym-lossy"])
def test_step_operators_match_quadrature(scenario, dt_mult):
    # every operator against adaptive quadrature of its explicit integrand,
    # built from exp(M s) and K(s) = int_0^s exp(M v) dv alone
    d = ot.derive(ot.ORACLE_SCENARIOS[scenario].apply(ot.table1_preset()))
    dt = dt_mult * ot.default_sim_config(d).dt
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
    dt = dt_mult * ot.default_sim_config(d).dt
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


def test_factor_psd_clips_only_rounding_noise():
    v = np.array([[1.0, 2.0, 3.0], [2.0, -1.0, 0.5], [0.3, 0.1, 1.0]])
    rounded = v.T @ np.diag([1.0, 0.5, -1e-15]) @ v  # Cholesky fails here
    factor = _factor_psd(rounded)
    np.testing.assert_allclose(factor @ factor.T, rounded, atol=1e-12)
    indefinite = v.T @ np.diag([1.0, 0.5, -1e-6]) @ v
    with pytest.raises(SimulationError, match="negative eigenvalue mass"):
        _factor_psd(indefinite)


def test_dt_bound_rejected_upfront(d_lossy):
    bound = ot.stability_dt(d_lossy)
    with pytest.raises(SimulationError, match="stability"):
        ot.simulate(d_lossy, dataclasses.replace(short_cfg(d_lossy), dt=2.0 * bound))


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
    cfg = short_cfg(d_lossy, n_traj=2)
    ts = ot.simulate(d_lossy, cfg)
    sig = ts.sigma_timeseries()
    assert sig.shape == ts.b_plus.shape
    assert np.isrealobj(sig)
    path = tmp_path / "series.txt"
    ts.dump_text(path)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["time", "b_plus_a", "b_minus_a"]
    assert len(lines) == ts.n_steps + 1


# --- estimator + comparison ------------------------------------------------------

def test_estimate_psd_guards(d_lossy, monkeypatch):
    ts = ot.simulate(d_lossy, short_cfg(d_lossy, n_traj=2))
    with pytest.raises(ValueError, match="segments"):
        ot.estimate_psd(ts, segments=4)
    tiny = dataclasses.replace(ts, b_plus=ts.b_plus[:, :400], b_minus=ts.b_minus[:, :400])
    with pytest.raises(ValueError, match="too short"):
        ot.estimate_psd(tiny, segments=8)

    # the streamed run is rejected by the same guards before any simulation work
    def no_simulation(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr(ot.timedomain, "_step_operators", no_simulation)
    cfg = short_cfg(d_lossy, n_traj=2)
    with pytest.raises(ValueError, match="segments"):
        ot.run_comparison(d_lossy, cfg, segments=4)
    with pytest.raises(ValueError, match="too short"):
        ot.run_comparison(d_lossy, cfg, segments=ts.n_steps // 63)
    with pytest.raises(ValueError, match="too short for any comparison band"):
        ot.run_comparison(d_lossy, short_cfg(d_lossy, t_dur=8e-4), segments=8)


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
    assert np.array_equal(got.psd, want.psd)
    assert np.array_equal(got.omega, want.omega)
    assert (got.t_dur, got.t_seg, got.n_ind) == (want.t_dur, want.t_seg, want.n_ind)
    assert report == ot.run_comparison(d_lossy, cfg, segments=8, records=ts)[0]


@pytest.fixture(scope="module")
def run_7001(d_lossy):
    # 7001 = 8 * 875 + 1 steps of 3 trajectories, with a pulse across step 1024
    dt = ot.default_sim_config(d_lossy).dt
    pulse = ot.SignalPulse(force_amp=1e-15, duration=60 * dt, t_start=1000 * dt)
    return ot.simulate(d_lossy, short_cfg(d_lossy, n_traj=3, t_dur=7001 * dt, signal=pulse))


def test_welch_of_uneven_chunks_matches_one_chunk(run_7001):
    ts = run_7001
    seg_len = ts.n_steps // 8
    sizes = [1, 63, 1024, seg_len - 1, seg_len + 1]
    cuts = np.cumsum(sizes)
    assert cuts[-1] < ts.n_steps

    def welch(chunks):
        return _welch(ts.d, ts.cfg, ts.n_steps, 8, chunks)

    pieces = zip(np.split(ts.b_plus, cuts, axis=1), np.split(ts.b_minus, cuts, axis=1))
    got = welch(pieces)
    want = welch([(ts.b_plus, ts.b_minus)])
    assert np.array_equal(got.psd, want.psd)
    assert np.array_equal(got.omega, want.omega)
    assert (got.t_dur, got.t_seg, got.n_ind) == (want.t_dur, want.t_seg, want.n_ind)


def test_estimate_psd_matches_plain_segment_slices(run_7001):
    # reference without a refill buffer: slice each segment out of the records,
    # transform with the physics sign e^{+i Omega t}, mix with sigma_weights
    ts, segments = run_7001, 8
    n = ts.n_steps // segments
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    bins = slice(1, (n + 1) // 2)  # positive bins without DC and Nyquist
    omega = 2.0 * np.pi * np.arange(n)[bins] / (n * ts.dt)
    wp, wm = sigma_weights(ts.d, omega, ts.cfg.y_policy)
    power = np.zeros(omega.size)
    for s in range(segments):
        sl = slice(s * n, (s + 1) * n)
        xp = ts.dt * n * np.fft.ifft(ts.b_plus[:, sl] * win, axis=1)[:, bins]
        xm = ts.dt * n * np.fft.ifft(ts.b_minus[:, sl] * win, axis=1)[:, bins]
        power += np.sum(np.abs(wp * xp + wm * xm) ** 2, axis=0)
    want = power / (ts.dt * np.sum(win**2) * segments * ts.b_plus.shape[0])
    est = ot.estimate_psd(ts, segments=segments)
    np.testing.assert_allclose(est.omega, omega, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(est.psd - want) / want) <= 1e-13


def test_streamed_comparison_memory_stays_below_records(d_lossy):
    # 8 trajectories x 86241 steps: the records would take 11.0 MB
    dt = ot.default_sim_config(d_lossy).dt
    cfg = short_cfg(d_lossy, n_traj=8, t_dur=86_241 * dt)
    records_bytes = 2 * cfg.n_traj * 86_241 * 8
    ot.run_comparison(d_lossy, short_cfg(d_lossy, n_traj=1), segments=16)  # warm caches
    tracemalloc.start()
    try:
        report, _, _ = ot.run_comparison(d_lossy, cfg, segments=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_bins > 0
    assert peak < 0.5 * records_bytes


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


@pytest.mark.parametrize("overrides", [{"dt": 1e-10}, {"n_traj": 100_000}])
def test_streamed_run_refuses_working_set_above_the_cap(d_lossy, monkeypatch, overrides):
    # default duration: 5.7e8 steps of 64 trajectories, or 1.6e5 steps of 1e5
    # trajectories; the segment buffers alone would take 34 GiB or 15 GiB, and
    # the bin weights of 1.8e7 bins about 6 GB
    def no_simulation(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr(ot.timedomain, "_step_operators", no_simulation)
    monkeypatch.setattr(ot.timedomain, "sigma_weights", no_simulation)
    cfg = ot.default_sim_config(d_lossy, **overrides)
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
    ts0 = dataclasses.replace(ts, cfg=dataclasses.replace(cfg, y_policy=0.0))
    est0 = ot.estimate_psd(ts0, segments=16)
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

"""Property-based checks of the analytic engine, the scenario variants, the
config parser, the oracle's run plan, its default and explicit steps and its
state-space density."""

import dataclasses
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optotriplet as ot
from optotriplet.optimizer import y_opt_analytic
from optotriplet.params import load_config, parse_config_text
from optotriplet.scenarios import sweep_grid_spec
from optotriplet.timedomain import (
    _MAX_RECORD_BYTES,
    _QUARTER,
    _STEP_GAP,
    RunRangeError,
    SimulationError,
    _band_bins,
    _band_top,
    _plan,
    _step_gap,
    _system_matrices,
    sigma_weights,
)

_BASE = ot.table1_preset()
DERIVED = [ot.derive(s.apply(_BASE)) for s in ot.SWEEP_SCENARIOS.values()]

derived = st.sampled_from(DERIVED)
omegas = st.floats(min_value=0.0, max_value=1e10, allow_nan=False, allow_infinity=False)
weights = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
probes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)

PROPERTY = settings(max_examples=100, deadline=None)

_CONFIG_KEYS = [f.name for f in dataclasses.fields(ot.PhysParams)]
_SCALED = ("m", "omega_m", "Q", "T", "tau", "L", "wavelength",
           "gamma0", "gamma0_plus", "gamma0_minus", "p_in")


@st.composite
def phys_params(draw, zeros=False):
    """Valid parameter sets around the preset; every loss rate stays below gamma0,
    so the symmetric variant is valid too.  With ``zeros``, each loss rate and
    ``T`` is also drawn exactly zero."""
    scale = st.floats(min_value=0.1, max_value=10.0)
    loss = st.floats(min_value=0.0, max_value=0.99)
    if zeros:
        loss = st.one_of(st.just(0.0), loss)
    values = {name: getattr(_BASE, name) * draw(scale) for name in _SCALED}
    if zeros and draw(st.booleans()):
        values["T"] = 0.0
    for name in ("gamma_e", "gamma_e_plus", "gamma_e_minus"):
        values[name] = draw(loss) * values["gamma0"]
    for name in ("eps_plus", "eps_minus"):
        values[name] = draw(st.floats(min_value=0.05, max_value=1.95))
    return ot.PhysParams(**values)


@PROPERTY
@given(d=derived, omega=omegas)
def test_coeffs_conjugate_symmetric(d, omega):
    pos, neg = ot.coeffs(d, omega), ot.coeffs(d, -omega)
    for f in dataclasses.fields(pos):
        if f.name == "omega":
            continue
        assert getattr(neg, f.name) == np.conj(getattr(pos, f.name)), f.name


@PROPERTY
@given(d=derived, omega=omegas, y=weights)
def test_s_qu_non_negative(d, omega, y):
    assert ot.s_qu(ot.coeffs(d, omega), d, y) >= 0.0


@PROPERTY
@given(d=derived, omega=omegas, delta=probes)
def test_y_opt_is_the_minimiser(d, omega, delta):
    c = ot.coeffs(d, omega)
    y_opt = y_opt_analytic(c, d)
    s_min = ot.s_qu(c, d, y_opt)
    # only rounding may make a probe look lower
    assert ot.s_qu(c, d, y_opt + delta) >= s_min * (1.0 - 1e-12)


@PROPERTY
@given(p=phys_params(), symmetric=st.booleans(), pump=st.floats(min_value=0.1, max_value=100.0))
def test_lossless_variant_keeps_total_half_widths(p, symmetric, pump):
    lossy = ot.variant(p, symmetric=symmetric, pump_mult=pump)
    lossless = ot.variant(p, symmetric=symmetric, lossless=True, pump_mult=pump)
    assert lossless.gamma_e == lossless.gamma_e_plus == lossless.gamma_e_minus == 0.0
    # a sweep formats the columns of tau and gamma_m once for all its scenarios
    for v in (lossy, lossless):
        assert (v.tau, v.omega_m, v.Q) == (p.tau, p.omega_m, p.Q)
    d0, d1 = ot.derive(lossy), ot.derive(lossless)
    assert d1.gamma_plus == d0.gamma_plus
    assert d1.gamma_minus == d0.gamma_minus
    if not symmetric:
        assert d1.gamma_plus == ot.derive(p).gamma_plus
        assert d1.gamma_minus == ot.derive(p).gamma_minus


@PROPERTY
@given(p=phys_params(), omitted=st.sets(st.sampled_from(_CONFIG_KEYS)))
def test_config_round_trip(p, omitted):
    def text(keys):
        return "# written with repr\n" + "".join(
            f"{k} = {getattr(p, k)!r}  # {k}\n" for k in keys)

    full = {k: getattr(p, k) for k in _CONFIG_KEYS}
    assert parse_config_text(text(_CONFIG_KEYS)) == full
    kept = [k for k in _CONFIG_KEYS if k not in omitted]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sensor.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text(_CONFIG_KEYS))
        assert load_config(path) == p
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text(kept))
        # omitted keys come from the preset
        assert load_config(path, use_preset_defaults=True) == dataclasses.replace(
            ot.table1_preset(), **{k: full[k] for k in kept})


def _log_floats(lo, hi):
    """Floats ``10**e`` for exponents drawn uniformly in ``[lo, hi]``."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


# dt from subnormal to 1 ks, or near the oracle's own steps; t_dur over the
# whole float range, so that t_dur / dt overflows, or within 1e12 steps;
# n_traj up to 1e18; segments from negative to 1e9 (each also drawn from the
# oracle's own range, so that plans are returned too), or none, for the
# records alone
@settings(max_examples=500, deadline=None)
@given(d=derived, dt=st.one_of(_log_floats(-323.0, 3.0), _log_floats(-9.0, -6.0)),
       data=st.data(),
       n_traj=st.one_of(_log_floats(0.0, 18.0).map(int), st.integers(1, 64)),
       segments=st.one_of(st.integers(-10, 64), _log_floats(0.0, 9.0).map(int), st.none()))
def test_plan_returns_a_bounded_plan_or_refuses(d, dt, data, n_traj, segments):
    t_dur = data.draw(st.one_of(_log_floats(-323.0, 308.25),
                                _log_floats(-1.0, 12.0).map(lambda steps: dt * steps)))
    tracemalloc.start()
    try:
        try:
            cfg = ot.SimConfig(dt=dt, t_dur=t_dur, n_traj=n_traj)
            plan = _plan(d, cfg, segments)
        except (SimulationError, ValueError):
            plan = None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    if plan is not None:
        if segments is None:  # the records and one quarter's scan buffers fit the cap
            assert 16 * n_traj * plan.n_steps + 8 * n_traj * 20 * _QUARTER <= _MAX_RECORD_BYTES
        else:
            assert plan.stream_bytes <= _MAX_RECORD_BYTES
            assert 1 <= plan.bins.start < plan.bins.stop <= (plan.seg_len + 1) // 2
        assert plan.step_gap <= _STEP_GAP  # the step bound ran inside the traced plan


def _is_5_smooth(n):
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1


@PROPERTY
@given(p=phys_params())
def test_default_step_is_the_largest_the_step_bound_admits(p):
    # 16 segments of a 5-smooth length, never under 64 samples; the plan
    # refuses only a drift that is not stable or a duration (2e4 mechanical
    # periods) too short for the band, never the step; and the next 5-smooth
    # segment length down would clip the band's top edge or break the bound
    d = ot.derive(p)
    cfg = ot.default_sim_config(d)
    n_steps = round(cfg.t_dur / cfg.dt)
    assert n_steps % 16 == 0 and _is_5_smooth(n_steps // 16) and n_steps // 16 >= 64
    try:
        plan = _plan(d, cfg, 16)
    except SimulationError as exc:
        assert any(why in str(exc) for why in (
            "drift matrix is not stable", "too short for any comparison band", "does not overlap"))
        return
    assert plan.n_steps == n_steps and plan.step_gap <= _STEP_GAP
    coarser = n_steps // 16 - 1
    while coarser >= 64 and not _is_5_smooth(coarser):
        coarser -= 1
    if coarser >= 64:
        dt = cfg.t_dur / (16 * coarser)
        assert (_band_top(d, dt) < 2.0 * np.pi * 10.0 / p.tau
                or _step_gap(d, dt) > _STEP_GAP)


@settings(max_examples=200, deadline=None)
@given(p=phys_params(zeros=True), dt=_log_floats(-14.0, -8.0), seed=st.integers(0, 2**32))
def test_explicit_steps_give_finite_records_or_refuse(p, dt, seed):
    # 300 steps of one trajectory at any step from 1e-14 to 1e-8 s, zero loss
    # rates and T = 0 included: finite records, or a refusal (an unstable
    # drift, the step bound, a step covariance singular in floats), never a
    # NaN and never a warning
    d = ot.derive(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ts = ot.simulate(d, ot.SimConfig(dt=dt, t_dur=300 * dt, n_traj=1, seed=seed))
        except SimulationError:  # RunRangeError included
            return
    assert ts.n_steps == 300
    assert np.all(np.isfinite(ts.b_plus)) and np.all(np.isfinite(ts.b_minus))


@PROPERTY
@given(seg_len=st.integers(64, 5000), dt=_log_floats(-9.0, -3.0), data=st.data())
def test_band_bins_are_the_bins_searchsorted_finds(seg_len, dt, data):
    # band edges on bin frequencies exactly, or anywhere up to past the last bin
    omega = 2.0 * np.pi * np.fft.rfftfreq(seg_len, d=dt)[1:(seg_len + 1) // 2]
    edge = st.one_of(st.sampled_from(omega.tolist()),
                     st.floats(min_value=0.0, max_value=1.2 * omega[-1]))
    lo, hi = sorted([data.draw(edge), data.draw(edge)])
    start = int(np.searchsorted(omega, lo, side="left"))
    stop = int(np.searchsorted(omega, hi, side="right"))
    if start == stop:
        with pytest.raises(RunRangeError, match="does not overlap"):
            _band_bins(seg_len, dt, (lo, hi))
    else:
        assert _band_bins(seg_len, dt, (lo, hi)) == slice(1 + start, 1 + stop)


def state_space_density(d, omega, y):
    """``w H Q H^H w^H`` with ``H = C (-i omega I - A)^-1 F - E`` from the
    matrices the sampler integrates, and ``w`` the weights of ``sigma_weights``."""
    drift, f_in, intens, c_out, e_sel = _system_matrices(d, True)
    resolvent = np.linalg.solve(-1j * omega[:, None, None] * np.eye(3) - drift, f_in)
    h = c_out @ resolvent - e_sel
    wp, wm = sigma_weights(d, omega, y)
    wh = wp[:, None] * h[:, 0] + wm[:, None] * h[:, 1]
    return np.einsum("ni,ij,nj->n", wh, intens, wh.conj())


@pytest.mark.parametrize("scen, grid", [
    pytest.param(scen, grid, id=scen.name)
    for scenarios, grid in (
        (ot.SWEEP_SCENARIOS, ot.make_grid(_BASE.tau, **sweep_grid_spec(_BASE.tau))),
        (ot.ORACLE_SCENARIOS, ot.make_grid(_BASE.tau)))
    for scen in scenarios.values()])
def test_state_space_density_matches_the_sweep(scen, grid):
    # the sampled matrices and the closed-form coefficients agree without any
    # sampling noise; the worst error measured is 9.7e-15 (fig2-nonsym-10P)
    d = ot.derive(scen.apply(_BASE))
    table = ot.spectrum_sweep(d, grid)
    density = state_space_density(d, table.omega, table.y)
    assert np.max(np.abs(density - table.s_f) / table.s_f) <= 1e-12


@PROPERTY
@given(p=phys_params(), omega=omegas)
def test_state_space_density_matches_the_sweep_everywhere(p, omega):
    # worst error over 2000 draws: 1.0e-13, at omega = 0 with eps near 0.05
    d = ot.derive(p)
    table = ot.spectrum_sweep(d, [omega])
    density = state_space_density(d, table.omega, table.y)
    assert abs(density[0] - table.s_f[0]) <= 1e-12 * table.s_f[0]

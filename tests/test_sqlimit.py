import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import optotriplet as ot
from optotriplet.sqlimit import band_integral

# hand-evaluated budget for the default pulse (tau = 30 mechanical periods)
F_SQL_TABLE1 = 2.1401708404290644e-13
F_MIN_TABLE1 = 2.173021128959711e-13
F_ALT_TABLE1 = 2.841664301073355e-13
THERMAL_TERM = 30548079.14834996
SQL_TERM = 987512987.1941854


@pytest.fixture(scope="module")
def d():
    return ot.derive(ot.table1_preset())


def band_integral_check(d, k_gain, tau=None):
    """Relative deviation between quadrature and the closed-form band integral.

    Integrates :func:`optotriplet.s_fa` numerically over ``[0, 2 pi/tau]``
    with the ``dOmega/(2 pi)`` measure and compares against
    :func:`band_integral`.  Returns the relative deviation (expected at
    quadrature precision, well below 1e-6).
    """
    if tau is None:
        tau = d.phys.tau
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau!r}")
    if k_gain <= 0.0:
        raise ValueError(f"measurement strength must be > 0, got {k_gain!r}")
    hi = 2.0 * math.pi / tau
    value, abserr = quad(
        lambda om: ot.s_fa(k_gain, d.gamma_m, d.n_t, om), 0.0, hi, epsabs=0.0, epsrel=1e-12,
        limit=200,
    )
    value /= 2.0 * math.pi
    closed = band_integral(d.gamma_m, d.n_t, k_gain, tau)
    if abserr / (2.0 * math.pi) > 1e-8 * abs(closed):
        raise ArithmeticError(
            f"band quadrature did not converge (abserr {abserr:.3g} vs value {closed:.3g})"
        )
    return abs(value - closed) / abs(closed)


def test_s_fa_am_gm_equality():
    rng = np.random.default_rng(20)
    for _ in range(50):
        gm = 10.0 ** rng.uniform(-4, 1)
        nt = 10.0 ** rng.uniform(-1, 7)
        om = 10.0 ** rng.uniform(-2, 6)
        k_star = math.sqrt(gm**2 + om**2)
        target = 2.0 * gm * (nt + 0.5) + ot.s_sql(gm, om)
        assert ot.s_fa(k_star, gm, nt, om) == pytest.approx(target, rel=1e-14)
        for k in (0.1 * k_star, 3.7 * k_star, 100.0 * k_star):
            assert ot.s_fa(k, gm, nt, om) >= target


def test_s_fa_limits():
    # vacuum bath, vanishing damping, optimal strength: the SQL in pure form
    om = 1234.5
    val = ot.s_fa(math.sqrt(1e-12**2 + om**2), 1e-12, 0.0, om)
    assert val == pytest.approx(2.0 * om, rel=1e-9)
    assert ot.s_fa(1e9, 1.0, 0.0, 10.0) == pytest.approx(1e9, rel=1e-6)
    with pytest.raises(ValueError):
        ot.s_fa(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ot.s_fa(-2.0, 1.0, 0.0, 1.0)


def test_min_force_table1(d):
    budget = ot.min_force(d)
    assert budget.tau == d.phys.tau
    assert budget.thermal_term == pytest.approx(THERMAL_TERM, rel=1e-12)
    assert budget.sql_term == pytest.approx(SQL_TERM, rel=1e-12)
    assert budget.force_sql == pytest.approx(F_SQL_TABLE1, rel=1e-12)
    assert budget.force_min == pytest.approx(F_MIN_TABLE1, rel=1e-12)
    assert budget.force_alt == pytest.approx(F_ALT_TABLE1, rel=1e-12)
    assert budget.f_min_norm == pytest.approx(math.sqrt(THERMAL_TERM + SQL_TERM), rel=1e-12)
    text = budget.format()
    assert "N" in text and "thermal" in text


def test_flat_sql_estimate_ratio(d):
    # the two quantum terms differ by exactly sqrt(3)
    budget = ot.min_force(d)
    flat_quantum = 4.0 * math.pi / budget.tau**2
    assert flat_quantum / budget.sql_term == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_thermal_dominated_scaling(d):
    # 4x occupancy doubles the force when the thermal term dominates
    tau = 0.02  # thermal term ~ 1/tau outruns the quantum ~ 1/tau^2 here
    hot = dataclasses.replace(d, n_t=4.0 * d.n_t)
    b1, b4 = ot.min_force(d, tau), ot.min_force(hot, tau)
    assert b1.thermal_term > 5.0 * b1.sql_term
    assert b4.force_min / b1.force_min == pytest.approx(2.0, rel=0.1)


def test_tau_scaling(d):
    # longer pulses help while the quantum term dominates
    cold = dataclasses.replace(d, n_t=0.0)
    taus = np.geomspace(1e-6, 1e-4, 6)
    forces = [ot.min_force(cold, t).force_min for t in taus]
    assert all(b < a for a, b in zip(forces, forces[1:]))
    # lengthening the window flips the budget to thermal-dominated; the
    # crossover for the default parameters sits near 32 windows
    b1 = ot.min_force(d)
    b10 = ot.min_force(d, 10.0 * d.phys.tau)
    b50 = ot.min_force(d, 50.0 * d.phys.tau)
    assert b10.thermal_term / b10.sql_term == pytest.approx(
        10.0 * b1.thermal_term / b1.sql_term, rel=1e-12
    )
    assert b50.thermal_term > b50.sql_term


def test_mass_scaling(d):
    heavy = ot.derive(dataclasses.replace(d.phys, m=100.0 * d.phys.m))
    assert ot.min_force(heavy).force_sql == pytest.approx(10.0 * F_SQL_TABLE1, rel=1e-12)


def test_min_force_guards(d):
    with pytest.raises(ValueError):
        ot.min_force(d, 0.0)
    with pytest.raises(ValueError):
        ot.min_force(d, -1.0)
    slow = dataclasses.replace(d, gamma_m=1e4)
    with pytest.warns(UserWarning, match="short-pulse"):
        ot.min_force(slow, 1.0)


@pytest.mark.parametrize("tau", [1e-160, 1e-200, 1e155, 1e300, math.inf])
def test_min_force_refuses_a_budget_that_is_not_finite(d, tau):
    # 2 pi / tau^2 overflows at 1e-160 s, and tau^2 underflows to zero at 1e-200 s;
    # tau^2 overflows from about 1.3e154 s, and at infinity the budget would be 0 N
    with pytest.raises(ValueError, match=re.escape(f"tau = {tau!r} s is not finite")):
        ot.min_force(d, tau)


def test_band_integral_closed_form_zero_damping():
    # with gamma_m = 0 only the mean-square-frequency and flat terms survive
    k, tau = 37.0, 2.5e-4
    expected = ((1.0 / 3.0) * (2.0 * math.pi / tau) ** 2 / k + k) / tau
    assert band_integral(0.0, 0.0, k, tau) == pytest.approx(expected, rel=1e-14)


def test_band_integral_check_random(d):
    rng = np.random.default_rng(21)
    for _ in range(12):
        gm = 10.0 ** rng.uniform(-4, 2)
        nt = 10.0 ** rng.uniform(0, 6)
        k = 10.0 ** rng.uniform(-1, 5)
        tau = 10.0 ** rng.uniform(-5, -2)
        dd = dataclasses.replace(d, gamma_m=gm, n_t=nt)
        assert band_integral_check(dd, k, tau) < 1e-6


def test_band_integral_check_guards(d):
    with pytest.raises(ValueError):
        band_integral_check(d, -1.0)
    with pytest.raises(ValueError):
        band_integral_check(d, 1.0, tau=0.0)

import dataclasses
import warnings

import numpy as np
import pytest

import optotriplet as ot
from optotriplet.optimizer import y_opt_analytic
from optotriplet.spectra import noise_weights

G0_TABLE1 = 2.9850540304755353  # hand evaluation of the damping formula at DC
S_T_TABLE1 = 2618.406784144282


@pytest.fixture(scope="module")
def table1():
    return ot.table1_preset()


@pytest.fixture(scope="module")
def d_lossy(table1):
    return ot.derive(table1)


@pytest.fixture(scope="module")
def d_sym(table1):
    return ot.derive(ot.variant(table1, symmetric=True, lossless=True))


@pytest.fixture(scope="module")
def d_nonsym_lossless(table1):
    return ot.derive(ot.variant(table1, lossless=True))


def random_derived(rng):
    base = ot.table1_preset()
    g0p = rng.uniform(5e4, 5e5)
    g0m = rng.uniform(5e4, 5e5)
    p = dataclasses.replace(
        base,
        gamma0_plus=g0p,
        gamma0_minus=g0m,
        gamma_e_plus=rng.uniform(0.0, 0.08) * g0p,
        gamma_e_minus=rng.uniform(0.0, 0.08) * g0m,
        eps_plus=rng.uniform(0.6, 1.4),
        eps_minus=rng.uniform(0.6, 1.4),
        p_in=10.0 ** rng.uniform(-7, -4),
    )
    return ot.derive(p)


def test_symmetric_damping_vanishes(d_sym):
    omega = np.array([-3e5, -10.0, 0.0, 2.0, 1e4, 7e5])
    c = ot.coeffs(d_sym, omega)
    assert np.max(np.abs(c.g_opt)) == 0.0


def test_table1_dc_damping(d_lossy):
    g0 = complex(ot.coeffs(d_lossy, 0.0).g_opt)
    assert g0.imag == 0.0
    assert g0.real == pytest.approx(G0_TABLE1, rel=1e-12)
    assert g0.real > 0.0


def test_ratio_definitions(d_lossy):
    c = ot.coeffs(d_lossy, np.array([0.0, 17.0, 3e5]))
    np.testing.assert_allclose(c.y_plus * c.b_plus, c.a_plus, rtol=1e-14)
    np.testing.assert_allclose(c.ye_minus * c.be_minus, c.a_minus, rtol=1e-14)
    np.testing.assert_allclose(c.gm_tot, d_lossy.gamma_m + c.g_opt, rtol=1e-14)


def test_hermitian_symmetry_random_params():
    rng = np.random.default_rng(1)
    fields = [f.name for f in dataclasses.fields(ot.CoeffSet) if f.name != "omega"]
    for _ in range(5):
        d = random_derived(rng)
        omega = 10.0 ** rng.uniform(0, 6, size=12)
        cp = ot.coeffs(d, omega)
        cm = ot.coeffs(d, -omega)
        for name in fields:
            np.testing.assert_allclose(
                getattr(cm, name), np.conj(getattr(cp, name)), rtol=1e-13, atol=0.0,
                err_msg=name,
            )


def test_coeffs_rejects_vanishing_coupling(d_lossy):
    broken = dataclasses.replace(d_lossy, eta_plus=0.0)
    with pytest.raises(ValueError, match="eta_plus"):
        ot.coeffs(broken, 1.0)


def test_coeffs_rejects_nonfinite_omega(d_lossy):
    with pytest.raises(ValueError, match="finite"):
        ot.coeffs(d_lossy, np.inf)


# --- quantum noise density -----------------------------------------------------

def test_sym_lossless_cancellation(d_sym):
    # at y = -Y the back action drops out and only |B|^2/2 remains
    omega = np.geomspace(1.0, 7e5, 50)
    c = ot.coeffs(d_sym, omega)
    s = ot.s_qu(c, d_sym, -c.y_plus)
    np.testing.assert_allclose(s, 0.5 * np.abs(c.b_plus) ** 2, rtol=1e-12)


def test_nonsym_lossless_minimum_closed_form(d_nonsym_lossless):
    d = d_nonsym_lossless
    omega = np.geomspace(10.0, 7e5, 40)
    c = ot.coeffs(d, omega)
    s_min = ot.s_qu(c, d, y_opt_analytic(c, d))
    wp, wm = np.abs(c.b_plus) ** 2, np.abs(c.b_minus) ** 2
    expected = wp * wm / (wp + wm) * np.abs(1.0 - c.y_plus + c.y_minus) ** 2
    np.testing.assert_allclose(s_min, expected, rtol=1e-11)


def test_s_qu_coercive(d_lossy):
    c = ot.coeffs(d_lossy, 1e4)
    base = ot.s_qu(c, d_lossy, 0.0)
    for y in (1e6, -1e6j, 1e8 + 1e8j):
        assert ot.s_qu(c, d_lossy, y) > 1e6 * base


def test_s_qu_nonnegative_random():
    rng = np.random.default_rng(2)
    for _ in range(5):
        d = random_derived(rng)
        c = ot.coeffs(d, 10.0 ** rng.uniform(0, 6, size=8))
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.all(np.asarray(ot.s_qu(c, d, y)) >= 0.0)


def test_lossless_reduction_two_terms(d_nonsym_lossless):
    # with the loss channels off the two loss terms vanish identically
    d = d_nonsym_lossless
    omega = np.geomspace(1.0, 7e5, 15)
    c = ot.coeffs(d, omega)
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = complex(rng.normal(), rng.normal())
        two_term = (
            np.abs(c.b_plus) ** 2 * np.abs(y - 0.5 + c.y_plus) ** 2
            + np.abs(c.b_minus) ** 2 * np.abs(y + 0.5 + c.y_minus) ** 2
        )
        np.testing.assert_allclose(ot.s_qu(c, d, y), two_term, rtol=1e-14)


def test_s_thermal(d_lossy):
    assert ot.s_thermal(d_lossy) == pytest.approx(S_T_TABLE1, rel=1e-12)
    cold = dataclasses.replace(d_lossy, n_t=0.0)
    assert ot.s_thermal(cold) == pytest.approx(d_lossy.gamma_m, rel=1e-14)
    doubled = dataclasses.replace(d_lossy, gamma_m=2.0 * d_lossy.gamma_m)
    assert ot.s_thermal(doubled) == pytest.approx(2.0 * S_T_TABLE1, rel=1e-12)


def test_s_sql():
    assert ot.s_sql(0.5, 0.0) == 1.0
    assert ot.s_sql(1.0, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)
    assert ot.s_sql(1.0, -1.0) == ot.s_sql(1.0, 1.0)
    assert ot.s_sql(1e-3, 1e4) == pytest.approx(2e4, rel=1e-8)
    with pytest.raises(ValueError):
        ot.s_sql(0.0, 1.0)


def test_sym_lossless_closed_form(d_sym):
    k0 = ot.measurement_strength(d_sym, 0.0)
    g = d_sym.gamma_plus
    assert k0 == pytest.approx(4.0 * d_sym.eta_plus**2 * d_sym.c0_sq / g, rel=1e-14)
    # density halves when the pump doubles, at every frequency
    d2 = ot.derive(dataclasses.replace(d_sym.phys, p_in=2.0 * d_sym.phys.p_in))
    omega = np.geomspace(1.0, 7e5, 20)
    np.testing.assert_allclose(
        ot.s_qu_sym_lossless(d2, omega), 0.5 * ot.s_qu_sym_lossless(d_sym, omega), rtol=1e-13
    )


def test_sym_lossless_rejects_asymmetry(d_nonsym_lossless, d_lossy):
    with pytest.raises(ValueError, match="symmetric"):
        ot.s_qu_sym_lossless(d_nonsym_lossless, 1.0)
    with pytest.raises(ValueError, match="lossy|symmetric"):
        ot.s_qu_sym_lossless(d_lossy, 1.0)


def test_reduction_identity(d_sym):
    # the general engine at y = -Y reproduces the closed form over the sweep band
    grid = ot.make_grid(d_sym.phys.tau)
    c = ot.coeffs(d_sym, grid)
    general = np.asarray(ot.s_qu(c, d_sym, -c.y_plus))
    closed = np.asarray(ot.s_qu_sym_lossless(d_sym, grid))
    assert np.max(np.abs(general / closed - 1.0)) < 1e-10


def test_nonsym_resonant(table1):
    p = ot.variant(table1, lossless=True)
    d = ot.derive(p)
    gmin = min(d.gamma_plus, d.gamma_minus)
    omega = np.linspace(0.0, 0.05 * gmin, 30)
    s = np.asarray(ot.s_qu_nonsym_resonant(d, omega))
    assert np.all(s > 0.0)
    # balanced couplings cancel the damping and reach the symmetric optimum
    eps_bal = np.sqrt(d.gamma_plus / d.gamma_minus)
    d_bal = ot.derive(dataclasses.replace(p, eps_plus=eps_bal, eps_minus=1.0))
    g0 = complex(ot.coeffs(d_bal, 0.0).g_opt)
    assert abs(g0) < 1e-10 * d_bal.eta_plus**2 * d_bal.c0_sq / d_bal.gamma_plus
    g_plus = (d_bal.eta_plus**2 / d_bal.gamma_plus
              + d_bal.eta_minus**2 / d_bal.gamma_minus) * d_bal.c0_sq
    sym_form = (d_bal.gamma_m**2 + omega**2) / (2.0 * g_plus)
    np.testing.assert_allclose(ot.s_qu_nonsym_resonant(d_bal, omega), sym_form, rtol=1e-12)


def test_nonsym_resonant_damping_floor(table1):
    # with gamma_m << G, Omega the density cannot fall below |G Omega / G_+|
    d = ot.derive(ot.variant(table1, lossless=True, pump_mult=100.0))
    g_res = (d.eta_plus**2 / d.gamma_plus - d.eta_minus**2 / d.gamma_minus) * d.c0_sq
    g_plus = (d.eta_plus**2 / d.gamma_plus + d.eta_minus**2 / d.gamma_minus) * d.c0_sq
    omega = np.geomspace(10.0 * d.gamma_m, 0.09 * min(d.gamma_plus, d.gamma_minus), 25)
    s = np.asarray(ot.s_qu_nonsym_resonant(d, omega))
    assert np.all(s >= np.abs(g_res * omega / g_plus) * (1.0 - 1e-9))
    # and the DC limit is G^2/(2 G_+) up to the tiny gamma_m correction
    assert ot.s_qu_nonsym_resonant(d, 0.0) == pytest.approx(
        (d.gamma_m - g_res) ** 2 / (2.0 * g_plus), rel=1e-12
    )


def test_nonsym_resonant_guards(table1, d_lossy):
    with pytest.raises(ValueError, match="lossless"):
        ot.s_qu_nonsym_resonant(d_lossy, 1.0)
    d = ot.derive(ot.variant(table1, lossless=True))
    with pytest.warns(UserWarning, match="near-resonant"):
        ot.s_qu_nonsym_resonant(d, 0.5 * d.gamma_plus)


# --- sweeps --------------------------------------------------------------------

def test_make_grid():
    tau = 1e-4
    g = ot.make_grid(tau)
    assert g.size == 400
    assert g[0] == pytest.approx(2 * np.pi / (100 * tau))
    assert g[-1] == pytest.approx(2 * np.pi * 10 / tau)
    lin = ot.make_grid(tau, kind="linear", n=10)
    assert np.allclose(np.diff(lin), np.diff(lin)[0])
    with pytest.raises(ValueError):
        ot.make_grid(tau, kind="cubic")
    with pytest.raises(ValueError):
        ot.make_grid(-1.0)


def test_sweep_empty(d_lossy):
    assert len(ot.spectrum_sweep(d_lossy, [])) == 0


def test_sweep_records(d_lossy):
    grid = ot.make_grid(d_lossy.phys.tau, n=32)
    recs = ot.spectrum_sweep(d_lossy, grid, y_policy="optimal")
    assert len(recs) == 32
    for col in (recs.omega, recs.y, recs.s_qu, recs.s_f, recs.s_sql, recs.ratio):
        assert col.shape == (32,)
    assert np.array_equal(recs.omega, grid)
    assert np.array_equal(recs.s_f, recs.s_qu + recs.s_t)
    np.testing.assert_allclose(recs.ratio, recs.s_qu / recs.s_sql, rtol=1e-15, atol=0.0)
    # the recorded weight must reproduce the density exactly
    c = ot.coeffs(d_lossy, grid)
    np.testing.assert_allclose(
        np.asarray(ot.s_qu(c, d_lossy, recs.y)), recs.s_qu, rtol=1e-14
    )


def test_sweep_policies(d_lossy):
    grid = ot.make_grid(d_lossy.phys.tau, n=8)
    fixed = ot.spectrum_sweep(d_lossy, grid, y_policy=0.1 - 0.2j)
    assert np.all(fixed.y == 0.1 - 0.2j)
    table = np.linspace(0, 1, 8) * (1 + 1j)
    tabled = ot.spectrum_sweep(d_lossy, grid, y_policy=table)
    assert np.array_equal(tabled.y, table)
    opt = ot.spectrum_sweep(d_lossy, grid, y_policy="optimal")
    assert np.all(opt.s_qu <= fixed.s_qu + 1e-12)
    with pytest.raises(ValueError, match="shape"):
        ot.spectrum_sweep(d_lossy, grid, y_policy=np.zeros(5, dtype=complex))
    with pytest.raises(ValueError, match="policy"):
        ot.spectrum_sweep(d_lossy, grid, y_policy="fanciest")


def test_sweep_grid_validation(d_lossy):
    with pytest.raises(ValueError, match="increasing"):
        ot.spectrum_sweep(d_lossy, [2.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        ot.spectrum_sweep(d_lossy, [1.0, np.nan])


def test_sweep_refuses_an_overflowing_frequency_without_a_warning(d_lossy):
    # the coefficients overflow at 1e300 rad/s; the refusal names the
    # frequency as a plain float, and no RuntimeWarning comes before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not finite at omega = 1e\+300 rad/s$"):
            ot.spectrum_sweep(d_lossy, [1.0, 1e300])
        with pytest.raises(ValueError, match=r"non-finite frequency inf$"):
            ot.spectrum_sweep(d_lossy, [1.0, np.inf])


def test_optimal_density_even_in_frequency(d_lossy):
    omega = np.geomspace(1.0, 7e5, 25)
    cp, cm = ot.coeffs(d_lossy, omega), ot.coeffs(d_lossy, -omega)
    sp = np.asarray(ot.s_qu(cp, d_lossy, y_opt_analytic(cp, d_lossy)))
    sm = np.asarray(ot.s_qu(cm, d_lossy, y_opt_analytic(cm, d_lossy)))
    np.testing.assert_allclose(sm, sp, rtol=1e-12)


def test_min_density_monotone_in_loss(table1):
    grid = ot.make_grid(table1.tau, n=48)
    prev = None
    for scale in (0.0, 1.0, 3.0, 8.0):
        p = dataclasses.replace(
            table1,
            gamma_e=scale * 2.3e3, gamma_e_plus=scale * 2.3e3, gamma_e_minus=scale * 2.3e3,
        )
        d = ot.derive(p)
        c = ot.coeffs(d, grid)
        s_min = np.asarray(ot.s_qu(c, d, y_opt_analytic(c, d)))
        if prev is not None:
            assert np.all(s_min >= prev * (1.0 - 1e-12))
        prev = s_min


def test_noise_weights_positive(d_lossy):
    w = noise_weights(ot.coeffs(d_lossy, np.geomspace(1, 1e6, 5)), d_lossy)
    for arr in w:
        assert np.all(np.asarray(arr) > 0.0)

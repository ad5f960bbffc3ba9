import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import minimize

import optotriplet as ot
from optotriplet.optimizer import y_opt_analytic

from test_spectra import random_derived


def quadratic_fit_minimizer(c, d):
    """Independent oracle: treat s_qu as a black box, fit the quadratic in
    (Re y, Im y) from six samples and solve the 2x2 normal equations."""
    s = lambda y: float(ot.s_qu(c, d, y))
    f0 = s(0.0)
    a = 0.5 * (s(1.0) + s(-1.0)) - f0
    du = 0.5 * (s(1.0) - s(-1.0))
    b = 0.5 * (s(1.0j) + s(-1.0j)) - f0
    dv = 0.5 * (s(1.0j) - s(-1.0j))
    cc = s(1.0 + 1.0j) - a - b - du - dv - f0
    mat = np.array([[2.0 * a, cc], [cc, 2.0 * b]])
    u, v = np.linalg.solve(mat, [-du, -dv])
    return complex(u, v)


@dataclass(frozen=True)
class OptResult:
    """Analytic vs numeric minimization outcome at one frequency."""

    omega: float
    y_analytic: complex
    y_numeric: complex
    s_analytic: float
    s_numeric: float
    rel_gap: float
    iterations: int
    converged: bool


# Nelder-Mead with the standard reflection/expansion/contraction/shrink
# constants (1, 2, 0.5, 0.5); termination on simplex diameter alone so the
# tolerance argument has a single meaning.
def y_opt_numeric(c, d, init: complex = 0.0, tol: float = 1e-10,
                  maxiter: int = 2000) -> OptResult:
    """Independent oracle: simplex minimization of ``s_qu`` over (Re y, Im y)
    at a single frequency.

    ``c`` must hold scalar (0-d) coefficients.  Non-convergence is reported
    through the ``converged`` flag rather than an exception.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if np.ndim(c.omega) != 0:
        raise ValueError("y_opt_numeric expects coefficients at a single frequency")

    def objective(v):
        return ot.s_qu(c, d, complex(v[0], v[1]))

    res = minimize(
        objective,
        x0=[init.real, init.imag],
        method="Nelder-Mead",
        options={"xatol": tol, "fatol": np.inf, "maxiter": maxiter},
    )
    y_num = complex(res.x[0], res.x[1])
    y_ana = y_opt_analytic(c, d)
    s_ana = float(ot.s_qu(c, d, y_ana))
    s_num = float(res.fun)
    gap = abs(s_ana - s_num) / s_ana if s_ana > 0.0 else abs(s_ana - s_num)
    return OptResult(
        omega=float(c.omega),
        y_analytic=y_ana,
        y_numeric=y_num,
        s_analytic=s_ana,
        s_numeric=s_num,
        rel_gap=gap,
        iterations=int(res.nit),
        converged=bool(res.success),
    )


@pytest.fixture(scope="module")
def table1():
    return ot.table1_preset()


def test_symmetric_lossless_optimum_is_minus_y(table1):
    d = ot.derive(ot.variant(table1, symmetric=True, lossless=True))
    c = ot.coeffs(d, np.geomspace(1.0, 7e5, 30))
    np.testing.assert_allclose(y_opt_analytic(c, d), -c.y_plus, rtol=1e-10)
    # and the achieved minimum is exactly |B|^2/2
    s = np.asarray(ot.s_qu(c, d, -c.y_plus))
    np.testing.assert_allclose(s, 0.5 * np.abs(c.b_plus) ** 2, rtol=1e-12)


def test_lossless_nonsym_two_term_formula(table1):
    d = ot.derive(ot.variant(table1, lossless=True))
    c = ot.coeffs(d, np.geomspace(1.0, 7e5, 30))
    wp, wm = np.abs(c.b_plus) ** 2, np.abs(c.b_minus) ** 2
    expected = (wp * (0.5 - c.y_plus) - wm * (0.5 + c.y_minus)) / (wp + wm)
    np.testing.assert_allclose(y_opt_analytic(c, d), expected, rtol=1e-13)


def test_matches_blackbox_quadratic_minimizer():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = random_derived(rng)
        c = ot.coeffs(d, float(10.0 ** rng.uniform(0, 6)))
        y_ana = y_opt_analytic(c, d)
        y_fit = quadratic_fit_minimizer(c, d)
        assert abs(y_fit - y_ana) <= 1e-6 * (1.0 + abs(y_ana))
        s_ana = float(ot.s_qu(c, d, y_ana))
        s_fit = float(ot.s_qu(c, d, y_fit))
        assert abs(s_ana - s_fit) <= 1e-9 * s_ana


def test_never_beaten_by_random_probes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = random_derived(rng)
        c = ot.coeffs(d, float(10.0 ** rng.uniform(0, 6)))
        y_ana = y_opt_analytic(c, d)
        s_min = float(ot.s_qu(c, d, y_ana))
        scale = 1.0 + abs(y_ana)
        probes = y_ana + scale * 10.0 ** rng.uniform(-3, 1, size=1000) * np.exp(
            2j * np.pi * rng.uniform(size=1000)
        )
        assert np.all(np.asarray(ot.s_qu(c, d, probes)) >= s_min * (1.0 - 1e-12))


def test_phase_convention_invariance(table1):
    # flipping the sign of both couplings leaves |B|, Y and hence y_opt unchanged
    d = ot.derive(table1)
    c = ot.coeffs(d, np.geomspace(10.0, 1e5, 7))
    flipped = dataclasses.replace(d, c0=-d.c0)
    c2 = ot.coeffs(flipped, np.geomspace(10.0, 1e5, 7))
    np.testing.assert_allclose(y_opt_analytic(c2, flipped), y_opt_analytic(c, d), rtol=1e-13)


def test_numeric_converges_from_zero(table1):
    d = ot.derive(ot.variant(table1, symmetric=True, lossless=True))
    c = ot.coeffs(d, d.gamma_plus / 10.0)
    res = y_opt_numeric(c, d, init=0.0, tol=1e-10)
    assert res.converged
    assert abs(res.y_numeric - complex(-c.y_plus)) < 1e-6
    assert res.rel_gap < 1e-6


def test_numeric_from_optimum(table1):
    d = ot.derive(table1)
    c = ot.coeffs(d, 1e4)
    y0 = y_opt_analytic(c, d)
    res = y_opt_numeric(c, d, init=y0, tol=1e-9)
    assert res.converged
    assert res.rel_gap < 1e-9
    # the simplex only has to shrink around the optimum it started from
    assert res.iterations <= 60


def test_numeric_random_inits_agree(table1):
    d = ot.derive(table1)
    c = ot.coeffs(d, 3e4)
    y0 = y_opt_analytic(c, d)
    rng = np.random.default_rng(12)
    radius = 10.0 * max(abs(y0), 0.1)
    sols = []
    for _ in range(15):
        init = y0 + radius * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        res = y_opt_numeric(c, d, init=complex(init), tol=1e-10)
        assert res.converged
        sols.append(res.y_numeric)
    sols = np.array(sols)
    assert np.max(np.abs(sols - y0)) < 1e-6 * (1.0 + abs(y0))


def test_numeric_nonconvergence_flagged(table1):
    d = ot.derive(table1)
    c = ot.coeffs(d, 1e4)
    res = y_opt_numeric(c, d, init=100.0 + 100.0j, tol=1e-14, maxiter=3)
    assert not res.converged  # reported, not raised


def test_numeric_guards(table1):
    d = ot.derive(table1)
    c = ot.coeffs(d, 1e4)
    with pytest.raises(ValueError, match="tol"):
        y_opt_numeric(c, d, tol=0.0)
    c_vec = ot.coeffs(d, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="single frequency"):
        y_opt_numeric(c_vec, d)


def test_optimal_sweep(table1):
    d = ot.derive(table1)
    grid = ot.make_grid(table1.tau, n=25)
    results = [y_opt_numeric(ot.coeffs(d, float(omega)), d) for omega in grid]
    assert len(results) == 25
    for r in results:
        assert r.converged
        assert r.rel_gap <= 1e-6
        # never worse than no post-processing at all
        c = ot.coeffs(d, r.omega)
        assert r.s_analytic <= float(ot.s_qu(c, d, 0.0)) + 1e-12


def test_optimal_sweep_lossless_reduction(table1):
    # with the loss channels off the loss correction to y_opt vanishes
    d = ot.derive(ot.variant(table1, lossless=True))
    grid = ot.make_grid(table1.tau, n=10)
    c = ot.coeffs(d, grid)
    wp, wm = np.abs(c.b_plus) ** 2, np.abs(c.b_minus) ** 2
    two_term = (wp * (0.5 - c.y_plus) - wm * (0.5 + c.y_minus)) / (wp + wm)
    np.testing.assert_allclose(y_opt_analytic(c, d), two_term, rtol=1e-14)

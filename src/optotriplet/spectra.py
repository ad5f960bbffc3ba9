"""Analytic noise spectral densities of the two-channel readout.

Everything here is per-spectral-frequency complex transfer-function algebra.
The model: the pumped central mode mediates a force measurement; the two
sideband outputs are homodyned separately and combined in post-processing
with a complex frequency-dependent weight ``y``.  The quantum-noise spectral
density of the combined record, referred to the normalized signal force, is

    S_qu(y) = |B+|^2 |y - 1/2 + Y+|^2 + |B-|^2 |y + 1/2 + Y-|^2
            + (ge+/g0+) |Be+|^2 |y - 1/2 + Ye+|^2
            + (ge-/g0-) |Be-|^2 |y + 1/2 + Ye-|^2,

a strictly convex quadratic in (Re y, Im y).  The thermal noise adds
``S_T = 2 gamma_m (n_T + 1/2)`` and the total is ``S_f = S_qu + S_T``.
Spectral densities are normalized so that each optical vacuum input enters
with unit weight; ``S_SQL = 2 sqrt(gamma_m^2 + Omega^2)`` is the reference
curve in the same units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import DerivedParams


@dataclass(frozen=True)
class CoeffSet:
    """Per-frequency complex coefficient bundle.

    All fields are complex scalars or arrays matching the shape of ``omega``:

    - ``g_opt``: optical damping induced by unbalanced sideband coupling,
      ``[eta+^2/(gamma+ - i O) - eta-^2/(gamma- - i O)] C0^2``
    - ``gm_tot``: total mechanical rate ``gamma_m + g_opt``
    - ``a_plus/a_minus``: cavity-filtered signal transfer into each output,
      ``sqrt(2 g0_pm) eta_pm C0 / (gamma_pm - i O)``
    - ``b_plus/b_minus``: imprecision coefficients,
      ``(g0_pm - ge_pm + i O)(gm_tot - i O) / (sqrt(2 g0_pm) eta_pm C0)``
    - ``be_plus/be_minus``: loss-channel imprecision coefficients,
      ``sqrt(2 g0_pm)(gm_tot - i O) / (eta_pm C0)``
    - ``y_plus/y_minus``: back-action ratios ``a_pm / b_pm``
    - ``ye_plus/ye_minus``: loss back-action ratios ``a_pm / be_pm``
    """

    omega: np.ndarray
    g_opt: np.ndarray
    gm_tot: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    b_plus: np.ndarray
    b_minus: np.ndarray
    be_plus: np.ndarray
    be_minus: np.ndarray
    y_plus: np.ndarray
    y_minus: np.ndarray
    ye_plus: np.ndarray
    ye_minus: np.ndarray


def coeffs(d: DerivedParams, omega) -> CoeffSet:
    """Evaluate the coefficient bundle at spectral frequency ``omega`` [rad/s].

    ``omega`` may be a scalar or an array; negative frequencies are allowed
    and obey ``c(-omega) = conj(c(omega))`` for real rates.
    """
    p = d.phys
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite")

    c0 = d.c0
    for tag, eta in (("eta_plus", d.eta_plus), ("eta_minus", d.eta_minus)):
        if eta * c0 == 0.0:
            raise ValueError(
                f"{tag} * C0 vanishes; imprecision coefficients are undefined "
                "(model weak coupling with a small nonzero asymmetry factor instead)"
            )

    i_om = 1j * omega
    den_p = p.gamma0_plus + p.gamma_e_plus - i_om   # = gamma_plus - i omega
    den_m = p.gamma0_minus + p.gamma_e_minus - i_om

    g_opt = (d.eta_plus**2 / den_p - d.eta_minus**2 / den_m) * d.c0_sq
    gm_tot = d.gamma_m + g_opt
    chi = gm_tot - i_om

    sq_p = math.sqrt(2.0 * p.gamma0_plus)
    sq_m = math.sqrt(2.0 * p.gamma0_minus)

    a_plus = sq_p * d.eta_plus * c0 / den_p
    a_minus = sq_m * d.eta_minus * c0 / den_m
    b_plus = (p.gamma0_plus - p.gamma_e_plus + i_om) * chi / (sq_p * d.eta_plus * c0)
    b_minus = (p.gamma0_minus - p.gamma_e_minus + i_om) * chi / (sq_m * d.eta_minus * c0)
    be_plus = sq_p * chi / (d.eta_plus * c0)
    be_minus = sq_m * chi / (d.eta_minus * c0)

    return CoeffSet(
        omega=omega,
        g_opt=g_opt,
        gm_tot=gm_tot,
        a_plus=a_plus,
        a_minus=a_minus,
        b_plus=b_plus,
        b_minus=b_minus,
        be_plus=be_plus,
        be_minus=be_minus,
        y_plus=a_plus / b_plus,
        y_minus=a_minus / b_minus,
        ye_plus=a_plus / be_plus,
        ye_minus=a_minus / be_minus,
    )


def noise_weights(c: CoeffSet, d: DerivedParams):
    """Quadratic weights (w+, w-, we+, we-) of the four vacuum inputs in S_qu."""
    p = d.phys
    w_p = np.abs(c.b_plus) ** 2
    w_m = np.abs(c.b_minus) ** 2
    we_p = (p.gamma_e_plus / p.gamma0_plus) * np.abs(c.be_plus) ** 2
    we_m = (p.gamma_e_minus / p.gamma0_minus) * np.abs(c.be_minus) ** 2
    return w_p, w_m, we_p, we_m


def s_qu(c: CoeffSet, d: DerivedParams, y):
    """Quantum-noise spectral density of the combined record for weight ``y``.

    ``y`` may be a complex scalar or an array broadcastable against the
    coefficient arrays.  Non-negative by construction.
    """
    y = np.asarray(y, dtype=complex)
    w_p, w_m, we_p, we_m = noise_weights(c, d)
    s = (
        w_p * np.abs(y - 0.5 + c.y_plus) ** 2
        + w_m * np.abs(y + 0.5 + c.y_minus) ** 2
        + we_p * np.abs(y - 0.5 + c.ye_plus) ** 2
        + we_m * np.abs(y + 0.5 + c.ye_minus) ** 2
    )
    return s if s.ndim else float(s)


def s_thermal(d: DerivedParams) -> float:
    """Thermal-bath contribution ``2 gamma_m (n_T + 1/2)``; frequency independent."""
    return 2.0 * d.gamma_m * (d.n_t + 0.5)


def s_sql(gamma_m: float, omega):
    """Standard-quantum-limit reference curve ``2 sqrt(gamma_m^2 + Omega^2)``."""
    if gamma_m <= 0.0:
        raise ValueError(f"gamma_m must be > 0, got {gamma_m!r}")
    omega = np.asarray(omega, dtype=float)
    s = 2.0 * np.sqrt(gamma_m**2 + omega**2)
    return s if s.ndim else float(s)


def _require_symmetric_lossless(d: DerivedParams, who: str) -> None:
    p = d.phys
    problems = []
    if p.gamma_e_plus != 0.0 or p.gamma_e_minus != 0.0:
        problems.append(f"lossy sidebands (gamma_e_pm = {p.gamma_e_plus:g}, {p.gamma_e_minus:g})")
    if d.eta_plus != d.eta_minus:
        problems.append(f"eta_plus != eta_minus ({d.eta_plus:g} vs {d.eta_minus:g})")
    if d.gamma_plus != d.gamma_minus:
        problems.append(f"gamma_plus != gamma_minus ({d.gamma_plus:g} vs {d.gamma_minus:g})")
    if problems:
        raise ValueError(f"{who} requires a symmetric lossless sensor: " + "; ".join(problems))


def measurement_strength(d: DerivedParams, omega):
    """Cavity-filtered measurement strength of the symmetric sensor.

    ``K(Omega) = 4 gamma eta^2 C0^2 / (gamma^2 + Omega^2)`` with
    ``gamma`` the common sideband half-width.  Proportional to pump power.
    """
    omega = np.asarray(omega, dtype=float)
    g = d.gamma_plus
    return 4.0 * g * d.eta_plus**2 * d.c0_sq / (g**2 + omega**2)


def s_qu_sym_lossless(d: DerivedParams, omega):
    """Closed-form optimum ``(gamma_m^2 + Omega^2) / K`` of the symmetric lossless sensor.

    Equals the general engine evaluated at the back-action-cancelling weight
    ``y = -Y``; rejects non-symmetric or lossy parameters.
    """
    _require_symmetric_lossless(d, "s_qu_sym_lossless")
    omega = np.asarray(omega, dtype=float)
    s = (d.gamma_m**2 + omega**2) / measurement_strength(d, omega)
    return s if s.ndim else float(s)


def s_qu_nonsym_resonant(d: DerivedParams, omega):
    """Near-resonant (|Omega| << gamma_pm) optimum of the lossless asymmetric sensor.

    ``((gamma_m - G)^2 + Omega^2) / (2 G_+)`` with the resonant damping
    ``G = (eta+^2/gamma+ - eta-^2/gamma-) C0^2`` and total coupling
    ``G_+ = (eta+^2/gamma+ + eta-^2/gamma-) C0^2``.  Out-of-regime
    frequencies trigger a warning, not an error.
    """
    p = d.phys
    if p.gamma_e_plus != 0.0 or p.gamma_e_minus != 0.0:
        raise ValueError(
            "s_qu_nonsym_resonant applies to the lossless sensor only "
            f"(gamma_e_pm = {p.gamma_e_plus:g}, {p.gamma_e_minus:g})"
        )
    omega = np.asarray(omega, dtype=float)
    gmin = min(d.gamma_plus, d.gamma_minus)
    if np.any(np.abs(omega) >= 0.1 * gmin):
        warnings.warn(
            "s_qu_nonsym_resonant evaluated outside |Omega| < 0.1 min(gamma_pm); "
            "the near-resonant approximation degrades there",
            stacklevel=2,
        )
    g_res = (d.eta_plus**2 / d.gamma_plus - d.eta_minus**2 / d.gamma_minus) * d.c0_sq
    g_plus = (d.eta_plus**2 / d.gamma_plus + d.eta_minus**2 / d.gamma_minus) * d.c0_sq
    s = ((d.gamma_m - g_res) ** 2 + omega**2) / (2.0 * g_plus)
    return s if s.ndim else float(s)


# --- frequency grids and sweeps ----------------------------------------------

GRID_POINTS_DEFAULT = 400


def make_grid(tau: float, kind: str = "log", n: int = GRID_POINTS_DEFAULT,
              lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Frequency grid matched to a measurement window ``tau``.

    Defaults to ``n`` log-spaced points over ``[2 pi/(100 tau), 2 pi * 10/tau]``;
    ``kind="linear"`` gives uniform spacing over the same span.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau!r}")
    if lo is None:
        lo = 2.0 * math.pi / (100.0 * tau)
    if hi is None:
        hi = 2.0 * math.pi * 10.0 / tau
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"grid bounds must be finite with 0 < lo < hi, got {lo!r}, {hi!r}")
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n!r}")
    if kind == "log":
        return np.geomspace(lo, hi, n)
    if kind == "linear":
        return np.linspace(lo, hi, n)
    raise ValueError(f"unknown grid kind {kind!r} (expected 'log' or 'linear')")


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Outputs of a sweep as columns, one entry per grid frequency.

    ``omega``, ``s_qu``, ``s_f``, ``s_sql`` and ``ratio`` are float arrays and
    ``y`` is the complex weight actually used, all of the grid's length;
    ``s_t`` is the frequency-independent thermal term.  ``len(table)`` is the
    number of frequencies.
    """

    omega: np.ndarray
    y: np.ndarray
    s_qu: np.ndarray
    s_t: float
    s_f: np.ndarray
    s_sql: np.ndarray
    ratio: np.ndarray

    def __len__(self) -> int:
        return self.omega.size


def resolve_y(d: DerivedParams, c: CoeffSet, y_policy) -> np.ndarray:
    """Turn a weight policy into per-frequency complex values.

    Accepted policies: the string ``"optimal"`` (analytic minimizer), a fixed
    complex number, or a per-frequency table matching the grid length.
    """
    n = c.omega.size
    if isinstance(y_policy, str):
        if y_policy != "optimal":
            raise ValueError(f"unknown y policy {y_policy!r} (expected 'optimal')")
        from .optimizer import y_opt_analytic

        return np.broadcast_to(np.asarray(y_opt_analytic(c, d), dtype=complex), (n,)).copy()
    if np.ndim(y_policy) == 0:
        return np.full(n, complex(y_policy))
    table = np.array(y_policy, dtype=complex)
    if table.shape != (n,):
        raise ValueError(f"per-frequency y table has shape {table.shape}, grid has {n} points")
    return table


def _checked_grid(grid) -> np.ndarray:
    """Copy of ``grid`` as floats; raises unless it is finite, 1-d and strictly
    increasing (it may be empty)."""
    grid = np.array(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        bad = float(grid[~np.isfinite(grid)][0])
        raise ValueError(f"grid contains non-finite frequency {bad!r}")
    if grid.ndim != 1 or (grid.size > 1 and not np.all(np.diff(grid) > 0.0)):
        raise ValueError("grid must be a strictly increasing 1-d array")
    return grid


def spectrum_sweep(d: DerivedParams, grid, y_policy="optimal") -> SpectrumTable:
    """Evaluate all spectral densities over a frequency grid.

    ``grid`` must be finite and strictly increasing; it may be empty.
    Returns one :class:`SpectrumTable` with a column entry per frequency; it
    carries the weight actually used so the output is self-describing.
    Evaluation is vectorized and order-independent.  A frequency at which
    ``S_qu`` or ``S_SQL`` is not finite raises ``ValueError`` naming it.
    """
    grid = _checked_grid(grid)  # the table keeps its own copy

    # a frequency too high for float64 (past about 1e80 rad/s for the default
    # parameters) overflows the coefficients, or S_SQL past 1.3e154 rad/s:
    # refused below, without the warnings of the overflow
    with np.errstate(all="ignore"):
        c = coeffs(d, grid)
        y = resolve_y(d, c, y_policy)
        sq = np.asarray(s_qu(c, d, y), dtype=float)
        ss = np.asarray(s_sql(d.gamma_m, grid), dtype=float)
    finite = np.isfinite(sq) & np.isfinite(ss)
    if not np.all(finite):
        bad = float(grid[~finite][0])
        raise ValueError(f"spectral density is not finite at omega = {bad!r} rad/s")
    st = s_thermal(d)
    return SpectrumTable(omega=grid, y=y, s_qu=sq, s_t=st, s_f=sq + st, s_sql=ss,
                         ratio=sq / ss)

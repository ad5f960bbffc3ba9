"""Standard-quantum-limit benchmark and minimum detectable force.

The single-readout reference detector measures the oscillator with strength
``K`` (proportional to pump power).  Its force-referred noise density

    S_fa(K) = 2 gamma_m (n_T + 1/2) + (gamma_m^2 + Omega^2)/K + K

is minimized at ``K = sqrt(gamma_m^2 + Omega^2)`` where the quantum part
touches ``S_SQL = 2 sqrt(gamma_m^2 + Omega^2)``.  Integrating over the
detection band ``[0, 2 pi/tau]`` of a square pulse of duration ``tau`` and
optimizing over ``K`` gives the minimum detectable force amplitude; the
normalized budget converts to newtons through ``F = f sqrt(2 hbar omega_m m)``
(the band integral carries an extra factor of two from the quadrature
projection of the sine-pulse amplitude).  The band integral is evaluated in
closed form (:func:`band_integral`); the test suite checks it against
adaptive quadrature of :func:`s_fa`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import HBAR
from .params import DerivedParams


def s_fa(k_gain: float, gamma_m: float, n_t: float, omega: float) -> float:
    """Force-referred noise density of the single-readout reference detector."""
    if k_gain <= 0.0:
        raise ValueError(f"measurement strength must be > 0, got {k_gain!r}")
    return 2.0 * gamma_m * (n_t + 0.5) + (gamma_m**2 + omega**2) / k_gain + k_gain


@dataclass(frozen=True)
class ForceBudget:
    """Minimum detectable force of a square pulse of duration ``tau``.

    ``thermal_term`` and ``sql_term`` are the two contributions to the
    normalized budget ``F^2/(4 hbar m omega_m)`` in 1/s^2; ``f_min_norm`` is
    the square root of their sum (the minimum normalized force quadrature
    amplitude, 1/s).  ``force_min``, ``force_sql`` and ``force_alt`` are in
    newtons; ``force_alt`` uses the flat-SQL band integral, which differs
    from the optimized one by a multiplier of about unity (sqrt(3) in the
    quantum term).
    """

    tau: float
    thermal_term: float
    sql_term: float
    f_min_norm: float
    force_min: float
    force_sql: float
    force_alt: float

    def format(self) -> str:
        return "\n".join([
            f"minimum detectable force for a {self.tau:.6g} s square pulse",
            f"  thermal budget term   : {self.thermal_term:.6g} 1/s^2",
            f"  quantum (SQL) term    : {self.sql_term:.6g} 1/s^2",
            f"  thermal/quantum ratio : {self.thermal_term / self.sql_term:.4g}",
            f"  min normalized force  : {self.f_min_norm:.6g} 1/s",
            f"  min force             : {self.force_min:.6g} N",
            f"  SQL-only force        : {self.force_sql:.6g} N",
            f"  flat-SQL estimate     : {self.force_alt:.6g} N",
        ])


def min_force(d: DerivedParams, tau: float | None = None) -> ForceBudget:
    """Evaluate the detection budget, optimized over measurement strength.

    Valid for pulses much shorter than the mechanical ring-down
    (``gamma_m tau << 1``); longer pulses trigger a warning because the
    thermal limit then dominates and the short-time optimization of the
    quantum term is no longer accurate.  A ``tau`` too short for a finite
    budget (below about 3e-154 s, where ``1/tau**2`` overflows) or too long
    for one (from about 1.3e154 s, where ``tau**2`` overflows, to infinity)
    raises ``ValueError``, before any warning.
    """
    if tau is None:
        tau = d.phys.tau
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau!r}")
    if not math.isfinite(tau * tau):
        raise ValueError(f"the force budget for tau = {tau!r} s is not finite: tau**2 overflows")
    if d.gamma_m * tau >= 1.0:
        warnings.warn(
            f"gamma_m * tau = {d.gamma_m * tau:.3g} is not small; "
            "the short-pulse force budget is inaccurate",
            stacklevel=2,
        )
    m = d.phys.m
    omega_m = d.phys.omega_m
    # tau**2 underflows to zero below about 1.5e-162 s
    band = 2.0 * math.pi / tau**2 if tau**2 > 0.0 else math.inf
    thermal = 2.0 * d.gamma_m * (d.n_t + 0.5) / tau
    sql = (2.0 / math.sqrt(3.0)) * band
    scale = 4.0 * HBAR * m * omega_m
    force_min = math.sqrt(scale * (thermal + sql))
    force_sql = (4.0 / tau) * math.sqrt(math.pi * HBAR * m * omega_m / math.sqrt(3.0))
    force_alt = math.sqrt(scale * (thermal + 2.0 * band))
    if not all(map(math.isfinite, (force_min, force_sql, force_alt))):
        raise ValueError(f"the force budget for tau = {tau!r} s is not finite")
    return ForceBudget(
        tau=tau,
        thermal_term=thermal,
        sql_term=sql,
        f_min_norm=math.sqrt(thermal + sql),
        force_min=force_min,
        force_sql=force_sql,
        force_alt=force_alt,
    )


def band_integral(gamma_m: float, n_t: float, k_gain: float, tau: float) -> float:
    """Closed form of ``int_0^{2 pi/tau} S_fa dOmega / (2 pi)``.

    The mean-square frequency of the band enters as ``(1/3)(2 pi/tau)^2``.
    """
    return (
        2.0 * gamma_m * (n_t + 0.5)
        + (gamma_m**2 + (1.0 / 3.0) * (2.0 * math.pi / tau) ** 2) / k_gain
        + k_gain
    ) / tau

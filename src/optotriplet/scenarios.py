"""Named measurement scenarios: symmetry/loss/pump variants of the default sensor.

A scenario modifies the baseline parameter set only through three switches:

- ``symmetric``: removes the 1% sideband-bandwidth split and the 3% coupling
  split (``gamma_pm -> gamma0``, ``eps_pm -> 1``);
- ``lossless``: turns the loss channels off while keeping every total
  half-width fixed (the loss share of each sideband bandwidth moves to the
  input coupling, and the central input rate is untouched so the intracavity
  pump amplitude is identical with and without loss);
- ``pump_mult``: scales the input power.

A scenario is its name and these three switches, nothing else.  The sweep
presets named ``fig*`` reproduce the standard comparison plots of
``R = S_qu/S_SQL`` versus frequency, all on one grid, :func:`sweep_grid_spec`;
it extends below the default band of ``make_grid`` because the sub-SQL
dips and the loss floors of the baseline sensor sit at low frequency for
microwatt pumping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .params import PhysParams
from .spectra import GRID_POINTS_DEFAULT


def variant(p: PhysParams, symmetric: bool = False, lossless: bool = False,
            pump_mult: float = 1.0) -> PhysParams:
    """Apply the three scenario switches to a parameter set."""
    if pump_mult <= 0.0:
        raise ValueError(f"pump multiplier must be > 0, got {pump_mult!r}")
    changes: dict = {}
    g0p, g0m = p.gamma0_plus, p.gamma0_minus
    gep, gem = p.gamma_e_plus, p.gamma_e_minus
    if symmetric:
        g0p = p.gamma0 - gep
        g0m = p.gamma0 - gem
        changes["eps_plus"] = 1.0
        changes["eps_minus"] = 1.0
    if lossless:
        g0p += gep
        g0m += gem
        gep = gem = 0.0
        changes["gamma_e"] = 0.0
    changes.update(
        gamma0_plus=g0p, gamma0_minus=g0m, gamma_e_plus=gep, gamma_e_minus=gem,
        p_in=pump_mult * p.p_in,
    )
    return replace(p, **changes)


@dataclass(frozen=True)
class Scenario:
    """A named sensor configuration: the three switches of :func:`variant`."""

    name: str
    symmetric: bool = False
    lossless: bool = False
    pump_mult: float = 1.0

    def apply(self, p: PhysParams) -> PhysParams:
        return variant(p, symmetric=self.symmetric, lossless=self.lossless,
                       pump_mult=self.pump_mult)

    def describe(self) -> str:
        bits = [
            "symmetric" if self.symmetric else "non-symmetric",
            "lossless" if self.lossless else "lossy",
            f"pump x{self.pump_mult:g}",
        ]
        return ", ".join(bits)


# Grid for the comparison figures: wide enough to show both the sub-SQL dips
# (low frequency) and the shot-noise rise up to ten signal bandwidths.
_FIG_LO = 2e-4
_FIG_HI = 10.0


def sweep_grid_spec(tau: float) -> dict:
    """The sweep presets' grid as ``make_grid`` arguments: ``n`` log-spaced
    points over ``[2e-4, 10] * 2 pi / tau`` (``lo`` and ``hi`` in rad/s)."""
    return {"kind": "log", "n": GRID_POINTS_DEFAULT,
            "lo": 2.0 * math.pi * _FIG_LO / tau, "hi": 2.0 * math.pi * _FIG_HI / tau}


SWEEP_SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(name="fig2-sym", symmetric=True, lossless=True),
        Scenario(name="fig2-nonsym", symmetric=False, lossless=True),
        Scenario(name="fig2-nonsym-10P", symmetric=False, lossless=True, pump_mult=10.0),
        Scenario(name="fig3-nonsym-lossy", symmetric=False, lossless=False),
        Scenario(name="fig3-nonsym-lossless", symmetric=False, lossless=True),
        Scenario(name="fig3-nonsym-lossy-10P", symmetric=False, lossless=False, pump_mult=10.0),
        Scenario(name="fig3-nonsym-lossless-10P", symmetric=False, lossless=True, pump_mult=10.0),
        Scenario(name="fig4-sym-lossy", symmetric=True, lossless=False),
        Scenario(name="fig4-sym-lossless", symmetric=True, lossless=True),
        Scenario(name="fig4-sym-lossy-10P", symmetric=True, lossless=False, pump_mult=10.0),
        Scenario(name="fig4-sym-lossless-10P", symmetric=True, lossless=True, pump_mult=10.0),
    )
}

ORACLE_SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(name="sym-lossless", symmetric=True, lossless=True),
        Scenario(name="nonsym-lossless", symmetric=False, lossless=True),
        Scenario(name="nonsym-lossy", symmetric=False, lossless=False),
    )
}

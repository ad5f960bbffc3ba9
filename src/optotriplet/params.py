"""Physical parameters of the three-mode force sensor.

The sensor is an optical cavity supporting a triplet of modes spaced by the
mechanical frequency.  The central mode is resonantly pumped; the two sideband
modes are read out separately.  This module holds the user-facing parameter
set, derives the secondary quantities every other module consumes, and checks
the operating-regime inequalities the analytic spectra rely on.

All quantities are SI: rates in rad/s (amplitude half-widths, so an intensity
FWHM is twice the value stored here), lengths in m, powers in W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .constants import C_LIGHT, HBAR, K_B


class ParameterError(ValueError):
    """Raised when a physical parameter is missing, non-finite or out of range."""


# Fields that may legitimately be zero: loss channels and bath temperature.
_NON_NEGATIVE = {"gamma_e", "gamma_e_plus", "gamma_e_minus", "T"}


@dataclass(frozen=True)
class PhysParams:
    """User-supplied constants of oscillator, cavity, pump and measurement window.

    Attributes
    ----------
    m : float
        Mass of the mechanical oscillator [kg].
    omega_m : float
        Mechanical angular frequency [rad/s].
    Q : float
        Mechanical quality factor; the intrinsic amplitude decay rate is
        ``gamma_m = omega_m / (2 Q)``.
    T : float
        Bath temperature [K].  Zero is allowed (vacuum bath).
    tau : float
        Duration of the signal-force pulse [s].
    L : float
        Cavity length [m].
    wavelength : float
        Optical carrier wavelength [m].
    gamma0, gamma0_plus, gamma0_minus : float
        Input-mirror coupling rates of the central and sideband modes [rad/s].
    gamma_e, gamma_e_plus, gamma_e_minus : float
        Internal loss rates of the central and sideband modes [rad/s];
        zero switches the loss channel off.
    eps_plus, eps_minus : float
        Dimensionless multipliers on the nominal optomechanical coupling of
        the upper/lower sideband mode.  Must lie in (0, 2).
    p_in : float
        Input pump power on the central mode [W].
    """

    m: float
    omega_m: float
    Q: float
    T: float
    tau: float
    L: float
    wavelength: float
    gamma0: float
    gamma0_plus: float
    gamma0_minus: float
    gamma_e: float
    gamma_e_plus: float
    gamma_e_minus: float
    eps_plus: float
    eps_minus: float
    p_in: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParameterError(f"{f.name} must be a real number, got {v!r}")
            v = float(v)
            object.__setattr__(self, f.name, v)
            if not math.isfinite(v):
                raise ParameterError(f"{f.name} must be finite, got {v!r}")
            if f.name in _NON_NEGATIVE:
                if v < 0.0:
                    raise ParameterError(f"{f.name} must be >= 0, got {v!r}")
            elif v <= 0.0:
                raise ParameterError(f"{f.name} must be > 0, got {v!r}")
        if self.Q < 1.0:
            raise ParameterError(f"Q must be >= 1, got {self.Q!r}")
        for name in ("eps_plus", "eps_minus"):
            v = getattr(self, name)
            if not 0.0 < v < 2.0:
                raise ParameterError(f"{name} must lie in (0, 2), got {v!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Quantities computed once from :class:`PhysParams`.

    ``gamma_plus/minus`` are the total sideband half-widths
    ``gamma0_pm + gamma_e_pm``; ``gamma`` is the central half-width
    ``gamma0 + gamma_e/2``.  ``c0_sq`` is the mean intracavity photon number
    of the pumped mode, ``2 a0_sq / gamma0`` with ``a0_sq = p_in/(hbar omega0)``
    the incident photon flux.  ``eta_plus/minus`` are the sideband
    optomechanical coupling rates ``eps_pm * omega0 x0 / L``.
    """

    phys: PhysParams
    gamma_m: float
    gamma_plus: float
    gamma_minus: float
    gamma: float
    x0: float
    omega0: float
    eta_nom: float
    eta_plus: float
    eta_minus: float
    a0_sq: float
    c0_sq: float
    c0: float
    n_t: float
    b_thermal: float


def thermal_occupancy(omega_m: float, T: float) -> float:
    """Mean phonon number of a bath at temperature ``T`` [K]."""
    if T == 0.0:
        return 0.0
    x = HBAR * omega_m / (K_B * T)
    if x > 700.0:  # expm1 would overflow; occupancy is below 1e-304 anyway
        return 0.0
    return 1.0 / math.expm1(x)


def derive(p: PhysParams) -> DerivedParams:
    """Populate every derived quantity from a validated parameter set.

    Pure and deterministic: equal inputs give bit-identical outputs.
    """
    gamma_m = p.omega_m / (2.0 * p.Q)
    gamma_plus = p.gamma0_plus + p.gamma_e_plus
    gamma_minus = p.gamma0_minus + p.gamma_e_minus
    gamma = p.gamma0 + p.gamma_e / 2.0
    x0 = math.sqrt(HBAR / (2.0 * p.m * p.omega_m))
    omega0 = 2.0 * math.pi * C_LIGHT / p.wavelength
    eta_nom = omega0 * x0 / p.L
    a0_sq = p.p_in / (HBAR * omega0)
    c0_sq = 2.0 * a0_sq / p.gamma0
    n_t = thermal_occupancy(p.omega_m, p.T)
    b_thermal = n_t * p.omega_m * p.tau / p.Q

    d = DerivedParams(
        phys=p,
        gamma_m=gamma_m,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        gamma=gamma,
        x0=x0,
        omega0=omega0,
        eta_nom=eta_nom,
        eta_plus=p.eps_plus * eta_nom,
        eta_minus=p.eps_minus * eta_nom,
        a0_sq=a0_sq,
        c0_sq=c0_sq,
        c0=math.sqrt(c0_sq),
        n_t=n_t,
        b_thermal=b_thermal,
    )
    for f in fields(DerivedParams):
        if f.name == "phys":
            continue
        v = getattr(d, f.name)
        if not math.isfinite(v):
            raise ParameterError(f"derived quantity {f.name} is not finite ({v!r})")
    return d


# --- operating-regime report ------------------------------------------------

#: a ratio below this counts as "much smaller than"
SMALLNESS_THRESHOLD = 0.1
#: up to this multiple of the threshold the check is reported as marginal
MARGINAL_BAND = 3.0


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    ratio: float          # smallness ratio actually achieved
    threshold: float      # ratio below which the condition holds cleanly
    status: str           # "pass" | "marginal" | "fail"
    note: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def margin(self) -> float:
        """How many times below threshold the ratio sits (inf when ratio is 0)."""
        if self.ratio == 0.0:
            return math.inf
        return self.threshold / self.ratio


@dataclass(frozen=True)
class RegimeReport:
    checks: tuple[RegimeCheck, ...]
    b_thermal: float

    def __getitem__(self, name: str) -> RegimeCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def format(self) -> str:
        lines = ["operating-regime report"]
        for c in self.checks:
            margin = "inf" if math.isinf(c.margin) else f"{c.margin:.3g}x"
            lines.append(
                f"  [{c.status:>8s}] {c.name}: ratio {c.ratio:.4g} "
                f"(threshold {c.threshold:g}, margin {margin}) -- {c.note}"
            )
        lines.append(f"  thermal condition factor B = {self.b_thermal:.4g}")
        return "\n".join(lines)


def _status(ratio: float, threshold: float) -> str:
    if ratio < threshold:
        return "pass"
    if ratio < MARGINAL_BAND * threshold:
        return "marginal"
    return "fail"


def check_regime(d: DerivedParams) -> RegimeReport:
    """Evaluate the smallness conditions behind the analytic treatment.

    Always returns a report; out-of-regime parameters show up as flags,
    never as exceptions.  The input is not mutated.
    """
    p = d.phys
    thr = SMALLNESS_THRESHOLD

    ratios = []
    for ge, g0, tag in (
        (p.gamma_e, p.gamma0, "central"),
        (p.gamma_e_plus, p.gamma0_plus, "upper"),
        (p.gamma_e_minus, p.gamma0_minus, "lower"),
    ):
        ratios.append((ge / g0, tag))
    loss_ratio, loss_tag = max(ratios)
    loss = RegimeCheck(
        name="loss_smallness",
        ratio=loss_ratio,
        threshold=thr,
        status=_status(loss_ratio, thr),
        note=f"worst gamma_e/gamma_0 is the {loss_tag} mode",
    )

    rsb_opt = max(d.gamma, d.gamma_plus, d.gamma_minus) / p.omega_m
    rsb_mech = d.gamma_m / min(d.gamma, d.gamma_plus, d.gamma_minus)
    rsb_ratio = max(rsb_opt, rsb_mech)
    rsb = RegimeCheck(
        name="resolved_sideband",
        ratio=rsb_ratio,
        threshold=thr,
        status=_status(rsb_ratio, thr),
        note=f"max(gamma)/omega_m = {rsb_opt:.4g}, gamma_m/min(gamma) = {rsb_mech:.3g}",
    )

    b = d.b_thermal
    thermal = RegimeCheck(
        name="thermal_noise",
        ratio=b,
        threshold=thr,
        status=_status(b, thr),
        note=f"B = n_T omega_m tau / Q = {b:.4g}; thermal noise small vs quantum floor when B << 1",
    )

    gmt = d.gamma_m * p.tau
    pulse = RegimeCheck(
        name="short_pulse",
        ratio=gmt,
        threshold=thr,
        status=_status(gmt, thr),
        note=f"gamma_m * tau = {gmt:.4g}; pulse much shorter than the mechanical ring-down",
    )

    return RegimeReport(checks=(loss, rsb, thermal, pulse), b_thermal=b)


# --- Table-1 preset and config files ----------------------------------------

def table1_preset() -> PhysParams:
    """Default SiN-membrane / cm-cavity parameter set used for all estimates.

    The published table lists the total sideband half-widths
    ``gamma_pm = (1 -+ 1%) gamma0`` and the combined central bandwidth
    ``gamma0 + gamma_e = 2.3e5 1/s``; this preset resolves those into the
    stored input-coupling and loss rates (``gamma0 = 2.277e5``,
    ``gamma0_pm = gamma_pm - gamma_e_pm``).  The pulse duration follows the
    defining formula ``tau = 30 * (2 pi / omega_m)``; pass an explicit
    ``tau`` through a config file to override it.
    """
    omega_m = 2.0 * math.pi * 3.5e5
    gamma_e = 2.3e3
    gamma0 = 2.3e5 - gamma_e
    return PhysParams(
        m=5e-8,
        omega_m=omega_m,
        Q=1e9,
        T=20.0,
        tau=30.0 * (2.0 * math.pi / omega_m),
        L=0.1,
        wavelength=1.55e-6,
        gamma0=gamma0,
        gamma0_plus=0.99 * gamma0 - gamma_e,
        gamma0_minus=1.01 * gamma0 - gamma_e,
        gamma_e=gamma_e,
        gamma_e_plus=gamma_e,
        gamma_e_minus=gamma_e,
        eps_plus=1.03,
        eps_minus=0.97,
        p_in=1e-6,
    )


_CONFIG_KEYS = tuple(f.name for f in fields(PhysParams))


def parse_config_text(text: str) -> dict[str, float]:
    """Parse a flat ``key = value`` config into a dict of floats.

    Lines starting with ``#`` (or inline ``#`` comments) are ignored.
    Keys must match :class:`PhysParams` field names exactly; anything else
    is an error rather than silently dropped.
    """
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ParameterError(
                f"config line {lineno}: unknown key {key!r} "
                f"(known keys: {', '.join(_CONFIG_KEYS)})"
            )
        if key in out:
            raise ParameterError(f"config line {lineno}: duplicate key {key!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ParameterError(f"config line {lineno}: cannot parse value {val!r} for {key!r}") from None
    return out


def load_config(path, use_preset_defaults: bool = False) -> PhysParams:
    """Read a flat key-value config file into a :class:`PhysParams`.

    With ``use_preset_defaults`` unset every key is required; with it set,
    missing keys fall back to :func:`table1_preset`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_config_text(fh.read())
    if use_preset_defaults:
        base = table1_preset()
        merged = {name: getattr(base, name) for name in _CONFIG_KEYS}
        merged.update(values)
        return PhysParams(**merged)
    missing = [k for k in _CONFIG_KEYS if k not in values]
    if missing:
        raise ParameterError(
            "config is missing keys: " + ", ".join(missing)
            + " (use the preset flag to fill them from the default parameter set)"
        )
    return PhysParams(**values)

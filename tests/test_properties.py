"""Property-based checks of the analytic engine, the scenario variants and the config parser."""

import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import optotriplet as ot
from optotriplet.optimizer import y_opt_analytic
from optotriplet.params import load_config, parse_config_text

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
def phys_params(draw):
    """Valid parameter sets around the preset; every loss rate stays below gamma0,
    so the symmetric variant is valid too."""
    scale = st.floats(min_value=0.1, max_value=10.0)
    loss = st.floats(min_value=0.0, max_value=0.99)
    values = {name: getattr(_BASE, name) * draw(scale) for name in _SCALED}
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

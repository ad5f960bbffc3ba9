"""Property-based checks of the analytic engine over the named scenarios."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import optotriplet as ot
from optotriplet.optimizer import y_opt_analytic

_BASE = ot.table1_preset()
DERIVED = [ot.derive(s.apply(_BASE)) for s in ot.SWEEP_SCENARIOS.values()]

derived = st.sampled_from(DERIVED)
omegas = st.floats(min_value=0.0, max_value=1e10, allow_nan=False, allow_infinity=False)
weights = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
probes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)

PROPERTY = settings(max_examples=100, deadline=None)


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

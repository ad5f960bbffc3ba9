"""Optimal post-processing weight for the two-channel readout.

The quantum-noise density is a strictly convex quadratic in the complex
combination weight ``y``, so the minimizer is the noise-weighted centroid of
the four cancellation targets:

    y_opt = [ w+ (1/2 - Y+) - w- (1/2 + Y-)
            + we+ (1/2 - Ye+) - we- (1/2 + Ye-) ] / (w+ + w- + we+ + we-)

with the weights of :func:`optotriplet.spectra.noise_weights`.  The test
suite checks the closed form against an independent derivative-free simplex
search over (Re y, Im y).
"""

from __future__ import annotations

import numpy as np

from .params import DerivedParams
from .spectra import CoeffSet, noise_weights


def y_opt_analytic(c: CoeffSet, d: DerivedParams):
    """Closed-form minimizer of ``s_qu`` over the complex weight ``y``.

    Vectorized over the frequencies in ``c``.  Raises when all four noise
    weights vanish (degenerate quadratic with no unique minimizer).
    """
    w_p, w_m, we_p, we_m = noise_weights(c, d)
    total = w_p + w_m + we_p + we_m
    if np.any(total == 0.0):
        raise ValueError("all noise weights vanish; the weight optimization is degenerate")
    num = (
        w_p * (0.5 - c.y_plus)
        - w_m * (0.5 + c.y_minus)
        + we_p * (0.5 - c.ye_plus)
        - we_m * (0.5 + c.ye_minus)
    )
    y = num / total
    return y if np.ndim(y) else complex(y)

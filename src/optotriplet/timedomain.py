"""Time-domain Monte Carlo cross-check of the analytic spectra.

The amplitude-quadrature dynamics are linear with additive white noise:

    dc+/dt + gamma+ c+ = -eta+ C0 d + sqrt(2 g0+) a+(t) + sqrt(2 ge+) e+(t)
    dc-/dt + gamma- c- = +eta- C0 d + sqrt(2 g0-) a-(t) + sqrt(2 ge-) e-(t)
    dd/dt + gamma_m d  = C0 (eta+ c+ + eta- c-) + sqrt(2 gamma_m) q(t) + f(t)

with outputs ``b_pm = -a_pm + sqrt(2 g0_pm) c_pm``.  Noise intensities follow
the spectral-density convention of :mod:`optotriplet.spectra`: the optical
inputs ``a_pm, e_pm`` are unit white noise, the mechanical drive ``q`` has
intensity ``n_T + 1/2``.

Sampling is exact, not Euler-Maruyama: states advance by the matrix
exponential with the exact Ito noise increment, the recorded outputs are the
exact boxcar averages of ``b_pm`` over each step, and the step propagators and
the joint covariance of state and output noise within a step are blocks of
matrix exponentials (Van Loan 1978), exact up to rounding at any step size.
The exponentials are scaling-and-squaring Pade [13/13] approximants (Higham
2005, SIAM J. Matrix Anal. Appl. 26, 1179).  The initial state is drawn from
the stationary distribution, the solution of the continuous Lyapunov equation
in its Kronecker form, so every record is stationary from the first sample.

The step recursion ``x[n+1] = phi x[n] + w[n]`` is evaluated as a blocked
affine prefix scan (Blelloch 1990), not one step at a time: quarters of 256
steps are split into blocks of 32, each block is solved from a zero start by
one product with a block-Toeplitz matrix of powers of ``phi``, and only the
block-start states are carried in sequence.  The noise is drawn a quarter at
a time into one reused buffer, from one PCG64 stream per trajectory spawned
from the run's seed, and mixed, scanned and turned into outputs before the
next quarter is drawn.

A streamed run (:func:`run_comparison`) is split into contiguous shards of
trajectories, one per process the package's process policy allows
(:func:`optotriplet._forks.processes`), and each shard runs end to end in a
process of its own: the first in the calling process, each other in a child
forked for it (:func:`_in_shards`).  A shard draws its streams, mixes and
scans its quarters, windows, transforms and weights its segments and sums
each trajectory's periodograms over its segments, in order; a child reports
those per-trajectory sums through a pipe.  The calling process runs the
first shard, polling the children between its quarters, then waits for the
others and sums the per-trajectory sums in trajectory order.
:func:`simulate` and :func:`estimate_psd`, which hold whole records, run in
the calling process alone.  Each stream is read in order and every sum runs
in the same order, so the records and the estimate are the same bit for bit
whatever the number of processes.  The scan's two large products are issued
per trajectory, small enough that BLAS runs them on the shard's own thread.

Because the sampler is exact, the step is bounded by what the comparison
needs, not by an integrator's accuracy: :func:`exact_discrete_psd` is the
density of the combined record as sampled at a step, in closed form, and a
step is admitted when it matches the analytic ``S_f`` to 1e-6 relative up to
the band's top edge, ten cycles of the measurement window clipped to Nyquist.
:func:`default_sim_config` takes the largest admitted step that keeps that
edge within Nyquist and splits the run into 16 segments of a 5-smooth length.

Every run is planned first: :func:`_plan` alone fixes its sizes and refuses
it, in one order, before any array that grows with it is built.  A run out of
range is refused first, as a :class:`RunRangeError` (exit 1 in the CLI); an
unstable drift or a step over the bound is a numerical failure (exit 2).

The outputs are read a quarter (a panel) at a time.
:func:`simulate` collects them into records of ``2 * n_traj * n_steps``
floats, for inspection and signal-transfer checks; its plan refuses records
that, with their scan buffers, would exceed 4 GiB.  :func:`run_comparison`
feeds them straight into the Welch estimator, which fills one buffer of a
segment of both channels from pieces of any length: a quarter at a time
there, the whole records in :func:`estimate_psd`.  Its segments overlap by
half (Welch 1967), so each full buffer is windowed into a scratch array and
its last half is moved to the front as the next segment's start; each
segment's transforms are mixed into buffers it reuses, so the streamed run
needs ``O(n_traj * (segment + quarter))`` memory whatever its length.  The
estimator reads every panel, the ones after the last whole segment too.  Its
estimate covers only the comparison band's bins, each bit-identical to the
same bin of :func:`estimate_psd` of the records.  A trajectory's outputs
do not depend on how many trajectories run with it, so the panels of one
trajectory of a streamed run, sampled alone with the run's plan, reproduce
it to the bit; the CLI's time-series dump writes trajectory 0's that way,
each panel as it is made (:func:`_write_dump`), once the comparison has
returned, so the two never hold memory at once and the dump holds no records.

The weight is applied only where records are combined, in the frequency
domain: segmented Hann-windowed transforms of the two records are mixed per
bin with the analytic engine's optimal weights (any, in :func:`estimate_psd`),
and the averaged periodogram is compared against ``S_qu + S_T``.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._atomic import atomic_write
from ._forks import Forked, end_if_orphaned, processes
from .constants import HBAR
from .params import DerivedParams
from .spectra import SpectrumTable, coeffs, resolve_y, spectrum_sweep

#: slowest resolvable band edge: at least this many cycles must fit in a record
MIN_CYCLES_IN_RECORD = 100.0
# the step bound: the exact discrete-time density of the sampled run may differ
# from the analytic S_f by at most this much, relative, at each of _GAP_POINTS
# frequencies evenly spaced up to the comparison band's top edge; far below
# the 3.1% error bar of a default run, so discretisation never shows in a
# comparison
_STEP_GAP = 1e-6
_GAP_POINTS = 256
# shortest Welch segment, in samples
_MIN_SEG_LEN = 64
# Welch segments of a run by default: the segment length is n_steps // _SEGMENTS
_SEGMENTS = 16
# steps per block of the affine scan, and per quarter of 8 blocks (drawn,
# mixed, scanned and output at a time); rows of held records that the
# time-series dump formats at a time
_BLOCK = 32
_QUARTER = 8 * _BLOCK
_PANEL = 4 * _QUARTER
# negative eigenvalue mass, relative to the largest eigenvalue, that
# _factor_psd may clip as rounding noise
_PSD_CLIP_TOL = 1e-12
# largest records simulate() materialises: 4 GiB is 540x the default oracle
# run's 8 MB, and with the temporaries of sigma_timeseries on top it
# already exceeds the memory of a typical workstation; the spectral
# check streams and never needs the records, and its working set has the same cap
_MAX_RECORD_BYTES = 4 * 2**30


class SimulationError(RuntimeError):
    """Raised when a run cannot be sampled, is out of range, or diverges."""


class RunRangeError(SimulationError, ValueError):
    """A run setting out of range, refused before any work (a usage error)."""


@dataclass(frozen=True)
class SignalPulse:
    """Resonant square force pulse: amplitude in newtons, acting over
    ``[t_start, t_start + duration]`` with carrier phase ``psi_f``."""

    force_amp: float
    duration: float
    t_start: float = 0.0
    psi_f: float = 0.0

    def quad_amp(self, d: DerivedParams) -> float:
        """Drive amplitude of the force quadrature in the normalized units."""
        p = d.phys
        return (
            self.force_amp
            * math.cos(self.psi_f)
            / (math.sqrt(2.0) * math.sqrt(2.0 * HBAR * p.omega_m * p.m))
        )


@dataclass(frozen=True)
class SimConfig:
    """Run settings for :func:`simulate` and :func:`run_comparison`.

    It holds no weight, which enters only where records are combined.  Fields
    of the wrong type (a non-real ``dt`` or ``t_dur``, a non-integer ``n_traj``
    or ``seed``, a non-bool ``noise``, a ``signal`` not ``None`` nor a
    :class:`SignalPulse`), then ``dt``, ``t_dur``, ``n_traj`` and ``seed`` out
    of range raise :class:`RunRangeError` here; the run's plan checks the rest
    (see :func:`_plan`); any ``dt`` the step bound admits samples the same
    spectrum.  :func:`simulate` holds ``2 * n_traj * n_steps`` float64
    records, :func:`run_comparison` two segment buffers of
    ``n_traj * (n_steps // segments)`` and a windowed copy of one, a
    transform, the band bins' mix and one quarter's scan buffers; both plans
    refuse more than 4 GiB.  :func:`run_comparison` runs in up to
    ``n_traj`` processes, one per usable CPU, each drawing, scanning and
    transforming its own trajectories to the end of the run and summing their
    periodograms; :func:`simulate` runs in the calling process.  Records and
    estimates do not depend on how many.  The default ``n_traj``, 36, gives
    a default run's half-overlapped segments a 3.07% per-bin error bar
    (:class:`PsdEstimate`) and splits evenly over 2 and 4 CPUs.
    """

    dt: float
    t_dur: float
    n_traj: int = 36
    seed: int = 0
    signal: SignalPulse | None = None
    noise: bool = True

    def __post_init__(self):
        # numpy numbers are Integral or Real; a bool is an int, but neither a
        # count nor a duration
        for name, kind, what in (("dt", numbers.Real, "a real number"),
                                 ("t_dur", numbers.Real, "a real number"),
                                 ("n_traj", numbers.Integral, "an integer"),
                                 ("seed", numbers.Integral, "an integer")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise RunRangeError(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.noise, (bool, np.bool_)):
            raise RunRangeError(f"noise must be a bool, got {self.noise!r}")
        if self.signal is not None and not isinstance(self.signal, SignalPulse):
            raise RunRangeError(f"signal must be None or a SignalPulse, got {self.signal!r}")
        if self.dt <= 0.0 or not math.isfinite(self.dt):
            raise RunRangeError(f"dt must be positive and finite, got {self.dt!r}")
        if not math.isfinite(self.t_dur):
            raise RunRangeError(f"t_dur must be finite, got {self.t_dur!r}")
        if self.t_dur <= 0.0 or self.t_dur < 2.0 * self.dt:
            raise RunRangeError(f"t_dur must cover at least two steps, got {self.t_dur!r}")
        if self.n_traj < 1:
            raise RunRangeError(f"n_traj must be >= 1, got {self.n_traj!r}")
        if self.seed < 0:
            raise RunRangeError(f"seed must be >= 0, got {self.seed!r}")


def default_sim_config(d: DerivedParams, seed: int = 0, **overrides) -> SimConfig:
    """Statistics tuned for a 3% spectral check in about a second.

    :class:`SimConfig`'s default trajectories over ``t_dur`` = 2e4
    mechanical periods, in the steps of :func:`_default_steps`: 36
    trajectories of 13824 steps of 4.13 us on the preset, 31 half-overlapped
    periodograms each.  An overridden ``t_dur`` keeps that step; an
    overridden ``dt`` is taken as given.
    """
    t_dur = 2e4 * (2.0 * math.pi / d.phys.omega_m)
    if "dt" not in overrides:
        overrides["dt"] = t_dur / _default_steps(d, t_dur)
    return SimConfig(**{"t_dur": t_dur, "seed": seed, **overrides})


def _default_steps(d: DerivedParams, t_dur: float) -> int:
    """The fewest steps ``n = _SEGMENTS m`` over ``t_dur``, ``m`` 5-smooth (a
    product of 2, 3 and 5, so that each of the ``_SEGMENTS`` Welch segments
    transforms fast) and at least ``_MIN_SEG_LEN``, that keep the band's top
    edge ``2 pi 10 / tau`` within Nyquist and that the step bound of
    :func:`_plan` admits.

    Where the bound refuses the first such ``m``, ``m0``, the gap grows about
    as ``dt^2``, so the fewest admitted ``m`` lies near ``m0 sqrt(gap /
    _STEP_GAP)``: the search bisects the 5-smooth counts above ``m0`` up to 4
    times that estimate to the first admitted one.  The last of them is taken
    unchecked (the plan refuses it if the bound does), and the count before
    the one returned is refused, monotone gap or not.  A drift that is not
    stable and a gap at ``m0`` that is not finite, both refused by the plan,
    end at ``m0``.
    """
    # Nyquist pi / dt reaches the edge  <=>  _SEGMENTS m >= t_dur edge / pi
    least = max(_MIN_SEG_LEN, math.ceil(t_dur * _band_edge(d) / math.pi / _SEGMENTS))
    m0 = _smooth(least, 2 * least)[0]
    gap = math.inf if _drift_rates(d)[-1] >= 0.0 else _step_gap(d, t_dur / (_SEGMENTS * m0))
    if not _STEP_GAP < gap < math.inf:
        return _SEGMENTS * m0
    # smooth[0] = m0 is refused; m0, 2 m0 and 4 m0 are all in it
    smooth = _smooth(m0, math.floor(4 * m0 * math.sqrt(gap / _STEP_GAP)))
    k = bisect.bisect_left(smooth, True, 1, len(smooth) - 1,
                           key=lambda m: _step_gap(d, t_dur / (_SEGMENTS * m)) <= _STEP_GAP)
    return _SEGMENTS * smooth[k]


def _drift_rates(d: DerivedParams) -> np.ndarray:
    """Real parts of the drift matrix's eigenvalues, ascending; all negative
    for a sensor that does not self-oscillate."""
    return np.sort(np.linalg.eigvals(_system_matrices(d, True)[0]).real)


def _smooth(lo: int, hi: int) -> list[int]:
    """The 5-smooth integers (``2^a 3^b 5^c``) in ``[lo, hi]``, ascending."""
    smooth = []
    p5 = 1
    while p5 <= hi:
        p35 = p5
        while p35 <= hi:
            n = p35 << max(0, (-(-lo // p35) - 1).bit_length())  # the least p35 2^a >= lo
            smooth += [n << a for a in range((hi // n).bit_length())]
            p35 *= 3
        p5 *= 5
    return sorted(smooth)


def _system_matrices(d: DerivedParams, noise_on: bool):
    """Drift, noise-input, intensity and output matrices of the quadrature set."""
    p = d.phys
    ep, em = d.eta_plus * d.c0, d.eta_minus * d.c0
    drift = np.array([
        [-d.gamma_plus, 0.0, -ep],
        [0.0, -d.gamma_minus, em],
        [ep, em, -d.gamma_m],
    ])
    f_in = np.array([
        [math.sqrt(2.0 * p.gamma0_plus), math.sqrt(2.0 * p.gamma_e_plus), 0.0, 0.0, 0.0],
        [0.0, 0.0, math.sqrt(2.0 * p.gamma0_minus), math.sqrt(2.0 * p.gamma_e_minus), 0.0],
        [0.0, 0.0, 0.0, 0.0, math.sqrt(2.0 * d.gamma_m)],
    ])
    intens = np.diag([1.0, 1.0, 1.0, 1.0, d.n_t + 0.5]) if noise_on else np.zeros((5, 5))
    c_out = np.array([
        [math.sqrt(2.0 * p.gamma0_plus), 0.0, 0.0],
        [0.0, math.sqrt(2.0 * p.gamma0_minus), 0.0],
    ])
    e_sel = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
    ])
    return drift, f_in, intens, c_out, e_sel


# coefficients b_k of the Pade [13/13] numerator p(A) = sum_k b_k A^k (the
# denominator is p(-A)), and the largest 1-norm for which the approximant is
# accurate to double precision (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: Pade [13/13] with scaling and squaring (Higham 2005).

    ``a`` is scaled by ``2**-s`` until its 1-norm is at most ``_THETA13``, the
    approximant ``(V - U)^-1 (V + U)`` of the scaled matrix is formed from its
    even powers, and the result is squared ``s`` times.
    """
    norm = np.linalg.norm(a, 1)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solution ``X`` of ``A X + X A^T = Q``.

    Solved as the ``n^2`` linear system ``(I (x) A + A (x) I) vec X = vec Q``;
    the operator is the same for row- and column-major ``vec``.  Meant for the
    3x3 drift, where the system is 9x9.
    """
    n = a.shape[0]
    ident = np.eye(n)
    kron = np.kron(ident, a) + np.kron(a, ident)
    return np.linalg.solve(kron, q.reshape(-1)).reshape(n, n)


def _step_operators(drift, f_in, intens, c_out, e_sel, dt):
    """One-step propagators and the exact joint noise covariance.

    Returns ``phi = exp(M dt)``, the step integrals ``J = int_0^dt exp(M s) ds``
    and ``JJ = int_0^dt K(u) du`` with ``K(s) = int_0^s exp(M v) dv``, and the
    5x5 covariance of the stacked per-step noise (state increment, output
    average).  Every integral is a block of a matrix exponential (Van Loan
    1978): ``phi``, ``J`` and ``JJ`` are the first block row of
    ``exp([[M, I, 0], [0, 0, I], [0, 0, 0]] dt)``, and the covariance is that
    of the state augmented with the integrated outputs, ``A = [[M, 0], [C, 0]]``
    driven through ``B = [F; -E]``; its output rows and columns are divided by
    ``dt``.  The covariance block holds ``exp(-A h)``, which grows as
    ``e^{|lambda| h}`` and cancels in the product that gives the covariance, so
    it is formed over ``h = dt / 2^s``, ``s`` the least with the largest
    eigenvalue modulus of ``M`` times ``h`` at most 1, and doubled ``s`` times,
    ``Q(2h) = exp(A h) Q(h) exp(A h)^T + Q(h)``, a sum of positive
    semi-definite terms (Anderson & Moore 1979).  Both are exact up to
    rounding at any step size; at every default step ``s = 0``.
    """
    n = drift.shape[0]
    m = n + c_out.shape[0]
    chain = np.zeros((3 * n, 3 * n))
    chain[:n, :n] = drift
    chain[:n, n:2 * n] = np.eye(n)
    chain[n:2 * n, 2 * n:] = np.eye(n)
    blocks = _expm(chain * dt)
    phi, j_dt, jj = blocks[:n, :n], blocks[:n, n:2 * n], blocks[:n, 2 * n:]

    # Van Loan: exp([[-A, B Q B^T], [0, A^T]] dt) = [[., G], [0, exp(A dt)^T]],
    # and int_0^dt exp(A s) B Q B^T exp(A s)^T ds = exp(A dt) G
    a = np.zeros((m, m))
    a[:n, :n] = drift
    a[n:, :n] = c_out
    b = np.vstack([f_in, -e_sel])
    van_loan = np.zeros((2 * m, 2 * m))
    van_loan[:m, :m] = -a
    van_loan[:m, m:] = b @ intens @ b.T
    van_loan[m:, m:] = a.T
    # the least s >= 0 with rho dt / 2^s <= 1, from rho dt = frac 2^e with
    # 0.5 <= frac < 1; none where rho dt is not finite, which overflows as before
    frac, e = math.frexp(float(np.max(np.abs(np.linalg.eigvals(drift)))) * dt)
    halvings = max(0, e - 1 if frac == 0.5 else e)
    blocks = _expm(van_loan * math.ldexp(dt, -halvings))
    phi_a = blocks[m:, m:].T  # exp(A h)
    cov = phi_a @ blocks[:m, m:]
    for _ in range(halvings):
        cov = phi_a @ cov @ phi_a.T + cov
        phi_a = phi_a @ phi_a
    cov[:, n:] /= dt  # integrated outputs -> step averages
    cov[n:, :] /= dt
    cov = 0.5 * (cov + cov.T)
    return phi, j_dt, jj, cov


def _factor_psd(cov: np.ndarray) -> np.ndarray:
    """Cholesky-like factor of a positive semi-definite covariance.

    A singular covariance, where Cholesky fails, is factored from its
    eigendecomposition with the negative eigenvalues clipped to zero.  The
    clip is only taken as rounding noise: when the dropped mass exceeds
    ``_PSD_CLIP_TOL`` of the largest eigenvalue the covariance is rejected.
    """
    if not np.any(cov):
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        dropped = -float(np.sum(vals[vals < 0.0]))
        top = float(vals[-1])
        if dropped > _PSD_CLIP_TOL * top:
            raise SimulationError(
                f"noise covariance is not positive semi-definite: clipping would drop "
                f"negative eigenvalue mass {dropped:.3e} against a largest eigenvalue "
                f"of {top:.3e} (tolerance {_PSD_CLIP_TOL:g} relative)"
            ) from None
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


@dataclass
class TimeSeriesBundle:
    """Sampled output quadratures of a run.

    ``b_plus``/``b_minus`` have shape ``(n_traj, n_steps)`` and hold the
    boxcar-averaged outputs over each step, stamped at the step start.
    The combined record is not stored; :meth:`sigma_timeseries` computes it
    on each call.
    """

    d: DerivedParams
    cfg: SimConfig
    b_plus: np.ndarray
    b_minus: np.ndarray

    @property
    def dt(self) -> float:
        return self.cfg.dt

    @property
    def n_steps(self) -> int:
        return self.b_plus.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps) * self.dt

    def sigma_timeseries(self) -> np.ndarray:
        """Materialize the real-valued combined record per trajectory.

        Transforms the full records, applies the per-bin complex weights and
        transforms back; mainly for inspection, the spectral comparison never
        needs the time-domain combination.
        """
        n = self.n_steps
        omega = 2.0 * math.pi * np.fft.rfftfreq(n, d=self.dt)
        wp, wm = sigma_weights(self.d, omega, "optimal")
        xp = np.conj(np.fft.rfft(self.b_plus, axis=1))
        xm = np.conj(np.fft.rfft(self.b_minus, axis=1))
        return np.fft.irfft(np.conj(wp * xp + wm * xm), n=n, axis=1)

    def dump_text(self, path) -> None:
        """Columnar dump of the first trajectory: time, b_plus_a, b_minus_a,
        one panel of rows at a time (:func:`_write_dump`)."""
        _write_dump(path, self.dt, ((self.b_plus[:1, n0:n0 + _PANEL],
                                     self.b_minus[:1, n0:n0 + _PANEL])
                                    for n0 in range(0, self.n_steps, _PANEL)))


def _write_dump(path, dt: float, chunks) -> None:
    """Columnar dump of the first trajectory of ``chunks``: time, b_plus_a,
    b_minus_a.

    ``chunks`` yields both channels in time order as ``(b_plus, b_minus)``
    pieces of one row per trajectory, as :func:`_welch` reads them and
    :func:`_panels` yields them.  Each piece's first row is formatted as it
    comes, as ``np.savetxt`` formats it (:func:`_rows_text`), so no copy of
    the series is made, and written through a temporary file, so ``path``
    only appears once the dump is complete.
    """
    def blocks():
        yield "time b_plus_a b_minus_a\n"
        n0 = 0
        for zp, zm in chunks:
            n1 = n0 + zp.shape[1]
            yield _rows_text(np.column_stack([np.arange(n0, n1) * dt, zp[0], zm[0]]))
            n0 = n1

    atomic_write(path, blocks())


def _rows_text(block: np.ndarray) -> str:
    """The rows of ``block``, of three columns, as ``np.savetxt`` writes them
    by default: each value ``%.18e``, separated by spaces, one line per row."""
    return ("%.18e %.18e %.18e\n" * len(block)) % tuple(block.ravel().tolist())


def sigma_weights(d: DerivedParams, omega, y_policy):
    """Complex per-frequency weights applied to the two records.

    ``W_pm = (y -/+ 1/2)(gm_tot - i Omega) / A_pm``; these give the combined
    record a unit signal-force coefficient at every frequency.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    c = coeffs(d, omega)
    y = resolve_y(d, c, y_policy)
    chi = c.gm_tot - 1j * omega
    return (y - 0.5) * chi / c.a_plus, (y + 0.5) * chi / c.a_minus


def exact_discrete_psd(d: DerivedParams, dt: float, omega) -> np.ndarray:
    """Spectral density of the optimally combined record as the sampler draws
    it at step ``dt``: exact in discrete time, with no sampling noise.

    The sampled run is ``x[n+1] = phi x[n] + w[n]``, ``z[n] = zx x[n] + v[n]``,
    with the per-step covariance ``[[Q, S], [S^T, R]]`` of ``(w[n], v[n])``
    from :func:`_step_operators`.  Its outputs have the density matrix
    ``G Q G^H + G S + S^T G^H + R`` with ``G = zx (e^{i omega dt} I - phi)^-1``
    (Kailath, Sayed & Hassibi 2000), here in the sign convention of
    :func:`_welch`'s transforms, so the combined record's density is
    ``dt w conj(G Q G^H + G S + S^T G^H + R) w^H`` with ``w`` from
    :func:`sigma_weights`.  It tends to the analytic ``S_f`` as ``dt`` falls;
    the step bound of :func:`_plan` compares the two.  All noise is on.
    """
    drift, f_in, intens, c_out, e_sel = _system_matrices(d, True)
    phi, j_dt, _, cov = _step_operators(drift, f_in, intens, c_out, e_sel, dt)
    zx = (c_out @ j_dt) / dt
    q, s, r = cov[:3, :3], cov[:3, 3:], cov[3:, 3:]
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    shift = np.exp(1j * omega * dt)[:, None, None] * np.eye(3) - phi
    g = np.swapaxes(np.linalg.solve(np.swapaxes(shift, 1, 2), zx.T), 1, 2)  # zx shift^-1
    g_h = np.conj(np.swapaxes(g, 1, 2))
    w = np.stack(sigma_weights(d, omega, "optimal"), axis=1)
    return dt * np.einsum("ni,nij,nj->n", w, np.conj(g @ q @ g_h + g @ s + s.T @ g_h + r),
                          np.conj(w)).real


def _band_edge(d: DerivedParams) -> float:
    """Ten cycles of the measurement window: the comparison band's top edge
    where Nyquist lies above it."""
    return 2.0 * math.pi * 10.0 / d.phys.tau


def _band_top(d: DerivedParams, dt: float) -> float:
    """Top edge of the comparison band: :func:`_band_edge`, clipped to
    Nyquist, ``pi / dt``."""
    return min(_band_edge(d), math.pi / dt)


def _step_gap(d: DerivedParams, dt: float) -> float:
    """Largest relative difference between :func:`exact_discrete_psd` at step
    ``dt`` and the analytic ``S_f``, at ``_GAP_POINTS`` frequencies evenly
    spaced up to the band's top edge; ``inf`` when either is not finite, or
    the step's operators cannot be formed."""
    omega = _band_top(d, dt) * np.arange(1, _GAP_POINTS + 1) / _GAP_POINTS
    # a step far too coarse, or too fine, overflows in the operators; the
    # result is then not finite, and the step is refused
    with np.errstate(all="ignore"):
        try:
            exact = exact_discrete_psd(d, dt, omega)
        except np.linalg.LinAlgError:  # e^{i omega dt} an eigenvalue of phi in floats
            return math.inf
        analytic = spectrum_sweep(d, omega).s_f
        gap = np.abs(exact - analytic) / analytic
    return float(np.max(gap)) if np.all(np.isfinite(gap)) else math.inf


def _shards(n_traj: int) -> list[slice]:
    """Contiguous ranges of the trajectories, one per process that
    :func:`processes` allows."""
    n = processes(n_traj)
    cuts = [n_traj * g // n for g in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _in_shards(shards, work) -> list:
    """``work(rows, chunks)`` of each ``(rows, chunks)`` of ``shards``, in
    shard order: the first shard's in the calling process, each other's in a
    child forked for it (:class:`Forked`), which reports what ``work``
    returned.

    Before each chunk of the first shard the children's pipes are polled
    without waiting, so a child's error stops the run before the first
    shard's next chunk; once the first shard has ended, the calling process
    waits on every child's pipe at once.  Any error, the first shard's, a
    child's or an interrupt, kills and reaps every child before it is raised.
    """
    (rows, chunks), rest = shards[0], shards[1:]
    if not rest:
        return [work(rows, chunks)]
    works = [(f"shard process {{pid}} (trajectories {r.start}-{r.stop - 1})",
              functools.partial(work, r, _checked(end_if_orphaned, c)))
             for r, c in rest]
    with Forked(works) as children:
        first = work(rows, _checked(children.poll, chunks))
        return [first, *children.results()]


def _checked(check, chunks):
    """``chunks``, with ``check()`` called before each is made."""
    chunks = iter(chunks)
    while True:
        check()
        chunk = next(chunks, None)
        if chunk is None:
            return
        yield chunk


# --- run plan -----------------------------------------------------------------

@dataclass(frozen=True)
class _Plan:
    """A run's sizes and index ranges; Welch fields ``None`` for records alone."""

    n_steps: int
    signal: tuple[int, int]  # the pulse acts over steps [i0, i1); (0, 0) without one
    step_gap: float          # what admitted the step: see _step_gap
    segments: int | None = None
    seg_len: int | None = None
    band: tuple[float, float] | None = None
    bins: slice | None = None          # the band's bins of a segment's rfft
    periodograms: int | None = None    # half-overlapped segments per trajectory: _overlap
    stream_bytes: int | None = None    # working set of the streamed estimate


def _gib(size: int) -> str:
    return f"{size / 2**30 if size < 2**1000 else math.inf:.2f}"


def _count(n: int) -> str:
    """A step or sample count: in full up to 1e15, to three digits past it."""
    try:
        return str(n) if n < 10**15 else f"{n:.3g}"
    except OverflowError:  # past the largest float
        return "inf"


def _plan(d: DerivedParams, cfg: SimConfig, segments: int | None = None) -> _Plan:
    """Check a run and fix its sizes before any array that grows with it.

    The refusals come in this order, (1) and (8) as :class:`SimulationError`
    (exit 2 in the CLI), the rest as :class:`RunRangeError` (exit 1): (1) a
    drift matrix that is not strictly stable; (2) a step count ``t_dur / dt``
    that is not finite; (3) fewer than 8 segments ("need at least 8
    segments"); (4) a streamed working set above ``_MAX_RECORD_BYTES``, known
    once the segment length is; (5) segments under 64 samples; (6) no
    :func:`default_band`, or none of its bins; (7) a signal window outside the
    run; (8) the step bound, last, once the run is known to be in range: a
    step at which :func:`exact_discrete_psd`, the density the sampler draws,
    differs from the analytic ``S_f`` by more than ``_STEP_GAP`` relative, or
    not finitely, at any of ``_GAP_POINTS`` frequencies evenly spaced up to
    the band's top edge (:func:`_step_gap`).  Those frequencies depend on
    ``d`` and ``dt`` alone, so the bound costs the same whatever the run's
    size.  Without ``segments`` only the records are planned, for
    :func:`simulate`: (3) to (6) are skipped, and (4) is the records of
    ``16 * n_traj * n_steps`` bytes with one quarter's scan buffers above the
    cap.
    """
    rates = _drift_rates(d)
    if rates[-1] >= 0.0:
        raise SimulationError(
            f"drift matrix is not stable (eigenvalue real parts {rates}); "
            "the sensor self-oscillates for these parameters"
        )
    steps = cfg.t_dur / cfg.dt
    if not math.isfinite(steps):
        raise RunRangeError(
            f"t_dur / dt = {cfg.t_dur!r} s / {cfg.dt!r} s is not a finite number of steps")
    n_steps = round(steps)
    # float64 values per quarter step and trajectory, rounded up: the draws
    # (5), the increments and output noise (5), the scan's block solutions and
    # their start terms (6), and the carried block ends and the pulse's drive
    scan_bytes = 8 * cfg.n_traj * 20 * _QUARTER
    seg_len = band = bins = periodograms = stream_bytes = None
    if segments is None:
        record_bytes = 16 * cfg.n_traj * n_steps
        if record_bytes + scan_bytes > _MAX_RECORD_BYTES:
            # streaming drops the records but keeps the scan buffers, so it is
            # only a remedy when those alone fit
            hint = ("; run_comparison streams the spectral check without materialising them"
                    if scan_bytes <= _MAX_RECORD_BYTES else "")
            raise RunRangeError(
                f"records of {_count(cfg.n_traj)} trajectories x {_count(n_steps)} steps "
                f"would take {_gib(record_bytes)} GiB and their scan buffers "
                f"{_gib(scan_bytes)} GiB (cap {_MAX_RECORD_BYTES / 2**30:g} GiB){hint}"
            )
    else:
        seg_len = _segment_len(n_steps, segments)
        # float64 values per segment sample and trajectory (the two segment
        # buffers, the windowed copy, one rfft, and per band bin, at most one per
        # two samples, the complex mix, its periodogram row and their sum) and per
        # sample (window, bin weights), and 256 KiB whatever the run's size (the
        # step bound's frequencies and the scan's operators): run_comparison's
        # tracemalloc peak, rounded up
        stream_bytes = 8 * (6 * cfg.n_traj + 24) * seg_len + scan_bytes + 2**18
        if stream_bytes > _MAX_RECORD_BYTES:
            raise RunRangeError(
                f"a streamed run of {_count(cfg.n_traj)} trajectories in segments of "
                f"{_count(seg_len)} steps would hold {_gib(stream_bytes)} GiB "
                f"(cap {_MAX_RECORD_BYTES / 2**30:g} GiB); "
                "use fewer trajectories, a larger dt or more segments"
            )
        _check_segment_len(n_steps, seg_len)
        periodograms = _overlap(seg_len, segments)[1]
        band = default_band(d, cfg)
        bins = _band_bins(seg_len, cfg.dt, band)
    signal = (0, 0)
    if cfg.signal is not None:
        t0, t1 = cfg.signal.t_start, cfg.signal.t_start + cfg.signal.duration
        ends = (t0 / cfg.dt, t1 / cfg.dt)
        if all(map(math.isfinite, ends)):
            signal = (round(ends[0]), round(ends[1]))
        if not 0 <= signal[0] < signal[1] <= n_steps:
            raise RunRangeError(f"signal window [{t0}, {t1}] s does not fit the run")
    gap = _step_gap(d, cfg.dt)
    if not gap <= _STEP_GAP:
        raise SimulationError(
            f"dt = {cfg.dt:g} s breaks the step bound: up to {_band_top(d, cfg.dt):g} rad/s "
            f"the density the sampler draws differs from the analytic S_f by {gap:.3g} "
            f"relative (bound {_STEP_GAP:g}); use a smaller dt"
        )
    return _Plan(n_steps, signal, gap, segments, seg_len, band, bins, periodograms,
                 stream_bytes)


def _segment_len(n_len: int, segments: int) -> int:
    if segments < 8:
        raise RunRangeError(f"need at least 8 segments, got {segments}")
    return n_len // segments


def _overlap(seg_len: int, segments: int) -> tuple[int, int]:
    """Hop and count of the half-overlapped Welch segments over the first
    ``segments * seg_len`` samples: one starts every ``seg_len // 2`` samples
    while a whole segment fits, ``2 segments - 1`` for an even ``seg_len``."""
    hop = seg_len // 2
    return hop, (segments * seg_len - seg_len) // hop + 1


def _check_segment_len(n_len: int, seg_len: int) -> None:
    if seg_len < _MIN_SEG_LEN:
        raise RunRangeError(f"series too short: {_count(n_len)} samples give segments of "
                            f"{seg_len} (< {_MIN_SEG_LEN})")


def _band_bins(seg_len: int, dt: float, band: tuple[float, float]) -> slice:
    """The interior bins of a segment's rfft inside ``band``; refuses none.
    Each frequency is computed as in ``2 pi np.fft.rfftfreq(seg_len, dt)``, so
    bisection finds the ends ``np.searchsorted`` finds over its interior bins."""
    val = 1.0 / (seg_len * dt)
    interior = range(1, (seg_len + 1) // 2)  # no DC, no Nyquist

    def omega(k):
        return 2.0 * math.pi * (k * val)

    lo = bisect.bisect_left(interior, band[0], key=omega)
    hi = bisect.bisect_right(interior, band[1], key=omega)
    if lo == hi:
        raise RunRangeError(f"band {band!r} does not overlap the estimated bins "
                            f"[{omega(interior[0]):g}, {omega(interior[-1]):g}]")
    return slice(1 + lo, 1 + hi)


class _Sampler:
    """What every shard of a planned run reads: the step operators, the
    stationary start, the drive and one seed per trajectory.  Built once, in
    the calling process before any shard is forked, and never changed.  It
    reads only the plan's step count and signal window, which do not depend
    on ``cfg.n_traj``: a streamed run's plan serves one of its trajectories
    alone."""

    def __init__(self, d: DerivedParams, cfg: SimConfig, plan: _Plan):
        drift, f_in, intens, c_out, e_sel = _system_matrices(d, cfg.noise)
        self.noise, self.n_steps = cfg.noise, plan.n_steps
        # deterministic drive (signal pulse, constant within a step) over steps [i0, i1)
        self.signal = plan.signal
        self.amp = cfg.signal.quad_amp(d) if cfg.signal is not None else 0.0
        phi, j_dt, jj, cov = _step_operators(drift, f_in, intens, c_out, e_sel, cfg.dt)
        noise_factor = _factor_psd(cov)
        e_drive = np.array([0.0, 0.0, 1.0])
        self.x_kick = j_dt @ e_drive          # state response to unit drive over one step
        self.z_kick = (c_out @ jj @ e_drive) / cfg.dt

        # without noise the intensity is zero, and so is the stationary factor
        stat_cov = _lyapunov(drift, -(f_in @ intens @ f_in.T))
        self.stat_factor = _factor_psd(0.5 * (stat_cov + stat_cov.T))

        self.scan = _BlockScan(phi)
        # transposed operators for trajectory-major rows, contiguous for BLAS
        self.to_w = np.ascontiguousarray(noise_factor[:3].T)
        self.to_z = np.ascontiguousarray(noise_factor[3:].T)
        zx = (c_out @ j_dt) / cfg.dt  # output from the step-start state
        self.zx_t = np.ascontiguousarray(zx.T)
        self.seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)


def _shard_panels(d: DerivedParams, cfg: SimConfig, plan: _Plan) -> list:
    """``(rows, panels)`` per shard of a planned run, in trajectory order:
    :func:`_panels` of each of :func:`_shards`, over one :class:`_Sampler`."""
    sampler = _Sampler(d, cfg, plan)
    return [(rows, _panels(sampler, rows)) for rows in _shards(cfg.n_traj)]


def _panels(sampler: _Sampler, rows: slice):
    """Outputs ``(b_plus, b_minus)`` of the trajectories ``rows`` of a run,
    one row per trajectory, per ``_QUARTER`` steps (fewer in the last one).

    The noise of each quarter is drawn into one reused buffer, one call per
    trajectory, then mixed, scanned and output, so the draws, the mixed
    increments and the scan temporaries are a quarter's.  All work, the
    streams' creation included, waits for the first output, so it runs in
    the process that reads them.  Each trajectory draws from its own PCG64
    stream, in the same order whatever consumes the outputs.
    """
    n_steps, (i0, i1), amp = sampler.n_steps, sampler.signal, sampler.amp
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in sampler.seeds[rows]]
    n_tr = len(rngs)
    x = np.empty((n_tr, 3))  # one state row per trajectory
    for k, rng in enumerate(rngs):
        x[k] = sampler.stat_factor @ rng.standard_normal(3)

    # trajectory-major draws, reused per quarter; the zeroed tail of the last
    # quarter carries no noise, so every product has a quarter's shape, and a
    # noiseless run mixes its all-zero noise factor into zeros and draws nothing
    eps = np.zeros((n_tr, _QUARTER, 5))
    draws = [(rng, eps[k]) for k, rng in enumerate(rngs)]
    for q0 in range(0, n_steps, _QUARTER):
        mq = min(_QUARTER, n_steps - q0)
        if sampler.noise:
            if mq < _QUARTER:  # the last quarter, partial
                draws = [(rng, e[:mq]) for rng, e in draws]
                eps[:, mq:] = 0.0
            for rng, e in draws:
                rng.standard_normal(out=e)
        w = eps @ sampler.to_w          # state increments
        z = eps @ sampler.to_z          # output noise
        if amp and i0 < q0 + _QUARTER and q0 < i1:
            f = np.zeros(_QUARTER)
            f[max(i0 - q0, 0):i1 - q0] = amp
            w += f[:, None] * sampler.x_kick
            z += f[:, None] * sampler.z_kick
        x_prev, x = sampler.scan(w, x)
        if not np.all(np.isfinite(x)):
            raise SimulationError(f"state diverged by step {q0 + mq} (of {n_steps})")
        z += x_prev @ sampler.zx_t
        del w, x_prev  # not held while the consumer reads z
        yield z[:, :mq, 0], z[:, :mq, 1]


def simulate(d: DerivedParams, cfg: SimConfig) -> TimeSeriesBundle:
    """Integrate the quadrature dynamics and record both outputs.

    Refuses what the run's plan refuses, records above 4 GiB among it;
    :func:`run_comparison` streams long runs instead.  Identical config and
    seed give bit-identical records, made in the calling process.
    """
    plan = _plan(d, cfg)
    b_plus, b_minus = np.empty((2, cfg.n_traj, plan.n_steps))
    n0 = 0
    for zp, zm in _panels(_Sampler(d, cfg, plan), slice(0, cfg.n_traj)):
        n1 = n0 + zp.shape[1]
        b_plus[:, n0:n1], b_minus[:, n0:n1] = zp, zm
        n0 = n1
    return TimeSeriesBundle(d=d, cfg=cfg, b_plus=b_plus, b_minus=b_minus)


class _BlockScan:
    """Blocked affine prefix scan of ``x[n+1] = phi x[n] + w[n]`` over a run
    of whole blocks.

    The steps are cut into blocks of ``_BLOCK`` steps.  Each
    block is solved from a zero start with one product against the lower
    block-Toeplitz matrix of powers of ``phi``; only the block-start states are
    carried sequentially, and their propagated contribution is added with a
    second product.  States are rows (one per trajectory).
    """

    def __init__(self, phi: np.ndarray):
        n = phi.shape[0]
        powers = [np.eye(n)]
        for _ in range(_BLOCK - 1):
            powers.append(phi @ powers[-1])
        # toeplitz[i, :, j, :] = (phi^(j-1-i))^T for i < j: state before step j
        toeplitz = np.zeros((_BLOCK, n, _BLOCK, n))
        for i in range(_BLOCK):
            for j in range(i + 1, _BLOCK):
                toeplitz[i, :, j, :] = powers[j - 1 - i].T
        self.toeplitz = toeplitz.reshape(_BLOCK * n, _BLOCK * n)
        self.from_start = np.hstack([p.T for p in powers[:_BLOCK]])
        self.phi_t = phi.T
        # the carry applies phi^_BLOCK once per block over the whole run, so a
        # power a few ulps off drifts the slow mechanical mode systematically
        # (about 1e-12 relative over 1.6e5 steps): use the exact power of phi,
        # rounded once.  phi's entries are integers over one power-of-two
        # denominator, so the power is an integer matrix over its power, and
        # int / int true division rounds correctly
        ratios = [x.as_integer_ratio() for x in phi.ravel().tolist()]
        den = max(q for _, q in ratios)
        ints = np.array([p * (den // q) for p, q in ratios], dtype=object).reshape(phi.shape)
        power, scale = np.linalg.matrix_power(ints, _BLOCK), den**_BLOCK
        self.phi_block_t = np.array([[v / scale for v in row] for row in power.T.tolist()])
        self.n = n

    def __call__(self, w: np.ndarray, x0: np.ndarray):
        """States before every step of ``w``, and the state after it.

        ``w`` has shape ``(n_traj, m, n)``, ``m`` a multiple of ``_BLOCK``,
        ``x0`` shape ``(n_traj, n)``.
        """
        n_tr, n = x0.shape[0], self.n
        # one product per trajectory, not one for the whole quarter: products of
        # this size stay on the calling thread, so BLAS starts no worker thread
        # to compete with the other shards' processes
        w = w.reshape(n_tr, -1, _BLOCK * n)
        local = w @ self.toeplitz              # block solutions from zero start
        ends = (local[..., -n:].reshape(-1, n) @ self.phi_t
                + w[..., -n:].reshape(-1, n)).reshape(n_tr, -1, n)
        starts = np.empty_like(ends)
        # BLAS rounds a one-row product (gemv) unlike the rows of a larger one
        # (gemm), so a lone trajectory is carried next to a copy of itself:
        # each row's states then do not depend on how many share the product
        x = x0 if n_tr > 1 else np.repeat(x0, 2, axis=0)
        for b in range(ends.shape[1]):
            starts[:, b] = x[:n_tr]
            x = x @ self.phi_block_t + ends[:, b]
        local += starts @ self.from_start
        return local.reshape(n_tr, -1, n), x[:n_tr]


# --- spectral estimation ------------------------------------------------------

@dataclass(frozen=True)
class PsdEstimate:
    """Averaged spectral density of the combined record's noise.

    ``n_ind`` counts the periodograms averaged, ``K`` half-overlapped
    segments (:func:`_overlap`) of each of ``n_traj`` trajectories.
    ``rel_err`` is the one-sigma relative error bar per bin,
    ``sqrt(v / n_ind)``: overlapping segments are correlated, and ``v = 1 +
    2 (1 - 1/K) rho^2`` counts it from the window's correlation ``rho`` at a
    lag of one hop (Welch 1967), ``1/6`` for the Hann window and an even
    segment length.  Segments two hops apart share at most the window's
    zero first sample, so no longer lag adds to ``v``.  ``t_dur`` is the
    run's duration.
    """

    omega: np.ndarray
    psd: np.ndarray
    rel_err: float
    n_ind: int
    t_dur: float


def _welch(d: DerivedParams, cfg: SimConfig, n_len: int, segments: int, shards,
           bins: slice | None = None, y_policy="optimal") -> PsdEstimate:
    """Averaged periodogram of the combined record, one segment at a time.

    ``shards`` holds, in trajectory order, one ``(rows, chunks)`` per shard of
    the ``cfg.n_traj`` trajectories of a run of ``n_len`` samples: ``chunks``
    yields both channels of the trajectories ``rows`` in time order, as
    ``(b_plus, b_minus)`` pieces of one row per trajectory and ``m`` columns,
    ``m`` arbitrary.
    The segments are ``seg_len = n_len // segments`` samples long and start
    every ``hop = seg_len // 2`` samples, ``K`` of them over the first
    ``segments * seg_len`` samples (:func:`_overlap`).  Each shard, in a
    process of its own (:func:`_in_shards`), fills one buffer with both
    channels' current segment; each full segment is Hann-windowed into one
    scratch array, a channel at a time, and transformed, and the transforms
    are mixed per bin with the weights of :func:`sigma_weights` (so
    cross-correlations between the channels are kept) into one periodogram
    row per trajectory, summed over the segments in order.  The segment's raw
    last ``seg_len - hop`` samples are then moved to the front of the buffer
    as the next one's start, and the next ``hop`` samples complete it.  The
    scratch array, the mix, its periodogram row and their sum are buffers of
    the shard, reused for every segment, and the second channel is mixed in
    place in its own transform.  Once every shard has ended, those sums are
    summed over the trajectories in order.  Every ``chunks`` is read to its
    end, and the samples after the ``K``-th segment are not used.  The
    estimate covers every interior bin, or only ``bins`` of a segment's rfft,
    the only ones then weighted and mixed; each bin's value is the same
    either way, and whatever the shards.  The error bar counts the
    correlation of segments one hop apart only, the one lag at which a
    segment overlaps another on more than the window's zero first sample
    (:class:`PsdEstimate`).  The caller has checked the segments.
    """
    dt = cfg.dt
    seg_len = n_len // segments
    hop, periodograms = _overlap(seg_len, segments)
    if bins is None:
        bins = slice(1, (seg_len + 1) // 2)  # positive bins without DC and Nyquist
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg_len) / seg_len)
    omega = 2.0 * math.pi * np.fft.rfftfreq(seg_len, d=dt)[bins]
    wp, wm = sigma_weights(d, omega, y_policy)
    norm = 1.0 / (dt * np.sum(win**2))  # |dt * DFT|^2 -> density

    def segment_sums(rows, chunks):
        seg = np.empty((2, rows.stop - rows.start, seg_len))  # both channels' segment
        windowed = np.empty_like(seg[0])  # one channel: the plan counts one copy
        sums = np.zeros((seg.shape[1], omega.size))
        xp = np.empty(sums.shape, dtype=complex)  # the mix, from the + channel
        row = np.empty_like(sums)                 # its periodogram
        fill, left = 0, periodograms  # samples in the segment; periodograms to take
        for zp, zm in chunks:
            a, m = 0, zp.shape[1]
            while left and a < m:
                take = min(seg_len - fill, m - a)
                seg[0, :, fill:fill + take] = zp[:, a:a + take]
                seg[1, :, fill:fill + take] = zm[:, a:a + take]
                a, fill = a + take, fill + take
                if fill == seg_len:
                    # |wp dt conj(X+) + wm dt conj(X-)|^2, each product in
                    # that operand order; the mix and its periodogram are
                    # refilled before their next use, so all of it runs in place
                    np.multiply(seg[0], win, out=windowed)
                    np.conj(np.fft.rfft(windowed, axis=1)[:, bins], out=xp)
                    np.multiply(dt, xp, out=xp)
                    np.multiply(wp[None, :], xp, out=xp)
                    np.multiply(seg[1], win, out=windowed)
                    xm = np.fft.rfft(windowed, axis=1)[:, bins]
                    np.conj(xm, out=xm)
                    np.multiply(dt, xm, out=xm)
                    np.multiply(wm[None, :], xm, out=xm)
                    np.add(xp, xm, out=xp)
                    del xm  # one transform at a time, none while chunks are read
                    np.abs(xp, out=row)
                    np.square(row, out=row)
                    sums += row
                    # the segment's raw last seg_len - hop samples start the next
                    seg[..., :seg_len - hop] = seg[..., hop:]
                    fill, left = seg_len - hop, left - 1
        return sums

    psd = norm * np.sum(np.concatenate(_in_shards(shards, segment_sums)), axis=0)
    # v of PsdEstimate, from the window's correlation at the lag of one hop
    rho = np.dot(win[:-hop], win[hop:]) / np.dot(win, win)
    v = 1.0 + 2.0 * (1.0 - 1.0 / periodograms) * rho**2
    n_ind = periodograms * cfg.n_traj
    rel_err = math.sqrt(v / n_ind)
    return PsdEstimate(omega=omega, psd=psd / n_ind, rel_err=rel_err,
                       n_ind=n_ind, t_dur=n_len * dt)


def estimate_psd(ts: TimeSeriesBundle, segments: int = _SEGMENTS, y_policy="optimal") -> PsdEstimate:
    """Spectral density of a run's records, combined at the weight ``y_policy``.

    ``segments`` fixes the segment length ``n_steps // segments``, and the
    segments overlap by half (:func:`_welch`).  The weight is one of
    :func:`sigma_weights`; the step bound admits the run's step for the
    optimal weight only and bounds no other.  The records go to
    :func:`_welch` as one chunk of one shard, in the calling process.  Fewer
    than 8 segments, and segments under 64 samples, raise
    :class:`RunRangeError`.
    """
    _check_segment_len(ts.n_steps, _segment_len(ts.n_steps, segments))
    shard = (slice(0, ts.cfg.n_traj), [(ts.b_plus, ts.b_minus)])
    return _welch(ts.d, ts.cfg, ts.n_steps, segments, [shard], y_policy=y_policy)


# --- comparison against the analytic engine -----------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Band-wise agreement between estimated and analytic densities.

    ``est_psd`` and ``dev_sigma`` hold, per band bin, the estimate and its
    signed deviation from the analytic density in error bars.
    """

    band: tuple[float, float]
    n_bins: int
    frac_within_3sigma: float
    max_dev_sigma: float
    median_ratio: float
    chi2_reduced: float
    rel_err: float
    passed: bool
    est_psd: np.ndarray = field(repr=False, compare=False)
    dev_sigma: np.ndarray = field(repr=False, compare=False)

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "\n".join([
            f"spectral comparison: {status}",
            f"  band                [{self.band[0]:.6e}, {self.band[1]:.6e}] rad/s",
            f"  bins compared       {self.n_bins}",
            f"  per-bin 1-sigma     {100.0 * self.rel_err:.3f} %",
            f"  within 3 sigma      {100.0 * self.frac_within_3sigma:.2f} % (need >= 95 %)",
            f"  worst deviation     {self.max_dev_sigma:.3f} sigma",
            f"  median est/analytic {self.median_ratio:.6f}",
            f"  reduced chi-square  {self.chi2_reduced:.4f}",
        ])


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d float array, to the bit, without the
    ``numpy.ma`` import that its first call costs: the middle value of the
    sorted array, or ``(a + b) / 2`` of the two middle values for an even
    count; NaN if any value is NaN."""
    x = np.sort(x)  # NaNs sort last
    if np.isnan(x[-1]):
        return math.nan
    mid = x.size // 2
    return float(x[mid] if x.size % 2 else (x[mid - 1] + x[mid]) / 2.0)


def compare(analytic: SpectrumTable, est: PsdEstimate, band: tuple[float, float]) -> ComparisonReport:
    """Pointwise check of the estimate against analytic ``S_qu + S_T``.

    ``analytic`` is a sweep table evaluated exactly at the estimate's bins
    inside ``band``; its ``omega`` and ``s_f`` columns are compared.  Passes
    when at least 95% of the band bins agree within three error bars.
    Rejects bands that do not overlap the estimate or that reach below the
    resolution supported by the record length.
    """
    lo, hi = band
    if not (0.0 < lo < hi):
        raise ValueError(f"band must satisfy 0 < lo < hi, got {band!r}")
    min_lo = MIN_CYCLES_IN_RECORD * 2.0 * math.pi / est.t_dur
    if lo < min_lo * (1.0 - 1e-12):
        raise ValueError(
            f"band lower edge {lo:g} rad/s is below the resolvable limit {min_lo:g} rad/s "
            f"for a {est.t_dur:g} s record ({MIN_CYCLES_IN_RECORD:g} cycles required)"
        )
    sel = (est.omega >= lo) & (est.omega <= hi)
    if not np.any(sel):
        raise ValueError(
            f"band {band!r} does not overlap the estimated bins "
            f"[{est.omega[0]:g}, {est.omega[-1]:g}]"
        )
    omega_sel = est.omega[sel]
    psd_sel = est.psd[sel]

    ana_sf = analytic.s_f
    if analytic.omega.shape != omega_sel.shape or not np.allclose(
        analytic.omega, omega_sel, rtol=1e-9, atol=0.0
    ):
        raise ValueError(
            "analytic records must be evaluated exactly at the estimate's band bins "
            f"({omega_sel.size} bins in {band!r})"
        )

    sigma = est.rel_err * ana_sf
    dev = (psd_sel - ana_sf) / sigma
    frac = float(np.mean(np.abs(dev) <= 3.0))
    return ComparisonReport(
        band=(float(lo), float(hi)),
        n_bins=int(omega_sel.size),
        frac_within_3sigma=frac,
        max_dev_sigma=float(np.max(np.abs(dev))),
        median_ratio=_median(psd_sel / ana_sf),
        chi2_reduced=float(np.mean(dev**2)),
        rel_err=est.rel_err,
        passed=frac >= 0.95,
        est_psd=psd_sel,
        dev_sigma=dev,
    )


def analytic_records_for(d: DerivedParams, est: PsdEstimate,
                         band: tuple[float, float]) -> SpectrumTable:
    """Analytic sweep table at the optimal weight, evaluated on an estimate's band bins."""
    sel = (est.omega >= band[0]) & (est.omega <= band[1])
    return spectrum_sweep(d, est.omega[sel])


def default_band(d: DerivedParams, cfg: SimConfig) -> tuple[float, float]:
    """Comparison band supported by a run: resolution-limited lower edge up to
    ten cycles of the measurement window (clipped to Nyquist)."""
    lo = MIN_CYCLES_IN_RECORD * 2.0 * math.pi / (round(cfg.t_dur / cfg.dt) * cfg.dt)
    hi = _band_top(d, cfg.dt)
    if hi <= lo:
        raise RunRangeError(f"run too short for any comparison band (lo {lo:g} >= hi {hi:g})")
    return lo, hi


def run_comparison(d: DerivedParams, cfg: SimConfig, segments: int = _SEGMENTS):
    """Simulate, estimate and compare in one call.

    The run is planned first, so the plan's refusals come before any work;
    it is then streamed into the estimator, so memory does not grow with its
    length.  Returns ``(report, estimate, analytic)``, the last two over the
    bins of :func:`default_band` only.
    """
    return _run_comparison(d, cfg, _plan(d, cfg, segments))


def _run_comparison(d: DerivedParams, cfg: SimConfig, plan: _Plan):
    """:func:`run_comparison` of a planned run."""
    est = _welch(d, cfg, plan.n_steps, plan.segments, _shard_panels(d, cfg, plan), plan.bins)
    analytic = analytic_records_for(d, est, plan.band)
    return compare(analytic, est, plan.band), est, analytic

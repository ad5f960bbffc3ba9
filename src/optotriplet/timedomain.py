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
affine prefix scan (Blelloch 1990), not one step at a time: panels of 1024
steps are split into blocks of 32, each block is solved from a zero start by
one product with a block-Toeplitz matrix of powers of ``phi``, and only the
block-start states are carried in sequence.  Outputs are formed for a whole
panel at once, and the noise is drawn one panel at a time, from one PCG64
stream per trajectory spawned from the run's seed when the first panel is
drawn.

Two consumers read the panels.  :func:`simulate` collects them into records
of ``2 * n_traj * n_steps`` floats, for inspection (``sigma_timeseries``,
``dump_text``) and signal-transfer checks; it refuses records above 4 GiB.
:func:`run_comparison` feeds them straight into the Welch estimator, which
fills one segment buffer per channel from pieces of any length: one panel at
a time there, the whole records in :func:`estimate_psd`.  The streamed run
therefore needs ``O(n_traj * segment)`` memory whatever its length, and its
estimate is bit-identical to :func:`estimate_psd` of the records.  It refuses
a run whose working set (segment buffers and transforms, one scan panel, the
bin weights) would exceed the same 4 GiB, before any array of that size is
built.

The post-processed combination is applied in the frequency domain: segmented
Hann-windowed transforms of the two records are mixed per bin with the same
complex weights the analytic engine uses, and the averaged periodogram is
compared against ``S_qu + S_T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .constants import HBAR
from .params import DerivedParams
from .spectra import SpectrumTable, coeffs, resolve_y, spectrum_sweep

# fraction of the linear-stability step bound used by default configs
_DT_SAFETY = 0.8
#: slowest resolvable band edge: at least this many cycles must fit in a record
MIN_CYCLES_IN_RECORD = 100.0
# steps per block of the affine scan, and per panel of 32 blocks
_BLOCK = 32
_PANEL = 32 * _BLOCK
# negative eigenvalue mass, relative to the largest eigenvalue, that
# _factor_psd may clip as rounding noise
_PSD_CLIP_TOL = 1e-12
# largest records simulate() materialises: 4 GiB is 25x the default oracle
# run's 168 MB, and with the temporaries of sigma_timeseries or dump_text on
# top it already exceeds the memory of a typical workstation; the spectral
# check streams and never needs the records, and its working set has the same cap
_MAX_RECORD_BYTES = 4 * 2**30


class SimulationError(RuntimeError):
    """Raised when a run is rejected upfront or diverges."""


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

    ``dt`` must stay below a tenth of the fastest relaxation rate;
    :func:`stability_dt` gives the bound.  ``y_policy`` selects the
    combination weight used when the records are reduced to a spectral
    density (same conventions as the analytic sweep).  Records are float64:
    :func:`simulate` holds ``2 * n_traj * n_steps`` of them, while
    :func:`run_comparison` streams the run and holds two segments of
    ``n_traj * (n_steps // segments)``, their transforms and one scan panel.
    Both refuse runs that would need more than 4 GiB.
    """

    dt: float
    t_dur: float
    n_traj: int = 64
    seed: int = 0
    y_policy: object = "optimal"
    signal: SignalPulse | None = None
    noise: bool = True

    def __post_init__(self):
        if self.dt <= 0.0 or not math.isfinite(self.dt):
            raise SimulationError(f"dt must be positive and finite, got {self.dt!r}")
        if not math.isfinite(self.t_dur):
            raise SimulationError(f"t_dur must be finite, got {self.t_dur!r}")
        if self.t_dur <= 0.0 or self.t_dur < 2.0 * self.dt:
            raise SimulationError(f"t_dur must cover at least two steps, got {self.t_dur!r}")
        if self.n_traj < 1:
            raise SimulationError(f"n_traj must be >= 1, got {self.n_traj!r}")
        if self.seed < 0:
            raise SimulationError(f"seed must be >= 0, got {self.seed!r}")


def stability_dt(d: DerivedParams) -> float:
    """Largest admissible step: ``0.1 / max(gamma+, gamma-, |G(0)| + gamma_m)``."""
    g0 = abs(complex(coeffs(d, 0.0).g_opt))
    return 0.1 / max(d.gamma_plus, d.gamma_minus, g0 + d.gamma_m)


def default_sim_config(d: DerivedParams, seed: int = 0, **overrides) -> SimConfig:
    """Statistics tuned for a few-percent spectral check in minutes.

    64 trajectories over 2e4 mechanical periods; the step is 80% of the
    stability bound.
    """
    cfg = SimConfig(
        dt=_DT_SAFETY * stability_dt(d),
        t_dur=2e4 * (2.0 * math.pi / d.phys.omega_m),
        n_traj=64,
        seed=seed,
    )
    return replace(cfg, **overrides) if overrides else cfg


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
    ``dt``.  Both are exact up to rounding at any step size.
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
    blocks = _expm(van_loan * dt)
    cov = blocks[m:, m:].T @ blocks[:m, m:]
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
        wp, wm = sigma_weights(self.d, omega, self.cfg.y_policy)
        xp = np.conj(np.fft.rfft(self.b_plus, axis=1))
        xm = np.conj(np.fft.rfft(self.b_minus, axis=1))
        return np.fft.irfft(np.conj(wp * xp + wm * xm), n=n, axis=1)

    def dump_text(self, path) -> None:
        """Columnar dump of the first trajectory: time, b_plus_a, b_minus_a."""
        data = np.column_stack([self.times, self.b_plus[0], self.b_minus[0]])
        np.savetxt(path, data, header="time b_plus_a b_minus_a", comments="")


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


def _n_steps(cfg: SimConfig) -> int:
    return int(round(cfg.t_dur / cfg.dt))


def _panels(d: DerivedParams, cfg: SimConfig):
    """Check a run and return a generator of its outputs.

    Steps above the stability bound, drift matrices that are not strictly
    stable (those have no stationary state to sample) and signal windows
    outside the run are rejected here; all numerical work waits for the
    first panel, and so does every object whose size grows with ``n_traj``.
    The generator yields ``(b_plus, b_minus)`` for each panel of ``_PANEL``
    steps in order, each of shape ``(n_traj, m)`` with ``m`` short only for
    the last panel.  Each trajectory draws from its own PCG64
    stream, in the same order whatever consumes the panels.
    """
    bound = stability_dt(d)
    if cfg.dt >= bound:
        raise SimulationError(
            f"dt = {cfg.dt:g} s violates the stability/accuracy bound {bound:g} s "
            "(0.1 over the fastest relaxation rate)"
        )
    drift, f_in, intens, c_out, e_sel = _system_matrices(d, cfg.noise)
    eigs = np.linalg.eigvals(drift)
    if np.any(eigs.real >= 0.0):
        raise SimulationError(
            f"drift matrix is not stable (eigenvalue real parts {np.sort(eigs.real)}); "
            "the sensor self-oscillates for these parameters"
        )
    n_steps = _n_steps(cfg)
    # deterministic drive (signal pulse, constant within a step) over steps [i0, i1)
    amp, i0, i1 = 0.0, 0, 0
    if cfg.signal is not None:
        amp = cfg.signal.quad_amp(d)
        i0 = int(round(cfg.signal.t_start / cfg.dt))
        i1 = int(round((cfg.signal.t_start + cfg.signal.duration) / cfg.dt))
        if i0 < 0 or i1 > n_steps or i1 <= i0:
            raise SimulationError(
                f"signal window [{cfg.signal.t_start}, "
                f"{cfg.signal.t_start + cfg.signal.duration}] s does not fit the run"
            )

    def run():
        phi, j_dt, jj, cov = _step_operators(drift, f_in, intens, c_out, e_sel, cfg.dt)
        noise_factor = _factor_psd(cov)
        zx = (c_out @ j_dt) / cfg.dt  # output from the step-start state
        e_drive = np.array([0.0, 0.0, 1.0])
        x_kick = j_dt @ e_drive           # state response to unit drive over one step
        z_kick = (c_out @ jj @ e_drive) / cfg.dt

        if cfg.noise:
            stat_cov = _lyapunov(drift, -(f_in @ intens @ f_in.T))
            stat_factor = _factor_psd(0.5 * (stat_cov + stat_cov.T))
        else:
            stat_factor = np.zeros((3, 3))

        rngs = [np.random.Generator(np.random.PCG64(s))
                for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)]
        n_tr = cfg.n_traj
        x = np.empty((n_tr, 3))  # one state row per trajectory
        for k, rng in enumerate(rngs):
            x[k] = stat_factor @ rng.standard_normal(3)

        scan = _BlockScan(phi)
        # transposed operators for trajectory-major rows, contiguous for BLAS
        to_w = np.ascontiguousarray(noise_factor[:3].T)
        to_z = np.ascontiguousarray(noise_factor[3:].T)
        zx_t = np.ascontiguousarray(zx.T)
        # trajectory-major draws, reused per panel; the padded tail of the last
        # panel carries zero noise, so every product has the same shape, and a
        # noiseless run mixes its all-zero noise factor into zeros and draws nothing
        eps = np.zeros((n_tr, _PANEL, 5))
        for n0 in range(0, n_steps, _PANEL):
            m = min(_PANEL, n_steps - n0)
            if cfg.noise:
                for k, rng in enumerate(rngs):
                    rng.standard_normal(out=eps[k, :m])
                eps[:, m:] = 0.0
            w = eps @ to_w                      # state increments
            z = eps @ to_z                      # output noise
            if amp and i0 < n0 + _PANEL and n0 < i1:
                f = np.zeros(_PANEL)
                f[max(i0 - n0, 0):i1 - n0] = amp
                w += f[:, None] * x_kick
                z += f[:, None] * z_kick
            x_prev, x = scan(w, x)
            if not np.all(np.isfinite(x)):
                raise SimulationError(f"state diverged by step {n0 + m} (of {n_steps})")
            z += x_prev @ zx_t
            yield z[:, :m, 0], z[:, :m, 1]

    return run()


def simulate(d: DerivedParams, cfg: SimConfig) -> TimeSeriesBundle:
    """Integrate the quadrature dynamics and record both outputs.

    Rejects steps above the stability bound, drift matrices that are not
    strictly stable, and runs whose records would exceed
    ``_MAX_RECORD_BYTES``; :func:`run_comparison` streams such runs instead.
    Identical config and seed give bit-identical records.
    """
    n_steps = _n_steps(cfg)
    size = 2 * cfg.n_traj * n_steps * 8
    if size > _MAX_RECORD_BYTES:
        raise SimulationError(
            f"records of {cfg.n_traj} trajectories x {n_steps} steps would take "
            f"{size / 2**30:.2f} GiB (cap {_MAX_RECORD_BYTES / 2**30:g} GiB); "
            "run_comparison streams the spectral check without materialising them"
        )
    panels = _panels(d, cfg)
    b_plus = np.empty((cfg.n_traj, n_steps))
    b_minus = np.empty((cfg.n_traj, n_steps))
    n0 = 0
    for zp, zm in panels:
        m = zp.shape[1]
        b_plus[:, n0:n0 + m] = zp
        b_minus[:, n0:n0 + m] = zm
        n0 += m
    return TimeSeriesBundle(d=d, cfg=cfg, b_plus=b_plus, b_minus=b_minus)


class _BlockScan:
    """Blocked affine prefix scan of ``x[n+1] = phi x[n] + w[n]`` over a panel.

    A panel of ``_PANEL`` steps is cut into blocks of ``_BLOCK`` steps.  Each
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
        # rounded once
        exact = np.linalg.matrix_power(np.vectorize(Fraction, otypes=[object])(phi), _BLOCK)
        self.phi_block_t = exact.astype(float).T
        self.n = n

    def __call__(self, w: np.ndarray, x0: np.ndarray):
        """States before every step of the panel, and the state after it.

        ``w`` has shape ``(n_traj, _PANEL, n)``, ``x0`` shape ``(n_traj, n)``.
        """
        n_tr, n = x0.shape[0], self.n
        w = w.reshape(-1, _BLOCK * n)
        local = w @ self.toeplitz              # block solutions from zero start
        ends = (local[:, -n:] @ self.phi_t + w[:, -n:]).reshape(n_tr, -1, n)
        starts = np.empty_like(ends)
        x = x0
        for b in range(ends.shape[1]):
            starts[:, b] = x
            x = x @ self.phi_block_t + ends[:, b]
        local += starts.reshape(-1, n) @ self.from_start
        return local.reshape(n_tr, _PANEL, n), x


# --- spectral estimation ------------------------------------------------------

def _welch_segments(n_len: int, dt: float, segments: int):
    """Split of ``n_len`` samples into ``segments`` Hann-windowed segments.

    Returns the segment length, the periodic Hann window, the slice of the
    positive interior FFT bins (DC and Nyquist dropped) and those bins in
    rad/s.
    """
    if segments < 8:
        raise ValueError(f"need at least 8 segments, got {segments}")
    seg_len = n_len // segments
    if seg_len < 64:
        raise ValueError(
            f"series too short: {n_len} samples give segments of {seg_len} (< 64)"
        )
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg_len) / seg_len)
    keep = slice(1, -1) if seg_len % 2 == 0 else slice(1, None)
    omega = 2.0 * math.pi * np.fft.rfftfreq(seg_len, d=dt)[keep]
    return seg_len, win, keep, omega


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged spectral density of the combined record's noise.

    ``rel_err`` is the one-sigma relative error bar per bin,
    ``1/sqrt(segments * n_traj)``.
    """

    omega: np.ndarray
    psd: np.ndarray
    rel_err: float
    n_ind: int
    t_dur: float
    t_seg: float


def _check_stream(cfg: SimConfig, segments: int) -> None:
    """Reject a streamed run whose working set would exceed ``_MAX_RECORD_BYTES``.

    Only sizes are computed, so the check itself holds no array.  Fewer than
    8 segments are left to the guard of :func:`_welch_segments`.
    """
    seg_len = _n_steps(cfg) // max(segments, 8)
    # float64 values held per segment sample and trajectory (the two segment
    # buffers and the periodogram's transforms), per scan-panel step and
    # trajectory, and per segment sample (the bin weights while they are
    # computed): tracemalloc peaks of run_comparison, rounded up
    size = 8 * (cfg.n_traj * (6 * seg_len + 20 * _PANEL) + 24 * seg_len)
    if size > _MAX_RECORD_BYTES:
        raise SimulationError(
            f"a streamed run of {cfg.n_traj} trajectories in segments of {seg_len} steps "
            f"would hold {size / 2**30:.2f} GiB (cap {_MAX_RECORD_BYTES / 2**30:g} GiB); "
            "use fewer trajectories, a larger dt or more segments"
        )


def _welch(d: DerivedParams, cfg: SimConfig, n_len: int, segments: int, chunks) -> PsdEstimate:
    """Averaged periodogram of the combined record, one segment at a time.

    ``chunks`` yields the ``n_len`` samples of both channels of a run of
    ``cfg`` in time order as ``(b_plus, b_minus)`` pieces of shape
    ``(cfg.n_traj, m)``, ``m`` arbitrary.
    They fill one segment buffer per channel; each full segment is
    Hann-windowed and transformed, the transforms are mixed per bin with the
    weights of :func:`sigma_weights` (so cross-correlations between the
    channels are kept), and the periodograms are summed over trajectories,
    then over segments in order.  The samples after the last whole segment
    are not needed, and ``chunks`` is not advanced past them.  The guards of
    :func:`_welch_segments` raise before ``chunks`` is read.
    """
    dt, n_traj = cfg.dt, cfg.n_traj
    seg_len, win, keep, omega = _welch_segments(n_len, dt, segments)
    wp, wm = sigma_weights(d, omega, cfg.y_policy)
    norm = 1.0 / (dt * np.sum(win**2))  # |dt * DFT|^2 -> density

    def periodogram(seg_plus, seg_minus):
        # its own frame, so the transforms are freed before the next chunk is made
        xp = dt * np.conj(np.fft.rfft(seg_plus * win, axis=1))
        xm = dt * np.conj(np.fft.rfft(seg_minus * win, axis=1))
        mix = wp[None, :] * xp[:, keep] + wm[None, :] * xm[:, keep]
        return norm * np.sum(np.abs(mix) ** 2, axis=0)

    acc = np.zeros(omega.size)
    used = segments * seg_len
    seg_plus = np.empty((n_traj, seg_len))
    seg_minus = np.empty((n_traj, seg_len))
    n0 = 0
    for zp, zm in chunks:
        m = min(zp.shape[1], used - n0)
        a = 0
        while a < m:
            fill = (n0 + a) % seg_len
            take = min(seg_len - fill, m - a)
            seg_plus[:, fill:fill + take] = zp[:, a:a + take]
            seg_minus[:, fill:fill + take] = zm[:, a:a + take]
            a += take
            if fill + take == seg_len:
                acc += periodogram(seg_plus, seg_minus)
        n0 += m
        if n0 == used:
            break
    n_ind = segments * n_traj
    return PsdEstimate(
        omega=omega,
        psd=acc / n_ind,
        rel_err=1.0 / math.sqrt(n_ind),
        n_ind=n_ind,
        t_dur=n_len * dt,
        t_seg=seg_len * dt,
    )


def estimate_psd(ts: TimeSeriesBundle, segments: int = 16) -> PsdEstimate:
    """Spectral density of the combined record from a run's output series.

    Hann segments of both channels are mixed per bin with the weights of
    :func:`sigma_weights` and averaged over segments and trajectories; the
    records go to :func:`_welch` as one chunk.
    """
    return _welch(ts.d, ts.cfg, ts.n_steps, segments, [(ts.b_plus, ts.b_minus)])


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

    ana_omega = analytic.omega
    ana_sf = analytic.s_f
    if ana_omega.shape != omega_sel.shape or not np.allclose(
        ana_omega, omega_sel, rtol=1e-9, atol=0.0
    ):
        raise ValueError(
            "analytic records must be evaluated exactly at the estimate's band bins "
            f"({omega_sel.size} bins in {band!r})"
        )

    sigma = est.rel_err * ana_sf
    dev = (psd_sel - ana_sf) / sigma
    frac = float(np.mean(np.abs(dev) <= 3.0))
    report = ComparisonReport(
        band=(float(lo), float(hi)),
        n_bins=int(omega_sel.size),
        frac_within_3sigma=frac,
        max_dev_sigma=float(np.max(np.abs(dev))),
        median_ratio=float(np.median(psd_sel / ana_sf)),
        chi2_reduced=float(np.mean(dev**2)),
        rel_err=est.rel_err,
        passed=frac >= 0.95,
        est_psd=psd_sel,
        dev_sigma=dev,
    )
    return report


def analytic_records_for(d: DerivedParams, est: PsdEstimate, band: tuple[float, float],
                         y_policy="optimal") -> SpectrumTable:
    """Analytic sweep table evaluated exactly on an estimate's band bins."""
    sel = (est.omega >= band[0]) & (est.omega <= band[1])
    return spectrum_sweep(d, est.omega[sel], y_policy=y_policy)


def default_band(d: DerivedParams, cfg: SimConfig) -> tuple[float, float]:
    """Comparison band supported by a run: resolution-limited lower edge up to
    ten cycles of the measurement window (clipped inside Nyquist)."""
    lo = MIN_CYCLES_IN_RECORD * 2.0 * math.pi / (_n_steps(cfg) * cfg.dt)
    hi = min(2.0 * math.pi * 10.0 / d.phys.tau, 0.8 * math.pi / cfg.dt)
    if hi <= lo:
        raise ValueError(f"run too short for any comparison band (lo {lo:g} >= hi {hi:g})")
    return lo, hi


def run_comparison(d: DerivedParams, cfg: SimConfig, segments: int = 16,
                   records: TimeSeriesBundle | None = None):
    """Simulate, estimate and compare in one call.

    The run is streamed into the estimator segment by segment, so memory does
    not grow with its length; a run whose working set would exceed
    ``_MAX_RECORD_BYTES``, and one too short for :func:`default_band`, is
    rejected before anything is simulated.  ``records``, the result of
    ``simulate(d, cfg)`` when a caller needs it anyway, is estimated from
    instead of running again; the estimate is bit-identical either way.  Returns
    ``(report, estimate, analytic)`` with the analytic
    :class:`~optotriplet.spectra.SpectrumTable` of the band bins.
    """
    if records is None:
        panels = _panels(d, cfg)
        _check_stream(cfg, segments)
        band = default_band(d, cfg)
        est = _welch(d, cfg, _n_steps(cfg), segments, panels)
    else:
        band = default_band(d, cfg)
        est = estimate_psd(records, segments=segments)
    analytic = analytic_records_for(d, est, band, y_policy=cfg.y_policy)
    return compare(analytic, est, band), est, analytic

"""Command-line runner: sweeps, regime reports, force budgets, spectral checks.

Verbs
-----
- ``sweep``     write one CSV of spectral densities per scenario, plus a manifest
- ``oracle``    time-domain Monte Carlo check of the analytic spectra
- ``regime``    print the operating-regime report
- ``minforce``  print the minimum-detectable-force budget
- ``presets``   list the named scenarios

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 spectral comparison failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .params import (
    DerivedParams,
    ParameterError,
    PhysParams,
    check_regime,
    derive,
    load_config,
    table1_preset,
)
from .scenarios import ORACLE_SCENARIOS, SWEEP_SCENARIOS, Scenario
from .spectra import SpectrumTable, _checked_grid, make_grid, spectrum_sweep
from .sqlimit import min_force
from .timedomain import (
    ComparisonReport,
    SimulationError,
    _check_stream,
    _n_steps,
    _welch_segments,
    default_band,
    default_sim_config,
    run_comparison,
    simulate,
    stability_dt,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_COMPARISON = 3

CSV_COLUMNS = ("omega_rad_s", "omega_tau_over_2pi", "y_re", "y_im",
               "S_qu", "S_T", "S_f", "S_SQL", "R")
BINS_COLUMNS = ("omega", "est", "analytic", "dev_sigma")
# rows evaluated and formatted per CSV chunk; bounds a sweep's memory on huge grids
_CSV_CHUNK_ROWS = 8192


class ConfigError(ValueError):
    """Usage-level problem: bad flags, missing or malformed config."""


def _atomic_write(path: str, chunks) -> None:
    """Write ``chunks`` (a string or an iterable of strings) to ``path`` through a
    uniquely named file in the same directory.

    The file only appears under its final name once complete, and concurrent
    writers never share a temporary file.  The temporary file is removed when
    the write fails.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; keep open()'s default mode
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _csv_text(d: DerivedParams, grid: np.ndarray, y_policy, tau: float):
    """CSV of the sweep of a checked ``grid`` as chunks of at most
    ``_CSV_CHUNK_ROWS`` rows.

    Each chunk's rows are evaluated by :func:`spectrum_sweep` on their slice of
    the grid, and every value is written with ``repr`` (shortest round trip).
    Only one chunk's table and strings are alive at a time, so memory stays
    bounded on huge grids.
    """
    yield ",".join(CSV_COLUMNS) + "\n"
    for start in range(0, grid.size, _CSV_CHUNK_ROWS):
        sl = slice(start, start + _CSV_CHUNK_ROWS)
        table = spectrum_sweep(d, grid[sl], y_policy)
        # one row template; S_T is the same on every row, so it is formatted once
        row = ",".join(["%r"] * 5 + [repr(float(table.s_t))] + ["%r"] * 3)
        columns = (
            table.omega,
            table.omega * tau / (2.0 * math.pi),
            table.y.real,
            table.y.imag,
            table.s_qu,
            table.s_f,
            table.s_sql,
            table.ratio,
        )
        rows = zip(*(col.tolist() for col in columns))
        yield "\n".join([row % r for r in rows]) + "\n"


def _bins_csv(report: ComparisonReport, analytic: SpectrumTable) -> str:
    """Per-bin diagnostics of a comparison, every value written with ``repr``."""
    columns = (analytic.omega, report.est_psd, analytic.s_f, report.dev_sigma)
    rows = zip(*(col.tolist() for col in columns))
    return "".join([",".join(BINS_COLUMNS) + "\n"] + ["%r,%r,%r,%r\n" % r for r in rows])


def _resolve_params(args) -> PhysParams:
    if args.config is not None:
        try:
            return load_config(args.config, use_preset_defaults=args.preset is not None)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {exc.filename}") from exc
    if args.preset is not None:
        return table1_preset()
    raise ConfigError("provide --config PATH or --preset table1")


def _parse_grid(spec: str):
    """Parse ``{log|linear}:N:lo:hi`` (lo/hi in rad/s) into make_grid kwargs."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"grid spec must be kind:N:lo:hi, got {spec!r}")
    kind, n, lo, hi = parts
    try:
        return {"kind": kind, "n": int(n), "lo": float(lo), "hi": float(hi)}
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid spec {spec!r}: {exc}") from exc


def _manifest(p: PhysParams, d: DerivedParams, extra: dict) -> str:
    payload = {
        "schema_version": 1,
        "tool": "optotriplet",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "phys_params": dataclasses.asdict(p),
        "derived": {f.name: getattr(d, f.name)
                    for f in dataclasses.fields(DerivedParams) if f.name != "phys"},
    }
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_sweep(args) -> int:
    p = _resolve_params(args)
    names = args.scenario or list(SWEEP_SCENARIOS)
    unknown = [n for n in names if n not in SWEEP_SCENARIOS]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s): {', '.join(unknown)}; "
            f"known: {', '.join(SWEEP_SCENARIOS)}"
        )
    grid_override = _parse_grid(args.grid) if args.grid else None
    if grid_override:
        # lo and hi are given, so one grid serves every scenario
        try:
            override_grid = _checked_grid(make_grid(p.tau, **grid_override))
        except ValueError as exc:
            raise ConfigError(f"bad grid {args.grid!r}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)

    d_base = derive(p)
    scen_entries = []
    # scenarios equal up to their name write equal CSVs (the grid override is
    # the same for all of them): the first is computed, later ones copy its file
    written: dict[Scenario, tuple[str, int]] = {}
    for name in names:
        scen = SWEEP_SCENARIOS[name]
        p_s = scen.apply(p)
        d_s = derive(p_s)
        out_path = os.path.join(args.out, f"{name}.csv")
        key = dataclasses.replace(scen, name="")
        if key in written:
            first_path, n_rows = written[key]
            with open(first_path, encoding="utf-8", newline="") as fh:
                _atomic_write(out_path, iter(lambda: fh.read(1 << 20), ""))
        else:
            # the whole grid is checked here, as each chunk only checks its own slice
            grid = override_grid if grid_override else _checked_grid(scen.grid(p_s.tau))
            _atomic_write(out_path, _csv_text(d_s, grid, scen.y_policy, p_s.tau))
            n_rows = grid.size
            written[key] = (out_path, n_rows)
        print(f"wrote {out_path} ({n_rows} rows, {scen.describe()})")
        regime = check_regime(d_s)
        for c in regime.checks:
            if c.status == "fail":
                print(f"warning: scenario {name} fails the {c.name} regime check "
                      f"(ratio {c.ratio:.4g}, threshold {c.threshold:g}) -- {c.note}",
                      file=sys.stderr)
        entry = dataclasses.asdict(scen)
        entry["csv"] = f"{name}.csv"
        entry["regime"] = dataclasses.asdict(regime)
        if grid_override:
            entry["grid_override"] = grid_override
        scen_entries.append(entry)

    manifest = _manifest(p, d_base, {"command": "sweep", "scenarios": scen_entries})
    _atomic_write(os.path.join(args.out, "manifest.json"), manifest)
    return EXIT_OK


def cmd_oracle(args) -> int:
    p = _resolve_params(args)
    scen = ORACLE_SCENARIOS.get(args.scenario_name)
    if scen is None:
        raise ConfigError(
            f"unknown scenario {args.scenario_name!r}; known: {', '.join(ORACLE_SCENARIOS)}"
        )
    d = derive(scen.apply(p))
    overrides = {"seed": args.seed}
    if args.trajectories is not None:
        overrides["n_traj"] = args.trajectories
    if args.duration is not None:
        overrides["t_dur"] = args.duration
    if args.dt is not None:
        overrides["dt"] = args.dt
    try:
        cfg = default_sim_config(d, **overrides)
        # range checks of the working set, the estimator and the band, before
        # anything is simulated; a step over the stability bound is left to the
        # run, which rejects it as a numerical failure
        if cfg.dt < stability_dt(d):
            _check_stream(cfg, args.segments)
            _welch_segments(_n_steps(cfg), cfg.dt, args.segments)
            default_band(d, cfg)
    except (SimulationError, ValueError) as exc:  # a flag value out of range
        raise ConfigError(str(exc)) from exc

    # only a dump needs the records; otherwise the run is streamed
    records = simulate(d, cfg) if args.dump_timeseries else None
    report, _, analytic = run_comparison(d, cfg, segments=args.segments, records=records)

    os.makedirs(args.out, exist_ok=True)
    header = (
        f"scenario {scen.name} ({scen.describe()})\n"
        f"trajectories {cfg.n_traj}, duration {cfg.t_dur!r} s, dt {cfg.dt!r} s, "
        f"segments {args.segments}, seed {cfg.seed}\n"
    )
    report_text = header + report.format() + "\n"
    _atomic_write(os.path.join(args.out, f"{scen.name}-report.txt"), report_text)
    if records is not None:
        records.dump_text(os.path.join(args.out, f"{scen.name}-timeseries.txt"))
    if not report.passed:
        _atomic_write(os.path.join(args.out, f"{scen.name}-bins.csv"), _bins_csv(report, analytic))
    manifest = _manifest(p, d, {
        "command": "oracle",
        "scenario": dataclasses.asdict(scen),
        "sim": {
            "dt": cfg.dt, "t_dur": cfg.t_dur, "n_traj": cfg.n_traj,
            "seed": cfg.seed, "segments": args.segments, "band": list(report.band),
        },
    })
    _atomic_write(os.path.join(args.out, f"{scen.name}-manifest.json"), manifest)
    print(report_text, end="")
    return EXIT_OK if report.passed else EXIT_COMPARISON


def cmd_regime(args) -> int:
    p = _resolve_params(args)
    d = derive(p)
    print(check_regime(d).format())
    return EXIT_OK


def cmd_minforce(args) -> int:
    p = _resolve_params(args)
    d = derive(p)
    tau = args.tau if args.tau is not None else p.tau
    if tau <= 0.0 or not math.isfinite(tau):
        raise ConfigError(f"tau must be positive and finite, got {tau!r}")
    print(min_force(d, tau).format())
    return EXIT_OK


def cmd_presets(args) -> int:
    base = table1_preset()
    print("sweep scenarios (vs the default parameter set):")
    for name, scen in SWEEP_SCENARIOS.items():
        print(f"  {name:<26s} {scen.describe()}")
    print("time-domain check scenarios:")
    for name, scen in ORACLE_SCENARIOS.items():
        print(f"  {name:<26s} {scen.describe()}")
    print(f"default pulse duration tau = {base.tau!r} s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="optotriplet",
        description="Quantum-noise budget of the three-mode optomechanical force sensor",
    )
    ap.add_argument("--version", action="version", version=f"optotriplet {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", metavar="PATH", help="flat key = value parameter file")
        sp.add_argument("--preset", choices=["table1"],
                        help="use the default parameter set (fills missing config keys)")

    sp = sub.add_parser("sweep", help="write spectral-density CSVs per scenario")
    add_common(sp)
    sp.add_argument("--scenario", action="append", metavar="NAME",
                    help="repeatable; default: all sweep presets")
    sp.add_argument("--out", default="out", metavar="DIR")
    sp.add_argument("--grid", metavar="KIND:N:LO:HI",
                    help="override the scenario grid (lo/hi in rad/s)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("oracle", help="Monte Carlo check of the analytic spectra")
    add_common(sp)
    sp.add_argument("--scenario", dest="scenario_name", default="sym-lossless",
                    metavar="NAME", help=f"one of: {', '.join(ORACLE_SCENARIOS)}")
    sp.add_argument("--out", default="out", metavar="DIR")
    sp.add_argument("--seed", type=int, default=0, metavar="U64")
    sp.add_argument("--trajectories", type=int, default=None, metavar="N")
    sp.add_argument("--duration", type=float, default=None, metavar="S")
    sp.add_argument("--dt", type=float, default=None, metavar="S")
    sp.add_argument("--segments", type=int, default=16, metavar="N")
    sp.add_argument("--dump-timeseries", action="store_true",
                    help="also write the first trajectory as columnar text")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("regime", help="print the operating-regime report")
    add_common(sp)
    sp.set_defaults(func=cmd_regime)

    sp = sub.add_parser("minforce", help="print the minimum detectable force budget")
    add_common(sp)
    sp.add_argument("--tau", type=float, default=None, metavar="S",
                    help="override the pulse duration")
    sp.set_defaults(func=cmd_minforce)

    sp = sub.add_parser("presets", help="list the named scenarios")
    sp.set_defaults(func=cmd_presets)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SimulationError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Command-line runner: sweeps, regime reports, force budgets, spectral checks.

Verbs
-----
- ``sweep``     write one CSV of spectral densities per scenario, plus a manifest
- ``oracle``    time-domain Monte Carlo check of the analytic spectra
- ``regime``    print the operating-regime report
- ``minforce``  print the minimum-detectable-force budget
- ``presets``   list the named scenarios

Exit codes: 0 success, 1 usage/config error or a file that cannot be read or
written, 2 numerical failure, 3 spectral comparison failure; 143 (128 + 15)
at SIGTERM, once every forked process is killed and every partial file
removed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import select
import signal
import sys
import tempfile
import time

import numpy as np

from . import __version__
from ._atomic import AtomicFile as _AtomicFile
from ._atomic import atomic_write as _atomic_write
from ._forks import Forked as _Forked
from ._forks import end_if_orphaned as _end_if_orphaned
from ._forks import processes as _processes
from .params import (
    DerivedParams,
    ParameterError,
    PhysParams,
    check_regime,
    derive,
    load_config,
    table1_preset,
)
from .scenarios import ORACLE_SCENARIOS, SWEEP_SCENARIOS, sweep_grid_spec
from .spectra import SpectrumTable, _checked_grid, make_grid, spectrum_sweep
from .sqlimit import min_force
from .timedomain import (
    _MAX_RECORD_BYTES,
    _SEGMENTS,
    _STEP_GAP,
    ComparisonReport,
    RunRangeError,
    SimulationError,
    _panels,
    _plan,
    _run_comparison,
    _Sampler,
    _write_dump,
    default_sim_config,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_COMPARISON = 3

CSV_COLUMNS = ("omega_rad_s", "omega_tau_over_2pi", "y_re", "y_im",
               "S_qu", "S_T", "S_f", "S_SQL", "R")
BINS_COLUMNS = ("omega", "est", "analytic", "dev_sigma")
# rows evaluated and formatted per slice of a sweep, over all its scenarios;
# bounds a sweep's memory on huge grids
_CSV_CHUNK_ROWS = 8192
# a sweep's slices are formatted in forked worker processes from this many
# rows on; below it, starting the workers cost more than they saved
_POOL_MIN_ROWS = 2 * _CSV_CHUNK_ROWS
# rows of a scenario's block formatted and written at once
_FORMAT_ROWS = 1024


class ConfigError(ValueError):
    """Usage-level problem: bad flags, missing or malformed config."""


def _format_slices(grid, step, starts, members, outs):
    """Format the slices of ``step`` points of ``grid`` at ``starts``, in
    order, and write each block of the ``k``-th of ``members``, as UTF-8
    bytes, to every file of ``outs[k]``.

    ``members`` lists ``(index, derived)`` of each computed scenario of a
    sweep, as :func:`_plan_sweep` gives them.  Each slice is one pass: every
    member's rows are evaluated by :func:`spectrum_sweep`, all their values
    are formatted by one call of the vectorised writer :mod:`._reprs` (as
    ``repr`` writes them, shortest round trip; only a process that formats
    imports it), and each member's block is then joined and written
    ``_FORMAT_ROWS`` rows at a time from that one array of cells.
    ``omega``, ``omega_tau_over_2pi`` and ``S_SQL`` depend only on the grid,
    ``tau`` and ``gamma_m``, which no scenario switch changes, so they are
    formatted once per slice, for every member: the first two from the grid
    and the first member's ``tau``, ``S_SQL`` from its ``s_sql`` column.  A
    member's ``S_T``, the same on every row, is formatted once per slice.  It
    runs inline or in a sweep worker.

    A member that fails with a ``ValueError`` or ``ArithmeticError`` is
    dropped, with those after it, from the slices still to format, once the
    members before it have written its slice; any other exception
    propagates.  Returns ``(index, exception)`` of the earliest failing member
    in plan order, or ``None``.
    """
    from . import _reprs

    live, failure = len(members), None
    for start in starts:
        part = grid[start:start + step]
        tables = []
        for k, (index, d) in enumerate(members[:live]):
            try:
                tables.append(spectrum_sweep(d, part))
            except (ValueError, ArithmeticError) as exc:
                live, failure = k, (index, exc)
                break
        if not tables:
            break
        # a row of the grid's three columns and each member's five, then
        # each member's S_T
        columns = [part, part * members[0][1].phys.tau / (2.0 * math.pi), tables[0].s_sql]
        for table in tables:
            columns += (table.y.real, table.y.imag, table.s_qu, table.s_f, table.ratio)
        n, width = part.size, len(columns)
        cells = _reprs.cells(np.append(np.stack(columns, axis=1), [t.s_t for t in tables]))
        s_t = cells[n * width:, None]
        cells = cells[:n * width].reshape(n, width, _reprs.WIDTH)
        # hold no table while the text is made
        tables = columns = table = None
        for k, files in enumerate(outs[:live]):
            c = 3 + 5 * k
            for r in range(0, n, _FORMAT_ROWS):
                block = cells[r:r + _FORMAT_ROWS]
                data = _reprs.rows((block[:, :2], block[:, c:c + 3],
                                    np.broadcast_to(s_t[k], (len(block), 1, _reprs.WIDTH)),
                                    block[:, c + 3:c + 4], block[:, 2:3], block[:, c + 4:c + 5]))
                for fh in files:
                    fh.write(data)
        cells = s_t = block = data = None
    return failure


def _write_blocks(out_dir, grid, members, outs):
    """Write the CSV blocks of each of ``members`` over ``grid`` to every file
    of ``outs[k]``, and return the failure, as :func:`_format_slices` does.

    ``grid`` is cut into slices of ``_CSV_CHUNK_ROWS // len(members)`` points,
    so that a slice formats at most ``_CSV_CHUNK_ROWS`` rows over all its
    scenarios.  The slices are formatted in forked worker processes, as many
    as :func:`_processes` allows, when it allows at least two and there are
    at least ``_POOL_MIN_ROWS`` rows; otherwise they are formatted inline.
    The workers claim units, each one slice or, past ``select.PIPE_BUF // 4``
    slices, a run of consecutive ones, from a queue: a pipe holding every
    unit's index as 4 bytes, written at once before the first fork, whose
    write end is closed before it, so a faster worker claims more units and
    each sees EOF once the queue is empty.  A worker formats each unit it
    claims into anonymous part files in ``out_dir``, one per member, and
    reports the size of each of the unit's blocks.  A member that fails is
    dropped, with those after it, from the worker's units still to format;
    the earliest failing member in plan order, with its exception from the
    earliest unit where it failed, is the sweep's failure.  Once every worker
    has ended, each block of the members before it is copied from its part
    file to ``outs``, in unit order, one byte range at a time.  Any other
    exception of a worker (an ``OSError`` from its part file, say), or a
    worker that ends without a report, is raised as soon as it is read, once
    the other workers are killed (:class:`_Forked`).  Either way the bytes
    are the same, and no worker outlives the call.
    """
    if not members:  # the first scenario was refused in planning
        return None
    step = _CSV_CHUNK_ROWS // len(members)
    starts = range(0, grid.size, step)
    n_workers = _processes(len(starts))
    if not (n_workers >= 2 and grid.size * len(members) >= _POOL_MIN_ROWS):
        return _format_slices(grid, step, starts, members, outs)
    # at most PIPE_BUF bytes of indices: one write that never blocks
    per_unit = -(-len(starts) // (select.PIPE_BUF // 4))
    units = [starts[s:s + per_unit] for s in range(0, len(starts), per_unit)]
    position = {i: k for k, (i, _) in enumerate(members)}

    def work(queue, worker_parts):
        claimed, live, failure = [], len(members), None
        while live and (claim := os.read(queue, 4)):
            _end_if_orphaned()
            u = int.from_bytes(claim, "little")
            before = [part.tell() for part in worker_parts[:live]]
            unit_failure = _format_slices(grid, step, units[u], members[:live],
                                          [[part] for part in worker_parts[:live]])
            claimed.append((u, [part.tell() - b for part, b in zip(worker_parts, before)]))
            if unit_failure is not None:
                failure = unit_failure[0], u, unit_failure[1]
                live = position[failure[0]]
        for part in worker_parts:
            part.flush()
        return claimed, failure

    with contextlib.ExitStack() as stack:
        parts = [[stack.enter_context(tempfile.TemporaryFile(dir=out_dir)) for _ in members]
                 for _ in range(n_workers)]
        queue, fill = os.pipe()
        stack.callback(os.close, queue)
        try:
            os.write(fill, b"".join(u.to_bytes(4, "little") for u in range(len(units))))
        finally:
            os.close(fill)
        with _Forked([("sweep worker {pid}", functools.partial(work, queue, worker_parts))
                      for worker_parts in parts]) as workers:
            reports = workers.results()
        failure = min((f for _, f in reports if f is not None), key=lambda f: f[:2], default=None)
        # each unit's part files, and the offset and size of each of its blocks there
        spans = [None] * len(units)
        for worker_parts, (claimed, _) in zip(parts, reports):
            offsets = [0] * len(members)
            for u, sizes in claimed:
                spans[u] = worker_parts, offsets, sizes
                offsets = [offset + size for offset, size in zip(offsets, sizes)]
        for k in range(len(members) if failure is None else position[failure[0]]):
            for worker_parts, offsets, sizes in spans:
                for fh in outs[k]:
                    fh.append(worker_parts[k], offsets[k], sizes[k])
    return None if failure is None else (failure[0], failure[2])


def _bins_csv(report: ComparisonReport, analytic: SpectrumTable) -> list:
    """Per-bin diagnostics of a comparison, as a header and blocks of rows,
    every value as ``repr`` writes it (:mod:`._reprs`, imported only by a
    failed comparison)."""
    from . import _reprs

    columns = np.stack((analytic.omega, report.est_psd, analytic.s_f, report.dev_sigma), axis=1)
    return [",".join(BINS_COLUMNS) + "\n"] + [
        _reprs.rows((_reprs.cells(columns[r:r + _FORMAT_ROWS]),))
        for r in range(0, len(columns), _FORMAT_ROWS)]


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


def _plan_sweep(p: PhysParams, names):
    """Each scenario's ``(name, scenario, derived, first)``, in order, the
    ``(index, derived)`` of each computed scenario, and the planning failure.

    Scenarios equal up to their name write equal CSVs, so only the first is
    computed; ``first`` is the index of the earlier plan whose blocks a later
    one also writes, and is ``None`` for a computed one.  Planning stops at
    the first scenario that fails, and returns its exception with the plans
    before it, so that it is raised once their CSVs are written.
    """
    plans, computed, members = [], {}, []
    try:
        for name in names:
            scen = SWEEP_SCENARIOS[name]
            d_s = derive(scen.apply(p))
            key = dataclasses.replace(scen, name="")
            first = computed.get(key)
            if first is None:
                computed[key] = len(plans)
                members.append((len(plans), d_s))
            plans.append((name, scen, d_s, first))
    except (ValueError, ArithmeticError) as exc:  # what main reports as an error
        return plans, members, exc
    return plans, members, None


def cmd_sweep(args) -> int:
    """Write one CSV per scenario, then the manifest.

    Every scenario is evaluated on one grid, that of ``--grid`` or the sweep
    presets' :func:`sweep_grid_spec`.  Every CSV of the sweep is written at
    once, each through its own temporary file: the blocks of each computed
    scenario go to its file and to those of its repeats, from the inline
    loop or, once sweep workers have formatted them, from their part files
    (:func:`_write_blocks`), so this process holds no slice of text while
    workers run.  When a scenario fails, the scenarios before it are
    finished and written, those from it on are dropped from the slices still
    to format and their files removed, and its exception is raised.  A
    worker that ends without a report raises :class:`ChildProcessError`, an
    ``OSError`` (exit 1), as soon as the others are killed, and no CSV is
    written; so does any exception of a worker that is not a scenario's.
    """
    p = _resolve_params(args)
    # a scenario named more than once is swept once, where it was first named
    names = list(dict.fromkeys(args.scenario or SWEEP_SCENARIOS))
    unknown = [n for n in names if n not in SWEEP_SCENARIOS]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s): {', '.join(unknown)}; "
            f"known: {', '.join(SWEEP_SCENARIOS)}"
        )
    spec = _parse_grid(args.grid) if args.grid else sweep_grid_spec(p.tau)
    try:
        if 17 * spec["n"] > _MAX_RECORD_BYTES:  # building and checking it peaks at 17 bytes a point
            raise ValueError(f"{spec['n']} points take over {_MAX_RECORD_BYTES / 2**30:g} GiB")
        grid = _checked_grid(make_grid(p.tau, **spec))
    except ValueError as exc:
        if args.grid:
            raise ConfigError(f"bad grid {args.grid!r}: {exc}") from exc
        raise
    # omega * tau passes the largest float, at a frequency spectrum_sweep still
    # admits, for a tau of about 1e228 s and up; the grid is positive and
    # increasing, so its last point overflows first
    if not math.isfinite(float(grid[-1]) * p.tau / (2.0 * math.pi)):
        with np.errstate(over="ignore"):
            bad = float(grid[np.argmin(np.isfinite(grid * p.tau / (2.0 * math.pi)))])
        raise ValueError(f"omega_tau_over_2pi is not finite at omega = {bad!r} rad/s "
                         f"for tau = {p.tau!r} s")
    os.makedirs(args.out, exist_ok=True)

    d_base = derive(p)
    plans, members, failure = _plan_sweep(p, names)
    # the plans from `end` on are not written: the first scenario that failed
    # and those after it (all written when none failed)
    end = len(plans)
    header = ",".join(CSV_COLUMNS) + "\n"
    scen_entries = []
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_AtomicFile(os.path.join(args.out, f"{name}.csv")))
                 for name, *_ in plans]
        writers = [[] for _ in plans]
        for i, (*_, first) in enumerate(plans):
            writers[i if first is None else first].append(files[i])
            files[i].write(header)
        slice_failure = _write_blocks(args.out, grid, members, [writers[i] for i, _ in members])
        if slice_failure is not None:
            end, failure = slice_failure
        for fh, (name, scen, d_s, _) in zip(files, plans[:end]):
            fh.commit()
            print(f"wrote {fh.path} ({grid.size} rows, {scen.describe()})")
            regime = check_regime(d_s)
            for c in regime.checks:
                if c.status == "fail":
                    print(f"warning: scenario {name} fails the {c.name} regime check "
                          f"(ratio {c.ratio:.4g}, threshold {c.threshold:g}) -- {c.note}",
                          file=sys.stderr)
            entry = dataclasses.asdict(scen)
            entry["csv"] = f"{name}.csv"
            entry["regime"] = dataclasses.asdict(regime)
            scen_entries.append(entry)
    if failure is not None:
        raise failure

    manifest = _manifest(p, d_base, {"command": "sweep", "grid": spec, "scenarios": scen_entries})
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
    flags = {"n_traj": args.trajectories, "t_dur": args.duration, "dt": args.dt}
    cfg = default_sim_config(d, args.seed, **{k: v for k, v in flags.items() if v is not None})
    plan = _plan(d, cfg, args.segments)
    os.makedirs(args.out, exist_ok=True)
    report, _, analytic = _run_comparison(d, cfg, plan)

    header = (
        f"scenario {scen.name} ({scen.describe()})\n"
        f"trajectories {cfg.n_traj}, duration {cfg.t_dur!r} s, dt {cfg.dt!r} s, "
        f"segments {args.segments}, seed {cfg.seed}\n"
    )
    report_text = header + report.format() + "\n"
    _atomic_write(os.path.join(args.out, f"{scen.name}-report.txt"), report_text)
    if args.dump_timeseries:
        # trajectory 0 alone, with the run's seed and plan: the same outputs as
        # in the streamed run, which has released its buffers, written as made
        one = _Sampler(d, dataclasses.replace(cfg, n_traj=1), plan)
        _write_dump(os.path.join(args.out, f"{scen.name}-timeseries.txt"), cfg.dt,
                    _panels(one, slice(0, 1)))
    if not report.passed:
        _atomic_write(os.path.join(args.out, f"{scen.name}-bins.csv"), _bins_csv(report, analytic))
    manifest = _manifest(p, d, {
        "command": "oracle",
        "scenario": dataclasses.asdict(scen),
        "sim": {
            "dt": cfg.dt, "t_dur": cfg.t_dur, "n_traj": cfg.n_traj,
            "seed": cfg.seed, "segments": args.segments, "band": list(report.band),
        },
        # what the run plan fixed, and the step bound's measured gap that admitted dt
        "plan": {
            "n_steps": plan.n_steps, "seg_len": plan.seg_len,
            "periodograms": plan.periodograms, "bins": plan.bins.stop - plan.bins.start,
            "step_gap": plan.step_gap, "step_gap_bound": _STEP_GAP,
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
    sp.add_argument("--segments", type=int, default=_SEGMENTS, metavar="N")
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


def _terminated(signum, frame):
    """SIGTERM as ``SystemExit(143)``, so that leaving the run's ``with``
    blocks kills and reaps its forked processes and removes its partial
    files, which the signal's default action would leave behind."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    """Run the verb of ``argv`` and return its exit code.

    A usage error (:class:`ConfigError`, :class:`ParameterError`), a run out
    of range (:class:`RunRangeError`) and a file that cannot be read or
    written exit 1, with one ``error:`` line; any other numerical or
    simulation failure exits 2, with one ``numerical failure:`` line.
    """
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        previous = signal.signal(signal.SIGTERM, _terminated)
    except ValueError:  # not the main thread, where _processes forks none: no child to kill
        previous = None
    try:
        return args.func(args)
    except (ConfigError, ParameterError, RunRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SimulationError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())

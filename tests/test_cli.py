import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import optotriplet as ot
from optotriplet.cli import _CSV_CHUNK_ROWS, CSV_COLUMNS, _format_slices, main
from optotriplet.timedomain import _plan


# a fine step for sym-lossless, the oracle's default scenario: 0.8 of 0.1 over
# its fastest relaxation rate, about a tenth of the default step; the huge
# runs refused below are sized in it
FINE_DT = "3.5133948177426444e-07"


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    return header, rows


# a sweep manifest's entry per scenario: its four fields, its CSV and its
# regime report
SCENARIO_ENTRY_KEYS = {"name", "symmetric", "lossless", "pump_mult", "csv", "regime"}


def test_sweep_preset(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["sweep", "--preset", "table1", "--out", out,
                "--scenario", "fig2-sym", "--scenario", "fig2-nonsym-10P"])
    assert code == 0
    header, rows = read_csv(out / "fig2-sym.csv")
    assert header == list(CSV_COLUMNS)
    assert rows.shape == (400, 9)
    omega, ratio = rows[:, 0], rows[:, 8]
    assert np.all(np.diff(omega) > 0)
    assert np.any(ratio < 1.0)  # sub-SQL band present in the lossless preset
    sf = rows[:, 4] + rows[:, 5]
    np.testing.assert_allclose(rows[:, 6], sf, rtol=1e-15)
    # the figures' grid, recorded once for the whole sweep
    tau = ot.table1_preset().tau
    lo, hi = 2.0 * math.pi * 2e-4 / tau, 2.0 * math.pi * 10.0 / tau
    np.testing.assert_array_equal(omega, np.geomspace(lo, hi, 400))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["phys_params"]["Q"] == 1e9
    assert manifest["grid"] == {"kind": "log", "n": 400, "lo": lo, "hi": hi}
    assert [s["name"] for s in manifest["scenarios"]] == ["fig2-sym", "fig2-nonsym-10P"]
    for entry in manifest["scenarios"]:
        assert set(entry) == SCENARIO_ENTRY_KEYS


def test_sweep_repeated_scenario_names_are_swept_once(tmp_path, capsys, monkeypatch):
    opened = []

    def atomic_file(path):
        opened.append(os.path.basename(path))
        return real(path)

    real = ot.cli._AtomicFile
    monkeypatch.setattr(ot.cli, "_AtomicFile", atomic_file)
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym",
                "--scenario", "fig2-nonsym", "--scenario", "fig2-sym"]) == 0
    assert opened == ["fig2-sym.csv", "fig2-nonsym.csv"]
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert len(wrote) == 2 and "fig2-sym.csv" in wrote[0] and "fig2-nonsym.csv" in wrote[1]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [s["name"] for s in manifest["scenarios"]] == ["fig2-sym", "fig2-nonsym"]
    assert sorted(os.listdir(out)) == ["fig2-nonsym.csv", "fig2-sym.csv", "manifest.json"]
    assert sha256_of(out / "fig2-sym.csv") == GOLDEN_SWEEP_SHA256["fig2-sym"]


def test_sweep_reproducible_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig3-nonsym-lossy"]) == 0
    assert (out1 / "fig3-nonsym-lossy.csv").read_bytes() == (out2 / "fig3-nonsym-lossy.csv").read_bytes()


# reference SHA-256 of the sweep CSVs; any drift in values or formatting
# changes them
GOLDEN_SWEEP_SHA256 = {
    "fig2-sym": "298d1903bd3735f3406c7d425a273297f94c21ef202b64e0f3b7ab9bd2f20b54",
    "fig2-nonsym": "8a734834109ed4deadc8b2e98e015a9005c0edf28d1d92a8b17db36594646b24",
    "fig2-nonsym-10P": "bfea506d45100ce6c9d64cff90588a0055dbfd9dbab46ee1cc7ea42df71e5884",
    "fig3-nonsym-lossy": "6107c4ab4ca96848927047c42fc4d27212e759a9963f2b3e7a7054aeff73ff1a",
    "fig3-nonsym-lossless": "8a734834109ed4deadc8b2e98e015a9005c0edf28d1d92a8b17db36594646b24",
    "fig3-nonsym-lossy-10P": "3f92fba7219a32feb4c057f10b736139d87d4fd1181470328bb2407d7700eaca",
    "fig3-nonsym-lossless-10P": "bfea506d45100ce6c9d64cff90588a0055dbfd9dbab46ee1cc7ea42df71e5884",
    "fig4-sym-lossy": "eb5e3e73d2f4620da442e26e107ca1fdf6c6dc42c8d63753b8b2e45ba785d866",
    "fig4-sym-lossless": "298d1903bd3735f3406c7d425a273297f94c21ef202b64e0f3b7ab9bd2f20b54",
    "fig4-sym-lossy-10P": "376b70f4d17be6d9241f5ce44d259fb5a5ce8be97958d563236de511c4708ae0",
    "fig4-sym-lossless-10P": "467b456ed024ad04a8a091a2bcfcfdc9356efc676d74ea9f6ec713fa86eac49f",
}
GOLDEN_FIG2_SYM_LINEAR50_SHA256 = "da0049bbcc1d305b1de520be0e4a507781186b9f385684b181ac160aff02cb66"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_golden_bytes(tmp_path):
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out]) == 0
    assert set(GOLDEN_SWEEP_SHA256) == set(ot.SWEEP_SCENARIOS)
    got = {name: sha256_of(out / f"{name}.csv") for name in GOLDEN_SWEEP_SHA256}
    assert got == GOLDEN_SWEEP_SHA256


def test_sweep_golden_bytes_grid_override(tmp_path):
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym",
                "--grid", "linear:50:1e3:1e5"]) == 0
    assert sha256_of(out / "fig2-sym.csv") == GOLDEN_FIG2_SYM_LINEAR50_SHA256


def test_sweep_golden_bytes_single_scenario(tmp_path):
    # computed on its own, not as a repeat of an equal scenario in the same run
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out,
                "--scenario", "fig3-nonsym-lossless"]) == 0
    assert sha256_of(out / "fig3-nonsym-lossless.csv") == GOLDEN_SWEEP_SHA256["fig3-nonsym-lossless"]


def test_sweep_csv_in_several_chunks(tmp_path):
    # two full chunks and a partial one, against a plain per-row rendering
    n = 2 * _CSV_CHUNK_ROWS + 7
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig3-nonsym-lossy",
                "--scenario", "fig2-nonsym", "--scenario", "fig3-nonsym-lossless",
                "--grid", f"log:{n}:1e3:1e7"]) == 0
    # the repeat of an equal scenario is written from the same blocks
    first = (out / "fig2-nonsym.csv").read_bytes()
    assert len(first) > 1 << 20
    assert (out / "fig3-nonsym-lossless.csv").read_bytes() == first
    p = ot.SWEEP_SCENARIOS["fig3-nonsym-lossy"].apply(ot.table1_preset())
    table = ot.spectrum_sweep(ot.derive(p), ot.make_grid(p.tau, kind="log", n=n, lo=1e3, hi=1e7))
    lines = [",".join(CSV_COLUMNS)]
    for i in range(n):
        values = (table.omega[i], table.omega[i] * p.tau / (2.0 * np.pi), table.y[i].real,
                  table.y[i].imag, table.s_qu[i], table.s_t, table.s_f[i], table.s_sql[i],
                  table.ratio[i])
        lines.append(",".join(repr(float(v)) for v in values))
    assert (out / "fig3-nonsym-lossy.csv").read_text() == "\n".join(lines) + "\n"


def _one_slice(derived, grid):
    """The block of each of ``derived`` that :func:`_format_slices` writes
    over ``grid`` as one slice, up to the first that fails, and the failure."""
    outs = [[io.BytesIO()] for _ in derived]
    failure = _format_slices(grid, grid.size, [0], list(enumerate(derived)), outs)
    return [fh.getvalue().decode("utf-8") for (fh,) in outs if fh.getvalue()], failure


def test_csv_slice_formats_each_scenario_as_alone(monkeypatch):
    # the grid-only columns are formatted once per slice, for every scenario
    base = ot.table1_preset()
    derived = [ot.derive(ot.SWEEP_SCENARIOS[name].apply(base))
               for name in ("fig2-sym", "fig3-nonsym-lossy", "fig2-nonsym", "fig4-sym-lossy")]
    grid = ot.make_grid(base.tau, kind="log", n=1000, lo=1.0, hi=1e7)
    blocks, failure = _one_slice(derived, grid)
    assert failure is None
    for block, d in zip(blocks, derived, strict=True):
        table = ot.spectrum_sweep(d, grid)
        lines = [",".join(repr(float(v)) for v in (
            table.omega[i], table.omega[i] * base.tau / (2.0 * np.pi), table.y[i].real,
            table.y[i].imag, table.s_qu[i], table.s_t, table.s_f[i], table.s_sql[i],
            table.ratio[i])) for i in range(grid.size)]
        assert block == "\n".join(lines) + "\n"
        assert block == _one_slice([d], grid)[0][0]
    # a scenario that fails ends the slice: the blocks before it, and its exception
    real = ot.cli.spectrum_sweep

    def spectrum_sweep(d, grid):
        if d is derived[2]:
            raise ValueError("injected scenario failure")
        return real(d, grid)

    monkeypatch.setattr(ot.cli, "spectrum_sweep", spectrum_sweep)
    partial, (index, failure) = _one_slice(derived, grid)
    assert partial == blocks[:2]
    assert index == 2
    assert isinstance(failure, ValueError) and "injected" in str(failure)


def test_manifests_carry_every_derived_field(tmp_path):
    base = ot.table1_preset()
    want_fields = [f.name for f in dataclasses.fields(ot.DerivedParams) if f.name != "phys"]
    assert {"eta_nom", "a0_sq", "c0"} <= set(want_fields)

    def expected(p):
        d = ot.derive(p)
        return {name: getattr(d, name) for name in want_fields}

    out = tmp_path / "sweep"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym"]) == 0
    assert json.loads((out / "manifest.json").read_text())["derived"] == expected(base)

    out = tmp_path / "oracle"
    assert run(["oracle", "--preset", "table1", "--scenario", "nonsym-lossy", "--out", out,
                "--trajectories", 1, "--duration", 0.004, "--segments", 8]) in (0, 3)
    manifest = json.loads((out / "nonsym-lossy-manifest.json").read_text())
    assert manifest["derived"] == expected(ot.ORACLE_SCENARIOS["nonsym-lossy"].apply(base))


def test_sweep_manifest_regime(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out,
                "--scenario", "fig2-sym", "--scenario", "fig3-nonsym-lossy"]) == 0
    assert "warning" not in capsys.readouterr().err  # the preset has no failing check
    manifest = json.loads((out / "manifest.json").read_text())
    base = ot.table1_preset()
    for entry in manifest["scenarios"]:
        regime = entry["regime"]
        assert set(regime) == {"checks", "b_thermal"}
        for check in regime["checks"]:
            assert set(check) == {"name", "ratio", "threshold", "status", "note"}
        d = ot.derive(ot.SWEEP_SCENARIOS[entry["name"]].apply(base))
        assert regime == json.loads(json.dumps(dataclasses.asdict(ot.check_regime(d))))


def test_sweep_warns_on_failing_regime_check(tmp_path, capsys):
    cfg = tmp_path / "lossy.cfg"
    cfg.write_text("gamma_e_plus = 1e5\n")  # gamma_e/gamma_0 of the upper mode far above 0.1
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--preset", "table1", "--out", out,
                "--scenario", "fig3-nonsym-lossy", "--scenario", "fig3-nonsym-lossless"]) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1
    assert "fig3-nonsym-lossy" in warnings[0] and "loss_smallness" in warnings[0]
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {e["name"]: {c["name"]: c["status"] for c in e["regime"]["checks"]}
                for e in manifest["scenarios"]}
    assert statuses["fig3-nonsym-lossy"]["loss_smallness"] == "fail"
    assert statuses["fig3-nonsym-lossless"]["loss_smallness"] == "pass"


def test_sweep_grid_override(tmp_path):
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym",
                "--grid", "linear:50:1e3:1e5"]) == 0
    _, rows = read_csv(out / "fig2-sym.csv")
    assert rows.shape[0] == 50
    assert rows[0, 0] == pytest.approx(1e3)
    assert rows[-1, 0] == pytest.approx(1e5)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == {"kind": "linear", "n": 50, "lo": 1e3, "hi": 1e5}
    [entry] = manifest["scenarios"]
    assert set(entry) == SCENARIO_ENTRY_KEYS


def test_sweep_unknown_scenario(tmp_path, capsys):
    assert run(["sweep", "--preset", "table1", "--out", tmp_path, "--scenario", "nope"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_sweep_bad_grid(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--grid", "log:10"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("spec", ["log:0:1:10", "log:-5:1:10", "log:10:10:1", "log:10:0:10",
                                  "linear:10:1:nan", "log:10:1:inf", "cubic:10:1:10",
                                  "log:1000000000000:1:1e7"])
def test_sweep_bad_grid_values(tmp_path, capsys, spec):
    # well-formed specs that make_grid rejects are usage errors, found before any output
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep", "--preset", "table1", "--out", out, "--grid", spec]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_sweep_grid_past_the_memory_cap_is_refused_before_it_is_built(tmp_path, capsys):
    # building and checking a grid peaks at 17 bytes a point: 252645136
    # points would take just over 4 GiB, and are refused with one error line
    # before any is allocated
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert run(["sweep", "--preset", "table1", "--out", out,
                    "--grid", "log:252645136:1:1e7"]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    err = capsys.readouterr().err
    assert err.startswith("error: bad grid") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_memory_is_bounded_per_chunk(tmp_path):
    # a 100003-point sweep evaluated at once holds about 330 bytes per point
    # (33 MB); evaluated per CSV chunk it holds one chunk's table and strings
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym",
                "--grid", "log:300:1:1e7"]) == 0  # warm caches
    tracemalloc.start()
    try:
        assert run(["sweep", "--preset", "table1", "--out", out, "--scenario",
                    "fig3-nonsym-lossy", "--grid", "log:100003:1:1e7"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_inline_sweep_memory_is_bounded_per_chunk(tmp_path, monkeypatch):
    # on one usable CPU this process formats the slices itself: one slice's
    # table, its grid columns' cells and one block of text at a time
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 1)
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym",
                "--grid", "log:300:1:1e7"]) == 0  # warm caches
    tracemalloc.start()
    try:
        assert run(["sweep", "--preset", "table1", "--out", out, "--scenario",
                    "fig3-nonsym-lossy", "--grid", "log:100003:1:1e7"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_sweep_memory_is_bounded_per_slice_of_several_scenarios(tmp_path):
    # four computed scenarios share each slice of 8192 // 4 = 2048 points
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym",
                "--grid", "log:300:1:1e7"]) == 0  # warm caches
    scenarios = ["fig2-sym", "fig2-nonsym", "fig3-nonsym-lossy", "fig4-sym-lossy"]
    tracemalloc.start()
    try:
        assert run(["sweep", "--preset", "table1", "--out", out, "--grid", "log:100003:1:1e7"]
                   + [arg for name in scenarios for arg in ("--scenario", name)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


FORK = hasattr(os, "fork")
# three computed scenarios on one grid, in slices of 8192 // 3 = 2730 points;
# fig3-nonsym-lossless is written from fig2-nonsym's blocks
POOLED_SWEEP = ["sweep", "--preset", "table1", "--grid", f"log:{2 * _CSV_CHUNK_ROWS + 7}:1e3:1e7",
                "--scenario", "fig3-nonsym-lossy", "--scenario", "fig2-nonsym",
                "--scenario", "fig3-nonsym-lossless", "--scenario", "fig2-sym"]
# the omega between POOLED_SWEEP's slices 2 and 3 (points 5460 and 8190):
# slices 3 to 6 start above it, whichever worker claims them
SECOND_RUN_OMEGA = 5e4


def _spy_on_blocks(monkeypatch, log, fail_on=None, on_block=None):
    """Record the pid that evaluates each block in ``log``; raise ValueError
    on every block but the first of the scenario with parameters ``fail_on``;
    call ``on_block(grid)`` before each block.

    Workers are forked after the patch, so it reaches them too.
    """
    real = ot.cli.spectrum_sweep

    def spy(d, grid, y_policy="optimal"):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if on_block is not None:
            on_block(grid)
        if d.phys == fail_on and grid[0] > 1e3:
            raise ValueError("injected block failure")
        return real(d, grid, y_policy)

    monkeypatch.setattr(ot.cli, "spectrum_sweep", spy)


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, capsys, forks):
    # inline, then 2 and 3 workers, each claiming slices of 2730 points from
    # the queue of 7; each slice is evaluated once per computed scenario
    log = tmp_path / "pids"
    _spy_on_blocks(monkeypatch, log)
    csvs, stdout = {}, {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(ot._forks, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        log.write_text("")
        forks.clear()
        assert run(POOLED_SWEEP + ["--out", out]) == 0
        pids = log.read_text().split()
        assert len(pids) == 21
        if cpus == 1:
            assert set(pids) == {str(os.getpid())} and not forks
        else:
            assert str(os.getpid()) not in pids and len(forks.reaped()) == cpus
        # the CSVs and the manifest, and no part file
        assert sorted(os.listdir(out)) == sorted(
            [f"{name}.csv" for name in POOLED_SWEEP[6::2]] + ["manifest.json"])
        csvs[cpus] = {f.name: f.read_bytes() for f in out.glob("*.csv")}
        stdout[cpus] = capsys.readouterr().out.replace(str(out), "OUT")
    assert csvs[1] == csvs[2] == csvs[3]
    assert stdout[1] == stdout[2] == stdout[3]
    assert stdout[1].count("wrote OUT") == 4


def test_a_platform_without_fork_runs_in_one_process(tmp_path, monkeypatch):
    # without os.fork, two usable CPUs give one process, one oracle shard and
    # an inline sweep whose bytes are the 1-CPU run's; a fork would raise
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 1)
    assert run(POOLED_SWEEP + ["--out", tmp_path / "cpus1"]) == 0
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    assert ot._forks.processes(36) == 1
    assert ot.timedomain._shards(36) == [slice(0, 36)]
    assert run(POOLED_SWEEP + ["--out", tmp_path / "nofork"]) == 0
    csvs = [{f.name: f.read_bytes() for f in (tmp_path / name).glob("*.csv")}
            for name in ("cpus1", "nofork")]
    assert len(csvs[0]) == 4 and csvs[0] == csvs[1]


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_block_failure_in_a_worker_keeps_the_files_of_an_inline_run(
        tmp_path, monkeypatch, capsys, forks):
    # fig2-nonsym's blocks fail on every slice but the first, in whichever
    # worker claims it: fig2-nonsym and fig2-sym are dropped
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    failing = ot.SWEEP_SCENARIOS["fig2-nonsym"].apply(ot.table1_preset())
    log = tmp_path / "pids"
    _spy_on_blocks(monkeypatch, log, fail_on=failing)
    out = tmp_path / "out"
    assert run(POOLED_SWEEP + ["--out", out]) == 2
    assert len(forks.reaped()) == 2
    assert capsys.readouterr().err == "numerical failure: injected block failure\n"
    assert sorted(os.listdir(out)) == ["fig3-nonsym-lossy.csv"]
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 1)
    inline = tmp_path / "inline"
    assert run(POOLED_SWEEP[:7] + ["--out", inline]) == 0
    assert ((out / "fig3-nonsym-lossy.csv").read_bytes()
            == (inline / "fig3-nonsym-lossy.csv").read_bytes())


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_failure_comes_from_the_earliest_slice_where_it_failed(tmp_path, monkeypatch, capsys):
    # fig2-nonsym fails on every slice but the first, naming the slice; on
    # slice 1 it fails only after 0.5 s, once the other worker has failed on
    # later slices: the sweep still reports slice 1, as an inline run does
    failing = ot.SWEEP_SCENARIOS["fig2-nonsym"].apply(ot.table1_preset())
    real = ot.cli.spectrum_sweep

    def spectrum_sweep(d, grid):
        if d.phys == failing and grid[0] > 1e3:
            if grid[0] < 1e4:  # slice 1
                time.sleep(0.5)
            raise ValueError(f"injected failure at {float(grid[0])!r}")
        return real(d, grid)

    monkeypatch.setattr(ot.cli, "spectrum_sweep", spectrum_sweep)
    errs, csvs = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(ot._forks, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run(POOLED_SWEEP + ["--out", out]) == 2
        errs[cpus] = capsys.readouterr().err
        csvs[cpus] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert errs[1] == errs[2] == "numerical failure: injected failure at 4637.243643500838\n"
    assert csvs[1] == csvs[2] and list(csvs[2]) == ["fig3-nonsym-lossy.csv"]


def _refuse_in_planning(monkeypatch, name):
    """Make the derivation of sweep scenario ``name`` raise a ParameterError."""
    refused = ot.SWEEP_SCENARIOS[name].apply(ot.table1_preset())
    real = ot.cli.derive

    def derive(p):
        if p == refused:
            raise ot.ParameterError("injected refusal")
        return real(p)

    monkeypatch.setattr(ot.cli, "derive", derive)


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_scenario_refused_in_planning_keeps_the_files_of_an_inline_run(tmp_path, monkeypatch, capsys, forks):
    # scenarios are planned before any block is formatted, but one that
    # cannot be derived is reported only once the CSVs before it are written
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    _refuse_in_planning(monkeypatch, "fig2-nonsym")
    out = tmp_path / "out"
    assert run(POOLED_SWEEP + ["--out", out]) == 1
    assert len(forks.reaped()) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: injected refusal\n"
    assert captured.out.count("wrote ") == 1
    assert sorted(os.listdir(out)) == ["fig3-nonsym-lossy.csv"]


def test_sweep_first_scenario_refused_in_planning_writes_nothing(tmp_path, monkeypatch, capsys):
    # no scenario is computed, so no slice is formatted and no worker started
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    _refuse_in_planning(monkeypatch, "fig3-nonsym-lossy")
    log = tmp_path / "pids"
    _spy_on_blocks(monkeypatch, log)
    out = tmp_path / "out"
    assert run(POOLED_SWEEP + ["--out", out]) == 1
    assert not log.exists()
    captured = capsys.readouterr()
    assert captured.err == "error: injected refusal\n"
    assert "wrote " not in captured.out
    assert os.listdir(out) == []


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_interrupted_mid_run_leaves_no_worker(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)

    def interrupt(d):
        raise KeyboardInterrupt

    # called after the first CSV is committed, before the others are
    monkeypatch.setattr(ot.cli, "check_regime", interrupt)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run(POOLED_SWEEP + ["--out", out])
    assert len(forks.reaped()) == 2
    assert sorted(os.listdir(out)) == ["fig3-nonsym-lossy.csv"]


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_interrupted_with_slices_in_flight_leaves_no_worker_or_file(tmp_path, monkeypatch, forks):
    # the parent's wait is interrupted once the first worker has ended, while
    # the second, slowed down on every block, is still formatting the one
    # slice it claimed: it is killed, both are reaped, and no file is left
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    log = tmp_path / "pids"
    _spy_on_blocks(monkeypatch, log, on_block=lambda grid: time.sleep(0.3 if len(forks) == 1 else 0.0))
    real_waitpid, waits = os.waitpid, []

    def waitpid(pid, options):
        waits.append(pid)
        if len(waits) == 1:
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run(POOLED_SWEEP + ["--out", out])
    monkeypatch.setattr(os, "waitpid", real_waitpid)
    workers = forks.reaped()
    assert len(workers) == 2 and set(waits) == workers
    # the second worker's slice of 3 scenarios was cut short
    assert len(log.read_text().split()) < 21
    assert os.listdir(out) == []


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_worker_killed_mid_run_fails_the_sweep_and_writes_nothing(
        tmp_path, monkeypatch, capsys, forks):
    # a worker that ends without a report is an error (exit 1) naming it;
    # no CSV is committed and no part file or queue end stays open.  The
    # first worker to reach a slice above SECOND_RUN_OMEGA, and only it, is
    # killed; the other is killed once that is seen
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def kill_the_first_worker_past_it(grid):
        if os.getpid() != parent and grid[0] > SECOND_RUN_OMEGA:
            try:
                fd = os.open(tmp_path / "killed", os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:  # another worker was killed
                return
            os.write(fd, str(os.getpid()).encode())
            os.kill(os.getpid(), signal.SIGKILL)

    log = tmp_path / "pids"
    _spy_on_blocks(monkeypatch, log, on_block=kill_the_first_worker_past_it)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    out = tmp_path / "out"
    assert run(POOLED_SWEEP + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: sweep worker {(tmp_path / 'killed').read_text()} ended without a report "
                   f"(killed by signal {int(signal.SIGKILL)})\n")
    assert len(forks.reaped()) == 2
    assert os.listdir(out) == []
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == len(fds)


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_stops_at_a_worker_exception(tmp_path, monkeypatch, capsys, forks):
    # the first worker forked raises an OSError, as from its part file on a
    # full disk, at its first block, while the other takes 0.2 s per block:
    # the other is killed at once, having formatted at most the slice of 3
    # blocks it was on, not the 6 slices left; exit 1, and no CSV, part
    # file, child or file descriptor is left
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def fail_in_the_first_worker(grid):
        if os.getpid() == parent:
            return
        if not forks:  # the list as it was at this worker's fork
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        time.sleep(0.2)

    log = tmp_path / "pids"
    _spy_on_blocks(monkeypatch, log, on_block=fail_in_the_first_worker)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    out = tmp_path / "out"
    assert run(POOLED_SWEEP + ["--out", out]) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    workers = forks.reaped()
    assert len(workers) == 2
    pids = log.read_text().split()
    assert pids.count(str(forks[0])) == 1
    assert pids.count(str(forks[1])) <= 3
    assert os.listdir(out) == []
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == len(fds)


def _inline_csvs(tmp_path, monkeypatch):
    """The CSV bytes of POOLED_SWEEP formatted inline, by name."""
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 1)
    out = tmp_path / "inline"
    assert run(POOLED_SWEEP + ["--out", out]) == 0
    return {f.name: f.read_bytes() for f in out.glob("*.csv")}


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_slowed_worker_leaves_the_other_slices_to_the_queue(tmp_path, monkeypatch, capsys, forks):
    # the worker that claims slice 0 takes 0.5 s per block, 1.5 s for the
    # slice, while the other formats the remaining 6 slices from the queue;
    # a fixed half of the 7 slices would have held 3 of them
    inline = _inline_csvs(tmp_path, monkeypatch)
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    slowed, here = tmp_path / "slowed", []  # each worker has its own `here`

    def slow_the_first_slice(grid):
        if grid[0] == 1e3:
            slowed.write_text(str(os.getpid()))
            here.append(True)
        if here:
            time.sleep(0.5)

    log = tmp_path / "pids"
    _spy_on_blocks(monkeypatch, log, on_block=slow_the_first_slice)
    out = tmp_path / "out"
    assert run(POOLED_SWEEP + ["--out", out]) == 0
    assert len(forks.reaped()) == 2
    pids = log.read_text().split()
    assert len(pids) == 21 and pids.count(slowed.read_text()) <= 2 * 3
    assert {f.name: f.read_bytes() for f in out.glob("*.csv")} == inline


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_groups_slices_past_the_queue_bound(tmp_path, monkeypatch, capsys, forks):
    # a queue of at most 3 indices (12 bytes) holds the 7 slices in units of
    # 3, 3 and 1 consecutive ones; the bytes are those of an inline run
    inline = _inline_csvs(tmp_path, monkeypatch)
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ot.cli.select, "PIPE_BUF", 12)
    log = tmp_path / "units"
    real = ot.cli._format_slices

    def format_slices(grid, step, starts, members, outs):
        with open(log, "a") as fh:
            fh.write(f"{len(starts)}\n")
        return real(grid, step, starts, members, outs)

    monkeypatch.setattr(ot.cli, "_format_slices", format_slices)
    out = tmp_path / "out"
    assert run(POOLED_SWEEP + ["--out", out]) == 0
    assert len(forks.reaped()) == 2
    assert sorted(log.read_text().split()) == ["1", "3", "3"]
    assert {f.name: f.read_bytes() for f in out.glob("*.csv")} == inline


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_memory_is_bounded_whatever_the_cpu_count(tmp_path, monkeypatch, forks):
    # 64 usable CPUs start at most 4 workers, and the parent holds no slice
    # of text however many there are
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 64)
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym",
                "--grid", "log:300:1:1e7"]) == 0  # warm caches
    forks.clear()
    tracemalloc.start()
    try:
        assert run(["sweep", "--preset", "table1", "--out", out, "--scenario",
                    "fig3-nonsym-lossy", "--grid", "log:100003:1:1e7"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forks.reaped()) == ot._forks._MAX_WORKERS
    assert peak < 12e6


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_parent_holds_no_slice_while_workers_format(tmp_path, monkeypatch, forks):
    # four computed scenarios in 49 slices of 2048 points at two workers:
    # once the grid is built and checked, the parent's peak stays under one
    # slice of text (about 1.4 MB), the 0.8 MB grid included
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--scenario", "fig2-sym",
                "--grid", "log:300:1:1e7"]) == 0  # warm caches
    scenarios = ["fig2-sym", "fig2-nonsym", "fig3-nonsym-lossy", "fig4-sym-lossy"]
    real = ot.cli._plan_sweep

    def plan_sweep(*args):
        tracemalloc.reset_peak()
        return real(*args)

    monkeypatch.setattr(ot.cli, "_plan_sweep", plan_sweep)
    forks.clear()
    tracemalloc.start()
    try:
        assert run(["sweep", "--preset", "table1", "--out", out, "--grid", "log:100003:1:1e7"]
                   + [arg for name in scenarios for arg in ("--scenario", name)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forks.reaped()) == 2
    assert peak < 1.4e6


@pytest.mark.skipif(not FORK, reason="the sweep workers need fork")
def test_sweep_formats_inline_while_another_thread_runs(tmp_path, monkeypatch):
    # a thread that holds a lock when a worker is forked could deadlock it,
    # so a host process with other Python threads formats inline
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    log = tmp_path / "pids"
    _spy_on_blocks(monkeypatch, log)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert run(POOLED_SWEEP + ["--out", tmp_path / "out"]) == 0
    finally:
        release.set()
        other.join()
    assert log.read_text().split() == [str(os.getpid())] * 21


def test_needs_config_or_preset(capsys):
    assert run(["regime"]) == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("args, reason", [
    (["sweep", "--preset", "table1", "--out", "{file}"], "File exists"),
    (["oracle", "--preset", "table1", "--trajectories", "2", "--out", "{file}/x"],
     "Not a directory"),
    (["regime", "--config", "{dir}"], "Is a directory"),
], ids=["sweep-out-is-a-file", "oracle-out-under-a-file", "regime-config-is-a-directory"])
def test_os_errors_are_usage_errors(tmp_path, capsys, monkeypatch, args, reason):
    def unreached(*args):
        raise AssertionError("the oracle ran before it made its output directory")

    monkeypatch.setattr(ot.timedomain, "_shard_panels", unreached)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    paths = {"file": tmp_path / "file", "dir": tmp_path / "dir"}
    assert run([a.format(**paths) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]


def test_config_file_flow(tmp_path, capsys):
    cfg = tmp_path / "sensor.cfg"
    cfg.write_text("p_in = 1e-5\n")
    # partial config requires the preset flag
    assert run(["regime", "--config", cfg]) == 1
    assert run(["regime", "--config", cfg, "--preset", "table1"]) == 0
    cfg.write_text("p_in = 1e-5\nunknown_knob = 2\n")
    assert run(["regime", "--config", cfg, "--preset", "table1"]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert run(["regime", "--config", tmp_path / "missing.cfg", "--preset", "table1"]) == 1


def test_regime_output(capsys):
    assert run(["regime", "--preset", "table1"]) == 0
    out = capsys.readouterr().out
    assert "B = " in out and "0.2244" in out
    assert "resolved_sideband" in out and "marginal" in out


def test_regime_lossless_infinite_margin(tmp_path, capsys):
    cfg = tmp_path / "lossless.cfg"
    cfg.write_text("gamma_e = 0\ngamma_e_plus = 0\ngamma_e_minus = 0\n")
    assert run(["regime", "--config", cfg, "--preset", "table1"]) == 0
    assert "margin inf" in capsys.readouterr().out


def test_minforce(capsys):
    assert run(["minforce", "--preset", "table1"]) == 0
    out = capsys.readouterr().out
    assert "2.14017" in out  # SQL-only force in newtons
    assert run(["minforce", "--preset", "table1", "--tau", "-1"]) == 1


@pytest.mark.parametrize("args", [
    ["minforce", "--preset", "table1", "--tau", "1e-160"],
    ["minforce", "--preset", "table1", "--tau", "1e-200"],
    ["minforce", "--preset", "table1", "--tau", "1e300"],
    ["sweep", "--preset", "table1", "--grid", "log:3:1e-300:1e300"],
    ["sweep", "--preset", "table1", "--grid", "log:3:1:1e300"],
], ids=["minforce-1e-160", "minforce-1e-200", "minforce-1e300", "sweep-1e-300-1e300",
        "sweep-1-1e300"])
def test_overflow_is_one_numerical_failure_line(tmp_path, capsys, args):
    # a force budget or a spectral density past the largest float: exit 2
    # and one line naming the input, with no warning before it and no output
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([*args, *(["--out", tmp_path] if args[0] == "sweep" else [])]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")
    assert (f"tau = {float(args[-1])!r} s" in err) if args[0] == "minforce" else ("omega = 1e+" in err)
    assert not list(tmp_path.iterdir())


def test_sweep_refuses_a_tau_that_overflows_omega_tau_over_2pi(tmp_path, capsys):
    # 1e70 rad/s * 1e250 s passes the largest float, where S_qu is still
    # finite: exit 2 and one line naming tau and the frequency, with no
    # warning before it and no output
    cfg = tmp_path / "long.cfg"
    cfg.write_text("tau = 1e250\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["sweep", "--preset", "table1", "--config", cfg, "--grid", "log:3:1:1e70",
                    "--scenario", "fig2-sym", "--out", out]) == 2
    assert capsys.readouterr() == ("", "numerical failure: omega_tau_over_2pi is not finite at "
                                   "omega = 1e+70 rad/s for tau = 1e+250 s\n")
    assert not out.exists()


def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2-sym", "fig4-sym-lossy-10P", "nonsym-lossy"):
        assert name in out


# report of the small oracle run below; any change in the sampled records,
# the estimator or the report format changes it.  It runs at the step the
# report prints, the default while the band's edge was kept within 0.8 Nyquist
GOLDEN_DT = "3.306878306878307e-06"
GOLDEN_ORACLE_SMALL_REPORT = """\
scenario sym-lossless (symmetric, lossless, pump x1)
trajectories 8, duration 0.008 s, dt 3.306878306878307e-06 s, segments 8, seed 4
spectral comparison: PASS
  band                [7.854631e+04, 7.330383e+05] rad/s
  bins compared       104
  per-bin 1-sigma     9.362 %
  within 3 sigma      100.00 % (need >= 95 %)
  worst deviation     2.889 sigma
  median est/analytic 0.987303
  reduced chi-square  0.9910
"""


def test_oracle_small_run(tmp_path, capsys):
    out = tmp_path / "oracle"
    args = ["oracle", "--preset", "table1", "--scenario", "sym-lossless",
            "--out", out, "--trajectories", 8, "--duration", 0.008, "--dt", GOLDEN_DT,
            "--segments", 8, "--seed", 4, "--dump-timeseries"]
    assert run(args) == 0
    report = (out / "sym-lossless-report.txt").read_text()
    assert "PASS" in report
    assert report == GOLDEN_ORACLE_SMALL_REPORT
    assert (out / "sym-lossless-timeseries.txt").exists()
    assert not (out / "sym-lossless-bins.csv").exists()
    manifest = json.loads((out / "sym-lossless-manifest.json").read_text())
    assert manifest["sim"]["n_traj"] == 8
    # the plan the run was checked against, and the gap that admitted its step
    d = ot.derive(ot.ORACLE_SCENARIOS["sym-lossless"].apply(ot.table1_preset()))
    plan = _plan(d, ot.default_sim_config(d, 4, n_traj=8, t_dur=0.008, dt=float(GOLDEN_DT)), 8)
    assert manifest["plan"] == {"n_steps": 2419, "seg_len": 302, "periodograms": 15,
                                "bins": 104, "step_gap": plan.step_gap,
                                "step_gap_bound": 1e-6}
    assert 0.0 < plan.step_gap <= 1e-6

    # identical seed: identical report bytes
    out2 = tmp_path / "oracle2"
    args[args.index("--out") + 1] = out2
    assert run(args) == 0
    assert (out / "sym-lossless-report.txt").read_bytes() == (out2 / "sym-lossless-report.txt").read_bytes()


def test_oracle_streamed_report_matches_dump_run(tmp_path, capsys):
    # without --dump-timeseries the run is streamed, not materialised; the
    # golden report above comes from the materialising run
    out = tmp_path / "oracle"
    assert run(["oracle", "--preset", "table1", "--scenario", "sym-lossless",
                "--out", out, "--trajectories", 8, "--duration", 0.008, "--dt", GOLDEN_DT,
                "--segments", 8, "--seed", 4]) == 0
    assert (out / "sym-lossless-report.txt").read_text() == GOLDEN_ORACLE_SMALL_REPORT
    assert sorted(p.name for p in out.iterdir()) == [
        "sym-lossless-manifest.json", "sym-lossless-report.txt"]


def test_failing_oracle_writes_bins(tmp_path, capsys, monkeypatch):
    sweep = ot.timedomain.analytic_records_for
    estimates = []

    def misscaled(d, est, band):
        estimates.append(est)
        table = sweep(d, est, band)
        return dataclasses.replace(table, s_f=0.25 * table.s_f)

    monkeypatch.setattr(ot.timedomain, "analytic_records_for", misscaled)
    out = tmp_path / "oracle"
    assert run(["oracle", "--preset", "table1", "--scenario", "nonsym-lossy", "--out", out,
                "--trajectories", 2, "--duration", 0.004, "--segments", 8, "--seed", 1]) == 3
    report = (out / "nonsym-lossy-report.txt").read_text()
    assert "FAIL" in report
    n_bins = int(report.split("bins compared")[1].split()[0])
    worst = float(report.split("worst deviation")[1].split()[0])
    header, rows = read_csv(out / "nonsym-lossy-bins.csv")
    assert header == ["omega", "est", "analytic", "dev_sigma"]
    assert rows.shape == (n_bins, 4)
    # every value as repr writes it
    assert (out / "nonsym-lossy-bins.csv").read_bytes() == (
        "omega,est,analytic,dev_sigma\n"
        + "".join("%r,%r,%r,%r\n" % tuple(row) for row in rows.tolist())).encode()
    omega, est, analytic, dev = rows.T
    assert np.all(np.diff(omega) > 0.0)
    assert f"{np.max(np.abs(dev)):.3f}" == f"{worst:.3f}"
    rel_err = estimates[0].rel_err
    assert np.allclose(dev, (est - analytic) / (rel_err * analytic), rtol=1e-12, atol=0.0)


def test_oracle_dump_does_not_reach_the_record_cap(tmp_path, capsys, monkeypatch):
    # 65536 steps of one trajectory in 64 segments: the stream holds 548864 B,
    # and trajectory 0's records with their scan buffers would take 1089536 B;
    # under a cap of 600000 B the dump, written panel by panel as it is
    # sampled, holds no records, and the run writes what it writes at the
    # default cap
    d = ot.derive(ot.ORACLE_SCENARIOS["nonsym-lossy"].apply(ot.table1_preset()))
    cfg = ot.default_sim_config(d, 5, n_traj=1, t_dur=65536 * ot.default_sim_config(d).dt)
    plan = _plan(d, cfg, 64)
    assert (plan.n_steps, plan.stream_bytes) == (65536, 548864)
    assert 16 * plan.n_steps + 8 * 20 * ot.timedomain._QUARTER == 1089536
    args = ["oracle", "--preset", "table1", "--scenario", "nonsym-lossy", "--trajectories", 1,
            "--duration", repr(cfg.t_dur), "--segments", 64, "--seed", 5, "--dump-timeseries"]
    assert run([*args, "--out", tmp_path / "default"]) == 0
    monkeypatch.setattr(ot.timedomain, "_MAX_RECORD_BYTES", 600_000)
    assert run([*args, "--out", tmp_path / "capped"]) == 0
    for name in ("report", "timeseries"):
        assert ((tmp_path / "capped" / f"nonsym-lossy-{name}.txt").read_bytes()
                == (tmp_path / "default" / f"nonsym-lossy-{name}.txt").read_bytes())


def test_oracle_dump_and_stream_each_fit_the_cap(tmp_path, capsys, monkeypatch):
    # 7001 steps in 8 segments of 2 trajectories: the stream holds 596064 B,
    # and the dump, sampled panel by panel once the stream has ended, holds
    # no records; under a cap of 650000 B the run writes what it writes at
    # the default cap
    d = ot.derive(ot.ORACLE_SCENARIOS["nonsym-lossy"].apply(ot.table1_preset()))
    args = ["oracle", "--preset", "table1", "--scenario", "nonsym-lossy", "--trajectories", 2,
            "--duration", repr(7001 * ot.default_sim_config(d).dt), "--segments", 8,
            "--seed", 5, "--dump-timeseries"]
    assert run([*args, "--out", tmp_path / "default"]) == 0
    monkeypatch.setattr(ot.timedomain, "_MAX_RECORD_BYTES", 650_000)
    assert run([*args, "--out", tmp_path / "capped"]) == 0
    for name in ("report", "timeseries"):
        assert ((tmp_path / "capped" / f"nonsym-lossy-{name}.txt").read_bytes()
                == (tmp_path / "default" / f"nonsym-lossy-{name}.txt").read_bytes())


@pytest.mark.parametrize("n_steps", [7001, 8193])
def test_oracle_dump_matches_simulate_and_leaves_the_report(tmp_path, capsys, monkeypatch,
                                                             n_steps):
    # 7001 = 8 * 875 + 1 steps: a partial last panel, and one sample after the
    # last segment; 8193 = 8 * 1024 + 1: the last panel, of one step, comes
    # after the last segment, and the estimator reads it all the same.  The
    # pulse crosses the panel boundary at step 1024.
    d = ot.derive(ot.ORACLE_SCENARIOS["nonsym-lossy"].apply(ot.table1_preset()))
    dt = ot.default_sim_config(d).dt
    configs, plans, bounds = [], [], []
    config, plan, bound = ot.cli.default_sim_config, ot.cli._plan, ot.timedomain._step_gap

    def with_pulse(d, seed, **kw):
        cfg = config(d, seed, **kw)
        pulse = ot.SignalPulse(force_amp=1e-15, duration=60 * cfg.dt, t_start=1000 * cfg.dt)
        configs.append((d, dataclasses.replace(cfg, signal=pulse)))
        return configs[-1][1]

    monkeypatch.setattr(ot.cli, "default_sim_config", with_pulse)
    monkeypatch.setattr(ot.cli, "_plan", lambda *a, **k: plans.append(a) or plan(*a, **k))
    monkeypatch.setattr(ot.timedomain, "_step_gap", lambda *a: bounds.append(a) or bound(*a))
    args = ["oracle", "--preset", "table1", "--scenario", "nonsym-lossy", "--trajectories", 3,
            "--duration", repr(n_steps * dt), "--segments", 8, "--seed", 99]
    code = run([*args, "--out", tmp_path / "dump", "--dump-timeseries"])
    # one plan, and the step bound of the default config and of that plan
    assert (len(plans), len(bounds)) == (1, 2)
    assert run([*args, "--out", tmp_path / "plain"]) == code
    assert ((tmp_path / "dump" / "nonsym-lossy-report.txt").read_bytes()
            == (tmp_path / "plain" / "nonsym-lossy-report.txt").read_bytes())

    ts = ot.simulate(*configs[0])
    assert ts.n_steps == n_steps
    ts.dump_text(tmp_path / "records.txt")
    assert ((tmp_path / "dump" / "nonsym-lossy-timeseries.txt").read_bytes()
            == (tmp_path / "records.txt").read_bytes())


def test_oracle_dump_does_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch):
    # 1, 2, 3 and 5 shards of 3 and 7 trajectories over 7001 steps, with a
    # pulse across step 1024: the same report and time series bytes
    d = ot.derive(ot.ORACLE_SCENARIOS["nonsym-lossy"].apply(ot.table1_preset()))
    dt = ot.default_sim_config(d).dt
    config = ot.cli.default_sim_config

    def with_pulse(d, seed, **kw):
        cfg = config(d, seed, **kw)
        pulse = ot.SignalPulse(force_amp=1e-15, duration=60 * cfg.dt, t_start=1000 * cfg.dt)
        return dataclasses.replace(cfg, signal=pulse)

    monkeypatch.setattr(ot.cli, "default_sim_config", with_pulse)
    monkeypatch.setattr(ot._forks, "_MAX_WORKERS", 5)  # 5 CPUs make 5 shards
    series = set()
    for n_traj in (3, 7):
        outputs = set()
        for cpus in (1, 2, 3, 5):
            monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"{n_traj}-{cpus}"
            code = run(["oracle", "--preset", "table1", "--scenario", "nonsym-lossy",
                        "--trajectories", n_traj, "--duration", repr(7001 * dt),
                        "--segments", 8, "--seed", 99, "--dump-timeseries", "--out", out])
            outputs.add((code, *((out / f"nonsym-lossy-{name}.txt").read_bytes()
                                 for name in ("report", "timeseries"))))
        assert len(outputs) == 1
        series.add(outputs.pop()[2])
    # trajectory 0's time series does not depend on how many run with it
    assert len(series) == 1


def test_oracle_dump_memory_does_not_grow_with_the_trajectories(tmp_path, capsys, child_peaks):
    # 20000 steps in 32 segments: the records of 15 more trajectories would
    # take 4.8 MB, but only trajectory 0 is dumped; the growth, in this
    # process and every shard child together, is the streamed working set,
    # 1.06 MB by the plan's count
    d = ot.derive(ot.ORACLE_SCENARIOS["nonsym-lossy"].apply(ot.table1_preset()))
    t_dur = 20_000 * ot.default_sim_config(d).dt
    args = ["oracle", "--preset", "table1", "--scenario", "nonsym-lossy", "--duration",
            repr(t_dur), "--segments", 32, "--seed", 3, "--dump-timeseries"]
    run([*args, "--trajectories", 1, "--out", tmp_path / "warm"])  # warm caches
    peaks, stream = {}, {}
    for n_traj in (1, 16):
        tracemalloc.start()
        try:
            assert run([*args, "--trajectories", n_traj, "--out", tmp_path / str(n_traj)]) in (0, 3)
            _, peaks[n_traj] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[n_traj] += sum(child_peaks())
        cfg = ot.default_sim_config(d, 3, n_traj=n_traj, t_dur=t_dur)
        stream[n_traj] = _plan(d, cfg, 32).stream_bytes
    assert (tmp_path / "16" / "nonsym-lossy-timeseries.txt").exists()
    assert peaks[16] - peaks[1] <= stream[16] - stream[1]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_oracle_dump_holds_no_records(tmp_path):
    # a fresh process reads its peak resident set, the pages really occupied,
    # around a one-trajectory oracle run of 1e6 steps with its dump: the dump
    # formats each panel as it is sampled, so the process must grow by at
    # most 1 MiB of page rounding and panels in flight, not by the 16 MB that
    # trajectory 0's records would take.  A process keeps across exec the
    # peak of the one it replaced, here this test's, so the fresh interpreter
    # forks first and its child measures from its own size
    src = os.path.dirname(os.path.dirname(ot.__file__))
    code = """if True:
        import os, sys
        if os.fork():
            os._exit(os.waitstatus_to_exitcode(os.wait()[1]))
        import resource
        import optotriplet as ot
        from optotriplet import cli
        d = ot.derive(ot.ORACLE_SCENARIOS["nonsym-lossy"].apply(ot.table1_preset()))
        dt = ot.default_sim_config(d).dt

        def dump(n_steps, out):
            return cli.main(["oracle", "--preset", "table1", "--scenario", "nonsym-lossy",
                             "--trajectories", "1", "--duration", repr(n_steps * dt),
                             "--segments", "1024", "--seed", "3", "--dump-timeseries",
                             "--out", os.path.join(sys.argv[1], out)])

        assert dump(65536, "warm") in (0, 3)  # warm caches
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert dump(1_000_000, "long") in (0, 3)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(1024 * (after - before))
    """
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          check=True, timeout=120)
    growth = int(done.stdout.split()[-1])
    with open(tmp_path / "long" / "nonsym-lossy-timeseries.txt", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 1_000_000
    assert growth <= 2**20


@pytest.mark.skipif(not FORK, reason="the shard processes need fork")
def test_oracle_shard_killed_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch, forks):
    # the child that runs the second shard's trajectories, 1-2 of 3, is
    # killed at its first panel: one error line names it, exit 1, no child
    # is left, and --out holds no report, dump or manifest
    monkeypatch.setattr(ot._forks, "_usable_cpus", lambda: 2)
    panels, parent = ot.timedomain._panels, os.getpid()

    def killed(sampler, rows):
        if os.getpid() != parent:
            (tmp_path / "killed").write_text(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        yield from panels(sampler, rows)

    monkeypatch.setattr(ot.timedomain, "_panels", killed)
    out = tmp_path / "out"
    assert run(["oracle", "--preset", "table1", "--scenario", "nonsym-lossy", "--trajectories",
                3, "--seed", 3, "--dump-timeseries", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: shard process {(tmp_path / 'killed').read_text()} (trajectories 1-2) ended "
        f"without a report (killed by signal {int(signal.SIGKILL)})\n")
    assert captured.out == ""
    assert len(forks.reaped()) == 1
    assert os.listdir(out) == []


# runs main with argv[2:] on two usable CPUs, writing each forked pid to argv[1]
_LOGGED_FORKS = """
import os, sys
import optotriplet as ot
from optotriplet import cli

log, fork = sys.argv[1], os.fork

def logged():
    pid = fork()
    if pid:
        with open(log, "a") as fh:
            fh.write(f"{pid}\\n")
    return pid

os.fork = logged
ot._forks._usable_cpus = lambda: 2
sys.exit(cli.main(sys.argv[2:]))
"""


def _ended(pid) -> bool:
    """Whether process ``pid`` has ended: it is gone, or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not (FORK and os.path.isdir("/proc/self")),
                    reason="the children need fork, and /proc shows them")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
@pytest.mark.parametrize("verb", [
    ["oracle", "--preset", "table1", "--scenario", "nonsym-lossy", "--duration", "60",
     "--trajectories", "4", "--segments", "1024"],
    ["sweep", "--preset", "table1", "--scenario", "fig2-sym", "--grid", "log:2000000:1:1e7"],
], ids=["oracle", "sweep"])
def test_a_killed_run_leaves_no_child(tmp_path, sig, verb):
    # a CLI run of several seconds, whose work after the first fork runs in
    # forked children, is sent a signal while they run.  SIGTERM exits 143
    # once every child is killed and reaped, and leaves --out empty; after
    # SIGKILL, which the process cannot act on, each child ends itself at its
    # next panel or slice, once it finds its parent gone
    script, log, out = tmp_path / "run.py", tmp_path / "forks", tmp_path / "out"
    script.write_text(_LOGGED_FORKS)
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ot.__file__)))
    # stderr to a file: the children would hold a pipe's write end open
    with open(tmp_path / "err", "w") as err:
        proc = subprocess.Popen([sys.executable, str(script), str(log), *verb, "--out", str(out)],
                                env=env, stderr=err)
    try:
        deadline = time.monotonic() + 60.0
        while not (log.exists() and len(log.read_text().split()) == (1 if verb[0] == "oracle" else 2)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.3)
        proc.send_signal(sig)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    children = [int(pid) for pid in log.read_text().split()]
    if sig == signal.SIGTERM:
        assert (proc.returncode, (tmp_path / "err").read_text()) == (143, "")
        assert os.listdir(out) == []
        assert all(map(_ended, children))
    else:
        assert proc.returncode == -signal.SIGKILL
        deadline = time.monotonic() + 3.0  # well before the children's work would end
        while not all(map(_ended, children)):
            assert time.monotonic() < deadline
            time.sleep(0.01)


def test_oracle_dt_violation(tmp_path, capsys):
    # 20 us, about five times the default step: the sampled density is off by
    # 7.2e-6 up to Nyquist; 8 us, the band clipped at Nyquist: off by 1.15e-6
    for dt in ("2e-5", "8e-6"):
        assert run(["oracle", "--preset", "table1", "--out", tmp_path, "--dt", dt]) == 2
        assert "breaks the step bound" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def test_oracle_band_clipped_at_nyquist(tmp_path, capsys):
    # at 5 us Nyquist, 6.28e5 rad/s, lies below the band's edge 2 pi 10 / tau
    # = 7.33e5 rad/s: the band and the step bound reach Nyquist itself, where
    # e^{i omega dt} = -1, and the sampled density is off by 4.5e-7 there
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, "--dt", "5e-6"]) == 0
    report = (tmp_path / "sym-lossless-report.txt").read_text()
    assert "band                [1.099516e+04, 6.283185e+05] rad/s" in report
    d = ot.derive(ot.ORACLE_SCENARIOS["sym-lossless"].apply(ot.table1_preset()))
    plan = _plan(d, ot.default_sim_config(d, dt=5e-6), 16)
    assert plan.band[1] == math.pi / 5e-6 < 2.0 * math.pi * 10.0 / d.phys.tau
    assert 4e-7 < plan.step_gap <= 1e-6
    manifest = json.loads((tmp_path / "sym-lossless-manifest.json").read_text())
    assert manifest["plan"] == {"n_steps": 11429, "seg_len": 714, "periodograms": 31,
                                "bins": 350, "step_gap": plan.step_gap,
                                "step_gap_bound": 1e-6}


@pytest.mark.parametrize("flag, value, message", [
    ("--trajectories", "0", "n_traj"),
    ("--duration", "0", "t_dur"),
    ("--dt", "-1", "dt must be positive"),
    ("--seed", "-1", "seed"),
    ("--segments", "4", "at least 8 segments"),
    ("--duration", "1e-4", "series too short"),  # segments under 64 samples
    # segments of 142 samples, but a band from 7.9e5 rad/s
    pytest.param("--duration=8e-4", f"--dt={FINE_DT}", "too short for any comparison band",
                 id="--duration-8e-4-too short for any comparison band"),
    # streamed working sets of 64 GiB and 7.7 GiB, above the 4 GiB cap
    ("--dt", "1e-10", "GiB"),
    ("--trajectories", "100000", "GiB"),
    # 1e300 / 1e-300 steps overflow to infinity
    ("--dt=1e-300", "--duration=1e300", "not a finite number of steps"),
    ("--segments=4", "--dump-timeseries", "at least 8 segments"),
    # sizes of hundreds of digits are printed to three
    pytest.param("--duration=1e300", f"--dt={FINE_DT}",
                 "segments of 1.78e+305 steps would hold inf GiB",
                 id="--duration-1e300-segments of 1.78e+305 steps would hold inf GiB"),
    pytest.param("--duration=1e300", f"--segments={10**305}",
                 "series too short: 2.42e+305 samples", id="--duration=1e300-huge segments"),
])
def test_oracle_bad_flag_values_are_usage_errors(tmp_path, capsys, monkeypatch, flag, value,
                                                 message):
    def refuse(*args, **kwargs):
        raise AssertionError("ran a comparison that its flags rule out")

    monkeypatch.setattr(ot.cli, "_run_comparison", refuse)
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err) < 300
    assert not any(tmp_path.iterdir())


# each case breaks two checks of the run plan; the first in the order of
# timedomain._plan wins: every range check before the step bound, the segment
# count before the working set, and the working set before segments of 1 sample
@pytest.mark.parametrize("flags, code, message", [
    (["--dt", "2e-5", "--segments", "4"], 1, "need at least 8 segments"),
    (["--segments", "4", "--trajectories", "100000"], 1, "need at least 8 segments"),
    (["--trajectories", "200000", "--duration", "1e-4"], 1, "would hold 7.64 GiB"),
])
def test_oracle_refusal_order(tmp_path, capsys, flags, code, message):
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, *flags]) == code
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_oracle_unknown_scenario(tmp_path):
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, "--scenario", "nope"]) == 1


def _loaded_modules(code, package="scipy"):
    """Modules of ``package`` loaded after running ``code`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(ot.__file__))
    code += ("; import sys; print(sorted(m for m in sys.modules "
             f"if (m + '.').startswith({package + '.'!r})))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_the_test_only_scipy_subpackages():
    # scipy is a test-only dependency: the simplex, quadrature and reference
    # matrix-function cross-checks live in the test suite
    assert _loaded_modules("import optotriplet, optotriplet.cli") == "[]"


def test_cli_import_and_sweep_load_no_thread_pool(tmp_path):
    # the sweep's workers and the oracle's shards after the first are plain
    # forks, started here on a grid of two full slices and for two
    # trajectories where two CPUs are usable
    code = ("from optotriplet.cli import main; "
            f"assert main(['sweep', '--preset', 'table1', '--scenario', 'fig2-sym', "
            f"'--grid', 'log:{2 * _CSV_CHUNK_ROWS}:1:1e7', '--out', {str(tmp_path)!r}]) == 0; "
            f"assert main(['oracle', '--preset', 'table1', '--trajectories', '2', "
            f"'--out', {str(tmp_path)!r}]) == 0")
    assert _loaded_modules(code, "concurrent") == "[]"
    assert _loaded_modules(code, "multiprocessing") == "[]"


def test_oracle_run_loads_no_scipy(tmp_path):
    # the step operators and the stationary covariance are numpy-only
    code = ("from optotriplet.cli import main; "
            f"assert main(['oracle', '--preset', 'table1', '--trajectories', '2', "
            f"'--out', {str(tmp_path)!r}]) == 0")
    assert _loaded_modules(code) == "[]"
    assert (tmp_path / "sym-lossless-report.txt").exists()


@pytest.mark.parametrize("package", ["fractions", "decimal"])
def test_sweep_and_oracle_runs_load_no_fractions(tmp_path, package):
    # the exact power of the step propagator is an integer matrix power: no
    # run imports fractions, nor decimal with it
    code = ("from optotriplet.cli import main; "
            f"assert main(['sweep', '--preset', 'table1', '--scenario', 'fig2-sym', "
            f"'--out', {str(tmp_path / 'sweep')!r}]) == 0; "
            f"assert main(['oracle', '--preset', 'table1', '--trajectories', '2', "
            f"'--out', {str(tmp_path / 'oracle')!r}]) == 0")
    assert _loaded_modules(code, package) == "[]"


def test_oracle_run_leaves_numpy_ma_unloaded(tmp_path):
    # the comparison's median is a sort, not np.median, whose first call
    # imports numpy.ma
    code = ("from optotriplet.cli import main; "
            f"assert main(['oracle', '--preset', 'table1', '--trajectories', '2', "
            f"'--duration', '0.008', '--out', {str(tmp_path)!r}]) in (0, 3)")
    assert _loaded_modules(code, "numpy.ma") == "[]"
    assert (tmp_path / "sym-lossless-report.txt").exists()


def test_scenarios_touch_only_named_fields():
    base = ot.table1_preset()
    switched = {"gamma0_plus", "gamma0_minus", "gamma_e", "gamma_e_plus",
                "gamma_e_minus", "eps_plus", "eps_minus", "p_in"}
    for scen in list(ot.SWEEP_SCENARIOS.values()) + list(ot.ORACLE_SCENARIOS.values()):
        p = scen.apply(base)
        for f in dataclasses.fields(base):
            if f.name in switched:
                continue
            assert getattr(p, f.name) == getattr(base, f.name), (scen.name, f.name)
        # loss switch keeps every total half-width unchanged
        d0, d1 = ot.derive(base), ot.derive(p)
        if not scen.symmetric:
            assert d1.gamma_plus == pytest.approx(d0.gamma_plus, rel=1e-14)
            assert d1.gamma_minus == pytest.approx(d0.gamma_minus, rel=1e-14)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_atomic_write_leaves_only_the_target(tmp_path):
    from optotriplet.cli import _atomic_write

    target = tmp_path / "out.csv"
    _atomic_write(str(target), "a,b\n")
    _atomic_write(str(target), "c,d\n")
    assert target.read_text() == "c,d\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    plain = tmp_path / "plain"
    plain.write_text("")  # the mode open() gives under the current umask
    assert target.stat().st_mode == plain.stat().st_mode


def test_atomic_write_removes_temp_file_on_failure(tmp_path):
    from optotriplet.cli import _atomic_write

    (tmp_path / "taken").mkdir()  # a directory cannot be replaced by a file
    with pytest.raises(OSError):
        _atomic_write(str(tmp_path / "taken"), "x")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any((tmp_path / "taken").iterdir())

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import optotriplet as ot
from optotriplet.cli import _CSV_CHUNK_ROWS, CSV_COLUMNS, main


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    return header, rows


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
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["phys_params"]["Q"] == 1e9
    assert {s["name"] for s in manifest["scenarios"]} == {"fig2-sym", "fig2-nonsym-10P"}


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
    # the repeat of an equal scenario is a copy of more than one read block
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


def test_sweep_unknown_scenario(tmp_path, capsys):
    assert run(["sweep", "--preset", "table1", "--out", tmp_path, "--scenario", "nope"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_sweep_bad_grid(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", "--preset", "table1", "--out", out, "--grid", "log:10"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("spec", ["log:0:1:10", "log:-5:1:10", "log:10:10:1", "log:10:0:10",
                                  "linear:10:1:nan", "log:10:1:inf", "cubic:10:1:10"])
def test_sweep_bad_grid_values(tmp_path, capsys, spec):
    # well-formed specs that make_grid rejects are usage errors, found before any output
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep", "--preset", "table1", "--out", out, "--grid", spec]) == 1
    assert capsys.readouterr().err.startswith("error:")
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


def test_needs_config_or_preset(capsys):
    assert run(["regime"]) == 1
    assert "--config" in capsys.readouterr().err


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


def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2-sym", "fig4-sym-lossy-10P", "nonsym-lossy"):
        assert name in out


# report of the small oracle run below; any change in the sampled records,
# the estimator or the report format changes it
GOLDEN_ORACLE_SMALL_REPORT = """\
scenario sym-lossless (symmetric, lossless, pump x1)
trajectories 8, duration 0.008 s, dt 3.5133948177426444e-07 s, segments 8, seed 4
spectral comparison: PASS
  band                [7.853982e+04, 7.330383e+05] rad/s
  bins compared       104
  per-bin 1-sigma     12.500 %
  within 3 sigma      100.00 % (need >= 95 %)
  worst deviation     2.848 sigma
  median est/analytic 1.018975
  reduced chi-square  1.0319
"""


def test_oracle_small_run(tmp_path, capsys):
    out = tmp_path / "oracle"
    args = ["oracle", "--preset", "table1", "--scenario", "sym-lossless",
            "--out", out, "--trajectories", 8, "--duration", 0.008,
            "--segments", 8, "--seed", 4, "--dump-timeseries"]
    assert run(args) == 0
    report = (out / "sym-lossless-report.txt").read_text()
    assert "PASS" in report
    assert report == GOLDEN_ORACLE_SMALL_REPORT
    assert (out / "sym-lossless-timeseries.txt").exists()
    assert not (out / "sym-lossless-bins.csv").exists()
    manifest = json.loads((out / "sym-lossless-manifest.json").read_text())
    assert manifest["sim"]["n_traj"] == 8

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
                "--out", out, "--trajectories", 8, "--duration", 0.008,
                "--segments", 8, "--seed", 4]) == 0
    assert (out / "sym-lossless-report.txt").read_text() == GOLDEN_ORACLE_SMALL_REPORT
    assert sorted(p.name for p in out.iterdir()) == [
        "sym-lossless-manifest.json", "sym-lossless-report.txt"]


def test_failing_oracle_writes_bins(tmp_path, capsys, monkeypatch):
    sweep = ot.timedomain.analytic_records_for

    def misscaled(*args, **kwargs):
        table = sweep(*args, **kwargs)
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
    omega, est, analytic, dev = rows.T
    assert np.all(np.diff(omega) > 0.0)
    assert f"{np.max(np.abs(dev)):.3f}" == f"{worst:.3f}"
    rel_err = 1.0 / np.sqrt(2 * 8)
    assert np.allclose(dev, (est - analytic) / (rel_err * analytic), rtol=1e-12, atol=0.0)


def test_oracle_dump_refuses_huge_records(tmp_path, capsys):
    # 64 trajectories x 5.7e6 steps would take 5.4 GiB of records; only the
    # dump materialises them
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, "--duration", 2.0,
                "--dump-timeseries"]) == 2
    err = capsys.readouterr().err
    assert "GiB" in err and "run_comparison" in err
    assert not list(tmp_path.iterdir())


def test_oracle_dt_violation(tmp_path, capsys):
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, "--dt", "1.0",
                "--duration", "16.0"]) == 2
    assert "stability" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--trajectories", "0", "n_traj"),
    ("--duration", "0", "t_dur"),
    ("--dt", "-1", "dt must be positive"),
    ("--seed", "-1", "seed"),
    ("--segments", "4", "at least 8 segments"),
    ("--duration", "1e-4", "series too short"),  # segments under 64 samples
    ("--duration", "8e-4", "too short for any comparison band"),
    # streamed working sets of 108 GiB and 61 GiB, far above the 4 GiB cap
    ("--dt", "1e-10", "GiB"),
    ("--trajectories", "100000", "GiB"),
])
def test_oracle_bad_flag_values_are_usage_errors(tmp_path, capsys, monkeypatch, flag, value,
                                                 message):
    def refuse(*args, **kwargs):
        raise AssertionError("ran a comparison that its flags rule out")

    monkeypatch.setattr(ot.cli, "run_comparison", refuse)
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not any(tmp_path.iterdir())


def test_oracle_dump_checks_segments_before_simulating(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated a run that its flags rule out")

    monkeypatch.setattr(ot.cli, "simulate", refuse)
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, "--segments", "4",
                "--dump-timeseries"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


def test_oracle_unknown_scenario(tmp_path):
    assert run(["oracle", "--preset", "table1", "--out", tmp_path, "--scenario", "nope"]) == 1


def _loaded_scipy_modules(code):
    """scipy modules loaded after running ``code`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(ot.__file__))
    code += "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_the_test_only_scipy_subpackages():
    # scipy is a test-only dependency: the simplex, quadrature and reference
    # matrix-function cross-checks live in the test suite
    assert _loaded_scipy_modules("import optotriplet, optotriplet.cli") == "[]"


def test_oracle_run_loads_no_scipy(tmp_path):
    # the step operators and the stationary covariance are numpy-only
    code = ("from optotriplet.cli import main; "
            f"assert main(['oracle', '--preset', 'table1', '--trajectories', '2', "
            f"'--out', {str(tmp_path)!r}]) == 0")
    assert _loaded_scipy_modules(code) == "[]"
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

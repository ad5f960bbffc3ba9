"""Benchmark of the optotriplet command line.

    python3 bench/run.py --workload sweep-dense --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  One run measures one workload for about
``--seconds`` seconds.  Each operation is a fresh Python process
(``bench/child.py``) that imports ``optotriplet.cli`` from this checkout's
``src/`` and calls ``main(argv)`` once, because CLI users pay interpreter
set-up and first-call costs on every invocation.  Operations run one after
another, so the load is one process at a time (a closed loop with a single
client); BLAS threads are set to the number of usable CPUs.

Every operation's output is checked: sweep CSVs against the SHA-256 hashes in
``bench/reference/``, oracle reports against criterion 7's gates (exit code 0,
at least 95% of bins within 3 sigma, |median est/analytic - 1| <= 5%).

Before each operation ``bench/speedref.py`` times a fixed piece of reference
work that imports nothing from this repository.  The machine's speed drifts
by tens of percent within minutes, and the drift moves the reference and the
operations alike, so ``wall_s`` and ``setup_s`` are reported at a fixed
reference speed: the run's median time multiplied by
``REFERENCE_S / median(reference time)``.  They read as seconds on a machine
where the reference takes ``REFERENCE_S``.  The raw medians are printed too.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over the run's operations.  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics of BENCHMARK.json as medians
over the traced ones, plus the tracing overhead (traced minus untraced median
wall time).  Human-readable lines and one ``record`` line come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
SPEEDREF = os.path.join(BENCH_DIR, "speedref.py")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
sys.path.insert(0, BENCH_DIR)

from spans import summarize  # noqa: E402

MIN_OPS = 3            # operations per untraced run, whatever --seconds says
MIN_TRACED_PAIRS = 2   # untraced + traced pairs per traced run
HARD_LIMIT_S = 170.0   # a run never outlives this, children included
MAX_SECONDS = 120.0    # longest measuring time, leaving room for one more operation
REFERENCE_S = 1.0      # reference time at which wall_s and setup_s are reported
SCALED = ("wall_s", "setup_s")


def _sweep_check(child: dict) -> tuple[int, int]:
    """One operation per scenario CSV; each must match its reference hash."""
    ref = _reference_hashes("sweep-dense")
    if child["rc"] != 0:
        return len(ref), len(ref)
    got = child["outputs"]
    return len(ref), sum(1 for name, digest in ref.items() if got.get(name) != digest)


def _oracle_check(child: dict) -> tuple[int, int]:
    """One operation per oracle comparison, judged by criterion 7's gates."""
    reports = [text for name, text in child["outputs"].items() if name.endswith("-report.txt")]
    if child["rc"] != 0 or len(reports) != 1:
        return 1, 1
    frac = re.search(r"within 3 sigma\s+([0-9.]+) %", reports[0])
    median = re.search(r"median est/analytic\s+(\S+)", reports[0])
    if frac is None or median is None:
        return 1, 1
    ok = float(frac.group(1)) >= 95.0 and abs(float(median.group(1)) - 1.0) <= 0.05
    return 1, 0 if ok else 1


def _reference_hashes(workload: str) -> dict[str, str]:
    path = os.path.join(REFERENCE_DIR, f"{workload}.sha256")
    with open(path, encoding="utf-8") as fh:
        return {name: digest for digest, name in (line.split() for line in fh if line.strip())}


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]   # CLI arguments (without --out) for one oracle seed
    check: Callable[[dict], tuple[int, int]]


WORKLOADS = {
    # The analytic-sweep path: per-row SpectrumRecord building and the
    # repr-per-value CSV writer dominate; timedomain is never called.  The
    # sweep is deterministic, so the seed is not used.
    "sweep-dense": Workload(
        argv=lambda seed: ["sweep", "--preset", "table1", "--grid", "log:20000:1:1e7"],
        check=_sweep_check,
    ),
    # Long, thin Monte Carlo: 64 trajectories x ~1.64e5 steps, all five noise
    # channels active.  The per-step Python loop in simulate dominates; the
    # sweep/CSV layers see only ~410 rows.
    "oracle-long": Workload(
        argv=lambda seed: ["oracle", "--preset", "table1", "--scenario", "nonsym-lossy",
                           "--seed", str(seed)],
        check=_oracle_check,
    ),
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> tuple[dict, dict]:
    # As many BLAS threads as usable CPUs, which is what an unconfigured user
    # gets; pinning it keeps the setting fixed and never above nproc.
    nproc = str(len(os.sched_getaffinity(0)))
    blas = {k: nproc for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **blas), blas


def _run_child(env: dict, work_dir: str, mode: str, cli_args: list[str], timeout: float) -> dict:
    """Start one child, wait for it, and return its result with setup_s added."""
    result_path = os.path.join(work_dir, "result.json")
    out_dir = os.path.join(work_dir, "out")
    argv = [sys.executable, CHILD, result_path, mode]
    if mode != "warmup":
        argv += [out_dir, *cli_args, "--out", out_dir]
    try:
        started = _monotonic()
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"child exited with {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["setup_s"] = result["setup_done"] - started
    expected = os.path.join(ROOT, "src", "optotriplet", "cli.py")
    if os.path.realpath(result["cli_file"]) != os.path.realpath(expected):
        raise RuntimeError(f"child imported {result['cli_file']}, not {expected}")
    return result


def _reference_s(env: dict, work_dir: str, timeout: float) -> float:
    """Time of one speedref.py run: interpreter start to imports done, plus its kernels."""
    result_path = os.path.join(work_dir, "speedref.json")
    started = _monotonic()
    proc = subprocess.run([sys.executable, SPEEDREF, result_path], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"speed reference exited with {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result["imports_done"] - started + result["kernels_s"]


def _layer_values(child: dict) -> dict[str, float]:
    """Flat per-layer values of one traced operation."""
    values: dict[str, float] = dict(child["counts"])
    for name, agg in summarize(child["spans"]).items():
        for key, val in agg.items():
            values[f"{name}.{key}"] = val
        layer = name.split(".", 1)[0]
        values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + agg["self_s"]
    values["cli.bytes_written"] = child["bytes_written"]
    values["trace.wall_s"] = child["wall_s"]
    return values


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _spread_line(name: str, values: list[float], unit: str) -> str:
    return (f"{name:<14s} median {statistics.median(values):.6g} {unit}  "
            f"(min {min(values):.6g}, max {max(values):.6g}, n {len(values)})")


def run(spec: dict, workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload_name)
    env, blas = _child_env()
    oracle_seeds = random.Random(seed)
    t_start = _monotonic()
    plain, traced, refs, errors, seeds_used = [], [], [], [], []
    attempted = failed = 0
    work_dir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        # Untimed warm-up import: fills the bytecode and file caches once per run.
        warm = _run_child(env, work_dir, "warmup", [], HARD_LIMIT_S)
        durations = []
        while True:
            tracing = trace and len(plain) > len(traced)
            op_seed = oracle_seeds.getrandbits(32)
            remaining = HARD_LIMIT_S - (_monotonic() - t_start)
            op_start = _monotonic()
            try:
                refs.append(_reference_s(env, work_dir, remaining))
                remaining = HARD_LIMIT_S - (_monotonic() - t_start)
                child = _run_child(env, work_dir, "1" if tracing else "0",
                                   workload.argv(op_seed), remaining)
            except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
                errors.append(str(exc))
                n_ops, _ = workload.check({"rc": -1, "outputs": {}})
                attempted += n_ops
                failed += n_ops
                break
            durations.append(_monotonic() - op_start)
            if "--seed" in workload.argv(op_seed):
                seeds_used.append(op_seed)
            n_ops, n_failed = workload.check(child)
            attempted += n_ops
            failed += n_failed
            (traced if tracing else plain).append(child)
            enough = (min(len(plain), len(traced)) >= MIN_TRACED_PAIRS if trace
                      else len(plain) >= MIN_OPS)
            elapsed = _monotonic() - t_start
            if enough and elapsed + statistics.median(durations) > min(seconds, MAX_SECONDS):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    mem_gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    machine = {"nproc": len(os.sched_getaffinity(0)), **warm["versions"],
               "blas_threads": blas, "mem_total_gib": round(mem_gib, 2)}
    print(f"workload {workload_name}: {why}")
    print(f"machine: nproc {machine['nproc']}, Python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}, BLAS threads "
          + " ".join(f"{k}={v}" for k, v in blas.items()) + f", memory {mem_gib:.2f} GiB")
    print(f"seed {seed}; operations {len(plain)} untraced, {len(traced)} traced; "
          + (f"oracle seeds {seeds_used}" if seeds_used else "the sweep is deterministic"))
    for err in errors:
        print(f"error: {err}")
    fail_frac = failed / attempted if attempted else 1.0
    print(f"fail_frac      {fail_frac:.6g} ({failed} of {attempted} operations failed)")

    ok = not errors and failed == 0 and bool(plain)
    metrics = {}
    if ok:
        e2e = {key: [c[key] for c in plain] for key in ("wall_s", "setup_s", "peak_rss_mb")}
        scale = REFERENCE_S / statistics.median(refs)
        print(_spread_line("speedref_s", refs, "s"))
        print(f"{' and '.join(SCALED)} are reported at the reference speed: raw median x {scale:.6g}")
        reported = {name: statistics.median(vals) * (scale if name in SCALED else 1.0)
                    for name, vals in e2e.items()}
        for m in spec["end_to_end"]:
            print(_spread_line(m["name"], e2e[m["name"]], m["unit"])
                  + (f"; reported {reported[m['name']]:.6g}" if m["name"] in SCALED else ""))
        if trace:
            layer = [_layer_values(c) for c in traced]
            traced_wall = statistics.median(v["trace.wall_s"] for v in layer)
            medians = {m["name"]: statistics.median(v.get(m["name"], 0.0) for v in layer)
                       for m in spec["per_layer"]}
            medians["trace.overhead_s"] = traced_wall - statistics.median(e2e["wall_s"])
            absent = [name for name in medians if name != "trace.overhead_s"
                      and all(name not in v for v in layer)]
            if absent:
                print("not reached by this workload, reported as 0: " + ", ".join(absent))
            print(f"traced wall_s  median {traced_wall:.6g} s; self time by span "
                  "(share of traced wall_s):")
            selfs = summarize(traced[0]["spans"])
            for name, agg in sorted(selfs.items(), key=lambda kv: -kv[1]["self_s"])[:8]:
                share = statistics.median(v.get(f"{name}.self_s", 0.0) / v["trace.wall_s"]
                                          for v in layer)
                print(f"  {name:<34s} {100.0 * share:6.2f} %")
            metrics = {m["name"]: _metric(medians[m["name"]], m["unit"]) for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: _metric(reported[m["name"]], m["unit"])
                       for m in spec["end_to_end"]}
    record = {"workload": workload_name, "why": why, "seed": seed, "trace": trace,
              "oracle_seeds": seeds_used, "speedref_s": refs, "machine": machine,
              "attempted": attempted, "failed": failed, "fail_frac": fail_frac, "errors": errors}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring time (default: BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("BENCHMARK.json", os.path.join("src", "optotriplet", "cli.py"))
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    return run(spec, args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

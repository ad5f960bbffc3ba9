"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--out FILE] [--against FILE]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed, with its
``run_seconds`` and ``--trace 0``, one run at a time.  For each end-to-end
metric it prints the median of the per-run values and their quartile spread,
(Q3 - Q1) / median with quartiles from ``statistics.quantiles(n=4)``, next to
the metric's bound.  A spread above a third of the bound is flagged as
unsteady.

``--out`` saves the runs (each with its median speed-reference time), the
statistics and the machine note as JSON.
``--against`` compares each median with one saved earlier: a median worse
by more than the bound is flagged.  The exit code is 1 when anything is
flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(spec: str) -> list[int]:
    lo, hi = spec.split("-")
    return list(range(int(lo), int(hi) + 1))


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = next(json.loads(line[len("record "):]) for line in lines if line.startswith("record "))
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range 'LO-HI'")
    ap.add_argument("--out", help="write the runs and statistics here as JSON")
    ap.add_argument("--against", help="earlier --out file whose medians to compare with")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)
    seeds = _seeds(args.seeds)
    saved = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    flagged = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result, record = _run(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                flagged.append(f"{workload} seed {seed}: incorrect output")
            runs.append({m: v["value"] for m, v in result["metrics"].items()})
            runs[-1]["speedref_s"] = statistics.median(record["speedref_s"])
            saved.setdefault("machine", record["machine"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m} {v:.6g}" for m, v in runs[-1].items()), flush=True)
        stats = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            verdict = "steady" if spread <= bound / 3 else "UNSTEADY"
            if spread > bound / 3:
                flagged.append(f"{workload} {name}: spread {spread:.4f} > bound/3 {bound / 3:.4f}")
            line = (f"  {workload:<12s} {name:<12s} median {med:.6g} {metric['unit']}  "
                    f"spread {spread:.4f} (bound {bound}) {verdict}")
            if earlier is not None:
                old = earlier["workloads"][workload]["stats"][name]["median"]
                change = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                line += f"; {change:+.2%} vs earlier median {old:.6g} (+ is worse)"
                if change > bound:
                    flagged.append(f"{workload} {name}: median worse by {change:.4f} > {bound}")
            print(line, flush=True)
        saved["workloads"][workload] = {"runs": runs, "stats": stats}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1)
            fh.write("\n")
    for item in flagged:
        print("flagged: " + item)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

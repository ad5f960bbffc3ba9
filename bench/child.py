"""One measured CLI invocation in a fresh interpreter.

    PYTHONPATH=src python3 bench/child.py RESULT_JSON TRACE OUT_DIR CLI_ARG...
    PYTHONPATH=src python3 bench/child.py RESULT_JSON warmup

The first statement after ``import time`` imports ``optotriplet.cli``, and the
system-wide monotonic clock is read as soon as that import returns.  The
parent reads the same clock just before starting this process, so the
difference is the set-up a CLI user pays: interpreter start plus the imports
of the package, numpy and scipy.

With TRACE 1 the public functions of each layer module (and
``timedomain._step_operators``) are rebound to span-recording wrappers after
set-up has been timed.  Results, including the spans, go to RESULT_JSON when
the process ends; nothing is printed.
"""

import time

import optotriplet.cli as cli

SETUP_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from spans import SpanRecorder  # noqa: E402

# Modules under src/optotriplet/ traced as layers.  sqlimit is a closed form
# that takes microseconds and no workload calls it, so it is left unmeasured.
LAYERS = ("params", "scenarios", "spectra", "optimizer", "timedomain", "cli")
PRIVATE_TRACED = {"timedomain": ("_step_operators",)}


def _counter(*pairs):
    """on_return hook adding ``value(args, kwargs, result)`` to each named counter."""

    def hook(counts, args, kwargs, result):
        for key, value in pairs:
            counts[key] += value(args, kwargs, result)

    return hook


# Work counts taken at layer boundaries.  records_bytes is computed from the
# array sizes of the returned records, not measured.
COUNTERS = {
    "spectra.spectrum_sweep": _counter(
        ("spectra.spectrum_sweep.rows", lambda a, k, r: len(r))),
    "spectra.coeffs": _counter(
        ("spectra.coeffs.points", lambda a, k, r: r.omega.size)),
    "timedomain.simulate": _counter(
        ("timedomain.simulate.traj_steps", lambda a, k, r: r.b_plus.size),
        ("timedomain.records_bytes", lambda a, k, r: r.b_plus.nbytes + r.b_minus.nbytes)),
    "timedomain.compare": _counter(
        ("timedomain.compare.bins", lambda a, k, r: r.n_bins)),
}


def instrument(rec: SpanRecorder) -> None:
    """Rebind every traced function, wherever the package holds a reference.

    ``cli`` and ``optimizer`` bind their callees at import time, so their
    copies are rebound along with the defining module's attribute.
    """
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"optotriplet.{layer}")
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in PRIVATE_TRACED.get(layer, ())
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                name = f"{layer}.{attr.lstrip('_')}"
                wrappers[obj] = rec.wrap(name, obj, COUNTERS.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "optotriplet" or mod_name.startswith("optotriplet."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])


def _outputs(out_dir: str):
    """Total bytes the CLI wrote, SHA-256 of each CSV and text of each report."""
    total, outputs = 0, {}
    for entry in sorted(os.scandir(out_dir), key=lambda e: e.name):
        total += entry.stat().st_size
        if entry.name.endswith(".csv"):
            with open(entry.path, "rb") as fh:
                outputs[entry.name] = hashlib.sha256(fh.read()).hexdigest()
        elif entry.name.endswith("-report.txt"):
            with open(entry.path, encoding="utf-8") as fh:
                outputs[entry.name] = fh.read()
    return total, outputs


def main(argv: list[str]) -> None:
    import numpy
    import scipy

    result_path, mode = argv[0], argv[1]
    result = {
        "setup_done": SETUP_DONE,
        "cli_file": cli.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if mode != "warmup":
        out_dir, cli_args = argv[2], argv[3:]
        rec = None
        if mode == "1":
            rec = SpanRecorder()
            instrument(rec)
        start = time.perf_counter()
        rc = cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["bytes_written"], result["outputs"] = _outputs(out_dir)
        if rec is not None:
            result["spans"] = rec.spans
            result["counts"] = dict(rec.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

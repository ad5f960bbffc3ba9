"""Fixed reference work that gauges the machine's speed.

    python3 bench/speedref.py RESULT_JSON

A fresh interpreter imports numpy and the scipy modules that the CLI imports,
reads the system-wide monotonic clock, then runs three small kernels of the
kinds of work the workloads do: frozen-dataclass records formatted with
``repr`` into CSV text (the sweep), a small-matrix numpy step loop with a
random generator (the oracle), and first touch of fresh memory.  Nothing from
this repository is imported, so a change to the library cannot change this
time; it moves only with the speed of the machine.  The clock reading after
the imports and the kernels' durations go to RESULT_JSON.
"""

import time

import numpy as np
import scipy.integrate  # noqa: F401
import scipy.linalg  # noqa: F401
import scipy.optimize  # noqa: F401

IMPORTS_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402


@dataclass(frozen=True)
class _Row:
    x: float
    y: float
    z: float


def _records() -> int:
    rows = [_Row(float(v), float(v) * 0.5, float(v) + 1.0) for v in np.linspace(1.0, 2.0, 40000)]
    return len("\n".join(",".join((repr(r.x), repr(r.y), repr(r.z))) for r in rows))


def _steps() -> float:
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) * 0.1
    v = np.zeros((64, 4))
    for _ in range(12000):
        v = v @ a + rng.standard_normal((64, 4))
    return float(v.sum())


def _first_touch() -> int:
    buf = bytearray(64 << 20)
    for i in range(0, len(buf), 4096):
        buf[i] = 1
    return len(buf)


def main(result_path: str) -> None:
    start = time.perf_counter()
    _records()
    _steps()
    _first_touch()
    kernels_s = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"imports_done": IMPORTS_DONE, "kernels_s": kernels_s}, fh)


if __name__ == "__main__":
    main(sys.argv[1])

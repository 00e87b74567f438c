"""Print the median CPU time of the gate searches and the grid scan.

Times, five times each, ``sg_gate_search`` on the Hadamard target for the
Fock-pair encoding at N = 1 to 4 (8 restarts), ``cnot_search`` at N = 1
and 2 (8 restarts), and ``grid_error_floor`` on the Hadamard target at
resolution 1e-2 and N = 3, all at the default seed.  It prints the median
process CPU time of each together with the error found.  A header gives
``nproc``, the Python, NumPy, SciPy and BLAS versions and the thread
environment variables, so two runs can be compared on one machine.  Only
public API is used, so the script runs unchanged on older commits.

Run from the repository root:

    PYTHONPATH=src python3 tools/gate_times.py
"""

import os
import platform
import statistics
import time

import numpy as np
import scipy

from ssrc.encodings import (
    cnot_search,
    fock_encoding,
    grid_error_floor,
    hadamard_gate,
    sg_gate_search,
)
from ssrc.hilbert import make_basis

REPEATS = 5
RESTARTS = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas(config) -> str:
    blas = config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def _time(label: str, run) -> None:
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        error = run()
        times.append(time.process_time() - start)
    print(f"{label:34s} median {statistics.median(times):8.4f} s CPU "
          f"(min {min(times):.4f}, max {max(times):.4f}, {REPEATS} runs)"
          f"  error {error!r}", flush=True)


def main() -> None:
    print(f"nproc {os.cpu_count()}; Python {platform.python_version()}; "
          f"NumPy {np.__version__} ({_blas(np.show_config)}); "
          f"SciPy {scipy.__version__} ({_blas(scipy.show_config)})")
    print("; ".join(f"{name}={os.environ.get(name, 'unset')}"
                    for name in THREAD_VARS))
    hadamard = hadamard_gate()
    for n in (1, 2, 3, 4):
        enc = fock_encoding(make_basis(2, n))
        _time(f"sg_gate_search hadamard N={n}",
              lambda: sg_gate_search(hadamard, enc, restarts=RESTARTS).error)
    for n in (1, 2):
        enc = fock_encoding(make_basis(2, n))
        _time(f"cnot_search N={n}",
              lambda: cnot_search(enc, restarts=RESTARTS).error)
    enc = fock_encoding(make_basis(2, 3))
    _time("grid_error_floor hadamard N=3 h=1e-2",
          lambda: grid_error_floor(hadamard, enc, resolution=1e-2).error)


if __name__ == "__main__":
    main()

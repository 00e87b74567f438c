"""Print the median CPU time of the four CV-limit window kernels.

Times, five times each, the kernels that dominate the ``cv`` benchmark
workload, at that workload's largest sizes:

- ``coherent_window_fidelity(1.0, 901042, 30)``
- ``squeezed_window_fidelity(0.5, 0.3, 489285, 20)``
- ``displacement_residual(1.0, 6, 100000, 60)``
- ``commutator_residual(78753, 10)``, after one untimed call that fills
  the hop-matrix cache (the workload draws two commutator sizes per pool)

and prints the median process CPU time per kernel with its value.  A
header gives ``nproc``, the Python, NumPy, SciPy and BLAS versions and the
thread environment variables, so two runs can be compared on one machine.
Only public API is used, so the script runs unchanged on older commits.

Run from the repository root:

    PYTHONPATH=src python3 tools/cv_times.py
"""

import os
import platform
import statistics
import time

import numpy as np
import scipy

from ssrc.cvlimit import (
    coherent_window_fidelity,
    commutator_residual,
    displacement_residual,
    squeezed_window_fidelity,
)

REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KERNELS = (
    ("coherent N=901042", coherent_window_fidelity, (1.0, 901042, 30)),
    ("squeezed N=489285", squeezed_window_fidelity, (0.5, 0.3, 489285, 20)),
    ("displacement N=1e5", displacement_residual, (1.0, 6, 100000, 60)),
    ("commutator N=78753", commutator_residual, (78753, 10)),
)


def _blas(config) -> str:
    blas = config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def main() -> None:
    print(f"nproc {os.cpu_count()}; Python {platform.python_version()}; "
          f"NumPy {np.__version__} ({_blas(np.show_config)}); "
          f"SciPy {scipy.__version__} ({_blas(scipy.show_config)})")
    print("; ".join(f"{name}={os.environ.get(name, 'unset')}"
                    for name in THREAD_VARS))
    commutator_residual(*KERNELS[-1][2])
    for name, kernel, args in KERNELS:
        times = []
        for _ in range(REPEATS):
            start = time.process_time()
            value = kernel(*args)
            times.append(time.process_time() - start)
        print(f"{name:20s} median {1e3 * statistics.median(times):9.3f} ms "
              f"CPU (min {1e3 * min(times):.3f}, max {1e3 * max(times):.3f},"
              f" {REPEATS} runs)  value {value:.16e}", flush=True)


if __name__ == "__main__":
    main()

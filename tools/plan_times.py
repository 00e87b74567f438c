"""Print the median CPU time of ``plan_two_mode`` on one seeded target.

Plans ``bench_targets(make_basis(2, N), 1, 12345)`` with the default
settings (two passes, ``small_angle`` 1e-2) at N = 8, 16 and 24, five
times each, and prints the median process CPU time per N together with
the executed fidelity and the plan's total repetitions.  A header gives
``nproc``, the Python, NumPy, SciPy and BLAS versions and the thread
environment variables, so two runs can be compared on one machine.  Only
public API is used, so the script runs unchanged on older commits.

Run from the repository root:

    PYTHONPATH=src python3 tools/plan_times.py
"""

import os
import platform
import statistics
import time

import numpy as np
import scipy

from ssrc.hilbert import basis_state, make_basis
from ssrc.synthesis import bench_targets, execute_plan, plan_two_mode

N_LIST = (8, 16, 24)
REPEATS = 5
SEED = 12345
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas(config) -> str:
    blas = config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def main() -> None:
    print(f"nproc {os.cpu_count()}; Python {platform.python_version()}; "
          f"NumPy {np.__version__} ({_blas(np.show_config)}); "
          f"SciPy {scipy.__version__} ({_blas(scipy.show_config)})")
    print("; ".join(f"{name}={os.environ.get(name, 'unset')}"
                    for name in THREAD_VARS))
    for n in N_LIST:
        basis = make_basis(2, n)
        (target,) = bench_targets(basis, 1, SEED)
        times = []
        for _ in range(REPEATS):
            start = time.process_time()
            plan = plan_two_mode(target)
            times.append(time.process_time() - start)
        result = execute_plan(plan, basis_state(basis, (0, n)))
        print(f"N={n:3d}  median {statistics.median(times):8.4f} s CPU "
              f"(min {min(times):.4f}, max {max(times):.4f}, {REPEATS} runs)"
              f"  fidelity {result.fidelity:.16f}"
              f"  total_repetitions {plan.total_repetitions}", flush=True)


if __name__ == "__main__":
    main()

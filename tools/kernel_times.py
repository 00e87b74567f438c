"""Print the median CPU time of the library's kernels.

Planner: ``plan_two_mode`` with the default settings (``small_angle``
1e-2) on ``bench_targets(make_basis(2, N), 1, 12345)`` at
N = 8, 16 and 24, with the executed fidelity and the plan's total
repetitions; and, at each N, planning plus ``execute_plan`` from |0, N⟩,
the work of one ``synthesis-bench`` target.

Execution: ``execute_plan`` alone on the same plans, once cold (the first
call after the dense generator cache is emptied, so it builds every
generator; older commits without that cache rebuild them on every call)
and then warm.

Solver fallback: the targets on which the seeded restarts run, with the
LM runs summed over the plans.  ``plan_two_mode`` on the five sparse
targets of ``test_fallbacks_reach_goal`` (orthogonal to |0, N⟩, so the
zero start is skipped and the first seeded restart reaches the goal), and
``plan_multimode`` on the order-2 target at (K, N) = (3, 4), seed 6, of
``test_goal_stops_the_restarts`` (Gauss-Newton from zero and every
restart miss the goal, so the plan makes 13 LM runs).  The count wraps the private ``_ProductSolver._lm``;
the solver-kernel rows below call private names too; every other row uses
public API only.

Synth requests: two warm ``synthesis-bench`` requests (``small_angle``
1e-3, 2 passes) through ``ssrc.cli.run_experiment`` into one output
directory: N = 8 with 2 targets, the ``synth`` workload's median shape,
and N = 20 with 1 target, its largest.  Each run times ``SYNTH_BATCH``
requests; the rows give the time and the minor page faults
(``ru_minflt``) per request.

Solver kernels: ``_ProductSolver._forward`` and ``_jacobian`` per call on
the planner's cached solver at N = 8 and 20 (``synthesis._solver``), at
a seeded point of scale 0.1 from |0, N⟩ towards the planner target above.
``_forward`` writes into the point it was first given, as every LM
iteration does; on commits whose ``_forward`` takes no ``out`` each call
allocates its arrays, as their LM iterations did.  Each run times
``KERNEL_BATCH`` calls.

Gate searches: ``sg_gate_search`` on the Hadamard target for the Fock-pair
encoding at N = 1 to 4 (8 restarts) and ``cnot_search`` at N = 1 and 2
(8 restarts), with the error found, the BFGS iterations summed over the
restarts and the objective evaluations.  Each ``sg_gate_search`` time
includes the 0.1 grid scan that gives its first start.  All run at the
default seed.

Gate-floor request: one ``encoding-feasibility`` request (N = 4,
``t_hadamard``, 6 restarts; the ``gates`` workload's floor requests, at
N 1 to 6 with 4 to 8 restarts, set its median), warm and in process, through ``ssrc.cli.run_experiment`` into one output
directory; beside it the request's ``sg_gate_search`` alone (at the seed the
request gives its grid point) and the private ``_seed_scan`` alone (the
0.1 grid scan that gives the search its first start, on a manifold built
once), with the minor page faults per scan from
``resource.getrusage(RUSAGE_SELF).ru_minflt``.  Each run times
``FLOOR_BATCH`` calls and the rows give the time per call.

CV limit: the kernels of the ``cv`` benchmark workload, at that workload's
largest sizes (and the overlap also at N = 1e6), with their values:

- ``coherent_window_fidelity(1.0, 901042, 30)``
- ``squeezed_window_fidelity(0.5, 0.3, 489285, 20)``
- ``displacement_residual(1.0, 6, 100000, 60)``
- ``overlap_asymptotics(1.1+0.3j, 0.4-0.2j, N)`` at N = 99,000 (the
  ``overlap`` shape that held the workload's tail) and N = 1e6, each
  with the modulus of its ``statevector``
- ``commutator_residual(78753, 10)``, once cold (the first call in the
  process) and then warm; it takes the bands of the two quadratures in
  closed form, with no basis, no hop matrix and no SciPy, so the two rows
  differ only by first-call overhead

CV request: one ``convergence-displacement`` request of the ``cv``
workload's median shape (alpha 1, k 6, n_max 60, N = 100,000), warm and
in process, through ``ssrc.cli.run_experiment`` into one output directory
(so each request rewrites the files of the one before, as in the
benchmark) and through its experiment's ``run`` alone, with the share of
the request spent outside ``run``: formatting and writing the data file
and the ``.meta.json`` sidecar.  Each run times ``REQUEST_BATCH`` requests
and the rows give the time per request.

Validation: ``ssrc.cli.load_config`` on all ten shipped ``configs/*.ini``
in turn, in process, imports done: the median of ``VALIDATE_PASSES`` passes,
so the validation that the benchmark's ``setup_s`` includes can be
compared before and after a change.

Cold start: the CPU time of one ``python -m ssrc.cli validate`` and one
``python -m ssrc.cli run`` child process per shipped ``configs/*.ini``,
imports included, which is what a user pays per config.  Process start-up
is noisy, so each row is the median and the min-max of ten runs, taken in
ten rounds that each run every command once, in turn.

The other timed rows, the warm CV rows among them, are the median of five
runs (the cold execution and cold commutator rows are one run).  A header
gives ``nproc``, the Python, NumPy, SciPy and BLAS versions and the thread
environment variables, so two runs can be compared on one machine.
The script runs unchanged on older commits that have ``_seed_scan``
(those without ``GateSearchResult.evaluations`` print ``evaluations
n/a``).

Run from the repository root:

    PYTHONPATH=src python3 tools/kernel_times.py
"""

import inspect
import logging
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

from ssrc.cvlimit import (
    coherent_window_fidelity,
    commutator_residual,
    displacement_residual,
    overlap_asymptotics,
    squeezed_window_fidelity,
)
from ssrc.encodings import (
    _RotationManifold,
    _seed_scan,
    cnot_search,
    fock_encoding,
    hadamard_gate,
    sg_gate_search,
    t_gate,
)
from ssrc import schwinger, synthesis
from ssrc.cli import EXPERIMENTS, load_config, run_experiment
from ssrc.hilbert import State, basis_state, make_basis
from ssrc.prng import DEFAULT_SEED, SplitMix64
from ssrc.synthesis import (
    _ProductSolver,
    bench_targets,
    execute_plan,
    plan_multimode,
    plan_two_mode,
    random_support_target,
)

REPEATS = 5
COLD_ROUNDS = 10
VALIDATE_PASSES = 20
REQUEST_BATCH = 100
REQUEST_INI = """[experiment]
name = convergence-displacement
[parameters]
alpha = 1.0
k = 6
n_list = 100000
n_max = 60
"""
SYNTH_BATCH = 20
SYNTH_REQUESTS = ((8, 2), (20, 1))  # (N, targets)
SYNTH_INI = """[experiment]
name = synthesis-bench
[parameters]
n_list = {n}
targets = {targets}
small_angle = 1e-3
passes = 2
"""
KERNEL_BATCH = 100
FLOOR_BATCH = 20
FLOOR_N = 4
FLOOR_RESTARTS = 6
FLOOR_INI = f"""[experiment]
name = encoding-feasibility
[parameters]
n_list = {FLOOR_N}
target = t_hadamard
restarts = {FLOOR_RESTARTS}
"""
CONFIGS = sorted(pathlib.Path(__file__).resolve().parent.parent.glob(
    "configs/*.ini"))
RESTARTS = 8
SEED = 12345
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FALLBACK_TARGETS = (
    (5, {2: 1.0, 4: 1.0}),
    (4, {2: 1.0, 3: 2.0}),
    (5, {1: 1.0, 2: 1.0}),
    (7, {2: 1.0, 6: 1.0}),
    (8, {3: 1.0, 6: 1.0}),
)


def _overlap_modulus(alpha, beta, n):
    return abs(overlap_asymptotics(alpha, beta, n).statevector)


CV_KERNELS = (
    ("coherent N=901042", coherent_window_fidelity, (1.0, 901042, 30)),
    ("squeezed N=489285", squeezed_window_fidelity, (0.5, 0.3, 489285, 20)),
    ("displacement N=1e5", displacement_residual, (1.0, 6, 100000, 60)),
    ("overlap N=99000", _overlap_modulus, (1.1 + 0.3j, 0.4 - 0.2j, 99000)),
    ("overlap N=1e6", _overlap_modulus, (1.1 + 0.3j, 0.4 - 0.2j, 10**6)),
    ("commutator N=78753", commutator_residual, (78753, 10)),
)


def _blas(config) -> str:
    blas = config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def _time(run, repeats=REPEATS):
    """Process CPU times of ``repeats`` calls, and the last call's value."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        value = run()
        times.append(time.process_time() - start)
    return times, value


def _seconds(times) -> str:
    return (f"median {statistics.median(times):8.4f} s CPU "
            f"(min {min(times):.4f}, max {max(times):.4f}, {len(times)} runs)")


def _millis(times) -> str:
    return (f"median {1e3 * statistics.median(times):9.3f} ms CPU "
            f"(min {1e3 * min(times):.3f}, max {1e3 * max(times):.3f}, "
            f"{len(times)} runs)")


def plan_rows() -> None:
    for n in (8, 16, 24):
        basis = make_basis(2, n)
        (target,) = bench_targets(basis, 1, SEED)
        start = basis_state(basis, (0, n))
        times, plan = _time(lambda: plan_two_mode(target))
        result = execute_plan(plan, start)
        print(f"N={n:3d}  {_seconds(times)}"
              f"  fidelity {result.fidelity:.16f}"
              f"  total_repetitions {plan.total_repetitions}", flush=True)
        times, result = _time(
            lambda: execute_plan(plan_two_mode(target), start))
        print(f"N={n:3d} plan+execute  {_seconds(times)}"
              f"  fidelity {result.fidelity:.16f}", flush=True)


def execute_rows() -> None:
    hop_product = getattr(schwinger, "_hop_product", None)
    for n in (8, 16, 24):
        basis = make_basis(2, n)
        (target,) = bench_targets(basis, 1, SEED)
        start = basis_state(basis, (0, n))
        plan = plan_two_mode(target)
        if hop_product is not None:
            hop_product.cache_clear()
        cold, _ = _time(lambda: execute_plan(plan, start), repeats=1)
        warm, result = _time(lambda: execute_plan(plan, start))
        print(f"N={n:3d} execute_plan cold  {_millis(cold)}", flush=True)
        print(f"N={n:3d} execute_plan warm  {_millis(warm)}"
              f"  fidelity {result.fidelity:.16f}", flush=True)


def fallback_row() -> None:
    requests = []
    for n, amps in FALLBACK_TARGETS:
        c = np.zeros(n + 1)
        for k, value in amps.items():
            c[k] = value
        requests.append((plan_two_mode, State(make_basis(2, n), c)))
    requests.append((plan_multimode,
                     random_support_target(make_basis(3, 4), 2, 6)))
    runs = []
    lm = _ProductSolver._lm

    def counting_lm(self, *args, **kwargs):
        runs.append(1)
        return lm(self, *args, **kwargs)

    _ProductSolver._lm = counting_lm
    # The multimode plan misses its goal, with a logged warning.
    logging.disable(logging.WARNING)
    try:
        times, _ = _time(lambda: [plan(t) for plan, t in requests])
    finally:
        _ProductSolver._lm = lm
        logging.disable(logging.NOTSET)
    print(f"fallback targets x{len(requests)}  {_seconds(times)}"
          f"  LM runs {len(runs) // REPEATS}", flush=True)


def synth_rows() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for n, targets in SYNTH_REQUESTS:
            path = pathlib.Path(tmp) / f"synth-{n}.ini"
            path.write_text(SYNTH_INI.format(n=n, targets=targets),
                            encoding="utf-8")
            config = load_config(path)
            run_experiment(config, tmp)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            times, _ = _time(lambda: [run_experiment(config, tmp)
                                      for _ in range(SYNTH_BATCH)])
            faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - faults) / (REPEATS * SYNTH_BATCH)
            times = [t / SYNTH_BATCH for t in times]
            print(f"{f'synth request N={n} targets={targets}':35s} "
                  f"{_millis(times)}  minor faults {faults:.1f} per request",
                  flush=True)


def solver_rows() -> None:
    for n in (8, 20):
        basis = make_basis(2, n)
        (target,) = bench_targets(basis, 1, SEED)
        _, solver = synthesis._solver(basis, n)
        sig = 0.1 * np.random.default_rng(SEED).standard_normal(2 * solver.m)
        u = np.asarray(basis_state(basis, (0, n)).amplitudes)
        goal = np.asarray(target.amplitudes)
        point = solver._forward(sig, u, goal)
        if "out" in inspect.signature(solver._forward).parameters:
            def forward():
                return solver._forward(sig, u, goal, out=point)
        else:
            def forward():
                return solver._forward(sig, u, goal)
        runs = {"_forward": forward,
                "_jacobian": lambda: solver._jacobian(point)}
        for label, run in runs.items():
            times, _ = _time(lambda: [run() for _ in range(KERNEL_BATCH)])
            times = [s / KERNEL_BATCH for s in times]
            print(f"{f'solver N={n} {label}':35s} {_millis(times)} per call",
                  flush=True)


def _search_note(res) -> str:
    # ``evaluations`` is missing on commits older than the batched searches.
    return (f"error {res.error!r}  iterations {res.iterations}"
            f"  evaluations {getattr(res, 'evaluations', 'n/a')}")


def gate_rows() -> None:
    hadamard = hadamard_gate()
    runs = []
    for n in (1, 2, 3, 4):
        enc = fock_encoding(make_basis(2, n))
        runs.append((f"sg_gate_search hadamard N={n}",
                     lambda enc=enc: sg_gate_search(hadamard, enc,
                                                    restarts=RESTARTS)))
    for n in (1, 2):
        enc = fock_encoding(make_basis(2, n))
        runs.append((f"cnot_search N={n}",
                     lambda enc=enc: cnot_search(enc, restarts=RESTARTS)))
    for label, run in runs:
        times, result = _time(run)
        print(f"{label:46s} {_seconds(times)}  {_search_note(result)}",
              flush=True)


def floor_rows() -> None:
    target = t_gate() @ hadamard_gate()
    enc = fock_encoding(make_basis(2, FLOOR_N))
    seed = SplitMix64(DEFAULT_SEED).derive(FLOOR_N).next_u64()
    manifold = _RotationManifold(enc, target)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "floor.ini"
        path.write_text(FLOOR_INI, encoding="utf-8")
        config = load_config(path)
        runs = {
            "run_experiment": lambda: run_experiment(config, tmp),
            "sg_gate_search": lambda: sg_gate_search(
                target, enc, restarts=FLOOR_RESTARTS, seed=seed),
            "_seed_scan": lambda: _seed_scan(manifold),
        }
        for label, run in runs.items():
            run()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            times, _ = _time(lambda: [run() for _ in range(FLOOR_BATCH)])
            faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - faults) / (REPEATS * FLOOR_BATCH)
            times = [t / FLOOR_BATCH for t in times]
            note = (f"  minor faults {faults:.1f} per call"
                    if label == "_seed_scan" else "")
            print(f"{'floor N=4 t_hadamard ' + label:35s} {_millis(times)}"
                  f"{note}", flush=True)


def cv_rows() -> None:
    name, kernel, args = CV_KERNELS[-1]
    times, value = _time(lambda: kernel(*args), repeats=1)
    print(f"{name + ' cold':25s} {_millis(times)}  value {value:.16e}",
          flush=True)
    for name, kernel, args in CV_KERNELS:
        times, value = _time(lambda: kernel(*args))
        print(f"{name:25s} {_millis(times)}  value {value:.16e}", flush=True)


def request_rows() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "displacement.ini"
        path.write_text(REQUEST_INI, encoding="utf-8")
        config = load_config(path)
        spec = EXPERIMENTS[config.name]
        runs = {
            "run_experiment": lambda: run_experiment(config, tmp),
            "spec.run": lambda: spec.run(config.parameters, config.seed),
        }
        medians = {}
        for label, run in runs.items():
            run()
            times, _ = _time(lambda: [run() for _ in range(REQUEST_BATCH)])
            times = [t / REQUEST_BATCH for t in times]
            medians[label] = statistics.median(times)
            print(f"{'request displacement ' + label:35s} {_millis(times)}",
                  flush=True)
    share = 1.0 - medians["spec.run"] / medians["run_experiment"]
    print(f"request displacement emission share {100 * share:.0f}% of "
          "run_experiment", flush=True)


def validate_row() -> None:
    times, _ = _time(lambda: [load_config(path) for path in CONFIGS],
                     repeats=VALIDATE_PASSES)
    print(f"validate configs x{len(CONFIGS)}  {_millis(times)}", flush=True)


def _child_cpu(args) -> float:
    """User plus system CPU seconds of one ``python -m ssrc.cli`` child."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-m", "ssrc.cli", *args], check=True,
                   stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime
            + after.ru_stime - before.ru_stime)


def cold_rows() -> None:
    times = {}
    with tempfile.TemporaryDirectory() as out:
        commands = {
            f"{verb} {path.stem}": [verb, "--config", str(path), *extra]
            for verb, extra in (("validate", []), ("run", ["--out", out]))
            for path in CONFIGS
        }
        for _ in range(COLD_ROUNDS):
            for label, args in commands.items():
                times.setdefault(label, []).append(_child_cpu(args))
    for label, runs in times.items():
        print(f"cold {label:33s} {_seconds(runs)}", flush=True)


def main() -> None:
    print(f"nproc {os.cpu_count()}; Python {platform.python_version()}; "
          f"NumPy {np.__version__} ({_blas(np.show_config)}); "
          f"SciPy {scipy.__version__} ({_blas(scipy.show_config)})")
    print("; ".join(f"{name}={os.environ.get(name, 'unset')}"
                    for name in THREAD_VARS))
    plan_rows()
    execute_rows()
    fallback_row()
    synth_rows()
    solver_rows()
    gate_rows()
    floor_rows()
    cv_rows()
    request_rows()
    validate_row()
    cold_rows()


if __name__ == "__main__":
    main()

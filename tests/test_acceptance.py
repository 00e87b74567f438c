"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Every test evaluates all of its clauses (collecting failures instead of
stopping at the first), prints a single summary line, and only then
asserts.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they happen.
"""

import importlib.util
import json
import math
import pathlib
import time

import numpy as np

from ssrc import cvlimit, encodings, synthesis
from ssrc.cli import load_config, run_experiment
from ssrc.hilbert import (
    State,
    basis_state,
    fidelity,
    make_basis,
    random_state,
)
from ssrc.prng import DEFAULT_SEED, SplitMix64
from ssrc.schwinger import (
    j_operator,
    majorana_to_state,
    point_multiset_distance,
    rotation,
    state_to_majorana,
    su2_point_matrix,
    transform_points,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "oracles.json").read_text()
)


def _finish(num: int, label: str, budget_s: float, started: float,
            failures: list[str]) -> None:
    elapsed = time.perf_counter() - started
    if elapsed >= budget_s:
        failures.append(
            f"runtime {elapsed:.1f}s exceeded budget {budget_s:.0f}s"
        )
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " — " + "; ".join(failures)
    print(f"[criterion {num:02d}] {status} ({elapsed:5.1f}s) {label}{detail}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def test_criterion_01_su2_algebra():
    started = time.perf_counter()
    failures = []
    for n in (1, 2, 5, 20, 100):
        basis = make_basis(2, n)
        jx, jy, jz = (j_operator(basis, ax).toarray() for ax in "xyz")
        jp, jm = (j_operator(basis, ax).toarray() for ax in "+-")
        checks = {
            "[Jx,Jy]-iJz": jx @ jy - jy @ jx - 1j * jz,
            "[Jy,Jz]-iJx": jy @ jz - jz @ jy - 1j * jx,
            "[Jz,Jx]-iJy": jz @ jx - jx @ jz - 1j * jy,
            "[J+,J-]-2Jz": jp @ jm - jm @ jp - 2 * jz,
            "Casimir": jx @ jx + jy @ jy + jz @ jz
            - (n / 2) * (n / 2 + 1) * np.eye(n + 1),
        }
        for name, resid in checks.items():
            worst = float(np.max(np.abs(resid)))
            if worst > 1e-10:
                failures.append(f"N={n} {name} deviates by {worst:.2e}")
    _finish(1, "su(2) algebra suite", 10, started, failures)


def test_criterion_02_phase_locking():
    started = time.perf_counter()
    failures = []
    report = cvlimit.phase_locking_curve(0.2, [100])
    abs_diff = report.values[0]
    # The gap a - (cos x)^N, with x = theta/2 and a = e^{-N x^2/2}, equals
    # a (1 - e^{-N T(x)}), where T(x) = -ln cos x - x^2/2
    #                                 = x^4/12 + x^6/45 + R(x).
    # Lower end: -ln cos x is the integral of tan x = x + x^3/3 + 2x^5/15
    # + ..., whose coefficients are all positive, so R(x) >= 0.
    # Upper end: for 0 < t <= 1 the tail of the tan series beyond 2t^5/15
    # is at most t^7 (tan 1 - 1 - 1/3 - 2/15) < 0.091 t^7, so for
    # 0 < x <= 1 (here x = 0.1) R(x) <= 0.091 x^8/8 <= x^6/45.
    # The same positivity gives gap >= a(1 - e^{-N x^4/12})
    # = e^{-1/2}(1 - e^{-1/1200}) = 5.0523e-4 here, so no correct program
    # meets a bound of 5e-4; the bracket also rejects a gap of 0.
    x, n_tot = 0.1, 100
    a = math.exp(-n_tot * x**2 / 2.0)
    lower = -a * math.expm1(-n_tot * (x**4 / 12 + x**6 / 45))
    upper = -a * math.expm1(-n_tot * (x**4 / 12 + 2 * x**6 / 45))
    oracle = float(FIXTURES["phase_locking"]["abs_diff"])
    if not (lower <= abs_diff <= upper
            and math.isclose(abs_diff, oracle, rel_tol=1e-10)):
        failures.append(
            f"|exact - asymptote| = {abs_diff:.10e} at theta=0.2, N=100 "
            f"outside [{lower:.10e}, {upper:.10e}] or off the oracle "
            f"{oracle:.10e} by more than rel 1e-10"
        )
    # Fixed N*theta^2 = 4 family: the ratio must climb toward 1.
    gaps = []
    for n, theta in ((100, 0.2), (400, 0.1), (1600, 0.05), (6400, 0.025)):
        ratio = cvlimit.phase_locking_curve(theta, [n]).extras["ratio"][0]
        gaps.append(abs(1.0 - ratio))
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        failures.append(f"|1 - ratio| not decreasing: {gaps}")
    if gaps[-1] > 1e-3:
        failures.append(f"final |1 - ratio| = {gaps[-1]:.2e} not near 1")
    _finish(2, "phase locking asymptote", 1, started, failures)


def test_criterion_03_coherent_limit():
    started = time.perf_counter()
    failures = []
    for n in (100, 1000, 10_000):
        fid = cvlimit.coherent_window_fidelity(1.0, n, 30)
        if not fid > 1.0 - 5.0 / n:
            failures.append(f"N={n}: fidelity {fid:.8f} <= 1 - 5/N")
    report = cvlimit.coherent_convergence(
        1.0, [100, 316, 1000, 3162, 10_000], 30
    )
    if not report.rate >= 0.9:
        failures.append(f"fitted rate {report.rate:.3f} < 0.9")
    if not report.r_squared >= 0.98:
        failures.append(f"fit R^2 {report.r_squared:.4f} < 0.98")
    _finish(3, "coherent-state limit", 30, started, failures)


def test_criterion_04_displacement():
    started = time.perf_counter()
    failures = []
    fix = FIXTURES["displacement"]
    residuals = {}
    for row in fix["grid"]:
        n = row["n"]
        got = cvlimit.displacement_residual(1.0, 2, n, 40)
        residuals[n] = got
        want = float(row["residual"])
        rel = abs(got - want) / want
        if rel > 1e-8:
            failures.append(
                f"N={n}: residual {got:.12e} vs fixture {want:.12e} "
                f"(rel {rel:.2e})"
            )
    ordered = [residuals[n] for n in (1000, 10_000, 100_000)]
    if not (ordered[0] > ordered[1] > ordered[2]):
        failures.append(f"residuals not monotone decreasing: {ordered}")
    _finish(4, "displacement comparison", 60, started, failures)


def test_criterion_05_squeezed_limit():
    started = time.perf_counter()
    failures = []
    for r, phi, n_pairs in ((0.5, 0.0, 50), (1.0, 0.7, 20)):
        amps = np.asarray(
            cvlimit.squeezed_from_rotation(r, phi, n_pairs).amplitudes
        )
        if not np.all(amps[1::2] == 0):
            failures.append(
                f"odd occupations not exactly zero at r={r}, N={n_pairs}"
            )
    fid = cvlimit.squeezed_window_fidelity(0.5, 0.0, 500, 20)
    want = float(FIXTURES["squeezed"]["fidelity"])
    if abs(fid - want) / want > 1e-8:
        failures.append(f"fidelity {fid:.12f} vs fixture {want:.12f}")
    if not fid > 0.999:
        failures.append(f"fidelity {fid:.6f} <= 0.999")
    for row in FIXTURES["squeezed"]["log_norm_grid"]:
        if row["n_pairs"] > 200:
            continue
        got = cvlimit.squeezed_log_norm_closed_form(
            row["r"], row["n_pairs"]
        )
        want = float(row["log_norm"])
        if abs(got - want) > 1e-8 * max(1.0, abs(want)):
            failures.append(
                f"log A at r={row['r']}, N={row['n_pairs']}: "
                f"{got!r} vs {want!r}"
            )
    _finish(5, "squeezed-state limit", 30, started, failures)


def test_criterion_06_quadratures():
    started = time.perf_counter()
    failures = []
    for n in (1, 2, 5, 20, 100):
        basis = make_basis(2, n)
        q0 = cvlimit.quadrature_operator(basis, 0.0).toarray()
        jx = j_operator(basis, "x").toarray()
        worst = float(np.max(np.abs(q0 - math.sqrt(2.0 / n) * jx)))
        if worst > 1e-12:
            failures.append(f"N={n}: Q(N,0) deviates from sqrt(2/N)Jx "
                            f"by {worst:.2e}")
    for n, n_max in ((100, 10), (1000, 10), (10_000, 25)):
        got = cvlimit.commutator_residual(n, n_max)
        if abs(got - 2.0 * n_max / n) > 1e-12:
            failures.append(
                f"commutator residual at (N={n}, n_max={n_max}) is "
                f"{got!r}, expected {2.0 * n_max / n!r}"
            )
    for n in (10, 100):
        rec = cvlimit.uncertainty_check(
            basis_state(make_basis(2, n), (0, n))
        )
        gap = abs(rec.delta_jx * rec.delta_jy - rec.half_abs_jz)
        if gap > 1e-10:
            failures.append(f"N={n}: uncertainty gap {gap:.2e} on |N>_b")
        if not rec.satisfied:
            failures.append(f"N={n}: uncertainty record not satisfied")
    _finish(6, "quadrature emergence", 10, started, failures)


def test_criterion_07_synthesis():
    started = time.perf_counter()
    failures = []
    for n in (2, 4, 8):
        basis = make_basis(2, n)
        start = basis_state(basis, (0, n))
        targets = synthesis.bench_targets(
            basis, 10, SplitMix64(DEFAULT_SEED).derive(n).next_u64()
        )
        for idx, target in enumerate(targets):
            plan = synthesis.plan_two_mode(
                target, small_angle=1e-3
            )
            got = synthesis.execute_plan(plan, start).fidelity
            if not got >= 0.99:
                failures.append(
                    f"N={n} target {idx}: fidelity {got:.6f} < 0.99"
                )
    # Decade sweep: fidelity may not improve as the step bound loosens.
    basis = make_basis(2, 4)
    start = basis_state(basis, (0, 4))
    target = random_state(basis, SplitMix64(DEFAULT_SEED).derive(77))
    sweep = []
    for small_angle in (1e-3, 2e-3, 5e-3, 1e-2):
        plan = synthesis.plan_two_mode(
            target, small_angle=small_angle
        )
        sweep.append(synthesis.execute_plan(plan, start).fidelity)
    # 1e-9 slack admits exact ties under floating-point noise.
    if not all(b <= a + 1e-9 for a, b in zip(sweep, sweep[1:])):
        failures.append(f"fidelity increased along small_angle sweep: {sweep}")
    # Empty plan: the reference target needs no steps and is exact.
    ref_plan = synthesis.plan_two_mode(basis_state(basis, (0, 4)))
    if ref_plan.steps != ():
        failures.append("reference target produced a non-empty plan")
    elif synthesis.execute_plan(ref_plan, start).fidelity != 1.0:
        failures.append("empty plan is not exactly the identity")
    mm_basis = make_basis(3, 3)
    mm_start = basis_state(mm_basis, (0, 0, 3))
    for idx in range(3):
        target = synthesis.random_support_target(
            mm_basis, max_order=2,
            seed=SplitMix64(DEFAULT_SEED).derive(300 + idx).next_u64(),
        )
        plan = synthesis.plan_multimode(target, small_angle=1e-3)
        got = synthesis.execute_plan(plan, mm_start).fidelity
        if not got >= 0.98:
            failures.append(
                f"multimode target {idx}: fidelity {got:.6f} < 0.98"
            )
    _finish(7, "state synthesis", 300, started, failures)


def test_criterion_08_no_go_certification():
    started = time.perf_counter()
    failures = []
    dual_rail = encodings.fock_encoding(make_basis(2, 1))
    rng = SplitMix64(DEFAULT_SEED).derive(0x808)
    for idx in range(20):
        target = (
            encodings.r_z(2 * math.pi * rng.uniform())
            @ encodings.r_y(math.pi * rng.uniform())
            @ encodings.r_z(2 * math.pi * rng.uniform())
        )
        res = encodings.sg_gate_search(
            target, dual_rail, restarts=2,
            seed=SplitMix64(DEFAULT_SEED).derive(900 + idx).next_u64(),
        )
        if not res.error <= 1e-6:
            failures.append(
                f"dual-rail rotation {idx}: error {res.error:.2e} > 1e-6"
            )
    hadamard = encodings.hadamard_gate()
    for n in (2, 3, 4):
        enc = encodings.fock_encoding(make_basis(2, n))
        floor = encodings.fock_pair_floor(hadamard, n)
        want = FIXTURES["gate_floors"]["hadamard"][str(n)]
        if not floor > 0.05:
            failures.append(f"N={n}: proven Hadamard floor {floor:.4f} <= 0.05")
        if abs(floor - want) > 1e-12:
            failures.append(
                f"N={n}: proven floor {floor!r} departs from the mpmath "
                f"fixture {want!r} by more than 1e-12"
            )
        search = encodings.sg_gate_search(
            hadamard, enc, restarts=8,
            seed=SplitMix64(DEFAULT_SEED).derive(n).next_u64(),
        )
        # 1e-14 is a rounding allowance: searches land a few ulps below
        # the exact floor.
        if search.error < floor - 1e-14:
            failures.append(
                f"N={n}: search error {search.error!r} beats the proven "
                f"floor {floor!r} by more than 1e-14"
            )
    # The CNOT number is a search result (an upper bound on the mesh
    # minimum), not a certificate; its fixture is the search's own output.
    cnot = encodings.cnot_search(dual_rail, restarts=16, seed=DEFAULT_SEED)
    if not cnot.error > 0.05:
        failures.append(f"CNOT N=1 search error {cnot.error:.6f} <= 0.05")
    want = FIXTURES["gate_floors"]["cnot"]["1"]
    if abs(cnot.error - want) > 1e-6:
        failures.append(
            f"CNOT N=1 search error {cnot.error!r} departs from the recorded "
            f"search result {want!r}"
        )
    _finish(8, "Gaussian-only no-go certification", 600, started, failures)


def test_criterion_09_determinism(tmp_path):
    started = time.perf_counter()
    failures = []
    configs = sorted((ROOT / "configs").glob("*.ini"))
    if len(configs) != 10:
        failures.append(f"expected 10 shipped configs, found {len(configs)}")
    for cfg_path in configs:
        config = load_config(cfg_path)
        out_a = run_experiment(config, tmp_path / "a" / cfg_path.stem)
        out_b = run_experiment(config, tmp_path / "b" / cfg_path.stem)
        if out_a[0].read_bytes() != out_b[0].read_bytes():
            failures.append(f"{cfg_path.name}: data files differ across runs")
    _finish(9, "byte-identical determinism", 120, started, failures)


def test_shipped_data_digests_are_pinned(tmp_path):
    """The ten shipped configs write the data files pinned in
    ``fixtures/digests.txt``, byte for byte."""
    spec = importlib.util.spec_from_file_location(
        "digests", ROOT / "tools" / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    want = (ROOT / "tests" / "fixtures" / "digests.txt").read_text()
    assert list(digests.digest_lines(tmp_path)) == want.splitlines()


def test_criterion_10_majorana_round_trip():
    started = time.perf_counter()
    failures = []
    for n in (2, 4, 8, 16):
        basis = make_basis(2, n)
        stream = SplitMix64(DEFAULT_SEED).derive(n)
        for idx in range(50):
            state = random_state(basis, stream.derive(idx))
            back = majorana_to_state(state_to_majorana(state), basis)
            got = fidelity(state, back)
            if not got >= 1 - 1e-8:
                failures.append(
                    f"N={n} seed {idx}: round-trip fidelity {got:.12f}"
                )
        for idx in range(3):
            state = random_state(basis, stream.derive(1000 + idx))
            angles = SplitMix64(DEFAULT_SEED).derive(2000 + 10 * n + idx)
            theta = math.pi * angles.uniform()
            phi = 2 * math.pi * angles.uniform()
            rotated = State(basis, rotation(basis, theta, phi)
                            @ state.amplitudes, check_drift=True)
            direct = state_to_majorana(rotated).points
            pushed = transform_points(
                state_to_majorana(state).points,
                su2_point_matrix(theta, phi),
            )
            dist = point_multiset_distance(direct, pushed)
            if dist > 1e-6:
                failures.append(
                    f"N={n} rotation {idx}: point multiset moved by "
                    f"{dist:.2e} under rotation covariance check"
                )
    _finish(10, "Majorana round-trip", 30, started, failures)

import hashlib
import json
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from ssrc.hilbert import (
    BasisMismatchError,
    State,
    basis_state,
    fidelity,
    make_basis,
    random_state,
)
from ssrc import synthesis
from ssrc.prng import SplitMix64
from ssrc.schwinger import _hop_csr, _hop_product
from ssrc.synthesis import (
    SynthesisPlan,
    TargetOrderError,
    bench_targets,
    execute_plan,
    plan_multimode,
    plan_two_mode,
    random_support_target,
    synthesis_complexity_probe,
    _ProductSolver,
)


class TestFirstPass:
    """The planner's one solved sweep, from the reference state."""

    def test_small_angle_controls_repetitions(self):
        basis = make_basis(2, 3)
        target = random_state(basis, 11)
        loose = plan_two_mode(target, small_angle=1e-1)
        tight = plan_two_mode(target, small_angle=1e-3)
        assert tight.total_repetitions > loose.total_repetitions
        for plan, bound in ((loose, 1e-1), (tight, 1e-3)):
            for step in plan.steps:
                assert abs(step.amplitude) <= bound + 1e-15

    def test_single_photon_plan_is_exact(self):
        basis = make_basis(2, 1)
        for seed in range(5):
            target = random_state(basis, seed)
            plan = plan_two_mode(target, small_angle=1e-2)
            assert len(plan.steps) == 1
            result = execute_plan(plan, basis_state(basis, (0, 1)))
            assert result.fidelity > 1 - 1e-12


class TestLeadingCoefficient:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_vanishing_leading_coefficient_reaches_goal(self, n):
        # |N, 0⟩ is orthogonal to the reference state |0, N⟩, where zero
        # amplitudes are a stationary point of the fidelity.
        basis = make_basis(2, n)
        plan = plan_two_mode(basis_state(basis, (n, 0)))
        result = execute_plan(plan, basis_state(basis, (0, n)))
        assert result.fidelity >= synthesis.SOLVE_GOAL

    def test_tiny_leading_coefficient_reaches_goal(self):
        basis = make_basis(2, 5)
        (target,) = bench_targets(basis, 1, 12345)
        amps = np.array(target.amplitudes)
        amps[0] = 1e-8
        plan = plan_two_mode(State(basis, amps))
        result = execute_plan(plan, basis_state(basis, (0, 5)))
        assert result.fidelity >= synthesis.SOLVE_GOAL


class TestTwoPass:
    @pytest.mark.parametrize("n", [2, 4])
    def test_seeded_targets_reach_goal(self, n):
        basis = make_basis(2, n)
        for target in bench_targets(basis, 3, seed=123):
            plan = plan_two_mode(target, small_angle=1e-3)
            result = execute_plan(plan, basis_state(basis, (0, n)))
            assert result.fidelity >= 0.99

    def test_touchup_steps_respect_small_angle(self):
        basis = make_basis(2, 4)
        target = random_state(basis, 5)
        plan = plan_two_mode(target, small_angle=1e-3)
        assert len(plan.steps) == 2 * 4 + 1
        for step in plan.steps:
            assert abs(step.amplitude) <= 1e-3 + 1e-15

    def test_fidelity_independent_of_small_angle(self):
        # Splitting a net amplitude into repetitions is exact, so the
        # executed state cannot depend on the split granularity.
        basis = make_basis(2, 4)
        target = random_state(basis, 17)
        fids = []
        for small_angle in (1e-2, 1e-3):
            plan = plan_two_mode(target, small_angle=small_angle)
            result = execute_plan(plan, basis_state(basis, (0, 4)))
            fids.append(result.fidelity)
        assert abs(fids[0] - fids[1]) < 1e-10

    @pytest.mark.parametrize(
        "small_angle", [-1e-3, 0.0, float("nan"), float("inf")])
    def test_small_angle_validated(self, small_angle):
        two_mode = random_state(make_basis(2, 4), 5)
        multimode = random_support_target(make_basis(3, 3), 2, 7)
        for plan, target in ((plan_two_mode, two_mode),
                             (plan_multimode, multimode)):
            with pytest.raises(ValueError, match="small_angle"):
                plan(target, small_angle=small_angle)

    @pytest.mark.parametrize("goal", [2.0, 0.0, -0.5, float("nan")])
    def test_fidelity_goal_checked_before_planning(self, goal, monkeypatch):
        # A goal above 1 once ran every restart and then warned that
        # fidelity 1.0 missed it; NaN ran every restart with no warning.
        monkeypatch.setattr(synthesis, "_solver", None)
        for plan, target in (
            (plan_two_mode, random_state(make_basis(2, 1), 5)),
            (plan_two_mode, random_state(make_basis(2, 4), 5)),
            (plan_multimode, random_support_target(make_basis(3, 3), 2, 7)),
        ):
            with pytest.raises(ValueError,
                               match=r"fidelity_goal must lie in \(0, 1\]"):
                plan(target, fidelity_goal=goal)

    @pytest.mark.parametrize("max_order", [0, -1])
    def test_max_order_checked_before_planning(self, max_order, monkeypatch):
        # max_order = -1 was reported as support beyond the order.
        monkeypatch.setattr(synthesis, "_solver", None)
        target = random_support_target(make_basis(3, 3), 2, 7)
        with pytest.raises(ValueError, match="max_order must be >= 1") as info:
            plan_multimode(target, max_order=max_order)
        assert not isinstance(info.value, TargetOrderError)

    @pytest.mark.parametrize("call, message", [
        # Each call below once planned: the first two returned a result,
        # the third failed converting NaN to an integer, and the fourth
        # ran every restart on an unreachable goal.
        pytest.param(lambda: plan_two_mode(random_state(make_basis(2, 3), 1),
                                           small_angle=2.0),
                     r"small_angle must lie in \(0, 1\], got 2.0",
                     id="small-angle"),
        pytest.param(lambda: synthesis_complexity_probe([2, 2], 0.99),
                     "N grid must be strictly increasing", id="grid"),
        pytest.param(lambda: synthesis_complexity_probe([2, 4], 0.99,
                                                        targets_per_n=0),
                     "targets_per_n must be >= 1", id="targets-per-n"),
        pytest.param(lambda: synthesis_complexity_probe([2, 4], 1.5),
                     r"fidelity_target must lie in \(0, 1\]",
                     id="fidelity-target"),
        pytest.param(lambda: synthesis_complexity_probe([0, 2], 0.99),
                     "N=0 must be >= 1", id="n-positive"),
        pytest.param(lambda: synthesis_complexity_probe([2, 40], 0.99),
                     "N=40 exceeds the probe's limit 32", id="n-limit"),
    ])
    def test_arguments_checked_before_planning(self, monkeypatch, call,
                                               message):
        monkeypatch.setattr(synthesis, "plan_multimode", None)
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "small_angle", [-5, -1e-3, 0.0, 1.5, float("nan"), float("inf")])
    def test_small_angle_validated_without_steps(self, small_angle):
        # These plans have no step, and a plan read back from JSON is
        # never planned, so only the plan itself can check small_angle.
        message = r"small_angle must lie in \(0, 1\]"
        for plan, target in (
            (plan_two_mode, basis_state(make_basis(2, 0), (0, 0))),
            (plan_two_mode, basis_state(make_basis(2, 1), (0, 1))),
            (plan_multimode, basis_state(make_basis(3, 0), (0, 0, 0))),
        ):
            with pytest.raises(ValueError, match=message):
                plan(target, small_angle=small_angle)
        text = plan_two_mode(random_state(make_basis(2, 3), 9)).to_json()
        data = json.loads(text)
        data["small_angle"] = small_angle
        with pytest.raises(ValueError, match=message):
            SynthesisPlan.from_json(json.dumps(data))


class TestEmptyPlan:
    def test_reference_target_yields_empty_plan(self):
        basis = make_basis(2, 5)
        target = basis_state(basis, (0, 5))
        plan = plan_two_mode(target, small_angle=1e-3)
        assert plan.steps == ()
        result = execute_plan(plan, basis_state(basis, (0, 5)))
        assert result.fidelity == 1.0

    def test_zero_photon_basis(self):
        basis = make_basis(2, 0)
        target = basis_state(basis, (0, 0))
        plan = plan_two_mode(target)
        assert plan.steps == ()

    def test_basis_mismatch(self):
        plan = plan_two_mode(basis_state(make_basis(2, 2), (0, 2)))
        with pytest.raises(BasisMismatchError):
            execute_plan(plan, basis_state(make_basis(2, 3), (0, 3)))


# Sparse targets orthogonal to the reference state: the solver skips the
# start from zero, and the first seeded restart reaches the goal.
FALLBACK_TARGETS = [
    (5, {2: 1.0, 4: 1.0}),
    (4, {2: 1.0, 3: 2.0}),
    (5, {1: 1.0, 2: 1.0}),
    (7, {2: 1.0, 6: 1.0}),
    (8, {3: 1.0, 6: 1.0}),
]


def _restart_target():
    """An order-2 target at (K, N) = (3, 4): LM from zero misses the goal,
    and so does every seeded restart."""
    return random_support_target(make_basis(3, 4), 2, 6)


def _sparse_target(n, amps):
    """Two-mode target on N photons with amplitude ``amps[k]`` on |k, N-k⟩."""
    c = np.zeros(n + 1)
    for k, value in amps.items():
        c[k] = value
    return State(make_basis(2, n), c)


def _sweep_solver(n):
    """The planner's sweep generators on two modes and N photons."""
    jp = _hop_csr(make_basis(2, n), 0, 1).toarray()
    orders = [len(pairs) for pairs in synthesis._sweep(make_basis(2, n), n)]
    gens = [np.linalg.matrix_power(jp, k) for k in orders]
    return gens, _ProductSolver(gens, range(n + 1), orders)


def _frechet_resid_jac(gens, sig, u, t):
    """Residual, Jacobian and product vector from scipy's expm_frechet."""
    d = len(u)
    units, derivs = [], []
    for rho, p in zip(sig[0::2] + 1j * sig[1::2], gens):
        a = rho * p - np.conj(rho) * p.conj().T
        unit, d_re = expm_frechet(a, p - p.conj().T)
        _, d_im = expm_frechet(a, 1j * (p + p.conj().T))
        units.append(unit)
        derivs.append((d_re, d_im))
    pre = [u]
    for unit in units:
        pre.append(unit @ pre[-1])
    proj = np.eye(d) - np.outer(t, t.conj())
    cols = []
    for i, pair in enumerate(derivs):
        after = proj
        for unit in units[i + 1:][::-1]:
            after = after @ unit
        cols.extend(after @ (deriv @ pre[i]) for deriv in pair)
    jac = np.array(cols).T
    r = proj @ pre[-1]
    return (
        np.concatenate([r.real, r.imag]),
        np.concatenate([jac.real, jac.imag]),
        pre[-1],
    )


def _resid_jac(solver, sig, u, t):
    """Residual, Jacobian and product vector of the solver at ``sig``."""
    point = solver._forward(sig, u, t)
    return point.r, solver._jacobian(point), point.v


def _eager_lm(solver, sig0, u, t, tol=1e-13, maxit=200):
    """Levenberg-Marquardt that builds a Jacobian at every trial point."""
    sig = sig0.copy()
    lam = 1e-3
    r, jac, v = _resid_jac(solver, sig, u, t)
    cost = r @ r
    for _ in range(maxit):
        a = jac.T @ jac
        g = jac.T @ r
        improved = False
        for _ in range(50):
            try:
                step = np.linalg.solve(
                    a + lam * np.diag(np.maximum(np.diag(a), 1e-12)), -g
                )
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            r2, jac2, v2 = _resid_jac(solver, sig + step, u, t)
            if r2 @ r2 < cost:
                sig, r, jac, v = sig + step, r2, jac2, v2
                cost = r2 @ r2
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10
            if lam > 1e12:
                return sig, cost, v
        if not improved or cost < tol * tol:
            break
    return sig, cost, v


class TestProductSolver:
    @pytest.mark.parametrize("n, amps", [
        (4, None),
        (8, None),
        (4, {2: 1.0, 3: 2.0}),  # reached by the first restart
    ])
    def test_lm_matches_eager_jacobian_reference(self, n, amps, monkeypatch):
        # Replay every LM solve the planner makes (from zero and from the
        # perturbed restarts) through a reference that forms the Jacobian
        # at every trial point.
        calls, seeds = [], []
        lm = _ProductSolver._lm

        def recording_lm(self, sig0, u, t, **kwargs):
            out = lm(self, sig0, u, t, **kwargs)
            calls.append((self, sig0.copy(), u, t, out))
            return out

        class RecordingRng(SplitMix64):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        basis = make_basis(2, n)
        if amps is None:
            (target,) = bench_targets(basis, 1, 12345 + n)
        else:
            target = _sparse_target(n, amps)
        monkeypatch.setattr(_ProductSolver, "_lm", recording_lm)
        monkeypatch.setattr(synthesis, "SplitMix64", RecordingRng)
        plan_two_mode(target, small_angle=1e-2)
        assert calls
        assert any(seed >= 7000 for seed in seeds) == (amps is not None)
        for solver, sig0, u, t, (sig, cost, v) in calls:
            ref_sig, ref_cost, ref_v = _eager_lm(solver, sig0, u, t)
            assert sig.tobytes() == ref_sig.tobytes()
            assert cost == ref_cost
            assert v.tobytes() == ref_v.tobytes()

    def test_second_plan_takes_no_eigendecomposition(self, monkeypatch):
        # The sweep's solver is cached per (basis, max_order): only the
        # first plan diagonalises the generators.
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(0)
            return eigh(*args, **kwargs)

        first, second = bench_targets(make_basis(2, 6), 2, 31)
        synthesis._solver.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting)
        plan_two_mode(first)
        assert len(calls) == 1
        plan_multimode(second, max_order=6)
        assert len(calls) == 1

    def test_cached_solver_is_read_only(self):
        pairs_list, solver = synthesis._solver(make_basis(3, 3), 2)
        assert pairs_list == tuple(synthesis._sweep(make_basis(3, 3), 2))
        arrays = [value for value in vars(solver).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 7
        assert not any(a.flags.writeable for a in arrays)

    def test_workspace_keeps_no_state_between_runs(self):
        # Each LM run reuses one workspace across its iterations; a plan
        # must not depend on what ran before it, on the same solver or at
        # the same time in another thread.  Target A skips the zero start
        # and is solved from a seeded restart, B from zero.
        a = _sparse_target(5, {2: 1.0, 4: 1.0})
        (b,) = bench_targets(make_basis(2, 5), 1, 12345)
        synthesis._solver.cache_clear()
        first_a = plan_two_mode(a).to_json()
        first_b = plan_two_mode(b).to_json()
        assert plan_two_mode(a).to_json() == first_a
        synthesis._solver.cache_clear()
        assert plan_two_mode(b).to_json() == first_b
        assert plan_two_mode(a).to_json() == first_a
        barrier = threading.Barrier(2)

        def plan_all(targets):
            barrier.wait(timeout=60)
            return [plan_two_mode(target).to_json() for target in targets]

        with ThreadPoolExecutor(2) as pool:
            runs = list(pool.map(plan_all, ([a, b, a], [b, a, b])))
        assert runs == [[first_a, first_b, first_a],
                        [first_b, first_a, first_b]]
        _, solver = synthesis._solver(make_basis(2, 5), 5)
        arrays = [value for value in vars(solver).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 7
        assert not any(array.flags.writeable for array in arrays)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_resid_jac_matches_frechet_and_differences(self, n):
        gens, solver = _sweep_solver(n)
        rng = np.random.default_rng(n)
        sig = rng.normal(size=2 * solver.m)
        sig[::3] = 0.0
        sig[1:4] = 0.0  # the first two steps have amplitude exactly 0
        u, t = (random_state(make_basis(2, n), seed).amplitudes
                for seed in (n, n + 100))
        u, t = np.asarray(u), np.asarray(t)
        r, jac, v = _resid_jac(solver, sig, u, t)
        unit_gens = [g / c for g, c in zip(gens, solver.scale)]
        r_ref, jac_ref, v_ref = _frechet_resid_jac(unit_gens, sig, u, t)
        scale = np.abs(jac_ref).max()
        assert np.abs(jac - jac_ref).max() <= 1e-12 * scale
        assert np.abs(r - r_ref).max() <= 1e-12
        assert np.abs(v - v_ref).max() <= 1e-12
        # Seven-point central differences (error O(h^6)) of the projected
        # product.
        proj = np.eye(len(u)) - np.outer(t, t.conj())
        h = 5e-3
        weights = {-3: -1, -2: 9, -1: -45, 1: 45, 2: -9, 3: 1}
        diff = np.empty_like(jac)
        for j in range(len(sig)):
            e = np.zeros_like(sig)
            e[j] = h
            col = sum(
                c * (proj @ solver._forward(sig + k * e, u, t).v)
                for k, c in weights.items()
            ) / (60 * h)
            diff[:, j] = np.concatenate([col.real, col.imag])
        assert np.abs(jac - diff).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_zero_amplitudes_leave_u_exactly(self, n):
        _, solver = _sweep_solver(n)
        u = np.asarray(random_state(make_basis(2, n), n).amplitudes)
        sig = np.zeros(2 * solver.m)
        assert np.array_equal(solver._forward(sig, u, u).v, u)

    @pytest.mark.parametrize("n, amps", FALLBACK_TARGETS)
    def test_fallbacks_reach_goal(self, n, amps, monkeypatch):
        lm_fidelities, seeds = [], []
        lm = _ProductSolver._lm

        def recording_lm(self, sig0, u, t, **kwargs):
            out = lm(self, sig0, u, t, **kwargs)
            lm_fidelities.append(abs(np.vdot(out[2], t)) ** 2)
            return out

        class RecordingRng(SplitMix64):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(_ProductSolver, "_lm", recording_lm)
        monkeypatch.setattr(synthesis, "SplitMix64", RecordingRng)
        plan = plan_two_mode(_sparse_target(n, amps), small_angle=1e-2)
        result = execute_plan(plan, basis_state(make_basis(2, n), (0, n)))
        # The zero start is skipped, and the first restart reaches the
        # goal.
        assert seeds == [7000]
        assert len(lm_fidelities) == 1
        assert lm_fidelities[0] >= synthesis.SOLVE_GOAL
        assert result.fidelity >= 1 - 1e-10

    def test_solve_stops_after_the_restarts(self, monkeypatch, caplog):
        # No start reaches the goal on this target, so its one solve runs
        # LM from zero and from each seeded restart, and no more; the plan
        # is still returned, with a warning.
        solves, seeds = [], []
        lm = _ProductSolver._lm
        solve = _ProductSolver.solve

        def recording_solve(self, u, t, goal):
            solves.append(0)
            return solve(self, u, t, goal)

        def recording_lm(self, sig0, u, t):
            solves[-1] += 1
            return lm(self, sig0, u, t)

        class RecordingRng(SplitMix64):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        target = _restart_target()
        basis = target.basis
        monkeypatch.setattr(_ProductSolver, "solve", recording_solve)
        monkeypatch.setattr(_ProductSolver, "_lm", recording_lm)
        monkeypatch.setattr(synthesis, "SplitMix64", RecordingRng)
        with caplog.at_level("WARNING", logger="ssrc.synthesis"):
            plan = plan_multimode(target)
        result = execute_plan(plan, basis_state(basis, (0, 0, 4)))
        assert result.fidelity < synthesis.SOLVE_GOAL
        assert seeds == list(range(7000, 7000 + synthesis.RESTARTS))
        assert solves == [1 + synthesis.RESTARTS] == [13]
        (record,) = caplog.records
        assert record.levelname == "WARNING"
        assert "misses the goal" in record.getMessage()

    def test_goal_stops_the_restarts(self, monkeypatch):
        # LM from zero reaches fidelity 0.9995 on this target: a goal of
        # 0.999 ends the solve there, and the default goal runs every
        # restart.
        nonzero_starts = []
        lm = _ProductSolver._lm

        def recording_lm(self, sig0, u, t):
            nonzero_starts.append(bool(sig0.any()))
            return lm(self, sig0, u, t)

        monkeypatch.setattr(_ProductSolver, "_lm", recording_lm)
        target = _restart_target()
        for goal, starts in ((0.999, [False]),
                             (synthesis.SOLVE_GOAL,
                              [False] + [True] * synthesis.RESTARTS)):
            del nonzero_starts[:]
            plan_multimode(target, fidelity_goal=goal)
            assert nonzero_starts == starts

    @pytest.mark.parametrize("amps", [{3: 1.0}, {0: 1e-7, 1: 1.0, 3: 1.0}])
    def test_orthogonal_target_skips_the_zero_start(self, amps, monkeypatch):
        # Below C0_FLOOR the fidelity is stationary at zero amplitudes, so
        # the solve starts from the first seeded restart.
        starts = []
        lm = _ProductSolver._lm

        def recording_lm(self, sig0, u, t):
            starts.append(sig0.copy())
            return lm(self, sig0, u, t)

        monkeypatch.setattr(_ProductSolver, "_lm", recording_lm)
        target = _sparse_target(3, amps)
        plan = plan_two_mode(target)
        assert starts and all(start.any() for start in starts)
        result = execute_plan(plan, basis_state(target.basis, (0, 3)))
        assert result.fidelity >= synthesis.SOLVE_GOAL

    def test_rejects_generator_mixing_orders(self):
        jp = _hop_csr(make_basis(2, 3), 0, 1).toarray()
        with pytest.raises(ValueError):
            _ProductSolver([jp, jp + jp @ jp], range(4), [1, 1])

    @pytest.mark.parametrize("n", [32, 48])
    def test_large_n_plan_executes_to_goal(self, n, caplog):
        # Raw J+^k generators span ~30 decades of norm at N = 32; unscaled,
        # the solver returned cancelling steps of |rho| ~ 1e10.
        basis = make_basis(2, n)
        (target,) = bench_targets(basis, 1, 12345)
        with warnings.catch_warnings(record=True) as caught, \
                caplog.at_level("WARNING", logger="ssrc.hilbert"):
            warnings.simplefilter("always")
            plan = plan_two_mode(target)
            result = execute_plan(plan, basis_state(basis, (0, n)))
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert not caplog.records
        assert result.fidelity >= 1 - 1e-10
        assert plan.total_repetitions <= n / plan.small_angle


class TestMultimode:
    def test_two_pass_random_support_target(self):
        basis = make_basis(3, 3)
        target = random_support_target(basis, max_order=2, seed=41)
        plan = plan_multimode(target, small_angle=1e-3)
        result = execute_plan(plan, basis_state(basis, (0, 0, 3)))
        assert result.fidelity >= 0.98

    def test_rejects_support_beyond_order(self):
        basis = make_basis(3, 3)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index_of((0, 0, 3))] = 1.0
        amps[basis.index_of((3, 0, 0))] = 0.5  # order 3
        with pytest.raises(TargetOrderError):
            plan_multimode(State(basis, amps), max_order=2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_two_mode_planner_is_the_multimode_sweep(self, n):
        (target,) = bench_targets(make_basis(2, n), 1, 4242 + n)
        assert (plan_two_mode(target).to_json()
                == plan_multimode(target, max_order=n).to_json())

    def test_vanishing_reference_amplitude_reaches_goal(self):
        basis = make_basis(3, 2)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index_of((1, 0, 1))] = 1.0
        plan = plan_multimode(State(basis, amps))
        result = execute_plan(plan, basis_state(basis, (0, 0, 2)))
        assert result.fidelity >= synthesis.SOLVE_GOAL


class TestPlanSerialization:
    def test_json_round_trip(self):
        basis = make_basis(2, 3)
        target = random_state(basis, 9)
        plan = plan_two_mode(target, small_angle=1e-3)
        again = SynthesisPlan.from_json(plan.to_json())
        assert again.small_angle == plan.small_angle
        assert again.steps == plan.steps
        assert np.array_equal(
            np.asarray(again.target.amplitudes),
            np.asarray(plan.target.amplitudes),
        )
        start = basis_state(basis, (0, 3))
        assert (
            execute_plan(again, start).fidelity
            == execute_plan(plan, start).fidelity
        )

    @pytest.mark.parametrize("edit, message", [
        pytest.param({"repetitions": -3}, "repetitions must be an int >= 1",
                     id="negative-repetitions"),
        pytest.param({"repetitions": 0}, "repetitions must be an int >= 1",
                     id="zero-repetitions"),
        pytest.param({"order": 7}, "order 7 must equal the number of pairs 1",
                     id="order-not-pair-count"),
        pytest.param({"order": 0, "pairs": []},
                     "order 0 must equal the number of pairs 0, at least 1",
                     id="no-pairs"),
        pytest.param({"pairs": [[0, 5]]},
                     r"pair \(0, 5\) must name two distinct modes of 2",
                     id="mode-outside-basis"),
        pytest.param({"pairs": [[1, 1]]},
                     r"pair \(1, 1\) must name two distinct modes",
                     id="same-mode"),
        pytest.param({"amplitude": [0.0, float("inf")]},
                     "amplitude infj is not finite", id="infinite-amplitude"),
        pytest.param({"repetitions": 2.5},
                     "repetitions must be an integer, got 2.5",
                     id="fractional-repetitions"),
        pytest.param({"order": 1.9}, "order must be an integer, got 1.9",
                     id="fractional-order"),
        pytest.param({"repetitions": "2"},
                     "repetitions must be an integer, got '2'",
                     id="string-repetitions"),
        pytest.param({"pairs": [[0.5, 1]]},
                     "pair index must be an integer, got 0.5",
                     id="fractional-pair-index"),
        pytest.param({"order": None}, "missing key 'order'",
                     id="missing-order"),
        pytest.param({"pairs": None}, "missing key 'pairs'",
                     id="missing-pairs"),
        pytest.param({"amplitude": None}, "missing key 'amplitude'",
                     id="missing-amplitude"),
        pytest.param({"repetitions": None}, "missing key 'repetitions'",
                     id="missing-repetitions"),
        pytest.param({"amplitude": "abc"},
                     "amplitude must be an array of 2, got 'abc'",
                     id="string-amplitude"),
        pytest.param({"amplitude": [1.0]},
                     r"amplitude must be an array of 2, got \[1.0\]",
                     id="short-amplitude"),
        pytest.param({"amplitude": [1.0, "0"]},
                     "amplitude must be a number, got '0'",
                     id="string-amplitude-part"),
        pytest.param({"pairs": [[0, 1, 1]]},
                     r"pair must be an array of 2, got \[0, 1, 1\]",
                     id="pair-of-three"),
        pytest.param({"pairs": 1}, "pairs must be an array, got 1",
                     id="pairs-not-array"),
    ])
    def test_from_json_rejects_invalid_steps(self, edit, message):
        # An edit to None deletes the key.
        plan = plan_two_mode(random_state(make_basis(2, 3), 9))
        data = json.loads(plan.to_json())
        step = data["steps"][0]
        for key, value in edit.items():
            if value is None:
                del step[key]
            else:
                step[key] = value
        with pytest.raises(ValueError, match="step 0: " + message):
            SynthesisPlan.from_json(json.dumps(data))

    @pytest.mark.parametrize("edit, message", [
        pytest.param({"target": None}, "plan: missing key 'target'",
                     id="missing-target"),
        pytest.param({"small_angle": None}, "plan: missing key 'small_angle'",
                     id="missing-small-angle"),
        pytest.param({"steps": None}, "plan: missing key 'steps'",
                     id="missing-steps"),
        pytest.param({"small_angle": True},
                     "plan: small_angle must be a number, got True",
                     id="boolean-small-angle"),
        pytest.param({"steps": {}}, r"plan: steps must be an array, got \{\}",
                     id="steps-not-array"),
        pytest.param({"steps": [3]}, "step 0 must be a JSON object, got 3",
                     id="step-not-object"),
        pytest.param({"target": {"modes": 2, "photons": 3,
                                 "entries": [[4, 1.0, 0.0]]}},
                     "state: entry 0: index 4 is outside 0..3",
                     id="target-index-outside"),
    ])
    def test_from_json_rejects_invalid_plan(self, edit, message):
        # An edit to None deletes the key.
        data = json.loads(
            plan_two_mode(random_state(make_basis(2, 3), 9)).to_json())
        for key, value in edit.items():
            if value is None:
                del data[key]
            else:
                data[key] = value
        with pytest.raises(ValueError, match=message):
            SynthesisPlan.from_json(json.dumps(data))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reference_execute(plan, initial):
    """Every step of ``plan`` from ``initial``, built from scratch."""
    basis = initial.basis
    vec = np.asarray(initial.amplitudes)
    for step in plan.steps:
        b = np.eye(basis.dimension, dtype=np.complex128)
        for i, j in step.pairs:
            b = _hop_csr(basis, i, j).toarray() @ b
        u = expm(step.amplitude * b - np.conj(step.amplitude) * b.conj().T)
        vec = np.linalg.matrix_power(u, step.repetitions) @ vec
    return State(basis, vec, check_drift=True)


class TestGoldenPlans:
    """sha256 of ``plan.to_json()`` and of the executed amplitudes' bytes.

    Generated when the two-mode planner became the multimode sweep on two
    modes, with NumPy 2.4 and SciPy 1.17 on OpenBLAS 0.3.31, and equal at
    one and two BLAS threads; a change that keeps the planner's arithmetic
    keeps these bytes.  N stays at 16 or below: at N = 24 the bytes depend
    on the number of BLAS threads.
    """

    TWO_MODE = {
        2: ("58c592be756fd7e1cb9bc83c2c57885d02603924e03603a0aa96d5115d5de1cc",
            "a4ff78f9bbae59421a02027710581e7681b76f9e8cc49eeb1b15dad26b9c3438"),
        5: ("337bf6ff11ffee711026257aa62dcbaf7bfdd2b5b737a4c3915090a175ae9bff",
            "02f687b1063911e11c58822047a09642897b4c1fb811d49544753082cb7878eb"),
        8: ("08e911e2670bb38ff5d548d0cb83cc702400c64df40e1d79d7ae7ede6653c256",
            "662fe898e18b542d8da284d55609369dd04bccd11ce01001122301bea7742f66"),
        12: ("e704c09f659177a15e8ca41a5f4323b7e4e9f495a80e6adf80f46d60ae7d3e9f",
             "dbc9b48d65c518f664e0f6699cb77c2c2dd587032d21e664b0dfe0692773dbfd"),
        16: ("52abebb726efd40e468e578e9b327460bff1668726421769404294779e58c6eb",
             "353565ac20294b9647c7df59b7c79b345751f2e6d506afa922d6c68b45c0242a"),
    }
    MULTIMODE = (
        "0c29134d175c3057849a5d314603d7f7550d5206382180c1650cbade2f22e50e",
        "027b304bead2a368fd28f9e55c10d6377dff5b4fe0bd949a1a7017710188468b",
    )

    @pytest.mark.parametrize("n", sorted(TWO_MODE))
    def test_two_mode(self, n):
        basis = make_basis(2, n)
        (target,) = bench_targets(basis, 1, 12345)
        plan = plan_two_mode(target)
        result = execute_plan(plan, basis_state(basis, (0, n)))
        assert (
            _sha256(plan.to_json().encode()),
            _sha256(np.asarray(result.state.amplitudes).tobytes()),
        ) == self.TWO_MODE[n]

    def test_multimode(self):
        basis = make_basis(3, 3)
        plan = plan_multimode(random_support_target(basis, 2, 7))
        result = execute_plan(plan, basis_state(basis, (0, 0, 3)))
        assert (
            _sha256(plan.to_json().encode()),
            _sha256(np.asarray(result.state.amplitudes).tobytes()),
        ) == self.MULTIMODE

    OTHER_PATHS = (
        "aa2e53480c56d79a547477a60d6a2c6f28b4395a04bb2fda4467a5e0ad9655aa"
    )

    @staticmethod
    def _other_path_requests():
        """(planner, target, options) for the paths the pins above skip:
        targets orthogonal or nearly orthogonal to the reference state, a
        goal that stops the solver before the restarts, a coarse small
        angle and the multimode orders."""
        for n in (2, 3, 6, 10):
            yield plan_two_mode, basis_state(make_basis(2, n), (n, 0)), {}
        basis = make_basis(2, 5)
        (target,) = bench_targets(basis, 1, 12345)
        amps = np.array(target.amplitudes)
        amps[0] = 1e-8
        yield plan_two_mode, State(basis, amps), {}
        yield plan_multimode, _restart_target(), {"fidelity_goal": 0.999}
        (target,) = bench_targets(make_basis(2, 8), 1, 12345)
        yield plan_two_mode, target, {"small_angle": 5e-2}
        for k, n in ((3, 2), (3, 3), (4, 2)):
            basis = make_basis(k, n)
            for order in (1, 2):
                yield (plan_multimode,
                       random_support_target(basis, order, 7),
                       {"max_order": order})

    def test_other_planner_paths(self):
        digest = hashlib.sha256()
        for planner, target, options in self._other_path_requests():
            basis = target.basis
            plan = planner(target, **options)
            start = basis_state(basis, (0,) * (basis.num_modes - 1)
                                + (basis.total_photons,))
            result = execute_plan(plan, start)
            digest.update(plan.to_json().encode())
            digest.update(np.asarray(result.state.amplitudes).tobytes())
        assert digest.hexdigest() == self.OTHER_PATHS


class TestSingleExecution:
    """Planning computes no exponential; executing computes each step's
    exponential once, in one batched call."""

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []

        def counting_expm(a):
            calls.append(a.shape)
            return expm(a)

        # ``execute_plan`` imports ``expm`` from ``scipy.linalg`` when it
        # runs, so the count wraps that name.
        monkeypatch.setattr("scipy.linalg.expm", counting_expm)
        return calls

    def _check(self, plan, start, expm_calls):
        result = execute_plan(plan, start)
        d = plan.target.basis.dimension
        assert expm_calls == [(len(plan.steps), d, d)]
        reference = _reference_execute(plan, start)
        assert (np.asarray(result.state.amplitudes).tobytes()
                == np.asarray(reference.amplitudes).tobytes())
        assert result.fidelity == fidelity(reference, plan.target)

    def test_planning_makes_no_expm_call(self, expm_calls):
        plan_two_mode(bench_targets(make_basis(2, 6), 1, 12345)[0])
        plan_multimode(random_support_target(make_basis(3, 3), 2, 7))
        assert expm_calls == []

    def test_two_pass(self, expm_calls):
        basis = make_basis(2, 6)
        (target,) = bench_targets(basis, 1, 12345)
        plan = plan_two_mode(target)
        self._check(plan, basis_state(basis, (0, 6)), expm_calls)

    def test_multimode(self, expm_calls):
        basis = make_basis(3, 3)
        plan = plan_multimode(random_support_target(basis, 2, 7))
        self._check(plan, basis_state(basis, (0, 0, 3)), expm_calls)

    @pytest.mark.parametrize("copy", ["from_json", "other_initial"])
    def test_other_plans_execute_every_step(self, copy, expm_calls):
        basis = make_basis(2, 6)
        (target,) = bench_targets(basis, 1, 12345)
        plan = plan_two_mode(target)
        start = basis_state(basis, (0, 6))
        if copy == "from_json":
            plan = SynthesisPlan.from_json(plan.to_json())
        else:
            start = random_state(basis, 3)
        del expm_calls[:]
        self._check(plan, start, expm_calls)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_batch_matches_per_step_expm(self, n, expm_calls):
        basis = make_basis(2, n)
        (target,) = bench_targets(basis, 1, 54321)
        plan = plan_two_mode(target)
        self._check(plan, basis_state(basis, (0, n)), expm_calls)

    @pytest.mark.parametrize("n", [0, 5])
    def test_plan_without_steps_calls_no_expm(self, n, expm_calls):
        basis = make_basis(2, n)
        start = basis_state(basis, (0, n))
        plan = plan_two_mode(start)
        assert plan.steps == ()
        result = execute_plan(plan, start)
        assert expm_calls == []
        assert (np.asarray(result.state.amplitudes).tobytes()
                == np.asarray(_reference_execute(plan, start).amplitudes)
                .tobytes())
        assert result.fidelity == 1.0

    def test_second_execution_builds_no_generator(self):
        basis = make_basis(2, 6)
        (target,) = bench_targets(basis, 1, 12345)
        plan = plan_two_mode(target)
        start = basis_state(basis, (0, 6))
        _hop_product.cache_clear()
        first = execute_plan(plan, start)
        misses = _hop_product.cache_info().misses
        assert misses > 0
        again = execute_plan(plan, start)
        assert _hop_product.cache_info().misses == misses
        assert (np.asarray(again.state.amplitudes).tobytes()
                == np.asarray(first.state.amplitudes).tobytes())


class TestComplexityProbe:
    def test_probe_rows_and_single_photon_base_case(self):
        probe = synthesis_complexity_probe(
            [1, 2, 4], fidelity_target=0.99, small_angle=1e-2,
            targets_per_n=2, seed=3,
        )
        assert [r[0] for r in probe.rows] == [1, 2, 4]
        assert probe.rows[0][1] == 1  # N=1 plans are a single exact step
        for _, steps, reps, fid in probe.rows:
            assert reps >= steps >= 1
            assert fid >= 0.99
        assert math.isfinite(probe.slope_steps)
        assert math.isfinite(probe.slope_repetitions)

    def test_probe_rejects_large_n(self):
        with pytest.raises(ValueError):
            synthesis_complexity_probe([64], fidelity_target=0.9)

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm_frechet

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
from ssrc.schwinger import _hop_csr
from ssrc.synthesis import (
    SynthesisPlan,
    TargetOrderError,
    ZeroLeadingCoefficientError,
    bench_targets,
    execute_plan,
    plan_multimode,
    plan_two_mode,
    random_support_target,
    synthesis_complexity_probe,
    _ProductSolver,
)


class TestFirstPass:
    def test_matching_rule_single_order(self):
        # Target with only the k=1 ratio set: the emitted step must satisfy
        # repetitions * amplitude * sqrt(1 * N) = c_1 / c_0 exactly.
        n = 5
        basis = make_basis(2, n)
        target = State(basis, [1.0, 0.3] + [0.0] * (n - 1))
        plan = plan_two_mode(target, small_angle=0.01, passes=1)
        assert len(plan.steps) == 1
        step = plan.steps[0]
        assert step.order == 1 and step.pairs == ((0, 1),)
        assert step.stage == "match"
        net = step.amplitude * step.repetitions
        assert abs(net * math.sqrt(n) - 0.3) < 1e-12
        assert step.repetitions == math.ceil(abs(net) / 0.01)

    def test_matching_rule_every_order(self):
        n = 4
        basis = make_basis(2, n)
        target = random_state(basis, 7)
        c = np.asarray(target.amplitudes)
        plan = plan_two_mode(target, small_angle=1e-3, passes=1)
        assert len(plan.steps) <= n
        for step in plan.steps:
            k = step.order
            element = math.prod(
                math.sqrt((j + 1) * (n - j)) for j in range(k)
            )
            net = step.amplitude * step.repetitions
            assert abs(net * element - c[k] / c[0]) < 1e-12
            assert abs(step.amplitude) <= 1e-3 + 1e-15

    def test_small_angle_controls_repetitions(self):
        basis = make_basis(2, 3)
        target = random_state(basis, 11)
        loose = plan_two_mode(target, small_angle=1e-1, passes=1)
        tight = plan_two_mode(target, small_angle=1e-3, passes=1)
        assert tight.total_repetitions > loose.total_repetitions
        for plan, bound in ((loose, 1e-1), (tight, 1e-3)):
            for step in plan.steps:
                assert abs(step.amplitude) <= bound + 1e-15

    def test_single_photon_plan_is_exact(self):
        basis = make_basis(2, 1)
        for seed in range(5):
            target = random_state(basis, seed)
            plan = plan_two_mode(target, small_angle=1e-2, passes=1)
            result = execute_plan(plan, basis_state(basis, (0, 1)))
            assert result.fidelity > 1 - 1e-12

    def test_first_order_accuracy_improves_near_reference(self):
        # Pass-1 matching is first-order exact, so its infidelity must
        # shrink as the target approaches the reference state.
        n = 6
        basis = make_basis(2, n)
        rng = SplitMix64(31)
        direction = np.array(
            [rng.complex_normal() for _ in range(n + 1)]
        )
        infids = []
        for eps in (0.3, 0.1, 0.03):
            amps = np.zeros(n + 1, dtype=complex)
            amps[0] = 1.0
            amps += eps * direction
            target = State(basis, amps)
            plan = plan_two_mode(target, small_angle=1e-3, passes=1)
            result = execute_plan(plan, basis_state(basis, (0, n)))
            infids.append(1.0 - result.fidelity)
        assert infids[0] > infids[1] > infids[2]


class TestLeadingCoefficient:
    def test_fallback_prerotation(self):
        basis = make_basis(2, 3)
        target = basis_state(basis, (3, 0))  # c_0 exactly zero
        plan = plan_two_mode(target, small_angle=1e-2, passes=2)
        assert plan.steps[-1].stage == "closing"
        result = execute_plan(plan, basis_state(basis, (0, 3)))
        assert result.fidelity > 0.99

    def test_fallback_disabled_raises(self):
        basis = make_basis(2, 3)
        target = basis_state(basis, (3, 0))
        with pytest.raises(ZeroLeadingCoefficientError):
            plan_two_mode(target, passes=1, c0_fallback=False)


class TestTwoPass:
    @pytest.mark.parametrize("n", [2, 4])
    def test_seeded_targets_reach_goal(self, n):
        basis = make_basis(2, n)
        for target in bench_targets(basis, 3, seed=123):
            plan = plan_two_mode(target, small_angle=1e-3, passes=2)
            result = execute_plan(plan, basis_state(basis, (0, n)))
            assert result.fidelity >= 0.99

    def test_touchup_steps_respect_small_angle(self):
        basis = make_basis(2, 4)
        target = random_state(basis, 5)
        plan = plan_two_mode(target, small_angle=1e-3, passes=2)
        stages = {s.stage for s in plan.steps}
        assert "match" in stages
        for step in plan.steps:
            assert abs(step.amplitude) <= 1e-3 + 1e-15

    def test_fidelity_independent_of_small_angle(self):
        # Splitting a net amplitude into repetitions is exact, so the
        # executed two-pass state cannot depend on the split granularity.
        basis = make_basis(2, 4)
        target = random_state(basis, 17)
        fids = []
        for small_angle in (1e-2, 1e-3):
            plan = plan_two_mode(target, small_angle=small_angle, passes=2)
            result = execute_plan(plan, basis_state(basis, (0, 4)))
            fids.append(result.fidelity)
        assert abs(fids[0] - fids[1]) < 1e-10

    def test_goal_short_circuits_touchup(self):
        basis = make_basis(2, 3)
        target = random_state(basis, 2)
        plan = plan_two_mode(
            target, small_angle=1e-3, passes=2, fidelity_goal=0.1
        )
        assert all(s.stage == "match" for s in plan.steps)

    def test_passes_validated(self):
        basis = make_basis(2, 2)
        with pytest.raises(ValueError):
            plan_two_mode(random_state(basis, 0), passes=3)


class TestEmptyPlan:
    def test_reference_target_yields_empty_plan(self):
        basis = make_basis(2, 5)
        target = basis_state(basis, (0, 5))
        plan = plan_two_mode(target, small_angle=1e-3, passes=2)
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


def _touch_solver(n):
    """The two-mode planner's touch-up generators on N photons."""
    jp = _hop_csr(make_basis(2, n), 0, 1).toarray()
    orders = [k for k in range(1, n + 1) for _ in range(2)] + [1, 1]
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


class TestProductSolver:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_resid_jac_matches_frechet_and_differences(self, n):
        gens, solver = _touch_solver(n)
        rng = np.random.default_rng(n)
        sig = rng.normal(size=2 * solver.m)
        sig[::3] = 0.0
        sig[1:4] = 0.0  # the first two steps have amplitude exactly 0
        u, t = (random_state(make_basis(2, n), seed).amplitudes
                for seed in (n, n + 100))
        u, t = np.asarray(u), np.asarray(t)
        r, jac, v = solver._resid_jac(sig, u, t)
        unit_gens = [g / c for g, c in zip(gens, solver.scale)]
        r_ref, jac_ref, v_ref = _frechet_resid_jac(unit_gens, sig, u, t)
        scale = np.abs(jac_ref).max()
        assert np.abs(jac - jac_ref).max() <= 1e-12 * scale
        assert np.abs(r - r_ref).max() <= 1e-12
        assert np.abs(v - v_ref).max() <= 1e-12
        assert np.abs(solver.apply(sig, u) - v).max() <= 1e-12
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
                c * (proj @ solver.apply(sig + k * e, u))
                for k, c in weights.items()
            ) / (60 * h)
            diff[:, j] = np.concatenate([col.real, col.imag])
        assert np.abs(jac - diff).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_zero_amplitudes_leave_u_exactly(self, n):
        _, solver = _touch_solver(n)
        u = np.asarray(random_state(make_basis(2, n), n).amplitudes)
        sig = np.zeros(2 * solver.m)
        _, _, v = solver._resid_jac(sig, u, u)
        assert np.array_equal(v, u)
        assert np.array_equal(solver.apply(sig, u), u)

    @pytest.mark.parametrize("n, amps, restarts", [
        (5, {0: 0.1, 2: 1.0}, False),  # rescued by the continuation
        (4, {0: 0.01, 2: 1.0, 4: 1.0}, True),  # rescued by the restarts
    ])
    def test_fallbacks_reach_goal(self, n, amps, restarts, monkeypatch):
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
        basis = make_basis(2, n)
        c = np.zeros(n + 1)
        for k, value in amps.items():
            c[k] = value
        target = State(basis, c)
        plan = plan_two_mode(target, small_angle=1e-2, passes=2)
        result = execute_plan(plan, basis_state(basis, (0, n)))
        # Gauss-Newton from zero falls short, so a fallback did the work.
        assert lm_fidelities[0] < 0.95
        assert any(seed >= 7000 for seed in seeds) == restarts
        assert result.fidelity >= 1 - 1e-10

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
    def test_matching_rule_first_order(self):
        # Two first-order amplitudes with ratios 0.2 and 0.1: each step's
        # net amplitude times the hop element sqrt(N) must equal its ratio.
        basis = make_basis(3, 3)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index_of((0, 0, 3))] = 1.0
        amps[basis.index_of((1, 0, 2))] = 0.2
        amps[basis.index_of((0, 1, 2))] = 0.1
        target = State(basis, amps)
        plan = plan_multimode(
            target, small_angle=1e-2, passes=1, max_order=1
        )
        assert len(plan.steps) == 2
        by_pairs = {s.pairs: s for s in plan.steps}
        for pairs, ratio in ((((0, 2),), 0.2), (((1, 2),), 0.1)):
            step = by_pairs[pairs]
            net = step.amplitude * step.repetitions
            assert abs(net * math.sqrt(3) - ratio) < 1e-12

    def test_two_pass_random_support_target(self):
        basis = make_basis(3, 3)
        target = random_support_target(basis, max_order=2, seed=41)
        plan = plan_multimode(target, small_angle=1e-3, passes=2)
        result = execute_plan(plan, basis_state(basis, (0, 0, 3)))
        assert result.fidelity >= 0.98

    def test_rejects_support_beyond_order(self):
        basis = make_basis(3, 3)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index_of((0, 0, 3))] = 1.0
        amps[basis.index_of((3, 0, 0))] = 0.5  # order 3
        with pytest.raises(TargetOrderError):
            plan_multimode(State(basis, amps), max_order=2)

    def test_rejects_vanishing_reference_amplitude(self):
        basis = make_basis(3, 2)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index_of((1, 0, 1))] = 1.0
        with pytest.raises(ZeroLeadingCoefficientError):
            plan_multimode(State(basis, amps))


class TestPlanSerialization:
    def test_json_round_trip(self):
        basis = make_basis(2, 3)
        target = random_state(basis, 9)
        plan = plan_two_mode(target, small_angle=1e-3, passes=2)
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

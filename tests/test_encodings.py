import json
import math
import pathlib

import numpy as np
import pytest

from ssrc.encodings import (
    Encoding,
    NonOrthogonalCodeStatesError,
    cnot_gate,
    cnot_search,
    feasibility_report,
    fock_encoding,
    fock_pair_floor,
    gate_error,
    hadamard_gate,
    logical_gate_matrix,
    phase_gate,
    r_y,
    r_z,
    sg_gate_search,
    sg_manifold_unitary,
    t_gate,
)
from ssrc.encodings import (
    _SEED_SPACING,
    _check_stack,
    _composite_codes,
    _descend,
    _MeshManifold,
    _multistart,
    _pair_eig,
    _RotationManifold,
    _seed_scan,
)
from ssrc.hilbert import (
    BasisMismatchError,
    DimensionCapError,
    State,
    basis_state,
    make_basis,
)
from ssrc.prng import SplitMix64
from ssrc.schwinger import exp_unitary, j_operator, rotation

FIXTURES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "oracles.json").read_text()
)

FLOOR_TARGETS = {
    "hadamard": hadamard_gate(),
    "t_hadamard": t_gate() @ hadamard_gate(),
    "ry0.7": r_y(0.7),
    "ry2.2": r_y(2.2),
    "rz1.1": r_z(1.1),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
}


SCAN_TARGETS = {**FLOOR_TARGETS, "t": t_gate(), "phase1.9": phase_gate(1.9)}


class TestEncodingConstruction:
    def test_fock_encoding_states(self):
        basis = make_basis(2, 3)
        enc = fock_encoding(basis)
        assert enc.label == "fock-N3"
        zero, one = enc.code_states
        assert zero.amplitude((0, 3)) == 1.0
        assert one.amplitude((3, 0)) == 1.0

    def test_dual_rail_label(self):
        assert fock_encoding(make_basis(2, 1)).label == "dual-rail"

    def test_direct_construction_rejects_nonorthogonal(self):
        basis = make_basis(2, 1)
        plus = State(basis, [1.0, 1.0])
        minus = State(basis, [1.0, 0.5])
        with pytest.raises(NonOrthogonalCodeStatesError) as err:
            Encoding(basis, (plus, minus), "bad")
        assert abs(err.value.overlap) > 1e-10

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fock_encoding_matches_identity_images(self, n):
        basis = make_basis(2, n)
        want = np.vstack([basis_state(basis, occ).amplitudes
                          for occ in ((0, n), (n, 0))])
        assert fock_encoding(basis).code_vectors().tobytes() == want.tobytes()

    def test_fock_encoding_needs_two_modes(self):
        with pytest.raises(ValueError, match="two-mode"):
            fock_encoding(make_basis(3, 2))

    def test_code_vectors_shape(self):
        enc = fock_encoding(make_basis(2, 4))
        vecs = enc.code_vectors()
        assert vecs.shape == (2, 5)
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12


class TestLogicalProjection:
    def test_rotation_acts_as_logical_ry_on_dual_rail(self):
        basis = make_basis(2, 1)
        enc = fock_encoding(basis)
        theta = 0.8
        proj = logical_gate_matrix(rotation(basis, theta, 0.0), enc)
        assert proj.leakage < 1e-12
        assert gate_error(rotation(basis, theta, 0.0), r_y(theta), enc) < 1e-12

    def test_jz_phase_acts_as_logical_rz_on_dual_rail(self):
        basis = make_basis(2, 1)
        enc = fock_encoding(basis)
        u = exp_unitary(j_operator(basis, "z"), 0.7)
        assert gate_error(u, r_z(0.7), enc) < 1e-12

    def test_fock_n2_rotation_leaks_half(self):
        # R(pi, 0) swaps |0_L> and |2_L> through the intermediate |1,1>
        # level; at theta = pi/2 half the population sits outside the
        # code space.
        basis = make_basis(2, 2)
        enc = fock_encoding(basis)
        proj = logical_gate_matrix(rotation(basis, math.pi / 2, 0.0), enc)
        assert proj.leakage == pytest.approx(0.5, abs=1e-12)

    def test_leakage_plus_population_is_unity(self):
        basis = make_basis(2, 3)
        enc = fock_encoding(basis)
        u = rotation(basis, 1.2, 0.4)
        proj = logical_gate_matrix(u, enc)
        population = float(np.sum(np.abs(proj.matrix) ** 2)) / 2
        assert proj.leakage + population == pytest.approx(1.0, abs=1e-12)

    def test_gate_error_phase_invariance(self):
        basis = make_basis(2, 1)
        enc = fock_encoding(basis)
        u = rotation(basis, 0.5, 0.0)
        base = gate_error(u, r_y(0.5), enc)
        shifted = gate_error(u, np.exp(0.3j) * r_y(0.5), enc)
        assert abs(base - shifted) < 1e-14

    def test_operator_of_another_dimension_rejected(self):
        enc = fock_encoding(make_basis(2, 2))
        other = rotation(make_basis(2, 3), 0.5, 0.0)
        with pytest.raises(BasisMismatchError):
            logical_gate_matrix(other, enc)

    def test_identity_error_zero(self):
        basis = make_basis(2, 2)
        enc = fock_encoding(basis)
        assert gate_error(np.eye(basis.dimension), np.eye(2), enc) == 0.0

    def test_nan_operator_is_not_a_perfect_gate(self):
        # max(0.0, nan) is 0.0 in Python: a NaN trace must not read as a
        # zero error.
        basis = make_basis(2, 2)
        enc = fock_encoding(basis)
        nan = np.full((basis.dimension, basis.dimension), np.nan)
        assert math.isnan(gate_error(nan, np.eye(2), enc))


class TestPairEig:
    """``_pair_eig`` hands ``eigh`` the bytes of the operator-layer Jy,
    signed zeros included, so the eigenvectors keep their bits."""

    CASES = [(2, n, (0, 1)) for n in range(1, 7)] + [
        (4, n, pair) for n in (2, 4) for pair in ((0, 1), (2, 3), (1, 2))
    ]

    @pytest.mark.parametrize(
        "k, n, pair", CASES,
        ids=[f"K{k}-N{n}-{i}{j}" for k, n, (i, j) in CASES],
    )
    def test_matches_j_operator(self, k, n, pair):
        basis = make_basis(k, n)
        w, v, mz = _pair_eig(basis, pair)
        w_ref, v_ref = np.linalg.eigh(j_operator(basis, "y", pair).toarray())
        mz_ref = j_operator(basis, "z", pair).diagonal().real
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert mz.dtype == mz_ref.dtype
        assert mz.tobytes() == mz_ref.tobytes()


class TestManifoldUnitary:
    def test_matches_closure_form(self):
        # The tilted-axis rotation must equal the explicit conjugation
        # R(theta',phi') e^{i eta Jz} R(theta',phi')^dagger.
        basis = make_basis(2, 3)
        th, ph, eta = 0.9, 2.2, 1.4
        got = sg_manifold_unitary(basis, th, ph, eta)
        r = rotation(basis, th, ph)
        mid = exp_unitary(j_operator(basis, "z"), eta)
        r_dag = exp_unitary(j_operator(basis, "y"), -th) @ exp_unitary(
            j_operator(basis, "z"), -ph
        )
        assert np.max(np.abs(got - r @ mid @ r_dag)) < 1e-12


class TestDualRailUniversality:
    def test_ry_family_is_exact(self):
        basis = make_basis(2, 1)
        enc = fock_encoding(basis)
        for theta in (0.3, 1.0, 2.6):
            res = sg_gate_search(r_y(theta), enc, restarts=2, seed=7)
            assert res.error <= 1e-8
            assert res.leakage <= 1e-10

    def test_hadamard_is_exact(self):
        enc = fock_encoding(make_basis(2, 1))
        res = sg_gate_search(hadamard_gate(), enc, restarts=2, seed=11)
        assert res.error <= 1e-8

    def test_t_gate_is_exact(self):
        enc = fock_encoding(make_basis(2, 1))
        res = sg_gate_search(t_gate(), enc, restarts=2, seed=13)
        assert res.error <= 1e-8


# Searches land a few ulps below the exact floor (at most 1.6e-15
# below it at N = 5); 1e-14 is that rounding allowance, not a tolerance on
# the floor.
ROUNDING = 1e-14


class TestGateFloors:
    @pytest.mark.parametrize("n", [2, 3])
    def test_hadamard_floor_matches_fixture(self, n):
        want = FIXTURES["gate_floors"]["hadamard"][str(n)]
        assert abs(fock_pair_floor(hadamard_gate(), n) - want) <= 1e-12

    def test_search_never_beats_certified_floor(self):
        n = 2
        enc = fock_encoding(make_basis(2, n))
        floor = fock_pair_floor(hadamard_gate(), n)
        res = sg_gate_search(hadamard_gate(), enc, restarts=4, seed=5)
        assert res.error >= floor - ROUNDING
        assert res.error > 0.05

    def test_t_then_hadamard_floor(self):
        enc = fock_encoding(make_basis(2, 3))
        target = hadamard_gate() @ t_gate()
        res = sg_gate_search(target, enc, restarts=4, seed=19)
        want = FIXTURES["gate_floors"]["t_hadamard_n3"]
        floor = fock_pair_floor(target, 3)
        assert abs(floor - want) <= 1e-12
        assert res.error >= floor - ROUNDING

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", sorted(FLOOR_TARGETS))
    def test_proven_floor_below_search(self, name, n):
        target = FLOOR_TARGETS[name]
        enc = fock_encoding(make_basis(2, n))
        res = sg_gate_search(target, enc, restarts=4, seed=n)
        assert fock_pair_floor(target, n) <= res.error + ROUNDING

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", sorted(FLOOR_TARGETS))
    def test_polished_scan_reaches_proven_floor(self, name, n):
        # With one restart the only start is the best node of the 0.1
        # scan, so this is that node polished by BFGS.
        target = FLOOR_TARGETS[name]
        enc = fock_encoding(make_basis(2, n))
        res = sg_gate_search(target, enc, restarts=1)
        assert abs(res.error - fock_pair_floor(target, n)) <= 1e-12

    def test_dual_rail_floor_is_zero_for_unitaries(self):
        for target in FLOOR_TARGETS.values():
            assert fock_pair_floor(target, 1) <= ROUNDING

    def test_searches_need_a_start(self):
        # restarts = 0 once ran one start and reported restarts = 1.
        enc = fock_encoding(make_basis(2, 1))
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            sg_gate_search(hadamard_gate(), enc, restarts=0)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            cnot_search(enc, restarts=0)
        with pytest.raises(ValueError, match="N=0 must be >= 1"):
            fock_encoding(make_basis(2, 0))

    def test_floor_rejects_bad_input(self):
        with pytest.raises(ValueError, match="N=0 must be >= 1"):
            fock_pair_floor(hadamard_gate(), 0)
        with pytest.raises(ValueError, match="must be 2x2"):
            fock_pair_floor(np.eye(3), 2)


def _value_and_grad(manifold, x):
    """E and its gradient at one point, as a one-row batch."""
    values, grads = manifold.values_and_grads(x[None])
    return values[0], grads[0]


def _error(manifold, x):
    """The reported error at one point, as a one-row batch."""
    return manifold.end_points(x[None])[0][0]


def _central_differences(f, x, h=1e-6):
    grad = np.empty(len(x))
    for i in range(len(x)):
        step = np.zeros(len(x))
        step[i] = h
        grad[i] = (f(x + step)[0] - f(x - step)[0]) / (2 * h)
    return grad


class TestAnalyticGradients:
    # Central differences at h = 1e-6 carry about 1e-10 of rounding error.
    FD_TOL = 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rotation_manifold(self, n):
        enc = fock_encoding(make_basis(2, n))
        rng = np.random.default_rng(100 + n)
        for target in (hadamard_gate(), t_gate() @ hadamard_gate()):
            manifold = _RotationManifold(enc, target)
            for _ in range(3):
                x = rng.uniform(0.0, 2.0 * math.pi, 3)
                value, grad = _value_and_grad(manifold, x)
                assert abs(value - _error(manifold, x)) <= 1e-14
                want = _central_differences(
                    lambda p: _value_and_grad(manifold, p), x)
                assert np.max(np.abs(grad - want)) <= self.FD_TOL

    @pytest.mark.parametrize("n", [1, 2])
    def test_mesh_manifold(self, n):
        manifold = _mesh_manifold(n)
        rng = np.random.default_rng(200 + n)
        for _ in range(2):
            x = rng.uniform(0.0, 2.0 * math.pi, 16)
            value, grad = _value_and_grad(manifold, x)
            assert abs(value - _error(manifold, x)) <= 1e-14
            want = _central_differences(
                lambda p: _value_and_grad(manifold, p), x)
            assert np.max(np.abs(grad - want)) <= self.FD_TOL


class TestManifoldsMatchReferences:
    """The searches' manifolds agree with the unitaries built from
    ``rotation`` and ``exp_unitary`` and measured by the reference
    projection, to 1e-12 (the deviations are a few times 1e-16)."""

    TOL = 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rotation_manifold(self, n):
        basis = make_basis(2, n)
        enc = fock_encoding(basis)
        rng = np.random.default_rng(600 + n)
        for target in (hadamard_gate(), t_gate() @ hadamard_gate()):
            manifold = _RotationManifold(enc, target)
            for _ in range(3):
                x = rng.uniform(0.0, 2.0 * math.pi, 3)
                unitary = sg_manifold_unitary(basis, *x)
                proj = logical_gate_matrix(unitary, enc)
                assert np.max(np.abs(manifold.logicals(x[None])[0]
                                     - proj.matrix)) <= self.TOL
                (error,), (leakage,) = manifold.end_points(x[None])
                assert abs(error - gate_error(unitary, target, enc)) \
                    <= self.TOL
                assert abs(leakage - proj.leakage) <= self.TOL

    @pytest.mark.parametrize("n", [1, 2])
    def test_mesh_manifold(self, n):
        enc = fock_encoding(make_basis(2, n))
        basis = make_basis(4, 2 * n)
        codes = _composite_codes(enc, basis)
        manifold = _MeshManifold(basis, codes, cnot_gate())
        rng = np.random.default_rng(700 + n)
        for _ in range(3):
            x = rng.uniform(0.0, 2.0 * math.pi, 16)
            unitary = np.eye(basis.dimension)
            for k, pair in enumerate([(0, 1), (2, 3), (1, 2),
                                      (0, 1), (2, 3), (1, 2)]):
                unitary = rotation(basis, x[2 * k], x[2 * k + 1],
                                   pair) @ unitary
            phases = np.exp(1j * (basis.occupations @ x[12:16]))
            want = codes.conj() @ (phases[:, None] * unitary) @ codes.T
            assert np.max(np.abs(manifold.logicals(x[None])[0] - want)) \
                <= self.TOL


def _mesh_manifold(n, target=None):
    enc = fock_encoding(make_basis(2, n))
    basis = make_basis(4, 2 * n)
    return _MeshManifold(basis, _composite_codes(enc, basis),
                         cnot_gate() if target is None else target)


def _one_point_logical(manifold, x):
    """The logical matrix at one point, one matrix product at a time: the
    reference for the bits of the batched ``logicals``."""
    if isinstance(manifold, _RotationManifold):
        theta, phi, eta = x
        y = (manifold.vy * np.exp(1j * theta * manifold.wy)) @ manifold.vy_h
        phases = np.exp(1j * (phi * manifold.m))
        rows = [(phases * ci)[None, :] @ y for ci in manifold.codes_conj]
        eta_ph = np.exp(1j * eta * manifold.m)
        a = np.empty((manifold.d, manifold.d), dtype=np.complex128)
        for i in range(manifold.d):
            for j in range(manifold.d):
                a[i, j] = np.sum(rows[i][0] * eta_ph * rows[j][0].conj())
        return a
    u = np.eye(manifold.dim, dtype=np.complex128)
    for k in range(6):
        theta, phi = x[2 * k], x[2 * k + 1]
        y = (manifold.v[k] * np.exp(1j * theta * manifold.w[k])) \
            @ manifold.vh[k]
        u = (np.exp(1j * phi * manifold.mz[k])[:, None] * y) @ u
    u = np.exp(1j * (manifold.occ_matrix @ x[12:16]))[:, None] * u
    return manifold.codes_conj @ u @ manifold.codes_conj.conj().T


def _scan_reference(target, enc):
    """Grid scan at ``_seed_scan``'s spacing, one theta' slice at a time.

    Returns the (theta', phi', eta) of the best node; written out in full so
    that the blocked scan of ``_seed_scan`` is checked against independent
    per-slice code.
    """
    manifold = _RotationManifold(enc, target)
    thetas = np.linspace(
        0.0, math.pi, int(math.ceil(math.pi / _SEED_SPACING)) + 1
    )
    # phi' and eta share one grid, and so one table of phases.
    phis = np.arange(0.0, 2.0 * math.pi, _SEED_SPACING)
    phases = np.exp(1j * np.outer(phis, manifold.m))
    best = []
    for theta in thetas:
        y = (manifold.vy * np.exp(1j * theta * manifold.wy)) @ (
            manifold.vy.conj().T
        )
        rows = [(phases * ci[None, :]) @ y for ci in manifold.codes_conj]
        w = np.zeros((len(phis), len(manifold.m)), dtype=np.complex128)
        for i in range(manifold.d):
            for j in range(manifold.d):
                if manifold.g_conj[i, j] != 0:
                    w += manifold.g_conj[i, j] * (rows[i] * rows[j].conj())
        slab = np.abs(w @ phases.T)
        ip, ie = divmod(int(np.argmax(slab)), slab.shape[1])
        best.append((float(slab[ip, ie]), float(theta), float(phis[ip]),
                     float(phis[ie])))
    best.sort(key=lambda rec: -rec[0])
    return best[0][1:]


class TestBatchedEvaluation:
    """Batched objective rows, lockstep descents and the blocked scan
    reproduce one-point code bit for bit."""

    @staticmethod
    def _assert_rows_match(manifold, xs):
        values, grads = manifold.values_and_grads(xs)
        assert values.shape == (len(xs),) and grads.shape == xs.shape
        for k, x in enumerate(xs):
            value, grad = _value_and_grad(manifold, x)
            assert value == values[k]
            assert np.array_equal(grad, grads[k])
        order = [3, 0, 4]
        sub_values, sub_grads = manifold.values_and_grads(xs[order])
        assert np.array_equal(sub_values, values[order])
        assert np.array_equal(sub_grads, grads[order])

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_rotation_rows_match_one_row_calls(self, n):
        enc = fock_encoding(make_basis(2, n))
        rng = np.random.default_rng(300 + n)
        for target in (hadamard_gate(), t_gate() @ hadamard_gate()):
            manifold = _RotationManifold(enc, target)
            self._assert_rows_match(
                manifold, rng.uniform(0.0, 2.0 * math.pi, (7, 3))
            )

    @pytest.mark.parametrize("n", [1, 2])
    def test_mesh_rows_match_one_row_calls(self, n):
        rng = np.random.default_rng(400 + n)
        self._assert_rows_match(
            _mesh_manifold(n), rng.uniform(0.0, 2.0 * math.pi, (5, 16))
        )

    @pytest.mark.parametrize(
        "case", ["rotation", "mesh", "rotation-first-trial-rejected"])
    def test_lockstep_descent_matches_single_starts(self, case):
        rng = np.random.default_rng(500)
        if case == "mesh":
            manifold = _mesh_manifold(1)
            starts = rng.uniform(0.0, 2.0 * math.pi, (3, 16))
        else:
            # At N = 6 two of these six starts fail their first trial, so
            # the first step retries them while later steps, where every
            # start passes, run on whole arrays; at N = 3 all six pass.
            n = 6 if case == "rotation-first-trial-rejected" else 3
            enc = fock_encoding(make_basis(2, n))
            manifold = _RotationManifold(enc, hadamard_gate())
            starts = rng.uniform(0.0, 2.0 * math.pi, (6, 3))
        sizes = []
        batched = manifold.values_and_grads
        manifold.values_and_grads = lambda xs: sizes.append(len(xs)) or \
            batched(xs)
        ends, errors, leakages, iterations, evaluations = _descend(
            manifold, starts)
        del manifold.values_and_grads
        # The starts, the first trial of each, then a retry of the rejected
        # ones or the first trials of the second step.
        assert sizes[:2] == [len(starts)] * 2
        assert (sizes[2] < len(starts)) == (
            case == "rotation-first-trial-rejected")
        assert evaluations == sum(sizes)
        total = 0
        for k, start in enumerate(starts):
            end, err, leak, nit, nev = _descend(manifold, start[None, :])
            assert end[0].tobytes() == ends[k].tobytes()
            assert err[0] == errors[k]
            assert leak[0] == leakages[k]
            assert nit[0] == iterations[k]
            total += nev
        assert evaluations == total
        # One row per start, then at least one trial per iteration.
        assert evaluations >= len(starts) + int(iterations.sum())

    LOGICAL_CASES = {
        "rotation-N1": (1, 3), "rotation-N6": (6, 3), "rotation-N13": (13, 3),
        "mesh-N1": (1, 16), "mesh-N2": (2, 16),
    }

    @pytest.mark.parametrize("case", sorted(LOGICAL_CASES))
    def test_logicals_match_one_point_kernel(self, case):
        n, n_params = self.LOGICAL_CASES[case]
        if n_params == 16:
            manifold = _mesh_manifold(n)
        else:
            enc = fock_encoding(make_basis(2, n))
            manifold = _RotationManifold(enc, t_gate() @ hadamard_gate())
        xs = np.random.default_rng(800 + n).uniform(-7.0, 7.0, (6, n_params))
        a = manifold.logicals(xs)
        errors, leakages = manifold.end_points(xs)
        d = manifold.d
        for k, x in enumerate(xs):
            want = _one_point_logical(manifold, x)
            assert a[k].tobytes() == want.tobytes()
            assert manifold.logicals(x[None])[0].tobytes() == want.tobytes()
            error = max(0.0, 1.0 - abs(complex(np.sum(manifold.g_conj
                                                      * want))) / d)
            leakage = max(0.0, 1.0 - float(np.sum(np.abs(want) ** 2)) / d)
            assert np.float64(errors[k]).tobytes() == \
                np.float64(error).tobytes()
            assert leakages[k].tobytes() == np.float64(leakage).tobytes()
            (error,), (leakage,) = manifold.end_points(x[None])
            assert error == errors[k]
            assert leakage == leakages[k]
        order = [3, 0, 4]
        assert manifold.logicals(xs[order]).tobytes() == a[order].tobytes()
        sub_errors, sub_leakages = manifold.end_points(xs[order])
        assert sub_errors == [errors[k] for k in order]
        assert sub_leakages.tobytes() == leakages[order].tobytes()

    def test_ties_go_to_earliest_start(self):
        # Every start reaches the identity exactly (error 0.0) at a
        # different point, so the winner shows which start was kept.
        target = np.eye(2, dtype=np.complex128)
        manifold = _RotationManifold(fock_encoding(make_basis(2, 2)), target)
        starts = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, (4, 3))
        ends, errors, _, _, _ = _descend(manifold, starts)
        assert errors == [0.0] * 4
        assert len({tuple(end) for end in ends}) == 4
        res = _multistart(manifold, target, list(starts), seed=0)
        assert res.params == tuple(float(v) for v in ends[0])

    # The spacing is fixed; its parameter only names it in the test ids.
    @pytest.mark.parametrize("spacing", [_SEED_SPACING])
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("name", sorted(SCAN_TARGETS))
    def test_blocked_scan_matches_slice_loop(self, name, n, spacing):
        # From N = 7 on, one call over all 33 theta' values would give
        # different slab bits; the blocks of _SCAN_ROTATIONS do not.
        target = SCAN_TARGETS[name]
        enc = fock_encoding(make_basis(2, n))
        start = _seed_scan(_RotationManifold(enc, target))
        params = _scan_reference(target, enc)
        assert start.tobytes() == np.array(params).tobytes()


class TestSearchQuality:
    # Every search must land within a rounding allowance below the proven
    # floor and within 1e-12 above it.
    ABOVE = 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_seeded_searches_reach_proven_floor(self, n):
        rng = SplitMix64(0x5EA5C8).derive(n)
        enc = fock_encoding(make_basis(2, n))
        misses = []
        for i in range(8):
            targets = {
                "hadamard": hadamard_gate(),
                "t_hadamard": t_gate() @ hadamard_gate(),
                "ry": r_y(2.0 * math.pi * rng.uniform()),
            }
            for name, target in targets.items():
                res = sg_gate_search(target, enc, restarts=4 + i % 5,
                                     seed=rng.next_u64())
                gap = res.error - fock_pair_floor(target, n)
                if not -ROUNDING <= gap <= self.ABOVE:
                    misses.append(f"{name} #{i}: error - floor = {gap:.3e}")
        assert not misses

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_descents_end_at_rounding_level(self, n):
        # Near the minimum f changes only by rounding, where Armijo's test
        # fails for every step; the approximate Wolfe test then accepts a
        # step or the descent ends.  These searches take at most 23
        # evaluations per restart.  Without that test the N = 1 r_y(1.0)
        # search takes 45 per restart and the N = 3 one over 1,500.
        enc = fock_encoding(make_basis(2, n))
        for target in (hadamard_gate(), t_gate() @ hadamard_gate(), r_y(1.0)):
            res = sg_gate_search(target, enc, restarts=8)
            assert res.evaluations <= 40 * res.restarts

    def test_cnot_five_restarts_reach_fixture(self):
        enc = fock_encoding(make_basis(2, 1))
        want = FIXTURES["gate_floors"]["cnot"]["1"]
        misses = []
        for seed in range(1, 31):
            res = cnot_search(enc, restarts=5, seed=seed)
            if abs(res.error - want) > 1e-6:
                misses.append(f"seed {seed}: {res.error!r}")
        assert not misses


class TestCnot:
    def test_identity_target_is_reachable(self):
        # cnot_search's first start, descended on the identity target.
        manifold = _mesh_manifold(1, np.eye(4))
        _, errors, _, _, _ = _descend(manifold, np.full((1, 16), 1e-3))
        assert errors[0] <= 1e-10

    def test_cnot_floor_matches_fixture(self):
        enc = fock_encoding(make_basis(2, 1))
        res = cnot_search(enc, restarts=4, seed=3)
        want = FIXTURES["gate_floors"]["cnot"]["1"]
        assert res.error >= want - 1e-4
        assert res.error > 0.05

    def test_single_restart_moves_off_its_start(self):
        # The all-zero mesh is stationary for CNOT; the first start is
        # offset from it, so even one restart must descend.
        enc = fock_encoding(make_basis(2, 1))
        res = cnot_search(enc, restarts=1, seed=1)
        assert res.iterations > 0
        assert np.max(np.abs(np.array(res.params) - 1e-3)) > 1e-2
        assert res.error < 0.5 - 1e-3

    def test_dimension_cap(self):
        # Two N = 92 qubits span C(187, 3) = 1,072,445 > 2^20 four-mode states.
        enc = fock_encoding(make_basis(2, 92))
        with pytest.raises(DimensionCapError):
            cnot_search(enc, restarts=1)


class TestStackBound:
    """Each search checks its largest matrix stack before it builds one."""

    @pytest.mark.parametrize("n, restarts, mesh", [
        (1671, 8, False), (2047, 1, False), (8, 8, True), (8, 11, True)])
    def test_edges_pass(self, n, restarts, mesh):
        _check_stack(n, restarts, mesh)

    def test_rotation_search_over_raises_first(self, monkeypatch):
        import ssrc.encodings as encodings

        def refuse(*args):
            raise AssertionError("the search built its manifold")

        monkeypatch.setattr(encodings, "_RotationManifold", refuse)
        enc = fock_encoding(make_basis(2, 1672))
        with pytest.raises(ValueError, match="N=1672 needs a stack of 24 "
                           "complex 1673 x 1673 matrices"):
            sg_gate_search(hadamard_gate(), enc, restarts=8)
        enc = fock_encoding(make_basis(2, 2048))
        with pytest.raises(ValueError, match="N=2048 needs a stack of 16 "):
            sg_gate_search(hadamard_gate(), enc, restarts=1)

    def test_mesh_search_over_raises_first(self, monkeypatch):
        import ssrc.encodings as encodings

        def refuse(*args):
            raise AssertionError("the search built its code columns")

        monkeypatch.setattr(encodings, "_composite_codes", refuse)
        enc = fock_encoding(make_basis(2, 9))
        with pytest.raises(ValueError, match="N=9 needs a stack of 48 "
                           "complex 1330 x 1330 matrices"):
            cnot_search(enc, restarts=8)
        with pytest.raises(ValueError, match="N=8 needs a stack of 72 "):
            cnot_search(fock_encoding(make_basis(2, 8)), restarts=12)


class TestFeasibilityReport:
    def test_report_fields(self):
        enc = fock_encoding(make_basis(2, 2))
        search = sg_gate_search(hadamard_gate(), enc, restarts=1, seed=2)
        floor = fock_pair_floor(hadamard_gate(), 2)
        report = feasibility_report(enc, "hadamard", search, floor)
        assert report["encoding"] == "fock-N2"
        assert report["N"] == 2
        assert report["target_gate"] == "hadamard"
        assert report["best_error"] == search.error
        assert report["certified_floor"] == floor
        assert report["restarts"] == 1
        json.dumps(report)  # must be serializable as-is


class TestGateMatrices:
    def test_cnot_matrix(self):
        mat = cnot_gate()
        assert np.array_equal(mat @ mat, np.eye(4))
        assert mat[2, 3] == mat[3, 2] == 1.0

    def test_phase_gate_composition(self):
        assert np.allclose(
            phase_gate(math.pi / 4) @ phase_gate(math.pi / 4),
            phase_gate(math.pi / 2),
        )
        assert np.allclose(t_gate(), phase_gate(math.pi / 4))

    def test_hadamard_involution(self):
        h = hadamard_gate()
        assert np.max(np.abs(h @ h - np.eye(2))) < 1e-15

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrc import schwinger, synthesis
from ssrc.encodings import _MESH_PAIRS
from ssrc.hilbert import (
    State,
    basis_state,
    fidelity,
    make_basis,
    random_state,
)
from ssrc.prng import SplitMix64
from ssrc.schwinger import (
    InvalidModePairError,
    MajoranaSpec,
    NonHermitianGeneratorError,
    _hop_csr,
    _hop_product,
    bloch_vector,
    exp_unitary,
    j_operator,
    majorana_to_state,
    point_multiset_distance,
    rotation,
    state_to_majorana,
    su2_point_matrix,
    transform_points,
)
from ssrc.synthesis import (
    plan_multimode,
    plan_two_mode,
    random_support_target,
)


def _dense(op):
    return op.toarray() if sp.issparse(op) else op


def _apply(u, state):
    return State(state.basis, u @ state.amplitudes, check_drift=True)


class TestAlgebra:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_commutators(self, n):
        basis = make_basis(2, n)
        jx, jy, jz = (_dense(j_operator(basis, ax)) for ax in "xyz")
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_ladder_commutator_and_matrix_elements(self, n):
        basis = make_basis(2, n)
        jp = _dense(j_operator(basis, "+"))
        jm = _dense(j_operator(basis, "-"))
        jz = _dense(j_operator(basis, "z"))
        assert np.max(np.abs(jp @ jm - jm @ jp - 2 * jz)) < 1e-12
        for k in range(n):
            expect = math.sqrt((k + 1) * (n - k))
            assert abs(jp[k + 1, k] - expect) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_casimir(self, n):
        basis = make_basis(2, n)
        jx, jy, jz = (_dense(j_operator(basis, ax)) for ax in "xyz")
        casimir = jx @ jx + jy @ jy + jz @ jz
        j = n / 2.0
        assert np.max(
            np.abs(casimir - j * (j + 1) * np.eye(n + 1))
        ) < 1e-12

    def test_jz_diagonal(self):
        basis = make_basis(2, 4)
        jz = _dense(j_operator(basis, "z"))
        for idx, occ in enumerate(basis.occupations):
            assert jz[idx, idx] == (occ[0] - occ[1]) / 2.0

    def test_mode_pair_selection(self):
        basis = make_basis(3, 2)
        jz = _dense(j_operator(basis, "z", mode_pair=(1, 2)))
        for idx, occ in enumerate(basis.occupations):
            assert jz[idx, idx] == (occ[1] - occ[2]) / 2.0
        with pytest.raises(InvalidModePairError):
            j_operator(basis, "x", mode_pair=(0, 0))
        with pytest.raises(InvalidModePairError):
            j_operator(basis, "x", mode_pair=(0, 3))

    @pytest.mark.parametrize("modes, n", [(2, 5), (3, 4), (4, 3)])
    def test_hops_match_per_state_reference(self, modes, n):
        # One occupation at a time, through index_of: the reference for
        # the array expressions over the occupation table.
        basis = make_basis(modes, n)
        occupations = basis.occupations.tolist()
        for i in range(modes):
            for j in range(modes):
                if i == j:
                    continue
                hop = np.zeros((basis.dimension,) * 2)
                for col, occ in enumerate(occupations):
                    new = list(occ)
                    if occ[j] > 0:
                        new[i] += 1
                        new[j] -= 1
                        hop[basis.index_of(new), col] = math.sqrt(
                            (occ[i] + 1) * occ[j])
                assert np.array_equal(
                    _dense(j_operator(basis, "+", (i, j))), hop)

    def test_shared_hop_matrix_is_read_only(self):
        # Writing through a returned generator would corrupt every later
        # caller of the cached hop matrix on this basis.
        basis = make_basis(2, 4)
        jp = j_operator(basis, "+")
        assert jp is _hop_csr(basis, 0, 1)
        for arr in (jp.data, jp.indices, jp.indptr):
            with pytest.raises(ValueError):
                arr[:] = 0
        with pytest.raises(ValueError):
            jp *= 2
        assert np.array_equal(_hop_csr(basis, 0, 1).data,
                              np.sqrt([4.0, 6.0, 6.0, 4.0]))

    HOP_CASES = [(2, n, (0, 1)) for n in range(9)] + [
        (4, n, pair) for n in (2, 4) for pair in sorted(set(_MESH_PAIRS))
    ] + [(2, n, "plan_two_mode") for n in range(2, 9)] + [
        (3, 3, "plan_multimode"), (4, 2, "plan_multimode")
    ]

    @pytest.mark.parametrize(
        "k, n, case", HOP_CASES,
        ids=[f"K{k}-N{n}-" + (case if isinstance(case, str) else
                              "{}{}".format(*case))
             for k, n, case in HOP_CASES],
    )
    def test_dense_hop_has_the_sparse_bits(self, k, n, case, monkeypatch):
        # The gate searches build Jy from a dense hop, and the planners
        # and ``execute_plan`` read every sweep generator as a dense hop
        # product: their bits must be those of the product of the shared
        # sparse hop matrices from the identity, and each is shared too.
        basis = make_basis(k, n)
        if isinstance(case, str):
            # A cached solver would read no generator.
            synthesis._solver.cache_clear()
            read = []

            def recording(basis, pairs):
                read.append(pairs)
                return _hop_product(basis, pairs)

            monkeypatch.setattr(synthesis, "_hop_product", recording)
            if case == "plan_two_mode":
                plan_two_mode(random_state(basis, n))
            else:
                plan_multimode(random_support_target(basis, 2, n))
            assert read
        else:
            read = [(case,)]
        for pairs in read:
            dense = _hop_product(basis, pairs)
            ref = np.eye(basis.dimension, dtype=np.complex128)
            for i, j in pairs:
                ref = _hop_csr(basis, i, j).toarray() @ ref
            assert not ref.imag.any()
            assert dense.dtype == ref.real.dtype
            assert dense.tobytes() == ref.real.tobytes()
            assert not dense.flags.writeable


class TestExpUnitary:
    def test_requires_hermitian(self):
        basis = make_basis(2, 2)
        with pytest.raises(NonHermitianGeneratorError):
            exp_unitary(j_operator(basis, "+"), 0.3)
        with pytest.raises(NonHermitianGeneratorError):
            exp_unitary(j_operator(basis, "+").toarray(), 0.3)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_group_property_and_unitarity(self, chi1, chi2):
        basis = make_basis(2, 4)
        gen = j_operator(basis, "y")
        u1 = _dense(exp_unitary(gen, chi1))
        u2 = _dense(exp_unitary(gen, chi2))
        u12 = _dense(exp_unitary(gen, chi1 + chi2))
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12
        assert np.max(np.abs(u1 @ u1.conj().T - np.eye(5))) < 1e-12

    def test_rotation_overlap_closed_form(self):
        for n in (1, 4, 17):
            basis = make_basis(2, n)
            start = basis_state(basis, (0, n))
            for theta in (0.3, 1.1, 2.5):
                rotated = _apply(rotation(basis, theta, 0.7), start)
                overlap = abs(
                    np.vdot(start.amplitudes, rotated.amplitudes)
                )
                assert abs(overlap - math.cos(theta / 2) ** n) < 1e-12

    def test_rotation_amplitudes_binomial(self):
        n, theta, phi = 6, 0.9, 1.3
        basis = make_basis(2, n)
        rotated = _apply(rotation(basis, theta, phi), basis_state(basis, (0, n)))
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expect = np.array(
            [
                np.exp(-1j * phi * n / 2)
                * math.sqrt(math.comb(n, k))
                * (np.exp(1j * phi) * s) ** k
                * c ** (n - k)
                for k in range(n + 1)
            ]
        )
        assert np.max(np.abs(np.asarray(rotated.amplitudes) - expect)) < 1e-12

    def test_pi_rotation_moves_all_photons(self):
        basis = make_basis(2, 5)
        flipped = _apply(rotation(basis, math.pi, 0.0),
                         basis_state(basis, (0, 5)))
        assert abs(abs(flipped.amplitude((5, 0))) - 1.0) < 1e-12

    def test_rejects_basis_above_dense_limit(self, monkeypatch):
        # The exponential is dense, so the size rule is checked before a
        # generator is densified or decomposed.
        monkeypatch.setattr(schwinger, "DENSE_EXP_LIMIT", 4)
        u = rotation(make_basis(2, 3), 0.3, 0.2)
        assert u.shape == (4, 4)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

        def no_dense(*args, **kwargs):
            raise AssertionError("densified above the limit")

        monkeypatch.setattr(sp.csr_matrix, "toarray", no_dense)
        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        basis = make_basis(2, 4)
        with pytest.raises(ValueError, match="DENSE_EXP_LIMIT = 4"):
            exp_unitary(j_operator(basis, "y"), 0.3)
        with pytest.raises(ValueError, match="DENSE_EXP_LIMIT = 4"):
            rotation(basis, 0.3, 0.2)


class TestMajorana:
    def test_coincident_points_give_rotated_reference(self):
        n, theta, phi = 4, 1.0, 0.6
        basis = make_basis(2, n)
        spec = MajoranaSpec(points=((theta, phi),) * n)
        state = majorana_to_state(spec, basis)
        reference = _apply(rotation(basis, theta, phi),
                           basis_state(basis, (0, n)))
        assert fidelity(state, reference) > 1 - 1e-12

    @pytest.mark.parametrize("n", [200, 400])
    def test_coincident_points_at_large_n(self, n):
        # sqrt(n!(N-n)!) alone overflows the norm (N = 200) or exp (N = 400).
        theta, phi = 1.0, 0.6
        basis = make_basis(2, n)
        state = majorana_to_state(MajoranaSpec(points=((theta, phi),) * n),
                                  basis)
        reference = _apply(rotation(basis, theta, phi),
                           basis_state(basis, (0, n)))
        assert fidelity(state, reference) > 1 - 1e-12
        assert np.max(np.abs(np.abs(state.amplitudes)
                             - np.abs(reference.amplitudes))) < 1e-12

    def test_all_poles(self):
        basis = make_basis(2, 3)
        north = majorana_to_state(MajoranaSpec(points=((0.0, 0.0),) * 3), basis)
        assert abs(abs(north.amplitude((0, 3))) - 1.0) < 1e-14
        south = majorana_to_state(
            MajoranaSpec(points=((math.pi, 0.0),) * 3), basis
        )
        assert abs(abs(south.amplitude((3, 0))) - 1.0) < 1e-14

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_round_trip_random_states(self, n):
        basis = make_basis(2, n)
        rng = SplitMix64(0xA11CE)
        for i in range(10):
            state = random_state(basis, rng.derive(i))
            spec = state_to_majorana(state)
            assert len(spec.points) == n
            back = majorana_to_state(spec, basis)
            assert fidelity(state, back) >= 1 - 1e-8

    def test_degree_deficit_yields_north_pole_points(self):
        basis = make_basis(2, 4)
        state = basis_state(basis, (1, 3))  # polynomial degree 1 < N
        spec = state_to_majorana(state)
        poles = sum(1 for th, _ in spec.points if abs(th) < 1e-12)
        assert poles == 3

    def test_rotation_covariance_of_point_multiset(self):
        n, theta, phi = 6, 0.8, 2.1
        basis = make_basis(2, n)
        state = random_state(basis, 2024)
        rotated = _apply(rotation(basis, theta, phi), state)
        direct = state_to_majorana(rotated).points
        pushed = transform_points(
            state_to_majorana(state).points, su2_point_matrix(theta, phi)
        )
        assert point_multiset_distance(direct, pushed) < 1e-6

    def test_su2_point_matrix_is_special_unitary(self):
        mat = su2_point_matrix(0.7, 1.9)
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12

    def test_bloch_vector(self):
        assert np.allclose(bloch_vector((0.0, 0.0)), [0, 0, 1])
        vec = bloch_vector((math.pi / 2, 0.0))
        assert np.allclose(vec, [1, 0, 0], atol=1e-12)

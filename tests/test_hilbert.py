import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrc.hilbert import (
    DIMENSION_CAP_DEFAULT,
    BasisMismatchError,
    DimensionCapError,
    FockBasis,
    InvalidOccupationError,
    State,
    basis_state,
    fidelity,
    inner_product,
    make_basis,
    random_state,
)
from ssrc.prng import SplitMix64


class TestBasis:
    def test_dimension_formula(self):
        for modes, n in [(2, 0), (2, 5), (3, 4), (4, 3), (5, 2)]:
            basis = make_basis(modes, n)
            assert basis.dimension == math.comb(n + modes - 1, modes - 1)
            assert len(basis.occupations) == basis.dimension

    def test_two_mode_ordering_is_first_mode_ascending(self):
        basis = make_basis(2, 4)
        assert basis.occupations.tolist() == [
            [0, 4], [1, 3], [2, 2], [3, 1], [4, 0],
        ]

    def test_first_entry_concentrates_photons_in_last_mode(self):
        for modes in (2, 3, 4):
            basis = make_basis(modes, 5)
            assert basis.occupations[0].tolist() == [0] * (modes - 1) + [5]

    def test_occupations_sum_to_total(self):
        basis = make_basis(4, 6)
        assert all(sum(occ) == 6 for occ in basis.occupations)
        assert len(set(map(tuple, basis.occupations.tolist()))) == basis.dimension

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=8),
    )
    def test_index_bijection(self, modes, n):
        basis = make_basis(modes, n)
        for idx, occ in enumerate(basis.occupations.tolist()):
            assert basis.index_of(occ) == idx
            assert basis.occupation_of(idx) == tuple(occ)

    def test_index_of_rejects_bad_occupations(self):
        basis = make_basis(2, 3)
        with pytest.raises(InvalidOccupationError):
            basis.index_of((1, 1))
        with pytest.raises(InvalidOccupationError):
            basis.index_of((4, -1))
        with pytest.raises(InvalidOccupationError):
            basis.index_of((1, 1, 1))
        with pytest.raises(InvalidOccupationError):
            make_basis(3, 2).index_of((3, 0, -1))

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            make_basis(2, DIMENSION_CAP_DEFAULT + 5)
        edge = make_basis(2, DIMENSION_CAP_DEFAULT - 1)
        assert edge.dimension == DIMENSION_CAP_DEFAULT
        with pytest.raises(DimensionCapError):
            make_basis(2, DIMENSION_CAP_DEFAULT)

    def test_equality_ignores_cached_index(self):
        a, b = make_basis(3, 4), make_basis(3, 4)
        assert a == b and hash(a) == hash(b)
        assert a != make_basis(2, 4)
        assert len(a.occupations) == 15 and "occupations" in vars(a)
        fresh = make_basis(3, 4)
        assert "occupations" not in vars(fresh)
        assert a == fresh and hash(a) == hash(fresh)

    def test_basis_is_its_two_numbers(self):
        basis = make_basis(2, 10**6)
        assert dataclasses.astuple(basis) == (2, 10**6)
        assert basis.dimension == 10**6 + 1
        assert basis.index_of((7, 10**6 - 7)) == 7
        assert "occupations" not in vars(basis)

    def test_index_of_exact_beyond_int64(self):
        # The dimension exceeds 2**63: ranking in int64 would wrap.  Only
        # a basis built directly is above the cap of make_basis.
        basis = FockBasis(40, 400)
        assert basis.dimension > 2**63
        assert basis.index_of((400,) + (0,) * 39) == basis.dimension - 1
        assert basis.index_of((0,) * 39 + (400,)) == 0
        assert "occupations" not in vars(basis)

    @pytest.mark.parametrize("modes, n", [(1, 3), (2, 9), (3, 6), (5, 4)])
    def test_rank_inverts_the_table(self, modes, n):
        basis = make_basis(modes, n)
        table = basis.occupations
        assert not table.flags.writeable
        assert table.tolist() == sorted(
            list(occ) for occ in itertools.product(range(n + 1), repeat=modes)
            if sum(occ) == n
        )
        assert np.array_equal(basis.rank(table), np.arange(basis.dimension))
        assert np.array_equal(basis.rank(table[::-1]),
                              np.arange(basis.dimension)[::-1])


class TestState:
    def test_normalization(self):
        basis = make_basis(2, 3)
        state = State(basis, np.array([3.0, 0.0, 4.0, 0.0]))
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)
        assert np.isclose(abs(state.amplitude((0, 3))), 0.6)

    def test_zero_norm_rejected(self):
        basis = make_basis(2, 2)
        with pytest.raises(ValueError):
            State(basis, np.zeros(3))

    def test_non_finite_norm_rejected(self):
        basis = make_basis(2, 2)
        with pytest.raises(ValueError, match="norm"), \
                np.errstate(over="ignore"):
            State(basis, np.array([1e200, 1e200, 0.0]))
        with pytest.raises(ValueError, match="norm"):
            State(basis, np.array([np.nan, 1.0, 0.0]))

    def test_amplitudes_read_only(self):
        state = basis_state(make_basis(2, 2), (1, 1))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_drift_notice_only_when_requested(self, caplog):
        basis = make_basis(2, 1)
        drifted = np.array([1.0 + 5e-8, 0.0])
        with caplog.at_level("WARNING", logger="ssrc.hilbert"):
            State(basis, drifted)  # silent by default
            assert not caplog.records
            State(basis, drifted, check_drift=True)
            assert any("drift" in rec.message for rec in caplog.records)

    def test_basis_state(self):
        basis = make_basis(3, 2)
        state = basis_state(basis, (0, 1, 1))
        vec = np.asarray(state.amplitudes)
        assert vec[basis.index_of((0, 1, 1))] == 1.0
        assert np.sum(np.abs(vec)) == 1.0
        with pytest.raises(InvalidOccupationError):
            basis_state(basis, (2, 1, 1))

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25)
    def test_random_state_is_normalized_and_seed_deterministic(self, seed):
        basis = make_basis(2, 6)
        x = random_state(basis, seed)
        y = random_state(basis, seed)
        assert np.array_equal(x.amplitudes, y.amplitudes)
        assert abs(np.linalg.norm(x.amplitudes) - 1.0) < 1e-12

    def test_random_state_accepts_generator(self):
        basis = make_basis(2, 4)
        x = random_state(basis, SplitMix64(7))
        y = random_state(basis, SplitMix64(7))
        assert np.array_equal(x.amplitudes, y.amplitudes)

    def test_json_round_trip_bit_faithful(self):
        basis = make_basis(3, 3)
        state = random_state(basis, 123)
        again = State.from_json(state.to_json())
        assert np.array_equal(state.amplitudes, again.amplitudes)
        assert again.basis == basis

    def test_json_drops_exact_zeros(self):
        state = basis_state(make_basis(2, 5), (2, 3))
        doc = json.loads(state.to_json())
        assert len(doc["entries"]) == 1

    @pytest.mark.parametrize("doc, message", [
        pytest.param({"modes": 2, "photons": 2, "entries": [[-1, 1, 0]]},
                     r"state: entry 0: index -1 is outside 0\.\.2",
                     id="negative-index"),
        pytest.param({"modes": 2, "photons": 2, "entries": [[5, 1, 0]]},
                     r"state: entry 0: index 5 is outside 0\.\.2",
                     id="index-beyond-dimension"),
        pytest.param({"modes": 2, "photons": 2, "entries": [[0.7, 1, 0]]},
                     "state: entry 0: index must be an integer, got 0.7",
                     id="fractional-index"),
        pytest.param({"modes": 2, "photons": 2,
                      "entries": [[1, 1, 0], [0, 1, 0], [1, 0, 1]]},
                     "state: entry 2: index 1 repeats an entry",
                     id="repeated-index"),
        pytest.param({"modes": 2.7, "photons": 2, "entries": [[0, 1, 0]]},
                     "state: modes must be an integer, got 2.7",
                     id="fractional-modes"),
        pytest.param({"modes": 2, "photons": 2.9, "entries": [[0, 1, 0]]},
                     "state: photons must be an integer, got 2.9",
                     id="fractional-photons"),
        pytest.param({"modes": 2, "entries": [[0, 1, 0]]},
                     "state: missing key 'photons'", id="missing-photons"),
        pytest.param({"modes": 2, "photons": 2},
                     "state: missing key 'entries'", id="missing-entries"),
        pytest.param({"modes": 2, "photons": 2, "entries": [[0, 1]]},
                     r"state: entry 0 must be an array of 3, got \[0, 1\]",
                     id="short-entry"),
        pytest.param({"modes": 2, "photons": 2, "entries": [[0, "1", 0]]},
                     "state: entry 0: re must be a number, got '1'",
                     id="string-amplitude"),
        pytest.param({"modes": 2, "photons": 2, "entries": [[0, 1, True]]},
                     "state: entry 0: im must be a number, got True",
                     id="boolean-amplitude"),
        pytest.param({"modes": 2, "photons": 2, "entries": [[0, 10**400, 0]]},
                     "state: entry 0: re is an integer beyond double range",
                     id="huge-integer-amplitude"),
        pytest.param([2, 2], r"state must be a JSON object, got \[2, 2\]",
                     id="not-an-object"),
    ])
    def test_from_json_rejects_invalid_input(self, doc, message):
        with pytest.raises(ValueError, match=message):
            State.from_json(json.dumps(doc))

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=20)
    def test_json_round_trip_property(self, seed):
        basis = make_basis(2, 9)
        state = random_state(basis, seed)
        again = State.from_json(state.to_json())
        assert np.array_equal(state.amplitudes, again.amplitudes)


class TestInnerProduct:
    def test_orthonormal_basis_states(self):
        basis = make_basis(2, 2)
        a, b = basis_state(basis, (0, 2)), basis_state(basis, (1, 1))
        assert inner_product(a, a) == 1.0
        assert inner_product(a, b) == 0.0
        assert fidelity(a, a) == 1.0
        assert fidelity(a, b) == 0.0

    def test_conjugate_linear_in_first_argument(self):
        basis = make_basis(2, 5)
        x, y = random_state(basis, 1), random_state(basis, 2)
        assert np.isclose(
            inner_product(x, y), np.conj(inner_product(y, x))
        )

    def test_fidelity_clamped_to_unit(self):
        basis = make_basis(2, 40)
        x = random_state(basis, 11)
        assert 1.0 - 1e-12 < fidelity(x, x) <= 1.0

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            inner_product(
                basis_state(make_basis(2, 2), (0, 2)),
                basis_state(make_basis(2, 3), (0, 3)),
            )

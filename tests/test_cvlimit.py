import cmath
import json
import math
import pathlib
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrc.cvlimit import (
    DISPLACEMENT_WORK_MAX,
    WINDOW_N_MAX,
    AmplitudeBoundError,
    ConvergenceReport,
    WindowTooSmallError,
    coherent_convergence,
    coherent_from_rotation,
    coherent_window_fidelity,
    commutator_residual,
    displaced_fock_window,
    displacement_convergence,
    displacement_residual,
    fit_rate,
    overlap_asymptotics,
    phase_locking_curve,
    quadrature_operator,
    squeezed_convergence,
    squeezed_from_rotation,
    squeezed_log_norm_closed_form,
    squeezed_window_fidelity,
    truncated_coherent_reference,
    truncated_squeezed_reference,
    uncertainty_check,
)
import ssrc.cvlimit as cvlimit
from ssrc.cvlimit import (_RECURRENCE_BLOCK, _check_displacement_k,
                          _displaced_windows, _lgam_entries, _log_factorial)
from ssrc.hilbert import (DimensionCapError, State, basis_state,
                          inner_product, make_basis)
from ssrc.schwinger import _hop_csr, exp_unitary, j_operator, rotation

FIXTURES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "oracles.json").read_text()
)


def _displaced_window(alpha, k, n_max, n_tot=None):
    """One displaced-Fock window computed alone (exact with ``n_tot``
    None), by the per-window recurrence that ``_displaced_windows``
    stacks: the reference its rows must match in every bit."""
    from scipy.special import gammaln

    out = np.zeros(n_max + 1, dtype=np.complex128)
    if alpha == 0:
        out[k] = 1.0
        return out
    m = np.arange(n_max + 1)
    lo, hi = np.minimum(m, k), np.maximum(m, k)
    a = hi - lo
    mod2 = abs(alpha) ** 2
    log_g = (0.5 * (gammaln(hi + 1) - gammaln(lo + 1)) - gammaln(a + 1)
             + a * math.log(abs(alpha)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n_tot is None:
            degree = lo
            log_g -= mod2 / 2.0
        else:
            b = np.abs(n_tot - m - k)
            degree = np.minimum(lo, n_tot - hi)
            edge = np.concatenate(
                [[0.0], np.cumsum(np.log1p(-np.arange(n_max) / n_tot))])
            log_g += (0.5 * (edge[hi] - edge[lo])
                      + 0.5 * b * math.log1p(-mod2 / n_tot))
        poly, diff = np.ones(n_max + 1), np.zeros(n_max + 1)
        for j in range(k):
            if n_tot is None:
                ratio, drive = j / (j + a + 1.0), mod2 / (j + a + 1.0)
            else:
                s = 2.0 * j + a + b
                ratio = 0.0 if j == 0 else (j * (j + b) * (s + 2)
                                            / ((j + a + b + 1) * s
                                               * (j + a + 1)))
                drive = ((s + 1) * (s + 2) * (2.0 * mod2 / n_tot)
                         / (2 * (j + a + b + 1) * (j + a + 1)))
            step = ratio * diff - drive * poly
            live = j < degree
            diff = np.where(live, step, diff)
            poly = np.where(live, poly + step, poly)
        mag = np.sign(poly) * np.exp(log_g + np.log(np.abs(poly)))
    if not np.all(np.isfinite(mag)):
        raise OverflowError("displacement series exceeds double range")
    sign = 1.0 - 2.0 * ((k - lo) % 2)
    return sign * mag * np.exp(1j * cmath.phase(alpha) * (m - k))


def _window_cases(count, seed):
    """(alpha, k, n_max, N): the edges, windows whose k spans several
    recurrence blocks, then seeded draws with n_max <= 40."""
    rng = random.Random(seed)
    cases = [(0.0, 3, 6, 7), (0.8 - 0.3j, 0, 12, 100), (1.1j, 9, 9, 500),
             (1.3 + 0.2j, 5, 12, 12), (1.9, 30, 30, 30),
             (0.999 * math.sqrt(20), 6, 20, 20),
             (1.3 + 0.4j, 300, 400, 10**6), (3.0 + 1.0j, 400, 400, 400),
             (0.7j, 129, 2000, 10**5)]
    while len(cases) < count:
        n_max = rng.randint(0, 40)
        k = rng.randint(0, n_max)
        n = rng.choice((n_max, n_max + 1, rng.randint(n_max, 1000),
                        rng.randint(n_max, 10**12))) or 1
        draw = rng.random()
        mag = (0.0 if draw < 0.05
               else rng.uniform(0.9, 0.99999) * math.sqrt(n) if draw < 0.35
               else rng.uniform(0.0, min(2.0, math.sqrt(n))))
        cases.append((cmath.rect(mag, rng.uniform(-math.pi, math.pi)),
                      k, n_max, n))
    return cases


class TestLogFactorial:
    """``_log_factorial`` ports the Cephes ``lgam`` that
    ``scipy.special.gammaln`` runs, and must give its bits."""

    @pytest.fixture
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(cvlimit, "_LOG_FACTORIALS",
                            cvlimit._LOG_FACTORIALS[:0])
        return monkeypatch

    def test_gammaln_bits(self, empty_table):
        from scipy.special import gammaln

        # The table at the cap, then every entry up to one past the largest
        # table a capped window can grow (2^21 entries): k! exact for
        # k <= 11, the polynomial below x = k + 1 = 1000, the short series
        # from there, and its omission past x = 1e8.
        k = np.arange(2**20)
        assert _log_factorial(k).tobytes() == gammaln(k + 1).tobytes()
        assert len(cvlimit._LOG_FACTORIALS) == 2**20
        for first, stop in ((0, 2**21 + 2), (10**8 - 3, 10**8 + 3)):
            k = np.arange(first, stop)
            assert (_lgam_entries(first, stop).tobytes()
                    == gammaln(k + 1).tobytes()), (first, stop)
        scattered = np.array([[5, 0], [3000, 12]])
        assert (_log_factorial(scattered).tobytes()
                == gammaln(scattered + 1).tobytes())

    def test_grown_in_steps_equals_built_at_once(self, empty_table):
        for top in (1, 12, 13, 999, 1000, 70_000):
            _log_factorial(np.arange(top))
        stepped = cvlimit._LOG_FACTORIALS
        assert len(stepped) == 70_000 and not stepped.flags.writeable
        empty_table.setattr(cvlimit, "_LOG_FACTORIALS", stepped[:0])
        _log_factorial(np.arange(70_000))
        assert cvlimit._LOG_FACTORIALS.tobytes() == stepped.tobytes()

    def test_rejects_negative_and_over_cap(self, empty_table):
        # A negative index would wrap round the table.
        with pytest.raises(ValueError, match="negative"):
            _log_factorial(np.array([3, -1]))
        with pytest.raises(DimensionCapError,
                           match="log-factorial count 1048577 exceeds cap"):
            _log_factorial(np.array([2**20]))
        assert len(cvlimit._LOG_FACTORIALS) == 0

    def test_threads_growing_the_table(self, empty_table):
        # Each call reads the table once, so a call whose table another
        # thread replaces, or cuts back to a prefix, still indexes its own.
        from scipy.special import gammaln

        wrong = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(100):
                    if rng.random() < 0.2:
                        cvlimit._LOG_FACTORIALS = cvlimit._LOG_FACTORIALS[:64]
                    k = np.arange(rng.randrange(1, 4000))
                    got = _log_factorial(k)
                    if got.tobytes() != gammaln(k + 1).tobytes():
                        wrong.append(seed)
            except Exception as exc:  # e.g. an index past a cut table
                wrong.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestCoherent:
    def test_matches_explicit_rotation_unitary(self):
        n, alpha = 24, 1.3 * np.exp(0.4j)
        basis = make_basis(2, n)
        state = coherent_from_rotation(alpha, n)
        theta = 2.0 * math.asin(abs(alpha) / math.sqrt(n))
        phi = float(np.angle(alpha))
        ref = rotation(basis, theta, phi) @ exp_unitary(
            j_operator(basis, "z"), -phi
        )
        expect = State(basis, ref @ basis_state(basis, (0, n)).amplitudes,
                       check_drift=True)
        overlap = abs(
            np.vdot(
                np.asarray(expect.amplitudes), np.asarray(state.amplitudes)
            )
        )
        assert overlap > 1 - 1e-13

    def test_zero_amplitude_is_reference(self):
        state = coherent_from_rotation(0.0, 8)
        assert state.amplitude((0, 8)) == 1.0

    def test_amplitude_bound(self):
        with pytest.raises(AmplitudeBoundError):
            coherent_from_rotation(2.0, 4)
        with pytest.raises(AmplitudeBoundError):
            coherent_from_rotation(math.sqrt(5.0), 5)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: coherent_window_fidelity(1e300, 100, 10),
                     id="window-fidelity"),
        pytest.param(lambda: overlap_asymptotics(1e300, 0.5, 100),
                     id="overlap-alpha"),
        pytest.param(lambda: overlap_asymptotics(0.5, 1e300, 100),
                     id="overlap-beta"),
        pytest.param(lambda: displacement_residual(1e300, 0, 100, 10),
                     id="displacement"),
        pytest.param(lambda: coherent_from_rotation(1e200, 100),
                     id="rotation"),
    ])
    def test_huge_amplitude_breaks_the_bound(self, call):
        # |alpha| ** 2 overflows here; the bound compares |alpha|·|alpha|.
        with pytest.raises(AmplitudeBoundError, match=r"\^2 = inf must be"):
            call()

    @given(
        st.floats(min_value=0.1, max_value=1.8),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=20, deadline=None)
    def test_normalized_with_phase_pattern(self, mag, ang):
        alpha = mag * complex(math.cos(ang), math.sin(ang))
        state = coherent_from_rotation(alpha, 50)
        amps = np.asarray(state.amplitudes)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
        for k in (1, 5, 20):
            if abs(amps[k]) > 1e-12:
                wrapped = (
                    float(np.angle(amps[k])) - k * ang + math.pi
                ) % (2 * math.pi) - math.pi
                assert abs(wrapped) < 1e-10

    def test_fixture_infidelities(self):
        # The fidelity is computed to machine precision, so the infidelity
        # (down to 1.5e-13 at N = 901,042) is pinned in absolute terms.
        fix = FIXTURES["coherent"]
        alpha, n_max = fix["alpha"], fix["n_max"]
        for row in fix["grid"]:
            got = 1.0 - coherent_window_fidelity(alpha, row["n"], n_max)
            assert abs(got - float(row["infidelity"])) <= 1e-14

    def test_truncated_reference_tail(self):
        # n_max = 10 keeps the Poisson tail above double roundoff; at
        # n_max = 30 the tail (~1e-34) underflows the 1 - norm² difference.
        ref = truncated_coherent_reference(1.0, 10)
        assert abs(np.linalg.norm(ref.coefficients) - 1.0) < 1e-12
        assert 1e-9 < ref.tail_mass < 1e-7
        assert truncated_coherent_reference(1.0, 30).tail_mass == 0.0
        # Poisson weights: |c_k|^2 proportional to 1/k!.
        probs = np.abs(ref.coefficients) ** 2
        assert probs[1] == pytest.approx(probs[0], rel=1e-10)
        assert probs[2] == pytest.approx(probs[0] / 2, rel=1e-10)


class TestDisplacement:
    def test_matches_expm_displaced_fock(self):
        from scipy.linalg import expm

        alpha, k, n_max = 0.8 - 0.3j, 2, 12
        dim = 60
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        d = expm(alpha * a.conj().T - np.conj(alpha) * a)
        col = d[: n_max + 1, k]
        window = displaced_fock_window(alpha, k, n_max)
        assert np.max(np.abs(window - col)) < 1e-13

    def test_finite_n_window_matches_rotation_column(self):
        n, alpha, k, n_max = 30, 0.9 + 0.2j, 3, 12
        basis = make_basis(2, n)
        theta = 2.0 * math.asin(abs(alpha) / math.sqrt(n))
        phi = float(np.angle(alpha))
        u = rotation(basis, theta, phi) @ exp_unitary(
            j_operator(basis, "z"), -phi
        )
        moved = State(basis, u @ basis_state(basis, (k, n - k)).amplitudes,
                      check_drift=True)
        (window,) = _displaced_windows(alpha, k, n_max, (n,))
        got = np.asarray(moved.amplitudes)[: n_max + 1]
        # Global phase of the unitary column is fixed by construction.
        assert np.max(np.abs(window - got)) < 1e-12

    def test_fixture_residuals(self):
        fix = FIXTURES["displacement"]
        alpha, k, n_max = fix["alpha"], fix["k"], fix["n_max"]
        for row in fix["grid"]:
            got = displacement_residual(alpha, k, row["n"], n_max)
            assert abs(got - float(row["residual"])) <= 1e-15

    def test_large_window_fixtures(self):
        # Windows beyond 170! and powers beyond double range, and one
        # where the explicit alternating series loses every digit.
        for case in FIXTURES["displacement"]["large"]:
            got = displacement_residual(case["alpha"], case["k"], case["n"],
                                        case["n_max"])
            assert got == pytest.approx(float(case["residual"]), rel=1e-13,
                                        abs=0)

    def test_zero_alpha_is_the_fock_state(self):
        for n_tot in (7, 1000):
            assert displacement_residual(0.0, 3, n_tot, 6) == 0.0
        window = displaced_fock_window(0j, 2, 5)
        assert np.array_equal(window, np.eye(6)[2])

    @given(
        st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=1.6)),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=5, max_value=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_windows_match_rotation_and_expm(self, mag, ang, k, n):
        from scipy.linalg import expm

        alpha = mag * complex(math.cos(ang), math.sin(ang))
        basis = make_basis(2, n)
        theta = 2.0 * math.asin(abs(alpha) / math.sqrt(n))
        u = rotation(basis, theta, ang) @ exp_unitary(
            j_operator(basis, "z"), -ang
        )
        column = State(basis, u @ basis_state(basis, (k, n - k)).amplitudes,
                       check_drift=True).amplitudes
        (window,) = _displaced_windows(alpha, k, n, (n,))
        assert np.max(np.abs(window - column)) < 1e-12
        a = np.diag(np.sqrt(np.arange(1, 60)), 1)
        d = expm(alpha * a.conj().T - np.conj(alpha) * a)
        assert np.max(np.abs(displaced_fock_window(alpha, k, 12)
                             - d[:13, k])) < 1e-13

    def test_stacked_windows_match_the_per_window_recurrence(self):
        # Both rows of the stack, and the exact window alone, are the
        # per-window recurrence's bits, whichever block a j falls in.
        cases = _window_cases(2000, 2025)
        assert any(k > _RECURRENCE_BLOCK // (2 * (n_max + 1))
                   for _, k, n_max, _ in cases)
        for alpha, k, n_max, n in cases:
            try:
                refs = (_displaced_window(alpha, k, n_max, n),
                        _displaced_window(alpha, k, n_max))
            except OverflowError:
                with pytest.raises(OverflowError):
                    _displaced_windows(alpha, k, n_max, (n, None))
                continue
            rows = _displaced_windows(alpha, k, n_max, (n, None))
            assert [row.tobytes() for row in rows] == [
                ref.tobytes() for ref in refs], (alpha, k, n_max, n)
            assert (displaced_fock_window(alpha, k, n_max).tobytes()
                    == refs[1].tobytes())

    def test_work_bound_edge(self):
        # (n_max + 1) k up to DISPLACEMENT_WORK_MAX passes; one step of k
        # more is refused before the recurrence runs, as is the k = n_max
        # = 2^20 - 1 that once ran for hours.
        n_max = 16383
        edge = DISPLACEMENT_WORK_MAX // (n_max + 1)
        _check_displacement_k(edge, n_max)
        assert displacement_residual(0.0, edge, 10**6, n_max) == 0.0
        for k, n_max in ((edge + 1, n_max), (2**20 - 1, 2**20 - 1)):
            with pytest.raises(ValueError, match=rf"\(n_max \+ 1\) k = "
                               rf"{(n_max + 1) * k} exceeds"):
                displacement_residual(1.0, k, 2**21, n_max)

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmallError):
            displacement_residual(3.0, 2, 10_000, 4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            displacement_residual(1.0, 12, 1000, 10)
        with pytest.raises(AmplitudeBoundError):
            displacement_residual(4.0, 2, 10, 40)


class TestSqueezed:
    def test_odd_occupations_exactly_zero(self):
        state = squeezed_from_rotation(0.7, 1.1, 6)
        amps = np.asarray(state.amplitudes)
        assert np.all(amps[1::2] == 0)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_zero_squeezing_is_reference(self):
        state = squeezed_from_rotation(0.0, 0.3, 5)
        assert state.amplitude((0, 10)) == 1.0

    def test_pair_phase_pattern(self):
        r, phi = 0.6, 0.9
        state = squeezed_from_rotation(r, phi, 8)
        amps = np.asarray(state.amplitudes)
        for k in (1, 3, 5):
            expect = (k * (phi + math.pi)) % (2 * math.pi)
            assert abs(
                (np.angle(amps[2 * k]) - expect + math.pi) % (2 * math.pi)
                - math.pi
            ) < 1e-10

    def test_log_norm_closed_form_fixture(self):
        for row in FIXTURES["squeezed"]["log_norm_grid"]:
            got = squeezed_log_norm_closed_form(row["r"], row["n_pairs"])
            want = float(row["log_norm"])
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_log_norm_zero_squeezing(self):
        from scipy.special import gammaln

        for n in (1, 5, 40):
            got = squeezed_log_norm_closed_form(0.0, n)
            assert got == pytest.approx(
                0.5 * float(gammaln(2 * n + 1)), rel=1e-14
            )

    def test_fixture_fidelity(self):
        fix = FIXTURES["squeezed"]
        got = squeezed_window_fidelity(
            fix["r"], fix["phi"], fix["n_pairs"], fix["n_max"]
        )
        assert abs(got - float(fix["fidelity"])) <= 1e-14

    def test_large_fixture_infidelities(self):
        # The oracle sums all N + 1 weights; the library stops at its
        # proven truncation bound.
        for case in FIXTURES["squeezed"]["large"]:
            got = 1.0 - squeezed_window_fidelity(
                case["r"], 0.0, case["n_pairs"], case["n_max"])
            assert abs(got - float(case["infidelity"])) <= 1e-14

    def test_reference_even_support(self):
        ref = truncated_squeezed_reference(0.5, 0.0, 11)
        assert np.all(ref.coefficients[1::2] == 0)
        assert abs(np.linalg.norm(ref.coefficients) - 1.0) < 1e-12


class TestWindows:
    """Window quantities cost O(window) and agree with the full states."""

    @pytest.mark.parametrize("n", [1, 2, 31, 1000, 100_003])
    def test_coherent_window_is_full_prefix(self, n):
        from ssrc.cvlimit import _coherent_amplitudes

        for alpha in (0.0, 0.3, 0.9 - 0.4j, -0.7j):
            full = np.asarray(coherent_from_rotation(alpha, n).amplitudes)
            for n_max in (0, 1, 5, 24, 30):
                if n_max > n:
                    continue
                window = _coherent_amplitudes(alpha, n, n_max)
                assert np.array_equal(window, full[: n_max + 1])
                ref = truncated_coherent_reference(alpha, n_max)
                want = min(1.0, abs(np.vdot(ref.coefficients,
                                            full[: n_max + 1])) ** 2)
                assert coherent_window_fidelity(alpha, n, n_max) == want

    @pytest.mark.parametrize("r, n", [(0.0, 7), (0.5, 1), (0.5, 9),
                                      (0.8, 5000), (3.0, 4000)])
    def test_squeezed_window_matches_full_state(self, r, n):
        from ssrc.cvlimit import _squeezed_amplitudes

        full = np.asarray(squeezed_from_rotation(r, 0.4, n).amplitudes)
        for n_max in sorted({0, 1, 2, 7, 20, 2 * n} & set(range(2 * n + 1))):
            window = _squeezed_amplitudes(r, 0.4, n, n_max // 2)
            assert np.max(np.abs(window - full[: n_max + 1: 2])) <= 1e-15

    @pytest.mark.parametrize("n, n_max", [
        (1, 0), (2, 1), (3, 2), (7, 6), (50, 10), (1000, 0), (1000, 1),
        (1000, 2), (1000, 37), (1000, 998), (1000, 999), (10_000, 25)])
    def test_commutator_matches_full_matrices(self, n, n_max):
        # Reference: the full matrices, built from the basis's J+ and J-.
        basis = make_basis(2, n)
        jp, jm = j_operator(basis, "+"), j_operator(basis, "-")
        q0, q1 = (
            (cmath.exp(-1j * phi) * jm + cmath.exp(1j * phi) * jp)
            / math.sqrt(2.0 * n)
            for phi in (0.0, math.pi / 2)
        )
        comm = (q0 @ q1 - q1 @ q0).tocsr()
        sector = comm[: n_max + 1, : n_max + 1].toarray()
        sector -= 1j * np.eye(n_max + 1)
        assert commutator_residual(n, n_max) == float(np.max(np.abs(sector)))

    def test_windows_build_no_basis(self, monkeypatch):
        import ssrc.cvlimit as cvlimit

        def refuse(*args, **kwargs):
            raise AssertionError("make_basis called")

        monkeypatch.setattr(cvlimit, "make_basis", refuse)
        hops = _hop_csr.cache_info().currsize
        assert 0 < commutator_residual(78_753, 10) < 1e-3
        assert _hop_csr.cache_info().currsize == hops
        assert 0 < coherent_window_fidelity(1.1 + 0.2j, 901_042, 30) <= 1
        assert 0 < squeezed_window_fidelity(0.7, 0.3, 489_285, 20) <= 1
        assert 0 < displacement_residual(1.2, 6, 99_000, 60) < 1e-3
        assert 0 < abs(overlap_asymptotics(1.1 + 0.3j, 0.4 - 0.2j,
                                           99_000).statevector) <= 1

    @pytest.mark.parametrize("n", [1, 2, 100, 99_000, 10**6])
    def test_overlap_window_has_the_full_bits(self, n):
        # Fixed amplitudes inside the bound, and pairs with |alpha|^2 close
        # to N, whose window reaches N.
        pairs = [(0.0, 0.0), (0.0, 0.6 - 0.3j), (0.5j, -0.4),
                 (1.1 + 0.3j, 0.4 - 0.2j), (-2.0 + 1.5j, 2.2 * cmath.exp(2j)),
                 (9.0 * cmath.exp(0.7j), -8.5j)]
        pairs = [(a, b) for a, b in pairs
                 if abs(a) ** 2 < n and abs(b) ** 2 < n]
        pairs += [(math.sqrt(0.999 * n) * cmath.exp(0.4j),
                   math.sqrt(0.9 * n) * cmath.exp(-2j)),
                  (0.0, 1j * math.sqrt(0.98 * n))]
        for alpha, beta in pairs:
            full = inner_product(coherent_from_rotation(alpha, n),
                                 coherent_from_rotation(beta, n))
            assert overlap_asymptotics(alpha, beta, n).statevector == full

    def test_overlap_costs_o_window(self, monkeypatch):
        import tracemalloc

        import ssrc.cvlimit as cvlimit

        windows = []
        amplitudes = cvlimit._coherent_amplitudes

        def recording(alpha, n_tot, k_max):
            windows.append(k_max)
            return amplitudes(alpha, n_tot, k_max)

        monkeypatch.setattr(cvlimit, "_coherent_amplitudes", recording)
        overlap_asymptotics(1.1 + 0.3j, 0.4 - 0.2j, 10**6)
        assert windows and max(windows) <= 1023
        monkeypatch.undo()
        # Warm first: the first call may grow the log-factorial table.
        overlap_asymptotics(1.1 + 0.3j, 0.4 - 0.2j, 10**6)
        tracemalloc.start()
        try:
            overlap_asymptotics(1.1 + 0.3j, 0.4 - 0.2j, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_window_cap_edge(self):
        # A window of 2^20 entries fits the cap at any N up to 2^40; one
        # entry more does not.  N itself is not capped by a basis.
        edge = 2**20 - 1
        assert 0 < coherent_window_fidelity(1.0, 2**21, edge) <= 1
        assert 0 < commutator_residual(2**21, edge) < 1
        for call in (lambda: coherent_window_fidelity(1.0, 2**21, edge + 1),
                     lambda: displacement_residual(1.0, 2, 2**21, edge + 1),
                     lambda: commutator_residual(2**21, edge + 1)):
            with pytest.raises(DimensionCapError,
                               match="window size 1048577 exceeds cap"):
                call()

    def test_window_n_edge(self):
        # Past N = 2^40 the int64 products of the displacement recurrence
        # and the quadrature bands could overflow; at 2^62 they once gave a
        # residual of 1.04 and a NaN.
        n = WINDOW_N_MAX
        assert commutator_residual(n, 10) == pytest.approx(20 / n, rel=1e-9)
        assert displacement_residual(1.0, 2, n, 40) < 1e-9
        assert coherent_window_fidelity(1.0, n, 30) == 1.0
        for call in (lambda: commutator_residual(n + 1, 10),
                     lambda: displacement_residual(1.0, 2, n + 1, 40),
                     lambda: coherent_window_fidelity(1.0, n + 1, 30)):
            with pytest.raises(DimensionCapError,
                               match=f"N {n + 1} exceeds cap {n}"):
                call()

    def test_squeezed_pair_cap_edge(self):
        # The normalization may need all N + 1 pair weights, so N + 1, not
        # the 2N + 1 states of the full construction, must fit the cap.
        assert 0 < squeezed_window_fidelity(0.5, 0.0, 2**20 - 1, 20) <= 1
        with pytest.raises(DimensionCapError,
                           match="pair weight count 1048577 exceeds cap"):
            squeezed_window_fidelity(0.5, 0.0, 2**20, 20)

    def test_overlap_cap_edge(self):
        # The overlap window reaches all N + 1 amplitudes at worst.
        rec = overlap_asymptotics(1.0, 0.5, 2**20 - 1)
        assert abs(rec.exact - rec.statevector) < 1e-10
        with pytest.raises(DimensionCapError,
                           match="window size 1048577 exceeds cap"):
            overlap_asymptotics(1.0, 0.5, 2**20)

    def test_windows_reject_out_of_range(self):
        with pytest.raises(ValueError):
            coherent_window_fidelity(0.5, 4, 5)
        with pytest.raises(ValueError):
            squeezed_window_fidelity(0.5, 0.0, 2, 5)
        with pytest.raises(ValueError):
            commutator_residual(10, -1)


class TestQuadratures:
    def test_special_angles(self):
        basis = make_basis(2, 9)
        q0 = quadrature_operator(basis, 0.0).toarray()
        q1 = quadrature_operator(basis, math.pi / 2).toarray()
        jx = j_operator(basis, "x").toarray()
        jy = j_operator(basis, "y").toarray()
        scale = math.sqrt(2.0 / 9)
        assert np.max(np.abs(q0 - scale * jx)) < 1e-14
        assert np.max(np.abs(q1 + scale * jy)) < 1e-14

    def test_hermitian(self):
        basis = make_basis(2, 4)
        op = quadrature_operator(basis, 0.7).toarray()
        assert np.array_equal(op, op.conj().T)

    @pytest.mark.parametrize(
        "n,n_max", [(100, 10), (1000, 10), (10_000, 25)]
    )
    def test_commutator_residual_closed_form(self, n, n_max):
        got = commutator_residual(n, n_max)
        assert abs(got - 2.0 * n_max / n) < 1e-12

    def test_commutator_requires_window_inside(self):
        with pytest.raises(ValueError):
            commutator_residual(10, 10)

    def test_uncertainty_reference_state_saturates(self):
        n = 40
        basis = make_basis(2, n)
        record = uncertainty_check(basis_state(basis, (0, n)))
        assert record.satisfied
        # Reference state: ΔJx = ΔJy = sqrt(N)/2 and |⟨Jz⟩|/2 = N/4.
        assert record.delta_jx == pytest.approx(math.sqrt(n) / 2, rel=1e-12)
        assert record.delta_jy == pytest.approx(math.sqrt(n) / 2, rel=1e-12)
        assert (
            record.delta_jx * record.delta_jy
            == pytest.approx(record.half_abs_jz, rel=1e-10)
        )

    def test_uncertainty_coherent_state(self):
        record = uncertainty_check(coherent_from_rotation(1.2 + 0.5j, 60))
        assert record.satisfied


class TestOverlap:
    def test_fixture_values(self):
        fix = FIXTURES["overlap"]
        for row in fix["grid"]:
            rec = overlap_asymptotics(fix["alpha"], fix["beta"], row["n"])
            assert abs(rec.exact - float(row["exact"])) < 1e-12
            assert abs(rec.exact - rec.statevector) < 1e-10
            assert rec.limit == pytest.approx(float(fix["limit"]), rel=1e-12)

    def test_residual_shrinks(self):
        resids = [
            overlap_asymptotics(1.0, -1.0, n).residual
            for n in (100, 1000, 10_000)
        ]
        assert resids[0] > resids[1] > resids[2]

    def test_engineered_orthogonality(self):
        # argβ = argα + π with |α|² + |β|² = N zeroes the closed form.
        n = 16
        alpha = math.sqrt(6.0)
        beta = -math.sqrt(n - 6.0)
        rec = overlap_asymptotics(alpha, beta, n)
        assert abs(rec.exact) < 1e-13
        assert abs(rec.statevector) < 1e-12

    def test_bound_check(self):
        with pytest.raises(AmplitudeBoundError):
            overlap_asymptotics(5.0, 0.1, 10)


class TestConvergenceMachinery:
    def test_fit_rate_recovers_power_law(self):
        n_list = [100, 200, 400, 800, 1600]
        residuals = [3.0 / n**1.5 for n in n_list]
        rate, r2 = fit_rate(n_list, residuals)
        assert rate == pytest.approx(1.5, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_fit_rate_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_rate([10, 100, 1000], [1.0, 0.1, 0.01])

    def test_fit_rate_needs_positive_n(self):
        with pytest.raises(ValueError, match="every N > 0, got N = 0"):
            fit_rate([0, 4, 8, 16], [0.0, 0.0, 0.0, 0.0])
        report = coherent_convergence(0, [0, 4, 8, 16], 0)
        assert (report.rate, report.r_squared) == (None, None)

    def test_report_validates_grid(self):
        with pytest.raises(ValueError):
            ConvergenceReport((10, 10), "x", (0.0, 0.0))
        with pytest.raises(ValueError):
            ConvergenceReport((10, 20), "x", (0.1, -0.1))

    def test_phase_locking_fixture(self):
        fix = FIXTURES["phase_locking"]
        report = phase_locking_curve(fix["theta"], [fix["n"]])
        assert report.extras["exact"][0] == pytest.approx(
            float(fix["exact"]), rel=1e-12
        )
        assert report.extras["asymptote"][0] == pytest.approx(
            float(fix["asymptote"]), rel=1e-12
        )
        assert report.values[0] == pytest.approx(
            float(fix["abs_diff"]), rel=1e-10
        )

    def test_phase_locking_ratio_approaches_one(self):
        # Along the scaled family theta = 2/sqrt(N) the Gaussian asymptote
        # becomes exact: the exact/asymptote ratio climbs toward 1.
        fix = FIXTURES["phase_locking"]
        ratios = []
        for row in fix["ratio_grid"]:
            report = phase_locking_curve(row["theta"], [row["n"]])
            got = report.extras["ratio"][0]
            assert got == pytest.approx(float(row["ratio"]), rel=1e-12)
            ratios.append(got)
        assert all(
            abs(1 - b) < abs(1 - a) for a, b in zip(ratios, ratios[1:])
        )

    def test_phase_locking_theta_domain(self):
        with pytest.raises(ValueError):
            phase_locking_curve(0.0, [10])
        with pytest.raises(ValueError):
            phase_locking_curve(math.pi, [10])

    def test_phase_locking_names_underflow(self):
        # e^{-N theta^2/8} = e^{-1125} underflows to 0; the ratio column
        # cannot be formed, and the error says why.
        with pytest.raises(ValueError, match="underflows to 0 at N=1000"):
            phase_locking_curve(3.0, [10, 1000])

    @pytest.mark.parametrize("call, message", [
        # Each call below once returned a value.
        pytest.param(lambda: phase_locking_curve(0.2, [-5]),
                     "N=-5 must be >= 0", id="phase-locking"),
        pytest.param(lambda: squeezed_window_fidelity(0.5, 0.0, 0, 0),
                     "N=0 must be >= 1", id="squeezed"),
        pytest.param(lambda: displacement_residual(0.1, 2, 10, 11),
                     "n_max = 11 exceeds the largest occupation 10 at N = 10",
                     id="displacement"),
    ])
    def test_rejects_what_validation_rejects(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("sweep, kernel", [
        pytest.param(lambda grid: coherent_convergence(1.0, grid, 30),
                     "coherent_window_fidelity", id="coherent"),
        pytest.param(lambda grid: displacement_convergence(1.0, 6, grid, 60),
                     "displacement_residual", id="displacement"),
        pytest.param(lambda grid: squeezed_convergence(0.5, 0.0, grid, 20),
                     "squeezed_window_fidelity", id="squeezed"),
        pytest.param(lambda grid: phase_locking_curve(0.2, grid),
                     "_phase_asymptote", id="phase-locking"),
    ])
    def test_sweeps_check_the_grid_first(self, monkeypatch, sweep, kernel):
        calls = []
        kernel_at = getattr(cvlimit, kernel)

        def counted(*args):
            calls.append(args)
            return kernel_at(*args)

        monkeypatch.setattr(cvlimit, kernel, counted)
        with pytest.raises(ValueError, match="N grid must be strictly"):
            sweep([100000, 99999, 99998, 99997])
        assert calls == []
        sweep([100, 200])
        assert len(calls) == 2

    def test_grid_rule_comes_before_the_window_rule(self):
        # At N = 10 the window n_max = 30 is too large too, but the grid is
        # the first rule broken.
        with pytest.raises(ValueError, match="N grid must be strictly"):
            coherent_convergence(1.0, [10**6, 10], 30)

    def test_phase_locking_checks_every_point_first(self, monkeypatch):
        # The underflow at the last point is found before any point is
        # computed.
        monkeypatch.setattr(math, "cos", None)
        with pytest.raises(ValueError, match="underflows to 0 at N=1000"):
            phase_locking_curve(3.0, [10, 100, 1000])

    def test_coherent_convergence_rate_near_two(self):
        # Window infidelity of the |alpha| = 1 construction falls off as
        # 1/N^2 on this grid (the 1/N overlap corrections cancel in
        # modulus); the fit must recover that cleanly.
        report = coherent_convergence(1.0, [100, 316, 1000, 3162], 30)
        assert report.metric == "infidelity"
        assert report.rate == pytest.approx(2.0, abs=0.05)
        assert report.r_squared > 0.999

    def test_displacement_convergence_monotone(self):
        report = displacement_convergence(1.0, 2, [1000, 10_000, 100_000], 40)
        assert report.rate is None
        vals = report.values
        assert vals[0] > vals[1] > vals[2]

    def test_squeezed_convergence_monotone(self):
        report = squeezed_convergence(0.5, 0.0, [50, 100, 200], 20)
        vals = report.values
        assert vals[0] > vals[1] > vals[2]

"""Large-N reconstructions of single-mode states and their convergence.

With N photons shared between a populated reference mode and a weakly
excited signal mode, passive pair rotations reproduce coherent states,
displaced Fock states, squeezed vacua, and quadrature operators in the
N -> infinity limit.  This module builds the finite-N constructions in
log-space (binomial products at N ~ 1e4 overflow doubles), the truncated
infinite-space references they converge to, and residual/rate diagnostics
quantifying the approach.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .hilbert import FockBasis, State, inner_product, make_basis
from .schwinger import SparseOperator, j_operator


class AmplitudeBoundError(ValueError):
    """|alpha|^2 must stay below the photon number N."""


class WindowTooSmallError(ValueError):
    """More than the allowed probability mass lies outside the window."""


# ---------------------------------------------------------------------------
# Coherent states


def coherent_from_rotation(alpha: complex, n_photons: int) -> State:
    """Rotated reference state with amplitudes equal to the exact binomial
    expansion sqrt(C(N,k)) (alpha/sqrt(N))^k (1-|alpha|^2/N)^((N-k)/2).

    Accumulated in log space so that N ~ 1e4 stays finite; alpha = 0
    returns the reference state itself.
    """
    n_tot = int(n_photons)
    mod2 = abs(alpha) ** 2
    if mod2 >= n_tot and not (mod2 == 0 and n_tot == 0):
        raise AmplitudeBoundError(
            f"|alpha|^2 = {mod2:.6g} must be < N = {n_tot}"
        )
    basis = make_basis(2, n_tot)
    amps = np.zeros(n_tot + 1, dtype=np.complex128)
    if alpha == 0:
        amps[0] = 1.0
        return State(basis, amps)
    k = np.arange(n_tot + 1)
    # prefix[k] = sum_{i<k} log(1 - i/N) = log( N(N-1)...(N-k+1) / N^k )
    prefix = np.concatenate(
        [[0.0], np.cumsum(np.log1p(-k[:-1] / n_tot))]
    )
    logmag = (
        0.5 * prefix
        - 0.5 * gammaln(k + 1)
        + k * math.log(abs(alpha))
        + (n_tot - k) / 2.0 * math.log1p(-mod2 / n_tot)
    )
    phase = cmath.phase(alpha)
    amps = np.exp(logmag) * np.exp(1j * phase * k)
    return State(basis, amps)


@dataclass(frozen=True)
class TruncatedReference:
    """Renormalized window of an infinite-space coefficient series."""

    coefficients: np.ndarray
    tail_mass: float


def _renormalized(coeffs: np.ndarray) -> TruncatedReference:
    """``coeffs`` scaled to unit norm, with the mass they miss as the tail."""
    mass = float(np.sum(np.abs(coeffs) ** 2))
    return TruncatedReference(coeffs / math.sqrt(mass), max(0.0, 1.0 - mass))


def _window_fidelity(
    state: State, ref: TruncatedReference, n_max: int
) -> float:
    """|<ref|window>|^2 over the signal occupations k <= n_max of ``state``."""
    window = np.asarray(state.amplitudes[: n_max + 1])
    return min(1.0, abs(np.vdot(ref.coefficients, window)) ** 2)


def truncated_coherent_reference(
    alpha: complex, n_max: int
) -> TruncatedReference:
    """Coefficients e^{-|alpha|^2/2} alpha^k / sqrt(k!) for k <= n_max,
    renormalized, with the discarded Poisson tail mass reported."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k = np.arange(n_max + 1)
    if alpha == 0:
        coeffs = np.zeros(n_max + 1, dtype=np.complex128)
        coeffs[0] = 1.0
        return TruncatedReference(coeffs, 0.0)
    logmag = (
        -abs(alpha) ** 2 / 2.0
        + k * math.log(abs(alpha))
        - 0.5 * gammaln(k + 1)
    )
    return _renormalized(np.exp(logmag) * np.exp(1j * cmath.phase(alpha) * k))


def coherent_window_fidelity(
    alpha: complex, n_photons: int, n_max: int
) -> float:
    """Fidelity of the finite-N coherent construction against the
    renormalized truncated reference on occupations k <= n_max."""
    return _window_fidelity(coherent_from_rotation(alpha, n_photons),
                            truncated_coherent_reference(alpha, n_max), n_max)


# ---------------------------------------------------------------------------
# Displacement comparison


def _ssrc_displaced_window(
    alpha: complex, k: int, n_tot: int, n_max: int
) -> np.ndarray:
    """Signal-mode amplitudes ⟨m| of the rotated |k, N-k⟩, m <= n_max.

    Stable grouping of the double series: every N-dependent factor enters
    as a product of (1 - x/N) terms, so no large cancellations occur.
    """
    mod2 = abs(alpha) ** 2
    x_log = math.log1p(-mod2 / n_tot)  # log(1 - |alpha|^2/N)
    out = np.zeros(n_max + 1, dtype=np.complex128)
    for m in range(n_max + 1):
        lo, hi = max(0, k + m - n_tot), min(k, m)
        total = 0.0 + 0.0j
        for l in range(lo, hi + 1):
            # C(k,l) (-conj(alpha))^(k-l) alpha^(m-l) / (m-l)!
            coeff = (
                math.comb(k, l)
                * (-alpha.conjugate()) ** (k - l)
                * alpha ** (m - l)
                / math.factorial(m - l)
            )
            prod = 1.0
            for i in range(m - l):
                prod *= 1.0 - (k + i) / n_tot
            total += (
                coeff
                * prod
                * math.exp(0.5 * (n_tot - k - m + 2 * l) * x_log)
            )
        # sqrt(m!/k!) and the residual (1 - i/N) product between k and m
        ratio = 1.0
        for j in range(min(k, m) + 1, max(k, m) + 1):
            ratio *= j
        edge = 1.0
        for i in range(min(k, m), max(k, m)):
            edge *= 1.0 - i / n_tot
        if m >= k:
            total *= math.sqrt(ratio) / math.sqrt(edge)
        else:
            total *= math.sqrt(edge) / math.sqrt(ratio)
        out[m] = total
    return out


def displaced_fock_window(alpha: complex, k: int, n_max: int) -> np.ndarray:
    """Amplitudes ⟨m|D(alpha)|k⟩ for m <= n_max (exact single-mode series)."""
    out = np.zeros(n_max + 1, dtype=np.complex128)
    pref = math.exp(-abs(alpha) ** 2 / 2.0)
    for m in range(n_max + 1):
        total = 0.0 + 0.0j
        for l in range(min(k, m) + 1):
            total += (
                (-alpha.conjugate()) ** (k - l)
                * alpha ** (m - l)
                / (math.factorial(k - l) * math.factorial(m - l))
                * math.exp(
                    0.5 * (gammaln(k + 1) + gammaln(m + 1)) - gammaln(l + 1)
                )
            )
        out[m] = pref * total
    return out


def displacement_residual(
    alpha: complex, k: int, n_photons: int, n_max: int
) -> float:
    """l2 distance between the finite-N rotated-Fock window and the exact
    displaced-Fock window, each renormalized on occupations <= n_max.

    Requires both sides to hold all but 1e-6 of their mass inside the
    window (both are normalized over their full spaces).
    """
    n_tot = int(n_photons)
    if not 0 <= k <= n_max:
        raise ValueError("need 0 <= k <= n_max")
    mod2 = abs(alpha) ** 2
    if mod2 >= n_tot:
        raise AmplitudeBoundError(
            f"|alpha|^2 = {mod2:.6g} must be < N = {n_tot}"
        )
    ssrc = _ssrc_displaced_window(alpha, k, n_tot, n_max)
    fock = displaced_fock_window(alpha, k, n_max)
    for name, vec in (("finite-N", ssrc), ("displaced-Fock", fock)):
        outside = 1.0 - float(np.sum(np.abs(vec) ** 2))
        if outside > 1e-6:
            raise WindowTooSmallError(
                f"{name} side has {outside:.3e} mass outside n_max={n_max}"
            )
    ssrc = ssrc / np.linalg.norm(ssrc)
    fock = fock / np.linalg.norm(fock)
    return float(np.linalg.norm(ssrc - fock))


# ---------------------------------------------------------------------------
# Squeezed vacuum


def squeezed_from_rotation(r: float, phi: float, n_pairs: int) -> State:
    """Two-mode reconstruction of the squeezed vacuum on (2 modes, 2N photons).

    Amplitudes sit on even signal occupations 2k with weights
    C(N,k) (-e^{i phi} tanh r)^k sqrt((2k)! (2(N-k))!), normalized in log
    space; odd occupations are exactly zero.  r = 0 returns |0, 2N⟩.
    """
    if r < 0:
        raise ValueError("squeezing magnitude r must be >= 0")
    n_tot = int(n_pairs)
    basis = make_basis(2, 2 * n_tot)
    amps = np.zeros(2 * n_tot + 1, dtype=np.complex128)
    if r == 0 or n_tot == 0:
        amps[0] = 1.0
        return State(basis, amps)
    k = np.arange(n_tot + 1)
    log_tanh = math.log(math.tanh(r))
    logmag = (
        gammaln(n_tot + 1)
        - gammaln(k + 1)
        - gammaln(n_tot - k + 1)
        + k * log_tanh
        + 0.5 * (gammaln(2 * k + 1) + gammaln(2 * (n_tot - k) + 1))
    )
    logmag -= logmag.max()
    weights = np.exp(logmag) * np.exp(1j * (phi + math.pi) * k)
    weights /= np.linalg.norm(weights)
    amps[2 * k] = weights
    return State(basis, amps)


def squeezed_log_norm_closed_form(r: float, n_pairs: int) -> float:
    """log of the closed-form normalization factor A of the (c† d†)^N
    construction: A^2 = (e^{-r} cosh r)^{2N} * sum_k tanh^{2k} r *
    C(N,k)^2 (2k)! (2(N-k))!.  Returned as log A (A overflows doubles
    beyond N ~ 80)."""
    if r < 0:
        raise ValueError("squeezing magnitude r must be >= 0")
    n_tot = int(n_pairs)
    k = np.arange(n_tot + 1)
    base = 2.0 * n_tot * (math.log(math.cosh(r)) - r)
    if r == 0:
        return 0.5 * (base + float(gammaln(2 * n_tot + 1)))
    terms = (
        2.0 * k * math.log(math.tanh(r))
        + 2.0 * (gammaln(n_tot + 1) - gammaln(k + 1) - gammaln(n_tot - k + 1))
        + gammaln(2 * k + 1)
        + gammaln(2 * (n_tot - k) + 1)
    )
    return 0.5 * (base + float(logsumexp(terms)))


def truncated_squeezed_reference(
    r: float, phi: float, n_max: int
) -> TruncatedReference:
    """Squeezed-vacuum series (-e^{i phi} tanh r)^k sqrt((2k)!)/(2^k k!)
    / sqrt(cosh r), truncated at occupation n_max and renormalized."""
    if r < 0:
        raise ValueError("squeezing magnitude r must be >= 0")
    coeffs = np.zeros(n_max + 1, dtype=np.complex128)
    if r == 0:
        coeffs[0] = 1.0
        return TruncatedReference(coeffs, 0.0)
    k_max = n_max // 2
    k = np.arange(k_max + 1)
    logmag = (
        -0.5 * math.log(math.cosh(r))
        + k * math.log(math.tanh(r))
        + 0.5 * gammaln(2 * k + 1)
        - k * math.log(2.0)
        - gammaln(k + 1)
    )
    coeffs[2 * k] = np.exp(logmag) * np.exp(1j * (phi + math.pi) * k)
    return _renormalized(coeffs)


def squeezed_window_fidelity(
    r: float, phi: float, n_pairs: int, n_max: int
) -> float:
    """Fidelity of the finite-N squeezed construction against the
    renormalized truncated squeezed-vacuum series on occupations <= n_max."""
    return _window_fidelity(squeezed_from_rotation(r, phi, n_pairs),
                            truncated_squeezed_reference(r, phi, n_max), n_max)


# ---------------------------------------------------------------------------
# Quadratures


def quadrature_operator(basis: FockBasis, phi: float) -> SparseOperator:
    """Q(N, phi) = (e^{-i phi} A + e^{i phi} A†)/sqrt(2), A = J-/sqrt(N).

    Hermitian; Q(N, 0) = sqrt(2/N) Jx and Q(N, pi/2) = -sqrt(2/N) Jy.
    """
    if basis.num_modes != 2:
        raise ValueError("quadratures are defined on a two-mode basis")
    n_tot = basis.total_photons
    if n_tot < 1:
        raise ValueError("need at least one photon")
    jp = j_operator(basis, "+").matrix
    jm = j_operator(basis, "-").matrix
    mat = (
        cmath.exp(-1j * phi) * jm + cmath.exp(1j * phi) * jp
    ) / math.sqrt(2.0 * n_tot)
    return SparseOperator(basis, mat, hermitian=True)


def commutator_residual(n_photons: int, n_max: int) -> float:
    """Max deviation of [Q(N,0), Q(N,pi/2)] from i on the n <= n_max sector.

    The commutator is diagonal with entries i(1 - 2n/N), so the result
    equals 2*n_max/N exactly.
    """
    n_tot = int(n_photons)
    if n_max >= n_tot:
        raise ValueError("need n_max < N")
    basis = make_basis(2, n_tot)
    q0 = quadrature_operator(basis, 0.0).matrix
    q1 = quadrature_operator(basis, math.pi / 2).matrix
    comm = (q0 @ q1 - q1 @ q0).tocsr()
    sector = comm[: n_max + 1, : n_max + 1].toarray()
    sector -= 1j * np.eye(n_max + 1)
    return float(np.max(np.abs(sector)))


@dataclass(frozen=True)
class UncertaintyRecord:
    delta_jx: float
    delta_jy: float
    half_abs_jz: float
    satisfied: bool


def uncertainty_check(state: State) -> UncertaintyRecord:
    """Robertson bound ΔJx ΔJy >= |⟨Jz⟩|/2 evaluated on a two-mode state."""
    basis = state.basis
    if basis.num_modes != 2:
        raise ValueError("uncertainty check is defined on a two-mode basis")
    vec = np.asarray(state.amplitudes)
    deltas = []
    for axis in "xy":
        mat = j_operator(basis, axis).matrix
        mean = float(np.vdot(vec, mat @ vec).real)
        second = float(np.vdot(mat @ vec, mat @ vec).real)
        deltas.append(math.sqrt(max(0.0, second - mean * mean)))
    jz = j_operator(basis, "z").matrix
    half_abs = 0.5 * abs(float(np.vdot(vec, jz @ vec).real))
    product = deltas[0] * deltas[1]
    return UncertaintyRecord(
        deltas[0], deltas[1], half_abs, product >= half_abs - 1e-10
    )


# ---------------------------------------------------------------------------
# Overlaps and phase locking


@dataclass(frozen=True)
class OverlapRecord:
    exact: complex
    statevector: complex
    limit: float
    residual: float


def overlap_asymptotics(
    alpha: complex, beta: complex, n_photons: int
) -> OverlapRecord:
    """Overlap of two finite-N coherent constructions vs its large-N limit.

    ``exact`` is the closed form (sqrt(1-|alpha|^2/N) sqrt(1-|beta|^2/N)
    + conj(alpha) beta / N)^N, conjugate-linear in alpha to match
    ``inner_product``; ``statevector`` recomputes it from the explicit
    amplitude vectors (the two must agree to 1e-10).  ``residual``
    compares moduli against the limit e^{-|alpha-beta|^2/2}.
    """
    n_tot = int(n_photons)
    for val in (alpha, beta):
        if abs(val) ** 2 >= n_tot:
            raise AmplitudeBoundError(
                f"|{val:.6g}|^2 must be < N = {n_tot}"
            )
    base = (
        math.sqrt(1.0 - abs(alpha) ** 2 / n_tot)
        * math.sqrt(1.0 - abs(beta) ** 2 / n_tot)
        + alpha.conjugate() * beta / n_tot
    )
    exact = base**n_tot if abs(base) > 0 else complex(0.0)
    sv = inner_product(
        coherent_from_rotation(alpha, n_tot),
        coherent_from_rotation(beta, n_tot),
    )
    limit = math.exp(-abs(alpha - beta) ** 2 / 2.0)
    return OverlapRecord(exact, sv, limit, abs(abs(exact) - limit))


@dataclass(frozen=True)
class ConvergenceReport:
    """Residuals over an N grid with an optional fitted power law in 1/N."""

    parameter: dict[str, float]
    n_list: tuple[int, ...]
    metric: str
    values: tuple[float, ...]
    extras: dict[str, tuple[float, ...]] = field(default_factory=dict)
    rate: float | None = None
    r_squared: float | None = None

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("N grid must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("residuals must be non-negative")


def fit_rate(
    n_list: Sequence[int], residuals: Sequence[float]
) -> tuple[float, float]:
    """Power-law exponent of residual ~ C / N^rate with its R^2.

    Least squares on log(residual) vs log(N); needs at least 4 grid points.
    """
    if len(n_list) < 4:
        raise ValueError("rate fit needs at least 4 grid points")
    if len(n_list) != len(residuals):
        raise ValueError("grid and residual lengths differ")
    lx = np.log(np.asarray(n_list, dtype=float))
    ly = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2


def _sweep(
    parameter: dict, n_list: Sequence[int], metric: str,
    values: Sequence[float],
) -> ConvergenceReport:
    """Report of ``values`` over an N grid, with the fitted power law when
    the grid has at least 4 points."""
    rate, r2 = fit_rate(n_list, values) if len(n_list) >= 4 else (None, None)
    return ConvergenceReport(parameter, tuple(int(n) for n in n_list),
                             metric, tuple(values), rate=rate, r_squared=r2)


def phase_locking_curve(
    theta: float, n_list: Sequence[int]
) -> ConvergenceReport:
    """(cos(theta/2))^N against its Gaussian asymptote e^{-N theta^2/8}."""
    if not 0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    exact, asym, ratio, resid = [], [], [], []
    for n_tot in n_list:
        e = math.exp(n_tot * math.log(math.cos(theta / 2.0)))
        a = math.exp(-n_tot * theta**2 / 8.0)
        exact.append(e)
        asym.append(a)
        try:
            ratio.append(e / a)
        except ZeroDivisionError:
            raise ValueError(
                f"asymptote e^(-N theta^2/8) underflows to 0 at N={n_tot}"
            ) from None
        resid.append(abs(e - a))
    return ConvergenceReport(
        {"theta": theta},
        tuple(int(n) for n in n_list),
        "abs(exact - asymptote)",
        tuple(resid),
        extras={
            "exact": tuple(exact),
            "asymptote": tuple(asym),
            "ratio": tuple(ratio),
        },
    )


def coherent_convergence(
    alpha: complex, n_list: Sequence[int], n_max: int
) -> ConvergenceReport:
    """Infidelity of the finite-N coherent construction vs the truncated
    reference over an N grid, with fitted 1/N rate when >= 4 points."""
    return _sweep(
        {"alpha_re": alpha.real, "alpha_im": alpha.imag, "n_max": n_max},
        n_list,
        "infidelity",
        [1.0 - coherent_window_fidelity(alpha, n_tot, n_max)
         for n_tot in n_list],
    )


def displacement_convergence(
    alpha: complex, k: int, n_list: Sequence[int], n_max: int
) -> ConvergenceReport:
    """Windowed displacement residual over an N grid with optional rate."""
    return _sweep(
        {"alpha_re": alpha.real, "alpha_im": alpha.imag, "k": k,
         "n_max": n_max},
        n_list,
        "window_l2_residual",
        [displacement_residual(alpha, k, n_tot, n_max) for n_tot in n_list],
    )


def squeezed_convergence(
    r: float, phi: float, n_list: Sequence[int], n_max: int
) -> ConvergenceReport:
    """Infidelity of the finite-N squeezed construction vs the truncated
    squeezed-vacuum series over an N grid (N counts photon pairs)."""
    return _sweep(
        {"r": r, "phi": phi, "n_max": n_max},
        n_list,
        "infidelity",
        [1.0 - squeezed_window_fidelity(r, phi, n_tot, n_max)
         for n_tot in n_list],
    )

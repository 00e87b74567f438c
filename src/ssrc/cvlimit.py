"""Large-N reconstructions of single-mode states and their convergence.

With N photons shared between a populated reference mode and a weakly
excited signal mode, passive pair rotations reproduce coherent states,
displaced Fock states, squeezed vacua, and quadrature operators in the
N -> infinity limit.  This module builds the finite-N constructions in
log-space (binomial products at N ~ 1e4 overflow doubles), the truncated
infinite-space references they converge to, and residual/rate diagnostics
quantifying the approach.

Every window quantity (the coherent, squeezed and displacement window
comparisons and the commutator residual) costs O(window), not O(N): it
computes only the signal occupations n <= n_max, plus, for the squeezed
normalization, as many weights as a proven tail bound needs.  So does the
overlap cross-check, over the window past which both coherent amplitude
vectors are exactly zero.  Each full state is built by the same helper as
its window, with the window set to N.  Likewise the two bands of a
quadrature come in closed form from the J+/J- entries:
``quadrature_operator`` makes them a ``scipy.sparse`` CSR matrix, and the
commutator residual takes its sector from the bands of the leading block
alone; neither builds a basis.

log k! comes from a port of the Cephes ``lgam`` that
``scipy.special.gammaln`` runs, with the same bits, kept in a process-wide
table; so the window quantities load no SciPy.

Each precondition is a named ``_check_*`` that raises ``ValueError``, and
``ssrc validate`` calls the same checks; the size rules cap each array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .hilbert import (FockBasis, State, _check_at_least, _check_cap,
                      _normalized, make_basis)
from .schwinger import j_operator

if TYPE_CHECKING:
    import scipy.sparse as sp


class AmplitudeBoundError(ValueError):
    """|alpha|^2 must stay below the photon number N."""


class WindowTooSmallError(ValueError):
    """More than the allowed probability mass lies outside the window."""


def _check_amplitude(value: complex, n_tot: int, name: str = "alpha",
                     vacuum_ok: bool = False) -> None:
    """Raise ``AmplitudeBoundError`` unless |value|^2 < N.

    With ``vacuum_ok``, value = 0 also passes at N = 0, where the coherent
    construction is the vacuum.  |value|·|value| is inf for a huge
    amplitude, where |value| ** 2 would raise ``OverflowError``.
    """
    mod2 = abs(value) * abs(value)
    if mod2 >= n_tot and not (vacuum_ok and mod2 == 0 == n_tot):
        raise AmplitudeBoundError(
            f"|{name}|^2 = {mod2:.6g} must be < N = {n_tot}")


def _check_increasing(n_list: Sequence[int]) -> None:
    """An N grid must be strictly increasing."""
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("N grid must be strictly increasing")


#: Largest N of a window: the int64 products of the displacement recurrence
#: and the quadrature bands, up to about 4 n_max N, then stay below 2^63.
WINDOW_N_MAX = 1 << 40


def _check_window(n_max: int, n_tot: int, factor: int = 1) -> None:
    """The window k <= n_max must lie in the occupations 0..factor * N, its
    n_max + 1 entries must fit the cap, and N must be <= ``WINDOW_N_MAX``."""
    _check_at_least(n_max, 0, "n_max")
    if n_max > factor * n_tot:
        raise ValueError(f"n_max = {n_max} exceeds the largest occupation "
                         f"{factor * n_tot} at N = {n_tot}")
    _check_cap(n_max + 1, "window size")
    _check_cap(n_tot, "N", WINDOW_N_MAX)


# ---------------------------------------------------------------------------
# Log-factorials


# Cephes ``lgam`` (S. L. Moshier, "Methods and Programs for Mathematical
# Functions", 1989), which ``scipy.special.gammaln`` runs: Stirling's
# series for x >= 13 with these coefficients, evaluated in this order.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _lgam_entries(first: int, stop: int) -> np.ndarray:
    """log k! for first <= k < stop, in the bits of ``gammaln(k + 1)``.

    For x = k + 1 < 13 Cephes returns log(z) with z = k! exact.  For
    x >= 13 it returns ((x - 0.5) log x - x) + LS2PI, plus polevl(1/x^2,
    A) / x below x = 1000, a shorter series above it, and no correction
    beyond x = 1e8.  log x comes from the C library's ``log`` through
    ``math.log``: ``np.log`` differs from it in the last bit on a few
    inputs in a million.
    """
    k = np.arange(first, stop)
    out = np.empty(len(k))
    small = k < 12
    out[small] = [math.log(float(math.factorial(i)))
                  for i in k[small].tolist()]
    x = (k[~small] + 1).astype(np.float64)
    log_x = np.fromiter(map(math.log, x.tolist()), np.float64, len(x))
    q = ((x - 0.5) * log_x - x) + _LS2PI
    p = 1.0 / (x * x)
    poly = np.full_like(p, _LGAM_A[0])
    for coefficient in _LGAM_A[1:]:
        poly = poly * p + coefficient
    series = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3)
              * p + 0.0833333333333333333333)
    out[~small] = np.where(
        x > 1.0e8, q, q + np.where(x >= 1000.0, series, poly) / x)
    return out


#: log k! for k < len(_LOG_FACTORIALS), read-only.  ``_log_factorial``
#: grows it, by doubling, by binding a longer copy in its place.
_LOG_FACTORIALS = np.empty(0)
_LOG_FACTORIALS.flags.writeable = False


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! for an integer array k >= 0: the bits of ``gammaln(k + 1)``.

    Entries come from the process-wide table ``_LOG_FACTORIALS``, grown to
    max(k) + 1 entries, and at least double its length, when k passes its
    end.  max(k) + 1 may not exceed the dimension cap: every capped window
    needs at most that many, and the table lasts as long as the process.
    """
    global _LOG_FACTORIALS
    k = np.asarray(k)
    if k.min() < 0:
        raise ValueError("log-factorial of a negative integer")
    # One read of the module name: a thread that grows the table meanwhile
    # binds a new array and leaves this one as it was.
    table = _LOG_FACTORIALS
    top = int(k.max()) + 1
    if top > len(table):
        _check_cap(top, "log-factorial count")
        size = max(top, 2 * len(table))
        table = np.concatenate([table, _lgam_entries(len(table), size)])
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table[k]


# ---------------------------------------------------------------------------
# Coherent states


def _coherent_amplitudes(
    alpha: complex, n_tot: int, k_max: int
) -> np.ndarray:
    """Amplitudes k <= k_max of the finite-N coherent construction,
    sqrt(C(N,k)) (alpha/sqrt(N))^k (1-|alpha|^2/N)^((N-k)/2).

    Accumulated in log space so that N ~ 1e4 stays finite.  Every step is
    element by element (the prefix is a running sum), so the first
    k_max + 1 entries are the same in every bit whatever k_max <= N is:
    a window costs O(k_max), not O(N).
    """
    _check_amplitude(alpha, n_tot, vacuum_ok=True)
    mod2 = abs(alpha) ** 2
    if alpha == 0:
        amps = np.zeros(k_max + 1, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    k = np.arange(k_max + 1)
    # prefix[k] = sum_{i<k} log(1 - i/N) = log( N(N-1)...(N-k+1) / N^k )
    prefix = np.concatenate(
        [[0.0], np.cumsum(np.log1p(-k[:-1] / n_tot))]
    )
    logmag = (
        0.5 * prefix
        - 0.5 * _log_factorial(k)
        + k * math.log(abs(alpha))
        + (n_tot - k) / 2.0 * math.log1p(-mod2 / n_tot)
    )
    return np.exp(logmag) * np.exp(1j * cmath.phase(alpha) * k)


def coherent_from_rotation(alpha: complex, n_photons: int) -> State:
    """Rotated reference state with amplitudes equal to the exact binomial
    expansion sqrt(C(N,k)) (alpha/sqrt(N))^k (1-|alpha|^2/N)^((N-k)/2);
    alpha = 0 returns the reference state itself.
    """
    n_tot = int(n_photons)
    basis = make_basis(2, n_tot)
    return State(basis, _coherent_amplitudes(alpha, n_tot, n_tot))


@dataclass(frozen=True)
class TruncatedReference:
    """Renormalized window of an infinite-space coefficient series."""

    coefficients: np.ndarray
    tail_mass: float


def _renormalized(coeffs: np.ndarray) -> TruncatedReference:
    """``coeffs`` scaled to unit norm, with the mass they miss as the tail."""
    mass = float(np.sum(np.abs(coeffs) ** 2))
    return TruncatedReference(coeffs / math.sqrt(mass), max(0.0, 1.0 - mass))


def _window_fidelity(window: np.ndarray, ref: TruncatedReference) -> float:
    """|<ref|window>|^2, ``window`` holding the finite-N amplitudes of the
    signal occupations k <= n_max."""
    return min(1.0, abs(np.vdot(ref.coefficients, window)) ** 2)


def truncated_coherent_reference(
    alpha: complex, n_max: int
) -> TruncatedReference:
    """Coefficients e^{-|alpha|^2/2} alpha^k / sqrt(k!) for k <= n_max,
    renormalized, with the discarded Poisson tail mass reported."""
    _check_at_least(n_max, 0, "n_max")
    k = np.arange(n_max + 1)
    if alpha == 0:
        coeffs = np.zeros(n_max + 1, dtype=np.complex128)
        coeffs[0] = 1.0
        return TruncatedReference(coeffs, 0.0)
    logmag = (
        -abs(alpha) ** 2 / 2.0
        + k * math.log(abs(alpha))
        - 0.5 * _log_factorial(k)
    )
    return _renormalized(np.exp(logmag) * np.exp(1j * cmath.phase(alpha) * k))


def coherent_window_fidelity(
    alpha: complex, n_photons: int, n_max: int
) -> float:
    """Fidelity of the finite-N coherent construction against the
    renormalized truncated reference on occupations k <= n_max.

    Only the window is computed: the cost is O(n_max), whatever N is.
    """
    n_tot = int(n_photons)
    _check_window(n_max, n_tot)
    return _window_fidelity(_coherent_amplitudes(alpha, n_tot, n_max),
                            truncated_coherent_reference(alpha, n_max))


# ---------------------------------------------------------------------------
# Displacement comparison


#: Recurrence coefficients built at once by ``_displaced_windows``: a block
#: of j values spans at most this many (j, row, m) entries.
_RECURRENCE_BLOCK = 1 << 16


def _displaced_windows(
    alpha: complex, k: int, n_max: int, n_tots: Sequence[int | None]
) -> np.ndarray:
    """Signal-mode amplitudes ⟨m| of a displaced |k⟩, m <= n_max: one row
    per entry of ``n_tots``.

    A row with ``n_tot`` None is the exact single-mode ⟨m|D(alpha)|k⟩;
    otherwise the finite-N construction, the rotated |k, N-k⟩.  With
    lo, hi = min(m, k), max(m, k) and a = hi - lo, entry m is

      (-1)^{k-lo} e^{i arg(alpha) (m-k)} G(m) P(m),

      exact:    G = sqrt(hi!/lo!) |alpha|^a / a! e^{-|alpha|^2/2},
                P = L_lo^(a)(|alpha|^2) / C(hi, lo)        (Laguerre)
      finite N: G = sqrt(hi!/lo!) |alpha|^a / a!
                    sqrt(prod_{lo<=i<hi} (1-i/N)) (1-|alpha|^2/N)^{b/2},
                P = P_d^(a,b)(1 - 2|alpha|^2/N) / C(d+a, d)  (Jacobi)
                with b = |N-m-k| and degree d = min(lo, N-hi).

    P is run up its three-term recurrence in the degree, in the form
    P_{j+1} - P_j = r_j (P_j - P_{j-1}) - q_j P_j, which has no large
    coefficients to cancel (the finite-N r_j, q_j tend to j/(j+a+1) and
    |alpha|^2/(j+a+1), the exact ones).  The explicit alternating series
    for the same numbers cancels catastrophically: at |alpha| = 4, k = 40
    it loses every digit, while the recurrence stays within 2e-14 of a
    60-digit evaluation.  The N-dependent product is a running sum of
    log1p(-i/N).  The exact P is at most e^{|alpha|^2/2} (a classical
    Laguerre bound), so only windows with |alpha|^2 above about 1400 can
    overflow; that raises OverflowError.

    All rows step through one recurrence on the stack, and r_j, q_j are
    built for a block of j values at once, at most ``_RECURRENCE_BLOCK``
    entries.  Every entry takes the same operations in the same order as
    a row computed alone, so a row's bits depend neither on the other rows
    nor on the block.  The cost is O(n_max k) per row, whatever N is; a
    finite-N row needs n_max <= N.
    """
    out = np.zeros((len(n_tots), n_max + 1), dtype=np.complex128)
    if alpha == 0:
        out[:, k] = 1.0
        return out
    m = np.arange(n_max + 1)
    lo, hi = np.minimum(m, k), np.maximum(m, k)
    a = hi - lo
    mod2 = abs(alpha) ** 2
    log_g0 = (0.5 * (_log_factorial(hi) - _log_factorial(lo))
              - _log_factorial(a)
              + a * math.log(abs(alpha)))
    log_g, degree = np.empty(out.shape), np.empty(out.shape, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bs = []
        for row, n_tot in enumerate(n_tots):
            if n_tot is None:
                bs.append(None)
                degree[row] = lo
                log_g[row] = log_g0 - mod2 / 2.0
            else:
                b = np.abs(n_tot - m - k)
                bs.append(b)
                degree[row] = np.minimum(lo, n_tot - hi)
                edge = np.concatenate(
                    [[0.0], np.cumsum(np.log1p(-np.arange(n_max) / n_tot))])
                log_g[row] = log_g0 + (0.5 * (edge[hi] - edge[lo])
                                       + 0.5 * b * math.log1p(-mod2 / n_tot))
        poly, diff = np.ones(out.shape), np.zeros(out.shape)
        size = max(1, _RECURRENCE_BLOCK // out.size)
        for first in range(0, k, size):
            j = np.arange(first, min(first + size, k))[:, None]
            # Integers below 2^53 convert exactly, so dividing by the int64
            # j + a + 1 gives the bits of dividing by j + a + 1.0.
            ja = j + a
            ja1 = ja + 1
            ratio = np.empty((len(j), *out.shape))
            drive = np.empty_like(ratio)
            for row, (n_tot, b) in enumerate(zip(n_tots, bs)):
                if n_tot is None:
                    ratio[:, row] = j / ja1
                    drive[:, row] = mod2 / ja1
                else:
                    s = 2.0 * j + a + b
                    s2, jab1 = s + 2, ja + b + 1
                    ratio[:, row] = j * (j + b) * s2 / (jab1 * s * ja1)
                    drive[:, row] = ((s + 1) * s2 * (2.0 * mod2 / n_tot)
                                     / (2 * jab1 * ja1))
            if first == 0:
                ratio[0] = 0.0  # r_0 = 0; its formula is 0/0 at a = b = 0
            live = j[:, :, None] < degree
            for t in range(len(j)):
                step = ratio[t] * diff - drive[t] * poly
                np.copyto(diff, step, where=live[t])
                np.add(poly, step, out=poly, where=live[t])
        mag = np.sign(poly) * np.exp(log_g + np.log(np.abs(poly)))
    if not np.all(np.isfinite(mag)):
        raise OverflowError(
            f"displacement series exceeds double range at n_max={n_max}"
        )
    sign = 1.0 - 2.0 * ((k - lo) % 2)
    return sign * mag * np.exp(1j * cmath.phase(alpha) * (m - k))


#: Largest (n_max + 1) k of a displacement residual: its recurrence costs
#: O(n_max k), and at this bound its two windows take about 2 s of CPU
#: (1.7-2.5 s at k = 4096, n_max = 16383 on one core of a 2-core x86-64
#: VM).
DISPLACEMENT_WORK_MAX = 1 << 26


def _check_displacement_k(k: int, n_max: int) -> None:
    """The displaced Fock state |k⟩ must lie inside the window, and the
    window's recurrence, (n_max + 1) k steps, within
    ``DISPLACEMENT_WORK_MAX``."""
    if not 0 <= k <= n_max:
        raise ValueError(f"need 0 <= k <= n_max, got k={k} n_max={n_max}")
    work = (n_max + 1) * k
    if work > DISPLACEMENT_WORK_MAX:
        raise ValueError(
            f"displacement recurrence (n_max + 1) k = {work} exceeds "
            f"{DISPLACEMENT_WORK_MAX} at k={k} n_max={n_max}")


def displaced_fock_window(alpha: complex, k: int, n_max: int) -> np.ndarray:
    """Amplitudes ⟨m|D(alpha)|k⟩ for m <= n_max (exact single-mode series,
    computed in O(n_max k)); k and the work bound are checked as in
    ``displacement_residual``."""
    _check_at_least(n_max, 0, "n_max")
    _check_displacement_k(k, n_max)
    return _displaced_windows(alpha, k, n_max, (None,))[0]


def displacement_residual(
    alpha: complex, k: int, n_photons: int, n_max: int
) -> float:
    """l2 distance between the finite-N rotated-Fock window and the exact
    displaced-Fock window, each renormalized on occupations <= n_max.

    Both windows are the two rows of one ``_displaced_windows`` stack.
    Requires both sides to hold all but 1e-6 of their mass inside the
    window (both are normalized over their full spaces).
    """
    n_tot = int(n_photons)
    _check_amplitude(alpha, n_tot)
    _check_window(n_max, n_tot)
    _check_displacement_k(k, n_max)
    ssrc, fock = _displaced_windows(alpha, k, n_max, (n_tot, None))
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


def _check_squeezing(r: float) -> None:
    _check_at_least(r, 0, "squeezing magnitude r")


def _check_squeezed_window(n_max: int, n_pairs: int) -> None:
    """N >= 1 pairs, 0 <= n_max <= 2N, and N + 1 pair weights within the cap."""
    _check_at_least(n_pairs, 1, f"N={n_pairs}")
    _check_window(n_max, n_pairs, factor=2)
    _check_cap(n_pairs + 1, "pair weight count")


# Truncation tolerance of the squeezed normalization: the weights left out
# sum to less than this fraction of those kept.
_SQUEEZED_TAIL = 2.0**-60


def _squeezed_amplitudes(
    r: float, phi: float, n_tot: int, k_max: int
) -> np.ndarray:
    """Normalized pair amplitudes a_k, k <= k_max, of the finite-N squeezed
    construction, a_k ∝ C(N,k) (-e^{i phi} tanh r)^k sqrt((2k)! (2(N-k))!).

    The weights w_k = |a_k|^2 / |a_0|^2 are built from their ratios

      rho_j = w_{j+1}/w_j = tanh^2 r (2j+1)/(2j+2) / (1 - 1/(2(N-j))),

    so log w is a running sum of O(1) log1p terms with no cancellation.
    The normalization needs sum_{k<=N} w_k, but far fewer terms suffice:

      Both factors of rho_j increase with j, so log w is convex: on
      k in [K, N] it lies below the chord, and every w_k <= max(w_K, w_N).
      Hence sum_{k>K} w_k <= (N-K) max(w_K, w_N), where w_N = tanh^{2N} r
      exactly (a_N and a_0 carry the same factorials, (2N)! 0!).

    K starts at k_max + 1 and doubles until that bound is below 2^-60 of
    sum_{k<=K} w_k; the sum then normalizes to within that fraction, far
    below double rounding.  K = N is exact.  A window therefore costs
    O(k_max + K), whatever N is.
    """
    _check_squeezing(r)
    if r == 0 or n_tot == 0:
        amps = np.zeros(k_max + 1, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    log_t2 = 2.0 * math.log(math.tanh(r))
    size = min(k_max + 1, n_tot)
    while True:
        j = np.arange(size)
        log_w = np.concatenate([[0.0], np.cumsum(
            log_t2 + np.log1p(-1.0 / (2 * j + 2))
            - np.log1p(-1.0 / (2 * (n_tot - j))))])
        # Shifted to a maximum of 0 before the sum: were the maximum far
        # from 0, adding it back would round away the low digits of
        # log_norm.
        shift = log_w.max()
        log_w -= shift
        log_norm = math.log(float(np.sum(np.exp(log_w))))
        if size == n_tot:
            break
        tail = math.log(n_tot - size) + max(log_w[-1],
                                            n_tot * log_t2 - shift)
        if tail < log_norm + math.log(_SQUEEZED_TAIL):
            break
        size = min(2 * size, n_tot)
    k = np.arange(k_max + 1)
    return (np.exp(0.5 * (log_w[: k_max + 1] - log_norm))
            * np.exp(1j * (phi + math.pi) * k))


def squeezed_from_rotation(r: float, phi: float, n_pairs: int) -> State:
    """Two-mode reconstruction of the squeezed vacuum on (2 modes, 2N photons).

    Amplitudes sit on even signal occupations 2k with weights
    C(N,k) (-e^{i phi} tanh r)^k sqrt((2k)! (2(N-k))!); odd occupations
    are exactly zero.  r = 0 returns |0, 2N⟩.
    """
    n_tot = int(n_pairs)
    amps = np.zeros(2 * n_tot + 1, dtype=np.complex128)
    amps[::2] = _squeezed_amplitudes(r, phi, n_tot, n_tot)
    return State(make_basis(2, 2 * n_tot), amps)


def squeezed_log_norm_closed_form(r: float, n_pairs: int) -> float:
    """log of the closed-form normalization factor A of the (c† d†)^N
    construction: A^2 = (e^{-r} cosh r)^{2N} * sum_k tanh^{2k} r *
    C(N,k)^2 (2k)! (2(N-k))!.  Returned as log A (A overflows doubles
    beyond N ~ 80)."""
    from scipy.special import gammaln, logsumexp

    _check_squeezing(r)
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
    _check_squeezing(r)
    coeffs = np.zeros(n_max + 1, dtype=np.complex128)
    if r == 0:
        coeffs[0] = 1.0
        return TruncatedReference(coeffs, 0.0)
    k_max = n_max // 2
    k = np.arange(k_max + 1)
    logmag = (
        -0.5 * math.log(math.cosh(r))
        + k * math.log(math.tanh(r))
        + 0.5 * _log_factorial(2 * k)
        - k * math.log(2.0)
        - _log_factorial(k)
    )
    coeffs[2 * k] = np.exp(logmag) * np.exp(1j * (phi + math.pi) * k)
    return _renormalized(coeffs)


def squeezed_window_fidelity(
    r: float, phi: float, n_pairs: int, n_max: int
) -> float:
    """Fidelity of the finite-N squeezed construction against the
    renormalized truncated squeezed-vacuum series on occupations <= n_max.

    Only the window and as many weights as the normalization bound of
    ``_squeezed_amplitudes`` needs are computed, not all N + 1.
    """
    n_tot = int(n_pairs)
    _check_squeezed_window(n_max, n_tot)
    window = np.zeros(n_max + 1, dtype=np.complex128)
    window[::2] = _squeezed_amplitudes(r, phi, n_tot, n_max // 2)
    return _window_fidelity(window,
                            truncated_squeezed_reference(r, phi, n_max))


# ---------------------------------------------------------------------------
# Quadratures


def _quadrature_bands(
    n_tot: int, phi: float, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the leading size x size block of Q(N, phi), the occupations
    n < size: entry n of the first is (n, n+1), of the second (n+1, n).

    J+ holds v_n = sqrt((n+1)(N-n)) at (n+1, n) and J- at (n, n+1), so
    the bands cost O(size) and need no basis.  They are the bits of
    (e^{-i phi} J- + e^{i phi} J+) / sqrt(2N) in sparse arithmetic.
    """
    _check_at_least(n_tot, 1, f"N={n_tot}")
    n = np.arange(size - 1)
    v = np.sqrt((n + 1) * (n_tot - n)).astype(np.complex128)
    scale = 1 / math.sqrt(2.0 * n_tot)
    # "+ 0" and "* scale" repeat the sparse sum and scalar division.
    return ((v * cmath.exp(-1j * phi) + 0) * scale,
            (v * cmath.exp(1j * phi) + 0) * scale)


def _quadrature_block(n_tot: int, phi: float, size: int) -> sp.csr_matrix:
    """Leading size x size block of Q(N, phi) from ``_quadrature_bands``;
    row n holds the entry below the diagonal, then the one above."""
    import scipy.sparse as sp

    data = np.empty(2 * (size - 1), dtype=np.complex128)
    data[0::2], data[1::2] = _quadrature_bands(n_tot, phi, size)
    n = np.arange(size - 1)
    indices = np.empty_like(data, dtype=np.int32)
    indices[0::2], indices[1::2] = n + 1, n
    indptr = np.r_[0, np.arange(1, 2 * size - 2, 2), 2 * size - 2]
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def quadrature_operator(basis: FockBasis, phi: float) -> sp.csr_matrix:
    """Q(N, phi) = (e^{-i phi} A + e^{i phi} A†)/sqrt(2), A = J-/sqrt(N).

    Hermitian; Q(N, 0) = sqrt(2/N) Jx and Q(N, pi/2) = -sqrt(2/N) Jy.
    """
    if basis.num_modes != 2:
        raise ValueError("quadratures are defined on a two-mode basis")
    return _quadrature_block(basis.total_photons, phi, basis.dimension)


def _check_commutator_window(n_max: int, n_tot: int) -> None:
    """The sector n <= n_max must lie below the top occupation N."""
    _check_window(n_max, n_tot)
    if n_max == n_tot:
        raise ValueError(f"need n_max < N; got n_max={n_max} N={n_tot}")


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for complex entries held as (real, imaginary) on axis 0, in
    sparse arithmetic's order: (xr yr - xi yi, xr yi + xi yr)."""
    return np.stack([x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]])


def commutator_residual(n_photons: int, n_max: int) -> float:
    """Max deviation of [Q(N,0), Q(N,pi/2)] from i on the n <= n_max sector.

    The commutator is diagonal with entries i(1 - 2n/N), so the result
    equals 2*n_max/N exactly.  Q is tridiagonal, so the sector needs only
    the bands of the leading (n_max + 2) block of each Q, and its entries
    lie on the diagonal and two steps off it.  They are taken from the
    bands in O(n_max), whatever N is, in real arithmetic and in the order
    of the sparse product: each row of A B sums, from 0, its product
    through the entry below A's diagonal, then the one above.  So they
    are the same bits as the full sparse matrices give.
    """
    n_tot = int(n_photons)
    _check_commutator_window(n_max, n_tot)
    bands = np.array([_quadrature_bands(n_tot, phi, n_max + 2)
                      for phi in (0.0, math.pi / 2)])
    # Each band as [part, A, n]: A = Q(N, 0) in the product
    # Q(N, 0) Q(N, pi/2), then Q(N, pi/2) in the reverse one; B, on the
    # right, is the other Q.
    upper_a, lower_a = (bands.view(np.float64).reshape(*bands.shape, 2)
                        .transpose(1, 3, 0, 2))
    upper_b, lower_b = upper_a[:, ::-1], lower_a[:, ::-1]
    n = n_max
    diag = np.zeros((2, 2, n + 1))
    diag[..., 1:] += _times(lower_a[..., :n], upper_b[..., :n])
    diag += _times(upper_a, lower_b)
    # Entries (i, i+2) and (i+2, i), i <= n_max - 2: one product each,
    # which summed from 0 differs at most in the sign of a zero, and the
    # modulus drops that.
    both = np.concatenate(
        [diag,
         _times(upper_a[..., : n - 1], upper_b[..., 1:n]),
         _times(lower_a[..., 1:n], lower_b[..., : n - 1])],
        axis=-1)
    comm = both[:, 0] - both[:, 1]
    dev = np.empty(comm.shape[1], dtype=np.complex128)
    dev.real, dev.imag = comm
    dev.imag[: n + 1] -= 1.0
    return float(np.max(np.abs(dev)))


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
        mat = j_operator(basis, axis)
        mean = float(np.vdot(vec, mat @ vec).real)
        second = float(np.vdot(mat @ vec, mat @ vec).real)
        deltas.append(math.sqrt(max(0.0, second - mean * mean)))
    jz = j_operator(basis, "z")
    half_abs = 0.5 * abs(float(np.vdot(vec, jz @ vec).real))
    product = deltas[0] * deltas[1]
    return UncertaintyRecord(
        deltas[0], deltas[1], half_abs, product >= half_abs - 1e-10
    )


# ---------------------------------------------------------------------------
# Overlaps and phase locking


#: Exact zeros that end a certified coherent window.
_ZERO_RUN = 64


def _coherent_pair_window(
    alpha: complex, beta: complex, n_tot: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_coherent_amplitudes`` of alpha and beta on the window k <= K of
    ``overlap_asymptotics``, beyond which every amplitude of both is
    exactly 0.0."""
    floor = 4 * max(abs(alpha), abs(beta)) ** 2 + 8 + _ZERO_RUN
    k_max = 255
    while k_max < min(floor, n_tot):
        k_max = 2 * k_max + 1
    while True:
        k_max = min(k_max, n_tot)
        pair = (_coherent_amplitudes(alpha, n_tot, k_max),
                _coherent_amplitudes(beta, n_tot, k_max))
        if k_max == n_tot or not (pair[0][-_ZERO_RUN:].any()
                                  or pair[1][-_ZERO_RUN:].any()):
            return pair
        k_max = 2 * k_max + 1


def _check_overlap(alpha: complex, beta: complex, n_tot: int) -> None:
    """|alpha|^2, |beta|^2 < N, and all N + 1 amplitudes within the cap."""
    _check_amplitude(alpha, n_tot)
    _check_amplitude(beta, n_tot, "beta")
    _check_window(n_tot, n_tot)


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

    ``statevector`` is the same number, in every bit, as ``inner_product``
    of the two ``coherent_from_rotation`` states, but it costs O(window),
    not O(N).  It reads only the amplitudes k <= K of both, renormalizes
    each window by its own norm under ``State``'s rule and takes their
    dot product.  K runs over 255, 511, 1023, ... (capped at N) until
    both windows end in ``_ZERO_RUN`` = 64 entries that are exactly 0.0
    and K - 64 >= 4 max(|alpha|, |beta|)^2 + 8; at K = N the windows are
    the full vectors.  Past 4|alpha|^2 each ratio |a_{k+1}/a_k| (at most
    |alpha| / sqrt(k + 1) once k >= |alpha|^2) is at most 1/2, so the
    computed log-magnitude falls by at least log 2 per step, far above
    its ~1e-12 rounding: once an amplitude underflows to 0.0, every later
    one does too.  So the entries k > K are exactly 0.0, and the run of
    64 zeros before them means that a BLAS norm or dot product with any
    block or lane width up to 64 sums the same nonzero products in the
    same lanes as over the full vector; a threaded split only adds
    partial sums of 0.
    """
    n_tot = int(n_photons)
    _check_overlap(alpha, beta, n_tot)
    base = (
        math.sqrt(1.0 - abs(alpha) ** 2 / n_tot)
        * math.sqrt(1.0 - abs(beta) ** 2 / n_tot)
        + alpha.conjugate() * beta / n_tot
    )
    exact = base**n_tot if abs(base) > 0 else complex(0.0)
    sv = complex(np.vdot(*(_normalized(amps) for amps
                           in _coherent_pair_window(alpha, beta, n_tot))))
    limit = math.exp(-abs(alpha - beta) ** 2 / 2.0)
    return OverlapRecord(exact, sv, limit, abs(abs(exact) - limit))


@dataclass(frozen=True)
class ConvergenceReport:
    """Residuals over an N grid with an optional fitted power law in 1/N."""

    n_list: tuple[int, ...]
    metric: str
    values: tuple[float, ...]
    extras: dict[str, tuple[float, ...]] = field(default_factory=dict)
    rate: float | None = None
    r_squared: float | None = None

    def __post_init__(self):
        _check_increasing(self.n_list)
        if any(v < 0 for v in self.values):
            raise ValueError("residuals must be non-negative")


def _loglog_fit(xs: Sequence[float], ys: Sequence[float]):
    """Least-squares line through (log x, log y), with y floored at 1e-300:
    the logs, the slope and the intercept."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    slope, intercept = np.polyfit(lx, ly, 1)
    return lx, ly, slope, intercept


def fit_rate(
    n_list: Sequence[int], residuals: Sequence[float]
) -> tuple[float, float]:
    """Power-law exponent of residual ~ C / N^rate with its R^2.

    Least squares on log(residual) vs log(N); needs at least 4 grid points,
    each N > 0.
    """
    if len(n_list) < 4:
        raise ValueError("rate fit needs at least 4 grid points")
    if len(n_list) != len(residuals):
        raise ValueError("grid and residual lengths differ")
    bad = [n for n in n_list if n <= 0]
    if bad:
        raise ValueError(f"rate fit needs every N > 0, got N = {bad[0]}")
    lx, ly, slope, intercept = _loglog_fit(n_list, residuals)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2


def _sweep(
    n_list: Sequence[int], metric: str, values: Sequence[float]
) -> ConvergenceReport:
    """Report of ``values`` over an N grid, with the fitted power law when
    the grid has at least 4 points, each N > 0."""
    fit = len(n_list) >= 4 and min(n_list) > 0
    rate, r2 = fit_rate(n_list, values) if fit else (None, None)
    return ConvergenceReport(tuple(int(n) for n in n_list), metric,
                             tuple(values), rate=rate, r_squared=r2)


def _check_theta(theta: float) -> None:
    if not 0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")


def _phase_asymptote(theta: float, n_tot: int) -> float:
    """e^{-N theta^2/8} at N >= 0, for a ``theta`` that passes
    ``_check_theta``; it must not underflow to 0, since the ratio column
    divides by it."""
    _check_at_least(n_tot, 0, f"N={n_tot}")
    asym = math.exp(-n_tot * theta**2 / 8.0)
    if asym == 0:
        raise ValueError(
            f"asymptote e^(-N theta^2/8) underflows to 0 at N={n_tot}")
    return asym


def phase_locking_curve(
    theta: float, n_list: Sequence[int]
) -> ConvergenceReport:
    """(cos(theta/2))^N against its Gaussian asymptote e^{-N theta^2/8}."""
    _check_theta(theta)
    asym = [_phase_asymptote(theta, n_tot) for n_tot in n_list]
    exact = [math.exp(n_tot * math.log(math.cos(theta / 2.0)))
             for n_tot in n_list]
    return ConvergenceReport(
        tuple(int(n) for n in n_list),
        "abs(exact - asymptote)",
        tuple(abs(e - a) for e, a in zip(exact, asym)),
        extras={"exact": tuple(exact), "asymptote": tuple(asym),
                "ratio": tuple(e / a for e, a in zip(exact, asym))},
    )


def coherent_convergence(
    alpha: complex, n_list: Sequence[int], n_max: int
) -> ConvergenceReport:
    """Infidelity of the finite-N coherent construction vs the truncated
    reference over an N grid, with fitted 1/N rate when >= 4 points."""
    return _sweep(
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
        n_list,
        "infidelity",
        [1.0 - squeezed_window_fidelity(r, phi, n_tot, n_max)
         for n_tot in n_list],
    )

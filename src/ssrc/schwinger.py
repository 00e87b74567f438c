"""Mode-pair angular-momentum algebra and unitaries on fixed-N Fock bases.

Two modes holding N photons in total carry a spin-N/2 representation through
the ladder maps ``J+ = a_i† a_j`` / ``J- = a_j† a_i`` and the population
imbalance ``Jz = (n_i - n_j)/2``.  This module builds those generators on
arbitrary mode pairs, exponentiates them into passive rotations, and
converts between amplitude vectors and their product-of-directions
(point-on-sphere) factorization for two-mode states.

Operators are plain matrices indexed by the basis: generators are
``scipy.sparse`` CSR matrices, and unitaries are dense arrays up to
``DENSE_EXP_LIMIT`` basis states; ``exp_unitary`` refuses a larger
generator.  Apply one to a state with
``State(basis, u @ state.amplitudes, check_drift=True)``.
SciPy is imported by the functions that build or take those matrices, so
importing this module loads NumPy only; ``_hop_product`` builds dense hop
products with no sparse matrix.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .hilbert import FockBasis, State

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)

#: Largest generator dimension ``exp_unitary`` densifies; larger ones raise.
DENSE_EXP_LIMIT = 2048

HERMITIAN_TOL = 1e-12


class NonHermitianGeneratorError(ValueError):
    """Generator passed to an exponential is not Hermitian."""


class InvalidModePairError(ValueError):
    """Mode pair indices are out of range or equal."""


# ---------------------------------------------------------------------------
# Generators


def _check_pair(basis: FockBasis, mode_pair: tuple[int, int]) -> tuple[int, int]:
    i, j = int(mode_pair[0]), int(mode_pair[1])
    if i == j or not (0 <= i < basis.num_modes) or not (0 <= j < basis.num_modes):
        raise InvalidModePairError(
            f"mode pair {mode_pair} invalid for K={basis.num_modes}"
        )
    return i, j


def _hop_entries(
    basis: FockBasis, i: int, j: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of a_i† a_j (moves one photon from mode j to mode i)
    as (rows, cols, values): column c is an occupied state with n_j > 0,
    its row the state with one photon moved, its value sqrt((n_i+1) n_j)."""
    cols = np.flatnonzero(basis.occupations[:, j])
    new = basis.occupations[cols]
    vals = np.sqrt((new[:, i] + 1) * new[:, j])
    new[:, i] += 1
    new[:, j] -= 1
    return basis.rank(new), cols, vals


@lru_cache(maxsize=None)
def _hop_product(
    basis: FockBasis, pairs: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Read-only dense real matrix of the product of hops a_i† a_j over
    ``pairs``, the first pair applied first; every caller shares it.

    A hop has at most one nonzero entry per row, so each entry of a
    product is one rounded product, whatever the BLAS kernel.
    """
    if len(pairs) == 1:
        rows, cols, vals = _hop_entries(basis, *pairs[0])
        mat = np.zeros((basis.dimension, basis.dimension))
        mat[rows, cols] = vals
    else:
        mat = _hop_product(basis, pairs[-1:]) @ _hop_product(basis, pairs[:-1])
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def _hop_csr(basis: FockBasis, i: int, j: int) -> sp.csr_matrix:
    """Read-only sparse matrix of a_i† a_j from ``_hop_entries``; every
    caller on the basis shares it."""
    import scipy.sparse as sp

    rows, cols, vals = _hop_entries(basis, i, j)
    dim = basis.dimension
    mat = sp.coo_matrix(
        (vals.astype(np.complex128), (rows, cols)), shape=(dim, dim)
    ).tocsr()
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


def j_operator(
    basis: FockBasis, axis: str, mode_pair: tuple[int, int] = (0, 1)
) -> sp.csr_matrix:
    """Angular-momentum generator on a mode pair.

    ``axis`` is one of ``'x','y','z','+','-'``.  On the pair (i, j):
    ``J+ = a_i† a_j``, ``J- = a_j† a_i``, ``Jz = (n_i - n_j)/2``,
    ``Jx = (J+ + J-)/2``, ``Jy = (J+ - J-)/(2i)``.  ``J+`` and ``J-`` are
    the shared, read-only hop matrices.
    """
    i, j = _check_pair(basis, mode_pair)
    if axis == "+":
        return _hop_csr(basis, i, j)
    if axis == "-":
        return _hop_csr(basis, j, i)
    if axis == "z":
        import scipy.sparse as sp

        occ = basis.occupations
        return sp.csr_matrix(
            sp.diags((occ[:, i] - occ[:, j]) / 2.0), dtype=np.complex128
        )
    plus = _hop_csr(basis, i, j)
    minus = _hop_csr(basis, j, i)
    if axis == "x":
        return (plus + minus) * 0.5
    if axis == "y":
        return (plus - minus) * (-0.5j)
    raise ValueError(f"unknown axis {axis!r}; expected one of x, y, z, +, -")


# ---------------------------------------------------------------------------
# Unitaries


def exp_unitary(generator, chi: float):
    """exp(i*chi*G) as a dense ``ndarray`` for a Hermitian matrix G, sparse
    or dense.

    The exponential is dense, so a generator of dimension above
    ``DENSE_EXP_LIMIT`` raises ``ValueError`` before anything is densified.
    """
    import scipy.sparse as sp

    dim = generator.shape[0]
    if dim > DENSE_EXP_LIMIT:
        raise ValueError(
            f"exp_unitary is dense: generator dimension {dim} "
            f"exceeds DENSE_EXP_LIMIT = {DENSE_EXP_LIMIT}"
        )
    drift = float(abs(generator - generator.conj().T).max())
    if drift > HERMITIAN_TOL:
        raise NonHermitianGeneratorError(
            f"generator deviates from Hermiticity by {drift:.3e}"
        )
    dense = generator.toarray() if sp.issparse(generator) else generator
    w, v = np.linalg.eigh(dense)
    return (v * np.exp(1j * chi * w)) @ v.conj().T


def rotation(
    basis: FockBasis,
    theta: float,
    phi: float,
    mode_pair: tuple[int, int] = (0, 1),
):
    """Passive pair rotation R(theta, phi) = exp(i*phi*Jz) exp(i*theta*Jy)."""
    u_z = exp_unitary(j_operator(basis, "z", mode_pair), phi)
    u_y = exp_unitary(j_operator(basis, "y", mode_pair), theta)
    return u_z @ u_y


# ---------------------------------------------------------------------------
# Product-of-directions (sphere-point) form for two-mode states


@dataclass(frozen=True)
class MajoranaSpec:
    """N directions (theta_k, phi_k) whose product of creation operators
    factorizes a two-mode N-photon state."""

    points: tuple[tuple[float, float], ...]


def majorana_to_state(spec: MajoranaSpec, basis: FockBasis) -> State:
    """Expand prod_k (cos(θ_k/2) b† + e^{iφ_k} sin(θ_k/2) a†) |vac⟩.

    All points equal (θ, φ) reproduces rotation(θ, φ) applied to |0, N⟩ up
    to a global phase; all θ_k = 0 gives |0, N⟩ and all θ_k = π gives |N, 0⟩.
    """
    if basis.num_modes != 2:
        raise ValueError("product-of-directions form requires a two-mode basis")
    n_tot = basis.total_photons
    if len(spec.points) != n_tot:
        raise ValueError(
            f"need exactly {n_tot} points, got {len(spec.points)}"
        )
    poly = np.array([1.0 + 0.0j])
    for theta, phi in spec.points:
        factor = np.array(
            [math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)]
        )
        poly = np.convolve(poly, factor)
    # poly[n] multiplies (a†)^n (b†)^(N-n)|vac> = sqrt(n!(N-n)!) |n, N-n>;
    # the common factor 1/sqrt(N!) keeps the amplitudes, poly[n]/sqrt(C(N,n)),
    # within double range at large N.
    log_fact = math.lgamma(n_tot + 1)
    amps = np.array(
        [
            poly[n]
            * math.exp(0.5 * (math.lgamma(n + 1) + math.lgamma(n_tot - n + 1)
                              - log_fact))
            for n in range(n_tot + 1)
        ],
        dtype=np.complex128,
    )
    if np.linalg.norm(amps) < 1e-300:
        raise ValueError("degenerate point set: vanishing norm")
    return State(basis, amps)


ROOT_CONDITION_WARN = 1e12


def state_to_majorana(state: State) -> MajoranaSpec:
    """Invert the product form: factor the amplitude polynomial into points.

    The polynomial sum_n c_n sqrt(C(N,n)) z^n factors over its roots; each
    root z maps to a direction through w = -1/z, theta = 2*atan|w|,
    phi = arg w.  Roots at z = 0 map to theta = pi; a degree deficit
    (vanishing leading coefficients) contributes points with theta = 0.
    """
    basis = state.basis
    if basis.num_modes != 2:
        raise ValueError("product-of-directions form requires a two-mode basis")
    n_tot = basis.total_photons
    coeffs = np.array(
        [
            state.amplitudes[n] * math.sqrt(math.comb(n_tot, n))
            for n in range(n_tot + 1)
        ],
        dtype=np.complex128,
    )
    scale = float(np.max(np.abs(coeffs)))
    coeffs = coeffs / scale
    # Descending-degree order for the root finder; strip the degree deficit.
    desc = coeffs[::-1]
    lead = 0
    while lead < len(desc) - 1 and abs(desc[lead]) < 1e-14:
        lead += 1
    desc = desc[lead:]
    deficit = lead
    points: list[tuple[float, float]] = [(0.0, 0.0)] * deficit
    if len(desc) > 1:
        roots = np.roots(desc)
        _warn_if_ill_conditioned(desc, roots)
        for z in roots:
            if abs(z) < 1e-300:
                points.append((math.pi, 0.0))
                continue
            w = -1.0 / z
            theta = 2.0 * math.atan(abs(w))
            phi = math.atan2(w.imag, w.real) % (2 * math.pi)
            points.append((theta, phi))
    return MajoranaSpec(tuple(points))


def _warn_if_ill_conditioned(desc: np.ndarray, roots: np.ndarray) -> None:
    """Log when a root's sensitivity to coefficient noise exceeds the bound."""
    deg = len(desc) - 1
    dp = desc[:-1] * np.arange(deg, 0, -1)
    worst = 0.0
    for z in roots:
        powers = np.abs(z) ** np.arange(deg, -1, -1)
        size = float(np.abs(desc) @ powers)
        deriv = abs(np.polyval(dp, z)) * max(abs(z), 1e-30)
        worst = max(worst, size / max(deriv, 1e-300))
    if worst > ROOT_CONDITION_WARN:
        logger.warning(
            "root extraction condition estimate %.3e exceeds %.1e",
            worst,
            ROOT_CONDITION_WARN,
        )


def su2_point_matrix(theta: float, phi: float) -> np.ndarray:
    """2x2 spinor matrix of rotation(theta, phi); acts on direction spinors."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    phase = cmath.exp(1j * phi / 2)
    return np.array(
        [[c / phase, -s / phase], [s * phase, c * phase]], dtype=np.complex128
    )


def transform_points(
    points: Sequence[tuple[float, float]], matrix2: np.ndarray
) -> tuple[tuple[float, float], ...]:
    """Apply a 2x2 unitary to each direction spinor (cos θ/2, e^{iφ} sin θ/2)."""
    out = []
    for theta, phi in points:
        v = matrix2 @ np.array(
            [math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)]
        )
        t = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
        if abs(v[0]) < 1e-300 or abs(v[1]) < 1e-300:
            p = 0.0
        else:
            p = cmath.phase(v[1] * v[0].conjugate()) % (2 * math.pi)
        out.append((t, p))
    return tuple(out)


def bloch_vector(point: tuple[float, float]) -> np.ndarray:
    theta, phi = point
    return np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )


def point_multiset_distance(
    a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]
) -> float:
    """Max matched distance between two equal-size direction multisets.

    Points are compared as unit vectors on the sphere under an optimal
    one-to-one matching, so ordering and the φ gauge at the poles are
    irrelevant.
    """
    from scipy.optimize import linear_sum_assignment

    if len(a) != len(b):
        raise ValueError("point multisets must have equal size")
    va = np.array([bloch_vector(p) for p in a])
    vb = np.array([bloch_vector(p) for p in b])
    cost = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


"""Bosonic qubit encodings and rotation-only gate feasibility.

Two orthonormal states of a fixed-photon-number mode pair define a
logical qubit.  A physical unitary acts on it through its 2x2 projection
onto the code space; this module measures how well pair rotations
R(theta', phi') e^{i eta Jz} R(theta', phi')^dagger -- alone, or meshed
across four modes -- realize target logical gates.  For the Fock-pair
encoding the smallest reachable error has a proven closed form
(``fock_pair_floor``): it is zero for every unitary target at one photon
and positive for most targets beyond, which is the evidence that
rotation-only gate sets stop being universal beyond one photon.  For other
encodings, BFGS searches on the analytic gradient of the error give the
best points found; every evaluated point only bounds the minimum from
above.

The searches evaluate many points per NumPy call: the coarse scan that
gives a rotation search its first start takes blocks of theta' values at
once, writing each into one slab allocated per scan, and all restarts of a
search run one BFGS each in lockstep, with the trial points of each
iteration evaluated as one batch and the end points, whose errors and
leakages are reported, as one more.  Batched arithmetic is row by row, so
every restart ends on the same bits as it would alone.
A search needs ``restarts >= 1``, a Fock pair N >= 1, and stacks of dense
matrices within ``STACK_BYTES``; ``ssrc validate`` calls the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    BasisMismatchError,
    FockBasis,
    State,
    _check_at_least,
    basis_state,
    inner_product,
    make_basis,
)
from .prng import DEFAULT_SEED, SplitMix64
from .schwinger import (
    _hop_product,
    exp_unitary,
    j_operator,
    rotation,
)

ORTHOGONALITY_TOL = 1e-10


class NonOrthogonalCodeStatesError(ValueError):
    """Code states must be orthogonal; carries the offending overlap."""

    def __init__(self, overlap: complex):
        self.overlap = overlap
        super().__init__(
            f"code states are not orthogonal: overlap = {overlap:.3e}"
        )


@dataclass(frozen=True)
class Encoding:
    """Logical qubit: an orthonormal pair of states on a shared basis."""

    basis: FockBasis
    code_states: tuple[State, State]
    label: str

    def __post_init__(self):
        zero, one = self.code_states
        if zero.basis != self.basis or one.basis != self.basis:
            raise BasisMismatchError("code states live on a different basis")
        overlap = inner_product(zero, one)
        if abs(overlap) > ORTHOGONALITY_TOL:
            raise NonOrthogonalCodeStatesError(overlap)

    def code_vectors(self) -> np.ndarray:
        """Code states stacked as rows of a (2 x dim) array."""
        return np.vstack(
            [np.asarray(s.amplitudes) for s in self.code_states]
        )


def _check_shape(unitary, basis: FockBasis) -> None:
    if unitary.shape != (basis.dimension, basis.dimension):
        raise BasisMismatchError(
            f"operator shape {unitary.shape} does not match basis "
            f"dimension {basis.dimension}"
        )


def _check_fock_pair(n_photons: int) -> None:
    """|0, N> and |N, 0> are two states only for N >= 1."""
    _check_at_least(n_photons, 1, f"N={n_photons}")


def _fock_pair(basis: FockBasis) -> tuple[State, State]:
    """|N>_b = |0, N> and |N>_a = |N, 0> on a two-mode basis."""
    if basis.num_modes != 2:
        raise ValueError("qubit encodings are defined on two-mode bases")
    n_tot = basis.total_photons
    _check_fock_pair(n_tot)
    return basis_state(basis, (0, n_tot)), basis_state(basis, (n_tot, 0))


def make_encoding(u0, u1, basis: FockBasis, label: str = "custom") -> Encoding:
    """Encoding with |0_L> = U0 |N>_b and |1_L> = U1 |N>_a.

    U0 and U1 are matrices on ``basis``.  The images must come out
    orthogonal (within 1e-10) and unit norm.
    """
    images = []
    for u, seed in zip((u0, u1), _fock_pair(basis)):
        _check_shape(u, basis)
        vec = u @ seed.amplitudes
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(
                f"operator is not norm-preserving on a code seed "
                f"(norm {norm:.6f})"
            )
        images.append(State(basis, vec))
    return Encoding(basis, (images[0], images[1]), label)


def fock_encoding(basis: FockBasis) -> Encoding:
    """Photon-number encoding {|N>_b, |N>_a}; dual-rail when N = 1."""
    n_tot = basis.total_photons
    name = "dual-rail" if n_tot == 1 else f"fock-N{n_tot}"
    return Encoding(basis, _fock_pair(basis), name)


# ---------------------------------------------------------------------------
# Logical projections and the gate-error metric


@dataclass(frozen=True)
class LogicalProjection:
    matrix: np.ndarray
    leakage: float


def _leakage(a: np.ndarray, d: int) -> np.ndarray:
    """Mean population each d x d logical matrix of a (..., d, d) stack
    loses off the code space; |A|^2 of one matrix is summed as one flat
    row of d^2 entries."""
    pop = np.add.reduce((np.abs(a) ** 2).reshape(*a.shape[:-2], d * d),
                        axis=-1)
    return np.maximum(0.0, 1.0 - pop / d)


def logical_gate_matrix(unitary, enc: Encoding) -> LogicalProjection:
    """A_ij = <i_L| U |j_L> plus the mean population lost off the code space."""
    _check_shape(unitary, enc.basis)
    codes = enc.code_vectors()
    cols = np.stack([unitary @ row for row in codes], axis=1)
    a = codes.conj() @ cols
    return LogicalProjection(a, float(_leakage(a, codes.shape[0])))


def _error_from_trace(trace: complex, d: int) -> float:
    return max(0.0, 1.0 - abs(trace) / d)


def gate_error(unitary, target: np.ndarray, enc: Encoding) -> float:
    """E = 1 - |tr(G^dagger A)| / d; zero iff A equals G up to a phase.

    Invariant under global phases of both the physical unitary and the
    target, and penalizes leakage through the shrunken singular values
    of A.
    """
    target = np.asarray(target, dtype=np.complex128)
    proj = logical_gate_matrix(unitary, enc)
    if target.shape != proj.matrix.shape:
        raise ValueError(
            f"target shape {target.shape} does not match logical matrix "
            f"{proj.matrix.shape}"
        )
    return _error_from_trace(
        complex(np.sum(target.conj() * proj.matrix)), target.shape[0]
    )


# ---------------------------------------------------------------------------
# Standard logical targets


def r_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def r_z(theta: float) -> np.ndarray:
    return np.diag(
        [np.exp(-0.5j * theta), np.exp(0.5j * theta)]
    ).astype(np.complex128)


def hadamard_gate() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def phase_gate(lam: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * lam)]).astype(np.complex128)


def t_gate() -> np.ndarray:
    return phase_gate(math.pi / 4)


def cnot_gate() -> np.ndarray:
    mat = np.eye(4, dtype=np.complex128)
    mat[[2, 3]] = mat[[3, 2]]
    return mat


# ---------------------------------------------------------------------------
# Proven floor of the Fock-pair encoding


def fock_pair_floor(target: np.ndarray, n_photons: int) -> float:
    """Smallest gate error any passive pair map reaches on {|0,N>, |N,0>}.

    For N >= 2 the floor is 1 - max(|G00|+|G11|, |G01|+|G10|)/2, and for
    N = 1 (dual rail) it is 1 - (s1+s2)/2 with s1, s2 the singular values
    of G, which is 0 for a unitary target.

    Proof.  A passive pair map is the Schwinger image of some u in U(2),
    a^dagger -> u00 a^dagger + u10 b^dagger and
    b^dagger -> u01 a^dagger + u11 b^dagger.  Expanding
    (u00 a^dagger + u10 b^dagger)^N |0> / sqrt(N!) shows that only the
    k = N and k = 0 terms reach the code space, so the logical matrix has
    |A00| = |A11| = |u00|^N and |A01| = |A10| = |u01|^N (|u00| = |u11| and
    |u01| = |u10| hold for every unitary u).  Hence
    |tr(G^dagger A)| <= (|G00|+|G11|) |u00|^N + (|G01|+|G10|) |u01|^N
    <= max(|G00|+|G11|, |G01|+|G10|) (|u00|^N + |u01|^N),
    and for N >= 2, |u00|^N + |u01|^N <= |u00|^2 + |u01|^2 = 1.  A diagonal
    u = diag(e^{ia}, e^{ib}) gives A = diag(e^{iNb}, e^{iNa}); choosing the
    phases so that both terms of tr(G^dagger A) are real and positive
    reaches |G00|+|G11|, and an antidiagonal u with matched phases reaches
    |G01|+|G10|.  At N = 1, A is u itself up to the order of the code
    states, so A ranges over all of U(2), and the largest |tr(G^dagger A)|
    over unitaries is s1 + s2 (von Neumann's trace inequality, reached at
    the polar factor of G).  The rotation manifold of ``sg_gate_search``
    holds every element of SU(2), and a global phase leaves |tr| unchanged,
    so the floor is also the minimum over that manifold.

    Evaluated in double precision, the value can differ from the exact
    floor by a few units in the last place.
    """
    g = np.asarray(target, dtype=np.complex128)
    if g.shape != (2, 2):
        raise ValueError(f"target must be 2x2, got shape {g.shape}")
    _check_fock_pair(n_photons)
    if n_photons == 1:
        best = float(np.sum(np.linalg.svd(g, compute_uv=False)))
    else:
        mag = np.abs(g)
        best = max(mag[0, 0] + mag[1, 1], mag[0, 1] + mag[1, 0])
    return float(_error_from_trace(best, 2))


# ---------------------------------------------------------------------------
# Rotation-manifold gate search


def sg_manifold_unitary(
    basis: FockBasis,
    theta_p: float,
    phi_p: float,
    eta: float,
    mode_pair: tuple[int, int] = (0, 1),
):
    """Rotation about the tilted axis: R(theta',phi') e^{i eta Jz} R^dagger,
    a matrix like ``rotation``'s."""
    rot = rotation(basis, theta_p, phi_p, mode_pair)
    core = exp_unitary(j_operator(basis, "z", mode_pair), eta)
    return rot @ core @ rot.conj().T


def _pair_eig(
    basis: FockBasis, pair: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs (w, V) of Jy on a mode pair, and the diagonal mz of Jz.

    Jy = (P - P^T) / (2i) with P = a_i^dagger a_j real, so its real part is
    exactly +0 and its imaginary part (P^T - P) / 2.
    """
    i, j = pair
    hop = _hop_product(basis, ((i, j),))
    jy = np.zeros(hop.shape, dtype=np.complex128)
    jy.imag = 0.5 * (hop.T - hop)
    w, v = np.linalg.eigh(jy)
    occ = basis.occupations
    return w, v, (occ[:, i] - occ[:, j]) / 2.0


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis.

    Each row is reduced on its own, whatever rows share the array.  A
    matrix product would not do here: NumPy hands a one-row product to a
    BLAS matrix-vector kernel and a taller one to a matrix-matrix kernel,
    which can round differently.
    """
    return np.add.reduce(a * b, axis=-1)


class _Manifold:
    """Gate error, its gradient and leakage of a parameterized logical matrix.

    Subclasses supply ``logicals(xs)`` (the (K, d, d) logical matrices of a
    (K, P) batch of points), ``trace_and_grad(xs)`` (the K traces
    t = tr(G^dagger A) and their (K, P) derivatives by each parameter), the
    conjugated target ``g_conj`` and its dimension ``d``.  Batched code
    works row by row (stacked matrix products, elementwise arithmetic,
    ``_row_dot``), so a row's bits do not depend on which other rows share
    its batch.
    """

    def end_points(self, xs: np.ndarray) -> tuple[list[float], np.ndarray]:
        """Reported errors and leakages of a (K, P) batch of points.

        E = max(0, 1 - |t|/d) with t = sum(G^dagger * A) over each matrix
        as one flat row of d^2 entries, from one ``logicals`` call.
        """
        a = self.logicals(xs)
        t = np.add.reduce((self.g_conj * a).reshape(len(a), -1), axis=1)
        return ([_error_from_trace(complex(v), self.d) for v in t],
                _leakage(a, self.d))

    def logical(self, params: Sequence[float]) -> np.ndarray:
        """One-row view of ``logicals``."""
        return self.logicals(np.asarray(params, dtype=float)[None, :])[0]

    def error(self, params: Sequence[float]) -> float:
        """One-row view of ``end_points``."""
        return self.end_points(np.asarray(params, dtype=float)[None, :])[0][0]

    def leakage(self, params: Sequence[float]) -> float:
        """One-row view of ``end_points``."""
        return float(
            self.end_points(np.asarray(params, dtype=float)[None, :])[1][0])

    def values_and_grads(
        self, xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """E = 1 - |t|/d and its gradient -Re(conj(t) dt)/(|t| d) per row.

        E is not clipped at 0 here, so line searches see a smooth function;
        ``error`` is the reported value.  A row with t = 0 gets E = 1 and
        a zero gradient.
        """
        t, dt = self.trace_and_grad(np.asarray(xs, dtype=float))
        mod = np.abs(t)
        live = mod != 0.0
        denom = np.where(live, mod, 1.0)[:, None] * self.d
        grads = -np.real(np.conj(t)[:, None] * dt) / denom
        return 1.0 - mod / self.d, np.where(live[:, None], grads, 0.0)

    def value_and_grad(
        self, params: Sequence[float]
    ) -> tuple[float, np.ndarray]:
        """One-row view of ``values_and_grads``."""
        values, grads = self.values_and_grads(
            np.asarray(params, dtype=float)[None, :]
        )
        return float(values[0]), grads[0]


class _RotationManifold(_Manifold):
    """Fast evaluator of the logical error over (theta', phi', eta).

    Uses e^{i theta' Jy} = V e^{i theta' w} V^dagger from one Hermitian
    eigendecomposition, and the fact that e^{i phi' Jz} and e^{i eta Jz}
    are diagonal, so a block of theta' values times a (phi', eta) grid, or
    a batch of search points, reduces to products of matrix stacks.
    """

    def __init__(self, enc: Encoding, target: np.ndarray):
        self.wy, self.vy, self.m = _pair_eig(enc.basis, (0, 1))
        self.vy_h = self.vy.conj().T
        self.jy = (self.vy * self.wy) @ self.vy_h
        self.dm = self.m[None, :] - self.m[:, None]
        self.codes_conj = enc.code_vectors().conj()
        self.g_conj = np.asarray(target, dtype=np.complex128).conj()
        self.d = self.g_conj.shape[0]
        # t = tr(G^dagger A) = tr(M U) for the physical unitary U
        self.m_trace = (
            self.codes_conj.conj().T @ self.g_conj.T @ self.codes_conj
        )

    def y_matrices(self, thetas: np.ndarray) -> np.ndarray:
        """e^{i theta' Jy} for each theta', as a (T, n, n) stack."""
        phases = np.exp(1j * thetas[:, None] * self.wy)
        return (self.vy * phases[:, None, :]) @ self.vy_h

    def trace_slab(self, thetas: np.ndarray, phased: list[np.ndarray],
                   eta_phases: np.ndarray, slab: np.ndarray,
                   mod: np.ndarray) -> None:
        """tr(G^dagger A) on the (theta', phi', eta) grid into the (T, P, E)
        ``slab``, and its modulus into ``mod``.

        ``phased[i]`` holds the rows conj(code_i) * e^{i phi' m}, one per
        phi', and r_i = phased[i] @ Y(theta').
        """
        y = self.y_matrices(thetas)
        rows = [pc @ y for pc in phased]
        w = np.zeros(rows[0].shape, dtype=np.complex128)
        for i in range(self.d):
            for j in range(self.d):
                gij = self.g_conj[i, j]
                if gij != 0:
                    w += gij * (rows[i] * rows[j].conj())
        np.matmul(w, eta_phases.T, out=slab)
        np.abs(slab, out=mod)

    def logicals(self, xs: np.ndarray) -> np.ndarray:
        """A_ij = sum(r_i e^{i eta m} conj(r_j)) with r_i the row
        (conj(code_i) * e^{i phi' m}) @ Y(theta'), per row of xs."""
        y = self.y_matrices(xs[:, 0])
        phases = np.exp(1j * (xs[:, 1, None] * self.m))
        rows = [((phases * ci)[:, None, :] @ y)[:, 0]
                for ci in self.codes_conj]
        eta_ph = np.exp(1j * xs[:, 2, None] * self.m)
        a = np.empty((len(xs), self.d, self.d), dtype=np.complex128)
        for i in range(self.d):
            for j in range(self.d):
                a[:, i, j] = np.add.reduce(
                    rows[i] * eta_ph * rows[j].conj(), axis=1)
        return a

    def trace_and_grad(
        self, xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """t and dt/d(theta', phi', eta) for U = D Y E Y^dagger D^dagger.

        D = e^{i phi' Jz}, Y = e^{i theta' Jy} and E = e^{i eta Jz} with
        diagonal e = diag(E).  Write Mt = D^dagger M D and
        z(X) = diag(Y^dagger X Y).  Then t = z(Mt) . e; dY/dtheta' = i Jy Y
        gives dt = i z([Mt, Jy]) . e; dD/dphi' = i diag(m) D gives
        dt = i z([Mt, diag(m)]) . e; and dt/deta = i z(Mt) . (m e).
        Each row of xs is one point (theta', phi', eta).
        """
        n_rows, n = len(xs), len(self.m)
        y = self.y_matrices(xs[:, 0])
        d_ph = np.exp(1j * xs[:, 1:2] * self.m)
        # The generators and weights in the order the gradient reads them.
        gens = np.empty((n_rows, 3, n, n), dtype=np.complex128)
        weights = np.empty((n_rows, 3, n), dtype=np.complex128)
        mt = gens[:, 2]
        np.multiply(d_ph.conj()[:, :, None] * self.m_trace, d_ph[:, None, :],
                    out=mt)
        np.matmul(mt, self.jy, out=gens[:, 0])
        gens[:, 0] -= self.jy @ mt
        np.multiply(mt, self.dm, out=gens[:, 1])
        e_ph = weights[:, 0]
        np.exp(1j * xs[:, 2:3] * self.m, out=e_ph)
        weights[:, 1] = e_ph
        np.multiply(self.m, e_ph, out=weights[:, 2])
        z = np.add.reduce(y.conj()[:, None] * (gens @ y[:, None]), axis=2)
        return _row_dot(z[:, 2], e_ph), 1j * _row_dot(z, weights)


@dataclass(frozen=True)
class GateSearchResult:
    """Best manifold point found for a target logical gate.

    ``iterations`` sums the BFGS iterations of all restarts, and
    ``evaluations`` counts the objective rows (points at which the error
    and its gradient were evaluated) they used.
    """

    target: np.ndarray
    params: tuple[float, ...]
    error: float
    leakage: float
    restarts: int
    iterations: int
    seed: int
    evaluations: int


# Largest (theta', phi', eta) block the scan evaluates at once, in complex
# entries; one theta' slice is always whole, even when it is larger.  The
# size is part of the scan's arithmetic: the bits of ``trace_slab`` depend on
# how many theta' values one call holds.  Over N = 1..12 and 8 targets, the
# blocks of 16 agree bit for bit with one-slice calls in all 96 cases, while
# one call over all 33 values gives other bits in the 48 cases with N >= 7
# and a different start in 2, so changing the size changes the searches'
# results.
_SCAN_BLOCK = 1 << 16
_SEED_SPACING = 0.1
# The scan's theta' values, its phi' and eta values, and theta's per block.
_SCAN_THETAS = np.linspace(0.0, math.pi,
                           math.ceil(math.pi / _SEED_SPACING) + 1)
_SCAN_CIRCLE = np.arange(0.0, 2.0 * math.pi, _SEED_SPACING)
_SCAN_ROTATIONS = max(1, _SCAN_BLOCK // len(_SCAN_CIRCLE) ** 2)

#: Bytes one stack of complex dim x dim matrices of a gate search may take.
#: Two or three such stacks are alive at once.
STACK_BYTES = 1 << 30


def _check_stack(n_photons: int, restarts: int, mesh: bool = False) -> None:
    """The largest matrix stack of a search at N fits in ``STACK_BYTES``:
    ``sg_gate_search`` (N + 1 states) stacks 3 generators per start in each
    BFGS step and ``_SCAN_ROTATIONS`` per scan block; the ``mesh`` of
    ``cnot_search`` (qubits of at most N photons, at most C(2N + 3, 3)
    states) stacks 6 pair rotations per start."""
    matrices, dim = ((6 * restarts, math.comb(2 * n_photons + 3, 3)) if mesh
                     else (max(3 * restarts, _SCAN_ROTATIONS), n_photons + 1))
    size = matrices * dim * dim * 16
    if size > STACK_BYTES:
        raise ValueError(f"N={n_photons} needs a stack of {matrices} complex "
                         f"{dim} x {dim} matrices, {size:.3g} bytes, above "
                         f"the bound of {STACK_BYTES} bytes")


def _seed_scan(manifold: _RotationManifold) -> np.ndarray:
    """Best node of a grid on the rotation manifold, as (theta', phi', eta).

    theta' runs over [0, pi] and phi', eta over [0, 2 pi) at spacing 0.1;
    the largest |tr(G^dagger A)| wins, the earliest theta' slice on ties.
    The phi' and eta grids share one table of phases, and each block of
    theta' values writes into leading views of one slab and one modulus
    array, so a scan allocates them once.
    """
    circ = _SCAN_CIRCLE
    phases = np.exp(1j * np.outer(circ, manifold.m))
    phased = [phases * ci[None, :] for ci in manifold.codes_conj]
    shape = (min(_SCAN_ROTATIONS, len(_SCAN_THETAS)), len(circ), len(circ))
    slab = np.empty(shape, dtype=np.complex128)
    mod = np.empty(shape)
    best_trace, best = -1.0, None
    for lo in range(0, len(_SCAN_THETAS), _SCAN_ROTATIONS):
        chunk = _SCAN_THETAS[lo:lo + _SCAN_ROTATIONS]
        block = mod[:len(chunk)]
        manifold.trace_slab(chunk, phased, phases, slab[:len(chunk)], block)
        it, ip, ie = np.unravel_index(np.argmax(block), block.shape)
        if block[it, ip, ie] > best_trace:
            best_trace = block[it, ip, ie]
            best = np.array([chunk[it], circ[ip], circ[ie]])
    return best


_GTOL = 1e-10  # stop once max |gradient| is this small
_ARMIJO = 1e-4
_HALVINGS = 20
# Below this change f is at rounding level, where Armijo's decrease test
# cannot be met and the slope conditions decide instead.
_FLAT = 1e3 * np.finfo(float).eps


def _line_search(manifold: _Manifold, x: np.ndarray, f: np.ndarray,
                 g: np.ndarray, d: np.ndarray):
    """Backtracking along the rows of d from the rows of x (see ``_descend``).

    Returns which rows accepted a step, the steps (zero where none was
    accepted), f and g at the new points (the old values where none was),
    and the number of objective rows evaluated.  While every row is on
    trial it reads whole arrays, and if every row then passes, the trial's
    own arrays are returned.
    """
    n_rows = len(x)
    slope = _row_dot(g, d)
    alpha = np.minimum(1.0, math.pi / np.max(np.abs(d), axis=1))
    accepted = np.zeros(n_rows, dtype=bool)
    step, f_new, g_new = np.zeros_like(d), f.copy(), g.copy()
    evaluations = 0
    trial = np.flatnonzero(slope < 0.0)
    for _ in range(_HALVINGS + 1):
        if trial.size == 0:
            break
        every = trial.size == n_rows
        rows = slice(None) if every else trial
        st = alpha[rows, None] * d[rows]
        ft, gt = manifold.values_and_grads(x[rows] + st)
        evaluations += trial.size
        fa, sa = f[rows], slope[rows]
        slope_t = _row_dot(gt, d[rows])
        ok = ft <= fa + _ARMIJO * alpha[rows] * sa
        ok |= (
            (ft <= fa + _FLAT * np.maximum(1.0, np.abs(fa)))
            & (slope_t >= 0.9 * sa)
            & (slope_t <= -0.8 * sa)
        )
        if every and ok.all():
            return ok, st, ft, gt, evaluations
        done = trial[ok]
        accepted[done] = True
        step[done] = st[ok]
        f_new[done], g_new[done] = ft[ok], gt[ok]
        trial = trial[~ok]
        alpha[trial] *= 0.5
    return accepted, step, f_new, g_new, evaluations


def _descend(
    manifold: _Manifold, starts: np.ndarray
) -> tuple[np.ndarray, list[float], np.ndarray, np.ndarray, int]:
    """BFGS on the analytic gradient from K starts, advanced in lockstep.

    Each iteration evaluates the trial points of all starts still running
    as one batch.  Every start keeps its own inverse Hessian H: the
    identity, scaled by s.y / y.y at the first update, with the update
    skipped when s.y <= 0.  The step along d = -H g is first tried at
    length min(1, pi / max|d|) and halved up to 20 times until it meets the
    Armijo condition (c1 = 1e-4) or, where f changes by no more than
    1e3 eps max(1, |f|), the Hager-Zhang approximate Wolfe conditions
    0.9 phi'(0) <= phi'(a) <= -0.8 phi'(0).  The step cap matters: without
    it one seeded N = 6 T.H search drifts to |x| near 113, where phase
    rounding of about |x| eps puts the reported error 1.04e-14 below the
    proven floor.  A start leaves the batch when max|g| <= 1e-10, when its line
    search fails, or after 200 P iterations (SciPy's BFGS default).  The
    state of the starts still running is kept compact, so a step in which
    every start passes its first trial runs on whole arrays.  All
    arithmetic is row by row, so each start ends on the same bits as when
    it runs alone.

    Returns the end points (K, P), their errors and leakages from one
    ``manifold.end_points`` call (the kernel of every reported error), the
    iterations of each start and the number of objective rows evaluated.
    """
    ends = np.array(starts, dtype=float, ndmin=2)
    n_starts, n_params = ends.shape
    iterations = np.zeros(n_starts, dtype=int)
    x, nit, index = ends.copy(), iterations.copy(), np.arange(n_starts)
    f, g = manifold.values_and_grads(x)
    evaluations = n_starts
    h_inv = np.tile(np.eye(n_params), (n_starts, 1, 1))
    scaled = np.zeros(n_starts, dtype=bool)
    running = np.max(np.abs(g), axis=1) > _GTOL
    for _ in range(200 * n_params):
        if not running.all():
            ends[index], iterations[index] = x, nit
            x, nit, index, f, g, h_inv, scaled = (
                a[running] for a in (x, nit, index, f, g, h_inv, scaled))
        if index.size == 0:
            break
        d = -_row_dot(h_inv, g[:, None, :])
        accepted, s, f, g_new, count = _line_search(manifold, x, f, g, d)
        evaluations += count
        np.add(x, s, out=x, where=accepted[:, None])
        nit += accepted
        # Rows without a step have s = 0, so s.y = 0 skips their update.
        y = g_new - g
        g = g_new
        sy = _row_dot(s, y)
        keep = sy > 0.0
        rows = slice(None) if keep.all() else keep
        h, s, y, sy = h_inv[rows], s[rows], y[rows], sy[rows]
        fresh = ~scaled[rows]
        if fresh.any():
            h[fresh] *= (sy[fresh]
                         / _row_dot(y[fresh], y[fresh]))[:, None, None]
            scaled[rows] = True
        rho = 1.0 / sy
        hy = _row_dot(h, y[:, None, :])
        coef = rho * (1.0 + rho * _row_dot(y, hy))
        h_inv[rows] = (
            h
            - rho[:, None, None] * (hy[:, :, None] * s[:, None, :]
                                    + s[:, :, None] * hy[:, None, :])
            + coef[:, None, None] * (s[:, :, None] * s[:, None, :])
        )
        running = accepted & (np.max(np.abs(g), axis=1) > _GTOL)
    ends[index], iterations[index] = x, nit
    errors, leakages = manifold.end_points(ends)
    return ends, errors, leakages, iterations, evaluations


def _check_restarts(restarts: int) -> None:
    _check_at_least(restarts, 1, "restarts")


def _uniform_starts(
    seed: int, count: int, ranges: Sequence[float]
) -> list[np.ndarray]:
    """``count`` starts, coordinate i uniform on [0, ranges[i]), drawn in
    order from ``SplitMix64(seed)``."""
    rng = SplitMix64(seed)
    return [np.array([rng.uniform() * top for top in ranges])
            for _ in range(count)]


def _multistart(
    manifold: _Manifold,
    target: np.ndarray,
    starts: list[np.ndarray],
    seed: int,
) -> GateSearchResult:
    """BFGS from all starts in lockstep; keep the lowest error.

    Ties go to the earliest start.
    """
    ends, errors, leakages, iterations, evaluations = _descend(
        manifold, starts)
    best = int(np.argmin(errors))
    return GateSearchResult(
        np.asarray(target, dtype=np.complex128),
        tuple(float(v) for v in ends[best]),
        errors[best],
        float(leakages[best]),
        len(starts),
        int(iterations.sum()),
        seed,
        evaluations,
    )


def sg_gate_search(
    target: np.ndarray,
    enc: Encoding,
    restarts: int = 8,
    seed: int = DEFAULT_SEED,
) -> GateSearchResult:
    """Multi-start BFGS search over (theta', phi', eta).

    One start is the best node of a grid scan at spacing 0.1 on the
    search's own manifold; the rest are seeded uniform draws.  All starts
    descend in lockstep.  The lowest error wins, the earliest start on
    ties, so the result is deterministic given the seed.
    """
    _check_restarts(restarts)
    _check_stack(enc.basis.total_photons, restarts)
    target = np.asarray(target, dtype=np.complex128)
    manifold = _RotationManifold(enc, target)
    starts = [_seed_scan(manifold)] + _uniform_starts(
        seed, restarts - 1, (math.pi, 2.0 * math.pi, 2.0 * math.pi))
    return _multistart(manifold, target, starts, seed)


# ---------------------------------------------------------------------------
# Four-mode mesh search (two-qubit gates)

_MESH_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 1),
    (2, 3),
    (1, 2),
    (0, 1),
    (2, 3),
    (1, 2),
)


def _composite_codes(
    enc_a: Encoding, enc_b: Encoding, basis: FockBasis
) -> np.ndarray:
    """Rows |xy_L> = |x_L> (x) |y_L> embedded in the 4-mode sector."""
    sub_a, sub_b = enc_a.basis, enc_b.basis
    amps_a = enc_a.code_vectors()
    amps_b = enc_b.code_vectors()
    occ = basis.occupations
    live = np.flatnonzero(occ[:, :2].sum(axis=1) == sub_a.total_photons)
    ia = sub_a.rank(occ[live, :2])
    ib = sub_b.rank(occ[live, 2:])
    x, y = amps_a[:, None, ia], amps_b[None, :, ib]
    # Real arithmetic: a SIMD complex product may fuse multiply-adds and
    # so change the last bits from one CPU to another.
    codes = np.zeros((2, 2, basis.dimension), dtype=np.complex128)
    codes.real[:, :, live] = x.real * y.real - x.imag * y.imag
    codes.imag[:, :, live] = x.real * y.imag + x.imag * y.real
    return codes.reshape(4, basis.dimension)


class _MeshManifold(_Manifold):
    """Passive 4-mode mesh: six pair rotations plus four output phases.

    Each distinct mode pair is eigendecomposed once; the six blocks of the
    schedule (Jy eigenvalues w, eigenvectors V and V^dagger, the Jz
    diagonal mz, and Jy) are stacked along a leading axis.
    """

    def __init__(self, basis: FockBasis, codes: np.ndarray, target: np.ndarray):
        self.dim = basis.dimension
        self.codes_conj = codes.conj()
        self.g_conj = np.asarray(target, dtype=np.complex128).conj()
        self.d = self.g_conj.shape[0]
        eig = {pair: _pair_eig(basis, pair) for pair in set(_MESH_PAIRS)}
        self.w, self.v, self.mz = (
            np.stack([eig[pair][i] for pair in _MESH_PAIRS]) for i in range(3)
        )
        self.vh = self.v.conj().transpose(0, 2, 1)
        self.jy = (self.v * self.w[:, None, :]) @ self.vh
        self.occ_matrix = basis.occupations.astype(float)
        self.code_cols = self.codes_conj.conj().T
        self.weighted_rows = self.g_conj.T @ self.codes_conj

    def logicals(self, xs: np.ndarray) -> np.ndarray:
        """codes_conj U codes^T with U = P S_6 ... S_1, per row of xs.

        Each row's products are its own stacked items, with the shapes and
        BLAS kernels of a one-point evaluation.
        """
        n_rows = len(xs)
        u = np.broadcast_to(np.eye(self.dim, dtype=np.complex128),
                            (n_rows, self.dim, self.dim))
        for k in range(len(_MESH_PAIRS)):
            rot = np.exp(1j * xs[:, 2 * k, None] * self.w[k])
            y = (self.v[k] * rot[:, None, :]) @ self.vh[k]
            dph = np.exp(1j * xs[:, 2 * k + 1, None] * self.mz[k])
            u = (dph[:, :, None] * y) @ u
        angles = (self.occ_matrix @ xs[:, 12:16, None])[:, :, 0]
        u = np.exp(1j * angles)[:, :, None] * u
        return self.codes_conj @ u @ self.codes_conj.conj().T

    def trace_and_grad(
        self, xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """t = tr(Q P S_6 ... S_1 C) and its 16 derivatives, per row of xs.

        C holds the code columns, Q = G^dagger-weighted code rows, P the
        output phases and S_k = D_k Y_k the k-th pair rotation.  A forward
        sweep stores X_k = S_k ... S_1 C, a backward sweep carries
        R_k = Q P S_6 ... S_{k+1}, and t = tr(R_k X_k) for every k.  Since
        dS_k/dtheta_k = i (D_k Jy_k D_k^dagger) S_k and
        dS_k/dphi_k = i diag(mz_k) S_k, each derivative is i tr(R_k H X_k)
        with H the matching generator; output phase j contributes
        i tr(Q diag(occ_j) P X_6).
        """
        n_rows, n_blocks = len(xs), len(_MESH_PAIRS)
        dph = np.exp(1j * xs[:, 1:12:2, None] * self.mz)
        rot = np.exp(1j * xs[:, 0:12:2, None] * self.w)
        steps = dph[..., None] * ((self.v * rot[:, :, None, :]) @ self.vh)
        cols = np.empty((n_rows, n_blocks, self.dim, 4), dtype=np.complex128)
        x = self.code_cols
        for k in range(n_blocks):
            x = cols[:, k] = steps[:, k] @ x
        # Sum over the four modes term by term: a matrix product here could
        # round a one-row batch differently (see _row_dot).
        angles = xs[:, 12, None] * self.occ_matrix[:, 0]
        for j in range(1, 4):
            angles = angles + xs[:, 12 + j, None] * self.occ_matrix[:, j]
        r = self.weighted_rows * np.exp(1j * angles)[:, None, :]
        per_mode = _row_dot(np.swapaxes(r, 1, 2), x)
        rows = np.empty((n_rows, n_blocks, 4, self.dim), dtype=np.complex128)
        for k in range(n_blocks - 1, -1, -1):
            rows[:, k] = r
            r = r @ steps[:, k]
        rt = np.swapaxes(rows, 2, 3)
        hx = dph[..., None] * (self.jy @ (dph.conj()[..., None] * cols))
        grad = np.empty((n_rows, 16), dtype=np.complex128)
        grad[:, 0:12:2] = 1j * np.add.reduce(
            (hx * rt).reshape(n_rows, n_blocks, -1), axis=2)
        grad[:, 1:12:2] = 1j * _row_dot(_row_dot(cols, rt), self.mz)
        grad[:, 12:16] = 1j * _row_dot(per_mode[:, None, :], self.occ_matrix.T)
        return np.add.reduce(per_mode, axis=1), grad


def cnot_search(
    enc_pair: Encoding | tuple[Encoding, Encoding],
    restarts: int = 8,
    seed: int = DEFAULT_SEED,
    target: np.ndarray | None = None,
) -> GateSearchResult:
    """Best passive 4-mode mesh approximation to a two-qubit gate.

    The mesh is six two-mode rotations on the pair schedule
    (0,1),(2,3),(1,2),(0,1),(2,3),(1,2) followed by four output phases
    (16 parameters), which parameterizes the full 4-mode linear-optics
    group; the logical space is the tensor product of the two encodings'
    code pairs inside the fixed-total-photon sector.

    The first start is every parameter at 1e-3: the all-zero point is
    stationary for CNOT (at N = 1 and 2 its error is 0.5 with a zero
    gradient to rounding), so a gradient search started there would not
    move.  The other starts are seeded uniform draws.  All starts descend
    in lockstep as in ``sg_gate_search``.  The result is a search result,
    an upper bound on the mesh minimum, not a certificate.
    """
    _check_restarts(restarts)
    if isinstance(enc_pair, Encoding):
        enc_a = enc_b = enc_pair
    else:
        enc_a, enc_b = enc_pair
    n_a, n_b = enc_a.basis.total_photons, enc_b.basis.total_photons
    basis = make_basis(4, n_a + n_b)
    _check_stack(max(n_a, n_b), restarts, mesh=True)
    codes = _composite_codes(enc_a, enc_b, basis)
    if target is None:
        target = cnot_gate()
    manifold = _MeshManifold(basis, codes, target)
    ranges = (math.pi, 2.0 * math.pi) * 6 + (2.0 * math.pi,) * 4
    starts = [np.full(16, 1e-3)] + _uniform_starts(seed, restarts - 1, ranges)
    return _multistart(manifold, target, starts, seed)


# ---------------------------------------------------------------------------
# Reporting


def feasibility_report(
    enc: Encoding,
    target_label: str,
    search: GateSearchResult,
    floor: float | None = None,
) -> dict:
    """JSON-ready summary of a gate search and, if given, its proven floor."""
    return {
        "encoding": enc.label,
        "N": enc.basis.total_photons,
        "target_gate": target_label,
        "best_error": search.error,
        "certified_floor": floor,
        "restarts": search.restarts,
        "seed": search.seed,
    }

"""Sequential synthesis of fixed-N states by small ladder rotations.

Starting from the reference state with every photon in the last mode, a
target amplitude vector is built by a sweep of exponentials
``exp(alpha * B - conj(alpha) * B†)`` whose generators ``B`` are products
of hops raising photons out of the reference mode, one generator per basis
state of up to ``max_order`` raised photons (``J+^k`` for k = 1..N on two
modes).  The sweep runs over them twice, then once more over the
first-order hops; one rule serves every number of modes.  The sweep's
amplitudes are solved from the reference state: damped Gauss-Newton on
generators scaled to unit spectral norm, with each step's unitary and
derivatives taken from one eigendecomposition per generator per
process, then seeded restarts while the fidelity misses the goal.  Each
Levenberg-Marquardt run allocates one workspace, and every iteration's
kernels write into it.  Each solved amplitude is split into repetitions
of at most ``small_angle``.

A plan is plain data: its steps, target and ``small_angle``.  Planning
executes nothing; ``execute_plan`` is the one place steps are applied,
independently of the solver: one batched ``scipy.linalg.expm`` over the
plan's stack of step generators, then ``matrix_power`` per step.  Both
read the dense generators from ``schwinger._hop_product``, cached for the
process.
The arguments are checked up front by named ``_check_*`` functions, which
``ssrc validate`` also calls.
"""

from __future__ import annotations

import cmath
import json
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .cvlimit import _check_increasing, _loglog_fit
from .hilbert import (
    BasisMismatchError,
    FockBasis,
    State,
    _array,
    _check_at_least,
    _fields,
    _integer,
    _real,
    basis_state,
    fidelity,
    make_basis,
    random_state,
)
from .prng import DEFAULT_SEED, SplitMix64
from .schwinger import _hop_product

logger = logging.getLogger(__name__)

#: Default bound on per-step amplitudes.
SMALL_ANGLE_DEFAULT = 1e-2

#: Below this overlap |⟨target|start⟩| the solver skips the zero start: zero
#: amplitudes are a stationary point of the fidelity there.
C0_FLOOR = 1e-6

#: Largest N the complexity probe plans at.
PROBE_N_MAX = 32

#: Amplitude solver: default fidelity that ends the search, number of
#: seeded restarts after the start from zero, and the LM stopping rule
#: (residual norm and iteration cap).
SOLVE_GOAL = 1 - 1e-10
RESTARTS = 12
LM_TOL = 1e-13
LM_MAXIT = 200


def _check_small_angle(small_angle: float) -> None:
    if not 0 < small_angle <= 1:
        raise ValueError(
            f"small_angle must lie in (0, 1], got {small_angle!r}")


def _check_probe_n(n_tot: int) -> None:
    """The complexity probe plans at 1 <= N <= ``PROBE_N_MAX``."""
    _check_at_least(n_tot, 1, f"N={n_tot}")
    if n_tot > PROBE_N_MAX:
        raise ValueError(f"N={n_tot} exceeds the probe's limit {PROBE_N_MAX}")


def _check_fidelity_target(fidelity_target: float,
                           name: str = "fidelity_target") -> None:
    if not 0 < fidelity_target <= 1:
        raise ValueError(
            f"{name} must lie in (0, 1], got {fidelity_target!r}")


def _check_targets_per_n(targets_per_n: int) -> None:
    _check_at_least(targets_per_n, 1, "targets_per_n")


class TargetOrderError(ValueError):
    """Multimode target has support beyond the configured excitation order."""


@dataclass(frozen=True)
class PlanStep:
    """One exponential step, applied ``repetitions`` times.

    ``pairs`` lists the mode pairs whose raising hops are multiplied into
    the generator ``B``; ``order = len(pairs)`` photons are moved per
    application of ``B``.
    """

    order: int
    pairs: tuple[tuple[int, int], ...]
    amplitude: complex
    repetitions: int


@dataclass(frozen=True)
class SynthesisPlan:
    """Ordered steps steering the reference state to ``target``."""

    steps: tuple[PlanStep, ...]
    target: State
    small_angle: float

    def __post_init__(self):
        _check_small_angle(self.small_angle)
        modes = range(self.target.basis.num_modes)
        for k, step in enumerate(self.steps):
            reps = step.repetitions
            if not (isinstance(reps, int) and reps >= 1):
                raise ValueError(
                    f"step {k}: repetitions must be an int >= 1, got {reps!r}")
            if not step.order == len(step.pairs) >= 1:
                raise ValueError(
                    f"step {k}: order {step.order} must equal the number "
                    f"of pairs {len(step.pairs)}, at least 1")
            for i, j in step.pairs:
                if i == j or i not in modes or j not in modes:
                    raise ValueError(
                        f"step {k}: pair ({i}, {j}) must name two distinct "
                        f"modes of {len(modes)}")
            if not cmath.isfinite(step.amplitude):
                raise ValueError(
                    f"step {k}: amplitude {step.amplitude!r} is not finite")

    @property
    def total_repetitions(self) -> int:
        return sum(s.repetitions for s in self.steps)

    def to_json(self) -> str:
        return json.dumps(
            {
                "small_angle": self.small_angle,
                "target": json.loads(self.target.to_json()),
                "steps": [
                    {
                        "order": s.order,
                        "pairs": [list(p) for p in s.pairs],
                        "amplitude": [s.amplitude.real, s.amplitude.imag],
                        "repetitions": s.repetitions,
                    }
                    for s in self.steps
                ],
            }
        )

    @staticmethod
    def from_json(text: str) -> "SynthesisPlan":
        target, small_angle, steps = _fields(
            json.loads(text), ("target", "small_angle", "steps"), "plan")
        steps = tuple(_step_from_json(k, step) for k, step
                      in enumerate(_array(steps, None, "plan: steps")))
        return SynthesisPlan(steps, State.from_json(json.dumps(target)),
                             _real(small_angle, "plan: small_angle"))


def _step_from_json(k: int, s) -> PlanStep:
    """Step ``k`` of a plan's JSON; the plan checks the values' ranges."""
    where = f"step {k}"
    order, pairs, amplitude, reps = _fields(
        s, ("order", "pairs", "amplitude", "repetitions"), where)
    re, im = _array(amplitude, 2, f"{where}: amplitude")
    return PlanStep(
        order=_integer(order, f"{where}: order"),
        pairs=tuple(
            tuple(_integer(i, f"{where}: pair index")
                  for i in _array(pair, 2, f"{where}: pair"))
            for pair in _array(pairs, None, f"{where}: pairs")),
        amplitude=complex(_real(re, f"{where}: amplitude"),
                          _real(im, f"{where}: amplitude")),
        repetitions=_integer(reps, f"{where}: repetitions"),
    )


@dataclass(frozen=True)
class ExecutionResult:
    state: State
    fidelity: float


# ---------------------------------------------------------------------------
# Generators and execution


def _amplitudes(sig: np.ndarray) -> np.ndarray:
    """Complex step amplitudes from interleaved (re, im) solver parameters."""
    return sig[0::2] + 1j * sig[1::2]


def execute_plan(plan: SynthesisPlan, initial: State) -> ExecutionResult:
    """Apply each step's unitary exp(rho B - conj(rho) B†) ``repetitions``
    times to ``initial``; report fidelity against the plan target."""
    from scipy.linalg import expm

    if initial.basis != plan.target.basis:
        raise BasisMismatchError("plan target and initial state bases differ")
    basis = initial.basis
    vec = np.asarray(initial.amplitudes)
    if plan.steps:
        # One batched expm over the stack of step generators; SciPy runs
        # the same arithmetic on each slice as on a lone matrix.
        d = basis.dimension
        gens = np.empty((len(plan.steps), d, d), dtype=np.complex128)
        for gen, step in zip(gens, plan.steps):
            rho = step.amplitude
            b = _hop_product(basis, step.pairs)
            gen[...] = rho * b - np.conj(rho) * b.T
        for unit, step in zip(expm(gens), plan.steps):
            vec = np.linalg.matrix_power(unit, step.repetitions) @ vec
    result = State(basis, vec, check_drift=True)
    return ExecutionResult(result, fidelity(result, plan.target))


def _steps_from_amplitudes(
    rhos: Sequence[complex],
    pairs_list: Sequence[tuple[tuple[int, int], ...]],
    small_angle: float,
) -> list[PlanStep]:
    """Split net amplitudes into ceil(|rho|/small_angle) repetitions."""
    steps = []
    for rho, pairs in zip(rhos, pairs_list):
        if rho == 0:
            continue
        reps = max(1, math.ceil(abs(rho) / small_angle))
        steps.append(
            PlanStep(len(pairs), tuple(pairs), rho / reps, reps)
        )
    return steps


# ---------------------------------------------------------------------------
# Amplitude solver


def _dagger(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return stack.conj().transpose(0, 2, 1)


class _Workspace:
    """The arrays one LM run reuses: ``_ProductSolver._forward`` fills the
    forward ones at each point, ``_ProductSolver._jacobian`` the rest.

    Each array has the shape, dtype and strides of the temporary it
    replaces, so every kernel writing into it with ``out=`` rounds as the
    temporary did.  ``r`` and ``v`` are the residual and product vector of
    the last point filled.

    The arrays are 64-byte aligned views of one allocation.  Allocated
    apart, each (m, d, d) array would set glibc's trim threshold to about
    twice its own size, below the whole workspace, so freeing them would
    trim the heap and the next run would fault every page in again; one
    block raises the threshold above its own size, and a warm plan at
    N = 16 or 20 faults no page.
    """

    def __init__(self, m: int, u: np.ndarray, t: np.ndarray):
        d = len(u)
        cplx, real = np.complex128, np.float64
        mdd = (m, d, d)
        shapes = {
            # Forward: |rho| and e^{-i theta}; e^{i theta q}, w, sin(w/2),
            # e^{iw/2} and e^{iw} - 1 per eigenvalue; eigenvectors V, their
            # conjugate (read as V† through the view ``_dagger`` gives),
            # scratch, the step unitaries, the prefix products and the
            # residual.
            "mag": ((m,), real), "back": ((m,), cplx),
            "phase": ((m, d), cplx), "w": ((m, d), real),
            "sine": ((m, d), real), "half": ((m, d), cplx),
            "shift": ((m, d), cplx), "vecs": (mdd, cplx), "vc": (mdd, cplx),
            "scratch": (mdd, cplx), "units": (mdd, cplx),
            "pre": ((m + 1, d), cplx), "rc": ((d,), cplx),
            "r": ((2 * d,), real),
            # Jacobian.
            "left": (mdd, cplx), "x": (mdd, real), "sinx": (mdd, real),
            "sinc": (mdd, real), "mask": (mdd, np.bool_),
            "hy": ((m, d, 1), cplx), "y": ((m, d, 1), cplx),
            "zp": ((m, d), cplx), "zm": ((m, d), cplx),
            "dirs": ((m, d, 2), cplx), "vd": ((m, d, 2), cplx),
            "cols": ((m, d, 2), cplx), "jac": ((2 * d, 2 * m), real),
        }
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize
                 for shape, dtype in shapes.values()]
        padded = [-(-n // 64) * 64 for n in sizes]
        block = np.empty(sum(padded) + 64, dtype=np.uint8)
        start = -block.ctypes.data % 64
        for (name, (shape, dtype)), n, step in zip(shapes.items(), sizes,
                                                   padded):
            setattr(self, name,
                    block[start:start + n].view(dtype).reshape(shape))
            start += step
        self.proj = np.eye(d) - np.outer(t, t.conj())
        self.vh = self.vc.transpose(0, 2, 1)
        self.diag = self.units.reshape(m, d * d)[:, ::d + 1]
        self.pre[0] = u
        self.v = self.pre[-1]
        # The two sequential products, as (factor, operand, result) row
        # views: pre[i+1] = units[i] @ pre[i] and left[i-1] = left[i] @
        # units[i].  ``np.dot`` makes the BLAS call ``np.matmul`` makes on
        # these contiguous rows, for less overhead per call.
        pre, units, left = self.pre, self.units, self.left
        self.prefix_steps = [(units[i], pre[i], pre[i + 1])
                             for i in range(m)]
        self.left_steps = [(left[i], units[i], left[i - 1])
                           for i in range(m - 1, 0, -1)]
        # (m, d, 2) views of the Jacobian's real and imaginary rows.
        self.jac_re = self.jac[:d].reshape(d, m, 2).transpose(1, 0, 2)
        self.jac_im = self.jac[d:].reshape(d, m, 2).transpose(1, 0, 2)


class _ProductSolver:
    """Solve prod_i exp(rho_i P_i - conj(rho_i) P_i†) u ≈ t (up to phase).

    Every generator P_i must raise the grade ``q`` (photons out of the
    reference mode) by exactly its order; it is then scaled to unit
    spectral norm (``scale`` holds the norms, so the solved amplitudes
    divided by ``scale`` are those of the raw generators), and the
    Hermitian H0_i = -i(P_i - P_i†) is diagonalised once, batched over the
    stack.  For rho = |rho| e^{i theta}, D = diag(e^{i theta q / order})
    gives D P D† = e^{i theta} P, so the step generator is
    i |rho| D H0 D†: its eigenvalues are |rho| w0 and its eigenvectors
    D V0.  The step unitary and its derivatives in Re rho and Im rho
    (Daleckii-Krein divided differences, Higham 2008, §3.2) follow from that
    decomposition with no matrix exponential.

    Damped Gauss-Newton on the phase-projected residual (I - t t†) v;
    falls back to deterministic perturbed restarts.  Each LM run allocates
    one ``_Workspace`` and every iteration's kernels write into it, so an
    iteration allocates no (m, d, d) array; the solver's own arrays stay
    read-only and shared.
    """

    def __init__(
        self,
        generators: Sequence[np.ndarray],
        grade: Sequence[int],
        orders: Sequence[int],
    ):
        d = len(grade)
        p = np.asarray(generators, dtype=np.complex128).reshape(-1, d, d)
        grade = np.asarray(grade, dtype=float)
        orders = np.asarray(orders, dtype=float)
        raised = grade[:, None] - grade[None, :]
        if np.any((p != 0) & (raised != orders[:, None, None])):
            raise ValueError("generator does not raise the grade by its order")
        self.m = len(p)
        self.scale = np.linalg.norm(p, 2, axis=(1, 2))
        p = p / self.scale[:, None, None]
        self.w0, self.v0 = np.linalg.eigh(-1j * (p - _dagger(p)))
        self.b0 = _dagger(self.v0) @ p @ self.v0
        self.b0h = _dagger(self.b0)
        self.half_gap = 0.5 * (self.w0[:, :, None] - self.w0[:, None, :])
        self.q = grade / orders[:, None]

    def _forward(self, sig, u, t, out: _Workspace | None = None
                 ) -> _Workspace:
        """Step unitaries, prefix products and residual at ``sig``, written
        into ``out`` (a workspace made for the same ``u`` and ``t``) or into
        a new workspace."""
        ws = _Workspace(self.m, u, t) if out is None else out
        d = len(u)
        rho = _amplitudes(sig)
        theta = np.angle(rho)
        # V = diag(e^{i theta q}) V0, |rho| and e^{-i theta} per step.
        np.multiply(1j * theta[:, None], self.q, out=ws.phase)
        np.exp(ws.phase, out=ws.phase)
        np.multiply(ws.phase[:, :, None], self.v0, out=ws.vecs)
        np.abs(rho, out=ws.mag)
        np.exp(np.multiply(-1j, theta, out=ws.back), out=ws.back)
        # e^{iw} - 1 = 2i sin(w/2) e^{iw/2}, exactly 0 where w is 0.
        w = np.multiply(ws.mag[:, None], self.w0, out=ws.w)
        np.exp(np.multiply(0.5j, w, out=ws.half), out=ws.half)
        np.sin(np.multiply(0.5, w, out=ws.sine), out=ws.sine)
        np.multiply(2j, ws.sine, out=ws.shift)
        np.multiply(ws.shift, ws.half, out=ws.shift)
        np.conj(ws.vecs, out=ws.vc)
        np.multiply(ws.vecs, ws.shift[:, None, :], out=ws.scratch)
        np.matmul(ws.scratch, ws.vh, out=ws.units)
        ws.diag += 1.0
        for unit, before, after in ws.prefix_steps:
            np.dot(unit, before, out=after)
        np.matmul(ws.proj, ws.v, out=ws.rc)
        ws.r[:d] = ws.rc.real
        ws.r[d:] = ws.rc.imag
        return ws

    def _jacobian(self, ws: _Workspace) -> np.ndarray:
        """Jacobian of the residual at the point ``_forward`` last wrote
        into ``ws``; the array returned is the workspace's."""
        # left[i] = proj @ units[m-1] @ ... @ units[i+1].  Each product
        # needs the next one, so the loop stays sequential.
        left = ws.left
        left[self.m - 1:] = ws.proj  # empty slice when there are no steps
        for after, unit, before in ws.left_steps:
            np.dot(after, unit, out=before)
        # Daleckii-Krein: dU(E) = V (Phi o V†EV) V† with
        # Phi = diag(h) S diag(h), h = e^{iw/2}, S_jk = sinc((w_j - w_k)/2),
        # V†EV = back B0 - conj(back) B0† (Re rho), i(... + ...) (Im rho).
        x = np.multiply(ws.mag[:, None, None], self.half_gap, out=ws.x)
        np.not_equal(x, 0, out=ws.mask)
        ws.sinc.fill(1.0)
        np.divide(np.sin(x, out=ws.sinx), x, out=ws.sinc, where=ws.mask)
        half = ws.half
        hy = np.matmul(ws.vh, ws.pre[:-1, :, None], out=ws.hy)
        np.multiply(half[:, :, None], hy, out=hy)
        for z, b, back in ((ws.zp, self.b0, ws.back),
                           (ws.zm, self.b0h, ws.back.conj())):
            np.multiply(ws.sinc, b, out=ws.scratch)
            np.matmul(ws.scratch, hy, out=ws.y)
            np.multiply(back[:, None], half, out=z)
            np.multiply(z, ws.y[..., 0], out=z)
        zp, zm, dirs = ws.zp, ws.zm, ws.dirs
        np.subtract(zp, zm, out=dirs[..., 0])
        np.multiply(1j, np.add(zp, zm, out=dirs[..., 1]), out=dirs[..., 1])
        np.matmul(ws.vecs, dirs, out=ws.vd)
        np.matmul(left, ws.vd, out=ws.cols)
        ws.jac_re[...] = ws.cols.real
        ws.jac_im[...] = ws.cols.imag
        return ws.jac

    def _lm(self, sig0, u, t):
        """Levenberg-Marquardt from ``sig0``, in one workspace.

        Only the iterate at the top of an iteration gets a Jacobian: a
        rejected trial, or the final accepted iterate, needs only its
        residual.  Once the Jacobian, gradient and damping are taken, the
        current iterate needs only ``sig``, ``cost`` and a copy of ``v``,
        so every trial overwrites the workspace.
        """
        sig = sig0.copy()
        lam = 1e-3
        ws = self._forward(sig, u, t)
        cost = ws.r @ ws.r
        v = ws.v.copy()
        for _ in range(LM_MAXIT):
            jac = self._jacobian(ws)
            g = jac.T @ ws.r
            a = jac.T @ jac
            damping = np.diag(np.maximum(np.diag(a), 1e-12))
            improved = False
            for _ in range(50):
                try:
                    step = np.linalg.solve(a + lam * damping, -g)
                except np.linalg.LinAlgError:
                    lam *= 10
                    continue
                trial = sig + step
                self._forward(trial, u, t, out=ws)
                trial_cost = ws.r @ ws.r
                if trial_cost < cost:
                    sig, cost, v = trial, trial_cost, ws.v.copy()
                    lam = max(lam * 0.3, 1e-12)
                    improved = True
                    break
                lam *= 10
                if lam > 1e12:
                    return sig, cost, v
            if not improved or cost < LM_TOL * LM_TOL:
                break
        return sig, cost, v

    def _starts(self, from_zero: bool):
        """Zero if ``from_zero``, then ``RESTARTS`` seeded perturbations of
        scale 0.25, 0.5 and 0.75 in turn."""
        if from_zero:
            yield np.zeros(2 * self.m)
        for i in range(RESTARTS):
            rng = SplitMix64(7000 + i)
            scale = 0.25 * (1 + i % 3)
            yield np.array([scale * rng.normal() for _ in range(2 * self.m)])

    def solve(self, u, t, goal: float):
        """Best LM result over ``_starts``, stopping at fidelity ``goal``;
        the earliest start wins ties.

        The zero start is skipped when |⟨t|u⟩| < ``C0_FLOOR``: the fidelity
        is stationary at zero there, so LM could leave it only through
        rounding noise.
        """
        best = None
        for sig0 in self._starts(abs(np.vdot(t, u)) >= C0_FLOOR):
            sig, _, v = self._lm(sig0, u, t)
            f = abs(np.vdot(v, t)) ** 2
            if best is None or f > best[0]:
                best = (f, sig)
            if best[0] >= goal:
                break
        return best[1], best[0]


# ---------------------------------------------------------------------------
# Planners


def _raised(basis: FockBasis) -> np.ndarray:
    """Photons out of the last (reference) mode, per basis state."""
    return basis.total_photons - basis.occupations[:, -1]


def _sweep(
    basis: FockBasis, max_order: int
) -> list[tuple[tuple[int, int], ...]]:
    """The planners' sweep, as pairs tuples (one hop per raised photon).

    One generator per state with 1..max_order photons out of the last mode,
    sorted by (order, occupation); the sweep runs over them twice, then once
    more over the first-order ones.
    """
    order = _raised(basis)
    support = np.flatnonzero((order >= 1) & (order <= max_order))
    # Indices ascend with the occupation, so a stable sort by order
    # leaves ties in occupation order.
    support = support[np.argsort(order[support], kind="stable")]
    last = basis.num_modes - 1
    gens = [
        tuple((mode, last) for mode in range(last)
              for _ in range(basis.occupations[idx, mode]))
        for idx in support
    ]
    return gens + gens + [pairs for pairs in gens if len(pairs) == 1]


@lru_cache(maxsize=None)
def _solver(
    basis: FockBasis, max_order: int
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], _ProductSolver]:
    """The sweep of ``_sweep`` and its ``_ProductSolver``, whose arrays are
    made read-only; every plan on ``basis`` at ``max_order`` shares them.

    The generators do not depend on the target, so their
    eigendecompositions are taken once per process.
    """
    pairs_list = tuple(_sweep(basis, max_order))
    solver = _ProductSolver(
        [_hop_product(basis, pairs) for pairs in pairs_list],
        _raised(basis),
        [len(pairs) for pairs in pairs_list],
    )
    for value in vars(solver).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return pairs_list, solver


def plan_multimode(
    target: State,
    small_angle: float = SMALL_ANGLE_DEFAULT,
    *,
    max_order: int = 2,
    fidelity_goal: float = SOLVE_GOAL,
) -> SynthesisPlan:
    """Plan a sweep steering |0,...,0,N⟩ to a multimode target.

    Generators are products of raising hops a_j† a_K moving up to
    ``max_order`` photons out of the last mode.  The sweep runs over them
    twice, then once more over the first-order hops, and its amplitudes
    are solved from |0,...,0,N⟩ until the fidelity reaches
    ``fidelity_goal``; a solve that misses the goal is logged as a
    warning.  Targets with support beyond ``max_order`` excitations are
    rejected.  ``max_order`` must be at least 1 and ``fidelity_goal`` lie
    in (0, 1].
    """
    _check_small_angle(small_angle)
    _check_at_least(max_order, 1, "max_order")
    _check_fidelity_target(fidelity_goal, "fidelity_goal")
    basis = target.basis
    beyond = np.flatnonzero(
        (_raised(basis) > max_order) & (np.abs(target.amplitudes) > 1e-13)
    )
    if beyond.size:
        raise TargetOrderError(
            f"target has support at {basis.occupation_of(beyond[0])}, "
            f"beyond max_order={max_order}"
        )
    pairs_list, solver = _solver(basis, max_order)
    reference = (0,) * (basis.num_modes - 1) + (basis.total_photons,)
    sig, achieved = solver.solve(
        np.asarray(basis_state(basis, reference).amplitudes),
        np.asarray(target.amplitudes), fidelity_goal)
    if achieved < fidelity_goal:
        logger.warning("solver fidelity %.13f misses the goal %.13f",
                       achieved, fidelity_goal)
    # The solver works on unit-norm generators; dividing by their norms
    # gives the raw generators' amplitudes.
    steps = _steps_from_amplitudes(
        _amplitudes(sig) / solver.scale, pairs_list, small_angle)
    return SynthesisPlan(tuple(steps), target, small_angle)


def plan_two_mode(
    target: State,
    small_angle: float = SMALL_ANGLE_DEFAULT,
    *,
    fidelity_goal: float = SOLVE_GOAL,
) -> SynthesisPlan:
    """Plan a ladder sweep steering |0, N⟩ to ``target`` on a two-mode basis.

    For N = 1 the single step is the exact rotation onto the target.
    Otherwise this is ``plan_multimode`` with ``max_order`` N: its
    generators are J+^k for k = 1..N, swept twice and then once more at
    k = 1.
    """
    basis = target.basis
    if basis.num_modes != 2:
        raise ValueError("two-mode planner requires a two-mode basis")
    _check_small_angle(small_angle)
    _check_fidelity_target(fidelity_goal, "fidelity_goal")
    n_tot = basis.total_photons
    if n_tot == 1:
        # Exact: every N=1 state is one ladder rotation from |0, 1⟩.
        c = np.asarray(target.amplitudes)
        theta = 2.0 * math.atan2(abs(c[1]), abs(c[0]))
        phi = cmath.phase(c[1]) - (cmath.phase(c[0]) if abs(c[0]) > 0 else 0.0)
        rho = (theta / 2.0) * cmath.exp(1j * phi)
        steps = _steps_from_amplitudes([rho], [((0, 1),)], small_angle)
        return SynthesisPlan(tuple(steps), target, small_angle)
    # N = 0 has no hop to sweep; its one state is the reference.
    return plan_multimode(target, small_angle, max_order=max(n_tot, 1),
                          fidelity_goal=fidelity_goal)


# ---------------------------------------------------------------------------
# Benchmarks


def bench_targets(basis: FockBasis, count: int, seed: int) -> list[State]:
    """Deterministic random targets: substream ``i`` of ``seed`` per target."""
    rng = SplitMix64(seed)
    return [random_state(basis, rng.derive(i)) for i in range(count)]


def random_support_target(
    basis: FockBasis, max_order: int, seed: int
) -> State:
    """Random multimode target supported on ≤ max_order raised photons."""
    rng = SplitMix64(seed)
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    for idx in np.flatnonzero(_raised(basis) <= max_order):
        amps[idx] = rng.complex_normal()
    return State(basis, amps)


@dataclass(frozen=True)
class ComplexityProbeResult:
    """Per-N plan sizes plus log-log slopes of the size columns (None on a
    one-point grid)."""

    rows: tuple[tuple[int, int, int, float], ...]  # (N, steps, reps, fidelity)
    slope_steps: float | None
    slope_repetitions: float | None


def synthesis_complexity_probe(
    n_list: Sequence[int],
    fidelity_target: float,
    small_angle: float = 1e-3,
    targets_per_n: int = 3,
    seed: int = DEFAULT_SEED,
) -> ComplexityProbeResult:
    """Plan seeded random targets per N, with ``fidelity_target`` as the
    solver's goal, and fit log-log size slopes.

    Reports the median step count, median total repetition count, and
    minimum achieved fidelity per N; slopes are least-squares fits of
    log(size) against log(N) (exploratory, no pass/fail attached).  The
    grid must be strictly increasing, each N in 1..``PROBE_N_MAX``.
    """
    _check_increasing(n_list)
    for n_tot in n_list:
        _check_probe_n(n_tot)
    _check_fidelity_target(fidelity_target)
    _check_small_angle(small_angle)
    _check_targets_per_n(targets_per_n)
    rows = []
    for n_idx, n_tot in enumerate(n_list):
        basis = make_basis(2, n_tot)
        start = basis_state(basis, (0, n_tot))
        steps_counts, reps_counts, fids = [], [], []
        for target in bench_targets(basis, targets_per_n,
                                    seed + 1000 * n_idx):
            plan = plan_two_mode(target, small_angle,
                                 fidelity_goal=fidelity_target)
            result = execute_plan(plan, start)
            steps_counts.append(len(plan.steps))
            reps_counts.append(plan.total_repetitions)
            fids.append(result.fidelity)
        rows.append(
            (
                int(n_tot),
                int(np.median(steps_counts)),
                int(np.median(reps_counts)),
                float(min(fids)),
            )
        )
    slope_steps = _loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    slope_reps = _loglog_slope([r[0] for r in rows], [r[2] for r in rows])
    return ComplexityProbeResult(tuple(rows), slope_steps, slope_reps)


def _loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    return float(_loglog_fit(xs, ys)[2]) if len(xs) >= 2 else None

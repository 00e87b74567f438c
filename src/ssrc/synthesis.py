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
derivatives taken from one eigendecomposition per generator per solve,
then seeded restarts while the fidelity misses the goal.  Each solved
amplitude is split into repetitions of at most ``small_angle``.

A plan is plain data: its steps, target and ``small_angle``.  Planning
executes nothing; ``execute_plan`` is the one place steps are applied, with
``scipy.linalg.expm``, independently of the solver.  Both read the dense
generators from ``schwinger._hop_product``, cached for the process.
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
from typing import NamedTuple, Sequence

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


def _check_fidelity_target(fidelity_target: float) -> None:
    if not 0 < fidelity_target <= 1:
        raise ValueError("fidelity_target must lie in (0, 1]")


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
    for step in plan.steps:
        rho = step.amplitude
        b = _hop_product(basis, step.pairs)
        unit = expm(rho * b - np.conj(rho) * b.T)
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


class _Point(NamedTuple):
    """One solver iterate: residual ``r``, product vector ``v``, and the
    arrays ``_ProductSolver._jacobian`` reuses."""

    r: np.ndarray
    v: np.ndarray
    vecs: np.ndarray
    mag: np.ndarray
    back: np.ndarray
    w: np.ndarray
    vh: np.ndarray
    units: np.ndarray
    pre: np.ndarray
    proj: np.ndarray


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
    falls back to deterministic perturbed restarts.
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

    def _spectra(self, sig):
        """Per step: eigenvectors V, |rho| and e^{-i theta}."""
        rho = _amplitudes(sig)
        theta = np.angle(rho)
        vecs = np.exp(1j * theta[:, None] * self.q)[:, :, None] * self.v0
        return vecs, np.abs(rho), np.exp(-1j * theta)

    @staticmethod
    def _shifts(w):
        """e^{iw} - 1, exactly 0 where w is 0."""
        return 2j * np.sin(0.5 * w) * np.exp(0.5j * w)

    def _forward(self, sig, u, t) -> _Point:
        """Step unitaries, prefix products and residual at ``sig``."""
        d = len(u)
        vecs, mag, back = self._spectra(sig)
        w = mag[:, None] * self.w0
        vh = _dagger(vecs)
        units = (vecs * self._shifts(w)[:, None, :]) @ vh
        units[:, range(d), range(d)] += 1.0
        pre = np.empty((self.m + 1, d), dtype=np.complex128)
        pre[0] = u
        for i, unit in enumerate(units):
            np.matmul(unit, pre[i], out=pre[i + 1])
        proj = np.eye(d) - np.outer(t, t.conj())
        r = proj @ pre[-1]
        return _Point(np.concatenate([r.real, r.imag]), pre[-1],
                      vecs, mag, back, w, vh, units, pre, proj)

    def _jacobian(self, point: _Point) -> np.ndarray:
        """Jacobian of the residual, from the arrays of ``_forward``."""
        vecs, mag, back, w, vh, units, pre, proj = point[2:]
        d = pre.shape[1]
        # left[i] = proj @ units[m-1] @ ... @ units[i+1].  Each product
        # needs the next one, so the loop stays sequential.
        left = np.empty_like(units)
        left[self.m - 1:] = proj  # empty slice when there are no steps
        for i in range(self.m - 1, 0, -1):
            np.matmul(left[i], units[i], out=left[i - 1])
        # Daleckii-Krein: dU(E) = V (Phi o V†EV) V† with
        # Phi = diag(h) S diag(h), h = e^{iw/2}, S_jk = sinc((w_j - w_k)/2),
        # V†EV = back B0 - conj(back) B0† (Re rho), i(... + ...) (Im rho).
        x = mag[:, None, None] * self.half_gap
        sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
        half = np.exp(0.5j * w)
        hy = half[:, :, None] * (vh @ pre[:-1, :, None])
        zp = back[:, None] * half * ((sinc * self.b0) @ hy)[..., 0]
        zm = back.conj()[:, None] * half * ((sinc * self.b0h) @ hy)[..., 0]
        dirs = np.stack([zp - zm, 1j * (zp + zm)], axis=-1)
        cols = (left @ (vecs @ dirs)).transpose(1, 0, 2)
        cols = cols.reshape(d, 2 * self.m)
        return np.concatenate([cols.real, cols.imag])

    def _lm(self, sig0, u, t):
        """Levenberg-Marquardt from ``sig0``.

        Only the iterate at the top of an iteration gets a Jacobian: a
        rejected trial, or the final accepted iterate, needs only its
        residual.
        """
        sig = sig0.copy()
        lam = 1e-3
        point = self._forward(sig, u, t)
        cost = point.r @ point.r
        v = point.v
        for _ in range(LM_MAXIT):
            jac = self._jacobian(point)
            g = jac.T @ point.r
            point = None  # release the forward arrays before the trials
            a = jac.T @ jac
            improved = False
            for _ in range(50):
                try:
                    step = np.linalg.solve(
                        a + lam * np.diag(np.maximum(np.diag(a), 1e-12)), -g
                    )
                except np.linalg.LinAlgError:
                    lam *= 10
                    continue
                trial = self._forward(sig + step, u, t)
                if trial.r @ trial.r < cost:
                    sig, point, v = sig + step, trial, trial.v
                    cost = trial.r @ trial.r
                    lam = max(lam * 0.3, 1e-12)
                    improved = True
                    break
                del trial
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
    rejected.
    """
    _check_small_angle(small_angle)
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
    n_tot = basis.total_photons
    if n_tot == 1:
        # Exact: every N=1 state is one ladder rotation from |0, 1⟩.
        c = np.asarray(target.amplitudes)
        theta = 2.0 * math.atan2(abs(c[1]), abs(c[0]))
        phi = cmath.phase(c[1]) - (cmath.phase(c[0]) if abs(c[0]) > 0 else 0.0)
        rho = (theta / 2.0) * cmath.exp(1j * phi)
        steps = _steps_from_amplitudes([rho], [((0, 1),)], small_angle)
        return SynthesisPlan(tuple(steps), target, small_angle)
    return plan_multimode(target, small_angle, max_order=n_tot,
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

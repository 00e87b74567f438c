"""Fixed-total-photon-number Fock bases and normalized states.

A ``FockBasis`` enumerates all K-mode occupation vectors ``(n_1, ..., n_K)``
with ``sum(n_i) = N`` in ascending lexicographic order, so for two modes the
basis index equals the first mode's occupation: index ``n`` is
``|n>_a |N-n>_b``.  Its ``occupations`` table (one row per index) and its
``rank`` (rows to indices) are the one map between the two; other modules
work on whole columns of the table.  A ``State`` is a normalized complex
amplitude vector over such a basis.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .prng import SplitMix64

logger = logging.getLogger(__name__)

#: Largest dimension ``make_basis`` builds.
DIMENSION_CAP_DEFAULT = 1 << 20

#: Norm drift beyond this triggers a warning before renormalization.
NORM_DRIFT_WARN = 1e-10


class DimensionCapError(ValueError):
    """A requested basis dimension or array size exceeds its cap."""


class InvalidOccupationError(ValueError):
    """Occupation vector has a negative entry or the wrong total."""


class BasisMismatchError(ValueError):
    """Operands live on different bases."""


def _check_at_least(value: int, minimum: int, name: str) -> None:
    """Raise ``ValueError("<name> must be >= <minimum>")`` below it."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _check_cap(size: int, what: str, cap: int = DIMENSION_CAP_DEFAULT) -> None:
    """Raise ``DimensionCapError`` if ``size`` entries exceed ``cap``."""
    if size > cap:
        raise DimensionCapError(f"{what} {size} exceeds cap {cap}")


def _comb(x: np.ndarray, r: int) -> np.ndarray:
    """C(x + r, r) elementwise, exact in the dtype of ``x``."""
    c = np.ones_like(x)
    for t in range(1, r + 1):
        c = c * (x + t) // t  # C(x+t, t), an integer at every step
    return c


@dataclass(frozen=True)
class FockBasis:
    """K-mode occupations with total N; only (K, N) is stored."""

    num_modes: int
    total_photons: int

    @property
    def dimension(self) -> int:
        return math.comb(self.total_photons + self.num_modes - 1,
                         self.num_modes - 1)

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dimension, K) table; row ``i`` is state ``i``."""
        # Expand every prefix by each value its next mode can take, in
        # ascending order; the last mode takes what is left.
        left = np.array([self.total_photons], dtype=np.int64)
        cols: list[np.ndarray] = []
        for _ in range(self.num_modes - 1):
            counts = left + 1
            parent = np.repeat(np.arange(len(left)), counts)
            value = np.arange(len(parent)) - np.repeat(
                np.cumsum(counts) - counts, counts)
            cols = [col[parent] for col in cols] + [value]
            left = left[parent] - value
        table = np.column_stack(cols + [left])
        table.flags.writeable = False
        return table

    def rank(self, rows: np.ndarray) -> np.ndarray:
        """Basis indices of valid occupation rows, shape (M, K).

        Occupations before a row that first differ from it at mode m (a
        smaller value there) number C(left+rest, rest) - C(left-n+rest,
        rest), with ``left`` the photons not in modes before m and ``rest``
        the modes after it.  Sums run in int64 while K times the dimension
        fits, else in exact Python integers.
        """
        exact = (np.int64 if self.num_modes * self.dimension < 1 << 63
                 else object)
        rows = np.asarray(rows).astype(exact)
        index = np.zeros(len(rows), dtype=exact)
        left = np.full(len(rows), self.total_photons, dtype=exact)
        for m in range(self.num_modes - 1):
            rest = self.num_modes - 1 - m
            index += _comb(left, rest) - _comb(left - rows[:, m], rest)
            left -= rows[:, m]
        return index

    def index_of(self, occupation: Sequence[int]) -> int:
        key = tuple(int(n) for n in occupation)
        if (len(key) != self.num_modes or min(key) < 0
                or sum(key) != self.total_photons):
            raise InvalidOccupationError(
                f"occupation {key} is not in the (K={self.num_modes}, "
                f"N={self.total_photons}) basis"
            )
        return int(self.rank(np.array([key], dtype=object))[0])

    def occupation_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(n) for n in self.occupations[index])


def make_basis(num_modes: int, total_photons: int) -> FockBasis:
    """Build the fixed-N basis; dimension is C(N+K-1, K-1), at most
    ``DIMENSION_CAP_DEFAULT``."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    if total_photons < 0:
        raise ValueError("total photon number must be non-negative")
    basis = FockBasis(num_modes, total_photons)
    _check_cap(basis.dimension, "basis dimension")
    return basis


class State:
    """Normalized amplitude vector over a ``FockBasis``.

    Construction renormalizes.  With ``check_drift=True`` (used after
    unitary application, where the norm should already be 1) a drift
    beyond ``NORM_DRIFT_WARN`` is logged before correction.  Amplitude
    storage is immutable.
    """

    __slots__ = ("basis", "amplitudes")

    def __init__(
        self,
        basis: FockBasis,
        amplitudes: np.ndarray,
        check_drift: bool = False,
    ):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (basis.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({basis.dimension},)"
            )
        amps = _normalized(amps, check_drift)
        amps.flags.writeable = False
        self.basis = basis
        self.amplitudes = amps

    def __repr__(self) -> str:
        return (
            f"State(K={self.basis.num_modes}, N={self.basis.total_photons}, "
            f"dim={self.basis.dimension})"
        )

    def amplitude(self, occupation: Sequence[int]) -> complex:
        return complex(self.amplitudes[self.basis.index_of(occupation)])

    def to_json(self) -> str:
        """Serialize as JSON with only the nonzero entries (bit-faithful)."""
        entries = [
            [int(i), float(a.real), float(a.imag)]
            for i, a in enumerate(self.amplitudes)
            if a != 0
        ]
        return json.dumps(
            {
                "modes": self.basis.num_modes,
                "photons": self.basis.total_photons,
                "entries": entries,
            }
        )

    @staticmethod
    def from_json(text: str) -> "State":
        modes, photons, entries = _fields(
            json.loads(text), ("modes", "photons", "entries"), "state")
        basis = make_basis(_integer(modes, "state: modes"),
                           _integer(photons, "state: photons"))
        amps = np.zeros(basis.dimension, dtype=np.complex128)
        seen = set()
        for k, entry in enumerate(_array(entries, None, "state: entries")):
            where = f"state: entry {k}"
            i, re, im = _array(entry, 3, where)
            i = _integer(i, f"{where}: index")
            if not 0 <= i < basis.dimension:
                raise ValueError(f"{where}: index {i} is outside "
                                 f"0..{basis.dimension - 1}")
            if i in seen:
                raise ValueError(f"{where}: index {i} repeats an entry")
            seen.add(i)
            amps[i] = complex(_real(re, f"{where}: re"),
                              _real(im, f"{where}: im"))
        return State(basis, amps)


def _normalized(amps: np.ndarray, check_drift: bool = False) -> np.ndarray:
    """``amps`` divided by its norm, or ``amps`` itself when the norm is
    within 1e-12 of 1; ``check_drift`` logs a drift beyond
    ``NORM_DRIFT_WARN``."""
    norm = float(np.linalg.norm(amps))
    if norm < 1e-300:
        raise ValueError("cannot normalize a zero amplitude vector")
    if not math.isfinite(norm):
        raise ValueError(f"amplitude vector has norm {norm}")
    if check_drift and abs(norm - 1.0) > NORM_DRIFT_WARN:
        logger.warning("normalization drift %.3e corrected", abs(norm - 1.0))
    if abs(norm - 1.0) > 1e-12:
        # Leave already-normalized vectors untouched so that JSON
        # round-trips stay bit-faithful.
        amps = amps / norm
    return amps


def _fields(data, keys: Sequence[str], where: str) -> list:
    """The values of ``keys`` in the JSON object ``data``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{where}: missing key {key!r}")
    return [data[key] for key in keys]


def _array(value, length: int | None, name: str) -> list:
    """``value`` if it is a JSON array, of ``length`` items unless None."""
    if not (isinstance(value, list) and length in (None, len(value))):
        items = "" if length is None else f" of {length}"
        raise ValueError(f"{name} must be an array{items}, got {value!r}")
    return value


def _integer(value, name: str) -> int:
    """``value`` if it is a JSON number with no fractional part, as an int."""
    if not (type(value) is int
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` if it is a JSON number, as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer beyond double range") from None


def basis_state(basis: FockBasis, occupation: Sequence[int]) -> State:
    """Unit vector on a single occupation."""
    occ = tuple(int(n) for n in occupation)
    if any(n < 0 for n in occ) or sum(occ) != basis.total_photons:
        raise InvalidOccupationError(
            f"occupation {occ} must be non-negative and sum to "
            f"{basis.total_photons}"
        )
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    amps[basis.index_of(occ)] = 1.0
    return State(basis, amps)


def random_state(basis: FockBasis, seed: int | SplitMix64) -> State:
    """Haar-like random state: i.i.d. complex-normal amplitudes, normalized."""
    rng = seed if isinstance(seed, SplitMix64) else SplitMix64(seed)
    amps = np.array(
        [rng.complex_normal() for _ in range(basis.dimension)],
        dtype=np.complex128,
    )
    return State(basis, amps)


def _check_same_basis(x: State, y: State) -> None:
    if x.basis != y.basis:
        raise BasisMismatchError(
            f"states live on different bases: {x.basis} vs {y.basis}"
        )


def inner_product(x: State, y: State) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    _check_same_basis(x, y)
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def fidelity(x: State, y: State) -> float:
    """|<x|y>|^2, clipped to [0, 1] against roundoff."""
    return min(1.0, abs(inner_product(x, y)) ** 2)

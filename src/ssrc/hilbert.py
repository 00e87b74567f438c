"""Fixed-total-photon-number Fock bases and normalized states.

A ``FockBasis`` enumerates all K-mode occupation vectors ``(n_1, ..., n_K)``
with ``sum(n_i) = N`` in ascending lexicographic order, so for two modes the
basis index equals the first mode's occupation: index ``n`` is
``|n>_a |N-n>_b``.  An ``State`` is a normalized complex amplitude vector
over such a basis.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .prng import SplitMix64

logger = logging.getLogger(__name__)

#: Largest allowed basis dimension unless a caller raises the cap.
DIMENSION_CAP_DEFAULT = 1 << 20

#: Norm drift beyond this triggers a warning before renormalization.
NORM_DRIFT_WARN = 1e-10


class DimensionCapError(ValueError):
    """Requested basis dimension exceeds the configured cap."""


class InvalidOccupationError(ValueError):
    """Occupation vector has a negative entry or the wrong total."""


class BasisMismatchError(ValueError):
    """Operands live on different bases."""


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield occupation vectors summing to ``total`` in ascending lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
    def occupations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_compositions(self.total_photons, self.num_modes))

    def index_of(self, occupation: Sequence[int]) -> int:
        key = tuple(int(n) for n in occupation)
        if (len(key) != self.num_modes or min(key) < 0
                or sum(key) != self.total_photons):
            raise InvalidOccupationError(
                f"occupation {key} is not in the (K={self.num_modes}, "
                f"N={self.total_photons}) basis"
            )
        # Occupations before ``key`` that first differ at mode m (v < n
        # there) number C(left+rest, rest) - C(left-n+rest, rest).
        index, left = 0, self.total_photons
        for m, n in enumerate(key[:-1]):
            rest = self.num_modes - 1 - m
            index += (math.comb(left + rest, rest)
                      - math.comb(left - n + rest, rest))
            left -= n
        return index

    def occupation_of(self, index: int) -> tuple[int, ...]:
        return self.occupations[index]


def make_basis(
    num_modes: int,
    total_photons: int,
    dimension_cap: int = DIMENSION_CAP_DEFAULT,
) -> FockBasis:
    """Build the fixed-N basis; dimension is C(N+K-1, K-1)."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    if total_photons < 0:
        raise ValueError("total photon number must be non-negative")
    basis = FockBasis(num_modes, total_photons)
    if basis.dimension > dimension_cap:
        raise DimensionCapError(
            f"basis dimension {basis.dimension} exceeds cap {dimension_cap}"
        )
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
        norm = float(np.linalg.norm(amps))
        if norm < 1e-300:
            raise ValueError("cannot normalize a zero amplitude vector")
        if check_drift and abs(norm - 1.0) > NORM_DRIFT_WARN:
            logger.warning("normalization drift %.3e corrected", abs(norm - 1.0))
        if abs(norm - 1.0) > 1e-12:
            # Leave already-normalized vectors untouched so that JSON
            # round-trips stay bit-faithful.
            amps = amps / norm
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
        data = json.loads(text)
        basis = make_basis(int(data["modes"]), int(data["photons"]))
        amps = np.zeros(basis.dimension, dtype=np.complex128)
        for i, re, im in data["entries"]:
            amps[int(i)] = complex(re, im)
        return State(basis, amps)


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

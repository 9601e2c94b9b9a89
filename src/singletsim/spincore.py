"""Operator algebra and state construction for systems of spin-1/2 pairs.

Conventions (fixed throughout the package):

* spin 0 is the most significant qubit of the computational basis,
* |up> is the first basis vector of each spin (index 0),
* within a pair (a, b) the local basis order is (uu, ud, du, dd) with
  spin a the more significant,
* triplet labels follow the Zeeman-energy convention used for the
  spin-locked eigenbasis here: T- = |uu>, T+ = |dd>.  This is the
  reverse of the most common textbook labelling and is intentional.

The module holds spin systems, the singlet/triplet and dressed pair kets
(`PAIR_BASIS`), the pseudo-thermal state's weights and state validation.
The engine takes an initial state in one form, factored as (c, K, w): the
density c * 1 + K diag(w) K^dagger with orthonormal kets as the columns of
the 2-d array K; `check_state` checks its trace and positivity on the
factors, with no d x d matrix.  The pseudo-thermal state is diagonal and is
given by its basis-state weights alone, which
`propagator.diagonal_singlet_population` reads a preparation from.  Arrays
are assembled by basis-state bit index with no Kronecker products:
`_basis_split` gives each basis state's pattern over some spins and the
index of the rest, from which `sequences` builds the kets of a pair-product
state, and `_spin_states` each spin's bit, from which `hamiltonian` writes
its generators and `propagator` reads pair populations; `_fz` is each basis
state's total Fz, with which `propagator` rotates RF phases, takes the
signal from a run's frame to the lab frame and splits kets by coherence
parity, and `_up_down` the basis states of each ordered pair of spins with
the first up and the second down, the rows of a pair's flip-flop entries and
of its |ud> and |du> states.  These tables depend only on the spin count:
each is built once per count (`functools.lru_cache`) and returned read-only,
so a caller that writes to one raises.
The dense pair-product, mixed-triplet and pseudo-thermal densities and the
dense density and Hermiticity checks are test references, in
`tests/conftest.py`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

SQRT2 = np.sqrt(2.0)

TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class SpinSystem:
    """A set of coupled spin-1/2 nuclei in the rotating frame.

    Args:
        offsets_hz: per-spin resonance offset from the frame reference (Hz).
        couplings_hz: symmetric scalar-coupling matrix J_ij (Hz), zero diagonal.
        pairs: optional disjoint (a, b) index pairs labelling the spin pairs.
    """

    offsets_hz: np.ndarray
    couplings_hz: np.ndarray
    pairs: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        offsets = np.asarray(self.offsets_hz, dtype=float)
        couplings = np.asarray(self.couplings_hz, dtype=float)
        object.__setattr__(self, "offsets_hz", offsets)
        object.__setattr__(self, "couplings_hz", couplings)
        object.__setattr__(self, "pairs", tuple(tuple(int(i) for i in p) for p in self.pairs))
        n = offsets.shape[0]
        if offsets.ndim != 1 or n < 1:
            raise ValueError("offsets_hz must be a non-empty 1-d array")
        if couplings.shape != (n, n):
            raise ValueError(f"couplings_hz must be {n}x{n}, got {couplings.shape}")
        for name, value in (("offsets_hz", offsets), ("couplings_hz", couplings)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if np.max(np.abs(couplings - couplings.T)) > 1e-12:
            raise ValueError("couplings_hz must be symmetric")
        if np.max(np.abs(np.diag(couplings))) > 0:
            raise ValueError("couplings_hz must have zero diagonal")
        seen: set[int] = set()
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) out of range for {n} spins")
            if a == b:
                raise ValueError(f"pair ({a}, {b}) must name two distinct spins")
            if a in seen or b in seen:
                raise ValueError("pair assignments must be disjoint")
            seen.update((a, b))

    @property
    def n_spins(self) -> int:
        return self.offsets_hz.shape[0]

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins

    def pair(self, pair_index: int) -> tuple[int, int]:
        if not 0 <= pair_index < len(self.pairs):
            raise ValueError(f"pair {pair_index} is not assigned in this system")
        return self.pairs[pair_index]


@dataclass(frozen=True)
class TripletAmplitudes:
    """Real composition (alpha, beta, gamma) of a pair triplet over (phi+, phi0, phi-)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        norm = math.inf  # the squares of a large float raise OverflowError; it is not normalized anyway
        if math.hypot(self.alpha, self.beta, self.gamma) < 2.0:
            norm = self.alpha**2 + self.beta**2 + self.gamma**2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"triplet amplitudes must be normalized, got |a|^2 = {norm}")


# the pure triplet compositions, by name
PHI_COMPOSITIONS = {
    "phi_plus": TripletAmplitudes(1.0, 0.0, 0.0),
    "phi_0": TripletAmplitudes(0.0, 1.0, 0.0),
    "phi_minus": TripletAmplitudes(0.0, 0.0, 1.0),
}


@dataclass(frozen=True)
class PairBasis:
    """The singlet/triplet and spin-locked kets of one pair.

    Vectors are 4-component, in the local basis order (uu, ud, du, dd).
    phi_s coincides with s0; the phi states are the strong-lock eigenstates
    for a lock along +x.
    """

    s0: np.ndarray
    t_plus: np.ndarray
    t_0: np.ndarray
    t_minus: np.ndarray
    phi_plus: np.ndarray
    phi_0: np.ndarray
    phi_s: np.ndarray
    phi_minus: np.ndarray

    def phi_for(self, amplitudes: TripletAmplitudes) -> np.ndarray:
        """Triplet ket with the given (phi+, phi0, phi-) composition."""
        return (
            amplitudes.alpha * self.phi_plus
            + amplitudes.beta * self.phi_0
            + amplitudes.gamma * self.phi_minus
        )


PAIR_BASIS = PairBasis(
    s0=np.array([0.0, 1, -1, 0]) / SQRT2,
    t_minus=np.array([1.0, 0, 0, 0]),
    t_0=np.array([0.0, 1, 1, 0]) / SQRT2,
    t_plus=np.array([0.0, 0, 0, 1]),
    phi_plus=np.array([1.0, 1, 1, 1]) / 2.0,
    phi_0=np.array([1.0, 0, 0, -1]) / SQRT2,
    phi_s=np.array([0.0, 1, -1, 0]) / SQRT2,
    phi_minus=np.array([-1.0, 1, 1, -1]) / 2.0,
)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each marked read-only: a cached table is shared by every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _basis_split(n_spins: int, spins: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(local pattern over `spins`, first one most significant; index of the rest) per basis state."""
    idx = np.arange(2**n_spins)
    pattern, rest = np.zeros_like(idx), idx
    for spin in spins:
        shift = n_spins - 1 - spin
        pattern = 2 * pattern + ((idx >> shift) & 1)
        rest = rest & ~(1 << shift)
    return _read_only(pattern, rest)


@functools.lru_cache(maxsize=None)
def _spin_states(n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """(each spin's bit in the basis index, n_spins x dim flags: spin down in that basis state)."""
    masks = 1 << np.arange(n_spins - 1, -1, -1)
    return _read_only(masks, (np.arange(2**n_spins) & masks[:, None]) != 0)


@functools.lru_cache(maxsize=None)
def _up_down(n_spins: int) -> np.ndarray:
    """(n_spins, n_spins, dim / 4): at [a, b], a != b, the basis states with spin a up and spin b down, ascending."""
    down = _spin_states(n_spins)[1]
    table = np.zeros((n_spins, n_spins, 2**n_spins // 4), dtype=int)
    for a, b in zip(*np.nonzero(~np.eye(n_spins, dtype=bool))):
        table[a, b] = np.flatnonzero(~down[a] & down[b])
    return _read_only(table)[0]


@functools.lru_cache(maxsize=None)
def _fz(n_spins: int) -> np.ndarray:
    """Each basis state's total Fz, the diagonal of sum_i I_iz."""
    return _read_only((0.5 - _spin_states(n_spins)[1]).sum(axis=0))[0]


def thermal_state(system: SpinSystem, polarization: float = 1.0) -> np.ndarray:
    """Basis-state weights of the pseudo-thermal state (1 + a * sum_i I_iz) / dim, which is diagonal.

    polarization = 1 puts the deviation at the positivity limit a = 2/n,
    where the all-up state carries the largest population.
    """
    if not -1.0 <= polarization <= 1.0:
        raise ValueError("polarization must lie in [-1, 1] to keep the state positive")
    scale = 2.0 * polarization / system.n_spins
    return (1.0 + scale * _fz(system.n_spins)) / system.dim


def check_state(state: tuple) -> None:
    """Validate a factored state (c, K, w): orthonormal kets, unit trace, no eigenvalue below -EIGENVALUE_TOL.

    K is a (d, r) array, one ket per column; anything else (None included)
    is rejected naming the kets.  With K^dagger K = 1 within TRACE_TOL, the
    trace is c d + sum w and the eigenvalues are c + w and, off the kets, c.
    A non-finite c, ket or weight is rejected by name, and each test is
    written so that a NaN fails it.
    """
    c, kets, weights = state
    if not isinstance(kets, np.ndarray) or kets.ndim != 2:
        raise ValueError("state kets must be a 2-d array, one ket per column")
    for name, value in (("c", c), ("kets", kets), ("weights", weights)):
        if not np.isfinite(value).all():
            raise ValueError(f"state {name} must be finite")
    gram = kets.conj().T @ kets
    dev = np.max(np.abs(gram - np.eye(len(gram))))
    if not dev <= TRACE_TOL:
        raise ValueError(f"state kets are not orthonormal (max deviation {dev:.3e} from K^dagger K = 1)")
    tr = c * len(kets) + np.sum(weights)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density trace is {tr}, expected 1")
    low = min(c, c + np.min(weights))
    if not low >= -EIGENVALUE_TOL:
        raise ValueError(f"density has negative eigenvalue {low:.3e}")

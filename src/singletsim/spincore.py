"""Operator algebra and state construction for systems of spin-1/2 pairs.

Conventions (fixed throughout the package):

* spin 0 is the most significant qubit of the computational basis,
* |up> is the first basis vector of each spin (index 0),
* within a pair (a, b) the local basis order is (uu, ud, du, dd) with
  spin a the more significant,
* triplet labels follow the Zeeman-energy convention used for the
  spin-locked eigenbasis here: T- = |uu>, T+ = |dd>.  This is the
  reverse of the most common textbook labelling and is intentional.

All operators are dense complex matrices in ordinary-frequency units;
densities are Hermitian, unit-trace, positive-semidefinite arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT2 = np.sqrt(2.0)

# single spin-1/2 operators
SIGMA_X = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

HERMITICITY_TOL = 1e-10
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
        norm = self.alpha**2 + self.beta**2 + self.gamma**2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"triplet amplitudes must be normalized, got |a|^2 = {norm}")

    def asarray(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])

    def dot(self, other: "TripletAmplitudes") -> float:
        return float(self.asarray() @ other.asarray())


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


_PAIR_BASIS = PairBasis(
    s0=np.array([0, 1, -1, 0], dtype=complex) / SQRT2,
    t_minus=np.array([1, 0, 0, 0], dtype=complex),
    t_0=np.array([0, 1, 1, 0], dtype=complex) / SQRT2,
    t_plus=np.array([0, 0, 0, 1], dtype=complex),
    phi_plus=np.array([1, 1, 1, 1], dtype=complex) / 2.0,
    phi_0=np.array([1, 0, 0, -1], dtype=complex) / SQRT2,
    phi_s=np.array([0, 1, -1, 0], dtype=complex) / SQRT2,
    phi_minus=np.array([-1, 1, 1, -1], dtype=complex) / 2.0,
)


def pair_basis(system: SpinSystem, pair_index: int) -> PairBasis:
    """Singlet/triplet and spin-locked kets for an assigned pair."""
    system.pair(pair_index)  # raises if unassigned
    return _PAIR_BASIS


def rotate_pair_ket_phase(ket: np.ndarray, phase: float) -> np.ndarray:
    """Rotate a 4-component pair ket about z so the +x lock axis maps to the given phase."""
    # exp(-i phase (I_az + I_bz)); diagonal in the local basis
    mz = np.array([1.0, 0.0, 0.0, -1.0])
    return np.exp(-1j * phase * mz) * ket


def _bit_shift(system: SpinSystem, spin_index: int) -> int:
    return system.n_spins - 1 - spin_index


def embed_spin_operator(system: SpinSystem, spin_index: int, axis: str) -> np.ndarray:
    """Single-spin operator I_axis on the designated spin, identity elsewhere."""
    if not 0 <= spin_index < system.n_spins:
        raise ValueError(f"spin index {spin_index} out of range for {system.n_spins} spins")
    if axis not in _SINGLE:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    op = np.eye(1, dtype=complex)
    for i in range(system.n_spins):
        op = np.kron(op, _SINGLE[axis] if i == spin_index else np.eye(2, dtype=complex))
    return op


def _pair_patterns(system: SpinSystem, pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(pattern, rest) index decompositions of each basis state for one pair."""
    a, b = pair
    idx = np.arange(system.dim)
    sa, sb = _bit_shift(system, a), _bit_shift(system, b)
    pattern = 2 * ((idx >> sa) & 1) + ((idx >> sb) & 1)
    rest = idx & ~((1 << sa) | (1 << sb))
    return pattern, rest


def embed_pair_operator(system: SpinSystem, pair: tuple[int, int], op4: np.ndarray) -> np.ndarray:
    """Embed a 4x4 operator acting on the two spins of `pair`, identity on the rest."""
    pattern, rest = _pair_patterns(system, pair)
    full = op4[np.ix_(pattern, pattern)].astype(complex, copy=True)
    full[rest[:, None] != rest[None, :]] = 0.0
    return full


def singlet_projector(system: SpinSystem, pair_index: int) -> np.ndarray:
    """|S0><S0| on the pair, tensored with identity on all other spins."""
    basis = pair_basis(system, pair_index)
    p4 = np.outer(basis.s0, basis.s0.conj())
    return embed_pair_operator(system, system.pair(pair_index), p4)


def triplet_projector(system: SpinSystem, pair_index: int) -> np.ndarray:
    """Projector onto the pair's three triplet states, identity elsewhere."""
    basis = pair_basis(system, pair_index)
    p4 = np.eye(4, dtype=complex) - np.outer(basis.s0, basis.s0.conj())
    return embed_pair_operator(system, system.pair(pair_index), p4)


def expectation(state: np.ndarray, obs: np.ndarray) -> complex:
    """trace(state @ obs); real to numerical precision for Hermitian obs."""
    if state.shape != obs.shape:
        raise ValueError(f"dimension mismatch: state {state.shape} vs observable {obs.shape}")
    return complex(np.trace(state @ obs))


def product_state_vector(system: SpinSystem, pair_kets: list[np.ndarray]) -> np.ndarray:
    """Full-system ket from one 4-component ket per assigned pair.

    The pairs must cover every spin of the system.
    """
    if len(pair_kets) != len(system.pairs):
        raise ValueError(f"need one ket per pair, got {len(pair_kets)} for {len(system.pairs)} pairs")
    covered = {i for p in system.pairs for i in p}
    if covered != set(range(system.n_spins)):
        raise ValueError("pair assignments do not cover all spins")
    vec = np.ones(system.dim, dtype=complex)
    for pair, ket in zip(system.pairs, pair_kets):
        pattern, _ = _pair_patterns(system, pair)
        vec = vec * np.asarray(ket, dtype=complex)[pattern]
    return vec


def pure_state_density(vec: np.ndarray) -> np.ndarray:
    """Density matrix of a (re-normalized) pure state vector."""
    v = np.asarray(vec, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot build a density matrix from the zero vector")
    v = v / norm
    return np.outer(v, v.conj())


def product_state(system: SpinSystem, pair_kets: list[np.ndarray]) -> np.ndarray:
    """Pure density matrix of the tensor product of per-pair kets."""
    return pure_state_density(product_state_vector(system, pair_kets))


def pair_product_density(system: SpinSystem, pair_densities: list[np.ndarray]) -> np.ndarray:
    """Full density matrix from one 4x4 density block per pair (pairs must cover all spins)."""
    if len(pair_densities) != len(system.pairs):
        raise ValueError("need one density block per pair")
    covered = {i for p in system.pairs for i in p}
    if covered != set(range(system.n_spins)):
        raise ValueError("pair assignments do not cover all spins")
    rho = np.ones((system.dim, system.dim), dtype=complex)
    for pair, rho4 in zip(system.pairs, pair_densities):
        pattern, _ = _pair_patterns(system, pair)
        rho = rho * np.asarray(rho4, dtype=complex)[np.ix_(pattern, pattern)]
    return rho


def maximally_mixed_triplet() -> np.ndarray:
    """4x4 density of a pair with equal phi+, phi0, phi- populations and no singlet."""
    b = _PAIR_BASIS
    rho = np.zeros((4, 4), dtype=complex)
    for ket in (b.phi_plus, b.phi_0, b.phi_minus):
        rho += np.outer(ket, ket.conj()) / 3.0
    return rho


def thermal_state(system: SpinSystem, polarization: float = 1.0) -> np.ndarray:
    """Pseudo-thermal state (1 + a * sum_i I_iz) / dim.

    polarization = 1 puts the deviation at the positivity limit a = 2/n,
    where the all-up state carries the largest population.
    """
    if not -1.0 <= polarization <= 1.0:
        raise ValueError("polarization must lie in [-1, 1] to keep the state positive")
    iz_total = sum(embed_spin_operator(system, i, "z") for i in range(system.n_spins))
    scale = 2.0 * polarization / system.n_spins
    return (np.eye(system.dim, dtype=complex) + scale * iz_total) / system.dim


def check_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    dev = np.max(np.abs(matrix - matrix.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.0e})")


def check_density(rho: np.ndarray) -> None:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    check_hermitian(rho, HERMITICITY_TOL)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density trace is {tr}, expected 1")
    eig_min = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if eig_min < -EIGENVALUE_TOL:
        raise ValueError(f"density has negative eigenvalue {eig_min:.3e}")

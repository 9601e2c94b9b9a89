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
(`PAIR_BASIS`), the initial densities and density validation.  Densities
are dense Hermitian, unit-trace, positive-semidefinite arrays, float64 where
the state is real (the pair kets, the mixed triplet, the pseudo-thermal
state and every product of real pair blocks) and complex only otherwise,
assembled by basis-state bit index with no Kronecker products: `_basis_split`
gives each basis state's pattern over some spins and the index of the rest,
and `_spin_states` each spin's bit, from which `hamiltonian` writes its
generators and `propagator` reads pair populations; `_fz` is each basis
state's total Fz, with which `propagator` rotates RF phases and moves an
observable into a run's frame, and `sequences` filters coherence parity.
`check_density` accepts a state whose rho + EIGENVALUE_TOL * I has a
Cholesky factor, and tests only the others by their smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT2 = np.sqrt(2.0)

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


def _basis_split(system: SpinSystem, spins: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(local pattern over `spins`, first one most significant; index of the rest) per basis state."""
    idx = np.arange(system.dim)
    pattern, rest = np.zeros_like(idx), idx
    for spin in spins:
        shift = system.n_spins - 1 - spin
        pattern = 2 * pattern + ((idx >> shift) & 1)
        rest = rest & ~(1 << shift)
    return pattern, rest


def _spin_states(system: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """(each spin's bit in the basis index, n_spins x dim flags: spin down in that basis state)."""
    masks = 1 << np.arange(system.n_spins - 1, -1, -1)
    return masks, (np.arange(system.dim) & masks[:, None]) != 0


def _fz(system: SpinSystem) -> np.ndarray:
    """Each basis state's total Fz, the diagonal of sum_i I_iz."""
    return (0.5 - _spin_states(system)[1]).sum(axis=0)


def pair_product_density(system: SpinSystem, pair_densities: list[np.ndarray]) -> np.ndarray:
    """Full density matrix from one 4x4 density block per pair (pairs must cover all spins)."""
    if len(pair_densities) != len(system.pairs):
        raise ValueError("need one density block per pair")
    covered = {i for p in system.pairs for i in p}
    if covered != set(range(system.n_spins)):
        raise ValueError("pair assignments do not cover all spins")
    rho = 1.0  # takes the blocks' dtype: real blocks give a real density
    for pair, rho4 in zip(system.pairs, pair_densities):
        pattern, _ = _basis_split(system, pair)
        rho = rho * np.asarray(rho4)[np.ix_(pattern, pattern)]
    return rho


def maximally_mixed_triplet() -> np.ndarray:
    """4x4 density of a pair with equal phi+, phi0, phi- populations and no singlet."""
    b = PAIR_BASIS
    rho = np.zeros((4, 4))
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
    scale = 2.0 * polarization / system.n_spins
    return np.diag((1.0 + scale * _fz(system)) / system.dim)


def check_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The Hermitian part (M + M^dagger) / 2, after checking that M is Hermitian within tol."""
    adjoint = matrix.conj().T
    dev = np.max(np.abs(matrix - adjoint))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.0e})")
    return 0.5 * (matrix + adjoint)


def check_density(rho: np.ndarray) -> None:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    rho_h = check_hermitian(rho, HERMITICITY_TOL)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density trace is {tr}, expected 1")
    try:  # positive definite once shifted: every eigenvalue above -EIGENVALUE_TOL
        np.linalg.cholesky(rho_h + EIGENVALUE_TOL * np.eye(len(rho_h)))
    except np.linalg.LinAlgError:
        eig_min = np.linalg.eigvalsh(rho_h).min()
        if eig_min < -EIGENVALUE_TOL:
            raise ValueError(f"density has negative eigenvalue {eig_min:.3e}") from None

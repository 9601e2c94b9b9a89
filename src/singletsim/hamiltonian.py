"""Rotating-frame Hamiltonians and the effective two-level transfer theory.

Hamiltonians are stored in ordinary-frequency units (Hz); the factor 2*pi
enters only in the propagator exponent.  A generator is float64 when it is
real (every free Hamiltonian, and a lock or RF term whose phase has zero
sine) and complex only otherwise.  Scalar couplings use the full
isotropic form I_i . I_j, which the singlet physics requires.  Generators
are written in place into one d x d array, entry by basis-state bit index,
with no dense operator formed per term; each entry is summed in the order a
term-by-term accumulation would use, so the result is the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spincore import PHI_COMPOSITIONS, SpinSystem, TripletAmplitudes, _spin_states


@dataclass(frozen=True)
class SpinLockParams:
    """CW spin-lock: nutation frequency (Hz), RF phase (rad), transmitter offset (Hz)."""

    nutation_hz: float
    phase: float = 0.0
    transmitter_offset_hz: float = 0.0

    def __post_init__(self):
        for name in ("nutation_hz", "phase", "transmitter_offset_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.nutation_hz < 0:
            raise ValueError("nutation_hz must be >= 0; carry sign conventions in the phase")


@dataclass(frozen=True)
class EffectiveTwoLevel:
    """Two-level Hamiltonian h[[E1, C], [C, E2]] over |T S0> and |S0 T> (Hz)."""

    e1_hz: float
    e2_hz: float
    c_hz: float

    def __post_init__(self):
        for v in (self.e1_hz, self.e2_hz, self.c_hz):
            if not np.isfinite(v):
                raise ValueError("effective two-level parameters must be finite")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.e1_hz, self.c_hz], [self.c_hz, self.e2_hz]])

    @property
    def detuning_hz(self) -> float:
        return self.e1_hz - self.e2_hz

    @property
    def oscillation_frequency_hz(self) -> float:
        """Population-oscillation frequency sqrt((E1-E2)^2 + 4 C^2)."""
        return float(np.hypot(self.detuning_hz, 2.0 * self.c_hz))

    @property
    def transfer_contrast(self) -> float:
        """Maximum transferred population 4 C^2 / ((E1-E2)^2 + 4 C^2)."""
        denom = self.detuning_hz**2 + 4.0 * self.c_hz**2
        if denom == 0.0:
            return 0.0
        return float(4.0 * self.c_hz**2 / denom)

    def population_trace(self, times_s: np.ndarray) -> np.ndarray:
        """Transferred population vs time for a state starting on one level."""
        t = np.asarray(times_s, dtype=float)
        return self.transfer_contrast * np.sin(np.pi * self.oscillation_frequency_hz * t) ** 2


def free_hamiltonian(system: SpinSystem, transmitter_offset_hz: float = 0.0) -> np.ndarray:
    """Zeeman offsets plus isotropic scalar couplings, in Hz.

    H = sum_i (nu_i - nu_tx) I_iz + sum_{i<j} J_ij I_i . I_j

    Written in place: the diagonal (Zeeman terms, then J_ij I_iz I_jz, in
    that order), then J_ij / 2 on each coupled pair's flip-flop entries.
    """
    masks, down = _spin_states(system)
    iz = 0.5 - down
    first, second = np.nonzero(np.triu(system.couplings_hz, 1))  # coupled i < j, row by row
    couplings = system.couplings_hz[first, second]
    diagonal = np.zeros(system.dim)
    for i in range(system.n_spins):
        diagonal += (system.offsets_hz[i] - transmitter_offset_hz) * iz[i]
    for i, j, j_ij in zip(first, second, couplings):
        diagonal += j_ij * (iz[i] * iz[j])
    h = np.diag(diagonal)
    # |up_i down_j> <-> |down_i up_j> of each coupled pair
    pair, rows = np.nonzero(~down[first] & down[second])
    cols = rows ^ (masks[first] | masks[second])[pair]
    h[rows, cols] = h[cols, rows] = 0.5 * couplings[pair]
    return h


def rf_generator(system: SpinSystem, phase: float) -> np.ndarray:
    """Transverse operator sum_i (cos(phase) I_ix + sin(phase) I_iy) driven by RF at a phase.

    Written in place on each spin's single-flip entries; real when sin(phase) is 0.
    """
    return _add_lock(np.zeros((system.dim, system.dim), dtype=float if np.sin(phase) == 0.0 else complex),
                     system, 1.0, phase)


def _add_lock(h: np.ndarray, system: SpinSystem, nutation_hz: float, phase: float) -> np.ndarray:
    """h plus nu_n * rf_generator(phase), added in place on each spin's single-flip entries."""
    cx, sy = np.cos(phase), np.sin(phase)
    masks, down = _spin_states(system)
    spin, up = np.nonzero(~down)
    flipped = up | masks[spin]
    h[up, flipped] += nutation_hz * (cx * 0.5)
    h[flipped, up] += nutation_hz * (cx * 0.5)
    if sy != 0.0:
        h[up, flipped] -= nutation_hz * (0.5j * sy)
        h[flipped, up] += nutation_hz * (0.5j * sy)
    return h


def spinlock_hamiltonian(system: SpinSystem, params: SpinLockParams) -> np.ndarray:
    """Free Hamiltonian at the transmitter offset plus the CW lock term.

    Adds nu_n * rf_generator(phase) into the free Hamiltonian's array, complex
    only when sin(phase) is not 0; a 180 degree phase shift is equivalent to
    flipping the sign of nu_n.
    """
    h = free_hamiltonian(system, params.transmitter_offset_hz)
    if params.nutation_hz == 0.0:
        return h
    return _add_lock(h if np.sin(params.phase) == 0.0 else h.astype(complex), system, params.nutation_hz, params.phase)


def interaction_strength(
    j_1a2a_hz: float,
    j_1b2b_hz: float,
    j_1a2b_hz: float,
    j_1b2a_hz: float,
    amp1: TripletAmplitudes,
    amp2: TripletAmplitudes,
) -> float:
    """Singlet-singlet interaction C (Hz) for given triplet compositions.

    C = (J_1a2a + J_1b2b - J_1a2b - J_1b2a) / 4 * (a1 a2 + b1 b2 + g1 g2);
    only the cis/trans difference of the interpair couplings contributes.
    """
    combination = j_1a2a_hz + j_1b2b_hz - j_1a2b_hz - j_1b2a_hz
    return 0.25 * combination * amp1.dot(amp2)


def state_energies(
    j_1a1b_hz: float,
    j_2a2b_hz: float,
    nutation1_hz: float,
    nutation2_hz: float,
    amp1: TripletAmplitudes,
    amp2: TripletAmplitudes,
) -> tuple[float, float]:
    """Energies (Hz) of |T S0> and |S0 T> under per-pair effective nutations.

    E1 = J1/4 - 3 J2/4 + (a1^2 - g1^2) nu_n1
    E2 = J2/4 - 3 J1/4 + (a2^2 - g2^2) nu_n2
    """
    e1 = j_1a1b_hz / 4.0 - 3.0 * j_2a2b_hz / 4.0 + (amp1.alpha**2 - amp1.gamma**2) * nutation1_hz
    e2 = j_2a2b_hz / 4.0 - 3.0 * j_1a1b_hz / 4.0 + (amp2.alpha**2 - amp2.gamma**2) * nutation2_hz
    return e1, e2


def dressed_splitting(nutation_hz: float, offset_hz: float) -> float:
    """Exact dressed-level splitting sqrt(nu_n^2 + offset^2) of a locked spin (Hz)."""
    return float(np.hypot(nutation_hz, offset_hz))


def effective_nutation_difference(nutation_hz: float, delta_nu12_hz: float) -> float:
    """Difference of effective lock nutation frequencies for two pairs split by delta_nu12.

    Transmitter resonant with pair 1: delta_nu_n = sqrt(nu_n^2 + dnu12^2) - nu_n.
    """
    if nutation_hz < 0:
        raise ValueError("nutation_hz must be >= 0")
    return dressed_splitting(nutation_hz, delta_nu12_hz) - nutation_hz


def resonant_nutation(delta_nu12_hz: float, delta_e_hz: float) -> float:
    """Nutation frequency at which the effective nutation difference equals delta_e.

    Inverts effective_nutation_difference; requires 0 < delta_e < |delta_nu12|.
    """
    de = abs(delta_e_hz)
    if de == 0.0 or de >= abs(delta_nu12_hz):
        raise ValueError("resonance requires 0 < |delta_e| < |delta_nu12|")
    return (delta_nu12_hz**2 - de**2) / (2.0 * de)


def pair_center_offset(system: SpinSystem, pair_index: int) -> float:
    a, b = system.pair(pair_index)
    return float(0.5 * (system.offsets_hz[a] + system.offsets_hz[b]))


def interpair_couplings(
    system: SpinSystem, pair_i: int, pair_j: int
) -> tuple[float, float, float, float]:
    """(J_aa, J_bb, J_ab, J_ba) between the members of two assigned pairs."""
    a1, b1 = system.pair(pair_i)
    a2, b2 = system.pair(pair_j)
    j = system.couplings_hz
    return (j[a1, a2], j[b1, b2], j[a1, b2], j[b1, a2])


def intrapair_coupling(system: SpinSystem, pair_index: int) -> float:
    a, b = system.pair(pair_index)
    return float(system.couplings_hz[a, b])


def effective_channels(
    system: SpinSystem,
    lock: SpinLockParams,
    pair_1: int = 0,
    pair_2: int = 1,
) -> dict[str, EffectiveTwoLevel]:
    """Effective two-level parameters for each like-composition transfer channel.

    Each pair's effective nutation is its exact dressed splitting under the
    lock; channel m couples |T(m) S0> to |S0 T(m)> with the interaction
    strength of the matching compositions.
    """
    nut1 = dressed_splitting(
        lock.nutation_hz, pair_center_offset(system, pair_1) - lock.transmitter_offset_hz
    )
    nut2 = dressed_splitting(
        lock.nutation_hz, pair_center_offset(system, pair_2) - lock.transmitter_offset_hz
    )
    j1 = intrapair_coupling(system, pair_1)
    j2 = intrapair_coupling(system, pair_2)
    j_aa, j_bb, j_ab, j_ba = interpair_couplings(system, pair_1, pair_2)
    channels = {}
    for name, amp in PHI_COMPOSITIONS.items():
        e1, e2 = state_energies(j1, j2, nut1, nut2, amp, amp)
        c = interaction_strength(j_aa, j_bb, j_ab, j_ba, amp, amp)
        channels[name] = EffectiveTwoLevel(e1, e2, c)
    return channels

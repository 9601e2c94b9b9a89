"""Rotating-frame Hamiltonians and the dressed-splitting resonance conditions.

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

from .spincore import SpinSystem, _spin_states


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


def _add_lock(h: np.ndarray, system: SpinSystem, nutation_hz: float, phase: float) -> np.ndarray:
    """h plus nu_n * sum_i (cos(phase) I_ix + sin(phase) I_iy), added in place on each spin's single-flip entries."""
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

    Adds the RF term nu_n * sum_i (cos(phase) I_ix + sin(phase) I_iy) into the
    free Hamiltonian's array, complex only when sin(phase) is not 0; a 180
    degree phase shift is equivalent to flipping the sign of nu_n.
    """
    h = free_hamiltonian(system, params.transmitter_offset_hz)
    if params.nutation_hz == 0.0:
        return h
    return _add_lock(h if np.sin(params.phase) == 0.0 else h.astype(complex), system, params.nutation_hz, params.phase)


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


def intrapair_coupling(system: SpinSystem, pair_index: int) -> float:
    a, b = system.pair(pair_index)
    return float(system.couplings_hz[a, b])

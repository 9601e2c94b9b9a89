"""Shared test references that no runtime path of the package uses.

Dense spin and pair operators embedded by bit index, projectors, product
states, `expectation` and a spectral frequency estimate are the references
for the package's generators, populations and fits.  The evolution oracle is
independent of the engine's tables and its closed-form pulses: one `eigh`
per segment, of the segment's real phase-0 generator.  A phase-cycled
readout is checked against its second, phase-shifted run, built segment by
segment with `_phase_shifted_pulses`.  The package simulates each run in its
transfer lock's frame; the oracles work in the lab frame, from the initial
state `ideal_transfer_state` builds at the transfer lock's phase.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from singletsim.analysis import FitInputError, _trace_xy
from singletsim.hamiltonian import spinlock_hamiltonian
from singletsim.propagator import HardPulse, Segment, SpinLock
from singletsim.spincore import (
    PAIR_BASIS,
    PHI_COMPOSITIONS,
    SpinSystem,
    TripletAmplitudes,
    _basis_split,
    maximally_mixed_triplet,
    pair_product_density,
)


def pytest_configure(config):
    # a complex value written into a real array loses its imaginary part with
    # only a warning; in tests that is an error.  numpy < 1.25 has no
    # numpy.exceptions, and the floor is 1.24
    complex_warning = getattr(np, "exceptions", np).ComplexWarning
    name = f"{complex_warning.__module__}.{complex_warning.__qualname__}"
    config.addinivalue_line("filterwarnings", f"error::{name}")


# single spin-1/2 operators
SIGMA_X = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def _embed(system: SpinSystem, spins: tuple[int, ...], op: np.ndarray) -> np.ndarray:
    """Operator `op` on the local basis of `spins`, identity on the rest, by bit index."""
    pattern, rest = _basis_split(system, spins)
    rows = np.arange(system.dim)
    placed = np.empty(len(op), dtype=int)  # basis index of each local pattern, other bits 0
    placed[pattern[rest == 0]] = rows[rest == 0]
    full = np.zeros((system.dim, system.dim), dtype=complex)
    full[rows[:, None], rest[:, None] + placed] = op[pattern]
    return full


def embed_spin_operator(system: SpinSystem, spin_index: int, axis: str) -> np.ndarray:
    """Single-spin operator I_axis on the designated spin, identity elsewhere."""
    if not 0 <= spin_index < system.n_spins:
        raise ValueError(f"spin index {spin_index} out of range for {system.n_spins} spins")
    if axis not in _SINGLE:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    return _embed(system, (spin_index,), _SINGLE[axis])


def embed_pair_operator(system: SpinSystem, pair: tuple[int, int], op4: np.ndarray) -> np.ndarray:
    """Embed a 4x4 operator acting on the two spins of `pair`, identity on the rest."""
    return _embed(system, pair, op4)


def singlet_projector(system: SpinSystem, pair_index: int) -> np.ndarray:
    """|S0><S0| on the pair, tensored with identity on all other spins."""
    basis = PAIR_BASIS
    p4 = np.outer(basis.s0, basis.s0.conj())
    return embed_pair_operator(system, system.pair(pair_index), p4)


def triplet_projector(system: SpinSystem, pair_index: int) -> np.ndarray:
    """Projector onto the pair's three triplet states, identity elsewhere."""
    basis = PAIR_BASIS
    p4 = np.eye(4, dtype=complex) - np.outer(basis.s0, basis.s0.conj())
    return embed_pair_operator(system, system.pair(pair_index), p4)


def expectation(state: np.ndarray, obs: np.ndarray) -> complex:
    """trace(state @ obs), summed elementwise in O(d^2); real for Hermitian obs."""
    if state.shape != obs.shape:
        raise ValueError(f"dimension mismatch: state {state.shape} vs observable {obs.shape}")
    return complex(np.sum(state * obs.T))


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
        pattern, _ = _basis_split(system, pair)
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


def rotate_pair_ket_phase(ket: np.ndarray, phase: float) -> np.ndarray:
    """Rotate a 4-component pair ket about z so the +x lock axis maps to the given phase."""
    # exp(-i phase (I_az + I_bz)); diagonal in the local basis
    mz = np.array([1.0, 0.0, 0.0, -1.0])
    return np.exp(-1j * phase * mz) * ket


def _triplet_block(init: str | TripletAmplitudes, lock_phase: float) -> np.ndarray:
    """4x4 pair density for the non-singlet pair at the start of a transfer.

    Pure compositions are expressed in the lock-axis dressed basis, so the
    kets rotate with the lock phase; the maximally mixed triplet is
    phase-invariant.
    """
    if init == "uniform":
        return maximally_mixed_triplet()
    amplitudes = PHI_COMPOSITIONS[init] if isinstance(init, str) else init
    ket = rotate_pair_ket_phase(PAIR_BASIS.phi_for(amplitudes), lock_phase)
    return np.outer(ket, ket.conj())


def ideal_transfer_state(
    system: SpinSystem,
    source_pair: int,
    triplet_init: str | TripletAmplitudes = "uniform",
    lock_phase: float = 0.0,
) -> np.ndarray:
    """Singlet on the source pair, the configured triplet on every other pair."""
    singlet = np.outer(PAIR_BASIS.s0, PAIR_BASIS.s0.conj())
    triplet = _triplet_block(triplet_init, lock_phase)
    blocks = [singlet if p == source_pair else triplet for p in range(len(system.pairs))]
    return pair_product_density(system, blocks)


class NoOscillationError(ValueError):
    """Raised when no nonzero spectral peak rises above the noise floor."""


def estimate_frequency(trace) -> float:
    """Dominant nonzero frequency of a uniformly sampled trace (Hz).

    Zero-padded discrete transform with parabolic peak interpolation; an
    independent cross-check of the frequencies the fits return.
    """
    t, y = _trace_xy(trace)
    if t.size < 8:
        raise FitInputError("frequency estimation needs at least 8 samples")
    steps = np.diff(t)
    if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * max(steps.max(), 1e-30):
        raise FitInputError("frequency estimation needs uniform sampling")
    dt = steps.mean()
    centered = y - y.mean()
    if np.ptp(centered) <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        raise NoOscillationError("no oscillation detected")
    n_pad = 8 * t.size
    spectrum = np.fft.rfft(centered, n=n_pad)
    power = np.abs(spectrum) ** 2
    freqs = np.fft.rfftfreq(n_pad, dt)
    span = t[-1] - t[0]
    searchable = freqs >= 0.5 / span  # demand at least half a cycle in the window
    if not np.any(searchable):
        raise NoOscillationError("no oscillation detected")
    idx = np.flatnonzero(searchable)
    k = idx[np.argmax(power[idx])]
    floor = np.median(power[idx])
    if power[k] <= 20.0 * max(floor, 1e-300):
        raise NoOscillationError("no oscillation detected")
    # parabolic interpolation on log power around the peak bin
    if 0 < k < power.size - 1 and power[k - 1] > 0 and power[k + 1] > 0:
        la, lb, lc = np.log(power[k - 1]), np.log(power[k]), np.log(power[k + 1])
        denom = la - 2 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        shift = np.clip(shift, -0.5, 0.5)
    else:
        shift = 0.0
    return float((k + shift) * freqs[1])


def spectral_bin_width(trace) -> float:
    t, _ = _trace_xy(trace)
    return 1.0 / (t[-1] - t[0])


def oracle_propagator(system, segments):
    """Product of per-segment propagators, each from `np.linalg.eigh` of its own generator.

    A generator at RF phase phi is Z G(0) Z^dagger with Z = exp(-i phi Fz);
    like the engine, the oracle diagonalises the real G(0) and scales the
    eigenvector rows by Z.  A pulse's G(0) is sum_i I_ix, run for
    theta / 2 pi.  Each step is V exp(-2 pi i E t) V^dagger formed in the
    engine's rounding order, so 10 s sweeps still agree with it to 1e-12.
    """
    fz = sum(embed_spin_operator(system, i, "z") for i in range(system.n_spins)).diagonal().real
    u = np.eye(system.dim, dtype=complex)
    for seg in segments:
        if isinstance(seg, HardPulse):
            g0 = sum(embed_spin_operator(system, i, "x") for i in range(system.n_spins))
            phase, t = seg.phase, seg.flip_angle / (2 * np.pi)
        else:
            g0 = spinlock_hamiltonian(system, replace(seg.params, phase=0.0))
            phase, t = seg.params.phase, seg.duration_s
        w, v0 = np.linalg.eigh(g0.real)
        v = np.exp(-1j * phase * fz)[:, None] * v0
        u = v @ (np.exp(-2j * np.pi * w * t)[:, None] * v.conj().T) @ u
    return u


def _phase_shifted_pulses(segments: list[Segment], shift: float) -> list[Segment]:
    """Shift the RF phase of every pulse and lock (the phase-cycling step)."""
    out: list[Segment] = []
    for seg in segments:
        if isinstance(seg, HardPulse):
            out.append(HardPulse(seg.flip_angle, seg.phase + shift))
        else:
            out.append(SpinLock(replace(seg.params, phase=seg.params.phase + shift), seg.duration_s))
    return out


def oracle_state(system, rho, segments):
    """rho carried through the segments by `oracle_propagator`."""
    u = oracle_propagator(system, segments)
    return u @ rho @ u.conj().T


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of every `np.linalg.eigh` call made while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls

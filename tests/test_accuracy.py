"""Engine traces against a 40-digit reference propagation of glutamate (d = 16).

The 1e-12 oracle tests pin the engine's rounding order against a float64
oracle that diagonalises the same way; this test measures the engine's
error.  The reference builds every generator from the system's parameters
in 40-digit `mpmath` arithmetic, diagonalises each phase-0 generator once
(`mp.eighe`, cached across cases) and rotates it to its RF phase exactly,
so it shares no float64 step with the engine's evolution.  The pulse,
preparation and readout sequences and the initial states are taken from
the package; only the arithmetic of their evolution is replaced.

The bound.  Eigenvalues computed in float64 are off by about eps ||H||
(Weyl's bound; Golub & Van Loan, Matrix Computations, 4th ed., section
8.1), and a segment of duration t turns that into a phase error of
eps 2 pi ||H|| t.  So each sweep point may differ from the reference by at
most BOUND_FACTOR * eps * 2 pi * sum_k ||H_k|| t_k, summed over every
segment the point plays: the preparation, the swept segments at that tau
and, for the signal proxy, the longer readout of its phase cycle.  A pulse
of flip angle theta counts as ||G|| |theta| / 2 pi, G = sum_i I_ix.
"""

from dataclasses import replace
from functools import cache

import mpmath
import numpy as np
import pytest
from conftest import _phase_shifted_pulses, ideal_transfer_state, protocol_of

from singletsim.hamiltonian import SpinLockParams, pair_center_offset
from singletsim.presets import glutamate
from singletsim.propagator import HardPulse, SpinLock
from singletsim.sequences import (
    PrepSpec,
    _readout_sequence,
    prep_sequence,
    run_double_rabi,
    run_rabi,
    run_ramsey,
)
from singletsim.spincore import thermal_state

mp = mpmath.mp
DIGITS = 40
EPS = np.finfo(float).eps
BOUND_FACTOR = 4.0  # eigenvalue errors of a few ulps of ||H||
TAUS_S = [0.7, 4.1, 10.0]

GLU = glutamate()
RUNNERS = {"rabi": run_rabi, "ramsey": run_ramsey, "double_rabi": run_double_rabi}
PREPS = {
    "ideal": PrepSpec(),
    "slic": PrepSpec(kind="slic", nutation_hz=17.0, duration_s=0.145, phase=0.4, polarization=0.9),
    "three_pulse": PrepSpec(kind="three_pulse", tau1_s=0.007, tau2_s=0.0205, tau3_s=0.00925),
}


def accuracy_protocol(kind, prep, readout):
    lock = SpinLockParams(599.31, 0.7, pair_center_offset(GLU, 0))
    return protocol_of(
        kind, sweep=np.array(TAUS_S), transfer=lock, prep=PREPS[prep],
        triplet_init="phi_minus", readout=readout, phase_cycle=readout == "signal_proxy",
        pi_half_duration_s=0.1, free_lock=SpinLockParams(47.0, 0.7, pair_center_offset(GLU, 1)),
        double_rabi_phases=(0.7, 0.7 + np.pi),
    )


N_SPINS, DIM = GLU.n_spins, GLU.dim
# each basis state's spin bits, spin 0 first (1 = down), and its total Fz
BITS = [[(k >> (N_SPINS - 1 - i)) & 1 for i in range(N_SPINS)] for k in range(DIM)]
FZ = [N_SPINS / 2 - sum(bits) for bits in BITS]


def _flip(k, *spins):
    return k ^ sum(1 << (N_SPINS - 1 - i) for i in spins)


def _phase0_generator(key):
    """The exact generator (Hz) of a phase-0 segment key; a pulse's is sum_i I_ix."""
    if key == "pulse":
        nutation, free, tx = mp.mpf(1), False, 0.0
    else:
        nutation, free, tx = mp.mpf(key.params.nutation_hz), True, key.params.transmitter_offset_hz
    h = mp.zeros(DIM, DIM)
    for k, bits in enumerate(BITS):
        m = [mp.mpf(0.5) - bit for bit in bits]
        for i in range(N_SPINS):
            h[_flip(k, i), k] += nutation / 2
            if not free:
                continue
            h[k, k] += (mp.mpf(GLU.offsets_hz[i]) - mp.mpf(tx)) * m[i]
            for j in range(i + 1, N_SPINS):
                coupling = mp.mpf(GLU.couplings_hz[i, j])
                h[k, k] += coupling * m[i] * m[j]
                if bits[i] != bits[j]:
                    h[_flip(k, i, j), k] += coupling / 2
    return h


@cache
def _eig(key):
    """(energies, eigenvectors, ||H||) of a phase-0 generator."""
    energies, vectors = mp.eighe(_phase0_generator(key))
    return energies, vectors, float(max(abs(e) for e in energies))


@cache
def _step(segment):
    """(U of one segment at DIGITS digits, ||H|| |angle|), angle 2 pi t or a pulse's theta.

    U = Z V exp(-i E angle) V^dagger Z^dagger, (E, V) of the phase-0 generator.
    """
    if isinstance(segment, HardPulse):
        key, phase, angle = "pulse", segment.phase, mp.mpf(segment.flip_angle)
    else:
        key, phase = SpinLock(replace(segment.params, phase=0.0), 0.0), segment.params.phase
        angle = 2 * mp.pi * mp.mpf(segment.duration_s)
    energies, vectors, norm = _eig(key)
    rotated = vectors.copy()
    for j, energy in enumerate(energies):
        a = mp.expj(-energy * angle)
        for k in range(DIM):
            rotated[k, j] *= a
    u = rotated * vectors.H
    z = [mp.expj(-mp.mpf(phase) * m) for m in FZ]
    for k in range(DIM):
        for l in range(DIM):
            u[k, l] *= z[k] * mp.conj(z[l])
    return u, norm * abs(float(angle))


def reference_propagator(segments):
    """(U of a segment list, its phase budget 2 pi sum_k ||H_k|| t_k)."""
    u, budget = None, 0.0
    for segment in segments:
        step, b = _step(segment)
        u, budget = step if u is None else step * u, budget + b
    return u, budget


def _to_mp(array):
    return mp.matrix(np.asarray(array, dtype=complex).tolist())


def _singlet_population(rho, pair):
    a, b = GLU.pairs[pair]
    total = mp.mpf(0)
    for ud in range(DIM):
        if (BITS[ud][a], BITS[ud][b]) == (0, 1):
            du = _flip(ud, a, b)
            total += (rho[ud, ud] + rho[du, du] - rho[ud, du] - rho[du, ud]).real / 2
    return total


@cache
def _initial_state(source_pair, triplet_init, lock_phase, prep):
    """(rho0, preparation budget): the ideal order, mixed to the prepared population."""
    rho0 = _to_mp(ideal_transfer_state(GLU, source_pair, triplet_init, lock_phase))
    if prep.kind == "ideal":
        return rho0, 0.0
    u, budget = reference_propagator(prep_sequence(GLU, source_pair, prep))
    prepared = u * _to_mp(thermal_state(GLU, prep.polarization)) * u.H
    weight = min(max((_singlet_population(prepared, source_pair) - mp.mpf(0.25)) / mp.mpf(0.75), 0), 1)
    return rho0 * weight + mp.eye(DIM) * ((1 - weight) / DIM), budget


@cache
def _signal_observable(readout, phase_cycle):
    """(sum_i I_ix back-propagated through the phase-cycled readout, the larger budget)."""
    cycle = [(readout, 1)]
    if phase_cycle:
        cycle = [(readout, mp.mpf(0.5)), (tuple(_phase_shifted_pulses(readout, np.pi)), -mp.mpf(0.5))]
    observable, budget = mp.zeros(DIM, DIM), 0.0
    for segments, weight in cycle:
        u, b = reference_propagator(segments)
        observable += (u.H * _phase0_generator("pulse") * u) * weight
        budget = max(budget, b)
    return observable, budget


@mp.workdps(DIGITS)
def reference_trace(protocol):
    """(observable, populations, phase budget) of each sweep point of a glutamate protocol."""
    lock = lock_b = protocol.transfer
    if protocol.kind == "double_rabi":
        lock, lock_b = (replace(lock, phase=p) for p in protocol.double_rabi_phases)
    rho0, prep_budget = _initial_state(
        protocol.source_pair, protocol.triplet_init, lock.phase, protocol.prep
    )
    signal, readout_budget = None, 0.0
    if protocol.readout == "signal_proxy":
        readout = tuple(_readout_sequence(GLU, protocol))
        signal, readout_budget = _signal_observable(readout, protocol.phase_cycle)
    observable, populations, budgets = [], [], []
    for tau in protocol.sweep:
        if protocol.kind == "rabi":
            segments = [SpinLock(lock, tau)]
        elif protocol.kind == "ramsey":
            half = SpinLock(lock, protocol.pi_half_duration_s)
            segments = [half, SpinLock(protocol.free_lock, tau), half]
        else:
            segments = [SpinLock(lock, tau), SpinLock(lock_b, tau)]
        u, budget = reference_propagator(segments)
        rho = u * rho0 * u.H
        populations.append([float(_singlet_population(rho, p)) for p in range(len(GLU.pairs))])
        if signal is None:
            observable.append(populations[-1][protocol.readout_pair])
        else:
            observable.append(float(sum(rho[k, l] * signal[l, k] for k in range(DIM) for l in range(DIM)).real))
        budgets.append(prep_budget + budget + readout_budget)
    return np.array(observable), np.array(populations).T, np.array(budgets)


@pytest.mark.parametrize("readout", ["projector", "signal_proxy"])
@pytest.mark.parametrize("prep", list(PREPS))
@pytest.mark.parametrize("kind", list(RUNNERS))
def test_engine_matches_40_digit_reference(kind, prep, readout):
    protocol = accuracy_protocol(kind, prep, readout)
    trace = RUNNERS[kind](GLU, protocol)
    observable, populations, budgets = reference_trace(protocol)
    bound = BOUND_FACTOR * EPS * budgets
    assert np.all(np.abs(trace.observable - observable) <= bound)
    assert np.all(np.abs(trace.singlet_populations - populations) <= bound)

"""Shared test reference: an evolution oracle independent of the engine's tables."""

import numpy as np

from singletsim.propagator import HardPulse, segment_hamiltonian
from singletsim.spincore import embed_spin_operator


def oracle_propagator(system, segments):
    """Product of per-segment propagators, each from `np.linalg.eigh` of its own generator.

    A pulse's generator is G = sum_i (cos(phase) I_ix + sin(phase) I_iy), run
    for theta / 2 pi.  Each step is V exp(-2 pi i E t) V^dagger formed in the
    engine's rounding order, so 10 s sweeps still agree with it to 1e-12.
    """
    u = np.eye(system.dim, dtype=complex)
    for seg in segments:
        if isinstance(seg, HardPulse):
            g = sum(
                np.cos(seg.phase) * embed_spin_operator(system, i, "x")
                + np.sin(seg.phase) * embed_spin_operator(system, i, "y")
                for i in range(system.n_spins)
            )
            w, v = np.linalg.eigh(g)
            t = seg.flip_angle / (2 * np.pi)
        else:
            w, v = np.linalg.eigh(segment_hamiltonian(system, seg))
            t = seg.duration_s
        u = v @ (np.exp(-2j * np.pi * w * t)[:, None] * v.conj().T) @ u
    return u


def oracle_state(system, rho, segments):
    """rho carried through the segments by `oracle_propagator`."""
    u = oracle_propagator(system, segments)
    return u @ rho @ u.conj().T

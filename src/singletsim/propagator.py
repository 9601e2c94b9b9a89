"""Exact piecewise-constant evolution of density matrices through pulse sequences.

Propagators are built by Hermitian eigendecomposition, U = exp(-i 2 pi H t),
which is exact for the piecewise-constant Hamiltonians used here.  Hard
pulses are ideal zero-duration rotations.  Relaxation enters only as
phenomenological decay envelopes applied to observable traces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .hamiltonian import SpinLockParams, free_hamiltonian, spinlock_hamiltonian
from .spincore import SpinSystem, check_density, check_hermitian, embed_spin_operator
from .trace import Trace

BOUNDARY_SNAP_S = 1e-9


@dataclass(frozen=True)
class HardPulse:
    """Ideal instantaneous rotation exp(-i angle * sum_i (cos(phase) I_ix + sin(phase) I_iy))."""

    flip_angle: float
    phase: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.flip_angle):
            raise ValueError("flip angle must be finite")

    @property
    def duration_s(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Delay:
    """Free evolution under the system Hamiltonian at a given transmitter offset."""

    duration_s: float
    transmitter_offset_hz: float = 0.0

    def __post_init__(self):
        if self.duration_s < 0:
            raise ValueError("delay duration must be >= 0")


@dataclass(frozen=True)
class SpinLock:
    """CW spin-lock segment."""

    params: SpinLockParams
    duration_s: float

    def __post_init__(self):
        if self.duration_s < 0:
            raise ValueError("spin-lock duration must be >= 0")


Segment = HardPulse | Delay | SpinLock


def sequence_duration(segments: list[Segment]) -> float:
    return float(sum(seg.duration_s for seg in segments))


def segment_propagator(hamiltonian_hz: np.ndarray, duration_s: float) -> np.ndarray:
    """U = exp(-i 2 pi H t) via eigendecomposition of the Hermitian H (Hz)."""
    check_hermitian(hamiltonian_hz, tol=1e-9)
    energies, vectors = np.linalg.eigh(0.5 * (hamiltonian_hz + hamiltonian_hz.conj().T))
    phases = np.exp(-2j * np.pi * energies * duration_s)
    return (vectors * phases) @ vectors.conj().T


def hard_pulse_propagator(system: SpinSystem, pulse: HardPulse) -> np.ndarray:
    """Global rotation exp(-i theta G), G = sum_i (cos(phase) I_ix + sin(phase) I_iy)."""
    generator = np.zeros((system.dim, system.dim), dtype=complex)
    cx, sy = np.cos(pulse.phase), np.sin(pulse.phase)
    for i in range(system.n_spins):
        generator += cx * embed_spin_operator(system, i, "x")
        generator += sy * embed_spin_operator(system, i, "y")
    energies, vectors = np.linalg.eigh(generator)
    return (vectors * np.exp(-1j * pulse.flip_angle * energies)) @ vectors.conj().T


def segment_hamiltonian(system: SpinSystem, segment: Segment) -> np.ndarray:
    """Hamiltonian (Hz) governing a timed segment."""
    if isinstance(segment, Delay):
        return free_hamiltonian(system, segment.transmitter_offset_hz)
    if isinstance(segment, SpinLock):
        return spinlock_hamiltonian(system, segment.params)
    raise ValueError(f"segment {segment!r} has no time-evolution Hamiltonian")


def propagate(
    state: np.ndarray,
    segments: list[Segment],
    system: SpinSystem,
    sample_times_s,
) -> list[np.ndarray]:
    """Evolve a density matrix through the sequence, sampling at the given times.

    Sample times are measured from the start of the sequence and must lie
    within its total duration (snapped to segment boundaries within 1e-9 s).
    A sample that coincides with a hard pulse sees the pre-pulse state.
    """
    check_density(state)
    times = np.asarray(sample_times_s, dtype=float)
    total = sequence_duration(segments)
    if times.size and (times.min() < -BOUNDARY_SNAP_S or times.max() > total + BOUNDARY_SNAP_S):
        raise ValueError(
            f"sample times must lie within the sequence duration [0, {total}] s"
        )
    order = np.argsort(times, kind="stable")
    results: list[np.ndarray | None] = [None] * times.size

    rho = np.array(state, dtype=complex)
    reached = 0.0
    k = 0  # next sorted sample to emit

    def emit_until(t_limit: float, sampler) -> None:
        nonlocal k
        while k < times.size and times[order[k]] <= t_limit + BOUNDARY_SNAP_S:
            results[order[k]] = sampler(times[order[k]])
            k += 1

    for segment in segments:
        if isinstance(segment, HardPulse):
            emit_until(reached, lambda _t: rho.copy())
            u = hard_pulse_propagator(system, segment)
            rho = u @ rho @ u.conj().T
            continue
        duration = segment.duration_s
        if duration == 0.0:
            continue
        h = segment_hamiltonian(system, segment)
        energies, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))
        rho_eig = vectors.conj().T @ rho @ vectors

        def sampler(t_abs: float) -> np.ndarray:
            dt = min(max(t_abs - reached, 0.0), duration)
            phases = np.exp(-2j * np.pi * energies * dt)
            evolved = (phases[:, None] * rho_eig) * phases.conj()[None, :]
            return vectors @ evolved @ vectors.conj().T

        emit_until(reached + duration, sampler)
        phases = np.exp(-2j * np.pi * energies * duration)
        rho = vectors @ ((phases[:, None] * rho_eig) * phases.conj()[None, :]) @ vectors.conj().T
        reached += duration

    emit_until(total, lambda _t: rho.copy())
    return [r for r in results]  # type: ignore[return-value]


def final_state(state: np.ndarray, segments: list[Segment], system: SpinSystem) -> np.ndarray:
    """State after the full sequence (including any trailing zero-duration pulses)."""
    check_density(state)
    rho = np.array(state, dtype=complex)
    for segment in segments:
        if isinstance(segment, HardPulse):
            u = hard_pulse_propagator(system, segment)
        elif segment.duration_s == 0.0:
            continue
        else:
            u = segment_propagator(segment_hamiltonian(system, segment), segment.duration_s)
        rho = u @ rho @ u.conj().T
    return rho


@dataclass(frozen=True)
class RelaxationEnvelope:
    """Phenomenological decay times (s); absent values mean no decay.

    t_s_s: singlet depopulation lifetime (whole-signal factor on singlet traces).
    t_2s_star_s: singlet-singlet dephasing (damps the oscillatory component).
    t_rabi_s: overall decay of transfer (Rabi-type) traces.
    """

    t_s_s: float | None = None
    t_2s_star_s: float | None = None
    t_rabi_s: float | None = None

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when present")


def _damp(values: np.ndarray, times: np.ndarray, t_const: float | None) -> np.ndarray:
    if t_const is None:
        return values
    return values * np.exp(-times / t_const)


def _damp_oscillation(values: np.ndarray, times: np.ndarray, t_const: float | None) -> np.ndarray:
    # dephasing acts on the excursion about the trace mean (exact for a
    # cosine oscillating about a constant offset)
    if t_const is None:
        return values
    baseline = values.mean()
    return baseline + (values - baseline) * np.exp(-times / t_const)


def apply_relaxation_envelope(trace: Trace, envelope: RelaxationEnvelope) -> Trace:
    """Multiply a time trace by the decay factors of the fitted decay models.

    Rabi-type traces get the overall exp(-t/T_Rabi) factor; Ramsey-type
    traces get exp(-t/T_2S*) on the oscillation and exp(-t/T_S) on the
    whole signal.  Traces swept in anything but time are rejected.
    """
    if trace.sweep_unit != "s":
        raise ValueError("relaxation envelopes apply to time traces only")
    times = trace.sweep_values
    kind = trace.metadata.get("protocol", "")
    is_ramsey = kind == "ramsey"

    def transform(values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=float)
        if is_ramsey:
            out = _damp_oscillation(out, times, envelope.t_2s_star_s)
            out = _damp(out, times, envelope.t_s_s)
        else:
            out = _damp(out, times, envelope.t_rabi_s)
        return out

    populations = trace.singlet_populations
    if populations is not None:
        populations = np.vstack([transform(row) for row in populations])
    metadata = dict(trace.metadata)
    metadata["envelope"] = {k: v for k, v in asdict(envelope).items() if v is not None}
    return Trace(
        sweep_values=times.copy(),
        observable=transform(trace.observable),
        singlet_populations=populations,
        metadata=metadata,
    )

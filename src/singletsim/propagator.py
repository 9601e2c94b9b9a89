"""Exact piecewise-constant evolution of density matrices through pulse sequences.

Two entry points share one engine.  `sequence_propagator` turns a segment
list into its propagator U = prod_k V_k exp(-i 2 pi E_k t_k) V_k^dagger, which
is exact for the piecewise-constant Hamiltonians used here.  A lock at RF
phase phi has the generator Z H(0) Z^dagger with Z = exp(-i phi Fz), and
H(0) is real symmetric: each distinct phase-0 generator (a segment at phase
0 without its duration) is diagonalised once per call, in real arithmetic,
and its eigenvectors are rotated to each phase, so locks that differ only
in phase share one `eigh`; this is the one place RF phase enters the
evolution.  A hard pulse is an ideal zero-duration
rotation, the same 2 x 2 rotation on every spin, written in closed form by
bit index with no `eigh`.  `swept_expectations` reads every population: a
sweep of a duration tau shared by k consecutive segments (a fixed sequence
is a one-point sweep) is read in their eigenbases, vectorised over tau for
k = 1, with no propagator formed per tau.  It reads each assigned pair's
singlet population from the rows of the pair's |ud> and |du> states, with
no d x d projector, then any dense observables.
Relaxation enters only as phenomenological decay envelopes applied to
observable traces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .hamiltonian import SpinLockParams, free_hamiltonian, spinlock_hamiltonian
from .spincore import SpinSystem, _fz, _spin_states, check_density, check_hermitian
from .trace import Trace

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


def segment_hamiltonian(system: SpinSystem, segment: SpinLock | Delay) -> np.ndarray:
    """Generator (Hz) of a delay or spin-lock segment."""
    if isinstance(segment, Delay):
        return free_hamiltonian(system, segment.transmitter_offset_hz)
    return spinlock_hamiltonian(system, segment.params)


def _phase_free(segment: SpinLock | Delay) -> tuple[SpinLock | Delay, float]:
    """(the segment at RF phase 0 without its duration, its RF phase)."""
    if isinstance(segment, SpinLock):
        return SpinLock(replace(segment.params, phase=0.0), 0.0), segment.params.phase
    return replace(segment, duration_s=0.0), 0.0


def _segment_eig(
    system: SpinSystem, segment: SpinLock | Delay, eigs: dict
) -> tuple[np.ndarray, np.ndarray]:
    """(E, V) of the segment's generator H(phase) = Z H(0) Z^dagger, Z = exp(-i phase Fz).

    H(0) is real symmetric, so it is diagonalised in real arithmetic, once
    per table whatever the phase; V(phase) = Z V(0) scales its rows.
    """
    key, phase = _phase_free(segment)
    if key not in eigs:
        h0 = check_hermitian(segment_hamiltonian(system, key), tol=1e-9)
        if np.any(h0.imag != 0.0):
            raise ValueError("the phase-0 generator of a segment must be real")
        eigs[key] = np.linalg.eigh(h0.real)
    energies, vectors = eigs[key]
    return energies, np.exp(-1j * phase * _fz(system))[:, None] * vectors


def _unitary(eig: tuple[np.ndarray, np.ndarray], duration_s: float) -> np.ndarray:
    energies, vectors = eig
    return vectors @ (np.exp(-2j * np.pi * energies * duration_s)[:, None] * vectors.conj().T)


def _pulse(system: SpinSystem, pulse: HardPulse) -> np.ndarray:
    """exp(-i theta sum_i (cos(phase) I_ix + sin(phase) I_iy)), entry by bit index.

    Each spin contributes cos(theta / 2) where basis states k and l agree
    and -i sin(theta / 2) where they differ; the phase enters as Z R(0) Z^dagger.
    """
    index = np.arange(system.dim)
    flips = index[:, None] ^ index
    n_flips = sum((flips >> spin) & 1 for spin in range(system.n_spins))
    c, s = np.cos(pulse.flip_angle / 2), -1j * np.sin(pulse.flip_angle / 2)
    factors = np.array([c ** (system.n_spins - h) * s**h for h in range(system.n_spins + 1)])
    z = np.exp(-1j * pulse.phase * _fz(system))
    return z[:, None] * factors[n_flips] * z.conj()


def _propagator(system: SpinSystem, segments: list[Segment], eigs: dict) -> np.ndarray | None:
    """The propagator of a segment list, or None when it plays for no time."""
    u = None
    for segment in segments:
        if isinstance(segment, HardPulse):
            if segment.flip_angle == 0.0:
                continue
            step = _pulse(system, segment)
        else:
            if segment.duration_s == 0.0:
                continue
            step = _unitary(_segment_eig(system, segment, eigs), segment.duration_s)
        u = step if u is None else step @ u
    return u


def sequence_propagator(system: SpinSystem, segments: list[Segment]) -> np.ndarray:
    """The propagator of a segment list, the identity when it plays for no time.

    Each distinct phase-0 generator is diagonalised once per call.
    """
    u = _propagator(system, segments, {})
    return np.eye(system.dim, dtype=complex) if u is None else u


def swept_expectations(
    system: SpinSystem,
    rho0: np.ndarray,
    before: list[Segment],
    segments: list[SpinLock | Delay],
    durations_s,
    after: list[Segment],
    observables: list[np.ndarray],
) -> np.ndarray:
    """Singlet population of each assigned pair, then Re tr(U rho0 U^dagger O) of each observable.

    Rows are the pairs in order, then the observables; columns are the
    durations.  U = after . S_k(tau) ... S_1(tau) . before, each swept
    segment S_j's own duration replaced by each tau.  With V_j the
    eigenbasis of S_j's generator, rho0 becomes R = Y^dagger rho0 Y with
    Y = U_before^dagger V_1 (V_1 when `before` plays nothing) and each
    observable M = W^dagger O W with W = U_after V_k (V_k likewise).  A
    pair's singlet projector sums |S0, rest><S0, rest| over the other spins,
    so its M is B^dagger B with B = (W[ud] - W[du]) / sqrt(2), the rows of W
    at the pair's |ud> and |du> states.  For one swept segment, with
    a = exp(-2 pi i E tau), the trace is sum_ij a_i R_ij conj(a_j) M_ji: one
    (n_tau, d) x (d, d) product per row.  For more, R is carried from each
    eigenbasis to the next through the overlaps C_j = V_{j+1}^dagger V_j,
    one tau at a time.  No propagator is formed per tau.
    """
    check_density(rho0)
    eigs: dict[SpinLock | Delay, tuple[np.ndarray, np.ndarray]] = {}
    u_before, u_after = (_propagator(system, played, eigs) for played in (before, after))
    bases = [_segment_eig(system, segment, eigs) for segment in segments]
    y = bases[0][1] if u_before is None else u_before.conj().T @ bases[0][1]
    w = bases[-1][1] if u_after is None else u_after @ bases[-1][1]
    r = y.conj().T @ rho0 @ y
    masks, down = _spin_states(system)
    m_t = []  # the transpose of each M
    for a, b in system.pairs:
        ud = np.flatnonzero(~down[a] & down[b])
        diff = w[ud] - w[ud ^ (masks[a] | masks[b])]  # sqrt(2) B
        m_t.append(0.5 * (diff.T @ diff.conj()))
    m_t += [(w.conj().T @ obs @ w).T for obs in observables]

    def read(x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """sum_ij a_i x_ij conj(a_j) M_ji for each M, over a's leading axis."""
        return np.array([((a @ (x * mt)) * a.conj()).sum(axis=-1).real for mt in m_t])

    # same rounding order as _unitary, so each tau's phases match its propagator's
    taus = np.asarray(durations_s, dtype=float)[:, None]
    phases = [np.exp(-2j * np.pi * energies * taus) for energies, _ in bases]
    if len(bases) == 1:
        return read(r, phases[0])
    overlaps = [v_next.conj().T @ v for (_, v), (_, v_next) in zip(bases, bases[1:])]
    values = np.empty((len(m_t), taus.shape[0]))
    for n in range(taus.shape[0]):
        x = r
        for c, a in zip(overlaps, phases):
            x = c @ (a[n, :, None] * x * a[n].conj()) @ c.conj().T
        values[:, n] = read(x, phases[-1][n])
    return values


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

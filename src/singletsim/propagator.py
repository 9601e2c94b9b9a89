"""Exact piecewise-constant evolution of density matrices through pulse sequences.

Two entry points share one engine.  `sequence_propagator` turns a segment
list into its propagator U = prod_k V_k exp(-i 2 pi E_k t_k) V_k^dagger, which
is exact for the piecewise-constant Hamiltonians used here.  A lock at RF
phase phi has the generator Z H(0) Z^dagger with Z = exp(-i phi Fz), and
H(0) is real symmetric: each distinct phase-0 generator (a segment at phase
0 without its duration) is diagonalised once per call, in real arithmetic,
and its eigenvectors are rotated to each nonzero phase, so locks that differ
only in phase share one `eigh`.  This is the one place RF phase enters the
evolution, and the engine picks the frame: `swept_expectations` runs in the
frame of its first lock, where that lock is at phase 0 and its eigenvectors
stay real, and `sequence_propagator` in the lab frame.  A free delay is a
lock at zero nutation: its generator is the free Hamiltonian at the
transmitter offset, and it carries no RF phase.  A hard pulse is an ideal
zero-duration rotation, the same 2 x 2 rotation on every spin, written in
closed form by bit index with no `eigh`.  `swept_expectations` reads every
population: a sweep of a duration tau shared by k consecutive segments (a
fixed sequence is a one-point sweep) is read in their eigenbases, vectorised
over tau for k = 1, with no propagator formed per tau.  It reads each
assigned pair's singlet population from the rows of the pair's |ud> and
|du> states, with no d x d projector, then any dense observables.  Arrays
stay float64 while every factor is real, and a product of a real factor
with a complex one runs as one real product on the complex factor's real
view (`_mul`).
Relaxation enters only as phenomenological decay envelopes applied to
observable traces.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .hamiltonian import SpinLockParams, spinlock_hamiltonian
from .spincore import SpinSystem, _fz, _spin_states, check_density, check_hermitian
from .trace import Trace

@dataclass(frozen=True)
class HardPulse:
    """Ideal instantaneous rotation exp(-i angle * sum_i (cos(phase) I_ix + sin(phase) I_iy))."""

    flip_angle: float
    phase: float = 0.0

    def __post_init__(self):
        for name in ("flip_angle", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class SpinLock:
    """CW spin-lock segment; at zero nutation it is free evolution at the transmitter offset."""

    params: SpinLockParams
    duration_s: float

    def __post_init__(self):
        if self.duration_s < 0:
            raise ValueError("spin-lock duration must be >= 0")


Segment = HardPulse | SpinLock


def _phase_free(segment: SpinLock, frame: float) -> tuple[SpinLock, float]:
    """(the lock at RF phase 0 without its duration, its RF phase in the frame; 0 at zero nutation)."""
    phase = segment.params.phase - frame if segment.params.nutation_hz != 0.0 else 0.0
    return SpinLock(replace(segment.params, phase=0.0), 0.0), phase


def _segment_eig(system: SpinSystem, segment: SpinLock, eigs: dict, frame: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, V) of the segment's generator H(phase) = Z H(0) Z^dagger, Z = exp(-i phase Fz).

    The phase is the lock's less the frame's.  H(0) is real symmetric, so it
    is diagonalised in real arithmetic, once per table whatever the phase;
    V(phase) = Z V(0) scales its rows, and at phase 0 the real V(0) is
    returned as it is.
    """
    key, phase = _phase_free(segment, frame)
    if key not in eigs:
        h0 = check_hermitian(spinlock_hamiltonian(system, key.params), tol=1e-9)
        if np.any(h0.imag != 0.0):
            raise ValueError("the phase-0 generator of a segment must be real")
        eigs[key] = np.linalg.eigh(h0.real)
    energies, vectors = eigs[key]
    if phase == 0.0:
        return energies, vectors
    return energies, np.exp(-1j * phase * _fz(system))[:, None] * vectors


def _angles(energies: np.ndarray, durations_s) -> np.ndarray:
    """-2 pi E t: the phase each eigenvalue E gathers over each duration t."""
    return (-2 * np.pi * energies) * durations_s


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d arrays; a real factor multiplies the complex one's real view.

    numpy's own real-by-complex product is slower than a complex one; a real
    a applied to b viewed as (d, 2d) reals is one real product, half the work.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(b):
        return (a @ np.ascontiguousarray(b).view(np.float64)).view(np.complex128)
    return _mul(b.T, a.T).T


def _unitary(eig: tuple[np.ndarray, np.ndarray], duration_s: float) -> np.ndarray:
    energies, vectors = eig
    phases = np.exp(1j * _angles(energies, duration_s))
    return _mul(vectors, phases[:, None] * np.conjugate(vectors.T, order="C"))


def _pulse(system: SpinSystem, pulse: HardPulse, frame: float) -> np.ndarray:
    """exp(-i theta sum_i (cos(phase) I_ix + sin(phase) I_iy)), entry by bit index.

    Each spin contributes cos(theta / 2) where basis states k and l agree
    and -i sin(theta / 2) where they differ; the phase, the pulse's own less
    the frame's, enters as Z R(0) Z^dagger.
    """
    index = np.arange(system.dim)
    flips = index[:, None] ^ index
    n_flips = sum((flips >> spin) & 1 for spin in range(system.n_spins))
    c, s = np.cos(pulse.flip_angle / 2), -1j * np.sin(pulse.flip_angle / 2)
    factors = np.array([c ** (system.n_spins - h) * s**h for h in range(system.n_spins + 1)])
    z = np.exp(-1j * (pulse.phase - frame) * _fz(system))
    return z[:, None] * factors[n_flips] * z.conj()


def _propagator(system: SpinSystem, segments: list[Segment], eigs: dict, frame: float) -> np.ndarray | None:
    """The propagator in the frame of a lock at RF phase `frame`; None when it plays for no time."""
    u = None
    for segment in segments:
        if isinstance(segment, HardPulse):
            if segment.flip_angle == 0.0:
                continue
            step = _pulse(system, segment, frame)
        else:
            if segment.duration_s == 0.0:
                continue
            step = _unitary(_segment_eig(system, segment, eigs, frame), segment.duration_s)
        u = step if u is None else step @ u
    return u


def sequence_propagator(system: SpinSystem, segments: list[Segment]) -> np.ndarray:
    """The propagator of a segment list, the identity when it plays for no time.

    Each distinct phase-0 generator is diagonalised once per call.
    """
    u = _propagator(system, segments, {}, 0.0)
    return np.eye(system.dim, dtype=complex) if u is None else u


def swept_expectations(
    system: SpinSystem,
    rho0: np.ndarray,
    before: list[Segment],
    segments: list[SpinLock],
    durations_s,
    after: list[Segment],
    observables: list[np.ndarray],
) -> np.ndarray:
    """Singlet population of each assigned pair, then Re tr(U rho0 U^dagger O) of each observable.

    Rows are the pairs in order, then the observables; columns are the
    durations.  The run is simulated in the frame of its first lock, the
    first `SpinLock` of `before + segments`: every phase is taken less that
    lock's, so it sits at phase 0 with real eigenvectors.  rho0 is given in
    that frame, the one the ideal transfer state is defined against; each
    observable is given in the lab frame and read as Z^dagger O Z with
    Z = exp(-i phase Fz).  Pair singlet populations read the same in both.

    U = after . S_k(tau) ... S_1(tau) . before, each swept segment S_j's
    own duration replaced by each tau.  With V_j the
    eigenbasis of S_j's generator, rho0 becomes R = Y^dagger rho0 Y with
    Y = U_before^dagger V_1 (V_1 when `before` plays nothing) and each
    observable M = W^dagger O W with W = U_after V_k (V_k likewise).  A
    pair's singlet projector sums |S0, rest><S0, rest| over the other spins,
    so its M is B^dagger B with B = (W[ud] - W[du]) / sqrt(2), the rows of W
    at the pair's |ud> and |du> states.  For one swept segment, with
    a = exp(-2 pi i E tau), the trace is Re sum_ij a_i R_ij conj(a_j) M_ji,
    read in real arithmetic: one (2 n_tau, d) x (d, d) real product per row
    of [cos; sin] of the phases against R * M^T, over its real view when it
    is complex.  For more, R is carried from each eigenbasis to the next
    through the overlaps C_j = V_{j+1}^dagger V_j, one tau at a time.  No
    propagator is formed per tau.  With real eigenvectors and rho0, every
    population is read in float64.
    """
    check_density(rho0)
    frame = next(s.params.phase for s in [*before, *segments] if isinstance(s, SpinLock))
    eigs: dict[SpinLock, tuple[np.ndarray, np.ndarray]] = {}
    u_before = _propagator(system, before, eigs, frame)
    u_after = u_before if after == before else _propagator(system, after, eigs, frame)  # Ramsey's pi/2 locks
    bases = [_segment_eig(system, segment, eigs, frame) for segment in segments]
    y = bases[0][1] if u_before is None else _mul(u_before.conj().T, bases[0][1])
    w = bases[-1][1] if u_after is None else _mul(u_after, bases[-1][1])
    r = _mul(y.conj().T, _mul(rho0, y))
    masks, down = _spin_states(system)
    m_t = []  # the transpose of each M
    for a, b in system.pairs:
        ud = np.flatnonzero(~down[a] & down[b])
        diff = w[ud] - w[ud ^ (masks[a] | masks[b])]  # sqrt(2) B
        m_t.append(0.5 * (diff.T @ diff.conj()))
    for obs in observables:  # each given in the lab frame, read as Z^dagger O Z
        fz = _fz(system)
        m_t.append(_mul(_mul(w.conj().T, np.exp(1j * frame * (fz[:, None] - fz)) * obs), w).T)

    def read(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Re sum_ij a_i x_ij conj(a_j) M_ji for each M, a = exp(i theta), over theta's leading axis.

        With c = cos(theta), s = sin(theta) and X = x * M^T, the sum is
        c X c + s X s over Re X, plus c X s - s X c over Im X when X is complex.
        """
        n = theta.shape[0]
        cs = np.concatenate([np.cos(theta), np.sin(theta)])
        rows = []
        for mt in m_t:
            g = _mul(cs, x * mt)  # [c X; s X]
            value = (g.real * cs).reshape(2, n, -1).sum(axis=(0, 2))
            if np.iscomplexobj(g):
                value += (g[:n].imag * cs[n:] - g[n:].imag * cs[:n]).sum(axis=-1)
            rows.append(value)
        return np.array(rows)

    # the angles round as _unitary's do, so each tau's phases match its propagator's
    taus = np.asarray(durations_s, dtype=float)[:, None]
    angles = [_angles(energies, taus) for energies, _ in bases]
    if len(bases) == 1:
        return read(r, angles[0])
    phases = [np.exp(1j * theta) for theta in angles[:-1]]
    overlaps = [_mul(v_next.conj().T, v) for (_, v), (_, v_next) in zip(bases, bases[1:])]
    values = np.empty((len(m_t), taus.shape[0]))
    for n in range(taus.shape[0]):
        x = r
        for c, a in zip(overlaps, phases):
            x = _mul(_mul(c, a[n, :, None] * x * a[n].conj()), c.conj().T)
        values[:, n] = read(x, angles[-1][n : n + 1])[:, 0]
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

"""Exact piecewise-constant evolution of density matrices through pulse sequences.

One engine, `_apply`, applies a segment list's propagator
U = prod_k V_k exp(-i 2 pi E_k t_k) V_k^dagger, exact for the
piecewise-constant Hamiltonians used here, to a block of kets one segment at
a time; `swept_expectations` applies it to the initial state's kets.  A lock
at RF phase phi has the generator Z H(0) Z^dagger with Z = exp(-i phi Fz),
and H(0) is real symmetric: each distinct phase-0 generator (a segment at
phase 0 without its duration) is diagonalised once per call, in real
arithmetic, and the kets are scaled by the diagonal Z on their way into and
out of its real eigenvectors V0, so locks that differ only in phase share
one `eigh` and Z V0 is never formed.  This is the one place RF phase enters
the evolution, and the engine picks the frame: `swept_expectations` runs in
the frame of its first lock, where that lock is at phase 0.  A free delay
is a lock at zero nutation: its generator is the free Hamiltonian at the
transmitter offset, and it carries no RF phase.  A hard pulse is an ideal
zero-duration rotation, the same 2 x 2 rotation on each spin's bit, with no
`eigh`.  `swept_expectations` reads every population: a sweep of a
duration tau shared by k consecutive segments (a fixed sequence is a
one-point sweep) is read in their eigenbases, with no propagator formed per
tau, from an initial state in its one form, c * 1 + K diag(w) K^dagger with
the kets K a 2-d array (`spincore.check_state`).  The read is chosen by the
size n r of the n taus' r kets against d: one swept segment with n r > d is
read vectorised over tau; otherwise the kets are carried, a block of taus
at a time, and brought out through the segments after the sweep.  The
phases exp(-2 pi i E tau) of a swept segment are one (n, d) table
(`_phasors`); when the taus rise uniformly to rounding, as every
start/stop/count sweep's do, it is built by angle addition from about
2 sqrt(n) d exponentials in place of n d, each phase still that of its own
angle.  It reads each assigned pair's singlet population from the
rows of the pair's |ud> and |du> states, with no d x d projector, then the
transverse magnetization Mx off the kets carried on through a readout
sequence, with no readout propagator or dense observable.  A simulated
preparation needs one number from a diagonal state, its pair's singlet
population: `diagonal_singlet_population` reads it in the Heisenberg
picture, carrying the pair's d / 4 singlet kets through U^T, the segment
list reversed with each RF phase mirrored about the frame (`_mirrored`),
in place of the state's d basis kets through U.  Arrays stay
float64 while every factor is real, and a product of a real factor with a
complex one runs as one real product on the complex factor's real view
(`_mul`).  Relaxation enters only as phenomenological decay envelopes
(`RelaxationEnvelope.apply`), which each runner applies to the values it
has read.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .hamiltonian import SpinLockParams, spinlock_hamiltonian
from .spincore import SQRT2, SpinSystem, _fz, _spin_states, _up_down, check_state

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
        if not 0.0 <= self.duration_s < math.inf:
            raise ValueError(f"spin-lock duration must be finite and >= 0, got {self.duration_s}")


Segment = HardPulse | SpinLock


def _phase_free(segment: SpinLock, frame: float) -> tuple[SpinLock, float]:
    """(the lock at RF phase 0 without its duration, its RF phase in the frame; 0 at zero nutation)."""
    phase = segment.params.phase - frame if segment.params.nutation_hz != 0.0 else 0.0
    return SpinLock(replace(segment.params, phase=0.0), 0.0), phase


def _segment_eig(system: SpinSystem, segment: SpinLock, eigs: dict, frame: float) -> tuple:
    """(E, V0, z): the segment's generator H(phase) = Z H(0) Z^dagger has eigenvectors Z V0, Z = diag(z).

    The phase is the lock's less the frame's, and z = exp(-i phase Fz), None
    at phase 0.  H(0) must be real and exactly symmetric; it is diagonalised
    in real arithmetic, once per table whatever the phase.
    """
    key, phase = _phase_free(segment, frame)
    if key not in eigs:
        h0 = spinlock_hamiltonian(system, key.params)
        if np.iscomplexobj(h0) or not np.array_equal(h0, h0.T):
            raise ValueError("the phase-0 generator of a segment must be real and exactly symmetric")
        eigs[key] = np.linalg.eigh(h0)
    energies, vectors = eigs[key]
    return energies, vectors, None if phase == 0.0 else np.exp(-1j * phase * _fz(system.n_spins))


def _into(basis: tuple, x: np.ndarray) -> np.ndarray:
    """V^dagger x = V0^T (conj(z) * x) for a basis (E, V0, z)."""
    _, vectors, z = basis
    return _mul(vectors.T, x if z is None else z.conj()[:, None] * x)


def _out(basis: tuple, x: np.ndarray) -> np.ndarray:
    """V x = z * (V0 x) for a basis (E, V0, z)."""
    _, vectors, z = basis
    x = _mul(vectors, x)
    return x if z is None else z[:, None] * x


def _angles(energies: np.ndarray, durations_s) -> np.ndarray:
    """-2 pi E t: the phase each eigenvalue E gathers over each duration t."""
    return (-2 * np.pi * energies) * durations_s


def _phasors(energies: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The (n, d) table exp(i theta) of the angles theta = `_angles`(E, tau) of n taus and d eigenvalues.

    When the taus rise uniformly to rounding, tau_k = tau_0 + k h within a few
    units in the last place of the largest, the table is built by angle
    addition: with m = ceil(sqrt(n)) and k = q m + s, row k is the row at
    tau_{q m} times the row at s h, ceil(n / m) + m rows of exponentials in
    place of n, and it is built when that is fewer.  The two angles sum to
    theta_k but for a rounding-sized delta, taken exactly (Fast2Sum of
    theta_k - theta_{q m}), and the factor 1 + i delta, exp(i delta) to within
    delta^2, puts it back: each phase is that of theta_k itself, as a lock
    played for tau_k gathers it.  Any other sweep takes the direct exp(i theta).
    """
    n = len(taus)
    m = math.isqrt(n - 1) + 1 if n > 1 else 1
    rows = -(-n // m) * m  # whole blocks of m, the last one run on past tau_{n-1}
    h = (taus[-1] - taus[0]) / (n - 1) if rows // m + m < n else 0.0
    grid = taus[0] + h * np.arange(rows) if h > 0.0 else None
    if grid is None or np.any(np.abs(grid[:n] - taus) > 4 * np.finfo(float).eps * taus[-1]):
        return np.exp(1j * _angles(energies, taus[:, None]))
    theta = _angles(energies, np.concatenate([taus, grid[n:]])[:, None]).reshape(-1, m, len(energies))
    coarse, fine = theta[:, :1].copy(), _angles(energies, h * np.arange(m)[:, None])
    u = theta - coarse
    theta -= u
    theta -= coarse  # theta - coarse = u + theta exactly
    u -= fine
    u += theta  # delta
    table = np.exp(1j * coarse) * np.exp(1j * fine)
    np.multiply(u, table.imag, out=theta)
    np.multiply(u, table.real, out=u)
    table.real -= theta
    table.imag += u  # table * (1 + i delta)
    return table.reshape(rows, -1)[:n]


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


def _apply(system: SpinSystem, segments: list[Segment], x: np.ndarray, eigs: dict, frame: float) -> np.ndarray:
    """U x for the segments' propagator U in the frame of a lock at RF phase `frame`, one segment at a time.

    x is a (d, r) block of kets.  A lock is V (a * (V^dagger x)) with
    a = exp(-2 pi i E t), V = Z V0 applied as `_out` and `_into` do.  A hard
    pulse is the same 2 x 2 rotation exp(-i theta (cos(phase) I_x +
    sin(phase) I_y)) on each spin's bit, its phase the pulse's less the
    frame's: n_spins passes over x, no `eigh`.  A segment that does not play
    (zero flip angle or duration) leaves x as it is.
    """
    for segment in segments:
        if isinstance(segment, HardPulse):
            if segment.flip_angle == 0.0:
                continue
            c, s = np.cos(segment.flip_angle / 2), -1j * np.sin(segment.flip_angle / 2)
            e = np.exp(1j * (segment.phase - frame))
            rotation = np.array([[c, s * e.conjugate()], [s * e, c]])
            for spin in range(system.n_spins):  # spin 0 is the most significant bit
                x = (rotation @ x.reshape(2**spin, 2, -1)).reshape(len(x), -1)
        elif segment.duration_s != 0.0:
            basis = _segment_eig(system, segment, eigs, frame)
            x = _out(basis, np.exp(1j * _angles(basis[0], segment.duration_s))[:, None] * _into(basis, x))
    return x


def _signal_halves(system: SpinSystem, signal: tuple, x: np.ndarray, eigs: dict, frame: float) -> list[tuple]:
    """(y, Mx y) for y = Z_frame `_apply`(readout, x_h) of each Fz-parity half x_h of x; x itself uncycled.

    `signal` is (readout segments, phase_cycle).  Z_frame = exp(-i frame Fz)
    takes the kets from the run's frame to the lab frame, where Mx y is the
    half-sum of y's rows with each spin's bit flipped in turn.
    """
    readout, phase_cycle = signal
    masks, down = _spin_states(system.n_spins)
    if phase_cycle:
        odd = (down.sum(axis=0) % 2 == 1)[:, None]
        x = np.concatenate([np.where(odd, 0.0, x), np.where(odd, x, 0.0)], axis=1)
    y = np.exp(-1j * frame * _fz(system.n_spins))[:, None] * _apply(system, readout, x, eigs, frame)
    mx = 0.5 * sum(y[np.arange(len(y)) ^ mask] for mask in masks)
    return list(zip(np.hsplit(y, 1 + phase_cycle), np.hsplit(mx, 1 + phase_cycle)))


def swept_expectations(
    system: SpinSystem,
    state: tuple,
    before: list[Segment],
    segments: list[SpinLock],
    durations_s,
    after: list[Segment],
    signal: tuple[list[Segment], bool] | None = None,
) -> np.ndarray:
    """Singlet population of each assigned pair, then the signal Mx after a readout, at each duration.

    Rows are the pairs in order, then the signal when `signal` =
    (readout segments, phase_cycle) is given; columns are the durations,
    each finite and >= 0.  The run is simulated in the frame of its first
    lock, the first `SpinLock` of `before + segments`: every phase is taken
    less that lock's, so it sits at phase 0.  The initial state
    rho0 = c * 1 + K diag(w) K^dagger is given as (c, K, w) in that frame, the
    one the ideal transfer state is defined against (`spincore.check_state`).
    Pair singlet populations read the same in every frame; the signal is
    tr(rho Mx) in the lab frame, after the readout, read off each ket y =
    `_signal_halves`: the ket through the readout, then by Z_frame =
    exp(-i frame Fz).  The 0/pi phase cycle halves the difference from the
    run with every readout phase shifted by pi; that keeps the terms of rho
    between basis states whose Fz differ by an even number, so it is the sum
    over each ket's two Fz-parity halves.  tr Mx = 0, so c adds no signal.

    U = after . S_k(tau) ... S_1(tau) . before, each swept segment S_j's
    own duration replaced by each tau.  With V_j = Z_j V0_j the eigenbasis
    of S_j's generator, the r kets enter as G = V_1^dagger `_apply`(before, K),
    d^2 r per lock.  A pair's singlet projector sums |S0, rest><S0, rest| over
    the other spins, so it reads ||x[ud] - x[du]||^2 / 2 off the rows of x at the pair's |ud>
    and |du> states, and its trace is d / 4.  One swept segment with n r > d
    is read in its eigenbasis: with W = `_apply`(after, V_1) (V0_1 itself at
    phase 0), each row's M (B^dagger B for a pair, B = (W[ud] - W[du]) /
    sqrt(2), and sum_h Y_h^dagger (Mx Y_h) over the halves Y_h of
    `_signal_halves`(W) for the signal), R = c * 1 + G diag(w) G^dagger and
    a = exp(-2 pi i E tau) (`_phasors`: by angle addition when the taus rise
    uniformly to rounding), the trace is Re sum_ij a_i R_ij conj(a_j) M_ji,
    read in real arithmetic: one (2 n, d) x (d, d) real product per row of
    [cos; sin] of the phases against R * M^T, over its real view when it is
    complex.  Otherwise, and for every k >= 2, the kets of a block of d // r
    taus are carried: scaled by each segment's phases (the block's rows of
    its `_phasors` table), out through V_j and
    into V_{j+1}^dagger, each a real (d, d) product on the kets' real view,
    then brought out as q = `_apply`(after, V_k x).  No propagator, R,
    overlap, observable or d x d state is formed on that path.  With real
    eigenvectors and kets, every population is read in float64.
    """
    check_state(state)
    c, kets, weights = state
    taus = np.asarray(durations_s, dtype=float)
    bad = taus[~((taus >= 0.0) & (taus < np.inf))]  # NaN fails both
    if bad.size:
        raise ValueError(f"swept duration {bad[0]} must be finite and >= 0")
    frame = next(s.params.phase for s in [*before, *segments] if isinstance(s, SpinLock))
    eigs: dict[SpinLock, tuple[np.ndarray, np.ndarray]] = {}
    bases = [_segment_eig(system, segment, eigs, frame) for segment in segments]
    g = _into(bases[0], _apply(system, before, kets, eigs, frame))  # V_1^dagger U_before K
    up_down = _up_down(system.n_spins)
    uds = [(up_down[a, b], up_down[b, a]) for a, b in system.pairs]  # the rows of each pair's |ud> and |du> states
    d, n_kets = g.shape
    if len(bases) == 1 and len(taus) * n_kets > d:
        # Re sum_ij a_i R_ij conj(a_j) M_ji, a = exp(i theta): with co = cos(theta),
        # si = sin(theta) and X = R * M^T, co X co + si X si over Re X, plus
        # co X si - si X co over Im X when X is complex
        _, vectors, z = bases[0]
        w = _apply(system, after, vectors if z is None else z[:, None] * vectors, eigs, frame)
        r = _mul(g * weights, g.conj().T) + c * np.eye(d)
        n = len(taus)
        cs = _phasors(bases[0][0], taus)
        cs = np.concatenate([cs.real, cs.imag])
        rows = []
        factors = [w[ud] - w[du] for ud, du in uds]  # sqrt(2) B of each pair
        if signal is not None:  # M itself
            factors.append(sum(y.conj().T @ mx for y, mx in _signal_halves(system, signal, w, eigs, frame)))
        for k, factor in enumerate(factors):  # each M^T formed only as it is read
            mt = 0.5 * (factor.T @ factor.conj()) if k < len(uds) else factor.T
            x = _mul(cs, r * mt)  # [co X; si X]
            value = (x.real * cs).reshape(2, n, -1).sum(axis=(0, 2))
            if np.iscomplexobj(x):
                value += (x[:n].imag * cs[n:] - x[n:].imag * cs[:n]).sum(axis=-1)
            rows.append(value)
        return np.array(rows)
    per_block = d // n_kets  # a block's kets fill at most one d x d array; orthonormal kets have r <= d
    traces = np.array([d / 4] * len(uds) + [0.0] * (signal is not None))[:, None]
    values = np.empty((len(traces), len(taus)))
    phasors = [_phasors(basis[0], taus).T for basis in bases]
    for start in range(0, len(taus), per_block):
        block = slice(start, start + per_block)
        x = g[:, None, :]  # (d, tau, ket)
        for j, basis in enumerate(bases):
            if j:  # out of the last eigenbasis, into this one
                x = _into(basis, _out(bases[j - 1], x.reshape(d, -1))).reshape(d, -1, n_kets)
            x = phasors[j][:, block, None] * x
        if block.stop >= len(taus):
            del phasors  # every phase is applied: the tables go before the kets come out
        q = _apply(system, after, _out(bases[-1], x.reshape(d, -1)), eigs, frame)
        rows = [0.5 * (np.abs(q[ud] - q[du]) ** 2).sum(axis=0) for ud, du in uds]
        if signal is not None:
            halves = _signal_halves(system, signal, q, eigs, frame)
            rows.append(sum((y.conj() * mx).real.sum(axis=0) for y, mx in halves))
        values[:, block] = np.reshape(rows, (len(rows), -1, n_kets)) @ weights + c * traces
    return values


def _mirrored(segments: list[Segment], frame: float) -> list[Segment]:
    """The segments in reverse order, each RF phase phi mirrored about the frame to 2 frame - phi.

    In the frame, H(0) is real symmetric and Z = exp(-i phi Fz) diagonal, so
    a lock's propagator Z exp(-i 2 pi H(0) t) Z^dagger has as its transpose
    the lock at -phi, and a pulse's, the pulse at -phi: `_apply` of this list
    is U^T for the segments' propagator U, durations and angles unchanged.
    """
    return [replace(s, phase=2 * frame - s.phase) if isinstance(s, HardPulse)
            else replace(s, params=replace(s.params, phase=2 * frame - s.params.phase)) for s in reversed(segments)]


def diagonal_singlet_population(system: SpinSystem, weights: np.ndarray, segments: list[Segment],
                                pair_index: int) -> float:
    """Singlet population of a pair after the segments, from the diagonal state diag(`weights`).

    Read in the Heisenberg picture, in the frame of the first lock (any
    frame, taken at phase 0, when there is none): with B^T the pair's d / 4
    singlet kets (|ud> - |du>) / sqrt(2) as columns, the population
    tr(B^T B U diag(w) U^dagger) is sum_k w_k ||row k of U^T B^T||^2, and
    U^T is `_apply` of the `_mirrored` list, d / 4 kets carried in place of
    d.  Each distinct phase-0 generator is diagonalised once (`_segment_eig`).
    """
    frame = next((s.params.phase for s in segments if isinstance(s, SpinLock)), 0.0)
    a, b = system.pair(pair_index)
    up_down, eye = _up_down(system.n_spins), np.eye(system.dim)
    singlets = (eye[:, up_down[a, b]] - eye[:, up_down[b, a]]) / SQRT2  # B^T
    x = _apply(system, _mirrored(segments, frame), singlets, {}, frame)
    return float(weights @ (np.abs(x) ** 2).sum(axis=1))


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
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive when present, got {value}")

    def apply(self, values: np.ndarray, times: np.ndarray, ramsey: bool) -> np.ndarray:
        """Each row of `values` (sampled at `times`, s) times its decay factors.

        A Ramsey row decays by exp(-t/T_2S*) about its own mean (exact for a
        cosine oscillating about a constant offset), then by exp(-t/T_S);
        every other row decays by exp(-t/T_Rabi).
        """
        out = np.array(values, dtype=float)
        if ramsey:
            if self.t_2s_star_s is not None:
                baseline = out.mean(axis=-1, keepdims=True)
                out = baseline + (out - baseline) * np.exp(-times / self.t_2s_star_s)
            if self.t_s_s is not None:
                out = out * np.exp(-times / self.t_s_s)
        elif self.t_rabi_s is not None:
            out = out * np.exp(-times / self.t_rabi_s)
        return out

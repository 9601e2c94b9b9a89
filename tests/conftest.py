"""Shared test references that no runtime path of the package uses.

The Zeeman triplet kets (`T_PLUS`, `T_0`, `T_MINUS`) and the lock's
singlet `PHI_S`, with the triplet labelling convention, are references for
`PAIR_BASIS`.  Dense spin and pair operators embedded by bit index,
projectors, product states, `expectation` and a spectral frequency estimate
are the references for the package's generators, populations and fits;
`rf_generator` is the lock term at an RF phase, summed from them.  The dense pair-product,
mixed-triplet and pseudo-thermal densities, the dense density check with its
`check_hermitian` and `dense`, which expands the engine's factored state
(c, K, w), reference the factored states the package builds.  The paper's
effective two-level theory is a test oracle here: `effective_channels`
gives each like-composition channel's `EffectiveTwoLevel` from the state
energies and the interaction strength
C = (J_cis - J_trans) / 4 * (a1 a2 + b1 b2 + g1 g2), and
`effective_receiving_trace` averages the channels' transferred populations,
against which the dense engine's traces are checked.
`sequence_propagator` is the engine's `_apply` on the identity, the d x d
propagator no runtime path forms, which the engine's tests hold against the
evolution oracle and unitarity.  The evolution oracle is
independent of the engine's tables and its pulse rotations: one `eigh`
per segment, of the segment's real phase-0 generator.  A phase-cycled
readout is checked against its second, phase-shifted run, built segment by
segment with `_phase_shifted_pulses`.  The engine simulates each run in the
frame of its first lock; the oracles work in the lab frame, from the initial
state `ideal_transfer_state` builds at that lock's phase.  The resonance
oracle builds each pair's lock block as a 2-spin `SpinSystem` and bisects
the detuning of its labelled levels.  `protocol_of` builds a protocol from
the fields its kind reads, out of a set shared by several kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from singletsim.analysis import FitInputError, _trace_xy
from singletsim.hamiltonian import (
    SpinLockParams,
    dressed_splitting,
    intrapair_coupling,
    pair_center_offset,
    spinlock_hamiltonian,
)
from singletsim.propagator import HardPulse, Segment, SpinLock, _apply
from singletsim.sequences import PROTOCOL_FIELDS, Protocol
from singletsim.spincore import (
    EIGENVALUE_TOL,
    PAIR_BASIS,
    PHI_COMPOSITIONS,
    TRACE_TOL,
    SpinSystem,
    TripletAmplitudes,
    _basis_split,
    thermal_state,
)

HERMITICITY_TOL = 1e-10


def pytest_configure(config):
    # a complex value written into a real array loses its imaginary part with
    # only a warning; in tests it is an error, as a RuntimeWarning is
    # (pyproject.toml).  numpy < 1.25 has no numpy.exceptions, and the floor is 1.24
    complex_warning = getattr(np, "exceptions", np).ComplexWarning
    name = f"{complex_warning.__module__}.{complex_warning.__qualname__}"
    config.addinivalue_line("filterwarnings", f"error::{name}")


# the Zeeman triplet kets and the lock's singlet, in the local pair order (uu, ud, du, dd).  The
# triplet labels follow the Zeeman-energy convention used for the spin-locked eigenbasis here:
# T- = |uu>, T+ = |dd>.  This is the reverse of the most common textbook labelling and is intentional.
T_MINUS = np.array([1.0, 0, 0, 0])
T_0 = np.array([0.0, 1, 1, 0]) / np.sqrt(2)
T_PLUS = np.array([0.0, 0, 0, 1])
PHI_S = np.array([0.0, 1, -1, 0]) / np.sqrt(2)  # coincides with s0

# single spin-1/2 operators
SIGMA_X = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def _embed(system: SpinSystem, spins: tuple[int, ...], op: np.ndarray) -> np.ndarray:
    """Operator `op` on the local basis of `spins`, identity on the rest, by bit index."""
    pattern, rest = _basis_split(system.n_spins, spins)
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
        pattern, _ = _basis_split(system.n_spins, pair)
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


def pair_product_density(system: SpinSystem, pair_densities: list[np.ndarray]) -> np.ndarray:
    """Full density matrix from one 4x4 density block per pair (pairs must cover all spins)."""
    if len(pair_densities) != len(system.pairs):
        raise ValueError("need one density block per pair")
    covered = {i for p in system.pairs for i in p}
    if covered != set(range(system.n_spins)):
        raise ValueError("pair assignments do not cover all spins")
    rho = 1.0  # takes the blocks' dtype: real blocks give a real density
    for pair, rho4 in zip(system.pairs, pair_densities):
        pattern, _ = _basis_split(system.n_spins, pair)
        rho = rho * np.asarray(rho4)[np.ix_(pattern, pattern)]
    return rho


def maximally_mixed_triplet() -> np.ndarray:
    """4x4 density of a pair with equal phi+, phi0, phi- populations and no singlet."""
    b = PAIR_BASIS
    rho = np.zeros((4, 4))
    for ket in (b.phi_plus, b.phi_0, b.phi_minus):
        rho += np.outer(ket, ket.conj()) / 3.0
    return rho


def thermal_density(system: SpinSystem, polarization: float = 1.0) -> np.ndarray:
    """The d x d pseudo-thermal state, diagonal with `thermal_state`'s weights."""
    return np.diag(thermal_state(system, polarization))


def check_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The Hermitian part (M + M^dagger) / 2, after checking that M is Hermitian within tol."""
    adjoint = matrix.conj().T
    dev = np.max(np.abs(matrix - adjoint))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.0e})")
    return 0.5 * (matrix + adjoint)


def check_density(rho: np.ndarray) -> None:
    """Validate Hermiticity, unit trace and positivity of a dense density matrix.

    A state whose rho + EIGENVALUE_TOL * I has a Cholesky factor passes; only
    the others are tested by their smallest eigenvalue.
    """
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


def dense(state: tuple) -> np.ndarray:
    """The d x d density c * 1 + K diag(w) K^dagger of a factored state (c, K, w); K = None is the identity."""
    c, kets, weights = state
    if kets is None:
        return c * np.eye(len(weights)) + np.diag(weights)
    return c * np.eye(len(kets)) + (kets * weights) @ kets.conj().T


def rf_generator(system: SpinSystem, phase: float) -> np.ndarray:
    """Transverse operator sum_i (cos(phase) I_ix + sin(phase) I_iy) driven by RF at a phase, summed spin by spin."""
    cx, sy = np.cos(phase), np.sin(phase)
    return sum(
        cx * embed_spin_operator(system, i, "x") + sy * embed_spin_operator(system, i, "y")
        for i in range(system.n_spins)
    )


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


def triplet_overlap(amp1: TripletAmplitudes, amp2: TripletAmplitudes) -> float:
    """a1 a2 + b1 b2 + g1 g2 of two triplet compositions."""
    return float(np.array([amp1.alpha, amp1.beta, amp1.gamma]) @ np.array([amp2.alpha, amp2.beta, amp2.gamma]))


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
    return 0.25 * combination * triplet_overlap(amp1, amp2)


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


def interpair_couplings(
    system: SpinSystem, pair_i: int, pair_j: int
) -> tuple[float, float, float, float]:
    """(J_aa, J_bb, J_ab, J_ba) between the members of two assigned pairs."""
    a1, b1 = system.pair(pair_i)
    a2, b2 = system.pair(pair_j)
    j = system.couplings_hz
    return (j[a1, a2], j[b1, b2], j[a1, b2], j[b1, a2])


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


def effective_receiving_trace(
    system: SpinSystem,
    lock: SpinLockParams,
    times_s: np.ndarray,
    weights: dict[str, float] | None = None,
    source_pair: int = 0,
    readout_pair: int = 1,
) -> np.ndarray:
    """Receiving-pair singlet population predicted by the effective two-level model.

    Averages the like-composition channels with the given weights (default:
    the maximally mixed triplet, one third each).
    """
    channels = effective_channels(system, lock, pair_1=source_pair, pair_2=readout_pair)
    if weights is None:
        weights = {name: 1.0 / 3.0 for name in channels}
    times = np.asarray(times_s, dtype=float)
    out = np.zeros_like(times)
    for name, share in weights.items():
        out += share * channels[name].population_trace(times)
    return out


def protocol_of(kind: str, **fields) -> Protocol:
    """A `kind` protocol from those of `fields` its kind reads (its `PROTOCOL_FIELDS` row)."""
    return Protocol(kind=kind, **{name: value for name, value in fields.items() if name in PROTOCOL_FIELDS[kind]})


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


def sequence_propagator(system: SpinSystem, segments: list[Segment]) -> np.ndarray:
    """The engine's propagator of a segment list in the lab frame: `_apply` to the identity's kets."""
    return _apply(system, segments, np.eye(system.dim), {}, 0.0)


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
            g0 = spinlock_hamiltonian(system, seg.params.nutation_hz, seg.params.transmitter_offset_hz)
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


def oracle_pair_block_levels(system, pair_index, lock):
    """Dressed pair levels of a 2-spin `SpinSystem` lock Hamiltonian, labelled by sorted overlaps."""
    a, b = system.pair(pair_index)
    j = system.couplings_hz[a, b]
    sub = SpinSystem(
        offsets_hz=system.offsets_hz[[a, b]] - lock.transmitter_offset_hz,
        couplings_hz=np.array([[0.0, j], [j, 0.0]]),
        pairs=((0, 1),),
    )
    energies, vectors = np.linalg.eigh(spinlock_hamiltonian(sub, lock.nutation_hz))
    overlaps = [
        (abs(getattr(PAIR_BASIS, name).conj() @ vectors[:, col]) ** 2, name, col)
        for name in ("s0", "phi_plus", "phi_0", "phi_minus")
        for col in range(4)
    ]
    levels, taken = {}, set()
    for _, name, col in sorted(overlaps, reverse=True):
        if name not in levels and col not in taken:
            levels[name] = float(energies[col])
            taken.add(col)
    return levels


def oracle_resonance_nutation(system, channel, pair_1=0, pair_2=1):
    """Bisection of the oracle levels' channel detuning over 30-5000 Hz to a bracket under 1e-9 Hz."""
    tx = pair_center_offset(system, pair_1)

    def detuning(nu):
        lock = SpinLockParams(nu, 0.0, tx)
        lv1 = oracle_pair_block_levels(system, pair_1, lock)
        lv2 = oracle_pair_block_levels(system, pair_2, lock)
        return (lv1[channel] - lv1["s0"]) - (lv2[channel] - lv2["s0"])

    lo, hi = 30.0, 5000.0
    f_lo = detuning(lo)
    assert f_lo * detuning(hi) <= 0
    while hi - lo >= 1e-9:
        mid = 0.5 * (lo + hi)
        f_mid = detuning(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)

"""Experimental protocols: preparation sequences and transfer experiment runners.

Runners produce singlet-population traces against a swept variable.  The
default initial state for a transfer experiment is an ideally prepared
singlet on the source pair with every other pair in the maximally mixed
triplet; the simulated preparation sequences (lock-crossing, three-pulse)
can replace the ideal preparation, in which case the achieved singlet
population scales the prepared order.  A free delay is a lock at zero
nutation, so every segment is a hard pulse or a lock.

Every population is read through `swept_expectations`: every pair's
singlet population (with no projector built) and the configured readout,
with no propagator per sweep point.  Rabi and Ramsey sweep one lock, read
vectorised over tau in its eigenbasis; double-Rabi sweeps its two locks
together, read in their two eigenbases.  A preparation is a one-point
sweep of its last segment, and pumping a two-point sweep (0 and the pump
time) of its transfer lock.
The `signal_proxy` readout is one observable, the transverse magnetization
back-propagated once per run through the readout sequence with
`sequence_propagator`; its 0/pi phase cycle is a coherence-parity filter on
that observable, with no second, phase-shifted readout run.

Each run is simulated in the rotating frame of its transfer lock
(`_in_frame`): every segment's RF phase is taken relative to that lock's, so
the ideal state is built at phase 0 and is real, and the transfer lock's
eigenvectors are real.  Pair singlet projectors and the thermal state
commute with Fz, so populations read the same as in the lab frame; the
transfer phase enters only the signal observable O, as Z^dagger O Z with
Z = exp(-i phase Fz).  A preparation runs in the frame of its own lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import FitInputError, fit_rabi
from .hamiltonian import (
    SpinLockParams,
    effective_channels,
    effective_nutation_difference,
    intrapair_coupling,
    pair_center_offset,
    resonant_nutation,
    rf_generator,
    spinlock_hamiltonian,
)
from .propagator import (
    HardPulse,
    RelaxationEnvelope,
    Segment,
    SpinLock,
    _mul,
    apply_relaxation_envelope,
    sequence_propagator,
    swept_expectations,
)
from .spincore import (
    PAIR_BASIS,
    PHI_COMPOSITIONS,
    SpinSystem,
    TripletAmplitudes,
    _fz,
    maximally_mixed_triplet,
    pair_product_density,
    thermal_state,
)
from .trace import Trace

PROTOCOL_KINDS = ("rabi", "ramsey", "double_rabi", "pumping", "resonance_scan")
TRIPLET_INITS = ("uniform", *PHI_COMPOSITIONS)


def _check_durations(spec, names: tuple[str, ...]) -> None:
    """Raise naming the first of the given duration fields that is set and not finite and >= 0."""
    for name in names:
        value = getattr(spec, name)
        if value is not None and not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class PrepSpec:
    """Singlet preparation: ideal projection, lock-crossing, or three-pulse.

    polarization sets the pseudo-thermal starting order for the simulated
    preparations.
    """

    kind: str = "ideal"
    nutation_hz: float | None = None
    duration_s: float | None = None
    tau1_s: float | None = None
    tau2_s: float | None = None
    tau3_s: float | None = None
    phase: float = 0.0
    polarization: float = 1.0

    def __post_init__(self):
        if self.kind not in ("ideal", "slic", "three_pulse"):
            raise ValueError(f"unknown prep kind {self.kind!r}")
        if self.kind == "slic" and (self.nutation_hz is None or self.duration_s is None):
            raise ValueError("slic prep needs nutation_hz and duration_s")
        if self.kind == "three_pulse" and None in (self.tau1_s, self.tau2_s, self.tau3_s):
            raise ValueError("three_pulse prep needs tau1_s, tau2_s, tau3_s")
        if not -1.0 <= self.polarization <= 1.0:
            raise ValueError(f"polarization must lie in [-1, 1], got {self.polarization}")
        _check_durations(self, ("duration_s", "tau1_s", "tau2_s", "tau3_s"))


@dataclass(frozen=True)
class Protocol:
    """A transfer experiment: preparation, transfer lock, readout, sweep."""

    kind: str
    sweep: np.ndarray
    transfer: SpinLockParams
    source_pair: int = 0
    readout_pair: int = 1
    prep: PrepSpec = field(default_factory=PrepSpec)
    triplet_init: str | TripletAmplitudes = "uniform"
    readout: str = "projector"
    phase_cycle: bool = False
    # ramsey
    pi_half_duration_s: float | None = None
    free_lock: SpinLockParams | None = None
    # double rabi
    double_rabi_phases: tuple[float, float] = (np.pi / 2, -np.pi / 2)
    # pumping
    pump_transfer_duration_s: float | None = None
    pump_reset_delay_s: float | None = None
    # resonance scan
    scan_tau_grid_s: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        sweep = np.asarray(self.sweep, dtype=float)
        object.__setattr__(self, "sweep", sweep)
        if sweep.size == 0 or not np.all(np.isfinite(sweep)) or np.any(np.diff(sweep) <= 0):
            raise ValueError("sweep grid must be nonempty, finite and strictly increasing")
        if sweep[0] < 0:  # durations, nutations and cycle counts alike
            raise ValueError(f"sweep values must be >= 0, got {sweep[0]}")
        init = self.triplet_init
        if not isinstance(init, TripletAmplitudes) and init not in TRIPLET_INITS:
            raise ValueError(
                f"triplet_init must be one of {TRIPLET_INITS} or TripletAmplitudes, got {init!r}"
            )
        if self.readout not in ("projector", "signal_proxy"):
            raise ValueError(f"unknown readout {self.readout!r}")
        if self.kind in ("pumping", "resonance_scan") and self.readout != "projector":
            raise ValueError(f"readout must be 'projector' for a {self.kind} protocol, got {self.readout!r}")
        if self.kind == "ramsey" and (self.pi_half_duration_s is None or self.free_lock is None):
            raise ValueError("ramsey protocol needs pi_half_duration_s and free_lock")
        if self.kind == "pumping" and (
            self.pump_transfer_duration_s is None or self.pump_reset_delay_s is None
        ):
            raise ValueError("pumping protocol needs pump_transfer_duration_s and pump_reset_delay_s")
        _check_durations(self, ("pi_half_duration_s", "pump_transfer_duration_s", "pump_reset_delay_s"))
        if self.kind == "resonance_scan" and self.scan_tau_grid_s is None:
            raise ValueError("resonance_scan protocol needs scan_tau_grid_s")
        if self.scan_tau_grid_s is not None:
            grid = np.asarray(self.scan_tau_grid_s, float)
            if not np.all(np.isfinite(grid)) or np.any(grid < 0):
                raise ValueError("scan_tau_grid_s must be finite and >= 0")
            object.__setattr__(self, "scan_tau_grid_s", grid)


def slic_sequence(
    system: SpinSystem,
    pair_index: int,
    nutation_hz: float,
    duration_s: float,
    phase: float = 0.0,
) -> list[Segment]:
    """Lock-induced level-crossing transfer: 90 degree pulse then resonant lock.

    With nutation near the pair's intrapair coupling and duration near
    1 / (sqrt(2) * delta_nu_pair), triplet polarization crosses into the
    singlet.  The pulse phase puts the initial magnetization along the
    lock axis direction whose dressed level crosses the singlet.  The
    transmitter sits at the pair's centre.
    """
    lock = SpinLockParams(nutation_hz, phase, pair_center_offset(system, pair_index))
    return [HardPulse(np.pi / 2, phase - np.pi / 2), SpinLock(lock, duration_s)]


def three_pulse_sequence(
    tau1_s: float,
    tau2_s: float,
    tau3_s: float,
    transmitter_offset_hz: float = 0.0,
) -> list[Segment]:
    """90x - tau1 - 180y - tau2 - 90y - tau3 singlet preparation.

    Creates singlet order on a strongly coupled inequivalent pair when the
    delays suit its (J, delta_nu); each delay is a lock at zero nutation.
    """
    free = SpinLockParams(0.0, 0.0, transmitter_offset_hz)
    return [
        HardPulse(np.pi / 2, 0.0),
        SpinLock(free, tau1_s),
        HardPulse(np.pi, np.pi / 2),
        SpinLock(free, tau2_s),
        HardPulse(np.pi / 2, np.pi / 2),
        SpinLock(free, tau3_s),
    ]


def prep_sequence(system: SpinSystem, pair_index: int, prep: PrepSpec) -> list[Segment]:
    if prep.kind == "slic":
        return slic_sequence(system, pair_index, prep.nutation_hz, prep.duration_s, prep.phase)
    if prep.kind == "three_pulse":
        tx = pair_center_offset(system, pair_index)
        return three_pulse_sequence(prep.tau1_s, prep.tau2_s, prep.tau3_s, tx)
    raise ValueError("ideal preparation has no pulse sequence")


def _triplet_block(init: str | TripletAmplitudes) -> np.ndarray:
    """4x4 pair density for the non-singlet pair at the start of a transfer.

    Pure compositions are expressed in the dressed basis of a lock along +x,
    the transfer lock in its own frame.
    """
    if init == "uniform":
        return maximally_mixed_triplet()
    amplitudes = PHI_COMPOSITIONS[init] if isinstance(init, str) else init
    ket = PAIR_BASIS.phi_for(amplitudes)
    return np.outer(ket, ket.conj())


def ideal_transfer_state(
    system: SpinSystem,
    source_pair: int,
    triplet_init: str | TripletAmplitudes = "uniform",
) -> np.ndarray:
    """Singlet on the source pair, the configured triplet on every other pair.

    The state in the transfer lock's frame; it is real.
    """
    singlet = np.outer(PAIR_BASIS.s0, PAIR_BASIS.s0.conj())
    triplet = _triplet_block(triplet_init)
    blocks = [singlet if p == source_pair else triplet for p in range(len(system.pairs))]
    return pair_product_density(system, blocks)


def prepared_singlet_population(
    system: SpinSystem, pair_index: int, prep: PrepSpec
) -> float:
    """Source-pair singlet population achieved by simulating the preparation.

    Simulated in the frame of the preparation's lock; the last segment is
    read as a one-point sweep of its own duration.
    """
    thermal = thermal_state(system, prep.polarization)
    *before, last = _in_frame(prep_sequence(system, pair_index, prep), prep.phase)
    values = swept_expectations(system, thermal, before, [last], [last.duration_s], [], [])
    return float(values[pair_index, 0])


def transfer_initial_state(system: SpinSystem, protocol: Protocol) -> np.ndarray:
    """Initial density for a transfer run, in the transfer lock's frame.

    Ideal preparation yields the pure singlet (x) mixed-triplet product.
    A simulated preparation is folded in by mixing the ideal order with the
    fully mixed state so that the source-pair singlet population matches
    the population the preparation sequence actually achieves.
    """
    system.pair(protocol.source_pair)
    system.pair(protocol.readout_pair)
    ideal = ideal_transfer_state(system, protocol.source_pair, protocol.triplet_init)
    if protocol.prep.kind == "ideal":
        return ideal
    achieved = prepared_singlet_population(system, protocol.source_pair, protocol.prep)
    # fully mixed state carries singlet population 1/4 on any pair
    weight = float(np.clip((achieved - 0.25) / 0.75, 0.0, 1.0))
    return ideal * weight + np.eye(system.dim) / system.dim * (1.0 - weight)


def _signal_observable(system: SpinSystem, protocol: Protocol, frame: float) -> np.ndarray:
    """Total transverse magnetization back-propagated through the readout sequence.

    tr(U rho U^dagger Mx) = tr(rho U^dagger Mx U) = tr(rho O).  A phase cycle
    halves the difference from the run with every pulse and lock phase shifted
    by pi.  That run's propagator is Z U Z^dagger with Z = exp(-i pi Fz) (a free
    delay commutes with Fz), and Z^dagger Mx Z = -Mx, so the cycled observable
    is (O + Z O Z^dagger) / 2: O with every entry zeroed whose two basis
    states' Fz differ by an odd number, a coherence-parity filter.  O is
    returned in the frame of a lock at RF phase `frame`, as Z^dagger O Z with
    Z = exp(-i frame Fz): entry k, l scaled by exp(i frame (m_k - m_l)), m = Fz.
    """
    u = sequence_propagator(system, _readout_sequence(system, protocol))
    observable = _mul(u.conj().T, _mul(rf_generator(system, 0.0), u))
    fz = _fz(system)
    if protocol.phase_cycle:
        observable[(fz[:, None] - fz) % 2 == 1] = 0.0
    return np.exp(1j * frame * (fz[:, None] - fz)) * observable


def _readout_sequence(system: SpinSystem, protocol: Protocol) -> list[Segment]:
    """Sequence converting the readout pair's singlet to transverse order.

    The inverse of the preparation with its leading excitation pulse
    dropped, so the recovered order ends in the transverse plane where the
    acquisition would see it.
    """
    if protocol.prep.kind != "ideal":
        return _inverted_sequence(prep_sequence(system, protocol.readout_pair, protocol.prep))[:-1]
    # ideal prep: fall back to a lock-crossing readout at the pair's coupling
    pair = protocol.readout_pair
    lock = SpinLockParams(intrapair_coupling(system, pair), 0.0, pair_center_offset(system, pair))
    return [SpinLock(lock, 0.15)]


def _inverted_sequence(segments: list[Segment]) -> list[Segment]:
    inverted: list[Segment] = []
    for seg in reversed(segments):
        if isinstance(seg, HardPulse):
            inverted.append(HardPulse(-seg.flip_angle, seg.phase))
        else:
            inverted.append(seg)
    return inverted


def _base_metadata(system: SpinSystem, protocol: Protocol, sweep_unit: str) -> dict:
    return {
        "protocol": protocol.kind,
        "sweep_unit": sweep_unit,
        "source_pair": protocol.source_pair,
        "readout_pair": protocol.readout_pair,
        "transfer_nutation_hz": protocol.transfer.nutation_hz,
        "transfer_phase_rad": protocol.transfer.phase,
        "transmitter_offset_hz": protocol.transfer.transmitter_offset_hz,
        "triplet_init": protocol.triplet_init
        if isinstance(protocol.triplet_init, str)
        else [protocol.triplet_init.alpha, protocol.triplet_init.beta, protocol.triplet_init.gamma],
        "n_pairs": len(system.pairs),
    }


def _in_frame(segments: list[Segment], phase: float) -> list[Segment]:
    """The segments in the rotating frame of a lock at RF phase `phase`.

    Every pulse and lock phase is taken relative to `phase`, which turns each
    propagator U into Z^dagger U Z with Z = exp(-i phase Fz); a free delay, a
    lock at zero nutation, carries no RF phase and commutes with Fz.  Pair
    singlet populations read the same in either frame.
    """
    shifted: list[Segment] = []
    for seg in segments:
        if isinstance(seg, HardPulse):
            shifted.append(HardPulse(seg.flip_angle, seg.phase - phase))
        else:
            shifted.append(SpinLock(replace(seg.params, phase=seg.params.phase - phase), seg.duration_s))
    return shifted


def _sweep_trace(system: SpinSystem, protocol: Protocol, frame: float, rho0: np.ndarray,
                 before: list[Segment], swept: list[SpinLock], after: list[Segment],
                 envelope: RelaxationEnvelope | None, **metadata) -> Trace:
    """Trace of rho0 through before, the swept locks (each lasting every tau) and after.

    The run is simulated in the frame of a lock at RF phase `frame`, in which
    rho0 is given: `_in_frame` takes every segment's phase relative to it,
    and the signal observable is moved into that frame.
    """
    n_pairs = len(system.pairs)
    signal = [_signal_observable(system, protocol, frame)] if protocol.readout == "signal_proxy" else []
    before, swept, after = (_in_frame(segments, frame) for segments in (before, swept, after))
    values = swept_expectations(system, rho0, before, swept, protocol.sweep, after, signal)
    readout = n_pairs if protocol.readout == "signal_proxy" else protocol.readout_pair
    metadata = {**_base_metadata(system, protocol, "s"), **metadata}
    trace = Trace(protocol.sweep, values[readout].copy(), values[:n_pairs], metadata)
    if envelope is not None:
        trace = apply_relaxation_envelope(trace, envelope)
    return trace


def run_rabi(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """Sweep the CW transfer-lock duration and read singlet populations."""
    if protocol.kind != "rabi":
        raise ValueError(f"run_rabi needs a rabi protocol, got {protocol.kind!r}")
    rho0 = transfer_initial_state(system, protocol)
    lock = SpinLock(protocol.transfer, 0.0)
    return _sweep_trace(system, protocol, protocol.transfer.phase, rho0, [], [lock], [], envelope)


def run_double_rabi(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """Apply the lock twice (phases +y then -y by default), each for tau_SL."""
    if protocol.kind != "double_rabi":
        raise ValueError(f"run_double_rabi needs a double_rabi protocol, got {protocol.kind!r}")
    lock_a, lock_b = (replace(protocol.transfer, phase=p) for p in protocol.double_rabi_phases)
    rho0 = transfer_initial_state(system, protocol)
    swept = [SpinLock(lock_a, 0.0), SpinLock(lock_b, 0.0)]
    return _sweep_trace(system, protocol, lock_a.phase, rho0, [], swept, [], envelope,
                        double_rabi_phases_rad=[lock_a.phase, lock_b.phase])


def run_ramsey(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """pi/2 transfer, weak-lock free precession for tau_Ramsey, second pi/2, readout."""
    if protocol.kind != "ramsey":
        raise ValueError(f"run_ramsey needs a ramsey protocol, got {protocol.kind!r}")
    rho0 = transfer_initial_state(system, protocol)
    half = SpinLock(protocol.transfer, protocol.pi_half_duration_s)
    free = SpinLock(protocol.free_lock, 0.0)
    return _sweep_trace(system, protocol, protocol.transfer.phase, rho0, [half], [free], [half], envelope,
                        free_nutation_hz=protocol.free_lock.nutation_hz,
                        pi_half_duration_s=protocol.pi_half_duration_s)


def run_resonance_scan(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """Sweep the lock nutation frequency; fit each duration sweep for its amplitude.

    The observable is the fitted transfer amplitude at each nutation value;
    fitted frequencies and the effective nutation differences accompany the
    trace in its metadata.  Per-point fit failures are recorded as NaN.  The
    initial state does not depend on the nutation, so it is prepared once.
    delta_nu12 is the splitting of the source and readout pair centres, or of
    the source and the lowest-index other pair when they are the same pair.
    """
    if protocol.kind != "resonance_scan":
        raise ValueError(
            f"run_resonance_scan needs a resonance_scan protocol, got {protocol.kind!r}"
        )
    source, other = protocol.source_pair, protocol.readout_pair
    mode = "cos2" if other == source else "sin2"
    if other == source:
        other = 1 if source == 0 else 0
    delta_nu12 = abs(pair_center_offset(system, other) - pair_center_offset(system, source))
    amplitudes = np.full(protocol.sweep.size, np.nan)
    frequencies = np.full(protocol.sweep.size, np.nan)
    delta_nu_n = np.zeros(protocol.sweep.size)
    rho0 = transfer_initial_state(system, protocol)
    for k, nutation in enumerate(protocol.sweep):
        lock = replace(protocol.transfer, nutation_hz=float(nutation))
        point = Protocol(
            kind="rabi",
            sweep=protocol.scan_tau_grid_s,
            transfer=lock,
            source_pair=protocol.source_pair,
            readout_pair=protocol.readout_pair,
            prep=protocol.prep,
            triplet_init=protocol.triplet_init,
        )
        trace = _sweep_trace(system, point, lock.phase, rho0, [], [SpinLock(lock, 0.0)], [], envelope)
        delta_nu_n[k] = effective_nutation_difference(float(nutation), delta_nu12)
        try:
            fit = fit_rabi(trace, mode=mode, with_decay=envelope is not None)
            amplitudes[k] = abs(fit.params["amplitude"])
            frequencies[k] = fit.params["frequency_hz"]
        except (FitInputError, np.linalg.LinAlgError):
            continue
    metadata = _base_metadata(system, protocol, "Hz")
    metadata["delta_nu_n_hz"] = delta_nu_n.tolist()
    metadata["fitted_frequency_hz"] = frequencies.tolist()
    metadata["delta_nu12_hz"] = delta_nu12
    return Trace(protocol.sweep, amplitudes, None, metadata)


def run_pumping(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """Repeated prepare-transfer cycles accumulating singlet order on the readout pair.

    Each cycle contributes the singlet gain of one simulated
    prepare-and-lock block; order stored in earlier cycles decays with the
    readout pair's singlet lifetime over each later cycle.  Cycles are
    treated as independent (no interference with already stored order).
    """
    if protocol.kind != "pumping":
        raise ValueError(f"run_pumping needs a pumping protocol, got {protocol.kind!r}")
    counts = protocol.sweep
    if np.any(counts < 1) or np.any(counts != np.round(counts)):
        raise ValueError("pumping sweep must contain positive integer cycle counts")
    rho0 = transfer_initial_state(system, protocol)
    lock = SpinLock(protocol.transfer, protocol.pump_transfer_duration_s)
    before, after = swept_expectations(
        system, rho0, [], _in_frame([lock], protocol.transfer.phase), [0.0, lock.duration_s], [], []
    )[protocol.readout_pair]
    gain = float(after - before)

    cycle_time = protocol.pump_transfer_duration_s + protocol.pump_reset_delay_s
    decay = 1.0
    if envelope is not None and envelope.t_s_s is not None:
        decay = float(np.exp(-cycle_time / envelope.t_s_s))
    values = np.array(
        [gain * sum(decay**j for j in range(int(n))) for n in counts], dtype=float
    )
    metadata = _base_metadata(system, protocol, "cycles")
    metadata["per_cycle_gain"] = gain
    metadata["cycle_time_s"] = cycle_time
    metadata["cycle_decay"] = decay
    return Trace(counts, values, None, metadata)


def run_protocol(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    runner = {
        "rabi": run_rabi,
        "ramsey": run_ramsey,
        "double_rabi": run_double_rabi,
        "pumping": run_pumping,
        "resonance_scan": run_resonance_scan,
    }[protocol.kind]
    return runner(system, protocol, envelope)


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


def transfer_resonance_nutation(
    system: SpinSystem, source_pair: int = 0, other_pair: int = 1
) -> float:
    """Lock nutation putting the like-composition channel on resonance.

    Solves the dressed-splitting matching of the singlet-energy difference
    |J_intra,1 - J_intra,2| for a transmitter at the source-pair center.
    Exact for pairs of equivalent members; pair splittings shift the true
    resonance slightly (see exact_resonance_nutation).
    """
    delta_e = abs(
        intrapair_coupling(system, source_pair) - intrapair_coupling(system, other_pair)
    )
    delta_nu12 = abs(
        pair_center_offset(system, other_pair) - pair_center_offset(system, source_pair)
    )
    return resonant_nutation(delta_nu12, delta_e)


def _pair_block_levels(
    system: SpinSystem, pair_index: int, lock: SpinLockParams
) -> dict[str, float]:
    """Exact dressed energies of one pair's singlet and triplet states under the lock.

    Diagonalizes the pair's local two-spin block and labels each eigenstate
    by its dominant overlap with the lock-axis dressed basis.
    """
    # at lock phase 0: H(phi) = Z H(0) Z^dagger, Z = exp(-i phi Fz), has the
    # same levels, and the overlaps |<Z ref|Z v>| do not change with phi
    a, b = system.pair(pair_index)
    j = system.couplings_hz[a, b]
    sub = SpinSystem(
        offsets_hz=system.offsets_hz[[a, b]] - lock.transmitter_offset_hz,
        couplings_hz=np.array([[0.0, j], [j, 0.0]]),
        pairs=((0, 1),),
    )
    h = spinlock_hamiltonian(sub, SpinLockParams(lock.nutation_hz, 0.0, 0.0))
    energies, vectors = np.linalg.eigh(h)
    levels: dict[str, float] = {}
    taken: set[int] = set()
    # assign labels greedily by decreasing overlap
    overlaps = []
    for name in ("s0", "phi_plus", "phi_0", "phi_minus"):
        ket = getattr(PAIR_BASIS, name)
        for col in range(4):
            overlaps.append((abs(ket.conj() @ vectors[:, col]) ** 2, name, col))
    for _, name, col in sorted(overlaps, reverse=True):
        if name in levels or col in taken:
            continue
        levels[name] = float(energies[col])
        taken.add(col)
    return levels


def exact_channel_detuning(
    system: SpinSystem,
    lock: SpinLockParams,
    channel: str,
    pair_1: int = 0,
    pair_2: int = 1,
) -> float:
    """Exact |T(m) S0> vs |S0 T(m)> energy difference from local pair blocks (Hz)."""
    lv1 = _pair_block_levels(system, pair_1, lock)
    lv2 = _pair_block_levels(system, pair_2, lock)
    return (lv1[channel] - lv1["s0"]) - (lv2[channel] - lv2["s0"])


def exact_resonance_nutation(
    system: SpinSystem,
    channel: str,
    pair_1: int = 0,
    pair_2: int = 1,
) -> float:
    """Lock nutation that zeroes the exact detuning of one transfer channel.

    Bisection on the local-block detuning of a phase-0 lock with its
    transmitter at pair_1's centre, over 30-5000 Hz; raises if that bracket
    does not straddle a sign change.
    """
    transmitter_offset_hz = pair_center_offset(system, pair_1)

    def detuning(nu: float) -> float:
        lock = SpinLockParams(nu, 0.0, transmitter_offset_hz)
        return exact_channel_detuning(system, lock, channel, pair_1, pair_2)

    lo, hi = 30.0, 5000.0
    f_lo, f_hi = detuning(lo), detuning(hi)
    if f_lo * f_hi > 0:
        raise ValueError("resonance bracket does not straddle a detuning sign change")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = detuning(mid)
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-9:
            break
    return 0.5 * (lo + hi)

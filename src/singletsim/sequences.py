"""Experimental protocols: preparation sequences and transfer experiment runners.

Runners produce singlet-population traces against a swept variable.  The
default initial state for a transfer experiment is an ideally prepared
singlet on the source pair with every other pair in the maximally mixed
triplet; the simulated preparation sequences (lock-crossing, three-pulse)
can replace the ideal preparation, in which case the achieved singlet
population scales the prepared order.  A free delay is a lock at zero
nutation, so every segment is a hard pulse or a lock.

Every transfer run's populations are read through `swept_expectations`:
every pair's singlet population (with no projector built) and the configured
readout, with no propagator per sweep point.  The initial state is handed to
it in the engine's one state form, factored as c * 1 + K diag(w) K^dagger
with K a 2-d array of kets, with no dense density: the ideal state's kets
are products of pair kets (3^(p-1) for a uniform triplet over p pairs, one
for a pure one), and a simulated preparation adds c.  Rabi and Ramsey sweep
one lock, double-Rabi its two locks together; a short sweep's kets are
carried through the eigenbases and a long one-lock sweep is read vectorised
over tau (`swept_expectations` picks the read).  Pumping is a two-point
sweep (0 and the pump time) of its transfer lock.  A preparation starts from
the diagonal pseudo-thermal state, given by its basis-state weights, and
needs only the source pair's singlet population after it:
`propagator.diagonal_singlet_population` reads that in the Heisenberg
picture, off the pair's d / 4 singlet rows.  The `signal_proxy` readout is
the transverse magnetization Mx after the readout sequence, which
`swept_expectations` reads off the kets carried through it; its 0/pi phase
cycle sums over each ket's two Fz-parity halves, with no second,
phase-shifted readout run.  Each runner applies its own decay envelope to
the values it reads: T_Rabi on Rabi-type runs, T_2S* about each row's mean
then T_S on Ramsey runs, T_S over each pumping cycle.

RF phase enters only in `propagator`: `swept_expectations` simulates each
run in the frame of its first lock (the transfer lock; Ramsey's first pi/2
lock; double-Rabi's lock a; a lock-crossing preparation's own lock), so the
ideal state is built at phase 0, against that frame, and is real; Mx is
read in the lab frame.  Pair singlet projectors and the thermal state
commute with Fz, so populations read the same in either frame.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .analysis import FitInputError, fit_rabi
from .hamiltonian import (
    SpinLockParams,
    effective_nutation_difference,
    intrapair_coupling,
    pair_center_offset,
    resonant_nutation,
)
from .propagator import (
    HardPulse,
    RelaxationEnvelope,
    Segment,
    SpinLock,
    diagonal_singlet_population,
    swept_expectations,
)
from .spincore import (
    PAIR_BASIS,
    PHI_COMPOSITIONS,
    SpinSystem,
    TripletAmplitudes,
    _basis_split,
    thermal_state,
)
from .trace import Trace

TRIPLET_INITS = ("uniform", *PHI_COMPOSITIONS)

# the fields each protocol and prep kind reads (see `_check_fields`), and the envelope times each runner applies
_EVERY_KIND = ("sweep", "transfer", "source_pair", "readout_pair", "prep", "triplet_init")
PROTOCOL_FIELDS = {
    "rabi": (*_EVERY_KIND, "readout", "phase_cycle"),
    "ramsey": (*_EVERY_KIND, "readout", "phase_cycle", "pi_half_duration_s", "free_lock"),
    "double_rabi": (*_EVERY_KIND, "readout", "phase_cycle", "double_rabi_phases"),
    "pumping": (*_EVERY_KIND, "pump_transfer_duration_s", "pump_reset_delay_s"),
    "resonance_scan": (*_EVERY_KIND, "scan_tau_grid_s"),
}
PREP_FIELDS = {"ideal": (), "slic": ("nutation_hz", "duration_s", "phase", "polarization"),
               "three_pulse": ("tau1_s", "tau2_s", "tau3_s", "polarization")}
ENVELOPE_FIELDS = {"rabi": ("t_rabi_s",), "ramsey": ("t_s_s", "t_2s_star_s"), "double_rabi": ("t_rabi_s",),
                   "pumping": ("t_s_s",), "resonance_scan": ("t_rabi_s",)}


def _check_fields(spec, rows: dict[str, tuple[str, ...]], what: str) -> None:
    """Raise unless `spec` has a kind of `rows`, sets each field it reads and leaves every other at its default."""
    if spec.kind not in rows:
        raise ValueError(f"unknown {what} kind {spec.kind!r}")
    for f in fields(spec)[1:]:  # after kind
        value = getattr(spec, f.name)
        if f.name in rows[spec.kind]:
            if value is None:
                raise ValueError(f"{spec.kind} {what} needs {f.name}")
        elif value is not f.default and (f.default is None or not np.array_equal(value, f.default)):
            raise ValueError(f"{spec.kind} {what} does not read {f.name}")


def _check_durations(spec, names: tuple[str, ...]) -> None:
    """Raise naming the first of the given duration fields that is set and not finite and >= 0."""
    for name in names:
        value = getattr(spec, name)
        if value is not None and not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class PrepSpec:
    """Singlet preparation: ideal projection, lock-crossing (slic), or three-pulse.

    Each kind reads its `PREP_FIELDS` row: an ideal prep none, a slic prep its lock, a three-pulse prep
    its delays, and either simulated one the polarization of its pseudo-thermal starting order.
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
        _check_fields(self, PREP_FIELDS, "prep")
        if not -1.0 <= self.polarization <= 1.0:
            raise ValueError(f"polarization must lie in [-1, 1], got {self.polarization}")
        _check_durations(self, ("duration_s", "tau1_s", "tau2_s", "tau3_s"))


@dataclass(frozen=True)
class Protocol:
    """A transfer experiment: preparation, transfer lock, readout, sweep.

    Each kind reads the fields of its `PROTOCOL_FIELDS` row.  A field the kind reads that is None, or one
    it does not read that differs from its default, is a ValueError naming the field and the kind.  A
    pumping sweep holds positive integer cycle counts.
    """

    kind: str
    sweep: np.ndarray = None
    transfer: SpinLockParams = None
    source_pair: int = 0
    readout_pair: int = 1
    prep: PrepSpec = field(default_factory=PrepSpec)
    triplet_init: str | TripletAmplitudes = "uniform"
    readout: str = "projector"
    phase_cycle: bool = False
    pi_half_duration_s: float | None = None
    free_lock: SpinLockParams | None = None
    double_rabi_phases: tuple[float, float] = (np.pi / 2, -np.pi / 2)
    pump_transfer_duration_s: float | None = None
    pump_reset_delay_s: float | None = None
    scan_tau_grid_s: np.ndarray | None = None

    def __post_init__(self):
        _check_fields(self, PROTOCOL_FIELDS, "protocol")
        sweep = np.asarray(self.sweep, dtype=float)
        object.__setattr__(self, "sweep", sweep)
        if sweep.size == 0 or not np.all(np.isfinite(sweep)) or np.any(np.diff(sweep) <= 0):
            raise ValueError("sweep grid must be nonempty, finite and strictly increasing")
        if sweep[0] < 0:  # durations, nutations and cycle counts alike
            raise ValueError(f"sweep values must be >= 0, got {sweep[0]}")
        init = self.triplet_init
        if not isinstance(init, TripletAmplitudes) and init not in TRIPLET_INITS:
            raise ValueError(f"triplet_init must be one of {TRIPLET_INITS} or TripletAmplitudes, got {init!r}")
        if self.readout not in ("projector", "signal_proxy"):
            raise ValueError(f"unknown readout {self.readout!r}")
        if self.phase_cycle and self.readout != "signal_proxy":
            raise ValueError(f"phase_cycle applies to the signal_proxy readout only, got readout {self.readout!r}")
        _check_durations(self, ("pi_half_duration_s", "pump_transfer_duration_s", "pump_reset_delay_s"))
        if self.kind == "pumping" and (np.any(sweep < 1) or np.any(sweep != np.round(sweep))):
            raise ValueError("pumping sweep must contain positive integer cycle counts")
        if self.scan_tau_grid_s is not None:
            grid = np.asarray(self.scan_tau_grid_s, float)
            if not np.all(np.isfinite(grid)) or np.any(grid < 0):
                raise ValueError("scan_tau_grid_s must be finite and >= 0")
            if grid.size == 0 or np.any(np.diff(grid) <= 0):
                raise ValueError("scan_tau_grid_s must be nonempty and strictly increasing")
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


def ideal_transfer_state(
    system: SpinSystem,
    source_pair: int,
    triplet_init: str | TripletAmplitudes = "uniform",
) -> tuple[float, np.ndarray, np.ndarray]:
    """Singlet on the source pair, the configured triplet on every other pair, factored as (0, K, w).

    Each ket is a product of pair kets, written by bit index: s0 on the
    source pair and, on each other pair, phi+, phi0 and phi- at weight 1/3
    for the uniform triplet, or a pure composition's ket, in the dressed
    basis of a lock along +x, the transfer lock in its own frame.  It is real.
    """
    if {i for p in system.pairs for i in p} != set(range(system.n_spins)):
        raise ValueError("pair assignments do not cover all spins")
    if triplet_init == "uniform":
        triplet = np.array([PAIR_BASIS.phi_plus, PAIR_BASIS.phi_0, PAIR_BASIS.phi_minus]), np.full(3, 1 / 3)
    else:
        amplitudes = PHI_COMPOSITIONS[triplet_init] if isinstance(triplet_init, str) else triplet_init
        triplet = PAIR_BASIS.phi_for(amplitudes)[None], np.ones(1)
    kets, weights = np.ones((system.dim, 1)), np.ones(1)
    for p, pair in enumerate(system.pairs):
        pair_kets, pair_weights = (PAIR_BASIS.s0[None], np.ones(1)) if p == source_pair else triplet
        pattern, _ = _basis_split(system.n_spins, pair)
        kets = (kets[:, :, None] * pair_kets.T[pattern][:, None, :]).reshape(system.dim, -1)
        weights = np.outer(weights, pair_weights).ravel()
    return 0.0, kets, weights


def prepared_singlet_population(
    system: SpinSystem, pair_index: int, prep: PrepSpec
) -> float:
    """Source-pair singlet population achieved by simulating the preparation.

    The pseudo-thermal state is diagonal, given by its weights on the basis
    states, and `diagonal_singlet_population` reads the pair's population
    after the sequence in the Heisenberg picture, off its d / 4 singlet rows.
    """
    weights = thermal_state(system, prep.polarization)
    return diagonal_singlet_population(system, weights, prep_sequence(system, pair_index, prep), pair_index)


def transfer_initial_state(system: SpinSystem, protocol: Protocol) -> tuple[float, np.ndarray, np.ndarray]:
    """Initial state (c, K, w) for a transfer run, in the transfer lock's frame.

    Ideal preparation yields the pure singlet (x) triplet product.  A
    simulated preparation is folded in by mixing the ideal order with the
    fully mixed state, c = (1 - weight) / d and w scaled by the weight, so
    that the source-pair singlet population matches the population the
    preparation sequence actually achieves.
    """
    system.pair(protocol.source_pair)
    system.pair(protocol.readout_pair)
    ideal = ideal_transfer_state(system, protocol.source_pair, protocol.triplet_init)
    if protocol.prep.kind == "ideal":
        return ideal
    achieved = prepared_singlet_population(system, protocol.source_pair, protocol.prep)
    # fully mixed state carries singlet population 1/4 on any pair
    weight = float(np.clip((achieved - 0.25) / 0.75, 0.0, 1.0))
    _, kets, weights = ideal
    return (1.0 - weight) / system.dim, kets, weights * weight


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


def _sweep_trace(system: SpinSystem, protocol: Protocol, state: tuple,
                 before: list[Segment], swept: list[SpinLock], after: list[Segment],
                 envelope: RelaxationEnvelope | None) -> Trace:
    """Trace of the initial state (in the first lock's frame) through before, the swept locks at each tau, and after."""
    n_pairs = len(system.pairs)
    signal = (_readout_sequence(system, protocol), protocol.phase_cycle) if protocol.readout == "signal_proxy" else None
    values = swept_expectations(system, state, before, swept, protocol.sweep, after, signal)
    if envelope is not None:
        values = envelope.apply(values, protocol.sweep, protocol.kind == "ramsey")
    readout = n_pairs if protocol.readout == "signal_proxy" else protocol.readout_pair
    metadata = {"protocol": protocol.kind, "sweep_unit": "s"}
    return Trace(protocol.sweep, values[readout].copy(), values[:n_pairs], metadata)


def run_rabi(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """Sweep the CW transfer-lock duration and read singlet populations."""
    if protocol.kind != "rabi":
        raise ValueError(f"run_rabi needs a rabi protocol, got {protocol.kind!r}")
    state = transfer_initial_state(system, protocol)
    lock = SpinLock(protocol.transfer, 0.0)
    return _sweep_trace(system, protocol, state, [], [lock], [], envelope)


def run_double_rabi(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """Apply the lock twice (phases +y then -y by default), each for tau_SL."""
    if protocol.kind != "double_rabi":
        raise ValueError(f"run_double_rabi needs a double_rabi protocol, got {protocol.kind!r}")
    lock_a, lock_b = (replace(protocol.transfer, phase=p) for p in protocol.double_rabi_phases)
    state = transfer_initial_state(system, protocol)
    swept = [SpinLock(lock_a, 0.0), SpinLock(lock_b, 0.0)]
    return _sweep_trace(system, protocol, state, [], swept, [], envelope)


def run_ramsey(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """pi/2 transfer, weak-lock free precession for tau_Ramsey, second pi/2, readout."""
    if protocol.kind != "ramsey":
        raise ValueError(f"run_ramsey needs a ramsey protocol, got {protocol.kind!r}")
    state = transfer_initial_state(system, protocol)
    half = SpinLock(protocol.transfer, protocol.pi_half_duration_s)
    free = SpinLock(protocol.free_lock, 0.0)
    return _sweep_trace(system, protocol, state, [half], [free], [half], envelope)


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
    if other == source:
        other = 1 if source == 0 else 0
    delta_nu12 = abs(pair_center_offset(system, other) - pair_center_offset(system, source))
    amplitudes = np.full(protocol.sweep.size, np.nan)
    frequencies = np.full(protocol.sweep.size, np.nan)
    delta_nu_n = np.zeros(protocol.sweep.size)
    state = transfer_initial_state(system, protocol)
    taus = protocol.scan_tau_grid_s
    for k, nutation in enumerate(protocol.sweep):
        lock = SpinLock(replace(protocol.transfer, nutation_hz=float(nutation)), 0.0)
        row = swept_expectations(system, state, [], [lock], taus, [])[protocol.readout_pair]
        if envelope is not None:
            row = envelope.apply(row, taus, ramsey=False)
        delta_nu_n[k] = effective_nutation_difference(float(nutation), delta_nu12)
        try:
            fit = fit_rabi((taus, row), with_decay=envelope is not None)
            amplitudes[k] = abs(fit.params["amplitude"])
            frequencies[k] = fit.params["frequency_hz"]
        except (FitInputError, np.linalg.LinAlgError):
            continue
    metadata = {
        "protocol": protocol.kind,
        "sweep_unit": "Hz",
        "delta_nu_n_hz": delta_nu_n.tolist(),
        "fitted_frequency_hz": frequencies.tolist(),
        "delta_nu12_hz": delta_nu12,
    }
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
    state = transfer_initial_state(system, protocol)
    lock = SpinLock(protocol.transfer, protocol.pump_transfer_duration_s)
    values = swept_expectations(system, state, [], [lock], [0.0, lock.duration_s], [])
    before, after = values[protocol.readout_pair]
    gain = float(after - before)

    cycle_time = protocol.pump_transfer_duration_s + protocol.pump_reset_delay_s
    decay = 1.0
    if envelope is not None and envelope.t_s_s is not None:
        decay = float(np.exp(-cycle_time / envelope.t_s_s))
    values = np.array(
        [gain * sum(decay**j for j in range(int(n))) for n in counts], dtype=float
    )
    metadata = {"protocol": protocol.kind, "sweep_unit": "cycles", "per_cycle_gain": gain}
    return Trace(counts, values, None, metadata)


def run_protocol(
    system: SpinSystem, protocol: Protocol, envelope: RelaxationEnvelope | None = None
) -> Trace:
    """The protocol's runner on the system; an envelope time its kind does not apply is a ValueError."""
    for name, value in asdict(envelope or RelaxationEnvelope()).items():
        if value is not None and name not in ENVELOPE_FIELDS[protocol.kind]:
            raise ValueError(f"envelope.{name} is not applied by kind {protocol.kind!r}")
    runner = {
        "rabi": run_rabi,
        "ramsey": run_ramsey,
        "double_rabi": run_double_rabi,
        "pumping": run_pumping,
        "resonance_scan": run_resonance_scan,
    }[protocol.kind]
    return runner(system, protocol, envelope)


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


_LEVEL_NAMES = ("s0", "phi_plus", "phi_0", "phi_minus")
_LEVEL_KETS = np.array([getattr(PAIR_BASIS, name) for name in _LEVEL_NAMES])


def _pair_block_levels(
    system: SpinSystem, pair_index: int, lock: SpinLockParams
) -> dict[str, float]:
    """Exact dressed energies of one pair's singlet and triplet states under the lock.

    Writes the pair's local two-spin lock block in the order (uu, ud, du, dd),
    diagonalizes it, and labels the eigenstates greedily by decreasing
    overlap |<ket|v>|^2 with the lock-axis dressed basis.
    """
    # at lock phase 0: H(phi) = Z H(0) Z^dagger, Z = exp(-i phi Fz), has the
    # same levels, and the overlaps |<Z ref|Z v>| do not change with phi
    a, b = system.pair(pair_index)
    j = system.couplings_hz[a, b]
    delta_a, delta_b = system.offsets_hz[[a, b]] - lock.transmitter_offset_hz
    total, diff = 0.5 * (delta_a + delta_b), 0.5 * (delta_a - delta_b)
    flip = 0.5 * lock.nutation_hz
    h = np.array([
        [total + 0.25 * j, flip, flip, 0.0],
        [flip, diff - 0.25 * j, 0.5 * j, flip],
        [flip, 0.5 * j, -diff - 0.25 * j, flip],
        [0.0, flip, flip, -total + 0.25 * j],
    ])
    energies, vectors = np.linalg.eigh(h)
    overlaps = (_LEVEL_KETS @ vectors) ** 2  # (label, eigenvector)
    levels: dict[str, float] = {}
    for _ in _LEVEL_NAMES:
        row, col = divmod(int(np.argmax(overlaps)), 4)
        levels[_LEVEL_NAMES[row]] = float(energies[col])
        overlaps[row, :] = overlaps[:, col] = -1.0
    return levels


def _check_transfer_channel(channel: str, pair_1: int, pair_2: int) -> None:
    if channel not in PHI_COMPOSITIONS:
        raise ValueError(f"channel must be one of {', '.join(PHI_COMPOSITIONS)}, got {channel!r}")
    if pair_1 == pair_2:
        raise ValueError(f"pair_1 and pair_2 must be different pairs, got {pair_1} for both")


def exact_channel_detuning(
    system: SpinSystem,
    lock: SpinLockParams,
    channel: str,
    pair_1: int = 0,
    pair_2: int = 1,
) -> float:
    """Exact |T(m) S0> vs |S0 T(m)> energy difference from local pair blocks (Hz)."""
    _check_transfer_channel(channel, pair_1, pair_2)
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

    Brent's method (Brent 1973, ch. 4: inverse-quadratic or secant steps,
    falling back to bisection) on the local-block detuning of a phase-0 lock
    with its transmitter at pair_1's centre, over 30-5000 Hz, to a bracket
    narrower than 1e-9 Hz; raises if that bracket does not straddle a sign
    change.
    """
    _check_transfer_channel(channel, pair_1, pair_2)
    transmitter_offset_hz = pair_center_offset(system, pair_1)

    def detuning(nu: float) -> float:
        lock = SpinLockParams(nu, 0.0, transmitter_offset_hz)
        return exact_channel_detuning(system, lock, channel, pair_1, pair_2)

    # b is the best estimate, c the other end of the bracket, a the previous b
    a, b = 30.0, 5000.0
    fa, fb = detuning(a), detuning(b)
    if fa * fb > 0:
        raise ValueError("resonance bracket does not straddle a detuning sign change")
    c, fc = a, fa
    step = last_step = b - a
    for _ in range(200):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * np.finfo(float).eps * abs(b) + 0.5e-9
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            break
        if abs(last_step) < tol or abs(fa) <= abs(fb):
            step = last_step = half
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(last_step * q)):
                last_step, step = step, p / q
            else:
                step = last_step = half
        a, fa = b, fb
        b += step if abs(step) > tol else np.copysign(tol, half)
        fb = detuning(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            step = last_step = b - a
    return float(b)

"""Molecule presets: two-pair proton systems with calibrated sequence parameters.

Shifts are given in ppm and converted to rotating-frame offsets with
offset_hz = shift_ppm * spectrometer_mhz.  Intrapair (geminal) couplings are
not published for these molecules; the preset values are chosen so that the
singlet-energy difference |J_intra,1 - J_intra,2| reproduces the measured
transfer resonance, and all couplings are taken positive (only differences
enter the transfer dynamics).  Pair splittings are back-computed from the
calibrated lock-transfer durations, duration = 1 / (sqrt(2) * delta_nu_pair).
"""

from __future__ import annotations

import numpy as np

from .spincore import SpinSystem

DEFAULT_SPECTROMETER_MHZ = 200.0


def ppm_to_hz(shift_ppm: float, spectrometer_mhz: float = DEFAULT_SPECTROMETER_MHZ) -> float:
    return shift_ppm * spectrometer_mhz


def two_pair_system(
    spectrometer_mhz: float,
    pair_centers_ppm: tuple[float, ...],
    pair_splittings_hz: tuple[float, ...],
    intrapair_hz: tuple[float, ...],
    cis_hz: float,
    trans_hz: float,
    extra_pair_couplings: dict[tuple[int, int], tuple[float, float]] | None = None,
) -> SpinSystem:
    """Build an n-pair system, spins ordered pair-major (p0a, p0b, p1a, p1b, ...).

    cis couplings connect like members (a-a, b-b) of pairs 0 and 1; trans
    couplings connect unlike members.  Couplings for any further pair
    combination come from extra_pair_couplings[(i, j)] = (cis, trans) and
    default to zero.
    """
    n_pairs = len(pair_centers_ppm)
    if not (len(pair_splittings_hz) == len(intrapair_hz) == n_pairs):
        raise ValueError("pair parameter tuples must have equal lengths")
    offsets = []
    for center_ppm, split in zip(pair_centers_ppm, pair_splittings_hz):
        center = ppm_to_hz(center_ppm, spectrometer_mhz)
        offsets.extend([center + split / 2.0, center - split / 2.0])
    n = 2 * n_pairs
    couplings = np.zeros((n, n))
    pair_couplings = {(0, 1): (cis_hz, trans_hz)}
    if extra_pair_couplings:
        pair_couplings.update(extra_pair_couplings)
    for p in range(n_pairs):
        a, b = 2 * p, 2 * p + 1
        couplings[a, b] = couplings[b, a] = intrapair_hz[p]
    for (pi, pj), (cis, trans) in pair_couplings.items():
        ai, bi = 2 * pi, 2 * pi + 1
        aj, bj = 2 * pj, 2 * pj + 1
        couplings[ai, aj] = couplings[aj, ai] = cis
        couplings[bi, bj] = couplings[bj, bi] = cis
        couplings[ai, bj] = couplings[bj, ai] = trans
        couplings[bi, aj] = couplings[aj, bi] = trans
    pairs = tuple((2 * p, 2 * p + 1) for p in range(n_pairs))
    return SpinSystem(offsets_hz=np.array(offsets), couplings_hz=couplings, pairs=pairs)


def glutamate(
    spectrometer_mhz: float = DEFAULT_SPECTROMETER_MHZ,
    pair_splittings_hz: tuple[float, float] = (4.5, 4.9),
    intrapair_hz: tuple[float, float] = (15.5, 17.75),
    cis_hz: float = 5.0,
    trans_hz: float = 2.43,
) -> SpinSystem:
    """Glutamate CH2 pairs at 2.04 and 2.30 ppm.

    Defaults give |J_intra,1 - J_intra,2| = 2.25 Hz (the measured resonance)
    and an average cis/trans difference of 2.57 Hz (transfer frequency).
    Pair splittings 4.5 / 4.9 Hz match the calibrated 157 / 145 ms
    lock-transfer durations.
    """
    return two_pair_system(
        spectrometer_mhz,
        pair_centers_ppm=(2.04, 2.30),
        pair_splittings_hz=pair_splittings_hz,
        intrapair_hz=intrapair_hz,
        cis_hz=cis_hz,
        trans_hz=trans_hz,
    )


def phe_gly_gly(
    spectrometer_mhz: float = DEFAULT_SPECTROMETER_MHZ,
    pair_splittings_hz: tuple[float, float] = (27.0, 2.357),
    intrapair_hz: tuple[float, float] = (19.8, 17.5),
    cis_hz: float = 0.020,
    trans_hz: float = 0.012,
    include_third_pair: bool = False,
) -> SpinSystem:
    """Phenylalanine-glycine-glycine glycine pairs at 3.89 (chain center) and 3.71 ppm (end).

    The interpair cis/trans difference of 8 mHz reproduces the measured
    transfer rate; pair 0 is the center pair (three-pulse preparation),
    pair 1 the end pair (lock-crossing preparation, 300 ms duration).
    include_third_pair adds an exploratory CH2 pair at 3.10 ppm coupled
    weakly to the center pair only.
    """
    centers = (3.89, 3.71)
    splittings = pair_splittings_hz
    intra = intrapair_hz
    extra = None
    if include_third_pair:
        centers = centers + (3.10,)
        splittings = splittings + (14.0,)
        intra = intra + (16.5,)
        extra = {(0, 2): (cis_hz, trans_hz)}
    return two_pair_system(
        spectrometer_mhz,
        pair_centers_ppm=centers,
        pair_splittings_hz=splittings,
        intrapair_hz=intra,
        cis_hz=cis_hz,
        trans_hz=trans_hz,
        extra_pair_couplings=extra,
    )


# calibrated sequence parameters quoted with each preset
GLUTAMATE_PARAMS = {
    "spectrometer_mhz": 200.0,
    "pair_centers_ppm": [2.04, 2.30],
    "slic": [
        {"pair": 0, "nutation_hz": 15.5, "duration_s": 0.157},
        {"pair": 1, "nutation_hz": 17.0, "duration_s": 0.145},
    ],
    "transfer": {"nutation_hz": 500.0, "transmitter_ppm": 2.04},
    "ramsey": {
        "pi_half_duration_s": 0.100,
        "free_nutation_hz": 47.0,
        "transmitter_ppm": 2.04,
    },
}

PHE_GLY_GLY_PARAMS = {
    "spectrometer_mhz": 200.0,
    "pair_centers_ppm": [3.89, 3.71],
    "three_pulse": {"pair": 0, "tau1_s": 0.007, "tau2_s": 0.0205, "tau3_s": 0.00925},
    "slic": [{"pair": 1, "nutation_hz": 17.5, "duration_s": 0.300}],
    "transfer": {"nutation_hz": 280.0, "transmitter_ppm": 3.89},
    "pumping": {"reset_delay_s": 3.1, "end_pair_lifetime_s": 25.0},
}

PRESETS = {
    "glutamate": (glutamate, GLUTAMATE_PARAMS),
    "phe-gly-gly": (phe_gly_gly, PHE_GLY_GLY_PARAMS),
}


def preset(name: str) -> tuple[SpinSystem, dict]:
    """The named preset's spin system and its sequence parameters; any other name is a ValueError."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    build, params = PRESETS[name]
    return build(), params

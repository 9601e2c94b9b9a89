"""The benchmark's workloads: seeded inputs and one round of operations each.

A workload's `setup(ss, seed, paths)` builds its systems and inputs from the
seed and returns the operations of one round.  A round is a fixed list of
operations run one after another by a single client; every round of a run
repeats the same operations on the same inputs.  The seed changes the
numbers (sweep grids, lock phases and nutations, triplet compositions,
preparation timings, noise, fit truths) but never the number of operations
or sweep points, so every seed does the same amount of work.

`ss` is a namespace of the singletsim modules imported for this set-up.
Operations look functions up on those modules when they run, so wrappers
installed by the tracer are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

RESONANCE_CHANNEL = {16: "phi_minus", 64: "phi_plus", 256: "phi_minus"}


@dataclass
class Op:
    name: str
    kind: str  # "sim" (one run_* sweep), "scan", "fit" or "cli"
    dim: int
    points: int  # sweep points propagated and read out; 0 for fits and CLI runs
    run: Callable[[], Any]
    check: Callable[[Any, "CheckContext"], list[str]]
    known_fault: str | None = None  # set on the one operation expected to fail today
    reference_indices: tuple[int, ...] = ()  # sweep points compared with the expm reference


@dataclass
class Paths:
    root: Path  # checkout root: holds configs/ and src/
    work: Path  # scratch directory of this run, inside the checkout

    @property
    def cli_out(self) -> Path:
        return self.work / "cli"


@dataclass
class CheckContext:
    """Lazily imported reference, one reference system per program system."""

    reference: Any = None
    _systems: dict = field(default_factory=dict)

    def ref_system(self, system):
        if self.reference is None:
            import reference

            self.reference = reference
        key = id(system)
        if key not in self._systems:
            self._systems[key] = self.reference.RefSystem(system.offsets_hz, system.couplings_hz, system.pairs)
        return self._systems[key]


# -- shared inputs --------------------------------------------------------

def four_pair_system(presets):
    """Glutamate's two pairs plus two weakly coupled pairs (8 spins, d = 256)."""
    return presets.two_pair_system(
        200.0,
        pair_centers_ppm=(2.04, 2.30, 3.10, 3.71),
        pair_splittings_hz=(4.5, 4.9, 14.0, 2.357),
        intrapair_hz=(15.5, 17.75, 16.5, 17.5),
        cis_hz=5.0,
        trans_hz=2.43,
        extra_pair_couplings={(1, 2): (0.8, 0.3), (2, 3): (0.5, 0.2)},
    )


def systems_by_dim(ss) -> dict[int, Any]:
    return {
        16: ss.presets.glutamate(),
        64: ss.presets.phe_gly_gly(include_third_pair=True),
        256: four_pair_system(ss.presets),
    }


def pair_center(system, p: int) -> float:
    a, b = system.pairs[p]
    return 0.5 * (system.offsets_hz[a] + system.offsets_hz[b])


def transfer_frequency(system) -> float:
    """|J_cis - J_trans| between pairs 0 and 1: the on-resonance transfer frequency."""
    (a1, b1), (a2, b2) = system.pairs[0], system.pairs[1]
    j = system.couplings_hz
    return abs(j[a1, a2] + j[b1, b2] - j[a1, b2] - j[b1, a2]) / 2.0


def jitter(rng, value: float, rel: float) -> float:
    return float(value * (1.0 + rng.uniform(-rel, rel)))


def grid(rng, start: float, stop: float, count: int, rel: float = 0.05) -> np.ndarray:
    return np.linspace(jitter(rng, start, rel), jitter(rng, stop, rel), count)


def pure_composition(rng) -> tuple[float, float, float]:
    v = rng.normal(size=3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


def prep_input(rng, kind: str, system) -> dict:
    if kind == "ideal":
        return {"kind": "ideal"}
    if kind == "slic":
        a, b = system.pairs[0]
        split = abs(system.offsets_hz[a] - system.offsets_hz[b])
        return {
            "kind": "slic",
            "nutation_hz": jitter(rng, system.couplings_hz[a, b], 0.05),
            "duration_s": jitter(rng, 1.0 / (math.sqrt(2.0) * split), 0.05),
            "phase": float(rng.uniform(0, 2 * np.pi)),
        }
    return {
        "kind": "three_pulse",
        "tau1_s": jitter(rng, 0.007, 0.05),
        "tau2_s": jitter(rng, 0.0205, 0.05),
        "tau3_s": jitter(rng, 0.00925, 0.05),
    }


def make_protocol(ss, inp: dict):
    """Protocol from the benchmark's input record (the reference reads the same record)."""
    lock = ss.hamiltonian.SpinLockParams
    init = inp["init"] if isinstance(inp["init"], str) else ss.spincore.TripletAmplitudes(*inp["init"])
    kwargs = dict(
        kind=inp["kind"], sweep=inp["sweep"], transfer=lock(*inp["transfer"]),
        source_pair=inp["source_pair"], readout_pair=inp["readout_pair"],
        prep=ss.sequences.PrepSpec(**inp["prep"]), triplet_init=init,
        readout=inp["readout"], phase_cycle=inp["phase_cycle"],
    )
    if inp["kind"] == "ramsey":
        kwargs.update(pi_half_duration_s=inp["pi_half_s"], free_lock=lock(*inp["free"]))
    if inp["kind"] == "double_rabi":
        kwargs["double_rabi_phases"] = inp["phases"]
    return ss.sequences.Protocol(**kwargs)


def sim_input(kind: str, sweep, transfer, prep=None, init="uniform", readout="projector",
              phase_cycle=False, **extra) -> dict:
    return dict(
        kind=kind, sweep=np.asarray(sweep, float), transfer=tuple(float(v) for v in transfer),
        source_pair=0, readout_pair=1, prep=prep or {"kind": "ideal"}, init=init,
        readout=readout, phase_cycle=phase_cycle, **extra,
    )


def sim_op(ss, rng, name: str, system, inp: dict, n_reference: int, extra_check=None) -> Op:
    """One run_* sweep, checked at n_reference seeded points against the expm reference."""
    proto = make_protocol(ss, inp)
    runner = {"rabi": "run_rabi", "ramsey": "run_ramsey", "double_rabi": "run_double_rabi"}[inp["kind"]]
    indices = sorted(int(k) for k in rng.choice(inp["sweep"].size, n_reference, replace=False))

    def run():
        return getattr(ss.sequences, runner)(system, proto)

    def check(trace, ctx: CheckContext) -> list[str]:
        problems = checks.populations_in_unit_interval(trace.singlet_populations, trace.observable)
        if trace.observable.shape != inp["sweep"].shape:
            return problems + [f"trace has {trace.observable.size} points, expected {inp['sweep'].size}"]
        ref = ctx.ref_system(system)
        expected = [ctx.reference.point(ref, inp, float(inp["sweep"][k])) for k in indices]
        problems += checks.matches_reference(expected, trace, indices)
        if extra_check is not None:
            problems += extra_check(trace)
        return problems

    return Op(name, "sim", system.dim, inp["sweep"].size, run, check, reference_indices=tuple(indices))


def cli_op(ss, name: str, argv: list[str], check, known_fault: str | None = None) -> Op:
    """One in-process `singletsim` command; its console output is discarded."""

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return ss.cli.main(argv)

    return Op(name, "cli", 16, 0, run, lambda rc, ctx: checks.cli_exit(rc) + check(), known_fault)


def cli_simulate_and_fit(ss, paths: Paths, tag: str, config: Path, model: str, truth_hz: float,
                         scale: float = 1.0, fit_options: tuple[str, ...] = ()) -> list[Op]:
    """simulate a config, then fit its trace; the fit must recover truth_hz within 2 %."""
    out = paths.cli_out / tag
    report = out / "fit.json"

    def check_trace():
        return checks.cli_trace(out / "trace.csv")

    def check_fit():
        problems, rep = checks.cli_fit(report)
        if rep is not None:
            problems += checks.relative(f"{tag} CLI fit frequency", rep["params"]["frequency_hz"] / scale, truth_hz, 0.02)
        return problems

    return [
        cli_op(ss, f"cli simulate {tag}", ["simulate", "--config", str(config), "--out", str(out)], check_trace),
        cli_op(ss, f"cli fit {tag}", ["fit", "--trace", str(out / "trace.csv"), "--model", model, "--out", str(report), *fit_options], check_fit),
    ]


def resonant_lock(ss, system, dim: int, rng, phase: float | None = None) -> tuple[float, float, float]:
    nutation = ss.sequences.exact_resonance_nutation(system, RESONANCE_CHANNEL[dim], 0, 1)
    return nutation, float(rng.uniform(0, 2 * np.pi)) if phase is None else phase, pair_center(system, 0)


# -- rabi_sampled ---------------------------------------------------------

RABI_POINTS = 250
RABI_D16_VARIANTS = 4  # d=16 runs are short; four variants per configuration give them a timeable share


def setup_rabi_sampled(ss, seed: int, paths: Paths) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    systems = systems_by_dim(ss)
    ops: list[Op] = []
    glu = systems[16]
    truth = transfer_frequency(glu)
    nutation, _, tx = resonant_lock(ss, glu, 16, rng, phase=0.0)

    def resonant_fit(trace):
        fit = ss.analysis.fit_rabi(trace, mode="sin2", with_decay=False)
        return checks.relative("glutamate resonant Rabi frequency", fit.params["frequency_hz"], truth, 0.02)

    inp = sim_input("rabi", grid(rng, 0.02, 2.5, RABI_POINTS), (nutation, 0.0, tx))
    ops.append(sim_op(ss, rng, "rabi d16 resonant", glu, inp, 3, resonant_fit))
    for dim, variants in ((16, RABI_D16_VARIANTS), (64, 1)):
        system = systems[dim]
        base_nutation, _, tx = resonant_lock(ss, system, dim, rng, phase=0.0)
        for prep_kind in ("ideal", "slic", "three_pulse"):
            for init_kind in ("uniform", "pure"):
                for v in range(variants):
                    init = "uniform" if init_kind == "uniform" else pure_composition(rng)
                    lock = (jitter(rng, base_nutation, 0.01), float(rng.uniform(0, 2 * np.pi)), tx)
                    inp = sim_input("rabi", grid(rng, 0.02, 2.5, RABI_POINTS), lock,
                                    prep_input(rng, prep_kind, system), init)
                    ops.append(sim_op(ss, rng, f"rabi d{dim} {prep_kind} {init_kind} {v}", system, inp,
                                      2 if dim == 16 else 1))
    big = systems[256]
    inp = sim_input("rabi", grid(rng, 0.02, 2.5, RABI_POINTS), resonant_lock(ss, big, 256, rng),
                    init=pure_composition(rng))
    ops.append(sim_op(ss, rng, "rabi d256 ideal pure", big, inp, 1))
    ops += cli_simulate_and_fit(ss, paths, "rabi", paths.root / "configs" / "glutamate_rabi.json", "rabi", truth)
    return ops


# -- ramsey_rebuild -------------------------------------------------------

# sweep points per (dimension, operation).  Most of a round is spent at
# d = 256: the d = 16 operations' times follow the shared host's load most
# (their median over a 50 s run spread 0.24 between runs, the d = 256 ones'
# 0.06-0.09), so a 400-point d = 16 Ramsey made wall_s too noisy to gate
RAMSEY_POINTS = {16: 100, 64: 12, 256: 3}
DOUBLE_RABI_POINTS = {16: 30, 64: 12, 256: 3}
PROXY_POINTS = {16: 8, 64: 6, 256: 3}
# the three-pulse readout brings hard pulses; at d = 256 its eleven segments
# would take half a round, so the largest system uses lock-crossing
PROXY_PREP = {16: "three_pulse", 64: "three_pulse", 256: "slic"}


def component_independent_glutamate(presets):
    """Equal singlet energies: the double-Rabi period is 1 / |J_cis - J_trans| on any triplet."""
    return presets.glutamate(intrapair_hz=(16.625, 16.625))


def setup_ramsey_rebuild(ss, seed: int, paths: Paths) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    systems = systems_by_dim(ss)
    ops: list[Op] = []
    for dim, system in systems.items():
        nutation, _, tx = resonant_lock(ss, system, dim, rng, phase=0.0)
        n_ref = {16: 3, 64: 1, 256: 1}[dim]
        lock = (nutation, float(rng.uniform(0, 2 * np.pi)), tx)
        free = (jitter(rng, 47.0, 0.05), lock[1], tx)
        inp = sim_input("ramsey", grid(rng, 0.01, 2.0, RAMSEY_POINTS[dim]), lock,
                        pi_half_s=jitter(rng, 0.1, 0.02), free=free)
        ops.append(sim_op(ss, rng, f"ramsey d{dim}", system, inp, n_ref))

        extra = None
        if dim == 16:
            system = component_independent_glutamate(ss.presets)
            tx = 0.5 * (pair_center(system, 0) + pair_center(system, 1))

            def extra(trace, truth=transfer_frequency(system)):
                fit = ss.analysis.fit_rabi((2 * trace.sweep_values, trace.observable), "sin2", with_decay=False)
                return checks.relative("component-independent double-Rabi frequency",
                                       fit.params["frequency_hz"], truth, 0.02)

        phase_a = float(rng.uniform(0, 2 * np.pi))
        inp = sim_input("double_rabi", grid(rng, 0.005, 0.45, DOUBLE_RABI_POINTS[dim]),
                        (jitter(rng, 500.0, 0.02), phase_a, tx), init=pure_composition(rng),
                        phases=(phase_a, phase_a + np.pi))
        ops.append(sim_op(ss, rng, f"double_rabi d{dim}", system, inp, n_ref, extra))

        system = systems[dim]
        lock = (jitter(rng, nutation, 0.01), float(rng.uniform(0, 2 * np.pi)), pair_center(system, 0))
        inp = sim_input("rabi", grid(rng, 0.05, 1.2, PROXY_POINTS[dim]), lock,
                        prep_input(rng, PROXY_PREP[dim], system), readout="signal_proxy", phase_cycle=True)
        ops.append(sim_op(ss, rng, f"signal_proxy rabi d{dim}", system, inp, n_ref))

    config = paths.work / "configs" / "double_rabi.json"
    system = component_independent_glutamate(ss.presets)
    write_json(config, {
        "system": {
            "spins": [{"offset_hz": float(v)} for v in system.offsets_hz],
            "couplings_hz": system.couplings_hz.tolist(),
            "pairs": [list(p) for p in system.pairs],
        },
        "protocol": {
            "kind": "double_rabi",
            "transfer": {"nutation_hz": jitter(rng, 500.0, 0.02),
                         "transmitter_offset_hz": 0.5 * (pair_center(system, 0) + pair_center(system, 1))},
            "sweep": {"start": jitter(rng, 0.005, 0.05), "stop": jitter(rng, 0.45, 0.05), "count": 60},
        },
    })
    # the trace is swept in tau but oscillates in 2 tau, and it does not decay
    ops += cli_simulate_and_fit(ss, paths, "double_rabi", config, "rabi", transfer_frequency(system), scale=2.0,
                                fit_options=("--no-decay",))
    return ops


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))


# -- scan_fit -------------------------------------------------------------

SCANS = 4
SCAN_TARGETS_HZ = (0.6, 1.0, 1.5, 2.0, 2.25, 2.6, 3.2, 4.0, 5.0, 6.5, 8.0, 9.5)  # delta_nu_n grid at dJ = 2.25
SCAN_TAUS = 100
SCAN_TOL = 0.03  # Lorentzian centre and FWHM; 160 seeded scans stay within 0.9 %
FITS_PER_MODEL = 10
SNR = 20.0

# caps on each fit's standard error (relative; rad for the phase); at SNR 20
# the largest seen over 1000 seeded fits per model is under half of each cap
FIT_ERROR_CAPS = {
    "rabi": {"frequency_hz": 0.01, "t_rabi_s": 0.1},
    "ramsey": {"frequency_hz": 0.01, "phase_rad": 0.1, "t2s_star_s": 0.15, "t_s_s": 0.3},
    "exponential": {"t_s": 0.15},
    "lorentzian": {"center": 0.1, "fwhm": 0.15},
}

NAN_SCAN_CONFIG = {
    "preset": "glutamate",
    "protocol": {
        "kind": "resonance_scan",
        "transfer": {"nutation_hz": 500.0, "transmitter_ppm": 2.04},
        "sweep": {"values": [1e-6, 5.0, 600.0]},
        "scan_tau": {"start": 0.02, "stop": 2.0, "count": 7},
    },
}
NAN_SCAN_FAULT = (
    "run_resonance_scan records failed points as NaN, but Trace.__post_init__ rejects "
    "non-finite observables, so the scan raises ValueError out of cli.main"
)


def synthetic_trace(rng, model: str):
    """(x, y, truth) for one SNR-20 trace of the given fit model."""
    u = rng.uniform
    if model == "rabi":
        x = np.linspace(0.01, 3.2, 240)
        truth = {"frequency_hz": u(2.2, 2.9), "t_rabi_s": u(1.3, 2.0), "offset": u(0.05, 0.15)}
        clean = (np.sin(np.pi * truth["frequency_hz"] * x) ** 2 + truth["offset"]) * np.exp(-x / truth["t_rabi_s"])
        sigma = 1.0 / SNR
    elif model == "ramsey":
        x = np.linspace(0.01, 8.0, 700)
        truth = {"frequency_hz": u(2.0, 2.6), "phase_rad": u(-np.pi, np.pi), "t2s_star_s": u(1.1, 1.5),
                 "t_s_s": u(3.8, 5.0), "offset": u(0.1, 0.3)}
        theta = 2 * np.pi * truth["frequency_hz"] * x - truth["phase_rad"]
        clean = (np.cos(theta) * np.exp(-x / truth["t2s_star_s"]) + truth["offset"]) * np.exp(-x / truth["t_s_s"])
        sigma = 1.0 / SNR
    elif model == "exponential":
        x = np.linspace(0.0, 1.0, 150)
        truth = {"amplitude": u(0.8, 1.2), "t_s": u(0.17, 0.25), "offset": u(0.05, 0.15)}
        clean = truth["amplitude"] * np.exp(-x / truth["t_s"]) + truth["offset"]
        sigma = truth["amplitude"] / SNR
    else:
        x = np.linspace(-8.0, 12.0, 81)
        truth = {"center": u(1.5, 3.0), "fwhm": u(3.8, 4.8), "height": u(0.8, 1.0), "baseline": 0.03}
        g = (truth["fwhm"] / 2) ** 2
        clean = truth["baseline"] + truth["height"] * g / ((x - truth["center"]) ** 2 + g)
        sigma = truth["height"] / SNR
    return x, clean + rng.normal(0.0, sigma, x.size), truth


def fit_op(ss, model: str, x, y, truth) -> Op:
    fitter = {"rabi": "fit_rabi", "ramsey": "fit_ramsey", "exponential": "fit_exponential",
              "lorentzian": "fit_lorentzian"}[model]

    def run():
        return getattr(ss.analysis, fitter)((x, y))

    def check(fit, ctx):
        return checks.fit_recovers(model, fit.params, fit.uncertainties, truth, FIT_ERROR_CAPS[model])

    return Op(f"fit {model}", "fit", 16, 0, run, check)


def scan_op(ss, rng, index: int) -> Op:
    """Resonance scan of glutamate with a seeded singlet-energy difference, then a Lorentzian fit."""
    d_j = float(rng.uniform(1.9, 2.6))
    system = ss.presets.glutamate(intrapair_hz=(15.5, 15.5 + d_j))
    delta_nu12 = abs(pair_center(system, 1) - pair_center(system, 0))
    targets = [jitter(rng, t * d_j / 2.25, 0.03) for t in SCAN_TARGETS_HZ]
    nutations = np.sort([ss.hamiltonian.resonant_nutation(delta_nu12, t) for t in targets])
    base = ss.sequences.transfer_resonance_nutation(system, 0, 1)
    proto = ss.sequences.Protocol(
        kind="resonance_scan", sweep=nutations,
        transfer=ss.hamiltonian.SpinLockParams(base, 0.0, pair_center(system, 0)),
        triplet_init="phi_minus", scan_tau_grid_s=grid(rng, 0.02, 2.0, SCAN_TAUS),
    )
    width = 2.0 * transfer_frequency(system)  # two-level Lorentzian FWHM, 4 C

    def run():
        trace = ss.sequences.run_resonance_scan(system, proto)
        fit = ss.analysis.fit_lorentzian((np.asarray(trace.metadata["delta_nu_n_hz"]), trace.observable))
        return trace, fit

    def check(out, ctx):
        trace, fit = out
        if not np.all(np.isfinite(trace.observable)):
            return ["resonance scan has non-finite amplitudes"]
        return (checks.relative("scan Lorentzian centre", fit.params["center"], d_j, SCAN_TOL)
                + checks.relative("scan Lorentzian FWHM", fit.params["fwhm"], width, SCAN_TOL))

    return Op(f"resonance scan {index}", "scan", 16, nutations.size * SCAN_TAUS, run, check)


def setup_scan_fit(ss, seed: int, paths: Paths) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = [scan_op(ss, rng, i) for i in range(SCANS)]
    for model in ("rabi", "ramsey", "exponential", "lorentzian"):
        for _ in range(FITS_PER_MODEL):
            ops.append(fit_op(ss, model, *synthetic_trace(rng, model)))

    configs = paths.root / "configs"
    glu = ss.presets.glutamate()
    ops += cli_simulate_and_fit(ss, paths, "rabi", configs / "glutamate_rabi.json", "rabi", transfer_frequency(glu))

    scan_out = paths.cli_out / "scan"
    singlet_gap = abs(glu.couplings_hz[0, 1] - glu.couplings_hz[2, 3])

    def check_scan():
        problems, lorentzian = checks.cli_scan(scan_out / "scan.csv")
        if lorentzian is not None:
            problems += checks.relative("CLI scan Lorentzian centre", lorentzian["params"]["center"], singlet_gap, 0.10)
        return problems

    ops.append(cli_op(ss, "cli scan", ["scan", "--config", str(configs / "glutamate_scan.json"), "--out", str(scan_out)], check_scan))

    pump_config = configs / "pgg_pumping.json"
    pump = json.loads(pump_config.read_text())
    cycle_s = pump["protocol"]["pump_transfer_duration_s"] + pump["protocol"]["pump_reset_delay_s"]
    cycles_truth = pump["envelope"]["t_s_s"] / cycle_s  # stored order decays as exp(-n cycle_s / T_S)
    pump_out = paths.cli_out / "pumping"

    def check_pump_trace():
        return checks.cli_trace(pump_out / "trace.csv")

    def check_pump_fit():
        problems, rep = checks.cli_fit(pump_out / "fit.json")
        if rep is not None:
            problems += checks.relative("pumping saturation constant (cycles)", rep["params"]["t_s"], cycles_truth, 1e-6)
        return problems

    ops.append(cli_op(ss, "cli simulate pumping", ["simulate", "--config", str(pump_config), "--out", str(pump_out)], check_pump_trace))
    ops.append(cli_op(ss, "cli fit pumping", ["fit", "--trace", str(pump_out / "trace.csv"), "--model", "exponential",
                                              "--out", str(pump_out / "fit.json")], check_pump_fit))

    nan_config = paths.work / "configs" / "nan_scan.json"
    write_json(nan_config, NAN_SCAN_CONFIG)
    nan_out = paths.cli_out / "nan_scan"

    def check_nan_scan():
        # reached only once the fault is mended: every point fails its fit, so no rows
        try:
            text = (nan_out / "scan.csv").read_text()
        except OSError as exc:
            return [f"NaN scan wrote no output: {exc}"]
        return [] if text.startswith("# singletsim resonance scan") else ["NaN scan output lacks its header"]

    ops.append(cli_op(ss, "cli scan nan", ["scan", "--config", str(nan_config), "--out", str(nan_out)],
                      check_nan_scan, known_fault=NAN_SCAN_FAULT))
    return ops


WORKLOADS = {
    "rabi_sampled": setup_rabi_sampled,
    "ramsey_rebuild": setup_ramsey_rebuild,
    "scan_fit": setup_scan_fit,
}

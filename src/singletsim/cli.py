"""Configuration-driven command line front end.

Subcommands: simulate (run a protocol, write a trace CSV), fit (fit a model
to a trace file), scan (resonance scan plus Lorentzian summary), presets
(list or dump the molecule presets).  Configs are JSON documents with
explicit units in the field names.  Every output file embeds, as its
``# config:`` line, a config serialised from the objects the run was built
from, so that line loads back as a config and reproduces the run.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import MODEL_FITTERS, FitResult, evaluate_model, fit_lorentzian
from .hamiltonian import SpinLockParams, pair_center_offset
from .presets import PRESETS, ppm_to_hz, preset_params, preset_system
from .propagator import RelaxationEnvelope
from .sequences import PrepSpec, Protocol, run_protocol
from .spincore import SpinSystem
from .trace import Trace


class ConfigError(ValueError):
    """Configuration parse or validation failure, naming the offending field."""


@dataclass
class RunConfig:
    system: SpinSystem
    protocol: Protocol
    envelope: RelaxationEnvelope | None
    noise_sigma: float | None
    noise_seed: int | None


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required field {context}.{key}")
    return mapping[key]


def _build_system(block: dict) -> tuple[SpinSystem, float]:
    spectrometer = float(block.get("spectrometer_mhz", 200.0))
    spins = _require(block, "spins", "system")
    offsets = []
    for i, spin in enumerate(spins):
        if "offset_hz" in spin:
            offsets.append(float(spin["offset_hz"]))
        elif "shift_ppm" in spin:
            offsets.append(ppm_to_hz(float(spin["shift_ppm"]), spectrometer))
        else:
            raise ConfigError(f"system.spins[{i}] needs shift_ppm or offset_hz")
    couplings = _require(block, "couplings_hz", "system")
    pairs = tuple(tuple(p) for p in block.get("pairs", ()))
    try:
        system = SpinSystem(np.array(offsets), np.array(couplings, dtype=float), pairs)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc
    return system, spectrometer


def _build_lock(block: dict, spectrometer: float, system: SpinSystem, context: str) -> SpinLockParams:
    nutation = float(_require(block, "nutation_hz", context))
    phase = np.deg2rad(float(block.get("phase_deg", 0.0)))
    if "transmitter_offset_hz" in block:
        tx = float(block["transmitter_offset_hz"])
    elif "transmitter_ppm" in block:
        tx = ppm_to_hz(float(block["transmitter_ppm"]), spectrometer)
    elif "transmitter_pair" in block:
        tx = pair_center_offset(system, int(block["transmitter_pair"]))
    else:
        tx = pair_center_offset(system, 0)
    try:
        return SpinLockParams(nutation, phase, tx)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _build_sweep(block: dict, context: str) -> np.ndarray:
    if "values" in block:
        return np.asarray(block["values"], dtype=float)
    for key in ("start", "stop", "count"):
        _require(block, key, context)
    return np.linspace(float(block["start"]), float(block["stop"]), int(block["count"]))


def _build_prep(block: dict) -> PrepSpec:
    try:
        return PrepSpec(
            kind=block.get("kind", "ideal"),
            nutation_hz=block.get("nutation_hz"),
            duration_s=block.get("duration_s"),
            tau1_s=block.get("tau1_s"),
            tau2_s=block.get("tau2_s"),
            tau3_s=block.get("tau3_s"),
            phase=np.deg2rad(float(block.get("phase_deg", 0.0))),
            polarization=float(block.get("polarization", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"protocol.prep: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration, resolving all defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")

    has_preset = "preset" in raw
    has_system = "system" in raw
    if has_preset == has_system:
        raise ConfigError("exactly one of 'preset' or 'system' must be given")
    if has_preset:
        name = raw["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        system = preset_system(name)
        spectrometer = preset_params(name)["spectrometer_mhz"]
    else:
        system, spectrometer = _build_system(raw["system"])

    proto_spec = _require(raw, "protocol", "config")
    kind = _require(proto_spec, "kind", "protocol")
    transfer = _build_lock(_require(proto_spec, "transfer", "protocol"), spectrometer, system, "protocol.transfer")
    sweep = _build_sweep(_require(proto_spec, "sweep", "protocol"), "protocol.sweep")
    free_lock = None
    if "free_lock" in proto_spec:
        free_lock = _build_lock(proto_spec["free_lock"], spectrometer, system, "protocol.free_lock")
    scan_tau = None
    if "scan_tau" in proto_spec:
        scan_tau = _build_sweep(proto_spec["scan_tau"], "protocol.scan_tau")
    phases = proto_spec.get("double_rabi_phases_deg", [90.0, -90.0])
    try:
        protocol = Protocol(
            kind=kind,
            sweep=sweep,
            transfer=transfer,
            source_pair=int(proto_spec.get("source_pair", 0)),
            readout_pair=int(proto_spec.get("readout_pair", 1)),
            prep=_build_prep(proto_spec.get("prep", {})),
            triplet_init=proto_spec.get("triplet_init", "uniform"),
            readout=proto_spec.get("readout", "projector"),
            phase_cycle=bool(proto_spec.get("phase_cycle", False)),
            pi_half_duration_s=proto_spec.get("pi_half_duration_s"),
            free_lock=free_lock,
            double_rabi_phases=(np.deg2rad(float(phases[0])), np.deg2rad(float(phases[1]))),
            pump_transfer_duration_s=proto_spec.get("pump_transfer_duration_s"),
            pump_reset_delay_s=proto_spec.get("pump_reset_delay_s"),
            scan_tau_grid_s=scan_tau,
        )
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc

    envelope = None
    if "envelope" in raw:
        env_spec = dict(raw["envelope"])
        if "t2s_star_s" in env_spec:
            env_spec["t_2s_star_s"] = env_spec.pop("t2s_star_s")
        unknown = sorted(set(env_spec) - {f.name for f in fields(RelaxationEnvelope)})
        if unknown:
            raise ConfigError(f"envelope: unknown field {unknown[0]!r}")
        try:
            envelope = RelaxationEnvelope(**env_spec)
        except ValueError as exc:
            raise ConfigError(f"envelope: {exc}") from exc

    noise_sigma = None
    noise_seed = None
    if "noise" in raw:
        noise_sigma = float(_require(raw["noise"], "sigma", "noise"))
        if noise_sigma < 0:
            raise ConfigError("noise.sigma must be >= 0")
        if noise_sigma > 0:
            if "seed" not in raw["noise"]:
                raise ConfigError("noise.seed is required when noise is enabled")
            noise_seed = int(raw["noise"]["seed"])

    return RunConfig(system, protocol, envelope, noise_sigma, noise_seed)


def _degrees(phase: float) -> float:
    """Phase in degrees that the loader converts back to exactly this phase (rad).

    rad2deg alone misses by an ulp for some phases; of the nearest doubles
    that convert back exactly, the one with the shortest decimal form wins.
    """
    deg = float(np.rad2deg(phase))
    candidates = [float(np.nextafter(deg, -np.inf)), deg, float(np.nextafter(deg, np.inf))]
    exact = [c for c in candidates if np.deg2rad(c) == phase]
    return min(exact, key=lambda c: len(repr(c))) if exact else deg


def _lock_block(lock: SpinLockParams) -> dict:
    return {
        "nutation_hz": lock.nutation_hz,
        "phase_deg": _degrees(lock.phase),
        "transmitter_offset_hz": lock.transmitter_offset_hz,
    }


def _config_line(config: RunConfig) -> str:
    """The '# config:' header line: the run config as built, in the schema load_config reads.

    Every value is taken from the built objects (offsets and transmitters in
    Hz, phases in degrees that convert back exactly, sweeps as explicit
    values), so loading the JSON rebuilds the same objects.
    """
    system, protocol = config.system, config.protocol
    prep = {k: v for k, v in asdict(protocol.prep).items() if v is not None and k != "phase"}
    prep["phase_deg"] = _degrees(protocol.prep.phase)
    spec = {
        "kind": protocol.kind,
        "sweep": {"values": protocol.sweep.tolist()},
        "transfer": _lock_block(protocol.transfer),
        "source_pair": protocol.source_pair,
        "readout_pair": protocol.readout_pair,
        "prep": prep,
        "triplet_init": protocol.triplet_init,
        "readout": protocol.readout,
        "phase_cycle": protocol.phase_cycle,
        "double_rabi_phases_deg": [_degrees(phase) for phase in protocol.double_rabi_phases],
        "pi_half_duration_s": protocol.pi_half_duration_s,
        "pump_transfer_duration_s": protocol.pump_transfer_duration_s,
        "pump_reset_delay_s": protocol.pump_reset_delay_s,
    }
    if protocol.free_lock is not None:
        spec["free_lock"] = _lock_block(protocol.free_lock)
    if protocol.scan_tau_grid_s is not None:
        spec["scan_tau"] = {"values": protocol.scan_tau_grid_s.tolist()}
    out = {
        "system": {
            "spins": [{"offset_hz": offset} for offset in system.offsets_hz.tolist()],
            "couplings_hz": system.couplings_hz.tolist(),
            "pairs": [list(pair) for pair in system.pairs],
        },
        "protocol": {k: v for k, v in spec.items() if v is not None},
    }
    if config.envelope is not None:
        out["envelope"] = {k: v for k, v in asdict(config.envelope).items() if v is not None}
    if config.noise_sigma is not None:
        out["noise"] = {"sigma": config.noise_sigma}
        if config.noise_seed is not None:
            out["noise"]["seed"] = config.noise_seed
    return f"# config: {json.dumps(out, sort_keys=True)}"


def _format(value: float) -> str:
    return f"{value:.12g}"


def _write_trace(trace: Trace, config: RunConfig, out_path: Path) -> None:
    n_pairs = trace.singlet_populations.shape[0] if trace.singlet_populations is not None else 0
    columns = ["sweep_value", "observable"] + [f"singlet_pop_pair{i}" for i in range(n_pairs)]
    lines = [
        "# singletsim trace",
        _config_line(config),
        f"# protocol: {trace.metadata.get('protocol', '')}",
        f"# sweep_unit: {trace.sweep_unit}",
        f"# columns: {','.join(columns)}",
    ]
    for k in range(trace.sweep_values.size):
        row = [_format(trace.sweep_values[k]), _format(trace.observable[k])]
        for i in range(n_pairs):
            row.append(_format(trace.singlet_populations[i, k]))
        lines.append(",".join(row))
    out_path.write_text("\n".join(lines) + "\n")


def read_trace_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read (sweep_value, observable) columns from a '#'-commented CSV."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trace file not found: {path}")
    xs, ys = [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ConfigError(f"{path}:{lineno}: expected at least 2 columns, got {len(parts)}")
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not xs:
        raise ConfigError(f"{path}: no data rows")
    return np.array(xs), np.array(ys)


def cmd_simulate(config_path: str, out_dir: str) -> Path:
    """Run the configured protocol and write the trace file."""
    config = load_config(config_path)
    trace = run_protocol(config.system, config.protocol, config.envelope)
    if config.noise_sigma:
        rng = np.random.default_rng(config.noise_seed)
        noisy = trace.observable + rng.normal(0.0, config.noise_sigma, trace.observable.shape)
        trace = trace.copy_with(observable=noisy)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    out_path = out / "trace.csv"
    _write_trace(trace, config, out_path)
    return out_path


def _fit_report(result: FitResult) -> dict:
    report = {
        "model": result.model,
        "params": {k: result.params[k] for k in result.param_order},
        "uncertainties": {k: result.uncertainties[k] for k in result.param_order},
        "rss": result.rss,
        "reduced_chi_square": result.reduced_chi_square,
        "converged": result.converged,
        "n_iterations": result.n_iterations,
    }
    if result.model == "ramsey":
        report["sign"] = result.sign
    return report


def cmd_fit(trace_path: str, model: str, out_path: str, **options) -> FitResult:
    """Fit a model to a trace file; write a JSON report and a fitted-curve CSV."""
    if model not in MODEL_FITTERS:
        raise ConfigError(f"unknown model {model!r}; available: {sorted(MODEL_FITTERS)}")
    x, y = read_trace_file(trace_path)
    fitter = MODEL_FITTERS[model]
    settings = {
        "mode": options.get("mode", "sin2"),
        "sign": options.get("sign", 1),
        "with_decay": not options.get("no_decay", False),
    }
    accepted = inspect.signature(fitter).parameters
    result = fitter((x, y), **{k: v for k, v in settings.items() if k in accepted})
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(_fit_report(result), indent=2, sort_keys=True) + "\n")
    grid = np.linspace(x.min(), x.max(), max(200, 4 * x.size))
    curve = evaluate_model(result, grid)
    curve_path = out.with_name(out.stem + "_curve.csv")
    rows = ["# singletsim fitted curve", f"# model: {result.model}", "# columns: sweep_value,fitted"]
    rows += [f"{_format(a)},{_format(b)}" for a, b in zip(grid, curve)]
    curve_path.write_text("\n".join(rows) + "\n")
    return result


def cmd_scan(config_path: str, out_dir: str) -> Path:
    """Run a resonance scan; write per-point rows and a Lorentzian fit summary."""
    config = load_config(config_path)
    if config.protocol.kind != "resonance_scan":
        raise ConfigError("scan requires protocol.kind = resonance_scan")
    trace = run_protocol(config.system, config.protocol, config.envelope)
    delta_nu = np.asarray(trace.metadata["delta_nu_n_hz"])
    freqs = np.asarray(trace.metadata["fitted_frequency_hz"])
    valid = np.isfinite(trace.observable)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    out_path = out / "scan.csv"
    lines = [
        "# singletsim resonance scan",
        _config_line(config),
        "# columns: nutation_hz,delta_nu_n_hz,amplitude,fitted_frequency_hz",
    ]
    for k in range(trace.sweep_values.size):
        if not valid[k]:
            continue  # per-point fit failure: row omitted
        lines.append(
            ",".join(
                _format(v)
                for v in (trace.sweep_values[k], delta_nu[k], trace.observable[k], freqs[k])
            )
        )
    if np.count_nonzero(valid) >= 5:
        fit = fit_lorentzian((delta_nu[valid], trace.observable[valid]))
        lines.append(f"# lorentzian: {json.dumps(_fit_report(fit), sort_keys=True)}")
    else:
        print("warning: fewer than 5 valid scan points, skipping Lorentzian fit", file=sys.stderr)
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


def cmd_presets(list_only: bool, dump: str | None) -> None:
    if dump is not None:
        system = preset_system(dump)
        payload = {
            "name": dump,
            "offsets_hz": system.offsets_hz.tolist(),
            "couplings_hz": system.couplings_hz.tolist(),
            "pairs": [list(p) for p in system.pairs],
            "params": preset_params(dump),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for name in sorted(PRESETS):
        print(name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singletsim",
        description="Simulate and analyze coherent singlet-singlet transfer in coupled spin pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured protocol, write a trace CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser("fit", help="fit a model to a trace file")
    p_fit.add_argument("--trace", required=True)
    p_fit.add_argument("--model", required=True, choices=sorted(MODEL_FITTERS))
    p_fit.add_argument("--out", required=True, help="output report path (JSON)")
    p_fit.add_argument("--mode", default="sin2", choices=["sin2", "cos2"])
    p_fit.add_argument("--sign", type=int, default=1, choices=[1, -1])
    p_fit.add_argument("--no-decay", action="store_true")

    p_scan = sub.add_parser("scan", help="resonance scan with Lorentzian summary")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--out", required=True, help="output directory")

    p_presets = sub.add_parser("presets", help="list or dump molecule presets")
    p_presets.add_argument("--dump", default=None)
    p_presets.add_argument("--list", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            path = cmd_simulate(args.config, args.out)
            print(f"wrote {path}")
        elif args.command == "fit":
            result = cmd_fit(
                args.trace, args.model, args.out,
                mode=args.mode, sign=args.sign, no_decay=args.no_decay,
            )
            if not result.converged:
                print(
                    f"fit did not converge after {result.n_iterations} iterations "
                    f"(rss={result.rss:.3e})",
                    file=sys.stderr,
                )
                return 2
            print(json.dumps(_fit_report(result), indent=2, sort_keys=True))
        elif args.command == "scan":
            path = cmd_scan(args.config, args.out)
            print(f"wrote {path}")
        elif args.command == "presets":
            cmd_presets(args.list, args.dump)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError is a ValueError, so it is caught before the input errors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, FitInputError and any other rejected input
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

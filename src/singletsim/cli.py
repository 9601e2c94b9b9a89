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
import math
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


_REQUIRED = object()


def _block(mapping: dict, key: str, context: str, default=_REQUIRED) -> dict:
    """Block `key` of `mapping`, a JSON object; absent gives `default` (required without one)."""
    name = f"{context}.{key}" if context else key
    if key not in mapping:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field {name}")
        return default
    block = mapping[key]
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    return block


def _is_number(value, kind: type = float) -> bool:
    """Whether a parsed JSON value is a finite number (a whole one for int); bools are not."""
    return type(value) in ((int,) if kind is int else (int, float)) and math.isfinite(value)


def _number(block: dict, key: str, context: str, default=_REQUIRED, kind: type = float):
    """Numeric field `key` of a config block as `kind`; only a finite JSON number passes.

    An absent or null field gives `default` (required without one); other values are ConfigErrors.
    """
    value = block.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field {context}.{key}")
        return default
    if not _is_number(value, kind):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{context}.{key} must be {what}, got {value!r}")
    return kind(value)


def _number_list(value, field: str, kind: type = float, length: int | None = None) -> list:
    """A JSON list of finite numbers (of `length` items when given); anything else is a ConfigError."""
    if not (isinstance(value, list) and all(_is_number(v, kind) for v in value)
            and (length is None or len(value) == length)):
        what = "integers" if kind is int else "finite numbers"
        count = "a list of" if length is None else f"a list of {length}"
        raise ConfigError(f"{field} must be {count} {what}, got {value!r}")
    return value


def _build_system(block: dict) -> tuple[SpinSystem, float]:
    spectrometer = _number(block, "spectrometer_mhz", "system", 200.0)
    spins = _require(block, "spins", "system")
    if not (isinstance(spins, list) and all(isinstance(spin, dict) for spin in spins)):
        raise ConfigError(f"system.spins must be a list of JSON objects, got {spins!r}")
    offsets = []
    for i, spin in enumerate(spins):
        if "offset_hz" in spin:
            offsets.append(_number(spin, "offset_hz", f"system.spins[{i}]"))
        elif "shift_ppm" in spin:
            offsets.append(ppm_to_hz(_number(spin, "shift_ppm", f"system.spins[{i}]"), spectrometer))
        else:
            raise ConfigError(f"system.spins[{i}] needs shift_ppm or offset_hz")
    couplings = _require(block, "couplings_hz", "system")
    if not isinstance(couplings, list):
        raise ConfigError(f"system.couplings_hz must be a list of rows, got {couplings!r}")
    for i, row in enumerate(couplings):
        _number_list(row, f"system.couplings_hz[{i}]")
    pairs = block.get("pairs", [])
    if not isinstance(pairs, list):
        raise ConfigError(f"system.pairs must be a list of spin-index pairs, got {pairs!r}")
    pairs = tuple(tuple(_number_list(p, f"system.pairs[{k}]", int, 2)) for k, p in enumerate(pairs))
    try:
        system = SpinSystem(np.array(offsets), np.array(couplings, dtype=float), pairs)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc
    return system, spectrometer


def _build_lock(spec: dict, key: str, spectrometer: float, system: SpinSystem) -> SpinLockParams:
    block, context = _block(spec, key, "protocol"), f"protocol.{key}"
    nutation = _number(block, "nutation_hz", context)
    phase = np.deg2rad(_number(block, "phase_deg", context, 0.0))
    if "transmitter_offset_hz" in block:
        tx = _number(block, "transmitter_offset_hz", context)
    elif "transmitter_ppm" in block:
        tx = ppm_to_hz(_number(block, "transmitter_ppm", context), spectrometer)
    elif "transmitter_pair" in block:
        tx = pair_center_offset(system, _number(block, "transmitter_pair", context, kind=int))
    else:
        tx = pair_center_offset(system, 0)
    try:
        return SpinLockParams(nutation, phase, tx)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _build_sweep(spec: dict, key: str) -> np.ndarray:
    block, context = _block(spec, key, "protocol"), f"protocol.{key}"
    if "values" in block:
        return np.array(_number_list(block["values"], f"{context}.values"), dtype=float)
    start, stop = _number(block, "start", context), _number(block, "stop", context)
    return np.linspace(start, stop, _number(block, "count", context, kind=int))


def _build_prep(spec: dict) -> PrepSpec:
    block = _block(spec, "prep", "protocol", {})
    timings = {k: _number(block, k, "protocol.prep", None)
               for k in ("nutation_hz", "duration_s", "tau1_s", "tau2_s", "tau3_s")}
    try:
        return PrepSpec(
            kind=block.get("kind", "ideal"),
            **timings,
            phase=np.deg2rad(_number(block, "phase_deg", "protocol.prep", 0.0)),
            polarization=_number(block, "polarization", "protocol.prep", 1.0),
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
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {raw!r}")

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
        system, spectrometer = _build_system(_block(raw, "system", ""))

    proto_spec = _block(raw, "protocol", "")
    kind = _require(proto_spec, "kind", "protocol")
    transfer = _build_lock(proto_spec, "transfer", spectrometer, system)
    sweep = _build_sweep(proto_spec, "sweep")
    free_lock = _build_lock(proto_spec, "free_lock", spectrometer, system) if "free_lock" in proto_spec else None
    scan_tau = _build_sweep(proto_spec, "scan_tau") if "scan_tau" in proto_spec else None
    phases = proto_spec.get("double_rabi_phases_deg", [90.0, -90.0])
    _number_list(phases, "protocol.double_rabi_phases_deg", length=2)
    phase_cycle = proto_spec.get("phase_cycle", False)
    if type(phase_cycle) is not bool:
        raise ConfigError(f"protocol.phase_cycle must be true or false, got {phase_cycle!r}")
    try:
        protocol = Protocol(
            kind=kind,
            sweep=sweep,
            transfer=transfer,
            source_pair=_number(proto_spec, "source_pair", "protocol", 0, int),
            readout_pair=_number(proto_spec, "readout_pair", "protocol", 1, int),
            prep=_build_prep(proto_spec),
            triplet_init=proto_spec.get("triplet_init", "uniform"),
            readout=proto_spec.get("readout", "projector"),
            phase_cycle=phase_cycle,
            pi_half_duration_s=_number(proto_spec, "pi_half_duration_s", "protocol", None),
            free_lock=free_lock,
            double_rabi_phases=(np.deg2rad(float(phases[0])), np.deg2rad(float(phases[1]))),
            pump_transfer_duration_s=_number(proto_spec, "pump_transfer_duration_s", "protocol", None),
            pump_reset_delay_s=_number(proto_spec, "pump_reset_delay_s", "protocol", None),
            scan_tau_grid_s=scan_tau,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc

    envelope = None
    if "envelope" in raw:
        env_spec = dict(_block(raw, "envelope", ""))
        if "t2s_star_s" in env_spec:
            env_spec["t_2s_star_s"] = env_spec.pop("t2s_star_s")
        names = [f.name for f in fields(RelaxationEnvelope)]
        unknown = sorted(set(env_spec) - set(names))
        if unknown:
            raise ConfigError(f"envelope: unknown field {unknown[0]!r}")
        times = {k: _number(env_spec, k, "envelope", None) for k in names}
        try:
            envelope = RelaxationEnvelope(**times)
        except ValueError as exc:
            raise ConfigError(f"envelope: {exc}") from exc

    noise_sigma = None
    noise_seed = None
    if "noise" in raw:
        noise = _block(raw, "noise", "")
        noise_sigma = _number(noise, "sigma", "noise")
        if noise_sigma < 0:
            raise ConfigError("noise.sigma must be >= 0")
        if noise_sigma > 0:
            if "seed" not in noise:
                raise ConfigError("noise.seed is required when noise is enabled")
            noise_seed = _number(noise, "seed", "noise", kind=int)

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
        "params": result.params,
        "uncertainties": result.uncertainties,
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

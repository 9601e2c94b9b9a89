"""Configuration-driven command line front end.

Subcommands: simulate (run a protocol, write a trace CSV), fit (fit a model
to a trace file), scan (resonance scan plus Lorentzian summary), presets
(list or dump the molecule presets).  Configs are JSON documents with
explicit units in the field names.  `_PROTOCOL_KEYS`, `_PREP_KEYS` and
`_ENVELOPE_KEYS` map each config key to its field, its reader and its
writer; a protocol, prep or envelope block takes only the keys of the fields
its kind reads (`sequences.PROTOCOL_FIELDS`, `PREP_FIELDS`, `ENVELOPE_FIELDS`),
an absent key takes its dataclass default, and any other key, in any block,
is an input error naming it.  Every output file embeds, as its ``# config:``
line, the fields its kinds read, serialised from the objects the run was
built from, so that line loads back as a config and reproduces the run.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import MODEL_FITTERS, FitInputError, FitResult, evaluate_model, fit_lorentzian
from .hamiltonian import SpinLockParams, pair_center_offset
from .presets import PRESETS, ppm_to_hz, preset_params, preset_system
from .propagator import RelaxationEnvelope
from .sequences import ENVELOPE_FIELDS, PREP_FIELDS, PROTOCOL_FIELDS, PrepSpec, Protocol, run_protocol
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
        raise ConfigError(f"missing required field {f'{context}.{key}' if context else key}")
    return mapping[key]


def _check_keys(block: dict, known, context: str, reads=None, kind: str = "") -> None:
    """Raise naming the first key of `block` outside `known`, or outside `reads`, the keys a `kind` reads."""
    for key in block:
        name = f"{context}.{key}" if context else key
        if key not in known:
            raise ConfigError(f"unknown field {name}")
        if reads is not None and key not in reads:
            raise ConfigError(f"{name} is not read by kind {kind!r}")


def _block(mapping: dict, key: str, context: str, known=None) -> dict:
    """Required block `key` of `mapping`: a JSON object, with no key outside `known` when given."""
    name, block = f"{context}.{key}" if context else key, _require(mapping, key, context)
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    if known is not None:
        _check_keys(block, known, name)
    return block


def _is_number(value, kind: type = float) -> bool:
    """Whether a parsed JSON value is a finite number (a whole one for int); bools are not."""
    return type(value) in ((int,) if kind is int else (int, float)) and math.isfinite(value)


def _number(block: dict, key: str, context: str, at=None, kind: type = float):
    """Required field `key` of config block `context`, a finite JSON number, as `kind`; the reader of a real field."""
    value = _require(block, key, context)
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


def _one_key(block: dict, keys: tuple[str, ...], context: str, required: bool = False) -> str | None:
    """The one of `keys` that `block` gives, or None.

    More than one, or none when one is required, is a ConfigError.
    """
    given = [key for key in keys if key in block]
    if len(given) > 1 or (required and not given):
        raise ConfigError(f"{context} needs {'exactly' if required else 'at most'} one of "
                          f"{', '.join(keys)}, got {given or 'none'}")
    return given[0] if given else None


def _build_system(block: dict) -> tuple[SpinSystem, float]:
    spectrometer = _number(block, "spectrometer_mhz", "system") if "spectrometer_mhz" in block else 200.0
    spins = _require(block, "spins", "system")
    if not (isinstance(spins, list) and all(isinstance(spin, dict) for spin in spins)):
        raise ConfigError(f"system.spins must be a list of JSON objects, got {spins!r}")
    offsets = []
    for i, spin in enumerate(spins):
        _check_keys(spin, ("offset_hz", "shift_ppm"), f"system.spins[{i}]")
        key = _one_key(spin, ("offset_hz", "shift_ppm"), f"system.spins[{i}]", required=True)
        value = _number(spin, key, f"system.spins[{i}]")
        offsets.append(value if key == "offset_hz" else ppm_to_hz(value, spectrometer))
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


# A reader takes (block, key, context, (system, spectrometer)) and returns the
# value of field `key` of config block `context`; a writer returns a built value as JSON.

def _radians(block: dict, key: str, context: str, at=None) -> float:
    return np.deg2rad(_number(block, key, context))


def _positive(block: dict, key: str, context: str, at=None) -> float:
    if (value := _number(block, key, context)) <= 0:
        raise ConfigError(f"{context}.{key} must be positive, got {value}")
    return value


def _flag(block: dict, key: str, context: str, at) -> bool:
    if type(block[key]) is not bool:
        raise ConfigError(f"{context}.{key} must be true or false, got {block[key]!r}")
    return block[key]


def _build_lock(spec: dict, key: str, context: str, at: tuple[SpinSystem, float]) -> SpinLockParams:
    (system, spectrometer), positions = at, ("transmitter_offset_hz", "transmitter_ppm", "transmitter_pair")
    block, context = _block(spec, key, context, ("nutation_hz", "phase_deg", *positions)), f"{context}.{key}"
    phase = {"phase": _radians(block, "phase_deg", context)} if "phase_deg" in block else {}
    key = _one_key(block, positions, context)
    if key == "transmitter_offset_hz":
        tx = _number(block, key, context)
    elif key == "transmitter_ppm":
        tx = ppm_to_hz(_number(block, key, context), spectrometer)
    else:  # a pair's centre, pair 0's when no position is given
        tx = pair_center_offset(system, _number(block, key, context, kind=int) if key else 0)
    try:
        return SpinLockParams(_number(block, "nutation_hz", context), transmitter_offset_hz=tx, **phase)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _build_sweep(spec: dict, key: str, context: str, at) -> np.ndarray:
    block, context = _block(spec, key, context, ("values", "start", "stop", "count")), f"{context}.{key}"
    if "values" in block:
        if len(block) > 1:
            raise ConfigError(f"{context} gives values, so it takes no start, stop or count, got {sorted(block)}")
        return np.array(_number_list(block["values"], f"{context}.values"), dtype=float)
    start, stop = _number(block, "start", context), _number(block, "stop", context)
    count = _number(block, "count", context, kind=int)
    if count < 1:
        raise ConfigError(f"{context}.count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


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
    return {"nutation_hz": lock.nutation_hz, "phase_deg": _degrees(lock.phase),
            "transmitter_offset_hz": lock.transmitter_offset_hz}


def _fields(block: dict, table: dict, reads: tuple[str, ...], context: str, kind: str, at=None) -> dict:
    """The fields `block` gives, by the readers of `table`; a key outside it, or not in `reads`, is a ConfigError."""
    _check_keys(block, table, context, [key for key, (name, *_) in table.items() if name in reads], kind)
    return {table[key][0]: table[key][1](block, key, context, at) for key in block}


def _build(cls, rows: dict, table: dict, block: dict, context: str, at=None):
    """The `cls` (Protocol or PrepSpec) of the kind `block` names, from its row's `_fields`, or a ConfigError."""
    block = dict(block)
    kind = block.pop("kind", getattr(cls, "kind", None))  # PrepSpec's default kind
    if not isinstance(kind, str) or kind not in rows:
        raise ConfigError(f"{context}.kind must be one of {', '.join(rows)}, got {kind!r}")
    values = _fields(block, table, rows[kind], context, kind, at)
    try:
        return cls(kind, **values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _written(built, rows: dict, table: dict) -> dict:
    """The config block of a built Protocol or PrepSpec: its kind and each field its kind reads, under its key."""
    return {"kind": built.kind, **{key: getattr(built, name) if write is None else write(getattr(built, name))
                                   for key, (name, _, write) in table.items() if name in rows[built.kind]}}


def _build_prep(spec: dict, key: str, context: str, at) -> PrepSpec:
    return _build(PrepSpec, PREP_FIELDS, _PREP_KEYS, _block(spec, key, context), f"{context}.{key}")


# config key -> (field, reader, writer); no writer writes the value as it is
_PREP_KEYS = {
    **{name: (name, _number, None) for name in ("nutation_hz", "duration_s", "tau1_s", "tau2_s", "tau3_s")},
    "phase_deg": ("phase", _radians, _degrees),
    "polarization": ("polarization", _number, None),
}
_PROTOCOL_KEYS = {
    "sweep": ("sweep", _build_sweep, lambda grid: {"values": grid.tolist()}),
    "transfer": ("transfer", _build_lock, _lock_block),
    **{name: (name, partial(_number, kind=int), None) for name in ("source_pair", "readout_pair")},
    "prep": ("prep", _build_prep, lambda prep: _written(prep, PREP_FIELDS, _PREP_KEYS)),
    **{name: (name, lambda block, key, *_: block[key], None) for name in ("triplet_init", "readout")},
    "phase_cycle": ("phase_cycle", _flag, None),
    "pi_half_duration_s": ("pi_half_duration_s", _number, None),
    "free_lock": ("free_lock", _build_lock, _lock_block),
    "double_rabi_phases_deg": (
        "double_rabi_phases",
        lambda block, key, context, at: tuple(np.deg2rad(_number_list(block[key], f"{context}.{key}", length=2))),
        lambda phases: [_degrees(phase) for phase in phases],
    ),
    **{name: (name, _number, None) for name in ("pump_transfer_duration_s", "pump_reset_delay_s")},
    "scan_tau": ("scan_tau_grid_s", _build_sweep, lambda grid: {"values": grid.tolist()}),
}
_ENVELOPE_KEYS = {key: (name, _positive, None) for key, name in (
    ("t_s_s", "t_s_s"), ("t2s_star_s", "t_2s_star_s"), ("t_2s_star_s", "t_2s_star_s"), ("t_rabi_s", "t_rabi_s"))}


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration; an absent field takes its dataclass default."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {raw!r}")
    _check_keys(raw, ("preset", "system", "protocol", "envelope", "noise"), "")

    if ("preset" in raw) == ("system" in raw):
        raise ConfigError("exactly one of 'preset' or 'system' must be given")
    if "preset" in raw:
        name = raw["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        system = preset_system(name)
        spectrometer = preset_params(name)["spectrometer_mhz"]
    else:
        system, spectrometer = _build_system(
            _block(raw, "system", "", ("spectrometer_mhz", "spins", "couplings_hz", "pairs")))
    protocol = _build(Protocol, PROTOCOL_FIELDS, _PROTOCOL_KEYS, _block(raw, "protocol", ""), "protocol",
                      (system, spectrometer))

    envelope = None
    if "envelope" in raw:
        block, kind = _block(raw, "envelope", ""), protocol.kind
        _one_key(block, ("t2s_star_s", "t_2s_star_s"), "envelope")
        envelope = RelaxationEnvelope(**_fields(block, _ENVELOPE_KEYS, ENVELOPE_FIELDS[kind], "envelope", kind))

    noise_sigma = noise_seed = None
    if "noise" in raw:
        noise = _block(raw, "noise", "", ("sigma", "seed"))
        noise_sigma = _number(noise, "sigma", "noise")
        if noise_sigma < 0:
            raise ConfigError("noise.sigma must be >= 0")
        if noise_sigma > 0:
            noise_seed = _number(noise, "seed", "noise", kind=int)
            if noise_seed < 0:
                raise ConfigError(f"noise.seed must be >= 0, got {noise_seed}")

    return RunConfig(system, protocol, envelope, noise_sigma, noise_seed)


def _config_line(config: RunConfig) -> str:
    """The '# config:' header line: the run config as built, in the schema load_config reads.

    Every value is taken from the built objects (offsets and transmitters in Hz, phases in degrees that
    convert back exactly, sweeps as explicit values), and each protocol and prep block holds the fields its
    kind reads, so loading the JSON rebuilds the same objects.
    """
    system = config.system
    out = {
        "system": {
            "spins": [{"offset_hz": offset} for offset in system.offsets_hz.tolist()],
            "couplings_hz": system.couplings_hz.tolist(),
            "pairs": [list(pair) for pair in system.pairs],
        },
        "protocol": _written(config.protocol, PROTOCOL_FIELDS, _PROTOCOL_KEYS),
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run
    trace = run_protocol(config.system, config.protocol, config.envelope)
    if config.noise_sigma:
        rng = np.random.default_rng(config.noise_seed)
        noisy = trace.observable + rng.normal(0.0, config.noise_sigma, trace.observable.shape)
        trace = trace.copy_with(observable=noisy)
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


# fit flag -> (the one model that takes it, its fitter keyword); the fitters state the defaults
_FIT_FLAGS = {"mode": ("rabi", "mode"), "no_decay": ("rabi", "with_decay"), "sign": ("ramsey", "sign")}


def cmd_fit(trace_path: str, model: str, out_path: str, mode: str | None = None,
            sign: int | None = None, no_decay: bool | None = None) -> FitResult:
    """Fit a model to a trace file; write a JSON report and a fitted-curve CSV.

    mode, sign and no_decay are the fit flags, None when not given; a flag
    the model does not take is a ConfigError.
    """
    if model not in MODEL_FITTERS:
        raise ConfigError(f"unknown model {model!r}; available: {sorted(MODEL_FITTERS)}")
    settings = {}
    for flag, value in {"mode": mode, "no_decay": no_decay, "sign": sign}.items():
        if value is None:
            continue
        takes, keyword = _FIT_FLAGS[flag]
        if takes != model:
            raise ConfigError(f"--{flag.replace('_', '-')} applies only to --model {takes}")
        settings[keyword] = not value if flag == "no_decay" else value
    x, y = read_trace_file(trace_path)
    result = MODEL_FITTERS[model]((x, y), **settings)
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
    if config.noise_sigma is not None:
        raise ConfigError("noise is not read by scan")  # scan.csv holds fitted amplitudes, not a noisy observable
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run
    trace = run_protocol(config.system, config.protocol, config.envelope)
    delta_nu = np.asarray(trace.metadata["delta_nu_n_hz"])
    freqs = np.asarray(trace.metadata["fitted_frequency_hz"])
    valid = np.isfinite(trace.observable)
    out_path = out / "scan.csv"
    lines = [
        "# singletsim resonance scan",
        _config_line(config),
        "# columns: nutation_hz,delta_nu_n_hz,amplitude,fitted_frequency_hz",
    ]
    # a per-point fit failure's row is omitted; the Lorentzian fits the values as written
    columns = np.column_stack([trace.sweep_values, delta_nu, trace.observable, freqs])[valid]
    rows = [[_format(v) for v in row] for row in columns]
    lines += [",".join(row) for row in rows]
    written = np.array(rows, dtype=float).reshape(-1, 4)
    try:
        fit = fit_lorentzian((written[:, 1], written[:, 2]))
        lines.append(f"# lorentzian: {json.dumps(_fit_report(fit), sort_keys=True)}")
    except FitInputError as exc:
        print(f"warning: {len(rows)} valid scan points, skipping Lorentzian fit: {exc}", file=sys.stderr)
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
    # model-specific flags default to None, "not given"; the fitters state the defaults
    p_fit.add_argument("--mode", default=None, choices=["sin2", "cos2"], help="rabi only")
    p_fit.add_argument("--sign", type=int, default=None, choices=[1, -1], help="ramsey only")
    p_fit.add_argument("--no-decay", action="store_true", default=None, help="rabi only")

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
    except (ValueError, OSError) as exc:  # ConfigError, FitInputError, a path that cannot be read or written
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

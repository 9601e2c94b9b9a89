"""Every documented behaviour of the `singletsim` command line, one `Case` row each, and one runner for the rows.

A row states a command line, the input it runs on and what the run must
do: its exit code, a text its stderr holds, and, for a run that exits 0, a
check of what it wrote.  Every run that exits 1 prints an input error
(stderr starts "input error: ") and leaves no --out behind; every run that
exits 0 prints nothing to stderr.

A row's input is a config, shipped (by its file stem) or one of
`INPUT_CONFIGS`, with the row's edits applied, or one of `TRACES` with the
row's edit applied to its data rows.  A row that fits `{trace}` from a
config fits the trace of simulating that config.

`tests/test_cli_cases.py` runs every row in process through `cli.main`.
Run as a script, this module runs every row through the installed
`singletsim` console script, with numpy's RuntimeWarnings as errors, and
exits 1 if any row fails:

    python tests/cli_cases.py
"""

from __future__ import annotations

import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from singletsim.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
DELETE = object()  # an edit value that removes its key


def strict_json(text: str):
    """Parse JSON as RFC 8259 has it: Infinity, -Infinity and NaN are errors."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


SLIC_PREP = {"kind": "slic", "nutation_hz": 15.5, "duration_s": 0.157, "phase_deg": 30.0, "polarization": 0.8}
THREE_PULSE_PREP = {"kind": "three_pulse", "tau1_s": 0.007, "tau2_s": 0.0205, "tau3_s": 0.00925, "polarization": 0.9}
# one config per protocol kind; each sets every key its kind reads, with a non-default value where a key has one
ALL_FIELDS_CONFIGS = {
    "rabi": {
        "preset": "glutamate",
        "protocol": {
            "kind": "rabi", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_plus", "prep": SLIC_PREP,
            "readout": "signal_proxy", "phase_cycle": True,
            "transfer": {"nutation_hz": 599.31, "transmitter_ppm": 2.30, "phase_deg": 20.0},
            "sweep": {"start": 0.02, "stop": 1.5, "count": 8},
        },
        "envelope": {"t_rabi_s": 2.0},
        "noise": {"sigma": 0.01, "seed": 7},
    },
    "ramsey": {
        "preset": "glutamate",
        "protocol": {
            "kind": "ramsey", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_plus", "prep": SLIC_PREP,
            "readout": "signal_proxy", "phase_cycle": True,
            "transfer": {"nutation_hz": 599.31, "transmitter_ppm": 2.04, "phase_deg": 20.0},
            "pi_half_duration_s": 0.1,
            "free_lock": {"nutation_hz": 47.0, "transmitter_pair": 1, "phase_deg": 10.0},
            "sweep": {"start": 0.01, "stop": 1.0, "count": 8},
        },
        "envelope": {"t_s_s": 4.4, "t2s_star_s": 1.3},
        "noise": {"sigma": 0.01, "seed": 7},
    },
    "double_rabi": {
        "preset": "glutamate",
        "protocol": {
            "kind": "double_rabi", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_minus",
            "prep": THREE_PULSE_PREP, "readout": "signal_proxy", "phase_cycle": True,
            "transfer": {"nutation_hz": 500.0, "transmitter_offset_hz": 434.0, "phase_deg": 20.0},
            "double_rabi_phases_deg": [80.0, -100.0],
            "sweep": {"start": 0.005, "stop": 0.45, "count": 8},
        },
        "envelope": {"t_rabi_s": 2.0},
        "noise": {"sigma": 0.01, "seed": 7},
    },
    "pumping": {
        "preset": "phe-gly-gly",
        "protocol": {
            "kind": "pumping", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_plus",
            "prep": THREE_PULSE_PREP, "transfer": {"nutation_hz": 250.3, "transmitter_pair": 1, "phase_deg": 20.0},
            "pump_transfer_duration_s": 15.5, "pump_reset_delay_s": 3.1,
            "sweep": {"values": [1, 2, 3, 4]},
        },
        "envelope": {"t_s_s": 25.0},
        "noise": {"sigma": 0.01, "seed": 7},
    },
    "resonance_scan": {
        "preset": "glutamate",
        "protocol": {
            "kind": "resonance_scan", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_minus",
            "prep": SLIC_PREP, "transfer": {"nutation_hz": 500.0, "transmitter_ppm": 2.30, "phase_deg": 20.0},
            "sweep": {"values": [560.0, 600.0, 640.0]},
            "scan_tau": {"start": 0.02, "stop": 1.5, "count": 40},
        },
        "envelope": {"t_rabi_s": 2.0},
        "noise": {"sigma": 0.01, "seed": 7},
    },
}
TWO_SPINS = {"spins": [{"offset_hz": 200.0}, {"offset_hz": 190.0}], "couplings_hz": [[0.0, 7.0], [7.0, 0.0]]}
INPUT_CONFIGS = {
    **{f"all_fields_{kind}": config for kind, config in ALL_FIELDS_CONFIGS.items()},
    "two_spins": {  # an explicit system of one pair, which is source and readout pair
        "system": {**TWO_SPINS, "pairs": [[0, 1]]},
        "protocol": {"kind": "rabi", "readout_pair": 0, "sweep": {"values": [0.1, 0.2, 0.3]},
                     "transfer": {"nutation_hz": 100.0, "transmitter_offset_hz": 195.0}},
    },
}


def synthetic_trace(kind: str) -> list[str]:
    """The lines of a 150-point trace file: a decaying 2.57 Hz Rabi, or a 2.33 Hz Ramsey, trace."""
    t = np.linspace(0.01, 3.0, 150)
    if kind == "rabi":
        y = 0.9 * (np.sin(np.pi * 2.57 * t) ** 2 + 0.05) * np.exp(-t / 1.6)
    else:
        y = (np.cos(2 * np.pi * 2.33 * t - 0.3) * np.exp(-t / 1.3) + 0.2) * np.exp(-t / 4.4)
    return ["# synthetic"] + [f"{a:.12g},{b:.12g}" for a, b in zip(t, y)]


TRACES = {f"{kind}_trace": synthetic_trace(kind) for kind in ("rabi", "ramsey")}


def edited(name: str, edit: dict) -> dict:
    """Config `name` with each dotted path of `edit` (list items as [i]) set to its value, or removed by DELETE."""
    config = copy.deepcopy(INPUT_CONFIGS[name]) if name in INPUT_CONFIGS else json.loads(
        (CONFIG_DIR / f"{name}.json").read_text())
    for path, value in edit.items():
        *parents, key = [int(part) if part.isdigit() else part for part in re.findall(r"[^.\[\]]+", path)]
        target = config
        for part in parents:
            target = target[part]
        if value is DELETE:
            del target[key]
        else:
            target[key] = copy.deepcopy(value)
    return config


def fitted(**expected) -> Callable[[Path, str], None]:
    """The check of a fit: its report is converged strict JSON, which stdout prints too, and each named
    parameter lies within (value, relative tolerance), or is null with its uncertainty when None."""
    def check(out: Path, stdout: str) -> None:
        report = strict_json(out.read_text())
        assert strict_json(stdout) == report, "stdout differs from the report"
        assert report["converged"] is True, report
        for name, want in expected.items():
            got = report["params"][name]
            if want is None:
                assert got is None and report["uncertainties"][name] is None, (name, got)
            else:
                assert abs(got / want[0] - 1) < want[1], f"{name} = {got}, not {want[0]} within {want[1]:.0%}"
    return check


def lorentzian_header(out: Path, stdout: str) -> None:
    """The check of a scan: scan.csv's '# lorentzian:' line is strict JSON."""
    lines = (out / "scan.csv").read_text().splitlines()
    strict_json(next(line for line in lines if line.startswith("# lorentzian:")).split(":", 1)[1])


def printed(*words: str) -> Callable[[Path, str], None]:
    """The check of a run that writes no file: each of `words` is a word of its stdout."""
    def check(out: Path, stdout: str) -> None:
        missing = [word for word in words if word not in stdout.split()]
        assert not missing, f"stdout {stdout!r} lacks {missing}"
    return check


def _bad_point(value: str) -> Callable[[list[str]], list[str]]:
    """The trace edit that makes the 40th point's observable `value`."""
    return lambda rows: [*rows[:39], f"{rows[39].split(',')[0]},{value}", *rows[40:]]


@dataclass(frozen=True)
class Case:
    """One documented CLI behaviour: a command line, its input and what the run does."""

    name: str
    argv: str  # after `singletsim`; {tmp}, {config}, {trace} and {out} are paths the runner makes
    input: str = ""  # a config or a trace of `TRACES`
    edit: dict | Callable[[list[str]], list[str]] | None = None  # a config edit, or a trace's rows -> rows
    code: int = 0
    stderr: str = ""  # a text stderr holds
    check: Callable[[Path, str], None] | None = None  # of (--out, stdout), for a run that exits 0


SIMULATE = "simulate --config {config} --out {out}"
SCAN = "scan --config {config} --out {out}"


def fit(model: str, flags: str = "") -> str:
    return f"fit --trace {{trace}} --model {model} {flags} --out {{out}}"


LOCK_POSITIONS = "transmitter_offset_hz, transmitter_ppm, transmitter_pair"
REVERSED, DOUBLED = (lambda rows: rows[::-1]), (lambda rows: [row for row in rows for _ in range(2)])
UNPAIRED_THIRD_SPIN = {"system.spins": [{"offset_hz": 200.0}, {"offset_hz": 190.0}, {"offset_hz": 100.0}],
                       "system.couplings_hz": [[0.0, 7.0, 0.0], [7.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}

CASES = [
    # the shipped runs' fit reports and scan header are strict JSON (a non-finite number is null)
    Case("rabi_fit_of_the_shipped_rabi_config", fit("rabi"), "glutamate_rabi", check=fitted()),
    Case("ramsey_fit_of_the_shipped_ramsey_config", fit("ramsey"), "glutamate_ramsey_proxy", check=fitted()),
    Case("exponential_fit_of_the_shipped_pumping_config", fit("exponential"), "pgg_pumping", check=fitted()),
    Case("lorentzian_header_of_the_shipped_scan", SCAN, "glutamate_scan", check=lorentzian_header),
    # on 125 sorted seeded-random times the Rabi config's fit finds the uniform sweep's 2.566 Hz within 1 %
    Case("rabi_fit_on_random_sweep_times", fit("rabi"), "glutamate_rabi",
         {"protocol.sweep": {"values": np.sort(np.random.default_rng(125).uniform(0.02, 2.5, 125)).tolist()}},
         check=fitted(frequency_hz=(2.566, 0.01))),
    # without its envelope, fitted with decay: the rate ends on its bound r = 0, so T = 1/r is null
    Case("undamped_rabi_fit_with_decay", fit("rabi"), "glutamate_rabi", {"envelope": DELETE},
         check=fitted(frequency_hz=(2.57, 0.02), t_rabi_s=None)),

    Case("presets_lists_every_preset", "presets", check=printed("glutamate", "phe-gly-gly")),
    Case("help", "--help", check=printed("usage:", "simulate", "fit", "scan", "presets")),
    Case("presets_help", "presets --help", check=printed("usage:", "--dump")),

    # a usage error is an input error: argparse's message, exit 1 and no --out
    Case("fit_of_an_unknown_model", fit("gaussian"), "rabi_trace", code=1,
         stderr="input error: argument --model: invalid choice: 'gaussian'"),
    Case("simulate_without_config", "simulate --out {out}", code=1,
         stderr="input error: the following arguments are required: --config"),
    Case("unknown_subcommand", "bogus --out {out}", code=1,
         stderr="input error: argument command: invalid choice: 'bogus'"),

    # input errors of fit: the report is not written
    Case("trace_path_that_is_a_directory", "fit --trace {tmp} --model rabi --out {out}", code=1,
         stderr="Is a directory"),
    Case("trace_of_one_column", fit("rabi"), "rabi_trace", lambda rows: ["justtext"], 1,
         "expected at least 2 columns, got 1"),
    *(Case(f"{bad}_point_in_a_{model}_fit", fit(model), "rabi_trace", _bad_point(bad), 1,
           "input error: fit data must be finite") for model in ("rabi", "ramsey", "lorentzian", "exponential")
      for bad in ("nan", "inf")),
    *(Case(f"{order}_times_in_a_{model}_fit", fit(model), f"{'ramsey' if model == 'ramsey' else 'rabi'}_trace",
           edit, 1, "input error: sweep times must be strictly increasing")
      for model in ("rabi", "ramsey", "exponential") for order, edit in (("reversed", REVERSED), ("doubled", DOUBLED))),
    *(Case(f"{model}_fit_given_{flags.split()[0][2:]}", fit(model, flags), "ramsey_trace", code=1,
           stderr=f"input error: {flags.split()[0]} applies only to --model ")
      for model, flags in (("ramsey", "--no-decay"), ("ramsey", "--mode sin2"), ("exponential", "--mode cos2"),
                           ("lorentzian", "--no-decay"), ("rabi", "--sign 1"), ("exponential", "--sign -1"))),

    # input errors of a config: each exits before --out is made
    Case("missing_config", "simulate --config {tmp}/nope.json --out {out}", code=1,
         stderr="input error: config file not found"),
    *(Case(f"{name}_preset", SIMULATE, "glutamate_rabi", {"preset": value}, 1,
           f"input error: unknown preset {value!r}; available: ['glutamate', 'phe-gly-gly']")
      for name, value in (("list", ["glutamate"]), ("object", {}))),
    Case("fractional_pumping_cycles", SIMULATE, "pgg_pumping", {"protocol.sweep": {"values": [0.5, 1, 2]}}, 1,
         "input error: protocol: pumping sweep must contain positive integer cycle counts"),
    Case("noise_in_a_scan", SCAN, "glutamate_scan", {"noise": {"sigma": 0.05, "seed": 3}}, 1,
         "input error: noise is not read by scan"),
    Case("signal_proxy_in_pumping", SIMULATE, "pgg_pumping", {"protocol.readout": "signal_proxy"}, 1,
         "input error: protocol.readout is not read by kind 'pumping'"),
    Case("signal_proxy_in_a_scan", SCAN, "glutamate_scan", {"protocol.readout": "signal_proxy"}, 1,
         "input error: protocol.readout is not read by kind 'resonance_scan'"),
    Case("unassigned_readout_pair", SIMULATE, "glutamate_rabi", {"protocol.readout_pair": 2}, 1,
         "input error: protocol.readout_pair: pair 2 is not assigned in this system"),
    Case("unassigned_source_pair_in_a_scan", SCAN, "glutamate_scan", {"protocol.source_pair": 3}, 1,
         "input error: protocol.source_pair: pair 3 is not assigned in this system"),
    Case("pairs_that_leave_a_spin_out", SIMULATE, "two_spins", UNPAIRED_THIRD_SPIN, 1,
         "input error: system.pairs: pair assignments do not cover all spins"),
    Case("list_triplet_init", SIMULATE, "glutamate_rabi", {"protocol.triplet_init": [1, 0, 0]}, 1,
         "input error: protocol: triplet_init must be one of"),
    *(Case(f"{name}_double_rabi_phase", SIMULATE, "glutamate_rabi",
           {"protocol.kind": "double_rabi", "protocol.double_rabi_phases_deg": phases}, 1,
           "input error: protocol.double_rabi_phases_deg must be a list of 2 finite numbers")
      for name, phases in (("one", [90]), ("three", [90, -90, 0]))),
    Case("nan_sweep_value", SIMULATE, "glutamate_rabi", {"protocol.sweep": {"values": [0.1, None]}}, 1,
         "input error: protocol.sweep.values must be a list of finite numbers"),
    Case("sweep_with_values_and_count", SIMULATE, "glutamate_rabi",
         {"protocol.sweep": {"values": [0.1, 0.2], "count": 5}}, 1,
         "input error: protocol.sweep gives values, so it takes no start, stop or count"),
    *(Case(f"phase_cycle_{name}", SIMULATE, "glutamate_rabi",
           {"protocol.readout": "signal_proxy", "protocol.phase_cycle": value}, 1,
           "input error: protocol.phase_cycle must be true or false")
      for name, value in (("no", "no"), ("true_string", "true"), ("one", 1), ("null", None))),
    Case("phase_cycle_with_the_projector_readout", SIMULATE, "glutamate_rabi", {"protocol.phase_cycle": True}, 1,
         "input error: protocol: phase_cycle applies to the signal_proxy readout only"),
    *(Case(f"sweep_values_{name}", SIMULATE, "glutamate_rabi", {"protocol.sweep": {"values": values}}, 1,
           "input error: protocol.sweep.values must be a list")
      for name, values in (("strings", ["0.1", "0.5"]), ("bool", [0.1, True]), ("string", "0.1"))),
    *(Case(f"system_{name}", SIMULATE, "two_spins", {f"system.{field.split('.')[1].split('[')[0]}": value}, 1,
           f"input error: {field} must be a list")
      for name, value, field in (
          ("pair_strings", [["0", "1"]], "system.pairs[0]"), ("pair_float", [[0, 1.0]], "system.pairs[0]"),
          ("pair_triple", [[0, 1, 1]], "system.pairs[0]"), ("pairs_string", "01", "system.pairs"),
          ("coupling_string", [[0.0, "7"], [7.0, 0.0]], "system.couplings_hz[0]"),
          ("couplings_string", "[[0, 7], [7, 0]]", "system.couplings_hz"))),
    # a field of the wrong type, or out of its range, named
    *(Case(f"non_numeric_{name}", SIMULATE, f"all_fields_{kind}", {field: value}, 1, f"{field} must be")
      for name, kind, field, value in (
          ("source_pair", "rabi", "protocol.source_pair", [0]),
          ("pi_half_duration", "ramsey", "protocol.pi_half_duration_s", "0.1"),
          ("prep_nutation", "rabi", "protocol.prep.nutation_hz", "15"),
          ("envelope_nan", "rabi", "envelope.t_rabi_s", float("nan")),
          ("envelope_bool", "rabi", "envelope.t_rabi_s", True),
          ("envelope_string", "rabi", "envelope.t_rabi_s", "abc"),
          ("noise_sigma_nan", "rabi", "noise.sigma", float("nan")))),
    # named once, with no prefix of its lock block
    *(Case(f"non_numeric_{name}", SIMULATE, "all_fields_rabi", {"protocol.transfer.nutation_hz": value}, 1,
           f"input error: protocol.transfer.nutation_hz must be a finite number, got {shown}")
      for name, value, shown in (("transfer_nutation", [599.0], "[599.0]"),
                                 ("transfer_nutation_nan", float("nan"), "nan"))),
    *(Case(f"out_of_range_{name}", SIMULATE, f"all_fields_{kind}", {field: value}, 1, f"input error: {message}")
      for name, kind, field, value, message in (
          ("negative_sweep", "rabi", "protocol.sweep", {"values": [-1.0, 0.5]}, "protocol: sweep values must be >= 0"),
          ("negative_scan_tau", "resonance_scan", "protocol.scan_tau", {"values": [-0.1, 0.5]},
           "protocol: scan_tau_grid_s must be finite and >= 0"),
          ("decreasing_scan_tau", "resonance_scan", "protocol.scan_tau", {"values": [0.5, 0.1]},
           "protocol: scan_tau_grid_s must be nonempty and strictly increasing"),
          ("ideal_prep_phase", "rabi", "protocol.prep", {"phase_deg": 75.0},
           "protocol.prep.phase_deg is not read by kind 'ideal'"),
          ("three_pulse_prep_phase", "rabi", "protocol.prep", {**THREE_PULSE_PREP, "phase_deg": 75.0},
           "protocol.prep.phase_deg is not read by kind 'three_pulse'"),
          ("count_zero", "rabi", "protocol.sweep.count", 0, "protocol.sweep.count must be >= 1"),
          ("count_negative", "rabi", "protocol.sweep.count", -1, "protocol.sweep.count must be >= 1"),
          ("negative_seed", "rabi", "noise.seed", -1, "noise.seed must be >= 0"),
          ("polarization_high", "rabi", "protocol.prep.polarization", 2.0,
           "protocol.prep: polarization must lie in [-1, 1]"),
          ("polarization_low", "rabi", "protocol.prep.polarization", -1.5,
           "protocol.prep: polarization must lie in [-1, 1]"),
          ("t2s_star_nan", "ramsey", "envelope.t2s_star_s", float("nan"),
           "envelope.t2s_star_s must be a finite number"),
          ("t2s_star_negative", "ramsey", "envelope.t2s_star_s", -1.0, "envelope.t2s_star_s must be positive"),
          *((f"negative_{name}", kind, f"protocol.{key}", -20.5, f"protocol: {key} must be finite and >= 0, got -20.5")
            for name, kind, key in (("pi_half", "ramsey", "pi_half_duration_s"),
                                    ("pump_transfer", "pumping", "pump_transfer_duration_s"),
                                    ("pump_reset", "pumping", "pump_reset_delay_s"))),
          *((f"negative_{name}", kind, f"protocol.prep.{key}", -20.5,
             f"protocol.prep: {key} must be finite and >= 0, got -20.5")
            for name, kind, key in (("prep_duration", "rabi", "duration_s"), ("tau1", "double_rabi", "tau1_s"),
                                    ("tau2", "double_rabi", "tau2_s"), ("tau3", "double_rabi", "tau3_s"))))),
    *(Case(f"non_object_{name}", SIMULATE, f"all_fields_{kind}", {block: value}, 1,
           f"input error: {block} must be a JSON object, got {value!r}")
      for name, kind, block, value in (
          ("prep", "rabi", "protocol.prep", []), ("transfer", "rabi", "protocol.transfer", [1]),
          ("sweep", "rabi", "protocol.sweep", [1, 2]), ("free_lock", "ramsey", "protocol.free_lock", "weak"),
          ("noise", "rabi", "noise", [1]), ("envelope", "rabi", "envelope", [1]), ("protocol", "rabi", "protocol", 5))),
    # a lock places its transmitter with at most one key, a spin its offset with exactly one
    *(Case(f"position_{name}", SIMULATE, "all_fields_ramsey", edit, 1, f"input error: {block} needs {message}")
      for name, edit, block, message in (
          ("transfer_ppm_pair", {"protocol.transfer.transmitter_pair": 5}, "protocol.transfer",
           f"at most one of {LOCK_POSITIONS}, got ['transmitter_ppm', 'transmitter_pair']"),
          ("transfer_offset_ppm", {"protocol.transfer.transmitter_offset_hz": 408.0}, "protocol.transfer",
           f"at most one of {LOCK_POSITIONS}, got ['transmitter_offset_hz', 'transmitter_ppm']"),
          ("free_lock_offset_pair", {"protocol.free_lock.transmitter_offset_hz": 408.0}, "protocol.free_lock",
           f"at most one of {LOCK_POSITIONS}, got ['transmitter_offset_hz', 'transmitter_pair']"),
          ("spin_offset_shift", {"preset": DELETE, "system": TWO_SPINS, "system.spins[0].shift_ppm": 2.04},
           "system.spins[0]", "exactly one of offset_hz, shift_ppm, got ['offset_hz', 'shift_ppm']"),
          ("spin_neither", {"preset": DELETE, "system": TWO_SPINS, "system.spins[0]": {}}, "system.spins[0]",
           "exactly one of offset_hz, shift_ppm, got none"))),
    # a misspelt key, or a key of another kind's row, is named, even at its default value
    *(Case(f"misspelt_{name}_key", SIMULATE, "all_fields_rabi", {**edit, path: 1.0}, 1,
           f"input error: unknown field {path}")
      for name, path, edit in (
          ("top_level", "bogus", {}), ("protocol", "protocol.sweeep", {}),
          ("transfer", "protocol.transfer.nutaton_hz", {}),
          ("spin", "system.spins[0].offset", {"preset": DELETE, "system": TWO_SPINS}),
          ("prep", "protocol.prep.polarisation", {}), ("sweep", "protocol.sweep.stepp", {}),
          ("envelope", "envelope.t_rabi", {}), ("noise", "noise.sede", {}))),
    *(Case(f"{name}_read_by_another_kind", SIMULATE, config, edit, 1,
           f"input error: {field} is not read by kind {kind!r}")
      for name, config, edit, field, kind in (
          ("pi_half", "glutamate_rabi", {"protocol.pi_half_duration_s": 0.1}, "protocol.pi_half_duration_s", "rabi"),
          ("readout", "pgg_pumping", {"protocol.readout": "projector"}, "protocol.readout", "pumping"),
          ("phase_cycle", "glutamate_scan", {"protocol.phase_cycle": False}, "protocol.phase_cycle", "resonance_scan"),
          ("polarization", "glutamate_rabi", {"protocol.prep": {"kind": "ideal", "polarization": 0.3}},
           "protocol.prep.polarization", "ideal"),
          ("t_s", "glutamate_rabi", {"envelope.t_s_s": 4.4}, "envelope.t_s_s", "rabi"))),
    Case("misspelt_and_unread_fields_of_a_rabi_config", SIMULATE, "glutamate_rabi", {
        "bogus": 1, "protocol.sweeep": {"values": [0.1]}, "protocol.pi_half_duration_s": 0.1,
        "protocol.pump_reset_delay_s": 3.1, "protocol.double_rabi_phases_deg": [10, 20],
        "protocol.prep": {"kind": "ideal", "polarization": 0.3}, "protocol.transfer.nutaton_hz": 3,
        "envelope.t_s_s": 4.4}, 1, "input error: unknown field bogus"),
]


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cli.main` on `argv`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def console_script(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the installed `singletsim` on `argv`, numpy's RuntimeWarnings errors."""
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    done = subprocess.run(["singletsim", *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def run_case(case: Case, tmp: Path, run: Callable[[list[str]], tuple[int, str, str]]) -> None:
    """Run one row through `run` in the empty directory `tmp`; an AssertionError says what the run did instead."""
    paths = {"tmp": tmp, "config": tmp / "config.json", "trace": tmp / "trace.csv", "out": tmp / "out"}
    if case.input in TRACES:
        head, *rows = TRACES[case.input]
        paths["trace"].write_text("\n".join([head, *(case.edit(rows) if case.edit else rows)]) + "\n")
    elif case.input:
        paths["config"].write_text(json.dumps(edited(case.input, case.edit or {})))
        if "{trace}" in case.argv:
            code, _, err = run(["simulate", "--config", str(paths["config"]), "--out", str(tmp / "run")])
            assert code == 0, f"simulate exited {code}: {err}"
            paths["trace"] = tmp / "run" / "trace.csv"
    code, out, err = run([part.format(**paths) for part in case.argv.split()])
    assert code == case.code, f"exit code {code}, expected {case.code}; stderr {err!r}"
    assert case.stderr in err, f"stderr {err!r} does not hold {case.stderr!r}"
    if code:
        assert err.startswith("input error: ") and "Traceback" not in err, f"stderr {err!r}"
        assert not paths["out"].exists(), "--out was made"
    else:
        assert err == "", f"stderr {err!r}"
        if case.check is not None:
            case.check(paths["out"], out)


if __name__ == "__main__":
    failed = []
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                run_case(case, Path(tmp), console_script)
            except Exception:  # a failed check, or a run that wrote something unreadable
                failed.append(case.name)
                print(f"FAIL {case.name}")
                traceback.print_exc(file=sys.stdout)
            else:
                print(f"ok   {case.name}")
    print(f"{len(CASES) - len(failed)} of {len(CASES)} CLI cases passed")
    sys.exit(1 if failed else 0)

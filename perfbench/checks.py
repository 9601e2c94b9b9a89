"""Correctness checks on the outputs of the benchmark's operations.

Every check returns a list of problems; an empty list means the output
passed.  The checks compare against the independent expm reference, the
method's own properties and the truths that generated synthetic inputs,
never against stored copies of earlier output.  `selftest.py` shows that
each check rejects a perturbed output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_TOL = 1e-9  # |program - expm reference| per observable and population
POPULATION_TOL = 1e-9  # slack on the [0, 1] bounds of a singlet population


def populations_in_unit_interval(populations, observable) -> list[str]:
    problems = []
    pops = np.asarray(populations, dtype=float)
    if not np.all(np.isfinite(pops)) or not np.all(np.isfinite(observable)):
        problems.append("non-finite observable or population")
    elif pops.min() < -POPULATION_TOL or pops.max() > 1.0 + POPULATION_TOL:
        problems.append(f"singlet population outside [0, 1]: [{pops.min():.3e}, {pops.max():.6f}]")
    return problems


def matches_reference(reference_points, trace, indices) -> list[str]:
    """Compare the sampled sweep points with (observable, populations) from the reference."""
    problems = []
    for k, (obs, pops) in zip(indices, reference_points):
        d_obs = abs(trace.observable[k] - obs)
        d_pop = float(np.max(np.abs(trace.singlet_populations[:, k] - pops)))
        if not (d_obs <= REFERENCE_TOL and d_pop <= REFERENCE_TOL):
            problems.append(
                f"point {k} (sweep {trace.sweep_values[k]:.6g}) differs from the expm reference: "
                f"observable by {d_obs:.2e}, populations by {d_pop:.2e}"
            )
    return problems


def relative(name: str, value: float, truth: float, tol: float) -> list[str]:
    if not (math.isfinite(value) and abs(value / truth - 1.0) <= tol):
        return [f"{name} = {value:.6g}, expected {truth:.6g} within {100 * tol:.3g} %"]
    return []


def wrapped_phase(value: float) -> float:
    """Map an angle into (-pi, pi]."""
    wrapped = math.remainder(value, 2 * math.pi)
    return math.pi if wrapped == -math.pi else wrapped


def canonical_ramsey(params: dict) -> tuple[float, float, float]:
    """(amplitude, phase, offset) with A >= 0; A<0 at phase phi is A>0 at phi + pi, -offset."""
    amp, phase, off = params["amplitude"], params["phase_rad"], params["offset"]
    if amp < 0:
        amp, phase, off = -amp, phase + math.pi, -off
    return amp, wrapped_phase(phase), off


FIT_Z_MAX = 6.0  # |fitted - generating| in standard errors of the fit


def fit_recovers(model: str, params: dict, errors: dict, truth: dict, caps: dict) -> list[str]:
    """Fitted parameters against the generating values of a noisy synthetic trace.

    Each parameter must lie within FIT_Z_MAX of the fit's own standard errors
    of its generating value, and that standard error must stay below its
    cap (relative to the value; absolute, in rad, for a phase), so a fit
    cannot pass by reporting a huge uncertainty.  Ramsey phases are compared
    modulo 2 pi after folding a negative amplitude into the phase.
    """
    problems = []
    if model == "ramsey":
        amp, phase, _ = canonical_ramsey(params)
        params = dict(params, amplitude=amp, phase_rad=phase)
    for key, cap in caps.items():
        value, err, true = params[key], errors[key], truth[key]
        diff = wrapped_phase(value - true) if key == "phase_rad" else value - true
        limit = cap if key == "phase_rad" else cap * abs(true)
        if not (math.isfinite(diff) and math.isfinite(err)) or err > limit:
            problems.append(f"{model}.{key} standard error {err:.3g} exceeds {limit:.3g}")
        elif abs(diff) > FIT_Z_MAX * err:
            problems.append(
                f"{model}.{key} = {value:.6g}, generated with {true:.6g}: off by {abs(diff) / err:.1f} "
                f"standard errors (limit {FIT_Z_MAX:g})"
            )
    return problems


# -- CLI outputs ----------------------------------------------------------

def parse_table(path: Path, min_columns: int) -> tuple[list[str], np.ndarray]:
    """'#'-commented CSV: (header lines, numeric rows).  Raises ValueError if malformed."""
    headers, rows = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            headers.append(line)
            continue
        values = [float(v) for v in line.split(",")]
        if len(values) < min_columns or (rows and len(values) != len(rows[0])):
            raise ValueError(f"{path}: ragged or short row {line!r}")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return headers, np.array(rows)


def cli_exit(rc) -> list[str]:
    return [] if rc == 0 else [f"CLI exit code {rc!r}, expected 0"]


def cli_trace(path: Path) -> list[str]:
    """A simulate output: header with the resolved config, then sweep, observable, populations."""
    try:
        headers, rows = parse_table(path, 2)
        config_lines = [h for h in headers if h.startswith("# config: ")]
        if len(config_lines) != 1:
            raise ValueError("missing '# config:' header")
        json.loads(config_lines[0][len("# config: "):])
    except (OSError, ValueError) as exc:
        return [f"trace file does not parse: {exc}"]
    return populations_in_unit_interval(rows[:, 2:].T, rows[:, 1]) if rows.shape[1] > 2 else []


def cli_fit(report_path: Path) -> tuple[list[str], dict | None]:
    """A fit output: JSON report plus its fitted-curve CSV."""
    try:
        report = json.loads(Path(report_path).read_text())
        params = report["params"]
        if not all(isinstance(v, (int, float)) for v in params.values()):
            raise ValueError("non-numeric parameter")
        curve = Path(report_path).with_name(Path(report_path).stem + "_curve.csv")
        parse_table(curve, 2)
    except (OSError, ValueError, KeyError) as exc:
        return [f"fit output does not parse: {exc}"], None
    if not report.get("converged"):
        return ["CLI fit did not converge"], report
    return [], report


def cli_scan(path: Path) -> tuple[list[str], dict | None]:
    """A scan output: rows of nutation, delta_nu_n, amplitude, frequency, then the Lorentzian fit report."""
    try:
        headers, _ = parse_table(path, 4)
        lines = [h for h in headers if h.startswith("# lorentzian: ")]
        lorentzian = json.loads(lines[0][len("# lorentzian: "):]) if lines else None
    except (OSError, ValueError) as exc:
        return [f"scan file does not parse: {exc}"], None
    if lorentzian is None:
        return ["scan file has no Lorentzian summary"], None
    return [], lorentzian

#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs a few real operations of each workload, shows that every check
accepts their outputs, then perturbs each output slightly (one trace point
shifted, a fitted frequency off by 5 %, a phase off by 0.5 rad, an exit
code of 1, a malformed file, ...) and shows that the check rejects it.
A check that accepted a perturbed output would pass trivially.  Exits 1 if
any expectation fails.  Writes only under .perfbench_tmp/ in the checkout.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class Expectations:
    def __init__(self):
        self.failures = 0

    def _report(self, ok: bool, label: str, problems: list[str]) -> None:
        self.failures += not ok
        detail = problems[0] if problems else "no problem found"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")

    def accepts(self, label: str, problems: list[str]) -> None:
        self._report(not problems, f"accepts {label}", problems)

    def rejects(self, label: str, problems: list[str], must_mention: str = "") -> None:
        ok = bool(problems) and any(must_mention in p for p in problems)
        self._report(ok, f"rejects {label}", problems)


def by_name(ops, name):
    return next(op for op in ops if op.name == name)


def shifted(trace, k: int, delta: float):
    observable = trace.observable.copy()
    observable[k] += delta
    return trace.copy_with(observable=observable)


def sim_checks(ex: Expectations, ctx, ops) -> None:
    for name in ("rabi d16 resonant", "rabi d16 slic pure 0", "signal_proxy rabi d16", "double_rabi d16"):
        op = by_name(ops, name)
        trace = op.run()
        ex.accepts(name, op.check(trace, ctx))
        for k in op.reference_indices:
            ex.rejects(f"{name} with point {k} shifted by 1e-6", op.check(shifted(trace, k, 1e-6), ctx),
                       "expm reference")
        ex.rejects(f"{name} with a different round output", [] if run.same_output(trace, shifted(trace, 0, 1e-9)) else ["differs"])
    op = by_name(ops, "rabi d16 resonant")
    trace = op.run()
    stretched = trace.copy_with(sweep_values=trace.sweep_values * 1.05)
    ex.rejects("resonant Rabi whose fitted frequency is 5 % off", op.check(stretched, ctx), "frequency")
    op = by_name(ops, "double_rabi d16")
    trace = op.run()
    stretched = trace.copy_with(sweep_values=trace.sweep_values * 0.95)
    ex.rejects("double-Rabi whose fitted frequency is 5 % off", op.check(stretched, ctx), "frequency")
    pops = trace.singlet_populations.copy()
    pops[1, 3] = 1.001
    ex.rejects("a singlet population of 1.001", checks.populations_in_unit_interval(pops, trace.observable))
    pops[1, 3] = np.nan
    ex.rejects("a NaN population", checks.populations_in_unit_interval(pops, trace.observable))


def fit_checks(ex: Expectations, ctx, ops) -> None:
    for model in ("rabi", "ramsey", "exponential", "lorentzian"):
        op = by_name(ops, f"fit {model}")
        fit = op.run()
        ex.accepts(f"fit {model}", op.check(fit, ctx))
        # a frequency is resolved to 0.2 %, a decay time or a line position to a few %
        key, factor = {"rabi": ("frequency_hz", 1.05), "ramsey": ("frequency_hz", 1.05),
                       "exponential": ("t_s", 1.5), "lorentzian": ("center", 1.25)}[model]
        bad = copy.deepcopy(fit)
        bad.params[key] *= factor
        ex.rejects(f"fit {model} with {key} {100 * (factor - 1):.0f} % off", op.check(bad, ctx), key)
        bad = copy.deepcopy(fit)
        bad.uncertainties[key] *= 100.0
        ex.rejects(f"fit {model} whose {key} error is 100x larger", op.check(bad, ctx), "standard error")
    op = by_name(ops, "fit ramsey")
    fit = op.run()
    for label, change, accept in (
        ("phase + 2 pi", lambda p: p.update(phase_rad=p["phase_rad"] + 2 * math.pi), True),
        ("phase - 6 pi", lambda p: p.update(phase_rad=p["phase_rad"] - 6 * math.pi), True),
        ("amplitude sign folded into phase + pi", lambda p: p.update(
            amplitude=-p["amplitude"], phase_rad=p["phase_rad"] + math.pi, offset=-p["offset"]), True),
        ("phase + 0.5 rad", lambda p: p.update(phase_rad=p["phase_rad"] + 0.5), False),
        ("phase + pi", lambda p: p.update(phase_rad=p["phase_rad"] + math.pi), False),
        ("t_s_s 50 % off", lambda p: p.update(t_s_s=p["t_s_s"] * 1.5), False),
        ("t2s_star_s 50 % off", lambda p: p.update(t2s_star_s=p["t2s_star_s"] * 1.5), False),
    ):
        bad = copy.deepcopy(fit)
        change(bad.params)
        (ex.accepts if accept else ex.rejects)(f"fit ramsey with {label}", op.check(bad, ctx))
    for model, key in (("rabi", "t_rabi_s"), ("lorentzian", "fwhm")):
        op = by_name(ops, f"fit {model}")
        bad = copy.deepcopy(op.run())
        bad.params[key] *= 1.5
        ex.rejects(f"fit {model} with {key} 50 % off", op.check(bad, ctx), key)


def scan_checks(ex: Expectations, ctx, ops) -> None:
    op = by_name(ops, "resonance scan 0")
    trace, fit = op.run()
    ex.accepts("resonance scan", op.check((trace, fit), ctx))
    for key in ("center", "fwhm"):
        bad = copy.deepcopy(fit)
        bad.params[key] *= 1.05
        ex.rejects(f"resonance scan with Lorentzian {key} 5 % off", op.check((trace, bad), ctx), "Lorentzian")


def cli_checks(ex: Expectations, ctx, ops, paths) -> None:
    results = {}
    for op in ops:
        if op.kind == "cli":
            try:
                results[op.name] = op.run()
            except ValueError as exc:
                results[op.name] = exc
    for op in ops:
        if op.kind == "cli" and op.known_fault is None:
            ex.accepts(op.name, op.check(results[op.name], ctx))
    ex.rejects("cli simulate rabi with exit code 1", by_name(ops, "cli simulate rabi").check(1, ctx), "exit code")

    def with_file(path: Path, edit, op_name: str, label: str, mention: str = "") -> None:
        original = path.read_text()
        path.write_text(edit(original))
        try:
            ex.rejects(label, by_name(ops, op_name).check(0, ctx), mention)
        finally:
            path.write_text(original)

    out = paths.cli_out
    trace = out / "rabi" / "trace.csv"
    with_file(trace, lambda t: t.rstrip("\n").rsplit(",", 1)[0] + "\n", "cli simulate rabi",
              "trace file with a truncated last row", "parse")
    with_file(trace, lambda t: t.replace("# config: ", "# cfg: "), "cli simulate rabi",
              "trace file without its config header", "parse")
    lines = trace.read_text().splitlines()
    row = lines[-1].split(",")
    row[2] = "1.5"
    with_file(trace, lambda t: "\n".join(lines[:-1] + [",".join(row)]) + "\n", "cli simulate rabi",
              "trace file with a population of 1.5", "population")

    report = out / "rabi" / "fit.json"

    def off_frequency(text: str) -> str:
        rep = json.loads(text)
        rep["params"]["frequency_hz"] *= 1.05
        return json.dumps(rep)

    with_file(report, off_frequency, "cli fit rabi", "CLI fit whose frequency is 5 % off", "frequency")
    with_file(report, lambda t: t[: len(t) // 2], "cli fit rabi", "truncated fit report", "parse")
    with_file(report.with_name("fit_curve.csv"), lambda t: t + "oops\n", "cli fit rabi",
              "fitted-curve file with a malformed row", "parse")
    scan = out / "scan" / "scan.csv"
    with_file(scan, lambda t: "\n".join(l for l in t.splitlines() if not l.startswith("# lorentzian")) + "\n",
              "cli scan", "scan file without its Lorentzian summary", "Lorentzian")

    def off_centre(text: str) -> str:
        head, _, tail = text.partition("# lorentzian: ")
        rep = json.loads(tail)
        rep["params"]["center"] *= 1.15
        return head + "# lorentzian: " + json.dumps(rep) + "\n"

    with_file(scan, off_centre, "cli scan", "scan whose Lorentzian centre is 15 % off", "centre")

    def off_saturation(text: str) -> str:
        rep = json.loads(text)
        rep["params"]["t_s"] *= 1.0001
        return json.dumps(rep)

    with_file(out / "pumping" / "fit.json", off_saturation, "cli fit pumping",
              "pumping fit whose saturation constant is 1e-4 off", "saturation")


def main() -> int:
    work = ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    paths = workloads.Paths(ROOT, work)
    ex = Expectations()
    try:
        ss = run.import_singletsim()
        ctx = workloads.CheckContext()
        sim_checks(ex, ctx, workloads.setup_rabi_sampled(ss, 7, paths) + workloads.setup_ramsey_rebuild(ss, 7, paths))
        scan_fit = workloads.setup_scan_fit(ss, 7, paths)
        fit_checks(ex, ctx, scan_fit)
        scan_checks(ex, ctx, scan_fit)
        cli_checks(ex, ctx, scan_fit, paths)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(f"{ex.failures} expectation(s) failed")
    return 1 if ex.failures else 0


if __name__ == "__main__":
    sys.exit(main())

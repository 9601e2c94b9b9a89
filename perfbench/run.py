#!/usr/bin/env python3
"""Benchmark of singletsim: one workload per process, a single closed-loop client.

    python3 perfbench/run.py --workload rabi_sampled --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a checkout; the package is imported from ./src.  A run
sets up its inputs from the seed, then repeats whole rounds of its
operations until they have taken --seconds, then checks every output.  The
set-up is repeated between rounds and its median reported.  With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates untraced
and traced rounds and reports per-layer figures from the traced ones and
the tracing overhead against the untraced ones.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Records and spans go to
.perfbench_out/ in the checkout.  `--workload all` runs every workload in a
child process and prints a table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 11
SAME_OUTPUT_TOL = 1e-12  # later rounds must reproduce the first round's outputs
SINGLETSIM_MODULES = ("spincore", "hamiltonian", "propagator", "sequences", "analysis", "presets", "cli", "trace")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Round:
    seconds: float
    op_seconds: list[float]
    outputs: list
    failed: list[bool]


@dataclass
class Measurement:
    rounds: list[Round] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_singletsim() -> types.SimpleNamespace:
    """Fresh import of the package, so each set-up repeat pays the import."""
    for name in [m for m in sys.modules if m == "singletsim" or m.startswith("singletsim.")]:
        del sys.modules[name]
    importlib.import_module("singletsim")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"singletsim.{name}") for name in SINGLETSIM_MODULES}
    )


class SetUps:
    """Timed set-ups of one workload: import, systems, presets and inputs.

    The first set-up builds the inputs every round uses.  Repeats, spread
    between the rounds, time the same set-up at later moments of the run and
    are discarded; the rounds keep the first set-up's modules.
    """

    def __init__(self, workload: str, seed: int, paths, before_inputs=None):
        from workloads import WORKLOADS

        self.build = lambda ss: WORKLOADS[workload](ss, seed, paths)
        self.times: list[float] = []
        self.ops = self._once(before_inputs)
        self._modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "singletsim"}

    def _once(self, before_inputs=None):
        start = time.perf_counter()
        ss = import_singletsim()
        if before_inputs is not None:
            before_inputs()
        ops = self.build(ss)
        self.times.append(time.perf_counter() - start)
        return ops

    def repeat(self) -> None:
        if len(self.times) < SETUP_REPEATS:
            self._once()
            sys.modules.update(self._modules)

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.repeat()
        return statistics.median(self.times)


def flatten(out) -> list:
    """Comparable values of an operation's output."""
    if isinstance(out, BaseException):
        return [type(out).__name__, str(out)]
    if isinstance(out, (tuple, list)):
        return [v for item in out for v in flatten(item)]
    if hasattr(out, "observable"):  # Trace
        pops = out.singlet_populations
        return [*out.observable.tolist(), *([] if pops is None else pops.ravel().tolist())]
    if hasattr(out, "params"):  # FitResult
        return [out.params[k] for k in sorted(out.params)]
    return [out]


def same_output(a, b) -> bool:
    fa, fb = flatten(a), flatten(b)
    if len(fa) != len(fb):
        return False
    for x, y in zip(fa, fb):
        if isinstance(x, float) and isinstance(y, float):
            if not (x == y or abs(x - y) <= SAME_OUTPUT_TOL * max(1.0, abs(x))):
                return False
        elif x != y:
            return False
    return True


def run_round(ops, reported: set) -> Round:
    op_seconds, outputs, failed = [], [], []
    round_start = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run()
            ok = not (op.kind == "cli" and out != 0)
        except Exception as exc:  # an operation's failure is counted, not fatal
            out, ok = exc, False
            if op.known_fault is None and op.name not in reported:
                reported.add(op.name)
                print(f"operation {op.name!r} failed:", file=sys.stderr)
                traceback.print_exception(exc, file=sys.stderr)
        op_seconds.append(time.perf_counter() - start)
        outputs.append(out)
        failed.append(not ok)
    return Round(time.perf_counter() - round_start, op_seconds, outputs, failed)


def measure(ops, seconds: float, into: Measurement, reported: set, between=None) -> list[Round]:
    """Whole rounds until they have taken `seconds` (at least one); `between` runs after each."""
    rounds = []
    while not rounds or sum(r.seconds for r in rounds) < seconds:
        r = run_round(ops, reported)
        if into.rounds:
            first = into.rounds[0]
            for op, a, b in zip(ops, first.outputs, r.outputs):
                if not same_output(a, b):
                    into.mismatches.append(f"{op.name}: output differs between rounds")
            r.outputs = None  # only the first round's outputs are kept
        into.rounds.append(r)
        rounds.append(r)
        if between is not None:
            between()
    return rounds


def rate(ops, r: Round, select, amount) -> float | None:
    chosen = [(op, t) for op, t, bad in zip(ops, r.op_seconds, r.failed) if select(op) and not bad]
    seconds = sum(t for _, t in chosen)
    return sum(amount(op) for op, _ in chosen) / seconds if chosen and seconds > 0 else None


def median_rate(ops, rounds, select, amount=lambda op: op.points) -> float | None:
    values = [rate(ops, r, select, amount) for r in rounds]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(ops, rounds, setup_s: float) -> tuple[dict, dict]:
    """(metrics listed in BENCHMARK.json, further figures shown in the summary)."""
    from workloads import SCAN_TAUS

    simulated = lambda dim: lambda op: op.kind in ("sim", "scan") and op.dim == dim  # noqa: E731
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.seconds for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "points_per_s.d16": (median_rate(ops, rounds, simulated(16)), "points/s"),
        "points_per_s.d64": (median_rate(ops, rounds, simulated(64)), "points/s"),
        "points_per_s.d256": (median_rate(ops, rounds, simulated(256)), "points/s"),
        "fits_per_s": (median_rate(ops, rounds, lambda op: op.kind == "fit", lambda op: 1), "fits/s"),
        "scan_points_per_s": (
            median_rate(ops, rounds, lambda op: op.kind == "scan", lambda op: op.points / SCAN_TAUS),
            "nutation points/s",
        ),
        "cli_runs_per_s": (median_rate(ops, rounds, lambda op: op.kind == "cli", lambda op: 1), "runs/s"),
    }
    return metrics, {k: v for k, v in extra.items() if v[0] is not None}


def check_outputs(ops, measurement: Measurement) -> list[str]:
    from workloads import CheckContext

    ctx = CheckContext()
    first = measurement.rounds[0]
    problems = list(dict.fromkeys(measurement.mismatches))
    for op, out, bad in zip(ops, first.outputs, first.failed):
        if not bad:
            problems += [f"{op.name}: {p}" for p in op.check(out, ctx)]
    return problems


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def manifest(args, rounds: int) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_commit": git_commit(),
    }


def run_workload(args) -> dict:
    from workloads import Paths

    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    paths = Paths(ROOT, work)
    reported: set = set()
    measurement = Measurement()
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()

            def start_tracing():
                tracer.install()
                tracer.mark("setup")

            ops = SetUps(args.workload, args.seed, paths, before_inputs=start_tracing).ops
            tracer.uninstall()
            # untraced and traced rounds alternate, so both see the same stretches of time
            untraced, traced = [], []
            while not traced or sum(r.seconds for r in untraced + traced) < args.seconds:
                untraced += measure(ops, 0.0, measurement, reported)
                tracer.install()
                tracer.mark("round")
                try:
                    traced += measure(ops, 0.0, measurement, reported)
                finally:
                    tracer.uninstall()
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}-spans.csv.gz")
            per_layer = tracer.layer_metrics()
            per_layer["cli.bytes_written"] = sum(
                f.stat().st_size for f in paths.cli_out.rglob("*") if f.is_file()
            )
            untraced_s = statistics.median(r.seconds for r in untraced)
            traced_s = statistics.median(r.seconds for r in traced)
            per_layer["trace.overhead_s"] = traced_s - untraced_s
            per_layer["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
            metrics, extra = per_layer, {}
        else:
            setups = SetUps(args.workload, args.seed, paths)
            ops = setups.ops
            measure(ops, args.seconds, measurement, reported, between=setups.repeat)
            metrics, extra = end_to_end(ops, measurement.rounds, setups.median())
        problems = check_outputs(ops, measurement)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    from tracing import LAYER_UNITS

    units = {**END_TO_END, **LAYER_UNITS}
    rounds = measurement.rounds
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": sum(sum(r.failed) for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        **result,
        "manifest": manifest(args, len(rounds)),
        "summary": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        "problems": problems,
        "known_faults": sorted({op.known_fault for op in ops if op.known_fault}),
        "operations": [op.name for op in ops],
        "round_seconds": [r.seconds for r in rounds],
        "op_seconds_by_round": [r.op_seconds for r in rounds],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print_summary(record)
    return result


def print_summary(record: dict) -> None:
    m = record["manifest"]
    state = "correct" if record["correct"] else "INCORRECT"
    print(f"# {m['workload']} seed {m['seed']}: {m['rounds']} rounds, {record['attempted']} operations "
          f"attempted, {record['failed']} failed, outputs {state}")
    for problem in record["problems"]:
        print(f"#   problem: {problem}")
    for fault in record["known_faults"]:
        print(f"#   known fault: {fault}")
    for name, entry in {**record["metrics"], **record["summary"]}.items():
        print(f"#   {name:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"# manifest {json.dumps(m, sort_keys=True)}")


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"# {'workload':16s} {'attempted':>9s} {'failed':>6s} {'correct':>7s}")
    for name, res in results.items():
        print(f"# {name:16s} {res['attempted']:9d} {res['failed']:6d} {str(res['correct']):>7s}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "singletsim" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no singletsim source tree (src/singletsim, configs/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

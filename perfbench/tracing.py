"""Span tracing of singletsim from outside the package.

`Tracer.install` wraps every public function defined in each singletsim
module and rebinds the wrapper wherever the package holds that function:
in its defining module and in every module that imported it by name.  Calls
between modules and within a module (through the module global) therefore
pass through the wrapper.  `numpy.linalg.eigh` is wrapped as seen from
`singletsim.propagator` only, by giving that module a numpy stand-in whose
`linalg.eigh` records a span.  `uninstall` restores every binding.

A span is (name, start, end, parent, covered_end).  `covered_end` is where
the span's bookkeeping (hashing a Hamiltonian or an eigh input) ended, so a
parent's self time does not absorb it.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import gzip
import hashlib
import sys
import time
import types
from collections import defaultdict

PACKAGE = "singletsim"
MODULES = ("spincore", "hamiltonian", "propagator", "sequences", "analysis", "cli", "presets", "trace")
EIGH = "numpy.linalg.eigh@propagator"

HAMILTONIAN_BUILDS = {"hamiltonian.free_hamiltonian", "hamiltonian.spinlock_hamiltonian"}
EMBEDS = {"spincore.embed_spin_operator", "spincore.embed_pair_operator"}
PROJECTORS = {"spincore.singlet_projector", "spincore.triplet_projector"}
STATE_BUILDERS = {
    "spincore.product_state_vector", "spincore.pure_state_density", "spincore.product_state",
    "spincore.pair_product_density", "spincore.maximally_mixed_triplet", "spincore.thermal_state",
}
RUNNERS = {
    "sequences.run_rabi", "sequences.run_ramsey", "sequences.run_double_rabi",
    "sequences.run_pumping", "sequences.run_resonance_scan", "sequences.run_protocol",
}
RESONANCE_FINDERS = {"sequences.exact_resonance_nutation", "sequences.transfer_resonance_nutation"}
FITS = {"analysis.fit_rabi", "analysis.fit_ramsey", "analysis.fit_lorentzian", "analysis.fit_exponential"}
CLI_COMMANDS = {"cli.cmd_simulate", "cli.cmd_fit", "cli.cmd_scan", "cli.cmd_presets"}


LAYER_UNITS = {
    "spincore.embed_calls": "count", "spincore.embed_s": "s",
    "spincore.expectation_calls": "count", "spincore.expectation_s": "s",
    "spincore.projector_builds": "count", "spincore.check_density_s": "s", "spincore.state_build_s": "s",
    "hamiltonian.builds": "count", "hamiltonian.build_s": "s", "hamiltonian.distinct_share": "ratio",
    "propagator.eigh_calls": "count", "propagator.eigh_s": "s", "propagator.eigh_distinct_share": "ratio",
    "propagator.final_state_calls": "count", "propagator.final_state_s": "s",
    "propagator.hard_pulse_calls": "count", "propagator.hard_pulse_s": "s",
    "propagator.samples": "count", "propagator.sample_s": "s",
    "sequences.runner_s": "s", "sequences.initial_state_s": "s", "sequences.resonance_find_s": "s",
    "analysis.fits": "count", "analysis.fit_s": "s", "analysis.lm_starts": "count",
    "analysis.lm_iterations": "count", "analysis.lm_s": "s", "analysis.lm_converged_share": "ratio",
    "cli.load_config_s": "s", "cli.read_trace_s": "s", "cli.self_s": "s", "cli.bytes_written": "B",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def _get(holder, key):
    return holder[key] if isinstance(holder, dict) else getattr(holder, key)


def _set(holder, key, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


def _digest(array) -> bytes:
    return hashlib.blake2b(array.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.returns: dict[int, object] = {}
        self.digests: dict[int, bytes] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.phase_marks: list[tuple[str, int]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
        holders = [sys.modules[PACKAGE], *modules.values()]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, name, wrapped)
                        elif isinstance(value, dict):  # dispatch tables such as MODEL_FITTERS
                            for key, entry in list(value.items()):
                                if entry is fn:
                                    self._rebind(value, key, wrapped)
        propagator = modules["propagator"]
        self._rebind(propagator, "np", self._numpy_stand_in(propagator.np))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            _set(holder, attr, original)
        self._restore.clear()

    def _rebind(self, holder, attr, value) -> None:
        self._restore.append((holder, attr, _get(holder, attr)))
        _set(holder, attr, value)

    def _numpy_stand_in(self, numpy_module):
        linalg = types.SimpleNamespace(**vars(numpy_module.linalg))
        linalg.eigh = self._wrap(EIGH, numpy_module.linalg.eigh, digest_arg=True)
        stand_in = types.ModuleType("numpy")
        stand_in.__dict__.update(vars(numpy_module))
        stand_in.linalg = linalg
        return stand_in

    def _wrap(self, name: str, fn, digest_arg: bool = False):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        keep_return = name in ("analysis.levenberg_marquardt", "propagator.propagate")
        digest_result = name in HAMILTONIAN_BUILDS

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = record[4] = clock()
                stack.pop()
            if keep_return:
                self.returns[index] = (
                    (result[3], result[4]) if name.startswith("analysis") else len(result)
                )
            if digest_result or digest_arg:
                self.digests[index] = _digest(result if digest_result else args[0])
                record[4] = clock()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- phases ---------------------------------------------------------
    def mark(self, phase: str) -> None:
        """Start a phase ('setup', then one 'round' per traced round); later spans belong to it."""
        self.phase_marks.append((phase, len(self.spans)))

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")

    # -- per-layer figures ------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures for one traced round; resonance finding also counts the set-up.

        Distinct shares are taken within each round and averaged, since
        every round repeats the same inputs.
        """
        starts = [lo for _, lo in self.phase_marks] + [len(self.spans)]
        setup = _Window(self, starts[0], starts[1])
        rounds = [_Window(self, lo, hi) for lo, hi in zip(starts[1:-1], starts[2:])]
        window = _Window(self, starts[1], len(self.spans))
        per_round = lambda v: v / len(rounds)  # noqa: E731

        def distinct_share(select) -> float:
            shares = []
            for r in rounds:
                chosen = select(r)
                shares.append(_share(len({self.digests[i] for i in chosen}), len(chosen)))
            return sum(shares) / len(shares)

        builds = window.outermost(HAMILTONIAN_BUILDS)
        eighs = window.indices({EIGH})
        lm = window.indices({"analysis.levenberg_marquardt"})
        lm_converged = sum(1 for i in lm if self.returns[i][0])
        return {
            "spincore.embed_calls": per_round(len(window.indices(EMBEDS))),
            "spincore.embed_s": per_round(window.inclusive(EMBEDS)),
            "spincore.expectation_calls": per_round(len(window.indices({"spincore.expectation"}))),
            "spincore.expectation_s": per_round(window.inclusive({"spincore.expectation"})),
            "spincore.projector_builds": per_round(len(window.indices(PROJECTORS))),
            "spincore.check_density_s": per_round(window.inclusive({"spincore.check_density"})),
            "spincore.state_build_s": per_round(window.inclusive(STATE_BUILDERS)),
            "hamiltonian.builds": per_round(len(builds)),
            "hamiltonian.build_s": per_round(window.self_time(lambda n: n in HAMILTONIAN_BUILDS)),
            "hamiltonian.distinct_share": distinct_share(lambda r: r.outermost(HAMILTONIAN_BUILDS)),
            "propagator.eigh_calls": per_round(len(eighs)),
            "propagator.eigh_s": per_round(window.inclusive({EIGH})),
            "propagator.eigh_distinct_share": distinct_share(lambda r: r.indices({EIGH})),
            "propagator.final_state_calls": per_round(len(window.indices({"propagator.final_state"}))),
            "propagator.final_state_s": per_round(window.inclusive({"propagator.final_state"})),
            "propagator.hard_pulse_calls": per_round(len(window.indices({"propagator.hard_pulse_propagator"}))),
            "propagator.hard_pulse_s": per_round(window.inclusive({"propagator.hard_pulse_propagator"})),
            "propagator.samples": per_round(sum(self.returns[i] for i in window.indices({"propagator.propagate"}))),
            "propagator.sample_s": per_round(window.self_time(lambda n: n == "propagator.propagate")),
            "sequences.runner_s": per_round(window.self_time(lambda n: n in RUNNERS)),
            "sequences.initial_state_s": per_round(window.inclusive({"sequences.transfer_initial_state"})),
            "sequences.resonance_find_s": setup.inclusive(RESONANCE_FINDERS) + per_round(window.inclusive(RESONANCE_FINDERS)),
            "analysis.fits": per_round(len(window.outermost(FITS))),
            "analysis.fit_s": per_round(window.inclusive(FITS)),
            "analysis.lm_starts": per_round(len(lm)),
            "analysis.lm_iterations": per_round(sum(self.returns[i][1] for i in lm)),
            "analysis.lm_s": per_round(window.inclusive({"analysis.levenberg_marquardt"})),
            "analysis.lm_converged_share": _share(lm_converged, len(lm)),
            "cli.load_config_s": per_round(window.inclusive({"cli.load_config"})),
            "cli.read_trace_s": per_round(window.inclusive({"cli.read_trace_file"})),
            "cli.self_s": per_round(window.self_time(lambda n: n in CLI_COMMANDS)),
        }


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class _Window:
    """Spans [lo, hi) of a tracer, with layer aggregations."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.spans = tracer.spans
        self.lo, self.hi = lo, hi
        self._by_name: dict[str, list[int]] = defaultdict(list)
        for i in range(lo, hi):
            self._by_name[self.spans[i][0]].append(i)

    def indices(self, names) -> list[int]:
        return sorted(i for n in names for i in self._by_name.get(n, ()))

    def outermost(self, names) -> list[int]:
        """Spans of `names` with no ancestor that is also in `names`."""
        out = []
        for i in self.indices(names):
            parent = self.spans[i][3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(i)
        return out

    def inclusive(self, names) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.outermost(names))

    def self_time(self, selects) -> float:
        """Summed span time minus the time covered by direct children."""
        child_cover: dict[int, float] = defaultdict(float)
        for i in range(self.lo, self.hi):
            _, start, _, parent, covered_end = self.spans[i]
            if parent >= 0:
                child_cover[parent] += covered_end - start
        total = 0.0
        for name, idx in self._by_name.items():
            if selects(name):
                total += sum(self.spans[i][2] - self.spans[i][1] - child_cover[i] for i in idx)
        return total

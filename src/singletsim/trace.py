"""Sampled observable series produced by the experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


@dataclass
class Trace:
    """Observable values against a swept variable.

    sweep_values: the swept quantity (seconds for time sweeps, Hz for
        frequency sweeps, cycle counts for pumping).
    observable: the readout value at each sweep point.  NaN marks a point
        whose value could not be determined (a resonance-scan point whose
        fit failed); infinities are rejected.
    singlet_populations: per-pair singlet population, shape (n_pairs, n_points).
    metadata: "protocol" and "sweep_unit" ("s", "Hz" or "cycles") in every
        runner's trace; a resonance scan adds "delta_nu_n_hz",
        "fitted_frequency_hz" and "delta_nu12_hz", and pumping "per_cycle_gain".
    """

    sweep_values: np.ndarray
    observable: np.ndarray
    singlet_populations: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.sweep_values = np.asarray(self.sweep_values, dtype=float)
        self.observable = np.asarray(self.observable, dtype=float)
        if self.sweep_values.shape != self.observable.shape:
            raise ValueError("sweep_values and observable must have equal lengths")
        if np.any(np.isinf(self.observable)):
            raise ValueError("observable values must be finite or NaN")
        if self.singlet_populations is not None:
            self.singlet_populations = np.asarray(self.singlet_populations, dtype=float)
            if self.singlet_populations.shape[-1] != self.sweep_values.shape[0]:
                raise ValueError("singlet_populations length does not match sweep grid")

    @property
    def sweep_unit(self) -> str:
        return self.metadata.get("sweep_unit", "s")

    def copy_with(self, **kwargs) -> "Trace":
        return replace(self, **kwargs)

"""Independent reference for the simulated protocols.

Nothing here calls singletsim.  The rotating-frame Hamiltonian is built
from this file's own spin-1/2 matrices and every segment is propagated
with scipy.linalg.expm, so a fault in the package's operator embedding,
Hamiltonian assembly, eigendecomposition propagators, state construction
or readout shows up as a disagreement.  The reference encodes the
package's documented conventions: spin 0 is the most significant qubit,
Hamiltonians are in Hz with 2*pi in the exponent, the lock term is
nu_n * sum_i (cos(phase) I_ix + sin(phase) I_iy), and the dressed triplet
kets along +x are rotated to the lock phase by exp(-i phase (I_az + I_bz)).

A system is described by plain arrays: offsets (Hz), the symmetric
coupling matrix (Hz) and the pair index tuples.  Segments are tuples:
("pulse", angle, phase), ("delay", duration_s, tx_hz) and
("lock", nutation_hz, phase, tx_hz, duration_s).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import expm

_HALF_PAULI = {
    "x": np.array([[0, 0.5], [0.5, 0]], dtype=complex),
    "y": np.array([[0, -0.5j], [0.5j, 0]], dtype=complex),
    "z": np.array([[0.5, 0], [0, -0.5]], dtype=complex),
}


class RefSystem:
    """Spin operators of an n-spin system, built once by Kronecker products."""

    def __init__(self, offsets_hz, couplings_hz, pairs):
        self.offsets = np.asarray(offsets_hz, dtype=float).copy()
        self.couplings = np.asarray(couplings_hz, dtype=float).copy()
        self.pairs = tuple(tuple(int(i) for i in p) for p in pairs)
        self.n = self.offsets.size
        self.dim = 2**self.n
        self.ops = {axis: [self._embed(i, axis) for i in range(self.n)] for axis in "xyz"}
        self.eye = np.eye(self.dim, dtype=complex)
        self.ix_total = sum(self.ops["x"])
        self.iy_total = sum(self.ops["y"])
        self.iz_total = sum(self.ops["z"])
        self.zeeman = sum(nu * iz for nu, iz in zip(self.offsets, self.ops["z"]))
        self.scalar = sum(
            self.couplings[i, j] * self.dot(i, j)
            for i in range(self.n) for j in range(i + 1, self.n) if self.couplings[i, j] != 0.0
        )
        # two spin-1/2: I_a . I_b is -3/4 on the singlet and +1/4 on the triplets
        self.singlet = [0.25 * self.eye - self.dot(a, b) for a, b in self.pairs]

    def _embed(self, spin: int, axis: str) -> np.ndarray:
        out = np.ones((1, 1), dtype=complex)
        for i in range(self.n):
            out = np.kron(out, _HALF_PAULI[axis] if i == spin else np.eye(2))
        return out

    def dot(self, i: int, j: int) -> np.ndarray:
        return sum(self.ops[a][i] @ self.ops[a][j] for a in "xyz")

    def hamiltonian(self, tx_hz: float, nutation_hz: float = 0.0, phase: float = 0.0):
        """sum_i (nu_i - tx) I_iz + sum_{i<j} J_ij I_i . I_j + nu_n sum_i (cos I_ix + sin I_iy), Hz."""
        lock = nutation_hz * (np.cos(phase) * self.ix_total + np.sin(phase) * self.iy_total)
        return self.zeeman - tx_hz * self.iz_total + self.scalar + lock

    def pair_center(self, p: int) -> float:
        a, b = self.pairs[p]
        return 0.5 * (self.offsets[a] + self.offsets[b])

    def singlet_projector(self, p: int) -> np.ndarray:
        return self.singlet[p]

    def pair_operator(self, p: int, op4: np.ndarray) -> np.ndarray:
        """Embed a 4x4 operator on pair p (basis uu, ud, du, dd), identity elsewhere.

        Expands op4 over products of Pauli matrices of the two spins and
        rebuilds it from this system's own spin operators.
        """
        a, b = self.pairs[p]
        local = {"1": np.eye(2), **{k: 2 * v for k, v in _HALF_PAULI.items()}}
        full = {"1": self.eye, **{k: 2 * self.ops[k][a] for k in "xyz"}}
        full_b = {"1": self.eye, **{k: 2 * self.ops[k][b] for k in "xyz"}}
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for ka, pa in local.items():
            for kb, pb in local.items():
                coeff = np.trace(op4 @ np.kron(pa, pb).conj().T) / 4.0
                if coeff != 0:
                    out += coeff * (full[ka] @ full_b[kb])
        return out


@lru_cache(maxsize=None)
def _dressed_kets() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi+, phi0, phi- along +x in the (uu, ud, du, dd) basis."""
    up_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    dn_x = np.array([1.0, -1.0]) / np.sqrt(2.0)
    phi_plus = np.kron(up_x, up_x)
    phi_0 = (np.kron(up_x, dn_x) + np.kron(dn_x, up_x)) / np.sqrt(2.0)
    phi_minus = -np.kron(dn_x, dn_x)
    return phi_plus.astype(complex), phi_0.astype(complex), phi_minus.astype(complex)


def triplet_block(init, lock_phase: float) -> np.ndarray:
    """4x4 density of the non-source pairs: 'uniform' or a (phi+, phi0, phi-) composition."""
    kets = _dressed_kets()
    if isinstance(init, str) and init == "uniform":
        return sum(np.outer(k, k.conj()) for k in kets) / 3.0
    weights = {"phi_plus": (1, 0, 0), "phi_0": (0, 1, 0), "phi_minus": (0, 0, 1)}.get(init, init)
    ket = sum(w * k for w, k in zip(weights, kets))
    mz = np.array([1.0, 0.0, 0.0, -1.0])
    ket = np.exp(-1j * lock_phase * mz) * ket
    return np.outer(ket, ket.conj())


def ideal_state(ref: RefSystem, source_pair: int, init, lock_phase: float) -> np.ndarray:
    rho = ref.eye.copy()
    for p in range(len(ref.pairs)):
        if p == source_pair:
            rho = rho @ ref.singlet_projector(p)
        else:
            rho = rho @ ref.pair_operator(p, triplet_block(init, lock_phase))
    return rho


def segment_unitary(ref: RefSystem, seg) -> np.ndarray:
    kind = seg[0]
    if kind == "pulse":
        _, angle, phase = seg
        gen = np.cos(phase) * ref.ix_total + np.sin(phase) * ref.iy_total
        return expm(-1j * angle * gen)
    if kind == "delay":
        _, duration, tx = seg
        return expm(-2j * np.pi * ref.hamiltonian(tx) * duration)
    _, nutation, phase, tx, duration = seg
    return expm(-2j * np.pi * ref.hamiltonian(tx, nutation, phase) * duration)


def evolve(ref: RefSystem, rho: np.ndarray, segments) -> np.ndarray:
    for seg in segments:
        u = segment_unitary(ref, seg)
        rho = u @ rho @ u.conj().T
    return rho


def prep_segments(ref: RefSystem, pair: int, prep: dict):
    """Preparation sequence of a PrepSpec-like dict (kind slic or three_pulse)."""
    tx = ref.pair_center(pair)
    if prep["kind"] == "slic":
        ph = prep.get("phase", 0.0)
        return [("pulse", np.pi / 2, ph - np.pi / 2), ("lock", prep["nutation_hz"], ph, tx, prep["duration_s"])]
    t1, t2, t3 = prep["tau1_s"], prep["tau2_s"], prep["tau3_s"]
    return [
        ("pulse", np.pi / 2, 0.0), ("delay", t1, tx),
        ("pulse", np.pi, np.pi / 2), ("delay", t2, tx),
        ("pulse", np.pi / 2, np.pi / 2), ("delay", t3, tx),
    ]


def initial_state(ref: RefSystem, source_pair: int, init, lock_phase: float, prep: dict):
    """Transfer start state; a simulated preparation scales the ideal order."""
    ideal = ideal_state(ref, source_pair, init, lock_phase)
    if prep["kind"] == "ideal":
        return ideal
    pol = prep.get("polarization", 1.0)
    thermal = (ref.eye + (2.0 * pol / ref.n) * ref.iz_total) / ref.dim
    prepared = evolve(ref, thermal, prep_segments(ref, source_pair, prep))
    achieved = np.trace(prepared @ ref.singlet_projector(source_pair)).real
    weight = float(np.clip((achieved - 0.25) / 0.75, 0.0, 1.0))
    return weight * ideal + (1.0 - weight) * ref.eye / ref.dim


def readout_segments(ref: RefSystem, readout_pair: int, prep: dict):
    tx = ref.pair_center(readout_pair)
    if prep["kind"] == "slic":
        return [("lock", prep["nutation_hz"], prep.get("phase", 0.0), tx, prep["duration_s"])]
    if prep["kind"] == "three_pulse":
        t1, t2, t3 = prep["tau1_s"], prep["tau2_s"], prep["tau3_s"]
        return [
            ("delay", t3, tx), ("pulse", -np.pi / 2, np.pi / 2), ("delay", t2, tx),
            ("pulse", -np.pi, np.pi / 2), ("delay", t1, tx),
        ]
    a, b = ref.pairs[readout_pair]
    return [("lock", ref.couplings[a, b], 0.0, tx, 0.15)]


def _shift_phases(segments, shift: float):
    out = []
    for seg in segments:
        if seg[0] == "pulse":
            out.append(("pulse", seg[1], seg[2] + shift))
        elif seg[0] == "lock":
            out.append(("lock", seg[1], seg[2] + shift, seg[3], seg[4]))
        else:
            out.append(seg)
    return out


def signal_proxy(ref: RefSystem, rho: np.ndarray, readout_pair: int, prep: dict, phase_cycle: bool):
    segs = readout_segments(ref, readout_pair, prep)
    mx = lambda r: np.trace(r @ ref.ix_total).real  # noqa: E731
    if not phase_cycle:
        return mx(evolve(ref, rho, segs))
    plus = mx(evolve(ref, rho, segs))
    minus = mx(evolve(ref, rho, _shift_phases(segs, np.pi)))
    return 0.5 * (plus - minus)


def point(ref: RefSystem, spec: dict, tau: float) -> tuple[float, np.ndarray]:
    """(observable, per-pair singlet populations) of one sweep point.

    spec holds: kind (rabi, ramsey, double_rabi), source_pair, readout_pair,
    init, prep, readout, phase_cycle, transfer (nutation, phase, tx) and,
    per kind, pi_half_s and free (nutation, phase, tx) or phases (a, b).
    """
    nut, phase, tx = spec["transfer"]
    kind = spec["kind"]
    if kind == "double_rabi":
        pa, pb = spec["phases"]
        rho0 = initial_state(ref, spec["source_pair"], spec["init"], pa, spec["prep"])
        segs = [("lock", nut, pa, tx, tau), ("lock", nut, pb, tx, tau)]
    else:
        rho0 = initial_state(ref, spec["source_pair"], spec["init"], phase, spec["prep"])
        if kind == "rabi":
            segs = [("lock", nut, phase, tx, tau)]
        else:
            half = ("lock", nut, phase, tx, spec["pi_half_s"])
            fn, fp, ftx = spec["free"]
            segs = [half, ("lock", fn, fp, ftx, tau), half]
    rho = evolve(ref, rho0, segs)
    pops = np.array([np.trace(rho @ ref.singlet_projector(p)).real for p in range(len(ref.pairs))])
    if spec["readout"] == "projector":
        return float(pops[spec["readout_pair"]]), pops
    return float(signal_proxy(ref, rho, spec["readout_pair"], spec["prep"], spec["phase_cycle"])), pops

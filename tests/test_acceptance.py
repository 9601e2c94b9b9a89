"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured figures (run with `pytest -s` to see them).

Absolute measured lifetimes and resonance positions from the experiments
depend on relaxation physics outside this model; the criteria below are
consistency and property checks with the published numbers used as
configured inputs and anchors.
"""

import time

import numpy as np
from conftest import effective_receiving_trace, sequence_propagator, thermal_density

from singletsim.analysis import (
    fit_exponential,
    fit_lorentzian,
    fit_rabi,
    fit_ramsey,
)
from singletsim.hamiltonian import (
    SpinLockParams,
    effective_nutation_difference,
    pair_center_offset,
    resonant_nutation,
)
from singletsim.presets import glutamate, phe_gly_gly
from singletsim.propagator import (
    HardPulse,
    RelaxationEnvelope,
    SpinLock,
)
from singletsim.sequences import (
    PrepSpec,
    Protocol,
    exact_resonance_nutation,
    run_double_rabi,
    run_pumping,
    run_rabi,
    run_resonance_scan,
)


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.1f} s exceeded the {self.seconds:.0f} s budget"
            )
        return False


def report(n: int, message: str) -> None:
    print(f"[criterion {n:02d}] PASS: {message}")


def glutamate_resonant_lock(system, channel="phi_minus"):
    nutation = exact_resonance_nutation(system, channel, 0, 1)
    return SpinLockParams(nutation, 0.0, pair_center_offset(system, 0))


def test_criterion_01_transfer_frequency_consistency():
    # full 4-spin on-resonance Rabi trace fits sin^2(pi f tau) with
    # f = 2.57 Hz (the preset cis/trans difference) within 2 %
    with Budget(60) as budget:
        glu = glutamate()
        lock = glutamate_resonant_lock(glu)
        proto = Protocol(
            kind="rabi", sweep=np.linspace(0.02, 2.5, 125), transfer=lock,
            source_pair=0, readout_pair=1,
        )
        trace = run_rabi(glu, proto)
        fit = fit_rabi(trace, mode="sin2", with_decay=False)
        f = fit.params["frequency_hz"]
        assert fit.converged
        assert abs(f / 2.57 - 1) < 0.02
    report(1, f"fitted f = {f:.4f} Hz vs 2.57 Hz ({(f / 2.57 - 1) * 100:+.3f} %), {budget.elapsed:.1f} s")


def test_criterion_02_effective_nutation_difference_accuracy():
    # closed form vs dressed-splitting diagonalization at the three
    # documented operating points: 2.70 / 2.30 / 23.1 Hz
    with Budget(1) as budget:
        points = [(500.0, 52.0, 2.70), (280.0, 36.0, 2.30), (47.0, 52.0, 23.1)]
        results = []
        for nutation, dnu12, anchor in points:
            approx = effective_nutation_difference(nutation, dnu12)
            h_on = np.array([[0.0, nutation / 2], [nutation / 2, 0.0]])
            h_off = np.array([[dnu12 / 2, nutation / 2], [nutation / 2, -dnu12 / 2]])
            exact = float(np.diff(np.linalg.eigvalsh(h_off))[0] - np.diff(np.linalg.eigvalsh(h_on))[0])
            assert abs(approx - exact) / exact < 0.01
            assert abs(approx - anchor) < 0.02
            results.append(approx)
    report(2, f"delta_nu_n = {results[0]:.3f} / {results[1]:.3f} / {results[2]:.2f} Hz, {budget.elapsed:.2f} s")


def test_criterion_03_null_transfer_with_equal_couplings():
    # all four interpair couplings equal -> C = 0 exactly; pair members
    # taken equivalent so no intrapair leakage masks the null
    with Budget(10) as budget:
        glu = glutamate(pair_splittings_hz=(0.0, 0.0), cis_hz=3.7, trans_hz=3.7)
        lock = SpinLockParams(599.76, 0.0, pair_center_offset(glu, 0))
        proto = Protocol(kind="rabi", sweep=np.linspace(0.05, 10.0, 200), transfer=lock)
        trace = run_rabi(glu, proto)
        peak = trace.observable.max()
        assert peak < 1e-6
    report(3, f"max receiving-pair singlet population {peak:.2e} over 10 s, {budget.elapsed:.1f} s")


def test_criterion_04_numerical_hygiene():
    # unitarity of every segment propagator and trace preservation over a
    # 1000-segment sequence
    with Budget(30) as budget:
        glu = glutamate()
        rng = np.random.default_rng(4)
        segments = []
        for k in range(1000):
            r = k % 3
            if r == 0:
                segments.append(HardPulse(rng.uniform(0.1, np.pi), rng.uniform(0, 2 * np.pi)))
            elif r == 1:
                segments.append(SpinLock(SpinLockParams(0.0, 0.0, 408.0), rng.uniform(1e-4, 5e-3)))
            else:
                params = SpinLockParams(rng.uniform(10.0, 600.0), rng.uniform(0, 2 * np.pi), 408.0)
                segments.append(SpinLock(params, rng.uniform(1e-4, 5e-3)))
        worst = 0.0
        for seg in segments:
            u = sequence_propagator(glu, [seg])
            worst = max(worst, np.max(np.abs(u @ u.conj().T - np.eye(16))))
        assert worst < 1e-10
        rho = thermal_density(glu, 1.0)
        u = sequence_propagator(glu, segments)
        drift = abs(np.trace(u @ rho @ u.conj().T).real - 1.0)
        assert drift < 1e-10
    report(4, f"max |U U+ - 1| = {worst:.1e}, trace drift {drift:.1e} over 1000 segments, {budget.elapsed:.1f} s")


def test_criterion_05_effective_model_equivalence():
    # full simulation vs the two-level channel average, RMS < 0.05 on
    # resonance for lock nutation >= 5 * delta_nu12
    with Budget(60) as budget:
        rms_values = []
        for intrapair in [(15.5, 17.75), (15.5, 20.1)]:
            glu = glutamate(intrapair_hz=intrapair)
            lock = glutamate_resonant_lock(glu)
            assert lock.nutation_hz >= 5 * 52.0
            sweep = np.linspace(0.02, 2.0, 100)
            trace = run_rabi(glu, Protocol(kind="rabi", sweep=sweep, transfer=lock))
            predicted = effective_receiving_trace(glu, lock, sweep)
            rms = float(np.sqrt(np.mean((trace.observable - predicted) ** 2)))
            assert rms < 0.05
            rms_values.append(rms)
    report(5, f"RMS vs effective model: {rms_values[0]:.4f} and {rms_values[1]:.4f}, {budget.elapsed:.1f} s")


def test_criterion_06_double_rabi_period():
    # component-independent configuration (equal singlet energies,
    # transmitter midway): the +y/-y pair completes a full oscillation at
    # 2 tau_SL = 1 / |J_cis - J_trans| within 2 %
    with Budget(60) as budget:
        glu = glutamate(intrapair_hz=(16.625, 16.625))
        tx = 0.5 * (pair_center_offset(glu, 0) + pair_center_offset(glu, 1))
        proto = Protocol(
            kind="double_rabi",
            sweep=np.linspace(0.005, 0.45, 90),
            transfer=SpinLockParams(500.0, 0.0, tx),
        )
        trace = run_double_rabi(glu, proto)
        fit = fit_rabi((2 * trace.sweep_values, trace.observable), "sin2", with_decay=False)
        f = fit.params["frequency_hz"]
        assert abs(f / 2.57 - 1) < 0.02
        k = np.argmin(np.abs(2 * trace.sweep_values - 1 / 2.57))
        assert trace.observable[k] < 0.02  # back at the source at 2 tau = 1/f
    report(6, f"period frequency {f:.4f} Hz, residual at 2 tau = 1/f: {trace.observable[k]:.1e}, {budget.elapsed:.1f} s")


def test_criterion_07_phase_independence():
    # +y vs -y lock amplitude difference below 1e-3 (uniform triplet
    # background makes the two phases drive mirror channels identically)
    with Budget(60) as budget:
        glu = glutamate()
        nutation = exact_resonance_nutation(glu, "phi_minus", 0, 1)
        sweep = np.linspace(0.02, 1.2, 60)
        traces = {}
        for phase in (np.pi / 2, -np.pi / 2):
            lock = SpinLockParams(nutation, phase, pair_center_offset(glu, 0))
            traces[phase] = run_rabi(glu, Protocol(kind="rabi", sweep=sweep, transfer=lock)).observable
        diff = float(np.max(np.abs(traces[np.pi / 2] - traces[-np.pi / 2])))
        assert diff < 1e-3
    report(7, f"max +y vs -y trace difference {diff:.1e}, {budget.elapsed:.1f} s")


def test_criterion_08_resonance_scan():
    # scan peak within 10 % of the preset singlet-energy difference and
    # FWHM within 10 % of 4C (the two-level Lorentzian contrast)
    with Budget(300) as budget:
        glu = glutamate()
        targets = [0.6, 1.0, 1.5, 2.0, 2.25, 2.6, 3.2, 4.0, 5.0, 6.5, 8.0, 9.5]
        nus = np.array(sorted(resonant_nutation(52.0, d) for d in targets))
        proto = Protocol(
            kind="resonance_scan",
            sweep=nus,
            transfer=SpinLockParams(500.0, 0.0, pair_center_offset(glu, 0)),
            triplet_init="phi_minus",
            scan_tau_grid_s=np.linspace(0.02, 2.0, 100),
        )
        trace = run_resonance_scan(glu, proto)
        dnn = np.array(trace.metadata["delta_nu_n_hz"])
        assert np.all(np.isfinite(trace.observable))
        fit = fit_lorentzian((dnn, trace.observable))
        center, fwhm = fit.params["center"], fit.params["fwhm"]
        assert abs(center / 2.25 - 1) < 0.10
        assert abs(fwhm / 5.14 - 1) < 0.10
    report(8, f"Lorentzian center {center:.3f} Hz (vs 2.25), FWHM {fwhm:.3f} Hz (vs 5.14), {budget.elapsed:.1f} s")


def test_criterion_09_fit_round_trips():
    # noiseless synthetic data: all four models to 1e-6 relative;
    # at SNR 20 over 50 seeded realizations: f within 2 %, decay
    # constants within 10 %
    with Budget(60) as budget:
        t = np.linspace(0.01, 3.2, 240)
        y_rabi = (np.sin(np.pi * 2.57 * t) ** 2 + 0.1) * np.exp(-t / 1.6)
        fit = fit_rabi((t, y_rabi))
        for key, value in [("frequency_hz", 2.57), ("t_rabi_s", 1.6), ("amplitude", 1.0), ("offset", 0.1)]:
            assert abs(fit.params[key] / value - 1) < 1e-6

        tr = np.linspace(0.01, 8.0, 700)
        y_ramsey = (np.cos(2 * np.pi * 2.33 * tr - np.deg2rad(20)) * np.exp(-tr / 1.3) + 0.2) * np.exp(-tr / 4.4)
        fit = fit_ramsey((tr, y_ramsey), sign=1)
        for key, value in [
            ("frequency_hz", 2.33), ("phase_rad", np.deg2rad(20)),
            ("t2s_star_s", 1.3), ("t_s_s", 4.4),
        ]:
            assert abs(fit.params[key] / value - 1) < 1e-6

        x = np.linspace(-8, 12, 81)
        g = (4.3 / 2) ** 2
        y_lor = 0.03 + 0.9 * g / ((x - 2.25) ** 2 + g)
        fit = fit_lorentzian((x, y_lor))
        for key, value in [("center", 2.25), ("fwhm", 4.3), ("height", 0.9), ("baseline", 0.03)]:
            assert abs(fit.params[key] / value - 1) < 1e-6

        te = np.linspace(0.0, 1.0, 150)
        y_exp = np.exp(-te / 0.205) + 0.1
        fit = fit_exponential((te, y_exp))
        assert abs(fit.params["t_s"] / 0.205 - 1) < 1e-6

        seeds = np.random.default_rng(20260809).integers(0, 2**31, 50)
        worst = {"rabi_f": 0.0, "rabi_t": 0.0, "ramsey_f": 0.0, "ramsey_t2": 0.0,
                 "ramsey_ts": 0.0, "exp_t": 0.0}
        for seed in seeds:
            noise = lambda n: np.random.default_rng(int(seed)).normal(0, 0.05, n)
            fit = fit_rabi((t, y_rabi + noise(t.size)))
            worst["rabi_f"] = max(worst["rabi_f"], abs(fit.params["frequency_hz"] / 2.57 - 1))
            worst["rabi_t"] = max(worst["rabi_t"], abs(fit.params["t_rabi_s"] / 1.6 - 1))
            fit = fit_ramsey((tr, y_ramsey + noise(tr.size)), sign=1)
            worst["ramsey_f"] = max(worst["ramsey_f"], abs(fit.params["frequency_hz"] / 2.33 - 1))
            worst["ramsey_t2"] = max(worst["ramsey_t2"], abs(fit.params["t2s_star_s"] / 1.3 - 1))
            worst["ramsey_ts"] = max(worst["ramsey_ts"], abs(fit.params["t_s_s"] / 4.4 - 1))
            fit = fit_exponential((te, y_exp + noise(te.size)))
            worst["exp_t"] = max(worst["exp_t"], abs(fit.params["t_s"] / 0.205 - 1))
        assert worst["rabi_f"] < 0.02 and worst["ramsey_f"] < 0.02
        for key in ("rabi_t", "ramsey_t2", "ramsey_ts", "exp_t"):
            assert worst[key] < 0.10, key
    report(9, "noiseless 1e-6; SNR-20 worst: f {:.2f} % / {:.2f} %, decays {:.1f} / {:.1f} / {:.1f} / {:.1f} %, {:.0f} s".format(
        100 * worst["rabi_f"], 100 * worst["ramsey_f"], 100 * worst["rabi_t"],
        100 * worst["ramsey_t2"], 100 * worst["ramsey_ts"], 100 * worst["exp_t"], budget.elapsed))


def test_criterion_10_weak_coupling_regime():
    # 8 mHz coupling difference with the 11 s decay envelope: buildup then
    # decline, no completed oscillation in 20 s, frequency recovered
    # within 25 % from the truncated window
    with Budget(120) as budget:
        pgg = phe_gly_gly(pair_splittings_hz=(0.0, 0.0))
        dnu12 = abs(pair_center_offset(pgg, 1) - pair_center_offset(pgg, 0))
        nutation = resonant_nutation(dnu12, 2.3)
        lock = SpinLockParams(nutation, 0.0, pair_center_offset(pgg, 0))
        sweep = np.linspace(0.25, 30.0, 120)
        proto = Protocol(kind="rabi", sweep=sweep, transfer=lock)
        trace = run_rabi(pgg, proto, envelope=RelaxationEnvelope(t_rabi_s=11.0))
        in20 = sweep <= 20.0
        k20 = np.argmax(trace.observable[in20])
        # buildup through most of the 20 s window, no completed oscillation
        assert sweep[in20][k20] > 15.0
        assert np.all(np.diff(trace.observable[sweep <= 15.0]) > 0)
        k_full = np.argmax(trace.observable)
        assert trace.observable[-1] < trace.observable[k_full]  # decline sets in
        fit = fit_rabi(trace, mode="sin2", with_decay=True)
        f = fit.params["frequency_hz"]
        assert abs(f / 0.008 - 1) < 0.25
    report(10, f"fitted f = {1000 * f:.2f} mHz (vs 8 mHz), peak at {sweep[k_full]:.1f} s, {budget.elapsed:.1f} s")


def test_criterion_11_pumping_monotonicity():
    # repeated prepare-transfer cycles: 4 cycles beat 1; with the 25 s
    # end-pair singlet lifetime, 8 cycles sit within 10 % of 4
    with Budget(120) as budget:
        pgg = phe_gly_gly()
        nutation = exact_resonance_nutation(pgg, "phi_plus", 0, 1)
        lock = SpinLockParams(nutation, 0.0, pair_center_offset(pgg, 0))
        proto = Protocol(
            kind="pumping",
            sweep=np.array([1.0, 4.0, 8.0]),
            transfer=lock,
            prep=PrepSpec(kind="three_pulse", tau1_s=0.007, tau2_s=0.0205, tau3_s=0.00925),
            pump_transfer_duration_s=15.5,
            pump_reset_delay_s=3.1,
        )
        free_growth = run_pumping(pgg, proto)
        assert free_growth.observable[1] > free_growth.observable[0]
        limited = run_pumping(pgg, proto, envelope=RelaxationEnvelope(t_s_s=25.0))
        assert limited.observable[1] > limited.observable[0]
        ratio = limited.observable[2] / limited.observable[1]
        assert abs(ratio - 1.0) < 0.10
    report(11, f"4 cycles / 1 cycle = {limited.observable[1] / limited.observable[0]:.2f}, 8/4 = {ratio:.3f}, {budget.elapsed:.1f} s")

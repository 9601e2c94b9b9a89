import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    _phase_shifted_pulses,
    dense,
    embed_spin_operator,
    expectation,
    effective_receiving_trace,
    ideal_transfer_state,
    oracle_pair_block_levels,
    oracle_propagator,
    oracle_resonance_nutation,
    oracle_state,
    protocol_of,
    singlet_projector,
    thermal_density,
)

from singletsim import sequences
from singletsim.analysis import fit_rabi
from singletsim.hamiltonian import SpinLockParams, pair_center_offset
from singletsim.presets import glutamate, phe_gly_gly, two_pair_system
from singletsim.propagator import (
    HardPulse,
    RelaxationEnvelope,
    SpinLock,
    swept_expectations,
)
from singletsim.sequences import (
    PrepSpec,
    Protocol,
    _pair_block_levels,
    _readout_sequence,
    exact_channel_detuning,
    exact_resonance_nutation,
    prep_sequence,
    prepared_singlet_population,
    run_double_rabi,
    run_protocol,
    run_pumping,
    run_rabi,
    run_ramsey,
    run_resonance_scan,
    slic_sequence,
    three_pulse_sequence,
    transfer_initial_state,
    transfer_resonance_nutation,
)
from singletsim.spincore import SpinSystem, TripletAmplitudes


def pair_system(j, dnu):
    return SpinSystem(
        np.array([dnu / 2, -dnu / 2]), np.array([[0.0, j], [j, 0.0]]), ((0, 1),)
    )


def glu_lock(system, nutation=None, phase=0.0):
    if nutation is None:
        nutation = exact_resonance_nutation(system, "phi_minus", 0, 1)
    return SpinLockParams(nutation, phase, pair_center_offset(system, 0))


class TestSlicSequence:
    # calibrated parameter sets quoted with the two molecules
    @pytest.mark.parametrize(
        "j, dnu, nutation, duration",
        [
            (15.5, 4.5, 15.5, 0.157),
            (17.75, 4.9, 17.0, 0.145),
            (17.5, 2.357, 17.5, 0.300),
        ],
    )
    def test_calibrated_points_create_singlet(self, j, dnu, nutation, duration):
        system = pair_system(j, dnu)
        rho = thermal_density(system, 1.0)
        before = expectation(rho, singlet_projector(system, 0)).real
        out = oracle_state(system, rho, slic_sequence(system, 0, nutation, duration))
        after = expectation(out, singlet_projector(system, 0)).real
        assert before == pytest.approx(0.25, abs=1e-12)
        assert after - before > 0.2  # near the 0.25 ceiling for unit polarization

    def test_duration_matches_crossing_time(self):
        # transfer time 1 / (sqrt(2) delta_nu): half or double the duration
        # gives visibly less singlet
        system = pair_system(15.5, 4.5)
        rho = thermal_density(system, 1.0)

        def gain(duration):
            out = oracle_state(system, rho, slic_sequence(system, 0, 15.5, duration))
            return expectation(out, singlet_projector(system, 0)).real - 0.25

        optimal = 1.0 / (np.sqrt(2) * 4.5)
        assert gain(optimal) > gain(optimal / 2) + 0.05
        assert gain(optimal) > 0.24

    def test_phase_shift_changes_crossing_branch(self):
        # a 180 degree phase shift flips the lock sign, moving the crossing
        # to the opposite dressed level; the prep still works
        system = pair_system(15.5, 4.5)
        rho = thermal_density(system, 1.0)
        out = oracle_state(system, rho, slic_sequence(system, 0, 15.5, 0.157, phase=np.pi))
        assert expectation(out, singlet_projector(system, 0)).real > 0.45


class TestThreePulseSequence:
    def test_calibrated_delays_from_thermal(self):
        # center-pair parameters of the peptide preset
        system = pair_system(19.8, 27.0)
        prep = PrepSpec(kind="three_pulse", tau1_s=0.007, tau2_s=0.0205, tau3_s=0.00925)
        achieved = prepared_singlet_population(system, 0, prep)
        assert achieved > 0.45

    def test_zero_delays_are_a_plain_rotation(self):
        system = pair_system(19.8, 27.0)
        rho = thermal_density(system, 1.0)
        out = oracle_state(system, rho, three_pulse_sequence(0.0, 0.0, 0.0))
        before = expectation(rho, singlet_projector(system, 0)).real
        after = expectation(out, singlet_projector(system, 0)).real
        assert abs(after - before) < 1e-6

    def test_configured_delays_near_grid_search_optimum(self):
        # oracle: coarse grid search over the delay space
        system = pair_system(19.8, 27.0)

        def pop(t1, t2, t3):
            prep = PrepSpec(kind="three_pulse", tau1_s=t1, tau2_s=t2, tau3_s=t3)
            return prepared_singlet_population(system, 0, prep)

        configured = pop(0.007, 0.0205, 0.00925)
        grid = np.linspace(0.002, 0.03, 8)
        best = max(
            pop(t1, t2, t3) for t1 in grid for t2 in grid for t3 in grid
        )
        assert configured > 0.9 * best

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            three_pulse_sequence(-0.001, 0.0, 0.0)


class TestProtocolValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown protocol kind"):
            Protocol(kind="nope", sweep=np.array([1.0]), transfer=SpinLockParams(1.0))

    def test_phase_cycle_needs_the_signal_proxy_readout(self):
        with pytest.raises(ValueError, match="phase_cycle"):
            Protocol(kind="rabi", sweep=np.array([1.0]), transfer=SpinLockParams(1.0), phase_cycle=True)
        Protocol(kind="rabi", sweep=np.array([1.0]), transfer=SpinLockParams(1.0), readout="signal_proxy",
                 phase_cycle=True)

    def test_non_increasing_sweep(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Protocol(kind="rabi", sweep=np.array([1.0, 1.0]), transfer=SpinLockParams(1.0))

    @pytest.mark.parametrize("field", ["sweep", "scan_tau_grid_s"])
    def test_non_finite_grid_rejected(self, field):
        grids = {"sweep": np.array([0.1]), "scan_tau_grid_s": np.array([0.1, 0.2]), field: [0.1, np.nan]}
        with pytest.raises(ValueError, match="finite"):
            Protocol(kind="resonance_scan", transfer=SpinLockParams(1.0), **grids)

    @pytest.mark.parametrize("kind", ["rabi", "ramsey", "double_rabi"])
    def test_negative_swept_duration_rejected(self, kind):
        # a negative tau would evolve backwards and grow the decay envelope
        lock = SpinLockParams(1.0)
        with pytest.raises(ValueError, match="sweep values must be >= 0"):
            protocol_of(kind, sweep=np.array([-1.0, 0.5]), transfer=lock,
                        pi_half_duration_s=0.1, free_lock=lock)

    @pytest.mark.parametrize("kind", ["pumping", "resonance_scan"])
    def test_signal_proxy_readout_rejected_where_unread(self, kind):
        # these runners read the readout pair's singlet population only
        with pytest.raises(ValueError, match=f"{kind} protocol does not read readout"):
            Protocol(kind=kind, sweep=np.array([1.0]), transfer=SpinLockParams(1.0), readout="signal_proxy",
                     pump_transfer_duration_s=0.1, pump_reset_delay_s=0.1, scan_tau_grid_s=np.array([0.1]))

    def test_negative_scan_duration_rejected(self):
        with pytest.raises(ValueError, match="scan_tau_grid_s must be finite and >= 0"):
            Protocol(kind="resonance_scan", sweep=np.array([500.0]), transfer=SpinLockParams(1.0),
                     scan_tau_grid_s=np.array([-0.1, 0.5]))

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("field", ["pi_half_duration_s", "pump_transfer_duration_s", "pump_reset_delay_s",
                                       "duration_s", "tau1_s", "tau2_s", "tau3_s"])
    def test_duration_not_finite_and_non_negative_rejected(self, field, value):
        # the Python API has no config loader to stop a NaN, which would run to an all-NaN trace
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            if field.startswith("p"):
                lock = SpinLockParams(1.0)
                shared = dict(sweep=np.array([0.1]), transfer=lock, pi_half_duration_s=0.1, free_lock=lock,
                              pump_transfer_duration_s=0.1, pump_reset_delay_s=0.1)
                protocol_of("ramsey" if field == "pi_half_duration_s" else "pumping", **{**shared, field: value})
            else:
                PrepSpec(**{**vars(ENGINE_PREPS["slic" if field == "duration_s" else "three_pulse"]), field: value})

    @pytest.mark.parametrize("kind", ["ideal", "three_pulse"])
    def test_prep_phase_rejected_unless_slic(self, kind):
        # an ideal prep has no sequence and a three-pulse one takes no phase
        with pytest.raises(ValueError, match=f"{kind} prep does not read phase"):
            PrepSpec(**{**vars(ENGINE_PREPS[kind]), "phase": 1.3})

    @pytest.mark.parametrize("grid", [[], [0.2, 0.1], [0.1, 0.1]])
    def test_scan_grid_must_be_nonempty_and_increasing(self, grid):
        with pytest.raises(ValueError, match="scan_tau_grid_s must be nonempty and strictly increasing"):
            Protocol(kind="resonance_scan", sweep=np.array([500.0]), transfer=SpinLockParams(1.0),
                     scan_tau_grid_s=np.array(grid))

    @pytest.mark.parametrize("polarization", [1.5, -1.01])
    def test_polarization_outside_unit_interval_rejected(self, polarization):
        with pytest.raises(ValueError, match="polarization must lie in"):
            PrepSpec(kind="slic", nutation_hz=15.5, duration_s=0.157, polarization=polarization)

    def test_kind_mismatch_between_protocol_and_runner(self):
        proto = Protocol(kind="rabi", sweep=np.array([0.1]), transfer=SpinLockParams(1.0))
        with pytest.raises(ValueError, match="double_rabi"):
            run_double_rabi(glutamate(), proto)

    def test_ramsey_requires_free_lock(self):
        with pytest.raises(ValueError, match="ramsey"):
            Protocol(kind="ramsey", sweep=np.array([0.1]), transfer=SpinLockParams(1.0))


class TestRunRabi:
    def test_on_resonance_frequency(self):
        glu = glutamate()
        lock = glu_lock(glu)
        proto = Protocol(
            kind="rabi", sweep=np.linspace(0.02, 2.5, 125), transfer=lock,
            source_pair=0, readout_pair=1,
        )
        trace = run_rabi(glu, proto)
        fit = fit_rabi(trace, mode="sin2", with_decay=False)
        assert abs(fit.params["frequency_hz"] / 2.57 - 1) < 0.02

    def test_source_receiver_complementarity(self):
        glu = glutamate()
        lock = glu_lock(glu)
        sweep = np.linspace(0.02, 2.5, 125)
        receiver = run_rabi(
            glu, Protocol(kind="rabi", sweep=sweep, transfer=lock, readout_pair=1)
        )
        source = run_rabi(
            glu, Protocol(kind="rabi", sweep=sweep, transfer=lock, readout_pair=0)
        )
        f_r = fit_rabi(receiver, "sin2", with_decay=False).params["frequency_hz"]
        f_s = fit_rabi(source, "cos2", with_decay=False).params["frequency_hz"]
        assert abs(f_r - f_s) / f_r < 0.01
        # oscillatory parts anti-correlate (the 180 degree phase relation)
        r = receiver.observable - receiver.observable.mean()
        s = source.observable - source.observable.mean()
        assert np.corrcoef(r, s)[0, 1] < -0.99
        total = receiver.observable + source.observable
        assert np.ptp(total) < 0.05

    def test_uniform_triplet_caps_transfer_at_two_thirds(self):
        glu = glutamate()
        proto = Protocol(
            kind="rabi", sweep=np.linspace(0.02, 3.0, 150), transfer=glu_lock(glu)
        )
        trace = run_rabi(glu, proto)
        assert trace.observable.max() <= 2.0 / 3.0 + 0.01

    def test_no_lock_no_transfer_weak_coupling(self):
        # without spin-locking, no channel reaches resonance in the peptide
        pgg = phe_gly_gly()
        proto = Protocol(
            kind="rabi",
            sweep=np.linspace(0.1, 10.0, 50),
            transfer=SpinLockParams(0.0, 0.0, pair_center_offset(pgg, 0)),
        )
        trace = run_rabi(pgg, proto)
        assert trace.observable.max() < 0.01

    def test_no_lock_no_transfer_without_t0_background(self):
        # in glutamate the unlocked null-transfer limit holds for the
        # Zeeman-split triplet components (the lab's T0 component is
        # relaxation-quenched, which the unitary model does not include)
        glu = glutamate()
        from singletsim.spincore import TripletAmplitudes

        t_plus_free = TripletAmplitudes(0.5, -np.sqrt(0.5), -0.5)  # z-basis T+
        proto = Protocol(
            kind="rabi",
            sweep=np.linspace(0.1, 10.0, 50),
            transfer=SpinLockParams(0.0, 0.0, pair_center_offset(glu, 0)),
            triplet_init=t_plus_free,
        )
        trace = run_rabi(glu, proto)
        assert trace.observable.max() < 0.01

    def test_equal_interpair_couplings_flat_trace(self):
        glu = glutamate(pair_splittings_hz=(0.0, 0.0), cis_hz=3.7, trans_hz=3.7)
        proto = Protocol(
            kind="rabi", sweep=np.linspace(0.05, 5.0, 60), transfer=glu_lock(glu, 599.76)
        )
        trace = run_rabi(glu, proto)
        assert trace.observable.max() < 1e-10

    def test_phase_independence_of_transfer(self):
        glu = glutamate()
        nutation = exact_resonance_nutation(glu, "phi_minus", 0, 1)
        sweep = np.linspace(0.02, 1.2, 60)
        traces = {}
        for phase in (np.pi / 2, -np.pi / 2):
            lock = SpinLockParams(nutation, phase, pair_center_offset(glu, 0))
            traces[phase] = run_rabi(
                glu, Protocol(kind="rabi", sweep=sweep, transfer=lock)
            ).observable
        assert np.max(np.abs(traces[np.pi / 2] - traces[-np.pi / 2])) < 1e-3

    def test_simulated_prep_scales_trace(self):
        glu = glutamate()
        lock = glu_lock(glu)
        sweep = np.linspace(0.05, 0.8, 16)
        ideal = run_rabi(glu, Protocol(kind="rabi", sweep=sweep, transfer=lock))
        prepped = run_rabi(
            glu,
            Protocol(
                kind="rabi", sweep=sweep, transfer=lock,
                prep=PrepSpec(kind="slic", nutation_hz=15.5, duration_s=0.157),
            ),
        )
        ratio = np.ptp(prepped.observable) / np.ptp(ideal.observable)
        assert 0.02 < ratio < 1.0  # scaled down, same shape
        corr = np.corrcoef(ideal.observable, prepped.observable)[0, 1]
        assert corr > 0.999


class TestEffectiveModelAgreement:
    def test_full_simulation_matches_channel_average(self):
        glu = glutamate()
        lock = glu_lock(glu)
        sweep = np.linspace(0.02, 2.0, 100)
        trace = run_rabi(glu, Protocol(kind="rabi", sweep=sweep, transfer=lock))
        predicted = effective_receiving_trace(glu, lock, sweep)
        rms = np.sqrt(np.mean((trace.observable - predicted) ** 2))
        assert rms < 0.05

    def test_polarized_channel_matches_two_level(self):
        glu = glutamate()
        lock = glu_lock(glu)
        sweep = np.linspace(0.02, 1.5, 75)
        trace = run_rabi(
            glu,
            Protocol(kind="rabi", sweep=sweep, transfer=lock, triplet_init="phi_minus"),
        )
        predicted = effective_receiving_trace(glu, lock, sweep, weights={"phi_minus": 1.0})
        rms = np.sqrt(np.mean((trace.observable - predicted) ** 2))
        assert rms < 0.05


class TestRunDoubleRabi:
    def test_same_phase_pair_reproduces_single_rabi(self):
        # oracle: (+y, +y) is one continuous lock of duration 2 tau
        glu = glutamate()
        nutation = exact_resonance_nutation(glu, "phi_minus", 0, 1)
        tx = pair_center_offset(glu, 0)
        sweep = np.linspace(0.02, 0.6, 30)
        double = run_double_rabi(
            glu,
            Protocol(
                kind="double_rabi", sweep=sweep,
                transfer=SpinLockParams(nutation, 0.0, tx),
                double_rabi_phases=(np.pi / 2, np.pi / 2),
            ),
        )
        single = run_rabi(
            glu,
            Protocol(
                kind="rabi", sweep=2 * sweep,
                transfer=SpinLockParams(nutation, np.pi / 2, tx),
            ),
        )
        assert np.max(np.abs(double.observable - single.observable)) < 1e-10

    def test_full_period_in_component_independent_regime(self):
        # equal singlet energies and a transmitter midway make every
        # channel resonant under either lock phase; the trace then runs
        # through a full period at 2 tau = 1 / |J_cis - J_trans|
        glu = glutamate(intrapair_hz=(16.625, 16.625))
        tx = 0.5 * (pair_center_offset(glu, 0) + pair_center_offset(glu, 1))
        proto = Protocol(
            kind="double_rabi",
            sweep=np.linspace(0.005, 0.45, 90),
            transfer=SpinLockParams(500.0, 0.0, tx),
        )
        trace = run_double_rabi(glu, proto)
        fit = fit_rabi((2 * trace.sweep_values, trace.observable), "sin2", with_decay=False)
        assert abs(fit.params["frequency_hz"] / 2.57 - 1) < 0.02
        k = np.argmin(np.abs(2 * trace.sweep_values - 1 / 2.57))
        assert trace.observable[k] < 0.01
        assert trace.observable.max() > 0.9

    def test_zero_duration_leaves_source_singlet(self):
        glu = glutamate()
        nutation = exact_resonance_nutation(glu, "phi_minus", 0, 1)
        proto = Protocol(
            kind="double_rabi",
            sweep=np.array([1e-9, 0.1]),
            transfer=SpinLockParams(nutation, 0.0, pair_center_offset(glu, 0)),
            readout_pair=0,
        )
        trace = run_double_rabi(glu, proto)
        assert abs(trace.observable[0] - 1.0) < 1e-6  # source singlet untouched


class TestRunRamsey:
    def make_protocol(self, glu, tau_grid, readout_pair, free_nutation=47.0):
        tx = pair_center_offset(glu, 0)
        nutation = exact_resonance_nutation(glu, "phi_minus", 0, 1)
        return Protocol(
            kind="ramsey",
            sweep=tau_grid,
            transfer=SpinLockParams(nutation, 0.0, tx),
            readout_pair=readout_pair,
            pi_half_duration_s=1.0 / (4 * 2.57),
            free_lock=SpinLockParams(free_nutation, 0.0, tx),
        )

    def test_readout_pairs_oscillate_out_of_phase(self):
        glu = glutamate()
        taus = np.arange(0.01, 2.0, 0.01)
        pair2 = run_ramsey(glu, self.make_protocol(glu, taus, readout_pair=1))
        pair1 = run_ramsey(glu, self.make_protocol(glu, taus, readout_pair=0))
        a = pair2.observable - pair2.observable.mean()
        b = pair1.observable - pair1.observable.mean()
        assert np.corrcoef(a, b)[0, 1] < -0.99

    def test_fringe_carriers_sit_at_exact_channel_detunings(self):
        # the triplet-carrier lines appear at the coupling-dressed channel
        # gaps sqrt(dE^2 + 4 C^2) for the phi+ / phi- channels
        glu = glutamate()
        dt = 0.01
        taus = np.arange(dt, 4.0, dt)
        proto = self.make_protocol(glu, taus, readout_pair=1)
        trace = run_ramsey(glu, proto)
        y = trace.observable - trace.observable.mean()
        freqs = np.fft.rfftfreq(8 * y.size, dt)
        power = np.abs(np.fft.rfft(y, 8 * y.size)) ** 2
        c = 1.285
        for channel in ("phi_minus", "phi_plus"):
            de = exact_channel_detuning(glu, proto.free_lock, channel, 0, 1)
            expected = np.hypot(de, 2 * c)
            window = (freqs > expected - 1.0) & (freqs < expected + 1.0)
            peak = freqs[window][np.argmax(power[window])]
            assert abs(peak - expected) < 0.25

    def test_carrier_doublet_splitting_tracks_singlet_energy_difference(self):
        # the phi+ / phi- carrier separation is twice the singlet-energy
        # difference (the measured fringe frequency scale)
        glu = glutamate()
        dt = 0.01
        taus = np.arange(dt, 4.0, dt)
        trace = run_ramsey(glu, self.make_protocol(glu, taus, readout_pair=1))
        y = trace.observable - trace.observable.mean()
        freqs = np.fft.rfftfreq(8 * y.size, dt)
        power = np.abs(np.fft.rfft(y, 8 * y.size)) ** 2
        band = (freqs > 10.0) & (freqs < 35.0)
        bf, bp = freqs[band], power[band]
        k1 = np.argmax(bp)
        exclusion = np.abs(bf - bf[k1]) > 2.0
        k2 = np.flatnonzero(exclusion)[np.argmax(bp[exclusion])]
        half_split = abs(bf[k1] - bf[k2]) / 2.0
        assert abs(half_split / 2.25 - 1) < 0.2

    def test_zero_energy_difference_gives_flat_trace(self):
        # degenerate singlet energies and no coupling difference: nothing
        # precesses and nothing transfers during the free stage
        glu = glutamate(
            intrapair_hz=(16.625, 16.625), cis_hz=3.7, trans_hz=3.7,
            pair_splittings_hz=(0.0, 0.0),
        )
        tx = 0.5 * (pair_center_offset(glu, 0) + pair_center_offset(glu, 1))
        taus = np.arange(0.01, 1.5, 0.02)
        proto = Protocol(
            kind="ramsey",
            sweep=taus,
            transfer=SpinLockParams(500.0, 0.0, tx),
            pi_half_duration_s=1.0 / (4 * 2.57),
            free_lock=SpinLockParams(300.0, 0.0, tx),
        )
        trace = run_ramsey(glu, proto)
        assert np.ptp(trace.observable) < 1e-8

    def test_pi_half_blocks_compose_to_pi(self):
        glu = glutamate()
        nutation = exact_resonance_nutation(glu, "phi_minus", 0, 1)
        tx = pair_center_offset(glu, 0)
        lock = SpinLockParams(nutation, 0.0, tx)
        rho0 = ideal_transfer_state(glu, 0, "uniform", 0.0)
        tau_half = 1.0 / (4 * 2.57)
        double_half = oracle_state(
            glu, rho0, [SpinLock(lock, tau_half), SpinLock(lock, tau_half)]
        )
        single_pi = oracle_state(glu, rho0, [SpinLock(lock, 2 * tau_half)])
        p_a = expectation(double_half, singlet_projector(glu, 1)).real
        p_b = expectation(single_pi, singlet_projector(glu, 1)).real
        assert abs(p_a - p_b) < 0.02


class TestRunResonanceScan:
    def test_scan_recovers_lorentzian_resonance(self):
        from singletsim.analysis import fit_lorentzian
        from singletsim.hamiltonian import resonant_nutation

        glu = glutamate()
        targets = [0.8, 1.4, 2.0, 2.25, 2.7, 3.5, 4.6, 6.0, 8.0]
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
        fit = fit_lorentzian((dnn, trace.observable))
        assert abs(fit.params["center"] / 2.25 - 1) < 0.1
        assert abs(fit.params["fwhm"] / 5.14 - 1) < 0.1

    def test_degenerate_pairs_peak_at_zero_detuning(self):
        glu = glutamate(intrapair_hz=(16.0, 16.0))
        nus = np.array([300.0, 600.0, 1200.0, 2400.0, 4800.0])
        proto = Protocol(
            kind="resonance_scan",
            sweep=nus,
            transfer=SpinLockParams(500.0, 0.0, pair_center_offset(glu, 0)),
            triplet_init="phi_minus",
            scan_tau_grid_s=np.linspace(0.02, 1.2, 60),
        )
        trace = run_resonance_scan(glu, proto)
        dnn = np.array(trace.metadata["delta_nu_n_hz"])
        assert np.argmax(trace.observable) == np.argmin(dnn)

    def test_initial_state_prepared_once_per_scan(self, eigh_calls):
        # a lock-crossing prep costs one diagonalisation (its lock; the pulse
        # needs none); each nutation adds only its own transfer lock
        glu = glutamate()
        counts = []
        for n_nutations in (3, 6):
            eigh_calls.clear()
            proto = Protocol(
                kind="resonance_scan",
                sweep=np.linspace(560.0, 640.0, n_nutations),
                transfer=SpinLockParams(500.0, 0.0, pair_center_offset(glu, 0)),
                prep=ENGINE_PREPS["slic"],
                scan_tau_grid_s=np.linspace(0.02, 1.0, 24),
            )
            run_resonance_scan(glu, proto)
            counts.append(len(eigh_calls))
        assert counts[1] - counts[0] == 3

    def test_run_protocol_dispatch(self):
        glu = glutamate()
        proto = Protocol(
            kind="rabi", sweep=np.linspace(0.05, 0.5, 10), transfer=glu_lock(glu)
        )
        trace = run_protocol(glu, proto)
        assert trace.metadata["protocol"] == "rabi"


class TestRunPumping:
    def make_protocol(self, pgg, counts):
        nutation = exact_resonance_nutation(pgg, "phi_plus", 0, 1)
        lock = SpinLockParams(nutation, 0.0, pair_center_offset(pgg, 0))
        return Protocol(
            kind="pumping",
            sweep=np.asarray(counts, dtype=float),
            transfer=lock,
            source_pair=0,
            readout_pair=1,
            prep=PrepSpec(kind="three_pulse", tau1_s=0.007, tau2_s=0.0205, tau3_s=0.00925),
            pump_transfer_duration_s=15.5,
            pump_reset_delay_s=3.1,
        )

    def test_buildup_is_monotone(self):
        pgg = phe_gly_gly()
        trace = run_pumping(pgg, self.make_protocol(pgg, [1, 2, 4, 8]))
        assert trace.metadata["per_cycle_gain"] > 1e-3
        assert np.all(np.diff(trace.observable) > 0)
        assert trace.observable[2] > 2.5 * trace.observable[0]  # 4 cycles >> 1 cycle

    def test_lifetime_limits_buildup(self):
        pgg = phe_gly_gly()
        env = RelaxationEnvelope(t_s_s=25.0)
        trace = run_pumping(pgg, self.make_protocol(pgg, [1, 4, 8]), envelope=env)
        assert trace.observable[1] > trace.observable[0]
        assert trace.observable[2] / trace.observable[1] < 1.10

    def test_single_cycle_equals_rabi_endpoint(self):
        # pumping reports the gain over the pre-transfer background, so
        # compare against the Rabi endpoint minus its zero-duration value
        pgg = phe_gly_gly()
        proto = self.make_protocol(pgg, [1])
        trace = run_pumping(pgg, proto)
        rabi = run_rabi(
            pgg,
            Protocol(
                kind="rabi",
                sweep=np.array([1e-9, proto.pump_transfer_duration_s]),
                transfer=proto.transfer,
                source_pair=0,
                readout_pair=1,
                prep=proto.prep,
            ),
        )
        endpoint_gain = rabi.observable[1] - rabi.observable[0]
        assert abs(trace.observable[0] - endpoint_gain) < 1e-8

    def test_fractional_cycle_counts_rejected(self):
        # checked as the protocol is built, before any run
        with pytest.raises(ValueError, match="integer cycle counts"):
            self.make_protocol(phe_gly_gly(), [1.5, 2.5])


class TestRunnerEnvelopes:
    """Each runner damps the observable and every population row by its own decay factors."""

    ENVELOPE = RelaxationEnvelope(t_s_s=4.4, t_2s_star_s=1.3, t_rabi_s=2.0)

    def make_protocol(self, glu, kind):
        tx = pair_center_offset(glu, 0)
        return protocol_of(
            kind, sweep=np.linspace(0.02, 1.5, 30), transfer=glu_lock(glu), triplet_init="phi_minus",
            readout="signal_proxy" if kind == "ramsey" else "projector", pi_half_duration_s=1.0 / (4 * 2.57),
            free_lock=SpinLockParams(47.0, 0.0, tx),
        )

    @pytest.mark.parametrize("kind", ["rabi", "ramsey", "double_rabi"])
    def test_rows_are_the_undamped_rows_times_their_factors(self, kind):
        glu = glutamate()
        protocol = self.make_protocol(glu, kind)
        bare, damped = RUNNERS[kind](glu, protocol), RUNNERS[kind](glu, protocol, self.ENVELOPE)
        t = protocol.sweep

        def expected(row):
            if kind != "ramsey":
                return row * np.exp(-t / 2.0)
            mean = row.mean()
            return (mean + (row - mean) * np.exp(-t / 1.3)) * np.exp(-t / 4.4)

        assert np.max(np.abs(damped.observable - expected(bare.observable))) < 1e-15
        assert damped.singlet_populations.shape == bare.singlet_populations.shape == (2, t.size)
        for got, row in zip(damped.singlet_populations, bare.singlet_populations):
            assert np.max(np.abs(got - expected(row))) < 1e-15

    def test_scan_fits_the_damped_rows_with_decay(self, monkeypatch):
        from singletsim.analysis import _trace_xy

        glu = glutamate()
        protocol = Protocol(
            kind="resonance_scan", sweep=np.linspace(560.0, 640.0, 3), transfer=glu_lock(glu),
            triplet_init="phi_minus", scan_tau_grid_s=np.linspace(0.02, 1.5, 40),
        )
        seen = []

        def recording_fit(trace, with_decay):
            seen.append((*_trace_xy(trace), with_decay))
            return fit_rabi(trace, with_decay=with_decay)

        monkeypatch.setattr(sequences, "fit_rabi", recording_fit)
        run_resonance_scan(glu, protocol)
        trace = run_resonance_scan(glu, protocol, RelaxationEnvelope(t_rabi_s=2.0))
        bare, damped = seen[:3], seen[3:]
        assert [d for *_, d in bare] == [False] * 3 and [d for *_, d in damped] == [True] * 3
        for (t, row, _), (t_damped, got, _) in zip(bare, damped):
            assert np.array_equal(t_damped, t)
            assert np.max(np.abs(got - row * np.exp(-t / 2.0))) < 1e-15
        assert np.all(np.isfinite(trace.observable))
        assert np.all(np.isfinite(trace.metadata["fitted_frequency_hz"]))



class TestRunProtocolEnvelope:
    # a runner applies only the times its kind reads; run_protocol rejects the rest
    def test_time_the_kind_does_not_apply_is_rejected(self):
        glu = glutamate()
        protocol = Protocol(kind="rabi", sweep=np.linspace(0.05, 0.5, 10), transfer=glu_lock(glu))
        with pytest.raises(ValueError, match="envelope.t_s_s is not applied by kind 'rabi'"):
            run_protocol(glu, protocol, RelaxationEnvelope(t_s_s=4.4))
        applied = RelaxationEnvelope(t_rabi_s=2.0)
        assert np.array_equal(run_protocol(glu, protocol, applied).observable,
                              run_rabi(glu, protocol, applied).observable)

    @pytest.mark.parametrize("kind", list(sequences.ENVELOPE_FIELDS))
    def test_dispatch_names_each_time_before_running(self, kind, monkeypatch):
        glu = glutamate()
        for runner in ("run_rabi", "run_ramsey", "run_double_rabi", "run_pumping", "run_resonance_scan"):
            monkeypatch.setattr(sequences, runner, lambda *args: pytest.fail("the runner was called"))
        protocol = protocol_of(
            kind, sweep=np.array([1.0, 2.0]), transfer=glu_lock(glu, nutation=280.0), pi_half_duration_s=0.1,
            free_lock=SpinLockParams(47.0, 0.0, 0.0), pump_transfer_duration_s=1.0, pump_reset_delay_s=1.0,
            scan_tau_grid_s=np.linspace(0.05, 1.0, 8),
        )
        unapplied = [name for name in ("t_s_s", "t_2s_star_s", "t_rabi_s") if name not in sequences.ENVELOPE_FIELDS[kind]]
        assert unapplied
        for name in unapplied:
            with pytest.raises(ValueError, match=f"envelope.{name} is not applied by kind '{kind}'"):
                sequences.run_protocol(glu, protocol, RelaxationEnvelope(**{name: 4.4}))

class TestSignalProxyReadout:
    def test_proxy_tracks_singlet_population(self):
        glu = glutamate()
        lock = glu_lock(glu)
        sweep = np.linspace(0.05, 1.2, 24)
        prep = PrepSpec(kind="slic", nutation_hz=17.0, duration_s=0.145)
        proxy = run_rabi(
            glu,
            Protocol(
                kind="rabi", sweep=sweep, transfer=lock, readout="signal_proxy", prep=prep
            ),
        )
        projector = run_rabi(
            glu, Protocol(kind="rabi", sweep=sweep, transfer=lock, prep=prep)
        )
        # singlet order converts to magnetization along the minus lock
        # axis, so the signed proxy anti-tracks the projector population
        corr = np.corrcoef(proxy.observable, projector.observable)[0, 1]
        assert abs(corr) > 0.8

    def test_phase_cycle_runs(self):
        glu = glutamate()
        lock = glu_lock(glu)
        sweep = np.linspace(0.1, 0.5, 5)
        prep = PrepSpec(kind="slic", nutation_hz=17.0, duration_s=0.145)
        trace = run_rabi(
            glu,
            Protocol(
                kind="rabi", sweep=sweep, transfer=lock,
                readout="signal_proxy", prep=prep, phase_cycle=True,
            ),
        )
        assert np.all(np.isfinite(trace.observable))

    @pytest.mark.parametrize("prep", ["ideal", "slic", "three_pulse"])
    @pytest.mark.parametrize("name", ["three_spins", "pgg_third_pair"])
    def test_phase_cycle_is_the_two_run_difference(self, name, prep):
        # the cycled signal, read off each ket's two Fz-parity halves, against half
        # the difference of the 0 and pi readout runs built segment by segment, on
        # both reads: 3 taus of 2 kets are carried, d / 2 + 1 taus take the R read;
        # three spins have half-integer Fz, and c adds no signal (tr Mx = 0)
        if name == "three_spins":
            system = SpinSystem(np.array([400.0, 415.0, 470.0]),
                                np.array([[0.0, 15.0, 6.5], [15.0, 0.0, 2.0], [6.5, 2.0, 0.0]]), ((0, 1),))
            readout_pair = 0
        else:
            system, readout_pair = phe_gly_gly(include_third_pair=True), 2
        protocol = Protocol(kind="rabi", sweep=np.array([0.1]), transfer=glu_lock(glutamate()),
                            source_pair=0, readout_pair=readout_pair, prep=ENGINE_PREPS[prep],
                            readout="signal_proxy", phase_cycle=True)
        readout = _readout_sequence(system, protocol)
        mx = sum(embed_spin_operator(system, i, "x") for i in range(system.n_spins))
        runs = [oracle_propagator(system, seq) for seq in (readout, _phase_shifted_pulses(readout, np.pi))]
        cycled = 0.5 * sum(sign * (u.conj().T @ mx @ u) for sign, u in zip((1, -1), runs))
        rng = np.random.default_rng(system.dim)
        kets, _ = np.linalg.qr(rng.normal(size=(system.dim, 2)) + 1j * rng.normal(size=(system.dim, 2)))
        state = (0.2 / system.dim, kets, np.array([0.5, 0.3]))
        lock = SpinLock(protocol.transfer, 0.0)
        for n_taus in (3, system.dim // 2 + 1):
            taus = np.linspace(0.0, 0.4, n_taus)
            states = [oracle_state(system, dense(state), [replace(lock, duration_s=tau)]) for tau in taus]
            expected = [expectation(rho, cycled).real for rho in states]
            values = swept_expectations(system, state, [], [lock], taus, [], (readout, True))
            assert np.max(np.abs(values[-1] - expected)) < 1e-12
            uncycled = swept_expectations(system, state, [], [lock], taus, [], (readout, False))
            assert np.max(np.abs(uncycled[-1] - expected)) > 1e-3


class TestReadoutSequence:
    """The readout runs the preparation backwards on the readout pair, minus its excitation."""

    @staticmethod
    def readout(system, prep, pair):
        protocol = Protocol(
            kind="rabi", sweep=np.array([0.1]), transfer=glu_lock(system), source_pair=1 - pair,
            readout_pair=pair, prep=prep,
        )
        return _readout_sequence(system, protocol)

    @pytest.mark.parametrize("pair", [0, 1])
    def test_lock_crossing_readout_is_the_prep_lock(self, pair):
        glu = glutamate()
        prep = PrepSpec(kind="slic", nutation_hz=17.0, duration_s=0.145, phase=0.4)
        lock = SpinLockParams(17.0, 0.4, pair_center_offset(glu, pair))
        assert self.readout(glu, prep, pair) == [SpinLock(lock, 0.145)]

    @pytest.mark.parametrize("pair", [0, 1])
    def test_three_pulse_readout_reverses_the_delays_and_pulses(self, pair):
        glu = glutamate()
        prep = PrepSpec(kind="three_pulse", tau1_s=0.007, tau2_s=0.0205, tau3_s=0.00925)
        free = SpinLockParams(0.0, 0.0, pair_center_offset(glu, pair))
        assert self.readout(glu, prep, pair) == [
            SpinLock(free, 0.00925),
            HardPulse(-np.pi / 2, np.pi / 2),
            SpinLock(free, 0.0205),
            HardPulse(-np.pi, np.pi / 2),
            SpinLock(free, 0.007),
        ]

    @pytest.mark.parametrize("pair", [0, 1])
    def test_ideal_prep_reads_out_with_a_lock_at_the_pair_coupling(self, pair):
        glu = glutamate()
        a, b = glu.pairs[pair]
        lock = SpinLockParams(glu.couplings_hz[a, b], 0.0, pair_center_offset(glu, pair))
        assert self.readout(glu, PrepSpec(), pair) == [SpinLock(lock, 0.15)]


def four_pair_system():
    """Glutamate's two pairs plus two weakly coupled pairs (d = 256), as in the benchmark."""
    return two_pair_system(
        200.0,
        pair_centers_ppm=(2.04, 2.30, 3.10, 3.71),
        pair_splittings_hz=(4.5, 4.9, 14.0, 2.357),
        intrapair_hz=(15.5, 17.75, 16.5, 17.5),
        cis_hz=5.0,
        trans_hz=2.43,
        extra_pair_couplings={(1, 2): (0.8, 0.3), (2, 3): (0.5, 0.2)},
    )


RESONANCE_SEARCHES = {
    "glutamate-phi_minus": (glutamate, "phi_minus"),
    "phe_gly_gly-phi_plus": (phe_gly_gly, "phi_plus"),
    "glutamate_equivalent-phi_minus": (lambda: glutamate(pair_splittings_hz=(0.0, 0.0)), "phi_minus"),
    "four_pair-phi_minus": (four_pair_system, "phi_minus"),
}


class TestResonanceHelpers:
    @pytest.mark.parametrize("nutation", [30.0, 250.0, 599.0, 5000.0])
    @pytest.mark.parametrize("pair", [0, 1])
    @pytest.mark.parametrize("name", ["glutamate", "phe_gly_gly"])
    def test_pair_block_levels_match_spin_system_oracle(self, name, pair, nutation):
        system = {"glutamate": glutamate, "phe_gly_gly": phe_gly_gly}[name]()
        lock = SpinLockParams(nutation, 0.0, pair_center_offset(system, 0))
        levels = _pair_block_levels(system, pair, lock)
        oracle = oracle_pair_block_levels(system, pair, lock)
        assert levels.keys() == oracle.keys()
        for label, energy in oracle.items():
            assert abs(levels[label] - energy) < 1e-12

    @pytest.mark.parametrize("case", RESONANCE_SEARCHES)
    def test_resonance_matches_bisection_oracle(self, case):
        build, channel = RESONANCE_SEARCHES[case]
        system = build()
        nutation = exact_resonance_nutation(system, channel, 0, 1)
        assert abs(nutation - oracle_resonance_nutation(system, channel, 0, 1)) < 1e-9

    @pytest.mark.parametrize("case", RESONANCE_SEARCHES)
    def test_resonance_search_evaluation_budget(self, case, monkeypatch):
        # bisection of the 30-5000 Hz bracket to 1e-9 Hz takes 45 evaluations
        build, channel = RESONANCE_SEARCHES[case]
        system = build()
        calls = []
        detuning = sequences.exact_channel_detuning

        def counting_detuning(*args):
            calls.append(args)
            return detuning(*args)

        monkeypatch.setattr(sequences, "exact_channel_detuning", counting_detuning)
        exact_resonance_nutation(system, channel, 0, 1)
        assert 0 < len(calls) <= 16

    @pytest.mark.parametrize("channel", ["phi_plus", "phi_0"])
    def test_bracket_without_sign_change_raises(self, channel):
        with pytest.raises(ValueError, match="does not straddle"):
            exact_resonance_nutation(glutamate(), channel, 0, 1)

    @pytest.mark.parametrize(
        "channel, pairs, argument",
        [("phi_minus", (0, 0), "pair_1"), ("phi_minus", (1, 1), "pair_1"),
         ("s0", (0, 1), "channel"), ("phi_x", (0, 1), "channel")],
    )
    def test_bad_channel_or_pair_rejected_before_any_evaluation(self, channel, pairs, argument, monkeypatch):
        glu = glutamate()
        lock = SpinLockParams(599.0, 0.0, pair_center_offset(glu, 0))
        evaluations = []
        monkeypatch.setattr(sequences, "_pair_block_levels", lambda *args: evaluations.append(args))
        with pytest.raises(ValueError, match=argument):
            exact_resonance_nutation(glu, channel, *pairs)
        with pytest.raises(ValueError, match=argument):
            exact_channel_detuning(glu, lock, channel, *pairs)
        assert evaluations == []

    def test_exact_matches_formula_for_equivalent_members(self):
        glu = glutamate(pair_splittings_hz=(0.0, 0.0))
        formula = transfer_resonance_nutation(glu, 0, 1)
        exact = exact_resonance_nutation(glu, "phi_minus", 0, 1)
        assert abs(exact / formula - 1) < 1e-6

    def test_exact_zeroes_channel_detuning(self):
        pgg = phe_gly_gly()
        nutation = exact_resonance_nutation(pgg, "phi_plus", 0, 1)
        lock = SpinLockParams(nutation, 0.0, pair_center_offset(pgg, 0))
        assert abs(exact_channel_detuning(pgg, lock, "phi_plus", 0, 1)) < 1e-6

    @pytest.mark.parametrize("channel", ["phi_plus", "phi_0", "phi_minus"])
    @pytest.mark.parametrize("name", ["glutamate", "phe_gly_gly"])
    def test_channel_detuning_does_not_depend_on_lock_phase(self, name, channel):
        system = {"glutamate": glutamate, "phe_gly_gly": phe_gly_gly}[name]()
        lock = SpinLockParams(320.0, 0.0, pair_center_offset(system, 0))
        at_zero = exact_channel_detuning(system, lock, channel, 0, 1)
        for phase in (0.7, np.pi, -2.0):
            phased = exact_channel_detuning(system, replace(lock, phase=phase), channel, 0, 1)
            assert abs(phased - at_zero) < 1e-12


def oracle_initial_state(system, protocol, lock_phase):
    """The lab-frame initial state: the ideal order at the first lock's phase, mixed to the prepared population."""
    rho0 = ideal_transfer_state(system, protocol.source_pair, protocol.triplet_init, lock_phase)
    if protocol.prep.kind == "ideal":
        return rho0
    prep = oracle_propagator(system, prep_sequence(system, protocol.source_pair, protocol.prep))
    thermal = thermal_density(system, protocol.prep.polarization)
    source = singlet_projector(system, protocol.source_pair)
    achieved = np.trace(prep @ thermal @ prep.conj().T @ source).real
    weight = np.clip((achieved - 0.25) / 0.75, 0.0, 1.0)
    return rho0 * weight + np.eye(system.dim) / system.dim * (1.0 - weight)


def oracle_trace(system, protocol):
    """(observable, populations) of a rabi, ramsey or double_rabi protocol, point by point, in the lab frame."""
    lock = lock_b = protocol.transfer
    if protocol.kind == "double_rabi":
        nutation, tx = lock.nutation_hz, lock.transmitter_offset_hz
        lock, lock_b = (SpinLockParams(nutation, p, tx) for p in protocol.double_rabi_phases)
    rho0 = oracle_initial_state(system, protocol, lock.phase)
    readout = _readout_sequence(system, protocol)
    cycle = [(readout, 1.0)]
    if protocol.phase_cycle:
        cycle = [(readout, 0.5), (_phase_shifted_pulses(readout, np.pi), -0.5)]
    mx = sum(embed_spin_operator(system, i, "x") for i in range(system.n_spins))
    observable, populations = [], []
    for tau in protocol.sweep:
        if protocol.kind == "rabi":
            segments = [SpinLock(protocol.transfer, tau)]
        elif protocol.kind == "ramsey":
            half = SpinLock(protocol.transfer, protocol.pi_half_duration_s)
            segments = [half, SpinLock(protocol.free_lock, tau), half]
        else:
            segments = [SpinLock(lock, tau), SpinLock(lock_b, tau)]
        u = oracle_propagator(system, segments)
        state = u @ rho0 @ u.conj().T
        populations.append([np.trace(state @ singlet_projector(system, p)).real for p in (0, 1)])
        if protocol.readout == "projector":
            observable.append(populations[-1][protocol.readout_pair])
        else:
            signal = 0.0
            for seq, weight in cycle:
                r = oracle_propagator(system, seq)
                signal += weight * np.trace(r @ state @ r.conj().T @ mx).real
            observable.append(signal)
    return np.array(observable), np.array(populations).T


ENGINE_PREPS = {
    "ideal": PrepSpec(),
    "slic": PrepSpec(kind="slic", nutation_hz=17.0, duration_s=0.145, phase=0.4, polarization=0.9),
    "three_pulse": PrepSpec(kind="three_pulse", tau1_s=0.007, tau2_s=0.0205, tau3_s=0.00925),
}


def engine_protocol(system, kind, n_points, prep="three_pulse", readout="signal_proxy", **fields):
    sweep = np.linspace(0.03, 0.6, n_points)
    lock = glu_lock(system, nutation=599.31, phase=0.7)
    shared = dict(
        sweep=sweep, transfer=lock, prep=ENGINE_PREPS[prep], triplet_init="phi_minus",
        readout=readout, phase_cycle=readout == "signal_proxy", pi_half_duration_s=0.1,
        free_lock=SpinLockParams(47.0, 0.7, pair_center_offset(system, 1)),
        double_rabi_phases=(0.7, 0.7 + np.pi),
    )
    return protocol_of(kind, **{**shared, **fields})


RUNNERS = {"rabi": run_rabi, "ramsey": run_ramsey, "double_rabi": run_double_rabi}


class TestEvolutionEngine:
    @pytest.mark.parametrize("readout", ["projector", "signal_proxy"])
    @pytest.mark.parametrize("prep", list(ENGINE_PREPS))
    @pytest.mark.parametrize("kind", list(RUNNERS))
    def test_runner_matches_per_segment_oracle(self, kind, prep, readout):
        glu = glutamate()
        protocol = engine_protocol(glu, kind, 4, prep, readout)
        trace = RUNNERS[kind](glu, protocol)
        observable, populations = oracle_trace(glu, protocol)
        assert np.max(np.abs(trace.observable - observable)) < 1e-12
        assert np.max(np.abs(trace.singlet_populations - populations)) < 1e-12

    @pytest.mark.parametrize("case", [
        "signal_proxy_rabi_uncycled", "ramsey_free_lock_off_transfer_phase", "double_rabi_not_pi_apart",
    ])
    def test_transfer_frame_matches_lab_frame_oracle(self, case):
        # each run is simulated in its first lock's frame; here phases
        # differ between the locks and the preparation, so the frame shift of
        # every segment and the rotation of the signal observable show.  The
        # cycled signal-proxy case is test_runner_matches_per_segment_oracle's
        glu = glutamate()
        kind, prep, readout = {
            "signal_proxy_rabi_uncycled": ("rabi", "slic", "signal_proxy"),
            "ramsey_free_lock_off_transfer_phase": ("ramsey", "slic", "signal_proxy"),
            "double_rabi_not_pi_apart": ("double_rabi", "three_pulse", "projector"),
        }[case]
        free = SpinLockParams(47.0, 2.0, pair_center_offset(glu, 1))
        protocol = engine_protocol(glu, kind, 4, prep, readout, phase_cycle=False, free_lock=free,
                                   double_rabi_phases=(0.3, 2.1))
        assert protocol.prep.phase != protocol.transfer.phase != free.phase
        trace = RUNNERS[kind](glu, protocol)
        observable, populations = oracle_trace(glu, protocol)
        assert np.max(np.abs(trace.observable - observable)) < 1e-12
        assert np.max(np.abs(trace.singlet_populations - populations)) < 1e-12

    @pytest.mark.parametrize("kind", list(RUNNERS))
    def test_one_diagonalisation_per_distinct_generator(self, kind, eigh_calls):
        glu = glutamate()
        counts = []
        for n_points in (5, 40):
            eigh_calls.clear()
            RUNNERS[kind](glu, engine_protocol(glu, kind, n_points))
            counts.append(len(eigh_calls))
        assert counts[0] == counts[1] > 0

    def test_double_rabi_phase_pair_shares_one_diagonalisation(self, eigh_calls):
        # locks at phi and phi + pi have one phase-0 generator
        glu = glutamate()
        run_double_rabi(glu, engine_protocol(glu, "double_rabi", 5, "ideal", "projector"))
        assert len(eigh_calls) == 1

    def test_phase_cycled_readout_locks_share_one_diagonalisation(self, eigh_calls):
        # the transfer lock, then one readout lock for both cycle phases
        glu = glutamate()
        run_rabi(glu, engine_protocol(glu, "rabi", 5, "ideal", "signal_proxy"))
        assert len(eigh_calls) == 2

    @pytest.mark.parametrize("readout", ["projector", "signal_proxy"])
    @pytest.mark.parametrize("kind", list(RUNNERS))
    def test_long_sweeps_match_oracle(self, kind, readout):
        # the swept phases must round as each tau's own propagator does: with
        # the ideal prep's full coherence, forming them as outer(tau, E)
        # instead misses the Rabi oracle by 3e-12 at 10 s
        glu = glutamate()
        protocol = replace(engine_protocol(glu, kind, 2, "ideal", readout),
                           sweep=np.linspace(0.7, 10.0, 7))
        trace = RUNNERS[kind](glu, protocol)
        observable, populations = oracle_trace(glu, protocol)
        assert np.max(np.abs(trace.observable - observable)) < 1e-12
        assert np.max(np.abs(trace.singlet_populations - populations)) < 1e-12

    @pytest.mark.parametrize("kind", list(RUNNERS))
    def test_every_pair_population_at_d64_matches_final_state(self, kind):
        # the engine reads each pair's population through its |ud>, |du> rows,
        # with no d x d projector; here against the oracle and the projector
        pgg = phe_gly_gly(include_third_pair=True)
        lock = SpinLockParams(280.0, 0.7, pair_center_offset(pgg, 0))
        free = SpinLockParams(47.0, 0.7, pair_center_offset(pgg, 1))
        protocol = protocol_of(
            kind, sweep=np.linspace(0.05, 2.0, 5), transfer=lock, triplet_init="phi_minus",
            pi_half_duration_s=0.1, free_lock=free, double_rabi_phases=(0.7, 0.7 + np.pi),
        )
        trace = RUNNERS[kind](pgg, protocol)
        rho0 = ideal_transfer_state(pgg, 0, "phi_minus", 0.7)
        half = SpinLock(lock, 0.1)
        expected = []
        for tau in protocol.sweep:
            segments = {
                "rabi": [SpinLock(lock, tau)],
                "ramsey": [half, SpinLock(free, tau), half],
                "double_rabi": [SpinLock(lock, tau), SpinLock(replace(lock, phase=0.7 + np.pi), tau)],
            }[kind]
            state = oracle_state(pgg, rho0, segments)
            expected.append([expectation(state, singlet_projector(pgg, p)).real for p in range(3)])
        assert pgg.dim == 64 and trace.singlet_populations.shape == (3, 5)
        assert np.max(np.abs(trace.singlet_populations - np.array(expected).T)) < 1e-12

    @pytest.mark.parametrize("case", ["glutamate_uniform", "pgg_uniform", "glutamate_mixed", "glutamate_uniform_slic"])
    @pytest.mark.parametrize("kind", list(RUNNERS))
    def test_several_kets_match_oracle(self, kind, case):
        # r = 3 kets for a uniform triplet on glutamate, 9 on Phe-Gly-Gly's
        # three pairs, one for a mixed composition; the slic prep adds c > 0.
        # 12 points span several blocks of d // r taus, the last one partial
        name, init, prep, readout = {
            "glutamate_uniform": ("glutamate", "uniform", "ideal", "projector"),
            "pgg_uniform": ("pgg_third_pair", "uniform", "ideal", "projector"),
            "glutamate_mixed": ("glutamate", TripletAmplitudes(0.48, 0.6, 0.64), "ideal", "projector"),
            "glutamate_uniform_slic": ("glutamate", "uniform", "slic", "signal_proxy"),
        }[case]
        system = ORACLE_SYSTEMS[name]()
        protocol = replace(engine_protocol(system, kind, 12, prep, readout), triplet_init=init)
        c, kets, _ = transfer_initial_state(system, protocol)
        assert kets.shape[1] == {"glutamate_mixed": 1, "pgg_uniform": 9}.get(case, 3)
        assert (c > 0) == (prep == "slic")
        trace = RUNNERS[kind](system, protocol)
        observable, populations = oracle_trace(system, protocol)
        assert np.max(np.abs(trace.observable - observable)) < 1e-12
        assert np.max(np.abs(trace.singlet_populations[:2] - populations)) < 1e-12

    @pytest.mark.parametrize("kind", ["rabi", "double_rabi"])
    def test_sweep_memory_does_not_grow_with_d_squared_per_point(self, kind):
        # 2000 points at d = 64: a per-point state list or an (n, d, d)
        # tensor would need 131 MB
        pgg = phe_gly_gly(include_third_pair=True)
        lock = SpinLockParams(600.0, 0.3, pair_center_offset(pgg, 0))
        protocol = Protocol(kind=kind, sweep=np.linspace(0.01, 20.0, 2000), transfer=lock)
        assert pgg.dim == 64
        tracemalloc.start()
        try:
            RUNNERS[kind](pgg, protocol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


    @pytest.mark.parametrize("name", ["glutamate", "pgg_third_pair"])
    @pytest.mark.parametrize("prep", ["slic", "three_pulse"])
    @pytest.mark.parametrize("kind, readout", [("rabi", "projector"), ("ramsey", "projector"),
                                               ("rabi", "signal_proxy")])
    def test_both_reads_agree_at_the_read_rule(self, kind, readout, prep, name):
        # one swept lock: n r <= d taus carry the kets, one more tau takes the R read
        system = ORACLE_SYSTEMS[name]()
        protocol = replace(engine_protocol(system, kind, 2, prep, readout), triplet_init="uniform")
        c, kets, _ = transfer_initial_state(system, protocol)
        n = system.dim // kets.shape[1]
        assert kets.shape[1] == {"glutamate": 3, "pgg_third_pair": 9}[name] and c > 0
        taus = np.linspace(0.03, 0.6, n + 1)
        carried, read = (RUNNERS[kind](system, replace(protocol, sweep=taus[:m])) for m in (n, n + 1))
        assert np.max(np.abs(carried.observable - read.observable[:n])) < 1e-13
        assert np.max(np.abs(carried.singlet_populations - read.singlet_populations[:, :n])) < 1e-13
        observable, populations = oracle_trace(system, replace(protocol, sweep=taus))
        assert np.max(np.abs(read.observable - observable)) < 1e-12
        assert np.max(np.abs(read.singlet_populations[:2] - populations)) < 1e-12
        assert np.max(np.abs(carried.observable - observable[:n])) < 1e-12

ORACLE_SYSTEMS = {
    "glutamate": glutamate,
    "pgg_third_pair": lambda: phe_gly_gly(include_third_pair=True),
    # odd n: half-integer Fz, so exp(-i pi Fz) is not real
    "three_spins": lambda: SpinSystem(np.array([400.0, 415.0, 470.0]),
                                      np.array([[0.0, 15.0, 6.5], [15.0, 0.0, 2.0], [6.5, 2.0, 0.0]]), ((0, 1),)),
}
ORACLE_PREPS = {
    "slic": ENGINE_PREPS["slic"],
    "three_pulse": ENGINE_PREPS["three_pulse"],
    "three_pulse_tau3_zero": replace(ENGINE_PREPS["three_pulse"], tau3_s=0.0),
    # a frame at pi: exp(-i pi Fz) is real only for an even number of spins
    "slic_at_pi": replace(ENGINE_PREPS["slic"], phase=np.pi),
}


def oracle_population(system, rho, segments, pair):
    return np.trace(oracle_state(system, rho, segments) @ singlet_projector(system, pair)).real


class TestFactoredInitialState:
    @pytest.mark.parametrize("init", [*sequences.TRIPLET_INITS, TripletAmplitudes(0.48, 0.6, 0.64)])
    @pytest.mark.parametrize("name", ["glutamate", "pgg_third_pair", "four_pairs"])
    def test_ideal_state_densifies_to_the_dense_reference(self, name, init):
        system = {**ORACLE_SYSTEMS, "four_pairs": four_pair_system}[name]()
        for source in (0, len(system.pairs) - 1):
            state = sequences.ideal_transfer_state(system, source, init)
            assert state[1].dtype == np.float64
            expected = ideal_transfer_state(system, source, init)
            assert np.max(np.abs(dense(state) - expected)) < 1e-15
        assert system.dim == {"glutamate": 16, "pgg_third_pair": 64, "four_pairs": 256}[name]


class TestPreparedAndPumpedPopulations:
    # a preparation is read in the Heisenberg picture off its pair's singlet rows
    # (`diagonal_singlet_population`), pumping through the swept reader; here
    # both against the per-segment oracle and the d x d projector
    @pytest.mark.parametrize("prep", list(ORACLE_PREPS))
    @pytest.mark.parametrize("name", list(ORACLE_SYSTEMS))
    def test_prepared_population_matches_oracle(self, name, prep):
        system = ORACLE_SYSTEMS[name]()
        spec = ORACLE_PREPS[prep]
        thermal = thermal_density(system, spec.polarization)
        for pair in range(len(system.pairs)):
            expected = oracle_population(system, thermal, prep_sequence(system, pair, spec), pair)
            assert abs(prepared_singlet_population(system, pair, spec) - expected) < 1e-12

    @pytest.mark.parametrize("prep", list(ORACLE_PREPS))
    @pytest.mark.parametrize("name, readout", [("glutamate", 1), ("pgg_third_pair", 2)])
    def test_pumping_gain_matches_oracle(self, name, readout, prep):
        system = ORACLE_SYSTEMS[name]()
        lock = SpinLockParams(280.0, 0.7, pair_center_offset(system, 0))
        protocol = Protocol(
            kind="pumping", sweep=np.array([1.0]), transfer=lock, readout_pair=readout,
            prep=ORACLE_PREPS[prep], pump_transfer_duration_s=15.5, pump_reset_delay_s=3.1,
        )
        gain = run_pumping(system, protocol).metadata["per_cycle_gain"]
        rho0 = dense(transfer_initial_state(system, protocol))
        after = oracle_population(system, rho0, [SpinLock(lock, 15.5)], readout)
        expected = after - oracle_population(system, rho0, [], readout)
        assert abs(gain - expected) < 1e-12

    @pytest.mark.parametrize("init", ["uniform", "phi_minus"])
    def test_pumping_at_a_transfer_phase_matches_lab_frame_oracle(self, init):
        # the gain is read in the transfer lock's frame; the oracle starts
        # from the lab-frame state at the lock's phase
        glu = glutamate()
        lock = SpinLockParams(280.0, 1.1, pair_center_offset(glu, 0))
        protocol = Protocol(
            kind="pumping", sweep=np.array([1.0]), transfer=lock, prep=ENGINE_PREPS["slic"],
            triplet_init=init, pump_transfer_duration_s=15.5, pump_reset_delay_s=3.1,
        )
        gain = run_pumping(glu, protocol).metadata["per_cycle_gain"]
        rho0 = oracle_initial_state(glu, protocol, lock.phase)
        expected = oracle_population(glu, rho0, [SpinLock(lock, 15.5)], 1) - oracle_population(glu, rho0, [], 1)
        assert abs(gain - expected) < 1e-12

    def test_three_pulse_prep_diagonalises_each_generator_once(self, eigh_calls):
        # the free delays share one generator; the three pulses are 2 x 2
        # rotations on each spin's bit, with no eigh
        prepared_singlet_population(glutamate(), 0, ENGINE_PREPS["three_pulse"])
        assert len(eigh_calls) == 1

    def test_negative_pump_duration_rejected(self):
        # rejected where it is declared, before any run
        glu = glutamate()
        with pytest.raises(ValueError, match="pump_transfer_duration_s must be finite and >= 0"):
            Protocol(
                kind="pumping", sweep=np.array([1.0]), transfer=glu_lock(glu, nutation=280.0),
                pump_transfer_duration_s=-1.0, pump_reset_delay_s=3.1,
            )


class TestResonanceScanSplitting:
    # Phe-Gly-Gly pair centres: 778, 742 and 620 Hz
    @pytest.mark.parametrize(
        "source, readout, splitting", [(0, 2, 158.0), (2, 1, 122.0), (2, 2, 158.0), (0, 0, 36.0)]
    )
    def test_splitting_is_between_the_scanned_pairs(self, source, readout, splitting):
        pgg = phe_gly_gly(include_third_pair=True)
        proto = Protocol(
            kind="resonance_scan", sweep=np.array([500.0, 600.0]),
            transfer=SpinLockParams(500.0, 0.0, pair_center_offset(pgg, source)),
            source_pair=source, readout_pair=readout, scan_tau_grid_s=np.linspace(0.05, 1.0, 12),
        )
        trace = run_resonance_scan(pgg, proto)
        assert trace.metadata["delta_nu12_hz"] == pytest.approx(splitting, abs=1e-9)

from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    _phase_shifted_pulses,
    embed_spin_operator,
    expectation,
    ideal_transfer_state,
    oracle_propagator,
    oracle_state,
    rf_generator,
    sequence_propagator,
    singlet_projector,
    thermal_density,
    triplet_projector,
)

from singletsim import propagator as engine
from singletsim import sequences
from singletsim.analysis import fit_exponential
from singletsim.hamiltonian import (
    SpinLockParams,
    free_hamiltonian,
    pair_center_offset,
    spinlock_hamiltonian,
)
from singletsim.presets import glutamate, phe_gly_gly
from singletsim.propagator import (
    HardPulse,
    RelaxationEnvelope,
    SpinLock,
    swept_expectations,
)
from singletsim.spincore import SQRT2, SpinSystem, _fz, _up_down, thermal_state
from singletsim.trace import Trace


def single_spin():
    return SpinSystem(np.array([0.0]), np.zeros((1, 1)), ())


def coupled_pair(j=12.0):
    return SpinSystem(np.zeros(2), np.array([[0.0, j], [j, 0.0]]), ((0, 1),))


def evolve(system, rho, segments):
    u = sequence_propagator(system, segments)
    return u @ rho @ u.conj().T


class TestSegmentPropagator:
    def test_zero_duration_is_identity(self):
        u = sequence_propagator(coupled_pair(), [SpinLock(SpinLockParams(0.0), 0.0)])
        assert np.max(np.abs(u - np.eye(4))) < 1e-14

    def test_half_rabi_period_inverts_spin(self):
        nut = 40.0
        system = single_spin()
        u = sequence_propagator(system, [SpinLock(SpinLockParams(nut), 1.0 / (2 * nut))])
        up = np.array([1.0, 0.0], dtype=complex)
        out = u @ up
        assert np.allclose(out, [0.0, -1j], atol=1e-12)

    def test_eigenphase_pattern_at_two_over_j(self):
        # after t = 2/J the singlet and triplet phases realign:
        # exp(-i 2 pi (E_S - E_T) t) = exp(i 4 pi) = 1
        j = 12.0
        system = coupled_pair(j)
        u = sequence_propagator(system, [SpinLock(SpinLockParams(0.0), 2.0 / j)])
        s0 = np.array([0, 1, -1, 0]) / np.sqrt(2)
        t0 = np.array([0, 1, 1, 0]) / np.sqrt(2)
        phase_s = np.angle(s0.conj() @ u @ s0)
        phase_t = np.angle(t0.conj() @ u @ t0)
        assert abs(np.exp(1j * (phase_s - phase_t)) - 1.0) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(7)
        j = rng.normal(scale=10.0, size=(4, 4))
        system = SpinSystem(rng.normal(scale=50.0, size=4), np.triu(j, 1) + np.triu(j, 1).T)
        lock = SpinLockParams(rng.uniform(10.0, 100.0), rng.uniform(0, 2 * np.pi), 3.0)
        u = sequence_propagator(system, [SpinLock(lock, 0.0137)])
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-10

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -1.0])
    def test_spin_lock_duration_must_be_finite_and_non_negative(self, duration):
        with pytest.raises(ValueError, match="spin-lock duration must be finite and >= 0"):
            SpinLock(SpinLockParams(10.0), duration)


class TestHardPulse:
    def test_pi_pulse_inverts_population(self):
        system = single_spin()
        u = sequence_propagator(system, [HardPulse(np.pi, 0.0)])
        out = u @ np.array([1.0, 0.0], dtype=complex)
        assert abs(abs(out[1]) - 1.0) < 1e-12

    def test_flip_angle_composition(self):
        system = coupled_pair()
        u_half = sequence_propagator(system, [HardPulse(np.pi / 4, 1.0)])
        u_full = sequence_propagator(system, [HardPulse(np.pi / 2, 1.0)])
        assert np.max(np.abs(u_half @ u_half - u_full)) < 1e-12

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["flip_angle", "phase"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite, got"):
            HardPulse(**{"flip_angle": np.pi / 2, "phase": 0.3, field: value})


def uncoupled(n_spins):
    return SpinSystem(np.zeros(n_spins), np.zeros((n_spins, n_spins)))


class TestClosedFormPulse:
    # negative angles matter: a readout inverts its preparation's pulses
    @pytest.mark.parametrize("n_spins", [4, 6, 8], ids=["d16", "d64", "d256"])
    def test_matches_diagonalised_pulse_generator(self, n_spins):
        system = uncoupled(n_spins)
        for phase in (0.0, 0.4, np.pi / 2, 2.9, -1.3):
            generator = sum(
                np.cos(phase) * embed_spin_operator(system, i, "x")
                + np.sin(phase) * embed_spin_operator(system, i, "y")
                for i in range(n_spins)
            )
            energies, vectors = np.linalg.eigh(generator)
            for theta in (np.pi / 2, -np.pi / 2, np.pi, 5 * np.pi / 2):
                expected = vectors @ (np.exp(-1j * theta * energies)[:, None] * vectors.conj().T)
                u = sequence_propagator(system, [HardPulse(theta, phase)])
                assert np.max(np.abs(u - expected)) < 1e-12

    def test_needs_no_diagonalisation(self, eigh_calls):
        sequence_propagator(coupled_pair(), [HardPulse(np.pi / 2, 0.3), HardPulse(-np.pi, 1.1)])
        assert eigh_calls == []


class TestAppliedPulse:
    # a pulse is applied as the same 2 x 2 rotation on each spin's bit; in a frame
    # at phase f it is the lab-frame pulse at its phase less f
    @pytest.mark.parametrize("n_spins", [2, 4, 6], ids=["d4", "d16", "d64"])
    def test_matches_dense_oracle_in_a_frame(self, n_spins):
        system, frame = uncoupled(n_spins), 0.9
        x = np.random.default_rng(n_spins).normal(size=(system.dim, 3, 2)) @ np.array([1.0, 1j])
        for theta in (np.pi / 3, np.pi / 2, np.pi):
            for phase in (0.0, 0.3, -2.0):
                pulse = HardPulse(theta, phase)
                expected = oracle_propagator(system, [HardPulse(theta, phase - frame)])
                assert np.max(np.abs(engine._apply(system, [pulse], x, {}, frame) - expected @ x)) < 1e-13
                lab = oracle_propagator(system, [pulse])
                assert np.max(np.abs(sequence_propagator(system, [pulse]) - lab)) < 1e-13

class TestPhaseRotation:
    # an RF phase is a rotation about z: H(phase) = Z H(0) Z^dagger, Z = exp(-i phase Fz)
    @pytest.mark.parametrize("phase", [0.3, np.pi / 2, np.pi, -2.2])
    def test_phased_generators_are_rotated_phase_0_ones(self, phase):
        rng = np.random.default_rng(11)
        j = np.triu(rng.normal(scale=10.0, size=(4, 4)), 1)
        system = SpinSystem(rng.normal(scale=50.0, size=4), j + j.T)
        fz = sum(embed_spin_operator(system, i, "z") for i in range(system.n_spins)).diagonal()
        assert np.array_equal(_fz(system.n_spins), fz.real)
        z = np.exp(-1j * phase * _fz(system.n_spins))
        h0 = spinlock_hamiltonian(system, 310.0, 12.0)
        expected = free_hamiltonian(system, 12.0) + 310.0 * rf_generator(system, phase)
        assert np.max(np.abs(z[:, None] * h0 * z.conj() - expected)) < 1e-12
        g0 = rf_generator(system, 0.0)
        assert np.max(np.abs(z[:, None] * g0 * z.conj() - rf_generator(system, phase))) < 1e-15

    def test_locks_differing_only_in_phase_share_one_table_entry(self, eigh_calls):
        system, eigs = glutamate(), {}
        lock = SpinLockParams(310.0, 0.0, 12.0)
        bases = [engine._segment_eig(system, SpinLock(replace(lock, phase=phase), 0.3), eigs, 0.2)
                 for phase in (0.2, 0.7, -2.2, 0.7)]
        assert len(eigs) == 1 and len(eigh_calls) == 1
        assert all(b[0] is bases[0][0] and b[1] is bases[0][1] for b in bases)
        # the phase less the frame's comes back as the diagonal z, None in the frame's own phase
        assert bases[0][2] is None and np.array_equal(bases[1][2], np.exp(-1j * (0.7 - 0.2) * _fz(system.n_spins)))
        engine._segment_eig(system, SpinLock(replace(lock, transmitter_offset_hz=13.0), 0.3), eigs, 0.2)
        assert len(eigs) == 2 and len(eigh_calls) == 2


class TestRealArithmetic:
    # in a transfer lock's frame the phase-0 operators are real; float64
    # keeps every product on them in real arithmetic
    @pytest.mark.parametrize("make", [glutamate, lambda: phe_gly_gly(include_third_pair=True)])
    def test_phase_0_operators_and_states_are_float64(self, make):
        system = make()
        lock = SpinLockParams(310.0, 0.0, pair_center_offset(system, 0))
        assert free_hamiltonian(system, 12.0).dtype == np.float64
        assert spinlock_hamiltonian(system, lock.nutation_hz, lock.transmitter_offset_hz).dtype == np.float64
        assert thermal_state(system, 0.9).dtype == np.float64
        for init in ("uniform", "phi_minus"):
            assert sequences.ideal_transfer_state(system, 0, init)[1].dtype == np.float64
        _, vectors, z = engine._segment_eig(system, SpinLock(lock, 0.0), {}, 0.0)
        assert vectors.dtype == np.float64 and z is None
        # at a nonzero phase the eigenvectors stay the real V0, and the phase comes back as a diagonal
        _, phased, z = engine._segment_eig(system, SpinLock(replace(lock, phase=0.7), 0.0), {}, 0.0)
        assert phased.dtype == np.float64 and np.array_equal(z, np.exp(-0.7j * _fz(system.n_spins)))

    def test_zero_nutation_lock_carries_no_phase(self):
        # a free delay: a phase or a frame shift leaves its generator and its real eigenvectors as they are
        system = glutamate()
        free = SpinLockParams(0.0, 0.0, pair_center_offset(system, 0))
        eigs = {}
        basis = engine._segment_eig(system, SpinLock(free, 0.0), eigs, 0.0)
        shifted = engine._segment_eig(system, SpinLock(replace(free, phase=1.3), 0.2), eigs, 0.0)
        in_frame = engine._segment_eig(system, SpinLock(free, 0.2), eigs, 0.7)
        assert basis[2] is None and basis[1].dtype == np.float64 and len(eigs) == 1
        assert all(a is b for a, b in zip(shifted, basis)) and all(a is b for a, b in zip(in_frame, basis))

    def test_rabi_at_a_nonzero_transfer_phase_reads_in_real_arithmetic(self, monkeypatch):
        # the kets, the eigenvectors and every d x d factor stay float64
        glu = glutamate()
        lock = SpinLockParams(599.31, 0.7, pair_center_offset(glu, 0))
        protocol = sequences.Protocol(kind="rabi", sweep=np.linspace(0.05, 1.0, 6), transfer=lock,
                                      triplet_init="phi_minus")
        states, products = [], []
        swept, mul = sequences.swept_expectations, engine._mul

        def recording_swept(system, state, *args):
            states.append(state)
            return swept(system, state, *args)

        def recording_mul(a, b):
            products.append((a.shape, a.dtype))
            return mul(a, b)

        monkeypatch.setattr(sequences, "swept_expectations", recording_swept)
        monkeypatch.setattr(engine, "_mul", recording_mul)
        sequences.run_rabi(glu, protocol)
        assert [kets.dtype for _, kets, _ in states] == [np.float64]
        # G = V^T K, then the kets of the six taus come out as V z: each product's
        # d x d factor is the real V, applied to the complex kets through their real view
        assert products == [((glu.dim, glu.dim), np.float64)] * 2


class TestPropagate:
    def test_empty_sequence_returns_input(self):
        system = coupled_pair()
        rho = thermal_density(system)
        out = evolve(system, rho, [])
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_90_pulse_converts_longitudinal_to_transverse(self):
        system = coupled_pair()
        rho = thermal_density(system, 1.0)
        iz = sum(embed_spin_operator(system, i, "z") for i in range(2))
        ix = sum(embed_spin_operator(system, i, "x") for i in range(2))
        mz0 = expectation(rho, iz).real
        out = evolve(system, rho, [HardPulse(np.pi / 2, np.pi / 2)])
        assert abs(expectation(out, ix).real - mz0) < 1e-12
        assert abs(expectation(out, iz).real) < 1e-12

    def test_unitary_invariants_preserved(self):
        system = coupled_pair()
        rho = thermal_density(system, 0.8)
        eigs0 = np.sort(np.linalg.eigvalsh(rho))
        segments = [
            HardPulse(np.pi / 3, 0.4),
            SpinLock(SpinLockParams(0.0), 0.05),
            SpinLock(SpinLockParams(90.0, 0.2, 3.0), 0.2),
            HardPulse(np.pi, 1.1),
            SpinLock(SpinLockParams(0.0), 0.31),
        ]
        out = evolve(system, rho, segments)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(out)) - eigs0)) < 1e-10

    def test_segment_composition(self):
        system = coupled_pair()
        rho = thermal_density(system, 0.5)
        lock = SpinLockParams(33.0, 0.0, 1.0)
        one = evolve(system, rho, [SpinLock(lock, 0.7)])
        two = evolve(system, rho, [SpinLock(lock, 0.3), SpinLock(lock, 0.4)])
        assert np.max(np.abs(one - two)) < 1e-10

    def test_pair_population_closure(self):
        system = coupled_pair()
        rho = thermal_density(system, 1.0)
        lock = SpinLockParams(25.0, 0.0, 0.0)
        ps = singlet_projector(system, 0)
        pt = triplet_projector(system, 0)
        for t in np.linspace(0.0, 0.5, 11):
            state = evolve(system, rho, [SpinLock(lock, t)])
            total = expectation(state, ps).real + expectation(state, pt).real
            assert abs(total - 1.0) < 1e-10


class TestSweptExpectations:
    @pytest.mark.parametrize("n_swept", [1, 2], ids=["delay", "delay_then_lock"])
    def test_matches_final_state_around_a_swept_delay(self, n_swept):
        system = SpinSystem(
            np.array([30.0, -25.0, 8.0]),
            np.array([[0.0, 12.0, 3.0], [12.0, 0.0, 1.5], [3.0, 1.5, 0.0]]),
            ((0, 1),),
        )
        lock = SpinLockParams(40.0, 0.4, 5.0)
        before = [HardPulse(np.pi / 2, 0.3), SpinLock(lock, 0.02)]
        after = [HardPulse(np.pi, 1.1), SpinLock(lock, 0.01)]
        swept = [SpinLock(SpinLockParams(0.0, 0.0, 5.0), 0.0), SpinLock(lock, 0.0)][:n_swept]
        readout = [HardPulse(np.pi / 2, 0.9), SpinLock(SpinLockParams(25.0, 2.3, 1.0), 0.03)]
        taus = np.array([0.0, 0.013, 0.2, 1.7])
        rho0 = thermal_density(system, 0.8)
        mx = sum(embed_spin_operator(system, i, "x") for i in range(system.n_spins))
        values = swept_expectations(system, (0.0, np.eye(system.dim), rho0.diagonal()), before, swept, taus, after,
                                    (readout, False))
        assert values.shape == (2, taus.size)
        for k, tau in enumerate(taus):
            played = [replace(segment, duration_s=tau) for segment in swept]
            state = oracle_state(system, rho0, [*before, *played, *after])
            signal = oracle_state(system, state, readout)
            expected = [expectation(state, singlet_projector(system, 0)).real, expectation(signal, mx).real]
            assert np.max(np.abs(values[:, k] - expected)) < 1e-12

    @pytest.mark.parametrize("first_lock", ["in_before", "swept"])
    def test_runs_in_the_frame_of_its_first_lock(self, first_lock):
        # rho0 is given in the frame of the first lock of before + segments and
        # Mx is read in the lab frame; a pure composition does not commute with
        # Fz, so a run in any other frame misses the lab-frame oracle
        glu = glutamate()
        swept = SpinLock(SpinLockParams(599.31, 2.0, pair_center_offset(glu, 0)), 0.0)
        before = [HardPulse(np.pi / 3, 1.1)]
        if first_lock == "in_before":
            before.append(SpinLock(SpinLockParams(47.0, 0.7, pair_center_offset(glu, 1)), 0.05))
        after = [HardPulse(np.pi / 2, -0.4), SpinLock(SpinLockParams(30.0, 1.3, 5.0), 0.02)]
        frame = 0.7 if first_lock == "in_before" else 2.0
        initial = sequences.ideal_transfer_state(glu, 0, "phi_minus")
        lab_rho0 = ideal_transfer_state(glu, 0, "phi_minus", lock_phase=frame)
        mx = sum(embed_spin_operator(glu, i, "x") for i in range(glu.n_spins))
        readout = [SpinLock(SpinLockParams(17.0, 0.0, pair_center_offset(glu, 1)), 0.1), HardPulse(np.pi / 2, 0.5)]
        taus = np.array([0.0, 0.03, 0.4])
        values = swept_expectations(glu, initial, before, [swept], taus, after, (readout, False))
        for k, tau in enumerate(taus):
            state = oracle_state(glu, lab_rho0, [*before, replace(swept, duration_s=tau), *after])
            expected = [expectation(state, singlet_projector(glu, p)).real for p in (0, 1)]
            expected.append(expectation(oracle_state(glu, state, readout), mx).real)
            assert np.max(np.abs(values[:, k] - expected)) < 1e-12

    def test_ramsey_diagonalises_its_pi_half_lock_once_and_forms_no_propagator(self, monkeypatch, eigh_calls):
        # the same pi/2 lock plays before and after the free precession; five taus of three
        # kets fit one 16 x 16 array, so they are carried, and a sixth takes the R read
        glu = glutamate()
        transfer = SpinLockParams(599.31, 0.7, pair_center_offset(glu, 0))
        free = SpinLockParams(47.0, 0.7, pair_center_offset(glu, 1))
        shapes, mul, apply = [], engine._mul, engine._apply

        def recording_mul(a, b):
            out = mul(a, b)
            shapes.append(out.shape)
            return out

        def recording_apply(system, segments, x, eigs, frame):
            out = apply(system, segments, x, eigs, frame)
            shapes.append(None if out is None else out.shape)
            return out

        monkeypatch.setattr(engine, "_mul", recording_mul)
        monkeypatch.setattr(engine, "_apply", recording_apply)
        for n_taus, carried in ((5, True), (6, False)):
            protocol = sequences.Protocol(kind="ramsey", sweep=np.linspace(0.05, 1.0, n_taus), transfer=transfer,
                                          pi_half_duration_s=0.1, free_lock=free)
            eigh_calls.clear()
            shapes.clear()
            sequences.run_ramsey(glu, protocol)
            assert len(eigh_calls) == 2
            assert ((glu.dim, glu.dim) not in shapes) == carried


    @pytest.mark.parametrize("phase_cycle", [False, True])
    def test_swept_lock_at_a_phase_in_the_run_frame_on_both_reads(self, phase_cycle):
        # Ramsey runs in the frame of its pi/2 lock at 0.7, so its free lock sits at
        # 2.1 - 0.7 and the readout lock at -0.7 there; one pure-composition ket, so
        # 16 taus are carried (n r = d) and 17 take the R read
        glu = glutamate()
        transfer = SpinLockParams(599.31, 0.7, pair_center_offset(glu, 0))
        free = SpinLockParams(47.0, 2.1, pair_center_offset(glu, 1))
        mx = sum(embed_spin_operator(glu, i, "x") for i in range(glu.n_spins))
        rho0 = ideal_transfer_state(glu, 0, "phi_minus", lock_phase=0.7)
        half = SpinLock(transfer, 0.1)
        for n_taus in (glu.dim, glu.dim + 1):
            protocol = sequences.Protocol(kind="ramsey", sweep=np.linspace(0.0, 1.0, n_taus), transfer=transfer,
                                          pi_half_duration_s=0.1, free_lock=free, triplet_init="phi_minus",
                                          readout="signal_proxy", phase_cycle=phase_cycle)
            trace = sequences.run_ramsey(glu, protocol)
            readout = sequences._readout_sequence(glu, protocol)
            runs = [readout, _phase_shifted_pulses(readout, np.pi)][:1 + phase_cycle]
            us = [oracle_propagator(glu, segments) for segments in runs]
            signal = sum(sign * u.conj().T @ mx @ u for sign, u in zip((1, -1), us)) / len(us)
            for k, tau in enumerate(protocol.sweep):
                state = oracle_state(glu, rho0, [half, SpinLock(free, tau), half])
                expected = [expectation(state, singlet_projector(glu, p)).real for p in (0, 1)]
                assert np.max(np.abs(trace.singlet_populations[:, k] - expected)) < 1e-12
                assert abs(trace.observable[k] - expectation(state, signal).real) < 1e-12

    def test_double_rabi_at_phases_not_pi_apart_with_a_mixed_prep(self):
        # lock a at 0.3 is the run's frame, so lock b sits at 1.8 there; the kets leave
        # lock a's eigenbasis and enter lock b's with no overlap formed.  A lock-crossing
        # prep gives c > 0, and 11 taus of the uniform triplet's 3 kets are carried in
        # three blocks of at most 5
        glu = glutamate()
        lock = SpinLockParams(599.31, 0.0, pair_center_offset(glu, 0))
        prep = sequences.PrepSpec(kind="slic", nutation_hz=17.0, duration_s=0.145, phase=0.4)
        protocol = sequences.Protocol(kind="double_rabi", sweep=np.linspace(0.0, 0.5, 11), transfer=lock, prep=prep,
                                      double_rabi_phases=(0.3, 2.1), readout="signal_proxy")
        trace = sequences.run_double_rabi(glu, protocol)
        c = sequences.transfer_initial_state(glu, protocol)[0]
        assert c > 0
        rho0 = c * np.eye(glu.dim) + (1 - c * glu.dim) * ideal_transfer_state(glu, 0, "uniform", lock_phase=0.3)
        u = oracle_propagator(glu, sequences._readout_sequence(glu, protocol))
        signal = u.conj().T @ sum(embed_spin_operator(glu, i, "x") for i in range(glu.n_spins)) @ u
        for k, tau in enumerate(protocol.sweep):
            state = oracle_state(glu, rho0, [SpinLock(replace(lock, phase=p), tau) for p in (0.3, 2.1)])
            expected = [expectation(state, singlet_projector(glu, p)).real for p in (0, 1)]
            assert np.max(np.abs(trace.singlet_populations[:, k] - expected)) < 1e-12
            assert abs(trace.observable[k] - expectation(state, signal).real) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_swept_duration_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match=f"swept duration {bad} must be finite and >= 0"):
            swept_expectations(coupled_pair(), (0.0, np.eye(4), np.full(4, 0.25)), [],
                               [SpinLock(SpinLockParams(0.0), 0.0)], [0.1, bad, -1.0], [])

    def test_invalid_state_rejected(self):
        system = coupled_pair()
        with pytest.raises(ValueError):
            swept_expectations(system, (0.0, np.eye(4), np.full(4, 0.5)), [], [SpinLock(SpinLockParams(0.0), 0.0)],
                               [0.1], [], ([HardPulse(np.pi / 2)], False))

    # (c, K, w) at d = 4; each is the engine-side counterpart of a dense check_density rejection
    E = np.eye(4)
    INVALID_STATES = {
        "trace": ((0.0, E[:, :2], np.array([0.6, 0.5])), "density trace is 1.1"),
        "negative_c_plus_w": ((0.1, E[:, :2], np.array([0.7 + 2e-10, -0.1 - 2e-10])),
                              "negative eigenvalue -2.000e-10"),
        "negative_c": ((-0.01, E[:, :1], np.array([1.04])), "negative eigenvalue -1.000e-02"),
        "not_orthonormal": ((0.0, np.stack([E[0], (E[0] + E[1]) / np.sqrt(2)], axis=1), np.array([0.5, 0.5])),
                            "kets are not orthonormal"),
        "weight_per_basis_state": ((0.0, E[:, :2], np.full(4, 0.25)),
                                   r"state weights must hold 2, one per ket, got shape \(4,\)"),
    }

    @pytest.mark.parametrize("fault", list(INVALID_STATES))
    def test_factored_state_faults_are_named(self, fault):
        state, message = self.INVALID_STATES[fault]
        with pytest.raises(ValueError, match=message):
            swept_expectations(coupled_pair(), state, [], [SpinLock(SpinLockParams(0.0), 0.0)], [0.1], [])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("factor", ["c", "kets", "weights"])
    def test_non_finite_state_is_rejected_naming_its_factor(self, factor, value):
        # (c, K, w) at d = 4 with one non-finite entry in one factor
        kets, weights = np.eye(4)[:, :2].copy(), np.array([0.5, 0.5])
        if factor == "kets":
            kets[0, 0] = value
        elif factor == "weights":
            weights[0] = value
        state = (value, kets[:, :1], np.array([1.0])) if factor == "c" else (0.0, kets, weights)
        with pytest.raises(ValueError, match=f"state {factor} must be finite"):
            swept_expectations(coupled_pair(), state, [], [SpinLock(SpinLockParams(0.0), 0.0)], [0.1], [])

    # the kets are one 2-d array; basis-state weights alone (K = None) are not a state
    @pytest.mark.parametrize("kets", [None, np.full(4, 0.5), np.eye(4)[:, :, None]], ids=["none", "1d", "3d"])
    def test_kets_that_are_not_a_2d_array_are_rejected(self, kets):
        with pytest.raises(ValueError, match="state kets must be a 2-d array"):
            swept_expectations(coupled_pair(), (0.0, kets, np.full(4, 0.25)), [],
                               [SpinLock(SpinLockParams(0.0), 0.0)], [0.1], [])

    def test_factored_state_within_the_tolerances_is_accepted(self):
        kets = np.eye(4)[:, :2] * (1 + 4e-11)
        state = (0.1, kets, np.array([0.7 + 5e-11, -0.1 - 5e-11]))
        values = swept_expectations(coupled_pair(), state, [], [SpinLock(SpinLockParams(0.0), 0.0)], [0.1], [])
        assert values.shape == (1, 1)


class TestDiagonalSingletPopulation:
    # a preparation's population is read in the Heisenberg picture, off the pair's
    # d / 4 singlet kets carried through U^T, the mirrored and reversed segment list
    @staticmethod
    def mixed_sequence(n_spins):
        """A seeded system with every spin paired, and pulses and locks at arbitrary RF phases.

        The list holds a zero-flip pulse, a zero-duration lock and a free delay,
        and its first lock is at a nonzero phase.
        """
        rng = np.random.default_rng(330 + n_spins)
        j = np.triu(rng.normal(scale=10.0, size=(n_spins, n_spins)), 1)
        pairs = tuple((i, i + 1) for i in range(0, n_spins, 2))
        system = SpinSystem(rng.normal(scale=40.0, size=n_spins), j + j.T, pairs)

        def pulse():
            return HardPulse(rng.uniform(-2 * np.pi, 2 * np.pi), rng.uniform(-np.pi, np.pi))

        def lock(duration_s):
            params = SpinLockParams(rng.uniform(20.0, 300.0), rng.uniform(-np.pi, np.pi), rng.normal(scale=20.0))
            return SpinLock(params, duration_s)

        segments = [pulse(), lock(0.031), HardPulse(0.0, 1.3), lock(0.0), pulse(),
                    SpinLock(SpinLockParams(0.0, 0.0, 7.0), 0.017), lock(0.012), pulse()]
        assert segments[1].params.phase != 0.0
        return system, segments

    @pytest.mark.parametrize("n_spins", [2, 4, 6], ids=["d4", "d16", "d64"])
    def test_matches_dense_oracle_on_every_pair(self, n_spins):
        system, segments = self.mixed_sequence(n_spins)
        u = oracle_propagator(system, segments)
        for polarization in (-1.0, 0.3, 1.0):
            weights = thermal_state(system, polarization)
            rho = u @ np.diag(weights) @ u.conj().T
            for pair in range(len(system.pairs)):
                expected = np.trace(singlet_projector(system, pair) @ rho).real
                value = engine.diagonal_singlet_population(system, weights, segments, pair)
                assert abs(value - expected) < 1e-13

    @pytest.mark.parametrize("n_spins", [2, 4, 6], ids=["d4", "d16", "d64"])
    def test_mirrored_list_is_the_transposed_propagator(self, n_spins):
        # in the frame of the first lock, every phase taken less the frame's
        system, segments = self.mixed_sequence(n_spins)
        frame = segments[1].params.phase
        forward = oracle_propagator(system, _phase_shifted_pulses(segments, -frame))
        transposed = engine._apply(system, engine._mirrored(segments, frame), np.eye(system.dim), {}, frame)
        assert np.max(np.abs(transposed - forward.T)) < 1e-13

    @pytest.mark.parametrize("n_spins", [4, 6, 8], ids=["d16", "d64", "d256"])
    def test_singlet_kets_are_the_identity_columns_they_replace(self, n_spins):
        system, _ = self.mixed_sequence(n_spins)
        up_down, eye = _up_down(n_spins), np.eye(system.dim)
        for pair, (a, b) in enumerate(system.pairs):
            expected = (eye[:, up_down[a, b]] - eye[:, up_down[b, a]]) / SQRT2
            kets = engine._singlet_kets(system, pair)
            assert kets.dtype == np.float64 and np.array_equal(kets.view(np.uint64), expected.view(np.uint64))


class TestPhasorTable:
    SYSTEMS = {"glutamate_d16": glutamate, "pgg_d64": lambda: phe_gly_gly(include_third_pair=True)}

    @staticmethod
    def exponentiated(monkeypatch):
        """The size of each array np.exp takes while the test runs."""
        sizes, exp = [], np.exp

        def counting_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        return sizes

    @pytest.mark.parametrize("read", ["r_read", "carried"])
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_uniform_sweep_matches_direct_exponentials(self, monkeypatch, name, read):
        # 250 taus to 2.5 s: every phase of the angle-addition table against exp(i theta) of its own angle,
        # read vectorised over tau (one swept lock, 250 r > d) and carried (a lock, then a free delay)
        system = self.SYSTEMS[name]()
        lock = SpinLock(SpinLockParams(599.31, 0.7, pair_center_offset(system, 0)), 0.0)
        delay = SpinLock(SpinLockParams(0.0, 0.0, pair_center_offset(system, 1)), 0.0)
        swept = [lock] if read == "r_read" else [lock, delay]
        readout = ([HardPulse(np.pi / 2, 0.3)], False)
        args = (system, sequences.ideal_transfer_state(system, 0), [], swept, np.linspace(0.01, 2.5, 250), [], readout)
        sizes = self.exponentiated(monkeypatch)
        values = swept_expectations(*args)
        # one 16 + 16 row table per swept segment in place of 250 rows; the rest are phase vectors
        assert [size for size in sizes if size > system.dim] == [16 * system.dim] * 2 * len(swept)
        monkeypatch.setattr(engine, "_phasors", lambda e, taus: np.exp(1j * engine._angles(e, taus[:, None])))
        assert np.max(np.abs(values - swept_expectations(*args))) < 1e-12

    def test_non_uniform_sweep_takes_the_direct_path(self, monkeypatch):
        energies = np.linalg.eigvalsh(spinlock_hamiltonian(glutamate(), 599.31))
        taus = np.sort(np.random.default_rng(125).uniform(0.02, 2.5, 125))
        sizes = self.exponentiated(monkeypatch)
        table = engine._phasors(energies, taus)
        assert sizes == [taus.size * energies.size]
        assert np.array_equal(table, np.exp(1j * engine._angles(energies, taus[:, None])))

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 250])
    def test_table_is_exp_of_each_angle(self, n):
        # within a few roundings of exp(i theta_k) at every size, the short sweeps on the direct path
        energies = np.random.default_rng(3).normal(0.0, 600.0, 64)
        taus = np.linspace(0.7, 10.0, n)
        direct = np.exp(1j * engine._angles(energies, taus[:, None]))
        assert np.max(np.abs(engine._phasors(energies, taus) - direct)) < 1e-15


class TestRelaxationEnvelope:
    def test_absent_lifetimes_change_nothing(self):
        t, values = np.linspace(0.0, 4.0, 50), np.linspace(0.2, 0.9, 50)
        out = RelaxationEnvelope().apply(values, t, ramsey=False)
        assert np.allclose(out, values)

    def test_definition_point(self):
        t = np.linspace(0.0, 4.0, 5)
        out = RelaxationEnvelope(t_s_s=2.0).apply(np.ones(5), t, ramsey=True)
        k = np.argmin(np.abs(t - 2.0))
        assert abs(out[k] - np.exp(-1.0)) < 1e-12

    def test_rabi_envelope_recovered_by_exponential_fit(self):
        t = np.linspace(0.0, 4.0, 200)
        out = RelaxationEnvelope(t_rabi_s=1.6).apply(np.full(t.size, 0.8), t, ramsey=False)
        fit = fit_exponential((t, out))
        assert abs(fit.params["t_s"] - 1.6) / 1.6 < 1e-6

    def test_ramsey_dephasing_acts_on_oscillation_only(self):
        t = np.linspace(0.0, 6.0, 400)
        base = 0.5 + 0.3 * np.cos(2 * np.pi * 2.0 * t)
        out = RelaxationEnvelope(t_2s_star_s=1.0).apply(base, t, ramsey=True)
        expected = 0.5 + 0.3 * np.cos(2 * np.pi * 2.0 * t) * np.exp(-t / 1.0)
        assert np.max(np.abs(out - expected)) < 5e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["t_s_s", "t_2s_star_s", "t_rabi_s"])
    def test_lifetimes_must_be_finite_and_positive(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            RelaxationEnvelope(**{name: bad})

    def test_positive_lifetimes_required(self):
        with pytest.raises(ValueError, match="positive"):
            RelaxationEnvelope(t_s_s=-1.0)


class TestTrace:
    def test_nan_marks_an_undetermined_point(self):
        trace = Trace(np.array([1.0, 2.0, 3.0]), np.array([0.1, np.nan, 0.3]))
        assert np.isnan(trace.observable[1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_observable(self, bad):
        with pytest.raises(ValueError, match="finite or NaN"):
            Trace(np.array([1.0, 2.0]), np.array([0.1, bad]))

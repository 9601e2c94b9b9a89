from dataclasses import replace

import numpy as np
import pytest
from conftest import embed_spin_operator, expectation, oracle_state, singlet_projector, triplet_projector

from singletsim import propagator as engine
from singletsim import sequences
from singletsim.analysis import fit_exponential
from singletsim.hamiltonian import (
    SpinLockParams,
    free_hamiltonian,
    pair_center_offset,
    rf_generator,
    spinlock_hamiltonian,
)
from singletsim.presets import glutamate, phe_gly_gly
from singletsim.propagator import (
    HardPulse,
    RelaxationEnvelope,
    SpinLock,
    apply_relaxation_envelope,
    sequence_propagator,
    swept_expectations,
)
from singletsim.spincore import SpinSystem, _fz, thermal_state
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


class TestPhaseRotation:
    # an RF phase is a rotation about z: H(phase) = Z H(0) Z^dagger, Z = exp(-i phase Fz)
    @pytest.mark.parametrize("phase", [0.3, np.pi / 2, np.pi, -2.2])
    def test_phased_generators_are_rotated_phase_0_ones(self, phase):
        rng = np.random.default_rng(11)
        j = np.triu(rng.normal(scale=10.0, size=(4, 4)), 1)
        system = SpinSystem(rng.normal(scale=50.0, size=4), j + j.T)
        fz = sum(embed_spin_operator(system, i, "z") for i in range(system.n_spins)).diagonal()
        assert np.array_equal(_fz(system), fz.real)
        z = np.exp(-1j * phase * _fz(system))
        lock = SpinLockParams(310.0, phase, 12.0)
        h0 = spinlock_hamiltonian(system, replace(lock, phase=0.0))
        assert np.max(np.abs(z[:, None] * h0 * z.conj() - spinlock_hamiltonian(system, lock))) < 1e-12
        g0 = rf_generator(system, 0.0)
        assert np.max(np.abs(z[:, None] * g0 * z.conj() - rf_generator(system, phase))) < 1e-15

    def test_phase_0_generator_must_be_real(self, monkeypatch):
        def complex_free_hamiltonian(system, transmitter_offset_hz):
            h = np.zeros((system.dim, system.dim), dtype=complex)
            h[0, 1], h[1, 0] = 1j, -1j
            return h

        monkeypatch.setattr("singletsim.hamiltonian.free_hamiltonian", complex_free_hamiltonian)
        with pytest.raises(ValueError, match="must be real"):
            sequence_propagator(coupled_pair(), [SpinLock(SpinLockParams(0.0), 0.1)])


class TestRealArithmetic:
    # in a transfer lock's frame the phase-0 operators are real; float64
    # keeps every product on them in real arithmetic
    @pytest.mark.parametrize("make", [glutamate, lambda: phe_gly_gly(include_third_pair=True)])
    def test_phase_0_operators_and_states_are_float64(self, make):
        system = make()
        lock = SpinLockParams(310.0, 0.0, pair_center_offset(system, 0))
        assert free_hamiltonian(system, 12.0).dtype == np.float64
        assert spinlock_hamiltonian(system, lock).dtype == np.float64
        assert thermal_state(system, 0.9).dtype == np.float64
        for init in ("uniform", "phi_minus"):
            assert sequences.ideal_transfer_state(system, 0, init).dtype == np.float64
        energies, vectors = engine._segment_eig(system, SpinLock(lock, 0.0), {})
        assert vectors.dtype == np.float64
        _, phased = engine._segment_eig(system, SpinLock(replace(lock, phase=0.7), 0.0), {})
        assert phased.dtype == np.complex128

    def test_phased_lock_is_complex(self):
        system = coupled_pair()
        assert spinlock_hamiltonian(system, SpinLockParams(30.0, 0.7)).dtype == np.complex128
        assert rf_generator(system, np.pi / 2).dtype == np.complex128

    def test_zero_nutation_lock_carries_no_phase(self):
        # a free delay: a phase shift leaves its generator and its real eigenvectors as they are
        system = glutamate()
        free = SpinLockParams(0.0, 0.0, pair_center_offset(system, 0))
        eigs = {}
        energies, vectors = engine._segment_eig(system, SpinLock(free, 0.0), eigs)
        shifted = engine._segment_eig(system, SpinLock(replace(free, phase=1.3), 0.2), eigs)
        assert vectors.dtype == np.float64 and len(eigs) == 1
        assert shifted[0] is energies and shifted[1] is vectors

    def test_rabi_at_a_nonzero_transfer_phase_reads_in_real_arithmetic(self, monkeypatch):
        # rho0, each pair's M and the swept read: every product is real by real
        glu = glutamate()
        lock = SpinLockParams(599.31, 0.7, pair_center_offset(glu, 0))
        protocol = sequences.Protocol(kind="rabi", sweep=np.linspace(0.05, 1.0, 6), transfer=lock,
                                      triplet_init="phi_minus")
        states, products = [], []
        swept, mul = sequences.swept_expectations, engine._mul

        def recording_swept(system, rho0, *args):
            states.append(rho0)
            return swept(system, rho0, *args)

        def recording_mul(a, b):
            out = mul(a, b)
            products.append((a.dtype, b.dtype, out.dtype))
            return out

        monkeypatch.setattr(sequences, "swept_expectations", recording_swept)
        monkeypatch.setattr(engine, "_mul", recording_mul)
        sequences.run_rabi(glu, protocol)
        assert [rho.dtype for rho in states] == [np.float64]
        # r = V^T rho0 V, then one read per pair: x * M^T against [cos; sin]
        assert len(products) == 2 + len(glu.pairs)
        assert all(dtypes == (np.float64,) * 3 for dtypes in products)


class TestPropagate:
    def test_empty_sequence_returns_input(self):
        system = coupled_pair()
        rho = thermal_state(system)
        out = evolve(system, rho, [])
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_90_pulse_converts_longitudinal_to_transverse(self):
        system = coupled_pair()
        rho = thermal_state(system, 1.0)
        iz = sum(embed_spin_operator(system, i, "z") for i in range(2))
        ix = sum(embed_spin_operator(system, i, "x") for i in range(2))
        mz0 = expectation(rho, iz).real
        out = evolve(system, rho, [HardPulse(np.pi / 2, np.pi / 2)])
        assert abs(expectation(out, ix).real - mz0) < 1e-12
        assert abs(expectation(out, iz).real) < 1e-12

    def test_unitary_invariants_preserved(self):
        system = coupled_pair()
        rho = thermal_state(system, 0.8)
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
        rho = thermal_state(system, 0.5)
        lock = SpinLockParams(33.0, 0.0, 1.0)
        one = evolve(system, rho, [SpinLock(lock, 0.7)])
        two = evolve(system, rho, [SpinLock(lock, 0.3), SpinLock(lock, 0.4)])
        assert np.max(np.abs(one - two)) < 1e-10

    def test_pair_population_closure(self):
        system = coupled_pair()
        rho = thermal_state(system, 1.0)
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
        taus = np.array([0.0, 0.013, 0.2, 1.7])
        rho0 = thermal_state(system, 0.8)
        observables = [singlet_projector(system, 0), embed_spin_operator(system, 2, "x")]
        values = swept_expectations(system, rho0, before, swept, taus, after, observables[1:])
        assert values.shape == (2, taus.size)
        for k, tau in enumerate(taus):
            played = [replace(segment, duration_s=tau) for segment in swept]
            state = oracle_state(system, rho0, [*before, *played, *after])
            expected = [expectation(state, obs).real for obs in observables]
            assert np.max(np.abs(values[:, k] - expected)) < 1e-12

    def test_ramsey_forms_its_pi_half_propagator_once(self, monkeypatch):
        # the same pi/2 lock plays before and after the free precession
        glu = glutamate()
        protocol = sequences.Protocol(
            kind="ramsey", sweep=np.linspace(0.05, 1.0, 6),
            transfer=SpinLockParams(599.31, 0.7, pair_center_offset(glu, 0)), pi_half_duration_s=0.1,
            free_lock=SpinLockParams(47.0, 0.7, pair_center_offset(glu, 1)),
        )
        durations, unitary = [], engine._unitary

        def counting_unitary(eig, duration_s):
            durations.append(duration_s)
            return unitary(eig, duration_s)

        monkeypatch.setattr(engine, "_unitary", counting_unitary)
        sequences.run_ramsey(glu, protocol)
        assert durations == [0.1]

    def test_invalid_state_rejected(self):
        system = coupled_pair()
        with pytest.raises(ValueError):
            swept_expectations(system, 2 * np.eye(4), [], [SpinLock(SpinLockParams(0.0), 0.0)], [0.1], [],
                               [np.eye(4)])


class TestRelaxationEnvelope:
    def make_trace(self, values, protocol="rabi"):
        t = np.linspace(0.0, 4.0, values.size)
        return Trace(t, values, None, {"protocol": protocol, "sweep_unit": "s"})

    def test_absent_lifetimes_change_nothing(self):
        trace = self.make_trace(np.linspace(0.2, 0.9, 50))
        out = apply_relaxation_envelope(trace, RelaxationEnvelope())
        assert np.allclose(out.observable, trace.observable)

    def test_definition_point(self):
        t = np.linspace(0.0, 4.0, 5)
        trace = Trace(t, np.ones(5), None, {"protocol": "ramsey", "sweep_unit": "s"})
        out = apply_relaxation_envelope(trace, RelaxationEnvelope(t_s_s=2.0))
        k = np.argmin(np.abs(t - 2.0))
        assert abs(out.observable[k] - np.exp(-1.0)) < 1e-12

    def test_rabi_envelope_recovered_by_exponential_fit(self):
        t = np.linspace(0.0, 4.0, 200)
        flat = Trace(t, np.full(t.size, 0.8), None, {"protocol": "rabi", "sweep_unit": "s"})
        out = apply_relaxation_envelope(flat, RelaxationEnvelope(t_rabi_s=1.6))
        fit = fit_exponential((t, out.observable))
        assert abs(fit.params["t_s"] - 1.6) / 1.6 < 1e-6

    def test_ramsey_dephasing_acts_on_oscillation_only(self):
        t = np.linspace(0.0, 6.0, 400)
        base = 0.5 + 0.3 * np.cos(2 * np.pi * 2.0 * t)
        trace = Trace(t, base, None, {"protocol": "ramsey", "sweep_unit": "s"})
        out = apply_relaxation_envelope(trace, RelaxationEnvelope(t_2s_star_s=1.0))
        expected = 0.5 + 0.3 * np.cos(2 * np.pi * 2.0 * t) * np.exp(-t / 1.0)
        assert np.max(np.abs(out.observable - expected)) < 5e-3

    def test_rejects_frequency_sweeps(self):
        trace = Trace(np.array([1.0, 2.0]), np.array([0.1, 0.2]), None, {"sweep_unit": "Hz"})
        with pytest.raises(ValueError, match="time traces"):
            apply_relaxation_envelope(trace, RelaxationEnvelope(t_s_s=1.0))

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

import numpy as np
import pytest

from singletsim.analysis import fit_exponential
from singletsim.hamiltonian import SpinLockParams, free_hamiltonian
from singletsim.propagator import (
    Delay,
    HardPulse,
    RelaxationEnvelope,
    SpinLock,
    apply_relaxation_envelope,
    final_state,
    hard_pulse_propagator,
    propagate,
    segment_propagator,
    sequence_duration,
)
from singletsim.spincore import (
    SpinSystem,
    embed_spin_operator,
    expectation,
    singlet_projector,
    thermal_state,
    triplet_projector,
)
from singletsim.trace import Trace


def single_spin():
    return SpinSystem(np.array([0.0]), np.zeros((1, 1)), ())


def coupled_pair(j=12.0):
    return SpinSystem(np.zeros(2), np.array([[0.0, j], [j, 0.0]]), ((0, 1),))


class TestSegmentPropagator:
    def test_zero_duration_is_identity(self):
        h = free_hamiltonian(coupled_pair())
        u = segment_propagator(h, 0.0)
        assert np.max(np.abs(u - np.eye(4))) < 1e-14

    def test_half_rabi_period_inverts_spin(self):
        nut = 40.0
        system = single_spin()
        h = nut * embed_spin_operator(system, 0, "x")
        u = segment_propagator(h, 1.0 / (2 * nut))
        up = np.array([1.0, 0.0], dtype=complex)
        out = u @ up
        assert np.allclose(out, [0.0, -1j], atol=1e-12)

    def test_eigenphase_pattern_at_two_over_j(self):
        # after t = 2/J the singlet and triplet phases realign:
        # exp(-i 2 pi (E_S - E_T) t) = exp(i 4 pi) = 1
        j = 12.0
        system = coupled_pair(j)
        u = segment_propagator(free_hamiltonian(system), 2.0 / j)
        s0 = np.array([0, 1, -1, 0]) / np.sqrt(2)
        t0 = np.array([0, 1, 1, 0]) / np.sqrt(2)
        phase_s = np.angle(s0.conj() @ u @ s0)
        phase_t = np.angle(t0.conj() @ u @ t0)
        assert abs(np.exp(1j * (phase_s - phase_t)) - 1.0) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = 0.5 * (m + m.conj().T)
        u = segment_propagator(h, 0.0137)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-10

    def test_non_hermitian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            segment_propagator(h, 1.0)


class TestHardPulse:
    def test_pi_pulse_inverts_population(self):
        system = single_spin()
        u = hard_pulse_propagator(system, HardPulse(np.pi, 0.0))
        out = u @ np.array([1.0, 0.0], dtype=complex)
        assert abs(abs(out[1]) - 1.0) < 1e-12

    def test_flip_angle_composition(self):
        system = coupled_pair()
        u_half = hard_pulse_propagator(system, HardPulse(np.pi / 4, 1.0))
        u_full = hard_pulse_propagator(system, HardPulse(np.pi / 2, 1.0))
        assert np.max(np.abs(u_half @ u_half - u_full)) < 1e-12


class TestPropagate:
    def test_empty_sequence_returns_input(self):
        system = coupled_pair()
        rho = thermal_state(system)
        (out,) = propagate(rho, [], system, [0.0])
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_90_pulse_converts_longitudinal_to_transverse(self):
        system = coupled_pair()
        rho = thermal_state(system, 1.0)
        iz = sum(embed_spin_operator(system, i, "z") for i in range(2))
        ix = sum(embed_spin_operator(system, i, "x") for i in range(2))
        mz0 = expectation(rho, iz).real
        out = final_state(rho, [HardPulse(np.pi / 2, np.pi / 2)], system)
        assert abs(expectation(out, ix).real - mz0) < 1e-12
        assert abs(expectation(out, iz).real) < 1e-12

    def test_unitary_invariants_preserved(self):
        system = coupled_pair()
        rho = thermal_state(system, 0.8)
        eigs0 = np.sort(np.linalg.eigvalsh(rho))
        segments = [
            HardPulse(np.pi / 3, 0.4),
            Delay(0.05),
            SpinLock(SpinLockParams(90.0, 0.2, 3.0), 0.2),
            HardPulse(np.pi, 1.1),
            Delay(0.31),
        ]
        out = final_state(rho, segments, system)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(out)) - eigs0)) < 1e-10

    def test_segment_composition(self):
        system = coupled_pair()
        rho = thermal_state(system, 0.5)
        lock = SpinLockParams(33.0, 0.0, 1.0)
        one = final_state(rho, [SpinLock(lock, 0.7)], system)
        two = final_state(rho, [SpinLock(lock, 0.3), SpinLock(lock, 0.4)], system)
        assert np.max(np.abs(one - two)) < 1e-10

    def test_pair_population_closure(self):
        system = coupled_pair()
        rho = thermal_state(system, 1.0)
        times = np.linspace(0.0, 0.5, 11)
        states = propagate(rho, [SpinLock(SpinLockParams(25.0, 0.0, 0.0), 0.5)], system, times)
        ps = singlet_projector(system, 0)
        pt = triplet_projector(system, 0)
        for state in states:
            total = expectation(state, ps).real + expectation(state, pt).real
            assert abs(total - 1.0) < 1e-10

    def test_sample_inside_segment_matches_split_run(self):
        system = coupled_pair()
        rho = thermal_state(system, 1.0)
        lock = SpinLockParams(25.0, 0.0, 0.0)
        mid, end = propagate(rho, [SpinLock(lock, 0.4)], system, [0.15, 0.4])
        direct = final_state(rho, [SpinLock(lock, 0.15)], system)
        assert np.max(np.abs(mid - direct)) < 1e-12
        assert abs(np.trace(end).real - 1.0) < 1e-12

    def test_sample_time_outside_duration(self):
        system = coupled_pair()
        rho = thermal_state(system)
        with pytest.raises(ValueError, match="within the sequence duration"):
            propagate(rho, [Delay(0.1)], system, [0.2])

    def test_boundary_snap(self):
        system = coupled_pair()
        rho = thermal_state(system)
        # 1e-10 beyond the end snaps to the boundary instead of raising
        (out,) = propagate(rho, [Delay(0.1)], system, [0.1 + 1e-10])
        assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_sample_at_pulse_sees_pre_pulse_state(self):
        system = single_spin()
        rho = np.diag([1.0, 0.0]).astype(complex)
        states = propagate(rho, [HardPulse(np.pi, 0.0)], system, [0.0])
        assert abs(states[0][0, 0].real - 1.0) < 1e-12

    def test_invalid_state_rejected(self):
        system = single_spin()
        with pytest.raises(ValueError):
            propagate(np.eye(2, dtype=complex), [], system, [0.0])

    def test_sequence_duration(self):
        segs = [HardPulse(1.0, 0.0), Delay(0.2), SpinLock(SpinLockParams(10.0), 0.3)]
        assert abs(sequence_duration(segs) - 0.5) < 1e-15


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

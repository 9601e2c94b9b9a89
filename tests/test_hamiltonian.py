import numpy as np
import pytest

from singletsim.hamiltonian import (
    EffectiveTwoLevel,
    NoTransferError,
    SpinLockParams,
    dressed_splitting,
    effective_channels,
    effective_nutation_difference,
    free_hamiltonian,
    interaction_strength,
    resonant_nutation,
    spinlock_hamiltonian,
    state_energies,
    transfer_period,
)
from singletsim.presets import glutamate
from singletsim.spincore import (
    SpinSystem,
    TripletAmplitudes,
    pair_basis,
    product_state_vector,
)

PHI_PLUS = TripletAmplitudes(1.0, 0.0, 0.0)
PHI_0 = TripletAmplitudes(0.0, 1.0, 0.0)
PHI_MINUS = TripletAmplitudes(0.0, 0.0, 1.0)


def pair_system(j, dnu=0.0):
    return SpinSystem(
        np.array([dnu / 2, -dnu / 2]), np.array([[0.0, j], [j, 0.0]]), ((0, 1),)
    )


class TestFreeHamiltonian:
    def test_equivalent_pair_spectrum(self):
        h = free_hamiltonian(pair_system(12.0))
        w = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(w, [-9.0, 3.0, 3.0, 3.0], atol=1e-12)  # -3J/4, J/4 x3

    def test_zeeman_splitting(self):
        sys1 = SpinSystem(np.array([7.0]), np.zeros((1, 1)), ())
        w = np.sort(np.linalg.eigvalsh(free_hamiltonian(sys1)))
        assert np.allclose(w, [-3.5, 3.5])

    def test_transmitter_offset_shifts_zeeman(self):
        sys1 = SpinSystem(np.array([7.0]), np.zeros((1, 1)), ())
        w = np.sort(np.linalg.eigvalsh(free_hamiltonian(sys1, transmitter_offset_hz=7.0)))
        assert np.allclose(w, [0.0, 0.0], atol=1e-12)

    def test_double_singlet_sector_eigenvalue(self):
        # equivalent members, no interpair couplings: |S0 S0> is an exact
        # eigenvector at -3 (J1 + J2) / 4 (checked by dense diagonalization)
        c = np.zeros((4, 4))
        c[0, 1] = c[1, 0] = 15.5
        c[2, 3] = c[3, 2] = 17.75
        sys4 = SpinSystem(np.array([0.0, 0.0, 52.0, 52.0]), c, ((0, 1), (2, 3)))
        h = free_hamiltonian(sys4)
        w, v = np.linalg.eigh(h)
        b = pair_basis(sys4, 0)
        target = product_state_vector(sys4, [b.s0, b.s0])
        overlaps = np.abs(v.conj().T @ target) ** 2
        k = np.argmax(overlaps)
        assert overlaps[k] > 0.999999
        assert abs(w[k] - (-3 * (15.5 + 17.75) / 4)) < 1e-10

    def test_hermitian(self):
        glu = glutamate()
        h = free_hamiltonian(glu, 408.0)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestSpinlockHamiltonian:
    def test_dressed_splitting_single_spin(self):
        sys1 = SpinSystem(np.array([0.0]), np.zeros((1, 1)), ())
        h = spinlock_hamiltonian(sys1, SpinLockParams(25.0, 0.0, 0.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-12.5, 12.5])

    def test_pi_phase_flips_lock_sign(self):
        sys1 = SpinSystem(np.array([3.0]), np.zeros((1, 1)), ())
        h0 = spinlock_hamiltonian(sys1, SpinLockParams(25.0, 0.0, 0.0))
        hpi = spinlock_hamiltonian(sys1, SpinLockParams(25.0, np.pi, 0.0))
        free = free_hamiltonian(sys1, 0.0)
        assert np.max(np.abs(hpi - (2 * free - h0))) < 1e-10

    def test_zero_nutation_reduces_to_free(self):
        glu = glutamate()
        h = spinlock_hamiltonian(glu, SpinLockParams(0.0, 0.3, 408.0))
        assert np.max(np.abs(h - free_hamiltonian(glu, 408.0))) < 1e-14

    def test_hermitian(self):
        glu = glutamate()
        h = spinlock_hamiltonian(glu, SpinLockParams(500.0, 1.1, 408.0))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_eigenvectors_converge_to_lock_basis(self):
        # strong lock, on-resonance transmitter: eigenvectors approach the
        # dressed pair kets (overlap > 0.999 at nutation = 100 |delta nu|)
        dnu = 5.0
        system = pair_system(15.0, dnu)
        h = spinlock_hamiltonian(system, SpinLockParams(100 * dnu, 0.0, 0.0))
        _, vectors = np.linalg.eigh(h)
        b = pair_basis(system, 0)
        for ket in (b.phi_plus, b.phi_0, b.phi_s, b.phi_minus):
            best = np.max(np.abs(vectors.conj().T @ ket) ** 2)
            assert best > 0.999


class TestInteractionStrength:
    def test_cis_trans_difference(self):
        c = interaction_strength(5.0, 5.0, 2.43, 2.43, PHI_PLUS, PHI_PLUS)
        assert abs(c - 1.285) < 1e-12

    def test_equal_couplings_vanish(self):
        assert interaction_strength(3.0, 3.0, 3.0, 3.0, PHI_PLUS, PHI_PLUS) == 0.0

    def test_orthogonal_compositions_vanish(self):
        assert interaction_strength(5.0, 5.0, 2.43, 2.43, PHI_PLUS, PHI_0) == 0.0

    def test_relabel_invariance(self):
        # swapping a <-> b within one pair (with the coupling swap) flips
        # only the sign convention of that pair's singlet; |C| is invariant
        amps = TripletAmplitudes(0.48, -0.64, 0.6)
        c0 = interaction_strength(5.0, 4.4, 2.4, 1.9, amps, PHI_PLUS)
        c_swap2 = interaction_strength(2.4, 1.9, 5.0, 4.4, amps, PHI_PLUS)
        c_swap1 = interaction_strength(1.9, 2.4, 4.4, 5.0, amps, PHI_PLUS)
        assert abs(abs(c_swap2) - abs(c0)) < 1e-12
        assert abs(abs(c_swap1) - abs(c0)) < 1e-12
        assert abs(interaction_strength(5.0, 4.4, 2.4, 1.9, amps, PHI_PLUS) - c0) < 1e-15


class TestStateEnergies:
    def test_zero_lock_difference_is_coupling_difference(self):
        e1, e2 = state_energies(15.5, 17.75, 0.0, 0.0, PHI_PLUS, PHI_PLUS)
        assert abs(abs(e1 - e2) - 2.25) < 1e-12

    def test_symmetric_configuration_degenerate(self):
        e1, e2 = state_energies(16.0, 16.0, 500.0, 500.0, PHI_MINUS, PHI_MINUS)
        assert abs(e1 - e2) < 1e-12

    def test_balanced_composition_cancels_lock_terms(self):
        amp = TripletAmplitudes(np.sqrt(0.5), 0.0, np.sqrt(0.5))  # alpha = gamma
        e1, e2 = state_energies(15.5, 17.75, 480.0, 520.0, amp, amp)
        assert abs(abs(e1 - e2) - 2.25) < 1e-12


class TestEffectiveTwoLevel:
    def test_resonance_frequency_and_contrast(self):
        two = EffectiveTwoLevel(3.0, 3.0, 1.285)
        assert abs(two.oscillation_frequency_hz - 2.57) < 1e-12
        assert abs(two.transfer_contrast - 1.0) < 1e-12
        # on resonance 1/f equals the transfer period of the same couplings
        assert abs(1.0 / two.oscillation_frequency_hz - transfer_period(5.0, 5.0, 2.43, 2.43)) < 1e-12

    def test_zero_coupling_no_contrast(self):
        two = EffectiveTwoLevel(1.0, 5.0, 0.0)
        assert two.transfer_contrast == 0.0

    def test_half_contrast_against_dense_propagation(self):
        # |E1 - E2| = 2C gives contrast 1/2; oracle: propagate the dense
        # 2x2 and take the maximum transferred population
        c = 0.8
        two = EffectiveTwoLevel(2 * c, 0.0, c)
        h = two.matrix
        w, v = np.linalg.eigh(h)
        times = np.linspace(0.0, 5.0 / two.oscillation_frequency_hz, 4001)
        psi0 = np.array([0.0, 1.0])
        phases = np.exp(-2j * np.pi * np.outer(times, w))
        amps = (v * phases[:, None, :]) @ (v.conj().T @ psi0)
        transferred = np.abs(amps[:, 0]) ** 2
        assert abs(two.transfer_contrast - 0.5) < 1e-12
        assert abs(transferred.max() - 0.5) < 1e-4

    def test_population_trace_matches_formula(self):
        two = EffectiveTwoLevel(1.0, 0.0, 0.7)
        t = np.linspace(0, 2, 50)
        expected = two.transfer_contrast * np.sin(np.pi * two.oscillation_frequency_hz * t) ** 2
        assert np.allclose(two.population_trace(t), expected)


class TestEffectiveNutationDifference:
    # operating points quoted with the experiments: (nutation, pair shift
    # difference) -> documented effective nutation difference
    @pytest.mark.parametrize(
        "nutation, dnu12, expected",
        [(500.0, 52.0, 2.70), (280.0, 36.0, 2.30), (47.0, 52.0, 23.1)],
    )
    def test_documented_operating_points(self, nutation, dnu12, expected):
        assert abs(effective_nutation_difference(nutation, dnu12) - expected) < 0.01

    def test_agrees_with_single_spin_diagonalization(self):
        # oracle: dressed splittings from diagonalizing the two single-spin
        # lock Hamiltonians
        for nutation in (260.0, 500.0, 1500.0):
            dnu12 = 52.0
            h1 = np.array([[0.0, nutation / 2], [nutation / 2, 0.0]])
            h2 = np.array([[dnu12 / 2, nutation / 2], [nutation / 2, -dnu12 / 2]])
            split = lambda h: float(np.diff(np.linalg.eigvalsh(h))[0])
            exact = split(h2) - split(h1)
            approx = effective_nutation_difference(nutation, dnu12)
            assert abs(approx - exact) / exact < 0.01

    def test_negative_nutation_rejected(self):
        with pytest.raises(ValueError):
            effective_nutation_difference(-1.0, 52.0)

    def test_resonant_nutation_inverts(self):
        nu = resonant_nutation(52.0, 2.25)
        assert abs(effective_nutation_difference(nu, 52.0) - 2.25) < 1e-9
        with pytest.raises(ValueError):
            resonant_nutation(52.0, 0.0)
        with pytest.raises(ValueError):
            resonant_nutation(2.0, 5.0)


class TestTransferPeriod:
    def test_glutamate_scale(self):
        assert abs(transfer_period(5.0, 5.0, 2.43, 2.43) - 0.389) < 1e-3

    def test_weak_coupling_scale(self):
        assert abs(transfer_period(0.020, 0.020, 0.012, 0.012) - 125.0) < 1e-9

    def test_no_transfer_condition(self):
        with pytest.raises(NoTransferError):
            transfer_period(3.0, 3.0, 3.0, 3.0)


class TestEffectiveChannels:
    def test_glutamate_channel_structure(self):
        glu = glutamate()
        lock = SpinLockParams(resonant_nutation(52.0, 2.25), 0.0, 408.0)
        channels = effective_channels(glu, lock, 0, 1)
        assert abs(channels["phi_minus"].detuning_hz) < 1e-9
        assert abs(channels["phi_minus"].oscillation_frequency_hz - 2.57) < 1e-9
        assert abs(channels["phi_0"].detuning_hz + 2.25) < 1e-9
        assert channels["phi_plus"].transfer_contrast < 0.3

    def test_dressed_splitting_helper(self):
        assert abs(dressed_splitting(3.0, 4.0) - 5.0) < 1e-14

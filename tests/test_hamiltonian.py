import numpy as np
import pytest
from conftest import (
    EffectiveTwoLevel,
    effective_channels,
    embed_pair_operator,
    embed_spin_operator,
    interaction_strength,
    product_state_vector,
    rf_generator,
    state_energies,
)

from singletsim.hamiltonian import (
    SpinLockParams,
    _coupling_terms,
    _single_flips,
    dressed_splitting,
    effective_nutation_difference,
    free_hamiltonian,
    resonant_nutation,
    spinlock_hamiltonian,
)
from singletsim.presets import glutamate, phe_gly_gly
from singletsim.spincore import PAIR_BASIS, SpinSystem, TripletAmplitudes

PHI_PLUS = TripletAmplitudes(1.0, 0.0, 0.0)
PHI_0 = TripletAmplitudes(0.0, 1.0, 0.0)
PHI_MINUS = TripletAmplitudes(0.0, 0.0, 1.0)


def pair_system(j, dnu=0.0):
    return SpinSystem(
        np.array([dnu / 2, -dnu / 2]), np.array([[0.0, j], [j, 0.0]]), ((0, 1),)
    )


class TestFreeHamiltonian:
    @pytest.mark.parametrize("tables", [_coupling_terms, _single_flips])
    def test_spin_count_tables_are_built_once_and_read_only(self, tables):
        assert all(a is b for a, b in zip(tables(4), tables(4)))
        for table in tables(4):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

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
        b = PAIR_BASIS
        target = product_state_vector(sys4, [b.s0, b.s0])
        overlaps = np.abs(v.conj().T @ target) ** 2
        k = np.argmax(overlaps)
        assert overlaps[k] > 0.999999
        assert abs(w[k] - (-3 * (15.5 + 17.75) / 4)) < 1e-10

    def test_hermitian(self):
        glu = glutamate()
        h = free_hamiltonian(glu, 408.0)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestSpinLockParams:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["nutation_hz", "phase", "transmitter_offset_hz"])
    def test_non_finite_field_rejected(self, field, value):
        # a NaN phase would run to an all-NaN trace and a NaN nutation would
        # stop in eigh; the first lock's phase sets the frame of a whole run
        values = {"nutation_hz": 30.0, "phase": 0.7, "transmitter_offset_hz": 5.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite, got"):
            SpinLockParams(**values)


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
        b = PAIR_BASIS
        for ket in (b.phi_plus, b.phi_0, b.phi_s, b.phi_minus):
            best = np.max(np.abs(vectors.conj().T @ ket) ** 2)
            assert best > 0.999


def seeded_system(n_spins=8, seed=11):
    """Seeded system of n_spins spins in consecutive pairs, every coupling nonzero."""
    rng = np.random.default_rng(seed)
    c = np.triu(rng.uniform(1.0, 20.0, (n_spins, n_spins)) * rng.choice([-1.0, 1.0], (n_spins, n_spins)), 1)
    pairs = tuple((2 * k, 2 * k + 1) for k in range(n_spins // 2))
    return SpinSystem(rng.uniform(-400.0, 400.0, n_spins), c + c.T, pairs)


def kron_operators(n_spins):
    """{axis: [I_axis of each spin]} built as Kronecker products, spin 0 most significant."""
    half = {
        "x": 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
        "y": 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": 0.5 * np.array([[1, 0], [0, -1]], dtype=complex),
    }
    ops = {}
    for axis, single in half.items():
        ops[axis] = []
        for spin in range(n_spins):
            op = np.eye(1, dtype=complex)
            for i in range(n_spins):
                op = np.kron(op, single if i == spin else np.eye(2))
            ops[axis].append(op)
    return ops


class TestAgainstKroneckerProducts:
    """Operators built by bit index against dense Kronecker-product references."""

    TX_HZ = 37.5
    LOCK = SpinLockParams(599.31, 0.7, TX_HZ)

    @pytest.fixture(scope="class")
    def reference(self):
        system = seeded_system(8)
        ops = kron_operators(system.n_spins)
        n = system.n_spins
        h = sum((system.offsets_hz[i] - self.TX_HZ) * ops["z"][i] for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                h = h + system.couplings_hz[i, j] * sum(ops[a][i] @ ops[a][j] for a in "xyz")
        phase = self.LOCK.phase
        rf = sum(np.cos(phase) * ops["x"][i] + np.sin(phase) * ops["y"][i] for i in range(n))
        return system, h, rf

    def test_free_hamiltonian(self, reference):
        system, h, _ = reference
        assert system.dim == 256 and np.all(system.couplings_hz[np.triu_indices(8, 1)] != 0.0)
        assert np.max(np.abs(free_hamiltonian(system, self.TX_HZ) - h)) < 1e-12

    def test_rf_generator(self, reference):
        system, _, rf = reference
        assert np.max(np.abs(rf_generator(system, self.LOCK.phase) - rf)) < 1e-12

    def test_spinlock_hamiltonian(self, reference):
        system, h, rf = reference
        expected = h + self.LOCK.nutation_hz * rf
        assert np.max(np.abs(spinlock_hamiltonian(system, self.LOCK) - expected)) < 1e-12


# I_a . I_b of two spins-1/2 in the local basis (uu, ud, du, dd)
I_DOT_I = 0.25 * np.array([[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]], dtype=complex)


def dense_free_hamiltonian(system, tx_hz):
    """The free Hamiltonian as a sum of dense embedded terms, Zeeman first, then couplings."""
    h = np.zeros((system.dim, system.dim), dtype=complex)
    for i in range(system.n_spins):
        h += (system.offsets_hz[i] - tx_hz) * embed_spin_operator(system, i, "z")
    for i in range(system.n_spins):
        for j in range(i + 1, system.n_spins):
            if system.couplings_hz[i, j] != 0.0:
                h += system.couplings_hz[i, j] * embed_pair_operator(system, (i, j), I_DOT_I)
    return h


def dense_rf_generator(system, phase):
    cx, sy = np.cos(phase), np.sin(phase)
    return sum(
        cx * embed_spin_operator(system, i, "x") + sy * embed_spin_operator(system, i, "y")
        for i in range(system.n_spins)
    )


SCATTER_SYSTEMS = {
    "glutamate_d16": glutamate,
    "pgg_d64": lambda: phe_gly_gly(include_third_pair=True),
    "seeded_d256": seeded_system,
}


class TestAgainstDenseAccumulation:
    """Generators written in place are bitwise equal to sums of dense embedded terms."""

    @pytest.fixture(scope="class", params=list(SCATTER_SYSTEMS))
    def system(self, request):
        return SCATTER_SYSTEMS[request.param]()

    @pytest.mark.parametrize("tx_hz", [0.0, 37.5])
    def test_free_hamiltonian(self, system, tx_hz):
        assert np.array_equal(free_hamiltonian(system, tx_hz), dense_free_hamiltonian(system, tx_hz))

    @pytest.mark.parametrize("phase", [0.0, 0.7, 0.7 + np.pi, -2.2])
    def test_rf_generator(self, system, phase):
        assert np.array_equal(rf_generator(system, phase), dense_rf_generator(system, phase))

    @pytest.mark.parametrize("phase", [0.0, 0.7, 0.7 + np.pi, -2.2])
    def test_spinlock_hamiltonian(self, system, phase):
        lock = SpinLockParams(599.31, phase, 37.5)
        expected = dense_free_hamiltonian(system, 37.5)
        expected += lock.nutation_hz * dense_rf_generator(system, phase)
        assert system.dim in (16, 64, 256)
        assert np.array_equal(spinlock_hamiltonian(system, lock), expected)


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
        # on resonance 1/f equals the transfer period 2 / (J_aa + J_bb - J_ab - J_ba)
        assert abs(1.0 / two.oscillation_frequency_hz - 2.0 / (5.0 + 5.0 - 2.43 - 2.43)) < 1e-12

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

import numpy as np
import pytest
from conftest import (
    check_density,
    check_hermitian,
    embed_spin_operator,
    maximally_mixed_triplet,
    pair_product_density,
    expectation,
    product_state,
    product_state_vector,
    pure_state_density,
    rotate_pair_ket_phase,
    singlet_projector,
    thermal_density,
    triplet_overlap,
    triplet_projector,
)

from singletsim.spincore import (
    PAIR_BASIS,
    SpinSystem,
    TripletAmplitudes,
    thermal_state,
)

SQRT2 = np.sqrt(2.0)

PAULI_HALF = {
    "x": 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
    "y": 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": 0.5 * np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_spin_operator(n_spins, spin, axis):
    """I_axis on `spin` as a Kronecker product, spin 0 most significant (the reference)."""
    op = np.eye(1, dtype=complex)
    for i in range(n_spins):
        op = np.kron(op, PAULI_HALF[axis] if i == spin else np.eye(2))
    return op


def two_spin(j=10.0, dnu=0.0):
    return SpinSystem(
        offsets_hz=np.array([dnu / 2, -dnu / 2]),
        couplings_hz=np.array([[0.0, j], [j, 0.0]]),
        pairs=((0, 1),),
    )


def four_spin():
    c = np.zeros((4, 4))
    c[0, 1] = c[1, 0] = 15.5
    c[2, 3] = c[3, 2] = 17.75
    return SpinSystem(np.array([0.0, 0.0, 52.0, 52.0]), c, ((0, 1), (2, 3)))


class TestSpinSystem:
    def test_asymmetric_couplings_rejected(self):
        c = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SpinSystem(np.zeros(2), c, ())

    def test_nonzero_diagonal_rejected(self):
        c = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            SpinSystem(np.zeros(2), c, ())

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SpinSystem(np.zeros(3), np.zeros((3, 3)), ((0, 1), (1, 2)))

    def test_pair_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SpinSystem(np.zeros(2), np.zeros((2, 2)), ((0, 5),))

    # a NaN fails no > test, so finiteness is tested first, naming the field
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_offset_rejected(self, value):
        with pytest.raises(ValueError, match="offsets_hz must be finite"):
            SpinSystem(np.array([0.0, value]), np.zeros((2, 2)), ((0, 1),))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_coupling_rejected(self, value):
        with pytest.raises(ValueError, match="couplings_hz must be finite"):
            SpinSystem(np.zeros(2), np.array([[0.0, value], [value, 0.0]]), ((0, 1),))


class TestEmbeddedOperators:
    def test_single_spin_iz_diagonal(self):
        sys1 = SpinSystem(np.zeros(1), np.zeros((1, 1)), ())
        iz = embed_spin_operator(sys1, 0, "z")
        assert np.allclose(np.diag(iz), [0.5, -0.5])

    def test_least_significant_spin_iz_pattern(self):
        sys2 = two_spin()
        iz = embed_spin_operator(sys2, 1, "z")
        assert np.allclose(np.diag(iz), [0.5, -0.5, 0.5, -0.5])

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("spin", [0, 1, 2, 3])
    def test_traceless(self, axis, spin):
        op = embed_spin_operator(four_spin(), spin, axis)
        assert abs(np.trace(op)) < 1e-14

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("spin", [0, 1, 2, 3])
    def test_matches_kronecker_product(self, axis, spin):
        op = embed_spin_operator(four_spin(), spin, axis)
        assert np.max(np.abs(op - kron_spin_operator(4, spin, axis))) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embed_spin_operator(two_spin(), 2, "z")

    def test_same_spin_commutator_algebra(self):
        sys4 = four_spin()
        for i in range(4):
            ix = embed_spin_operator(sys4, i, "x")
            iy = embed_spin_operator(sys4, i, "y")
            iz = embed_spin_operator(sys4, i, "z")
            assert np.max(np.abs(ix @ iy - iy @ ix - 1j * iz)) < 1e-12

    def test_distinct_spins_commute(self):
        sys4 = four_spin()
        for i in range(4):
            for j in range(i + 1, 4):
                a = embed_spin_operator(sys4, i, "x")
                b = embed_spin_operator(sys4, j, "y")
                assert np.max(np.abs(a @ b - b @ a)) < 1e-12


class TestPairBasis:
    # local ket order is (uu, ud, du, dd)
    def test_phi_plus_coefficients(self):
        b = PAIR_BASIS
        # 1/2 on each of ud, du, uu, dd
        assert np.allclose(b.phi_plus, [0.5, 0.5, 0.5, 0.5])

    def test_phi_0_coefficients(self):
        b = PAIR_BASIS
        assert np.allclose(b.phi_0, [1 / SQRT2, 0.0, 0.0, -1 / SQRT2])

    def test_singlet_and_triplet_labels(self):
        b = PAIR_BASIS
        assert np.allclose(b.s0, [0.0, 1 / SQRT2, -1 / SQRT2, 0.0])
        # T- is the all-up state, T+ the all-down state
        assert np.allclose(b.t_minus, [1, 0, 0, 0])
        assert np.allclose(b.t_plus, [0, 0, 0, 1])

    def test_phi_s_equals_s0(self):
        b = PAIR_BASIS
        assert np.array_equal(b.phi_s, b.s0)

    def test_orthonormal_families(self):
        b = PAIR_BASIS
        for family in ([b.s0, b.t_plus, b.t_0, b.t_minus], [b.phi_plus, b.phi_0, b.phi_s, b.phi_minus]):
            gram = np.array([[u.conj() @ v for v in family] for u in family])
            assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_phi_plus_minus_orthogonal(self):
        b = PAIR_BASIS
        assert abs(b.phi_plus.conj() @ b.phi_minus) < 1e-14

    def test_triplet_transform_is_orthogonal(self):
        # coefficients of (phi+, phi0, phi-) over (T+, T0, T-) form an
        # orthogonal 3x3 matrix on the triplet subspace
        b = PAIR_BASIS
        triplets = [b.t_plus, b.t_0, b.t_minus]
        m = np.array([[t.conj() @ phi for t in triplets] for phi in (b.phi_plus, b.phi_0, b.phi_minus)])
        assert np.max(np.abs(m.imag)) < 1e-14
        assert np.max(np.abs(m.real @ m.real.T - np.eye(3))) < 1e-12

    def test_unassigned_pair(self):
        with pytest.raises(ValueError, match="pair 1 is not assigned"):
            two_spin().pair(1)

    def test_phase_rotation_preserves_norm(self):
        b = PAIR_BASIS
        rotated = rotate_pair_ket_phase(b.phi_plus, 0.7)
        assert abs(np.linalg.norm(rotated) - 1.0) < 1e-12


class TestProjectors:
    def test_trace_counts_identity_dimensions(self):
        p = singlet_projector(four_spin(), 0)
        assert abs(np.trace(p).real - 4.0) < 1e-12

    def test_idempotent(self):
        p = singlet_projector(four_spin(), 1)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-12

    def test_eigenstate_expectation(self):
        sys4 = four_spin()
        b = PAIR_BASIS
        rho = product_state(sys4, [b.s0, b.t_plus])
        assert abs(expectation(rho, singlet_projector(sys4, 0)).real - 1.0) < 1e-12
        assert abs(expectation(rho, singlet_projector(sys4, 1)).real) < 1e-12

    def test_rotational_invariance_of_singlet(self):
        # projector commutes with the pair-total spin components
        sys4 = four_spin()
        p = singlet_projector(sys4, 0)
        a, b = sys4.pairs[0]
        for axis in ("x", "y", "z"):
            total = embed_spin_operator(sys4, a, axis) + embed_spin_operator(sys4, b, axis)
            assert np.max(np.abs(p @ total - total @ p)) < 1e-12

    def test_singlet_plus_triplet_is_pair_identity(self):
        sys4 = four_spin()
        s = singlet_projector(sys4, 0) + triplet_projector(sys4, 0)
        assert np.max(np.abs(s - np.eye(16))) < 1e-12


class TestExpectation:
    def test_maximally_mixed_singlet_population(self):
        sys2 = two_spin()
        rho = np.eye(4, dtype=complex) / 4.0
        assert abs(expectation(rho, singlet_projector(sys2, 0)).real - 0.25) < 1e-12

    def test_identity_observable_gives_unit_trace(self):
        sys2 = two_spin()
        rho = thermal_density(sys2)
        assert abs(expectation(rho, np.eye(4, dtype=complex)) - 1.0) < 1e-12

    def test_singlet_has_zero_total_z(self):
        sys2 = two_spin()
        b = PAIR_BASIS
        rho = pure_state_density(b.s0)
        obs = embed_spin_operator(sys2, 0, "z") + embed_spin_operator(sys2, 1, "z")
        assert abs(expectation(rho, obs)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            expectation(np.eye(4) / 4, np.eye(8))


class TestProductStates:
    def test_pure_double_singlet(self):
        sys4 = four_spin()
        b = PAIR_BASIS
        rho = product_state(sys4, [b.s0, b.s0])
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
        check_density(rho)

    def test_phi_plus_singlet_populations(self):
        sys4 = four_spin()
        b = PAIR_BASIS
        rho = product_state(sys4, [b.phi_plus, b.s0])
        assert abs(expectation(rho, singlet_projector(sys4, 1)).real - 1.0) < 1e-12
        assert abs(expectation(rho, singlet_projector(sys4, 0)).real) < 1e-12

    def test_transfer_superposition_splits_population(self):
        sys4 = four_spin()
        b = PAIR_BASIS
        vec = (
            product_state_vector(sys4, [b.phi_plus, b.s0])
            + product_state_vector(sys4, [b.s0, b.phi_plus])
        ) / SQRT2
        rho = pure_state_density(vec)
        for pair in (0, 1):
            assert abs(expectation(rho, singlet_projector(sys4, pair)).real - 0.5) < 1e-12

    def test_incomplete_coverage_rejected(self):
        sys3 = SpinSystem(np.zeros(3), np.zeros((3, 3)), ((0, 1),))
        b = PAIR_BASIS
        with pytest.raises(ValueError, match="cover"):
            product_state_vector(sys3, [b.s0])

    def test_mixed_triplet_block_is_valid_density(self):
        sys4 = four_spin()
        b = PAIR_BASIS
        rho = pair_product_density(
            sys4, [np.outer(b.s0, b.s0.conj()), maximally_mixed_triplet()]
        )
        check_density(rho)
        assert abs(expectation(rho, singlet_projector(sys4, 1)).real) < 1e-12


class TestStatesAndValidation:
    def test_thermal_state_is_valid_density(self):
        for n in (1, 2, 4):
            system = SpinSystem(np.zeros(n), np.zeros((n, n)), ())
            check_density(thermal_density(system, 1.0))
            check_density(thermal_density(system, -1.0))

    def test_thermal_polarization_range(self):
        with pytest.raises(ValueError, match="polarization"):
            thermal_state(two_spin(), 1.5)

    def test_check_hermitian_returns_the_hermitian_part(self):
        m = np.array([[1.0 + 1e-12j, 2.0 - 1e-11j], [2.0, 3.0]])
        assert np.array_equal(check_hermitian(m), 0.5 * (m + m.conj().T))

    def test_check_hermitian_rejects_a_non_hermitian_matrix(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), tol=1e-9)

    def test_check_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density(np.eye(2, dtype=complex))

    def test_check_density_rejects_negative(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            check_density(rho)

    @staticmethod
    def rotated_density(eigenvalues, seed=3):
        """Q diag(eigenvalues) Q^dagger for a seeded random unitary Q."""
        rng = np.random.default_rng(seed)
        n = len(eigenvalues)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return (q * np.asarray(eigenvalues)) @ q.conj().T

    def test_check_density_rejects_just_past_the_eigenvalue_tolerance(self):
        rho = self.rotated_density([0.6, 0.4 + 2e-10, 0.0, -2e-10])
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-10"):
            check_density(rho)

    def test_check_density_accepts_within_the_eigenvalue_tolerance(self):
        check_density(self.rotated_density([0.6, 0.4 + 5e-11, 0.0, -5e-11]))

    def test_check_density_accepts_a_pure_state_at_d256(self):
        rng = np.random.default_rng(5)
        check_density(pure_state_density(rng.normal(size=256) + 1j * rng.normal(size=256)))

    def test_triplet_amplitudes_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            TripletAmplitudes(1.0, 1.0, 0.0)
        for large in (1e200, -1e200, 1.7e308):  # finite, but their squares overflow
            with pytest.raises(ValueError, match="normalized"):
                TripletAmplitudes(0.0, large, 0.0)
        amp = TripletAmplitudes(0.6, 0.8, 0.0)
        assert abs(triplet_overlap(amp, amp) - 1.0) < 1e-12

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    def test_non_finite_triplet_amplitude_rejected(self, name, value):
        amplitudes = {"alpha": 1.0, "beta": 0.0, "gamma": 0.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TripletAmplitudes(**amplitudes)

"""Core linear-algebra layer: embedding, partial transpose, spectra, state types;
also the dense ladder matrices of the tests' oracle."""

import numpy as np
import pytest

from entcert import (
    Cutoff,
    DensityOperator,
    DimensionError,
    HermiticityError,
    NormalizationError,
    PureState,
    bell_xp_state,
    density_from_pure,
    embed,
    hermitian_eigenvalues,
    partial_transpose_b,
    partial_transpose_matrix,
)
from entcert.algebra import QUADRATURES
from entcert.fock import check_hermitian

from conftest import ladder_ops, lowering_matrix, random_density

SQRT_HALF = 2.0**-0.5


class TestLoweringMatrix:
    """The oracle's single-mode annihilation matrix."""

    def test_single_level_is_zero(self):
        assert np.array_equal(lowering_matrix(1), np.zeros((1, 1)))

    def test_three_levels(self):
        mat = lowering_matrix(3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2)
        assert np.array_equal(mat, expected)

    def test_qubit_truncation(self):
        mat = lowering_matrix(2)
        assert mat[0, 1] == 1.0
        assert np.count_nonzero(mat) == 1


class TestEmbed:
    def test_identity_tensor_identity(self):
        assert np.array_equal(embed(np.eye(2), np.eye(2)), np.eye(4))

    def test_lowering_acts_on_mode_a(self):
        c = Cutoff(2, 2)
        op = embed(lowering_matrix(2), np.eye(2))
        ket_10 = np.zeros(4)
        ket_10[c.index(1, 0)] = 1.0
        out = op @ ket_10
        expected = np.zeros(4)
        expected[c.index(0, 0)] = 1.0
        assert np.allclose(out, expected)

    def test_joint_lowering(self):
        c = Cutoff(2, 2)
        op = embed(lowering_matrix(2), lowering_matrix(2))
        ket_11 = np.zeros(4)
        ket_11[c.index(1, 1)] = 1.0
        out = op @ ket_11
        expected = np.zeros(4)
        expected[c.index(0, 0)] = 1.0
        assert np.allclose(out, expected)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            embed(np.zeros((2, 3)), np.eye(2))


class TestPartialTranspose:
    def test_bell_coherence_block_moves(self):
        c = Cutoff(2, 2)
        rho = density_from_pure(bell_xp_state(SQRT_HALF, SQRT_HALF, c))
        assert rho.entries[c.index(0, 1), c.index(1, 0)] == pytest.approx(0.5)
        assert rho.entries[c.index(0, 0), c.index(1, 1)] == 0.0
        pt = partial_transpose_b(rho)
        assert pt.entries[c.index(0, 0), c.index(1, 1)] == pytest.approx(0.5)
        assert pt.entries[c.index(0, 1), c.index(1, 0)] == 0.0

    def test_diagonal_state_unchanged(self, rng):
        c = Cutoff(3, 4)
        weights = rng.random(c.dim)
        weights /= weights.sum()
        rho = DensityOperator(np.diag(weights.astype(complex)), c)
        assert np.array_equal(partial_transpose_b(rho).entries, rho.entries)

    def test_involution(self, rng):
        c = Cutoff(3, 4)
        rho = random_density(rng, c)
        assert np.allclose(
            partial_transpose_b(partial_transpose_b(rho)).entries, rho.entries, atol=1e-15
        )

    def test_preserves_trace_and_hermiticity(self, rng):
        c = Cutoff(4, 3)
        for _ in range(20):
            rho = random_density(rng, c)
            pt = partial_transpose_b(rho).entries
            assert abs(np.trace(pt) - 1.0) < 1e-12
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12

    def test_linearity(self, rng):
        c = Cutoff(3, 3)
        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        y = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        lhs = partial_transpose_matrix(2.0 * x - 0.5j * y, c)
        rhs = 2.0 * partial_transpose_matrix(x, c) - 0.5j * partial_transpose_matrix(y, c)
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_trace_bridge(self, rng):
        # trace(rho^PT O) == trace(rho O^PT): the step that turns an
        # uncertainty relation on rho^PT into moments of rho.
        c = Cutoff(4, 3)
        for _ in range(20):
            rho = random_density(rng, c)
            op = rng.standard_normal((c.dim, c.dim)) + 1j * rng.standard_normal((c.dim, c.dim))
            lhs = np.trace(partial_transpose_b(rho).entries @ op)
            rhs = np.trace(rho.entries @ partial_transpose_matrix(op, c))
            assert abs(lhs - rhs) < 1e-12


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(5)), np.ones(5))

    def test_bell_pt_spectrum_equal_weights(self):
        c = Cutoff(2, 2)
        rho = density_from_pure(bell_xp_state(SQRT_HALF, SQRT_HALF, c))
        eigs = hermitian_eigenvalues(partial_transpose_b(rho).entries)
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_bell_pt_spectrum_unequal_weights(self):
        c = Cutoff(2, 2)
        rho = density_from_pure(bell_xp_state(0.6, 0.8, c))
        eigs = hermitian_eigenvalues(partial_transpose_b(rho).entries)
        assert np.allclose(eigs, [-0.48, 0.36, 0.48, 0.64], atol=1e-12)

    def test_ascending_order(self, rng):
        c = Cutoff(3, 3)
        eigs = hermitian_eigenvalues(random_density(rng, c).entries)
        assert np.all(np.diff(eigs) >= 0)

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(HermiticityError):
            hermitian_eigenvalues(mat)

    def test_rejects_nan(self):
        mat = np.eye(3, dtype=complex)
        mat[1, 1] = np.nan
        with pytest.raises(HermiticityError, match="nan"):
            hermitian_eigenvalues(mat)

    def test_density_spectrum_is_physical(self, rng):
        c = Cutoff(3, 4)
        for _ in range(10):
            eigs = hermitian_eigenvalues(random_density(rng, c).entries)
            assert eigs.min() >= -1e-10
            assert abs(eigs.sum() - 1.0) < 1e-10


class TestCheckHermitian:
    @staticmethod
    def _passes(mat, tol):
        try:
            check_hermitian(mat, tol, "matrix")
        except HermiticityError:
            return False
        return True

    @pytest.mark.parametrize("n", [4, 144, 300])
    def test_blocks_find_the_whole_matrix_defect_exactly(self, rng, n):
        # 300 rows make several blocks, the last one short.  The check passes
        # at the whole-matrix defect and fails one float below it.
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = mat + mat.conj().T
        herm[n - 1, 0] += 1e-9
        for m in (mat, herm):
            defect = float(np.max(np.abs(m - m.conj().T)))
            assert self._passes(m, defect)
            assert not self._passes(m, np.nextafter(defect, 0.0))

    @pytest.mark.parametrize("k", [0, 150, 299])
    def test_nan_in_any_block_fails(self, k):
        mat = np.eye(300, dtype=complex)
        mat[k, k] = np.nan
        with pytest.raises(HermiticityError, match="defect nan"):
            check_hermitian(mat, 1.0, "matrix")


class TestExpectation:
    """Moments taken as trace(rho @ op) with the oracle's joint ladder matrices."""

    def test_identity_gives_unit_trace(self, rng):
        c = Cutoff(3, 3)
        rho = random_density(rng, c)
        assert np.trace(rho.entries @ ladder_ops(c)["id"]) == pytest.approx(1.0)

    def test_number_operator_on_one_photon(self):
        c = Cutoff(2, 2)
        rho = density_from_pure(bell_xp_state(1.0, 0.0, c))
        ops = ladder_ops(c)
        assert np.trace(rho.entries @ ops["ad"] @ ops["a"]) == pytest.approx(1.0)

    def test_mode_exchange_moment_on_bell(self):
        c = Cutoff(2, 2)
        rho = density_from_pure(bell_xp_state(SQRT_HALF, SQRT_HALF, c))
        ops = ladder_ops(c)
        assert np.trace(rho.entries @ ops["ad"] @ ops["b"]) == pytest.approx(0.5)


class TestCommutatorTruncation:
    def test_defect_confined_to_last_level(self):
        # [x, p] equals i*identity except at the top level, where the
        # truncated raising operator loses the step out of the basis.
        for d in (2, 3, 5, 9):
            low = lowering_matrix(d)
            x = (low + low.conj().T) * SQRT_HALF
            p = (low - low.conj().T) * (SQRT_HALF / 1j)
            comm = x @ p - p @ x
            off_diag = comm - np.diag(np.diag(comm))
            assert np.max(np.abs(off_diag)) == 0.0
            assert np.allclose(np.diag(comm)[: d - 1], 1j, atol=1e-12)
            assert np.diag(comm)[d - 1] == pytest.approx(-1j * (d - 1), abs=1e-12)


class TestStateTypes:
    def test_pure_state_requires_norm(self):
        c = Cutoff(2, 2)
        with pytest.raises(NormalizationError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]), c)

    def test_density_requires_hermitian(self):
        c = Cutoff(2, 2)
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 0.5
        with pytest.raises(HermiticityError):
            DensityOperator(mat, c)

    def test_pure_state_rejects_nan_amplitudes(self):
        amps = np.array([1.0, 0.0, 0.0, np.nan])
        with pytest.raises(NormalizationError, match="nan"):
            PureState(amps, Cutoff(2, 2))

    def test_density_rejects_nan_matrix(self):
        with pytest.raises(HermiticityError, match="nan"):
            DensityOperator(np.full((4, 4), np.nan, dtype=complex), Cutoff(2, 2))

    def test_density_rejects_infinite_entries_without_warning(self):
        # inf - inf in the Hermiticity defect is a NaN, which fails the check.
        with pytest.raises(HermiticityError, match="nan"):
            DensityOperator(np.diag([np.inf, 1.0, 1.0, -np.inf]), Cutoff(2, 2))

    def test_density_requires_unit_trace(self):
        c = Cutoff(2, 2)
        with pytest.raises(NormalizationError):
            DensityOperator(np.eye(4, dtype=complex), c)

    def test_cutoff_minimum(self):
        with pytest.raises(DimensionError):
            Cutoff(1, 3)

    def test_quadrature_convention_vacuum_variance(self):
        # Sanity link between the quadrature table and the matrices used here.
        assert set(QUADRATURES) == {"xa", "pa", "xb", "pb"}

    def test_states_compare_and_hash_by_identity(self):
        # Equal amplitudes do not make equal states: comparison and hashing
        # go by identity, never through the ndarray fields.
        c = Cutoff(3, 3)
        psi = bell_xp_state(SQRT_HALF, SQRT_HALF, c)
        twin = bell_xp_state(SQRT_HALF, SQRT_HALF, c)
        rho, rho_twin = density_from_pure(psi), density_from_pure(psi)
        assert psi == psi and rho == rho
        assert psi != twin and rho != rho_twin and psi != rho
        assert len({psi, twin, rho, rho_twin, psi}) == 4
        assert {psi: 1}[psi] == 1


class TestReadOnlyArrays:
    def test_pure_amplitudes_read_only(self):
        psi = bell_xp_state(0.6, 0.8, Cutoff(2, 2))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0
        with pytest.raises(ValueError):
            psi.grid[0, 0] = 1.0

    def test_density_entries_read_only(self):
        rho = density_from_pure(bell_xp_state(0.6, 0.8, Cutoff(2, 2)))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_constructors_do_not_alias_input(self):
        c = Cutoff(2, 2)
        vec = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
        psi = PureState(vec, c)
        vec[0] = 5.0
        assert psi.amplitudes[0] == 0.6
        mat = np.eye(4, dtype=complex) / 4.0
        rho = DensityOperator(mat, c)
        mat[0, 0] = 5.0
        assert rho.entries[0, 0] == 0.25

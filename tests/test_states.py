"""State constructors: supports, truncation accounting, normalization."""

import tracemalloc

import numpy as np
import pytest

from entcert import (
    Cutoff,
    DegenerateStateError,
    DimensionError,
    NormalizationError,
    TruncationError,
    bell_closed_forms,
    bell_xp_state,
    density_from_pure,
    photon_subtracted_tmsv,
    product_coherent,
    two_mode_squeezed_vacuum,
)
from entcert.states import _DENSITY_MATRICES_HELD

from conftest import lowering_matrix, random_bell_params, word_matrix

SQRT_HALF = 2.0**-0.5
NAN = float("nan")


class TestBellState:
    def test_single_mode_excitation(self):
        c = Cutoff(2, 2)
        psi = bell_xp_state(1.0, 0.0, c)
        assert psi.amplitude(1, 0) == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_equal_weights(self):
        c = Cutoff(3, 3)
        psi = bell_xp_state(SQRT_HALF, SQRT_HALF, c)
        assert psi.amplitude(1, 0) == pytest.approx(SQRT_HALF)
        assert psi.amplitude(0, 1) == pytest.approx(SQRT_HALF)

    def test_complex_weights(self):
        c = Cutoff(2, 2)
        psi = bell_xp_state(0.6, 0.8j, c)
        assert psi.amplitude(1, 0) == 0.6
        assert psi.amplitude(0, 1) == 0.8j

    def test_support_is_exactly_two_basis_states(self, rng):
        for d_a, d_b in [(2, 2), (3, 5), (7, 4)]:
            c = Cutoff(d_a, d_b)
            alpha, beta = random_bell_params(rng)
            psi = bell_xp_state(alpha, beta, c)
            mask = np.zeros(c.dim, dtype=bool)
            mask[c.index(1, 0)] = mask[c.index(0, 1)] = True
            assert np.all(psi.amplitudes[~mask] == 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            bell_xp_state(1.0, 1.0, Cutoff(2, 2))

    @pytest.mark.parametrize("alpha, beta", [(NAN, 0.0), (1.0, complex("nan")), (NAN, NAN)])
    def test_rejects_nan_weights(self, alpha, beta):
        # The state and its closed forms share one check, which NaN fails.
        with pytest.raises(NormalizationError, match="nan"):
            bell_xp_state(alpha, beta, Cutoff(2, 2))
        with pytest.raises(NormalizationError, match="nan"):
            bell_closed_forms(alpha, beta)

    @pytest.mark.parametrize("alpha", [1e200, complex(1.7e308, 1.7e308)])
    def test_overflowing_weight_is_refused_without_warning(self, alpha):
        # |alpha|^2 overflowed with a numpy RuntimeWarning before the refusal.
        with pytest.raises(NormalizationError, match="= inf"):
            bell_xp_state(alpha, 0.0, Cutoff(2, 2))
        with pytest.raises(NormalizationError, match="= inf"):
            bell_closed_forms(alpha, 0.0)

    def test_global_phase_invariance(self, rng):
        c = Cutoff(3, 3)
        for _ in range(10):
            alpha, beta = random_bell_params(rng)
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            rho1 = density_from_pure(bell_xp_state(alpha, beta, c)).entries
            rho2 = density_from_pure(bell_xp_state(phase * alpha, phase * beta, c)).entries
            assert np.max(np.abs(rho1 - rho2)) < 1e-12


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        c = Cutoff(4, 4)
        psi, report = two_mode_squeezed_vacuum(0.0, np.pi, c)
        assert psi.amplitude(0, 0) == pytest.approx(1.0)
        assert report.kept_weight == pytest.approx(1.0)

    def test_kept_weight_r_half(self):
        psi, report = two_mode_squeezed_vacuum(0.5, np.pi, Cutoff(12, 12))
        assert report.kept_weight >= 1.0 - 1e-8
        # closed form: kept = 1 - tanh(r)^(2 N)
        assert report.kept_weight == pytest.approx(1.0 - np.tanh(0.5) ** 24, abs=1e-15)

    def test_schmidt_ratio_is_tanh_r(self):
        r, phi = 0.5, np.pi
        psi, _ = two_mode_squeezed_vacuum(r, phi, Cutoff(12, 12))
        # renormalization preserves amplitude ratios
        for n in range(11):
            ratio = psi.amplitude(n + 1, n + 1) / psi.amplitude(n, n)
            assert abs(ratio) == pytest.approx(np.tanh(r), abs=1e-13)
            assert ratio.real == pytest.approx(-abs(ratio), abs=1e-13)  # phase e^{i pi}

    def test_support_is_diagonal(self):
        c = Cutoff(8, 8)
        psi, _ = two_mode_squeezed_vacuum(0.3, 0.7, c)
        for n_a in range(8):
            for n_b in range(8):
                if n_a != n_b:
                    assert psi.amplitude(n_a, n_b) == 0.0

    def test_truncation_error_raised(self):
        with pytest.raises(TruncationError):
            two_mode_squeezed_vacuum(2.0, np.pi, Cutoff(4, 4))

    def test_kept_weight_matches_pre_normalization_norm(self):
        r, phi, c = 0.4, 1.1, Cutoff(10, 10)
        psi, report = two_mode_squeezed_vacuum(r, phi, c)
        lam = np.exp(1j * phi) * np.tanh(r)
        raw = np.array([lam**n for n in range(10)]) / np.cosh(r)
        assert report.kept_weight == pytest.approx(float(np.sum(np.abs(raw) ** 2)), abs=1e-15)
        rebuilt = raw / np.linalg.norm(raw)
        for n in range(10):
            assert psi.amplitude(n, n) == pytest.approx(rebuilt[n], abs=1e-14)

    @pytest.mark.parametrize("r, phi", [(NAN, 0.0), (0.3, NAN), (NAN, NAN)])
    def test_nan_parameters_fail_tolerance(self, r, phi):
        with pytest.raises(TruncationError, match="keeps only nan"):
            two_mode_squeezed_vacuum(r, phi, Cutoff(4, 4))

    @pytest.mark.parametrize("maker", [two_mode_squeezed_vacuum, photon_subtracted_tmsv])
    def test_infinite_phase_refused_before_numpy(self, maker):
        # Runs under error::RuntimeWarning: exp(1j * inf) would warn first.
        with pytest.raises(ValueError, match="phi must be finite"):
            maker(0.3, float("inf"), Cutoff(6, 6))

    @pytest.mark.parametrize("r", [711.0, 800.0, 1e6])
    def test_large_squeezing_fails_tolerance_without_overflow(self, r):
        # sech(r) underflows to 0 here; 1 / cosh(r) overflowed cosh past r ~ 710.
        with pytest.raises(TruncationError, match="keeps only 0.000000000000"):
            two_mode_squeezed_vacuum(r, 0.0, Cutoff(12, 12))


class TestPhotonSubtractedTmsv:
    def test_zero_squeezing_degenerates(self):
        with pytest.raises(DegenerateStateError):
            photon_subtracted_tmsv(0.0, np.pi, Cutoff(8, 8))

    def test_matches_numeric_subtraction(self):
        r, phi, c = 0.5, np.pi, Cutoff(20, 20)
        tmsv, _ = two_mode_squeezed_vacuum(r, phi, c)
        joint_lower = np.kron(lowering_matrix(20), lowering_matrix(20))
        expected = joint_lower @ tmsv.amplitudes
        expected /= np.linalg.norm(expected)
        psi, _ = photon_subtracted_tmsv(r, phi, c)
        assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12

    @pytest.mark.parametrize(
        "r, phi, d_a, d_b",
        [(0.5, np.pi, 20, 20), (0.3, 1.2, 16, 18), (0.2, -0.4, 14, 12), (0.6, 0.0, 8, 6)],
    )
    def test_matches_joint_lowering_of_raw_tmsv(self, r, phi, d_a, d_b):
        # The old construction: apply the dense a (x) b to the unnormalized
        # truncated TMSV amplitudes sech(r) (e^{i phi} tanh r)^n on |n,n>.
        c = Cutoff(d_a, d_b)
        lam = np.exp(1j * phi) * np.tanh(r)
        raw = np.zeros(c.dim, dtype=complex)
        for n in range(min(d_a, d_b)):
            raw[c.index(n, n)] = lam**n / np.cosh(r)
        sub = word_matrix(["a", "b"], c) @ raw
        t2 = np.tanh(r) ** 2
        kept = np.vdot(sub, sub).real / (t2 * (1.0 + t2) / (1.0 - t2) ** 2)
        psi, report = photon_subtracted_tmsv(r, phi, c, trunc_tol=0.5)
        assert np.max(np.abs(psi.amplitudes - sub / np.linalg.norm(sub))) < 1e-14
        assert abs(report.kept_weight - kept) < 1e-14

    def test_tiny_squeezing_tends_to_vacuum(self):
        # tanh(r)^2 underflows here; the kept weight was 0/0 and the state zero.
        psi, report = photon_subtracted_tmsv(1e-170, 0.0, Cutoff(12, 12))
        assert report.kept_weight == 1.0
        assert psi.amplitude(0, 0) == 1.0
        assert np.linalg.norm(psi.amplitudes[1:]) < 1e-150

    def test_saturated_squeezing_fails_tolerance(self):
        # tanh(30) rounds to 1, so the exact norm's 1 - tanh^2 is zero.
        with pytest.raises(TruncationError, match="keeps only 0.000000000000"):
            photon_subtracted_tmsv(30.0, 0.0, Cutoff(12, 12))

    def test_nan_kept_weight_fails_tolerance(self):
        with pytest.raises(TruncationError, match="keeps only nan"):
            photon_subtracted_tmsv(float("nan"), 0.0, Cutoff(12, 12))

    def test_output_normalized(self):
        psi, _ = photon_subtracted_tmsv(0.3, np.pi, Cutoff(16, 16))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_kept_weight_needs_more_levels_than_tmsv(self):
        # subtraction tilts the distribution to higher photon numbers
        _, plain = two_mode_squeezed_vacuum(0.5, np.pi, Cutoff(12, 12))
        assert plain.kept_weight >= 1.0 - 1e-8
        with pytest.raises(TruncationError):
            photon_subtracted_tmsv(0.5, np.pi, Cutoff(12, 12))
        _, subtracted = photon_subtracted_tmsv(0.5, np.pi, Cutoff(20, 20))
        assert subtracted.kept_weight >= 1.0 - 1e-8


class TestProductCoherent:
    def test_vacuum(self):
        psi, report = product_coherent(0.0, 0.0, Cutoff(3, 3))
        assert psi.amplitude(0, 0) == pytest.approx(1.0)
        assert report.kept_weight == pytest.approx(1.0)

    def test_kept_weight_poisson_tail(self):
        psi, report = product_coherent(1.0, 0.0, Cutoff(16, 2))
        assert report.kept_weight >= 1.0 - 1e-8

    def test_amplitudes_match_poisson(self):
        alpha = 0.7 + 0.2j
        c = Cutoff(14, 3)
        psi, _ = product_coherent(alpha, 0.0, c)
        from math import factorial

        for n in range(5):
            expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(factorial(n))
            assert psi.amplitude(n, 0) == pytest.approx(expected, abs=1e-10)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            product_coherent(3.0, 0.0, Cutoff(4, 4))

    @pytest.mark.parametrize("alpha", [37.6, 38.0, 38.5, 39 + 10j, 40j])
    def test_large_amplitude_keeps_its_weight(self, alpha):
        # e^{-|alpha|^2/2} lost bits past |alpha| = 37.6, so 38.5 kept a
        # weight of 1.035, and was 0 past 38.6, so no weight was kept.
        psi, report = product_coherent(alpha, 0.0, Cutoff(1900, 2))
        assert report.kept_weight == pytest.approx(1.0, abs=1e-10)
        grid = psi.grid
        mean_a = np.vdot(grid[:-1, 0], np.sqrt(np.arange(1, 1900)) * grid[1:, 0])
        assert mean_a == pytest.approx(alpha, rel=1e-10)

    @pytest.mark.parametrize(
        "alpha_a, alpha_b", [(1e200, 0.0), (0.0, complex(1e308, 1e308)), (complex(0, 1.7e308), 0.0)]
    )
    def test_amplitude_whose_square_overflows_keeps_no_weight(self, alpha_a, alpha_b):
        # abs(alpha) ** 2 raised OverflowError.
        with pytest.raises(TruncationError, match="keeps only 0.000000000000 "):
            product_coherent(alpha_a, alpha_b, Cutoff(4, 4))

    @pytest.mark.parametrize(
        "alpha_a, alpha_b", [(complex("inf"), 0.0), (0.0, complex(0, -float("inf")))]
    )
    def test_infinite_amplitude_refused_before_numpy(self, alpha_a, alpha_b):
        with pytest.raises(ValueError, match="must be finite"):
            product_coherent(alpha_a, alpha_b, Cutoff(6, 6))

    @pytest.mark.parametrize("alpha_a, alpha_b", [(complex("nan"), 0.5), (0.5, NAN)])
    def test_nan_amplitude_fails_tolerance(self, alpha_a, alpha_b):
        with pytest.raises(TruncationError, match="keeps only nan"):
            product_coherent(alpha_a, alpha_b, Cutoff(6, 6))


class TestDensityFromPure:
    def test_vacuum_projector(self):
        c = Cutoff(2, 2)
        psi, _ = product_coherent(0.0, 0.0, c)
        rho = density_from_pure(psi)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(rho.entries, expected)

    @pytest.mark.parametrize("d", [20, 30])
    def test_peak_memory_is_about_two_matrices(self, d):
        # The outer product and its read-only copy; the Hermiticity check
        # works a block of rows at a time, so it adds no full-size temporary.
        psi, _ = two_mode_squeezed_vacuum(0.3, 0.0, Cutoff(d, d))
        matrix_bytes = np.dtype(complex).itemsize * (d * d) ** 2
        tracemalloc.start()
        try:
            density_from_pure(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * matrix_bytes
        assert peak < _DENSITY_MATRICES_HELD * matrix_bytes

    def test_bell_density_structure(self):
        c = Cutoff(2, 2)
        rho = density_from_pure(bell_xp_state(SQRT_HALF, SQRT_HALF, c)).entries
        k10, k01 = c.index(1, 0), c.index(0, 1)
        assert rho[k10, k10] == pytest.approx(0.5)
        assert rho[k01, k01] == pytest.approx(0.5)
        assert rho[k01, k10] == pytest.approx(0.5)  # alpha* beta coherence
        assert rho[k10, k01] == pytest.approx(0.5)

    def test_unit_trace_and_rank_one(self, rng):
        c = Cutoff(3, 4)
        vec = rng.standard_normal(c.dim) + 1j * rng.standard_normal(c.dim)
        vec /= np.linalg.norm(vec)
        from entcert import PureState

        rho = density_from_pure(PureState(vec, c))
        assert np.trace(rho.entries) == pytest.approx(1.0)
        eigs = np.linalg.eigvalsh(rho.entries)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(eigs[:-1])) < 1e-12

    def test_refuses_beyond_physical_memory_unallocated(self):
        # 1000x1000 levels: a 16 MB amplitude vector, but about 16 TB per
        # dense matrix, so the refusal must come before np.outer.
        psi = bell_xp_state(SQRT_HALF, SQRT_HALF, Cutoff(1000, 1000))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="1000x1000 density operator needs about"):
                density_from_pure(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

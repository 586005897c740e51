"""Witness behavior: paper values on the Bell family, soundness, identities."""

from dataclasses import asdict

import numpy as np
import pytest

from entcert import (
    CriterionReport,
    Cutoff,
    NormalizationError,
    bell_closed_forms,
    bell_xp_state,
    density_from_pure,
    duan_mancini_relation,
    duan_witness,
    expectation_poly,
    mancini_witness,
    partial_transpose_b,
    ppt_witness,
    product_coherent,
    su2_pt_witness,
    su11_pt_witness,
    two_mode_squeezed_vacuum,
)
from entcert import fock
from entcert.criteria import BUILTIN_OPERATORS, DETECTION_MARGIN, fires
from entcert.dsl import evaluate_text

from conftest import random_bell_params, random_density

SQRT_HALF = 2.0**-0.5


def bell_rho(alpha, beta, d=3):
    return density_from_pure(bell_xp_state(alpha, beta, Cutoff(d, d)))


@pytest.fixture
def vacuum():
    return density_from_pure(product_coherent(0.0, 0.0, Cutoff(4, 4))[0])


class TestVerdictRule:
    @pytest.mark.parametrize(
        "lhs, bound, fired",
        [
            (1.0, 1.0, False),
            (1.0 - DETECTION_MARGIN, 1.0, False),
            (1.0 - 2.0 * DETECTION_MARGIN, 1.0, True),
            (-DETECTION_MARGIN, 0.0, False),
            (-2.0 * DETECTION_MARGIN, 0.0, True),
            # Past size 1 the margin scales with max(|lhs|, |bound|).
            (1e6 - 0.5e6 * DETECTION_MARGIN, 1e6, False),
            (1e6 - 2e6 * DETECTION_MARGIN, 1e6, True),
            (-1e6, -1e6 + 0.5e6 * DETECTION_MARGIN, False),
            (-1e6, -1e6 + 2e6 * DETECTION_MARGIN, True),
        ],
    )
    def test_fires_only_past_the_margin(self, lhs, bound, fired):
        assert fires(lhs, bound) is fired

    def test_rule_lives_in_fock_and_is_read_through_criteria(self):
        assert fires is fock.fires and DETECTION_MARGIN == fock.DETECTION_MARGIN == fock.TOL_PSD

    @pytest.mark.parametrize("lhs", ["1", "1 - 1e-10", "1 - 3e-10", "1 + 1e-10"])
    def test_dsl_comparisons_follow_the_rule(self, vacuum, lhs):
        # "<" holds exactly when the rule fires, ">=" exactly when it does not.
        below = evaluate_text(f"{lhs} < 1", vacuum)
        at_least = evaluate_text(f"{lhs} >= 1", vacuum)
        assert below.holds is fires(below.lhs, 1.0)
        assert at_least.holds is not fires(at_least.lhs, 1.0)
        assert below.holds is (lhs == "1 - 3e-10")

    def test_real_part_allows_1e_10_of_at_least_one(self):
        from entcert.criteria import _real

        with pytest.raises(ValueError, match="should be real"):
            _real(1 + 1e-6j, "bracket")
        with pytest.raises(ValueError, match="should be real"):
            _real(1e-3 + 1e-9j, "bracket")
        assert _real(1 + 1e-11j, "bracket") == 1.0
        assert _real(1e-3 + 1e-11j, "bracket") == 1e-3

    def test_bound_holds_is_derived_from_the_verdict(self):
        assert CriterionReport("x").separable_bound_holds is True
        assert CriterionReport("x", entangled_detected=True).separable_bound_holds is False
        with pytest.raises(TypeError):
            CriterionReport("x", separable_bound_holds=False)
        assert list(asdict(CriterionReport("x"))) == [
            "name",
            "quantities",
            "separable_bound_holds",
            "entangled_detected",
            "conventions",
        ]


class TestMancini:
    def test_vacuum_saturates(self, vacuum):
        report = mancini_witness(vacuum)
        assert report.quantities["M_x"] == pytest.approx(1.0)
        assert report.quantities["stddev_product_normalized"] == pytest.approx(0.5)
        assert report.separable_bound_holds
        assert not report.entangled_detected

    def test_bell_equal_weights(self):
        report = mancini_witness(bell_rho(SQRT_HALF, SQRT_HALF))
        assert report.quantities["M_x"] == pytest.approx(3.0)
        assert not report.entangled_detected

    def test_bell_orthogonal_phases(self):
        report = mancini_witness(bell_rho(SQRT_HALF, 1j * SQRT_HALF))
        assert report.quantities["M_x"] == pytest.approx(4.0)

    def test_factor_four_between_normalizations(self, rng):
        alpha, beta = random_bell_params(rng)
        report = mancini_witness(bell_rho(alpha, beta))
        assert report.quantities["M_x"] == pytest.approx(
            4.0 * report.quantities["stddev_product_normalized"] ** 2
        )


class TestDuan:
    def test_bell_m1_never_detects(self, rng):
        for _ in range(10):
            alpha, beta = random_bell_params(rng)
            report = duan_witness(bell_rho(alpha, beta), 1.0)
            assert report.quantities["M"] == pytest.approx(4.0)
            assert not report.entangled_detected

    def test_bell_closed_form_gain_two(self):
        report = duan_witness(bell_rho(1.0, 0.0), 2.0)
        assert report.quantities["M"] == pytest.approx(12.25)

    def test_tmsv_detection(self):
        psi, _ = two_mode_squeezed_vacuum(0.5, np.pi, Cutoff(12, 12))
        report = duan_witness(density_from_pure(psi), 1.0)
        assert report.quantities["M"] == pytest.approx(2.0 * np.exp(-1.0), abs=1e-4)
        assert report.entangled_detected

    def test_zero_gain_rejected(self, vacuum):
        with pytest.raises(ValueError):
            duan_witness(vacuum, 0.0)

    @pytest.mark.parametrize("m", [1e-200, 1e200])
    def test_rejects_gain_whose_bound_is_not_finite(self, vacuum, m):
        # m*m underflowed to 0 (ZeroDivisionError), or overflowed and
        # reported M as nan against an infinite bound.
        with pytest.raises(ValueError, match="finite bound"):
            duan_witness(vacuum, m)
        with pytest.raises(ValueError, match="finite bound"):
            bell_closed_forms(1.0, 0.0, m)

    def test_rejects_non_finite_m_in_any_row(self):
        # The bound 1e308 is finite; M overflows on |0,1> alone.
        m = 1e-154
        assert duan_witness(bell_xp_state(1.0, 0.0, Cutoff(3, 3)), m).quantities["M"] == 1e308
        batch = bell_xp_state([1.0, 0.0], [0.0, 1.0], Cutoff(3, 3))
        with pytest.raises(ValueError, match="Duan M at gain m=1e-154 is inf, not finite"):
            duan_witness(batch, m)
        with pytest.raises(ValueError, match="M_closed at gain m=1e-154 is inf, not finite"):
            bell_closed_forms([1.0, 0.0], [0.0, 1.0], m)

    def test_heisenberg_floor_reported(self, vacuum):
        report = duan_witness(vacuum, 2.0)
        assert report.quantities["heisenberg_floor"] == pytest.approx(3.75)
        assert report.quantities["M"] >= report.quantities["heisenberg_floor"]


class TestDuanManciniRelation:
    def test_vacuum(self, vacuum):
        m_sum, m_minus, m_x = duan_mancini_relation(vacuum)
        assert m_sum == pytest.approx(2.0)
        assert m_minus == pytest.approx(0.0)
        assert m_x == pytest.approx(1.0)

    def test_bell_equal_weights(self):
        m_sum, m_minus, m_x = duan_mancini_relation(bell_rho(SQRT_HALF, SQRT_HALF))
        assert m_sum == pytest.approx(4.0)
        assert m_x == pytest.approx(3.0)
        assert m_minus**2 == pytest.approx(4.0)

    def test_identity_on_random_states(self, rng):
        c = Cutoff(4, 4)
        for _ in range(25):
            rho = random_density(rng, c)
            m_sum, m_minus, m_x = duan_mancini_relation(rho)
            assert m_sum**2 == pytest.approx(m_minus**2 + 4.0 * m_x, abs=1e-10)

    def test_reads_mancini_report(self, rng):
        rho = random_density(rng, Cutoff(4, 4))
        q = mancini_witness(rho).quantities
        assert duan_mancini_relation(rho) == (
            q["var_u"] + q["var_v"],
            q["var_u"] - q["var_v"],
            q["M_x"],
        )

    def test_hierarchy_mancini_implies_duan(self, rng):
        # M_x >= 1 forces M >= 2, so the product test dominates the sum test
        c = Cutoff(4, 4)
        for _ in range(25):
            rho = random_density(rng, c)
            m_sum, _, m_x = duan_mancini_relation(rho)
            if m_x >= 1.0:
                assert m_sum >= 2.0 - 1e-12


class TestSu2PtWitness:
    def test_bell_equal_weights_no_detection(self):
        report = su2_pt_witness(bell_rho(SQRT_HALF, SQRT_HALF))
        assert report.quantities["rhs"] == pytest.approx(0.0)
        assert report.quantities["lhs"] == pytest.approx(1.0)
        assert report.separable_bound_holds

    def test_vacuum_bound_holds(self, vacuum):
        report = su2_pt_witness(vacuum)
        assert report.quantities["rhs"] == pytest.approx(0.0)
        assert not report.entangled_detected

    def test_bell_unequal_weights(self):
        report = su2_pt_witness(bell_rho(0.6, 0.8))
        assert report.quantities["rhs"] == pytest.approx(0.0784)
        assert not report.entangled_detected

    def test_brackets_are_pt_variances(self, rng):
        # each bracket equals 4 Var of the transposed S component
        s_x = BUILTIN_OPERATORS["S_x"][0]
        s_y = BUILTIN_OPERATORS["S_y"][0]
        c = Cutoff(6, 6)
        for _ in range(10):
            rho = random_density(rng, c, levels_a=3, levels_b=3)
            report = su2_pt_witness(rho)
            pt = partial_transpose_b(rho)
            for poly, key in ((s_x, "bracket1"), (s_y, "bracket2")):
                mean = expectation_poly(pt, poly)
                second = expectation_poly(pt, poly * poly)
                var_pt = (second - mean * mean).real
                assert report.quantities[key] == pytest.approx(4.0 * var_pt, abs=1e-10)


class TestSu11PtWitness:
    def test_bell_equal_weights_detects(self):
        report = su11_pt_witness(bell_rho(SQRT_HALF, SQRT_HALF))
        assert report.entangled_detected
        assert report.quantities["lhs"] == pytest.approx(2.0)
        assert report.quantities["rhs"] == pytest.approx(4.0)

    def test_product_boundary_no_detection(self):
        for alpha, beta in ((1.0, 0.0), (0.0, 1.0)):
            report = su11_pt_witness(bell_rho(alpha, beta))
            assert not report.entangled_detected
            assert report.quantities["lhs"] == pytest.approx(report.quantities["rhs"])

    def test_phase_pi_quarter_detects(self):
        alpha = np.exp(1j * np.pi / 4) * SQRT_HALF
        report = su11_pt_witness(bell_rho(alpha, SQRT_HALF))
        reduced = bell_closed_forms(alpha, SQRT_HALF)["su11_reduced"]
        assert reduced == pytest.approx(7.0 / 32.0)
        assert report.entangled_detected
        # margin scale fixed by the closed form: lhs - rhs = -8 * reduced
        assert report.quantities["lhs"] - report.quantities["rhs"] == pytest.approx(
            -8.0 * reduced
        )

    def test_modes_agree(self, rng):
        c = Cutoff(4, 4)
        for _ in range(20):
            rho = random_density(rng, c)
            ladder = su11_pt_witness(rho, "ladder")
            quad = su11_pt_witness(rho, "quadrature")
            assert ladder.quantities["lhs"] == pytest.approx(
                quad.quantities["lhs"], abs=1e-10
            )
            assert ladder.quantities["rhs"] == pytest.approx(
                quad.quantities["rhs"], abs=1e-10
            )

    def test_brackets_are_pt_variances(self, rng):
        k_x = BUILTIN_OPERATORS["K_x"][0]
        k_y = BUILTIN_OPERATORS["K_y"][0]
        c = Cutoff(6, 6)
        for _ in range(10):
            rho = random_density(rng, c, levels_a=3, levels_b=3)
            pt = partial_transpose_b(rho)
            for mode in ("ladder", "quadrature"):
                report = su11_pt_witness(rho, mode)
                for poly, key in ((k_x, "bracket1"), (k_y, "bracket2")):
                    mean = expectation_poly(pt, poly)
                    second = expectation_poly(pt, poly * poly)
                    var_pt = (second - mean * mean).real
                    assert report.quantities[key] == pytest.approx(4.0 * var_pt, abs=1e-10), mode

    def test_invalid_mode(self, vacuum):
        with pytest.raises(ValueError):
            su11_pt_witness(vacuum, "spherical")


class TestPptWitness:
    def test_bell_equal_weights(self):
        report = ppt_witness(bell_rho(SQRT_HALF, SQRT_HALF, d=2))
        assert report.quantities["min_eigenvalue"] == pytest.approx(-0.5)
        assert report.quantities["negativity"] == pytest.approx(0.5)
        assert report.entangled_detected

    def test_bell_unequal_weights(self):
        report = ppt_witness(bell_rho(0.6, 0.8, d=2))
        assert report.quantities["min_eigenvalue"] == pytest.approx(-0.48)

    def test_coherent_product_not_flagged(self):
        psi, _ = product_coherent(1.0, 0.5, Cutoff(20, 14))
        report = ppt_witness(density_from_pure(psi))
        assert report.quantities["min_eigenvalue"] >= -1e-8
        assert not report.entangled_detected

    def test_density_hermiticity_checked_once(self, rng, monkeypatch):
        # partial_transpose_b checks the transposed matrix; the eigensolve
        # takes its entries without a second check.
        checks = []
        real_check = fock.check_hermitian

        def counting_check(*args):
            checks.append(args[2])
            return real_check(*args)

        rho = random_density(rng, Cutoff(4, 5))
        monkeypatch.setattr(fock, "check_hermitian", counting_check)
        ppt_witness(rho)
        assert checks == ["density matrix"]


class TestBellClosedForms:
    def test_equal_weights(self):
        forms = bell_closed_forms(SQRT_HALF, SQRT_HALF, 1.0)
        assert forms["M_closed"] == pytest.approx(4.0)
        assert forms["Mx_closed"] == pytest.approx(3.0)
        assert forms["su11_reduced"] == pytest.approx(0.25)
        assert forms["ppt_spectrum"] == pytest.approx([-0.5, 0.5, 0.5, 0.5])

    def test_product_state(self):
        forms = bell_closed_forms(1.0, 0.0, 1.0)
        assert forms["M_closed"] == pytest.approx(4.0)
        assert forms["Mx_closed"] == pytest.approx(4.0)
        assert forms["su11_reduced"] == 0.0
        assert forms["ppt_spectrum"] == pytest.approx([0.0, 0.0, 0.0, 1.0])

    def test_unequal_weights(self):
        forms = bell_closed_forms(0.6, 0.8, 1.0)
        assert forms["Mx_closed"] == pytest.approx(4.0 - 4.0 * 0.48**2)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            bell_closed_forms(1.0, 1.0)

    @pytest.mark.parametrize("m", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_gain(self, m):
        # duan_witness refuses such a gain too, so neither reports nan.
        with pytest.raises(ValueError, match="finite"):
            bell_closed_forms(1.0, 0.0, m)


class TestClosedFormAgreement:
    def test_random_parameters(self, rng):
        for _ in range(30):
            alpha, beta = random_bell_params(rng)
            m = float(rng.choice([0.5, 1.0, 2.0]))
            rho = bell_rho(alpha, beta)
            forms = bell_closed_forms(alpha, beta, m)
            assert duan_witness(rho, m).quantities["M"] == pytest.approx(
                forms["M_closed"], abs=1e-9
            )
            assert mancini_witness(rho).quantities["M_x"] == pytest.approx(
                forms["Mx_closed"], abs=1e-9
            )
            su11 = su11_pt_witness(rho)
            margin = su11.quantities["lhs"] - su11.quantities["rhs"]
            assert margin == pytest.approx(-8.0 * forms["su11_reduced"], abs=1e-9)
            ppt = ppt_witness(bell_rho(alpha, beta, d=2))
            spectrum = sorted(
                np.linalg.eigvalsh(
                    partial_transpose_b(bell_rho(alpha, beta, d=2)).entries
                )
            )
            assert spectrum == pytest.approx(forms["ppt_spectrum"], abs=1e-9)
            assert ppt.quantities["min_eigenvalue"] == pytest.approx(
                forms["ppt_spectrum"][0], abs=1e-9
            )


class TestSoundness:
    def test_no_witness_fires_on_product_states(self, vacuum):
        psi_coh, _ = product_coherent(1.0, 0.5, Cutoff(20, 14))
        candidates = {
            "vacuum": vacuum,
            "coherent": density_from_pure(psi_coh),
            "one_photon_a": bell_rho(1.0, 0.0),
            "one_photon_b": bell_rho(0.0, 1.0),
        }
        for label, rho in candidates.items():
            reports = [
                mancini_witness(rho),
                duan_witness(rho, 0.5),
                duan_witness(rho, 1.0),
                duan_witness(rho, 2.0),
                su2_pt_witness(rho),
                su11_pt_witness(rho, "ladder"),
                su11_pt_witness(rho, "quadrature"),
                ppt_witness(rho),
            ]
            for report in reports:
                assert not report.entangled_detected, (label, report.name)

    def test_su11_detects_iff_overlap_nonzero(self, rng):
        for _ in range(20):
            alpha, beta = random_bell_params(rng)
            report = su11_pt_witness(bell_rho(alpha, beta))
            assert report.entangled_detected == (abs(alpha * beta) > 1e-6)
        for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (1j, 0.0)):
            assert not su11_pt_witness(bell_rho(alpha, beta)).entangled_detected


class TestPhaseCovariance:
    def test_reports_invariant_under_global_phase(self, rng):
        for _ in range(5):
            alpha, beta = random_bell_params(rng)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            rho1 = bell_rho(alpha, beta)
            rho2 = bell_rho(phase * alpha, phase * beta)
            for witness in (
                mancini_witness,
                lambda r: duan_witness(r, 2.0),
                su2_pt_witness,
                su11_pt_witness,
                ppt_witness,
            ):
                q1, q2 = witness(rho1).quantities, witness(rho2).quantities
                for key in q1:
                    assert q1[key] == pytest.approx(q2[key], abs=1e-10), key

    def test_report_flags_consistent(self, rng):
        c = Cutoff(4, 4)
        for _ in range(10):
            rho = random_density(rng, c)
            for witness in (mancini_witness, su2_pt_witness, su11_pt_witness, ppt_witness):
                report = witness(rho)
                assert report.entangled_detected == (not report.separable_bound_holds)

"""Normal-ordered polynomial algebra and moment evaluation.

The oracle used throughout multiplies raw truncated ladder matrices in
written order (no normal ordering), so agreement with the symbolic route
checks the commutation rewriting itself.
"""

import numpy as np
import pytest

from entcert import (
    Cutoff,
    HermiticityError,
    Monomial,
    OperatorPoly,
    PowerGuardError,
    PureState,
    bell_xp_state,
    density_from_pure,
    duan_witness,
    expectation_poly,
    mancini_witness,
    moment,
    partial_transpose_b,
    product_coherent,
    quadrature_poly,
    su2_pt_witness,
    su11_pt_witness,
    variance,
)
from entcert.algebra import A, AD, B, BD, HERMITIAN_TOL, IDENTITY_MONO, ONE, QUADRATURES

from conftest import random_bell_params, random_density, word_matrix

SQRT_HALF = 2.0**-0.5


def mono_word(mono) -> list:
    """The normal-ordered word adag^m a^n bdag^p b^q as symbol names."""
    m, n, p, q = mono
    return ["ad"] * m + ["a"] * n + ["bd"] * p + ["b"] * q


def dense_poly(poly: OperatorPoly, cutoff: Cutoff) -> np.ndarray:
    """Truncated matrix of a polynomial, one raw ladder product per monomial."""
    return sum(coeff * word_matrix(mono_word(m), cutoff) for m, coeff in poly.terms.items())


def poly_from_word(word) -> OperatorPoly:
    out = ONE
    table = {"a": A, "ad": AD, "b": B, "bd": BD}
    for symbol in word:
        out = out * table[symbol]
    return out


class TestMultiplication:
    def test_commutator_a_adag(self):
        assert A * AD == OperatorPoly({Monomial(1, 1, 0, 0): 1.0, IDENTITY_MONO: 1.0})

    def test_pair_creation_squared(self):
        # (ad bd + a b)^2 normal ordered
        pair = AD * BD + A * B
        expected = OperatorPoly(
            {
                Monomial(2, 0, 2, 0): 1.0,
                Monomial(0, 2, 0, 2): 1.0,
                Monomial(1, 1, 1, 1): 2.0,
                Monomial(1, 1, 0, 0): 1.0,
                Monomial(0, 0, 1, 1): 1.0,
                IDENTITY_MONO: 1.0,
            }
        )
        assert pair * pair == expected

    def test_pair_creation_squared_against_dense(self, rng):
        c = Cutoff(6, 6)
        dense = word_matrix(["ad", "bd"], c) + word_matrix(["a", "b"], c)
        dense_sq = dense @ dense
        poly = (AD * BD + A * B) ** 2
        # compare entrywise on the interior block where truncation cannot bite
        symbolic = dense_poly(poly, c)
        interior = [c.index(na, nb) for na in range(4) for nb in range(4)]
        block = np.ix_(interior, interior)
        assert np.max(np.abs(dense_sq[block] - symbolic[block])) < 1e-10

    def test_identity_is_neutral(self, rng):
        poly = _random_poly(rng)
        assert poly * ONE == poly
        assert ONE * poly == poly

    def test_bilinear(self, rng):
        f, g, h = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        lhs = f * (g + h)
        rhs = f * g + f * h
        _assert_poly_close(lhs, rhs)

    def test_associative(self, rng):
        f, g, h = _random_poly(rng, degree=2), _random_poly(rng, degree=2), _random_poly(rng, degree=2)
        _assert_poly_close((f * g) * h, f * (g * h))

    def test_random_products_match_dense_on_interior(self, rng):
        c = Cutoff(8, 8)
        interior = [c.index(na, nb) for na in range(4) for nb in range(4)]
        block = np.ix_(interior, interior)

        for _ in range(15):
            f, g = _random_poly(rng, degree=2), _random_poly(rng, degree=2)
            product = dense_poly(f * g, c)
            reference = dense_poly(f, c) @ dense_poly(g, c)
            scale = max(1.0, np.max(np.abs(reference)))
            assert np.max(np.abs(product[block] - reference[block])) < 1e-10 * scale


def _random_poly(rng, degree=3, terms=4) -> OperatorPoly:
    out = OperatorPoly()
    for _ in range(terms):
        mono = Monomial(*(int(rng.integers(0, degree + 1)) for _ in range(4)))
        out = out + OperatorPoly({mono: complex(rng.standard_normal(), rng.standard_normal())})
    return out


def _assert_poly_close(f: OperatorPoly, g: OperatorPoly, tol=1e-12):
    monos = set(f.terms) | set(g.terms)
    scale = max((abs(c) for c in (*f.terms.values(), *g.terms.values())), default=1.0)
    for mono in monos:
        assert abs(f.terms.get(mono, 0.0) - g.terms.get(mono, 0.0)) <= tol * max(1.0, scale)


class TestAdjoint:
    def test_annihilation(self):
        assert A.adjoint() == AD

    def test_single_word_with_phase(self):
        poly = OperatorPoly({Monomial(1, 0, 0, 1): 1j})  # i * ad b
        assert poly.adjoint() == OperatorPoly({Monomial(0, 1, 1, 0): -1j})  # -i * a bd

    def test_involution(self, rng):
        for _ in range(20):
            poly = _random_poly(rng)
            assert poly.adjoint().adjoint() == poly

    def test_is_hermitian_up_to_a_fixed_gap(self):
        s_x = (AD * B + A * BD) * 0.5
        assert s_x.is_hermitian()
        assert not (AD * B).is_hermitian()
        near = s_x + OperatorPoly({Monomial(1, 0, 0, 1): HERMITIAN_TOL / 2})
        assert near.is_hermitian()
        far = s_x + OperatorPoly({Monomial(1, 0, 0, 1): 4 * HERMITIAN_TOL})
        assert not far.is_hermitian()

    def test_matches_dense_adjoint(self, rng):
        c = Cutoff(7, 7)
        poly = _random_poly(rng, degree=2)
        dense = dense_poly(poly, c)
        dense_adj = dense_poly(poly.adjoint(), c)
        interior = [c.index(na, nb) for na in range(5) for nb in range(5)]
        block = np.ix_(interior, interior)
        assert np.max(np.abs(dense.conj().T[block] - dense_adj[block])) < 1e-12


class TestPartialTransposePoly:
    def test_pair_creation_becomes_exchange(self):
        assert (AD * BD).partial_transpose_b() == AD * B

    def test_number_product_fixed(self):
        number_pair = AD * A * BD * B
        assert number_pair.partial_transpose_b() == number_pair

    def test_total_number_fixed_point(self):
        k_z = (AD * A + BD * B + ONE) * 0.5
        assert k_z.partial_transpose_b() == k_z

    def test_linear_involution(self, rng):
        for _ in range(20):
            poly = _random_poly(rng)
            assert poly.partial_transpose_b().partial_transpose_b() == poly

    def test_pt_bridge_against_matrices(self, rng):
        # <f>_{rho^PT} == <f^PT>_rho
        c = Cutoff(6, 6)
        for _ in range(15):
            rho = random_density(rng, c, levels_a=3, levels_b=3)
            poly = _random_poly(rng, degree=2)
            lhs = expectation_poly(partial_transpose_b(rho), poly)
            rhs = expectation_poly(rho, poly.partial_transpose_b())
            assert abs(lhs - rhs) < 1e-10


class TestQuadratures:
    def test_position_a(self):
        expected = OperatorPoly(
            {Monomial(0, 1, 0, 0): 1.0 / np.sqrt(2), Monomial(1, 0, 0, 0): 1.0 / np.sqrt(2)}
        )
        assert QUADRATURES["xa"] == expected

    def test_sum_quadrature(self):
        u = quadrature_poly({"xa": 1.0, "xb": 1.0})
        expected = (A + AD + B + BD) * (1.0 / np.sqrt(2))
        assert u == expected

    def test_gain_two_momentum_difference(self):
        v = quadrature_poly({"pa": 2.0, "pb": -0.5})
        expected = (A - AD) * (2.0 / (1j * np.sqrt(2))) - (B - BD) * (0.5 / (1j * np.sqrt(2)))
        _assert_poly_close(v, expected, tol=1e-15)

    def test_commutator_convention(self):
        x, p = QUADRATURES["xa"], QUADRATURES["pa"]
        comm = x * p - p * x
        assert set(comm.terms) == {IDENTITY_MONO}
        assert comm.terms[IDENTITY_MONO] == pytest.approx(1j)

    def test_unknown_symbol(self):
        with pytest.raises(KeyError):
            quadrature_poly({"qa": 1.0})


class TestMoments:
    def test_photon_number_on_bell(self, rng):
        c = Cutoff(3, 3)
        alpha, beta = random_bell_params(rng)
        rho = density_from_pure(bell_xp_state(alpha, beta, c))
        assert moment(rho, Monomial(1, 1, 0, 0)) == pytest.approx(abs(alpha) ** 2)
        real_rho = density_from_pure(bell_xp_state(0.6, 0.8, c))
        assert moment(real_rho, Monomial(1, 1, 0, 0)) == pytest.approx(0.36)

    def test_exchange_moment_magnitude(self, rng):
        c = Cutoff(2, 2)
        alpha, beta = random_bell_params(rng)
        rho = density_from_pure(bell_xp_state(alpha, beta, c))
        value = moment(rho, Monomial(1, 0, 0, 1))  # <ad b>
        assert abs(value) == pytest.approx(abs(alpha) * abs(beta))
        # fixed convention: <ad b> = conj(alpha) * beta
        assert value == pytest.approx(alpha.conjugate() * beta)

    @pytest.mark.parametrize("d_a, d_b", [(2, 5), (5, 3), (7, 4), (2, 2), (6, 6)])
    def test_density_kernel_matches_dense_trace(self, rng, d_a, d_b):
        # full-rank, full-support states reach the truncation edge of both modes
        c = Cutoff(d_a, d_b)
        rho = random_density(rng, c)
        admitted = [
            Monomial(m, n, p, q)
            for m in range(d_a)
            for n in range(d_a - m)
            for p in range(d_b)
            for q in range(d_b - p)
        ]
        for mono in admitted:
            dense = np.einsum("ij,ji->", rho.entries, word_matrix(mono_word(mono), c))
            assert abs(moment(rho, mono) - dense) <= 1e-12 * abs(dense)

    def test_identity_monomial(self, rng):
        c = Cutoff(3, 3)
        rho = random_density(rng, c)
        assert moment(rho, IDENTITY_MONO) == pytest.approx(1.0)

    @pytest.fixture
    def gram_calls(self, monkeypatch):
        """The shift lists of every Gram product a test makes."""
        from entcert import algebra

        calls = []
        gram = algebra._gram

        def counted(state, shifts):
            calls.append(shifts)
            return gram(state, shifts)

        monkeypatch.setattr(algebra, "_gram", counted)
        return calls

    def test_pure_moment_second_request_recomputes_nothing(self, gram_calls):
        psi = bell_xp_state(0.6, 0.8j, Cutoff(3, 3))
        first = moment(psi, Monomial(1, 0, 0, 1))
        assert first == pytest.approx(0.6 * 0.8j)
        filled = dict(psi._moments)
        assert filled[Monomial(1, 0, 0, 1)] == first
        assert moment(psi, (1, 0, 0, 1)) == first
        assert expectation_poly(psi, AD * B) == first
        assert len(gram_calls) == 1
        assert psi._moments == filled

    @pytest.mark.parametrize("kind", ["pure", "density"])
    def test_witness_set_fills_memo_once(self, gram_calls, rng, kind):
        c = Cutoff(6, 5)
        if kind == "pure":
            grid = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
            state = PureState(grid.reshape(-1) / np.linalg.norm(grid), c)
        else:
            state = random_density(rng, c)
        mancini_witness(state)
        for gain in (0.5, 1.0, 2.0):
            duan_witness(state, gain)
        su2_pt_witness(state)
        su11_pt_witness(state, "ladder")
        su11_pt_witness(state, "quadrature")
        assert len(gram_calls) == 1
        # No memo entry is stored for a monomial the power guard rejects.
        assert all(m + n < c.d_a and p + q < c.d_b for m, n, p, q in state._moments)

    def test_cached_tables_are_read_only(self):
        from entcert import algebra

        # Every fill shares these cached arrays; a write would corrupt the next.
        shifts = ((0, 0), (0, 1), (1, 0), (1, 1))
        _, index = algebra._gram_layout(shifts, 3, 3)
        assert index is algebra._gram_layout(shifts, 3, 3)[1]
        for table in (index, algebra._truncated_weights(1, 3)):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_density_gather_past_chunk_floor(self, rng):
        from entcert import algebra

        # A 3x3 rectangle gathers 81 entries per flat index, so at 15x15 the
        # gather is past the chunk floor and is built in more than one chunk.
        c = Cutoff(15, 15)
        assert 81 * c.dim > algebra._CHUNK_FLOOR
        rho = random_density(rng, c)
        u = quadrature_poly({"xa": 1.0, "xb": 1.0})
        expectation_poly(rho, u * u)
        assert len(rho._moments) == 81
        for mono, value in rho._moments.items():
            dense = np.einsum("ij,ji->", rho.entries, word_matrix(mono_word(mono), c))
            assert abs(value - dense) <= 1e-12 * max(1.0, abs(dense)), mono

    def test_power_guard(self, rng):
        c = Cutoff(3, 3)
        rho = random_density(rng, c)
        with pytest.raises(PowerGuardError):
            moment(rho, Monomial(2, 1, 0, 0))  # ad^2 a needs d_a >= 4
        with pytest.raises(PowerGuardError):
            expectation_poly(rho, AD * AD * A * ONE + BD * B * BD)


class TestExpectationPoly:
    def test_kz_on_vacuum(self):
        c = Cutoff(3, 3)
        vac = density_from_pure(product_coherent(0.0, 0.0, c)[0])
        k_z = (AD * A + BD * B + ONE) * 0.5
        assert expectation_poly(vac, k_z) == pytest.approx(0.5)

    def test_sz_on_bell(self, rng):
        c = Cutoff(3, 3)
        alpha, beta = random_bell_params(rng)
        rho = density_from_pure(bell_xp_state(alpha, beta, c))
        s_z = (AD * A - BD * B) * 0.5
        expected = (abs(alpha) ** 2 - abs(beta) ** 2) / 2.0
        assert expectation_poly(rho, s_z) == pytest.approx(expected)

    def test_u_squared_on_vacuum(self):
        c = Cutoff(3, 3)
        vac = density_from_pure(product_coherent(0.0, 0.0, c)[0])
        u = quadrature_poly({"xa": 1.0, "xb": 1.0})
        assert expectation_poly(vac, u * u) == pytest.approx(1.0)

    def test_oracle_equivalence_random_words(self, rng):
        # normal-ordered evaluation vs raw matrix products, interior support
        c = Cutoff(8, 8)
        symbols = np.array(["a", "ad", "b", "bd"])
        for _ in range(100):
            rho = random_density(rng, c, levels_a=4, levels_b=4)
            length = int(rng.integers(0, 5))
            word = list(symbols[rng.integers(0, 4, size=length)])
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            symbolic = coeff * expectation_poly(rho, poly_from_word(word))
            dense = coeff * np.einsum("ij,ji->", rho.entries, word_matrix(word, c))
            assert abs(symbolic - dense) < 1e-10


class TestVariance:
    def test_vacuum_position(self):
        c = Cutoff(3, 3)
        vac = density_from_pure(product_coherent(0.0, 0.0, c)[0])
        assert variance(vac, QUADRATURES["xa"]) == pytest.approx(0.5)

    def test_vacuum_saturates_uncertainty_product(self):
        c = Cutoff(3, 3)
        vac = density_from_pure(product_coherent(0.0, 0.0, c)[0])
        u_norm = quadrature_poly({"xa": SQRT_HALF, "xb": SQRT_HALF})
        v_norm = quadrature_poly({"pa": SQRT_HALF, "pb": SQRT_HALF})
        assert variance(vac, u_norm) * variance(vac, v_norm) == pytest.approx(0.25)

    def test_bell_variance_sum_is_four(self, rng):
        c = Cutoff(3, 3)
        alpha, beta = random_bell_params(rng)
        rho = density_from_pure(bell_xp_state(alpha, beta, c))
        u = quadrature_poly({"xa": 1.0, "xb": 1.0})
        v = quadrature_poly({"pa": 1.0, "pb": -1.0})
        assert variance(rho, u) + variance(rho, v) == pytest.approx(4.0)

    def test_requires_hermitian(self, rng):
        c = Cutoff(3, 3)
        rho = random_density(rng, c)
        with pytest.raises(HermiticityError):
            variance(rho, A)

    def test_shift_invariance(self, rng):
        c = Cutoff(4, 4)
        for _ in range(10):
            rho = random_density(rng, c)
            poly = QUADRATURES["xa"] * QUADRATURES["xb"]
            shifted = poly + OperatorPoly.scalar(rng.standard_normal())
            assert variance(rho, shifted) == pytest.approx(variance(rho, poly), abs=1e-10)

    def test_square_cache_is_bounded(self, rng):
        from entcert import algebra

        c = Cutoff(3, 3)
        rho = random_density(rng, c)
        for gain in np.linspace(0.5, 2.0, 200):
            u = quadrature_poly({"xa": gain, "xb": 1.0 / gain})
            assert variance(rho, u) == pytest.approx(
                (expectation_poly(rho, u * u) - expectation_poly(rho, u) ** 2).real
            )
        assert algebra._square.cache_info().currsize <= 128

    def test_equal_polynomials_share_one_square(self):
        from entcert import algebra

        # Built apart, in different term orders: equal, so they hash alike
        # and the second square is read from the cache.
        first = QUADRATURES["xa"] + QUADRATURES["xb"] * 2.0
        second = QUADRATURES["xb"] * 2.0 + QUADRATURES["xa"]
        assert first is not second and first == second
        assert hash(first) == hash(second)
        algebra._square(first)
        hits = algebra._square.cache_info().hits
        assert algebra._square(second) is algebra._square(first)
        assert algebra._square.cache_info().hits == hits + 2

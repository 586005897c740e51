"""Normal-ordered ladder-operator polynomials over two bosonic modes.

A monomial is the normal-ordered word a†^m a^n b†^p b^q; a polynomial is a
finite complex combination of monomials.  Products are re-normal-ordered
eagerly with the boson rule a a† = a† a + 1 (independently per mode), so
every polynomial has one canonical form and equality is a dict comparison.

Quadrature conventions, fixed once for the whole package:

    x = (a + a†)/sqrt(2),   p = (a - a†)/(i sqrt(2)),   [x, p] = i

which gives the vacuum quadrature variance 1/2.
"""

import math
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import HermiticityError, PowerGuardError
from .fock import Cutoff, PureState, State, embed, lowering_matrix

SQRT2 = math.sqrt(2.0)


class Monomial(NamedTuple):
    """Powers (adag, a, bdag, b) of the normal-ordered word."""

    adag: int
    a: int
    bdag: int
    b: int

    @property
    def degree(self) -> int:
        return self.adag + self.a + self.bdag + self.b


IDENTITY_MONO = Monomial(0, 0, 0, 0)


def _mode_product(m1: int, n1: int, m2: int, n2: int) -> Iterable[tuple[int, int, int]]:
    """Normal-order (adag^m1 a^n1)(adag^m2 a^n2) for a single mode.

    Uses a^n adag^m = sum_k k! C(n,k) C(m,k) adag^(m-k) a^(n-k); yields
    (adag_power, a_power, integer_coefficient) triples.
    """
    for k in range(min(n1, m2) + 1):
        coeff = math.comb(n1, k) * math.comb(m2, k) * math.factorial(k)
        yield m1 + m2 - k, n1 + n2 - k, coeff


class OperatorPoly:
    """Canonical normal-ordered polynomial with complex coefficients.

    Immutable by convention; arithmetic returns new instances.  Zero
    coefficients are never stored, so ``terms`` comparison is canonical
    equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, complex] | None = None):
        cleaned: dict[Monomial, complex] = {}
        if terms:
            for mono, coeff in terms.items():
                c = complex(coeff)
                if c != 0:
                    cleaned[Monomial(*mono)] = c
        self.terms = cleaned

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, value: complex) -> "OperatorPoly":
        return cls({IDENTITY_MONO: value})

    @classmethod
    def ladder(cls, which: str) -> "OperatorPoly":
        """Elementary operator: one of 'a', 'ad', 'b', 'bd'."""
        powers = {"ad": (1, 0, 0, 0), "a": (0, 1, 0, 0), "bd": (0, 0, 1, 0), "b": (0, 0, 0, 1)}
        return cls({Monomial(*powers[which]): 1.0})

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0.0) + coeff
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return OperatorPoly(out)

    def __sub__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, OperatorPoly):
            return self._poly_multiply(other)
        return OperatorPoly({m: c * other for m, c in self.terms.items()})

    def __rmul__(self, scalar) -> "OperatorPoly":
        return self * scalar

    def __neg__(self) -> "OperatorPoly":
        return self * -1.0

    def __pow__(self, exponent: int) -> "OperatorPoly":
        if exponent < 0:
            raise ValueError("operator powers must be nonnegative")
        out = OperatorPoly.scalar(1.0)
        for _ in range(exponent):
            out = out * self
        return out

    def _poly_multiply(self, other: "OperatorPoly") -> "OperatorPoly":
        out: dict[Monomial, complex] = {}
        for (m1, n1, p1, q1), c1 in self.terms.items():
            for (m2, n2, p2, q2), c2 in other.terms.items():
                base = c1 * c2
                for ma, na, wa in _mode_product(m1, n1, m2, n2):
                    for pb, qb, wb in _mode_product(p1, q1, p2, q2):
                        mono = Monomial(ma, na, pb, qb)
                        s = out.get(mono, 0.0) + base * (wa * wb)
                        if s == 0:
                            out.pop(mono, None)
                        else:
                            out[mono] = s
        return OperatorPoly(out)

    def adjoint(self) -> "OperatorPoly":
        """Hermitian adjoint; (adag^m a^n b^p... )† is again normal ordered."""
        return OperatorPoly(
            {Monomial(n, m, q, p): coeff.conjugate() for (m, n, p, q), coeff in self.terms.items()}
        )

    def partial_transpose_b(self) -> "OperatorPoly":
        """Transpose of the mode-b factor in the number basis.

        The matrix of bdag^p b^q is real, and its transpose is the matrix
        of bdag^q b^p, so each monomial maps (m,n,p,q) -> (m,n,q,p) with
        the coefficient unchanged.  Linear and involutive.
        """
        return OperatorPoly(
            {Monomial(m, n, q, p): coeff for (m, n, p, q), coeff in self.terms.items()}
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        adj = self.adjoint()
        monos = set(self.terms) | set(adj.terms)
        return all(abs(self.terms.get(m, 0.0) - adj.terms.get(m, 0.0)) <= tol for m in monos)

    # -- comparison / display -----------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "OperatorPoly(0)"
        parts = []
        for mono in sorted(self.terms):
            factors = [
                sym if power == 1 else f"{sym}^{power}"
                for sym, power in zip(("ad", "a", "bd", "b"), mono)
                if power > 0
            ]
            parts.append(f"({self.terms[mono]:.6g})*{'*'.join(factors) or '1'}")
        return "OperatorPoly(" + " + ".join(parts) + ")"


# Elementary polynomials, shared by criteria and the DSL lowering pass.
AD = OperatorPoly.ladder("ad")
A = OperatorPoly.ladder("a")
BD = OperatorPoly.ladder("bd")
B = OperatorPoly.ladder("b")
ONE = OperatorPoly.scalar(1.0)

# Quadratures under x=(a+ad)/sqrt2, p=(a-ad)/(i sqrt2).
QUADRATURES: dict[str, OperatorPoly] = {
    "xa": (A + AD) * (1.0 / SQRT2),
    "pa": (A - AD) * (1.0 / (1j * SQRT2)),
    "xb": (B + BD) * (1.0 / SQRT2),
    "pb": (B - BD) * (1.0 / (1j * SQRT2)),
}


def quadrature_poly(coeffs: Mapping[str, float]) -> OperatorPoly:
    """Real linear combination of the quadrature symbols xa, pa, xb, pb."""
    out = OperatorPoly()
    for name, weight in coeffs.items():
        if name not in QUADRATURES:
            raise KeyError(f"unknown quadrature symbol {name!r}")
        if not math.isfinite(weight):
            raise ValueError(f"non-finite coefficient for {name}")
        out = out + QUADRATURES[name] * weight
    return out


# -- evaluation against states ----------------------------------------

_matrix_cache: dict[tuple[int, int, Monomial], np.ndarray] = {}


def monomial_matrix(mono: Monomial, cutoff: Cutoff) -> np.ndarray:
    """Dense joint matrix of the normal-ordered word at the given cutoff (read-only)."""
    key = (cutoff.d_a, cutoff.d_b, mono)
    cached = _matrix_cache.get(key)
    if cached is not None:
        return cached
    low_a = lowering_matrix(cutoff.d_a)
    low_b = lowering_matrix(cutoff.d_b)
    op_a = np.linalg.matrix_power(low_a.conj().T, mono.adag) @ np.linalg.matrix_power(low_a, mono.a)
    op_b = np.linalg.matrix_power(low_b.conj().T, mono.bdag) @ np.linalg.matrix_power(low_b, mono.b)
    mat = embed(op_a, op_b)
    mat.setflags(write=False)
    _matrix_cache[key] = mat
    return mat


def _check_power_guard(powers_a: int, powers_b: int, cutoff: Cutoff) -> None:
    if powers_a >= cutoff.d_a or powers_b >= cutoff.d_b:
        raise PowerGuardError(
            f"ladder powers (a:{powers_a}, b:{powers_b}) too high for cutoff "
            f"{cutoff.d_a}x{cutoff.d_b}; raise the cutoff so that powers stay below it"
        )


@lru_cache(maxsize=256)
def _lowering_weights(n: int, size: int) -> np.ndarray:
    """sqrt((k+n)!/k!) for k < size: the factor a^n puts on |k+n> -> |k> (read-only)."""
    k = np.arange(size, dtype=float)
    weight = np.ones(size)
    for j in range(1, n + 1):
        weight *= k + j
    weight = np.sqrt(weight)
    weight.setflags(write=False)
    return weight


def _pure_moment(psi: PureState, mono: Monomial) -> complex:
    """<psi|adag^m a^n bdag^p b^q|psi> = <a^m b^p psi | a^n b^q psi>.

    Each factor is a weighted shift of the d_a x d_b amplitude grid; only
    the corner both shifted grids cover can contribute to the overlap.
    """
    m, n, p, q = mono
    rows = psi.cutoff.d_a - max(m, n)
    cols = psi.cutoff.d_b - max(p, q)
    grid = psi.grid

    def lowered(s: int, t: int) -> np.ndarray:
        corner = grid[s : s + rows, t : t + cols]
        return _lowering_weights(s, rows)[:, None] * corner * _lowering_weights(t, cols)

    return complex(np.vdot(lowered(m, p), lowered(n, q)))


def moment(rho: State, mono: Monomial) -> complex:
    """<adag^m a^n bdag^p b^q> on a pure state or a density operator.

    Rejects monomials whose total per-mode power reaches the cutoff, where
    truncated states make high moments unreliable.  On a PureState each
    value is computed once and kept with the (immutable) state.
    """
    mono = Monomial(*mono)
    _check_power_guard(mono.adag + mono.a, mono.bdag + mono.b, rho.cutoff)
    if isinstance(rho, PureState):
        value = rho._moments.get(mono)
        if value is None:
            value = rho._moments[mono] = _pure_moment(rho, mono)
        return value
    mat = monomial_matrix(mono, rho.cutoff)
    return complex(np.einsum("ij,ji->", rho.entries, mat))


def expectation_poly(rho: State, poly: OperatorPoly) -> complex:
    """<poly> on rho, as the coefficient-weighted sum of monomial moments."""
    total = 0.0 + 0.0j
    for mono, coeff in poly.terms.items():
        total += coeff * moment(rho, mono)
    return total


@lru_cache(maxsize=128)
def _square(poly: OperatorPoly) -> OperatorPoly:
    """poly * poly; bounded, since callers may pass a fresh polynomial per state."""
    return poly * poly


def variance(rho: State, poly: OperatorPoly, herm_tol: float = 1e-12) -> float:
    """<poly^2> - <poly>^2 for a Hermitian polynomial; clamps tiny negatives.

    On a physical state the result is nonnegative; values below -1e-10
    indicate a non-positive input matrix and raise.
    """
    if not poly.is_hermitian(herm_tol):
        raise HermiticityError(f"variance requires a Hermitian polynomial, got {poly!r}")
    mean = expectation_poly(rho, poly)
    second = expectation_poly(rho, _square(poly))
    value = (second - mean * mean).real
    if value < -1e-10:
        raise ValueError(
            f"variance {value:.3e} is negative beyond tolerance; "
            "the input matrix is not a physical state"
        )
    return max(value, 0.0)

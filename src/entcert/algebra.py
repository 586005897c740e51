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
from .fock import Cutoff, DensityOperator, PureState, State

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


def _shifted_moment(rho: DensityOperator, mono: Monomial) -> complex:
    """<adag^m a^n bdag^p b^q> on a density operator, from one shifted diagonal.

    adag^m a^n takes |t+n> to |t+m> with weight w_n(t) w_m(t), where
    w_n = _lowering_weights(n, .), and gives zero for t >= d - max(m, n),
    where the truncated raising runs off the top level.  So only a
    rows x cols corner of (t_a, t_b) contributes: the weighted sum of
    rho[(t_a+n, t_b+q), (t_a+m, t_b+p)], one strided diagonal of its entries.
    """
    m, n, p, q = mono
    d_a, d_b = rho.cutoff.d_a, rho.cutoff.d_b
    rows = d_a - max(m, n)
    cols = d_b - max(p, q)
    blocks = rho.entries.reshape(d_a, d_b, d_a, d_b)
    diagonal = np.einsum("ijij->ij", blocks[n : n + rows, q : q + cols, m : m + rows, p : p + cols])
    weight_a = _lowering_weights(n, rows) * _lowering_weights(m, rows)
    weight_b = _lowering_weights(q, cols) * _lowering_weights(p, cols)
    return complex(weight_a @ diagonal @ weight_b)


@lru_cache(maxsize=256)
def _truncated_weights(n: int, size: int) -> np.ndarray:
    """w_n(k) for k < size, zero where k + n runs off the top level (read-only)."""
    weight = np.zeros(size)
    weight[: size - n] = _lowering_weights(n, size - n)
    weight.setflags(write=False)
    return weight


# A Gram stack of at most this many complex entries is built in one chunk;
# past it, each chunk holds about one amplitude grid, so a fill at a large
# cutoff adds about two grids (the chunk and its conjugate).  Measured on a
# 2-vCPU Xeon host, best of 5-7, for a 3x3 rectangle of shifts: a floor
# below the stack cuts small grids into many chunks (12x12: 0.31 ms at
# 2^8, 0.044 ms from 2^12 up), and a floor past 2^14 lets the stack outgrow
# the cache (60x60: 0.46 ms at 2^14, 0.88 ms at 2^16; 80x80: 0.89 and
# 1.59 ms; 160x160: 1.9 ms at 2^14, 6.1 ms at 2^18).
_CHUNK_FLOOR = 1 << 14
# A fill covers the whole rectangle of shifts only up to this many shifts
# (5x5 holds the square of any degree-two polynomial): the product costs
# shifts^2 grid-sized dot products.  Past it, a miss reads the two shifts
# of its own monomial.
_RECTANGLE_MAX_SHIFTS = 25


def _gram(psi: PureState, shifts: tuple) -> np.ndarray:
    """G[i, j] = <a^s_i b^t_i psi, a^s_j b^t_j psi> over the shifts (s, t).

    a^s b^t psi is the grid shifted by (s, t) and weighted by
    w_s(k_a) w_t(k_b), zero-padded to d_a x d_b; the padding drops exactly
    the corner that runs off the truncation, so G[(m, p), (n, q)] is the
    moment <adag^m a^n bdag^p b^q>.  On the flat amplitude index the shift
    is the offset s d_b + t; the entries that wrap into the next mode-a row
    get mode-b weight zero.  The vectors are stacked and multiplied in
    chunks of the flat index (see _CHUNK_FLOOR).
    """
    d_a, d_b = psi.cutoff.d_a, psi.cutoff.d_b
    size = d_a * d_b
    amps = psi.amplitudes
    count = len(shifts)
    chunk = max(size, _CHUNK_FLOOR) // count
    gram = np.zeros((count, count), dtype=complex)
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        row, col = np.divmod(np.arange(start, stop), d_b)
        weight_a = {s: _truncated_weights(s, d_a)[row] for s in {s for s, _ in shifts}}
        weight_b = {t: _truncated_weights(t, d_b)[col] for t in {t for _, t in shifts}}
        del row, col
        stack = np.zeros((count, stop - start), dtype=complex)
        for k, (s, t) in enumerate(shifts):
            offset = s * d_b + t
            length = min(stop, size - offset) - start
            if length > 0:
                shifted = amps[start + offset : start + offset + length]
                np.multiply(weight_a[s][:length], shifted, out=stack[k, :length])
                stack[k, :length] *= weight_b[t][:length]
        # The product holds the stack twice, so the weights go before it and
        # the stack after it, before the next chunk allocates its own.
        del weight_a, weight_b
        gram += stack.conj() @ stack.T
        del stack
    return gram


@lru_cache(maxsize=64)
def _gram_layout(shifts: tuple, d_a: int, d_b: int) -> tuple:
    """(monomials, flat Gram indices) of every entry the power guard accepts."""
    keys, index = [], []
    for i, (m, p) in enumerate(shifts):
        for j, (n, q) in enumerate(shifts):
            if m + n < d_a and p + q < d_b:
                keys.append(Monomial(m, n, p, q))
                index.append(i * len(shifts) + j)
    return tuple(keys), np.array(index, dtype=np.intp)


def _fill_moments(psi: PureState, mono: Monomial, monos: Iterable[Monomial]) -> None:
    """Put mono's moment, and every other one a Gram product yields, in psi's memo.

    The product covers the rectangle of shifts that holds every monomial of
    monos, clipped to the grid.  Entries already in the memo keep their
    values.
    """
    d_a, d_b = psi.cutoff.d_a, psi.cutoff.d_b
    span_a = [k for m, n, _, _ in monos for k in (m, n)]
    span_b = [k for _, _, p, q in monos for k in (p, q)]
    low_a, high_a = min(span_a), min(max(span_a), d_a - 1)
    low_b, high_b = min(span_b), min(max(span_b), d_b - 1)
    if (high_a - low_a + 1) * (high_b - low_b + 1) <= _RECTANGLE_MAX_SHIFTS:
        shifts = tuple(
            (s, t) for s in range(low_a, high_a + 1) for t in range(low_b, high_b + 1)
        )
    else:
        m, n, p, q = mono
        shifts = tuple(sorted({(m, p), (n, q)}))
    keys, index = _gram_layout(shifts, d_a, d_b)
    values = _gram(psi, shifts).ravel()[index].tolist()
    memo = psi._moments
    memo.update({key: value for key, value in zip(keys, values) if key not in memo})


def _pure_moment(psi: PureState, mono, monos: Iterable[Monomial]) -> complex:
    """mono's moment from psi's memo; a miss fills the memo for all of monos."""
    mono = Monomial(*mono)
    _check_power_guard(mono.adag + mono.a, mono.bdag + mono.b, psi.cutoff)
    value = psi._moments.get(mono)
    if value is None:
        _fill_moments(psi, mono, monos)
        value = psi._moments[mono]
    return value


def moment(rho: State, mono: Monomial) -> complex:
    """<adag^m a^n bdag^p b^q> on a pure state or a density operator.

    Rejects monomials whose total per-mode power reaches the cutoff, where
    truncated states make high moments unreliable.  A PureState keeps every
    moment a Gram product of its weighted shifts yields (see _gram) with the
    (immutable) state; a DensityOperator reads one shifted diagonal per call.
    """
    if isinstance(rho, PureState):
        return _pure_moment(rho, mono, (mono,))
    mono = Monomial(*mono)
    _check_power_guard(mono.adag + mono.a, mono.bdag + mono.b, rho.cutoff)
    return _shifted_moment(rho, mono)


def expectation_poly(rho: State, poly: OperatorPoly) -> complex:
    """<poly> on rho, as the coefficient-weighted sum of monomial moments.

    On a PureState the memo is read first; the first monomial it lacks
    fills it, in one Gram product, for every monomial of poly.
    """
    total = 0.0 + 0.0j
    if not isinstance(rho, PureState):
        for mono, coeff in poly.terms.items():
            total += coeff * moment(rho, mono)
        return total
    memo = rho._moments
    for mono, coeff in poly.terms.items():
        value = memo.get(mono)
        if value is None:
            value = _pure_moment(rho, mono, poly.terms)
        total += coeff * value
    return total


@lru_cache(maxsize=128)
def _square(poly: OperatorPoly, herm_tol: float) -> OperatorPoly:
    """poly * poly once poly is checked Hermitian; bounded, since callers may
    pass a fresh polynomial per state."""
    if not poly.is_hermitian(herm_tol):
        raise HermiticityError(f"variance requires a Hermitian polynomial, got {poly!r}")
    return poly * poly


def variance(rho: State, poly: OperatorPoly, herm_tol: float = 1e-12) -> float:
    """<poly^2> - <poly>^2 for a Hermitian polynomial; clamps tiny negatives.

    On a physical state the result is nonnegative; values below -1e-10
    indicate a non-positive input matrix and raise.  The square is
    evaluated first, so on a PureState one memo fill serves both.
    """
    second = expectation_poly(rho, _square(poly, herm_tol))
    mean = expectation_poly(rho, poly)
    value = (second - mean * mean).real
    if value < -1e-10:
        raise ValueError(
            f"variance {value:.3e} is negative beyond tolerance; "
            "the input matrix is not a physical state"
        )
    return max(value, 0.0)

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
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import HermiticityError, PowerGuardError
from .fock import Cutoff, DensityOperator, State, first_of

SQRT2 = math.sqrt(2.0)
HERMITIAN_TOL = 1e-12  # largest coefficient gap to the adjoint that is_hermitian allows


class Monomial(NamedTuple):
    """Powers (adag, a, bdag, b) of the normal-ordered word."""

    adag: int
    a: int
    bdag: int
    b: int


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

    Immutable: ``terms`` is a read-only view, so a polynomial that a cache
    hands to every caller cannot be changed by one of them; arithmetic
    returns new instances.  Zero coefficients are never stored, so
    ``terms`` comparison is canonical equality.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, complex] | None = None):
        cleaned: dict[Monomial, complex] = {}
        if terms:
            for mono, coeff in terms.items():
                c = complex(coeff)
                if c != 0:
                    cleaned[Monomial(*mono)] = c
        self._terms = MappingProxyType(cleaned)
        self._hash = None  # computed by the first __hash__

    @property
    def terms(self) -> Mapping[Monomial, complex]:
        """Monomial -> nonzero coefficient, as a read-only view."""
        return self._terms

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
        out = self._terms.copy()
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

    def is_hermitian(self) -> bool:
        gap = self - self.adjoint()
        return all(abs(c) <= HERMITIAN_TOL for c in gap.terms.values())

    # -- comparison / display -----------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

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


# Elementary polynomials, the symbols of the DSL lowering pass.
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
def _truncated_weights(n: int, size: int) -> np.ndarray:
    """w_n(k) = sqrt((k+n)!/k!), the factor a^n puts on |k+n> -> |k>, for
    k < size; zero where k + n runs off the top level (read-only)."""
    k = np.arange(size - n, dtype=float)
    product = np.ones(size - n)
    for j in range(1, n + 1):
        product *= k + j
    weight = np.zeros(size)
    weight[: size - n] = np.sqrt(product)
    weight.setflags(write=False)
    return weight


# A Gram stack of at most this many complex entries is built in one chunk;
# past it, each chunk holds about one amplitude grid, so a fill at a large
# cutoff adds about two grids (the chunk and its conjugate).  Measured on a
# 2-vCPU Xeon host, best of 5-7, for a 3x3 rectangle of shifts: a floor
# below the stack cuts small grids into many chunks (12x12: 0.31 ms at
# 2^8, 0.044 ms from 2^12 up), and a floor past 2^14 lets the stack outgrow
# the cache (60x60: 0.46 ms at 2^14, 0.88 ms at 2^16; 80x80: 0.89 and
# 1.59 ms; 160x160: 1.9 ms at 2^14, 6.1 ms at 2^18).  A density operator's
# gather, shifts^2 entries per flat index, is chunked by the same floor,
# measured the same way from 2^10 to 2^18: 2^10 is 2-4x slower, and 2^14
# is within 15% of the best (20x20: 0.25 ms, 0.23 ms at 2^16; 60x60:
# 3.5 ms, 3.1 ms at 2^16).
_CHUNK_FLOOR = 1 << 14
# A fill covers the whole rectangle of shifts only up to this many shifts
# (5x5 holds the square of any degree-two polynomial): the product costs
# shifts^2 grid-sized dot products.  Past it, a miss reads the two shifts
# of its own monomial.
_RECTANGLE_MAX_SHIFTS = 25


def rows_per_batch(cutoff: Cutoff, shifts: int) -> int:
    """Rows of a batched PureState whose Gram stack over this many shifts
    fits in _CHUNK_FLOOR entries, and at least one: a batch no larger keeps
    its stack inside the floor, or, past it, at the chunked stack of one row."""
    return max(1, _CHUNK_FLOOR // (shifts * cutoff.dim))


def _gram(state: State, shifts: tuple) -> np.ndarray:
    """G[..., i, j] = <a^s_i b^t_i psi, a^s_j b^t_j psi> over the shifts (s, t).

    A batched PureState gives one table per row, shape (*batch, shifts,
    shifts), from one stacked product per chunk; a row's stack is as large
    as that of the row alone, so the caller sizes the batch (rows_per_batch).

    a^s b^t psi is the grid shifted by (s, t) and weighted by
    w_s(k_a) w_t(k_b), zero-padded to d_a x d_b; the padding drops exactly
    the corner that runs off the truncation, so G[(m, p), (n, q)] is the
    moment <adag^m a^n bdag^p b^q>.  On the flat amplitude index the shift
    is the offset s d_b + t; the entries that wrap into the next mode-a row
    get mode-b weight zero.  The vectors are stacked and multiplied in
    chunks of the flat index (see _CHUNK_FLOOR).

    A DensityOperator has the same table with the same weights W_i and
    offsets off_i, G[i, j] = sum_k W_i(k) W_j(k) rho[k + off_j, k + off_i]
    (for rho = |psi><psi| the entries above): one gather of rho and one
    einsum per chunk.  W_i is zero wherever k + off_i runs off the grid, so
    those indices are clipped to the last one.
    """
    d_a, d_b = state.cutoff.d_a, state.cutoff.d_b
    size = d_a * d_b
    count = len(shifts)
    mixed = isinstance(state, DensityOperator)
    batch = state.batch
    # A chunk of the density gather holds shifts^2 entries per flat index.
    # The chunk does not depend on the batch, so a row of a batch sums its
    # entries in the same chunks, and to the same bits, as that row alone.
    chunk = max(size, _CHUNK_FLOOR) // (count * count if mixed else count)
    gram = np.zeros((*batch, count, count), dtype=complex)
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        flat = np.arange(start, stop)
        row, col = np.divmod(flat, d_b)
        weight_a = {s: _truncated_weights(s, d_a)[row] for s in {s for s, _ in shifts}}
        weight_b = {t: _truncated_weights(t, d_b)[col] for t in {t for _, t in shifts}}
        if mixed:
            weight = np.array([weight_a[s] * weight_b[t] for s, t in shifts])
            index = np.minimum(flat + [[s * d_b + t] for s, t in shifts], size - 1)
            gram += np.einsum("ik,jk,ijk->ij", weight, weight, state.entries[index, index[:, None]])
            continue
        del flat, row, col
        stack = np.zeros((*batch, count, stop - start), dtype=complex)
        for k, (s, t) in enumerate(shifts):
            offset = s * d_b + t
            length = min(stop, size - offset) - start
            if length > 0:
                shifted = state.amplitudes[..., start + offset : start + offset + length]
                np.multiply(weight_a[s][:length], shifted, out=stack[..., k, :length])
                stack[..., k, :length] *= weight_b[t][:length]
        # The product holds the stack twice, so the weights go before it and
        # the stack after it, before the next chunk allocates its own.
        del weight_a, weight_b
        gram += stack.conj() @ stack.swapaxes(-1, -2)
        del stack
    return gram


@lru_cache(maxsize=64)
def _gram_layout(shifts: tuple, d_a: int, d_b: int) -> tuple:
    """(monomials, flat Gram indices) of every entry the power guard accepts;
    the indices are read-only, as every caller shares the cached array."""
    keys, index = [], []
    for i, (m, p) in enumerate(shifts):
        for j, (n, q) in enumerate(shifts):
            if m + n < d_a and p + q < d_b:
                keys.append(Monomial(m, n, p, q))
                index.append(i * len(shifts) + j)
    index = np.array(index, dtype=np.intp)
    index.setflags(write=False)
    return tuple(keys), index


def _fill_moments(state: State, mono: Monomial, monos: Iterable[Monomial]) -> None:
    """Put mono's moment, and every other one a Gram product yields, in the state's memo.

    The product covers the rectangle of shifts that holds every monomial of
    monos, clipped to the grid.  Entries already in the memo keep their
    values.
    """
    d_a, d_b = state.cutoff.d_a, state.cutoff.d_b
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
    gram = _gram(state, shifts)
    # One value per monomial: a Python complex for a single state, so sums
    # over them stay Python arithmetic, and a read-only array over the rows
    # for a batch.
    values = gram.reshape(*gram.shape[:-2], -1)[..., index]
    values.setflags(write=False)
    values = values.tolist() if values.ndim == 1 else [values[..., k] for k in range(len(keys))]
    memo = state._moments
    memo.update({key: value for key, value in zip(keys, values) if key not in memo})


def moment(rho: State, mono: Monomial) -> complex:
    """<adag^m a^n bdag^p b^q> on a pure state or a density operator.

    Rejects monomials whose total per-mode power reaches the cutoff, where
    truncated states make high moments unreliable.  Either state type keeps
    every moment a Gram product of its weighted shifts yields (see _gram)
    with the (immutable) state, so a later call is a dictionary read.
    """
    return expectation_poly(rho, OperatorPoly({mono: 1.0}))


def expectation_poly(rho: State, poly: OperatorPoly) -> complex:
    """<poly> on rho, as the coefficient-weighted sum of monomial moments;
    an array of shape batch on a batched PureState.  Each entry equals the
    row alone bit for bit when every coefficient is real or imaginary, as
    in every witness polynomial; see _product for the others.

    The state's memo is read first; the first monomial it lacks passes the
    power guard and then fills the memo, in one Gram product, for every
    monomial of poly.
    """
    # 0 in every row, so a batch's mean has its shape even with no terms.
    total = np.zeros(rho.batch, dtype=complex) if rho.batch else 0.0 + 0.0j
    memo = rho._moments
    for mono, coeff in poly.terms.items():
        value = memo.get(mono)
        if value is None:
            _check_power_guard(mono.adag + mono.a, mono.bdag + mono.b, rho.cutoff)
            _fill_moments(rho, mono, poly.terms)
            value = memo[mono]
        total += coeff * value
    return total


def _product(c, z):
    """c * z as Python multiplies complex numbers, for scalars and arrays alike.

    numpy's vectorized complex multiply may fuse a multiply and an add,
    which would make a row of a batch differ in its last bit from the same
    state evaluated alone; real multiplies and adds round as Python does.
    (With one part of c zero, as in every witness coefficient, the other
    part's product is an exact zero and both multiplies agree.)
    """
    return (c.real * z.real - c.imag * z.imag) + 1j * (c.real * z.imag + c.imag * z.real)


def central_second(second, mean):
    """second - mean^2, rounded alike for a single state and each row of a batch."""
    return second - _product(mean, mean)


@lru_cache(maxsize=128)
def _square(poly: OperatorPoly) -> OperatorPoly:
    """poly * poly once poly is checked Hermitian; bounded, since callers may
    pass a fresh polynomial per state."""
    if not poly.is_hermitian():
        raise HermiticityError(f"variance requires a Hermitian polynomial, got {poly!r}")
    return poly * poly


def variance(rho: State, poly: OperatorPoly) -> float:
    """<poly^2> - <poly>^2 for a Hermitian polynomial; clamps tiny negatives.

    On a physical state the result is nonnegative; values below -1e-10
    indicate a non-positive input matrix and raise, in any row of a batch.
    The square is evaluated first, so one memo fill serves both.
    """
    second = expectation_poly(rho, _square(poly))
    mean = expectation_poly(rho, poly)
    value = central_second(second, mean).real
    negative = value < -1e-10
    if np.count_nonzero(negative):
        raise ValueError(
            f"variance {first_of(value, negative):.3e} is negative beyond tolerance; "
            "the input matrix is not a physical state"
        )
    return np.maximum(value, 0.0)

"""Separability witnesses for two-mode states, with closed-form cross-checks.

Second-order witnesses (variance based):

  * product form:  Var(x_a+x_b) * Var(p_a-p_b) >= 1 for every separable
    state (equivalently Delta((x_a+x_b)/sqrt2) Delta((p_a-p_b)/sqrt2) >= 1/2).
  * sum form:      Var(u) + Var(v) >= m^2 + 1/m^2 for separable states,
    with u = |m| x_a + x_b/m and v = |m| p_a - p_b/m.

Fourth-order witnesses built from the angular-momentum-like triple
S = (adag b + a bdag, ...)/2 and the squeezing-like triple
K = (adag bdag + a b, ...)/2: the uncertainty product for S or K must
still hold after the mode-b partial transpose if the state is separable.
Each bracket below equals 4 * Var of the transposed S/K component, and
the right-hand side equals |2 <S_z or K_z>|^2 on the transposed state,
so a separable state always satisfies lhs >= rhs.

The exact test: a separable state's partial transpose has no negative
eigenvalues, so any negative eigenvalue certifies entanglement.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import OperatorPoly, central_second, expectation_poly, quadrature_poly, variance
from .algebra import _product  # c * z rounded as Python rounds it, for arrays too
from .dsl import lower, parse_operator
from .fock import PureState, State, first_of, partial_transpose_b
# The verdict rule lives in fock; witness callers also read it from here.
from .fock import DETECTION_MARGIN, fires  # noqa: F401
from .states import _check_bell_weight

_REAL_TOL = 1e-10


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one witness on one state; the bound holds iff nothing was detected.

    On a batched PureState each quantity and verdict is an array over the
    batch.  On a single state they are Python numbers: numpy scalars that
    the shared element-wise steps return are converted here.
    """

    name: str
    quantities: dict[str, float] = field(default_factory=dict)
    separable_bound_holds: bool = field(init=False)
    entangled_detected: bool = False
    conventions: str = ""

    def __post_init__(self):
        for key, value in self.quantities.items():
            if isinstance(value, np.generic):
                self.quantities[key] = value.item()
        detected = self.entangled_detected
        if isinstance(detected, np.generic):
            detected = detected.item()
            object.__setattr__(self, "entangled_detected", detected)
        object.__setattr__(self, "separable_bound_holds", detected ^ True)  # not, element-wise


def _abs(value):
    """|value| as Python's abs(complex) computes it, for scalars and arrays alike
    (numpy's vectorized complex modulus rounds differently)."""
    return np.hypot(value.real, value.imag)


def _pow2(value):
    """value ** 2 as Python computes it, the C pow; numpy's ** multiplies."""
    return np.float_power(value, 2.0)


def _real(value: complex, label: str) -> float:
    """value.real once every entry's imaginary part is round-off."""
    bad = abs(value.imag) > _REAL_TOL * np.maximum(1.0, _abs(value))
    if np.count_nonzero(bad):
        raise ValueError(f"{label} should be real, got {complex(first_of(value, bad))!r}")
    return value.real


# -- second-order witnesses --------------------------------------------

def mancini_witness(rho: State) -> CriterionReport:
    """Variance-product witness: separable states keep Var(u) Var(v) >= 1.

    Quantities carry both normalizations: M_x = Var(x_a+x_b) Var(p_a-p_b)
    against bound 1, and the standard-deviation product of the
    1/sqrt(2)-normalized pair against bound 1/2 (M_x is 4 times the
    normalized variance product).
    """
    var_u = variance(rho, BUILTIN_OPERATORS["u_sum"][0])
    var_v = variance(rho, BUILTIN_OPERATORS["v_diff"][0])
    m_x = var_u * var_v
    return CriterionReport(
        name="Mancini",
        quantities={
            "M_x": m_x,
            "var_u": var_u,
            "var_v": var_v,
            "stddev_product_normalized": np.sqrt(m_x) / 2.0,
            "bound_M_x": 1.0,
            "bound_stddev_product": 0.5,
        },
        entangled_detected=fires(m_x, 1.0),
        conventions="u=xa+xb, v=pa-pb; x=(a+ad)/sqrt2; M_x bound 1 equals "
        "(stddev bound 1/2)^2 times 4",
    )


def _check_gain(m: float) -> float:
    """m * m, once the separable bound m^2 + 1/m^2 of gain m is finite: m is
    nonzero and finite, m^2 does not underflow to 0 and neither term overflows."""
    m2 = m * m
    if m2 == 0 or not math.isfinite(m2 + 1.0 / m2):
        raise ValueError(f"gain m={m!r} must give a finite bound m^2 + 1/m^2")
    return m2


def _check_finite(values, label: str):
    """values, once every entry is finite."""
    bad = np.logical_not(np.isfinite(values))
    if np.count_nonzero(bad):
        raise ValueError(f"{label} is {float(first_of(values, bad))!r}, not finite")
    return values


@lru_cache(maxsize=64)
def _duan_pair(m: float) -> tuple[OperatorPoly, OperatorPoly]:
    """u = |m| xa + xb/m and v = |m| pa - pb/m; bounded, as callers may scan gains."""
    return (
        quadrature_poly({"xa": abs(m), "xb": 1.0 / m}),
        quadrature_poly({"pa": abs(m), "pb": -1.0 / m}),
    )


def duan_witness(rho: State, m: float = 1.0) -> CriterionReport:
    """Variance-sum witness at gain m: separable states keep M >= m^2 + 1/m^2.

    The commutator floor |m^2 - 1/m^2| <= M holds for every state and is
    reported but plays no part in the verdict.
    """
    m2 = _check_gain(m)
    u, v = _duan_pair(m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _check_finite instead
        total = _check_finite(variance(rho, u) + variance(rho, v), f"Duan M at gain m={m!r}")
    bound = m2 + 1.0 / m2
    return CriterionReport(
        name=f"Duan(m={m:g})",
        quantities={
            "M": total,
            "m": float(m),
            "bound": bound,
            "heisenberg_floor": abs(m2 - 1.0 / m2),
        },
        entangled_detected=fires(total, bound),
        conventions="u=|m|xa+xb/m, v=|m|pa-pb/m",
    )


def duan_mancini_relation(rho: State) -> tuple[float, float, float]:
    """(M, M_minus, M_x) at m=1 from Mancini's report; M^2 = M_minus^2 + 4 M_x identically."""
    q = mancini_witness(rho).quantities
    return q["var_u"] + q["var_v"], q["var_u"] - q["var_v"], q["M_x"]


# -- fourth-order witnesses --------------------------------------------

# Each witness operator is defined by its DSL text alone, and lowered to its
# polynomial once, here.  K_*_quad is the K triple written in quadratures;
# it lowers to K_* up to round-off.
BUILTIN_OPERATORS: dict[str, tuple[OperatorPoly, str]] = {
    name: (lower(parse_operator(text)), text)
    for name, text in (
        ("S_x", "(ad*b+a*bd)/2"),
        ("S_y", "(ad*b-a*bd)/(2*i)"),
        ("S_z", "(ad*a-bd*b)/2"),
        ("K_x", "(ad*bd+a*b)/2"),
        ("K_y", "(ad*bd-a*b)/(2*i)"),
        ("K_z", "(ad*a+bd*b+1)/2"),
        ("K_x_quad", "(xa*xb-pa*pb)/2"),
        ("K_y_quad", "-(xa*pb+pa*xb)/2"),
        ("K_z_quad", "(xa^2+pa^2+xb^2+pb^2)/4"),
        ("u_sum", "xa+xb"),
        ("v_diff", "pa-pb"),
    )
}


def _pt_triple(x: str, y: str, z: str) -> tuple:
    """((2X)^PT, ((2X)^2)^PT) for X and for Y, and (2Z)^PT, from named operators.

    <O> on rho^PT is <O^PT> on rho, so the means of these polynomials on
    rho are the moments of 2X, 2Y and 2Z on rho^PT.  The transpose
    reverses mode-b products, so the second moment transposes (2X)^2 as
    a whole rather than squaring (2X)^PT.
    """
    ops = [BUILTIN_OPERATORS[name][0] * 2.0 for name in (x, y, z)]
    pairs = tuple((op.partial_transpose_b(), (op * op).partial_transpose_b()) for op in ops[:2])
    return pairs, ops[2].partial_transpose_b()


_SU2_PT = _pt_triple("S_x", "S_y", "S_z")
_SU11_PT = {
    "ladder": _pt_triple("K_x", "K_y", "K_z"),
    "quadrature": _pt_triple("K_x_quad", "K_y_quad", "K_z_quad"),
}


def _pt_uncertainty_report(rho: State, triple, name: str, conventions: str) -> CriterionReport:
    """Uncertainty product of (X, Y, Z) on rho^PT: bracket1 = 4 Var(X),
    bracket2 = 4 Var(Y), rhs = |2<Z>|^2; a separable state's rho^PT is a
    state, so it keeps lhs = bracket1 * bracket2 >= rhs."""
    pairs, z = triple
    brackets = []
    for (mean_poly, square_poly), which in zip(pairs, ("first", "second")):
        second = expectation_poly(rho, square_poly)
        mean = expectation_poly(rho, mean_poly)
        brackets.append(_real(central_second(second, mean), f"{which} uncertainty bracket"))
    bracket1, bracket2 = brackets
    lhs = bracket1 * bracket2
    rhs = _pow2(_abs(expectation_poly(rho, z)))
    return CriterionReport(
        name=name,
        quantities={"lhs": lhs, "rhs": rhs, "bracket1": bracket1, "bracket2": bracket2},
        entangled_detected=fires(lhs, rhs),
        conventions=conventions,
    )


def su2_pt_witness(rho: State) -> CriterionReport:
    """Partially transposed uncertainty product for the S triple.

    In moments of rho,
    lhs = [<ad a b bd> + <a ad bd b> + <ad^2 bd^2> + <a^2 b^2> - <ad bd + a b>^2]
        * [<ad a b bd> + <a ad bd b> - <ad^2 bd^2> - <a^2 b^2> + <ad bd - a b>^2]
    rhs = |<ad a - bd b>|^2;  separable states keep lhs >= rhs.
    """
    return _pt_uncertainty_report(
        rho,
        _SU2_PT,
        "SU2PT",
        "brackets equal 4*Var of the transposed S_x, S_y; "
        "<ad bd - a b> is imaginary so its square enters <= 0",
    )


def su11_pt_witness(rho: State, mode: str = "ladder") -> CriterionReport:
    """Partially transposed uncertainty product for the K triple.

    In moments of rho,
    lhs = [<ad a bd b> + <a ad b bd> + <ad^2 b^2> + <a^2 bd^2> - <ad b + a bd>^2]
        * [<ad a bd b> + <a ad b bd> - <ad^2 b^2> - <a^2 bd^2> + <ad b - a bd>^2]
    rhs = |<ad a + b bd>|^2.  Ladder mode takes the triple in ladder
    operators, quadrature mode the same triple written in xa, pa, xb, pb.
    Violation (lhs < rhs) certifies entanglement.

    On the one-excitation Bell family the margin reduces to
    lhs - rhs = -8 * (|a* b|^2 - 2 Re(a* b)^2 Im(a* b)^2), so detection
    occurs exactly when alpha*beta != 0.
    """
    if mode not in _SU11_PT:
        raise ValueError(f"mode must be 'ladder' or 'quadrature', got {mode!r}")
    return _pt_uncertainty_report(
        rho,
        _SU11_PT[mode],
        "SU11PT",
        f"mode={mode}; brackets equal 4*Var of the transposed K_x, K_y; "
        "Bell-family margin is -8*(|a*b|^2 - 2 Re^2 Im^2)",
    )


# -- exact partial-transpose test ---------------------------------------

def ppt_witness(rho: State) -> CriterionReport:
    """Spectrum test: any eigenvalue of rho^PT below -DETECTION_MARGIN certifies entanglement.

    For a pure state the spectrum is known from the Schmidt coefficients
    s_1 >= s_2 >= ... (the singular values of the amplitude grid): it is
    {s_i^2} and {+-s_i s_j, i < j} padded with zeros, so the minimum is
    -s_1 s_2 and the negativity is sum_{i<j} s_i s_j (Vidal & Werner,
    PRA 65, 032314).  A batch takes one stacked singular-value solve and
    the same per-row sums.  A density operator takes the dense eigensolve;
    partial_transpose_b has checked its Hermiticity.
    """
    if isinstance(rho, PureState):
        s = np.linalg.svd(rho.grid, compute_uv=False)
        min_eig = -s[..., 0] * s[..., 1] + 0.0  # +0.0 avoids "-0.0"
        # One dot per row, as a single state takes it: a stacked product may
        # sum in another order.
        rows = s.reshape(-1, s.shape[-1])
        partial = np.cumsum(rows, axis=-1)
        negativity = np.fromiter(map(np.dot, rows[:, 1:], partial[:, :-1]), float, len(rows))
        negativity = negativity.reshape(s.shape[:-1])[()]
    else:
        eigs = np.linalg.eigvalsh(partial_transpose_b(rho).entries)
        min_eig = float(eigs[0])
        negativity = float(-np.sum(eigs[eigs < 0.0])) + 0.0
    return CriterionReport(
        name="PPT",
        quantities={"min_eigenvalue": min_eig, "negativity": negativity},
        entangled_detected=fires(min_eig, 0.0),
        conventions="partial transpose over mode b; negativity = sum |negative eigenvalues|",
    )


# -- closed forms for the one-excitation Bell family --------------------

def bell_closed_forms(alpha, beta, m: float = 1.0) -> dict:
    """Analytic witness values for alpha|1,0> + beta|0,1>.

    Returns M_closed (variance sum at gain m), Mx_closed (variance product
    at m=1), su11_reduced (positive exactly when the K-triple test fires),
    and the four partial-transpose eigenvalues.  A batch of pairs, as
    bell_xp_state takes, gives arrays (the spectrum on a trailing axis of 4);
    one pair gives floats and a list, rounded as Python arithmetic rounds.
    """
    m2 = _check_gain(m)
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    _check_bell_weight(alpha, beta)
    overlap = _product(alpha.conj(), beta)
    re2, im2 = _pow2(overlap.real), _pow2(overlap.imag)
    abs_a, abs_b = _abs(alpha), _abs(beta)
    a2, b2 = _pow2(abs_a), _pow2(abs_b)
    with np.errstate(over="ignore"):  # refused by _check_finite instead
        m_closed = m2 + 1.0 / m2 + 2.0 * (a2 * m2 + b2 / m2)
    spectrum = np.stack(np.broadcast_arrays(-abs_a * abs_b, a2, b2, abs_a * abs_b), axis=-1)
    forms = {
        "M_closed": _check_finite(m_closed, f"M_closed at gain m={m!r}"),
        "Mx_closed": 4.0 - 4.0 * re2,
        "su11_reduced": _pow2(_abs(overlap)) - 2.0 * re2 * im2,
        # A stable sort keeps -0.0 before an equal 0.0, as sorted() does.
        "ppt_spectrum": np.sort(spectrum, axis=-1, kind="stable"),
    }
    if overlap.ndim == 0:  # one pair
        return {key: value.tolist() for key, value in forms.items()}
    return forms


# -- DSL cross-check registry -------------------------------------------

# Full witness inequalities in DSL form; each evaluates to the same verdict
# as the corresponding function above (up to the detection margin).
_SU11_LHS_DSL = (
    "(E[ad*a*bd*b]+E[a*ad*b*bd]+E[ad^2*b^2]+E[a^2*bd^2]"
    "-E[ad*b+a*bd]*E[ad*b+a*bd])"
    "*(E[ad*a*bd*b]+E[a*ad*b*bd]-E[ad^2*b^2]-E[a^2*bd^2]"
    "+E[ad*b-a*bd]*E[ad*b-a*bd])"
)
_SU2_LHS_DSL = (
    "(E[ad*a*b*bd]+E[a*ad*bd*b]+E[ad^2*bd^2]+E[a^2*b^2]"
    "-E[ad*bd+a*b]*E[ad*bd+a*b])"
    "*(E[ad*a*b*bd]+E[a*ad*bd*b]-E[ad^2*bd^2]-E[a^2*b^2]"
    "+E[ad*bd-a*b]*E[ad*bd-a*b])"
)

BUILTIN_QUERIES: dict[str, str] = {
    "mancini": "Var[xa+xb]*Var[pa-pb] >= 1",
    "duan_m1": "Var[xa+xb]+Var[pa-pb] >= 2",
    "su2_pt": _SU2_LHS_DSL + " >= abs2(E[ad*a-bd*b])",
    "su11_pt": _SU11_LHS_DSL + " >= abs2(E[ad*a+b*bd])",
    # Uncertainty product for the K triple on the untransposed state; every
    # physical state obeys it (vacuum saturates it).
    "k_uncertainty": "Var[(ad*bd+a*b)/2]*Var[(ad*bd-a*b)/(2*i)]"
    " >= abs2(E[(ad*a+bd*b+1)/2])/4",
}

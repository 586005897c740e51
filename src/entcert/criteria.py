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

from . import algebra
from .algebra import A, AD, B, BD, ONE, OperatorPoly, expectation_poly, quadrature_poly, variance
from .errors import NormalizationError
from .fock import TOL_NORM, TOL_PSD, PureState, State, hermitian_eigenvalues, partial_transpose_b

# Margin below a separable bound before a witness fires; keeps states that
# merely saturate a bound (vacuum does, for several) out of the detections.
DETECTION_MARGIN = TOL_PSD

_REAL_TOL = 1e-10


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one witness on one state."""

    name: str
    quantities: dict[str, float] = field(default_factory=dict)
    separable_bound_holds: bool = True
    entangled_detected: bool = False
    conventions: str = ""


def _real(value: complex, label: str) -> float:
    if abs(value.imag) > _REAL_TOL * max(1.0, abs(value)):
        raise ValueError(f"{label} should be real, got {value!r}")
    return value.real


# -- second-order witnesses --------------------------------------------

_U_SUM = quadrature_poly({"xa": 1.0, "xb": 1.0})
_V_DIFF = quadrature_poly({"pa": 1.0, "pb": -1.0})


def mancini_witness(rho: State) -> CriterionReport:
    """Variance-product witness: separable states keep Var(u) Var(v) >= 1.

    Quantities carry both normalizations: M_x = Var(x_a+x_b) Var(p_a-p_b)
    against bound 1, and the standard-deviation product of the
    1/sqrt(2)-normalized pair against bound 1/2 (M_x is 4 times the
    normalized variance product).
    """
    var_u = variance(rho, _U_SUM)
    var_v = variance(rho, _V_DIFF)
    m_x = var_u * var_v
    detected = m_x < 1.0 - DETECTION_MARGIN
    return CriterionReport(
        name="Mancini",
        quantities={
            "M_x": m_x,
            "var_u": var_u,
            "var_v": var_v,
            "stddev_product_normalized": math.sqrt(m_x) / 2.0,
            "bound_M_x": 1.0,
            "bound_stddev_product": 0.5,
        },
        separable_bound_holds=not detected,
        entangled_detected=detected,
        conventions="u=xa+xb, v=pa-pb; x=(a+ad)/sqrt2; M_x bound 1 equals "
        "(stddev bound 1/2)^2 times 4",
    )


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
    if m == 0:
        raise ValueError("gain m must be nonzero")
    u, v = _duan_pair(m)
    total = variance(rho, u) + variance(rho, v)
    bound = m * m + 1.0 / (m * m)
    detected = total < bound - DETECTION_MARGIN
    return CriterionReport(
        name=f"Duan(m={m:g})",
        quantities={
            "M": total,
            "m": float(m),
            "bound": bound,
            "heisenberg_floor": abs(m * m - 1.0 / (m * m)),
        },
        separable_bound_holds=not detected,
        entangled_detected=detected,
        conventions="u=|m|xa+xb/m, v=|m|pa-pb/m",
    )


def duan_mancini_relation(rho: State) -> tuple[float, float, float]:
    """(M, M_minus, M_x) at m=1; M^2 = M_minus^2 + 4 M_x identically."""
    var_u = variance(rho, _U_SUM)
    var_v = variance(rho, _V_DIFF)
    return var_u + var_v, var_u - var_v, var_u * var_v


# -- fourth-order witnesses --------------------------------------------

# Operator polynomials as built here, next to the DSL text that must lower
# to exactly the same canonical form (see tests).  K_*_quad is the K triple
# written in quadratures; it lowers to K_* up to round-off.
_XA, _PA, _XB, _PB = (algebra.QUADRATURES[s] for s in ("xa", "pa", "xb", "pb"))
BUILTIN_OPERATORS: dict[str, tuple[OperatorPoly, str]] = {
    "S_x": ((AD * B + A * BD) * 0.5, "(ad*b+a*bd)/2"),
    "S_y": ((AD * B - A * BD) * (1.0 / 2j), "(ad*b-a*bd)/(2*i)"),
    "S_z": ((AD * A - BD * B) * 0.5, "(ad*a-bd*b)/2"),
    "K_x": ((AD * BD + A * B) * 0.5, "(ad*bd+a*b)/2"),
    "K_y": ((AD * BD - A * B) * (1.0 / 2j), "(ad*bd-a*b)/(2*i)"),
    "K_z": ((AD * A + BD * B + ONE) * 0.5, "(ad*a+bd*b+1)/2"),
    "K_x_quad": ((_XA * _XB - _PA * _PB) * 0.5, "(xa*xb-pa*pb)/2"),
    "K_y_quad": (-(_XA * _PB + _PA * _XB) * 0.5, "-(xa*pb+pa*xb)/2"),
    "K_z_quad": ((_XA**2 + _PA**2 + _XB**2 + _PB**2) * 0.25, "(xa^2+pa^2+xb^2+pb^2)/4"),
    "u_sum": (_U_SUM, "xa+xb"),
    "v_diff": (_V_DIFF, "pa-pb"),
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
        brackets.append(_real(second - mean * mean, f"{which} uncertainty bracket"))
    bracket1, bracket2 = brackets
    lhs = bracket1 * bracket2
    rhs = abs(expectation_poly(rho, z)) ** 2
    detected = lhs < rhs - DETECTION_MARGIN
    return CriterionReport(
        name=name,
        quantities={"lhs": lhs, "rhs": rhs, "bracket1": bracket1, "bracket2": bracket2},
        separable_bound_holds=not detected,
        entangled_detected=detected,
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
    """Spectrum test: any eigenvalue of rho^PT below -tol certifies entanglement.

    For a pure state the spectrum is known from the Schmidt coefficients
    s_1 >= s_2 >= ... (the singular values of the amplitude grid): it is
    {s_i^2} and {+-s_i s_j, i < j} padded with zeros, so the minimum is
    -s_1 s_2 and the negativity is sum_{i<j} s_i s_j (Vidal & Werner,
    PRA 65, 032314).  A density operator takes the dense eigensolve.
    """
    if isinstance(rho, PureState):
        s = np.linalg.svd(rho.grid, compute_uv=False)
        min_eig = float(-s[0] * s[1]) + 0.0  # +0.0 avoids "-0.0"
        negativity = float(s[1:] @ np.cumsum(s)[:-1])
    else:
        eigs = hermitian_eigenvalues(partial_transpose_b(rho).entries)
        min_eig = float(eigs[0])
        negativity = float(-np.sum(eigs[eigs < 0.0])) + 0.0
    detected = min_eig < -TOL_PSD
    return CriterionReport(
        name="PPT",
        quantities={"min_eigenvalue": min_eig, "negativity": negativity},
        separable_bound_holds=not detected,
        entangled_detected=detected,
        conventions="partial transpose over mode b; negativity = sum |negative eigenvalues|",
    )


# -- closed forms for the one-excitation Bell family --------------------

def bell_closed_forms(alpha: complex, beta: complex, m: float = 1.0) -> dict:
    """Analytic witness values for alpha|1,0> + beta|0,1>.

    Returns M_closed (variance sum at gain m), Mx_closed (variance product
    at m=1), su11_reduced (positive exactly when the K-triple test fires),
    and the four partial-transpose eigenvalues.
    """
    if m == 0:
        raise ValueError("gain m must be nonzero")
    alpha, beta = complex(alpha), complex(beta)
    weight = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(weight - 1.0) > TOL_NORM:
        raise NormalizationError(
            f"|alpha|^2 + |beta|^2 = {weight!r}, expected 1 within {TOL_NORM}"
        )
    overlap = alpha.conjugate() * beta
    m2 = m * m
    return {
        "M_closed": m2 + 1.0 / m2 + 2.0 * (abs(alpha) ** 2 * m2 + abs(beta) ** 2 / m2),
        "Mx_closed": 4.0 - 4.0 * overlap.real**2,
        "su11_reduced": abs(overlap) ** 2 - 2.0 * overlap.real**2 * overlap.imag**2,
        "ppt_spectrum": sorted(
            (
                -abs(alpha) * abs(beta),
                abs(alpha) ** 2,
                abs(beta) ** 2,
                abs(alpha) * abs(beta),
            )
        ),
    }


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

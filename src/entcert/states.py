"""Constructors for the test states and separable control states.

Every constructor returns a normalized PureState in the requested
truncation together with a TruncationReport saying how much of the exact
(untruncated) state's weight the kept levels carry.  Constructors never
renormalize silently past tolerance: if the kept weight falls below
1 - trunc_tol they raise TruncationError instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, NormalizationError, TruncationError
from .fock import TOL_NORM, Cutoff, DensityOperator, PureState

DEFAULT_TRUNC_TOL = 1e-8


@dataclass(frozen=True)
class TruncationReport:
    """kept_weight: squared norm retained before renormalization."""

    kept_weight: float
    renormalized: bool


def bell_xp_state(alpha: complex, beta: complex, cutoff: Cutoff) -> PureState:
    """One shared excitation: alpha|1,0> + beta|0,1>, with |alpha|^2+|beta|^2 = 1.

    Exact in any truncation since no mode ever holds more than one photon.
    """
    alpha, beta = complex(alpha), complex(beta)
    weight = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(weight - 1.0) > TOL_NORM:
        raise NormalizationError(
            f"|alpha|^2 + |beta|^2 = {weight!r}, expected 1 within {TOL_NORM}"
        )
    amps = np.zeros(cutoff.dim, dtype=complex)
    amps[cutoff.index(1, 0)] = alpha
    amps[cutoff.index(0, 1)] = beta
    return PureState(amps, cutoff)


def _tmsv_amplitudes(r: float, phi: float, levels: int) -> np.ndarray:
    """Unnormalized diagonal Schmidt amplitudes sech(r) (e^{i phi} tanh r)^n."""
    lam = np.exp(1j * phi) * np.tanh(r)
    return np.array([lam**n for n in range(levels)], dtype=complex) / np.cosh(r)


def two_mode_squeezed_vacuum(
    r: float, phi: float, cutoff: Cutoff, trunc_tol: float = DEFAULT_TRUNC_TOL
) -> tuple[PureState, TruncationReport]:
    """Gaussian comparison state with amplitudes prop. to (e^{i phi} tanh r)^n on |n,n>.

    Convention check (frozen by the test suite): phi = pi makes
    u = x_a + x_b and v = p_a - p_b the squeezed pair, with
    Var(u) + Var(v) = 2 e^{-2r}.
    """
    if r < 0:
        raise ValueError(f"squeezing magnitude must be nonnegative, got r={r}")
    levels = min(cutoff.d_a, cutoff.d_b)
    diag = _tmsv_amplitudes(r, phi, levels)
    kept = float(np.sum(np.abs(diag) ** 2))
    if kept < 1.0 - trunc_tol:
        raise TruncationError(
            f"TMSV r={r} keeps only {kept:.12f} of its weight at cutoff "
            f"{cutoff.d_a}x{cutoff.d_b} (tolerance {trunc_tol:g})"
        )
    amps = np.zeros(cutoff.dim, dtype=complex)
    for n in range(levels):
        amps[cutoff.index(n, n)] = diag[n]
    amps /= np.linalg.norm(amps)
    return PureState(amps, cutoff), TruncationReport(kept, renormalized=kept != 1.0)


def photon_subtracted_tmsv(
    r: float, phi: float, cutoff: Cutoff, trunc_tol: float = DEFAULT_TRUNC_TOL
) -> tuple[PureState, TruncationReport]:
    """Non-Gaussian state: one photon removed from each mode of the TMSV.

    Applies the joint lowering a (x) b to the (unnormalized) truncated TMSV
    amplitudes and renormalizes; since a (x) b |n,n> = n |n-1,n-1>, the
    result is n sech(r) (e^{i phi} tanh r)^n on |n-1,n-1>.  kept_weight is
    quoted against the exact infinite-cutoff subtracted state, whose squared
    norm is t^2 (1 + t^2) / (1 - t^2)^2 with t = tanh r.  The common factor
    sech(r) t is divided out of both, so neither underflows as r -> 0, where
    the state tends to |0,0>; the phase e^{i phi} stays, so the state is the
    same vector as before the division.
    """
    if r < 0:
        raise ValueError(f"squeezing magnitude must be nonnegative, got r={r}")
    if r == 0:
        raise DegenerateStateError("photon subtraction from vacuum (r=0) gives the zero vector")
    levels = min(cutoff.d_a, cutoff.d_b)
    phase = np.exp(1j * phi)
    lam = phase * np.tanh(r)
    sub = np.zeros(cutoff.dim, dtype=complex)
    for n in range(1, levels):
        sub[cutoff.index(n - 1, n - 1)] = n * phase * lam ** (n - 1)
    # Exact squared norm over (sech(r) t)^2: sum_n n^2 t^(2n-2) = (1 + t^2) / (1 - t^2)^3.
    t2 = math.tanh(r) ** 2
    kept = float(np.vdot(sub, sub).real * (1.0 - t2) ** 3 / (1.0 + t2))
    if not kept >= 1.0 - trunc_tol:  # a NaN weight fails too
        raise TruncationError(
            f"photon-subtracted TMSV r={r} keeps only {kept:.12f} of its weight at "
            f"cutoff {cutoff.d_a}x{cutoff.d_b} (tolerance {trunc_tol:g})"
        )
    return PureState(sub / np.linalg.norm(sub), cutoff), TruncationReport(kept, renormalized=True)


def _coherent_amplitudes(alpha: complex, d: int) -> np.ndarray:
    """Truncated coherent amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    amps = np.empty(d, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, d):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def product_coherent(
    alpha_a: complex, alpha_b: complex, cutoff: Cutoff, trunc_tol: float = DEFAULT_TRUNC_TOL
) -> tuple[PureState, TruncationReport]:
    """Separable control state |alpha_a> (x) |alpha_b>, truncated and renormalized.

    Rule of thumb for the cutoff: d >= |alpha|^2 + 6|alpha| + 10 keeps the
    Poisson tail far below any tolerance used here; only the kept-weight
    check is enforced.
    """
    amps_a = _coherent_amplitudes(complex(alpha_a), cutoff.d_a)
    amps_b = _coherent_amplitudes(complex(alpha_b), cutoff.d_b)
    joint = np.kron(amps_a, amps_b)
    kept = float(np.vdot(joint, joint).real)
    if kept < 1.0 - trunc_tol:
        raise TruncationError(
            f"coherent product ({alpha_a}, {alpha_b}) keeps only {kept:.12f} of its "
            f"weight at cutoff {cutoff.d_a}x{cutoff.d_b} (tolerance {trunc_tol:g})"
        )
    return PureState(joint / np.linalg.norm(joint), cutoff), TruncationReport(
        kept, renormalized=kept != 1.0
    )


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-one projector |psi><psi|."""
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityOperator(mat, psi.cutoff)

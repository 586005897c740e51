"""Constructors for the test states and separable control states.

Every constructor returns a normalized PureState in the requested
truncation together with a TruncationReport saying how much of the exact
(untruncated) state's weight the kept levels carry.  Constructors never
renormalize silently past tolerance: if the kept weight falls below
1 - trunc_tol they raise TruncationError instead.
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DimensionError, NormalizationError, TruncationError
from .fock import TOL_NORM, Cutoff, DensityOperator, PureState, check_physical_memory, first_of

DEFAULT_TRUNC_TOL = 1e-8


@dataclass(frozen=True)
class TruncationReport:
    """kept_weight: squared norm retained before renormalization."""

    kept_weight: float
    renormalized: bool


def _check_bell_weight(alpha, beta) -> None:
    """Raise NormalizationError unless |alpha|^2 + |beta|^2 = 1 in every row; NaN
    fails, and so does a weight that overflows to inf."""
    with np.errstate(over="ignore"):
        weight = abs(alpha) ** 2 + abs(beta) ** 2
    bad = np.logical_not(abs(weight - 1.0) <= TOL_NORM)
    if np.count_nonzero(bad):
        raise NormalizationError(
            f"|alpha|^2 + |beta|^2 = {float(first_of(weight, bad))!r}, expected 1 within {TOL_NORM}"
        )


def bell_xp_state(alpha, beta, cutoff: Cutoff) -> PureState:
    """One shared excitation: alpha|1,0> + beta|0,1>, with |alpha|^2+|beta|^2 = 1.

    alpha and beta may be arrays, which broadcast to a batch of states, one
    per row, each checked for its weight.  Exact in any truncation since no
    mode ever holds more than one photon.
    """
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    _check_bell_weight(alpha, beta)
    amps = np.zeros(np.broadcast_shapes(alpha.shape, beta.shape) + (cutoff.dim,), dtype=complex)
    amps[..., cutoff.index(1, 0)] = alpha
    amps[..., cutoff.index(0, 1)] = beta
    return PureState(amps, cutoff)


def _check_not_infinite(**params) -> None:
    """Raise ValueError for an infinite parameter before numpy meets it, where
    it would warn and then yield NaN; a NaN parameter fails the kept-weight check."""
    for name, value in params.items():
        if cmath.isinf(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_kept(kept: float, subject: str, cutoff: Cutoff, trunc_tol: float) -> None:
    """Raise TruncationError unless the kept weight reaches 1 - trunc_tol; NaN does not."""
    if not kept >= 1.0 - trunc_tol:
        raise TruncationError(
            f"{subject} keeps only {kept:.12f} of its weight at cutoff "
            f"{cutoff.d_a}x{cutoff.d_b} (tolerance {trunc_tol:g})"
        )


def _tmsv_amplitudes(r: float, phi: float, levels: int) -> np.ndarray:
    """Unnormalized diagonal Schmidt amplitudes sech(r) (e^{i phi} tanh r)^n,
    with sech(r) = 2 e^{-r} / (1 + e^{-2r}), which cannot overflow as cosh(r) can."""
    lam = np.exp(1j * phi) * np.tanh(r)
    sech = 2.0 * np.exp(-r) / (1.0 + np.exp(-2.0 * r))
    return np.array([lam**n for n in range(levels)], dtype=complex) * sech


def two_mode_squeezed_vacuum(
    r: float, phi: float, cutoff: Cutoff, trunc_tol: float = DEFAULT_TRUNC_TOL
) -> tuple[PureState, TruncationReport]:
    """Gaussian comparison state with amplitudes prop. to (e^{i phi} tanh r)^n on |n,n>.

    Convention check (frozen by the test suite): phi = pi makes
    u = x_a + x_b and v = p_a - p_b the squeezed pair, with
    Var(u) + Var(v) = 2 e^{-2r}.
    """
    _check_not_infinite(r=r, phi=phi)
    if r < 0:
        raise ValueError(f"squeezing magnitude must be nonnegative, got r={r}")
    levels = min(cutoff.d_a, cutoff.d_b)
    diag = _tmsv_amplitudes(r, phi, levels)
    kept = float(np.sum(np.abs(diag) ** 2))
    _check_kept(kept, f"TMSV r={r}", cutoff, trunc_tol)
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
    _check_not_infinite(r=r, phi=phi)
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
    _check_kept(kept, f"photon-subtracted TMSV r={r}", cutoff, trunc_tol)
    return PureState(sub / np.linalg.norm(sub), cutoff), TruncationReport(kept, renormalized=True)


# Past this |alpha|^2 / 2, e^{-|alpha|^2/2} is below the smallest normal
# float: it loses bits from |alpha| = 37.6 and is 0 from |alpha| = 38.6.
_COHERENT_RECURRENCE_MAX = -math.log(sys.float_info.min)


def _coherent_amplitudes(alpha: complex, d: int) -> np.ndarray:
    """Truncated coherent amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!); all zero,
    so no weight is kept, when |alpha|^2 is past the float range.

    A recurrence from n = 0 while e^{-|alpha|^2/2} is a normal float; past
    that, each amplitude is taken from its logarithm.
    """
    try:
        half_mean_photons = abs(alpha) ** 2 / 2.0
    except OverflowError:
        return np.zeros(d, dtype=complex)
    if half_mean_photons > _COHERENT_RECURRENCE_MAX:
        n = np.arange(d)
        log_factorial = np.array([math.lgamma(k + 1.0) for k in range(d)])
        log_abs = n * math.log(abs(alpha)) - 0.5 * log_factorial - half_mean_photons
        return np.exp(log_abs) * np.exp(1j * cmath.phase(alpha) * n)
    amps = np.empty(d, dtype=complex)
    amps[0] = math.exp(-half_mean_photons)
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
    _check_not_infinite(alpha_a=alpha_a, alpha_b=alpha_b)
    amps_a = _coherent_amplitudes(complex(alpha_a), cutoff.d_a)
    amps_b = _coherent_amplitudes(complex(alpha_b), cutoff.d_b)
    joint = np.kron(amps_a, amps_b)
    kept = float(np.vdot(joint, joint).real)
    _check_kept(kept, f"coherent product ({alpha_a}, {alpha_b})", cutoff, trunc_tol)
    return PureState(joint / np.linalg.norm(joint), cutoff), TruncationReport(
        kept, renormalized=kept != 1.0
    )


# Dense dim x dim complex matrices density_from_pure holds at once: the outer
# product and DensityOperator's read-only copy; the Hermiticity check takes
# blocks of rows.  Measured with tracemalloc at cutoffs 20x20 to 40x40: a
# peak of 2.35 down to 2.02 matrices as the blocks' share shrinks, rounded up.
_DENSITY_MATRICES_HELD = 3


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-one projector |psi><psi|, refused before any matrix exists if it would not fit."""
    if psi.batch:
        raise DimensionError(f"density_from_pure takes one state, got a batch of shape {psi.batch}")
    cutoff = psi.cutoff
    needed = _DENSITY_MATRICES_HELD * np.dtype(complex).itemsize * cutoff.dim**2
    check_physical_memory(needed, f"a {cutoff.d_a}x{cutoff.d_b} density operator", "dense matrices")
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityOperator(mat, cutoff)

"""Dense linear algebra on a truncated two-mode Fock space.

Joint basis convention used everywhere in this package: the pair
(n_a, n_b) maps to the flat index k = n_a * d_b + n_b (row-major, mode a
outer).  With that ordering a joint operator O_a (x) O_b is exactly
``np.kron(op_a, op_b)``.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, HermiticityError, NormalizationError

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_NORM = 1e-10
TOL_PSD = 1e-10

# Margin below a separable bound before a witness fires; keeps states that
# merely saturate a bound (vacuum does, for several) out of the detections.
DETECTION_MARGIN = TOL_PSD


def fires(lhs: float, bound: float) -> bool:
    """The one verdict rule: lhs is below the separable bound by more than
    DETECTION_MARGIN * max(1, |lhs|, |bound|); element-wise on the arrays of
    a batch.  The margin scales with the values because the round-off of a
    moment polynomial does: a separable coherent state near |alpha| = 30
    saturates a bound of 8e5 to within 4e-10."""
    # Below the threshold of the largest of the three scales is below all
    # three thresholds; so written, Python floats give a Python bool.
    return (
        (lhs < bound - DETECTION_MARGIN)
        & (lhs < bound - DETECTION_MARGIN * abs(lhs))
        & (lhs < bound - DETECTION_MARGIN * abs(bound))
    )


@dataclass(frozen=True)
class Cutoff:
    """Per-mode truncation: mode a keeps levels 0..d_a-1, mode b 0..d_b-1."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 2 or self.d_b < 2:
            raise DimensionError(
                f"cutoff must keep at least two levels per mode, got {self.d_a}x{self.d_b}"
            )

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def index(self, n_a: int, n_b: int) -> int:
        """Flat joint-basis index of |n_a, n_b>."""
        if not (0 <= n_a < self.d_a and 0 <= n_b < self.d_b):
            raise DimensionError(f"level ({n_a},{n_b}) outside cutoff {self.d_a}x{self.d_b}")
        return n_a * self.d_b + n_b


def first_of(values, mask):
    """The first entry of values where mask holds, for an error message; a
    scalar counts as an array of one."""
    return np.asarray(values)[np.asarray(mask)][0]


def _frozen_copy(values) -> np.ndarray:
    """Private read-only complex copy, so no caller can change a state after the fact."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over the joint truncated basis, or a batch of them.

    ``amplitudes`` has shape ``(*batch, d_a*d_b)``: a 1-D vector is one
    state, and leading axes hold a batch whose rows are normalized one by
    one.  Moments and witnesses of a batch are arrays of shape ``batch``,
    each entry equal to the same quantity of that row built alone.  The
    amplitudes are a read-only copy of the constructor's input, which is
    what makes the per-state moment memo sound.  algebra fills ``_moments``
    (monomial -> moment) from Gram products of weighted shifts of the grid.
    States compare and hash by identity.
    """

    amplitudes: np.ndarray
    cutoff: Cutoff
    _moments: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        amps = _frozen_copy(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim == 0 or amps.shape[-1] != self.cutoff.dim:
            raise DimensionError(
                f"amplitude vector has shape {amps.shape}, expected (*batch, {self.cutoff.dim})"
            )
        # Sum of squares of the (re, im) pairs, row by row, without a temporary
        # as large as the amplitudes.
        pairs = amps.view(float)
        norm = np.sqrt(np.einsum("...k,...k->...", pairs, pairs))
        bad = np.logical_not(abs(norm - 1.0) <= TOL_NORM)  # a NaN norm fails too
        if np.count_nonzero(bad):
            raise NormalizationError(
                f"state norm {first_of(norm, bad)!r} differs from 1 beyond {TOL_NORM}"
            )

    def amplitude(self, n_a: int, n_b: int) -> complex:
        """<n_a, n_b|psi> of an unbatched state."""
        return complex(self.amplitudes[self.cutoff.index(n_a, n_b)])

    @property
    def batch(self) -> tuple:
        """Shape of the batch, () for one state."""
        return self.amplitudes.shape[:-1]

    @property
    def grid(self) -> np.ndarray:
        """Amplitudes as a read-only (*batch, d_a, d_b) array indexed [..., n_a, n_b]."""
        return self.amplitudes.reshape(*self.batch, self.cutoff.d_a, self.cutoff.d_b)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace matrix on the joint truncated basis.

    Hermiticity and trace are checked at construction; ``entries`` is a
    read-only copy of the input.  Positivity is not:
    the partial transpose of a state is carried by the same type and may
    have negative eigenvalues (that is what the PPT test looks for).  As for
    PureState, the read-only copy makes the ``_moments`` memo sound.
    """

    entries: np.ndarray
    cutoff: Cutoff
    _moments: dict = field(default_factory=dict, init=False, repr=False)
    batch = ()  # always one state; not a field

    def __post_init__(self):
        mat = _frozen_copy(self.entries)
        object.__setattr__(self, "entries", mat)
        d = self.cutoff.dim
        if mat.shape != (d, d):
            raise DimensionError(f"density matrix has shape {mat.shape}, expected ({d},{d})")
        check_hermitian(mat, TOL_HERM, "density matrix")
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= TOL_TRACE:
            raise NormalizationError(f"density matrix trace {tr!r} differs from 1")


# Entries per block of rows in check_hermitian: the block's temporaries
# (conjugate, difference, modulus) come to a quarter of a 400x400 matrix and
# less beyond, and at 144x144 two blocks took 0.10 ms against 0.17 ms for
# one whole-matrix pass (2-vCPU Xeon host, best of 7).
_HERM_BLOCK = 2**14


def check_hermitian(mat: np.ndarray, tol: float, subject: str) -> None:
    """Raise HermiticityError unless max |M - M^H| <= tol, a NaN failing; taken a
    block of rows at a time, so no temporary as large as the square M exists."""
    rows = max(1, _HERM_BLOCK // mat.shape[0])
    defect = 0.0
    # An infinite entry makes inf - inf, a NaN that fails the check below.
    with np.errstate(invalid="ignore"):
        for start in range(0, mat.shape[0], rows):
            block = mat[start : start + rows] - mat[:, start : start + rows].conj().T
            defect = np.maximum(defect, np.max(np.abs(block)))  # keeps a NaN
    if not defect <= tol:
        raise HermiticityError(f"{subject} Hermiticity defect {defect:.3e} exceeds {tol:.3g}")


def check_physical_memory(needed: int, subject: str, kind: str) -> None:
    """Raise DimensionError when subject needs more bytes of kind than the
    machine's physical memory; a platform without sysconf is not checked.
    Callers check before they allocate, so a refusal costs nothing."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return
    if needed > physical:
        raise DimensionError(
            f"{subject} needs about {needed / 2**30:.3g} GiB of {kind}, more than the "
            f"{physical / 2**30:.3g} GiB of physical memory"
        )


# What moments and witnesses accept; algebra fills either one's memo from one
# Gram table, built from a PureState's amplitude grid or gathered from a
# DensityOperator's shifted diagonals.
State = PureState | DensityOperator


def embed(op_a: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    """Joint operator op_a (x) op_b under the row-major (n_a, n_b) ordering."""
    op_a = np.asarray(op_a, dtype=complex)
    op_b = np.asarray(op_b, dtype=complex)
    if op_a.ndim != 2 or op_a.shape[0] != op_a.shape[1]:
        raise DimensionError(f"mode-a operator must be square, got shape {op_a.shape}")
    if op_b.ndim != 2 or op_b.shape[0] != op_b.shape[1]:
        raise DimensionError(f"mode-b operator must be square, got shape {op_b.shape}")
    return np.kron(op_a, op_b)


def partial_transpose_b(rho: DensityOperator) -> DensityOperator:
    """Transpose the mode-b indices: <na,nb|rho^PT|na',nb'> = <na,nb'|rho|na',nb>.

    Preserves trace and Hermiticity; the result is generally not positive
    semidefinite, which is exactly what the PPT criterion exploits.
    """
    return DensityOperator(partial_transpose_matrix(rho.entries, rho.cutoff), rho.cutoff)


def partial_transpose_matrix(op: np.ndarray, cutoff: Cutoff) -> np.ndarray:
    """Partial transpose of an arbitrary joint operator matrix (mode b)."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (cutoff.dim, cutoff.dim):
        raise DimensionError(f"operator shape {op.shape} inconsistent with cutoff {cutoff}")
    d_a, d_b = cutoff.d_a, cutoff.d_b
    return op.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(cutoff.dim, cutoff.dim)


def hermitian_eigenvalues(op: np.ndarray) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending.

    Raises HermiticityError when the input's Hermiticity defect exceeds
    TOL_HERM relative to the largest entry, or is NaN.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {op.shape}")
    scale = max(1.0, float(np.max(np.abs(op))))
    check_hermitian(op, TOL_HERM * scale, "matrix")
    return np.linalg.eigvalsh(op)


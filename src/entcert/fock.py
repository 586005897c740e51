"""Dense linear algebra on a truncated two-mode Fock space.

Joint basis convention used everywhere in this package: the pair
(n_a, n_b) maps to the flat index k = n_a * d_b + n_b (row-major, mode a
outer).  With that ordering a joint operator O_a (x) O_b is exactly
``np.kron(op_a, op_b)``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, HermiticityError, NormalizationError

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_NORM = 1e-10
TOL_PSD = 1e-10


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


def _frozen_copy(values) -> np.ndarray:
    """Private read-only complex copy, so no caller can change a state after the fact."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the joint truncated basis.

    The amplitudes are a read-only copy of the constructor's input, which
    is what makes the per-state moment memo sound.  algebra fills
    ``_moments`` (monomial -> moment) from Gram products of weighted shifts
    of the grid.
    """

    amplitudes: np.ndarray
    cutoff: Cutoff
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = _frozen_copy(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.cutoff.dim,):
            raise DimensionError(
                f"amplitude vector has shape {amps.shape}, expected ({self.cutoff.dim},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TOL_NORM:
            raise NormalizationError(f"state norm {norm!r} differs from 1 beyond {TOL_NORM}")

    def amplitude(self, n_a: int, n_b: int) -> complex:
        return complex(self.amplitudes[self.cutoff.index(n_a, n_b)])

    @property
    def grid(self) -> np.ndarray:
        """Amplitudes as a read-only d_a x d_b array indexed [n_a, n_b]."""
        return self.amplitudes.reshape(self.cutoff.d_a, self.cutoff.d_b)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace matrix on the joint truncated basis.

    Hermiticity and trace are checked at construction; ``entries`` is a
    read-only copy of the input.  Positivity is not:
    the partial transpose of a state is carried by the same type and may
    have negative eigenvalues (that is what the PPT test looks for).
    """

    entries: np.ndarray
    cutoff: Cutoff

    def __post_init__(self):
        mat = _frozen_copy(self.entries)
        object.__setattr__(self, "entries", mat)
        d = self.cutoff.dim
        if mat.shape != (d, d):
            raise DimensionError(f"density matrix has shape {mat.shape}, expected ({d},{d})")
        herm_defect = np.max(np.abs(mat - mat.conj().T))
        if herm_defect > TOL_HERM:
            raise HermiticityError(f"density matrix Hermiticity defect {herm_defect:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TOL_TRACE:
            raise NormalizationError(f"density matrix trace {tr!r} differs from 1")


# What moments and witnesses accept: a PureState is read from its amplitude
# grid, a DensityOperator from the shifted diagonals of its entries.
State = PureState | DensityOperator


def lowering_matrix(d: int) -> np.ndarray:
    """Single-mode annihilation matrix: a|n> = sqrt(n)|n-1>, levels 0..d-1."""
    if d < 1:
        raise DimensionError(f"need at least one basis level, got d={d}")
    mat = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        mat[n - 1, n] = np.sqrt(n)
    return mat


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


def hermitian_eigenvalues(op: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending.

    Raises HermiticityError when the input's Hermiticity defect exceeds
    ``tol`` relative to the largest entry.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {op.shape}")
    scale = max(1.0, float(np.max(np.abs(op))))
    defect = float(np.max(np.abs(op - op.conj().T)))
    if defect > tol * scale:
        raise HermiticityError(f"Hermiticity defect {defect:.3e} exceeds tolerance")
    return np.linalg.eigvalsh(op)


def expectation(rho: DensityOperator, op: np.ndarray) -> complex:
    """trace(rho @ op) for a joint operator matrix."""
    op = np.asarray(op, dtype=complex)
    if op.shape != rho.entries.shape:
        raise DimensionError(
            f"operator shape {op.shape} does not match state shape {rho.entries.shape}"
        )
    return complex(np.einsum("ij,ji->", rho.entries, op))

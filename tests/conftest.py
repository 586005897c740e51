"""Shared fixtures and brute-force oracle helpers.

The oracle path deliberately avoids the package's normal-ordering
algebra: operators are built by multiplying raw truncated ladder matrices
in the written order, so it can cross-check the symbolic route.
"""

import numpy as np
import pytest

from entcert import Cutoff, DensityOperator, embed, lowering_matrix

SQRT_HALF = 2.0**-0.5

# numpy moved ComplexWarning to numpy.exceptions in 1.25 and dropped the
# top-level name in 2.0, so no one "error::..." string in pyproject serves
# every numpy it allows; the filter is built from the class instead.
_COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config):
    """Fail on any discarded imaginary part, as on any RuntimeWarning."""
    config.addinivalue_line(
        "filterwarnings",
        f"error::{_COMPLEX_WARNING.__module__}.{_COMPLEX_WARNING.__qualname__}",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def ladder_ops(cutoff: Cutoff) -> dict:
    """Raw truncated joint ladder matrices, keyed by DSL symbol names."""
    low_a = embed(lowering_matrix(cutoff.d_a), np.eye(cutoff.d_b))
    low_b = embed(np.eye(cutoff.d_a), lowering_matrix(cutoff.d_b))
    return {
        "a": low_a,
        "ad": low_a.conj().T,
        "b": low_b,
        "bd": low_b.conj().T,
        "id": np.eye(cutoff.dim, dtype=complex),
    }


def word_matrix(word, cutoff: Cutoff) -> np.ndarray:
    """Matrix of a ladder word (sequence of symbol names), multiplied as written."""
    ops = ladder_ops(cutoff)
    mat = ops["id"]
    for symbol in word:
        mat = mat @ ops[symbol]
    return mat


def quad_matrices(cutoff: Cutoff) -> dict:
    ops = ladder_ops(cutoff)
    return {
        "xa": (ops["a"] + ops["ad"]) * SQRT_HALF,
        "pa": (ops["a"] - ops["ad"]) * (SQRT_HALF / 1j),
        "xb": (ops["b"] + ops["bd"]) * SQRT_HALF,
        "pb": (ops["b"] - ops["bd"]) * (SQRT_HALF / 1j),
    }


def random_density(rng, cutoff: Cutoff, levels_a=None, levels_b=None) -> DensityOperator:
    """Random full-rank state, optionally supported on the lowest levels only."""
    levels_a = cutoff.d_a if levels_a is None else levels_a
    levels_b = cutoff.d_b if levels_b is None else levels_b
    block = levels_a * levels_b
    gauss = rng.standard_normal((block, block)) + 1j * rng.standard_normal((block, block))
    small = gauss @ gauss.conj().T
    small /= np.trace(small)
    idx = [cutoff.index(na, nb) for na in range(levels_a) for nb in range(levels_b)]
    full = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    full[np.ix_(idx, idx)] = small
    return DensityOperator(full, cutoff)


def random_bell_params(rng) -> tuple[complex, complex]:
    vec = rng.standard_normal(4)
    alpha = complex(vec[0], vec[1])
    beta = complex(vec[2], vec[3])
    norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm

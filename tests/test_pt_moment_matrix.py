"""Robertson–Schrödinger oracle for the partially transposed uncertainty tests.

For operators A = (1, X, Y) the matrix M = [Tr(rho^PT A_i^dag A_j)] is a Gram
matrix, hence positive semidefinite, whenever rho^PT is a state, which it
is for every separable rho (Shchukin & Vogel, PRL 95, 230502).  SU2PT and
SU11PT test a consequence of that positivity, the Robertson product
4 Var(X) 4 Var(Y) >= |2<Z>|^2 on rho^PT, so whenever one of them fires, M
must have a negative eigenvalue.  Here X and Y are dense matrices built
from raw truncated ladder words and rho^PT comes from the dense partial
transpose, so nothing in the oracle goes through the normal-ordering
algebra.  States are drawn on levels 0..d-3 of a d cutoff: every product
of two of X, Y then stays inside the truncation, where a a^dag = a^dag a + 1
still holds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entcert import Cutoff, DensityOperator, partial_transpose_b, su2_pt_witness, su11_pt_witness

from conftest import SQRT_HALF, quad_matrices, word_matrix

# A verdict is only checked where the witness clears its bound by more
# than round-off can move the margin (see tests/test_pure_path.py).
CLEAR = 1e-8


def _words(terms: dict, cutoff: Cutoff) -> np.ndarray:
    """sum of coeff * (matrix of the word), each word multiplied as written."""
    return sum(coeff * word_matrix(word.split(), cutoff) for word, coeff in terms.items())


def _s_pair(cutoff):
    return (
        _words({"ad b": 0.5, "a bd": 0.5}, cutoff),
        _words({"ad b": 0.5 / 1j, "a bd": -0.5 / 1j}, cutoff),
    )


def _k_pair(cutoff):
    return (
        _words({"ad bd": 0.5, "a b": 0.5}, cutoff),
        _words({"ad bd": 0.5 / 1j, "a b": -0.5 / 1j}, cutoff),
    )


def _k_quad_pair(cutoff):
    q = quad_matrices(cutoff)
    return (
        (q["xa"] @ q["xb"] - q["pa"] @ q["pb"]) * 0.5,
        -(q["xa"] @ q["pb"] + q["pa"] @ q["xb"]) * 0.5,
    )


# (witness, builder of the dense (X, Y) pair it tests)
CASES = {
    "S": (su2_pt_witness, _s_pair),
    "K ladder": (lambda rho: su11_pt_witness(rho, "ladder"), _k_pair),
    "K quadrature": (lambda rho: su11_pt_witness(rho, "quadrature"), _k_quad_pair),
}


def _moment_matrix(rho: DensityOperator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M[i, j] = Tr(rho^PT A_i^dag A_j) for A = (1, X, Y)."""
    pt = partial_transpose_b(rho).entries
    ops = (np.eye(rho.cutoff.dim), x, y)
    return np.array([[np.trace(pt @ a.conj().T @ b) for b in ops] for a in ops])


def _state_on_low_levels(cutoff: Cutoff, block: np.ndarray) -> DensityOperator:
    """Embed a density block on levels 0..d_a-3 x 0..d_b-3 into the cutoff."""
    levels_a, levels_b = cutoff.d_a - 2, cutoff.d_b - 2
    idx = [cutoff.index(na, nb) for na in range(levels_a) for nb in range(levels_b)]
    full = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    full[np.ix_(idx, idx)] = block
    return DensityOperator(full, cutoff)


def _pure(cutoff: Cutoff, amplitudes: dict) -> DensityOperator:
    """|psi><psi| for psi = sum amplitude * |n_a, n_b>, levels within 0..d-3."""
    levels_b = cutoff.d_b - 2
    vec = np.zeros((cutoff.d_a - 2) * levels_b, dtype=complex)
    for (n_a, n_b), amp in amplitudes.items():
        vec[n_a * levels_b + n_b] = amp
    return _state_on_low_levels(cutoff, np.outer(vec, vec.conj()))


# The one-excitation Bell state fires the K tests; 0.96|0,0> + 0.28|2,2>
# fires the S test, through a negative 4 Var(S_y) on rho^PT.
BELL = _pure(Cutoff(4, 4), {(1, 0): SQRT_HALF, (0, 1): SQRT_HALF})
PAIRS = _pure(Cutoff(5, 5), {(0, 0): 0.96, (2, 2): 0.28})


@st.composite
def low_level_states(draw):
    """Random states of rank 1, 2 or full on levels 0..d-3 of a 4..6 cutoff."""
    cutoff = Cutoff(draw(st.integers(4, 6)), draw(st.integers(4, 6)))
    block = (cutoff.d_a - 2) * (cutoff.d_b - 2)
    rank = draw(st.sampled_from([1, 2, block]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gauss = rng.standard_normal((block, rank)) + 1j * rng.standard_normal((block, rank))
    small = gauss @ gauss.conj().T
    return _state_on_low_levels(cutoff, small / np.trace(small))


def _check(rho: DensityOperator, case: str) -> bool:
    """Assert the oracle on one state and triple; True when the witness fired."""
    witness, pair = CASES[case]
    report = witness(rho)
    q = report.quantities
    moments = _moment_matrix(rho, *pair(rho.cutoff))
    scale = max(1.0, abs(q["bracket1"]), abs(q["bracket2"]))
    assert 4.0 * (moments[1, 1] - moments[0, 1] ** 2) == pytest.approx(
        q["bracket1"], abs=1e-12 * scale
    )
    assert 4.0 * (moments[2, 2] - moments[0, 2] ** 2) == pytest.approx(
        q["bracket2"], abs=1e-12 * scale
    )
    if report.entangled_detected and q["rhs"] - q["lhs"] > CLEAR:
        assert np.linalg.eigvalsh(moments)[0] < 0.0, case
        return True
    return False


@settings(max_examples=100, deadline=None)
@given(rho=low_level_states())
@example(rho=BELL)
@example(rho=PAIRS)
def test_firing_pt_test_has_negative_moment_matrix(rho):
    for case in CASES:
        _check(rho, case)


@pytest.mark.parametrize(
    "rho, case",
    [(PAIRS, "S"), (BELL, "K ladder"), (BELL, "K quadrature")],
    ids=["pairs-S", "bell-K-ladder", "bell-K-quadrature"],
)
def test_oracle_sees_a_firing(rho, case):
    # The property above only constrains firing states; these fire.
    assert _check(rho, case)

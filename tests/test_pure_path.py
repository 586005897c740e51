"""The pure-state path against the density-operator path.

Moments, witnesses and DSL queries accept a PureState directly and read it
from its amplitude grid (PPT from its singular values).  On random states
and on the four CLI state kinds, every reported quantity must match the
same report on density_from_pure(psi), which gathers its moment table from
the shifted diagonals of the full d_a d_b x d_a d_b matrix and takes PPT
from the dense partial-transpose eigensolve.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcert import (
    Cutoff,
    DensityOperator,
    Monomial,
    OperatorPoly,
    PowerGuardError,
    PureState,
    bell_xp_state,
    density_from_pure,
    duan_witness,
    expectation_poly,
    mancini_witness,
    moment,
    partial_transpose_b,
    photon_subtracted_tmsv,
    ppt_witness,
    product_coherent,
    su2_pt_witness,
    su11_pt_witness,
    two_mode_squeezed_vacuum,
)
from entcert.criteria import BUILTIN_QUERIES, DETECTION_MARGIN
from entcert.dsl import evaluate_text

from conftest import random_density, word_matrix

TOL = 1e-10
# A verdict is only compared where its decision value is clear of the
# margin by more than round-off can move it.
CLEAR = 1e-8

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def random_pure(draw, min_levels=2, max_levels=8):
    """Random complex amplitude grid; a third are product states, a third rank two."""
    d_a = draw(st.integers(min_levels, max_levels))
    d_b = draw(st.integers(min_levels, max_levels))
    rank = draw(st.sampled_from([1, 2, None]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    grid = gauss(d_a, d_b) if rank is None else gauss(d_a, rank) @ gauss(rank, d_b)
    vec = grid.reshape(-1)
    return PureState(vec / np.linalg.norm(vec), Cutoff(d_a, d_b))


def _complex(draw, max_abs):
    radius = draw(st.floats(0.0, max_abs))
    return radius * np.exp(1j * draw(st.floats(-np.pi, np.pi)))


@st.composite
def cli_kinds(draw):
    """A state of one of the four kinds the CLI builds, at a modest cutoff."""
    kind = draw(st.sampled_from(["bell_xp", "tmsv", "photon_subtracted_tmsv", "product_coherent"]))
    phi = draw(st.floats(-np.pi, np.pi))
    if kind == "bell_xp":
        d = draw(st.integers(3, 5))
        theta = draw(st.floats(0.0, np.pi / 2))
        return bell_xp_state(np.cos(theta) * np.exp(1j * phi), np.sin(theta), Cutoff(d, d))
    cutoff = Cutoff(*draw(st.sampled_from([(10, 10), (12, 12)])))
    if kind == "tmsv":
        return two_mode_squeezed_vacuum(draw(st.floats(0.0, 0.5)), phi, cutoff, 1e-3)[0]
    if kind == "photon_subtracted_tmsv":
        return photon_subtracted_tmsv(draw(st.floats(0.05, 0.4)), phi, cutoff, 1e-3)[0]
    return product_coherent(_complex(draw, 1.0), _complex(draw, 1.0), cutoff, 1e-3)[0]


def _reports(state, gain):
    return {
        "mancini": mancini_witness(state),
        "duan_1": duan_witness(state, 1.0),
        "duan_gain": duan_witness(state, gain),
        "su2": su2_pt_witness(state),
        "su11_ladder": su11_pt_witness(state, "ladder"),
        "su11_quadrature": su11_pt_witness(state, "quadrature"),
        "ppt": ppt_witness(state),
    }


def _decision(report) -> float:
    """Value whose sign decides the verdict: detected exactly when it is < 0."""
    q = report.quantities
    if "M_x" in q:
        return q["M_x"] - (q["bound_M_x"] - DETECTION_MARGIN)
    if "bound" in q:
        return q["M"] - (q["bound"] - DETECTION_MARGIN)
    if "min_eigenvalue" in q:
        return q["min_eigenvalue"] + DETECTION_MARGIN
    return q["lhs"] - (q["rhs"] - DETECTION_MARGIN)


def _assert_same_reports(psi, gain):
    pure = _reports(psi, gain)
    dense = _reports(density_from_pure(psi), gain)
    for key, report in pure.items():
        reference = dense[key]
        assert report.name == reference.name
        assert report.quantities.keys() == reference.quantities.keys()
        for name, value in report.quantities.items():
            assert value == pytest.approx(reference.quantities[name], rel=TOL, abs=TOL), (key, name)
        if abs(_decision(reference)) > CLEAR:
            assert report.entangled_detected == reference.entangled_detected, key
            assert report.separable_bound_holds == reference.separable_bound_holds, key


@PROPERTY
@given(random_pure(min_levels=3), st.floats(0.2, 5.0))
def test_witnesses_match_dense_on_random_states(psi, gain):
    _assert_same_reports(psi, gain)


@PROPERTY
@given(cli_kinds(), st.floats(0.2, 5.0))
def test_witnesses_match_dense_on_cli_kinds(psi, gain):
    _assert_same_reports(psi, gain)


@PROPERTY
@given(st.one_of(random_pure(), cli_kinds()))
def test_ppt_matches_dense_spectrum(psi):
    eigs = np.linalg.eigvalsh(partial_transpose_b(density_from_pure(psi)).entries)
    report = ppt_witness(psi)
    assert report.quantities["min_eigenvalue"] == pytest.approx(eigs[0], abs=TOL)
    assert report.quantities["negativity"] == pytest.approx(-np.sum(eigs[eigs < 0.0]), abs=TOL)
    assert report.quantities["negativity"] >= 0.0


@PROPERTY
@given(random_pure(min_levels=3, max_levels=6), st.integers(0, 2**32 - 1))
def test_moments_match_dense(psi, seed):
    rng = np.random.default_rng(seed)
    rho = density_from_pure(psi)
    for _ in range(10):
        powers_a = rng.multinomial(int(rng.integers(0, psi.cutoff.d_a)), [0.5, 0.5])
        powers_b = rng.multinomial(int(rng.integers(0, psi.cutoff.d_b)), [0.5, 0.5])
        mono = (*powers_a, *powers_b)
        assert moment(psi, mono) == pytest.approx(moment(rho, mono), rel=TOL, abs=TOL)


@st.composite
def random_mixed(draw, min_levels=2, max_levels=8):
    """Random full-rank DensityOperator with support up to the top levels."""
    d_a = draw(st.integers(min_levels, max_levels))
    d_b = draw(st.integers(min_levels, max_levels))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_density(rng, Cutoff(d_a, d_b))


@PROPERTY
@given(st.one_of(random_pure(), random_mixed()), st.data())
def test_memo_growth_matches_word_matrix(state, data):
    """A small fill first, then E[a^3 b^3] and edge-of-guard monomials, each
    filling the rectangle of shifts of its own monomial or, past its size
    cap, reading the two shifts of that monomial; on pure and mixed states."""
    d_a, d_b = state.cutoff.d_a, state.cutoff.d_b
    rho = state if isinstance(state, DensityOperator) else density_from_pure(state)
    m = data.draw(st.integers(0, d_a - 1))
    p = data.draw(st.integers(0, d_b - 1))
    edges = [(m, d_a - 1 - m, p, d_b - 1 - p), (d_a - 1, 0, 0, d_b - 1), (m, d_a - m, 0, 0)]
    for mono in [(1, 1, 0, 0), (0, 3, 0, 3), *edges]:
        poly = OperatorPoly({Monomial(*mono): 1.0})
        if mono[0] + mono[1] >= d_a or mono[2] + mono[3] >= d_b:
            with pytest.raises(PowerGuardError):
                expectation_poly(state, poly)
            assert mono not in state._moments
            continue
        word = ["ad"] * mono[0] + ["a"] * mono[1] + ["bd"] * mono[2] + ["b"] * mono[3]
        dense = np.einsum("ij,ji->", rho.entries, word_matrix(word, state.cutoff))
        assert abs(expectation_poly(state, poly) - dense) <= 1e-12 * max(1.0, abs(dense)), mono


@PROPERTY
@given(random_pure(max_levels=2))
def test_power_guard_fires_on_pure_state(psi):
    # Every fourth-order and variance witness needs three levels per mode.
    for witness in (mancini_witness, duan_witness, su2_pt_witness, su11_pt_witness):
        with pytest.raises(PowerGuardError):
            witness(psi)
    with pytest.raises(PowerGuardError):
        su11_pt_witness(psi, "quadrature")


@PROPERTY
@given(st.one_of(random_pure(min_levels=3), cli_kinds()))
def test_builtin_queries_match_dense(psi):
    rho = density_from_pure(psi)
    for name, text in BUILTIN_QUERIES.items():
        pure, dense = evaluate_text(text, psi), evaluate_text(text, rho)
        assert pure.lhs == pytest.approx(dense.lhs, rel=TOL, abs=TOL), name
        assert pure.rhs == pytest.approx(dense.rhs, rel=TOL, abs=TOL), name
        if abs(dense.lhs - dense.rhs) > CLEAR:
            assert pure.holds == dense.holds, name


@pytest.mark.parametrize("d_a, d_b", [(256, 256), (3, 40000)])
def test_witness_set_memory_past_chunk_floor(d_a, d_b):
    from entcert import algebra
    from entcert.cli import _GRID_ARRAYS_HELD

    # The witnesses fill one 3x3 rectangle of shifts; its stack of nine grids
    # is past the chunk floor, so it is built a chunk of about one grid at a
    # time (at 3 x 40000, one mode-a row of the stack is three grids).
    assert 9 * d_a * d_b > algebra._CHUNK_FLOOR
    grid_bytes = np.dtype(complex).itemsize * d_a * d_b
    tracemalloc.start()
    try:
        psi = product_coherent(0.5, 0.5j, Cutoff(d_a, d_b), trunc_tol=0.1)[0]
        _reports(psi, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _GRID_ARRAYS_HELD * grid_bytes, peak / grid_bytes

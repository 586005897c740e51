"""A batched PureState is the same computation as each of its rows alone.

Moments, witnesses and PPT accept amplitudes of shape (*batch, d_a*d_b).
Every quantity of a batch must equal, bit for bit, the same quantity of
each row built as its own PureState, and a witness must raise on a batch
exactly where it raises on one of its rows.  The sweep makes one batch per
block of rows, so it calls the Gram product and the singular-value solve
once per block.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcert import (
    Cutoff,
    DimensionError,
    Monomial,
    NormalizationError,
    PureState,
    bell_closed_forms,
    bell_xp_state,
    density_from_pure,
    duan_witness,
    expectation_poly,
    mancini_witness,
    moment,
    ppt_witness,
    su2_pt_witness,
    su11_pt_witness,
)
from entcert import algebra, criteria
from entcert.cli import _GRID_ARRAYS_HELD, _SWEEP_SHIFTS, _sweep_rows, main
from entcert.dsl import evaluate_text

PROPERTY = settings(max_examples=40, deadline=None)


def _witnesses(gain):
    """Every witness in one fixed order, so a batch and a lone row fill their
    moment memos from the same polynomials in the same order."""
    return [
        mancini_witness,
        lambda state: duan_witness(state, 1.0),
        lambda state: duan_witness(state, gain),
        su2_pt_witness,
        lambda state: su11_pt_witness(state, "ladder"),
        lambda state: su11_pt_witness(state, "quadrature"),
        ppt_witness,
    ]


def _outcome(witness, state):
    try:
        return witness(state)
    except Exception as exc:  # the error type is what must agree
        return type(exc)


def _assert_rows_match(batch: PureState, rows: list, gain: float):
    lone = [PureState(row, batch.cutoff) for row in rows]
    for witness in _witnesses(gain):
        batched = _outcome(witness, batch)
        singles = [_outcome(witness, state) for state in lone]
        if isinstance(batched, type):
            assert batched in singles
            continue
        for index, single in enumerate(singles):
            assert not isinstance(single, type), (batched.name, single)
            assert batched.quantities.keys() == single.quantities.keys()
            for key, value in batched.quantities.items():
                if np.ndim(value):
                    assert value[index] == single.quantities[key], (batched.name, key, index)
                else:  # gains and bounds do not depend on the state
                    assert value == single.quantities[key]
            assert batched.entangled_detected[index] == single.entangled_detected
            assert batched.separable_bound_holds[index] == single.separable_bound_holds


@st.composite
def bell_batch(draw):
    d_a, d_b = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(0.0, np.pi / 2, count)
    alpha = np.cos(theta) * np.exp(1j * rng.uniform(-np.pi, np.pi, count))
    beta = np.sin(theta) * np.exp(1j * rng.uniform(-np.pi, np.pi, count))
    return alpha, beta, Cutoff(d_a, d_b)


@st.composite
def grid_batch(draw):
    """Random complex amplitude grids, normalized row by row."""
    d_a, d_b = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal((count, d_a * d_b)) + 1j * rng.standard_normal((count, d_a * d_b))
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True), Cutoff(d_a, d_b)


@PROPERTY
@given(bell_batch(), st.floats(0.2, 5.0))
def test_bell_batch_matches_each_row(params, gain):
    alpha, beta, cutoff = params
    batch = bell_xp_state(alpha, beta, cutoff)
    rows = [bell_xp_state(a, b, cutoff).amplitudes for a, b in zip(alpha, beta)]
    assert np.array_equal(batch.amplitudes, rows)
    _assert_rows_match(batch, rows, gain)


@PROPERTY
@given(grid_batch(), st.floats(0.2, 5.0))
def test_grid_batch_matches_each_row(params, gain):
    amps, cutoff = params
    _assert_rows_match(PureState(amps, cutoff), list(amps), gain)


@PROPERTY
@given(grid_batch(), st.integers(0, 2**32 - 1))
def test_complex_coefficients_match_each_row(params, seed):
    """A coefficient with both parts nonzero, which the witnesses never have:
    numpy's complex product may round it differently in the last bit."""
    amps, cutoff = params
    rng = np.random.default_rng(seed)
    terms = {
        Monomial(m, n, p, q): complex(*rng.standard_normal(2))
        for m, n, p, q in rng.integers(0, 2, (6, 4))
        if m + n < cutoff.d_a and p + q < cutoff.d_b
    }
    poly = algebra.OperatorPoly(terms)
    batched = expectation_poly(PureState(amps, cutoff), poly)
    singles = [expectation_poly(PureState(row, cutoff), poly) for row in amps]
    assert batched.tolist() == pytest.approx(singles, rel=1e-14, abs=1e-14)


def _python_closed_forms(alpha: complex, beta: complex, m: float) -> dict:
    """The closed forms in Python arithmetic on one pair."""
    overlap = alpha.conjugate() * beta
    m2 = m * m
    return {
        "M_closed": m2 + 1.0 / m2 + 2.0 * (abs(alpha) ** 2 * m2 + abs(beta) ** 2 / m2),
        "Mx_closed": 4.0 - 4.0 * overlap.real**2,
        "su11_reduced": abs(overlap) ** 2 - 2.0 * overlap.real**2 * overlap.imag**2,
        "ppt_spectrum": sorted(
            (-abs(alpha) * abs(beta), abs(alpha) ** 2, abs(beta) ** 2, abs(alpha) * abs(beta))
        ),
    }


def _same_floats(left, right) -> bool:
    """Equal with ==, and with the same sign bit on every zero."""
    left, right = np.asarray(left), np.asarray(right)
    return np.array_equal(left, right) and np.array_equal(np.signbit(left), np.signbit(right))


# Pairs with a zero coefficient or a signed zero part, where the PPT
# spectrum holds -0.0 and 0.0 in an order only a stable sort keeps.
_EDGE_PAIRS = [(1.0, 0.0), (0.0, -1.0), (-1.0, -0.0), (1j, complex(-0.0, -0.0)), (-0.0, 1j)]


@PROPERTY
@given(bell_batch(), st.lists(st.sampled_from(_EDGE_PAIRS), max_size=3), st.floats(0.2, 5.0))
def test_closed_forms_batch_matches_each_pair(params, edges, gain):
    alpha, beta, _ = params
    alpha = np.concatenate([alpha, [a for a, _ in edges]])
    beta = np.concatenate([beta, [b for _, b in edges]])
    batched = bell_closed_forms(alpha, beta, gain)
    assert batched["ppt_spectrum"].shape == alpha.shape + (4,)
    for index, (a, b) in enumerate(zip(alpha.tolist(), beta.tolist())):
        single = bell_closed_forms(a, b, gain)
        python = _python_closed_forms(a, b, gain)
        assert [type(value) for value in single.values()] == [float, float, float, list]
        for key, value in single.items():
            assert batched[key].shape[: alpha.ndim] == alpha.shape
            assert _same_floats(batched[key][index], value), (key, index)
            assert _same_floats(value, python[key]), (key, index)


def test_product_rounds_as_python():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    z = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    expected = [a * b for a, b in zip(c.tolist(), z.tolist())]
    assert algebra._product(c, z).tolist() == expected
    assert [algebra._product(a, b) for a, b in zip(c.tolist(), z.tolist())] == expected


def test_batch_shape_of_moments_and_grid():
    cutoff = Cutoff(3, 4)
    psi = bell_xp_state(np.full((2, 3), 0.6), np.full((2, 3), 0.8j), cutoff)
    assert psi.amplitudes.shape == (2, 3, 12)
    assert psi.grid.shape == (2, 3, 3, 4)
    assert moment(psi, Monomial(1, 1, 0, 0)).shape == (2, 3)
    assert np.all(moment(psi, Monomial(1, 1, 0, 0)) == pytest.approx(0.36))


def test_zero_operator_mean_has_batch_shape():
    # With no terms the sum was the Python 0j for a batch too, which a
    # hypothesis run of test_complex_coefficients_match_each_row drew.
    batch = bell_xp_state([0.6, 1.0], [0.8, 0.0], Cutoff(2, 2))
    zero = algebra.OperatorPoly({})
    assert expectation_poly(batch, zero).tolist() == [0j, 0j]
    assert type(expectation_poly(bell_xp_state(0.6, 0.8, Cutoff(2, 2)), zero)) is complex


def test_single_state_reports_python_numbers():
    psi = bell_xp_state(0.6, 0.8, Cutoff(3, 3))
    for witness in _witnesses(1.5):
        report = witness(psi)
        assert type(report.entangled_detected) is bool
        assert type(report.separable_bound_holds) is bool
        assert all(type(value) is float for value in report.quantities.values()), report.name
    xa = algebra.QUADRATURES["xa"]
    assert type(expectation_poly(psi, xa * xa)) is complex


def test_batched_memo_is_read_only():
    psi = bell_xp_state([0.6, 1.0], [0.8, 0.0], Cutoff(3, 3))
    mancini_witness(psi)
    assert psi._moments
    for value in psi._moments.values():
        assert isinstance(value, np.ndarray) and value.shape == (2,)
        with pytest.raises(ValueError):
            value[0] = 1.0


def test_norm_and_weight_checked_per_row():
    cutoff = Cutoff(2, 2)
    with pytest.raises(NormalizationError, match="1.5"):
        bell_xp_state([1.0, 1.0], [0.0, math.sqrt(0.5)], cutoff)
    amps = np.zeros((3, 4))
    amps[:, 0] = [1.0, 1.0, np.nan]
    with pytest.raises(NormalizationError, match="nan"):
        PureState(amps, cutoff)
    with pytest.raises(DimensionError):
        PureState(np.zeros((2, 5)), cutoff)


@pytest.mark.parametrize("rows", [1, 2])
def test_density_and_dsl_take_one_state(rows):
    batch = bell_xp_state([0.6] * rows, [0.8] * rows, Cutoff(3, 3))
    with pytest.raises(DimensionError, match="batch"):
        density_from_pure(batch)
    with pytest.raises(DimensionError, match="batch"):
        evaluate_text("Var[xa+xb]*Var[pa-pb] >= 1", batch)


def test_sweep_solves_once_per_block(tmp_path, monkeypatch):
    cutoff = Cutoff(3, 3)
    block = algebra.rows_per_batch(cutoff, _SWEEP_SHIFTS)
    rows = 12 * 32
    assert 1 < block < rows
    calls = {"gram": 0, "svd": 0}
    real_gram, real_svd = algebra._gram, np.linalg.svd

    def gram(*args):
        calls["gram"] += 1
        return real_gram(*args)

    def svd(*args, **kwargs):
        calls["svd"] += 1
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(algebra, "_gram", gram)
    monkeypatch.setattr(np.linalg, "svd", svd)
    # Every per-row quantity comes from one batched call per block.
    names = [
        "mancini_witness", "duan_witness", "su2_pt_witness", "su11_pt_witness",
        "ppt_witness", "bell_closed_forms",
    ]
    for name in names:
        calls[name] = 0

        def counted(*args, _name=name, _real=getattr(criteria, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(criteria, name, counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sweep": {"n_theta": 12, "n_phi": 32, "m_values": [0.5, 1, 2]}}))
    assert main(["sweep", str(config), str(tmp_path / "scan.csv")]) == 0
    blocks = -(-rows // block)
    assert blocks == 2
    per_block = {**dict.fromkeys(names, blocks), "duan_witness": 3 * blocks}  # three gains
    assert calls == {"gram": blocks, "svd": blocks, **per_block}
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == rows + 1


def test_sweep_memory_at_large_cutoff(tmp_path):
    # Past the chunk floor a block is one row, so a sweep holds what one
    # state's witness set holds.
    d = 256
    assert algebra.rows_per_batch(Cutoff(d, d), _SWEEP_SHIFTS) == 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sweep": {"n_theta": 2, "n_phi": 2, "m_values": [0.5, 2]}}))
    args = ["sweep", str(config), str(tmp_path / "scan.csv"), "--cutoff", str(d), str(d)]
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_bytes = np.dtype(complex).itemsize * d * d
    assert peak <= _GRID_ARRAYS_HELD * grid_bytes, peak / grid_bytes


def test_sweep_streams_its_grid():
    # A 300x300 grid held as a list of rows took about 16 MB before the
    # first row; drawn a block at a time, the first row costs one block's work.
    tracemalloc.start()
    try:
        next(_sweep_rows(Cutoff(3, 3), 300, 300, [1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak

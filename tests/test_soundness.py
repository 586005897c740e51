"""Soundness on separable states: no witness fires, every builtin query holds.

States are product pure states and convex mixtures of two or three product
states (as DensityOperator), at 3..6 levels per mode.  Each mode's factor
is either a random vector or a single number state, so the vacuum and
other product number states, which saturate several bounds, come up too;
there the verdict rests on the detection margin that the witnesses and
the DSL share.  Coherent products with one vacuum mode saturate the
K-triple bound too, at values of order |alpha|^4 (8e5 at |alpha| = 30);
they go through `entcert evaluate` at its default cutoff, and the margin
must scale with the values.
"""

import cmath
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entcert import (
    Cutoff,
    DensityOperator,
    PureState,
    duan_witness,
    mancini_witness,
    ppt_witness,
    su2_pt_witness,
    su11_pt_witness,
)
from entcert.cli import main
from entcert.criteria import BUILTIN_QUERIES
from entcert.dsl import evaluate_text

PROPERTY = settings(max_examples=40, deadline=None)

VACUUM = PureState(np.eye(1, 9, dtype=complex)[0], Cutoff(3, 3))
VACUUM_RHO = DensityOperator(np.outer(VACUUM.amplitudes, VACUUM.amplitudes), VACUUM.cutoff)


@st.composite
def separable_states(draw):
    d_a = draw(st.integers(3, 6))
    d_b = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor(d):
        level = draw(st.one_of(st.none(), st.integers(0, d - 1)))
        if level is None:
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        else:
            vec = np.zeros(d, dtype=complex)
            vec[level] = np.exp(1j * rng.uniform(-np.pi, np.pi))
        return vec / np.linalg.norm(vec)

    cutoff = Cutoff(d_a, d_b)
    products = [np.kron(factor(d_a), factor(d_b)) for _ in range(draw(st.integers(1, 3)))]
    if len(products) == 1:
        return PureState(products[0], cutoff)
    weights = rng.dirichlet(np.ones(len(products)))
    rho = sum(w * np.outer(vec, vec.conj()) for w, vec in zip(weights, products))
    return DensityOperator(rho, cutoff)


@PROPERTY
@given(rho=separable_states(), m=st.floats(0.3, 3.0))
@example(rho=VACUUM, m=1.0)
@example(rho=VACUUM_RHO, m=1.0)
def test_no_witness_fires_on_separable_states(rho, m):
    reports = [
        mancini_witness(rho),
        duan_witness(rho, m),
        su2_pt_witness(rho),
        su11_pt_witness(rho, "ladder"),
        su11_pt_witness(rho, "quadrature"),
        ppt_witness(rho),
    ]
    assert [report.name for report in reports if report.entangled_detected] == []
    failing = [
        name for name, query in BUILTIN_QUERIES.items() if not evaluate_text(query, rho).holds
    ]
    assert failing == []


@settings(max_examples=100, deadline=None)
@given(
    radius=st.floats(0.0, 40.0),
    angle=st.floats(-np.pi, np.pi),
    vacuum_in_a=st.booleans(),
)
# The quadrature K-triple fired here: lhs 811800.9998337552 against rhs
# 811800.9998337555, below it by more than an absolute margin of 1e-10.
@example(radius=30.0, angle=0.0, vacuum_in_a=False)
def test_no_witness_fires_on_coherent_products_with_a_vacuum_mode(radius, angle, vacuum_in_a):
    alpha = cmath.rect(radius, angle)
    amplitudes = [{"re": alpha.real, "im": alpha.imag}, {"re": 0.0, "im": 0.0}]
    if vacuum_in_a:
        amplitudes.reverse()
    state = {"kind": "product_coherent", "alpha_a": amplitudes[0], "alpha_b": amplitudes[1]}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "coherent.json"
        config.write_text(json.dumps({"state": state}))
        with redirect_stdout(io.StringIO()) as out:
            assert main(["evaluate", str(config)]) == 0
    reports = json.loads(out.getvalue())["reports"]
    fired = [
        report["name"]
        for report in [*reports.values(), *reports["duan"]]
        if isinstance(report, dict) and report["entangled_detected"]
    ]
    assert fired == []

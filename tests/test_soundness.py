"""Soundness on separable states: no witness fires, every builtin query holds.

States are product pure states and convex mixtures of two or three product
states (as DensityOperator), at 3..6 levels per mode.  Each mode's factor
is either a random vector or a single number state, so the vacuum and
other product number states, which saturate several bounds, come up too;
there the verdict rests on the detection margin that the witnesses and
the DSL share.
"""

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

"""Witness verdicts do not depend on where a well-truncated state is cut.

Each state is built at the smallest square cutoff d (at least the three
levels per mode the fourth-order witnesses need) whose kept weight meets
the default 1e-8 tolerance, and again at d + 2.  Every verdict must agree:
a verdict that moved would come from the truncation edge, not the state.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from entcert import (
    Cutoff,
    TruncationError,
    duan_witness,
    mancini_witness,
    photon_subtracted_tmsv,
    ppt_witness,
    product_coherent,
    su2_pt_witness,
    su11_pt_witness,
    two_mode_squeezed_vacuum,
)

PROPERTY = settings(max_examples=40, deadline=None)

PHASES = st.floats(0.0, 2.0 * math.pi)
AMPLITUDES = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


def _smallest_cutoff(build) -> int:
    for d in range(3, 200):
        try:
            build(Cutoff(d, d))
        except TruncationError:
            continue
        return d
    raise AssertionError("no cutoff below 200 meets the truncation tolerance")


def _verdicts(psi, gain: float) -> dict:
    reports = {
        "mancini": mancini_witness(psi),
        "duan": duan_witness(psi, gain),
        "su2_pt": su2_pt_witness(psi),
        "su11_ladder": su11_pt_witness(psi, "ladder"),
        "su11_quadrature": su11_pt_witness(psi, "quadrature"),
        "ppt": ppt_witness(psi),
    }
    return {name: report.entangled_detected for name, report in reports.items()}


def _assert_stable(build, gain: float):
    d = _smallest_cutoff(build)
    psi_d, psi_wider = (build(Cutoff(k, k))[0] for k in (d, d + 2))
    assert _verdicts(psi_d, gain) == _verdicts(psi_wider, gain)


@PROPERTY
@given(r=st.floats(0.0, 1.2), phi=PHASES, gain=st.floats(0.3, 3.0))
def test_tmsv_verdicts_stable(r, phi, gain):
    _assert_stable(lambda c: two_mode_squeezed_vacuum(r, phi, c), gain)


@PROPERTY
@given(r=st.floats(0.01, 1.2), phi=PHASES, gain=st.floats(0.3, 3.0))
def test_photon_subtracted_verdicts_stable(r, phi, gain):
    _assert_stable(lambda c: photon_subtracted_tmsv(r, phi, c), gain)


@PROPERTY
@given(alpha_a=AMPLITUDES, alpha_b=AMPLITUDES, gain=st.floats(0.3, 3.0))
def test_coherent_verdicts_stable(alpha_a, alpha_b, gain):
    _assert_stable(lambda c: product_coherent(alpha_a, alpha_b, c), gain)


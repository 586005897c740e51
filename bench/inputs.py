"""Seeded request generators, one per workload.

Request ``index`` of a run with ``seed`` is drawn from its own random
stream, so it is the same whichever process builds it and however many
requests came before.  Warm-up requests use a separate stream.  Every
parameter range is chosen so that the program accepts the input at the
default truncation tolerance (``tests/test_bench.py`` checks the range
ends), so no request fails by construction.
"""

import math

import numpy as np

TIMED, WARMUP = 0, 1


def rng_for(seed: int, index: int, stream: int = TIMED) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index))


def _gains(rng, params, first=None) -> list[float]:
    low, high = params["gain_range"]
    drawn = [float(g) for g in rng.uniform(low, high, size=params["gains"])]
    if first is not None:
        drawn[0] = first
    return drawn


def _complex(rng, amplitude_max: float) -> dict:
    radius = amplitude_max * math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return {"re": radius * math.cos(angle), "im": radius * math.sin(angle)}


def sweep_request(params: dict, rng) -> dict:
    """A `sweep` config: a Bell grid with a fixed row count and seeded gains."""
    shapes = params["grid_shapes"]
    n_theta, n_phi = shapes[int(rng.integers(len(shapes)))]
    return {"sweep": {"n_theta": n_theta, "n_phi": n_phi, "m_values": _gains(rng, params)}}


def squeezed_state(kind: str, cutoff: int, params: dict, rng) -> dict:
    low, high = params["r_range"]
    return {
        "kind": kind,
        "r": float(rng.uniform(low, high)),
        "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
        "cutoff": {"d_a": cutoff, "d_b": cutoff},
    }


def coherent_state(cutoff: int, params: dict, rng) -> dict:
    amax = params["coherent_amplitude_max"]
    return {
        "kind": "product_coherent",
        "alpha_a": _complex(rng, amax),
        "alpha_b": _complex(rng, amax),
        "cutoff": {"d_a": cutoff, "d_b": cutoff},
    }


def evaluate_request(params: dict, rng, index: int) -> dict:
    """An `evaluate` config; kind and cutoff follow a fixed schedule so that
    every seed has the same mix of request sizes."""
    schedule = params["schedule"]
    kind, cutoff = schedule[index % len(schedule)]
    if kind == "product_coherent":
        state = coherent_state(cutoff, params, rng)
    else:
        state = squeezed_state(kind, cutoff, params, rng)
    return {"state": state, "witnesses": {"duan_m": _gains(rng, params)}}


def library_request(params: dict, rng, index: int) -> dict:
    """A mixture p |squeezed><squeezed| + (1-p) |coherent><coherent|.

    Gain 1 is always among the Duan gains, so the `duan_m1` query has a
    witness to agree with.
    """
    kinds = params["kinds"]
    cutoff = params["cutoff"]
    low, high = params["mix_weight_range"]
    return {
        "squeezed": squeezed_state(kinds[index % len(kinds)], cutoff, params, rng),
        "coherent": coherent_state(cutoff, params, rng),
        "weight": float(rng.uniform(low, high)),
        "duan_m": _gains(rng, params, first=1.0),
    }


def make_request(workload: str, params: dict, seed: int, index: int, stream: int = TIMED):
    rng = rng_for(seed, index, stream)
    if workload == "sweep_bell":
        return sweep_request(params, rng)
    if workload == "evaluate_cold":
        return evaluate_request(params, rng, index)
    if workload == "library_mixed":
        size = params["states_per_request"]
        return {"states": [library_request(params, rng, index * size + k) for k in range(size)]}
    raise KeyError(f"unknown workload {workload!r}")

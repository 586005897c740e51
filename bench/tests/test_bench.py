"""Tests of the benchmark itself: tiny runs of every workload, the oracles
on real and corrupted outputs, the generators' ranges, and BENCHMARK.json.  Run with ``python -m pytest bench/tests``."""

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import inputs
import oracle
import run
import speed
import worker
from entcert import cli, criteria, states
from entcert.fock import Cutoff

# Small enough for a test, same code paths as the real workloads.
TINY = {
    "sweep_bell": {"grid_shapes": [[3, 4]]},
    "evaluate_cold": {
        "schedule": [["photon_subtracted_tmsv", 10], ["product_coherent", 10], ["tmsv", 10]],
        "r_range": [0.1, 0.2],
        "coherent_amplitude_max": 0.5,
    },
    "library_mixed": {"cutoff": 10, "r_range": [0.1, 0.2], "states_per_request": 2},
}


def tiny_spec(workload):
    spec = copy.deepcopy(run.WORKLOADS[workload])
    spec["params"].update(TINY[workload])
    return spec


@pytest.fixture
def one_launch(monkeypatch):
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(run, "WARMUP_REQUESTS", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload, trace, one_launch):
    report, result = run.run(workload, 7, 0.5, trace, spec=tiny_spec(workload))
    assert result["correct"] is True, report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = run.listed_metrics(report["metrics"], trace)
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert list(metrics) == [m["name"] for m in listed]
    for name, entry in metrics.items():
        assert np.isfinite(entry["value"]), name
    assert report["env"]["blas_threads"] <= report["env"]["nproc"]


# -- oracles on real outputs and on corrupted copies ---------------------------

def _sweep_output(tmp_path, config):
    cfg, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(config))
    assert cli.main(["sweep", str(cfg), str(out)]) == 0
    return out.read_text()


def _replace_field(csv_text, row, column, value):
    lines = csv_text.splitlines()
    fields = lines[row + 1].split(",")
    fields[oracle.SWEEP_HEADER.index(column)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_sweep_oracle(tmp_path):
    config = inputs.sweep_request(run.WORKLOADS["sweep_bell"]["params"], inputs.rng_for(3, 0))
    text = _sweep_output(tmp_path, config)
    assert oracle.check_sweep(config, text) == []
    row = 5 * config["sweep"]["n_phi"] + 1  # theta strictly inside (0, pi/2): detected
    flipped = _replace_field(text, row, "su11_detected", "false")
    assert oracle.check_sweep(config, flipped)
    for column in ("negativity", "M_minus", "su2_rhs", "su11_lhs"):
        value = float(text.splitlines()[row + 1].split(",")[oracle.SWEEP_HEADER.index(column)])
        perturbed = _replace_field(text, row, column, repr(value + 1e-6))
        assert oracle.check_sweep(config, perturbed), column
    assert oracle.check_sweep(config, "\n".join(text.splitlines()[:-1]) + "\n")


def _evaluate_output(tmp_path, config):
    cfg = tmp_path / "evaluate.json"
    cfg.write_text(json.dumps(config))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli.main(["evaluate", str(cfg)]) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("index", [0, 1, 2])
def test_evaluate_oracle(tmp_path, index):
    params = dict(run.WORKLOADS["evaluate_cold"]["params"], **TINY["evaluate_cold"])
    config = inputs.evaluate_request(params, inputs.rng_for(4, index), index)
    text = _evaluate_output(tmp_path, config)
    assert oracle.check_evaluate(config, text) == []
    for path in (
        ("ppt", "negativity"),
        ("mancini", "M_x"),
        ("duan", 2, "M"),
        ("su2_pt", "lhs"),
        ("su11_pt_ladder", "rhs"),
        ("su11_pt_quadrature", "lhs"),
    ):
        output = json.loads(text)
        report = output["reports"][path[0]]
        quantities = (report[path[1]] if len(path) == 3 else report)["quantities"]
        quantities[path[-1]] += 1e-6
        assert oracle.check_evaluate(config, json.dumps(output)), path
    output = json.loads(text)
    output["reports"]["ppt"]["entangled_detected"] ^= True
    assert oracle.check_evaluate(config, json.dumps(output))
    if config["state"]["kind"] == "product_coherent":
        output = json.loads(text)
        output["reports"]["duan"][1]["entangled_detected"] = True
        assert oracle.check_evaluate(config, json.dumps(output))


def _library_runner(params):
    return worker.LibraryRunner({"params": params, "seed": 5})


def test_library_oracle():
    params = dict(run.WORKLOADS["library_mixed"]["params"], **TINY["library_mixed"])
    runner = _library_runner(params)
    for index in range(4):
        request = inputs.library_request(params, inputs.rng_for(5, index), index)
        output = runner.certify(request)
        assert oracle.check_library(request, output) == []
        for witness, (_, query_name) in oracle.WITNESS_CHECKS.items():
            query = output["queries"][query_name]
            if abs(query["lhs"] - query["rhs"]) > oracle.CLEAR:
                corrupted = copy.deepcopy(output)
                corrupted["witnesses"][witness]["detected"] ^= True
                assert oracle.check_library(request, corrupted), witness
            corrupted = copy.deepcopy(output)
            corrupted["witnesses"][witness]["lhs"] += 1e-6
            assert oracle.check_library(request, corrupted), witness
        for name in oracle.QUERY_CHECKS:
            corrupted = copy.deepcopy(output)
            corrupted["queries"][name]["rhs"] += 1e-6
            assert oracle.check_library(request, corrupted), name
        corrupted = copy.deepcopy(output)
        corrupted["ppt"]["negativity"] += 1e-6
        assert oracle.check_library(request, corrupted)
        corrupted = copy.deepcopy(output)
        corrupted["duan"][2]["M"] += 1e-6
        assert oracle.check_library(request, corrupted)


def test_judge_counts_a_corrupted_output_as_failed(tmp_path):
    """run.py's bookkeeping: an oracle mismatch makes the request fail."""
    spec = tiny_spec("sweep_bell")
    bench = run.Bench(run.ROOT, tmp_path, "sweep_bell", spec, 1, 1.0)
    config = inputs.sweep_request(spec["params"], inputs.rng_for(1, 0))
    text = _sweep_output(tmp_path, config)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(text)
    bad.write_text(_replace_field(text, 5, "ppt_detected", "false"))
    timing = {"latency_s": 0.1, "reference_s": [0.005, 0.005]}
    ok = bench.judge({"index": 0, "config": config, "csv": str(good), **timing})
    failed = bench.judge({"index": 1, "config": config, "csv": str(bad), **timing})
    raised = bench.judge({"index": 2, "config": config, "error": "boom", **timing})
    assert ok["ok"] and not failed["ok"] and not raised["ok"]
    assert len(bench.failures) == 2


# -- generators and the oracle's own state formulas -----------------------------

def test_generator_is_seeded():
    for workload, params in (
        (name, spec["params"]) for name, spec in run.WORKLOADS.items()
    ):
        a = inputs.make_request(workload, params, 9, 3)
        assert a == inputs.make_request(workload, params, 9, 3)
        assert a != inputs.make_request(workload, params, 10, 3)
        assert a != inputs.make_request(workload, params, 9, 3, inputs.WARMUP)


def test_generator_range_ends_are_valid():
    """The largest squeezing at the smallest cutoff and the largest coherent
    amplitude meet the default truncation tolerance, so no input is rejected."""
    makers = {
        "tmsv": states.two_mode_squeezed_vacuum,
        "photon_subtracted_tmsv": states.photon_subtracted_tmsv,
    }
    cold = run.WORKLOADS["evaluate_cold"]["params"]
    lib = run.WORKLOADS["library_mixed"]["params"]
    cases = [(cold, kind, cutoff) for kind, cutoff in cold["schedule"]]
    cases += [(lib, kind, lib["cutoff"]) for kind in lib["kinds"] + ["product_coherent"]]
    for params, kind, d in cases:
        if kind == "product_coherent":
            amax = params["coherent_amplitude_max"]
            states.product_coherent(amax * 1j, -amax, Cutoff(d, d))
        else:
            for r in params["r_range"]:
                makers[kind](r, 1.0, Cutoff(d, d))


@pytest.mark.parametrize("kind", ["tmsv", "photon_subtracted_tmsv", "product_coherent"])
def test_oracle_grid_matches_entcert(kind):
    params = dict(run.WORKLOADS["evaluate_cold"]["params"], schedule=[[kind, 14]], r_range=[0.3, 0.4])
    state = inputs.evaluate_request(params, inputs.rng_for(2, 0), 0)["state"]
    psi, _, _, _ = cli.build_state(state)
    assert np.allclose(oracle.amplitude_grid(state).ravel(), psi.amplitudes, atol=1e-12)


def test_grid_moments_closed_forms():
    """The ladder-matrix oracle on states with known moments: the TMSV at
    phi = pi has Var(u) + Var(v) = 2 exp(-2r) and Var(u) = Var(v); the
    vacuum has Var(x_a + x_b) = 1 and saturates the K uncertainty relation."""
    r = 0.3
    state = {"kind": "tmsv", "r": r, "phi": np.pi, "cutoff": {"d_a": 40, "d_b": 40}}
    values = oracle.pure_witness_values(state, [1.0])
    assert values["M"] == pytest.approx(2.0 * np.exp(-2.0 * r), rel=1e-12)
    assert values["M_minus"] == pytest.approx(0.0, abs=1e-12)
    vacuum = np.zeros((1, 4, 4))
    vacuum[0, 0, 0] = 1.0
    values = oracle.witness_values(oracle.GridMoments(vacuum, [1.0]), [2.0])
    assert values["M_x"] == pytest.approx(1.0)
    assert values["duan"][0] == pytest.approx(4.0 + 0.25)
    k_lhs, k_rhs = values["k_uncertainty"]
    assert k_lhs == pytest.approx(k_rhs) == pytest.approx(1.0 / 16.0)


def test_bell_closed_forms_match_entcert():
    rng = np.random.default_rng(0)
    for _ in range(5):
        vec = rng.standard_normal(4)
        alpha, beta = complex(vec[0], vec[1]), complex(vec[2], vec[3])
        norm = abs(complex(abs(alpha), abs(beta)))
        alpha, beta = alpha / norm, beta / norm
        ours = oracle.bell_closed(alpha, beta, 1.7)
        theirs = criteria.bell_closed_forms(alpha, beta, 1.7)
        assert ours["M"] == pytest.approx(theirs["M_closed"])
        assert ours["M_x"] == pytest.approx(theirs["Mx_closed"])
        assert ours["su11_reduced"] == pytest.approx(theirs["su11_reduced"])
        assert ours["ppt_min"] == pytest.approx(theirs["ppt_spectrum"][0])


# -- statistics and BENCHMARK.json --------------------------------------------------

def test_scaled_times_follow_the_reference_around_them():
    ref = speed.REFERENCE_S["mixed"]
    # The host runs at half speed from the sixth interval on; one kernel
    # sample of the first interval is disturbed.
    times = [1.0] * 5 + [2.0] * 5
    samples = [[ref, 10 * ref]] + [[ref, ref]] * 4 + [[2 * ref, 2 * ref]] * 5
    out = speed.scaled(times, samples, {"kernel": "mixed", "sensitivity": 1.0})
    assert out[:3] + out[-3:] == pytest.approx([1.0] * 6)
    assert speed.scaled([0.5], [[ref]], {"kernel": "mixed", "sensitivity": 1.0}) == [0.5]
    half_sensitive = speed.scaled([2.0], [[4 * ref]], {"kernel": "mixed", "sensitivity": 0.5})
    assert half_sensitive == pytest.approx([1.0])


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(k) for k in range(30)]
    value, percentile = run.tail(latencies)
    assert value == 19.0 and sum(x > value for x in latencies) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)


def test_tail_without_a_real_tail_is_flagged():
    assert "flag" in run.tail_metric(1.0, 44.4, 18)
    assert "flag" not in run.tail_metric(1.0, 66.7, 30)


def test_benchmark_json_matches_workloads():
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in listed["workloads"]] == list(run.WORKLOADS)
    for entry in listed["workloads"]:
        assert entry["why"] == run.WORKLOADS[entry["name"]]["why"]
        assert len(entry["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in listed["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "sweep_bell", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

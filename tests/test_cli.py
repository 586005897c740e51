"""Command-line behavior: outputs, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from entcert.cli import main

SQRT_HALF = 2.0**-0.5
GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_golden.csv"
GOLDEN_SWEEP_5X4 = Path(__file__).parent / "data" / "sweep_golden_5x4.csv"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def bell_config(alpha=SQRT_HALF, beta=SQRT_HALF, **extra):
    state = {
        "kind": "bell_xp",
        "alpha": {"re": alpha.real if isinstance(alpha, complex) else alpha, "im": alpha.imag if isinstance(alpha, complex) else 0.0},
        "beta": {"re": beta.real if isinstance(beta, complex) else beta, "im": beta.imag if isinstance(beta, complex) else 0.0},
    }
    state.update(extra.pop("state_extra", {}))
    return {"state": state, **extra}


class TestEvaluate:
    def test_bell_equal_weights(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config(witnesses={"duan_m": [1.0]}))
        assert main(["evaluate", config]) == 0
        output = json.loads(capsys.readouterr().out)
        reports = output["reports"]
        assert reports["su11_pt_ladder"]["entangled_detected"] is True
        assert reports["su11_pt_quadrature"]["entangled_detected"] is True
        assert reports["duan"][0]["quantities"]["M"] == pytest.approx(4.0)
        assert reports["ppt"]["quantities"]["min_eigenvalue"] == pytest.approx(-0.5)
        assert reports["mancini"]["quantities"]["M_x"] == pytest.approx(3.0)
        assert reports["su2_pt"]["entangled_detected"] is False
        closed = output["bell_closed_forms"]
        assert closed["Mx_closed"] == pytest.approx(3.0)
        assert closed["M_closed_by_m"]["1"] == pytest.approx(4.0)

    def test_closed_forms_match_reports(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            bell_config(alpha=0.6, beta=0.8, witnesses={"duan_m": [0.5, 1.0, 2.0]}),
        )
        assert main(["evaluate", config]) == 0
        output = json.loads(capsys.readouterr().out)
        closed = output["bell_closed_forms"]
        for duan_report in output["reports"]["duan"]:
            m_key = f"{duan_report['quantities']['m']:g}"
            assert duan_report["quantities"]["M"] == pytest.approx(
                closed["M_closed_by_m"][m_key], abs=1e-9
            )
        assert output["reports"]["mancini"]["quantities"]["M_x"] == pytest.approx(
            closed["Mx_closed"], abs=1e-9
        )
        assert output["reports"]["ppt"]["quantities"]["min_eigenvalue"] == pytest.approx(
            closed["ppt_spectrum"][0], abs=1e-9
        )
        su11 = output["reports"]["su11_pt_ladder"]["quantities"]
        assert su11["lhs"] - su11["rhs"] == pytest.approx(
            -8.0 * closed["su11_reduced"], abs=1e-9
        )

    def test_tmsv_detection(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"state": {"kind": "tmsv", "r": 0.5, "phi": np.pi}}
        )
        assert main(["evaluate", config]) == 0
        output = json.loads(capsys.readouterr().out)
        duan = output["reports"]["duan"][0]
        assert duan["entangled_detected"] is True
        assert duan["quantities"]["M"] == pytest.approx(2.0 * np.exp(-1.0), abs=1e-4)
        assert output["reports"]["mancini"]["entangled_detected"] is True
        assert output["reports"]["ppt"]["entangled_detected"] is True
        assert output["truncation"]["kept_weight"] >= 1.0 - 1e-8

    def test_photon_subtracted_needs_bigger_cutoff(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"state": {"kind": "photon_subtracted_tmsv", "r": 0.5, "phi": np.pi}}
        )
        # default 12x12 keeps too little weight
        assert main(["evaluate", config]) == 3
        assert capsys.readouterr().err.startswith("numeric:")
        assert main(["evaluate", config, "--cutoff", "20", "20"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["reports"]["ppt"]["entangled_detected"] is True

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["evaluate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config:")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("config:")

    def test_schema_violations(self, tmp_path, capsys):
        cases = [
            {},
            {"state": {"kind": "unknown"}},
            {"state": {"kind": "bell_xp", "alpha": {"re": 1.0}}},
            {"state": {"kind": "tmsv", "r": -1.0, "phi": 0.0}},
            bell_config(witnesses={"duan_m": [0]}),
            bell_config(state_extra={"cutoff": {"d_a": 1, "d_b": 3}}),
        ]
        for payload in cases:
            config = write_config(tmp_path, payload)
            assert main(["evaluate", config]) == 2, payload
            assert capsys.readouterr().err.startswith("config:")

    @pytest.mark.parametrize("gain", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_gain_is_config_error(self, tmp_path, capsys, gain):
        # json.dumps writes NaN / Infinity literals, which json.load accepts.
        config = write_config(tmp_path, bell_config(witnesses={"duan_m": [1.0, gain]}))
        assert main(["evaluate", config]) == 2
        assert capsys.readouterr().err == "config: witnesses.duan_m[1] must be finite\n"

    def test_unnormalized_bell_is_numeric_error(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config(alpha=1.0, beta=1.0))
        assert main(["evaluate", config]) == 3
        assert capsys.readouterr().err.startswith("numeric:")


class TestSweep:
    def test_three_point_theta_scan(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"state": {"kind": "bell_xp"}, "sweep": {"n_theta": 3, "n_phi": 1, "m_values": [1.0]}},
        )
        out = tmp_path / "scan.csv"
        assert main(["sweep", config, str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert lines[0] == (
            "theta,phi_r,alpha_re,alpha_im,beta_re,beta_im,M,M_minus,M_x,"
            "su2_lhs,su2_rhs,su11_lhs,su11_rhs,su11_reduced,ppt_min_eig,negativity,"
            "mancini_detected,duan_detected,su2_detected,su11_detected,ppt_detected"
        )
        assert len(lines) == 4
        su11_col = header.index("su11_detected")
        flags = [line.split(",")[su11_col] for line in lines[1:]]
        assert flags == ["false", "true", "false"]

    def test_closed_form_columns(self, tmp_path):
        config = write_config(
            tmp_path,
            {"sweep": {"n_theta": 5, "n_phi": 4, "m_values": [1.0]}},
        )
        out = tmp_path / "scan.csv"
        assert main(["sweep", config, str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        cols = {name: header.index(name) for name in header}
        for line in lines[1:]:
            row = line.split(",")
            theta, phi_r = float(row[cols["theta"]]), float(row[cols["phi_r"]])
            alpha = np.cos(theta) * np.exp(1j * phi_r)
            beta = np.sin(theta)
            m_x = float(row[cols["M_x"]])
            assert m_x == pytest.approx(
                4.0 - 4.0 * (alpha * np.conj(beta)).real ** 2, abs=1e-9
            )
            assert float(row[cols["ppt_min_eig"]]) == pytest.approx(
                -abs(np.cos(theta) * np.sin(theta)), abs=1e-9
            )
            assert float(row[cols["M"]]) == pytest.approx(4.0, abs=1e-9)

    def test_byte_identical_runs(self, tmp_path):
        config = write_config(
            tmp_path,
            {"sweep": {"n_theta": 4, "n_phi": 3, "m_values": [0.5, 1.0]}},
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", config, str(first)]) == 0
        assert main(["sweep", config, str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_matches_golden_csv(self, tmp_path):
        # Reference output recorded before the partially transposed witnesses
        # were rebuilt on operator triples; sweep output bytes must not move.
        config = write_config(
            tmp_path,
            {"sweep": {"n_theta": 5, "n_phi": 4, "m_values": [0.5, 1, 2]}},
        )
        out = tmp_path / "scan.csv"
        assert main(["sweep", config, str(out)]) == 0
        assert out.read_bytes() == GOLDEN_SWEEP.read_bytes()

    def test_matches_golden_csv_5x4(self, tmp_path):
        # Reference output recorded before pure-state moments were read from
        # one Gram product per state, at an asymmetric cutoff.
        config = write_config(
            tmp_path,
            {"sweep": {"n_theta": 9, "n_phi": 8, "m_values": [0.5, 1, 2]}},
        )
        out = tmp_path / "scan.csv"
        assert main(["sweep", config, str(out), "--cutoff", "5", "4"]) == 0
        assert out.read_bytes() == GOLDEN_SWEEP_5X4.read_bytes()

    def test_row_order_theta_outer(self, tmp_path):
        config = write_config(
            tmp_path,
            {"sweep": {"n_theta": 2, "n_phi": 2, "m_values": [1.0]}},
        )
        out = tmp_path / "scan.csv"
        assert main(["sweep", config, str(out)]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        thetas = [float(r[0]) for r in rows]
        phis = [float(r[1]) for r in rows]
        assert thetas == sorted(thetas)
        assert phis == [0.0, np.pi, 0.0, np.pi]

    def test_unwritable_output(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"sweep": {"n_theta": 1, "n_phi": 1, "m_values": [1.0]}}
        )
        assert main(["sweep", config, str(tmp_path / "no_dir" / "x.csv")]) == 4
        assert capsys.readouterr().err.startswith("io:")

    def test_non_finite_gain_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"sweep": {"n_theta": 2, "n_phi": 2, "m_values": [float("inf")]}}
        )
        out = tmp_path / "x.csv"
        assert main(["sweep", config, str(out)]) == 2
        assert capsys.readouterr().err == "config: sweep.m_values[0] must be finite\n"
        assert not out.exists()

    def test_failure_mid_run_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        from entcert import criteria

        config = write_config(tmp_path, {"sweep": {"n_theta": 3, "n_phi": 2}})
        real_ppt = criteria.ppt_witness
        calls = []

        def failing_ppt(state):
            calls.append(state)
            if len(calls) == 4:
                raise ValueError("injected failure")
            return real_ppt(state)

        monkeypatch.setattr(criteria, "ppt_witness", failing_ppt)
        out = tmp_path / "scan.csv"
        assert main(["sweep", config, str(out)]) == 3
        assert capsys.readouterr().err == "numeric: injected failure\n"
        assert len(calls) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_failure_keeps_previous_output(self, tmp_path, capsys):
        # At 2x2 the fourth-order witnesses trip the power guard on the first row.
        config = write_config(tmp_path, {"sweep": {"n_theta": 2, "n_phi": 1}})
        out = tmp_path / "scan.csv"
        out.write_text("previous\n")
        assert main(["sweep", config, str(out), "--cutoff", "2", "2"]) == 3
        assert capsys.readouterr().err.startswith("numeric:")
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "scan.csv"]

    def test_output_is_a_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, {"sweep": {"n_theta": 1, "n_phi": 1}})
        (tmp_path / "taken").mkdir()
        assert main(["sweep", config, str(tmp_path / "taken")]) == 4
        assert capsys.readouterr().err.startswith("io:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_missing_sweep_block(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config())
        assert main(["sweep", config, str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("config:")

    def test_non_bell_state_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "state": {"kind": "tmsv", "r": 0.1, "phi": 0.0},
                "sweep": {"n_theta": 1, "n_phi": 1, "m_values": [1.0]},
            },
        )
        assert main(["sweep", config, str(tmp_path / "x.csv")]) == 2


class TestExpr:
    def test_number_expectation(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config(alpha=0.6, beta=0.8))
        assert main(["expr", "E[ad*a]", config]) == 0
        value = json.loads(capsys.readouterr().out)
        assert value["re"] == pytest.approx(0.36)
        assert value["im"] == pytest.approx(0.0)

    def test_su11_query_verdict(self, tmp_path, capsys):
        from entcert.criteria import BUILTIN_QUERIES

        config = write_config(tmp_path, bell_config())
        assert main(["expr", BUILTIN_QUERIES["su11_pt"], config]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["holds"] is False
        assert verdict["lhs"] == pytest.approx(2.0)
        assert verdict["rhs"] == pytest.approx(4.0)

    def test_parse_error_caret(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config())
        assert main(["expr", "E[ad*", config]) == 5
        err_lines = capsys.readouterr().err.splitlines()
        assert "column 6" in err_lines[0]
        assert err_lines[1] == "E[ad*"
        assert err_lines[2] == "     ^"

    def test_power_guard_is_numeric_error(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config())
        assert main(["expr", "E[ad^3*a^3]", config]) == 3
        assert capsys.readouterr().err.startswith("numeric:")

    def test_overflowing_literal_exits_5(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config())
        assert main(["expr", "E[1e999*ad*a]", config]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.splitlines()
        assert err_lines[0].startswith("expr: parse error at column 3")
        assert err_lines[2] == "  ^"

    def test_non_finite_comparison_exits_5(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config())
        assert main(["expr", "E[ad*a]*1e300*1e300 >= 0", config]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("expr: left side of comparison is not finite")

    def test_huge_exponent_hits_power_guard_before_expanding(self, tmp_path, capsys):
        import time

        config = write_config(tmp_path, bell_config())
        start = time.perf_counter()
        assert main(["expr", "E[a^100000000]", config]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith(
            "numeric: ladder powers (a:100000000, b:0) too high for cutoff 3x3"
        )

    @pytest.mark.parametrize(
        "query, code, out",
        [("E[(a-a)^100000000]", 0, 0.0), ("E[1^100000000]", 0, 1.0), ("E[2^100000000]", 5, None)],
    )
    def test_huge_exponent_of_scalar_base_is_fast(self, tmp_path, capsys, query, code, out):
        import time

        config = write_config(tmp_path, bell_config())
        start = time.perf_counter()
        assert main(["expr", query, config]) == code
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        if out is None:
            assert captured.err.startswith("expr: value is not finite")
        else:
            assert json.loads(captured.out) == {"re": pytest.approx(out), "im": 0.0}

    def test_var_of_non_hermitian(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config())
        assert main(["expr", "Var[a]", config]) == 5
        assert capsys.readouterr().err.startswith("expr:")


class TestOverrides:
    def test_cutoff_override_applies(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config())
        assert main(["evaluate", config, "--cutoff", "4", "5"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["state"]["cutoff"] == {"d_a": 4, "d_b": 5}

    def test_bad_cutoff_override(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config())
        assert main(["evaluate", config, "--cutoff", "1", "5"]) == 2

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_cutoff_beyond_physical_memory_exits_3_unallocated(self, tmp_path, capsys, command):
        import tracemalloc

        config = write_config(tmp_path, bell_config(sweep={"n_theta": 1, "n_phi": 1}))
        args = [command, config] + ([str(tmp_path / "scan.csv")] if command == "sweep" else [])
        tracemalloc.start()
        try:
            code = main(args + ["--cutoff", "1000000", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric: cutoff 1000000x1000000 needs")
        assert peak < 2**20
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["evaluate", "sweep", "expr"])
    def test_non_finite_tol_is_config_error(self, tmp_path, capsys, command, tol):
        # This state keeps 55% of its weight at 4x4; a NaN tolerance passed
        # every kept-weight check and printed a full report.
        config = write_config(
            tmp_path,
            {
                "state": {"kind": "tmsv", "r": 1.5, "phi": 0, "cutoff": {"d_a": 4, "d_b": 4}},
                "sweep": {"n_theta": 1, "n_phi": 1},
            },
        )
        args = {
            "evaluate": ["evaluate", config],
            "sweep": ["sweep", config, str(tmp_path / "scan.csv")],
            "expr": ["expr", "E[ad*a]", config],
        }[command]
        assert main(args + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config: --tol must be finite\n"
        assert not (tmp_path / "scan.csv").exists()

    def test_tol_override_allows_smaller_basis(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"state": {"kind": "photon_subtracted_tmsv", "r": 0.5, "phi": np.pi}}
        )
        assert main(["evaluate", config, "--tol", "1e-4"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["truncation"]["kept_weight"] >= 1.0 - 1e-4


class TestPureStatePath:
    """Every CLI state is pure; no command expands it into a density matrix."""

    @pytest.fixture(autouse=True)
    def _no_density(self, monkeypatch):
        from entcert import states

        def refuse(psi):
            raise AssertionError("density_from_pure called on the CLI path")

        monkeypatch.setattr(states, "density_from_pure", refuse)

    def test_evaluate(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "state": {
                    "kind": "photon_subtracted_tmsv", "r": 0.3, "phi": 0.5,
                    "cutoff": {"d_a": 16, "d_b": 16},
                },
                "witnesses": {"duan_m": [0.5, 1.0]},
            },
        )
        assert main(["evaluate", config]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert reports["ppt"]["entangled_detected"]

    def test_sweep(self, tmp_path):
        config = write_config(tmp_path, {"sweep": {"n_theta": 3, "n_phi": 2}})
        assert main(["sweep", config, str(tmp_path / "scan.csv")]) == 0

    def test_expr(self, tmp_path, capsys):
        config = write_config(tmp_path, bell_config(alpha=0.6, beta=0.8))
        assert main(["expr", "E[ad*a]", config]) == 0
        assert json.loads(capsys.readouterr().out)["re"] == pytest.approx(0.36)

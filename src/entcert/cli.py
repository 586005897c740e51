"""Command-line front end.

Subcommands:

  evaluate <config.json>            run every witness on the configured state
  sweep <config.json> <out.csv>     scan the one-excitation Bell family
  expr "<query>" <config.json>      evaluate a DSL expression on the state

Config file schema (JSON object):

  {
    "state": {
      "kind": "bell_xp" | "tmsv" | "photon_subtracted_tmsv" | "product_coherent",
      ... kind parameters ...,
      "cutoff": {"d_a": int, "d_b": int},    optional, kind-defaulted
      "trunc_tol": float                     optional, default 1e-8
    },
    "witnesses": {"duan_m": [numbers]},      optional, default [1.0]
    "sweep": {"n_theta": int, "n_phi": int, "m_values": [numbers]}
  }

Kind parameters: bell_xp takes "alpha" and "beta" as {"re": x, "im": y};
tmsv and photon_subtracted_tmsv take "r" and "phi"; product_coherent takes
"alpha_a" and "alpha_b" as {"re": x, "im": y}.

Exit codes: 0 success, 2 config error, 3 numerical precondition failure,
4 unwritable sweep output, 5 expression error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import criteria, dsl, states
from .errors import DimensionError, DslError, EntcertError, ParseError
from .fock import Cutoff
from .states import DEFAULT_TRUNC_TOL, TruncationReport

_SWEEP_COLUMNS = (
    "theta,phi_r,alpha_re,alpha_im,beta_re,beta_im,M,M_minus,M_x,"
    "su2_lhs,su2_rhs,su11_lhs,su11_rhs,su11_reduced,ppt_min_eig,negativity,"
    "mancini_detected,duan_detected,su2_detected,su11_detected,ppt_detected"
)

_DEFAULT_CUTOFFS = {
    "bell_xp": (3, 3),
    "tmsv": (12, 12),
    "photon_subtracted_tmsv": (12, 12),
}


class ConfigError(EntcertError):
    """Configuration file missing, unreadable, or schema-violating."""


# -- config parsing -----------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON ({exc.msg} at line {exc.lineno})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config


def _get_number(obj: dict, key: str, ctx: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{ctx}: missing required field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: field {key!r} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{ctx}: field {key!r} must be finite")
    return float(value)


def _get_complex(obj: dict, key: str, ctx: str) -> complex:
    if key not in obj:
        raise ConfigError(f"{ctx}: missing required field {key!r}")
    pair = obj[key]
    if not isinstance(pair, dict):
        raise ConfigError(f"{ctx}: field {key!r} must be an object {{\"re\": x, \"im\": y}}")
    return complex(_get_number(pair, "re", f"{ctx}.{key}"), _get_number(pair, "im", f"{ctx}.{key}"))


# Arrays of d_a x d_b complex amplitudes a run holds at once: the state and
# its construction buffer, a chunk of the moment Gram stack and its
# conjugate (about one grid each), and the grid copy of the PPT
# singular-value solve.  Measured with tracemalloc at 600x600, evaluate,
# sweep and expr peak at 3.04-3.06 grids, not counting the solver's copy,
# which LAPACK allocates outside it.
_GRID_ARRAYS_HELD = 5


def _parse_cutoff(state_cfg: dict, kind: str, override) -> Cutoff:
    """The run's cutoff, checked against physical memory before any array exists."""
    cutoff = _requested_cutoff(state_cfg, kind, override)
    needed = _GRID_ARRAYS_HELD * np.dtype(complex).itemsize * cutoff.dim
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return cutoff
    if needed > physical:
        raise DimensionError(
            f"cutoff {cutoff.d_a}x{cutoff.d_b} needs about {needed / 2**30:.3g} GiB of "
            f"amplitude arrays, more than the {physical / 2**30:.3g} GiB of physical memory"
        )
    return cutoff


def _requested_cutoff(state_cfg: dict, kind: str, override) -> Cutoff:
    if override is not None:
        if override[0] < 2 or override[1] < 2:
            raise ConfigError("--cutoff values must be integers >= 2")
        return Cutoff(override[0], override[1])
    if "cutoff" in state_cfg:
        block = state_cfg["cutoff"]
        if not isinstance(block, dict):
            raise ConfigError("state.cutoff must be an object {\"d_a\": int, \"d_b\": int}")
        d_a = _get_number(block, "d_a", "state.cutoff")
        d_b = _get_number(block, "d_b", "state.cutoff")
        if d_a != int(d_a) or d_b != int(d_b) or d_a < 2 or d_b < 2:
            raise ConfigError("state.cutoff entries must be integers >= 2")
        return Cutoff(int(d_a), int(d_b))
    if kind in _DEFAULT_CUTOFFS:
        return Cutoff(*_DEFAULT_CUTOFFS[kind])
    # coherent states: size the basis from the amplitudes
    alpha_a = abs(_get_complex(state_cfg, "alpha_a", "state"))
    alpha_b = abs(_get_complex(state_cfg, "alpha_b", "state"))
    heuristic = lambda a: max(12, math.ceil(a * a + 6.0 * a + 10.0))  # noqa: E731
    return Cutoff(heuristic(alpha_a), heuristic(alpha_b))


def build_state(state_cfg: dict, cutoff_override=None, tol_override=None):
    """Construct (PureState, TruncationReport, kind, params) from the config block."""
    if not isinstance(state_cfg, dict):
        raise ConfigError("'state' must be a JSON object")
    kind = state_cfg.get("kind")
    if kind not in ("bell_xp", "tmsv", "photon_subtracted_tmsv", "product_coherent"):
        raise ConfigError(
            f"state.kind must be one of bell_xp, tmsv, photon_subtracted_tmsv, "
            f"product_coherent; got {kind!r}"
        )
    cutoff = _parse_cutoff(state_cfg, kind, cutoff_override)
    trunc_tol = tol_override if tol_override is not None else _get_number(
        state_cfg, "trunc_tol", "state", default=DEFAULT_TRUNC_TOL
    )
    if trunc_tol <= 0:
        raise ConfigError("state.trunc_tol must be positive")

    if kind == "bell_xp":
        alpha = _get_complex(state_cfg, "alpha", "state")
        beta = _get_complex(state_cfg, "beta", "state")
        psi = states.bell_xp_state(alpha, beta, cutoff)
        report = TruncationReport(kept_weight=1.0, renormalized=False)
        params = {"alpha": alpha, "beta": beta}
    elif kind in ("tmsv", "photon_subtracted_tmsv"):
        r = _get_number(state_cfg, "r", "state")
        phi = _get_number(state_cfg, "phi", "state")
        if r < 0:
            raise ConfigError("state.r must be nonnegative")
        maker = (
            states.two_mode_squeezed_vacuum if kind == "tmsv" else states.photon_subtracted_tmsv
        )
        psi, report = maker(r, phi, cutoff, trunc_tol)
        params = {"r": r, "phi": phi}
    else:
        alpha_a = _get_complex(state_cfg, "alpha_a", "state")
        alpha_b = _get_complex(state_cfg, "alpha_b", "state")
        psi, report = states.product_coherent(alpha_a, alpha_b, cutoff, trunc_tol)
        params = {"alpha_a": alpha_a, "alpha_b": alpha_b}
    return psi, report, kind, params


def _parse_gains(block: dict, key: str, ctx: str) -> list[float]:
    """The list of Duan gains at block[key]: finite, nonzero numbers; default [1.0].

    Python's json accepts NaN and Infinity, so finiteness is checked here.
    """
    values = block.get(key, [1.0])
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{ctx}.{key} must be a non-empty list of numbers")
    out = []
    for idx, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value == 0:
            raise ConfigError(f"{ctx}.{key}[{idx}] must be a nonzero number")
        if not math.isfinite(value):
            raise ConfigError(f"{ctx}.{key}[{idx}] must be finite")
        out.append(float(value))
    return out


def _parse_duan_ms(config: dict) -> list[float]:
    block = config.get("witnesses", {})
    if not isinstance(block, dict):
        raise ConfigError("'witnesses' must be a JSON object")
    return _parse_gains(block, "duan_m", "witnesses")


# -- evaluate -----------------------------------------------------------

def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def cmd_evaluate(config_path: str, cutoff_override=None, tol_override=None) -> int:
    config = _load_config(config_path)
    if "state" not in config:
        raise ConfigError("config must contain a 'state' block")
    duan_ms = _parse_duan_ms(config)
    psi, trunc, kind, params = build_state(config["state"], cutoff_override, tol_override)

    reports = {
        "mancini": asdict(criteria.mancini_witness(psi)),
        "duan": [asdict(criteria.duan_witness(psi, m)) for m in duan_ms],
        "su2_pt": asdict(criteria.su2_pt_witness(psi)),
        "su11_pt_ladder": asdict(criteria.su11_pt_witness(psi, "ladder")),
        "su11_pt_quadrature": asdict(criteria.su11_pt_witness(psi, "quadrature")),
        "ppt": asdict(criteria.ppt_witness(psi)),
    }
    output = {
        "state": {
            "kind": kind,
            "parameters": {
                key: _complex_json(val) if isinstance(val, complex) else val
                for key, val in params.items()
            },
            "cutoff": {"d_a": psi.cutoff.d_a, "d_b": psi.cutoff.d_b},
        },
        "truncation": asdict(trunc),
        "reports": reports,
    }
    if kind == "bell_xp":
        alpha, beta = params["alpha"], params["beta"]
        base = criteria.bell_closed_forms(alpha, beta, 1.0)
        output["bell_closed_forms"] = {
            "Mx_closed": base["Mx_closed"],
            "su11_reduced": base["su11_reduced"],
            "ppt_spectrum": base["ppt_spectrum"],
            "M_closed_by_m": {
                f"{m:g}": criteria.bell_closed_forms(alpha, beta, m)["M_closed"]
                for m in duan_ms
            },
        }
    print(json.dumps(output, indent=2))
    return 0


# -- sweep --------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _sweep_rows(cutoff: Cutoff, n_theta: int, n_phi: int, m_values: list[float]):
    thetas = np.linspace(0.0, np.pi / 2.0, n_theta)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    for theta in thetas:
        for phi_r in phis:
            alpha = math.cos(theta) * complex(math.cos(phi_r), math.sin(phi_r))
            beta = complex(math.sin(theta))
            psi = states.bell_xp_state(alpha, beta, cutoff)
            m_sum, m_minus, m_x = criteria.duan_mancini_relation(psi)
            su2 = criteria.su2_pt_witness(psi)
            su11 = criteria.su11_pt_witness(psi, "ladder")
            ppt = criteria.ppt_witness(psi)
            closed = criteria.bell_closed_forms(alpha, beta, 1.0)
            mancini_detected = m_x < 1.0 - criteria.DETECTION_MARGIN
            duan_detected = any(
                criteria.duan_witness(psi, m).entangled_detected for m in m_values
            )
            yield (
                _fmt(theta),
                _fmt(phi_r),
                _fmt(alpha.real),
                _fmt(alpha.imag),
                _fmt(beta.real),
                _fmt(beta.imag),
                _fmt(m_sum),
                _fmt(m_minus),
                _fmt(m_x),
                _fmt(su2.quantities["lhs"]),
                _fmt(su2.quantities["rhs"]),
                _fmt(su11.quantities["lhs"]),
                _fmt(su11.quantities["rhs"]),
                _fmt(closed["su11_reduced"]),
                _fmt(ppt.quantities["min_eigenvalue"]),
                _fmt(ppt.quantities["negativity"]),
                _fmt_bool(mancini_detected),
                _fmt_bool(duan_detected),
                _fmt_bool(su2.entangled_detected),
                _fmt_bool(su11.entangled_detected),
                _fmt_bool(ppt.entangled_detected),
            )


def cmd_sweep(config_path: str, output_path: str, cutoff_override=None, tol_override=None) -> int:
    config = _load_config(config_path)
    sweep_cfg = config.get("sweep")
    if not isinstance(sweep_cfg, dict):
        raise ConfigError("config must contain a 'sweep' object")
    n_theta = _get_number(sweep_cfg, "n_theta", "sweep")
    n_phi = _get_number(sweep_cfg, "n_phi", "sweep")
    if n_theta != int(n_theta) or n_phi != int(n_phi) or n_theta < 1 or n_phi < 1:
        raise ConfigError("sweep.n_theta and sweep.n_phi must be integers >= 1")
    m_values = _parse_gains(sweep_cfg, "m_values", "sweep")

    state_cfg = config.get("state", {"kind": "bell_xp"})
    if not isinstance(state_cfg, dict):
        raise ConfigError("'state' must be a JSON object")
    if state_cfg.get("kind", "bell_xp") != "bell_xp":
        raise ConfigError("sweep runs over the bell_xp family; state.kind must be bell_xp")
    cutoff = _parse_cutoff(state_cfg, "bell_xp", cutoff_override)

    # Rows go to a temp file beside the output, renamed into place only once
    # every row is written, so a failure mid-run leaves no partial CSV.
    rows = _sweep_rows(cutoff, int(n_theta), int(n_phi), m_values)
    tmp_path = f"{output_path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="ascii", newline="") as handle:
            handle.write(_SWEEP_COLUMNS + "\n")
            for row in rows:
                handle.write(",".join(row) + "\n")
        os.replace(tmp_path, output_path)
    except OSError as exc:
        print(f"io: cannot write {output_path}: {exc.strerror or exc}", file=sys.stderr)
        return 4
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    return 0


# -- expr ---------------------------------------------------------------

def cmd_expr(expression: str, config_path: str, cutoff_override=None, tol_override=None) -> int:
    config = _load_config(config_path)
    if "state" not in config:
        raise ConfigError("config must contain a 'state' block")
    psi, _, _, _ = build_state(config["state"], cutoff_override, tol_override)

    try:
        query = dsl.parse(expression)
    except DslError as exc:
        label = "parse" if isinstance(exc, ParseError) else "lexical"
        print(f"expr: {label} error at column {exc.position + 1}: {exc}", file=sys.stderr)
        print(expression, file=sys.stderr)
        print(" " * exc.position + "^", file=sys.stderr)
        return 5

    try:
        result = dsl.evaluate(query, psi)
    except dsl.LoweringError as exc:
        print(f"expr: {exc}", file=sys.stderr)
        return 5

    if isinstance(result, dsl.CompareResult):
        print(json.dumps({"lhs": result.lhs, "rhs": result.rhs, "holds": result.holds}, indent=2))
    else:
        print(json.dumps(_complex_json(result), indent=2))
    return 0


# -- entry point ----------------------------------------------------------

def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcert",
        description="Moment-based entanglement certification for two-mode bosonic states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--cutoff", nargs=2, type=int, metavar=("D_A", "D_B"),
            help="override the per-mode truncation",
        )
        p.add_argument("--tol", type=float, help="override the truncation tolerance")

    p_eval = sub.add_parser("evaluate", help="run all witnesses on the configured state")
    p_eval.add_argument("config", help="path to the JSON config")
    add_common(p_eval)

    p_sweep = sub.add_parser("sweep", help="scan the Bell family onto a CSV")
    p_sweep.add_argument("config", help="path to the JSON config")
    p_sweep.add_argument("output", help="CSV output path")
    add_common(p_sweep)

    p_expr = sub.add_parser("expr", help="evaluate a DSL expression on the configured state")
    p_expr.add_argument("expression", help="query text, e.g. \"E[ad*a]\"")
    p_expr.add_argument("config", help="path to the JSON config")
    add_common(p_expr)
    return parser


def _parse_tol(value):
    """--tol, held to the finiteness rule of state.trunc_tol (argparse's float
    accepts nan and inf, and a NaN tolerance would pass every kept-weight check)."""
    if value is not None and not math.isfinite(value):
        raise ConfigError("--tol must be finite")
    return value


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    cutoff_override = tuple(args.cutoff) if args.cutoff else None
    try:
        tol_override = _parse_tol(args.tol)
        if args.command == "evaluate":
            return cmd_evaluate(args.config, cutoff_override, tol_override)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.output, cutoff_override, tol_override)
        return cmd_expr(args.expression, args.config, cutoff_override, tol_override)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except (EntcertError, ValueError) as exc:
        print(f"numeric: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

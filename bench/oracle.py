"""Output oracles.  They use numpy and closed forms only, never entcert.

Each ``check_*`` function returns a list of mismatch messages; an empty
list means the output is correct.  A verdict is only compared where the
quantity that decides it is clear of the detection margin by
``CLEAR``, because two correct evaluations may round to opposite sides of
the margin itself.
"""

import csv
import io
import json
import math

import numpy as np

DETECTION_MARGIN = 1e-10  # entcert.criteria.DETECTION_MARGIN
VALUE_TOL = 1e-9
CLEAR = 1e-8


def _close(value: float, expected: float, tol: float = VALUE_TOL) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol * max(1.0, abs(expected))


def _clear(margin: float) -> bool:
    return abs(margin) > CLEAR


# -- state amplitude grids (rows: mode a levels, columns: mode b levels) ----

def _squeezed_diagonal(r: float, phi: float, levels: int) -> np.ndarray:
    lam = complex(math.cos(phi), math.sin(phi)) * math.tanh(r)
    return lam ** np.arange(levels) / math.cosh(r)


def _coherent_vector(alpha: complex, d: int) -> np.ndarray:
    n = np.arange(d)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    with np.errstate(divide="ignore"):
        mag = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - 0.5 * log_fact)
    mag[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    return mag * np.exp(1j * n * np.angle(alpha))


def amplitude_grid(state: dict) -> np.ndarray:
    """Normalized d_a x d_b amplitude grid of a generated state config."""
    d_a, d_b = state["cutoff"]["d_a"], state["cutoff"]["d_b"]
    levels = min(d_a, d_b)
    grid = np.zeros((d_a, d_b), dtype=complex)
    kind = state["kind"]
    if kind == "tmsv":
        grid[np.arange(levels), np.arange(levels)] = _squeezed_diagonal(state["r"], state["phi"], levels)
    elif kind == "photon_subtracted_tmsv":
        # (a x b)|n,n> = n |n-1,n-1>
        diag = _squeezed_diagonal(state["r"], state["phi"], levels)
        n = np.arange(1, levels)
        grid[n - 1, n - 1] = n * diag[1:]
    elif kind == "product_coherent":
        alpha_a = complex(state["alpha_a"]["re"], state["alpha_a"]["im"])
        alpha_b = complex(state["alpha_b"]["re"], state["alpha_b"]["im"])
        grid = np.outer(_coherent_vector(alpha_a, d_a), _coherent_vector(alpha_b, d_b))
    else:
        raise KeyError(f"no oracle for state kind {kind!r}")
    return grid / np.linalg.norm(grid)


def pure_ppt(grid: np.ndarray) -> tuple[float, float]:
    """(min eigenvalue, negativity) of the partial transpose of a pure state.

    With Schmidt coefficients s (singular values of the amplitude grid) the
    smallest eigenvalue is -s_1 s_2 and the negativity is ((sum s)^2 - 1)/2
    (Vidal & Werner, PRA 65, 032314).
    """
    s = np.linalg.svd(grid, compute_uv=False)
    return float(-s[0] * s[1]), float((np.sum(s) ** 2 - 1.0) / 2.0)


def mixed_density(request: dict) -> np.ndarray:
    """The library workload's mixture as a dense matrix, joint index n_a*d_b + n_b."""
    psi = amplitude_grid(request["squeezed"]).ravel()
    coh = amplitude_grid(request["coherent"]).ravel()
    p = request["weight"]
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.outer(coh, coh.conj())


def partial_transpose(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return rho.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)


def mixed_ppt(request: dict) -> tuple[float, float]:
    cutoff = request["squeezed"]["cutoff"]
    pt = partial_transpose(mixed_density(request), cutoff["d_a"], cutoff["d_b"])
    eigs = np.linalg.eigvalsh(pt)
    return float(eigs[0]), float(-np.sum(eigs[eigs < 0.0]))


# -- witness values from ladder matrices acting on amplitude grids ----------
#
# A state is a stack of K amplitude grids psi_k with weights w_k (one grid
# for a pure state, two for the library mixtures); leading axes batch many
# states at once.  A mode-a operator acts on a grid's rows (L @ psi), a
# mode-b operator on its columns (psi @ L^T).  The grids are zero-padded by
# PAD levels, so no word of degree <= PAD reaches the edge of the padded
# space and the truncated ladder matrices act on the state exactly.

PAD = 4
_R2 = math.sqrt(2.0)

# An operator is a list of (coefficient, word); a word is a product of
# ladder symbols, written left to right as in the formulas.
X_A = [(1 / _R2, "a"), (1 / _R2, "ad")]
P_A = [(1 / (1j * _R2), "a"), (-1 / (1j * _R2), "ad")]
X_B = [(1 / _R2, "b"), (1 / _R2, "bd")]
P_B = [(1 / (1j * _R2), "b"), (-1 / (1j * _R2), "bd")]


def _combine(*parts) -> list:
    """sum of weight * operator over (weight, operator) pairs."""
    return [(weight * coeff, word) for weight, op in parts for coeff, word in op]


class GridMoments:
    """Expectations and variances on sum_k w_k |psi_k><psi_k|."""

    def __init__(self, grids, weights):
        grids = np.asarray(grids, dtype=complex)
        d_a, d_b = grids.shape[-2:]
        self.psi = np.zeros(grids.shape[:-2] + (d_a + PAD, d_b + PAD), dtype=complex)
        self.psi[..., :d_a, :d_b] = grids
        self.weights = np.asarray(weights, dtype=float)
        low_a = np.diag(np.sqrt(np.arange(1.0, d_a + PAD)), 1)
        low_b = np.diag(np.sqrt(np.arange(1.0, d_b + PAD)), 1)
        self._act = {
            "a": lambda g: low_a @ g,
            "ad": lambda g: low_a.T @ g,
            "b": lambda g: g @ low_b.T,
            "bd": lambda g: g @ low_b,
        }

    def apply(self, op) -> np.ndarray:
        out = np.zeros_like(self.psi)
        for coeff, word in op:
            grid = self.psi
            for symbol in reversed(word.split()):
                grid = self._act[symbol](grid)
            out += coeff * grid
        return out

    def _average(self, per_grid) -> np.ndarray:
        return np.sum(self.weights * per_grid, axis=-1)

    def mean(self, op) -> np.ndarray:
        return self._average(np.sum(self.psi.conj() * self.apply(op), axis=(-2, -1)))

    def variance(self, op) -> np.ndarray:
        """<op^2> - <op>^2 for a Hermitian op: <op^2> is the weighted |op psi|^2."""
        image = self.apply(op)
        second = self._average(np.sum(np.abs(image) ** 2, axis=(-2, -1)))
        first = self._average(np.sum(self.psi.conj() * image, axis=(-2, -1))).real
        return second - first**2

    def pt_product(self, sym, pair, plus, minus, z) -> tuple[np.ndarray, np.ndarray]:
        """(lhs, rhs) of a partially transposed uncertainty product, as in the
        entcert.criteria docstrings: lhs = (e_sym + e_pair - <plus>^2)
        (e_sym - e_pair + <minus>^2), rhs = |<z>|^2."""
        e_sym, e_pair = self.mean(sym), self.mean(pair)
        c_plus, c_minus = self.mean(plus), self.mean(minus)
        lhs = (e_sym + e_pair - c_plus**2).real * (e_sym - e_pair + c_minus**2).real
        return lhs, np.abs(self.mean(z)) ** 2


def witness_values(moments: GridMoments, gains) -> dict:
    """Every moment-based witness quantity, from the grids alone."""
    var_u = moments.variance(_combine((1.0, X_A), (1.0, X_B)))
    var_v = moments.variance(_combine((1.0, P_A), (-1.0, P_B)))
    duan = [
        moments.variance(_combine((abs(m), X_A), (1.0 / m, X_B)))
        + moments.variance(_combine((abs(m), P_A), (-1.0 / m, P_B)))
        for m in gains
    ]
    su2 = moments.pt_product(
        [(1, "ad a b bd"), (1, "a ad bd b")],
        [(1, "ad ad bd bd"), (1, "a a b b")],
        [(1, "ad bd"), (1, "a b")],
        [(1, "ad bd"), (-1, "a b")],
        [(1, "ad a"), (-1, "bd b")],
    )
    su11 = moments.pt_product(
        [(1, "ad a bd b"), (1, "a ad b bd")],
        [(1, "ad ad b b"), (1, "a a bd bd")],
        [(1, "ad b"), (1, "a bd")],
        [(1, "ad b"), (-1, "a bd")],
        [(1, "ad a"), (1, "b bd")],
    )
    k_lhs = moments.variance([(0.5, "ad bd"), (0.5, "a b")]) * moments.variance(
        [(0.5 / 1j, "ad bd"), (-0.5 / 1j, "a b")]
    )
    k_rhs = np.abs(moments.mean([(0.5, "ad a"), (0.5, "bd b"), (0.5, "")])) ** 2 / 4.0
    return {
        "M": var_u + var_v,
        "M_minus": var_u - var_v,
        "M_x": var_u * var_v,
        "duan": duan,
        "su2": su2,
        "su11": su11,
        "k_uncertainty": (k_lhs, k_rhs),
    }


def pure_witness_values(state: dict, gains) -> dict:
    return witness_values(GridMoments(amplitude_grid(state)[None], [1.0]), gains)


def mixed_witness_values(request: dict) -> dict:
    grids = [amplitude_grid(request["squeezed"]), amplitude_grid(request["coherent"])]
    p = request["weight"]
    return witness_values(GridMoments(grids, [p, 1.0 - p]), request["duan_m"])


def _check_value(problems, label, got, expected) -> None:
    if not _close(got, float(expected)):
        problems.append(f"{label}={got!r}, oracle {float(expected)!r}")


def _check_verdict(problems, label, detected, lhs, rhs) -> None:
    """A witness fires when lhs < rhs - DETECTION_MARGIN."""
    margin = float(rhs) - float(lhs) - DETECTION_MARGIN
    if _clear(margin) and detected != (margin > 0):
        problems.append(f"{label} detected={detected}, oracle lhs {float(lhs)!r} rhs {float(rhs)!r}")


# -- sweep_bell ------------------------------------------------------------

SWEEP_HEADER = (
    "theta,phi_r,alpha_re,alpha_im,beta_re,beta_im,M,M_minus,M_x,"
    "su2_lhs,su2_rhs,su11_lhs,su11_rhs,su11_reduced,ppt_min_eig,negativity,"
    "mancini_detected,duan_detected,su2_detected,su11_detected,ppt_detected"
).split(",")


def bell_closed(alpha: complex, beta: complex, m: float) -> dict:
    """Closed forms for alpha|1,0> + beta|0,1> (same formulas as
    entcert.criteria.bell_closed_forms, written out independently)."""
    overlap = alpha.conjugate() * beta
    m2 = m * m
    return {
        "M": m2 + 1.0 / m2 + 2.0 * (abs(alpha) ** 2 * m2 + abs(beta) ** 2 / m2),
        "M_x": 4.0 - 4.0 * overlap.real ** 2,
        "su11_reduced": abs(overlap) ** 2 - 2.0 * overlap.real ** 2 * overlap.imag ** 2,
        "ppt_min": -abs(alpha) * abs(beta),
    }


def check_sweep(config: dict, csv_text: str) -> list[str]:
    """Every row against the Bell-family closed forms, the grid it must
    follow, and the ladder-matrix witness values of its state."""
    sweep = config["sweep"]
    n_theta, n_phi, gains = sweep["n_theta"], sweep["n_phi"], sweep["m_values"]
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return ["CSV header differs from the documented columns"]
    body = rows[1:]
    if len(body) != n_theta * n_phi:
        return [f"{len(body)} rows, expected {n_theta * n_phi}"]
    theta = np.repeat(np.linspace(0.0, np.pi / 2.0, n_theta), n_phi)
    phi_r = np.tile(2.0 * np.pi * np.arange(n_phi) / n_phi, n_theta)
    alpha = np.cos(theta) * np.exp(1j * phi_r)
    beta = np.sin(theta) + 0j
    grids = np.zeros((len(body), 1, SWEEP_CUTOFF, SWEEP_CUTOFF), dtype=complex)
    grids[:, 0, 1, 0], grids[:, 0, 0, 1] = alpha, beta
    values = witness_values(GridMoments(grids, [1.0]), [])
    problems = []
    for k, row in enumerate(body):
        at_row = {
            "M_minus": values["M_minus"][k],
            "su2": (values["su2"][0][k], values["su2"][1][k]),
            "su11": (values["su11"][0][k], values["su11"][1][k]),
        }
        bad = _check_sweep_row(row, theta[k], phi_r[k], gains, at_row)
        problems.extend(f"row {k}: {msg}" for msg in bad)
    return problems


SWEEP_CUTOFF = 3  # the default cutoff of `entcert sweep`


def _check_sweep_row(row, theta, phi_r, gains, oracle_values) -> list[str]:
    if len(row) != len(SWEEP_HEADER):
        return [f"{len(row)} fields"]
    rec = dict(zip(SWEEP_HEADER, row))
    try:
        num = {key: float(rec[key]) for key in SWEEP_HEADER[:16]}
    except ValueError as exc:
        return [f"unparsable number ({exc})"]
    flags = {key: rec[key] for key in SWEEP_HEADER[16:]}
    if any(v not in ("true", "false") for v in flags.values()):
        return ["verdict column is not true/false"]
    alpha = math.cos(theta) * complex(math.cos(phi_r), math.sin(phi_r))
    beta = complex(math.sin(theta))
    closed = bell_closed(alpha, beta, 1.0)
    su2_lhs, su2_rhs = oracle_values["su2"]
    su11_lhs, su11_rhs = oracle_values["su11"]
    expected = {
        "theta": theta,
        "phi_r": phi_r,
        "alpha_re": alpha.real,
        "alpha_im": alpha.imag,
        "beta_re": beta.real,
        "beta_im": beta.imag,
        "M": closed["M"],
        "M_minus": oracle_values["M_minus"],
        "M_x": closed["M_x"],
        "su2_lhs": su2_lhs,
        "su2_rhs": su2_rhs,
        "su11_lhs": su11_lhs,
        "su11_rhs": su11_rhs,
        "su11_reduced": closed["su11_reduced"],
        "ppt_min_eig": closed["ppt_min"],
        "negativity": -closed["ppt_min"],
    }
    problems = [
        f"{key}={num[key]!r}, oracle {float(value)!r}"
        for key, value in expected.items()
        if not _close(num[key], float(value))
    ]
    # M^2 = M_minus^2 + 4 M_x holds for every state.
    if not _close(num["M"] ** 2, num["M_minus"] ** 2 + 4.0 * num["M_x"], 1e-8):
        problems.append("M^2 != M_minus^2 + 4 M_x")
    # The K-triple margin on this family is -8 su11_reduced (su11_pt_witness).
    if not _close(num["su11_lhs"] - num["su11_rhs"], -8.0 * closed["su11_reduced"]):
        problems.append("su11_lhs - su11_rhs != -8 su11_reduced")
    # The S-triple test never fires on this family.
    if num["su2_lhs"] < num["su2_rhs"] - DETECTION_MARGIN:
        problems.append("su2_lhs < su2_rhs on the Bell family")
    # Closed-form signs: the variance product stays >= 3 and the variance sum
    # above its bound at every gain, so neither second-order test can fire;
    # the K-triple margin is -8 su11_reduced and the PPT minimum is -|alpha||beta|.
    su11_margin = 8.0 * closed["su11_reduced"] - DETECTION_MARGIN
    ppt_margin = -closed["ppt_min"] - DETECTION_MARGIN
    expected_flags = {
        "mancini_detected": False,
        "duan_detected": any(
            bell_closed(alpha, beta, m)["M"] < m * m + 1.0 / (m * m) - DETECTION_MARGIN
            for m in gains
        ),
        "su2_detected": False,
        "su11_detected": su11_margin > 0 if _clear(su11_margin) else None,
        "ppt_detected": ppt_margin > 0 if _clear(ppt_margin) else None,
    }
    for key, want in expected_flags.items():
        if want is not None and (flags[key] == "true") != want:
            problems.append(f"{key}={flags[key]}, closed-form sign says {want}")
    return problems


# -- evaluate_cold -----------------------------------------------------------

_REPORT_KEYS = ("mancini", "duan", "su2_pt", "su11_pt_ladder", "su11_pt_quadrature", "ppt")


def check_evaluate(config: dict, stdout_text: str) -> list[str]:
    """PPT numbers against the Schmidt coefficients, every moment-based
    witness against the ladder-matrix oracle; controls must stay silent."""
    try:
        output = json.loads(stdout_text)
        reports = output["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output is not an evaluate report ({exc!r})"]
    missing = [key for key in _REPORT_KEYS if key not in reports]
    if missing:
        return [f"missing reports {missing}"]
    problems = []
    gains = config["witnesses"]["duan_m"]
    got_gains = [d["quantities"]["m"] for d in reports["duan"]]
    if got_gains != gains:
        return [f"duan gains {got_gains}, requested {gains}"]
    min_eig, negativity = pure_ppt(amplitude_grid(config["state"]))
    ppt = reports["ppt"]
    if not _close(ppt["quantities"]["min_eigenvalue"], min_eig):
        problems.append(f"ppt min {ppt['quantities']['min_eigenvalue']!r}, -s1 s2 = {min_eig!r}")
    if not _close(ppt["quantities"]["negativity"], negativity):
        problems.append(f"negativity {ppt['quantities']['negativity']!r}, oracle {negativity!r}")
    _check_verdict(problems, "ppt", ppt["entangled_detected"], min_eig, 0.0)

    values = pure_witness_values(config["state"], gains)
    mancini = reports["mancini"]
    _check_value(problems, "mancini M_x", mancini["quantities"]["M_x"], values["M_x"])
    _check_verdict(problems, "mancini", mancini["entangled_detected"], values["M_x"], 1.0)
    for report, m, total in zip(reports["duan"], gains, values["duan"]):
        _check_value(problems, f"duan(m={m}) M", report["quantities"]["M"], total)
        _check_verdict(problems, f"duan(m={m})", report["entangled_detected"], total, m * m + 1 / (m * m))
    for key, oracle_key in (("su2_pt", "su2"), ("su11_pt_ladder", "su11"), ("su11_pt_quadrature", "su11")):
        lhs, rhs = values[oracle_key]
        quantities = reports[key]["quantities"]
        _check_value(problems, f"{key} lhs", quantities["lhs"], lhs)
        _check_value(problems, f"{key} rhs", quantities["rhs"], rhs)
        _check_verdict(problems, key, reports[key]["entangled_detected"], lhs, rhs)

    if config["state"]["kind"] == "product_coherent":
        fired = [
            rep["name"]
            for key in _REPORT_KEYS
            for rep in (reports[key] if key == "duan" else [reports[key]])
            if rep["entangled_detected"]
        ]
        if fired:
            problems.append(f"separable control detected by {fired}")
    return problems


# -- library_mixed -----------------------------------------------------------

# witness key in the library output -> (ladder-matrix oracle value,
# BUILTIN_QUERIES entry it must agree with)
WITNESS_CHECKS = {
    "mancini": ("mancini", "mancini"),
    "duan_m1": ("duan_m1", "duan_m1"),
    "su2_pt": ("su2", "su2_pt"),
    "su11_ladder": ("su11", "su11_pt"),
    "su11_quadrature": ("su11", "su11_pt"),
}
QUERY_CHECKS = {
    "mancini": "mancini",
    "duan_m1": "duan_m1",
    "su2_pt": "su2",
    "su11_pt": "su11",
    "k_uncertainty": "k_uncertainty",
}


def check_library(request: dict, output: dict) -> list[str]:
    """PPT against numpy on the benchmark's own partial transpose; every
    witness, Duan gain and query against the ladder-matrix oracle; each
    witness verdict against its BUILTIN_QUERIES form."""
    problems = []
    min_eig, negativity = mixed_ppt(request)
    ppt = output["ppt"]
    if not _close(ppt["min_eigenvalue"], min_eig):
        problems.append(f"ppt min {ppt['min_eigenvalue']!r}, eigvalsh {min_eig!r}")
    if not _close(ppt["negativity"], negativity):
        problems.append(f"negativity {ppt['negativity']!r}, eigvalsh {negativity!r}")
    _check_verdict(problems, "ppt", ppt["detected"], min_eig, 0.0)

    values = mixed_witness_values(request)
    expected = {
        "mancini": (values["M_x"], 1.0),
        "duan_m1": (values["duan"][0], 2.0),
        "su2": values["su2"],
        "su11": values["su11"],
        "k_uncertainty": values["k_uncertainty"],
    }
    gains = request["duan_m"]
    if [d["m"] for d in output["duan"]] != gains:
        return problems + [f"duan gains {[d['m'] for d in output['duan']]}, requested {gains}"]
    for duan, m, total in zip(output["duan"], gains, values["duan"]):
        _check_value(problems, f"duan(m={m}) M", duan["M"], total)
        _check_verdict(problems, f"duan(m={m})", duan["detected"], total, m * m + 1 / (m * m))
    queries = output["queries"]
    for name, key in QUERY_CHECKS.items():
        lhs, rhs = expected[key]
        _check_value(problems, f"query {name} lhs", queries[name]["lhs"], lhs)
        _check_value(problems, f"query {name} rhs", queries[name]["rhs"], rhs)
        _check_verdict(problems, f"query {name}", not queries[name]["holds"], lhs, rhs)
    for witness, (key, query_name) in WITNESS_CHECKS.items():
        wit, query = output["witnesses"][witness], queries[query_name]
        lhs, rhs = expected[key]
        _check_value(problems, f"{witness} lhs", wit["lhs"], lhs)
        _check_value(problems, f"{witness} rhs", wit["rhs"], rhs)
        _check_verdict(problems, witness, wit["detected"], lhs, rhs)
        if _clear(query["lhs"] - query["rhs"]) and wit["detected"] == query["holds"]:
            problems.append(f"{witness} detected={wit['detected']} but query holds={query['holds']}")
    k_unc = queries["k_uncertainty"]
    if _clear(k_unc["lhs"] - k_unc["rhs"]) and not k_unc["holds"]:
        problems.append("K-triple uncertainty relation violated by a physical state")
    return problems

"""Worker processes that run.py starts.

  worker.py serve PLAN.json        warm in-process worker for sweep_bell and
                                   library_mixed: import, warm up, print a
                                   ready line, then run a closed loop for the
                                   number of seconds run.py sends
  worker.py cold CONFIG SPANS.npz  one traced `entcert evaluate` request in a
                                   fresh interpreter, for evaluate_cold

Every line the serve worker prints on stdout is one JSON message.  With
tracing on, the spans are written to an .npz file when the worker ends.
"""

import json
import resource
import sys
import time
from pathlib import Path

# Timed first, before anything else loads numpy: this is the import a user pays.
_import_start = time.perf_counter()
import entcert.cli  # noqa: E402
from entcert import criteria, dsl, fock, states  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

import inputs  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402


def _check_source(root: str) -> None:
    src = (Path(root) / "src").resolve()
    if not Path(entcert.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench worker: entcert imported from {entcert.cli.__file__}, not {src}")


class SweepRunner:
    """One request: `entcert sweep` on a seeded Bell grid, CSV into tmpdir."""

    def __init__(self, plan):
        self.plan = plan
        self.tmp = Path(plan["tmpdir"])

    def prepare(self, index, stream):
        config = inputs.make_request("sweep_bell", self.plan["params"], self.plan["seed"], index, stream)
        stem = self.tmp / f"sweep-{stream}-{index}"
        cfg_path, csv_path = f"{stem}.json", f"{stem}.csv"
        Path(cfg_path).write_text(json.dumps(config))
        record = {"index": index, "config": config, "csv": csv_path}

        def call():
            code = entcert.cli.main(["sweep", cfg_path, csv_path])
            if code != 0:
                raise RuntimeError(f"sweep exited {code}")
            return code

        return call, record


class LibraryRunner:
    """One request: every witness and every BUILTIN_QUERIES entry on each
    state of a small batch of mixed states."""

    MAKERS = {
        "tmsv": "two_mode_squeezed_vacuum",
        "photon_subtracted_tmsv": "photon_subtracted_tmsv",
    }

    def __init__(self, plan):
        self.plan = plan

    def prepare(self, index, stream):
        request = inputs.make_request("library_mixed", self.plan["params"], self.plan["seed"], index, stream)

        def call():
            return [self.certify(state) for state in request["states"]]

        return call, {"index": index, "request": request}

    def certify(self, request):
        sq, co = request["squeezed"], request["coherent"]
        cutoff = fock.Cutoff(sq["cutoff"]["d_a"], sq["cutoff"]["d_b"])
        maker = getattr(states, self.MAKERS[sq["kind"]])
        psi, _ = maker(sq["r"], sq["phi"], cutoff)
        coh, _ = states.product_coherent(
            complex(co["alpha_a"]["re"], co["alpha_a"]["im"]),
            complex(co["alpha_b"]["re"], co["alpha_b"]["im"]),
            cutoff,
        )
        p = request["weight"]
        rho = fock.DensityOperator(
            p * states.density_from_pure(psi).entries
            + (1.0 - p) * states.density_from_pure(coh).entries,
            cutoff,
        )
        duan = [criteria.duan_witness(rho, m) for m in request["duan_m"]]
        reports = {
            "mancini": criteria.mancini_witness(rho),
            "duan_m1": duan[0],
            "su2_pt": criteria.su2_pt_witness(rho),
            "su11_ladder": criteria.su11_pt_witness(rho, "ladder"),
            "su11_quadrature": criteria.su11_pt_witness(rho, "quadrature"),
        }
        ppt = criteria.ppt_witness(rho)
        queries = {name: dsl.evaluate_text(text, rho) for name, text in criteria.BUILTIN_QUERIES.items()}
        bound_of = {"mancini": ("M_x", "bound_M_x"), "duan_m1": ("M", "bound")}
        witnesses = {}
        for key, rep in reports.items():
            lhs_key, rhs_key = bound_of.get(key, ("lhs", "rhs"))
            witnesses[key] = {
                "lhs": rep.quantities[lhs_key],
                "rhs": rep.quantities[rhs_key],
                "detected": rep.entangled_detected,
            }
        return {
            "witnesses": witnesses,
            "duan": [
                {"m": rep.quantities["m"], "M": rep.quantities["M"], "detected": rep.entangled_detected}
                for rep in duan
            ],
            "ppt": {
                "min_eigenvalue": ppt.quantities["min_eigenvalue"],
                "negativity": ppt.quantities["negativity"],
                "detected": ppt.entangled_detected,
            },
            "queries": {
                name: {"lhs": q.lhs, "rhs": q.rhs, "holds": q.holds} for name, q in queries.items()
            },
        }


RUNNERS = {"sweep_bell": SweepRunner, "library_mixed": LibraryRunner}


def _run(runner, tracer, index, stream, request_id, kernel):
    call, record = runner.prepare(index, stream)
    before = speed.reference_s(kernel)
    if tracer is not None:
        tracer.begin_request(request_id)
    start = time.perf_counter()
    try:
        record["output"] = call()
    except Exception as exc:  # run.py counts it as failed; the loop goes on
        record["error"] = repr(exc)
    record["latency_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.end_request()
    record["reference_s"] = [before, speed.reference_s(kernel)]
    return record


def serve(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    _check_source(plan["root"])
    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.install()
    runner = RUNNERS[plan["workload"]](plan)
    kernel = plan["speed_kernel"]
    for k in range(plan["warmup"]):
        _run(runner, tracer, k, inputs.WARMUP, -(k + 1), kernel)
    print(json.dumps({"ready": True, "import_s": IMPORT_S}), flush=True)

    command = json.loads(sys.stdin.readline() or '{"quit": true}')
    if command.get("quit"):
        return 0
    records = []
    deadline = time.perf_counter() + command["seconds"]
    while time.perf_counter() < deadline:
        records.append(_run(runner, tracer, len(records), inputs.TIMED, len(records), kernel))
    Path(plan["records"]).write_text(json.dumps(records))
    if tracer is not None:
        tracer.dump(plan["spans"])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"done": True, "maxrss_kb": maxrss_kb}), flush=True)
    return 0


def cold(config_path: str, spans_path: str) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_request(0)
    try:
        code = entcert.cli.main(["evaluate", config_path])
    finally:
        tracer.end_request()
        tracer.extra["import_s"] = IMPORT_S
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "serve":
        sys.exit(serve(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "cold":
        sys.exit(cold(sys.argv[2], sys.argv[3]))
    sys.exit("usage: worker.py serve PLAN.json | worker.py cold CONFIG SPANS.npz")

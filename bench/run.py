"""entcert benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; entcert is imported from ``src/``
of that checkout and from nowhere else.  Workloads, their generator
parameters and the reason each one exists are in ``bench/workloads.json``.

``--trace 0`` is the timed run: one client in a closed loop for S seconds,
tracing off.  It reports the end-to-end metrics.  ``--trace 1`` is the
traced run: S/2 seconds untraced, then S/2 seconds on a process with span
wrappers installed (spans.py).  Times of the end-to-end metrics and the
tracing overhead are scaled to a reference host speed (speed.py); the
report keeps the raw wall times beside them.  It reports the per-layer metrics and the
tracing overhead.  Every output of both runs goes through the oracle
(oracle.py) and a mismatch counts as a failed request.

The last line of stdout is the result object; the lines before it are the
full report (every metric with its unit and sample count, the tail
percentile, the environment, the first failures).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# One BLAS thread in every process: the loop has one client, and a second
# thread on a shared machine adds more noise than speed.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
from spans import REQUEST, LayerTable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
# Launches of the serving process per run; setup_s is their median.
SETUP_LAUNCHES = 5
# Untimed requests a warm worker serves before its ready line, to fill caches.
WARMUP_REQUESTS = 2
# Time a run may take beyond --seconds: the setup launches, the traced run's
# second worker, the oracle checks and the last request's overrun.
RUN_MARGIN_S = 140.0
MIN_TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed request)."""


# -- environment -------------------------------------------------------------

def environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": min(BLAS_THREADS, nproc),
    }


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# -- statistics ----------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n


def metric(value, unit: str, samples: int, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def tail_metric(value: float, percentile: float, samples: int) -> dict:
    extra = {"percentile": round(percentile, 2)}
    if percentile <= 50.0:
        extra["flag"] = (
            f"only {samples} requests: the tail sample is at or below the median, "
            "so this value measures no tail"
        )
    return metric(value, "s", samples, **extra)


# -- processes -----------------------------------------------------------------

class Deadline:
    def __init__(self, seconds: float):
        self.at = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.at - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time budget")
        return remaining


def run_child(argv, root: Path, deadline: Deadline, stdout=None, stderr=None):
    """Start, wait, and return (exit code, wall seconds, peak RSS in KB) of one child.

    The child's own rusage comes from wait4; a child still running at the
    deadline is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=worker_env(root), stdout=stdout, stderr=stderr)
    killer = threading.Timer(deadline.left(), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Worker:
    """A warm serve worker (worker.py serve), talking JSON lines over pipes."""

    def __init__(self, bench, trace: bool, tag: str):
        self.bench = bench
        self.records_path = bench.tmp / f"records-{tag}.json"
        self.spans_path = bench.tmp / f"spans-{tag}.npz"
        plan = {
            "root": str(bench.root),
            "workload": bench.workload,
            "params": bench.spec["params"],
            "speed_kernel": bench.kernel,
            "seed": bench.seed,
            "warmup": WARMUP_REQUESTS,
            "trace": trace,
            "tmpdir": str(bench.tmp),
            "records": str(self.records_path),
            "spans": str(self.spans_path),
        }
        plan_path = bench.tmp / f"plan-{tag}.json"
        plan_path.write_text(json.dumps(plan))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve", str(plan_path)],
            cwd=bench.root,
            env=worker_env(bench.root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        bench.workers.append(self)
        ready = self._read()
        self.setup_s = time.perf_counter() - start
        self.import_s = ready["import_s"]

    def _read(self) -> dict:
        result = {}

        def read():
            result["line"] = self.proc.stdout.readline()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(self.bench.deadline.left())
        line = result.get("line", "")
        if not line:
            self.stop()
            raise BenchError(f"{self.bench.workload} worker ended or stalled without a reply")
        return json.loads(line)

    def _send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def quit(self) -> None:
        self._send({"quit": True})
        self.stop()

    def serve(self, seconds: float) -> tuple[list[dict], int]:
        self._send({"seconds": seconds})
        done = self._read()
        self.stop()
        return json.loads(self.records_path.read_text()), done["maxrss_kb"]

    def stop(self) -> None:
        try:
            self.proc.wait(timeout=max(1.0, min(10.0, self.bench.deadline.at - time.monotonic())))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


# -- the benchmark ---------------------------------------------------------------

class Bench:
    def __init__(self, root: Path, tmp: Path, workload: str, spec: dict, seed: int, seconds: float):
        self.root = root
        self.tmp = tmp
        self.workload = workload
        self.spec = spec
        self.seed = seed
        self.deadline = Deadline(seconds + RUN_MARGIN_S)
        self.failures: list[str] = []
        self.workers: list[Worker] = []
        self.scaling = spec["speed"]
        self.kernel = self.scaling["kernel"]
        speed.reference_s(self.kernel)  # first-call costs stay out of the timings

    def close(self) -> None:
        """Stop any worker still running, e.g. after an error."""
        for worker in self.workers:
            if worker.proc.poll() is None:
                worker.proc.kill()
            worker.stop()

    # A phase returns one outcome per request ("latency_s", "reference_s",
    # "states", "ok") and the peak RSS in KB of the process(es) that served
    # them.  "reference_s" holds the speed kernel's times right before and
    # after the request.

    def setup(self) -> tuple[list[float], list[list[float]], list[float], object]:
        """Launch the serving process SETUP_LAUNCHES times; keep the last one."""
        setups, references, imports, kept = [], [], [], None
        for k in range(SETUP_LAUNCHES):
            before = speed.reference_s(self.kernel)
            if self.workload == "evaluate_cold":
                _, wall, _ = run_child(
                    [sys.executable, "-c", "import entcert.cli"], self.root, self.deadline
                )
                setups.append(wall)
                references.append([before, speed.reference_s(self.kernel)])
                continue
            worker = Worker(self, trace=False, tag=f"setup{k}")
            setups.append(worker.setup_s)
            references.append([before, speed.reference_s(self.kernel)])
            imports.append(worker.import_s)
            if k == SETUP_LAUNCHES - 1:
                kept = worker
            else:
                worker.quit()
        return setups, references, imports, kept

    def warm_phase(self, worker: Worker, seconds: float):
        records, maxrss_kb = worker.serve(seconds)
        return [self.judge(rec) for rec in records], maxrss_kb

    def judge(self, rec: dict) -> dict:
        if "error" in rec:
            problems = [rec["error"]]
        elif self.workload == "sweep_bell":
            csv_path = Path(rec["csv"])
            problems = oracle.check_sweep(rec["config"], csv_path.read_text())
            csv_path.unlink()
        else:
            problems = [
                msg
                for state, output in zip(rec["request"]["states"], rec["output"])
                for msg in oracle.check_library(state, output)
            ]
        if self.workload == "sweep_bell":
            states = rec["config"]["sweep"]["n_theta"] * rec["config"]["sweep"]["n_phi"]
        else:
            states = len(rec["request"]["states"])
        return self._outcome(rec["index"], rec["latency_s"], rec["reference_s"], states, problems)

    def _outcome(self, index, latency, reference, states, problems) -> dict:
        if problems:
            self.failures.append(f"request {index}: " + "; ".join(problems[:3]))
        return {"latency_s": latency, "reference_s": reference, "states": states, "ok": not problems}

    def cold_phase(self, seconds: float, table: LayerTable | None = None):
        """One fresh process per request; traced when a table collects the spans."""
        traced = table is not None
        outcomes, peak_kb, imports = [], 0, []
        stop_at = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < stop_at:
            config = inputs.make_request("evaluate_cold", self.spec["params"], self.seed, index)
            cfg = self.tmp / f"evaluate-{index}.json"
            cfg.write_text(json.dumps(config))
            out, err = self.tmp / "stdout.txt", self.tmp / "stderr.txt"
            spans = self.tmp / f"cold-{index}.npz"
            if traced:
                argv = [sys.executable, str(HERE / "worker.py"), "cold", str(cfg), str(spans)]
            else:
                argv = [sys.executable, "-m", "entcert.cli", "evaluate", str(cfg)]
            before = speed.reference_s(self.kernel)
            with open(out, "wb") as out_f, open(err, "wb") as err_f:
                code, wall, rss_kb = run_child(argv, self.root, self.deadline, out_f, err_f)
            reference = [before, speed.reference_s(self.kernel)]
            peak_kb = max(peak_kb, rss_kb)
            if code != 0:
                problems = [f"exit {code}: {err.read_text(errors='replace').strip()[:200]}"]
            else:
                problems = oracle.check_evaluate(config, out.read_text())
            if traced and spans.exists():
                table.add_dump(spans)
                with np.load(spans) as data:
                    imports.append(json.loads(str(data["meta"]))["import_s"])
                spans.unlink()
            outcomes.append(self._outcome(index, wall, reference, 1, problems))
            index += 1
        return outcomes, peak_kb, imports

    def scaled_latencies(self, outcomes: list[dict]) -> list[float]:
        latencies = [o["latency_s"] for o in outcomes]
        return speed.scaled(latencies, [o["reference_s"] for o in outcomes], self.scaling)

    # -- the two kinds of run ----------------------------------------------------

    def timed(self, seconds: float) -> tuple[dict, list[dict]]:
        setups, setup_refs, _, worker = self.setup()
        if self.workload == "evaluate_cold":
            outcomes, peak_kb, _ = self.cold_phase(seconds)
        else:
            outcomes, peak_kb = self.warm_phase(worker, seconds)
        n = len(outcomes)
        ok = [o["ok"] for o in outcomes]
        states = sum(o["states"] for o in outcomes if o["ok"])
        metrics = {}
        for prefix, times, setup_times in (
            ("", self.scaled_latencies(outcomes), speed.scaled(setups, setup_refs, self.scaling)),
            ("raw.", [o["latency_s"] for o in outcomes], setups),
        ):
            tail_value, tail_pct = tail(times)
            metrics[prefix + "setup_s"] = metric(statistics.median(setup_times), "s", len(setups))
            metrics[prefix + "latency_p50_s"] = metric(statistics.median(times), "s", n)
            metrics[prefix + "latency_tail_s"] = tail_metric(tail_value, tail_pct, n)
            metrics[prefix + "states_per_s"] = metric(states / sum(times), "1/s", n)
        metrics["reference_s"] = metric(
            statistics.median(s for o in outcomes for s in o["reference_s"]), "s", 2 * n,
            kind=f"median time of the {self.kernel!r} speed kernel (speed.py) around the requests; "
            f"times not marked raw are scaled by ({speed.REFERENCE_S[self.kernel]} s over it) "
            f"to the power {self.scaling['sensitivity']}",
        )
        metrics["peak_rss_mb"] = metric(peak_kb / 1024.0, "MB", 1 if worker else n)
        metrics["success_frac"] = metric(sum(ok) / n, "ratio", n)
        metrics["failed_frac"] = metric((n - sum(ok)) / n, "ratio", n)
        return metrics, outcomes

    def traced(self, seconds: float) -> tuple[dict, list[dict]]:
        half = seconds / 2.0
        table = LayerTable()
        _, _, imports, worker = self.setup()
        if self.workload == "evaluate_cold":
            plain, _, _ = self.cold_phase(half)
            traced, _, imports = self.cold_phase(half, table)
        else:
            plain, _ = self.warm_phase(worker, half)
            tracing = Worker(self, trace=True, tag="traced")
            traced, _ = self.warm_phase(tracing, half)
            table.add_dump(tracing.spans_path)
        overhead = statistics.median(self.scaled_latencies(traced)) - statistics.median(
            self.scaled_latencies(plain)
        )
        return layer_metrics(table, imports, overhead, len(plain)), plain + traced


def layer_metrics(table: LayerTable, imports: list[float], overhead: float, n_plain: int) -> dict:
    """Per-layer metrics: seconds per request (self time, or inclusive for a
    witness), calls per request, and the counters."""
    n = max(table.requests, 1)
    request_s = table.incl_s.get(REQUEST, 0.0) or 1.0

    def self_s(name):
        total = table.self_s.get(name, 0.0)
        return metric(total / n, "s", n, kind="self time per request", share=total / request_s)

    def incl_s(name):
        total = table.incl_s.get(name, 0.0)
        return metric(total / n, "s", n, kind="inclusive time per request", share=total / request_s)

    moment_calls = table.calls.get("algebra.moment", 0)
    return {
        "algebra.moment_s": self_s("algebra.moment"),
        "algebra.polymul_s": self_s("algebra.polymul"),
        "algebra.variance_s": self_s("algebra.variance"),
        "algebra.expectation_s": self_s("algebra.expectation"),
        "algebra.quadrature_poly_s": self_s("algebra.quadrature_poly"),
        "algebra.moment_calls": metric(moment_calls / n, "count", n),
        "algebra.polymul_calls": metric(table.calls.get("algebra.polymul", 0) / n, "count", n),
        "algebra.distinct_monomials": metric(table.distinct_moments / n, "count", n),
        "algebra.moment_reuse_ratio": metric(
            table.distinct_moments / moment_calls if moment_calls else 0.0, "ratio", n,
            kind="distinct (state, monomial) pairs / moment calls",
        ),
        "fock.embed_s": self_s("fock.embed"),
        "fock.partial_transpose_s": self_s("fock.partial_transpose"),
        "fock.eigh_s": self_s("fock.eigh"),
        "fock.eigh_dim": metric(
            statistics.median(table.eigh_dims) if table.eigh_dims else 0, "count", len(table.eigh_dims)
        ),
        "fock.matrix_bytes": metric(
            table.max_matrix_bytes, "B", 1,
            kind="computed from array sizes, not measured: bytes of the dense matrices "
            "fock.embed built under algebra.moment in the serving process, warm-up included",
        ),
        "states.build_s": self_s("states.build"),
        "states.density_s": self_s("states.density"),
        "criteria.mancini_s": incl_s("criteria.mancini"),
        "criteria.duan_s": incl_s("criteria.duan"),
        "criteria.su2_pt_s": incl_s("criteria.su2_pt"),
        "criteria.su11_ladder_s": incl_s("criteria.su11_ladder"),
        "criteria.su11_quadrature_s": incl_s("criteria.su11_quadrature"),
        "criteria.ppt_s": incl_s("criteria.ppt"),
        "dsl.parse_s": self_s("dsl.parse"),
        "dsl.lower_s": self_s("dsl.lower"),
        "dsl.evaluate_s": self_s("dsl.evaluate"),
        "cli.self_s": self_s("cli.main"),
        "cli.import_s": metric(statistics.median(imports), "s", len(imports)),
        "bench.request_self_s": self_s(REQUEST),
        "trace.overhead_s": metric(
            overhead, "s", n + n_plain,
            kind="traced minus untraced latency_p50_s, both scaled to the reference speed",
        ),
    }


# -- entry point -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, spec=None):
    """One benchmark run; returns (report, result)."""
    root = ROOT
    if not (root / "src" / "entcert" / "__init__.py").is_file():
        raise BenchError(f"no entcert sources under {root / 'src'}; run from a source checkout")
    spec = spec or WORKLOADS[workload]
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bench = Bench(root, Path(tmp), workload, spec, seed, seconds)
            try:
                if trace:
                    metrics, outcomes = bench.traced(seconds)
                else:
                    metrics, outcomes = bench.timed(seconds)
            finally:
                bench.close()
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    failed = sum(1 for o in outcomes if not o["ok"])
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": spec["loop"],
        "clients": spec["clients"],
        "env": environment(),
        "metrics": metrics,
        "failures": bench.failures[:10],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {},
    }
    return report, result


def listed_metrics(metrics: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this kind of run, as value and unit."""
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in listed["per_layer" if trace else "end_to_end"]]
    return {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]} for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        result["metrics"] = listed_metrics(report["metrics"], bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

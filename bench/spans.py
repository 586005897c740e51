"""Span recorder for the traced run, and the per-layer table built from it.

``install`` wraps the public functions of each entcert module, under every
name through which other modules call them (``criteria.variance`` is the
same function as ``algebra.variance`` and gets the same wrapper).  A span
is (name, start, end, parent, request); spans live in flat arrays while
the process runs and are written out once, by ``dump``.  A call that
re-enters a function already open on top of the stack (``dsl.lower`` is
recursive) stays inside the outer span.

Counts are taken at the same boundaries: distinct (state, monomial) pairs
per request at ``algebra.moment``, the matrix dimension at
``fock.hermitian_eigenvalues``, and the bytes of the dense matrices that
``fock.embed`` builds under ``algebra.moment``, which the moment cache then
holds (computed from array sizes, not measured).

A TARGETS entry missing from the package is skipped; the table names the
public functions of this version and needs updating when they change.
"""

import json
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); the span name is the layer metric prefix.
TARGETS = (
    ("algebra", "moment", "algebra.moment"),
    ("algebra", "expectation_poly", "algebra.expectation"),
    ("algebra", "variance", "algebra.variance"),
    ("algebra", "quadrature_poly", "algebra.quadrature_poly"),
    ("fock", "embed", "fock.embed"),
    ("fock", "partial_transpose_b", "fock.partial_transpose"),
    ("fock", "hermitian_eigenvalues", "fock.eigh"),
    ("states", "bell_xp_state", "states.build"),
    ("states", "two_mode_squeezed_vacuum", "states.build"),
    ("states", "photon_subtracted_tmsv", "states.build"),
    ("states", "product_coherent", "states.build"),
    ("states", "density_from_pure", "states.density"),
    ("criteria", "mancini_witness", "criteria.mancini"),
    ("criteria", "duan_mancini_relation", "criteria.mancini"),
    ("criteria", "duan_witness", "criteria.duan"),
    ("criteria", "su2_pt_witness", "criteria.su2_pt"),
    ("criteria", "ppt_witness", "criteria.ppt"),
    ("criteria", "bell_closed_forms", "criteria.closed_forms"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "lower", "dsl.lower"),
    ("dsl", "evaluate", "dsl.evaluate"),
    ("cli", "main", "cli.main"),
)

REQUEST = "request"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self._request_id = -1
        self._moment_keys: set = set()
        self._pinned: list = []  # keeps states alive so their ids stay unique
        self.distinct_moments: dict[int, int] = {}
        self.eigh_dims: list[int] = []
        self.matrix_bytes = 0
        self.extra: dict = {}

    def _code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        idx = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        code = self._code_of(name)

        def traced(*args, **kwargs):
            stack = self._stack
            if stack and self.code[stack[-1]] == code:
                return fn(*args, **kwargs)
            idx = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def begin_request(self, request_id: int) -> None:
        self._request_id = request_id
        self._moment_keys = set()
        self._pinned = []
        self._request_span = self._open(self._code_of(REQUEST))

    def end_request(self) -> None:
        self._close(self._request_span)
        self.distinct_moments[self._request_id] = len(self._moment_keys)
        self._moment_keys = set()
        self._pinned = []
        self._request_id = -1

    # -- counters ----------------------------------------------------------

    def _after_moment(self, args, _result) -> None:
        rho, mono = args[0], args[1]
        key = (id(rho), tuple(mono))
        if key not in self._moment_keys:
            self._moment_keys.add(key)
            self._pinned.append(rho)

    def _after_eigh(self, args, _result) -> None:
        self.eigh_dims.append(int(np.shape(args[0])[0]))

    def _after_embed(self, _args, result) -> None:
        # Only matrices built under algebra.moment are kept, by its cache.
        if self._stack and self.names[self.code[self._stack[-1]]] == "algebra.moment":
            self.matrix_bytes += int(result.nbytes)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every TARGETS function under each name it is bound to."""
        from entcert import algebra, criteria

        hooks = {
            "algebra.moment": self._after_moment,
            "fock.eigh": self._after_eigh,
            "fock.embed": self._after_embed,
        }
        replace = {}
        for module, attr, name in TARGETS:
            original = getattr(sys.modules[f"entcert.{module}"], attr, None)
            if original is not None:
                replace[id(original)] = self.wrap(name, original, hooks.get(name))
        ladder = self.wrap("criteria.su11_ladder", criteria.su11_pt_witness)
        quadrature = self.wrap("criteria.su11_quadrature", criteria.su11_pt_witness)

        def su11_pt_witness(rho, mode="ladder"):
            return (quadrature if mode == "quadrature" else ladder)(rho, mode)

        replace[id(criteria.su11_pt_witness)] = su11_pt_witness
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "entcert" or mod_name.startswith("entcert."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replace:
                        setattr(module, attr, replace[id(value)])
        poly = algebra.OperatorPoly
        poly._poly_multiply = self.wrap("algebra.polymul", poly._poly_multiply)

    def dump(self, path) -> None:
        np.savez(
            path,
            code=np.frombuffer(self.code, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            meta=np.array(
                json.dumps(
                    {
                        "names": self.names,
                        "distinct_moments": self.distinct_moments,
                        "eigh_dims": self.eigh_dims,
                        "matrix_bytes": self.matrix_bytes,
                        **self.extra,
                    }
                )
            ),
        )


class LayerTable:
    """Totals per span name over the timed requests of one or more dumps."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.requests = 0
        self.distinct_moments = 0
        self.eigh_dims: list[int] = []
        self.max_matrix_bytes = 0

    def add_dump(self, path) -> None:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            code, parent, request = data["code"], data["parent"], data["request"]
            duration = data["end"] - data["start"]
        names = meta["names"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - covered
        timed = request >= 0  # warm-up requests carry negative ids
        for c, name in enumerate(names):
            sel = timed & (code == c)
            self.self_s[name] = self.self_s.get(name, 0.0) + float(own[sel].sum())
            self.incl_s[name] = self.incl_s.get(name, 0.0) + float(duration[sel].sum())
            self.calls[name] = self.calls.get(name, 0) + int(sel.sum())
        self.requests = self.calls.get(REQUEST, 0)
        self.distinct_moments += sum(v for k, v in meta["distinct_moments"].items() if int(k) >= 0)
        self.eigh_dims.extend(meta["eigh_dims"])
        self.max_matrix_bytes = max(self.max_matrix_bytes, meta["matrix_bytes"])

"""Per-layer tracer for the benchmark's traced runs.

It wraps public functions of ``charp_qkz`` from outside. ``from .x import f``
copies a function into other modules, so every binding of the original
function object in every ``charp_qkz`` module is replaced (for example
``pcurvature.extract_solutions``, ``hypergeo.k_operator_at`` and the
``verify_*`` names in ``cli``). ``MPoly`` methods are replaced on the class,
under every attribute that holds them (``__rmul__`` is ``__mul__``).

Coarse functions record one span per call in memory (name, start, end,
parent span, operation id); spans are written out at the end. Fine-grained
hot functions keep counters only, which bounds memory and overhead.

Per function: ``calls`` counts every call, ``busy_s`` is the time inside the
outermost call of the function, and ``self_s`` is the time of each call
minus the time covered by traced calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from time import perf_counter

COARSE = {
    "cli": ("main",),
    "hypergeo": (
        "extract_solutions",
        "solution_set_to_json",
        "barq_solutions",
        "verify_independence",
        "verify_orthogonality",
        "verify_leading_terms",
        "verify_restrictions",
        "verify_quasi_flatness",
        "quasi_sections_at",
    ),
    "dense": (
        "build_product_tpoly",
        "dense_pochhammer_coeffs",
        "dense_to_mpoly",
        "dense_shift_var",
        "dense_conv",
        "mpoly_to_dense",
        "dense_eval_points",
    ),
    "qkz_core": (
        "verify_qkz_solution",
        "verify_kz_solution",
        "k_matrix_batch",
        "verify_flatness",
        "verify_rmatrix_identities",
    ),
    "pochhammer": ("pochhammer_identity_suite",),
    "pcurvature": (
        "verify_curvature_battery",
        "verify_duality",
        "verify_ext_kappa",
        "curvature_batch",
        "reduced_curvature_at",
    ),
}

FINE = {
    "mpoly": ("MPoly.__str__", "MPoly.eval", "MPoly.__mul__"),
    "linalg": ("rank", "det", "solve", "ext_matmul"),
    "qkz_core": ("k_operator_at",),
    "ffield": ("sample_point",),
}


def _expand(spec: str) -> list[str]:
    """'hypergeo.{a,b}.{calls,busy_s}' -> the four full names."""
    out = [""]
    for part in spec.split("."):
        alts = part[1:-1].split(",") if part.startswith("{") else [part]
        out = [f"{o}.{a}" if o else a for o in out for a in alts]
    return out


# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER_METRICS = [
    name
    for spec in (
        "dense.build_product_tpoly.{calls,busy_s,out_mb}",
        "dense.dense_pochhammer_coeffs.{calls,busy_s,out_mb}",
        "dense.dense_to_mpoly.{calls,busy_s,terms}",
        "mpoly.MPoly.__str__.{calls,busy_s}",
        "hypergeo.solution_set_to_json.{busy_s,self_s}",
        "cli.main.{calls,self_s}",
        "hypergeo.extract_solutions.{calls,busy_s,self_s,distinct_keys,reuse_ratio}",
        "hypergeo.{barq_solutions,verify_independence,verify_orthogonality}.busy_s",
        "hypergeo.verify_leading_terms.self_s",
        "hypergeo.{verify_restrictions,verify_quasi_flatness}.{busy_s,self_s}",
        "hypergeo.quasi_sections_at.{calls,busy_s}",
        "mpoly.MPoly.{eval,__mul__}.{calls,busy_s}",
        "qkz_core.{verify_qkz_solution,verify_kz_solution}.{calls,busy_s,self_s}",
        "dense.{dense_shift_var,dense_conv,mpoly_to_dense}.{calls,busy_s}",
        "pochhammer.pochhammer_identity_suite.{calls,busy_s}",
        "pcurvature.{verify_curvature_battery,verify_duality,verify_ext_kappa}.{calls,busy_s,self_s}",
        "pcurvature.{curvature_batch,reduced_curvature_at}.{calls,busy_s}",
        "qkz_core.{k_matrix_batch,k_operator_at}.{calls,busy_s}",
        "qkz_core.{verify_flatness,verify_rmatrix_identities}.busy_s",
        "linalg.{rank,det,solve,ext_matmul}.{calls,busy_s}",
        "dense.dense_eval_points.{calls,busy_s}",
        "ffield.sample_point.{calls,busy_s}",
        "trace.overhead_frac",
    )
    for name in _expand(spec)
]

UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "out_mb": "MB",
    "terms": "count",
    "distinct_keys": "count",
    "reuse_ratio": "ratio",
    "overhead_frac": "ratio",
}


class _Stats:
    __slots__ = ("calls", "depth", "busy", "self_", "out_mb", "terms", "keys")

    def __init__(self):
        self.calls = self.depth = self.terms = 0
        self.busy = self.self_ = self.out_mb = 0.0
        self.keys = set()


def _extract_solutions_key(st, args, result):
    params = args[0]
    st.keys.add((params.p, params.n, params.kappa.val))


def _array_out_mb(st, args, result):
    arr = result[0] if isinstance(result, tuple) else result
    st.out_mb += arr.nbytes / 1e6


def _mpoly_terms(st, args, result):
    st.terms += len(result.terms)


EXTRAS = {
    "hypergeo.extract_solutions": _extract_solutions_key,
    "dense.build_product_tpoly": _array_out_mb,
    "dense.dense_pochhammer_coeffs": _array_out_mb,
    "dense.dense_to_mpoly": _mpoly_terms,
}


def _package_modules() -> list:
    pkg = importlib.import_module("charp_qkz")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"charp_qkz.{info.name}")
    return [m for name, m in sys.modules.items() if name == "charp_qkz" or name.startswith("charp_qkz.")]


class Tracer:
    """Install with :meth:`install`, restore the program with
    :meth:`uninstall`. ``op_id`` tags the spans of the current request."""

    def __init__(self):
        self.stats: dict[str, _Stats] = {}
        self.spans: list = []
        self.op_id = -1
        self._open_span = None  # index of the innermost open span
        self._frames: list = []  # child-time accumulators of open traced calls
        self._restore: list = []
        self.wrappers: dict[str, object] = {}
        self.originals: dict[str, object] = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool):
        st = self.stats.setdefault(name, _Stats())
        frames = self._frames
        extra = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            frame = [0.0]
            frames.append(frame)
            if span:
                parent = tracer._open_span
                idx = len(tracer.spans)
                tracer.spans.append(None)
                tracer._open_span = idx
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                dur = t1 - t0
                if frames:
                    frames[-1][0] += dur
                st.depth -= 1
                if st.depth == 0:
                    st.busy += dur
                st.self_ += dur - frame[0]
                if span:
                    tracer.spans[idx] = (name, t0, t1, parent, tracer.op_id)
                    tracer._open_span = parent
            if extra is not None:
                extra(st, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for table, span in ((COARSE, True), (FINE, False)):
            for modname, names in table.items():
                mod = sys.modules[f"charp_qkz.{modname}"]
                for qual in names:
                    name = f"{modname}.{qual}"
                    if "." in qual:
                        clsname, attr = qual.split(".")
                        cls = getattr(mod, clsname)
                        orig = cls.__dict__[attr]
                        owners = [cls]
                    else:
                        orig = getattr(mod, qual)
                        owners = modules
                    wrapper = self._wrap(name, orig, span)
                    self.originals[name] = orig
                    self.wrappers[name] = wrapper
                    for owner in owners:
                        for key, value in list(vars(owner).items()):
                            if value is orig:
                                setattr(owner, key, wrapper)
                                self._restore.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac, which needs
        the untraced run."""
        out = {}
        for metric in PER_LAYER_METRICS:
            func, stat = metric.rsplit(".", 1)
            if func == "trace":
                continue
            st = self.stats.get(func) or _Stats()
            if stat == "calls":
                value = st.calls
            elif stat == "busy_s":
                value = st.busy
            elif stat == "self_s":
                value = st.self_
            elif stat == "out_mb":
                value = st.out_mb
            elif stat == "terms":
                value = st.terms
            elif stat == "distinct_keys":
                value = len(st.keys)
            elif stat == "reuse_ratio":
                value = 1 - len(st.keys) / st.calls if st.calls else 0.0
            else:
                raise KeyError(metric)
            out[metric] = value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op}) + "\n")

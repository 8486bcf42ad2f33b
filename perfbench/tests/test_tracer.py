"""Tracer fidelity: outputs unchanged, call counts exact, every binding wrapped."""

import json
import os
import sys

import pytest

import run
import workloads
from tracer import COARSE, FINE, PER_LAYER_METRICS, Tracer
from worker import call

from charp_qkz import hypergeo
from charp_qkz.ffield import make_field
from charp_qkz.qkz_core import make_params

TINY = [
    workloads.solve_argv(7, 3, 2),
    ["verify", "--p", "5", "--n", "3", "--suites", "solutions", "ortho", "curvature", "ext_kappa",
     "quasi", "--points", "4", "--seed", "3", "--format", "json"],
]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def _outputs(cli):
    outs = []
    for argv in TINY:
        hypergeo._solution_cache.clear()
        outs.append(call(cli, argv)[:2])
    return outs


def test_traced_outputs_byte_identical():
    cli = workloads.import_cli()
    plain = _outputs(cli)
    t = Tracer()
    t.install()
    try:
        traced = _outputs(cli)
    finally:
        t.uninstall()
    assert traced == plain
    assert all(rc == 0 for rc, _ in plain)
    assert t.stats["cli.main"].calls == len(TINY)


def test_extract_solutions_call_counts(tracer):
    params = make_params(make_field(7), 3, 2)
    hypergeo._solution_cache.clear()
    hypergeo.extract_solutions(params)
    m = tracer.metrics()
    assert m["dense.build_product_tpoly.calls"] == 3
    assert m["dense.dense_pochhammer_coeffs.calls"] == 3
    assert m["hypergeo.extract_solutions.calls"] == 1
    hypergeo.extract_solutions(params)
    m = tracer.metrics()
    assert m["dense.build_product_tpoly.calls"] == 3
    assert m["dense.dense_pochhammer_coeffs.calls"] == 3
    assert m["hypergeo.extract_solutions.calls"] == 2
    assert m["hypergeo.extract_solutions.distinct_keys"] == 1
    assert m["hypergeo.extract_solutions.reuse_ratio"] == 0.5
    st = tracer.stats["hypergeo.extract_solutions"]
    assert 0 < st.self_ < st.busy


def test_every_binding_wrapped(tracer):
    originals = {id(f): name for name, f in tracer.originals.items()}
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "charp_qkz":
            continue
        for attr, value in vars(mod).items():
            assert id(value) not in originals, f"{modname}.{attr} still unwrapped"
    from charp_qkz import cli, pcurvature
    from charp_qkz.mpoly import MPoly

    for attr, value in vars(MPoly).items():
        assert id(value) not in originals, f"MPoly.{attr} still unwrapped"
    w = tracer.wrappers
    assert pcurvature.extract_solutions is w["hypergeo.extract_solutions"]
    assert pcurvature.ext_matmul is w["linalg.ext_matmul"]
    assert pcurvature.k_matrix_batch is w["qkz_core.k_matrix_batch"]
    assert pcurvature.k_operator_at is w["qkz_core.k_operator_at"]
    assert hypergeo.k_operator_at is w["qkz_core.k_operator_at"]
    assert cli.verify_curvature_battery is w["pcurvature.verify_curvature_battery"]
    assert cli.verify_ext_kappa is w["pcurvature.verify_ext_kappa"]
    assert cli.solution_set_to_json is w["hypergeo.solution_set_to_json"]
    assert cli.pochhammer_identity_suite is w["pochhammer.pochhammer_identity_suite"]
    assert cli.main is w["cli.main"]
    assert MPoly.__rmul__ is w["mpoly.MPoly.__mul__"]
    expected = {f"{m}.{q}" for table in (COARSE, FINE) for m, names in table.items() for q in names}
    assert set(w) == expected


def test_uninstall_restores_program():
    t = Tracer()
    t.install()
    t.uninstall()
    from charp_qkz import cli, pcurvature

    assert pcurvature.extract_solutions is t.originals["hypergeo.extract_solutions"]
    assert cli.main is t.originals["cli.main"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == PER_LAYER_METRICS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert set(Tracer().metrics()) == set(PER_LAYER_METRICS) - {"trace.overhead_frac"}

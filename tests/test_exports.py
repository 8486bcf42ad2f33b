"""The package surface: every exported name resolves, the sparse
t-polynomial, vector, solution and operator layers, the z-box symbolic
curvature, the solution values contracted from the arrays, the
factorial of the loop identity battery, the table loops that one
recurrence replaced and the per-degree factor products live only in tests/oracles, the field-element point helpers, the process-wide
curvature store and duplicate entry points are gone, only the dense kernels import the
sparse polynomials, and every cache is bounded."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import charp_qkz

MODULES = [
    importlib.import_module(f"charp_qkz.{info.name}")
    for info in pkgutil.iter_modules(charp_qkz.__path__)
]

MOVED_TO_ORACLES = {
    "TPoly",
    "PochhammerForm",
    "poch_factor",
    "poch_poly",
    "to_pochhammer_basis",
    "from_pochhammer_basis",
    "_poch_scalar_coeffs_ext",
    "VectorPoly",
    "gaudin_operator",
    "shapovalov",
    "negate_z",
    "negate_z_vector",
    "pairing_polynomial",
    "is_quasi_constant",
    "verify_pairing_periodicity",
    "_tensor_numerator",
    "q_vector",
    "minor",
    "_det_mpoly",
    "restrict_special",
    "verify_q_product_formula",
    "shift_point",
    "k_operator",
    "RatOpMatrix",
    "_u_form",
    "_matmul_poly",
    "LinearForm",
    "d_a_poly",
    "singular_basis",
    "_symbolic_box",
    "_symbolic_product",
    "evaluate_solutions",
    "factorial_mod",
    "pochhammer_scalar_coeffs",
    "_stirling_table",
    "product_tpoly_by_degree",
    "row_functional_by_degree",
}

# Deleted: the helpers of the field-element point form (points are (n, 2)
# pair arrays, read back with ffield.elements), an uncalled report
# serializer, exact division by linear forms (no caller outside its own
# tests), the sparse D_a closed-form check (d_a_closed_form is its dense
# replacement), wrappers of make_params(...).k and .d, the scalar
# elimination and K_a loop (tests/oracles/linalg.py keeps the elimination;
# rank, det, solve and k_operator_at are views of the batched kernels), and
# the per-solution degree helpers (dense_total_degrees reads the stack), and
# the FFT product's rounding bound and the coefficient-array pairing matrix
# (orthogonality is decided on the grid (F_p u {inf})^n; the sparse
# pairing_polynomial oracle is the reference), and the curvature battery's
# own report type and the one-suite command (the battery returns a
# CheckReport; curvature and ortho run the verify command), and the
# battery's row stacker and its (t + z; kappa)_m helper (every table is read
# from dense._triangle), and the two restrictions to the zero-sum space
# (pcurvature._zero_sum_basis serves the images, the bilinear duality and
# the ext_kappa determinant; tests/oracles/curvature.py keeps the bilinear
# one for the per-axis duality check), and the rescaled-table and
# power-view caches (dense._triangle rescales a cached base on every read).
REMOVED = {
    "points_to_array",
    "_elements",
    "_kappa_pair",
    "_draw_point",
    "curvature_report_json",
    "divide_exact_linear",
    "DivisibilityError",
    "verify_d_a_closed_form",
    "k_from_kappa",
    "k_from_kappa_int",
    "d_of_kappa",
    "_eliminate",
    "_to_rows",
    "_hyperplane_name",
    "_degrees",
    "dense_total_degree",
    "fft_error_bound",
    "orthogonality_pairing",
    "CurvatureReport",
    "cmd_suite",
    "_lower",
    "_plus_var_table",
    "_restrict_to_v",
    "_restrict_bilinear",
    "_rescaled",
    "_lag_powers",
}


def test_every_exported_name_resolves():
    assert len(MODULES) >= 8
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name} is exported but missing"


def test_z_box_curvature_lives_in_the_oracles():
    """The symbolic curvature on the z-box (its box, its (2n, n, box)
    builder, and the z closed form of D_a) is a test reference only, built
    on the int64 R-factor kernel of the oracles."""
    from oracles import symbolic, zbox

    for name in ("_symbolic_box", "_symbolic_product", "curvature_symbolic", "d_a_closed_form"):
        assert callable(getattr(zbox, name)), name
    assert zbox.curvature_symbolic is not charp_qkz.pcurvature.curvature_symbolic
    assert zbox.apply_r_factors is symbolic.apply_r_factors


def test_sparse_layers_left_the_package():
    for mod in [charp_qkz] + MODULES:
        assert not MOVED_TO_ORACLES & set(vars(mod)), mod.__name__
        assert not REMOVED & set(vars(mod)), mod.__name__
    assert not hasattr(charp_qkz.hypergeo.SolutionSet, "solutions")
    assert not hasattr(charp_qkz.ffield, "inv") and not hasattr(charp_qkz.ffield, "fpow")
    assert not hasattr(charp_qkz.ffield.FieldCtx, "elements")


# The caches without a maxsize, each keyed by a bounded domain: the fields
# and F_{p^2} inverse tables of the primes p <= 101, the running rows of the
# n < p axes, and the parser, which takes no arguments.
BOUNDED_BY_KEY = {
    charp_qkz.ffield.make_field,
    charp_qkz.ffield.inverse_table,
    charp_qkz.qkz_core._running_rows,
    charp_qkz.cli._parser,
}


def test_every_cache_is_bounded():
    """Memory stays bounded in a long-lived process: every cache of the
    package has a finite maxsize or is keyed by a bounded domain."""
    caches = {obj for mod in MODULES for obj in vars(mod).values() if hasattr(obj, "cache_info")}
    assert BOUNDED_BY_KEY <= caches
    for cache in caches - BOUNDED_BY_KEY:
        assert cache.cache_info().maxsize is not None, f"{cache.__module__}.{cache.__qualname__}"


def test_pcurvature_keeps_no_curvature_store():
    """The curvature stacks go from the sweep to the checks as arguments:
    pcurvature holds no module-level container, and neither the store of
    curvatures, its readers, its byte count nor its size cap is left."""
    mod = charp_qkz.pcurvature
    containers = [k for k, v in vars(mod).items() if not k.startswith("__") and isinstance(v, (dict, list, set))]
    assert containers == []
    assert [k for k in vars(mod) if "curvatures" in k.lower() or "stored" in k.lower()] == []


def _imported_modules(path: pathlib.Path) -> set[str]:
    """The package modules a source file imports, by relative or absolute
    import: "mpoly" for both ``from .mpoly import MPoly`` and
    ``from charp_qkz import mpoly``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif (node.module or "").split(".")[0] == "charp_qkz":
                parts = node.module.split(".")[1:]
            else:
                continue
            found |= {parts[0]} if parts else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "charp_qkz" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_only_dense_imports_the_sparse_polynomials():
    src = pathlib.Path(charp_qkz.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) >= 9
    importers = {f.name for f in files if "mpoly" in _imported_modules(f)}
    assert importers == {"dense.py"}


# The kernels and helpers that compute on (a0, a1) pair arrays: they take p
# (or the QkzParams that hold it) and read the nonresidue from
# make_field(p, 2); only functions that make or read FieldElements take a
# field context.
PAIR_ARRAY_FUNCTIONS = {
    "linalg": (
        "_pairs",
        "ext_mul",
        "ext_matmul",
        "ext_inv",
        "_eliminate_batch",
        "ext_det_batch",
        "ext_rank_batch",
        "ext_solve_batch",
    ),
    "qkz_core": ("k_product_batch", "k_matrix_batch", "kappa_shifts"),
    "pcurvature": (
        "curvature_batch",
        "_pair_products",
        "curvature_stack",
        "battery_points",
        "_curvature_ranks",
        "_zero_sum_basis",
        "_d_a_batch",
        "_nonsingular_points",
    ),
    "hypergeo": ("_section_systems", "_invert_sections"),
    "dense": ("dense_eval_points",),
}


def test_pair_array_functions_take_no_field_context():
    for module, names in PAIR_ARRAY_FUNCTIONS.items():
        mod = importlib.import_module(f"charp_qkz.{module}")
        for name in names:
            params = set(inspect.signature(getattr(mod, name)).parameters)
            assert not params & {"ctx", "pctx", "ectx", "delta"}, f"{module}.{name}{sorted(params)}"

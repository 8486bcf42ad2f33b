"""The package surface: every exported name resolves, the sparse
t-polynomial, vector, solution and operator layers and the z-box symbolic
curvature live only in tests/oracles, the field-element point helpers and
duplicate entry points are gone, and only the dense kernels import the
sparse polynomials."""

import ast
import importlib
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
}

# Deleted: the helpers of the field-element point form (points are (n, 2)
# pair arrays, read back with ffield.elements), an uncalled report
# serializer, exact division by linear forms (no caller outside its own
# tests), the sparse D_a closed-form check (d_a_closed_form is its dense
# replacement), wrappers of make_params(...).k and .d, the scalar
# elimination and K_a loop (tests/oracles/linalg.py keeps the elimination;
# rank, det, solve and k_operator_at are views of the batched kernels), and
# the per-solution degree helpers (dense_total_degrees reads the stack).
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
}


def test_every_exported_name_resolves():
    assert len(MODULES) >= 8
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name} is exported but missing"


def test_z_box_curvature_lives_in_the_oracles():
    """The symbolic curvature on the z-box (its box, its (2n, n, box)
    builder, and the z closed form of D_a) is a test reference only."""
    from oracles import zbox

    for name in ("_symbolic_box", "_symbolic_product", "curvature_symbolic", "d_a_closed_form"):
        assert callable(getattr(zbox, name)), name
    assert zbox.curvature_symbolic is not charp_qkz.pcurvature.curvature_symbolic


def test_sparse_layers_left_the_package():
    for mod in [charp_qkz] + MODULES:
        assert not MOVED_TO_ORACLES & set(vars(mod)), mod.__name__
        assert not REMOVED & set(vars(mod)), mod.__name__
    assert not hasattr(charp_qkz.hypergeo.SolutionSet, "solutions")
    assert not hasattr(charp_qkz.ffield, "inv") and not hasattr(charp_qkz.ffield, "fpow")
    assert not hasattr(charp_qkz.ffield.FieldCtx, "elements")


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

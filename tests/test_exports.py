"""The package surface: every exported name resolves, the sparse
t-polynomial, vector and solution layers live only in tests/oracles, and
the field-element point helpers are gone."""

import importlib
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
}

# Deleted: the helpers of the field-element point form (points are (n, 2)
# pair arrays, read back with ffield.elements), and an uncalled report
# serializer.
REMOVED = {"points_to_array", "_elements", "_kappa_pair", "_draw_point", "curvature_report_json"}


def test_every_exported_name_resolves():
    assert len(MODULES) >= 8
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name} is exported but missing"


def test_sparse_layers_left_the_package():
    for mod in [charp_qkz] + MODULES:
        assert not MOVED_TO_ORACLES & set(vars(mod)), mod.__name__
        assert not REMOVED & set(vars(mod)), mod.__name__
    assert not hasattr(charp_qkz.hypergeo.SolutionSet, "solutions")
    assert not hasattr(charp_qkz.ffield, "inv") and not hasattr(charp_qkz.ffield, "fpow")

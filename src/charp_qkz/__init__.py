"""Exact-arithmetic construction and verification of polynomial solutions of
rational sl2 qKZ difference equations over finite fields of characteristic p.
"""

from .ffield import FieldCtx, FieldElement, SamplingError, make_field, sample_point
from .pochhammer import pochhammer_identity_suite
from .qkz_core import (
    CheckReport,
    QkzParams,
    SingularPointError,
    k_operator_at,
    make_params,
)

__version__ = "0.1.0"

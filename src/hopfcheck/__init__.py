"""Exact-arithmetic verification kernel for Hopf algebra identities.

Finite-dimensional algebras are given by structure constants over the
rationals or an odd prime field; one infinite-dimensional co-Frobenius
family is built in through closed-form structure maps.  Everything is
checked exactly, with a named witness on every failure.
"""

from .cofrobenius import Carrier, cofrobenius_data
from .document import AlgebraDocument, DocumentError, build_algebra, load_document
from .hopf import AxiomError, FinHopfAlgebra, NotInvertibleError, verify_hopf
from .lincomb import LC, BasisOps
from .presets import PRESET_NAMES, preset_document
from .report import CheckResult, Report
from .scalars import QQ, PrimeField, ScalarError

__all__ = [
    "AlgebraDocument",
    "AxiomError",
    "BasisOps",
    "Carrier",
    "CheckResult",
    "DocumentError",
    "FinHopfAlgebra",
    "LC",
    "NotInvertibleError",
    "PRESET_NAMES",
    "PrimeField",
    "QQ",
    "Report",
    "ScalarError",
    "build_algebra",
    "cofrobenius_data",
    "load_document",
    "preset_document",
    "verify_hopf",
]

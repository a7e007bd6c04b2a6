"""Minimal polynomials of Ramanujan-type class invariants.

The pipeline: enumerate the reduced quadratic forms of discriminant -n,
attach to each a GL(2, Z/72) matrix as its factors mod 8 and mod 9,
turn those into an exact monomial action on six level-72 eta
quotients via S,T-word decomposition and a Galois twist (integer-encoded,
with the dense cyclotomic matrices as the exact oracle), evaluate each
conjugate at high precision, and round the expanded product to an
integer polynomial.

Importing the package loads only what that pipeline runs.  The dense
oracle (``classinv.oracle``, with ``RepMatrix``), the unit groups
(``classinv.orders``) and the helper process (``classinv.helper``) load
at their first use.
"""

from .classpoly import (
    ConjugateRecord,
    IntPolynomial,
    PolynomialResult,
    PrecisionError,
    compute_hilbert,
    compute_ramanujan,
    conjugate_value,
    verify_polynomial,
)
from .cyclotomic import CycNum
from .etarep import Monomial, invariance_check
from .numeval import eta, j_invariant, ramanujan_value
from .quadforms import QuadForm, class_number, form_root, reduce_form, reduced_forms

__version__ = "0.1.0"

__all__ = [
    "ConjugateRecord",
    "CycNum",
    "IntPolynomial",
    "Monomial",
    "PolynomialResult",
    "PrecisionError",
    "QuadForm",
    "RepMatrix",
    "class_number",
    "compute_hilbert",
    "compute_ramanujan",
    "conjugate_value",
    "eta",
    "form_root",
    "invariance_check",
    "j_invariant",
    "ramanujan_value",
    "reduce_form",
    "reduced_forms",
    "verify_polynomial",
    "__version__",
]


def __getattr__(name: str):
    """``RepMatrix``, importing the dense oracle at first use."""
    if name != "RepMatrix":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import RepMatrix
    return RepMatrix

"""Minimal polynomials of Ramanujan-type class invariants.

The pipeline: enumerate the reduced quadratic forms of discriminant -n,
attach to each a GL(2, Z/72) matrix as its factors mod 8 and mod 9,
turn those into an exact monomial action on six level-72 eta
quotients via S,T-word decomposition and a Galois twist (integer-encoded,
with the dense cyclotomic matrices as the exact oracle), evaluate each
conjugate at high precision, and round the expanded product to an
integer polynomial.

Importing the package loads none of its modules: each name below loads
its module at first use (``__getattr__``), so ``classinv.expansion``,
say, is imported without mpmath.  A polynomial loads only what the
pipeline runs; the dense oracle (``classinv.oracle``, with
``RepMatrix``), the unit groups (``classinv.orders``) and the helper
process (``classinv.helper``) load at their first use.
"""

from importlib import import_module

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


_HOMES = {
    "ConjugateRecord": "classpoly", "IntPolynomial": "classpoly",
    "PolynomialResult": "classpoly", "PrecisionError": "classpoly",
    "compute_hilbert": "classpoly", "compute_ramanujan": "classpoly",
    "conjugate_value": "classpoly", "verify_polynomial": "classpoly", "CycNum": "cyclotomic",
    "Monomial": "etarep", "invariance_check": "etarep", "eta": "numeval",
    "j_invariant": "numeval", "ramanujan_value": "numeval", "RepMatrix": "oracle",
    "QuadForm": "quadforms", "class_number": "quadforms", "form_root": "quadforms",
    "reduce_form": "quadforms", "reduced_forms": "quadforms",
}
"""The module that defines each name of ``__all__``."""


def __getattr__(name: str):
    """A name of ``__all__``, importing its module at first use."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOMES[name]}", __name__), name)

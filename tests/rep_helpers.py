"""Checks on representation matrices that only the tests need."""

from functools import lru_cache
from typing import Tuple

from classinv.etarep import RepMatrix, form_matrix_mod72, full_action
from classinv.quadforms import QuadForm
from classinv.sl2words import Mat2


def is_monomial(rep: RepMatrix) -> bool:
    """Whether every row and every column has exactly one nonzero entry."""
    col_seen = [False] * len(rep.rows)
    for row in rep.rows:
        hits = [j for j, x in enumerate(row) if x]
        if len(hits) != 1 or col_seen[hits[0]]:
            return False
        col_seen[hits[0]] = True
    return True


@lru_cache(maxsize=None)
def _full_action(matrix: Mat2) -> Tuple[RepMatrix, int]:
    return full_action(matrix)


def dense_action(form: QuadForm) -> Tuple[RepMatrix, int]:
    """The dense substitution matrix of the form and its determinant
    mod 72, by the exact oracle (``full_action`` on the form's GL2(Z/72)
    matrix), computed once per matrix."""
    return _full_action(form_matrix_mod72(form))

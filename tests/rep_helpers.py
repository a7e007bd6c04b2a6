"""Checks on representation matrices and unit groups that only the tests
need."""

from functools import lru_cache
from typing import Tuple

from classinv.etarep import RepMatrix, form_matrix_mod72, full_action
from classinv.orders import generators_for, multiply, unit_group
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


def basis_orders(n: int, modulus: int) -> Tuple[Tuple[int, ...], int]:
    """The orders of the paper's generators for n mod ``modulus``, each by
    repeated ``multiply``, and the order of the unit group that
    ``generators_for`` proves they generate.  A finite abelian group
    generated by elements whose orders multiply to its order is the
    direct product of the cyclic groups they span."""
    c_param = (n + 1) // 4
    group = unit_group(c_param, modulus)
    identity = (1 % modulus, 0)
    orders = []
    for g in generators_for(n, modulus, group):
        power, k = g, 1
        while power != identity:
            power = multiply(power, g, c_param, modulus)
            k += 1
        orders.append(k)
    return tuple(orders), group.order

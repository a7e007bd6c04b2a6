"""Checks on representation matrices that only the tests need."""

from classinv.etarep import RepMatrix


def is_monomial(rep: RepMatrix) -> bool:
    """Whether every row and every column has exactly one nonzero entry."""
    col_seen = [False] * len(rep.rows)
    for row in rep.rows:
        hits = [j for j, x in enumerate(row) if x]
        if len(hits) != 1 or col_seen[hits[0]]:
            return False
        col_seen[hits[0]] = True
    return True

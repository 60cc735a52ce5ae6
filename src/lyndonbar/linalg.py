"""Exact sparse linear helpers over Fraction: dict vectors and affine solving."""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, TypeVar

K = TypeVar("K", bound=Hashable)

Vec = dict
ZERO = Fraction(0)


def add_term(dst: dict, key, coeff) -> None:
    """Accumulate ``coeff`` at ``key``, dropping the entry when it cancels."""
    if not coeff:
        return
    c = dst.get(key, ZERO) + coeff
    if c:
        dst[key] = c
    else:
        dst.pop(key, None)


def combine(*parts: tuple[Fraction | int, Mapping]) -> dict:
    """Linear combination sum(c * vec) of sparse dict vectors."""
    out: dict = {}
    for c, vec in parts:
        if not c:
            continue
        for k, v in vec.items():
            add_term(out, k, c * v)
    return out


def solve_affine(
    equations: Iterable[tuple[Mapping[K, Fraction], Fraction]],
    var_order: list[K],
) -> tuple[dict[K, Fraction] | None, int]:
    """Solve a sparse affine system ``sum(row[k] * x[k]) = rhs`` exactly.

    Returns ``(solution, n_free)`` where the solution sets every free variable
    to 0, or ``(None, 0)`` if the system is inconsistent.  Pivots are chosen as
    the smallest variable (in ``var_order`` position) of each reduced row, so
    the result is deterministic.
    """
    pos = {v: i for i, v in enumerate(var_order)}
    pivots: dict[K, tuple[dict[K, Fraction], Fraction]] = {}
    for row, rhs in equations:
        work = {k: v for k, v in row.items() if v}
        # fully reduce against existing pivots; stored rows reference only
        # their own lead plus free variables, so each pivot variable present
        # in the row needs one subtraction and none reappear
        while True:
            present = [v for v in work if v in pivots]
            if not present:
                break
            var = min(present, key=pos.__getitem__)
            prow, prhs = pivots[var]
            c = work[var]
            for k, v in prow.items():
                add_term(work, k, -c * v)
            rhs -= c * prhs
        if not work:
            if rhs:
                return None, 0
            continue
        lead = min(work, key=pos.__getitem__)
        inv = 1 / work[lead]
        prow = {k: v * inv for k, v in work.items()}
        prhs = rhs * inv
        # eliminate the new lead from every stored row
        for other, (orow, orhs) in list(pivots.items()):
            c = orow.get(lead)
            if c:
                for k, v in prow.items():
                    add_term(orow, k, -c * v)
                pivots[other] = (orow, orhs - c * prhs)
        pivots[lead] = (prow, prhs)
    # with fully reduced rows and free variables set to 0, each pivot value
    # is its reduced right-hand side
    solution: dict[K, Fraction] = {v: ZERO for v in var_order}
    for lead, (_, prhs) in pivots.items():
        solution[lead] = prhs
    return solution, len(var_order) - len(pivots)


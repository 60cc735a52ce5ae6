"""Exact sparse linear helpers over Fraction: dict vectors and affine solving."""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, TypeVar

K = TypeVar("K", bound=Hashable)
L = TypeVar("L", bound=Hashable)

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
    equations: Iterable[tuple[Mapping[K, Fraction], Mapping[L, Fraction]]],
    var_order: list[K],
    *,
    labels: Iterable[L],
) -> tuple[dict[L, dict[K, Fraction] | None] | None, int]:
    """Solve sparse affine systems ``sum(row[k] * x[k]) = rhs[label]`` exactly.

    Each equation's right-hand side is a sparse dict from label to value, and
    the system of a label reads ``rhs.get(label, 0)`` in every row; a
    right-hand side naming a label outside ``labels`` raises ``ValueError``.
    Pivots are chosen from the rows alone, as the smallest variable (in
    ``var_order`` position) of each reduced row, so all labels share one
    elimination and each gets exactly the solution a solve for that label
    alone would give.

    ``equations`` is consumed as a stream: once every label's system is
    inconsistent no further row is pulled, and ``(None, 0)`` is returned.
    Otherwise returns ``(solutions, n_free)``: ``solutions`` maps each label
    to its solution, with every free variable set to 0, or to None if that
    label's system is inconsistent.
    """
    labels = dict.fromkeys(labels)
    dead: set = set()
    pos = {v: i for i, v in enumerate(var_order)}
    pivots: dict[K, tuple[dict[K, Fraction], dict[L, Fraction]]] = {}
    for row, rhs in equations:
        unknown = [k for k in rhs if k not in labels]
        if unknown:
            raise ValueError(f"right-hand side labels {unknown!r} are not in labels")
        work = {k: v for k, v in row.items() if v}
        work_rhs = {k: v for k, v in rhs.items() if v}
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
            for k, v in prhs.items():
                add_term(work_rhs, k, -c * v)
        if not work:
            # 0 = rhs: inconsistent for exactly the labels left nonzero
            dead.update(work_rhs)
            if work_rhs and len(dead) == len(labels):
                return None, 0
            continue
        lead = min(work, key=pos.__getitem__)
        inv = 1 / work[lead]
        prow = {k: v * inv for k, v in work.items()}
        prhs = {k: v * inv for k, v in work_rhs.items()}
        # eliminate the new lead from every stored row
        for orow, orhs in pivots.values():
            c = orow.get(lead)
            if c:
                for k, v in prow.items():
                    add_term(orow, k, -c * v)
                for k, v in prhs.items():
                    add_term(orhs, k, -c * v)
        pivots[lead] = (prow, prhs)
    # with fully reduced rows and free variables set to 0, each pivot value
    # is its reduced right-hand side
    solutions: dict[L, dict[K, Fraction] | None] = {}
    for label in labels:
        if label in dead:
            solutions[label] = None
            continue
        solution: dict[K, Fraction] = {v: ZERO for v in var_order}
        for lead, (_, prhs) in pivots.items():
            solution[lead] = prhs.get(label, ZERO)
        solutions[label] = solution
    return solutions, len(var_order) - len(pivots)


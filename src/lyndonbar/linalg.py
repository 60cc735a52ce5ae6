"""Exact sparse linear helpers: int or Fraction dict vectors, and fraction-free affine solving."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, TypeVar

K = TypeVar("K", bound=Hashable)
L = TypeVar("L", bound=Hashable)


def add_term(dst: dict, key, coeff) -> None:
    """Accumulate ``coeff`` at ``key``, dropping the entry when it cancels.

    No zero seeds the sum, so int coefficients stay ints and Fractions stay
    Fractions.
    """
    if not coeff:
        return
    c = dst.get(key)
    if c is None:
        dst[key] = coeff
        return
    c += coeff
    if c:
        dst[key] = c
    else:
        del dst[key]


def combine(*parts: tuple[Fraction | int, Mapping]) -> dict:
    """Linear combination sum(c * vec) of sparse dict vectors, in the ring of its inputs."""
    out: dict = {}
    for c, vec in parts:
        if not c:
            continue
        for k, v in vec.items():
            add_term(out, k, c * v)
    return out


def to_numerators(vec: Mapping) -> tuple[int, dict]:
    """``vec`` as integer numerators over one denominator: ``(den, ints)``.

    ``den`` is the lcm of the coefficients' denominators, 1 for int
    coefficients and for the empty vector.  A zero coefficient is no term:
    its key is dropped.
    """
    den = math.lcm(*(c.denominator for c in vec.values()))
    return den, {k: n for k, c in vec.items() if (n := c.numerator * (den // c.denominator))}


def from_numerators(ints: Mapping, den: int) -> dict:
    """Numerators over ``den`` as Fractions, dropping zeros.

    One Fraction is built per distinct numerator and shared by its keys.
    """
    fractions = {v: Fraction(v, den) for v in set(ints.values()) if v}
    return {k: fractions[v] for k, v in ints.items() if v}


def in_ring_of(values: Mapping, *inputs: Mapping) -> dict:
    """``values`` in the ring of ``inputs``, dropping zeros.

    Ints when every coefficient of every input is an int, and all Fractions
    when any is a Fraction.
    """
    if all(type(c) is int for vec in inputs for c in vec.values()):
        return {k: v for k, v in values.items() if v}
    return {k: Fraction(v) for k, v in values.items() if v}


def _primitive(row: dict, rhs: dict) -> None:
    """Divide an integer equation by the gcd of all its entries, in place."""
    g = math.gcd(*row.values(), *rhs.values())
    if g > 1:
        for k in row:
            row[k] //= g
        for k in rhs:
            rhs[k] //= g


def _subtract(dst: dict, a: int, b: int, src: dict) -> None:
    """dst = a * dst - b * src on integer dicts, dropping zeros, in place."""
    if a != 1:
        for k in dst:
            dst[k] *= a
    for k, v in src.items():
        x = dst.get(k, 0) - b * v
        if x:
            dst[k] = x
        else:
            dst.pop(k, None)


def _integer_equation(row: Mapping, rhs: Mapping) -> tuple[dict, dict]:
    """One equation scaled to integers, as the primitive (row, rhs) pair.

    An equation whose values are all ints is copied without the lcm.
    """
    if {*map(type, row.values()), *map(type, rhs.values())} <= {int}:
        row = {k: v for k, v in row.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
    else:
        den = math.lcm(*(v.denominator for v in row.values()), *(v.denominator for v in rhs.values()))
        row = {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}
        rhs = {k: v.numerator * (den // v.denominator) for k, v in rhs.items() if v}
    _primitive(row, rhs)
    return row, rhs


def solve_affine(
    equations: Iterable[tuple[Mapping[K, Fraction | int], Mapping[L, Fraction | int]]],
    var_order: list[K],
    *,
    labels: Iterable[L],
) -> tuple[dict[L, dict[K, Fraction] | None] | None, int]:
    """Solve sparse affine systems ``sum(row[k] * x[k]) = rhs[label]`` exactly.

    Each equation's right-hand side is a sparse dict from label to value, and
    the system of a label reads ``rhs.get(label, 0)`` in every row; a
    right-hand side naming a label outside ``labels`` raises ``ValueError``,
    as do a variable repeated in ``var_order`` (before any row is pulled) and
    a row naming a variable outside it.  Values are ints or Fractions.
    Pivots are chosen from the rows alone, as the smallest variable (in
    ``var_order`` position) of each reduced row, so all labels share one
    elimination and each gets exactly the solution a solve for that label
    alone would give.

    The elimination is fraction-free: each row and its right-hand side are
    scaled to primitive integers, every row operation a * row - b * pivot
    row is followed by division by the gcd, and stored rows keep a positive
    lead.  A new pivot is eliminated only from the stored rows that hold its
    variable, found through a column index kept in insertion-ordered dicts.

    ``equations`` is consumed as a stream: once every label's system is
    inconsistent no further row is pulled, and ``(None, 0)`` is returned.
    Otherwise returns ``(solutions, n_free)``: ``solutions`` maps each label
    to None if that label's system is inconsistent, and else to the solution
    with every free variable set to 0, as a dict of its nonzero values only:
    a variable it does not name is 0.
    """
    labels = dict.fromkeys(labels)
    pos = {v: i for i, v in enumerate(var_order)}
    if len(pos) != len(var_order):
        repeated = [v for v in pos if var_order.count(v) > 1]
        raise ValueError(f"variables {repeated!r} appear more than once in var_order")
    dead: set = set()
    pivots: dict[K, tuple[dict[K, int], dict[L, int]]] = {}
    # free variable -> {lead: None} for the stored rows that hold it
    holders: dict[K, dict[K, None]] = {}
    for row, rhs in equations:
        unknown = [k for k in rhs if k not in labels]
        if unknown:
            raise ValueError(f"right-hand side labels {unknown!r} are not in labels")
        if not row.keys() <= pos.keys():
            unknown = [k for k in row if k not in pos]
            raise ValueError(f"variables {unknown!r} are not in var_order")
        work, work_rhs = _integer_equation(row, rhs)
        # stored rows hold only their own lead plus free variables, so
        # eliminating one pivot adds no other: the pivots the row holds are
        # listed once, in the row's own key order
        for var in [v for v in work if v in pivots]:
            prow, prhs = pivots[var]
            lead, c = prow[var], work[var]
            g = math.gcd(lead, c)
            a, b = lead // g, c // g
            _subtract(work, a, b, prow)
            _subtract(work_rhs, a, b, prhs)
            _primitive(work, work_rhs)
        if not work:
            # 0 = rhs: inconsistent for exactly the labels left nonzero
            dead.update(work_rhs)
            if work_rhs and len(dead) == len(labels):
                return None, 0
            continue
        lead = min(work, key=pos.__getitem__)
        if work[lead] < 0:
            work = {k: -v for k, v in work.items()}
            work_rhs = {k: -v for k, v in work_rhs.items()}
        # eliminate the new lead from the stored rows that hold it; a > 0
        # keeps their leads positive
        top = work[lead]
        free = [k for k in work if k != lead]
        for k in free:
            holders.setdefault(k, {})[lead] = None
        for olead in holders.pop(lead, ()):
            orow, orhs = pivots[olead]
            c = orow[lead]
            g = math.gcd(top, c)
            a, b = top // g, c // g
            _subtract(orow, a, b, work)
            _subtract(orhs, a, b, work_rhs)
            _primitive(orow, orhs)
            # the subtraction both fills in and cancels the new row's free variables
            for k in free:
                if k in orow:
                    holders[k][olead] = None
                else:
                    holders[k].pop(olead, None)
        pivots[lead] = (work, work_rhs)
    # with fully reduced rows and free variables set to 0, each pivot value
    # is its reduced right-hand side over its lead, nonzero where named
    solutions = {label: None if label in dead else {} for label in labels}
    for lead, (prow, prhs) in pivots.items():
        for label, num in prhs.items():
            solution = solutions[label]
            if solution is not None:
                solution[lead] = Fraction(num, prow[lead])
    return solutions, len(var_order) - len(pivots)

"""The fraction-free multi-label solver against three references.

One reference solves one right-hand side at a time; another is the
multi-label elimination in Fractions that the integer solver replaced; the
third is the integer elimination that reads every stored row for each new
pivot, which the column-indexed one replaced.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyndonbar import dgcore, lifts, linalg
from lyndonbar.linalg import (
    _integer_equation,
    _primitive,
    _subtract,
    add_term,
    combine,
    from_numerators,
    in_ring_of,
    solve_affine,
    to_numerators,
)


def solve_single(equations, var_order):
    """The one-right-hand-side elimination, kept as the reference.

    Returns ``(solution, n_free)`` with every free variable set to 0, or
    ``(None, 0)`` at the first inconsistent row.  Pivots are the smallest
    variable (in ``var_order`` position) of each reduced row.
    """
    pos = {v: i for i, v in enumerate(var_order)}
    pivots = {}
    for row, rhs in equations:
        work = {k: Fraction(v) for k, v in row.items() if v}
        rhs = Fraction(rhs)
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
        for other, (orow, orhs) in list(pivots.items()):
            c = orow.get(lead)
            if c:
                for k, v in prow.items():
                    add_term(orow, k, -c * v)
                pivots[other] = (orow, orhs - c * prhs)
        pivots[lead] = (prow, prhs)
    solution = dict.fromkeys(var_order, Fraction(0))
    for lead, (_, prhs) in pivots.items():
        solution[lead] = prhs
    return solution, len(var_order) - len(pivots)


def solve_fractions(equations, var_order, *, labels):
    """The multi-label elimination over Fraction, kept as the second reference.

    Same contract as ``solve_affine``: pivots are the smallest variable of
    each reduced row, ``equations`` is a stream that is left once every
    label is inconsistent, and ``(None, 0)`` is returned then.
    """
    labels = dict.fromkeys(labels)
    dead = set()
    pos = {v: i for i, v in enumerate(var_order)}
    pivots = {}
    for row, rhs in equations:
        unknown = [k for k in rhs if k not in labels]
        if unknown:
            raise ValueError(f"right-hand side labels {unknown!r} are not in labels")
        work = {k: Fraction(v) for k, v in row.items() if v}
        work_rhs = {k: Fraction(v) for k, v in rhs.items() if v}
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
            dead.update(work_rhs)
            if work_rhs and len(dead) == len(labels):
                return None, 0
            continue
        lead = min(work, key=pos.__getitem__)
        inv = 1 / work[lead]
        prow = {k: v * inv for k, v in work.items()}
        prhs = {k: v * inv for k, v in work_rhs.items()}
        for orow, orhs in pivots.values():
            c = orow.get(lead)
            if c:
                for k, v in prow.items():
                    add_term(orow, k, -c * v)
                for k, v in prhs.items():
                    add_term(orhs, k, -c * v)
        pivots[lead] = (prow, prhs)
    solutions = {}
    for label in labels:
        if label in dead:
            solutions[label] = None
            continue
        solution = dict.fromkeys(var_order, Fraction(0))
        for lead, (_, prhs) in pivots.items():
            solution[lead] = prhs.get(label, Fraction(0))
        solutions[label] = solution
    return solutions, len(var_order) - len(pivots)


def reference_solve_affine(equations, var_order, *, labels):
    """The integer elimination before the column index, kept as a reference.

    Same contract and the same primitive integer rows as ``solve_affine``;
    it finds the next pivot to eliminate by a fresh ``min`` after every
    step, and back-substitutes each new pivot by reading every stored row.
    """
    labels = dict.fromkeys(labels)
    dead = set()
    pos = {v: i for i, v in enumerate(var_order)}
    pivots = {}
    for row, rhs in equations:
        unknown = [k for k in rhs if k not in labels]
        if unknown:
            raise ValueError(f"right-hand side labels {unknown!r} are not in labels")
        work, work_rhs = _integer_equation(row, rhs)
        while True:
            present = [v for v in work if v in pivots]
            if not present:
                break
            var = min(present, key=pos.__getitem__)
            prow, prhs = pivots[var]
            lead, c = prow[var], work[var]
            g = math.gcd(lead, c)
            a, b = lead // g, c // g
            _subtract(work, a, b, prow)
            _subtract(work_rhs, a, b, prhs)
            _primitive(work, work_rhs)
        if not work:
            dead.update(work_rhs)
            if work_rhs and len(dead) == len(labels):
                return None, 0
            continue
        lead = min(work, key=pos.__getitem__)
        if work[lead] < 0:
            work = {k: -v for k, v in work.items()}
            work_rhs = {k: -v for k, v in work_rhs.items()}
        top = work[lead]
        for orow, orhs in pivots.values():
            c = orow.get(lead)
            if c:
                g = math.gcd(top, c)
                a, b = top // g, c // g
                _subtract(orow, a, b, work)
                _subtract(orhs, a, b, work_rhs)
                _primitive(orow, orhs)
        pivots[lead] = (work, work_rhs)
    solutions = {}
    for label in labels:
        if label in dead:
            solutions[label] = None
            continue
        solution = dict.fromkeys(var_order, Fraction(0))
        for lead, (prow, prhs) in pivots.items():
            num = prhs.get(label)
            if num:
                solution[lead] = Fraction(num, prow[lead])
        solutions[label] = solution
    return solutions, len(var_order) - len(pivots)


def single_rows(equations, label):
    """The one-right-hand-side system of ``label``."""
    return [(row, rhs.get(label, 0)) for row, rhs in equations]


def nonzero(solution):
    """A reference's dense solution as ``solve_affine`` gives it: its zero values dropped."""
    return None if solution is None else {k: c for k, c in solution.items() if c}


def sparse(result):
    """A reference's ``(solutions, n_free)`` with every solution's zero values dropped."""
    solutions, n_free = result
    if solutions is None:
        return result
    return {label: nonzero(solution) for label, solution in solutions.items()}, n_free


def sparse_reference(equations, var_order, *, labels):
    """``reference_solve_affine`` with every solution's zero values dropped."""
    return sparse(reference_solve_affine(equations, var_order, labels=labels))


def assert_matches_reference(equations, var_order):
    """Every label of the shared solve equals the reference run on that label.

    The equations go in as a stream; a solve that gives up must have stopped
    at the row that made the last label inconsistent, and not before it.
    """
    labels = list(dict.fromkeys(label for _, rhs in equations for label in rhs))
    pulled = []

    def stream():
        for eq in equations:
            pulled.append(eq)
            yield eq

    solutions, n_free = solve_affine(stream(), var_order, labels=labels)
    # the Fraction elimination gives the same result from the same rows
    ref_pulled = []

    def ref_stream():
        for eq in equations:
            ref_pulled.append(eq)
            yield eq

    assert sparse(solve_fractions(ref_stream(), var_order, labels=labels)) == (solutions, n_free)
    assert len(ref_pulled) == len(pulled)
    # and so does the integer elimination without the column index
    ref_pulled.clear()
    assert sparse_reference(ref_stream(), var_order, labels=labels) == (solutions, n_free)
    assert len(ref_pulled) == len(pulled)
    for solution in (solutions or {}).values():
        assert solution is None or all(type(c) is Fraction and c for c in solution.values())
    feasible = 0
    for label in labels:
        single = single_rows(equations, label)
        ref, ref_free = solve_single(single, var_order)
        got = None if solutions is None else solutions[label]
        if ref is None:
            assert got is None, label
            continue
        feasible += 1
        assert got == nonzero(ref), label
        assert n_free == ref_free, label
        for row, rhs in single:
            assert sum(c * got.get(k, 0) for k, c in row.items()) == rhs, label
    if solutions is None:
        assert labels and not feasible and n_free == 0
        for label in labels:
            ref, _ = solve_single(single_rows(pulled, label), var_order)
            assert ref is None, label
        assert any(
            solve_single(single_rows(pulled[:-1], label), var_order)[0] is not None
            for label in labels
        )
    else:
        assert list(solutions) == labels
        assert len(pulled) == len(equations)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
integers = st.integers(min_value=-4, max_value=4)
# denominators that share some factors and not others
mixed = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10, 12, 35])
)
large = st.one_of(
    st.integers(min_value=-(10**15), max_value=10**15),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
)


@st.composite
def systems(draw, values=small):
    """Small sparse systems, some rows repeated as sums of earlier rows.

    A sum row keeps the rank down (free variables), and its right-hand side
    is redrawn, so it is consistent for some labels and not for others.
    """
    var_order = list(range(draw(st.integers(1, 5))))
    labels = st.sampled_from("abcd")
    sparse_row = st.dictionaries(st.sampled_from(var_order), values, max_size=4)
    sparse_rhs = st.dictionaries(labels, values, max_size=4)
    equations = draw(st.lists(st.tuples(sparse_row, sparse_rhs), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        if not equations:
            break
        (r1, b1), (r2, b2) = (draw(st.sampled_from(equations)) for _ in range(2))
        row = dict(r1)
        for k, v in r2.items():
            add_term(row, k, v)
        rhs = dict(b1)
        for k, v in b2.items():
            add_term(rhs, k, v)
        if draw(st.booleans()):
            rhs = draw(sparse_rhs)
        equations.append((row, rhs))
    order = draw(st.permutations(var_order))
    return equations, list(order)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_every_label_matches_the_single_solve(system):
    equations, var_order = system
    assert_matches_reference(equations, var_order)


@settings(max_examples=100, deadline=None)
@given(systems(integers))
def test_int_systems_match_both_references(system):
    equations, var_order = system
    assert_matches_reference(equations, var_order)


@settings(max_examples=100, deadline=None)
@given(systems(mixed))
def test_mixed_denominator_systems_match_both_references(system):
    equations, var_order = system
    assert_matches_reference(equations, var_order)


@settings(max_examples=100, deadline=None)
@given(systems(large))
def test_large_entry_systems_match_both_references(system):
    equations, var_order = system
    assert_matches_reference(equations, var_order)


@st.composite
def resent_systems(draw, values=integers):
    """Systems in which some equations arrive again, each time scaled.

    A resent equation is an earlier one with its row and right-hand side
    multiplied by the same nonzero integer, negative ones included, its row's
    entries in any order, put anywhere after the equation it repeats.  Returns the equations, the
    variable order and the positions of the resent equations.
    """
    equations, var_order = draw(systems(values))
    resent = set()
    for _ in range(draw(st.integers(0, 4))):
        if not equations:
            break
        i = draw(st.integers(0, len(equations) - 1))
        scale = draw(st.integers(-5, 5).filter(bool))
        row, rhs = equations[i]
        keys = draw(st.permutations(list(row)))
        copy = ({k: scale * row[k] for k in keys}, {k: scale * v for k, v in rhs.items()})
        j = draw(st.integers(i + 1, len(equations)))
        equations.insert(j, copy)
        resent = {k + (k >= j) for k in resent} | {j}
    return equations, var_order, resent


def pulled_rows(solve, equations, var_order):
    """``solve`` run on ``equations`` as a stream: its result and the number of rows it pulled."""
    pulled = []

    def stream():
        for eq in equations:
            pulled.append(eq)
            yield eq

    labels = list(dict.fromkeys(label for _, rhs in equations for label in rhs))
    return solve(stream(), var_order, labels=labels), len(pulled)


@settings(max_examples=200, deadline=None)
@given(resent_systems())
def test_resent_int_equations_match_the_reference(system):
    equations, var_order, resent = system
    got, pulled = pulled_rows(solve_affine, equations, var_order)
    assert (got, pulled) == pulled_rows(sparse_reference, equations, var_order)
    # a resent equation is implied by the one it repeats, so it never stops the stream
    assert got[0] is not None or pulled - 1 not in resent
    assert_matches_reference(equations, var_order)


@settings(max_examples=100, deadline=None)
@given(resent_systems(mixed))
def test_resent_fraction_equations_match_the_reference(system):
    equations, var_order, _ = system
    assert pulled_rows(solve_affine, equations, var_order) == pulled_rows(
        sparse_reference, equations, var_order
    )


def counting_subtractions(monkeypatch) -> list:
    """Record every row operation ``solve_affine`` makes, as its factors (a, b)."""
    calls = []

    def counting(dst, a, b, src):
        calls.append((a, b))
        _subtract(dst, a, b, src)

    monkeypatch.setattr(linalg, "_subtract", counting)
    return calls


def test_the_same_row_with_another_right_hand_side_is_not_skipped(monkeypatch):
    calls = counting_subtractions(monkeypatch)
    equations = [
        ({"x": 1, "y": 2}, {"a": 1, "b": 1}),
        ({"x": -2, "y": -4}, {"a": -2, "b": -3}),  # the row again: a agrees, b does not
    ]
    solutions, n_free = solve_affine(equations, ["x", "y"], labels=["a", "b"])
    assert solutions == {"a": {"x": 1}, "b": None} and n_free == 1
    # the second row was reduced against the first: row and right-hand side
    assert len(calls) == 2
    assert_matches_reference(equations, ["x", "y"])


def test_the_same_values_on_other_variables_are_not_a_repeat():
    equations = [({"x": 1, "y": 2}, {"a": 1}), ({"y": 1, "x": 2}, {"a": 1})]
    solutions, n_free = solve_affine(equations, ["x", "y"], labels=["a"])
    assert solutions == {"a": {"x": Fraction(1, 3), "y": Fraction(1, 3)}} and n_free == 0
    assert_matches_reference(equations, ["x", "y"])


def assert_the_repeat_is_skipped(equations, repeat):
    """The solve with ``repeat`` appended pulls every row and gives the
    solutions and ``n_free`` of the solve without it: the repeat is implied
    by the row it repeats, reduces to nothing and adds no pivot."""
    without, pulled = pulled_rows(solve_affine, equations, ["x", "y"])
    assert without[0] is not None and pulled == len(equations)
    resent = equations + [repeat]
    assert pulled_rows(solve_affine, resent, ["x", "y"]) == (without, len(resent))
    assert_matches_reference(resent, ["x", "y"])


def test_a_repeat_with_its_entries_in_another_order_is_skipped():
    equations = [({"x": 1, "y": 2}, {"a": 1})]
    assert solve_affine(equations, ["x", "y"], labels=["a"]) == ({"a": {"x": 1}}, 1)
    assert_the_repeat_is_skipped(equations, ({"y": -4, "x": -2}, {"a": -2}))


def test_a_repeat_of_a_back_substituted_pivot_row_is_skipped():
    """Row 1 is stored with pivot x, then pivot y (row 2) is eliminated from
    it; its repeat is still implied by row 1 as it arrived."""
    equations = [({"x": 1, "y": 1}, {"a": 1}), ({"y": 1}, {"a": 2})]
    assert solve_affine(equations, ["x", "y"], labels=["a"]) == ({"a": {"x": -1, "y": 2}}, 0)
    assert_the_repeat_is_skipped(equations, ({"x": -3, "y": -3}, {"a": -3}))


def test_a_repeat_is_never_the_stopping_row():
    def stream():
        yield {"x": 1}, {"a": 1, "b": 1}
        yield {"x": 1}, {"a": 2, "b": 1}  # kills a
        yield {"x": -3}, {"a": -6, "b": -3}  # the row that killed a, again
        yield {"x": 2}, {"a": 4, "b": 2}  # and once more
        yield {"x": 1}, {"b": 2}  # kills b, the last live label
        raise AssertionError("a row after the last live label died was pulled")

    assert solve_affine(stream(), ["x"], labels=["a", "b"]) == (None, 0)
    rows = list(itertools.islice(stream(), 5))
    assert pulled_rows(solve_affine, rows, ["x"]) == ((None, 0), 5)
    assert pulled_rows(reference_solve_affine, rows, ["x"]) == ((None, 0), 5)


def test_hilbert_system_needs_large_numerators():
    """H x = e_1 for the 10 x 10 Hilbert matrix: the first column of H^-1."""
    n = 10
    var_order = list(range(n))
    equations = [
        ({j: Fraction(1, i + j + 1) for j in range(n)}, {"e1": int(i == 0), "ones": 1})
        for i in range(n)
    ]
    solutions, n_free = solve_affine(equations, var_order, labels=["e1", "ones"])
    assert n_free == 0
    assert solutions["e1"] == {
        i: (-1) ** i * (i + 1) * math.comb(n + i, n - 1) * math.comb(n, i + 1) for i in range(n)
    }
    assert max(abs(c) for c in solutions["e1"].values()) > 10**6
    assert_matches_reference(equations, var_order)


def test_free_variables_and_mixed_feasibility():
    one = Fraction(1)
    equations = [
        ({"x": one, "y": one}, {"ok": Fraction(2), "bad": one, "zero": Fraction(0)}),
        ({"x": 2 * one, "y": 2 * one}, {"ok": Fraction(4), "bad": Fraction(3)}),
        ({"z": one}, {"ok": Fraction(-1, 2)}),
    ]
    solutions, n_free = solve_affine(equations, ["x", "y", "z", "w"], labels=["ok", "bad", "zero"])
    assert n_free == 2
    # y and w are free, and every value of the homogeneous label is 0
    assert solutions == {"ok": {"x": 2, "z": Fraction(-1, 2)}, "bad": None, "zero": {}}
    assert_matches_reference(equations, ["x", "y", "z", "w"])


def test_solutions_hold_only_nonzero_values(monkeypatch):
    # x = 1 for "a" and 0 for "b"; y = 0 for both; z is free
    one = Fraction(1)
    equations = [({"x": one, "y": one}, {"a": one}), ({"y": one}, {"b": Fraction(0)})]
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(linalg, "Fraction", CountingFraction)
    solutions, n_free = solve_affine(equations, ["x", "y", "z"], labels=["a", "b"])
    assert n_free == 1
    # no stored value is zero, and the free variable z is named by no solution
    assert solutions == {"a": {"x": 1}, "b": {}}
    assert [c for s in solutions.values() for c in s.values()] == [1]
    assert all(isinstance(c, Fraction) for s in solutions.values() for c in s.values())
    assert made == [(1, 1)]


def test_all_labels_inconsistent():
    one = Fraction(1)
    equations = [({"x": one}, {"a": one}), ({"x": one}, {"a": 2 * one})]
    assert solve_affine(equations, ["x"], labels=["a"]) == (None, 0)
    assert solve_affine([], ["x"], labels=[]) == ({}, 1)
    # a label no row names has the homogeneous system
    assert solve_affine([], ["x"], labels=["a"]) == ({"a": {}}, 1)


def test_stops_at_the_row_that_kills_the_last_label():
    one = Fraction(1)

    def stream():
        yield {"x": one}, {"a": one, "b": one}
        yield {"x": one}, {"a": 2 * one, "b": one}  # kills a
        yield {"y": one}, {"b": one}
        yield {"x": one, "y": one}, {"b": one}  # kills b, the last live label
        raise AssertionError("a row after the last live label died was pulled")

    assert solve_affine(stream(), ["x", "y"], labels=["a", "b"]) == (None, 0)


def test_a_label_outside_labels_raises():
    one = Fraction(1)
    equations = [({"x": one}, {"a": one}), ({"x": one}, {"b": Fraction(0)})]
    with pytest.raises(ValueError, match="'b'"):
        solve_affine(equations, ["x"], labels=["a"])
    with pytest.raises(ValueError):
        solve_affine(equations, ["x"], labels=[])


def test_a_repeated_variable_raises_before_any_row_is_pulled():
    def stream():
        raise AssertionError("a row was pulled")
        yield

    with pytest.raises(ValueError, match="'x'"):
        solve_affine(stream(), ["x", "x"], labels=["a"])
    # x = 1 is fully determined; counting the repeat would report a free variable
    with pytest.raises(ValueError, match="more than once"):
        solve_affine([({"x": 1}, {})], ["x", "x"], labels=["a"])


def test_a_variable_outside_var_order_raises_when_its_row_is_pulled():
    pulled = []

    def stream():
        for eq in [({"x": 1}, {"a": 1}), ({"x": 1, "y": 2}, {"a": 3}), ({"x": 2}, {"a": 1})]:
            pulled.append(eq)
            yield eq

    with pytest.raises(ValueError, match=r"variables \['y'\] are not in var_order"):
        solve_affine(stream(), ["x"], labels=["a"])
    assert len(pulled) == 2


def test_back_substitution_fills_in_and_cancels_free_variables():
    """Stored rows gain and lose free variables; the column index follows both.

    Pivot z (row 3) cancels w from row 1 and puts w into row 2 (fill-in), so
    pivot w (row 4) must reach row 2 and not look for w in row 1.  Pivot w
    puts t into rows 2 and 3, and pivot t (row 5) must reach both.
    """
    var_order = ["x", "y", "z", "w", "t"]
    equations = [
        ({"x": 1, "z": 1, "w": 1}, {"a": 1}),
        ({"y": 2, "z": -1}, {"a": 2, "b": 1}),
        ({"z": 3, "w": 3}, {"a": 1}),
        ({"w": 2, "t": -1}, {"b": 1}),
        ({"t": 3}, {"a": 5, "b": -1}),
    ]
    solutions, n_free = solve_affine(equations, var_order, labels=["a", "b"])
    assert n_free == 0
    for label, solution in solutions.items():
        for row, rhs in equations:
            assert sum(c * solution.get(k, 0) for k, c in row.items()) == rhs.get(label, 0)
    assert_matches_reference(equations, var_order)
    # without the last row t stays free, in rows 2, 3 and 4
    assert_matches_reference(equations[:4], var_order)


def test_no_later_pivot_reads_a_stored_row(monkeypatch):
    """x_i = i for 200 variables: each new pivot is in no stored row.

    The rows are counted through the dict the integer scaling returns; a
    read of row j while row i > j is processed is a stored row read by a
    later pivot.  Reading every stored row for each pivot would make
    200 * 199 / 2 = 19,900 such reads.
    """
    n = 200
    state = {"current": -1}
    stored_reads = []

    class CountingRow(dict):
        def _read(self):
            if state["current"] is not None and self.owner < state["current"]:
                stored_reads.append(self.owner)

        def get(self, *args):
            self._read()
            return super().get(*args)

        def __getitem__(self, key):
            self._read()
            return super().__getitem__(key)

        def __contains__(self, key):
            self._read()
            return super().__contains__(key)

        def __iter__(self):
            self._read()
            return super().__iter__()

        def items(self):
            self._read()
            return super().items()

        def keys(self):
            self._read()
            return super().keys()

        def values(self):
            self._read()
            return super().values()

    def counting_equation(row, rhs):
        work, work_rhs = _integer_equation(row, rhs)
        state["current"] += 1
        counted = CountingRow(work)
        counted.owner = state["current"]
        return counted, work_rhs

    def stream():
        for i in range(n):
            yield {i: 1}, {"a": i}
        state["current"] = None  # the stream is spent: the solution is read out

    monkeypatch.setattr(linalg, "_integer_equation", counting_equation)
    solutions, n_free = solve_affine(stream(), list(range(n)), labels=["a"])
    assert n_free == 0
    assert solutions == {"a": {i: i for i in range(1, n)}}
    assert state["current"] is None
    assert stored_reads == []


@pytest.mark.parametrize("model", ["model_x", "model_a1", "model_point", "model_geom"])
@pytest.mark.parametrize("weight", [2, 3, 4, 5, 6])
def test_oracle_systems_match_the_reference_elimination(monkeypatch, model, weight):
    """Each oracle system, built as the oracle builds it, against the old loop."""
    calls = []

    def recording_solve(equations, var_order, *, labels):
        equations, labels = list(equations), list(labels)
        got = solve_affine(equations, var_order, labels=labels)
        calls.append((equations, var_order, labels, got))
        return got

    monkeypatch.setattr(lifts, "solve_affine", recording_solve)
    lifts._oracle_solve.__wrapped__(getattr(dgcore, model)(weight), weight)
    [(equations, var_order, labels, got)] = calls
    assert sparse_reference(equations, var_order, labels=labels) == got


# ---------------------------------------------------------------------------
# the sparse vector helpers keep the coefficient ring of their inputs


@pytest.mark.parametrize("ring", [int, Fraction])
def test_add_term_keeps_the_ring_and_drops_cancelled_keys(ring):
    out: dict = {}
    add_term(out, "a", ring(2))
    add_term(out, "a", ring(3))
    add_term(out, "b", ring(0))
    add_term(out, "c", ring(-1))
    assert out == {"a": 5, "c": -1}
    assert all(type(v) is ring for v in out.values())
    add_term(out, "a", ring(-5))
    assert out == {"c": -1}


@pytest.mark.parametrize("ring", [int, Fraction])
def test_combine_keeps_the_ring_and_drops_cancelled_keys(ring):
    u = {"x": ring(1), "y": ring(2)}
    v = {"x": ring(1), "z": ring(-3)}
    got = combine((ring(1), u), (ring(-1), v), (ring(0), {"w": ring(7)}))
    assert got == {"y": 2, "z": 3}
    assert all(type(c) is ring for c in got.values())
    assert combine((1, u), (-1, u)) == {}


@pytest.mark.parametrize(
    "vec, den, ints",
    [
        ({"a": 3, "b": -2}, 1, {"a": 3, "b": -2}),
        ({"a": Fraction(1, 2), "b": Fraction(-2, 3), "c": Fraction(5)}, 6, {"a": 3, "b": -4, "c": 30}),
        ({}, 1, {}),
    ],
)
def test_numerators_round_trip(vec, den, ints):
    got = to_numerators(vec)
    assert got == (den, ints) and all(type(c) is int for c in got[1].values())
    back = from_numerators(ints, den)
    assert back == vec and all(type(c) is Fraction for c in back.values())
    assert from_numerators({**ints, "zero": 0}, den) == vec


def test_combine_with_a_fraction_scale_gives_fractions():
    got = combine((Fraction(1, 2), {"x": 3}), (1, {"x": 1}))
    assert got == {"x": Fraction(5, 2)} and type(got["x"]) is Fraction


def test_from_numerators_builds_one_fraction_per_distinct_numerator(monkeypatch):
    ints = {"a": 3, "b": -4, "c": 3, "d": 0, "e": 6, "f": -4, "g": 3}
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(linalg, "Fraction", CountingFraction)
    got = from_numerators(ints, 6)
    assert sorted(made) == [(-4, 6), (3, 6), (6, 6)]
    assert got == {k: Fraction(v, 6) for k, v in ints.items() if v}
    assert list(got) == ["a", "b", "c", "e", "f", "g"]
    assert got["a"] is got["c"] is got["g"] and got["b"] is got["f"]


def test_in_ring_of_gives_ints_only_for_int_inputs():
    ints = {"a": 3, "b": 0, "c": -2}
    got = in_ring_of(ints, {"x": 1}, {"y": -4, "z": 2})
    assert got == {"a": 3, "c": -2} and all(type(c) is int for c in got.values())
    # a Fraction anywhere in the inputs, even one with denominator 1; the
    # values may mix ints and Fractions, as sums over such inputs do
    mixed = {"a": 3, "b": Fraction(0), "c": Fraction(-1, 2)}
    for inputs in (({"x": Fraction(1)},), ({"x": 1}, {"y": Fraction(1, 2)})):
        for values, want in ((ints, {"a": 3, "c": -2}), (mixed, {"a": 3, "c": Fraction(-1, 2)})):
            got = in_ring_of(values, *inputs)
            assert got == want
            assert all(type(c) is Fraction for c in got.values())
    assert in_ring_of({}) == {} and in_ring_of({"a": 5}) == {"a": 5}

"""Cobracket, basis change, a/b/a'/b' tables, and co-Jacobi."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lyndonbar import colie
from lyndonbar.colie import (
    TABLE_NAMES,
    MixedBasisError,
    ab_tables,
    basis_of,
    change_basis,
    co_jacobi_defect,
    cobracket,
    coefficient_rows,
    coefficient_table,
    tensor_cobracket,
)
from lyndonbar.freelie import (
    NotALieElementError,
    TableInconsistencyError,
    alpha_table,
    basis_element,
    lie_bracket,
)
from lyndonbar.ihara import (
    SemidirectElement,
    beta_gamma_tables,
    semidirect_bracket,
    special_derivation,
)
from lyndonbar.linalg import combine
from lyndonbar.words import InvalidWordError, lyndon_words

ONE = Fraction(1)


def all_tags(max_weight, families=("x", "one")):
    return [(fam, w) for w in lyndon_words(max_weight) for fam in families]


def test_weight_one_tags_are_closed():
    for fam in ("x", "one", "t0", "t1"):
        for w in ("0", "1"):
            assert cobracket({(fam, w): ONE}) == {}


def test_weight_two_cobracket():
    got = cobracket({("x", "01"): ONE})
    assert got == {(("x", "0"), ("x", "1")): 1, (("x", "1"), ("one", "0")): 1}


def test_weight_two_cobracket_t01():
    got = cobracket({("t0", "01"): ONE})
    assert got == {(("t0", "1"), ("t1", "0")): -1}
    assert -got[(("t0", "1"), ("t1", "0"))] == 1  # the coefficient of t1_0 ^ t0_1


def test_one_family_cobracket_matches_gamma():
    _, gamma = beta_gamma_tables(4)
    for w in lyndon_words(4):
        if len(w) < 2:
            continue
        got = cobracket({("one", w): ONE})
        expected = {}
        for (tw, u, v), g in gamma.items():
            if tw == w:
                expected[(("one", u), ("one", v))] = g
        assert got == expected


def test_change_basis_definitions():
    for w in lyndon_words(4):
        assert change_basis({("t0", w): ONE}, "x1") == {("x", w): 1}
        assert change_basis({("t1", w): ONE}, "x1") == {("x", w): 1, ("one", w): -1}


def test_change_basis_round_trip():
    rng = random.Random(42)
    words = lyndon_words(6)
    for _ in range(50):
        e = {
            ("x" if rng.random() < 0.5 else "one", w): Fraction(rng.choice([-2, -1, 1, 2]))
            for w in rng.sample(words, k=3)
        }
        assert change_basis(change_basis(e, "t01"), "x1") == e


def test_mixed_basis_rejected():
    with pytest.raises(MixedBasisError):
        basis_of({("x", "0"): ONE, ("t0", "1"): ONE})


@pytest.mark.parametrize(
    "tag, error, message",
    [
        (("x", "10"), NotALieElementError, "'10' is not a Lyndon word"),
        (("one", "0110"), NotALieElementError, "'0110' is not a Lyndon word"),
        (("t1", "110"), NotALieElementError, "'110' is not a Lyndon word"),
        (("x", "2"), InvalidWordError, "letters outside"),
        (("q", "01"), ValueError, "unknown tag family 'q'; expected one of x, one, t0, t1"),
    ],
)
def test_a_tag_that_names_no_basis_element_is_rejected(tag, error, message):
    # once cached as closed, such a tag stayed closed; exceptions are not cached
    for call in (cobracket, tensor_cobracket, co_jacobi_defect):
        for element in ({tag: 1}, {tag: ONE, (tag[0], "0"): 1}):
            for _ in range(2):
                with pytest.raises(error, match=message):
                    call(element)
    assert cobracket({("x", "01"): 1}) == {(("x", "0"), ("x", "1")): 1, (("x", "1"), ("one", "0")): 1}


@pytest.mark.parametrize(
    "tag, error, message",
    [
        (("t1", "10"), NotALieElementError, "'10' is not a Lyndon word"),
        (("x", "0110"), NotALieElementError, "'0110' is not a Lyndon word"),
        (("t0", "2"), InvalidWordError, "letters outside"),
    ],
)
def test_change_basis_rejects_a_tag_that_names_no_basis_element(tag, error, message):
    # such a tag was relabelled, while cobracket rejects it
    for target in ("x1", "t01"):
        for element in ({tag: 1}, {(tag[0], "01"): 1, tag: ONE}):
            with pytest.raises(error, match=message):
                change_basis(element, target)
    assert change_basis({("t1", "01"): 1}, "x1") == {("x", "01"): 1, ("one", "01"): -1}


def test_duality_pairing_matches_structure_constants():
    words = lyndon_words(5)
    basis = [(fam, u) for u in words for fam in ("x", "one")]

    def as_semidirect(t):
        fam, u = t
        if fam == "x":
            return SemidirectElement(x_part=basis_element(u))
        return SemidirectElement(one_part=basis_element(u))

    tensors = {
        (fam, w): tensor_cobracket({(fam, w): ONE})
        for w in lyndon_words(6)
        for fam in ("x", "one")
    }
    zero = Fraction(0)
    for ta in basis:
        for tb in basis:
            if len(ta[1]) + len(tb[1]) > 6:
                continue
            sb = semidirect_bracket(as_semidirect(ta), as_semidirect(tb))
            for w in lyndon_words(6):
                if len(w) != len(ta[1]) + len(tb[1]):
                    continue
                assert sb.x_part.get(w, zero) == tensors[("x", w)].get((ta, tb), zero)
                assert sb.one_part.get(w, zero) == tensors[("one", w)].get((ta, tb), zero)


def test_tensor_form_is_antisymmetric():
    for t in all_tags(5, families=("x", "one", "t0", "t1")):
        tens = tensor_cobracket({t: ONE})
        for (a, b), c in tens.items():
            assert tens.get((b, a)) == -c


def test_co_jacobi_defect_vanishes():
    for t in all_tags(6):
        assert co_jacobi_defect({t: ONE}) == {}, t
    for t in all_tags(5, families=("t0", "t1")):
        assert co_jacobi_defect({t: ONE}) == {}, t


def test_ab_tables_double_source_and_identities():
    a, b, ap, bp = ab_tables(6)
    _, gamma = beta_gamma_tables(6)
    assert a == gamma
    assert ap == {k: -v for k, v in a.items()}
    for table in (a, b, ap, bp):
        for (w, u, v), c in table.items():
            assert len(u) + len(v) == len(w)
            assert c.denominator == 1


def test_ab_vanishing_rows():
    a, b, ap, bp = ab_tables(6)
    for (w, u, v) in list(a) + list(ap):
        assert u != "0" and v != "1"
    for (w, u, v) in list(b) + list(bp):
        assert u != "1" and v != "0"


def test_cobracket_of_one_tag_in_t01_basis():
    # (one, W) = (t0, W) - (t1, W); its cobracket uses only a-coefficients in
    # (t0 - t1) ^ (t0 - t1) form
    a, _, _, _ = ab_tables(6)
    for w in lyndon_words(6):
        if len(w) < 2:
            continue
        got = cobracket({("t0", w): ONE, ("t1", w): -ONE})
        expected = {}
        for (tw, u, v), c in a.items():
            if tw != w:
                continue
            for fu, su in ((("t0", u), 1), (("t1", u), -1)):
                for fv, sv in ((("t0", v), 1), (("t1", v), -1)):
                    expected = combine((1, expected), (c * su * sv, _wedge(fu, fv)))
        assert got == expected, w


def _wedge(ta, tb):
    from lyndonbar.colie import wedge_add

    out = {}
    wedge_add(out, ta, tb, ONE)
    return out


def test_corrupted_alpha_breaks_co_jacobi(monkeypatch):
    # flipping one structure constant, alpha[0011, 0, 011], violates co-Jacobi
    tag = {("x", "0011"): ONE}
    assert co_jacobi_defect(tag) == {}
    rows = colie.coefficient_rows

    def corrupted(family, max_weight):
        table = rows(family, max_weight)
        if family != "alpha" or "0011" not in table:
            return table
        assert table["0011"] == (("0", "011", 1), ("001", "1", 1))
        return {**table, "0011": (("0", "011", -1), ("001", "1", 1))}

    colie._x1_tag_cobracket.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(colie, "coefficient_rows", corrupted)
            assert co_jacobi_defect(tag) != {}
    finally:
        colie._x1_tag_cobracket.cache_clear()
    assert co_jacobi_defect(tag) == {}


def _ab_tables_with(monkeypatch, name, replacement):
    """ab_tables(5) built afresh with colie.<name> replaced; the cache is cleared after."""
    ab_tables.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(colie, name, replacement)
            return ab_tables(5)
    finally:
        ab_tables.cache_clear()


def test_cross_check_fires_on_a_wrong_closed_entry(monkeypatch):
    closed = colie._closed_ab_tables

    def negated(max_weight):
        a, b, ap, bp = closed(max_weight)
        key = next(iter(a))
        a[key] = -a[key]
        return a, b, ap, bp

    with pytest.raises(TableInconsistencyError, match="table a: closed formula and basis-change"):
        _ab_tables_with(monkeypatch, "_closed_ab_tables", negated)


def _cobracket_with(extra):
    """colie.cobracket, with one more term in the t0 cobracket of 0011."""
    original = colie.cobracket

    def patched(t):
        out = original(t)
        return {**out, extra: 1} if t == {("t0", "0011"): 1} else out

    return patched


def test_cross_check_fires_on_a_term_outside_the_wedge_families(monkeypatch):
    t1_t1 = (("t1", "0"), ("t1", "011"))
    with pytest.raises(TableInconsistencyError, match="outside the expected wedge families"):
        _ab_tables_with(monkeypatch, "cobracket", _cobracket_with(t1_t1))


def test_cross_check_fires_on_a_term_of_the_wrong_weight(monkeypatch):
    t0_t0 = (("t0", "0"), ("t0", "01"))
    with pytest.raises(TableInconsistencyError):
        _ab_tables_with(monkeypatch, "cobracket", _cobracket_with(t0_t0))


def test_cached_tables_are_read_only():
    for table in (alpha_table(6), *beta_gamma_tables(6), *ab_tables(6)):
        key = next(iter(table))
        value = table[key]
        with pytest.raises(TypeError):
            table[key] = value + 1
        with pytest.raises(TypeError):
            table[("0" * 9, "0", "1")] = ONE
    assert alpha_table(4)[("01", "0", "1")] == 1


# ---------------------------------------------------------------------------
# the integer tables against a Fraction rebuild


def fraction_ab_tables(max_weight):
    """a, b, a', b' by the closed formulas, from Fraction-seeded alpha and beta."""
    alpha, beta = {}, {}
    ws = lyndon_words(max_weight - 1)
    for u in ws:
        for v in ws:
            if len(u) + len(v) > max_weight:
                continue
            eu, ev = {u: ONE}, {v: ONE}
            if u < v:
                alpha.update({(w, u, v): c for w, c in lie_bracket(eu, ev).items()})
            beta.update({(w, u, v): -c for w, c in special_derivation(ev, eu).items()})
    zero = Fraction(0)
    a, b, ap, bp = {}, {}, {}, {}
    for w in lyndon_words(max_weight):
        for u in ws:
            for v in ws:
                if len(w) < 2 or len(u) + len(v) != len(w):
                    continue
                b[(w, u, v)] = beta.get((w, v, u), zero)
                if u < v:
                    a[(w, u, v)] = (
                        alpha.get((w, u, v), zero)
                        + beta.get((w, u, v), zero)
                        - beta.get((w, v, u), zero)
                    )
                    ap[(w, u, v)] = -a[(w, u, v)]
        for u in ws:
            for v in ws:
                if len(w) < 2 or len(u) + len(v) != len(w):
                    continue
                if u < v:
                    bp[(w, u, v)] = a[(w, u, v)] + b[(w, u, v)]
                elif v < u:
                    bp[(w, u, v)] = -a[(w, v, u)] + b[(w, u, v)]
                else:
                    bp[(w, u, v)] = b[(w, u, u)]
    for table in (a, b, ap, bp):
        assert all(type(c) is Fraction for c in table.values())
    return tuple({k: c for k, c in table.items() if c} for table in (a, b, ap, bp))


def test_ab_tables_are_ints_equal_to_the_fraction_rebuild():
    tables = ab_tables(6)
    for table in tables:
        assert all(type(c) is int for c in table.values())
    assert tuple(dict(t) for t in tables) == fraction_ab_tables(6)


def test_cobracket_keeps_the_coefficient_ring():
    for t in all_tags(5) + all_tags(5, families=("t0", "t1")):
        exact = cobracket({t: 1})
        assert all(type(c) is int for c in exact.values()), t
        halved = cobracket({t: Fraction(1, 2)})
        assert all(type(c) is Fraction for c in halved.values()), t
        assert halved == {k: Fraction(c, 2) for k, c in exact.items()}, t
        assert change_basis({t: Fraction(1, 2)}, "x1") == {
            k: Fraction(c, 2) for k, c in change_basis({t: 1}, "x1").items()
        }


def test_coefficient_table_rejects_an_unknown_name_before_building_tables(monkeypatch):
    assert all(coefficient_table(name, 3) is not None for name in TABLE_NAMES)

    def no_table(max_weight):
        raise AssertionError("a table was built for an unknown name")

    for builder in ("alpha_table", "beta_gamma_tables", "ab_tables"):
        monkeypatch.setattr(colie, builder, no_table)
    for reader in (coefficient_table, coefficient_rows):
        with pytest.raises(ValueError, match="'zzz'; expected one of alpha, beta, gamma, a, b, aprime, bprime"):
            reader("zzz", 3)


@pytest.mark.parametrize("max_weight", range(2, 9))
def test_coefficient_rows_are_the_word_filter_of_the_table(max_weight):
    for name in TABLE_NAMES:
        table = coefficient_table(name, max_weight)
        rows = coefficient_rows(name, max_weight)
        assert list(rows) == list(dict.fromkeys(w for w, _, _ in table)), name
        for W, got in rows.items():
            expected = [(u, v, c) for (w, u, v), c in table.items() if w == W]
            assert got == tuple(expected), (name, W)


def test_coefficient_rows_cannot_be_changed_by_a_caller():
    rows = coefficient_rows("b", 4)
    before = dict(rows)
    with pytest.raises(TypeError):
        rows["0011"] = ()
    with pytest.raises(TypeError):
        del rows["0011"]
    with pytest.raises(AttributeError):
        rows.pop("0011")
    assert type(rows["0011"]) is tuple and all(type(r) is tuple for r in rows["0011"])
    with pytest.raises(TypeError):
        rows["0011"][0] = ("0", "0", 0)
    assert coefficient_rows("b", 4) is rows and dict(rows) == before

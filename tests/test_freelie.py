"""Lyndon bracket expansion, rewriting, brackets, and the alpha table."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lyndonbar.freelie import (
    NotALieElementError,
    alpha_table,
    basis_element,
    expand,
    lie_bracket,
    lie_to_word_poly,
    rewrite_in_lyndon,
)
from lyndonbar.linalg import combine
from lyndonbar.words import lyndon_words


def test_expand_atoms_and_weight_two():
    assert expand("0") == {"0": 1}
    assert expand("01") == {"01": 1, "10": -1}


def test_expand_weight_three():
    # [X0, [X0, X1]] worked out by hand in the word algebra
    assert expand("001") == {"001": 1, "010": -2, "100": 1}


def test_round_trip_on_basis():
    for w in lyndon_words(6):
        assert rewrite_in_lyndon(expand(w)) == {w: 1}


def test_rewrite_weight_two():
    assert rewrite_in_lyndon({"10": Fraction(1), "01": Fraction(-1)}) == {"01": -1}


def test_non_lie_input_rejected():
    # [01] strips to -10, whose smallest word is not Lyndon
    with pytest.raises(NotALieElementError, match="support word '10' is not Lyndon"):
        rewrite_in_lyndon({"01": Fraction(1)})


def test_expand_rejects_a_non_lyndon_word_on_every_call():
    # the expansions are cached, exceptions are not
    for _ in range(2):
        with pytest.raises(NotALieElementError, match="'10' is not a Lyndon word"):
            expand("10")


def test_expand_of_a_tuple_is_the_expansion_of_its_string():
    # one expansion for binary strings and for Lyndon tuples, sliced alike
    for w in lyndon_words(7):
        got = expand(tuple(w))
        assert got == {tuple(word): c for word, c in expand(w).items()}
        assert all(type(c) is int for c in got.values())
    # any ordered alphabet: [a, [b, c]] over a < b < c
    assert expand((0, 1, 2)) == {(0, 1, 2): 1, (0, 2, 1): -1, (1, 2, 0): -1, (2, 1, 0): 1}


@pytest.mark.parametrize("w", [(), (1, 0), (0, 1, 0)])
def test_expand_rejects_a_tuple_that_is_not_lyndon(w):
    for _ in range(2):
        with pytest.raises(NotALieElementError, match="is not a Lyndon sequence"):
            expand(w)


def test_expand_returns_a_new_dict_each_call():
    got = expand("01")
    got["01"] = 7
    got["11"] = 1
    del got["10"]
    assert expand("01") == {"01": 1, "10": -1}
    assert expand("01") is not expand("01")
    assert lie_bracket(basis_element("0"), basis_element("01")) == {"001": 1}
    assert lie_bracket(basis_element("01"), basis_element("1")) == {"011": 1}


def test_bracket_examples():
    zero, one = basis_element("0"), basis_element("1")
    assert lie_bracket(zero, one) == {"01": 1}
    assert lie_bracket(zero, {"01": Fraction(1)}) == {"001": 1}
    assert lie_bracket(one, one) == {}


def test_triangularity():
    for w in lyndon_words(7):
        p = expand(w)
        assert min(p) == w and p[w] == 1


def test_jacobi_on_basis_triples():
    words = lyndon_words(4)
    for u in words:
        for v in words:
            for w in words:
                if len(u) + len(v) + len(w) > 6:
                    continue
                eu, ev, ew = basis_element(u), basis_element(v), basis_element(w)
                total = combine(
                    (1, lie_bracket(lie_bracket(eu, ev), ew)),
                    (1, lie_bracket(lie_bracket(ev, ew), eu)),
                    (1, lie_bracket(lie_bracket(ew, eu), ev)),
                )
                assert total == {}, (u, v, w)


def random_lie_element(rng: random.Random, max_weight: int):
    words = [w for w in lyndon_words(max_weight)]
    out = {}
    for w in rng.sample(words, k=rng.randint(1, 4)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out[w] = Fraction(c)
    return out


def test_round_trip_on_random_elements():
    rng = random.Random(42)
    for _ in range(100):
        e = random_lie_element(rng, 6)
        assert rewrite_in_lyndon(lie_to_word_poly(e)) == e


def test_alpha_examples_and_integrality():
    alpha = alpha_table(6)
    assert alpha[("01", "0", "1")] == 1
    assert alpha[("001", "0", "01")] == 1
    for (w, u, v), c in alpha.items():
        assert c.denominator == 1
        assert len(w) == len(u) + len(v)
        assert u < v


def test_basis_tables_and_expansions_are_ints():
    assert all(type(c) is int for c in alpha_table(6).values())
    for w in lyndon_words(7):
        assert all(type(c) is int for c in expand(w).values())
    assert basis_element("001") == {"001": 1} and type(basis_element("001")["001"]) is int


def test_alpha_equals_the_bracket_of_fraction_seeded_elements():
    alpha = alpha_table(6)
    rebuilt = {}
    ws = lyndon_words(5)
    for u in ws:
        for v in ws:
            if u < v and len(u) + len(v) <= 6:
                got = lie_bracket({u: Fraction(1)}, {v: Fraction(1)})
                assert all(type(c) is Fraction for c in got.values())
                rebuilt.update({(w, u, v): c for w, c in got.items()})
    assert rebuilt == alpha


def test_rewrite_keeps_a_half_coefficient_exact():
    e = {"001": Fraction(1, 2), "01": 3, "011": Fraction(-7, 3)}
    got = rewrite_in_lyndon(lie_to_word_poly(e))
    assert got == e
    assert type(got["001"]) is Fraction and got["001"] == Fraction(1, 2)
    assert type(got["011"]) is Fraction
    # and a half times an integer bracket stays a half
    half = combine((Fraction(1, 2), lie_bracket(basis_element("0"), basis_element("1"))))
    assert half == {"01": Fraction(1, 2)} and type(half["01"]) is Fraction

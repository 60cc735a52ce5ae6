"""The bilinear brackets against the word-algebra references.

``lie_bracket`` and ``special_derivation`` read each pair of basis elements
off a cached (Lyndon word, int) tuple; the derivations are built by Leibniz
from the cached brackets.  The references below are the word-algebra
routes: expand both arguments, multiply (or derive letter by letter) in the
word algebra and rewrite the result into the Lyndon basis.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lyndonbar import freelie, ihara
from lyndonbar.freelie import (
    NotALieElementError,
    expand,
    lie_bracket,
    lie_to_word_poly,
    rewrite_in_lyndon,
    word_commutator,
)
from lyndonbar.ihara import ihara_bracket, special_derivation
from lyndonbar.linalg import add_term, combine
from lyndonbar.words import InvalidWordError, lyndon_words

MAX_WEIGHT = 7


def reference_lie_bracket(f, g):
    """[f, g] computed in the word algebra and rewritten into the basis."""
    return rewrite_in_lyndon(word_commutator(lie_to_word_poly(f), lie_to_word_poly(g)))


def word_derivation(p, image_of_one):
    """Associative derivation with X0 -> 0 and X1 -> image_of_one, applied to p."""
    out: dict = {}
    for w, c in p.items():
        for i, letter in enumerate(w):
            if letter != "1":
                continue
            prefix, suffix = w[:i], w[i + 1 :]
            for m, cm in image_of_one.items():
                add_term(out, prefix + m + suffix, c * cm)
    return out


def reference_special_derivation(f, g):
    """D_f(g), with D_f(X1) = [X1, f] applied letter by letter in the word algebra."""
    image_of_one = word_commutator(expand("1"), lie_to_word_poly(f))
    return rewrite_in_lyndon(word_derivation(lie_to_word_poly(g), image_of_one))


def reference_ihara_bracket(f, g):
    return combine(
        (1, reference_lie_bracket(f, g)),
        (1, reference_special_derivation(f, g)),
        (-1, reference_special_derivation(g, f)),
    )


BILINEAR = (
    (lie_bracket, reference_lie_bracket),
    (special_derivation, reference_special_derivation),
    (ihara_bracket, reference_ihara_bracket),
)

ints = st.sampled_from([-3, -2, -1, 1, 2, 3])
fractions = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(-7, 10), Fraction(3)])


def elements(max_weight, coefficients):
    return st.dictionaries(st.sampled_from(lyndon_words(max_weight)), coefficients, max_size=4)


@st.composite
def pairs(draw, coefficients):
    """Two elements whose brackets stay within MAX_WEIGHT."""
    left = draw(st.integers(1, MAX_WEIGHT - 1))
    f = draw(elements(left, coefficients))
    g = draw(elements(MAX_WEIGHT - left, coefficients))
    shared = [w for w in f if len(w) <= MAX_WEIGHT - left]
    if shared and draw(st.booleans()):
        # a key of f again in g, so the U = V terms occur
        g[draw(st.sampled_from(shared))] = draw(coefficients)
    return f, g


def assert_matches_the_word_algebra(f, g):
    """Equal values, no zero entry, and the ring of the input: ints out of
    int inputs, Fractions out when any input coefficient is one."""
    ring = int if all(type(c) is int for c in (*f.values(), *g.values())) else Fraction
    for bilinear, reference in BILINEAR:
        got = bilinear(f, g)
        assert got == reference(f, g)
        assert all(type(c) is ring and c for c in got.values())


@settings(max_examples=80, deadline=None)
@given(pairs(ints))
@example(({"0": 1, "01": 2}, {"01": -1, "1": 3}))
def test_int_elements_match_the_word_algebra(fg):
    assert_matches_the_word_algebra(*fg)


@settings(max_examples=80, deadline=None)
@given(pairs(st.one_of(ints, fractions)))
@example(({"0": Fraction(1, 2), "01": 2}, {"01": Fraction(-2, 3), "1": 3}))
@example(({"001": Fraction(1, 3)}, {"0": Fraction(3, 5), "011": 1}))
def test_fraction_and_mixed_elements_match_the_word_algebra(fg):
    assert_matches_the_word_algebra(*fg)


@settings(max_examples=40, deadline=None)
@given(elements(MAX_WEIGHT // 2, st.one_of(ints, fractions)), ints)
def test_brackets_that_cancel_are_empty(f, k):
    # [f, k f] = 0 and {f, k f} = 0, with every U = V term skipped or cancelled
    scaled = {w: k * c for w, c in f.items()}
    for bracket in (lie_bracket, ihara_bracket):
        assert bracket(f, scaled) == {}
        assert bracket(f, f) == {}


def test_cancelling_basis_terms_leave_no_zero_entry():
    # [[0], [01]] + [[01], [0]] cancels term by term
    assert lie_bracket({"0": 1, "01": 1}, {"0": 1, "01": 1}) == {}
    assert lie_bracket({"0": 1, "01": Fraction(1, 2)}, {"0": 2, "01": 1}) == {}
    # D_[1] kills everything, and every D_f kills X0
    assert special_derivation({"1": 2}, {"001": 1, "01": Fraction(1, 3)}) == {}
    assert special_derivation({"001": 1, "01": 3}, {"0": Fraction(1, 2)}) == {}


@pytest.mark.parametrize("bad, error", [("10", NotALieElementError), ("0110", NotALieElementError), ("012", InvalidWordError)])
def test_a_key_that_is_not_lyndon_raises_on_every_call(bad, error):
    for bilinear, _ in BILINEAR:
        for f, g in (
            ({bad: 1}, {"1": 1}),
            ({"0": 1}, {bad: Fraction(1, 2)}),
            ({bad: 1}, {}),
            ({}, {bad: 1}),
            ({bad: 1, "0": 1}, {bad: 2}),
        ):
            for _ in range(2):
                with pytest.raises(error):
                    bilinear(f, g)


def test_returned_dicts_do_not_reach_the_cached_tuples():
    zero, zero_one = {"0": 1}, {"01": 1}
    for bilinear, reference in BILINEAR:
        before = reference(zero, zero_one)
        got = bilinear(zero, zero_one)
        got.clear()
        got["0"] = 99
        assert bilinear(zero, zero_one) == before
        assert bilinear(zero, zero_one) is not bilinear(zero, zero_one)
    for cached in (freelie._basis_bracket("0", "01"), ihara._basis_derivation("0", "01")):
        assert type(cached) is tuple and all(type(term) is tuple for term in cached)
        with pytest.raises(TypeError):
            cached[0] = ("001", 7)

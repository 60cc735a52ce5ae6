"""Bar construction axioms: differential, coproducts, shuffles, Hain projector."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product

import pytest
from conftest import rescaled
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lyndonbar import bar, lifts
from lyndonbar.bar import (
    InvalidElementError,
    _hain_pattern,
    _hain_word,
    _lcm_upto,
    _slot,
    bar_differential,
    coproduct,
    delta_Q,
    differential_numerators,
    hain_projector,
    pi1,
    projector_numerators,
    shuffle,
    tensor_shuffle,
    tensor_swap,
    wedge_numerators,
)
from lyndonbar.dgcore import model_a1, model_geom, model_point, model_x
from lyndonbar.lifts import VARIANTS, geometric_lift, lift_LB, verify_lift
from lyndonbar.linalg import add_term, combine, from_numerators, to_numerators
from lyndonbar.verify import random_bar_element
from lyndonbar.words import lyndon_words

ONE = Fraction(1)
HALF = Fraction(1, 2)
P4 = model_x(4)
P5 = model_x(5)
P6 = model_x(6)
P7 = model_x(7)


def bar_degree(word, p):
    """The sum of the desuspended slot degrees: the reference for the signs."""
    return sum(p.monomial_degree(m) - 1 for m in word)


def samples(p, n=100, max_weight=4, seed=42):
    rng = random.Random(seed)
    return [random_bar_element(p, rng, max_weight=max_weight) for _ in range(n)]


def test_sampled_elements_reach_three_slots():
    # suite_bar's 50 elements at the default seed: before the sampler kept
    # weight for the slots still to come, one of them had a three-slot word
    elems = samples(P4, n=50)
    assert sum(any(len(w) == 3 for w in b) for b in elems) >= 10
    for b in elems:
        assert all(w and sum(map(P4.monomial_weight, w)) <= 4 for w in b)
    small = samples(P4, n=50, max_weight=2)
    assert {len(w) for b in small for w in b} == {1, 2}


def test_two_generator_slots():
    b = {((("L1_0",), ("L0_1",))): ONE}
    got = bar_differential({(("L1_0",), ("L0_1",)): ONE}, P4)
    assert got == {((("L0_1", "L1_0"),)): 1}


def test_single_slot_differential_sign():
    got = bar_differential({(("L0_01",),): ONE}, P4)
    assert got == {((("L0_1", "L1_0"),)): -1}


def kernel_calls(terms):
    """Every bar kernel that takes a presentation, called over P4 on the
    element with the integer coefficients ``terms``: on both sides of a
    known even slot where it takes two operands, and in either leg of a
    tensor; and the Lyndon coordinates."""
    known = (("L1_0",),)
    ints, known_ints = dict(terms), {known: 1}
    b, k = {w: Fraction(c) for w, c in ints.items()}, {known: ONE}
    left, right = {(w, known): c for w, c in b.items()}, {(known, w): c for w, c in b.items()}
    t, tk = {**left, **right}, {(known, known): ONE}
    return [
        lambda: bar_differential(b, P4),
        lambda: differential_numerators(ints, P4),
        lambda: hain_projector(b, P4),
        lambda: projector_numerators(ints, P4, 2),
        lambda: lifts._lyndon_coordinates(ints, P4),
        lambda: delta_Q(b, P4),
        lambda: shuffle(b, k, P4),
        lambda: shuffle(k, b, P4),
        lambda: tensor_shuffle(t, tk, P4),
        lambda: tensor_shuffle(tk, t, P4),
        lambda: tensor_swap(right, P4),
        lambda: tensor_swap(left, P4),
        lambda: wedge_numerators(ints, known_ints, P4),
        lambda: wedge_numerators(known_ints, ints, P4),
    ]


# a constant slot alone, after a known slot, and before one
CONSTANT_SLOT_WORDS = [((),), (("L0_1",), ()), ((), ("L0_1",))]


def test_constant_slot_rejected():
    with pytest.raises(InvalidElementError):
        bar_differential({((), ("L0_1",)): ONE}, P4)  # type: ignore[dict-item]
    for word in CONSTANT_SLOT_WORDS:
        for call in kernel_calls({word: 1}):
            with pytest.raises(InvalidElementError, match="outside the augmentation ideal$"):
                call()


def test_differential_squares_to_zero():
    for b in samples(P5, n=100, max_weight=5):
        assert bar_differential(bar_differential(b, P5), P5) == {}


def test_coproduct_examples():
    a = (("L0_01",),)
    ab = (("L0_01",), ("L1_01",))
    assert coproduct({a: ONE}) == {((), a): 1, (a, ()): 1}
    assert reduced_coproduct({a: ONE}) == {}
    got = coproduct({ab: ONE})
    assert got == {((), ab): 1, ((("L0_01",),), (("L1_01",),)): 1, (ab, ()): 1}


def _co_assoc_defect(b, p):
    left: dict = {}
    right: dict = {}
    for (w1, w2), c in coproduct(b).items():
        for (u1, u2), d in coproduct({w1: ONE}).items():
            add_term(left, (u1, u2, w2), c * d)
        for (u1, u2), d in coproduct({w2: ONE}).items():
            add_term(right, (w1, u1, u2), c * d)
    return combine((1, left), (-1, right))


def test_coproduct_coassociative():
    for b in samples(P4, n=60):
        assert _co_assoc_defect(b, P4) == {}


def test_shuffle_examples():
    g = {(("L1_0",),): ONE}
    h = {(("L0_1",),): ONE}
    assert shuffle(g, h, P4) == {
        (("L1_0",), ("L0_1",)): 1,
        (("L0_1",), ("L1_0",)): 1,
    }
    b = {(("L0_01",), ("L1_0",)): ONE}
    assert shuffle({(): ONE}, b, P4) == b


def test_shuffle_associative_and_commutative():
    rng = random.Random(42)
    for _ in range(50):
        a = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        b = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        c = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        assert shuffle(shuffle(a, b, P4), c, P4) == shuffle(a, shuffle(b, c, P4), P4)
        assert shuffle(a, b, P4) == _graded_flip_shuffle(b, a, P4)


def _graded_flip_shuffle(b, a, p):
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            sign = -1 if (bar_degree(wa, p) * bar_degree(wb, p)) % 2 else 1
            for w, c in shuffle({wb: ONE}, {wa: ONE}, p).items():
                add_term(out, w, sign * c * ca * cb)
    return out


def test_hopf_compatibility():
    rng = random.Random(42)
    for _ in range(50):
        a = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        b = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        lhs = coproduct(shuffle(a, b, P4))
        rhs = tensor_shuffle(coproduct(a), coproduct(b), P4)
        assert lhs == rhs


def test_shuffle_is_chain_map_sample():
    rng = random.Random(7)
    for _ in range(25):
        a = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        b = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        lhs = bar_differential(shuffle(a, b, P4), P4)
        rhs = combine(
            (1, shuffle(bar_differential(a, P4), b, P4)),
            (1, _signed_right_shuffle(a, b, P4)),
        )
        assert lhs == rhs


def _signed_right_shuffle(a, b, p):
    out: dict = {}
    for wa, ca in a.items():
        sign = -1 if bar_degree(wa, p) % 2 else 1
        for w, c in shuffle({wa: ONE}, bar_differential(b, p), p).items():
            add_term(out, w, sign * c * ca)
    return out


def test_hain_fixes_single_slots():
    b = {(("L0_0011",),): ONE}
    assert hain_projector(b, P4) == b


def test_hain_kills_shuffles():
    g = {(("L1_0",),): ONE}
    h = {(("L0_1",),): ONE}
    assert hain_projector(shuffle(g, h, P4), P4) == {}
    rng = random.Random(42)
    for _ in range(30):
        a = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        b = random_bar_element(P4, rng, max_weight=2, n_terms=2)
        assert hain_projector(shuffle(a, b, P4), P4) == {}


def test_hain_idempotent():
    for b in samples(P4, n=100):
        once = hain_projector(b, P4)
        assert hain_projector(once, P4) == once


def test_hain_chain_map():
    for b in samples(P4, n=50):
        lhs = hain_projector(bar_differential(b, P4), P4)
        assert lhs == bar_differential(hain_projector(b, P4), P4)


def test_hain_rejects_empty_word():
    with pytest.raises(InvalidElementError):
        hain_projector({(): ONE}, P4)
    with pytest.raises(InvalidElementError, match="empty-word component present"):
        projector_numerators({(): 1}, P4, 1)


# a slot with a generator that P4 does not have, alone, after a known slot,
# or in a product with a known generator
UNKNOWN_SLOT_WORDS = [(("ZZ",),), (("L0_1",), ("ZZ",)), (("L0_1", "ZZ"),)]
UNKNOWN_SLOT = r"bar slot \(.*'ZZ'.*\) holds 'ZZ', which is not a generator of x@4$"


@pytest.mark.parametrize("word", UNKNOWN_SLOT_WORDS)
def test_bar_differential_rejects_an_unknown_generator(word):
    with pytest.raises(InvalidElementError, match=UNKNOWN_SLOT):
        bar_differential({word: ONE}, P4)
    # and so does every other kernel that takes a presentation
    for call in kernel_calls({word: 1}):
        with pytest.raises(InvalidElementError, match=UNKNOWN_SLOT):
            call()


@pytest.mark.parametrize("word", CONSTANT_SLOT_WORDS + UNKNOWN_SLOT_WORDS)
def test_a_zero_term_with_a_bad_slot_is_no_term(word):
    # beside a known two-slot word, every kernel gives with the bad word at
    # coefficient 0 what it gives without it; at coefficient 1 each raises
    known = (("L0_1",), ("L1_0",))
    want = [call() for call in kernel_calls({known: 1})]
    assert all(want)
    assert [call() for call in kernel_calls({known: 1, word: 0})] == want
    assert [call() for call in kernel_calls({word: 0, known: 1})] == want
    for call in kernel_calls({known: 1, word: 1}):
        with pytest.raises(InvalidElementError):
            call()


@pytest.mark.parametrize("word", UNKNOWN_SLOT_WORDS)
def test_hain_projector_rejects_an_unknown_generator(word):
    with pytest.raises(InvalidElementError, match=UNKNOWN_SLOT):
        hain_projector({word: ONE}, P4)
    # verify_lift projects before it reads the slots' degrees
    with pytest.raises(InvalidElementError, match=UNKNOWN_SLOT):
        verify_lift({word: ONE}, "0011", "plain", "oracle")


@pytest.mark.parametrize("word", UNKNOWN_SLOT_WORDS)
def test_delta_q_rejects_an_unknown_generator(word):
    with pytest.raises(InvalidElementError, match=UNKNOWN_SLOT):
        delta_Q({word: ONE}, P4)


@pytest.mark.parametrize("word", UNKNOWN_SLOT_WORDS)
def test_shuffle_rejects_an_unknown_generator(word):
    known = {(("L1_0",),): ONE}
    for b1, b2 in ((known, {word: ONE}), ({word: ONE}, known)):
        with pytest.raises(InvalidElementError, match=UNKNOWN_SLOT):
            shuffle(b1, b2, P4)


def test_delta_q_on_single_closed_slot():
    assert delta_Q({(("K_01",),): ONE}, P4) == {}


@pytest.mark.parametrize(
    "b", [{((), ("K_01",)): ONE}, {(("K_01",), ()): ONE}, {(): ONE}, {(): ONE, (("K_01",),): ONE}]
)
def test_delta_q_rejects_what_the_projector_rejects(b):
    with pytest.raises(InvalidElementError):
        hain_projector(b, P4)
    with pytest.raises(InvalidElementError):
        delta_Q(b, P4)


def record_projected_words(monkeypatch):
    """The words that reach ``_hain_word`` from now on, in order."""
    seen, lookup = [], bar._hain_word

    def recording(p, word):
        seen.append(word)
        return lookup(p, word)

    monkeypatch.setattr(bar, "_hain_word", recording)
    return seen


def test_delta_q_projects_no_one_slot_leg(monkeypatch):
    # p fixes a single slot, so a one-slot right leg goes straight to the
    # output; p([a|b|c]) over three distinct letters, the six arrangements,
    # splits only into legs of one and two slots, so nothing is projected
    h = hain_projector({(("L0_1",), ("L1_0",), ("L0_01",)): ONE}, P4)
    assert len(h) == 6
    seen = record_projected_words(monkeypatch)
    t = delta_Q(h, P4)
    assert seen == []
    assert {(len(v1), len(v2)) for v1, v2 in t} == {(2, 1), (1, 2)}
    # words of four and five slots, odd slots among them, do project legs
    rng = random.Random(4)
    for _ in range(20):
        word = tuple(rng.choice(_P4_GENS + _P4_PAIRS) for _ in range(rng.choice((4, 5))))
        delta_Q(hain_projector({word: ONE}, P4), P4)
    assert seen and all(len(w) >= 2 for w in seen)


def test_delta_q_projects_at_most_half_the_longest_word(monkeypatch):
    words = weight_slice(P7, 7)
    rng = random.Random(17)
    elements = [
        {w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for w in rng.sample(words, 3)}
        for _ in range(40)
    ]
    projected = [hain_projector(b, P7) for b in elements]
    seen = record_projected_words(monkeypatch)
    longest_seen = 0
    for h in projected:
        del seen[:]
        delta_Q(h, P7)
        assert all(len(w) <= max(map(len, h)) // 2 for w in seen)
        longest_seen = max([longest_seen, *map(len, seen)])
    assert max(max(map(len, h)) for h in projected) == 7
    # the elements together still project legs of two slots and more
    assert longest_seen >= 2


def test_delta_q_reads_no_word_parity_in_degree_zero(monkeypatch):
    # every slot of the degree-0 slice is even, so no sign needs a parity
    words = weight_slice(P7, 7)
    rng = random.Random(23)
    projected = [hain_projector(dict.fromkeys(rng.sample(words, 3), ONE), P7) for _ in range(8)]
    want = [merged_delta_Q(h, P7) for h in projected]
    calls, parity = [], bar._parity
    monkeypatch.setattr(bar, "_parity", lambda p, word: calls.append(word) or parity(p, word))
    assert [delta_Q(h, P7) for h in projected] == want
    assert calls == []


def test_delta_q_antisymmetric():
    for b in samples(P4, n=40):
        h = hain_projector(b, P4)
        t = delta_Q(h, P4)
        assert tensor_swap(t, P4) == {k: -v for k, v in t.items()}


def test_pi1():
    b = {(("L0_01",),): Fraction(2), (("L1_0",), ("L0_1",)): ONE}
    assert pi1(b) == {("L0_01",): 2}


# ---------------------------------------------------------------------------
# the composition-sum projector and the pairwise cobracket, kept as references


def iterated_reduced_coproduct(word, parts):
    """Every split of ``word`` into ``parts`` nonempty blocks."""
    n = len(word)
    for cuts in combinations(range(1, n), parts - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(word[a:b] for a, b in zip(bounds, bounds[1:]))


def multi_shuffle(blocks, p):
    out = {blocks[0]: ONE}
    for w in blocks[1:]:
        out = shuffle(out, {w: ONE}, p)
    return out


def reference_hain_word(p, word):
    """p([word]) = sum_i ((-1)^(i-1)/i) sum over i-block splits of their shuffle."""
    return dict(_reference_hain_word(p, word))


@lru_cache(maxsize=None)
def _reference_hain_word(p, word):
    out = {word: ONE}
    for i in range(2, len(word) + 1):
        coeff = Fraction((-1) ** (i - 1), i)
        for blocks in iterated_reduced_coproduct(word, i):
            for sh_word, sh_c in multi_shuffle(blocks, p).items():
                add_term(out, sh_word, coeff * sh_c)
    return tuple(out.items())


def reduced_coproduct(b):
    """The deconcatenations of each word into two nonempty legs."""
    out: dict = {}
    for word, c in b.items():
        for i in range(1, len(word)):
            add_term(out, (word[:i], word[i:]), c)
    return out


def merged_delta_Q(b, p):
    """(p @ p)(red - tau o red) / 2 over every split, grouped by left leg.

    The kernel before the mirror: each left leg's summed right legs are
    projected once and tensored with p of the left leg, pair key by pair key.
    """
    den, ints = to_numerators(b)
    by_left: dict = {}
    for word, c in ints.items():
        eta = list(accumulate((_slot(p, m)[0] for m in word), initial=0))
        for i in range(1, len(word)):
            w1, w2 = word[:i], word[i:]
            rights = by_left.setdefault(w1, {})
            rights[w2] = rights.get(w2, 0) + c
            lefts = by_left.setdefault(w2, {})
            odd = eta[i] % 2 and (eta[-1] - eta[i]) % 2
            lefts[w1] = lefts.get(w1, 0) + (c if odd else -c)
    if not by_left:
        return {}
    leg_denom = _lcm_upto(max(map(len, b)) - 1)
    out: dict = {}
    for w1, rights in by_left.items():
        right = [(v2, r) for v2, r in projector_numerators(rights, p, leg_denom).items() if r]
        if not right:
            continue
        scale1 = leg_denom // _lcm_upto(len(w1))
        for v1, n1 in _hain_word(p, w1):
            n1 *= scale1
            for v2, r in right:
                key = (v1, v2)
                out[key] = out.get(key, 0) + n1 * r
    return from_numerators(out, 2 * den * leg_denom**2)


def reference_delta_Q(b, p):
    """(1/2)(red - tau o red) with both legs projected, one pair at a time."""
    red = reduced_coproduct(b)
    anti = combine((HALF, red), (-HALF, tensor_swap(red, p)))
    out: dict = {}
    for (w1, w2), c in anti.items():
        for v1, c1 in reference_hain_word(p, w1).items():
            for v2, c2 in reference_hain_word(p, w2).items():
                add_term(out, (v1, v2), c * c1 * c2)
    return out


_P4_GENS = [(g.name,) for g in P4.generators]
# products of two distinct odd generators have desuspended degree 1
_P4_PAIRS = [a + b for a, b in combinations(_P4_GENS, 2)]
# slots of desuspended degree 0 and 1 over P4, so Koszul signs appear
mixed_words = st.lists(
    st.one_of(st.sampled_from(_P4_GENS), st.sampled_from(_P4_PAIRS)), min_size=1, max_size=5
).map(tuple)
# one element that takes both sign paths of delta_Q: a word of even slots
# only, and a word whose two odd slots fall on both sides of some splits
BOTH_SIGN_PATHS = {
    (("L0_1",), ("L1_0",), ("L0_01",), ("L0_1",), ("K_01",)): Fraction(2),
    (("L0_1", "L1_0"), ("L0_1",), ("L1_0", "L0_01"), ("L1_0",)): Fraction(-1),
}


def slice_words(max_size):
    """Words of the degree-0 slice over model_x(6): single-generator slots."""
    gens = [(g.name,) for g in P6.generators]
    return st.lists(st.sampled_from(gens), min_size=1, max_size=max_size).map(tuple)


def weight_slice(p, weight):
    """The degree-0 slice words of ``p`` whose generator weights sum to ``weight``."""
    if weight == 0:
        return [()]
    return [
        ((g.name,),) + rest
        for g in p.generators
        if g.weight <= weight
        for rest in weight_slice(p, weight - g.weight)
    ]


coeffs = st.sampled_from([Fraction(c) for c in (-3, -2, -1, 1, 2)] + [Fraction(1, 3), Fraction(-5, 2)])


def hain_word_fractions(p, word):
    """The integer kernel read back as Fractions over lcm(1..len(word))."""
    got = _hain_word(p, word)
    assert all(type(c) is int and c for _, c in got)
    denom = _lcm_upto(len(word))
    return {w: Fraction(c, denom) for w, c in got}


@settings(max_examples=150, deadline=None)
@given(mixed_words)
def test_hain_word_matches_the_composition_sum_with_signs(word):
    assert hain_word_fractions(P4, word) == reference_hain_word(P4, word)


@settings(max_examples=100, deadline=None)
@given(slice_words(6))
def test_hain_word_matches_the_composition_sum_in_degree_zero(word):
    assert hain_word_fractions(P6, word) == reference_hain_word(P6, word)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(mixed_words, coeffs, min_size=1, max_size=2))
@example(BOTH_SIGN_PATHS)
def test_delta_q_matches_the_pairwise_reference_with_signs(b):
    # delta_Q needs a projected input; the reference takes the raw words,
    # so this also says that the cobracket is well defined on indecomposables
    h = hain_projector(b, P4)
    got = delta_Q(h, P4)
    assert got == reference_delta_Q(b, P4)
    assert all(type(c) is Fraction for c in got.values())
    assert got == reference_delta_Q(h, P4)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(slice_words(5), coeffs, min_size=1, max_size=3))
def test_delta_q_matches_the_pairwise_reference_in_degree_zero(b):
    h = hain_projector(b, P6)
    assert delta_Q(h, P6) == reference_delta_Q(h, P6)


# ---------------------------------------------------------------------------
# the Fraction differential and projector, kept as references for the
# integer kernels


def reference_bar_differential(b, p):
    """d_B = D1 + D2 term by term in Fractions."""
    out: dict = {}
    for word, c in b.items():
        n = len(word)
        eta = [0] * (n + 1)
        for i, m in enumerate(word):
            eta[i + 1] = eta[i] + p.monomial_degree(m) - 1
        for i, m in enumerate(word):
            dm = p.monomial_differential(m)
            if dm:
                sign = -(-1) ** (eta[i] % 2)
                for m2, c2 in dm.items():
                    add_term(out, word[:i] + (m2,) + word[i + 1 :], sign * c * c2)
        for i in range(n - 1):
            prod = p.multiply_monomials(word[i], word[i + 1])
            if prod is None:
                continue
            s, m2 = prod
            sign = -(-1) ** (eta[i + 1] % 2)
            add_term(out, word[:i] + (m2,) + word[i + 2 :], sign * s * c)
    return out


def reference_hain_projector(b, p):
    """sum of c * p([word]) in Fractions, with p by the composition sum."""
    out: dict = {}
    for word, c in b.items():
        for w2, c2 in reference_hain_word(p, word).items():
            add_term(out, w2, c * c2)
    return out


Q4 = rescaled(P4, "rescaled x@4")
_Q4_GENS = [(g.name,) for g in Q4.generators]
fractional_words = st.lists(
    st.one_of(st.sampled_from(_Q4_GENS), st.sampled_from(_P4_PAIRS)), min_size=1, max_size=5
).map(tuple)


def test_the_rescaled_presentation_is_not_integral():
    denominators = {c.denominator for d in Q4.differential.values() for c in d.values()}
    assert max(denominators) > 1


def assert_kernels_match_references(b, p):
    # the integer projector over a denominator one word longer than b needs,
    # with a zero coefficient on a word outside b
    longest = max(b, key=len)
    den, ints = to_numerators(b)
    ints[longest + longest[:1]] = 0
    denom = _lcm_upto(len(longest) + 1)
    numerators = projector_numerators(ints, p, denom)
    assert all(type(c) is int for c in numerators.values())
    for got, want in (
        (bar_differential(b, p), reference_bar_differential(b, p)),
        (hain_projector(b, p), reference_hain_projector(b, p)),
        (from_numerators(numerators, den * denom), reference_hain_projector(b, p)),
    ):
        assert got == want
        assert all(type(c) is Fraction and c for c in got.values())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(mixed_words, coeffs, min_size=1, max_size=3))
def test_kernels_match_the_fraction_references_with_signs(b):
    assert_kernels_match_references(b, P4)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(slice_words(5), coeffs, min_size=1, max_size=3))
def test_kernels_match_the_fraction_references_in_degree_zero(b):
    assert_kernels_match_references(b, P6)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(fractional_words, coeffs, min_size=1, max_size=3))
def test_kernels_match_the_fraction_references_over_fractional_differentials(b):
    assert_kernels_match_references(b, Q4)


@pytest.mark.parametrize(
    "p", [model_x(5), model_a1(5), model_point(5), model_geom(5), Q4], ids=lambda p: p.name
)
def test_differential_numerators_hold_the_presentations_coefficients(p):
    # ints over every integral model, and Fractions only where the
    # presentation's own differential has a denominator
    integral = all(type(c) is int for d in p.differential.values() for c in d.values())
    assert integral == (p is not Q4)
    fractional = False
    for b in samples(p, n=60):
        got = differential_numerators(b, p)
        assert got == reference_bar_differential(b, p)
        assert all(c for c in got.values())
        if integral:
            assert all(type(c) is int for c in got.values())
        fractional |= any(type(c) is Fraction and c.denominator > 1 for c in got.values())
    assert fractional == (p is Q4)


# ---------------------------------------------------------------------------
# the cobracket from the splits with the longer left leg, mirrored, against
# the merged kernel over every split


def assert_delta_q_matches_the_merged_kernel(b, p):
    h = hain_projector(b, p)
    got = delta_Q(h, p)
    assert got == merged_delta_Q(h, p)
    assert all(type(c) is Fraction and c for c in got.values())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(mixed_words, coeffs, min_size=1, max_size=3))
@example(BOTH_SIGN_PATHS)
def test_delta_q_matches_the_merged_kernel_with_signs(b):
    assert_delta_q_matches_the_merged_kernel(b, P4)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(fractional_words, coeffs, min_size=1, max_size=3))
def test_delta_q_matches_the_merged_kernel_over_fractional_differentials(b):
    assert_delta_q_matches_the_merged_kernel(b, Q4)


@pytest.mark.parametrize("p, weight", [(P6, 6), (P7, 7)], ids=["model_x(6)", "model_x(7)"])
def test_delta_q_matches_the_merged_kernel_on_the_degree_zero_slice(p, weight):
    # three-term elements of the slice that the bar-w7 benchmark draws from
    words = weight_slice(p, weight)
    assert len(words) == {6: 1252, 7: 4568}[weight]
    rng = random.Random(weight)
    for _ in range(100):
        b = {w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for w in rng.sample(words, 3)}
        assert_delta_q_matches_the_merged_kernel(b, p)


@pytest.mark.parametrize("weight", [2, 3, 4, 5])
def test_delta_q_matches_the_merged_kernel_on_geometric_lifts(weight):
    # the lifts verify_geom_basis hands to delta_Q, over model_geom
    model = model_geom(weight)
    for W in lyndon_words(weight):
        if len(W) == weight:
            lift = geometric_lift(W)
            assert delta_Q(lift, model) == merged_delta_Q(lift, model) != {}, W


# ---------------------------------------------------------------------------
# the (1,1) lift check, delta_Q of the two-slot words, against the (1,1)
# part of the full delta_Q


def tensor_part(t, shape):
    """The component with prescribed tensor degrees on the two legs."""
    return {(w1, w2): c for (w1, w2), c in t.items() if (len(w1), len(w2)) == shape}


def cobracket_11(b, p):
    """delta_Q of the two-slot words of b, as the (1,1) lift check reads it."""
    return delta_Q({w: c for w, c in b.items() if len(w) == 2}, p)


def assert_cobracket_11_matches(b, p):
    got = cobracket_11(b, p)
    assert got == tensor_part(delta_Q(b, p), (1, 1))
    assert all(type(c) is Fraction for c in got.values())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(mixed_words, coeffs, min_size=1, max_size=3))
def test_cobracket_11_matches_delta_q_with_signs(b):
    h = hain_projector(b, P4)
    assert_cobracket_11_matches(h, P4)


def test_cobracket_11_sees_odd_slots():
    # two slots of desuspended degree 1: the swap carries a minus sign, so
    # [m|m] survives and [m0|m1] gives a symmetric tensor
    m0, m1 = ("L0_1", "L1_0"), ("L1_0", "L0_01")
    b = hain_projector({(m0, m0): ONE, (m0, m1): Fraction(2)}, P4)
    got = cobracket_11(b, P4)
    assert got[((m0,), (m0,))] == 1
    assert got[((m0,), (m1,))] == got[((m1,), (m0,))] == 1
    assert_cobracket_11_matches(b, P4)


def test_cobracket_11_matches_delta_q_on_degree_zero_lifts():
    for w in lyndon_words(5):
        if len(w) < 2:
            continue
        for variant in VARIANTS:
            element, _ = lift_LB(w, variant, "oracle")
            assert_cobracket_11_matches(element, VARIANTS[variant].model(len(w)))


# ---------------------------------------------------------------------------
# letter patterns: p([word]) depends only on which slots are equal and on
# their parities


def closed_form_coefficient(parities, arrangement):
    """p([a_0|...|a_(n-1)]) at [a_pi(0)|...] for distinct letters, times lcm(1..n).

    koszul(pi) (-1)^d lcm(1..n) / (n C(n-1, d)), d the number of i with i+1
    before i in the arrangement, and koszul(pi) the sign of moving the odd
    letters into place.
    """
    n = len(parities)
    position = {a: i for i, a in enumerate(arrangement)}
    d = sum(position[i + 1] < position[i] for i in range(n - 1))
    swaps = sum(
        parities[a] and parities[b] and position[b] < position[a]
        for a, b in combinations(range(n), 2)
    )
    return (-1) ** (swaps + d) * _lcm_upto(n) // (n * math.comb(n - 1, d))


def test_hain_word_matches_the_closed_form_on_distinct_letters():
    for n in range(1, 7):
        for parities in product((0, 1), repeat=n):
            letters = [_P4_PAIRS[i] if odd else _P4_GENS[i] for i, odd in enumerate(parities)]
            got = dict(_hain_word(P4, tuple(letters)))
            want = {
                tuple(letters[a] for a in pi): closed_form_coefficient(parities, pi)
                for pi in permutations(range(n))
            }
            assert got == want, parities


# an even slot, an odd slot, one of them again, and up to three more
repeated_mixed_words = st.tuples(
    st.sampled_from(_P4_GENS),
    st.sampled_from(_P4_PAIRS),
    st.booleans(),
    st.lists(st.one_of(st.sampled_from(_P4_GENS), st.sampled_from(_P4_PAIRS)), max_size=3),
).flatmap(lambda t: st.permutations([t[0], t[1], t[1] if t[2] else t[0], *t[3]])).map(tuple)


@settings(max_examples=100, deadline=None)
@given(repeated_mixed_words, st.permutations(_P4_GENS), st.permutations(_P4_PAIRS))
def test_renaming_the_letters_renames_the_projection(word, gens, pairs):
    # an injective renaming that keeps each slot's parity
    rename = dict(zip(_P4_GENS, gens)) | dict(zip(_P4_PAIRS, pairs))
    renamed = tuple(rename[m] for m in word)
    want = {tuple(rename[m] for m in w): c for w, c in reference_hain_word(P4, word).items()}
    assert hain_word_fractions(P4, renamed) == want


def test_a_pattern_is_shared_across_models():
    odd = ("L0_1", "L1_0")
    word_x = (("L0_01",), odd, ("L1_01",), odd, ("L0_01",))
    word_a1 = (("M_01",), ("M_0", "M_1"), ("M_001",), ("M_0", "M_1"), ("M_01",))
    _hain_word(P4, word_x)
    before = _hain_pattern.cache_info()
    got = _hain_word.__wrapped__(model_a1(4), word_a1)
    after = _hain_pattern.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
    rename = dict(zip(word_x, word_a1))
    assert got == tuple((tuple(rename[m] for m in w), c) for w, c in _hain_word(P4, word_x))


@lru_cache(maxsize=None)
def shuffle_codes(w1, w2):
    """The signed shuffle of two code words as a dict; a code's low bit is its parity."""
    if not w1 or not w2:
        return {w1 + w2: 1}
    out: dict = {}
    for rest, c in shuffle_codes(w1[1:], w2).items():
        add_term(out, (w1[0],) + rest, c)
    odd = w2[0] & 1 and sum(w1) & 1
    for rest, c in shuffle_codes(w1, w2[1:]).items():
        add_term(out, (w2[0],) + rest, -c if odd else c)
    return out


@lru_cache(maxsize=None)
def reference_hain_pattern(codes):
    """p of a code word by the convolution powers of J = id - epsilon, in integers.

    J^(*i) sends a word to the shuffle of its i-block deconcatenations; over
    suffixes P_1(s) = [codes[s:]] and P_i(s) = sum_k [codes[s:k]] sh P_(i-1)(k),
    and p = sum_i ((-1)^(i-1)/i) P_i(0) over lcm(1..n).
    """
    n = len(codes)
    denom = _lcm_upto(n)
    total = {codes: denom}
    powers = [{codes[s:]: 1} for s in range(n)]
    for i in range(2, n + 1):
        last = n - i + 1
        shuffled = []
        for s in range(last):
            out: dict = {}
            for k in range(s + 1, last + 1):
                for v, c in powers[k].items():
                    for w, e in shuffle_codes(codes[s:k], v).items():
                        out[w] = out.get(w, 0) + c * e
            shuffled.append(out)
        powers = shuffled
        scale = denom // i if i % 2 else -(denom // i)
        for w, c in powers[0].items():
            total[w] = total.get(w, 0) + scale * c
    return {w: c for w, c in total.items() if c}


def restricted_growth(n):
    """The letter patterns of n slots: each slot a new letter or an earlier one."""
    if n == 1:
        yield (0,)
        return
    for head in restricted_growth(n - 1):
        for k in range(max(head) + 2):
            yield head + (k,)


def code_words(n, parities=True):
    """Every code word of n slots, with every parity of its letters, or all even."""
    for pattern in restricted_growth(n):
        letters = max(pattern) + 1
        for odd in range(1 << letters) if parities else (0,):
            yield tuple(2 * k + (odd >> k & 1) for k in pattern)


def assert_pattern_matches_the_recursion(codes):
    got = _hain_pattern(codes)
    assert all(type(c) is int and c for _, c in got)
    assert len({w for w, _ in got}) == len(got)
    assert dict(got) == reference_hain_pattern(codes), codes


def test_hain_pattern_matches_the_recursion_with_every_parity_to_five_letters():
    words = [codes for n in range(1, 6) for codes in code_words(n)]
    assert len(words) == 2 + 6 + 22 + 94 + 454
    for codes in words:
        assert_pattern_matches_the_recursion(codes)


def test_hain_pattern_matches_the_recursion_on_even_six_letter_patterns():
    words = list(code_words(6, parities=False))
    assert len(words) == 203
    for codes in words:
        assert_pattern_matches_the_recursion(codes)


@seed(1716)
@settings(max_examples=12, deadline=None, database=None)
@given(st.sampled_from(list(code_words(7))))
def test_hain_pattern_matches_the_recursion_on_seven_letters_with_signs(codes):
    assert_pattern_matches_the_recursion(codes)


def eulerian(n):
    """The number of permutations of n letters with d descents, for each d."""
    row = [1]
    for m in range(2, n + 1):
        row = [(d + 1) * (row[d] if d < len(row) else 0) + (m - d) * (row[d - 1] if d else 0) for d in range(m)]
    return row


@pytest.mark.parametrize("n", [21, 22])
def test_hain_pattern_is_exact_past_sixty_four_bit_counts(n):
    # every permutation of a^n gives a^n, so the count of d descents is an
    # Eulerian number, and those pass 2^63 from n = 21 on; a^n is a shuffle
    # power, so p kills it
    assert sum(eulerian(n)) == math.factorial(n) and max(eulerian(n)) >= 2**63
    assert max(eulerian(20)) < 2**63
    assert _hain_pattern((0,) * n) == ()
    assert hain_projector({(("L0_01",),) * n: ONE}, P4) == {}


def test_hain_projector_is_idempotent_on_23_slots():
    # the counts of a^11 b a^11 pass 2^63, and so do the products that weigh
    # them: with 64-bit digits this p is not idempotent
    a, b = ("L0_01",), ("L1_01",)
    h = hain_projector({(a,) * 11 + (b,) + (a,) * 11: ONE}, P4)
    assert len(h) == 23
    assert hain_projector(h, P4) == h


def test_hain_projector_makes_no_shuffle_lookup(monkeypatch):
    _hain_word.cache_clear()
    _hain_pattern.cache_clear()

    def refuse(p, w1, w2):
        raise AssertionError("hain_projector reached the shuffle")

    monkeypatch.setattr(bar, "_shuffle_pair", refuse)
    words = random.Random(3).sample(weight_slice(P7, 7), 60)
    assert max(map(len, words)) >= 6
    hain_projector(dict.fromkeys(words, ONE), P7)
    for b in samples(P4, n=20):
        hain_projector(b, P4)
    assert _hain_pattern.cache_info().misses >= 30
    with pytest.raises(AssertionError, match="reached the shuffle"):
        shuffle({(("L0_1",),): ONE}, {(("L1_0",),): ONE}, P4)


def reference_shuffle_words(p, w1, w2):
    """The signed shuffle of two bar words by the recursion on monomials."""
    if not w1 or not w2:
        return {w1 + w2: 1}
    out: dict = {}
    for rest, c in reference_shuffle_words(p, w1[1:], w2).items():
        add_term(out, (w1[0],) + rest, c)
    odd = (p.monomial_degree(w2[0]) - 1) % 2 and sum(p.monomial_degree(m) - 1 for m in w1) % 2
    for rest, c in reference_shuffle_words(p, w1, w2[1:]).items():
        add_term(out, (w2[0],) + rest, -c if odd else c)
    return out


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(mixed_words, coeffs, max_size=2), st.dictionaries(mixed_words, coeffs, max_size=2))
def test_shuffle_matches_the_recursion_on_monomials(b1, b2):
    want: dict = {}
    for w1, c1 in b1.items():
        for w2, c2 in b2.items():
            for w, c in reference_shuffle_words(P4, w1, w2).items():
                add_term(want, w, c * c1 * c2)
    assert shuffle(b1, b2, P4) == want


# a tensor term is a mixed word cut in two, so either leg may be empty
mixed_tensors = st.dictionaries(
    st.tuples(mixed_words, st.integers(0, 5)).map(lambda t: (t[0][: t[1]], t[0][t[1] :])),
    coeffs,
    max_size=2,
)


def reference_tensor_shuffle(t1, t2, p):
    """(x1 @ x2)(y1 @ y2) = (-1)^(|x2||y1|) (x1 sh y1) @ (x2 sh y2), term by term."""
    out: dict = {}
    for (x1, x2), c1 in t1.items():
        for (y1, y2), c2 in t2.items():
            c = (-1) ** (bar_degree(x2, p) * bar_degree(y1, p)) * c1 * c2
            for u, cu in shuffle({x1: ONE}, {y1: ONE}, p).items():
                for v, cv in shuffle({x2: ONE}, {y2: ONE}, p).items():
                    add_term(out, (u, v), c * cu * cv)
    return out


@settings(max_examples=100, deadline=None)
@given(mixed_tensors, mixed_tensors)
def test_tensor_shuffle_matches_the_legwise_koszul_rule(t1, t2):
    assert tensor_shuffle(t1, t2, P4) == reference_tensor_shuffle(t1, t2, P4)


def reference_wedge_pair(b1, b2, p):
    """(1/2)(b1 @ b2 - (-1)^(|w1||w2|) b2 @ b1), term by term from the bar degrees."""
    out: dict = {}
    for w1, c1 in b1.items():
        for w2, c2 in b2.items():
            sign = (-1) ** (bar_degree(w1, p) * bar_degree(w2, p))
            add_term(out, (w1, w2), HALF * c1 * c2)
            add_term(out, (w2, w1), -sign * HALF * c1 * c2)
    return out


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(mixed_words, coeffs, max_size=3), st.dictionaries(mixed_words, coeffs, max_size=3))
def test_wedge_pair_matches_the_reference_with_signs(b1, b2):
    den1, ints1 = to_numerators(b1)
    den2, ints2 = to_numerators(b2)
    got = from_numerators(wedge_numerators(ints1, ints2, P4), 2 * den1 * den2)
    assert got == reference_wedge_pair(b1, b2, P4)
    assert all(type(c) is Fraction and c for c in got.values())
    assert tensor_swap(got, P4) == {k: -v for k, v in got.items()}

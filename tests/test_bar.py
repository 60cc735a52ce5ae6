"""Bar construction axioms: differential, coproducts, shuffles, Hain projector."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lyndonbar.bar import (
    InvalidElementError,
    bar_differential,
    coproduct,
    delta_Q,
    hain_projector,
    pi1,
    reduced_coproduct,
    shuffle,
    tensor_shuffle,
    tensor_swap,
)
from lyndonbar.dgcore import model_x
from lyndonbar.linalg import add_term, combine
from lyndonbar.verify import random_bar_element

ONE = Fraction(1)
P4 = model_x(4)
P5 = model_x(5)


def samples(p, n=100, max_weight=4, seed=42):
    rng = random.Random(seed)
    return [random_bar_element(p, rng, max_weight=max_weight) for _ in range(n)]


def test_two_generator_slots():
    b = {((("L1_0",), ("L0_1",))): ONE}
    got = bar_differential({(("L1_0",), ("L0_1",)): ONE}, P4)
    assert got == {((("L0_1", "L1_0"),)): 1}


def test_single_slot_differential_sign():
    got = bar_differential({(("L0_01",),): ONE}, P4)
    assert got == {((("L0_1", "L1_0"),)): -1}


def test_constant_slot_rejected():
    with pytest.raises(InvalidElementError):
        bar_differential({((), ("L0_1",)): ONE}, P4)  # type: ignore[dict-item]


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
    from lyndonbar.bar import bar_degree

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
    from lyndonbar.bar import bar_degree

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


def test_delta_q_on_single_closed_slot():
    assert delta_Q({(("K_01",),): ONE}, P4) == {}


def test_delta_q_antisymmetric():
    for b in samples(P4, n=40):
        h = hain_projector(b, P4)
        t = delta_Q(h, P4)
        assert tensor_swap(t, P4) == {k: -v for k, v in t.items()}


def test_pi1():
    b = {(("L0_01",),): Fraction(2), (("L1_0",), ("L0_1",)): ONE}
    assert pi1(b) == {("L0_01",): 2}

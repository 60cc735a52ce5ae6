"""Special derivations, the Ihara bracket, the semidirect sum, and beta/gamma."""

from __future__ import annotations

import random
from fractions import Fraction

from lyndonbar.freelie import alpha_table, basis_element, lie_bracket
from lyndonbar.ihara import (
    SemidirectElement,
    beta_gamma_tables,
    ihara_bracket,
    semidirect_bracket,
    special_derivation,
)
from lyndonbar.linalg import combine
from lyndonbar.words import lyndon_words


def random_lie(rng: random.Random, max_weight: int):
    words = lyndon_words(max_weight)
    return {
        w: Fraction(rng.choice([-2, -1, 1, 2]))
        for w in rng.sample(words, k=rng.randint(1, 3))
    }


def test_kills_x0():
    rng = random.Random(7)
    for _ in range(20):
        f = random_lie(rng, 4)
        assert special_derivation(f, basis_element("0")) == {}


def test_on_x1():
    # D_[0](X1) = [X1, X0] = -[01]
    assert special_derivation(basis_element("0"), basis_element("1")) == {"01": -1}


def test_derivation_of_x1_is_zero():
    rng = random.Random(11)
    for _ in range(10):
        f = random_lie(rng, 3)
        assert special_derivation(basis_element("1"), f) == {}


def test_leibniz_on_weight_two():
    rng = random.Random(5)
    zero, one = basis_element("0"), basis_element("1")
    for _ in range(25):
        f = random_lie(rng, 4)
        lhs = special_derivation(f, lie_bracket(zero, one))
        rhs = combine(
            (1, lie_bracket(special_derivation(f, zero), one)),
            (1, lie_bracket(zero, special_derivation(f, one))),
        )
        assert lhs == rhs


def test_ihara_bracket_of_generators_vanishes():
    assert ihara_bracket(basis_element("0"), basis_element("1")) == {}


def test_ihara_antisymmetry():
    rng = random.Random(3)
    for _ in range(20):
        f = random_lie(rng, 4)
        assert ihara_bracket(f, f) == {}


def test_derivation_commutator_realizes_bracket():
    rng = random.Random(13)
    one = basis_element("1")
    for _ in range(25):
        f, g = random_lie(rng, 3), random_lie(rng, 3)
        lhs = combine(
            (1, special_derivation(f, special_derivation(g, one))),
            (-1, special_derivation(g, special_derivation(f, one))),
        )
        assert lhs == special_derivation(ihara_bracket(f, g), one)


def test_semidirect_restricts_to_free_bracket():
    words = lyndon_words(5)
    for u in words:
        for v in words:
            if len(u) + len(v) > 6:
                continue
            got = semidirect_bracket(
                SemidirectElement(x_part=basis_element(u)),
                SemidirectElement(x_part=basis_element(v)),
            )
            assert got.one_part == {}
            assert got.x_part == lie_bracket(basis_element(u), basis_element(v))


def test_cross_term_with_weight_one():
    # {[V](x), [0](1)} = [[0],[V]] in the x copy
    for v in lyndon_words(4):
        got = semidirect_bracket(
            SemidirectElement(x_part=basis_element(v)),
            SemidirectElement(one_part=basis_element("0")),
        )
        assert got.x_part == lie_bracket(basis_element("0"), basis_element(v))
        assert got.one_part == {}


def test_semidirect_jacobi():
    rng = random.Random(17)

    def random_semidirect():
        return SemidirectElement(x_part=random_lie(rng, 2), one_part=random_lie(rng, 2))

    def add(a, b, sign=1):
        return SemidirectElement(
            x_part=combine((1, a.x_part), (sign, b.x_part)),
            one_part=combine((1, a.one_part), (sign, b.one_part)),
        )

    for _ in range(15):
        a, b, c = random_semidirect(), random_semidirect(), random_semidirect()
        total = add(
            add(
                semidirect_bracket(semidirect_bracket(a, b), c),
                semidirect_bracket(semidirect_bracket(b, c), a),
            ),
            semidirect_bracket(semidirect_bracket(c, a), b),
        )
        assert total.x_part == {} and total.one_part == {}


def test_ihara_jacobi_on_basis():
    words = lyndon_words(3)
    for u in words:
        for v in words:
            for w in words:
                if len(u) + len(v) + len(w) > 5:
                    continue
                eu, ev, ew = (basis_element(x) for x in (u, v, w))
                total = combine(
                    (1, ihara_bracket(ihara_bracket(eu, ev), ew)),
                    (1, ihara_bracket(ihara_bracket(ev, ew), eu)),
                    (1, ihara_bracket(ihara_bracket(ew, eu), ev)),
                )
                assert total == {}, (u, v, w)


def test_relv01_identities_to_weight_6():
    alpha = alpha_table(6)
    beta, gamma = beta_gamma_tables(6)
    zero = Fraction(0)
    for (w, u, v) in beta:
        assert len(w) >= 2
        assert u != "0", f"beta[{w},0,{v}] should vanish"
        assert v != "1", f"beta[{w},{u},1] should vanish"
    words = lyndon_words(5)
    for w in lyndon_words(6):
        if len(w) < 2:
            continue
        for u in words:
            if len(u) + 1 != len(w):
                continue
            assert beta.get((w, u, "0"), zero) == alpha.get((w, "0", u), zero)
            assert beta.get((w, "1", u), zero) == alpha.get((w, u, "1"), zero)
        for u in words:
            for v in words:
                if u < v and len(u) + len(v) == len(w):
                    expected = (
                        alpha.get((w, u, v), zero)
                        + beta.get((w, u, v), zero)
                        - beta.get((w, v, u), zero)
                    )
                    assert gamma.get((w, u, v), zero) == expected


def test_beta_diagonal_on_letters_vanishes():
    beta, _ = beta_gamma_tables(6)
    for eps in ("0", "1"):
        assert not any(u == eps and v == eps for (_, u, v) in beta)


def test_tables_have_no_weight_one_targets():
    alpha = alpha_table(6)
    beta, gamma = beta_gamma_tables(6)
    for table in (alpha, beta, gamma):
        assert all(len(w) >= 2 for (w, _, _) in table)


def fraction_beta_gamma(max_weight):
    """beta and gamma rebuilt from Fraction-seeded basis elements."""
    beta, gamma = {}, {}
    ws = lyndon_words(max_weight - 1)
    for u in ws:
        for v in ws:
            if len(u) + len(v) > max_weight:
                continue
            eu, ev = {u: Fraction(1)}, {v: Fraction(1)}
            for w, c in special_derivation(ev, eu).items():
                assert type(c) is Fraction
                beta[(w, u, v)] = -c
            if u < v:
                for w, c in ihara_bracket(eu, ev).items():
                    assert type(c) is Fraction
                    gamma[(w, u, v)] = c
    return beta, gamma


def test_beta_gamma_are_ints_equal_to_the_fraction_rebuild():
    beta, gamma = beta_gamma_tables(6)
    assert all(type(c) is int for c in (*beta.values(), *gamma.values()))
    ref_beta, ref_gamma = fraction_beta_gamma(6)
    assert dict(beta) == ref_beta and dict(gamma) == ref_gamma

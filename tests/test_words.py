"""Lyndon word recognition, enumeration, and standard factorization."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyndonbar.words import (
    InvalidWordError,
    is_lyndon,
    is_lyndon_sequence,
    lyndon_words,
    lyndon_words_of_length,
    standard_factorization,
)


def brute_force_lyndon(w: str) -> bool:
    return all(w < w[i:] for i in range(1, len(w)))


def all_words(n: int):
    for k in range(2**n):
        yield format(k, f"0{n}b")


def test_single_letters_are_lyndon():
    assert is_lyndon("0") and is_lyndon("1")


def test_examples():
    assert is_lyndon("01")
    assert not is_lyndon("10")
    assert not is_lyndon("0101")


def test_empty_word_rejected():
    with pytest.raises(InvalidWordError):
        is_lyndon("")
    with pytest.raises(InvalidWordError):
        is_lyndon("02")


def test_agrees_with_brute_force_up_to_length_8():
    for n in range(1, 9):
        for w in all_words(n):
            assert is_lyndon(w) == brute_force_lyndon(w), w


@given(st.text(alphabet="01", min_size=1, max_size=12))
def test_agrees_with_brute_force_random(w):
    assert is_lyndon(w) == brute_force_lyndon(w)


def test_sequence_form_on_bar_words_of_slots():
    # tuples of one-generator slots, as in the degree-0 bar slice: Lyndon iff
    # strictly smaller than every proper rotation, and Witt's necklace count
    # (1/n) sum_{d | n} mu(d) k^(n/d) of them over k = 3 letters
    letters = [("L0_1",), ("L0_01",), ("L1_0",)]
    witt = {1: 3, 2: 3, 3: 8, 4: 18, 5: 48}
    for n, count in witt.items():
        words = list(product(letters, repeat=n))
        found = [w for w in words if is_lyndon_sequence(w)]
        assert len(found) == count
        for w in words:
            assert is_lyndon_sequence(w) == all(w < w[i:] + w[:i] for i in range(1, n)), w


def test_enumeration_matches_ordered_list():
    assert list(lyndon_words(4)) == ["0", "0001", "001", "0011", "01", "011", "0111", "1"]
    assert list(lyndon_words(1)) == ["0", "1"]


def witt_count(n: int, k: int = 2) -> int:
    """(1/n) sum_{d | n} mu(d) k^(n/d): the number of Lyndon words of length n."""

    def mobius(d):
        sign, q = 1, 2
        while q * q <= d:
            if d % q == 0:
                d //= q
                if d % q == 0:
                    return 0
                sign = -sign
            q += 1
        return -sign if d > 1 else sign

    return sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_enumeration_matches_the_brute_force_scan():
    # the scan of all 2^n strings that Duval's algorithm replaced
    for max_len in range(1, 13):
        scan = sorted(
            w for n in range(1, max_len + 1) for w in all_words(n) if brute_force_lyndon(w)
        )
        assert lyndon_words(max_len) == tuple(scan), max_len
    words = lyndon_words(12)
    for n in range(1, 13):
        assert sum(len(w) == n for w in words) == witt_count(n), n
    assert [witt_count(n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]


def duval_lyndon_words(max_len: int) -> tuple[str, ...]:
    """Duval's algorithm (J. Algorithms 4, 1983), the reference enumeration.

    From a Lyndon word w, repeat w up to length ``max_len``, drop trailing
    1s and raise the last letter; the result is the next Lyndon word in
    lexicographic order, so no non-Lyndon word is visited.
    """
    found = []
    w = ["0"]
    while w:
        found.append("".join(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == "1":
            w.pop()
        if w:
            w[-1] = "1"
    return tuple(found)


def test_enumeration_matches_duval_to_length_20():
    for n in range(1, 21):
        duval = duval_lyndon_words(n)
        assert lyndon_words(n) == duval, n
        assert lyndon_words_of_length(n) == tuple(w for w in duval if len(w) == n), n
    assert len(duval) == sum(witt_count(n) for n in range(1, 21))


def test_count_at_length_5():
    expected = [w for w in all_words(5) if brute_force_lyndon(w)]
    assert len(expected) == 6
    assert list(lyndon_words_of_length(5)) == sorted(expected)


def test_enumeration_strictly_increasing():
    ws = lyndon_words(7)
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_standard_factorization_examples():
    assert standard_factorization("01") == ("0", "1")
    assert standard_factorization("001") == ("0", "01")
    assert standard_factorization("011") == ("01", "1")
    assert standard_factorization("0001") == ("0", "001")
    assert standard_factorization("0011") == ("0", "011")
    assert standard_factorization("0111") == ("011", "1")


def test_factorization_recombines_and_closes():
    members = set(lyndon_words(8))
    for w in lyndon_words(8):
        if len(w) < 2:
            continue
        u, v = standard_factorization(w)
        assert u + v == w
        assert u in members and v in members
        assert u < v


def test_tuples_factor_as_their_strings():
    for w in lyndon_words(8):
        if len(w) > 1:
            u, v = standard_factorization(w)
            assert standard_factorization(tuple(w)) == (tuple(u), tuple(v))
    assert standard_factorization((0, 2, 1)) == ((0, 2), (1,))
    with pytest.raises(InvalidWordError, match="is not a Lyndon word"):
        standard_factorization((1, 0))


def test_atoms_have_no_factorization():
    with pytest.raises(InvalidWordError):
        standard_factorization("0")

"""Lyndon words: recognition, enumeration by weight, standard factorization.

Words are plain ASCII strings over the alphabet {'0', '1'}.  Python's string
comparison is exactly the lexicographic order with 0 < 1 used throughout, with
a proper prefix smaller than the word itself.  Recognition and enumeration
also work for tuples over any totally ordered alphabet, such as bar words of
generator slots; one builder, :func:`lyndon_words_by_weight`, lists them all.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache


class InvalidWordError(ValueError):
    """Raised on empty words or words with letters outside {'0','1'}."""


def check_word(w: str) -> str:
    if not w:
        raise InvalidWordError("empty word")
    if any(c not in "01" for c in w):
        raise InvalidWordError(f"word {w!r} has letters outside {{0,1}}")
    return w


def is_lyndon_sequence(w: Sequence) -> bool:
    """True iff ``w`` is strictly smaller than all its nonempty proper right factors.

    Works for any sliceable sequence whose comparison is lexicographic with a
    proper prefix smaller than the word (strings, tuples over any totally
    ordered alphabet).  Single letters are Lyndon; the caller rules out the
    empty word.
    """
    return all(w < w[i:] for i in range(1, len(w)))


def is_lyndon(w: str) -> bool:
    """True iff the binary word ``w`` is Lyndon.

    Raises :class:`InvalidWordError` on empty input or letters outside {0,1}.
    """
    check_word(w)
    return is_lyndon_sequence(w)


def lyndon_words_by_weight(letters: Mapping, max_weight: int) -> dict:
    """The Lyndon words over weighted letters, {weight: [words]} for 1..``max_weight``.

    ``letters`` maps each one-letter word (a string or a tuple) to its weight.
    The Lyndon words of two or more letters are the uv for Lyndon u < v with
    u one letter or u's right factor at least v, each arising once (standard
    factorization; Lothaire, *Combinatorics on Words*, 5.1).  Lists unsorted.
    """
    # weight -> [(Lyndon word, its right factor v, None for one letter)]
    weights = range(1, max_weight + 1)
    built = {n: [(a, None) for a, m in letters.items() if m == n] for n in weights}
    for total in weights[1:]:
        out = built[total]
        for n in range(1, total):
            for u, right in built[n]:
                for v, _ in built[total - n]:
                    if u < v and (right is None or right >= v):
                        out.append((u + v, v))
    return {n: [w for w, _ in words] for n, words in built.items()}


@lru_cache(maxsize=None)
def lyndon_words(max_len: int) -> tuple[str, ...]:
    """All binary Lyndon words of length <= ``max_len``, in lexicographic order."""
    if max_len < 1:
        raise InvalidWordError("max_len must be >= 1")
    by_length = lyndon_words_by_weight({"0": 1, "1": 1}, max_len)
    return tuple(sorted(w for words in by_length.values() for w in words))


def lyndon_words_of_length(n: int) -> tuple[str, ...]:
    return tuple(w for w in lyndon_words(n) if len(w) == n)


@lru_cache(maxsize=None)
def standard_factorization(w: Sequence) -> tuple:
    """Split a Lyndon word of length >= 2 as ``w = u + v`` with ``v`` minimal.

    ``v`` is the lexicographically smallest proper right factor; both parts
    are again Lyndon and ``u < v``.  ``w`` is a binary string or a tuple over
    any totally ordered alphabet, sliced the same way.  Length-1 words have
    no factorization.
    """
    if isinstance(w, str):
        check_word(w)
    if len(w) < 2:
        raise InvalidWordError(f"no factorization for {w!r}: fewer than two letters")
    if not is_lyndon_sequence(w):
        raise InvalidWordError(f"{w!r} is not a Lyndon word")
    v = min(w[i:] for i in range(1, len(w)))
    u = w[: len(w) - len(v)]
    assert is_lyndon_sequence(u) and is_lyndon_sequence(v) and u < v
    return u, v

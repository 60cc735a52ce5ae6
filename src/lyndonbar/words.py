"""Binary Lyndon words: recognition, ordered enumeration, standard factorization.

Words are plain ASCII strings over the alphabet {'0', '1'}.  Python's string
comparison is exactly the lexicographic order with 0 < 1 used throughout, with
a proper prefix smaller than the word itself.  Recognition also works for
tuples over any totally ordered alphabet (:func:`is_lyndon_sequence`), such as
bar words of generator slots.
"""

from __future__ import annotations

from collections.abc import Sequence
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


@lru_cache(maxsize=None)
def lyndon_words(max_len: int) -> tuple[str, ...]:
    """All Lyndon words of length <= ``max_len``, in lexicographic order.

    Duval's algorithm (J. Algorithms 4, 1983): from a Lyndon word w, repeat
    w up to length ``max_len``, drop trailing 1s and raise the last letter;
    the result is the next Lyndon word, so no non-Lyndon word is visited.
    """
    if max_len < 1:
        raise InvalidWordError("max_len must be >= 1")
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

"""Free Lie algebra on X0, X1 over exact rationals, in the Lyndon bracket basis.

Two sparse representations are used side by side:

* ``WordPoly`` -- dict mapping noncommutative words (strings over '0'/'1') to
  coefficients; the ambient tensor algebra.
* ``LieElement`` -- dict mapping Lyndon words to coefficients; the
  coordinates in the Lyndon bracket basis.

The Lyndon brackets are a Z-basis of the free Lie ring, so the basis
elements, their expansions and the alpha table are built with int
coefficients.  The bracket of two basis elements is computed once, in the
word algebra, and cached; ``lie_bracket`` is bilinear over those cached
brackets.  The bracket expansion also serves Lyndon tuples over any
ordered alphabet, such as the slot sequences of bar words.  Every operation
sums its inputs' coefficients directly and works in their ring: int
coefficients in give ints out, and a Fraction coefficient in gives Fractions
out.  Zero coefficients are never stored.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .linalg import add_term, combine, in_ring_of
from .words import is_lyndon, is_lyndon_sequence, lyndon_words, standard_factorization

WordPoly = dict  # word -> int or Fraction
LieElement = dict  # Lyndon word -> int or Fraction


class NotALieElementError(ValueError):
    """Raised when a word polynomial is not in the span of Lyndon brackets."""


class TableInconsistencyError(AssertionError):
    """Raised when independently computed coefficient tables disagree."""


@lru_cache(maxsize=None)
def check_lyndon(w: str) -> str:
    """``w`` itself, once it is known to be a Lyndon word, cached.

    Raises :class:`NotALieElementError` for a binary word that is not Lyndon
    and :class:`InvalidWordError` for a word that is not binary, on every
    call: exceptions are not cached.
    """
    if not is_lyndon(w):
        raise NotALieElementError(f"{w!r} is not a Lyndon word")
    return w


@lru_cache(maxsize=None)
def _expand(w) -> tuple:
    """The expansion of [w] as sorted (word, coefficient) pairs, cached.

    ``w`` is a binary Lyndon word, or a Lyndon tuple over any totally ordered
    alphabet (such as a bar word's slots); both are split by their standard
    factorization and concatenated the same way.  A word that is not Lyndon
    raises on every call: exceptions are not cached.
    """
    if isinstance(w, str):
        check_lyndon(w)
    elif not w or not is_lyndon_sequence(w):
        raise NotALieElementError(f"{w!r} is not a Lyndon sequence")
    if len(w) == 1:
        return ((w, 1),)
    u, v = standard_factorization(w)
    return tuple(sorted(word_commutator(expand(u), expand(v)).items()))


def expand(w) -> WordPoly:
    """Noncommutative expansion of the Lyndon bracket [w], via [u, v] = uv - vu."""
    return dict(_expand(w))


def word_product(p: WordPoly, q: WordPoly) -> WordPoly:
    """Concatenation product in the word algebra."""
    out: WordPoly = {}
    for wp, cp in p.items():
        for wq, cq in q.items():
            add_term(out, wp + wq, cp * cq)
    return out


def word_commutator(p: WordPoly, q: WordPoly) -> WordPoly:
    return combine((1, word_product(p, q)), (-1, word_product(q, p)))


def lie_to_word_poly(e: LieElement) -> WordPoly:
    """The word polynomial of ``e``, in the ring of its coefficients."""
    out: WordPoly = {}
    for w, c in e.items():
        for wx, cx in _expand(w):
            out[wx] = out.get(wx, 0) + c * cx
    return in_ring_of(out, e)


def rewrite_in_lyndon(p: WordPoly) -> LieElement:
    """Coordinates of ``p`` in the Lyndon bracket basis, by triangular elimination.

    The lex-smallest word of expand(W) is W itself with coefficient 1, so
    repeatedly stripping the smallest support word terminates.  A nonzero
    remainder whose smallest word is not Lyndon means ``p`` is not a Lie
    element.  The result is in the ring of ``p``'s coefficients.
    """
    out: LieElement = {}
    by_weight: dict[int, WordPoly] = {}
    for w, c in p.items():
        add_term(by_weight.setdefault(len(w), {}), w, c)
    for rest in by_weight.values():
        while rest:
            w = min(rest)
            if not is_lyndon(w):
                raise NotALieElementError(f"support word {w!r} is not Lyndon")
            c = rest[w]
            out[w] = c
            for wx, cx in _expand(w):
                add_term(rest, wx, -c * cx)
    return in_ring_of(out, p)


@lru_cache(maxsize=None)
def _basis_bracket(u: str, v: str) -> tuple[tuple[str, int], ...]:
    """[[u], [v]] for Lyndon u and v as sorted (Lyndon word, int) pairs, cached.

    Computed once in the word algebra for u < v, as the commutator of the
    two expansions rewritten into the basis; [[v], [u]] is its negation and
    [[u], [u]] is empty.
    """
    if v < u:
        return tuple((w, -c) for w, c in _basis_bracket(v, u))
    if u == v:
        return ()
    return tuple(sorted(rewrite_in_lyndon(word_commutator(expand(u), expand(v))).items()))


def _bilinear(f: LieElement, g: LieElement, on_basis) -> LieElement:
    """sum f_U g_V on_basis(U, V), for ``on_basis`` a map from pairs of Lyndon
    words to (Lyndon word, int) tuples.

    Every key of ``f`` and ``g`` must be a Lyndon word.  The result is in
    the ring of their coefficients.
    """
    for w in (*f, *g):
        check_lyndon(w)
    if not f or not g:
        return {}
    out: LieElement = {}
    for u, cu in f.items():
        for v, cv in g.items():
            c = cu * cv
            for w, cw in on_basis(u, v):
                out[w] = out.get(w, 0) + c * cw
    return in_ring_of(out, f, g)


def lie_bracket(f: LieElement, g: LieElement) -> LieElement:
    """[f, g] = sum f_U g_V [[U],[V]], bilinear over the cached basis brackets."""
    return _bilinear(f, g, _basis_bracket)


def basis_element(w: str) -> LieElement:
    return {check_lyndon(w): 1}


@lru_cache(maxsize=None)
def alpha_table(max_weight: int) -> Mapping[tuple[str, str, str], int]:
    """Structure constants [[U],[V]] = sum_W alpha[W,U,V] [W], for Lyndon U < V.

    Covers all pairs with len(U) + len(V) <= max_weight; entries are ints
    (integrality asserted) and keyed (W, U, V) with zero entries absent.
    The cached table is returned as a read-only view.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    table: dict[tuple[str, str, str], int] = {}
    ws = lyndon_words(max_weight - 1)
    for u in ws:
        for v in ws:
            if u < v and len(u) + len(v) <= max_weight:
                for w, c in _basis_bracket(u, v):
                    if c.denominator != 1:
                        raise TableInconsistencyError(
                            f"alpha[{w},{u},{v}] = {c} is not an integer"
                        )
                    if len(w) != len(u) + len(v):
                        raise TableInconsistencyError(
                            f"alpha[{w},{u},{v}] breaks the weight grading"
                        )
                    table[(w, u, v)] = c
    return MappingProxyType(table)

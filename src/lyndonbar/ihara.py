"""Ihara special derivations, the Ihara bracket, and the semidirect Lie algebra.

A special derivation D_f sends X0 to 0 and X1 to [X1, f].  The semidirect sum
carries two copies of the free Lie algebra: the "x" copy with the free bracket
and the "1" copy with the Ihara bracket, glued by the action of special
derivations on the x copy.  D_[V]([U]) is computed once per pair of Lyndon
words, by Leibniz over the standard factorization of U from the cached
brackets, and cached; ``special_derivation`` is bilinear over those cached
values, summed on integer numerators over one denominator.  Every operation
works in the ring of its inputs; the beta and gamma tables are built from
int basis elements.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .freelie import (
    LieElement,
    TableInconsistencyError,
    _basis_bracket,
    _bilinear,
    basis_element,
    lie_bracket,
)
from .linalg import combine
from .words import lyndon_words, standard_factorization


@lru_cache(maxsize=None)
def _basis_derivation(v: str, u: str) -> tuple[tuple[str, int], ...]:
    """D_[v]([u]) for Lyndon v and u as sorted (Lyndon word, int) pairs, cached.

    By Leibniz over the standard factorization u = u1 u2, from cached
    brackets: D[u] = [D[u1], [u2]] + [[u1], D[u2]], D(X0) = 0 and
    D(X1) = [[1], [v]].
    """
    if u == "0":
        return ()
    if u == "1":
        return _basis_bracket("1", v)
    u1, u2 = standard_factorization(u)
    out = combine(
        (1, lie_bracket(dict(_basis_derivation(v, u1)), basis_element(u2))),
        (1, lie_bracket(basis_element(u1), dict(_basis_derivation(v, u2)))),
    )
    return tuple(sorted(out.items()))


def special_derivation(f: LieElement, g: LieElement) -> LieElement:
    """D_f(g) = sum f_V g_U D_[V]([U]): the derivation with D_f(X0) = 0, D_f(X1) = [X1, f].

    Bilinear over the cached derivations of basis pairs.
    """
    return _bilinear(f, g, _basis_derivation)


def ihara_bracket(f: LieElement, g: LieElement) -> LieElement:
    """{f, g} = [f, g] + D_f(g) - D_g(f)."""
    return combine(
        (1, lie_bracket(f, g)),
        (1, special_derivation(f, g)),
        (-1, special_derivation(g, f)),
    )


@dataclass(frozen=True)
class SemidirectElement:
    """Element of the semidirect sum: an x-copy part and a 1-copy part."""

    x_part: LieElement = field(default_factory=dict)
    one_part: LieElement = field(default_factory=dict)


def semidirect_bracket(a: SemidirectElement, b: SemidirectElement) -> SemidirectElement:
    """Bracket of the semidirect sum.

    Free bracket on x-parts, Ihara bracket on 1-parts, and cross terms
    {g(1), f(x)} = D_g(f)(x) = -{f(x), g(1)}.
    """
    x = combine(
        (1, lie_bracket(a.x_part, b.x_part)),
        (1, special_derivation(a.one_part, b.x_part)),
        (-1, special_derivation(b.one_part, a.x_part)),
    )
    one = ihara_bracket(a.one_part, b.one_part)
    return SemidirectElement(x_part=x, one_part=one)


def _integral(value: int, what: str) -> int:
    if value.denominator != 1:
        raise TableInconsistencyError(f"{what} = {value} is not an integer")
    return value


@lru_cache(maxsize=None)
def beta_gamma_tables(
    max_weight: int,
) -> tuple[Mapping[tuple[str, str, str], int], Mapping[tuple[str, str, str], int]]:
    """The beta and gamma structure-constant tables up to total weight ``max_weight``.

    beta[W,U,V] is read off from {[U](x), [V](1)} = -D_[V]([U]) over all ordered
    pairs (U, V), including U = V; gamma[W,U,V] from the Ihara bracket
    {[U](1), [V](1)} for U < V.  All entries are ints (integrality
    asserted).  The cached tables are returned as read-only views.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    beta: dict[tuple[str, str, str], int] = {}
    gamma: dict[tuple[str, str, str], int] = {}
    ws = lyndon_words(max_weight - 1)
    for u in ws:
        for v in ws:
            if len(u) + len(v) > max_weight:
                continue
            eu, ev = basis_element(u), basis_element(v)
            for w, c in special_derivation(ev, eu).items():
                beta[(w, u, v)] = _integral(-c, f"beta[{w},{u},{v}]")
            if u < v:
                for w, c in ihara_bracket(eu, ev).items():
                    gamma[(w, u, v)] = _integral(c, f"gamma[{w},{u},{v}]")
    return MappingProxyType(beta), MappingProxyType(gamma)

"""The graded-dual Lie coalgebra of the semidirect sum.

Basis tags are pairs ``(family, word)``:

* families ``"x"`` and ``"one"`` -- the basis dual to the Lyndon brackets of
  the x copy and the 1 copy ("x1" basis);
* families ``"t0"`` and ``"t1"`` -- the geometric basis ("t01" basis), related
  by t0_W = (x, W) and t1_W = (x, W) - (one, W).

Elements are dicts tag -> Fraction; wedge squares are dicts keyed by pairs of
tags in canonical order, with u ^ v = -v ^ u absorbed into the coefficient
(all tags sit in degree 0, so there is no Koszul correction).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .freelie import TableInconsistencyError, alpha_table
from .ihara import beta_gamma_tables
from .linalg import add_term
from .words import check_word, lyndon_words

Tag = tuple  # (family, word)
CoLieElement = dict  # Tag -> Fraction
WedgeElement = dict  # (Tag, Tag) canonical -> Fraction

_BASIS_OF_FAMILY = {"x": "x1", "one": "x1", "t0": "t01", "t1": "t01"}
_FAMILY_RANK = {"x": 0, "one": 1, "t0": 0, "t1": 1}

ONE = Fraction(1)


class MixedBasisError(ValueError):
    """Raised when one element mixes x1-basis and t01-basis tags."""


def tag(family: str, word: str) -> Tag:
    if family not in _BASIS_OF_FAMILY:
        raise ValueError(f"unknown tag family {family!r}")
    check_word(word)
    if word not in lyndon_words(len(word)):
        raise ValueError(f"{word!r} is not a Lyndon word")
    return (family, word)


def basis_of(t: CoLieElement) -> str | None:
    """The basis flag shared by all tags of ``t`` (None for the zero element)."""
    found = {_BASIS_OF_FAMILY[fam] for fam, _ in t}
    if len(found) > 1:
        raise MixedBasisError(f"element mixes bases: {sorted(found)}")
    return found.pop() if found else None


def _tag_key(t: Tag):
    fam, word = t
    return (_FAMILY_RANK[fam], word)


def wedge_add(out: WedgeElement, a: Tag, b: Tag, coeff: Fraction) -> None:
    """Accumulate coeff * (a ^ b) into ``out`` in canonical pair order."""
    if not coeff:
        return
    ka, kb = _tag_key(a), _tag_key(b)
    if ka == kb:
        return
    if ka < kb:
        add_term(out, (a, b), coeff)
    else:
        add_term(out, (b, a), -coeff)


def wedge_coefficient(w: WedgeElement, a: Tag, b: Tag) -> Fraction:
    """Signed coefficient of a ^ b in ``w``."""
    ka, kb = _tag_key(a), _tag_key(b)
    if ka == kb:
        return Fraction(0)
    if ka < kb:
        return w.get((a, b), Fraction(0))
    return -w.get((b, a), Fraction(0))


def change_basis(t: CoLieElement, target: str) -> CoLieElement:
    """Invertible change between the x1 and t01 bases (round trip is identity)."""
    if target not in ("x1", "t01"):
        raise ValueError(f"unknown basis {target!r}")
    source = basis_of(t)
    if source is None or source == target:
        return dict(t)
    out: CoLieElement = {}
    for (fam, word), c in t.items():
        for image_tag, ic in _tag_image(fam, word, target):
            add_term(out, image_tag, c * ic)
    return out


def _tag_image(fam: str, word: str, target: str):
    if target == "x1":
        if fam == "t0":
            return ((("x", word), ONE),)
        return ((("x", word), ONE), (("one", word), -ONE))
    if fam == "x":
        return ((("t0", word), ONE),)
    return ((("t0", word), ONE), (("t1", word), -ONE))


def _wedge_change_basis(w: WedgeElement, target: str) -> WedgeElement:
    out: WedgeElement = {}
    for (a, b), c in w.items():
        for ia, ca in _tag_image(a[0], a[1], target):
            for ib, cb in _tag_image(b[0], b[1], target):
                wedge_add(out, ia, ib, c * ca * cb)
    return out


@lru_cache(maxsize=None)
def _x1_tag_cobracket(fam: str, word: str) -> tuple:
    if len(word) < 2:
        return ()
    out: WedgeElement = {}
    alpha = alpha_table(len(word))
    beta, gamma = beta_gamma_tables(len(word))
    if fam == "x":
        for (w, u, v), a in alpha.items():
            if w == word:
                wedge_add(out, ("x", u), ("x", v), a)
        for (w, u, v), b in beta.items():
            if w == word:
                wedge_add(out, ("x", u), ("one", v), b)
    else:
        for (w, u, v), g in gamma.items():
            if w == word:
                wedge_add(out, ("one", u), ("one", v), g)
    return tuple(sorted(out.items()))


def cobracket(t: CoLieElement) -> WedgeElement:
    """The cobracket d_cy, returned in the basis the input is written in.

    In the x1 basis the tag (x, W) maps to
    ``sum_{U<V} alpha[W,U,V] (x,U)^(x,V) + sum_{U,V} beta[W,U,V] (x,U)^(one,V)``
    (the beta sum over all ordered pairs, including U = V) and (one, W) maps to
    ``sum_{U<V} gamma[W,U,V] (one,U)^(one,V)``.  Weight-1 tags are closed.
    """
    source = basis_of(t)
    if source is None:
        return {}
    work = change_basis(t, "x1") if source == "t01" else t
    out: WedgeElement = {}
    for (fam, word), c in work.items():
        for pair, w_coeff in _x1_tag_cobracket(fam, word):
            add_term(out, pair, c * w_coeff)
    if source == "t01":
        return _wedge_change_basis(out, "t01")
    return out


def tensor_cobracket(t: CoLieElement) -> dict:
    """The cobracket as an antisymmetric tensor: u ^ v contributes u@v - v@u.

    This normalization is the one dual to the bracket: the coefficient of a
    basis pair a @ b equals the structure constant of the bracket on the dual
    basis pair.
    """
    out: dict = {}
    for (a, b), c in cobracket(t).items():
        add_term(out, (a, b), c)
        add_term(out, (b, a), -c)
    return out


def co_jacobi_defect(t: CoLieElement) -> dict:
    """(id + xi + xi^2) o (delta @ id) o delta, as a tensor-cube dict; 0 certifies co-Jacobi."""
    two = tensor_cobracket(t)
    cube: dict = {}
    for (a, b), c in two.items():
        for (u, v), d in tensor_cobracket({a: ONE}).items():
            add_term(cube, (u, v, b), c * d)
    out: dict = {}
    for (x, y, z), c in cube.items():
        add_term(out, (x, y, z), c)
        add_term(out, (y, z, x), c)  # xi
        add_term(out, (z, x, y), c)  # xi^2
    return out


def _closed_ab_tables(max_weight: int):
    alpha = alpha_table(max_weight)
    beta, _ = beta_gamma_tables(max_weight)
    words = lyndon_words(max_weight)
    a: dict = {}
    b: dict = {}
    ap: dict = {}
    bp: dict = {}
    zero = Fraction(0)
    for w in words:
        if len(w) < 2:
            continue
        for u in lyndon_words(len(w) - 1):
            for v in lyndon_words(len(w) - 1):
                if len(u) + len(v) != len(w):
                    continue
                bval = beta.get((w, v, u), zero)
                if bval:
                    b[(w, u, v)] = bval
                if u < v:
                    aval = (
                        alpha.get((w, u, v), zero)
                        + beta.get((w, u, v), zero)
                        - beta.get((w, v, u), zero)
                    )
                    if aval:
                        a[(w, u, v)] = aval
                        ap[(w, u, v)] = -aval
    for w in words:
        if len(w) < 2:
            continue
        for u in lyndon_words(len(w) - 1):
            for v in lyndon_words(len(w) - 1):
                if len(u) + len(v) != len(w):
                    continue
                zero_a = Fraction(0)
                if u < v:
                    val = a.get((w, u, v), zero_a) + b.get((w, u, v), zero_a)
                elif v < u:
                    val = -a.get((w, v, u), zero_a) + b.get((w, u, v), zero_a)
                else:
                    val = b.get((w, u, u), zero_a)
                if val:
                    bp[(w, u, v)] = val
    return a, b, ap, bp


def _extracted_ab_tables(max_weight: int):
    a: dict = {}
    b: dict = {}
    ap: dict = {}
    bp: dict = {}
    for w in lyndon_words(max_weight):
        if len(w) < 2:
            continue
        sub = lyndon_words(len(w) - 1)
        pairs = [
            (u, v) for u in sub for v in sub if len(u) + len(v) == len(w)
        ]
        d0 = cobracket({("t0", w): ONE})
        d1 = cobracket({("t1", w): ONE})
        rebuilt0: WedgeElement = {}
        rebuilt1: WedgeElement = {}
        for u, v in pairs:
            if u < v:
                c = wedge_coefficient(d0, ("t0", u), ("t0", v))
                if c:
                    a[(w, u, v)] = c
                    wedge_add(rebuilt0, ("t0", u), ("t0", v), c)
                c = wedge_coefficient(d1, ("t1", u), ("t1", v))
                if c:
                    ap[(w, u, v)] = c
                    wedge_add(rebuilt1, ("t1", u), ("t1", v), c)
            c = wedge_coefficient(d0, ("t1", u), ("t0", v))
            if c:
                b[(w, u, v)] = c
                wedge_add(rebuilt0, ("t1", u), ("t0", v), c)
            c = wedge_coefficient(d1, ("t1", u), ("t0", v))
            if c:
                bp[(w, u, v)] = c
                wedge_add(rebuilt1, ("t1", u), ("t0", v), c)
        if rebuilt0 != d0 or rebuilt1 != d1:
            raise TableInconsistencyError(
                f"cobracket of weight-{len(w)} tags has terms outside the "
                "expected wedge families"
            )
    return a, b, ap, bp


@lru_cache(maxsize=None)
def ab_tables(max_weight: int):
    """The a, b, a', b' tables, double-sourced and cross-checked.

    Computed once by the closed formulas in terms of alpha and beta, and once
    by expressing the cobracket in the t01 basis and extracting coefficients;
    any disagreement raises TableInconsistencyError.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    closed = _closed_ab_tables(max_weight)
    extracted = _extracted_ab_tables(max_weight)
    names = ("a", "b", "a'", "b'")
    for name, lhs, rhs in zip(names, closed, extracted):
        if lhs != rhs:
            diff = {
                k: (lhs.get(k), rhs.get(k))
                for k in set(lhs) | set(rhs)
                if lhs.get(k) != rhs.get(k)
            }
            raise TableInconsistencyError(
                f"table {name}: closed formula and basis-change extraction "
                f"disagree at {sorted(diff)[:5]}"
            )
    return closed


def coefficient_table(family: str, max_weight: int) -> dict:
    """One structure-constant table by name: alpha, beta, gamma, a, b, aprime or bprime."""
    if family == "alpha":
        return alpha_table(max_weight)
    if family in ("beta", "gamma"):
        beta, gamma = beta_gamma_tables(max_weight)
        return beta if family == "beta" else gamma
    a, b, ap, bp = ab_tables(max_weight)
    return {"a": a, "b": b, "aprime": ap, "bprime": bp}[family]

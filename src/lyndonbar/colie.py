"""The graded-dual Lie coalgebra of the semidirect sum.

Basis tags are pairs ``(family, word)``:

* families ``"x"`` and ``"one"`` -- the basis dual to the Lyndon brackets of
  the x copy and the 1 copy ("x1" basis);
* families ``"t0"`` and ``"t1"`` -- the geometric basis ("t01" basis), related
  by t0_W = (x, W) and t1_W = (x, W) - (one, W).

Elements are dicts tag -> coefficient; wedge squares are dicts keyed by pairs
of tags in canonical order, with u ^ v = -v ^ u absorbed into the coefficient
(all tags sit in degree 0, so there is no Koszul correction).  The structure
constants are integers, so the tables and the cobracket of a basis tag are
built with int coefficients; every operation works in the ring of its
inputs, and Fraction coefficients in give Fraction coefficients out.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .freelie import TableInconsistencyError, alpha_table, check_lyndon
from .ihara import beta_gamma_tables
from .linalg import add_term
from .words import lyndon_words, lyndon_words_of_length

Tag = tuple  # (family, word)
CoLieElement = dict  # Tag -> int or Fraction
WedgeElement = dict  # (Tag, Tag) canonical -> int or Fraction

_BASIS_OF_FAMILY = {"x": "x1", "one": "x1", "t0": "t01", "t1": "t01"}
_FAMILY_RANK = {"x": 0, "one": 1, "t0": 0, "t1": 1}
# the printed form FAMILY:WORD of a tag, as the command line reads and writes it
TAG_PREFIX = {"t0": "T0", "t1": "T1", "x": "Tx", "one": "T@1"}
# the structure-constant tables that coefficient_table and coefficient_rows serve
TABLE_NAMES = ("alpha", "beta", "gamma", "a", "b", "aprime", "bprime")


class MixedBasisError(ValueError):
    """Raised when one element mixes x1-basis and t01-basis tags."""


def basis_of(t: CoLieElement) -> str | None:
    """The basis flag shared by all tags of ``t`` (None for the zero element).

    A tag of an unknown family raises ValueError.
    """
    try:
        found = {_BASIS_OF_FAMILY[fam] for fam, _ in t}
    except KeyError as exc:
        raise ValueError(
            f"unknown tag family {exc.args[0]!r}; expected one of {', '.join(_BASIS_OF_FAMILY)}"
        ) from None
    if len(found) > 1:
        raise MixedBasisError(f"element mixes bases: {sorted(found)}")
    return found.pop() if found else None


def _tag_key(t: Tag):
    fam, word = t
    return (_FAMILY_RANK[fam], word)


def wedge_add(out: WedgeElement, a: Tag, b: Tag, coeff: int | Fraction) -> None:
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


def change_basis(t: CoLieElement, target: str) -> CoLieElement:
    """Invertible change between the x1 and t01 bases (round trip is identity).

    A tag whose word is not Lyndon raises NotALieElementError (InvalidWordError
    for a word that is not binary), as in :func:`cobracket`.
    """
    if target not in ("x1", "t01"):
        raise ValueError(f"unknown basis {target!r}")
    source = basis_of(t)
    for _, word in t:
        check_lyndon(word)
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
            return ((("x", word), 1),)
        return ((("x", word), 1), (("one", word), -1))
    if fam == "x":
        return ((("t0", word), 1),)
    return ((("t0", word), 1), (("t1", word), -1))


def _wedge_change_basis(w: WedgeElement, target: str) -> WedgeElement:
    out: WedgeElement = {}
    for (a, b), c in w.items():
        for ia, ca in _tag_image(a[0], a[1], target):
            for ib, cb in _tag_image(b[0], b[1], target):
                wedge_add(out, ia, ib, c * ca * cb)
    return out


@lru_cache(maxsize=None)
def _x1_tag_cobracket(fam: str, word: str) -> tuple:
    # a word that is not Lyndon names no tag, and raises on every call
    if len(check_lyndon(word)) < 2:
        return ()
    # (table, left family, right family): table[W, U, V] * (left, U) ^ (right, V)
    terms = (("alpha", "x", "x"), ("beta", "x", "one")) if fam == "x" else (("gamma", "one", "one"),)
    out: WedgeElement = {}
    for table, left, right in terms:
        for u, v, c in coefficient_rows(table, len(word)).get(word, ()):
            wedge_add(out, (left, u), (right, v), c)
    return tuple(sorted(out.items()))


def cobracket(t: CoLieElement) -> WedgeElement:
    """The cobracket d_cy, returned in the basis the input is written in.

    In the x1 basis the tag (x, W) maps to
    ``sum_{U<V} alpha[W,U,V] (x,U)^(x,V) + sum_{U,V} beta[W,U,V] (x,U)^(one,V)``
    (the beta sum over all ordered pairs, including U = V) and (one, W) maps to
    ``sum_{U<V} gamma[W,U,V] (one,U)^(one,V)``.  Weight-1 tags are closed.
    A tag whose word is not Lyndon raises NotALieElementError (InvalidWordError
    for a word that is not binary), and one of an unknown family ValueError.
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
        for (u, v), d in tensor_cobracket({a: 1}).items():
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
    a: dict = {}
    b: dict = {}
    ap: dict = {}
    bp: dict = {}
    for w in lyndon_words(max_weight):
        if len(w) < 2:
            continue
        for u in lyndon_words(len(w) - 1):
            for v in lyndon_words_of_length(len(w) - len(u)):
                bval = beta.get((w, v, u), 0)
                if bval:
                    b[(w, u, v)] = bval
                # a of the unordered pair (0 for u = v): b' is b + a for u < v, b - a otherwise
                lo, hi = sorted((u, v))
                aval = alpha.get((w, lo, hi), 0) + beta.get((w, lo, hi), 0) - beta.get((w, hi, lo), 0)
                if u < v and aval:
                    a[(w, u, v)] = aval
                    ap[(w, u, v)] = -aval
                bpval = bval + aval if u < v else bval - aval
                if bpval:
                    bp[(w, u, v)] = bpval
    return a, b, ap, bp


def _extracted_ab_tables(max_weight: int):
    """a, b, a', b' read off the t01 cobracket of each tag, term by term.

    In the cobracket of (fam, W), fam^fam at (U, V) is a (t0) or a' (t1) at
    (W, U, V), and t0_U ^ t1_V is -b (t0) or -b' (t1) at (W, V, U).
    """
    a: dict = {}
    b: dict = {}
    ap: dict = {}
    bp: dict = {}
    for w in lyndon_words(max_weight):
        if len(w) < 2:
            continue
        for fam, same, mixed in (("t0", a, b), ("t1", ap, bp)):
            for ((fu, u), (fv, v)), c in cobracket({(fam, w): 1}).items():
                if fu == fv == fam:
                    same[(w, u, v)] = c
                elif fu != fv:
                    mixed[(w, v, u)] = -c
                else:
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
    any disagreement raises TableInconsistencyError.  The cached tables are
    returned as read-only views.
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
    return tuple(MappingProxyType(table) for table in closed)


def coefficient_table(family: str, max_weight: int) -> Mapping:
    """One structure-constant table by name, one of ``TABLE_NAMES``."""
    if family not in TABLE_NAMES:
        raise ValueError(f"unknown table {family!r}; expected one of {', '.join(TABLE_NAMES)}")
    if family == "alpha":
        return alpha_table(max_weight)
    if family in ("beta", "gamma"):
        beta, gamma = beta_gamma_tables(max_weight)
        return beta if family == "beta" else gamma
    a, b, ap, bp = ab_tables(max_weight)
    return {"a": a, "b": b, "aprime": ap, "bprime": bp}[family]


@lru_cache(maxsize=None)
def coefficient_rows(family: str, max_weight: int) -> Mapping:
    """One table's entries by word: W -> ((U, V, c), ...), in table order.

    A word with no entry is absent.  Cached per table and weight, and
    read-only: the mapping is a view and each word's rows are a tuple.
    """
    rows: dict = {}
    for (w, u, v), c in coefficient_table(family, max_weight).items():
        rows.setdefault(w, []).append((u, v, c))
    return MappingProxyType({w: tuple(r) for w, r in rows.items()})

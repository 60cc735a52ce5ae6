"""Closed degree-0 bar lifts of the cycle families, and their verification.

Planar rooted trivalent trees drive the tree cobracket; averaging it over
trees with stated per-degree constants and projecting with the Hain projector
realizes the adjunction unit.  It reads each model generator's quadratic
differential as the dual cobracket and lifts the generator to a closed bar
element whose tensor-degree-1 part is that generator.  An independent exact
linear solver produces the same lifts from their defining properties alone;
the published normalization of the unit formula is treated as a hypothesis
and audited against both closedness and the solver.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product, takewhile
from types import MappingProxyType

from .bar import (
    BarElement,
    BarTensor,
    InvalidElementError,
    _lcm_upto,
    _slot,
    bar_differential,
    delta_Q,
    differential_numerators,
    hain_projector,
    pi1,
    projector_numerators,
    wedge_numerators,
)
from .colie import coefficient_rows
from .dgcore import (
    QUADRATIC_TERMS,
    CdgaPresentation,
    geom_projection_images,
    i1_fiber_images,
    j_restriction_images,
    model_a1,
    model_geom,
    model_point,
    model_x,
    transport,
)
from .freelie import expand
from .linalg import add_term, combine, from_numerators, solve_affine, to_numerators
from .words import (
    InvalidWordError,
    is_lyndon,
    is_lyndon_sequence,
    lyndon_words,
    lyndon_words_by_weight,
    lyndon_words_of_length,
)


class InfeasibleLiftError(ValueError):
    """Raised when no closed, projector-fixed lift with the prescribed
    tensor-degree-1 part exists; must not happen on uncorrupted models."""


# ---------------------------------------------------------------------------
# planar rooted trivalent trees (equivalently planar binary trees)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple:
    """All planar rooted trivalent trees with ``n`` leaves, C(n-1) of them.

    A leaf is None and an internal vertex is the pair (left, right).
    """
    if n < 1:
        raise ValueError("a tree has at least one leaf")
    if n == 1:
        return (None,)
    out = []
    for k in range(1, n):
        for left in enumerate_trees(k):
            for right in enumerate_trees(n - k):
                out.append((left, right))
    return tuple(out)


# ---------------------------------------------------------------------------
# lift variants: generator family and model


@dataclass(frozen=True)
class VariantSpec:
    prefix: str  # generator family in the target model
    model: object  # max_weight -> CdgaPresentation


VARIANTS = {
    "plain": VariantSpec("L0", model_x),
    "one": VariantSpec("L1", model_x),
    "diff": VariantSpec("M", model_a1),
    "const": VariantSpec("K", model_x),
    "point": VariantSpec("N", model_point),
}


def _variant(variant: str) -> VariantSpec:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}")
    return VARIANTS[variant]


# ---------------------------------------------------------------------------
# the adjunction unit and its per-degree constants


def published_constants(n: int) -> Fraction:
    """The published normalization 1 / (n * C(n-1) * 2^n) of the unit formula."""
    return Fraction(1, n * catalan(n - 1) * 2**n)


@lru_cache(maxsize=None)
def _tree_sum(builder, gen: str, n: int) -> tuple:
    """The sum of the tree cobrackets of ``gen`` over all trees with n leaves.

    The cobracket is the differential of ``builder(|gen|)``: d(gen) =
    sum c * x y gives delta(gen) = sum -c * (x @ y - y @ x).  A tree splits
    at its root into trees with k and n - k leaves, so with (a, b): c the
    terms of delta(gen), S(gen, n) = sum_{(a, b)} c * sum_{k=1}^{n-1}
    S(a, k) @ S(b, n - k); a builder's models are nested truncations, so
    every model of it with ``gen`` gives the same sum.  Returns the bar
    words of one-generator slots with their coefficients, sorted; the
    coefficients are those of the model's differential multiplied as they
    are, so ints for every model of the package.
    """
    if n == 1:
        return ((((gen,),), 1),)
    model = builder(len(gen.split("_", 1)[1]))  # gen is prefix_W, of weight |W|
    out: dict = {}
    for (x, y), c in model.differential[gen].items():
        for a, b, cab in ((x, y, -c), (y, x, c)):
            for k in range(1, n):
                for ka, ca in _tree_sum(builder, a, k):
                    for kb, cb in _tree_sum(builder, b, n - k):
                        add_term(out, ka + kb, cab * ca * cb)
    return tuple(sorted(out.items()))


def adjunction_unit(W: str, variant: str, constants=published_constants) -> BarElement:
    """phi(prefix_W): Hain projection of the constant-weighted tree-cobracket sum.

    Over the variant's model at weight |W|, whose generator prefix_W is the
    source.  ``constants`` maps the tensor degree n to the coefficient of the
    sum over all trees with n leaves; the series truncates at n = |W|.  The
    result need not be closed for arbitrary constants; callers decide what to
    do with a nonzero bar differential.
    """
    spec = _variant(variant)
    model = spec.model(len(W))
    gen = f"{spec.prefix}_{W}"
    if gen not in model.index:
        raise ValueError(f"{gen} is not a generator of {model.name}")
    byn = [(n, constants(n)) for n in range(1, len(W) + 1)]
    # the tree sums in integers over the constants' common denominator; a
    # tree sum's words have n slots, so no two degrees share a word
    den = math.lcm(*(cn.denominator for _, cn in byn))
    total: dict = {}
    for n, cn in byn:
        if cn:
            scale = cn.numerator * (den // cn.denominator)
            for word, d in _tree_sum(spec.model, gen, n):
                total[word] = scale * d
    denom = _lcm_upto(len(W))
    return from_numerators(projector_numerators(total, model, denom), den * denom)


@lru_cache(maxsize=None)
def solve_unit_constants(max_weight: int) -> tuple | None:
    """Per-degree constants making the unit formula closed, solved exactly.

    Normalizes c_1 = 1 (forced by the tensor-degree-1 property) and solves
    the linear system expressing d_B(phi(g)) = 0 for every source generator
    L0_w and L1_w of weight 2..max_weight.  phi(g) is p of the constant-
    weighted tree sums and p is a chain map, so a source's rows are those of
    p(d_B(sum_n c_n S(g, n))) = 0, read from :func:`_unit_rows`.  Returns a
    tuple (c_1, ..., c_max_weight), or None if no per-degree constants exist.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    variables = list(range(2, max_weight + 1))

    def equations():
        # one source's rows at a time, so the solve stops building tree sums
        # at the first source that makes the system inconsistent
        for w in lyndon_words(max_weight):
            if len(w) < 2:
                continue
            for gen in (f"L0_{w}", f"L1_{w}"):
                for row in _unit_rows(gen):
                    byn = dict(row)
                    yield byn, {"closed": -byn.pop(1, 0)}

    solutions, _ = solve_affine(equations(), variables, labels=["closed"])
    if solutions is None:
        return None
    solution = solutions["closed"]
    return (1,) + tuple(solution.get(n, 0) for n in variables)


@lru_cache(maxsize=None)
def _unit_rows(gen: str) -> tuple:
    """The closedness rows of the source ``gen``, read-only.

    The rows of p(d_B(sum_n c_n S(gen, n))) = 0, built by
    :func:`_closedness_rows` over ``model_x(|gen|)``, each a tuple of
    (n, integer) pairs.  The tree sums and their boundaries reach only
    generators of weight at most |gen|, and the models are nested
    truncations, so a probe of any larger weight has the same rows; the
    tree sums are the ones :func:`adjunction_unit` reads for ``gen``.
    """
    weight = len(gen.split("_", 1)[1])
    model = model_x(weight)
    parts = ((n, dict(_tree_sum(model_x, gen, n))) for n in range(1, weight + 1))
    return tuple(tuple(row.items()) for row in _closedness_rows(parts, model))


def _closedness_rows(parts, model: CdgaPresentation) -> list:
    """The rows of p(d_B(sum_k x_k part_k)) = 0, as pairings with Lyndon brackets.

    ``parts`` yields ``(k, part)`` pairs of integer elements of degree 0, and
    each part's d_B is taken once.  Every word of it has one odd slot, the
    one the differential or the product wrote, so p acts on it without
    Koszul signs, as the dual of the ungraded first Eulerian idempotent; its
    kernel is then the proper shuffles, the orthogonal complement of the
    free Lie algebra on the slots (Ree).  So p(y) = 0 iff <y, P_L> = 0 for
    the Lyndon brackets P_L of every content y has, and the row of L maps k
    to <d_B(part_k), P_L>, in the ring of d_B's coefficients (ints over an
    integral model).  The rows come in the order their L first appear, and
    a row that cancels to zero is left out.  Raises :class:`ValueError` on a
    boundary word with more than one odd slot.
    """
    rows: dict = {}
    pairings: dict = {}  # boundary word -> ((row key, <word, P_L>), ...)
    odd: dict = {}  # slot -> the parity of its desuspended degree
    for k, part in parts:
        for word, c in differential_numerators(part, model).items():
            entry = pairings.get(word)
            if entry is None:
                for m in word:
                    if m not in odd:
                        odd[m] = (model.monomial_degree(m) - 1) % 2
                if sum(map(odd.__getitem__, word)) > 1:
                    raise ValueError(f"the bar word {word!r} has more than one odd slot")
                entry = pairings[word] = _word_pairings(word)
            letters, _, pairs = entry
            for L, v in pairs:
                row = rows.setdefault((letters, L), {})
                row[k] = row.get(k, 0) + c * v
    return [r for r in ({k: v for k, v in row.items() if v} for row in rows.values()) if r]


def _word_pairings(word) -> tuple:
    """A bar word's content and its nonzero <word, P_L>: (letters, content, ((L, v), ...)).

    The letters are the word's distinct slots, sorted and coded by their
    rank; the content is the word's codes sorted, and each L is in codes.
    """
    letters = sorted(set(word))
    # a word has few distinct slots, so a scan of them is the cheapest rank
    codes = tuple(map(letters.index, word))
    content = tuple(sorted(codes))
    return tuple(letters), content, _lyndon_pairings(content).get(codes, ())


@lru_cache(maxsize=None)
def _lyndon_pairings(content: tuple) -> Mapping:
    """Each word of a content paired with the Lyndon brackets of that content.

    ``content`` is a sorted tuple of letter codes.  Maps each word over it
    to its ((L, <word, P_L>), ...) pairs, nonzero, L running over the
    Lyndon arrangements of ``content`` in increasing order; a word that no
    P_L holds is absent.  The cached index is read-only.
    """
    index: dict = {}
    for L in _arrangements(content):
        if is_lyndon_sequence(L):
            for word, c in expand(L).items():
                index.setdefault(word, []).append((L, c))
    return MappingProxyType({w: tuple(pairs) for w, pairs in index.items()})


def _arrangements(content: tuple):
    """The distinct arrangements of a sorted tuple, in increasing order.

    Each is the next permutation of the one before (Knuth, TAOCP 7.2.1.2,
    algorithm L), which steps over the orderings of repeated letters.
    """
    a = list(content)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[: j : -1]


def _lyndon_coordinates(b, model: CdgaPresentation) -> dict:
    """The Lyndon coordinates of an integer element whose every slot is even.

    With no odd slot p is the dual of the first Eulerian idempotent e1, and
    e1 fixes every Lyndon bracket P_L, so <p(b), P_L> = <b, P_L>; by Ree's
    theorem p(z) = 0 iff every <z, P_L> = 0.  So p(b) = p(sum c_L L), where
    the Lyndon coordinates c_L solve sum_{L'} c_{L'} <L', P_L> = <b, P_L>
    within each content, the multiset of slots.  P_L is L plus larger words,
    so the system is unitriangular, and it is solved in integers from the
    largest L down, and only those Lyndon words need reach p.  Returns
    {L: c_L}, nonzero.  Zero coefficients are skipped; every other word's
    slots are read through ``_slot`` first, and an odd slot raises
    :class:`ValueError`.
    """
    if b.get(()):
        raise InvalidElementError("empty-word component present")
    # each distinct slot of a nonzero term, read once; all are read before
    # an odd one is refused
    odd = [m for m in set().union(*(w for w, c in b.items() if c)) if _slot(model, m)[0]]
    if odd:
        raise ValueError(f"the bar slot {min(odd)!r} is odd")
    # (letters, content) -> {L: <b, P_L> less what larger L' pair}
    by_content: dict = {}
    for word, c in b.items():
        if c:
            letters, content, pairs = _word_pairings(word)
            if pairs:
                rhs = by_content.setdefault((letters, content), {})
                for L, v in pairs:
                    rhs[L] = rhs.get(L, 0) + c * v
    coordinates: dict = {}
    for (letters, content), rhs in by_content.items():
        index = _lyndon_pairings(content)
        while rhs:
            L = max(rhs)
            c = rhs.pop(L)
            if c:
                coordinates[tuple(map(letters.__getitem__, L))] = c
                for smaller, v in index[L]:
                    if smaller != L:
                        rhs[smaller] = rhs.get(smaller, 0) - c * v
    return coordinates


# ---------------------------------------------------------------------------
# the independent oracle: exact solve for the defining properties


def _lyndon_slot_words(model: CdgaPresentation, weight: int) -> list:
    """The Lyndon bar words of the given weight over one-generator slots, by :func:`_slice_order`."""
    letters = {((g.name,),): g.weight for g in model.generators}
    # the builder's list is sorted, so a stable sort by length gives that order
    return sorted(lyndon_words_by_weight(letters, weight)[weight], key=len)


def _slice_order(word) -> tuple:
    """Bar words by tensor length, then lexicographically."""
    return len(word), word


@lru_cache(maxsize=None)
def _oracle_solve(model: CdgaPresentation, weight: int) -> tuple:
    """One exact solve for every closed lift of the given weight over ``model``.

    The unknowns are the coefficients c_l of p(l), for l the Lyndon words
    among the weight-``weight`` bar words of single-generator slots: every
    such slot has desuspended degree 0, so the shuffle there carries no signs,
    the shuffle algebra is free on Lyndon words (Radford), and the p(l) form a
    basis of the image of Hain's projector p.  So only the tensor-degree-1
    rows (one label per generator of this weight, c_g = 1 for its own label)
    and the closedness rows d_B(sum c_l p(l)) = 0 remain.  p is a chain map,
    so those are the rows of p(d_B(sum c_l l)) = 0, which
    :func:`_closedness_rows` builds in integers as pairings of each d_B(l)
    with the Lyndon brackets, without p.

    Returns ``(solutions, n_free)``: per generator name, the nonzero
    coefficients c_l from :func:`solve_affine`, keyed by l (None where that
    generator has no lift), and the dimension of each solution space.
    """
    lyndon = _lyndon_slot_words(model, weight)
    labels = [w[0][0] for w in lyndon if len(w) == 1]  # the generators of this weight
    equations = [({((g,),): 1}, {g: 1}) for g in labels]
    rows = _closedness_rows(((w, {w: 1}) for w in lyndon), model)
    equations.extend((row, {}) for row in rows)
    solutions, n_free = solve_affine(equations, lyndon, labels=labels)
    return solutions or {}, n_free


def closed_lift_oracle(
    W: str, variant: str, model: CdgaPresentation | None = None
) -> tuple[BarElement, int]:
    """Solve for a lift with the prescribed degree-1 part, closed and Hain-fixed.

    Works in the finite weight-|W|, bar-degree-0 slice of the bar construction
    over the variant's model; returns one solution (free variables zeroed, so
    deterministic) together with the dimension of the solution affine space.
    The solve, shared by every target of that weight and model, keeps only the
    nonzero c_l, which go to :func:`hain_projector` as they are; each call
    returns a new dict.
    """
    spec = _variant(variant)
    if len(W) < 2:
        raise ValueError("lifts start at weight 2")
    if model is None:
        model = spec.model(len(W))
    target = f"{spec.prefix}_{W}"
    if model.weight.get(target) != len(W):
        raise ValueError(f"{target} is not a generator of {model.name}")
    solutions, n_free = _oracle_solve(model, len(W))
    coefficients = solutions.get(target)
    if coefficients is None:
        raise InfeasibleLiftError(
            f"no closed projector-fixed lift of {target} exists"
        )
    # sum c_l p(l) = p(sum c_l l)
    element = hain_projector(coefficients, model)
    return {w: element[w] for w in sorted(element, key=_slice_order)}, n_free


# ---------------------------------------------------------------------------
# lift production and the four defining properties


@dataclass(frozen=True)
class LiftReport:
    word: str
    variant: str
    method: str
    pi1_ok: bool = False
    hain_fixed: bool = False
    degree_zero: bool = False
    closed: bool = False
    cobracket_ok: bool = False
    affine_dim: int | None = None
    notes: tuple = ()

    @property
    def all_ok(self) -> bool:
        return (
            self.pi1_ok
            and self.hain_fixed
            and self.degree_zero
            and self.closed
            and self.cobracket_ok
        )


def table_wedge(W: str, prefix: str, model: CdgaPresentation, slot) -> BarTensor:
    """sum c * slot(left, U) ^ slot(right, V) over the quadratic terms of prefix_W.

    The terms are ``QUADRATIC_TERMS[prefix]`` and their rows (U, V, c) of W,
    without the model's minus sign; ``slot(family, U)`` is the bar element on
    each leg, and the wedges are taken over ``model``.
    """
    terms = []
    for table, left, right in QUADRATIC_TERMS[prefix]:
        for u, v, c in coefficient_rows(table, len(W)).get(W, ()):
            den1, ints1 = to_numerators(slot(left, u))
            den2, ints2 = to_numerators(slot(right, v))
            terms.append((c, den1 * den2, wedge_numerators(ints1, ints2, model)))
    # the wedges summed in integers over one denominator
    den = math.lcm(*(d for _, d, _ in terms))
    out: dict = {}
    for c, d, wedge in terms:
        scale = c * (den // d)
        for key, val in wedge.items():
            out[key] = out.get(key, 0) + scale * val
    return from_numerators(out, 2 * den)


def verify_lift(b: BarElement, W: str, variant: str, method: str) -> LiftReport:
    spec = _variant(variant)
    model = spec.model(len(W))
    # a zero term is no term, as in the kernels, which skip it unread
    b = {w: c for w, c in b.items() if c}
    pi1_ok = pi1(b) == {(f"{spec.prefix}_{W}",): 1}
    # p(b) == b and d_B(b) == 0 as integer equalities on b's numerators;
    # each distinct slot is read through _slot first, so a bad one is
    # rejected before its degree is read
    _, ints = to_numerators(b)
    slots = set().union(*ints)
    even = not any([_slot(model, m)[0] for m in slots])
    denom = _lcm_upto(max(map(len, ints), default=0))
    # with every slot even, p through b's Lyndon coordinates x; else x is b
    x = _lyndon_coordinates(ints, model) if even else ints
    image = projector_numerators(x, model, denom)
    degree = {m: model.monomial_degree(m) - 1 for m in slots}
    degree_zero = all(sum(map(degree.__getitem__, w)) == 0 for w in b)
    scaled = {w: denom * c for w, c in ints.items()}
    hain_fixed = {w: c for w, c in image.items() if c} == scaled
    if even and hain_fixed:
        # b = p(x), so d_B(b) = p(d_B(x)), and every boundary word of x has
        # one odd slot: d_B(b) = 0 iff every pairing row of x is zero
        closed = not _closedness_rows([(0, x)], model)
    else:
        closed = not differential_numerators(ints, model)
    # p keeps tensor length and fixes single slots, so only b's two-slot
    # words reach the (1,1) part of delta_Q(b)
    two_slot = {w: c for w, c in b.items() if len(w) == 2}
    cobracket_ok = delta_Q(two_slot, model) == _prescribed_cobracket(W, variant)
    return LiftReport(W, variant, method, pi1_ok, hain_fixed, degree_zero, closed, cobracket_ok)


@lru_cache(maxsize=None)
def _prescribed_cobracket(W: str, variant: str) -> Mapping:
    """The prescribed (1,1) component of a lift's cobracket, read-only.

    One generator on each leg: the variant's model at weight |W|, built from
    the same tables, has the generators of every row.
    """
    spec = _variant(variant)
    model = spec.model(len(W))
    wedge = table_wedge(W, spec.prefix, model, lambda fam, u: {((f"{fam}_{u}",),): 1})
    return MappingProxyType(wedge)


def lift_LB(W: str, variant: str, method: str = "auto") -> tuple:
    """Produce the lifted bar element for a Lyndon word of weight >= 2.

    ``method`` is one of:

    * ``"auto"`` -- decided once by :func:`solve_unit_constants`: the unit
      formula with the solved constants, reported as-is (method ``"unit"``),
      or, where no such constants exist, the cached ``"oracle"`` lift with a
      note saying so;
    * ``"claim"`` -- the unit formula with the published constants, reported
      as-is (it is not expected to be closed);
    * ``"oracle"`` -- the exact linear solve.

    Returns ``(element, report)``: a new element on every call, which a caller
    may change without touching the cached lift, and the frozen report.
    """
    element, report = _lift_LB(W, variant, method)
    return dict(element), report


@lru_cache(maxsize=None)
def _lift_LB(W: str, variant: str, method: str) -> tuple:
    _variant(variant)
    if len(W) < 2 or not is_lyndon(W):
        raise InvalidWordError(f"{W!r} is not a Lyndon word of weight >= 2")
    if method == "claim":
        element = adjunction_unit(W, variant)
        report = verify_lift(element, W, variant, "claim")
        notes = () if report.closed else ("NON-CLOSED with published constants",)
        return element, replace(report, notes=notes)
    if method == "auto":
        consts = solve_unit_constants(len(W))
        if consts is None:
            element, report = _lift_LB(W, variant, "oracle")
            note = f"no per-degree unit constants at weight {len(W)}; oracle fallback"
            return element, replace(report, notes=(*report.notes, note))
        element = adjunction_unit(W, variant, constants=lambda n: consts[n - 1])
        return element, verify_lift(element, W, variant, "unit")
    if method != "oracle":
        raise ValueError(f"unknown method {method!r}")
    element, dim = closed_lift_oracle(W, variant)
    return element, replace(verify_lift(element, W, variant, "oracle"), affine_dim=dim)


def bar_transport(b: BarElement, images: dict, target: CdgaPresentation) -> BarElement:
    """Slotwise application of a cdga morphism given by generator images.

    Each distinct slot is transported once per call, and the products of
    the slot images are summed on b's integer numerators.
    """
    den, ints = to_numerators(b)
    slot_images = {
        m: tuple(transport({m: 1}, images, target).items())
        for m in dict.fromkeys(m for word in ints for m in word)
    }
    out: dict = {}
    for word, c in ints.items():
        for choice in product(*map(slot_images.__getitem__, word)):
            coeff = c
            for _, v in choice:
                coeff *= v
            new_word = tuple(m for m, _ in choice)
            out[new_word] = out.get(new_word, 0) + coeff
    return from_numerators(out, den)


# ---------------------------------------------------------------------------
# identity suites


def verify_EDQX(W: str) -> dict:
    """Two literal checks of the structure-constant form of the cobracket.

    (1) the coefficient identities expressing a and b through alpha and beta;
    (2) the lift's defining properties, among them the tensor-(1,1)
        component of its cobracket.

    Substituting the one-family by the plain-minus-constant family in the
    a/b form gives a + b(U, V) - b(V, U) = alpha on x_U ^ x_V (U < V) and
    b(U, V) = beta(V, U) on x_V ^ one_U, which is (1) again, so that formal
    identity is not checked separately.  Returns a report dict; ``ok`` is
    True only if both hold.  Nonzero diagonal beta contributions are
    reported in ``beta_diagonal``.
    """
    if len(W) < 2 or not is_lyndon(W):
        raise InvalidWordError(f"{W!r} is not a Lyndon word of weight >= 2")
    n = len(W)
    # W's rows of each table, keyed (U, V)
    alpha, beta, a, b = (
        {(u, v): c for u, v, c in coefficient_rows(name, n).get(W, ())}
        for name in ("alpha", "beta", "a", "b")
    )
    sub = lyndon_words(n - 1)
    pairs = [(u, v) for u in sub for v in sub if len(u) + len(v) == n]
    check1 = all(
        a.get((u, v), 0) == alpha.get((u, v), 0) + beta.get((u, v), 0) - beta.get((v, u), 0)
        for (u, v) in pairs
        if u < v
    ) and all(b.get((u, v), 0) == beta.get((v, u), 0) for (u, v) in pairs)

    _, report = lift_LB(W, "plain")
    check2 = report.all_ok

    diagonal = {u: beta[(u, u)] for u in sub if (u, u) in beta}
    return {
        "word": W,
        "coefficient_identities": check1,
        "tensor_11_component": check2,
        "beta_diagonal": diagonal,
        "ok": check1 and check2,
    }


def geometric_lift(W: str) -> BarElement:
    """The lift pushed into the quotient model dual to the free Lie algebra.

    Returns a new dict on every call.
    """
    return dict(_geometric_lift(W))


@lru_cache(maxsize=None)
def _geometric_lift(W: str) -> BarElement:
    n = len(W)
    if n == 1:
        if W not in ("0", "1"):
            raise InvalidWordError(f"{W!r} is not a binary Lyndon word")
        return {((f"G_{W}",),): 1}
    element, _ = lift_LB(W, "plain")
    return bar_transport(element, geom_projection_images(n), model_geom(n))


def verify_geom_basis(max_weight: int) -> dict:
    """Projected cobrackets carry only the alpha part, on a unital family.

    For every Lyndon word W of weight 2..max_weight, the cobracket of the
    projected lift must equal the alpha-weighted wedges of lower projected
    lifts exactly, and its tensor-degree-1 part must be G_W alone.  The two
    together give the ((G_U), (G_V)) coefficient alpha(W, U, V) / 2 of the
    cobracket, so that pairing is not checked separately; a degree-0 lift's
    single slots are generators of its own weight, so the second check is
    the identity coefficient matrix of the family in each weight.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    cobracket_ok: dict = {}
    for W in lyndon_words(max_weight):
        n = len(W)
        if n < 2:
            continue
        model = model_geom(n)
        got = delta_Q(geometric_lift(W), model)
        # lower-weight lifts transfer verbatim: generator names are stable
        # across the nested presentations
        expected = table_wedge(W, "G", model, lambda _, u: geometric_lift(u))
        cobracket_ok[W] = got == expected
    unital_ok = {W: pi1(geometric_lift(W)) == {(f"G_{W}",): 1} for W in lyndon_words(max_weight)}
    return {
        "cobracket_alpha_form": cobracket_ok,
        "triangular_unital": unital_ok,
        "ok": all(cobracket_ok.values()) and all(unital_ok.values()),
    }


def audit_adjunction_unit(max_weight: int) -> dict:
    """Compare the published unit normalization against solved constants.

    At each weight 2..max_weight with solved constants, where ``auto``
    builds the unit formula, reports whether it is closed and has the stated
    degree-1 part (a) with the published constants 1/(n C(n-1) 2^n), read
    from the ``claim`` lifts, and (b) with the exactly solved constants, read
    from the ``auto`` lifts, which are the unit formula's whatever their
    verification says; solved constants are cross-checked against the
    solver lifts where those are unique.
    """
    if max_weight < 2:
        raise ValueError(f"the audit takes max_weight >= 2, not {max_weight}")
    # constants for weight n close every weight up to n, so none at n means
    # none above it: the probe stops at the first weight without them
    probes = (solve_unit_constants(p) for p in range(2, max_weight + 1))
    found = list(takewhile(lambda c: c is not None, probes))
    if not found:
        raise InfeasibleLiftError("no per-degree constants close the unit formula at weight 2")
    solved = found[-1]
    max_w = len(solved)
    per_weight = []
    for p in range(2, max_w + 1):
        closed_published = True
        pi1_published = True
        closed_solved = True
        matches_oracle = True
        for W in lyndon_words_of_length(p):
            _, claim = lift_LB(W, "plain", "claim")
            closed_published &= claim.closed
            pi1_published &= claim.pi1_ok
            # the unit lift, as constants exist at p; closedness from
            # the full d_B, not from verify_lift's pairing rows
            unit, _ = lift_LB(W, "plain", "auto")
            closed_solved &= bar_differential(unit, model_x(p)) == {}
            oracle, report = lift_LB(W, "plain", "oracle")
            if report.affine_dim == 0:
                matches_oracle &= unit == oracle
        per_weight.append(
            {
                "weight": p,
                "closed_with_published_constants": closed_published,
                "degree_one_part_with_published_constants": pi1_published,
                "closed_with_solved_constants": closed_solved,
                "solved_unit_matches_unique_oracle": matches_oracle,
            }
        )
    return {
        "published_constants": [str(published_constants(n)) for n in range(1, max_w + 1)],
        "solved_constants": [str(c) for c in solved],
        "solved_equal_reciprocal_n_catalan": all(
            solved[n - 1] == Fraction(1, n * catalan(n - 1)) for n in range(1, max_w + 1)
        ),
        "weights": per_weight,
    }


def verify_fiber_identity(W: str) -> bool:
    """Slotwise fiber at 1 of the affine-line lift equals the point lift."""
    n = len(W)
    diff_lift, _ = lift_LB(W, "diff")
    point_lift, _ = lift_LB(W, "point")
    moved = bar_transport(diff_lift, i1_fiber_images(n), model_point(n))
    return moved == point_lift


def relate_families(W: str) -> dict:
    """The combination j*(diff) - plain + one: closed with zero degree-1 part.

    It is Hain-fixed too.  Where the oracle over ``model_x(|W|)`` reports no
    free parameters (it does at every weight it has run to), the only closed,
    Hain-fixed degree-0 element with zero degree-1 part is 0, so the
    combination vanishes exactly: the ``verify`` check
    ``family-relation-exact-vanishing`` gates on ``exactly_zero``.
    """
    n = len(W)
    model = model_x(n)
    diff_lift, _ = lift_LB(W, "diff")
    plain, _ = lift_LB(W, "plain")
    one, _ = lift_LB(W, "one")
    moved = bar_transport(diff_lift, j_restriction_images(n), model)
    x = combine((1, moved), (-1, plain), (1, one))
    return {
        "word": W,
        "closed": bar_differential(x, model) == {},
        "degree_one_part_zero": pi1(x) == {},
        "exactly_zero": x == {},
    }

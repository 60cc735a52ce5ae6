"""Closed degree-0 bar lifts of the cycle families, and their verification.

Planar rooted trivalent trees drive the tree cobracket; averaging it over
trees with stated per-degree constants and projecting with the Hain projector
realizes the adjunction unit, which lifts each dual-basis tag to a closed bar
element whose tensor-degree-1 part is the corresponding model generator.  An
independent exact linear solver produces the same lifts from their defining
properties alone; the published normalization of the unit formula is treated
as a hypothesis and audited against both closedness and the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .bar import (
    BarElement,
    BarTensor,
    bar_degree,
    bar_differential,
    delta_Q,
    hain_projector,
    pi1,
    tensor_part,
    wedge_pair,
)
from .colie import ab_tables, coefficient_table, tensor_cobracket
from .dgcore import (
    QUADRATIC_TERMS,
    CdgaPresentation,
    model_a1,
    model_geom,
    model_point,
    model_x,
)
from .freelie import alpha_table
from .ihara import beta_gamma_tables
from .linalg import add_term, combine, solve_affine
from .words import lyndon_words

ONE = Fraction(1)


class InvalidMorphismError(ValueError):
    """Raised when a tag-to-generator map is not differential-compatible."""


class InfeasibleLiftError(ValueError):
    """Raised when no closed, projector-fixed lift with the prescribed
    tensor-degree-1 part exists; must not happen on uncorrupted models."""


# ---------------------------------------------------------------------------
# planar rooted trivalent trees (equivalently planar binary trees)

Tree = tuple  # None is a leaf; internal vertices are (left, right)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple:
    """All planar rooted trivalent trees with ``n`` leaves, C(n-1) of them."""
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


@lru_cache(maxsize=None)
def _tag_delta_tree(tree, tag) -> tuple:
    if tree is None:
        return (((tag,), ONE),)
    left, right = tree
    out: dict = {}
    for (a, b), c in tensor_cobracket({tag: ONE}).items():
        for ka, ca in _tag_delta_tree(left, a):
            for kb, cb in _tag_delta_tree(right, b):
                add_term(out, ka + kb, c * ca * cb)
    return tuple(sorted(out.items()))


def delta_tree(tree, t: dict) -> dict:
    """The tree cobracket: one cobracket application at each internal vertex.

    Returns a tensor power of the coalgebra as dict[tuple of tags] -> Fraction,
    using the duality-normalized tensor form of the cobracket.
    """
    out: dict = {}
    for tag, c in t.items():
        for key, d in _tag_delta_tree(tree, tag):
            add_term(out, key, c * d)
    return out


# ---------------------------------------------------------------------------
# lift variants: coLie source family, model, and generator map


@dataclass(frozen=True)
class VariantSpec:
    family: str  # coLie tag family feeding the lift
    prefix: str  # generator family in the target model
    model: object  # max_weight -> CdgaPresentation
    killed: tuple  # words whose tags map to zero


VARIANTS = {
    "plain": VariantSpec("t0", "L0", model_x, ("0",)),
    "one": VariantSpec("t1", "L1", model_x, ("1",)),
    "diff": VariantSpec("one", "M", model_a1, ("0", "1")),
    "const": VariantSpec("one", "K", model_x, ("0", "1")),
    "point": VariantSpec("one", "N", model_point, ("0", "1")),
}


def generator_map(variant: str, max_weight: int) -> dict:
    """tag -> generator name (or None), the slot map of the given lift family."""
    spec = VARIANTS[variant]
    gmap: dict = {}
    if variant in ("plain", "one"):
        for w in lyndon_words(max_weight):
            gmap[("t0", w)] = None if w == "0" else f"L0_{w}"
            gmap[("t1", w)] = None if w == "1" else f"L1_{w}"
    else:
        for w in lyndon_words(max_weight):
            gmap[("one", w)] = (
                None if w in spec.killed else f"{spec.prefix}_{w}"
            )
    return gmap


def check_generator_map(gmap: dict, model: CdgaPresentation) -> None:
    """Differential compatibility: d(psi(tag)) must be -psi-image of the cobracket."""
    for tag, gen in gmap.items():
        image: dict = {}
        for (a, b), c in _halved_tensor(tag).items():
            ga, gb = gmap.get(a), gmap.get(b)
            if ga is None or gb is None:
                continue
            prod = model.multiply_monomials((ga,), (gb,))
            if prod is None:
                continue
            s, m = prod
            add_term(image, m, -s * c)
        expected = model.differential[gen] if gen is not None else {}
        if image != expected:
            raise InvalidMorphismError(
                f"generator map is not differential-compatible at tag {tag}"
            )


def _halved_tensor(tag) -> dict:
    half = Fraction(1, 2)
    return {k: half * c for k, c in tensor_cobracket({tag: ONE}).items()}


# ---------------------------------------------------------------------------
# the adjunction unit and its per-degree constants


def published_constants(n: int) -> Fraction:
    """The published normalization 1 / (n * C(n-1) * 2^n) of the unit formula."""
    return Fraction(1, n * catalan(n - 1) * 2**n)


@lru_cache(maxsize=None)
def _tree_sum(tag, n: int) -> tuple:
    out: dict = {}
    for tree in enumerate_trees(n):
        for key, c in _tag_delta_tree(tree, tag):
            add_term(out, key, c)
    return tuple(sorted(out.items()))


def _slotify(tensors, gmap) -> BarElement:
    out: BarElement = {}
    for key, c in tensors:
        gens = [gmap.get(tag) for tag in key]
        if any(g is None for g in gens):
            continue
        add_term(out, tuple((g,) for g in gens), c)
    return out


def adjunction_unit(
    t: dict,
    model: CdgaPresentation,
    gmap: dict,
    constants=published_constants,
    check_map: bool = True,
) -> BarElement:
    """phi(t): Hain projection of the constant-weighted tree-cobracket sum.

    ``constants`` maps the tensor degree n to the coefficient of the sum over
    all trees with n leaves; the series truncates at n = weight(t).  The
    result need not be closed for arbitrary constants; callers decide what to
    do with a nonzero bar differential.
    """
    if check_map:
        check_generator_map(gmap, model)
    total: BarElement = {}
    for tag, c in t.items():
        for n in range(1, len(tag[1]) + 1):
            cn = constants(n)
            if not cn:
                continue
            for word, d in _slotify(_tree_sum(tag, n), gmap).items():
                add_term(total, word, c * cn * d)
    return hain_projector(total, model)


@lru_cache(maxsize=None)
def solve_unit_constants(max_weight: int) -> tuple | None:
    """Per-degree constants making the unit formula closed, solved exactly.

    Normalizes c_1 = 1 (forced by the tensor-degree-1 property) and solves
    the linear system expressing d_B(phi(tag)) = 0 for every source tag of
    weight <= max_weight of the principal lift family.  Returns a tuple
    (c_1, ..., c_max_weight), or None if no per-degree constants exist.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    model = model_x(max_weight)
    gmap = generator_map("plain", max_weight)
    variables = list(range(2, max_weight + 1))
    equations = []
    for w in lyndon_words(max_weight):
        for fam in ("t0", "t1"):
            if (fam, w) == ("t0", "0") or (fam, w) == ("t1", "1"):
                continue
            if len(w) < 2:
                continue
            pieces = {}
            for n in range(1, len(w) + 1):
                part = hain_projector(_slotify(_tree_sum((fam, w), n), gmap), model)
                pieces[n] = bar_differential(part, model)
            rows: dict = {}
            for n, db in pieces.items():
                for word, c in db.items():
                    rows.setdefault(word, {})[n] = c
            for word, byn in rows.items():
                rhs = -byn.pop(1, Fraction(0))
                equations.append((byn, rhs))
    solution, _ = solve_affine(equations, variables)
    if solution is None:
        return None
    return (ONE,) + tuple(solution[n] for n in variables)


# ---------------------------------------------------------------------------
# the independent oracle: exact solve for the defining properties


def _degree_zero_words(model: CdgaPresentation, weight: int) -> list:
    """All bar words of the given weight whose every slot is one generator."""
    by_weight: dict[int, list] = {}
    for g in model.generators:
        by_weight.setdefault(g.weight, []).append(g.name)

    def compositions(total):
        if total == 0:
            yield ()
            return
        for part in range(1, total + 1):
            if part in by_weight:
                for rest in compositions(total - part):
                    yield (part,) + rest

    words = []
    for comp in compositions(weight):
        for choice in product(*(by_weight[p] for p in comp)):
            words.append(tuple((g,) for g in choice))
    return sorted(words, key=lambda w: (len(w), w))


def closed_lift_oracle(
    W: str, variant: str, model: CdgaPresentation | None = None
) -> tuple[BarElement, int]:
    """Solve for a lift with the prescribed degree-1 part, closed and Hain-fixed.

    Works in the finite weight-|W|, bar-degree-0 slice of the bar construction
    over the variant's model; returns one solution (free variables zeroed, so
    deterministic) together with the dimension of the solution affine space.
    """
    spec = VARIANTS[variant]
    if len(W) < 2:
        raise ValueError("lifts start at weight 2")
    if model is None:
        model = spec.model(len(W))
    target = f"{spec.prefix}_{W}"
    words = _degree_zero_words(model, len(W))
    equations = []
    for word in words:
        if len(word) == 1:
            rhs = ONE if word == ((target,),) else Fraction(0)
            equations.append(({word: ONE}, rhs))
    image_rows: dict = {}
    fixed_rows: dict = {}
    for word in words:
        for iw, c in bar_differential({word: ONE}, model).items():
            image_rows.setdefault(iw, {})[word] = c
        proj = hain_projector({word: ONE}, model)
        for pw, c in proj.items():
            fixed_rows.setdefault(pw, {})[word] = c
        add_term(fixed_rows.setdefault(word, {}), word, -ONE)
    for row in image_rows.values():
        equations.append((row, Fraction(0)))
    for row in fixed_rows.values():
        equations.append((row, Fraction(0)))
    solution, n_free = solve_affine(equations, words)
    if solution is None:
        raise InfeasibleLiftError(
            f"no closed projector-fixed lift of {target} exists"
        )
    return {w: c for w, c in solution.items() if c}, n_free


# ---------------------------------------------------------------------------
# lift production and the four defining properties


@dataclass
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
    notes: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (
            self.pi1_ok
            and self.hain_fixed
            and self.degree_zero
            and self.closed
            and self.cobracket_ok
        )


def prescribed_cobracket_11(W: str, variant: str, model: CdgaPresentation) -> BarTensor:
    """The stated tensor-(1,1) cobracket of the lift: tables without the minus."""
    out: BarTensor = {}

    def gen(prefix, w):
        name = f"{prefix}_{w}"
        return {((name,),): ONE} if name in model.index else {}

    for table, pu, pv in QUADRATIC_TERMS[VARIANTS[variant].prefix]:
        for (w, u, v), c in coefficient_table(table, len(W)).items():
            if w != W:
                continue
            lhs, rhs = gen(pu, u), gen(pv, v)
            if not lhs or not rhs:
                raise InvalidMorphismError(
                    f"nonzero table entry {c} hits a removed generator at "
                    f"({pu}_{u}, {pv}_{v})"
                )
            for key, val in wedge_pair(lhs, rhs, model).items():
                add_term(out, key, c * val)
    return out


def verify_lift(b: BarElement, W: str, variant: str, report: LiftReport) -> LiftReport:
    model = VARIANTS[variant].model(len(W))
    target = f"{VARIANTS[variant].prefix}_{W}"
    report.pi1_ok = pi1(b) == {(target,): 1}
    report.degree_zero = all(bar_degree(w, model) == 0 for w in b)
    report.hain_fixed = hain_projector(b, model) == b
    report.closed = bar_differential(b, model) == {}
    got = tensor_part(delta_Q(b, model), (1, 1))
    report.cobracket_ok = got == prescribed_cobracket_11(W, variant, model)
    return report


@lru_cache(maxsize=None)
def lift_LB(W: str, variant: str, method: str = "auto") -> tuple:
    """Produce the lifted bar element for a Lyndon word of weight >= 2.

    ``method`` is one of:

    * ``"auto"`` -- the unit formula with exactly solved constants, falling
      back to the oracle if any defining property fails;
    * ``"claim"`` -- the unit formula with the published constants, reported
      as-is (it is not expected to be closed);
    * ``"oracle"`` -- the exact linear solve.

    Returns ``(element, report)``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if len(W) < 2:
        raise ValueError("lifts start at weight 2")
    spec = VARIANTS[variant]
    model = spec.model(len(W))
    gmap = generator_map(variant, len(W))
    source_tag = (spec.family, W)
    if method == "oracle":
        element, dim = closed_lift_oracle(W, variant, model)
        report = verify_lift(element, W, variant, LiftReport(W, variant, "oracle"))
        report.affine_dim = dim
        return element, report
    if method == "claim":
        element = adjunction_unit({source_tag: ONE}, model, gmap)
        report = verify_lift(element, W, variant, LiftReport(W, variant, "claim"))
        if not report.closed:
            report.notes.append("NON-CLOSED with published constants")
        return element, report
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    notes = []
    consts = solve_unit_constants(len(W))
    if consts is not None:
        element = adjunction_unit(
            {source_tag: ONE}, model, gmap, constants=lambda n: consts[n - 1]
        )
        report = verify_lift(element, W, variant, LiftReport(W, variant, "unit"))
        if report.all_ok:
            return element, report
        notes.append("unit formula failed verification; oracle fallback")
    else:
        notes.append(
            f"no per-degree unit constants at weight {len(W)}; oracle fallback"
        )
    element, dim = closed_lift_oracle(W, variant, model)
    report = verify_lift(element, W, variant, LiftReport(W, variant, "oracle"))
    report.affine_dim = dim
    report.notes.extend(notes)
    return element, report


def bar_transport(b: BarElement, images: dict, target: CdgaPresentation) -> BarElement:
    """Slotwise application of a cdga morphism given by generator images."""
    from .dgcore import transport

    out: BarElement = {}
    for word, c in b.items():
        slot_images = [transport({m: ONE}, images, target) for m in word]
        if any(not s for s in slot_images):
            continue
        for choice in product(*(s.items() for s in slot_images)):
            new_word = tuple(m for m, _ in choice)
            coeff = c
            for _, cc in choice:
                coeff *= cc
            add_term(out, new_word, coeff)
    return out


# ---------------------------------------------------------------------------
# identity suites


def _formal_wedge_add(out: dict, x, y, c) -> None:
    if not c or x == y:
        return
    if x < y:
        add_term(out, (x, y), c)
    else:
        add_term(out, (y, x), -c)


def verify_EDQX(W: str, method: str = "auto") -> dict:
    """Three literal checks of the structure-constant form of the cobracket.

    (1) the coefficient identities expressing a and b through alpha and beta;
    (2) the tensor-(1,1) component of the lifted element's cobracket;
    (3) the formal substitution of the one-family by the plain-minus-constant
        family, reproducing the alpha/beta form exactly.

    Returns a report dict; ``ok`` is True only if all three hold.  Nonzero
    diagonal beta contributions are reported in ``beta_diagonal``.
    """
    if len(W) < 2:
        raise ValueError("weight >= 2 required")
    n = len(W)
    alpha = alpha_table(n)
    beta, _ = beta_gamma_tables(n)
    a, b, _, _ = ab_tables(n)
    zero = Fraction(0)
    sub = lyndon_words(n - 1)
    pairs = [(u, v) for u in sub for v in sub if len(u) + len(v) == n]
    check1 = all(
        a.get((W, u, v), zero)
        == alpha.get((W, u, v), zero) + beta.get((W, u, v), zero) - beta.get((W, v, u), zero)
        for (u, v) in pairs
        if u < v
    ) and all(b.get((W, u, v), zero) == beta.get((W, v, u), zero) for (u, v) in pairs)

    model = model_x(n)
    element, report = lift_LB(W, "plain", method)
    got = tensor_part(delta_Q(element, model), (1, 1))
    check2 = got == prescribed_cobracket_11(W, "plain", model) and report.all_ok

    # formal identity on symbols: substitute one-family = plain - constant
    lhs: dict = {}
    for (w, u, v), c in a.items():
        if w == W:
            _formal_wedge_add(lhs, ("L0", u), ("L0", v), c)
    for (w, u, v), c in b.items():
        if w == W:
            _formal_wedge_add(lhs, ("L0", u), ("L0", v), c)
            _formal_wedge_add(lhs, ("K", u), ("L0", v), -c)
    rhs: dict = {}
    for (w, u, v), c in alpha.items():
        if w == W:
            _formal_wedge_add(rhs, ("L0", u), ("L0", v), c)
    for (w, u, v), c in beta.items():
        if w == W:
            _formal_wedge_add(rhs, ("L0", u), ("K", v), c)
    check3 = lhs == rhs

    diagonal = {u: beta[(W, u, u)] for u in sub if (W, u, u) in beta}
    return {
        "word": W,
        "coefficient_identities": check1,
        "tensor_11_component": check2,
        "alpha_beta_form": check3,
        "beta_diagonal": diagonal,
        "ok": check1 and check2 and check3,
    }


@lru_cache(maxsize=None)
def geometric_lift(W: str, method: str = "auto") -> BarElement:
    """The lift pushed into the quotient model dual to the free Lie algebra."""
    from .dgcore import geom_projection_images

    n = len(W)
    if n == 1:
        return {((f"G_{W}",),): ONE}
    element, _ = lift_LB(W, "plain", method)
    return bar_transport(element, geom_projection_images(n), model_geom(n))


def verify_geom_basis(max_weight: int, method: str = "auto") -> dict:
    """Projected cobrackets carry only the alpha part, on a triangular family.

    For every Lyndon word of weight 2..max_weight, the cobracket of the
    projected lift must equal the alpha-weighted wedges of lower projected
    lifts exactly, and the tensor-degree-1 coefficient matrix of the family
    must be the identity in every weight.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    alpha = alpha_table(max_weight)
    zero = Fraction(0)
    cobracket_ok: dict = {}
    pairing_ok: dict = {}
    for W in lyndon_words(max_weight):
        n = len(W)
        if n < 2:
            continue
        model = model_geom(n)
        lifted = geometric_lift(W, method)
        got = delta_Q(lifted, model)
        expected: BarTensor = {}
        for u in lyndon_words(n - 1):
            for v in lyndon_words(n - 1):
                if not (u < v and len(u) + len(v) == n):
                    continue
                c = alpha.get((W, u, v), zero)
                if not c:
                    continue
                # lower-weight lifts transfer verbatim: generator names are
                # stable across the nested presentations
                for key, val in wedge_pair(
                    geometric_lift(u, method), geometric_lift(v, method), model
                ).items():
                    add_term(expected, key, c * val)
        cobracket_ok[W] = got == expected
        pairing_ok[W] = all(
            2 * got.get((((f"G_{u}",),), ((f"G_{v}",),)), zero) == alpha.get((W, u, v), zero)
            for u in lyndon_words(n - 1)
            for v in lyndon_words(n - 1)
            if u < v and len(u) + len(v) == n
        )
    rank_ok: dict = {}
    for p in range(1, max_weight + 1):
        words = [w for w in lyndon_words(p) if len(w) == p]
        matrix = {}
        for w in words:
            row = pi1(geometric_lift(w, method))
            matrix[w] = {v: row.get((f"G_{v}",), zero) for v in words}
        rank_ok[p] = all(
            matrix[w][v] == (ONE if v == w else zero) for w in words for v in words
        )
    return {
        "cobracket_alpha_form": cobracket_ok,
        "pairing": pairing_ok,
        "triangular_unital": rank_ok,
        "ok": all(cobracket_ok.values())
        and all(rank_ok.values())
        and all(pairing_ok.values()),
    }


def audit_adjunction_unit(weights=(2, 3, 4)) -> dict:
    """Compare the published unit normalization against solved constants.

    For each requested weight, reports whether the unit formula is closed and
    has the stated degree-1 part (a) with the published constants
    1/(n C(n-1) 2^n) and (b) with the exactly solved constants; solved
    constants are cross-checked against the solver lifts where those are
    unique.
    """
    max_w = max(weights)
    solved = solve_unit_constants(max_w)
    if solved is None:
        raise InfeasibleLiftError(
            f"no per-degree constants close the unit formula at weight {max_w}"
        )
    per_weight = []
    for p in weights:
        model = model_x(p)
        gmap = generator_map("plain", p)
        consts = solve_unit_constants(p)
        closed_published = True
        pi1_published = True
        closed_solved = True
        matches_oracle = True
        for W in lyndon_words(p):
            if len(W) != p:
                continue
            claim = adjunction_unit({("t0", W): ONE}, model, gmap)
            closed_published &= bar_differential(claim, model) == {}
            pi1_published &= pi1(claim) == {(f"L0_{W}",): 1}
            unit = adjunction_unit(
                {("t0", W): ONE}, model, gmap, constants=lambda n: consts[n - 1]
            )
            closed_solved &= bar_differential(unit, model) == {}
            oracle, n_free = closed_lift_oracle(W, "plain", model)
            if n_free == 0:
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


def verify_fiber_identity(W: str, method: str = "auto") -> bool:
    """Slotwise fiber at 1 of the affine-line lift equals the point lift."""
    from .dgcore import i1_fiber_images

    n = len(W)
    diff_lift, _ = lift_LB(W, "diff", method)
    point_lift, _ = lift_LB(W, "point", method)
    moved = bar_transport(diff_lift, i1_fiber_images(n), model_point(n))
    return moved == point_lift


def relate_families(W: str, method: str = "auto") -> dict:
    """The combination j*(diff) - plain + one: closed with zero degree-1 part.

    Its exact vanishing is reported, not asserted; the three-term relation
    between the families holds in cohomology modulo shuffles.
    """
    from .dgcore import j_restriction_images

    n = len(W)
    model = model_x(n)
    diff_lift, _ = lift_LB(W, "diff", method)
    plain, _ = lift_LB(W, "plain", method)
    one, _ = lift_LB(W, "one", method)
    moved = bar_transport(diff_lift, j_restriction_images(n), model)
    x = combine((1, moved), (-1, plain), (1, one))
    return {
        "word": W,
        "closed": bar_differential(x, model) == {},
        "degree_one_part_zero": pi1(x) == {},
        "exactly_zero": x == {},
    }

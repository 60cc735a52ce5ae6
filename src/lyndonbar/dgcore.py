"""Graded-commutative dg algebras with Koszul sign discipline, and the formal models.

A presentation carries weighted graded generators and a differential table;
elements are dicts mapping canonically sorted monomials (tuples of generator
names) to exact coefficients, int or Fraction, with the sorting sign
absorbed.  The cobar construction turns a finite Lie-coalgebra presentation
into such a cdga, with Fraction coefficients from its 1/2; the four concrete
models (over the punctured line, the affine line and the point, and the
geometric quotient) are built by one table-driven builder from the integer
structure tables, and they and their restriction maps hold ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .colie import TAG_PREFIX, coefficient_rows
from .colie import cobracket as colie_cobracket
from .freelie import TableInconsistencyError
from .linalg import add_term
from .words import lyndon_words, lyndon_words_of_length

Monomial = tuple  # tuple[str, ...], sorted by generator order
CdgaElement = dict  # Monomial -> int or Fraction


class PresentationError(ValueError):
    """Raised when a differential table is not a square-zero degree-1 map."""


class NotACoLieCoalgebraError(ValueError):
    """Raised when a claimed cobracket fails antisymmetry or co-Jacobi."""


def koszul_sign(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Graded signature of a permutation acting on slots of the given degrees.

    ``sigma[i]`` is the target position of the element in slot ``i``; the sign
    collects one factor (-1)^(d_i * d_j) for every pair that gets transposed.
    """
    if len(sigma) != len(degrees):
        raise ValueError("permutation size does not match the number of degrees")
    if sorted(sigma) != list(range(len(sigma))):
        raise ValueError(f"{sigma!r} is not a permutation of 0..{len(degrees) - 1}")
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j] and degrees[i] % 2 and degrees[j] % 2:
                sign = -sign
    return sign


@dataclass(frozen=True)
class GradedGenerator:
    name: str
    degree: int
    weight: int


class CdgaPresentation:
    """Finitely presented graded-commutative dg algebra.

    The differential must raise cohomological degree by one, preserve weight,
    and square to zero on every generator; all three are checked at
    construction time unless ``validate`` is false.  A differential given for
    a name that is not a generator, or holding one, is always rejected.
    """

    def __init__(
        self,
        generators: Iterable[GradedGenerator],
        differential: Mapping[str, CdgaElement],
        name: str = "cdga",
        validate: bool = True,
    ):
        self.name = name
        self.generators: tuple[GradedGenerator, ...] = tuple(generators)
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise PresentationError("duplicate generator names")
        self.degree = {g.name: g.degree for g in self.generators}
        self.weight = {g.name: g.weight for g in self.generators}
        for name, image in differential.items():
            if name not in self.index:
                raise PresentationError(f"differential given for {name!r}, which is not a generator")
            for m in image:
                for h in m:
                    if h not in self.index:
                        raise PresentationError(f"d({name}) holds {h!r}, which is not a generator")
        self.differential = {
            g.name: dict(differential.get(g.name, {})) for g in self.generators
        }
        if validate:
            self._check()

    def _check(self) -> None:
        for g in self.generators:
            image = self.differential[g.name]
            for m in image:
                if self.monomial_degree(m) != g.degree + 1:
                    raise PresentationError(
                        f"d({g.name}) has a term of degree != {g.degree} + 1"
                    )
                if self.monomial_weight(m) != g.weight:
                    raise PresentationError(f"d({g.name}) does not preserve weight")
            if self.element_differential(image):
                raise PresentationError(f"d^2 != 0 on generator {g.name}")

    def monomial_degree(self, m: Monomial) -> int:
        return sum(self.degree[g] for g in m)

    def monomial_weight(self, m: Monomial) -> int:
        return sum(self.weight[g] for g in m)

    def generator_element(self, name: str) -> CdgaElement:
        if name not in self.index:
            raise KeyError(f"unknown generator {name!r}")
        return {(name,): 1}

    def multiply_monomials(self, m1: Monomial, m2: Monomial):
        """Merge two sorted monomials; returns (sign, monomial) or None if zero."""
        out: list[str] = []
        sign = 1
        i = j = 0
        odd_tail = sum(1 for g in m1 if self.degree[g] % 2)
        while i < len(m1) and j < len(m2):
            a, b = m1[i], m2[j]
            if self.index[a] <= self.index[b]:
                if self.degree[a] % 2:
                    odd_tail -= 1
                out.append(a)
                i += 1
            else:
                if self.degree[b] % 2 and odd_tail % 2:
                    sign = -sign
                out.append(b)
                j += 1
        out.extend(m1[i:])
        out.extend(m2[j:])
        for a, b in zip(out, out[1:]):
            if a == b and self.degree[a] % 2:
                return None
        return sign, tuple(out)

    def multiply(self, a: CdgaElement, b: CdgaElement) -> CdgaElement:
        out: CdgaElement = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                sm = self.multiply_monomials(m1, m2)
                if sm is not None:
                    sign, m = sm
                    add_term(out, m, sign * c1 * c2)
        return out

    def monomial_differential(self, m: Monomial) -> CdgaElement:
        out: CdgaElement = {}
        sign = 1
        for i, g in enumerate(m):
            dg = self.differential[g]
            if dg:
                prefix, suffix = m[:i], m[i + 1 :]
                for dm, dc in dg.items():
                    left = self.multiply_monomials(prefix, dm)
                    if left is None:
                        continue
                    s1, lm = left
                    full = self.multiply_monomials(lm, suffix)
                    if full is None:
                        continue
                    s2, fm = full
                    add_term(out, fm, sign * s1 * s2 * dc)
            if self.degree[g] % 2:
                sign = -sign

        return out

    def element_differential(self, e: CdgaElement) -> CdgaElement:
        out: CdgaElement = {}
        for m, c in e.items():
            for dm, dc in self.monomial_differential(m).items():
                add_term(out, dm, c * dc)
        return out


@dataclass(frozen=True)
class CoLiePresentation:
    """A finite Lie coalgebra with chosen basis, in tensor form.

    ``cobracket[x]`` maps ordered basis pairs (u, v) to the coefficient of
    u @ v in delta(x); graded antisymmetry c[v,u] = -(-1)^(|u||v|) c[u,v] is
    validated by :func:`cobar_colie`.
    """

    basis: tuple[GradedGenerator, ...]
    differential: Mapping[str, Mapping[str, Fraction]]
    cobracket: Mapping[str, Mapping[tuple[str, str], Fraction]]


def cobar_colie(L: CoLiePresentation, name: str = "cobar") -> CdgaPresentation:
    """Free graded-commutative algebra on the suspension, with twisted differential.

    Generators keep the basis names but sit one degree higher; the
    differential is D1 (suspended differential, d(s x) = -s d(x)) plus D2
    (induced by the cobracket through the suspension coproduct
    s -> -s @ s).  The constructor verifies d^2 = 0 and rejects the input
    otherwise.
    """
    degree = {g.name: g.degree for g in L.basis}
    for x, table in L.cobracket.items():
        for (u, v), c in table.items():
            flipped = table.get((v, u), 0)
            expected = -c if (degree[u] * degree[v]) % 2 == 0 else c
            if flipped != expected:
                raise NotACoLieCoalgebraError(
                    f"cobracket of {x!r} is not graded-antisymmetric at ({u}, {v})"
                )
    gens = [GradedGenerator(g.name, g.degree + 1, g.weight) for g in L.basis]
    shell = CdgaPresentation(gens, {g.name: {} for g in gens}, name=name)
    differential: dict[str, CdgaElement] = {}
    for g in L.basis:
        image: CdgaElement = {}
        for y, c in L.differential.get(g.name, {}).items():
            add_term(image, (y,), -c)
        for (u, v), c in L.cobracket.get(g.name, {}).items():
            sign = -1 if degree[u] % 2 == 0 else 1
            prod = shell.multiply_monomials((u,), (v,))
            if prod is not None:
                s, m = prod
                add_term(image, m, sign * s * c)
        differential[g.name] = image
    try:
        return CdgaPresentation(gens, differential, name=name)
    except PresentationError as exc:
        raise NotACoLieCoalgebraError(
            f"cobar differential does not square to zero: {exc}"
        ) from exc


def colie_presentation(max_weight: int, which: str = "t01") -> CoLiePresentation:
    """The dual coalgebra truncated at ``max_weight`` as a cobar input.

    ``which`` selects the t01 basis of the full coalgebra ("t01") or the
    subcoalgebra spanned by the (one, W) tags ("one").  All tags sit in
    degree 0; the tensor-form cobracket of a wedge pair u ^ v is
    (1/2)(u @ v - v @ u), the normalization under which the quadratic
    differential of the models reproduces the stated tables coefficient for
    coefficient.
    """
    families = {"t01": ("t0", "t1"), "one": ("one",)}.get(which)
    if families is None:
        raise ValueError(f"unknown coalgebra {which!r}: expected 't01' or 'one'")
    tags = [
        (fam, w)
        for w in lyndon_words(max_weight)
        for fam in families
    ]
    names = {t: f"{TAG_PREFIX[t[0]]}:{t[1]}" for t in tags}
    basis = tuple(
        GradedGenerator(names[t], 0, len(t[1]))
        for t in sorted(tags, key=lambda t: (len(t[1]), t[0], t[1]))
    )
    cobr: dict[str, dict[tuple[str, str], Fraction]] = {}
    half = Fraction(1, 2)
    for t in tags:
        table: dict[tuple[str, str], Fraction] = {}
        for (a, b), c in colie_cobracket({t: 1}).items():
            add_term(table, (names[a], names[b]), half * c)
            add_term(table, (names[b], names[a]), -half * c)
        cobr[names[t]] = table
    return CoLiePresentation(basis=basis, differential={}, cobracket=cobr)


# The quadratic differential of each generator family: (table, left family,
# right family) triples, each adding -table[W, U, V] * left_U right_V to
# d(family_W) for every row (U, V, c) of W in colie.coefficient_rows(table).
# The same terms without the minus are the prescribed tensor-(1,1) cobracket
# of a lift and the alpha form of a projected one (lifts.table_wedge).
QUADRATIC_TERMS = {
    "L0": (("a", "L0", "L0"), ("b", "L1", "L0")),
    "L1": (("aprime", "L1", "L1"), ("bprime", "L1", "L0")),
    "K": (("a", "K", "K"),),
    "M": (("a", "M", "M"),),
    "N": (("a", "N", "N"),),
    "G": (("alpha", "G", "G"),),
}


def _table_model(families, max_weight: int, name: str) -> CdgaPresentation:
    """Free cdga on degree-1 generators FAM_W, W Lyndon, d from QUADRATIC_TERMS.

    ``families`` lists (family, killed words) in generator order within each
    weight; a killed word has no generator, and a nonzero table entry on one
    raises TableInconsistencyError.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    gens = [
        GradedGenerator(f"{fam}_{w}", 1, n)
        for n in range(1, max_weight + 1)
        for fam, killed in families
        for w in lyndon_words_of_length(n)
        if w not in killed
    ]
    index = {g.name: i for i, g in enumerate(gens)}
    differential: dict[str, CdgaElement] = {}
    for g in gens:
        fam, w = g.name.split("_", 1)
        image: CdgaElement = {}
        # weight-1 generators are closed, and the tables start at weight 2
        terms = QUADRATIC_TERMS[fam] if len(w) > 1 else ()
        for table, left, right in terms:
            for u, v, c in coefficient_rows(table, max_weight).get(w, ()):
                x, y = f"{left}_{u}", f"{right}_{v}"
                if x not in index or y not in index:
                    raise TableInconsistencyError(
                        f"d({g.name}): nonzero coefficient {c} on removed generator in {x}*{y}"
                    )
                if x == y:
                    continue
                if index[x] <= index[y]:
                    add_term(image, (x, y), -c)
                else:
                    add_term(image, (y, x), c)
        differential[g.name] = image
    try:
        return CdgaPresentation(gens, differential, name=name)
    except PresentationError as exc:
        raise TableInconsistencyError(str(exc)) from exc


@lru_cache(maxsize=None)
def model_x(max_weight: int) -> CdgaPresentation:
    """The formal model of the cycle algebra over the thrice-punctured line.

    Degree-1 generators L0_W and L1_W for Lyndon W (with L0_0 and L1_1
    removed), plus constant-family generators K_W in weights >= 2, with the
    quadratic differentials read off the a/b/a'/b' tables (leading minus
    sign included).
    """
    families = (("L0", ("0",)), ("L1", ("1",)), ("K", ("0", "1")))
    return _table_model(families, max_weight, f"x@{max_weight}")


@lru_cache(maxsize=None)
def model_a1(max_weight: int) -> CdgaPresentation:
    """Model over the affine line: generators M_W for the cycle differences."""
    return _table_model((("M", ()),), max_weight, f"M@{max_weight}")


@lru_cache(maxsize=None)
def model_point(max_weight: int) -> CdgaPresentation:
    """Model over the point: generators N_W, same differential system as M."""
    return _table_model((("N", ()),), max_weight, f"N@{max_weight}")


@lru_cache(maxsize=None)
def model_geom(max_weight: int) -> CdgaPresentation:
    """Quotient model dual to the free Lie algebra alone: the alpha system."""
    return _table_model((("G", ()),), max_weight, f"geom@{max_weight}")


def transport(
    e: CdgaElement, images: Mapping[str, CdgaElement], target: CdgaPresentation
) -> CdgaElement:
    """Multiplicative extension of a generator map to a full element."""
    out: CdgaElement = {}
    for m, c in e.items():
        for g in m:
            if g not in images:
                raise ValueError(f"monomial {m!r} holds {g!r}, which the images do not map")
        term: CdgaElement = {(): 1}
        for g in m:
            term = target.multiply(term, images[g])
            if not term:
                break
        for tm, tc in term.items():
            add_term(out, tm, c * tc)
    return out


def is_chain_map(
    source: CdgaPresentation,
    target: CdgaPresentation,
    images: Mapping[str, CdgaElement],
) -> bool:
    for g in source.generators:
        lhs = transport(source.differential[g.name], images, target)
        rhs = target.element_differential(transport({(g.name,): 1}, images, target))
        if lhs != rhs:
            return False
    return True


def _family_images(
    source: CdgaPresentation, target: CdgaPresentation, rule: Mapping[str, tuple]
) -> dict[str, CdgaElement]:
    """Generator images FAM_W -> sum of c * TFAM_W over (TFAM, c) in ``rule[FAM]``.

    A term is kept only if the target has that generator, so the killed words
    of the two models decide every image.
    """
    out: dict[str, CdgaElement] = {}
    for g in source.generators:
        fam, w = g.name.split("_", 1)
        out[g.name] = {
            (f"{t}_{w}",): c for t, c in rule[fam] if f"{t}_{w}" in target.index
        }
    return out


def j_restriction_images(max_weight: int) -> dict[str, CdgaElement]:
    """Generator images of the open-inclusion pullback: M_W -> L0_W - L1_W."""
    rule = {"M": (("L0", 1), ("L1", -1))}
    return _family_images(model_a1(max_weight), model_x(max_weight), rule)


def i1_fiber_images(max_weight: int) -> dict[str, CdgaElement]:
    """Fiber at 1: M_W -> N_W (a renaming isomorphism onto the point model)."""
    return _family_images(model_a1(max_weight), model_point(max_weight), {"M": (("N", 1),)})


def p1_pullback_images(max_weight: int) -> dict[str, CdgaElement]:
    """Constant pullback: N_W -> K_W in weights >= 2, weight-1 generators to 0."""
    return _family_images(model_point(max_weight), model_x(max_weight), {"N": (("K", 1),)})


def geom_projection_images(max_weight: int) -> dict[str, CdgaElement]:
    """Kill the constant family and identify the two cycle families: -> G_W."""
    rule = {"L0": (("G", 1),), "L1": (("G", 1),), "K": ()}
    return _family_images(model_x(max_weight), model_geom(max_weight), rule)


def restrict_j(e: CdgaElement, max_weight: int) -> CdgaElement:
    return transport(e, j_restriction_images(max_weight), model_x(max_weight))


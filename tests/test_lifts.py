"""Trees, the adjunction unit and its constants, the lift oracle, and the suites."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import pytest

from conftest import degree_zero_words, rescaled
from test_bar import reference_wedge_pair
from lyndonbar import dgcore, lifts
from lyndonbar.bar import (
    InvalidElementError,
    bar_differential,
    differential_numerators,
    hain_projector,
    pi1,
    projector_numerators,
    shuffle,
)
from lyndonbar.colie import cobracket, coefficient_rows, coefficient_table, tensor_cobracket
from lyndonbar.dgcore import (
    QUADRATIC_TERMS,
    CdgaPresentation,
    geom_projection_images,
    i1_fiber_images,
    j_restriction_images,
    model_geom,
    model_point,
    model_x,
    transport,
)
from lyndonbar.lifts import (
    VARIANTS,
    InfeasibleLiftError,
    LiftReport,
    adjunction_unit,
    audit_adjunction_unit,
    bar_transport,
    catalan,
    closed_lift_oracle,
    enumerate_trees,
    geometric_lift,
    lift_LB,
    published_constants,
    relate_families,
    solve_unit_constants,
    table_wedge,
    verify_EDQX,
    verify_fiber_identity,
    verify_geom_basis,
    verify_lift,
)
from lyndonbar.freelie import expand
from lyndonbar.linalg import add_term, combine, solve_affine, to_numerators
from lyndonbar.verify import run_suites
from lyndonbar.words import InvalidWordError, is_lyndon_sequence, lyndon_words, lyndon_words_of_length

ONE = Fraction(1)


@lru_cache(maxsize=None)
def fraction_delta_tree(tree, tag) -> dict:
    """The tree cobracket seeded with Fraction(1): the per-tree reference for ``_tree_sum``."""
    if tree is None:
        return {(tag,): ONE}
    left, right = tree
    out: dict = {}
    for (a, b), c in tensor_cobracket({tag: ONE}).items():
        for ka, ca in fraction_delta_tree(left, a).items():
            for kb, cb in fraction_delta_tree(right, b).items():
                add_term(out, ka + kb, c * ca * cb)
    return out


def delta_tree(tree, t: dict) -> dict:
    """The tree cobracket: one cobracket application at each internal vertex.

    Returns a tensor power of the coalgebra as dict[tuple of tags] -> Fraction,
    using the duality-normalized tensor form of the cobracket.
    """
    out: dict = {}
    for tag, c in t.items():
        for key, d in fraction_delta_tree(tree, tag).items():
            add_term(out, key, c * d)
    return out


def leaf_count(tree) -> int:
    if tree is None:
        return 1
    return leaf_count(tree[0]) + leaf_count(tree[1])


def _cherry_positions(tree, offset=0):
    """Leaf index (0-based) of each cherry's left leaf, left to right."""
    if tree is None:
        return [], 1
    left, right = tree
    if left is None and right is None:
        return [offset], 2
    lpos, ln = _cherry_positions(left, offset)
    rpos, rn = _cherry_positions(right, offset + ln)
    return lpos + rpos, ln + rn


def _strip_cherry(tree, target):
    """Replace the cherry whose left leaf has index ``target`` by a leaf."""

    def rec(node, offset):
        if node is None:
            return None, 1, False
        left, right = node
        if left is None and right is None and offset == target:
            return None, 2, True
        new_left, ln, found = rec(left, offset)
        if found:
            return (new_left, right), ln - 1 + leaf_count(right), True
        new_right, rn, found = rec(right, offset + ln)
        if found:
            return (left, new_right), ln + rn - 1, True
        return (left, right), ln + rn, False

    stripped, _, found = rec(tree, 0)
    assert found
    return stripped


def delta_tree_by_cherries(tree, t: dict, choose: str = "first") -> dict:
    """Evaluate the tree cobracket by stripping cherries one at a time.

    The reference that confirms independence of the cherry order; ``choose``
    picks the first or last cherry at each step.
    """
    n = leaf_count(tree)
    if n == 1:
        return dict(t)
    if n == 2:
        return {key: c for key, c in delta_tree(tree, t).items()}
    positions, _ = _cherry_positions(tree)
    pos = positions[0] if choose == "first" else positions[-1]
    stripped = _strip_cherry(tree, pos)
    base = delta_tree_by_cherries(stripped, t, choose)
    out: dict = {}
    for key, c in base.items():
        target_tag = key[pos]
        for (a, b), d in tensor_cobracket({target_tag: ONE}).items():
            add_term(out, key[:pos] + (a, b) + key[pos + 1 :], c * d)
    return out


def test_tree_counts_are_catalan():
    assert [len(enumerate_trees(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]
    assert len(enumerate_trees(4)) == catalan(3) == 5
    assert all(leaf_count(t) == 5 for t in enumerate_trees(5))


def test_bare_edge_is_identity():
    t = {("t0", "0011"): Fraction(3)}
    assert delta_tree(None, t) == {(("t0", "0011"),): 3}


def test_two_leaf_tree_is_the_cobracket():
    got = delta_tree((None, None), {("x", "01"): ONE})
    assert got == {
        (("x", "0"), ("x", "1")): 1,
        (("x", "1"), ("x", "0")): -1,
        (("x", "1"), ("one", "0")): 1,
        (("one", "0"), ("x", "1")): -1,
    }


def test_cherry_order_independence():
    tags = [
        (fam, w) for w in lyndon_words(5) for fam in ("t0", "t1") if len(w) >= 2
    ]
    for n in range(3, 6):
        for tree in enumerate_trees(n):
            for tag in tags:
                if len(tag[1]) < n:
                    continue
                ref = delta_tree(tree, {tag: ONE})
                assert delta_tree_by_cherries(tree, {tag: ONE}, "first") == ref
                assert delta_tree_by_cherries(tree, {tag: ONE}, "last") == ref


def name_map(variant, max_weight):
    """tag -> generator name, or None where the variant's model has no such generator.

    The tags whose cobracket the variant's model differential is: t0 -> L0
    and t1 -> L1 over model_x, one -> K, M or N.
    """
    spec = VARIANTS[variant]
    model = spec.model(max_weight)
    families = {"t0": "L0", "t1": "L1"} if spec.prefix in ("L0", "L1") else {"one": spec.prefix}
    return {
        (family, w): f"{prefix}_{w}" if f"{prefix}_{w}" in model.index else None
        for w in lyndon_words(max_weight)
        for family, prefix in families.items()
    }


def check_generator_map(gmap: dict, model: CdgaPresentation) -> None:
    """Differential compatibility: d(psi(tag)) must be -psi-image of the cobracket.

    Degree-1 generators anticommute, so a ^ b maps to its wedge coefficient whole.
    """
    bad = [gen for gen in gmap.values() if gen is not None and model.degree.get(gen) != 1]
    if bad:
        raise ValueError(f"{bad[0]!r} is not a degree-1 generator of {model.name}")
    for tag, gen in gmap.items():
        image: dict = {}
        for (a, b), c in cobracket({tag: 1}).items():
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
            raise ValueError(f"generator map is not differential-compatible at tag {tag}")


def test_generator_maps_compatible():
    # the models' differentials are the coLie cobracket by name, for every
    # variant to weight 8: the one place the unit formula's reading of d as
    # the dual cobracket is checked against the tag cobracket
    for variant, spec in VARIANTS.items():
        for max_weight in range(2, 9):
            check_generator_map(name_map(variant, max_weight), spec.model(max_weight))


@pytest.mark.parametrize("variant, gen", [("plain", "L0_0011"), ("const", "K_0001011")])
def test_generator_map_check_sees_one_flipped_model_coefficient(variant, gen):
    spec = VARIANTS[variant]
    max_weight = len(gen.split("_")[1])
    base = spec.model(max_weight)
    diff = {k: dict(v) for k, v in base.differential.items()}
    monomial = next(iter(diff[gen]))
    diff[gen][monomial] = -diff[gen][monomial]
    bad = CdgaPresentation(base.generators, diff, name="bad", validate=False)
    check_generator_map(name_map(variant, max_weight), base)
    with pytest.raises(ValueError, match="not differential-compatible"):
        check_generator_map(name_map(variant, max_weight), bad)


def test_incompatible_generator_map_rejected():
    gmap = name_map("plain", 3)
    gmap[("t0", "01")] = "L1_01"
    gmap[("t1", "01")] = "L0_01"
    with pytest.raises(ValueError, match="not differential-compatible"):
        check_generator_map(gmap, model_x(3))


def test_generator_map_naming_a_non_generator_rejected():
    # L0_0 is killed in model_x: a map naming it raised a bare KeyError
    gmap = name_map("plain", 3)
    gmap[("t0", "001")] = "L0_0"
    with pytest.raises(ValueError, match="'L0_0' is not a degree-1 generator"):
        check_generator_map(gmap, model_x(3))


def reference_generator_map(variant, max_weight):
    """The name map written out, with the killed words of the first models."""
    killed = {"plain": ("0",), "one": ("1",)}.get(variant, ("0", "1"))
    prefix = {"diff": "M", "const": "K", "point": "N"}.get(variant)
    gmap = {}
    for w in lyndon_words(max_weight):
        if prefix is None:
            gmap[("t0", w)] = None if w == "0" else f"L0_{w}"
            gmap[("t1", w)] = None if w == "1" else f"L1_{w}"
        else:
            gmap[("one", w)] = None if w in killed else f"{prefix}_{w}"
    return gmap


@pytest.mark.parametrize("max_weight", range(1, 9))
def test_generator_maps_read_from_the_models(max_weight):
    # the name map that the compatibility check reads maps only the models'
    # killed generators to None, so the check cannot pass by skipping tags:
    # the models have M_0, M_1, N_0 and N_1, which the first models killed,
    # and no table entry has a weight-1 leg
    differ = {}
    for variant in lifts.VARIANTS:
        got, ref = name_map(variant, max_weight), reference_generator_map(variant, max_weight)
        assert list(got) == list(ref), variant
        differ.update({(variant, tag): gen for tag, gen in got.items() if gen != ref[tag]})
    assert differ == {
        ("diff", ("one", "0")): "M_0",
        ("diff", ("one", "1")): "M_1",
        ("point", ("one", "0")): "N_0",
        ("point", ("one", "1")): "N_1",
    }


def test_unknown_variant_is_a_value_error_naming_the_variants():
    calls = (
        lambda: lift_LB("01", "bogus"),
        lambda: closed_lift_oracle("01", "bogus"),
        lambda: verify_lift({}, "01", "bogus", "oracle"),
        lambda: adjunction_unit("01", "bogus"),
    )
    message = "unknown variant 'bogus'; expected one of plain, one, diff, const, point"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("word", ["10", "0110", "0", "", "012"])
def test_a_word_that_is_not_lyndon_is_rejected_before_any_work(monkeypatch, word):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("solve_unit_constants", "adjunction_unit", "closed_lift_oracle", "coefficient_rows"):
        monkeypatch.setattr(lifts, name, no_work)
    for method in ("auto", "claim", "oracle"):
        with pytest.raises(InvalidWordError):
            lift_LB(word, "plain", method)
    with pytest.raises(InvalidWordError):
        verify_EDQX(word)
    if len(word) > 1:
        with pytest.raises(InvalidWordError):
            geometric_lift(word)


@pytest.mark.parametrize("word", ["2", "a", "G"])
def test_a_one_letter_word_outside_the_alphabet_is_rejected(monkeypatch, word):
    # geometric_lift("2") once returned a slot on G_2, which no model has
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("lift_LB", "bar_transport", "geom_projection_images"):
        monkeypatch.setattr(lifts, name, no_work)
    with pytest.raises(InvalidWordError):
        geometric_lift(word)
    assert geometric_lift("0") == {(("G_0",),): 1}
    assert geometric_lift("1") == {(("G_1",),): 1}


def test_unit_reads_the_model_at_the_tag_weight(monkeypatch):
    # a model lighter than the source once gave a wrong, non-empty element
    model, total = model_x(4), {}
    for n in range(1, 5):
        for word, d in lifts._tree_sum(model_x, "L0_0011", n):
            add_term(total, word, published_constants(n) * d)
    weights = []

    def recording_model_x(max_weight):
        weights.append(max_weight)
        return model_x(max_weight)

    monkeypatch.setitem(lifts.VARIANTS, "plain", lifts.VariantSpec("L0", recording_model_x))
    unit = adjunction_unit("0011", "plain")
    # the unit's own model, then the source's tree sums with 2, 3 and 4
    # leaves, each over the same model; lower generators at their own weights
    assert weights[0] == 4 and weights.count(4) == 4 and max(weights) == 4
    assert unit == hain_projector(total, model) == lift_LB("0011", "plain", "claim")[0]
    assert pi1(unit) == {("L0_0011",): Fraction(1, 2)}


@pytest.mark.parametrize("tag", [("plain", "0"), ("one", "1"), ("plain", "10")])
def test_unit_rejects_a_tag_the_slot_map_does_not_name(monkeypatch, tag):
    # the source (variant, W) names prefix_W, which the model at weight |W|
    # must have; the killed L0_0 once gave {} without an error
    def no_work(*args, **kwargs):
        raise AssertionError("a tree sum was built")

    variant, word = tag
    gen = f"{VARIANTS[variant].prefix}_{word}"
    monkeypatch.setattr(lifts, "_tree_sum", no_work)
    with pytest.raises(ValueError, match=rf"^{gen} is not a generator of x@{len(word)}$"):
        adjunction_unit(word, variant)


def test_solved_constants_drop_the_power_of_two():
    # frozen from the exact closedness solve; cross-checked below against the
    # oracle lifts, which are unique at these weights
    solved = solve_unit_constants(5)
    assert solved == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 20),
        Fraction(1, 70),
    )
    for n in range(1, 6):
        assert solved[n - 1] == Fraction(1, n * catalan(n - 1))
        assert published_constants(n) == solved[n - 1] / 2**n
    # each weight's own solve gives the same constants up to its degree
    for n in range(2, 6):
        assert solve_unit_constants.__wrapped__(n) == solved[:n]
    assert solve_unit_constants.__wrapped__(1) == (ONE,)


def record_outer_tree_sums(monkeypatch) -> list:
    """The outermost ``_tree_sum`` calls from now on, as (builder, gen, n).

    _tree_sum recurses through the module name, so from cold caches the
    recorder also sees the inner calls; it records only the outermost ones,
    the calls that build a source's rows.
    """
    tree_sum = lifts._tree_sum
    built = []
    depth = 0

    def recording_tree_sum(builder, gen, n):
        nonlocal depth
        if depth == 0:
            built.append((builder, gen, n))
        depth += 1
        try:
            return tree_sum(builder, gen, n)
        finally:
            depth -= 1

    monkeypatch.setattr(lifts, "_tree_sum", recording_tree_sum)
    return built


def test_no_per_degree_constants_at_weight_6(monkeypatch):
    assert solve_unit_constants(6) is None
    # the probe streams its rows into the solve, which stops at the first
    # contradiction: the rows of the 42 source generators are built only up
    # to the ninth, L0_000101, each from tree sums of model_x, which reads
    # its own model_x(|w|)
    lifts._tree_sum.cache_clear()
    lifts._unit_rows.cache_clear()
    built = record_outer_tree_sums(monkeypatch)
    assert solve_unit_constants.__wrapped__(6) is None
    sources = [(f"{p}_{w}", len(w)) for w in lyndon_words(6) if len(w) > 1 for p in ("L0", "L1")]
    assert len(sources) == 42
    assert built == [(model_x, gen, n) for gen, w in sources[:9] for n in range(1, w + 1)]
    assert built[-1] == (model_x, "L0_000101", 6)


@pytest.mark.parametrize("max_weight", [3, 4, 5, 6])
def test_each_probe_builds_no_rows_the_probe_before_built(monkeypatch, max_weight):
    lifts._unit_rows.cache_clear()
    built = record_outer_tree_sums(monkeypatch)
    solve_unit_constants.__wrapped__(max_weight - 1)
    before = {gen for _, gen, _ in built}
    misses = lifts._unit_rows.cache_info().misses
    built.clear()
    solve_unit_constants.__wrapped__(max_weight)
    after = {gen for _, gen, _ in built}
    # only the sources of the new weight are built, each once
    assert after and before.isdisjoint(after)
    assert all(len(gen.split("_")[1]) == max_weight for gen in after)
    assert lifts._unit_rows.cache_info().misses - misses == len(after)


def test_each_source_has_the_same_rows_over_every_larger_model():
    # the models are nested truncations, so a source's rows over its own
    # model_x(|w|) are the rows over model_x(6), in the same order; the
    # tree sums here read model_x(6) for every generator
    model = model_x(6)

    def weight_6_model(weight):
        return model

    for w in (w for w in lyndon_words(6) if len(w) > 1):
        for gen in (f"L0_{w}", f"L1_{w}"):
            parts = ((n, dict(lifts._tree_sum(weight_6_model, gen, n))) for n in range(1, len(w) + 1))
            rows = tuple(tuple(row.items()) for row in lifts._closedness_rows(parts, model))
            assert lifts._unit_rows(gen) == rows, gen
    with pytest.raises(TypeError):
        lifts._unit_rows("L0_01")[0][0] = (1, 0)


def test_a_cold_weight_6_verify_builds_each_tree_sum_once(monkeypatch):
    # the sums are keyed on the model builder, not on the model object, so
    # the probe, the claim and auto lifts and the audit share one sum per
    # (generator, n); keyed on each model_x(m) it was 411 entries
    for path in Path(lifts.__file__).parent.glob("*.py"):
        for obj in vars(importlib.import_module(f"lyndonbar.{path.stem}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    tree_sum, keys = lifts._tree_sum, set()

    def recording_tree_sum(builder, gen, n):
        keys.add((builder, gen, n))
        return tree_sum(builder, gen, n)

    monkeypatch.setattr(lifts, "_tree_sum", recording_tree_sum)
    assert [r.status for r in run_suites(["all"], max_weight=6) if r.status == "fail"] == []
    assert len({(gen, n) for _, gen, n in keys}) == len(keys) == 262
    assert tree_sum.cache_info().currsize == 262


def reference_tree_sum(tag, n, gmap) -> dict:
    """The tag's tree cobrackets summed over the enumerated trees with n leaves,
    as bar words of generator slots in Fractions, sorted; words with a tag
    that ``gmap`` sends to None drop out."""
    out: dict = {}
    for tree in enumerate_trees(n):
        for key, c in fraction_delta_tree(tree, tag).items():
            gens = [gmap.get(t) for t in key]
            if None not in gens:
                add_term(out, tuple((g,) for g in gens), c)
    return dict(sorted(out.items()))


def test_integer_tree_sums_match_the_fraction_reference():
    # the split recursion over the model's differential against the sum over
    # enumerated trees of the tag cobracket, to weight 7
    for variant, spec in VARIANTS.items():
        gmap = name_map(variant, 7)
        sources = {gen: tag for tag, gen in gmap.items() if gen}
        for w in lyndon_words(7):
            gen = f"{spec.prefix}_{w}"
            if gen not in sources:
                continue
            for n in range(1, len(w) + 1):
                ref = reference_tree_sum(sources[gen], n, gmap)
                assert all(type(c) is Fraction for c in ref.values())
                got = lifts._tree_sum(spec.model, gen, n)
                assert all(type(c) is int for _, c in got)
                assert dict(got) == ref, (gen, n)
                assert list(dict(got)) == list(ref)


def test_tree_sums_are_summed_in_the_models_ring():
    # an isomorphic model, generator g scaled by s_g, whose differential has
    # non-integral coefficients: each word's sum is the model_x sum times
    # s_g / prod s_slot, exactly, and the model_x sums stay ints
    def builder(weight):
        return rescaled(model_x(weight), f"rescaled x@{weight}")

    big = model_x(4)
    scale = {g.name: i + 2 for i, g in enumerate(big.generators)}
    non_integral = False
    for g in big.generators:
        for n in range(1, g.weight + 1):
            plain = lifts._tree_sum(model_x, g.name, n)
            assert all(type(c) is int for _, c in plain)
            expected = {}
            for word, c in plain:
                factor = Fraction(scale[g.name])
                for (m,) in word:
                    factor /= scale[m]
                expected[word] = c * factor
            got = dict(lifts._tree_sum(builder, g.name, n))
            assert got == expected, (g.name, n)
            non_integral |= any(Fraction(c).denominator > 1 for c in got.values())
    assert non_integral


def fraction_probe_rows(max_weight, boundary_first=False):
    """The unit probe's rows from the tag reference, through the Fraction
    projector and differential: d_B(p(.)), or p(d_B(.)) if ``boundary_first``."""
    model = model_x(max_weight)
    gmap = name_map("plain", max_weight)
    for w in lyndon_words(max_weight):
        if len(w) < 2:
            continue
        for fam in ("t0", "t1"):
            rows: dict = {}
            for n in range(1, len(w) + 1):
                tree = reference_tree_sum((fam, w), n, gmap)
                if boundary_first:
                    image = hain_projector(bar_differential(tree, model), model)
                else:
                    image = bar_differential(hain_projector(tree, model), model)
                for word, c in image.items():
                    rows.setdefault(word, {})[n] = c
            for byn in rows.values():
                yield byn, {"closed": -byn.pop(1, Fraction(0))}


def homogeneous(equations) -> list:
    """The equations (row, {"closed": r}) as homogeneous rows over the
    variables and one more column, ``rhs``, holding -r."""
    out = []
    for row, rhs in equations:
        row = {**row, "rhs": -rhs.get("closed", 0)}
        out.append({k: v for k, v in row.items() if v})
    return out


def multiset(rows) -> Counter:
    """The rows as a multiset, each with its entries in insertion order."""
    return Counter(tuple(row.items()) for row in rows)


def rank(rows, var_order) -> int:
    """The rank of homogeneous rows, read from solve_affine's ``n_free``."""
    solutions, n_free = solve_affine(((row, {}) for row in rows), var_order, labels=["rank"])
    assert solutions is not None
    return len(var_order) - n_free


def assert_same_span(*systems) -> None:
    """The row systems span one nonzero row space: each one's rank is the rank of all."""
    rows = [row for system in systems for row in system]
    var_order = list(dict.fromkeys(k for row in rows for k in row))
    together = rank(rows, var_order)
    assert together > 0
    assert [rank(system, var_order) for system in systems] == [together] * len(systems)


@pytest.mark.parametrize("max_weight", [3, 4, 5])
def test_probe_rows_are_the_fraction_rows_in_integers(monkeypatch, max_weight):
    captured = []

    def recording_solve(equations, var_order, *, labels):
        equations = list(equations)
        captured.extend(equations)
        return solve_affine(equations, var_order, labels=labels)

    expected = solve_unit_constants(5)[:max_weight]  # solved before the recording starts
    monkeypatch.setattr(lifts, "solve_affine", recording_solve)
    assert solve_unit_constants.__wrapped__(max_weight) == expected
    assert all(type(c) is int for row, rhs in captured for c in (*row.values(), *rhs.values()))
    # the same affine constraints on the constants, rows and right-hand sides
    # together, as the Fraction d_B(p(...)) rows of every source
    reference = list(fraction_probe_rows(max_weight))
    assert_same_span(homogeneous(captured), homogeneous(reference))
    # p is a chain map: p(d_B(...)), where p meets the boundary's odd slots,
    # gives the same equations
    projected = fraction_probe_rows(max_weight, boundary_first=True)
    assert multiset(homogeneous(projected)) == multiset(homogeneous(reference))


def test_unit_on_weight_one_tag():
    # weight-1 generators are closed: one slot, weighted by the degree-1 constant
    unit = adjunction_unit("1", "plain", constants=lambda n: solve_unit_constants(2)[n - 1])
    assert unit == {(("L0_1",),): 1}
    assert adjunction_unit("0", "one") == {(("L1_0",),): Fraction(1, 2)}


def test_weight_two_lift_value():
    element, report = lift_LB("01", "plain", "auto")
    assert element == {
        (("L0_01",),): 1,
        (("L1_0",), ("L0_1",)): Fraction(1, 2),
        (("L0_1",), ("L1_0",)): Fraction(-1, 2),
    }
    assert report.method == "unit" and report.all_ok


def test_unit_equals_unique_oracle_to_weight_4():
    for W in lyndon_words(4):
        if len(W) < 2:
            continue
        u, ru = lift_LB(W, "plain", "auto")
        o, ro = lift_LB(W, "plain", "oracle")
        assert ro.affine_dim == 0
        assert u == o


def test_oracle_feasible_all_variants_weights_2_to_5():
    for W in lyndon_words(5):
        if len(W) < 2:
            continue
        for variant in ("plain", "one", "diff", "const"):
            element, report = lift_LB(W, variant, "oracle")
            assert report.all_ok, (W, variant, report)


def test_auto_falls_back_to_the_oracle_at_weight_6():
    element, report = lift_LB("001011", "one")
    assert report.method == "oracle" and report.affine_dim == 0 and report.all_ok
    assert report.notes == ("no per-degree unit constants at weight 6; oracle fallback",)
    assert element == closed_lift_oracle("001011", "one")[0]


def test_auto_reports_a_failing_unit_lift_as_it_is(monkeypatch):
    # constants that exist but do not close the formula: auto returns the
    # unit formula's lift with its failing report, not the oracle's lift
    monkeypatch.setattr(
        lifts,
        "solve_unit_constants",
        lambda n: tuple(published_constants(k) for k in range(1, n + 1)),
    )
    lifts._lift_LB.cache_clear()
    try:
        element, report = lift_LB("0011", "plain")
    finally:
        lifts._lift_LB.cache_clear()
    assert report.method == "unit" and not report.all_ok and not report.closed
    assert report.notes == ()
    assert element == adjunction_unit("0011", "plain")
    assert element != lift_LB("0011", "plain", "oracle")[0]


def test_auto_gives_passing_unit_lifts_wherever_constants_exist():
    # constants exist at weights 2 to 5 only, and there every auto lift of
    # each of the five variants is the unit formula's and passes every property
    assert len(lifts.VARIANTS) == 5
    for W in lyndon_words(5):
        if len(W) < 2:
            continue
        for variant in lifts.VARIANTS:
            _, report = lift_LB(W, variant)
            assert report.method == "unit" and report.all_ok, (W, variant, report)
            assert report.notes == ()
    assert solve_unit_constants(5) is not None
    assert solve_unit_constants(6) is None
    assert solve_unit_constants(7) is None


@pytest.mark.parametrize("order", [("auto", "oracle"), ("oracle", "auto")])
def test_auto_and_oracle_share_one_lift_at_weight_6(monkeypatch, order):
    calls = []
    solve = lifts.closed_lift_oracle

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lifts, "closed_lift_oracle", counting)
    lifts._lift_LB.cache_clear()
    try:
        got = {method: lift_LB("001011", "one", method) for method in order}
    finally:
        lifts._lift_LB.cache_clear()
    assert calls == [("001011", "one")]
    (auto, auto_report), (oracle, oracle_report) = got["auto"], got["oracle"]
    assert auto == oracle
    assert auto_report.method == oracle_report.method == "oracle" and auto_report.all_ok
    assert oracle_report.notes == ()
    assert auto_report.notes == ("no per-degree unit constants at weight 6; oracle fallback",)
    assert dataclasses.replace(auto_report, notes=()) == oracle_report


def test_unknown_lift_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        lift_LB("01", "plain", "bogus")


def test_const_lift_uses_only_constant_generators():
    element, _ = lift_LB("0011", "const", "auto")
    for word in element:
        assert all(g.startswith("K_") for m in word for g in m)


def test_claim_constants_flagged_non_closed():
    element, report = lift_LB("01", "plain", "claim")
    assert not report.closed and not report.pi1_ok
    assert "NON-CLOSED with published constants" in report.notes
    assert pi1(element) == {("L0_01",): Fraction(1, 2)}


def test_a_lift_with_one_word_off_degree_zero_is_flagged():
    element, report = lift_LB("0011", "plain", "oracle")
    assert report.degree_zero and len(element) > 1
    # the slot L0_1 L1_0 has desuspended degree 1; the word is added last
    word = (("L0_1", "L1_0"), ("L0_01",))
    bad = {**element, word: ONE}
    got = verify_lift(bad, "0011", "plain", "oracle")
    assert not got.degree_zero and not got.all_ok
    got = verify_lift(element, "0011", "plain", "oracle")
    assert got.degree_zero


@pytest.mark.parametrize("delta", [ONE, Fraction(1, 7)])
def test_a_lift_with_one_coefficient_changed_is_not_hain_fixed(delta):
    element, report = lift_LB("00101", "plain", "oracle")
    assert report.all_ok
    # p fixes no word of two slots or more, so the changed lift is not p-fixed
    word = next(w for w in element if len(w) > 1)
    bad = {**element, word: element[word] + delta}
    assert (to_numerators(bad)[0] % 7 == 0) == (delta == Fraction(1, 7))
    assert to_numerators(element)[0] % 7
    got = verify_lift(bad, "00101", "plain", "oracle")
    assert not got.hain_fixed and not got.all_ok
    assert got.pi1_ok and got.degree_zero


def test_a_lift_with_one_extra_degree_zero_word_is_not_closed():
    element, report = lift_LB("0011", "plain", "oracle")
    assert report.closed
    # d_B of the lift is 0, so the extended lift's d_B is the new word's
    model = model_x(4)
    word = next(
        w
        for w in degree_zero_words(model, 4)
        if len(w) > 1 and w not in element and bar_differential({w: ONE}, model)
    )
    got = verify_lift({**element, word: ONE}, "0011", "plain", "oracle")
    assert not got.closed and not got.all_ok
    assert got.pi1_ok and got.degree_zero


@pytest.mark.parametrize(
    "W, variant", [("01", "plain"), ("0011", "plain"), ("00101", "diff"), ("001011", "point")]
)
def test_the_empty_element_reads_closed_and_hain_fixed_only(W, variant):
    got = verify_lift({}, W, variant, "oracle")
    flags = (got.pi1_ok, got.hain_fixed, got.degree_zero, got.closed, got.cobracket_ok)
    assert flags == (False, True, True, True, False)


def reference_closedness_rows(parts, model, denom) -> list:
    """The closedness rows as d_B of each part's image under p."""
    rows: dict = {}
    for k, part in parts:
        image = projector_numerators(part, model, denom)
        for word, c in differential_numerators(image, model).items():
            rows.setdefault(word, {})[k] = c
    return list(rows.values())


def projected_closedness_rows(parts, model, denom) -> list:
    """The closedness rows as p of each part's d_B."""
    rows: dict = {}
    for k, part in parts:
        boundary = differential_numerators(part, model)
        for word, c in projector_numerators(boundary, model, denom).items():
            if c:
                rows.setdefault(word, {})[k] = c
    return list(rows.values())


def closedness_rows_against_the_reference(monkeypatch, build, *args) -> int:
    """Run ``build(*args)`` with every ``_closedness_rows`` call checked against
    the per-part d_B(p(.)) reference; returns the number of calls.

    The pairings with the Lyndon brackets are not the reference's rows value
    for value, but they must span the same rows: then the solve, which keeps
    the reduced row echelon form of the span, is the same.  The reference is
    also checked against p(d_B(.)), value for value, where p meets the odd
    slot of each boundary word.
    """
    calls = 0
    kernel = lifts._closedness_rows

    def checked(parts, model):
        nonlocal calls
        parts = list(parts)
        got = kernel(parts, model)
        assert all(type(c) is int for row in got for c in row.values())
        denom = math.lcm(*range(1, max(len(w) for _, part in parts for w in part) + 1))
        reference = reference_closedness_rows(parts, model, denom)
        projected = projected_closedness_rows(parts, model, denom)
        # p is a chain map: the two references agree as multisets of rows
        assert multiset(projected) == multiset(reference)
        assert_same_span(got, reference)
        calls += 1
        return got

    monkeypatch.setattr(lifts, "_closedness_rows", checked)
    build(*args)
    return calls


@pytest.mark.parametrize("model", ["model_x", "model_a1", "model_point", "model_geom"])
@pytest.mark.parametrize("weight", [2, 3, 4, 5, 6])
def test_oracle_closedness_rows_match_the_per_part_reference(monkeypatch, model, weight):
    solve, presentation = lifts._oracle_solve.__wrapped__, getattr(dgcore, model)(weight)
    assert closedness_rows_against_the_reference(monkeypatch, solve, presentation, weight) == 1


@pytest.mark.parametrize("model", ["model_x", "model_a1", "model_point", "model_geom"])
@pytest.mark.parametrize("weight", [2, 3, 4, 5, 6])
def test_the_cached_oracle_solve_holds_only_nonzero_values(model, weight):
    # every lift is unique, so no value is a free variable's; the cache
    # holds each target's nonzero coefficients c_l and nothing else
    presentation = getattr(dgcore, model)(weight)
    solutions, n_free = lifts._oracle_solve(presentation, weight)
    lyndon = set(degree_zero_words(presentation, weight))
    assert solutions and n_free == 0
    for coefficients in solutions.values():
        assert coefficients and coefficients.keys() <= lyndon
        assert all(type(c) is Fraction and c for c in coefficients.values())


@pytest.mark.parametrize("max_weight", [2, 3, 4, 5, 6])
def test_probe_closedness_rows_match_the_per_part_reference(monkeypatch, max_weight):
    probe = solve_unit_constants.__wrapped__
    lifts._unit_rows.cache_clear()  # so the probe builds its rows
    assert closedness_rows_against_the_reference(monkeypatch, probe, max_weight)


@pytest.mark.parametrize(
    "bracket, term, weight",
    [((0, 1), max, 4), ((0, 1), min, 4), ((0, 2, 1), min, 4), ((0, 0, 1), max, 5), ((0, 1, 2), min, 5)],
)
def test_span_check_sees_one_bracket_term_with_its_sign_flipped(monkeypatch, bracket, term, weight):
    # the first or last word of one bracket expansion with its sign flipped,
    # in the oracle over model_x
    expand = lifts.expand

    def flipped(w):
        out = expand(w)
        if w == bracket:
            out[term(out)] *= -1
        return out

    monkeypatch.setattr(lifts, "expand", flipped)
    lifts._lyndon_pairings.cache_clear()
    try:
        with pytest.raises(AssertionError):
            closedness_rows_against_the_reference(
                monkeypatch, lifts._oracle_solve.__wrapped__, model_x(weight), weight
            )
    finally:
        lifts._lyndon_pairings.cache_clear()


def test_closedness_rows_reject_a_boundary_word_with_two_odd_slots():
    # a slot holding a two-generator monomial is odd, and d_B of the next
    # slot writes a second odd one, where the ungraded pairing is not p
    model = model_x(3)
    part = {(("L0_1", "L1_0"), ("L0_01",)): 1}
    with pytest.raises(ValueError, match="more than one odd slot"):
        lifts._closedness_rows([(0, part)], model)


def test_the_cached_pairing_index_is_read_only():
    index = lifts._lyndon_pairings((0, 0, 1))
    # [0, [0, 1]] = 001 - 2 010 + 100, the one Lyndon arrangement of 001
    assert dict(index) == {(0, 0, 1): (((0, 0, 1), 1),), (0, 1, 0): (((0, 0, 1), -2),), (1, 0, 0): (((0, 0, 1), 1),)}
    with pytest.raises(TypeError):
        index[(0, 1, 0)] = (((0, 0, 1), 2),)
    with pytest.raises(AttributeError):
        index[(0, 1, 0)].append(((0, 0, 1), 2))
    assert lifts._lyndon_pairings((0, 0, 1))[(0, 1, 0)] == (((0, 0, 1), -2),)


def reference_lyndon_pairings(content) -> dict:
    """The pairing index over every ordering of ``content``, duplicates dropped."""
    index: dict = {}
    for L in sorted(set(permutations(content))):
        if is_lyndon_sequence(L):
            for word, c in expand(L).items():
                index.setdefault(word, []).append((L, c))
    return {w: tuple(pairs) for w, pairs in index.items()}


def test_the_pairing_index_reads_each_arrangement_once_in_order():
    for n in range(1, 8):
        for content in combinations_with_replacement(range(4), n):
            assert list(lifts._arrangements(content)) == sorted(set(permutations(content)))
            got = lifts._lyndon_pairings.__wrapped__(content)
            assert list(got.items()) == list(reference_lyndon_pairings(content).items()), content


@pytest.mark.parametrize("model", ["model_x", "model_a1", "model_point", "model_geom"])
@pytest.mark.parametrize("weight", [2, 3, 4, 5, 6, 7])
def test_the_lyndon_slot_words_are_the_lyndon_words_of_the_slice(model, weight):
    presentation = getattr(dgcore, model)(weight)
    want = [w for w in degree_zero_words(presentation, weight) if is_lyndon_sequence(w)]
    assert lifts._lyndon_slot_words(presentation, weight) == want


def test_the_prescribed_cobracket_is_cached_read_only():
    got = lifts._prescribed_cobracket("0011", "plain")
    assert got is lifts._prescribed_cobracket("0011", "plain")
    assert dict(got) == table_wedge("0011", "L0", model_x(4), lambda fam, u: {((f"{fam}_{u}",),): 1})
    with pytest.raises(TypeError):
        got[next(iter(got))] = 0


def lyndon_route_against_the_descent(b, model) -> None:
    """p of ``b`` through its Lyndon coordinates equals the descent p, value for value."""
    ints = to_numerators(b)[1]
    denom = math.lcm(*range(1, max(map(len, ints), default=0) + 1))
    want = {w: c for w, c in projector_numerators(ints, model, denom).items() if c}
    image = projector_numerators(lifts._lyndon_coordinates(ints, model), model, denom)
    got = {w: c for w, c in image.items() if c}
    assert got == want, b


ORACLE_LIFTS = [(W, variant) for W in lyndon_words(7) if len(W) > 1 for variant in sorted(VARIANTS)]


@pytest.mark.parametrize("W, variant", ORACLE_LIFTS)
def test_the_lyndon_route_is_p_on_every_oracle_lift_and_its_perturbations(W, variant):
    element, _ = closed_lift_oracle(W, variant)
    model = VARIANTS[variant].model(len(W))
    lyndon_route_against_the_descent(element, model)
    # 1 added at a random word of the lift, at a random degree-0 word of
    # the slice, and at the single slot
    rng = random.Random(f"{W} {variant}")
    words = sorted(element)
    changed = rng.choice(words)
    added = rng.choice(degree_zero_words(model, len(W)))
    single = next(w for w in words if len(w) == 1)
    for word in (changed, added, single):
        perturbed = dict(element)
        add_term(perturbed, word, 1)
        lyndon_route_against_the_descent(perturbed, model)


@pytest.mark.parametrize("model", ["model_x", "model_a1", "model_point", "model_geom"])
@pytest.mark.parametrize("weight", [2, 3, 4, 5, 6, 7])
def test_the_lyndon_route_is_p_on_random_degree_zero_elements(model, weight):
    model = getattr(dgcore, model)(weight)
    words = degree_zero_words(model, weight)
    rng = random.Random(weight)
    for _ in range(20):
        b: dict = {}
        for word in rng.sample(words, min(4, len(words))):
            # the word and a few rearrangements of its slots, which share its
            # content and so reach the triangular solve
            for w in [word] + [tuple(rng.sample(word, len(word))) for _ in range(3)]:
                add_term(b, w, rng.randint(-3, 3))
        lyndon_route_against_the_descent(b, model)


@pytest.mark.parametrize("W", [W for W in lyndon_words(6) if len(W) > 1])
def test_hain_fixed_agrees_with_the_descent_on_every_perturbed_plain_lift(W):
    element, _ = closed_lift_oracle(W, "plain")
    model = model_x(len(W))
    verdicts = Counter()
    for word in element:
        bad = {**element, word: element[word] + 1}
        got = verify_lift(bad, W, "plain", "oracle")
        assert got.hain_fixed == (hain_projector(bad, model) == bad), word
        verdicts[got.hain_fixed, len(word)] += 1
    # only the changed single slot stays Hain-fixed
    assert verdicts[True, 1] == 1
    assert not any(fixed for fixed, length in verdicts if length > 1)


def closed_against_the_boundary(b, W, variant) -> LiftReport:
    """verify_lift's closedness verdict on ``b`` equals d_B(b) == 0 taken on b's words."""
    got = verify_lift(b, W, variant, "oracle")
    model = VARIANTS[variant].model(len(W))
    assert got.closed == (not differential_numerators(to_numerators(b)[1], model)), b
    return got


@pytest.mark.parametrize("W, variant", ORACLE_LIFTS)
def test_the_closedness_verdict_is_d_b_on_every_oracle_lift_and_its_perturbations(W, variant):
    element, _ = closed_lift_oracle(W, variant)
    model = VARIANTS[variant].model(len(W))
    got = closed_against_the_boundary(element, W, variant)
    assert got.hain_fixed and got.closed
    # 1 added at three words of the lift: off the single slot p fixes, the
    # sum is not Hain-fixed and d_B runs
    rng = random.Random(f"closed {W} {variant}")
    for word in rng.sample(sorted(element), min(3, len(element))):
        perturbed = dict(element)
        add_term(perturbed, word, 1)
        got = closed_against_the_boundary(perturbed, W, variant)
        assert got.hain_fixed == (len(word) == 1)
    # p(b + l) for a slice word l: Hain-fixed, and closed only if d_B(p(l)) = 0
    added = rng.choice(degree_zero_words(model, len(W)))
    projected = hain_projector(combine((1, element), (1, {added: ONE})), model)
    assert closed_against_the_boundary(projected, W, variant).hain_fixed
    # b plus a shuffle of two slice words, which p kills: the sum has b's
    # Lyndon coordinates, but it is not Hain-fixed, and d_B of the shuffle is
    # a shuffle that is seldom 0
    n = rng.randint(1, len(W) - 1)
    u, v = (rng.choice(degree_zero_words(model, k)) for k in (n, len(W) - n))
    shuffled = combine((1, element), (1, shuffle({u: ONE}, {v: ONE}, model)))
    assert not closed_against_the_boundary(shuffled, W, variant).hain_fixed


def test_p_of_a_lift_plus_a_slice_word_is_seldom_closed():
    # the case the Lyndon coordinates decide, with both verdicts in it
    verdicts = Counter()
    for W in (W for W in lyndon_words(5) if len(W) > 1):
        element, _ = closed_lift_oracle(W, "plain")
        model = model_x(len(W))
        for added in degree_zero_words(model, len(W)):
            projected = hain_projector(combine((1, element), (1, {added: ONE})), model)
            got = closed_against_the_boundary(projected, W, "plain")
            assert got.hain_fixed
            verdicts[got.closed] += 1
    assert verdicts[True] and verdicts[False] > 5 * verdicts[True]


@pytest.mark.parametrize("W, variant", [("0011", "plain"), ("00101", "diff"), ("001011", "point")])
def test_a_hain_fixed_lift_is_closed_from_its_oracle_coordinates(monkeypatch, W, variant):
    # the Lyndon coordinates of an oracle lift are the solve's c_l, and
    # closedness is decided from their rows: d_B is taken of them alone
    element, _ = closed_lift_oracle(W, variant)
    model = VARIANTS[variant].model(len(W))
    den, ints = to_numerators(element)
    solution = lifts._oracle_solve(model, len(W))[0][f"{VARIANTS[variant].prefix}_{W}"]
    coordinates = {l: c * den for l, c in solution.items()}
    assert lifts._lyndon_coordinates(ints, model) == coordinates
    seen, boundaries = [], []
    rows, boundary = lifts._closedness_rows, lifts.differential_numerators

    def recording_rows(parts, model):
        parts = list(parts)
        seen.append(parts)
        return rows(parts, model)

    def recording_boundary(b, model):
        boundaries.append(b)
        return boundary(b, model)

    monkeypatch.setattr(lifts, "_closedness_rows", recording_rows)
    monkeypatch.setattr(lifts, "differential_numerators", recording_boundary)
    got = verify_lift(element, W, variant, "oracle")
    assert got.all_ok
    assert boundaries == [coordinates] and len(coordinates) < len(element)
    assert seen == [[(0, coordinates)]]


def test_the_lyndon_route_rejects_the_empty_word_as_the_descent_does():
    with pytest.raises(InvalidElementError, match="empty-word component present"):
        lifts._lyndon_coordinates({(): 1}, model_x(4))


def test_the_lyndon_route_refuses_an_odd_slot():
    # the slot L0_1 L1_0 has desuspended degree 1
    model = model_x(3)
    with pytest.raises(ValueError, match="is odd"):
        lifts._lyndon_coordinates({(("L0_1", "L1_0"), ("L0_01",)): 1}, model)


@pytest.mark.parametrize("word", [(("ZZ",),), ((),), (), (("L0_1",), ("ZZ",))])
def test_a_zero_term_is_skipped_before_its_slots_are_read(word):
    model = model_x(4)
    assert lifts._lyndon_coordinates({word: 0}, model) == {}
    want = verify_lift({}, "0011", "plain", "oracle")
    got = verify_lift({word: 0}, "0011", "plain", "oracle")
    assert got == want
    # and beside a lift, the zero term changes no flag
    element, _ = lift_LB("0011", "plain", "oracle")
    got = verify_lift({**element, word: 0}, "0011", "plain", "oracle")
    assert got.all_ok


def test_corrupted_model_detected_at_weight_4():
    base = model_x(4)
    diff = {k: dict(v) for k, v in base.differential.items()}
    diff["L0_01"][("L0_1", "L1_0")] = Fraction(2)
    bad = CdgaPresentation(base.generators, diff, name="bad", validate=False)
    with pytest.raises(InfeasibleLiftError):
        closed_lift_oracle("0011", "plain", bad)


def test_oracle_lifts_over_a_non_integral_presentation():
    model = rescaled(model_x(5), "rescaled x@5")
    fractional = False
    for W in lyndon_words_of_length(5):
        element, n_free = closed_lift_oracle(W, "plain", model)
        assert n_free == 0
        assert pi1(element) == {(f"L0_{W}",): 1}
        assert bar_differential(element, model) == {}
        assert hain_projector(element, model) == element
        fractional |= any(c.denominator > 1 for c in element.values())
    assert fractional


# sha256 of _canonical_lifts(variant, n) for n = 2..6, recorded while every
# target still had its own solve over all degree-0 words
GOLDEN_LIFTS = {
    "plain": (
        "8b2a1de03861544351599d03dff8f0704398c13c650e66f05a954e66809240d8",
        "eef65d2974686e7435e1f319833e6251d9b334bdb6080041ad14a0e2a3e0e3bc",
        "01889182d997be73a0deb94f5a57dac9bdb4b25bce785e599d16543b46f8fb86",
        "dcf7738d25c91594c301470dc0af319fc8cd61db3e6075e5336670c4d2a98175",
        "5454a2b0338d954023c9c2186dc88053b9dfcf5e7faafb9da425f38eb7107178",
    ),
    "one": (
        "8bd9c36f7544427489eab345f5e13631d53b482dd754c2dd72ed8e4a40e0b340",
        "4c7d8c1e9be8c5403b4b631ead01525c5afeb910cdc5fbc68ca6289bdc14cb75",
        "aa4886bd490aeff6dbc48c4b2d3d97cd3eafa7cc4d102cf0cdf741507bb3d413",
        "c50f4405e5df2d8e9f60f77477170da28a69d15cddd6606f304916b1bb88fa81",
        "0566a21c4905fc93ea4d108dda8018a15e35d81250e8c92b590598c5256306b9",
    ),
    "diff": (
        "3ed4e6e8fd2cf77e3bcf721dcf20a2a08769e8dbad817d3d998f9660857e796f",
        "2f85bd08c21ed27352c13440dcead5639ebb11f55eb45200cea4f5fd25e8d92f",
        "9d6bf628e7642d38c9e9f65522551c48c84fd7fa7eed52d22618c17b30f1d777",
        "e3539eca24958c987a95235a22d22d8cb16a0be7102be74c75c6970e02a8888c",
        "ec9f964ea5e41c4ac239931e74f4c544f2b1565f395108ce2d179d472f7a52d4",
    ),
    "const": (
        "caf77adbe55b203ab9059a5436a55529edd9bcced2f521fa3790802771e9bbfa",
        "0410118be33430cadb6e0946441fbef74efd35153570e12064221413c99e64f9",
        "05ea529b4e1c6312a300b5b56df46d0c8973f29b0c1b8fcb492dfbae32fd5a6c",
        "688f5148d6fab7692944b12b221f029cbfa50d5072a922cd3ed2993e7d84c540",
        "e0c96ee08a2f0a54b5f7b451e094b0d68558c6d5f5f2b38964c0927799b734ed",
    ),
    "point": (
        "a1e41078ad64cafd0b8ac1a0a12d7efb979289ddb52d4f822925a30528639017",
        "81504449658db3ab945ad915b8d537a70ee5d2fac1d2acce509f81bbcc13a1dd",
        "6b5fbb89aa4cd60aab21ebbe67082d5afc45cb5b811be0738d4b2a6e027f6fab",
        "0fab05a9c93108e5c5bae1e1d705e131cae6ae2275d74fadb141f2a4c14a2af7",
        "daa5dca284715dd7f1e157369429655bc38cda56c3449b7117e95ef0581298f3",
    ),
}


# sha256 of _canonical_method_lifts(variant, method), recorded while
# adjunction_unit took a model and a generator map
GOLDEN_METHOD_LIFTS = {
    ("claim", "plain"): "b98eb09c648a6729e5d5eae91a9b21b4003c0719a7296df01185f2f99bda2f28",
    ("claim", "one"): "2c1b5949fb4bf38422bbe10e936ad82838633f46a9d3c4e43816a968221ba219",
    ("claim", "diff"): "f7ece3db3114a869fce3371cd2c2cf454bf97e7842414329859f373452071989",
    ("claim", "const"): "7cc5ac72c02c3ef4dbb598a30984866819b5929d7ace5bdcaacaf61a0571bee9",
    ("claim", "point"): "d7e78105340b7c00a250e72405bf943618c528ccab33e9c94ec9bd03ce2de67f",
    ("auto", "plain"): "bdefb557e8a58e1eaa2f5daafb9d485a2543082b4fa6025236345100b9482bfa",
    ("auto", "one"): "877a4a25421e4ca1387e48797a1e5aca021f9f28daa76b75b1f4ed0997fd44f1",
    ("auto", "diff"): "2d6b22e63c316b4926bd7ab14ded93858c24668d826a09a39f9a774bdc7602ad",
    ("auto", "const"): "9a3f528825793acc8de7f6e246317a909e7577a84b6fa71671e836c4eb904dfd",
    ("auto", "point"): "059273279c41883968a02060e783055091c845b1758dd9828ce711d4a1dd25b9",
}


def _canonical_method_lifts(variant: str, method: str) -> str:
    """Every lift of weights 2..5 by ``method``, with sorted terms and its whole report, as JSON."""
    rows = []
    for n in range(2, 6):
        for W in lyndon_words_of_length(n):
            element, report = lift_LB(W, variant, method)
            terms = [[[list(m) for m in word], str(c)] for word, c in sorted(element.items())]
            rows.append([W, terms, dataclasses.asdict(report)])
    return json.dumps(rows)


@pytest.mark.parametrize("method, variant", list(GOLDEN_METHOD_LIFTS))
def test_claim_and_auto_lifts_match_golden_digests(method, variant):
    got = hashlib.sha256(_canonical_method_lifts(variant, method).encode()).hexdigest()
    assert got == GOLDEN_METHOD_LIFTS[method, variant]


def _canonical_lifts(variant: str, n: int) -> str:
    """Each weight-n oracle lift with sorted terms and its affine dimension, as JSON."""
    rows = []
    for W in lyndon_words_of_length(n):
        element, dim = closed_lift_oracle(W, variant)
        terms = [[[list(m) for m in word], str(c)] for word, c in sorted(element.items())]
        rows.append([W, terms, dim])
    return json.dumps(rows)


@pytest.mark.parametrize("variant", list(GOLDEN_LIFTS))
def test_oracle_lifts_match_golden_digests(variant):
    got = tuple(
        hashlib.sha256(_canonical_lifts(variant, n).encode()).hexdigest() for n in range(2, 7)
    )
    assert got == GOLDEN_LIFTS[variant]


def test_oracle_returns_a_fresh_lift_each_call():
    first, dim = closed_lift_oracle("0011", "plain")
    expected = dict(first)
    first[(("L0_1",),)] = ONE
    first.pop(next(iter(expected)))
    again, dim_again = closed_lift_oracle("0011", "plain")
    assert again == expected and dim_again == dim
    assert again is not closed_lift_oracle("0011", "plain")[0]


def test_lifts_are_fresh_each_call():
    element, report = lift_LB("001", "plain", "claim")
    expected = dict(element)
    assert report.notes == ("NON-CLOSED with published constants",) and not report.closed
    element[(("L0_1",),)] = ONE
    element.pop(next(iter(expected)))
    # the report is the cached one, and no caller can change it
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.closed = True
    with pytest.raises(AttributeError):
        report.notes.append("changed by the caller")
    again, report_again = lift_LB("001", "plain", "claim")
    assert again == expected
    assert report_again is report and not report_again.closed
    assert again is not lift_LB("001", "plain", "claim")[0]

    geom = geometric_lift("0011")
    expected = dict(geom)
    geom.clear()
    assert geometric_lift("0011") == expected != {}


def test_verify_edqx_weight_2_to_4():
    for W in lyndon_words(4):
        if len(W) < 2:
            continue
        r = verify_EDQX(W)
        assert r["ok"], (W, r)


def flip_one_row(monkeypatch, table, W):
    """Make ``lifts`` read ``table`` with the first row of W negated, and only that row.

    Callers read the lift of W before, so the cached lift and its report were
    made from the true tables.
    """
    true_rows = lifts.coefficient_rows
    rows = true_rows(table, len(W))[W]
    u, v, c = rows[0]
    assert c
    flipped = ((u, v, -c),) + rows[1:]

    def rows_with_one_flipped(name, max_weight):
        found = true_rows(name, max_weight)
        return {**found, W: flipped} if name == table and W in found else found

    monkeypatch.setattr(lifts, "coefficient_rows", rows_with_one_flipped)


def test_edqx_coefficient_identities_see_one_flipped_b_entry(monkeypatch):
    assert verify_EDQX("0011")["coefficient_identities"]
    flip_one_row(monkeypatch, "b", "0011")
    report = verify_EDQX("0011")
    assert not report["coefficient_identities"] and not report["ok"]


def test_edqx_coefficient_identities_see_one_flipped_alpha_row(monkeypatch):
    assert verify_EDQX("0011")["coefficient_identities"]
    flip_one_row(monkeypatch, "alpha", "0011")
    report = verify_EDQX("0011")
    assert not report["coefficient_identities"] and not report["ok"]


def reference_prescribed_cobracket_11(W, variant):
    """The tables without the minus, one generator on each leg, from a scan of each whole table."""
    spec = VARIANTS[variant]
    model = spec.model(len(W))
    out: dict = {}
    for table, left, right in QUADRATIC_TERMS[spec.prefix]:
        for (w, u, v), c in coefficient_table(table, len(W)).items():
            if w == W:
                legs = {((f"{left}_{u}",),): ONE}, {((f"{right}_{v}",),): ONE}
                for key, val in reference_wedge_pair(*legs, model).items():
                    add_term(out, key, c * val)
    return out


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_table_wedge_of_generators_is_the_prescribed_cobracket(variant):
    spec = VARIANTS[variant]
    nonzero = 0
    for W in lyndon_words(6):
        if len(W) < 2:
            continue
        model = spec.model(len(W))
        got = table_wedge(W, spec.prefix, model, lambda fam, u: {((f"{fam}_{u}",),): ONE})
        assert got == reference_prescribed_cobracket_11(W, variant), W
        nonzero += bool(got)
    assert nonzero


def reference_table_wedge(W, prefix, model, slot):
    """The rows' wedges summed one by one in Fractions."""
    out: dict = {}
    for table, left, right in QUADRATIC_TERMS[prefix]:
        for u, v, c in coefficient_rows(table, len(W)).get(W, ()):
            for key, val in reference_wedge_pair(slot(left, u), slot(right, v), model).items():
                add_term(out, key, c * val)
    return out


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_table_wedge_sums_legs_of_different_denominators(variant):
    """Legs over |U| and |V|, so the rows' wedges have different denominators."""
    spec = VARIANTS[variant]
    model = spec.model(6)

    def slot(fam, u):
        return {((f"{fam}_{u}",),): Fraction(1, len(u)), ((f"{fam}_{u}",), (f"{fam}_{u}",)): ONE}

    for W in lyndon_words_of_length(6):
        got = table_wedge(W, spec.prefix, model, slot)
        assert got == reference_table_wedge(W, spec.prefix, model, slot), W


def test_table_wedge_of_projected_lifts_matches_the_fraction_sum():
    for W in lyndon_words(6):
        if len(W) > 1:
            model = model_geom(len(W))
            got = table_wedge(W, "G", model, lambda _, u: geometric_lift(u))
            assert got == reference_table_wedge(W, "G", model, lambda _, u: geometric_lift(u)), W
            assert got, W


def test_geom_basis_sees_one_flipped_alpha_row(monkeypatch):
    assert verify_geom_basis(4)["cobracket_alpha_form"]["0011"]
    flip_one_row(monkeypatch, "alpha", "0011")
    report = verify_geom_basis(4)
    assert not report["cobracket_alpha_form"]["0011"] and not report["ok"]
    assert all(ok for W, ok in report["cobracket_alpha_form"].items() if W != "0011")


def change_geometric_lift(monkeypatch, W, change):
    """Make ``lifts`` read the projected lift of W through ``change`` (word -> new coefficient)."""
    true_lift = lifts.geometric_lift
    lift = true_lift(W)
    changed = {**lift, **change(lift)}
    monkeypatch.setattr(lifts, "geometric_lift", lambda U: dict(changed) if U == W else true_lift(U))


def test_geom_basis_sees_a_degree_one_coefficient_of_two(monkeypatch):
    change_geometric_lift(monkeypatch, "0011", lambda lift: {(("G_0011",),): 2 * ONE})
    report = verify_geom_basis(4)
    assert not report["ok"] and not report["triangular_unital"]["0011"]
    assert all(ok for W, ok in report["triangular_unital"].items() if W != "0011")
    assert all(report["cobracket_alpha_form"].values())


def test_geom_basis_sees_a_doubled_two_slot_coefficient_through_the_alpha_form(monkeypatch):
    # the ((G_u), (G_v)) coefficients are checked by the full cobracket
    # identity: at 001 itself and wherever 001 is a leg
    def double_one(lift):
        word = min(w for w in lift if len(w) == 2)
        return {word: 2 * lift[word]}

    change_geometric_lift(monkeypatch, "001", double_one)
    report = verify_geom_basis(4)
    failed = {W for W, ok in report["cobracket_alpha_form"].items() if not ok}
    assert failed == {"001", "0001", "0011"} and not report["ok"]
    assert all(report["triangular_unital"].values())


def test_edqx_reports_nonzero_beta_diagonal():
    r = verify_EDQX("0011")
    assert r["beta_diagonal"] == {"01": 1}


def test_geometric_lifts_are_projected():
    # verify_geom_basis hands these lifts straight to delta_Q, which needs a
    # projected input: the transport commutes with Hain's projector
    for W in lyndon_words(5):
        if len(W) < 2:
            continue
        lift = geometric_lift(W)
        assert hain_projector(lift, model_geom(len(W))) == lift != {}, W


def reference_bar_transport(b, images, target):
    """Slotwise transport in Fractions, one word and one slot at a time."""
    out: dict = {}
    for word, c in b.items():
        slot_images = [transport({m: ONE}, images, target).items() for m in word]
        for choice in product(*slot_images):
            coeff = c
            for _, cc in choice:
                coeff *= cc
            add_term(out, tuple(m for m, _ in choice), coeff)
    return out


@pytest.mark.parametrize("W", ["01", "0011", "00101", "001011"])
def test_bar_transport_matches_the_fraction_reference(W):
    n = len(W)
    cases = [
        (lift_LB(W, "diff")[0], j_restriction_images(n), model_x(n)),
        (lift_LB(W, "diff")[0], i1_fiber_images(n), model_point(n)),
        (lift_LB(W, "plain")[0], geom_projection_images(n), model_geom(n)),
    ]
    for b, images, target in list(cases):
        # the same maps with non-integral images, so the slot products need
        # a common denominator across words of different lengths
        scaled = {
            g: {m: Fraction(c, k % 3 + 2) for m, c in image.items()}
            for k, (g, image) in enumerate(images.items())
        }
        cases.append((b, scaled, target))
    assert len({len(w) for w in cases[2][0]}) > 1
    for b, images, target in cases:
        got = bar_transport(b, images, target)
        assert got == reference_bar_transport(b, images, target) != {}
        assert all(type(c) is Fraction and c for c in got.values())


def test_bar_transport_rejects_a_slot_the_images_do_not_map():
    images = j_restriction_images(4)
    for b in ({(("ZZ",),): 1}, {(("M_01",), ("M_1", "ZZ")): 1}):
        with pytest.raises(ValueError, match="holds 'ZZ', which the images do not map$"):
            bar_transport(b, images, model_x(4))


def test_geom_basis_to_weight_4():
    report = verify_geom_basis(4)
    assert report["ok"], report


def test_fiber_identity_and_family_relation():
    for W in lyndon_words(4):
        if len(W) < 2:
            continue
        assert verify_fiber_identity(W)
        r = relate_families(W)
        assert r["closed"] and r["degree_one_part_zero"]


def test_audit_rejects_its_weights_up_front(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(lifts, "solve_unit_constants", no_work)
    for max_weight in (1, 0, -3):
        with pytest.raises(ValueError, match=f"the audit takes max_weight >= 2, not {max_weight}$"):
            audit_adjunction_unit(max_weight)


def test_the_audit_probes_no_weight_above_the_first_without_constants(monkeypatch):
    # constants for weight n close every weight up to n, so none at 6 means
    # none above it, and the tree sums of weights 7 to 9 are never built
    calls = []
    solve = lifts.solve_unit_constants

    def recording(n):
        calls.append(n)
        return solve(n)

    monkeypatch.setattr(lifts, "solve_unit_constants", recording)
    report = audit_adjunction_unit(9)
    assert calls[:5] == [2, 3, 4, 5, 6] and set(calls) == {2, 3, 4, 5, 6}
    assert [row["weight"] for row in report["weights"]] == [2, 3, 4, 5]
    assert report["solved_constants"] == ["1", "1/2", "1/6", "1/20", "1/70"]
    assert report["published_constants"][-1] == "1/2240"
    assert all(row["closed_with_solved_constants"] for row in report["weights"])


def test_adjunction_audit():
    report = audit_adjunction_unit(3)
    assert report["solved_equal_reciprocal_n_catalan"]
    for row in report["weights"]:
        assert not row["closed_with_published_constants"]
        assert not row["degree_one_part_with_published_constants"]
        assert row["closed_with_solved_constants"]
        assert row["solved_unit_matches_unique_oracle"]


def test_unit_degree_one_part_is_the_generator_map():
    consts = solve_unit_constants(4)
    for variant, spec in VARIANTS.items():
        for W in lyndon_words(4):
            gen = f"{spec.prefix}_{W}"
            if gen not in spec.model(len(W)).index:
                continue
            solved = adjunction_unit(W, variant, constants=lambda n: consts[n - 1])
            assert pi1(solved) == {(gen,): 1}, (variant, W)
            assert pi1(adjunction_unit(W, variant)) == {(gen,): Fraction(1, 2)}, (variant, W)

"""Trees, the adjunction unit and its constants, the lift oracle, and the suites."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lyndonbar.bar import pi1
from lyndonbar.colie import tensor_cobracket
from lyndonbar.dgcore import CdgaPresentation, model_x
from lyndonbar.lifts import (
    InfeasibleLiftError,
    InvalidMorphismError,
    adjunction_unit,
    audit_adjunction_unit,
    catalan,
    check_generator_map,
    closed_lift_oracle,
    delta_tree,
    enumerate_trees,
    generator_map,
    lift_LB,
    published_constants,
    relate_families,
    solve_unit_constants,
    verify_EDQX,
    verify_fiber_identity,
    verify_geom_basis,
)
from lyndonbar.linalg import add_term
from lyndonbar.words import lyndon_words

ONE = Fraction(1)


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


def test_generator_maps_compatible():
    for variant in ("plain", "one", "diff", "const", "point"):
        from lyndonbar.lifts import VARIANTS

        spec = VARIANTS[variant]
        check_generator_map(generator_map(variant, 4), spec.model(4))


def test_incompatible_generator_map_rejected():
    gmap = generator_map("plain", 3)
    gmap[("t0", "01")] = "L1_01"
    gmap[("t1", "01")] = "L0_01"
    with pytest.raises(InvalidMorphismError):
        check_generator_map(gmap, model_x(3))


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


def test_no_per_degree_constants_at_weight_6():
    assert solve_unit_constants(6) is None


def test_unit_on_weight_one_tag():
    model = model_x(2)
    unit = adjunction_unit(
        {("t0", "1"): ONE},
        model,
        generator_map("plain", 2),
        constants=lambda n: solve_unit_constants(2)[n - 1],
    )
    assert unit == {(("L0_1",),): 1}


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


def test_const_lift_uses_only_constant_generators():
    element, _ = lift_LB("0011", "const", "auto")
    for word in element:
        assert all(g.startswith("K_") for m in word for g in m)


def test_claim_constants_flagged_non_closed():
    element, report = lift_LB("01", "plain", "claim")
    assert not report.closed and not report.pi1_ok
    assert "NON-CLOSED with published constants" in report.notes
    assert pi1(element) == {("L0_01",): Fraction(1, 2)}


def test_corrupted_model_detected_at_weight_4():
    base = model_x(4)
    diff = {k: dict(v) for k, v in base.differential.items()}
    diff["L0_01"][("L0_1", "L1_0")] = Fraction(2)
    bad = CdgaPresentation(base.generators, diff, name="bad", validate=False)
    with pytest.raises(InfeasibleLiftError):
        closed_lift_oracle("0011", "plain", bad)


def test_verify_edqx_weight_2_to_4():
    for W in lyndon_words(4):
        if len(W) < 2:
            continue
        r = verify_EDQX(W)
        assert r["ok"], (W, r)


def test_edqx_reports_nonzero_beta_diagonal():
    r = verify_EDQX("0011")
    assert r["beta_diagonal"] == {"01": 1}


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


def test_adjunction_audit():
    report = audit_adjunction_unit((2, 3))
    assert report["solved_equal_reciprocal_n_catalan"]
    for row in report["weights"]:
        assert not row["closed_with_published_constants"]
        assert not row["degree_one_part_with_published_constants"]
        assert row["closed_with_solved_constants"]
        assert row["solved_unit_matches_unique_oracle"]


def test_unit_degree_one_part_is_the_generator_map():
    model = model_x(4)
    gmap = generator_map("plain", 4)
    consts = solve_unit_constants(4)
    for tag, gen in gmap.items():
        if len(tag[1]) > 4:
            continue
        unit = adjunction_unit({tag: ONE}, model, gmap, constants=lambda n: consts[n - 1])
        expected = {} if gen is None else {(gen,): 1}
        assert pi1(unit) == expected, tag

"""The integral models against Fraction copies of them, and the samplers' draws.

The models and their restriction maps hold the integer table entries as
ints.  A copy of each with every coefficient a Fraction must give the same
presentation, the same chain maps, the same bar kernels, tree sums and lifts;
and the samplers must draw the values they drew when they made Fractions.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest
from conftest import degree_zero_words

from lyndonbar import bar, dgcore, lifts, verify
from lyndonbar.bar import bar_differential, delta_Q, hain_projector
from lyndonbar.dgcore import (
    CdgaPresentation,
    geom_projection_images,
    i1_fiber_images,
    is_chain_map,
    j_restriction_images,
    model_a1,
    model_geom,
    model_point,
    model_x,
    p1_pullback_images,
    transport,
)
from lyndonbar.lifts import VARIANTS, closed_lift_oracle
from lyndonbar.verify import random_bar_element, random_lie_element
from lyndonbar.words import lyndon_words

BUILDERS = (model_x, model_a1, model_point, model_geom)
# (source, target, images) of the four restriction maps
MAPS = (
    (model_a1, model_x, j_restriction_images),
    (model_a1, model_point, i1_fiber_images),
    (model_point, model_x, p1_pullback_images),
    (model_x, model_geom, geom_projection_images),
)


def as_fractions(images: dict) -> dict:
    return {g: {m: Fraction(c) for m, c in image.items()} for g, image in images.items()}


_COPIES: dict = {}


def fraction_copy(p: CdgaPresentation) -> CdgaPresentation:
    """``p`` with every differential coefficient a Fraction, one copy per model."""
    if p not in _COPIES:
        _COPIES[p] = CdgaPresentation(
            p.generators, as_fractions(p.differential), name=f"{p.name} in Fractions"
        )
    return _COPIES[p]


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
def test_fraction_copies_construct_with_equal_differentials(builder):
    for n in range(1, 7):
        p = builder(n)
        q = fraction_copy(p)
        values = [c for d in q.differential.values() for c in d.values()]
        assert all(type(c) is Fraction for c in values)
        assert q.differential == p.differential
        for g in p.generators:
            assert q.element_differential(q.differential[g.name]) == {}


@pytest.mark.parametrize("n", range(2, 7))
def test_restriction_maps_are_chain_maps_in_both_rings(n):
    for source, target, images in MAPS:
        ints = images(n)
        fractions = as_fractions(ints)
        fs, ft = fraction_copy(source(n)), fraction_copy(target(n))
        assert is_chain_map(source(n), target(n), ints)
        assert is_chain_map(fs, ft, fractions)
        for g in source(n).generators:
            got = transport(source(n).differential[g.name], ints, target(n))
            assert all(type(c) is int for c in got.values())
            assert got == transport(fs.differential[g.name], fractions, ft)


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
def test_bar_kernels_agree_on_the_fraction_copies(builder):
    # every degree-0 slice word of weights 2..5, one at a time
    p = builder(5)
    q = fraction_copy(p)
    for weight in range(2, 6):
        for word in degree_zero_words(p, weight):
            b = {word: 1}
            assert bar_differential(b, p) == bar_differential(b, q)
            projected = hain_projector(b, p)
            assert projected == hain_projector(b, q)
            assert delta_Q(projected, p) == delta_Q(projected, q)


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
def test_tree_sums_agree_on_the_fraction_copies(builder):
    def copies(weight):
        return fraction_copy(builder(weight))

    for g in builder(6).generators:
        for n in range(1, g.weight + 1):
            assert lifts._tree_sum(copies, g.name, n) == lifts._tree_sum(builder, g.name, n)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_oracle_lifts_agree_on_the_fraction_copies(variant):
    spec = VARIANTS[variant]
    for W in lyndon_words(5):
        if len(W) < 2 or f"{spec.prefix}_{W}" not in spec.model(len(W)).index:
            continue
        got = closed_lift_oracle(W, variant, fraction_copy(spec.model(len(W))))
        assert got == closed_lift_oracle(W, variant)


def canonical(elements) -> str:
    """The elements' terms as sorted (repr of the key, str of the value) pairs."""
    return json.dumps([sorted([repr(k), str(c)] for k, c in e.items()) for e in elements])


def digest(elements) -> str:
    return hashlib.sha256(canonical(elements).encode()).hexdigest()


# sha256 of canonical(...) of each sampler's draws at seed 42, recorded while
# the samplers made Fractions
GOLDEN_SAMPLERS = {
    "bar-weight-4": "06a545548fa62c5b8b4b42f117fd8023184226c1c5e49939b3e9ee12e1c5f541",
    "bar-weight-2": "7ccea00c5dfcd9a14cf36d3f558f02a14d29e7ec08cddd4054eca2f5613ad50e",
    "lie-weight-6": "b43c3830c2228eadf00aa538d8e6058d22d4ff8716cb01494e89d79610828ba6",
}


def test_samplers_draw_the_pinned_ints():
    p = model_x(4)
    rng = random.Random(42)
    bar4 = [random_bar_element(p, rng, max_weight=4) for _ in range(50)]
    rng = random.Random(43)
    bar2 = [random_bar_element(p, rng, max_weight=2, n_terms=2) for _ in range(50)]
    rng = random.Random(42)
    lie = [random_lie_element(rng, 6) for _ in range(100)]
    drawn = {"bar-weight-4": bar4, "bar-weight-2": bar2, "lie-weight-6": lie}
    for name, elements in drawn.items():
        assert all(type(c) is int for e in elements for c in e.values()), name
        assert digest(elements) == GOLDEN_SAMPLERS[name], name


# sha256 of canonical(...) of the elements each sampled suite hands the
# kernel named, in call order, at seed 42, max_weight 4 and 50 samples; the
# sampled checks' draws are among them
GOLDEN_SUITE_DRAWS = {
    "signs: multiply": "79d0ecc0093084758dd8d8b07d2c788497166451db136c1d8a4993117615e1aa",
    "models: restrict_j": "db1979c6a000b7ce49ec7d540afd9c21a662ed9da4d8cb7f651b160215ae8984",
    "bar: bar_differential": "765554950fe953f79ff67f86c8e89dc05beecf8023532631426271434733be4e",
    "bar: coproduct": "418becd4df1059d14b6b97b58b4456a20d6d28d8eb9dac10f765b5f8079dc70c",
    "bar: hain_projector": "39d65a5fcb72f77bdacdb436e88e0efd5119fcfa0963719b71670360c29f6c86",
}


def record_suite_draws(monkeypatch, max_weight: int = 4) -> dict:
    """The elements that suite_signs, suite_models and suite_bar hand their kernels."""
    drawn: dict = {name: [] for name in GOLDEN_SUITE_DRAWS}

    def patch(owner, attr, name):
        fn = getattr(owner, attr)

        def recorded(*args):
            drawn[name].extend(a for a in args if isinstance(a, dict))
            return fn(*args)

        monkeypatch.setattr(owner, attr, recorded)

    patch(CdgaPresentation, "multiply", "signs: multiply")
    verify.suite_signs(max_weight, 42, 50)
    monkeypatch.undo()
    patch(dgcore, "restrict_j", "models: restrict_j")
    verify.suite_models(max_weight, 42, 50)
    monkeypatch.undo()
    patch(bar, "bar_differential", "bar: bar_differential")
    patch(bar, "coproduct", "bar: coproduct")
    patch(bar, "hain_projector", "bar: hain_projector")
    verify.suite_bar(max_weight, 42, 50)
    monkeypatch.undo()
    return drawn


def test_sampled_suites_draw_the_pinned_values(monkeypatch):
    for name, elements in record_suite_draws(monkeypatch).items():
        assert elements, name
        assert digest(elements) == GOLDEN_SUITE_DRAWS[name], name


def test_the_sampled_bar_checks_draw_every_weight_up_to_the_run_weight(monkeypatch):
    p = model_x(7)
    drawn = record_suite_draws(monkeypatch, max_weight=7)["bar: bar_differential"]
    weights = {sum(map(p.monomial_weight, word)) for b in drawn for word in b}
    assert set(range(2, 8)) <= weights <= set(range(1, 8))

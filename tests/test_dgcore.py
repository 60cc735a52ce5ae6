"""Koszul signs, cdga arithmetic, the cobar construction, models, and morphisms."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from lyndonbar.dgcore import (
    CdgaPresentation,
    CoLiePresentation,
    GradedGenerator,
    NotACoLieCoalgebraError,
    cobar_colie,
    colie_presentation,
    geom_projection_images,
    i1_fiber_images,
    is_chain_map,
    j_restriction_images,
    koszul_sign,
    model_a1,
    model_geom,
    model_point,
    model_x,
    p1_pullback_images,
    restrict_j,
    transport,
)
from lyndonbar.words import lyndon_words

ONE = Fraction(1)


def test_koszul_sign_basics():
    assert koszul_sign((0, 1, 2), (5, 7, 1)) == 1
    assert koszul_sign((1, 0), (1, 1)) == -1
    assert koszul_sign((1, 0), (1, 2)) == 1
    assert koszul_sign((1, 0), (2, 2)) == 1


def test_koszul_sign_rejects_size_mismatch():
    with pytest.raises(ValueError):
        koszul_sign((0, 1), (1,))
    with pytest.raises(ValueError):
        koszul_sign((0, 0), (1, 1))


def apply_permutation(sigma, slots, degrees):
    """The signed permutation action: (Koszul sign, permuted slots)."""
    out = [None] * len(slots)
    for i, s in enumerate(slots):
        out[sigma[i]] = s
    return koszul_sign(sigma, degrees), tuple(out)


def test_koszul_action_is_multiplicative():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(2, 6)
        degrees = [rng.randint(0, 3) for _ in range(n)]
        slots = [f"v{i}" for i in range(n)]
        sigma = list(range(n))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        s1, mid = apply_permutation(tau, slots, degrees)
        mid_degrees = [0] * n
        for i, d in enumerate(degrees):
            mid_degrees[tau[i]] = d
        s2, final = apply_permutation(sigma, mid, mid_degrees)
        comp = [sigma[tau[i]] for i in range(n)]
        s3, direct = apply_permutation(comp, slots, degrees)
        assert final == direct and s1 * s2 == s3


def _sample_element(p: CdgaPresentation, rng: random.Random, n_terms=3, max_len=2):
    names = [g.name for g in p.generators]
    out = {}
    for _ in range(n_terms):
        k = rng.randint(1, max_len)
        m = tuple(sorted(rng.sample(names, k=k), key=p.index.__getitem__))
        e = p.multiply({(): ONE}, {m: Fraction(rng.choice([-2, -1, 1, 2]))})
        for key, c in e.items():
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def test_odd_squares_vanish_and_anticommute():
    p = model_x(3)
    g = p.generator_element("L0_01")
    h = p.generator_element("L1_001")
    assert p.multiply(g, g) == {}
    assert p.multiply(g, h) == {k: -v for k, v in p.multiply(h, g).items()}


def test_multiplication_associative_on_random_triples():
    p = model_x(4)
    rng = random.Random(42)
    for _ in range(100):
        a, b, c = (_sample_element(p, rng) for _ in range(3))
        assert p.multiply(p.multiply(a, b), c) == p.multiply(a, p.multiply(b, c))


def test_models_construct_to_weight_6():
    for mw in range(1, 7):
        model_x(mw), model_a1(mw), model_point(mw), model_geom(mw)
    for builder in (model_x, model_a1, model_point, model_geom):
        with pytest.raises(ValueError):
            builder(0)


def test_model_x_weight_two_differentials():
    p = model_x(2)
    assert [g.name for g in p.generators] == ["L0_1", "L1_0", "L0_01", "L1_01", "K_01"]
    assert p.differential["L0_01"] == {("L0_1", "L1_0"): 1}
    assert p.differential["L1_01"] == {("L0_1", "L1_0"): 1}
    assert p.differential["K_01"] == {}
    assert "L0_0" not in p.index and "L1_1" not in p.index


def test_a1_weight_two_is_closed():
    # the a-coefficient in weight 2 vanishes, so d(M_01) = 0
    assert model_a1(2).differential["M_01"] == {}


def test_point_model_mirrors_a1():
    pa, pp = model_a1(5), model_point(5)
    rename = {f"M_{w}": f"N_{w}" for w in lyndon_words(5)}
    for g in pa.generators:
        image = {
            tuple(rename[x] for x in m): c
            for m, c in pa.differential[g.name].items()
        }
        assert image == pp.differential[rename[g.name]]


def test_abelian_colie_gives_zero_differential():
    basis = (GradedGenerator("p", 0, 1), GradedGenerator("q", 0, 2))
    p = cobar_colie(CoLiePresentation(basis=basis, differential={}, cobracket={}))
    assert all(p.differential[g.name] == {} for g in p.generators)
    assert all(g.degree == 1 for g in p.generators)


def test_cobar_matches_model_after_renaming():
    cb = cobar_colie(colie_presentation(5, "t01"))
    mx = model_x(5)

    def rename(tagname: str):
        fam, w = tagname.split(":")
        return {"T0": "L0", "T1": "L1"}[fam] + "_" + w

    for g in cb.generators:
        target = rename(g.name)
        image = {}
        dropped = False
        for m, c in cb.differential[g.name].items():
            names = [rename(x) for x in m]
            if any(x in ("L0_0", "L1_1") for x in names):
                dropped = True
                continue
            key = tuple(sorted(names, key=mx.index.__getitem__))
            sign = 1 if list(names) == sorted(names, key=mx.index.__getitem__) else -1
            image[key] = sign * c
        if target in ("L0_0", "L1_1"):
            continue
        assert image == mx.differential[target], g.name
        assert not dropped, f"{g.name}: quotient ideal not preserved"


def test_cobar_subcoalgebra_matches_constant_model():
    cb = cobar_colie(colie_presentation(5, "one"))
    mp = model_point(5)
    for g in cb.generators:
        w = g.name.split(":")[1]
        image = {
            tuple(f"N_{x.split(':')[1]}" for x in m): c
            for m, c in cb.differential[g.name].items()
        }
        assert image == mp.differential[f"N_{w}"]


def test_corrupted_cobracket_detected():
    cp = colie_presentation(4, "t01")
    cobr = {n: dict(t) for n, t in cp.cobracket.items()}
    u, v = ("T0:01", "T1:01")
    cobr["T0:0011"][(u, v)] = -cobr["T0:0011"][(u, v)]
    cobr["T0:0011"][(v, u)] = -cobr["T0:0011"][(v, u)]
    bad = CoLiePresentation(basis=cp.basis, differential={}, cobracket=cobr)
    with pytest.raises(NotACoLieCoalgebraError):
        cobar_colie(bad)


def test_non_antisymmetric_cobracket_rejected():
    basis = (GradedGenerator("p", 0, 1), GradedGenerator("q", 0, 2))
    bad = CoLiePresentation(
        basis=basis,
        differential={},
        cobracket={"q": {("p", "p"): Fraction(1)}},
    )
    with pytest.raises(NotACoLieCoalgebraError):
        cobar_colie(bad)


def test_suspension_sign_on_nonzero_differential():
    # d(a) = b forces d(sa) = -sb in the cobar; the quadratic parts carry the
    # suspension coproduct sign.  Frozen from a hand computation.
    basis = (
        GradedGenerator("u", 1, 2),
        GradedGenerator("w", 2, 2),
        GradedGenerator("a", 0, 1),
        GradedGenerator("b", 1, 1),
    )
    diff = {"a": {"b": Fraction(1)}, "u": {"w": Fraction(2)}}
    cobr = {
        "u": {("a", "b"): Fraction(1), ("b", "a"): Fraction(-1)},
        "w": {("b", "b"): Fraction(1)},
    }
    p = cobar_colie(CoLiePresentation(basis=basis, differential=diff, cobracket=cobr))
    assert p.differential["a"] == {("b",): -1}
    assert p.differential["u"] == {("w",): -2, ("a", "b"): -2}
    assert p.differential["w"] == {("b", "b"): 1}


def test_morphisms_are_chain_maps():
    for mw in (2, 4, 6):
        assert is_chain_map(model_a1(mw), model_x(mw), j_restriction_images(mw))
        assert is_chain_map(model_a1(mw), model_point(mw), i1_fiber_images(mw))
        assert is_chain_map(model_point(mw), model_x(mw), p1_pullback_images(mw))
        assert is_chain_map(model_x(mw), model_geom(mw), geom_projection_images(mw))


def test_morphism_values():
    mw = 3
    assert restrict_j({("M_01",): ONE}, mw) == {("L0_01",): 1, ("L1_01",): -1}
    assert restrict_j({("M_0",): ONE}, mw) == {("L1_0",): -1}
    assert restrict_j({("M_1",): ONE}, mw) == {("L0_1",): 1}
    fiber, pullback = i1_fiber_images(mw), p1_pullback_images(mw)
    assert transport({("M_001",): ONE}, fiber, model_point(mw)) == {("N_001",): 1}
    assert transport({("N_01",): ONE}, pullback, model_x(mw)) == {("K_01",): 1}
    assert transport({("N_0",): ONE}, pullback, model_x(mw)) == {}


def test_j_restriction_multiplicative():
    mw = 4
    pa = model_a1(mw)
    rng = random.Random(42)
    for _ in range(25):
        a, b = _sample_element(pa, rng), _sample_element(pa, rng)
        lhs = restrict_j(pa.multiply(a, b), mw)
        rhs = model_x(mw).multiply(restrict_j(a, mw), restrict_j(b, mw))
        assert lhs == rhs


def test_weight_one_models_are_degenerate_but_total():
    p = model_x(1)
    assert [g.name for g in p.generators] == ["L0_1", "L1_0"]
    assert all(p.differential[g.name] == {} for g in p.generators)


# sha256 of _canonical(model(n)) for n = 1..6, recorded before the four
# models shared one table-driven builder
GOLDEN_MODELS = {
    model_x: (
        "86667067b532bb447196d9656f09f24bd1dba3e0808151a5d36e28a9069ccbf0",
        "a46852c3506166f8d684c612605a8f23bf6cc07d997ed729bec2c42c1bca4ee4",
        "14c40000d0e9a2da406a9cb93286dcc400b0bd6e7bcc549e70fd38fc1ec8da33",
        "907fe05110827a8f0af727d5cf4b40a19717add28de79d30d1390ef6f4dd1087",
        "b631d5e9da6959f25a3340f2e73fecb15d1d4995224a8625ecd790aaa763831f",
        "93175713febebc26aa89bc0fbbeb6a54d4bf7b4adce30225cdf5a48e3c297c4f",
    ),
    model_a1: (
        "d0c05d446761776b89feccfd15f6cdbacfa17d342488df6c2bb4204773bd82e1",
        "5f4d5becba598a5d56ad7f624344d93a570cd1fccb1c4f34720b4fcc345d2429",
        "d60771650f1f46461a70299336b7d823a1aa5ad659e638dc275f0c5c459e0033",
        "c2379dfee3b539b406592b9ec261e7575075fe7c5e0709de162bcf32a47efca7",
        "fb71906b118ba8c2d06bd3e277b9ad75cea7c5485d5f5c6532eb62b30f2ddd07",
        "254ddd89794fd826a33e080aa00e34a0ed8b90bd55015a1154601bc34cc8b6a6",
    ),
    model_point: (
        "b93d0695c003a7031cb11527b43a70002d1675e6a5f12e18b3a52532a1da2fa2",
        "3e9ffbdde311813eff5194b94a8c2349dd2fe3848c2404f04bcde93c467ea60e",
        "dde0006092fb4686efbc7ec152f5e2fd29ed9b71e4db3f20b1c2daea56b9e592",
        "b2eca0bfc528c166a8d222fe45e6d8f3b11170c5fb751e278dedb4686f6e4d23",
        "01012ec19842776ebb7d015c93d967b39c7ce147996c02f2074469a2706a5585",
        "cf2860df199f6af5cb21d7b167e8af22d7eb0de294c494ee4b3470270f317d66",
    ),
    model_geom: (
        "5c68398b8a18ad960add1e634cc5357de9537597ee31385e37fef619225e659c",
        "3d14223e46e761a3a3a0b09c34a60d980c3e2c217533306406700811c8debbeb",
        "aa1c3ac88fc5a3b617011f98ae8737cf41d453b4cf40416f264ce1783e48a1d2",
        "68683e67e69ac71c7f5490ebdf47f321479072d122f2c17af90ab4da6e32031b",
        "b3f113aeede259fe4776d75789256f3623d65c042ff981aa5305bc0e800db554",
        "984b0c168cb7d3dbd97e158cd95e405c28020a5995197ba3f6f589c92d881fd9",
    ),
}


def _canonical(p: CdgaPresentation) -> str:
    """Name, generators in order, and each differential with sorted terms, as JSON."""
    return json.dumps(
        {
            "name": p.name,
            "generators": [[g.name, g.degree, g.weight] for g in p.generators],
            "differential": {
                g.name: [[list(m), str(c)] for m, c in sorted(p.differential[g.name].items())]
                for g in p.generators
            },
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("builder", list(GOLDEN_MODELS), ids=lambda f: f.__name__)
def test_models_match_golden_digests(builder):
    got = tuple(
        hashlib.sha256(_canonical(builder(n)).encode()).hexdigest() for n in range(1, 7)
    )
    assert got == GOLDEN_MODELS[builder]

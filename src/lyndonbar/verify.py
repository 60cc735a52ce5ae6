"""Verification suites with machine-readable reports, and seeded samplers.

Each suite returns a list of check records; a record carries the check name,
the weight it ran at (when meaningful), a pass/fail/info status, and a short
witness.  Info records report findings that are not pass/fail gates (audit
outcomes, exact-vanishing observations).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import bar, colie, dgcore, freelie, ihara, lifts, words
from .dgcore import CdgaPresentation
from .linalg import add_term, combine

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 50
ONE = Fraction(1)


@dataclass
class CheckResult:
    check: str
    weight: int | None
    status: str  # "pass" | "fail" | "info"
    witness: object = None

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "weight": self.weight,
            "status": self.status,
            "witness": self.witness,
        }


def _result(check: str, ok: bool, weight=None, witness=None) -> CheckResult:
    return CheckResult(check, weight, "pass" if ok else "fail", witness)


# ---------------------------------------------------------------------------
# samplers


def random_monomial(p: CdgaPresentation, rng: random.Random, max_weight: int):
    names = [g.name for g in p.generators if g.weight <= max_weight]
    budget = max_weight
    chosen: list[str] = []
    rng.shuffle(names)
    for name in names:
        if p.weight[name] <= budget and (p.degree[name] % 2 == 0 or name not in chosen):
            chosen.append(name)
            budget -= p.weight[name]
            if len(chosen) >= 2 or rng.random() < 0.6:
                break
    chosen.sort(key=p.index.__getitem__)
    return tuple(chosen)


def random_bar_element(
    p: CdgaPresentation,
    rng: random.Random,
    max_weight: int = 4,
    n_terms: int = 3,
) -> dict:
    """A small random bar element with monomial slots of total weight <= max_weight."""
    out: dict = {}
    for _ in range(n_terms):
        slots: list[tuple] = []
        budget = max_weight
        for _ in range(rng.randint(1, 3)):
            if budget <= 0:
                break
            m = random_monomial(p, rng, budget)
            if not m:
                break
            slots.append(m)
            budget -= p.monomial_weight(m)
        if not slots:
            continue
        word = tuple(slots)
        c = out.get(word, 0) + rng.choice([-2, -1, 1, 2])
        if c:
            out[word] = Fraction(c)
        else:
            out.pop(word, None)
    return out


def random_lie_element(rng: random.Random, max_weight: int) -> dict:
    pool = words.lyndon_words(max_weight)
    return {
        w: Fraction(rng.choice([-2, -1, 1, 2]))
        for w in rng.sample(pool, k=min(3, len(pool)))
    }


# ---------------------------------------------------------------------------
# suites


def suite_words(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    out = []
    expected = ["0", "0001", "001", "0011", "01", "011", "0111", "1"]
    out.append(
        _result(
            "lyndon-enumeration-order",
            list(words.lyndon_words(4)) == expected,
            4,
            witness=",".join(words.lyndon_words(4)),
        )
    )
    scan_to = min(8, max(max_weight, 4))
    ok = all(
        words.is_lyndon(format(k, f"0{n}b"))
        == all(format(k, f"0{n}b") < format(k, f"0{n}b")[i:] for i in range(1, n))
        for n in range(1, scan_to + 1)
        for k in range(2**n)
    )
    out.append(_result("lyndon-recognition-brute-force", ok, scan_to))
    members = set(words.lyndon_words(max(max_weight, 2)))
    ok = True
    for w in sorted(members):
        if len(w) < 2:
            continue
        u, v = words.standard_factorization(w)
        ok &= u + v == w and u in members and v in members and u < v
    out.append(_result("standard-factorization-recombines", ok, max_weight))
    return out


_BRACKETINGS = {
    "01": ("0", "1"),
    "001": ("0", "01"),
    "011": ("01", "1"),
    "0001": ("0", "001"),
    "0011": ("0", "011"),
    "0111": ("011", "1"),
}


def suite_lie(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    out = []
    ok = all(words.standard_factorization(w) == uv for w, uv in _BRACKETINGS.items())
    out.append(_result("bracketings-weights-2-to-4", ok, 4))
    mw = min(max_weight, 6)
    ok = all(
        freelie.rewrite_in_lyndon(freelie.expand(w)) == {w: 1}
        for w in words.lyndon_words(mw)
    )
    out.append(_result("expand-rewrite-round-trip", ok, mw))
    ok = all(
        min(freelie.expand(w)) == w and freelie.expand(w)[w] == 1
        for w in words.lyndon_words(min(max_weight + 1, 7))
    )
    out.append(_result("expansion-triangularity", ok, min(max_weight + 1, 7)))
    rng = random.Random(seed)
    ok = True
    for _ in range(max(samples, 100)):
        e = random_lie_element(rng, mw)
        ok &= freelie.rewrite_in_lyndon(freelie.lie_to_word_poly(e)) == e
    out.append(_result("rewrite-random-round-trip", ok, mw))
    ws = words.lyndon_words(4)
    ok = True
    for u in ws:
        for v in ws:
            for w in ws:
                if len(u) + len(v) + len(w) > min(max_weight + 2, 6):
                    continue
                eu, ev, ew = (freelie.basis_element(x) for x in (u, v, w))
                total = combine(
                    (1, freelie.lie_bracket(freelie.lie_bracket(eu, ev), ew)),
                    (1, freelie.lie_bracket(freelie.lie_bracket(ev, ew), eu)),
                    (1, freelie.lie_bracket(freelie.lie_bracket(ew, eu), ev)),
                )
                ok &= total == {}
    out.append(_result("jacobi-identity", ok, min(max_weight + 2, 6)))
    try:
        freelie.alpha_table(max_weight)
        ihara.beta_gamma_tables(max_weight)
        out.append(_result("tables-integral", True, max_weight))
    except freelie.TableInconsistencyError as exc:
        out.append(_result("tables-integral", False, max_weight, str(exc)))
    return out


def suite_signs(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    out = []
    ok = (
        dgcore.koszul_sign((0, 1, 2), (3, 4, 5)) == 1
        and dgcore.koszul_sign((1, 0), (1, 1)) == -1
        and dgcore.koszul_sign((1, 0), (1, 2)) == 1
    )
    out.append(_result("koszul-sign-examples", ok))
    p = dgcore.model_x(min(max_weight, 4))
    rng = random.Random(seed)
    g = p.generator_element("L0_01")
    h = p.generator_element("L1_0")
    ok = p.multiply(g, g) == {} and p.multiply(g, h) == {
        k: -v for k, v in p.multiply(h, g).items()
    }
    out.append(_result("odd-generators-anticommute", ok))
    ok = True
    for _ in range(samples):
        elems = []
        for _ in range(3):
            m = random_monomial(p, rng, 3)
            elems.append({m: Fraction(rng.choice([-2, -1, 1, 2]))} if m else {})
        a, b, c = elems
        ok &= p.multiply(p.multiply(a, b), c) == p.multiply(a, p.multiply(b, c))
    out.append(_result("product-associative-samples", ok))
    basis = (
        dgcore.GradedGenerator("u", 1, 2),
        dgcore.GradedGenerator("w", 2, 2),
        dgcore.GradedGenerator("a", 0, 1),
        dgcore.GradedGenerator("b", 1, 1),
    )
    syn = dgcore.cobar_colie(
        dgcore.CoLiePresentation(
            basis=basis,
            differential={"a": {"b": ONE}, "u": {"w": Fraction(2)}},
            cobracket={
                "u": {("a", "b"): ONE, ("b", "a"): -ONE},
                "w": {("b", "b"): ONE},
            },
        )
    )
    ok = syn.differential["a"] == {("b",): -1} and syn.differential["u"] == {
        ("w",): -2,
        ("a", "b"): -2,
    }
    out.append(_result("suspension-differential-sign", ok))
    return out


def suite_colie(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    out = []
    mw = min(max_weight, 6)
    alpha = freelie.alpha_table(mw)
    beta, gamma = ihara.beta_gamma_tables(mw)
    zero = Fraction(0)
    ok = all(u != "0" and v != "1" for (_, u, v) in beta)
    sub = words.lyndon_words(mw - 1)
    for w in words.lyndon_words(mw):
        if len(w) < 2:
            continue
        for u in sub:
            if len(u) + 1 == len(w):
                ok &= beta.get((w, u, "0"), zero) == alpha.get((w, "0", u), zero)
                ok &= beta.get((w, "1", u), zero) == alpha.get((w, u, "1"), zero)
        for u in sub:
            for v in sub:
                if u < v and len(u) + len(v) == len(w):
                    ok &= gamma.get((w, u, v), zero) == alpha.get(
                        (w, u, v), zero
                    ) + beta.get((w, u, v), zero) - beta.get((w, v, u), zero)
    out.append(_result("derivation-table-identities", ok, mw))
    ok = colie.cobracket({("x", "01"): ONE}) == {
        (("x", "0"), ("x", "1")): 1,
        (("x", "1"), ("one", "0")): 1,
    }
    ok &= all(
        colie.cobracket({(fam, w): ONE}) == {}
        for fam in ("x", "one")
        for w in ("0", "1")
    )
    out.append(_result("cobracket-low-weight-values", ok, 2))
    try:
        a, b, ap, bp = colie.ab_tables(mw)
        ok = a == gamma and ap == {k: -v for k, v in a.items()}
        ok &= all(u != "0" and v != "1" for (_, u, v) in list(a) + list(ap))
        ok &= all(u != "1" and v != "0" for (_, u, v) in list(b) + list(bp))
        ok &= all(len(u) + len(v) == len(w) for t in (a, b, ap, bp) for (w, u, v) in t)
        out.append(_result("basis-change-tables-double-sourced", ok, mw))
    except freelie.TableInconsistencyError as exc:
        out.append(_result("basis-change-tables-double-sourced", False, mw, str(exc)))
    ok = all(
        colie.co_jacobi_defect({(fam, w): ONE}) == {}
        for w in words.lyndon_words(mw)
        for fam in ("x", "one")
    )
    out.append(_result("co-jacobi-defect-zero", ok, mw))
    pair_w = min(mw, 6)
    ok = True
    basis_tags = [
        (fam, u) for u in words.lyndon_words(pair_w - 1) for fam in ("x", "one")
    ]
    tensors = {
        (fam, w): colie.tensor_cobracket({(fam, w): ONE})
        for w in words.lyndon_words(pair_w)
        for fam in ("x", "one")
    }
    for ta in basis_tags:
        for tb in basis_tags:
            if len(ta[1]) + len(tb[1]) > pair_w:
                continue
            sb = ihara.semidirect_bracket(_as_semidirect(ta), _as_semidirect(tb))
            for w in words.lyndon_words(pair_w):
                if len(w) != len(ta[1]) + len(tb[1]):
                    continue
                ok &= sb.x_part.get(w, zero) == tensors[("x", w)].get((ta, tb), zero)
                ok &= sb.one_part.get(w, zero) == tensors[("one", w)].get(
                    (ta, tb), zero
                )
    out.append(_result("duality-pairing", ok, pair_w))
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        e = {
            ("x" if rng.random() < 0.5 else "one", w): Fraction(rng.choice([-2, 1]))
            for w in rng.sample(words.lyndon_words(mw), k=2)
        }
        ok &= colie.change_basis(colie.change_basis(e, "t01"), "x1") == e
    out.append(_result("basis-change-round-trip", ok, mw))
    a, _, _, _ = colie.ab_tables(mw)
    ok = True
    for w in words.lyndon_words(mw):
        if len(w) < 2:
            continue
        got = colie.cobracket({("t0", w): ONE, ("t1", w): -ONE})
        expected: dict = {}
        for (tw, u, v), c in a.items():
            if tw != w:
                continue
            for fu, su in ((("t0", u), 1), (("t1", u), -1)):
                for fv, sv in ((("t0", v), 1), (("t1", v), -1)):
                    colie.wedge_add(expected, fu, fv, c * su * sv)
        ok &= got == expected
    out.append(_result("one-family-cobracket-pure-a-form", ok, mw))
    return out


def _as_semidirect(tag):
    fam, u = tag
    e = freelie.basis_element(u)
    if fam == "x":
        return ihara.SemidirectElement(x_part=e)
    return ihara.SemidirectElement(one_part=e)


def suite_models(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    out = []
    try:
        for mw in range(2, max_weight + 1):
            dgcore.model_x(mw), dgcore.model_a1(mw), dgcore.model_point(mw)
        out.append(_result("models-differential-squares-to-zero", True, max_weight))
    except (dgcore.PresentationError, freelie.TableInconsistencyError) as exc:
        out.append(
            _result("models-differential-squares-to-zero", False, max_weight, str(exc))
        )
    mw = min(max_weight, 5)
    cb = dgcore.cobar_colie(dgcore.colie_presentation(mw, "t01"))
    mx = dgcore.model_x(mw)
    ok = True
    for g in cb.generators:
        fam, w = g.name.split(":")
        target = {"T0": "L0", "T1": "L1"}[fam] + "_" + w
        if target not in mx.index:
            continue
        image: dict = {}
        for m, c in cb.differential[g.name].items():
            names = [{"T0": "L0", "T1": "L1"}[x.split(":")[0]] + "_" + x.split(":")[1] for x in m]
            if any(x not in mx.index for x in names):
                ok = False
                continue
            ordered = tuple(sorted(names, key=mx.index.__getitem__))
            sign = 1 if tuple(names) == ordered else -1
            add_term(image, ordered, sign * c)
        ok &= image == mx.differential[target]
    out.append(_result("cobar-reproduces-model", ok, mw))
    cp = dgcore.colie_presentation(min(max_weight, 4), "t01")
    cobr = {n: dict(t) for n, t in cp.cobracket.items()}
    u, v = ("T0:01", "T1:01")
    cobr["T0:0011"][(u, v)] = -cobr["T0:0011"][(u, v)]
    cobr["T0:0011"][(v, u)] = -cobr["T0:0011"][(v, u)]
    try:
        dgcore.cobar_colie(
            dgcore.CoLiePresentation(basis=cp.basis, differential={}, cobracket=cobr)
        )
        out.append(_result("corrupted-cobracket-detected", False, 4))
    except dgcore.NotACoLieCoalgebraError:
        out.append(_result("corrupted-cobracket-detected", True, 4))
    ok = True
    for mw2 in (2, min(max_weight, 6)):
        ok &= dgcore.is_chain_map(
            dgcore.model_a1(mw2), dgcore.model_x(mw2), dgcore.j_restriction_images(mw2)
        )
        ok &= dgcore.is_chain_map(
            dgcore.model_a1(mw2),
            dgcore.model_point(mw2),
            dgcore.i1_fiber_images(mw2),
        )
        ok &= dgcore.is_chain_map(
            dgcore.model_point(mw2),
            dgcore.model_x(mw2),
            dgcore.p1_pullback_images(mw2),
        )
        ok &= dgcore.is_chain_map(
            dgcore.model_x(mw2), dgcore.model_geom(mw2), dgcore.geom_projection_images(mw2)
        )
    out.append(_result("restriction-maps-are-chain-maps", ok, min(max_weight, 6)))
    rng = random.Random(seed)
    pa = dgcore.model_a1(min(max_weight, 4))
    ok = True
    for _ in range(samples // 2):
        a = {random_monomial(pa, rng, 3): ONE}
        b = {random_monomial(pa, rng, 3): ONE}
        if () in a or () in b:
            continue
        lhs = dgcore.restrict_j(pa.multiply(a, b), min(max_weight, 4))
        rhs = dgcore.model_x(min(max_weight, 4)).multiply(
            dgcore.restrict_j(a, min(max_weight, 4)),
            dgcore.restrict_j(b, min(max_weight, 4)),
        )
        ok &= lhs == rhs
    out.append(_result("open-restriction-multiplicative", ok, min(max_weight, 4)))
    return out


def suite_bar(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    out = []
    mw = min(max_weight, 4)
    p = dgcore.model_x(mw)
    rng = random.Random(seed)
    elems = [random_bar_element(p, rng, max_weight=mw) for _ in range(samples)]
    ok = all(bar.bar_differential(bar.bar_differential(b, p), p) == {} for b in elems)
    out.append(_result("bar-differential-squares-to-zero", ok, mw))
    ok = True
    for b in elems[: samples // 2]:
        left: dict = {}
        right: dict = {}
        for (w1, w2), c in bar.coproduct(b).items():
            for (u1, u2), d in bar.coproduct({w1: ONE}).items():
                add_term(left, (u1, u2, w2), c * d)
            for (u1, u2), d in bar.coproduct({w2: ONE}).items():
                add_term(right, (w1, u1, u2), c * d)
        ok &= left == right
    out.append(_result("coproduct-coassociative", ok, mw))
    rng2 = random.Random(seed + 1)
    small = [random_bar_element(p, rng2, max_weight=2, n_terms=2) for _ in range(samples)]
    ok = True
    hopf = True
    for i in range(0, len(small) - 2, 3):
        a, b, c = small[i], small[i + 1], small[i + 2]
        ok &= bar.shuffle(bar.shuffle(a, b, p), c, p) == bar.shuffle(
            a, bar.shuffle(b, c, p), p
        )
        lhs = bar.coproduct(bar.shuffle(a, b, p))
        rhs = bar.tensor_shuffle(bar.coproduct(a), bar.coproduct(b), p)
        hopf &= lhs == rhs
    out.append(_result("shuffle-associative", ok, 4))
    out.append(_result("hopf-compatibility", hopf, 4))
    ok = True
    kills = True
    for b in elems[: samples // 2]:
        once = bar.hain_projector(b, p)
        ok &= bar.hain_projector(once, p) == once
        ok &= bar.hain_projector(bar.bar_differential(b, p), p) == bar.bar_differential(
            once, p
        )
    for i in range(0, len(small) - 1, 2):
        kills &= bar.hain_projector(bar.shuffle(small[i], small[i + 1], p), p) == {}
    out.append(_result("projector-idempotent-chain-map", ok, mw))
    out.append(_result("projector-kills-shuffles", kills, mw))
    ok = True
    for b in elems[: samples // 3]:
        h = bar.hain_projector(b, p)
        t = bar.delta_Q(h, p)
        ok &= bar.tensor_swap(t, p) == {k: -v for k, v in t.items()}
    out.append(_result("cobracket-antisymmetric", ok, mw))
    return out


def suite_lifts(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    out = []
    oracle_to = min(max_weight, 5)
    for variant in ("plain", "one", "diff", "const"):
        ok = True
        witness = None
        for w in words.lyndon_words(oracle_to):
            if len(w) < 2:
                continue
            try:
                _, report = lifts.lift_LB(w, variant, "oracle")
                if not report.all_ok:
                    ok, witness = False, f"{w}: {report}"
            except lifts.InfeasibleLiftError as exc:
                ok, witness = False, f"{w}: {exc}"
        out.append(_result(f"oracle-lift-{variant}", ok, oracle_to, witness))
    ok = True
    for w in words.lyndon_words(min(max_weight, 4)):
        if len(w) < 2:
            continue
        u, _ = lifts.lift_LB(w, "plain", "auto")
        o, ro = lifts.lift_LB(w, "plain", "oracle")
        if ro.affine_dim == 0:
            ok &= u == o
    out.append(_result("unit-matches-unique-oracle", ok, min(max_weight, 4)))
    base = dgcore.model_x(4)
    diff = {k: dict(v) for k, v in base.differential.items()}
    diff["L0_01"][("L0_1", "L1_0")] = Fraction(2)
    bad = CdgaPresentation(base.generators, diff, name="bad", validate=False)
    try:
        lifts.closed_lift_oracle("0011", "plain", bad)
        out.append(_result("corrupted-model-detected", False, 4))
    except lifts.InfeasibleLiftError:
        out.append(_result("corrupted-model-detected", True, 4))
    ok = True
    exact = True
    for w in words.lyndon_words(oracle_to):
        if len(w) < 2:
            continue
        ok &= lifts.verify_fiber_identity(w)
        rel = lifts.relate_families(w)
        ok &= rel["closed"] and rel["degree_one_part_zero"]
        exact &= rel["exactly_zero"]
    out.append(_result("fiber-at-one-slotwise-identity", ok, oracle_to))
    out.append(
        CheckResult(
            "family-relation-exact-vanishing",
            oracle_to,
            "info",
            f"j-restricted difference minus plain plus one vanishes exactly: {exact}",
        )
    )
    audit = lifts.audit_adjunction_unit(tuple(range(2, min(max_weight, 4) + 1)))
    ok = all(
        row["closed_with_solved_constants"] and row["solved_unit_matches_unique_oracle"]
        for row in audit["weights"]
    )
    out.append(
        CheckResult(
            "unit-normalization-audit",
            min(max_weight, 4),
            "pass" if ok else "fail",
            audit,
        )
    )
    if max_weight >= 6:
        feasible = lifts.solve_unit_constants(6) is not None
        out.append(
            CheckResult(
                "per-degree-constants-at-weight-6",
                6,
                "info",
                "per-degree unit constants exist: "
                f"{feasible}; lifts fall back to the exact solver",
            )
        )
    return out


def suite_edqx(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    out = []
    for w in words.lyndon_words(max_weight):
        if len(w) < 2:
            continue
        r = lifts.verify_EDQX(w)
        witness = (
            {"beta_diagonal": {k: str(v) for k, v in r["beta_diagonal"].items()}}
            if r["beta_diagonal"]
            else None
        )
        out.append(_result(f"cobracket-structure-form-{w}", r["ok"], len(w), witness))
    return out


def suite_basis(max_weight: int, seed: int, samples: int) -> list[CheckResult]:
    r = lifts.verify_geom_basis(max_weight)
    out = [
        _result(
            "projected-cobracket-alpha-form",
            all(r["cobracket_alpha_form"].values()) and all(r["pairing"].values()),
            max_weight,
        ),
        _result(
            "projected-family-triangular-unital",
            all(r["triangular_unital"].values()),
            max_weight,
        ),
    ]
    return out


SUITES = {
    "words": suite_words,
    "lie": suite_lie,
    "signs": suite_signs,
    "colie": suite_colie,
    "models": suite_models,
    "bar": suite_bar,
    "lifts": suite_lifts,
    "edqx": suite_edqx,
    "basis": suite_basis,
}


def run_suites(
    names,
    max_weight: int = 5,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
) -> list[CheckResult]:
    selected = list(SUITES) if "all" in names else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results: list[CheckResult] = []
    for name in selected:
        results.extend(SUITES[name](max_weight, seed, samples))
    return results

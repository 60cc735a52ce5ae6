"""Verification suites with machine-readable reports, and seeded samplers.

Each suite appends its check records to the run's list; a record carries the
check name, the weight it ran at (when meaningful), a pass/fail/info status,
and a short witness.  Info records report findings that are not pass/fail
gates.

One weight rule holds for every check: it runs at the run's ``max_weight``
(some at a fixed offset above it), a check whose inputs are fixed reports
the weight of those inputs, and each remaining cap is named next to its
check with its reason.  A sampled check spreads its draws evenly over the
weights 2..max_weight, so a heavier run still samples every lower weight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from . import bar, colie, dgcore, freelie, ihara, lifts, words
from .dgcore import CdgaPresentation
from .linalg import add_term, combine

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 50


@dataclass
class CheckResult:
    check: str
    weight: int | None
    status: str  # "pass" | "fail" | "info"
    witness: object = None


def _result(check: str, ok: bool, weight=None, witness=None) -> CheckResult:
    return CheckResult(check, weight, "pass" if ok else "fail", witness)


# ---------------------------------------------------------------------------
# samplers


def _spread(n: int, max_weight: int) -> list[int]:
    """The weights of n draws: 2, 3, ..., max_weight, 2, 3, ... in turn."""
    return [2 + i % (max_weight - 1) for i in range(n)]


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
        n_slots = min(rng.randint(1, 3), max_weight)
        for i in range(n_slots):
            # keep weight 1 for each slot still to come, so that three-slot
            # words are drawn as often as one- and two-slot words
            m = random_monomial(p, rng, budget - (n_slots - 1 - i))
            if not m:
                break
            slots.append(m)
            budget -= p.monomial_weight(m)
        if not slots:
            continue
        word = tuple(slots)
        c = out.get(word, 0) + rng.choice([-2, -1, 1, 2])
        if c:
            out[word] = c
        else:
            out.pop(word, None)
    return out


def random_lie_element(rng: random.Random, max_weight: int) -> dict:
    pool = words.lyndon_words(max_weight)
    return {
        w: rng.choice([-2, -1, 1, 2])
        for w in rng.sample(pool, k=min(3, len(pool)))
    }


# ---------------------------------------------------------------------------
# suites


def suite_words(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    expected = ["0", "0001", "001", "0011", "01", "011", "0111", "1"]
    out.append(
        _result(
            "lyndon-enumeration-order",
            list(words.lyndon_words(4)) == expected,
            4,
            witness=",".join(words.lyndon_words(4)),
        )
    )
    ok = all(
        words.is_lyndon(format(k, f"0{n}b"))
        == all(format(k, f"0{n}b") < format(k, f"0{n}b")[i:] for i in range(1, n))
        for n in range(1, max_weight + 1)
        for k in range(2**n)
    )
    out.append(_result("lyndon-recognition-brute-force", ok, max_weight))
    members = set(words.lyndon_words(max_weight))
    ok = True
    for w in sorted(members):
        if len(w) < 2:
            continue
        u, v = words.standard_factorization(w)
        ok &= u + v == w and u in members and v in members and u < v
    out.append(_result("standard-factorization-recombines", ok, max_weight))


_BRACKETINGS = {
    "01": ("0", "1"),
    "001": ("0", "01"),
    "011": ("01", "1"),
    "0001": ("0", "001"),
    "0011": ("0", "011"),
    "0111": ("011", "1"),
}


def suite_lie(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    ok = all(words.standard_factorization(w) == uv for w, uv in _BRACKETINGS.items())
    out.append(_result("bracketings-weights-2-to-4", ok, 4))
    ok = all(
        freelie.rewrite_in_lyndon(freelie.expand(w)) == {w: 1}
        for w in words.lyndon_words(max_weight)
    )
    out.append(_result("expand-rewrite-round-trip", ok, max_weight))
    ok = all(
        min(freelie.expand(w)) == w and freelie.expand(w)[w] == 1
        for w in words.lyndon_words(max_weight + 1)
    )
    out.append(_result("expansion-triangularity", ok, max_weight + 1))
    rng = random.Random(seed)
    ok = True
    for weight in _spread(max(samples, 100), max_weight):
        e = random_lie_element(rng, weight)
        ok &= freelie.rewrite_in_lyndon(freelie.lie_to_word_poly(e)) == e
    out.append(_result("rewrite-random-round-trip", ok, max_weight))
    # a cap: the triples are Lyndon words of length <= 4, so they reach
    # weight 12 at most.  Triples of every Lyndon word to the run weight took
    # suite_lie from 0.06 s to 0.33-0.41 s at weight 9, and from 0.011 s to
    # 0.024 s at weight 6
    ws = words.lyndon_words(4)
    jacobi_to = min(max_weight + 2, 12)
    ok = True
    for u in ws:
        for v in ws:
            for w in ws:
                if len(u) + len(v) + len(w) > jacobi_to:
                    continue
                eu, ev, ew = (freelie.basis_element(x) for x in (u, v, w))
                total = combine(
                    (1, freelie.lie_bracket(freelie.lie_bracket(eu, ev), ew)),
                    (1, freelie.lie_bracket(freelie.lie_bracket(ev, ew), eu)),
                    (1, freelie.lie_bracket(freelie.lie_bracket(ew, eu), ev)),
                )
                ok &= total == {}
    out.append(_result("jacobi-identity", ok, jacobi_to))
    try:
        freelie.alpha_table(max_weight)
        ihara.beta_gamma_tables(max_weight)
        out.append(_result("tables-integral", True, max_weight))
    except freelie.TableInconsistencyError as exc:
        out.append(_result("tables-integral", False, max_weight, str(exc)))


def suite_signs(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    ok = (
        dgcore.koszul_sign((0, 1, 2), (3, 4, 5)) == 1
        and dgcore.koszul_sign((1, 0), (1, 1)) == -1
        and dgcore.koszul_sign((1, 0), (1, 2)) == 1
    )
    out.append(_result("koszul-sign-examples", ok))
    p = dgcore.model_x(max_weight)
    rng = random.Random(seed)
    # fixed inputs: L0_01 of weight 2 and L1_0
    g = p.generator_element("L0_01")
    h = p.generator_element("L1_0")
    ok = p.multiply(g, g) == {} and p.multiply(g, h) == {
        k: -v for k, v in p.multiply(h, g).items()
    }
    out.append(_result("odd-generators-anticommute", ok, 2))
    ok = True
    for weight in _spread(samples, max_weight):
        elems = []
        for _ in range(3):
            m = random_monomial(p, rng, weight)
            elems.append({m: rng.choice([-2, -1, 1, 2])} if m else {})
        a, b, c = elems
        ok &= p.multiply(p.multiply(a, b), c) == p.multiply(a, p.multiply(b, c))
    out.append(_result("product-associative-samples", ok, max_weight))
    basis = (
        dgcore.GradedGenerator("u", 1, 2),
        dgcore.GradedGenerator("w", 2, 2),
        dgcore.GradedGenerator("a", 0, 1),
        dgcore.GradedGenerator("b", 1, 1),
    )
    syn = dgcore.cobar_colie(
        dgcore.CoLiePresentation(
            basis=basis,
            differential={"a": {"b": 1}, "u": {"w": 2}},
            cobracket={
                "u": {("a", "b"): 1, ("b", "a"): -1},
                "w": {("b", "b"): 1},
            },
        )
    )
    ok = syn.differential["a"] == {("b",): -1} and syn.differential["u"] == {
        ("w",): -2,
        ("a", "b"): -2,
    }
    # fixed inputs: a coLie basis of weights 1 and 2
    out.append(_result("suspension-differential-sign", ok, 2))


def suite_colie(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    alpha = freelie.alpha_table(max_weight)
    beta, gamma = ihara.beta_gamma_tables(max_weight)
    ok = all(u != "0" and v != "1" for (_, u, v) in beta)
    sub = words.lyndon_words(max_weight - 1)
    for w in words.lyndon_words(max_weight):
        if len(w) < 2:
            continue
        for u in sub:
            if len(u) + 1 == len(w):
                ok &= beta.get((w, u, "0"), 0) == alpha.get((w, "0", u), 0)
                ok &= beta.get((w, "1", u), 0) == alpha.get((w, u, "1"), 0)
        for u in sub:
            for v in sub:
                if u < v and len(u) + len(v) == len(w):
                    ok &= gamma.get((w, u, v), 0) == (
                        alpha.get((w, u, v), 0) + beta.get((w, u, v), 0) - beta.get((w, v, u), 0)
                    )
    out.append(_result("derivation-table-identities", ok, max_weight))
    ok = colie.cobracket({("x", "01"): 1}) == {
        (("x", "0"), ("x", "1")): 1,
        (("x", "1"), ("one", "0")): 1,
    }
    ok &= all(
        colie.cobracket({(fam, w): 1}) == {}
        for fam in ("x", "one")
        for w in ("0", "1")
    )
    out.append(_result("cobracket-low-weight-values", ok, 2))
    try:
        a, b, ap, bp = colie.ab_tables(max_weight)
        ok = a == gamma and ap == {k: -v for k, v in a.items()}
        ok &= all(u != "0" and v != "1" for (_, u, v) in list(a) + list(ap))
        ok &= all(u != "1" and v != "0" for (_, u, v) in list(b) + list(bp))
        ok &= all(len(u) + len(v) == len(w) for t in (a, b, ap, bp) for (w, u, v) in t)
        # b(W; U, V) = beta(W; V, U), and b' is b + a(W; U, V) for U < V,
        # b - a(W; V, U) for U > V and b for U = V
        ok &= b == {(w, u, v): c for (w, v, u), c in beta.items()}
        swapped = {(w, v, u): c for (w, u, v), c in a.items()}
        ok &= bp == combine((1, b), (1, a), (-1, swapped))
        out.append(_result("basis-change-tables-double-sourced", ok, max_weight))
    except freelie.TableInconsistencyError as exc:
        out.append(_result("basis-change-tables-double-sourced", False, max_weight, str(exc)))
    ok = all(
        colie.co_jacobi_defect({(fam, w): 1}) == {}
        for w in words.lyndon_words(max_weight)
        for fam in ("x", "one")
    )
    out.append(_result("co-jacobi-defect-zero", ok, max_weight))
    ok = True
    basis_tags = [
        (fam, u) for u in words.lyndon_words(max_weight - 1) for fam in ("x", "one")
    ]
    tensors = {
        (fam, w): colie.tensor_cobracket({(fam, w): 1})
        for w in words.lyndon_words(max_weight)
        for fam in ("x", "one")
    }
    for ta in basis_tags:
        for tb in basis_tags:
            if len(ta[1]) + len(tb[1]) > max_weight:
                continue
            sb = ihara.semidirect_bracket(_as_semidirect(ta), _as_semidirect(tb))
            for w in words.lyndon_words(max_weight):
                if len(w) != len(ta[1]) + len(tb[1]):
                    continue
                ok &= sb.x_part.get(w, 0) == tensors[("x", w)].get((ta, tb), 0)
                ok &= sb.one_part.get(w, 0) == tensors[("one", w)].get((ta, tb), 0)
    out.append(_result("duality-pairing", ok, max_weight))
    rng = random.Random(seed)
    ok = True
    for weight in _spread(samples, max_weight):
        e = {
            ("x" if rng.random() < 0.5 else "one", w): rng.choice([-2, 1])
            for w in rng.sample(words.lyndon_words(weight), k=2)
        }
        ok &= colie.change_basis(colie.change_basis(e, "t01"), "x1") == e
    out.append(_result("basis-change-round-trip", ok, max_weight))
    a_rows = colie.coefficient_rows("a", max_weight)
    ok = True
    for w in words.lyndon_words(max_weight):
        if len(w) < 2:
            continue
        got = colie.cobracket({("t0", w): 1, ("t1", w): -1})
        expected: dict = {}
        for u, v, c in a_rows.get(w, ()):
            for fu, su in ((("t0", u), 1), (("t1", u), -1)):
                for fv, sv in ((("t0", v), 1), (("t1", v), -1)):
                    colie.wedge_add(expected, fu, fv, c * su * sv)
        ok &= got == expected
    out.append(_result("one-family-cobracket-pure-a-form", ok, max_weight))


def _as_semidirect(tag):
    fam, u = tag
    e = freelie.basis_element(u)
    if fam == "x":
        return ihara.SemidirectElement(x_part=e)
    return ihara.SemidirectElement(one_part=e)


def suite_models(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    # a model that fails its own checks raises here, and run_suites fails the suite
    for mw in range(2, max_weight + 1):
        dgcore.model_x(mw), dgcore.model_a1(mw), dgcore.model_point(mw)
    out.append(_result("models-differential-squares-to-zero", True, max_weight))
    cb = dgcore.cobar_colie(dgcore.colie_presentation(max_weight, "t01"))
    mx = dgcore.model_x(max_weight)
    # T0:W -> L0_W and T1:W -> L1_W, for the generators model_x has; a cobar
    # term on a killed generator makes transport raise
    renamed = {g.name: g.name.replace("T", "L", 1).replace(":", "_") for g in cb.generators}
    images = {t: {(g,): 1} for t, g in renamed.items() if g in mx.index}
    try:
        ok = all(
            dgcore.transport(cb.differential[t], images, mx) == mx.differential[g]
            for t, ((g,),) in images.items()
        )
    except ValueError:
        ok = False
    out.append(_result("cobar-reproduces-model", ok, max_weight))
    # a fixed corrupted input: the weight-4 tag T0:0011 with its
    # (T0:01, T1:01) coefficient negated
    cp = dgcore.colie_presentation(4, "t01")
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
    for mw2 in (2, max_weight):
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
    out.append(_result("restriction-maps-are-chain-maps", ok, max_weight))
    rng = random.Random(seed)
    pa = dgcore.model_a1(max_weight)
    ok = True
    for weight in _spread(samples // 2, max_weight):
        a = {random_monomial(pa, rng, weight): 1}
        b = {random_monomial(pa, rng, weight): 1}
        if () in a or () in b:
            continue
        lhs = dgcore.restrict_j(pa.multiply(a, b), max_weight)
        rhs = dgcore.model_x(max_weight).multiply(
            dgcore.restrict_j(a, max_weight), dgcore.restrict_j(b, max_weight)
        )
        ok &= lhs == rhs
    out.append(_result("open-restriction-multiplicative", ok, max_weight))


def suite_bar(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    p = dgcore.model_x(max_weight)
    rng = random.Random(seed)
    elems = [random_bar_element(p, rng, max_weight=w) for w in _spread(samples, max_weight)]
    ok = all(bar.bar_differential(bar.bar_differential(b, p), p) == {} for b in elems)
    out.append(_result("bar-differential-squares-to-zero", ok, max_weight))
    ok = True
    for b in elems[: samples // 2]:
        left: dict = {}
        right: dict = {}
        for (w1, w2), c in bar.coproduct(b).items():
            for (u1, u2), d in bar.coproduct({w1: 1}).items():
                add_term(left, (u1, u2, w2), c * d)
            for (u1, u2), d in bar.coproduct({w2: 1}).items():
                add_term(right, (w1, u1, u2), c * d)
        ok &= left == right
    out.append(_result("coproduct-coassociative", ok, max_weight))
    # fixed inputs: elements of weight <= 2, for the checks that shuffle them
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
    out.append(_result("shuffle-associative", ok, 2))
    out.append(_result("hopf-compatibility", hopf, 2))
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
    out.append(_result("projector-idempotent-chain-map", ok, max_weight))
    out.append(_result("projector-kills-shuffles", kills, 2))
    # delta_Q projects only the short right leg of each split and mirrors
    # the components with the longer left leg, because on a projected h the
    # tensor X = (p @ p)(red h) is antisymmetric and its raw left legs
    # already sum to projected ones: check it against X built over every
    # split with both legs projected, the right legs of each left leg
    # together.  These words have two or three slots: a generator of
    # weight <= 2, or the product of two, which is odd in the bar; so the
    # inputs are fixed, words of weight <= 12
    gens = [(g.name,) for g in p.generators if g.weight <= 2]
    slots = gens + [a + b for i, a in enumerate(gens) for b in gens[i + 1 :]]
    rng3 = random.Random(seed + 2)
    ok = True
    for _ in range(samples // 3):
        b = {}
        for _ in range(2):
            word = tuple(rng3.choice(slots) for _ in range(rng3.randint(2, 3)))
            b[word] = rng3.choice((-2, -1, 1, 2))
        h = bar.hain_projector(b, p)
        by_left: dict = {}
        for (w1, w2), c in bar.coproduct(h).items():
            if w1 and w2:
                by_left.setdefault(w1, {})[w2] = c
        x: dict = {}
        for w1, rights in by_left.items():
            right = bar.hain_projector(rights, p)
            for v1, c1 in bar.hain_projector({w1: 1}, p).items():
                for v2, c2 in right.items():
                    add_term(x, (v1, v2), c1 * c2)
        ok &= bar.tensor_swap(x, p) == {k: -v for k, v in x.items()}
        ok &= bar.delta_Q(h, p) == x
    out.append(_result("cobracket-antisymmetric", ok, 12))


@lru_cache(maxsize=None)
def _corrupted_model() -> CdgaPresentation:
    """model_x(4) with one coefficient of d(L0_01) doubled, built once.

    The oracle and the bar kernels cache their work on the presentation
    object, so a fresh one per run would add to their caches every time.
    """
    base = dgcore.model_x(4)
    diff = {k: dict(v) for k, v in base.differential.items()}
    diff["L0_01"][("L0_1", "L1_0")] = 2
    return CdgaPresentation(base.generators, diff, name="bad", validate=False)


def suite_lifts(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    # a cap: the oracle lifts, and the fiber and family identities, run to
    # weight 5 at most.  Either uncapped took a cold in-process run of every
    # suite from 0.15 s to 0.18 s at weight 6, from 0.46 s to 0.6 s at
    # weight 7 and from 1.8 s to 2.5 s at weight 8
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
    # the unit formula with solved constants against the unique oracle lifts,
    # read from the audit of the auto lifts: at the audit's weights, every one
    # with unit constants, those are the unit formula's as it is, so a fault
    # in the constants fails this check
    audit = lifts.audit_adjunction_unit(max_weight)
    audited = audit["weights"][-1]["weight"]
    ok = all(row["solved_unit_matches_unique_oracle"] for row in audit["weights"])
    out.append(_result("unit-matches-unique-oracle", ok, audited))
    # a fixed corrupted input: model_x(4) with one coefficient doubled
    try:
        lifts.closed_lift_oracle("0011", "plain", _corrupted_model())
        out.append(_result("corrupted-model-detected", False, 4))
    except lifts.InfeasibleLiftError:
        out.append(_result("corrupted-model-detected", True, 4))
    ok = True
    nonzero = []
    for w in words.lyndon_words(oracle_to):
        if len(w) < 2:
            continue
        ok &= lifts.verify_fiber_identity(w)
        if not lifts.relate_families(w)["exactly_zero"]:
            nonzero.append(w)
    out.append(_result("fiber-at-one-slotwise-identity", ok, oracle_to))
    # j*(diff) - plain + one is closed and Hain-fixed with zero degree-1 part,
    # and the oracle reports no free parameters, so the only such element is 0
    exact = "True" if not nonzero else f"False at {', '.join(nonzero)}"
    out.append(
        _result(
            "family-relation-exact-vanishing",
            not nonzero,
            oracle_to,
            f"j-restricted difference minus plain plus one vanishes exactly: {exact}",
        )
    )
    # the match with the oracle lifts is unit-matches-unique-oracle's gate;
    # this one gates on the solved constants closing the unit formula
    ok = all(row["closed_with_solved_constants"] for row in audit["weights"])
    out.append(_result("unit-normalization-audit", ok, audited, audit))
    # the audit's probe ran to 6 unless it met a weight without constants;
    # none at 6 means none at any weight above it
    if max_weight >= 6:
        out.append(
            CheckResult(
                "per-degree-constants-at-weight-6",
                6,
                "info",
                f"per-degree unit constants exist: {audited >= 6}; lifts fall back to the exact solver",
            )
        )


def suite_edqx(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
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


def suite_basis(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    r = lifts.verify_geom_basis(max_weight)
    ok = all(r["cobracket_alpha_form"].values())
    out.append(_result("projected-cobracket-alpha-form", ok, max_weight))
    ok = all(r["triangular_unital"].values())
    out.append(_result("projected-family-triangular-unital", ok, max_weight))


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
    if max_weight < 2:
        raise ValueError(f"max_weight must be >= 2, not {max_weight}")
    # the sampled checks take samples // 3 elements, so fewer than 3 check nothing
    if samples < 3:
        raise ValueError(f"samples must be >= 3, not {samples}")
    # each named suite once, in the order first named
    selected = list(SUITES) if "all" in names else list(dict.fromkeys(names))
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results: list[CheckResult] = []
    for name in selected:
        # an inconsistency met while building stops the suite: its records so
        # far stay, a failing suite-NAME record marks the stop, the rest still run
        try:
            SUITES[name](results, max_weight, seed, samples)
        except (
            freelie.TableInconsistencyError,
            dgcore.NotACoLieCoalgebraError,
            dgcore.PresentationError,
            lifts.InfeasibleLiftError,
        ) as exc:
            results.append(_result(f"suite-{name}", False, max_weight, f"{type(exc).__name__}: {exc}"))
    return results

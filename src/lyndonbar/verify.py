"""Verification suites with machine-readable reports, and seeded samplers.

Each suite appends its check records to the run's list; a record carries the
check name, the weight it ran at (when meaningful), a pass/fail/info status,
and a short witness.  Info records report findings that are not pass/fail
gates.

One failure rule holds for every check: it runs in one :func:`_check` block,
which appends its one record, so an inconsistency met while the check builds
its tables, models or lifts fails that check alone and the suite goes on.
What checks share is built by the first check that needs it, and again by a
later one only if that build raised.

One weight rule holds for every check: it runs at the run's ``max_weight``
(some at a fixed offset above it), a check whose inputs are fixed reports
the weight of those inputs, and each remaining cap is named next to its
check with its reason.  A sampled check spreads its draws evenly over the
weights 2..max_weight, so a heavier run still samples every lower weight.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

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


@contextmanager
def _check(out: list[CheckResult], name: str, weight=None, status: str = "pass"):
    """Append one record to ``out`` when the block ends, with the ``weight``
    and ``witness`` the block leaves: ``status`` if it leaves ``ok`` true, else
    "fail".  One of the four inconsistency errors raised in the block fails
    the check, with "ExceptionName: message" as its witness; any other
    exception propagates."""
    r = SimpleNamespace(ok=True, witness=None, weight=weight)
    try:
        yield r
    except (
        freelie.TableInconsistencyError,
        dgcore.NotACoLieCoalgebraError,
        dgcore.PresentationError,
        lifts.InfeasibleLiftError,
    ) as exc:
        r.ok, r.witness = False, f"{type(exc).__name__}: {exc}"
    out.append(CheckResult(name, r.weight, status if r.ok else "fail", r.witness))


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
    with _check(out, "lyndon-enumeration-order", 4) as r:
        r.ok = list(words.lyndon_words(4)) == expected
        r.witness = ",".join(words.lyndon_words(4))
    with _check(out, "lyndon-recognition-brute-force", max_weight) as r:
        r.ok = all(
            words.is_lyndon(format(k, f"0{n}b"))
            == all(format(k, f"0{n}b") < format(k, f"0{n}b")[i:] for i in range(1, n))
            for n in range(1, max_weight + 1)
            for k in range(2**n)
        )
    with _check(out, "standard-factorization-recombines", max_weight) as r:
        members = set(words.lyndon_words(max_weight))
        for w in sorted(members):
            if len(w) < 2:
                continue
            u, v = words.standard_factorization(w)
            r.ok &= u + v == w and u in members and v in members and u < v


_BRACKETINGS = {
    "01": ("0", "1"),
    "001": ("0", "01"),
    "011": ("01", "1"),
    "0001": ("0", "001"),
    "0011": ("0", "011"),
    "0111": ("011", "1"),
}


def suite_lie(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    with _check(out, "bracketings-weights-2-to-4", 4) as r:
        r.ok = all(words.standard_factorization(w) == uv for w, uv in _BRACKETINGS.items())
    with _check(out, "expand-rewrite-round-trip", max_weight) as r:
        r.ok = all(
            freelie.rewrite_in_lyndon(freelie.expand(w)) == {w: 1}
            for w in words.lyndon_words(max_weight)
        )
    with _check(out, "expansion-triangularity", max_weight + 1) as r:
        r.ok = all(
            min(freelie.expand(w)) == w and freelie.expand(w)[w] == 1
            for w in words.lyndon_words(max_weight + 1)
        )
    with _check(out, "rewrite-random-round-trip", max_weight) as r:
        rng = random.Random(seed)
        for weight in _spread(max(samples, 100), max_weight):
            e = random_lie_element(rng, weight)
            r.ok &= freelie.rewrite_in_lyndon(freelie.lie_to_word_poly(e)) == e
    # a cap: the triples are Lyndon words of length <= 4, so they reach
    # weight 12 at most.  Triples of every Lyndon word to the run weight took
    # suite_lie from 0.06 s to 0.33-0.41 s at weight 9, and from 0.011 s to
    # 0.024 s at weight 6
    ws = words.lyndon_words(4)
    jacobi_to = min(max_weight + 2, 12)
    with _check(out, "jacobi-identity", jacobi_to) as r:
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
                    r.ok &= total == {}
    with _check(out, "tables-integral", max_weight):
        freelie.alpha_table(max_weight)
        ihara.beta_gamma_tables(max_weight)


def suite_signs(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    with _check(out, "koszul-sign-examples") as r:
        r.ok = (
            dgcore.koszul_sign((0, 1, 2), (3, 4, 5)) == 1
            and dgcore.koszul_sign((1, 0), (1, 1)) == -1
            and dgcore.koszul_sign((1, 0), (1, 2)) == 1
        )
    # fixed inputs: L0_01 of weight 2 and L1_0
    with _check(out, "odd-generators-anticommute", 2) as r:
        p = dgcore.model_x(max_weight)
        g = p.generator_element("L0_01")
        h = p.generator_element("L1_0")
        r.ok = p.multiply(g, g) == {} and p.multiply(g, h) == {
            k: -v for k, v in p.multiply(h, g).items()
        }
    with _check(out, "product-associative-samples", max_weight) as r:
        p = dgcore.model_x(max_weight)
        rng = random.Random(seed)
        for weight in _spread(samples, max_weight):
            elems = []
            for _ in range(3):
                m = random_monomial(p, rng, weight)
                elems.append({m: rng.choice([-2, -1, 1, 2])} if m else {})
            a, b, c = elems
            r.ok &= p.multiply(p.multiply(a, b), c) == p.multiply(a, p.multiply(b, c))
    # fixed inputs: a coLie basis of weights 1 and 2
    with _check(out, "suspension-differential-sign", 2) as r:
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
        r.ok = syn.differential["a"] == {("b",): -1} and syn.differential["u"] == {
            ("w",): -2,
            ("a", "b"): -2,
        }


def suite_colie(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    with _check(out, "derivation-table-identities", max_weight) as r:
        alpha = freelie.alpha_table(max_weight)
        beta, gamma = ihara.beta_gamma_tables(max_weight)
        r.ok = all(u != "0" and v != "1" for (_, u, v) in beta)
        sub = words.lyndon_words(max_weight - 1)
        for w in words.lyndon_words(max_weight):
            if len(w) < 2:
                continue
            for u in sub:
                if len(u) + 1 == len(w):
                    r.ok &= beta.get((w, u, "0"), 0) == alpha.get((w, "0", u), 0)
                    r.ok &= beta.get((w, "1", u), 0) == alpha.get((w, u, "1"), 0)
            for u in sub:
                for v in sub:
                    if u < v and len(u) + len(v) == len(w):
                        r.ok &= gamma.get((w, u, v), 0) == (
                            alpha.get((w, u, v), 0) + beta.get((w, u, v), 0) - beta.get((w, v, u), 0)
                        )
    with _check(out, "cobracket-low-weight-values", 2) as r:
        r.ok = colie.cobracket({("x", "01"): 1}) == {
            (("x", "0"), ("x", "1")): 1,
            (("x", "1"), ("one", "0")): 1,
        }
        r.ok &= all(
            colie.cobracket({(fam, w): 1}) == {}
            for fam in ("x", "one")
            for w in ("0", "1")
        )
    with _check(out, "basis-change-tables-double-sourced", max_weight) as r:
        beta, gamma = ihara.beta_gamma_tables(max_weight)
        a, b, ap, bp = colie.ab_tables(max_weight)
        r.ok = a == gamma and ap == {k: -v for k, v in a.items()}
        r.ok &= all(u != "0" and v != "1" for (_, u, v) in list(a) + list(ap))
        r.ok &= all(u != "1" and v != "0" for (_, u, v) in list(b) + list(bp))
        r.ok &= all(len(u) + len(v) == len(w) for t in (a, b, ap, bp) for (w, u, v) in t)
        # b(W; U, V) = beta(W; V, U), and b' is b + a(W; U, V) for U < V,
        # b - a(W; V, U) for U > V and b for U = V
        r.ok &= b == {(w, u, v): c for (w, v, u), c in beta.items()}
        swapped = {(w, v, u): c for (w, u, v), c in a.items()}
        r.ok &= bp == combine((1, b), (1, a), (-1, swapped))
    with _check(out, "co-jacobi-defect-zero", max_weight) as r:
        r.ok = all(
            colie.co_jacobi_defect({(fam, w): 1}) == {}
            for w in words.lyndon_words(max_weight)
            for fam in ("x", "one")
        )
    with _check(out, "duality-pairing", max_weight) as r:
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
                    r.ok &= sb.x_part.get(w, 0) == tensors[("x", w)].get((ta, tb), 0)
                    r.ok &= sb.one_part.get(w, 0) == tensors[("one", w)].get((ta, tb), 0)
    with _check(out, "basis-change-round-trip", max_weight) as r:
        rng = random.Random(seed)
        for weight in _spread(samples, max_weight):
            e = {
                ("x" if rng.random() < 0.5 else "one", w): rng.choice([-2, 1])
                for w in rng.sample(words.lyndon_words(weight), k=2)
            }
            r.ok &= colie.change_basis(colie.change_basis(e, "t01"), "x1") == e
    with _check(out, "one-family-cobracket-pure-a-form", max_weight) as r:
        a_rows = colie.coefficient_rows("a", max_weight)
        for w in words.lyndon_words(max_weight):
            if len(w) < 2:
                continue
            got = colie.cobracket({("t0", w): 1, ("t1", w): -1})
            expected: dict = {}
            for u, v, c in a_rows.get(w, ()):
                for fu, su in ((("t0", u), 1), (("t1", u), -1)):
                    for fv, sv in ((("t0", v), 1), (("t1", v), -1)):
                        colie.wedge_add(expected, fu, fv, c * su * sv)
            r.ok &= got == expected


def _as_semidirect(tag):
    fam, u = tag
    e = freelie.basis_element(u)
    if fam == "x":
        return ihara.SemidirectElement(x_part=e)
    return ihara.SemidirectElement(one_part=e)


def suite_models(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    # a model that fails its own checks raises here, and the check fails
    with _check(out, "models-differential-squares-to-zero", max_weight):
        for mw in range(2, max_weight + 1):
            dgcore.model_x(mw), dgcore.model_a1(mw), dgcore.model_point(mw)
    with _check(out, "cobar-reproduces-model", max_weight) as r:
        cb = dgcore.cobar_colie(dgcore.colie_presentation(max_weight, "t01"))
        mx = dgcore.model_x(max_weight)
        # T0:W -> L0_W and T1:W -> L1_W, for the generators model_x has; a
        # cobar term on a killed generator makes transport raise
        renamed = {g.name: g.name.replace("T", "L", 1).replace(":", "_") for g in cb.generators}
        images = {t: {(g,): 1} for t, g in renamed.items() if g in mx.index}
        try:
            r.ok = all(
                dgcore.transport(cb.differential[t], images, mx) == mx.differential[g]
                for t, ((g,),) in images.items()
            )
        except ValueError:
            r.ok = False
    # a fixed corrupted input: the weight-4 tag T0:0011 with its
    # (T0:01, T1:01) coefficient negated
    with _check(out, "corrupted-cobracket-detected", 4) as r:
        cp = dgcore.colie_presentation(4, "t01")
        cobr = {n: dict(t) for n, t in cp.cobracket.items()}
        u, v = ("T0:01", "T1:01")
        cobr["T0:0011"][(u, v)] = -cobr["T0:0011"][(u, v)]
        cobr["T0:0011"][(v, u)] = -cobr["T0:0011"][(v, u)]
        try:
            dgcore.cobar_colie(
                dgcore.CoLiePresentation(basis=cp.basis, differential={}, cobracket=cobr)
            )
            r.ok = False
        except dgcore.NotACoLieCoalgebraError:
            pass
    with _check(out, "restriction-maps-are-chain-maps", max_weight) as r:
        for mw2 in (2, max_weight):
            r.ok &= dgcore.is_chain_map(
                dgcore.model_a1(mw2), dgcore.model_x(mw2), dgcore.j_restriction_images(mw2)
            )
            r.ok &= dgcore.is_chain_map(
                dgcore.model_a1(mw2),
                dgcore.model_point(mw2),
                dgcore.i1_fiber_images(mw2),
            )
            r.ok &= dgcore.is_chain_map(
                dgcore.model_point(mw2),
                dgcore.model_x(mw2),
                dgcore.p1_pullback_images(mw2),
            )
            r.ok &= dgcore.is_chain_map(
                dgcore.model_x(mw2), dgcore.model_geom(mw2), dgcore.geom_projection_images(mw2)
            )
    with _check(out, "open-restriction-multiplicative", max_weight) as r:
        rng = random.Random(seed)
        pa = dgcore.model_a1(max_weight)
        for weight in _spread(samples // 2, max_weight):
            a = {random_monomial(pa, rng, weight): 1}
            b = {random_monomial(pa, rng, weight): 1}
            if () in a or () in b:
                continue
            lhs = dgcore.restrict_j(pa.multiply(a, b), max_weight)
            rhs = dgcore.model_x(max_weight).multiply(
                dgcore.restrict_j(a, max_weight), dgcore.restrict_j(b, max_weight)
            )
            r.ok &= lhs == rhs


def suite_bar(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    @lru_cache(maxsize=None)
    def elems():
        rng = random.Random(seed)
        p = dgcore.model_x(max_weight)
        return [random_bar_element(p, rng, max_weight=w) for w in _spread(samples, max_weight)]

    # fixed inputs: elements of weight <= 2, for the checks that shuffle them
    @lru_cache(maxsize=None)
    def small():
        rng2 = random.Random(seed + 1)
        p = dgcore.model_x(max_weight)
        return [random_bar_element(p, rng2, max_weight=2, n_terms=2) for _ in range(samples)]

    with _check(out, "bar-differential-squares-to-zero", max_weight) as r:
        p = dgcore.model_x(max_weight)
        r.ok = all(bar.bar_differential(bar.bar_differential(b, p), p) == {} for b in elems())
    with _check(out, "coproduct-coassociative", max_weight) as r:
        for b in elems()[: samples // 2]:
            left: dict = {}
            right: dict = {}
            for (w1, w2), c in bar.coproduct(b).items():
                for (u1, u2), d in bar.coproduct({w1: 1}).items():
                    add_term(left, (u1, u2, w2), c * d)
                for (u1, u2), d in bar.coproduct({w2: 1}).items():
                    add_term(right, (w1, u1, u2), c * d)
            r.ok &= left == right
    with _check(out, "shuffle-associative", 2) as r:
        p = dgcore.model_x(max_weight)
        for a, b, c in (small()[i : i + 3] for i in range(0, samples - 2, 3)):
            r.ok &= bar.shuffle(bar.shuffle(a, b, p), c, p) == bar.shuffle(
                a, bar.shuffle(b, c, p), p
            )
    with _check(out, "hopf-compatibility", 2) as r:
        p = dgcore.model_x(max_weight)
        for a, b, _ in (small()[i : i + 3] for i in range(0, samples - 2, 3)):
            lhs = bar.coproduct(bar.shuffle(a, b, p))
            r.ok &= lhs == bar.tensor_shuffle(bar.coproduct(a), bar.coproduct(b), p)
    with _check(out, "projector-idempotent-chain-map", max_weight) as r:
        p = dgcore.model_x(max_weight)
        for b in elems()[: samples // 2]:
            once = bar.hain_projector(b, p)
            r.ok &= bar.hain_projector(once, p) == once
            r.ok &= bar.hain_projector(bar.bar_differential(b, p), p) == bar.bar_differential(
                once, p
            )
    with _check(out, "projector-kills-shuffles", 2) as r:
        p = dgcore.model_x(max_weight)
        for a, b in (small()[i : i + 2] for i in range(0, samples - 1, 2)):
            r.ok &= bar.hain_projector(bar.shuffle(a, b, p), p) == {}
    # delta_Q projects only the short right leg of each split and mirrors
    # the components with the longer left leg, because on a projected h the
    # tensor X = (p @ p)(red h) is antisymmetric and its raw left legs
    # already sum to projected ones: check it against X built over every
    # split with both legs projected, the right legs of each left leg
    # together.  These words have two or three slots: a generator of
    # weight <= 2, or the product of two, which is odd in the bar; so the
    # inputs are fixed, words of weight <= 12
    with _check(out, "cobracket-antisymmetric", 12) as r:
        p = dgcore.model_x(max_weight)
        gens = [(g.name,) for g in p.generators if g.weight <= 2]
        slots = gens + [a + b for i, a in enumerate(gens) for b in gens[i + 1 :]]
        rng3 = random.Random(seed + 2)
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
            r.ok &= bar.tensor_swap(x, p) == {k: -v for k, v in x.items()}
            r.ok &= bar.delta_Q(h, p) == x


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
    lifted = [w for w in words.lyndon_words(oracle_to) if len(w) >= 2]
    for variant in ("plain", "one", "diff", "const"):
        with _check(out, f"oracle-lift-{variant}", oracle_to) as r:
            for w in lifted:
                _, report = lifts.lift_LB(w, variant, "oracle")
                if not report.all_ok:
                    r.ok, r.witness = False, f"{w}: {report}"

    @lru_cache(maxsize=None)
    def audit():
        return lifts.audit_adjunction_unit(max_weight)

    # the unit formula with solved constants against the unique oracle lifts,
    # read from the audit of the auto lifts: at the audit's weights, every one
    # with unit constants, those are the unit formula's as it is, so a fault
    # in the constants fails this check
    with _check(out, "unit-matches-unique-oracle", max_weight) as r:
        r.weight = audit()["weights"][-1]["weight"]
        r.ok = all(row["solved_unit_matches_unique_oracle"] for row in audit()["weights"])
    # a fixed corrupted input: model_x(4) with one coefficient doubled
    with _check(out, "corrupted-model-detected", 4) as r:
        try:
            lifts.closed_lift_oracle("0011", "plain", _corrupted_model())
            r.ok = False
        except lifts.InfeasibleLiftError:
            pass
    with _check(out, "fiber-at-one-slotwise-identity", oracle_to) as r:
        r.ok = all(lifts.verify_fiber_identity(w) for w in lifted)
    # j*(diff) - plain + one is closed and Hain-fixed with zero degree-1 part,
    # and the oracle reports no free parameters, so the only such element is 0
    with _check(out, "family-relation-exact-vanishing", oracle_to) as r:
        nonzero = [w for w in lifted if not lifts.relate_families(w)["exactly_zero"]]
        exact = "True" if not nonzero else f"False at {', '.join(nonzero)}"
        r.ok = not nonzero
        r.witness = f"j-restricted difference minus plain plus one vanishes exactly: {exact}"
    # the match with the oracle lifts is unit-matches-unique-oracle's gate;
    # this one gates on the solved constants closing the unit formula
    with _check(out, "unit-normalization-audit", max_weight) as r:
        r.weight = audit()["weights"][-1]["weight"]
        r.ok = all(row["closed_with_solved_constants"] for row in audit()["weights"])
        r.witness = audit()
    # the audit's probe ran to 6 unless it met a weight without constants;
    # none at 6 means none at any weight above it
    if max_weight >= 6:
        with _check(out, "per-degree-constants-at-weight-6", 6, "info") as r:
            exist = audit()["weights"][-1]["weight"] >= 6
            r.witness = f"per-degree unit constants exist: {exist}; lifts fall back to the exact solver"


def suite_edqx(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    for w in words.lyndon_words(max_weight):
        if len(w) < 2:
            continue
        with _check(out, f"cobracket-structure-form-{w}", len(w)) as r:
            report = lifts.verify_EDQX(w)
            r.ok = report["ok"]
            if report["beta_diagonal"]:
                r.witness = {"beta_diagonal": {k: str(v) for k, v in report["beta_diagonal"].items()}}


def suite_basis(out: list[CheckResult], max_weight: int, seed: int, samples: int) -> None:
    @lru_cache(maxsize=None)
    def report():
        return lifts.verify_geom_basis(max_weight)

    with _check(out, "projected-cobracket-alpha-form", max_weight) as r:
        r.ok = all(report()["cobracket_alpha_form"].values())
    with _check(out, "projected-family-triangular-unital", max_weight) as r:
        r.ok = all(report()["triangular_unital"].values())


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
    """The records of the named suites (or of every suite, for "all"), in order.

    Each check makes exactly one record, pass, fail or info, whatever else
    fails: an inconsistency met while a check builds its tables, models or
    lifts fails that check alone, with "ExceptionName: message" as its
    witness, and every later check and suite still runs.  Any other
    exception propagates.  Raises ``ValueError`` on ``max_weight`` < 2,
    ``samples`` < 3 or an unknown suite name, before any suite runs.
    """
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
        SUITES[name](results, max_weight, seed, samples)
    return results

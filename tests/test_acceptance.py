"""Acceptance criteria, one test per criterion, printing one line each.

Exact rational arithmetic throughout: every comparison is literal equality.
Criteria 3-7 assert on the records of the verification suites, which hold
the one implementation of each of those identity checks.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from lyndonbar import dgcore, freelie, lifts, words
from lyndonbar.verify import DEFAULT_SAMPLES, run_suites

ONE = Fraction(1)
MAX_WEIGHT = 6


def _report(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} FAIL {description}")
        raise
    print(f"criterion {number:2d} PASS {description}")


def test_criterion_01_lyndon_enumeration():
    def body():
        assert list(words.lyndon_words(4)) == [
            "0", "0001", "001", "0011", "01", "011", "0111", "1",
        ]

    _report(1, "Lyndon enumeration to length 4 in the stated order", body)


NESTED = {
    "01": ("0", "1"),
    "001": ("0", ("0", "1")),
    "011": (("0", "1"), "1"),
    "0001": ("0", ("0", ("0", "1"))),
    "0011": ("0", (("0", "1"), "1")),
    "0111": ((("0", "1"), "1"), "1"),
}


def _eval_nested(expr):
    if isinstance(expr, str):
        return {expr: ONE}
    return freelie.word_commutator(_eval_nested(expr[0]), _eval_nested(expr[1]))


def test_criterion_02_standard_bracketings():
    def body():
        for w, nested in NESTED.items():
            u, v = words.standard_factorization(w)
            assert (u, v) == _flatten(nested)
            assert freelie.expand(w) == _eval_nested(nested)

    def _flatten(nested):
        def word_of(e):
            if isinstance(e, str):
                return e
            return word_of(e[0]) + word_of(e[1])

        return word_of(nested[0]), word_of(nested[1])

    _report(2, "bracketings through weight 4 match the stated factorizations", body)


@lru_cache(maxsize=None)
def _statuses(suite: str, max_weight: int, samples: int) -> dict:
    results = run_suites([suite], max_weight=max_weight, seed=42, samples=samples)
    return {r.check: r.status for r in results}


def _assert_pass(suite: str, max_weight: int, checks, samples: int = DEFAULT_SAMPLES):
    """The named checks of one seeded ``run_suites`` run all have status pass."""
    statuses = _statuses(suite, max_weight, samples)
    for check in checks:
        assert statuses[check] == "pass", (suite, check)


def test_criterion_03_derivation_table_identities():
    def body():
        _assert_pass("lie", MAX_WEIGHT, ["tables-integral"])
        _assert_pass("colie", MAX_WEIGHT, ["derivation-table-identities"])

    _report(3, "all derivation-table identities to weight 6, tables integral", body)


def test_criterion_04_basis_change_tables():
    def body():
        _assert_pass("colie", MAX_WEIGHT, ["basis-change-tables-double-sourced"])

    _report(4, "a = gamma, a' = -a, vanishing rows, double-sourced agreement", body)


def test_criterion_05_cobracket_and_co_jacobi():
    def body():
        _assert_pass(
            "colie", MAX_WEIGHT, ["cobracket-low-weight-values", "co-jacobi-defect-zero"]
        )

    _report(5, "weight-2 cobracket exact; co-Jacobi defect zero to weight 6", body)


def test_criterion_06_cobar_models_and_negative():
    def body():
        _assert_pass(
            "models",
            MAX_WEIGHT,
            ["models-differential-squares-to-zero", "corrupted-cobracket-detected"],
        )

    _report(6, "models have square-zero differentials; flipped coefficient detected", body)


def test_criterion_07_bar_axioms():
    # 100 samples: the coassociativity and projector checks take the first 50
    def body():
        _assert_pass(
            "bar",
            4,
            [
                "bar-differential-squares-to-zero",
                "coproduct-coassociative",
                "shuffle-associative",
                "hopf-compatibility",
                "projector-idempotent-chain-map",
                "projector-kills-shuffles",
            ],
            samples=100,
        )

    _report(7, "bar axioms on 50 seeded random elements at weight <= 4", body)


def test_criterion_08_oracle_all_variants():
    def body():
        for w in words.lyndon_words(5):
            if len(w) < 2:
                continue
            for variant in ("plain", "one", "diff", "const"):
                element, report = lifts.lift_LB(w, variant, "oracle")
                assert report.pi1_ok, (w, variant)
                assert report.hain_fixed, (w, variant)
                assert report.degree_zero, (w, variant)
                assert report.closed, (w, variant)
                assert report.cobracket_ok, (w, variant)

    _report(8, "solver lift feasible with all four stated properties, weights 2-5", body)


def test_criterion_09_structure_form_of_cobracket():
    def body():
        for w in words.lyndon_words(MAX_WEIGHT):
            if len(w) < 2:
                continue
            r = lifts.verify_EDQX(w)
            assert r["ok"], (w, r)

    _report(9, "coefficient identities and alpha/beta cobracket form to weight 6", body)


def test_criterion_10_geometric_basis():
    def body():
        r = lifts.verify_geom_basis(MAX_WEIGHT)
        assert r["ok"], r

    _report(10, "projected cobrackets pure alpha-form; family triangular to weight 6", body)


def test_criterion_11_unit_audit():
    def body():
        audit = lifts.audit_adjunction_unit(4)
        for row in audit["weights"]:
            assert isinstance(row["closed_with_published_constants"], bool)
        assert audit["solved_equal_reciprocal_n_catalan"]
        print()
        print("    unit-normalization audit:")
        print(f"      published constants: {audit['published_constants']}")
        print(f"      solved constants:    {audit['solved_constants']}")
        for row in audit["weights"]:
            print(
                f"      weight {row['weight']}: closed with published constants: "
                f"{row['closed_with_published_constants']}; with solved constants: "
                f"{row['closed_with_solved_constants']}"
            )

    _report(11, "adjunction-unit normalization audit produced for weights 2-4", body)


def test_criterion_12_restriction_chain_maps():
    def body():
        for mw in (2, 5):
            assert dgcore.is_chain_map(
                dgcore.model_a1(mw), dgcore.model_x(mw), dgcore.j_restriction_images(mw)
            )
            assert dgcore.is_chain_map(
                dgcore.model_a1(mw), dgcore.model_point(mw), dgcore.i1_fiber_images(mw)
            )
            assert dgcore.is_chain_map(
                dgcore.model_point(mw), dgcore.model_x(mw), dgcore.p1_pullback_images(mw)
            )
        for w in words.lyndon_words(5):
            if len(w) >= 2:
                assert lifts.verify_fiber_identity(w), w

    _report(12, "restriction chain maps and the slotwise fiber identity to weight 5", body)

"""Suite runner and command-line behavior: determinism, formats, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import pytest

from test_caches import package_caches
import lyndonbar
from lyndonbar import bar, cli, colie, dgcore, freelie, ihara, lifts, verify
from lyndonbar.cli import build_parser, main
from lyndonbar.colie import TABLE_NAMES
from lyndonbar.dgcore import CdgaPresentation
from lyndonbar.verify import run_suites

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    return code, capsys.readouterr().out


def test_verify_small_suites_pass():
    results = run_suites(["words", "signs"], max_weight=4)
    assert results and all(r.status != "fail" for r in results)


@pytest.mark.parametrize("max_weight", [4, 7])
def test_the_antisymmetry_check_sees_a_cobracket_without_its_mirror(monkeypatch, max_weight):
    def status():
        results = run_suites(["bar"], max_weight=max_weight)
        return next(r.status for r in results if r.check == "cobracket-antisymmetric")

    assert status() == "pass"
    full = bar.delta_Q

    def without_mirror(b, p):
        return {(v1, v2): c for (v1, v2), c in full(b, p).items() if len(v1) >= len(v2)}

    monkeypatch.setattr(bar, "delta_Q", without_mirror)
    assert status() == "fail"


@pytest.mark.parametrize("max_weight", [6, 7])
def test_the_jacobi_check_sees_one_negated_basis_bracket(monkeypatch, max_weight):
    # [[0], [01]] = [001], and with it [[01], [0]], is read by the check's
    # (0, 01, 1) triple; every other check stays as it was
    def statuses():
        return {r.check: r.status for r in run_suites(["lie"], max_weight=max_weight)}

    assert set(statuses().values()) == {"pass"}
    cached = freelie._basis_bracket
    assert cached("0", "01") == (("001", 1),)

    def negated(u, v):
        return (("001", -1),) if (u, v) == ("0", "01") else cached(u, v)

    try:
        with monkeypatch.context() as m:
            m.setattr(freelie, "_basis_bracket", negated)
            got = statuses()
    finally:
        # what was built while the bracket was negated must not stay cached
        freelie._basis_bracket.cache_clear()
        freelie.alpha_table.cache_clear()
        ihara.beta_gamma_tables.cache_clear()
    assert [check for check, status in got.items() if status != "pass"] == ["jacobi-identity"]
    assert set(statuses().values()) == {"pass"}


# the checks whose inputs do not grow with the run weight, and the weight of
# those inputs; every other check of these suites runs at the run weight or
# at an offset above it
FIXED_INPUT_WEIGHTS = {
    "lyndon-enumeration-order": 4,
    "bracketings-weights-2-to-4": 4,
    "koszul-sign-examples": None,
    "odd-generators-anticommute": 2,
    "suspension-differential-sign": 2,
    "cobracket-low-weight-values": 2,
    "corrupted-cobracket-detected": 4,
    "shuffle-associative": 2,
    "hopf-compatibility": 2,
    "projector-kills-shuffles": 2,
    "cobracket-antisymmetric": 12,
}
RUN_WEIGHT_OFFSETS = {"expansion-triangularity": 1, "jacobi-identity": 2}


def test_every_cheap_check_runs_at_the_run_weight():
    suites = ["words", "lie", "signs", "colie", "models", "bar"]
    results = run_suites(suites, max_weight=7)
    assert [r.check for r in results if r.status != "pass"] == []
    got = {r.check: r.weight for r in results}
    fixed = {check: got[check] for check in FIXED_INPUT_WEIGHTS}
    assert fixed == FIXED_INPUT_WEIGHTS
    grown = {check: w - 7 for check, w in got.items() if check not in FIXED_INPUT_WEIGHTS}
    assert {check: d for check, d in grown.items() if d} == RUN_WEIGHT_OFFSETS


def test_the_family_relation_check_sees_one_changed_coefficient_of_a_one_lift(monkeypatch):
    # the cached auto lift of 0011 in the one-family is read by the family
    # relation of 0011 alone; at weight 4 it is the unit formula's lift, not
    # the oracle lift the oracle-lift-one check reads
    def results():
        return {r.check: r for r in run_suites(["lifts"], max_weight=5)}

    assert {r.status for r in results().values()} == {"pass"}
    element, _ = lifts._lift_LB("0011", "one", "auto")
    word = next(iter(element))
    monkeypatch.setitem(element, word, element[word] + 1)
    got = results()
    assert [check for check, r in got.items() if r.status != "pass"] == [
        "family-relation-exact-vanishing"
    ]
    assert got["family-relation-exact-vanishing"].witness.endswith("vanishes exactly: False at 0011")


def test_the_unit_oracle_check_fails_with_perturbed_solved_constants(monkeypatch, capsys):
    # c_2 doubled: the unit formula no longer gives the oracle lifts, and
    # "auto" reports the failing unit lift rather than masking it
    solved = lifts.solve_unit_constants

    def doubled_c2(n):
        return tuple(2 * c if k == 2 else c for k, c in enumerate(solved(n), start=1))

    monkeypatch.setattr(lifts, "solve_unit_constants", doubled_c2)
    lifts._lift_LB.cache_clear()
    try:
        statuses = {r.check: r.status for r in run_suites(["lifts"], max_weight=4)}
        _, report = lifts.lift_LB("0011", "plain", "auto")
        code, out = run_cli(capsys, "lift", "0011", "--check")
    finally:
        lifts._lift_LB.cache_clear()
    assert report.method == "unit" and not report.all_ok and report.notes == ()
    payload = json.loads(out)
    assert code == 1
    assert payload["method"] == "unit" and payload["properties"]["closed"] is False
    assert payload["notes"] == []
    assert statuses["unit-matches-unique-oracle"] == "fail"
    assert statuses["unit-normalization-audit"] == "fail"
    assert statuses["oracle-lift-plain"] == "pass"


# each column of the adjunction-unit audit, and the checks that gate on it
AUDIT_GATES = {
    "closed_with_published_constants": [],
    "degree_one_part_with_published_constants": [],
    "closed_with_solved_constants": ["unit-normalization-audit"],
    "solved_unit_matches_unique_oracle": ["unit-matches-unique-oracle"],
}


@pytest.mark.parametrize("column", AUDIT_GATES)
def test_each_audit_column_fails_only_its_own_check(monkeypatch, column):
    audit = lifts.audit_adjunction_unit

    def run():
        results = run_suites(["lifts"], max_weight=4)
        witness = next(r.witness for r in results if r.check == "unit-normalization-audit")
        return [r.check for r in results if r.status == "fail"], witness

    assert run() == ([], audit(4))

    def flipped(max_weight):
        report = audit(max_weight)
        report["weights"] = [{**row, column: not row[column]} for row in report["weights"]]
        return report

    monkeypatch.setattr(lifts, "audit_adjunction_unit", flipped)
    # the whole audit stays the witness, flipped column and all
    assert run() == (AUDIT_GATES[column], flipped(4))


def test_the_unit_checks_see_a_changed_c5_at_weight_5_alone(monkeypatch):
    # c_5 doubled, and still no constants at 6: only the audit's weight-5 row
    # reads c_5, and the audit ends at 5 whatever the run weight above it
    solved = lifts.solve_unit_constants

    def doubled_c5(n):
        consts = solved(n)
        if consts is None:
            return None
        return tuple(2 * c if k == 5 else c for k, c in enumerate(consts, start=1))

    monkeypatch.setattr(lifts, "solve_unit_constants", doubled_c5)
    lifts._lift_LB.cache_clear()
    try:
        failed = {
            w: [(r.check, r.weight) for r in run_suites(["lifts"], max_weight=w) if r.status == "fail"]
            for w in (4, 5, 6)
        }
    finally:
        lifts._lift_LB.cache_clear()
    unit_checks = [("unit-matches-unique-oracle", 5), ("unit-normalization-audit", 5)]
    assert failed == {4: [], 5: unit_checks, 6: unit_checks}


def test_verify_weight_6_keeps_the_benchmark_check_names():
    # the benchmark counts a check missing from this pinned list as failed
    pinned = json.loads((ROOT / "perfbench" / "verify_w6_checks.json").read_text())
    results = run_suites(["all"], max_weight=6)
    assert [r.check for r in results] == pinned
    assert [r.check for r in results if r.status == "fail"] == []


def test_a_suite_named_twice_runs_once(capsys):
    code, twice = run_cli(capsys, "verify", "--suite", "words", "words", "--max-weight", "2")
    assert code == 0 and twice.splitlines()[-1] == "3 checks, 0 failed"
    assert twice == run_cli(capsys, "verify", "--suite", "words", "--max-weight", "2")[1]
    # in the order first named
    names = [r.check for r in run_suites(["signs", "words", "signs"], max_weight=2)]
    assert names == [r.check for r in run_suites(["signs", "words"], max_weight=2)]


@pytest.mark.parametrize("names", [["lifts"], ["all"], ["edqx", "words"], ["words"]])
@pytest.mark.parametrize("max_weight", [1, 0, -3])
def test_a_weight_below_2_is_rejected_before_any_suite_runs(monkeypatch, names, max_weight):
    def no_suite(*args):
        raise AssertionError("a suite ran")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, no_suite)
    with pytest.raises(ValueError, match=f"max_weight must be >= 2, not {max_weight}$"):
        run_suites(names, max_weight=max_weight)


@pytest.mark.parametrize("samples", [2, 1, 0, -5])
def test_fewer_than_three_samples_are_rejected_before_any_suite_runs(monkeypatch, samples):
    # the sampled checks take samples // 3 elements, so below 3 some draw
    # nothing and would pass on no evidence
    def no_suite(*args):
        raise AssertionError("a suite ran")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, no_suite)
    names = ["bar", "signs", "colie", "models"]
    with pytest.raises(ValueError, match=f"samples must be >= 3, not {samples}$"):
        run_suites(names, max_weight=4, samples=samples)


def test_three_samples_draw_in_every_sampled_check(capsys):
    statuses = {r.check: r.status for r in run_suites(["bar"], max_weight=4, samples=3)}
    assert statuses["cobracket-antisymmetric"] == "pass"
    # the CLI keeps its own message for the same bound
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bar", "--samples", "2"])
    assert exc.value.code == 2
    assert "--samples must be at least 3" in capsys.readouterr().err


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["nonsense"], max_weight=4)


def flipped_rows(family, word, pair):
    """colie.coefficient_rows with the entry (word; pair) of ``family`` negated."""
    rows = colie.coefficient_rows

    def flipped(name, max_weight):
        table = rows(name, max_weight)
        if name != family or word not in table:
            return table
        return {**table, word: tuple((u, v, -c if (u, v) == pair else c) for u, v, c in table[word])}

    return flipped


@contextmanager
def cold(monkeypatch, patches):
    """``patches``, (module, name, value) triples, set with every package
    cache cleared before and after."""
    caches = package_caches()
    for cache in caches.values():
        cache.cache_clear()
    try:
        with monkeypatch.context() as m:
            for module, name, value in patches:
                m.setattr(module, name, value)
            yield
    finally:
        for cache in caches.values():
            cache.cache_clear()


def cold_flipped_verify(monkeypatch, capsys, family, word, pair, max_weight) -> tuple[int, list]:
    """verify --suite all as JSON with one entry flipped through
    coefficient_rows before anything is built, every package cache cleared
    before and after: the exit status and the records."""
    # one flipped view for every reader: a second one made after the first
    # is patched in would wrap it and flip the entry back
    flipped = flipped_rows(family, word, pair)
    with cold(monkeypatch, [(module, "coefficient_rows", flipped) for module in (colie, dgcore, lifts)]):
        code, out = run_cli(
            capsys, "verify", "--suite", "all", "--max-weight", str(max_weight), "--format", "json"
        )
    assert capsys.readouterr().err == ""
    return code, json.loads(out)


def clean_records(max_weight) -> list:
    """A clean run of every suite, each record as the JSON output has it."""
    return json.loads(json.dumps([asdict(r) for r in run_suites(["all"], max_weight)], default=str))


INCONSISTENCIES = [
    freelie.TableInconsistencyError,
    dgcore.NotACoLieCoalgebraError,
    dgcore.PresentationError,
    lifts.InfeasibleLiftError,
]


def test_an_inconsistency_met_while_building_fails_only_the_checks_that_meet_it(
    monkeypatch, capsys
):
    # alpha(00001; 0, 0001) flipped as the models and the lifts read it,
    # before anything is built: every check still reports under its own
    # name, each one that builds from the flipped row fails with the error
    # as its witness, and every other check is as in a clean run
    code, results = cold_flipped_verify(monkeypatch, capsys, "alpha", "00001", ("0", "0001"), 5)
    clean = clean_records(5)
    assert code == 1 and len(results) == len(clean) == 55
    assert [r["check"] for r in results] == [r["check"] for r in clean]
    raised = [r for r in results if r["status"] == "fail" and r["witness"] is not None]
    assert len(raised) == 31
    assert all(r["witness"].split(":")[0] in {e.__name__ for e in INCONSISTENCIES} for r in raised)
    assert [r["check"] for r in results if r["status"] == "fail" and r["witness"] is None] == [
        "co-jacobi-defect-zero", "duality-pairing"
    ]
    for r, want in zip(results, clean):
        assert r == want or r["status"] == "fail", r


@pytest.mark.parametrize(
    "error", INCONSISTENCIES + [ZeroDivisionError, KeyError], ids=lambda e: e.__name__
)
def test_a_check_that_meets_an_inconsistency_fails_alone(monkeypatch, error):
    def stub(out, max_weight, seed, samples):
        with verify._check(out, "stub-raises", max_weight) as r:
            r.witness = "not reached"
            raise error("met while building")
        with verify._check(out, "stub-next", 2) as r:
            r.witness = "reached"

    monkeypatch.setitem(verify.SUITES, "stub", stub)
    if error not in INCONSISTENCIES:
        with pytest.raises(error):
            run_suites(["stub", "words"], max_weight=3)
        return
    assert run_suites(["stub", "words"], max_weight=3) == [
        verify.CheckResult("stub-raises", 3, "fail", f"{error.__name__}: met while building"),
        verify.CheckResult("stub-next", 2, "pass", "reached"),
    ] + run_suites(["words"], max_weight=3)


# a builder that raises, and the number of checks that fail at weight 6
RAISING_BUILDERS = [
    (dgcore, "model_x", dgcore.PresentationError, 17),
    (colie, "ab_tables", freelie.TableInconsistencyError, 48),
    (freelie, "alpha_table", freelie.TableInconsistencyError, 2),
    (lifts, "closed_lift_oracle", lifts.InfeasibleLiftError, 18),
]


@pytest.mark.parametrize(
    "module, name, error, n_failing", RAISING_BUILDERS, ids=[b[1] for b in RAISING_BUILDERS]
)
def test_a_builder_that_raises_fails_the_checks_that_read_it_and_every_check_reports(
    monkeypatch, module, name, error, n_failing
):
    def raising(*args, **kwargs):
        raise error(f"{name} patched to raise")

    with cold(monkeypatch, [(module, name, raising)]):
        results = run_suites(["all"], 6)
    clean = run_suites(["all"], 6)
    assert [r.check for r in results] == [r.check for r in clean] and len(clean) == 65
    failing = [r for r in results if r.status == "fail"]
    assert len(failing) == n_failing
    assert any(r.witness == f"{error.__name__}: {name} patched to raise" for r in failing)


def test_the_audit_records_fail_under_their_own_names_when_the_audit_raises(monkeypatch):
    def raising(max_weight):
        raise lifts.InfeasibleLiftError("no constants")

    clean = run_suites(["lifts"], max_weight=6)
    monkeypatch.setattr(lifts, "audit_adjunction_unit", raising)
    results = run_suites(["lifts"], max_weight=6)
    assert [r.check for r in results] == [r.check for r in clean]
    assert [r for r in results if r.status == "fail"] == [
        verify.CheckResult(check, 6, "fail", "InfeasibleLiftError: no constants")
        for check in (
            "unit-matches-unique-oracle",
            "unit-normalization-audit",
            "per-degree-constants-at-weight-6",
        )
    ]


# the checks that read model_x(6), or a model of weight 5 or 6 built from
# the same rows, so that a flipped entry the model builders reject fails them
MODEL_CHECKS = [
    "odd-generators-anticommute", "product-associative-samples",
    "models-differential-squares-to-zero", "cobar-reproduces-model",
    "restriction-maps-are-chain-maps", "open-restriction-multiplicative",
    "bar-differential-squares-to-zero", "coproduct-coassociative", "shuffle-associative",
    "hopf-compatibility", "projector-idempotent-chain-map", "projector-kills-shuffles",
    "cobracket-antisymmetric",
    "oracle-lift-plain", "oracle-lift-one", "oracle-lift-const", "unit-matches-unique-oracle",
    "fiber-at-one-slotwise-identity", "family-relation-exact-vanishing",
    "unit-normalization-audit", "per-degree-constants-at-weight-6",
    *(f"cobracket-structure-form-{w}" for w in lyndonbar.words.lyndon_words(6) if len(w) >= 5),
    "projected-cobracket-alpha-form", "projected-family-triangular-unital",
]
TABLE_CHECKS = [
    "basis-change-tables-double-sourced", "co-jacobi-defect-zero", "duality-pairing",
    "one-family-cobracket-pure-a-form", "oracle-lift-diff",
]
# one weight-5 entry of each table the models read, flipped through
# coefficient_rows before anything is built, in a weight-6 run of every
# suite: the number of failing checks, and which
COLD_FLIPS = [
    ("alpha", "00001", ("0", "0001"), 43, MODEL_CHECKS + TABLE_CHECKS),
    ("beta", "00001", ("0001", "0"), 43, MODEL_CHECKS + TABLE_CHECKS),
    ("a", "00101", ("001", "01"), 39, MODEL_CHECKS + ["one-family-cobracket-pure-a-form"]),
    (
        "b", "00001", ("0", "0001"), 5,
        ["cobar-reproduces-model", "restriction-maps-are-chain-maps",
         "family-relation-exact-vanishing", "cobracket-structure-form-00001",
         "projected-cobracket-alpha-form"],
    ),
    ("aprime", "00101", ("001", "01"), 38, MODEL_CHECKS),
    ("bprime", "00101", ("01", "001"), 38, MODEL_CHECKS),
]


@pytest.mark.parametrize("family, word, pair, n_failing, failing", COLD_FLIPS)
def test_a_cold_flipped_entry_fails_its_pinned_checks_and_every_check_reports(
    monkeypatch, capsys, family, word, pair, n_failing, failing
):
    code, results = cold_flipped_verify(monkeypatch, capsys, family, word, pair, 6)
    clean = clean_records(6)
    assert code == 1
    assert [r["check"] for r in results] == [r["check"] for r in clean] and len(clean) == 65
    assert len(set(failing)) == n_failing
    assert [r["check"] for r in results if r["status"] == "fail"] == [
        r["check"] for r in clean if r["check"] in failing
    ]
    # every other record is as in the clean run
    for r, want in zip(results, clean):
        assert r == want or r["check"] in failing, r


# the basis-change check reads b against beta, and b' against b and a: one
# entry of b, of b' with U > V and of b' with U < V, negated in ab_tables'
# output after a clean run
AB_FLIPS = [
    ("b", 1, ("00001", "0", "0001")),
    ("b'", 3, ("00101", "01", "001")),
    ("b'", 3, ("01011", "01", "011")),
]


@pytest.mark.parametrize("name, index, key", AB_FLIPS)
def test_the_basis_change_check_sees_one_negated_b_or_b_prime_entry(monkeypatch, name, index, key):
    def statuses():
        return {r.check: r.status for r in run_suites(["colie"], max_weight=7)}

    assert set(statuses().values()) == {"pass"}
    tables = colie.ab_tables

    def negated(max_weight):
        out = [dict(t) for t in tables(max_weight)]
        assert out[index][key]
        out[index][key] = -out[index][key]
        return tuple(out)

    monkeypatch.setattr(colie, "ab_tables", negated)
    got = statuses()
    assert [check for check, status in got.items() if status != "pass"] == [
        "basis-change-tables-double-sourced"
    ]


def hand_sorted_cobar_matches(cb, mx) -> bool:
    """The cobar check before it went through transport: each cobar term of
    a generator model_x has, renamed, sorted and signed by hand."""
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
            image[ordered] = image.get(ordered, 0) + sign * c
        ok &= {k: v for k, v in image.items() if v} == mx.differential[target]
    return ok


@pytest.mark.parametrize("gen", ["L0_00101", "L1_00111"])
def test_cobar_reproduces_model_sees_one_negated_model_coefficient(monkeypatch, gen):
    clean = dgcore.model_x(5)
    diff = {g: dict(image) for g, image in clean.differential.items()}
    term = min(diff[gen])
    diff[gen][term] = -diff[gen][term]
    bad = CdgaPresentation(clean.generators, diff, name="bad", validate=False)
    cb = dgcore.cobar_colie(dgcore.colie_presentation(5, "t01"))
    assert hand_sorted_cobar_matches(cb, clean) and not hand_sorted_cobar_matches(cb, bad)

    def status():
        results = run_suites(["models"], max_weight=5)
        return next(r.status for r in results if r.check == "cobar-reproduces-model")

    assert status() == "pass"
    model_x = dgcore.model_x
    monkeypatch.setattr(dgcore, "model_x", lambda mw: bad if mw == 5 else model_x(mw))
    assert status() == "fail"


def test_lyndon_lines_and_json(capsys):
    code, out = run_cli(capsys, "lyndon", "--max-length", "4", "--format", "lines")
    assert code == 0
    assert out.split() == ["0", "0001", "001", "0011", "01", "011", "0111", "1"]
    code, out = run_cli(capsys, "lyndon", "--max-length", "1", "--format", "json")
    assert code == 0 and json.loads(out) == ["0", "1"]


def test_coeffs_csv_weight_two(capsys):
    code, out = run_cli(
        capsys, "coeffs", "--family", "alpha", "--max-weight", "2", "--format", "csv"
    )
    assert code == 0
    assert out.strip().splitlines() == ["W,U,V,value", "01,0,1,1"]


def test_coeffs_json_values_are_exact_strings(capsys):
    code, out = run_cli(
        capsys, "coeffs", "--family", "beta", "--max-weight", "4", "--format", "json"
    )
    rows = json.loads(out)
    assert code == 0 and all(isinstance(r["value"], str) for r in rows)
    assert {"W": "01", "U": "1", "V": "0", "value": "1"} in rows


def test_coeffs_family_choices_are_the_colie_table_names(capsys):
    (family,) = [a for a in build_parser()[1]["coeffs"]._actions if a.dest == "family"]
    assert family.choices is TABLE_NAMES
    for name in TABLE_NAMES:
        code, out = run_cli(capsys, "coeffs", "--family", name, "--max-weight", "3")
        assert code == 0 and isinstance(json.loads(out), list), name


def test_cobracket_tag_syntax(capsys):
    code, out = run_cli(capsys, "cobracket", "Tx:01")
    payload = json.loads(out)
    assert code == 0
    assert payload["terms"] == [
        {"left": "Tx:0", "right": "Tx:1", "value": "1"},
        {"left": "Tx:1", "right": "T@1:0", "value": "1"},
    ]
    code, out = run_cli(capsys, "cobracket", "T@1:01", "--basis", "t01")
    payload = json.loads(out)
    assert code == 0 and payload["basis"] == "t01"


def test_model_dump_schema(capsys):
    code, out = run_cli(capsys, "model", "--space", "x", "--max-weight", "2")
    payload = json.loads(out)
    assert code == 0
    names = [g["name"] for g in payload["generators"]]
    assert names == ["L0_1", "L1_0", "L0_01", "L1_01", "K_01"]
    assert payload["differential"]["L0_01"] == [
        {"monomial": ["L0_1", "L1_0"], "coeff": "1"}
    ]
    assert all(g["degree"] == 1 for g in payload["generators"])


def test_model_space_choices_are_the_dumped_models(capsys):
    (space,) = [a for a in build_parser()[1]["model"]._actions if a.dest == "space"]
    assert space.choices == tuple(cli._SPACES) == ("x", "a1", "point")
    for name, builder in cli._SPACES.items():
        code, out = run_cli(capsys, "model", "--space", name, "--max-weight", "2")
        names = [g.name for g in builder(2).generators]
        assert code == 0 and [g["name"] for g in json.loads(out)["generators"]] == names


def test_trees_cli(capsys):
    code, out = run_cli(capsys, "trees", "--leaves", "4", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 5 and len(payload["trees"]) == 5
    code, out = run_cli(capsys, "trees", "--leaves", "1", "--format", "lines")
    assert code == 0 and out.strip() == "*"


def test_lift_check_exit_codes(capsys):
    code, out = run_cli(capsys, "lift", "01", "--variant", "plain", "--check")
    payload = json.loads(out)
    assert code == 0 and payload["method"] == "unit"
    code, out = run_cli(capsys, "lift", "01", "--method", "claim", "--check")
    payload = json.loads(out)
    assert code == 1 and not payload["properties"]["closed"]


def test_lift_point_variant(capsys):
    code, out = run_cli(capsys, "lift", "01", "--variant", "point", "--check")
    assert code == 0 and json.loads(out)["variant"] == "point"


def test_verify_exit_zero(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "words", "--max-weight", "4", "--format", "json"
    )
    assert code == 0
    assert all(r["status"] != "fail" for r in json.loads(out))


@pytest.mark.parametrize("weight, checks", [("2", 44), ("3", 46)])
def test_verify_all_at_the_smallest_weights(capsys, weight, checks):
    # the corrupted-cobracket check builds its weight-4 presentation at
    # every run weight
    code, out = run_cli(capsys, "verify", "--max-weight", weight)
    assert code == 0
    assert out.splitlines()[-1] == f"{checks} checks, 0 failed"


def test_deterministic_output(capsys):
    _, first = run_cli(capsys, "coeffs", "--family", "gamma", "--max-weight", "5")
    _, second = run_cli(capsys, "coeffs", "--family", "gamma", "--max-weight", "5")
    assert first == second
    _, v1 = run_cli(capsys, "verify", "--suite", "bar", "--max-weight", "3", "--format", "json")
    _, v2 = run_cli(capsys, "verify", "--suite", "bar", "--max-weight", "3", "--format", "json")
    assert v1 == v2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "lifts", "edqx", "basis", "--max-weight", "5", "--format", "json"],
        ["lift", "001011", "--variant", "one"],
    ],
)
def test_output_does_not_depend_on_the_hash_seed(args):
    # string hashing is seeded per process, so only separate processes can
    # show an order that follows it
    src = str(Path(lyndonbar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "lyndonbar", *args],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_weight_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--family", "alpha", "--max-weight", "10"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the cap itself needs no --force
    code, out = run_cli(capsys, "coeffs", "--family", "alpha", "--max-weight", "9")
    assert code == 0 and '"W": "000000001"' in out


USAGE_ERRORS = [
    ["cobracket", "T9:01"],
    ["lift", "10"],
    ["lift", "1"],
    ["lift", "0000000001"],
    ["cobracket", "T0:"],
    ["lyndon", "--max-length", "0"],
    ["coeffs", "--family", "alpha", "--max-weight", "1"],
    ["trees", "--leaves", "0"],
    ["model", "--space", "a1", "--max-weight", "0"],
    ["verify", "--suite", "models", "--max-weight", "1"],
    ["lyndon", "--max-length", "17"],
    ["trees", "--leaves", "13"],
    ["model", "--space", "x", "--max-weight", "10"],
    ["verify", "--suite", "words", "--max-weight", "10"],
    ["cobracket", "T0:0000000001"],
    ["verify", "--suite", "bar", "--samples", "0"],
    ["verify", "--suite", "bar", "--samples", "2"],
    ["verify", "--suite", "bar", "--samples", "1001"],
    ["verify", "--suite", "nonsense"],
    ["verify", "--suite", "words", "nonsense", "--max-weight", "3"],
]


def test_usage_errors_exit_two(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        # the usage line is the subcommand's, not the top-level one
        assert captured.err.startswith(f"usage: lyndonbar {argv[0]} "), argv


def test_invalid_seed_variable_is_a_verify_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("LYNDONBAR_SEED", "abc")
    code, out = run_cli(capsys, "lyndon", "--max-length", "3")
    assert code == 0 and out.split() == ["0", "001", "01", "011", "1"]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "words", "--max-weight", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: lyndonbar verify ")
    assert "LYNDONBAR_SEED" in captured.err


def test_seed_variable_is_the_default_seed(monkeypatch, capsys):
    monkeypatch.setenv("LYNDONBAR_SEED", "7")
    argv = ["verify", "--suite", "signs", "--max-weight", "3", "--format", "json"]
    code, from_variable = run_cli(capsys, *argv)
    assert code == 0
    assert from_variable == run_cli(capsys, *argv, "--seed", "7")[1]


# sha256 of the stdout of `verify --suite all --max-weight 6 --format json`,
# recorded when the unit audit came to run at every weight with unit constants
GOLDEN_VERIFY_W6 = "5a05ef2debd1e24147a97d540377dd00761860f56f7d3c80f1b1d9ecf7f55ec0"


def test_verify_all_weight_6_matches_golden_digest(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "all", "--max-weight", "6", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_W6


# the same at the default weight, 5: no --max-weight flag
GOLDEN_VERIFY_W5 = "c852954cbef469344c4d78de2d3de347e7e8d443e916329a8864ebd32f24b63f"


def test_verify_all_at_the_default_weight_matches_golden_digest(monkeypatch, capsys):
    monkeypatch.delenv("LYNDONBAR_SEED", raising=False)
    code, out = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_W5


# the same at weight 7, where the lift systems are largest: 1,920 equations
# over model_x(7), 6 of them repeats
GOLDEN_VERIFY_W7 = "c32a150b90baa1001631fd15acaf2d268e4f877b6fa97e204925a773a433b7e6"


def test_verify_all_weight_7_matches_golden_digest():
    src = str(Path(lyndonbar.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "LYNDONBAR_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "lyndonbar", "verify", "--suite", "all", "--max-weight", "7", "--format", "json"],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN_VERIFY_W7


# sha256 of the stdout of `coeffs --family F --max-weight 8 --format json`,
# recorded before the brackets became bilinear over cached basis pairs
GOLDEN_TABLES_W8 = {
    "alpha": "82ff1c4fdbc3a15679f431602204c0e6b5fe841d0549f3cf6e2657958a3e8823",
    "beta": "c1cbbdfdeca919376646e3b72334469e4de13d262c7697660ea0b70b158791d1",
    "gamma": "42fbba3cf25ea23e369faff02c2d839fbe8a7099e1d2c622407072c410a56356",
    "a": "42fbba3cf25ea23e369faff02c2d839fbe8a7099e1d2c622407072c410a56356",
    "b": "6a2839eda3158f833e8be191791353ae02591b97f487840e3f4f27dd15e4e37b",
    "aprime": "fed5f81cfbbff0152a41d5d6ded88a7ea7b9b532c19fc461a55e5a872f0dbc33",
    "bprime": "132c56dbb8af71f6a2c8f5cc285b879636412ea01cc07442fbb8399db795a054",
}


@pytest.mark.parametrize("family", TABLE_NAMES)
def test_weight_8_tables_match_golden_digests(capsys, family):
    code, out = run_cli(capsys, "coeffs", "--family", family, "--max-weight", "8", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLES_W8[family]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "words.json"
    code, out = run_cli(
        capsys, "lyndon", "--max-length", "3", "--format", "json", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text()) == ["0", "001", "01", "011", "1"]


@pytest.mark.parametrize("command", [["lyndon", "--max-length", "3"], ["verify", "--suite", "words", "--max-weight", "3"]])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command):
    for path in (tmp_path / "missing" / "x", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: lyndonbar {command[0]} ")
        assert f"cannot write --out {path}" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_a_closed_stdout_is_a_usage_error():
    # the reader takes one line and goes; the rest of the 150 KB of words
    # is more than the pipe holds, so a write meets the closed pipe
    src = str(Path(lyndonbar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lyndonbar", "lyndon", "--max-length", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline() == b"0\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in err
    assert err == b"lyndonbar lyndon: error: cannot write to stdout: the pipe is closed\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(lyndonbar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "lyndonbar", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"lyndonbar {lyndonbar.__version__}\n"

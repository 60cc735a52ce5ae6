"""Command-line front end: tables, cobrackets, models, trees, lifts, verification.

All output is deterministic for fixed arguments and seed; rationals are
printed as exact ``p/q`` strings, never floats.  Exit status is 0 on success,
1 on an identity violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .colie import basis_of, change_basis, cobracket, coefficient_table
from .dgcore import model_a1, model_point, model_x
from .lifts import VARIANTS, enumerate_trees, lift_LB
from .verify import DEFAULT_SAMPLES, DEFAULT_SEED, run_suites
from .words import InvalidWordError, is_lyndon, lyndon_words

HARD_CAP = 8
# the smallest value each subcommand's size argument accepts
_MINIMUMS = {
    "lyndon": ("max_length", 1),
    "coeffs": ("max_weight", 2),
    "model": ("max_weight", 1),
    "trees": ("leaves", 1),
    "verify": ("max_weight", 2),
}

_TAG_SYNTAX = {"T0": "t0", "T1": "t1", "Tx": "x", "T@1": "one"}
_TAG_NAMES = {v: k for k, v in _TAG_SYNTAX.items()}


def _frac(x: Fraction) -> str:
    return str(x)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _check_weight(args, parser) -> int:
    mw = args.max_weight
    if mw > HARD_CAP and not getattr(args, "force", False):
        parser.error(
            f"max weight {mw} exceeds the cap {HARD_CAP}; pass --force to override"
        )
    return mw


def cmd_lyndon(args, parser) -> int:
    ws = list(lyndon_words(args.max_length))
    if args.format == "json":
        _emit(json.dumps(ws), args.out)
    else:
        _emit("\n".join(ws), args.out)
    return 0


_FAMILIES = ("alpha", "beta", "gamma", "a", "b", "aprime", "bprime")


def cmd_coeffs(args, parser) -> int:
    mw = _check_weight(args, parser)
    table = coefficient_table(args.family, mw)
    rows = [
        {"W": w, "U": u, "V": v, "value": _frac(c)}
        for (w, u, v), c in sorted(table.items())
    ]
    if args.format == "json":
        _emit(json.dumps(rows), args.out)
    else:
        lines = ["W,U,V,value"] + [f"{r['W']},{r['U']},{r['V']},{r['value']}" for r in rows]
        _emit("\n".join(lines), args.out)
    return 0


def _parse_tag(text: str) -> tuple:
    if ":" not in text:
        raise InvalidWordError(f"tag {text!r} is not of the form FAMILY:WORD")
    prefix, word = text.split(":", 1)
    if prefix not in _TAG_SYNTAX:
        raise InvalidWordError(
            f"unknown tag family {prefix!r}; expected one of {sorted(_TAG_SYNTAX)}"
        )
    if not word or any(c not in "01" for c in word) or not is_lyndon(word):
        raise InvalidWordError(f"{word!r} is not a Lyndon word")
    return (_TAG_SYNTAX[prefix], word)


def _format_tag(tag) -> str:
    fam, word = tag
    return f"{_TAG_NAMES[fam]}:{word}"


def cmd_cobracket(args, parser) -> int:
    try:
        tag = _parse_tag(args.tag)
    except InvalidWordError as exc:
        parser.error(str(exc))
    element = {tag: Fraction(1)}
    target = {"x1": "x1", "t01": "t01"}[args.basis] if args.basis else basis_of(element)
    converted = change_basis(element, target)
    wedge = cobracket(converted)
    rows = [
        {"left": _format_tag(a), "right": _format_tag(b), "value": _frac(c)}
        for (a, b), c in sorted(wedge.items())
    ]
    if args.format == "json":
        _emit(json.dumps({"tag": args.tag, "basis": target, "terms": rows}), args.out)
    else:
        _emit(
            "\n".join(f"{r['left']} ^ {r['right']}: {r['value']}" for r in rows) or "0",
            args.out,
        )
    return 0


def cmd_model(args, parser) -> int:
    mw = _check_weight(args, parser)
    builder = {"x": model_x, "a1": model_a1, "point": model_point}[args.space]
    p = builder(mw)
    payload = {
        "generators": [
            {"name": g.name, "degree": g.degree, "weight": g.weight}
            for g in p.generators
        ],
        "differential": {
            g.name: [
                {"monomial": list(m), "coeff": _frac(c)}
                for m, c in sorted(p.differential[g.name].items())
            ]
            for g in p.generators
        },
    }
    _emit(json.dumps(payload), args.out)
    return 0


def _tree_text(tree) -> str:
    if tree is None:
        return "*"
    return f"({_tree_text(tree[0])}{_tree_text(tree[1])})"


def cmd_trees(args, parser) -> int:
    trees = enumerate_trees(args.leaves)
    rendered = [_tree_text(t) for t in trees]
    if args.format == "json":
        _emit(json.dumps({"leaves": args.leaves, "count": len(trees), "trees": rendered}), args.out)
    else:
        _emit("\n".join(rendered), args.out)
    return 0


def cmd_lift(args, parser) -> int:
    word = args.word
    if not word or any(c not in "01" for c in word) or not is_lyndon(word) or len(word) < 2:
        parser.error(f"{word!r} is not a Lyndon word of weight >= 2")
    if len(word) > HARD_CAP and not args.force:
        parser.error(f"weight {len(word)} exceeds the cap {HARD_CAP}; pass --force")
    element, report = lift_LB(word, args.variant, args.method)
    payload = {
        "word": word,
        "variant": args.variant,
        "method": report.method,
        "terms": [
            {"slots": [list(m) for m in bar_word], "coeff": _frac(c)}
            for bar_word, c in sorted(element.items())
        ],
        "properties": {
            "degree_one_part": report.pi1_ok,
            "projector_fixed": report.hain_fixed,
            "bar_degree_zero": report.degree_zero,
            "closed": report.closed,
            "prescribed_cobracket": report.cobracket_ok,
        },
        "affine_dimension": report.affine_dim,
        "notes": report.notes,
    }
    _emit(json.dumps(payload), args.out)
    if args.check and not report.all_ok:
        return 1
    return 0


def cmd_verify(args, parser) -> int:
    mw = _check_weight(args, parser)
    try:
        results = run_suites(args.suite, max_weight=mw, seed=args.seed, samples=args.samples)
    except ValueError as exc:
        parser.error(str(exc))
    failures = [r for r in results if r.status == "fail"]
    if args.format == "json":
        _emit(json.dumps([r.as_dict() for r in results], default=str), args.out)
    else:
        lines = [
            f"{r.status.upper():4s} {r.check}"
            + (f" [weight {r.weight}]" if r.weight is not None else "")
            + (f" -- {r.witness}" if r.status != "pass" and r.witness else "")
            for r in results
        ]
        lines.append(f"{len(results)} checks, {len(failures)} failed")
        _emit("\n".join(lines), args.out)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyndonbar",
        description="Exact Lyndon/free-Lie tables, dual cobrackets, cdga models, "
        "and closed bar-element lifts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lyndon", help="enumerate Lyndon words")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--format", choices=("json", "lines"), default="lines")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("coeffs", help="structure-constant tables")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--force", action="store_true", help="override the weight cap")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("cobracket", help="cobracket of a dual basis tag")
    p.add_argument("tag", help="T0:W, T1:W, Tx:W, or T@1:W")
    p.add_argument("--basis", choices=("x1", "t01"), default=None)
    p.add_argument("--format", choices=("json", "lines"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cobracket)

    p = sub.add_parser("model", help="dump a cdga model presentation")
    p.add_argument("--space", choices=("x", "a1", "point"), required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("trees", help="enumerate planar rooted trivalent trees")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--format", choices=("json", "lines"), default="lines")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("lift", help="lifted closed bar element for a Lyndon word")
    p.add_argument("word")
    p.add_argument("--variant", choices=tuple(VARIANTS), default="plain")
    p.add_argument("--method", choices=("auto", "claim", "oracle"), default="auto")
    p.add_argument("--check", action="store_true", help="exit 1 unless all properties hold")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        nargs="+",
        default=["all"],
        help="words lie signs colie models bar lifts edqx basis, or all",
    )
    p.add_argument("--max-weight", type=int, default=5)
    p.add_argument("--seed", type=int, default=int(os.environ.get("LYNDONBAR_SEED", DEFAULT_SEED)))
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--format", choices=("json", "lines"), default="lines")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _MINIMUMS:
        dest, low = _MINIMUMS[args.command]
        if getattr(args, dest) < low:
            parser.error(f"--{dest.replace('_', '-')} must be at least {low}")
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())

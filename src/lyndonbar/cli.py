"""Command-line front end: tables, cobrackets, models, trees, lifts, verification.

All output is deterministic for fixed arguments and seed; rationals are
printed as exact ``p/q`` strings, never floats.  Exit status is 0 on success,
1 on an identity violation, 2 on usage errors, an unwritable ``--out`` path
and a closed stdout among them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .colie import TABLE_NAMES, TAG_PREFIX, basis_of, change_basis, cobracket, coefficient_table
from .dgcore import model_a1, model_point, model_x
from .lifts import VARIANTS, enumerate_trees, lift_LB
from .verify import DEFAULT_SAMPLES, DEFAULT_SEED, SUITES, run_suites
from .words import InvalidWordError, is_lyndon, lyndon_words

HARD_CAP = 9
# each subcommand's size arguments: (dest, smallest value, cap without --force);
# the output grows about as 2^n / n Lyndon words and Catalan(n-1) trees, and
# the work exponentially in the weight for tables, models and lifts; the
# sampled checks take samples // 3 elements, so fewer than 3 check nothing
_BOUNDS = {
    "lyndon": (("max_length", 1, 16),),
    "coeffs": (("max_weight", 2, HARD_CAP),),
    "model": (("max_weight", 1, HARD_CAP),),
    "trees": (("leaves", 1, 12),),
    "verify": (("max_weight", 2, HARD_CAP), ("samples", 3, 1000)),
}

_TAG_FAMILY = {prefix: family for family, prefix in TAG_PREFIX.items()}
# the models that `model --space` dumps
_SPACES = {"x": model_x, "a1": model_a1, "point": model_point}


class OutputError(Exception):
    """Raised when the ``--out`` file cannot be written."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    else:
        # flushed here, so that a closed stdout fails inside main
        print(text, flush=True)


def cmd_lyndon(args, parser) -> int:
    ws = list(lyndon_words(args.max_length))
    if args.format == "json":
        _emit(json.dumps(ws), args.out)
    else:
        _emit("\n".join(ws), args.out)
    return 0


def cmd_coeffs(args, parser) -> int:
    table = coefficient_table(args.family, args.max_weight)
    rows = [
        {"W": w, "U": u, "V": v, "value": str(c)}
        for (w, u, v), c in sorted(table.items())
    ]
    if args.format == "json":
        _emit(json.dumps(rows), args.out)
    else:
        lines = ["W,U,V,value"] + [f"{r['W']},{r['U']},{r['V']},{r['value']}" for r in rows]
        _emit("\n".join(lines), args.out)
    return 0


def _parse_tag(text: str, force: bool) -> tuple:
    if ":" not in text:
        raise InvalidWordError(f"tag {text!r} is not of the form FAMILY:WORD")
    prefix, word = text.split(":", 1)
    if prefix not in _TAG_FAMILY:
        raise InvalidWordError(
            f"unknown tag family {prefix!r}; expected one of {sorted(_TAG_FAMILY)}"
        )
    _check_word(word, 1, force)
    return (_TAG_FAMILY[prefix], word)


def _check_word(word: str, min_weight: int, force: bool) -> None:
    """Raise InvalidWordError unless ``word`` is a Lyndon word of weight at
    least ``min_weight`` and, without ``force``, at most the cap."""
    # the length first: is_lyndon is quadratic in it
    if len(word) > HARD_CAP and not force:
        raise InvalidWordError(
            f"weight {len(word)} exceeds the cap {HARD_CAP}; pass --force to override"
        )
    if len(word) < min_weight or any(c not in "01" for c in word) or not is_lyndon(word):
        at_least = f" of weight >= {min_weight}" if min_weight > 1 else ""
        raise InvalidWordError(f"{word!r} is not a Lyndon word{at_least}")


def _format_tag(tag) -> str:
    fam, word = tag
    return f"{TAG_PREFIX[fam]}:{word}"


def cmd_cobracket(args, parser) -> int:
    try:
        tag = _parse_tag(args.tag, args.force)
    except InvalidWordError as exc:
        parser.error(str(exc))
    element = {tag: 1}
    target = args.basis or basis_of(element)
    converted = change_basis(element, target)
    wedge = cobracket(converted)
    rows = [
        {"left": _format_tag(a), "right": _format_tag(b), "value": str(c)}
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
    p = _SPACES[args.space](args.max_weight)
    payload = {
        "generators": [
            {"name": g.name, "degree": g.degree, "weight": g.weight}
            for g in p.generators
        ],
        "differential": {
            g.name: [
                {"monomial": list(m), "coeff": str(c)}
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
    try:
        _check_word(word, 2, args.force)
    except InvalidWordError as exc:
        parser.error(str(exc))
    element, report = lift_LB(word, args.variant, args.method)
    payload = {
        "word": word,
        "variant": args.variant,
        "method": report.method,
        "terms": [
            {"slots": [list(m) for m in bar_word], "coeff": str(c)}
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
    seed = args.seed
    if seed is None:
        text = os.environ.get("LYNDONBAR_SEED")
        try:
            seed = DEFAULT_SEED if text is None else int(text)
        except ValueError:
            parser.error(f"LYNDONBAR_SEED={text!r} is not an integer")
    results = run_suites(args.suite, max_weight=args.max_weight, seed=seed, samples=args.samples)
    failures = [r for r in results if r.status == "fail"]
    if args.format == "json":
        _emit(json.dumps([asdict(r) for r in results], default=str), args.out)
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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
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
    p.add_argument("--force", action="store_true", help="override the length cap")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("coeffs", help="structure-constant tables")
    p.add_argument("--family", choices=TABLE_NAMES, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--force", action="store_true", help="override the weight cap")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("cobracket", help="cobracket of a dual basis tag")
    p.add_argument("tag", help="T0:W, T1:W, Tx:W, or T@1:W")
    p.add_argument("--basis", choices=("x1", "t01"), default=None)
    p.add_argument("--format", choices=("json", "lines"), default="json")
    p.add_argument("--force", action="store_true", help="override the weight cap")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cobracket)

    p = sub.add_parser("model", help="dump a cdga model presentation")
    p.add_argument("--space", choices=tuple(_SPACES), required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("trees", help="enumerate planar rooted trivalent trees")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--format", choices=("json", "lines"), default="lines")
    p.add_argument("--force", action="store_true", help="override the leaf cap")
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
        choices=("all", *SUITES),
        default=["all"],
        metavar="SUITE",
        help=f"{' '.join(SUITES)}, or all",
    )
    p.add_argument("--max-weight", type=int, default=5)
    p.add_argument(
        "--seed", type=int, default=None, help=f"default: $LYNDONBAR_SEED, else {DEFAULT_SEED}"
    )
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--format", choices=("json", "lines"), default="lines")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    # usage errors past parsing print the subcommand's usage line
    command = commands[args.command]
    for dest, low, cap in _BOUNDS.get(args.command, ()):
        flag, value = "--" + dest.replace("_", "-"), getattr(args, dest)
        if value < low:
            command.error(f"{flag} must be at least {low}")
        if value > cap and not args.force:
            command.error(f"{flag} {value} exceeds the cap {cap}; pass --force to override")
    try:
        return args.func(args, command)
    except OutputError as exc:
        command.error(str(exc))
    except BrokenPipeError:
        # stdout to devnull first, so that the interpreter's last flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        command.exit(2, f"{command.prog}: error: cannot write to stdout: the pipe is closed\n")


if __name__ == "__main__":
    sys.exit(main())

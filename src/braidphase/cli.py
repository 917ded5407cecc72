"""Command-line front end.

Subcommands:

* ``normalize``       canonical form of a braid word (Garside) or free word
* ``equal``           decide equality of two words (``--oracle``, for braids)
* ``act``             apply the braid action to a free word
* ``rewrite-pure``    rewrite a pure braid word into the a-alphabet
* ``cocycle-build``   write a braid 1-cocycle table as JSON
* ``cocycle-classify``decide similarity of two braid cocycles
* ``verdict``         evaluate the simplicity / trace / factor criteria
* ``verify``          run the seeded identity-verification suites

Exit codes: 0 success, 1 verification failure, 2 parse error (including a
braid cocycle table that fails validation and a file that cannot be read or
written: missing, a directory, or not UTF-8), 3 rank or strand mismatch
(including a non-positive strand count and ``verify --max-n`` below 2), 4
missing external cocycle data.

The checks ``verify`` runs live in :mod:`braidphase.verify`; this module
only parses arguments and formats output.  The ``verify`` report is
deterministic: identical seed and flags give byte-identical output.
Per-check wall-clock timings are therefore only included when
``--timings`` is passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cocycle as co
from .artin import apply_braid
from .braid import equal, garside_normal_form, is_pure, parse_braid_word, rewrite_pure
from .cocycle import (
    build_braid_cocycle,
    cocycle_from_json,
    cocycle_to_json,
    evaluate_conditions,
    mu_params,
    omega_from_json,
    restrict_to_pure,
    similar_braid_cocycles,
)
from .errors import MissingOmegaError, ParseError, RankError
from .freegroup import parse_free_word
from .phase import parse_angle
from .verify import run_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_RANK = 3
EXIT_MISSING_DATA = 4


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_normalize(args) -> int:
    if args.group == "bn":
        word = parse_braid_word(args.word, args.n)
        print(garside_normal_form(word))
    else:
        print(parse_free_word(args.word, args.n))
    return EXIT_OK


def _cmd_equal(args) -> int:
    if args.group == "bn":
        a = parse_braid_word(args.left, args.n)
        b = parse_braid_word(args.right, args.n)
        if args.oracle == "garside":
            result = garside_normal_form(a) == garside_normal_form(b)
        else:
            result = equal(a, b)
    else:
        result = parse_free_word(args.left, args.n) == parse_free_word(args.right, args.n)
    print("true" if result else "false")
    return EXIT_OK


def _cmd_act(args) -> int:
    b = parse_braid_word(args.braid, args.n)
    w = parse_free_word(args.word, args.n)
    print(apply_braid(b, w))
    return EXIT_OK


def _cmd_rewrite_pure(args) -> int:
    b = parse_braid_word(args.word, args.n)
    if not is_pure(b):
        print("error: braid word is not pure", file=sys.stderr)
        return EXIT_RANK
    print(rewrite_pure(b))
    return EXIT_OK


def _cmd_cocycle_build(args) -> int:
    mu1 = parse_angle(args.mu1)
    mu2 = parse_angle(args.mu2) if args.mu2 is not None else None
    diag = None
    if args.diag is not None:
        diag = [parse_angle(part) for part in args.diag.split(",")]
    c = build_braid_cocycle(args.n, mu1, mu2, diag)
    doc = cocycle_to_json(restrict_to_pure(c) if args.restrict_to_pure else c)
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _load_cocycle(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_cocycle_classify(args) -> int:
    c1 = cocycle_from_json(_load_cocycle(args.first))
    c2 = cocycle_from_json(_load_cocycle(args.second))
    if not isinstance(c1, co.BraidOneCocycle) or not isinstance(c2, co.BraidOneCocycle):
        raise ParseError("classification expects braid cocycle tables")
    witness = similar_braid_cocycles(c1, c2)
    mu1a, mu2a = mu_params(c1)
    mu1b, mu2b = mu_params(c2)
    doc = {
        "similar": witness is not None,
        "first": {"mu1": str(mu1a), "mu2": None if mu2a is None else str(mu2a)},
        "second": {"mu1": str(mu1b), "mu2": None if mu2b is None else str(mu2b)},
        "witness": None
        if witness is None
        else {f"x{i}": str(v) for i, v in enumerate(witness.values, start=1)},
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_verdict(args) -> int:
    doc = _load_cocycle(args.cocycle)
    table = cocycle_from_json(doc)
    family = args.family
    if family in ("bn", "an") and not isinstance(table, co.BraidOneCocycle):
        raise ParseError(f"family {family} expects a braid cocycle table")
    if family in ("pn", "mackey") and not isinstance(table, co.PureOneCocycle):
        raise ParseError(f"family {family} expects a pure cocycle table")
    omega = None
    if family == "mackey":
        omega = omega_from_json(doc.get("omega", []), table.n)
    verdict = evaluate_conditions(family, table, omega)
    print(json.dumps(verdict.to_json(), indent=2))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verify(args.suite, args.seed, args.max_n, args.timings)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["summary"]["failed"] == 0 else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="braidphase",
        description="Exact braid-group, braid-action and circle-cocycle calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical form of a word")
    p.add_argument("--group", choices=("bn", "fn"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("equal", help="decide equality of two words")
    p.add_argument("--group", choices=("bn", "fn"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", choices=("dynnikov", "garside"), default="dynnikov",
                   help="dynnikov decides; garside, the canonical form, cross-checks it")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("act", help="apply the braid action to a free word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("braid")
    p.add_argument("word")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("rewrite-pure", help="rewrite a pure braid into a(i,j) letters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word")
    p.set_defaults(func=_cmd_rewrite_pure)

    p = sub.add_parser("cocycle-build", help="build a braid 1-cocycle table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu1", required=True)
    p.add_argument("--mu2")
    p.add_argument("--diag", help="comma-separated diagonal values")
    p.add_argument("--restrict-to-pure", action="store_true")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_cocycle_build)

    p = sub.add_parser("cocycle-classify", help="decide similarity of two cocycles")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_cocycle_classify)

    p = sub.add_parser("verdict", help="evaluate the simplicity / trace criteria")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--family", choices=("bn", "pn", "an", "mackey"), required=True)
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("verify", help="run the identity verification suites")
    p.add_argument(
        "--suite", choices=("all", "braid", "cocycle", "infinite"), default="all"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RankError as exc:
        print(f"rank error: {exc}", file=sys.stderr)
        return EXIT_RANK
    except MissingOmegaError as exc:
        print(f"missing data: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

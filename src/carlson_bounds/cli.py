"""Command-line front end.

Subcommands: classify, bounds, table, extrema, approx, verify.  Output is
JSON (default) or CSV where tabular.  Exit codes: 0 success, 2 verification
failure or symbolic/numeric classification conflict, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

from . import bounds as bnd
from . import classifier, verifier
from .family import Params
from .oracle import resolve_digits

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 64 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_families(text: str | None):
    if text is None:
        return None
    return tuple(bnd.parse_family(t) for t in text.split(";") if t.strip()) or None


def build_parser() -> _Parser:
    parser = _Parser(prog="carlson-bounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the monotonicity region of (a, b)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=run_classify)

    p = sub.add_parser("bounds", help="certified interval for arccos x")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--families", type=str, default=None,
                   help="semicolon-separated ids, e.g. 'carlson;thm2(0.2)'")
    p.set_defaults(func=run_bounds)

    p = sub.add_parser("table", help="bound table on a uniform open grid")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--families", type=str, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=run_table)

    p = sub.add_parser("extrema", help="envelope extremum report for (a, b)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=run_extrema)

    p = sub.add_parser("approx", help="midpoint approximation with certified radius")
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=run_approx)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=run_verify)

    return parser


def run_classify(args) -> int:
    p = Params(args.a, args.b)
    symbolic = classifier.classify_symbolic(p)
    numeric = classifier.classify_numeric(p, args.tol)
    try:
        extrema = asdict(classifier.extrema_points(p))
    except ValueError:
        extrema = None
    print(json.dumps({
        "a": args.a,
        "b": args.b,
        "symbolic_class": symbolic.value,
        "numeric_class": numeric.value,
        "necessary_increasing": classifier.necessary_increasing(p),
        "extrema": extrema,
    }))
    conflict = symbolic is not classifier.RegionClass.INDETERMINATE and numeric is not symbolic
    return EXIT_VERIFY if conflict else EXIT_OK


def run_bounds(args) -> int:
    env = bnd.best_envelope(args.x, _parse_families(args.families))
    print(json.dumps({
        "x": args.x,
        "lower": env.lower,
        "upper": env.upper,
        "width": env.width,
        "lower_family": env.lower_family,
        "upper_family": env.upper_family,
    }))
    return EXIT_OK


def run_table(args) -> int:
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    xs = [i / (args.grid + 1.0) for i in range(1, args.grid + 1)]
    rows = bnd.bound_table(xs, _parse_families(args.families))
    if args.format == "csv":
        sys.stdout.write(bnd.table_to_csv(rows))
    else:
        print(bnd.table_to_json(rows))
    return EXIT_OK


def run_extrema(args) -> int:
    report = classifier.extrema_points(Params(args.a, args.b))
    print(json.dumps(asdict(report)))
    return EXIT_OK


def run_approx(args) -> int:
    value, radius = bnd.approx_arccos(args.x)
    print(json.dumps({"x": args.x, "value": value, "radius": radius}))
    return EXIT_OK


def run_verify(args) -> int:
    digits = resolve_digits(args.precision)
    reports = verifier.default_suite(seed=args.seed, digits=digits)
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("check_id", "samples", "worst_margin", "passed", "witnesses"))
        for r in reports:
            writer.writerow((r.check_id, r.samples, repr(r.worst_margin), r.passed,
                             json.dumps([list(w) for w in r.witnesses])))
        sys.stdout.write(out.getvalue())
    else:
        for r in reports:
            print(r.to_json())
    ok = verifier.suite_passed(reports)
    print(json.dumps({"suite_passed": ok, "checks": len(reports),
                      "seed": args.seed, "precision": digits}))
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"carlson-bounds: error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

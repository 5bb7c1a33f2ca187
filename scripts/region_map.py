#!/usr/bin/env python3
"""Dump the (a, b) classification map to CSV for plotting.

Columns: a, b, symbolic, numeric, agree.  The numeric column is the
sign-based classification and is authoritative where the two differ
(see carlson_bounds.classifier).

Usage:
    python scripts/region_map.py --n 121 --lo -0.2 --hi 1.2 --out region_map.csv
"""

import argparse
import csv
import sys

from carlson_bounds.classifier import classify_numeric, classify_symbolic
from carlson_bounds.cli import NEGATIVE_NUMBER
from carlson_bounds.family import Params


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    # the CLI's pattern, so "--lo -1e-3" reads as a number; usage errors still exit 2
    ap._negative_number_matcher = NEGATIVE_NUMBER
    ap.add_argument("--n", type=int, default=121, help="grid points per axis")
    ap.add_argument("--lo", type=float, default=-0.2)
    ap.add_argument("--hi", type=float, default=1.2)
    ap.add_argument("--out", type=str, default="-", help="output CSV path, - for stdout")
    args = ap.parse_args()
    if args.n < 2:
        ap.error(f"--n must be at least 2, got {args.n}")

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["a", "b", "symbolic", "numeric", "agree"])
    step = (args.hi - args.lo) / (args.n - 1)
    for i in range(args.n):
        for j in range(args.n):
            a = args.lo + i * step
            b = args.lo + j * step
            p = Params(a, b)
            sym = classify_symbolic(p).value
            num = classify_numeric(p).value
            writer.writerow([repr(a), repr(b), sym, num, sym == num])
    if out is not sys.stdout:
        out.close()
        print(f"wrote {args.n * args.n} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

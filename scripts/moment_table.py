#!/usr/bin/env python3
"""Tabulate exact moments, their cheap bounds, and sampling budgets.

For the n-qubit excitation counter, print the exact uniform-measure moments
next to the multiplicative bounds and the Monte Carlo sample count needed to
resolve each order to a target precision.

Usage: python scripts/moment_table.py [n] [t_max] [epsilon]

Bad arguments, or an order whose moment or budget leaves double-precision
range, end the table with "error: ..." on stderr and exit code 2.
"""

import sys

from haar_sentinel.haar_moments import exact_moments, moment_bounds, required_samples
from haar_sentinel.spectrum import number_operator, trace


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 3
    t_max = int(argv[2]) if len(argv) > 2 else 6
    epsilon = float(argv[3]) if len(argv) > 3 else 0.01

    s = number_operator(n)
    print(f"{n}-qubit excitation counter: N = {s.dimension}, Tr O = {trace(s):g}, "
          f"Tr O / N = {s.mean:g}")
    print(f"{'t':>3}  {'exact':>14}  {'lower':>12}  {'upper':>14}  {'M(eps=%g)' % epsilon:>14}")
    for mv in exact_moments(s, range(1, t_max + 1)):
        t = mv.t
        b = moment_bounds(s, t)
        print(f"{t:>3}  {mv.value:14.8g}  {b.lower:12.6g}  {b.upper:14.6g}  "
              f"{required_samples(s, t, epsilon):>14,}")


if __name__ == "__main__":
    try:
        main(sys.argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

#!/usr/bin/env python3
"""Record the moment-table reference values from the package at its current commit.

Run from the root of a checkout: python3 perfbench/record_reference.py
Rewrites perfbench/reference.json; the benchmark checks every moment table
against it to within a relative 1e-12.
"""

import json
import os
import sys

QUBITS = 12
ORDERS = list(range(1, 9))
EPSILON = 0.01
SCALES = (-2, -1, 0, 1, 2)


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from haar_sentinel.haar_moments import exact_moment, required_samples
    from haar_sentinel.spectrum import make_spectrum, number_operator

    base = number_operator(QUBITS)
    scales = {}
    for scale in SCALES:
        s = make_spectrum([lam * 2.0**scale for lam in base.eigenvalues], base.multiplicities)
        scales[str(scale)] = {
            "moments": [exact_moment(s, t).value for t in ORDERS],
            "required_samples": [required_samples(s, t, EPSILON) for t in ORDERS],
        }
    doc = {"qubits": QUBITS, "orders": ORDERS, "epsilon": EPSILON, "scales": scales}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

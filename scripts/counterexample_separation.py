#!/usr/bin/env python3
"""Reproduce the headline separation: an ensemble that fools one observable.

The adversarial family concentrates each eigenspace of the n-qubit excitation
counter onto a single basis state, with Dirichlet-distributed weights that
copy the uniform measure's eigenspace statistics exactly.  Probed through the
unpermuted observable it is indistinguishable from uniform randomness; probed
through random eigenbasis permutations it is flagged immediately.

Trial k samples the ensemble at seed 1000 + k; its permutation tier draws the
permutations from campaign seed 5000 + k, exactly as a `verify` campaign with
that seed would.  A trial misses its separation unless the observable tier is
`compatible` and the permutation tier `incompatible`; the script exits 1 when
any trial misses.

Usage: python scripts/counterexample_separation.py [n] [M] [M_perm] [trials]
"""

import sys
import time

from haar_sentinel.ensembles import EnsembleSpec
from haar_sentinel.spectrum import number_operator
from haar_sentinel.verify import (
    average_randomness,
    observable_estimates,
    permutation_randomness,
)


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 6
    m_samples = int(argv[2]) if len(argv) > 2 else 10_000
    m_perm = int(argv[3]) if len(argv) > 3 else 20
    trials = int(argv[4]) if len(argv) > 4 else 20
    epsilon = 0.01

    s = number_operator(n)
    print(f"n = {n} qubits, N = {2**n}, M = {m_samples}, M_perm = {m_perm}, "
          f"{trials} trials, epsilon = {epsilon}")
    print(f"{'trial':>5}  {'tier':<12} {'R':>12}  {'delta':>10}  verdict")

    started = time.time()
    tallies = {"observable": 0, "permutation": 0}
    for trial in range(trials):
        spec = EnsembleSpec(kind="counterexample", dimension=2**n,
                            seed=1000 + trial, params={"n": n})
        [obs] = average_randomness(observable_estimates(spec, s, [1], m_samples), s, epsilon)
        [perm] = permutation_randomness(
            spec, s, [1], m_perm, m_samples, epsilon, seed=5000 + trial,
        )
        tallies["observable"] += obs.verdict == "compatible"
        tallies["permutation"] += perm.verdict == "incompatible"
        for report in (obs, perm):
            print(f"{trial:>5}  {report.tier:<12} {report.R:>+12.6f}  "
                  f"{report.delta:>10.6f}  {report.verdict}")

    print(f"\nobservable tier compatible:    {tallies['observable']}/{trials}")
    print(f"permutation tier incompatible: {tallies['permutation']}/{trials}")
    print(f"elapsed: {time.time() - started:.1f}s")
    return 0 if tallies["observable"] == tallies["permutation"] == trials else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

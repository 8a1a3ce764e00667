#!/usr/bin/env python3
"""Inspect the closed-form co-occurrence model at a chosen size.

Prints the marginal identity check, the max |PMI| over all pairs, the
top of the spectrum in both decomposition modes, and the agreement
between the analytic factors and the dense LAPACK (``numpy.linalg.eigh``)
oracle.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigennoise.eigen import dense_eigh, eigennoise_analytic
from eigennoise.harmonic import HarmonicModel, materialize, materialize_log, pmi_matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--m", type=int, default=5)
    parser.add_argument("--d", type=int, default=4)
    args = parser.parse_args()

    model = HarmonicModel(n=args.n, m=args.m)
    cooc = materialize(model)
    ranks = np.arange(1, args.n + 1)
    marg_err = np.abs(cooc.row_marginals - 2.0 * args.m * args.n / ranks).max()
    print(f"N={args.n} m={args.m}  scale 2mN/H_N = {model.scale:.6f}")
    print(f"total co-occurrence mass M = {cooc.total:.6f}")
    print(f"marginal identity max error: {marg_err:.3e}")
    print(f"max |PMI| over all pairs:    {np.abs(pmi_matrix(cooc)).max():.3e}")

    for mode, matrix in (("linear", cooc.values), ("log", materialize_log(model))):
        full = dense_eigh(matrix)
        fact = eigennoise_analytic(args.n, min(args.n, args.d), m=args.m, mode=mode)
        nonzero = fact.eigenvalues[np.abs(fact.eigenvalues) > 1e-12]
        order = np.argsort(-np.abs(full.eigenvalues), kind="stable")
        print(f"\n[{mode}] analytic nonzero eigenvalues: "
              + ", ".join(f"{v:.6f}" for v in nonzero))
        worst = 0.0
        for k, lam in enumerate(nonzero):
            v_o = full.vectors[:, order[k]]
            v_a = fact.u[:, k]
            diff = min(np.abs(v_o - v_a).max(), np.abs(v_o + v_a).max())
            worst = max(worst, diff, abs(lam - full.eigenvalues[order[k]]))
        print(f"[{mode}] worst analytic-vs-oracle deviation: {worst:.3e}")
        tail = np.abs(full.eigenvalues[order[len(nonzero):]])
        print(f"[{mode}] largest numerically-zero eigenvalue: "
              f"{tail.max(initial=0.0):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

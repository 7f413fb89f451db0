#!/usr/bin/env python3
"""Trace the CI-family weighted rate T(alpha1, alpha2) over diagonal states.

For each weight pair the sweep minimizes R0 + a1*R1 + a2*R2 over the
conditional-independence family, which its diagonal states attain, and
reports the optimizing state; T is an upper bound on the Gray-Wyner
surface.  At unit weights the minimum is the joint rate that joint_rdf
reports: its closed form inside the equal-split region D_W, and outside it
the restricted program over diagonal CI states, whose cap
(1 - a1)(1 - a2) >= d^2 is the same constraint.  The last line printed is
that consistency check.
"""

import argparse
import sys

import numpy as np

import gwgauss as gw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=float, nargs="+", default=[0.8, 0.5, 0.1],
                    help="canonical correlations, strictly inside (0, 1)")
    ap.add_argument("--delta1", type=float, default=0.3)
    ap.add_argument("--delta2", type=float, default=0.3)
    ap.add_argument("--grid", type=int, default=5,
                    help="weight ticks per axis on [0, 1]")
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    d = np.asarray(args.d, dtype=float)
    ticks = [i / (args.grid - 1) for i in range(args.grid)] if args.grid > 1 else [1.0]
    alphas = [(a1, a2) for a1 in ticks for a2 in ticks if a1 + a2 >= 1.0]

    points = gw.region_sweep(d, args.delta1, args.delta2, alphas=alphas)

    text = gw.region_csv(points)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"{len(points)} points -> {args.out}")
    else:
        sys.stdout.write(text)

    at_unit = [p for p in points if p.alpha1 == 1.0 and p.alpha2 == 1.0]
    if at_unit:
        joint = gw.joint_rdf(d, args.delta1, args.delta2).rate
        gap = at_unit[0].objective - joint
        print(f"# T(1,1) - joint rate = {gap:.3e} (consistency check)")


if __name__ == "__main__":
    main()

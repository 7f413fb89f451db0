#!/usr/bin/env python3
"""Trace the CI-family weighted rate T(alpha1, alpha2) over diagonal states.

For each weight pair the sweep minimizes R0 + a1*R1 + a2*R2 over the
conditional-independence family, which its diagonal states attain, and
reports the optimizing state; T is an upper bound on the Gray-Wyner
surface.  Inside the equal-split region D_W, at unit weights the minimum
closes the joint-rate bound, so the last line printed there is a
consistency check of the whole chain.
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

    # outside D_W joint_rdf is the restricted program's upper bound, a
    # different quantity from the sweep's minimum, so there is no check
    at_unit = [p for p in points if p.alpha1 == 1.0 and p.alpha2 == 1.0]
    if at_unit and gw.in_dw(d, args.delta1, args.delta2):
        joint = gw.joint_rdf(d, args.delta1, args.delta2).rate
        gap = at_unit[0].objective - joint
        print(f"# T(1,1) - joint rate = {gap:.3e} (plateau check)")


if __name__ == "__main__":
    main()

"""Scan a planar family for caustic parameters of short periodic orbits.

For each period n in the requested range the script locates the real
caustic parameters satisfying the analytic closure condition, then
confirms each one by tracing trajectories from random boundary points.

Usage:
    python3 scripts/planar_period_scan.py --axes 2,1 --max-n 10
"""

from __future__ import annotations

import argparse

from pbl import (
    ConfocalFamily,
    Signature,
    find_periodic_caustics_plane,
    poncelet_verify,
)
from pbl.errors import NumericalError, ValidationError


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--axes", default="2,1", help="a,b of the reference ellipse")
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--samples", type=int, default=8,
                    help="boundary starts per verified caustic")
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args()
    ns.a, ns.b = (float(s) for s in ns.axes.split(","))
    return ns


def main() -> int:
    cfg = parse_args()
    fam = ConfocalFamily(Signature(1, 1), (cfg.a, cfg.b))
    print(f"reference ellipse x^2/{cfg.a} + y^2/{cfg.b} = 1, metric signature (1,1)")
    for n in range(cfg.min_n, cfg.max_n + 1):
        roots = find_periodic_caustics_plane(fam, n)
        if not roots:
            print(f"n={n:2d}: no periodic caustic in the default window")
            continue
        for alpha in roots:
            try:
                rep = poncelet_verify(fam, (alpha,), n,
                                      samples=cfg.samples, seed=cfg.seed)
            except (ValidationError, NumericalError) as exc:
                print(f"n={n:2d}: alpha={alpha:+.12f}  verification skipped ({exc})")
                continue
            print(
                f"n={n:2d}: alpha={alpha:+.12f}  closed {rep.closed}/{rep.samples}"
                f"  worst position error {rep.worst_position_error:.2e}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

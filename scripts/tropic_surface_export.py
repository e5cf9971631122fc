"""Export the light-like-normal surface of a three-axis family to CSV.

Writes surface samples (both sheets), the cusp-edge curve, and the four
vertices, and reports the worst light-like residual of the surface
normal over the sampled grid.

Usage:
    python3 scripts/tropic_surface_export.py --out tropic.csv --grid 80x200
"""

from __future__ import annotations

import argparse
import csv
import math

import numpy as np

from pbl import ConfocalFamily, Signature, sq_norm
from pbl.errors import CuspPoint
from pbl.relativistic import (
    cusp_edge_lambda,
    tropic_point,
    tropic_surface_normal,
    tropic_tangent_norm_sq,
)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--axes", default="5,3,2")
    ap.add_argument("--out", default="tropic.csv")
    ap.add_argument("--grid", default="80x200", help="lambda x angle resolution")
    ns = ap.parse_args()
    ns.axes = tuple(float(s) for s in ns.axes.split(","))
    ns.n_lam, ns.n_t = (int(s) for s in ns.grid.split("x"))
    return ns


def main() -> int:
    cfg = parse_args()
    fam = ConfocalFamily(Signature(2, 1), cfg.axes)
    a, b, c = cfg.axes
    rows = []
    worst = 0.0
    kept = 0
    for i in range(cfg.n_lam):
        lam = -c + (i + 0.5) * (a + c) / cfg.n_lam
        for j in range(cfg.n_t):
            t = j * 2 * math.pi / cfg.n_t
            if tropic_tangent_norm_sq(fam, lam, t) < 1e-6:
                continue  # cusp-edge neighborhood
            for sheet in (1, -1):
                p = tropic_point(fam, lam, t, sheet)
                try:
                    n_vec = tropic_surface_normal(fam, lam, t, sheet)
                except CuspPoint:
                    continue
                res = abs(sq_norm(n_vec, fam.sig)) / float(np.dot(n_vec, n_vec))
                worst = max(worst, res)
                kept += 1
                rows.append(("surface", sheet, lam, t, *p))
    for j in range(cfg.n_t):
        t = j * 2 * math.pi / cfg.n_t
        lam = cusp_edge_lambda(fam, t)
        for sheet in (1, -1):
            rows.append(("cusp", sheet, lam, t, *tropic_point(fam, lam, t, sheet)))
    for name, lam, t in (("V1", b, 0.0), ("V2", b, math.pi),
                         ("V3", a, 3 * math.pi / 2), ("V4", a, math.pi / 2)):
        rows.append((name, 1, lam, t, *tropic_point(fam, lam, t, 1)))
    with open(cfg.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "sheet", "lambda", "t", "x", "y", "z"])
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    print(f"worst light-like residual over {kept} surface samples: {worst:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

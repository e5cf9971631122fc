"""Search for caustic pairs of periodic orbits in a three-axis family.

The closure condition for a spatial trajectory of period n pins down two
series coefficients at once, so admissible caustic pairs form isolated
points.  The script seeds a damped Newton iteration with the caustic
pairs of random chords (those are always realizable) and verifies every
converged pair by simulation from random boundary points.

Usage:
    python3 scripts/spatial_period_search.py --n 6 --attempts 40
"""

from __future__ import annotations

import argparse
import itertools

import numpy as np

from pbl import (
    ConfocalFamily,
    Line,
    Signature,
    caustics,
    cayley_condition,
    evaluate_quadric,
    poncelet_verify,
)
from pbl.errors import InadmissibleCaustics, NumericalError, ValidationError
from pbl.periodicity import cayley_matrix, normalized_sqrt_series


#: Damped Newton steps per seed before it counts as not converged.
NEWTON_ITERS = 60


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sig", default="2,1")
    ap.add_argument("--axes", default="5,3,2")
    ap.add_argument("--n", type=int, default=6, help="even period >= 6")
    ap.add_argument("--attempts", type=int, default=40)
    ap.add_argument("--samples", type=int, default=6)
    ap.add_argument("--seed", type=int, default=4)
    ns = ap.parse_args()
    if ns.n < 6 or ns.n % 2:
        ap.error(f"--n must be an even period >= 6, got {ns.n}")
    ns.sig = Signature(*(int(s) for s in ns.sig.split(",")))
    ns.axes = tuple(float(s) for s in ns.axes.split(","))
    return ns


def closure_residual(fam: ConfocalFamily, params: np.ndarray, n: int) -> np.ndarray:
    """Maximal minors of the closure matrix; all zero at a periodic pair.

    The period condition is rank < cols, which holds exactly where every
    cols x cols minor vanishes.  Asking every entry to vanish instead has
    no solution once the matrix has two columns (n >= 7 in dimension 3).
    """
    B = normalized_sqrt_series(fam, tuple(params), n)
    M = np.asarray(cayley_matrix(B, fam.d, n), dtype=float)
    rows, cols = M.shape
    return np.linalg.det(M[list(itertools.combinations(range(rows), cols))])


def chord_seed(fam: ConfocalFamily, rng: np.random.Generator) -> np.ndarray | None:
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, fam.d) * np.sqrt(fam.axes_f)
        if evaluate_quadric(fam, 0.0, x) >= -0.05:
            continue
        v = rng.uniform(-1.0, 1.0, fam.d)
        try:
            cs = caustics(fam, Line(x, v))
        except (ValidationError, NumericalError):
            continue
        if cs.has_infinite or len(cs.finite) != fam.d - 1:
            continue
        return np.array(cs.finite)
    return None


def newton(fam: ConfocalFamily, start: np.ndarray, n: int,
           iters: int) -> np.ndarray | None:
    p = start.copy()
    h = 1e-7
    for _ in range(iters):
        try:
            r = closure_residual(fam, p, n)
        except (ValidationError, NumericalError):
            return None
        if np.linalg.norm(r) < 1e-13:
            return p
        J = np.empty((r.size, p.size))
        for j in range(p.size):
            q = p.copy()
            q[j] += h
            try:
                J[:, j] = (closure_residual(fam, q, n) - r) / h
            except (ValidationError, NumericalError):
                return None
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        scale = 1.0
        for _ in range(20):  # damping: accept only residual decrease
            try:
                if np.linalg.norm(closure_residual(fam, p + scale * step, n)) < np.linalg.norm(r):
                    break
            except (ValidationError, NumericalError):
                pass
            scale *= 0.5
        else:
            return None
        p = p + scale * step
    return None


def main() -> int:
    cfg = parse_args()
    fam = ConfocalFamily(cfg.sig, cfg.axes)
    rng = np.random.default_rng(cfg.seed)
    found: list = []
    for _ in range(cfg.attempts):
        seed = chord_seed(fam, rng)
        if seed is None:
            continue
        pair = newton(fam, seed, cfg.n, NEWTON_ITERS)
        if pair is None:
            continue
        key = tuple(round(float(v), 6) for v in sorted(pair))
        if key in (k for k, _ in found):
            continue
        if not cayley_condition(fam, tuple(pair), cfg.n):
            continue
        found.append((key, np.array(sorted(pair))))
    if not found:
        print("no caustic pair converged; try more attempts")
        return 1
    for _, pair in found:
        txt = ", ".join(f"{v:+.15f}" for v in pair)
        try:
            rep = poncelet_verify(fam, tuple(pair), cfg.n,
                                  samples=cfg.samples, seed=cfg.seed)
            print(f"pair ({txt}): closed {rep.closed}/{rep.samples}, "
                  f"worst position error {rep.worst_position_error:.2e}")
        except InadmissibleCaustics:
            print(f"pair ({txt}): converged outside the admissible caustic bands")
        except (ValidationError, NumericalError) as exc:
            print(f"pair ({txt}): simulation failed ({exc})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

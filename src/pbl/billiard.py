"""Billiard dynamics inside the reference ellipsoid of a confocal family.

A trajectory is a polygonal line inside Q_0 whose direction reflects at
the boundary with respect to the pseudo-Euclidean metric.  Where the
boundary normal is light-like the reflection degenerates to v -> -v,
which counts as two reflections.  All segment lines of one trajectory
share the caustic set and the first integrals F_i, which this module
tracks to quantify numerical drift.  Conversely, the directions through
a point with a prescribed caustic set are built in closed form from the
point's generalized Jacobi coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .confocal import (
    CausticSet,
    ConfocalFamily,
    DEGENERATE_TOL,
    INF,
    Line,
    _caustic_set,
    _tangency_coefficients,
    caustics,
    chord_discriminant,
    chord_quadratic,
    evaluate_quadric,
    integrals_F,
    interlacing_checks,
    jacobi_coordinates,
    trajectory_type_from_caustics,
)
from .errors import (
    DegenerateParameter,
    InadmissibleCaustics,
    LightLikeNormal,
    NoSolution,
    NotPlanarLightLike,
    NumericalStall,
    PointNotOnBoundary,
)
from .metric import LineType, Signature, line_type, pseudo_normal, reflect_direction

#: Chord parameters below this are treated as a stalled trajectory.
STALL_TOL = 1e-12

#: Acceptable residual of Q_0 for a point claimed to be on the boundary.
BOUNDARY_TOL = 1e-8


def line_quadric_intersections(fam: ConfocalFamily, lam: float, line: Line) -> list:
    """Parameters t of the intersections of the line with Q_lambda.

    Returns 0, 1 (tangency, double root) or 2 values, ascending; the
    count is read from ``chord_discriminant`` with ``DEGENERATE_TOL``.
    """
    if fam.is_degenerate_parameter(lam):
        raise DegenerateParameter(f"lambda = {lam} is a degenerate member")
    den = fam.denominators(lam)
    q2, q1, q0 = chord_quadratic(den, line.base, line.direction)
    scale = abs(q2) + abs(q1) + abs(q0)
    if abs(q2) <= 1e-14 * scale:
        if abs(q1) <= 1e-14 * scale:
            return []
        return [-q0 / (2.0 * q1)]
    disc, dscale = chord_discriminant(den, line.base, line.direction)
    if disc < -DEGENERATE_TOL * dscale:
        return []
    if disc <= DEGENERATE_TOL * dscale:
        return [-q1 / q2]
    rad = math.sqrt(disc)
    return sorted([(-q1 - rad) / q2, (-q1 + rad) / q2])


def boundary_normal(fam: ConfocalFamily, p) -> np.ndarray:
    """Pseudo-normal of Q_0 at a boundary point p."""
    pv = np.asarray(p, dtype=float)
    return pseudo_normal(pv / fam.axes_f, fam.sig)


def reflect_at_boundary(fam: ConfocalFamily, p, v):
    """Reflect direction v at the boundary point p of Q_0.

    Returns (v_out, double_flag).  At points with light-like normal the
    map degenerates to v -> -v, flagged as a double reflection.
    """
    pv = np.asarray(p, dtype=float)
    vv = np.asarray(v, dtype=float)
    res = evaluate_quadric(fam, 0.0, pv)
    if abs(res) > BOUNDARY_TOL:
        raise PointNotOnBoundary(f"Q_0 residual {res} too large at {pv}")
    try:
        return reflect_direction(vv, boundary_normal(fam, pv), fam.sig), False
    except LightLikeNormal:
        return -vv, True


@dataclass
class Bounce:
    point: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray
    double: bool
    reflections: int  # cumulative reflection count after this bounce


@dataclass
class Trajectory:
    family: ConfocalFamily
    start_point: np.ndarray
    start_direction: np.ndarray
    bounces: list
    caustic_set: CausticSet
    line_type: LineType
    invariant_drift: float
    caustic_drift: float
    reflections: int


def _next_chord_parameter(fam: ConfocalFamily, x: np.ndarray, v: np.ndarray) -> float:
    q2, q1, q0 = chord_quadratic(fam.axes_f, x, v)
    disc = q1 * q1 - q2 * q0
    if disc <= 0.0:
        raise NumericalStall("tangent or exterior chord")
    t = (-q1 + math.sqrt(disc)) / q2
    if t * math.sqrt(float(np.dot(v, v))) <= STALL_TOL * math.sqrt(fam.scale):
        raise NumericalStall("chord length below 1e-12")
    return t


def _snap_to_boundary(fam: ConfocalFamily, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """One Newton step along the chord pulls the hit point back onto Q_0."""
    den = fam.axes_f
    p = x + t * v
    g = float(np.sum(p * p / den) - 1.0)
    dg = float(2.0 * np.sum(p * v / den))
    if dg != 0.0:
        t = t - g / dg
        p = x + t * v
    return p


def trace(fam: ConfocalFamily, start, direction, n_reflections: int) -> Trajectory:
    """Trace the billiard flow until n_reflections have occurred.

    The start point must lie inside Q_0, or on it with an inward
    direction.  Double reflections advance the counter by two.  Reflection
    preserves the line type, the first integrals and the caustics, so the
    line type is fixed once from the start direction and every segment's
    caustics come from its own first integrals with that type.  The
    returned trajectory records per-bounce data, the caustic set of the
    initial segment, and the worst relative drift of the first integrals
    (``invariant_drift``) and of the per-segment caustics
    (``caustic_drift``) along the way.
    """
    x = np.asarray(start, dtype=float).copy()
    v = np.asarray(direction, dtype=float).copy()
    if n_reflections < 1:
        raise ValueError("need at least one reflection")
    res = evaluate_quadric(fam, 0.0, x)
    if res > BOUNDARY_TOL:
        raise ValueError("start point lies outside the reference ellipsoid")
    if abs(res) <= BOUNDARY_TOL:
        inward = float(np.sum(x * v / fam.axes_f))
        if inward >= 0.0:
            raise ValueError("start on the boundary needs an inward direction")

    ltype = line_type(v, fam.sig)
    cs0 = caustics(fam, Line(x, v))
    ref_finite = np.array(cs0.finite)

    bounces: list[Bounce] = []
    refl = 0
    while refl < n_reflections:
        t = _next_chord_parameter(fam, x, v)
        p = _snap_to_boundary(fam, x, v, t)
        v_out, double = reflect_at_boundary(fam, p, v)
        refl += 2 if double else 1
        bounces.append(Bounce(p, v.copy(), v_out, double, refl))
        x, v = p, v_out

    integrals, drift = _segment_integrals(fam, bounces)
    cdrift = 0.0
    for pc in _tangency_coefficients(fam, integrals):
        seg = np.array(_caustic_set(fam, pc, ltype).finite)
        rel = np.abs(seg - ref_finite) / np.maximum(1.0, np.abs(ref_finite))
        cdrift = max(cdrift, float(np.max(rel)) if rel.size else 0.0)
    return Trajectory(
        family=fam,
        start_point=np.asarray(start, dtype=float),
        start_direction=np.asarray(direction, dtype=float),
        bounces=bounces,
        caustic_set=cs0,
        line_type=ltype,
        invariant_drift=drift,
        caustic_drift=cdrift,
        reflections=refl,
    )


def _segment_integrals(fam: ConfocalFamily, bounces: list) -> tuple:
    """First integrals of each bounce's outgoing segment, and their drift.

    Returns an (m, d) array, row b for bounce b, and the drift: the worst
    deviation of F and of <v, v> from their values on the incoming segment
    of the first bounce, relative to the largest of those values.  All
    m + 1 segments go through one stacked ``integrals_F`` and one stacked
    <v, v>, each row bit for bit its single-vector value.
    """
    b0 = bounces[0]
    X = np.array([b0.point] + [b.point for b in bounces])
    V = np.array([b0.v_in] + [b.v_out for b in bounces])
    F = integrals_F(fam, X, V)
    # rounds as metric.dot does, which einsum and sum(axis=1) do not
    vv = ((fam.eps * V)[:, None, :] @ V[:, :, None])[:, 0, 0]
    fscale = max(float(np.max(np.abs(F[0]))), abs(float(vv[0])), 1e-300)
    worst = max(float(np.max(np.abs(F[1:] - F[0]))), float(np.max(np.abs(vv[1:] - vv[0]))))
    return F[1:], worst / fscale


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    period: int | None
    position_error: float
    direction_error: float
    bounce_index: int | None


def closure_test(traj: Trajectory, tol: float = 1e-6) -> ClosureReport:
    """Detect whether the trajectory revisits its first bounce state.

    Compares position and outgoing direction of every later bounce with
    bounce 0; the period is counted in reflections (doubles count twice).
    """
    if not traj.bounces:
        raise ValueError("trajectory has no bounces")
    b0 = traj.bounces[0]
    d0 = b0.v_out / np.linalg.norm(b0.v_out)
    best = (math.inf, math.inf, None)
    for j in range(1, len(traj.bounces)):
        bj = traj.bounces[j]
        pos = float(np.linalg.norm(bj.point - b0.point))
        dj = bj.v_out / np.linalg.norm(bj.v_out)
        dirr = float(np.linalg.norm(dj - d0))
        if pos <= tol and dirr <= tol:
            return ClosureReport(True, bj.reflections - b0.reflections, pos, dirr, j)
        if pos + dirr < best[0] + best[1]:
            best = (pos, dirr, j)
    return ClosureReport(False, None, best[0], best[1], best[2])


def arc_hit_counts(traj: Trajectory) -> tuple[int, int]:
    """Bounce counts on one arc of each opposite-arc pair of a planar table.

    The four boundary points with light-like tangents (|ay| = |bx|) split
    the ellipse into two pairs of opposite arcs.  Counts hits on the arc
    through (0, sqrt(b)) first, then on the arc through (sqrt(a), 0); for
    an n-periodic light-like trajectory with winding number k these come
    out (k, n/2 - k): the flatter arcs collect the larger share as the
    table elongates.
    """
    fam = traj.family
    if fam.d != 2:
        raise NotPlanarLightLike("arc counting requires a planar family")
    if traj.line_type is not LineType.LIGHT_LIKE:
        raise NotPlanarLightLike("arc counting requires a light-like trajectory")
    a, b = fam.axes_f
    hits_x = hits_y = 0
    for bounce in traj.bounces:
        x, y = bounce.point
        qx, qy = x * x / (a * a), y * y / (b * b)
        if qx > qy and x > 0:
            hits_x += 1
        elif qy > qx and y > 0:
            hits_y += 1
    return hits_y, hits_x


def rectangle_ratio(a: float, b: float) -> float:
    """Side ratio of the rectangle equivalent to the planar light-like flow.

        pi / (2 arctan sqrt(a/b)) - 1
    """
    if a <= 0 or b <= 0:
        raise ValueError("axis parameters must be positive")
    return math.pi / (2.0 * math.atan(math.sqrt(float(a) / float(b)))) - 1.0


# ---------------------------------------------------- direction construction


def _canonical_direction(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


def _admissible(fam: ConfocalFamily, params: tuple) -> None:
    finite = [p for p in params if math.isfinite(p)]
    if len(params) - len(finite) > 1 or np.any(fam.is_zero_caustic(finite)):
        raise InadmissibleCaustics("degenerate caustic parameters")
    checks, *_ = interlacing_checks(fam, params, trajectory_type_from_caustics(fam, params))
    if not all(checks.values()):
        raise InadmissibleCaustics(f"caustics {params} violate the interlacing pattern")


def direction_with_caustics(fam: ConfocalFamily, x, target) -> list:
    """Directions v through x whose line has the target caustic set.

    Closed form from the generalized Jacobi coordinates lambda_k of x.
    With D_i(lambda) = a_i - eps_i lambda, the tangency discriminant of the
    line (x, v) against Q_lambda, times prod_i D_i(lambda), is a multiple
    of P(lambda) = prod_j (lambda - alpha_j) over the finite caustics (of
    degree d - 2 for a light-like line, whose infinite caustic drops out).
    At lambda_k the discriminant reduces to a square, so

        ((x / D(lambda_k)) . v)^2 = -c P(lambda_k) / prod_i D_i(lambda_k),

    with c = -sign P(0) because the line meets Q_0, which fixes the scale
    of v.  The rows x / D(lambda_k) are the normals of the pencil members
    through x; each of the 2^(d-1) sign patterns of the square roots gives
    one direction by a linear solve, kept if ``chord_discriminant`` is
    within 1e-9 of its scale for every finite caustic.  Directions are unit
    length with a canonical sign.  NoSolution means that x has a complex pair or a
    multiple Jacobi coordinate, or that no real line through x has these
    caustics.
    """
    params = tuple(target) if not isinstance(target, CausticSet) else target.params
    if len(params) != fam.d - 1:
        raise ValueError(f"expected {fam.d - 1} caustic parameters")
    _admissible(fam, params)
    xv = np.asarray(x, dtype=float)
    d = fam.d
    finite = [p for p in params if math.isfinite(p)]
    jc = jacobi_coordinates(fam, xv)
    if not jc.is_simple_real():
        raise NoSolution("x has a complex pair or a multiple Jacobi coordinate")

    def P(lam: float) -> float:
        return math.prod(lam - alpha for alpha in finite)

    sign = math.copysign(1.0, P(0.0))  # -c in the formula above
    N = np.empty((d, d))
    rhs = np.empty(d)
    for k, lam in enumerate(jc.real_roots):
        den = fam.denominators(lam)
        i = int(np.argmin(np.abs(den)))
        rest = np.arange(d) != i
        u = xv[rest] / den[rest]
        r = 1.0 - float(np.dot(u, xv[rest]))  # x_i^2 / D_i by the pencil equation
        if abs(den[i]) <= abs(r) * fam.scale:
            # On or near the hyperplane x_i = 0, D_i is lost to rounding
            # (relative error eps * scale / |D_i|) but r is not (eps / |r|):
            # scale row k so that component i is 1, which needs no D_i.
            N[k, i] = 1.0
            N[k, rest] = xv[i] / r * u
            rhs[k] = sign * P(lam) / (r * float(np.prod(den[rest])))
        else:
            N[k] = xv / den
            rhs[k] = sign * P(lam) / float(np.prod(den))
    if np.any(rhs < 0.0):
        raise NoSolution("no real line through x has these caustics")
    signs = np.array([(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=d - 1)]).T
    try:
        V = np.linalg.solve(N, np.sqrt(rhs)[:, None] * signs)
    except np.linalg.LinAlgError as exc:
        raise NoSolution("normals of the pencil members through x are dependent") from exc
    out: list[np.ndarray] = []
    for v in V.T:
        v = _canonical_direction(v)
        if any(np.linalg.norm(v - w) <= 1e-9 for w in out):
            continue
        residuals = (chord_discriminant(fam.denominators(alpha), xv, v) for alpha in finite)
        if all(abs(val) <= 1e-9 * scale for val, scale in residuals):
            out.append(v)
    if not out:
        raise NoSolution("no constructed direction passed the tangency check")
    return out


def random_boundary_point(fam: ConfocalFamily, rng: np.random.Generator) -> np.ndarray:
    """A uniform-ish random point of the reference ellipsoid Q_0."""
    while True:
        u = rng.normal(size=fam.d)
        q = float(np.sum(u * u / fam.axes_f))
        if q > 0:
            return u / math.sqrt(q)


def inward_direction(fam: ConfocalFamily, p, v) -> np.ndarray:
    """Flip v if needed so it points into the ellipsoid at boundary point p."""
    pv = np.asarray(p, dtype=float)
    vv = np.asarray(v, dtype=float)
    s = float(np.sum(pv * vv / fam.axes_f))
    if s == 0.0:
        raise NoSolution("direction is tangent to the boundary")
    return vv if s < 0 else -vv


# ----------------------------------------------------------- serialization


def trajectory_to_dict(traj: Trajectory) -> dict:
    """JSON-ready dictionary; infinite caustics are the string "inf"."""
    return {
        "signature": [traj.family.k, traj.family.l],
        "axes": [float(a) for a in traj.family.axes],
        "caustics": ["inf" if not math.isfinite(p) else p for p in traj.caustic_set],
        "lineType": traj.line_type.value,
        "bounces": [
            {
                "p": [float(c) for c in b.point],
                "vin": [float(c) for c in b.v_in],
                "vout": [float(c) for c in b.v_out],
                "double": b.double,
            }
            for b in traj.bounces
        ],
        "drift": traj.invariant_drift,
    }


def trajectory_from_dict(data: dict) -> Trajectory:
    """Rebuild a trajectory (family, bounces, caustics) from its dict form."""
    sig = Signature(*[int(s) for s in data["signature"]])
    fam = ConfocalFamily(sig, tuple(float(a) for a in data["axes"]))
    params = tuple(INF if c == "inf" else float(c) for c in data["caustics"])
    bounces = []
    refl = 0
    for raw in data["bounces"]:
        refl += 2 if raw["double"] else 1
        bounces.append(
            Bounce(
                np.asarray(raw["p"], dtype=float),
                np.asarray(raw["vin"], dtype=float),
                np.asarray(raw["vout"], dtype=float),
                bool(raw["double"]),
                refl,
            )
        )
    ltype = LineType(data["lineType"])
    start = bounces[0].point if bounces else np.zeros(fam.d)
    sdir = bounces[0].v_in if bounces else np.zeros(fam.d)
    return Trajectory(
        family=fam,
        start_point=start,
        start_direction=sdir,
        bounces=bounces,
        caustic_set=CausticSet(params),
        line_type=ltype,
        invariant_drift=float(data["drift"]),
        caustic_drift=math.nan,
        reflections=refl,
    )


def recompute_drift(traj: Trajectory) -> float:
    """Invariant drift recomputed from the recorded bounces alone."""
    if not traj.bounces:
        raise ValueError("trajectory has no bounces")
    return _segment_integrals(traj.family, traj.bounces)[1]

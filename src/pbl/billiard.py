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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .confocal import (
    CausticSet,
    ConfocalFamily,
    DEGENERATE_TOL,
    INF,
    Line,
    _caustic_json,
    _caustic_set,
    _jacobi,
    _jacobi_polynomial,
    _tangency_coefficients,
    caustics,
    chord_discriminant,
    chord_quadratic,
    evaluate_quadric,
    integrals_F,
    interlacing_checks,
    trajectory_type_from_caustics,
)
from .errors import (
    DegenerateParameter,
    InadmissibleCaustics,
    NoSolution,
    NotPlanarLightLike,
    NumericalStall,
    PointNotOnBoundary,
    RootIsolationError,
)
from .metric import (
    LineType,
    Signature,
    _as_count,
    _as_scalar,
    _as_vector,
    _exponent,
    _fdot,
    _light_like_rows,
    _reflect,
    line_type,
)

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
    q2, q1, q0 = chord_quadratic(den, _as_vector(line.base, fam.d), line.direction)
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


def reflect_at_boundary(fam: ConfocalFamily, p, v):
    """Reflect direction v at the boundary point p of Q_0.

    Returns (v_out, double_flag).  At points with light-like normal the
    map degenerates to v -> -v, flagged as a double reflection.
    """
    pv = _as_vector(p, fam.d)
    vv = _as_vector(v, fam.d)
    res = evaluate_quadric(fam, 0.0, pv)
    if abs(res) > BOUNDARY_TOL:
        raise PointNotOnBoundary(f"Q_0 residual {res} too large at {pv}")
    e = _exponent(vv.tolist())
    out, light = _reflect(np.ldexp(vv, -e).tolist(), (fam.eps * (pv / fam.axes_f)).tolist(),
                          fam.eps.tolist())
    return np.ldexp(out, e), light


@dataclass
class Trajectory:
    """A polygonal line in Q_0 over m bounces: ``points`` (m, d), row b for
    bounce b; ``directions`` (m + 1, d), the start direction and then the
    outgoing one of each bounce; ``double`` (m,), the bounces at light-like
    normals, which count as two reflections."""

    family: ConfocalFamily
    points: np.ndarray
    directions: np.ndarray
    double: np.ndarray
    caustic_set: CausticSet
    line_type: LineType
    invariant_drift: float
    caustic_drift: float

    @property
    def reflection_counts(self) -> np.ndarray:
        """Cumulative reflection count after each bounce."""
        return np.cumsum(np.where(self.double, 2, 1))

    @property
    def reflections(self) -> int:
        return int(self.double.size + np.count_nonzero(self.double))


def _bounce(fam: ConfocalFamily, x, v, n: int) -> tuple:
    """Step from (x, v), sequences of floats, until n reflections: the
    bounce points and double flags of a ``Trajectory``, as lists, its
    directions, an array in the scale of v, and the count reached, n + 1
    after a last double bounce.  The loop steps v scaled by ``_exponent``,
    so the length of v changes no bit of the points or flags.  A step is
    the chord root, a Newton step back onto Q_0 and the reflection.  Each
    chord's q0 is the Q_0 residual of the point it leaves.  The start must
    be inside Q_0, or on it within BOUNDARY_TOL with q1 < 0 (ValueError); a bounce
    past BOUNDARY_TOL, a chord that misses Q_0, one shorter than
    STALL_TOL or a direction past the floats at the scale of v raises
    NumericalStall.

    The one bounce loop, of ``trace`` and of each ``poncelet_verify``
    sample, on Python floats: about 9 us a bounce for d <= 3.  Its chord
    sums (``chord_quadratic``) and dot products (``_fdot``, in
    ``_reflect``) keep the order of the numpy expressions they stand for,
    ``np.add.reduce`` below 8 terms and ``np.dot``, bit for bit."""
    den, eps = fam.axes_f.tolist(), fam.eps.tolist()
    e = _exponent(v)
    x, v = [float(c) for c in x], [math.ldexp(c, -e) for c in v]
    points, directions, double, refl = [], [v], [], 0
    short, least = STALL_TOL * math.sqrt(fam.scale), min(den)
    while True:
        q2, q1, q0 = chord_quadratic(den, x, v)
        if abs(q0) > BOUNDARY_TOL:
            if points:
                raise NumericalStall(f"Q_0 residual {q0} too large at {x}")
            if q0 > 0.0:
                raise ValueError("start point lies outside the reference ellipsoid")
        elif not points and q1 >= 0.0:
            raise ValueError("start on the boundary needs an inward direction")
        if refl >= n:
            with np.errstate(over="ignore"):
                directions = np.ldexp(directions, e)
            if not np.isfinite(directions).all():
                raise NumericalStall("a direction overflows at the scale of v")
            return points, directions, double, refl
        disc = q1 * q1 - q2 * q0
        if disc <= 0.0:
            raise NumericalStall("tangent or exterior chord")
        t = (-q1 + math.sqrt(disc)) / q2
        # |v|^2 >= q2 min(den): a chord of twice the threshold needs no |v|
        if t * math.sqrt(q2 * least) <= 2.0 * short and t * math.sqrt(_fdot(v, v)) <= short:
            raise NumericalStall("chord length below 1e-12")
        _, g1, g = chord_quadratic(den, [a + t * b for a, b in zip(x, v)], v)
        if g1 != 0.0:
            t = t - g / (2.0 * g1)
        x = [a + t * b for a, b in zip(x, v)]
        v, light = _reflect(v, [e * (a / c) for e, a, c in zip(eps, x, den)], eps)
        points.append(x)
        directions.append(v)
        double.append(light)
        refl += 2 if light else 1


def trace(fam: ConfocalFamily, start, direction, n_reflections: int) -> Trajectory:
    """Trace the billiard flow until n_reflections have occurred.

    The start point must lie inside Q_0, or on it with an inward
    direction.  Double reflections advance the counter by two.  Reflection
    preserves the line type, the first integrals and the caustics, so the
    line type is fixed once from the start direction and the caustics
    alpha are solved once, on the start line.  The returned trajectory
    records the bounce arrays, the caustic set of the initial segment, and
    the worst relative drift of the first integrals (``invariant_drift``)
    and of the caustics (``caustic_drift``) along the way.  The caustic
    drift of segment b is one Newton step from alpha on its tangency
    polynomial p_b, |p_b(alpha) / p_b'(alpha)| / max(1, |alpha|): the
    distance of p_b's root from alpha, to second order in that distance.
    The length of the direction changes no bit of the points, caustics or
    drifts (``_exponent``), and the directions keep the caller's scale.
    """
    x = _as_vector(start, fam.d)
    v = _as_vector(direction, fam.d)
    _as_count(n_reflections, "n_reflections", 1)
    ltype = line_type(v, fam.sig)
    points, directions, double, _ = _bounce(fam, x.tolist(), v.tolist(), n_reflections)
    points, double = np.array(points), np.array(double)
    cs0 = caustics(fam, Line(x, v))
    alpha = np.array(cs0.finite)
    integrals, drift = _segment_integrals(fam, points, directions)
    # column b: ascending tangency coefficients of segment b, and p_b and
    # p_b' at every alpha (row b) by Horner in numpy's polyval order
    pc = _tangency_coefficients(fam, integrals).T[..., None]
    if ltype is LineType.LIGHT_LIKE:
        pc = pc[:-1]
    top, zero = len(pc) - 1, 0.0 * alpha
    p, dp = pc[top] + zero, top * pc[top] + zero
    for c in pc[-2::-1]:
        p = c + p * alpha
    for j in range(top - 1, 0, -1):
        dp = j * pc[j] + dp * alpha
    step = p / dp
    cdrift = float(np.max(np.abs(step) / np.maximum(1.0, np.abs(alpha)), initial=0.0))
    return Trajectory(
        family=fam,
        points=points,
        directions=directions,
        double=double,
        caustic_set=cs0,
        line_type=ltype,
        invariant_drift=drift,
        caustic_drift=cdrift,
    )


def _segment_integrals(fam: ConfocalFamily, points: np.ndarray, directions: np.ndarray) -> tuple:
    """First integrals of each bounce's outgoing segment, and their drift.

    Returns an (m, d) array, row b for bounce b, and the drift: the worst
    deviation of F and of <v, v> from their values on the incoming segment
    of the first bounce, relative to the largest of those values.  All
    m + 1 segments go through one stacked ``integrals_F`` and one stacked
    <v, v>, each row bit for bit its single-vector value.  The directions
    are scaled by the ``_exponent`` of the first one, so neither the drift
    nor the integrals' ratios depend on the length of the directions.
    """
    directions = np.ldexp(directions, -_exponent(directions[0].tolist()))
    F = integrals_F(fam, points[np.r_[0, 0 : len(points)]], directions)
    vv = np.vecdot(fam.eps * directions, directions)
    fscale = max(float(np.max(np.abs(F[0]))), abs(float(vv[0])), 1e-300)
    worst = max(float(np.max(np.abs(F[1:] - F[0]))), float(np.max(np.abs(vv[1:] - vv[0]))))
    return F[1:], worst / fscale


def _closure_errors(points, directions, points0, directions0) -> tuple:
    """Position and unit-direction errors of bounce states (points, directions)
    against (points0, directions0), row by row; a single row broadcasts."""
    U, U0 = (D / np.sqrt(np.vecdot(D, D))[:, None] for D in (directions, directions0))
    dp, du = points - points0, U - U0
    return np.sqrt(np.vecdot(dp, dp)), np.sqrt(np.vecdot(du, du))


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
    bounce 0, each within ``tol`` (finite and >= 0, else ValueError); the
    period is counted in reflections (doubles count twice).
    """
    _as_scalar(tol, "tolerance", ">= 0")
    if not len(traj.points):
        raise ValueError("trajectory has no bounces")
    P, D = traj.points, traj.directions
    pos, dirr = _closure_errors(P[1:], D[2:], P[:1], D[1:2])
    if not pos.size:
        return ClosureReport(False, None, math.inf, math.inf, None)
    closed = (pos <= tol) & (dirr <= tol)
    j = int(np.argmax(closed) if closed.any() else np.argmin(pos + dirr))
    counts = traj.reflection_counts
    period = int(counts[j + 1] - counts[0]) if closed[j] else None
    return ClosureReport(bool(closed[j]), period, float(pos[j]), float(dirr[j]), j + 1)


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
    x, y = traj.points.T
    qx, qy = x * x / (a * a), y * y / (b * b)
    return int(np.count_nonzero((qy > qx) & (y > 0))), int(np.count_nonzero((qx > qy) & (x > 0)))


def rectangle_ratio(a: float, b: float) -> float:
    """Side ratio of the rectangle equivalent to the planar light-like flow.

        pi / (2 arctan sqrt(a/b)) - 1
    """
    _as_scalar(a, "a", "positive")
    _as_scalar(b, "b", "positive")
    return math.pi / (2.0 * math.atan(math.sqrt(float(a) / float(b)))) - 1.0


# ---------------------------------------------------- direction construction


def _admissible(fam: ConfocalFamily, cs: CausticSet) -> None:
    fam.check_caustic_values(cs.finite)
    checks, *_ = interlacing_checks(fam, cs, trajectory_type_from_caustics(fam, cs))
    if not all(checks.values()):
        raise InadmissibleCaustics(f"caustics {cs.params} violate the interlacing pattern")


#: The error and its reason for a point with no direction, by the failure
#: code of ``_directions``.
_NO_DIRECTION = (
    None,
    (NoSolution, "x has a complex pair or a multiple Jacobi coordinate"),
    (RootIsolationError, "rounding loses the Jacobi coordinates of x"),
    (NoSolution, "no real line through x has these caustics"),
    (NoSolution, "normals of the pencil members through x are dependent"),
    (NoSolution, "no constructed direction passed the tangency check"),
)


def _solve_rows(N: np.ndarray, B: np.ndarray) -> tuple:
    """``np.linalg.solve`` on the stacks (N, B), and a mask of the rows it
    solved: a stack that holds a singular matrix is solved row by row."""
    try:
        return np.linalg.solve(N, B), np.ones(len(N), dtype=bool)
    except np.linalg.LinAlgError:
        out, solved = np.zeros(B.shape), np.ones(len(N), dtype=bool)
        for s in range(len(N)):
            try:
                out[s] = np.linalg.solve(N[s], B[s])
            except np.linalg.LinAlgError:
                solved[s] = False
        return out, solved


def direction_with_caustics(fam: ConfocalFamily, x, target) -> list:
    """Directions v through the point x whose line has the target caustic set.

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
    within 1e-9 of its scale for every finite caustic and if no earlier
    kept one lies within 1e-9 of it.  Directions are unit length with a
    canonical sign (first component above 1e-12 positive).

    The caustic set is admitted first: a zero, degenerate or colliding
    caustic raises DegenerateConfiguration (``fam.check_caustic_values``),
    a set off the interlacing pattern InadmissibleCaustics.  x passes
    ``_as_vector``.  Returns the list of the directions of x; NoSolution
    means that x has a complex pair or a multiple Jacobi coordinate, or
    that no real line through x has these caustics, and RootIsolationError
    that x is so far out that rounding loses its Jacobi coordinates
    (``jacobi_coordinates``).
    """
    cs = _caustic_set(fam, target)
    _admissible(fam, cs)
    V, kept, fail = _directions(fam, _as_vector(x, fam.d)[None], cs)
    if fail[0]:
        error, reason = _NO_DIRECTION[fail[0]]
        raise error(reason)
    return list(V[0, kept[0]])


def _directions(fam: ConfocalFamily, X: np.ndarray, cs: CausticSet) -> tuple:
    """``direction_with_caustics`` unchecked, for an (S, d) stack X of finite
    points and an admitted caustic set, in one pass: (V, kept, fail).  V
    (S, 2^(d-1), d) holds the direction of every sign pattern, kept marks
    the ones kept, row s of V[kept] is the list of point s, bit for bit,
    and fail (S,) holds each row's ``_NO_DIRECTION`` code, 0 if it has one."""
    d, rows = fam.d, len(X)
    patterns = _patterns(d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam, fail = np.full((rows, d), math.nan), np.ones(rows, dtype=int)
        for s, row in enumerate(X.tolist()):
            try:
                gj = _jacobi(_jacobi_polynomial(fam, row))
                if gj.is_simple_real():
                    lam[s], fail[s] = gj.real_roots, 0
            except RootIsolationError:
                fail[s] = 2
        P = np.ones(lam.shape)
        for alpha in cs.finite:
            P = P * (lam - alpha)
        sign = math.copysign(1.0, math.prod(0.0 - alpha for alpha in cs.finite))  # -c above
        # row k of den[s] holds D(lambda_k) of point s; is_i marks its smallest entry, i
        den = fam.axes_f - fam.eps * lam[..., None]
        is_i = np.arange(d) == np.argmin(np.abs(den), axis=-1)[..., None]
        normals = X[:, None, :] / den
        u = np.where(is_i, 0.0, normals)  # the normal row x / D less entry i
        r = 1.0 - np.vecdot(u, X[:, None, :])  # x_i^2 / D_i by the pencil equation
        # On or near the hyperplane x_i = 0, D_i is lost to rounding
        # (relative error eps * scale / |D_i|) but r is not (eps / |r|):
        # scale row k so that component i is 1, which needs no D_i.
        near = np.min(np.abs(den), axis=-1) <= np.abs(r) * fam.scale
        x_i = np.broadcast_to(X[:, None, :], den.shape)[is_i].reshape(lam.shape)
        N = np.where(near[..., None], np.where(is_i, 1.0, (x_i / r)[..., None] * u), normals)
        rhs = sign * P / np.where(near, r * np.prod(np.where(is_i, 1.0, den), axis=-1),
                                  np.prod(den, axis=-1))
        fail[(fail == 0) & (rhs < 0.0).any(-1)] = 3
        todo = np.flatnonzero(fail == 0)
        W, solved = _solve_rows(N[todo], np.sqrt(rhs[todo])[..., None] * patterns)
        fail[todo[~solved]] = 4
        # column j of W[s] is the direction of sign pattern j
        W = np.ascontiguousarray(W.swapaxes(-1, -2))
        W = W / np.sqrt(np.vecdot(W, W))[..., None]
        big = np.abs(W) > 1e-12
        lead = np.where(big & (np.cumsum(big, axis=-1) == 1), W, 0.0).sum(-1)
        W = np.where((lead > 0.0)[..., None], W, -W)
        ok = big.any(-1) & solved[:, None]
        for alpha in cs.finite:
            disc, scale = chord_discriminant(fam.denominators(alpha), X[todo][:, None, :], W)
            ok &= np.abs(disc) <= 1e-9 * scale
    kept = np.zeros((rows, patterns.shape[1]), dtype=bool)
    for j in range(kept.shape[1]):
        diff = W[:, j, None] - W[:, :j]
        near_kept = (kept[todo, :j] & (np.sqrt(np.vecdot(diff, diff)) <= 1e-9)).any(-1)
        kept[todo, j] = ok[:, j] & ~near_kept
    V = np.zeros((rows, kept.shape[1], d))
    V[todo] = W
    fail[(fail == 0) & ~kept.any(-1)] = 5
    return V, kept, fail


@functools.cache
def _patterns(d: int) -> np.ndarray:
    """The 2^(d-1) sign patterns with a leading +1, as columns."""
    return np.array([(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=d - 1)]).T


def random_boundary_point(fam: ConfocalFamily, rng: np.random.Generator) -> np.ndarray:
    """A uniform-ish random point of the reference ellipsoid Q_0."""
    u = rng.normal(size=fam.d)
    return u / math.sqrt(float(np.add.reduce(u * u / fam.axes_f)))


def inward_direction(fam: ConfocalFamily, p, v) -> np.ndarray:
    """Flip v if needed so it points into the ellipsoid at boundary point p;
    NoSolution if v is tangent to the boundary there."""
    pv, vv = _as_vector(p, fam.d).tolist(), _as_vector(v, fam.d).tolist()
    return np.array(_inward(fam.axes_f.tolist(), pv, vv))


def _inward(den, p, v) -> list:
    """``inward_direction`` unchecked, on lists of floats, with the axes
    ``den`` of Q_0."""
    s = chord_quadratic(den, p, v)[1]
    if s == 0.0:
        raise NoSolution("direction is tangent to the boundary")
    return v if s < 0 else [-c for c in v]


# ----------------------------------------------------------- serialization


def trajectory_to_dict(traj: Trajectory) -> dict:
    """JSON-ready dictionary; the infinite caustic is the string "inf"."""
    return {
        "signature": [traj.family.k, traj.family.l],
        "axes": [float(a) for a in traj.family.axes],
        "caustics": _caustic_json(traj.caustic_set),
        "lineType": traj.line_type.value,
        "bounces": [
            {"p": p, "vin": vin, "vout": vout, "double": double}
            for p, vin, vout, double in zip(traj.points.tolist(), traj.directions[:-1].tolist(),
                                            traj.directions[1:].tolist(), traj.double.tolist())
        ],
        "drift": traj.invariant_drift,
    }


def trajectory_from_dict(data: dict) -> Trajectory:
    """Rebuild a trajectory (family, arrays, caustics) from its dict form.

    Raises ValueError for a missing key, a value of the wrong JSON type (a
    top level or bounce record that is not an object, say), a signature,
    axis or caustic that ``Signature``, ``ConfocalFamily`` or
    ``_caustic_set`` rejects, a str or bool where a number belongs, a
    ``double`` that is not a bool, a vector that is not d finite numbers,
    a drift that is not finite and >= 0, or what ``trace`` never writes: a
    point whose Q_0 residual exceeds BOUNDARY_TOL (the bound of
    ``_bounce``), a ``vin`` other than the previous bounce's ``vout``, a
    double ``vout`` other than -``vin``, a ``double`` other than the
    light-like test of the bounce's normal, a ``lineType`` other than the
    line type of the first ``vin``, or caustics with +inf on a line that is
    not light-like, or without it on one that is.  The double flags are
    decided again for all bounces at once by ``_light_like_rows``, which
    gives each normal the flag of ``_light_like``, the rule of the bounce
    loop."""
    try:
        fam = ConfocalFamily(Signature(*data["signature"]), tuple(data["axes"]))
        cs = _caustic_set(fam, [INF if c == "inf" else c for c in data["caustics"]])
        ltype = LineType(data["lineType"])
        drift = _as_scalar(data["drift"], "drift", ">= 0")
        rows = [(raw["p"], raw["vin"], raw["vout"]) for raw in data["bounces"]]
        double = [raw["double"] for raw in data["bounces"]]
        if not all(isinstance(flag, bool) for flag in double):
            raise ValueError("a bounce's double flag is not a JSON boolean")
        double = np.array(double, dtype=bool)
    except KeyError as exc:
        raise ValueError(f"trajectory lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed trajectory: {exc}") from None
    # a ValueError unless every vector has d numbers: the row count is
    # fixed, so vectors of a wrong length cannot be re-rowed
    vectors = np.array(rows)
    if vectors.dtype.kind not in "iuf":
        raise ValueError("a stored vector holds an entry that is not a number")
    vectors = vectors.astype(float, copy=False).reshape(len(rows), 3, fam.d)
    if not np.isfinite(vectors).all():
        raise ValueError("a stored vector is not finite")
    points, vin, vout = vectors[:, 0], vectors[:, 1], vectors[:, 2]
    residual = np.abs(chord_quadratic(fam.axes_f, points, vin)[2])
    if np.any(residual > BOUNDARY_TOL):
        raise ValueError(f"a bounce point has a Q_0 residual of {residual.max()!r}")
    if np.any(vin[1:] != vout[:-1]):
        raise ValueError("a bounce's vin differs from the previous bounce's vout")
    if np.any(vout[double] != -vin[double]):
        raise ValueError("a double bounce's vout is not -vin")
    if np.any(_light_like_rows(fam.eps * (points / fam.axes_f), fam.eps) != double):
        raise ValueError("a bounce's double flag disagrees with its normal")
    if len(vin) and line_type(vin[0], fam.sig) is not ltype:
        raise ValueError(f"lineType {ltype.value} is not the line type of the first vin")
    if cs.has_infinite != (ltype is LineType.LIGHT_LIKE):
        raise ValueError(f"caustics {cs.params} do not fit a {ltype.value} line")
    return Trajectory(
        family=fam,
        points=points,
        directions=np.concatenate([vin[:1], vout]),
        double=double,
        caustic_set=cs,
        line_type=ltype,
        invariant_drift=drift,
        caustic_drift=math.nan,
    )


def recompute_drift(traj: Trajectory) -> float:
    """Invariant drift recomputed from the recorded bounces alone."""
    if not len(traj.points):
        raise ValueError("trajectory has no bounces")
    return _segment_integrals(traj.family, traj.points, traj.directions)[1]

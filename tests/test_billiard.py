"""Billiard dynamics: chords, reflections, invariants, closure, recovery."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from fma_reference import fma_chain
from numpy.polynomial.polynomial import polyroots

from pbl import billiard
from pbl._poly import newton_polish
from pbl.billiard import (
    ClosureReport,
    _closure_errors,
    arc_hit_counts,
    closure_test,
    direction_with_caustics,
    inward_direction,
    line_quadric_intersections,
    random_boundary_point,
    recompute_drift,
    rectangle_ratio,
    reflect_at_boundary,
    trace,
    trajectory_from_dict,
    trajectory_to_dict,
)
from pbl.confocal import (
    INF,
    CausticSet,
    ConfocalFamily,
    Line,
    caustics,
    chord_discriminant,
    evaluate_quadric,
    jacobi_coordinates,
    tangency_polynomial,
)
from pbl.errors import (
    DegenerateConfiguration,
    DegenerateParameter,
    InadmissibleCaustics,
    NoSolution,
    NumericalStall,
    PointNotOnBoundary,
    RootIsolationError,
)
from pbl.metric import LIGHT_TOL, LineType, Signature, line_type, sq_norm

FAM3 = ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0))
FAM2 = ConfocalFamily(Signature(1, 1), (2.0, 1.0))
CIRC = ConfocalFamily(Signature(1, 1), (1.0, 1.0))


# ---------------------------------------------------------- intersections


def test_intersections_through_center():
    ts = line_quadric_intersections(FAM3, 0.0, Line((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    assert ts == pytest.approx([-math.sqrt(5.0), math.sqrt(5.0)])


def test_intersections_miss_and_tangent():
    assert line_quadric_intersections(FAM3, 0.0, Line((10.0, 10.0, 0.0), (0.0, 0.0, 1.0))) == []
    ts = line_quadric_intersections(FAM3, 0.0, Line((math.sqrt(5.0), 0.0, 0.0), (0.0, 1.0, 0.0)))
    assert len(ts) == 1
    assert ts[0] == pytest.approx(0.0, abs=1e-9)


def test_intersections_degenerate_guard():
    with pytest.raises(DegenerateParameter):
        line_quadric_intersections(FAM3, 3.0, Line((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)))


def test_intersections_along_an_asymptotic_direction():
    # on (1,1) (2, 1) at lambda = 3, D = (-1, 4): the direction (1, 2) has
    # q2 = -1 + 4/4 = 0 exactly, so the chord equation is linear and the
    # line meets the hyperbola once, at t = -q0 / (2 q1); through the
    # centre q1 = 0 too, and the line misses it
    ts = line_quadric_intersections(FAM2, 3.0, Line((0.5, 0.1), (1.0, 2.0)))
    assert ts == [-1.386111111111111]
    assert line_quadric_intersections(FAM2, 3.0, Line((0.0, 0.0), (1.0, 2.0))) == []


# ------------------------------------------------------------- reflection


def test_reflect_at_vertex():
    v_out, double = reflect_at_boundary(FAM3, [math.sqrt(5.0), 0.0, 0.0], [-1.0, 1.0, 0.0])
    assert not double
    assert v_out == pytest.approx([1.0, 1.0, 0.0])


def test_reflect_lightlike_normal_doubles():
    # on x^2/2 + y^2 = 1 the pseudo-normal (x/2, -y) is light-like where
    # x = +-2y, i.e. at (2/sqrt(6), 1/sqrt(6)) and mirror images
    p = [2.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)]
    assert abs(evaluate_quadric(FAM2, 0.0, p)) < 1e-12
    v_out, double = reflect_at_boundary(FAM2, p, [0.3, -0.8])
    assert double
    assert v_out == pytest.approx([-0.3, 0.8])


def test_reflect_requires_boundary_point():
    with pytest.raises(PointNotOnBoundary):
        reflect_at_boundary(FAM3, [0.1, 0.1, 0.1], [1.0, 0.0, 0.0])


def test_reflect_preserves_invariant_norm():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = random_boundary_point(FAM3, rng)
        v = rng.uniform(-1, 1, 3)
        v_out, double = reflect_at_boundary(FAM3, p, v)
        assert sq_norm(v_out, FAM3.sig) == pytest.approx(sq_norm(v, FAM3.sig), abs=1e-9)


# ---------------------------------------------------------------- tracing


def test_trace_square_orbit_on_circle():
    # light-like directions close in 4 on the circle: the inscribed square
    traj = trace(CIRC, [1.0, 0.0], [-1.0, 1.0], 5)
    rep = closure_test(traj)
    assert rep.closed
    assert rep.period == 4
    assert rep.position_error <= 1e-12
    pts = traj.points[:4]
    assert pts[0] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert pts[1] == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert pts[2] == pytest.approx([0.0, -1.0], abs=1e-12)
    assert pts[3] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_trace_diameter_through_lightlike_points():
    # the diameter endpoints carry light-like normals: each bounce is a
    # double reflection, so 4 requested reflections give only 2 bounces
    s = 1.0 / math.sqrt(2.0)
    traj = trace(CIRC, [s, s], [-s, -s], 4)
    assert len(traj.points) == 2
    assert all(traj.double)
    assert traj.reflections == 4
    assert traj.directions[1] == pytest.approx([s, s])


def test_trace_validates_start():
    with pytest.raises(ValueError, match="outside"):
        trace(FAM3, [10.0, 0.0, 0.0], [1.0, 0.0, 0.0], 3)
    # just past BOUNDARY_TOL outside, and inward: still outside
    p = np.array([math.sqrt(5.0 * (1.0 + 1e-7)), 0.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        trace(FAM3, p, [-1.0, 0.1, 0.1], 3)
    # the bounce loop holds the one start test
    with pytest.raises(ValueError, match="outside"):
        billiard._bounce(FAM3, p, np.array([-1.0, 0.1, 0.1]), 3)


def test_trace_conserves_integrals_and_caustics():
    traj = trace(FAM3, [0.1, 0.2, 0.1], [1.0, 0.4, -0.3], 300)
    assert traj.invariant_drift <= 1e-9
    assert traj.caustic_drift <= 1e-9
    assert len(traj.points) == 300
    assert traj.line_type is line_type([1.0, 0.4, -0.3], FAM3.sig)


def test_trace_does_not_depend_on_the_length_of_the_direction():
    # 2^k v bounces, and its caustics and drifts are read, as v itself, bit
    # for bit, with no warning; the directions come back in the caller's scale
    v = np.array([1.0, 0.4, -0.3])
    ref = trace(FAM3, [0.1, 0.2, 0.1], v, 120)
    for k in (-530, -300, 0, 300, 530):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = trace(FAM3, [0.1, 0.2, 0.1], np.ldexp(v, k), 120)
            recomputed = recompute_drift(traj)
        assert traj.points.tobytes() == ref.points.tobytes(), k
        assert traj.directions.tobytes() == np.ldexp(ref.directions, k).tobytes(), k
        assert traj.double.tolist() == ref.double.tolist()
        assert traj.caustic_set == ref.caustic_set
        assert traj.invariant_drift == ref.invariant_drift == recomputed
        assert traj.caustic_drift == ref.caustic_drift
    # the directions must fit the floats at the caller's scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalStall, match="overflows"):
            trace(FAM3, [0.1, 0.2, 0.1], np.ldexp(v, 1020), 120)
    # other tiny lengths round v differently, but answer
    for s in (1e-160, 1e-200):
        traj = trace(FAM3, [0.1, 0.2, 0.1], s * v, 120)
        assert traj.caustic_set.params == pytest.approx(ref.caustic_set.params, rel=1e-12)
        assert traj.invariant_drift <= 1e-9 and traj.caustic_drift <= 1e-9


@pytest.mark.parametrize(
    "fam, x, v, n",
    [
        (FAM3, [0.1664457192747821, 0.6366869951106585, 0.3517658457942263],
         [0.27485474176571484, 0.9614857622081058, 1.0], 120),
        (ConfocalFamily(Signature(1, 1), (math.tan(5 * math.pi / 12) ** 2, 1.0)),
         [1.0142444092957907, 0.9137586002495084], [1.0, -1.0], 240),
    ],
    ids=["spatial", "planar"],
)
def test_trace_lightlike_keeps_its_line_type(fam, x, v, n):
    # <v, v> / |v|^2 drifts past LIGHT_TOL along these orbits; the line
    # type is fixed from the start, so every segment keeps d - 2 finite
    # caustics and the caustic drift stays finite and small
    traj = trace(fam, x, v, n)
    assert traj.line_type is LineType.LIGHT_LIKE
    assert traj.invariant_drift <= 1e-9
    assert traj.caustic_drift <= 1e-9


def _reference_light_rule(w, eps) -> tuple:
    """The light-like rule on numpy vectors, its dot products exact FMA
    chains: (w scaled to a largest component in [1/2, 1), <ws, ws>, light)."""
    ws = np.ldexp(w, -np.frexp(np.abs(w).max())[1])
    s = fma_chain(eps * ws, ws)
    return ws, s, abs(s) <= LIGHT_TOL * fma_chain(ws, ws)


def _reference_chord(den, x, v) -> tuple:
    """The chord quadratic on numpy vectors, by ``np.add.reduce``."""
    return (float(np.add.reduce(v * v / den)), float(np.add.reduce(x * v / den)),
            float(np.add.reduce(x * x / den)) - 1.0)


def _reference_bounce(fam, x, v, n) -> tuple:
    """Reference: the bounce loop on numpy vectors, as it ran before it
    moved to Python floats, with its dot products taken by ``fma_chain``
    and its tolerances read from ``billiard`` at call time."""
    den, eps = fam.axes_f, fam.eps
    points = np.empty((n, fam.d))
    directions = np.empty((n + 1, fam.d))
    double = np.empty(n, dtype=bool)
    directions[0] = v
    m = refl = 0
    while True:
        q2, q1, q0 = _reference_chord(den, x, v)
        if abs(q0) > billiard.BOUNDARY_TOL:
            if m:
                raise NumericalStall("residual")
            if q0 > 0.0:
                raise ValueError("start point lies outside the reference ellipsoid")
        elif not m and q1 >= 0.0:
            raise ValueError("start on the boundary needs an inward direction")
        if refl >= n:
            return points[:m], directions[: m + 1], double[:m], refl
        disc = q1 * q1 - q2 * q0
        if disc <= 0.0:
            raise NumericalStall("tangent or exterior chord")
        t = (-q1 + math.sqrt(disc)) / q2
        if t * math.sqrt(fma_chain(v, v)) <= billiard.STALL_TOL * math.sqrt(fam.scale):
            raise NumericalStall("chord length below 1e-12")
        _, g1, g = _reference_chord(den, x + t * v, v)
        if g1 != 0.0:
            t = t - g / (2.0 * g1)
        x = points[m] = x + t * v
        nn, n2, double[m] = _reference_light_rule(eps * (x / den), eps)
        if double[m]:
            v = -v
        else:
            v = v - (2.0 * fma_chain(eps * v, nn) / n2) * nn
        directions[m + 1] = v
        refl += 2 if double[m] else 1
        m += 1


def _assert_bounce_matches_the_reference(fam, x, v, n):
    """``_bounce`` against ``_reference_bounce``, bit for bit, or the same
    exception; returns the count reached, None after a stall."""
    try:
        want = _reference_bounce(fam, np.asarray(x, dtype=float), np.asarray(v, dtype=float), n)
    except (NumericalStall, ValueError) as exc:
        with pytest.raises(type(exc)):
            billiard._bounce(fam, np.asarray(x, dtype=float), np.asarray(v, dtype=float), n)
        return None
    got = billiard._bounce(fam, np.asarray(x, dtype=float), np.asarray(v, dtype=float), n)
    assert np.array(got[0]).reshape(-1, fam.d).tobytes() == want[0].tobytes()
    assert np.array(got[1]).tobytes() == want[1].tobytes()
    assert got[2] == want[2].tolist() and got[3] == want[3]
    return got[3]


def _bounce_starts(fam, seed: int, count: int) -> list:
    """Seeded interior starts with random directions."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.1, 0.9) * random_boundary_point(fam, rng), rng.normal(size=fam.d))
            for _ in range(count)]


def _light_like_starts(fam, seed: int, count: int) -> list:
    """Seeded interior starts with light-like directions: unit blocks of
    each metric sign."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(count):
        v = rng.normal(size=fam.d)
        v[: fam.k] /= np.linalg.norm(v[: fam.k])
        v[fam.k :] /= np.linalg.norm(v[fam.k :])
        starts.append((rng.uniform(0.1, 0.9) * random_boundary_point(fam, rng), v))
    return starts


#: A table of each kind, with a boundary point whose normal is light-like:
#: on sum x_i^2 / a_i = 1 where sum eps_i x_i^2 / a_i^2 = 0.
LIGHT_NORMAL_POINTS = [
    (FAM2, [2.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)]),
    (FAM3, [5.0 / math.sqrt(7.0), 0.0, 2.0 / math.sqrt(7.0)]),
    (ConfocalFamily(Signature(2, 2), (5.0, 3.0, 2.0, 4.0)),
     [5.0 / math.sqrt(7.0), 0.0, 2.0 / math.sqrt(7.0), 0.0]),
]


@pytest.mark.parametrize("fam, p", LIGHT_NORMAL_POINTS, ids=["planar", "spatial", "(2, 2)"])
def test_bounce_equals_the_numpy_reference(fam, p):
    # seeded space-, time- and light-like orbits, and a diameter through
    # points with light-like normals, whose every bounce is a double one
    starts = _bounce_starts(fam, 23, 12) + _light_like_starts(fam, 24, 6)
    counts = [_assert_bounce_matches_the_reference(fam, x, v, 40) for x, v in starts]
    assert counts.count(40) + counts.count(41) == len(starts)
    p = np.array(p)
    assert abs(evaluate_quadric(fam, 0.0, p)) <= 1e-15
    assert _assert_bounce_matches_the_reference(fam, np.zeros(fam.d), p, 5) == 6
    assert all(billiard._bounce(fam, np.zeros(fam.d), p, 5)[2])


def test_bounce_keeps_a_last_double_and_stalls_on_a_short_chord():
    # the circle's diameter has a double bounce at each end: the last one
    # passes n = 3 and reaches 4; a start on the boundary almost along it
    # has a first chord shorter than 1e-12, which stalls
    s = 1.0 / math.sqrt(2.0)
    assert _assert_bounce_matches_the_reference(CIRC, [s, s], [-s, -s], 3) == 4
    with pytest.raises(NumericalStall, match="below 1e-12"):
        billiard._bounce(CIRC, np.array([1.0, 0.0]), np.array([-1e-14, 1.0]), 3)
    assert _assert_bounce_matches_the_reference(CIRC, [1.0, 0.0], [-1e-14, 1.0], 3) is None
    # from (1, 0) along (-e, 1) the first chord is 2e long: just below and
    # just above 1e-12 sqrt(a_1 + a_d)
    short = billiard.STALL_TOL * math.sqrt(CIRC.scale)
    assert _assert_bounce_matches_the_reference(CIRC, [1.0, 0.0], [-0.495 * short, 1.0], 3) is None
    assert _assert_bounce_matches_the_reference(CIRC, [1.0, 0.0], [-0.505 * short, 1.0], 3) == 3


def test_bounce_stalls_midway_at_a_tight_tolerance(monkeypatch):
    # at a tolerance of 4e-16 some starts stall, each at the bounce where
    # rounding leaves a larger residual; the others reach n
    monkeypatch.setattr(billiard, "BOUNDARY_TOL", 4e-16)
    counts = [_assert_bounce_matches_the_reference(FAM3, x, v, 12)
              for x, v in _bounce_starts(FAM3, 31, 24)]
    assert None in counts and 12 in counts
    with pytest.raises(NumericalStall, match="residual"):
        billiard._bounce(FAM3, *_bounce_starts(FAM3, 31, 24)[counts.index(None)], 12)


def _per_segment_caustic_drift(traj) -> float:
    """Reference: every segment's caustics solved again (companion roots,
    Newton polish, with the start's line type) against the start's."""
    fam = traj.family
    alpha = np.array(traj.caustic_set.finite)
    worst = 0.0
    for point, v_out in zip(traj.points, traj.directions[1:]):
        pc = tangency_polynomial(fam, point, v_out)
        if traj.line_type is LineType.LIGHT_LIKE:
            pc = pc[:-1]
        seg = np.sort(newton_polish(pc, polyroots(pc).real))
        rel = np.abs(seg - alpha) / np.maximum(1.0, np.abs(alpha))
        worst = max(worst, float(np.max(rel, initial=0.0)))
    return worst


@pytest.mark.parametrize(
    "sig, axes",
    [((2, 1), (5.0, 3.0, 2.0)), ((1, 2), (5.0, 2.0, 3.0)),
     ((2, 2), (5.0, 3.0, 2.0, 4.0)), ((1, 1), (2.0, 1.0))],
)
def test_caustic_drift_matches_per_segment_roots(sig, axes):
    # trace reads each segment's drift as one Newton step from the start
    # caustics; it must agree with solving every segment's roots again
    fam = ConfocalFamily(Signature(*sig), axes)
    rng = np.random.default_rng(7)
    for trial in range(12):
        kind = ("space", "time", "light")[trial % 3]
        x = rng.uniform(0.1, 0.7) * random_boundary_point(fam, rng)
        traj = trace(fam, x, _direction_of_type(rng, *sig, kind), 120)
        assert traj.line_type is LineType(f"{kind}-like")
        reference = _per_segment_caustic_drift(traj)
        assert traj.caustic_drift == pytest.approx(reference, abs=1e-14, rel=0)


def test_trace_boundary_start_needs_inward_direction():
    p = np.array([math.sqrt(5.0), 0.0, 0.0])
    traj = trace(FAM3, p, [-1.0, 0.1, 0.1], 10)
    assert len(traj.points) == 10
    with pytest.raises(ValueError, match="inward"):
        trace(FAM3, p, [1.0, 0.1, 0.1], 10)
    with pytest.raises(ValueError, match="inward"):
        trace(FAM3, p, [0.0, 1.0, 0.1], 10)  # tangent to Q_0


def test_bounce_off_the_boundary_stalls(monkeypatch):
    # a bounce's Q_0 residual is the q0 of the chord that leaves it, read
    # on every bounce, the last included: here the one bounce is the last,
    # and its residual, -1.1e-16, is past a tolerance of 0
    monkeypatch.setattr(billiard, "BOUNDARY_TOL", 0.0)
    with pytest.raises(NumericalStall, match="residual"):
        trace(FAM3, [0.1, 0.2, 0.1], [1.0, 0.4, -0.3], 1)


def test_segments_respect_caustic_intervals():
    # along a trajectory each sorted pencil coordinate sweeps an interval
    # that contains no breakpoint (degenerate parameter or caustic) strictly
    # inside; the motion reverses only at those values
    x = np.array([0.1, 0.2, 0.1])
    traj = trace(FAM3, x, [1.0, 0.4, -0.3], 40)
    breakpoints = sorted(list(FAM3.signed_axes) + list(traj.caustic_set.finite))
    lo = np.full(FAM3.d, np.inf)
    hi = np.full(FAM3.d, -np.inf)
    for point in traj.points:
        seg = point - x
        for s in np.linspace(0.05, 0.95, 7):
            gj = jacobi_coordinates(FAM3, x + s * seg)
            if gj.complex_pair is not None:
                continue
            r = np.sort(np.asarray(gj.real_roots))
            lo = np.minimum(lo, r)
            hi = np.maximum(hi, r)
        x = point
    slack = 1e-6 * FAM3.scale
    for i in range(FAM3.d):
        for beta in breakpoints:
            assert not (lo[i] + slack < beta < hi[i] - slack), (i, beta, lo[i], hi[i])


def test_focal_chords_alternate():
    # chords through one focus of x^2/2 + y^2 = 1 reflect through the other
    f = math.sqrt(3.0)
    start = np.array([0.0, 0.5])
    v0 = np.array([f, -0.5])  # start + v0 = F1 = (sqrt 3, 0)
    traj = trace(FAM2, start, v0, 8)
    foci = [np.array([f, 0.0]), np.array([-f, 0.0])]
    x = start
    # the first segment passes through F1; subsequent ones alternate
    for j, point in enumerate(traj.points):
        seg = point - x
        target = foci[j % 2]
        w = target - x
        cross = abs(seg[0] * w[1] - seg[1] * w[0]) / np.linalg.norm(seg)
        assert cross <= 1e-8, (j, cross)
        x = point


def test_closure_test_open_chord():
    traj = trace(FAM3, [0.1, 0.2, 0.1], [1.0, 0.4, -0.3], 50)
    rep = closure_test(traj)
    assert not rep.closed
    assert rep.period is None


@pytest.mark.parametrize("tol", [math.nan, -1e-6, INF])
def test_closure_test_rejects_a_malformed_tolerance(tol):
    traj = trace(FAM2, [0.1, 0.2], [1.0, 0.3], 10)
    with pytest.raises(ValueError, match="tolerance"):
        closure_test(traj, tol)


def _per_bounce_closure(traj, tol: float = 1e-6) -> ClosureReport:
    """Reference: every later bounce compared with bounce 0 in turn, the
    best match kept by a strict < on position plus direction error."""
    p0 = traj.points[0]
    d0 = traj.directions[1] / np.linalg.norm(traj.directions[1])
    counts = traj.reflection_counts
    best = (math.inf, math.inf, None)
    for j in range(1, len(traj.points)):
        pos = float(np.linalg.norm(traj.points[j] - p0))
        dj = traj.directions[j + 1] / np.linalg.norm(traj.directions[j + 1])
        dirr = float(np.linalg.norm(dj - d0))
        if pos <= tol and dirr <= tol:
            return ClosureReport(True, int(counts[j] - counts[0]), pos, dirr, j)
        if pos + dirr < best[0] + best[1]:
            best = (pos, dirr, j)
    return ClosureReport(False, None, *best)


@pytest.mark.parametrize("fam", [FAM3, FAM2], ids=["spatial", "planar"])
def test_closure_test_matches_per_bounce_loop(fam):
    rng = np.random.default_rng(11)
    for trial in range(9):
        kind = ("space", "time", "light")[trial % 3]
        x = rng.uniform(0.1, 0.7) * random_boundary_point(fam, rng)
        traj = trace(fam, x, _direction_of_type(rng, fam.k, fam.l, kind), 60)
        rep = closure_test(traj)
        assert not rep.closed
        assert rep == _per_bounce_closure(traj)


@pytest.mark.parametrize("d", [2, 3])
def test_closure_errors_round_as_linalg_norm(d):
    # the errors of closure_test and poncelet_verify: each row's bits are
    # those of np.linalg.norm on that row, which norm(axis=1) misses
    rng = np.random.default_rng(d)
    P, D, P0, D0 = rng.normal(size=(4, 500, d))
    pos, dirr = _closure_errors(P, D, P0, D0)
    assert pos.tolist() == [float(np.linalg.norm(p - p0)) for p, p0 in zip(P, P0)]
    unit = [w / np.linalg.norm(w) - w0 / np.linalg.norm(w0) for w, w0 in zip(D, D0)]
    assert dirr.tolist() == [float(np.linalg.norm(u)) for u in unit]


def test_closure_test_counts_double_reflections():
    # every bounce of the diameter is double: bounce 2 repeats bounce 0
    # after 4 reflections, not 2 bounces
    s = 1.0 / math.sqrt(2.0)
    traj = trace(CIRC, [s, s], [-s, -s], 6)
    assert traj.reflection_counts.tolist() == [2, 4, 6]
    rep = closure_test(traj)
    assert rep.closed and rep.period == 4 and rep.bounce_index == 2
    assert rep == _per_bounce_closure(traj)


# ------------------------------------------------- light-like planar orbits


def lightlike_orbit(fam: ConfocalFamily, n: int):
    """One full light-like period (n bounces) plus the closure check."""
    rng = np.random.default_rng(0)
    p = random_boundary_point(fam, rng)
    v = inward_direction(fam, p, np.array([1.0, 1.0]))
    period = trace(fam, p, v, n)
    extended = trace(fam, p, v, n + 1)
    return period, extended


def test_arc_hit_counts_ratio_three():
    # a/b = 3 closes in 6 with k = 2: two hits on the flat arcs through
    # (0, +-sqrt b) for every one on the arcs through (+-sqrt a, 0)
    fam = ConfocalFamily(Signature(1, 1), (3.0, 1.0))
    period, extended = lightlike_orbit(fam, 6)
    rep = closure_test(extended)
    assert rep.closed and rep.period == 6
    assert arc_hit_counts(period) == (2, 1)


def test_arc_hit_counts_ratio_third():
    fam = ConfocalFamily(Signature(1, 1), (1.0, 3.0))
    period, extended = lightlike_orbit(fam, 6)
    rep = closure_test(extended)
    assert rep.closed and rep.period == 6
    assert arc_hit_counts(period) == (1, 2)


def test_arc_hit_counts_rejects_generic_chord():
    from pbl.errors import NotPlanarLightLike

    traj = trace(FAM2, [0.1, 0.2], [1.0, 0.1], 5)
    with pytest.raises(NotPlanarLightLike):
        arc_hit_counts(traj)


def test_rectangle_ratio_values():
    assert rectangle_ratio(1.0, 1.0) == pytest.approx(1.0)
    assert rectangle_ratio(math.tan(math.pi / 6) ** 2, 1.0) == pytest.approx(2.0)
    assert rectangle_ratio(math.tan(math.pi / 8) ** 2, 1.0) == pytest.approx(3.0)
    for a, b in ((-1.0, 2.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            rectangle_ratio(a, b)


# ------------------------------------------------------ direction recovery


def test_direction_recovery_planar():
    x = np.array([math.sqrt(2.0), 0.0])
    dirs = direction_with_caustics(FAM2, x, (2.0 / 3.0,))
    assert len(dirs) == 2
    # the two admissible chords are mirror images in the x-axis
    assert dirs[0][0] == pytest.approx(dirs[1][0], abs=1e-9)
    assert dirs[0][1] == pytest.approx(-dirs[1][1], abs=1e-9)
    for v in dirs:
        cs = caustics(FAM2, Line(x, v))
        assert cs.params[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_direction_recovery_planar_lightlike():
    x = np.array([math.sqrt(2.0), 0.0])
    dirs = direction_with_caustics(FAM2, x, (INF,))
    assert len(dirs) == 2
    s = 1.0 / math.sqrt(2.0)
    matched = set()
    for v in dirs:
        for label, ref in (("up", (s, s)), ("down", (s, -s))):
            if abs(v[0] - ref[0]) < 1e-9 and abs(v[1] - ref[1]) < 1e-9:
                matched.add(label)
    assert matched == {"up", "down"}


#: One family per signature with d >= 3: (k, l) -> axes.
SPATIAL_FAMILIES = {
    (2, 1): (5.0, 3.0, 2.0),
    (1, 2): (4.0, 1.0, 3.0),
    (2, 2): (5.0, 3.0, 1.0, 2.0),
    (3, 1): (6.0, 4.0, 3.0, 2.0),
}


def _direction_of_type(rng, k: int, l: int, kind: str) -> np.ndarray:
    """Unit sign blocks scaled so that <v, v> is 0, >= 0.36 or <= -0.36."""
    plus, minus = rng.normal(size=k), rng.normal(size=l)
    p = rng.uniform(0.0, 0.8) if kind == "time" else 1.0
    q = rng.uniform(0.0, 0.8) if kind == "space" else 1.0
    return np.concatenate([p * plus / np.linalg.norm(plus), q * minus / np.linalg.norm(minus)])


def test_direction_recovery_3d():
    for (k, l), axes in SPATIAL_FAMILIES.items():
        fam = ConfocalFamily(Signature(k, l), axes)
        rng = np.random.default_rng(11)
        for trial in range(12):
            p = random_boundary_point(fam, rng)
            if trial % 4 == 3:
                # next to the coordinate hyperplane x_i = 0, back on Q_0
                p[trial % fam.d] *= 1e-7
                p /= math.sqrt(evaluate_quadric(fam, 0.0, p) + 1.0)
            v = _direction_of_type(rng, k, l, ("space", "time", "light")[trial % 3])
            cs = caustics(fam, Line(p, v))
            assert cs.has_infinite == (trial % 3 == 2)
            dirs = direction_with_caustics(fam, p, cs)
            vn = v / np.linalg.norm(v)
            best = min(
                min(np.linalg.norm(d - vn), np.linalg.norm(d + vn)) for d in dirs
            )
            assert best <= 1e-6, f"signature ({k}, {l}), trial {trial}"


def test_direction_recovery_cancelling_signs():
    # The tangency check measures its residual against the absolute terms:
    # in signature (1, 3) the terms of q2 and q1 cancel, and a check scaled
    # by |q2 q0| + q1^2 rejected correct directions here
    fam = ConfocalFamily(Signature(1, 3), (3.0, 1.0, 2.0, 4.0))
    x = np.array([0.96790, -0.47026, 6.43e-11, -1.36613])
    for target in [(-2.1523206425706043, -0.1825341560162707, 1.596280753499),
                   (-8.843040601670955, -2.0000027857357328, -0.06001058848357177)]:
        dirs = direction_with_caustics(fam, x, target)
        assert len(dirs) == 8
        for v in dirs:
            assert caustics(fam, Line(x, v)).params == pytest.approx(target, rel=1e-10)


def test_direction_recovery_no_real_line():
    # (0.1, 0.1) lies inside the caustic conic: no tangent line through it
    with pytest.raises(NoSolution, match="no real line"):
        direction_with_caustics(FAM2, [0.1, 0.1], (2.0 / 3.0,))


def test_direction_recovery_rejects_bad_sets():
    with pytest.raises(InadmissibleCaustics):
        direction_with_caustics(FAM3, [0.1, 0.1, 0.1], (-2.5, -2.6))
    with pytest.raises(DegenerateConfiguration):
        direction_with_caustics(FAM2, [0.1, 0.1], (0.0,))


@pytest.mark.parametrize("fam, params", [
    (FAM3, (3.0, INF)), (FAM3, (-2.0, 1.0)), (FAM3, (1.0, 3.0)), (FAM2, (2.0,)), (FAM2, (-1.0,)),
], ids=["3,inf", "-2,1", "1,3", "planar-2", "planar--1"])
def test_direction_recovery_rejects_degenerate_caustics(fam, params):
    # admission used to pass these, and the tangency check then divided by zero
    with pytest.raises(DegenerateConfiguration):
        direction_with_caustics(fam, [0.1] * fam.d, params)


def _per_point_directions(fam, x, target, branches: list) -> list:
    """Reference: the closed form built point by point, as before the stack
    form: ``jacobi_coordinates``, one normal row and one square per
    coordinate, one solve, and the checks direction by direction.  Appends
    to ``branches`` whether each row took the scaled-row branch."""
    cs = CausticSet(tuple(target))
    jc = jacobi_coordinates(fam, x)
    if not jc.is_simple_real():
        raise NoSolution("x has a complex pair or a multiple Jacobi coordinate")

    def P(lam):
        return math.prod(lam - alpha for alpha in cs.finite)

    d, sign = fam.d, math.copysign(1.0, P(0.0))
    N, rhs = np.empty((d, d)), np.empty(d)
    for k, lam in enumerate(jc.real_roots):
        den = fam.denominators(lam)
        i = int(np.argmin(np.abs(den)))
        rest = np.arange(d) != i
        u = x[rest] / den[rest]
        r = 1.0 - float(np.dot(u, x[rest]))
        branches.append(abs(den[i]) <= abs(r) * fam.scale)
        if branches[-1]:
            N[k, i] = 1.0
            N[k, rest] = x[i] / r * u
            rhs[k] = sign * P(lam) / (r * float(np.prod(den[rest])))
        else:
            N[k] = x / den
            rhs[k] = sign * P(lam) / float(np.prod(den))
    if np.any(rhs < 0.0):
        raise NoSolution("no real line through x has these caustics")
    signs = np.array([(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=d - 1)]).T
    out = []
    for v in np.linalg.solve(N, np.sqrt(rhs)[:, None] * signs).T:
        v = v / np.linalg.norm(v)
        v = v if v[np.flatnonzero(np.abs(v) > 1e-12)[0]] > 0 else -v
        if any(np.linalg.norm(v - w) <= 1e-9 for w in out):
            continue
        residuals = (chord_discriminant(fam.denominators(a), x, v) for a in cs.finite)
        if all(abs(val) <= 1e-9 * scale for val, scale in residuals):
            out.append(v)
    if not out:
        raise NoSolution("no constructed direction passed the tangency check")
    return out


def _direction_rows(fam, seed: int) -> np.ndarray:
    """Seeded points: boundary points, points of a box around Q_0 (where
    many have a complex Jacobi pair), and boundary points within 1e-12 of
    each coordinate hyperplane, which take the scaled-row branch."""
    rng = np.random.default_rng(seed)
    rows = [random_boundary_point(fam, rng) for _ in range(12)]
    rows += list(rng.uniform(-3.0, 3.0, size=(12, fam.d)))
    for i in range(fam.d):
        for scale in (1e-12, -3e-13):
            p = random_boundary_point(fam, rng)
            p[i] *= scale
            rows.append(p / math.sqrt(evaluate_quadric(fam, 0.0, p) + 1.0))
    return np.array(rows)


@pytest.mark.parametrize("fam, target", [
    (FAM2, (2.0 / 3.0,)), (FAM2, (-0.6666666666666894,)), (FAM2, (INF,)),
    (FAM3, (-2.320953597016259, 2.154286930349592)), (FAM3, (1.0, INF)), (FAM3, (4.0, INF)),
], ids=["planar", "planar-negative", "planar-light", "pair6", "light", "light-far"])
def test_stacked_directions_equal_the_per_point_lists(fam, target):
    # the core billiard._directions builds every row of a stack at once;
    # each row must be the public list of its point alone, and that list
    # the point-by-point closed form, bit for bit, and a row with no
    # direction must carry the code of its point's error
    X = _direction_rows(fam, 17)
    V, kept, fail = billiard._directions(fam, X, CausticSet(target))
    reasons, branches = set(), []
    for x, v_row, k_row, code in zip(X, V, kept, fail.tolist()):
        try:
            ref = _per_point_directions(fam, x, target, branches)
        except NoSolution as exc:
            reasons.add(str(exc))
            assert not k_row.any()
            assert billiard._NO_DIRECTION[code] == (NoSolution, str(exc))
            with pytest.raises(NoSolution, match=str(exc)):
                direction_with_caustics(fam, x, target)
            continue
        one = direction_with_caustics(fam, x, target)
        assert code == 0
        assert len(ref) == len(one) == k_row.sum()
        for a, b, c in zip(ref, one, v_row[k_row]):
            assert a.tobytes() == b.tobytes() == c.tobytes()
    # the seeded rows reach the complex pair, the negative squares and
    # the scaled rows next to a hyperplane
    assert reasons >= {"x has a complex pair or a multiple Jacobi coordinate",
                       "no real line through x has these caustics"}
    assert any(branches)


def test_far_rows_of_a_stack_keep_no_pattern():
    # x_1 = 1e16 has its Jacobi coordinates (-1e32, -2, 3; an eigenvalue
    # solve lost the small ones), but no real line through it has these
    # caustics; 1e160 overflows the polynomial and raises
    # RootIsolationError.  In a stack of the core their rows keep no
    # pattern and carry those codes, while the others keep their bits
    target = (-2.320953597016259, 2.154286930349592)
    p = random_boundary_point(FAM3, np.random.default_rng(5))
    X = np.array([p, [1e16, 1.0, 1.0], [1e160, 1.0, 1.0]])
    V, kept, fail = billiard._directions(FAM3, X, CausticSet(target))
    one = direction_with_caustics(FAM3, p, target)
    assert kept[0].sum() == len(one) > 0
    assert [v.tobytes() for v in V[0, kept[0]]] == [v.tobytes() for v in one]
    assert not kept[1:].any()
    assert fail.tolist() == [0, 3, 2]
    with pytest.raises(NoSolution, match="no real line"):
        direction_with_caustics(FAM3, X[1], target)
    with pytest.raises(RootIsolationError, match="rounding"):
        direction_with_caustics(FAM3, X[2], target)


def test_a_far_row_of_a_d4_stack_keeps_no_pattern():
    # d = 4 takes its Jacobi coordinates from the companion matrix, which at
    # x_1 = 1e160 is not finite: the row has nan roots and raises
    # RootIsolationError alone, and in a stack of the core it keeps no
    # pattern while the others keep the bits they have alone
    fam = ConfocalFamily(Signature(2, 2), (5.0, 3.0, 2.0, 4.0))
    rng = np.random.default_rng(5)
    p = random_boundary_point(fam, rng)
    target = caustics(fam, Line(p, inward_direction(fam, p, rng.normal(size=4))))
    far = [1e160, 1.0, 1.0, 1.0]
    X = np.array([p, far, random_boundary_point(fam, rng)])
    V, kept, fail = billiard._directions(fam, X, target)
    assert not kept[1].any() and not V[1].any()
    assert fail.tolist() == [0, 2, 0]
    for s in (0, 2):
        one = direction_with_caustics(fam, X[s], target)
        assert kept[s].sum() == len(one) > 0
        assert [v.tobytes() for v in V[s, kept[s]]] == [v.tobytes() for v in one]
    with pytest.raises(RootIsolationError, match="rounding"):
        direction_with_caustics(fam, far, target)


def test_an_empty_stack_keeps_no_pattern():
    # the stacked Jacobi coordinates of no point had shape (0,), not (0, d),
    # and np.broadcast_to failed on them
    for fam, target in ((FAM2, (2.0 / 3.0,)), (FAM3, (-2.320953597016259, 2.154286930349592))):
        V, kept, fail = billiard._directions(fam, np.zeros((0, fam.d)), CausticSet(target))
        patterns = 2 ** (fam.d - 1)
        assert V.shape == (0, patterns, fam.d) and kept.shape == (0, patterns)
        assert kept.dtype == bool and fail.shape == (0,)


def test_solve_rows_masks_a_singular_row():
    # one singular matrix fails the whole stacked solve; the rows are then
    # solved one by one, and only the singular one is masked
    N = np.array([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
    W, solved = billiard._solve_rows(N, np.ones((3, 3, 4)))
    assert solved.tolist() == [True, False, True]
    assert (W[0] == 1.0).all() and (W[2] == 0.5).all()


# ---------------------------------------------------------- serialization


def test_trajectory_round_trip():
    traj = trace(FAM3, [0.1, 0.2, 0.1], [1.0, 0.4, -0.3], 25)
    data = trajectory_to_dict(traj)
    # survives JSON encoding
    data = json.loads(json.dumps(data))
    back = trajectory_from_dict(data)
    assert back.reflections == traj.reflections
    assert recompute_drift(back) == traj.invariant_drift
    assert back.double.tolist() == traj.double.tolist()


@pytest.mark.parametrize("fam, start, direction", [
    (FAM3, [0.1, 0.2, 0.1], [1.0, 0.4, -0.3]), (FAM3, [0.1, 0.2, 0.1], [0.3, 0.2, 1.0]),
    (FAM3, [0.1, 0.2, 0.1], [0.6, 0.8, 1.0]), (FAM2, [0.1, 0.2], [1.0, 1.0]),
], ids=["space", "time", "light", "planar-light"])
def test_trajectory_round_trip_keeps_line_type_and_caustics(fam, start, direction):
    # trajectory_from_dict decides the line type again from the first vin,
    # and trace fixes it from that same vector
    traj = trace(fam, start, direction, 6)
    back = trajectory_from_dict(json.loads(json.dumps(trajectory_to_dict(traj))))
    assert back.line_type is traj.line_type is line_type(direction, fam.sig)
    assert back.caustic_set == traj.caustic_set
    assert back.caustic_set.has_infinite == (traj.line_type is LineType.LIGHT_LIKE)


def _number_to_str(data, *path):
    """Replace the number at ``data[path[0]][path[1]]...`` by its repr."""
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = repr(data[path[-1]])


@pytest.mark.parametrize("edit, message", [
    (lambda data: data.update(signature=[2.7, 1]), "k must be an int"),
    (lambda data: _number_to_str(data, "axes", 0), "axis parameters must be finite"),
    (lambda data: _number_to_str(data, "caustics", 1), "caustics must be finite"),
    (lambda data: _number_to_str(data, "bounces", 2, "p", 0), "not a number"),
    (lambda data: _number_to_str(data, "bounces", 3, "vin", 1), "not a number"),
    (lambda data: _number_to_str(data, "bounces", 2, "vout", 2), "not a number"),
    (lambda data: data.update(drift=True), "drift must be finite"),
    (lambda data: data.update(drift=-data["drift"]), "drift must be finite and >= 0"),
    (lambda data: data["bounces"][2].update(p=[0.5, 0.5, 0.5]), "Q_0 residual"),
], ids=["float-signature", "str-axis", "str-caustic", "str-p", "str-vin", "str-vout",
        "bool-drift", "negative-drift", "point-off-the-table"])
def test_trajectory_from_dict_reads_every_field_strictly(edit, message):
    # each of these was read: int(2.7) = 2, float() of a str, True as 1.0,
    # a negative drift, and a point off Q_0 that only the drift betrayed
    data = json.loads(json.dumps(trajectory_to_dict(
        trace(FAM3, [0.1, 0.2, 0.1], [1.0, 0.4, -0.3], 8))))
    assert data["drift"] > 0.0
    edit(data)
    with pytest.raises(ValueError, match=message):
        trajectory_from_dict(data)


@pytest.mark.parametrize("flag", [0, 1, "false", "true", None, 0.0])
@pytest.mark.parametrize("bounce", [0, 2])
def test_trajectory_from_dict_reads_double_flags_as_booleans(bounce, flag):
    # "double": 0 on a single bounce was read as False, and "false" as
    # True, which only the double-vout rule caught
    data = json.loads(json.dumps(trajectory_to_dict(trace(FAM2, [0.1, 0.2], [1.0, 0.3], 4))))
    assert data["bounces"][bounce]["double"] is False
    data["bounces"][bounce]["double"] = flag
    with pytest.raises(ValueError, match="malformed trajectory: .*double flag"):
        trajectory_from_dict(data)


def test_trajectory_dict_schema():
    traj = trace(FAM2, [0.1, 0.2], [1.0, 1.0], 3)
    data = trajectory_to_dict(traj)
    assert data["signature"] == [1, 1]
    assert data["axes"] == [2.0, 1.0]
    assert data["caustics"] == ["inf"]
    assert data["lineType"] == "light-like"
    assert set(data["bounces"][0]) == {"p", "vin", "vout", "double"}
    assert isinstance(data["drift"], float)

"""Relativistic quadric types, the tropic surface, planar conic cases.

The analytic tropic partial derivatives are validated against central
finite differences before any downstream test relies on them.
"""

import math

import numpy as np
import pytest

from pbl.billiard import closure_test, direction_with_caustics, rectangle_ratio, trace
from pbl.confocal import ConfocalFamily, jacobi_coordinates
from pbl.errors import (
    BoundaryCase,
    CuspPoint,
    DegenerateParameter,
    MultipleRoot,
    NoSolution,
    NotDecoratable,
    PointNotOnConic,
)
from pbl.metric import LineType, MDistance, Signature, line_type, sq_norm
from pbl.periodicity import lightlike_period, numerical_rank, poncelet_verify
from pbl.relativistic import (
    GeomType3,
    RelType,
    cusp_edge_lambda,
    decorated_coordinates,
    focal_residual,
    geometric_type_3d,
    relativistic_conic_classify,
    relativistic_type,
    tropic_cone_residual,
    tropic_partials,
    tropic_point,
    tropic_surface_normal,
    tropic_tangent_norm_sq,
)

FAM3 = ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0))
FAM2 = ConfocalFamily(Signature(1, 1), (2.0, 1.0))

# a point whose pencil equation has a conjugate complex pair (found by
# scanning; kept fixed so failures stay reproducible)
PAIR_POINT = [1.0007637328373358, 3.177710407756604, 2.205485521961548]


# ---------------------------------------------------------------- types


def test_reltype_str():
    assert str(RelType("E")) == "E"
    assert str(RelType("H", 1)) == "H^1"
    assert str(RelType("H", 2)) == "H^2"
    assert str(RelType("0", 0)) == "0^0"


def test_relativistic_type_examples():
    assert relativistic_type(FAM3, [math.sqrt(5.0), 0.0, 0.0], 0.0) == RelType("H", 1)
    assert relativistic_type(FAM3, [math.sqrt(8.0), 0.0, 0.0], -3.0) == RelType("E")
    assert relativistic_type(FAM3, [0.0, 0.0, math.sqrt(8.0)], 6.0) == RelType("H", 2)


def test_relativistic_type_needs_coordinate():
    # 0.0 is a coordinate (test_relativistic_type_examples); 1e-9 from it
    # is off by more than rounding, though within the old matching
    # tolerance of 1e-7 (a_1 + a_d)
    for lam in (1.2345, 1e-9, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="not a Jacobi coordinate"):
            relativistic_type(FAM3, [math.sqrt(5.0), 0.0, 0.0], lam)


def test_relativistic_type_multiple_root():
    # lambda0 is a double coordinate of a tropic-surface point; _jacobi
    # reads it as a repeated root, since the Jacobi polynomial is 0 within
    # its rounding floor between the two roots that rounding splits it
    # into, and the type must then be refused
    p = tropic_point(FAM3, 1.0, 0.3, 1)
    gj = jacobi_coordinates(FAM3, p)
    assert gj.complex_pair is None and len(gj.real_roots) == 3
    with pytest.raises(MultipleRoot):
        relativistic_type(FAM3, p, 1.0)


def test_relativistic_type_with_pair():
    gj = jacobi_coordinates(FAM3, PAIR_POINT)
    lam = gj.real_roots[0]
    t = relativistic_type(FAM3, PAIR_POINT, lam)
    assert t.kind == "0"


def test_decorated_center_and_vertex():
    out = decorated_coordinates(FAM3, [0.0, 0.0, 0.0])
    assert [(str(t), lam) for t, lam in out] == [
        ("E", pytest.approx(-2.0)),
        ("H^1", pytest.approx(3.0)),
        ("H^2", pytest.approx(5.0)),
    ]
    out = decorated_coordinates(FAM3, [math.sqrt(8.0), 0.0, 0.0])
    assert [(str(t), lam) for t, lam in out] == [
        ("E", pytest.approx(-3.0)),
        ("H^1", pytest.approx(-2.0)),
        ("H^2", pytest.approx(3.0)),
    ]


def test_not_decoratable():
    with pytest.raises(NotDecoratable):
        decorated_coordinates(FAM3, PAIR_POINT)
    with pytest.raises(NotDecoratable):
        decorated_coordinates(FAM3, tropic_point(FAM3, 0.0, 0.7, 1))


@pytest.mark.parametrize("lam0", [0.5, 1.5, 1.9])
def test_a_double_jacobi_coordinate_is_refused_by_every_reader(lam0):
    # on (1,1) (a, b) = (2, 1) the pencil equation is the quadratic
    # lam^2 + (x^2 - y^2 - a + b) lam + b x^2 + a y^2 - a b = 0, with the
    # double root lam0 where y^2 = x^2 + 2 lam0 - a + b and
    # x^2 = (a - lam0)^2 / (a + b).  _jacobi clusters its two roots into
    # one multiple coordinate, which every reader of the point refuses.
    # At lam0 = 1/2, x = (sqrt 0.75, sqrt 0.75), rounding split the root
    # into lam0 -+ 1.49e-8, which the readers used to read apart
    a, b = 2.0, 1.0
    x2 = (a - lam0) ** 2 / (a + b)
    x = [math.sqrt(x2), math.sqrt(x2 + 2.0 * lam0 - a + b)]
    gj = jacobi_coordinates(FAM2, x)
    assert gj.complex_pair is None and not gj.is_simple_real()
    assert gj.real_roots[0] == gj.real_roots[1] == pytest.approx(lam0, rel=1e-12)
    with pytest.raises(NotDecoratable, match="multiple coordinate"):
        decorated_coordinates(FAM2, x)
    for lam in (lam0, lam0 - 1.49e-8, lam0 + 1.49e-8):
        with pytest.raises(MultipleRoot):
            relativistic_type(FAM2, x, lam)
    with pytest.raises(NoSolution, match="x has a complex pair or a multiple Jacobi coordinate"):
        direction_with_caustics(FAM2, x, (2.0 / 3.0,))


def test_every_tropic_point_reads_a_double_coordinate():
    # lambda is a double Jacobi coordinate of every point of Sigma^+-;
    # rounding splits it into two real roots or a complex pair, with a
    # gap of order sqrt(u) (a_1 + a_d), which the rounding floor joins.
    # The draw is the benchmark's point queries': lambda at least 0.05
    # from the cusp edge, either sheet
    rng, done = np.random.default_rng(31), 0
    while done < 500:
        lam, t = rng.uniform(-1.9, 5.5), rng.uniform(0.0, 2.0 * math.pi)
        if abs(lam - cusp_edge_lambda(FAM3, t)) <= 0.05:
            continue
        done += 1
        p = tropic_point(FAM3, lam, t, int(rng.choice([-1, 1])))
        gj = jacobi_coordinates(FAM3, p)
        nearest = min(gj.real_roots, key=lambda r: abs(r - lam))
        assert gj.complex_pair is None and gj.real_roots.count(nearest) == 2
        assert nearest == pytest.approx(lam, abs=1e-9 * FAM3.scale)
        with pytest.raises(MultipleRoot):
            relativistic_type(FAM3, p, lam)
        with pytest.raises(NotDecoratable, match="multiple coordinate"):
            decorated_coordinates(FAM3, p)


def test_every_cusp_edge_point_reads_a_triple_coordinate():
    rng = np.random.default_rng(31)
    for _ in range(100):
        t = rng.uniform(0.0, 2.0 * math.pi)
        lam = cusp_edge_lambda(FAM3, t)
        p = tropic_point(FAM3, lam, t, int(rng.choice([-1, 1])))
        gj = jacobi_coordinates(FAM3, p)
        assert gj.complex_pair is None and len(set(gj.real_roots)) == 1
        assert gj.real_roots[0] == pytest.approx(lam, abs=1e-12 * FAM3.scale)
        with pytest.raises(MultipleRoot):
            relativistic_type(FAM3, p, lam)
        with pytest.raises(NotDecoratable, match="multiple coordinate"):
            decorated_coordinates(FAM3, p)


@pytest.mark.parametrize("lam0", [0.5, 1.5, 1.9])
def test_a_point_off_the_double_coordinate_set_is_decorated(lam0):
    # the double point of test_a_double_jacobi_coordinate_is_refused_by_every_reader
    # with y^2 less 1e-10: the discriminant grows by 4 (a - lam0) 1e-10, so
    # the roots split by about 2 sqrt((a - lam0) 1e-10) and the polynomial
    # reads (a - lam0) 1e-10 between them, 10^3 to 10^4 times its floor
    a, b = 2.0, 1.0
    x2 = (a - lam0) ** 2 / (a + b)
    x = [math.sqrt(x2), math.sqrt(x2 + 2.0 * lam0 - a + b - 1e-10)]
    gj = jacobi_coordinates(FAM2, x)
    assert gj.is_simple_real()
    half = math.sqrt((a - lam0) * 1e-10)
    assert gj.real_roots == pytest.approx([lam0 - half, lam0 + half], rel=1e-4)
    deco = decorated_coordinates(FAM2, x)
    assert [str(t) for t, _ in deco] == ["E", "H^1"]
    for t, lam in deco:
        assert relativistic_type(FAM2, x, lam) == t


def test_geometric_type_examples():
    assert geometric_type_3d(FAM3, -3.0) is GeomType3.ONE_SHEET_Z
    assert geometric_type_3d(FAM3, 1.0) is GeomType3.ELLIPSOID
    assert geometric_type_3d(FAM3, 4.0) is GeomType3.ONE_SHEET_Y
    assert geometric_type_3d(FAM3, 6.0) is GeomType3.TWO_SHEET
    assert geometric_type_3d(FAM3, 3.0) is GeomType3.DEGENERATE_PLANE
    assert geometric_type_3d(FAM3, -2.0) is GeomType3.DEGENERATE_PLANE


# ------------------------------------------------------------ tropic sheet


def test_tropic_point_examples():
    p = tropic_point(FAM3, 0.0, 0.0, 1)
    assert p == pytest.approx([5.0 / math.sqrt(7.0), 0.0, 2.0 / math.sqrt(7.0)])
    v1 = tropic_point(FAM3, 3.0, 0.0, 1)
    assert v1 == pytest.approx([2.0 / math.sqrt(7.0), 0.0, 5.0 / math.sqrt(7.0)], abs=1e-12)
    v4 = tropic_point(FAM3, 5.0, math.pi / 2, 1)
    assert v4 == pytest.approx([0.0, -2.0 / math.sqrt(5.0), 7.0 / math.sqrt(5.0)], abs=1e-12)
    with pytest.raises(ValueError):
        tropic_point(FAM3, 0.0, 0.0, 2)


def test_tropic_point_solves_quadric_and_cone():
    # every parameter pair lands on Q_lambda and on the light cone of its
    # gradient, including at pencil-degenerate lambda
    for lam in (-1.5, 0.0, 1.0, 2.5, 3.0, 4.0, 5.0):
        for t in (0.0, 0.4, 1.3, 2.2, 4.0):
            for sheet in (1, -1):
                p = tropic_point(FAM3, lam, t, sheet)
                a, b, c = 5.0, 3.0, 2.0
                if min(abs(lam - a), abs(lam - b), abs(lam + c)) > 1e-9:
                    q = p[0] ** 2 / (a - lam) + p[1] ** 2 / (b - lam) + p[2] ** 2 / (c + lam)
                    assert q == pytest.approx(1.0, abs=1e-10)
                    assert tropic_cone_residual(FAM3, lam, p) == pytest.approx(0.0, abs=1e-10)


def test_tropic_cone_residual_examples():
    assert tropic_cone_residual(FAM3, 0.0, [1.0, 0.0, 0.0]) == pytest.approx(1.0 / 25.0)
    assert tropic_cone_residual(FAM3, 0.0, [0.0, 0.0, 1.0]) == pytest.approx(-0.25)
    with pytest.raises(DegenerateParameter):
        tropic_cone_residual(FAM3, 3.0, [1.0, 1.0, 1.0])


def test_sheets_meet_at_collar():
    # at lambda = -c the z-component vanishes and both sheets land on the
    # ellipse x^2/(a+c) + y^2/(b+c) = 1
    for t in np.linspace(0.0, 2 * math.pi, 9):
        p_up = tropic_point(FAM3, -2.0, t, 1)
        p_dn = tropic_point(FAM3, -2.0, t, -1)
        assert p_up == pytest.approx(p_dn, abs=1e-12)
        assert p_up[2] == pytest.approx(0.0, abs=1e-12)
        assert p_up[0] ** 2 / 7.0 + p_up[1] ** 2 / 5.0 == pytest.approx(1.0, abs=1e-12)


def test_tropic_partials_match_finite_differences():
    h = 1e-6  # first derivatives: truncation h^2, roundoff ulp/h
    h2 = 1e-5  # second derivatives: roundoff ulp/h^2 forces a larger step
    for lam in (-1.0, 0.5, 2.0, 4.2):
        for t in (0.3, 1.1, 2.8, 5.0):
            r, r_lam, r_t, r_ll, r_lt, r_tt = tropic_partials(FAM3, lam, t, 1)
            assert r == pytest.approx(tropic_point(FAM3, lam, t, 1), abs=1e-14)
            fd_lam = (tropic_point(FAM3, lam + h, t, 1) - tropic_point(FAM3, lam - h, t, 1)) / (2 * h)
            fd_t = (tropic_point(FAM3, lam, t + h, 1) - tropic_point(FAM3, lam, t - h, 1)) / (2 * h)
            fd_ll = (
                tropic_point(FAM3, lam + h2, t, 1)
                - 2.0 * tropic_point(FAM3, lam, t, 1)
                + tropic_point(FAM3, lam - h2, t, 1)
            ) / (h2 * h2)
            fd_tt = (
                tropic_point(FAM3, lam, t + h2, 1)
                - 2.0 * tropic_point(FAM3, lam, t, 1)
                + tropic_point(FAM3, lam, t - h2, 1)
            ) / (h2 * h2)
            fd_lt = (
                tropic_point(FAM3, lam + h2, t + h2, 1)
                - tropic_point(FAM3, lam + h2, t - h2, 1)
                - tropic_point(FAM3, lam - h2, t + h2, 1)
                + tropic_point(FAM3, lam - h2, t - h2, 1)
            ) / (4 * h2 * h2)
            assert r_lam == pytest.approx(fd_lam, abs=1e-8)
            assert r_t == pytest.approx(fd_t, abs=1e-8)
            assert r_ll == pytest.approx(fd_ll, abs=1e-4)
            assert r_lt == pytest.approx(fd_lt, abs=1e-4)
            assert r_tt == pytest.approx(fd_tt, abs=1e-4)


def test_ruling_is_straight():
    # r_lamlam vanishes identically: lambda-curves are straight lines
    for lam in (-1.0, 1.0, 3.5):
        for t in (0.2, 1.7, 3.9):
            r_ll = tropic_partials(FAM3, lam, t, 1)[3]
            assert np.max(np.abs(r_ll)) <= 1e-14


def test_cusp_edge_examples():
    assert cusp_edge_lambda(FAM3, 0.0) == pytest.approx(3.0)
    assert cusp_edge_lambda(FAM3, math.pi / 2) == pytest.approx(5.0)
    assert cusp_edge_lambda(FAM3, math.pi / 4) == pytest.approx(4.0)
    # range is [b, a]
    for t in np.linspace(0, 2 * math.pi, 33):
        assert 3.0 - 1e-12 <= cusp_edge_lambda(FAM3, t) <= 5.0 + 1e-12


def test_tangent_norm_examples():
    assert tropic_tangent_norm_sq(FAM3, 0.0, 0.0) == pytest.approx(1.8)
    assert tropic_tangent_norm_sq(FAM3, 4.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)
    # below the cusp band the t-curves never degenerate
    for lam in (-1.9, 0.0, 2.9):
        for t in np.linspace(0, 2 * math.pi, 17):
            assert tropic_tangent_norm_sq(FAM3, lam, t) > 0.0
    # inside the band (b, a) the norm vanishes exactly where the cusp-edge
    # relation holds: four meridians for lambda = 4
    zeros = [t for t in (math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4)]
    for t in zeros:
        assert cusp_edge_lambda(FAM3, t) == pytest.approx(4.0, abs=1e-12)
        assert tropic_tangent_norm_sq(FAM3, 4.0, t) <= 1e-20
    for t in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        assert tropic_tangent_norm_sq(FAM3, 4.0, t) > 0.05


def test_surface_normal_is_lightlike():
    for lam in (-1.0, 0.0, 2.0):
        for t in (0.0, math.pi / 3, 2.1):
            n = tropic_surface_normal(FAM3, lam, t, 1)
            assert line_type(n, FAM3.sig) is LineType.LIGHT_LIKE
            assert abs(sq_norm(n, FAM3.sig)) <= 1e-10 * float(np.dot(n, n))


def test_surface_normal_cusp_guard():
    with pytest.raises(CuspPoint):
        tropic_surface_normal(FAM3, 4.0, math.pi / 4, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1.0"])
@pytest.mark.parametrize("call", [
    lambda bad: tropic_point(FAM3, bad, 0.3, 1),
    lambda bad: tropic_point(FAM3, 1.0, bad, 1),
    lambda bad: tropic_partials(FAM3, bad, 0.3, -1),
    lambda bad: tropic_partials(FAM3, 1.0, bad, -1),
    lambda bad: tropic_surface_normal(FAM3, bad, 0.3, 1),
    lambda bad: cusp_edge_lambda(FAM3, bad),
    lambda bad: tropic_tangent_norm_sq(FAM3, bad, 0.3),
    lambda bad: tropic_tangent_norm_sq(FAM3, 1.0, bad),
    lambda bad: relativistic_conic_classify(FAM2, MDistance(bad, False)),
    lambda bad: relativistic_conic_classify(FAM2, MDistance(bad, True)),
    lambda bad: closure_test(trace(FAM2, [0.1, 0.2], [1.0, 0.3], 4), bad),
    lambda bad: poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=1, tol=bad),
    lambda bad: ConfocalFamily(Signature(1, 1), (bad, 1.0)),
    lambda bad: rectangle_ratio(1.0, bad),
    lambda bad: lightlike_period(bad, 1.0),
    lambda bad: numerical_rank(np.eye(2), scale=bad),
], ids=["point-lam", "point-t", "partials-lam", "partials-t", "normal-lam", "cusp-t",
        "norm-lam", "norm-t", "conic-real", "conic-imaginary", "closure-tol", "poncelet-tol",
        "family-axis", "rectangle-axis", "lightlike-axis", "rank-scale"])
def test_scalar_inputs_must_be_finite(call, bad):
    # these returned nan, raised "math domain error" or a TypeError,
    # classified a host lambda of nan or -inf, read True as 1, or (a nan
    # rank scale) answered 0; the tolerance and axis doors said "finite"
    # of nan and inf already
    with pytest.raises(ValueError, match="must be finite"):
        call(bad)


LAMBDA_CALLS = {
    "type": lambda lam: relativistic_type(FAM3, [1.0, 1.0, 0.5], lam),
    "geometric": lambda lam: geometric_type_3d(FAM3, lam),
    "cone": lambda lam: tropic_cone_residual(FAM3, lam, [0.1, 0.2, 0.3]),
    "focal": lambda lam: focal_residual(FAM2, lam, [1.0, 0.0]),
}


@pytest.mark.parametrize("bad", [True, False, "x", "1.0", None])
@pytest.mark.parametrize("call", LAMBDA_CALLS)
def test_lambda_must_be_a_number(call, bad):
    # these raised TypeError, "could not convert string to float", or read
    # True as 1 ("ellipsoid", a cone residual of 0.2014)
    with pytest.raises(ValueError, match="lambda must be a real number"):
        LAMBDA_CALLS[call](bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, error", [
    ("type", ValueError), ("geometric", DegenerateParameter), ("cone", DegenerateParameter),
    ("focal", DegenerateParameter)])
def test_nonfinite_lambda_keeps_its_rule(call, error, bad):
    with pytest.raises(error, match="Jacobi coordinate|lambda must be finite|degenerate"):
        LAMBDA_CALLS[call](bad)


# ----------------------------------------------------------- planar conics


def test_conic_classify_real_small():
    cls = relativistic_conic_classify(FAM2, MDistance(1.0, False))
    assert cls.host_lambda == pytest.approx(1.0)
    assert cls.host_kind == "ellipse"
    assert cls.ellipse_arcs == 2 and cls.ellipse_arcs_finite
    assert cls.ellipse_meets_y_axis
    assert cls.hyperbola_arcs == 2 and cls.hyperbola_arcs_finite


def test_conic_classify_real_large():
    cls = relativistic_conic_classify(FAM2, MDistance(2.0, False))
    assert cls.host_lambda == pytest.approx(-2.0)
    assert cls.host_kind == "hyperbola-x"
    assert cls.ellipse_arcs == 2 and cls.ellipse_arcs_finite
    assert not cls.ellipse_meets_y_axis
    assert cls.hyperbola_arcs == 4 and not cls.hyperbola_arcs_finite


def test_conic_classify_imaginary():
    cls = relativistic_conic_classify(FAM2, MDistance(1.0, True))
    assert cls.host_lambda == pytest.approx(3.0)
    assert cls.host_kind == "hyperbola-y"
    assert cls.ellipse_arcs == 4 and not cls.ellipse_arcs_finite
    assert cls.hyperbola_arcs == 2 and cls.hyperbola_arcs_finite


def test_conic_classify_boundary():
    with pytest.raises(BoundaryCase):
        relativistic_conic_classify(FAM2, MDistance(math.sqrt(3.0), False))
    with pytest.raises(ValueError):
        relativistic_conic_classify(FAM2, MDistance(0.0, False))


def test_focal_residual_ellipse_member():
    out = focal_residual(FAM2, 0.0, [math.sqrt(2.0), 0.0])
    assert out.x_pair == pytest.approx(0.0, abs=1e-12)
    assert out.y_pair == pytest.approx(0.0, abs=1e-12)
    assert out.kind_ok
    out = focal_residual(FAM2, 0.0, [0.0, 1.0])
    assert out.x_pair == pytest.approx(0.0, abs=1e-12)
    assert out.y_pair == pytest.approx(0.0, abs=1e-12)
    assert out.kind_ok


def test_focal_residual_low_branch():
    out = focal_residual(FAM2, -2.0, [2.0, 0.0])
    assert out.x_pair == pytest.approx(0.0, abs=1e-12)
    assert out.y_pair == pytest.approx(0.0, abs=1e-12)
    assert out.kind_ok


def test_focal_residual_high_branch():
    out = focal_residual(FAM2, 3.0, [0.0, 2.0])
    assert out.x_pair == pytest.approx(0.0, abs=1e-12)
    assert out.y_pair == pytest.approx(0.0, abs=1e-12)
    assert out.kind_ok


def test_focal_residual_random_points_on_members():
    rng = np.random.default_rng(41)
    a, b = 2.0, 1.0
    for lam in (-0.5, 0.5, -3.0, 4.0):
        for _ in range(10):
            t = rng.uniform(0, 2 * math.pi)
            if -b < lam < a:
                x = [math.sqrt(a - lam) * math.cos(t), math.sqrt(b + lam) * math.sin(t)]
            elif lam < -b:
                u = rng.uniform(-2, 2)
                x = [math.sqrt(a - lam) * math.cosh(u), math.sqrt(-b - lam) * math.sinh(u)]
            else:
                u = rng.uniform(-2, 2)
                x = [math.sqrt(lam - a) * math.sinh(u), math.sqrt(b + lam) * math.cosh(u)]
            out = focal_residual(FAM2, lam, x)
            assert out.x_pair <= 1e-8
            assert out.y_pair <= 1e-8
            assert out.kind_ok


def test_focal_residual_guards():
    with pytest.raises(PointNotOnConic):
        focal_residual(FAM2, 0.0, [1.0, 1.0])
    with pytest.raises(DegenerateParameter):
        focal_residual(FAM2, 2.0, [1.0, 1.0])

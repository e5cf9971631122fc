"""Confocal pencils: coordinates, caustics, integrals, interlacing.

The generalized Jacobi coordinates and the caustic parameters are checked
against two independent oracles built here from first principles:

* ``pencil_roots_oracle`` bisects the rational pencil equation
  sum x_i^2/(a_i - eps_i lambda) = 1 directly between its poles, never
  touching the polynomial route used by the library.
* ``tangency_roots_oracle`` bisects the discriminant of the quadratic
  (in the line parameter) obtained by substituting x + t v into the
  pencil member, i.e. the textbook tangency condition.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbl.confocal import (
    INF,
    CausticSet,
    ConfocalFamily,
    Line,
    caustics,
    evaluate_quadric,
    integrals_F,
    interlacing_checks,
    interlacing_report,
    jacobi_coordinates,
    jacobi_polynomial,
    tangency_polynomial,
    trajectory_type_from_caustics,
)
from pbl._poly import linear_product
from pbl.billiard import line_quadric_intersections, random_boundary_point
from pbl.errors import AmbiguousSign, DegenerateParameter, NoIntersection
from pbl.metric import LineType, Signature, dot, sq_norm

FAM3 = ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0))
FAM2 = ConfocalFamily(Signature(1, 1), (2.0, 1.0))


def rand_family(rng, k: int, l: int) -> ConfocalFamily:
    """Random family with well-separated signed axes."""
    while True:
        vals = np.sort(rng.uniform(0.5, 6.0, k + l))
        if np.min(np.diff(vals)) < 0.1:
            continue
        pos = sorted(rng.choice(vals, k, replace=False), reverse=True)
        neg = sorted(v for v in vals if v not in pos)
        return ConfocalFamily(Signature(k, l), tuple(pos) + tuple(neg))


def interior_point(fam: ConfocalFamily, rng) -> np.ndarray:
    while True:
        x = rng.uniform(-1.0, 1.0, fam.d) * np.sqrt(fam.axes_f)
        if evaluate_quadric(fam, 0.0, x) < -0.05:
            return x


# ------------------------------------------------------------------ oracles


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _scan_roots(f, windows, samples: int = 4000) -> list:
    roots = []
    for lo, hi in windows:
        xs = np.linspace(lo, hi, samples)
        prev = f(xs[0])
        for i in range(1, samples):
            cur = f(xs[i])
            if np.isfinite(prev) and np.isfinite(cur) and prev * cur < 0.0:
                roots.append(_bisect(f, xs[i - 1], xs[i]))
            prev = cur
    return sorted(roots)


def _pole_windows(fam: ConfocalFamily, width: float, margin: float = 1e-7) -> list:
    poles = sorted(fam.signed_axes)
    cuts = [-width] + list(poles) + [width]
    return [
        (cuts[i] + margin, cuts[i + 1] - margin)
        for i in range(len(cuts) - 1)
        if cuts[i + 1] - cuts[i] > 2 * margin
    ]


def pencil_roots_oracle(fam: ConfocalFamily, x) -> list:
    """Real pencil parameters through x by direct sign scanning."""
    xv = np.asarray(x, dtype=float)

    def f(lam: float) -> float:
        den = fam.axes_f - fam.eps * lam
        return float(np.sum(xv * xv / den) - 1.0)

    return _scan_roots(f, _pole_windows(fam, 40.0 * fam.scale))


def tangency_roots_oracle(fam: ConfocalFamily, x, v) -> list:
    """Caustic parameters of the line x + t v by scanning the discriminant."""
    xv = np.asarray(x, dtype=float)
    vv = np.asarray(v, dtype=float)

    def disc(lam: float) -> float:
        den = fam.axes_f - fam.eps * lam
        qa = float(np.sum(vv * vv / den))
        qb = float(np.sum(xv * vv / den))
        qc = float(np.sum(xv * xv / den) - 1.0)
        return qb * qb - qa * qc

    return _scan_roots(disc, _pole_windows(fam, 60.0 * fam.scale))


# ----------------------------------------------------------- family basics


def test_family_validation():
    with pytest.raises(ValueError):
        ConfocalFamily(Signature(2, 1), (3.0, 5.0, 2.0))  # positive block order
    with pytest.raises(ValueError):
        ConfocalFamily(Signature(1, 2), (5.0, 3.0, 2.0))  # negative block order
    with pytest.raises(ValueError):
        ConfocalFamily(Signature(2, 1), (5.0, -3.0, 2.0))
    with pytest.raises(ValueError):
        ConfocalFamily(Signature(2, 1), (5.0, 3.0))


def test_signed_axes_decreasing():
    sa = FAM3.signed_axes
    assert list(sa) == [5.0, 3.0, -2.0]
    assert all(sa[i] > sa[i + 1] for i in range(len(sa) - 1))


def test_family_arrays_built_once_and_read_only():
    for name in ("eps", "axes_f", "signed_axes", "cofactors", "pair_denominators"):
        arr = getattr(FAM3, name)
        assert getattr(FAM3, name) is arr
        with pytest.raises(ValueError):
            arr[0] = 7.0
    with pytest.raises(ValueError):
        FAM3.sig.eps[0] = 7.0
    assert list(FAM3.signed_axes) == [5.0, 3.0, -2.0]
    a, eps = FAM3.axes_f, FAM3.eps
    for i in range(FAM3.d):
        others = [j for j in range(FAM3.d) if j != i]
        assert list(FAM3.cofactors[i]) == linear_product(a[others], -eps[others])


def test_degenerate_parameters():
    assert FAM3.is_degenerate_parameter(3.0)
    assert FAM3.is_degenerate_parameter(-2.0)
    assert FAM3.is_degenerate_parameter(INF)
    assert not FAM3.is_degenerate_parameter(1.0)
    # both rules work elementwise and agree with the scalar calls
    tol = 1e-12 * FAM3.scale
    lams = np.array([[5.0, 3.0 + 0.5 * tol, -2.0 - 2 * tol, INF],
                     [math.nan, 0.0, 0.5 * tol, -2 * tol]])
    degenerate = FAM3.is_degenerate_parameter(lams)
    zero = FAM3.is_zero_caustic(lams)
    assert degenerate.tolist() == [[True, True, False, True], [True, False, False, False]]
    assert zero.tolist() == [[False, False, False, False], [False, True, True, False]]
    for lam, deg, z in zip(lams.ravel(), degenerate.ravel(), zero.ravel()):
        assert FAM3.is_degenerate_parameter(lam) == deg
        assert FAM3.is_zero_caustic(lam) == z


def test_evaluate_quadric_examples():
    assert evaluate_quadric(FAM3, 0.0, [math.sqrt(5.0), 0.0, 0.0]) == pytest.approx(0.0)
    assert evaluate_quadric(FAM3, 0.0, [0.0, 0.0, 0.0]) == pytest.approx(-1.0)
    assert evaluate_quadric(FAM3, 1.0, [2.0, 0.0, 0.0]) == pytest.approx(0.0)
    with pytest.raises(DegenerateParameter):
        evaluate_quadric(FAM3, 3.0, [1.0, 1.0, 1.0])


# ------------------------------------------------------ jacobi coordinates


def test_jacobi_center_and_vertex():
    gj = jacobi_coordinates(FAM3, [0.0, 0.0, 0.0])
    assert gj.complex_pair is None
    assert gj.real_roots == pytest.approx([-2.0, 3.0, 5.0])
    gj = jacobi_coordinates(FAM3, [math.sqrt(8.0), 0.0, 0.0])
    assert gj.real_roots == pytest.approx([-3.0, -2.0, 3.0])


def test_jacobi_interior_frozen():
    gj = jacobi_coordinates(FAM3, [1.0, 1.0, 0.5])
    assert gj.complex_pair is None
    assert gj.real_roots == pytest.approx(
        [-1.6040400557713215, 1.4514416646338832, 4.402598391137438], abs=1e-10
    )
    band = list(zip([-2.0, 0.0, 3.0], [0.0, 3.0, 5.0]))
    for r, (lo, hi) in zip(gj.real_roots, band):
        assert lo < r < hi


def test_jacobi_complex_pair_frozen():
    x = [1.0007637328373358, 3.177710407756604, 2.205485521961548]
    gj = jacobi_coordinates(FAM3, x)
    assert gj.complex_pair is not None
    assert len(gj.real_roots) == FAM3.d - 2
    assert gj.count == FAM3.d
    re, im = gj.complex_pair
    assert im > 0
    # the conjugate pair satisfies the pencil equation of degree d
    pc = jacobi_polynomial(FAM3, x)
    z = complex(re, im)
    val = sum(c * z**i for i, c in enumerate(pc))
    assert abs(val) <= 1e-7 * max(abs(c) for c in pc)


def test_jacobi_matches_pencil_oracle():
    rng = np.random.default_rng(11)
    for k, l in [(2, 1), (1, 2), (1, 1), (2, 2)]:
        fam = rand_family(rng, k, l)
        for _ in range(12):
            x = interior_point(fam, rng)
            gj = jacobi_coordinates(fam, x)
            oracle = pencil_roots_oracle(fam, x)
            assert gj.complex_pair is None
            assert len(oracle) == fam.d
            assert gj.real_roots == pytest.approx(oracle, abs=1e-7 * fam.scale)


def test_jacobi_polynomial_vanishes_on_coordinates():
    rng = np.random.default_rng(3)
    fam = FAM3
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 3)
        pc = jacobi_polynomial(fam, x)
        for r in jacobi_coordinates(fam, x).real_roots:
            val = sum(c * r**i for i, c in enumerate(pc))
            assert abs(val) <= 1e-6 * max(abs(c) for c in pc)


def test_interior_band_count():
    # interior points carry exactly two coordinates in (-a_{k+1}, a_k),
    # one negative and one positive
    rng = np.random.default_rng(5)
    for k, l in [(2, 1), (1, 2), (2, 2)]:
        fam = rand_family(rng, k, l)
        lo, hi = -fam.axes_f[fam.k], fam.axes_f[fam.k - 1]
        for _ in range(25):
            x = interior_point(fam, rng)
            gj = jacobi_coordinates(fam, x)
            roots = [r for r in gj.real_roots]
            if any(min(abs(r - lo), abs(r - hi), abs(r)) < 1e-6 for r in roots):
                continue
            inside = [r for r in roots if lo < r < hi]
            assert len(inside) == 2
            assert sum(1 for r in inside if r < 0) == 1
            assert sum(1 for r in inside if r > 0) == 1


# ------------------------------------------------------------- integrals


def test_integrals_sum_is_invariant_norm():
    rng = np.random.default_rng(7)
    for k, l in [(2, 1), (1, 2), (2, 2), (1, 1)]:
        fam = rand_family(rng, k, l)
        for _ in range(10):
            x = rng.uniform(-2, 2, fam.d)
            v = rng.uniform(-2, 2, fam.d)
            F = integrals_F(fam, x, v)
            assert float(np.sum(F)) == pytest.approx(sq_norm(v, fam.sig), abs=1e-9)


def integrals_reference(fam, x, v):
    """F_i term by term: eps_i v_i^2 first, then j ascending, j != i."""
    eps, a, d = fam.eps, fam.axes_f, fam.d
    out = np.empty(d)
    for i in range(d):
        s = eps[i] * (v[i] * v[i])
        for j in range(d):
            if j != i:
                c = x[i] * v[j] - x[j] * v[i]
                s += c * c / (eps[j] * a[i] - eps[i] * a[j])
        out[i] = s
    return out


def test_integrals_stack_matches_rows():
    rng = np.random.default_rng(11)
    for k, l in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        fam = rand_family(rng, k, l)
        X = rng.uniform(-2, 2, (40, fam.d)) * np.exp(rng.normal(size=(40, 1)))
        V = rng.uniform(-2, 2, (40, fam.d))
        X[::5, 0] = 0.0
        F = integrals_F(fam, X, V)
        assert F.shape == X.shape
        for x, v, row in zip(X, V, F):
            assert np.array_equal(row, integrals_F(fam, x, v))
            assert np.array_equal(row, integrals_reference(fam, x, v))
        assert np.array_equal(integrals_F(fam, X.reshape(8, 5, -1), V.reshape(8, 5, -1)),
                              F.reshape(8, 5, -1))


def test_integrals_reject_mismatched_shapes():
    x = np.zeros((4, 3))
    assert integrals_F(FAM3, x, np.ones((4, 3))).shape == (4, 3)
    for v in (np.ones(3), np.ones((5, 3)), np.ones((4, 2))):
        with pytest.raises(ValueError):
            integrals_F(FAM3, x, v)
    with pytest.raises(ValueError):
        integrals_F(FAM3, [0.0, 1.0], [1.0, 0.0])


def test_integrals_examples():
    F = integrals_F(FAM3, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert F == pytest.approx([1.0, 0.0, 0.0])
    F = integrals_F(FAM3, [math.sqrt(5.0), 0.0, 0.0], [-1.0, 1.0, 0.0])
    assert F == pytest.approx([3.5, -1.5, 0.0])


def test_integrals_invariant_along_line():
    rng = np.random.default_rng(9)
    fam = FAM3
    x = rng.uniform(-1, 1, 3)
    v = rng.uniform(-1, 1, 3)
    F0 = integrals_F(fam, x, v)
    for t in (0.5, -1.0, 2.5):
        Ft = integrals_F(fam, x + t * v, v)
        assert Ft == pytest.approx(F0, abs=1e-9)


# -------------------------------------------------------------- caustics


def test_tangency_polynomial_leading_coefficient():
    rng = np.random.default_rng(13)
    for k, l in [(2, 1), (1, 2), (2, 2)]:
        fam = rand_family(rng, k, l)
        for _ in range(10):
            x = rng.uniform(-2, 2, fam.d)
            v = rng.uniform(-2, 2, fam.d)
            pc = tangency_polynomial(fam, x, v)
            assert len(pc) == fam.d
            assert pc[-1] == pytest.approx(sq_norm(v, fam.sig), abs=1e-9)


def test_discriminant_identity():
    # P(lambda) = (-1)^(k+1) D(lambda) prod_i (a_i - eps_i lambda), where D
    # is the tangency discriminant of the substituted line
    rng = np.random.default_rng(17)
    for k, l in [(2, 1), (1, 2), (2, 2), (1, 1), (3, 1)]:
        fam = rand_family(rng, k, l)
        sign = (-1.0) ** (k + 1)
        for _ in range(20):
            x = rng.uniform(-2, 2, fam.d)
            v = rng.uniform(-2, 2, fam.d)
            lam = rng.uniform(-8.0, 8.0)
            den = fam.axes_f - fam.eps * lam
            if np.min(np.abs(den)) < 0.1:
                continue
            D = float(np.sum(x * v / den)) ** 2 - float(np.sum(v * v / den)) * (
                float(np.sum(x * x / den)) - 1.0
            )
            pc = tangency_polynomial(fam, x, v)
            P = sum(c * lam**i for i, c in enumerate(pc))
            rhs = sign * D * float(np.prod(den))
            assert P == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_caustics_planar_examples():
    cs = caustics(FAM2, Line((0.0, 0.5), (1.0, 0.0)))
    assert cs.params == pytest.approx([-0.75])
    cs = caustics(FAM2, Line((0.0, 0.0), (1.0, 1.0)))
    assert cs.has_infinite and cs.finite == ()
    with pytest.raises(NoIntersection):
        caustics(FAM2, Line((10.0, 10.0), (0.0, 1.0)))


def test_caustics_of_lines_tangent_to_the_table():
    # a line that touches Q_0 at its base point meets it: caustics returns,
    # with one zero caustic, and the chord quadratic has one (double) root
    rng = np.random.default_rng(29)
    for fam in (FAM3, FAM2):
        for _ in range(1000):
            p = random_boundary_point(fam, rng)
            g = p / fam.axes_f
            u = rng.normal(size=fam.d)
            line = Line(p, u - (u @ g) / (g @ g) * g)
            cs = caustics(fam, line)
            assert np.count_nonzero(np.abs(cs.finite) <= 1e-12 * fam.scale) == 1
            assert len(line_quadric_intersections(fam, 0.0, line)) == 1


def test_caustics_chord_frozen():
    cs = caustics(FAM3, Line((0.1, 0.1, 0.1), (1.0, 0.2, 0.3)))
    assert cs.params == pytest.approx(
        [-2.6489572230170335, 3.068536170385456], abs=1e-9
    )


def test_caustics_match_tangency_oracle():
    rng = np.random.default_rng(19)
    for k, l in [(2, 1), (1, 2), (2, 2), (1, 3), (3, 1)]:
        fam = rand_family(rng, k, l)
        done = 0
        while done < 12:
            x = interior_point(fam, rng)
            v = rng.uniform(-1, 1, fam.d)
            if done >= 8:
                # directions parallel, or nearly so, to a coordinate hyperplane
                v[rng.integers(fam.d)] *= 0.0 if done % 2 else 1e-12
            if abs(sq_norm(v, fam.sig)) < 0.05 * float(np.dot(v, v)):
                continue  # keep all caustics finite and well inside the window
            cs = caustics(fam, Line(x, v))
            oracle = tangency_roots_oracle(fam, x, v)
            assert not cs.has_infinite
            assert len(cs.params) == fam.d - 1
            for value in cs.params:
                assert min(abs(value - r) for r in oracle) <= 1e-12 * fam.scale
            done += 1


def test_caustics_lightlike_count():
    rng = np.random.default_rng(23)
    fam = FAM3
    done = 0
    while done < 6:
        x = interior_point(fam, rng)
        u = rng.uniform(-1, 1, 2)
        v = np.array([u[0], u[1], math.hypot(u[0], u[1])])  # light-like in (2,1)
        cs = caustics(fam, Line(x, v))
        assert cs.has_infinite
        assert len(cs.params) == fam.d - 1
        assert len(cs.finite) == fam.d - 2
        done += 1


def test_caustic_set_ordering():
    cs = CausticSet((INF, 3.0, -1.0))
    assert cs.params == (-1.0, 3.0, INF)
    assert cs.finite == (-1.0, 3.0)
    assert cs.has_infinite


# ------------------------------------------------- type from caustic signs


def test_type_rule_examples():
    assert (
        trajectory_type_from_caustics(FAM3, CausticSet((-2.6489572230170335, 3.068536170385456)))
        is LineType.SPACE_LIKE
    )
    assert trajectory_type_from_caustics(FAM2, CausticSet((-0.75,))) is LineType.SPACE_LIKE
    assert trajectory_type_from_caustics(FAM2, CausticSet((INF,))) is LineType.LIGHT_LIKE
    with pytest.raises(AmbiguousSign):
        trajectory_type_from_caustics(FAM2, CausticSet((0.0,)))


def test_type_rule_matches_direction():
    rng = np.random.default_rng(29)
    for k, l in [(2, 1), (1, 2)]:
        fam = rand_family(rng, k, l)
        done = 0
        while done < 20:
            x = interior_point(fam, rng)
            v = rng.uniform(-1, 1, fam.d)
            if abs(sq_norm(v, fam.sig)) < 1e-3 * float(np.dot(v, v)):
                continue
            cs = caustics(fam, Line(x, v))
            if any(abs(c) < 1e-9 for c in cs.finite):
                continue
            expected = LineType.SPACE_LIKE if sq_norm(v, fam.sig) > 0 else LineType.TIME_LIKE
            assert trajectory_type_from_caustics(fam, cs) is expected
            done += 1


# ------------------------------------------------------------ interlacing


def test_interlacing_spacelike_anchor():
    rep = interlacing_report(FAM3, Line((0.1, 0.1, 0.1), (1.0, 0.2, 0.3)))
    assert rep.line_type is LineType.SPACE_LIKE
    assert rep.passed
    # p = 2k - 1 merged positive values, anchored at a_1
    assert len(rep.b) == 2 * FAM3.k - 1
    assert rep.b[-1] == pytest.approx(FAM3.axes_f[0])
    assert len(rep.c) == 2 * FAM3.l


def test_interlacing_lightlike_anchor():
    rep = interlacing_report(FAM3, Line((0.1, 0.2, 0.0), (1.0, 0.0, 1.0)))
    assert rep.line_type is LineType.LIGHT_LIKE
    assert rep.passed
    assert rep.b[-1] == INF
    assert rep.b[-2] == pytest.approx(FAM3.axes_f[0])


def test_interlacing_checks_hand_cases():
    # caustic sets placed by hand between the signed axes; c runs from 0
    # outward, and caustic i of a side belongs at position 2i - 1 or 2i
    fam12 = ConfocalFamily(Signature(1, 2), (5.0, 2.0, 3.0))  # poles 5 | -2, -3
    fam22 = ConfocalFamily(Signature(2, 2), (5.0, 3.0, 2.0, 4.0))  # poles 5, 3 | -2, -4
    S, T, L = LineType.SPACE_LIKE, LineType.TIME_LIKE, LineType.LIGHT_LIKE
    ok = dict(count_p=True, count_q=True, anchor=True, positive_pairs=True,
              negative_pairs=True)
    cases = [
        # family, caustics, type, checks, c, positive and negative positions
        (fam12, (-1.0, -2.5), S, ok, (-1.0, -2.0, -2.5, -3.0), (), (1, 3)),
        (fam12, (-2.5, -4.0), S, ok, (-2.0, -2.5, -3.0, -4.0), (), (2, 4)),
        (fam12, (-1.0, -1.5), S, dict(ok, negative_pairs=False),
         (-1.0, -1.5, -2.0, -3.0), (), (1, 2)),
        (fam12, (1.0, -2.5), T, ok, (-2.0, -2.5, -3.0), (1,), (2,)),
        (fam12, (-1.0, INF), L, ok, (-1.0, -2.0, -3.0), (), (1,)),
        (fam22, (1.0, -1.0, -3.0), S, ok, (-1.0, -2.0, -3.0, -4.0), (1,), (1, 3)),
        (fam22, (3.0, -1.0, -3.0), S, ok, (-1.0, -2.0, -3.0, -4.0), (1,), (1, 3)),
        (fam22, (1.0, 4.0, -3.0), T, ok, (-2.0, -3.0, -4.0), (1, 3), (2,)),
        (fam22, (1.0, 2.0, -3.0), T, dict(ok, positive_pairs=False),
         (-2.0, -3.0, -4.0), (1, 2), (2,)),
        (fam22, (4.0, -3.0, INF), L, ok, (-2.0, -3.0, -4.0), (2,), (2,)),
        (fam22, (1.0, 4.0, -3.0), S, dict.fromkeys(ok, False), (-2.0, -3.0, -4.0), (), ()),
    ]
    for fam, params, ltype, checks, c, pos, neg in cases:
        got_checks, _, got_c, got_pos, got_neg = interlacing_checks(fam, params, ltype)
        assert (got_checks, got_c, got_pos, got_neg) == (checks, c, pos, neg), (params, ltype)


def test_interlacing_random_chords():
    rng = np.random.default_rng(31)
    for k, l in [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        fam = rand_family(rng, k, l)
        done = 0
        while done < 15:
            x = interior_point(fam, rng)
            v = rng.uniform(-1, 1, fam.d)
            rep = interlacing_report(fam, Line(x, v))
            assert rep.passed, (fam.sig, rep.checks)
            done += 1

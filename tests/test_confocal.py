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

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from pbl.confocal import (
    DEGENERATE_TOL,
    INF,
    CausticSet,
    ConfocalFamily,
    InterlacingReport,
    Line,
    _tangency_coefficients,
    caustics,
    chord_discriminant,
    evaluate_quadric,
    integrals_F,
    interlacing_checks,
    interlacing_report,
    jacobi_coordinates,
    jacobi_polynomial,
    tangency_polynomial,
    trajectory_type_from_caustics,
)
from pbl._poly import companion_roots, linear_product, newton_polish
from pbl.billiard import line_quadric_intersections, random_boundary_point
from pbl.errors import (
    AmbiguousSign,
    DegenerateConfiguration,
    DegenerateParameter,
    NoIntersection,
    RootIsolationError,
)
from pbl.metric import LineType, Signature, line_type, sq_norm

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
    """Each sign change of f between neighbours of ``samples`` evenly spaced
    points per window, bisected; f takes one point or an array of them, and
    each window is scanned in one array call."""
    roots = []
    for lo, hi in windows:
        xs = np.linspace(lo, hi, samples)
        vals = f(xs)
        change = np.isfinite(vals[:-1]) & np.isfinite(vals[1:]) & (vals[:-1] * vals[1:] < 0.0)
        roots.extend(_bisect(f, a, b) for a, b in zip(xs[:-1][change].tolist(), xs[1:][change].tolist()))
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

    def f(lam):
        den = fam.axes_f - fam.eps * np.asarray(lam)[..., None]
        return np.sum(xv * xv / den, axis=-1) - 1.0

    return _scan_roots(f, _pole_windows(fam, 40.0 * fam.scale))


def tangency_roots_oracle(fam: ConfocalFamily, x, v) -> list:
    """Caustic parameters of the line x + t v by scanning the discriminant."""
    xv = np.asarray(x, dtype=float)
    vv = np.asarray(v, dtype=float)

    def disc(lam):
        den = fam.axes_f - fam.eps * np.asarray(lam)[..., None]
        qa = np.sum(vv * vv / den, axis=-1)
        qb = np.sum(xv * vv / den, axis=-1)
        qc = np.sum(xv * xv / den, axis=-1) - 1.0
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
    # nan fails every comparison, so only a test for finite and positive
    # values keeps it out
    for axes in ((5.0, 3.0, math.nan), (math.inf, 3.0, 2.0), (5.0, math.nan, 2.0),
                 (Fraction(5), Fraction(3), math.inf)):
        with pytest.raises(ValueError, match="finite and positive"):
            ConfocalFamily(Signature(2, 1), axes)


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


def test_pencil_product_cached_in_the_axes_number_type():
    rng = np.random.default_rng(3)
    for fam in (FAM3, FAM2, *(rand_family(rng, k, l) for k, l in ((2, 2), (1, 3), (3, 1)))):
        assert fam.pencil_product is fam.pencil_product
        got = np.array(fam.pencil_product, dtype=float)
        want = np.array(linear_product(fam.axes_f, -fam.eps), dtype=float)
        assert got.tobytes() == want.tobytes()
    a = (Fraction(7, 3), Fraction(5, 4), Fraction(1, 6))
    exact = ConfocalFamily(Signature(2, 1), a)
    # (a1 - t)(a2 - t)(a3 + t), expanded by hand
    want = (a[0] * a[1] * a[2], a[0] * a[1] - (a[0] + a[1]) * a[2],
            a[2] - a[0] - a[1], Fraction(1))
    assert exact.pencil_product == want
    assert all(isinstance(c, (int, Fraction)) for c in exact.pencil_product)


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

    # a Python float is answered with a Python bool, the same as its array entry
    assert FAM3.is_degenerate_parameter(3.0) is True and FAM3.is_zero_caustic(1.0) is False


def _edge_values(fam):
    """One ulp inside and outside, and on, each DEGENERATE_TOL (a_1 + a_d)
    edge of 0 and of every signed axis."""
    tol = DEGENERATE_TOL * fam.scale
    out = []
    for c in (0.0, *fam.signed_axes.tolist()):
        for s in (-1.0, 1.0):
            e = c + s * tol
            out += [float(np.nextafter(e, c)), e, float(np.nextafter(e, s * INF))]
    return out


def _array_rule(fam, finite) -> bool:
    """The caustic-value rule on numpy arrays: the elementwise rules and np.diff."""
    vals = np.array(finite, dtype=float)
    return bool((fam.is_zero_caustic(vals) | fam.is_degenerate_parameter(vals)).any()
                or (np.diff(vals) <= DEGENERATE_TOL * fam.scale).any())


def test_scalar_rules_match_the_array_rules_at_the_edges():
    for fam in (FAM3, FAM2):
        lams = np.array(_edge_values(fam) + [INF, -INF, math.nan, 1.5])
        degenerate = fam.is_degenerate_parameter(lams)
        zero = fam.is_zero_caustic(lams)
        assert degenerate.any() and not degenerate.all() and zero.any() and not zero.all()
        for lam, deg, z in zip(lams.tolist(), degenerate, zero):
            assert fam.is_degenerate_parameter(lam) is bool(deg)
            assert fam.is_zero_caustic(lam) is bool(z)


def test_check_caustic_values_raises_on_the_same_sets():
    # each caustic at the edges of the rules, and pairs whose gap lies a few
    # ulps on either side of the collision tolerance
    tol = DEGENERATE_TOL * FAM3.scale
    sets = [(v,) for v in _edge_values(FAM3)]
    sets += [(v, 1.0) if v < 1.0 else (1.0, v) for v in _edge_values(FAM3)]
    # just past the zero band, where an ulp of x is one of tol, one gap is tol exactly
    small = float(np.nextafter(tol, INF))
    for x in (1.0, -1.0, 4.0, small, float(np.nextafter(small, INF))):
        y = x + tol
        for ulps in range(-3, 4):
            z = y
            for _ in range(abs(ulps)):
                z = float(np.nextafter(z, math.copysign(INF, ulps)))
            sets.append((x, z))
    sets += [(), (1.0, 1.0), (-2.5, 2.5), (1.0, math.nan)]
    assert any(len(pair) == 2 and pair[1] - pair[0] == tol for pair in sets)
    raised = 0
    for finite in sets:
        if _array_rule(FAM3, finite):
            raised += 1
            with pytest.raises(DegenerateConfiguration):
                FAM3.check_caustic_values(finite)
        else:
            FAM3.check_caustic_values(finite)
    assert 0 < raised < len(sets)


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


def test_jacobi_rejects_a_point_that_rounding_loses():
    # at x_1 = 1e15 the coordinates are about -1e30, -2 and 3.  At 1e16 an
    # eigenvalue solve lost the two small ones (the polish took them to 0.0
    # and raised); the closed form divides the largest root out from the
    # constant end and keeps them.  The float polynomial's roots, to 60
    # digits: -100000000000000005366162204393473, -1.99999999999999992794
    # and 2.99999999999999992794, which round to the constants below.  Up
    # to x_1 = 1e153 the coordinates stay within 5e-16 of them; at 1e154 and
    # 1e160 the polynomial overflows, which used to raise numpy's LinAlgError
    gj = jacobi_coordinates(FAM3, [1e15, 1.0, 1.0])
    assert gj.real_roots == pytest.approx([-1e30, -2.0, 3.0], rel=1e-9)
    gj = jacobi_coordinates(FAM3, [1e16, 1.0, 1.0])
    assert gj.real_roots == pytest.approx([-1e32, -2.0, 3.0], rel=1e-15)
    assert gj.complex_pair is None and gj.is_simple_real()
    gj = jacobi_coordinates(FAM3, [1e153, 1.0, 1.0])
    assert gj.real_roots == pytest.approx([-1e306, -2.0, 3.0], rel=1e-15)
    for far in (1e154, 1e160):
        with pytest.raises(RootIsolationError, match="not finite"):
            jacobi_coordinates(FAM3, [far, 1.0, 1.0])


def test_jacobi_rejects_a_non_finite_companion_matrix():
    # d = 4 solves the Jacobi polynomial by eigenvalues; at x_1 = 1e160 its
    # coefficients overflow, the companion matrix is not finite and gives
    # nan roots, and the polish refuses the coefficients
    fam = ConfocalFamily(Signature(2, 2), (5.0, 3.0, 2.0, 4.0))
    assert not np.isfinite(companion_roots(jacobi_polynomial(fam, [1e160, 1.0, 1.0, 1.0]))).any()
    with pytest.raises(RootIsolationError, match="not finite"):
        jacobi_coordinates(fam, [1e160, 1.0, 1.0, 1.0])


def test_newton_polish_keeps_only_roots_with_a_small_backward_error():
    # (lam - 1)(lam - 2)(lam + 3), ascending: each start polishes alone
    coeffs = [6.0, -7.0, 0.0, 1.0]
    roots = newton_polish(coeffs, [0.999, 2.001, -3.001])
    assert roots == pytest.approx([1.0, 2.0, -3.0], abs=1e-12)
    assert roots == [newton_polish(coeffs, [z])[0] for z in (0.999, 2.001, -3.001)]
    assert newton_polish(coeffs, []) == []
    with pytest.raises(RootIsolationError, match="backward error"):
        newton_polish([1.0, 0.0, 1.0], [0.0])  # lam^2 + 1 has no real root
    for bad in (math.inf, math.nan):
        with pytest.raises(RootIsolationError, match="not finite"):
            newton_polish([1.0, bad, 1.0], [])


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


def _pinned_point(fam, rng, i: int) -> np.ndarray:
    """Seeded point i, by i % 5: inside Q_0, maybe outside it, on it, inside
    and next to a coordinate hyperplane (one x_i times 10^-k, k = 1..16),
    or far out, up to 1e160 times a point of Q_0."""
    u = rng.normal(size=fam.d)
    x = u / math.sqrt(float(np.sum(u * u / fam.axes_f)))  # on Q_0
    mode = i % 5
    if mode in (0, 3):
        x *= rng.uniform(0.0, 1.0)
        if mode == 3:
            x[rng.integers(fam.d)] *= 10.0 ** -rng.integers(1, 17)
    elif mode == 1:
        x *= rng.uniform(1.0, 4.0)
    elif mode == 4:
        x *= 10.0 ** rng.uniform(0.0, 160.0)
    return x


def test_jacobi_pinned_bit_for_bit():
    # the Jacobi coordinates and complex pair as float.hex, or the error
    # class and message, of 16,000 seeded points on four families, hashed.
    # Captured with the rule of two hand-set tolerances that the rounding
    # floor replaced (5e8d7d124870672c55062e5287b37e8bb87f39da), which
    # differs in one line: a far (2,2) point, x of about 1e85, whose three
    # small coordinates the eigenvalue solve loses as 0.0.  Newton takes
    # all three starts to one root, -3.119274561478563; that rule
    # clustered them and kept their mean, one ulp lower
    families = [((1, 1), (2.0, 1.0)), ((2, 1), (5.0, 3.0, 2.0)),
                ((1, 2), (5.0, 2.0, 3.0)), ((2, 2), (5.0, 3.0, 2.0, 4.0))]
    lines = []
    for j, (sig, axes) in enumerate(families):
        fam, rng = ConfocalFamily(Signature(*sig), axes), np.random.default_rng([31, j])
        for i in range(4000):
            x = _pinned_point(fam, rng, i)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    gj = jacobi_coordinates(fam, x)
                lines.append(" ".join(r.hex() for r in gj.real_roots + (gj.complex_pair or ())))
            except RootIsolationError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
    assert 500 < sum(":" in line for line in lines) < 2000
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "a315001ccc59ed737589bb7951e58c3c84fabc77"


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
    # a stack row and its line's Python floats agree bit for bit on the
    # first integrals, the chord discriminant and its scale, and the
    # tangency coefficients; row 1 is light-like, and X[::5, 0] = 0 gives -0.0
    # terms to the sums
    rng = np.random.default_rng(11)
    for k, l in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        fam = rand_family(rng, k, l)
        X = rng.uniform(-2, 2, (40, fam.d)) * np.exp(rng.normal(size=(40, 1)))
        V = rng.uniform(-2, 2, (40, fam.d))
        X[::5, 0] = 0.0
        V[1] = 0.0
        V[1, 0] = V[1, k] = 1.5
        F = integrals_F(fam, X, V)
        assert F.shape == X.shape
        disc, scale = chord_discriminant(fam.axes_f, X, V)
        pc = _tangency_coefficients(fam, F)
        for x, v, row, *rest in zip(X, V, F, disc, scale, pc):
            line = integrals_F(fam, x.tolist(), v.tolist())
            assert all(type(f) is float for f in line)
            assert np.array(line).tobytes() == row.tobytes()
            assert np.array_equal(row, integrals_F(fam, x, v))
            assert np.array_equal(row, integrals_reference(fam, x, v))
            single = (*chord_discriminant(fam.axes_f.tolist(), x.tolist(), v.tolist()),
                      tangency_polynomial(fam, x.tolist(), v.tolist()))
            assert [float(r).hex() for r in rest[:2]] == [s.hex() for s in single[:2]]
            assert np.array(single[2]).tobytes() == rest[2].tobytes()
        assert sq_norm(V[1], fam.sig) == 0.0
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


@pytest.mark.parametrize("fam, line", [(FAM3, Line([0.1], [1.0])),
                                       (FAM2, Line([0.1, 0.2, 0.1], [1.0, 0.4, -0.3]))])
def test_line_must_match_the_family_dimension(fam, line):
    # a 1-entry line would broadcast against the 3 axes and get answers
    for call in (lambda: line_quadric_intersections(fam, 0.0, line),
                 lambda: caustics(fam, line), lambda: interlacing_report(fam, line)):
        with pytest.raises(ValueError, match=rf"expected a {fam.d}-vector"):
            call()


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


def _pinned_line(fam, rng, i: int) -> tuple:
    """Seeded line i: space-, time- or light-like by i % 3, and by i // 3 % 6
    through an interior point, one near or on a coordinate hyperplane, a
    point of Q_0 along a tangent direction, a point maybe outside, or a far
    point on a line through the table (whose terms overflow)."""
    plus, minus = rng.normal(size=fam.k), rng.normal(size=fam.l)
    p, q = ((1.0, rng.uniform(0.0, 0.8)), (rng.uniform(0.0, 0.8), 1.0), (1.0, 1.0))[i % 3]
    v = np.concatenate([p * plus / np.linalg.norm(plus), q * minus / np.linalg.norm(minus)])
    u = rng.normal(size=fam.d)
    x = u / math.sqrt(float(np.sum(u * u / fam.axes_f)))  # on Q_0
    mode = i // 3 % 6
    if mode in (0, 1, 2):
        x *= rng.uniform(0.0, 1.0)
        if mode:
            x[rng.integers(fam.d)] *= 0.0 if mode == 2 else 10.0 ** -rng.integers(1, 17)
    elif mode == 3:
        g, w = x / fam.axes_f, rng.normal(size=fam.d)
        v = w - (w @ g) / (g @ g) * g
    elif mode == 4:
        x *= rng.uniform(1.0, 4.0)
    else:
        x = u * 10.0 ** rng.uniform(0.0, 200.0)
        v = -u + rng.normal(size=fam.d) * 10.0 ** -rng.uniform(0.0, 20.0)
    return x, v


def test_caustics_pinned_bit_for_bit():
    # the caustic sets as float.hex, or the error class and message, of 800
    # seeded lines on four families, hashed: the values of the numpy route
    # that the Python-float one replaced, which must repeat them exactly;
    # that route warned where the far lines overflow
    families = [((1, 1), (2.0, 1.0)), ((2, 1), (5.0, 3.0, 2.0)),
                ((1, 2), (5.0, 2.0, 3.0)), ((2, 2), (5.0, 3.0, 2.0, 4.0))]
    lines = []
    for j, (sig, axes) in enumerate(families):
        fam, rng = ConfocalFamily(Signature(*sig), axes), np.random.default_rng([29, j])
        for i in range(200):
            x, v = _pinned_line(fam, rng, i)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    lines.append(" ".join(p.hex() for p in caustics(fam, Line(x, v))))
            except (NoIntersection, RootIsolationError) as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
    assert sum(":" in line for line in lines) > 100
    assert sum(line.endswith("inf") for line in lines) > 100
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "019e10db9ef416ee686fe7491f3a8e698fd8b546"


def test_caustic_set_ordering():
    cs = CausticSet((INF, 3.0, -1.0))
    assert cs.params == (-1.0, 3.0, INF)
    assert cs.finite == (-1.0, 3.0)
    assert cs.has_infinite
    cs = CausticSet([Fraction(1, 3), -2.0])
    assert cs.params == (-2.0, Fraction(1, 3)) and cs.finite == cs.params
    assert not cs.has_infinite
    # +inf, at most once, is the only non-finite caustic
    for params in ((math.nan,), (-INF,), (INF, INF), (1.0, math.nan, INF), (INF, -INF),
                   (-INF, 2.0)):
        with pytest.raises(DegenerateConfiguration, match="nan, -inf or a second"):
            CausticSet(params)


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
    line = Line((0.1, 0.1, 0.1), (1.0, 0.2, 0.3))
    rep = interlacing_report(FAM3, line)
    assert rep.line_type is LineType.SPACE_LIKE
    assert rep.passed
    assert rep.caustic_set == caustics(FAM3, line)
    # p = 2k - 1 merged positive values, anchored at a_1
    assert len(rep.b) == 2 * FAM3.k - 1
    assert rep.b[-1] == pytest.approx(FAM3.axes_f[0])
    assert len(rep.c) == 2 * FAM3.l


def test_interlacing_lightlike_anchor():
    line = Line((0.1, 0.2, 0.0), (1.0, 0.0, 1.0))
    rep = interlacing_report(FAM3, line)
    assert rep.line_type is LineType.LIGHT_LIKE
    assert rep.passed
    assert rep.caustic_set == caustics(FAM3, line)
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



def test_interlacing_checks_read_a_double_caustic_by_index():
    # a double caustic passed as one float object twice lost both copies
    # from its own comparison list and failed positive_pairs
    fam31 = ConfocalFamily(Signature(3, 1), (7.0, 5.0, 3.0, 2.0))
    a = 4.0
    same = interlacing_checks(fam31, (a, a, -1.0), LineType.SPACE_LIKE)
    apart = interlacing_checks(fam31, (a, float("4.0"), -1.0), LineType.SPACE_LIKE)
    assert same == apart
    assert all(same[0].values()) and same[3] == (2, 3)

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


def test_interlacing_report_is_caustics_and_line_type():
    # the report reads the line type off its own caustic solve; on 800
    # seeded lines it is the composition of caustics, line_type and
    # interlacing_checks, and it raises where caustics raises
    families = [((1, 1), (2.0, 1.0)), ((2, 1), (5.0, 3.0, 2.0)),
                ((1, 2), (5.0, 2.0, 3.0)), ((2, 2), (5.0, 3.0, 2.0, 4.0))]
    failed = 0
    for j, (sig, axes) in enumerate(families):
        fam, rng = ConfocalFamily(Signature(*sig), axes), np.random.default_rng([32, j])
        for i in range(200):
            x, v = _pinned_line(fam, rng, i)
            line = Line(x, v)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    cs = caustics(fam, line)
                except (NoIntersection, RootIsolationError) as exc:
                    failed += 1
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        interlacing_report(fam, line)
                    continue
                rep = interlacing_report(fam, line)
            ltype = line_type(v, fam.sig)
            checks, b, c, pos, neg = interlacing_checks(fam, cs, ltype)
            assert rep == InterlacingReport(cs, ltype, b, c, pos, neg, checks, all(checks.values()))
    assert 100 < failed < 400

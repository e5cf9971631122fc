"""Closed-form roots of degree <= 3 (``_poly.closed_form_roots``) on the
rounding hazards that Kahan lists in "To solve a real cubic equation"
(1986), and the paths that must reach them.

Each case holds the roots of its float polynomial, known exactly or pinned
at 30 digits (computed with mpmath, which the tests do not import).  The
closed form, polished by ``newton_polish``, meets them at rel 1e-12, and so
does ``companion_roots`` plus ``newton_polish`` where it can: it misses a
multiple root by about the cube or square root of the rounding unit, and it
raises where the monic coefficients overflow.
"""

import math

import numpy as np
import pytest

from pbl import _poly
from pbl._poly import closed_form_roots, companion_roots, newton_polish, polynomial_roots
from pbl.billiard import _directions, random_boundary_point
from pbl.confocal import (
    CausticSet,
    ConfocalFamily,
    Line,
    caustics,
    jacobi_coordinates,
)
from pbl.errors import RootIsolationError
from pbl.metric import Signature
from pbl.relativistic import decorated_coordinates, relativistic_type

C = 3 * 2.0**-10
W9_BELOW, W9_ABOVE = (0.999e-9) ** 2, (1.001e-9) ** 2
W6_BELOW, W6_ABOVE = (0.999e-6) ** 2, (1.001e-6) ** 2

# id: (ascending coefficients, real roots, complex pair as (re, im) or None,
#      how companion_roots + newton_polish fares: "meets", "misses", "raises")
CASES = {
    "triple": ([-1.0, 3.0, -3.0, 1.0], [1.0, 1.0, 1.0], None, "misses"),
    "triple-dyadic": ([C**3, 3 * C * C, 3 * C, 1.0], [-C, -C, -C], None, "misses"),
    "double-and-simple": ([4.0, 0.0, -3.0, 1.0], [-1.0, 2.0, 2.0], None, "misses"),
    "spread-1e30-2-3": ([-6.000000000000001e30, 5.0000000000000004e30, -1e30, 1.0],
                        ["1.99999999999999999999999999999", "3.00000000000000028147497671068",
                         "1.00000000000000001988462483865e+30"], None, "meets"),
    "pair-below-1e-9": ([-W9_BELOW, W9_BELOW, -1.0, 1.0], [1.0],
                        (0.0, "9.98999999999999951022669986157e-10"), "meets"),
    "pair-above-1e-9": ([-W9_ABOVE, W9_ABOVE, -1.0, 1.0], [1.0],
                        (0.0, "1.00099999999999992124897605578e-9"), "meets"),
    "pair-below-1e-6": ([-W6_BELOW, W6_BELOW, -1.0, 1.0], [1.0],
                        (0.0, "9.99000000000000080969539571175e-7"), "meets"),
    "pair-above-1e-6": ([-W6_ABOVE, W6_ABOVE, -1.0, 1.0], [1.0],
                        (0.0, "1.00100000000000007229421665727e-6"), "meets"),
    "zero-constant": ([0.0, 6.0, -5.0, 1.0], [0.0, 2.0, 3.0], None, "meets"),
    # roots 2^333 (-3, 1, 2) and 2^-333 (-3, 1, 2), coefficients 2^-500 to 6 2^499
    "near-2^500": ([6 * 2.0**499, -7 * 2.0**166, 0.0, 2.0**-500],
                   [-3 * 2.0**333, 2.0**333, 2.0**334], None, "meets"),
    "near-2^-500": ([6 * 2.0**-499, -7 * 2.0**-166, 0.0, 2.0**500],
                    [-3 * 2.0**-333, 2.0**-333, 2.0**-332], None, "meets"),
    # roots 2^400 (-3, 1, 2): the monic constant 6 2^1200 overflows
    "monic-overflow": ([6 * 2.0**700, -7 * 2.0**300, 0.0, 2.0**-500],
                       [-3 * 2.0**400, 2.0**400, 2.0**401], None, "raises"),
    "quadratic-cancellation": ([1.0, -1e8, 1.0],
                               ["1.0000000000000001e-8", "99999999.99999999"], None, "meets"),
    "quadratic-2^600": ([1.0, 2.0**600, 1.0], [-(2.0**600), -(2.0**-600)], None, "meets"),
    "linear": ([3.0, -(2.0**-1000)], [3 * 2.0**1000], None, "meets"),
}


def _close(got, want, rel=1e-12):
    return all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want)) and len(got) == len(want)


def _closed_form(coeffs):
    reals, pair = closed_form_roots(coeffs)
    return sorted(newton_polish(coeffs, reals)), pair


def _eigenvalue_path(coeffs):
    with np.errstate(over="ignore", invalid="ignore"):  # a monic coefficient may overflow
        z = companion_roots(coeffs)
    return sorted(newton_polish(coeffs, [w.real for w in z if not w.imag])), [w for w in z if w.imag]


@pytest.mark.parametrize("case", CASES)
def test_closed_form_meets_the_float_polynomial_roots(case):
    coeffs, reals, pair, _ = CASES[case]
    want = sorted(float(r) for r in reals)
    got, got_pair = _closed_form(coeffs)
    assert _close(got, want)
    assert all(isinstance(r, float) for r in got)
    if pair is None:
        assert got_pair is None
    else:
        re, im = got_pair
        assert type(re) is float and type(im) is float
        assert abs(re - pair[0]) <= 1e-12 * im
        assert im == pytest.approx(float(pair[1]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", CASES)
def test_closed_form_against_the_eigenvalue_path(case):
    coeffs, reals, pair, fares = CASES[case]
    want = sorted(float(r) for r in reals)
    got, got_pair = _closed_form(coeffs)
    if fares == "raises":
        with pytest.raises(RootIsolationError, match="rounding has lost"):
            _eigenvalue_path(coeffs)
        return
    old, old_pair = _eigenvalue_path(coeffs)
    if fares == "meets":
        assert _close(got, old)
        assert len(old_pair) == (0 if pair is None else 2)
    else:  # a multiple root: the closed form is nearer
        err = max(abs(g - w) for g, w in zip(got, want))
        old_err = max([abs(g - w) for g, w in zip(old, want)]
                      + [abs(z - w) for z in old_pair for w in want])
        assert err <= 1e-12 * abs(want[0]) < old_err


@pytest.mark.parametrize("threshold", [1e-9, 1e-6])
def test_a_pair_at_a_threshold_lands_on_its_side(threshold):
    # the Jacobi core counts a pair as real within 1e-9 max(scale, |z|), and
    # caustics within 1e-6; here scale is 1 and |z| about the threshold
    for w, off in ((0.999 * threshold, False), (1.001 * threshold, True)):
        _, (re, im) = closed_form_roots([-w * w, w * w, -1.0, 1.0])
        assert (im > threshold * max(1.0, math.hypot(re, im))) is off


def test_closed_form_small_degrees_and_non_finite_coefficients():
    assert closed_form_roots([5.0]) == ([], None)
    assert closed_form_roots([0.0, 0.0, 0.0, 1.0]) == ([0.0, 0.0, 0.0], None)
    assert closed_form_roots([1.0, 0.0, 1.0]) == ([], (0.0, 1.0))
    for bad in (math.inf, -math.inf, math.nan):
        roots, pair = closed_form_roots([1.0, bad, 2.0, 1.0])
        assert len(roots) == 3 and all(map(math.isnan, roots)) and pair is None


def test_polynomial_roots_above_degree_3_reports_the_widest_pair():
    # (lam^2 + 1)(lam - 1)(lam - 2), then (lam^2 + 1)(lam^2 + 4) and
    # (lam - 1)(lam - 2)(lam - 3)(lam - 4): one eigenvalue call each
    r0, p0 = polynomial_roots([2.0, -3.0, 3.0, -3.0, 1.0])
    r1, p1 = polynomial_roots([4.0, 0.0, 5.0, 0.0, 1.0])
    r2, p2 = polynomial_roots([24.0, -50.0, 35.0, -10.0, 1.0])
    assert sorted(r0) == pytest.approx([1.0, 2.0], rel=1e-12) and p0 == pytest.approx((0.0, 1.0))
    assert r1 == pytest.approx([0.0, 0.0], abs=1e-12) and p1 == pytest.approx((0.0, 2.0))
    assert sorted(r2) == pytest.approx([1.0, 2.0, 3.0, 4.0], rel=1e-12) and p2 is None
    assert all(type(x) is float for x in r0 + list(p0) + r1 + list(p1) + r2)


# ------------------------------------------------- the fast path stays taken

FAM3 = ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0))
FAM2 = ConfocalFamily(Signature(1, 1), (2.0, 1.0))
#: The chord families of the point_queries benchmark workload.
CHORD_FAMILIES = [ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0)),
                  ConfocalFamily(Signature(1, 2), (5.0, 2.0, 3.0)),
                  ConfocalFamily(Signature(2, 2), (5.0, 3.0, 2.0, 4.0))]


@pytest.fixture
def no_eigenvalues(monkeypatch):
    def refuse(coeffs):
        raise AssertionError(f"companion_roots reached at degree {len(coeffs) - 1}")

    monkeypatch.setattr(_poly, "companion_roots", refuse)


def test_degree_3_and_below_never_reach_eigenvalues(no_eigenvalues):
    x = [1.0, 0.5, 0.3]
    gj = jacobi_coordinates(FAM3, x)
    assert gj.complex_pair is None and len(gj.real_roots) == 3
    deco = decorated_coordinates(FAM3, x)
    assert [str(t) for t, _ in deco] == ["E", "H^1", "H^2"]
    assert [str(relativistic_type(FAM3, x, lam)) for _, lam in deco] == ["E", "H^1", "H^2"]
    for fam in CHORD_FAMILIES:
        d = fam.d
        base = 0.3 * np.sqrt(fam.axes_f) / math.sqrt(d)
        light = np.where(fam.eps > 0, 1.0 / math.sqrt(fam.k), 1.0 / math.sqrt(fam.l))
        for v in (np.eye(d)[0], np.eye(d)[-1], light + 0.01 * np.eye(d)[0], light):
            cs = caustics(fam, Line(base, v))
            assert len(cs) == d - 1
    for fam, target in ((FAM2, (2.0 / 3.0,)), (FAM3, (-2.320953597016259, 2.154286930349592))):
        rng = np.random.default_rng(3)
        X = np.array([random_boundary_point(fam, rng) for _ in range(8)])
        V, kept, _ = _directions(fam, X, CausticSet(target))
        assert kept.any()


def test_degree_4_reaches_eigenvalues(no_eigenvalues):
    with pytest.raises(AssertionError, match="degree 4"):
        jacobi_coordinates(CHORD_FAMILIES[2], [1.0, 0.5, 0.3, 0.2])


def test_generalized_jacobi_holds_python_floats():
    # complex_pair held numpy floats from the eigenvalue path
    for x in ([1.0, 0.5, 0.3], [1.0007637328373358, 3.177710407756604, 2.205485521961548]):
        gj = jacobi_coordinates(FAM3, x)
        assert all(type(c) is float for c in gj.real_roots)
        assert gj.complex_pair is None or all(type(c) is float for c in gj.complex_pair)
    assert jacobi_coordinates(FAM3, [1.0007637328373358, 3.177710407756604,
                                     2.205485521961548]).complex_pair is not None

"""Closure conditions: series, rank tests, root searches, orbit verification.

The planar rank condition reduces to a closed form (the period-4 caustics
of x^2/a + y^2/b = 1 are ab/(b-a) and +-ab/(a+b)); those exact values and
direct dynamical simulation serve as the oracles for the algebraic route.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from pbl.confocal import INF, ConfocalFamily
from pbl.errors import (
    CayleyConditionFailed,
    DegenerateConfiguration,
    InsufficientOrder,
    NonpositiveConstantTerm,
    OddPeriod,
    VacuousCondition,
)
from pbl.metric import Signature
from pbl.periodicity import (
    SearchWindow,
    build_P1,
    cayley_condition,
    cayley_matrix,
    count_axis_ratios,
    default_search_window,
    find_periodic_caustics_plane,
    lightlike_period,
    normalized_sqrt_series,
    numerical_rank,
    planar_cayley_det,
    poncelet_verify,
    sqrt_series,
)

FAM2 = ConfocalFamily(Signature(1, 1), (2.0, 1.0))
FAM3 = ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0))

# caustic pair satisfying the period-6 condition in (5, 3, 2); located by a
# two-dimensional Newton search on the rank conditions and verified by
# simulation, then frozen
PAIR6 = (-1.771428571428571, 2.1330275229357795)


# ----------------------------------------------------------------- series


def test_sqrt_series_examples():
    assert sqrt_series([1.0, -2.0, 1.0], 3) == pytest.approx([1.0, -1.0, 0.0])
    assert sqrt_series([4.0], 3) == pytest.approx([2.0, 0.0, 0.0])
    assert sqrt_series([1.0, 1.0], 4) == pytest.approx([1.0, 0.5, -0.125, 0.0625])


def test_sqrt_series_exact_fractions():
    out = sqrt_series([Fraction(1), Fraction(1)], 4)
    assert out == [Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]
    assert all(isinstance(c, Fraction) for c in out)


def test_sqrt_series_needs_positive_constant():
    with pytest.raises(NonpositiveConstantTerm):
        sqrt_series([-1.0, 2.0], 3)
    with pytest.raises(NonpositiveConstantTerm):
        sqrt_series([0.0, 2.0], 3)


def test_sqrt_series_squares_back():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = [rng.uniform(0.2, 3.0)] + list(rng.uniform(-1.0, 1.0, 5))
        n = len(q)
        B = sqrt_series(q, n)
        sq = [0.0] * n
        for i in range(n):
            for j in range(n - i):
                sq[i + j] += B[i] * B[j]
        assert sq == pytest.approx(q, abs=1e-12)


# ------------------------------------------------------------ polynomials


def test_build_P1_planar():
    # (alpha - t)(a - t)(b + t) for the plane, omitting nothing
    out = build_P1(FAM2, (0.5,))
    # (0.5 - t)(2 - t)(1 + t) = 1 + 1.5 t - 1.5 t^2 + ... expand directly
    t = np.polynomial.polynomial.polyval
    xs = np.linspace(-0.9, 0.9, 7)
    expected = (0.5 - xs) * (2.0 - xs) * (1.0 + xs)
    got = t(xs, out)
    assert got == pytest.approx(expected, abs=1e-12)
    assert len(out) == 4


def test_build_P1_lightlike_omits_infinite():
    out = build_P1(FAM2, (INF,))
    xs = np.linspace(-0.9, 0.9, 5)
    expected = (2.0 - xs) * (1.0 + xs)
    got = np.polynomial.polynomial.polyval(xs, out)
    assert got == pytest.approx(expected, abs=1e-12)
    assert len(out) == 3


def test_build_P1_collision_guard():
    with pytest.raises(DegenerateConfiguration):
        build_P1(FAM2, (2.0,))  # alpha collides with a degenerate parameter
    for alpha, n in ((1e-13, 6), (-1e-13, 6), (1e-200, 4)):
        with pytest.raises(DegenerateConfiguration):
            cayley_condition(FAM2, (alpha,), n)  # a zero caustic: P1(0) = 0
    for alpha in (math.nan, -math.inf):
        with pytest.raises(DegenerateConfiguration):
            cayley_condition(FAM2, (alpha,), 4)  # +inf is the only non-finite caustic
    with pytest.raises(ValueError):
        build_P1(FAM2, (0.5, 0.7))  # wrong count for d = 2


# ------------------------------------------------------------ rank algebra


def test_cayley_matrix_shapes():
    B = [1.0, 0.5, -0.125, 0.0625, 0.1, 0.2, 0.3]
    M = cayley_matrix(B, 2, 4)  # even n = 2m with m = 2: 1 x 1, entry B3
    assert M.shape == (1, 1)
    assert float(M[0, 0]) == pytest.approx(B[3])
    M = cayley_matrix(B, 2, 3)  # odd n: 1 x 1, entry B2
    assert M.shape == (1, 1)
    assert float(M[0, 0]) == pytest.approx(B[2])
    M = cayley_matrix(B, 3, 6)  # column [B4, B5]
    assert M.shape == (2, 1)
    assert float(M[0, 0]) == pytest.approx(B[4])
    assert float(M[1, 0]) == pytest.approx(B[5])


def test_cayley_matrix_guards():
    B = [1.0] * 10
    with pytest.raises(VacuousCondition):
        cayley_matrix(B, 3, 3)
    with pytest.raises(VacuousCondition):
        cayley_matrix(B, 3, 4)
    with pytest.raises(InsufficientOrder):
        cayley_matrix([1.0, 2.0], 2, 4)


def test_numerical_rank():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((2, 3))) == 0
    u = np.array([[1.0], [2.0], [3.0]])
    assert numerical_rank(u @ u.T) == 1
    exact = np.array([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], dtype=object)
    assert numerical_rank(exact) == 1
    exact[1, 1] = Fraction(5)
    assert numerical_rank(exact) == 2


# -------------------------------------------------------- planar condition


def test_cayley_planar_examples():
    assert cayley_condition(FAM2, (2.0 / 3.0,), 4)
    assert cayley_condition(FAM2, (-2.0,), 4)
    assert cayley_condition(FAM2, (-2.0 / 3.0,), 4)
    assert not cayley_condition(FAM2, (0.5,), 4)
    assert not cayley_condition(FAM2, (1.5,), 4)


def test_cayley_exact_mode():
    assert cayley_condition(FAM2, (Fraction(2, 3),), 4, exact=True)
    assert cayley_condition(FAM2, (Fraction(-2),), 4, exact=True)
    # the dyadic float nearest to 2/3 genuinely fails the exact test
    assert not cayley_condition(FAM2, (2.0 / 3.0,), 4, exact=True)
    assert not cayley_condition(FAM2, (Fraction(1, 2),), 4, exact=True)


def test_planar_closed_forms_period4():
    # ab/(b-a) and +-ab/(a+b) satisfy the period-4 condition exactly
    rng = np.random.default_rng(5)
    for _ in range(3):
        b = rng.uniform(0.5, 2.0)
        a = b + rng.uniform(0.3, 2.0)
        fam = ConfocalFamily(Signature(1, 1), (a, b))
        for alpha in (a * b / (b - a), a * b / (a + b), -a * b / (a + b)):
            assert cayley_condition(fam, (alpha,), 4), (a, b, alpha)
            assert abs(planar_cayley_det(fam, alpha, 4)) <= 1e-9


def test_planar_determinant_tracks_condition():
    rng = np.random.default_rng(7)
    for _ in range(100):
        b = rng.uniform(0.5, 2.0)
        a = b + rng.uniform(0.3, 2.0)
        fam = ConfocalFamily(Signature(1, 1), (a, b))
        alpha = rng.uniform(-3.0, 3.0)
        if min(abs(alpha), abs(alpha - a), abs(alpha + b)) < 1e-3:
            continue
        det = planar_cayley_det(fam, alpha, 4)
        assert cayley_condition(fam, (alpha,), 4) == (abs(det) <= 1e-9 * max(1.0, abs(det)))


def test_planar_det_array_matches_scalar():
    # one array call gives the scalar determinants bit for bit, and nan
    # where a scalar call raises: at (or within 1e-12 (a + b) of) 0, at
    # the degenerate values a, -b, and where alpha is not finite
    rng = np.random.default_rng(11)
    for _ in range(4):
        b = rng.uniform(0.5, 2.0)
        a = b * rng.uniform(1.1, 3.0)
        fam = ConfocalFamily(Signature(1, 1), (a, b))
        tail = [0.0, a, -b, 1e-13 * (a + b), -1e-13 * (a + b), math.inf, -math.inf, math.nan]
        alphas = np.concatenate([rng.uniform(-4.0 * (a + b), 4.0 * (a + b), 40), tail])
        for n in range(3, 10):
            dets = planar_cayley_det(fam, alphas, n)
            assert dets.shape == alphas.shape
            for alpha, det in zip(alphas[:-len(tail)], dets[:-len(tail)]):
                assert det == planar_cayley_det(fam, float(alpha), n)
            assert np.isnan(dets[-len(tail):]).all()
            for alpha in tail:
                with pytest.raises(DegenerateConfiguration):
                    planar_cayley_det(fam, float(alpha), n)


def test_planar_det_fraction_axes_match_float_twin():
    exact = ConfocalFamily(Signature(1, 1), (Fraction(2), Fraction(1)))
    alphas = np.linspace(-4.95, 4.95, 34)
    for n in (4, 5, 8):
        dets = planar_cayley_det(FAM2, alphas, n)
        assert np.array_equal(planar_cayley_det(exact, alphas, n), dets)
        for alpha, det in zip(alphas, dets):
            assert planar_cayley_det(exact, float(alpha), n) == det


def test_scaling_covariance():
    # scaling all axes by s scales periodic caustics by s
    s = 2.7
    fam_s = ConfocalFamily(Signature(1, 1), (2.0 * s, 1.0 * s))
    for alpha in (2.0 / 3.0, -2.0, -2.0 / 3.0):
        assert cayley_condition(fam_s, (alpha * s,), 4)


def test_find_periodic_n4():
    roots = find_periodic_caustics_plane(FAM2, 4)
    assert len(roots) == 3
    assert roots == pytest.approx([-2.0, -2.0 / 3.0, 2.0 / 3.0], abs=1e-10)


def test_find_periodic_n3_empty():
    assert find_periodic_caustics_plane(FAM2, 3) == []


def test_find_periodic_pinned_roots():
    # the period-6 and period-8 caustics of the (2, 1) table, to the last
    # digit; every one closes when simulated with poncelet_verify
    want = {
        6: [-1.0531972647421592, -0.9536672493620673, -0.3094010767585167,
            0.25319726474220694, 1.3981116938065083, 4.3094010767585775],
        8: [-2.0000000000000195, -1.0050444441498763, -0.9950455141222119,
            -0.6666666666666894, -0.17366457382534561, 0.13461960020502176,
            0.6666666666666587, 1.79022585398284, 2.305588970305063],
    }
    for n, roots in want.items():
        assert find_periodic_caustics_plane(FAM2, n) == pytest.approx(roots, rel=1e-12)


def test_find_periodic_respects_window():
    roots = find_periodic_caustics_plane(FAM2, 4, window=SearchWindow(0.0, 1.0))
    assert roots == pytest.approx([2.0 / 3.0], abs=1e-10)
    w = default_search_window(FAM2)
    assert w.lo < -2.0 < 2.0 / 3.0 < w.hi


# ----------------------------------------------------- light-like closure


def test_lightlike_period_examples():
    assert lightlike_period(1.0, 1.0) == (4, 1)
    assert lightlike_period(3.0, 1.0) == (6, 2)
    assert lightlike_period(1.0, 3.0) == (6, 1)
    assert lightlike_period(math.tan(math.pi / 8) ** 2, 1.0) == (8, 1)
    assert lightlike_period(2.0, 1.0) is None


def _lightlike_period_by_search(a, b, max_n):
    """Reference: try every admissible (n, k) in order."""
    theta = math.atan(math.sqrt(a / b))
    for n in range(4, max_n + 1, 2):
        for k in range(1, n // 2):
            if math.gcd(k, n // 2) == 1 and abs(theta - k * math.pi / n) <= 1e-12:
                return n, k
    return None


def test_lightlike_period_recovers_every_table():
    # tan^2(k pi / n) for every admissible (n, k), n <= 128
    for n in range(4, 129, 2):
        for k in range(1, n // 2):
            if math.gcd(k, n // 2) == 1:
                assert lightlike_period(math.tan(k * math.pi / n) ** 2, 1.0) == (n, k)
    # the closed form agrees with the search on perturbed, rescaled tables
    rng = np.random.default_rng(3)
    inputs = [(2.5 * math.tan(k * math.pi / n) ** 2 * (1.0 + eps), 2.5)
              for n in range(4, 33, 2) for k in range(1, n // 2) for eps in (1e-13, 3e-12)]
    inputs += [tuple(rng.uniform(0.01, 10.0, 2)) for _ in range(100)]
    for max_n in (3, 12, 64, 128):
        for a, b in inputs:
            assert lightlike_period(a, b, max_n) == _lightlike_period_by_search(a, b, max_n)


def test_lightlike_agrees_with_cayley():
    for a, b in [(1.0, 1.0), (3.0, 1.0), (1.0, 3.0), (math.tan(math.pi / 8) ** 2, 1.0)]:
        n, _ = lightlike_period(a, b)
        fam = ConfocalFamily(Signature(1, 1), (a, b))
        assert cayley_condition(fam, (INF,), n)
    fam = ConfocalFamily(Signature(1, 1), (2.0, 1.0))
    for n in (4, 6, 8, 10, 12):
        assert not cayley_condition(fam, (INF,), n)


def test_count_axis_ratios_examples():
    assert count_axis_ratios(4) == 1
    assert count_axis_ratios(6) == 1
    assert count_axis_ratios(8) == 1
    assert count_axis_ratios(10) == 2
    assert count_axis_ratios(12) == 1
    with pytest.raises(OddPeriod):
        count_axis_ratios(7)
    with pytest.raises(ValueError):
        count_axis_ratios(2)


def test_count_axis_ratios_matches_totient_rule():
    def phi(n: int) -> int:
        return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)

    for n in range(6, 42, 2):
        expected = phi(n) // 4 if n % 4 == 0 else phi(n) // 2
        assert count_axis_ratios(n) == expected, n


def test_count_axis_ratios_enumeration():
    # each admissible k below n/4... count unordered pairs {k, n/2 - k}
    # directly and compare
    for n in (4, 6, 8, 10, 12, 14, 16, 20, 30):
        half = n // 2
        ks = {frozenset((k, half - k)) for k in range(1, half) if math.gcd(k, half) == 1}
        assert count_axis_ratios(n) == len(ks)


# ------------------------------------------------------ orbit verification


def test_poncelet_period4():
    rep = poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=10, seed=0)
    assert rep.condition and rep.closed == 10
    assert rep.n == 4 and rep.samples == 10
    assert rep.worst_position_error <= 1e-8


def test_poncelet_period4_outer_branch():
    rep = poncelet_verify(FAM2, (-2.0,), 4, samples=6, seed=1)
    assert rep.closed == 6
    assert rep.worst_position_error <= 1e-8


def test_poncelet_precondition():
    with pytest.raises(CayleyConditionFailed):
        poncelet_verify(FAM2, (0.5,), 4, samples=3)


def test_poncelet_3d_period6_pair():
    assert cayley_condition(FAM3, PAIR6, 6)
    rep = poncelet_verify(FAM3, PAIR6, 6, samples=6, seed=4)
    assert rep.condition and rep.closed == 6
    assert rep.worst_position_error <= 1e-6


def test_poncelet_open_orbits_stay_open():
    # a caustic failing the condition cannot be forced closed dynamically:
    # check via direct tracing instead of poncelet_verify (which guards)
    from pbl.billiard import closure_test, direction_with_caustics, inward_direction, trace

    alpha = 0.5
    p = np.array([math.sqrt(2.0), 0.0])  # outside the caustic circle
    v = direction_with_caustics(FAM2, p, (alpha,))[0]
    v = inward_direction(FAM2, p, v)
    traj = trace(FAM2, p, v, 5)
    rep = closure_test(traj)
    assert not rep.closed

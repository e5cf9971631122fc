"""Closure conditions: series, rank tests, root searches, orbit verification.

The planar rank condition reduces to a closed form (the period-4 caustics
of x^2/a + y^2/b = 1 are ab/(b-a) and +-ab/(a+b)); those exact values and
direct dynamical simulation serve as the oracles for the algebraic route.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from pbl import billiard, periodicity
from pbl.billiard import (
    closure_test,
    direction_with_caustics,
    inward_direction,
    random_boundary_point,
    rectangle_ratio,
    trace,
)
from pbl.confocal import DEGENERATE_TOL, INF, ConfocalFamily
from pbl.errors import (
    CayleyConditionFailed,
    ConstructionFailure,
    DegenerateConfiguration,
    InsufficientOrder,
    NoSolution,
    NonpositiveConstantTerm,
    NumericalStall,
    OddPeriod,
    VacuousCondition,
)
from pbl.metric import Signature
from pbl.periodicity import (
    SAMPLE_BUDGET,
    PonceletReport,
    build_P1,
    cayley_condition,
    cayley_matrix,
    count_axis_ratios,
    find_periodic_caustics,
    find_periodic_caustics_plane,
    lightlike_period,
    numerical_rank,
    planar_cayley_det,
    poncelet_verify,
    rotation_vector,
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


def test_build_P1_stays_exact_on_fraction_input():
    exact = ConfocalFamily(Signature(2, 1), (Fraction(5), Fraction(3), Fraction(2)))
    alpha = (Fraction(-7, 3), Fraction(13, 6))
    out = build_P1(exact, alpha)
    assert all(isinstance(c, (int, Fraction)) for c in out)
    for t in (Fraction(1, 2), Fraction(-4, 3), Fraction(7)):
        want = (alpha[0] - t) * (alpha[1] - t) * (5 - t) * (3 - t) * (2 + t)
        got = Fraction(0)
        for c in reversed(out):  # Horner, exact on Fractions
            got = got * t + c
        assert got == want
    # the float family's P1 has the same coefficients to rounding
    assert np.allclose(np.array(out, dtype=float), build_P1(FAM3, [float(a) for a in alpha]),
                       rtol=1e-14, atol=0.0)


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
    # exactly where a scalar call raises: at (or within DEGENERATE_TOL (a + b)
    # of) 0 and the degenerate values a, -b, checked one ulp inside and
    # outside each edge, and where alpha is not finite
    rng = np.random.default_rng(11)
    for _ in range(4):
        b = rng.uniform(0.5, 2.0)
        a = b * rng.uniform(1.1, 3.0)
        fam = ConfocalFamily(Signature(1, 1), (a, b))
        tol = DEGENERATE_TOL * (a + b)
        edges = [(c, c + s * tol, s) for c in (0.0, a, -b) for s in (-1.0, 1.0)]
        inside = [float(np.nextafter(e, c)) for c, e, _ in edges]
        outside = [float(np.nextafter(e, s * math.inf)) for _, e, s in edges]
        tail = inside + [0.0, a, -b, 1e-13 * (a + b), -1e-13 * (a + b), math.inf, -math.inf,
                         math.nan]
        alphas = np.concatenate([rng.uniform(-4.0 * (a + b), 4.0 * (a + b), 40), outside, tail])
        for n in range(3, 15):
            with np.errstate(over="ignore"):  # the series overflows next to the zero band
                dets = planar_cayley_det(fam, alphas, n)
                assert dets.shape == alphas.shape
                for alpha, det in zip(alphas[:-len(tail)], dets[:-len(tail)]):
                    assert float(det).hex() == planar_cayley_det(fam, float(alpha), n).hex()
            assert np.isnan(dets[-len(tail):]).all()
            for alpha in tail:
                with pytest.raises(DegenerateConfiguration):
                    planar_cayley_det(fam, alpha, n)


def test_planar_det_takes_real_caustics_only():
    # the type rule of every caustic: a bool, a str or an array of either is
    # refused, as cayley_condition refuses them; nan and +-inf stay
    # degenerate, and ints, numpy reals and Fractions are read as floats
    for alpha in (True, "0.5", np.array(["0.5", "1.0"]), np.array([True, False]),
                  np.array([0.5 + 1j]), None, [0.5, "1.0"]):
        with pytest.raises(ValueError):
            planar_cayley_det(FAM2, alpha, 4)
    for alpha in (True, "0.5"):
        with pytest.raises(ValueError):
            cayley_condition(FAM2, (alpha,), 4)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateConfiguration):
            planar_cayley_det(FAM2, alpha, 4)
    assert np.isnan(planar_cayley_det(FAM2, np.array([math.nan, math.inf, -math.inf]), 4)).all()
    want = planar_cayley_det(FAM2, 3.0, 4)
    for alpha in (3, np.int64(3), np.float32(3.0), Fraction(3)):
        assert planar_cayley_det(FAM2, alpha, 4) == want
    assert np.array_equal(planar_cayley_det(FAM2, np.array([3, -3]), 4),
                          planar_cayley_det(FAM2, [3.0, -3.0], 4))


def test_an_underflowing_p1_at_zero_is_degenerate():
    # P1(0) = alpha a b is 2e-325 here, which underflows to 0 although alpha
    # is outside the zero-caustic band: the scalar routines divided by it
    # and raised ZeroDivisionError; the array entry is nan, with no warning
    tiny = ConfocalFamily(Signature(1, 1), (2e-105, 1e-105))
    assert not tiny.is_zero_caustic(1e-115)
    for n in (4, 10):
        with pytest.raises(DegenerateConfiguration):
            planar_cayley_det(tiny, 1e-115, n)
        with pytest.raises(DegenerateConfiguration, match="underflows"):
            cayley_condition(tiny, (1e-115,), n)
        assert np.isnan(planar_cayley_det(tiny, np.array([1e-115, -1e-115]), n)).all()
    # the scan of this table overflows the normalized series (inf - inf)
    # everywhere, as it did before, and finds no period
    with np.errstate(invalid="ignore"):
        assert all(find_periodic_caustics_plane(tiny, n) == [] for n in range(3, 11))


def test_exact_cayley_on_a_tiny_table():
    # the exact series of this table holds coefficients near 1e105**k, which
    # no float holds: the exact rank reads them as Fractions, with no float
    # scale (which raised OverflowError, "integer division result too large")
    tiny = ConfocalFamily(Signature(1, 1), (2e-105, 1e-105))
    assert not cayley_condition(tiny, (1e-115,), 4, exact=True)
    a, b = Fraction(2e-105), Fraction(1e-105)
    exact = ConfocalFamily(Signature(1, 1), (a, b))
    assert not cayley_condition(exact, (Fraction(1e-115),), 4, exact=True)
    assert cayley_condition(exact, (a * b / (a + b),), 4, exact=True)


def test_planar_det_fraction_axes_match_float_twin():
    exact = ConfocalFamily(Signature(1, 1), (Fraction(2), Fraction(1)))
    alphas = np.linspace(-4.95, 4.95, 34)
    for n in (4, 5, 8):
        dets = planar_cayley_det(FAM2, alphas, n)
        assert np.array_equal(planar_cayley_det(exact, alphas, n), dets)
        for alpha, det in zip(alphas, dets):
            assert planar_cayley_det(exact, float(alpha), n) == det


def _exact_det(M):
    """Determinant of a square list of Fractions, by the first row."""
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _exact_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


U = Fraction(1, 2**53)
# k: (the proven rounding bound's gamma_j, the band's constant c, its roundings)
BAND = {2: (2 * U / (1 - 2 * U), 3 * U, 3), 3: (5 * U / (1 - 5 * U), 6 * U, 6)}


def _abs_terms(h, k):
    """T (k = 2) or P (k = 3) of ``_hankel_det``, exactly: the sum of
    |h_i| (|p_i| + |q_i|) over the first-row minors p_i - q_i for k = 3."""
    if k == 2:
        return abs(h[0] * h[2]) + h[1] * h[1]
    minors = ((h[2] * h[4], h[3] * h[3]), (h[1] * h[4], h[2] * h[3]), (h[1] * h[3], h[2] * h[2]))
    return sum(abs(h[i]) * (abs(p) + abs(q)) for i, (p, q) in enumerate(minors))


def _hankel_rows(rng, k, count=150):
    """Float Hankel series h_0 .. h_{2k-2}, one per column: random ones,
    ones with every entry or every row scaled by 2^+-300, near-singular
    ones (the last entry solved for an exact determinant of 0), and ones
    placed within a few ulps of where the exact determinant is +-c and
    +-3c times the absolute-term sum: the band's edge, and outside it."""
    size = 2 * k - 1

    def draw(shape):
        scale = 2.0 ** rng.choice([-300, 0, 300], size=shape)
        return rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape) * scale

    cols = [rng.standard_normal((size, count)), draw((size, count)),
            rng.standard_normal((size, count)) * 2.0 ** rng.choice([-300, 300], count)]
    if k == 1:
        cols.append(np.array([[0.0, -0.0, 5e-324, -5e-324, 2.0**-1022]]))
        return np.concatenate(cols, axis=1)
    base = np.concatenate([rng.standard_normal((size, count)), draw((size, count))], axis=1)
    for h in base.T:
        f = [Fraction(x) for x in h[:-1]] + [Fraction(0)]
        rest = _exact_det([[f[i + j] for j in range(k)] for i in range(k)])
        lead = _exact_det([[f[i + j] for j in range(k - 1)] for i in range(k - 1)])
        if lead == 0 or not 2.0**-310 < abs(rest / lead) < 2.0**310:
            continue  # keep every product in the normal range
        h[-1] = float(-rest / lead)  # near-singular
        cols.append(h.copy()[:, None])
        c = BAND[k][1]
        for times in (-3, -1, 1, 3):
            target = times * c * _abs_terms([Fraction(x) for x in h], k)
            edge = float((target - rest) / lead)
            for ulps in range(-3, 4):
                row = h.copy()
                row[-1] = edge
                for _ in range(abs(ulps)):
                    row[-1] = np.nextafter(row[-1], math.copysign(math.inf, ulps))
                cols.append(row[:, None])
    return np.concatenate(cols, axis=1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_determinant_zero_band(k):
    # the closed form of the planar determinant for n <= 8 against the
    # exact determinant of the same float series: a value that is not 0 is
    # within the proven rounding bound and has the exact sign, and a value
    # read as 0 (inside the band) is within twice the computed band
    H = _hankel_rows(np.random.default_rng(23 + k), k)
    values = periodicity._hankel_det(list(H), k)
    assert values.shape == H.shape[1:]
    zeros = 0
    for h, value in zip(H.T, values):
        f = [Fraction(x) for x in h]
        exact = _exact_det([[f[i + j] for j in range(k)] for i in range(k)])
        assert periodicity._hankel_det(h.tolist(), k) == value  # a scalar series, the same bits
        if k == 1:
            assert value == exact
            continue
        gamma, c, roundings = BAND[k]
        terms = _abs_terms(f, k)
        if value:
            assert abs(Fraction(float(value)) - exact) <= gamma * terms
            assert (value > 0) == (exact > 0) and exact != 0
        else:
            zeros += 1
            assert abs(exact) <= 2 * c * terms * (1 + U) ** roundings
    if k > 1:
        assert 0 < zeros < len(values)  # the rows on the band edge fall on both sides of it


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


def test_find_periodic_past_n12_without_overflow_warnings():
    # the suite turns RuntimeWarning into an error, and next to the pole at
    # 0 the determinants reach +-inf from n = 12 on: the sign scan compares
    # signs, and the overflow is expected
    for n, count in ((12, 13), (14, 16)):
        roots = find_periodic_caustics_plane(FAM2, n)
        assert len(roots) == count
        assert all(cayley_condition(FAM2, (r,), n) for r in roots)


def test_find_periodic_keeps_a_root_next_to_a_degenerate_value():
    # the scan's bracket [-0.39401, -0.38563] holds this root and also -b,
    # where the determinant goes to 0 without changing sign: secant steps
    # alone walk to -b, whose round-off sign change the degeneracy filter
    # then drops, losing the root
    fam = ConfocalFamily(Signature(1, 1), (4.3993186997143745, 0.38703092304999054))
    roots = find_periodic_caustics_plane(fam, 10)
    assert len(roots) == 10
    assert min(abs(r + 0.39204926268057) for r in roots) <= 1e-12
    assert all(cayley_condition(fam, (r,), 10) for r in roots)


def test_find_periodic_roots_pinned_bit_for_bit():
    # every root of n = 3..14 on five tables, as float.hex, hashed: the
    # values that the stacked refinement (one array call per step on all
    # open brackets) gave; each bracket's arithmetic is independent of the
    # others, so refining one bracket at a time must repeat them exactly
    tables = ((2.0, 1.0), (1.0, 2.0), (2.01, 2.0),
              (4.3993186997143745, 0.38703092304999054), (3.0, 0.5))
    lines = []
    for a, b in tables:
        fam = ConfocalFamily(Signature(1, 1), (a, b))
        for n in range(3, 15):
            roots = find_periodic_caustics_plane(fam, n)
            lines.append(f"{a!r} {b!r} {n}: " + " ".join(r.hex() for r in roots))
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "5cf3ee78f55da37ff651a4f4c4835f9246aff346"


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
def test_find_periodic_determinant_calls(monkeypatch, n):
    # two array calls scan the line, and each refinement step of a bracket
    # is one scalar call: the scan plus the longest bracket must take at
    # most 24 (bisecting every bracket down to BISECT_TOL took 38)
    scans, steps = [], []

    def counted(fam, alpha, n):
        if np.ndim(alpha):
            scans.append(alpha)
        else:
            steps[-1] += 1
        return planar_cayley_det(fam, alpha, n)

    def bracket(*args):
        steps.append(0)
        return refine(*args)

    refine = periodicity._refine_sign_change
    monkeypatch.setattr("pbl.periodicity.planar_cayley_det", counted)
    monkeypatch.setattr("pbl.periodicity._refine_sign_change", bracket)
    find_periodic_caustics_plane(FAM2, n)
    assert len(scans) == 2 and steps
    assert len(scans) + max(steps) <= 24


def test_find_periodic_finds_the_classical_root_far_below_minus_b():
    # ab/(b - a) = -402 lies far below the evenly scanned [-b - 3(a + b), a + 3(a + b)]
    a, b = 2.01, 2.0
    fam = ConfocalFamily(Signature(1, 1), (a, b))
    want = [a * b / (b - a), -a * b / (a + b), a * b / (a + b)]
    roots = find_periodic_caustics_plane(fam, 4)
    assert len(roots) == 3
    assert all(abs(r - w) <= 1e-9 * (a + b) for r, w in zip(roots, want))


def test_find_periodic_finds_a_closing_root_past_the_scan_interval():
    # -27.2445 lies past -b - 3(a + b) = -10; 10 rho is integral there
    roots = find_periodic_caustics_plane(FAM2, 10)
    assert len(roots) == 10
    assert roots[0] == pytest.approx(-27.244498273749, rel=1e-12)
    rep = poncelet_verify(FAM2, (roots[0],), 10)
    assert rep.closed == rep.samples == 20


@pytest.mark.parametrize("a, b", [
    (2.0, 1.0), (1.0, 2.0), (2.01, 2.0), (4.3993186997143745, 0.38703092304999054),
    (3.0, 0.5), (0.5, 3.0), (5.0, 1.0), (1.0, 5.0),
])
def test_find_periodic_n4_gives_exactly_the_classical_roots(a, b):
    # ab/(b - a) and +-ab/(a + b), wherever on the line they fall
    fam = ConfocalFamily(Signature(1, 1), (a, b))
    want = sorted([a * b / (b - a), -a * b / (a + b), a * b / (a + b)])
    roots = find_periodic_caustics_plane(fam, 4)
    assert len(roots) == 3
    assert all(abs(r - w) <= 1e-9 * (a + b) for r, w in zip(roots, want))


@pytest.mark.parametrize("a, b, n", [
    (2.0, 1.0, 10), (1.0, 2.0, 10), (2.01, 2.0, 4), (2.01, 2.0, 8), (2.01, 2.0, 12),
    (3.0, 0.5, 8), (0.5, 3.0, 8),
])
def test_find_periodic_roots_past_the_scan_interval_are_periodic(a, b, n):
    # each of these searches finds a root outside [-b - 3(a + b), a + 3(a + b)]
    fam = ConfocalFamily(Signature(1, 1), (a, b))
    lo, hi = -b - 3.0 * (a + b), a + 3.0 * (a + b)
    far = [r for r in find_periodic_caustics_plane(fam, n) if not lo <= r <= hi]
    assert far
    for r in far:
        assert cayley_condition(fam, (r,), n)
        nrho = n * rotation_vector(fam, (r,))
        assert np.abs(nrho - np.round(nrho)).max() < 1e-9
        rep = poncelet_verify(fam, (r,), n)
        assert rep.closed == rep.samples == 20


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


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, -3.0),
                                  (math.nan, 1.0), (1.0, math.inf)])
def test_lightlike_period_rejects_a_bad_axis(a, b):
    # the check of rectangle_ratio: once None, math domain error or ZeroDivisionError
    with pytest.raises(ValueError, match="finite and positive"):
        lightlike_period(a, b)
    with pytest.raises(ValueError, match="finite and positive"):
        rectangle_ratio(a, b)


@pytest.mark.parametrize("n", [4.0, 3.0, "6", True, 2, 0])
def test_count_axis_ratios_needs_an_int_of_at_least_4(n):
    with pytest.raises(ValueError, match="int >= 4"):
        count_axis_ratios(n)


@pytest.mark.parametrize("n", [3, 5, np.int64(7), -1])
def test_count_axis_ratios_rejects_an_odd_int(n):
    with pytest.raises(OddPeriod):
        count_axis_ratios(n)


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


def test_poncelet_rejects_negative_samples():
    with pytest.raises(ValueError, match="samples"):
        poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=-3)


@pytest.mark.parametrize("tol", [math.nan, -1e-6, INF])
def test_poncelet_rejects_a_malformed_tolerance(monkeypatch, tol):
    # checked before any sample is drawn
    def no_draw(fam, rng):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("pbl.periodicity.random_boundary_point", no_draw)
    with pytest.raises(ValueError, match="tolerance"):
        poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=3, tol=tol)


def test_poncelet_report_keeps_the_caller_order():
    rep = poncelet_verify(FAM3, PAIR6[::-1], 6, samples=1, seed=0)
    assert rep.caustics == PAIR6[::-1]


def test_poncelet_3d_period6_pair():
    assert cayley_condition(FAM3, PAIR6, 6)
    rep = poncelet_verify(FAM3, PAIR6, 6, samples=6, seed=4)
    assert rep.condition and rep.closed == 6
    assert rep.worst_position_error <= 1e-6


def _reference_poncelet(fam, params, n, samples, seed, tol=1e-6):
    """poncelet_verify with each sample run as a full ``trace``: its hit is
    the bounce whose reflection count is n, and its errors are
    np.linalg.norm distances from the start."""
    results = []
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        for _ in range(SAMPLE_BUDGET):
            p = random_boundary_point(fam, rng)
            try:
                v = inward_direction(fam, p, direction_with_caustics(fam, p, params)[0])
                traj = trace(fam, p, v, n)
            except (NoSolution, NumericalStall):
                continue
            hit = np.flatnonzero(traj.reflection_counts == n)
            if hit.size:
                w = traj.directions[hit[0] + 1]
                results.append((float(np.linalg.norm(traj.points[hit[0]] - p)),
                                float(np.linalg.norm(w / np.linalg.norm(w) - v / np.linalg.norm(v)))))
                break
        else:
            raise ConstructionFailure(f"sample {i}")
    return PonceletReport(
        condition=True,
        n=n,
        caustics=tuple(params),
        samples=len(results),
        closed=sum(pos <= tol and dirr <= tol for pos, dirr in results),
        worst_position_error=max((pos for pos, _ in results), default=0.0),
        worst_direction_error=max((dirr for _, dirr in results), default=0.0),
    )


@pytest.mark.parametrize("n", [4, 6, 8])
def test_poncelet_matches_full_trace_reference_planar(n):
    roots = find_periodic_caustics_plane(FAM2, n)
    assert roots
    for seed, root in enumerate(roots, start=10 * n):
        rep = poncelet_verify(FAM2, (root,), n, samples=20, seed=seed)
        assert repr(rep) == repr(_reference_poncelet(FAM2, (root,), n, 20, seed))


@pytest.mark.parametrize("samples", [6, 0])
def test_poncelet_matches_full_trace_reference_spatial(samples):
    rep = poncelet_verify(FAM3, PAIR6, 6, samples=samples, seed=4)
    assert repr(rep) == repr(_reference_poncelet(FAM3, PAIR6, 6, samples, 4))
    assert rep.samples == samples


#: the roots of find_periodic_caustics_plane on (1,1) (2, 1) for n = 4, 6, 8
PONCELET_ROOTS = {
    4: (-2.0, -0.6666666666666671, 0.6666666666666667),
    6: (-1.053197264742181, -0.9536672493620416, -0.3094010767585029, 0.25319726474218074,
        1.3981116938064841, 4.309401076758506),
    8: (-1.9999999999999987, -1.0050444441498283, -0.9950455141222443, -0.6666666666666666,
        -0.173664573825367, 0.13461960020501174, 0.6666666666666664, 1.7902258539828222,
        2.3055889703049597),
}


def test_poncelet_reports_pinned():
    # repr of every report, seeds 0-2 with 20 samples, for each planar
    # root and the spatial pair, captured before the rounds went through
    # the private direction core: every bit of the path is kept
    reports = [repr(poncelet_verify(FAM2, (root,), n, samples=20, seed=seed))
               for n, roots in PONCELET_ROOTS.items() for root in roots for seed in (0, 1, 2)]
    reports += [repr(poncelet_verify(FAM3, PAIR6, 6, samples=20, seed=seed)) for seed in (0, 1, 2)]
    digest = hashlib.sha1("\n".join(reports).encode()).hexdigest()
    assert digest == "9d5ebf15e8d8d179d2c571be4a7e7fc6e5ca8828"


def test_poncelet_admits_its_caustics_once(monkeypatch):
    # the caustic set is admitted once per call, before the first round,
    # and each round of draws runs through the unchecked core
    admitted, rounds = [], []
    admissible, directions = billiard._admissible, periodicity._directions

    def counted(*args):
        admitted.append(args)
        return admissible(*args)

    def round_of_draws(*args):
        rounds.append(args)
        return directions(*args)

    monkeypatch.setattr(billiard, "_admissible", counted)
    monkeypatch.setattr(periodicity, "_admissible", counted)
    monkeypatch.setattr(periodicity, "_directions", round_of_draws)
    rep = poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=10, seed=0)
    assert rep.closed == 10
    assert len(rounds) >= 2 and len(admitted) == 1


def test_poncelet_redraws_a_stalled_sample(monkeypatch):
    # at a tolerance of 4e-16 some starts stall midway; each such sample
    # draws again from its own stream, as its one-sample trace would
    monkeypatch.setattr(billiard, "BOUNDARY_TOL", 4e-16)
    stalled, bounce = [], periodicity._bounce

    def recorded(*args):
        try:
            return bounce(*args)
        except NumericalStall:
            stalled.append(args)
            raise

    monkeypatch.setattr(periodicity, "_bounce", recorded)
    rep = poncelet_verify(FAM3, PAIR6, 6, samples=8, seed=1)
    assert stalled and rep.closed == 8
    assert repr(rep) == repr(_reference_poncelet(FAM3, PAIR6, 6, 8, 1))


def test_poncelet_open_orbits_stay_open():
    # a caustic failing the condition cannot be forced closed dynamically:
    # check via direct tracing instead of poncelet_verify (which guards)
    alpha = 0.5
    p = np.array([math.sqrt(2.0), 0.0])  # outside the caustic circle
    v = direction_with_caustics(FAM2, p, (alpha,))[0]
    v = inward_direction(FAM2, p, v)
    traj = trace(FAM2, p, v, 5)
    rep = closure_test(traj)
    assert not rep.closed


# ---------------------------------------------------------- rotation vector

#: The period-6 pair of the (5, 3, 2) family that the Newton search of the
#: former experiment script found.
SCRIPT_PAIR6 = (-2.320953597016259, 2.154286930349592)


def test_rotation_vector_is_integral_at_every_planar_root():
    # the oracle: n rho is an integer vector at each n-periodic caustic
    for n in range(4, 13):
        for r in find_periodic_caustics_plane(FAM2, n):
            w = n * rotation_vector(FAM2, (r,))
            assert np.abs(w - np.round(w)).max() <= 1e-9, (n, r, w)


def test_rotation_vector_is_not_integral_off_the_roots():
    w = 4 * rotation_vector(FAM2, (0.5,))
    assert np.abs(w - np.round(w)).max() > 1e-3


@pytest.mark.parametrize("pair", [SCRIPT_PAIR6, PAIR6], ids=["script-pair", "pair6"])
def test_rotation_vector_of_the_spatial_pairs(pair):
    w = 6 * rotation_vector(FAM3, pair)
    assert min(np.abs(w - [2, -1]).max(), np.abs(w + [2, -1]).max()) <= 1e-12


def test_rotation_vector_rejects_a_light_like_set():
    with pytest.raises(ValueError, match="light-like"):
        rotation_vector(FAM3, (1.0, INF))


def test_find_periodic_caustics_spatial():
    # ascending sets in sorted order, each periodic by both routes
    sets = find_periodic_caustics(FAM3, 10)
    assert len(sets) == 14
    assert sets == sorted(sets) and all(list(cs) == sorted(cs) for cs in sets)
    for cs in sets:
        assert cayley_condition(FAM3, cs, 10)
        w = 10 * rotation_vector(FAM3, cs)
        assert np.abs(w - np.round(w)).max() <= 1e-9
    assert np.asarray(find_periodic_caustics(FAM3, 6)) == pytest.approx(
        np.array([SCRIPT_PAIR6, PAIR6]), abs=1e-12)


@pytest.mark.parametrize("fam, n", [(FAM2, 4), (FAM3, 7), (FAM3, 4), (FAM3, 6.0)],
                         ids=["plane", "odd", "below-2d", "float"])
def test_find_periodic_caustics_rejects(fam, n):
    with pytest.raises(ValueError):
        find_periodic_caustics(fam, n)


@pytest.mark.parametrize("call", [
    lambda: poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=2.0),
    lambda: poncelet_verify(FAM2, (2.0 / 3.0,), 4.0),
    lambda: cayley_condition(FAM2, (2.0 / 3.0,), 4.0),
    lambda: trace(FAM2, [0.1, 0.2], [1.0, 0.4], 2.5),
    lambda: find_periodic_caustics(FAM3, 6.0),
    lambda: poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=True),
    lambda: find_periodic_caustics_plane(FAM2, 4.0),
    lambda: planar_cayley_det(FAM2, 0.5, 4.0),
    lambda: lightlike_period(1.0, 3.0, 10.5),
    lambda: lightlike_period(1.0, 3.0, True),
    lambda: lightlike_period(1.0, 3.0, -1),
    lambda: Signature(2.0, 1),
    lambda: Signature(1, True),
    lambda: sqrt_series([1.0, 2.0], 2.5),
    lambda: sqrt_series([1.0, 2.0], 0),
    lambda: cayley_matrix([1.0] * 12, 1, 6),
    lambda: poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=2, seed=1.5),
    lambda: poncelet_verify(FAM2, (2.0 / 3.0,), 4, samples=2, seed=True),
], ids=["poncelet-samples", "poncelet-n", "cayley-n", "trace-n", "search-n", "bool-samples",
        "planar-search-n", "planar-det-n", "lightlike-max-n",
        "lightlike-bool-max-n", "lightlike-negative-max-n", "signature-k", "bool-signature-l",
        "series-terms", "no-series-terms", "matrix-d", "poncelet-seed", "bool-seed"])
def test_every_count_must_be_an_int(call):
    # these raised a numpy or range TypeError, answered (a bool max_n or
    # seed, no series terms, d = 1), or built a signature that
    # ConfocalFamily failed on with a TypeError
    with pytest.raises(ValueError, match="must be an int"):
        call()


def test_lightlike_period_with_max_n_0_finds_nothing():
    assert lightlike_period(1.0, 3.0, 0) is None
    assert lightlike_period(1.0, 3.0, 6) == (6, 1)

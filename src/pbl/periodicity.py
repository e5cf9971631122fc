"""Closure conditions for billiard trajectories with fixed caustics.

The analytic route: a trajectory with caustic parameters alpha_1..alpha_{d-1}
is n-periodic iff a Hankel-type matrix built from the Taylor coefficients of
sqrt(P1(lam)) is rank deficient, where P1 collects the caustic and axis
factors of the pencil.  The dynamic route simulates the trajectory and tests
closure directly; keeping both honest against each other is the point of
this module.

The series is computed for P1 normalized by its constant term, which leaves
every rank unchanged (the square root of the constant scales all
coefficients uniformly, even when the constant is negative and the scaling
is imaginary) and keeps the arithmetic rational for rational input.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .billiard import (
    _admissible,
    _bounce,
    _closure_errors,
    _directions,
    _inward,
    random_boundary_point,
)
from .confocal import INF, CausticSet, ConfocalFamily, _caustic_set
from .errors import (
    CayleyConditionFailed,
    ConstructionFailure,
    DegenerateConfiguration,
    InsufficientOrder,
    NoSolution,
    NonpositiveConstantTerm,
    NumericalStall,
    OddPeriod,
    VacuousCondition,
    ValidationError,
)
from .metric import _as_count, _as_scalar, _is_real, _read_only
from ._poly import linear_product, poly_mul

#: Absolute tolerance when matching arctan sqrt(a/b) against pi-rational angles.
ANGLE_TOL = 1e-12

#: Relative width at which the refinement of a determinant sign change stops.
BISECT_TOL = 1e-13

#: Evenly spaced scan points of the planar search on [-b - 3 (a + b), a + 3 (a + b)].
SCAN_SAMPLES = 4001

#: Boundary points a Poncelet sample may draw before it gives up.
SAMPLE_BUDGET = 60

#: Singular values below this times the scale do not count toward the
#: float rank.
RANK_TOL = 1e-9

#: Quadrature nodes of each rotation-vector integral.
ROTATION_NODES = 200

#: Chebyshev-clustered grid points per caustic of the spatial search.
GRID_POINTS = 16


def _exact_sqrt(q) -> Fraction | None:
    """Exact square root of a rational, or None if it is not a square."""
    f = Fraction(q)
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_series(q, n_terms: int) -> list:
    """First n_terms Taylor coefficients of sqrt(q(lam)) at lam = 0.

    ``q`` is an ascending coefficient list with q[0] > 0.  The recurrence
        B_n = (q_n - sum_{i=1}^{n-1} B_i B_{n-i}) / (2 B_0)
    stays in exact rational arithmetic when every coefficient is an int or
    Fraction and q[0] is a perfect square; otherwise it runs on Python
    floats, with no numpy call, unless a coefficient is an array: arrays of
    one shape run every entry at once, B[k][j] being coefficient k of
    series j.  ValueError unless n_terms is an int >= 1.
    """
    if not q:
        raise ValueError("empty coefficient list")
    _as_count(n_terms, "n_terms", 1)
    exact_in = all(isinstance(c, (int, Fraction)) for c in q)
    q0 = q[0]
    if exact_in:
        b0 = _exact_sqrt(q0)
        if q0 <= 0:
            raise NonpositiveConstantTerm(f"constant term {q0} is not positive")
        if b0 is None:
            exact_in = False
    if not exact_in:
        scalar = all(isinstance(c, (int, float, Fraction)) for c in q)
        q = [float(c) if scalar or not np.ndim(c) else np.asarray(c, dtype=float) for c in q]
        q0 = q[0]
        if (q0 <= 0.0) if scalar else np.any(q0 <= 0.0):
            raise NonpositiveConstantTerm(f"constant term {q0} is not positive")
        b0 = math.sqrt(q0) if scalar else np.sqrt(q0)
    coeffs = list(q) + [0 * q0] * max(0, n_terms - len(q))
    B = [b0]
    for n in range(1, n_terms):
        acc = coeffs[n]
        for i in range(1, n):
            acc = acc - B[i] * B[n - i]
        B.append(acc / (2 * b0))
    return B


def build_P1(fam: ConfocalFamily, params) -> list:
    """Ascending coefficients of the pencil product for the caustic set.

    P1(lam) = prod_finite (alpha_i - lam) * ``fam.pencil_product``, over
    the finite caustics of ``_caustic_set``; the light-like caustic +inf
    contributes no factor.  Rational input stays rational.  A finite
    caustic that is zero, degenerate or collides with another raises
    DegenerateConfiguration (``fam.check_caustic_values``).
    """
    finite = _caustic_set(fam, params).finite
    fam.check_caustic_values(finite)
    return poly_mul(linear_product(finite, [-1] * len(finite)), fam.pencil_product)


def cayley_matrix(B, d: int, n: int) -> np.ndarray:
    """Hankel-type closure matrix for period n in dimension d.

    Even n = 2m: shape (m-1, m-d+1) with entries B[d+1+i+j]; odd n = 2m+1:
    shape (m, m-d+2) with entries B[d+i+j].  Periodicity holds iff the
    columns are dependent, i.e. rank < number of columns.  Array
    coefficients (a batch of float series) give a stack of matrices with
    the batch axes first.  ValueError unless d is an int >= 2 and n one >= 3.
    """
    _as_count(d, "d", 2)
    _as_count(n, "period", 3)
    if n % 2 == 0:
        m = n // 2
        rows, cols, base = m - 1, m - d + 1, d + 1
    else:
        m = (n - 1) // 2
        rows, cols, base = m, m - d + 2, d
    if cols < 1 or rows < 1:
        raise VacuousCondition(
            f"period {n} in dimension {d} yields an empty closure matrix"
        )
    need = base + rows - 1 + cols - 1
    if len(B) <= need:
        raise InsufficientOrder(f"need series terms up to index {need}, got {len(B) - 1}")
    hankel = [B[base + i:base + i + cols] for i in range(rows)]
    if all(isinstance(b, (int, Fraction)) for b in B):
        return np.array(hankel, dtype=object)
    M = np.asarray(hankel, dtype=float)
    return M if M.ndim == 2 else np.moveaxis(M, (0, 1), (-2, -1))


def _exact_rank(M: np.ndarray) -> int:
    rows = [[Fraction(x) for x in row] for row in M.tolist()]
    rank = 0
    col = 0
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    while rank < n_rows and col < n_cols:
        pivot = None
        for r in range(rank, n_rows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, n_rows):
            f = rows[r][col] / pv
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def numerical_rank(M: np.ndarray, scale: float | None = None) -> int:
    """Rank of M: exact over the rationals, else by SVD thresholding.

    Float path counts singular values above RANK_TOL * scale, with scale
    defaulting to the largest singular value; a given scale must be finite
    and >= 0 (ValueError).
    """
    if scale is not None:
        _as_scalar(scale, "scale", ">= 0")
    if M.size == 0:
        return 0
    if M.dtype == object:
        return _exact_rank(M)
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    ref = smax if scale is None else float(scale)
    if ref == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * ref))


def normalized_sqrt_series(fam: ConfocalFamily, params, n_terms: int, exact: bool = False) -> list:
    """Series of sqrt(P1/P1(0)) for ``build_P1``; rank computations are
    insensitive to the dropped sqrt(P1(0)) factor, so a negative constant
    term is harmless."""
    if exact:
        fam = ConfocalFamily(fam.sig, tuple(Fraction(a) for a in fam.axes))
        params = [p if p == INF else Fraction(p) for p in _caustic_set(fam, params)]
    p1 = build_P1(fam, params)
    if not p1[0]:  # a product of caustics and axes that underflows
        raise DegenerateConfiguration(f"P1(0) of caustics {params} underflows to 0")
    return sqrt_series([c / p1[0] for c in p1], n_terms)


def cayley_condition(fam: ConfocalFamily, params, n: int, exact: bool = False) -> bool:
    """Analytic n-periodicity test for trajectories with the given caustics.

    Builds the closure matrix from the normalized square-root series and
    tests column dependence.  ``exact=True`` converts axes and caustics to
    Fractions (floats convert to their exact binary value) and decides the
    rank without rounding, and with no float scale, which the exact
    coefficients could overflow.  ValueError unless n is an int >= 3.
    """
    _as_count(n, "period", 3)
    B = normalized_sqrt_series(fam, params, n, exact=exact)
    M = cayley_matrix(B, fam.d, n)
    scale = None if exact else max(1.0, max(abs(float(b)) for b in B))
    return numerical_rank(M, scale=scale) < M.shape[1]


# ---------------------------------------------------------- rotation vector


@functools.cache
def _quadrature() -> tuple:
    """Read-only Gauss-Chebyshev and Gauss-Legendre nodes on [0, 1], and the latter's weights."""
    x, w = np.polynomial.legendre.leggauss(ROTATION_NODES)
    theta = math.pi * (np.arange(ROTATION_NODES) + 0.5) / ROTATION_NODES
    return tuple(map(_read_only, (0.5 * (1.0 + np.cos(theta)), 0.5 * (x + 1.0), 0.5 * w)))


def _integrals(e: np.ndarray, lam: np.ndarray, g: int, weight) -> np.ndarray:
    """Per row, sum_k weight_k lam_k^j / sqrt(prod_m |lam_k - e_m|), j < g;
    |x| = sign(Re x) x passes a complex step."""
    prod = np.ones_like(lam)
    for m in range(e.shape[1]):
        diff = lam - e[:, m, None]
        prod = prod * (np.sign(diff.real) * diff)
    powers = np.arange(g)[:, None]
    return np.sum(lam[:, None] ** powers * (weight / np.sqrt(prod))[:, None], axis=-1)


def _rotation(e: np.ndarray, p: int) -> tuple:
    """``rotation_vector`` of the rows of ``e``: branch points ascending by
    real part, the first p below 0 in every row.  Also returns the half
    period of the rows whose e* is above 0; rho minus it is continuous."""
    c, s, w = _quadrature()
    g = e.shape[1] // 2
    cols = [i for i in range(e.shape[1] - 1) if (i - p) % 2]  # where P1 has the sign of P1(0)
    columns = []
    for i in cols:
        lam = e[:, i, None] + (e[:, i + 1, None] - e[:, i, None]) * c
        columns.append(_integrals(np.delete(e, [i, i + 1], axis=1), lam, g,
                                  2.0 * math.pi / ROTATION_NODES))
    omega = np.stack(columns, axis=-1)
    # a signed axis lies on each side of 0, so 0 < p < 2g + 1
    star = p - 1 + (np.abs(e[:, p].real) < np.abs(e[:, p - 1].real))
    e_star = np.take_along_axis(e, star[:, None], axis=1)
    rest = e[np.arange(e.shape[1]) != star[:, None]].reshape(len(e), -1)
    integral = _integrals(rest, e_star * (1.0 - s * s), g,
                          2.0 * w * e_star / np.sqrt(np.sign(e_star.real) * e_star))
    rho = np.linalg.solve(omega, integral[..., None])[..., 0]
    return rho, 0.5 * (star == p)[:, None] * np.equal(cols, p - 1)


def rotation_vector(fam: ConfocalFamily, params) -> np.ndarray:
    """Rotation vector rho = Omega^-1 I of a caustic set without +inf
    (ValueError; DegenerateConfiguration as ``build_P1``).

    The branch points e_1 < ... < e_{2g+1}, g = d - 1, are the finite
    caustics and the signed axes; |P1| = prod |lam - e_i|.  Column k of
    Omega is 2 int lam^j dlam / sqrt|P1|, j < g, over the k-th bounded
    (e_i, e_{i+1}) where P1 has the sign of P1(0) (Gauss-Chebyshev), and
    I_j = int_0^{e*} lam^j dlam / sqrt|P1|, e* the branch point nearest 0
    (Gauss-Legendre in s, lam = e* (1 - s^2)).  For even n, the set is
    n-periodic iff n rho is integral; another e* moves rho by half a period.
    """
    cs = _caustic_set(fam, params)
    if cs.has_infinite:
        raise ValueError("the rotation vector of a light-like caustic set is not implemented")
    fam.check_caustic_values(cs.finite)
    e = np.sort(np.concatenate([cs.finite, fam.signed_axes]))
    rho, _ = _rotation(e[None], int(np.count_nonzero(e < 0.0)))
    return rho[0]


def _hankel_det(h, k: int):
    """det[h_{i+j}]_{i, j < k}, k <= 3, of floats or float arrays h in closed
    form, read as 0 below its rounding bound (Higham 2002, ch. 3: u = 2^-53,
    gamma_j = j u / (1 - j u)).  k = 1 is h_0, exact.  k = 2 is fl(h0 h2) -
    fl(h1 h1), within gamma_2 T, T = |h0 h2| + h1^2.  k = 3 expands by the
    first row: minor m_i = p_i - q_i, of two rounded products, is within
    gamma_2 M_i, M_i = |p_i| + |q_i| exactly, and the signed dot product of
    the h_i and m_i adds gamma_3 (1 + gamma_2) P, P = sum_i |h_i| M_i: within
    gamma_5 P (Lemma 3.3).  The bounds 3u T and 6u P, formed as written from
    the rounded products, are 3 and 6 roundings deep, each at most a factor
    1 - u down, and 3 (1 - u)^3 > 2 / (1 - 2u), 6 (1 - u)^6 > 5 / (1 - 5u).
    So a value not read as 0 has the exact sign, and one read as 0 is within
    twice its bound of it, while no product or sum overflows or underflows.
    Float h gives a float, float arrays an array."""
    if k == 1:
        return h[0]
    if k == 2:
        p, q = h[0] * h[2], h[1] * h[1]
        value, bound = p - q, 3 * 2.0**-53 * (abs(p) + q)
    else:
        p0, q0 = h[2] * h[4], h[3] * h[3]
        p1, q1 = h[1] * h[4], h[2] * h[3]
        p2, q2 = h[1] * h[3], h[2] * h[2]
        value = h[0] * (p0 - q0) - h[1] * (p1 - q1) + h[2] * (p2 - q2)
        bound = 6 * 2.0**-53 * (abs(h[0]) * (abs(p0) + q0) + abs(h[1]) * (abs(p1) + abs(q1))
                                + abs(h[2]) * (abs(p2) + q2))
    if isinstance(value, float):
        return 0.0 if abs(value) < bound else value
    return np.where(abs(value) < bound, 0.0, value)


def planar_cayley_det(fam: ConfocalFamily, alpha, n: int):
    """Determinant of the (square, planar) closure matrix at caustic alpha.

    ``alpha`` is a scalar (``_is_real``), run on Python floats, or an array
    of ints or floats, run entry by entry at once; else ValueError.  For
    n <= 8 the determinant is a closed form, read as 0 within its rounding
    bound, so one that is not 0 has the exact sign for the float series
    (``_hankel_det``); for n >= 9 one ``np.linalg.det`` call runs on the
    matrix or the stack.  Where ``fam.is_zero_caustic`` or
    ``fam.is_degenerate_parameter`` holds (also at +-inf and nan), or where
    P1(0) = alpha a b underflows to 0, the series does not exist: an array
    holds nan, a scalar raises DegenerateConfiguration.  Light-like closure is
    ``cayley_condition(fam, (inf,), n)``.  ValueError unless n is an int >= 3.
    """
    _as_count(n, "period", 3)
    if fam.d != 2:
        raise ValueError("determinant scan is specific to the planar case")
    scalar = _is_real(alpha)
    pencil = [float(c) for c in fam.pencil_product]
    if scalar:
        alpha = float(alpha)
        if (fam.is_degenerate_parameter(alpha) or fam.is_zero_caustic(alpha)
                or not alpha * pencil[0]):
            raise DegenerateConfiguration(f"no closure series at caustic {alpha}")
    else:
        if np.asarray(alpha).dtype.kind not in "iuf":
            raise ValueError(f"alpha must be real numbers, got {alpha!r}")
        alpha = np.asarray(alpha, dtype=float)
        good = ~(fam.is_degenerate_parameter(alpha) | fam.is_zero_caustic(alpha))
        good &= alpha * pencil[0] != 0.0
        alpha = np.where(good, alpha, math.nan)
    p1 = poly_mul([alpha, -1.0], pencil)
    B = sqrt_series([c / p1[0] for c in p1], n)
    if n <= 8:  # the series is nan where not good
        return _hankel_det(B[3 - n % 2:], (n - 1) // 2)
    if scalar:
        return float(np.linalg.det(cayley_matrix(B, 2, n)))
    det = np.full(alpha.shape, math.nan)
    det[good] = np.linalg.det(cayley_matrix(B, 2, n)[good])
    return det


# ------------------------------------------------------ light-like closure


def lightlike_period(a, b, max_n: int = 128):
    """Smallest even n with arctan sqrt(a/b) = k pi / n, gcd(k, n/2) = 1.

    Returns (n, k) or None when no match exists up to max_n, an int >= 0
    (else ValueError).  The winding
    number k also predicts the bounce split between the two positive
    boundary arcs: k hits on one, n/2 - k on the other.

    The admissible k/n are the p/q in (0, 1/2) in lowest terms: n = q for
    even q, n = 2q for odd q.  Fractions with denominators up to max_n are
    more than 1/max_n^2 apart, so for max_n <= 10**6 (pi/max_n^2 > 2
    ANGLE_TOL) only the best approximation of theta/pi can match.  Axes
    that are not finite and positive raise ValueError.
    """
    _as_scalar(a, "a", "positive")
    _as_scalar(b, "b", "positive")
    _as_count(max_n, "max_n", 0)
    theta = math.atan(math.sqrt(float(a) / float(b)))
    frac = Fraction(theta / math.pi).limit_denominator(max(1, max_n))
    k, n = frac.numerator, frac.denominator
    if n % 2:
        k, n = 2 * k, 2 * n
    if n <= max_n and 0 < k < n // 2 and abs(theta - k * math.pi / n) <= ANGLE_TOL:
        return n, k
    return None


def count_axis_ratios(n: int) -> int:
    """Number of axis ratios a/b (up to swapping a and b) whose light-like
    billiard is n-periodic.

    Enumerates admissible winding numbers k (coprime with n/2) and
    identifies k with n/2 - k, which swaps the ratio with its reciprocal.
    For n > 4 this equals phi(n)/2 when 4 does not divide n and phi(n)/4
    when it does; at n = 4 the lone ratio 1 is self-reciprocal.  An odd
    int n raises OddPeriod, any other n that is not an int >= 4 ValueError.
    """
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n % 2:
        raise OddPeriod("light-like trajectories have even period")
    _as_count(n, "period", 4)
    half = n // 2
    ks = [k for k in range(1, half) if gcd(k, half) == 1]
    return len({frozenset((k, half - k)) for k in ks})


# --------------------------------------------------------- periodic search


@np.errstate(over="ignore")  # past n = 12 the determinant reaches +-inf next to 0
def find_periodic_caustics_plane(fam: ConfocalFamily, n: int) -> list:
    """All caustic parameters whose planar trajectories are n-periodic,
    found as sign changes of the closure determinant.

    The scan covers [-b - 3 (a + b), a + 3 (a + b)], where the classical
    closed-form solutions lie (ab/(b - a) falls below -b for a > b), with
    SCAN_SAMPLES evenly spaced points split at 0, and skips |alpha| <
    1e-9 (a + b), where the normalized series has a pole.  Each side then
    runs on outward, to about 6.6e3 (a + b) past its edge, with a tail of
    64 points of ``_interval_grid``, whose spacing grows with the distance.
    The scan misses roots of even multiplicity (the determinant does not
    change sign there; the classical period conditions have simple roots),
    roots beyond the tails' reach, and two roots closer together than the
    scan spacing.  Roots that coincide with the degenerate pencil values a
    and -b, or with 0, are dropped.

    Each side of 0 is sampled in one array call of ``planar_cayley_det``
    (nan at degenerate samples, which bound no sign change).  A sample
    where the determinant is 0 (for n <= 8, within its rounding bound of 0)
    is a root.  Every sign change is then refined on its own by safeguarded
    Illinois steps (Dowell and Jarratt, 1971), each one scalar call of
    ``planar_cayley_det`` on Python floats (``_refine_sign_change``).
    A step takes the secant point of the bracket, and a secant step halves
    the value held at the end it keeps unless the step before set that end
    by a secant point.  A step takes the midpoint instead when the secant
    point is not finite or not strictly inside the bracket, when the
    previous secant point gave nan, or when the bracket has not halved over
    the last two steps.  So the first step is a midpoint, which keeps
    secant steps from settling on a degenerate value next to the root,
    where the determinant goes to 0 without changing sign.  A 0 is a
    root.  A bracket stops when it is narrower than ``BISECT_TOL`` relative
    to its midpoint, at a nan midpoint, or after 200 steps.  ValueError
    unless n is an int >= 3.
    """
    _as_count(n, "period", 3)
    if fam.d != 2:
        raise ValueError("this search is specific to the planar case")
    a, b = (float(t) for t in fam.axes)
    span = a + b
    lo, hi, delta = -b - 3.0 * span, a + 3.0 * span, 1e-9 * span
    sides = (
        np.concatenate([_interval_grid(-INF, lo, span, 64)[::-1],
                        np.linspace(lo, -delta, int(SCAN_SAMPLES * (-delta - lo) / (hi - lo)))]),
        np.concatenate([np.linspace(delta, hi, int(SCAN_SAMPLES * (hi - delta) / (hi - lo))),
                        _interval_grid(hi, INF, span, 64)]),
    )
    roots: list[float] = []
    for xs in sides:
        vals = planar_cayley_det(fam, xs, n)
        zero = vals == 0.0
        zero[:-1] &= ~np.isnan(vals[1:])
        roots.extend(xs[zero].tolist())
        change = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0
        ends = (xs[:-1][change], xs[1:][change], vals[:-1][change], vals[1:][change])
        roots.extend(_refine_sign_change(fam, n, *bracket)
                     for bracket in zip(*(end.tolist() for end in ends)))

    keep: list[float] = []
    for r in sorted(roots):
        if abs(r - a) <= 1e-7 * span or abs(r + b) <= 1e-7 * span or abs(r) <= 1e-7 * span:
            continue
        if keep and abs(r - keep[-1]) <= 1e-8 * max(1.0, abs(r)):
            continue
        keep.append(r)
    return keep


def _refine_sign_change(fam: ConfocalFamily, n: int, lo: float, hi: float,
                        f_lo: float, f_hi: float) -> float:
    """Midpoint of the bracket [lo, hi] of a determinant sign change (f_lo
    at lo, f_hi at hi), refined as ``find_periodic_caustics_plane`` says;
    a DegenerateConfiguration of a step reads as nan."""
    w1 = w2 = hi - lo  # bracket widths one and two steps back
    fresh = 0  # +1 (-1) when the last step's secant point set lo (hi)
    nan_secant = False
    for _ in range(200):
        mid, width = 0.5 * (lo + hi), hi - lo
        if not width > BISECT_TOL * max(1.0, abs(mid)):
            break
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi)) if f_lo != f_hi else math.nan
        bisect = not lo < x < hi or nan_secant or width > 0.5 * w2
        x = mid if bisect else x
        w1, w2 = width, w1
        try:
            f = planar_cayley_det(fam, x, n)
        except DegenerateConfiguration:
            f = math.nan
        nan_secant = f != f
        if nan_secant and bisect:
            break
        left = f_lo < 0.0 < f or f < 0.0 < f_lo  # the root is in [lo, x]
        right = f_hi < 0.0 < f or f < 0.0 < f_hi  # the root is in [x, hi]
        if f == 0.0:
            lo = hi = x
        elif right:  # Illinois: a secant step halves a stale kept end
            lo, f_lo, f_hi = x, f, f_hi * (1.0 if bisect or fresh < 0 else 0.5)
        elif left:
            hi, f_hi, f_lo = x, f, f_lo * (1.0 if bisect or fresh > 0 else 0.5)
        fresh = 0 if bisect else right - left
    return 0.5 * (lo + hi)


def find_periodic_caustics(fam: ConfocalFamily, n: int) -> list:
    """n-periodic caustic sets of a family with d >= 3, for an even
    n >= 2d (else ValueError), as ascending tuples in sorted order.

    A band puts each caustic in an interval of the line cut at the signed
    axes and at 0; only bands on the interlacing pattern are searched.  A
    caustic takes GRID_POINTS Chebyshev-clustered values per interval
    (``_interval_grid``).  For each winding vector m = round(n rho) met on
    a band's grid, one Newton run (``_band_roots``) starts at the grid set
    nearest m, so the search returns at most one set per band and m: a
    second root with the same m in the same band is missed.  Kept are the
    sets that pass the interlacing pattern and ``cayley_condition``, less
    those within 1e-9 (a_1 + a_d) of a kept one.
    """
    d, g, span = fam.d, fam.d - 1, fam.scale
    _as_count(n, "period", 2 * d)
    if d < 3 or n % 2:
        raise ValueError(f"the spatial search needs d >= 3 and an even period, got {d}, {n}")
    edges = np.concatenate([[-INF], np.sort(np.append(fam.signed_axes, 0.0)), [INF]])
    found = []
    for band in itertools.combinations_with_replacement(range(d + 2), g):
        lo = edges[list(band)]
        hi = edges[[b + 1 for b in band]]
        values = [_interval_grid(lo_i, hi_i, span, GRID_POINTS) for lo_i, hi_i in zip(lo, hi)]
        grid = np.stack(np.meshgrid(*values, indexing="ij"), axis=-1).reshape(-1, g)
        grid = grid[np.all(np.diff(grid, axis=1) > 0.0, axis=1)]
        try:
            _admissible(fam, CausticSet(tuple(grid[0])))
        except ValidationError:
            continue
        found.extend(_band_roots(fam, n, grid, lo, hi))
    keep: list[tuple] = []
    for alpha in sorted(found):
        try:
            _admissible(fam, CausticSet(alpha))
            periodic = cayley_condition(fam, alpha, n)
        except ValidationError:
            continue
        if not periodic:
            continue
        if all(max(abs(x - y) for x, y in zip(alpha, k)) > 1e-9 * span for k in keep):
            keep.append(alpha)
    return keep


def _interval_grid(lo: float, hi: float, span: float, points: int) -> np.ndarray:
    """``points`` values in (lo, hi) at u = (1 - cos(pi (i + 1/2) / points)) / 2,
    i < points, clustered at both ends; on (-inf, hi) alpha = hi - span u / (1 - u),
    likewise on (lo, inf)."""
    u = 0.5 * (1.0 - np.cos(math.pi * (np.arange(points) + 0.5) / points))
    if lo == -INF:
        return hi - span * u / (1.0 - u)
    if hi == INF:
        return lo + span * u / (1.0 - u)
    return lo + (hi - lo) * u


def _band_roots(fam: ConfocalFamily, n: int, grid: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> list:
    """Newton on n rho(alpha) = m in the band (lo, hi), one run per m met on
    its grid.  The Jacobian comes from a complex step alpha + h i e_q
    through the same quadrature.  A run stops at max |n rho - m| < 1e-13;
    it is dropped after 40 steps or when it leaves its band or passes
    1e6 (a_1 + a_d)."""
    d, g, span, h = fam.d, fam.d - 1, fam.scale, 1e-30
    branch = np.concatenate([grid[0], fam.signed_axes])
    order = np.argsort(branch)
    p = int(np.count_nonzero(branch < 0.0))

    def winding(alpha):
        axes = np.broadcast_to(fam.signed_axes, (len(alpha), d))
        rho, half = _rotation(np.concatenate([alpha, axes], axis=1)[:, order], p)
        return n * (rho - half)  # continuous across the band

    values = winding(grid)
    target = np.round(values)
    miss = np.max(np.abs(values - target), axis=1)
    roots = []
    for m in np.unique(target[np.isfinite(miss)], axis=0):
        rows = np.flatnonzero(np.all(target == m, axis=1))
        alpha = grid[rows[np.argmin(miss[rows])]]
        for _ in range(40):
            stepped = winding(alpha + h * 1j * np.eye(g))  # row q steps caustic q
            residual = stepped[0].real - m
            if np.max(np.abs(residual)) < 1e-13:
                roots.append(tuple(alpha.tolist()))
                break
            jacobian = stepped.imag.T / h
            alpha = alpha - np.linalg.lstsq(jacobian, residual)[0]
            inside = (lo < alpha) & (alpha < hi) & (np.abs(alpha) < 1e6 * span)
            if not (inside.all() and np.all(np.diff(alpha) > 0.0)):
                break
    return roots


# ----------------------------------------------------- simulated closure


@dataclass(frozen=True)
class PonceletReport:
    condition: bool
    n: int
    caustics: tuple
    samples: int
    closed: int
    worst_position_error: float
    worst_direction_error: float


def poncelet_verify(fam: ConfocalFamily, params, n: int, samples: int = 20,
                    seed: int = 0, tol: float = 1e-6) -> PonceletReport:
    """Simulate closure from random boundary points for a caustic set that
    satisfies the analytic period condition.

    Raises CayleyConditionFailed if the analytic condition fails, the
    errors of ``direction_with_caustics`` for a caustic set it does not
    admit (checked once per call), ValueError unless samples and seed are
    ints >= 0, n one >= 3 and tol is finite and >= 0.
    Sample i draws from its own stream, seeded with (seed, i), so it does
    not depend on the other samples.  A draw with no real direction toward
    the caustics, a stall, or a last double bounce past n is redrawn, and
    ConstructionFailure ends a sample after SAMPLE_BUDGET draws.

    The samples run in rounds: round r makes draw r of every sample still
    open, with one stacked pass of the core ``_directions``, and then
    bounces each drawn start with ``_bounce``, the loop of ``trace``.  Each
    sample takes the first direction of its point, turned inward by
    ``inward_direction``'s unchecked core (a tangent one is redrawn), so
    it draws the same starts in the same order as it would alone.
    """
    _as_count(samples, "samples", 0)
    _as_count(seed, "seed", 0)
    _as_scalar(tol, "tolerance", ">= 0")
    params = tuple(params)
    if not cayley_condition(fam, params, n):
        raise CayleyConditionFailed(
            f"caustics {params} do not satisfy the period-{n} condition"
        )
    cs = _caustic_set(fam, params)
    _admissible(fam, cs)
    rngs = [np.random.default_rng([seed, i]) for i in range(samples)]
    # per sample: start point and direction, n-th bounce point and direction
    states = np.empty((4, samples, fam.d))
    todo, den = np.arange(samples), fam.axes_f.tolist()
    for _ in range(SAMPLE_BUDGET):
        if not todo.size:
            break
        p = np.array([random_boundary_point(fam, rngs[i]) for i in todo])
        V, kept, _ = _directions(fam, p, cs)
        v = V[np.arange(len(todo)), np.argmax(kept, axis=1)]
        ends = []
        for j in np.flatnonzero(kept.any(1)).tolist():
            pj = p[j].tolist()
            try:
                v_in = _inward(den, pj, v[j].tolist())
                points, directions, _, refl = _bounce(fam, pj, v_in, n)
            except (NoSolution, NumericalStall):
                continue
            if refl == n:
                states[:, todo[j]] = pj, v_in, points[-1], directions[-1]
                ends.append(j)
        todo = np.delete(todo, ends)
    if todo.size:
        raise ConstructionFailure(
            f"sample {todo[0]} not constructed within {SAMPLE_BUDGET} attempts")
    pos, dirr = _closure_errors(states[2], states[3], states[0], states[1])
    return PonceletReport(
        condition=True,
        n=n,
        caustics=params,
        samples=samples,
        closed=int(np.count_nonzero((pos <= tol) & (dirr <= tol))),
        worst_position_error=float(np.max(pos, initial=0.0)),
        worst_direction_error=float(np.max(dirr, initial=0.0)),
    )

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

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .billiard import (
    direction_with_caustics,
    inward_direction,
    random_boundary_point,
    trace,
)
from .confocal import DEGENERATE_TOL, INF, ConfocalFamily
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
)
from ._poly import linear_product

#: Absolute tolerance when matching arctan sqrt(a/b) against pi-rational angles.
ANGLE_TOL = 1e-12

#: Relative width at which the bisection of a determinant sign change stops.
BISECT_TOL = 1e-13

#: Scan points of a planar search window, unless it says otherwise.
SCAN_SAMPLES = 4001

#: Boundary points a Poncelet sample may draw before it gives up.
SAMPLE_BUDGET = 60

#: Singular values below this times the scale do not count toward the
#: float rank.
RANK_TOL = 1e-9


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
    Fraction and q[0] is a perfect square; otherwise it runs in floats.
    Float coefficients may be arrays of one shape: the recurrence then runs
    on every entry at once, B[k][j] being coefficient k of series j.
    """
    if not q:
        raise ValueError("empty coefficient list")
    exact_in = all(isinstance(c, (int, Fraction)) for c in q)
    q0 = q[0]
    if exact_in:
        b0 = _exact_sqrt(q0)
        if q0 <= 0:
            raise NonpositiveConstantTerm(f"constant term {q0} is not positive")
        if b0 is None:
            exact_in = False
    if not exact_in:
        q = [np.asarray(c, dtype=float) if np.ndim(c) else float(c) for c in q]
        q0 = q[0]
        if np.any(q0 <= 0.0):
            raise NonpositiveConstantTerm(f"constant term {q0} is not positive")
        b0 = np.sqrt(q0) if np.ndim(q0) else math.sqrt(q0)
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

    P1(lam) = prod_finite (alpha_i - lam) * prod_j (a_j - eps_j lam); the
    light-like caustic +inf contributes no factor.  Rational input stays
    rational.  Any other parameter that is degenerate
    (``fam.is_degenerate_parameter``: also nan and -inf) or collides with
    another (within DEGENERATE_TOL times a_1 + a_d, an even factor under
    the square root) raises DegenerateConfiguration.
    """
    params = tuple(params)
    if len(params) != fam.d - 1:
        raise ValueError(f"expected {fam.d - 1} caustic parameters, got {len(params)}")
    finite = [p for p in params if p != INF]
    vals = sorted(float(p) for p in finite)
    if (np.any(fam.is_degenerate_parameter(vals))
            or np.any(np.diff(vals) <= DEGENERATE_TOL * fam.scale)):
        raise DegenerateConfiguration(
            f"caustic parameters {vals} are degenerate or collide with each other"
        )
    slopes = [-1] * len(finite) + [-e for e in fam.eps_exact]
    return linear_product(finite + list(fam.axes), slopes)


def cayley_matrix(B, d: int, n: int) -> np.ndarray:
    """Hankel-type closure matrix for period n in dimension d.

    Even n = 2m: shape (m-1, m-d+1) with entries B[d+1+i+j]; odd n = 2m+1:
    shape (m, m-d+2) with entries B[d+i+j].  Periodicity holds iff the
    columns are dependent, i.e. rank < number of columns.  Array
    coefficients (a batch of float series) give a stack of matrices with
    the batch axes first.
    """
    if n < 3:
        raise ValueError("period must be at least 3")
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
    index = base + np.add.outer(np.arange(rows), np.arange(cols))
    if all(isinstance(b, (int, Fraction)) for b in B):
        return np.array(B, dtype=object)[index]
    return np.moveaxis(np.asarray(B, dtype=float), 0, -1)[..., index]


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
    defaulting to the largest singular value.
    """
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
    """Series of sqrt(P1/P1(0)); rank computations are insensitive to the
    dropped sqrt(P1(0)) factor, so a negative constant term is harmless.
    A zero caustic makes P1(0) vanish and raises DegenerateConfiguration."""
    if exact:
        fam = ConfocalFamily(fam.sig, tuple(Fraction(a) for a in fam.axes))
        params = tuple(
            p if (not isinstance(p, Fraction) and not math.isfinite(p)) else Fraction(p)
            for p in params
        )
    p1 = build_P1(fam, params)
    if fam.is_zero_caustic(params).any():
        raise DegenerateConfiguration("a caustic parameter is 0: P1 vanishes at lambda = 0")
    return sqrt_series([c / p1[0] for c in p1], n_terms)


def cayley_condition(fam: ConfocalFamily, params, n: int, exact: bool = False) -> bool:
    """Analytic n-periodicity test for trajectories with the given caustics.

    Builds the closure matrix from the normalized square-root series and
    tests column dependence.  ``exact=True`` converts axes and caustics to
    Fractions (floats convert to their exact binary value) and decides the
    rank without rounding.
    """
    B = normalized_sqrt_series(fam, params, n, exact=exact)
    M = cayley_matrix(B, fam.d, n)
    scale = max(1.0, max(abs(float(b)) for b in B))
    return numerical_rank(M, scale=scale) < M.shape[1]


def planar_cayley_det(fam: ConfocalFamily, alpha, n: int):
    """Determinant of the (square, planar) closure matrix at caustic alpha.

    ``alpha`` is a scalar or an array; P1, the series and the matrices are
    built for every entry at once, and one determinant call runs on the
    stack.  Where ``fam.is_zero_caustic`` or ``fam.is_degenerate_parameter``
    holds (also at +-inf and nan) the series does not exist: an array holds
    nan, a scalar raises DegenerateConfiguration.  Light-like closure is
    ``cayley_condition(fam, (inf,), n)``.
    """
    if fam.d != 2:
        raise ValueError("determinant scan is specific to the planar case")
    alpha = np.asarray(alpha, dtype=float)
    good = ~(fam.is_degenerate_parameter(alpha) | fam.is_zero_caustic(alpha))
    slopes = [-1] + [-e for e in fam.eps_exact]
    p1 = linear_product([np.where(good, alpha, math.nan), *fam.axes_f], slopes)
    M = cayley_matrix(sqrt_series([c / p1[0] for c in p1], n), 2, n)
    det = np.full(alpha.shape, math.nan)
    det[good] = np.linalg.det(M[good])
    if alpha.ndim:
        return det
    if not good:
        raise DegenerateConfiguration(f"no closure series at caustic {float(alpha)}")
    return float(det)


# ------------------------------------------------------ light-like closure


def lightlike_period(a, b, max_n: int = 128):
    """Smallest even n with arctan sqrt(a/b) = k pi / n, gcd(k, n/2) = 1.

    Returns (n, k) or None when no match exists up to max_n.  The winding
    number k also predicts the bounce split between the two positive
    boundary arcs: k hits on one, n/2 - k on the other.

    The admissible k/n are the p/q in (0, 1/2) in lowest terms: n = q for
    even q, n = 2q for odd q.  Fractions with denominators up to max_n are
    more than 1/max_n^2 apart, so for max_n <= 10**6 (pi/max_n^2 > 2
    ANGLE_TOL) only the best approximation of theta/pi can match.
    """
    theta = math.atan(math.sqrt(float(a) / float(b)))
    if math.isnan(theta):
        return None
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
    when it does; at n = 4 the lone ratio 1 is self-reciprocal.
    """
    if n % 2 != 0:
        raise OddPeriod("light-like trajectories have even period")
    if n < 4:
        raise ValueError("period must be at least 4")
    half = n // 2
    ks = [k for k in range(1, half) if gcd(k, half) == 1]
    return len({frozenset((k, half - k)) for k in ks})


# --------------------------------------------------------- periodic search


@dataclass(frozen=True)
class SearchWindow:
    lo: float
    hi: float
    samples: int = SCAN_SAMPLES


def default_search_window(fam: ConfocalFamily, samples: int = SCAN_SAMPLES) -> SearchWindow:
    """Window wide enough for the classical closed-form solutions, which can
    fall below -b (e.g. ab/(b-a) for a > b)."""
    a, b = (float(t) for t in fam.axes)
    span = a + b
    return SearchWindow(-b - 3.0 * span, a + 3.0 * span, samples)


def find_periodic_caustics_plane(fam: ConfocalFamily, n: int,
                                 window: SearchWindow | None = None) -> list:
    """All caustic parameters in the window whose planar trajectories are
    n-periodic, found as sign changes of the closure determinant.

    The scan skips alpha = 0 (where the normalized series has a pole) and
    drops roots that coincide with the degenerate pencil values a and -b.
    Roots of even multiplicity would not flip the determinant sign and
    would be missed; the classical period conditions have simple roots.
    Each side of 0 is sampled in one array call of ``planar_cayley_det``
    (nan at degenerate samples, which bound no sign change).  A sample
    where the determinant is exactly 0 is a root.  Every sign change is
    then bisected, all at once: each step makes one array call on the
    brackets still open, and a bracket stops when it is narrower than
    ``BISECT_TOL`` relative to its midpoint, at a nan midpoint, or after
    200 steps.
    """
    if fam.d != 2:
        raise ValueError("this search is specific to the planar case")
    a, b = (float(t) for t in fam.axes)
    span = a + b
    if window is None:
        window = default_search_window(fam)
    delta = 1e-9 * span

    roots: list[float] = []
    brackets = []
    segments = []
    if window.lo < -delta:
        segments.append((window.lo, min(-delta, window.hi)))
    if window.hi > delta:
        segments.append((max(delta, window.lo), window.hi))
    for lo, hi in segments:
        if hi <= lo:
            continue
        m = max(16, int(window.samples * (hi - lo) / (window.hi - window.lo)))
        xs = np.linspace(lo, hi, m)
        vals = planar_cayley_det(fam, xs, n)
        zero = vals == 0.0
        zero[:-1] &= ~np.isnan(vals[1:])
        roots.extend(xs[zero].tolist())
        with np.errstate(invalid="ignore"):
            change = vals[:-1] * vals[1:] < 0.0
        brackets.append((xs[:-1][change], xs[1:][change], vals[:-1][change]))
    if brackets:
        roots.extend(_bisect_sign_changes(fam, n, *map(np.concatenate, zip(*brackets))))

    keep: list[float] = []
    for r in sorted(roots):
        if abs(r - a) <= 1e-7 * span or abs(r + b) <= 1e-7 * span or abs(r) <= 1e-7 * span:
            continue
        if keep and abs(r - keep[-1]) <= 1e-8 * max(1.0, abs(r)):
            continue
        keep.append(r)
    return keep


def _bisect_sign_changes(fam: ConfocalFamily, n: int, lo: np.ndarray, hi: np.ndarray,
                         f_lo: np.ndarray) -> list:
    """Midpoints of the brackets [lo, hi] of determinant sign changes
    (f_lo at lo), each bisected as ``find_periodic_caustics_plane`` says.
    The three arrays are updated in place."""
    active = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= hi - lo > BISECT_TOL * np.maximum(1.0, np.abs(mid))
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        f_mid = planar_cayley_det(fam, mid[idx], n)
        active[idx[np.isnan(f_mid)]] = False
        with np.errstate(invalid="ignore"):
            left = f_lo[idx] * f_mid <= 0.0
        right = ~left & ~np.isnan(f_mid)
        hi[idx[left]] = mid[idx[left]]
        lo[idx[right]] = mid[idx[right]]
        f_lo[idx[right]] = f_mid[right]
    return (0.5 * (lo + hi)).tolist()


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


def _closure_sample(fam: ConfocalFamily, params: tuple, n: int, seed: int,
                    index: int) -> tuple:
    """One closure experiment with its own deterministic random stream.

    Returns (position_error, direction_error).  Boundary points with no
    real tangent direction toward the caustics are resampled; running
    out of budget raises ConstructionFailure.
    """
    rng = np.random.default_rng([seed, index])
    for _ in range(SAMPLE_BUDGET):
        p = random_boundary_point(fam, rng)
        try:
            dirs = direction_with_caustics(fam, p, params)
            v = inward_direction(fam, p, dirs[0])
            traj = trace(fam, p, v, n)
        except (NoSolution, NumericalStall):
            continue
        hit = next((bn for bn in traj.bounces if bn.reflections == n), None)
        if hit is None:
            continue
        pos_err = float(np.linalg.norm(hit.point - p))
        vn = v / np.linalg.norm(v)
        wn = hit.v_out / np.linalg.norm(hit.v_out)
        dir_err = float(np.linalg.norm(wn - vn))
        return pos_err, dir_err
    raise ConstructionFailure(
        f"sample {index} not constructed within {SAMPLE_BUDGET} attempts"
    )


def poncelet_verify(fam: ConfocalFamily, params, n: int, samples: int = 20,
                    seed: int = 0, tol: float = 1e-6) -> PonceletReport:
    """Simulate closure from random boundary points for a caustic set that
    satisfies the analytic period condition.

    Raises CayleyConditionFailed if the analytic condition does not hold.
    Sample i draws from its own stream, seeded with (seed, i), so it does
    not depend on the other samples.
    """
    params = tuple(params)
    if not cayley_condition(fam, params, n):
        raise CayleyConditionFailed(
            f"caustics {params} do not satisfy the period-{n} condition"
        )
    results = [_closure_sample(fam, params, n, seed, i) for i in range(samples)]
    worst_pos = max((pos for pos, _ in results), default=0.0)
    worst_dir = max((dirr for _, dirr in results), default=0.0)
    closed = sum(pos <= tol and dirr <= tol for pos, dirr in results)
    return PonceletReport(
        condition=True,
        n=n,
        caustics=params,
        samples=len(results),
        closed=closed,
        worst_position_error=worst_pos,
        worst_direction_error=worst_dir,
    )

"""Confocal families of quadrics in pseudo-Euclidean space.

A family with signature (k, l) and parameters a_1 > ... > a_k > 0,
0 < a_{k+1} < ... < a_d is the pencil

    Q_lambda :  sum_i  x_i^2 / (a_i - eps_i lambda)  =  1,

with eps_i = +1 for i <= k and -1 for i > k.  Q_0 is an ellipsoid, the
reference billiard table.  Degenerate members occur at lambda = eps_i a_i
(coordinate hyperplanes) and at lambda = infinity (the hyperplane at
infinity, tangent to every light-like line).

This module computes generalized Jacobi coordinates (the pencil members
through a point), the caustic parameters of a line (the pencil members
tangent to it), the associated first integrals, and the interlacing
structure that caustics satisfy relative to the degenerate parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.polynomial import polyroots

from ._poly import linear_product, newton_polish
from .errors import (
    AmbiguousSign,
    DegenerateParameter,
    NoIntersection,
    RootIsolationError,
)
from .metric import LineType, Signature, line_type, _read_only

INF = math.inf

#: Roots closer than this (times a_1 + a_d) are reported as a multiple root.
MULTIPLE_ROOT_TOL = 1e-9

#: Relative tolerance of the degeneracy rules: a pencil parameter at some
#: eps_i a_i, a zero caustic and two colliding caustics (times a_1 + a_d),
#: and a line touching a member (times the scale of ``chord_discriminant``).
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ConfocalFamily:
    """A confocal pencil: signature plus the axis parameters a_1..a_d.

    Axis values may be floats or exact ``fractions.Fraction`` values; the
    latter are preserved so that the rational closure tests can work
    exactly.  All geometric routines coerce to float.  The float arrays
    ``eps``, ``axes_f``, ``signed_axes``, ``cofactors`` and
    ``pair_denominators`` are built once and read-only.
    """

    sig: Signature
    axes: tuple

    def __post_init__(self) -> None:
        k, l = self.sig.k, self.sig.l
        if len(self.axes) != k + l:
            raise ValueError(f"expected {k + l} axis values, got {len(self.axes)}")
        if any(a <= 0 for a in self.axes):
            raise ValueError("axis parameters must be positive")
        pos = self.axes[:k]
        neg = self.axes[k:]
        if any(pos[i] <= pos[i + 1] for i in range(len(pos) - 1)):
            raise ValueError("need a_1 > ... > a_k for the positive block")
        if any(neg[i] >= neg[i + 1] for i in range(len(neg) - 1)):
            raise ValueError("need a_{k+1} < ... < a_d for the negative block")

    @property
    def d(self) -> int:
        return self.sig.d

    @property
    def k(self) -> int:
        return self.sig.k

    @property
    def l(self) -> int:
        return self.sig.l

    @cached_property
    def eps(self) -> np.ndarray:
        return self.sig.eps

    @property
    def eps_exact(self) -> tuple:
        """Metric signs as plain ints, for exact rational arithmetic."""
        return tuple([1] * self.k + [-1] * self.l)

    @cached_property
    def axes_f(self) -> np.ndarray:
        return _read_only(np.asarray([float(a) for a in self.axes]))

    @cached_property
    def signed_axes(self) -> np.ndarray:
        """eps_i a_i in index order; strictly decreasing."""
        return _read_only(self.eps * self.axes_f)

    @cached_property
    def cofactors(self) -> np.ndarray:
        """Row i: ascending coefficients of prod_{j != i} (a_j - eps_j lambda)."""
        rows = [linear_product(self.axes_f[keep], -self.eps[keep])
                for keep in ~np.eye(self.d, dtype=bool)]
        return _read_only(np.array(rows))

    @cached_property
    def pair_denominators(self) -> np.ndarray:
        """Entry (i, j): eps_j a_i - eps_i a_j; 1 on the diagonal, where the
        first integrals have the term j = i, whose numerator is exactly 0."""
        den = np.outer(self.axes_f, self.eps) - np.outer(self.eps, self.axes_f)
        np.fill_diagonal(den, 1.0)
        return _read_only(den)

    @property
    def scale(self) -> float:
        """a_1 + a_d, the natural length-squared scale of the family."""
        return float(self.axes[0]) + float(self.axes[-1])

    def denominators(self, lam: float) -> np.ndarray:
        return self.axes_f - self.eps * lam

    def is_degenerate_parameter(self, lam):
        """lam within DEGENERATE_TOL * (a_1 + a_d) of some eps_i a_i, or not
        finite.  DEGENERATE_TOL is the one tolerance of this rule.

        Elementwise: a scalar gives a numpy bool, an array a bool array.
        """
        lam = np.asarray(lam, dtype=float)
        near = np.abs(lam[..., None] - self.signed_axes) <= DEGENERATE_TOL * self.scale
        return near.any(axis=-1) | ~np.isfinite(lam)

    def is_zero_caustic(self, alpha):
        """|alpha| <= DEGENERATE_TOL * (a_1 + a_d): the line touches Q_0, the
        line-type sign rule is undecided and P1(0) of the Cayley condition
        vanishes.  Elementwise, like ``is_degenerate_parameter``."""
        return np.abs(np.asarray(alpha, dtype=float)) <= DEGENERATE_TOL * self.scale


@dataclass
class Line:
    """An affine line base + t * direction."""

    base: np.ndarray
    direction: np.ndarray

    def __init__(self, base, direction):
        self.base = np.asarray(base, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        if self.base.shape != self.direction.shape or self.base.ndim != 1:
            raise ValueError("base and direction must be vectors of equal length")
        if not np.any(self.direction):
            raise ValueError("direction must be nonzero")

    def point(self, t: float) -> np.ndarray:
        return self.base + t * self.direction


@dataclass(frozen=True)
class CausticSet:
    """Tangency parameters of a line, sorted ascending, math.inf last.

    Multiplicities are encoded by repetition.
    """

    params: tuple

    def __post_init__(self) -> None:
        finite = [p for p in self.params if math.isfinite(p)]
        infinite = [p for p in self.params if not math.isfinite(p)]
        ordered = tuple(sorted(finite)) + tuple(infinite)
        object.__setattr__(self, "params", ordered)

    @property
    def finite(self) -> tuple:
        return tuple(p for p in self.params if math.isfinite(p))

    @property
    def has_infinite(self) -> bool:
        return any(not math.isfinite(p) for p in self.params)

    def __iter__(self):
        return iter(self.params)

    def __len__(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class GeneralizedJacobi:
    """Solutions of the pencil equation through a point.

    ``real_roots`` is sorted ascending, repetitions mark multiple roots;
    ``complex_pair`` is (re, im), im > 0, for the conjugate pair when only
    d - 2 solutions are real.
    """

    real_roots: tuple
    complex_pair: tuple | None

    @property
    def count(self) -> int:
        return len(self.real_roots) + (2 if self.complex_pair else 0)

    def is_simple_real(self) -> bool:
        """All d coordinates are real and distinct."""
        if self.complex_pair is not None:
            return False
        r = self.real_roots
        return all(r[i + 1] > r[i] for i in range(len(r) - 1))


# ----------------------------------------------------------------- basics


def evaluate_quadric(fam: ConfocalFamily, lam: float, x) -> float:
    """Value of sum x_i^2/(a_i - eps_i lambda) - 1 at the point x."""
    if fam.is_degenerate_parameter(lam):
        raise DegenerateParameter(f"lambda = {lam} is a degenerate member")
    xv = np.asarray(x, dtype=float)
    if xv.shape != (fam.d,):
        raise ValueError(f"expected a {fam.d}-vector")
    return float(np.sum(xv * xv / fam.denominators(lam)) - 1.0)


def chord_quadratic(den: np.ndarray, x, v) -> tuple:
    """Coefficients (q2, q1, q0) of the line x + t v against a pencil member.

    The member with denominators ``den`` meets the line where
    q2 t^2 + 2 q1 t + q0 = 0, with q2 = sum v_i^2/den_i,
    q1 = sum x_i v_i/den_i and q0 = sum x_i^2/den_i - 1.
    """
    q2 = float(np.sum(v * v / den))
    q1 = float(np.sum(x * v / den))
    q0 = float(np.sum(x * x / den) - 1.0)
    return q2, q1, q0


def chord_discriminant(den: np.ndarray, x, v) -> tuple:
    """(disc, scale): disc = q1^2 - q2 q0 of ``chord_quadratic`` is < 0 where
    the line misses the member, 0 where it touches, > 0 where it cuts.

    The scale is disc built from the absolute values of the terms.  Terms
    of opposite metric sign cancel inside q2 and q1, and a tangency has q1
    and q0 near 0, so the rounding error of disc follows this scale.
    """
    q2, q1, q0 = chord_quadratic(den, x, v)
    aden = np.abs(den)
    s2 = float(np.sum(v * v / aden))
    s1 = float(np.sum(np.abs(x * v) / aden))
    s0 = float(np.sum(x * x / aden)) + 1.0
    return q1 * q1 - q2 * q0, s1 * s1 + s2 * s0


def integrals_F(fam: ConfocalFamily, x, v) -> np.ndarray:
    """The d first integrals F_i of the billiard within Q_0.

        F_i = eps_i v_i^2 + sum_{j != i} (x_i v_j - x_j v_i)^2
                                         / (eps_j a_i - eps_i a_j)

    They are invariant under sliding x along the line and under reflection
    off Q_0, and they sum to <v, v>.  ``x`` and ``v`` are one point and
    direction of shape (d,), or stacks of them of one shape (..., d); F
    has the same shape.  Each F_i is summed in the order written above,
    so a stack gives the row-by-row values bit for bit.
    """
    xv = np.asarray(x, dtype=float)
    vv = np.asarray(v, dtype=float)
    if xv.shape != vv.shape or xv.shape[-1:] != (fam.d,):
        raise ValueError(f"expected x and v of one shape (..., {fam.d})")
    cross = xv[..., :, None] * vv[..., None, :] - xv[..., None, :] * vv[..., :, None]
    terms = cross * cross / fam.pair_denominators
    terms = np.concatenate([(fam.eps * (vv * vv))[..., None], terms], axis=-1)
    # cumsum adds strictly left to right; sum pairs the terms once d > 6
    return np.cumsum(terms, axis=-1)[..., -1]


def jacobi_polynomial(fam: ConfocalFamily, x) -> np.ndarray:
    """Pencil equation through x, denominators cleared; ascending, degree d.

    The terms x_i^2 ``fam.cofactors[i]`` are subtracted in index order.
    """
    xv = np.asarray(x, dtype=float)
    rows = np.zeros((fam.d + 1, fam.d + 1))
    rows[0] = linear_product(fam.axes_f, -fam.eps)
    rows[1:, :-1] = (xv * xv)[:, None] * fam.cofactors
    return np.subtract.reduce(rows, axis=0)


def tangency_polynomial(fam: ConfocalFamily, x, v) -> np.ndarray:
    """Numerator polynomial of the tangency condition for the line (x, v).

    Clearing denominators in sum_i eps_i F_i / (a_i - eps_i lambda) = 0 and
    normalising by (-1)^(k-1) gives a polynomial of degree d - 1 whose
    leading coefficient equals <v, v>; its roots are the caustic parameters
    (the leading coefficient vanishes for light-like lines, where one
    caustic escapes to infinity).  Ascending coefficients, as an array.
    """
    return _tangency_coefficients(fam, integrals_F(fam, x, v))


def _tangency_coefficients(fam: ConfocalFamily, F) -> np.ndarray:
    """Tangency polynomials of lines from their first integrals.

    ``F`` has shape (..., d); the result has shape (..., d), ascending
    coefficients along the last axis:
    (-1)^(k-1) sum_i eps_i F_i prod_{j != i} (a_j - eps_j lambda), summed
    in index order over the cached ``fam.cofactors``.
    """
    sign = -1.0 if fam.k % 2 == 0 else 1.0
    w = sign * fam.eps * np.asarray(F, dtype=float)
    return (w[..., :, None] * fam.cofactors).sum(axis=-2)


# ------------------------------------------------------ jacobi coordinates


def jacobi_coordinates(fam: ConfocalFamily, x) -> GeneralizedJacobi:
    """Generalized Jacobi coordinates of x: all pencil members through x.

    Either all d solutions are real, or d - 2 are real plus one conjugate
    complex pair.  Real roots closer than ``MULTIPLE_ROOT_TOL * (a_1 + a_d)``
    are collapsed into a multiple root.
    """
    coeffs = jacobi_polynomial(fam, x)
    roots = polyroots(coeffs)
    scale = fam.scale
    by_imag = sorted(roots, key=lambda z: abs(z.imag))
    real_part = list(by_imag[:-2]) if len(by_imag) > 2 else []
    tail = list(by_imag[-2:]) if len(by_imag) >= 2 else list(by_imag)

    def is_real(z) -> bool:
        return abs(z.imag) <= 1e-9 * max(scale, abs(z))

    complex_pair = None
    if len(tail) == 2 and not (is_real(tail[0]) and is_real(tail[1])):
        re = 0.5 * (tail[0].real + tail[1].real)
        im = 0.5 * (abs(tail[0].imag) + abs(tail[1].imag))
        complex_pair = (re, im)
    else:
        real_part.extend(tail)

    polished = sorted(newton_polish(coeffs, z.real) for z in real_part)
    real_roots: list[float] = []
    i = 0
    while i < len(polished):
        j = i
        while j + 1 < len(polished) and polished[j + 1] - polished[i] <= MULTIPLE_ROOT_TOL * scale:
            j += 1
        cluster = polished[i : j + 1]
        centre = sum(cluster) / len(cluster)
        real_roots.extend([centre] * len(cluster))
        i = j + 1
    return GeneralizedJacobi(tuple(real_roots), complex_pair)


# -------------------------------------------------------------- caustics


def _caustic_set(fam: ConfocalFamily, pc: np.ndarray, ltype: LineType) -> CausticSet:
    """Caustics of a line from its tangency coefficients and its line type.

    ``pc`` is the line's row of ``_tangency_coefficients``; see
    ``caustics``.  A light-like line drops the vanishing leading
    coefficient.
    """
    light = ltype is LineType.LIGHT_LIKE
    if light:
        pc = pc[:-1]
    scale = fam.scale
    roots = []
    for z in polyroots(pc):
        if abs(z.imag) <= 1e-6 * max(scale, abs(z)):
            roots.append(newton_polish(pc, z.real))
        else:
            raise RootIsolationError(
                f"complex tangency root {z}; the line is too degenerate to isolate caustics"
            )
    if len(roots) != len(pc) - 1:
        raise RootIsolationError(f"expected {len(pc) - 1} tangency roots, found {len(roots)}")
    return CausticSet(tuple(sorted(roots)) + ((INF,) if light else ()))


def caustics(fam: ConfocalFamily, line: Line) -> CausticSet:
    """Caustic parameters of the line: pencil members tangent to it.

    The line must meet or touch the reference ellipsoid (by
    ``chord_discriminant`` and ``DEGENERATE_TOL``); one that touches it
    has a zero caustic.  A non-light-like line has d - 1 finite caustics; a
    light-like line has d - 2 finite ones plus the hyperplane at infinity,
    reported as math.inf.

    The finite caustics are the roots of the tangency polynomial, taken
    from its companion matrix and each polished by a few Newton steps.
    For a line that meets the ellipsoid they are all real (a theorem of
    Dragovic and Radnovic), so a complex root or a wrong root count means
    the line is too degenerate and raises RootIsolationError.
    """
    x, v = line.base, line.direction
    disc, scale = chord_discriminant(fam.axes_f, x, v)
    if disc < -DEGENERATE_TOL * scale:
        raise NoIntersection("line does not meet the reference ellipsoid")
    return _caustic_set(fam, tangency_polynomial(fam, x, v), line_type(v, fam.sig))


def trajectory_type_from_caustics(
    fam: ConfocalFamily, caustic_set: CausticSet
) -> LineType:
    """Line type read off the caustics alone.

    Infinity among the caustics means light-like; otherwise the sign of
    (-1)^l * prod(alpha_i) decides: positive space-like, negative
    time-like.  A zero caustic (``ConfocalFamily.is_zero_caustic``) leaves
    the sign ambiguous.
    """
    params = tuple(caustic_set)
    if len(params) != fam.d - 1:
        raise ValueError(f"expected {fam.d - 1} caustic parameters, got {len(params)}")
    if any(not math.isfinite(p) for p in params):
        return LineType.LIGHT_LIKE
    if np.any(fam.is_zero_caustic(params)):
        raise AmbiguousSign("a caustic parameter is zero; sign rule undecided")
    negatives = sum(1 for p in params if p < 0)
    sign = (-1) ** (fam.l + negatives)
    return LineType.SPACE_LIKE if sign > 0 else LineType.TIME_LIKE


# ------------------------------------------------------------ interlacing


@dataclass(frozen=True)
class InterlacingReport:
    """Merged degenerate parameters and caustics, with the pairing checks.

    ``b`` holds the positive merged values ascending (b_1 <= ... <= b_p,
    math.inf allowed last), ``c`` the negative ones in decreasing value
    order (c_1 closest to zero).  Caustic positions are 1-based indices
    into those tuples.  ``checks`` records each clause of the interlacing
    statement for the detected line type.
    """

    line_type: LineType
    b: tuple
    c: tuple
    positive_caustic_positions: tuple
    negative_caustic_positions: tuple
    checks: dict
    passed: bool


def _pair_positions(caustics: list, fixed: list, n_pairs: int, sign: int,
                    tol: float) -> tuple:
    """(ok, positions) of one side: its n_pairs caustics, in the order of
    sign * value, among themselves and ``fixed`` (poles, infinite caustics).
    Caustic i must sit at 1-based position 2i - 1 or 2i, up to ties."""
    if len(caustics) != n_pairs:
        return False, ()
    ok, positions = True, []
    for i, alpha in enumerate(caustics, start=1):
        value = sign * alpha
        others = [sign * o for o in fixed + [x for x in caustics if x is not alpha]]
        lo = 1 + sum(1 for o in others if o < value - tol)
        hi = 1 + sum(1 for o in others if o <= value + tol)
        pair = set(range(lo, hi + 1)) & {2 * i - 1, 2 * i}
        positions.append(min(pair, default=lo))
        ok = ok and bool(pair)
    return ok, tuple(positions)


def interlacing_checks(fam: ConfocalFamily, params, ltype: LineType):
    """Interlacing clauses for raw caustic parameters and a line type.

    Returns (checks, b, c, positive_positions, negative_positions); see
    InterlacingReport for the meaning of the pieces.  A space-like line has
    k - 1 positive and l negative caustics, a time-like one k and l - 1, a
    light-like one k - 1 and l - 1 plus infinity, which b counts.
    """
    k, l = fam.k, fam.l
    s = fam.signed_axes
    pos_poles = [si for si in s if si > 0]
    neg_poles = [si for si in s if si < 0]
    finite = [p for p in params if math.isfinite(p)]
    pos_caustics = sorted(p for p in finite if p > 0)
    neg_caustics = sorted((p for p in finite if p < 0), reverse=True)
    inf_count = sum(1 for p in params if not math.isfinite(p))

    b = sorted(pos_poles + pos_caustics) + [INF] * inf_count
    c = sorted(neg_poles + list(neg_caustics), reverse=True)
    tie_tol = 1e-9 * fam.scale

    n_pos_pairs = k - (ltype is not LineType.TIME_LIKE)
    n_neg_pairs = l - (ltype is not LineType.SPACE_LIKE)
    exp_p, exp_q = k + n_pos_pairs + (ltype is LineType.LIGHT_LIKE), l + n_neg_pairs
    if ltype is LineType.SPACE_LIKE:
        anchor = len(b) == exp_p and abs(b[-1] - s[0]) <= tie_tol
    elif ltype is LineType.TIME_LIKE:
        anchor = len(c) == exp_q and abs(c[-1] - s[-1]) <= tie_tol
    else:
        anchor = len(b) == exp_p and b[-1] == INF and abs(b[-2] - s[0]) <= tie_tol

    ok_pos, pos_positions = _pair_positions(pos_caustics, pos_poles + [INF] * inf_count,
                                            n_pos_pairs, 1, tie_tol)
    ok_neg, neg_positions = _pair_positions(neg_caustics, neg_poles, n_neg_pairs, -1, tie_tol)
    checks = {
        "count_p": len(b) == exp_p,
        "count_q": len(c) == exp_q,
        "anchor": bool(anchor),
        "positive_pairs": ok_pos,
        "negative_pairs": ok_neg,
    }
    return checks, tuple(b), tuple(c), pos_positions, neg_positions


def interlacing_report(fam: ConfocalFamily, line: Line) -> InterlacingReport:
    """Verify the interlacing of caustics and degenerate parameters."""
    cs = caustics(fam, line)
    ltype = line_type(line.direction, fam.sig)
    checks, b, c, pos_positions, neg_positions = interlacing_checks(fam, tuple(cs), ltype)
    return InterlacingReport(
        line_type=ltype,
        b=b,
        c=c,
        positive_caustic_positions=pos_positions,
        negative_caustic_positions=neg_positions,
        checks=checks,
        passed=all(checks.values()),
    )

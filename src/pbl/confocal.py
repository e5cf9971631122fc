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

from ._poly import linear_product, newton_polish, polynomial_roots
from .errors import (
    AmbiguousSign,
    DegenerateConfiguration,
    DegenerateParameter,
    NoIntersection,
    RootIsolationError,
)
from .metric import (
    LineType, Signature, _as_scalar, _as_vector, _is_real, _line_type, _read_only,
)

INF = math.inf

#: Relative tolerance of the degeneracy rules: a pencil parameter at some
#: eps_i a_i, a zero caustic and two colliding caustics (times a_1 + a_d),
#: and a line touching a member (times the scale of ``chord_discriminant``).
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ConfocalFamily:
    """A confocal pencil: signature plus the axis parameters a_1..a_d.

    Axis values may be floats or exact ``fractions.Fraction`` values, all
    finite and positive; Fractions are kept so that the rational closure
    tests can work exactly.  All geometric routines coerce to float.  The
    read-only float arrays ``eps``, ``axes_f``, ``signed_axes``,
    ``cofactors`` and ``pair_denominators``, the ``pencil_product`` tuple,
    and ``_float_rows``, those two as Python floats, are built once.
    """

    sig: Signature
    axes: tuple

    def __post_init__(self) -> None:
        k, l = self.sig.k, self.sig.l
        if len(self.axes) != k + l:
            raise ValueError(f"expected {k + l} axis values, got {len(self.axes)}")
        for a in self.axes:
            _as_scalar(a, "axis parameters", "positive")
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
    def pencil_product(self) -> tuple:
        """Ascending coefficients of prod_j (a_j - eps_j lambda); exact for Fraction axes."""
        return tuple(linear_product(self.axes, [-1] * self.k + [1] * self.l))

    @cached_property
    def _float_rows(self) -> tuple:
        """(``pencil_product``, ``cofactors``) as a tuple of Python floats and
        a tuple of such rows, for the routines that take one point or line."""
        return (tuple(float(c) for c in self.pencil_product),
                tuple(map(tuple, self.cofactors.tolist())))

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

    @cached_property
    def _scalar_rule(self) -> tuple:
        """DEGENERATE_TOL * (a_1 + a_d) and ``signed_axes`` as Python floats."""
        return DEGENERATE_TOL * self.scale, tuple(self.signed_axes.tolist())

    def is_degenerate_parameter(self, lam):
        """lam within DEGENERATE_TOL * (a_1 + a_d) of some eps_i a_i, or not
        finite.  DEGENERATE_TOL is the one tolerance of this rule.

        Elementwise: a float gives a bool, on Python floats when it is one;
        another scalar gives a numpy bool, an array a bool array.
        """
        tol, signed_axes = self._scalar_rule
        if isinstance(lam, float):
            return not -INF < lam < INF or any(abs(lam - e) <= tol for e in signed_axes)
        lam = np.asarray(lam, dtype=float)
        near = np.abs(lam[..., None] - self.signed_axes) <= tol
        return near.any(axis=-1) | ~np.isfinite(lam)

    def is_zero_caustic(self, alpha):
        """|alpha| <= DEGENERATE_TOL * (a_1 + a_d): the line touches Q_0, the
        line-type sign rule is undecided and P1(0) of the Cayley condition
        vanishes.  Elementwise, like ``is_degenerate_parameter``."""
        if isinstance(alpha, float):
            return abs(alpha) <= self._scalar_rule[0]
        return np.abs(np.asarray(alpha, dtype=float)) <= self._scalar_rule[0]

    def check_caustic_values(self, finite) -> None:
        """The caustic-value rule of the Cayley condition and of direction
        recovery: DegenerateConfiguration if a caustic of the ascending
        ``finite`` is zero (``is_zero_caustic``), degenerate
        (``is_degenerate_parameter``) or collides with the next one (within
        DEGENERATE_TOL * (a_1 + a_d): an even factor under the square root
        of P1, and a line that no direction constructs).  On Python floats."""
        vals = [float(v) for v in finite]
        if (any(self.is_zero_caustic(v) or self.is_degenerate_parameter(v) for v in vals)
                or any(hi - lo <= self._scalar_rule[0] for lo, hi in zip(vals, vals[1:]))):
            raise DegenerateConfiguration(f"caustic parameters {vals} are zero, "
                                          "degenerate or collide with each other")


@dataclass
class Line:
    """An affine line base + t * direction."""

    base: np.ndarray
    direction: np.ndarray

    def __init__(self, base, direction):
        self.base = _as_vector(base, np.size(base))
        self.direction = _as_vector(direction, self.base.size)
        if not any(self.direction.tolist()):
            raise ValueError("direction must be nonzero")


@dataclass(frozen=True)
class CausticSet:
    """Tangency parameters of a line, sorted ascending, math.inf last (once).

    Multiplicities are encoded by repetition; nan and -inf raise
    DegenerateConfiguration, a type that ``_is_real`` refuses ValueError.
    """

    params: tuple

    def __post_init__(self) -> None:
        params = tuple(self.params)
        if not all(map(_is_real, params)):
            raise ValueError(f"caustics must be finite numbers or +inf, got {params!r}")
        finite = sorted(p for p in params if -INF < p < INF)
        if len(finite) + (INF in params) != len(params):
            raise DegenerateConfiguration(f"caustics {params} hold nan, -inf or a second +inf")
        object.__setattr__(self, "params", tuple(finite) + (INF,) * (INF in params))

    @property
    def finite(self) -> tuple:
        return self.params[:-1] if self.has_infinite else self.params

    @property
    def has_infinite(self) -> bool:
        return self.params[-1:] == (INF,)

    def __iter__(self):
        return iter(self.params)

    def __len__(self) -> int:
        return len(self.params)


def _caustic_set(fam: ConfocalFamily, params) -> CausticSet:
    """A CausticSet or any iterable as a caustic set of ``fam``: ValueError unless d - 1 long."""
    cs = params if isinstance(params, CausticSet) else CausticSet(params)
    if len(cs) != fam.d - 1:
        raise ValueError(f"expected {fam.d - 1} caustic parameters, got {len(cs)}")
    return cs


def _caustic_json(params) -> list:
    """Caustic parameters as JSON values: floats, and "inf" for +inf."""
    return ["inf" if p == INF else float(p) for p in params]


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
    xv = _as_vector(x, fam.d)
    return float(np.sum(xv * xv / fam.denominators(lam)) - 1.0)


def chord_quadratic(den, x, v) -> tuple:
    """Coefficients (q2, q1, q0) of the line x + t v against a pencil member.

    The member with denominators ``den`` meets the line where
    q2 t^2 + 2 q1 t + q0 = 0, with q2 = sum v_i^2/den_i,
    q1 = sum x_i v_i/den_i and q0 = sum x_i^2/den_i - 1, summed left to
    right from +0.0.  One point and direction give floats, summed in
    Python; stacks of them, (..., d) arrays broadcast against each other,
    give arrays from ``np.add.reduce``, which sums in order only below 8
    terms, so for d >= 8 an entry may differ from its line's in the last bit.
    """
    if getattr(x, "ndim", 1) > 1 or getattr(v, "ndim", 1) > 1:
        return (np.add.reduce(v * v / den, -1), np.add.reduce(x * v / den, -1),
                np.add.reduce(x * x / den, -1) - 1.0)
    q2 = q1 = q0 = 0.0
    for c, a, b in zip(den, x, v):
        q2 += b * b / c
        q1 += a * b / c
        q0 += a * a / c
    return float(q2), float(q1), float(q0) - 1.0


def chord_discriminant(den, x, v) -> tuple:
    """(disc, scale): disc = q1^2 - q2 q0 of ``chord_quadratic`` is < 0 where
    the line misses the member, 0 where it touches, > 0 where it cuts.

    The scale is disc built from the absolute values of the terms.  Terms
    of opposite metric sign cancel inside q2 and q1, and a tangency has q1
    and q0 near 0, so the rounding error of disc follows this scale.  One
    point and direction give floats and stacks arrays, summed as in
    ``chord_quadratic``.
    """
    q2, q1, q0 = chord_quadratic(den, x, v)
    if getattr(x, "ndim", 1) > 1 or getattr(v, "ndim", 1) > 1:
        aden = np.abs(den)
        s2 = np.add.reduce(v * v / aden, -1)
        s1 = np.add.reduce(np.abs(x * v) / aden, -1)
        s0 = np.add.reduce(x * x / aden, -1)
    else:
        s2 = s1 = s0 = 0.0
        for c, a, b in zip(den, x, v):
            c = abs(c)
            s2 += b * b / c
            s1 += abs(a * b) / c
            s0 += a * a / c
    scale = s1 * s1 + s2 * (s0 + 1.0)
    return q1 * q1 - q2 * q0, scale if getattr(scale, "ndim", 0) else float(scale)


def integrals_F(fam: ConfocalFamily, x, v):
    """The d first integrals F_i of the billiard within Q_0.

        F_i = eps_i v_i^2 + sum_{j != i} (x_i v_j - x_j v_i)^2
                                         / (eps_j a_i - eps_i a_j)

    They are invariant under sliding x along the line and under reflection
    off Q_0, and they sum to <v, v>.  Each F_i is summed in the order
    written above, the term j = i (numerator 0) in its place.  One point
    and direction of d entries give a list of Python floats; stacks of
    them, arrays of one shape (..., d), give F of that shape, each row its
    line's list bit for bit.
    """
    if getattr(x, "ndim", 1) > 1 or getattr(v, "ndim", 1) > 1:
        xv, vv = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        if xv.shape != vv.shape or xv.shape[-1:] != (fam.d,):
            raise ValueError(f"expected x and v of one shape (..., {fam.d})")
        cross = xv[..., :, None] * vv[..., None, :] - xv[..., None, :] * vv[..., :, None]
        terms = cross * cross / fam.pair_denominators
        terms = np.concatenate([(fam.eps * (vv * vv))[..., None], terms], axis=-1)
        # cumsum adds strictly left to right; sum pairs the terms once d > 6
        return np.cumsum(terms, axis=-1)[..., -1]
    if not len(x) == len(v) == fam.d:
        raise ValueError(f"expected x and v of one shape (..., {fam.d})")
    F = []
    for xi, vi, e, den in zip(x, v, fam.eps.tolist(), fam.pair_denominators.tolist()):
        f = e * (vi * vi)
        for xj, vj, c in zip(x, v, den):
            cross = xi * vj - xj * vi
            f += cross * cross / c
        F.append(float(f))
    return F


def jacobi_polynomial(fam: ConfocalFamily, x) -> np.ndarray:
    """Pencil equation through x, denominators cleared; ascending, degree d.

    ``fam.pencil_product`` less x_i^2 ``fam.cofactors[i]``, in index order.
    """
    return np.array(_jacobi_polynomial(fam, _as_vector(x, fam.d).tolist())[0])


def _jacobi_polynomial(fam: ConfocalFamily, x: list) -> tuple:
    """``jacobi_polynomial`` of the Python floats x, as a list of them, and
    the list of the t_j, the sums of the absolute terms that formed them."""
    pencil, rows = fam._float_rows
    coeffs = list(pencil)
    terms = [abs(c) for c in coeffs]
    for xi, row in zip(x, rows):
        xx = xi * xi
        for j, c in enumerate(row):
            coeffs[j] -= xx * c
            terms[j] += xx * abs(c)
    return coeffs, terms


def tangency_polynomial(fam: ConfocalFamily, x, v):
    """Numerator polynomial of the tangency condition for the line (x, v).

    Clearing denominators in sum_i eps_i F_i / (a_i - eps_i lambda) = 0 and
    normalising by (-1)^(k-1) gives a polynomial of degree d - 1 whose
    leading coefficient equals <v, v>; its roots are the caustic parameters
    (the leading coefficient vanishes for light-like lines, where one
    caustic escapes to infinity).  Ascending coefficients: a list of
    Python floats for one line, an array for stacks, as in ``integrals_F``.
    """
    return _tangency_coefficients(fam, integrals_F(fam, x, v))


def _tangency_coefficients(fam: ConfocalFamily, F):
    """Tangency polynomials of lines from their first integrals.

    ``F`` is one line's d floats, giving a list, or an array of shape
    (..., d), giving that shape; ascending coefficients along the last axis:
    (-1)^(k-1) sum_i eps_i F_i prod_{j != i} (a_j - eps_j lambda), summed
    in index order from +0.0 over the cached ``fam.cofactors``.
    """
    sign = -1.0 if fam.k % 2 == 0 else 1.0
    if getattr(F, "ndim", 1) < 2:
        pc = [0.0] * fam.d
        for e, f, row in zip(fam.eps.tolist(), F, fam._float_rows[1]):
            w = sign * e * f
            pc = [p + w * c for p, c in zip(pc, row)]
        return pc
    w = sign * fam.eps * np.asarray(F, dtype=float)
    return (w[..., :, None] * fam.cofactors).sum(axis=-2)


# ------------------------------------------------------ jacobi coordinates


def jacobi_coordinates(fam: ConfocalFamily, x) -> GeneralizedJacobi:
    """Generalized Jacobi coordinates of x: all pencil members through x.

    Either all d solutions are real, or d - 2 are real plus one conjugate
    complex pair.  A coordinate is multiple where the rounding floor of the
    Jacobi polynomial says so (``_jacobi``).  A point so far out that
    rounding loses a coordinate (``newton_polish``) raises RootIsolationError.
    """
    return _jacobi(_jacobi_polynomial(fam, _as_vector(x, fam.d).tolist()))


def _at_floor(poly: tuple, m) -> bool:
    """The one multiple-root rule: ``poly`` of ``_jacobi_polynomial`` reads 0
    at m within its rounding floor, |p(m)| <= 4 d u sum_j t_j |m|^j, u = 2^-53
    (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3): with
    the family's coefficients as data, c_j (d + 1 terms, each rounded at most
    twice, summed in d steps) is within gamma_{d+2} t_j of its exact value,
    and Horner adds gamma_{2d} sum_j |c_j| |m|^j, so p reads below (3d + 2) u
    sum_j t_j |m|^j at an exact root, and at the midpoint of the two computed
    roots of a double root, O(u) from it.  Both sides are divided by 2^(k d),
    exactly, for m = mu 2^k, |mu| in [1/2, 1), k >= 0, so that no far
    coordinate overflows; a bound that is not finite decides nothing."""
    k = max(math.frexp(m)[1], 0)
    p, bound, w, f, mu = 0.0, 0.0, 1.0, math.ldexp(1.0, -k), math.ldexp(m, -k)
    size = abs(mu)
    for c, t in zip(reversed(poly[0]), reversed(poly[1])):
        p, bound, w = p * mu + c * w, bound * size + t * w, w * f
    return abs(p) <= 4 * (len(poly[0]) - 1) * 2.0**-53 * bound < INF


def _jacobi(poly: tuple) -> GeneralizedJacobi:
    """``jacobi_coordinates`` from ``poly`` of ``_jacobi_polynomial``, on
    Python floats: the roots of one ``polynomial_roots`` call, clustered by
    ``_at_floor`` alone, tried at the real part of a complex pair (then a
    double real root) and at the midpoint of adjacent real roots.  A cluster
    is its mean, repeated; ``newton_polish`` polishes each simple root on its
    own and raises RootIsolationError for overflow or a lost root."""
    roots, pair = polynomial_roots(poly[0])
    if pair is not None and _at_floor(poly, pair[0]):
        roots, pair = roots + [pair[0]] * 2, None
    clusters = []
    for r in sorted(roots):
        if clusters and _at_floor(poly, 0.5 * (clusters[-1][-1] + r)):
            clusters[-1].append(r)
        else:
            clusters.append([r])
    simple = newton_polish(poly[0], [c[0] for c in clusters if len(c) == 1])
    multiple = [sum(c) / len(c) for c in clusters if len(c) > 1 for _ in c]
    return GeneralizedJacobi(tuple(sorted(simple + multiple)), pair)


# -------------------------------------------------------------- caustics


def caustics(fam: ConfocalFamily, line: Line) -> CausticSet:
    """Caustic parameters of the line: pencil members tangent to it.

    The line must meet or touch the reference ellipsoid (by
    ``chord_discriminant`` and ``DEGENERATE_TOL``); one that touches it
    has a zero caustic.  A non-light-like line has d - 1 finite caustics; a
    light-like line has d - 2 finite ones plus the hyperplane at infinity,
    reported as math.inf.

    The finite caustics are the roots of the tangency polynomial
    (``polynomial_roots``, in closed form up to degree 3) polished by a few
    Newton steps (``newton_polish``).  For a line that meets the ellipsoid
    they are all real (a theorem of Dragovic and Radnovic), so a complex
    pair off the real axis by more than 1e-6 max(scale, |z|), a wrong root
    count or a root that the polish rejects means the line is too
    degenerate and raises RootIsolationError.  After the ``_as_vector``
    door all runs on Python floats: ``_line_type`` scales the direction by
    ``_exponent``, which changes no bit of the roots, and decides its type.
    """
    return _caustics(fam, line)[0]


def _caustics(fam: ConfocalFamily, line: Line) -> tuple:
    """(``caustics``, ``line_type``) of the line, from one ``_line_type`` call."""
    x = _as_vector(line.base, fam.d).tolist()
    v, ltype = _line_type(line.direction.tolist(), fam.eps.tolist())
    light = ltype is LineType.LIGHT_LIKE
    disc, scale = chord_discriminant(fam.axes_f.tolist(), x, v)
    if disc < -DEGENERATE_TOL * scale:
        raise NoIntersection("line does not meet the reference ellipsoid")
    pc = tangency_polynomial(fam, x, v)
    if light:
        pc = pc[:-1]
    c = pc
    while len(c) > 1 and c[-1] == 0.0:  # a zero leading coefficient lowers the degree
        c = c[:-1]
    roots, pair = polynomial_roots(c)
    if pair is not None:
        if pair[1] > 1e-6 * max(fam.scale, math.hypot(*pair)):
            raise RootIsolationError(f"complex tangency root {complex(*pair)}; the line "
                                     "is too degenerate to isolate caustics")
        roots += [pair[0]] * 2
    if len(roots) != len(pc) - 1:
        raise RootIsolationError(f"expected {len(pc) - 1} tangency roots, found {len(roots)}")
    polished = tuple(newton_polish(pc, roots))
    return CausticSet(polished + ((INF,) if light else ())), ltype


def trajectory_type_from_caustics(
    fam: ConfocalFamily, caustic_set: CausticSet
) -> LineType:
    """Line type read off the caustics alone.

    Infinity among the caustics means light-like; otherwise the sign of
    (-1)^l * prod(alpha_i) decides: positive space-like, negative
    time-like.  A zero caustic (``ConfocalFamily.is_zero_caustic``) leaves
    the sign ambiguous.
    """
    cs = _caustic_set(fam, caustic_set)
    if cs.has_infinite:
        return LineType.LIGHT_LIKE
    if np.any(fam.is_zero_caustic(cs.params)):
        raise AmbiguousSign("a caustic parameter is zero; sign rule undecided")
    negatives = sum(1 for p in cs.params if p < 0)
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
    statement for the detected line type, on the caustics ``caustic_set``.
    """

    caustic_set: CausticSet
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
        others = [sign * o for o in fixed + caustics[:i - 1] + caustics[i:]]
        lo = 1 + sum(1 for o in others if o < value - tol)
        hi = 1 + sum(1 for o in others if o <= value + tol)
        pair = set(range(lo, hi + 1)) & {2 * i - 1, 2 * i}
        positions.append(min(pair, default=lo))
        ok = ok and bool(pair)
    return ok, tuple(positions)


def interlacing_checks(fam: ConfocalFamily, params, ltype: LineType):
    """Interlacing clauses for caustic parameters and a line type.

    Returns (checks, b, c, positive_positions, negative_positions); see
    InterlacingReport for the meaning of the pieces.  A space-like line has
    k - 1 positive and l negative caustics, a time-like one k and l - 1, a
    light-like one k - 1 and l - 1 plus infinity, which b counts.
    """
    k, l = fam.k, fam.l
    s = fam._scalar_rule[1]
    pos_poles = [si for si in s if si > 0]
    neg_poles = [si for si in s if si < 0]
    cs = _caustic_set(fam, params)
    pos_caustics = [p for p in cs.finite if p > 0]
    neg_caustics = [p for p in reversed(cs.finite) if p < 0]

    b = sorted(pos_poles + pos_caustics) + [INF] * cs.has_infinite
    c = sorted(neg_poles + neg_caustics, reverse=True)
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

    ok_pos, pos_positions = _pair_positions(pos_caustics, pos_poles + [INF] * cs.has_infinite,
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
    cs, ltype = _caustics(fam, line)
    checks, b, c, pos_positions, neg_positions = interlacing_checks(fam, cs, ltype)
    return InterlacingReport(
        caustic_set=cs,
        line_type=ltype,
        b=b,
        c=c,
        positive_caustic_positions=pos_positions,
        negative_caustic_positions=neg_positions,
        checks=checks,
        passed=all(checks.values()),
    )

"""Relativistic classification of confocal quadrics and tropic surfaces.

A pencil member Q_{lambda_0} through a point x is classified by where
lambda_0 sits among the generalized Jacobi coordinates of x: smallest of
all (type E), greater than exactly i of them (type H^i), or, when a
conjugate complex pair is present, greater than i of the real ones
(type 0^i).  In a (2, 1) family in dimension three the discriminant set
of this classification is carried by the tropic surfaces Sigma^+/Sigma^-,
ruled surfaces swept by the points of the pencil members where the normal
becomes light-like.

The planar (1, 1) case is described through relativistic conics: loci of
constant sums or differences of pseudo-Euclidean distances from the foci.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .confocal import ConfocalFamily, GeneralizedJacobi, jacobi_coordinates
from .errors import (
    BoundaryCase,
    CuspPoint,
    DegenerateParameter,
    MultipleRoot,
    NotDecoratable,
    PointNotOnConic,
)
from .metric import MDistance, mdistance, pseudo_cross

#: Matching tolerance (relative to a_1 + a_d) when locating a coordinate.
MATCH_TOL = 1e-7


@dataclass(frozen=True)
class RelType:
    """Relativistic type: kind 'E', 'H' or '0' with an index for H/0."""

    kind: str
    index: int | None = None

    def __str__(self) -> str:
        if self.kind == "E":
            return "E"
        return f"{self.kind}^{self.index}"


def _type_from_counts(below: int, has_pair: bool) -> RelType:
    if has_pair:
        # 0 <= below <= d - 3 occurs for points off the discriminant set;
        # the full range 0..d-2 is accepted for robustness near it.
        return RelType("0", below)
    if below == 0:
        return RelType("E")
    return RelType("H", below)


def relativistic_type(fam: ConfocalFamily, x, lam0: float, tol: float = MATCH_TOL) -> RelType:
    """Relativistic type of the pencil member Q_{lam0} at the point x.

    ``lam0`` must be one of the generalized Jacobi coordinates of x.  A
    multiple coordinate has no well-defined type and raises
    ``MultipleRoot``.
    """
    gj = jacobi_coordinates(fam, x)
    scale = fam.scale
    matches = [r for r in gj.real_roots if abs(r - lam0) <= tol * scale]
    if not matches:
        raise ValueError(f"lambda = {lam0} is not a Jacobi coordinate of the point")
    if len(matches) > 1:
        raise MultipleRoot(f"lambda = {lam0} is a multiple coordinate at this point")
    matched = matches[0]
    below = sum(1 for r in gj.real_roots if r < matched and r not in matches)
    return _type_from_counts(below, gj.complex_pair is not None)


def decorated_coordinates(fam: ConfocalFamily, x) -> tuple:
    """Jacobi coordinates of x decorated with their relativistic types.

    Requires d distinct real coordinates; ascending order gets the types
    (E, H^1, ..., H^{d-1}).  Raises ``NotDecoratable`` otherwise.
    """
    gj = jacobi_coordinates(fam, x)
    if gj.complex_pair is not None:
        raise NotDecoratable("point has a conjugate pair of coordinates")
    if not gj.is_simple_real():
        raise NotDecoratable("point has a multiple coordinate")
    return tuple((_type_from_counts(i, False), r) for i, r in enumerate(gj.real_roots))


# --------------------------------------------------- geometric types, d = 3


class GeomType3(Enum):
    ONE_SHEET_Z = "hyperboloid-1-sheet-z"
    ELLIPSOID = "ellipsoid"
    ONE_SHEET_Y = "hyperboloid-1-sheet-y"
    TWO_SHEET = "hyperboloid-2-sheet"
    DEGENERATE_PLANE = "degenerate-plane"

    def __str__(self) -> str:
        return self.value


def _abc(fam: ConfocalFamily) -> tuple[float, float, float]:
    if fam.d != 3 or fam.k != 2:
        raise ValueError("operation requires a (2, 1) family in dimension 3")
    a, b, c = (float(v) for v in fam.axes)
    return a, b, c


def geometric_type_3d(fam: ConfocalFamily, lam: float) -> GeomType3:
    """Geometric type of Q_lambda in a (2, 1) family in dimension 3."""
    a, b, c = _abc(fam)
    if not math.isfinite(lam):
        raise DegenerateParameter("lambda must be finite")
    if fam.is_degenerate_parameter(lam):
        return GeomType3.DEGENERATE_PLANE
    if lam < -c:
        return GeomType3.ONE_SHEET_Z
    if lam < b:
        return GeomType3.ELLIPSOID
    if lam < a:
        return GeomType3.ONE_SHEET_Y
    return GeomType3.TWO_SHEET


# ---------------------------------------------------------- tropic surface


def _check_sheet(sheet: int) -> float:
    if sheet not in (1, -1):
        raise ValueError("sheet must be +1 or -1")
    return float(sheet)


def tropic_point(fam: ConfocalFamily, lam: float, t: float, sheet: int) -> np.ndarray:
    """Point of the tropic surface Sigma^(sheet) at parameters (lambda, t).

    The surface carries, for each pencil member, the curve along which its
    normal is light-like:

        x = (a - lambda) cos t / sqrt(a + c)
        y = (b - lambda) sin t / sqrt(b + c)
        z = sheet * (c + lambda) * sqrt(cos^2 t/(a+c) + sin^2 t/(b+c))
    """
    a, b, c = _abc(fam)
    s = _check_sheet(sheet)
    w = math.sqrt(math.cos(t) ** 2 / (a + c) + math.sin(t) ** 2 / (b + c))
    return np.array([
        (a - lam) * math.cos(t) / math.sqrt(a + c),
        (b - lam) * math.sin(t) / math.sqrt(b + c),
        s * (c + lam) * w,
    ])


def tropic_partials(fam: ConfocalFamily, lam: float, t: float, sheet: int):
    """First and second analytic partial derivatives of the parametrization.

    Returns (r, r_lam, r_t, r_lamlam, r_lamt, r_tt).
    """
    a, b, c = _abc(fam)
    s = _check_sheet(sheet)
    ca, cb = math.sqrt(a + c), math.sqrt(b + c)
    ct, st = math.cos(t), math.sin(t)
    w = math.sqrt(ct * ct / (a + c) + st * st / (b + c))
    kdiff = 1.0 / (b + c) - 1.0 / (a + c)
    wp = st * ct * kdiff / w
    wpp = kdiff * math.cos(2 * t) / w - (kdiff * st * ct) ** 2 / w ** 3

    r = np.array([(a - lam) * ct / ca, (b - lam) * st / cb, s * (c + lam) * w])
    r_l = np.array([-ct / ca, -st / cb, s * w])
    r_t = np.array([-(a - lam) * st / ca, (b - lam) * ct / cb, s * (c + lam) * wp])
    r_ll = np.zeros(3)
    r_lt = np.array([st / ca, -ct / cb, s * wp])
    r_tt = np.array([-(a - lam) * ct / ca, -(b - lam) * st / cb, s * (c + lam) * wpp])
    return r, r_l, r_t, r_ll, r_lt, r_tt


def tropic_cone_residual(fam: ConfocalFamily, lam: float, p) -> float:
    """Value of x^2/(a-l)^2 + y^2/(b-l)^2 - z^2/(c+l)^2 at the point p.

    Zero exactly on the light-like-normal curve of Q_lambda.
    """
    a, b, c = _abc(fam)
    if fam.is_degenerate_parameter(lam):
        raise DegenerateParameter(f"lambda = {lam} is degenerate for the cone")
    pv = np.asarray(p, dtype=float)
    if pv.shape != (3,):
        raise ValueError("expected a 3-vector")
    return float(
        pv[0] ** 2 / (a - lam) ** 2
        + pv[1] ** 2 / (b - lam) ** 2
        - pv[2] ** 2 / (c + lam) ** 2
    )


def cusp_edge_lambda(fam: ConfocalFamily, t: float) -> float:
    """Parameter lambda(t) of the cusp edges: where the ruling degenerates.

    lambda(t) = (a + b - (a - b) cos 2t) / 2, always within [b, a].
    """
    a, b, _ = _abc(fam)
    return 0.5 * (a + b - (a - b) * math.cos(2 * t))


def tropic_tangent_norm_sq(fam: ConfocalFamily, lam: float, t: float) -> float:
    """Squared pseudo-norm of the t-coordinate tangent of the tropic surface.

        (a + b - 2 lambda - (a - b) cos 2t)^2
        -------------------------------------
        2 (a + b + 2c - (a - b) cos 2t)

    Nonnegative everywhere; vanishes exactly on the cusp-edge relation,
    which has solutions in t only for lambda in [b, a].
    """
    a, b, c = _abc(fam)
    num = a + b - 2 * lam - (a - b) * math.cos(2 * t)
    den = 2 * (a + b + 2 * c - (a - b) * math.cos(2 * t))
    return num * num / den


def tropic_surface_normal(fam: ConfocalFamily, lam: float, t: float, sheet: int) -> np.ndarray:
    """Pseudo-normal of the tropic surface: pseudo-cross of the partials.

    The result is light-like everywhere it is defined.  On cusp edges the
    partials are parallel and the normal degenerates; ``CuspPoint`` is
    raised when the Euclidean cross product falls below 1e-10 of its
    natural scale.
    """
    _, r_l, r_t, *_ = tropic_partials(fam, lam, t, sheet)
    n = pseudo_cross(r_l, r_t)
    scale = float(np.linalg.norm(r_l) * np.linalg.norm(r_t))
    if float(np.linalg.norm(n)) <= 1e-10 * max(scale, 1e-300):
        raise CuspPoint(f"normal degenerates at (lambda, t) = ({lam}, {t})")
    return n


# ------------------------------------------------------- planar relativistic


@dataclass(frozen=True)
class ConicClassification:
    """Where the relativistic conics with parameter c live, and their arcs."""

    host_lambda: float
    host_kind: str  # "ellipse" | "hyperbola-x" | "hyperbola-y"
    ellipse_arcs: int
    ellipse_arcs_finite: bool
    ellipse_meets_y_axis: bool
    hyperbola_arcs: int
    hyperbola_arcs_finite: bool


def _ab(fam: ConfocalFamily) -> tuple[float, float]:
    if fam.d != 2 or fam.k != 1:
        raise ValueError("operation requires a (1, 1) family in dimension 2")
    a, b = (float(v) for v in fam.axes)
    return a, b


def relativistic_conic_classify(fam: ConfocalFamily, c: MDistance) -> ConicClassification:
    """Classify the relativistic ellipse/hyperbola with half-parameter c.

    c is a positive real or positive imaginary constant; the conics lie on
    the pencil member with lambda = a - c^2.  ``BoundaryCase`` signals
    c^2 = a + b, where the host degenerates into the common tangents.
    """
    a, b = _ab(fam)
    if c.magnitude <= 0:
        raise ValueError("c must be nonzero")
    csq = -c.magnitude ** 2 if c.imaginary else c.magnitude ** 2
    host = a - csq
    if not c.imaginary and abs(csq - (a + b)) <= 1e-12 * (a + b):
        raise BoundaryCase("c^2 = a + b: conics degenerate into the common tangents")
    if c.imaginary:
        return ConicClassification(host, "hyperbola-y", 4, False, False, 2, True)
    if csq < a + b:
        return ConicClassification(host, "ellipse", 2, True, True, 2, True)
    return ConicClassification(host, "hyperbola-x", 2, True, False, 4, False)


@dataclass(frozen=True)
class FocalResidual:
    """Deviation of focal sums/differences from their case-table targets.

    ``x_pair`` measures distances to the foci (+-sqrt(a+b), 0), ``y_pair``
    to (0, +-sqrt(a+b)); each is min over sum and absolute difference.
    ``kind_ok`` records whether the distances had the expected real or
    imaginary character.
    """

    x_pair: float
    y_pair: float
    kind_ok: bool


def _pair_residual(d1: MDistance, d2: MDistance, target: float, target_imag: bool,
                   zero_tol: float) -> tuple[float, bool]:
    kinds_ok = True
    for dd in (d1, d2):
        if dd.magnitude > zero_tol and dd.imaginary != target_imag:
            kinds_ok = False
    s = abs(d1.magnitude + d2.magnitude - target)
    diff = abs(abs(d1.magnitude - d2.magnitude) - target)
    return min(s, diff), kinds_ok


def focal_residual(fam: ConfocalFamily, lam: float, x) -> FocalResidual:
    """Check the focal characterization of a pencil conic at a point.

    The point must lie on C_lambda.  Targets: for -b < lambda < a the
    x-axis foci give 2 sqrt(a - lambda) (real) and the y-axis foci give
    2 sqrt(b + lambda) (imaginary); for lambda < -b both pairs give real
    values 2 sqrt(a - lambda) and 2 sqrt(-b - lambda); for lambda > a both
    are imaginary, 2 sqrt(lambda - a) and 2 sqrt(b + lambda).
    """
    a, b = _ab(fam)
    xv = np.asarray(x, dtype=float)
    if fam.is_degenerate_parameter(lam):
        raise DegenerateParameter(f"lambda = {lam} is degenerate")
    val = xv[0] ** 2 / (a - lam) + xv[1] ** 2 / (b + lam) - 1.0
    if abs(val) > 1e-9 * max(1.0, abs(xv[0]) + abs(xv[1])):
        raise PointNotOnConic(f"point is not on the conic (residual {val})")
    r = math.sqrt(a + b)
    f1, f2 = np.array([r, 0.0]), np.array([-r, 0.0])
    g1, g2 = np.array([0.0, r]), np.array([0.0, -r])
    dx1, dx2 = mdistance(xv, f1, fam.sig), mdistance(xv, f2, fam.sig)
    dy1, dy2 = mdistance(xv, g1, fam.sig), mdistance(xv, g2, fam.sig)
    zero_tol = 1e-9 * math.sqrt(fam.scale)
    if -b < lam < a:
        tx, tx_im = 2 * math.sqrt(a - lam), False
        ty, ty_im = 2 * math.sqrt(b + lam), True
    elif lam < -b:
        tx, tx_im = 2 * math.sqrt(a - lam), False
        ty, ty_im = 2 * math.sqrt(-b - lam), False
    else:
        tx, tx_im = 2 * math.sqrt(lam - a), True
        ty, ty_im = 2 * math.sqrt(b + lam), True
    rx, okx = _pair_residual(dx1, dx2, tx, tx_im, zero_tol)
    ry, oky = _pair_residual(dy1, dy2, ty, ty_im, zero_tol)
    return FocalResidual(rx, ry, okx and oky)

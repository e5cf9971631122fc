"""Pseudo-Euclidean linear algebra.

The scalar product of signature (k, l) on R^d, d = k + l, is

    <x, y> = x_1 y_1 + ... + x_k y_k - x_{k+1} y_{k+1} - ... - x_d y_d.

Lines are space-, time- or light-like according to the sign of <v, v> for a
direction vector v.  The sign test is scale invariant: |<v, v>| is compared
against ``LIGHT_TOL`` times the squared Euclidean norm of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import LightLikeNormal

#: Scale-invariant threshold below which <v, v> counts as zero.
LIGHT_TOL = 1e-10


class LineType(Enum):
    SPACE_LIKE = "space-like"
    TIME_LIKE = "time-like"
    LIGHT_LIKE = "light-like"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Signature:
    """Signature (k, l): k plus signs followed by l minus signs; k and l
    are ints >= 1 (ValueError)."""

    k: int
    l: int

    def __post_init__(self) -> None:
        _as_count(self.k, "k", 1)
        _as_count(self.l, "l", 1)

    @property
    def d(self) -> int:
        return self.k + self.l

    @cached_property
    def eps(self) -> np.ndarray:
        """Diagonal of the metric matrix: k ones followed by l minus ones.

        Built once and read-only, like the arrays of ``ConfocalFamily``.
        """
        e = np.ones(self.d)
        e[self.k:] = -1.0
        return _read_only(e)


@dataclass(frozen=True)
class MDistance:
    """Distance whose square may be negative: magnitude >= 0 plus a flag.

    ``imaginary=False`` encodes the real value ``magnitude``;
    ``imaginary=True`` encodes ``magnitude * i``.  Zero is reported real.
    """

    magnitude: float
    imaginary: bool


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` with its write flag cleared, for arrays cached on frozen objects."""
    a.setflags(write=False)
    return a


def _as_vector(x, d: int) -> np.ndarray:
    """x as a float array of shape (d,), the one check of every point and
    direction that a public routine takes: ValueError for another shape or
    a non-finite entry.  The entries are tested one by one as Python
    floats, which on a few entries is faster than ``np.isfinite``."""
    v = np.asarray(x, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"expected a {d}-vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"expected a finite {d}-vector, got {v}")
    return v


def _as_count(value, name: str, least: int):
    """value, if it is an int or numpy integer, not a bool, >= least: the
    one check of every count that a public routine takes.  ValueError
    naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return value


def _is_real(value) -> bool:
    """The type rule of every scalar argument, which a nan or +-inf meets:
    an int, float, numpy real or Fraction, and not a bool."""
    return (isinstance(value, (int, float, Fraction, np.integer, np.floating))
            and not isinstance(value, bool))


def _as_scalar(value, name: str, bound: str | None = None):
    """value, if it is a finite int, float, numpy real or Fraction, not a
    bool or a str, within ``bound``: None for any, ">= 0" or "positive".
    The one check of every scalar that a public routine takes, as
    ``_as_vector`` is of a vector: ValueError naming ``name`` otherwise."""
    if (_is_real(value) and -math.inf < value < math.inf
            and (bound is None or value > 0 or (value == 0 and bound == ">= 0"))):
        return value
    raise ValueError(f"{name} must be finite{'' if bound is None else ' and ' + bound}, "
                     f"got {value!r}")


def _fdot(x, y, eps=None) -> float:
    """sum_i eps_i x_i y_i of sequences of floats (eps_i = 1 by default) as
    a chain of fused multiply-adds, acc = fma(eps_i x_i, y_i, acc) in index
    order from acc = +0.0, which is how ``np.dot(eps * x, y)`` rounds short
    vectors on the usual BLAS builds; eps_i x_i is an exact sign flip.
    math.fma needs Python 3.13, so each step is math.fsum of acc and the
    exact product by Dekker's (1971) split with 2^27 + 1.  Exact while every
    |x_i|, |y_i| < 1.3e300 and no product nears the subnormal range: callers
    scale a vector to a largest entry in [1/2, 1) first (``_exponent``)."""
    if eps is None:
        eps = (1.0,) * len(x)
    acc = eps[0] * x[0] * y[0] + 0.0
    for i in range(1, len(x)):
        a, b = eps[i] * x[i], y[i]
        p = a * b
        c = 134217729.0 * a
        ah = c - (c - a)
        c = 134217729.0 * b
        bh = c - (c - b)
        al, bl = a - ah, b - bh
        acc = math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, acc))
    return acc


def _exponent(w) -> int:
    """The one scaling rule: the e for which 2^-e w, exact, has a largest
    |entry| in [1/2, 1); 0 for w = 0.  w is a sequence of floats."""
    return math.frexp(max(map(abs, w)))[1]


def _light_like(w, eps) -> tuple:
    """The light-like rule for one vector of floats w, signs eps:
    (ws, <ws, ws>, light).  ws is w scaled by ``_exponent``, for
    ``_fdot``; light holds where |<ws, ws>| <= LIGHT_TOL |ws|^2, both
    ``_fdot`` chains, w = 0 too.  As 1/4 <= |ws|^2 <= d, |ws|^2 is formed
    only where |<ws, ws>| <= d LIGHT_TOL.  ``_light_like_rows`` gives the
    same flags to a stack of vectors."""
    e = -_exponent(w)
    ws = [math.ldexp(c, e) for c in w]
    s = _fdot(ws, ws, eps)
    return ws, s, abs(s) <= len(ws) * LIGHT_TOL and abs(s) <= LIGHT_TOL * _fdot(ws, ws)


def _light_like_rows(W: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """The light flag of ``_light_like`` for each row of the (m, d) float
    stack W, decided in plain floats where a rounding bound settles it
    (Shewchuk 1997).  Each row is scaled as there, to ws, and the plain sum
    s^ = sum_i eps_i ws_i^2 is taken in numpy.  As |ws_i| < 1, s^ and the
    chain value s of the rule are each within gamma_d d of the exact sum
    (gamma_d = d u / (1 - d u), u = 2^-53), so |s^ - s| < delta = 3 d^2 u.
    A row with |s^| - delta > d LIGHT_TOL is not light.  A row with
    |s^| + delta < LIGHT_TOL (1 - 3 d u) / 4 is light: that bound, rounded
    as written, is below LIGHT_TOL (1 - gamma_d)(1 - u) / 4, which the
    rule's rounded LIGHT_TOL |ws|^2 exceeds, as |ws|^2 >= 1/4.  Every
    other row goes to ``_light_like``, so every flag is the rule's."""
    d = W.shape[1]
    WS = np.ldexp(W, -np.frexp(np.max(np.abs(W), axis=1, initial=0.0))[1][:, None])
    s = np.abs((WS * WS) @ eps)
    delta = 3.0 * d * d * 2.0**-53
    light = s + delta < LIGHT_TOL * (1.0 - 3.0 * d * 2.0**-53) / 4.0
    for i in np.flatnonzero(~light & (s - delta <= d * LIGHT_TOL)).tolist():
        light[i] = _light_like(W[i].tolist(), eps.tolist())[2]
    return light


def dot(x, y, sig: Signature) -> float:
    """Pseudo-Euclidean scalar product of x and y."""
    xv = _as_vector(x, sig.d)
    yv = _as_vector(y, sig.d)
    return float(np.dot(sig.eps * xv, yv))


def sq_norm(x, sig: Signature) -> float:
    """<x, x>; may be negative."""
    return dot(x, x, sig)


def line_type(v, sig: Signature) -> LineType:
    """Classify a direction vector as space-, time- or light-like."""
    vv, s, light = _light_like(_as_vector(v, sig.d).tolist(), sig.eps.tolist())
    if light:
        if not any(vv):
            raise ValueError("zero vector has no line type")
        return LineType.LIGHT_LIKE
    return LineType.SPACE_LIKE if s > 0 else LineType.TIME_LIKE


def pseudo_normal(w, sig: Signature) -> np.ndarray:
    """Pseudo-Euclidean normal of the hyperplane {x : w . x = const}.

    If w is the Euclidean normal, the metric-orthogonal direction is E w,
    with E the diagonal metric matrix.
    """
    return sig.eps * _as_vector(w, sig.d)


def reflect_direction(v, n, sig: Signature) -> np.ndarray:
    """Billiard reflection of direction v off a hyperplane with pseudo-normal n.

        v' = v - 2 (<v, n> / <n, n>) n

    Raises ``LightLikeNormal`` when n is light-like (``_light_like``), in
    which case the reflection is not defined.  v is scaled by ``_exponent``
    for ``_reflect`` and v' back, which changes no bit of v'.
    """
    vv = _as_vector(v, sig.d)
    e = _exponent(vv.tolist())
    out, light = _reflect(np.ldexp(vv, -e).tolist(), _as_vector(n, sig.d).tolist(),
                          sig.eps.tolist())
    if light:
        raise LightLikeNormal("normal is light-like; reflection undefined")
    return np.ldexp(out, e)


def _reflect(v, n, eps) -> tuple:
    """``reflect_direction`` unchecked, on floats, for v scaled by ``_exponent``:
    (v', False), or (-v, True) where n is light-like.  v' is formed with n
    scaled by ``_light_like``."""
    nn, n2, light = _light_like(n, eps)
    if light:
        return [-c for c in v], True
    w = 2.0 * _fdot(v, nn, eps) / n2
    return [a - w * b for a, b in zip(v, nn)], False


def pseudo_cross(x, y) -> np.ndarray:
    """Pseudo-cross product in signature (2, 1).

    Componentwise: (x2 y3 - x3 y2,  x3 y1 - x1 y3,  -(x1 y2 - x2 y1)).
    The result is metric-orthogonal to both arguments.
    """
    xv = _as_vector(x, 3)
    yv = _as_vector(y, 3)
    return np.array([
        xv[1] * yv[2] - xv[2] * yv[1],
        xv[2] * yv[0] - xv[0] * yv[2],
        -(xv[0] * yv[1] - xv[1] * yv[0]),
    ])


def mdistance(x, y, sig: Signature) -> MDistance:
    """Distance between points x and y; imaginary when <x-y, x-y> < 0."""
    diff = _as_vector(x, sig.d) - _as_vector(y, sig.d)
    s = float(np.dot(sig.eps * diff, diff))
    if s >= 0.0:
        return MDistance(math.sqrt(s), False)
    return MDistance(math.sqrt(-s), True)

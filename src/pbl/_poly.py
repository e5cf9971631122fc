"""Polynomial helpers shared across modules.

Coefficients are stored in ascending order: p[i] multiplies lambda**i.
The generic routines (`poly_mul`, `linear_product`) work for any
number type that supports + and * (floats, Fractions), which the exact
rational rank mode relies on.  Root finding and polishing are float only
and take one polynomial at a time: ``polynomial_roots`` finds its roots in
closed form on Python floats up to degree 3 and from one eigenvalue call
above, and ``newton_polish`` polishes them together on Python floats and
rejects a root that rounding has lost.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RootIsolationError


def poly_mul(p, q):
    """Product of two polynomials; preserves the coefficient number type."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return out


def linear_product(constants, slopes):
    """Expanded product of linear factors (constants[i] + slopes[i] * lambda)."""
    coeffs = [1]
    for c, s in zip(constants, slopes):
        coeffs = poly_mul(coeffs, [c, s])
    return coeffs


# ------------------------------------------------------------ float roots

#: Newton steps in ``newton_polish``.
NEWTON_STEPS = 3

#: Largest backward error |p(x)| / sum_k |c_k| |x|^k of a root that
#: ``newton_polish`` accepts.
POLISH_TOL = 1e-8


def newton_polish(coeffs: list, starts) -> list:
    """The roots of one polynomial of float coefficients, each polished from
    its start in ``starts`` by a few guarded Newton steps in Python floats,
    a few microseconds a root: a step that would leave the finite floats or
    raise |p| is not taken, and that root's polish stops there.  The
    derivative is formed once for all the roots; each evaluation is an
    inline Horner pass, acc = acc x + c from acc = 0 x, leading term first.

    RootIsolationError unless every coefficient is finite and every
    polished root x has a backward error |p(x)| <= POLISH_TOL
    sum_k |c_k| |x|^k: past that, rounding has lost the root (the
    eigenvalue solve loses two Jacobi coordinates of x = (1e16, 1, 1, 1)
    in the (2, 2) family on the axes (5, 3, 2, 4))."""
    if not all(map(math.isfinite, coeffs)):
        raise RootIsolationError("polynomial coefficients are not finite")
    high = coeffs[::-1]
    der = [i * c for i, c in enumerate(coeffs)][:0:-1]
    roots = []
    for x in starts:
        x = float(x)
        fx = 0.0 * x
        for c in high:
            fx = fx * x + c
        for _ in range(NEWTON_STEPS):
            dfx = 0.0 * x
            for c in der:
                dfx = dfx * x + c
            if dfx == 0.0:
                break
            x_new = x - fx / dfx
            f_new = 0.0 * x_new
            for c in high:
                f_new = f_new * x_new + c
            if not math.isfinite(x_new) or abs(f_new) > abs(fx):
                break
            x, fx = x_new, f_new
        bound = 0.0 * abs(x)
        for c in high:
            bound = bound * abs(x) + abs(c)
        if not abs(fx) <= POLISH_TOL * bound:
            raise RootIsolationError(f"rounding has lost the root near {x}: its backward "
                                     f"error is above {POLISH_TOL}")
        roots.append(x)
    return roots


def polynomial_roots(coeffs: list) -> tuple:
    """The real roots of one polynomial of ascending float coefficients with
    a nonzero leading one, and its complex pair of largest imaginary part as
    (re, im), im > 0, or None, in Python floats: ``closed_form_roots`` up to
    degree 3, else ``companion_roots``, where any other pair counts by its
    real parts among the real roots."""
    if len(coeffs) <= 4:
        return closed_form_roots(coeffs)
    z = companion_roots(coeffs).tolist()
    z.sort(key=lambda w: abs(w.imag))  # a conjugate pair shares its real part
    pair = (z[-1].real, abs(z[-1].imag)) if z[-1].imag else None
    return [w.real for w in (z[:-2] if pair else z)], pair


def closed_form_roots(coeffs: list) -> tuple:
    """``polynomial_roots`` of one polynomial of degree <= 3, on Python
    floats; non-finite coefficients give nan roots.

    Kahan, "To solve a real cubic equation" (1986), lists the hazards.  The
    variable is scaled by a power of two, so that the monic coefficients
    are below 2 and nothing overflows.  A cubic takes one real root r, the
    largest of three by Viete's form, else Cardano's with the sum of cube
    roots as a quotient free of cancellation, and divides it out: from the
    leading end unless r is the largest root, else from the constant end,
    on the coefficients as mantissa and exponent, so that the other roots
    keep their range.  A quadratic adds like signs for its larger root and
    divides the product of the roots by it for the other.
    """
    n = len(coeffs) - 1
    if not all(map(math.isfinite, coeffs)):
        return [math.nan] * n, None
    if n > 0 and not coeffs[0]:  # an exact root 0
        roots, pair = closed_form_roots(coeffs[1:])
        return roots + [0.0], pair
    parts, ks = list(map(math.frexp, coeffs)), range(n, 0, -1)
    m_n, e_n = parts[-1]
    s = max([-((e_n - e) // k) for (m, e), k in zip(parts, ks) if m], default=0)
    b = [math.ldexp(m / m_n, e - e_n - k * s) for (m, e), k in zip(parts, ks)]
    if n < 2:
        return [math.ldexp(-c, s) for c in b], None
    (m0, e0), (m1, e1) = parts[:2]
    if n == 2:
        return _quadratic(b[1], m0 / m_n, e0 - e_n - 2 * s, s)
    b0, b1, b2 = b
    h = b2 / 3.0  # mu = t - h gives t^3 + p t + q
    p, q = b1 - b2 * h, b0 - h * (b1 - 2.0 * h * h)
    delta = 0.25 * q * q + p * p * p / 27.0
    if delta > 0.0 or p >= 0.0:
        u = -0.5 * q - math.copysign(math.sqrt(max(delta, 0.0)), q)
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)
        r = (-q / (u * u + (p / (3.0 * u)) ** 2 + p / 3.0) if u else 0.0) - h
    else:  # the largest or the smallest t
        m = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        hi, lo = m * math.cos(theta) - h, m * math.cos(theta + 2.0 * math.pi / 3.0) - h
        r = hi if hi >= -lo else lo
    if r * r * abs(r) <= abs(b0):
        return _quadratic(b2 + r, b1 + r * (b2 + r), 0, s, (math.ldexp(r, s),))
    # lambda^2 + P1 lambda + P0 with P0 = -c0 / (c3 R) = a0 2^f0, P1 = (P0 - c1 / c3) / R
    f0, a0 = e0 - e_n - s, -m0 / m_n / r
    g = max(f0, e1 - e_n) if m1 else f0
    a1 = (math.ldexp(a0, f0 - g) - math.ldexp(m1 / m_n, e1 - e_n - g)) / r
    k = max(g - s, (f0 + 1) // 2)
    return _quadratic(math.ldexp(a1, g - s - k), a0, f0 - 2 * k, k, (math.ldexp(r, s),))


def _quadratic(b: float, c: float, e: int, k: int, more: tuple = ()) -> tuple:
    """The roots of mu^2 + b mu + c 2^e, times 2^k, and the roots ``more``."""
    disc = b * b - 4.0 * math.ldexp(c, e)
    if disc < 0.0:
        return [*more], (math.ldexp(-0.5 * b, k), math.ldexp(0.5 * math.sqrt(-disc), k))
    big = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    small = math.ldexp(c / big, e + k) if big else 0.0  # in one step, to keep its range
    return [math.ldexp(big, k), small, *more], None


def companion_roots(coeffs) -> np.ndarray:
    """Sorted complex roots of one polynomial of ascending coefficients with
    a nonzero leading one and degree n >= 2: numpy's ``polyroots``, bit for
    bit, from one ``eigvals`` of the companion matrix.  A companion matrix
    that is not finite gives nan roots."""
    c, n = np.asarray(coeffs, dtype=float), len(coeffs) - 1
    mat = np.zeros((n, n))
    mat.reshape(-1)[n :: n + 1] = 1.0
    mat[:, -1] -= c[:-1] / c[-1]
    if not np.isfinite(mat).all():
        return np.full(n, math.nan, dtype=complex)
    return np.sort(np.linalg.eigvals(mat).astype(complex))

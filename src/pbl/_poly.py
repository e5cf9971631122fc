"""Polynomial helpers shared across modules.

Coefficients are stored in ascending order: p[i] multiplies lambda**i.
The generic routines (`poly_mul`, `poly_eval`, `poly_der`) work for any
number type that supports + and * (floats, Fractions), which the exact
rational rank mode relies on.  Root finding is float only.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly


def poly_mul(p, q):
    """Product of two polynomials; preserves the coefficient number type."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return out


def poly_eval(p, x):
    """Horner evaluation; preserves the coefficient number type."""
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_der(p):
    return [i * c for i, c in enumerate(p)][1:] or [0 * p[0]]


def linear_product(constants, slopes):
    """Expanded product of linear factors (constants[i] + slopes[i] * lambda)."""
    coeffs = [1]
    for c, s in zip(constants, slopes):
        coeffs = poly_mul(coeffs, [c, s])
    return coeffs


# ------------------------------------------------------------ float roots

def companion_roots(coeffs) -> np.ndarray:
    """All complex roots of a float polynomial (companion-matrix method)."""
    c = np.asarray(coeffs, dtype=float)
    return npoly.polyroots(c)


#: Newton steps in ``newton_polish``.
NEWTON_STEPS = 3


def newton_polish(coeffs, x0: float) -> float:
    """A few guarded Newton steps on a float polynomial."""
    der = poly_der(list(coeffs))
    x = float(x0)
    fx = abs(poly_eval(coeffs, x))
    for _ in range(NEWTON_STEPS):
        dfx = poly_eval(der, x)
        if dfx == 0.0:
            break
        x_new = x - poly_eval(coeffs, x) / dfx
        f_new = abs(poly_eval(coeffs, x_new))
        if not np.isfinite(x_new) or f_new > fx:
            break
        x, fx = x_new, f_new
    return x

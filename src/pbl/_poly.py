"""Polynomial helpers shared across modules.

Coefficients are stored in ascending order: p[i] multiplies lambda**i.
The generic routines (`poly_mul`, `poly_eval`) work for any
number type that supports + and * (floats, Fractions), which the exact
rational rank mode relies on.  Root finding and polishing are float only:
the roots of a stack of polynomials come from one stacked eigenvalue call,
and each root is then polished alone on Python floats by ``newton_polish``,
the one polish of a single polynomial and of a stack.
"""

from __future__ import annotations

import math

import numpy as np


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


def linear_product(constants, slopes):
    """Expanded product of linear factors (constants[i] + slopes[i] * lambda)."""
    coeffs = [1]
    for c, s in zip(constants, slopes):
        coeffs = poly_mul(coeffs, [c, s])
    return coeffs


# ------------------------------------------------------------ float roots

#: Newton steps in ``newton_polish``.
NEWTON_STEPS = 3


def newton_polish(coeffs, x0: float) -> float:
    """A few guarded Newton steps on a float polynomial, in Python floats,
    a few microseconds a root: a step that would leave the finite floats
    or raise |p| is not taken, and the polish stops there."""
    coeffs = np.asarray(coeffs, dtype=float).tolist()  # same bits, faster than numpy scalars
    der = [i * c for i, c in enumerate(coeffs)][1:]
    x = float(x0)
    fx = poly_eval(coeffs, x)
    for _ in range(NEWTON_STEPS):
        dfx = poly_eval(der, x)
        if dfx == 0.0:
            break
        x_new = x - fx / dfx
        f_new = poly_eval(coeffs, x_new)
        if not math.isfinite(x_new) or abs(f_new) > abs(fx):
            break
        x, fx = x_new, f_new
    return x


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Sorted complex roots of each row of (S, n + 1) ascending coefficients
    with nonzero leading ones: numpy's ``polyroots`` row by row, bit for
    bit, from one stacked ``eigvals`` of the companion matrices."""
    rows, n = coeffs.shape[0], coeffs.shape[1] - 1
    if n < 2:
        return (-coeffs[:, :n] / coeffs[:, n:]).astype(complex)
    mat = np.zeros((rows, n, n))
    mat.reshape(rows, n * n)[:, n :: n + 1] = 1.0
    mat[:, :, -1] -= coeffs[:, :-1] / coeffs[:, -1:]
    return np.sort(np.linalg.eigvals(mat).astype(complex), axis=-1)

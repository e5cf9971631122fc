"""Polynomial helpers shared across modules.

Coefficients are stored in ascending order: p[i] multiplies lambda**i.
The generic routines (`poly_mul`, `poly_eval`) work for any
number type that supports + and * (floats, Fractions), which the exact
rational rank mode relies on.  Root finding and polishing are float only.
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

#: Newton steps in ``newton_polish`` and ``newton_polish_rows``.
NEWTON_STEPS = 3


def newton_polish(coeffs, x0: float) -> float:
    """A few guarded Newton steps on a float polynomial, in Python floats:
    one root of one polynomial costs a few microseconds, where the numpy
    calls of ``newton_polish_rows`` cost several times more."""
    coeffs = np.asarray(coeffs, dtype=float).tolist()  # same bits, faster than numpy scalars
    der = [i * c for i, c in enumerate(coeffs)][1:]
    x = float(x0)
    fx = abs(poly_eval(coeffs, x))
    for _ in range(NEWTON_STEPS):
        dfx = poly_eval(der, x)
        if dfx == 0.0:
            break
        x_new = x - poly_eval(coeffs, x) / dfx
        f_new = abs(poly_eval(coeffs, x_new))
        if not math.isfinite(x_new) or f_new > fx:
            break
        x, fx = x_new, f_new
    return x


def newton_polish_rows(coeffs: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """``newton_polish`` from each start x0[s, j] on the polynomial
    coeffs[s], bit for bit: (S, n + 1) coefficients, (S, m) starts, the
    same steps and guards, and a root frozen where its scalar loop stops."""
    c = coeffs[:, None, :]
    n = c.shape[-1] - 1
    cols = [c[..., j] for j in range(n, -1, -1)]
    dcols = [j * c[..., j] for j in range(n, 0, -1)]

    def ev(cols, x):
        acc = 0.0 * x
        for cj in cols:
            acc = acc * x + cj
        return acc

    with np.errstate(all="ignore"):
        x = np.array(x0, dtype=float)
        fx = ev(cols, x)
        for _ in range(NEWTON_STEPS):
            dfx = ev(dcols, x)
            x_new = x - fx / dfx
            f_new = ev(cols, x_new)
            # a frozen root meets the same stop again at every later step
            go = (dfx != 0.0) & np.isfinite(x_new) & ~(np.abs(f_new) > np.abs(fx))
            x = np.where(go, x_new, x)
            fx = np.where(go, f_new, fx)
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

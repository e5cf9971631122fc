"""Polynomial helpers shared across modules.

Coefficients are stored in ascending order: p[i] multiplies lambda**i.
The generic routines (`poly_mul`, `poly_eval`) work for any
number type that supports + and * (floats, Fractions), which the exact
rational rank mode relies on.  Root finding and polishing are float only:
the roots of a stack of polynomials come from one stacked eigenvalue call,
and the roots of each polynomial are then polished together on Python
floats by ``newton_polish``, the one polish of a single polynomial and of
a stack, which also rejects a root that rounding has lost.
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

#: Largest backward error |p(x)| / sum_k |c_k| |x|^k of a root that
#: ``newton_polish`` accepts.
POLISH_TOL = 1e-8


def newton_polish(coeffs, starts) -> list:
    """The roots of one float polynomial, each polished from its start in
    ``starts`` by a few guarded Newton steps in Python floats, a few
    microseconds a root: a step that would leave the finite floats or raise
    |p| is not taken, and that root's polish stops there.  The coefficients
    are converted and the derivative formed once for all the roots.

    RootIsolationError unless every coefficient is finite and every
    polished root x has a backward error |p(x)| <= POLISH_TOL
    sum_k |c_k| |x|^k: past that, rounding has lost the root (a Jacobi
    coordinate of a point 1e16 times the axes out gives 1)."""
    coeffs = np.asarray(coeffs, dtype=float).tolist()  # same bits, faster than numpy scalars
    if not all(map(math.isfinite, coeffs)):
        raise RootIsolationError("polynomial coefficients are not finite")
    der = [i * c for i, c in enumerate(coeffs)][1:]
    abs_coeffs = [abs(c) for c in coeffs]
    roots = []
    for x in starts:
        x = float(x)
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
        if not abs(fx) <= POLISH_TOL * poly_eval(abs_coeffs, abs(x)):
            raise RootIsolationError(f"rounding has lost the root near {x}: its backward "
                                     f"error is above {POLISH_TOL}")
        roots.append(x)
    return roots


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Sorted complex roots of each row of (S, n + 1) ascending coefficients
    with nonzero leading ones: numpy's ``polyroots`` row by row, bit for
    bit, from one stacked ``eigvals`` of the companion matrices.  A row
    whose companion matrix is not finite gets nan roots."""
    rows, n = coeffs.shape[0], coeffs.shape[1] - 1
    if n < 2:
        return (-coeffs[:, :n] / coeffs[:, n:]).astype(complex)
    mat = np.zeros((rows, n, n))
    mat.reshape(rows, n * n)[:, n :: n + 1] = 1.0
    mat[:, :, -1] -= coeffs[:, :-1] / coeffs[:, -1:]
    try:
        roots = np.linalg.eigvals(mat).astype(complex)
    except np.linalg.LinAlgError:  # raised for the whole stack if one matrix is not finite
        finite = np.isfinite(mat).all((1, 2))
        roots = np.full((rows, n), math.nan, dtype=complex)
        roots[finite] = np.linalg.eigvals(mat[finite])
    return np.sort(roots, axis=-1)

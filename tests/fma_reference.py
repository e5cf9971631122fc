"""Exact reference arithmetic shared by the test modules."""

import math
from fractions import Fraction


def fma_chain(x, y) -> float:
    """sum x_i y_i as a chain of fused multiply-adds from acc = +0.0: each
    step rounds x_i y_i + acc once, from its exact value in Fraction.  An
    exact zero is -0.0 only where x_i y_i and acc are both -0.0, as IEEE 754
    rounds to nearest."""
    acc = 0.0
    for a, b in zip(x, y):
        exact = Fraction(a) * Fraction(b) + Fraction(acc)
        if exact:
            acc = float(exact)
        else:
            negative = math.copysign(1.0, a * b) + math.copysign(1.0, acc) == -2.0
            acc = -0.0 if negative and a * b == 0.0 == acc else 0.0
    return acc

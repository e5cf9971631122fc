"""Every routine that takes caustic parameters reads them through
``confocal._caustic_set``: a malformed set raises one class everywhere.

nan, -inf and a second +inf are values no caustic set holds
(DegenerateConfiguration, from ``CausticSet``); a caustic that is not a
number by the type rule of the scalar door (a str, None, a bool) and a set
of the wrong length for the family raise ValueError.
"""

import math

import numpy as np
import pytest

from pbl.billiard import (
    direction_with_caustics,
    random_boundary_point,
    trace,
    trajectory_from_dict,
    trajectory_to_dict,
)
from pbl.confocal import (
    INF,
    ConfocalFamily,
    interlacing_checks,
    trajectory_type_from_caustics,
)
from pbl.errors import DegenerateConfiguration
from pbl.metric import LineType, Signature
from pbl.periodicity import build_P1, cayley_condition, normalized_sqrt_series, poncelet_verify

FAM2 = ConfocalFamily(Signature(1, 1), (2.0, 1.0))
FAM3 = ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0))


def _stored(fam, params):
    """A traced trajectory of ``fam`` in dict form, its caustics replaced."""
    start = [0.1, 0.2, 0.1][: fam.d]
    direction = [1.0, 0.4, -0.3][: fam.d]
    data = trajectory_to_dict(trace(fam, start, direction, 4))
    data["caustics"] = list(params)
    return data


READERS = {
    "trajectory_type_from_caustics": lambda fam, cs: trajectory_type_from_caustics(fam, cs),
    "interlacing_checks": lambda fam, cs: interlacing_checks(fam, cs, LineType.SPACE_LIKE),
    "direction_with_caustics": lambda fam, cs: direction_with_caustics(
        fam, random_boundary_point(fam, np.random.default_rng(3)), cs),
    "build_P1": lambda fam, cs: build_P1(fam, cs),
    "normalized_sqrt_series": lambda fam, cs: normalized_sqrt_series(fam, cs, 8),
    "normalized_sqrt_series_exact": lambda fam, cs: normalized_sqrt_series(fam, cs, 8, exact=True),
    "cayley_condition": lambda fam, cs: cayley_condition(fam, cs, 6),
    "poncelet_verify": lambda fam, cs: poncelet_verify(fam, cs, 6, samples=1),
    "trajectory_from_dict": lambda fam, cs: trajectory_from_dict(_stored(fam, cs)),
}

NOT_A_NUMBER = r"caustics must be finite numbers or \+inf"

CASES = {
    "nan": (FAM2, (math.nan,), DegenerateConfiguration, "nan, -inf or a second"),
    "minus-inf": (FAM2, (-INF,), DegenerateConfiguration, "nan, -inf or a second"),
    "inf-inf": (FAM3, (INF, INF), DegenerateConfiguration, "nan, -inf or a second"),
    "nan-among-finite": (FAM3, (1.0, math.nan), DegenerateConfiguration, "nan, -inf or a second"),
    "wrong-count": (FAM3, (1.0,), ValueError, "expected 2 caustic parameters, got 1"),
    # these raised TypeError ("'<' not supported ...") or, True, read as 1.0
    "str": (FAM2, ("0.5",), ValueError, NOT_A_NUMBER),
    "none": (FAM2, (None,), ValueError, NOT_A_NUMBER),
    "bool": (FAM2, (True,), ValueError, NOT_A_NUMBER),
    "str-among-finite": (FAM3, (1.0, "2.0"), ValueError, NOT_A_NUMBER),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_rejects_a_malformed_caustic_set(reader, case):
    fam, params, error, message = CASES[case]
    with pytest.raises(error, match=message):
        READERS[reader](fam, params)

"""Bilinear-form layer: scalar products, line types, reflections, distances,
and the one check of every point and direction that the library takes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from fma_reference import fma_chain
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbl import metric
from pbl.billiard import direction_with_caustics, inward_direction, reflect_at_boundary, trace
from pbl.confocal import (
    ConfocalFamily,
    Line,
    evaluate_quadric,
    interlacing_report,
    jacobi_coordinates,
)
from pbl.errors import LightLikeNormal
from pbl.metric import (
    LIGHT_TOL,
    LineType,
    MDistance,
    Signature,
    dot,
    line_type,
    mdistance,
    pseudo_cross,
    pseudo_normal,
    reflect_direction,
    sq_norm,
    _fdot,
    _light_like,
    _light_like_rows,
)
from pbl.relativistic import (
    decorated_coordinates,
    focal_residual,
    relativistic_type,
    tropic_cone_residual,
)

SIG21 = Signature(2, 1)
SIG11 = Signature(1, 1)
SIG12 = Signature(1, 2)

coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(coord, coord, coord)


def _euclid(v) -> float:
    return float(np.dot(v, v))


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 2)
    with pytest.raises(ValueError):
        Signature(2, 0)
    assert SIG21.d == 3
    assert list(SIG21.eps) == [1.0, 1.0, -1.0]
    assert list(SIG12.eps) == [1.0, -1.0, -1.0]


def test_dot_examples():
    assert dot([1, 2, 3], [4, 5, 6], SIG21) == pytest.approx(-4.0)
    assert dot([1, 2, 3], [4, 5, 6], SIG12) == pytest.approx(-24.0)
    assert dot([1, 0], [0, 1], SIG11) == 0.0


def test_sq_norm_light_cone():
    assert sq_norm([1.0, 1.0, math.sqrt(2.0)], SIG21) == pytest.approx(0.0, abs=1e-12)
    assert sq_norm([3.0, 4.0], SIG11) == pytest.approx(-7.0)


def test_dot_shape_validation():
    with pytest.raises(ValueError):
        dot([1.0, 2.0], [3.0, 4.0], SIG21)


def test_line_type_examples():
    assert line_type([1, 0, 0], SIG21) is LineType.SPACE_LIKE
    assert line_type([0, 0, 1], SIG21) is LineType.TIME_LIKE
    assert line_type([1.0, 1.0, math.sqrt(2.0)], SIG21) is LineType.LIGHT_LIKE
    assert line_type([1, 1], SIG11) is LineType.LIGHT_LIKE
    assert str(LineType.SPACE_LIKE) == "space-like"


def test_line_type_zero_vector():
    with pytest.raises(ValueError):
        line_type([0.0, 0.0, 0.0], SIG21)


@given(vec3, st.floats(1e-3, 1e3))
@example(v=(0.0, 0.0, 6.891676279098351e-161), s=0.015625)
def test_line_type_scale_invariant(v, s):
    arr = np.asarray(v)
    if _euclid(arr) == 0.0:
        return
    assert line_type(arr, SIG21) is line_type(s * arr, SIG21)


def test_reflect_examples():
    # z-mirror in (2, 1): pseudo-normal (0, 0, 1) flips the last component
    out = reflect_direction([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], SIG21)
    assert out == pytest.approx([1.0, 2.0, -3.0])
    # x-mirror
    out = reflect_direction([-1.0, 1.0, 0.0], [1.0, 0.0, 0.0], SIG21)
    assert out == pytest.approx([1.0, 1.0, 0.0])


def test_reflect_oblique_plane():
    out = reflect_direction([1.0, 0.0], [2.0, 1.0], SIG11)
    assert out == pytest.approx([-5.0 / 3.0, -4.0 / 3.0])


def test_reflect_lightlike_normal_raises():
    with pytest.raises(LightLikeNormal):
        reflect_direction([1.0, 0.0, 0.0], [1.0, 1.0, math.sqrt(2.0)], SIG21)
    with pytest.raises(LightLikeNormal):
        reflect_direction([1.0, 0.0], [1.0, 1.0], SIG11)
    with pytest.raises(LightLikeNormal):
        reflect_direction([1.0, 0.0], [0.0, 0.0], SIG11)


@settings(max_examples=200)
@given(vec3, vec3)
@example(v=(1.0, 0.5, 0.3), n=(1.3e-158, 0.7e-158, 0.2e-158))  # <n, n> underflows unscaled
def test_reflect_involution_and_invariants(v, n):
    varr, narr = np.asarray(v), np.asarray(n)
    n2 = sq_norm(narr, SIG21)
    # keep the reflection well conditioned so float noise stays bounded
    if _euclid(narr) == 0.0 or abs(n2) <= 0.1 * _euclid(narr):
        return
    out = reflect_direction(varr, narr, SIG21)
    back = reflect_direction(out, narr, SIG21)
    big = max(1.0, np.max(np.abs(varr)), np.max(np.abs(out)))
    assert np.max(np.abs(back - varr)) <= 1e-10 * big
    assert sq_norm(out, SIG21) == pytest.approx(sq_norm(varr, SIG21), abs=1e-8 * big * big)
    v2 = sq_norm(varr, SIG21)
    if abs(v2) > 1e-3 * max(_euclid(varr), _euclid(out)):
        assert line_type(out, SIG21) is line_type(varr, SIG21)


def _scalar_light_rule(w, eps):
    """Reference: the light-like rule one vector at a time, in math.frexp
    and np.dot: (scaled w, <w, w>, light)."""
    ws = np.ldexp(w, -math.frexp(float(np.max(np.abs(w))))[1])
    s = float(np.dot(eps * ws, ws))
    e2 = float(np.dot(ws, ws))
    return ws, s, e2 == 0.0 or abs(s) <= LIGHT_TOL * e2


#: <w, w> / |w|^2 of the rows next to the light cone, in units of LIGHT_TOL
CONE_RATIOS = (1 - 1e-6, 1 + 1e-6, -(1 - 1e-6), -(1 + 1e-6), 1 - 1e-3, 1 + 1e-3, -(1 - 1e-3), 0.0)


def _light_rule_rows(rng, k, l):
    """Seeded rows of signature (k, l): random ones over 300 decades of
    scale, rows at CONE_RATIOS up to rounding, and a zero row."""
    rows = [rng.normal(size=k + l) * 10.0 ** rng.uniform(-150, 150) for _ in range(24)]
    for r in CONE_RATIOS:
        w = rng.normal(size=k + l)
        ratio = r * LIGHT_TOL
        w[k:] *= math.sqrt(np.sum(w[:k] ** 2) * (1 - ratio) / (np.sum(w[k:] ** 2) * (1 + ratio)))
        rows.append(w * 10.0 ** rng.uniform(-5, 5))
    rows.append(np.zeros(k + l))
    return np.array(rows)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_light_rule_rows_match_the_reference(d):
    rng = np.random.default_rng(d)
    for k in range(1, d):
        sig = Signature(k, d - k)
        lights = []
        for w in _light_rule_rows(rng, k, d - k):
            wi, si, li = _light_like(w.tolist(), sig.eps.tolist())
            rw, rs, rl = _scalar_light_rule(w, sig.eps)
            assert np.array(wi).tobytes() == rw.tobytes() and si == rs and li == rl
            lights.append(li)
            # line_type and reflect_direction decide the row by the reference
            v = rng.normal(size=d)
            if rl and not w.any():
                with pytest.raises(ValueError):
                    line_type(w, sig)
            elif rl:
                assert line_type(w, sig) is LineType.LIGHT_LIKE
            else:
                assert line_type(w, sig) is (LineType.SPACE_LIKE if rs > 0 else LineType.TIME_LIKE)
            if rl:
                with pytest.raises(LightLikeNormal):
                    reflect_direction(v, w, sig)
            else:
                expected = v - (2.0 * float(np.dot(sig.eps * v, rw)) / rs) * rw
                assert reflect_direction(v, w, sig).tobytes() == expected.tobytes()
        # the rows at (1 - 1e-3, 1 + 1e-3, -(1 - 1e-3), 0) LIGHT_TOL, and the zero row
        assert lights[-5:] == [True, False, True, True, True]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_light_like_rows_match_the_rule(d):
    rng = np.random.default_rng(100 + d)
    for k in range(1, d):
        eps = Signature(k, d - k).eps
        rows = _light_rule_rows(rng, k, d - k)
        want = [_light_like(w, eps.tolist())[2] for w in rows.tolist()]
        assert _light_like_rows(rows, eps).tolist() == want
    assert _light_like_rows(np.zeros((0, d)), eps).tolist() == []


def _row_at(target: float, d: int, scale: int) -> list:
    """2^scale times the row (a, 0, ..., 0, b) with a = 3/4 and exact
    a^2 - b^2 as close to target as the floats b allow."""
    a = 0.75
    b = math.sqrt(a * a - target)
    b = min((math.nextafter(b, -1.0), b, math.nextafter(b, 2.0)),
            key=lambda c: abs(Fraction(a) ** 2 - Fraction(c) ** 2 - Fraction(target)))
    assert abs(Fraction(a) ** 2 - Fraction(b) ** 2 - Fraction(target)) < 2.0**-53
    return [math.ldexp(c, scale) for c in [a] + [0.0] * (d - 2) + [b]]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_light_like_rows_send_the_edges_to_the_rule(d, monkeypatch):
    # the filter decides |s^| > d LIGHT_TOL + delta and
    # |s^| < LIGHT_TOL (1 - 3 d u) / 4 - delta; rows within delta / 2 of
    # either edge of the rule, and every row between, go to _light_like
    delta = 3.0 * d * d * 2.0**-53
    rng = np.random.default_rng(d)
    rows, fallback = [], []
    for edge, offsets in ((d * LIGHT_TOL, (-2.0, -0.5, 0.5, 2.0)),
                          (LIGHT_TOL / 4.0, (-2.0, -0.5, 0.5, 2.0))):
        for off in offsets:
            for sign in (1.0, -1.0):
                rows.append(_row_at(sign * (edge + off * delta), d, int(rng.integers(-600, 600))))
                # past the outer edges the filter decides alone
                fallback.append(not (edge > LIGHT_TOL and off > 1.0 or edge < LIGHT_TOL and off < -1.0))
    calls = []

    def recorded(w, eps):
        calls.append(list(w))
        return _light_like(w, eps)

    rows = np.array(rows)
    for k in (1, d - 1):
        eps = Signature(k, d - k).eps
        monkeypatch.setattr(metric, "_light_like", recorded)
        calls.clear()
        light = _light_like_rows(rows, eps).tolist()
        monkeypatch.undo()
        assert calls == [w for w, f in zip(rows.tolist(), fallback) if f]
        assert light == [_light_like(w, eps.tolist())[2] for w in rows.tolist()]
        # |ws|^2 is about 9/8 on these rows: not light near d LIGHT_TOL,
        # light near LIGHT_TOL / 4
        assert light == [False] * 8 + [True] * 8


def _vector_pairs(rng, count: int):
    """Seeded pairs of 2- to 8-vectors over +-20 decades, a tenth of the
    entries 0.0 or -0.0."""
    for _ in range(count):
        d = int(rng.integers(2, 9))
        pair = [rng.normal(size=d) * 10.0 ** rng.uniform(-20, 20, d) for _ in range(2)]
        for x in pair:
            zero = rng.random(d) < 0.1
            x[zero] = np.where(rng.random(d) < 0.5, 0.0, -0.0)[zero]
        yield pair[0].tolist(), pair[1].tolist()


def test_fdot_is_an_exact_fma_chain():
    rng = np.random.default_rng(11)
    cases = list(_vector_pairs(rng, 3000))
    cases += [([0.1, 0.1], [0.1, -0.1]), ([1e20, 1.0, -1e20], [1.0, 1.0, 1.0]),
              ([-0.0, -0.0], [1.0, 1.0]), ([0.0, -2.0], [-1.0, 0.0]), ([0.5, 0.25], [-0.5, 1.0])]
    for x, y in cases:
        assert _fdot(x, y).hex() == fma_chain(x, y).hex(), (x, y)
        # with signs: the chain of eps_i x_i y_i
        eps = rng.choice([-1.0, 1.0], len(x)).tolist()
        signed = [e * a for e, a in zip(eps, x)]
        assert _fdot(x, y, eps).hex() == fma_chain(signed, y).hex(), (x, y, eps)
    # two products that cancel leave the rounding error of the first
    assert _fdot([0.1, 0.1], [0.1, -0.1]) != 0.0 == 0.1 * 0.1 - 0.1 * 0.1


def _reference_reflection(v, n, eps) -> np.ndarray:
    """The reflection as the light rule of ``_scalar_light_rule`` forms it,
    with every dot product an exact FMA chain."""
    nn = np.ldexp(n, -math.frexp(float(np.max(np.abs(n))))[1])
    return v - (2.0 * fma_chain(eps * v, nn) / fma_chain(eps * nn, nn)) * nn


@pytest.mark.parametrize("scale", [1e300, 1e-300], ids=["1e300", "1e-300"])
def test_extreme_magnitudes_reflect_and_classify(scale):
    # Dekker's split overflows above 1.3e300 and its error term is inexact
    # near the subnormal range; both arguments are scaled before any product
    eps = SIG21.eps
    v, n = np.array([10.0, 2.0, 1.0]), np.array([1.0, 0.5, 0.25])
    for vs, ns in [(scale * v, n), (v, scale * n), (scale * v, n / scale), (v / scale, n * scale)]:
        out = reflect_direction(vs, ns, SIG21)
        assert np.isfinite(out).all()
        assert out.tobytes() == _reference_reflection(vs, ns, eps).tobytes()
    assert line_type(scale * v, SIG21) is LineType.SPACE_LIKE
    assert line_type([scale, 0.0, scale], SIG21) is LineType.LIGHT_LIKE
    assert line_type([scale, 0.0, 2.0 * scale], SIG21) is LineType.TIME_LIKE


def test_pseudo_normal_is_metric_diagonal():
    out = pseudo_normal([1.0, 2.0, 3.0], SIG21)
    assert out == pytest.approx([1.0, 2.0, -3.0])
    out = pseudo_normal([1.0, 2.0, 3.0], SIG12)
    assert out == pytest.approx([1.0, -2.0, -3.0])


def test_pseudo_cross_examples():
    out = pseudo_cross([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert out == pytest.approx([0.0, 0.0, -1.0])
    assert pseudo_cross([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx([0.0, 0.0, 0.0])


@settings(max_examples=200)
@given(vec3, vec3)
def test_pseudo_cross_orthogonality(x, y):
    xa, ya = np.asarray(x), np.asarray(y)
    c = pseudo_cross(xa, ya)
    bound = 1e-9 * max(1.0, _euclid(xa)) * max(1.0, _euclid(ya))
    assert abs(dot(c, xa, SIG21)) <= bound
    assert abs(dot(c, ya, SIG21)) <= bound


@given(vec3, vec3)
def test_pseudo_cross_is_metric_image_of_euclidean(x, y):
    xa, ya = np.asarray(x), np.asarray(y)
    expected = SIG21.eps * np.cross(xa, ya)
    assert pseudo_cross(xa, ya) == pytest.approx(expected, abs=1e-9)


def test_mdistance_examples():
    d = mdistance([2.0, 0.0, 1.0], [1.0, 0.0, 0.0], SIG21)
    assert d == MDistance(0.0, False)
    d = mdistance([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], SIG21)
    assert d.imaginary and d.magnitude == pytest.approx(1.0)
    d = mdistance([2.0, 0.0], [0.0, 1.0], SIG11)
    assert not d.imaginary and d.magnitude == pytest.approx(math.sqrt(3.0))


@pytest.mark.parametrize("x, want", [
    ([1e200, 0.0], MDistance(1e200, False)),   # <d, d> overflowed, with a warning
    ([1e-200, 0.0], MDistance(1e-200, False)),  # <d, d> underflowed to 0
    ([1e-170, 2e-170], MDistance(math.sqrt(3.0) * 1e-170, True)),  # read a real 0
])
def test_mdistance_at_the_ends_of_the_float_range(x, want):
    # the difference is scaled by _exponent before it is squared
    assert mdistance(x, [0.0, 0.0], SIG11) == want
    assert mdistance([0.0, 0.0], x, SIG11) == want


@pytest.mark.parametrize("x, y, want", [
    ([1e308, 0.0], [-1e308, 0.0], MDistance(math.inf, False)),
    ([0.0, 1e308], [0.0, -1e308], MDistance(math.inf, True)),
    ([1.5e308, 1e308], [-0.5e308, 0.0], MDistance(math.sqrt(3.0) * 1e308, False)),
])
def test_mdistance_of_a_difference_past_the_float_range(x, y, want):
    # x - y overflows: the distance is twice that of the halves, and a
    # distance past the float range reads infinity with its sign
    d = mdistance(x, y, SIG11)
    assert d.imaginary is want.imaginary
    assert d.magnitude == pytest.approx(want.magnitude, rel=1e-15)


@given(vec3, vec3)
def test_mdistance_symmetry(x, y):
    d1 = mdistance(x, y, SIG21)
    d2 = mdistance(y, x, SIG21)
    assert d1.imaginary == d2.imaginary
    assert d1.magnitude == pytest.approx(d2.magnitude)


# ------------------------------------- one check for every point and direction


FAM3 = ConfocalFamily(SIG21, (5.0, 3.0, 2.0))
FAM2 = ConfocalFamily(SIG11, (2.0, 1.0))
X, V = [0.1, 0.2, 0.1], [1.0, 0.4, -0.3]
P, U = [math.sqrt(5.0), 0.0, 0.0], [-1.0, 1.0, 0.0]
CAUSTICS = (-2.320953597016259, 2.154286930349592)
LAM0 = jacobi_coordinates(FAM3, X).real_roots[0]

#: entry -> (a call that puts w where one point or direction goes, a valid w)
VECTOR_ENTRIES = {
    "jacobi_coordinates": (lambda w: jacobi_coordinates(FAM3, w), X),
    "decorated_coordinates": (lambda w: decorated_coordinates(FAM3, w), X),
    "relativistic_type": (lambda w: relativistic_type(FAM3, w, LAM0), X),
    "direction_with_caustics": (lambda w: direction_with_caustics(FAM3, w, CAUSTICS), P),
    "trace-start": (lambda w: trace(FAM3, w, V, 4), X),
    "trace-direction": (lambda w: trace(FAM3, X, w, 4), V),
    "reflect_at_boundary-p": (lambda w: reflect_at_boundary(FAM3, w, U), P),
    "reflect_at_boundary-v": (lambda w: reflect_at_boundary(FAM3, P, w), U),
    "inward_direction-p": (lambda w: inward_direction(FAM3, w, U), P),
    "inward_direction-v": (lambda w: inward_direction(FAM3, P, w), U),
    "Line-base": (lambda w: interlacing_report(FAM3, Line(w, V)), X),
    "Line-direction": (lambda w: interlacing_report(FAM3, Line(X, w)), V),
    "evaluate_quadric": (lambda w: evaluate_quadric(FAM3, 0.0, w), X),
    "tropic_cone_residual": (lambda w: tropic_cone_residual(FAM3, 0.0, w), X),
    "focal_residual": (lambda w: focal_residual(FAM2, 0.0, w), [math.sqrt(2.0), 0.0]),
    "line_type": (lambda w: line_type(w, SIG21), V),
    "mdistance": (lambda w: mdistance(w, [0.0, 0.0], SIG11), [1.0, 0.0]),
}


@pytest.mark.parametrize("bad", ["short", "long", "deep", "inf", "nan"])
@pytest.mark.parametrize("entry", list(VECTOR_ENTRIES))
def test_vector_entries_reject_wrong_shape_and_non_finite(entry, bad):
    # every public routine reads a point or direction through
    # metric._as_vector, so each rejects the same inputs with its message
    call, good = VECTOR_ENTRIES[entry]
    call(good)
    w = np.array(good, dtype=float)
    if bad == "short":
        w = w[..., :1]
    elif bad == "long":
        w = np.concatenate([w, w[..., :1]], axis=-1)
    elif bad == "deep":
        w = w[None, None]
    else:
        w.flat[w.size - w.shape[-1]] = float(bad)  # the first entry of the last row
    with pytest.raises(ValueError, match=r"expected a (finite )?\d-vector"):
        call(w)


def test_direction_with_caustics_takes_one_point():
    # the stacked closed form is the private core billiard._directions;
    # the public routine has one contract, one point in and its list out
    with pytest.raises(ValueError, match="expected a 3-vector, got shape"):
        direction_with_caustics(FAM3, [P, X], CAUSTICS)

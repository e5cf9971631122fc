"""The four benchmark workloads: seeded inputs, one request, and its checks.

Each workload is a stream of independent requests against the public API
of ``pbl``.  ``api`` is the freshly imported ``pbl`` package; requests look
functions up on it (or its submodules) at call time, so the wrappers of
the traced run see every call.  Inputs come from ``numpy`` generators
seeded by the run's seed and are made in chunks: the first chunk is part
of set-up, later ones are made between requests, outside their latency.
Within a chunk the request kinds follow a seeded shuffle of a fixed cycle,
so the mix of kinds does not depend on the seed.

``orbit_trace`` and ``closure_verify`` draw their inputs from
``pools.json`` instead, in a seeded order: inputs drawn once from the same
distributions (``candidate``) and kept only if the current code passes
every check on them, because a benchmark run must not fail.  The inputs
left out, on which the code fails, are listed there too; ``make_pools.py``
writes the file and ``selftest.py`` replays the left-out ones.

``call`` returns the request's work units by name (reflections, verified
samples, roots) and raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """A request returned, but its output failed a correctness check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def interior_points(rng: np.random.Generator, axes, count: int) -> np.ndarray:
    """Uniform points of the box with sum x_i^2 / a_i < 0.95, one per row."""
    axes = np.asarray(axes, dtype=float)
    found = []
    have = 0
    while have < count:
        x = rng.uniform(-1.0, 1.0, (2 * count, len(axes))) * np.sqrt(axes)
        keep = x[np.sum(x * x / axes, axis=1) < 0.95]
        found.append(keep)
        have += len(keep)
    return np.concatenate(found)[:count]


def pseudo_direction(rng: np.random.Generator, k: int, l: int, kind: str) -> np.ndarray:
    """A direction of the given type in signature (k, l).

    The two sign blocks get random unit directions scaled so that <v, v>
    is 0 (light), at least 0.36 (space) or at most -0.36 (time); the
    margin keeps the line type far from the light cone.
    """
    plus = rng.normal(size=k)
    minus = rng.normal(size=l)
    p, q = 1.0, 1.0
    if kind == "space":
        q = rng.uniform(0.0, 0.8)
    elif kind == "time":
        p = rng.uniform(0.0, 0.8)
    return np.concatenate([p * plus / np.linalg.norm(plus), q * minus / np.linalg.norm(minus)])


class Workload:
    """Base class: a seeded request stream refilled one chunk at a time."""

    kinds: tuple = ()
    cycles_per_chunk = 8
    #: Work units whose rate per second a run reports.
    rates: tuple = ()
    #: Whether a request runs on a thread pool (``poncelet_verify``).
    threaded = False

    def __init__(self, api, seed: int, fill: bool = True) -> None:
        self.api = api
        self.rng = np.random.default_rng(seed)
        self._queue: deque = deque()
        if fill:
            self._refill()

    def _refill(self) -> None:
        order = []
        for _ in range(self.cycles_per_chunk):
            order.extend(self.rng.permutation(len(self.kinds)))
        self._queue.extend(self.make_requests([self.kinds[i] for i in order]))

    def next_request(self):
        if not self._queue:
            self._refill()
        return self._queue.popleft()

    def make_requests(self, kinds: list) -> list:
        raise NotImplementedError

    def call(self, request) -> dict:
        raise NotImplementedError


POOL_FILE = Path(__file__).with_name("pools.json")


class PooledWorkload(Workload):
    """A workload whose inputs come from its section of ``pools.json``.

    The section maps each pool key to a list of encoded inputs.  Each key
    is drawn in a seeded permutation of its inputs, a new one when it runs
    out, so no input repeats before all of its key's have been used.
    """

    def __init__(self, api, seed: int, pool: dict | None = None) -> None:
        """``pool`` replaces the file's section, and then no requests are
        made up front (``make_pools.py`` passes an empty one)."""
        if pool is None:
            self.pool = json.loads(POOL_FILE.read_text())[self.name]["kept"]
        else:
            self.pool = pool
        self._order: dict = {}
        super().__init__(api, seed, fill=pool is None)

    def draw(self, key: str):
        order = self._order.get(key)
        if not order:
            order = self._order[key] = deque(self.rng.permutation(len(self.pool[key])).tolist())
        return self.pool[key][order.popleft()]

    def make_requests(self, kinds: list) -> list:
        return [self.decode(kind, self.draw(kind)) for kind in kinds]

    def candidate(self, rng: np.random.Generator, kind: str):
        """A fresh encoded input of ``kind`` (``make_pools.py``)."""
        raise NotImplementedError

    def decode(self, kind: str, entry) -> tuple:
        raise NotImplementedError


# ------------------------------------------------------------- orbit_trace

#: (n, k) of the planar light-like tables: axes (tan^2(k pi / n), 1).
LIGHTLIKE_TABLES = ((4, 1), (6, 1), (6, 2), (8, 1), (8, 3), (10, 1), (10, 3), (12, 5))
SPATIAL_REFLECTIONS = 120
PLANAR_REFLECTIONS = 240
#: Worst relative drift of the first integrals / of the caustic parameters:
#: the 1e-9 that tests/test_billiard.py asserts on both for a 300-bounce
#: trace in (5, 3, 2), and tests/test_acceptance.py (criterion 06) on the
#: invariant drift of a 1000-bounce one.
DRIFT_TOL = 1e-9
CAUSTIC_DRIFT_TOL = 1e-9


class OrbitTrace(PooledWorkload):
    """Long traces in the (2, 1) family (5, 3, 2) and in planar tables,
    each followed by closure detection and the JSON round trip."""

    name = "orbit_trace"
    kinds = ("space", "time", "light", "planar", "planar_light")
    cycles_per_chunk = 4
    rates = ("reflections",)

    def __init__(self, api, seed: int, pool: dict | None = None) -> None:
        self.fam3 = api.ConfocalFamily(api.Signature(2, 1), (5.0, 3.0, 2.0))
        self.tables = [
            (api.ConfocalFamily(api.Signature(1, 1), (math.tan(k * math.pi / n) ** 2, 1.0)), n, k)
            for n, k in LIGHTLIKE_TABLES
        ]
        super().__init__(api, seed, pool)

    def candidate(self, rng: np.random.Generator, kind: str) -> dict:
        """``table`` indexes LIGHTLIKE_TABLES; it is None in (5, 3, 2)."""
        if kind.startswith("planar"):
            table = int(rng.integers(len(self.tables)))
            fam, n, _ = self.tables[table]
            x = interior_points(rng, fam.axes_f, 1)[0]
            if kind == "planar_light":
                v = np.array([1.0, rng.choice([-1.0, 1.0])])
                bounces = n * math.ceil(PLANAR_REFLECTIONS / n)
            else:
                v = pseudo_direction(rng, 1, 1, rng.choice(["space", "time"]))
                bounces = PLANAR_REFLECTIONS
        else:
            table = None
            x = interior_points(rng, self.fam3.axes_f, 1)[0]
            v = pseudo_direction(rng, 2, 1, kind)
            bounces = SPATIAL_REFLECTIONS
        return {"table": table, "x": x.tolist(), "v": v.tolist(), "bounces": bounces}

    def decode(self, kind: str, entry: dict) -> tuple:
        x, v = np.array(entry["x"]), np.array(entry["v"])
        if entry["table"] is None:
            return (self.fam3, x, v, entry["bounces"], None)
        fam, n, k = self.tables[entry["table"]]
        return (fam, x, v, entry["bounces"], (n, k) if kind == "planar_light" else None)

    def call(self, request) -> dict:
        api = self.api
        fam, x, v, bounces, table = request
        traj = api.trace(fam, x, v, bounces)
        closure = api.closure_test(traj)
        text = json.dumps(api.trajectory_to_dict(traj))
        recomputed = api.billiard.recompute_drift(api.trajectory_from_dict(json.loads(text)))
        check(traj.invariant_drift <= DRIFT_TOL, f"invariant drift {traj.invariant_drift}")
        check(traj.caustic_drift <= CAUSTIC_DRIFT_TOL, f"caustic drift {traj.caustic_drift}")
        check(recomputed == traj.invariant_drift, "recomputed drift differs from the recorded one")
        if table is not None:
            n, k = table
            period = api.lightlike_period(*fam.axes)
            upper, right = api.arc_hit_counts(traj)
            check(period == (n, k), f"light-like period {period} != {(n, k)}")
            check(closure.closed and closure.period == n, f"closure period {closure.period} != {n}")
            check(upper > 0 and upper * (n // 2 - k) == right * k,
                  f"arc counts {(upper, right)} not proportional to {(k, n // 2 - k)}")
        return {"reflections": traj.reflections}


# ---------------------------------------------------------- closure_verify

#: find_periodic_caustics_plane on axes (2, 1) for n = 4, 6, 8, with its
#: default window; perfbench/selftest.py checks them against it.
PLANAR_ROOTS = {
    4: (-2.0000000000000195, -0.6666666666666894, 0.6666666666666587),
    6: (-1.0531972647421592, -0.9536672493620673, -0.3094010767585167,
        0.25319726474220694, 1.3981116938065083, 4.3094010767585775),
    8: (-2.0000000000000195, -1.0050444441498763, -0.9950455141222119,
        -0.6666666666666894, -0.17366457382534561, 0.13461960020502176,
        0.6666666666666587, 1.79022585398284, 2.305588970305063),
}
SPATIAL_CAUSTICS = (-2.320953597016259, 2.154286930349592)
SPATIAL_PERIOD = 6
#: Boundary starts per request.  Planar requests use the library and CLI
#: default of 20 (0.08-0.17 s each on 2 cores).  A spatial request with 20
#: takes 2.2-4.8 s, so 100 of them would exceed a run's time limit; with 8,
#: still more than the default pool width of 6 on 2 cores, it takes
#: 0.4-2.1 s.
PLANAR_SAMPLES = 20
SPATIAL_SAMPLES = 8
#: How often the spatial pair appears in one cycle, next to each planar
#: root once; it then takes about a third of the time and makes 5% of
#: the requests, so p90 falls in the tight tail of the planar latencies.
#: Three times per cycle put p90 among the spatial latencies, which
#: spread from 0.4 to 2.1 s by seed, and p90 spread by 0.34 over ten seeds.
SPATIAL_REPEATS = 1


class ClosureVerify(PooledWorkload):
    """``poncelet_verify`` on caustic sets known to be periodic."""

    name = "closure_verify"
    cycles_per_chunk = 2
    rates = ("reflections", "verified_samples")
    threaded = True

    def __init__(self, api, seed: int, pool: dict | None = None) -> None:
        fam2 = api.ConfocalFamily(api.Signature(1, 1), (2.0, 1.0))
        fam3 = api.ConfocalFamily(api.Signature(2, 1), (5.0, 3.0, 2.0))
        #: pool key -> (family, caustic parameters, period)
        self.sets = {f"{n}/{i}": (fam2, (root,), n)
                     for n, roots in PLANAR_ROOTS.items() for i, root in enumerate(roots)}
        self.sets["spatial"] = (fam3, SPATIAL_CAUSTICS, SPATIAL_PERIOD)
        self.kinds = tuple(self.sets) + ("spatial",) * (SPATIAL_REPEATS - 1)
        super().__init__(api, seed, pool)

    def candidate(self, rng: np.random.Generator, kind: str) -> int:
        """The seed of one ``poncelet_verify`` call."""
        return int(rng.integers(0, 2**31))

    def decode(self, kind: str, entry: int) -> tuple:
        fam, params, n = self.sets[kind]
        return (fam, params, n, SPATIAL_SAMPLES if fam.d == 3 else PLANAR_SAMPLES, entry)

    def call(self, request) -> dict:
        fam, params, n, samples, seed = request
        rep = self.api.poncelet_verify(fam, params, n, samples=samples, seed=seed)
        check(rep.samples == samples and rep.closed == samples,
              f"{rep.closed} of {rep.samples} samples closed")
        # each sample traces n reflections from its constructed start
        return {"reflections": n * rep.samples, "verified_samples": rep.closed}


# ------------------------------------------------------------- period_scan

#: Each request searches n = 4 and one of these with the library's default
#: window of 4001 scan points: 0.09-0.17 s per period on 2 cores, so two
#: periods keep 100 requests within a run.
OTHER_PERIODS = (3, 5, 6, 7, 8)


class PeriodScan(Workload):
    """Planar period searches on random dyadic tables, then Cayley tests."""

    kinds = OTHER_PERIODS
    cycles_per_chunk = 4

    def make_requests(self, kinds: list) -> list:
        out = []
        for other in kinds:
            # dyadic axes keep exact mode cheap; a ratio of at least 1.3
            # keeps ab/|a - b| inside the default window
            b = Fraction(round(self.rng.uniform(0.5, 2.0) * 64), 64)
            a = Fraction(round(b * self.rng.uniform(1.3, 3.0) * 64), 64)
            if self.rng.random() < 0.5:
                a, b = b, a
            out.append((a, b, (4, other)))
        return out

    def call(self, request) -> dict:
        api = self.api
        a, b, periods = request
        fam = api.ConfocalFamily(api.Signature(1, 1), (float(a), float(b)))
        roots = {n: api.find_periodic_caustics_plane(fam, n) for n in periods}
        passed = [api.cayley_condition(fam, (r,), n) for n in periods for r in roots[n]]
        exact = api.ConfocalFamily(api.Signature(1, 1), (a, b))
        exact_ok = api.cayley_condition(exact, (a * b / (a + b),), 4, exact=True)
        want = sorted(float(w) for w in (a * b / (b - a), a * b / (a + b), -a * b / (a + b)))
        check(len(roots[4]) == 3 and all(abs(r - w) <= 1e-9 * float(a + b)
                                         for r, w in zip(roots[4], want)),
              f"period-4 roots {roots[4]} != {want}")
        check(all(passed), f"roots {roots} fail their period test: {passed}")
        check(exact_ok, "exact period-4 test fails at ab/(a+b)")
        return {"roots": sum(len(r) for r in roots.values())}


# ----------------------------------------------------------- point_queries

#: (signature, axes) of the families whose chords the caustic queries draw.
CHORD_FAMILIES = (((2, 1), (5.0, 3.0, 2.0)), ((1, 2), (5.0, 2.0, 3.0)),
                  ((2, 2), (5.0, 3.0, 2.0, 4.0)))
#: Keep-out distance of tropic parameters from the cusp edge.
CUSP_MARGIN = 0.05


class PointQueries(Workload):
    """Many small independent queries on random points, chords and
    parameters."""

    kinds = ("jacobi", "decorate", "caustics", "focal", "tropic")
    cycles_per_chunk = 64

    def __init__(self, api, seed: int) -> None:
        self.fam3 = api.ConfocalFamily(api.Signature(2, 1), (5.0, 3.0, 2.0))
        self.fam2 = api.ConfocalFamily(api.Signature(1, 1), (2.0, 1.0))
        self.chord_fams = [api.ConfocalFamily(api.Signature(*sig), axes)
                           for sig, axes in CHORD_FAMILIES]
        super().__init__(api, seed)

    def make_requests(self, kinds: list) -> list:
        rng = self.rng
        count = len(kinds)
        points3 = interior_points(rng, self.fam3.axes_f, count)
        chord_pts = [interior_points(rng, f.axes_f, count) for f in self.chord_fams]
        out = []
        for i, kind in enumerate(kinds):
            if kind == "jacobi":
                out.append((kind, points3[i]))
            elif kind == "decorate":
                out.append((kind, points3[i], int(rng.integers(3))))
            elif kind == "caustics":
                j = int(rng.integers(len(self.chord_fams)))
                fam = self.chord_fams[j]
                v = pseudo_direction(rng, fam.k, fam.l, rng.choice(["space", "time", "light"]))
                out.append((kind, fam, chord_pts[j][i], v))
            elif kind == "focal":
                out.append((kind, *self._conic_point(rng)))
            else:
                while True:
                    lam = rng.uniform(-1.9, 5.5)
                    t = rng.uniform(0.0, 2.0 * math.pi)
                    if abs(lam - self.api.relativistic.cusp_edge_lambda(self.fam3, t)) > CUSP_MARGIN:
                        break
                out.append((kind, lam, t, int(rng.choice([-1, 1]))))
        return out

    def _conic_point(self, rng):
        """(lambda, x) with x on the member C_lambda of the (1, 1) family."""
        a, b = (float(c) for c in self.fam2.axes)
        branch = rng.integers(3)
        if branch == 0:
            lam = rng.uniform(-b + 0.1, a - 0.1)
            t = rng.uniform(0.0, 2.0 * math.pi)
            x = [math.sqrt(a - lam) * math.cos(t), math.sqrt(b + lam) * math.sin(t)]
        elif branch == 1:
            lam = rng.uniform(-b - 3.0, -b - 0.1)
            u = rng.uniform(-2.0, 2.0)
            x = [math.sqrt(a - lam) * math.cosh(u), math.sqrt(-b - lam) * math.sinh(u)]
        else:
            lam = rng.uniform(a + 0.1, a + 3.0)
            u = rng.uniform(-2.0, 2.0)
            x = [math.sqrt(lam - a) * math.sinh(u), math.sqrt(b + lam) * math.cosh(u)]
        return lam, np.array(x)

    def call(self, request) -> dict:
        api = self.api
        kind = request[0]
        if kind == "jacobi":
            gj = api.jacobi_coordinates(self.fam3, request[1])
            r = gj.real_roots
            check(gj.complex_pair is None and len(r) == 3
                  and -2.0 < r[0] < 0.0 < r[1] < 3.0 < r[2] < 5.0,
                  f"interior point coordinates {gj}")
        elif kind == "decorate":
            _, x, i = request
            deco = api.decorated_coordinates(self.fam3, x)
            rt = api.relativistic_type(self.fam3, x, deco[i][1])
            check([str(t) for t, _ in deco] == ["E", "H^1", "H^2"], f"decoration {deco}")
            check(str(rt) == str(deco[i][0]), f"type {rt} != {deco[i][0]}")
        elif kind == "caustics":
            _, fam, x, v = request
            line = api.Line(x, v)
            cs = api.caustics(fam, line)
            rep = api.interlacing_report(fam, line)
            check(rep.passed, f"interlacing checks {rep.checks}")
            light = api.line_type(v, fam.sig) is api.LineType.LIGHT_LIKE
            check(cs.has_infinite == light and len(cs.finite) == fam.d - 1 - light,
                  f"caustics {cs.params} for a {rep.line_type} line")
        elif kind == "focal":
            _, lam, x = request
            res = api.focal_residual(self.fam2, lam, x)
            check(res.kind_ok and res.x_pair <= 1e-8 and res.y_pair <= 1e-8, f"focal {res}")
        else:
            _, lam, t, sheet = request
            p = api.tropic_point(self.fam3, lam, t, sheet)
            n = api.tropic_surface_normal(self.fam3, lam, t, sheet)
            a, b, c = 5.0, 3.0, 2.0
            cone = p[0] ** 2 / (a - lam) ** 2 + p[1] ** 2 / (b - lam) ** 2 - p[2] ** 2 / (c + lam) ** 2
            scale = p[2] ** 2 / (c + lam) ** 2
            check(abs(cone) <= 1e-10 * scale, f"tropic point off its cone by {cone}")
            nn = n[0] ** 2 + n[1] ** 2 - n[2] ** 2
            check(abs(nn) <= 1e-10 * float(np.dot(n, n)), f"tropic normal not light-like: {nn}")
        return {}


WORKLOADS = {
    "orbit_trace": OrbitTrace,
    "closure_verify": ClosureVerify,
    "period_scan": PeriodScan,
    "point_queries": PointQueries,
}

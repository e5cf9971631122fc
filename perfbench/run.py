"""Benchmark of the pbl package: one workload, one seed, one closed loop.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload orbit_trace --seed 1 --seconds 28 --trace 0

One client in one process sends each request after the previous one
finished.  Set-up is importing ``pbl``, building the families and making
the first inputs.  With ``--trace 0`` the run measures the end-to-end
metrics for ``--seconds``, and extends past it until MIN_REQUESTS
requests are done, so that at least ten latencies lie beyond p90.  Every
SETUP_EVERY seconds of it the client pauses to set up once more and
throws the result away; the median of all set-ups is reported, so that
it spans the whole run, as the other metrics do.

The speed of a shared machine drifts by a third and more within minutes,
so the untraced run reports its timings at a fixed machine speed.  Every
PROBE_EVERY seconds, between two requests, it times ``reference_task``:
fixed work that does not call ``pbl``, in one thread and, when the
workload's requests run on a thread pool, on a pool too.  Each request,
set-up and gap is scaled by the nominal reference time over the median
reference time of its shape (set-up and gaps: one thread) within
SPEED_WINDOW seconds of it, which is how long it would have taken on a
machine that runs the reference task in its nominal time.  The report
lines give the raw figures too.  With ``--trace 1`` the
run alternates traced slices of at most SLICE_SECONDS on fresh requests
(installing the wrappers for each slice and removing them after it) with
untraced replays of the same requests, and reports the per-layer metrics
of the traced slices plus traced over untraced requests per second.

The report lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2
means the checkout has no ``src/pbl``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from tracing import LAYER_METRICS, Recorder, install, layer_metrics
from workloads import WORKLOADS

SETUP_EVERY = 1.0
MIN_REQUESTS = 100
SLICE_SECONDS = 1.0
PROBE_EVERY = 0.025
SPEED_WINDOW = 1.0
#: At least this many reference times scale a request, however sparse.
MIN_PROBES = 3
#: The reference task's time on the 2-core machine the benchmark was tuned
#: on, at its usual speed, without and with a thread pool; scaled timings
#: are close to raw ones there.
REF_NOMINAL_S = {False: 0.5e-3, True: 2.5e-3}
REF_STEPS = 60
#: Parts of the threaded reference task, one per default pool thread on
#: 2 cores.  A single thread missed slow spells of the pooled requests:
#: over four minutes, planar poncelet_verify requests took 110 to 260 ms
#: while the plain task took 0.56 to 0.70 ms and the pooled one 2.2 to
#: 5.6 ms, in step with the requests.
REF_PARTS = 6

#: End-to-end metrics with their units; each workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Report lines for the work units a workload names in ``rates``.
UNIT_RATES = {"reflections": "reflections_per_s", "verified_samples": "verified_samples_per_s"}


def import_pbl(src: Path):
    """Import ``pbl`` afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "pbl" or m.startswith("pbl.")]:
        del sys.modules[name]
    api = importlib.import_module("pbl")
    if Path(api.__file__).resolve().parent != (src / "pbl").resolve():
        raise ImportError(f"pbl imported from {api.__file__}, not from {src}")
    return api


_REF_MATRIX = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


def _reference_steps(steps: int) -> float:
    """Fixed work in the style of pbl's hot paths, without calling it:
    interpreted Python around numpy calls on 3-vectors."""
    total = 0.0
    x = np.array([0.3, 0.2, 0.1])
    for _ in range(steps):
        y = _REF_MATRIX @ x
        total += math.sqrt(float(np.dot(y, y))) + sum(k * 0.5 for k in range(20))
        x = y / np.linalg.norm(y)
    return total


def reference_task(threaded: bool) -> None:
    """REF_STEPS steps in one thread, or split into REF_PARTS on a pool of
    the default width, as ``poncelet_verify`` runs its samples."""
    if threaded:
        with ThreadPoolExecutor() as pool:
            list(pool.map(_reference_steps, [REF_STEPS // REF_PARTS] * REF_PARTS))
    else:
        _reference_steps(REF_STEPS)


def measure(next_request, call, seconds: float, min_requests: int,
            recorder: Recorder | None = None, pause=None, probes: dict | None = None) -> dict:
    """Closed loop for ``seconds`` (and at least ``min_requests`` requests).

    ``pause`` is called every SETUP_EVERY seconds between two requests;
    with ``probes``, ``reference_task(threaded)`` is timed for each key
    ``threaded`` of it every PROBE_EVERY seconds between two requests and
    (start, duration) appended to the key's list.  Neither
    counts in ``seconds`` nor in the measured wall time.
    """
    latencies = []
    starts = []
    failed = 0
    units: Counter = Counter()
    paused = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    next_pause = start + SETUP_EVERY
    next_probe = start
    while time.perf_counter() < deadline or len(latencies) < min_requests:
        if pause is not None and time.perf_counter() >= next_pause:
            t0 = time.perf_counter()
            pause()
            took = time.perf_counter() - t0
            paused += took
            deadline += took
            next_pause = t0 + took + SETUP_EVERY
        if probes is not None and time.perf_counter() >= next_probe:
            t0 = time.perf_counter()
            for threaded, got in probes.items():
                t1 = time.perf_counter()
                reference_task(threaded)
                got.append((t1, time.perf_counter() - t1))
            took = time.perf_counter() - t0
            paused += took
            deadline += took
            next_probe = t0 + took + PROBE_EVERY
        request = next_request()
        t0 = time.perf_counter()
        try:
            if recorder is None:
                got = call(request)
            else:
                recorder.request_id += 1
                got = recorder.call("request", call, (request,), {})
        except Exception:
            # a failed request is counted, not fatal; show the first one
            if not failed:
                traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            units.update(got)
        starts.append(t0)
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start - paused
    return {"attempted": len(latencies), "failed": failed, "units": units,
            "wall_s": wall, "latencies": latencies, "starts": starts}


def speed_factors(at, probes: list, nominal: float) -> np.ndarray:
    """``nominal`` over the median reference time within SPEED_WINDOW
    seconds of each time in ``at`` (at least MIN_PROBES nearest ones)."""
    probe_t = np.array([t for t, _ in probes])
    probe_d = np.array([d for _, d in probes])
    at = np.asarray(at, dtype=float)
    # requests within one tenth of a second share a factor
    bins, inverse = np.unique(np.round(at, 1), return_inverse=True)
    lo = np.searchsorted(probe_t, bins - SPEED_WINDOW)
    hi = np.searchsorted(probe_t, bins + SPEED_WINDOW)
    mid = np.searchsorted(probe_t, bins)
    ref = np.empty(len(bins))
    for i, (a, b, c) in enumerate(zip(lo, hi, mid)):
        if b - a < MIN_PROBES:
            a = max(0, min(c - MIN_PROBES // 2, len(probe_t) - MIN_PROBES))
            b = a + MIN_PROBES
        ref[i] = np.median(probe_d[a:b])
    return nominal / ref[inverse]


def merge(total: dict | None, part: dict) -> dict:
    if total is None:
        return part
    return {"attempted": total["attempted"] + part["attempted"],
            "failed": total["failed"] + part["failed"],
            "units": total["units"] + part["units"],
            "wall_s": total["wall_s"] + part["wall_s"],
            "latencies": total["latencies"] + part["latencies"],
            "starts": total["starts"] + part["starts"]}


def measure_traced(workload, seconds: float, recorder: Recorder) -> tuple:
    """Alternate traced slices on fresh requests with untraced replays of
    the same requests, for ``seconds`` in all.

    Both modes then do the same work at nearly the same time, whatever the
    mix of a slice and the drift of the machine.  A cache in the program
    could make a replay faster, which overstates the overhead rather than
    hiding it, and leaves the traced per-layer figures as on fresh requests.
    """
    modules = [m for n, m in sys.modules.items() if n == "pbl" or n.startswith("pbl.")]
    slice_s = min(SLICE_SECONDS, seconds / 4.0)
    plain = traced = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or traced is None:
        taken = []

        def take():
            taken.append(workload.next_request())
            return taken[-1]

        uninstall = install(recorder, modules)
        try:
            traced = merge(traced, measure(take, workload.call, slice_s, 1, recorder))
        finally:
            uninstall()
        plain = merge(plain, measure(iter(taken).__next__, workload.call, 0.0, len(taken)))
    return plain, traced


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
        min_requests: int = MIN_REQUESTS) -> int:
    src = root / "src"
    if not (src / "pbl" / "__init__.py").is_file():
        print(f"error: no package at {src / 'pbl'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cls = WORKLOADS[workload_name]

    setups = []

    def set_up():
        t0 = time.perf_counter()
        api = import_pbl(src)
        workload = cls(api, seed)
        setups.append((t0, time.perf_counter() - t0))
        return workload

    def set_up_again():
        set_up()
        gc.collect()  # drop that import, so repeats do not raise peak RSS

    workload = set_up()
    with ThreadPoolExecutor() as probe:
        # poncelet_verify opens ThreadPoolExecutor() with the default width
        pool_width = probe._max_workers
    print(f"# workload={workload_name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} poncelet_pool_width={pool_width}")

    if not trace:
        probes: dict = {False: [], workload.threaded: []}
        res = measure(workload.next_request, workload.call, seconds, min_requests,
                      pause=set_up_again, probes=probes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = np.array(res["latencies"])
        shape = workload.threaded
        scale = speed_factors(np.array(res["starts"]) + raw / 2, probes[shape],
                              REF_NOMINAL_S[shape])
        gap_scale = float(np.median(speed_factors(res["starts"], probes[False],
                                                  REF_NOMINAL_S[False])))
        scaled = raw * scale
        # time between requests (making inputs) at the run's median one-thread speed
        wall = float(scaled.sum() + (res["wall_s"] - raw.sum()) * gap_scale)
        setup_t = np.array(setups)
        setup_scaled = setup_t[:, 1] * speed_factors(setup_t[:, 0] + setup_t[:, 1] / 2,
                                                     probes[False], REF_NOMINAL_S[False])
        p50, p90 = np.percentile(scaled, [50, 90])
        values = {
            "setup_s": float(np.median(setup_scaled)),
            "requests_per_s": res["attempted"] / wall,
            "latency_p50_ms": 1e3 * float(p50),
            "latency_p90_ms": 1e3 * float(p90),
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
        raw_p50, raw_p90 = np.percentile(raw, [50, 90])
        extra = [("failed_ratio", res["failed"] / res["attempted"], "ratio")]
        extra += [(UNIT_RATES[u], res["units"][u] / wall, "1/s") for u in workload.rates]
        extra += [("raw_setup_s", float(np.median(setup_t[:, 1])), "s"),
                  ("raw_requests_per_s", res["attempted"] / res["wall_s"], "1/s"),
                  ("raw_latency_p50_ms", 1e3 * float(raw_p50), "ms"),
                  ("raw_latency_p90_ms", 1e3 * float(raw_p90), "ms"),
                  ("reference_tasks", len(probes[False]), "count")]
        extra += [(("pooled_" if threaded else "") + "reference_task_ms",
                   1e3 * statistics.median(d for _, d in got), "ms")
                  for threaded, got in probes.items()]
        attempted, failed = res["attempted"], res["failed"]
    else:
        recorder = Recorder()
        plain, traced = measure_traced(workload, seconds, recorder)
        ratio = (traced["attempted"] / traced["wall_s"]) / (plain["attempted"] / plain["wall_s"])
        values = layer_metrics(recorder, traced["attempted"], traced["units"]["roots"], ratio)
        units = dict(LAYER_METRICS)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        extra = [("failed_ratio", failed / attempted, "ratio"),
                 ("spans", len(recorder.cols["span"]), "count")]
        recorder.write(root / ".perfbench" / f"spans-{workload_name}.npz")

    print(f"# requests attempted={attempted} failed={failed}")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value, unit in extra:
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pbl benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())


if __name__ == "__main__":
    sys.exit(main())

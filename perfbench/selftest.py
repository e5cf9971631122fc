"""Self-test of the benchmark: every workload at a tiny size, in both modes.

    python3 perfbench/selftest.py

Stresses the span recorder from more threads than cores, checks the
planar roots that closure_verify takes as constants against
``find_periodic_caustics_plane``, then checks that each metric named in
BENCHMARK.json is printed with its unit,
both in the report lines and in the final JSON line; that the run records
nproc, the Python and numpy versions, the seed and the pool width; that a
directory without ``src/pbl`` is refused with exit code 2; and, after all
runs, that ``failed_ratio`` was 0 in every one.  Exits 1 if a check fails.

Last it replays the known defects: the inputs that ``make_pools.py`` left
out of the pools because the code fails on them, and KNOWN_DEFECTS.  It
prints how many still fail; that does not fail the self-test.  Once none
does, the pools can be made again and keep every candidate.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run
import tracing
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def check_recorder(threads: int = 8, calls: int = 2000) -> None:
    """Nested spans and counts from pool threads under a fostering span;
    a lost update would lose a count, a span or a parent link."""
    rec = tracing.Recorder()

    def leaf():
        rec.count("leaf")
        return rec.call("inner", lambda: None, (), {})

    def work():
        for _ in range(calls):
            rec.call("outer", leaf, (), {})

    def fan_out():
        with ThreadPoolExecutor(threads) as pool:
            for future in [pool.submit(work) for _ in range(threads)]:
                future.result(timeout=120)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rec.call("fan_out", fan_out, (), {}, fosters=True)
    finally:
        sys.setswitchinterval(old)
    total = threads * calls
    cols = rec.columns()
    assert rec.counts["leaf"] == total, rec.counts
    assert len(set(cols["span"].tolist())) == len(cols["span"]) == 2 * total + 1
    outer = cols["name"] == rec.names.index("outer")
    assert (cols["parent"][outer] == 1).all(), "pool-thread spans lost their foster parent"
    inner = cols["name"] == rec.names.index("inner")
    assert set(cols["parent"][inner].tolist()) == set(cols["span"][outer].tolist())
    stats = tracing.layer_stats(rec)
    assert stats["fan_out"]["self_s"] >= 0.0 and stats["outer"]["calls"] == total


def check_planar_roots() -> None:
    """The constant roots of closure_verify are what the search finds."""
    api = run.import_pbl(ROOT / "src")
    a, b = 2.0, 1.0
    fam = api.ConfocalFamily(api.Signature(1, 1), (a, b))
    for n, roots in workloads.PLANAR_ROOTS.items():
        found = api.find_periodic_caustics_plane(fam, n)
        assert len(found) == len(roots) and all(
            abs(r - f) <= 1e-9 * (a + b) for r, f in zip(roots, found)), \
            f"period-{n} roots {found} != {roots}"


#: Failures found outside the pools: (family signature, axes, caustic
#: parameters, n, seed) of a ``poncelet_verify`` call with 20 samples that
#: does not close every sample (19 of 20, worst position error 4.3e-4).
KNOWN_DEFECTS = (((1, 1), (2.0, 1.0), (-1.0050444441498763,), 8, 8),)


def replay_defects() -> tuple[int, int]:
    """Replay the dropped pool inputs and KNOWN_DEFECTS; return how many
    still fail, of how many."""
    api = run.import_pbl(ROOT / "src")
    pools = json.loads(workloads.POOL_FILE.read_text())
    still = total = 0
    for cls in (workloads.OrbitTrace, workloads.ClosureVerify):
        workload = cls(api, SEED, pool={})
        for kind, dropped in pools[cls.name]["dropped"].items():
            for item in dropped:
                total += 1
                try:
                    workload.call(workload.decode(kind, item["input"]))
                except Exception:  # noqa: BLE001 - any failure still counts
                    still += 1
    for sig, axes, params, n, seed in KNOWN_DEFECTS:
        total += 1
        fam = api.ConfocalFamily(api.Signature(*sig), axes)
        rep = api.poncelet_verify(fam, params, n, samples=20, seed=seed)
        still += rep.closed != rep.samples
    return still, total


def run_tiny(workload: str, trace: bool) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(workload, SEED, 0.4 if trace else 0.2, trace, ROOT, min_requests=3)
    if code != 0:
        raise AssertionError(f"{workload}: exit code {code}")
    return out.getvalue().splitlines()


def check_output(workload: str, trace: bool, lines: list[str], spec: dict) -> float:
    """Assert the output format; return the run's failed_ratio."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload}: JSON metrics {got} != {wanted}"
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = (float(parts[1]), parts[2])
    for name, unit in wanted.items():
        assert printed.get(name, (None, None))[1] == unit, f"{workload}: {name} not printed in {unit}"
    header = " ".join(line for line in lines if line.startswith("#"))
    for key in ("nproc=", "python=", "numpy=", f"seed={SEED}", "poncelet_pool_width="):
        assert key in header, f"{workload}: run info lacks {key}"
    if not trace:
        for unit_name in WORKLOADS[workload].rates:
            rate = run.UNIT_RATES[unit_name]
            assert printed.get(rate, (None, None))[1] == "1/s", f"{workload}: {rate} not printed"
    ratio, unit = printed["failed_ratio"]
    assert unit == "ratio" and result["attempted"] >= 1
    assert ratio == result["failed"] / result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    return ratio


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    failing = []
    try:
        check_recorder()
        print("ok span recorder under thread stress")
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        check_planar_roots()
        print("ok closure_verify planar roots match find_periodic_caustics_plane")
        for workload in WORKLOADS:
            for trace in (False, True):
                ratio = check_output(workload, trace, run_tiny(workload, trace), spec)
                print(f"ok {workload} trace={int(trace)} output format; failed_ratio={ratio}")
                if ratio:
                    failing.append(f"{workload} trace={int(trace)}")
        with contextlib.redirect_stderr(io.StringIO()):
            code = run.run("point_queries", SEED, 0.2, False, Path(__file__).parent)
        assert code == 2, f"run without src/pbl returned {code}"
        print("ok refuses a directory without src/pbl")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    if failing:
        print(f"FAIL failed_ratio is not 0 in: {', '.join(failing)}")
        return 1
    still, total = replay_defects()
    print(f"known defects: {still} of {total} left-out inputs still fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())

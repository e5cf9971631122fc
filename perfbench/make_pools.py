"""Write pools.json: the inputs that orbit_trace and closure_verify draw.

    python3 perfbench/make_pools.py      # from the root of a checkout

Candidates come from a generator seeded with POOL_SEED and the input
distributions of ``workloads.py`` (``candidate``), POOL_SIZE of them per
pool key.  Each is run once through its workload's ``call``, with every
check.  A benchmark run must not fail, so a candidate that raises or
fails a check is left out of ``kept`` and listed under ``dropped`` with
the reason; ``selftest.py`` replays the dropped ones, so they stay a
record of where the code is wrong.  Takes about three minutes on 2 cores.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import run
from workloads import POOL_FILE, ClosureVerify, OrbitTrace

POOL_SEED = 20111108
#: Candidates per pool key.  A 28-s run draws about 55 per orbit_trace
#: kind, 9 per planar closure_verify root and 9 spatial ones.  The
#: spatial requests take 0.4 to 2.1 s, depending on their seed, and a
#: third of the time; with 16 seeds the runs draw from one small set.
POOL_SIZE = {"orbit_trace": {}, "closure_verify": {"spatial": 16}}
DEFAULT_SIZE = {"orbit_trace": 150, "closure_verify": 24}


def make(workload, rng: np.random.Generator) -> dict:
    kept: dict = {}
    dropped: dict = {}
    for kind in dict.fromkeys(workload.kinds):
        size = POOL_SIZE[workload.name].get(kind, DEFAULT_SIZE[workload.name])
        kept[kind], dropped[kind] = [], []
        for _ in range(size):
            entry = workload.candidate(rng, kind)
            try:
                workload.call(workload.decode(kind, entry))
            except Exception as exc:  # noqa: BLE001 - every failure is recorded
                dropped[kind].append({"input": entry, "why": f"{type(exc).__name__}: {exc}"})
            else:
                kept[kind].append(entry)
        print(f"{workload.name} {kind}: kept {len(kept[kind])}, dropped {len(dropped[kind])}",
              flush=True)
    return {"kept": kept, "dropped": dropped}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    api = run.import_pbl(root / "src")
    rng = np.random.default_rng(POOL_SEED)
    t0 = time.perf_counter()
    pools = {cls.name: make(cls(api, 0, pool={}), rng) for cls in (OrbitTrace, ClosureVerify)}
    POOL_FILE.write_text(json.dumps(pools, separators=(",", ":")) + "\n")
    print(f"wrote {POOL_FILE} in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

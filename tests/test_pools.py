"""Every kept input of ``perfbench/pools.json`` still passes its checks.

A benchmark run must not fail, so ``make_pools.py`` keeps only the
``orbit_trace`` and ``closure_verify`` inputs on which the code passed
every check of its workload.  These tests replay each kept input through
the workload's own ``decode`` and ``call``: a change that breaks one (a
rounding change that lifts a drift past 1e-9, say) fails here, not only in
a benchmark run.  They read ``perfbench/`` and change nothing in it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import pbl

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
POOLS = json.loads(WORKLOADS.POOL_FILE.read_text())
CASES = [(cls, kind) for cls in (WORKLOADS.OrbitTrace, WORKLOADS.ClosureVerify)
         for kind in POOLS[cls.name]["kept"]]


@pytest.mark.parametrize("cls, kind", CASES, ids=[f"{cls.name}-{kind}" for cls, kind in CASES])
def test_every_kept_input_passes_its_checks(cls, kind):
    workload = cls(pbl, 0, pool={})
    entries = POOLS[cls.name]["kept"][kind]
    assert entries
    for entry in entries:
        workload.call(workload.decode(kind, entry))  # CheckFailed names the failed check

"""Every function that the traced benchmark run wraps exists in ``pbl``.

The traced run of ``perfbench/run.py`` rebinds each ``<module>.<function>``
that a per-layer metric of ``BENCHMARK.json`` names.  Without this test, a
renamed function would pass the suite and fail only in a traced run.
"""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_per_layer_metrics_name_pbl_functions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    quals = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]} - {"tracing"}
    assert quals
    for qual in sorted(quals):
        module, fname = qual.split(".")
        fn = getattr(importlib.import_module(f"pbl.{module}"), fname, None)
        assert callable(fn), f"{qual} is not a function of pbl.{module}"

"""Every name of ``pbl`` that the benchmark reads exists.

The traced run of ``perfbench/run.py`` rebinds each ``<module>.<function>``
that a per-layer metric of ``BENCHMARK.json`` names, and the workloads call
``api.<name>`` chains on the imported package.  Without these tests, a
renamed function would pass the suite and fail only in a benchmark run.
"""

import ast
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


def _api_chains(tree):
    """Attribute names read off ``api`` or ``self.api``, one tuple per
    longest chain, e.g. ("billiard", "recompute_drift")."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        names.append(node.id if isinstance(node, ast.Name) else None)
        names.reverse()
        if names[0] == "self" and names[1:2] == ["api"]:
            names = names[1:]
        if names[0] == "api" and len(names) > 1:
            yield tuple(names[1:])


def test_benchmark_api_names_resolve_on_pbl():
    # a workload that reads a deleted or renamed public name fails only in
    # the benchmark run, so every api.<chain> of perfbench/ must resolve
    pbl = importlib.import_module("pbl")
    chains = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        chains.update(_api_chains(ast.parse(path.read_text())))
    assert ("billiard", "recompute_drift") in chains
    assert ("relativistic", "cusp_edge_lambda") in chains
    assert ("LineType", "LIGHT_LIKE") in chains
    for chain in sorted(chains):
        obj = pbl
        for i, name in enumerate(chain):
            assert hasattr(obj, name), f"perfbench reads api.{'.'.join(chain[: i + 1])}"
            obj = getattr(obj, name)

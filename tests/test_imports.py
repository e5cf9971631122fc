"""No module of src/pbl or tests/ imports a name it never uses,
no function or class of src/pbl is left without a reader, no module
of src/pbl defines a ``_check_*`` function, only ``_poly`` calls
``np.linalg.eigvals``, only the Jacobi core and ``caustics`` call
``polynomial_roots``, the caustics core and ``newton_polish`` name no
``np`` attribute, ``focal_residual``, ``tropic_surface_normal`` and
``interlacing_report`` check no vector twice and name no ``np``
attribute but the ``np.array`` they return, ``import pbl`` leaves
``numpy.polynomial`` unloaded, and ``relativistic`` binds no
module-level ``*_TOL`` name.

No linter is a dependency of the project, so the checks read each file
with ``ast``: a name bound by an import must appear as a name somewhere
else in the module (``mod.attr`` counts as a use of ``mod``).  The
package ``__init__.py`` is skipped, since its imports are the public API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = [p for p in (ROOT / "src" / "pbl").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in sorted(files) for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _names_used(path: Path) -> set:
    """Names read in the file, as ``name`` or ``obj.name``; imports and
    definitions do not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_no_orphaned_definitions():
    # a helper that a refactor leaves behind is defined but never read in
    # src/, tests/ or perfbench/; dunder methods run implicitly
    defs = {}
    for path in sorted((ROOT / "src" / "pbl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                defs[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            used |= _names_used(path)
    orphans = [f"{where} {name}" for name, where in sorted(defs.items()) if name not in used]
    assert not orphans, "defined but never used:\n" + "\n".join(orphans)


def test_no_check_helpers():
    # counts and scalars are checked by the doors of metric, _as_count and
    # _as_scalar, as points and directions by _as_vector
    found = []
    for path in sorted((ROOT / "src" / "pbl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not found, "check helpers outside the doors of metric:\n" + "\n".join(found)


def test_eigenvalues_only_in_poly():
    # roots of degree <= 3 come in closed form; the one eigenvalue solve,
    # for higher degrees, is companion_roots in _poly
    found = []
    for path in sorted((ROOT / "src" / "pbl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "eigvals":
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found and all(f.startswith("src/pbl/_poly.py:") for f in found), found



def test_polynomial_roots_called_twice():
    # roots are found one polynomial at a time, in two places: the Jacobi
    # core, which serves every Jacobi coordinate, and the caustics of a line
    calls = []
    for path in sorted((ROOT / "src" / "pbl").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {child: node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for child in ast.walk(node)}  # walked outer first: inner defs win
        calls += [f"{path.name}:{owner.get(node, '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "polynomial_roots"
                  in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert sorted(calls) == ["confocal.py:_caustics", "confocal.py:_jacobi"], calls


def test_no_numpy_between_a_line_and_its_caustics():
    # after the _as_vector door, one line's caustics run on Python floats:
    # the routines they call choose floats by the shape of their input, and
    # the core and the polish name no numpy attribute themselves
    found = []
    for name, func in (("confocal.py", "_caustics"), ("_poly.py", "newton_polish")):
        found += [f"{name}:{node.lineno} np.{node.attr}"
                  for node in _numpy_attributes(_function(name, func))]
    assert not found, found


def _function(name: str, func: str) -> ast.FunctionDef:
    """The definition of ``func`` in the module ``name`` of src/pbl."""
    tree = ast.parse((ROOT / "src" / "pbl" / name).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == func)


def _numpy_attributes(func: ast.FunctionDef) -> list:
    """The ``np.*`` nodes of the function's body; annotations do not count."""
    return [node for stmt in func.body for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"]


#: Public routines that check their vectors at the door of metric.
CHECKING_ROUTINES = {"mdistance", "pseudo_cross", "tropic_partials", "line_type"}


@pytest.mark.parametrize("name, func, arrays", [
    ("relativistic.py", "focal_residual", 0),
    ("relativistic.py", "tropic_surface_normal", 1),
    ("confocal.py", "interlacing_report", 0),
])
def test_point_queries_check_once(name, func, arrays):
    # after its door, a point query runs on the float cores: it calls no
    # public routine that checks a vector again, and names no numpy
    # attribute but the np.array of the vector it returns
    body = _function(name, func)
    calls = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
             for node in ast.walk(body) if isinstance(node, ast.Call)}
    assert not calls & CHECKING_ROUTINES, calls & CHECKING_ROUTINES
    numpy = _numpy_attributes(body)
    assert [node.attr for node in numpy] == ["array"] * arrays
    assert all(isinstance(ret.value, ast.Call) and ret.value.func in numpy
               for ret in ast.walk(body) if isinstance(ret, ast.Return) and arrays)


def test_import_leaves_numpy_polynomial_out():
    # numpy.polynomial loads all its series classes, about 0.75 MB of peak
    # RSS; trace's caustic drift runs its own Horner, and only the spatial
    # rotation search reads Gauss-Legendre nodes from it, on first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, pbl; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False", out.stderr


def test_relativistic_binds_no_tolerance():
    # whether a Jacobi coordinate is multiple is decided once, by the
    # rounding floor of confocal._at_floor; relativistic reads the clusters
    # and neither defines nor imports a tolerance of its own
    tree = ast.parse((ROOT / "src" / "pbl" / "relativistic.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    assert "ConfocalFamily" in bound
    assert not sorted(name for name in bound if name.endswith("_TOL")), bound

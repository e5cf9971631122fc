"""The experiment script in scripts/ runs end to end with small arguments."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_spatial_period_search():
    out = run_script("spatial_period_search.py", "--n", "6", "--attempts", "6", "--samples", "3")
    assert out.returncode == 0, out.stderr
    # The script's Newton search stops at |r| < 1e-13, so the last digit of
    # the pair follows rounding in the caustics; compare to 1e-12.
    first = next(line for line in out.stdout.splitlines() if line.startswith("pair ("))
    match = re.match(r"pair \(([^,]+), ([^)]+)\): closed 3/3", first)
    assert match, first
    pair = (float(match.group(1)), float(match.group(2)))
    assert pair == pytest.approx((-2.320953597016259, 2.154286930349592), abs=1e-12)


def test_spatial_period_search_two_column_matrix():
    # at n = 8 the closure matrix is 3 x 2: the search must reach rank 1,
    # not a zero matrix
    out = run_script("spatial_period_search.py", "--n", "8", "--attempts", "6", "--samples", "3")
    assert out.returncode == 0, out.stderr
    pairs = [line for line in out.stdout.splitlines() if line.startswith("pair (")]
    assert pairs and all("closed 3/3" in line for line in pairs), out.stdout


@pytest.mark.parametrize("n", ["7", "4"])
def test_spatial_period_search_rejects_period(n):
    out = run_script("spatial_period_search.py", "--n", n, "--attempts", "1")
    assert out.returncode == 2
    assert "even period >= 6" in out.stderr


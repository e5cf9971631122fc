"""The Python example and the CLI examples of README.md run against the
current API and command line, and it sends no one to a script."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from pbl.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    # the comments promise True from the Cayley test and 20 of 20 closed
    assert out.stdout.splitlines()[-2:] == ["True", "20"]


def test_readme_names_no_script():
    # every experiment is a pbl command; scripts/ is gone
    assert "python3 scripts/" not in (ROOT / "README.md").read_text()
    assert not (ROOT / "scripts").exists()


def _readme_cli_commands() -> list:
    """[argv, promised stdout or None] of each ``pbl`` command in the
    README's sh block: continuations joined, comments stripped, and a
    ``# -> …`` line after a command taken as its promised output."""
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
              if re.search(r"^pbl ", b, re.M)]
    assert len(blocks) == 1
    commands = []
    for line in blocks[0].replace("\\\n", " ").splitlines():
        code = line.split("#", 1)[0].strip()
        if code:
            assert code.startswith("pbl "), code
            commands.append([shlex.split(code)[1:], None])
        elif line.startswith("# -> ") and commands:
            commands[-1][1] = line[len("# -> "):]
    return commands


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    # in tmp_path, so that trace writes the orbit.json that verify reads
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert [argv[0] for argv, _ in commands] == [
        "cayley", "cayley", "search-periodic", "search-periodic", "search-periodic",
        "lightlike", "classify-point",
        "classify-point", "decorate", "caustics", "trace", "verify", "poncelet", "tropic"]
    assert sum(promised is not None for _, promised in commands) == 2
    for argv, promised in commands:
        code = run_cli(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if promised is not None:
            assert json.loads(out) == json.loads(promised), argv

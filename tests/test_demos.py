"""Every demo script runs to completion and prints its narrative, the
README's examples print what the README says they print, and the names the
README gives are the program's."""

import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def _readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_readme_library_example_runs():
    # Each print line ends in a comment showing what it prints.
    [block] = _readme_blocks("python")
    expected = "".join(line.split("# ", 1)[1] + "\n"
                       for line in block.splitlines() if line.startswith("print("))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_readme_spider_pipelines_print_what_the_readme_shows():
    # The first console block: `$ powerdom gen ... | powerdom solve ...`
    # lines, each followed by its output.
    block = _readme_blocks("console")[0]
    runs = re.findall(r"^\$ (.*)\n((?:[^$].*\n)*)", block, re.M)
    assert len(runs) == 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, expected in runs:
        out = ""
        for stage in command.split(" | "):
            argv = shlex.split(stage)
            assert argv[0] == "powerdom"
            out = subprocess.run([sys.executable, "-m", *argv], input=out, env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout
        assert out == expected, command


def test_readme_names_what_the_program_has(tmp_path):
    # Each backticked `module.name` resolves in powerdom.<module>, and each
    # key that `solve --method dp --json` prints is named, in backticks or
    # in quotes.
    text = (ROOT / "README.md").read_text()
    names = re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)`", text)
    assert len(names) >= 4
    for module, name in names:
        assert hasattr(importlib.import_module(f"powerdom.{module}"), name), f"{module}.{name}"
    graph = tmp_path / "p3.gr"
    graph.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "powerdom", "solve", str(graph), "--ell", "1",
                          "--method", "dp", "--json"], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    missing = [key for key in json.loads(out) if f"`{key}`" not in text and f'"{key}"' not in text]
    assert not missing, missing

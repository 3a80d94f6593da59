"""Every demo script runs to completion and prints its narrative, and the
README's examples print what the README says they print."""

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

"""README's "Library quick tour" runs as written: its python blocks, in
order, in a fresh interpreter that imports the library from src/, so a
renamed or removed public name cannot leave the tour stale."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tour_blocks() -> list[str]:
    """The python blocks between the tour's heading and the next heading."""
    blocks, block, in_tour = [], None, False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if block is not None:  # inside a python block
            if line.startswith("```"):
                blocks.append("\n".join(block))
                block = None
            else:
                block.append(line)
        elif line.startswith("#"):
            in_tour = line == "## Library quick tour"
        elif in_tour and line == "```python":
            block = []
    return blocks


def test_quick_tour_runs_in_a_fresh_interpreter():
    blocks = tour_blocks()
    assert len(blocks) >= 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", "\n".join(blocks)], env=env,
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    # the tour prints the component count and density, then the ISE
    assert len(done.stdout.split("\n")) >= 2

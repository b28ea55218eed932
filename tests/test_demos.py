import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metagames

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_all_seven_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_clean(tmp_path, demo):
    # Each demo runs from a copy (demo 02 writes next to its own file) and
    # must exit 0 with nothing on stderr: a warning or a traceback fails it.
    script = shutil.copy(demo, tmp_path)
    src = str(Path(metagames.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")

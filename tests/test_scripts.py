import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_rank_jump_survey_runs_from_a_checkout(tmp_path):
    # no PYTHONPATH and a foreign working directory: the script must find
    # the package next to it on its own
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "rank_jump_survey.py"), "--radius", "1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "  RANK-JUMP at (0, 0, 1)" in proc.stdout.splitlines()

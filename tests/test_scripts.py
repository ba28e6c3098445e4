import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


def _readme_python_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]


def test_readme_library_snippet_prints_the_rank_jump_plane(capsys):
    exec(_readme_python_blocks()[0], {})
    F = Fraction
    plane = ((F(0), F(0), F(1)), ((F(1), F(0), F(-2)),))
    assert capsys.readouterr().out == "%s %s\n" % plane


def test_readme_groebner_snippet_prints_the_koszul_syzygy(capsys):
    blocks = _readme_python_blocks()
    assert len(blocks) == 2
    exec(blocks[1], {})
    assert capsys.readouterr().out == "['z', '-y']\n"

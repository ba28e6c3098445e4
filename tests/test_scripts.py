import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from quasidegrees.cli import Job, build_ring

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


def test_readme_job_schema_names_the_keys_the_cli_reads(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Job schema\n", 1)[1].split("\n### ", 1)[0]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    path = tmp_path / "job.json"
    path.write_text(json.dumps(example), encoding="utf-8")
    Job.load(str(path))
    assert set(example) == set(Job._fields) - {"raw"}
    # each key of a grading object in the prose is one build_ring reads
    objects = re.findall(r"`(\{.*?\})`", section)
    named = set(re.findall(r'"(\w+)":', " ".join(objects)))
    assert "matrix" in named
    for key in named:
        grading = {"matrix": [[1, 1]], key: [[1, 1]]}
        assert build_ring(Job(None, ("s", "t"), grading, None, None, b"")).heft == (1,)

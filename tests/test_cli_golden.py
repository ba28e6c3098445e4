"""CLI output on the bundled jobs, byte for byte.

Every subcommand that applies to a file in ``jobs/`` runs in both output
formats, ``toric`` also in both term orders (the other commands take no
``--order``), and its stdout must equal the copy kept
in ``tests/golden/<job>.json``. Performance work must not change a
single byte of it. After a deliberate change of output, rewrite the
copies with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from helpers import build_cli_rings_in
from quasidegrees.cli import main
from quasidegrees.poly import LEX

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# job file -> argument lists that follow the job path
COMMANDS = {
    "monomial_demo": [
        ["std-pairs"],
        ["qdeg"],
        ["qdeg", "--reduce"],
        ["qlc"],
        ["qlc", "--i", "1"],
        ["qlc", "--reduce"],
    ],
    # x*z - y^2 does not split into monomial row ideals, so qdeg takes the
    # initial-module route
    "binomial_demo": [
        ["qdeg"],
        ["qdeg", "--reduce"],
    ],
    "rank_jump_demo": [
        ["toric"],
        ["volume"],
        ["qlc"],
        ["check-beta", "--", "0,0,1"],
        ["check-beta", "--", "1,0,-1"],
    ],
    "toric_demo": [
        ["toric"],
        ["volume"],
        ["qlc"],
        ["check-beta", "--", "1,2"],
    ],
}
FORMATS = ("text", "machine")


def _argv(job: str, args: list[str], order: str | None, fmt: str) -> list[str]:
    head, tail = args, []
    if "--" in args:
        k = args.index("--")
        head, tail = args[:k], args[k:]
    path = str(ROOT / "jobs" / f"{job}.json")
    options = ["--format", fmt] if order is None else ["--order", order, "--format", fmt]
    return [head[0], path, *head[1:], *options, *tail]


def _case(args: list[str], order: str | None, fmt: str) -> str:
    """The command line without the job path."""
    argv = _argv("", args, order, fmt)
    return " ".join(argv[:1] + argv[2:])


def _variants(args: list[str]):
    orders = ("grevlex", "lex") if args[0] == "toric" else (None,)
    return [(order, fmt) for order in orders for fmt in FORMATS]


def _cases():
    for job, commands in COMMANDS.items():
        for args in commands:
            for order, fmt in _variants(args):
                yield job, args, order, fmt


@pytest.mark.parametrize(
    "job,args,order,fmt",
    list(_cases()),
    ids=[f"{job}:{_case(a, o, f)}" for job, a, o, f in _cases()],
)
def test_cli_output_matches_golden(job, args, order, fmt, capsys):
    golden = json.loads((GOLDEN / f"{job}.json").read_text())
    code = main(_argv(job, args, order, fmt))
    out = capsys.readouterr().out
    assert code == 0
    assert out == golden[_case(args, order, fmt)]


def _lex_ring_cases():
    return [case for case in _cases() if case[1][0] != "toric"]


@pytest.mark.parametrize(
    "job,args,order,fmt",
    _lex_ring_cases(),
    ids=[f"{job}:{_case(a, o, f)}" for job, a, o, f in _lex_ring_cases()],
)
def test_cli_output_in_a_lex_ring_matches_golden(job, args, order, fmt, capsys, monkeypatch):
    # the commands without --order print invariants of the module or of A;
    # built over a lex ring they take another Groebner route to the same bytes
    build_cli_rings_in(monkeypatch, LEX)
    golden = json.loads((GOLDEN / f"{job}.json").read_text())
    code = main(_argv(job, args, order, fmt))
    out = capsys.readouterr().out
    assert code == 0
    assert out == golden[_case(args, order, fmt)]


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for job, commands in COMMANDS.items():
        outputs = {}
        for args in commands:
            for order, fmt in _variants(args):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(_argv(job, args, order, fmt))
                if code:
                    sys.exit(f"{job} {_case(args, order, fmt)}: exit code {code}")
                outputs[_case(args, order, fmt)] = buf.getvalue()
        text = json.dumps(outputs, indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{job}.json").write_text(text)


if __name__ == "__main__":
    _record()

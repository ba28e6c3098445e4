import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from quasidegrees.cli import format_plane, machine_text, main, make_parser
from quasidegrees.groebner import ideal_equal
from quasidegrees.homology import GradedPresentation, qlc
from quasidegrees.linalg import IntMatrix
from quasidegrees.parse import parse_polynomial
from quasidegrees.planes import AffinePlane
from quasidegrees.toric import to_a_graded_ring, toric_ideal

MONOMIAL_JOB = {
    "variables": ["x", "y", "z"],
    "grading": "standard",
    "ideal": ["x*y", "y*z"],
}
A35_JOB = {
    "matrix": [
        [1, 1, 1, 1, 1],
        [0, 0, 1, 1, 0],
        [0, 1, 1, 0, -2],
    ]
}
CUBIC_JOB = {"matrix": [[1, 1, 1, 1], [0, 1, 2, 3]]}
CUBE_MATRIX = [
    [1] * 8,
    [0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1],
]
JOBS = Path(__file__).resolve().parent.parent / "jobs"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def src_env():
    """The environment of a child process that imports src/."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_module(*argv):
    """Run ``python -m quasidegrees`` in a child process that imports src/."""
    return subprocess.run(
        [sys.executable, "-m", "quasidegrees", *argv],
        capture_output=True,
        text=True,
        env=src_env(),
    )


def test_cli_imports_no_dataclass_machinery():
    # every CLI call starts a fresh interpreter: ``dataclasses`` would load
    # inspect, ast, dis and tokenize and generate methods at each start
    code = (
        "import sys, quasidegrees.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'quasidegrees'))\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    modules, machinery = proc.stdout.splitlines()
    layers = ["cli", "groebner", "homology", "linalg", "parse", "planes", "poly", "qdeg",
              "stdpairs", "toric", "words"]
    assert modules == repr(["quasidegrees"] + [f"quasidegrees.{m}" for m in layers])
    assert machinery == "False False"


@pytest.fixture
def job_file(tmp_path):
    def write(payload, name="job.json"):
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_std_pairs_text(job_file, capsys):
    code, out, _ = run(capsys, ["std-pairs", job_file(MONOMIAL_JOB)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["1 * [x, z]", "1 * [y]", "degree 1"]


def test_std_pairs_machine(job_file, capsys):
    code, out, _ = run(
        capsys, ["std-pairs", job_file(MONOMIAL_JOB), "--format", "machine"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "std-pairs"
    assert len(doc["input_sha256"]) == 64
    assert doc["degree"] == 1
    assert {"root": [0, 0, 0], "face": [0, 2]} in doc["pairs"]


def test_std_pairs_print_faces_by_variable_index(job_file, capsys):
    # the face {2, 9} iterates as 9, 2 in CPython, where 9 passes the size
    # of a small frozenset's hash table
    names = list("abcdefghkm")
    job = {"variables": names, "grading": "standard", "ideal": list("abdefghk")}
    code, out, _ = run(capsys, ["std-pairs", job_file(job)])
    assert code == 0
    assert out.splitlines() == ["1 * [c, m]", "degree 1"]
    code, out, _ = run(capsys, ["std-pairs", job_file(job), "--format", "machine"])
    assert code == 0
    assert json.loads(out)["pairs"] == [{"root": [0] * 10, "face": [2, 9]}]


def test_std_pairs_principal_power_is_linear(job_file, capsys):
    # x^3000*y^3000: 3000 pairs along each axis; the box search hung here
    job = {"variables": ["x", "y"], "grading": "standard", "ideal": ["x^3000*y^3000"]}
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["std-pairs", job_file(job)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6001
    assert lines[0] == "1 * [x]" and lines[-2] == "x^2999 * [y]"
    assert lines[-1] == "degree 6000"
    assert elapsed < 20.0, f"std-pairs took {elapsed:.1f}s"


def test_std_pairs_rejects_non_monomial(job_file, capsys):
    job = dict(MONOMIAL_JOB, ideal=["x + y"])
    code, _, err = run(capsys, ["std-pairs", job_file(job)])
    assert code == 3
    assert "monomial" in err


def test_qdeg_text_and_reduce(job_file, capsys):
    path = job_file(MONOMIAL_JOB)
    code, out, _ = run(capsys, ["qdeg", path])
    assert code == 0
    assert out.strip().splitlines() == ["base (0) span {(1)}"]
    code, out, _ = run(capsys, ["qdeg", path, "--reduce"])
    assert code == 0
    assert out.strip().splitlines() == ["base (0) span {(1)}"]


def test_qdeg_binomial_needs_general(job_file, capsys):
    job = dict(MONOMIAL_JOB, ideal=["x*y - z^2"])
    path = job_file(job)
    code, _, err = run(capsys, ["qdeg", path])
    assert code == 4
    assert "--general" in err
    code, out, _ = run(capsys, ["qdeg", path, "--general", "--reduce"])
    assert code == 0
    assert out.strip() != ""


def test_qdeg_presentation_section(job_file, capsys):
    job = {
        "variables": ["x", "y"],
        "grading": "standard",
        "presentation": {
            "shifts": [[0], [1]],
            "matrix": [["x^2", "0", "0"], ["0", "x", "y"]],
        },
    }
    # row 0 carries <x^2> at shift 0: pairs (1,{y}) and (x,{y}), both the
    # whole line, which prints once from the least base; row 1 carries
    # <x, y> at shift 1: pair (1,{}), the point 1
    code, out, _ = run(capsys, ["qdeg", job_file(job)])
    assert code == 0
    assert out.strip().splitlines() == [
        "base (0) span {(1)}",
        "base (1) span {}",
    ]


def test_qdeg_inhomogeneous_presentation(job_file, capsys):
    job = dict(MONOMIAL_JOB, ideal=["x + x*y"])
    code, _, err = run(capsys, ["qdeg", job_file(job)])
    assert code == 3
    assert "homogeneous" in err


def test_toric_generators(job_file, capsys):
    code, out, _ = run(capsys, ["toric", job_file(CUBIC_JOB)])
    assert code == 0
    A = IntMatrix(tuple(tuple(r) for r in CUBIC_JOB["matrix"]))
    ring = to_a_graded_ring(A)
    printed = [parse_polynomial(line, ring) for line in out.strip().splitlines()]
    assert ideal_equal(printed, toric_ideal(A, ring))


def test_toric_lex_order(job_file, capsys):
    code, out, _ = run(capsys, ["toric", job_file(CUBIC_JOB), "--order", "lex"])
    assert code == 0
    A = IntMatrix(tuple(tuple(r) for r in CUBIC_JOB["matrix"]))
    ring = to_a_graded_ring(A)
    printed = [parse_polynomial(line, ring) for line in out.strip().splitlines()]
    assert ideal_equal(printed, toric_ideal(A, ring))


def test_volume(job_file, capsys):
    code, out, _ = run(capsys, ["volume", job_file(A35_JOB)])
    assert code == 0
    assert out.strip() == "volume 4"


def test_qlc_golden(job_file, capsys):
    path = job_file(A35_JOB)
    code, out, _ = run(capsys, ["qlc", path])
    assert code == 0
    assert out.strip() == "base (0, 0, 1) span {(1, 0, -2)}"
    code, out, _ = run(capsys, ["qlc", path, "--i", "0"])
    assert code == 0
    assert out.strip() == "empty"


def test_qlc_machine(job_file, capsys):
    code, out, _ = run(capsys, ["qlc", job_file(A35_JOB), "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["planes"] == [{"base": ["0", "0", "1"], "span": [["1", "0", "-2"]]}]


def test_qlc_with_exponents_past_sixteen_bits(job_file, capsys):
    # exponents of 40000 and 40001 set the width of the packed terms
    path = job_file({"variables": ["x", "y"], "ideal": ["x^40000*y - y^40001"]})
    code, out, _ = run(capsys, ["qlc", path])
    assert code == 0
    assert out.strip() == "empty"


def test_qlc_bad_index(job_file, capsys):
    code, _, err = run(capsys, ["qlc", job_file(A35_JOB), "--i", "7"])
    assert code == 3
    assert "index" in err


def test_qlc_index_up_to_nvars(job_file, capsys):
    # i may exceed the grading rank (3 here) up to the number of variables
    path = job_file(A35_JOB)
    code, out, _ = run(capsys, ["qlc", path, "--i", "3"])
    assert code == 0
    A = IntMatrix(tuple(tuple(r) for r in A35_JOB["matrix"]))
    R = to_a_graded_ring(A)
    expected = qlc(GradedPresentation.cyclic(R, toric_ideal(A, R)), 3)
    assert not expected.is_empty
    assert out.splitlines() == [format_plane(p) for p in expected.planes]
    code, out, _ = run(capsys, ["qlc", path, "--i", "5"])
    assert code == 0


def test_qlc_quintic_is_empty_within_budget(job_file):
    # the rational normal quintic is Cohen-Macaulay
    t0 = time.perf_counter()
    proc = run_module("qlc", job_file({"matrix": [[1] * 6, [0, 1, 2, 3, 4, 5]]}))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0
    assert proc.stdout.strip() == "empty"
    assert elapsed < 10.0


def test_check_beta(job_file, capsys):
    path = job_file(A35_JOB)
    code, out, _ = run(capsys, ["check-beta", path, "0,0,1"])
    assert code == 0
    assert out.startswith("RANK-JUMP")
    code, out, _ = run(capsys, ["check-beta", path, "3/2, 0, -2"])
    assert code == 0
    assert out.startswith("RANK-JUMP")
    code, out, _ = run(capsys, ["check-beta", path, "0,0,0"])
    assert code == 0
    assert out.startswith("EXPECTED-RANK vol(A)=4")


def test_check_beta_negative_first_entry_after_double_dash(job_file, capsys):
    # (-1, 0, 3) lies on the exceptional line (0,0,1) + C(1,0,-2) of A35
    code, out, _ = run(capsys, ["check-beta", job_file(A35_JOB), "--", "-1,0,3"])
    assert code == 0
    assert out.startswith("RANK-JUMP at beta=(-1, 0, 3)")


def test_check_beta_negative_first_entry_without_double_dash(job_file, capsys):
    path = job_file(A35_JOB)
    code, bare, _ = run(capsys, ["check-beta", path, "-1,0,3"])
    assert code == 0
    code, dashed, _ = run(capsys, ["check-beta", path, "--", "-1,0,3"])
    assert code == 0
    assert bare == dashed
    assert bare.startswith("RANK-JUMP at beta=(-1, 0, 3)")
    # options may follow the degree, and the console entry reads sys.argv
    proc = run_module("check-beta", path, "-1/2,0,2", "--format", "machine")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["beta"] == ["-1/2", "0", "2"]


def test_make_parser_builds_one_parser():
    assert make_parser() is make_parser()


def test_main_calls_in_a_row_print_what_fresh_processes_print(job_file, capsys):
    # the one parser keeps nothing from an earlier call: not --reduce, not
    # a usage error, not a degree moved behind '--'
    two_rows = job_file(
        {
            "variables": ["x", "y"],
            "grading": "standard",
            "presentation": {
                "shifts": [[0], [1]],
                "matrix": [["x^2", "0", "0"], ["0", "x", "y"]],
            },
        },
        "two_rows.json",
    )
    a35 = job_file(A35_JOB, "a35.json")
    calls = [
        (["qdeg", two_rows, "--reduce"], 0),
        (["qdeg", two_rows], 0),
        (["qdeg", two_rows, "--no-such-option"], 2),
        (["check-beta", a35, "-1,0,3"], 0),
        (["check-beta", a35, "--", "-1,0,3"], 0),
    ]
    outs = []
    for argv, expected in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = run_module(*argv)
        assert code == proc.returncode == expected, argv
        assert (captured.out, captured.err) == (proc.stdout, proc.stderr), argv
        outs.append(captured.out)
    assert outs[0] != outs[1]
    assert outs[3] == outs[4] != ""


def test_check_beta_machine(job_file, capsys):
    code, out, _ = run(
        capsys, ["check-beta", job_file(A35_JOB), "0,0,1", "--format", "machine"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "RANK-JUMP"
    assert doc["volume"] == 4
    assert doc["beta"] == ["0", "0", "1"]


def test_check_beta_degree_errors(job_file, capsys):
    path = job_file(A35_JOB)
    code, _, _ = run(capsys, ["check-beta", path, "0,0"])
    assert code == 3
    code, _, _ = run(capsys, ["check-beta", path, "0,0,spam"])
    assert code == 2


def test_bad_json(job_file, capsys):
    code, _, err = run(capsys, ["volume", job_file("{not json")])
    assert code == 2
    assert "JSON" in err


def test_job_file_not_utf8_is_parse_error(tmp_path):
    path = tmp_path / "job.json"
    path.write_bytes(b"\xff\xfe{}")
    proc = run_module("qdeg", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deeply_nested_json_is_parse_error(job_file):
    proc = run_module("qdeg", job_file("[" * 100_000 + "]" * 100_000))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "nested" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_file(capsys):
    code, _, err = run(capsys, ["volume", "/nonexistent/job.json"])
    assert code == 3
    assert "job file" in err


def test_unknown_variable_is_parse_error(job_file, capsys):
    job = dict(MONOMIAL_JOB, ideal=["x*w"])
    code, _, _ = run(capsys, ["qdeg", job_file(job)])
    assert code == 2


def test_deeply_nested_polynomial_is_parse_error(job_file):
    job = dict(MONOMIAL_JOB, ideal=["(" * 3000 + "x" + ")" * 3000])
    proc = run_module("std-pairs", job_file(job))
    assert proc.returncode == 2
    assert "nested" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_sections(job_file, capsys):
    code, _, _ = run(capsys, ["volume", job_file({"variables": ["x"]})])
    assert code == 3
    code, _, _ = run(
        capsys, ["qdeg", job_file({"variables": ["x"], "grading": "standard"})]
    )
    assert code == 3
    code, _, _ = run(capsys, ["std-pairs", job_file({"matrix": [[1, 2]]})])
    assert code == 3


@pytest.mark.parametrize("command", ["qdeg", "qlc"])
def test_non_integral_shift_is_a_validation_error(job_file, capsys, command):
    job = {
        "variables": ["x", "y"],
        "grading": "standard",
        "presentation": {"shifts": [["1/2"]], "matrix": [["x", "y"]]},
    }
    code, out, err = run(capsys, [command, job_file(job)])
    assert code == 3
    assert out == ""
    assert err == "error: shift 0: '1/2' is not an integer\n"


def test_integral_fraction_shift_is_accepted(job_file, capsys):
    job = {
        "variables": ["x", "y"],
        "grading": "standard",
        "presentation": {"shifts": [["4/2"]], "matrix": [["x", "y"]]},
    }
    code, out, _ = run(capsys, ["qdeg", job_file(job)])
    assert code == 0
    assert out == "base (2) span {}\n"


def test_grading_not_positive(job_file, capsys):
    code, _, _ = run(capsys, ["toric", job_file({"matrix": [[1, -1]]})])
    assert code == 3


def test_unknown_job_keys(job_file, capsys):
    code, _, _ = run(capsys, ["volume", job_file({"matrix": [[1, 2]], "extra": 1})])
    assert code == 3


@pytest.mark.parametrize("command", ["std-pairs", "qdeg", "qlc", "toric"])
def test_duplicate_variables_are_a_validation_error(job_file, capsys, command):
    path = job_file({"variables": ["x", "x"], "ideal": ["x"]})
    code, _, err = run(capsys, [command, path])
    assert code == 3
    assert "duplicate variable names" in err


@pytest.mark.parametrize("command", ["std-pairs", "qdeg", "qlc", "toric", "volume"])
def test_variables_not_matching_the_matrix_are_a_validation_error(job_file, capsys, command):
    path = job_file({"matrix": [[1, 1], [0, 1]], "variables": ["a"]})
    code, _, err = run(capsys, [command, path])
    assert code == 3
    assert "one column per variable" in err


@pytest.mark.parametrize(
    "grading,message",
    [
        ({"matrix": [[1, 1, 1]]}, "one column per variable"),
        ({"matrix": [[1, 1]], "heft": [1, 1]}, "one entry per row"),
    ],
)
def test_explicit_grading_of_the_wrong_shape(job_file, capsys, grading, message):
    job = {"variables": ["s", "t"], "grading": grading, "ideal": ["s*t"]}
    proc = run_module("qlc", job_file(job))
    assert proc.returncode == 3
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_explicit_grading_object(job_file, capsys):
    job = {
        "variables": ["s", "t"],
        "grading": {"matrix": [[1, 1], [0, 1]]},
        "ideal": ["s*t"],
    }
    code, out, _ = run(capsys, ["qdeg", job_file(job), "--reduce"])
    assert code == 0
    assert out.strip() != ""


def test_bad_matrix_entries(job_file, capsys):
    code, _, _ = run(capsys, ["volume", job_file({"matrix": [[1, 1.5]]})])
    assert code == 3


def test_module_entry_point(job_file):
    proc = run_module("volume", job_file(CUBIC_JOB))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "volume 3"


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize(
    "matrix",
    [
        A35_JOB["matrix"],
        [[1] * 4, [0, 1, 3, 4]],
        [[1] * 4, [0, 1, 2, 3]],
        [[1] * 5, [0, 1, 2, 3, 4]],
        [[1] * 6, [0, 1, 2, 3, 4, 5]],
        CUBE_MATRIX,
        [[1, 2]],
    ],
    ids=["A35", "sturmfels_takayama", "rnc3", "rnc4", "rnc5", "cube", "segment"],
)
def test_check_beta_volume_equals_volume_subcommand(job_file, capsys, matrix, order):
    # check-beta reads vol(A) from the basis of its own presentation
    path = job_file({"matrix": matrix})
    code, out, _ = run(capsys, ["volume", path, "--order", order, "--format", "machine"])
    assert code == 0
    volume = json.loads(out)["volume"]
    beta = ",".join(["0"] * len(matrix))
    argv = ["check-beta", path, beta, "--order", order, "--format", "machine"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["volume"] == volume


def test_qlc_reports_cohomology_below_the_dimension(job_file, capsys):
    # R/<xy, xz> has dimension 2 above the grading rank 1 and depth 1:
    # H^1 is nonzero, with 0 among its degrees
    job = {"variables": ["x", "y", "z"], "grading": "standard", "ideal": ["x*y", "x*z"]}
    code, out, _ = run(capsys, ["qlc", job_file(job)])
    assert code == 0
    assert out.splitlines() == ["base (0) span {(1)}"]


def test_qlc_monomial_demo_is_union_of_its_degrees(capsys):
    # R/<xy, yz> has dimension 2, so qlc collects H^0 and H^1
    path = str(JOBS / "monomial_demo.json")
    planes = []
    for i in ("0", "1"):
        code, out, _ = run(capsys, ["qlc", path, "--i", i, "--format", "machine"])
        assert code == 0
        planes += json.loads(out)["planes"]
    code, out, _ = run(capsys, ["qlc", path, "--format", "machine"])
    assert code == 0
    total = json.loads(out)["planes"]
    assert total
    assert total == planes


def _machine_planes(out):
    return [AffinePlane(p["base"], p["span"]) for p in json.loads(out)["planes"]]


@pytest.mark.parametrize(
    "argv",
    [["qdeg"], ["qdeg", "--reduce"], ["qdeg", "--general"], ["qlc", "--i", "2"]],
    ids=["qdeg", "qdeg_reduce", "qdeg_general", "qlc_i2"],
)
def test_monomial_demo_prints_each_plane_once(capsys, argv):
    # the y-axis and the xz-plane of R/<xy, yz> give the same line of
    # degrees; it used to print twice, once with the span {(1), (1)}
    path = str(JOBS / "monomial_demo.json")
    code, out, _ = run(capsys, [argv[0], path, *argv[1:], "--format", "machine"])
    assert code == 0
    planes = _machine_planes(out)
    assert planes
    assert len(set(planes)) == len(planes)
    assert all(p.span == ((1,),) for p in planes)


# the benchmark's std5_a ideal as its seed-1 relabelling writes it
STD5_A_JOB = {
    "variables": ["g", "t", "n", "p", "u"],
    "ideal": [
        "g^3*p^2*u",
        "g^2*n^4*p^4",
        "t^3*p^4*u",
        "g*t^4*p^3",
        "g^4*t*p^3",
        "g^4*t^3*n^4*p^4",
    ],
}


@pytest.mark.parametrize("extra", [[], ["--reduce"]], ids=["plain", "reduce"])
def test_qlc_text_does_not_depend_on_the_order(job_file, capsys, extra):
    # lex and grevlex give different initial modules of the Ext modules,
    # hence different spanning sets for the same planes
    path = job_file(STD5_A_JOB)
    code, grevlex, _ = run(capsys, ["qlc", path, "--order", "grevlex", *extra])
    assert code == 0
    code, lex, _ = run(capsys, ["qlc", path, "--order", "lex", *extra])
    assert code == 0
    assert grevlex and lex == grevlex


@pytest.mark.parametrize(
    "extra",
    [
        {"ideal": ["x1*x3 - x2*x4"]},
        {"presentation": {"shifts": [[0, 0, 0]], "matrix": [["x1"]]}},
    ],
    ids=["ideal", "presentation"],
)
def test_check_beta_rejects_a_module_besides_the_matrix(job_file, capsys, extra):
    # vol(A) belongs to R/I_A; a job naming another module would mix the two
    job = dict(A35_JOB, variables=["x1", "x2", "x3", "x4", "x5"], **extra)
    code, out, err = run(capsys, ["check-beta", job_file(job), "0,0,1"])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "R/I_A" in err


# strings with quotes, backslashes, control characters and non-ASCII text
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t éß 😀ab') | st.characters())
JSON_DOCS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=25,
)


@given(JSON_DOCS)
def test_machine_text_prints_what_json_dumps_prints(doc):
    assert machine_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_machine_text_on_empty_and_flat_containers():
    for doc in ({}, [], {"a": []}, {"a": {}}, [[]], {"b": [1, -2, 10**30], "a": [True, None]}):
        assert machine_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

"""Fuzzing the structure of job documents.

Every document the CLI reads must end in a documented exit code (0
success, 2 parse failure, 3 validation failure) and never in an
uncaught exception. Each document starts
as a well-formed ideal, matrix or presentation job and then takes up to
two mutations: a dropped key, a value of the wrong type, a duplicated
variable, a matrix of another shape, a bad grading or heft. Polynomial
text is drawn from the grammar or as short garbage. At most three
variables and entries in [-2, 2] keep every example fast.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from quasidegrees.cli import main

NAMES = ["x", "y", "z"]
ENTRY = st.integers(-2, 2)
JUNK = st.sampled_from([None, True, 1.5, "1", {}, [], [[]], "x"])


def _or_junk(strategy):
    return st.one_of(strategy, strategy, strategy, JUNK)


def _int_matrix():
    return st.lists(st.lists(ENTRY, min_size=0, max_size=3), min_size=0, max_size=3)


def _monomial():
    return st.builds(
        lambda v, e: v if e == 1 else f"{v}^{e}",
        st.sampled_from(NAMES + ["w"]),
        st.integers(0, 2),
    )


def _term():
    coeff = st.sampled_from(["", "2*", "-1*", "3/2*", "0*", "1/0*"])
    return st.builds(
        lambda c, ms: c + "*".join(ms) if ms else c.rstrip("*") or "1",
        coeff,
        st.lists(_monomial(), min_size=0, max_size=2),
    )


def _polynomial_text():
    grammar = st.builds(
        lambda first, rest: first + "".join(f" {op} {t}" for op, t in rest),
        _term(),
        st.lists(st.tuples(st.sampled_from("+-"), _term()), max_size=2),
    )
    monomial = st.lists(_monomial(), min_size=1, max_size=3).map("*".join)
    # short, so that no exponent or power it spells is large
    garbage = st.text(alphabet="xyzw+-*/^() 012.", max_size=5)
    return st.one_of(monomial, monomial, grammar, garbage)


def _names():
    return st.integers(1, 3).map(lambda n: NAMES[:n])


@st.composite
def _job(draw):
    """A well-formed job of one of three kinds, then up to two mutations."""
    names = draw(_names())
    n = len(names)
    # a positive first row makes most gradings pass validation
    rows = st.tuples(
        st.lists(st.integers(1, 2), min_size=n, max_size=n),
        st.lists(st.lists(ENTRY, min_size=n, max_size=n), max_size=1),
    ).map(lambda t: [t[0], *t[1]])
    kind = draw(st.sampled_from(["ideal", "matrix", "presentation"]))
    if kind == "matrix":
        doc = {"matrix": draw(rows)}
        if draw(st.booleans()):
            doc["variables"] = names
    else:
        grading = draw(
            st.one_of(
                st.just("standard"),
                st.builds(lambda m: {"matrix": m}, rows),
            )
        )
        doc = {"variables": names, "grading": grading}
        if kind == "ideal":
            doc["ideal"] = draw(st.lists(_polynomial_text(), min_size=1, max_size=3))
        else:
            rank = 1 if grading == "standard" else len(grading["matrix"])
            t = draw(st.integers(1, 2))
            s = draw(st.integers(1, 2))
            doc["presentation"] = {
                "shifts": draw(st.lists(st.lists(ENTRY, min_size=rank, max_size=rank),
                                        min_size=t, max_size=t)),
                "matrix": draw(st.lists(st.lists(_polynomial_text(), min_size=s, max_size=s),
                                        min_size=t, max_size=t)),
            }
    for _ in range(draw(st.integers(0, 2))):
        _mutate(draw, doc)
    return doc


def _mutate(draw, doc):
    keys = ["matrix", "variables", "grading", "ideal", "presentation"]
    op = draw(st.sampled_from(["drop", "junk", "duplicate", "widen", "grading", "heft"]))
    key = draw(st.sampled_from(keys))
    if op == "drop":
        doc.pop(key, None)
    elif op == "junk":
        doc[key] = draw(JUNK)
    elif op == "duplicate" and isinstance(doc.get("variables"), list) and doc["variables"]:
        doc["variables"] = doc["variables"] + doc["variables"][:1]
    elif op == "widen":
        doc["matrix"] = draw(_int_matrix())
    elif op == "grading":
        doc["grading"] = draw(
            st.one_of(
                st.sampled_from(["standard", "from-matrix", "bogus", 3, None]),
                st.builds(lambda m: {"matrix": m}, _or_junk(_int_matrix())),
            )
        )
    elif op == "heft" and isinstance(doc.get("grading"), dict):
        doc["grading"]["heft"] = draw(_or_junk(st.lists(ENTRY, max_size=3)))


def _argv():
    fmt = st.sampled_from([[], ["--format", "machine"]])
    command = st.one_of(
        st.sampled_from(
            [["std-pairs"], ["qdeg"], ["qdeg", "--reduce"], ["toric"],
             ["toric", "--order", "lex"], ["volume"], ["qlc"], ["qlc", "--reduce"]]
        ),
        st.builds(lambda i: ["qlc", "--i", str(i)], st.integers(-1, 4)),
        st.builds(
            lambda b: ["check-beta", "--", b],
            st.sampled_from(["0", "1,2", "0,-1", "1,0,-2", "1/2,0", "x", ""]),
        ),
    )
    return st.tuples(command, fmt)


@settings(
    max_examples=150,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(doc=_job(), argv=_argv())
def test_job_documents_end_in_a_documented_exit_code(tmp_path, capsys, doc, argv):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    (command, fmt) = argv
    head, tail = command, []
    if "--" in command:
        k = command.index("--")
        head, tail = command[:k], command[k:]
    code = main([head[0], str(path), *head[1:], *fmt, *tail])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err

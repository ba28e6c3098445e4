"""Command line front end.

Jobs are JSON documents; see the README for the schema.  Subcommands:

    std-pairs   standard pairs of a monomial ideal
    qdeg        quasidegree planes of a presented module
    toric       generators of the toric ideal of an integer matrix
    volume      normalized volume of an integer matrix
    qlc         quasidegrees of local cohomology of a module
    check-beta  classify a degree as rank-jumping or not

Exit codes: 0 success, 2 parse failure (bad JSON, bad polynomial or
degree syntax), 3 validation failure (missing job sections, wrong
shapes, grading problems, inhomogeneous input), 4 presentation not a
split monomial matrix (rerun qdeg with --general).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

from .homology import GradedPresentation, qlc, qlc_total
from .linalg import Frozen, IntMatrix
from .parse import ParseError, parse_polynomial, render_polynomial
from .planes import QuasidegreeSet, remove_redundancy
from .poly import (
    GREVLEX,
    LEX,
    GradedRing,
    GradingError,
    Polynomial,
    graded_ring,
    standard_graded_ring,
)
from .qdeg import (
    InhomogeneousError,
    NonMonomialEntryError,
    NonSplittingError,
    monomial_matrix_from_vectors,
    quasidegrees_module,
    quasidegrees_monomial,
)
from .stdpairs import degree_from_pairs, standard_pairs
from .toric import normalized_volume, to_a_graded_ring, toric_ideal, toric_volume

ORDERS = {"grevlex": GREVLEX, "lex": LEX}


class JobError(ValueError):
    """The job document is structurally invalid for the command."""


class PresentationSpec(Frozen):
    _fields = ("shifts", "rows")

    def __init__(
        self, shifts: tuple[tuple[int, ...], ...], rows: tuple[tuple[str, ...], ...]
    ) -> None:
        self.__dict__.update(shifts=shifts, rows=rows)


class Job(Frozen):
    _fields = ("matrix", "variables", "grading", "ideal", "presentation", "digest")

    def __init__(
        self,
        matrix: Optional[IntMatrix],
        variables: Optional[tuple[str, ...]],
        grading: object,
        ideal: Optional[tuple[str, ...]],
        presentation: Optional[PresentationSpec],
        digest: str,
    ) -> None:
        self.__dict__.update(
            matrix=matrix,
            variables=variables,
            grading=grading,
            ideal=ideal,
            presentation=presentation,
            digest=digest,
        )

    @classmethod
    def load(cls, path: str) -> "Job":
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            data = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError("job file is not UTF-8", exc.start) from None
        except RecursionError:
            raise ParseError("JSON in job file is nested too deep") from None
        if not isinstance(data, dict):
            raise JobError("job document must be a JSON object")
        known = {"matrix", "variables", "grading", "ideal", "presentation"}
        extra = set(data) - known
        if extra:
            raise JobError(f"unknown job keys: {sorted(extra)}")
        matrix = None
        if "matrix" in data:
            matrix = _read_int_matrix(data["matrix"], "matrix")
        variables = None
        if "variables" in data:
            v = data["variables"]
            if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
                raise JobError("variables must be a list of strings")
            if len(set(v)) != len(v):
                raise JobError("duplicate variable names")
            if matrix is not None and matrix.ncols != len(v):
                raise JobError("matrix needs one column per variable")
            variables = tuple(v)
        ideal = None
        if "ideal" in data:
            gens = data["ideal"]
            if not isinstance(gens, list) or not all(isinstance(s, str) for s in gens):
                raise JobError("ideal must be a list of polynomial strings")
            ideal = tuple(gens)
        presentation = None
        if "presentation" in data:
            presentation = _read_presentation(data["presentation"])
        return cls(
            matrix=matrix,
            variables=variables,
            grading=data.get("grading"),
            ideal=ideal,
            presentation=presentation,
            digest=hashlib.sha256(raw).hexdigest(),
        )


def _read_int_matrix(obj, what: str) -> IntMatrix:
    if (
        not isinstance(obj, list)
        or not obj
        or not all(isinstance(row, list) and row for row in obj)
    ):
        raise JobError(f"{what} must be a nonempty list of nonempty rows")
    width = len(obj[0])
    for row in obj:
        if len(row) != width:
            raise JobError(f"{what} rows have unequal lengths")
        for e in row:
            if not isinstance(e, int) or isinstance(e, bool):
                raise JobError(f"{what} entries must be integers")
    return IntMatrix(tuple(tuple(row) for row in obj))


def _read_shift(obj, what: str) -> int:
    """A shift entry: an integer, or a string naming one ("2", "4/2")."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise JobError(f"{what} must be an integer or a fraction string")
    try:
        value = Fraction(obj)
    except (ValueError, ZeroDivisionError):
        raise JobError(f"{what}: bad fraction {obj!r}") from None
    if value.denominator != 1:
        raise JobError(f"{what}: {obj!r} is not an integer")
    return value.numerator


def _read_presentation(obj) -> PresentationSpec:
    if not isinstance(obj, dict):
        raise JobError("presentation must be an object")
    if "shifts" not in obj or "matrix" not in obj:
        raise JobError("presentation needs 'shifts' and 'matrix'")
    shifts_obj = obj["shifts"]
    if not isinstance(shifts_obj, list):
        raise JobError("presentation shifts must be a list of degree vectors")
    shifts = []
    for k, s in enumerate(shifts_obj):
        if not isinstance(s, list):
            raise JobError("presentation shifts must be a list of degree vectors")
        shifts.append(tuple(_read_shift(c, f"shift {k}") for c in s))
    rows_obj = obj["matrix"]
    if not isinstance(rows_obj, list) or len(rows_obj) != len(shifts):
        raise JobError("presentation matrix must have one row per shift")
    rows = []
    for row in rows_obj:
        if not isinstance(row, list) or not all(isinstance(e, str) for e in row):
            raise JobError("presentation matrix rows must be lists of strings")
        rows.append(tuple(row))
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise JobError("presentation matrix rows have unequal lengths")
    return PresentationSpec(shifts=tuple(shifts), rows=tuple(rows))


def build_ring(job: Job, order_name: str) -> GradedRing:
    order = ORDERS[order_name]
    grading = job.grading
    if isinstance(grading, dict):
        known = {"matrix", "heft"}
        extra = set(grading) - known
        if extra:
            raise JobError(f"unknown grading keys: {sorted(extra)}")
        if "matrix" not in grading:
            raise JobError("explicit grading needs a 'matrix'")
        if job.variables is None:
            raise JobError("explicit grading needs 'variables'")
        deg = _read_int_matrix(grading["matrix"], "grading matrix")
        if deg.ncols != len(job.variables):
            raise JobError("grading matrix needs one column per variable")
        heft = None
        if "heft" in grading:
            h = grading["heft"]
            if not isinstance(h, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in h
            ):
                raise JobError("heft must be a list of integers")
            if len(h) != deg.nrows:
                raise JobError("heft needs one entry per row of the grading matrix")
            heft = tuple(h)
        return graded_ring(job.variables, degree_matrix=deg, heft=heft, order=order)
    if grading == "standard":
        if job.variables is None:
            raise JobError("standard grading needs 'variables'")
        return standard_graded_ring(job.variables, order=order)
    if grading in (None, "from-matrix"):
        if job.matrix is None:
            if grading is None and job.variables is not None:
                return standard_graded_ring(job.variables, order=order)
            raise JobError("grading 'from-matrix' needs a 'matrix'")
        return to_a_graded_ring(job.matrix, names=job.variables, order=order)
    raise JobError(f"unknown grading {grading!r}")


def build_presentation(job: Job, ring: GradedRing, allow_toric: bool) -> GradedPresentation:
    if job.presentation is not None:
        spec = job.presentation
        shifts = spec.shifts
        if any(len(s) != ring.grading_rank for s in shifts):
            raise JobError("presentation shifts need one entry per grading row")
        t = len(shifts)
        entries = [
            [parse_polynomial(cell, ring) for cell in row] for row in spec.rows
        ]
        s = len(entries[0]) if entries else 0
        columns = tuple(
            tuple(entries[k][j] for k in range(t)) for j in range(s)
        )
        return GradedPresentation(ring, shifts, columns)
    if job.ideal is not None:
        gens = [parse_polynomial(text, ring) for text in job.ideal]
        return GradedPresentation.cyclic(ring, [g for g in gens if not g.is_zero()])
    if allow_toric and job.matrix is not None:
        return GradedPresentation.cyclic(ring, toric_ideal(job.matrix, ring))
    raise JobError("job needs a 'presentation' or an 'ideal' section")


def _format_vector(v: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def format_plane(plane) -> str:
    span = ", ".join(_format_vector(v) for v in plane.span)
    return f"base {_format_vector(plane.base)} span {{{span}}}"


def _plane_json(plane) -> dict:
    return {
        "base": [str(c) for c in plane.base],
        "span": [[str(c) for c in v] for v in plane.span],
    }


def machine_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    documents whose dict keys are all strings; ``indent`` is the
    indentation of the line ``obj`` starts on.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder. Here
    strings go through the C string encoder and ints through
    ``int.__repr__``, as ``json`` itself writes them; other scalars go to
    ``json.dumps``.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [
            encode_basestring_ascii(key) + ": " + machine_text(obj[key], inner)
            for key in sorted(obj)
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = [machine_text(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    return json.dumps(obj)


def _emit(
    args, text_lines: Callable[[], list[str]], machine: Callable[[], dict]
) -> None:
    """Print the result in the format asked for; only that one is built."""
    if args.format == "machine":
        doc = machine()
        doc["command"] = args.command
        doc["input_sha256"] = args.job_digest
        print(machine_text(doc))
    else:
        for line in text_lines():
            print(line)


def _emit_planes(args, q: QuasidegreeSet, if_empty: list[str]) -> None:
    """Emit the planes of ``q``, with those strictly inside others dropped
    under --reduce; text mode prints ``if_empty`` for none."""
    if args.reduce:
        q = remove_redundancy(q)
    _emit(
        args,
        lambda: [format_plane(p) for p in q.planes] or if_empty,
        lambda: {"planes": [_plane_json(p) for p in q.planes]},
    )


def _monomial_exps(job: Job, ring: GradedRing) -> list[tuple[int, ...]]:
    if job.ideal is None:
        raise JobError("std-pairs needs an 'ideal' section")
    exps = []
    for text in job.ideal:
        f = parse_polynomial(text, ring)
        if f.is_zero():
            continue
        if not f.is_monomial():
            raise JobError(f"std-pairs needs monomial generators, got {text!r}")
        (e,) = f.terms
        exps.append(e)
    return exps


def cmd_std_pairs(job: Job, args) -> None:
    ring = build_ring(job, args.order)
    exps = _monomial_exps(job, ring)
    pairs = standard_pairs(exps, ring.nvars)
    deg = degree_from_pairs(pairs)

    def text_lines() -> list[str]:
        lines = []
        for p in pairs:
            root = render_polynomial(Polynomial.monomial(p.root), ring)
            face = ", ".join(ring.names[i] for i in sorted(p.face))
            lines.append(f"{root} * [{face}]")
        lines.append(f"degree {deg}")
        return lines

    _emit(
        args,
        text_lines,
        lambda: {
            "pairs": [{"root": list(p.root), "face": sorted(p.face)} for p in pairs],
            "degree": deg,
        },
    )


def cmd_qdeg(job: Job, args) -> None:
    ring = build_ring(job, args.order)
    P = build_presentation(job, ring, allow_toric=False)
    if args.general:
        q = quasidegrees_module(P.columns, P.shifts, ring)
    else:
        phi = monomial_matrix_from_vectors(P.columns, P.shifts, ring)
        q = quasidegrees_monomial(phi)
    _emit_planes(args, q, [])


def cmd_toric(job: Job, args) -> None:
    if job.matrix is None:
        raise JobError("toric needs a 'matrix' section")
    ring = build_ring(job, args.order)
    gens = toric_ideal(job.matrix, ring)
    lines = [render_polynomial(g, ring) for g in gens]
    _emit(args, lambda: lines, lambda: {"generators": lines})


def cmd_volume(job: Job, args) -> None:
    if job.matrix is None:
        raise JobError("volume needs a 'matrix' section")
    vol = normalized_volume(job.matrix)
    _emit(args, lambda: [f"volume {vol}"], lambda: {"volume": vol})


def cmd_qlc(job: Job, args) -> None:
    ring = build_ring(job, args.order)
    P = build_presentation(job, ring, allow_toric=True)
    if args.i is not None:
        if not 0 <= args.i <= ring.nvars:
            raise JobError(
                f"cohomological index must lie in [0, {ring.nvars}], "
                "the number of variables"
            )
        q = qlc(P, args.i)
    else:
        q = qlc_total(P)
    _emit_planes(args, q, ["empty"])


# a degree argument: comma-separated integers or fractions, each signed;
# kept as text so that importing the CLI compiles nothing
DEGREE_PATTERN = r"\s*-?\d+(/\d+)?\s*(,\s*-?\d+(/\d+)?\s*)*"


def _shield_negative_degree(argv: Sequence[str]) -> list[str]:
    """Move a check-beta degree that starts with '-' behind '--'.

    argparse reads a token like -1,0,3 as an option and then misses the
    positional degree. Command lines that already hold '--' are left as
    they are.
    """
    argv = list(argv)
    if argv[:1] != ["check-beta"] or "--" in argv:
        return argv
    for k, token in enumerate(argv):
        if token.startswith("-") and re.fullmatch(DEGREE_PATTERN, token):
            return argv[:k] + argv[k + 1 :] + ["--", token]
    return argv


def parse_degree(text: str, rank: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    try:
        beta = tuple(Fraction(part.strip()) for part in parts)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad degree {text!r}; expected comma-separated fractions") from None
    if len(beta) != rank:
        raise JobError(f"degree has {len(beta)} entries, grading rank is {rank}")
    return beta


def cmd_check_beta(job: Job, args) -> None:
    if job.matrix is None:
        raise JobError("check-beta needs a 'matrix' section")
    if job.ideal is not None or job.presentation is not None:
        raise JobError(
            "check-beta classifies R/I_A for the job's matrix; "
            "drop the 'ideal' and 'presentation' sections"
        )
    ring = build_ring(job, args.order)
    beta = parse_degree(args.beta, ring.grading_rank)
    basis = toric_ideal(job.matrix, ring)
    vol = toric_volume(job.matrix, basis, ring.order)
    jumping = qlc_total(GradedPresentation.cyclic(ring, basis)).contains_point(beta)
    if jumping:
        lines = [f"RANK-JUMP at beta={_format_vector(beta)}"]
    else:
        lines = [f"EXPECTED-RANK vol(A)={vol} at beta={_format_vector(beta)}"]
    _emit(
        args,
        lambda: lines,
        lambda: {
            "beta": [str(c) for c in beta],
            "status": "RANK-JUMP" if jumping else "EXPECTED-RANK",
            "volume": vol,
        },
    )


COMMANDS = {
    "std-pairs": cmd_std_pairs,
    "qdeg": cmd_qdeg,
    "toric": cmd_toric,
    "volume": cmd_volume,
    "qlc": cmd_qlc,
    "check-beta": cmd_check_beta,
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser of the command line.

    It is built once per process: every later call returns the same
    parser, which keeps no state between parse_args calls. Callers must
    not add to it or change it.
    """
    parser = argparse.ArgumentParser(
        prog="quasidegrees",
        description="quasidegree computations for multigraded modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("job", help="path to a JSON job file")
        p.add_argument(
            "--order",
            choices=sorted(ORDERS),
            default="grevlex",
            help="monomial order used for Groebner steps",
        )
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="text lines or a JSON document",
        )

    common(sub.add_parser("std-pairs", help="standard pairs of a monomial ideal"))

    p = sub.add_parser("qdeg", help="quasidegree planes of a presented module")
    common(p)
    p.add_argument(
        "--general",
        action="store_true",
        help="allow arbitrary homogeneous presentations (initial-module route)",
    )
    p.add_argument(
        "--reduce",
        action="store_true",
        help="drop planes contained in other planes",
    )

    common(sub.add_parser("toric", help="toric ideal of an integer matrix"))
    common(sub.add_parser("volume", help="normalized volume of an integer matrix"))

    p = sub.add_parser("qlc", help="quasidegrees of local cohomology")
    common(p)
    p.add_argument(
        "--i",
        type=int,
        default=None,
        help="single cohomological degree, 0 to the number of variables",
    )
    p.add_argument(
        "--reduce",
        action="store_true",
        help="drop planes contained in other planes",
    )

    p = sub.add_parser("check-beta", help="classify a degree as rank-jumping")
    common(p)
    p.add_argument("beta", help="comma-separated degree, e.g. '3/2,0,-2' or '-1,2,0'")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (sys.argv[1:] by default); returns the exit code.

    main can be called any number of times in one process; every call
    reuses the parser that make_parser built once.
    """
    args = make_parser().parse_args(_shield_negative_degree(sys.argv[1:] if argv is None else argv))
    try:
        job = Job.load(args.job)
        args.job_digest = job.digest
        COMMANDS[args.command](job, args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in job file: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonMonomialEntryError, NonSplittingError) as exc:
        print(f"error: {exc}; rerun with --general", file=sys.stderr)
        return 4
    except (JobError, GradingError, InhomogeneousError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot read job file: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

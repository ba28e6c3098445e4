"""Survey rank-jumping degrees of a toric quotient over an integer grid.

Reads a job file containing a "matrix" section, computes the quasidegree
planes of the local cohomology of R/I_A once, then classifies every integer
point of a box around the origin.  Points on the arrangement are exactly
the degrees where the associated hypergeometric rank exceeds the
normalized volume.

Usage:
    python3 scripts/rank_jump_survey.py [--job jobs/rank_jump_demo.json]
        [--radius 2]
"""

import argparse
import itertools
import json
import pathlib
import sys
import time
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
# run from a checkout without installing: import the package from src/
sys.path.insert(0, str(ROOT / "src"))

from quasidegrees import (  # noqa: E402
    GradedPresentation,
    IntMatrix,
    qlc_total,
    to_a_graded_ring,
    toric_ideal,
)
from quasidegrees.cli import format_plane  # noqa: E402
from quasidegrees.toric import toric_volume  # noqa: E402

DEFAULT_JOB = ROOT / "jobs" / "rank_jump_demo.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--job", default=str(DEFAULT_JOB), help="job file with a matrix")
    parser.add_argument("--radius", type=int, default=2, help="half-width of the grid")
    args = parser.parse_args()

    with open(args.job) as fh:
        data = json.load(fh)
    A = IntMatrix(tuple(tuple(row) for row in data["matrix"]))
    ring = to_a_graded_ring(A)
    print(f"matrix: {A.nrows} x {A.ncols}, variables {', '.join(ring.names)}")

    t0 = time.perf_counter()
    basis = toric_ideal(A, ring)
    arrangement = qlc_total(GradedPresentation.cyclic(ring, basis))
    elapsed = time.perf_counter() - t0
    # the volume from the basis already at hand, not a second I_A
    vol = toric_volume(A, basis, ring.order)
    print(f"normalized volume: {vol}")
    print(f"local cohomology arrangement ({elapsed:.2f}s):")
    if arrangement.is_empty:
        print("  empty (the quotient is Cohen-Macaulay; no degree jumps)")
    for plane in arrangement:
        print(f"  {format_plane(plane)}")

    r = args.radius
    grid = itertools.product(range(-r, r + 1), repeat=A.nrows)
    jumps = [
        beta
        for beta in grid
        if arrangement.contains_point(tuple(Fraction(c) for c in beta))
    ]
    total = (2 * r + 1) ** A.nrows
    print(f"grid [-{r}, {r}]^{A.nrows}: {len(jumps)} of {total} points jump")
    for beta in jumps:
        print(f"  RANK-JUMP at {beta}")


if __name__ == "__main__":
    main()

"""Seeded job lists for the two workloads.

A job is one CLI call: a JSON job document, the subcommand and its
arguments, and a check from ``verify`` that the answer must pass. The
seed picks variable names, relabels variables, draws the extra degrees
and exponents, and shuffles the job order; the same seed always yields
the same jobs.

Random ideals and presentations are drawn once from fixed generator
seeds and only relabelled by the run seed: the brute-force standard-pair
search costs anywhere from 0.01 s to 4 s on ideals of one shape, so
fresh draws per seed would make the seed, not the program, set the
timings. A relabelling changes the input without changing its size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import verify

LETTERS = "abcdefghkmnpqrstuvw"


@dataclass
class Job:
    name: str
    command: str
    doc: dict
    args: list[str] = field(default_factory=list)
    check: Callable[[dict], str | None] = lambda doc: None
    # a wrong answer the ROADMAP already lists as a defect of the program
    known_defect: str | None = None


def _names(rng: random.Random, n: int) -> list[str]:
    return rng.sample(LETTERS, n)


def _mono(exps, names) -> str:
    parts = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def _matrix_job(rng, name, command, matrix, args=(), check=None) -> Job:
    names = _names(rng, len(matrix[0]))
    doc = {"matrix": matrix, "variables": names}
    job = Job(name, command, doc, list(args))
    if check is not None:
        job.check = lambda out, names=names: check(out, names)
    return job


def _curve(a: list[int]) -> list[list[int]]:
    return [[1] * len(a), list(a)]


# --- rank_jump ---

A35 = [[1, 1, 1, 1, 1], [0, 0, 1, 1, 0], [0, 1, 1, 0, -2]]
ST = [0, 1, 3, 4]
# Extra seeded check-beta jobs. They put the median job on the A35 checks
# (about 1 s each) and keep the one timeout under a tenth of the jobs, so
# cli.job_s.p90 measures finished work rather than the time limit.
A35_EXTRA_BETAS = 6


def rank_jump(seed: int) -> list[Job]:
    rng = random.Random(f"rank_jump:{seed}")
    a35_vol = verify.shoelace_volume(list(zip(A35[1], A35[2])))
    jobs = [
        # the rank of A35 jumps exactly on the line (0,0,1) + C(1,0,-2)
        _matrix_job(rng, "a35_check_beta", "check-beta", A35, ["--", "0,0,1"],
                    lambda d, n: verify.check_status(d, "RANK-JUMP", a35_vol)),
        _matrix_job(rng, "st_check_beta", "check-beta", _curve(ST), ["--", "1,2"],
                    lambda d, n: verify.check_status(d, "RANK-JUMP", max(ST) - min(ST))),
    ]
    # seeded degrees for A35: the rank jumps exactly on its exceptional line
    for i in range(A35_EXTRA_BETAS):
        t = rng.randint(-3, 3)
        off = 0 if i % 2 == 0 else rng.choice([-2, -1, 1, 2])
        beta = (t, off, 1 - 2 * t)
        status = "EXPECTED-RANK" if off else "RANK-JUMP"
        jobs.append(_matrix_job(rng, f"a35_check_beta_{i}", "check-beta", A35, ["--", ",".join(map(str, beta))],
                                lambda d, n, s=status: verify.check_status(d, s, a35_vol)))
    # the other half of the rank-jump test: vol(A) and I_A, the latter in
    # lex order, which re-converts the saturated basis
    jobs.append(_matrix_job(rng, "a35_volume", "volume", A35,
                            check=lambda d, n: verify.check_volume(d, a35_vol)))
    jobs.append(_matrix_job(rng, "a35_toric_lex", "toric", A35, ["--order", "lex"],
                            lambda d, n: verify.check_toric(d, A35, n)))
    for name, a in [
        ("st_qlc", ST),
        ("quartic_qlc", [0, 1, 2, 3, 4]),
        ("gap5_qlc", [0, 1, 3, 4, 5]),
        ("quintic_qlc", [0, 1, 2, 3, 4, 5]),
    ]:
        jobs.append(_matrix_job(rng, name, "qlc", _curve(a),
                                check=lambda d, n, a=a: verify.check_curve_qlc(d, a)))
    # R/<xy, xz>: depth 1 < dim 2, so H^1 is nonzero, with 0 among its degrees
    names = _names(rng, 3)
    x, y, z = names
    jobs.append(Job(
        "xyxz_qlc", "qlc",
        {"variables": names, "grading": "standard", "ideal": [f"{x}*{y}", f"{x}*{z}"]},
        check=lambda d: verify.check_point_in(d, (0,)),
        known_defect="qlc_total sums H^i only below the grading rank",
    ))
    rng.shuffle(jobs)
    return jobs


# --- monomial ---


def _random_ideal(rng, nvars, ngens, emax):
    while True:
        gens = [tuple(rng.randint(0, emax) for _ in range(nvars)) for _ in range(ngens)]
        if all(sum(g) >= 2 for g in gens):
            return gens


# (label, nvars, ngens, emax, generator seed); drawn once, relabelled per run
# The 4-variable ideals each take about 0.1 s, so the median job of the
# workload falls among them whatever the relabelling.
STD_PAIRS_CORPUS = [
    ("std4_a", 4, 5, 4, 4), ("std4_b", 4, 5, 4, 9), ("std4_c", 4, 5, 4, 11),
    ("std4_d", 4, 5, 4, 17), ("std4_e", 4, 5, 4, 29), ("std5_a", 5, 6, 4, 7),
    ("std5_b", 5, 6, 4, 8), ("std5_c", 5, 6, 4, 13),
]
STD6_CORPUS = ("std6", 6, 7, 4, 0)
QDEG_CORPUS = [
    ("qdeg_a", 2, 11), ("qdeg_b", 3, 12), ("qdeg_c", 3, 13),
    ("qdeg_d", 2, 14), ("qdeg_e", 3, 15), ("qdeg_f", 2, 16),
]
QDEG_GRADING = [[1, 1, 1, 1], [0, 1, 2, 3]]


def _relabel(rng, gens, nvars):
    perm = list(range(nvars))
    rng.shuffle(perm)
    return [tuple(g[perm[i]] for i in range(nvars)) for g in gens]


def _std_pairs_job(rng, name, gens, nvars) -> Job:
    names = _names(rng, nvars)
    doc = {"variables": names, "ideal": [_mono(g, names) for g in gens]}
    return Job(name, "std-pairs", doc,
               check=lambda d: verify.check_std_pairs(d, gens, nvars))


def monomial(seed: int) -> list[Job]:
    rng = random.Random(f"monomial:{seed}")
    jobs = []
    d = rng.randint(-2, 2)
    jobs.append(_std_pairs_job(rng, "principal", [(30 + d, 30 - d)], 2))
    for label, nvars, ngens, emax, gseed in STD_PAIRS_CORPUS + [STD6_CORPUS]:
        base = _random_ideal(random.Random(gseed), nvars, ngens, emax)
        gens = _relabel(rng, base, nvars)
        jobs.append(_std_pairs_job(rng, label, gens, nvars))
    for label, nrows, gseed in QDEG_CORPUS:
        grng = random.Random(gseed)
        base_rows = [
            ([grng.randint(0, 2), grng.randint(0, 3)], _random_ideal(grng, 4, 3, 3))
            for _ in range(nrows)
        ]
        perm = list(range(4))
        rng.shuffle(perm)
        grading = [[row[perm[i]] for i in range(4)] for row in QDEG_GRADING]
        rows = [(shift, [tuple(g[perm[i]] for i in range(4)) for g in gens]) for shift, gens in base_rows]
        names = _names(rng, 4)
        matrix = []
        for k, (_, gens) in enumerate(rows):
            line = []
            for kk, (_, other) in enumerate(rows):
                line += [_mono(g, names) if kk == k else "0" for g in other]
            matrix.append(line)
        doc = {
            "variables": names,
            "grading": {"matrix": grading},
            "presentation": {"shifts": [s for s, _ in rows], "matrix": matrix},
        }
        jobs.append(Job(label, "qdeg", doc, ["--reduce"],
                        check=lambda out, rows=rows, grading=grading: verify.check_split_qdeg(out, rows, grading)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"rank_jump": rank_jump, "monomial": monomial}

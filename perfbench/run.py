"""Benchmark of the quasidegrees command line, end to end and per layer.

    python3 perfbench/run.py --workload rank_jump --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The package is imported from ``src``,
and the CLI (``quasidegrees.cli.main``) runs in this process: one client,
a closed loop, no threads. Job files are generated from the seed under
``.bench_build/perfbench``; the program sees only those files. Every
answer is checked by ``verify``, which shares no code with the package.

A pass runs every job of the workload once, with a per-job time limit; a
timed-out job counts at the limit. Passes repeat until ``--seconds`` have
elapsed. ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs
two plain passes and then at least two traced passes, reports the
per-layer metrics, writes the spans next to the job files, and fails the
run (``correct: false``) when two traced passes disagree on any count or
when a predicted zero is not zero.

The last line of stdout is one JSON object: correct, attempted (job
executions), failed (timeouts, errors and wrong answers) and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS

# Above every job that finishes at the seed commit (the slowest, x^a*y^b
# std-pairs, takes 3-4.5 s) and well below the two that do not. The
# rational normal quintic's memory stays near 125 MB from 4 s to 9 s and
# then climbs fast, so a limit in that window keeps the peak steady.
JOB_LIMIT_S = 8.0
# stop starting passes once one more could end past this point
RUN_BUDGET_S = 150.0
SETUP_REPEATS = 7
SUBCOMMANDS = ["std-pairs", "qdeg", "toric", "volume", "qlc", "check-beta"]
# layers a workload must never reach: monomial input needs no Groebner basis
PREDICTED_ZEROS = {"monomial": ("homology.", "groebner.")}
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import quasidegrees.cli as cli\n"
    "cli.make_parser()\n"
    "print(time.perf_counter() - t)\n"
)


class JobTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so the CLI cannot catch it."""


def _alarm(signum, frame):
    raise JobTimeout()


def layer_metric_names() -> list[str]:
    names = []
    for layer in tracing.TRACED:
        names += [layer + ".calls", layer + ".self_s"]
        names += [f"{layer}.{k}" for k in tracing.SIZES.get(layer, {})]
    names.append("cli.job_load.s")
    names += [f"cli.cmd.{c.replace('-', '_')}.s" for c in SUBCOMMANDS]
    names += ["cli.job_s.p50", "cli.job_s.p90"]
    names += ["cli.timeouts", "cli.wrong_answers", "cli.errors", "cli.failed_share"]
    names += ["trace.wall_s", "trace.overhead_s"]
    return names


def unit(name: str) -> str:
    if name.endswith("_share"):
        return "share"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(("_s", ".s")) or "job_s." in name:
        return "s"
    return "count"


def measure_setup(root: Path) -> float:
    """Median time for a fresh interpreter to import the CLI and build its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:  # the first run compiles the bytecode cache
            times.append(float(proc.stdout))
    return statistics.median(times)


class Runner:
    def __init__(self, cli_main, jobs, paths):
        self.cli_main = cli_main
        self.jobs = jobs
        self.paths = paths
        self.unexpected_wrong: list[str] = []
        self.messages: list[str] = []

    def run_job(self, k: int) -> tuple[float, str]:
        """Run job k once; returns (seconds, outcome)."""
        job = self.jobs[k]
        argv = [job.command, self.paths[k], "--format", "machine", *job.args]
        out, err = io.StringIO(), io.StringIO()
        code = None
        outcome = "ok"
        saved = sys.stdout, sys.stderr
        start = time.perf_counter()
        try:
            sys.stdout, sys.stderr = out, err
            signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
            try:
                code = self.cli_main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            outcome = "timeout"
        except (Exception, SystemExit) as exc:
            outcome = "error"
            err.write(f"{type(exc).__name__}: {exc}")
        finally:
            sys.stdout, sys.stderr = saved
        seconds = time.perf_counter() - start
        if outcome == "timeout":
            return JOB_LIMIT_S, outcome
        if outcome == "ok" and code != 0:
            outcome = "error"
        if outcome == "error":
            self.messages.append(f"{job.name}: exit {code}: {err.getvalue().strip()[:200]}")
            return seconds, outcome
        try:
            reason = job.check(json.loads(out.getvalue()))
        except Exception as exc:  # a malformed document is a wrong answer
            reason = f"unreadable answer: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.messages.append(f"{job.name}: wrong: {reason}")
            if job.known_defect is None:
                self.unexpected_wrong.append(job.name)
            return seconds, "wrong"
        return seconds, "ok"

    def run_pass(self, tracer=None) -> list[tuple[int, float, str]]:
        results = []
        for k in range(len(self.jobs)):
            if tracer is not None:
                tracer.job = k
            seconds, outcome = self.run_job(k)
            if tracer is not None:
                tracer.reset()
            # free what an interrupted job left in reference cycles, so one
            # job's garbage neither raises the next one's memory peak nor
            # lands in its time
            gc.collect()
            results.append((k, seconds, outcome))
        return results


def pass_wall(results) -> float:
    return sum(s for _, s, _ in results)


def outcome_counts(results) -> dict[str, int]:
    counts = {"timeout": 0, "wrong": 0, "error": 0}
    for _, _, outcome in results:
        if outcome in counts:
            counts[outcome] += 1
    return counts


def end_to_end(passes, setup_s) -> dict[str, float]:
    attempted = sum(len(r) for r in passes)
    failed = sum(1 for r in passes for _, _, o in r if o != "ok")
    return {
        "wall_s": statistics.median(pass_wall(r) for r in passes),
        "verified_share": 1 - failed / attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(runner, workload, plain, traced, tracers) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the self-test findings."""
    problems = []
    stats = []
    for results, tracer in zip(traced, tracers):
        finished = {k for k, _, outcome in results if outcome != "timeout"}
        stats.append(tracer.layer_stats(finished))
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in stats]
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            diff = sorted(k for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k))
            problems.append(f"traced pass {i} counts differ from pass 0 on {diff}")
    for tracer in tracers:
        for layer, calls in tracer.calls_by_layer().items():
            if calls and layer.startswith(PREDICTED_ZEROS.get(workload, ())):
                problems.append(f"{layer} called {calls} times on {workload}, predicted 0")
    metrics: dict[str, float] = {}
    for name in layer_metric_names():
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(s.get(name, 0.0) for s in stats)
        elif name.startswith(tuple(tracing.TRACED)):
            metrics[name] = counts[0].get(name, 0)
    metrics["cli.job_load.s"] = statistics.median(s.get("cli.job_load.self_s", 0.0) for s in stats)
    for command in SUBCOMMANDS:
        metrics[f"cli.cmd.{command.replace('-', '_')}.s"] = statistics.median(
            sum(s for k, s, _ in r if runner.jobs[k].command == command) for r in plain
        )
    samples = [s for r in plain for _, s, _ in r]
    metrics["cli.job_s.p50"] = statistics.median(samples)
    metrics["cli.job_s.p90"] = statistics.quantiles(samples, n=10)[-1]
    oc = outcome_counts(plain[0])
    metrics["cli.timeouts"] = oc["timeout"]
    metrics["cli.wrong_answers"] = oc["wrong"]
    metrics["cli.errors"] = oc["error"]
    metrics["cli.failed_share"] = sum(oc.values()) / len(plain[0])
    metrics["trace.wall_s"] = statistics.median(pass_wall(r) for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(pass_wall(r) for r in plain)
    return metrics, problems


def write_spans(path: Path, tracers) -> None:
    with open(path, "w") as fh:
        for p, tracer in enumerate(tracers):
            for span in tracer.spans:
                if span is not None:
                    name, start, end, parent, job = span
                    fh.write(json.dumps([p, name, start, end, parent, job]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "quasidegrees" / "cli.py").is_file():
        print(f"error: no package source under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from quasidegrees import cli

    setup_s = None if args.trace else measure_setup(root)
    jobs = WORKLOADS[args.workload](args.seed)
    out_dir = root / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, job in enumerate(jobs):
        path = out_dir / f"{k:02d}-{job.name}.json"
        path.write_text(json.dumps(job.doc, indent=1))
        paths.append(str(path))
    runner = Runner(cli.main, jobs, paths)
    signal.signal(signal.SIGALRM, _alarm)

    begin = time.perf_counter()

    def more(done: int, least: int, last: float) -> bool:
        elapsed = time.perf_counter() - begin
        if done < least:
            return True
        return elapsed < args.seconds and elapsed + last < RUN_BUDGET_S

    problems: list[str] = []
    if args.trace:
        plain = [runner.run_pass() for _ in range(2)]
        traced, tracers = [], []
        while more(len(traced), 2, pass_wall(plain[-1])):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        passes = plain + traced
        metrics, problems = per_layer(runner, args.workload, plain, traced, tracers)
        write_spans(out_dir / "spans.jsonl", tracers)
    else:
        passes = []
        while more(len(passes), 2, pass_wall(passes[-1]) if passes else 0.0):
            passes.append(runner.run_pass())
        metrics = end_to_end(passes, setup_s)

    for k, job in enumerate(jobs):
        times = [r[k][1] for r in passes]
        outcomes = sorted({r[k][2] for r in passes})
        print(f"{job.command:10s} {job.name:20s} {statistics.median(times):8.3f} s  {'/'.join(outcomes)}",
              file=sys.stderr)
    for line in sorted(set(runner.messages)) + problems:
        print(line, file=sys.stderr)
    attempted = sum(len(r) for r in passes)
    failed = sum(1 for r in passes for _, _, o in r if o != "ok")
    result = {
        "correct": not runner.unexpected_wrong and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

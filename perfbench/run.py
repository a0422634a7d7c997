"""Benchmark of ptsskit: time from CLI input to checked verdict or PTS.

    python3 perfbench/run.py --workload {chains,bisim,corpus} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a ptsskit checkout.  It is a closed loop with one
client and no threads of its own, pinned to one CPU: each job calls
`ptsskit.cli.main(argv)` in this process, with stdout captured, and the
next job starts when the previous one has returned.  Every output is
checked against an answer the benchmark derives itself (see workloads.py)
and against the output digest recorded at the seed commit
(data/digests.json).

`--seconds` sets the amount of work: round(S / round_s) rounds of the
workload's job mix, and no fewer than the workload's min_rounds, where
round_s is the time of one round at the seed commit.  A run of the seed
commit lasts about S seconds; a faster program finishes sooner, and both
measure the same jobs.

Every time is reported in reference seconds (speed.py): the wall time
scaled by the speed of fixed probes run before, during and after it, so
that the drifting speed of a shared host cancels out.  The wall-time
figures are printed on a line of their own before the result.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
the first round runs untraced, traced (tracer.py) and untraced again, and
the result holds the per-layer metrics of the traced pass; its spans are
written to .perfbench/trace/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from speed import REFERENCE_S, Speedometer
from tracer import Tracer, per_layer_units
from workloads import ROOT, WORKLOADS, Group, Job, Workload, draw, load_digests, round_jobs, sha, write_inputs

SETUP_RUNS = 8  # fresh interpreters per run, spread over its rounds; setup_s is their median
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many jobs beyond it
CAP_S = 140.0  # start no job after this long, so that a run ends within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

# Prints the time it took to import the CLI and read the inputs, and then
# the median of three probes of its own speed (speed.py).
SETUP_CODE = """
import sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, "src")
import ptsskit.cli
for name in sys.argv[1:]:
    with open(name, encoding="utf-8") as f:
        f.read()
ready = perf_counter()
sys.path.insert(0, "perfbench")
from speed import probe
print(ready - start, sorted(probe() for _ in range(3))[1])
"""


@dataclass
class Outcome:
    job: Job
    seconds: float  # reference seconds (speed.py)
    wall_s: float
    out: str
    error: Optional[str]


def run_job(
    cli: Any, job: Job, meter: Optional[Speedometer] = None
) -> tuple[float, Optional[int], str, Optional[str]]:
    """(seconds, exit code, stdout, crash) of one call of the CLI entry,
    with the meter's ticks running during the call."""
    out = io.StringIO()
    gc.collect()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()), meter or nullcontext():
            code = cli.main(job.argv)  # looked up per call, so a tracer's wrapper is used
        crash = None
    except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
        code, crash = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, code, out.getvalue(), crash


def judge(job: Job, code: Optional[int], out: str, crash: Optional[str], digests: dict[str, str]) -> Optional[str]:
    if crash is not None:
        return crash
    error = job.check(code, out)
    if error is not None:
        return error
    recorded = digests.get(job.key)
    if recorded is None:
        return "no recorded output digest"
    try:
        if sha(job.digest_of(out)) != recorded:
            return "output digest differs from the one recorded at the seed commit"
    except ValueError as exc:
        return f"digest: {exc}"
    return None


def run_rounds(
    cli: Any,
    plan: list[list[Group]],
    seed: int,
    digests: dict[str, str],
    deadline: float,
    tracer: Optional[Tracer] = None,
    before_round: Callable[[int], None] = lambda index: None,
) -> list[Outcome]:
    """Run the plan's jobs and judge them.  The traced pass gets no ticks
    during its jobs (speed.py), so that its spans hold only the program."""
    outcomes: list[Outcome] = []
    stopped = False
    for index, groups in enumerate(plan):
        before_round(index)
        gc.collect()
        meter = Speedometer()
        meter.probe()
        done: dict[str, Outcome] = {}
        for job in round_jobs(groups, seed, index):
            if perf_counter() > deadline:
                print(f"perfbench: stopped after {len(outcomes)} jobs at the time cap", file=sys.stderr)
                stopped = True
                break
            meter = Speedometer(meter.speeds[-1:])  # the probe after the last job
            if tracer is not None:
                tracer.job_id = len(outcomes)
            wall_s, code, out, crash = run_job(cli, job, meter if tracer is None else None)
            gc.collect()
            meter.probe()
            error = judge(job, code, out, crash, digests)
            outcome = Outcome(job, meter.scaled(wall_s), wall_s, out, error)
            outcomes.append(outcome)
            done[job.key] = outcome
        if stopped:
            break
        for g in groups:
            if g.check is None or any(j.key not in done for j in g.jobs):
                continue
            error = g.check({j.key: done[j.key].out for j in g.jobs})
            last = done[g.jobs[-1].key]
            if error is not None and last.error is None:
                last.error = error
    return outcomes


def measure_setup(files: list[str]) -> tuple[float, float]:
    """Time, in reference and in wall seconds, that a fresh interpreter takes
    to import ptsskit.cli and read the workload's input files, as a CLI user
    pays before any work."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *files], cwd=ROOT, check=True, capture_output=True, text=True
    )
    wall_s, probe_s = map(float, proc.stdout.split())
    return Speedometer([REFERENCE_S / probe_s]).scaled(wall_s), wall_s


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of `times` with
    TAIL_BEYOND values beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def failures(outcomes: list[Outcome]) -> int:
    return sum(o.error is not None for o in outcomes)


def report_failures(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        if o.error is not None:
            print(f"perfbench: FAILED {o.job.key} {' '.join(o.job.argv)}: {o.error}", file=sys.stderr)


def p50(outcomes: list[Outcome], wall: bool = False) -> float:
    """Median over distinct jobs of each job's median time: the plain median
    when every job runs once (chains, bisim).  The corpus repeats its files,
    and the plain median of all its jobs would fall between the copies of
    the two middle files and jump with the noise of single 5-50 ms jobs."""
    by_job: dict[str, list[float]] = {}
    for o in outcomes:
        by_job.setdefault(o.job.key, []).append(o.wall_s if wall else o.seconds)
    return statistics.median(statistics.median(ts) for ts in by_job.values())


def summarize(outcomes: list[Outcome]) -> None:
    """One line before the result: the failure share and a hash of every
    job's stdout, which must not depend on PYTHONHASHSEED."""
    failed = failures(outcomes)
    print(
        f"jobs={len(outcomes)} failed={failed} failed_frac={failed / len(outcomes):.4f} "
        f"outputs_sha256={sha(''.join(o.out for o in outcomes))}"
    )


def end_to_end(outcomes: list[Outcome], setup_s: float, setup_wall_s: float) -> dict[str, float]:
    times = [o.seconds for o in outcomes]
    value, pct = tail(times)
    walls = [o.wall_s for o in outcomes]
    print(f"job_tail_s is p{pct:.1f} of {len(times)} jobs, with {TAIL_BEYOND} jobs beyond it")
    print(
        f"in wall seconds: setup_s={setup_wall_s:.4f} job_p50_s={p50(outcomes, wall=True):.4f} "
        f"job_tail_s={tail(walls)[0]:.4f} jobs_per_s={len(walls) / sum(walls):.4f}"
    )
    return {
        "setup_s": setup_s,
        "job_p50_s": p50(outcomes),
        "job_tail_s": value,
        "jobs_per_s": len(times) / sum(times),
        "ok_frac": 1.0 - failures(outcomes) / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny round, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ptsskit" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: {ROOT} holds no ptsskit checkout (src/ptsskit, corpus/)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # One CPU for this process, its threads and its set-up interpreters: the
    # host's speed phases differ between CPUs, and the probes (speed.py) must
    # run where the job runs, also when corpus-run runs it on a worker thread.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("ptsskit.cli")

    wl: Workload = WORKLOADS[args.workload]
    rounds = 1 if args.smoke or args.trace else max(wl.min_rounds, round(args.seconds / wl.round_s))
    plan = draw(wl, args.seed, rounds, smoke=args.smoke)
    write_inputs([g for groups in plan for g in groups])
    digests = load_digests()
    deadline = perf_counter() + CAP_S

    if args.trace:
        # untraced, traced, untraced again: the mean of the two untraced
        # passes cancels the warm-up of the first one and any drift
        before = run_rounds(cli, plan, args.seed, digests, deadline)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(cli, plan, args.seed, digests, deadline, tracer)
        finally:
            tracer.uninstall()
        after = run_rounds(cli, plan, args.seed, digests, deadline)
        plain = before + after
        outcomes = plain + traced
        values: dict[str, Optional[float]] = dict(tracer.metrics())
        plain_s = sum(o.seconds for o in plain) / 2
        traced_s = sum(o.seconds for o in traced)
        values["trace.overhead_frac"] = 1.0 - plain_s / traced_s
        units = per_layer_units()
        spans = Path(".perfbench") / "trace" / f"{wl.name}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        print(f"spans={len(tracer.name)} written to {spans}")
    else:
        files = wl.fixed_inputs + [f for g in plan[0] for f in g.files]
        setups: list[tuple[float, float]] = []

        def before_round(index: int) -> None:
            # round i takes its share of SETUP_RUNS (the first at least one),
            # so that set-up is sampled across the run, not in one phase of it
            share = -(-SETUP_RUNS * (index + 1) // len(plan)) - -(-SETUP_RUNS * index // len(plan))
            setups.extend(measure_setup(files) for _ in range(share))

        outcomes = run_rounds(cli, plan, args.seed, digests, deadline, before_round=before_round)
        setup_s, setup_wall_s = (statistics.median(column) for column in zip(*setups))
        values = dict(end_to_end(outcomes, setup_s, setup_wall_s))
        units = END_TO_END_UNITS

    summarize(outcomes)
    report_failures(outcomes)
    failed = failures(outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

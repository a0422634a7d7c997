"""Time `decide("pbranching")` on the families and sizes the benchmark does not run.

    python3 tests/scale_pbranching.py

One line per size: wall time, `lp.feasible` calls and the class count.  The
plain family (`random_pts` of `tests/test_refine_oracle.py`, seed 1) comes
first, so that a run cut short by a timeout still prints it; then the same
systems stuttered (`stuttered_pts`, 3n + 2 states: each system beside a copy
whose states first take one inert tau-step, the shape of the benchmark's
bisim systems); then the tau chain of `tests/test_almost_sure.py`, whose
decision line also gives the time of its branching decision (every step is a
point mass, so pbranching takes the branching partition), with a line for
the pair p/q planted beside the chain, while one class holds almost
every state: the time and `lp.feasible` calls of one branching and one
pbranching NO witness.  Each stuttered and tau-chain size has a `witnesses`
line too: the total time and `lp.feasible` calls of each kind's NO witnesses
for SAMPLE pairs drawn with a fixed seed among the pairs that neither kind
relates, p/q left out, the median time of one of them (`median_us`) and the
time of each kind's `classes()` (`classes_us`).  Every witness line also gives
the largest and the total row count of its LPs (`rows.max`, `rows.total`).
Each system is built afresh and decided once per kind, in process;
information only, nothing is asserted.  A script, not a test module, so
pytest does not collect it."""

import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ptsskit import bisim, lp  # noqa: E402
from ptsskit.terms import render_term  # noqa: E402
from tests.test_almost_sure import PLANTED, tau_chain  # noqa: E402
from tests.test_refine_oracle import plain_pts, random_pts, stuttered_pts  # noqa: E402

PLAIN = (250, 500, 1000, 2000)
STUTTERED = (500, 1000, 2000)
TAU_CHAIN = (60, 120, 250, 500, 1000, 2000)


def counted(run):
    """The seconds `run()` takes and the calls it makes of `lp.feasible`,
    with each LP's row count under "rows", and its result."""
    calls = {"feasible": 0, "rows": []}
    feasible = lp.feasible

    def counting(rows, rhs):
        calls["feasible"] += 1
        calls["rows"].append(len(rows))
        return feasible(rows, rhs)

    lp.feasible = counting
    try:
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
    finally:
        lp.feasible = feasible
    return seconds, calls, result


SAMPLE = 12


def measure(family, n, pts, *extra):
    """Decide pbranching on `pts`, print its line, ending in `extra`, and return the decision."""
    seconds, calls, decision = counted(lambda: bisim.decide("pbranching", pts))
    print(f"{family} n={n} seconds={seconds:.3f} lp.feasible={calls['feasible']} classes={len(decision.classes())}",
          *extra, flush=True)
    return decision


def witness(decision, pairs):
    """The total and the median time, LP count and largest and total LP row
    count of the NO witnesses for `pairs`."""
    times = []

    def run():
        for s, t in pairs:
            start = time.perf_counter()
            decision.witness(s, t)
            times.append(time.perf_counter() - start)

    seconds, calls, _ = counted(run)
    rows = calls["rows"]
    return (f"{decision.kind}={seconds:.6f} median_us={statistics.median(times or [0]) * 1e6:.1f}"
            f" lp.feasible={calls['feasible']} rows.max={max(rows, default=0)} rows.total={sum(rows)}")


def classes_us(decision):
    """The microseconds `decision.classes()` takes."""
    start = time.perf_counter()
    decision.classes()
    return (time.perf_counter() - start) * 1e6


def witnesses(family, n, decisions):
    """Print the NO witnesses' line, a branching and a pbranching decision,
    of up to SAMPLE ordered pairs, drawn uniformly with a fixed seed, that
    neither kind relates."""
    rng = random.Random(f"witnesses:{family}:{n}")
    states = [s for s in decisions[0].pts.states if render_term(s) not in ("p", "q")]
    pairs = []
    for _ in range(1000 * SAMPLE):  # bounded: on some sizes every pair is related
        s, t = rng.sample(states, 2)
        if not any(d.related(s, t) for d in decisions):
            pairs.append((s, t))
            if len(pairs) == SAMPLE:
                break
    print(f"{family} n={n} witnesses={len(pairs)}",
          *(f"{witness(d, pairs)} classes_us={classes_us(d):.0f}" for d in decisions), flush=True)


def main():
    for n in PLAIN:
        measure("plain", n, plain_pts(n, random_pts(random.Random(1), n)))
    for n in STUTTERED:
        pts = stuttered_pts(n, random_pts(random.Random(1), n))
        witnesses("stuttered", n, [bisim.decide("branching", pts), measure("stuttered", n, pts)])
    for n in TAU_CHAIN:
        pts = tau_chain(n)  # a system of its own, so that neither decision finds the other's index
        branching = counted(lambda: bisim.decide("branching", pts))[0]
        measure("tau-chain", n, tau_chain(n), f"branching.seconds={branching:.3f}")
        pts = tau_chain(n, PLANTED)
        decisions = [bisim.decide(kind, pts) for kind in ("branching", "pbranching")]
        planted = [tuple(s for s in pts.states if render_term(s) in ("p", "q"))]
        print(f"tau-chain n={n} witness", *(witness(d, planted) for d in decisions), flush=True)
        witnesses("tau-chain", n, decisions)


if __name__ == "__main__":
    main()

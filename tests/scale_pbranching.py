"""Time `decide("pbranching")` on the families and sizes the benchmark does not run.

    python3 tests/scale_pbranching.py

One line per size: wall time, `lp.feasible` calls and the class count.  The
plain family (`random_pts` of `tests/test_refine_oracle.py`, seed 1) comes
first, so that a run cut short by a timeout still prints it; then the same
systems stuttered (`stuttered_pts`, 3n + 2 states: each system beside a copy
whose states first take one inert tau-step, the shape of the benchmark's
bisim systems); then the tau chain of `tests/test_almost_sure.py`, with a
second line per size: the time and `lp.feasible` calls of one branching and
one pbranching NO witness for the pair p/q planted beside the chain, while
one class holds almost every state.  Each system is built afresh and decided
once per kind, in process; information only, nothing is asserted.  A script,
not a test module, so pytest does not collect it."""

import pathlib
import random
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
    """The seconds `run()` takes and the `lp.feasible` calls it makes, with
    its result."""
    calls = 0
    feasible = lp.feasible

    def counting(rows, rhs):
        nonlocal calls
        calls += 1
        return feasible(rows, rhs)

    lp.feasible = counting
    try:
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
    finally:
        lp.feasible = feasible
    return seconds, calls, result


def measure(family, n, pts):
    seconds, calls, classes = counted(lambda: bisim.decide("pbranching", pts).classes())
    print(f"{family} n={n} seconds={seconds:.3f} lp.feasible={calls} classes={len(classes)}", flush=True)


def witness(decision):
    """The time and LP count of the NO witness for the planted pair."""
    s, t = (state for state in decision.pts.states if render_term(state) in ("p", "q"))
    seconds, calls, _ = counted(lambda: decision.witness(s, t))
    return f"{decision.kind}={seconds:.3f} lp.feasible={calls}"


def main():
    for n in PLAIN:
        measure("plain", n, plain_pts(n, random_pts(random.Random(1), n)))
    for n in STUTTERED:
        measure("stuttered", n, stuttered_pts(n, random_pts(random.Random(1), n)))
    for n in TAU_CHAIN:
        measure("tau-chain", n, tau_chain(n))
        pts = tau_chain(n, PLANTED)
        print(f"tau-chain n={n} witness", *(witness(bisim.decide(kind, pts)) for kind in ("branching", "pbranching")),
              flush=True)


if __name__ == "__main__":
    main()

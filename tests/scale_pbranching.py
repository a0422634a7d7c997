"""Time `decide("pbranching")` on the families the benchmark does not run.

    python3 tests/scale_pbranching.py

One line per size: wall time, `lp.feasible` calls and the class count.  The
plain family (`random_pts` of `tests/test_refine_oracle.py`, seed 1) comes
first, so that a run cut short by a timeout still prints it; then the tau
chain of `tests/test_almost_sure.py`.  Each system is built afresh and
decided once, in process; information only, nothing is asserted.  A script,
not a test module, so pytest does not collect it."""

import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ptsskit import bisim, lp  # noqa: E402
from tests.test_almost_sure import tau_chain  # noqa: E402
from tests.test_refine_oracle import plain_pts, random_pts  # noqa: E402

PLAIN = (250, 500, 1000, 2000)
TAU_CHAIN = (60, 120, 250, 500, 1000)


def measure(family, n, pts):
    calls = 0
    feasible = lp.feasible

    def counting(rows, rhs):
        nonlocal calls
        calls += 1
        return feasible(rows, rhs)

    lp.feasible = counting
    try:
        start = time.perf_counter()
        classes = bisim.decide("pbranching", pts).classes()
        seconds = time.perf_counter() - start
    finally:
        lp.feasible = feasible
    print(f"{family} n={n} seconds={seconds:.3f} lp.feasible={calls} classes={len(classes)}", flush=True)


def main():
    for n in PLAIN:
        measure("plain", n, plain_pts(n, random_pts(random.Random(1), n)))
    for n in TAU_CHAIN:
        measure("tau-chain", n, tau_chain(n))


if __name__ == "__main__":
    main()

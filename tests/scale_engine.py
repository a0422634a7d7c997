"""Time the rule engine on product state spaces.

    python3 tests/scale_engine.py

One line per family and size: the median, in seconds, of ROUNDS calls of
`reachable_pts`, each after `gc.collect()`, and the sizes of the closed
universe and of the PTS.  The families: the k-fold `par` of `COMPONENT` under
`PRODUCT_SPEC` (`tests/test_index.py`); `th` of that product, where `th`
copies the steps of its argument and lets an a- or tau-step through only if
the argument has no b-step (`x -/b->`); and its twin, `th` without those
negative premises.  Information only, nothing is asserted.  A script, not a
test module, so pytest does not collect it."""

import gc
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ptsskit.engine import DomainBound, _closed_universe, reachable_pts  # noqa: E402
from ptsskit.parser import parse_spec, parse_term  # noqa: E402
from tests.test_index import COMPONENT, PRODUCT_SPEC  # noqa: E402

ROUNDS = 3
TH_SPEC = PRODUCT_SPEC.replace("rule prefix", "op th : s -> s\nrule prefix") + (
    "rule th_b: x --b-> mu |- th(x) --b-> ^th(mu)\n"
    "rule th_a: x --a-> mu, x -/b-> |- th(x) --a-> ^th(mu)\n"
    "rule th_t: x --tau-> mu, x -/b-> |- th(x) --tau-> ^th(mu)\n"
)
FAMILIES = [  # name, spec, root around the k-fold product, sizes
    ("product", PRODUCT_SPEC, "{}", (6, 7)),
    ("th", TH_SPEC, "th({})", (5, 6)),
    ("th-twin", TH_SPEC.replace(", x -/b->", ""), "th({})", (5, 6)),
]


def product(k):
    root = COMPONENT
    for _ in range(k - 1):
        root = f"par({COMPONENT},{root})"
    return root


def main():
    for name, text, shape, sizes in FAMILIES:
        spec = parse_spec(text)
        for k in sizes:
            bound = DomainBound((parse_term(shape.format(product(k)), spec.signature),), max_depth=64, max_states=100000)
            times = []
            for _ in range(ROUNDS):
                gc.collect()
                start = time.perf_counter()
                pts = reachable_pts(spec, bound)
                times.append(time.perf_counter() - start)
            universe, _ = _closed_universe(spec, bound)
            print(f"reachable_pts {name} k={k} s={statistics.median(times):.3f} universe={len(universe)} "
                  f"states={len(pts.states)}", flush=True)


if __name__ == "__main__":
    main()

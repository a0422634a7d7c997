"""Time the front end on the inputs the benchmark reads.

    python3 tests/scale_front.py

One line per input: the median, in microseconds, of ROUNDS calls, each
after `gc.collect()` as every benchmark job starts.  First `try_parse_spec`
on each corpus `.ptss` file, then `parse_term` on one `--root` text of each
chains size (drawn by `perfbench/workloads.py`, over the signature of
`corpus/running.ptss`), then `load_pts` on the first `br` text of the bisim
workload.  Information only, nothing is asserted.  A script, not a test
module, so pytest does not collect it."""

import gc
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import bisim_catalogue, chains_catalogue  # noqa: E402
from ptsskit.engine import load_pts  # noqa: E402
from ptsskit.parser import parse_spec, parse_term, try_parse_spec  # noqa: E402

ROUNDS = 200
SEED = 7


def median_us(call):
    times = []
    for _ in range(ROUNDS):
        gc.collect()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def main():
    for path in sorted((ROOT / "corpus").glob("*.ptss")):
        text = path.read_text()
        print(f"try_parse_spec {path.name} us={median_us(lambda: try_parse_spec(text)):.1f}", flush=True)
    sig = parse_spec((ROOT / "corpus" / "running.ptss").read_text()).signature
    for size, groups in sorted(chains_catalogue(SEED).items()):
        root = groups[0].jobs[0].argv[3]
        print(f"parse_term chains {size} us={median_us(lambda: parse_term(root, sig)):.1f}", flush=True)
    group = bisim_catalogue(SEED)["br"][0]
    (text,) = group.files.values()
    print(f"load_pts {group.key} us={median_us(lambda: load_pts(text)):.1f}", flush=True)


if __name__ == "__main__":
    main()

"""Time `corpus-run` in process on each corpus file, and the share of that time
spent in the library.

    python3 tests/scale_cli.py

One line per corpus file, copied alone into a directory as each benchmark
corpus job runs it: the median, in microseconds, of ROUNDS calls of
`cli.main(["corpus-run", <dir>, "--json"])`, each after `gc.collect()`, its
output discarded; beside it the median time of the same calls spent in the
library functions `cli` imports, each wrapped in `cli`'s namespace from
outside, the rest (`outside_us`: the CLI's own work, with `parse_term` and
a decision's queries, which `cli` reaches by other names) and each
function's own median.  Information only, nothing is asserted.  A script,
not a test module, so pytest does not collect it."""

import contextlib
import gc
import io
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ptsskit import cli  # noqa: E402

ROUNDS = 50
LIBRARY = ("parse_spec", "load_pts", "check_format", "is_complete", "reachable_pts", "decide", "congruence_probe")


def timed(name, spent):
    """`cli.<name>`, adding the seconds of each call to `spent[name]`."""
    call = getattr(cli, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start

    return wrapper


def main():
    spent = dict.fromkeys(LIBRARY, 0.0)
    originals = {name: getattr(cli, name) for name in LIBRARY}
    for name in LIBRARY:
        setattr(cli, name, timed(name, spent))
    try:
        for path in sorted(p for p in (ROOT / "corpus").iterdir() if p.suffix in (".pts", ".ptss")):
            with tempfile.TemporaryDirectory() as directory:
                shutil.copy(path, directory)
                runs = []
                for _ in range(ROUNDS):
                    spent.update(dict.fromkeys(LIBRARY, 0.0))
                    gc.collect()
                    with contextlib.redirect_stdout(io.StringIO()):
                        start = time.perf_counter()
                        cli.main(["corpus-run", directory, "--json"])
                        total = time.perf_counter() - start
                    runs.append((total, dict(spent)))
            us = {name: statistics.median(run[1][name] for run in runs) * 1e6 for name in LIBRARY}
            total_us = statistics.median(run[0] for run in runs) * 1e6
            library_us = statistics.median(sum(run[1].values()) for run in runs) * 1e6
            outside_us = statistics.median(run[0] - sum(run[1].values()) for run in runs) * 1e6
            calls = " ".join(f"{name}={value:.1f}" for name, value in us.items() if value)
            print(f"corpus-run {path.name} us={total_us:.1f} library_us={library_us:.1f} "
                  f"outside_us={outside_us:.1f} {calls}", flush=True)
    finally:
        for name, call in originals.items():
            setattr(cli, name, call)


if __name__ == "__main__":
    main()

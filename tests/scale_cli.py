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
function's own median.  A last line does the same for a generated `.pts`
file of EXPECTS `# expect bisim` lines, so that the evaluator's cost per
expectation line shows.  Information only, nothing is asserted.  A script,
not a test module, so pytest does not collect it."""

import contextlib
import gc
import io
import itertools
import pathlib
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ptsskit import cli  # noqa: E402
from ptsskit.bisim import KINDS  # noqa: E402

ROUNDS = 50
EXPECTS = 400
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


def many_expectations():
    """tau_tree.pts headed by EXPECTS `# expect bisim` lines, each kind and pair
    of its states in turn; their answers are not checked."""
    text = (ROOT / "corpus" / "tau_tree.pts").read_bytes()
    states = [line.split()[1].decode() for line in text.splitlines() if line.startswith(b"state ")]
    questions = itertools.islice(itertools.cycle([(k, s, t) for k in KINDS for s in states for t in states]), EXPECTS)
    return "".join(f"# expect bisim {k} {s} {t}: yes\n" for k, s, t in questions).encode() + text


def main():
    spent = dict.fromkeys(LIBRARY, 0.0)
    originals = {name: getattr(cli, name) for name in LIBRARY}
    for name in LIBRARY:
        setattr(cli, name, timed(name, spent))
    try:
        files = [(p.name, p.read_bytes()) for p in sorted((ROOT / "corpus").iterdir()) if p.suffix in (".pts", ".ptss")]
        for name, text in files + [(f"expect_{EXPECTS}.pts", many_expectations())]:
            with tempfile.TemporaryDirectory() as directory:
                (pathlib.Path(directory) / name).write_bytes(text)
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
            print(f"corpus-run {name} us={total_us:.1f} library_us={library_us:.1f} "
                  f"outside_us={outside_us:.1f} {calls}", flush=True)
    finally:
        for name, call in originals.items():
            setattr(cli, name, call)


if __name__ == "__main__":
    main()

"""Record the output digest of every catalogue job into data/digests.json.

    python3 perfbench/record.py [workload ...]

Run it at the commit whose outputs are the reference; the benchmark then
fails any job whose output differs.  Every answer must pass its check first.
It also prints the mean job time per class, from which round_s is set.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

from run import run_job
from workloads import DIGESTS, ROOT, WORKLOADS, load_digests, sha, write_inputs


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("ptsskit.cli")
    digests = load_digests()
    bad = 0
    for name in argv or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        digests = {k: v for k, v in digests.items() if not k.startswith(f"{name}/")}
        round_s = 0.0
        for cls, groups in sorted(wl.catalogue(0).items()):
            write_inputs(groups)
            total = jobs = 0
            for g in groups:
                outputs = {}
                for job in g.jobs:
                    seconds, code, out, crash = run_job(cli, job)
                    error = crash or job.check(code, out)
                    if error is None:
                        digests[job.key] = sha(job.digest_of(out))
                    else:
                        print(f"{job.key}: {error}", file=sys.stderr)
                        bad += 1
                    outputs[job.key] = out
                    total += seconds
                    jobs += 1
                if g.check is not None and (error := g.check(outputs)) is not None:
                    print(f"{g.key}: {error}", file=sys.stderr)
                    bad += 1
            group_s = total / len(groups)
            round_s += group_s * wl.slots.get(cls, 0)
            print(f"{name} {cls}: {jobs} jobs, {total / jobs:.3f} s per job, {group_s:.3f} s per group")
        print(f"{name}: {round_s:.2f} s per round")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

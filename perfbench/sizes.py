"""Size-vs-time table of single CLI jobs, for comparison with ROADMAP's baseline.

    python3 perfbench/sizes.py

Each row is one job through `ptsskit.cli.main`, timed once by wall clock:
`pts` on a sum of n length-3 prefix chains (the chains workload's family),
`bisim` on a plain random PTS with n states (ROADMAP's family: 1-2
transitions per state, labels tau/a/b, seed 1), and `bisim` on the bisim
workload's stuttered systems with |R| = n.  The bisim rows ask r0 ~ r0, which
is YES, so they time one relation computation and no witness search.
"""

from __future__ import annotations

import importlib
import os
import random
import sys

from run import run_job
from workloads import ROOT, WORK, Job, chain_root, random_pts, stuttered_pts_text


def plain_pts_text(k: int, trans) -> str:
    lines = [f"state r{i}" for i in range(k)]
    for i, label, target in trans:
        body = ", ".join(f"r{u}: {w}" for u, w in target.items())
        lines.append(f"trans r{i} --{label}-> {{ {body} }}")
    return "\n".join(lines) + "\n"


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("ptsskit.cli")
    rows = []
    for n in (4, 8, 12, 14, 16, 24, 32):
        root = chain_root(random.Random(f"sizes:{n}"), n)
        rows.append(("chains pts", n, None, ["pts", "corpus/running.ptss", "--root", root, "--max-depth", "64"]))
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    for kind, family, sizes in (
        ("pbranching", "plain", (5, 10, 20)),
        ("branching", "plain", (40, 80, 120)),
        ("pbranching", "stuttered", (1, 2, 3)),
        ("branching", "stuttered", (6, 12, 24)),
    ):
        for n in sizes:
            trans = random_pts(random.Random(1), n)
            text = plain_pts_text(n, trans) if family == "plain" else stuttered_pts_text(n, trans)
            path = ROOT / WORK / f"sizes-{family}-{n}.pts"
            path.write_text(text, encoding="utf-8")
            argv = ["bisim", str(path.relative_to(ROOT)), "--kind", kind, "r0", "r0", "--json"]
            rows.append((f"{kind} {family}", n, text.count("state "), argv))
    print("| job | n | states | seconds | exit |")
    print("|---|---|---|---|---|")
    for label, n, states, argv in rows:
        seconds, code, out, crash = run_job(cli, Job(label, argv, lambda c, o: None, str))
        states = out.count("state ") if states is None else states
        print(f"| {label} | {n} | {states} | {seconds:.2f} | {crash or code} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

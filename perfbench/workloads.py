"""Workload catalogues, the seeded draw of a run's jobs, and answer checks.

Each workload is a fixed catalogue of job groups, built from constant seeds,
sorted into classes.  A round takes a fixed number of groups from each class
(its slots); a run with workload seed `s` walks each class in permutations
seeded with `s`, and runs each round's jobs in an order seeded with `s`.
For bisim the seed also picks the state pair that each YES query asks about.

Each class holds as many groups as the run at the benchmark's 30 seconds
draws from it, so every run covers the whole catalogue once: drawing half of
a twice as large catalogue made the run-to-run spread of job_p50_s 5% on
chains and 9% on bisim from input sampling alone, on top of machine noise.
The catalogue is fixed also so that the output digest of every job the
benchmark can run is recorded in `data/digests.json`.

Every answer is checked against a reference that does not come from the
program: a closed form for `chains`, pairs related or unrelated by
construction for `bisim`, and the files' own `# expect` lines for `corpus`.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench") / "work"  # relative to ROOT, which is the working directory
DIGESTS = Path(__file__).resolve().parent / "data" / "digests.json"

Check = Callable[[Optional[int], str], Optional[str]]


@dataclass
class Job:
    key: str  # catalogue id; the key of the recorded output digest
    argv: list[str]
    check: Check  # (exit code, stdout) -> error message or None
    digest_of: Callable[[str], str]  # stdout -> the deterministic part of it


@dataclass
class Group:
    """Jobs that share input files; `check` sees all their outputs at once."""

    key: str
    files: dict[str, str]  # path relative to ROOT -> content
    jobs: list[Job]
    check: Optional[Callable[[dict[str, str]], Optional[str]]] = None


@dataclass
class Workload:
    name: str
    catalogue: Callable[[int], dict[str, list[Group]]]  # seed -> class -> groups
    slots: dict[str, int]  # groups per class in one round
    smoke_slots: dict[str, int]
    round_s: float  # wall time of one round at the seed commit, 2 cores
    min_rounds: int = 1
    fixed_inputs: list[str] = field(default_factory=list)  # read by set-up


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def draw(wl: Workload, seed: int, rounds: int, smoke: bool = False) -> list[list[Group]]:
    """The groups of each round.  Each class is walked in a fresh seeded
    permutation per pass over it, so a run covers its catalogue evenly."""
    rng = random.Random(f"{wl.name}:{seed}")
    catalogue = wl.catalogue(seed)
    slots = wl.smoke_slots if smoke else wl.slots

    def cycle(groups: list[Group]) -> Iterator[Group]:
        while True:
            yield from rng.sample(groups, len(groups))

    walks = {cls: cycle(catalogue[cls]) for cls in sorted(slots)}
    return [
        [next(walks[cls]) for cls in sorted(slots) for _ in range(slots[cls])]
        for _ in range(rounds)
    ]


def round_jobs(groups: list[Group], seed: int, index: int) -> list[Job]:
    """The jobs of one round, in a seeded order."""
    jobs = [job for g in groups for job in g.jobs]
    random.Random(f"order:{seed}:{index}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# chains: `pts corpus/running.ptss --root <+-sum of n prefix chains>`

LABELS = ("a", "b", "tau")
# n -> slots per round.  Every size from 4 to 14 once: adjacent sizes differ
# in time by about 1.3x, so job times form a continuum and the median and the
# tail move smoothly with machine speed, rather than jumping with one size.
CHAIN_SIZES = {n: 1 for n in range(4, 15)}
CHAIN_CATALOGUE = 7  # roots per size and slot: the rounds of a 30 s run
CHAIN_MAX_DEPTH = "64"  # a right-nested sum of 14 chains has depth 20


def chain_text(labels: list[str]) -> str:
    text = "0"
    for label in reversed(labels):
        text = f"{label}.delta({text})"
    return text


def chain_root(rng: random.Random, n: int) -> str:
    chains = [chain_text([rng.choice(LABELS) for _ in range(3)]) for _ in range(n)]
    root = chains[-1]
    for c in reversed(chains[:-1]):
        root = f"+({c},{root})"
    return root


def _split_sum(text: str) -> list[str]:
    """The summands of a right-nested `+(c1,+(c2,...))`."""
    parts = []
    while text.startswith("+("):
        depth = 0
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 1:
                break
        parts.append(text[2:i])
        text = text[i + 1 : -1]
    parts.append(text)
    return parts


def _chain_labels(text: str) -> list[str]:
    labels = []
    while text != "0":
        m = re.fullmatch(r"(\w+)\.delta\((.*)\)", text)
        if m is None:
            raise ValueError(f"not a prefix chain: {text}")
        labels.append(m.group(1))
        text = m.group(2)
    return labels


def chains_expected(root: str) -> tuple[set[str], set[tuple[str, str, str]]]:
    """Closed form of the reachable PTS: the root steps to the first suffix of
    each chain, and each suffix steps by its head label to the next one."""
    states = {root}
    trans = set()
    for c in _split_sum(root):
        labels = _chain_labels(c)
        trans.add((root, labels[0], chain_text(labels[1:])))
        for i in range(1, len(labels) + 1):
            states.add(chain_text(labels[i:]))
            if i < len(labels):
                trans.add((chain_text(labels[i:]), labels[i], chain_text(labels[i + 1 :])))
    return states, trans


_TRANS_RE = re.compile(r"trans (\S+) --(\w+)-> \{ (\S+): 1 \}")


def check_chains(root: str) -> Check:
    def check(code: Optional[int], out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        states: set[str] = set()
        trans: set[tuple[str, str, str]] = set()
        for line in out.splitlines():
            if line.startswith("state "):
                states.add(line[len("state "):])
                continue
            m = _TRANS_RE.fullmatch(line)
            if m is None:
                return f"unexpected line {line!r}"
            trans.add((m.group(1), m.group(2), m.group(3)))
        want_states, want_trans = chains_expected(root)
        if states != want_states:
            return f"states differ: {sorted(states ^ want_states)}"
        if trans != want_trans:
            return f"transitions differ: {sorted(trans ^ want_trans)}"
        return None

    return check


def _identity(out: str) -> str:
    return out


def chains_catalogue(seed: int) -> dict[str, list[Group]]:
    out = {}
    for n, slots in CHAIN_SIZES.items():
        groups = []
        for i in range(CHAIN_CATALOGUE * slots):
            key = f"chains/n{n}/{i}"
            root = chain_root(random.Random(key), n)
            argv = ["pts", "corpus/running.ptss", "--root", root, "--max-depth", CHAIN_MAX_DEPTH]
            groups.append(Group(key, {}, [Job(key, argv, check_chains(root), _identity)]))
        out[f"n{n:02d}"] = groups
    return out


CHAINS = Workload(
    "chains",
    chains_catalogue,
    slots={f"n{n:02d}": s for n, s in CHAIN_SIZES.items()},
    smoke_slots={"n04": 1, "n06": 1},
    round_s=4.5,
    fixed_inputs=["corpus/running.ptss"],
)


# ---------------------------------------------------------------------------
# bisim: `bisim <file>.pts --kind K s t --json` on a random PTS R joined with
# a stuttered copy R' and one planted unrelated pair.
#
# For each state s of R, c_s takes one inert tau-step to m_s, whose
# transitions mirror those of s with every target u replaced by c_u.  So
# s ~ c_s under branching and pbranching, and s ~ m_s under rooted.  The
# planted p --a-> r0 and q --b-> r0 are related under no kind, since q can
# never do an a-step.

# |R| per class.  pbx groups also run branching on their system, to check
# that its classes refine the pbranching ones; those jobs take 10 ms, and
# one in three pb groups is enough, so that they do not pull job_p50_s into
# the sparse stretch between the YES and the NO jobs.
BISIM_SIZES = {"pbx": 1, "pb": 1, "br": 12}
BISIM_SLOTS = {"pbx": 1, "pb": 2, "br": 1}
BISIM_CATALOGUE = {"pbx": 8, "pb": 16, "br": 8}  # the slots of the 8 rounds of a 30 s run


def random_pts(rng: random.Random, k: int) -> list[tuple[int, str, dict[int, Fraction]]]:
    """1-2 transitions per state, labels tau/a/b, 1-2-point targets in quarters."""
    trans = []
    for i in range(k):
        for _ in range(rng.randint(1, 2)):
            label = rng.choice(("tau", "a", "b"))
            if k < 2 or rng.random() < 0.5:
                target = {rng.randrange(k): Fraction(1)}
            else:
                u, v = rng.sample(range(k), 2)
                w = Fraction(rng.randint(1, 3), 4)
                target = {u: w, v: 1 - w}
            trans.append((i, label, target))
    return trans


def stuttered_pts_text(k: int, trans: list[tuple[int, str, dict[int, Fraction]]]) -> str:
    def dist(prefix: str, target: dict[int, Fraction]) -> str:
        return "{ " + ", ".join(f"{prefix}{u}: {w}" for u, w in target.items()) + " }"

    lines = [f"state {x}{i}" for i in range(k) for x in "rcm"] + ["state p", "state q"]
    for i, label, target in trans:
        lines.append(f"trans r{i} --{label}-> {dist('r', target)}")
        lines.append(f"trans m{i} --{label}-> {dist('c', target)}")
    lines += [f"trans c{i} --tau-> {{ m{i}: 1 }}" for i in range(k)]
    lines += ["trans p --a-> { r0: 1 }", "trans q --b-> { r0: 1 }"]
    return "\n".join(lines) + "\n"


def _block_of(classes: list[list[str]]) -> dict[str, int]:
    return {s: i for i, block in enumerate(classes) for s in block}


def check_bisim(kind: str, s: str, t: str, k: int, related: bool) -> Check:
    states = {f"{x}{i}" for i in range(k) for x in "rcm"} | {"p", "q"}

    def check(code: Optional[int], out: str) -> Optional[str]:
        if code != (0 if related else 1):
            return f"exit code {code}"
        try:
            data = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if data.get("related") is not related or (data.get("left"), data.get("right")) != (s, t):
            return f"verdict {data.get('related')} for {s} ~ {t}, expected {related}"
        if related == ("witness" in data):
            return "witness presence does not match the verdict"
        if kind == "rooted":
            return None
        classes = data.get("classes", [])
        block = _block_of(classes)
        if sorted(block) != sorted(states) or sum(map(len, classes)) != len(states):
            return "classes are not a partition of the states"
        if any(block[f"r{i}"] != block[f"c{i}"] for i in range(k)):
            return "some r_i and its stuttered copy c_i are in different classes"
        if block["p"] == block["q"]:
            return "the planted pair shares a class"
        return None

    return check


def bisim_digest(out: str) -> str:
    # the queried pair is seeded and checked by check_bisim; the witness
    # wording may change
    data = json.loads(out)
    for field_name in ("left", "right", "witness"):
        data.pop(field_name, None)
    return json.dumps(data, sort_keys=True)


def check_refines(fine_key: str, coarse_key: str) -> Callable[[dict[str, str]], Optional[str]]:
    def check(outputs: dict[str, str]) -> Optional[str]:
        try:
            fine = json.loads(outputs[fine_key])["classes"]
            coarse = _block_of(json.loads(outputs[coarse_key])["classes"])
        except (KeyError, ValueError):
            return "missing classes"
        if any(len({coarse.get(s) for s in block}) != 1 for block in fine):
            return "branching classes do not refine pbranching classes"
        return None

    return check


def _bisim_job(key: str, path: str, kind: str, s: str, t: str, k: int, related: bool) -> Job:
    argv = ["bisim", path, "--kind", kind, s, t, "--json"]
    return Job(key, argv, check_bisim(kind, s, t, k, related), bisim_digest)


def bisim_catalogue(seed: int) -> dict[str, list[Group]]:
    out: dict[str, list[Group]] = {cls: [] for cls in BISIM_SIZES}
    for cls, k in BISIM_SIZES.items():
        for i in range(BISIM_CATALOGUE[cls]):
            key = f"bisim/{cls}/{i}"
            text = stuttered_pts_text(k, random_pts(random.Random(key), k))
            path = str(WORK / "bisim" / f"{cls}-{i:03d}.pts")
            rng = random.Random(f"{key}:{seed}")
            check = None
            if cls in ("pb", "pbx"):
                x = rng.randrange(k)
                jobs = [
                    _bisim_job(f"{key}/pb-yes", path, "pbranching", f"r{x}", f"c{x}", k, True),
                    _bisim_job(f"{key}/pb-no", path, "pbranching", "p", "q", k, False),
                ]
                if cls == "pbx":
                    jobs.append(
                        _bisim_job(f"{key}/br-yes", path, "branching", f"r{x}", f"c{x}", k, True)
                    )
                    check = check_refines(f"{key}/br-yes", f"{key}/pb-yes")
            else:
                x, y = rng.randrange(k), rng.randrange(k)
                jobs = [
                    _bisim_job(f"{key}/br-yes", path, "branching", f"r{x}", f"c{x}", k, True),
                    _bisim_job(f"{key}/br-no", path, "branching", "p", "q", k, False),
                    _bisim_job(f"{key}/rooted-yes", path, "rooted", f"r{y}", f"m{y}", k, True),
                    _bisim_job(f"{key}/rooted-no", path, "rooted", "p", "q", k, False),
                ]
            out[cls].append(Group(key, {path: text}, jobs, check))
    return out


BISIM = Workload(
    "bisim",
    bisim_catalogue,
    slots=dict(BISIM_SLOTS),
    smoke_slots={"pbx": 1},
    round_s=3.8,
)


# ---------------------------------------------------------------------------
# corpus: `corpus-run <dir> --json`, one checked-in corpus file per directory

# per round: final_pb (LP-bound, about 5 s) once, mixed_choice (LP-bound,
# about 1.5 s) three times and each of the other files twice.  Four rounds
# put 16 LP-bound jobs above the tail's 10 and its 11th slowest job among
# the mixed_choice runs; the repeats of the 5-50 ms files give their medians
# enough samples to hold job_p50_s steady.
CORPUS_CLASSES = {"final_pb.ptss": "final", "mixed_choice.pts": "mixed"}


def corpus_expectations(text: str) -> list[tuple[int, str]]:
    """(line, expected value) of each `# expect` line of a corpus file."""
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("# expect "):
            head, value = line[len("# expect "):].rsplit(":", 1)
            out.append((line_no, "present" if head.startswith("violation") else value.strip()))
    return out


def check_corpus(text: str) -> Check:
    want = corpus_expectations(text)

    def check(code: Optional[int], out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            (entry,) = json.loads(out)["files"]
        except (ValueError, KeyError, TypeError):
            return "output does not report exactly one file"
        if entry.get("error") is not None:
            return f"error: {entry['error']}"
        got = [(e["line"], e["expected"], e["actual"]) for e in entry["expectations"]]
        if [(line, value) for line, value, _ in got] != want:
            return "reported expectations differ from the file's '# expect' lines"
        bad = [f"line {line}: got {actual}" for line, value, actual in got if actual != value]
        return "; ".join(bad) or None

    return check


def corpus_catalogue(seed: int) -> dict[str, list[Group]]:
    out: dict[str, list[Group]] = {"final": [], "mixed": [], "light": []}
    for src in sorted((ROOT / "corpus").iterdir()):
        if src.suffix not in (".ptss", ".pts"):
            continue
        text = src.read_text(encoding="utf-8")
        directory = WORK / "corpus" / src.stem
        key = f"corpus/{src.name}"
        job = Job(key, ["corpus-run", str(directory), "--json"], check_corpus(text), _identity)
        group = Group(key, {str(directory / src.name): text}, [job])
        out[CORPUS_CLASSES.get(src.name, "light")].append(group)
    return out


CORPUS = Workload(
    "corpus",
    corpus_catalogue,
    slots={"final": 1, "mixed": 3, "light": 24},
    smoke_slots={"light": 3},
    round_s=11.7,
    min_rounds=4,
)

WORKLOADS = {wl.name: wl for wl in (CHAINS, BISIM, CORPUS)}


def load_digests() -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def write_inputs(groups: list[Group]) -> None:
    for g in groups:
        for rel, text in g.files.items():
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                path.write_text(text, encoding="utf-8")

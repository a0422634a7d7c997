"""The argv table of `cli.main` (`_read_argv`) against argparse: for every
argv, the table gives None or the Namespace that `build_parser().parse_args`
gives, None whenever argparse exits, and never changes a default.  A fixed
list of regular argvs, which the table must read, and of irregular ones,
which it must leave to argparse, is also run by `tests/test_pythons.py`
under each other interpreter on PATH, whose argparse may parse differently."""

import argparse
import copy
import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ptsskit.cli import _read_argv, build_parser

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

(COMMANDS,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]

# each subcommand with its positionals and options, once or repeated, some
# options between positionals
REGULAR = [
    ["check-format", "corpus/cx2.ptss"],
    ["check-format", "--json", "corpus/cx2.ptss", "--json"],
    ["stable-model", "s.ptss", "--root", "0", "--root", "a.delta(0)", "--max-iterations", "3"],
    ["pts", "corpus/running.ptss", "--root", "+(a.delta(0),0)", "--max-depth", "64"],
    ["pts", "s.ptss", "-o", "out.pts", "--out", "", "--max-states", "9"],
    ["bisim", "b.pts", "--kind", "pbranching", "r0", "c0", "--json"],
    ["bisim", "b.ptss", "s", "--kind", "rooted", "t", "--root", "0", "--kind", "branching"],
    ["bisim", "", "--kind", "rooted", "", ""],
    ["probe-congruence", "s.ptss", "--pairs", "p.txt", "--contexts", "c.txt", "--kind", "branching"],
    ["corpus-run", "corpus", "--json"],
    ["corpus-run", ""],
]
IRREGULAR = [
    [], ["-h"], ["check-format"], ["check-format", "-h"], ["check-format", "--help"], ["nothing", "x"],
    ["check-format", "a", "b"], ["check-format", "--js", "a"], ["check-format", "--json=1", "a"],
    ["pts", "s.ptss", "-oout.pts"], ["pts", "s.ptss", "-o"], ["pts", "s.ptss", "--o", "x"],
    ["pts", "s.ptss", "--root=0"], ["pts", "s.ptss", "--root", "-1"], ["pts", "--", "s.ptss"],
    ["pts", "s.ptss", "--max-depth", "0"], ["pts", "s.ptss", "--max-depth", "x"], ["pts", "s.ptss", "--max-d", "9"],
    ["pts", "-", "--root", "0"], ["pts", "-x"], ["bisim", "b.pts", "s", "t"],
    ["bisim", "b.pts", "--kind", "strong", "s", "t"], ["bisim", "b.pts", "--kind=rooted", "s", "t"],
    ["bisim", "b.pts", "--kind", "rooted", "s"], ["bisim", "b.pts", "--kind", "rooted", "s", "t", "u"],
    ["bisim", "b.pts", "--kind", "rooted", "--", "s", "t"], ["bisim", "b.pts", "--kind", "rooted", "-s", "t"],
    ["probe-congruence", "s.ptss", "--pairs", "p.txt"], ["corpus-run", "corpus", "--json", "--", "x"],
    ["bisim", "--kind", "branching", "--", "s.ptss", "0", "--"], ["bisim", "--kind", "rooted", "--", "b.pts", "--", "t0"],
]


def parsed(argv):
    """argparse's Namespace of `argv`, or None where it exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return build_parser().parse_args(argv)
    except SystemExit:
        return None


def defaults():
    return {name: copy.deepcopy([(a.dest, a.default) for a in p._actions]) for name, p in COMMANDS.items()}


def check(argv):
    """The table's Namespace of `argv`, after checking it against argparse's."""
    before = defaults()
    got = _read_argv(list(argv))
    assert defaults() == before
    assert got is None or got == parsed(argv), argv
    return got


def test_regular_argvs_are_read_by_the_table():
    assert {argv[0] for argv in REGULAR} == set(COMMANDS)
    for argv in REGULAR:
        assert check(argv) is not None, argv


def test_irregular_argvs_are_left_to_argparse():
    for argv in IRREGULAR:
        assert check(argv) is None, argv


VALUES = {"--kind": ["rooted", "branching", "pbranching"], "--max-depth": ["1", "64", "١"], "": ["s.ptss", "0", "a b", ""]}
ODD_VALUES = {"--kind": ["strong", ""], "--max-depth": ["0", "-2", "x", "+1"], "": ["-1", "--json", "-x"]}
ODD_TOKENS = ["--", "-", "-h", "--help", "-oout", "--ro", "--js", "--max-d", "--kind=rooted", "--root=0",
              "--json=1", "--unknown", "", "extra", "-1", "x=1"]


@st.composite
def argvs(draw):
    """A subcommand with its positionals, its required options and up to
    five more, in any order; or such an argv with odd values or `-h`, and up to two tokens
    dropped or odd tokens put in."""
    name, odd = draw(st.sampled_from(sorted(COMMANDS))), draw(st.booleans())

    def value(option=""):
        return draw(st.sampled_from(VALUES.get(option, VALUES[""]) + (ODD_VALUES.get(option, ODD_VALUES[""]) if odd else [])))

    actions = [a for a in COMMANDS[name]._actions if a.default != argparse.SUPPRESS or odd]  # -h when odd
    pieces = [[value()] for a in actions if not a.option_strings]
    options = [a for a in actions if a.option_strings]
    for a in [a for a in options if a.required] + draw(st.lists(st.sampled_from(options), max_size=5)):
        option = draw(st.sampled_from(a.option_strings))
        pieces.append([option] if a.nargs == 0 else [option, value(a.option_strings[-1])])
    argv = [name] + [token for piece in draw(st.permutations(pieces)) for token in piece]
    for _ in range(draw(st.integers(0, 2)) if odd else 0):
        i = draw(st.integers(1, len(argv)))
        if draw(st.booleans()) and i < len(argv):
            del argv[i]
        else:
            argv.insert(i, draw(st.sampled_from(ODD_TOKENS)))
    return argv


@SETTINGS
@given(argv=argvs())
def test_the_table_reads_as_argparse_does(argv):
    check(argv)

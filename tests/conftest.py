import json
import os
import pathlib
import resource
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest

from ptsskit.parser import parse_spec, parse_term

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def state_op(sig, name):
    """The state operator of `sig` called `name`, the first declared of that name, or None."""
    return next((f for f in sig.state_ops if f.name == name), None)


def capped_python(argv: list[str], python: str = sys.executable, **popen) -> subprocess.Popen:
    """Start `python *argv` on this checkout's `ptsskit`, its address space
    capped at 1 GiB, so that a runaway big-int computation fails on its own
    instead of filling the machine's memory."""
    env = {**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")}
    cap = (1 << 30, 1 << 30)
    return subprocess.Popen(
        [python, *argv], env=env, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap), **popen,
    )

RUNNING_SPEC = """\
ptss running
actions a, b, tau
op 0 : -> s
op pre<A> : d -> s
op + : s s -> s
rule prefix: <A>.mu --<A>-> mu
rule sum_l: x --<A>-> mu |- +(x,y) --<A>-> mu
rule sum_r: y --<A>-> mu |- +(x,y) --<A>-> mu
"""


@pytest.fixture(scope="session", autouse=True)
def json_answers_are_canonical():
    """Every `--json` answer printed in process is the text that
    `json.dumps(payload, indent=2, sort_keys=True)` gives, and reads back to it."""
    from ptsskit import cli

    answer = cli._answer

    def checked(args, payload, lines):
        if args.json:
            text = cli._json(payload)
            assert text == json.dumps(payload, indent=2, sort_keys=True)
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
        answer(args, payload, lines)

    cli._answer = checked
    yield
    cli._answer = answer


@pytest.fixture(scope="session")
def running():
    return parse_spec(RUNNING_SPEC)


@pytest.fixture(scope="session")
def sig(running):
    return running.signature


@pytest.fixture
def t(sig):
    def build(text):
        return parse_term(text, sig)

    return build

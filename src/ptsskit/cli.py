"""Command-line front end.

Subcommands: check-format, stable-model, pts, bisim, probe-congruence,
corpus-run.  Exit codes: 0 affirmative (format passes, states related, no
probe violations, all expectations met), 1 negative, 2 usage or parse errors,
3 bound or convergence failures.  All output is deterministically ordered.
An error prints one `<where>: error: <message>` line per diagnostic, or
`error: <message>` when it names no place.  Each answer is computed once, as
the payload that `--json` prints; the text lines are rendered from it.
`bisim` and corpus-run read a pair of states by one reader, `_pair`, and
corpus-run answers each expectation by one evaluator, in file order.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from _json import encode_basestring_ascii as _quote  # json.encoder's C string writer, without loading json
from pathlib import Path
from typing import Callable, NamedTuple, Optional, TypeVar

from .bisim import KINDS, Decision, decide
from .engine import PTS, DomainBound, export_pts, is_complete, load_pts, reachable_pts, stable_model
from .errors import EXIT_BOUNDS, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, PtssError
from .format_check import check_format, congruence_probe
from .parser import PTSS, ParseFailure, parse_spec, parse_term
from .terms import Term, opaque_state, render_term

T = TypeVar("T")
# the one bound of every corpus-run expectation
_CORPUS_BOUND = DomainBound((), max_depth=10)


def _read_file(path: str) -> str:
    try:  # bytes, decoded once: line ends stay as written, and every reader splits by str.splitlines
        with open(path, "rb") as f:
            return f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PtssError(f"cannot read: {getattr(exc, 'strerror', None) or exc}", path)


def _load(path: str, parse: Callable[[str], T]) -> T:
    """Parse a file with `parse`; an error that names no place is put at the path."""
    try:
        return parse(_read_file(path))
    except PtssError as exc:
        exc.where = path if exc.where is None else exc.where
        raise


# a term's text, the file or argument it came from, its line there, and its offset in that line
_TermText = tuple[str, str, int, int]


def _parse_terms(spec: PTSS, items: list[_TermText]) -> list[Term]:
    """Parse terms; a diagnostic names the term's origin, and its line and column there."""
    out = []
    for text, origin, line, offset in items:
        try:
            out.append(parse_term(text, spec.signature))
        except ParseFailure as exc:
            raise ParseFailure([d._replace(line=line, col=offset + d.col) for d in exc.diagnostics], origin)
    return out


def _args(option: str, texts: list[str]) -> list[_TermText]:
    return [(text, f"{option} {text!r}", 1, 0) for text in texts]


def _words(text: str, origin: str, line: int, offset: int) -> list[_TermText]:
    """The whitespace-separated words of `text`, which sits at `offset` in its line."""
    return [(m.group(), origin, line, offset + m.start()) for m in re.finditer(r"\S+", text)]


def _term_lines(path: str) -> list[_TermText]:
    """The non-blank, non-comment lines of a file."""
    lines = enumerate(_read_file(path).splitlines(), start=1)
    return [(line.strip(), path, n, len(line) - len(line.lstrip())) for n, line in lines
            if line.strip()[:1] not in ("", "#")]


def _bound(args: argparse.Namespace, roots: tuple[Term, ...]) -> DomainBound:
    return DomainBound(roots, max_depth=args.max_depth, max_states=args.max_states, max_iterations=args.max_iterations)


def _positive(text: str) -> int:
    # decimal, not digit: int() refuses '²'; and it refuses a text past 4,300 digits
    with contextlib.suppress(ValueError):
        if text.isdecimal() and int(text) > 0:
            return int(text)
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_bound_flags(sub: argparse.ArgumentParser) -> None:
    for field, default in DomainBound._field_defaults.items():  # --max-depth, --max-states, --max-iterations
        sub.add_argument(f"--{field.replace('_', '-')}", type=_positive, default=default)


def _emit(text: str) -> None:
    try:  # the newline is its own write: unbuffered, a write cut short by a closed pipe is lost silently
        sys.stdout.write(text.removesuffix("\n"))
        sys.stdout.write("\n")
        sys.stdout.flush()  # here, so that a closed pipe fails inside the try
    except BrokenPipeError as exc:  # the reader has gone: the rest, and the flush at exit, go to devnull
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise PtssError(f"cannot write: {exc.strerror}") from None


def _json(value: object, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` of a payload: dicts with
    str keys, lists, str, int, bool and None; any other type is a TypeError."""
    if isinstance(value, str):
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, list):
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]" if value else "[]"
    if isinstance(value, dict):
        items = ("," + inner).join([_quote(k) + ": " + _json(value[k], inner) for k in sorted(value)])
        return "{" + inner + items + indent + "}" if value else "{}"
    if value is None or isinstance(value, int):  # a bool is an int, whose repr lowered is JSON's
        return "null" if value is None else repr(value).lower()
    raise TypeError(f"a payload holds no {type(value).__name__}")


def _answer(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """Print an answer: its payload under `--json`, else its text lines."""
    _emit(_json(payload) if args.json else "\n".join(lines))


def _spec_and_roots(args: argparse.Namespace) -> tuple[PTSS, tuple[Term, ...]]:
    spec = _load(args.spec, parse_spec)
    roots = tuple(_parse_terms(spec, _args("--root", args.root)))
    if not roots:
        raise PtssError(f"{args.command} needs at least one --root")
    return spec, roots


def _pair(source: PTS | PTSS, words: list[_TermText], where: str,
          bound: Callable[[tuple[Term, Term]], DomainBound]) -> tuple[PTS, Term, Term]:
    """The PTS and the two states a pair's words name: a `.pts` file's own
    states, or the spec's terms in the PTS reached under `bound(pair)`, which
    is called after the pair is read, so that its diagnostics come first."""
    if isinstance(source, PTS):
        s, t = (opaque_state(word[0]) for word in words)
        if s not in source.states or t not in source.states:
            raise PtssError(f"unknown state {words[0][0]!r} or {words[1][0]!r}", where)
        return source, s, t
    s, t = _parse_terms(source, words)
    return reachable_pts(source, bound((s, t))), s, t


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_check_format(args: argparse.Namespace) -> int:
    report = check_format(_load(args.spec, parse_spec))
    position = "{}.{}".format  # (operator, argument) as `op.i`
    wild = [position(*pos) for pos, w in report.wildness if w]
    patience = {position(*pos): rule for pos, rule in report.patience}
    rows = [
        {"rule": v.rule, "kind": v.kind, "patience_for": v.patience_for and position(*v.patience_for),
         "violations": [{"condition": x.condition, "message": x.message} for x in v.violations]}
        for v in report.verdicts
    ]
    payload = {"overall": report.overall, "wild": sorted(wild), "patience": patience, "rules": rows}
    lines = [f"overall: {'pass' if report.overall else 'fail'}", "wild: " + (" ".join(wild) or "(none)")]
    lines += [f"patience {pos}: {patience.get(pos) or '(missing)'}" for pos in wild]
    for row in rows:  # a patience or safe rule has no violations, a violating one has some
        head = f"rule {row['rule']}:"
        if row["kind"] == "patience":
            lines.append(f"{head} patience rule for {row['patience_for']}")
        elif row["kind"] == "safe":
            lines.append(f"{head} safe")
        lines += [f"{head} violation {x['condition']}: {x['message']}" for x in row["violations"]]
    _answer(args, payload, lines)
    return EXIT_OK if report.overall else EXIT_NEGATIVE


def _cmd_stable_model(args: argparse.Namespace) -> int:
    spec, roots = _spec_and_roots(args)
    model = stable_model(spec, _bound(args, roots))
    payload = {
        "certain": sorted(repr(tr) for tr in model.ct),
        "possible_only": sorted(repr(tr) for tr in model.pt - model.ct),
        "iterations": model.iterations,
        "converged": model.converged,
        "complete": model.converged and model.is_two_valued,
    }
    lines = [f"certain: {tr}" for tr in payload["certain"]]
    lines += [f"possible-only: {tr}" for tr in payload["possible_only"]]
    lines.append(f"iterations: {model.iterations}")
    lines += [f"{key}: {'yes' if payload[key] else 'no'}" for key in ("converged", "complete")]
    _answer(args, payload, lines)
    if not model.converged:
        return EXIT_BOUNDS
    return EXIT_OK if payload["complete"] else EXIT_NEGATIVE


def _cmd_pts(args: argparse.Namespace) -> int:
    spec, roots = _spec_and_roots(args)
    pts = reachable_pts(spec, _bound(args, roots))
    text = export_pts(pts)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise PtssError(f"cannot write: {exc.strerror or exc}", args.out)
        _emit(f"wrote {len(pts.states)} states, {len(pts.transitions)} transitions to {args.out}")
    else:
        _emit(text)
    return EXIT_OK


def _cmd_bisim(args: argparse.Namespace) -> int:
    source = _load(args.path, load_pts if args.path.endswith(".pts") else parse_spec)
    pts, s, t = _pair(source, _args("argument s", [args.s]) + _args("argument t", [args.t]), args.path,
                      lambda pair: _bound(args, tuple(_parse_terms(source, _args("--root", args.root))) + pair))
    decision = decide(args.kind, pts)
    related = decision.related(s, t)
    partition = decision.classes()
    witness = None if related else decision.witness(s, t)
    payload = {"kind": args.kind, "left": render_term(s), "right": render_term(t), "related": related}
    lines = []
    if partition is not None:
        payload["classes"] = [[render_term(u) for u in block] for block in partition]
        lines += ["class: " + " ".join(block) for block in payload["classes"]]
    lines.append(f"{args.kind}: {payload['left']} ~ {payload['right']}: {'YES' if related else 'NO'}")
    if witness is not None:
        payload["witness"] = {"state": render_term(witness[0]), "challenge": repr(witness[1])}
        lines.append(f"witness: unmatched challenge {payload['witness']['challenge']}")
    _answer(args, payload, lines)
    return EXIT_OK if related else EXIT_NEGATIVE


def _cmd_probe(args: argparse.Namespace) -> int:
    spec = _load(args.spec, parse_spec)
    pairs = []
    for text, path, line_no, offset in _term_lines(args.pairs):
        parts = _words(text, path, line_no, offset)
        if len(parts) != 2:
            raise PtssError("expected '<term> <term>' per line", f"{path}:{line_no}")
        pairs.append(tuple(_parse_terms(spec, parts)))
    contexts = _parse_terms(spec, _term_lines(args.contexts))
    violations = congruence_probe(spec, pairs, contexts, _bound(args, ()), kind=args.kind)
    rows = [{"context": render_term(v.context), "left": render_term(v.left), "right": render_term(v.right)}
            for v in violations]
    payload = {"kind": args.kind, "violations": rows}
    lines = [f"violation: context {v['context']} separates {v['left']} and {v['right']}" for v in rows]
    _answer(args, payload, lines or ["no violations"])
    return EXIT_OK if not violations else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Corpus expectations

# each expectation's form: the words before its colon, and those after it of a violation
_FORMS = {"format": "format", "violation": "violation: <rule> <cond>", "complete": "complete",
          "bisim": "bisim <kind> <s> <t>", "probe": "probe <kind> <context> <u> <v>"}


class Expectation(NamedTuple):
    line: int
    kind: str
    detail: str
    expected: str
    words: list[_TermText]  # the words between the kind and the colon, each with its place in the file


def _parse_expectations(text: str, path: str) -> tuple[list[Expectation], list[_TermText]]:
    expectations: list[Expectation] = []
    roots: list[_TermText] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if stripped.startswith("# roots:"):
            roots.extend(_words(stripped[len("# roots:"):], path, line_no, indent + len("# roots:")))
        elif stripped.startswith("# expect "):
            body = stripped[len("# expect "):]
            if ":" not in body:
                raise PtssError("malformed expectation (missing ':')", f"{path}:{line_no}")
            head, expected = body.rsplit(":", 1)
            words = _words(head, path, line_no, indent + len("# expect "))
            expected = expected.strip()
            if not words or not expected:
                raise PtssError("malformed expectation", f"{path}:{line_no}")
            kind = words[0][0]
            detail = head.strip()[len(kind):].strip()
            if kind not in _FORMS:
                raise PtssError(f"unknown expectation {kind!r}", f"{path}:{line_no}")
            if kind in ("bisim", "probe") and detail and words[1][0] not in KINDS:
                raise PtssError(f"unknown {kind} kind {words[1][0]!r}", f"{path}:{line_no}")
            if kind == "violation":
                # payload sits after the colon: `# expect violation: <rule> <cond>`
                detail, expected = expected, "present"
            expectations.append(Expectation(line_no, kind, detail, expected, words[1:]))
    return expectations, roots


def _run_corpus_file(path: Path) -> list[dict]:
    """The `--json` rows of a file's expectations, each evaluated in file order
    by one function, which checks the format at most once and, on a `.pts`
    file, decides each kind at most once."""
    text = _read_file(str(path))
    expectations, root_items = _parse_expectations(text, str(path))
    source = load_pts(text) if path.suffix == ".pts" else parse_spec(text)
    roots = () if isinstance(source, PTS) else tuple(_parse_terms(source, root_items))
    report = functools.cache(lambda: check_format(source))
    decisions: dict[str, Decision] = {}

    def actual(exp: Expectation) -> str:
        where = f"{path}:{exp.line}"
        if isinstance(source, PTS) and exp.kind != "bisim":
            raise PtssError("only bisim expectations apply to .pts files", where)
        head, _, tail = _FORMS[exp.kind].partition(":")  # a word a placeholder, a violation's after the colon
        if len(exp.words) != head.count("<") or tail and len(exp.detail.split()) != tail.count("<"):
            raise PtssError(f"expected '{_FORMS[exp.kind]}'", where)
        if exp.kind == "format":
            return "pass" if report().overall else "fail"
        if exp.kind == "violation":
            rule, cond = exp.detail.split()
            hit = any(v.rule == rule and v.condition == cond for v in report().all_violations())
            return "present" if hit else "absent"
        if exp.kind == "complete":
            if not roots:
                raise PtssError("complete expectation needs '# roots:'", where)
            return "yes" if is_complete(source, _CORPUS_BOUND._replace(roots=roots))[0] else "no"
        kind, words = exp.words[0][0], exp.words[1:]
        if exp.kind == "probe":
            context, u, v = _parse_terms(source, words)
            return "fail" if congruence_probe(source, [(u, v)], [context], _CORPUS_BOUND, kind=kind) else "ok"
        pts, s, t = _pair(source, words, where, lambda pair: _CORPUS_BOUND._replace(roots=roots + pair))
        if pts is not source or kind not in decisions:  # a spec's pair reaches a PTS of its own
            decisions[kind] = decide(kind, pts)
        return "yes" if decisions[kind].related(s, t) else "no"

    rows = []
    for exp in expectations:
        got = actual(exp)
        rows.append({"line": exp.line, "kind": exp.kind, "detail": exp.detail, "expected": exp.expected,
                     "actual": got, "ok": got == exp.expected})
    return rows


def corpus_run(directory: str) -> tuple[dict, list[str], int]:
    """Run every file's expectations: the `--json` payload, the text lines and
    the exit code.  Exit 2 if a file has a usage or parse error, else 1 if a
    file has any error or a failed expectation, else 0."""
    base = Path(directory)
    if not directory or not base.is_dir():  # Path("") is "."
        raise PtssError("not a directory", directory)
    files: list[dict] = []
    lines: list[str] = []
    total = failed = 0
    usage_error = False
    for p in sorted(p for p in base.iterdir() if p.suffix in (".ptss", ".pts")):
        try:
            rows = _run_corpus_file(p)
        except PtssError as exc:
            usage_error = usage_error or exc.exit_code == EXIT_USAGE
            exc.where = str(p) if exc.where is None else exc.where
            files.append({"path": str(p), "error": "\n".join(exc.lines()), "expectations": []})
            lines.append(files[-1]["error"])
            failed += 1
            continue
        files.append({"path": str(p), "error": None, "expectations": rows})
        for row in rows:
            total += 1
            failed += not row["ok"]
            desc = f"{row['kind']} {row['detail']}".strip()
            status = "PASS" if row["ok"] else "FAIL"
            lines.append(f"{p}:{row['line']}: {desc}: expected {row['expected']}, got {row['actual']}: {status}")
    lines.append(f"summary: {total} expectations, {failed} failed")
    code = EXIT_USAGE if usage_error else EXIT_NEGATIVE if failed else EXIT_OK
    return {"files": files, "failed": failed, "total": total}, lines, code


def _cmd_corpus_run(args: argparse.Namespace) -> int:
    payload, lines, code = corpus_run(args.directory)
    _answer(args, payload, lines)
    return code


# ---------------------------------------------------------------------------

@functools.cache  # built on the first call, not at import; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsskit",
        description="Probabilistic transition system specifications: parse, solve, compare, check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-format", help="decide membership in the safe rule format")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check_format)

    p = sub.add_parser("stable-model", help="compute the least 3-valued stable model")
    p.add_argument("spec")
    p.add_argument("--root", action="append", default=[])
    p.add_argument("--json", action="store_true")
    _add_bound_flags(p)
    p.set_defaults(fn=_cmd_stable_model)

    p = sub.add_parser("pts", help="export the reachable PTS of a complete spec")
    p.add_argument("spec")
    p.add_argument("--root", action="append", default=[])
    p.add_argument("-o", "--out")
    _add_bound_flags(p)
    p.set_defaults(fn=_cmd_pts)

    p = sub.add_parser("bisim", help="decide a bisimulation query")
    p.add_argument("path", help=".ptss spec or .pts automaton")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--root", action="append", default=[])
    p.add_argument("--json", action="store_true")
    _add_bound_flags(p)
    p.set_defaults(fn=_cmd_bisim)

    p = sub.add_parser("probe-congruence", help="wrap related pairs in contexts and re-check")
    p.add_argument("spec")
    p.add_argument("--pairs", required=True, help="file with '<term> <term>' lines")
    p.add_argument("--contexts", required=True, help="file with one-hole contexts, one per line")
    p.add_argument("--kind", choices=KINDS, default="rooted")
    p.add_argument("--json", action="store_true")
    _add_bound_flags(p)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("corpus-run", help="run expectation headers across a directory")
    p.add_argument("directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_corpus_run)
    return parser


@functools.cache
def _argv_table() -> dict[str, tuple]:
    """Each subcommand's parser, its options by exact name and its positionals
    as rows (dest, flag | store | append, type, choices), the dests it
    requires and the Namespace fields argparse starts from."""
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, parser in commands.items():
        actions = [a for a in parser._actions if a.default != argparse.SUPPRESS]  # all but -h
        row = {a: (a.dest, "flag" if a.nargs == 0 else "append" if isinstance(a, argparse._AppendAction) else "store",
                   a.type, a.choices) for a in actions}
        table[name] = (parser, {o: row[a] for a in actions for o in a.option_strings},
                       [row[a] for a in actions if not a.option_strings], {a.dest for a in actions if a.required},
                       {**parser._defaults, **{a.dest: a.default for a in actions}})
    return table


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """argparse's Namespace of a regular argv: a subcommand, then options by exact
    name, each but a flag followed by its value, and positionals, no value starting
    with `-`, each converted by its row's type and checked as argparse does; else None."""
    if not argv or argv[0] not in _argv_table():
        return None
    _, options, positionals, required, defaults = _argv_table()[argv[0]]
    args = argparse.Namespace(command=argv[0], **defaults)
    tokens, free, seen = iter(argv[1:]), iter(positionals), set()
    for token in tokens:
        row = options.get(token) if token.startswith("-") else next(free, None)
        if row is None:
            return None
        dest, how, convert, choices = row
        text = token if not token.startswith("-") else "" if how == "flag" else next(tokens, "-")
        try:
            value = True if how == "flag" else convert(text) if convert else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if text.startswith("-") or choices is not None and value not in choices:
            return None
        setattr(args, dest, getattr(args, dest) + [value] if how == "append" else value)
        seen.add(dest)
    return args if required <= seen else None


def main(argv: Optional[list[str]] = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    for dest, *_ in _argv_table()[args.command][2]:  # a second `--` leaves a list under Python 3.11's argparse
        if not isinstance(getattr(args, dest), str):
            _argv_table()[args.command][0].error(f"argument {dest}: expected one argument")
    try:
        return args.fn(args)
    except PtssError as exc:
        print("\n".join(exc.lines()), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

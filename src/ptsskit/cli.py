"""Command-line front end.

Subcommands: check-format, stable-model, pts, bisim, probe-congruence,
corpus-run.  Exit codes: 0 affirmative (format passes, states related, no
probe violations, all expectations met), 1 negative, 2 usage or parse errors,
3 bound or convergence failures.  All output is deterministically ordered.
An error prints one `<where>: error: <message>` line per diagnostic, or
`error: <message>` when it names no place.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, TypeVar

from .bisim import KINDS, Decision, decide
from .engine import (
    DomainBound,
    export_pts,
    is_complete,
    load_pts,
    opaque_state,
    reachable_pts,
    stable_model,
)
from .errors import EXIT_BOUNDS, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, PtssError
from .format_check import check_format, congruence_probe
from .parser import PTSS, ParseFailure, parse_spec, parse_term
from .terms import Term, render_term

T = TypeVar("T")
# the one bound of every corpus-run expectation
_CORPUS_BOUND = DomainBound((), max_depth=10)


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PtssError(f"cannot read: {getattr(exc, 'strerror', None) or exc}", path)


def _load(path: str, parse: Callable[[str], T]) -> T:
    """Parse a file with `parse`; an error that names no place is put at the path."""
    try:
        return parse(_read_file(path))
    except PtssError as exc:
        exc.where = exc.where or path
        raise


# a term's text, the file or argument it came from, its line there, and its offset in that line
_TermText = tuple[str, str, int, int]


def _parse_terms(spec: PTSS, items: list[_TermText]) -> list[Term]:
    """Parse terms; a diagnostic names the term's origin and its line and
    column there."""
    out = []
    for text, origin, line, offset in items:
        try:
            out.append(parse_term(text, spec.signature))
        except ParseFailure as exc:
            raise ParseFailure([replace(d, line=line, col=offset + d.col) for d in exc.diagnostics], origin)
    return out


def _args(option: str, texts: list[str]) -> list[_TermText]:
    return [(text, f"{option} {text!r}", 1, 0) for text in texts]


def _words(text: str, origin: str, line: int, offset: int) -> list[_TermText]:
    """The whitespace-separated words of `text`, which sits at `offset` in its line."""
    return [(m.group(), origin, line, offset + m.start()) for m in re.finditer(r"\S+", text)]


def _term_lines(path: str) -> list[_TermText]:
    """The non-blank, non-comment lines of a file."""
    items = []
    for line_no, line in enumerate(_read_file(path).splitlines(), start=1):
        if line.strip() and not line.strip().startswith("#"):
            items.append((line.strip(), path, line_no, len(line) - len(line.lstrip())))
    return items


def _bound(args: argparse.Namespace, roots: tuple[Term, ...]) -> DomainBound:
    return DomainBound(
        roots,
        max_depth=args.max_depth,
        max_states=args.max_states,
        max_iterations=args.max_iterations,
    )


def _positive(text: str) -> int:
    if not text.isdigit() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_bound_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-depth", type=_positive, default=8)
    sub.add_argument("--max-states", type=_positive, default=512)
    sub.add_argument("--max-iterations", type=_positive, default=64)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_check_format(args: argparse.Namespace) -> int:
    spec = _load(args.spec, parse_spec)
    report = check_format(spec)
    _emit(report.to_json() if args.json else report.render_text())
    return EXIT_OK if report.overall else EXIT_NEGATIVE


def _cmd_stable_model(args: argparse.Namespace) -> int:
    spec = _load(args.spec, parse_spec)
    roots = tuple(_parse_terms(spec, _args("--root", args.root)))
    if not roots:
        raise PtssError("stable-model needs at least one --root")
    model = stable_model(spec, _bound(args, roots))
    complete = model.converged and model.is_two_valued
    if args.json:
        _emit(
            json.dumps(
                {
                    "certain": sorted(repr(tr) for tr in model.ct),
                    "possible_only": sorted(repr(tr) for tr in model.pt - model.ct),
                    "iterations": model.iterations,
                    "converged": model.converged,
                    "complete": complete,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        lines = [f"certain: {tr!r}" for tr in sorted(model.ct, key=repr)]
        lines += [f"possible-only: {tr!r}" for tr in sorted(model.pt - model.ct, key=repr)]
        lines.append(f"iterations: {model.iterations}")
        lines.append(f"converged: {'yes' if model.converged else 'no'}")
        lines.append(f"complete: {'yes' if complete else 'no'}")
        _emit("\n".join(lines))
    if not model.converged:
        return EXIT_BOUNDS
    return EXIT_OK if complete else EXIT_NEGATIVE


def _cmd_pts(args: argparse.Namespace) -> int:
    spec = _load(args.spec, parse_spec)
    roots = tuple(_parse_terms(spec, _args("--root", args.root)))
    if not roots:
        raise PtssError("pts needs at least one --root")
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
    path = args.path
    if path.endswith(".pts"):
        pts = _load(path, load_pts)
        s, t = opaque_state(args.s), opaque_state(args.t)
        if not pts.has_state(s) or not pts.has_state(t):
            raise PtssError(f"unknown state {args.s!r} or {args.t!r}", path)
    else:
        spec = _load(path, parse_spec)
        s, t = _parse_terms(spec, _args("argument s", [args.s]) + _args("argument t", [args.t]))
        roots = tuple(_parse_terms(spec, _args("--root", args.root))) + (s, t)
        pts = reachable_pts(spec, _bound(args, roots))

    decision = decide(args.kind, pts)
    related = decision.related(s, t)
    partition = decision.classes()
    witness = None if related else decision.witness(s, t)
    if args.json:
        payload = {
            "kind": args.kind,
            "left": render_term(s),
            "right": render_term(t),
            "related": related,
        }
        if partition is not None:
            payload["classes"] = [[render_term(u) for u in block] for block in partition]
        if witness is not None:
            state, tr = witness
            payload["witness"] = {"state": render_term(state), "challenge": repr(tr)}
        _emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = []
        if partition is not None:
            lines += ["class: " + " ".join(render_term(u) for u in block) for block in partition]
        verdict = "YES" if related else "NO"
        lines.append(f"{args.kind}: {render_term(s)} ~ {render_term(t)}: {verdict}")
        if witness is not None:
            state, tr = witness
            lines.append(f"witness: unmatched challenge {tr!r}")
        _emit("\n".join(lines))
    return EXIT_OK if related else EXIT_NEGATIVE


def _cmd_probe(args: argparse.Namespace) -> int:
    spec = _load(args.spec, parse_spec)
    pairs = []
    for text, path, line_no, offset in _term_lines(args.pairs):
        parts = _words(text, path, line_no, offset)
        if len(parts) != 2:
            raise PtssError("expected '<term> <term>' per line", f"{path}:{line_no}")
        u, v = _parse_terms(spec, parts)
        pairs.append((u, v))
    contexts = _parse_terms(spec, _term_lines(args.contexts))
    violations = congruence_probe(spec, pairs, contexts, _bound(args, ()), kind=args.kind)
    if args.json:
        _emit(
            json.dumps(
                {
                    "kind": args.kind,
                    "violations": [
                        {
                            "context": render_term(v.context),
                            "left": render_term(v.left),
                            "right": render_term(v.right),
                        }
                        for v in violations
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        if violations:
            _emit("\n".join(f"violation: {v}" for v in violations))
        else:
            _emit("no violations")
    return EXIT_OK if not violations else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Corpus expectations

@dataclass
class Expectation:
    line: int
    kind: str
    detail: str
    expected: str
    words: list[_TermText]  # the words of `detail`, each with its place in the file


@dataclass
class FileOutcome:
    path: str
    rows: list[tuple[Expectation, str, bool]]
    error: Optional[str] = None  # the file's diagnostic lines


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
            if kind not in ("format", "violation", "complete", "bisim", "probe"):
                raise PtssError(f"unknown expectation {kind!r}", f"{path}:{line_no}")
            if kind in ("bisim", "probe") and detail and words[1][0] not in KINDS:
                raise PtssError(f"unknown {kind} kind {words[1][0]!r}", f"{path}:{line_no}")
            if kind == "violation":
                # payload sits after the colon: `# expect violation: <rule> <cond>`
                detail, expected = expected, "present"
            expectations.append(Expectation(line_no, kind, detail, expected, words[1:]))
    return expectations, roots


def _run_pts_expectations(path: str, text: str, expectations: list[Expectation]) -> FileOutcome:
    pts = load_pts(text)
    decisions: dict[str, Decision] = {}
    rows: list[tuple[Expectation, str, bool]] = []
    for exp in expectations:
        if exp.kind != "bisim":
            raise PtssError("only bisim expectations apply to .pts files", f"{path}:{exp.line}")
        if len(exp.words) != 3:
            raise PtssError("expected 'bisim <kind> <s> <t>'", f"{path}:{exp.line}")
        kind, sname, tname = (word[0] for word in exp.words)
        s, t = opaque_state(sname), opaque_state(tname)
        if not pts.has_state(s) or not pts.has_state(t):
            raise PtssError(f"unknown state {sname!r} or {tname!r}", f"{path}:{exp.line}")
        if kind not in decisions:
            decisions[kind] = decide(kind, pts)
        actual = "yes" if decisions[kind].related(s, t) else "no"
        rows.append((exp, actual, actual == exp.expected))
    return FileOutcome(path, rows)


def _run_spec_expectations(
    path: str, text: str, expectations: list[Expectation], root_items: list[_TermText]
) -> FileOutcome:
    spec = parse_spec(text)
    roots = tuple(_parse_terms(spec, root_items))
    rows: list[tuple[Expectation, str, bool]] = []
    report = None
    for exp in expectations:
        if exp.kind == "format":
            report = report or check_format(spec)
            actual = "pass" if report.overall else "fail"
        elif exp.kind == "violation":
            report = report or check_format(spec)
            try:
                rule, cond = exp.detail.split()
            except ValueError:
                raise PtssError("expected 'violation: <rule> <cond>'", f"{path}:{exp.line}")
            hit = any(v.rule == rule and v.condition == cond for v in report.all_violations())
            actual = "present" if hit else "absent"
            rows.append((exp, actual, actual == exp.expected))
            continue
        elif exp.kind == "complete":
            if not roots:
                raise PtssError("complete expectation needs '# roots:'", f"{path}:{exp.line}")
            complete, _ = is_complete(spec, replace(_CORPUS_BOUND, roots=roots))
            actual = "yes" if complete else "no"
        elif exp.kind == "bisim":
            if len(exp.words) != 3:
                raise PtssError("expected 'bisim <kind> <s> <t>'", f"{path}:{exp.line}")
            s, t = _parse_terms(spec, exp.words[1:])
            pts = reachable_pts(spec, replace(_CORPUS_BOUND, roots=roots + (s, t)))
            actual = "yes" if decide(exp.words[0][0], pts).related(s, t) else "no"
        else:  # "probe", the last kind _parse_expectations admits
            if len(exp.words) != 4:
                raise PtssError("expected 'probe <kind> <context> <u> <v>'", f"{path}:{exp.line}")
            context, u, v = _parse_terms(spec, exp.words[1:])
            violations = congruence_probe(spec, [(u, v)], [context], _CORPUS_BOUND, kind=exp.words[0][0])
            actual = "ok" if not violations else "fail"
        rows.append((exp, actual, actual == exp.expected))
    return FileOutcome(path, rows)


def _run_corpus_file(path: Path) -> FileOutcome:
    text = _read_file(str(path))
    expectations, roots = _parse_expectations(text, str(path))
    if path.suffix == ".pts":
        return _run_pts_expectations(str(path), text, expectations)
    return _run_spec_expectations(str(path), text, expectations, roots)


def corpus_run(directory: str) -> tuple[list[FileOutcome], int]:
    """Run every file's expectations.  Exit 2 if a file has a usage or parse
    error, else 1 if a file has any error or a failed expectation, else 0."""
    base = Path(directory)
    if not base.is_dir():
        raise PtssError("not a directory", directory)
    outcomes: list[FileOutcome] = []
    usage_error = False
    for p in sorted(p for p in base.iterdir() if p.suffix in (".ptss", ".pts")):
        try:
            outcomes.append(_run_corpus_file(p))
        except PtssError as exc:
            usage_error = usage_error or exc.exit_code == EXIT_USAGE
            exc.where = exc.where or str(p)
            outcomes.append(FileOutcome(str(p), [], error="\n".join(exc.lines())))
    if usage_error:
        return outcomes, EXIT_USAGE
    mismatches = any(
        outcome.error is not None or any(not ok for _, _, ok in outcome.rows)
        for outcome in outcomes
    )
    return outcomes, EXIT_NEGATIVE if mismatches else EXIT_OK


def _cmd_corpus_run(args: argparse.Namespace) -> int:
    outcomes, code = corpus_run(args.directory)
    total = 0
    failed = 0
    lines = []
    for outcome in outcomes:
        if outcome.error is not None:
            lines.append(outcome.error)
            failed += 1
            continue
        for exp, actual, ok in outcome.rows:
            total += 1
            if not ok:
                failed += 1
            status = "PASS" if ok else "FAIL"
            desc = f"{exp.kind} {exp.detail}".strip()
            lines.append(
                f"{outcome.path}:{exp.line}: {desc}: expected {exp.expected}, got {actual}: {status}"
            )
    lines.append(f"summary: {total} expectations, {failed} failed")
    if args.json:
        payload = {
            "files": [
                {
                    "path": o.path,
                    "error": o.error,
                    "expectations": [
                        {
                            "line": e.line,
                            "kind": e.kind,
                            "detail": e.detail,
                            "expected": e.expected,
                            "actual": actual,
                            "ok": ok,
                        }
                        for e, actual, ok in o.rows
                    ],
                }
                for o in outcomes
            ],
            "failed": failed,
            "total": total,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit("\n".join(lines))
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


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PtssError as exc:
        print("\n".join(exc.lines()), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

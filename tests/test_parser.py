import pytest

from ptsskit.parser import (
    ParseFailure,
    _Cursor,
    parse_spec,
    parse_term,
    try_parse_spec,
)
from ptsskit.terms import Convex, Dirac, Sort
from tests.conftest import CORPUS, RUNNING_SPEC
from tests.reference_render import render


def test_running_example_parses(running):
    # three rule schemas over three actions
    assert len(running.rules) == 3 * len(running.signature.actions)
    assert running.name == "running"
    names = {r.name for r in running.rules}
    assert "prefix@a" in names and "sum_l@tau" in names


def test_expansion_covers_each_action(running):
    prefix_rules = [r for r in running.rules if r.name.startswith("prefix@")]
    assert sorted(r.label for r in prefix_rules) == sorted(running.signature.actions)
    for r in prefix_rules:
        assert r.source.symbol.prefix_action == r.label


def test_unknown_operator_diagnostic():
    spec, diags = try_parse_spec(RUNNING_SPEC + "rule bad: g(x) --a-> mu\n")
    assert spec is None
    assert any("unknown operator g" in d.message for d in diags)
    assert all(d.line > 0 and d.col > 0 for d in diags)


def test_conclusion_target_sort_diagnostic():
    spec, diags = try_parse_spec(RUNNING_SPEC + "rule bad: x --a-> +(x,x)\n")
    assert spec is None
    assert any("sort" in d.message for d in diags)


def test_undeclared_action_diagnostic():
    spec, diags = try_parse_spec(RUNNING_SPEC + "rule bad: x --c-> mu\n")
    assert spec is None
    assert any("unknown action c" in d.message for d in diags)


def test_missing_tau_is_an_error():
    src = "ptss x\nactions a, b\nop 0 : -> s\nrule r: 0 --a-> ^0\n"
    spec, diags = try_parse_spec(src)
    assert spec is None
    assert any("tau" in d.message for d in diags)


def test_explicit_lifting_declaration_rejected():
    src = "ptss x\nactions tau\nop ^f : -> s\n"
    spec, diags = try_parse_spec(src)
    assert spec is None
    assert any("auto-declared" in d.message for d in diags)


def test_parse_term_examples(sig, t):
    term = t("a.delta(0)")
    assert term.symbol.prefix_action == "a"
    assert isinstance(term.args[0], Dirac)

    conv = t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}")
    assert isinstance(conv, Convex)

    with pytest.raises(ParseFailure) as err:
        t("oplus{1/2:delta(0),1/3:delta(0)}")
    assert any("5/6" in d.message for d in err.value.diagnostics)


def test_parse_term_position_in_diagnostics(sig):
    with pytest.raises(ParseFailure) as err:
        parse_term("+(0,oplus{1/2:delta(0)})", sig)
    diag = err.value.diagnostics[0]
    assert diag.line == 1 and diag.col == 5


def test_parse_term_sort_inference(sig):
    assert parse_term("mu", sig, Sort.DIST).sort is Sort.DIST
    assert parse_term("x", sig).sort is Sort.STATE
    with pytest.raises(ParseFailure):
        parse_term("+(x,delta(x))", sig)  # x at both sorts


def test_roundtrip_terms(sig, t):
    for text in ["a.delta(0)", "+(0,tau.delta(0))", "^+(delta(0),^0)", "oplus{1/4:delta(0),3/4:^0}"]:
        term = t(text)
        assert t(render(term)) == term


def test_roundtrip_spec(running):
    again = parse_spec(render(running))
    assert again == running
    # idempotent: rendering the re-parse is byte-identical
    assert render(again) == render(running)


def test_roundtrip_spec_with_premises_and_negatives():
    src = (
        "ptss neg\n"
        "actions a, b, tau\n"
        "op f : -> s\n"
        "rule ra: f -/b-> |- f --a-> ^f\n"
        "rule rb: f -/a-> |- f --b-> ^f\n"
    )
    spec = parse_spec(src)
    assert len(spec.rules) == 2
    assert spec.rules[0].neg_premises[0][1] == "b"
    assert parse_spec(render(spec)) == spec


def test_diagnostic_rendering_format():
    _, diags = try_parse_spec("ptss x\nactions tau\nop ? : -> s\n")
    assert diags
    text = str(diags[0])
    assert text.split(":")[0] == "3"


def test_rule_requires_turnstile():
    spec, diags = try_parse_spec(RUNNING_SPEC + "rule bad: x --a-> mu x --a-> mu\n")
    assert spec is None


def test_duplicate_rule_name_rejected():
    spec, diags = try_parse_spec(RUNNING_SPEC + "rule prefix: 0 --a-> ^0\nrule prefix: 0 --a-> ^0\n")
    assert spec is None
    assert any("duplicate rule name" in d.message for d in diags)


def test_reserved_names_rejected():
    spec, diags = try_parse_spec("ptss x\nactions tau\nop delta : -> s\n")
    assert spec is None
    assert any("reserved" in d.message for d in diags)


def test_a_rule_reports_each_diagnostic_once():
    # a `<A>` rule is read and settled once: its error would be the same for each action
    spec = RUNNING_SPEC + "rule r: <A>.delta(g(x)) --<A>-> mu\n"
    line = spec.count("\n")
    _, diags = try_parse_spec(spec)
    assert [str(d) for d in diags] == [f"{line}:19: error: unknown operator g"]


def test_settle_runs_once_per_rule_line(monkeypatch):
    # a `<A>` rule's instances share its reading, and so its diagnostics
    lines = []
    settle = _Cursor.settle
    monkeypatch.setattr(_Cursor, "settle", lambda cur, parts: lines.append(cur.line) or settle(cur, parts))
    specs = sorted(CORPUS.glob("*.ptss"))
    assert specs
    for path in specs:
        lines.clear()
        text = path.read_text()
        parse_spec(text)
        assert lines == [n for n, line in enumerate(text.splitlines(), 1) if line.startswith("rule ")], path.name

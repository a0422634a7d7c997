"""The recursive renderer, kept as the test oracle of `ptsskit.terms.render_term`,
and the renderer of rules and specifications that the parser's round-trip
tests read back.

`render_term` here renders every node afresh, one Python frame per level, so
it is exact and plain but raises `RecursionError` on terms about a thousand
levels deep.  `render_rule`, `render_spec` and `render` write terms with the
library's `render_term`, so that a round trip through them checks the
library's text form.
"""

from typing import Union

from ptsskit import terms
from ptsskit.parser import PTSS, Rule
from ptsskit.terms import Apply, Convex, Dirac, DistVar, StateVar, Term


def render_term(t: Term) -> str:
    if isinstance(t, (StateVar, DistVar)):
        return t.name
    if isinstance(t, Apply):
        sym = t.symbol
        if sym.prefix_action is not None:
            hat = "^" if sym.is_lifted else ""
            return f"{hat}{sym.prefix_action}.{render_term(t.args[0])}"
        if not t.args:
            return sym.name
        return f"{sym.name}({','.join(map(render_term, t.args))})"
    if isinstance(t, Dirac):
        return f"delta({render_term(t.inner)})"
    if isinstance(t, Convex):
        parts = ",".join(map("{}:{}".format, t.weights, map(render_term, t.args)))
        return "oplus{" + parts + "}"
    raise TypeError(f"not a term: {t!r}")


def render_rule(rule: Rule) -> str:
    text = terms.render_term
    premises = [f"{text(s)} --{l}-> {text(t)}" for s, l, t in rule.pos_premises]
    premises += [f"{text(s)} -/{l}->" for s, l in rule.neg_premises]
    conclusion = f"{text(rule.source)} --{rule.label}-> {text(rule.target)}"
    if premises:
        return f"rule {rule.name}: {', '.join(premises)} |- {conclusion}"
    return f"rule {rule.name}: {conclusion}"


def render_spec(spec: PTSS) -> str:
    lines = [f"ptss {spec.name}", f"actions {', '.join(spec.signature.actions)}"]
    for f in spec.signature.state_ops:
        if f.prefix_action is not None:
            continue
        sorts = " ".join(s.value for s in f.arg_sorts)
        sorts = f"{sorts} " if sorts else ""
        lines.append(f"op {f.name} : {sorts}-> {f.result_sort.value}")
    if spec.signature.has_prefix_family:
        lines.append("op pre<A> : d -> s")
    lines.extend(render_rule(r) for r in spec.rules)
    return "\n".join(lines) + "\n"


def render(obj: Union[PTSS, Rule, Term]) -> str:
    if isinstance(obj, PTSS):
        return render_spec(obj)
    if isinstance(obj, Rule):
        return render_rule(obj)
    return terms.render_term(obj)

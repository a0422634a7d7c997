"""The recursive renderer, kept as the test oracle of `ptsskit.terms.render_term`.

It renders every node afresh, one Python frame per level, so it is exact
and plain but raises `RecursionError` on terms about a thousand levels deep.
"""

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

"""Two-sorted term algebra: signatures, state/distribution terms, substitution, matching.

States and distributions over states live in separate sorts.  Every state
operator `f` comes with a lifted distribution operator `^f` of the same rank
whose arguments are all distribution-sorted; Dirac (`delta(t)`) and finite
convex combinations (`oplus{p1: t1, ...}`) are dedicated node kinds rather
than ordinary operators because their weights/arities are fixed.  All values
are immutable and weights are exact rationals.
"""

from __future__ import annotations

import enum
from _weakref import _remove_dead_weakref
from fractions import Fraction
from typing import ClassVar, Mapping, NamedTuple, Optional, Union
from weakref import ref

from .errors import PtssError


class Sort(enum.Enum):
    STATE = "s"
    DIST = "d"

    def __repr__(self) -> str:
        return f"Sort.{self.name}"


_STATE, _DIST = Sort.STATE, Sort.DIST  # read through their class, enum members cost a call


class SortError(PtssError):
    """A term or substitution violates the sort discipline."""


class FunctionSymbol(NamedTuple):
    """An operator of the two-sorted signature.

    `origin` is set on lifted symbols and points at the state operator being
    lifted; `prefix_action` is set on action-prefix operators (surface syntax
    `a.t`) and carries the action label.
    """

    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort
    origin: Optional["FunctionSymbol"] = None
    prefix_action: Optional[str] = None

    def __hash__(self) -> int:
        # each intern-table lookup of an Apply hashes its symbol: by name, whose str keeps its hash
        return hash(self.name)

    @property
    def rank(self) -> int:
        return len(self.arg_sorts)

    @property
    def is_lifted(self) -> bool:
        return self.origin is not None

    def __repr__(self) -> str:
        return f"FunctionSymbol({self.name!r})"


def prefix_symbol(action: str) -> FunctionSymbol:
    return FunctionSymbol(f"{action}.", (_DIST,), _STATE, None, action)


def lift_symbol(f: FunctionSymbol) -> FunctionSymbol:
    """The probabilistic lifting of a state operator: same rank, all-dist arguments."""
    if f.result_sort is not _STATE:
        raise SortError(f"only state operators can be lifted, got {f.name}")
    # made as a plain tuple, as opaque_state makes a symbol: a Signature lifts each of its operators
    return tuple.__new__(FunctionSymbol, (f"^{f.name}", (_DIST,) * len(f.arg_sorts), _DIST, f, f.prefix_action))


class _Record:
    """Base of the term nodes and of the records that derive more state when
    they are built.  A copy or an unpickling passes the `_fields` they are
    built from to the constructor again, so copied nodes stay interned; a
    record is compared, hashed and shown by those fields alone."""

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]]

    def _init(self, *values: object) -> None:  # sets each slot, in order, once
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return type(self), self._key()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._key()))})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # which delattr calls without a value


class _Var(NamedTuple):
    name: str

    depth, closed, kids, value = 1, False, (), None

    @property
    def text(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:  # a state and a distribution variable of one name differ
        return type(other) is type(self) and other.name == self.name

    def __ne__(self, other: object) -> bool:  # tuple's own does not ask __eq__
        return not self == other

    __hash__ = tuple.__hash__


class StateVar(_Var):
    __slots__ = ()
    sort = _STATE


class DistVar(_Var):
    __slots__ = ()
    sort = _DIST


class _Entry(ref):
    """A table's weak reference to a node.  When the node dies, `_forget`
    removes the entry, unless a new node has taken its key since."""

    __slots__ = ("table", "key")


def _forget(entry: _Entry, remove=_remove_dead_weakref) -> None:  # bound early: it may run at exit
    remove(entry.table, entry.key)


def _dead() -> None:
    """What a table's miss calls in place of a live node's reference."""


class _Node(_Record):
    """Base of the hash-consed node kinds (Filliatre & Conchon, 2006).

    A node is built at most once per structure: the constructor returns the
    live node of an equal key if there is one, so structurally equal nodes
    are one object, and `==` and `hash` are identity, O(1).  `kids` are the
    direct subterms; `depth` and `closed` are computed from their stored
    values when the node is built, `text` by `render_term` and the `value`
    of a distribution node by `evaluate`.  Each kind's table is a dict from
    key to an `_Entry`, so a lookup is one dict probe and a node lives
    exactly as long as some caller holds it.
    """

    __slots__ = ("depth", "closed", "text", "value", "kids", "__weakref__")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal fields make one node
    _table: ClassVar[dict]
    _open: ClassVar[type]  # the kind's twin that builds it

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "__setattr__" not in cls.__dict__:  # a kind, and not its twin
            # a node is built as this twin, whose slots take plain stores (both
            # methods: one type slot serves the two), and then becomes its kind
            plain = {"__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__}
            cls._open = type(cls.__name__, (cls,), plain)

    @classmethod
    def _build(cls, key: object, kids: tuple["Term", ...]) -> "_Node":
        """A new node of these kids, entered in the table; the caller sets
        the fields of its kind and then `__class__` to the kind."""
        node = object.__new__(cls._open)
        depth, closed = 1, True
        for k in kids:
            depth = k.depth + 1 if k.depth >= depth else depth
            closed = closed and k.closed
        node.depth, node.closed, node.text, node.value, node.kids = depth, closed, None, None, kids
        entry = cls._table[key] = _Entry(node, _forget)
        entry.table, entry.key = cls._table, key
        return node

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render_term(self)})"


class Apply(_Node):
    __slots__ = ("symbol", "sort")
    _fields = ("symbol", "args")
    _table: ClassVar[dict] = {}
    args = _Node.kids  # the kids slot, read under its own name

    def __new__(cls, symbol: FunctionSymbol, args: tuple["Term", ...]) -> "Apply":
        key = (symbol, tuple(args))
        node = cls._table.get(key, _dead)()
        if node is not None:
            return node
        args = key[1]
        if len(args) != len(symbol.arg_sorts):
            raise SortError(f"{symbol.name} expects {symbol.rank} arguments, got {len(args)}")
        for arg, want in zip(args, symbol.arg_sorts):
            if arg.sort is not want:
                raise SortError(
                    f"argument {render_term(arg)} of {symbol.name} has sort "
                    f"{arg.sort.value}, expected {want.value}"
                )
        node = cls._build(key, args)
        node.symbol, node.sort, node.__class__ = symbol, symbol.result_sort, cls
        return node


def opaque_state(name: str) -> Term:
    # Apply(FunctionSymbol(name, (), _STATE)) with its text, the symbol made as a plain tuple, with no sorts to check
    key = (tuple.__new__(FunctionSymbol, (name, (), _STATE, None, None)), ())
    state = Apply._table.get(key, _dead)()
    if state is None:
        state = Apply._build(key, ())
        state.symbol, state.sort, state.text, state.__class__ = key[0], _STATE, name, Apply
    return state


class Dirac(_Node):
    __slots__ = _fields = ("inner",)
    sort = Sort.DIST
    _table: ClassVar[dict] = {}

    def __new__(cls, inner: "Term") -> "Dirac":
        node = cls._table.get(inner, _dead)()
        if node is not None:
            return node
        if inner.sort is not _STATE:
            raise SortError(f"delta takes a state term, got {render_term(inner)}")
        node = cls._build(inner, (inner,))
        node.inner, node.__class__ = inner, cls
        return node


class Convex(_Node):
    __slots__ = ("weights",)
    _fields = ("weights", "args")
    sort = Sort.DIST
    _table: ClassVar[dict] = {}
    args = _Node.kids

    def __new__(cls, weights: tuple[Fraction, ...], args: tuple["Term", ...]) -> "Convex":
        # keyed by each weight's numerator and denominator, ints, which hash and add faster than a Fraction
        weights, args = tuple(weights), tuple(args)
        key = (tuple([(w.numerator, w.denominator) for w in weights]), args)
        node = cls._table.get(key, _dead)()
        if node is not None:
            return node
        if len(weights) != len(args) or not args:
            raise SortError("oplus needs one weight per branch and at least one branch")
        num, den = 0, 1  # the sum of the weights
        for n, d in key[0]:
            if n <= 0:
                raise SortError("oplus weights must be positive")
            num, den = num * d + n * den, den * d
        if num != den:
            raise SortError("oplus weights do not sum to 1")
        for arg in args:
            if arg.sort is not _DIST:
                raise SortError(f"oplus branches must be distribution terms, got {render_term(arg)}")
        node = cls._build(key, args)
        node.weights, node.__class__ = weights, cls
        return node


Term = Union[StateVar, DistVar, Apply, Dirac, Convex]

Substitution = Mapping[str, Term]


def _pieces(t: _Node) -> list:
    """The text of a node as its strings and subterms, in order."""
    if isinstance(t, Dirac):
        return ["delta(", t.inner, ")"]
    if isinstance(t, Convex):
        out: list = ["oplus{"]
        for w, a in zip(t.weights, t.args):
            out += [f"{w}:", a, ","]
        out[-1] = "}"
        return out
    sym = t.symbol
    if sym.prefix_action is not None:
        return [f"{'^' if sym.is_lifted else ''}{sym.prefix_action}.", t.args[0]]
    if not t.args:
        return [sym.name]
    out = [f"{sym.name}("]
    for a in t.args:
        out += [a, ","]
    out[-1] = ")"
    return out


def render_term(t: Term) -> str:
    """Canonical compact text form; `parse_term` inverts it.

    The walk is iterative.  A node keeps its text when it is at most 16 deep
    or its depth is a multiple of 16, so rendering a term again walks fewer
    than 16 levels, and a chain D deep keeps D/16 long texts, not D.
    """
    if t.text is not None:
        return t.text
    out: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if type(u) is str:
            out.append(u)
        elif type(u) is tuple:  # the pieces of node u[0] are out[u[1]:]
            node, start = u
            out[start:] = ["".join(out[start:])]
            object.__setattr__(node, "text", out[start])
        elif u.text is not None:
            out.append(u.text)
        else:
            if u.depth <= 16 or u.depth % 16 == 0:
                stack.append((u, len(out)))
            stack += reversed(_pieces(u))
    return "".join(out)


def variables(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, (StateVar, DistVar)):
            out.add(u.name)
        elif not u.closed:
            stack += u.kids
    return out


def substitute(rho: Substitution, t: Term) -> Term:
    """Replace variable occurrences; unmapped variables stay.  Sort-checked.

    The walk is iterative and post-order: a node is rebuilt once its open
    kids are, and kids are visited left to right, so the first variable bound
    at the wrong sort is the one reported.
    """
    if t.closed:
        return t
    done: list[Term] = []  # the rebuilt kids of the nodes on the stack
    stack: list = [(t, False)]
    while stack:
        u, kids_done = stack.pop()
        if u.closed:
            done.append(u)
        elif not u.kids:  # a variable
            rep = rho.get(u.name, u)
            if rep.sort is not u.sort:
                sort, other = ("state", "distribution") if u.sort is _STATE else ("distribution", "state")
                raise SortError(f"{sort} variable {u.name} bound to {other} term {render_term(rep)}")
            done.append(rep)
        elif not kids_done:
            stack.append((u, True))
            stack += [(k, False) for k in reversed(u.kids)]
        else:
            kids = tuple(done[-len(u.kids):])
            del done[-len(u.kids):]
            if isinstance(u, Apply):
                done.append(Apply(u.symbol, kids))
            elif isinstance(u, Dirac):
                done.append(Dirac(kids[0]))
            else:
                done.append(Convex(u.weights, kids))
    return done[0]


def match(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """Most general substitution rho with rho(pattern) == subject, or None.

    Repeated pattern variables require syntactically equal matched subterms.
    """
    binding: dict[str, Term] = {}
    if _match_into(pattern, subject, binding):
        return binding
    return None


def _match_into(pattern: Term, subject: Term, binding: dict[str, Term]) -> bool:
    if pattern.closed:  # interned: equal means identical
        return pattern is subject
    kind = type(pattern)
    if kind is StateVar or kind is DistVar:
        if subject.sort is not pattern.sort:
            return False
        seen = binding.get(pattern.name)
        if seen is not None:
            return seen == subject
        binding[pattern.name] = subject
        return True
    if type(subject) is not kind:
        return False
    if kind is Dirac:
        return _match_into(pattern.inner, subject.inner, binding)
    if kind is Apply:
        if pattern.symbol is not subject.symbol and pattern.symbol != subject.symbol:
            return False
    elif pattern.weights != subject.weights:
        return False
    for p, s in zip(pattern.args, subject.args):
        if not _match_into(p, s, binding):
            return False
    return True


class Signature(_Record):
    """Action labels plus state operators and their liftings.

    `actions` keeps declaration order (rendering is order-preserving); `tau`
    must be among them.  `dist_ops` is built here, one `lift_symbol(f)` per
    state operator, so every state operator has exactly one lifting, which
    `lift_symbol(f)` gives again.  An action's prefix operator, `a.`, is
    among `state_ops` exactly when the `pre<A>` family was declared.
    `_names` holds the state operator of each name, and `_prefixes` each
    action's prefix operator, or None; the parser reads both.
    """

    __slots__ = ("actions", "state_ops", "dist_ops", "_names", "_prefixes")
    _fields = __slots__[:2]

    def __init__(self, actions: tuple[str, ...], state_ops: tuple[FunctionSymbol, ...]) -> None:
        # the first operator of a name wins; validate_signature reports the rest
        names = {f.name: f for f in reversed(state_ops)}
        prefixes = {a: names.get(f"{a}.") for a in actions}
        self._init(actions, state_ops, tuple(map(lift_symbol, state_ops)), names, prefixes)


def build_signature(
    actions: list[str] | tuple[str, ...],
    state_ops: list[FunctionSymbol],
    prefix_family: bool,
) -> Signature:
    """Assemble a signature, generating prefix operators per action when asked."""
    return Signature(tuple(actions), (*state_ops, *map(prefix_symbol, actions)) if prefix_family else tuple(state_ops))


def validate_signature(sig: Signature) -> list[str]:
    """Diagnostics for every violated signature invariant; empty means valid."""
    out: list[str] = []
    if "tau" not in sig.actions:
        out.append("missing action: tau must be declared")
    seen_actions: set[str] = set()
    for a in sig.actions:
        if a in seen_actions:
            out.append(f"duplicate action: {a}")
        seen_actions.add(a)
    names: set[str] = set()
    for f in sig.state_ops + sig.dist_ops:
        if f.name in names:
            out.append(f"duplicate name: {f.name}")
        names.add(f.name)
    for f in sig.state_ops:
        if f.prefix_action is not None and f.prefix_action not in sig.actions:
            out.append(f"prefix operator {f.name} uses undeclared action {f.prefix_action}")
    return out

"""Textual formats for TBoxes, ABoxes, policies and queries.

One statement per line, "#" starts a comment.  Uppercase-initial identifiers
are variables and lowercase-initial ones are constants (the logic-programming
convention; note this is the opposite of the usual mathematical style where
variables are lowercase).

    tbox line    A [= B          ex R [= A        ex R- [= -B
                 role R [= S     role R- [= -S-
    abox line    A(c)            R(a,b)
    policy line  denial :- A(X), R(X,Y)
    query line   q :- A(X), R(X,c)

Serialization is canonical: parse(serialize(v)) == v for every parsed value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    ABox,
    And,
    Atom,
    AtomNode,
    BasicConcept,
    ConceptInclusion,
    ConjunctiveQuery,
    Denial,
    Eq,
    Exists,
    FONode,
    Not,
    Or,
    Policy,
    RoleExpr,
    RoleInclusion,
    TBox,
    Term,
    Truth,
    atomic,
    const,
    exists,
    exists_inv,
    is_reserved_ident,
    var,
)


class ParseError(Exception):
    """Lexical or grammatical error, with a 1-based source position."""

    def __init__(self, kind: str, line: int, column: int, message: str, token: str = ""):
        self.kind = kind
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        where = f"{kind}:{line}:{column}"
        tok = f" near {token!r}" if token else ""
        super().__init__(f"{where}: {message}{tok}")


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<incl>\[=)"
    r"|(?P<neck>:-)"
    r"|(?P<sym>[(),\-])"
)


@dataclass
class _Tok:
    kind: str  # 'ident' | '[=' | ':-' | '(' | ')' | ',' | '-' | 'eol'
    text: str
    col: int


class _Line:
    """Token stream for a single line."""

    def __init__(self, kind: str, lineno: int, text: str):
        self.kind = kind
        self.lineno = lineno
        self.toks: list[_Tok] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(kind, lineno, pos + 1, "unexpected character", text[pos])
            if m.lastgroup != "ws":
                val = m.group()
                tk = val if m.lastgroup != "ident" else "ident"
                self.toks.append(_Tok(tk, val, pos + 1))
            pos = m.end()
        self.toks.append(_Tok("eol", "", len(text) + 1))
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eol":
            self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            self.error(f"expected {what}", t)
        return t

    def error(self, message: str, tok: _Tok | None = None):
        t = tok or self.peek()
        raise ParseError(self.kind, self.lineno, t.col, message, t.text)

    def ident(self, what: str) -> _Tok:
        t = self.expect("ident", what)
        if is_reserved_ident(t.text):
            raise ParseError(
                self.kind, self.lineno, t.col,
                "identifiers containing '_v' followed by a digit are reserved",
                t.text,
            )
        return t

    def end(self):
        t = self.peek()
        if t.kind != "eol":
            self.error("trailing input", t)


def _lines(kind: str, text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        yield _Line(kind, lineno, body)


def _term(line: _Line, what: str = "term") -> Term:
    t = line.ident(what)
    if t.text[0].isupper():
        return var(t.text)
    return const(t.text)


def _constant(line: _Line) -> Term:
    t = line.ident("constant")
    if t.text[0].isupper():
        line.error("expected a constant (lowercase-initial), got a variable", t)
    return const(t.text)


def _atom(line: _Line, *, ground: bool) -> Atom:
    pred = line.ident("predicate name")
    line.expect("(", "'('")
    args = [_constant(line) if ground else _term(line)]
    if line.peek().kind == ",":
        line.next()
        args.append(_constant(line) if ground else _term(line))
    line.expect(")", "')'")
    return Atom(pred.text, tuple(args))


class _Arities:
    """Tracks predicate arities to reject concept/role conflicts."""

    def __init__(self, kind: str):
        self.kind = kind
        self.seen: dict[str, int] = {}

    def record(self, line: _Line, name: str, arity: int, col: int):
        old = self.seen.setdefault(name, arity)
        if old != arity:
            raise ParseError(
                self.kind, line.lineno, col,
                f"{name!r} used as both concept and role", name,
            )


def _basic(line: _Line) -> BasicConcept:
    t = line.peek()
    if t.kind == "ident" and t.text == "ex" and line.peek(1).kind == "ident":
        line.next()
        role = line.ident("role name")
        if line.peek().kind == "-":
            line.next()
            return exists_inv(role.text)
        return exists(role.text)
    name = line.ident("concept name")
    return atomic(name.text)


def _roleexpr(line: _Line) -> RoleExpr:
    name = line.ident("role name")
    if line.peek().kind == "-":
        line.next()
        return RoleExpr(name.text, inverse=True)
    return RoleExpr(name.text)


def _inclusion(line: _Line, side, arities: _Arities) -> tuple:
    """The `lhs [= [-]rhs` rest of a TBox line, each side read by `side`:
    (lhs, rhs, negated)."""

    def expr():
        col = line.peek().col
        x = side(line)
        arity = 1 if isinstance(x, BasicConcept) and x.kind == "atomic" else 2
        arities.record(line, x.name, arity, col)
        return x

    lhs = expr()
    line.expect("[=", "'[='")
    negated = line.peek().kind == "-"
    if negated:
        line.next()
    rhs = expr()
    line.end()
    return lhs, rhs, negated


def parse_tbox(text: str) -> TBox:
    """Parse inclusion and disjointness axioms; the signature is inferred."""
    axioms = []
    arities = _Arities("tbox")
    for line in _lines("tbox", text):
        t = line.peek()
        if t.kind == "ident" and t.text == "role" and line.peek(1).kind == "ident":
            line.next()
            axioms.append(RoleInclusion(*_inclusion(line, _roleexpr, arities)))
        else:
            axioms.append(ConceptInclusion(*_inclusion(line, _basic, arities)))
    return TBox.of(axioms)


def parse_abox(text: str) -> ABox:
    """Parse ground atoms, one per line; duplicates collapse."""
    atoms = set()
    arities = _Arities("abox")
    for line in _lines("abox", text):
        col = line.peek().col
        atom = _atom(line, ground=True)
        line.end()
        arities.record(line, atom.predicate, atom.arity, col)
        atoms.add(atom)
    return ABox(frozenset(atoms))


def _rule_body(line: _Line, head: str, arities: _Arities) -> frozenset[Atom]:
    """The atoms of a `head :- atom, ..., atom` line."""
    t = line.ident(f"'{head}'")
    if t.text != head:
        line.error(f"{line.kind} lines must start with '{head}'", t)
    line.expect(":-", "':-'")
    body = []
    while True:
        col = line.peek().col
        atom = _atom(line, ground=False)
        arities.record(line, atom.predicate, atom.arity, col)
        body.append(atom)
        if line.peek().kind != ",":
            break
        line.next()
    line.end()
    return frozenset(body)


def parse_policy(text: str) -> Policy:
    """Parse denial assertions of the form `denial :- atom, ..., atom`."""
    arities = _Arities("policy")
    return Policy(
        frozenset(Denial(_rule_body(line, "denial", arities)) for line in _lines("policy", text))
    )


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a single Boolean conjunctive query `q :- atom, ..., atom`."""
    arities = _Arities("query")
    queries = [ConjunctiveQuery(_rule_body(line, "q", arities)) for line in _lines("query", text)]
    if not queries:
        raise ParseError("query", 1, 1, "expected a query line")
    if len(queries) > 1:
        raise ParseError("query", 1, 1, f"expected exactly one query, got {len(queries)}")
    return queries[0]


# --- serialization ----------------------------------------------------------
#
# The model types render as the grammar: the repr of an atom, a basic
# concept, a role expression or an axiom is its text in these formats.


def serialize_tbox(tbox: TBox) -> str:
    return "".join(line + "\n" for line in sorted(repr(ax) for ax in tbox.axioms))


def serialize_abox(abox: ABox) -> str:
    return "".join(repr(a) + "\n" for a in abox.sorted_atoms())


def serialize_policy(policy: Policy) -> str:
    lines = []
    for d in policy.denials:
        body = ", ".join(repr(a) for a in d.sorted_body())
        lines.append(f"denial :- {body}")
    return "".join(line + "\n" for line in sorted(lines))


def serialize_query(q: ConjunctiveQuery) -> str:
    body = ", ".join(repr(a) for a in q.sorted_atoms())
    return f"q :- {body}\n"


def serialize_fo(node: FONode) -> str:
    """Render an FO sentence: AND / OR / NOT / EXISTS Var . / '=' / TRUE / FALSE."""
    return _render_fo(node, top=True)


def _render_fo(node: FONode, top: bool = False) -> str:
    if isinstance(node, AtomNode):
        return repr(node.atom)
    if isinstance(node, Truth):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, Eq):
        return f"{node.left.name} = {node.right.name}"
    if isinstance(node, Not):
        return "NOT " + _wrap(node.body)
    if isinstance(node, Exists):
        return f"EXISTS {node.variable.name} . {_wrap(node.body)}"
    if isinstance(node, (And, Or)):
        sep = " AND " if isinstance(node, And) else " OR "
        inner = sep.join(_wrap(c) for c in node.children)
        return inner if top else f"({inner})"
    raise TypeError(f"not an FO node: {node!r}")


def _wrap(node: FONode) -> str:
    if isinstance(node, (AtomNode, Truth)):
        return _render_fo(node)
    return f"({_render_fo(node, top=True)})"


def serialize(value) -> str:
    """Canonical text for any parseable value (or an FO query)."""
    if isinstance(value, TBox):
        return serialize_tbox(value)
    if isinstance(value, ABox):
        return serialize_abox(value)
    if isinstance(value, Policy):
        return serialize_policy(value)
    if isinstance(value, ConjunctiveQuery):
        return serialize_query(value)
    if isinstance(value, (AtomNode, And, Or, Exists, Not, Eq, Truth)):
        return serialize_fo(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def check_signature(tbox: TBox, *others) -> None:
    """Reject arity conflicts between the TBox signature and ABox / policy /
    query predicates.  Names unseen in the TBox are accepted with the arity
    they are used at."""
    arity: dict[str, int] = {c: 1 for c in tbox.concept_names}
    arity.update({r: 2 for r in tbox.role_names})
    for value in others:
        if isinstance(value, ABox):
            atoms = list(value.atoms)
        elif isinstance(value, Policy):
            atoms = [a for d in value.denials for a in d.body]
        elif isinstance(value, ConjunctiveQuery):
            atoms = list(value.atoms)
        else:
            raise TypeError(f"cannot check {type(value).__name__}")
        for a in atoms:
            old = arity.setdefault(a.predicate, a.arity)
            if old != a.arity:
                raise ParseError(
                    "signature", 1, 1,
                    f"{a.predicate!r} used as both concept and role", a.predicate,
                )

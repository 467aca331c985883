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

Bad input raises `ParseError`, whose text is

    <kind>:<line>:<column>: <message> near '<token>'

and which the CLI prints after "error: ".  The kind names the input: tbox,
abox, policy, query or order for a file, args for a bad option value.
Lines and columns are 1-based and count the raw text: comment and blank
lines count as lines, and leading whitespace as columns.  The " near" part
is left out when there is no token, as at the end of a line.
A line is tokenized whole before it is parsed, so an unexpected character
is reported before any grammar error on its line.

A name is a concept or a role, never both.  Each parse function takes an
optional `arities` dict, the arity of each name read so far, and adds its
own names to it; the CLI threads one dict through the files it reads, so a
name used at another arity in an earlier file is reported where the later
file uses it.
"""

from __future__ import annotations

import re

from .model import (
    ATOMIC,
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
    atom_order_key,
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


_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z][A-Za-z0-9_]*)|\[=|:-|[(),\-]|(?P<bad>\S)")


class _Cursor:
    """The tokens of one line, read left to right.  A token is a
    `(kind, text, column)` tuple: the kind is 'ident', the symbol itself, or
    'eol' for the one that ends the line."""

    def __init__(self, kind: str, lineno: int, body: str):
        self.kind, self.lineno, self.i = kind, lineno, 0
        # a symbol matches no named group, so its kind is its text
        self.toks = [(m.lastgroup or m[0], m[0], m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        for tok in self.toks:
            if tok[0] == "bad":
                self.error("unexpected character", tok)
        self.toks.append(("eol", "", len(body) + 1))

    @property
    def col(self) -> int:
        return self.toks[self.i][2]

    def error(self, message: str, tok: tuple | None = None):
        _, text, col = tok or self.toks[self.i]
        raise ParseError(self.kind, self.lineno, col, message, text)

    def skip(self, kind: str) -> bool:
        """Consume the next token if it is of `kind`."""
        if self.toks[self.i][0] == kind:
            self.i += 1
            return True
        return False

    def keyword(self, word: str) -> bool:
        """Consume `word` if a name follows it, so `ex` and `role` can still
        be names themselves."""
        toks, i = self.toks, self.i
        if toks[i][1] == word and toks[i + 1][0] == "ident":
            self.i += 1
            return True
        return False

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.toks[self.i]
        if tok[0] != kind:
            self.error(f"expected {what}", tok)
        self.i += 1
        return tok

    def ident(self, what: str) -> tuple:
        tok = self.expect("ident", what)
        if is_reserved_ident(tok[1]):
            self.error("identifiers containing '_v' followed by a digit are reserved", tok)
        return tok

    def end(self):
        if self.toks[self.i][0] != "eol":
            self.error("trailing input")


def _lines(kind: str, text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield _Cursor(kind, lineno, body)


def _check_arity(arities: dict[str, int], name: str, arity: int, kind: str, line: int, col: int):
    """One name, one arity: a name is a concept (1) or a role (2), never both."""
    if arities.setdefault(name, arity) != arity:
        raise ParseError(kind, line, col, f"{name!r} used as both concept and role", name)


def _arg(cur: _Cursor, ground: bool) -> Term:
    tok = cur.ident("constant" if ground else "term")
    if not tok[1][0].isupper():
        return const(tok[1])
    if ground:
        cur.error("expected a constant (lowercase-initial), got a variable", tok)
    return var(tok[1])


def _atom(cur: _Cursor, ground: bool) -> Atom:
    pred = cur.ident("predicate name")[1]
    cur.expect("(", "'('")
    args = [_arg(cur, ground)]
    if cur.skip(","):
        args.append(_arg(cur, ground))
    cur.expect(")", "')'")
    return Atom(pred, tuple(args))


def _basic(cur: _Cursor) -> BasicConcept:
    if cur.keyword("ex"):
        role = cur.ident("role name")[1]
        return exists_inv(role) if cur.skip("-") else exists(role)
    return atomic(cur.ident("concept name")[1])


def _roleexpr(cur: _Cursor) -> RoleExpr:
    return RoleExpr(cur.ident("role name")[1], cur.skip("-"))


def _inclusion(cur: _Cursor, side, arities: dict[str, int]) -> tuple:
    """The `lhs [= [-]rhs` rest of a TBox line, each side read by `side`:
    (lhs, rhs, negated)."""

    def expr():
        col = cur.col
        x = side(cur)
        arity = 1 if isinstance(x, BasicConcept) and x.kind == ATOMIC else 2
        _check_arity(arities, x.name, arity, cur.kind, cur.lineno, col)
        return x

    lhs = expr()
    cur.expect("[=", "'[='")
    negated = cur.skip("-")
    rhs = expr()
    cur.end()
    return lhs, rhs, negated


def parse_tbox(text: str, arities: dict[str, int] | None = None) -> TBox:
    """Parse inclusion and disjointness axioms; the signature is inferred."""
    axioms = []
    arities = {} if arities is None else arities
    for cur in _lines("tbox", text):
        if cur.keyword("role"):
            axioms.append(RoleInclusion(*_inclusion(cur, _roleexpr, arities)))
        else:
            axioms.append(ConceptInclusion(*_inclusion(cur, _basic, arities)))
    return TBox.of(axioms)


def _ground_atoms(kind: str, text: str, arities: dict[str, int] | None = None) -> list[Atom]:
    """The atoms of `text`, one per line, in file order."""
    atoms = []
    arities = {} if arities is None else arities
    for cur in _lines(kind, text):
        col = cur.col
        atom = _atom(cur, ground=True)
        cur.end()
        _check_arity(arities, atom.predicate, atom.arity, kind, cur.lineno, col)
        atoms.append(atom)
    return atoms


def parse_abox(text: str, arities: dict[str, int] | None = None) -> ABox:
    """Parse ground atoms, one per line; duplicates collapse."""
    return ABox(frozenset(_ground_atoms("abox", text, arities)))


def _rule_body(cur: _Cursor, head: str, arities: dict[str, int]) -> frozenset[Atom]:
    """The atoms of a `head :- atom, ..., atom` line."""
    tok = cur.ident(f"'{head}'")
    if tok[1] != head:
        cur.error(f"{cur.kind} lines must start with '{head}'", tok)
    cur.expect(":-", "':-'")
    body = []
    while not body or cur.skip(","):
        col = cur.col
        atom = _atom(cur, ground=False)
        _check_arity(arities, atom.predicate, atom.arity, cur.kind, cur.lineno, col)
        body.append(atom)
    cur.end()
    return frozenset(body)


def parse_policy(text: str, arities: dict[str, int] | None = None) -> Policy:
    """Parse denial assertions of the form `denial :- atom, ..., atom`."""
    arities = {} if arities is None else arities
    return Policy(
        frozenset(Denial(_rule_body(cur, "denial", arities)) for cur in _lines("policy", text))
    )


def parse_query(text: str, arities: dict[str, int] | None = None) -> ConjunctiveQuery:
    """Parse a single Boolean conjunctive query `q :- atom, ..., atom`."""
    arities = {} if arities is None else arities
    queries = [ConjunctiveQuery(_rule_body(cur, "q", arities)) for cur in _lines("query", text)]
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


def _rule(head: str, atoms) -> str:
    """The `head :- body` line of a policy or a query, atoms in canonical order."""
    return f"{head} :- {', '.join(repr(a) for a in sorted(atoms, key=atom_order_key))}"


def serialize_policy(policy: Policy) -> str:
    return "".join(line + "\n" for line in sorted(_rule("denial", d.body) for d in policy.denials))


def serialize_query(q: ConjunctiveQuery) -> str:
    return _rule("q", q.atoms) + "\n"


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

import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from cqelite import (
    ABox,
    Atom,
    BasicConcept,
    ConceptInclusion,
    ConjunctiveQuery,
    ParseError,
    Policy,
    RoleExpr,
    RoleInclusion,
    TBox,
    Term,
    atomic,
    const,
    exists,
    exists_inv,
    parse_abox,
    parse_policy,
    parse_query,
    parse_tbox,
    serialize,
    serialize_fo,
    var,
)
from cqelite.gen import random_instance
from cqelite.model import AtomNode, Denial, Exists, Or, is_reserved_ident


def test_parse_tbox_running_example():
    t = parse_tbox("ProjA [= Supplier\nProjB [= Supplier")
    assert t.axioms == frozenset(
        {
            ConceptInclusion(atomic("ProjA"), atomic("Supplier")),
            ConceptInclusion(atomic("ProjB"), atomic("Supplier")),
        }
    )
    assert t.concept_names == frozenset({"ProjA", "ProjB", "Supplier"})


def test_parse_tbox_empty():
    assert parse_tbox("") .axioms == frozenset()


def test_parse_tbox_existential_and_role_lines():
    t = parse_tbox("ex worksOn- [= Employee\nrole worksOn [= involvedIn")
    assert t.axioms == frozenset(
        {
            ConceptInclusion(exists_inv("worksOn"), atomic("Employee")),
            RoleInclusion(RoleExpr("worksOn"), RoleExpr("involvedIn")),
        }
    )
    # round trip
    assert parse_tbox(serialize(t)) == t


def test_parse_tbox_negated_and_inverse_forms():
    t = parse_tbox("A [= -B\nrole R- [= -S-\nex R [= A")
    assert ConceptInclusion(atomic("A"), atomic("B"), negated=True) in t.axioms
    assert (
        RoleInclusion(RoleExpr("R", True), RoleExpr("S", True), negated=True) in t.axioms
    )
    assert parse_tbox(serialize(t)) == t


def test_parse_tbox_rejects_concept_role_conflict():
    with pytest.raises(ParseError):
        parse_tbox("A [= B\nrole A [= S")


def test_parse_abox_running_example():
    a = parse_abox("ProjA(c)\nProjB(c)")
    assert a.atoms == frozenset(
        {Atom("ProjA", (const("c"),)), Atom("ProjB", (const("c"),))}
    )


def test_parse_abox_empty_and_dedup():
    assert len(parse_abox("")) == 0
    assert len(parse_abox("worksOn(a,b)\nworksOn(a,b)")) == 1


def test_parse_abox_rejects_variables():
    with pytest.raises(ParseError) as err:
        parse_abox("ProjA(X)")
    assert err.value.line == 1
    assert "constant" in err.value.message


def test_parse_policy_running_example():
    p = parse_policy("denial :- ProjA(X), ProjB(X)")
    (d,) = p.denials
    assert d.body == frozenset(
        {Atom("ProjA", (var("X"),)), Atom("ProjB", (var("X"),))}
    )


def test_parse_policy_three_atoms_and_role_denial():
    p = parse_policy("denial :- Supplier(X), ProjA(X), ProjB(X)\ndenial :- R(X,Y)")
    sizes = sorted(len(d.body) for d in p.denials)
    assert sizes == [1, 3]
    assert parse_policy(serialize(p)) == p


def test_parse_query_examples():
    ground = parse_query("q :- Supplier(c), ProjA(c)")
    assert ground.variables == frozenset()
    assert len(ground.atoms) == 2

    open_one = parse_query("q :- Supplier(X)")
    assert open_one.variables == frozenset({var("X")})

    two = parse_query("q :- C(X), P(X,Y)")
    assert two.variables == frozenset({var("X"), var("Y")})


def test_parse_query_requires_exactly_one():
    with pytest.raises(ParseError):
        parse_query("")
    with pytest.raises(ParseError):
        parse_query("q :- A(X)\nq :- B(X)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_tbox("# fine\nA [= ")
    assert err.value.line == 2
    assert err.value.column >= 5


def test_reserved_identifiers_rejected():
    with pytest.raises(ParseError):
        parse_abox("A(x_v1)")
    with pytest.raises(ParseError):
        parse_query("q :- A(X_v2)")


def test_serialize_abox_trivial():
    assert serialize(parse_abox("ProjA(c)")) == "ProjA(c)\n"
    assert serialize(parse_tbox("")) == ""


def test_serialize_fo_grammar_example():
    x = var("X")
    node = Exists(x, Or((AtomNode(Atom("A", (x,))), AtomNode(Atom("B", (x,))))))
    assert serialize_fo(node) == "EXISTS X . (A(X) OR B(X))"


def test_comments_and_blank_lines_ignored():
    t = parse_tbox("# header\n\nProjA [= Supplier  # trailing\n")
    assert len(t.axioms) == 1


def test_threaded_parse_reports_a_cross_file_clash_in_the_later_file():
    arities: dict[str, int] = {}
    parse_tbox("A [= B", arities)
    with pytest.raises(ParseError) as info:
        parse_abox("B(c)\nA(x1,y1)", arities)
    assert str(info.value) == "abox:2:1: 'A' used as both concept and role near 'A'"


def test_round_trip_on_random_instances():
    # the grammar carries no signature declarations, so round-trip on the
    # reparsed value (generated TBoxes may declare unused names)
    for seed in range(40):
        tbox, policy, abox = random_instance(seed, n_atoms=8)
        reparsed = parse_tbox(serialize(tbox))
        assert reparsed.axioms == tbox.axioms
        assert parse_tbox(serialize(reparsed)) == reparsed
        assert parse_policy(serialize(policy)) == policy
        assert parse_abox(serialize(abox)) == abox


def test_round_trip_on_random_queries():
    from cqelite.gen import random_bcq, random_tbox

    rng = random.Random(7)
    for _ in range(60):
        t = random_tbox(rng)
        q = random_bcq(rng, t)
        assert parse_query(serialize(q)) == q


def test_determinism_identical_text_identical_structures():
    text = "ProjB [= Supplier\nProjA [= Supplier\n"
    assert parse_tbox(text) == parse_tbox(text)
    assert serialize(parse_tbox(text)) == serialize(parse_tbox(text))


# --- keyword-like names ---------------------------------------------------------
#
# The parser looks ahead for `ex` and `role`, and matches `denial` and `q` as
# heads, so these words are drawn as names of every kind.

KEYWORDS = ["ex", "role", "q", "denial"]


@st.composite
def keyword_values(draw):
    """A TBox, an ABox, a policy and a query over one signature in which each
    name is a concept or a role, never both."""
    names = KEYWORDS + ["A", "r"]
    is_role = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    concepts = [n for n, r in zip(names, is_role) if not r]
    roles = [n for n, r in zip(names, is_role) if r]
    basics = [atomic(c) for c in concepts]
    basics += [b(r) for r in roles for b in (exists, exists_inv)]
    role_exprs = [RoleExpr(r, inv) for r in roles for inv in (False, True)]
    negated = st.booleans()
    axioms = draw(st.lists(st.one_of(
        st.builds(ConceptInclusion, st.sampled_from(basics), st.sampled_from(basics), negated),
        *([st.builds(RoleInclusion, st.sampled_from(role_exprs), st.sampled_from(role_exprs), negated)]
          if roles else []),
    ), max_size=5))

    def atoms(terms):
        t = st.sampled_from(terms)
        unary = [st.builds(lambda c, x: Atom(c, (x,)), st.just(c), t) for c in concepts]
        binary = [st.builds(lambda r, x, y: Atom(r, (x, y)), st.just(r), t, t) for r in roles]
        return st.one_of(*unary, *binary)

    constants = [const(n) for n in KEYWORDS + ["a"]]
    terms = constants + [var("X"), var("Ex"), var("Q")]
    abox = ABox(frozenset(draw(st.lists(atoms(constants), max_size=5))))
    bodies = st.lists(atoms(terms), min_size=1, max_size=3).map(frozenset)
    policy = Policy(frozenset(draw(st.lists(bodies.map(Denial), max_size=3))))
    query = ConjunctiveQuery(draw(bodies))
    return TBox.of(axioms), abox, policy, query


@given(keyword_values())
def test_round_trip_with_keyword_like_names(values):
    tbox, abox, policy, query = values
    assert parse_tbox(serialize(tbox)) == tbox
    assert parse_abox(serialize(abox)) == abox
    assert parse_policy(serialize(policy)) == policy
    assert parse_query(serialize(query)) == query


# --- the reference parser -------------------------------------------------------
#
# The parser as it was before its tokens became tuples: a `_Tok` object per
# token, `peek()`/`next()` lookahead and an `_Arities` tracker per file.  The
# differential test below holds the parser to it, value for value and
# diagnostic for diagnostic.

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


def ref_parse_tbox(text: str) -> TBox:
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


def ref_parse_abox(text: str) -> ABox:
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


def ref_parse_policy(text: str) -> Policy:
    arities = _Arities("policy")
    return Policy(
        frozenset(Denial(_rule_body(line, "denial", arities)) for line in _lines("policy", text))
    )


def ref_parse_query(text: str) -> ConjunctiveQuery:
    arities = _Arities("query")
    queries = [ConjunctiveQuery(_rule_body(line, "q", arities)) for line in _lines("query", text)]
    if not queries:
        raise ParseError("query", 1, 1, "expected a query line")
    if len(queries) > 1:
        raise ParseError("query", 1, 1, f"expected exactly one query, got {len(queries)}")
    return queries[0]



def ref_check_signature(tbox: TBox, *others) -> None:
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


# --- the parser against the reference -------------------------------------------

PARSERS = {
    "tbox": (parse_tbox, ref_parse_tbox),
    "abox": (parse_abox, ref_parse_abox),
    "policy": (parse_policy, ref_parse_policy),
    "query": (parse_query, ref_parse_query),
}
PREDICATES = ["A", "b", "ex", "role", "q", "denial"]
TERMS = ["a", "ex", "q", "X", "Ex", "Y"]
# every symbol, reserved names, and characters the grammar has no use for
NOISE = PREDICATES + TERMS + [
    "x_v1", "X_v2", "[=", ":-", "(", ")", ",", "-", "[", ":", "=", "$", "1", "_", "é",
]


@st.composite
def valid_tokens(draw, kind, names=st.sampled_from(PREDICATES)):
    """The tokens of one well-formed line of `kind`, with predicates,
    concepts and roles drawn from `names`."""

    def atom(terms):
        term = st.sampled_from(terms)
        args = [draw(term)] + ([",", draw(term)] if draw(st.booleans()) else [])
        return [draw(names), "(", *args, ")"]

    def inverse():
        return ["-"] if draw(st.booleans()) else []

    def concept():
        return ["ex", draw(names), *inverse()] if draw(st.booleans()) else [draw(names)]

    if kind == "abox":
        return atom([t for t in TERMS if t.islower()])
    if kind in ("policy", "query"):
        toks = ["denial" if kind == "policy" else "q", ":-", *atom(TERMS)]
        for _ in range(draw(st.integers(0, 2))):
            toks += [",", *atom(TERMS)]
        return toks
    if draw(st.booleans()):
        return ["role", draw(names), *inverse(), "[=", *inverse(), draw(names), *inverse()]
    return [*concept(), "[=", *inverse(), *concept()]


@st.composite
def mutated(draw, toks):
    """`toks` with at most one token replaced, dropped, inserted or appended."""
    toks = list(toks)
    op = draw(st.sampled_from(["keep", "keep", "replace", "drop", "insert", "append", "append"]))
    noise = st.sampled_from(NOISE)
    if op == "append":
        toks.append(draw(noise))
    elif op != "keep":
        i = draw(st.integers(0, len(toks) - 1))
        if op == "replace":
            toks[i] = draw(noise)
        elif op == "drop":
            del toks[i]
        else:
            toks.insert(i, draw(noise))
    return toks


@st.composite
def line_texts(draw, kind, names):
    valid = valid_tokens(kind, names).flatmap(mutated)
    toks = draw(st.one_of(valid, valid, valid, st.lists(st.sampled_from(NOISE), max_size=6)))
    gaps = st.sampled_from(["", " ", " ", "\t", "  "])
    text = draw(gaps) + "".join(t + draw(gaps) for t in toks)
    return text + draw(st.sampled_from(["", "", "# c", "#(", " # -"]))


@st.composite
def texts(draw, kind):
    """A text of one to four lines, mostly of `kind`, over a few names so
    that lines clash on arities."""
    names = draw(st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=2, unique=True))
    lines = draw(st.lists(line_texts(kind, st.sampled_from(names)), min_size=1, max_size=4))
    return "\n".join(lines)


def outcome(fn, *args):
    """The value `fn` returns, or every field of the `ParseError` it raises."""
    try:
        return fn(*args)
    except ParseError as exc:
        return ("ParseError", exc.kind, exc.line, exc.column, exc.message, exc.token, str(exc))


@pytest.mark.parametrize("kind", sorted(PARSERS))
@given(data=st.data())
@settings(max_examples=300)
def test_parser_matches_the_reference(kind, data):
    text = data.draw(texts(kind))
    for fn, ref in PARSERS.values():
        assert outcome(fn, text) == outcome(ref, text)


@st.composite
def signatures(draw):
    """The texts of a TBox, an ABox, a policy and a query, in the order the
    CLI reads them; a text that does not parse on its own (its lines clash)
    is left out."""
    texts = {}
    for kind, (parse, _) in PARSERS.items():
        text = "\n".join(draw(st.lists(valid_tokens(kind).map(" ".join), max_size=3)))
        if not isinstance(outcome(parse, text), tuple):
            texts[kind] = text
    return texts


def parse_threaded(texts: dict[str, str]) -> None:
    """Parse `texts` in order with one arities dict, as the CLI reads its
    files."""
    arities: dict[str, int] = {}
    for kind, text in texts.items():
        PARSERS[kind][0](text, arities)


def check_parsed_by_reference(texts: dict[str, str]) -> None:
    values = {kind: PARSERS[kind][0](text) for kind, text in texts.items()}
    ref_check_signature(values.pop("tbox", TBox.of()), *values.values())


@given(signatures())
@settings(max_examples=300)
def test_threaded_parse_matches_the_signature_reference(texts):
    got = outcome(parse_threaded, texts)
    want = outcome(check_parsed_by_reference, texts)
    assert isinstance(got, tuple) == isinstance(want, tuple)
    if isinstance(got, tuple):
        # reported in the later of the two files, not the TBox
        assert got[1] in ("abox", "policy", "query")
        assert got[4] == f"{got[5]!r} used as both concept and role"


# each message family, with a kind of text that reaches it
FAMILIES = [
    ("abox", "unexpected character"),
    ("abox", "expected predicate name"),
    ("abox", "expected '('"),
    ("abox", "expected ')'"),
    ("abox", "expected constant"),
    ("abox", "expected a constant (lowercase-initial), got a variable"),
    ("abox", "used as both concept and role"),
    ("abox", "are reserved"),
    ("abox", "trailing input"),
    ("tbox", "unexpected character"),
    ("tbox", "expected concept name"),
    ("tbox", "expected role name"),
    ("tbox", "expected '[='"),
    ("tbox", "are reserved"),
    ("tbox", "used as both concept and role"),
    ("tbox", "trailing input"),
    ("policy", "expected 'denial'"),
    ("policy", "expected ':-'"),
    ("policy", "expected term"),
    ("policy", "lines must start with"),
    ("policy", "used as both concept and role"),
    ("query", "expected 'q'"),
    ("query", "lines must start with"),
    ("query", "expected a query line"),
    ("query", "expected exactly one query"),
]


@pytest.mark.parametrize("kind, family", FAMILIES)
def test_drawn_texts_reach_every_diagnostic(kind, family):
    def reaches(text):
        got = outcome(PARSERS[kind][0], text)
        return isinstance(got, tuple) and family in got[4]

    find(texts(kind), reaches, settings=settings(phases=[Phase.generate], max_examples=2000))


def _clashes(texts):
    return isinstance(outcome(parse_threaded, texts), tuple)


def test_drawn_signatures_reach_an_arity_clash():
    find(signatures(), _clashes, settings=settings(phases=[Phase.generate], max_examples=1000))

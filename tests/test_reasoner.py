import random
from typing import Iterator

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from cqelite import (
    ABox,
    Atom,
    BasicConcept,
    ConceptInclusion,
    InclusionClosure,
    InconsistentOntologyError,
    RoleExpr,
    RoleInclusion,
    TBox,
    abox_closure,
    atomic,
    chase_bounded,
    chase_entails,
    const,
    cq_entailed,
    eval_cq,
    exists,
    exists_inv,
    is_consistent,
    is_policy_consistent,
    parse_abox,
    parse_policy,
    parse_tbox,
    perfect_ref,
    saturate_tbox,
    var,
)
from cqelite import eval_fo, parse_policy, qib_rewrite, reasoner, rewriting
from cqelite.model import ATOMIC, ConjunctiveQuery, Term
from cqelite.reasoner import (
    Null,
    _Relations,
    _abox_relations,
    _canonical_cq,
    _entailed_unchecked,
    ChaseStructure,
    chase_satisfies,
    concept_atom,
    role_atom,
)
from cqelite.gen import random_bcq, random_instance, random_tbox

from conftest import q


# --- saturation ---------------------------------------------------------------


def test_saturate_reflexive_transitive():
    t = parse_tbox("ProjA [= Supplier")
    cl = saturate_tbox(t)
    a, s = atomic("ProjA"), atomic("Supplier")
    assert (a, s) in cl.concept_subs
    assert (a, a) in cl.concept_subs
    assert (s, s) in cl.concept_subs


def test_saturate_reflexivity_only_on_empty_tbox():
    t = parse_tbox("A [= A")
    cl = saturate_tbox(t)
    a = atomic("A")
    assert cl.concept_subs == frozenset({(a, a)})
    assert not cl.disjoint_concepts


def test_saturate_role_inclusion_propagates():
    t = parse_tbox("role R [= S")
    cl = saturate_tbox(t)
    assert (RoleExpr("R"), RoleExpr("S")) in cl.role_subs
    assert (RoleExpr("R", True), RoleExpr("S", True)) in cl.role_subs
    assert (exists("R"), exists("S")) in cl.concept_subs
    assert (exists_inv("R"), exists_inv("S")) in cl.concept_subs


def test_saturate_disjointness_inherited():
    t = parse_tbox("A [= B\nB [= -C\nD [= C")
    cl = saturate_tbox(t)
    assert frozenset({atomic("A"), atomic("C")}) in cl.disjoint_concepts
    assert frozenset({atomic("A"), atomic("D")}) in cl.disjoint_concepts


def test_saturate_unsat_concept_subsumes_everything():
    t = parse_tbox("A [= B\nA [= -B\nC [= C")
    cl = saturate_tbox(t)
    assert (atomic("A"), atomic("C")) in cl.concept_subs
    assert frozenset({atomic("A")}) in cl.disjoint_concepts


def test_saturate_agreement_with_entailment_exhaustive():
    """Subsumption closure agrees with instance checking on one-atom
    witness data, for every basic-concept pair over a small signature."""
    texts = [
        "ProjA [= Supplier\nProjB [= Supplier",
        "A [= ex R\nex R- [= B\nrole R [= S",
        "ex R [= A\nA [= -B\nrole R [= -S",
        "A [= ex S-\nex S [= B\nB [= C",
    ]
    w, w2 = const("w"), const("w2")
    for text in texts:
        t = parse_tbox(text)
        cl = saturate_tbox(t)
        for b1 in t.basic_concepts():
            witness = ABox.of([concept_atom(b1, w, w2)])
            if not is_consistent(t, witness):
                # unsatisfiable source concepts subsume everything
                assert all((b1, b2) in cl.concept_subs for b2 in t.basic_concepts())
                continue
            for b2 in t.basic_concepts():
                query = ConjunctiveQuery.of([concept_atom(b2, w, var("Y9"))])
                assert ((b1, b2) in cl.concept_subs) == cq_entailed(t, witness, query), (
                    text,
                    b1,
                    b2,
                )


def saturate_by_fixpoint(tbox: TBox) -> InclusionClosure:
    """Reference for `saturate_tbox`: apply the closure rules one group at a
    time until nothing changes, unsatisfiable expressions included."""
    basics = set(tbox.basic_concepts())
    roles = set(tbox.role_exprs())

    pos_c = {(b, b) for b in basics}
    pos_r = {(r, r) for r in roles}
    neg_c = set()
    neg_r = set()

    for ax in tbox.axioms:
        if isinstance(ax, ConceptInclusion):
            if ax.negated:
                neg_c.add(frozenset((ax.lhs, ax.rhs)))
            else:
                pos_c.add((ax.lhs, ax.rhs))
        else:
            if ax.negated:
                neg_r.add(frozenset((ax.lhs, ax.rhs)))
            else:
                pos_r.add((ax.lhs, ax.rhs))

    changed = True
    while changed:
        changed = False

        for (r, s) in list(pos_r):
            pair = (r.inverted(), s.inverted())
            if pair not in pos_r:
                pos_r.add(pair)
                changed = True
            for pair in ((r.domain(), s.domain()), (r.range(), s.range())):
                if pair not in pos_c:
                    pos_c.add(pair)
                    changed = True

        for rel in (pos_c, pos_r):
            by_rhs = {}
            for (x, y) in rel:
                by_rhs.setdefault(y, []).append(x)
            new = {(w, y) for (x, y) in rel for w in by_rhs.get(x, ()) if (w, y) not in rel}
            if new:
                rel |= new
                changed = True

        # disjointness inherited along positive subsumption
        for neg, pos in ((neg_c, pos_c), (neg_r, pos_r)):
            subs_of = {}
            for (x, y) in pos:
                subs_of.setdefault(y, []).append(x)
            new = set()
            for pair in neg:
                items = tuple(pair)
                for x2 in subs_of.get(items[0], ()):
                    for y2 in subs_of.get(items[-1], ()):
                        p = frozenset((x2, y2))
                        if p not in neg:
                            new.add(p)
            if new:
                neg |= new
                changed = True

        for pair in list(neg_r):
            items = tuple(pair)
            p = frozenset((items[0].inverted(), items[-1].inverted()))
            if p not in neg_r:
                neg_r.add(p)
                changed = True

        # an empty role has empty domain and range, and vice versa
        for r in roles:
            if frozenset((r,)) in neg_r:
                for c in (r.domain(), r.range()):
                    p = frozenset((c,))
                    if p not in neg_c:
                        neg_c.add(p)
                        changed = True
        for r in roles:
            if frozenset((r.domain(),)) in neg_c and frozenset((r,)) not in neg_r:
                neg_r.add(frozenset((r,)))
                changed = True

        # unsatisfiable expressions entail everything vacuously
        for exprs, pos, neg in ((basics, pos_c, neg_c), (roles, pos_r, neg_r)):
            for b in exprs:
                if frozenset((b,)) in neg:
                    for y in exprs:
                        if (b, y) not in pos:
                            pos.add((b, y))
                            changed = True
                        p = frozenset((b, y))
                        if p not in neg:
                            neg.add(p)
                            changed = True

    return InclusionClosure(
        frozenset(pos_c), frozenset(pos_r), frozenset(neg_c), frozenset(neg_r)
    )


DRAWN_CONCEPTS = ["A", "B", "C"]
DRAWN_ROLES = ["R", "S"]
drawn_basics = st.one_of(
    st.sampled_from(DRAWN_CONCEPTS).map(atomic),
    st.sampled_from(DRAWN_ROLES).map(exists),
    st.sampled_from(DRAWN_ROLES).map(exists_inv),
)
drawn_roles = st.builds(RoleExpr, st.sampled_from(DRAWN_ROLES), st.booleans())
drawn_tboxes = st.lists(
    st.one_of(
        st.builds(ConceptInclusion, drawn_basics, drawn_basics, st.booleans()),
        st.builds(RoleInclusion, drawn_roles, drawn_roles, st.booleans()),
    ),
    max_size=8,
).map(lambda axioms: TBox.of(axioms, DRAWN_CONCEPTS, DRAWN_ROLES))


def _lookup(pairs):
    return {x: sorted(y for (x2, y) in pairs if x2 == x) for x in {x for x, _ in pairs}}


@settings(max_examples=300)
@given(drawn_tboxes)
def test_saturate_matches_fixpoint_on_drawn_tboxes(t):
    got, want = saturate_tbox(t), saturate_by_fixpoint(t)
    assert got == want
    assert got.concept_subsumers == _lookup(want.concept_subs)
    assert got.concept_subsumees == _lookup({(y, x) for x, y in want.concept_subs})
    assert got.role_subsumers == _lookup(want.role_subs)
    assert got.role_subsumees == _lookup({(y, x) for x, y in want.role_subs})


def test_drawn_tboxes_reach_unsatisfiable_concepts_and_roles():
    """The draws above cover the vacuous pairs of both kinds."""
    for kind in ("disjoint_concepts", "disjoint_roles"):
        find(drawn_tboxes, lambda t: any(len(p) == 1 for p in getattr(saturate_tbox(t), kind)))


# --- consistency against the per-pair reference ---------------------------------


def violated_pairs(tbox: TBox, abox: ABox) -> Iterator[frozenset]:
    """The reference: the disjointness pairs of the saturated TBox, the
    vacuous pairs of each unsatisfiable expression included, whose two-atom
    violation query is entailed."""
    closure = saturate_tbox(tbox)
    x, x2, y1, y2 = var("X1"), var("X2"), var("Y1"), var("Y2")
    bodies = [
        (pair, {concept_atom(min(pair), x, y1), concept_atom(max(pair), x, y2)})
        for pair in closure.disjoint_concepts
    ] + [
        (pair, {role_atom(min(pair), x, x2), role_atom(max(pair), x, x2)})
        for pair in closure.disjoint_roles
    ]
    return (
        pair
        for pair, body in bodies
        if _entailed_unchecked(tbox, _abox_relations(abox), ConjunctiveQuery(frozenset(body)))
    )


def is_consistent_by_pairs(tbox: TBox, abox: ABox) -> bool:
    return next(violated_pairs(tbox, abox), None) is None


def _aboxes(consts: list[str], max_size: int):
    drawn_consts = st.sampled_from(consts).map(const)
    return st.lists(
        st.one_of(
            st.builds(lambda c, x: Atom(c, (x,)), st.sampled_from(DRAWN_CONCEPTS), drawn_consts),
            st.builds(
                lambda r, x, y: Atom(r, (x, y)),
                st.sampled_from(DRAWN_ROLES),
                drawn_consts,
                drawn_consts,
            ),
        ),
        max_size=max_size,
    ).map(ABox.of)


drawn_aboxes = _aboxes(["a", "b"], 4)
consistency_cases = st.tuples(drawn_tboxes, _aboxes(["a", "b", "c"], 8))


@settings(max_examples=300)
@given(consistency_cases)
def test_is_consistent_matches_per_pair_reference(case):
    assert is_consistent(*case) == is_consistent_by_pairs(*case)


def _unsatisfiable(tbox: TBox) -> set:
    closure = saturate_tbox(tbox)
    return {x for p in closure.disjoint_concepts | closure.disjoint_roles if len(p) == 1 for x in p}


# what a violated pair is made of, for each kind of pair the draws must reach
VIOLATIONS = {
    "an unsatisfiable concept": lambda p, unsat: len(p) == 1 and isinstance(min(p), BasicConcept),
    "an unsatisfiable role": lambda p, unsat: len(p) == 1 and isinstance(min(p), RoleExpr),
    "a role disjoint from an inverse role": lambda p, unsat: (
        len(p) == 2 and not p & unsat and isinstance(min(p), RoleExpr)
        and min(p).inverse != max(p).inverse
    ),
    "an existential disjoint from a concept": lambda p, unsat: (
        len(p) == 2 and not p & unsat and isinstance(min(p), BasicConcept)
        and any(x.kind != ATOMIC for x in p)
    ),
}


def test_drawn_instances_reach_inconsistency_through_unsatisfiable_expressions():
    """The draws above cover inputs made inconsistent by an unsatisfiable
    concept, by an unsatisfiable role, and, with neither side
    unsatisfiable, by a role against an inverse role and by an existential
    against a concept."""
    for made_of in VIOLATIONS.values():

        def reaches(case):
            unsat = _unsatisfiable(case[0])
            return any(made_of(p, unsat) for p in violated_pairs(*case))

        # a witness, not a small one
        find(consistency_cases, reaches, settings=settings(phases=[Phase.generate]))


# --- homomorphism evaluation ----------------------------------------------------


def test_eval_cq_simple_match():
    a = parse_abox("ProjA(c)")
    assert eval_cq(q("ProjA(X)"), a)
    assert not eval_cq(q("ProjA(d)"), a)


def test_eval_cq_cycle():
    a = parse_abox("R(a,b)\nR(b,a)")
    assert eval_cq(q("R(X,Y), R(Y,X)"), a)
    assert not eval_cq(q("R(X,X)"), a)


def test_eval_cq_repeated_variable():
    a = parse_abox("R(a,a)\nR(a,b)")
    assert eval_cq(q("R(X,X)"), a)


def homomorphisms_by_backtracking(atoms: list[Atom], facts) -> Iterator[dict]:
    """The reference: the row-by-row matcher that the set joins replaced.
    It backtracks from the atom with the most bound positions, trying the
    stored rows that agree on its bound position with the fewest rows."""
    by_pred: dict = {}
    by_pos: dict = {}
    for pred, args in facts:
        by_pred.setdefault(pred, []).append(args)
        for i, v in enumerate(args):
            by_pos.setdefault((pred, i, v), []).append(args)

    def candidates(atom, binding):
        best = None
        for i, t in enumerate(atom.args):
            v = t if t.is_const else binding.get(t)
            if v is not None:
                rows = by_pos.get((atom.predicate, i, v), [])
                if best is None or len(rows) < len(best):
                    best = rows
        return by_pred.get(atom.predicate, []) if best is None else best

    def extend(atom, row, binding):
        if len(row) != atom.arity:
            return None
        new = None
        for t, v in zip(atom.args, row):
            if t.is_const:
                if t != v:
                    return None
            else:
                bound = (new or binding).get(t)
                if bound is None:
                    if new is None:
                        new = dict(binding)
                    new[t] = v
                elif bound != v:
                    return None
        return new if new is not None else dict(binding)

    def search(atoms, binding):
        if not atoms:
            yield binding
            return
        best = max(atoms, key=lambda a: sum(1 for t in a.args if t.is_const or t in binding))
        rest = [a for a in atoms if a is not best]
        for row in candidates(best, binding):
            extended = extend(best, row, binding)
            if extended is not None:
                yield from search(rest, extended)

    yield from search(list(atoms), {})


def _homomorphisms(atoms: list[Atom], rel: _Relations) -> Iterator[dict]:
    """Every map of the variables of `atoms` that sends each atom to a row
    of `rel`, constants fixed: the bound rows of `reasoner._bound_rows`,
    which `_images` reads, as bindings."""
    names, rows = reasoner._bound_rows(atoms, rel)
    return (dict(zip(names, row)) for row in rows)


match_consts = st.sampled_from(["a", "b", "c"]).map(const)
match_vars = st.sampled_from(["X", "Y", "Z"]).map(var)
match_terms = st.one_of(match_vars, match_consts)


def _match_atoms(terms):
    return st.one_of(
        st.builds(lambda c, x: Atom(c, (x,)), st.sampled_from(DRAWN_CONCEPTS), terms),
        st.builds(lambda r, x, y: Atom(r, (x, y)), st.sampled_from(DRAWN_ROLES), terms, terms),
    )


match_queries = st.lists(_match_atoms(match_terms), min_size=1, max_size=4, unique=True)


def _with_existentials(instance):
    """The instance with `A(a)` asserted and two existential axioms added,
    so that its chase holds nulls."""
    t, a = instance
    axioms = t.axioms | parse_tbox("A [= ex R\nex R- [= ex S-").axioms
    return TBox.of(axioms, DRAWN_CONCEPTS, DRAWN_ROLES), ABox(a.atoms | {Atom("A", (const("a"),))})


@st.composite
def match_cases(draw):
    """(kind, stored facts, query atoms).  The facts hold constants for
    "abox", constants and nulls for "chase", and variables too for
    "quotient", built as `_has_proper_subimage` builds them: a pattern's
    atoms under a substitution of its variables, plus a few other atoms.
    Half the queries are read off some stored rows, each value a variable
    or, if it is a constant, possibly kept, so that many of them match."""
    kind = draw(st.sampled_from(["abox", "chase", "quotient"]))
    if kind == "abox":
        facts = {(a.predicate, a.args) for a in draw(st.lists(_match_atoms(match_consts), max_size=10))}
    elif kind == "chase":
        instance = draw(st.tuples(drawn_tboxes, drawn_aboxes).map(_with_existentials).filter(
            lambda ta: is_consistent(*ta)))
        facts = set(chase_bounded(*instance, 2).atoms)
    else:
        pattern = draw(match_queries) + draw(st.lists(_match_atoms(match_terms), max_size=3))
        subst = draw(st.dictionaries(match_vars, match_terms))
        facts = {(a.predicate, tuple(subst.get(t, t) for t in a.args)) for a in pattern}
    rows = sorted(facts, key=repr)
    if not rows or draw(st.booleans()):
        return kind, rows, draw(match_queries)
    picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
    renaming = {}
    for v in sorted({v for _, args in picked for v in args}, key=repr):
        kept = isinstance(v, Term) and v.is_const and draw(st.booleans())
        renaming[v] = v if kept else draw(match_vars)
    atoms = dict.fromkeys(Atom(pred, tuple(renaming[v] for v in args)) for pred, args in picked)
    return kind, rows, list(atoms)


def _bindings(found) -> list[frozenset]:
    return [frozenset(b.items()) for b in found]


@settings(max_examples=400)
@given(match_cases())
def test_homomorphisms_match_backtracking_reference(case):
    _, facts, atoms = case
    got = _bindings(_homomorphisms(atoms, _Relations(facts)))
    want = set(_bindings(homomorphisms_by_backtracking(atoms, facts)))
    assert len(got) == len(set(got)) and set(got) == want


@settings(max_examples=400)
@given(match_cases())
def test_boolean_verdicts_match_backtracking_reference(case):
    """`chase_satisfies` on the stored rows of every kind, and `eval_cq` on
    the ABox rows, answer whether the reference finds a homomorphism."""
    kind, facts, atoms = case
    want = any(True for _ in homomorphisms_by_backtracking(atoms, facts))
    query = ConjunctiveQuery(frozenset(atoms))
    assert chase_satisfies(ChaseStructure(frozenset(facts), {}), query) == want
    if kind == "abox":
        assert eval_cq(query, ABox.of(Atom(pred, args) for pred, args in facts)) == want


def test_match_cases_reach_constants_repeats_disjoint_atoms_nulls_and_variables():
    """The draws above cover matched queries with a constant, with a
    repeated variable and with variable-disjoint atoms, chase rows holding
    nulls that a match uses, and quotient rows holding variables that a
    match uses."""

    def values(case):
        _, facts, atoms = case
        return [v for b in homomorphisms_by_backtracking(atoms, facts) for v in b.values()]

    def repeats(atoms):
        terms = [t for a in atoms for t in a.args if t.is_var]
        return len(terms) > len(set(terms))

    def disconnected(atoms):
        reached, rest = set(), list(atoms)
        grown = [rest.pop()]
        while grown:
            reached |= {t for t in grown.pop().args if t.is_var}
            grown += [a for a in rest if reached & set(a.args)]
            rest = [a for a in rest if not reached & set(a.args)]
        return bool(rest)

    shapes = [
        ("abox", lambda atoms, vs: vs and any(t.is_const for a in atoms for t in a.args)),
        ("abox", lambda atoms, vs: vs and repeats(atoms)),
        ("abox", lambda atoms, vs: vs and disconnected(atoms)),
        ("chase", lambda atoms, vs: any(isinstance(v, Null) for v in vs)),
        ("quotient", lambda atoms, vs: any(isinstance(v, Term) and v.is_var for v in vs)),
    ]
    for kind, shaped in shapes:
        find(
            match_cases(),
            lambda c: c[0] == kind and shaped(c[2], values(c)),
            # a witness, not a small one
            settings=settings(phases=[Phase.generate], max_examples=1000),
        )


def join_by_nested_loops(v1, r1, v2, r2) -> set[frozenset]:
    """Reference natural join: every pair of rows that agree on the shared
    variables, as bindings."""
    out = set()
    for a in r1:
        for b in r2:
            binding = dict(zip(v1, a))
            if all(binding.setdefault(x, y) == y for x, y in zip(v2, b)):
                out.add(frozenset(binding.items()))
    return out


join_terms = [var(n) for n in "XYZW"]
join_values = [const(n) for n in "abc"]


@st.composite
def join_cases(draw):
    """Two row sets over variable tuples that are drawn freely, identical,
    permuted or disjoint; small value domains so that many rows match."""
    v1 = tuple(draw(st.lists(st.sampled_from(join_terms), unique=True, max_size=3)))
    shape = draw(st.sampled_from(["free", "identical", "permuted", "disjoint"]))
    if shape == "identical":
        v2 = v1
    elif shape == "permuted":
        v2 = tuple(draw(st.permutations(v1)))
    else:
        pool = join_terms if shape == "free" else [x for x in join_terms if x not in v1]
        v2 = tuple(draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)))

    def rows(v):
        return draw(st.sets(st.tuples(*[st.sampled_from(join_values)] * len(v)), max_size=15))

    return v1, rows(v1), v2, rows(v2)


@settings(max_examples=300)
@given(join_cases())
def test_join_matches_nested_loops_whichever_side_is_smaller(case):
    v1, r1, v2, r2 = case
    want = join_by_nested_loops(v1, r1, v2, r2)
    # both argument orders, so the smaller side is indexed on either side
    for a, b in ((v1, r1), (v2, r2)), ((v2, r2), (v1, r1)):
        out_vars, rows = reasoner._join(*a, *b)
        if set(a[0]) != set(b[0]):
            assert out_vars == a[0] + tuple(x for x in b[0] if x not in a[0])
        assert sorted(out_vars) == sorted(set(v1) | set(v2))
        assert all(len(r) == len(out_vars) for r in rows)
        assert {frozenset(zip(out_vars, r)) for r in rows} == want


def test_eval_cq_never_multiplies_disjoint_components(monkeypatch):
    """Each variable-connected component is decided on its own: no two row
    sets that share no variable are ever joined."""
    join = reasoner._join

    def no_product(v1, r1, v2, r2):
        assert any(x in v1 for x in v2), f"product of {v1} and {v2}"
        return join(v1, r1, v2, r2)

    monkeypatch.setattr(reasoner, "_join", no_product)
    a_atoms = [Atom("A", (const(f"a{i}"),)) for i in range(2000)]
    b_atoms = [Atom("B", (const(f"b{i}"),)) for i in range(2000)]
    query = q("A(X), B(Y)")
    verdicts = [eval_cq(query, ABox.of(atoms)) for atoms in (a_atoms + b_atoms, a_atoms, b_atoms)]
    assert verdicts == [True, False, False]
    chase = chase_bounded(parse_tbox("A [= ex R"), ABox.of(a_atoms + b_atoms), 1)
    assert chase_satisfies(chase, q("R(X,Y), B(Z)"))
    assert chase_satisfies(chase, q("R(X,Y), A(X), B(Z)"))
    assert not chase_satisfies(chase, q("R(X,Y), A(Y), B(Z)"))


def test_boolean_verdicts_stop_at_the_first_witness(monkeypatch):
    """A Boolean verdict probes the last step of its join and builds no
    join: `A(X), B(X)` over 2000 + 2000 atoms, and the supplier `qib-fo`
    sentence of `Supplier(X), ProjB(X)`, whose first disjunct is `ProjA(V1)
    AND ProjB(V1) AND NOT ProjB(V1) AND NOT ProjA(V1)`, are answered without
    calling `_join`."""

    tbox = parse_tbox("ProjA [= Supplier\nProjB [= Supplier")
    policy = parse_policy("denial :- ProjA(X), ProjB(X)")
    # compiled first: the conflict patterns' minimality check joins
    sentence = qib_rewrite(q("Supplier(X), ProjB(X)"), tbox, policy)

    def no_join(v1, r1, v2, r2):
        raise AssertionError(f"join of {v1} and {v2}")

    monkeypatch.setattr(reasoner, "_join", no_join)
    monkeypatch.setattr(rewriting, "_join", no_join)
    shared = [Atom(p, (const(f"c{i}"),)) for p in "AB" for i in range(2000)]
    apart = [Atom(p, (const(f"{p}{i}"),)) for p in "AB" for i in range(2000)]
    assert [eval_cq(q("A(X), B(X)"), ABox.of(atoms)) for atoms in (shared, apart)] == [True, False]

    kinds = {"a": ["ProjA"], "b": ["ProjB"], "ab": ["ProjA", "ProjB"], "s": ["Supplier"]}
    atoms = [Atom(p, (const(f"{k}{i}"),)) for k, ps in kinds.items() for p in ps for i in range(1000)]
    only_both = [a for a in atoms if not a.args[0].name.startswith("b")]
    assert [eval_fo(sentence, ABox.of(data)) for data in (atoms, only_both)] == [True, False]


def test_join_order_does_not_depend_on_the_order_of_the_parts():
    """Equal-sized parts are ordered by their sorted variables and then
    their variable tuple, so the planner gives one variable order for the
    same parts in any order."""
    X, Y, Z = var("X"), var("Y"), var("Z")
    rows = [{(const("a"), const("b")), (const("b"), const("a"))}, {(const("a"),), (const("b"),)}]
    parts = [((X, Y), rows[0]), ((Y, X), rows[0]), ((Y,), rows[1]), ((X,), rows[1]),
             ((Z, X), rows[0]), ((Z,), rows[1])]

    def orders(parts):
        plan = reasoner._plan(parts)
        return [[v for v, _ in c] for c in plan], [v for v, _ in reasoner._components(parts)]

    want = orders(parts)
    assert want[0] == [[(X,), (X, Y), (Y, X), (Z, X), (Y,), (Z,)]]
    for seed in range(20):
        shuffled = parts[:]
        random.Random(seed).shuffle(shuffled)
        assert orders(shuffled) == want


# --- perfect reformulation -------------------------------------------------------


def test_perfect_ref_no_axioms_is_identity():
    t = parse_tbox("")
    query = q("A(c)")
    assert perfect_ref(query, t) == frozenset({query})


def test_perfect_ref_concept_inclusions():
    t = parse_tbox("ProjA [= Supplier\nProjB [= Supplier")
    rewritten = perfect_ref(q("Supplier(X)"), t)
    preds = {a.predicate for r in rewritten for a in r.atoms}
    assert preds == {"Supplier", "ProjA", "ProjB"}
    assert len(rewritten) == 3


def test_perfect_ref_existential_axiom():
    t = parse_tbox("A [= ex R")
    rewritten = perfect_ref(q("R(X,Y)"), t)
    assert _canonical_cq(q("A(X)")) in rewritten
    assert any(len(r.atoms) == 1 and next(iter(r.atoms)).predicate == "R" for r in rewritten)


def test_perfect_ref_existential_blocked_by_shared_variable():
    # the join variable Y is shared, so the existential axiom never applies
    # and the query rewrites to itself only
    t = parse_tbox("A [= ex R")
    query = q("R(X,Y), B(Y)")
    assert perfect_ref(query, t) == frozenset({_canonical_cq(query)})


def test_perfect_ref_reduce_enables_existential():
    # unifying the two role atoms frees the join variable
    t = parse_tbox("A [= ex R")
    rewritten = perfect_ref(q("R(X,Y), R(X,Z)"), t)
    assert _canonical_cq(q("A(X)")) in rewritten


def test_cq_entailed_running_example():
    t = parse_tbox("ProjA [= Supplier")
    a = parse_abox("ProjA(c)")
    assert cq_entailed(t, a, q("Supplier(c)"))


def test_cq_entailed_empty():
    assert not cq_entailed(parse_tbox(""), parse_abox(""), q("A(X)"))


def test_cq_entailed_anonymous_witness():
    t = parse_tbox("A [= ex R")
    a = parse_abox("A(c)")
    assert cq_entailed(t, a, q("R(X,Y)"))


def test_cq_entailed_requires_consistency():
    t = parse_tbox("A [= -B")
    a = parse_abox("A(c)\nB(c)")
    with pytest.raises(InconsistentOntologyError):
        cq_entailed(t, a, q("A(c)"))


# --- closure -----------------------------------------------------------------


def test_closure_single_inclusion():
    t = parse_tbox("ProjA [= Supplier")
    a = parse_abox("ProjA(c)")
    assert abox_closure(t, a).atoms == frozenset(
        {Atom("ProjA", (const("c"),)), Atom("Supplier", (const("c"),))}
    )


def test_closure_empty():
    assert len(abox_closure(parse_tbox("A [= B"), parse_abox(""))) == 0


def test_closure_existential_adds_no_ground_atom():
    t = parse_tbox("A [= ex R")
    a = parse_abox("A(c)")
    assert abox_closure(t, a) == a


def test_closure_role_subsumption_and_inverse():
    t = parse_tbox("role R [= S-\nex S [= C")
    a = parse_abox("R(a,b)")
    closed = abox_closure(t, a)
    assert Atom("S", (const("b"), const("a"))) in closed
    assert Atom("C", (const("b"),)) in closed


def closure_by_atoms(tbox: TBox, abox: ABox) -> frozenset[Atom]:
    """The reference for `abox_closure` on a consistent input: the named
    facts that each atom entails alone, atom by atom, each built as a
    checked `Atom`.  A role fact entails its role subsumers and the atomic
    subsumers of its domain and range; a concept fact entails its atomic
    subsumers."""
    maps = saturate_tbox(tbox)
    out = set(abox.atoms)
    for atom in abox.atoms:
        pred, args = atom
        if len(args) == 2:
            for sup in maps.role_subsumers.get(RoleExpr(pred), ()):
                out.add(Atom(sup.name, args[::-1] if sup.inverse else args))
            realized = [(exists(pred), args[0]), (exists_inv(pred), args[1])]
        else:
            realized = [(atomic(pred), args[0])]
        for b, u in realized:
            for sup in maps.concept_subsumers.get(b, ()):
                if sup.kind == "atomic":
                    out.add(Atom(sup.name, (u,)))
    return frozenset(out)


def _signed(text: str) -> TBox:
    """A hand-written TBox over the concepts A, B, C and the roles P, Q."""
    return TBox.of(parse_tbox(text).axioms, "ABC", "PQ")


# the cases the fact rules must get right beside the drawn TBoxes: a
# symmetric role, an inverse role subsumer, the atomic subsumers of a range
# and of a domain, and unsatisfiable expressions that the data does or does
# not realize
HAND_TBOXES = [
    _signed("role P [= P-"),
    _signed("role P [= Q-\nex Q [= A"),
    _signed("ex P- [= A\nex Q [= B\nrole Q [= P"),
    _signed("C [= -C\nA [= C\nex P [= B"),
    _signed("role Q [= -Q\nrole P [= Q-\nA [= B"),
]


@st.composite
def closure_cases(draw):
    """A drawn `random_tbox` or a hand-written TBox, and an ABox of up to
    six atoms over its names and three constants."""
    t = draw(
        st.one_of(
            st.integers(0, 2**20).map(lambda seed: random_tbox(random.Random(seed))),
            st.sampled_from(HAND_TBOXES),
        )
    )
    terms = st.sampled_from([const(c) for c in "abc"])
    atoms = st.builds(lambda c, x: Atom(c, (x,)), st.sampled_from(sorted(t.concept_names)), terms)
    if t.role_names:
        roles = st.builds(
            lambda r, x, y: Atom(r, (x, y)), st.sampled_from(sorted(t.role_names)), terms, terms
        )
        atoms = st.one_of(atoms, roles)
    return t, ABox.of(draw(st.lists(atoms, max_size=6)))


@settings(max_examples=400)
@given(closure_cases())
def test_abox_closure_and_chase_match_the_per_atom_reference(case):
    t, a = case
    if not is_consistent(t, a):
        with pytest.raises(InconsistentOntologyError):
            abox_closure(t, a)
        return
    closure = abox_closure(t, a)
    assert closure.atoms == closure_by_atoms(t, a)
    assert chase_bounded(t, a, 3).named_part() == closure


def test_closure_cases_reach_every_hand_written_tbox():
    """The draws above derive atoms under each hand-written TBox, and meet
    the unsatisfiable expressions both realized and not."""
    adds = lambda case: is_consistent(*case) and abox_closure(*case) != case[1]
    for t in HAND_TBOXES:
        find(closure_cases(), lambda case, t=t: case[0] == t and adds(case))
    for t in HAND_TBOXES[3:]:
        find(closure_cases(), lambda case, t=t: case[0] == t and not is_consistent(*case))


@pytest.mark.parametrize(
    "tbox, data, derived",
    [
        (HAND_TBOXES[0], "P(a,b)\nQ(b,c)", "P(b,a)"),
        (HAND_TBOXES[1], "P(a,b)\nQ(b,c)", "Q(b,a)\nA(b)"),
        (HAND_TBOXES[2], "P(a,b)\nQ(b,c)", "P(b,c)\nA(b)\nA(c)\nB(b)"),
        # C and A are unsatisfiable, and neither is realized
        (HAND_TBOXES[3], "P(a,b)\nQ(b,c)", "B(a)"),
        # Q is unsatisfiable, and so is P, whose inverse Q subsumes
        (HAND_TBOXES[4], "A(a)\nC(b)", "B(a)"),
    ],
)
def test_closure_under_hand_written_tboxes(tbox, data, derived):
    a = parse_abox(data)
    assert abox_closure(tbox, a).atoms - a.atoms == parse_abox(derived).atoms


@pytest.mark.parametrize("tbox, data", [(HAND_TBOXES[3], "A(a)"), (HAND_TBOXES[4], "P(a,b)")])
def test_closure_refuses_a_realized_unsatisfiable_expression(tbox, data):
    with pytest.raises(InconsistentOntologyError):
        abox_closure(tbox, parse_abox(data))


def test_closure_validates_a_programmatic_name_when_its_rule_applies():
    for axiom, data, name in (
        (ConceptInclusion(atomic("A"), atomic("bad name")), "A(c)", "bad name"),
        (RoleInclusion(RoleExpr("P"), RoleExpr("1P", True)), "P(c,d)", "1P"),
        (ConceptInclusion(exists_inv("P"), atomic("_B")), "P(c,d)", "_B"),
    ):
        t = TBox.of([axiom])
        a = parse_abox(data)
        with pytest.raises(ValueError, match=f"^bad predicate name: {name!r}$"):
            closure_by_atoms(t, a)
        with pytest.raises(ValueError, match=f"^bad predicate name: {name!r}$"):
            abox_closure(t, a)
        # a rule that no fact reads is not applied, so it raises nothing,
        # also after the consistency check has looked its predicate up
        other = parse_abox("C(c)\nQ(c,d)")
        assert abox_closure(t, other) is other
        read = axiom.lhs if isinstance(axiom, ConceptInclusion) else axiom.lhs.domain()
        t = TBox.of([axiom, ConceptInclusion(read, atomic("D"), True)])
        other = parse_abox("C(c)\nQ(c,d)")
        assert is_consistent(t, other) and abox_closure(t, other) is other


def test_closure_fixpoint_and_monotone():
    rng = random.Random(11)
    for seed in range(30):
        t, _, a = random_instance(seed, n_atoms=7)
        closed = abox_closure(t, a)
        assert a.atoms <= closed.atoms
        assert abox_closure(t, closed) == closed
        # monotonicity on a random subset
        sub = ABox(frozenset(x for x in a.atoms if rng.random() < 0.5))
        assert abox_closure(t, sub).atoms <= closed.atoms


# --- consistency -----------------------------------------------------------------


def test_inconsistent_direct_disjointness():
    t = parse_tbox("A [= -B")
    assert not is_consistent(t, parse_abox("A(c)\nB(c)"))
    assert is_consistent(t, parse_abox("A(c)"))


def test_consistent_policy_only_conflict():
    t = parse_tbox("ProjA [= Supplier\nProjB [= Supplier")
    a = parse_abox("ProjA(c)\nProjB(c)")
    assert is_consistent(t, a)


def test_role_disjointness_violation():
    t = parse_tbox("role R [= -S")
    assert not is_consistent(t, parse_abox("R(a,b)\nS(a,b)"))
    assert is_consistent(t, parse_abox("R(a,b)\nS(b,a)"))


def test_consistency_reads_the_data_without_rewriting():
    t = parse_tbox("A [= -B\nrole R [= -S-\nex R- [= -C")
    before = perfect_ref.cache_info()
    assert not is_consistent(t, parse_abox("A(c)\nB(c)"))
    assert not is_consistent(t, parse_abox("R(a,b)\nS(b,a)"))
    assert not is_consistent(t, parse_abox("R(a,b)\nC(b)"))
    assert is_consistent(t, parse_abox("R(a,b)\nS(a,b)\nC(a)"))
    assert perfect_ref.cache_info() == before


def test_entailed_disjointness_violation():
    t = parse_tbox("A [= B\nB [= -C\nD [= C")
    assert not is_consistent(t, parse_abox("A(x)\nD(x)".replace("x", "c")))


def test_policy_consistency_running_example(supplier_tbox, supplier_policy, supplier_abox):
    assert not is_policy_consistent(supplier_tbox, supplier_policy, supplier_abox)


def test_policy_consistency_empty_policy(supplier_tbox, supplier_abox):
    from cqelite.model import Policy

    assert is_policy_consistent(supplier_tbox, Policy.of(), supplier_abox)


def test_policy_violated_by_anonymous_edge():
    t = parse_tbox("A [= ex R")
    p = parse_policy("denial :- R(X,Y)")
    a = parse_abox("A(c)")
    assert not is_policy_consistent(t, p, a)


# --- chase -------------------------------------------------------------------


def test_chase_single_step():
    t = parse_tbox("A [= ex R")
    ch = chase_bounded(t, parse_abox("A(c)"), 1)
    roles = [x for x in ch.atoms if x[0] == "R"]
    assert len(roles) == 1
    (pred, (u, n)) = roles[0]
    assert u == const("c") and isinstance(n, Null)
    assert ch.depth[n] == 1


def test_chase_depth_zero_is_closure():
    for seed in range(20):
        t, _, a = random_instance(seed, n_atoms=6)
        ch = chase_bounded(t, a, 0)
        assert ch.named_part() == abox_closure(t, a)


def test_chase_two_step_path():
    t = parse_tbox("A [= ex R\nex R- [= A")
    ch = chase_bounded(t, parse_abox("A(c)"), 2)
    nulls_at = {}
    for (pred, args) in ch.atoms:
        for x in args:
            if isinstance(x, Null):
                nulls_at.setdefault(ch.depth[x], set()).add(x)
    assert len(nulls_at[1]) == 1 and len(nulls_at[2]) == 1
    (n1,) = nulls_at[1]
    assert ("A", (n1,)) in ch.atoms


def test_chase_respects_depth_bound():
    t = parse_tbox("A [= ex R\nex R- [= A")
    ch = chase_bounded(t, parse_abox("A(c)"), 3)
    assert max(ch.depth.values()) == 3


def test_chase_entails_deep_chain():
    # entailment that needs more chase depth than the query size
    t = parse_tbox("A [= ex R\nex R- [= B\nB [= ex S\nex S- [= C")
    a = parse_abox("A(c)")
    assert chase_entails(t, a, q("C(X)"))
    assert not chase_satisfies(chase_bounded(t, a, 1), q("C(X)"))


def test_perfect_ref_agrees_with_chase_on_randoms():
    rng = random.Random(2024)
    for seed in range(150):
        t, _, a = random_instance(seed, n_atoms=6)
        query = random_bcq(rng, t)
        assert cq_entailed(t, a, query) == chase_entails(t, a, query), (seed, query)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_atoms=st.integers(0, 6),
    n_consts=st.integers(1, 4),
    n_roles=st.integers(0, 2),
    query_seed=st.integers(0, 10_000),
)
def test_cq_entailed_matches_chase_on_drawn_instances(seed, n_atoms, n_consts, n_roles, query_seed):
    t, _, a = random_instance(seed, n_roles=n_roles, n_atoms=n_atoms, n_consts=n_consts)
    query = random_bcq(random.Random(query_seed), t, n_consts=n_consts)
    assert cq_entailed(t, a, query) == chase_entails(t, a, query)

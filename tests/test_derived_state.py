"""What the reasoner derives from an ABox is memoized on the ABox value:
computed once per value, shared by every semantics asked of it, never
carried to an equal but distinct value, and gone with the value."""

import copy
import gc
import pickle
import random
import weakref

import pytest

from cqelite import (
    ABox,
    Atom,
    ConceptInclusion,
    ConjunctiveQuery,
    InconsistentOntologyError,
    SizeGuardError,
    TBox,
    abox_closure,
    atomic,
    const,
    cq_entailed,
    eval_cq,
    eval_fo,
    iar_repair,
    ib_entail,
    is_consistent,
    is_policy_consistent,
    opt_ga_censor,
    parse_abox,
    parse_policy,
    parse_tbox,
    qib_entail,
    qib_entail_bruteforce,
    qib_rewrite,
    secrets,
    var,
)
from cqelite.censors import hidden_rows, repair_rows
from cqelite.gen import random_bcq, random_instance
from cqelite.reasoner import _Relations, _abox_relations, closure_rows

from conftest import q
from test_reasoner import closure_by_atoms

SUPPLIER_TBOX = "ProjA [= Supplier\nProjB [= Supplier"
SUPPLIER_POLICY = "denial :- ProjA(X), ProjB(X)"


def test_closure_is_its_input_when_nothing_is_added():
    t = parse_tbox("A [= B")
    a = parse_abox("B(c)\nC(d)")
    assert abox_closure(t, a) is a
    b = parse_abox("A(c)")
    assert abox_closure(t, b) is not b
    assert abox_closure(t, b) is abox_closure(t, b)


def test_repair_is_the_closure_when_there_is_no_secret():
    t = parse_tbox(SUPPLIER_TBOX)
    p = parse_policy(SUPPLIER_POLICY)
    a = parse_abox("ProjA(c)\nProjB(d)")
    assert secrets(t, p, a) == frozenset()
    assert iar_repair(t, p, a) is abox_closure(t, a)
    b = parse_abox("ProjA(c)\nProjB(c)")
    assert iar_repair(t, p, b).atoms == parse_abox("Supplier(c)").atoms


def test_equal_values_do_not_share_and_compare_as_before():
    t = parse_tbox(SUPPLIER_TBOX)
    a = parse_abox("ProjA(c)")
    closure = abox_closure(t, a)
    before = abox_closure.cache_info()
    assert abox_closure(t, a) is closure
    twin = ABox(a.atoms)
    assert abox_closure(t, twin) == closure and abox_closure(t, twin) is not closure
    after = abox_closure.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 1)
    # the memo is no part of the value, and copies do not carry it
    assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    for other in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert other == a and "_derived" not in vars(other)
        assert abox_closure(t, other) == closure


def test_closure_and_repair_inherit_their_row_sets():
    t = parse_tbox(SUPPLIER_TBOX + "\nrole R [= S-\nex S [= Supplier")
    p = parse_policy(SUPPLIER_POLICY)
    a = parse_abox("ProjA(c)\nProjB(c)\nProjA(d)\nR(c,d)\nS(e,c)\nSupplier(e)")
    before = abox_closure.cache_info()
    closure = abox_closure(t, a)
    middle = abox_closure.cache_info()
    assert (middle.hits - before.hits, middle.misses - before.misses) == (0, 1)
    assert abox_closure(t, a) is closure
    after = abox_closure.cache_info()
    assert (after.hits - middle.hits, after.misses - middle.misses) == (1, 0)
    repair = iar_repair(t, p, a)
    assert closure != a and repair != closure
    for x in (closure, repair):
        before = _abox_relations.cache_info()
        rel = _abox_relations(x)
        after = _abox_relations.cache_info()
        # handed over, not grouped again
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        keys = {(atom.predicate, atom.arity) for atom in x} | {("Absent", 1), ("R", 1)}
        for key in sorted(keys):
            assert rel.row_set(*key) == _Relations(x.atoms).row_set(*key), key


def test_derived_state_dies_with_the_abox():
    t = parse_tbox(SUPPLIER_TBOX)
    p = parse_policy(SUPPLIER_POLICY)
    # the second ABox is its own closure and repair
    for text in ("ProjA(c)\nProjB(c)\nProjA(d)", "Supplier(c)"):
        a = parse_abox(text)
        closure, repair = abox_closure(t, a), iar_repair(t, p, a)
        assert qib_entail(t, p, a, q("Supplier(c)"))
        refs = [weakref.ref(x) for x in (a, closure, repair)]
        gc.collect()
        gc.disable()
        try:
            # the memo makes no reference cycle, so counting references frees it
            del a, closure, repair
            assert [r() for r in refs] == [None, None, None], text
        finally:
            gc.enable()


def test_semantics_share_the_secrets_of_one_abox():
    t = parse_tbox(SUPPLIER_TBOX)
    p = parse_policy(SUPPLIER_POLICY)
    a = parse_abox("ProjA(c)\nProjB(c)\nProjA(d)")
    counted = (hidden_rows, secrets)
    before = [f.cache_info() for f in counted]
    assert qib_entail(t, p, a, q("ProjA(d)"))
    assert not qib_entail(t, p, a, q("ProjA(c)"))
    assert not ib_entail(t, p, a, q("ProjA(c)"))
    assert len(opt_ga_censor(t, p, a)) == 4
    after = [f.cache_info() for f in counted]
    deltas = [(x.hits - y.hits, x.misses - y.misses) for x, y in zip(after, before)]
    # the qib verdicts read the hidden rows once, and ib and the greedy
    # censor share one computation of the secrets
    assert deltas == [(0, 1), (1, 1)]


def _answers(t, p, a, queries) -> list:
    """Everything asked of one ABox under one TBox and policy, with a
    refused question recorded by the name of its error."""

    def ask(f):
        try:
            return f()
        except (InconsistentOntologyError, SizeGuardError) as exc:
            return type(exc).__name__

    out = [
        ask(lambda: is_consistent(t, a)),
        ask(lambda: is_policy_consistent(t, p, a)),
        ask(lambda: abox_closure(t, a)),
        ask(lambda: secrets(t, p, a)),
        ask(lambda: iar_repair(t, p, a)),
        ask(lambda: opt_ga_censor(t, p, a)),
    ]
    for query in queries:
        out += [
            ask(lambda: cq_entailed(t, a, query)),
            ask(lambda: ib_entail(t, p, a, query)),
            ask(lambda: qib_entail(t, p, a, query)),
            ask(lambda: eval_fo(qib_rewrite(query, t, p), a)),
        ]
    return out


def test_one_abox_under_other_tboxes_and_policies_answers_as_fresh_values():
    asked = 0
    for seed in range(40):
        t1, p1, a = random_instance(seed)
        t2, p2, _ = random_instance(seed + 1000)
        rng = random.Random(seed)
        queries = {t: [random_bcq(rng, t) for _ in range(2)] for t in (t1, t2)}
        for t, p in ((t1, p1), (t2, p2), (t1, p2), (t2, p1), (t1, p1)):
            shared = _answers(t, p, a, queries[t])
            assert shared == _answers(t, p, ABox(a.atoms), queries[t]), seed
            asked += "InconsistentOntologyError" not in shared
    assert asked > 100


def test_closure_shares_the_row_sets_it_did_not_derive():
    t = parse_tbox(SUPPLIER_TBOX)
    a = parse_abox("ProjA(c)\nProjB(c)\nProjB(d)\nSupplier(e)")
    raw, closure = _abox_relations(a), closure_rows(t, a)
    # nothing is frozen before it is read
    assert all(type(rows) is list for rows in raw.groups.values())
    # one set per group, whichever store reads it first
    assert raw.row_set("ProjA", 1) is closure.row_set("ProjA", 1)
    assert closure.row_set("ProjB", 1) is raw.row_set("ProjB", 1)
    assert type(raw.groups[("Supplier", 1)]) is list
    assert closure.row_set("Supplier", 1) == {(const(x),) for x in "cde"}
    assert raw.row_set("Supplier", 1) == {(const("e"),)}
    # the repair reads the closure's sets of the groups it does not change
    p = parse_policy(SUPPLIER_POLICY)
    repair = repair_rows(t, p, a)
    assert repair.row_set("Supplier", 1) is closure.row_set("Supplier", 1)
    assert repair.row_set("ProjB", 1) == {(const("d"),)}


def test_rows_of_one_name_are_split_by_arity():
    c, d = const("c"), const("d")
    a = ABox.of([Atom("A", (c,)), Atom("A", (c, d)), Atom("A", (d, d)), Atom("B", (d,))])
    rel = _Relations(a.atoms)
    assert sorted(rel.groups) == [("A", 1), ("A", 2), ("B", 1)]
    assert rel.row_set("A", 1) == {(c,)}
    assert rel.row_set("A", 2) == {(c, d), (d, d)}
    assert rel.row_set("B", 1) == {(d,)} and rel.row_set("B", 2) == frozenset()
    smaller = rel.minus({("A", 2): {(c, d)}})
    assert smaller.row_set("A", 2) == {(d, d)} and smaller.row_set("A", 1) == {(c,)}
    x, y = var("X"), var("Y")
    bodies = ([Atom("A", (x,)), Atom("A", (x, y))], [Atom("A", (x,)), Atom("A", (y, x))])
    assert [eval_cq(ConjunctiveQuery(frozenset(b)), a) for b in bodies] == [True, False]


def _keys(*stores) -> set:
    return {key for rel in stores for key in rel.all_groups()}


def test_row_stores_match_the_atom_path_on_randoms():
    """`closure_rows` against the atom-by-atom reference, and `repair_rows`
    against the materialized repair, on the instances of criterion 4."""
    consistent = 0
    for seed in range(40_000, 40_300):
        t, p, a = random_instance(seed, n_atoms=8, n_consts=3)
        if not is_consistent(t, a):
            with pytest.raises(InconsistentOntologyError):
                closure_rows(t, a)
            continue
        consistent += 1
        closure, reference = closure_rows(t, a), _Relations(closure_by_atoms(t, a))
        for key in sorted(_keys(closure, reference) | {("Absent", 1)}):
            assert closure.row_set(*key) == reference.row_set(*key), (seed, key)
        repair, atoms = repair_rows(t, p, a), _Relations(iar_repair(t, p, a).atoms)
        for key in sorted(_keys(repair, atoms, closure)):
            assert repair.row_set(*key) == atoms.row_set(*key), (seed, key)
    assert consistent > 200


# name: (TBox, policy, ABox, atoms the repair keeps, whether the rewritings
# are uniform so that the hidden rows are read with no secret built)
PINNED_POLICIES = {
    # the image {S(c,c)} is a secret and lies in S(c,d)'s image of the body
    "path": ("", "denial :- S(X,Y), S(Y,Z)", "S(c,c)\nS(c,d)", "S(c,d)", False),
    "nested": ("", "denial :- A(X)\ndenial :- A(X), B(X)", "A(c)\nB(c)\nB(d)", "B(c)\nB(d)",
               False),
    # unified, the body is one atom: every S atom is a secret
    "unified": ("", "denial :- S(X,Y), S(Z,Y)", "S(c,e)\nS(d,e)\nS(f,g)\nA(c)", "A(c)", False),
    "constant": ("B [= A", "denial :- S(X,c), A(X)", "S(e,c)\nS(f,d)\nB(e)\nB(g)\nA(f)",
                 "S(f,d)\nA(f)\nB(g)\nA(g)", True),
    "product": ("", "denial :- A(X), B(Y)", "A(c)\nA(d)\nB(e)\nC(c)", "C(c)", True),
    "supplier": (SUPPLIER_TBOX, SUPPLIER_POLICY, "ProjA(c)\nProjB(c)\nProjA(d)",
                 "Supplier(c)\nProjA(d)\nSupplier(d)", True),
}


@pytest.mark.parametrize(
    "tbox, policy, abox, kept, uniform", PINNED_POLICIES.values(), ids=PINNED_POLICIES.keys()
)
def test_hidden_rows_match_the_secrets(tbox, policy, abox, kept, uniform):
    """`repair_rows` against the repair built from the secrets' atoms, and
    `qib` against its oracle on every closure atom and a two-atom query,
    with and without the uniform shortcut."""
    t, p, a = parse_tbox(tbox), parse_policy(policy), parse_abox(abox)
    before = secrets.cache_info().misses
    repair = repair_rows(t, p, a)
    assert secrets.cache_info().misses - before == (0 if uniform else 1)
    assert iar_repair(t, p, a).atoms == parse_abox(kept).atoms
    atoms = _Relations(iar_repair(t, p, a).atoms)
    for key in sorted(_keys(repair, atoms, closure_rows(t, a))):
        assert repair.row_set(*key) == atoms.row_set(*key), key
    queries = [ConjunctiveQuery(frozenset([x])) for x in abox_closure(t, a)]
    for query in queries + [q("S(X,Y), A(Y)"), q("A(X), B(X)")]:
        assert qib_entail(t, p, a, query) == qib_entail_bruteforce(t, p, a, query), query


def test_qib_on_the_repair_rows_matches_the_bruteforce_oracle():
    rng = random.Random(40_000)
    checked = 0
    for seed in range(40_000, 40_300):
        t, p, a = random_instance(seed, n_atoms=8, n_consts=3)
        query = random_bcq(rng, t)
        if not is_consistent(t, a):
            continue
        try:
            brute = qib_entail_bruteforce(t, p, a, query)
        except SizeGuardError:
            continue
        assert qib_entail(t, p, a, query) == brute, seed
        checked += 1
    assert checked > 150


def test_qib_matches_the_closed_form_over_supplier_revisions():
    """A supplier ABox revised 15 times: after each revision, a fresh ABox
    value, `qib` holds of a constant exactly what its kind keeps in the
    repair, and the repair's rows are exactly those."""
    kinds = {"a": ("ProjA",), "b": ("ProjB",), "ab": ("ProjA", "ProjB"), "s": ("Supplier",)}
    closed = {
        "a": {"ProjA", "Supplier"},
        "b": {"ProjB", "Supplier"},
        "ab": {"Supplier"},
        "s": {"Supplier"},
    }
    t, p = parse_tbox(SUPPLIER_TBOX), parse_policy(SUPPLIER_POLICY)
    rng = random.Random(22)
    kind = {f"c{i}": rng.choice(sorted(kinds)) for i in range(24)}

    def atoms_of(c):
        return {Atom(pred, (const(c),)) for pred in kinds[kind[c]]}

    a = ABox.of(x for c in kind for x in atoms_of(c))
    fresh = len(kind)
    for _ in range(15):
        gone = rng.sample(sorted(kind), 4)
        deleted = {x for c in gone for x in atoms_of(c)}
        for c in gone:
            del kind[c]
        for _ in range(4):
            kind[f"c{fresh}"] = rng.choice(sorted(kinds))
            fresh += 1
        inserted = {x for c in kind for x in atoms_of(c)} - a.atoms
        a = ABox((a.atoms - deleted) | inserted)
        rel = repair_rows(t, p, a)
        for pred in ("ProjA", "ProjB", "Supplier"):
            members = {c for c in kind if pred in closed[kind[c]]}
            assert rel.row_set(pred, 1) == {(const(c),) for c in members}, pred
            for c in kind:
                assert qib_entail(t, p, a, q(f"{pred}({c})")) == (c in members), (pred, c)
        for pair in (("ProjA", "ProjB"), ("Supplier", "ProjB")):
            want = any(set(pair) <= closed[k] for k in kind.values())
            assert qib_entail(t, p, a, q(f"{pair[0]}(X), {pair[1]}(X)")) == want, pair


def test_a_qib_verdict_builds_no_atoms():
    t = parse_tbox(SUPPLIER_TBOX + "\nrole R [= S-\nex S [= Supplier")
    p = parse_policy(SUPPLIER_POLICY)
    a = parse_abox("ProjA(c)\nProjB(c)\nProjA(d)\nR(c,d)\nS(e,c)")
    counted = (abox_closure, iar_repair, secrets, hidden_rows)
    before = [f.cache_info() for f in counted]
    assert qib_entail(t, p, a, q("Supplier(c)")) and not qib_entail(t, p, a, q("ProjA(c)"))
    after = [f.cache_info() for f in counted]
    deltas = [(x.hits - y.hits, x.misses - y.misses) for x, y in zip(after, before)]
    # the supplier denial's rewritings are uniform: no secret image is built
    assert deltas == [(0, 0), (0, 0), (0, 0), (0, 1)]
    assert "_derived" in vars(a) and all(
        not isinstance(v, ABox) for v in a.__dict__["_derived"].values()
    )


def test_a_qib_verdict_keeps_its_refusals():
    t, p = parse_tbox("A [= -B"), parse_policy("denial :- A(X), C(X)")
    with pytest.raises(InconsistentOntologyError):
        qib_entail(t, p, parse_abox("A(c)\nB(c)"), q("A(c)"))
    # a programmatic name is validated when its rule applies, and only then,
    # with or without a negative inclusion on the rule's predicate
    bad = ConceptInclusion(atomic("C"), atomic("bad name"))
    for axioms in ([bad], [ConceptInclusion(atomic("C"), atomic("D"), True), bad]):
        t = TBox.of(axioms)
        with pytest.raises(ValueError, match="^bad predicate name: 'bad name'$"):
            qib_entail(t, p, parse_abox("C(c)"), q("C(c)"))
        assert qib_entail(t, p, parse_abox("A(c)"), q("A(c)"))

"""What the reasoner derives from an ABox is memoized on the ABox value:
computed once per value, shared by every semantics asked of it, never
carried to an equal but distinct value, and gone with the value."""

import copy
import gc
import pickle
import random
import weakref

from cqelite import (
    ABox,
    InconsistentOntologyError,
    SizeGuardError,
    abox_closure,
    cq_entailed,
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
    qib_rewrite,
    secrets,
)
from cqelite.gen import random_bcq, random_instance
from cqelite.reasoner import _Relations, _abox_relations

from conftest import q

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
    before = secrets.cache_info()
    assert qib_entail(t, p, a, q("ProjA(d)"))
    assert not ib_entail(t, p, a, q("ProjA(c)"))
    assert len(opt_ga_censor(t, p, a)) == 4
    after = secrets.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 1)


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

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cqelite import (
    ABox,
    Atom,
    ConjunctiveQuery,
    Denial,
    Policy,
    UnboundVariableError,
    abox_closure,
    atom_rewr,
    const,
    cq_entailed,
    eval_fo,
    iar_repair,
    iar_rewrite,
    parse_abox,
    parse_policy,
    parse_tbox,
    qib_entail,
    qib_entail_bruteforce,
    qib_rewrite,
    qib_rewrite_report,
    serialize_fo,
    var,
)
from cqelite.model import (
    And,
    AtomNode,
    Eq,
    Exists,
    Not,
    Or,
    TRUE,
    Truth,
    cq_to_fo,
    free_variables,
    node_count,
)
from cqelite import reasoner, rewriting
from cqelite.rewriting import _Evaluator
from cqelite.gen import CONST_POOL, random_bcq, random_fo_sentence, random_instance
from cqelite.parser import serialize_query

from conftest import q


X, Y = var("X"), var("Y")


def A(name, *args):
    return AtomNode(Atom(name, tuple(args)))


# --- evaluation -----------------------------------------------------------------


def test_eval_fo_disjunction():
    node = Exists(X, Or((A("ProjA", X), A("ProjB", X))))
    assert eval_fo(node, parse_abox("ProjB(c)"))


def test_eval_fo_negation_over_empty_abox():
    node = Not(Exists(X, A("ProjA", X)))
    assert eval_fo(node, parse_abox(""))


def test_eval_fo_negated_conjunct():
    node = Exists(X, And((A("A", X), Not(A("B", X)))))
    assert eval_fo(node, parse_abox("A(a)\nB(a)\nA(b)"))
    assert not eval_fo(node, parse_abox("A(a)\nB(a)"))


def test_eval_fo_equality():
    a = parse_abox("R(a,b)\nR(c,c)")
    same = Exists(X, Exists(Y, And((A("R", X, Y), Eq(X, Y)))))
    diff = Exists(X, Exists(Y, And((A("R", X, Y), Not(Eq(X, Y))))))
    assert eval_fo(same, a)
    assert eval_fo(diff, a)
    assert not eval_fo(same, parse_abox("R(a,b)"))


def test_eval_fo_constants_outside_domain():
    assert not eval_fo(A("A", const("zz")), parse_abox("A(a)"))
    assert eval_fo(Not(A("A", const("zz"))), parse_abox("A(a)"))


def test_eval_fo_vacuous_quantifier_needs_nonempty_domain():
    node = Exists(X, TRUE)
    assert eval_fo(node, parse_abox("A(a)"))
    assert not eval_fo(node, parse_abox(""))


def test_eval_fo_rejects_open_formulas():
    with pytest.raises(UnboundVariableError):
        eval_fo(A("A", X), parse_abox("A(a)"))
    # the same node is rejected again, not only on its first evaluation
    node = Exists(X, And((A("R", X, Y), Not(A("B", X)))))
    for _ in range(2):
        with pytest.raises(UnboundVariableError, match="free variables: Y"):
            eval_fo(node, parse_abox("R(a,b)"))


def test_eval_fo_walks_a_sentence_once(monkeypatch):
    node = Exists(X, And((A("A", X), Not(A("B", X)))))
    walked = []

    def counting(n):
        walked.append(n)
        return free_variables(n)

    monkeypatch.setattr(rewriting, "free_variables", counting)
    a = parse_abox("A(a)\nB(b)")
    assert [eval_fo(node, a), eval_fo(node, a), eval_fo(node, parse_abox("B(a)"))] == [True, True, False]
    assert [n for n in walked if n is node] == [node]


def test_eval_fo_memo_leaves_the_node_value_alone():
    def build():
        return Exists(X, Or((A("ProjA", X), And((A("ProjB", X), Not(Eq(X, const("c"))))))))

    node, twin = build(), build()
    before = (hash(node), repr(node), serialize_fo(node))
    assert eval_fo(node, parse_abox("ProjB(d)"))
    assert node == twin and twin == node
    assert (hash(node), repr(node), serialize_fo(node)) == before
    assert (hash(twin), repr(twin), serialize_fo(twin)) == before
    # only the node handed to eval_fo keeps the memo, not its subtrees
    assert vars(node.body).keys() == {"children"}


def naive_truth(node, abox, binding):
    """Direct recursive evaluation with explicit assignments: the oracle for
    the set-based evaluator."""
    if isinstance(node, AtomNode):
        ground = Atom(
            node.atom.predicate,
            tuple(binding.get(t, t) for t in node.atom.args),
        )
        return ground in abox.atoms
    if isinstance(node, And):
        return all(naive_truth(c, abox, binding) for c in node.children)
    if isinstance(node, Or):
        return any(naive_truth(c, abox, binding) for c in node.children)
    if isinstance(node, Not):
        return not naive_truth(node.body, abox, binding)
    if isinstance(node, Exists):
        return any(
            naive_truth(node.body, abox, {**binding, node.variable: c})
            for c in sorted(abox.constants())
        )
    if isinstance(node, Eq):
        l = binding.get(node.left, node.left)
        r = binding.get(node.right, node.right)
        return l == r
    return node.value


def test_eval_fo_matches_bruteforce_on_randoms():
    rng = random.Random(5)
    for seed in range(120):
        t, _, a = random_instance(seed, n_atoms=5)
        sentence = random_fo_sentence(rng, t)
        assert eval_fo(sentence, a) == naive_truth(sentence, a, {}), (seed, sentence)


Z = var("Z")
_CONSTS = [const("a"), const("b"), const("c")]
_PREDS = [("A", 1), ("B", 1), ("R", 2), ("S", 2)]


@st.composite
def small_sentences(draw, depth=3):
    """Sentences over A, B, R, S with equality and truth constants, whose
    quantifiers may reuse a variable name and whose disjuncts may share
    variables, in any order, or none."""

    def term(bound):
        return draw(st.sampled_from(bound + _CONSTS))

    def go(depth, bound):
        kinds = ["atom", "atom", "eq", "truth"]
        if depth:
            kinds += ["and", "or", "not", "exists", "exists"]
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            pred, arity = draw(st.sampled_from(_PREDS))
            return AtomNode(Atom(pred, tuple(term(bound) for _ in range(arity))))
        if kind == "eq":
            return Eq(term(bound), term(bound))
        if kind == "truth":
            return Truth(draw(st.booleans()))
        if kind == "not":
            return Not(go(depth - 1, bound))
        if kind == "exists":
            v = draw(st.sampled_from([X, Y, Z]))
            return Exists(v, go(depth - 1, bound + [v]))
        children = tuple(go(depth - 1, bound) for _ in range(draw(st.integers(2, 3))))
        return And(children) if kind == "and" else Or(children)

    return go(depth, [])


small_aboxes = st.sets(
    st.sampled_from(
        [Atom(p, (c,)) for p in ("A", "B") for c in _CONSTS[:2]]
        + [Atom(p, (c, d)) for p in ("R", "S") for c in _CONSTS[:2] for d in _CONSTS[:2]]
    ),
    max_size=5,
).map(ABox.of)


def _xy(body):
    return Exists(X, Exists(Y, body))


# the shapes the set-based paths single out: swapped role columns under AND
# and NOT, disjuncts over the same variables in another order, EXISTS over
# variable-disjoint disjuncts, a repeated variable, and equality and truth
# nodes; and those the existence test singles out: a positive conjunct
# negated over the same columns and over swapped ones, a cyclic body with a
# guard, a guard spanning two components, and a variable bound only by Eq
@settings(max_examples=150)
@example(Exists(X, And((A("A", X), A("B", X), Not(A("B", X)), Not(A("A", X))))), parse_abox("A(a)\nB(a)"))
@example(_xy(And((A("R", X, Y), Not(A("R", Y, X))))), parse_abox("R(a,b)"))
@example(_xy(And((A("R", X, Y), A("R", Y, X), Not(A("S", X, Y))))), parse_abox("R(a,b)\nR(b,a)\nS(a,b)\nS(b,a)"))
@example(_xy(And((A("A", X), A("B", Y), Not(A("R", X, Y))))), parse_abox("A(a)\nB(b)\nR(a,b)"))
@example(_xy(And((A("A", X), Eq(Y, const("b")), Not(A("R", X, Y))))), parse_abox("A(a)\nA(b)\nR(a,b)"))
@example(Exists(X, A("R", X, X)), parse_abox("R(a,b)"))
@example(_xy(And((A("R", X, Y), Not(A("S", Y, X))))), parse_abox("R(a,b)\nS(b,a)"))
@example(_xy(And((A("R", X, Y), A("S", Y, X)))), parse_abox("R(a,b)\nS(b,a)"))
@example(_xy(And((Or((A("R", X, Y), A("S", Y, X))), Not(A("R", Y, X))))), parse_abox("S(a,b)"))
@example(_xy(Or((A("A", X), A("B", Y)))), parse_abox("B(a)"))
@example(_xy(Or((A("A", X), Exists(Z, A("R", Y, Z))))), parse_abox("R(a,b)"))
@example(_xy(Or((A("A", X), TRUE))), parse_abox(""))
@example(_xy(And((A("R", X, Y), Not(Eq(X, Y)), Not(Truth(False))))), parse_abox("R(a,a)"))
@example(Exists(X, And((Eq(X, const("c")), TRUE))), parse_abox("A(a)"))
@given(sentence=small_sentences(), abox=small_aboxes)
def test_eval_fo_matches_bruteforce_on_drawn_sentences(sentence, abox):
    for ab in (abox, ABox.of()):
        assert eval_fo(sentence, ab) == naive_truth(sentence, ab, {})


def test_eval_fo_ground_atoms_read_the_stored_rows():
    # a ground atom is a lookup in its predicate's stored rows
    a, c = const("ground1"), const("ground2")
    abox = parse_abox("ProjA(ground1)\nProjB(ground2)\nR(ground1,ground2)")
    node = And((A("ProjA", a), Not(A("ProjB", a)), A("R", a, c), Not(A("R", c, a))))
    evaluator = _Evaluator(abox)
    assert evaluator.truth(node)
    assert not evaluator.truth(A("ProjB", a))
    assert not evaluator.truth(A("R", a, a))


def test_guards_are_read_once_the_positives_have_a_row(monkeypatch):
    rows = _Evaluator.rows
    read = []

    def counting(self, node):
        read.append(node)
        return rows(self, node)

    monkeypatch.setattr(_Evaluator, "rows", counting)
    guard = Exists(Y, A("C", X, Y))
    node = Exists(X, Exists(Y, And((A("A", X), A("R", X, Y), Not(guard)))))
    # both positives have rows, but their join has none
    assert not eval_fo(node, parse_abox("A(a)\nR(b,c)\nC(a,a)"))
    assert guard not in read
    assert eval_fo(node, parse_abox("A(a)\nR(a,c)\nC(b,b)"))
    assert guard in read
    assert not eval_fo(node, parse_abox("A(a)\nR(a,c)\nC(a,b)"))


def test_eval_fo_disjoint_disjuncts_are_never_spread(monkeypatch):
    """ROADMAP item 5: each disjunct is decided over its own variables, so
    no rows over pairs of constants are built."""
    spread = _Evaluator._spread

    def no_fill(self, v, rows, out_vars):
        missing = [x for x in out_vars if x not in v]
        assert not missing, f"spread {v} over {missing}"
        return spread(self, v, rows, out_vars)

    monkeypatch.setattr(_Evaluator, "_spread", no_fill)
    node = Exists(X, Exists(Y, Or((A("A", X), A("B", Y)))))
    consts = [const(f"c{i}") for i in range(2000)]
    only_a = ABox.of(Atom("A", (c,)) for c in consts)
    only_b = ABox.of(Atom("B", (c,)) for c in consts)
    assert [eval_fo(node, ab) for ab in (only_a, only_b, ABox.of())] == [True, True, False]


def test_eval_fo_joins_conjuncts_one_connected_component_at_a_time(monkeypatch):
    """The positive conjuncts of a conjunction are joined in the matcher's
    order: `A` and `B` are the smallest, but they share no variable, so
    `A(X), R(X,Y), B(Y)` joins `R` before it meets `B` and never builds
    `A` x `B`.  The same holds for the query's `qib` rewriting, where the
    TBox puts an `Or` under the conjunction and the policy a negated
    guard."""
    join = reasoner._join

    def no_product(v1, r1, v2, r2):
        assert any(x in v1 for x in v2), f"product of {v1} and {v2}"
        return join(v1, r1, v2, r2)

    monkeypatch.setattr(reasoner, "_join", no_product)
    monkeypatch.setattr(rewriting, "_join", no_product)
    query = q("A(X), R(X,Y), B(Y)")
    t, p = parse_tbox("C [= A"), parse_policy("denial :- B(X), D(X)")
    sentences = [cq_to_fo(query), qib_rewrite(query, t, p)]
    atoms = [Atom("A", (const(f"a{i}"),)) for i in range(300)]
    atoms += [Atom("B", (const(f"b{i}"),)) for i in range(300)]
    atoms += [Atom("R", (const(f"a{i % 300}"), const(f"r{i}"))) for i in range(3000)]
    edge = Atom("R", (const("a7"), const("b9")))
    for abox, want in ((ABox.of(atoms + [edge]), True), (ABox.of(atoms), False)):
        assert [eval_fo(s, abox) for s in sentences] == [want, want]


# --- subsumption expansion ----------------------------------------------------------


def test_atom_rewr_two_subsumers():
    t = parse_tbox("A [= C\nB [= C")
    node = atom_rewr(cq_to_fo(q("C(X), P(X,Y)")), t)
    # logically equivalent to EXISTS X,Y . (C(X) OR A(X) OR B(X)) AND P(X,Y):
    # exhaustive agreement over all tiny ABoxes
    expected = lambda ab: eval_fo(cq_to_fo(q("C(X), P(X,Y)")), abox_closure(t, ab))
    consts = [const("u"), const("v")]
    unary = [Atom(p, (c,)) for p in ("A", "B", "C") for c in consts]
    binary = [Atom("P", (c, d)) for c in consts for d in consts]
    pool = unary + binary
    for mask in range(1 << len(pool)):
        ab = ABox(frozenset(x for i, x in enumerate(pool) if mask >> i & 1))
        assert eval_fo(node, ab) == expected(ab)


def test_atom_rewr_no_axioms_is_identity_up_to_structure():
    t = parse_tbox("")
    node = cq_to_fo(q("A(c)"))
    assert atom_rewr(node, t) == node


def test_atom_rewr_inverse_existential():
    t = parse_tbox("ex R- [= A")
    node = atom_rewr(A("A", const("c")), t)
    rendered = serialize_fo(node)
    assert "A(c)" in rendered
    assert "R(X_v1,c)" in rendered
    for ab_text, want in (("A(c)", True), ("R(d,c)", True), ("R(c,d)", False), ("", False)):
        assert eval_fo(node, parse_abox(ab_text)) == want


def test_atom_rewr_role_atom_includes_inverse_subroles():
    t = parse_tbox("role S [= R-")
    node = atom_rewr(cq_to_fo(q("R(X,Y)")), t)
    assert eval_fo(node, parse_abox("S(a,b)"))
    assert not eval_fo(node, parse_abox(""))


def test_atom_rewr_witness_never_captures_the_atoms_own_term():
    """Expanding `A(X_v1)` under `ex R [= A` binds a fresh witness around
    `R(X_v1, _)`; reusing the name `X_v1` there would turn it into the
    loop `R(X_v1, X_v1)`."""
    t = parse_tbox("ex R [= A")
    node = Exists(var("X_v1"), A("A", var("X_v1")))
    rewritten = atom_rewr(node, t)
    assert serialize_fo(rewritten) == "EXISTS X_v1 . (A(X_v1) OR (EXISTS X_v2 . R(X_v1,X_v2)))"
    abox = parse_abox("R(a,b)")
    assert eval_fo(node, abox_closure(t, abox))
    assert eval_fo(rewritten, abox)


def test_eval_transfer_property():
    rng = random.Random(9)
    for seed in range(150):
        t, _, a = random_instance(seed, n_atoms=6)
        sentence = random_fo_sentence(rng, t)
        closed = abox_closure(t, a)
        assert eval_fo(sentence, closed) == eval_fo(atom_rewr(sentence, t), a), seed


# --- repair-aware reformulation --------------------------------------------------------


def test_iar_rewrite_running_example_guards(supplier_tbox, supplier_policy):
    node = iar_rewrite(q("Supplier(X)"), supplier_tbox, supplier_policy)
    rendered = serialize_fo(node)
    # the Supplier disjunct is unguarded; ProjA/ProjB disjuncts carry the
    # opposite-project guard
    assert "Supplier(V1)" in rendered
    assert "ProjA(V1) AND (NOT ProjB(V1))" in rendered
    assert "ProjB(V1) AND (NOT ProjA(V1))" in rendered


def test_iar_rewrite_empty_policy_is_plain_union(supplier_tbox):
    from cqelite.model import Policy

    node = iar_rewrite(q("Supplier(X)"), supplier_tbox, Policy.of())
    assert "NOT" not in serialize_fo(node)


def test_iar_rewrite_on_closure_matches_repair(supplier_tbox, supplier_policy, supplier_abox):
    closure = abox_closure(supplier_tbox, supplier_abox)
    got_a = eval_fo(iar_rewrite(q("ProjA(c)"), supplier_tbox, supplier_policy), closure)
    got_s = eval_fo(iar_rewrite(q("Supplier(X)"), supplier_tbox, supplier_policy), closure)
    assert got_a is False
    assert got_s is True


def test_iar_rewrite_collapse_counterexample():
    # a naive per-atom guard would block R(a,b) here via the collapsed
    # match of the two-atom denial onto R(a,a)
    t = parse_tbox("")
    p = parse_policy("denial :- R(X,Y), R(Y,Z)")
    a = parse_abox("R(a,a)\nR(a,b)")
    node = iar_rewrite(q("R(U,V)"), t, p)
    assert eval_fo(node, a) is True
    assert qib_entail(t, p, a, q("R(U,V)")) is True
    # and the self-loop itself stays hidden
    node_loop = iar_rewrite(q("R(U,U)"), t, p)
    assert eval_fo(node_loop, a) is False


def test_iar_rewrite_long_pattern_collapse():
    # a three-atom denial whose collapsed matches must defer to the reduced
    # one- and two-atom patterns
    t = parse_tbox("")
    p = parse_policy("denial :- R(X,Y), R(Y,Z), R(Z,W)")
    a = parse_abox("R(a,a)\nR(a,b)")
    query = q("R(U,V)")
    assert qib_entail(t, p, a, query) is True
    assert eval_fo(qib_rewrite(query, t, p), a) is True
    chain = parse_abox("R(a,b)\nR(b,c)\nR(c,d)")
    assert qib_entail(t, p, chain, query) is False
    assert eval_fo(qib_rewrite(query, t, p), chain) is False


def test_iar_rewrite_oracle_equivalence_over_closures():
    rng = random.Random(31)
    for seed in range(60):
        t, p, a = random_instance(seed, n_atoms=5)
        query = random_bcq(rng, t)
        closure = abox_closure(t, a)
        want = cq_entailed(t, iar_repair(t, p, a), query)
        assert eval_fo(iar_rewrite(query, t, p), closure) == want, seed


def test_guard_soundness_hidden_atoms_never_witness():
    """If every entailing subset intersects the hidden atoms, the rewriting
    must answer false over the closure."""
    rng = random.Random(32)
    for seed in range(40):
        t, p, a = random_instance(seed, n_atoms=5)
        query = random_bcq(rng, t)
        closure = abox_closure(t, a)
        repair = iar_repair(t, p, a)
        if not cq_entailed(t, repair, query):
            assert not eval_fo(iar_rewrite(query, t, p), closure), seed


# --- composed reformulation ---------------------------------------------------------


def test_qib_rewrite_running_example(supplier_tbox, supplier_policy, supplier_abox):
    node_s = qib_rewrite(q("Supplier(c)"), supplier_tbox, supplier_policy)
    node_a = qib_rewrite(q("ProjA(c)"), supplier_tbox, supplier_policy)
    assert eval_fo(node_s, supplier_abox) is True
    assert eval_fo(node_a, supplier_abox) is False


def test_qib_rewrite_empty_policy_is_certain_answers():
    t = parse_tbox("A [= B")
    from cqelite.model import Policy

    node = qib_rewrite(q("B(X)"), t, Policy.of())
    for text in ("A(c)", "B(c)", ""):
        a = parse_abox(text)
        assert eval_fo(node, a) == cq_entailed(t, a, q("B(X)"))


def test_qib_rewrite_agreement_on_randoms():
    rng = random.Random(33)
    for seed in range(60):
        t, p, a = random_instance(seed, n_atoms=5)
        query = random_bcq(rng, t)
        assert eval_fo(qib_rewrite(query, t, p), a) == qib_entail(t, p, a, query), seed


@given(
    instance=st.builds(
        lambda seed, n_atoms, n_consts: random_instance(seed, n_atoms=n_atoms, n_consts=n_consts),
        st.integers(0, 10_000),
        st.integers(0, 5),
        st.integers(1, 4),
    ),
    query_seed=st.integers(0, 10_000),
)
def test_qib_semantic_rewriting_and_bruteforce_agree(instance, query_seed):
    t, p, a = instance
    query = random_bcq(random.Random(query_seed), t)
    want = qib_entail_bruteforce(t, p, a, query)
    assert qib_entail(t, p, a, query) == want
    assert eval_fo(qib_rewrite(query, t, p), a) == want


def test_qib_rewrite_checks_policy_precondition(supplier_tbox):
    # loadability cannot fail for this language; the gate itself is exercised
    # via the public entry point on a loadable policy
    node = qib_rewrite(q("Supplier(c)"), supplier_tbox, parse_policy("denial :- Q(X)"))
    assert node is not None


def test_report_independent_of_abox(supplier_tbox, supplier_policy):
    node1, rep1 = qib_rewrite_report(q("Supplier(X)"), supplier_tbox, supplier_policy)
    node2, rep2 = qib_rewrite_report(q("Supplier(X)"), supplier_tbox, supplier_policy)
    assert node1 == node2
    assert rep1 == rep2
    assert rep1.node_count == node_count(node1)
    assert rep1.perfect_ref_size == 3
    assert rep1.guard_count == 2
    assert rep1.input_query == "q :- Supplier(X)"


def test_serialization_is_deterministic(supplier_tbox, supplier_policy):
    first = serialize_fo(qib_rewrite(q("Supplier(X)"), supplier_tbox, supplier_policy))
    second = serialize_fo(qib_rewrite(q("Supplier(X)"), supplier_tbox, supplier_policy))
    assert first == second


# --- the compile cache ------------------------------------------------------------


def test_qib_rewrite_reads_the_report_cache(supplier_tbox, supplier_policy):
    query = q("Supplier(X), ProjB(X)")
    assert qib_rewrite(query, supplier_tbox, supplier_policy) is qib_rewrite_report(
        query, supplier_tbox, supplier_policy
    )[0]


def test_compile_cache_is_bounded_and_counts_hits(supplier_tbox, supplier_policy):
    query = q("ProjA(X)")
    qib_rewrite_report(query, supplier_tbox, supplier_policy)
    info = qib_rewrite_report.cache_info()
    assert info.maxsize == 1024
    qib_rewrite_report(query, supplier_tbox, supplier_policy)
    again = qib_rewrite_report.cache_info()
    assert (again.hits, again.misses) == (info.hits + 1, info.misses)


def test_a_fresh_compile_gives_the_same_sentence_and_report(supplier_tbox, supplier_policy):
    query = q("Supplier(X), ProjA(X)")
    cached_node, cached_report = qib_rewrite_report(query, supplier_tbox, supplier_policy)
    qib_rewrite_report.cache_clear()
    rewriting._compile.cache_clear()
    node, report = qib_rewrite_report(query, supplier_tbox, supplier_policy)
    assert node is not cached_node
    assert serialize_fo(node).encode() == serialize_fo(cached_node).encode()
    assert report == cached_report


def test_iar_rewrite_is_not_cached(supplier_tbox, supplier_policy):
    query = q("Supplier(X)")
    info = qib_rewrite_report.cache_info()
    first = iar_rewrite(query, supplier_tbox, supplier_policy)
    second = iar_rewrite(query, supplier_tbox, supplier_policy)
    assert first == second and first is not second
    assert qib_rewrite_report.cache_info() == info


def test_cached_sentences_agree_with_qib_on_distinct_aboxes():
    # a memo that leaked from one ABox to another would show up as a
    # verdict that disagrees with qib_entail on the copy or the sub-ABox
    rng = random.Random(40_000)
    cases = []
    for seed in range(40_000, 40_060):
        t, p, a = random_instance(seed, n_atoms=8, n_consts=3)
        cases.append((t, p, a, random_bcq(rng, t)))

    def one_pass(aboxes):
        return [
            (eval_fo(qib_rewrite(query, t, p), a), qib_entail(t, p, a, query))
            for (t, p, _, query), a in zip(cases, aboxes)
        ]

    originals = [a for _, _, a, _ in cases]
    first = one_pass(originals)
    assert all(fo == semantic for fo, semantic in first)
    twins = [ABox(a.atoms) for a in originals]
    assert all(twin == a and twin is not a for twin, a in zip(twins, originals))
    info = qib_rewrite_report.cache_info()
    assert one_pass(twins) == first
    after = qib_rewrite_report.cache_info()
    assert (after.hits, after.misses) == (info.hits + len(cases), info.misses)
    smaller = one_pass([ABox.of(a.sorted_atoms()[1:]) for a in originals])
    assert all(fo == semantic for fo, semantic in smaller)


# --- one compile per shape --------------------------------------------------------


def _uncached(query, t, p):
    """The sentence and report of a direct compile, through no cache."""
    iar_node, pr_size, guard_count = rewriting._build_iar(query, t, p)
    node = atom_rewr(iar_node, t)
    report = rewriting.RewritingReport(
        serialize_query(query).strip(), pr_size, guard_count, node_count(node)
    )
    return serialize_fo(node).encode(), report


def _renamed(atoms, names):
    return frozenset(
        Atom(a.predicate, tuple(names.get(t, t) for t in a.args)) for a in atoms
    )


def test_renamed_constants_compile_to_the_uncached_sentence():
    """Each instance of the qib-fo agreement draw, under three injective
    renamings of its constants: permutations, and suffixes such as r9 and
    r10 that reorder names, since the template keeps only their order."""
    rng = random.Random(40_000)
    renaming = random.Random(24)
    mismatches = []
    for seed in range(40_000, 40_300):
        t, p, _ = random_instance(seed, n_atoms=8, n_consts=3)
        query = random_bcq(rng, t)
        atoms = list(query.atoms) + [a for d in p.denials for a in d.body]
        consts = sorted({x for a in atoms for x in a.args if x.is_const})
        for _ in range(3):
            bases = renaming.sample(CONST_POOL, len(consts))
            suffixes = renaming.sample(["", "r9", "r10", "x", "k0"], len(consts))
            names = {c: const(b + s) for c, b, s in zip(consts, bases, suffixes)}
            q2 = ConjunctiveQuery(_renamed(query.atoms, names))
            p2 = Policy.of(Denial(_renamed(d.body, names)) for d in p.denials)
            node, report = qib_rewrite_report(q2, t, p2)
            if (serialize_fo(node).encode(), report) != _uncached(q2, t, p2):
                mismatches.append((seed, names))
    assert mismatches == []


def test_a_renamed_query_and_policy_compile_once(supplier_tbox):
    rewriting._compile.cache_clear()
    qib_rewrite_report.cache_clear()
    policy = parse_policy("denial :- ProjA(c), ProjB(X)")
    qib_rewrite_report(q("Supplier(d), ProjA(X)"), supplier_tbox, policy)
    assert rewriting._compile.cache_info()[:2] == (0, 1)
    renamed_query = q("Supplier(f), ProjA(X)")
    renamed_policy = parse_policy("denial :- ProjA(e), ProjB(X)")
    node, report = qib_rewrite_report(renamed_query, supplier_tbox, renamed_policy)
    assert rewriting._compile.cache_info()[:2] == (1, 1)
    assert qib_rewrite_report.cache_info()[:2] == (0, 2)
    assert (serialize_fo(node).encode(), report) == _uncached(
        renamed_query, supplier_tbox, renamed_policy
    )


def test_eleven_placeholders_sort_as_their_constants(supplier_tbox, supplier_policy):
    # k00 ... k10: without the zero padding k10 would sort before k2
    query = q(", ".join(f"C({c}), R({c},X)" for c in "abcdefghijk"))
    node, report = qib_rewrite_report(query, supplier_tbox, supplier_policy)
    assert (serialize_fo(node).encode(), report) == _uncached(query, supplier_tbox, supplier_policy)


@pytest.mark.parametrize(
    "atoms",
    [
        # an uppercase constant sorts before a variable's name
        [Atom("R", (const("Bob"), Y)), Atom("R", (Y, const("Bob")))],
        # a lowercase variable name, refused by the same check
        [Atom("R", (var("x"), const("z"))), Atom("R", (const("z"), var("x")))],
    ],
    ids=["uppercase-constant", "lowercase-variable"],
)
def test_names_outside_the_convention_compile_as_they_are(atoms):
    t = parse_tbox("role S [= R")
    p = parse_policy("denial :- R(X,Y), R(Y,X)")
    query = ConjunctiveQuery(frozenset(atoms))
    node, report = qib_rewrite_report(query, t, p)
    assert (serialize_fo(node).encode(), report) == _uncached(query, t, p)

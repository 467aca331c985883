import pytest

from cqelite import (
    ABox,
    Atom,
    ConceptInclusion,
    ConjunctiveQuery,
    TBox,
    atom_order_key,
    atomic,
    const,
    var,
)
from cqelite.model import Denial, free_variables, node_count
from cqelite.model import And, AtomNode, Exists, Not, fo_and, fo_or, TRUE, FALSE


def test_term_equality_by_kind_and_name():
    assert const("a") == const("a")
    assert const("a") != var("X")
    assert len({const("a"), const("a"), var("X")}) == 2


def test_term_rejects_bad_names():
    with pytest.raises(ValueError):
        const("")
    with pytest.raises(ValueError):
        const("1abc")
    with pytest.raises(ValueError):
        var("has space")


def test_atom_arity_bounds():
    a = const("a")
    with pytest.raises(ValueError):
        Atom("P", ())
    with pytest.raises(ValueError):
        Atom("P", (a, a, a))
    assert Atom("P", (a,)).arity == 1


def test_abox_rejects_non_ground():
    with pytest.raises(ValueError):
        ABox(frozenset({Atom("A", (var("X"),))}))


def test_denial_body_non_empty():
    with pytest.raises(ValueError):
        Denial(frozenset())


def test_cq_non_empty():
    with pytest.raises(ValueError):
        ConjunctiveQuery(frozenset())


def test_atom_order_predicate_then_arity_then_args():
    a = Atom("A", (const("b"),))
    b = Atom("A", (const("a"), const("z")))
    c = Atom("B", (const("a"),))
    # unary A(b) sorts before binary A(a,z); both before B
    assert sorted([c, b, a], key=atom_order_key) == [a, b, c]


def rebuild(t: TBox) -> TBox:
    return TBox.of(t.axioms, t.concept_names, t.role_names)


def test_tbox_of_dedups_and_is_idempotent():
    ax = ConceptInclusion(atomic("A"), atomic("B"))
    t = TBox.of([ax, ConceptInclusion(atomic("A"), atomic("B"))])
    n = rebuild(t)
    assert len(n.axioms) == 1
    assert rebuild(n) == n


def test_tbox_of_empty():
    assert rebuild(TBox.of()) == TBox.of()


def test_tbox_of_keeps_running_example_axioms():
    axioms = [
        ConceptInclusion(atomic("ProjA"), atomic("Supplier")),
        ConceptInclusion(atomic("ProjB"), atomic("Supplier")),
    ]
    n = rebuild(TBox.of(axioms))
    assert n.axioms == frozenset(axioms)
    assert n.concept_names == frozenset({"ProjA", "ProjB", "Supplier"})


def test_tbox_rejects_concept_role_clash():
    from cqelite import RoleExpr, RoleInclusion

    with pytest.raises(ValueError):
        TBox.of(
            [
                ConceptInclusion(atomic("P"), atomic("Q")),
                RoleInclusion(RoleExpr("P"), RoleExpr("R")),
            ]
        )


def test_value_semantics_for_sets():
    a1 = ABox.of([Atom("A", (const("c"),))])
    a2 = ABox.of([Atom("A", (const("c"),))])
    assert a1 == a2
    assert len({a1, a2}) == 1


def test_fo_helpers_collapse_trivial_cases():
    x = var("X")
    atom = AtomNode(Atom("A", (x,)))
    assert fo_and([]) == TRUE
    assert fo_or([]) == FALSE
    assert fo_and([atom]) == atom
    assert fo_or([atom]) == atom


def test_free_variables_and_node_count():
    x, y = var("X"), var("Y")
    body = And((AtomNode(Atom("A", (x,))), Not(AtomNode(Atom("R", (x, y))))))
    node = Exists(x, body)
    assert free_variables(node) == frozenset({y})
    assert free_variables(Exists(y, node)) == frozenset()
    assert node_count(Exists(y, node)) == 6


def test_exists_requires_variable():
    with pytest.raises(ValueError):
        Exists(const("a"), TRUE)

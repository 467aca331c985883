import copy
import pickle

import pytest

from cqelite import (
    ABox,
    Atom,
    ConceptInclusion,
    ConjunctiveQuery,
    RoleExpr,
    TBox,
    atom_order_key,
    atomic,
    const,
    var,
)
from cqelite.model import BasicConcept, Denial, Term, exists, exists_inv, free_variables, node_count
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


def value_pairs():
    """(value, an equal value built separately) for each of the four tuple
    types, and a plain tuple of the value's fields."""
    return [
        (const("a"), Term("const", "a"), ("const", "a")),
        (var("X"), Term(kind="var", name="X"), ("var", "X")),
        (Atom("R", (const("a"), var("X"))), Atom(predicate="R", args=(Term("const", "a"), Term("var", "X"))),
         ("R", (("const", "a"), ("var", "X")))),
        (atomic("A"), BasicConcept("atomic", "A"), ("atomic", "A")),
        (exists_inv("R"), BasicConcept(kind="exists_inv", name="R"), ("exists_inv", "R")),
        (RoleExpr("R"), RoleExpr(name="R", inverse=False), ("R", False)),
        (RoleExpr("R", inverse=True), RoleExpr("R", True), ("R", True)),
    ]


@pytest.mark.parametrize("value, twin, fields", value_pairs())
def test_tuple_values_compare_hash_and_dedupe_by_fields(value, twin, fields):
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    assert len({value, twin}) == 1 and {value: 1, twin: 2} == {value: 2}
    assert value == fields and hash(value) == hash(fields)
    assert type(twin) is type(value)


@pytest.mark.parametrize("value", [v for v, _, _ in value_pairs()])
def test_tuple_values_are_immutable(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.other = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", [v for v, _, _ in value_pairs()])
def test_tuple_values_survive_copy_deepcopy_and_pickle(value):
    for back in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert back == value and type(back) is type(value) and repr(back) == repr(value)


def test_tuple_values_keep_their_repr():
    assert repr(const("a")) == "a" and repr(var("X")) == "X"
    assert repr(Atom("R", (const("a"), var("X")))) == "R(a,X)"
    assert [repr(c) for c in (atomic("A"), exists("R"), exists_inv("R"))] == ["A", "ex R", "ex R-"]
    assert repr(RoleExpr("R")) == "R" and repr(RoleExpr("R", inverse=True)) == "R-"
    assert f"{Atom('A', (const('c'),))}" == "A(c)"


def test_tuple_values_sort_by_their_fields():
    terms = [var("A"), const("b"), const("a"), var("X")]
    assert sorted(terms) == [const("a"), const("b"), var("A"), var("X")]
    concepts = [exists_inv("A"), atomic("Z"), exists("B"), atomic("B")]
    assert sorted(concepts) == [atomic("B"), atomic("Z"), exists("B"), exists_inv("A")]
    roles = [RoleExpr("S"), RoleExpr("R", inverse=True), RoleExpr("R")]
    assert sorted(roles) == [RoleExpr("R"), RoleExpr("R", inverse=True), RoleExpr("S")]


def test_tuple_values_keep_their_methods():
    r = RoleExpr("R", inverse=True)
    assert r.inverted() == RoleExpr("R") and r.inverted().inverted() == r
    assert (r.domain(), r.range()) == (exists_inv("R"), exists("R"))
    assert (RoleExpr("R").domain(), RoleExpr("R").range()) == (exists("R"), exists_inv("R"))
    assert var("X").is_var and not var("X").is_const and const("a").is_const
    atom = Atom("R", (var("X"), const("a")))
    assert atom.arity == 2 and atom.variables() == frozenset({var("X")})


def test_tuple_values_validate_every_construction():
    with pytest.raises(ValueError, match="bad term kind"):
        Term("constant", "a")
    with pytest.raises(ValueError, match="bad term name"):
        Term(kind="var", name="_X")
    with pytest.raises(ValueError, match="bad predicate name"):
        Atom("1P", (const("a"),))
    with pytest.raises(ValueError, match="bad concept kind"):
        BasicConcept("exists_inverse", "R")
    # the namedtuple helpers build through the same checks
    with pytest.raises(ValueError, match="bad term name"):
        const("a")._replace(name="1a")
    with pytest.raises(ValueError, match="atom arity"):
        Atom._make(("P", ()))
    with pytest.raises(ValueError, match="bad concept kind"):
        atomic("A")._replace(kind="role")
    assert const("a")._replace(name="b") == const("b")


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
    from cqelite import RoleInclusion

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

import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from cqelite import (
    ABox,
    Atom,
    AtomOrder,
    InconsistentOntologyError,
    SizeGuardError,
    abox_closure,
    const,
    cq_entailed,
    enumerate_optimal_ga_censors,
    iar_repair,
    ib_entail,
    ib_entail_bruteforce,
    is_consistent,
    is_policy_consistent,
    opt_ga_censor,
    parse_abox,
    parse_policy,
    parse_tbox,
    qib_entail,
    qib_entail_bruteforce,
    secrets,
)
from cqelite.censors import _counter_censor, _keeps_policy
from cqelite.reasoner import _Relations, _images, denial_query, perfect_ref
from cqelite.model import Policy
from cqelite.gen import random_bcq, random_instance

from conftest import q


def atoms(text: str) -> frozenset:
    return parse_abox(text).atoms


# --- greedy censor ----------------------------------------------------------


def test_opt_ga_censor_running_example(supplier_tbox, supplier_policy, supplier_abox):
    censor = opt_ga_censor(supplier_tbox, supplier_policy, supplier_abox)
    assert censor.atoms == atoms("ProjA(c)\nSupplier(c)")


def test_opt_ga_censor_empty_policy_keeps_closure(supplier_tbox, supplier_abox):
    censor = opt_ga_censor(supplier_tbox, Policy.of(), supplier_abox)
    assert censor == abox_closure(supplier_tbox, supplier_abox)


def test_opt_ga_censor_reversed_order(supplier_tbox, supplier_policy, supplier_abox):
    closure = abox_closure(supplier_tbox, supplier_abox)
    reverse = AtomOrder.explicit(sorted(closure.atoms, key=repr, reverse=True))
    censor = opt_ga_censor(supplier_tbox, supplier_policy, supplier_abox, reverse)
    assert censor.atoms == atoms("ProjB(c)\nSupplier(c)")


def test_opt_ga_censor_rejects_bad_order(supplier_tbox, supplier_policy, supplier_abox):
    not_a_permutation = AtomOrder.explicit([Atom("ProjA", (const("c"),))])
    with pytest.raises(ValueError):
        opt_ga_censor(supplier_tbox, supplier_policy, supplier_abox, not_a_permutation)


def test_opt_ga_censor_checks_preconditions():
    t = parse_tbox("A [= -B")
    p = parse_policy("denial :- A(X)")
    with pytest.raises(InconsistentOntologyError):
        opt_ga_censor(t, p, parse_abox("A(c)\nB(c)"))


def greedy_by_prefix(t, p, a, order):
    """Reference greedy censor: the full consistency and policy check on
    every candidate prefix."""
    kept = frozenset()
    for alpha in order.arrange(abox_closure(t, a).atoms):
        if _keeps_policy(t, p, kept | {alpha}):
            kept = kept | {alpha}
    return ABox(kept)


def chain_instance(seed):
    """A width-3 chain denial over a small role ABox: secrets of three atoms,
    and collapsed matches whose images are not minimal."""
    rng = random.Random(seed)
    lines = {f"{rng.choice('RS')}({rng.choice('abc')},{rng.choice('abc')})" for _ in range(5)}
    return (
        parse_tbox("role R [= S"),
        parse_policy("denial :- S(X,Y), S(Y,Z), S(Z,W)"),
        parse_abox("\n".join(sorted(lines))),
    )


instances = st.one_of(
    st.builds(
        lambda seed, n_atoms, n_consts: random_instance(seed, n_atoms=n_atoms, n_consts=n_consts),
        st.integers(0, 10_000),
        st.integers(0, 10),
        st.integers(1, 4),
    ),
    st.builds(chain_instance, st.integers(0, 10_000)),
)


@settings(max_examples=80, deadline=None)
@given(instance=instances, data=st.data())
def test_opt_ga_censor_matches_prefix_reference(instance, data):
    t, p, a = instance
    closure = sorted(abox_closure(t, a).atoms, key=repr)
    shuffled = AtomOrder.explicit(data.draw(st.permutations(closure)))
    for order in (AtomOrder.lex(), shuffled):
        assert opt_ga_censor(t, p, a, order) == greedy_by_prefix(t, p, a, order)


def test_opt_ga_censor_runs_no_policy_check():
    # the greedy walk must stay on the secret hypergraph: a per-prefix policy
    # check would show up as cache traffic on a closure this large
    t = parse_tbox("ProjA [= Supplier\nProjB [= Supplier")
    p = parse_policy("denial :- ProjA(X), ProjB(X)")
    a = parse_abox("\n".join(f"ProjA(c{i})\nProjB(c{i})" for i in range(350)))
    closure = abox_closure(t, a)
    assert len(closure) >= 1000
    before = is_policy_consistent.cache_info()
    censor = opt_ga_censor(t, p, a)
    after = is_policy_consistent.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert len(censor) == len(closure) - 350


# --- enumeration -------------------------------------------------------------


def test_enumerate_running_example(supplier_tbox, supplier_policy, supplier_abox):
    censors = enumerate_optimal_ga_censors(supplier_tbox, supplier_policy, supplier_abox)
    assert {c.atoms for c in censors} == {
        atoms("ProjA(c)\nSupplier(c)"),
        atoms("ProjB(c)\nSupplier(c)"),
    }


def test_enumerate_empty_policy(supplier_tbox, supplier_abox):
    censors = enumerate_optimal_ga_censors(supplier_tbox, Policy.of(), supplier_abox)
    assert censors == frozenset({abox_closure(supplier_tbox, supplier_abox)})


def test_enumerate_lone_atom_denial():
    t = parse_tbox("")
    p = parse_policy("denial :- A(X)")
    a = parse_abox("A(c)")
    censors = enumerate_optimal_ga_censors(t, p, a)
    assert {c.atoms for c in censors} == {frozenset()}


def test_enumerate_size_guard():
    t = parse_tbox("")
    p = parse_policy("denial :- A(X), B(X)")
    a = ABox.of([Atom("A", (const(f"c{i}"),)) for i in range(6)])
    with pytest.raises(SizeGuardError):
        enumerate_optimal_ga_censors(t, p, a, limit=5)


def test_censor_safety_on_randoms():
    for seed in range(40):
        t, p, a = random_instance(seed, n_atoms=5)
        closure = abox_closure(t, a)
        for censor in enumerate_optimal_ga_censors(t, p, a):
            assert censor.atoms <= closure.atoms
            assert is_consistent(t, censor)
            assert is_policy_consistent(t, p, censor)


def test_algorithm_output_is_always_some_optimal_censor():
    for seed in range(25):
        t, p, a = random_instance(seed, n_atoms=5)
        censors = enumerate_optimal_ga_censors(t, p, a)
        assert opt_ga_censor(t, p, a) in censors


def test_every_optimal_censor_reachable_by_member_first_order():
    for seed in range(25):
        t, p, a = random_instance(seed, n_atoms=5)
        closure = abox_closure(t, a)
        for member in enumerate_optimal_ga_censors(t, p, a):
            rest = sorted(closure.atoms - member.atoms, key=repr)
            order = AtomOrder.explicit(sorted(member.atoms, key=repr) + rest)
            assert opt_ga_censor(t, p, a, order) == member


def test_order_coverage_exhaustive_small(supplier_tbox, supplier_policy, supplier_abox):
    closure = abox_closure(supplier_tbox, supplier_abox)
    outputs = {
        opt_ga_censor(supplier_tbox, supplier_policy, supplier_abox, AtomOrder.explicit(perm))
        for perm in permutations(closure.atoms)
    }
    assert outputs == enumerate_optimal_ga_censors(supplier_tbox, supplier_policy, supplier_abox)


# --- censor theories -----------------------------------------------------------


def test_cq_entailed_on_censor_representatives(supplier_tbox):
    yes = parse_abox("ProjA(c)\nSupplier(c)")
    no = parse_abox("ProjB(c)\nSupplier(c)")
    exists_proj_a = q("ProjA(X)")
    assert cq_entailed(supplier_tbox, yes, exists_proj_a)
    assert not cq_entailed(supplier_tbox, no, exists_proj_a)
    assert cq_entailed(supplier_tbox, yes, q("ProjA(c)"))


def test_ib_entail_running_example(supplier_tbox, supplier_policy, supplier_abox):
    assert ib_entail(supplier_tbox, supplier_policy, supplier_abox, q("Supplier(c)"))
    assert not ib_entail(supplier_tbox, supplier_policy, supplier_abox, q("ProjA(c)"))


def test_ib_entail_reduces_to_certain_when_nothing_hidden():
    t = parse_tbox("A [= B")
    p = parse_policy("denial :- C(X)")
    a = parse_abox("A(c)")
    for query in (q("B(c)"), q("C(c)"), q("A(X), B(X)")):
        assert ib_entail(t, p, a, query) == cq_entailed(t, a, query)


def test_ib_entail_matches_enumeration():
    """`ib_entail` against querying every enumerated optimal censor; when it
    says no, its counter-censor is an optimal censor that misses the query."""
    sizes = []

    @settings(max_examples=100, deadline=None)
    @given(
        instance=st.one_of(
            st.builds(
                lambda seed: random_instance(seed, n_atoms=8, n_consts=3), st.integers(0, 10_000)
            ),
            st.builds(chain_instance, st.integers(0, 10_000)),
        ),
        query_seed=st.integers(0, 10_000),
    )
    def check(instance, query_seed):
        t, p, a = instance
        assume(len(abox_closure(t, a)) <= 12)
        sizes.extend(len(s) for s in secrets(t, p, a))
        rng = random.Random(query_seed)
        for query in [random_bcq(rng, t) for _ in range(3)]:
            verdict = ib_entail(t, p, a, query)
            assert verdict == ib_entail_bruteforce(t, p, a, query)
            witness = _counter_censor(t, p, a, query)
            assert (witness is None) == verdict
            if witness is not None:
                assert witness in enumerate_optimal_ga_censors(t, p, a)
                assert not cq_entailed(t, witness, query)

    check()
    assert max(sizes) >= 3


def test_ib_entail_counter_censor_search():
    # secrets {A(c), B(c)} and {C(d), D(d)}: the censor keeping B(c) misses
    # A(c), and the component the query does not touch is completed greedily
    t = parse_tbox("")
    p = parse_policy("denial :- A(X), B(X)\ndenial :- C(X), D(X)")
    a = parse_abox("A(c)\nB(c)\nC(d)\nD(d)\nE(e)")
    assert not ib_entail(t, p, a, q("A(c)"))
    assert _counter_censor(t, p, a, q("A(c)")).atoms == atoms("B(c)\nC(d)\nE(e)")
    assert ib_entail(t, p, a, q("E(e)"))
    # every image is hidden, but every censor keeps one of them
    p = parse_policy("denial :- R(X,Y), R(Y,X)")
    a = parse_abox("R(c,d)\nR(d,c)")
    assert ib_entail(t, p, a, q("R(X,Y)"))
    assert not ib_entail(t, p, a, q("R(c,d)"))
    assert _counter_censor(t, p, a, q("R(X,Y)")) is None
    # a width-3 secret: the search may not keep both atoms of the query's image
    p = parse_policy("denial :- A(X), B(X), C(X)")
    a = parse_abox("A(c)\nB(c)\nC(c)")
    assert not ib_entail(t, p, a, q("A(c), B(c)"))
    assert _counter_censor(t, p, a, q("A(c), B(c)")).atoms == atoms("A(c)\nC(c)")


def test_ib_entail_runs_no_policy_check():
    # the counter-censor search stays on the secret hypergraph: a check of
    # candidate censors against the policy would show up as cache traffic
    t = parse_tbox("ProjA [= Supplier\nProjB [= Supplier")
    p = parse_policy("denial :- ProjA(X), ProjB(X)")
    a = parse_abox("ProjA(n1)\nProjB(n1)\nProjA(n2)\nProjB(n2)\nSupplier(n3)")
    before = is_policy_consistent.cache_info()
    assert ib_entail(t, p, a, q("Supplier(n1)"))
    assert not ib_entail(t, p, a, q("ProjA(n1)"))
    assert not ib_entail(t, p, a, q("ProjA(X), ProjB(Y)"))
    after = is_policy_consistent.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_ib_entail_checks_consistency_before_the_size_guard():
    t = parse_tbox("A [= -B")
    p = parse_policy("denial :- A(X), C(X)")
    inconsistent = parse_abox("A(c)\nB(c)\nC(d)\nC(e)")
    big = parse_abox("A(c)\nC(d)\nC(e)\nC(f)\nC(g)\nC(h)")
    for oracle in (ib_entail, ib_entail_bruteforce):
        with pytest.raises(InconsistentOntologyError):
            oracle(t, p, inconsistent, q("A(c)"), limit=1)
        with pytest.raises(SizeGuardError):
            oracle(t, p, big, q("A(c)"), limit=5)
        assert oracle(t, p, big, q("C(d)"), limit=6)


# --- secrets and repair -----------------------------------------------------------


def test_secrets_running_example(supplier_tbox, supplier_policy, supplier_abox):
    found = secrets(supplier_tbox, supplier_policy, supplier_abox)
    assert found == frozenset({atoms("ProjA(c)\nProjB(c)")})


def test_secrets_empty_policy(supplier_tbox, supplier_abox):
    assert len(secrets(supplier_tbox, Policy.of(), supplier_abox)) == 0


def test_secrets_anonymous_edge_and_direct_edge():
    t = parse_tbox("A [= ex R")
    p = parse_policy("denial :- R(X,Y)")
    a = parse_abox("A(c)\nR(d,e)")
    found = secrets(t, p, a)
    assert found == frozenset({atoms("A(c)"), atoms("R(d,e)")})


def test_secrets_non_minimal_images_are_dropped():
    # a collapsed match {R(a,a)} makes the longer image {R(a,a),R(a,b)}
    # non-minimal, so R(a,b) belongs to no secret
    t = parse_tbox("")
    p = parse_policy("denial :- R(X,Y), R(Y,Z)")
    a = parse_abox("R(a,a)\nR(a,b)")
    found = secrets(t, p, a)
    assert found == frozenset({atoms("R(a,a)")})
    assert iar_repair(t, p, a).atoms == atoms("R(a,b)")
    # a longer denial's image holds a shorter one's with no image in between
    p = parse_policy("denial :- A(X)\ndenial :- A(X), R(X,Y), B(Y)")
    a = parse_abox("A(a)\nR(a,b)\nB(b)")
    assert secrets(t, p, a) == frozenset({atoms("A(a)")})


def minimal_images(images: set) -> frozenset:
    """The images with no other image as a proper subset, found by looking
    up every proper subset of each one, of every size."""
    return frozenset(
        s
        for s in images
        if not any(frozenset(c) in images for r in range(len(s)) for c in combinations(s, r))
    )


def denial_images(t, p, a) -> set:
    closure = abox_closure(t, a)
    rel = _Relations(closure.atoms)
    return {
        image
        for d in p.denials
        for rewritten in perfect_ref(denial_query(d), t)
        for image in _images(rewritten, rel)
    }


def test_secrets_of_mixed_sizes_keep_only_the_minimal_images():
    t = parse_tbox("B [= A")
    p = parse_policy("denial :- A(X), B(X)\ndenial :- A(X)\ndenial :- R(X,Y), C(Y)")
    a = parse_abox("A(c)\nB(d)\nR(e,f)\nC(f)\nR(g,g)\nC(g)")
    images = denial_images(t, p, a)
    assert {len(s) for s in images} == {1, 2}
    # {A(d), B(d)} holds the smaller images {A(d)} and {B(d)}
    assert atoms("A(d)\nB(d)") in images
    want = frozenset(map(atoms, ["A(c)", "A(d)", "B(d)", "R(e,f)\nC(f)", "R(g,g)\nC(g)"]))
    assert secrets(t, p, a) == minimal_images(images) == want


def test_secrets_match_the_every_size_lookup_on_randoms():
    mixed = 0
    for seed in range(150):
        t, p, a = random_instance(seed, n_atoms=8, n_consts=3)
        if not is_consistent(t, a):
            continue
        images = denial_images(t, p, a)
        assert secrets(t, p, a) == minimal_images(images), seed
        mixed += len({len(s) for s in images}) > 1 and minimal_images(images) != images
    assert mixed >= 10


def test_secret_correctness_brute_force():
    """Every violating closure subset contains a returned secret, every
    returned secret violates, and removing any element repairs it."""
    randoms = [random_instance(seed, n_atoms=5) for seed in range(30)]
    chains = [chain_instance(seed) for seed in range(8)]
    sizes = []
    for t, p, a in randoms + chains:
        closure = sorted(abox_closure(t, a).atoms, key=repr)
        found = secrets(t, p, a)

        def violates(subset):
            box = ABox(frozenset(subset))
            return not (is_consistent(t, box) and is_policy_consistent(t, p, box))

        sizes += [len(s) for s in found]
        for s in found:
            assert violates(s)
            for sigma in s:
                assert not violates(s - {sigma})
        for mask in range(1 << len(closure)):
            subset = frozenset(x for i, x in enumerate(closure) if mask >> i & 1)
            if violates(subset):
                assert any(s <= subset for s in found), (a, subset)
    assert max(sizes) >= 3


def test_iar_repair_running_example(supplier_tbox, supplier_policy, supplier_abox):
    assert iar_repair(supplier_tbox, supplier_policy, supplier_abox).atoms == atoms(
        "Supplier(c)"
    )


def test_iar_repair_empty_policy(supplier_tbox, supplier_abox):
    repair = iar_repair(supplier_tbox, Policy.of(), supplier_abox)
    assert repair == abox_closure(supplier_tbox, supplier_abox)


def test_iar_repair_disjointness_as_denial():
    # conflicts under A [= -B expressed as an equivalent denial
    t = parse_tbox("")
    p = parse_policy("denial :- A(X), B(X)")
    a = parse_abox("A(d)\nB(d)\nC(d)")
    assert iar_repair(t, p, a).atoms == atoms("C(d)")


def test_repair_contained_in_every_optimal_censor():
    for seed in range(30):
        t, p, a = random_instance(seed, n_atoms=5)
        repair = iar_repair(t, p, a)
        for censor in enumerate_optimal_ga_censors(t, p, a):
            assert repair.atoms <= censor.atoms


# --- quasi-optimal entailment --------------------------------------------------------


def test_qib_running_example(supplier_tbox, supplier_policy, supplier_abox):
    assert qib_entail(supplier_tbox, supplier_policy, supplier_abox, q("Supplier(X)"))
    assert not qib_entail(supplier_tbox, supplier_policy, supplier_abox, q("ProjA(X)"))


def test_qib_reduces_to_certain_when_consistent():
    t = parse_tbox("A [= B")
    p = parse_policy("denial :- C(X)")
    a = parse_abox("A(c)")
    for query in (q("B(c)"), q("C(c)")):
        assert qib_entail(t, p, a, query) == cq_entailed(t, a, query)


def test_qib_bruteforce_running_example(supplier_tbox, supplier_policy, supplier_abox):
    assert qib_entail_bruteforce(supplier_tbox, supplier_policy, supplier_abox, q("Supplier(c)"))
    assert not qib_entail_bruteforce(supplier_tbox, supplier_policy, supplier_abox, q("ProjA(c)"))


def test_qib_bruteforce_empty_policy_reduces_to_certain():
    t = parse_tbox("A [= B")
    a = parse_abox("A(c)")
    for query in (q("B(c)"), q("C(c)")):
        assert qib_entail_bruteforce(t, Policy.of(), a, query) == cq_entailed(t, a, query)


def test_qib_bruteforce_size_guard(supplier_tbox, supplier_policy):
    big = ABox.of([Atom("Supplier", (const(f"s{i}"),)) for i in range(4)])
    with pytest.raises(SizeGuardError):
        qib_entail_bruteforce(supplier_tbox, supplier_policy, big, q("Supplier(X)"), limit=3)


def test_qib_agrees_with_bruteforce_on_randoms():
    rng = random.Random(77)
    for seed in range(60):
        t, p, a = random_instance(seed, n_atoms=5)
        query = random_bcq(rng, t)
        assert qib_entail(t, p, a, query) == qib_entail_bruteforce(t, p, a, query), seed


def test_skeptical_sandwich_on_randoms():
    rng = random.Random(78)
    for seed in range(40):
        t, p, a = random_instance(seed, n_atoms=5)
        query = random_bcq(rng, t)
        if qib_entail(t, p, a, query):
            assert ib_entail(t, p, a, query)
        if ib_entail(t, p, a, query):
            assert cq_entailed(t, a, query)

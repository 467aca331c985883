"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  All expectations are exact; the stated wall-clock budgets
are asserted."""

import random
import time
from itertools import permutations

from cqelite import (
    ABox,
    Atom,
    AtomOrder,
    abox_closure,
    atom_rewr,
    chase_entails,
    const,
    cq_entailed,
    enumerate_optimal_ga_censors,
    eval_fo,
    iar_repair,
    ib_entail,
    opt_ga_censor,
    parse_abox,
    parse_policy,
    parse_query,
    parse_tbox,
    qib_entail,
    qib_entail_bruteforce,
    qib_rewrite,
    qib_rewrite_report,
    secrets,
    serialize_fo,
    var,
)
from cqelite.model import And, AtomNode, Exists, Or, cq_to_fo
from cqelite.gen import random_bcq, random_fo_sentence, random_instance


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def _running_example():
    t = parse_tbox("ProjA [= Supplier\nProjB [= Supplier")
    p = parse_policy("denial :- ProjA(X), ProjB(X)")
    a = parse_abox("ProjA(c)\nProjB(c)")
    return t, p, a


def _small_instances(count: int, start_seed: int, closure_cap: int = 12):
    """Seeded random instances with closures small enough for the
    exponential oracles; rejection keeps the stream deterministic."""
    seed = start_seed
    produced = 0
    while produced < count:
        t, p, a = random_instance(seed, n_atoms=8, n_consts=3)
        seed += 1
        closure = abox_closure(t, a)
        if len(closure) > closure_cap:
            continue
        produced += 1
        yield seed - 1, t, p, a


def test_criterion_1_running_example_golden():
    start = time.monotonic()
    t, p, a = _running_example()
    closure = abox_closure(t, a)
    censors = {m.atoms for m in enumerate_optimal_ga_censors(t, p, a)}
    expected_censors = {
        parse_abox("ProjA(c)\nSupplier(c)").atoms,
        parse_abox("ProjB(c)\nSupplier(c)").atoms,
    }
    found_secrets = secrets(t, p, a)
    repair = iar_repair(t, p, a)
    checks = [
        len(closure) == 3,
        censors == expected_censors,
        found_secrets == frozenset({parse_abox("ProjA(c)\nProjB(c)").atoms}),
        repair.atoms == parse_abox("Supplier(c)").atoms,
        ib_entail(t, p, a, parse_query("q :- Supplier(c)")) is True,
        ib_entail(t, p, a, parse_query("q :- ProjA(c)")) is False,
        qib_entail(t, p, a, parse_query("q :- Supplier(X)")) is True,
        qib_entail(t, p, a, parse_query("q :- ProjA(X)")) is False,
    ]
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: running-example golden suite",
        all(checks) and elapsed < 1.0,
        f"{sum(checks)}/8 checks, {elapsed:.2f}s",
    )


def test_criterion_2_atom_rewriting_example():
    t = parse_tbox("A [= C\nB [= C")
    q = parse_query("q :- C(X), P(X,Y)")
    got = atom_rewr(cq_to_fo(q), t)

    x, y = var("X"), var("Y")
    reference = Exists(
        x,
        Exists(
            y,
            And(
                (
                    Or(
                        (
                            AtomNode(Atom("C", (x,))),
                            AtomNode(Atom("A", (x,))),
                            AtomNode(Atom("B", (x,))),
                        )
                    ),
                    AtomNode(Atom("P", (x, y))),
                )
            ),
        ),
    )

    consts = [const("u"), const("v")]
    pool = [Atom(pred, (c,)) for pred in ("A", "B", "C") for c in consts]
    pool += [Atom("P", (c, d)) for c in consts for d in consts]
    mismatches = 0
    for mask in range(1 << len(pool)):
        abox = ABox(frozenset(x for i, x in enumerate(pool) if mask >> i & 1))
        if eval_fo(got, abox) != eval_fo(reference, abox):
            mismatches += 1
    _report(
        "criterion 2: atom rewriting matches the two-subsumer reference",
        mismatches == 0,
        f"{1 << len(pool)} ABoxes, {mismatches} mismatches",
    )


def test_criterion_3_eval_transfer_property():
    start = time.monotonic()
    rng = random.Random(30_000)
    mismatches = 0
    total = 0
    for _, t, _, a in _small_instances(1000, start_seed=30_000):
        sentence = random_fo_sentence(rng, t)
        closed = abox_closure(t, a)
        if eval_fo(sentence, closed) != eval_fo(atom_rewr(sentence, t), a):
            mismatches += 1
        total += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 3: closure-evaluation transfer",
        total >= 1000 and mismatches == 0 and elapsed < 60.0,
        f"{total} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_qib_triple_equivalence():
    start = time.monotonic()
    rng = random.Random(40_000)
    mismatches = 0
    total = 0
    for _, t, p, a in _small_instances(500, start_seed=40_000):
        q = random_bcq(rng, t)
        semantic = qib_entail(t, p, a, q)
        brute = qib_entail_bruteforce(t, p, a, q)
        rewritten = eval_fo(qib_rewrite(q, t, p), a)
        if not (semantic == brute == rewritten):
            mismatches += 1
        total += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 4: semantic / brute-force / rewritten agreement",
        total >= 500 and mismatches == 0 and elapsed < 300.0,
        f"{total} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_5_order_coverage():
    cases = [
        ("ProjA [= Supplier\nProjB [= Supplier", "denial :- ProjA(X), ProjB(X)",
         "ProjA(c)\nProjB(c)"),
        ("", "denial :- A(X), B(X)", "A(a)\nB(a)\nA(b)\nB(b)"),
        ("role R [= S", "denial :- S(X,Y), A(X)", "R(a,b)\nA(a)\nA(b)\nS(b,a)"),
        ("ProjA [= Supplier\nProjB [= Supplier", "denial :- ProjA(X), ProjB(X)",
         "ProjA(c)\nProjB(c)\nProjA(d)\nProjB(d)"),
        ("A [= B", "denial :- B(X), C(X)", "A(a)\nC(a)\nA(b)\nB(c)\nC(c)"),
        ("ProjA [= Supplier\nProjB [= Supplier", "denial :- ProjA(X), ProjB(X)",
         "ProjA(c)\nProjB(c)\nProjA(d)\nProjB(d)\nProjA(e)"),
    ]
    mismatches = 0
    sizes = []
    for tbox_text, policy_text, abox_text in cases:
        t = parse_tbox(tbox_text)
        p = parse_policy(policy_text)
        a = parse_abox(abox_text)
        closure = abox_closure(t, a)
        sizes.append(len(closure))
        assert len(closure) <= 8
        outputs = {
            opt_ga_censor(t, p, a, AtomOrder.explicit(perm))
            for perm in permutations(closure.atoms)
        }
        if outputs != enumerate_optimal_ga_censors(t, p, a):
            mismatches += 1
    _report(
        "criterion 5: greedy censor over all orders covers the enumeration",
        mismatches == 0,
        f"closure sizes {sizes}, {mismatches} mismatches",
    )


def test_criterion_6_semantic_sandwich():
    rng = random.Random(60_000)
    violations = 0
    total = 0
    for suite_seed, count in ((30_000, 1000), (40_000, 500)):
        for _, t, p, a in _small_instances(count, start_seed=suite_seed):
            q = random_bcq(rng, t)
            quasi = qib_entail(t, p, a, q)
            skeptical = ib_entail(t, p, a, q)
            certain = cq_entailed(t, a, q)
            if (quasi and not skeptical) or (skeptical and not certain):
                violations += 1
            total += 1
    _report(
        "criterion 6: quasi-optimal implies skeptical implies certain",
        violations == 0,
        f"{total} instances, {violations} violations",
    )


def test_criterion_7_rewriting_vs_chase_oracle():
    rng = random.Random(70_000)
    mismatches = 0
    total = 0
    seed = 70_000
    while total < 500:
        t, _, a = random_instance(seed, n_atoms=6, n_consts=3)
        seed += 1
        q = random_bcq(rng, t)
        if cq_entailed(t, a, q) != chase_entails(t, a, q):
            mismatches += 1
        total += 1
    _report(
        "criterion 7: rewriting-based entailment agrees with the chase oracle",
        mismatches == 0,
        f"{total} instances, {mismatches} mismatches",
    )


def test_criterion_8_rewriting_scales_independently_of_data():
    t, p, _ = _running_example()
    q = parse_query("q :- Supplier(X)")

    def build(n: int) -> ABox:
        atoms: set[Atom] = set()
        i = 0
        while len(atoms) < n:
            c = const(f"c{i}")
            k = i % 4
            if k == 0:
                atoms.add(Atom("ProjA", (c,)))
            elif k == 1:
                atoms.add(Atom("ProjB", (c,)))
            elif k == 2:
                atoms.update({Atom("ProjA", (c,)), Atom("ProjB", (c,))})
            else:
                atoms.add(Atom("Supplier", (c,)))
            i += 1
        return ABox(frozenset(atoms))

    rendered = set()
    reports = set()
    for size in (100, 1000, 10_000, 100_000):
        node, report = qib_rewrite_report(q, t, p)
        rendered.add(serialize_fo(node))
        reports.add(report)
    byte_identical = len(rendered) == 1 and len(reports) == 1

    big = build(100_000)
    start = time.monotonic()
    verdict = eval_fo(qib_rewrite(q, t, p), big)
    elapsed = time.monotonic() - start

    small = build(100)
    correct = eval_fo(qib_rewrite(q, t, p), small) == qib_entail(t, p, small, q)

    _report(
        "criterion 8: reformulation is data-independent and evaluates fast",
        byte_identical and verdict is True and correct and elapsed < 10.0,
        f"eval over 100000 atoms in {elapsed:.2f}s",
    )

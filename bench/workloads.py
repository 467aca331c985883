"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed, loads them (the
timed set-up), and then yields rounds of requests.  A request is one library
call that a `cqelite` subcommand makes: `entail` under one semantics,
`censor`, or `rewrite`.  Every round of a workload issues the same kinds of
requests in the same numbers, so rounds can be compared with each other.

Every answer is checked after the round, outside the timed region, against
computations made apart from the program's fast paths: closed forms kept by
the benchmark itself, the program's oracles (`chase_entails`,
`qib_entail_bruteforce`, `enumerate_optimal_ga_censors`) and properties of
the semantics (`qib` equals `qib-fo`, `qib` implies `ib` implies `certain`).

Library functions are always looked up on the `cqelite` package at call
time, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import cqelite as cq
from cqelite import gen

ENTAIL = "entail"
CENSOR = "censor"
REVISE = "revise"

# Entailment requests of the closure-size-guarded semantics must stay below
# the program's default size guard, so the CLI runs need no --limit.
CLI_CLOSURE_CAP = 16


@dataclass
class Step:
    """One timed call.  `kind` is a request kind, or REVISE for an ABox
    revision (timed as busy time, not counted as a request)."""

    kind: str
    key: tuple
    run: Callable[[], object]
    semantics: str | None = None


@dataclass
class Round:
    steps: list[Step]
    # check(results) -> list of (key, message) for every wrong answer;
    # results maps step key -> value returned by step.run()
    check: Callable[[dict], list]


@dataclass
class CliCase:
    """A small instance the CLI subcommands are timed on: the workload's
    loaded ABox with `deleted` taken out by one revision."""

    tbox: str
    policy: str
    query: str
    deleted: frozenset


class Checker:
    """Collects wrong answers.  `fault` inverts the first expectation, so a
    run made with it must report a failure."""

    def __init__(self, fault: bool):
        self.fault = fault
        self.wrong: list[tuple] = []

    def expect(self, ok: bool, key, message: str) -> None:
        if self.fault:
            self.fault = False
            ok = not ok
        if not ok:
            self.wrong.append((key, message))

    def drain(self) -> list:
        out, self.wrong = self.wrong, []
        return out


def answer(semantics: str, tbox, policy, abox, q):
    """One `entail` request, made the way `cqelite entail` makes it."""
    if semantics == "certain":
        return cq.cq_entailed(tbox, abox, q)
    if semantics == "qib":
        return cq.qib_entail(tbox, policy, abox, q)
    if semantics == "ib":
        return cq.ib_entail(tbox, policy, abox, q)
    node, _report = cq.qib_rewrite_report(q, tbox, policy)
    return cq.eval_fo(node, abox), node


def verdict(result) -> bool:
    return result[0] if isinstance(result, tuple) else result


def revise(abox, deleted: frozenset, inserted: frozenset):
    """A new ABox value: `abox` without `deleted`, with `inserted`."""
    return cq.ABox((abox.atoms - deleted) | inserted)


def render(atoms) -> str:
    return "".join(f"{pred}({', '.join(args)})\n" for pred, args in atoms)


def entail_steps(qid, q, semantics_list, tbox, policy, abox) -> list[Step]:
    return [
        Step(ENTAIL, (qid, s), (lambda s=s: answer(s, tbox, policy, abox, q)), s)
        for s in semantics_list
    ]


# --- supplier family ----------------------------------------------------------

SUPPLIER_TBOX = "ProjA [= Supplier\nProjB [= Supplier\n"
SUPPLIER_POLICY = "denial :- ProjA(X), ProjB(X)\n"
# A constant's kind says which of ProjA, ProjB, Supplier the ABox gives it.
KIND_ATOMS = {"a": ("ProjA",), "b": ("ProjB",), "ab": ("ProjA", "ProjB"), "s": ("Supplier",)}
# Closed forms: the predicates a constant of each kind has in the closure,
# and in the repair (both ProjA and ProjB of an `ab` constant form a secret).
CLOSED = {
    "a": {"ProjA", "Supplier"},
    "b": {"ProjB", "Supplier"},
    "ab": {"ProjA", "ProjB", "Supplier"},
    "s": {"Supplier"},
}
REPAIRED = {**CLOSED, "ab": {"Supplier"}}
SUPPLIER_SEMANTICS = ("certain", "qib", "qib-fo")


class Supplier:
    """The criterion-8 supplier family: `ProjA [= Supplier`, `ProjB [=
    Supplier`, denial `ProjA(X), ProjB(X)`.  The seed shuffles which
    constant gets which kind; the counts of each kind are fixed."""

    constants_per_kind = 2000  # 8000 constants, 10 000 ABox atoms
    setup_batch = 1  # loads per timed set-up batch; one load takes about 0.3 s
    churn = 0  # constants deleted and inserted per round

    def __init__(self, seed: int, fault: bool):
        self.rng = random.Random(seed)
        self.checker = Checker(fault)
        kinds = [k for k in KIND_ATOMS for _ in range(self.constants_per_kind)]
        self.rng.shuffle(kinds)
        self.kind = {f"c{i}": k for i, k in enumerate(kinds)}
        self.next_id = len(kinds)
        by_kind = {k: sorted((c for c, kk in self.kind.items() if kk == k), key=_num) for k in KIND_ATOMS}
        # anchors are asked about by name and never deleted
        self.anchors = {k: self.rng.choice(by_kind[k]) for k in ("ab", "b")}
        self.live = [c for c in sorted(self.kind, key=_num) if c not in self.anchors.values()]
        self.queries = [
            ("ground-projA", [("ProjA", self.anchors["ab"])]),
            ("ground-supplier", [("Supplier", self.anchors["b"])]),
            ("exists-projA-projB", [("ProjA", "X"), ("ProjB", "X")]),
            ("exists-supplier-projB", [("Supplier", "X"), ("ProjB", "X")]),
        ]
        self.fo_text: dict[str, str] = {}

    # -- set-up

    def texts(self, rep: int) -> dict[str, str]:
        """Set-up inputs.  Each repetition renames the constants so that no
        cache keyed by the ABox value carries over between repetitions."""
        prefix = "c" if rep == 0 else f"c{rep}x"
        atoms = [
            (pred, (prefix + c[1:],))
            for c, k in sorted(self.kind.items(), key=lambda ck: _num(ck[0]))
            for pred in KIND_ATOMS[k]
        ]
        queries = "".join(
            f"q :- {', '.join(f'{p}({t})' for p, t in body)}\n" for _, body in self.queries
        )
        return {"tbox": SUPPLIER_TBOX, "policy": SUPPLIER_POLICY, "abox": render(atoms), "queries": queries}

    def load(self, texts: dict[str, str]):
        tbox = cq.parse_tbox(texts["tbox"])
        policy = cq.parse_policy(texts["policy"])
        abox = cq.parse_abox(texts["abox"])
        queries = [cq.parse_query(line) for line in texts["queries"].splitlines()]
        if not cq.is_consistent(tbox, abox):
            raise cq.InconsistentOntologyError("supplier ABox is inconsistent")
        cq.abox_closure(tbox, abox)
        return tbox, policy, abox, queries

    def adopt(self, model) -> None:
        self.tbox, self.policy, self.abox, self.qs = model
        # data independence: the sentence compiled before any data is seen
        # must come out byte-identical on every request, whatever the ABox
        for (qid, _), q in zip(self.queries, self.qs):
            self.fo_text[qid] = cq.serialize_fo(cq.qib_rewrite(q, self.tbox, self.policy))

    # -- rounds

    def round(self) -> Round:
        steps: list[Step] = []
        if self.churn:
            steps.append(self._revision())
        for (qid, _), q in zip(self.queries, self.qs):
            # the ABox is read when the request runs, after the revision
            steps += [
                Step(ENTAIL, (qid, s), (lambda s=s, q=q: answer(s, self.tbox, self.policy, self.abox, q)), s)
                for s in SUPPLIER_SEMANTICS
            ]
        return Round(steps, self._check)

    def _revision(self) -> Step:
        """Delete `churn` constants and insert as many fresh ones of the same
        kinds; the ABox keeps its size and kind counts."""
        gone = self.rng.sample(range(len(self.live)), self.churn)
        deleted, inserted = set(), set()
        for i in gone:
            old = self.live[i]
            k = self.kind.pop(old)
            new = f"c{self.next_id}"
            self.next_id += 1
            self.kind[new] = k
            self.live[i] = new
            for pred in KIND_ATOMS[k]:
                deleted.add(cq.Atom(pred, (cq.const(old),)))
                inserted.add(cq.Atom(pred, (cq.const(new),)))
        deleted, inserted = frozenset(deleted), frozenset(inserted)

        def run():
            self.abox = revise(self.abox, deleted, inserted)
            return len(self.abox)

        return Step(REVISE, ("revise",), run)

    def expected(self, body, semantics: str) -> bool:
        table = CLOSED if semantics == "certain" else REPAIRED
        if all(t != "X" for _, t in body):
            return all(p in table[self.kind[t]] for p, t in body)
        preds = {p for p, _ in body}
        counts = {k: 0 for k in KIND_ATOMS}
        for k in self.kind.values():
            counts[k] += 1
        return any(counts[k] and preds <= table[k] for k in KIND_ATOMS)

    def _check(self, results: dict) -> list:
        for qid, body in self.queries:
            for s in SUPPLIER_SEMANTICS:
                got = verdict(results[(qid, s)])
                self.checker.expect(got == self.expected(body, s), (qid, s), f"{s} said {got}")
            got_fo = results[(qid, "qib-fo")]
            self.checker.expect(
                verdict(results[(qid, "qib")]) == got_fo[0], (qid, "qib-fo"), "qib and qib-fo differ"
            )
            self.checker.expect(
                cq.serialize_fo(got_fo[1]) == self.fo_text[qid],
                (qid, "qib-fo"),
                "compiled sentence changed with the data",
            )
        return self.checker.drain()

    def post_checks(self) -> list:
        return []

    # -- the CLI case

    def cli_case(self) -> CliCase:
        """Two constants of each kind and the anchors, cut from the loaded
        ABox; the query is the first ground query."""
        keep = {self.anchors["ab"], self.anchors["b"]}
        for k in KIND_ATOMS:
            keep.update([c for c in self.live if self.kind[c] == k][:2])
        deleted = frozenset(a for a in self.abox.atoms if a.args[0].name not in keep)
        body = self.queries[0][1]
        query = f"q :- {', '.join(f'{p}({t})' for p, t in body)}\n"
        return CliCase(SUPPLIER_TBOX, SUPPLIER_POLICY, query, deleted)


class SupplierChurn(Supplier):
    churn = 200


def _num(name: str) -> int:
    return int("".join(ch for ch in name if ch.isdigit()) or 0)


# --- role-heavy TBox, chain denials -------------------------------------------

ROLE_TBOX = "role R [= S\nex T [= C\nex T- [= C\n"
ROLE_PREDICATES = ("R", "S", "T")
ROLE_CONCEPTS = ("A", "B", "C")


CLI_QUERY = "q :- R(X, Y), C(Y)\n"


def chain_denial(width: int) -> str:
    body = ["A(X0)"] + [f"S(X{i}, X{i + 1})" for i in range(width)] + [f"B(X{width})"]
    return "denial :- " + ", ".join(body) + "\n"


def role_template(structure_seed: int, n_atoms: int, n_consts: int) -> list[tuple]:
    """A fixed role-heavy ABox shape over constant indices: every constant
    has an outgoing role atom, then random role and concept atoms.  The
    workload seed only relabels it, so every seed gives the same amount of
    work."""
    rng = random.Random(structure_seed)
    atoms: list[tuple] = []
    seen: set[tuple] = set()

    def add(atom):
        if atom not in seen:
            seen.add(atom)
            atoms.append(atom)

    for i in range(n_consts):
        add((rng.choice(ROLE_PREDICATES), (i, rng.randrange(n_consts))))
    while len(atoms) < n_atoms:
        if rng.random() < 0.75:
            add((rng.choice(ROLE_PREDICATES), (rng.randrange(n_consts), rng.randrange(n_consts))))
        else:
            add((rng.choice(ROLE_CONCEPTS), (rng.randrange(n_consts),)))
    return atoms


def relabel(template: list[tuple], names: list[str]) -> list[tuple]:
    return [(pred, tuple(names[i] for i in args)) for pred, args in template]


def sub_instance(tbox, atoms: list[tuple], cap: int) -> list[tuple]:
    """The longest prefix of `atoms` whose closure stays within `cap` atoms,
    for the exponential oracles."""
    out: list[tuple] = []
    for atom in atoms:
        trial = cq.parse_abox(render(out + [atom]))
        if len(cq.abox_closure(tbox, trial)) > cap:
            break
        out.append(atom)
    return out


# --- censors ------------------------------------------------------------------


class Censor:
    """Greedy `opt_ga_censor` over the closure of a role-heavy instance of
    a few hundred atoms under the width-2 chain denial, plus small random
    instances (criterion-6 style) answered under every semantics and
    censored greedily.  The small instances are the same stream for every
    seed, and the large one has a fixed shape; the seed permutes the
    constant names of both, so every seed does the same work.  Each round
    renames the constants again, so every round does the same work while
    no cache keyed by an ABox carries over."""

    structure_seed = 20_041
    n_atoms = 300
    n_consts = 120
    small_per_round = 50
    small_closure_cap = 12
    setup_batch = 20  # one load takes about 12 ms, too short to time alone
    semantics = ("certain", "qib", "qib-fo", "ib")

    def __init__(self, seed: int, fault: bool):
        rng = random.Random(seed)
        self.checker = Checker(fault)
        self.template = role_template(self.structure_seed, self.n_atoms, self.n_consts)
        self.perm = list(range(self.n_consts))
        rng.shuffle(self.perm)
        self.policy_text = chain_denial(2)
        self.round_no = 0
        letters = list(gen.CONST_POOL)
        rng.shuffle(letters)
        self.letters = dict(zip(gen.CONST_POOL, letters))
        self.instance_seed = 1_000_000
        self.query_rng = random.Random(self.instance_seed)
        self.smalls = [self._small() for _ in range(self.small_per_round)]

    def _names(self, prefix: str) -> list[str]:
        return [f"{prefix}{i}" for i in self.perm]

    def texts(self, rep: int) -> dict[str, str]:
        prefix = "m" if rep == 0 else f"m{rep}x"
        return {
            "tbox": ROLE_TBOX,
            "policy": self.policy_text,
            "abox": render(relabel(self.template, self._names(prefix))),
        }

    def load(self, texts: dict):
        tbox = cq.parse_tbox(texts["tbox"])
        policy = cq.parse_policy(texts["policy"])
        abox = cq.parse_abox(texts["abox"])
        if not cq.is_consistent(tbox, abox):
            raise cq.InconsistentOntologyError("censor ABox is inconsistent")
        cq.abox_closure(tbox, abox)
        return tbox, policy, abox

    def adopt(self, model) -> None:
        self.tbox, self.policy, self.abox = model

    def _small(self):
        """The next small instance of the stream whose closure the
        exponential semantics can afford."""
        while True:
            t, p, a = gen.random_instance(self.instance_seed, n_atoms=8, n_consts=3)
            self.instance_seed += 1
            if len(cq.abox_closure(t, a)) <= self.small_closure_cap:
                return t, p, a, gen.random_bcq(self.query_rng, t)

    def round(self) -> Round:
        self.round_no += 1
        suffix = f"r{self.round_no}"
        names = {c: n + suffix for c, n in self.letters.items()}
        big = cq.ABox(
            frozenset(
                cq.Atom(pred, tuple(cq.const(n) for n in args))
                for pred, args in relabel(self.template, self._names(f"m{suffix}x"))
            )
        )
        tbox, policy = self.tbox, self.policy
        steps = [Step(CENSOR, ("big", "censor"), lambda: cq.opt_ga_censor(tbox, policy, big))]
        smalls = []
        for i, (t, p, a, q) in enumerate(self.smalls):
            p = cq.Policy(frozenset(cq.Denial(renamed(d.body, names)) for d in p.denials))
            a = cq.ABox(renamed(a.atoms, names))
            q = cq.ConjunctiveQuery(renamed(q.atoms, names))
            smalls.append((i, t, p, a))
            steps += entail_steps(i, q, self.semantics, t, p, a)
            steps.append(Step(CENSOR, (i, "censor"), (lambda t=t, p=p, a=a: cq.opt_ga_censor(t, p, a))))
        return Round(steps, lambda results: self._check(results, big, smalls))

    def _check_censor(self, key, tbox, policy, abox, censor) -> None:
        closure = cq.abox_closure(tbox, abox).atoms
        repair = cq.iar_repair(tbox, policy, abox).atoms
        kept = censor.atoms
        self.checker.expect(repair <= kept <= closure, key, "censor not between repair and closure")
        self.checker.expect(_policy_safe(tbox, policy, kept), key, "censor breaks the policy")
        for alpha in closure - kept:
            self.checker.expect(
                not _policy_safe(tbox, policy, kept | {alpha}), key, f"censor not maximal: {alpha}"
            )

    def _check(self, results: dict, big, smalls) -> list:
        self._check_censor(("big", "censor"), self.tbox, self.policy, big, results[("big", "censor")])
        for i, t, p, a in smalls:
            certain = results[(i, "certain")]
            qib = results[(i, "qib")]
            ib = results[(i, "ib")]
            fo = results[(i, "qib-fo")][0]
            self.checker.expect(qib == fo, (i, "qib-fo"), "qib and qib-fo differ")
            self.checker.expect(not qib or ib, (i, "qib"), "qib without ib")
            self.checker.expect(not ib or certain, (i, "ib"), "ib without certain")
            censor = results[(i, "censor")]
            self.checker.expect(
                censor in cq.enumerate_optimal_ga_censors(t, p, a), (i, "censor"),
                "greedy censor is not an optimal censor",
            )
        return self.checker.drain()

    def post_checks(self) -> list:
        """Oracles, once per run, on the small instances as generated:
        `certain` against the bounded chase, and `qib` against subset
        enumeration."""
        for i, (t, p, a, q) in enumerate(self.smalls):
            self.checker.expect(
                cq.cq_entailed(t, a, q) == cq.chase_entails(t, a, q), (i, "certain"),
                "certain differs from the chase",
            )
            self.checker.expect(
                cq.qib_entail(t, p, a, q) == cq.qib_entail_bruteforce(t, p, a, q), (i, "qib"),
                "qib differs from subset enumeration",
            )
        return self.checker.drain()

    def cli_case(self) -> CliCase:
        """A prefix of the loaded large instance whose closure stays within
        the program's default size guard."""
        keep = sub_instance(self.tbox, relabel(self.template, self._names("m")), CLI_CLOSURE_CAP)
        kept = cq.parse_abox(render(keep)).atoms
        return CliCase(ROLE_TBOX, self.policy_text, CLI_QUERY, self.abox.atoms - kept)


def renamed(atoms, names: dict[str, str]) -> frozenset:
    """The atoms with every constant renamed through `names`."""
    return frozenset(
        cq.Atom(a.predicate, tuple(cq.const(names[t.name]) if t.is_const else t for t in a.args))
        for a in atoms
    )


def _policy_safe(tbox, policy, atoms) -> bool:
    candidate = cq.ABox(frozenset(atoms))
    return cq.is_consistent(tbox, candidate) and cq.is_policy_consistent(tbox, policy, candidate)


WORKLOADS = {
    "supplier-read": Supplier,
    "supplier-churn": SupplierChurn,
    "censor": Censor,
}

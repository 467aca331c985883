"""Seeded random instances for the property suites and the `gen` command.

Generated triples always satisfy the engine precondition: the TBox plus
ABox is consistent (atoms that would break consistency are dropped during
generation).  Names come from fixed pools.  A count above its pool, below 1
for constants and concepts, or negative for roles, atoms and denials is
refused with a `ValueError`.
"""

from __future__ import annotations

import random
import string

from .model import (
    ABox,
    And,
    Atom,
    AtomNode,
    BasicConcept,
    ConceptInclusion,
    ConjunctiveQuery,
    Denial,
    Exists,
    FONode,
    Not,
    Or,
    Policy,
    RoleExpr,
    RoleInclusion,
    TBox,
    Term,
    TRUE,
    const,
    var,
)
from .reasoner import is_consistent

CONCEPT_POOL = ["A", "B", "C", "D", "E", "G", "H", "K"]
ROLE_POOL = ["R", "S", "T", "W"]
CONST_POOL = list(string.ascii_lowercase[:8])
VAR_POOL = ["X", "Y", "Z", "U", "V"]
P_NEGATED = 0.25  # the chance that an axiom is a negative inclusion
MAX_BODY = 3  # the most atoms in a denial body, a query or an FO sentence
MAX_FO_DEPTH = 4  # the deepest nesting of a random FO sentence


def _at_least(n: int, least: int, what: str) -> None:
    if n < least:
        raise ValueError(f"the number of {what} must be at least {least}, got {n}")


def _take(pool: list[str], n: int, what: str) -> list[str]:
    _at_least(n, 1, what)
    if n > len(pool):
        raise ValueError(f"at most {len(pool)} {what} can be generated, got {n}")
    return pool[:n]


def _random_basic(rng: random.Random, concepts, roles) -> BasicConcept:
    kinds = ["atomic"] * 3 + (["exists", "exists_inv"] if roles else [])
    kind = rng.choice(kinds)
    if kind == "atomic":
        return BasicConcept("atomic", rng.choice(concepts))
    return BasicConcept(kind, rng.choice(roles))


def random_tbox(rng: random.Random, n_concepts: int = 4, n_roles: int = 2) -> TBox:
    concepts = _take(CONCEPT_POOL, n_concepts, "concepts")
    _at_least(n_roles, 0, "roles")
    roles = _take(ROLE_POOL, n_roles, "roles") if n_roles else []
    axioms = []
    for _ in range(rng.randint(0, n_concepts + n_roles)):
        if roles and rng.random() < 0.2:
            lhs = RoleExpr(rng.choice(roles), rng.random() < 0.3)
            rhs = RoleExpr(rng.choice(roles), rng.random() < 0.3)
            axioms.append(RoleInclusion(lhs, rhs, rng.random() < P_NEGATED))
        else:
            lhs = _random_basic(rng, concepts, roles)
            rhs = _random_basic(rng, concepts, roles)
            axioms.append(ConceptInclusion(lhs, rhs, rng.random() < P_NEGATED))
    return TBox.of(axioms, concept_names=concepts, role_names=roles)


def _random_ground_atom(rng: random.Random, tbox: TBox, consts: list[str]) -> Atom:
    concepts = sorted(tbox.concept_names)
    roles = sorted(tbox.role_names)
    if roles and (not concepts or rng.random() < 0.4):
        return Atom(rng.choice(roles), (const(rng.choice(consts)), const(rng.choice(consts))))
    return Atom(rng.choice(concepts), (const(rng.choice(consts)),))


def random_abox(
    rng: random.Random, tbox: TBox, n_atoms: int = 6, n_consts: int = 4
) -> ABox:
    consts = _take(CONST_POOL, n_consts, "constants")
    _at_least(n_atoms, 0, "atoms")
    atoms: set[Atom] = set()
    for _ in range(n_atoms):
        candidate = _random_ground_atom(rng, tbox, consts)
        trial = ABox(frozenset(atoms | {candidate}))
        if is_consistent(tbox, trial):
            atoms.add(candidate)
    return ABox(frozenset(atoms))


def _random_body_atom(rng: random.Random, tbox: TBox, variables, consts) -> Atom:
    concepts = sorted(tbox.concept_names)
    roles = sorted(tbox.role_names)

    def term() -> Term:
        if rng.random() < 0.15:
            return const(rng.choice(consts))
        return var(rng.choice(variables))

    if roles and (not concepts or rng.random() < 0.45):
        return Atom(rng.choice(roles), (term(), term()))
    return Atom(rng.choice(concepts), (term(),))


def random_policy(rng: random.Random, tbox: TBox, n_denials: int = 2, n_consts: int = 4) -> Policy:
    consts = _take(CONST_POOL, n_consts, "constants")
    _at_least(n_denials, 0, "denials")
    denials = set()
    for _ in range(n_denials):
        size = rng.randint(1, MAX_BODY)
        variables = VAR_POOL[: rng.randint(1, 3)]
        body = frozenset(
            _random_body_atom(rng, tbox, variables, consts) for _ in range(size)
        )
        denials.add(Denial(body))
    return Policy(frozenset(denials))


def random_instance(
    seed: int,
    n_concepts: int = 4,
    n_roles: int = 2,
    n_atoms: int = 6,
    n_denials: int = 2,
    n_consts: int = 4,
) -> tuple[TBox, Policy, ABox]:
    """A reproducible (TBox, Policy, ABox) triple satisfying all engine
    preconditions."""
    rng = random.Random(seed)
    tbox = random_tbox(rng, n_concepts, n_roles)
    policy = random_policy(rng, tbox, n_denials, n_consts=n_consts)
    abox = random_abox(rng, tbox, n_atoms, n_consts)
    return tbox, policy, abox


def random_bcq(rng: random.Random, tbox: TBox, n_consts: int = 4) -> ConjunctiveQuery:
    consts = _take(CONST_POOL, n_consts, "constants")
    variables = VAR_POOL[: rng.randint(1, 3)]
    size = rng.randint(1, MAX_BODY)
    atoms = frozenset(
        _random_body_atom(rng, tbox, variables, consts) for _ in range(size)
    )
    return ConjunctiveQuery(atoms)


def random_fo_sentence(rng: random.Random, tbox: TBox, n_consts: int = 4) -> FONode:
    """A random closed formula over the signature: atoms under AND / OR /
    NOT / EXISTS, with every variable bound by construction."""
    consts = [const(c) for c in _take(CONST_POOL, n_consts, "constants")]
    preds = [(c, 1) for c in sorted(tbox.concept_names)]
    preds += [(r, 2) for r in sorted(tbox.role_names)]
    used = [0]

    def go(depth: int, bound: list[Term]) -> FONode:
        options = []
        if used[0] < MAX_BODY:
            options += ["atom"] * 3
        if depth < MAX_FO_DEPTH:
            options += ["not", "exists"]
            if used[0] < MAX_BODY - 1:
                options += ["and", "or"]
        if not options:
            return TRUE
        kind = rng.choice(options)
        if kind == "atom":
            used[0] += 1
            pred, arity = rng.choice(preds)
            args = tuple(
                rng.choice(bound)
                if bound and rng.random() < 0.7
                else rng.choice(consts)
                for _ in range(arity)
            )
            return AtomNode(Atom(pred, args))
        if kind == "not":
            return Not(go(depth + 1, bound))
        if kind == "exists":
            v = var(f"Q{len(bound) + 1}")
            return Exists(v, go(depth + 1, bound + [v]))
        left = go(depth + 1, bound)
        right = go(depth + 1, bound)
        return And((left, right)) if kind == "and" else Or((left, right))

    return go(0, [])

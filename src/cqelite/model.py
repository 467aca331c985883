"""Immutable core types: ontologies, policies, queries, FO formulas.

`Term`, `Atom`, `BasicConcept` and `RoleExpr` fill every row set, closure
and image the reasoner builds, so they are `namedtuple` subclasses: hashing,
equality and ordering then run in C for each of the many set operations
that join, intersect and deduplicate them.  Each still validates its fields
in `__new__` and has no instance `__dict__`.  Being tuples, they also compare
equal to a plain tuple of their fields (`const("a") == ("const", "a")`).
Every other type is a frozen dataclass.  All have value semantics, so they
can be used as dict keys and set members and shared freely across threads.
A single global ordering over ground atoms (`atom_order_key`) is defined
here and is the "lexicographic" order used by the greedy censor
construction.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Union

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Identifiers containing "_v<digit>" are reserved for machine-generated
# quantified variables, so rewritten queries can never collide with user names.
RESERVED_RE = re.compile(r"_v[0-9]")

CONST = "const"
VAR = "var"


def is_valid_ident(name: str) -> bool:
    return bool(IDENT_RE.match(name))


def is_reserved_ident(name: str) -> bool:
    return bool(RESERVED_RE.search(name))


def _validated_make(cls, fields):
    # namedtuple's `_make` (and so `_replace`) would build the tuple without
    # calling `__new__`; route both through the validating constructor
    return cls(*fields)


class Term(namedtuple("Term", "kind name")):
    """A constant or a variable; equality and order are by (kind, name)."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, kind: str, name: str):
        if kind not in (CONST, VAR):
            raise ValueError(f"bad term kind: {kind!r}")
        if not is_valid_ident(name):
            raise ValueError(f"bad term name: {name!r}")
        return tuple.__new__(cls, (kind, name))

    @property
    def is_var(self) -> bool:
        return self.kind == VAR

    @property
    def is_const(self) -> bool:
        return self.kind == CONST

    def __repr__(self):
        return self.name


def const(name: str) -> Term:
    return Term(CONST, name)


def var(name: str) -> Term:
    return Term(VAR, name)


def check_predicate(name: str) -> None:
    if not is_valid_ident(name):
        raise ValueError(f"bad predicate name: {name!r}")


class Atom(namedtuple("Atom", "predicate args")):
    """A concept atom A(t) or a role atom P(t1,t2); `args` is a tuple of
    `Term`s."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, predicate: str, args: tuple):
        check_predicate(predicate)
        if len(args) not in (1, 2):
            raise ValueError(f"atom arity must be 1 or 2, got {len(args)}")
        return tuple.__new__(cls, (predicate, args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> frozenset[Term]:
        return frozenset(t for t in self.args if t.is_var)

    def __repr__(self):
        return f"{self.predicate}({','.join(t.name for t in self.args)})"


# builds an `Atom` from one (predicate, args) pair without validating it, so
# that `map` can build many in C; only for a predicate that `check_predicate`
# has passed and for args taken from valid atoms
unchecked_atom = partial(tuple.__new__, Atom)


def atom_order_key(atom: Atom) -> tuple:
    """Global canonical order: predicate name, then arity (unary predicates
    sort before binary ones of the same name), then argument names."""
    return (atom.predicate, atom.arity) + tuple(t.name for t in atom.args)


ATOMIC = "atomic"
EXISTS = "exists"
EXISTS_INV = "exists_inv"


class BasicConcept(namedtuple("BasicConcept", "kind name")):
    """An atomic concept, or the domain/range of a role (exists / exists_inv)."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, kind: str, name: str):
        if kind not in (ATOMIC, EXISTS, EXISTS_INV):
            raise ValueError(f"bad concept kind: {kind!r}")
        return tuple.__new__(cls, (kind, name))

    def __repr__(self):
        if self.kind == ATOMIC:
            return self.name
        return f"ex {self.name}" + ("-" if self.kind == EXISTS_INV else "")


def atomic(name: str) -> BasicConcept:
    return BasicConcept(ATOMIC, name)


def exists(role: str) -> BasicConcept:
    return BasicConcept(EXISTS, role)


def exists_inv(role: str) -> BasicConcept:
    return BasicConcept(EXISTS_INV, role)


class RoleExpr(namedtuple("RoleExpr", "name inverse", defaults=(False,))):
    """A role name or its inverse."""

    __slots__ = ()

    def inverted(self) -> RoleExpr:
        return RoleExpr(self.name, not self.inverse)

    def domain(self) -> BasicConcept:
        return exists_inv(self.name) if self.inverse else exists(self.name)

    def range(self) -> BasicConcept:
        return exists(self.name) if self.inverse else exists_inv(self.name)

    def __repr__(self):
        return self.name + ("-" if self.inverse else "")


@dataclass(frozen=True, order=True)
class ConceptInclusion:
    lhs: BasicConcept
    rhs: BasicConcept
    negated: bool = False  # True encodes disjointness: lhs [= -rhs

    def __repr__(self):
        return f"{self.lhs} [= {'-' if self.negated else ''}{self.rhs}"


@dataclass(frozen=True, order=True)
class RoleInclusion:
    lhs: RoleExpr
    rhs: RoleExpr
    negated: bool = False

    def __repr__(self):
        return f"role {self.lhs} [= {'-' if self.negated else ''}{self.rhs}"


TBoxAxiom = Union[ConceptInclusion, RoleInclusion]


def _axiom_names(axiom: TBoxAxiom) -> tuple[set[str], set[str]]:
    """(concept names, role names) referenced by one axiom."""
    concepts: set[str] = set()
    roles: set[str] = set()
    if isinstance(axiom, ConceptInclusion):
        for side in (axiom.lhs, axiom.rhs):
            if side.kind == ATOMIC:
                concepts.add(side.name)
            else:
                roles.add(side.name)
    else:
        roles.add(axiom.lhs.name)
        roles.add(axiom.rhs.name)
    return concepts, roles


@dataclass(frozen=True)
class TBox:
    axioms: frozenset[TBoxAxiom]
    concept_names: frozenset[str] = frozenset()
    role_names: frozenset[str] = frozenset()

    @staticmethod
    def of(axioms=(), concept_names=(), role_names=()) -> TBox:
        """Build a TBox whose signature covers every name in `axioms`."""
        concepts = set(concept_names)
        roles = set(role_names)
        for ax in axioms:
            c, r = _axiom_names(ax)
            concepts |= c
            roles |= r
        clash = concepts & roles
        if clash:
            raise ValueError(f"names used as both concept and role: {sorted(clash)}")
        return TBox(frozenset(axioms), frozenset(concepts), frozenset(roles))

    def basic_concepts(self) -> list[BasicConcept]:
        out = [atomic(c) for c in sorted(self.concept_names)]
        for r in sorted(self.role_names):
            out.append(exists(r))
            out.append(exists_inv(r))
        return out

    def role_exprs(self) -> list[RoleExpr]:
        out = []
        for r in sorted(self.role_names):
            out.append(RoleExpr(r))
            out.append(RoleExpr(r, inverse=True))
        return out

    def __iter__(self) -> Iterator[TBoxAxiom]:
        return iter(self.axioms)

    def __len__(self):
        return len(self.axioms)


@dataclass(frozen=True)
class ABox:
    """A finite set of ground atoms.  The reasoner keeps what it derives
    from a value in the instance's `__dict__` (`reasoner.memo_on_abox`),
    which takes no part in equality, hashing or repr."""

    atoms: frozenset[Atom]

    def __getstate__(self):
        # pickles and copies carry the value, not the reasoner's memo
        return {"atoms": self.atoms}

    def __post_init__(self):
        # a plain loop comparing kinds, not a call per term: every new ABox
        # value pays for this check
        for a in self.atoms:
            for t in a.args:
                if t.kind != CONST:
                    raise ValueError(f"non-ground atom in ABox: {a}")

    @staticmethod
    def of(atoms=()) -> ABox:
        return ABox(frozenset(atoms))

    def constants(self) -> frozenset[Term]:
        return frozenset(t for a in self.atoms for t in a.args)

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=atom_order_key)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms


@dataclass(frozen=True)
class Denial:
    """A forbidden pattern: the existential closure of `body` must never hold."""

    body: frozenset[Atom]

    def __post_init__(self):
        if not self.body:
            raise ValueError("denial body must be non-empty")


@dataclass(frozen=True)
class Policy:
    denials: frozenset[Denial]

    @staticmethod
    def of(denials=()) -> Policy:
        return Policy(frozenset(denials))

    def __iter__(self) -> Iterator[Denial]:
        return iter(self.denials)

    def __len__(self):
        return len(self.denials)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A Boolean conjunctive query: every variable is implicitly existential."""

    atoms: frozenset[Atom]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("conjunctive query must have at least one atom")

    @staticmethod
    def of(atoms) -> ConjunctiveQuery:
        return ConjunctiveQuery(frozenset(atoms))

    @property
    def variables(self) -> frozenset[Term]:
        return frozenset(v for a in self.atoms for v in a.variables())

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=atom_order_key)

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return " AND ".join(repr(a) for a in self.sorted_atoms())


# --- First-order query AST -------------------------------------------------
#
# Rewriting outputs live in a richer language than conjunctive queries:
# disjunction for the subsumption-expansion of atoms, negation for repair
# guards, and equality tests so guards can demand that distinct pattern
# positions really carry distinct values.


@dataclass(frozen=True)
class AtomNode:
    atom: Atom


@dataclass(frozen=True)
class And:
    children: tuple["FONode", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["FONode", ...]


@dataclass(frozen=True)
class Exists:
    variable: Term
    body: "FONode"

    def __post_init__(self):
        if not self.variable.is_var:
            raise ValueError("Exists must bind a variable")


@dataclass(frozen=True)
class Not:
    body: "FONode"


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Truth:
    value: bool


FONode = Union[AtomNode, And, Or, Exists, Not, Eq, Truth]

TRUE = Truth(True)
FALSE = Truth(False)


def fo_and(children) -> FONode:
    children = tuple(children)
    if not children:
        return TRUE
    if len(children) == 1:
        return children[0]
    return And(children)


def fo_or(children) -> FONode:
    children = tuple(children)
    if not children:
        return FALSE
    if len(children) == 1:
        return children[0]
    return Or(children)


def fo_exists(variables, body: FONode) -> FONode:
    for v in reversed(list(variables)):
        body = Exists(v, body)
    return body


def free_variables(node: FONode) -> frozenset[Term]:
    if isinstance(node, AtomNode):
        return node.atom.variables()
    if isinstance(node, (And, Or)):
        out: frozenset[Term] = frozenset()
        for c in node.children:
            out |= free_variables(c)
        return out
    if isinstance(node, Exists):
        return free_variables(node.body) - {node.variable}
    if isinstance(node, Not):
        return free_variables(node.body)
    if isinstance(node, Eq):
        return frozenset(t for t in (node.left, node.right) if t.is_var)
    return frozenset()


def node_count(node: FONode) -> int:
    if isinstance(node, (And, Or)):
        return 1 + sum(node_count(c) for c in node.children)
    if isinstance(node, (Exists, Not)):
        return 1 + node_count(node.body)
    return 1


def cq_to_fo(q: ConjunctiveQuery) -> FONode:
    body = fo_and([AtomNode(a) for a in q.sorted_atoms()])
    return fo_exists(sorted(q.variables), body)

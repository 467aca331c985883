"""Censors over the ground-atom closure, and the entailment relations they
induce.

An optimal censor keeps a maximal policy-consistent subset of the entailed
ground atoms.  `opt_ga_censor` builds one greedily in a configurable order;
`enumerate_optimal_ga_censors` finds all of them; `ib_entail` asks whether a
query holds under every one of them (skeptical entailment).  `secrets`,
`iar_repair` and `qib_entail` implement the tractable approximation: drop
every atom that participates in some minimal policy-violating subset and
query what is left.  `qib_entail_bruteforce` and `ib_entail_bruteforce`
re-decide the two semantics by raw subset enumeration and by querying every
enumerated censor; they exist purely as test oracles.

The secrets form a hypergraph on the closure.  The closure is consistent
and violation is monotone, so a subset of the closure is policy-safe iff it
contains no secret, and the optimal censors are the atoms outside every
secret plus one maximal independent set of the hypergraph.  `secrets`,
`opt_ga_censor` and `ib_entail` work on that hypergraph alone;
`ib_entail` searches for one censor that misses the query instead of
enumerating them all.  `enumerate_optimal_ga_censors` still runs the full
consistency and policy checks on candidate subsets, which makes the
enumeration an independent oracle for the greedy censor and for `ib`.

The secrets are images in the closure's row store (`closure_rows`), and
the repair is first a row store too: `repair_rows` is the closure's store
minus the rows of the atoms in some secret (`hidden_rows`), and
`qib_entail` reads it, so a `qib` verdict builds no closure or repair
atoms.  When every denial rewriting has the same number of atoms, on
distinct (predicate, arity) pairs, every image is a secret, and the hidden
rows are projected from the denials' matched rows: such a verdict builds
no secret image either.  The denial rewritings and that test are cached
per (TBox, policy) (`_denial_bodies`), and their matched rows are memoized
on the ABox (`_denial_matches`), so the hidden rows and the secrets of one
ABox join the denials once.  `secrets` builds the images as sets
of atoms for `opt_ga_censor`, `ib`, `iar_repair`, the other policies'
hidden rows and the oracles, and `iar_repair` builds the repair's atoms on
demand, for callers that read the repair itself.  The secrets, the hidden
rows, the repair and the enumerated censors are memoized on the ABox value,
with its closure, so every semantics and censor asked of one ABox shares
them."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Collection, Iterable

from .model import (
    ABox,
    Atom,
    ConjunctiveQuery,
    Policy,
    TBox,
    atom_order_key,
)
from .reasoner import (
    _SAME,
    _Relations,
    _abox_relations,
    _entailed_unchecked,
    _image_atoms,
    _image_rows,
    _images,
    abox_closure,
    closure_rows,
    cq_entailed,
    denial_query,
    is_consistent,
    is_policy_consistent,
    memo_on_abox,
    perfect_ref,
)

DEFAULT_SIZE_GUARD = 24


class SizeGuardError(Exception):
    """The closure is too large for an exponential desk-scale procedure."""

    def __init__(self, actual: int, limit: int):
        self.actual = actual
        self.limit = limit
        super().__init__(
            f"closure has {actual} atoms, above the size guard of {limit}; "
            "raise the limit to force the exponential path"
        )


def default_size_guard() -> int:
    env = os.environ.get("CQE_LIMIT")
    if not env:
        return DEFAULT_SIZE_GUARD
    message = f"CQE_LIMIT must be an integer of at least 1, got {env!r}"
    try:
        limit = int(env)
    except ValueError:
        raise ValueError(message) from None
    if limit < 1:
        raise ValueError(message)
    return limit


@dataclass(frozen=True)
class AtomOrder:
    """Iteration order over the closure: the global canonical order, or an
    explicit permutation of the closure atoms."""

    kind: str  # 'lex' | 'explicit'
    atoms: tuple[Atom, ...] = ()

    @staticmethod
    def lex() -> "AtomOrder":
        return AtomOrder("lex")

    @staticmethod
    def explicit(atoms) -> "AtomOrder":
        return AtomOrder("explicit", tuple(atoms))

    def arrange(self, closure_atoms: frozenset[Atom]) -> list[Atom]:
        if self.kind == "lex":
            return sorted(closure_atoms, key=atom_order_key)
        if set(self.atoms) != set(closure_atoms) or len(self.atoms) != len(closure_atoms):
            raise ValueError("explicit order must be a permutation of the closure atoms")
        return list(self.atoms)


def _guarded_closure(tbox: TBox, abox: ABox, limit: int | None) -> ABox:
    """The closure, for an exponential procedure: the inputs must be
    consistent, and then the closure must be within `limit` atoms (by
    default the size guard)."""
    closure = abox_closure(tbox, abox)
    limit = default_size_guard() if limit is None else limit
    if len(closure) > limit:
        raise SizeGuardError(len(closure), limit)
    return closure


def _keeps_policy(tbox: TBox, policy: Policy, atoms: frozenset[Atom]) -> bool:
    candidate = ABox(atoms)
    return is_consistent(tbox, candidate) and is_policy_consistent(tbox, policy, candidate)


def opt_ga_censor(
    tbox: TBox, policy: Policy, abox: ABox, order: AtomOrder = AtomOrder.lex()
) -> ABox:
    """Greedy optimal censor: walk the closure in the given order, keeping
    each atom whose addition leaves the kept set consistent with the TBox
    and the policy.

    The test runs on the secret hypergraph.  Every subset of the closure is
    consistent with the TBox (each model of TBox + ABox satisfies it), and a
    subset violates the policy iff it contains a secret.  The kept set never
    contains one, so adding `alpha` is safe unless some secret holding
    `alpha` has all its other atoms kept already.  One pass over the secrets
    of each atom makes the walk linear in their total size."""
    by_atom = _by_atom(secrets(tbox, policy, abox))
    closure = abox_closure(tbox, abox)
    kept: set[Atom] = set()
    _keep_greedily(kept, order.arrange(closure.atoms), by_atom)
    return ABox(frozenset(kept))


def _by_atom(secret_sets: Iterable[frozenset[Atom]]) -> dict[Atom, list[frozenset[Atom]]]:
    """The secrets through each atom; its keys are the atoms in some secret."""
    by_atom: dict[Atom, list[frozenset[Atom]]] = {}
    for s in secret_sets:
        for a in s:
            by_atom.setdefault(a, []).append(s)
    return by_atom


def _keep_greedily(
    kept: set[Atom], atoms: Iterable[Atom], by_atom: dict[Atom, list[frozenset[Atom]]]
) -> None:
    """Add each of `atoms` in turn to `kept` unless some secret through it
    has all its other atoms kept already."""
    for alpha in atoms:
        if not any(s - {alpha} <= kept for s in by_atom.get(alpha, ())):
            kept.add(alpha)


def enumerate_optimal_ga_censors(
    tbox: TBox, policy: Policy, abox: ABox, limit: int | None = None
) -> frozenset[ABox]:
    """All maximal policy-consistent subsets of the closure.  Exponential in
    the worst case; guarded by `limit` (default 24 closure atoms)."""
    _guarded_closure(tbox, abox, limit)
    return _optimal_censors(tbox, policy, abox)


@memo_on_abox
def _optimal_censors(tbox: TBox, policy: Policy, abox: ABox) -> frozenset[ABox]:
    """The enumeration behind `enumerate_optimal_ga_censors`: a branch and
    bound over the closure atoms that checks candidate subsets in full."""
    atoms = sorted(abox_closure(tbox, abox).atoms, key=atom_order_key)
    suffixes = [frozenset(atoms[i:]) for i in range(len(atoms) + 1)]
    found: set[frozenset[Atom]] = set()
    checked: dict[frozenset[Atom], bool] = {}  # the checks of this call only

    def keeps(candidate: frozenset[Atom]) -> bool:
        ok = checked.get(candidate)
        if ok is None:
            ok = checked[candidate] = _keeps_policy(tbox, policy, candidate)
        return ok

    def record(candidate: frozenset[Atom]) -> None:
        for extra in atoms:
            if extra not in candidate and keeps(candidate | {extra}):
                return
        found.add(candidate)

    def explore(i: int, chosen: frozenset[Atom]) -> None:
        # branch and bound: everything below is contained in `potential`
        potential = chosen | suffixes[i]
        if any(potential <= m for m in found):
            return
        if keeps(potential):
            record(potential)
            return
        if i == len(atoms):
            record(chosen)
            return
        with_alpha = chosen | {atoms[i]}
        if keeps(with_alpha):
            explore(i + 1, with_alpha)
        explore(i + 1, chosen)

    explore(0, frozenset())
    return frozenset(ABox(s) for s in found)


def ib_entail(
    tbox: TBox, policy: Policy, abox: ABox, q: ConjunctiveQuery, limit: int | None = None
) -> bool:
    """Skeptical entailment: `q` must hold in every optimal censor theory.
    Decided by searching the secret hypergraph for one optimal censor that
    misses `q`; guarded by `limit` like the enumeration."""
    return _counter_censor(tbox, policy, abox, q, limit) is None


def ib_entail_bruteforce(
    tbox: TBox, policy: Policy, abox: ABox, q: ConjunctiveQuery, limit: int | None = None
) -> bool:
    """Oracle for `ib_entail`: query every enumerated optimal censor."""
    censors = enumerate_optimal_ga_censors(tbox, policy, abox, limit)
    return all(cq_entailed(tbox, rep, q) for rep in censors)


def _counter_censor(
    tbox: TBox, policy: Policy, abox: ABox, q: ConjunctiveQuery, limit: int | None = None
) -> ABox | None:
    """An optimal censor that does not entail `q`, or None when every
    optimal censor entails it.

    The optimal censors are (closure - hidden) | M, where the hidden atoms
    are those in some secret and M ranges over the maximal independent sets
    of the secret hypergraph.  A censor entails `q` iff it contains a closure
    image of some `perfect_ref` rewriting of `q`.  An image with no hidden
    atom is in every censor; otherwise M must miss an atom of each image's
    hidden part.  Maximality holds per connected component of the
    hypergraph, so only the components that such a part touches are
    searched, and the others are completed greedily."""
    closure = _guarded_closure(tbox, abox, limit)
    by_atom = _by_atom(secrets(tbox, policy, abox))
    rel = closure_rows(tbox, abox)
    parts: set[frozenset[Atom]] = set()
    for rewritten in perfect_ref(q, tbox):
        for image in _images(rewritten, rel):
            part = frozenset(a for a in image if a in by_atom)
            if not part:
                return None
            parts.add(part)

    touched: set[Atom] = set()
    stack = [a for part in parts for a in part]
    while stack:
        alpha = stack.pop()
        if alpha not in touched:
            touched.add(alpha)
            for s in by_atom[alpha]:
                stack.extend(s)
    order = sorted(touched, key=atom_order_key)
    bit = {a: 1 << i for i, a in enumerate(order)}

    def mask(atoms: Iterable[Atom]) -> int:
        return sum(bit[a] for a in atoms)

    others = [[mask(s) & ~bit[a] for s in by_atom[a]] for a in order]
    closing: list[list[int]] = [[] for _ in order]
    for part in parts:
        m = mask(part)
        closing[m.bit_length() - 1].append(m)
    found = _independent_set_avoiding(others, closing)
    if found is None:
        return None
    kept = {a for a in order if found & bit[a]}
    _keep_greedily(kept, sorted(by_atom.keys() - touched, key=atom_order_key), by_atom)
    kept.update(closure.atoms - by_atom.keys())
    return ABox(frozenset(kept))


def _independent_set_avoiding(others: list[list[int]], closing: list[list[int]]) -> int | None:
    """A maximal independent set of a hypergraph on atoms 0..n-1 that holds
    no part wholly, as a bit mask, or None.

    `others[i]` holds, for each edge through atom i, the mask of its other
    atoms; `closing[i]` holds the parts whose highest atom is i.  The search
    decides the atoms in order, trying to keep each before dropping it.  An
    atom may be kept unless an edge through it has all its other atoms kept,
    or keeping it completes a part.  It may be dropped only while some edge
    through it has no other atom dropped, since a maximal set must block
    every atom it leaves out; the leaves check that each one is blocked."""
    n = len(others)
    stack = [(0, 0, 0)]  # (next atom, kept mask, dropped mask)
    while stack:
        i, kept, dropped = stack.pop()
        if i == n:
            if all(any(o & kept == o for o in others[j]) for j in range(n) if dropped >> j & 1):
                return kept
            continue
        here = 1 << i
        if any(o & dropped == 0 for o in others[i]):
            stack.append((i + 1, kept, dropped | here))
        if not any(o & kept == o for o in others[i]) and all(
            p & ~(kept | here) for p in closing[i]
        ):
            stack.append((i + 1, kept | here, dropped))
    return None


@memo_on_abox
def secrets(tbox: TBox, policy: Policy, abox: ABox) -> frozenset[frozenset[Atom]]:
    """All minimal closure subsets inconsistent with the TBox and policy.

    Every homomorphic image of a rewritten denial body is such a violating
    set, and every violating subset of the closure contains one: the
    closure is consistent, so a subset can only violate the policy, and then
    some rewritten body maps into it.  The secrets are therefore exactly the
    images with no other image as a proper subset, which a lookup of each
    image's proper subsets decides.  Only the subsets of a size that some
    image has are looked up, so an image of the least size, which can hold
    no other, needs no lookup at all.  The images are built as atoms from
    the denials' matched rows (`_denial_matches`), for the censors, `ib`,
    `iar_repair` and the oracles; a `qib` verdict under uniform denial
    rewritings reads `hidden_rows` from the same rows and builds none."""
    images: set[frozenset[Atom]] = set()
    for picks, rows in _denial_matches(tbox, policy, abox):
        images.update(_image_atoms(picks, rows))
    sizes = sorted(set(map(len, images)))
    return frozenset(
        s
        for s in images
        if len(s) == sizes[0]
        or not any(
            frozenset(c) in images
            for r in sizes[: sizes.index(len(s))]
            for c in combinations(s, r)
        )
    )


@lru_cache(maxsize=1024)
def _denial_bodies(tbox: TBox, policy: Policy) -> tuple[tuple[ConjunctiveQuery, ...], bool]:
    """The `perfect_ref` rewritings of the policy's denials, and whether they
    are uniform: all of the same number of atoms, and no two atoms of one
    on the same (predicate, arity)."""
    bodies = tuple(r for d in policy.denials for r in perfect_ref(denial_query(d), tbox))
    sizes = {len(r.atoms) for r in bodies}
    uniform = len(sizes) < 2 and all(
        len({(a.predicate, a.arity) for a in r.atoms}) == len(r.atoms) for r in bodies
    )
    return bodies, uniform


@memo_on_abox
def _denial_matches(
    tbox: TBox, policy: Policy, abox: ABox
) -> tuple[tuple[list[tuple[Atom, itemgetter]], Collection[tuple]], ...]:
    """The matched rows of each denial rewriting over the closure's rows
    (`_image_rows`), which both `secrets` and `hidden_rows` read, so that
    the denials are joined once per ABox."""
    rel = closure_rows(tbox, abox)
    return tuple(_image_rows(body, rel) for body in _denial_bodies(tbox, policy)[0])


@memo_on_abox
def hidden_rows(
    tbox: TBox, policy: Policy, abox: ABox
) -> dict[tuple[str, int], Collection[tuple]]:
    """The rows of the atoms that occur in some secret, grouped by
    (predicate, arity); empty when there is no secret.

    When the denial rewritings are uniform (`_denial_bodies`), every image
    has as many atoms as each rewriting, so none holds another and every
    image is a secret.  The hidden rows of a group are then the union, over
    the rewritings, of the image rows of their atoms in that group, read
    from the matched rows (`_image_rows`) with no image built.  Otherwise
    they are the rows of the atoms of `secrets`."""
    if not _denial_bodies(tbox, policy)[1]:
        return _Relations(frozenset().union(*secrets(tbox, policy, abox))).groups
    parts: dict[tuple[str, int], list[Collection[tuple]]] = {}
    for picks, rows in _denial_matches(tbox, policy, abox):
        for a, pick in picks:
            parts.setdefault((a.predicate, a.arity), []).append(
                rows if pick is _SAME else set(map(pick, rows))
            )
    return {key: sets[0] if len(sets) == 1 else set().union(*sets) for key, sets in parts.items()}


@memo_on_abox
def repair_rows(tbox: TBox, policy: Policy, abox: ABox) -> _Relations:
    """The rows of the closure minus every atom that occurs in some secret,
    as a row store: the closure's store without `hidden_rows`, one set
    difference per hidden group, and every other group read from the
    closure's.  With no secret this is the closure's store itself.  When the
    denial rewritings are uniform, no secret image is built for it."""
    hidden = hidden_rows(tbox, policy, abox)
    rel = closure_rows(tbox, abox)
    return rel.minus(hidden) if hidden else rel


@memo_on_abox
def iar_repair(tbox: TBox, policy: Policy, abox: ABox) -> ABox:
    """The closure minus every atom that occurs in some secret; equals the
    intersection of all maximal policy-consistent subsets: `repair_rows`
    materialized, for callers that read the repair itself.  With no
    secret this is the closure itself, which then shares its derived state;
    otherwise the repair's row store is handed to its `_abox_relations`
    instead of grouping its atoms again."""
    closure = abox_closure(tbox, abox)
    hidden = frozenset().union(*secrets(tbox, policy, abox))
    if not hidden:
        return closure
    repair = ABox(closure.atoms - hidden)
    _abox_relations.put(repair, repair_rows(tbox, policy, abox))
    return repair


def qib_entail(tbox: TBox, policy: Policy, abox: ABox, q: ConjunctiveQuery) -> bool:
    """Entailment under the quasi-optimal censor: query the repair's rows.
    The repair is a subset of the closure, which `closure_rows` found
    consistent, so it needs no consistency check of its own."""
    return _entailed_unchecked(tbox, repair_rows(tbox, policy, abox), q)


def qib_entail_bruteforce(
    tbox: TBox, policy: Policy, abox: ABox, q: ConjunctiveQuery, limit: int | None = None
) -> bool:
    """Oracle for `qib_entail`: search for a closure subset that entails the
    query while avoiding every secret, by plain subset enumeration."""
    closure = _guarded_closure(tbox, abox, limit)
    atoms = sorted(closure.atoms, key=atom_order_key)
    forbidden = 0
    index = {a: i for i, a in enumerate(atoms)}
    for s in secrets(tbox, policy, abox):
        for a in s:
            forbidden |= 1 << index[a]

    for mask in range(1 << len(atoms)):
        if mask & forbidden:
            continue
        subset = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if _entailed_unchecked(tbox, _abox_relations(ABox(subset)), q):
            return True
    return False

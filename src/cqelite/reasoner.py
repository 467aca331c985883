"""Core reasoning for DL-Lite-style ontologies.

The pieces fit together like this: `saturate_tbox` closes the inclusion
axioms into full subsumption / disjointness relations, found by
reachability over the signature, and its result also indexes the
subsumptions by either side for the closure, the chase and `atom_rewr`.
`perfect_ref` rewrites a conjunctive query into a union of queries whose
plain evaluation over the raw data coincides with certain-answer
entailment.  It reads each atom as the expressions it asserts, and the
TBox's own positive inclusions one step at a time (`_one_step`), not the
closure's maps: those pair every unsatisfiable expression with every
expression, so reading them would change the rewriting sets.
`closure_rows` derives the rows of every entailed ground atom over the
data constants, and `abox_closure` builds atoms of them only where an
output needs them; `is_consistent` reads the disjointness pairs of the TBox
closure off the data's asserted expressions, with no rewriting.
`chase_bounded` builds a truncated canonical model and serves as an
independent entailment oracle for validating the rewriting.

One plan orders every conjunctive query match over whole row sets:
`_plan` takes the atoms' rows (`_atom_rows`) smallest first, one
variable-connected component at a time.  Verdicts probe the plan's last
step, while images join it in full.  `_satisfiable` joins every part of a
component but the last (`_join`) and probes the last one for a first
witness (`_witness`), so it decides `eval_cq`, `chase_satisfies` and the
`EXISTS` conjunctions of `eval_fo`, whose negated guards it reads once
each component has a first candidate row (`_candidates`) and checks on the
way.  `_components` joins every part (`_bound_rows`), for the matched rows
behind `censors.hidden_rows` and the images behind `censors.secrets` and
`ib`'s counter-censor search (both from `_image_rows`) and behind the
pattern minimality check in `rewriting`, and for the other conjunctions of
`eval_fo`.

One rule table on the TBox closure, `InclusionClosure.fact_rules`, derives
the entailed facts for both `closure_rows` and `chase_bounded`: for each
(predicate, arity) the facts it entails, as a name and a pick of columns.
The closure applies each rule to all the rows of its predicate at once.

Derived state is row sets first.  A row store (`_Relations`) holds one set
per (predicate, arity), hashed on first read; the closure's store
(`closure_rows`) holds the groups it derives and reads every other group
from the ABox's store (`_abox_relations`), and the repair's store
(`censors.repair_rows`) holds the groups that lose hidden rows and reads
the rest from the closure's.  Verdicts read these stores, and no closure
or repair atom is built for them: `cq_entailed` matches the rewritings on
the ABox's rows and `qib_entail` on the repair's, through one helper.  The
`ABox` values `abox_closure` and `censors.iar_repair` are built on demand,
for callers that read atoms (the command line, the censors, the oracles
and the tests), and inherit those stores (`memo_on_abox`'s `put`), so
neither groups its atoms again.

What is derived from an ABox (its row stores, closure, consistency, policy
consistency, and the secrets and repair in `censors`) is memoized on the
ABox value itself by `memo_on_abox`, so it is computed once per value and
dies with it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import chain, product, repeat
from operator import add, itemgetter
from typing import AbstractSet, Collection, Iterable, Iterator, NamedTuple, Optional, Union

from .model import (
    ATOMIC,
    ABox,
    Atom,
    BasicConcept,
    ConjunctiveQuery,
    Policy,
    RoleExpr,
    RoleInclusion,
    TBox,
    Term,
    atomic,
    check_predicate,
    unchecked_atom,
    var,
)

class InconsistentOntologyError(Exception):
    """Raised when an operation requires a consistent TBox + ABox."""


class CacheInfo(NamedTuple):
    hits: int
    misses: int


_SELF = object()  # stands for a result that is the ABox itself
_MISSING = object()  # a key the memo does not hold: looked up, not raised


def memo_on_abox(fn):
    """Memoize `fn(*keys, abox)` on the ABox value: the result is stored in
    the instance's `__dict__` under (fn, *keys), which leaves the frozen
    dataclass's eq, hash and repr alone.  It lives exactly as long as that
    value, and equal but distinct values do not share it.  A result that is
    the ABox itself is stored as a marker, so the memo makes no reference
    cycle.  A miss is a dictionary lookup, not a raised `KeyError`, since
    every fresh ABox misses once per derived result.  `cache_info()` counts
    hits and misses, as `lru_cache` does, and `put(*keys, abox, value)`
    stores a result that was found another way, counting neither."""
    counts = [0, 0]

    def put(*args):
        *keys, abox, result = args
        store = abox.__dict__.setdefault("_derived", {})
        store[(fn, *keys)] = _SELF if result is abox else result

    @wraps(fn)
    def memo(*args):
        abox = args[-1]
        store = abox.__dict__.get("_derived")
        if store is None:
            store = abox.__dict__["_derived"] = {}
        key = (fn, *args[:-1])
        result = store.get(key, _MISSING)
        if result is _MISSING:
            counts[1] += 1
            result = fn(*args)
            store[key] = _SELF if result is abox else result
            return result
        counts[0] += 1
        return abox if result is _SELF else result

    memo.cache_info = lambda: CacheInfo(*counts)
    memo.put = put
    return memo


@dataclass(frozen=True)
class InclusionClosure:
    """Entailed subsumptions and disjointness pairs over the signature.

    `concept_subs` contains (X, Y) iff every instance of X must be an
    instance of Y; disjointness pairs are unordered (frozensets of size 1
    encode an unsatisfiable expression).  The four maps index the
    subsumptions by either side, each list sorted, and `fact_rules` reads
    them as rules on ground facts; all are built on first use and live as
    long as the closure."""

    concept_subs: frozenset[tuple[BasicConcept, BasicConcept]]
    role_subs: frozenset[tuple[RoleExpr, RoleExpr]]
    disjoint_concepts: frozenset[frozenset[BasicConcept]]
    disjoint_roles: frozenset[frozenset[RoleExpr]]

    @cached_property
    def concept_subsumers(self) -> dict[BasicConcept, list[BasicConcept]]:
        return _sorted_map(self.concept_subs)

    @cached_property
    def concept_subsumees(self) -> dict[BasicConcept, list[BasicConcept]]:
        return _sorted_map((y, x) for (x, y) in self.concept_subs)

    @cached_property
    def role_subsumers(self) -> dict[RoleExpr, list[RoleExpr]]:
        return _sorted_map(self.role_subs)

    @cached_property
    def role_subsumees(self) -> dict[RoleExpr, list[RoleExpr]]:
        return _sorted_map((y, x) for (x, y) in self.role_subs)

    @cached_property
    def fact_rules(self) -> dict[tuple[str, int], list[tuple[str, int, itemgetter]]]:
        """The named facts that one fact entails, as rules keyed by the
        fact's (predicate, arity).  A rule `(name, arity, pick)` derives
        `name(pick(args))` from each fact's `args`: a role fact entails its
        role subsumers (`_SAME` or `_SWAPPED` columns) and the atomic
        subsumers of its domain (`_FIRST`) and of its range (`_SECOND`); a
        concept fact entails its atomic subsumers (`_SAME`).  The reflexive
        rule is left out.  The subsumption maps are transitive, so no fact a
        rule derives entails one that the rules do not derive directly.  The
        names are not validated here, since a TBox may name what no ABox
        holds."""
        rules: dict[tuple[str, int], list[tuple[str, int, itemgetter]]] = {}

        def atomic_sups(b: BasicConcept, pick: itemgetter) -> list:
            sups = self.concept_subsumers[b]
            return [(s.name, 1, pick) for s in sups if s.kind == ATOMIC and s != b]

        for r, sups in self.role_subsumers.items():
            if not r.inverse:
                roles = [(s.name, 2, _SWAPPED if s.inverse else _SAME) for s in sups if s != r]
                domains = atomic_sups(r.domain(), _FIRST) + atomic_sups(r.range(), _SECOND)
                rules[(r.name, 2)] = roles + domains
        for b in self.concept_subsumers:
            if b.kind == ATOMIC:
                rules[(b.name, 1)] = atomic_sups(b, _SAME)
        return {key: found for key, found in rules.items() if found}


# the column picks of a fact rule, from the args of the fact it reads
_SAME = itemgetter(slice(None))
_SWAPPED = itemgetter(slice(None, None, -1))
_FIRST = itemgetter(slice(0, 1))
_SECOND = itemgetter(slice(1, 2))


def _sorted_map(pairs: Iterable[tuple]) -> dict:
    out: dict = {}
    for x, y in pairs:
        out.setdefault(x, []).append(y)
    for ys in out.values():
        ys.sort()
    return out


def _reach(starts: Iterable, edges: dict) -> set:
    """The nodes reachable from `starts` along `edges`, `starts` included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for y in edges.get(stack.pop(), ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


@lru_cache(maxsize=4096)
def saturate_tbox(tbox: TBox) -> InclusionClosure:
    """The TBox closure, computed by reachability.  The TBox's signature
    must cover its axioms, as `TBox.of` ensures.

    - Subsumption is the reflexive-transitive closure, over the signature,
      of the positive inclusions; a role inclusion r [= s is also read as
      r- [= s- and as ex r [= ex s, which gives the ranges through the
      inverses.
    - Disjointness is each negative inclusion, a role one also read on the
      inverses, inherited by every pair of subsumees.
    - An expression is unsatisfiable when it is disjoint from itself, and
      then so is each of its subsumees, and a role is unsatisfiable iff its
      domain and range are.  An unsatisfiable expression is subsumed by, and
      disjoint from, every expression of its kind.

    Those vacuous pairs are added last: each has an unsatisfiable left side,
    so no rule above applied to one yields a pair that is not itself
    vacuous or already derived."""
    basics = tbox.basic_concepts()
    roles = tbox.role_exprs()
    # concepts and roles are the nodes of one graph; only the links that
    # carry unsatisfiability, below, join the two kinds
    up: dict = {x: set() for x in basics + roles}
    negative: list[tuple] = []
    for ax in tbox.axioms:
        pairs = [(ax.lhs, ax.rhs)]
        if isinstance(ax, RoleInclusion):
            pairs.append((ax.lhs.inverted(), ax.rhs.inverted()))
        for x, y in pairs:
            if ax.negated:
                negative.append((x, y))
            else:
                up[x].add(y)
                if isinstance(ax, RoleInclusion):
                    up[x.domain()].add(y.domain())
    subs = {(x, y) for x in up for y in _reach((x,), up)}

    down: dict = {}
    for x, y in subs:
        down.setdefault(y, []).append(x)
    disjoint = {frozenset((x, y)) for a, b in negative for x in down[a] for y in down[b]}

    # unsatisfiability passes down subsumption and between a role and the
    # domains of it and its inverse (the domain of r- is the range of r)
    for r in roles:
        down[r].extend((r.domain(), r.range()))
        down[r.domain()].append(r)
    unsat = _reach((x for p in disjoint if len(p) == 1 for x in p), down)
    for x in unsat:
        for y in roles if isinstance(x, RoleExpr) else basics:
            subs.add((x, y))
            disjoint.add(frozenset((x, y)))

    def split(items: set) -> tuple[frozenset, frozenset]:
        concepts = frozenset(p for p in items if isinstance(next(iter(p)), BasicConcept))
        return concepts, frozenset(items) - concepts

    (concept_subs, role_subs), (disjoint_concepts, disjoint_roles) = split(subs), split(disjoint)
    return InclusionClosure(concept_subs, role_subs, disjoint_concepts, disjoint_roles)


def concept_atom(b: BasicConcept, t: Term, side: Term) -> Atom:
    """The atom asserting membership of `t` in `b`, with `side` as the
    witness position for existential expressions."""
    if b.kind == "atomic":
        return Atom(b.name, (t,))
    if b.kind == "exists":
        return Atom(b.name, (t, side))
    return Atom(b.name, (side, t))


def role_atom(r: RoleExpr, t1: Term, t2: Term) -> Atom:
    if r.inverse:
        return Atom(r.name, (t2, t1))
    return Atom(r.name, (t1, t2))


def _realized(pred: str, args: tuple) -> list[tuple[BasicConcept, Term]]:
    """Basic concepts directly witnessed by one fact."""
    if len(args) == 1:
        return [(atomic(pred), args[0])]
    return [
        (BasicConcept("exists", pred), args[0]),
        (BasicConcept("exists_inv", pred), args[1]),
    ]


# --- conjunctive query evaluation -------------------------------------------


# the variables a set of rows ranges over, and the rows
_Rows = tuple[tuple[Term, ...], AbstractSet[tuple]]


class _Relations:
    """Stored argument tuples (over any term type), one set per predicate
    and arity, read from (predicate, args) pairs: `Atom`s as they are, or
    the chase's plain pairs.  `groups` maps each (predicate, arity) to its
    rows, a collection that may repeat a row until `row_set` makes the set
    of it on first use, so a store read for a few predicates only hashes
    their rows.  A store derived from another (`closure_rows`, `minus`)
    holds only the groups it changes and reads every other group from its
    `base`, so the two share that group's one set, frozen by whichever
    reads it first."""

    def __init__(
        self, facts: Iterable[tuple[str, tuple]] = (), base: Optional[_Relations] = None
    ):
        self.base = base
        self.groups: dict[tuple[str, int], Collection[tuple]] = {}
        # group by predicate, and split a group by arity only when its rows
        # have mixed lengths: a tuple key per fact costs more than the split
        by_pred: dict[str, list[tuple]] = defaultdict(list)
        for pred, args in facts:
            by_pred[pred].append(args)
        for pred, rows in by_pred.items():
            arities = set(map(len, rows))
            if len(arities) == 1:
                self.groups[(pred, arities.pop())] = rows
            else:
                for args in rows:
                    self.groups.setdefault((pred, len(args)), []).append(args)

    def row_set(self, pred: str, arity: int) -> frozenset[tuple]:
        # a key the store does not hold reads as empty and is not added,
        # since `closure_rows` applies the rules of every group
        key = (pred, arity)
        rows = self.groups.get(key)
        if rows is None:
            return frozenset() if self.base is None else self.base.row_set(pred, arity)
        if type(rows) is not frozenset:
            rows = self.groups[key] = frozenset(rows)
        return rows

    def all_groups(self) -> dict[tuple[str, int], Collection[tuple]]:
        """Every group of the store, its own over its base's."""
        if self.base is None:
            return self.groups
        return {**self.base.all_groups(), **self.groups}

    def minus(self, groups: dict[tuple[str, int], Iterable[tuple]]) -> _Relations:
        """The rows of this store without the rows of `groups`, grouped by
        (predicate, arity) as a store's own: one set difference per group."""
        out = _Relations(base=self)
        for key, rows in groups.items():
            out.groups[key] = self.row_set(*key).difference(rows)
        return out


def _atom_rows(atom: Atom, rel: _Relations) -> _Rows:
    """The rows of `atom` in `rel`, over its distinct variables in order of
    first occurrence.  An atom over pairwise-distinct variables reads its
    predicate's stored rows as they are, and a ground atom is one lookup;
    otherwise the stored rows are filtered in one pass for the atom's
    constants and repeated variables."""
    args = atom.args
    stored = rel.row_set(atom.predicate, atom.arity)
    first: dict[Term, int] = {}
    fixed: list[tuple[int, Term]] = []  # the row holds this constant here
    same: list[tuple[int, int]] = []  # the row repeats an earlier value here
    for i, t in enumerate(args):
        if t.is_const:
            fixed.append((i, t))
        elif t in first:
            same.append((i, first[t]))
        else:
            first[t] = i
    if not fixed and not same:
        return args, stored
    if not first:
        return (), ({()} if args in stored else set())
    keep = tuple(first.values())
    return tuple(first), {
        tuple(r[i] for i in keep)
        for r in stored
        if all(r[i] == c for i, c in fixed) and all(r[i] == r[j] for i, j in same)
    }


def _reorder(v: tuple, rows: AbstractSet[tuple], out_vars: tuple) -> AbstractSet[tuple]:
    """`rows` over `v` with their columns in the order of `out_vars`, a
    permutation of `v`."""
    if v == out_vars:
        return rows
    return set(map(itemgetter(*(v.index(x) for x in out_vars)), rows))


def _join(v1: tuple, r1: AbstractSet[tuple], v2: tuple, r2: AbstractSet[tuple]) -> _Rows:
    """The natural join of two row sets: an intersection when they range
    over the same variables, a hash join on the shared ones otherwise (a
    product when they share none).  The smaller side is indexed and the
    larger one probes it; the output ranges over `v1` and then the rest of
    `v2`, whichever side is indexed."""
    if len(v1) == len(v2) and set(v1) == set(v2):
        if len(r1) > len(r2):
            v1, r1, v2, r2 = v2, r2, v1, r1
        return v2, _reorder(v1, r1, v2) & r2
    shared = [x for x in v2 if x in v1]
    out_vars = v1 + tuple(x for x in v2 if x not in v1)
    pos1 = [v1.index(x) for x in shared]
    pos2 = [v2.index(x) for x in shared]
    rest2 = [i for i, x in enumerate(v2) if x not in v1]
    index: dict[tuple, list[tuple]] = {}
    out = set()
    if len(r1) <= len(r2):
        for r in r1:
            index.setdefault(tuple(r[i] for i in pos1), []).append(r)
        for r in r2:
            heads = index.get(tuple(r[i] for i in pos2))
            if heads:
                tail = tuple(r[i] for i in rest2)
                out.update(head + tail for head in heads)
    else:
        for r in r2:
            index.setdefault(tuple(r[i] for i in pos2), []).append(tuple(r[i] for i in rest2))
        for r in r1:
            for tail in index.get(tuple(r[i] for i in pos1), ()):
                out.add(r + tail)
    return out_vars, out


def _plan(parts: Iterable[_Rows]) -> Optional[list[list[_Rows]]]:
    """The join order of row sets: the parts of each variable-connected
    component in the order they are joined, or None as soon as a part is
    empty, so `parts` is read no further than its first empty one.  Parts
    over no variables hold the empty row and are dropped.  The rest are
    taken smallest first, ties broken by their sorted variables and then
    their variable tuple, so the order does not depend on the order of
    `parts`; each next one shares a variable with those already taken, and
    when none does, the component is complete and the next one starts from
    the smallest part left."""
    todo: list[_Rows] = []
    for part in parts:
        if not part[1]:
            return None
        if part[0]:
            todo.append(part)
    todo.sort(key=lambda p: (len(p[1]), sorted(p[0]), p[0]))
    plan: list[list[_Rows]] = []
    while todo:
        component = [todo.pop(0)]
        seen = set(component[0][0])
        i = 0
        while i < len(todo):
            if seen.isdisjoint(todo[i][0]):
                i += 1
            else:
                component.append(todo.pop(i))
                seen.update(component[-1][0])
                i = 0
        plan.append(component)
    return plan


def _components(parts: Iterable[_Rows]) -> Optional[list[_Rows]]:
    """Join row sets into one row set per variable-connected component, in
    `_plan`'s order, or None as soon as a part or a join comes out empty."""
    plan = _plan(parts)
    if plan is None:
        return None
    components: list[_Rows] = []
    for (cur_vars, cur), *rest in plan:
        for part in rest:
            cur_vars, cur = _join(cur_vars, cur, *part)
            if not cur:
                return None
        components.append((cur_vars, cur))
    return components


def _columns(v: tuple, out_vars: tuple) -> itemgetter:
    """The values of a row over `v` at `out_vars`, as a tuple."""
    if len(out_vars) == 1:
        i = v.index(out_vars[0])
        return itemgetter(slice(i, i + 1))
    if not out_vars:
        return itemgetter(slice(0, 0))
    return itemgetter(*map(v.index, out_vars))


def _witness(v1: tuple, r1: AbstractSet[tuple], v2: tuple, r2: AbstractSet[tuple],
             negated: list[_Rows]) -> bool:
    """True iff some row of the natural join of two row sets lies in none of
    the `negated` row sets, each over some of their variables.  With nothing
    negated it is an `isdisjoint`, which runs in C; otherwise the join's
    rows are streamed (`_candidates`) and the search stops at the first row
    that survives."""
    if negated:
        return _survives(*_candidates(v1, r1, v2, r2), negated)
    if len(r1) > len(r2):
        v1, r1, v2, r2 = v2, r2, v1, r1
    if len(v1) == len(v2) and set(v1) == set(v2):
        return not r2.isdisjoint(r1 if v1 == v2 else map(_columns(v1, v2), r1))
    shared = tuple(x for x in v2 if x in v1)
    return not set(map(_columns(v1, shared), r1)).isdisjoint(map(_columns(v2, shared), r2))


def _candidates(
    v1: tuple, r1: AbstractSet[tuple], v2: tuple, r2: AbstractSet[tuple]
) -> tuple[tuple, Iterator[tuple]]:
    """The rows of the natural join of two row sets, as a stream, and their
    variables.  The smaller side is streamed through the larger one when
    they range over the same variables, and indexed by the shared ones and
    probed otherwise."""
    if len(r1) > len(r2):
        v1, r1, v2, r2 = v2, r2, v1, r1
    if len(v1) == len(v2) and set(v1) == set(v2):
        rows = r1 if v1 == v2 else map(_columns(v1, v2), r1)
        return v2, filter(r2.__contains__, rows)
    shared = tuple(x for x in v2 if x in v1)
    key1, key2 = _columns(v1, shared), _columns(v2, shared)
    index: dict[tuple, list[tuple]] = {}
    for r in r1:
        index.setdefault(key1(r), []).append(r)
    rest = tuple(x for x in v2 if x not in v1)
    tail = _columns(v2, rest)
    return v1 + rest, (head + tail(r) for r in r2 for head in index.get(key2(r), ()))


def _survives(v: tuple, rows: Iterable[tuple], negated: list[_Rows]) -> bool:
    """True iff some row over `v` lies in none of the `negated` row sets."""
    checks = [(_columns(v, nv), nrows) for nv, nrows in negated]
    return any(all(pick(r) not in nrows for pick, nrows in checks) for r in rows)


def _joined(parts: list[_Rows]) -> Optional[_Rows]:
    """The join of `parts` in their order, or None once it is empty."""
    (v, rows), *rest = parts
    for part in rest:
        v, rows = _join(v, rows, *part)
        if not rows:
            return None
    return v, rows


def _satisfiable(parts: Iterable[_Rows], negated: Iterable[_Rows] = ()) -> bool:
    """True iff some row of the natural join of `parts` lies in none of the
    `negated` row sets, each over variables of the parts: the existence
    test behind every Boolean verdict.

    It follows `_plan`: each component joins every part but its last with
    `_join`, and probes the last one (`_witness`) instead of joining it,
    which is exact for any body, cyclic or not.  The components are decided
    one at a time, never multiplied, and the first empty one answers False.
    `negated` may be an iterator, and it is read only once each component
    has its first candidate row, so a join with no row reads none of it;
    an empty `negated` is passed as an empty collection, so that each
    component is an `isdisjoint` (`_witness`).  Only components that one negated set spans are then decided together,
    through their product."""
    plan = _plan(parts)
    if plan is None:
        return False
    streams: list[tuple[tuple, Iterable[tuple]]] = []  # each component's candidates
    for *head, (v2, r2) in plan:
        if not head:
            streams.append((v2, r2))
            continue
        joined = _joined(head)
        if joined is None:
            return False
        if not negated:
            if not _witness(*joined, v2, r2, []):
                return False
            continue
        out_vars, rows = _candidates(*joined, v2, r2)
        first = next(rows, None)
        if first is None:
            return False
        streams.append((out_vars, chain((first,), rows)))
    negated = [n for n in negated if n[1]]
    if not negated:
        return True
    if any(not nv for nv, _ in negated):
        return False
    owner = {x: i for i, component in enumerate(plan) for v, _ in component for x in v}
    if any(len({owner[x] for x in nv}) > 1 for nv, _ in negated):
        positives = [p for component in plan for p in component]
        joined = _joined(positives[:-1])
        return joined is not None and _witness(*joined, *positives[-1], negated)
    by_component: list[list[_Rows]] = [[] for _ in plan]
    for n in negated:
        by_component[owner[n[0][0]]].append(n)
    return all(
        _survives(v, rows, excluded)
        for (v, rows), excluded in zip(streams, by_component)
        if excluded
    )


def _bound_rows(atoms: Iterable[Atom], rel: _Relations) -> tuple[list[Term], Iterable[tuple]]:
    """The variables of `atoms`, and one row of their values for every map
    of them that sends each atom to a row of `rel`, constants fixed.  The
    atoms' row sets are joined per variable-connected component
    (`_components`), and the components are never joined: a row takes one
    row of each, so a query whose components all match has its first row
    without building their product."""
    components = _components(_atom_rows(a, rel) for a in atoms)
    if components is None:
        return [], ()
    names = [x for v, _ in components for x in v]
    if len(components) == 1:
        return names, components[0][1]
    return names, map(tuple, map(chain.from_iterable, product(*(rows for _, rows in components))))


def _image_rows(
    body: ConjunctiveQuery, rel: _Relations
) -> tuple[list[tuple[Atom, itemgetter]], Collection[tuple]]:
    """Each atom of `body` with the pick of its args' columns, and one row
    for each homomorphism of `body` into `rel`: its bound row with the
    body's constants appended, so that a pick maps the row to the atom's
    image row.  The rows are a set or a list, and empty when there is no
    homomorphism.  An atom whose args are the row's columns in order picks
    the row itself (`_SAME`)."""
    atoms = list(body.atoms)
    names, rows = _bound_rows(atoms, rel)
    consts = tuple(dict.fromkeys(t for a in atoms for t in a.args if t.is_const))
    if consts:
        rows = map(add, rows, repeat(consts))
    if not isinstance(rows, (set, frozenset)):
        rows = list(rows)
    if not rows:
        return [], rows
    column = {x: i for i, x in enumerate(names + list(consts))}
    width = len(column)

    def pick(a: Atom) -> itemgetter:
        cols = [column[t] for t in a.args]
        if len(cols) == width and cols == list(range(width)):
            return _SAME
        # one index would give the value itself, a slice gives the 1-tuple
        return itemgetter(*cols) if len(cols) == 2 else itemgetter(slice(cols[0], cols[0] + 1))

    return [(a, pick(a)) for a in atoms], rows


def _images(body: ConjunctiveQuery, rel: _Relations) -> Iterator[frozenset[Atom]]:
    """The image of `body` under each of its homomorphisms into `rel`."""
    return _image_atoms(*_image_rows(body, rel))


def _image_atoms(
    picks: list[tuple[Atom, itemgetter]], rows: Collection[tuple]
) -> Iterator[frozenset[Atom]]:
    """The images that `_image_rows`' picks and rows stand for, their atoms
    built in C, unchecked: their predicates are the body's and their args
    come from the rows."""
    image_atoms = [
        map(unchecked_atom, zip(repeat(a.predicate), map(pick, rows))) for a, pick in picks
    ]
    return map(frozenset, zip(*image_atoms))


@memo_on_abox
def _abox_relations(abox: ABox) -> _Relations:
    return _Relations(abox.atoms)


def _matches(q: ConjunctiveQuery, rel: _Relations) -> bool:
    """True iff some homomorphism maps the query atoms into the rows of
    `rel` (variables to its values, constants fixed)."""
    return _satisfiable(_atom_rows(a, rel) for a in q.atoms)


def eval_cq(q: ConjunctiveQuery, abox: ABox) -> bool:
    """True iff some homomorphism maps the query atoms into the ABox
    (variables to constants, constants fixed)."""
    return _matches(q, _abox_relations(abox))


# --- query rewriting ----------------------------------------------------------


def _atom_key(a: Atom) -> tuple:
    return (a.predicate, a.arity, a.args)


def _canonical_cq(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Deterministic variable renaming; used to deduplicate rewritings.

    The renaming follows atom order under the original names, so the result
    is a pure function of the input (no dependence on set iteration order)."""

    atoms = sorted(q.atoms, key=_atom_key)
    mapping: dict[Term, Term] = {}
    for a in atoms:
        for t in a.args:
            if t.is_var and t not in mapping:
                mapping[t] = var(f"V{len(mapping) + 1}")
    return ConjunctiveQuery(frozenset(
        unchecked_atom((a.predicate, tuple(mapping.get(t, t) for t in a.args))) for a in atoms
    ))


def _var_counts(atoms: frozenset[Atom]) -> dict[Term, int]:
    counts: dict[Term, int] = {}
    for a in atoms:
        for t in a.args:
            if t.is_var:
                counts[t] = counts.get(t, 0) + 1
    return counts


# the witness of an existential left side; every rewriting is canonical, so
# its variables are V1...Vn and this one is free
_FRESH = var("F1")


def _one_step(tbox: TBox) -> dict[Union[BasicConcept, RoleExpr], list]:
    """The left sides of the TBox's positive inclusions, keyed by their right
    side; a role inclusion r [= s is also read as r- [= s-."""
    lhs_of: dict = {}
    for ax in tbox.axioms:
        if not ax.negated:
            lhs_of.setdefault(ax.rhs, []).append(ax.lhs)
            if isinstance(ax, RoleInclusion):
                lhs_of.setdefault(ax.rhs.inverted(), []).append(ax.lhs.inverted())
    return lhs_of


def _resolve(t: Term, subst: dict[Term, Term]) -> Term:
    while t in subst:
        t = subst[t]
    return t


def _unify_atoms(g1: Atom, g2: Atom) -> Optional[dict[Term, Term]]:
    if g1.predicate != g2.predicate or g1.arity != g2.arity:
        return None
    subst: dict[Term, Term] = {}
    for a, b in zip(g1.args, g2.args):
        a, b = _resolve(a, subst), _resolve(b, subst)
        if a == b:
            continue
        if a.is_var:
            subst[a] = b
        elif b.is_var:
            subst[b] = a
        else:
            return None
    return subst


@lru_cache(maxsize=65536)
def perfect_ref(q: ConjunctiveQuery, tbox: TBox) -> frozenset[ConjunctiveQuery]:
    """Rewrite `q` into the finite set of conjunctive queries whose direct
    evaluation over any ABox decides certain-answer entailment.

    Alternates two steps until no new query appears.  An atom is read as
    what it asserts, its role and the basic concepts `_realized` gives, and
    is replaced by the atom of each left side that `_one_step` finds under
    one of them; an existential right side applies only when its witness,
    the atom's other argument, is an unshared variable.  Two unifiable atoms
    are collapsed, so that previously shared variables may become
    unshared."""
    lhs_of = _one_step(tbox)
    start = _canonical_cq(q)
    seen: set[ConjunctiveQuery] = {start}
    frontier: list[ConjunctiveQuery] = [start]

    def visit(atoms: frozenset[Atom]) -> None:
        new = _canonical_cq(ConjunctiveQuery(atoms))
        if new not in seen:
            seen.add(new)
            frontier.append(new)

    while frontier:
        cur = frontier.pop()
        counts = _var_counts(cur.atoms)
        for g in cur.atoms:
            if g.arity == 2:
                for r in lhs_of.get(RoleExpr(g.predicate), ()):
                    visit((cur.atoms - {g}) | {role_atom(r, *g.args)})
            for (b, t), witness in zip(_realized(g.predicate, g.args), reversed(g.args)):
                if b.kind == ATOMIC or counts.get(witness) == 1:
                    for lhs in lhs_of.get(b, ()):
                        visit((cur.atoms - {g}) | {concept_atom(lhs, t, _FRESH)})
        # pairs in sorted order: which variable a unifier keeps depends on
        # it, and set order would make the rewriting depend on the hash seed
        atom_list = sorted(cur.atoms)
        for i, g1 in enumerate(atom_list):
            for g2 in atom_list[i + 1 :]:
                subst = _unify_atoms(g1, g2)
                if subst:
                    visit(frozenset(
                        unchecked_atom((a.predicate, tuple(_resolve(t, subst) for t in a.args)))
                        for a in cur.atoms
                    ))
    return frozenset(seen)


def _entailed_unchecked(tbox: TBox, rel: _Relations, q: ConjunctiveQuery) -> bool:
    """True iff some `perfect_ref` rewriting of `q` matches the rows of
    `rel`: certain entailment over the raw rows of a consistent ABox, and
    `qib` over the rows of its repair."""
    return any(_matches(r, rel) for r in perfect_ref(q, tbox))


# --- consistency --------------------------------------------------------------


def _asserted(x: Union[BasicConcept, RoleExpr], rel: _Relations) -> AbstractSet[tuple]:
    """What the data assert of a basic concept (its members, as 1-tuples) or
    of a role expression (its pairs), with the column picks of the fact
    rules."""
    if isinstance(x, RoleExpr):
        rows = rel.row_set(x.name, 2)
        return set(map(_SWAPPED, rows)) if x.inverse else rows
    if x.kind == ATOMIC:
        return rel.row_set(x.name, 1)
    return set(map(_FIRST if x.kind == "exists" else _SECOND, rel.row_set(x.name, 2)))


@memo_on_abox
def is_consistent(tbox: TBox, abox: ABox) -> bool:
    """True iff the TBox and ABox admit a model: the two sides of no
    disjointness pair of the TBox closure share a member in the data, and
    the side of no size-1 pair (an unsatisfiable expression) has one.

    Only what the data assert directly is read, with no rewriting.  That
    suffices because the closure already holds every consequence: a
    disjointness is inherited by every pair of subsumees, so two entailed
    memberships that clash come from two asserted ones whose expressions
    form a pair, and unsatisfiability passes down subsumption and between a
    role and its domain and range, so an anonymous witness that clashes
    makes the asserted expression that entails it unsatisfiable.  Only the
    expressions in some pair are read."""
    closure = saturate_tbox(tbox)
    pairs = [*closure.disjoint_concepts, *closure.disjoint_roles]
    if not pairs:
        return True
    rel = _abox_relations(abox)
    members = {x: _asserted(x, rel) for pair in pairs for x in pair}
    # a size-1 pair {x} is read as (x, x)
    return all(members[min(p)].isdisjoint(members[max(p)]) for p in pairs)


def _require_consistent(tbox: TBox, abox: ABox) -> None:
    if not is_consistent(tbox, abox):
        raise InconsistentOntologyError("TBox and ABox are inconsistent")


def cq_entailed(tbox: TBox, abox: ABox, q: ConjunctiveQuery) -> bool:
    """Certain-answer entailment of a Boolean conjunctive query."""
    _require_consistent(tbox, abox)
    return _entailed_unchecked(tbox, _abox_relations(abox), q)


def denial_query(denial) -> ConjunctiveQuery:
    return ConjunctiveQuery(denial.body)


@memo_on_abox
def is_policy_consistent(tbox: TBox, policy: Policy, abox: ABox) -> bool:
    """True iff no denial body is entailed by the TBox and ABox."""
    _require_consistent(tbox, abox)
    rel = _abox_relations(abox)
    return not any(_entailed_unchecked(tbox, rel, denial_query(d)) for d in policy.denials)


@memo_on_abox
def closure_rows(tbox: TBox, abox: ABox) -> _Relations:
    """The rows of every ground atom over the data constants entailed by
    TBox + ABox, as a row store: no `Atom` and no `ABox` is built.
    Existential axioms only introduce anonymous individuals, so no new
    constants can appear.

    The rows are derived a predicate at a time: each fact rule of the TBox
    closure (`InclusionClosure.fact_rules`) maps all the rows of its
    predicate at once, and validates its predicate name once.  The store
    holds each derived group, the ABox's rows of that predicate plus the
    derived ones, and reads every other group from the ABox's store.  When
    no rule applies it is the ABox's store itself."""
    _require_consistent(tbox, abox)
    rules = saturate_tbox(tbox).fact_rules
    raw = _abox_relations(abox)
    groups = raw.all_groups()
    derived: dict[tuple[str, int], list[tuple]] = {}
    for key, rows in groups.items():
        for name, arity, pick in rules.get(key, ()):
            check_predicate(name)
            derived.setdefault((name, arity), []).extend(map(pick, rows))
    if not derived:
        return raw
    closure = _Relations(base=raw)
    for key, rows in derived.items():
        closure.groups[key] = [*groups.get(key, ()), *rows]
    return closure


@memo_on_abox
def abox_closure(tbox: TBox, abox: ABox) -> ABox:
    """All ground atoms over the data constants entailed by TBox + ABox:
    `closure_rows` materialized, for the output, the censors and the
    oracles.  Only the rows the closure adds become new atoms.  When it adds
    none this is `abox` itself, which then shares its derived state with
    its closure; otherwise the closure's row store is handed to its
    `_abox_relations` instead of grouping its atoms again."""
    rel = closure_rows(tbox, abox)
    raw = _abox_relations(abox)
    if rel is raw:
        return abox
    out = set(abox.atoms)
    for name, arity in rel.groups:
        added = rel.row_set(name, arity).difference(raw.row_set(name, arity))
        out.update(map(unchecked_atom, zip(repeat(name), added)))
    if len(out) == len(abox.atoms):
        return abox
    closure = ABox(frozenset(out))
    _abox_relations.put(closure, rel)
    return closure


# --- bounded chase oracle ------------------------------------------------------


@dataclass(frozen=True)
class Null:
    id: int

    def __repr__(self):
        return f"n{self.id}"


ChaseTerm = Union[Term, Null]

_CHASE_ATOM_CAP = 500_000


class ChaseStructure:
    """A canonical model truncated at a null depth bound.

    `atoms` holds (predicate, args) pairs whose arguments are constants or
    labelled nulls; `depth` maps each null to its distance from the named
    part."""

    def __init__(self, atoms: frozenset[tuple[str, tuple]], depth: dict[Null, int]):
        self.atoms = atoms
        self.depth = depth

    def named_part(self) -> ABox:
        return ABox(
            frozenset(
                Atom(pred, args)
                for (pred, args) in self.atoms
                if all(isinstance(t, Term) for t in args)
            )
        )

    def __len__(self):
        return len(self.atoms)


def chase_bounded(tbox: TBox, abox: ABox, depth: int) -> ChaseStructure:
    """Apply inclusion axioms with fresh nulls for unsatisfied existentials,
    stopping at the given null depth.  Existential steps are skipped when a
    witness already exists (restricted chase)."""
    maps = saturate_tbox(tbox)
    rules = maps.fact_rules
    atoms: set[tuple[str, tuple]] = {(a.predicate, a.args) for a in abox_closure(tbox, abox)}
    depths: dict[ChaseTerm, int] = {}
    for a in abox.atoms:
        for t in a.args:
            depths[t] = 0
    next_null = 1

    progress = True
    while progress:
        progress = False
        has_succ: dict[tuple[str, int], set] = {}
        for (pred, args) in atoms:
            if len(args) == 2:
                has_succ.setdefault((pred, 0), set()).add(args[0])
                has_succ.setdefault((pred, 1), set()).add(args[1])
        pending = []
        for (pred, args) in list(atoms):
            for (b, u) in _realized(pred, args):
                if depths[u] >= depth:
                    continue
                for sup in maps.concept_subsumers.get(b, ()):
                    if sup.kind == "exists" and u not in has_succ.get((sup.name, 0), ()):
                        pending.append((sup.name, u, 0))
                        has_succ.setdefault((sup.name, 0), set()).add(u)
                    elif sup.kind == "exists_inv" and u not in has_succ.get((sup.name, 1), ()):
                        pending.append((sup.name, u, 1))
                        has_succ.setdefault((sup.name, 1), set()).add(u)
        for (role, u, pos) in pending:
            null = Null(next_null)
            next_null += 1
            depths[null] = depths[u] + 1
            args = (u, null) if pos == 0 else (null, u)
            atoms.add((role, args))
            atoms.update((name, pick(args)) for name, _, pick in rules.get((role, 2), ()))
            progress = True
        if len(atoms) > _CHASE_ATOM_CAP:
            raise RuntimeError("chase structure exceeds safety cap")

    null_depths = {t: d for t, d in depths.items() if isinstance(t, Null)}
    return ChaseStructure(frozenset(atoms), null_depths)


def chase_satisfies(chase: ChaseStructure, q: ConjunctiveQuery) -> bool:
    """Homomorphism check into a chase structure; variables may map to nulls."""
    return _matches(q, _Relations(chase.atoms))


def chase_entails(tbox: TBox, abox: ABox, q: ConjunctiveQuery) -> bool:
    """Entailment decided against the truncated canonical model.

    Depth bound: the subtree below a null is determined by the role end that
    created it, so every distinct null type first appears within
    2 * |role names| steps of the named part; relocating a connected match of
    n atoms to the shallowest copy of its root type then needs at most n
    further steps."""
    bound = len(q.atoms) + 2 * len(tbox.role_names) + 1
    return chase_satisfies(chase_bounded(tbox, abox, bound), q)

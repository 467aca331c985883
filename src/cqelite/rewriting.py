"""First-order rewriting and evaluation.

`eval_fo` evaluates an FO sentence over an ABox with quantifiers ranging over
the active domain.  It works on whole sets of rows: an atom over distinct
variables reads its predicate's stored rows as they are, an `Exists`
conjunction is decided by the conjunctive query matcher's existence test,
which probes the last join for a first witness outside its negated
conjuncts, other conjunctions are joined in the matcher's order and a
negated conjunct subtracted, and a sentence stops at its first true
disjunct, with an `Exists` prefix split across the disjuncts of an `Or` so
that variable-disjoint disjuncts are never spread over the active domain.

`atom_rewr` pushes entailed subsumptions into a query so that evaluating the
result over the raw data simulates evaluating the input over the ground-atom
closure.  `iar_rewrite` reformulates a conjunctive query so that its
evaluation decides entailment from the repair (the data minus all minimal
policy-violating subsets), and `qib_rewrite` composes the two.  The first
two each number their fresh variables X_v1, X_v2, ... anew (`_fresh_vars`),
so in `qib_rewrite` a witness of `atom_rewr` may reuse a name that a repair
guard binds.  That is safe: the witness is bound around one atom only, and
it skips a name equal to that atom's own term.

The composed sentence depends on the query, the TBox and the policy but
never on the data, and a TBox has no constants, so renaming the constants of
the query and the policy only renames those of the sentence.
`qib_rewrite_report` keeps each sentence per (query, TBox, policy) in a
bounded cache of 1024 entries, which `qib_rewrite` reads too.  On a miss it
replaces every constant with a placeholder that sorts as the constant did
(`_placeholders`), compiles the renamed inputs once per such shape into a
second bounded cache of 1024 entries (`_compile`), and puts the caller's
constants back (`_with_constants`), so the bytes are those of a direct
compile.  Inputs whose names break the parser's convention (constants
lowercase, variables uppercase) are compiled as they are.  `eval_fo` keeps
the free variables of the node it is handed on that node, so a cached
sentence is checked to be a sentence by one walk, not one per evaluation.

The repair guards deserve a note.  An atom is unsafe iff it lies in some
*minimal* violating subset, and a naive "some rewritten denial body matches
through this atom" test overshoots: a match that collapses two pattern
variables onto one constant can have a non-minimal image whose core avoids
the atom entirely.  We therefore expand each rewritten denial body into all
of its variable quotients, discard the quotients whose exact images are
provably non-minimal, and emit guards that pin the exact match shape with
equality and inequality conditions.  Equality tests in the FO output exist
solely for this purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import count, product
from typing import Iterable, Iterator, Optional

from .model import (
    ABox,
    And,
    Atom,
    AtomNode,
    ConjunctiveQuery,
    Denial,
    Eq,
    Exists,
    FONode,
    Not,
    Or,
    Policy,
    RoleExpr,
    TBox,
    Term,
    Truth,
    atomic,
    const,
    fo_and,
    fo_exists,
    fo_or,
    free_variables,
    node_count,
    unchecked_atom,
    var,
)
from .reasoner import (
    _Relations,
    _Rows,
    _abox_relations,
    _atom_key,
    _atom_rows,
    _canonical_cq,
    _components,
    _images,
    _join,
    _reorder,
    _satisfiable,
    concept_atom,
    denial_query,
    perfect_ref,
    role_atom,
    saturate_tbox,
)


class UnboundVariableError(Exception):
    """The formula is not a sentence: some variable occurrence is free."""


# --- active-domain evaluation -------------------------------------------------


class _Evaluator:
    """Bottom-up set evaluation: each subformula yields a set of rows over
    a tuple of variables.  The pair denotes every assignment of the
    subformula's free variables whose restriction to those variables is a
    row, so a free variable left out of the tuple is unconstrained over the
    active domain.  Three things keep the sets small:

    - an atom over pairwise-distinct variables yields its predicate's
      stored row set as it is, and a ground atom is a lookup in that set
      (`reasoner._atom_rows`, shared with the conjunctive query matcher);
    - the positive conjuncts are joined in the matcher's order
      (`reasoner._plan`): smallest first, one variable-connected component
      at a time, intersected when they range over the same variables and
      hash-joined otherwise; a conjunction stops at its first empty conjunct
      or join;
    - `truth` decides an `Exists` conjunction whose positive conjuncts bind
      every variable with the matcher's existence test
      (`reasoner._satisfiable`): verdicts probe the last step of each
      component for a first row outside the negated conjuncts, and multiply
      only the components that one negated conjunct spans;
    - the rows of any other conjunction multiply its variable-disjoint
      components, and a negated conjunct is subtracted after the columns are
      put in the same order; disjuncts that differ only in column order are
      re-ordered, not spread;
    - `truth` stops a sentence at its first true disjunct, and splits an
      `Exists` prefix across the disjuncts of an `Or`, keeping only the
      variables free in each, so variable-disjoint disjuncts are never
      spread over the active domain."""

    def __init__(self, abox: ABox):
        self.abox = abox
        self.rel = _abox_relations(abox)

    @cached_property
    def adom(self) -> frozenset[Term]:
        # built on first use, since many sentences never read it; it is
        # only ever read as a set, so it needs no order
        return self.abox.constants()

    def truth(self, node: FONode) -> bool:
        """Truth of a sentence."""
        if isinstance(node, Or):
            return any(self.truth(c) for c in node.children)
        if isinstance(node, And):
            return all(self.truth(c) for c in node.children)
        if isinstance(node, Not):
            return not self.truth(node.body)
        prefix: list[Term] = []
        body = node
        while isinstance(body, Exists):
            prefix.append(body.variable)
            body = body.body
        if prefix and isinstance(body, Or):
            # EXISTS x (p OR q) == EXISTS x p OR EXISTS x q, and EXISTS x p
            # with x not free in p holds iff p does and the domain is not empty
            return any(self._exists_truth(prefix, c) for c in body.children)
        if isinstance(body, And):
            return self._and_truth(prefix, body)
        return bool(self.rows(node)[1])

    def _and_truth(self, prefix: list[Term], body: And) -> bool:
        """Truth of EXISTS prefix (positives AND NOT guards).  The positive
        conjuncts are read first, up to the first empty one, and the guards
        only once the positives have a row.  The body's free variables are
        all in the prefix, so when the positives bind every prefix variable
        they bind every guard variable too, and `reasoner._satisfiable`
        probes for the first witness; otherwise the rows already read are
        joined (`_and_rows`)."""
        positives: list[_Rows] = []
        for c in body.children:
            if not isinstance(c, Not):
                part = self.rows(c)
                if not part[1]:
                    return False
                positives.append(part)
        negated = [c.body for c in body.children if isinstance(c, Not)]
        atoms = {c.atom for c in body.children if isinstance(c, AtomNode)}
        if any(isinstance(g, AtomNode) and g.atom in atoms for g in negated):
            return False  # a guard that negates a positive atom
        guards = map(self.rows, negated) if negated else ()
        bound = {x for v, _ in positives for x in v}
        if all(x in bound for x in prefix):
            return _satisfiable(positives, guards)
        v, rws = self._and_rows(positives, guards)
        # a prefix variable the rows leave out ranges over the active domain
        return bool(rws) and (all(x in v for x in prefix) or bool(self.adom))

    def _exists_truth(self, prefix: list[Term], body: FONode) -> bool:
        free = free_variables(body)
        kept = [x for x in prefix if x in free]
        if len(kept) < len(prefix) and not self.adom:
            return False
        return self.truth(fo_exists(kept, body))

    def rows(self, node: FONode) -> _Rows:
        if isinstance(node, AtomNode):
            return _atom_rows(node.atom, self.rel)
        if isinstance(node, Truth):
            return (), ({()} if node.value else set())
        if isinstance(node, Eq):
            return self._eq_rows(node)
        if isinstance(node, Not):
            v, rws = self.rows(node.body)
            if not v:
                return (), (set() if rws else {()})
            universe = set(product(self.adom, repeat=len(v)))
            return v, universe - rws
        if isinstance(node, Exists):
            v, rws = self.rows(node.body)
            if node.variable not in v:
                return v, (rws if self.adom else set())
            if len(v) == 1:
                return (), ({()} if rws else set())
            i = v.index(node.variable)
            return v[:i] + v[i + 1 :], {r[:i] + r[i + 1 :] for r in rws}
        if isinstance(node, Or):
            parts = [self.rows(c) for c in node.children]
            out_vars: tuple[Term, ...] = ()
            for v, _ in parts:
                out_vars += tuple(x for x in v if x not in out_vars)
            out: set[tuple] = set()
            for v, rws in parts:
                if rws:
                    out |= self._spread(v, rws, out_vars)
            return out_vars, out
        if isinstance(node, And):
            return self._and_rows(
                (self.rows(c) for c in node.children if not isinstance(c, Not)),
                (self.rows(c.body) for c in node.children if isinstance(c, Not)),
            )
        raise TypeError(f"not an FO node: {node!r}")

    def _eq_rows(self, node: Eq) -> _Rows:
        l, r = node.left, node.right
        if l.is_const and r.is_const:
            return (), ({()} if l == r else set())
        if l.is_const or r.is_const:
            v, c = (r, l) if l.is_const else (l, r)
            return (v,), ({(c,)} if c in self.adom else set())
        if l == r:
            return (l,), {(a,) for a in self.adom}
        return (l, r), {(a, a) for a in self.adom}

    def _and_rows(self, positives: Iterable[_Rows], negated: Iterable[_Rows]) -> _Rows:
        """The rows of a conjunction: the join of its positive conjuncts'
        rows minus its negated ones', each negated one read only while the
        rows left are not empty."""
        components = _components(positives)
        if components is None:
            return (), set()
        cur_vars, cur = components[0] if components else ((), {()})
        for v, rws in components[1:]:
            cur_vars, cur = _join(cur_vars, cur, v, rws)
        for iv, irows in negated:
            if not irows:
                continue
            if not iv:
                return cur_vars, set()
            missing = tuple(x for x in iv if x not in cur_vars)
            if missing:
                cur = self._spread(cur_vars, cur, cur_vars + missing)
                cur_vars = cur_vars + missing
            if len(iv) == len(cur_vars):
                cur = cur - _reorder(iv, irows, cur_vars)
            else:
                positions = [cur_vars.index(x) for x in iv]
                cur = {r for r in cur if tuple(r[i] for i in positions) not in irows}
            if not cur:
                return cur_vars, cur
        return cur_vars, cur

    def _spread(self, v, rows, out_vars):
        missing = [x for x in out_vars if x not in v]
        if not missing:
            return _reorder(v, rows, out_vars)
        src = {x: i for i, x in enumerate(v)}
        out = set()
        for r in rows:
            for combo in product(self.adom, repeat=len(missing)):
                fill = dict(zip(missing, combo))
                out.add(tuple(r[src[x]] if x in src else fill[x] for x in out_vars))
        return out


def eval_fo(q: FONode, abox: ABox) -> bool:
    """Truth of a sentence in the finite structure given by the ABox, with
    quantifiers ranging over the constants that occur in it.

    Every call checks that `q` is a sentence.  The free variables of `q`
    are kept in the node's `__dict__`, which leaves the frozen dataclass's
    eq, hash and repr alone (the idiom of `reasoner.memo_on_abox`), so a
    sentence that is evaluated again, such as one from `qib_rewrite`'s
    cache, is walked once.  Only the node passed in keeps them, not its
    subtrees."""
    try:
        free = q.__dict__["_free_variables"]
    except KeyError:
        free = q.__dict__["_free_variables"] = free_variables(q)
    if free:
        names = ", ".join(sorted(t.name for t in free))
        raise UnboundVariableError(f"not a sentence; free variables: {names}")
    return _Evaluator(abox).truth(q)


# --- subsumption expansion ------------------------------------------------------


def _fresh_vars() -> Iterator[Term]:
    """The fresh variables of one rewriting: X_v1, X_v2, ..."""
    return (var(f"X_v{i}") for i in count(1))


def atom_rewr(q: FONode, tbox: TBox) -> FONode:
    """Replace every atom with the disjunction of the ways the TBox can
    entail it: subsumed concepts, role domains/ranges for concept atoms, and
    subsumed (possibly inverted) roles for role atoms."""
    maps = saturate_tbox(tbox)
    names = _fresh_vars()

    def expand_concept(pred: str, t: Term) -> FONode:
        target = atomic(pred)
        parts: list[FONode] = []
        for b in maps.concept_subsumees.get(target, [target]):
            if b.kind == "atomic":
                parts.append(AtomNode(concept_atom(b, t, t)))
                continue
            # the witness is bound around this atom alone, so only the
            # atom's own term can be captured
            x = next(names)
            if x == t:
                x = next(names)
            parts.append(Exists(x, AtomNode(concept_atom(b, t, x))))
        return fo_or(parts)

    def expand_role(pred: str, t1: Term, t2: Term) -> FONode:
        target = RoleExpr(pred)
        subs = maps.role_subsumees.get(target, [target])
        return fo_or(dict.fromkeys(AtomNode(role_atom(r, t1, t2)) for r in subs))

    def walk(node: FONode) -> FONode:
        if isinstance(node, AtomNode):
            a = node.atom
            if a.arity == 1:
                return expand_concept(a.predicate, a.args[0])
            return expand_role(a.predicate, a.args[0], a.args[1])
        if isinstance(node, And):
            return And(tuple(walk(c) for c in node.children))
        if isinstance(node, Or):
            return Or(tuple(walk(c) for c in node.children))
        if isinstance(node, Exists):
            return Exists(node.variable, walk(node.body))
        if isinstance(node, Not):
            return Not(walk(node.body))
        return node

    return walk(q)


# --- conflict patterns ------------------------------------------------------------


def _cq_key(q: ConjunctiveQuery) -> tuple:
    return tuple(_atom_key(a) for a in q.sorted_atoms())


def _partitions(items: list) -> Iterable[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def _has_proper_subimage(raw: list[ConjunctiveQuery], quotient: ConjunctiveQuery) -> bool:
    """True if some raw pattern maps into the quotient's atoms with an image
    that misses at least one of them (the quotient is then non-minimal)."""
    rel = _Relations(quotient.atoms)
    target = quotient.atoms
    for f in raw:
        if len(f.atoms) > len(target):
            # safe because the rewriting is closed under atom unification: a
            # collapsing match of a longer pattern factors through a reduced
            # pattern that is also in `raw` and has no more atoms than its image
            continue
        if any(image < target for image in _images(f, rel)):
            return True
    return False


@lru_cache(maxsize=1024)
def _conflict_patterns(
    tbox: TBox, policy: Policy
) -> tuple[tuple[ConjunctiveQuery, ...], tuple[Term, ...]]:
    """The minimal violation patterns for a TBox and policy, and the policy
    constants `rc` they mention.

    The patterns are canonical conjunctive queries; an exact match of a
    pattern (term-injective, with its generic values outside `rc`) is a
    minimal violating set, and every minimal violating set is such a
    match."""
    raw: dict[tuple, ConjunctiveQuery] = {}
    for d in policy.denials:
        for rewritten in perfect_ref(denial_query(d), tbox):
            c = _canonical_cq(rewritten)
            raw[_cq_key(c)] = c
    raw_list = [raw[k] for k in sorted(raw)]
    rc = sorted({t for f in raw_list for a in f.atoms for t in a.args if t.is_const})

    quotients: dict[tuple, ConjunctiveQuery] = {}
    for f in raw_list:
        variables = sorted(f.variables)
        for part in _partitions(variables):
            for assignment in product([None] + rc, repeat=len(part)):
                subst: dict[Term, Term] = {}
                for block, target in zip(part, assignment):
                    rep = target if target is not None else block[0]
                    for v in block:
                        subst[v] = rep
                q = _canonical_cq(
                    ConjunctiveQuery(
                        frozenset(
                            Atom(a.predicate, tuple(subst.get(t, t) for t in a.args))
                            for a in f.atoms
                        )
                    )
                )
                quotients[_cq_key(q)] = q

    minimal = [
        quotients[k]
        for k in sorted(quotients)
        if not _has_proper_subimage(raw_list, quotients[k])
    ]
    return tuple(minimal), tuple(rc)


# --- repair-aware reformulation -----------------------------------------------------


def _guard_for(
    alpha: Atom, beta: Atom, pattern: ConjunctiveQuery, rc: tuple[Term, ...], fresh
) -> Optional[FONode]:
    """Condition under which a match of `alpha` is the `beta`-atom of an
    exact match of `pattern`; None when that is statically impossible."""
    if beta.predicate != alpha.predicate or beta.arity != alpha.arity:
        return None
    binding: dict[Term, Term] = {}
    eqs: list[FONode] = []
    for bp, ap in zip(beta.args, alpha.args):
        if bp.is_const:
            if ap.is_const:
                if ap != bp:
                    return None
            else:
                eqs.append(Eq(ap, bp))
        else:
            prev = binding.get(bp)
            if prev is None:
                binding[bp] = ap
            elif prev == ap:
                pass
            elif prev.is_const and ap.is_const:
                return None
            else:
                eqs.append(Eq(*sorted((prev, ap))))

    generics = sorted(pattern.variables)
    fresh_map = {g: fresh() for g in generics if g not in binding}

    def value_of(t: Term) -> Term:
        if t.is_const:
            return t
        return binding.get(t) or fresh_map[t]

    remaining = [
        AtomNode(Atom(a.predicate, tuple(value_of(t) for t in a.args)))
        for a in pattern.sorted_atoms()
        if a != beta
    ]

    neqs: list[FONode] = []
    values = [value_of(g) for g in generics]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            t1, t2 = values[i], values[j]
            if t1 == t2:
                return None
            if t1.is_const and t2.is_const:
                continue
            neqs.append(Not(Eq(*sorted((t1, t2)))))
    for t in values:
        for c in rc:
            if t.is_const:
                if t == c:
                    return None
            else:
                neqs.append(Not(Eq(t, c)))

    body = fo_and(eqs + remaining + neqs)
    return fo_exists(sorted(fresh_map.values()), body)


def _build_iar(
    q: ConjunctiveQuery, tbox: TBox, policy: Policy
) -> tuple[FONode, int, int]:
    patterns, rc = _conflict_patterns(tbox, policy)
    fresh = partial(next, _fresh_vars())
    rewrites = sorted(perfect_ref(q, tbox), key=_cq_key)
    guard_count = 0
    disjuncts: list[FONode] = []
    for q1 in rewrites:
        atoms = q1.sorted_atoms()
        guards: list[FONode] = []
        for alpha in atoms:
            for pattern in patterns:
                for beta in pattern.sorted_atoms():
                    g = _guard_for(alpha, beta, pattern, rc, fresh)
                    if g is not None:
                        guards.append(Not(g))
        guards = list(dict.fromkeys(guards))
        guard_count += len(guards)
        body = fo_and([AtomNode(a) for a in atoms] + guards)
        disjuncts.append(fo_exists(sorted(q1.variables), body))

    return fo_or(dict.fromkeys(disjuncts)), len(rewrites), guard_count


def iar_rewrite(q: ConjunctiveQuery, tbox: TBox, policy: Policy) -> FONode:
    """Reformulate `q` so that evaluation over any ABox consistent with the
    TBox decides entailment from that ABox's repair: each rewriting of `q`
    is kept, with every atom guarded against participating in a minimal
    policy-violating subset."""
    node, _, _ = _build_iar(q, tbox, policy)
    return node


def qib_rewrite(q: ConjunctiveQuery, tbox: TBox, policy: Policy) -> FONode:
    """Repair-aware reformulation composed with subsumption expansion, so the
    result can be evaluated directly over raw, unclosed data.  It reads
    `qib_rewrite_report`'s cache."""
    return qib_rewrite_report(q, tbox, policy)[0]


@dataclass(frozen=True)
class RewritingReport:
    """Size accounting for one reformulation; independent of any ABox."""

    input_query: str
    perfect_ref_size: int
    guard_count: int
    node_count: int


@lru_cache(maxsize=1024)
def qib_rewrite_report(
    q: ConjunctiveQuery, tbox: TBox, policy: Policy
) -> tuple[FONode, RewritingReport]:
    """`qib_rewrite` plus size accounting for the reformulation.  Neither
    depends on any ABox, so the pair is kept per (query, TBox, policy) in a
    bounded cache, as `_conflict_patterns` is.  On a miss the sentence is
    compiled once per shape (`_compile`, see `_placeholders`), and the
    caller's constants are put back into it."""
    from .parser import serialize_query

    names = _placeholders(q, policy)
    if not names:
        node, pr_size, guard_count, size = _compile(q, tbox, policy)
    else:
        template, pr_size, guard_count, size = _compile(
            ConjunctiveQuery(_renamed(q.atoms, names)),
            tbox,
            Policy(frozenset(Denial(_renamed(d.body, names)) for d in policy.denials)),
        )
        node = _with_constants(template, {k: c for c, k in names.items()})
    report = RewritingReport(
        input_query=serialize_query(q).strip(),
        perfect_ref_size=pr_size,
        guard_count=guard_count,
        node_count=size,
    )
    return node, report


@lru_cache(maxsize=1024)
def _compile(q: ConjunctiveQuery, tbox: TBox, policy: Policy) -> tuple[FONode, int, int, int]:
    """The composed sentence, with the number of rewritings of `q`, of
    guards and of nodes."""
    iar_node, pr_size, guard_count = _build_iar(q, tbox, policy)
    node = atom_rewr(iar_node, tbox)
    return node, pr_size, guard_count, node_count(node)


def _placeholders(q: ConjunctiveQuery, policy: Policy) -> Optional[dict[Term, Term]]:
    """The placeholder of each constant of the query and the policy, or None
    when their names break the parser's convention, in which case the inputs
    are compiled as they are.

    A TBox has no constants, so renaming the constants of the query and the
    policy only renames those of the sentence.  The constant of rank i in
    sorted order becomes k<i>, zero-padded, so the placeholders sort as the
    originals do.  `atom_order_key` compares names across kinds, and only
    when every constant name starts lowercase and every variable name
    uppercase does that keep every comparison the compile makes; parsed
    input always does."""
    terms = {t for a in q.atoms for t in a.args}
    terms.update(t for d in policy.denials for a in d.body for t in a.args)
    if not all(t.name[0].islower() if t.is_const else t.name[0].isupper() for t in terms):
        return None
    consts = sorted(t for t in terms if t.is_const)
    width = len(str(len(consts) - 1))
    return {c: const(f"k{i:0{width}}") for i, c in enumerate(consts)}


def _renamed(atoms: frozenset[Atom], names: dict[Term, Term]) -> frozenset[Atom]:
    return frozenset(
        unchecked_atom((a.predicate, tuple(names.get(t, t) for t in a.args))) for a in atoms
    )


def _with_constants(node: FONode, names: dict[Term, Term]) -> FONode:
    """`node` with each constant renamed through `names`, its children in
    the same order; a subtree with no constant to rename is shared."""
    if isinstance(node, AtomNode):
        args = node.atom.args
        new = tuple(names.get(t, t) for t in args)
        return node if new == args else AtomNode(unchecked_atom((node.atom.predicate, new)))
    if isinstance(node, (And, Or)):
        children = tuple(_with_constants(c, names) for c in node.children)
        same = all(a is b for a, b in zip(children, node.children))
        return node if same else type(node)(children)
    if isinstance(node, Exists):
        body = _with_constants(node.body, names)
        return node if body is node.body else Exists(node.variable, body)
    if isinstance(node, Not):
        body = _with_constants(node.body, names)
        return node if body is node.body else Not(body)
    if isinstance(node, Eq):
        left, right = names.get(node.left, node.left), names.get(node.right, node.right)
        return node if (left, right) == (node.left, node.right) else Eq(left, right)
    return node

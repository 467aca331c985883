"""Policy-aware query answering over DL-Lite-style ontologies.

The engine loads a TBox, an ABox and a confidentiality policy (a set of
denial patterns), and answers Boolean conjunctive queries under several
semantics: plain certain answers, skeptical entailment over all optimal
censors, and the tractable quasi-optimal approximation, the last both
semantically (via the repair) and by first-order rewriting.
"""

from .model import (
    ABox,
    And,
    Atom,
    AtomNode,
    BasicConcept,
    ConceptInclusion,
    ConjunctiveQuery,
    Denial,
    Eq,
    Exists,
    FONode,
    Not,
    Or,
    Policy,
    RoleExpr,
    RoleInclusion,
    TBox,
    Term,
    Truth,
    atom_order_key,
    atomic,
    const,
    exists,
    exists_inv,
    var,
)
from .parser import (
    ParseError,
    parse_abox,
    parse_policy,
    parse_query,
    parse_tbox,
    serialize,
    serialize_fo,
)
from .reasoner import (
    ChaseStructure,
    InclusionClosure,
    InconsistentOntologyError,
    abox_closure,
    chase_bounded,
    chase_entails,
    cq_entailed,
    eval_cq,
    is_consistent,
    is_policy_consistent,
    perfect_ref,
    saturate_tbox,
)
from .censors import (
    AtomOrder,
    SizeGuardError,
    enumerate_optimal_ga_censors,
    ib_entail,
    ib_entail_bruteforce,
    iar_repair,
    opt_ga_censor,
    qib_entail,
    qib_entail_bruteforce,
    secrets,
)
from .rewriting import (
    RewritingReport,
    UnboundVariableError,
    atom_rewr,
    eval_fo,
    iar_rewrite,
    qib_rewrite,
    qib_rewrite_report,
)

__version__ = "0.1.0"

"""Command-line front end.

Subcommands: consistency, closure, censor, entail, rewrite, gen.  Results go
to stdout (JSON by default, plain grammar text with --format text);
diagnostics go to stderr.  Exit codes: 0 success, 2 parse or I/O error,
3 precondition violation (inconsistent inputs), 4 size guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .censors import (
    AtomOrder,
    SizeGuardError,
    enumerate_optimal_ga_censors,
    ib_entail,
    opt_ga_censor,
    qib_entail,
)
from .gen import random_instance
from .model import ABox, ConjunctiveQuery, Policy, TBox
from .parser import (
    ParseError,
    _ground_atoms,
    parse_abox,
    parse_policy,
    parse_query,
    parse_tbox,
    serialize_abox,
    serialize_fo,
    serialize_policy,
    serialize_tbox,
)
from .reasoner import (
    InconsistentOntologyError,
    _require_consistent,
    abox_closure,
    cq_entailed,
    is_consistent,
    is_policy_consistent,
)
from .rewriting import eval_fo, qib_rewrite, qib_rewrite_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SIZE_GUARD = 4

# the exit code for each error `main` reports; the first matching class wins
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    ValueError: EXIT_PARSE,
    InconsistentOntologyError: EXIT_PRECONDITION,
    SizeGuardError: EXIT_SIZE_GUARD,
}


def _read(path: str, kind: str, parse) -> object:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(kind, 1, 1, f"cannot read {path}: {exc.strerror or exc}")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; the placeholder keeps the bad
        # byte's line when those bytes end with a line break
        lines = (raw[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(kind, len(lines), len(lines[-1]), "not valid UTF-8") from None
    return parse(text)


class _Inputs:
    def __init__(self, args):
        # one arity per name across the files, so a name used at another
        # arity in an earlier file is reported where the later file uses it
        arities: dict[str, int] = {}

        def read(kind: str, parse, absent):
            path = getattr(args, kind, None)
            return _read(path, kind, lambda text: parse(text, arities)) if path else absent

        self.tbox: TBox = read("tbox", parse_tbox, TBox.of())
        self.abox: ABox = read("abox", parse_abox, ABox.of())
        self.policy: Policy = read("policy", parse_policy, Policy.of())
        self.query: ConjunctiveQuery | None = read("query", parse_query, None)


def _emit(args, payload: dict, text: str) -> None:
    """Write the result: one JSON line, or `text` as it is under --format
    text."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(text)


def cmd_consistency(args) -> int:
    inp = _Inputs(args)
    ok = is_consistent(inp.tbox, inp.abox)
    policy_ok = (
        is_policy_consistent(inp.tbox, inp.policy, inp.abox) if ok else None
    )
    payload = {"tbox_abox_consistent": ok, "policy_consistent": policy_ok}
    _emit(
        args,
        payload,
        f"tbox_abox_consistent: {ok}\npolicy_consistent: {policy_ok}\n",
    )
    return EXIT_OK


def cmd_closure(args) -> int:
    inp = _Inputs(args)
    closure = abox_closure(inp.tbox, inp.abox)
    text = serialize_abox(closure)
    _emit(args, {"atoms": text.splitlines()}, text)
    return EXIT_OK


def _load_order(args) -> AtomOrder:
    if args.order_file:
        # line order matters, so keep the atoms as the file lists them
        atoms = _read(args.order_file, "order", lambda text: _ground_atoms("order", text))
        return AtomOrder.explicit(atoms)
    return AtomOrder.lex()


def cmd_censor(args) -> int:
    inp = _Inputs(args)
    if args.enumerate:
        censors = enumerate_optimal_ga_censors(
            inp.tbox, inp.policy, inp.abox, args.limit
        )
        rendered = sorted(serialize_abox(c) for c in censors)
        payload = {
            "censors": [r.splitlines() for r in rendered],
            "count": len(rendered),
        }
        _emit(args, payload, "\n".join(rendered))
        return EXIT_OK
    order = _load_order(args)
    censor = opt_ga_censor(inp.tbox, inp.policy, inp.abox, order)
    text = serialize_abox(censor)
    _emit(args, {"censor": text.splitlines(), "order": order.kind}, text)
    return EXIT_OK


def cmd_entail(args) -> int:
    inp = _Inputs(args)
    if inp.query is None:
        raise ParseError("query", 1, 1, "--query is required for entail")
    start = time.monotonic()
    if args.semantics == "certain":
        verdict = cq_entailed(inp.tbox, inp.abox, inp.query)
    elif args.semantics == "ib":
        verdict = ib_entail(inp.tbox, inp.policy, inp.abox, inp.query, args.limit)
    elif args.semantics == "qib":
        verdict = qib_entail(inp.tbox, inp.policy, inp.abox, inp.query)
    else:  # qib-fo
        _require_consistent(inp.tbox, inp.abox)
        verdict = eval_fo(qib_rewrite(inp.query, inp.tbox, inp.policy), inp.abox)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    payload = {
        "semantics": args.semantics,
        "entailed": verdict,
        "elapsed_ms": elapsed_ms,
    }
    _emit(args, payload, f"entailed: {verdict}\n")
    return EXIT_OK


def cmd_rewrite(args) -> int:
    inp = _Inputs(args)
    if inp.query is None:
        raise ParseError("query", 1, 1, "--query is required for rewrite")
    node, report = qib_rewrite_report(inp.query, inp.tbox, inp.policy)
    fo_text = serialize_fo(node)
    payload = {
        "query": fo_text,
        "report": {
            "input_query": report.input_query,
            "perfect_ref_size": report.perfect_ref_size,
            "guard_count": report.guard_count,
            "node_count": report.node_count,
        },
    }
    _emit(
        args,
        payload,
        f"{fo_text}\n"
        f"# input_query: {report.input_query}\n"
        f"# perfect_ref_size: {report.perfect_ref_size}\n"
        f"# guard_count: {report.guard_count}\n"
        f"# node_count: {report.node_count}\n",
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    tbox, policy, abox = random_instance(
        args.seed,
        n_concepts=args.concepts,
        n_roles=args.roles,
        n_atoms=args.atoms,
        n_denials=args.denials,
        n_consts=args.constants,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "tbox.txt": serialize_tbox(tbox),
        "abox.txt": serialize_abox(abox),
        "policy.txt": serialize_policy(policy),
    }
    for name, text in files.items():
        (out / name).write_text(text)
    payload = {"seed": args.seed, "files": sorted(str(out / n) for n in files)}
    _emit(args, payload, "".join(f + "\n" for f in payload["files"]))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqelite",
        description="Policy-aware query answering over ontologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, abox=True, policy=True, query=False):
        p.add_argument("--tbox", help="TBox file")
        if abox:
            p.add_argument("--abox", help="ABox file")
        if policy:
            p.add_argument("--policy", help="policy file")
        if query:
            p.add_argument("--query", help="query file")
        p.add_argument(
            "--format", choices=("json", "text"), default="json", help="output format"
        )
        p.add_argument(
            "--limit",
            type=int,
            help="size guard for exponential paths (env CQE_LIMIT)",
        )

    p = sub.add_parser("consistency", help="check TBox+ABox and policy consistency")
    common(p)
    p.set_defaults(run=cmd_consistency)

    p = sub.add_parser("closure", help="print all entailed ground atoms")
    common(p, policy=False)
    p.set_defaults(run=cmd_closure)

    p = sub.add_parser("censor", help="compute an optimal censor (or all of them)")
    common(p)
    p.add_argument("--order-file", help="explicit atom order (ABox syntax)")
    p.add_argument("--enumerate", action="store_true", help="list every optimal censor")
    p.set_defaults(run=cmd_censor)

    p = sub.add_parser("entail", help="decide entailment under a semantics")
    common(p, query=True)
    p.add_argument(
        "--semantics",
        choices=("certain", "ib", "qib", "qib-fo"),
        default="certain",
    )
    p.set_defaults(run=cmd_entail)

    p = sub.add_parser("rewrite", help="print the policy-aware FO reformulation")
    common(p, abox=False, query=True)
    p.set_defaults(run=cmd_rewrite)

    p = sub.add_parser("gen", help="generate a random consistent instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--concepts", type=int, default=4)
    p.add_argument("--roles", type=int, default=2)
    p.add_argument(
        "--atoms",
        type=int,
        default=6,
        help="candidate ABox atoms to draw; duplicates and draws that would "
        "make the ABox inconsistent are dropped, so fewer may be written",
    )
    p.add_argument("--denials", type=int, default=2)
    p.add_argument("--constants", type=int, default=4)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(run=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        limit = getattr(args, "limit", None)
        if limit is not None and limit < 1:
            raise ParseError("args", 1, 1, "--limit must be at least 1")
        return args.run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

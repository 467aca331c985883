"""Per-request times of the benchmark's queries.

    python3 tools/query_times.py            # supplier-read, warm ABox
    python3 tools/query_times.py censor     # censor, the small instances

Both modes build the benchmark's instances for seed 1 (`bench/workloads.py`)
from this checkout and make each request as `cqelite entail` makes it
(`workloads.answer`).  A `qib-fo` request is shown as its steps.
`qib_rewrite_report` keeps each sentence per (query, TBox, policy), and
compiles it on a miss once per shape, up to the names of the constants,
into a second cache (`rewriting._compile`).  `qib-fo compile` is
`qib_rewrite_report` with both caches emptied before each timed call, so it
builds the sentence; the caches it reads (`perfect_ref`,
`_conflict_patterns`) stay as warm as the request left them.  `qib-fo
renamed` empties the first cache only, so it puts the caller's constants
back into the kept shape, which is what a request pays whose query and
policy were seen before under other constant names.  `qib-fo cached` is the
same call when the sentence is in the first cache, which is what a repeated
request pays, and `qib-fo eval` is `eval_fo` of that sentence over the ABox.
A request is `qib-fo eval` plus one of `qib-fo cached`, `qib-fo renamed`
and `qib-fo compile`.

`supplier` (the default) loads the `Supplier` instance, answers each of its
four queries once under `certain`, `qib` and `qib-fo` so that the ABox's
derived state is warm, and prints the median wall time in ms of 200 further
requests per query and semantics.

`censor` takes the `Censor` workload's 50 small instances, answers one
warm-up round of them, and times each request of the next round once, in
the round's order.  Each round renames the instances' constants, as the
benchmark's rounds do, so every request meets a fresh ABox with its derived
state cold.  It prints, per semantics, the median ms over the 50 instances.

The script re-runs itself under PYTHONHASHSEED=0, as the benchmark does.
The join order no longer depends on the hash seed, but set order still
decides which of `perfect_ref`'s rewritings `certain` and `qib` try first,
and so how soon they find a witness.  Standard library only, and it writes
nothing into the checkout.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
CALLS = 200


def elapsed_ms(call, setup=None) -> float:
    """Wall time of `call`, after an untimed `setup`."""
    if setup is not None:
        setup()
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1000


def median_ms(call, setup=None) -> float:
    return statistics.median(elapsed_ms(call, setup) for _ in range(CALLS))


def compile_cold(cq):
    """Empties both sentence caches, so the next call compiles."""

    def clear() -> None:
        cq.qib_rewrite_report.cache_clear()
        cq.rewriting._compile.cache_clear()

    return clear


def supplier(workloads) -> None:
    cq = workloads.cq
    w = workloads.Supplier(SEED, fault=False)
    w.adopt(w.load(w.texts(0)))
    semantics = [s for s in workloads.SUPPLIER_SEMANTICS if s != "qib-fo"]
    columns = semantics + ["qib-fo compile", "qib-fo renamed", "qib-fo cached", "qib-fo eval"]
    rewrite = cq.qib_rewrite_report
    cold = compile_cold(cq)
    print(f"supplier-read seed {SEED}: median ms of {CALLS} calls on the warm ABox")
    print(f"{'query':<24}" + "".join(f"{c:>16}" for c in columns))
    for (qid, _), q in zip(w.queries, w.qs):
        for s in workloads.SUPPLIER_SEMANTICS:
            workloads.answer(s, w.tbox, w.policy, w.abox, q)
        node, _report = rewrite(q, w.tbox, w.policy)
        calls = [(partial(workloads.answer, s, w.tbox, w.policy, w.abox, q), None) for s in semantics]
        calls += [
            (partial(rewrite, q, w.tbox, w.policy), cold),
            (partial(rewrite, q, w.tbox, w.policy), rewrite.cache_clear),
            (partial(rewrite, q, w.tbox, w.policy), None),
            (partial(cq.eval_fo, node, w.abox), None),
        ]
        print(f"{qid:<24}" + "".join(f"{median_ms(*call):>16.3f}" for call in calls))


def censor(workloads) -> None:
    cq = workloads.cq
    w = workloads.Censor(SEED, fault=False)
    columns = [
        "certain", "qib", "qib-fo compile", "qib-fo renamed", "qib-fo cached", "qib-fo eval", "ib"
    ]
    rewrite = cq.qib_rewrite_report
    setups = {"qib-fo compile": compile_cold(cq), "qib-fo renamed": rewrite.cache_clear}

    def one_round(suffix: str) -> dict[str, list[float]]:
        names = {c: n + suffix for c, n in w.letters.items()}
        times: dict[str, list[float]] = {c: [] for c in columns}
        for t, p, a, q in w.smalls:
            p = cq.Policy(frozenset(cq.Denial(workloads.renamed(d.body, names)) for d in p.denials))
            a = cq.ABox(workloads.renamed(a.atoms, names))
            q = cq.ConjunctiveQuery(workloads.renamed(q.atoms, names))
            compiled = []
            calls = {
                "certain": partial(workloads.answer, "certain", t, p, a, q),
                "qib": partial(workloads.answer, "qib", t, p, a, q),
                "qib-fo compile": lambda: compiled.append(rewrite(q, t, p)[0]),
                "qib-fo renamed": partial(rewrite, q, t, p),
                "qib-fo cached": partial(rewrite, q, t, p),
                "qib-fo eval": lambda: cq.eval_fo(compiled[0], a),
                "ib": partial(workloads.answer, "ib", t, p, a, q),
            }
            for c in columns:
                times[c].append(elapsed_ms(calls[c], setups.get(c)))
        return times

    one_round("w")
    times = one_round("t")
    print(f"censor seed {SEED}: median ms over the {len(w.smalls)} small instances of one round")
    print("".join(f"{c:>16}" for c in columns))
    print("".join(f"{statistics.median(times[c]):>16.3f}" for c in columns))


def main() -> None:
    modes = {"supplier": supplier, "censor": censor}
    mode = sys.argv[1] if len(sys.argv) > 1 else "supplier"
    if mode not in modes or len(sys.argv) > 2:
        sys.exit(f"usage: {sys.argv[0]} [{'|'.join(modes)}]")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    import workloads

    modes[mode](workloads)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    main()

"""Per-query request times on the warm `supplier-read` ABox.

    python3 tools/query_times.py

Loads the benchmark's supplier instance for seed 1 (`bench/workloads.py`,
`Supplier`) from this checkout, answers each of its four queries once under
`certain`, `qib` and `qib-fo` so that the ABox's derived state is warm, and
prints the median wall time in ms of 200 further requests per query and
semantics.  Each request is made as `cqelite entail` makes it
(`workloads.answer`).  A `qib-fo` request is shown as its two steps: `qib-fo
compile` (`qib_rewrite_report`, the sentence) and `qib-fo eval` (`eval_fo`
of that sentence over the ABox); the two add up to the request.  The script
re-runs itself under PYTHONHASHSEED=0, as the benchmark does, since
frozenset order breaks ties in the join order.  Standard library only, and
it writes nothing into the checkout.
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


def median_ms(call) -> float:
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    import workloads

    cq = workloads.cq
    w = workloads.Supplier(SEED, fault=False)
    w.adopt(w.load(w.texts(0)))
    semantics = [s for s in workloads.SUPPLIER_SEMANTICS if s != "qib-fo"]
    columns = semantics + ["qib-fo compile", "qib-fo eval"]
    print(f"supplier-read seed {SEED}: median ms of {CALLS} calls on the warm ABox")
    print(f"{'query':<24}" + "".join(f"{c:>16}" for c in columns))
    for (qid, _), q in zip(w.queries, w.qs):
        for s in workloads.SUPPLIER_SEMANTICS:
            workloads.answer(s, w.tbox, w.policy, w.abox, q)
        node, _report = cq.qib_rewrite_report(q, w.tbox, w.policy)
        calls = [partial(workloads.answer, s, w.tbox, w.policy, w.abox, q) for s in semantics]
        calls += [partial(cq.qib_rewrite_report, q, w.tbox, w.policy), partial(cq.eval_fo, node, w.abox)]
        print(f"{qid:<24}" + "".join(f"{median_ms(call):>16.3f}" for call in calls))

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    main()

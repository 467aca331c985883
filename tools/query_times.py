"""Per-query request times on the warm `supplier-read` ABox.

    python3 tools/query_times.py

Loads the benchmark's supplier instance for seed 1 (`bench/workloads.py`,
`Supplier`) from this checkout, answers each of its four queries once under
`certain`, `qib` and `qib-fo` so that the ABox's derived state is warm, and
prints the median wall time in ms of 200 further requests per query and
semantics.  Each request is made as `cqelite entail` makes it
(`workloads.answer`), so a `qib-fo` request compiles its sentence too.  The
script re-runs itself under PYTHONHASHSEED=0, as the benchmark does, since
frozenset order breaks ties in the join order.  Standard library only.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
CALLS = 200


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    import workloads

    w = workloads.Supplier(SEED, fault=False)
    w.adopt(w.load(w.texts(0)))
    semantics = workloads.SUPPLIER_SEMANTICS
    print(f"supplier-read seed {SEED}: median ms of {CALLS} calls on the warm ABox")
    print(f"{'query':<24}" + "".join(f"{s:>10}" for s in semantics))
    for (qid, _), q in zip(w.queries, w.qs):
        cells = []
        for s in semantics:
            workloads.answer(s, w.tbox, w.policy, w.abox, q)
            times = []
            for _ in range(CALLS):
                start = time.perf_counter()
                workloads.answer(s, w.tbox, w.policy, w.abox, q)
                times.append(time.perf_counter() - start)
            cells.append(f"{statistics.median(times) * 1000:>10.3f}")
        print(f"{qid:<24}" + "".join(cells))


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    main()

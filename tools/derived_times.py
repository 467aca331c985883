"""Cold per-layer times of what a fresh `supplier-churn` ABox derives.

    python3 tools/derived_times.py

Loads the benchmark's `supplier-churn` instance for seed 1
(`bench/workloads.py`, `SupplierChurn`) from this checkout and applies 15 of
its revisions.  Each revision makes a fresh ABox value, whose derived state
starts cold; on each one the script times, once and in this order, the steps
that the first `qib` request of a round pays for, all of them row sets with
no `Atom` built, since the supplier denial's rewritings are uniform:

- `_abox_relations`: the ABox's rows grouped by predicate;
- `closure_rows`, with its consistency check;
- the closure's row sets: the row set of each (predicate, arity) pair of
  `closure_rows`;
- `hidden_rows`: the rows of the atoms in some secret, read from the
  denials' matched rows;
- `repair_rows`;

and then the materializations, which the command line, the censors and the
oracles read but a `qib` verdict does not:

- `abox_closure`: the closure as an `ABox` of atoms;
- `secrets`: the secrets as sets of atoms;
- `iar_repair`: the repair as an `ABox` of atoms, from the secrets above.

It prints the median ms of each step over the 15 fresh ABoxes.  Standard
library only, and it writes nothing into the checkout.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
REVISIONS = 15


def elapsed_ms(call) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1000


def row_sets(rows):
    """A step that reads every row set of the store that `rows` gives; the
    store and its (predicate, arity) pairs are found before the timing."""

    def step(abox):
        rel = rows(abox)
        keys = list(rel.all_groups())
        return lambda: [rel.row_set(*key) for key in keys]

    return step


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    import workloads
    from cqelite import censors, reasoner

    cq = workloads.cq
    w = workloads.SupplierChurn(SEED, fault=False)
    w.adopt(w.load(w.texts(0)))
    t, p = w.tbox, w.policy
    closure = lambda a: reasoner.closure_rows(t, a)
    # each step takes the fresh ABox and returns the call to time
    steps = {
        "_abox_relations": lambda a: lambda: reasoner._abox_relations(a),
        "closure_rows": lambda a: lambda: closure(a),
        "closure row sets": row_sets(closure),
        "hidden_rows": lambda a: lambda: censors.hidden_rows(t, p, a),
        "repair_rows": lambda a: lambda: censors.repair_rows(t, p, a),
        "abox_closure": lambda a: lambda: cq.abox_closure(t, a),
        "secrets": lambda a: lambda: cq.secrets(t, p, a),
        "iar_repair": lambda a: lambda: cq.iar_repair(t, p, a),
    }
    times: dict[str, list[float]] = {name: [] for name in steps}
    for _ in range(REVISIONS):
        w._revision().run()
        for name, step in steps.items():
            times[name].append(elapsed_ms(step(w.abox)))
    print(f"supplier-churn seed {SEED}: median ms over {REVISIONS} fresh ABoxes")
    for name, ms in times.items():
        print(f"{name:<20}{statistics.median(ms):>10.3f}")


if __name__ == "__main__":
    main()

"""Run one workload in this process and print its metrics.

Started by `run.py` with the hash seed pinned and `src` on the path; see
the README in this directory.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import cqelite as cq

import workloads
from workloads import REVISE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

RSS_ROUND = 2  # peak RSS is read after this many measured rounds
TRACED_MIN_ROUNDS = 4  # at least two untraced and two traced rounds
CLI_REPS = 3
STARTED = time.perf_counter()


@dataclass
class Timing:
    seconds: float
    kind: str
    semantics: str | None


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def fail(self, what: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.messages) < 20:
            self.messages.append(what)


def run_round(wl, outcome: Outcome, tracer=None) -> dict[tuple, Timing]:
    """Issue one round of requests, one after another, then check every
    answer.  Only the library calls are timed."""
    rnd = wl.round()
    timings: dict[tuple, Timing] = {}
    results: dict = {}
    raised = 0
    counting = tracer is not None and tracer.counting
    for step in rnd.steps:
        # collect the last request's garbage, then freeze what survives, so
        # each collection only visits what one request left behind
        gc.collect()
        gc.freeze()
        if counting:
            caches = tracer.cache_counts()
        if tracer is not None:
            tracer.request += 1
            tracer.active = True
        start = time.perf_counter()
        try:
            results[step.key] = step.run()
        except Exception as exc:  # an operation that fails is counted, not fatal
            raised += 1
            outcome.fail(f"{step.key}: {type(exc).__name__}: {exc}", wrong=False)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if counting:
            tracer.add_cache_delta(caches)
        timings[step.key] = Timing(elapsed, step.kind, step.semantics)
        if step.kind != REVISE:
            outcome.attempted += 1
    if not raised:
        for key, message in rnd.check(results):
            outcome.fail(f"{key}: {message}", wrong=True)
    return timings


def set_up(wl, batch: int, tracer=None) -> tuple[float, object]:
    """Load the workload's inputs `setup_batch` times as one timed batch,
    each time under constant names no earlier load used, so no cache keyed
    by the ABox carries over.  Returns the seconds per load and the batch's
    first model."""
    texts = [wl.texts(batch * wl.setup_batch + i) for i in range(wl.setup_batch)]
    gc.collect()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    models = [wl.load(t) for t in texts]
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    return elapsed / wl.setup_batch, models[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def busy(timings: dict[tuple, Timing]) -> float:
    return sum(t.seconds for t in timings.values())


def rates(rounds: list[dict[tuple, Timing]]) -> dict[str, tuple[float, str]]:
    """Requests and answers completed per second of busy time, over all the
    measured rounds.  Summing over every round averages out the slow and
    fast phases that other load on the host brings."""
    steps = [t for r in rounds for t in r.values()]
    requests = [t for t in steps if t.kind != REVISE]

    def per_s(picked):
        return len(picked) / sum(t.seconds for t in picked)

    return {
        "requests_per_s": (len(requests) / sum(t.seconds for t in steps), "requests/s"),
        "qib_answers_per_s": (per_s([t for t in requests if t.semantics == "qib"]), "answers/s"),
        "qibfo_answers_per_s": (per_s([t for t in requests if t.semantics == "qib-fo"]), "answers/s"),
    }


def measure(wl, seconds: float, outcome: Outcome, tracer=None, setups=None):
    """Closed loop: whole rounds until `seconds` have passed.  With a tracer,
    rounds alternate between untraced and traced.  With a list of set-up
    times, one more set-up batch is timed after every round, so that set-up
    is sampled across the whole run, as the rounds are."""
    plain: list[dict] = []
    traced: list[dict] = []
    rss = None
    min_rounds = max(RSS_ROUND, TRACED_MIN_ROUNDS if tracer else 1)
    start = time.perf_counter()
    n = 0
    while n < min_rounds or time.perf_counter() - start < seconds:
        if tracer is not None and n % 2 == 1:
            tracer.install()
            traced.append(run_round(wl, outcome, tracer))
            tracer.uninstall()
        else:
            plain.append(run_round(wl, outcome, tracer))
        n += 1
        if n == RSS_ROUND:
            rss = peak_rss_mb()
        if setups is not None:
            setups.append(set_up(wl, n)[0])
    return plain, traced, rss


def cli_pass(wl, name: str, seed: int, outcome: Outcome, tracer) -> dict[str, float]:
    """Cut the workload's small CLI instance by one revision, answer it
    in-process under tracing (so every layer is called at least once), then
    time each `cqelite` subcommand on the files as a cold subprocess."""
    case = wl.cli_case()
    tracer.install()
    for tracer.memory in (True, False):  # peaks first, then spans
        tracer.active = True
        tbox = cq.parse_tbox(case.tbox)
        policy = cq.parse_policy(case.policy)
        q = cq.parse_query(case.query)
        abox = workloads.revise(wl.abox, case.deleted, frozenset())
        verdicts = {s: workloads.verdict(workloads.answer(s, tbox, policy, abox, q))
                    for s in ("certain", "qib", "qib-fo", "ib")}
        censor = cq.opt_ga_censor(tbox, policy, abox)
        cq.enumerate_optimal_ga_censors(tbox, policy, abox)
        node, _ = cq.qib_rewrite_report(q, tbox, policy)
        tracer.active = False
    tracer.uninstall()
    fo_text = cq.serialize_fo(node)

    folder = OUT / f"cli-{name}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    files = {"tbox": case.tbox, "abox": cq.parser.serialize_abox(abox), "policy": case.policy, "query": case.query}
    for kind, text in files.items():
        (folder / f"{kind}.txt").write_text(text)
    arg = {k: ["--" + k, str(folder / f"{k}.txt")] for k in files}
    py = [sys.executable]
    commands = {
        "cli.startup_ms": (py + ["-c", "import cqelite"], None),
        "cli.censor_ms": (py + ["-m", "cqelite.cli", "censor"] + arg["tbox"] + arg["abox"] + arg["policy"],
                          lambda out: out["censor"] == cq.parser.serialize_abox(censor).splitlines()),
        "cli.rewrite_ms": (py + ["-m", "cqelite.cli", "rewrite"] + arg["tbox"] + arg["policy"] + arg["query"],
                           lambda out: out["query"] == fo_text),
    }
    for semantics, metric in (("certain", "cli.entail_certain_ms"), ("qib", "cli.entail_qib_ms"),
                              ("qib-fo", "cli.entail_qibfo_ms")):
        cmd = py + ["-m", "cqelite.cli", "entail", "--semantics", semantics]
        cmd += arg["tbox"] + arg["abox"] + arg["policy"] + arg["query"]
        commands[metric] = (cmd, lambda out, s=semantics: out["entailed"] == verdicts[s])

    metrics = {}
    for metric, (cmd, check) in commands.items():
        times = []
        for _ in range(CLI_REPS):
            outcome.attempted += 1
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                outcome.fail(f"{metric}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}", wrong=False)
            elif check is not None and not check(json.loads(proc.stdout)):
                outcome.fail(f"{metric}: output differs from the library", wrong=True)
        metrics[metric] = 1000.0 * statistics.median(times)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="invert the first expected answer; the run must then fail")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.inject_fault)
    outcome = Outcome()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    per_load, model = set_up(wl, 0, tracer)
    wl.adopt(model)
    run_round(wl, outcome, tracer)  # warm-up: what a long-lived user has paid
    if tracer is not None:
        tracer.uninstall()
        tracer.counting = True
    setups = None if tracer else [per_load]
    plain, traced, rss = measure(wl, args.seconds, outcome, tracer, setups)
    if tracer is not None:
        tracer.counting = False
    for key, message in wl.post_checks():
        outcome.fail(f"{key}: {message}", wrong=True)

    if tracer is None:
        # the mean, not the median: the host's fast and slow phases make batch
        # times bimodal, and a median flips between the two modes
        metrics = {"setup_s": (statistics.mean(setups), "s"), **rates(plain),
                   "peak_rss_mb": (rss, "MB")}
    else:
        tracer.install()
        tracer.active = tracer.memory = True
        run_round(wl, outcome, tracer)  # memory round: peaks only
        tracer.active = tracer.memory = False
        tracer.uninstall()
        cli = cli_pass(wl, args.workload, args.seed, outcome, tracer)
        metrics = tracer.layer_metrics()
        metrics.update({k: (v, "ms") for k, v in cli.items()})
        overhead = statistics.mean(map(busy, traced)) / statistics.mean(map(busy, plain)) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    correct = outcome.wrong == 0
    per_round = [round(busy(r), 2) for r in plain + traced]
    print(f"workload {args.workload}  seed {args.seed}  hash seed {os.environ.get('PYTHONHASHSEED')}  "
          f"trace {args.trace}  wall {time.perf_counter() - STARTED:.1f} s  round busy s {per_round}")
    if setups:
        print(f"set-up s per load, by batch {[round(x, 4) for x in setups]}")
    for message in outcome.messages:
        print(f"FAILED {message}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:44s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

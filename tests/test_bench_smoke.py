"""A traced benchmark run of every workload, as short as it can be: it must
exit 0 and end in a result line that parses strictly, reports a correct run
with no failed operation, and names every per-layer metric that
BENCHMARK.json lists."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _refuse(constant: str):
    raise ValueError(f"{constant} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_ends_in_a_strict_result_line(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"] for m in SPEC["per_layer"]} <= set(result["metrics"])

"""Byte identity of the CLI's output on `random_instance` seeds.

A fresh interpreter under PYTHONHASHSEED=0 calls `cli.main` on each seed's
instance, as generated and with every TBox concept asserted of the
constants `a` and `b`, for `consistency`, `closure`, `censor`,
`censor --enumerate --limit 14`, `rewrite` and `entail` under each
semantics, in JSON and in text.  One SHA-256 is taken over the commands'
stdout (with `elapsed_ms` dropped), stderr and exit codes.  A change that
alters any output byte changes the digest; a change meant to alter output
records the new digest here and says why in CHANGES.md."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 30)
DIGEST = "249045fbd32049509d9df5d0ea9015a830b2e0f2b0b3c5846097377d3c08ba31"

SCRIPT = r"""
import contextlib, hashlib, io, json, random, sys, tempfile
from pathlib import Path
from cqelite import cli
from cqelite.gen import random_bcq, random_instance
from cqelite.model import ABox, Atom, const
from cqelite.parser import serialize_abox, serialize_policy, serialize_query, serialize_tbox

ALL = "tbox abox policy query".split()
COMMANDS = [(["consistency"], ALL[:3]), (["closure"], ALL[:2]), (["censor"], ALL[:3]),
            (["censor", "--enumerate", "--limit", "14"], ALL[:3]), (["rewrite"], ["tbox", "policy", "query"])]
COMMANDS += [(["entail", "--semantics", s], ALL) for s in ("certain", "ib", "qib", "qib-fo")]
digest = hashlib.sha256()
exits = set()
with tempfile.TemporaryDirectory() as tmp:
    files = {k: str(Path(tmp) / f"{k}.txt") for k in ALL}
    for seed in range(int(sys.argv[1]), int(sys.argv[2])):
        tbox, policy, abox = random_instance(seed)
        query = random_bcq(random.Random(seed), tbox)
        asserted = {Atom(c, (const(x),)) for c in tbox.concept_names for x in "ab"}
        for variant in (abox, ABox(abox.atoms | asserted)):
            for kind, text in (("tbox", serialize_tbox(tbox)), ("abox", serialize_abox(variant)),
                               ("policy", serialize_policy(policy)), ("query", serialize_query(query))):
                Path(files[kind]).write_text(text)
            for command, inputs in COMMANDS:
                for fmt in ("json", "text"):
                    argv = command + ["--format", fmt] + [f"--{k}={files[k]}" for k in inputs]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    stdout = out.getvalue()
                    if fmt == "json" and code == 0:
                        payload = json.loads(stdout)
                        payload.pop("elapsed_ms", None)
                        stdout = json.dumps(payload, sort_keys=True)
                    exits.add(code)
                    digest.update(repr((stdout, err.getvalue(), code)).encode())
print(json.dumps({"digest": digest.hexdigest(), "exits": sorted(exits)}))
"""


def test_cli_output_is_byte_identical_on_random_instances():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, SEEDS)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout)
    assert {0, 3, 4} <= set(result["exits"])
    assert result["digest"] == DIGEST

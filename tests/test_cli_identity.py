"""Byte identity of the CLI's output on `random_instance` seeds.

A fresh interpreter under PYTHONHASHSEED=0 calls `cli.main` on each seed's
instance, as generated and with every TBox concept asserted of the
constants `a` and `b`, for `consistency`, `closure`, `censor`,
`censor --enumerate --limit 14`, `rewrite` and `entail` under each
semantics, in JSON and in text.  One SHA-256 is taken over the commands'
stdout (with `elapsed_ms` dropped), stderr and exit codes.  A change that
alters any output byte changes the digest; a change meant to alter output
records the new digest here and says why in CHANGES.md.

The output does not depend on the hash seed: the digest was the same under
PYTHONHASHSEED 0, 1 and 2, and the seed is pinned here only so that a
failure reproduces.
`test_rewrite_does_not_depend_on_the_hash_seed` runs `rewrite` under two
hash seeds on the two seeds where set order once changed the rewriting."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from cqelite.gen import random_bcq, random_instance
from cqelite.parser import serialize_policy, serialize_query, serialize_tbox

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 30)
DIGEST = "bf4813e255db0f6accbec94741f9cbb7f53e9b16078012697ebea10b6d399f2c"

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


def _env(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_cli_output_is_byte_identical_on_random_instances():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, SEEDS)],
                          cwd=ROOT, env=_env("0"), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout)
    assert {0, 3, 4} <= set(result["exits"])
    assert result["digest"] == DIGEST


def test_rewrite_does_not_depend_on_the_hash_seed(tmp_path):
    # on these two seeds, pairing atoms for unification in set order made
    # `rewrite` print a different rewriting under each hash seed
    main = "import sys; from cqelite import cli; sys.exit(cli.main(sys.argv[1:]))"
    for seed in (11, 37):
        tbox, policy, _ = random_instance(seed)
        texts = {"tbox": serialize_tbox(tbox), "policy": serialize_policy(policy),
                 "query": serialize_query(random_bcq(random.Random(seed), tbox))}
        argv = ["rewrite", "--format", "text"]
        for kind, text in texts.items():
            path = tmp_path / f"{seed}-{kind}.txt"
            path.write_text(text)
            argv.append(f"--{kind}={path}")
        outputs = set()
        for hash_seed in ("0", "1"):
            proc = subprocess.run([sys.executable, "-c", main, *argv], cwd=ROOT,
                                  env=_env(hash_seed), capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr[-3000:]
            outputs.add(proc.stdout)
        assert len(outputs) == 1, seed

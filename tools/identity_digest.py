"""Byte identity of the CLI's output on `random_instance` seeds 0-399.

    python3 tools/identity_digest.py

Runs the script that `tests/test_cli_identity.py` pins for seeds 0-29, with
one more command, `censor --enumerate` under the default size guard, after
the `entail` commands, on seeds 0-399, in a fresh interpreter under
PYTHONHASHSEED=0.  It prints the script's JSON result: the SHA-256 over
every command's stdout (`elapsed_ms` dropped), stderr and exit code, and the
set of exit codes seen.  A change that alters any output byte changes the
digest.  It takes a few minutes on a 2-core host.  Standard library only,
and it writes nothing into the checkout.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 400)
ENTAIL = "COMMANDS += [(["
ENUMERATE = 'COMMANDS.append((["censor", "--enumerate"], ALL[:3]))'


def identity_script() -> str:
    """The test's `SCRIPT`, read from its source, with the `censor
    --enumerate` command appended after the `entail` line."""
    tree = ast.parse((ROOT / "tests" / "test_cli_identity.py").read_text())
    script = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SCRIPT"]
    )
    lines = script.splitlines()
    entail = next(i for i, line in enumerate(lines) if line.startswith(ENTAIL))
    lines.insert(entail + 1, ENUMERATE)
    return "\n".join(lines) + "\n"


def main() -> None:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", identity_script(), *map(str, SEEDS)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(proc.stderr)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()

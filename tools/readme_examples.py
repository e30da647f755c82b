"""Check that the example commands in README.md's CLI section still run.

    python tools/readme_examples.py

Takes every `mixloci ...` command from the first ```sh block under README's
"## CLI" heading (a line ending in a backslash continues on the next), runs
each as `python -m mixloci.cli ...` from the repository root with src/ on
PYTHONPATH, one subprocess at a time, and prints its exit code.  Exits 1 if
any command exits non-zero, or if the block holds no command.  Only the
standard library is used.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def commands(readme: str) -> list[list[str]]:
    """The argv after `mixloci` of each command in the CLI section's first sh block."""
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    argvs = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words and words[0] == "mixloci":
            argvs.append(words[1:])
    return argvs


def main() -> int:
    argvs = commands((ROOT / "README.md").read_text())
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    failed = 0
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "mixloci.cli", *argv], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                              text=True, check=False)
        failed += done.returncode != 0
        print(f"exit {done.returncode}: mixloci {shlex.join(argv)}", flush=True)
        if done.returncode:
            print(done.stderr, end="", file=sys.stderr)
    print(f"{failed} of {len(argvs)} README examples failed")
    return 1 if failed or not argvs else 0


if __name__ == "__main__":
    sys.exit(main())

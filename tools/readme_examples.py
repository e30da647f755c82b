"""Check that the examples in README.md still run.

    python tools/readme_examples.py

Takes every `mixloci ...` command from the first ```sh block under README's
"## CLI" heading (a line ending in a backslash continues on the next), runs
each as `python -m mixloci.cli ...`, then runs the first ```python block
under "## Library quick start" as `python -c ...`, each from the repository
root with src/ on PYTHONPATH, in a fresh interpreter, one subprocess at a
time, and prints its exit code.  Exits 1 if any of them exits non-zero, or
if the CLI block holds no command.  Only the standard library is used.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _block(readme: str, heading: str, language: str) -> str:
    """The first ```language block in the section under `## heading`."""
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"^```{language}\n(.*?)^```", section, re.S | re.M).group(1)


def commands(readme: str) -> list[list[str]]:
    """The argv after `mixloci` of each command in the CLI section's first sh block."""
    argvs = []
    for line in _block(readme, "CLI", "sh").replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words and words[0] == "mixloci":
            argvs.append(words[1:])
    return argvs


def quick_start(readme: str) -> str:
    """The library quick start's Python code."""
    return _block(readme, "Library quick start", "python")


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """`python ARGS` from the repository root, with src/ on PYTHONPATH."""
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=False)


def main() -> int:
    readme = (ROOT / "README.md").read_text()
    argvs = commands(readme)
    examples = [(f"mixloci {shlex.join(argv)}", ["-m", "mixloci.cli", *argv]) for argv in argvs]
    examples.append(("library quick start", ["-c", quick_start(readme)]))
    failed = 0
    for label, args in examples:
        done = run_python(args)
        failed += done.returncode != 0
        print(f"exit {done.returncode}: {label}", flush=True)
        if done.returncode:
            print(done.stderr, end="", file=sys.stderr)
    print(f"{failed} of {len(examples)} README examples failed")
    return 1 if failed or not argvs else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that a mixloci request's peak memory does not grow with its trials.

    python tools/peak_rss.py MAX_SPREAD_MB TRIALS[,TRIALS...] ARGV...

For example, `python tools/peak_rss.py 8 4,32 genericity --m 16 --n 16 --r 256
--t 0` runs `python -m mixloci.cli --json genericity ... --trials N` for N = 4
and N = 32, each in a fresh interpreter with this repository's src/ on
PYTHONPATH, one after the other, and prints each run's peak resident set size:
the ru_maxrss of that child alone, as os.wait4 reports it (KiB on Linux).
Exits 1 if a run exits non-zero or if the peaks differ by more than
MAX_SPREAD_MB.  Only the standard library is used.  Linux keeps a process's
peak across exec, so a child's peak is at least the resident size of the
process that starts it: run this tool as its own small interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def peak_mb(argv: list[str]) -> tuple[int, float]:
    """Exit code and peak RSS in MB of `python -m mixloci.cli --json ARGV`."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    child = subprocess.Popen([sys.executable, "-m", "mixloci.cli", "--json", *argv],
                             env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return child.returncode, usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: python tools/peak_rss.py MAX_SPREAD_MB TRIALS[,TRIALS...] ARGV...",
              file=sys.stderr)
        return 2
    spread, trials, request = float(argv[0]), argv[1].split(","), argv[2:]
    peaks = []
    for n in trials:
        code, peak = peak_mb([*request, "--trials", n])
        print(f"--trials {n}: exit {code}, peak {peak:.1f} MB", flush=True)
        if code:
            return 1
        peaks.append(peak)
    print(f"peaks differ by {max(peaks) - min(peaks):.1f} MB (at most {spread:g} allowed)")
    return 1 if max(peaks) - min(peaks) > spread else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

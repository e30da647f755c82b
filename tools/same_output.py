"""Check that two mixloci source trees print the same --json reports.

    python tools/same_output.py OLD_TREE NEW_TREE

Runs each request below as `python -m mixloci.cli --json ...` with the tree's
src/ on PYTHONPATH, once per tree and per OPENBLAS_NUM_THREADS value (1 and
2), one subprocess at a time.  Prints every request whose stdout, stderr or
exit code differs from the old tree's at one thread, and exits 1 if any does.  The
state files come from this repository's fixtures/, the same for both trees.
Only the standard library is used.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
THREADS = ("1", "2")


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


# genericity requests whose trials take more than one kernel batch;
# tests/test_tools.py checks each against loci._searches_per_batch
MULTI_BATCH = (
    ["--m", "4", "--n", "4", "--r", "4", "--t", "2", "--trials", "300"],
    ["--m", "4", "--n", "4", "--r", "4", "--t", "2", "--trials", "6", "--starts", "900"],
    ["--m", "3", "--n", "3", "--r", "3", "--t", "2", "--trials", "8", "--starts", "1366"],
    ["--m", "3", "--n", "3", "--r", "3", "--t", "2", "--trials", "1000"],
    ["--m", "6", "--n", "6", "--r", "12", "--t", "3", "--trials", "100"],
)


def requests() -> list[list[str]]:
    """argv lists after `--json`: the searches on the fixtures, the mixture
    checks on example2 both ways, of example2_target against itself (the
    range-contained path) and of bell in example1 (a component whose pencil's
    block bound, 1, is below the target's), bounds on every fixture, a
    Theorem-1 and a Theorem-2 majorization, the matrix-form fixture's loci
    and, at a rank cut above its every eigenvalue, its majorization and
    bounds, seeded genericity trials, then genericity requests that fit one
    kernel batch, non-square ones and one on 8x8 states included, the
    MULTI_BATCH ones, then requests that exit 2 with one `error:` line, one
    per CLI error class and check."""
    reqs = []
    for name in ("example4.json", "example2_target.json"):
        for k in ("1", "2", "3"):
            for starts in ("64", "100", "7"):
                reqs.append(["locus", "--state", _fixture(name), "--k", k, "--starts", starts])
    reqs.append(["locus", "--state", _fixture("example4.json"), "--k", "1", "--side", "B"])
    for name in ("example1.json", "example2_target.json", "example3.json", "example4.json"):
        reqs.append(["locus", "--state", _fixture(name), "--k", "0"])
    pair = (_fixture("example2_target.json"), _fixture("example2_component.json"))
    for target, component in (pair, pair[::-1]):
        for k in ("all", "2", "1"):
            reqs.append(["check-mix", "--target", target, "--component", component, "--k", k])
    reqs.append(["check-mix", "--target", pair[0], "--component", pair[0]])
    bell = ["check-mix", "--target", _fixture("example1.json"),
            "--component", _fixture("bell.json")]
    reqs += [[*bell, "--k", "all"], [*bell, "--k", "1"], [*bell, "--side", "B", "--k", "1"]]
    reqs += [["bounds", "--state", str(path)] for path in sorted(FIXTURES.glob("*.json"))]
    reqs.append(["majorize", "--p", "0.25,0.25,0.25,0.25",
                 "--target", _fixture("maximally_mixed_2x2.json")])
    reqs.append(["majorize", "--target", pair[0], "--components", *pair,
                 "--weights", "0.5,0.5", "--reduced"])
    matrix_form = _fixture("maximally_mixed_2x2.json")
    reqs += [["locus", "--state", matrix_form, "--k", k] for k in ("0", "1")]
    reqs.append(["--tol-rank", "0.5", "majorize", "--p", "1", "--target", matrix_form])
    reqs.append(["--tol-rank", "0.5", "bounds", "--state", matrix_form])
    for m, r, t in (("4", "4", "2"), ("3", "3", "2"), ("3", "4", "1")):
        for seed in range(8):
            reqs.append(["--seed", str(seed), "genericity", "--m", m, "--n", m, "--r", r,
                         "--t", t, "--trials", "10"])
    for extra in (["--m", "4", "--n", "4", "--r", "4", "--t", "2"],
                  ["--m", "3", "--n", "3", "--r", "3", "--t", "2"],
                  ["--m", "3", "--n", "3", "--r", "3", "--t", "2", "--trials", "5",
                   "--starts", "1366"],
                  ["--m", "5", "--n", "5", "--r", "9", "--t", "2", "--trials", "60"],
                  ["--m", "6", "--n", "6", "--r", "12", "--t", "3", "--trials", "30"],
                  # non-square: side A's pencil is n x r on CP^{m-1}, so n and m enter apart
                  *(["--m", m, "--n", n, "--r", r, "--t", t, "--trials", "40"]
                    for m, n, r, t in (("3", "2", "3", "1"), ("4", "3", "4", "2"),
                                       ("5", "3", "3", "1"), ("3", "4", "4", "2"),
                                       ("2", "3", "3", "1"))),
                  # states of dimension 64: np.linalg.qr and eigh give the same bytes
                  # at one and two BLAS threads there, not at 128 (README, Notes)
                  ["--m", "8", "--n", "8", "--r", "64", "--t", "7", "--starts", "1",
                   "--trials", "2"],
                  *MULTI_BATCH):
        reqs.append(["genericity", *extra])
    example4 = _fixture("example4.json")
    reqs += [
        ["locus", "--state", example4, "--k", "-1"],
        ["check-mix", "--target", example4, "--component", example4, "--k", "99"],
        ["check-mix", "--target", example4, "--component", example4, "--k", "two"],
        ["check-mix", "--target", _fixture("example1.json"), "--component", pair[0]],
        ["genericity", "--m", "3", "--n", "3", "--r", "0", "--t", "0"],
        ["genericity", "--m", "40", "--n", "40", "--r", "4", "--t", "1", "--trials", "1"],
        ["--tol-floor", "0.3", "bounds", "--state", matrix_form],  # eigenvalues 1/4
        ["majorize", "--p", "0.5,0.6", "--target", matrix_form],
        ["--seed", "-1", "bounds", "--state", _fixture("example3.json")],
        ["bounds", "--state", _fixture("missing.json")],
        ["locus", "--state", example4, "--k", "1", "--starts", "0"],
    ]
    return reqs


def run(tree: Path, argv: list[str], threads: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-m", "mixloci.cli", "--json", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_output.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    old, new = (Path(tree).resolve() for tree in argv)
    reqs = requests()
    differing = 0
    for i, req in enumerate(reqs, 1):
        runs = {f"{side} tree, {threads} thread(s)": run(tree, req, threads)
                for side, tree in (("old", old), ("new", new)) for threads in THREADS}
        reference = runs[f"old tree, {THREADS[0]} thread(s)"]
        odd = [label for label, result in runs.items() if result != reference]
        if odd:
            differing += 1
            print(f"differs ({', '.join(odd)}): {' '.join(req)}", flush=True)
        print(f"[{i}/{len(reqs)}] exit {reference[0]}", file=sys.stderr, flush=True)
    print(f"{differing} of {len(reqs)} requests differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

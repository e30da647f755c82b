"""Check that two mixloci source trees print the same --json reports.

    python tools/same_output.py OLD_TREE NEW_TREE

Runs each request below as `python -m mixloci.cli --json ...` with the tree's
src/ on PYTHONPATH, once per tree and per OPENBLAS_NUM_THREADS value (1 and
2), one subprocess at a time.  Prints every request whose stdout, stderr or
exit code differs from the old tree's at one thread, with what differs: the
dotted paths of the --json values (data.reason, say), or stdout, stderr or
exit; exits 1 if any request differs.  The state files come from this
repository's fixtures/, but for INVALID_STATES, NEAR_CUT_STATES,
MATRIX_FORM_STATES and a CRLF copy of its target, which are written once to a
temporary directory (write_states); both trees read the same files.  Only
the standard library is used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
THREADS = ("1", "2")

# state files that parse but hold no density matrix: a trace of 1.2 as given,
# and a negative eigenvalue
INVALID_STATES = {
    "trace.json": {"m": 1, "n": 2, "normalize": False,
                   "matrix": [[0.6, 0], [0, 0], [0, 0], [0.6, 0]]},
    "negative_eigenvalue.json": {"m": 1, "n": 2,
                                 "matrix": [[1.5, 0], [0, 0], [0, 0], [-0.5, 0]]},
}


def _diagonal(values) -> list[list[float]]:
    return [[values[i] if i == j else 0, 0] for i in range(len(values))
            for j in range(len(values))]


# a 2x2 target with an eigenvalue 1e-8 near its rank cut 4e-8, and a component
# on that eigenvector: check-mix scans no locus
NEAR_CUT_STATES = {
    "near_cut_target.json": {"m": 2, "n": 2, "normalize": False,
                             "matrix": _diagonal([0.99999999, 1e-8, 0, 0])},
    "near_cut_component.json": {"m": 2, "n": 2, "matrix": _diagonal([0, 1, 0, 0])},
}


# |v><v| for v = (|01> + i|10>) / sqrt(2), as [re, im] pairs in row order
_V_PROJECTOR = [[0, 0], [0, 0], [0, 0], [0, 0],
                [0, 0], [0.5, 0], [0, -0.5], [0, 0],
                [0, 0], [0, 0.5], [0.5, 0], [0, 0],
                [0, 0], [0, 0], [0, 0], [0, 0]]

# matrix-form states.  The target is |00><00| + |v><v|: complex off-diagonal
# entries, trace 2 (normalize true), rank 2.  Its CRLF copy is written with
# "\r\n" newlines.  |v><v| lies in its range, |01><01| leaks out of it.
# A matrix that is not Hermitian exits 2.
MATRIX_FORM_STATES = {
    "complex_target.json": {"m": 2, "n": 2, "normalize": True,
                            "matrix": [[1, 0], *_V_PROJECTOR[1:]]},
    "contained_component.json": {"m": 2, "n": 2, "normalize": False, "matrix": _V_PROJECTOR},
    "leaking_component.json": {"m": 2, "n": 2, "matrix": _diagonal([0, 1, 0, 0])},
    "not_hermitian.json": {"m": 1, "n": 2, "matrix": [[0.5, 0], [0.1, 0.2], [0.3, 0], [0.5, 0]]},
}
CRLF_COPY = "complex_target_crlf.json"


def write_states(written: Path) -> None:
    """Write INVALID_STATES, NEAR_CUT_STATES, MATRIX_FORM_STATES and the
    target's CRLF copy to the directory given."""
    for name, doc in {**INVALID_STATES, **NEAR_CUT_STATES, **MATRIX_FORM_STATES}.items():
        (written / name).write_text(json.dumps(doc))
    crlf = json.dumps(MATRIX_FORM_STATES["complex_target.json"], indent=1).replace("\n", "\r\n")
    (written / CRLF_COPY).write_bytes(crlf.encode())


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


def requests(written: Path) -> list[list[str]]:
    """argv lists after `--json`, the states write_states wrote read from
    the directory written: the searches on the fixtures, one-start
    ones among them, the mixture checks on example2 both ways and with one
    start, of example2_target against itself (the
    range-contained path), of bell in example1 (a component whose pencil's
    normal rank, 1, is below the target's block bound), the side-B loci of
    example3 and example1 that are the whole space below their block bounds,
    the mixture checks of example3 against example2_component both ways on
    that side, and of the near-cut pair, bounds
    on every fixture, a Theorem-1 and a Theorem-2 majorization, the
    matrix-form fixture's loci and, at a rank cut above its every
    eigenvalue, its majorization and bounds, the bounds, k=1 locus and
    majorization of MATRIX_FORM_STATES' target and of its CRLF copy, that
    target's mixture checks against the contained and the leaking component
    on both sides, seeded genericity trials, then
    genericity requests that fit one kernel batch, non-square ones and one
    on 8x8 states included, the MULTI_BATCH ones, then requests that exit 2
    with one `error:` line, one per CLI error class and check:
    INVALID_STATES, the matrix that is not Hermitian and the majorization
    mixture's count and shape checks among them."""
    reqs = []
    for name in ("example4.json", "example2_target.json"):
        for k in ("1", "2", "3"):
            for starts in ("64", "100", "7", "1"):
                reqs.append(["locus", "--state", _fixture(name), "--k", k, "--starts", starts])
    reqs.append(["locus", "--state", _fixture("example4.json"), "--k", "1", "--side", "B"])
    for name in ("example1.json", "example2_target.json", "example3.json", "example4.json"):
        reqs.append(["locus", "--state", _fixture(name), "--k", "0"])
    pair = (_fixture("example2_target.json"), _fixture("example2_component.json"))
    for target, component in (pair, pair[::-1]):
        for k in ("all", "2", "1"):
            reqs.append(["check-mix", "--target", target, "--component", component, "--k", k])
    # a one-start search: one-row batches are where a sum fused over rows could
    # change its order of additions
    reqs.append(["check-mix", "--target", pair[0], "--component", pair[1], "--k", "2",
                 "--starts", "1"])
    reqs.append(["check-mix", "--target", pair[0], "--component", pair[0]])
    bell = ["check-mix", "--target", _fixture("example1.json"),
            "--component", _fixture("bell.json")]
    reqs += [[*bell, "--k", "all"], [*bell, "--k", "1"], [*bell, "--side", "B", "--k", "1"]]
    # side-B loci below the block bound that are the whole space: normal rank 2 of 3
    # on example3, 1 of 2 on example1
    example3 = _fixture("example3.json")
    reqs += [["locus", "--state", example3, "--side", "B", "--k", "2"],
             ["locus", "--state", _fixture("example1.json"), "--side", "B", "--k", "1"],
             ["check-mix", "--target", example3, "--component", pair[1], "--side", "B",
              "--k", "all"],
             ["check-mix", "--target", pair[1], "--component", example3, "--side", "B",
              "--k", "2"]]
    near_target, near_component = (str(written / name) for name in NEAR_CUT_STATES)
    reqs.append(["check-mix", "--target", near_target, "--component", near_component])
    reqs += [["bounds", "--state", str(path)] for path in sorted(FIXTURES.glob("*.json"))]
    reqs.append(["majorize", "--p", "0.25,0.25,0.25,0.25",
                 "--target", _fixture("maximally_mixed_2x2.json")])
    reqs.append(["majorize", "--target", pair[0], "--components", *pair,
                 "--weights", "0.5,0.5", "--reduced"])
    matrix_form = _fixture("maximally_mixed_2x2.json")
    reqs += [["locus", "--state", matrix_form, "--k", k] for k in ("0", "1")]
    reqs.append(["--tol-rank", "0.5", "majorize", "--p", "1", "--target", matrix_form])
    reqs.append(["--tol-rank", "0.5", "bounds", "--state", matrix_form])
    target, contained, leaking = (str(written / name) for name in (
        "complex_target.json", "contained_component.json", "leaking_component.json"))
    for state in (target, str(written / CRLF_COPY)):
        reqs += [["bounds", "--state", state], ["locus", "--state", state, "--k", "1"],
                 ["majorize", "--p", "0.5,0.5", "--target", state]]
    reqs += [["check-mix", "--target", target, "--component", component, "--side", side]
             for component in (contained, leaking) for side in ("A", "B")]
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
        *(["bounds", "--state", str(written / name)]
          for name in (*INVALID_STATES, "not_hermitian.json")),
        ["majorize", "--target", pair[0], "--components", *pair, "--weights", "1"],
        ["majorize", "--target", _fixture("example1.json"),
         "--components", _fixture("example3.json"), "--weights", "1"],
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
    with tempfile.TemporaryDirectory() as written:
        write_states(Path(written))
        return compare(old, new, requests(Path(written)))


def differences(reference: tuple[int, str, str], result: tuple[int, str, str]) -> list[str]:
    """What of result, a run's (exit code, stdout, stderr), differs from
    reference: `exit`, `stderr`, and the dotted paths of the JSON values in
    stdout that differ, are added or are removed, or `stdout` where either
    side's stdout is no JSON document or only its text differs."""

    def paths(old, new, prefix):
        if not (isinstance(old, dict) and isinstance(new, dict)):
            return [] if old == new else [prefix or "stdout"]
        found = []
        for key in sorted(old.keys() | new.keys()):
            path = f"{prefix}.{key}" if prefix else key
            found += ([path] if key not in old or key not in new
                      else paths(old[key], new[key], path))
        return found

    found = ["exit"] if reference[0] != result[0] else []
    if reference[1] != result[1]:
        try:
            found += paths(json.loads(reference[1]), json.loads(result[1]), "") or ["stdout"]
        except json.JSONDecodeError:
            found.append("stdout")
    if reference[2] != result[2]:
        found.append("stderr")
    return found


def compare(old: Path, new: Path, reqs: list[list[str]]) -> int:
    differing = 0
    for i, req in enumerate(reqs, 1):
        runs = {f"{side} tree, {threads} thread(s)": run(tree, req, threads)
                for side, tree in (("old", old), ("new", new)) for threads in THREADS}
        reference = runs[f"old tree, {THREADS[0]} thread(s)"]
        odd = [label for label, result in runs.items() if result != reference]
        if odd:
            differing += 1
            found = dict.fromkeys(path for label in odd
                                  for path in differences(reference, runs[label]))
            print(f"differs ({', '.join(odd)}): {' '.join(req)}\n  in {', '.join(found)}",
                  flush=True)
        print(f"[{i}/{len(reqs)}] exit {reference[0]}", file=sys.stderr, flush=True)
    print(f"{differing} of {len(reqs)} requests differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

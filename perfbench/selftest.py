"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from mixloci import cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = run.WORK / "selftest"


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(workload):
    out = SCRATCH / workload
    first = workloads.generate(workload, 7, out, ROOT)
    files = _snapshot(out)
    second = workloads.generate(workload, 7, out, ROOT)
    assert _snapshot(out) == files
    assert [workloads.cycle(first, c) for c in range(3)] == \
        [workloads.cycle(second, c) for c in range(3)]
    other = workloads.generate(workload, 8, out, ROOT)
    assert [workloads.cycle(other, c) for c in range(3)] != \
        [workloads.cycle(first, c) for c in range(3)]


def _report(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--json", *argv])
    return rc, out.getvalue()


def _check(request, report) -> oracle.Outcome:
    return oracle.Oracle().check(request, 0, json.dumps(report))


def _nudged(pairs, eps=1e-6) -> list:
    """The point moved by `eps` in every real part: far outside the rank
    policy's 1e-8 relative threshold, though its square (as a Hermitian form
    would see it) is not."""
    return (np.asarray(pairs) + [eps, 0.0]).tolist()


def test_oracle_accepts_and_rejects_certificates():
    request = {"kind": "infeasible", "argv": [
        "--json", "check-mix", "--target", "fixtures/example2_target.json",
        "--component", "fixtures/example2_component.json", "--k", "2"]}
    rc, stdout = _report(request["argv"][1:])
    report = json.loads(stdout)
    genuine = oracle.Oracle().check(request, rc, stdout)
    assert genuine.ok and genuine.found == 1, genuine.reason

    moved = json.loads(stdout)
    moved["data"]["witness"] = [[0.25, 0.0], [0.5, 0.0], [0.75, 0.0]]  # off V^2(target)
    assert not _check(request, moved).ok
    nudged = json.loads(stdout)
    nudged["data"]["witness"] = _nudged(nudged["data"]["witness"])
    assert not _check(request, nudged).ok
    lowered = json.loads(stdout)
    lowered["data"]["k"] = 0
    assert not _check(request, lowered).ok
    assert not oracle.Oracle().check(request, 2, stdout).ok

    report["verdict"] = "NO_OBSTRUCTION_FOUND"  # a miss lowers found_frac
    missed = _check(request, report)
    assert missed.ok and missed.findable == 1 and missed.found == 0
    failed = oracle.Oracle().check(request, 1, stdout)  # ... and so does a failure
    assert not failed.ok and failed.findable == 1 and failed.found == 0


@pytest.mark.parametrize("name", ["example4.json", "example2_target.json"])
def test_oracle_rejects_points_off_the_locus(name):
    request = {"kind": "locus", "near_line": name == "example4.json",
               "argv": ["--json", "locus", "--state", f"fixtures/{name}", "--k", "2"]}
    rc, stdout = _report(request["argv"][1:])
    assert oracle.Oracle().check(request, rc, stdout).ok
    report = json.loads(stdout)
    report["data"]["points"][-1] = _nudged(report["data"]["points"][-1])
    assert not _check(request, report).ok


def test_oracle_rejects_flipped_verdicts():
    schedule = workloads.generate("certify", 3, SCRATCH / "flip", ROOT)
    mixture = next(r for r in workloads.cycle(schedule, 0) if r["kind"] == "mixture")
    report = json.loads(_report(mixture["argv"][1:])[1])
    assert _check(mixture, report).ok
    report["verdict"] = "INFEASIBLE"
    assert not _check(mixture, report).ok

    empty = {"kind": "generic_empty", "argv": ["--json", "--seed", "5", "genericity", "--m", "4",
                                               "--n", "4", "--r", "4", "--t", "2", "--trials", "1"]}
    report = json.loads(_report(empty["argv"][1:])[1])
    assert _check(empty, report).ok
    report["data"]["nonempty_fraction"] = 1.0
    assert not _check(empty, report).ok
    report = json.loads(_report(empty["argv"][1:])[1])
    report["data"]["residual_summary"]["min"] = 5 * oracle.GENERIC_THRESHOLD_BOUND
    assert not _check(empty, report).ok

    exact = workloads.generate("exact", 3, SCRATCH / "flip", ROOT)["cycle"]
    for kind, key in (("bounds", "forces_separable"), ("bounds", "dim_V_A_0"),
                      ("locus0", "projective_dimension")):
        for request in (r for r in exact if r["kind"] == kind):
            request = dict(request, argv=["--json", *request["argv"]])
            report = json.loads(_report(request["argv"][1:])[1])
            assert _check(request, report).ok, request["argv"]
            value = report["data"][key]
            report["data"][key] = (not value) if isinstance(value, bool) else value + 1
            assert not _check(request, report).ok, request["argv"]
    for request in (r for r in exact if r["kind"] == "locus0" and r["expected_dim"] >= 0):
        request = dict(request, argv=["--json", *request["argv"]])
        report = json.loads(_report(request["argv"][1:])[1])
        report["data"]["points"][0] = _nudged(report["data"]["points"][0])
        assert not _check(request, report).ok, request["argv"]
    majorize = next(dict(r, argv=["--json", *r["argv"]]) for r in exact if r["kind"] == "majorize")
    report = json.loads(_report(majorize["argv"][1:])[1])
    report["verdict"] = "FAIL" if report["verdict"] == "PASS" else "PASS"
    assert not _check(majorize, report).ok


def _bench(*argv, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_has_no_failures(workload):
    out = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [name for name, _ in run.END_TO_END] == list(result["metrics"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0  # fail_frac == 0


def test_timings_scale_each_request_by_its_nearest_reference_units():
    unit = run.REFERENCE_UNIT_MS / 1e3
    # units twice as slow as nominal on both sides: the request counts half
    scale = run.Reference.scale([9.0, 2 * unit, 2 * unit], [2 * unit, 2 * unit, 9.0])
    assert scale == pytest.approx(0.5)
    latencies = [0.010, 0.020, 0.030]
    wall = run.timings([(0.2, 1.0)], latencies, 3, [1.0] * 3)
    assert wall["latency_p50_ms"] == pytest.approx(20.0)
    assert wall["throughput_rps"] == pytest.approx(50.0)
    scaled = run.timings([(0.2, 0.5)], latencies, 3, [0.5] * 3)
    assert scaled["setup_s"] == pytest.approx(0.1)
    assert scaled["latency_p50_ms"] == pytest.approx(10.0)
    assert scaled["throughput_rps"] == pytest.approx(100.0)


def test_traced_run_reports_every_layer_metric():
    out = _bench("--workload", "exact", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == tracing.layer_metric_names()
    assert result["metrics"]["cli.main.calls"]["value"] == 1.0
    spans = (run.WORK / "exact" / "seed-2" / "spans.jsonl").read_text().splitlines()
    assert spans and all(json.loads(line)["request"] >= 0 for line in spans)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[w] for w in run.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == tracing.layer_metric_names()


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = _bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

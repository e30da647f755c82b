from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES

from mixloci import BipartiteShape, MixCertificate, mix, random_density
from mixloci.io import LoadedState, StateFileError, complex_to_pairs, load_state

SRC = FIXTURES.parent / "src"


def run_cli(*args, check=True, env=None):
    # the child imports this checkout's package, whether or not it is installed
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    completed = subprocess.run(
        [sys.executable, "-m", "mixloci.cli", *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **(env or {})})
    if check:
        assert completed.returncode == 0, completed.stderr
    return completed


def fixture(name):
    return FIXTURES / name


def test_locus_example1_k0():
    out = run_cli("--json", "locus", "--state", fixture("example1.json"), "--k", "0")
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "NONEMPTY"
    assert doc["data"]["projective_dimension"] == 0
    pt = np.array([complex(re, im) for re, im in doc["data"]["points"][0]])
    expected = np.array([1, -1]) / np.sqrt(2)
    assert abs(np.vdot(expected, pt)) == pytest.approx(1.0, abs=1e-9)


def test_locus_bell_empty():
    out = run_cli("--json", "locus", "--state", fixture("bell.json"), "--k", "0")
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "EMPTY"
    assert doc["data"]["projective_dimension"] == -1


def test_locus_example4_k2():
    out = run_cli("--json", "locus", "--state", fixture("example4.json"),
                  "--k", "2", "--starts", "24")
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "FOUND"
    points = [np.array([complex(re, im) for re, im in p]) for p in doc["data"]["points"]]
    assert any(abs(p[0]) <= 1e-6 and abs(p[1]) <= 1e-6 for p in points)


def test_check_mix_example2():
    out = run_cli("--json", "check-mix", "--target", fixture("example2_target.json"),
                  "--component", fixture("example2_component.json"), "--k", "all")
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "INFEASIBLE"
    witness = np.array([complex(re, im) for re, im in doc["data"]["witness"]])
    assert abs(witness[0]) <= 1e-8
    assert doc["data"]["rank_in_component"] == 3
    assert doc["data"]["range"]["contained"] is False and doc["data"]["range"]["p_max"] is None
    assert not doc["data"]["reason"].startswith("no locus scan")


def test_check_mix_identical_files():
    args = ("check-mix", "--target", fixture("example2_target.json"),
            "--component", fixture("example2_target.json"), "--k", "all", "--starts", "8")
    doc = json.loads(run_cli("--json", *args).stdout)
    assert doc["verdict"] == "NO_OBSTRUCTION_FOUND"
    # range containment is proven, so no locus is scanned
    assert doc["data"]["search_stats"] == {}
    assert doc["data"]["range"]["contained"] is True
    assert doc["data"]["range"]["p_max"] == pytest.approx(1.0, abs=1e-9)
    assert not doc["data"]["reason"].startswith("no locus scan")
    assert "containment proven" in run_cli(*args).stdout


def test_check_mix_refuses_at_the_eigenvalue_cut(tmp_path):
    # B appears in rho with weight 3e-8: its eigenvalues in rho lie near the rank cut
    shape = BipartiteShape(3, 3)
    a, b = (random_density(shape, 2, seed=[s, 0]) for s in (1, 2))
    paths = []
    for name, state in (("rho", mix([1 - 3e-8, 3e-8], [a, b])), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"m": 3, "n": 3, "normalize": False,
                                         "matrix": complex_to_pairs(state.matrix)}))
    args = ("check-mix", "--target", paths[0], "--component", paths[1])
    doc = json.loads(run_cli("--json", *args).stdout)
    assert doc["verdict"] == "NO_OBSTRUCTION_FOUND" and doc["data"]["search_stats"] == {}
    assert doc["data"]["range"]["contained"] is False
    assert doc["data"]["reason"].startswith("no locus scan, target eigenvalue")
    assert "no locus scan" in run_cli(*args).stdout


def test_check_mix_refuses_at_the_component_bound():
    # bell's side-A pencil is 2 x 1, so every point of CP^1 lies in its V^1
    args = ("check-mix", "--target", fixture("example1.json"), "--component",
            fixture("bell.json"), "--k", "1")
    doc = json.loads(run_cli("--json", *args).stdout)
    assert doc["verdict"] == "NO_OBSTRUCTION_FOUND" and doc["data"]["search_stats"] == {}
    assert doc["data"]["range"]["contained"] is False
    assert "k=1 reaches the component pencil's normal rank 1" in doc["data"]["reason"]
    assert "no locus scan" in run_cli(*args).stdout


@pytest.mark.parametrize("name, k", [("example3", "2"), ("example1", "1")])
def test_locus_below_the_block_bound_can_be_the_whole_space(name, k):
    # side B's pencil has normal rank k below its block bound, so V_B^k is everything
    doc = json.loads(run_cli("--json", "locus", "--state", fixture(f"{name}.json"),
                             "--side", "B", "--k", k).stdout)
    assert doc["verdict"] == "TRIVIAL" and doc["data"]["points"] == []
    assert doc["data"]["search_stats"]["starts"] == 0


def test_check_mix_searches_no_whole_space_locus(monkeypatch):
    # example3's side-B pencil has normal rank 2 below its block bound 3
    example3, component = fixture("example3.json"), fixture("example2_component.json")
    doc = json.loads(run_cli("--json", "check-mix", "--target", example3, "--component",
                             component, "--side", "B", "--k", "all").stdout)
    data = doc["data"]
    assert doc["verdict"] == "INFEASIBLE" and data["k"] == 2
    assert data["search_stats"]["2"]["mode"] == "whole_space"
    assert data["search_stats"]["2"]["starts"] == 0
    # the benchmark's oracle rechecks the witness on its own factor of each state
    spec = importlib.util.spec_from_file_location("oracle",
                                                  FIXTURES.parent / "perfbench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "oracle", oracle)  # its dataclasses look their module up
    spec.loader.exec_module(oracle)
    assert oracle.Oracle().recheck_certificate(str(example3), str(component), data) == ""
    # every point lies in V_B^2(example3), so no scan runs the other way
    doc = json.loads(run_cli("--json", "check-mix", "--target", component, "--component",
                             example3, "--side", "B", "--k", "2").stdout)
    assert doc["verdict"] == "NO_OBSTRUCTION_FOUND" and doc["data"]["search_stats"] == {}
    assert "k=2 reaches the component pencil's normal rank 2" in doc["data"]["reason"]


NEAR_CUT = {  # target eigenvalue 1e-8 near its rank cut 4e-8, component on its eigenvector
    "target": {"m": 2, "n": 2, "normalize": False,
               "matrix": complex_to_pairs(np.diag([0.99999999, 1e-8, 0, 0]))},
    "component": {"m": 2, "n": 2, "matrix": complex_to_pairs(np.diag([0, 1, 0, 0]))},
}


@pytest.mark.parametrize("target, component, k, reason", [
    ("example2_target", "example2_component", "2", "witness "),
    ("example2_target", "example2_target", "all", "range containment proven"),
    ("target", "component", "all", "no locus scan, target eigenvalue 1.000e-08 within 10x"),
    ("example1", "bell", "1", "no locus scan, k=1 reaches the component pencil's normal rank"),
    ("example2_target", "example2_component", "1", "no certificate found"),
], ids=["infeasible", "contained", "near_cut", "component_bound", "none_found"])
def test_check_mix_reports_one_schema_and_its_reason(tmp_path, target, component, k, reason):
    for name, doc in NEAR_CUT.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    paths = [tmp_path / f"{name}.json" if name in NEAR_CUT else fixture(f"{name}.json")
             for name in (target, component)]
    args = ("check-mix", "--target", paths[0], "--component", paths[1], "--k", k)
    doc = json.loads(run_cli("--json", *args).stdout)
    data = doc["data"]
    assert data["reason"].startswith(reason)
    assert run_cli(*args).stdout == f"{doc['verdict']}: {data['reason']}\n"
    certificate = {f.name for f in fields(MixCertificate)}
    assert set(data) - certificate == {"range", "reason", "search_stats"}
    assert (set(data) >= certificate) == (doc["verdict"] == "INFEASIBLE")


def test_bounds_examples():
    doc = json.loads(run_cli("--json", "bounds", "--state", fixture("example1.json")).stdout)
    assert doc["data"]["schmidt_rank_cap"] == 1
    assert doc["data"]["forces_separable"] is True
    doc = json.loads(run_cli("--json", "bounds", "--state", fixture("example3.json")).stdout)
    assert doc["data"]["schmidt_rank_cap"] == 2
    assert doc["data"]["excludes_max_schmidt_rank"] is True
    doc = json.loads(run_cli("--json", "bounds", "--state", fixture("bell.json")).stdout)
    assert doc["data"]["schmidt_rank_cap"] == 2
    assert doc["data"]["forces_separable"] is False
    assert doc["data"]["excludes_max_schmidt_rank"] is False


def test_majorize_probabilities():
    doc = json.loads(run_cli("--json", "majorize", "--p", "0.25,0.25,0.25,0.25",
                             "--target", fixture("maximally_mixed_2x2.json")).stdout)
    assert doc["verdict"] == "PASS"


def test_majorize_fail_case(tmp_path):
    state = {"m": 2, "n": 2, "ensemble": [
        {"p": 0.6, "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"p": 0.4, "amps": [[0, 0], [1, 0], [0, 0], [0, 0]]},
    ]}
    path = tmp_path / "spectrum_64.json"
    path.write_text(json.dumps(state))
    doc = json.loads(run_cli("--json", "majorize", "--p", "0.8,0.2",
                             "--target", path).stdout)
    assert doc["verdict"] == "FAIL"


def test_majorize_mixture_reduced(tmp_path):
    target = load_state(fixture("example2_target.json"))
    half = {"m": 3, "n": 3, "matrix": [[v.real, v.imag] for v in
                                       np.asarray(target.density.matrix).ravel()]}
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(half))
    doc = json.loads(run_cli("--json", "majorize", "--target",
                             fixture("example2_target.json"), "--components", path,
                             "--weights", "1.0", "--reduced").stdout)
    assert doc["verdict"] == "PASS"
    assert doc["data"]["reduced_constraint"] is True


def test_genericity_command():
    doc = json.loads(run_cli("--json", "genericity", "--m", "3", "--n", "3", "--r", "3",
                             "--t", "2", "--trials", "5", "--starts", "8").stdout)
    assert doc["data"]["predicate_holds"] is False
    assert doc["data"]["nonempty_fraction"] == 1.0
    doc = json.loads(run_cli("--json", "genericity", "--trials", "0", "--m", "4",
                             "--n", "4", "--r", "4", "--t", "2").stdout)
    assert doc["verdict"] == "NO_TRIALS"
    assert doc["data"]["nonempty_fraction"] is None


def test_exit_code_on_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    completed = run_cli("locus", "--state", bad, "--k", "0", check=False)
    assert completed.returncode == 2
    assert completed.stderr
    completed = run_cli("--json", "check-mix", "--target", fixture("bell.json"),
                        "--component", fixture("example3.json"), check=False)
    assert completed.returncode == 2


def test_json_output_deterministic():
    args = ("--json", "--seed", "7", "locus", "--state", fixture("example4.json"),
            "--k", "2", "--starts", "16")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


def test_json_output_identical_across_blas_threads():
    for args in (("--json", "locus", "--state", fixture("example4.json"), "--k", "2",
                  "--starts", "16"),
                 ("--json", "--seed", "5", "genericity", "--m", "3", "--n", "3", "--r", "3",
                  "--t", "2", "--trials", "2"),
                 ("--json", "check-mix", "--target", fixture("example2_target.json"),
                  "--component", fixture("example2_target.json"))):
        one, two = (run_cli(*args, env={"OPENBLAS_NUM_THREADS": threads}).stdout
                    for threads in ("1", "2"))
        assert one == two


def test_non_hermitian_matrix_exits_2(tmp_path):
    matrix = np.eye(4, dtype=complex) / 4
    matrix[0, 1] = 0.1
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "matrix": [[v.real, v.imag]
                                                           for v in matrix.ravel()]}))
    completed = run_cli("bounds", "--state", path, check=False)
    assert completed.returncode == 2
    assert completed.stderr.strip() == "error: density matrix is not Hermitian"


def test_state_file_round_trip(tmp_path):
    for name in ("example1.json", "example2_target.json", "example2_component.json",
                 "example3.json", "example4.json", "bell.json",
                 "maximally_mixed_2x2.json"):
        state = load_state(fixture(name))
        doc = {"m": state.density.shape.m, "n": state.density.shape.n,
               "matrix": [[v.real, v.imag] for v in np.asarray(state.density.matrix).ravel()]}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        again = load_state(path)
        assert np.linalg.norm(again.density.matrix - state.density.matrix) <= 1e-12


def bounds_consistent(doc, m, n):
    """The relations a bounds report must satisfy among its own fields."""
    data = doc["data"]
    dim_a, dim_b = data["dim_V_A_0"], data["dim_V_B_0"]
    return (data["cap_side_A"] == m - 1 - dim_a and data["cap_side_B"] == n - 1 - dim_b
            and data["schmidt_rank_cap"] == min(data["cap_side_A"], data["cap_side_B"], m, n)
            and data["forces_separable"] == (dim_a == m - 2 or dim_b == n - 2)
            and data["excludes_max_schmidt_rank"] == (dim_a >= 0 or dim_b >= 0))


def test_bounds_consistent_on_tiny_weight_member(tmp_path):
    # |11> carries a weight below the rank threshold: rho's spectral ensemble
    # drops it, the file's ensemble keeps it; every field must come from one view
    state = {"m": 2, "n": 2, "ensemble": [
        {"p": 1 - 1e-13, "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"p": 1e-13, "amps": [[0, 0], [0, 0], [0, 0], [1, 0]]},
    ]}
    path = tmp_path / "tiny_weight.json"
    path.write_text(json.dumps(state))
    doc = json.loads(run_cli("--json", "bounds", "--state", path).stdout)
    assert bounds_consistent(doc, 2, 2)
    assert doc["data"]["dim_V_A_0"] == 0 and doc["data"]["schmidt_rank_cap"] == 1


def json_report(capsys, *argv):
    from mixloci.cli import main
    assert main(["--json", *map(str, argv)]) == 0
    return json.loads(capsys.readouterr().out)


def test_locus_reads_the_pencil_bounds_reads(tmp_path, capsys):
    # the file lists |11> with a weight below the rank threshold: rho's
    # spectral pencil has one column, the listed ensemble's would have two
    state = {"m": 2, "n": 2, "normalize": False, "ensemble": [
        {"p": 1 - 1e-13, "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"p": 1e-13, "amps": [[0, 0], [0, 0], [0, 0], [1, 0]]},
    ]}
    path = tmp_path / "tiny_weight.json"
    path.write_text(json.dumps(state))
    for state_path in [path, *sorted(FIXTURES.glob("*.json"))]:
        bounds = json_report(capsys, "bounds", "--state", state_path)["data"]
        for side in ("A", "B"):
            locus = json_report(capsys, "locus", "--state", state_path, "--side", side, "--k", "0")
            assert locus["data"]["projective_dimension"] == bounds[f"dim_V_{side}_0"], state_path
    assert json_report(capsys, "bounds", "--state", path)["data"]["dim_V_A_0"] == 0
    for side in ("A", "B"):
        doc = json_report(capsys, "locus", "--state", path, "--side", side, "--k", "1")
        assert doc["verdict"] == "TRIVIAL" and doc["data"]["points"] == []


def test_majorize_reads_matrix_and_ensemble_files_alike(tmp_path, capsys):
    # at a rank cut above every eigenvalue only the commands that make a rank
    # call refuse, whichever form the state file takes
    from mixloci.cli import main
    bell = load_state(fixture("bell.json"))
    path = tmp_path / "bell_matrix.json"
    path.write_text(json.dumps({"m": 2, "n": 2,
                                "matrix": complex_to_pairs(bell.density.matrix)}))
    assert load_state(path).ensemble is None

    def outcomes(state):
        for argv in (("majorize", "--p", "1", "--target", state),
                     ("majorize", "--target", state, "--components", state, "--weights", "1"),
                     ("bounds", "--state", state), ("locus", "--state", state, "--k", "0")):
            code = main(["--tol-rank", "0.5", *map(str, argv)])
            yield code, capsys.readouterr()

    ensemble_form = list(outcomes(fixture("bell.json")))
    assert list(outcomes(path)) == ensemble_form
    assert [code for code, _ in ensemble_form] == [0, 0, 2, 2]
    assert [len(out.err.splitlines()) for _, out in ensemble_form] == [0, 0, 1, 1]


def test_bounds_decomposes_the_state_once(monkeypatch, capsys):
    from mixloci.cli import main
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["--json", "bounds", "--state", str(fixture("bell.json"))]) == 0
    assert bounds_consistent(json.loads(capsys.readouterr().out), 2, 2)
    # one eigh validates rho and gives its spectral ensemble; one null-space
    # SVD per side
    assert calls["eigh"] <= 1 and calls["eigvalsh"] == 0 and calls["svd"] <= 2


def test_each_state_file_is_read_once_and_its_digest_reported(monkeypatch, capsys):
    from mixloci.cli import main
    target, component = fixture("example1.json"), fixture("bell.json")
    mixture = fixture("maximally_mixed_2x2.json")
    digest = {path: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in (target, component, mixture)}
    reads = Counter()
    for name in ("read_bytes", "read_text"):
        original = getattr(Path, name)

        def counted(self, *args, _original=original, **kwargs):
            reads[Path(self)] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(Path, name, counted)
    for argv, inputs in (
            (["check-mix", "--target", target, "--component", component, "--k", "1"],
             {"target": digest[target], "component": digest[component]}),
            (["majorize", "--target", target, "--components", component, mixture,
              "--weights", "0.5,0.5"],
             {"target": digest[target], "components": [digest[component], digest[mixture]]})):
        reads.clear()
        assert main(["--json", *map(str, argv)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {key: report["inputs"][key] for key in inputs} == inputs
        assert reads == Counter(path for path in argv if isinstance(path, Path))


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_state_file_json_errors_are_those_of_its_text(tmp_path, newline):
    # a JSON error names the line and character of the text as text mode
    # reads it, newlines translated
    path = tmp_path / "trailing_comma.json"
    path.write_bytes(newline.join(['{"m": 2,', ' "n": 2,', '}']).encode())
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(path.read_text(encoding="utf-8"))
    with pytest.raises(StateFileError) as raised:
        load_state(path)
    assert str(raised.value) == f"cannot read state file {path}: {expected.value}"



@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_load_state_runs_no_collection_and_leaves_the_collector_as_it_was(tmp_path, enabled):
    # a 6x6 matrix file parses to 1297 lists, past the collector's first
    # threshold; none of them is swept while it lives, and a failed load too
    # leaves the collector on or off as it found it
    path, bad = tmp_path / "rho.json", tmp_path / "bad.json"
    rho = random_density(BipartiteShape(6, 6), 36, seed=0)
    path.write_text(json.dumps({"m": 6, "n": 6, "matrix": complex_to_pairs(rho.matrix)}))
    bad.write_text('{"m": 2,')
    sweeps = []

    def record(phase, info):
        sweeps.append((phase, info["generation"]))
    gc.collect()  # counts start at zero, so only the loads could reach a threshold
    gc.callbacks.append(record)
    (gc.enable if enabled else gc.disable)()
    try:
        for _ in range(3):
            assert load_state(path).density.shape.dim == 36
            assert gc.isenabled() == enabled
        with pytest.raises(StateFileError):
            load_state(bad)
        assert gc.isenabled() == enabled
    finally:
        gc.callbacks.remove(record)
        gc.enable()
    assert sweeps == []


def test_deeply_nested_state_file_is_a_state_file_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"m": 2, "n": 2, "matrix": ' + "[" * 100000 + "]" * 100000 + "}")
    with pytest.raises(StateFileError) as raised:
        load_state(path)
    assert str(raised.value).startswith(
        f"cannot read state file {path}: maximum recursion depth exceeded")
    assert gc.isenabled()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from mixloci import cli
    build_parser, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    argv = ["--json", "majorize", "--p", "0.5,0.5", "--target",
            str(fixture("maximally_mixed_2x2.json"))]
    try:
        outputs = []
        for _ in range(3):
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        # the shared parser's defaults cannot be changed through a parse result
        assert cli._parser().parse_args(["majorize"]).components == ()
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1 and len(set(outputs)) == 1


AMPS_00 = [[1, 0], [0, 0], [0, 0], [0, 0]]
# each number is finite, but sums and norms of them overflow
OVERFLOWING_STATES = [
    {"m": 1, "n": 2, "ensemble": [{"p": 1e308, "amps": [[1, 0], [0, 0]]},
                                  {"p": 1e308, "amps": [[0, 0], [1, 0]]}]},
    {"m": 1, "n": 2, "ensemble": [{"p": 1, "amps": [[1e308, 0], [1e308, 0]]}]},
    {"m": 1, "n": 2, "matrix": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]},
]


@pytest.mark.parametrize("doc", [
    {"m": 2, "n": 2, "ensemble": [{"amps": AMPS_00}]},
    {"m": 2, "n": 2, "ensemble": 5},
    {"m": 2, "n": 2, "ensemble": [{"p": 1, "amps": [[float("nan"), 0]] + AMPS_00[1:]}]},
    {"m": 2, "n": 2, "normalize": "false", "ensemble": [{"p": 1, "amps": AMPS_00}]},
    *OVERFLOWING_STATES,
    {"m": 2, "n": 2, "normalize": False, "ensemble": [{"p": 0.5, "amps": AMPS_00}]},
    {"m": 2, "n": 2, "normalize": False, "ensemble": [{"p": 1, "amps": [[2, 0]] + AMPS_00[1:]}]},
    # raw text, as json.dumps recurses too: the parser's recursion guard trips
    "[" * 100000 + "]" * 100000,
], ids=["missing_p", "ensemble_not_list", "nan_amplitude", "normalize_string",
        "overflowing_weights", "overflowing_amplitudes", "overflowing_matrix",
        "unnormalized_weights", "unnormalized_amplitudes", "deeply_nested"])
def test_malformed_state_file_exits_2(tmp_path, doc):
    path = tmp_path / "malformed.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    completed = run_cli("bounds", "--state", path, check=False)
    assert completed.returncode == 2
    lines = completed.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), completed.stderr


SMALL = st.integers(-2, 2) | st.floats(-2, 2)
NUMBERS = st.one_of(SMALL, SMALL, st.floats(),
                    st.sampled_from([1e150, 2e150, 1e308, -1e308, 5e-324, 2 ** 64]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=12)


def number_pairs(size):
    """size [re, im] pairs, or a list of about that length holding anything."""
    pair = st.lists(NUMBERS, min_size=2, max_size=2)
    return (st.lists(pair, min_size=size, max_size=size)
            | st.lists(pair | JSON_VALUES, max_size=size + 1))


@st.composite
def state_docs(draw):
    """Documents shaped like state files, mostly of the right sizes."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    doc = {"m": m, "n": n}
    if draw(st.booleans()):
        doc["normalize"] = draw(st.booleans())
    member = st.fixed_dictionaries({"p": NUMBERS, "amps": number_pairs(m * n)})
    kind = draw(st.sampled_from(["ensemble", "matrix", "psd_matrix"]))
    if kind == "ensemble":
        doc["ensemble"] = draw(st.lists(member, min_size=1, max_size=3))
    elif kind == "matrix":
        doc["matrix"] = draw(number_pairs((m * n) ** 2))
    else:  # sum of v v^dagger, scaled: Hermitian and PSD
        entries = st.lists(st.tuples(SMALL, SMALL), min_size=m * n, max_size=m * n)
        v = np.array([[complex(*c) for c in vector]
                      for vector in draw(st.lists(entries, min_size=1, max_size=2))])
        scale = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e200]))
        doc["matrix"] = complex_to_pairs(scale * np.einsum("la,lb->ab", v, v.conj()))
    if draw(st.integers(0, 9)) == 0:  # one member replaced by any value
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    return doc


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES | state_docs())
@example(OVERFLOWING_STATES[0])
@example(OVERFLOWING_STATES[1])
@example(OVERFLOWING_STATES[2])
@example({"m": 1, "n": 2, "matrix": [[-2.00001, 0], [0, 0], [0, 1e150], [2, 0]]})  # trace 1e-5
def test_any_json_document_loads_or_raises_state_file_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is an error, not a StateFileError
            try:
                loaded = load_state(path)
            except StateFileError:
                return
    assert isinstance(loaded, LoadedState)


@pytest.mark.parametrize("args", [
    ("--tol-rank", "-1", "bounds", "--state", fixture("bell.json")),
    ("--tol-floor", "nan", "bounds", "--state", fixture("bell.json")),
    ("--tol-rank", "inf", "bounds", "--state", fixture("bell.json")),
    # a rank cut that overflows to inf is refused, not warned about
    ("--tol-rank", "1e308", "bounds", "--state", fixture("example3.json")),
    ("--tol-rank", "1e308", "genericity", "--m", "3", "--n", "3", "--r", "3", "--t", "1",
     "--trials", "1"),
    ("locus", "--state", fixture("example4.json"), "--k", "2", "--starts", "-1"),
    ("genericity", "--m", "3", "--n", "3", "--r", "3", "--t", "2", "--starts", "0"),
    ("check-mix", "--target", fixture("example2_target.json"),
     "--component", fixture("example2_component.json"), "--k", "two"),
    ("check-mix", "--target", fixture("example2_target.json"),
     "--component", fixture("example2_component.json"), "--k", "1.5"),
    ("majorize", "--p", "0.5,nan,0.5", "--target", fixture("maximally_mixed_2x2.json")),
    ("majorize", "--p", "1e308,1e308", "--target", fixture("maximally_mixed_2x2.json")),
    ("majorize", "--target", fixture("bell.json"), "--components", fixture("bell.json"),
     fixture("bell.json"), "--weights", "0.5,nan"),
    ("--seed", "-1", "locus", "--state", fixture("example4.json"), "--k", "2", "--starts", "2"),
    ("--seed", "-1", "genericity", "--m", "3", "--n", "3", "--r", "3", "--t", "2",
     "--trials", "1"),
    # a rank cut above every eigenvalue leaves no state
    ("--tol-rank", "0.5", "check-mix", "--target", fixture("example2_target.json"),
     "--component", fixture("example2_component.json")),
    ("--tol-rank", "0.5", "bounds", "--state", fixture("example4.json")),
    ("--tol-rank", "0.5", "genericity", "--m", "3", "--n", "3", "--r", "3", "--t", "1",
     "--trials", "1"),
    ("--tol-rank", "0.5", "locus", "--state", fixture("example1.json"), "--k", "0"),
    ("--tol-rank", "0.5", "locus", "--state", fixture("example1.json"), "--k", "1"),
    # checked where nothing is searched or drawn too
    ("locus", "--state", fixture("example1.json"), "--k", "0", "--starts", "0"),
    ("--seed", "-3", "locus", "--state", fixture("example1.json"), "--k", "0"),
    ("--seed", "-3", "bounds", "--state", fixture("example3.json")),
    ("--seed", "-3", "majorize", "--p", "0.25,0.25,0.25,0.25",
     "--target", fixture("maximally_mixed_2x2.json")),
    ("genericity", "--m", "6", "--n", "6", "--r", "12", "--t", "0", "--trials", "10000"),
    ("genericity", "--m", "4", "--n", "2", "--r", "4", "--t", "2"),  # t reaches n
    # --p is Theorem 1's check: Theorem 2's arguments are refused, not ignored
    ("majorize", "--p", "0.5,0.5", "--target", fixture("bell.json"), "--components",
     fixture("bell.json"), "--weights", "1", "--reduced"),
    ("majorize", "--p", "0.5,0.5", "--target", fixture("bell.json"), "--components",
     fixture("bell.json")),
    ("majorize", "--p", "0.5,0.5", "--target", fixture("bell.json"), "--weights", "1"),
    ("majorize", "--p", "0.5,0.5", "--target", fixture("bell.json"), "--reduced"),
    ("majorize", "--p", "0.5,abc", "--target", fixture("maximally_mixed_2x2.json")),
    ("majorize", "--p", "1"),
    ("majorize", "--target", fixture("maximally_mixed_2x2.json")),
], ids=["tol_rank_negative", "tol_floor_nan", "tol_rank_inf", "bounds_cut_overflows",
        "genericity_cut_overflows", "locus_starts_negative",
        "genericity_starts_zero", "check_mix_k_word", "check_mix_k_fraction", "p_nan",
        "p_overflowing_sum", "weights_nan", "locus_seed_negative", "genericity_seed_negative",
        "check_mix_cut_above_spectrum", "bounds_cut_above_spectrum",
        "genericity_cut_above_spectrum", "locus_k0_cut_above_spectrum",
        "locus_k1_cut_above_spectrum", "locus_k0_starts_zero", "locus_k0_seed_negative",
        "bounds_seed_negative", "majorize_seed_negative", "genericity_trials_above_cap",
        "genericity_t_reaches_n",
        "p_with_theorem2_arguments", "p_with_components", "p_with_weights", "p_with_reduced",
        "p_malformed", "p_without_target", "target_without_components"])
def test_out_of_range_setting_exits_2(args):
    completed = run_cli(*args, check=False)
    assert completed.returncode == 2
    lines = completed.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), completed.stderr


# argv tokens: values small enough that no request searches much (at most 3
# starts, 3 trials and 3x3 states), and fixture paths of several shapes
FIXTURE_PATHS = [str(fixture(name)) for name in (
    "example1.json", "example2_target.json", "example2_component.json", "example4.json",
    "bell.json", "maximally_mixed_2x2.json")]
INT_TOKENS = ["-1", "0", "1", "2", "3"]
ARGV_TOKENS = INT_TOKENS + ["0.5", "1e300", "1e308", "nan", "inf", "all", "A", "B", "0.5,0.5",
                            *FIXTURE_PATHS]
# each flag's likely values, so that most requests get past the parser
FLAG_TOKENS = {
    **dict.fromkeys(["--seed", "--starts", "--trials"], INT_TOKENS),
    **dict.fromkeys(["--m", "--n", "--r"], INT_TOKENS[2:]), "--t": INT_TOKENS[1:4],
    **dict.fromkeys(["--tol-rank", "--tol-floor"], ["0", "0.5", "1e300", "nan", "inf"]),
    **dict.fromkeys(["--state", "--target", "--component", "--components"], FIXTURE_PATHS),
    "--side": ["A", "B"], "--k": INT_TOKENS + ["all"],
    "--p": ["1", "0.5,0.5", "0.5", "nan", "1e300"], "--weights": ["1", "0.5,0.5", "0.5", "inf"],
    "--reduced": []}
# each subcommand's flags, the ones it needs first
COMMAND_FLAGS = {"locus": ["--state", "--k", "--side", "--starts"],
                 "check-mix": ["--target", "--component", "--side", "--k", "--starts"],
                 "bounds": ["--state"],
                 "majorize": ["--target", "--p", "--components", "--weights", "--reduced"],
                 "genericity": ["--m", "--n", "--r", "--t", "--trials", "--starts"]}
REQUIRED = {"locus": 2, "check-mix": 2, "bounds": 1, "majorize": 2, "genericity": 4}


@st.composite
def flag_and_value(draw, flags):
    """A flag and, one time in four, any token as its value, else a likely one."""
    flag = draw(st.sampled_from(flags))
    if not FLAG_TOKENS[flag]:
        return [flag]
    likely = FLAG_TOKENS[flag] if draw(st.integers(0, 3)) else ARGV_TOKENS
    return [flag, draw(st.sampled_from(likely))]


@st.composite
def argvs(draw):
    argv = sum(draw(st.lists(flag_and_value(["--tol-rank", "--tol-floor", "--seed"]),
                             max_size=1)), [])
    if draw(st.booleans()):
        argv.append("--json")
    command = draw(st.sampled_from(sorted(REQUIRED)))
    argv.append(command)
    # the defaults of 64 starts and 100 trials are overridden first; a later
    # token can only lower them, or fail to parse
    argv += {"locus": ["--starts", "3"], "check-mix": ["--starts", "3"],
             "genericity": ["--starts", "3", "--trials", "3"]}.get(command, [])
    for flag in COMMAND_FLAGS[command][:REQUIRED[command]]:
        argv += draw(flag_and_value([flag]))
    # one time in four a flag of any subcommand
    flags = COMMAND_FLAGS[command] if draw(st.integers(0, 3)) else sorted(
        set(FLAG_TOKENS) - {"--tol-rank", "--tol-floor", "--seed"})
    argv += sum(draw(st.lists(flag_and_value(flags), max_size=2)), [])
    if draw(st.integers(0, 9)) == 0:  # a stray token
        argv.append(draw(st.sampled_from(ARGV_TOKENS)))
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
# a rank cut above every eigenvalue left range_containment an empty spectrum
@example(["--tol-rank", "1e300", "check-mix", "--starts", "1", "--target", FIXTURE_PATHS[2],
          "--component", FIXTURE_PATHS[2]])
def test_any_argv_exits_0_or_2_without_a_traceback(argv):
    from mixloci.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code, lines = exc.code, None
        else:  # main's own exit: silent when it completes, one error line when it refuses
            lines = err.getvalue().splitlines()
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if lines is not None:
        assert (lines == [] if code == 0
                else len(lines) == 1 and lines[0].startswith("error: ")), (argv, err.getvalue())

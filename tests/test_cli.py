from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES

from mixloci import BipartiteShape, mix, random_density
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
    assert doc["data"]["refused"] is None


def test_check_mix_identical_files():
    args = ("check-mix", "--target", fixture("example2_target.json"),
            "--component", fixture("example2_target.json"), "--k", "all", "--starts", "8")
    doc = json.loads(run_cli("--json", *args).stdout)
    assert doc["verdict"] == "NO_OBSTRUCTION_FOUND"
    # range containment is proven, so no locus is scanned
    assert doc["data"]["search_stats"] == {}
    assert doc["data"]["range"]["contained"] is True
    assert doc["data"]["range"]["p_max"] == pytest.approx(1.0, abs=1e-9)
    assert doc["data"]["refused"] is None
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
    assert doc["data"]["refused"].startswith("target eigenvalue")
    assert "no locus scan" in run_cli(*args).stdout


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
        doc = {"m": state.shape.m, "n": state.shape.n,
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
], ids=["missing_p", "ensemble_not_list", "nan_amplitude", "normalize_string",
        "overflowing_weights", "overflowing_amplitudes", "overflowing_matrix"])
def test_malformed_state_file_exits_2(tmp_path, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
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
], ids=["tol_rank_negative", "tol_floor_nan", "tol_rank_inf", "locus_starts_negative",
        "genericity_starts_zero", "check_mix_k_word", "check_mix_k_fraction", "p_nan",
        "p_overflowing_sum", "weights_nan", "locus_seed_negative", "genericity_seed_negative"])
def test_out_of_range_setting_exits_2(args):
    completed = run_cli(*args, check=False)
    assert completed.returncode == 2
    lines = completed.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), completed.stderr

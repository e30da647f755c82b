from __future__ import annotations

import importlib.util
import json

from conftest import FIXTURES

from mixloci import loci
from mixloci.cli import build_parser

TOOLS = FIXTURES.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_output_multi_batch_requests_span_more_than_one_batch(tmp_path):
    # a genericity request of trials m x n rank-r states puts (m, n, r) blocks
    # in its pencils: it takes more than one batch exactly when it is tagged
    same_output = load_tool("same_output")
    genericity = [build_parser().parse_args(req) for req in same_output.requests(tmp_path)
                  if "genericity" in req]
    tagged = [build_parser().parse_args(["genericity", *req]) for req in same_output.MULTI_BATCH]
    assert tagged and all(args in genericity for args in tagged)
    for args in genericity:
        per_batch = loci._searches_per_batch((args.m, args.n, args.r), args.t, args.starts)
        assert (args.trials > per_batch) == (args in tagged), vars(args)


def test_peak_rss_measures_each_request_in_its_own_process(capsys):
    peak_rss = load_tool("peak_rss")
    request = ["genericity", "--m", "2", "--n", "2", "--r", "2", "--t", "0"]
    assert peak_rss.main(["1000", "0,3", *request]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["--trials 0", "--trials 3"]
    assert all(": exit 0, peak " in line for line in lines[:2])
    assert peak_rss.main(["1000", "-1", *request]) == 1  # a run that exits 2


def test_readme_examples_run_the_library_quick_start():
    readme_examples = load_tool("readme_examples")
    code = readme_examples.quick_start((FIXTURES.parent / "README.md").read_text())
    assert "spectral_pencil(target.density" in code
    done = readme_examples.run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "INFEASIBLE"


def test_same_output_names_the_json_paths_that_differ():
    differences = load_tool("same_output").differences
    old = {"data": {"range": {"leak": 1.0}, "refused": None}, "verdict": "NO_OBSTRUCTION_FOUND"}
    new = {"data": {"range": {"leak": 0.5}, "reason": "why"}, "verdict": "NO_OBSTRUCTION_FOUND"}
    reference, result = (0, json.dumps(old), ""), (0, json.dumps(new), "")
    assert differences(reference, result) == ["data.range.leak", "data.reason", "data.refused"]
    assert differences(reference, reference) == []
    assert differences(reference, (2, "", "error: bad\n")) == ["exit", "stdout", "stderr"]

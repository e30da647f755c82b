"""Seeded inputs for the three benchmark workloads.

`generate(workload, seed, out_dir)` writes the workload's state files and its
request schedule (`schedule.json`) under `out_dir` and returns the schedule.
Everything is derived from the seed, so the same seed gives byte-identical
files.  The program under test only ever receives file paths and argv.

A schedule is a fixed list of request templates (`cycle`), a list of `pools`
of which each cycle takes the next `take` templates in turn (together they
fix the ratio of request kinds), and a rule for the order of each cycle:
cycle `c` is the permutation drawn from `default_rng([seed, 1, c])`, which
also draws the `--seed` of each genericity request in that cycle.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from mixloci import BipartiteShape, make_ensemble, make_pure, mix, random_density

# Why each workload exists (also the `why` lines of BENCHMARK.json).
WHY = {
    "certify": "sampled locus search on loci with points: certificates, early exit, guard band",
    "genericity": "4x4 empty-locus trials where every start runs to its stopping rule; 3x3 catch early give-up",
    "exact": "no search: bounds, rank-0 loci, majorization; io/states/numeric/cli dominate",
}

# Known values from the worked examples (acceptance criteria 1 and 3).
FIXTURE_GOLDENS = {
    "example1.json": {"point": [1, -1], "bounds": {
        "dim_V_A_0": 0, "schmidt_rank_cap": 1, "forces_separable": True}},
    "example3.json": {"point": [0, 1, -1], "bounds": {
        "dim_V_A_0": 0, "schmidt_rank_cap": 2, "excludes_max_schmidt_rank": True}},
}

# Requests run with the CLI defaults, --seed 0 included, except genericity
# requests: their states come from --seed, so each draws its own.
_SEEDED_KINDS = {"generic_empty", "generic_nonempty"}


def _pairs(values) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in np.asarray(values, dtype=complex).ravel()]


def _csv(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def _write_matrix(path: Path, rho) -> None:
    _write_json(path, {"m": rho.shape.m, "n": rho.shape.n, "normalize": False,
                       "matrix": _pairs(rho.matrix)})


def _write_ensemble(path: Path, ensemble) -> None:
    _write_json(path, {"m": ensemble.shape.m, "n": ensemble.shape.n, "normalize": False,
                       "ensemble": [{"p": p, "amps": _pairs(psi.amplitudes)}
                                    for p, psi in ensemble.members]})


def _mixture(rng, work: Path, rel: str, i: int, total_rank: int) -> dict:
    """A genuine 3x3 mixture of the given rank containing a random component,
    and the `check-mix --k all` request for that pair."""
    s33 = BipartiteShape(3, 3)
    r1 = int(rng.integers(1, total_rank))
    r2 = total_rank - r1 if total_rank < 9 else int(rng.integers(9 - r1, 10))
    component = random_density(s33, r1, seed=[int(rng.integers(2**31)), 1])
    other = random_density(s33, r2, seed=[int(rng.integers(2**31)), 2])
    w = float(rng.uniform(0.2, 0.8))
    _write_matrix(work / f"mix{i}_target.json", mix([w, 1.0 - w], [component, other]))
    _write_matrix(work / f"mix{i}_component.json", component)
    return {"kind": "mixture", "argv": [
        "check-mix", "--target", f"{rel}/mix{i}_target.json",
        "--component", f"{rel}/mix{i}_component.json", "--k", "all"]}


def _certify(rng, work: Path, rel: str) -> tuple[list[dict], list[dict]]:
    """The fixed requests of a cycle, and the pools of mixture requests."""
    requests = [
        {"kind": "infeasible", "argv": ["check-mix", "--target", "fixtures/example2_target.json",
                                        "--component", "fixtures/example2_component.json",
                                        "--k", k]}
        for k in ("all", "2")]
    requests += [
        {"kind": "locus", "argv": ["locus", "--state", f"fixtures/{name}", "--k", "2"],
         "near_line": name == "example4.json"}
        for name in ("example4.json", "example2_target.json")]
    # Genuine mixtures containing the component.  Every scanned locus k >= 1 is
    # empty.  Full-rank mixtures give up on it in ~15-30 ms, whatever the
    # draw.  Rank-8 ones take 0.1-0.5 s, and which depends on the draw.  A run
    # has only 5-6 cycles, so rank-8 mixtures drawn from the workload seed made
    # the run's throughput depend on the seed; these four come from a fixed
    # seed, the same for every workload seed, and each cycle takes the next
    # two.  Lower ranks take up to 9 s and would swamp a 25 s run.
    requests += [_mixture(rng, work, rel, i, 9) for i in range(10)]
    fixed = np.random.default_rng([0, 8])
    return requests, [{"take": 2, "requests": [_mixture(fixed, work, rel, i, 8)
                                               for i in range(10, 14)]}]


def _genericity() -> list[dict]:
    empty = {"kind": "generic_empty", "shape": [4, 4, 4, 2], "trials": 2}
    nonempty = {"kind": "generic_nonempty", "shape": [3, 3, 3, 2], "trials": 4}
    requests = []
    for spec in [empty] * 3 + [nonempty]:
        m, n, r, t = spec["shape"]
        requests.append(dict(spec, argv=["genericity", "--m", str(m), "--n", str(n),
                                         "--r", str(r), "--t", str(t),
                                         "--trials", str(spec["trials"])]))
    return requests


def _stacked_rank(blocks: np.ndarray) -> int:
    """Rank of the (rows*cols) x ambient matrix whose columns are vec(blocks[i]),
    insisting on a clear gap so that the constructed dimension is unambiguous."""
    s = np.linalg.svd(blocks.reshape(blocks.shape[0], -1).T, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    if (rank and s[rank - 1] < 1e-4 * s[0]) or (rank < s.size and s[rank] > 1e-12 * s[0]):
        raise ValueError("draw too close to a rank drop")
    return rank


def _annihilated_state(rng, m: int, n: int, a: int, b: int, t: int):
    """Ensemble of t members X = P_A G P_B whose coefficient matrices share `a`
    left and `b` right annihilators; returns it with its exact rank-0 locus
    dimensions, computed here without the package."""
    while True:
        left = rng.standard_normal((m, a)) + 1j * rng.standard_normal((m, a))
        right = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
        p_left = np.eye(m) - left @ np.linalg.pinv(left) if a else np.eye(m)
        p_right = np.eye(n) - right @ np.linalg.pinv(right) if b else np.eye(n)
        coeffs = [p_left.T @ (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
                  @ p_right for _ in range(t)]
        tensor = np.stack(coeffs, axis=-1)                     # (m, n, t)
        weights = rng.dirichlet(np.ones(t))
        vectors = np.stack([c.ravel() / np.linalg.norm(c) for c in coeffs], axis=-1)
        spectrum = np.linalg.eigvalsh((vectors * weights) @ vectors.conj().T)[::-1]
        try:
            dim_a = m - _stacked_rank(tensor) - 1
            dim_b = n - _stacked_rank(np.transpose(tensor, (1, 0, 2))) - 1
        except ValueError:
            continue
        if spectrum[t - 1] < 1e-4 * spectrum[0]:
            continue  # keep the eigen-ensemble rank (t) far from its threshold
        members = [(float(w), make_pure(c.ravel(), BipartiteShape(m, n)))
                   for w, c in zip(weights, coeffs)]
        return make_ensemble(BipartiteShape(m, n), members), dim_a, dim_b, spectrum


def _expected_bounds(m: int, n: int, dim_a: int, dim_b: int) -> dict:
    cap_a, cap_b = m - 1 - dim_a, n - 1 - dim_b
    return {"dim_V_A_0": dim_a, "dim_V_B_0": dim_b, "cap_side_A": cap_a, "cap_side_B": cap_b,
            "schmidt_rank_cap": min(cap_a, cap_b, m, n),
            "forces_separable": dim_a == m - 2 or dim_b == n - 2,
            "excludes_max_schmidt_rank": dim_a >= 0 or dim_b >= 0}


def _majorized(p, spectrum) -> bool:
    size = max(len(p), len(spectrum))
    pc = np.cumsum(np.sort(np.pad(p, (0, size - len(p))))[::-1])
    sc = np.cumsum(np.sort(np.pad(spectrum, (0, size - len(spectrum))))[::-1])
    return abs(pc[-1] - sc[-1]) <= 1e-9 and bool(np.all(pc[:-1] <= sc[:-1] + 1e-9))


# Shapes of the generated exact-workload states: every m and n from 2 to 6.
EXACT_SHAPES = [(2, 2), (2, 5), (3, 3), (3, 6), (4, 2), (4, 4), (5, 3), (5, 5), (6, 4), (6, 6)]


def _exact(rng, work: Path, rel: str) -> list[dict]:
    requests = []
    for name, golden in FIXTURE_GOLDENS.items():
        requests.append({"kind": "bounds", "argv": ["bounds", "--state", f"fixtures/{name}"],
                         "expected": golden["bounds"]})
        requests.append({"kind": "locus0", "argv": ["locus", "--state", f"fixtures/{name}",
                                                    "--k", "0"],
                         "expected_dim": 0, "expected_point": golden["point"]})
    for p, verdict in (("0.25,0.25,0.25,0.25", "PASS"), ("0.7,0.3", "FAIL")):
        requests.append({"kind": "majorize", "expected": verdict, "argv": [
            "majorize", "--p", p, "--target", "fixtures/maximally_mixed_2x2.json"]})
    for i, (m, n) in enumerate(EXACT_SHAPES):
        # Half of the states get a shared left annihilator (criterion 10's
        # construction), some also a right one; the rest are generic.  The
        # structure is fixed, so every seed has the same locus dimensions.
        a = i % 2
        b = int(i % 4 == 1)
        t = 1 + i % 3
        ensemble, dim_a, dim_b, spectrum = _annihilated_state(rng, m, n, a, b, t)
        state = f"{rel}/state{i}.json"
        _write_ensemble(work / f"state{i}.json", ensemble)
        requests.append({"kind": "bounds", "argv": ["bounds", "--state", state],
                         "expected": _expected_bounds(m, n, dim_a, dim_b)})
        for side, dim in (("A", dim_a), ("B", dim_b)):
            requests.append({"kind": "locus0", "expected_dim": dim, "argv": [
                "locus", "--state", state, "--side", side, "--k", "0"]})
        probs = ensemble.weights
        requests.append({"kind": "majorize",
                         "expected": "PASS" if _majorized(probs, spectrum) else "FAIL",
                         "argv": ["majorize", "--p", _csv(probs), "--target", state]})
        # A genuine mixture of random components passes both majorization
        # tests.  The component ranks (full, half, quarter) are the same for
        # every seed: they set the cost of the slowest requests, and so
        # latency_tail_ms, which moved by 1.4x with the seed when drawn.
        shape = BipartiteShape(m, n)
        count = 2 + i % 2
        comps = [random_density(shape, max(1, shape.dim >> j),
                                seed=[int(rng.integers(2**31)), j]) for j in range(count)]
        weights = rng.dirichlet(np.ones(count))
        _write_matrix(work / f"mix{i}.json", mix(weights, comps))
        for j, comp in enumerate(comps):
            _write_matrix(work / f"mix{i}_c{j}.json", comp)
        requests.append({"kind": "majorize", "expected": "PASS", "argv": [
            "majorize", "--target", f"{rel}/mix{i}.json",
            "--components", *[f"{rel}/mix{i}_c{j}.json" for j in range(count)],
            "--weights", _csv(weights), "--reduced"]})
    return requests


def generate(workload: str, seed: int, out_dir: Path, root: Path) -> dict:
    """Write the workload's inputs under `out_dir` (paths in argv are relative
    to `root`) and return its schedule."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    rel = out_dir.relative_to(root).as_posix()
    rng = np.random.default_rng([seed, 0])
    pools = []
    if workload == "certify":
        requests, pools = _certify(rng, out_dir, rel)
    elif workload == "genericity":
        requests = _genericity()
    elif workload == "exact":
        requests = _exact(rng, out_dir, rel)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    schedule = {"workload": workload, "seed": seed, "why": WHY[workload],
                "cycle": requests, "pools": pools,
                "order": "cycle c runs in the order numpy.random.default_rng([seed, 1, c]) "
                         "permutes it; each genericity request gets --seed from the same draw"}
    _write_json(out_dir / "schedule.json", schedule)
    return schedule


def cycle(schedule: dict, index: int) -> list[dict]:
    """Requests of cycle `index`, in order, each with its full argv."""
    requests = list(schedule["cycle"])
    for pool in schedule["pools"]:
        size = len(pool["requests"])
        requests += [pool["requests"][(pool["take"] * index + j) % size] for j in range(pool["take"])]
    rng = np.random.default_rng([schedule["seed"], 1, index])
    order = rng.permutation(len(requests))
    seeds = rng.integers(0, 2**31, size=len(requests))
    out = []
    for i in order:
        request = requests[i]
        argv = ["--json"]
        if request["kind"] in _SEEDED_KINDS:
            argv += ["--seed", str(int(seeds[i]))]
        out.append(dict(request, argv=argv + request["argv"]))
    return out

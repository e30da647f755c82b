"""mixloci benchmark: closed-loop CLI requests on seeded inputs.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the repository root.  One client calls `mixloci.cli.main(argv)`
in-process, back to back (a closed loop, no think time), on the files that
`workloads.py` generates from `--seed`.  `oracle.py` checks every stdout
report between cycles, outside the timed region.  The last line of stdout is one JSON object:
with `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
per-layer metrics of a separate traced run (see `tracing.py`).  Lines above it
are a human-readable table of the same numbers plus machine facts.

Timings are reported at a nominal machine speed.  The 2-vCPU VM it was tuned
on shares its host, and its speed swings up to 2x within seconds, so between
requests the client times a small fixed piece of work that shares no code
with mixloci (`Reference`) and scales each latency by REFERENCE_UNIT_MS over
the mean time of the nearest units before and after it.  The wall-clock
values are printed next to the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 8  # before the timed cycles, and again after them
WORKLOADS = ("certify", "genericity", "exact")
# Nominal time of one Reference.unit(): about its median on a 2-vCPU Intel
# Xeon VM at 2.0 GHz (Python 3.11, numpy 2.4 with OpenBLAS, one thread).
REFERENCE_UNIT_MS = 0.4
REFERENCE_SHARE = 0.1  # reference work between requests, as a share of request time
REFERENCE_NEAREST = 2  # units on each side of a request that set its scale

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"), ("ok_frac", "ratio"), ("found_frac", "ratio"),
    ("points_per_request", "count"), ("peak_rss_mb", "MB"),
]


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def machine_facts(threads: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "threads": threads}


class Reference:
    """A fixed piece of work that shares no code with mixloci: small complex
    SVDs and products in numpy and a pure-Python loop, the same kinds of work
    as the search.  Its time tracks the speed the machine gives this process."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20021015)
        self.svd = np.linalg.svd
        self.mats = [rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
                     for _ in range(6)]
        for _ in range(50):
            self.unit()  # warm-up

    def unit(self) -> float:
        start = perf_counter()
        acc = 0.0
        for a in self.mats:
            u, s, _ = self.svd(a)
            acc += float(s[-1]) + abs(complex((u @ a.conj()[:, :4]).trace()))
        for i in range(750):
            acc += (i * 0.5) % 7
        return perf_counter() - start

    def between(self, busy_s: float) -> list[float]:
        """Run units until REFERENCE_SHARE of `busy_s` is spent, at least one;
        return the time of each.  A first, untimed unit refills the caches the
        preceding work evicted: right after a request a unit takes 12-20 %
        longer, and by how much depends on the program under test."""
        self.unit()
        times = [self.unit()]
        while sum(times) < REFERENCE_SHARE * busy_s:
            times.append(self.unit())
        return times

    @staticmethod
    def scale(before: list[float], after: list[float]) -> float:
        """Factor that takes a time measured between `before` and `after` to
        the nominal machine speed."""
        near = before[-REFERENCE_NEAREST:] + after[:REFERENCE_NEAREST]
        return REFERENCE_UNIT_MS / (1e3 * statistics.fmean(near))


def measure_setup(repeats: int, reference: Reference | None = None) -> list[tuple[float, float]]:
    """(wall time, scale) of `import mixloci.cli`, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import mixloci.cli; print(time.perf_counter() - t)")
    samples = []
    before = reference.between(0.0) if reference else []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, timeout=120, check=True)
        wall = float(out.stdout)
        if reference:
            after = reference.between(wall)
            samples.append((wall, reference.scale(before, after)))
            before = after
        else:
            samples.append((wall, 1.0))
    return samples


class Client:
    """One closed-loop client: each request starts when the previous one returns.

    Replies are checked between cycles, outside the timed region, and only
    (request, latency, outcome) is kept, so memory does not grow with the
    number of requests served.  With a `Reference`, untraced requests are
    separated by reference units, and `scales` gets each one's factor."""

    def __init__(self, cli, oracle, reference: Reference | None = None):
        self.cli = cli
        self.oracle = oracle
        self.reference = reference
        self.results = []  # (request, latency seconds, oracle.Outcome)
        self.scales = []   # nominal-speed factor of each timed untraced request

    def call(self, request: dict) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(request["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a request that raises is a failed request
            rc = f"raised {exc!r}"
        return rc, out.getvalue(), perf_counter() - start

    def check(self, requests, replies) -> None:
        for request, (rc, stdout, latency) in zip(requests, replies):
            self.results.append((request, latency, self.oracle.check(request, rc, stdout)))

    def run_cycles(self, cycles, seconds: float, tracer=None) -> list[float]:
        """Run whole cycles until their summed request time reaches `seconds`;
        return the summed request time of each cycle.  With a tracer, every odd
        cycle runs traced."""
        walls = []
        before = self.reference.between(0.0) if self.reference else []
        for index, requests in enumerate(cycles):
            # with a tracer, stop only after a traced cycle, so that cycles pair up
            if walls and sum(walls) >= seconds and (tracer is None or index % 2 == 0):
                break
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
            try:
                replies = []
                for request in requests:
                    if traced:
                        tracer.request_id = len(self.results) + len(replies)
                    replies.append(self.call(request))
                    if self.reference and not traced:
                        after = self.reference.between(replies[-1][2])
                        self.scales.append(self.reference.scale(before, after))
                        before = after
                walls.append(sum(latency for _, _, latency in replies))
            finally:
                if traced:
                    tracer.uninstall()
            self.check(requests, replies)
        return walls


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timings(setup: list[tuple[float, float]], latencies: list[float], ok: int,
            scales: list[float]) -> dict:
    """The timing metrics of setup samples (wall, scale) and request latencies,
    each time multiplied by its scale; with all scales 1, the wall-clock values."""
    scaled = [latency * scale for latency, scale in zip(latencies, scales)]
    tail_s, _, _ = tail(scaled)
    return {
        "setup_s": statistics.median(wall * scale for wall, scale in setup),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail_s,
        "throughput_rps": ok / sum(scaled),
    }


def end_to_end(setup: list[tuple[float, float]], results: list, warm: int,
               scales: list[float]) -> tuple[dict, dict]:
    """Metrics over `results`: `warm` untimed warm-up requests, then the timed
    cycles, whose requests have the nominal-speed factors `scales`."""
    outcomes = [outcome for _, _, outcome in results]
    timed = results[warm:]
    latencies = [latency for _, latency, _ in timed]
    ok = sum(o.ok for _, _, o in timed)
    findable = sum(o.findable for o in outcomes)
    _, pct, count = tail(latencies)
    wall_clock = timings([(wall, 1.0) for wall, _ in setup], latencies, ok, [1.0] * len(timed))
    metrics = {
        **timings(setup, latencies, ok, scales),
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "found_frac": sum(o.found for o in outcomes) / findable if findable else 1.0,
        "points_per_request": sum(o.points for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    starts = sum(o.starts for o in outcomes)
    kinds = {}
    for request, latency, _ in timed:
        kinds.setdefault(request["kind"], []).append(1e3 * latency)
    extra = {"wall_clock": wall_clock,
             "scale_median": statistics.median(scales),
             "kind_ms": {kind: [len(v), round(statistics.median(v), 3), round(sum(v) / len(v), 3)]
                         for kind, v in sorted(kinds.items())},
             "latency_tail_percentile": pct, "latency_samples": count,
             "fail_frac": 1.0 - metrics["ok_frac"], "findable": findable,
             "points_per_start": sum(o.points for o in outcomes) / starts if starts else None,
             "starts": starts}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()  # before numpy is imported
    if not (SRC / "mixloci" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no mixloci source tree at {ROOT}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import mixloci.cli
    if Path(mixloci.cli.__file__).resolve().parent != SRC / "mixloci":
        print(f"error: imported mixloci from {mixloci.cli.__file__}", file=sys.stderr)
        return 1
    import oracle as oracle_mod
    import tracing
    import workloads
    os.chdir(ROOT)  # argv paths in schedules are relative to the repository root

    facts = machine_facts(threads)
    reference = None
    if args.trace == 0:
        reference = Reference()
        measure_setup(1)  # writes the bytecode caches
        setup = measure_setup(SETUP_REPEATS, reference)
    out_dir = WORK / args.workload / f"seed-{args.seed}"
    schedule = workloads.generate(args.workload, args.seed, out_dir, ROOT)
    cycles = (workloads.cycle(schedule, c) for c in range(10**9))

    client = Client(mixloci.cli, oracle_mod.Oracle(), reference)
    warm_up = workloads.cycle(schedule, 10**9)  # checked, not timed
    client.check(warm_up, [client.call(request) for request in warm_up])
    warm = len(client.results)
    if args.trace == 0:
        walls = client.run_cycles(cycles, args.seconds)
        # Imports are timed on both sides of the cycles, so that setup_s sees
        # the machine over the same span as the other metrics.
        setup += measure_setup(SETUP_REPEATS, reference)
        values, extra = end_to_end(setup, client.results, warm, client.scales)
        extra["cycles"] = len(walls)
        units = dict(END_TO_END)
    else:
        tracer = tracing.Tracer()
        # each cycle runs twice, untraced and then traced: a paired comparison
        walls = client.run_cycles((c for c in cycles for _ in range(2)), args.seconds, tracer)
        untraced, traced = walls[0::2], walls[1::2]
        per_cycle = len(warm_up)
        layer = tracer.metrics(per_cycle * len(traced), statistics.mean(untraced) / per_cycle,
                               statistics.mean(traced) / per_cycle)
        values = {name: value for name, (value, _) in layer.items()}
        units = {name: unit for name, (_, unit) in layer.items()}
        extra = {"requests_traced": per_cycle * len(traced), "cycles_traced": len(traced),
                 "cycles_untraced": len(untraced), "spans": len(tracer.spans)}
        tracer.dump(out_dir / "spans.jsonl")

    failed = 0
    for request, _, outcome in client.results:
        if not outcome.ok:
            failed += 1
            print(f"FAILED {' '.join(request['argv'])}: {outcome.reason}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(client.results), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, machine=facts, extra=extra, why=schedule["why"]), indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {schedule['why']}")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    wall_clock = extra.get("wall_clock", {})
    for name, value in values.items():
        note = f"   wall clock {wall_clock[name]:.6g}" if name in wall_clock else ""
        print(f"{name:40s} {value:14.6g} {units[name]:6s}{note}")
    for name, value in extra.items():
        if name != "wall_clock":
            print(f"# {name:38s} {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
